//! End-to-end mutation self-test — the acceptance gate of the witness
//! engine.
//!
//! For *every* case of the fault-injection corpus
//! ([`arrayeq_transform::mutate::fault_corpus`]): the pair is in-class,
//! def-use-clean and ground-truth inequivalent (established by simulation,
//! independently of the checker).  The test then proves, per case, that
//!
//! 1. the checker answers `NotEquivalent` (no mutant slips through), and
//! 2. the witness engine produces a *replay-confirmed* counterexample: a
//!    concrete output element at which executing the two programs yields
//!    different values, sampled from the checker's own failing domains.

use arrayeq_core::{check, lower, CheckContext, CheckOptions, Report, Result, Verdict};
use arrayeq_lang::ast::Program;
use arrayeq_transform::mutate::fault_corpus;
use arrayeq_witness::extract_witnesses;

/// Checks the pair one-shot and extracts witnesses for a `NotEquivalent`
/// verdict.
fn check_with_witnesses(original: &Program, transformed: &Program) -> Result<Report> {
    let opts = CheckOptions::default();
    let (g1, g2) = (lower(original, &opts)?, lower(transformed, &opts)?);
    let mut report = check(&g1, &g2, &opts, &CheckContext::default())?;
    if report.verdict == Verdict::NotEquivalent {
        report.witnesses = extract_witnesses(original, transformed, &report)?;
    }
    Ok(report)
}

#[test]
fn every_mutant_is_rejected_with_a_replay_confirmed_witness() {
    let corpus = fault_corpus();
    assert!(
        corpus.len() >= 8,
        "fault corpus unexpectedly small: {}",
        corpus.len()
    );
    let mut failures = Vec::new();
    for case in &corpus {
        let report = check_with_witnesses(&case.original, &case.mutant)
            .unwrap_or_else(|e| panic!("{}: pipeline error: {e}", case.name));
        if report.verdict != Verdict::NotEquivalent {
            failures.push(format!(
                "{}: verdict {} (expected NOT EQUIVALENT)",
                case.name, report.verdict
            ));
            continue;
        }
        let Some(w) = report.witnesses.iter().find(|w| w.confirmed) else {
            failures.push(format!(
                "{}: no replay-confirmed witness\n{}",
                case.name,
                report.summary()
            ));
            continue;
        };
        // The confirmed witness is a genuine divergence at a concrete point.
        assert_ne!(
            w.original_value, w.transformed_value,
            "{}: confirmed witness without differing values",
            case.name
        );
        assert!(
            !w.original_slice.is_empty() || !w.transformed_slice.is_empty(),
            "{}: witness has an empty slice on both sides",
            case.name
        );
    }
    assert!(
        failures.is_empty(),
        "{} of {} corpus cases failed:\n{}",
        failures.len(),
        corpus.len(),
        failures.join("\n")
    );
}

#[test]
fn witnesses_point_into_the_failing_domain() {
    // Spot-check on a handful of cases: the witness point must lie inside
    // some diagnostic's failing domain when one exists for its output.
    let corpus = fault_corpus();
    for case in corpus.iter().take(6) {
        let report = check_with_witnesses(&case.original, &case.mutant).unwrap();
        for w in report.witnesses.iter().filter(|w| w.confirmed) {
            let domains: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| d.output_array.as_deref() == Some(w.output.as_str()))
                .filter_map(|d| d.failing_domain.as_ref())
                .collect();
            if !domains.is_empty() {
                assert!(
                    domains.iter().any(|dom| dom.contains(&w.point, &[])),
                    "{}: witness point {:?} outside every failing domain",
                    case.name,
                    w.point
                );
            }
        }
    }
}
