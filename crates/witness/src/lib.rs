//! # arrayeq-witness
//!
//! Concrete counterexamples for `NotEquivalent` verdicts.
//!
//! The checker of `arrayeq-core` proves *where* two programs diverge in
//! terms of integer relations: each failing diagnostic carries a structured
//! failing domain — the set of output elements for which the sufficient
//! condition broke.  This crate turns that symbolic evidence into a
//! machine-checked, executable counterexample (in the spirit of PEQcheck's
//! validation of equivalence claims against concrete executions):
//!
//! 1. **Sample** — concrete points are drawn from the failing domains with
//!    the Omega model extraction ([`arrayeq_omega::Relation::sample_point`]);
//!    several distinct points are enumerated by subtracting each sampled
//!    point and sampling again.
//! 2. **Replay** — both programs are executed through the reference
//!    interpreter on deterministic input fills
//!    ([`arrayeq_lang::interp::standard_inputs`]) and compared at each
//!    sampled output element until a fill/point pair exhibits two different
//!    values.  Value-level coincidences (a wrong expression that happens to
//!    agree at one point, like Fig. 1(d) at `k = 0`) are escaped by moving to
//!    the next point and the next fill.
//! 3. **Slice** — the ADDGs of both programs are sliced to the statements
//!    feeding the witness point ([`arrayeq_addg::slice_for_point`]), giving a
//!    minimal, visually-renderable explanation
//!    ([`arrayeq_addg::to_dot_highlighted`]).
//!
//! The result is attached to the checker's [`Report`] as typed
//! [`Witness`] values.  The end-to-end guarantee — every mutant of the
//! fault-injection corpus yields a replay-confirmed witness — is enforced by
//! this crate's `mutation_selftest` integration test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use arrayeq_addg::{extract, slice_for_point, to_dot_highlighted, Addg};
use arrayeq_core::{Report, Result, Witness};
use arrayeq_lang::ast::Program;
use arrayeq_lang::interp::{flat_offset, standard_inputs, Interpreter, Memory};
use arrayeq_omega::Set;
use std::collections::BTreeMap;

/// Distinct points sampled from one failing domain, at most.
const MAX_POINTS: usize = 16;

/// Seeds of the deterministic input fills replayed per point.
const INPUT_FILLS: [u64; 3] = [1, 2, 3];

/// Confirmed witnesses produced, at most (at most one per output array).
const MAX_WITNESSES: usize = 4;

/// Extracts witnesses for an existing `NotEquivalent` report.
///
/// Candidate domains are taken from the structured failing domains of the
/// diagnostics (grouped by output array); outputs whose diagnostics carry no
/// domain fall back to the full set of elements the original program
/// defines.  For each output, points and input fills are tried until the
/// replay confirms a divergence; if none does within the budget (16
/// points per domain, fills 1 to 3, at most 4 confirmed witnesses), an
/// *unconfirmed* witness (sampled point, equal values) is still reported.
///
/// # Errors
///
/// Propagates ADDG-extraction and omega-layer errors.
pub fn extract_witnesses(
    original: &Program,
    transformed: &Program,
    report: &Report,
) -> Result<Vec<Witness>> {
    let g1 = extract(original)?;
    let g2 = extract(transformed)?;

    // Candidate failing domains per output, in diagnostic order.
    let mut candidates: Vec<(String, Set)> = Vec::new();
    for d in &report.diagnostics {
        if let (Some(out), Some(dom)) = (&d.output_array, &d.failing_domain) {
            candidates.push((out.clone(), dom.clone()));
        }
    }
    for out in &report.outputs_checked {
        if !candidates.iter().any(|(o, _)| o == out) {
            if let Some(full) = g1.defined_elements(out) {
                candidates.push((out.clone(), full));
            }
        }
    }

    // One interpreter run per (program, fill), shared across all points.
    let mut runs: BTreeMap<u64, Option<(Memory, Memory)>> = BTreeMap::new();
    let mut run_pair = |seed: u64| -> Option<(Memory, Memory)> {
        runs.entry(seed)
            .or_insert_with(|| {
                let inputs = standard_inputs(original, seed);
                let a = Interpreter::new(original).run(&inputs).ok()?.0;
                let b = Interpreter::new(transformed).run(&inputs).ok()?.0;
                Some((a, b))
            })
            .clone()
    };

    let mut witnesses: Vec<Witness> = Vec::new();
    for (output, domain) in candidates {
        // Only confirmed witnesses consume the budget: an output whose
        // replays all came back equal must not starve later outputs.
        if witnesses.iter().filter(|w| w.confirmed).count() >= MAX_WITNESSES {
            break;
        }
        if witnesses.iter().any(|w| w.output == output && w.confirmed) {
            continue; // this output already has a confirmed counterexample
        }
        let points = enumerate_points(&domain, MAX_POINTS);
        if points.is_empty() {
            continue;
        }
        let mut replays = 0usize;
        let mut fallback: Option<Witness> = None;
        'search: for seed in INPUT_FILLS {
            let Some((mem_a, mem_b)) = run_pair(seed) else {
                continue;
            };
            for point in &points {
                let Some(idx) = flat_offset(point) else {
                    continue;
                };
                let va = mem_a.element(&output, idx);
                let vb = mem_b.element(&output, idx);
                replays += 1;
                if va.is_some() && vb.is_some() && va != vb {
                    witnesses.retain(|w| w.output != output); // drop unconfirmed
                    witnesses.push(make_witness(
                        &g1, &g2, &output, point, va, vb, true, replays,
                    )?);
                    break 'search;
                }
                if fallback.is_none() {
                    fallback = Some(make_witness(
                        &g1, &g2, &output, point, va, vb, false, replays,
                    )?);
                }
            }
        }
        if !witnesses.iter().any(|w| w.output == output) {
            if let Some(w) = fallback {
                witnesses.push(w);
            }
        }
    }
    Ok(witnesses)
}

/// Enumerates up to `max` distinct parameter-free points of `domain` via
/// [`Set::sample_points`].  Points that exist only under a non-empty
/// parameter assignment are skipped: the replay executes fully-constant
/// programs and has no symbolic parameters to bind.
fn enumerate_points(domain: &Set, max: usize) -> Vec<Vec<i64>> {
    domain
        .sample_points(max)
        .into_iter()
        .filter(|(_, params)| params.is_empty())
        .map(|(point, _)| point)
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn make_witness(
    g1: &Addg,
    g2: &Addg,
    output: &str,
    point: &[i64],
    va: Option<i64>,
    vb: Option<i64>,
    confirmed: bool,
    replays: usize,
) -> Result<Witness> {
    let s1 = slice_for_point(g1, output, point)?;
    let s2 = slice_for_point(g2, output, point)?;
    Ok(Witness {
        output: output.to_owned(),
        point: point.to_vec(),
        params: Vec::new(),
        original_value: va,
        transformed_value: vb,
        confirmed,
        replays,
        original_slice: s1.statements.into_iter().collect(),
        transformed_slice: s2.statements.into_iter().collect(),
    })
}

/// Renders the transformed program's ADDG with the witness's failing slice
/// highlighted — the "show me the bug" figure.
///
/// # Errors
///
/// Propagates omega-layer errors from the slicing.
pub fn witness_dot(g: &Addg, w: &Witness) -> Result<String> {
    let slice = slice_for_point(g, &w.output, &w.point)?;
    Ok(to_dot_highlighted(g, &slice))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayeq_core::{check, lower, CheckContext, CheckOptions, Verdict};
    use arrayeq_lang::corpus::{FIG1_A, FIG1_D};
    use arrayeq_lang::parser::parse_program;

    /// Checks the pair one-shot and extracts witnesses for a
    /// `NotEquivalent` verdict.
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
    fn fig1d_yields_a_confirmed_witness_despite_the_k0_coincidence() {
        let a = parse_program(FIG1_A).unwrap();
        let d = parse_program(FIG1_D).unwrap();
        let report = check_with_witnesses(&a, &d).unwrap();
        assert_eq!(report.verdict, Verdict::NotEquivalent);
        let w = report
            .witnesses
            .iter()
            .find(|w| w.confirmed)
            .expect("a confirmed witness");
        assert_eq!(w.output, "C");
        // The paper: version (d) is wrong on even k, but at k = 0 the wrong
        // expression coincides with the right one — the replay must have
        // skipped past it.
        assert_eq!(w.point[0].rem_euclid(2), 0);
        assert_ne!(w.point[0], 0);
        assert_ne!(w.original_value, w.transformed_value);
        // The slice points at the transformed-side statements feeding the
        // point, including the buggy v3.
        assert!(w.transformed_slice.iter().any(|s| s == "v3"));
        // Summary renders the witness.
        assert!(report.summary().contains("witness: C["));
    }

    #[test]
    fn equivalent_pairs_get_no_witnesses() {
        let a = parse_program(FIG1_A).unwrap();
        let report = check_with_witnesses(&a, &a).unwrap();
        assert!(report.is_equivalent());
        assert!(report.witnesses.is_empty());
    }

    #[test]
    fn witness_dot_highlights_the_failing_slice() {
        let a = parse_program(FIG1_A).unwrap();
        let d = parse_program(FIG1_D).unwrap();
        let report = check_with_witnesses(&a, &d).unwrap();
        let w = report.witnesses.iter().find(|w| w.confirmed).unwrap();
        let g2 = extract(&d).unwrap();
        let dot = witness_dot(&g2, w).unwrap();
        assert!(dot.contains("color=red"));
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn point_enumeration_yields_distinct_members() {
        let dom = Set::parse("{ [k] : k % 2 = 0 and 0 <= k < 10 }").unwrap();
        let pts = enumerate_points(&dom, 10);
        assert_eq!(pts.len(), 5);
        let mut seen: Vec<i64> = pts.iter().map(|p| p[0]).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5);
        assert!(pts.iter().all(|p| dom.contains(p, &[])));
    }
}
