//! A designer's workflow: start from a kernel, apply a pipeline of
//! transformations (loop + data-flow + algebraic), verify every step
//! through one persistent engine session — successive steps share most of
//! their sub-computations, so the session's caches keep getting warmer —
//! then inject a bug and watch the checker localise it.
//!
//! Run with `cargo run --release --example transform_and_verify`.

use arrayeq::engine::{Verifier, VerifyRequest};
use arrayeq::lang::corpus::{with_size, FIG1_A};
use arrayeq::lang::parser::parse_program;
use arrayeq::lang::pretty::program_to_string;
use arrayeq::transform::mutate::{apply_mutation, Mutation};
use arrayeq::transform::random_pipeline;

fn main() {
    let original = parse_program(&with_size(FIG1_A, 128)).expect("corpus program parses");
    let verifier = Verifier::builder().witnesses(true).build();

    // Verify each prefix of a reproducible random pipeline against the
    // original — the PEQcheck-style localized re-checking regime where
    // verification is a *repeated* query over shared sub-problems.
    let mut transformed = original.clone();
    for steps in 1..=4 {
        let (next, applied) = random_pipeline(&original, 2 * steps, 2024);
        transformed = next;
        let outcome = verifier
            .verify(&VerifyRequest::programs(
                original.clone(),
                transformed.clone(),
            ))
            .expect("pipeline runs");
        println!(
            "after {} transformation steps {applied:?}: {}  ({} shared-table hits)",
            2 * steps,
            outcome.report.verdict,
            outcome.report.stats.shared_table_hits
        );
        assert!(outcome.report.is_equivalent());
    }
    println!(
        "\n--- final transformed program ---\n{}",
        program_to_string(&transformed)
    );
    let session = verifier.session_stats();
    println!(
        "session after the pipeline: {} queries, combined hit rate {:.0}%",
        session.queries,
        session.combined_hit_rate() * 100.0
    );

    // Now the designer slips: an off-by-two in the buf index of s2.  The
    // same session rejects it — with a concrete counterexample attached,
    // because the engine was built with witnesses enabled.
    let off_by_two = |label: &str| Mutation::IndexOffset {
        label: label.into(),
        delta: 2,
    };
    let broken = apply_mutation(&transformed, &off_by_two("s2"))
        .or_else(|_| apply_mutation(&transformed, &off_by_two("s2_hi")))
        .expect("statement s2 still exists in some form");
    let outcome = verifier
        .verify(&VerifyRequest::programs(original, broken))
        .expect("pipeline runs");
    println!(
        "verification of the buggy version: {}",
        outcome.report.verdict
    );
    assert!(!outcome.report.is_equivalent());
    println!("{}", outcome.report.summary());
}
