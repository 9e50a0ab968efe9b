//! Reproduces the paper's running example: the four program versions of
//! Fig. 1 and the verdicts of Sections 5 and 6 (E1/E3 of EXPERIMENTS.md),
//! issued from one thread per pair against one persistent engine.
//!
//! Run with `cargo run --release --example fig1_paper`.

use arrayeq::core::Method;
use arrayeq::engine::{Verifier, VerifyRequest};
use arrayeq::lang::corpus::{FIG1_A, FIG1_B, FIG1_C, FIG1_D};

fn main() {
    let pairs = [
        ("(a) vs (b)", FIG1_A, FIG1_B, true),
        ("(a) vs (c)", FIG1_A, FIG1_C, true),
        ("(b) vs (c)", FIG1_B, FIG1_C, true),
        ("(a) vs (d)", FIG1_A, FIG1_D, false),
    ];

    // One engine, one thread per pair: every thread calls `verify` on the
    // same engine, so all of them share one cache, and joining the handles
    // in order keeps the results in pair order.
    let verifier = Verifier::builder().build();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .iter()
            .map(|(_, a, b, _)| scope.spawn(|| verifier.verify(&VerifyRequest::source(*a, *b))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a verification thread does not panic"))
            .collect()
    });

    for ((name, _, _, expect_equivalent), outcome) in pairs.iter().zip(outcomes) {
        let outcome = outcome.expect("pipeline runs");
        println!(
            "{name}: {}   (paths: {}, flattenings: {}, matchings: {})",
            outcome.report.verdict,
            outcome.report.stats.paths_compared,
            outcome.report.stats.flattenings,
            outcome.report.stats.matchings
        );
        assert_eq!(outcome.report.is_equivalent(), *expect_equivalent, "{name}");
    }
    let session = verifier.session_stats();
    println!(
        "session: {} queries ({} equivalent, {} not), {} shared-table entries",
        session.queries, session.equivalent, session.not_equivalent, session.shared_table_entries
    );

    // The basic method of Section 5.1 cannot handle the algebraic
    // transformations that produce (c).  Method choice is an engine-level
    // policy (cache entries are only valid under one options set), so a
    // basic-method check is a second engine.
    let basic = Verifier::builder().method(Method::Basic).build();
    let outcome = basic
        .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
        .unwrap();
    println!(
        "(a) vs (c) with the basic method: {}",
        outcome.report.verdict
    );
    assert!(!outcome.report.is_equivalent());
}
