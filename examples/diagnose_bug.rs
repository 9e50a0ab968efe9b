//! Section 6.1: error diagnostics for the erroneous transformed version (d)
//! of Fig. 1 — the failing paths, the differing mappings, the blame
//! heuristic pointing at the `buf` index expression of statement v3, and a
//! concrete counterexample: an output element at which the two programs
//! *execute* to different values, with the failing ADDG slice rendered for
//! Graphviz.  Witness extraction is an engine option — one
//! `Verifier::builder().witnesses(true)` call, no separate entry point.
//!
//! Run with `cargo run --release --example diagnose_bug`.

use arrayeq::addg::extract;
use arrayeq::engine::{report_to_json, Verifier, VerifyRequest};
use arrayeq::lang::corpus::{FIG1_A, FIG1_D};
use arrayeq::lang::parser::parse_program;
use arrayeq::witness::witness_dot;

fn main() {
    let verifier = Verifier::builder().witnesses(true).build();
    let outcome = verifier
        .verify(&VerifyRequest::source(FIG1_A, FIG1_D))
        .expect("pipeline runs");
    let report = &outcome.report;
    assert!(!report.is_equivalent());
    println!("{}", report.summary());

    println!("--- blame heuristic ---");
    for (stmt, failing_paths) in report.blame() {
        println!("statement {stmt}: involved in {failing_paths} failing path(s)");
    }

    println!("--- concrete counterexamples ---");
    for w in &report.witnesses {
        println!("{w}");
    }

    if let Some(w) = report.witnesses.iter().find(|w| w.confirmed) {
        let transformed = parse_program(FIG1_D).expect("fig1(d) parses");
        let g = extract(&transformed).expect("ADDG extraction");
        let dot = witness_dot(&g, w).expect("slice renders");
        println!("--- failing slice of the transformed ADDG (Graphviz) ---");
        println!("{dot}");
    }

    // The same report, machine-readable (what `arrayeq verify --json` emits).
    println!("--- JSON ---");
    println!("{}", report_to_json(report));
}
