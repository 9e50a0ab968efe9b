//! Integration and property tests of the witness engine through the façade
//! crate: every mutated program — from the curated corpus *and* from
//! randomly generated kernels — is rejected by the checker with a
//! replay-confirmed concrete counterexample.

use arrayeq::core::{Report, Verdict};
use arrayeq::engine::{Verifier, VerifyRequest};
use arrayeq::transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq::transform::mutate::{curated_mutants, fault_corpus, FaultCase};
use arrayeq::witness::witness_dot;
use proptest::prelude::*;

/// Verifies a fault case with witness extraction on.
fn check_with_witnesses(case: &FaultCase) -> arrayeq::core::Result<Report> {
    let request = VerifyRequest::programs(case.original.clone(), case.mutant.clone());
    let verifier = Verifier::builder().witnesses(true).build();
    verifier.verify(&request).map(|o| o.report)
}

fn assert_confirmed_witness(case: &FaultCase) {
    let report = check_with_witnesses(case).unwrap_or_else(|e| panic!("{}: {e}", case.name));
    assert_eq!(
        report.verdict,
        Verdict::NotEquivalent,
        "{}: {}",
        case.name,
        report.summary()
    );
    let w = report
        .witnesses
        .iter()
        .find(|w| w.confirmed)
        .unwrap_or_else(|| panic!("{}: no confirmed witness\n{}", case.name, report.summary()));
    assert_ne!(w.original_value, w.transformed_value, "{}", case.name);
}

#[test]
fn corpus_mutants_yield_confirmed_witnesses_through_the_facade() {
    // A spot-check through the façade re-exports (the exhaustive run lives
    // in the witness crate's own mutation_selftest).
    let corpus = fault_corpus();
    for case in corpus.iter().step_by(5) {
        assert_confirmed_witness(case);
    }
}

#[test]
fn witness_dot_renders_for_a_corpus_case() {
    let corpus = fault_corpus();
    let case = &corpus[0];
    let report = check_with_witnesses(case).unwrap();
    let w = &report.witnesses[0];
    let g = arrayeq::addg::extract(&case.mutant).unwrap();
    let dot = witness_dot(&g, w).unwrap();
    assert!(dot.starts_with("digraph"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mutating a *generated* kernel (any seed) always yields fault cases
    /// whose bugs the checker finds and whose witnesses replay to a concrete
    /// divergence — the end-to-end property of the whole pipeline.
    #[test]
    fn generated_kernel_mutants_always_yield_confirmed_witnesses(seed in 0u64..40) {
        let cfg = GeneratorConfig { n: 24, layers: 2, seed, ..Default::default() };
        let original = generate_kernel(&cfg);
        let cases = curated_mutants("gen", &original);
        // The generator always emits mutable shapes (loops with bounds,
        // strided input reads), so the curation never comes back empty.
        prop_assert!(!cases.is_empty(), "no curated mutants for seed {seed}");
        for case in &cases {
            let report = check_with_witnesses(case).unwrap();
            prop_assert!(report.verdict == Verdict::NotEquivalent, "{}", case.name);
            let confirmed = report.witnesses.iter().find(|w| w.confirmed);
            prop_assert!(
                confirmed.is_some(),
                "{}: no replay-confirmed witness\n{}", case.name, report.summary()
            );
            let w = confirmed.unwrap();
            prop_assert!(w.original_value != w.transformed_value, "{}", case.name);
        }
    }
}
