//! Integration test: the checker's verdicts are cross-validated against the
//! simulation oracle on generated kernels and random transformation
//! pipelines (the consistency the paper's designers rely on).

use arrayeq::engine::{Verifier, VerifyRequest};
use arrayeq::lang::interp::Interpreter;
use arrayeq::transform::generator::{generate_kernel, inputs_for, GeneratorConfig};
use arrayeq::transform::mutate::{apply_mutation, Mutation};
use arrayeq::transform::random_pipeline;

#[test]
fn equivalence_verdicts_imply_identical_simulation_outputs() {
    for seed in 0..3u64 {
        let cfg = GeneratorConfig {
            n: 48,
            layers: 3,
            seed,
            ..Default::default()
        };
        let original = generate_kernel(&cfg);
        let (transformed, steps) = random_pipeline(&original, 6, seed + 100);
        let request = VerifyRequest::programs(original.clone(), transformed.clone());
        let report = Verifier::new().verify(&request).unwrap().report;
        assert!(
            report.is_equivalent(),
            "seed {seed} steps {steps:?}: {}",
            report.summary()
        );

        let inputs = inputs_for(&cfg);
        let o1 = Interpreter::new(&original)
            .run_for_output(&inputs, "OUT")
            .unwrap();
        let o2 = Interpreter::new(&transformed)
            .run_for_output(&inputs, "OUT")
            .unwrap();
        assert_eq!(
            o1, o2,
            "simulation must agree when the checker says equivalent"
        );
    }
}

#[test]
fn injected_bugs_are_never_reported_equivalent() {
    let cfg = GeneratorConfig {
        n: 48,
        layers: 3,
        seed: 9,
        ..Default::default()
    };
    let original = generate_kernel(&cfg);
    let (transformed, _) = random_pipeline(&original, 4, 77);
    // Inject into the first statement of the transformed program.
    let label = transformed.statements().next().unwrap().label.clone();
    for bug in [
        Mutation::IndexScale {
            label: label.clone(),
            factor: 2,
        },
        Mutation::WrongOperator { label },
    ] {
        let Ok(broken) = apply_mutation(&transformed, &bug) else {
            continue;
        };
        let request = VerifyRequest::programs(original.clone(), broken);
        match Verifier::new().verify(&request).map(|o| o.report) {
            Ok(report) => assert!(
                !report.is_equivalent(),
                "bug {bug} must not check as equivalent"
            ),
            // A def-use rejection is also a (correct) detection.
            Err(arrayeq::core::CoreError::Lang(arrayeq::lang::LangError::DefUse { .. })) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}
