//! Integration test: the realistic kernel suite verifies under random
//! transformation pipelines (the Section 6.2 workload, experiment E8).

use arrayeq::engine::{Verifier, VerifyRequest};
use arrayeq::lang::corpus::KERNELS;
use arrayeq::lang::parser::parse_program;
use arrayeq::transform::random_pipeline;

#[test]
fn every_kernel_verifies_against_its_transformed_version() {
    let verifier = Verifier::new();
    for (name, src) in KERNELS {
        let original = parse_program(src).unwrap();
        let (transformed, steps) = random_pipeline(&original, 6, 23);
        let report = verifier
            .verify(&VerifyRequest::programs(original, transformed))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .report;
        assert!(
            report.is_equivalent(),
            "{name} with steps {steps:?}:\n{}",
            report.summary()
        );
    }
}
