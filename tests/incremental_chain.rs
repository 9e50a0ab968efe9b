//! Integration test: chained incremental re-verification.  A baseline
//! exported by an incremental run still proves the outputs that run skipped
//! as clean, so the next run in the chain skips them too and reports
//! exactly what a from-scratch run reports.

use arrayeq::engine::{BaselineStatus, Verifier, VerifyRequest};
use arrayeq::lang::corpus::KERNEL_LIFTING;

/// The clean outputs of an applied baseline.
fn clean_outputs(status: &BaselineStatus) -> &[String] {
    match status {
        BaselineStatus::Applied { clean_outputs, .. } => clean_outputs,
        BaselineStatus::Rejected(rejection) => panic!("baseline rejected: {rejection}"),
    }
}

#[test]
fn a_baseline_exported_by_an_incremental_run_keeps_its_clean_outputs() {
    // The lifting kernel with `l2` commuted: `S` is re-checked, `D` is
    // untouched.
    let original = KERNEL_LIFTING;
    let edited = original.replace("S[k] = X[2*k] + D[k];", "S[k] = D[k] + X[2*k];");
    assert_ne!(edited, original);
    let request = VerifyRequest::source(original, edited.as_str());

    // Each step is a fresh engine, as one CLI invocation per step is.
    let first = Verifier::new();
    let from_self = first.verify_source(original, original).unwrap();
    let b1 = first.export_baseline(&from_self.report);

    let second = Verifier::new();
    let edit = second.verify_incremental(&request, &b1).unwrap();
    assert_eq!(clean_outputs(&edit.baseline), ["D"]);
    let b2 = second.export_baseline(&edit.outcome.report);

    let chained = Verifier::new().verify_incremental(&request, &b2).unwrap();
    assert_eq!(clean_outputs(&chained.baseline), ["D", "S"]);
    let scratch = Verifier::new().verify(&request).unwrap();
    assert!(
        scratch.report.is_equivalent(),
        "{}",
        scratch.report.summary()
    );
    assert_eq!(
        chained.outcome.report.render_stable(),
        scratch.report.render_stable()
    );
}
