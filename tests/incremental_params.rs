//! Integration test: an incremental re-check proves the same claim as the
//! whole check.  Under parameter promotion, a request carrying a baseline
//! runs the same front end as one without, so a pair that holds only at
//! special sizes is rejected either way, and a baseline exported under
//! promotion is reused.

use arrayeq::engine::{BaselineStatus, Verifier, VerifyRequest};
use arrayeq::lang::corpus::{FIG1_A, FIG1_C};

/// An engine that promotes the `#define N` of every program to
/// `#param N >= 1`.
fn promoted() -> Verifier {
    Verifier::builder().params(vec![("N".into(), 1)]).build()
}

/// A baseline exported from Fig. 1 (a) verified against itself.
fn self_baseline() -> String {
    let producer = promoted();
    let outcome = producer
        .verify(&VerifyRequest::source(FIG1_A, FIG1_A))
        .unwrap();
    assert!(
        outcome.report.is_equivalent(),
        "{}",
        outcome.report.summary()
    );
    producer.export_baseline(&outcome.report)
}

#[test]
fn incremental_check_rejects_what_the_whole_check_rejects() {
    // (a) vs (c) holds only for even N: the def-use check on `buf` fails.
    let request = VerifyRequest::source(FIG1_A, FIG1_C);
    let whole = promoted().verify(&request).unwrap_err();
    assert!(whole.to_string().contains("buf"), "{whole}");
    let localized = promoted()
        .verify(&request.with_baseline(self_baseline()))
        .unwrap_err();
    assert_eq!(localized, whole);
}

#[test]
fn promoted_baseline_proves_its_own_pair_clean() {
    let request = VerifyRequest::source(FIG1_A, FIG1_A).with_baseline(self_baseline());
    let inc = promoted().verify(&request).unwrap();
    match &inc.baseline {
        Some(BaselineStatus::Applied { clean_outputs, .. }) => {
            assert_eq!(clean_outputs, &["C".to_owned()]);
        }
        other => panic!("baseline must apply: {other:?}"),
    }
    assert!(inc.report.is_equivalent());
}
