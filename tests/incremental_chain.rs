//! Integration test: incremental re-verification through the one request
//! path.  A baseline exported by an incremental run still proves the
//! outputs that run skipped as clean, so the next run in the chain skips
//! them too and reports exactly what a from-scratch run reports.  A request
//! carrying a baseline honours its own limits like any other, and one JSON
//! writer renders both kinds of outcome.

use arrayeq::engine::{
    outcome_to_json, BaselineStatus, BudgetExhausted, CancelToken, JsonValue, Outcome,
    RequestLimits, Verdict, Verifier, VerifyRequest,
};
use arrayeq::lang::corpus::{FIG1_A, FIG1_C, KERNEL_LIFTING};

/// The clean outputs of an applied baseline.
fn clean_outputs(status: &Option<BaselineStatus>) -> &[String] {
    match status {
        Some(BaselineStatus::Applied { clean_outputs, .. }) => clean_outputs,
        other => panic!("baseline not applied: {other:?}"),
    }
}

/// The top-level keys of an outcome's JSON document, in order.
fn json_keys(outcome: &Outcome) -> Vec<String> {
    match JsonValue::parse(&outcome_to_json(outcome)).expect("outcome JSON parses") {
        JsonValue::Object(members) => members.into_iter().map(|(k, _)| k).collect(),
        other => panic!("outcome JSON is not an object: {other:?}"),
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
    let from_self = first
        .verify(&VerifyRequest::source(original, original))
        .unwrap();
    let b1 = first.export_baseline(&from_self.report);

    let second = Verifier::new();
    let edit = second.verify(&request.clone().with_baseline(b1)).unwrap();
    assert_eq!(clean_outputs(&edit.baseline), ["D"]);
    let b2 = second.export_baseline(&edit.report);

    let chained = Verifier::new()
        .verify(&request.clone().with_baseline(b2))
        .unwrap();
    assert_eq!(clean_outputs(&chained.baseline), ["D", "S"]);
    let scratch = Verifier::new().verify(&request).unwrap();
    assert!(
        scratch.report.is_equivalent(),
        "{}",
        scratch.report.summary()
    );
    assert_eq!(
        chained.report.render_stable(),
        scratch.report.render_stable()
    );
}

#[test]
fn a_request_with_a_baseline_keeps_its_limits_and_one_json_writer_renders_it() {
    let producer = Verifier::new();
    let from_self = producer
        .verify(&VerifyRequest::source(FIG1_A, FIG1_A))
        .unwrap();
    let baseline = producer.export_baseline(&from_self.report);
    let request = |limits: RequestLimits| {
        VerifyRequest::source(FIG1_A, FIG1_C)
            .with_limits(limits)
            .with_baseline(baseline.as_str())
    };

    let starved = Verifier::new()
        .verify(&request(RequestLimits {
            max_work: Some(1),
            ..RequestLimits::default()
        }))
        .unwrap();
    assert_eq!(starved.report.verdict, Verdict::Inconclusive);
    assert_eq!(
        starved.report.budget_exhausted,
        Some(BudgetExhausted::WorkLimit { max_work: 1 })
    );
    assert!(matches!(
        starved.baseline,
        Some(BaselineStatus::Applied { .. })
    ));

    let token = CancelToken::new();
    token.cancel();
    let cancelled = Verifier::new()
        .verify(&request(RequestLimits {
            cancel: Some(token),
            ..RequestLimits::default()
        }))
        .unwrap();
    assert_eq!(cancelled.report.verdict, Verdict::Inconclusive);
    assert_eq!(
        cancelled.report.budget_exhausted,
        Some(BudgetExhausted::Cancelled)
    );
    assert!(matches!(
        cancelled.baseline,
        Some(BaselineStatus::Applied { .. })
    ));

    // The `baseline` member closes the document of a request that carried
    // one, and a plain request's document has no such member.
    assert_eq!(
        json_keys(&cancelled),
        ["report", "wall_time_us", "session", "baseline"]
    );
    let plain = Verifier::new()
        .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
        .unwrap();
    assert_eq!(plain.baseline, None);
    assert_eq!(json_keys(&plain), ["report", "wall_time_us", "session"]);
}
