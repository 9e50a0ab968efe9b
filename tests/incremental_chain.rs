//! Integration test: incremental re-verification through the one request
//! path.  A baseline exported by an incremental run still proves the
//! outputs that run skipped as clean, so the next run in the chain skips
//! them too and reports exactly what a from-scratch run reports.  An edit
//! away from a recurrence leaves the recurrence clean, and a change to any
//! array of a recurrence makes its readers dirty.  A request carrying
//! a baseline honours its own limits like any other, and one JSON writer
//! renders both kinds of outcome.

use arrayeq::addg::fingerprints;
use arrayeq::core::{lower, CheckOptions};
use arrayeq::engine::{
    outcome_to_json, BaselineStatus, BudgetExhausted, CancelToken, JsonValue, Outcome,
    RequestLimits, Verdict, Verifier, VerifyRequest,
};
use arrayeq::lang::corpus::{FIG1_A, FIG1_C, KERNEL_LIFTING};
use arrayeq::lang::parser::parse_program;

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

/// The `scan` kernel's running sum `Y` beside an unrelated output `W`.
const SCAN_AND_W: &str = "#define N 128
scanw(int X[], int Y[], int W[])
{
    int k;
r0: Y[0] = X[0] + 0;
    for (k = 1; k < N; k++)
r1:     Y[k] = Y[k-1] + X[k];
    for (k = 0; k < N; k++)
w1:     W[k] = X[k] + 1;
}
";

/// [`SCAN_AND_W`] with `W` read through a new temporary `t`: one more
/// array, and the recurrence untouched.
const SCAN_AND_W_VIA_T: &str = "#define N 128
scanw(int X[], int Y[], int W[])
{
    int k, t[N];
r0: Y[0] = X[0] + 0;
    for (k = 1; k < N; k++)
r1:     Y[k] = Y[k-1] + X[k];
    for (k = 0; k < N; k++)
w0:     t[k] = X[k] + 1;
    for (k = 0; k < N; k++)
w1:     W[k] = t[k];
}
";

#[test]
fn an_edit_away_from_a_recurrence_leaves_the_recurrence_clean() {
    let fingerprint = |src: &str, array: &str| {
        let g = lower(&parse_program(src).unwrap(), &CheckOptions::default()).unwrap();
        assert!(g.is_recurrent("Y"));
        fingerprints(&g).array(array)
    };
    assert_eq!(
        fingerprint(SCAN_AND_W, "Y"),
        fingerprint(SCAN_AND_W_VIA_T, "Y"),
        "the recurrence's fingerprint depends on the rest of the program"
    );
    assert_ne!(
        fingerprint(SCAN_AND_W, "W"),
        fingerprint(SCAN_AND_W_VIA_T, "W")
    );

    let producer = Verifier::new();
    let from_self = producer
        .verify(&VerifyRequest::source(SCAN_AND_W, SCAN_AND_W))
        .unwrap();
    let baseline = producer.export_baseline(&from_self.report);
    let request = VerifyRequest::source(SCAN_AND_W, SCAN_AND_W_VIA_T);
    let edit = Verifier::new()
        .verify(&request.clone().with_baseline(baseline))
        .unwrap();
    assert_eq!(clean_outputs(&edit.baseline), ["Y"]);
    assert!(edit.report.is_equivalent(), "{}", edit.report.summary());
    let scratch = Verifier::new().verify(&request).unwrap();
    assert_eq!(edit.report.render_stable(), scratch.report.render_stable());
}

/// `P`, `Q` and `R` feed each other in a ring (`P` reads `R`, `R` reads
/// `Q`, `Q` reads `P`), and the output `Z` reads `P`.
const RING: &str = "#define N 64
ring(int X[], int Z[])
{
    int k, P[N], Q[N], R[N];
a0: P[0] = X[0] + 0;
a1: Q[0] = X[0] + 1;
a2: R[0] = X[0] + 2;
    for (k = 1; k < N; k++) {
a3:     P[k] = R[k-1] + X[k];
a4:     Q[k] = P[k] + 1;
a5:     R[k] = Q[k] + 2;
    }
    for (k = 0; k < N; k++)
a6:     Z[k] = P[k] + X[k];
}
";

#[test]
fn a_change_anywhere_in_a_recurrence_reaches_its_readers() {
    // `Q` is the array of the ring farthest from `P`: the change reaches
    // `P`'s hash only through every array of the ring.
    let changed = RING.replace("Q[k] = P[k] + 1;", "Q[k] = P[k] + 5;");
    assert_ne!(changed, RING);
    let fingerprint = |src: &str, array: &str| {
        let g = lower(&parse_program(src).unwrap(), &CheckOptions::default()).unwrap();
        assert!(g.is_recurrent("P") && g.is_recurrent("Q") && g.is_recurrent("R"));
        fingerprints(&g).array(array)
    };
    for array in ["Q", "P", "Z"] {
        assert_ne!(
            fingerprint(RING, array),
            fingerprint(&changed, array),
            "{array} keeps its fingerprint"
        );
    }

    let producer = Verifier::new();
    let from_self = producer.verify(&VerifyRequest::source(RING, RING)).unwrap();
    assert!(from_self.report.is_equivalent());
    let baseline = producer.export_baseline(&from_self.report);
    let request = VerifyRequest::source(RING, changed.as_str());
    let edit = Verifier::new()
        .verify(&request.clone().with_baseline(baseline))
        .unwrap();
    assert!(clean_outputs(&edit.baseline).is_empty());
    assert_eq!(edit.report.verdict, Verdict::NotEquivalent);
    let scratch = Verifier::new().verify(&request).unwrap();
    assert_eq!(edit.report.render_stable(), scratch.report.render_stable());
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
