//! Soundness under adversity: worker panics and solver arithmetic overflow
//! must degrade to *typed inconclusive* verdicts — never a wrong verdict,
//! never a crash, never a poisoned session.
//!
//! * A panicking worker poisons only its own obligation, with one worker as
//!   with many: the run reports `Inconclusive` with a
//!   [`BudgetExhausted::WorkerPanicked`] reason and a
//!   [`DiagnosticKind::WorkerPanicked`] diagnostic naming the output, and
//!   the session's shared tables stay usable — the next verify on the
//!   *same* engine is byte-identical to a fresh engine's.
//! * Solver arithmetic that would exceed `i64` leaves a degraded answer in
//!   the run's solver events, reported as
//!   [`BudgetExhausted::ArithOverflow`]; the verdict is withheld rather than
//!   silently wrong.

use arrayeq_core::{
    check, inject_worker_panic_on_task, lower, BudgetExhausted, CheckContext, CheckOptions,
    DiagnosticKind, Report, Result, Verdict,
};
use arrayeq_engine::{Verifier, VerifyRequest};
use arrayeq_lang::ast::Program;
use arrayeq_lang::parser::parse_program;
use arrayeq_transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq_transform::random_pipeline;
use std::sync::Mutex;

fn check_programs(a: &Program, b: &Program, opts: &CheckOptions) -> Result<Report> {
    check(
        &lower(a, opts)?,
        &lower(b, opts)?,
        opts,
        &CheckContext::default(),
    )
}

fn check_sources(a: &str, b: &str, opts: &CheckOptions) -> Result<Report> {
    check_programs(&parse_program(a)?, &parse_program(b)?, opts)
}

/// The panic-injection hook is a process-global one-shot: serialize every
/// test that arms it so concurrent test threads cannot steal each other's
/// injection.
static INJECTION_LOCK: Mutex<()> = Mutex::new(());

/// A wide multi-output kernel pair: six outputs, so six root tasks that a
/// pool of several workers shares, and poisoning one task leaves the other
/// outputs' work standing.
fn wide_pair() -> (Program, Program) {
    let original = generate_kernel(&GeneratorConfig {
        n: 64,
        layers: 2,
        outputs: 6,
        seed: 4,
        ..Default::default()
    });
    let (transformed, _) = random_pipeline(&original, 4, 104);
    (original, transformed)
}

#[test]
fn injected_worker_panic_poisons_only_its_obligation() {
    let _guard = INJECTION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for jobs in [1usize, 4] {
        panic_poisons_only_its_obligation(jobs);
    }
}

fn panic_poisons_only_its_obligation(jobs: usize) {
    let (original, transformed) = wide_pair();
    let opts = CheckOptions::default().with_jobs(jobs);

    // Uninjected baseline: the pair is equivalent.
    let clean = check_programs(&original, &transformed, &opts).unwrap();
    assert_eq!(clean.verdict, Verdict::Equivalent, "{}", clean.summary());

    inject_worker_panic_on_task(Some(0));
    let poisoned = check_programs(&original, &transformed, &opts).unwrap();
    inject_worker_panic_on_task(None);

    assert_eq!(
        poisoned.verdict,
        Verdict::Inconclusive,
        "jobs={jobs}: a panicked obligation neither proves nor refutes: {}",
        poisoned.summary()
    );
    match &poisoned.budget_exhausted {
        Some(BudgetExhausted::WorkerPanicked { message }) => {
            assert!(
                message.contains("injected worker panic"),
                "reason carries the panic payload: {message}"
            )
        }
        other => panic!("jobs={jobs}: expected WorkerPanicked reason, got {other:?}"),
    }
    let panic_diags: Vec<_> = poisoned
        .diagnostics
        .iter()
        .filter(|d| d.kind == DiagnosticKind::WorkerPanicked)
        .collect();
    assert_eq!(
        panic_diags.len(),
        1,
        "jobs={jobs}: exactly the injected task is poisoned: {:?}",
        poisoned.diagnostics
    );
    assert!(
        panic_diags[0].output_array.is_some(),
        "the diagnostic names the poisoned output"
    );

    // The injection is one-shot: the very next run is clean and
    // byte-identical to the baseline.
    let healed = check_programs(&original, &transformed, &opts).unwrap();
    assert_eq!(clean.render_stable(), healed.render_stable(), "jobs={jobs}");
}

#[test]
fn session_survives_a_worker_panic_byte_identically() {
    let _guard = INJECTION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (original, transformed) = wide_pair();

    // Engine A eats the panic on its first query; engine B never sees one.
    let poisoned_engine = Verifier::builder().jobs(4).build();
    inject_worker_panic_on_task(Some(1));
    let poisoned = poisoned_engine
        .verify(&VerifyRequest::programs(
            original.clone(),
            transformed.clone(),
        ))
        .unwrap();
    inject_worker_panic_on_task(None);
    assert_eq!(poisoned.report.verdict, Verdict::Inconclusive);

    // The shared session tables were fed by the surviving workers while the
    // panicking one was quarantined; whatever they hold must be complete
    // facts — the follow-up answer has to match a fresh engine's byte for
    // byte.
    let after = poisoned_engine
        .verify(&VerifyRequest::programs(
            original.clone(),
            transformed.clone(),
        ))
        .unwrap();
    let fresh = Verifier::builder()
        .jobs(4)
        .build()
        .verify(&VerifyRequest::programs(original, transformed))
        .unwrap();
    assert_eq!(after.report.verdict, Verdict::Equivalent);
    assert_eq!(after.report.render_stable(), fresh.report.render_stable());
}

/// Both branches compute the same value, so A ≡ B regardless of the guard
/// — but the guards carry coefficients around `4e9` whose solver-internal
/// combinations exceed `i64`.  Overflow degrades conservatively
/// ("feasible"), which in the frontend's class checks surfaces as a
/// *rejection* (spurious DSA overlap) and in the checker as a typed
/// inconclusive — either is sound; claiming NOT EQUIVALENT for this
/// equivalent pair, or EQUIVALENT with a silently wrapped computation,
/// would not be.
const OVERFLOW_A: &str = r#"
#define N 16
foo(int A[], int C[])
{
    int k, j;
    for(k=0; k<N; k++)
      for(j=0; j<N; j++){
        if (1000003*k - 4000000007*j >= 1)
s1:       C[16*k + j] = A[k];
        else
s2:       C[16*k + j] = A[k];
      }
}
"#;

/// See [`OVERFLOW_A`]: the same function under a different adversarial
/// guard split.
const OVERFLOW_B: &str = r#"
#define N 16
foo(int A[], int C[])
{
    int k, j;
    for(k=0; k<N; k++)
      for(j=0; j<N; j++){
        if (4000000009*k - 1000033*j >= 1)
t1:       C[16*k + j] = A[k];
        else
t2:       C[16*k + j] = A[k];
      }
}
"#;

#[test]
fn huge_coefficient_sources_never_yield_a_wrong_verdict() {
    for jobs in [0usize, 4] {
        let opts = CheckOptions::default().with_jobs(jobs);
        match check_sources(OVERFLOW_A, OVERFLOW_B, &opts) {
            // Conservative frontend rejection: overflow during the class
            // checks reports "feasible", which reads as a spurious DSA
            // overlap — a typed error, not a wrong verdict.
            Err(arrayeq_core::CoreError::Lang(_)) => {}
            Ok(report) => match report.verdict {
                // The pair IS equivalent, so proving it is correct…
                Verdict::Equivalent => {}
                // …and withholding is fine only with a typed reason: either
                // residual overflow, or — now that the big-int fallback
                // decides the overflowed conjuncts exactly and lets the pair
                // past the front end — an obligation whose subtract cannot
                // eliminate its existentials exactly.
                Verdict::Inconclusive => assert!(
                    matches!(
                        report.budget_exhausted,
                        Some(BudgetExhausted::ArithOverflow { .. })
                            | Some(BudgetExhausted::UnsupportedFragment { .. })
                    ),
                    "jobs={jobs}: inconclusive without typed reason: {:?}",
                    report.budget_exhausted
                ),
                Verdict::NotEquivalent => {
                    panic!("jobs={jobs}: wrong verdict on an equivalent pair")
                }
            },
            Err(e) => panic!("jobs={jobs}: unexpected pipeline error: {e}"),
        }
    }
}

#[test]
fn solver_overflow_withholds_the_verdict_as_typed_inconclusive() {
    let _guard = INJECTION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (original, transformed) = wide_pair();
    let opts = CheckOptions::default();

    arrayeq_core::inject_arith_overflow_once();
    let report = check_programs(&original, &transformed, &opts).unwrap();
    assert_eq!(
        report.verdict,
        Verdict::Inconclusive,
        "overflow must withhold the verdict: {}",
        report.summary()
    );
    match &report.budget_exhausted {
        Some(BudgetExhausted::ArithOverflow { events }) => {
            assert!(*events > 0, "the reason counts the overflow events")
        }
        other => panic!("expected ArithOverflow reason, got {other:?}"),
    }

    // One-shot: the next run is clean again.
    let healed = check_programs(&original, &transformed, &opts).unwrap();
    assert_eq!(healed.verdict, Verdict::Equivalent, "{}", healed.summary());
}

#[test]
fn solver_overflow_is_harvested_from_parallel_workers_too() {
    let _guard = INJECTION_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (original, transformed) = wide_pair();
    for jobs in [2usize, 4] {
        arrayeq_core::inject_arith_overflow_once();
        let report = check_programs(
            &original,
            &transformed,
            &CheckOptions::default().with_jobs(jobs),
        )
        .unwrap();
        assert_eq!(report.verdict, Verdict::Inconclusive, "jobs={jobs}");
        assert!(
            matches!(
                report.budget_exhausted,
                Some(BudgetExhausted::ArithOverflow { .. })
            ),
            "jobs={jobs}: {:?}",
            report.budget_exhausted
        );
    }
}
