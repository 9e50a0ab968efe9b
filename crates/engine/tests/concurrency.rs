//! Concurrency and budget guarantees of the persistent [`Verifier`]:
//!
//! * two threads sharing one engine observe *cross-thread* table hits, and
//!   the session stats prove the reuse;
//! * a tiny wall-clock deadline and a cancelled token both yield
//!   [`Verdict::Inconclusive`] with the typed reason, in bounded time —
//!   never a hang.

use arrayeq_engine::{
    BudgetExhausted, CancelToken, RequestLimits, Verdict, Verifier, VerifyRequest,
};
use arrayeq_lang::corpus::{FIG1_A, FIG1_B, FIG1_C};
use arrayeq_transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq_transform::random_pipeline;
use std::time::{Duration, Instant};

/// A deterministic equivalent pair big enough that its check performs
/// thousands of traversal steps.
fn big_pair(seed: u64) -> VerifyRequest {
    let original = generate_kernel(&GeneratorConfig {
        n: 256,
        layers: 12,
        inputs: 3,
        fanin: 3,
        seed,
        ..Default::default()
    });
    let (transformed, _) = random_pipeline(&original, 4, seed ^ 0x5eed);
    VerifyRequest::programs(original, transformed)
}

#[test]
fn two_threads_sharing_one_verifier_observe_cross_thread_hits() {
    let verifier = Verifier::new();
    let request = big_pair(7);

    // Thread 1 populates the shared table...
    let first = std::thread::scope(|s| {
        s.spawn(|| verifier.verify(&request).unwrap())
            .join()
            .unwrap()
    });
    assert!(first.report.is_equivalent());
    assert!(
        first.report.stats.shared_table_inserts > 0,
        "first query published sub-proofs: {:?}",
        first.report.stats
    );
    assert_eq!(first.report.stats.shared_table_hits, 0);

    // ...and thread 2, a different OS thread, consumes it.
    let second = std::thread::scope(|s| {
        s.spawn(|| verifier.verify(&request).unwrap())
            .join()
            .unwrap()
    });
    assert!(second.report.is_equivalent());
    assert!(
        second.report.stats.shared_table_hits > 0,
        "second thread reused the first thread's sub-proofs: {:?}",
        second.report.stats
    );

    // Session stats prove the reuse end-to-end.
    let stats = verifier.session_stats();
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.equivalent, 2);
    assert!(stats.shared_table_entries > 0);
    assert!(stats.shared_table_hits >= second.report.stats.shared_table_hits);
    assert!(stats.combined_hit_rate() > 0.0);
}

#[test]
fn concurrent_requests_share_the_session_caches() {
    let verifier = Verifier::new();
    // The same pair on four threads: whichever thread wins the race
    // publishes, the others (and a final sequential query) reuse.
    let request = big_pair(11);
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..4)
            .map(|_| s.spawn(|| verifier.verify(&request).unwrap()))
            .collect();
        for thread in threads {
            assert!(thread.join().unwrap().report.is_equivalent());
        }
    });
    assert_eq!(verifier.session_stats().queries, 4);
    let follow_up = verifier.verify(&big_pair(11)).unwrap();
    assert!(
        follow_up.report.stats.shared_table_hits > 0,
        "after the batch, the session answers sub-proofs from cache: {:?}",
        follow_up.report.stats
    );
}

#[test]
fn tiny_deadline_yields_typed_inconclusive_in_bounded_time() {
    // A budget that is already spent when the check starts: a positive one,
    // however small, can be met by a fast host, and `Equivalent` is then the
    // right answer.
    let verifier = Verifier::builder().deadline(Duration::ZERO).build();
    let started = Instant::now();
    let outcome = verifier.verify(&big_pair(23)).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(outcome.report.verdict, Verdict::Inconclusive);
    assert!(
        matches!(
            outcome.report.budget_exhausted,
            Some(BudgetExhausted::DeadlineExceeded { .. })
        ),
        "typed reason: {:?}",
        outcome.report.budget_exhausted
    );
    // Winding down is prompt: far under a second for a spent budget.
    assert!(
        elapsed < Duration::from_secs(10),
        "deadline overrun must not hang (took {elapsed:?})"
    );
    assert_eq!(verifier.session_stats().inconclusive, 1);
}

#[test]
fn cancelled_token_stops_current_and_future_requests() {
    let verifier = Verifier::new();
    // One caller-owned token, cloned into the limits of every request it
    // scopes.
    let token = CancelToken::new();
    let scoped = |request: VerifyRequest| {
        request.with_limits(RequestLimits {
            cancel: Some(token.clone()),
            ..RequestLimits::default()
        })
    };
    token.cancel();
    let started = Instant::now();
    let outcome = verifier.verify(&scoped(big_pair(31))).unwrap();
    assert_eq!(outcome.report.verdict, Verdict::Inconclusive);
    assert_eq!(
        outcome.report.budget_exhausted,
        Some(BudgetExhausted::Cancelled)
    );
    assert!(started.elapsed() < Duration::from_secs(10));

    // Every request carrying the token observes it, on any thread...
    std::thread::scope(|s| {
        let threads = [(FIG1_A, FIG1_B), (FIG1_A, FIG1_C)].map(|(a, b)| {
            let request = scoped(VerifyRequest::source(a, b));
            let verifier = &verifier;
            s.spawn(move || verifier.verify(&request).unwrap())
        });
        for thread in threads {
            assert_eq!(
                thread.join().unwrap().report.budget_exhausted,
                Some(BudgetExhausted::Cancelled)
            );
        }
    });
    // ...and a request without it still answers on the same engine.
    assert!(verifier
        .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
        .unwrap()
        .report
        .is_equivalent());
}

#[test]
fn work_limit_is_typed_through_the_engine() {
    let verifier = Verifier::builder().max_work(5).build();
    let outcome = verifier
        .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
        .unwrap();
    assert_eq!(outcome.report.verdict, Verdict::Inconclusive);
    assert_eq!(
        outcome.report.budget_exhausted,
        Some(BudgetExhausted::WorkLimit { max_work: 5 })
    );
}
