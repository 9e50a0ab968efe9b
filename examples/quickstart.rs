//! Quick start: verify that a hand-transformed loop is equivalent to the
//! original, then re-check it and watch the persistent engine answer from
//! its cross-query caches.
//!
//! Run with `cargo run --example quickstart`.

use arrayeq::engine::{Verifier, VerifyRequest};

fn main() {
    let original = r#"
#define N 64
void scale_add(int A[], int B[], int C[]) {
    int k, tmp[N];
    for (k = 0; k < N; k++)
s1:     tmp[k] = A[2*k] + B[k];
    for (k = 0; k < N; k++)
s2:     C[k] = tmp[k] + B[2*k];
}
"#;

    // The designer fused the loops, dropped the temporary and re-associated
    // the additions — all transformations the checker supports.
    let transformed = r#"
#define N 64
void scale_add(int A[], int B[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
t1:     C[k] = B[2*k] + (B[k] + A[2*k]);
}
"#;

    // Construct the engine once; issue as many queries as you like.
    let verifier = Verifier::builder().build();

    let outcome = verifier
        .verify(&VerifyRequest::source(original, transformed))
        .expect("both programs are in the supported class");
    println!("verdict: {}", outcome.report.verdict);
    println!(
        "paths compared: {}, mapping equalities: {}, flattenings: {}",
        outcome.report.stats.paths_compared,
        outcome.report.stats.mapping_equalities,
        outcome.report.stats.flattenings
    );
    assert!(outcome.report.is_equivalent());

    // Re-checking the same pair (the post-edit CI regime) rides the session
    // caches: sub-proofs established above discharge whole sub-traversals.
    let again = verifier
        .verify(&VerifyRequest::source(original, transformed))
        .expect("pipeline runs");
    println!(
        "re-check: {} shared-table hits, session hit rate {:.0}%",
        again.report.stats.shared_table_hits,
        again.session.combined_hit_rate() * 100.0
    );
    assert!(again.report.stats.shared_table_hits > 0);
}
