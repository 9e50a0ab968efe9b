//! Inputs whose 64-bit structural hashes collide, in the Tier-1 suite.
//!
//! Each offset below gives a `B` read a dependency mapping with the same
//! structural hash as `B[k+1]`'s but different content.  The term arena,
//! the proof cache and DNF dedup let the hash pick a bucket and decide by
//! content, so every pair is told apart at every job count, in debug and
//! release builds alike, and the collision is counted.

use arrayeq::core::Verdict;
use arrayeq::engine::{Verifier, VerifyRequest};
use arrayeq::omega::Relation;

/// Offsets whose `B` mapping collides with `B[k+1]`'s.
const COLLIDING: [&str; 3] = [
    "B[4*k-408709946564336430]",
    "B[2*k+8050342864314045404]",
    "B[6*k+915980439521819817]",
];

/// One output summing a `B` read and `D[k]`: the colliding terms meet in
/// the term arena.
fn sum_of(read: &str) -> String {
    format!(
        "#define N 16
foo(int B[], int D[], int C[])
{{
    int k;
    for(k=0; k<N; k++)
s1:  C[k] = {read} + D[k];
}}
"
    )
}

/// Two outputs that copy `B[k+1]` and `read`: once `A` is proven, the
/// proof of its `B` read shares its key with `E`'s colliding read.
fn copies_of(read: &str) -> String {
    format!(
        "#define N 16
foo(int B[], int A[], int E[])
{{
    int k;
    for(k=0; k<N; k++)
s1:  A[k] = B[k+1];
    for(k=0; k<N; k++)
s2:  E[k] = {read};
}}
"
    )
}

/// The three sum pairs and the proof-cache pair, by name.
fn pairs() -> Vec<(String, String, String)> {
    let mut pairs: Vec<_> = COLLIDING
        .iter()
        .map(|read| (format!("sum with {read}"), sum_of("B[k+1]"), sum_of(read)))
        .collect();
    pairs.push((
        format!("copies with {}", COLLIDING[0]),
        copies_of("B[k+1]"),
        copies_of(COLLIDING[0]),
    ));
    pairs
}

#[test]
fn colliding_reads_are_told_apart_at_every_job_count() {
    for (name, original, transformed) in pairs() {
        for jobs in [1, 2, 8] {
            let verifier = Verifier::builder().jobs(jobs).build();
            let outcome = verifier
                .verify(&VerifyRequest::source(&original, &transformed))
                .unwrap();
            let report = &outcome.report;
            assert_eq!(
                report.verdict,
                Verdict::NotEquivalent,
                "{name} at jobs {jobs}: {:?}",
                report.diagnostics
            );
            if jobs == 1 {
                assert!(
                    report.stats.hash_collisions >= 1,
                    "{name}: the collision went unseen: {:?}",
                    report.stats
                );
            }
        }
    }
}

#[test]
fn a_proof_of_one_read_does_not_answer_a_colliding_one() {
    let verifier = Verifier::new();
    let outcome = verifier
        .verify(&VerifyRequest::source(
            copies_of("B[k+1]"),
            copies_of(COLLIDING[0]),
        ))
        .unwrap();
    let stats = &outcome.report.stats;
    assert_eq!(outcome.report.verdict, Verdict::NotEquivalent);
    assert_eq!(stats.table_hits, 0, "{stats:?}");
    assert_eq!(stats.hash_collisions, 1, "{stats:?}");
}

#[test]
fn a_union_keeps_both_colliding_conjuncts() {
    let a = Relation::parse("{ [k] -> [e] : e = k + 1 and 0 <= k < 16 }").unwrap();
    let b =
        Relation::parse("{ [k] -> [e] : e = 4k - 408709946564336430 and 0 <= k < 16 }").unwrap();
    assert_eq!(
        a.conjuncts()[0].structural_hash(),
        b.conjuncts()[0].structural_hash(),
        "the conjuncts no longer collide"
    );
    let u = a.union(&b).unwrap();
    assert_eq!(u.conjuncts().len(), 2, "{u}");
    assert!(u.contains(&[0], &[1], &[]));
    assert!(u.contains(&[0], &[-408709946564336430], &[]));
}
