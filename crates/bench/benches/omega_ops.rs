//! E12: micro-benchmarks of the omega substrate.
use arrayeq_omega::Relation;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("omega_ops");
    g.sample_size(20);
    let m1 = Relation::parse("{ [k] -> [2k] : 0 <= k < 1024 }").unwrap();
    let m2 =
        Relation::parse("{ [x] -> [y] : exists k : x = 2k - 2 and y = k - 1 and 1 <= k <= 1024 }")
            .unwrap();
    g.bench_function("compose", |b| b.iter(|| m1.compose(&m2).unwrap()));
    g.bench_function("is_equal", |b| b.iter(|| m1.is_equal(&m1).unwrap()));
    g.bench_function("subtract", |b| b.iter(|| m1.subtract(&m2).unwrap()));
    g.finish();

    // The tabling key, a relation's structural hash, cold and cached, and
    // the feasibility memo behind deep simplification.
    let mut g = c.benchmark_group("tabling_keys");
    g.sample_size(20);
    g.bench_function("structural_hash_cold", |b| {
        // Rebuilding from the parsed conjuncts gives a relation with an
        // empty hash cache without paying for text parsing in the loop.
        let space = m2.space().clone();
        let conjuncts = m2.conjuncts().to_vec();
        b.iter(|| {
            let r = Relation::from_conjuncts(space.clone(), conjuncts.clone());
            black_box(r.structural_hash())
        })
    });
    g.bench_function("structural_hash_cached", |b| {
        let r = m2.clone();
        r.structural_hash();
        b.iter(|| black_box(r.structural_hash()))
    });
    g.bench_function("simplified_deep_memoised", |b| {
        // Repeated deep simplification of an identical relation is the shape
        // the conjunct-level feasibility memo accelerates.
        b.iter(|| black_box(m2.simplified(true)))
    });
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
