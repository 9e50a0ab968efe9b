//! E1: verification time for the Fig. 1 program pairs.
use arrayeq_bench::fig1_pairs;
use arrayeq_core::CheckOptions;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1");
    g.sample_size(10);
    for w in fig1_pairs() {
        g.bench_function(&w.name, |bench| {
            bench.iter(|| w.check(&CheckOptions::default()))
        });
    }
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
