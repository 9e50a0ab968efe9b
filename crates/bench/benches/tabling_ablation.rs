//! E9: effect of tabling established sub-equivalences.
use arrayeq_bench::generated_pair;
use arrayeq_core::CheckOptions;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("tabling_ablation");
    g.sample_size(10);
    for layers in [4usize, 8, 16] {
        let w = generated_pair(layers, 256, 29);
        g.bench_with_input(BenchmarkId::new("tabling", layers + 1), &w, |b, w| {
            b.iter(|| w.check(&CheckOptions::default()))
        });
        g.bench_with_input(BenchmarkId::new("no_tabling", layers + 1), &w, |b, w| {
            b.iter(|| w.check(&CheckOptions::default().without_tabling()))
        });
    }
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
