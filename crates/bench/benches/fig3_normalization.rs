//! E2: cost of the flattening + matching normalisation on algebraic pairs.
use arrayeq_bench::Workload;
use arrayeq_core::CheckOptions;
use arrayeq_lang::corpus::{FIG1_A, FIG1_C};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_normalization");
    g.sample_size(10);
    let w = Workload::from_source("a-vs-c", FIG1_A, FIG1_C);
    g.bench_function("a_vs_c_extended", |b| {
        b.iter(|| w.check(&CheckOptions::default()))
    });
    g.bench_function("a_vs_c_basic_rejects", |b| {
        b.iter(|| w.check(&CheckOptions::basic()))
    });
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
