//! E4: cost of producing diagnostics for the erroneous Fig. 1(d).
use arrayeq_bench::Workload;
use arrayeq_core::CheckOptions;
use arrayeq_lang::corpus::{FIG1_A, FIG1_D};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("diagnostics");
    g.sample_size(10);
    let w = Workload::from_source("a-vs-d", FIG1_A, FIG1_D);
    g.bench_function("a_vs_d_with_diagnostics", |b| {
        b.iter(|| {
            let r = w.check(&CheckOptions::default());
            assert!(!r.is_equivalent());
            r.blame()
        })
    });
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
