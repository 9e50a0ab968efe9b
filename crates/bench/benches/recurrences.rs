//! E10: recurrence (cyclic ADDG) handling.
use arrayeq_bench::Workload;
use arrayeq_core::CheckOptions;
use arrayeq_lang::corpus::KERNEL_RECURRENCE;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("recurrences");
    g.sample_size(10);
    let w = Workload::from_source("scan", KERNEL_RECURRENCE, KERNEL_RECURRENCE);
    g.bench_function("scan_self", |b| {
        b.iter(|| w.check(&CheckOptions::default()))
    });
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
