//! E5: checker time vs ADDG size (number of statements).
//!
//! Each row times `generated_pair(layers, 256, 11)` and is labelled by its
//! statement count, `layers + 1`: rows 3, 5, 9, 17, 33 and 65.  The
//! scaling table's and perfbench's `L<n>` name the `layers` value instead,
//! so row 33 is L32 and row 65 is L64.
use arrayeq_bench::generated_pair;
use arrayeq_core::CheckOptions;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling_addg_size");
    g.sample_size(10);
    for layers in [2usize, 4, 8, 16, 32, 64] {
        let w = generated_pair(layers, 256, 11);
        g.bench_with_input(BenchmarkId::from_parameter(layers + 1), &w, |b, w| {
            b.iter(|| w.check(&CheckOptions::default()))
        });
    }
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
