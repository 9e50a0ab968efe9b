//! E11: focused checking vs a full check.
use arrayeq_bench::Workload;
use arrayeq_core::{CheckOptions, Focus};
use arrayeq_lang::corpus::{FIG1_A, FIG1_B};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("focused_checking");
    g.sample_size(10);
    let w = Workload::from_source("a-vs-b", FIG1_A, FIG1_B);
    g.bench_function("full", |b| b.iter(|| w.check(&CheckOptions::default())));
    let opts = CheckOptions::default().with_focus(Focus {
        outputs: vec!["C".into()],
        intermediate_pairs: vec![("tmp".into(), "tmp".into()), ("buf".into(), "buf".into())],
    });
    g.bench_function("focused", |b| b.iter(|| w.check(&opts)));
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
