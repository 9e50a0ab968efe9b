//! The scaling harness: checker time against chain depth, with an optional
//! per-span profile.
//!
//! For each `L`, times `generated_pair(L, 256, 11)` through
//! `Workload::check(&CheckOptions::default())` (both programs lowered, then
//! one check at one job) and prints the best of N runs.  `L` is the
//! generator's `layers` argument, as in perfbench's `core.check_us.L<n>`.
//! With `--trace` it adds one traced run per `L` and prints each span's
//! exclusive self time and count, largest first, plus the report's work
//! counters.
//!
//! ```text
//! cargo run --release -p arrayeq-bench --example scaling_profile -- \
//!     [--layers 9,17,33,49,65] [--runs N] [--trace]
//! ```
//!
//! Defaults: L = 9, 17, 33, 49, 65 and the best of 5 runs, 3 at L65.

use arrayeq_bench::generated_pair;
use arrayeq_core::{CheckOptions, Report};
use arrayeq_trace::{Collector, Phase};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    layers: Vec<usize>,
    runs: Option<usize>,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        layers: vec![9, 17, 33, 49, 65],
        runs: None,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--layers" => {
                let list = it.next().ok_or("--layers needs a list such as 9,17")?;
                args.layers = list
                    .split(',')
                    .map(|l| {
                        l.trim()
                            .parse()
                            .map_err(|_| format!("bad layer count `{l}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--runs" => {
                let n = it.next().ok_or("--runs needs a count")?;
                let n: usize = n.parse().map_err(|_| format!("bad run count `{n}`"))?;
                if n == 0 {
                    return Err("--runs must be at least 1".into());
                }
                args.runs = Some(n);
            }
            "--trace" => args.trace = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Exclusive self time (µs) and count per span name: each span's duration
/// minus its direct children's, summed over the spans of that name.
fn self_times(collector: &Collector) -> Vec<(&'static str, u64, u64)> {
    let mut totals: HashMap<&'static str, (u64, u64)> = HashMap::new();
    // Per worker lane, the open spans with the time their children took.
    let mut stacks: HashMap<u32, Vec<(&'static str, u64)>> = HashMap::new();
    for ev in collector.events() {
        let stack = stacks.entry(ev.worker).or_default();
        match ev.phase {
            Phase::Open => stack.push((ev.name, 0)),
            Phase::Close => {
                let (name, children) = stack.pop().expect("spans balance per worker");
                debug_assert_eq!(name, ev.name);
                let entry = totals.entry(name).or_default();
                entry.0 += ev.dur_us.saturating_sub(children);
                entry.1 += 1;
                if let Some(parent) = stack.last_mut() {
                    parent.1 += ev.dur_us;
                }
            }
            Phase::Instant => {}
        }
    }
    let mut out: Vec<_> = totals
        .into_iter()
        .map(|(name, (us, count))| (name, us, count))
        .collect();
    out.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(y.0)));
    out
}

fn assert_equivalent(layers: usize, report: &Report) {
    assert!(
        report.is_equivalent(),
        "generated_pair({layers}, 256, 11) is equivalent by construction\n{}",
        report.summary()
    );
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("scaling_profile: {e}");
        eprintln!("usage: scaling_profile [--layers 9,17,33,49,65] [--runs N] [--trace]");
        std::process::exit(2);
    });
    let opts = CheckOptions::default();
    println!("{:>4} {:>10} {:>5}", "L", "best_ms", "runs");
    let mut traced = Vec::new();
    for &layers in &args.layers {
        let w = generated_pair(layers, 256, 11);
        let runs = args.runs.unwrap_or(if layers >= 65 { 3 } else { 5 });
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let t0 = Instant::now();
            let report = w.check(&opts);
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            assert_equivalent(layers, &report);
        }
        println!("{layers:>4} {best:>10.2} {runs:>5}");
        if args.trace {
            let collector = Arc::new(Collector::new());
            arrayeq_trace::install(collector.clone());
            let t0 = Instant::now();
            let report = w.check(&opts);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            arrayeq_trace::uninstall();
            assert_equivalent(layers, &report);
            traced.push((layers, wall_ms, self_times(&collector), report));
        }
    }
    for (layers, wall_ms, spans, report) in traced {
        println!();
        println!("traced run at L{layers}: {wall_ms:.2} ms");
        println!("  {:<12} {:>10} {:>7}", "span", "self_ms", "count");
        for (name, us, count) in spans {
            println!("  {name:<12} {:>10.2} {count:>7}", us as f64 / 1e3);
        }
        let s = &report.stats;
        println!(
            "  terms_flattened {}, compositions {}, table_lookups {}, fast_term_matches {}",
            s.terms_flattened, s.compositions, s.table_lookups, s.fast_term_matches
        );
    }
}
