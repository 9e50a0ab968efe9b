//! The scaling harness: checker time against chain depth, with an optional
//! per-span profile.
//!
//! For each `L`, times `generated_pair(L, 256, 11)` through
//! `Workload::check(&CheckOptions::default())` (both programs lowered, then
//! one check at one job) and prints the best of N runs.  `L` is the
//! generator's `layers` argument, as in perfbench's `core.check_us.L<n>`.
//! With `--trace` it adds as many traced runs per `L` and prints each span's
//! median exclusive self time and median count over them, largest first,
//! plus the report's work counters.
//!
//! ```text
//! cargo run --release -p arrayeq-bench --example scaling_profile -- \
//!     [--layers 9,17,33,49,65] [--runs N] [--trace]
//! ```
//!
//! Defaults: L = 9, 17, 33, 49, 65 and the best of 5 runs, 3 at L65.

use arrayeq_bench::generated_pair;
use arrayeq_core::{CheckOptions, Report};
use arrayeq_trace::{recording, Collector, Phase, Recorder};
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
fn self_times(collector: &Collector) -> HashMap<&'static str, (u64, u64)> {
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
    totals
}

/// The middle value (the upper one of an even count).
fn median(mut values: Vec<u64>) -> u64 {
    values.sort_unstable();
    values[values.len() / 2]
}

/// Per span name, the median self time (µs) and the median count over the
/// traced runs' profiles (a span missing from a run counts 0 there),
/// largest self time first.
fn median_profile(runs: &[HashMap<&'static str, (u64, u64)>]) -> Vec<(&'static str, u64, u64)> {
    let mut names: Vec<&'static str> = runs.iter().flat_map(|r| r.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let mut out: Vec<_> = names
        .into_iter()
        .map(|name| {
            let of = |pick: fn(&(u64, u64)) -> u64| {
                median(runs.iter().map(|r| r.get(name).map_or(0, pick)).collect())
            };
            (name, of(|t| t.0), of(|t| t.1))
        })
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
            let (mut walls_us, mut profiles, mut last) = (Vec::new(), Vec::new(), None);
            for _ in 0..runs {
                let collector = Arc::new(Collector::new());
                let recorder = Recorder {
                    collector: Some(collector.clone()),
                    ..Recorder::default()
                };
                let t0 = Instant::now();
                let report = recording(&recorder, || w.check(&opts));
                walls_us.push(t0.elapsed().as_micros() as u64);
                assert_equivalent(layers, &report);
                profiles.push(self_times(&collector));
                last = Some(report);
            }
            let report = last.expect("at least one run");
            traced.push((
                layers,
                runs,
                median(walls_us),
                median_profile(&profiles),
                report,
            ));
        }
    }
    for (layers, runs, wall_us, spans, report) in traced {
        println!();
        println!(
            "traced runs at L{layers}: median {:.2} ms over {runs}",
            wall_us as f64 / 1e3
        );
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
