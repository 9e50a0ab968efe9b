//! # perfbench — time to verdict of the arrayeq checker
//!
//! One seeded benchmark for the whole repository.  Each run sets a workload
//! up from its seed, runs a closed loop against the real public entry points
//! for a fixed time, checks every verdict against an answer known without
//! the checker, and prints its metrics by name and unit.  The last stdout
//! line is the result; the line before it is the full record (host, `nproc`,
//! sample counts, set-up times).  Appending stdout to a file collects the
//! records that `--compare` reads (build output goes to stderr).
//!
//! ```text
//! python3 perfbench/run.py --workload deep|wide|edit|service --seed N \
//!     --seconds S --trace 0|1 >> results.jsonl
//! python3 perfbench/run.py --compare before.jsonl after.jsonl
//! python3 perfbench/run.py --layers    # per-layer metrics and what each moves
//! ```
//!
//! `run.py` builds this binary and the `arrayeq` CLI and passes the CLI's
//! path as `--arrayeq`.  Run it from the repository root: inputs, baselines,
//! the daemon's socket and store, and the traced run's spans live under
//! `perfbench/work/`.
//!
//! Workloads (`BENCHMARK.json` says why each was chosen):
//!
//! * `deep` — one client, a fresh `Verifier` per pair, `jobs = 1`, over
//!   `generated_pair(L, 256, s)` pairs with L in equal shares from
//!   {9, 17, 33, 49, 65};
//! * `wide` — one client, a fresh `Verifier` per pair, `jobs = 2`, over wide
//!   kernels with 16–32 outputs, half with repeated chains;
//! * `edit` — one client spawning `arrayeq verify --baseline` per request
//!   after a one-statement edit of a baselined wide kernel (a fifth of the
//!   edits are simulation-confirmed faults, checked with witnesses);
//! * `service` — two client connections to an `arrayeq serve` daemon with a
//!   fresh proof store: hot repeats, fresh pipelines and witness requests.
//!
//! With `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` the per-layer metrics of a traced run, whose spans are
//! written to `perfbench/work/trace-<workload>.jsonl` when the run ends.

mod answer;
mod compare;
mod gen;
mod layers;
mod run;
mod spans;
mod spawner;
mod stats;
mod sys;

use run::{RunError, Workload};
use stats::{median, quantile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up runs per benchmark run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Where a run keeps its files, relative to the repository root.
const WORK_DIR: &str = "perfbench/work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    arrayeq: PathBuf,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match main_with(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn main_with(args: &[String]) -> Result<(), RunError> {
    if args.first().map(String::as_str) == Some(spawner::FLAG) {
        return spawner::serve();
    }
    if args.iter().any(|a| a == "--layers") {
        // The per-layer metrics, with what each should move: the list the
        // `per_layer` entries of BENCHMARK.json mirror.
        for lm in layers::LAYER_METRICS {
            println!(
                "{:<30} {:<6} {:<7} {}",
                lm.name, lm.unit, lm.better, lm.moves
            );
        }
        return Ok(());
    }
    if let Some(at) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(at + 1), args.get(at + 2)) else {
            return Err("--compare needs two result files".into());
        };
        let table = compare::compare(Path::new(a), Path::new(b), Path::new("BENCHMARK.json"))?;
        print!("{table}");
        return Ok(());
    }
    bench(&parse_args(args)?)
}

fn parse_args(args: &[String]) -> Result<Args, RunError> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut arrayeq = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs a number")?),
            "--trace" => trace = Some(value == "1"),
            "--arrayeq" => arrayeq = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        arrayeq: arrayeq.ok_or("--arrayeq is required (run.py passes it)")?,
    })
}

/// Removes a run's working directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bench(args: &Args) -> Result<(), RunError> {
    let name = args.workload.name();
    let work = Scratch(Path::new(WORK_DIR).join(format!("{name}-{}", std::process::id())));
    // Started first, while this process is small: see `spawner`.
    let mut spawner = match args.workload {
        Workload::Edit => Some(spawner::Spawner::start()?),
        _ => None,
    };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(mut previous) = prepared.take() {
            run::Prepared::shutdown(&mut previous)?;
        }
        let started = Instant::now();
        let dir = work.0.join(format!("setup{rep}"));
        prepared = Some(run::setup(args.workload, args.seed, &dir, &args.arrayeq)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up");
    let measured = prepared.measure(args.seconds, args.trace, spawner.as_mut())?;
    prepared.shutdown()?;

    let attempted = measured.samples.len();
    let failed = measured.samples.iter().filter(|s| s.failed).count();
    if attempted == 0 {
        return Err("no request completed".into());
    }
    let latencies: Vec<f64> = measured
        .samples
        .iter()
        .map(|s| s.latency_us / 1e3)
        .collect();
    let p90 = quantile(&latencies, 0.9);
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let trace_file = Path::new(WORK_DIR).join(format!("trace-{name}.jsonl"));
        if let Some(t) = &measured.tracer {
            std::fs::write(&trace_file, t.to_jsonl())?;
        }
        layers::aggregate(&measured.records)
    } else {
        let decided = measured.samples.iter().filter(|s| s.decided).count();
        vec![
            ("setup_s", "s", median(&setup_s)),
            ("verdict_ms.p50", "ms", quantile(&latencies, 0.5)),
            ("verdict_ms.p90", "ms", p90),
            ("verdicts_per_s", "1/s", attempted as f64 / measured.wall_s),
            ("decided_ratio", "ratio", decided as f64 / attempted as f64),
            (
                "correct_ratio",
                "ratio",
                1.0 - failed as f64 / attempted as f64,
            ),
            ("peak_rss_mb", "MiB", measured.peak_rss_mb),
        ]
    };
    let mut metrics_json = String::from("{");
    for (i, (metric, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            metrics_json,
            "{sep}\"{metric}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            finite(*value)
        )?;
    }
    metrics_json.push('}');

    let setup_list: Vec<String> = setup_s.iter().map(|s| s.to_string()).collect();
    let record = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"nproc\":{},\
         \"jobs\":{},\"clients\":{},\"deadline_ms\":{},\"attempted\":{attempted},\"failed\":{failed},\
         \"beyond_p90\":{},\"setup_runs_s\":[{}],\"metrics\":{metrics_json}}}",
        args.seed,
        args.seconds,
        args.trace,
        arrayeq_engine::json_string(&sys::host()),
        sys::nproc(),
        args.workload.jobs(),
        args.workload.clients(),
        args.workload.deadline().as_millis(),
        latencies.iter().filter(|l| **l > p90).count(),
        setup_list.join(","),
    );
    println!("{record}");
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics_json}}}",
        failed == 0
    );
    Ok(())
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
