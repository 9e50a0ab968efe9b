//! Set-up and the closed measurement loop of each workload, untraced and
//! traced.

use crate::answer::{judge, Answer, WrongVerdict};
use crate::gen::{self, Expected, Inputs, Pair};
use crate::layers::{finish_request, Record};
use crate::spans::Tracer;
use crate::spawner::Spawner;
use crate::sys;
use arrayeq_addg::{diff_addgs, extract, fingerprints, Addg};
use arrayeq_engine::{
    stats_from_json, verdict_from_str, Baseline, CheckStats, JsonValue, Outcome, Verdict, Verifier,
    VerifyRequest,
};
use arrayeq_lang::classcheck::check_class;
use arrayeq_lang::defuse::check_def_use;
use arrayeq_lang::parser::parse_program;
use arrayeq_serve::client::{
    connect_with_retry, control_request_line, verify_request_line, Client, RetryPolicy,
    VerifyParams,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot in-process verifies of the scaling suite, `jobs = 1`.
    Deep,
    /// In-process verifies of wide kernels, `jobs = 2`.
    Wide,
    /// The `arrayeq verify --baseline` CLI after a one-statement edit.
    Edit,
    /// Two clients of an `arrayeq serve` daemon with a proof store.
    Service,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "deep" => Some(Workload::Deep),
            "wide" => Some(Workload::Wide),
            "edit" => Some(Workload::Edit),
            "service" => Some(Workload::Service),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Deep => "deep",
            Workload::Wide => "wide",
            Workload::Edit => "edit",
            Workload::Service => "service",
        }
    }

    /// The per-request deadline: a request that takes longer, or ends
    /// `Inconclusive`, counts as undecided.
    pub fn deadline(self) -> Duration {
        Duration::from_millis(match self {
            Workload::Deep => 20_000,
            Workload::Wide | Workload::Edit => 10_000,
            Workload::Service => 5_000,
        })
    }

    /// In-process worker threads per verify.
    pub fn jobs(self) -> usize {
        match self {
            Workload::Wide => 2,
            _ => 1,
        }
    }

    /// Client connections.
    pub fn clients(self) -> usize {
        match self {
            Workload::Service => 2,
            _ => 1,
        }
    }
}

/// One finished request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Submit to verdict, microseconds.
    pub latency_us: f64,
    /// `Equivalent`/`NotEquivalent` within the deadline.
    pub decided: bool,
    /// Errored, refused, or lacked a confirmed witness.
    pub failed: bool,
}

/// What a measured run produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every request.
    pub samples: Vec<Sample>,
    /// Wall time of the measurement loop, seconds.
    pub wall_s: f64,
    /// Peak resident memory of the checking process, MiB.
    pub peak_rss_mb: f64,
    /// Traced run only: one record per request, plus run-level records.
    pub records: Vec<Record>,
    /// Traced run only: the spans.
    pub tracer: Option<Tracer>,
}

/// A failure that ends the run without a result.
pub type RunError = Box<dyn std::error::Error + Send + Sync>;

/// Inputs plus whatever set-up produced for them.
pub struct Prepared {
    workload: Workload,
    arrayeq: PathBuf,
    inputs: Inputs,
    /// `edit`: per pair, the (original, edited) source files.
    files: Vec<(PathBuf, PathBuf)>,
    /// `edit`: per base, the baseline file and its text.
    baselines: Vec<(PathBuf, String)>,
    /// `edit`: per base, the transformed program's graph before the edit.
    base_graphs: Vec<Addg>,
    /// `service`: the daemon.
    daemon: Option<Daemon>,
    /// `service`: the daemon's store directory.
    store: PathBuf,
}

/// The inputs of `workload` for `seed`.  Pools are sized so a run of up to
/// a minute at the current speed rarely wraps around its sequence.
fn generate(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::Deep => gen::deep(seed, 12),
        Workload::Wide => gen::wide(seed, 5),
        Workload::Edit => gen::edit(seed, 2, 4_000, 0.2),
        Workload::Service => gen::service(seed, 18_000, 2, 40_000),
    }
}

/// Set-up: generates the inputs, writes them under `dir`, produces the
/// `edit` baselines and starts the `service` daemon.
pub fn setup(
    workload: Workload,
    seed: u64,
    dir: &Path,
    arrayeq: &Path,
) -> Result<Prepared, RunError> {
    std::fs::create_dir_all(dir)?;
    let inputs = generate(workload, seed);
    std::fs::write(dir.join("inputs.txt"), inputs.manifest())?;
    let mut prepared = Prepared {
        workload,
        arrayeq: arrayeq.to_path_buf(),
        inputs,
        files: Vec::new(),
        baselines: Vec::new(),
        base_graphs: Vec::new(),
        daemon: None,
        store: dir.join("store"),
    };
    match workload {
        Workload::Deep | Workload::Wide => {}
        Workload::Edit => prepared.prepare_edit(dir)?,
        Workload::Service => {
            prepared.daemon = Some(Daemon::start(arrayeq, dir, &prepared.store)?);
        }
    }
    Ok(prepared)
}

impl Prepared {
    /// Writes the `edit` sources and produces one baseline per base kernel
    /// by verifying it once from scratch, as a CI job does before the edit.
    fn prepare_edit(&mut self, dir: &Path) -> Result<(), RunError> {
        for (k, base) in self.inputs.bases.iter().enumerate() {
            let verifier = Verifier::new();
            let outcome = verifier.verify(&VerifyRequest::source(
                base.original.as_str(),
                base.transformed.as_str(),
            ))?;
            if outcome.report.verdict != Verdict::Equivalent {
                return Err(Box::new(WrongVerdict {
                    pair: format!("base{k}"),
                    expected: Expected::Equivalent,
                    got: format!("{:?}", outcome.report.verdict),
                }));
            }
            let baseline = verifier.export_baseline(&outcome.report);
            let path = dir.join(format!("base{k}.json"));
            std::fs::write(&path, &baseline)?;
            std::fs::write(dir.join(format!("base{k}.c")), &base.original)?;
            self.baselines.push((path, baseline));
            self.base_graphs
                .push(extract(&parse_program(&base.transformed)?)?);
        }
        for (i, pair) in self.inputs.pairs.iter().enumerate() {
            let edited = dir.join(format!("edit{i}.c"));
            std::fs::write(&edited, &pair.transformed)?;
            self.files
                .push((dir.join(format!("base{}.c", pair.base)), edited));
        }
        Ok(())
    }

    /// Stops the daemon, if any.
    pub fn shutdown(&mut self) -> Result<(), RunError> {
        match self.daemon.take() {
            Some(d) => d.stop(),
            None => Ok(()),
        }
    }

    /// Runs the closed loop for `seconds`.  `edit` runs its CLI processes
    /// through `spawner`.
    pub fn measure(
        &mut self,
        seconds: f64,
        traced: bool,
        spawner: Option<&mut Spawner>,
    ) -> Result<Measured, RunError> {
        match (self.workload, spawner) {
            (Workload::Service, _) => self.measure_service(seconds, traced),
            (Workload::Edit, None) => Err("edit needs the spawner helper".into()),
            (_, spawner) => self.measure_one_client(seconds, traced, spawner),
        }
    }

    /// `deep`, `wide` and `edit`: one client, one request at a time.
    fn measure_one_client(
        &self,
        seconds: f64,
        traced: bool,
        mut spawner: Option<&mut Spawner>,
    ) -> Result<Measured, RunError> {
        let mut out = Measured::default();
        let mut tracer = traced.then(Tracer::new);
        let seq = &self.inputs.sequences[0];
        let started = Instant::now();
        let mut k = 0;
        while started.elapsed().as_secs_f64() < seconds {
            let i = seq[k % seq.len()];
            let pair = &self.inputs.pairs[i];
            let rid = k as u64 + 1;
            let (answer, latency) = match (tracer.as_mut(), spawner.as_deref_mut()) {
                (None, Some(spawner)) => {
                    let (answer, latency, _, peak) = self.cli(i).run(spawner, pair, false)?;
                    out.peak_rss_mb = peak;
                    (answer, latency)
                }
                (None, None) => {
                    let (answer, _, latency) = verify_in_process(pair, self.workload, false);
                    (answer, latency)
                }
                (Some(t), Some(spawner)) => {
                    let (answer, latency, record) = self.traced_edit(t, spawner, rid, i)?;
                    out.records.push(record);
                    (answer, latency)
                }
                (Some(t), None) => {
                    let w = self.workload;
                    let (answer, latency, record) = traced_in_process(t, rid, pair, w)?;
                    out.records.push(record);
                    (answer, latency)
                }
            };
            out.samples
                .push(sample(self.workload, pair, &answer, latency)?);
            k += 1;
        }
        out.wall_s = started.elapsed().as_secs_f64();
        if self.workload != Workload::Edit {
            out.peak_rss_mb = sys::peak_rss_mb("self").unwrap_or(0.0);
        }
        out.tracer = tracer;
        Ok(out)
    }

    fn cli(&self, i: usize) -> CliRequest<'_> {
        let pair = &self.inputs.pairs[i];
        CliRequest {
            arrayeq: &self.arrayeq,
            baseline: &self.baselines[pair.base].0,
            original: &self.files[i].0,
            edited: &self.files[i].1,
        }
    }

    /// One traced `edit` request: the CLI process (the verdict), then the
    /// front-end layer calls, the baseline parse and the ADDG diff on the
    /// same inputs, then an in-process `verify_incremental` of them.
    fn traced_edit(
        &self,
        t: &mut Tracer,
        spawner: &mut Spawner,
        rid: u64,
        i: usize,
    ) -> Result<(Answer, f64, Record), RunError> {
        let pair = &self.inputs.pairs[i];
        let baseline = &self.baselines[pair.base].1;
        let mut record = Record::new();
        let from = t.spans().len();
        let root = t.open(rid, None, "request");
        let cli = t.open(rid, Some(root), "cli.process");
        let (answer, process, doc, _) = self.cli(i).run(spawner, pair, true)?;
        t.close(cli);
        let mut engine = cli;
        if let Some((outcome, metrics)) = &doc {
            let wall = outcome
                .get("wall_time_us")
                .and_then(JsonValue::as_i64)
                .unwrap_or(0);
            engine = t.reported(cli, "engine.verify", 0.0, wall as f64);
            report_children(t, engine, outcome.get("report"), &mut record);
            registry_record(metrics, &mut record);
        }
        let graph = front_end(t, rid, root, pair, &mut record)?;
        t.time(rid, Some(root), "engine.baseline_parse", || {
            black_box(Baseline::parse(baseline))
        })?;
        t.time(rid, Some(root), "addg.diff", || {
            black_box(diff_addgs(&self.base_graphs[pair.base], &graph))
        });
        let inc = t.open(rid, Some(root), "engine.verify_incremental");
        let verifier = Verifier::builder()
            .deadline(Workload::Edit.deadline())
            .witnesses(pair.witnesses)
            .build();
        black_box(verifier.verify_incremental(&source_request(pair), baseline)?);
        t.close(inc);
        t.close(root);
        finish_request(t, from, root, cli, engine, &mut record);
        record.insert("cli.process", process);
        record.insert("cli.overhead", process - t.span(inc).dur_us());
        Ok((answer, process, record))
    }

    /// `service`: two client threads against the daemon.
    fn measure_service(&mut self, seconds: f64, traced: bool) -> Result<Measured, RunError> {
        let daemon = self.daemon.as_ref().ok_or("the daemon is not running")?;
        let origin = Instant::now();
        let socket = daemon.socket.clone();
        let results: Vec<Result<ClientRun, RunError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .inputs
                .sequences
                .iter()
                .enumerate()
                .map(|(c, seq)| {
                    let socket = &socket;
                    let pairs = &self.inputs.pairs;
                    scope.spawn(move || {
                        run_service_client(socket, c as u64, seq, pairs, seconds, traced, origin)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let mut out = Measured {
            wall_s: origin.elapsed().as_secs_f64(),
            peak_rss_mb: sys::peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(0.0),
            tracer: traced.then(|| Tracer::starting_at(origin)),
            ..Measured::default()
        };
        for r in results {
            let r = r?;
            out.samples.extend(r.samples);
            out.records.extend(r.records);
            if let (Some(all), Some(t)) = (out.tracer.as_mut(), r.tracer) {
                all.absorb(t);
            }
        }
        if let Some(t) = out.tracer.as_mut() {
            self.shutdown()?;
            out.records.push(self.store_phase(t)?);
        }
        Ok(out)
    }

    /// Traced `service` only, after the daemon has shut down (which flushes
    /// its store): load the store in process, re-verify the hot set and a
    /// few unseen fresh pairs against it, and flush the new proofs.
    fn store_phase(&self, t: &mut Tracer) -> Result<Record, RunError> {
        let mut record = Record::new();
        let load = t.open(0, None, "engine.store_load");
        let verifier = Verifier::builder().store(&self.store).build();
        t.close(load);
        let hot = self
            .inputs
            .pairs
            .iter()
            .filter(|p| p.name.starts_with("hot-"));
        let unseen = self
            .inputs
            .pairs
            .iter()
            .rev()
            .filter(|p| p.name.starts_with("fresh-"));
        let mut store_hits = 0;
        for pair in hot.chain(unseen.take(16)) {
            let result = verifier.verify(&source_request(pair));
            judge(pair, &answer_of(&result))?;
            store_hits += result?.report.stats.store_hits;
        }
        let flush = t.open(0, None, "engine.store_flush");
        verifier.flush_store()?;
        t.close(flush);
        record.insert("engine.store_load", t.span(load).dur_us());
        record.insert("engine.store_flush", t.span(flush).dur_us());
        record.insert("engine.store_hits", store_hits as f64);
        Ok(record)
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        // Errors are reported by an explicit `shutdown`; here the only job
        // is to leave no daemon behind.
        let _ = self.shutdown();
    }
}

fn source_request(pair: &Pair) -> VerifyRequest {
    VerifyRequest::source(pair.original.as_str(), pair.transformed.as_str())
}

/// Turns an engine result into an [`Answer`].
fn answer_of(result: &arrayeq_core::Result<Outcome>) -> Answer {
    match result {
        Ok(o) => match o.report.verdict {
            Verdict::Equivalent => Answer::Equivalent,
            Verdict::NotEquivalent => Answer::NotEquivalent {
                confirmed: o.report.witnesses.iter().any(|w| w.confirmed),
            },
            Verdict::Inconclusive => Answer::Inconclusive,
        },
        Err(e) => Answer::Error(e.to_string()),
    }
}

/// Judges one answer and applies the workload's deadline.
///
/// # Errors
///
/// A wrong verdict.
pub fn sample(
    workload: Workload,
    pair: &Pair,
    answer: &Answer,
    latency_us: f64,
) -> Result<Sample, WrongVerdict> {
    let j = judge(pair, answer)?;
    Ok(Sample {
        latency_us,
        decided: j.decided && latency_us <= workload.deadline().as_secs_f64() * 1e6,
        failed: j.failed,
    })
}

/// One in-process verify with a fresh engine, as a one-shot user runs it:
/// the answer, the outcome and the latency in microseconds.  With `metrics`
/// the engine's metrics registry is on and its snapshot lands in the
/// returned record.
pub fn verify_in_process(
    pair: &Pair,
    workload: Workload,
    metrics: bool,
) -> (Answer, Option<(Outcome, Record)>, f64) {
    let started = Instant::now();
    let verifier = Verifier::builder()
        .jobs(workload.jobs())
        .deadline(workload.deadline())
        .witnesses(pair.witnesses)
        .metrics(metrics)
        .build();
    let result = verifier.verify(&source_request(pair));
    let latency = started.elapsed().as_secs_f64() * 1e6;
    let mut record = Record::new();
    if let Some(snapshot) = verifier.metrics_snapshot() {
        arrayeq_trace::uninstall_metrics();
        for m in &snapshot.metrics {
            if let Some(key) = registry_key(m.name) {
                record.insert(key, m.sum_us as f64);
            }
        }
    }
    (
        answer_of(&result),
        result.ok().map(|o| (o, record)),
        latency,
    )
}

/// The record key of a metrics-registry histogram.
fn registry_key(name: &str) -> Option<&'static str> {
    Some(match name {
        "feasibility" => "omega.feasibility",
        "composition" => "omega.composition",
        "simplify" => "omega.simplify",
        "flatten" => "core.flatten",
        "match" => "core.match",
        _ => return None,
    })
}

/// The registry histograms of `arrayeq verify --metrics` (its stderr).
fn registry_record(stderr: &str, record: &mut Record) {
    let Some(doc) = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"metrics\""))
        .and_then(|l| JsonValue::parse(l).ok())
    else {
        return;
    };
    for m in doc
        .get("metrics")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let name = m.get("name").and_then(JsonValue::as_str).unwrap_or("");
        let sum = m.get("sum_us").and_then(JsonValue::as_i64).unwrap_or(0);
        if let Some(key) = registry_key(name) {
            record.insert(key, sum as f64);
        }
    }
}

/// Work counters of one check.
fn stats_record(s: &CheckStats, record: &mut Record) {
    let counters = [
        ("core.compositions", s.compositions),
        ("core.mapping_equalities", s.mapping_equalities),
        ("core.table_lookups", s.table_lookups),
        ("core.table_hits", s.table_hits),
        ("core.parallel_tasks", s.parallel_tasks),
        ("core.algebraic_piece_tasks", s.algebraic_piece_tasks),
        ("core.arena_interns", s.arena_interns),
        ("core.arena_hits", s.arena_hits),
        ("core.terms_flattened", s.terms_flattened),
        ("core.cone_positions", s.cone_positions),
        ("core.baseline_hits", s.baseline_hits),
        ("omega.conjuncts_subsumed", s.conjuncts_subsumed),
        ("omega.bigint_fallbacks", s.bigint_fallbacks),
        ("engine.shared_lookups", s.shared_table_lookups),
        ("engine.shared_hits", s.shared_table_hits),
    ];
    for (key, v) in counters {
        record.insert(key, v as f64);
    }
}

/// Adds the check and witness times a report carries as reported children
/// of `engine` (check first, witnesses last), plus the report's counters.
/// `report` is the report's JSON document.
fn report_children(t: &mut Tracer, engine: usize, report: Option<&JsonValue>, record: &mut Record) {
    let Some(stats) = report
        .and_then(|r| r.get("stats"))
        .and_then(stats_from_json)
    else {
        return;
    };
    let replays: i64 = report
        .and_then(|r| r.get("witnesses"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("replays").and_then(JsonValue::as_i64))
        .sum();
    stats_children(t, engine, &stats, replays as f64, record);
}

fn stats_children(
    t: &mut Tracer,
    engine: usize,
    s: &CheckStats,
    replays: f64,
    record: &mut Record,
) {
    t.reported(engine, "core.check", 0.0, s.check_time_us as f64);
    if s.witness_time_us > 0 {
        let offset = t.span(engine).dur_us() - s.witness_time_us as f64;
        t.reported(engine, "witness.extract", offset, s.witness_time_us as f64);
        record.insert("witness.replays", replays);
    }
    stats_record(s, record);
}

/// The front-end layer calls on a pair's sources, each in its own span
/// under `root`; returns the transformed program's graph.
fn front_end(
    t: &mut Tracer,
    rid: u64,
    root: usize,
    pair: &Pair,
    record: &mut Record,
) -> Result<Addg, RunError> {
    let (a, b) = t.time(rid, Some(root), "lang.parse", || {
        (
            parse_program(&pair.original),
            parse_program(&pair.transformed),
        )
    });
    let (a, b) = (a?, b?);
    let (ca, cb) = t.time(rid, Some(root), "lang.classcheck", || {
        black_box((check_class(&a), check_class(&b)))
    });
    let (da, db) = t.time(rid, Some(root), "lang.defuse", || {
        black_box((check_def_use(&a), check_def_use(&b)))
    });
    ca?;
    cb?;
    da?;
    db?;
    let (ga, gb) = t.time(rid, Some(root), "addg.extract", || {
        (extract(&a), extract(&b))
    });
    let (ga, gb) = (ga?, gb?);
    t.time(rid, Some(root), "addg.fingerprint", || {
        black_box((fingerprints(&ga), fingerprints(&gb)))
    });
    let bytes = pair.original.len() + pair.transformed.len();
    record.insert("lang.source_kb", bytes as f64 / 1024.0);
    record.insert("addg.nodes", (ga.node_count() + gb.node_count()) as f64);
    Ok(gb)
}

/// One traced in-process request (`deep`, `wide`): the engine verify (the
/// verdict) with the metrics registry on, then the front-end layer calls on
/// the same sources.
pub fn traced_in_process(
    t: &mut Tracer,
    rid: u64,
    pair: &Pair,
    workload: Workload,
) -> Result<(Answer, f64, Record), RunError> {
    let from = t.spans().len();
    let root = t.open(rid, None, "request");
    let (memo_hits0, memo_misses0) = arrayeq_omega::feasibility_memo_stats();
    let engine = t.open(rid, Some(root), "engine.verify");
    let (answer, outcome, _) = verify_in_process(pair, workload, true);
    t.close(engine);
    let (memo_hits1, memo_misses1) = arrayeq_omega::feasibility_memo_stats();
    let mut record = Record::new();
    if let Some((o, registry)) = &outcome {
        let replays = o.report.witnesses.iter().map(|w| w.replays).sum::<usize>();
        stats_children(t, engine, &o.report.stats, replays as f64, &mut record);
        record.extend(registry.iter().map(|(k, v)| (*k, *v)));
        let hits = (memo_hits1 - memo_hits0) + o.session.feasibility_hits;
        record.insert("omega.memo_hits", hits as f64);
        let lookups = (memo_hits1 - memo_hits0) + (memo_misses1 - memo_misses0);
        record.insert("omega.memo_lookups", lookups as f64);
    }
    front_end(t, rid, root, pair, &mut record)?;
    t.close(root);
    finish_request(t, from, root, engine, engine, &mut record);
    if let (Some(class), Some(check)) = (pair.class, record.get("core.check").copied()) {
        record.insert(class_key(class), check);
    }
    Ok((answer, t.span(engine).dur_us(), record))
}

fn class_key(class: &str) -> &'static str {
    match class {
        "L9" => "core.check.L9",
        "L17" => "core.check.L17",
        "L33" => "core.check.L33",
        "L49" => "core.check.L49",
        _ => "core.check.L65",
    }
}

/// One `arrayeq verify --baseline` invocation.
struct CliRequest<'a> {
    arrayeq: &'a Path,
    baseline: &'a Path,
    original: &'a Path,
    edited: &'a Path,
}

impl CliRequest<'_> {
    /// Runs the CLI through `spawner`: the answer (from the exit code, and
    /// from the JSON outcome for witness requests), the process time in
    /// microseconds, with `traced` the JSON outcome and the `--metrics`
    /// output, and the peak memory of the CLI processes so far (MiB).
    #[allow(clippy::type_complexity)]
    fn run(
        &self,
        spawner: &mut Spawner,
        pair: &Pair,
        traced: bool,
    ) -> Result<(Answer, f64, Option<(JsonValue, String)>, f64), RunError> {
        let path = |p: &Path| p.to_string_lossy().into_owned();
        let mut args = vec![
            "verify".to_string(),
            "--baseline".into(),
            path(self.baseline),
            "--deadline-ms".into(),
            Workload::Edit.deadline().as_millis().to_string(),
        ];
        if pair.witnesses {
            args.push("--witnesses".into());
        }
        if pair.witnesses || traced {
            args.push("--json".into());
        }
        if traced {
            args.push("--metrics".into());
        }
        args.push(path(self.original));
        args.push(path(self.edited));
        let ran = spawner.run(&path(self.arrayeq), &args)?;
        let doc = JsonValue::parse(String::from_utf8_lossy(&ran.stdout).trim()).ok();
        let answer = match ran.code {
            Some(0) => Answer::Equivalent,
            Some(1) => Answer::NotEquivalent {
                confirmed: doc.as_ref().is_some_and(|d| any_confirmed(d.get("report"))),
            },
            Some(2) => Answer::Inconclusive,
            code => Answer::Error(format!(
                "exit {code:?}: {}",
                String::from_utf8_lossy(&ran.stderr).trim()
            )),
        };
        let extra = match (traced, doc) {
            (true, Some(d)) => Some((d, String::from_utf8_lossy(&ran.stderr).into_owned())),
            _ => None,
        };
        Ok((answer, ran.latency_us, extra, ran.peak_rss_mb))
    }
}

/// Whether a JSON report carries a replay-confirmed witness.
fn any_confirmed(report: Option<&JsonValue>) -> bool {
    report
        .and_then(|r| r.get("witnesses"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .any(|w| w.get("confirmed").and_then(JsonValue::as_bool) == Some(true))
}

/// An `arrayeq serve` child process with a fresh proof store.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts the daemon and waits until it answers.
    fn start(arrayeq: &Path, dir: &Path, store: &Path) -> Result<Daemon, RunError> {
        // A relative path keeps the socket name under the platform's length
        // limit however deep the checkout is; the daemon inherits our cwd.
        let socket = dir.join("svc.sock");
        let child = Command::new(arrayeq)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let daemon = Daemon { child, socket };
        let policy = RetryPolicy {
            attempts: 600,
            base_ms: 1,
            max_ms: 10,
        };
        connect_with_retry(&daemon.socket, &policy)?;
        Ok(daemon)
    }

    /// Asks the daemon to shut down (it flushes its store) and waits for it.
    fn stop(mut self) -> Result<(), RunError> {
        let asked = Client::connect(&self.socket)
            .and_then(|mut c| c.request(&control_request_line(u64::MAX >> 1, "shutdown")));
        let deadline = Instant::now() + Duration::from_secs(20);
        while asked.is_ok() && Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}").into())
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err("daemon did not shut down; killed it".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one service client saw.
struct ClientRun {
    samples: Vec<Sample>,
    records: Vec<Record>,
    tracer: Option<Tracer>,
}

/// One closed-loop client of the daemon.
fn run_service_client(
    socket: &Path,
    client_id: u64,
    seq: &[usize],
    pairs: &[Pair],
    seconds: f64,
    traced: bool,
    origin: Instant,
) -> Result<ClientRun, RunError> {
    let mut client = Client::connect(socket)?;
    let mut out = ClientRun {
        samples: Vec::new(),
        records: Vec::new(),
        tracer: traced.then(|| Tracer::starting_at(origin)),
    };
    let deadline_ms = Workload::Service.deadline().as_millis() as u64;
    let mut k = 0;
    while origin.elapsed().as_secs_f64() < seconds {
        let pair = &pairs[seq[k % seq.len()]];
        let rid = (client_id << 32) | (k as u64 + 1);
        let params = VerifyParams {
            witnesses: Some(pair.witnesses),
            deadline_ms: Some(deadline_ms),
            max_work: None,
        };
        let line = verify_request_line(rid, &pair.original, &pair.transformed, &params);
        let (from, root, rtt) = match out.tracer.as_mut() {
            Some(t) => {
                let from = t.spans().len();
                let root = t.open(rid, None, "request");
                (from, root, t.open(rid, Some(root), "serve.rtt"))
            }
            None => (0, 0, 0),
        };
        let started = Instant::now();
        let response = client.request(&line);
        let latency = started.elapsed().as_secs_f64() * 1e6;
        let doc = response
            .as_ref()
            .ok()
            .and_then(|r| JsonValue::parse(r).ok());
        let answer = match (&response, &doc) {
            (Err(e), _) => Answer::Error(e.to_string()),
            (Ok(line), None) => Answer::Error(format!("malformed response: {line}")),
            (Ok(_), Some(d)) => service_answer(d),
        };
        if let Some(t) = out.tracer.as_mut() {
            t.close(rtt);
            let mut record = Record::new();
            let result = doc.as_ref().and_then(|d| d.get("result"));
            let mut engine = rtt;
            if let Some(wall) = result
                .and_then(|r| r.get("wall_time_us"))
                .and_then(JsonValue::as_i64)
            {
                let offset = (t.span(rtt).dur_us() - wall as f64) / 2.0;
                engine = t.reported(rtt, "engine.verify", offset, wall as f64);
                report_children(t, engine, result.and_then(|r| r.get("report")), &mut record);
                record.insert("serve.server", t.span(engine).dur_us());
            }
            front_end(t, rid, root, pair, &mut record)?;
            t.close(root);
            finish_request(t, from, root, rtt, engine, &mut record);
            record.insert(
                "serve.protocol",
                record.get("serve.rtt").copied().unwrap_or(0.0),
            );
            record.insert("serve.rtt", t.span(rtt).dur_us());
            out.records.push(record);
        }
        out.samples
            .push(sample(Workload::Service, pair, &answer, latency)?);
        if response.is_err() {
            // The connection is gone; a fresh one is a fresh session.
            client = Client::connect(socket)?;
        }
        k += 1;
    }
    Ok(out)
}

/// The answer in a `verify` response document.
fn service_answer(doc: &JsonValue) -> Answer {
    if doc.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        let error = doc
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap_or("request failed");
        return Answer::Error(error.to_string());
    }
    let report = doc.get("result").and_then(|r| r.get("report"));
    let verdict = report
        .and_then(|r| r.get("verdict"))
        .and_then(JsonValue::as_str)
        .and_then(verdict_from_str);
    match verdict {
        Some(Verdict::Equivalent) => Answer::Equivalent,
        Some(Verdict::NotEquivalent) => Answer::NotEquivalent {
            confirmed: any_confirmed(report),
        },
        Some(Verdict::Inconclusive) => Answer::Inconclusive,
        None => Answer::Error("response without a verdict".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayeq_lang::corpus::{FIG1_A, FIG1_C, FIG1_D};

    fn fig1_pair(other: &str, expected: Expected) -> Pair {
        Pair {
            name: "fig1".into(),
            original: FIG1_A.into(),
            transformed: other.into(),
            expected,
            class: Some("L9"),
            witnesses: expected == Expected::NotEquivalent,
            base: 0,
        }
    }

    #[test]
    fn known_answer_check_fires_on_a_wrong_expected_verdict() {
        // Fig. 1 (a) vs (c) is equivalent; claiming otherwise must abort.
        let lie = fig1_pair(FIG1_C, Expected::NotEquivalent);
        let (answer, _, latency) = verify_in_process(&lie, Workload::Deep, false);
        assert_eq!(answer, Answer::Equivalent);
        assert!(sample(Workload::Deep, &lie, &answer, latency).is_err());
        // And the honest label passes, as does the witnessed a-vs-d fault.
        let truth = fig1_pair(FIG1_C, Expected::Equivalent);
        assert!(sample(Workload::Deep, &truth, &answer, latency).is_ok());
        let fault = fig1_pair(FIG1_D, Expected::NotEquivalent);
        let (answer, _, latency) = verify_in_process(&fault, Workload::Deep, false);
        let s = sample(Workload::Deep, &fault, &answer, latency).expect("a-vs-d differs");
        assert!(s.decided && !s.failed, "{answer:?}");
    }

    #[test]
    fn traced_request_self_times_sum_to_the_request() {
        let mut t = Tracer::new();
        let fault = fig1_pair(FIG1_D, Expected::NotEquivalent);
        let (_, verdict, record) = traced_in_process(&mut t, 1, &fault, Workload::Deep).unwrap();
        let request = t.span(0).dur_us();
        let total: f64 = t.self_times_since(0).values().sum();
        assert!((total - request).abs() < 1e-6, "{total} vs {request}");
        assert!(verdict <= request);
        for key in [
            "core.check",
            "witness.extract",
            "lang.parse",
            "addg.extract",
            "core.check.L9",
        ] {
            assert!(record.contains_key(key), "{key} missing from {record:?}");
        }
    }
}
