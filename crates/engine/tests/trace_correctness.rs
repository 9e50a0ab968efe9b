//! Correctness of the proof-trace subsystem.
//!
//! The hard invariant: tracing is *observation only*.  Whether the
//! collector is off, recording for JSONL or recording for a Chrome
//! profile, the verdict and the byte content of `render_stable()` are
//! identical at every `--jobs` count over the Fig. 1 and fault-injection
//! corpora and a generated pair with long sums.  On top of that, the
//! sinks themselves must be well-formed: every JSONL line parses with the
//! engine's own `JsonValue` parser, span open/close events balance per
//! worker, the algebraic path records its `split` and `restrict` spans, and
//! a mutant's trace names the failing output's provenance.
//!
//! Trace state (collector, metrics registry, worker ids) is process-global,
//! so every test here serializes on one mutex — and they all live in this
//! one integration-test binary so no other test process observes an
//! installed collector.  The mutex is recovered from poisoning, so one
//! failing test does not fail the others too.

use arrayeq_engine::{JsonValue, Verifier, VerifyRequest};
use arrayeq_lang::corpus::{FIG1_A, FIG1_B, FIG1_C, FIG1_D};
use arrayeq_trace::{Collector, Event, Phase};
use arrayeq_transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq_transform::mutate::fault_corpus;
use arrayeq_transform::random_pipeline;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs one request on a fresh engine and returns `(render_stable,
/// verdict)` plus the collector when `traced`.
fn run_once(
    request: &VerifyRequest,
    jobs: usize,
    traced: bool,
) -> (String, String, Option<Arc<Collector>>) {
    let collector = traced.then(|| Arc::new(Collector::new()));
    let mut builder = Verifier::builder().jobs(jobs);
    if let Some(c) = &collector {
        builder = builder.trace_sink(c.clone());
    }
    let verifier = builder.build();
    let outcome = verifier.verify(request).expect("pipeline ok");
    if collector.is_some() {
        arrayeq_trace::uninstall();
    } else {
        assert!(!arrayeq_trace::enabled(), "no collector leaked");
    }
    (
        outcome.report.render_stable(),
        outcome.report.verdict.to_string(),
        collector,
    )
}

/// A 9-layer generated kernel against its random transformation pipeline
/// (the scaling suite's `generated_pair(9, 256, 11)`): its sums flatten to
/// 59 terms, which split and match on the algebraic path.
fn algebraic_pair() -> VerifyRequest {
    let cfg = GeneratorConfig {
        n: 256,
        layers: 9,
        seed: 11,
        ..Default::default()
    };
    let original = generate_kernel(&cfg);
    let (transformed, _) = random_pipeline(&original, 18, 12);
    VerifyRequest::programs(original, transformed)
}

fn corpus() -> Vec<(String, VerifyRequest)> {
    let mut pairs = vec![
        ("fig1-a-b".to_owned(), VerifyRequest::source(FIG1_A, FIG1_B)),
        ("fig1-a-c".to_owned(), VerifyRequest::source(FIG1_A, FIG1_C)),
        ("fig1-a-d".to_owned(), VerifyRequest::source(FIG1_A, FIG1_D)),
        ("fig1-c-b".to_owned(), VerifyRequest::source(FIG1_C, FIG1_B)),
        ("generated-L9".to_owned(), algebraic_pair()),
    ];
    for (i, case) in fault_corpus().into_iter().enumerate() {
        pairs.push((
            format!("mutant-{i}-{}", case.name),
            VerifyRequest::programs(case.original, case.mutant),
        ));
    }
    pairs
}

/// The acceptance property: tracing (off, recording-for-JSONL,
/// recording-for-Chrome) yields byte-identical `render_stable()` and
/// identical verdicts at jobs 1 and 8, over the Fig. 1 + fault corpora.
/// Both serializations of every recorded run must also be well-formed.
#[test]
fn tracing_never_changes_reports_at_any_job_count() {
    let _g = serialize();
    for (name, request) in corpus() {
        for jobs in [1usize, 8] {
            let (stable_off, verdict_off, _) = run_once(&request, jobs, false);
            // "JSONL" and "chrome" share the recording path; exercise both
            // serializations from independently recorded runs anyway, so a
            // serialization-order bug in either sink would surface here.
            let (stable_jsonl, verdict_jsonl, sink_a) = run_once(&request, jobs, true);
            let (stable_chrome, verdict_chrome, sink_b) = run_once(&request, jobs, true);
            assert_eq!(
                stable_off, stable_jsonl,
                "{name} jobs={jobs}: tracing (jsonl) changed render_stable"
            );
            assert_eq!(
                stable_off, stable_chrome,
                "{name} jobs={jobs}: tracing (chrome) changed render_stable"
            );
            assert_eq!(verdict_off, verdict_jsonl, "{name} jobs={jobs}");
            assert_eq!(verdict_off, verdict_chrome, "{name} jobs={jobs}");

            let sink_a = sink_a.unwrap();
            let sink_b = sink_b.unwrap();
            assert!(!sink_a.is_empty(), "{name} jobs={jobs}: trace recorded");
            for line in sink_a.to_jsonl().lines() {
                JsonValue::parse(line)
                    .unwrap_or_else(|e| panic!("{name} jobs={jobs}: bad JSONL line {line}: {e:?}"));
            }
            let chrome = JsonValue::parse(&sink_b.to_chrome())
                .unwrap_or_else(|e| panic!("{name} jobs={jobs}: bad chrome doc: {e:?}"));
            let trace_events = chrome
                .get("traceEvents")
                .and_then(|v| v.as_array())
                .expect("chrome doc has a traceEvents array");
            assert!(!trace_events.is_empty());
        }
    }
}

/// Every JSONL line parses, carries the required keys, and span open/close
/// events balance per worker lane.  The source request passes every
/// front-end pass (`parse`, `classcheck`, `defuse`, `extract`,
/// `fingerprint`), and Fig. 1 (a) against (c) takes the algebraic path
/// (`split`, `restrict`): each of these spans is present and opens as
/// often as it closes.  Its one output is one task, which runs on the
/// calling thread, lane 0, at one worker and at eight alike; the fault
/// corpus's `lifting-swap-operands@l1` has two outputs, so at eight its
/// tasks run on spawned worker lanes.
#[test]
fn jsonl_wellformed_and_spans_balance_per_worker() {
    let _g = serialize();
    for jobs in [1usize, 8] {
        let (.., collector) = run_once(&VerifyRequest::source(FIG1_A, FIG1_C), jobs, true);
        let collector = collector.expect("a traced run returns its collector");
        let spans = [
            "parse",
            "classcheck",
            "defuse",
            "extract",
            "fingerprint",
            "split",
            "restrict",
        ];
        for span in spans {
            let count = |phase: Phase| {
                collector
                    .events()
                    .iter()
                    .filter(|ev| ev.name == span && ev.phase == phase)
                    .count()
            };
            let opened = count(Phase::Open);
            assert!(opened > 0, "jobs={jobs}: no `{span}` span");
            assert_eq!(
                opened,
                count(Phase::Close),
                "jobs={jobs}: `{span}` opens and closes differ"
            );
        }
        let lanes = balanced_lanes(&collector, jobs);
        assert_eq!(lanes, [0], "jobs={jobs}: one task spawns no thread");
    }

    let case = fault_corpus()
        .into_iter()
        .nth(15)
        .expect("fault corpus has mutant 15");
    assert_eq!(case.name, "lifting-swap-operands@l1");
    let (.., collector) = run_once(
        &VerifyRequest::programs(case.original, case.mutant),
        8,
        true,
    );
    let collector = collector.expect("a traced run returns its collector");
    let lanes = balanced_lanes(&collector, 8);
    assert!(
        lanes.len() > 1,
        "two outputs at jobs=8: worker lanes {lanes:?}"
    );
}

/// Checks that every JSONL line of the recording parses and carries the
/// required keys and that spans open and close in balance on every worker
/// lane; returns the lanes that carried events, sorted.
fn balanced_lanes(collector: &Collector, jobs: usize) -> Vec<i64> {
    let jsonl = collector.to_jsonl();
    assert!(!jsonl.is_empty());
    let mut depth: HashMap<i64, i64> = HashMap::new();
    for line in jsonl.lines() {
        let v = JsonValue::parse(line).expect("line parses");
        let worker = v.get("worker").and_then(|w| w.as_i64()).expect("worker");
        let ph = v.get("ph").and_then(|p| p.as_str()).expect("ph");
        assert!(v.get("ts").and_then(|t| t.as_i64()).is_some(), "ts");
        assert!(v.get("name").and_then(|n| n.as_str()).is_some(), "name");
        let d = depth.entry(worker).or_insert(0);
        match ph {
            "B" => *d += 1,
            "E" => {
                *d -= 1;
                assert!(
                    *d >= 0,
                    "jobs={jobs}: close without open on worker {worker}"
                );
                assert!(v.get("dur").and_then(|t| t.as_i64()).is_some(), "dur");
            }
            "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    for (worker, d) in &depth {
        assert_eq!(
            *d, 0,
            "jobs={jobs}: worker {worker} ended with {d} unclosed spans"
        );
    }
    let mut lanes: Vec<i64> = depth.into_keys().collect();
    lanes.sort_unstable();
    lanes
}

/// A fault-injected mutant's trace names the failing output at every job
/// count: the stream carries its `output_verdict` (ok=false) and at least
/// one provenance / span event attributed to that output.  The first
/// mutant fails on an output-domain mismatch, which no task ever sees, so
/// the coordinator's `output` span is what names it.
#[test]
fn mutant_trace_contains_failing_output_provenance() {
    let _g = serialize();
    for jobs in [1usize, 8] {
        mutant_trace_names_its_failing_output(jobs);
    }
}

fn mutant_trace_names_its_failing_output(jobs: usize) {
    let case = fault_corpus().into_iter().next().expect("corpus non-empty");
    let collector = Arc::new(Collector::new());
    let verifier = Verifier::builder()
        .jobs(jobs)
        .trace_sink(collector.clone())
        .build();
    let outcome = verifier
        .verify(&VerifyRequest::programs(case.original, case.mutant))
        .unwrap();
    arrayeq_trace::uninstall();
    assert!(
        !outcome.report.is_equivalent(),
        "fault corpus case is inequivalent"
    );
    let failing: Vec<String> = outcome
        .report
        .diagnostics
        .iter()
        .filter_map(|d| d.output_array.clone())
        .collect();
    assert!(!failing.is_empty(), "diagnostics name their output");

    let events = collector.events();
    let field_str = |ev: &Event, key: &str| -> Option<String> {
        ev.fields.iter().find_map(|(k, v)| match v {
            arrayeq_trace::Value::Str(s) if *k == key => Some(s.clone()),
            _ => None,
        })
    };
    let output = &failing[0];
    let verdict_event = events.iter().any(|ev| {
        ev.name == "output_verdict"
            && field_str(ev, "output").as_deref() == Some(output)
            && ev
                .fields
                .iter()
                .any(|(k, v)| *k == "ok" && *v == arrayeq_trace::Value::Bool(false))
    });
    assert!(
        verdict_event,
        "jobs={jobs}: output_verdict(ok=false) for {output}"
    );
    let attributed_span = events.iter().any(|ev| {
        matches!(ev.phase, Phase::Open)
            && (ev.name == "output" || ev.name == "task")
            && field_str(ev, "output").as_deref() == Some(output)
    });
    assert!(
        attributed_span,
        "jobs={jobs}: an output/task span names {output}"
    );
}

/// The session metrics registry accumulates across queries and snapshots
/// to well-formed JSON.
#[test]
fn metrics_registry_accumulates_and_serializes() {
    let _g = serialize();
    let verifier = Verifier::builder().metrics(true).build();
    verifier
        .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
        .unwrap();
    verifier
        .verify(&VerifyRequest::source(FIG1_A, FIG1_B))
        .unwrap();
    let snapshot = verifier.metrics_snapshot().expect("metrics enabled");
    arrayeq_trace::uninstall_metrics();

    let total: u64 = snapshot.metrics.iter().map(|m| m.count).sum();
    assert!(total > 0, "some latency samples were recorded");
    let feas = &snapshot.metrics[0];
    assert_eq!(feas.name, "feasibility");
    assert!(feas.count > 0, "feasibility computes were metered");
    assert_eq!(feas.buckets.iter().sum::<u64>(), feas.count);

    let json = JsonValue::parse(&snapshot.to_json()).expect("snapshot JSON parses");
    let metrics = json
        .get("metrics")
        .and_then(|v| v.as_array())
        .expect("metrics array");
    assert_eq!(metrics.len(), 5);
    for m in metrics {
        assert!(m.get("name").and_then(|v| v.as_str()).is_some());
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("us"));
        assert!(m.get("count").and_then(|v| v.as_i64()).is_some());
    }
}

/// `--explain`'s renderer, driven end-to-end through an incremental run:
/// clean outputs are credited to the baseline and every checked output
/// names a discharge mechanism or a direct proof.
#[test]
fn explain_renders_incremental_provenance() {
    let _g = serialize();
    let producer = Verifier::new();
    let first = producer.verify_source(FIG1_A, FIG1_C).unwrap();
    assert!(first.report.is_equivalent());
    let baseline = producer.export_baseline(&first.report);

    let collector = Arc::new(Collector::new());
    let consumer = Verifier::builder().trace_sink(collector.clone()).build();
    let inc = consumer
        .verify_incremental(&VerifyRequest::source(FIG1_A, FIG1_C), &baseline)
        .unwrap();
    arrayeq_trace::uninstall();
    assert!(inc.outcome.report.is_equivalent());

    let text = arrayeq_trace::explain::render(&collector);
    assert!(
        text.contains("discharged by baseline (clean"),
        "clean outputs credited to the baseline:\n{text}"
    );
}
