//! Standing contracts of the persistent proof store, of the options
//! fingerprint and of the recording scope, in the Tier-1 suite: a
//! store-backed run renders exactly as a storeless one, a warm store
//! discharges sub-proofs, the store files hold proof keys (`eq` lines)
//! only, the fingerprints that stamp every store and baseline on disk do
//! not move, each engine records exactly its own requests, its metrics
//! count the same events as its trace, a worker computes each distinct
//! look-through composition once, and program arithmetic at the `i64`
//! limits ends in a verdict, never a panic.

use arrayeq::core::{BudgetExhausted, CheckOptions, Verdict};
use arrayeq::engine::{options_fingerprint, Verifier, VerifyRequest};
use arrayeq::lang::corpus::{FIG1_A, FIG1_C};
use arrayeq::transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq::transform::mutate::fault_corpus;
use arrayeq::transform::random_pipeline;
use arrayeq_trace::{Collector, Phase, Value};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

/// Fig. 1 (a)/(c), equivalent with one output, and fault-corpus mutant 15,
/// inequivalent with two outputs, so at two jobs its tasks run on spawned
/// workers.
fn cases() -> Vec<(String, VerifyRequest)> {
    let mutant = fault_corpus().swap_remove(15);
    vec![
        ("fig1 (a)/(c)".into(), VerifyRequest::source(FIG1_A, FIG1_C)),
        (
            format!("mutant 15 ({})", mutant.name),
            VerifyRequest::programs(mutant.original, mutant.mutant),
        ),
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arrayeq-contracts-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Asserts that every entry line of the store in `dir` is an `eq` line:
/// each file opens with a header, and a snapshot closes with its `end`
/// footer.
fn assert_proof_keys_only(dir: &Path) {
    for file in ["snapshot.jsonl", "log.jsonl"] {
        let Ok(text) = fs::read_to_string(dir.join(file)) else {
            continue;
        };
        let mut lines = text.lines();
        assert!(lines.next().is_some_and(|h| h.starts_with('{')), "{file}");
        for line in lines {
            let footer = file == "snapshot.jsonl" && line.starts_with("[\"end\",");
            assert!(
                footer || line.starts_with("[\"eq\","),
                "{file} holds a non-`eq` entry: {line}"
            );
        }
    }
}

#[test]
fn a_store_round_trip_keeps_the_report_and_holds_proof_keys_only() {
    for jobs in [1, 2] {
        for (name, request) in cases() {
            let storeless = Verifier::builder()
                .jobs(jobs)
                .build()
                .verify(&request)
                .unwrap()
                .report;
            let dir = fresh_dir(&format!("roundtrip-{jobs}"));

            let cold = Verifier::builder().jobs(jobs).store(&dir).build();
            assert!(cold.store_warnings().is_empty(), "{name}");
            let cold_report = cold.verify(&request).unwrap().report;
            cold.flush_store().unwrap().expect("store attached");
            assert_proof_keys_only(&dir);

            let warm = Verifier::builder().jobs(jobs).store(&dir).build();
            assert!(
                warm.store_warnings().is_empty(),
                "{name} jobs {jobs}: {:?}",
                warm.store_warnings()
            );
            let warm_report = warm.verify(&request).unwrap().report;
            for (run, report) in [("cold", &cold_report), ("warm", &warm_report)] {
                assert_eq!(
                    report.verdict, storeless.verdict,
                    "{name} jobs {jobs} {run}"
                );
                assert_eq!(
                    report.render_stable(),
                    storeless.render_stable(),
                    "{name} jobs {jobs}: the {run} store run renders as a storeless one"
                );
            }
            if storeless.is_equivalent() {
                assert!(
                    warm_report.stats.store_hits > 0,
                    "{name} jobs {jobs}: the warm run discharges from the store: {:?}",
                    warm_report.stats
                );
            }
            warm.checkpoint_store().unwrap().expect("store attached");
            assert_proof_keys_only(&dir);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn options_fingerprints_are_pinned() {
    // Every persistent store and baseline on disk is stamped with these
    // values; a change to the canonical text orphans all of them.
    assert_eq!(
        options_fingerprint(&CheckOptions::default()),
        0xb4cb_8344_b73a_0e6f
    );
    assert_eq!(
        options_fingerprint(&CheckOptions::basic()),
        0xaea3_70ee_37e8_7aa1
    );
}

/// An engine at two jobs with the given recorder parts.
fn engine(collector: Option<&Arc<Collector>>, metrics: bool) -> Verifier {
    let mut builder = Verifier::builder().jobs(2).metrics(metrics);
    if let Some(c) = collector {
        builder = builder.trace_sink(c.clone());
    }
    builder.build()
}

/// The outputs the `output` spans of `collector` name.
fn traced_outputs(collector: &Collector) -> BTreeSet<String> {
    collector
        .events()
        .into_iter()
        .filter(|ev| ev.name == "output" && ev.phase == Phase::Open)
        .flat_map(|ev| ev.fields)
        .filter_map(|(key, value)| match value {
            Value::Str(s) if key == "output" => Some(s),
            _ => None,
        })
        .collect()
}

/// Verifies `request` on `verifier` and returns the outputs of its pair.
fn outputs_of(verifier: &Verifier, request: &VerifyRequest) -> BTreeSet<String> {
    let report = verifier.verify(request).unwrap().report;
    report
        .output_fingerprints
        .into_iter()
        .map(|o| o.0)
        .collect()
}

/// Total samples in an engine's registry (`None` without one).
fn samples(verifier: &Verifier) -> Option<u64> {
    verifier
        .metrics_snapshot()
        .map(|s| s.metrics.iter().map(|m| m.count).sum())
}

#[test]
fn each_engine_records_only_its_own_requests() {
    let cases = cases();
    let (fig1, mutant) = (&cases[0].1, &cases[1].1);

    // Built one after another: A with a collector and metrics, B with a
    // collector, C with metrics only, D with neither.
    let (trace_a, trace_b) = (Arc::new(Collector::new()), Arc::new(Collector::new()));
    let a = engine(Some(&trace_a), true);
    let b = engine(Some(&trace_b), false);
    let c = engine(None, true);
    let d = engine(None, false);

    let fig1_outputs = outputs_of(&a, fig1);
    assert_eq!(
        traced_outputs(&trace_a),
        fig1_outputs,
        "A records its request"
    );
    assert!(trace_b.is_empty(), "B has not verified");
    assert!(samples(&a) > Some(0), "A's registry has A's samples");
    assert_eq!(samples(&c), Some(0), "C's registry waits for C");

    let mutant_outputs = outputs_of(&b, mutant);
    assert_ne!(fig1_outputs, mutant_outputs);
    assert_eq!(
        traced_outputs(&trace_b),
        mutant_outputs,
        "B records its request"
    );
    assert!(
        trace_b.events().iter().any(|ev| ev.worker > 0),
        "B's spawned workers record into B's collector"
    );
    assert_eq!(traced_outputs(&trace_a), fig1_outputs, "A holds only A's");

    let others = || (trace_a.len(), trace_b.len(), samples(&a));
    let before = others();
    outputs_of(&c, fig1);
    assert!(samples(&c) > Some(0), "C's registry has C's samples");
    assert_eq!(others(), before, "C grows no other engine's recording");
    let c_samples = samples(&c);
    outputs_of(&d, fig1);
    outputs_of(&d, mutant);
    assert_eq!(samples(&d), None, "D has no registry");
    assert_eq!(
        (others(), samples(&c)),
        (before, c_samples),
        "D grows no collector and no registry"
    );

    // A and B verifying at the same time on two threads.
    let (trace_a, trace_b) = (Arc::new(Collector::new()), Arc::new(Collector::new()));
    let (a, b) = (engine(Some(&trace_a), true), engine(Some(&trace_b), false));
    let start = Barrier::new(2);
    let together = |verifier: &Verifier, request: &VerifyRequest| {
        start.wait();
        outputs_of(verifier, request)
    };
    let (outputs_a, outputs_b) = std::thread::scope(|scope| {
        let on_a = scope.spawn(|| together(&a, fig1));
        let on_b = scope.spawn(|| together(&b, mutant));
        (on_a.join().unwrap(), on_b.join().unwrap())
    });
    assert_eq!(traced_outputs(&trace_a), outputs_a, "concurrent A");
    assert_eq!(traced_outputs(&trace_b), outputs_b, "concurrent B");
    assert!(trace_b.events().iter().any(|ev| ev.worker > 0));
    assert!(samples(&a) > Some(0));
}

#[test]
fn metrics_and_spans_count_the_same_events() {
    let cases = cases();
    for (jobs, (name, request)) in [1, 2].into_iter().zip(&cases) {
        let trace = Arc::new(Collector::new());
        let verifier = Verifier::builder()
            .jobs(jobs)
            .trace_sink(trace.clone())
            .metrics(true)
            .build();
        verifier.verify(request).unwrap();
        let events = trace.events();
        let snapshot = verifier.metrics_snapshot().expect("metrics on");
        let spans = ["feasibility", "compose", "flatten", "match", "simplify"];
        for (metric, span) in snapshot.metrics.iter().zip(spans) {
            let closes = events
                .iter()
                .filter(|ev| ev.name == span && ev.phase == Phase::Close)
                .count() as u64;
            assert_eq!(
                metric.count, closes,
                "{name} jobs {jobs}: `{}` samples against `{span}` closes",
                metric.name
            );
        }
        assert!(
            snapshot.metrics[1].count > 0,
            "{name}: compositions metered"
        );
        if jobs > 1 {
            assert!(
                events.iter().any(|ev| ev.worker > 0),
                "{name} jobs {jobs}: spawned workers record into the engine's trace"
            );
        }
    }
}

#[test]
fn a_worker_composes_each_distinct_look_through_once() {
    // An L17 pair built as perfbench's `deep` builds its pairs: a kernel at
    // N = 256 and the fixed 34-step pipeline with seed 12.
    let original = generate_kernel(&GeneratorConfig {
        n: 256,
        layers: 17,
        seed: 11,
        ..Default::default()
    });
    let (transformed, _) = random_pipeline(&original, 34, 12);
    let request = VerifyRequest::programs(original, transformed);
    let mut runs = Vec::new();
    for jobs in [1, 2] {
        for traced in [false, true] {
            let trace = Arc::new(Collector::new());
            let mut builder = Verifier::builder().jobs(jobs).metrics(true);
            if traced {
                builder = builder.trace_sink(trace.clone());
            }
            let verifier = builder.build();
            let report = verifier.verify(&request).unwrap().report;
            let snapshot = verifier.metrics_snapshot().expect("metrics on");
            let computed = snapshot
                .metrics
                .iter()
                .find(|m| m.name == "composition")
                .expect("a composition histogram")
                .count;
            let run = format!("jobs {jobs}, traced {traced}");
            if traced {
                let closes = trace
                    .events()
                    .iter()
                    .filter(|ev| ev.name == "compose" && ev.phase == Phase::Close)
                    .count() as u64;
                assert_eq!(
                    computed, closes,
                    "{run}: histogram against `compose` closes"
                );
            }
            assert!(computed > 0, "{run}");
            assert!(
                computed < report.stats.compositions,
                "{run}: {computed} compositions computed of {} requested",
                report.stats.compositions
            );
            if jobs == 1 {
                // One worker sees every request, so each composition it
                // repeats is a hit: the pair repeats more than half of them.
                assert!(
                    2 * computed <= report.stats.compositions,
                    "{run}: {computed} compositions computed of {} requested",
                    report.stats.compositions
                );
            }
            runs.push((run, report));
        }
    }
    let (first, report) = &runs[0];
    assert!(report.is_equivalent(), "{first}: {:?}", report.verdict);
    for (run, other) in &runs[1..] {
        assert_eq!(other.verdict, report.verdict, "{run} against {first}");
        assert_eq!(
            other.render_stable(),
            report.render_stable(),
            "{run} against {first}"
        );
        assert_eq!(
            other.stats.compositions, report.stats.compositions,
            "{run} against {first}"
        );
    }
}

/// One loop over N = 16 writing `C[k] = rhs`, reading `read` and `D`.
fn one_statement(read: &str, rhs: &str) -> String {
    format!(
        "#define N 16\nfoo(int {read}[], int D[], int C[])\n{{\n    int k;\n    \
         for(k=0; k<N; k++)\ns1:  C[k] = {rhs};\n}}\n"
    )
}

#[test]
fn arithmetic_at_the_i64_limits_answers_alike_in_every_build() {
    let verifier = Verifier::builder().jobs(1).witnesses(true).build();
    let verify = |read: &str, original: &str, transformed: &str| {
        let request = VerifyRequest::source(
            one_statement(read, original),
            one_statement(read, transformed),
        );
        verifier.verify(&request).unwrap().report
    };
    // `i64::MIN / -1` and `-i64::MIN` wrap to `i64::MIN`, so the added term
    // changes every element, and the replay confirms it.
    for wrapped in [
        "(0 - 9223372036854775807 - 1) / (0 - 1)",
        "-(0 - 9223372036854775807 - 1)",
    ] {
        let report = verify("A", "A[k] + D[k]", &format!("A[k] + D[k] + {wrapped}"));
        assert_eq!(report.verdict, Verdict::NotEquivalent, "{wrapped}");
        assert!(
            report.witnesses.iter().any(|w| w.confirmed),
            "{wrapped}: {}",
            report.summary()
        );
    }
    // An unused `#define` too large to size a replay input is left out of
    // the sizes, so the replay still confirms the witness, and neither build
    // panics.
    for big in ["6917529027641081856", "4611686018427387904"] {
        let source =
            |rhs: &str| one_statement("A", rhs).replacen('\n', &format!("\n#define M {big}\n"), 1);
        let request = VerifyRequest::source(source("A[k] + D[k]"), source("A[k] - D[k]"));
        let report = verifier.verify(&request).unwrap().report;
        assert_eq!(report.verdict, Verdict::NotEquivalent, "{big}");
        assert!(
            report.witnesses.iter().any(|w| w.confirmed),
            "{big}: {}",
            report.summary()
        );
    }
    // `2^62 * 2` wraps to `i64::MIN` in the index, which overflows the
    // solver's checked arithmetic: a typed inconclusive.
    let report = verify("B", "B[k+1] + D[k]", "B[4611686018427387904*2*k+1] + D[k]");
    assert_eq!(report.verdict, Verdict::Inconclusive);
    assert!(
        matches!(
            report.budget_exhausted,
            Some(BudgetExhausted::ArithOverflow { .. })
        ),
        "{:?}",
        report.budget_exhausted
    );
}
