//! The per-layer metrics of the traced run.
//!
//! A traced request yields one [`Record`]: layer self times taken from its
//! spans, plus the work counters the program returned for it
//! (`CheckStats`, `SessionStats`, the metrics registry).  [`aggregate`]
//! reduces the records of a run to the metrics of [`LAYER_METRICS`], which
//! also records, for each metric, the end-to-end metric and workload it
//! should move.

use crate::spans::Tracer;
use crate::stats::median;
use std::collections::BTreeMap;

/// Per-request values by key (microseconds for times).
pub type Record = BTreeMap<&'static str, f64>;

/// How a metric reduces the records of a run.
#[derive(Debug, Clone, Copy)]
pub enum Agg {
    /// Median over the requests that have the key (0 when none has it).
    Median(&'static str),
    /// Sum over the run.
    Sum(&'static str),
    /// Sum of the first key over sum of the second (0 when that is 0).
    Ratio(&'static str, &'static str),
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name as reported.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Reduction over the run's requests.
    pub agg: Agg,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    agg: Agg,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        agg,
        moves,
    }
}

use Agg::{Median, Ratio, Sum};

const FRONT: &str = "verdict_ms.p50 on service and edit; no change on deep";
const ADDG: &str = "verdict_ms.p50 on edit (fingerprint, diff), on service and wide (extract)";
const DEEP: &str = "verdict_ms.p50, verdict_ms.p90 and verdicts_per_s on deep";
const WIDE: &str = "verdicts_per_s on wide";
const EDIT: &str = "verdict_ms.p50 on edit";
const OMEGA: &str = "verdict_ms.p90 on wide and deep";
const WITNESS: &str = "verdict_ms.p90 on service and edit (the not-equivalent tail)";
const ENGINE: &str = "verdict_ms.p50 and verdicts_per_s on service";
const STORE: &str = "verdict_ms.p50 (flushes), setup_s and peak_rss_mb on service";
const SERVE: &str = "verdict_ms.p50 on service";
const TRACE: &str = "none: describes the traced run itself";

/// Every per-layer metric, in report order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("lang.parse_us", "us", "lower", Median("lang.parse"), FRONT),
    m("lang.parse_us.sum", "us", "lower", Sum("lang.parse"), FRONT),
    m(
        "lang.classcheck_us",
        "us",
        "lower",
        Median("lang.classcheck"),
        FRONT,
    ),
    m(
        "lang.classcheck_us.sum",
        "us",
        "lower",
        Sum("lang.classcheck"),
        FRONT,
    ),
    m(
        "lang.defuse_us",
        "us",
        "lower",
        Median("lang.defuse"),
        FRONT,
    ),
    m(
        "lang.defuse_us.sum",
        "us",
        "lower",
        Sum("lang.defuse"),
        FRONT,
    ),
    m(
        "lang.source_kb",
        "KiB",
        "lower",
        Median("lang.source_kb"),
        FRONT,
    ),
    m(
        "addg.extract_us",
        "us",
        "lower",
        Median("addg.extract"),
        ADDG,
    ),
    m(
        "addg.extract_us.sum",
        "us",
        "lower",
        Sum("addg.extract"),
        ADDG,
    ),
    m("addg.nodes", "count", "lower", Median("addg.nodes"), ADDG),
    m(
        "addg.fingerprint_us",
        "us",
        "lower",
        Median("addg.fingerprint"),
        ADDG,
    ),
    m(
        "addg.fingerprint_us.sum",
        "us",
        "lower",
        Sum("addg.fingerprint"),
        ADDG,
    ),
    m("addg.diff_us", "us", "lower", Median("addg.diff"), ADDG),
    m("addg.diff_us.sum", "us", "lower", Sum("addg.diff"), ADDG),
    m("core.check_us", "us", "lower", Median("core.check"), DEEP),
    m("core.check_us.sum", "us", "lower", Sum("core.check"), DEEP),
    m(
        "core.check_us.L9",
        "us",
        "lower",
        Median("core.check.L9"),
        DEEP,
    ),
    m(
        "core.check_us.L17",
        "us",
        "lower",
        Median("core.check.L17"),
        DEEP,
    ),
    m(
        "core.check_us.L33",
        "us",
        "lower",
        Median("core.check.L33"),
        DEEP,
    ),
    m(
        "core.check_us.L49",
        "us",
        "lower",
        Median("core.check.L49"),
        DEEP,
    ),
    m(
        "core.check_us.L65",
        "us",
        "lower",
        Median("core.check.L65"),
        DEEP,
    ),
    m(
        "core.flatten_us",
        "us",
        "lower",
        Median("core.flatten"),
        DEEP,
    ),
    m("core.match_us", "us", "lower", Median("core.match"), DEEP),
    m(
        "core.compositions",
        "count",
        "lower",
        Median("core.compositions"),
        DEEP,
    ),
    m(
        "core.mapping_equalities",
        "count",
        "lower",
        Median("core.mapping_equalities"),
        DEEP,
    ),
    m(
        "core.table_lookups",
        "count",
        "lower",
        Median("core.table_lookups"),
        DEEP,
    ),
    m(
        "core.table_hit_ratio",
        "ratio",
        "higher",
        Ratio("core.table_hits", "core.table_lookups"),
        DEEP,
    ),
    m(
        "core.parallel_tasks",
        "count",
        "higher",
        Median("core.parallel_tasks"),
        WIDE,
    ),
    m(
        "core.algebraic_piece_tasks",
        "count",
        "higher",
        Median("core.algebraic_piece_tasks"),
        WIDE,
    ),
    m(
        "core.arena_hit_ratio",
        "ratio",
        "higher",
        Ratio("core.arena_hits", "core.arena_interns"),
        WIDE,
    ),
    m(
        "core.terms_flattened",
        "count",
        "lower",
        Median("core.terms_flattened"),
        WIDE,
    ),
    m(
        "core.cone_positions",
        "count",
        "lower",
        Median("core.cone_positions"),
        EDIT,
    ),
    m(
        "core.baseline_hits",
        "count",
        "higher",
        Median("core.baseline_hits"),
        EDIT,
    ),
    m(
        "engine.baseline_parse_us",
        "us",
        "lower",
        Median("engine.baseline_parse"),
        EDIT,
    ),
    m(
        "engine.baseline_parse_us.sum",
        "us",
        "lower",
        Sum("engine.baseline_parse"),
        EDIT,
    ),
    m(
        "omega.feasibility_us",
        "us",
        "lower",
        Median("omega.feasibility"),
        OMEGA,
    ),
    m(
        "omega.composition_us",
        "us",
        "lower",
        Median("omega.composition"),
        OMEGA,
    ),
    m(
        "omega.simplify_us",
        "us",
        "lower",
        Median("omega.simplify"),
        OMEGA,
    ),
    m(
        "omega.feasibility_hit_ratio",
        "ratio",
        "higher",
        Ratio("omega.memo_hits", "omega.memo_lookups"),
        OMEGA,
    ),
    m(
        "omega.conjuncts_subsumed",
        "count",
        "higher",
        Median("omega.conjuncts_subsumed"),
        OMEGA,
    ),
    m(
        "omega.bigint_fallbacks",
        "count",
        "lower",
        Sum("omega.bigint_fallbacks"),
        OMEGA,
    ),
    m(
        "witness.extract_us",
        "us",
        "lower",
        Median("witness.extract"),
        WITNESS,
    ),
    m(
        "witness.extract_us.sum",
        "us",
        "lower",
        Sum("witness.extract"),
        WITNESS,
    ),
    m(
        "witness.replays",
        "count",
        "lower",
        Median("witness.replays"),
        WITNESS,
    ),
    m(
        "engine.verify_us",
        "us",
        "lower",
        Median("engine.wall"),
        ENGINE,
    ),
    m(
        "engine.overhead_us",
        "us",
        "lower",
        Median("engine.overhead"),
        ENGINE,
    ),
    m(
        "engine.overhead_us.sum",
        "us",
        "lower",
        Sum("engine.overhead"),
        ENGINE,
    ),
    m(
        "engine.shared_hit_ratio",
        "ratio",
        "higher",
        Ratio("engine.shared_hits", "engine.shared_lookups"),
        ENGINE,
    ),
    m(
        "engine.store_hits",
        "count",
        "higher",
        Sum("engine.store_hits"),
        STORE,
    ),
    m(
        "engine.store_load_us",
        "us",
        "lower",
        Median("engine.store_load"),
        STORE,
    ),
    m(
        "engine.store_flush_us",
        "us",
        "lower",
        Median("engine.store_flush"),
        STORE,
    ),
    m("serve.rtt_us", "us", "lower", Median("serve.rtt"), SERVE),
    m(
        "serve.server_us",
        "us",
        "lower",
        Median("serve.server"),
        SERVE,
    ),
    m(
        "serve.protocol_us",
        "us",
        "lower",
        Median("serve.protocol"),
        SERVE,
    ),
    m(
        "serve.protocol_us.sum",
        "us",
        "lower",
        Sum("serve.protocol"),
        SERVE,
    ),
    m("cli.process_us", "us", "lower", Median("cli.process"), EDIT),
    m(
        "cli.overhead_us",
        "us",
        "lower",
        Median("cli.overhead"),
        EDIT,
    ),
    m(
        "cli.overhead_us.sum",
        "us",
        "lower",
        Sum("cli.overhead"),
        EDIT,
    ),
    m("trace.verdict_us", "us", "lower", Median("verdict"), TRACE),
    m("trace.verdict_us.sum", "us", "lower", Sum("verdict"), TRACE),
    m(
        "trace.coverage_ratio",
        "ratio",
        "higher",
        Ratio("covered", "verdict"),
        TRACE,
    ),
    m(
        "trace.overhead_ratio",
        "ratio",
        "lower",
        Ratio("request", "verdict"),
        TRACE,
    ),
];

/// Reduces the records of a run to `(metric, unit, value)` per
/// [`LAYER_METRICS`] entry.
pub fn aggregate(records: &[Record]) -> Vec<(&'static str, &'static str, f64)> {
    let sum = |key: &str| records.iter().filter_map(|r| r.get(key)).sum::<f64>();
    LAYER_METRICS
        .iter()
        .map(|lm| {
            let value = match lm.agg {
                Median(key) => {
                    let values: Vec<f64> =
                        records.iter().filter_map(|r| r.get(key).copied()).collect();
                    median(&values)
                }
                Sum(key) => sum(key),
                Ratio(num, den) => {
                    let d = sum(den);
                    if d > 0.0 {
                        sum(num) / d
                    } else {
                        0.0
                    }
                }
            };
            (lm.name, lm.unit, value)
        })
        .collect()
}

/// Front-end layer calls the benchmark repeats outside the engine; the
/// engine's own time minus these is its overhead.
const FRONT_SPANS: [&str; 6] = [
    "lang.parse",
    "lang.classcheck",
    "lang.defuse",
    "addg.extract",
    "addg.fingerprint",
    "engine.baseline_parse",
];

/// Fills the span-derived entries of `record` for the request whose spans
/// start at index `from`: the self time of every span name, `verdict` (the
/// boundary call's duration), `request` (the whole traced request), and the
/// engine's wall time and overhead from span `engine`, whose self time still
/// contains the front end the engine ran internally.
pub fn finish_request(
    tracer: &Tracer,
    from: usize,
    root: usize,
    boundary: usize,
    engine: usize,
    record: &mut Record,
) {
    let selfs = tracer.self_times_since(from);
    for (name, t) in &selfs {
        record.insert(name, *t);
    }
    let verdict = tracer.span(boundary).dur_us();
    record.insert("verdict", verdict);
    record.insert("request", tracer.span(root).dur_us());
    record.insert("engine.wall", tracer.span(engine).dur_us());
    let engine_self = crate::spans::self_times(tracer.spans(), engine)[0].1;
    let front: f64 = FRONT_SPANS.iter().filter_map(|k| selfs.get(k)).sum();
    let overhead = engine_self - front;
    record.insert("engine.overhead", overhead);
    // The part of the verdict no measured layer accounts for is the engine
    // overhead; everything else is a layer call or a reported layer time.
    record.insert("covered", (verdict - overhead.abs()).max(0.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for lm in LAYER_METRICS {
            assert!(seen.insert(lm.name), "duplicate {}", lm.name);
            assert!(lm.name.len() <= 64);
            assert!(lm
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
            assert!(lm.better == "lower" || lm.better == "higher");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = arrayeq_engine::JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(|v| v.as_array())
            .expect("per_layer list")
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = LAYER_METRICS
            .iter()
            .map(|lm| (lm.name.into(), lm.unit.into(), lm.better.into()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn aggregation_reduces_records() {
        let mut a = Record::new();
        a.insert("lang.parse", 10.0);
        a.insert("core.table_hits", 1.0);
        a.insert("core.table_lookups", 4.0);
        let mut b = Record::new();
        b.insert("lang.parse", 30.0);
        b.insert("core.table_lookups", 4.0);
        let out = aggregate(&[a, b]);
        let get = |n: &str| out.iter().find(|(name, ..)| *name == n).unwrap().2;
        assert_eq!(get("lang.parse_us"), 20.0);
        assert_eq!(get("lang.parse_us.sum"), 40.0);
        assert_eq!(get("core.table_hit_ratio"), 0.125);
        assert_eq!(get("addg.diff_us"), 0.0);
    }
}
