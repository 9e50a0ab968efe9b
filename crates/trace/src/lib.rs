//! Structured proof tracing and session metrics for the arrayeq checker.
//!
//! This crate sits at the very bottom of the workspace dependency graph (it
//! has no dependencies of its own) so that every layer — `omega`, `core`,
//! `engine`, `cli` — can emit trace events through one shared facility.
//!
//! # Design
//!
//! Everything a thread records goes through one scope, [`recording`]. It
//! sets a [`Recorder`] — an optional [`Collector`], an optional [`Metrics`]
//! registry and the worker lane its events carry — on the calling thread
//! while a closure runs, and restores the enclosing one when the closure
//! returns or unwinds. Nothing is process-global: an engine runs each of its
//! requests inside its own recorder, so two engines in one process never
//! record into each other, not even when they verify at the same time.
//!
//! * **Spans are the one timer.** A [`Span`] is a drop guard. It opens when
//!   the thread's recorder has a collector, or has a registry and the span
//!   is one of the five metered operations ([`Metric`]). On close it sends
//!   its `Close` event, with its duration, to the collector, and a metered
//!   span adds the same duration to the registry, so the trace and the
//!   histograms count the same events. Closes fire on every scope exit,
//!   `?`-style early returns included, so open and close events balance per
//!   worker lane.
//! * **Near-zero cost when off.** With no recorder set, an instrumentation
//!   site costs one thread-local read. Field vectors are built lazily
//!   through closures ([`span_with`], [`event_with`]), and only when there
//!   is a collector, so the disabled path allocates nothing and formats
//!   nothing.
//! * **Worker lanes.** A scope does not follow work onto other threads: a
//!   worker pool runs each worker inside a copy of [`Recorder::current`]
//!   with that worker's lane. Lane `0` is the coordinating thread.
//!
//! Two machine-readable serializations are provided by [`Collector`]:
//! a JSONL event stream ([`Collector::to_jsonl`]) and a Chrome trace-event
//! profile ([`Collector::to_chrome`]) loadable in `chrome://tracing` or
//! Perfetto. A human-facing proof-tree renderer lives in [`explain`].
//! [`Metrics`] keeps log2-bucket latency histograms of the metered spans,
//! aggregated over every request recorded into it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod explain;

// ---------------------------------------------------------------------------
// The recording scope
// ---------------------------------------------------------------------------

/// What a thread records into: a trace collector, a metrics registry, both
/// or neither, and the worker lane its events carry. Set on a thread for
/// the span of one call by [`recording`].
#[derive(Clone, Default)]
pub struct Recorder {
    /// Receives every span and instant event.
    pub collector: Option<Arc<Collector>>,
    /// Receives the durations of the metered spans ([`Metric`]).
    pub metrics: Option<Arc<Metrics>>,
    /// Worker lane attached to the events (0 = the coordinating thread).
    pub worker: u32,
}

impl Recorder {
    const OFF: Recorder = Recorder {
        collector: None,
        metrics: None,
        worker: 0,
    };

    /// A copy of the current thread's recorder, for the worker threads
    /// that take over part of its work.
    pub fn current() -> Recorder {
        RECORDER.with(|r| r.borrow().clone())
    }

    /// Sends one event to the collector, if there is one.
    fn emit(
        &self,
        phase: Phase,
        name: &'static str,
        dur_us: u64,
        fields: impl FnOnce() -> Vec<Field>,
    ) {
        if let Some(c) = &self.collector {
            c.push(Event {
                ts_us: c.now_us(),
                worker: self.worker,
                phase,
                name,
                dur_us,
                fields: fields(),
            });
        }
    }
}

thread_local! {
    /// The recorder of the innermost [`recording`] scope on this thread.
    static RECORDER: RefCell<Recorder> = const { RefCell::new(Recorder::OFF) };
    /// Names of currently-open traced spans on this thread, for depth
    /// bookkeeping.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `recorder` set on the current thread: every span and event
/// `f` emits on this thread goes to its collector and registry.
///
/// The enclosing recorder is restored when `f` returns or unwinds, so scopes
/// nest, and a scope whose recorder has neither a collector nor a registry
/// records nothing, whatever encloses it.
pub fn recording<R>(recorder: &Recorder, f: impl FnOnce() -> R) -> R {
    /// Puts the enclosing scope's recorder back on drop.
    struct Restore(Recorder);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = std::mem::take(&mut self.0);
            RECORDER.with(|r| *r.borrow_mut() = outer);
        }
    }
    let _restore = Restore(RECORDER.with(|r| r.replace(recorder.clone())));
    f()
}

/// Returns true iff the current thread's recorder has a trace collector.
#[inline]
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().collector.is_some())
}

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// A field value attached to an event. Deliberately small: only the shapes
/// the checker actually needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter / size.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Owned string (array names, statement labels).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

/// A named field: `(key, value)`.
pub type Field = (&'static str, Value);

/// Convenience constructor for a string field.
pub fn s(key: &'static str, val: impl Into<String>) -> Field {
    (key, Value::Str(val.into()))
}

/// Convenience constructor for an unsigned field.
pub fn u(key: &'static str, val: u64) -> Field {
    (key, Value::U64(val))
}

/// Convenience constructor for a boolean field.
pub fn b(key: &'static str, val: bool) -> Field {
    (key, Value::Bool(val))
}

/// Event phase, mirroring the Chrome trace-event `ph` letter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span open (`"B"`).
    Open,
    /// Span close (`"E"`), carrying the span duration.
    Close,
    /// Instantaneous event (`"i"`).
    Instant,
}

impl Phase {
    /// The Chrome trace-event phase letter.
    pub fn letter(self) -> &'static str {
        match self {
            Phase::Open => "B",
            Phase::Close => "E",
            Phase::Instant => "i",
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Microseconds since the collector's epoch.
    pub ts_us: u64,
    /// Worker lane (0 = main thread).
    pub worker: u32,
    /// Open / Close / Instant.
    pub phase: Phase,
    /// Static event name ("output", "compose", "discharge", ...).
    pub name: &'static str,
    /// Span duration in microseconds; only meaningful on `Close`.
    pub dur_us: u64,
    /// Structured payload.
    pub fields: Vec<Field>,
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// Accumulates trace events in memory and serializes them to JSONL or the
/// Chrome trace-event format.
pub struct Collector {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("events", &self.len())
            .finish()
    }
}

impl Collector {
    /// Creates an empty collector; its epoch (ts 0) is the creation time.
    pub fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds elapsed since this collector's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn push(&self, ev: Event) {
        self.events.lock().unwrap().push(ev);
    }

    /// Snapshot of all recorded events, in push order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the event stream as JSONL: one JSON object per line with
    /// keys `ts` (µs since epoch), `worker`, `ph` (`B`/`E`/`i`), `name`,
    /// `dur` (µs, close events only) and the event's fields flattened in.
    pub fn to_jsonl(&self) -> String {
        let events = self.events.lock().unwrap();
        let mut out = String::with_capacity(events.len() * 96);
        for ev in events.iter() {
            write_event_json(&mut out, ev, false);
            out.push('\n');
        }
        out
    }

    /// Serializes the events as a Chrome trace-event document (the JSON
    /// object format with a `traceEvents` array), loadable in
    /// `chrome://tracing` or <https://ui.perfetto.dev>. Worker lanes appear
    /// as threads: tid = worker id, named via `thread_name` metadata.
    pub fn to_chrome(&self) -> String {
        let events = self.events.lock().unwrap();
        let mut workers: Vec<u32> = events.iter().map(|e| e.worker).collect();
        workers.sort_unstable();
        workers.dedup();

        let mut out = String::with_capacity(events.len() * 128 + 256);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for w in &workers {
            if !first {
                out.push(',');
            }
            first = false;
            let label = if *w == 0 {
                "main".to_owned()
            } else {
                format!("worker-{w}")
            };
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{w},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            ));
        }
        for ev in events.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            write_event_json(&mut out, ev, true);
        }
        out.push_str("]}");
        out
    }
}

/// Writes one event as a JSON object. `chrome` selects the Chrome
/// trace-event shape (pid/tid/args) over the flat JSONL shape.
fn write_event_json(out: &mut String, ev: &Event, chrome: bool) {
    use std::fmt::Write as _;
    out.push('{');
    if chrome {
        let _ = write!(
            out,
            "\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"name\":",
            ev.phase.letter(),
            ev.worker,
            ev.ts_us
        );
        write_json_string(out, ev.name);
        if ev.phase == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{");
        let mut first = true;
        if ev.phase == Phase::Close {
            let _ = write!(out, "\"dur_us\":{}", ev.dur_us);
            first = false;
        }
        for (k, v) in &ev.fields {
            if !first {
                out.push(',');
            }
            first = false;
            write_json_string(out, k);
            out.push(':');
            write_json_value(out, v);
        }
        out.push('}');
    } else {
        let _ = write!(
            out,
            "\"ts\":{},\"worker\":{},\"ph\":\"{}\",\"name\":",
            ev.ts_us,
            ev.worker,
            ev.phase.letter()
        );
        write_json_string(out, ev.name);
        if ev.phase == Phase::Close {
            let _ = write!(out, ",\"dur\":{}", ev.dur_us);
        }
        for (k, v) in &ev.fields {
            out.push(',');
            write_json_string(out, k);
            out.push(':');
            write_json_value(out, v);
        }
    }
    out.push('}');
}

fn write_json_value(out: &mut String, v: &Value) {
    use std::fmt::Write as _;
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
        Value::Str(s) => write_json_string(out, s),
    }
}

/// Writes `s` as a JSON string literal with escaping.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Emission API
// ---------------------------------------------------------------------------

/// An open span; emits the matching `Close` event (with duration) when
/// dropped, including on early returns, and records a metered span's
/// duration in the registry.
///
/// A `Span` opened while the thread's recorder had nothing to give it to is
/// inert: dropping it records nothing.
#[must_use = "a span closes when dropped; binding it to _ closes it immediately"]
pub struct Span {
    name: &'static str,
    /// When the span opened; `None` for an inert span.
    opened: Option<Instant>,
    /// The histogram its duration goes to, if the registry meters it.
    metric: Option<Metric>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(t0) = self.opened else { return };
        let dur_us = t0.elapsed().as_micros() as u64;
        RECORDER.with(|r| {
            let r = r.borrow();
            if let (Some(metric), Some(m)) = (self.metric, &r.metrics) {
                m.record(metric, dur_us);
            }
            if r.collector.is_some() {
                SPAN_STACK.with(|st| {
                    let mut st = st.borrow_mut();
                    debug_assert_eq!(st.last().copied(), Some(self.name), "unbalanced span stack");
                    st.pop();
                });
                r.emit(Phase::Close, self.name, dur_us, Vec::new);
            }
        });
    }
}

/// Opens a span with no fields. Cost when off: one thread-local read.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_with(name, Vec::new)
}

/// Opens a span whose fields are built lazily — `fields` only runs when the
/// thread's recorder has a collector, so the disabled path allocates
/// nothing.
#[inline]
pub fn span_with(name: &'static str, fields: impl FnOnce() -> Vec<Field>) -> Span {
    RECORDER.with(|r| {
        let r = r.borrow();
        let metric = r.metrics.as_ref().and_then(|_| Metric::of_span(name));
        if r.collector.is_some() {
            SPAN_STACK.with(|st| st.borrow_mut().push(name));
            r.emit(Phase::Open, name, 0, fields);
        } else if metric.is_none() {
            return Span {
                name,
                opened: None,
                metric,
            };
        }
        Span {
            name,
            opened: Some(Instant::now()),
            metric,
        }
    })
}

/// Emits an instantaneous event; `fields` is built lazily as in
/// [`span_with`].
#[inline]
pub fn event_with(name: &'static str, fields: impl FnOnce() -> Vec<Field>) {
    RECORDER.with(|r| r.borrow().emit(Phase::Instant, name, 0, fields));
}

/// Emits a discharge-provenance event: `mechanism` names which facility
/// answered the current sub-proof. The checker's mechanisms are
/// `"local_table"`, `"shared_table"`, `"store"`, `"baseline"`,
/// `"coinduction"` and `"arena_fast_match"`.
#[inline]
pub fn discharge(mechanism: &'static str) {
    event_with("discharge", || vec![s("mechanism", mechanism)]);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Number of log2 latency buckets; bucket `i` covers durations in
/// `[2^(i-1), 2^i)` µs (bucket 0 holds sub-microsecond samples).
pub const N_BUCKETS: usize = 40;

/// The five hot operations a [`Metrics`] registry meters: each is the
/// duration of one span, recorded when the span closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// `Conjunct::is_feasible` compute (memo misses only), µs.
    Feasibility,
    /// Mapping composition + simplification in the traversal, µs.
    Composition,
    /// Algebraic flattening of an operator family, µs.
    Flatten,
    /// Restricted multiset matching of flattened terms, µs.
    Match,
    /// DNF coalescing (conjunct dedup + subsumption) of a relation, µs.
    Simplify,
}

impl Metric {
    /// All metrics, in snapshot order.
    pub const ALL: [Metric; 5] = [
        Metric::Feasibility,
        Metric::Composition,
        Metric::Flatten,
        Metric::Match,
        Metric::Simplify,
    ];

    /// Stable snake_case name used in JSON snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Feasibility => "feasibility",
            Metric::Composition => "composition",
            Metric::Flatten => "flatten",
            Metric::Match => "match",
            Metric::Simplify => "simplify",
        }
    }

    /// The name of the span this metric times.
    fn span(self) -> &'static str {
        match self {
            Metric::Feasibility => "feasibility",
            Metric::Composition => "compose",
            Metric::Flatten => "flatten",
            Metric::Match => "match",
            Metric::Simplify => "simplify",
        }
    }

    /// The metric a span named `name` feeds, if any.
    fn of_span(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.span() == name)
    }

    fn index(self) -> usize {
        match self {
            Metric::Feasibility => 0,
            Metric::Composition => 1,
            Metric::Flatten => 2,
            Metric::Match => 3,
            Metric::Simplify => 4,
        }
    }
}

struct Histo {
    count: AtomicU64,
    sum_us: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
}

impl Default for Histo {
    fn default() -> Self {
        Histo {
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histo {
    fn record(&self, dur_us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(dur_us, Ordering::Relaxed);
        let idx = if dur_us == 0 {
            0
        } else {
            ((64 - dur_us.leading_zeros()) as usize).min(N_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// A registry of latency histograms, one per [`Metric`]. It belongs to one
/// engine (or whoever records into it through a [`Recorder`]) and
/// accumulates over every request recorded into it, so a long-lived session
/// aggregates its own behaviour and no other engine's.
#[derive(Default)]
pub struct Metrics {
    histos: [Histo; 5],
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one latency sample.
    pub fn record(&self, metric: Metric, dur_us: u64) {
        self.histos[metric.index()].record(dur_us);
    }

    /// Takes a consistent-enough snapshot (relaxed reads) of all metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: Metric::ALL
                .iter()
                .map(|m| {
                    let h = &self.histos[m.index()];
                    MetricSnapshot {
                        name: m.name(),
                        count: h.count.load(Ordering::Relaxed),
                        sum_us: h.sum_us.load(Ordering::Relaxed),
                        buckets: h
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                    }
                })
                .collect(),
        }
    }
}

/// Snapshot of one metric's histogram.
pub struct MetricSnapshot {
    /// Stable metric name (snake_case).
    pub name: &'static str,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, µs.
    pub sum_us: u64,
    /// log2 bucket counts; bucket `i` covers `[2^(i-1), 2^i)` µs.
    pub buckets: Vec<u64>,
}

impl MetricSnapshot {
    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile (e.g. 0.5, 0.99) from the log2 buckets,
    /// reported as the upper bound of the containing bucket in µs.
    pub fn approx_quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        1u64 << (N_BUCKETS - 1)
    }
}

/// Snapshot of the whole registry.
pub struct MetricsSnapshot {
    /// One entry per [`Metric`], in [`Metric::ALL`] order.
    pub metrics: Vec<MetricSnapshot>,
}

impl MetricsSnapshot {
    /// Serializes the snapshot as a JSON object:
    /// `{"metrics":[{"name","unit":"us","count","sum_us","mean_us",
    /// "p50_us","p99_us","buckets":[[floor_us,count],...]},...]}`.
    /// Only non-empty buckets are listed, as `[bucket_floor_us, count]`
    /// pairs.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"unit\":\"us\",\"count\":{},\"sum_us\":{},\
                 \"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"buckets\":[",
                m.name,
                m.count,
                m.sum_us,
                m.mean_us(),
                m.approx_quantile_us(0.5),
                m.approx_quantile_us(0.99)
            );
            let mut first = true;
            for (b, n) in m.buckets.iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let floor = if b == 0 { 0 } else { 1u64 << (b - 1) };
                let _ = write!(out, "[{floor},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Does nothing. A registry belongs to the engine that records into it,
/// through its [`Recorder`], and nothing is installed process-wide; kept for
/// callers that still "uninstall" after reading an engine's snapshot.
pub fn uninstall_metrics() {}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced() -> (Arc<Collector>, Recorder) {
        let c = Arc::new(Collector::new());
        let recorder = Recorder {
            collector: Some(c.clone()),
            ..Recorder::default()
        };
        (c, recorder)
    }

    #[test]
    fn disabled_by_default_and_lazy_fields() {
        assert!(!enabled());
        let mut ran = false;
        let _span = span_with("x", || {
            ran = true;
            vec![]
        });
        drop(_span);
        assert!(!ran, "field closure must not run when disabled");
    }

    #[test]
    fn spans_balance_and_serialize() {
        let (c, recorder) = traced();
        recording(&recorder, || {
            let _outer = span_with("outer", || vec![s("k", "v\"q"), u("n", 7)]);
            let _inner = span("inner");
            event_with("mark", || vec![b("ok", true)]);
        });
        assert!(!enabled(), "the scope is over");
        let evs = c.events();
        assert_eq!(evs.len(), 5);
        let opens = evs.iter().filter(|e| e.phase == Phase::Open).count();
        let closes = evs.iter().filter(|e| e.phase == Phase::Close).count();
        assert_eq!(opens, closes);
        // Inner closes before outer (LIFO).
        assert_eq!(evs[3].name, "inner");
        assert_eq!(evs[4].name, "outer");
        let jsonl = c.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.contains("\\\"q"), "string escaping in JSONL");
        let chrome = c.to_chrome();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"thread_name\""));
    }

    #[test]
    fn metered_spans_feed_the_registry_without_building_fields() {
        let m = Arc::new(Metrics::new());
        let recorder = Recorder {
            metrics: Some(m.clone()),
            ..Recorder::default()
        };
        let mut built = false;
        recording(&recorder, || {
            let _compose = span_with("compose", || {
                built = true;
                vec![]
            });
            let _unmetered = span("output");
            let _simplify = span("simplify");
        });
        assert!(!built, "fields are built for a collector only");
        let counts: Vec<u64> = m.snapshot().metrics.iter().map(|m| m.count).collect();
        assert_eq!(counts, [0, 1, 0, 0, 1]);
    }

    #[test]
    fn a_scope_restores_the_enclosing_recorder_even_when_it_unwinds() {
        let (outer, recorder) = traced();
        recording(&recorder, || {
            let unwound = std::panic::catch_unwind(|| {
                recording(&Recorder::default(), || {
                    event_with("silenced", Vec::new);
                    panic!("unwinds through the inner scope");
                })
            });
            assert!(unwound.is_err());
            let lane = Recorder {
                worker: 3,
                ..Recorder::current()
            };
            std::thread::scope(|scope| {
                scope.spawn(|| recording(&lane, || event_with("worker", Vec::new)));
            });
            event_with("after", Vec::new);
        });
        let evs = outer.events();
        let seen: Vec<(&str, u32)> = evs.iter().map(|e| (e.name, e.worker)).collect();
        assert_eq!(seen, [("worker", 3), ("after", 0)]);
    }

    #[test]
    fn metrics_histogram_buckets() {
        let m = Metrics::new();
        m.record(Metric::Feasibility, 0);
        m.record(Metric::Feasibility, 1);
        m.record(Metric::Feasibility, 3);
        m.record(Metric::Feasibility, 1000);
        let snap = m.snapshot();
        let f = &snap.metrics[0];
        assert_eq!(f.name, "feasibility");
        assert_eq!(f.count, 4);
        assert_eq!(f.sum_us, 1004);
        assert_eq!(f.buckets[0], 1); // 0 µs
        assert_eq!(f.buckets[1], 1); // 1 µs -> [1,2)
        assert_eq!(f.buckets[2], 1); // 3 µs -> [2,4)
        assert_eq!(f.buckets[10], 1); // 1000 µs -> [512,1024)
        assert!(f.approx_quantile_us(0.5) <= 2);
        let json = snap.to_json();
        assert!(json.contains("\"name\":\"feasibility\""));
        assert!(json.contains("\"count\":4"));
    }
}
