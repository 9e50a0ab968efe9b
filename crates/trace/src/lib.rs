//! Structured proof tracing and session metrics for the arrayeq checker.
//!
//! This crate sits at the very bottom of the workspace dependency graph (it
//! has no dependencies of its own) so that every layer — `omega`, `core`,
//! `engine`, `cli` — can emit trace events through one shared facility.
//!
//! # Design
//!
//! The API is built around a process-global sink guarded by an atomic
//! enabled flag:
//!
//! * **Zero overhead when disabled.** Every emission site first performs a
//!   single `Relaxed` atomic load ([`enabled`]). When no collector is
//!   installed that load is the *entire* cost: field vectors are built
//!   lazily through closures ([`span_with`], [`event_with`]) so the
//!   disabled path allocates nothing and formats nothing.
//! * **Worker-aware.** The PR4 intra-query pool tags each worker thread
//!   with an id via [`set_worker`]; events carry that id so sinks can
//!   reconstruct per-worker lanes. Id `0` is the main/coordinator thread.
//! * **Span balance.** [`Span`] is a drop guard: the `Close` event fires on
//!   scope exit, including `?`-style early returns, so open/close events
//!   balance per worker whenever install/uninstall bracket whole runs.
//!
//! Two machine-readable serializations are provided by [`Collector`]:
//! a JSONL event stream ([`Collector::to_jsonl`]) and a Chrome trace-event
//! profile ([`Collector::to_chrome`]) loadable in `chrome://tracing` or
//! Perfetto. A human-facing proof-tree renderer lives in [`explain`].
//!
//! Latency metrics are a separate, even cheaper channel: a global
//! [`Metrics`] registry of log2-bucket histograms for the four hot
//! operations ([`Metric`]), designed to aggregate across queries for a
//! long-lived daemon session.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

pub mod explain;

// ---------------------------------------------------------------------------
// Global sink state
// ---------------------------------------------------------------------------

/// Fast-path flag: true iff a collector is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed collector, if any. Written only by install/uninstall;
/// read (briefly, under the read lock) by emission sites.
static SINK: RwLock<Option<Arc<Collector>>> = RwLock::new(None);

/// Fast-path flag for the metrics channel.
static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// The installed metrics registry, if any.
static METRICS: RwLock<Option<Arc<Metrics>>> = RwLock::new(None);

thread_local! {
    /// Worker id attached to events emitted from this thread (0 = main).
    static WORKER: Cell<u32> = const { Cell::new(0) };
    /// Names of currently-open spans on this thread, for depth bookkeeping.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Returns true iff a trace collector is currently installed.
///
/// This is a single `Relaxed` atomic load — the entire cost of an
/// instrumentation site when tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `collector` as the process-global trace sink and enables
/// tracing. Replaces any previously installed collector.
pub fn install(collector: Arc<Collector>) {
    *SINK.write().unwrap() = Some(collector);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables tracing and removes the installed collector, returning it so
/// the caller can serialize the gathered events.
pub fn uninstall() -> Option<Arc<Collector>> {
    ENABLED.store(false, Ordering::SeqCst);
    SINK.write().unwrap().take()
}

/// Tags the current thread with a worker id (0 = main/coordinator).
/// Worker pools call this once per worker thread before draining tasks.
pub fn set_worker(id: u32) {
    WORKER.with(|w| w.set(id));
}

/// Returns the current thread's worker id.
pub fn current_worker() -> u32 {
    WORKER.with(|w| w.get())
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

fn emit(phase: Phase, name: &'static str, dur_us: u64, fields: Vec<Field>) {
    let guard = SINK.read().unwrap();
    if let Some(c) = guard.as_ref() {
        let ev = Event {
            ts_us: c.now_us(),
            worker: current_worker(),
            phase,
            name,
            dur_us,
            fields,
        };
        c.push(ev);
    }
}

/// An open span; emits the matching `Close` event (with duration) when
/// dropped, including on early returns.
///
/// A `Span` created while tracing was disabled is inert: dropping it emits
/// nothing even if tracing was enabled in between (and vice versa the
/// close is suppressed if the collector vanished), so spans never panic
/// and imbalance can only arise from uninstalling mid-run.
#[must_use = "a span closes when dropped; binding it to _ closes it immediately"]
pub struct Span {
    name: &'static str,
    opened: Option<Instant>,
}

impl Span {
    /// A span that was never opened (tracing disabled at creation).
    fn inert(name: &'static str) -> Self {
        Span { name, opened: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t0) = self.opened {
            SPAN_STACK.with(|st| {
                let mut st = st.borrow_mut();
                debug_assert_eq!(st.last().copied(), Some(self.name), "unbalanced span stack");
                st.pop();
            });
            let dur_us = t0.elapsed().as_micros() as u64;
            emit(Phase::Close, self.name, dur_us, Vec::new());
        }
    }
}

/// Opens a span with no fields. Cost when disabled: one atomic load.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_with(name, Vec::new)
}

/// Opens a span whose fields are built lazily — `fields` only runs when
/// tracing is enabled, so the disabled path allocates nothing.
#[inline]
pub fn span_with(name: &'static str, fields: impl FnOnce() -> Vec<Field>) -> Span {
    if !enabled() {
        return Span::inert(name);
    }
    SPAN_STACK.with(|st| st.borrow_mut().push(name));
    emit(Phase::Open, name, 0, fields());
    Span {
        name,
        opened: Some(Instant::now()),
    }
}

/// Emits an instantaneous event; `fields` is built lazily as in
/// [`span_with`].
#[inline]
pub fn event_with(name: &'static str, fields: impl FnOnce() -> Vec<Field>) {
    if !enabled() {
        return;
    }
    emit(Phase::Instant, name, 0, fields());
}

/// Emits a discharge-provenance event: `mechanism` names which facility
/// answered the current sub-proof. The checker's mechanisms are
/// `"local_table"`, `"shared_table"`, `"store"`, `"baseline"`,
/// `"coinduction"`, `"arena_fast_match"`, and `"match_memo"`.
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

/// The five hot operations metered by the session registry.
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

/// A process-wide registry of latency histograms, one per [`Metric`].
/// Designed to stay installed across queries so a long-lived session
/// accumulates aggregate behaviour.
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

/// Returns true iff a metrics registry is installed.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Installs `metrics` as the process-global registry (replacing any
/// previous one) and enables metering.
pub fn install_metrics(metrics: Arc<Metrics>) {
    *METRICS.write().unwrap() = Some(metrics);
    METRICS_ON.store(true, Ordering::SeqCst);
}

/// Disables metering and removes the registry, returning it.
pub fn uninstall_metrics() -> Option<Arc<Metrics>> {
    METRICS_ON.store(false, Ordering::SeqCst);
    METRICS.write().unwrap().take()
}

/// Starts a timing sample iff metering is on. Pair with
/// [`record_elapsed`]; the disabled path is a single atomic load.
#[inline]
pub fn metrics_timer() -> Option<Instant> {
    if metrics_enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Records the time elapsed since `t0` (from [`metrics_timer`]) under
/// `metric`. No-op when `t0` is `None` or the registry was uninstalled.
#[inline]
pub fn record_elapsed(metric: Metric, t0: Option<Instant>) {
    if let Some(t0) = t0 {
        let dur_us = t0.elapsed().as_micros() as u64;
        if let Some(m) = METRICS.read().unwrap().as_ref() {
            m.record(metric, dur_us);
        }
    }
}

/// A drop guard that records its lifetime under `metric` — the convenient
/// form of [`metrics_timer`]/[`record_elapsed`] for multi-return functions.
pub struct MetricGuard {
    metric: Metric,
    t0: Option<Instant>,
}

impl Drop for MetricGuard {
    fn drop(&mut self) {
        record_elapsed(self.metric, self.t0);
    }
}

/// Starts a [`MetricGuard`] for `metric`; a single atomic load when off.
#[inline]
pub fn metric_guard(metric: Metric) -> MetricGuard {
    MetricGuard {
        metric,
        t0: metrics_timer(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace/metrics state is process-global; serialize the unit tests.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_lazy_fields() {
        let _g = LOCK.lock().unwrap();
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
        let _g = LOCK.lock().unwrap();
        let c = Arc::new(Collector::new());
        install(c.clone());
        {
            let _outer = span_with("outer", || vec![s("k", "v\"q"), u("n", 7)]);
            let _inner = span("inner");
            event_with("mark", || vec![b("ok", true)]);
        }
        uninstall();
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
    fn metrics_histogram_buckets() {
        let _g = LOCK.lock().unwrap();
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
