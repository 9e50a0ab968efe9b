//! In-memory spans for the traced run.
//!
//! The benchmark records one span around each call it makes into a layer
//! (name, start, end, parent span, request id).  Calls that happen inside
//! another process, or inside one engine call, are added as *reported*
//! spans: their duration is the one the program itself returned (for
//! example `CheckStats::check_time_us`), placed inside the span of the call
//! that returned it.  Spans stay in memory until the run ends and are then
//! written out as JSON lines.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the span belongs to (0 for work outside any request).
    pub rid: u64,
    /// Index of the enclosing span in the tracer, if any.
    pub parent: Option<usize>,
    /// Layer call, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
    /// Whether the program reported the duration (rather than the benchmark
    /// timing the call).
    pub reported: bool,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer::starting_at(Instant::now())
    }

    /// An empty recorder whose clock starts at `origin` (tracers of several
    /// client threads share one origin so their spans line up).
    pub fn starting_at(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, rid: u64, parent: Option<usize>, name: &'static str) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            rid,
            parent,
            name,
            start_us: now,
            end_us: now,
            reported: false,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        rid: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(rid, parent, name);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a span the program reported: `dur_us` long, starting `offset_us`
    /// after the start of `parent`, clipped to the parent's interval.
    /// Returns the new span's index.
    pub fn reported(
        &mut self,
        parent: usize,
        name: &'static str,
        offset_us: f64,
        dur_us: f64,
    ) -> usize {
        let p = &self.spans[parent];
        let start_us = (p.start_us + offset_us.max(0.0)).min(p.end_us);
        let end_us = (start_us + dur_us.max(0.0)).min(p.end_us);
        self.spans.push(Span {
            rid: p.rid,
            parent: Some(parent),
            name,
            start_us,
            end_us,
            reported: true,
        });
        self.spans.len() - 1
    }

    /// Span `id`.
    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name over the spans from index `from` on: each
    /// span's duration minus the part of it its children cover.
    pub fn self_times_since(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, t) in self_times(&self.spans, from) {
            *out.entry(name).or_insert(0.0) += t;
        }
        out
    }

    /// Moves the spans of `other` into this tracer (same origin assumed).
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// The spans as JSON lines: `{"id","parent","rid","name","start_us",
    /// "end_us","self_us","reported"}`.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans, 0);
        let mut out = String::new();
        for (id, (s, (_, self_us))) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"rid\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"reported\":{}}}\n",
                s.rid, s.name, s.start_us, s.end_us, self_us, s.reported
            ));
        }
        out
    }
}

/// `(name, self time)` of every span from index `from` on.  Children are the
/// spans whose `parent` points at a span; their intervals are clipped to the
/// parent's and merged, so overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span], from: usize) -> Vec<(&'static str, f64)> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in &spans[from..] {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_us.max(ps.start_us), s.end_us.min(ps.end_us));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans[from..]
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let kids = &mut children[from + i];
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.name, (s.dur_us() - covered).max(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            rid: 1,
            parent,
            name,
            start_us: start,
            end_us: end,
            reported: false,
        }
    }

    #[test]
    fn self_times_of_a_subtree_sum_to_the_root_duration() {
        let spans = vec![
            span(None, "request", 0.0, 100.0),
            span(Some(0), "engine.verify", 0.0, 70.0),
            span(Some(1), "core.check", 5.0, 60.0),
            span(Some(0), "lang.parse", 72.0, 80.0),
            span(Some(0), "addg.extract", 80.0, 90.0),
        ];
        let selfs = self_times(&spans, 0);
        let total: f64 = selfs.iter().map(|(_, t)| t).sum();
        assert!((total - 100.0).abs() < 1e-9, "{selfs:?}");
        assert_eq!(selfs[0], ("request", 12.0));
        assert_eq!(selfs[1], ("engine.verify", 15.0));
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            span(None, "request", 0.0, 100.0),
            span(Some(0), "lang.parse", 10.0, 50.0),
            span(Some(0), "addg.extract", 40.0, 60.0),
            // Clipped to the parent's interval.
            span(Some(0), "core.check", 90.0, 150.0),
        ];
        assert_eq!(self_times(&spans, 0)[0], ("request", 40.0));
    }

    #[test]
    fn recorded_spans_nest_and_sum_to_their_parents() {
        let mut t = Tracer::new();
        let root = t.open(7, None, "request");
        t.time(7, Some(root), "engine.verify", || {
            std::thread::sleep(std::time::Duration::from_millis(3));
        });
        let ev = t.spans().len() - 1;
        let check = t.reported(ev, "core.check", 100.0, 1_000.0);
        // A reported duration longer than its parent is clipped to it.
        t.reported(check, "omega.feasibility", 0.0, 1e9);
        t.time(7, Some(root), "lang.parse", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        t.close(root);
        let by_name = t.self_times_since(0);
        let sum: f64 = by_name.values().sum();
        let root_dur = t.span(root).dur_us();
        assert!((sum - root_dur).abs() < 1e-6, "{sum} vs {root_dur}");
        assert_eq!(by_name["core.check"], 0.0);
        assert!((by_name["omega.feasibility"] - 1_000.0).abs() < 1e-6);
        for line in t.to_jsonl().lines() {
            arrayeq_engine::JsonValue::parse(line).expect("every trace line is JSON");
        }
    }
}
