//! Human-facing proof-tree renderer for `--explain`.
//!
//! Reconstructs per-worker span trees from a [`Collector`]'s event stream
//! and renders one annotated node per checked output: its verdict, wall
//! time, which discharge mechanisms answered its sub-proofs, how much work
//! each traversal phase did, and — for incremental runs — whether the
//! baseline supplied the proof outright (clean outputs are skipped by the
//! checker and owe their verdict entirely to the previous run).

use crate::{Collector, Event, Field, Phase, Value};
use std::collections::HashMap;
use std::fmt::Write as _;

/// An instant event detached from its span: `(name, fields)`.
type Instant = (&'static str, Vec<Field>);

/// The per-output accumulation list, in first-seen order.
type Outputs = Vec<(String, OutputInfo)>;

/// A reconstructed span-tree node.
#[derive(Debug, Default)]
struct Node {
    name: &'static str,
    fields: Vec<Field>,
    dur_us: u64,
    children: Vec<Node>,
    /// Instant events recorded while this span was the innermost open one.
    instants: Vec<Instant>,
}

fn field_str<'a>(fields: &'a [(&'static str, Value)], key: &str) -> Option<&'a str> {
    fields.iter().find_map(|(k, v)| match v {
        Value::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

fn field_bool(fields: &[(&'static str, Value)], key: &str) -> Option<bool> {
    fields.iter().find_map(|(k, v)| match v {
        Value::Bool(x) if *k == key => Some(*x),
        _ => None,
    })
}

/// Builds per-worker span forests plus the list of top-level instant
/// events (those emitted outside any span).
fn build_forest(events: &[Event]) -> (Vec<Node>, Vec<Instant>) {
    // Per-worker stack of open nodes; index 0 of each stack is a synthetic
    // root so instants outside spans have a place to land.
    let mut stacks: HashMap<u32, Vec<Node>> = HashMap::new();
    for ev in events {
        let stack = stacks
            .entry(ev.worker)
            .or_insert_with(|| vec![Node::default()]);
        match ev.phase {
            Phase::Open => stack.push(Node {
                name: ev.name,
                fields: ev.fields.clone(),
                ..Node::default()
            }),
            Phase::Close => {
                // Pop the innermost open span; tolerate imbalance.
                if stack.len() > 1 {
                    let mut node = stack.pop().unwrap();
                    node.dur_us = ev.dur_us;
                    stack.last_mut().unwrap().children.push(node);
                }
            }
            Phase::Instant => stack
                .last_mut()
                .unwrap()
                .instants
                .push((ev.name, ev.fields.clone())),
        }
    }
    let mut roots = Vec::new();
    let mut loose = Vec::new();
    let mut workers: Vec<u32> = stacks.keys().copied().collect();
    workers.sort_unstable();
    for w in workers {
        let mut stack = stacks.remove(&w).unwrap();
        // Fold any still-open spans (the collector was read before its
        // request ended) into their parent.
        while stack.len() > 1 {
            let node = stack.pop().unwrap();
            stack.last_mut().unwrap().children.push(node);
        }
        let synthetic = stack.pop().unwrap();
        roots.extend(synthetic.children);
        loose.extend(synthetic.instants);
    }
    (roots, loose)
}

/// Per-output aggregation accumulated over all spans belonging to it.
#[derive(Default)]
struct OutputInfo {
    order: usize,
    clean: bool,
    verdict: Option<bool>,
    total_us: u64,
    mechanisms: Vec<(&'static str, u64)>,
    phase_counts: Vec<(&'static str, u64, u64)>, // (name, count, total µs)
    definitions: Vec<(String, u64)>,             // (label, µs), pre-order
}

fn bump<'a>(list: &mut Vec<(&'a str, u64)>, key: &'a str) {
    if let Some(e) = list.iter_mut().find(|(k, _)| *k == key) {
        e.1 += 1;
    } else {
        list.push((key, 1));
    }
}

fn bump_phase(list: &mut Vec<(&'static str, u64, u64)>, key: &'static str, dur: u64) {
    if let Some(e) = list.iter_mut().find(|(k, _, _)| *k == key) {
        e.1 += 1;
        e.2 += dur;
    } else {
        list.push((key, 1, dur));
    }
}

/// Recursively aggregates `node`'s subtree into `info`. `depth` tracks
/// definition nesting for the rendered tree lines.
fn aggregate(node: &Node, info: &mut OutputInfo, depth: usize) {
    for (name, fields) in &node.instants {
        if *name == "discharge" {
            if let Some(m) = field_str(fields, "mechanism") {
                bump_mechanism(&mut info.mechanisms, m);
            }
        }
    }
    for child in &node.children {
        match child.name {
            "definition" => {
                let stmt = field_str(&child.fields, "statement").unwrap_or("?");
                let array = field_str(&child.fields, "array").unwrap_or("?");
                info.definitions.push((
                    format!("{}{} := {}", "  ".repeat(depth), array, stmt),
                    child.dur_us,
                ));
                aggregate(child, info, depth + 1);
            }
            _ => {
                bump_phase(&mut info.phase_counts, child.name, child.dur_us);
                aggregate(child, info, depth);
            }
        }
    }
}

/// Interns the mechanism name into a static display label so the
/// aggregation vectors can hold `&'static str`.
fn bump_mechanism(list: &mut Vec<(&'static str, u64)>, raw: &str) {
    let label: &'static str = match raw {
        "local_table" => "local table",
        "shared_table" => "shared table",
        "store" => "persistent store",
        "baseline" => "baseline",
        "coinduction" => "coinduction assumption",
        "arena_fast_match" => "arena fast-match",
        _ => "other",
    };
    bump(list, label);
}

fn fmt_us(us: u64) -> String {
    if us >= 1000 {
        format!("{:.2} ms", us as f64 / 1000.0)
    } else {
        format!("{us} µs")
    }
}

/// Renders the proof tree gathered in `collector` as human-readable text.
///
/// Every checked output gets a node annotated with its verdict, wall time,
/// and the discharge mechanisms that answered its sub-proofs; outputs
/// skipped as clean in an incremental run are credited to the baseline.
pub fn render(collector: &Collector) -> String {
    let events = collector.events();
    if events.is_empty() {
        return "explain: no trace events recorded\n".to_owned();
    }
    let (roots, loose) = build_forest(&events);

    // Gather outputs in first-appearance order across span roots and loose
    // instant events (clean-skip notices fire outside any span).
    let mut outputs: Outputs = Vec::new();
    let mut idx_of = |outputs: &mut Outputs, name: &str| -> usize {
        if let Some(i) = outputs.iter().position(|(n, _)| n == name) {
            i
        } else {
            let order = outputs.len();
            outputs.push((
                name.to_owned(),
                OutputInfo {
                    order,
                    ..OutputInfo::default()
                },
            ));
            outputs.len() - 1
        }
    };

    let mut visit_top = |outputs: &mut Outputs, node: &Node| {
        match node.name {
            "output" | "task" => {
                if let Some(name) = field_str(&node.fields, "output") {
                    let i = idx_of(outputs, name);
                    let info = &mut outputs[i].1;
                    info.total_us += node.dur_us;
                    aggregate(node, info, 0);
                    for (iname, ifields) in &node.instants {
                        if *iname == "output_verdict" {
                            if let Some(ok) = field_bool(ifields, "ok") {
                                info.verdict = Some(ok);
                            }
                        }
                    }
                }
            }
            _ => {
                // Session-level wrapper (e.g. a future "query" span): its
                // children may be output spans.
                for c in &node.children {
                    visit_top_inner(outputs, c, &mut idx_of);
                }
            }
        }
    };

    fn visit_top_inner(
        outputs: &mut Outputs,
        node: &Node,
        idx_of: &mut dyn FnMut(&mut Outputs, &str) -> usize,
    ) {
        if let ("output" | "task", Some(name)) = (node.name, field_str(&node.fields, "output")) {
            let i = idx_of(outputs, name);
            let info = &mut outputs[i].1;
            info.total_us += node.dur_us;
            aggregate(node, info, 0);
        } else {
            for c in &node.children {
                visit_top_inner(outputs, c, idx_of);
            }
        }
    }

    for node in &roots {
        visit_top(&mut outputs, node);
    }
    for (name, fields) in roots
        .iter()
        .flat_map(|n| n.instants.iter())
        .chain(loose.iter())
    {
        match *name {
            "output_clean" => {
                if let Some(out) = field_str(fields, "output") {
                    let i = idx_of(&mut outputs, out);
                    outputs[i].1.clean = true;
                }
            }
            "output_verdict" => {
                if let Some(out) = field_str(fields, "output") {
                    let i = idx_of(&mut outputs, out);
                    if let Some(ok) = field_bool(fields, "ok") {
                        outputs[i].1.verdict = Some(ok);
                    }
                }
            }
            _ => {}
        }
    }

    outputs.sort_by_key(|(_, info)| info.order);

    let mut out = String::new();
    let _ = writeln!(out, "proof tree ({} trace events)", events.len());
    for (name, info) in &outputs {
        if info.clean {
            let _ = writeln!(
                out,
                "output {name} — discharged by baseline (clean, proof carried over from previous run)"
            );
            continue;
        }
        let verdict = match info.verdict {
            Some(true) | None => "proved equivalent",
            Some(false) => "NOT EQUIVALENT",
        };
        let _ = writeln!(
            out,
            "output {name} — {verdict} in {}",
            fmt_us(info.total_us)
        );
        if info.mechanisms.is_empty() {
            let _ = writeln!(out, "  discharged via: direct proof (no cache assists)");
        } else {
            let mut parts: Vec<String> = info
                .mechanisms
                .iter()
                .map(|(m, n)| format!("{m} ×{n}"))
                .collect();
            parts.sort();
            let _ = writeln!(out, "  discharged via: {}", parts.join(", "));
        }
        if !info.phase_counts.is_empty() {
            let parts: Vec<String> = info
                .phase_counts
                .iter()
                .map(|(p, n, us)| format!("{p} ×{n} ({})", fmt_us(*us)))
                .collect();
            let _ = writeln!(out, "  work: {}", parts.join(" · "));
        }
        const MAX_DEFS: usize = 8;
        for (label, us) in info.definitions.iter().take(MAX_DEFS) {
            let _ = writeln!(out, "  └─ {} ({})", label, fmt_us(*us));
        }
        if info.definitions.len() > MAX_DEFS {
            let _ = writeln!(
                out,
                "  … {} more definition spans elided",
                info.definitions.len() - MAX_DEFS
            );
        }
    }
    if outputs.is_empty() {
        out.push_str("(no output spans recorded — was the checker invoked?)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{b, s, u, Event, Phase};

    fn ev(
        ts: u64,
        worker: u32,
        phase: Phase,
        name: &'static str,
        dur: u64,
        fields: Vec<(&'static str, crate::Value)>,
    ) -> Event {
        Event {
            ts_us: ts,
            worker,
            phase,
            name,
            dur_us: dur,
            fields,
        }
    }

    #[test]
    fn renders_outputs_with_mechanisms_and_clean() {
        let c = Collector::new();
        let evs = vec![
            ev(
                0,
                0,
                Phase::Instant,
                "output_clean",
                0,
                vec![s("output", "B")],
            ),
            ev(1, 0, Phase::Open, "output", 0, vec![s("output", "A")]),
            ev(
                2,
                0,
                Phase::Open,
                "definition",
                0,
                vec![s("array", "A"), s("statement", "s1")],
            ),
            ev(3, 0, Phase::Open, "compose", 0, vec![]),
            ev(4, 0, Phase::Close, "compose", 5, vec![]),
            ev(
                5,
                0,
                Phase::Instant,
                "discharge",
                0,
                vec![s("mechanism", "local_table")],
            ),
            ev(6, 0, Phase::Close, "definition", 20, vec![]),
            ev(
                7,
                0,
                Phase::Instant,
                "output_verdict",
                0,
                vec![s("output", "A"), b("ok", true)],
            ),
            ev(8, 0, Phase::Close, "output", 30, vec![u("n", 1)]),
        ];
        for e in evs {
            c.events.lock().unwrap().push(e);
        }
        let text = render(&c);
        assert!(text.contains("output A — proved equivalent"), "{text}");
        assert!(text.contains("local table ×1"), "{text}");
        assert!(text.contains("compose ×1"), "{text}");
        assert!(text.contains("A := s1"), "{text}");
        assert!(
            text.contains("output B — discharged by baseline (clean"),
            "{text}"
        );
    }
}
