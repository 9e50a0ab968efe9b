//! Compare mode: two files of result records (the JSON line the benchmark
//! prints before its result line; other lines are skipped, so appending the
//! benchmark's stdout makes such a file), one row per workload × end-to-end
//! metric.

use crate::run::RunError;
use crate::stats::quartiles;
use arrayeq_engine::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

/// A JSON number as `f64`.
fn number(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Int(i) => Some(*i as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

/// An end-to-end metric declared in `BENCHMARK.json`.
struct Declared {
    name: String,
    better: String,
    bound: f64,
}

fn declared(benchmark: &Path) -> Result<Vec<Declared>, RunError> {
    let doc = JsonValue::parse(&std::fs::read_to_string(benchmark)?)?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(list
        .iter()
        .map(|m| Declared {
            name: m
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            better: m
                .get("better")
                .and_then(JsonValue::as_str)
                .unwrap_or("lower")
                .to_string(),
            bound: m.get("bound").and_then(number).unwrap_or(0.0),
        })
        .collect())
}

/// workload → metric → values, from the untraced records of one file.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn values(path: &Path) -> Result<Values, RunError> {
    let mut out = Values::new();
    for line in std::fs::read_to_string(path)?.lines() {
        let Ok(doc) = JsonValue::parse(line) else {
            continue;
        };
        let (Some(workload), Some(metrics)) = (
            doc.get("workload").and_then(JsonValue::as_str),
            doc.get("metrics"),
        ) else {
            continue;
        };
        if doc.get("trace").and_then(JsonValue::as_bool) == Some(true) {
            continue;
        }
        let JsonValue::Object(entries) = metrics else {
            continue;
        };
        for (name, m) in entries {
            if let Some(v) = m.get("value").and_then(number) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Spread of `v`: distance between its quartiles over its median.
fn spread(q: [f64; 3]) -> f64 {
    if q[1] == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / q[1].abs()
    }
}

/// The comparison table of `before` against `after` under the bounds of
/// `benchmark`.  A row is `WORSE` when the median moved in the bad direction
/// by more than the bound, and `unresolved` when either side's spread is
/// wider than the bound.
pub fn compare(before: &Path, after: &Path, benchmark: &Path) -> Result<String, RunError> {
    let metrics = declared(benchmark)?;
    let (a, b) = (values(before)?, values(after)?);
    let mut out = format!(
        "{:<8} {:<16} {:>6} {:>12} {:>26} {:>12} {:>26} {:>8} {}\n",
        "workload",
        "metric",
        "bound",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "change",
        "flag"
    );
    let workloads: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for w in workloads {
        for m in &metrics {
            let get = |v: &Values| {
                v.get(w)
                    .and_then(|x| x.get(&m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (get(&a), get(&b));
            if va.is_empty() || vb.is_empty() {
                out.push_str(&format!("{w:<8} {:<16} missing on one side\n", m.name));
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let change = if qa[1] == 0.0 {
                0.0
            } else {
                (qb[1] - qa[1]) / qa[1].abs()
            };
            let worse = if m.better == "higher" {
                -change
            } else {
                change
            };
            let flag = if worse > m.bound {
                "WORSE"
            } else if spread(qa) > m.bound || spread(qb) > m.bound {
                "unresolved"
            } else {
                "ok"
            };
            let fmt_q = |q: [f64; 3]| format!("[{:.4}, {:.4}, {:.4}]", q[0], q[1], q[2]);
            out.push_str(&format!(
                "{w:<8} {:<16} {:>6} {:>12.4} {:>26} {:>12.4} {:>26} {:>+7.1}% {flag}\n",
                m.name,
                m.bound,
                qa[1],
                fmt_q(qa),
                qb[1],
                fmt_q(qb),
                change * 100.0
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_regressions_and_wide_spreads() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("BENCHMARK.json");
        std::fs::write(
            &bench,
            r#"{"end_to_end":[{"name":"verdict_ms.p50","unit":"ms","better":"lower","bound":0.1},
                {"name":"verdicts_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let rec = |w: &str, p50: f64, rate: f64| {
            format!(
                "{{\"workload\":\"{w}\",\"trace\":false,\"metrics\":{{\"verdict_ms.p50\":{{\"value\":{p50},\"unit\":\"ms\"}},\"verdicts_per_s\":{{\"value\":{rate},\"unit\":\"1/s\"}}}}}}\n"
            )
        };
        let a: String = [10.0, 10.1, 9.9, 10.0]
            .iter()
            .map(|v| rec("deep", *v, 5.0))
            .collect();
        let b: String = [12.0, 12.1, 11.9, 12.0]
            .iter()
            .zip([5.0, 1.0, 9.0, 5.0])
            .map(|(v, r)| rec("deep", *v, r))
            .collect();
        std::fs::write(dir.join("a.jsonl"), a).unwrap();
        std::fs::write(dir.join("b.jsonl"), format!("noise line\n{b}")).unwrap();
        let table = compare(&dir.join("a.jsonl"), &dir.join("b.jsonl"), &bench).unwrap();
        let row = |m: &str| table.lines().find(|l| l.contains(m)).unwrap().to_string();
        assert!(row("verdict_ms.p50").ends_with("WORSE"), "{table}");
        assert!(row("verdicts_per_s").ends_with("unresolved"), "{table}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
