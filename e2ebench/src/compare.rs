//! `uno-e2e compare A.json B.json`: judge every workload × end-to-end
//! metric of run B against run A under the bounds in `BENCHMARK.json`.

use std::path::Path;

use serde::Value;

use crate::stats::{judge, Bound, Reading, Verdict};

/// Absolute allowance for `setup_s`, in seconds: the incast workloads set
/// up in milliseconds, where a relative bound alone would judge noise.
const SETUP_ABS_FLOOR_S: f64 = 0.02;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("invalid {}: {e}", path.display()))
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(bench: &Value) -> Result<Vec<(String, Bound)>, String> {
    let metrics = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            let name = field("name")?
                .as_str()
                .ok_or("metric name is not a string")?;
            let rel = field("bound")?.as_f64().ok_or("bound is not a number")?;
            let higher_is_better = field("better")?.as_str() == Some("higher");
            let abs_floor = if name == "setup_s" {
                SETUP_ABS_FLOOR_S
            } else {
                0.0
            };
            Ok((
                name.to_string(),
                Bound {
                    rel,
                    abs_floor,
                    higher_is_better,
                },
            ))
        })
        .collect()
}

/// A metric's reported value and spread, with its quartiles for display.
fn reading(metric: &Value) -> Option<(Reading, f64, f64)> {
    let f = |k: &str| metric.get(k).and_then(Value::as_f64);
    let (q1, q3) = (f("q1")?, f("q3")?);
    Some((
        Reading {
            value: f("value")?,
            iqr: q3 - q1,
        },
        q1,
        q3,
    ))
}

pub fn run(a_path: &Path, b_path: &Path, bench_path: &Path) -> i32 {
    match compare(a_path, b_path, bench_path) {
        Ok(outside) => i32::from(outside > 0),
        Err(e) => {
            eprintln!("uno-e2e compare: {e}");
            2
        }
    }
}

/// Print the comparison table; returns how many rows fell outside.
fn compare(a_path: &Path, b_path: &Path, bench_path: &Path) -> Result<usize, String> {
    let bounds = bounds(&load(bench_path)?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |v: &Value| -> Result<Vec<(String, Value)>, String> {
        Ok(v.get("workloads")
            .and_then(Value::as_object)
            .ok_or("report has no workloads")?
            .to_vec())
    };
    let b_workloads = workloads(&b)?;
    println!(
        "{:<17} {:<13} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "A value [q1, q3]", "B value [q1, q3]", "change"
    );
    let mut outside = 0;
    for (name, wa) in workloads(&a)? {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            println!("{name:<17} missing from B");
            outside += 1;
            continue;
        };
        for (metric, bound) in &bounds {
            let get = |w: &Value| {
                w.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(reading)
            };
            let (Some(a), Some(b)) = (get(&wa), get(wb)) else {
                println!("{name:<17} {metric:<13} missing");
                outside += 1;
                continue;
            };
            let verdict = judge(a.0, b.0, *bound);
            outside += usize::from(verdict == Verdict::Outside);
            let fmt =
                |(r, q1, q3): (Reading, f64, f64)| format!("{:.4} [{q1:.4}, {q3:.4}]", r.value);
            println!(
                "{name:<17} {metric:<13} {:>28} {:>28} {:>+7.1}%  {}",
                fmt(a),
                fmt(b),
                (b.0.value / a.0.value - 1.0) * 100.0,
                verdict.label()
            );
        }
        // fail_rate has an absolute bound of 0: it may not rise at all.
        let rate = |w: &Value| w.get("fail_rate").and_then(Value::as_f64).unwrap_or(1.0);
        let (ra, rb) = (rate(&wa), rate(wb));
        let verdict = if rb <= ra {
            Verdict::Within
        } else {
            Verdict::Outside
        };
        outside += usize::from(verdict == Verdict::Outside);
        println!(
            "{name:<17} {:<13} {ra:>28.4} {rb:>28.4} {:>8}  {}",
            "fail_rate",
            "",
            verdict.label()
        );
    }
    Ok(outside)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_come_from_benchmark_json_with_the_setup_floor() {
        let bench = load(Path::new(crate::DEFAULT_BENCH_JSON)).unwrap();
        let bounds = bounds(&bench).unwrap();
        let names: Vec<&str> = bounds.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["wall_s", "setup_s", "peak_rss_mib"]);
        for (name, b) in &bounds {
            assert!(b.rel > 0.0 && b.rel <= 0.25 && !b.higher_is_better);
            let floor = if name == "setup_s" {
                SETUP_ABS_FLOOR_S
            } else {
                0.0
            };
            assert_eq!(b.abs_floor, floor);
        }
    }
}
