//! Smoke self-test: a tiny run of every workload, untraced and traced,
//! passes its correctness gate and prints every metric `BENCHMARK.json`
//! names, with its unit; and `layer_map.json` maps exactly the per-layer
//! metrics `BENCHMARK.json` lists.

use serde::value::Value;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["cold_topk", "warm_sweep", "serve_mixed"];

fn load(rel: &str) -> Value {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::value_from_str(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn metrics(bench: &Value, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let field = |k| text(m.get(k).expect("metric field")).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_everest-e2e-bench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    stdout
}

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    let bench = load("../BENCHMARK.json");
    let names: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| text(w.get("name").expect("workload name")).to_string())
        .collect();
    assert_eq!(names, WORKLOADS);
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let stdout = run(workload, trace);
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::value_from_str(last).expect("result line is JSON");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{last}");
            let printed = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let wanted = metrics(&bench, section);
            assert_eq!(printed.len(), wanted.len(), "{workload}: {last}");
            for (name, unit) in wanted {
                let m = result
                    .get("metrics")
                    .and_then(|m| m.get(&name))
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: no {name} in {last}"));
                assert_eq!(
                    text(m.get("unit").expect("unit")),
                    unit,
                    "{workload} {name}"
                );
                assert!(
                    matches!(m.get("value"), Some(Value::Float(_) | Value::Int(_))),
                    "{workload} {name}: {m:?}"
                );
            }
            // The report lines above carry every end-to-end metric with its
            // unit and sample count, failures included.
            for name in [
                "query_ms.p50",
                "query_ms.tail",
                "degraded_frac",
                "failed_frac",
            ] {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{workload} {name} = "))),
                    "{workload}: no report line for {name}"
                );
            }
        }
    }
}

#[test]
fn layer_map_covers_exactly_the_per_layer_metrics() {
    let bench = load("../BENCHMARK.json");
    let map = load("layer_map.json");
    let e2e: Vec<String> = metrics(&bench, "end_to_end")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let mapped: Vec<String> = map
        .get("per_layer")
        .and_then(Value::as_array)
        .expect("per_layer")
        .iter()
        .map(|row| {
            let metric = text(row.get("metric").expect("metric")).to_string();
            let moves = row.get("moves").and_then(Value::as_array).expect("moves");
            for moved in moves {
                let moved = text(moved);
                assert!(
                    e2e.iter().any(|n| n == moved)
                        || ["degraded_frac", "failed_frac"].contains(&moved),
                    "layer_map moves unknown metric {moved}"
                );
            }
            // A layer that moves anything moves at least one bounded metric.
            assert!(
                moves.is_empty() || moves.iter().any(|m| e2e.iter().any(|n| n == text(m))),
                "{metric} moves only unbounded metrics"
            );
            metric
        })
        .collect();
    let listed: Vec<String> = metrics(&bench, "per_layer")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(mapped, listed);
}
