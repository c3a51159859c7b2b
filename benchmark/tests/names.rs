//! Name drift: the root `BENCHMARK.json` and the table the harness emits
//! from (`src/bin/polybench/spec.rs`) must say the same thing, and a run must emit
//! every name of that table.

// The harness is a binary; its table is compiled into this test as is.
#[allow(dead_code)]
#[path = "../src/bin/polybench/spec.rs"]
mod spec;

use serde_json::Value;
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry[key]
        .as_str()
        .unwrap_or_else(|| panic!("{key} is a string"))
}

#[test]
fn benchmark_json_is_the_harness_table() {
    let json = benchmark_json();

    let workloads = json["workloads"].as_array().expect("workloads is a list");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, workload) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(entry, "name"), workload.name);
        assert_eq!(text(entry, "why"), workload.why);
        assert!(
            workload.why.len() <= 200,
            "{}: why is one short line",
            workload.name
        );
    }

    let end_to_end = json["end_to_end"].as_array().expect("end_to_end is a list");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(text(entry, "better"), metric.better, "{}", metric.name);
        assert_eq!(
            entry["bound"].as_f64(),
            Some(metric.bound),
            "{}",
            metric.name
        );
        assert!(metric.bound <= 0.25);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));

    let per_layer = json["per_layer"].as_array().expect("per_layer is a list");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(PER_LAYER.len() <= 128);
    for (entry, metric) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(entry, "name"), metric.name);
        assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(text(entry, "better"), metric.better, "{}", metric.name);
    }

    let paths: Vec<&str> = json["paths"]
        .as_array()
        .expect("paths is a list")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = json["command"]
        .as_array()
        .expect("command is a list")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml"));
}

/// A `--quick` run (a tenth of every size; for this test only, never for
/// reported numbers) of every workload, untraced and traced, emits
/// exactly the table's names and checks out as correct.
#[test]
fn quick_runs_emit_every_metric() {
    for workload in &WORKLOADS {
        for (trace, expected) in [
            (
                "0",
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
            (
                "1",
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
        ] {
            let output = Command::new(env!("CARGO_BIN_EXE_polybench"))
                .args([
                    "--workload",
                    workload.name,
                    "--quick",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("run polybench");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{} trace {trace} failed:\n{stdout}\n{}",
                workload.name,
                String::from_utf8_lossy(&output.stderr)
            );
            let line = stdout.lines().last().expect("a result line");
            let result = serde_json::parse_value(line).expect("the last line is JSON");
            assert_eq!(result["correct"].as_bool(), Some(true), "{line}");
            assert_eq!(result["failed"].as_u64(), Some(0), "{line}");
            assert!(
                result["attempted"].as_u64().is_some_and(|n| n >= 1),
                "{line}"
            );
            let metrics = result["metrics"].as_object().expect("metrics is an object");
            assert_eq!(
                metrics.len(),
                expected.len(),
                "{} trace {trace}",
                workload.name
            );
            for (name, unit) in expected {
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{} trace {trace}: {name} missing", workload.name));
                assert_eq!(metric["unit"].as_str(), Some(unit), "{name}");
                assert!(
                    metric["value"].as_f64().is_some_and(f64::is_finite),
                    "{name}"
                );
                // The human-readable line for the same metric.
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{name} ")) && l.ends_with(unit)),
                    "{name} has no `name value unit` line"
                );
            }
        }
    }
}
