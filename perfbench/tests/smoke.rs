//! Runs every workload at `--scale smoke` and checks the result line
//! against `BENCHMARK.json`: each declared metric printed with its
//! unit, every output correct, and (in the traced run) every span
//! inside its parent, which the benchmark counts as a check.

use std::process::Command;

const WORKLOADS: &[&str] = &["read-large", "write-heavy", "serve", "durable-ingest"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("name closes");
            let unit = rest
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--scale",
            "smoke",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_reports_every_metric_correctly() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for workload in WORKLOADS {
            let result = run(workload, trace);
            assert!(
                result.starts_with("{\"correct\": true,"),
                "{workload} trace {trace}: {result}"
            );
            assert!(
                result.contains("\"failed\": 0,"),
                "{workload} trace {trace}: {result}"
            );
            for (name, unit) in &metrics {
                let value = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&value)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                let rest = &result[at + value.len()..];
                assert!(
                    rest.contains(&format!(", \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} unit"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "serve"],
        &["--seed", "1", "stray"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
