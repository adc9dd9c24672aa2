//! Smoke tests: drive the built binary the way the driver does, with a
//! 1 s timed phase, and check the shape of what it prints.

use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 5] = [
    "task_storm",
    "bulk_local",
    "bulk_remote",
    "durable_stage_out",
    "workflow_chain",
];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_norns-benchmark"))
        .args(args)
        .output()
        .expect("run norns-benchmark")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// `(name, value, unit)` of every `"name": {"value": v, "unit": "u"}`
/// in a result line.
fn metrics_of(line: &str) -> Vec<(String, f64, String)> {
    let body = line.split("\"metrics\": {").nth(1).expect("metrics object");
    body.split("\"}")
        .filter_map(|entry| {
            let (name, rest) = entry.split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            let name = name.rsplit('"').next()?;
            Some((name.to_string(), value.parse().ok()?, unit.to_string()))
        })
        .collect()
}

fn field(line: &str, key: &str) -> String {
    let rest = line
        .split(&format!("\"{key}\": "))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    rest.split([',', '}']).next().unwrap().to_string()
}

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// `(name, unit)` of the entries under one top-level key of
/// `BENCHMARK.json`, sorted (workloads have no unit).
fn entries_under(key: &str) -> Vec<(String, String)> {
    let manifest = benchmark_json();
    let section = manifest
        .split(&format!("\"{key}\": ["))
        .nth(1)
        .expect("section present")
        .split(']')
        .next()
        .unwrap();
    let quoted = |entry: &str, field: &str| {
        entry
            .split(&format!("\"{field}\": \""))
            .nth(1)
            .map_or(String::new(), |rest| {
                rest.split('"').next().unwrap().to_string()
            })
    };
    let mut entries: Vec<_> = section
        .split('{')
        .skip(1)
        .map(|entry| (quoted(entry, "name"), quoted(entry, "unit")))
        .collect();
    entries.sort();
    entries
}

/// What a result line's metrics must be for `key`'s entries: the same
/// names with the same units.
fn emitted(line: &str) -> Vec<(String, String)> {
    let mut entries: Vec<_> = metrics_of(line)
        .into_iter()
        .map(|(name, _, unit)| (name, unit))
        .collect();
    entries.sort();
    entries
}

#[test]
fn benchmark_json_names_the_five_workloads() {
    let names: Vec<String> = entries_under("workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let mut expected = WORKLOADS.to_vec();
    expected.sort_unstable();
    assert_eq!(names, expected);
}

#[test]
fn every_workload_emits_the_end_to_end_metrics() {
    for workload in WORKLOADS {
        let output = run(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        let line = last_line(&output);
        assert!(output.status.success(), "{workload} failed: {line}");
        assert_eq!(field(&line, "correct"), "true", "{line}");
        assert_eq!(field(&line, "failed"), "0", "{line}");
        assert!(
            field(&line, "attempted").parse::<u64>().unwrap() > 0,
            "{line}"
        );
        assert_eq!(emitted(&line), entries_under("end_to_end"), "{workload}");
        assert_eq!(emitted(&line).len(), 2, "{line}");
        assert!(
            metrics_of(&line).iter().all(|(_, value, _)| *value > 0.0),
            "{line}"
        );
    }
}

#[test]
fn a_flipped_output_byte_is_a_failed_op() {
    for workload in WORKLOADS {
        let output = run(&["--workload", workload, "--seconds", "1", "--flip-byte"]);
        let line = last_line(&output);
        assert!(
            !output.status.success(),
            "{workload} must exit non-zero: {line}"
        );
        assert_eq!(field(&line, "correct"), "false", "{line}");
        // Copies write a fresh output every op, so exactly the flipped
        // one fails; the storm keeps moving the one corrupted file, so
        // every later comparison of it fails too.
        let failed: u64 = field(&line, "failed").parse().unwrap();
        if workload == "task_storm" {
            assert!(failed >= 1, "{line}");
        } else {
            assert_eq!(failed, 1, "{line}");
        }
    }
}

#[test]
fn a_traced_run_emits_every_per_layer_metric() {
    let per_layer = entries_under("per_layer");
    assert!(per_layer.len() > 50, "per_layer section parsed");
    for workload in WORKLOADS {
        let output = run(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
        ]);
        let line = last_line(&output);
        assert!(output.status.success(), "{workload} failed: {line}");
        assert_eq!(field(&line, "failed"), "0", "{line}");
        assert_eq!(emitted(&line), per_layer, "{workload}");
        // Every layer is measured in every traced run: a time, a rate
        // or a ratio that reads exactly 0 is a placeholder.
        for (name, value, unit) in metrics_of(&line) {
            if !matches!(unit.as_str(), "count" | "B" | "%") {
                assert!(value != 0.0, "{workload}: {name} is {value} {unit}");
            }
        }
        let trace =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}.json"));
        assert!(trace.exists(), "{} missing", trace.display());
    }
}

#[test]
fn bad_arguments_are_refused() {
    assert!(!run(&["--workload", "nope"]).status.success());
    assert!(!run(&[]).status.success());
    assert!(!run(&["--workload", "bulk_local", "--trace", "2"])
        .status
        .success());
}
