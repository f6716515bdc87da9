//! The benchmark's own checks, on tiny inputs: exact counts repeat for a
//! seed, every metric `BENCHMARK.json` names is printed, and a deliberately
//! wrong reference makes the command fail.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["serve", "sweep", "anneal", "degraded"];

fn perfbench(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .args(extra)
        .output()
        .expect("perfbench runs")
}

fn stdout_lines(output: &Output) -> Vec<String> {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(str::to_string)
        .collect()
}

/// The text of the JSON object that follows `"key":` in `line`, matched by
/// braces (the benchmark's own output has no braces inside strings).
fn object_after<'a>(line: &'a str, key: &str) -> &'a str {
    let start = line
        .find(&format!("\"{key}\":{{"))
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + key.len()
        + 4;
    let mut depth = 0;
    for (offset, c) in line[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 0 => return &line[start..start + offset],
            '}' => depth -= 1,
            _ => {}
        }
    }
    panic!("unbalanced {key} in {line}")
}

/// The top-level keys of a flat-or-nested JSON object body.
fn keys(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0;
    let mut rest = body;
    while let Some(quote) = rest.find(['"', '{', '}']) {
        let c = rest.as_bytes()[quote];
        rest = &rest[quote + 1..];
        match c {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            _ => {
                let end = rest.find('"').expect("closing quote");
                let text = &rest[..end];
                rest = &rest[end + 1..];
                if depth == 0 && rest.starts_with(':') {
                    out.push(text.to_string());
                }
            }
        }
    }
    out
}

/// Exact counts of a run: the record's `counts`, plus every result-line
/// metric in unit `count`.
fn counts(output: &Output) -> BTreeMap<String, String> {
    let lines = stdout_lines(output);
    let record = lines
        .iter()
        .find(|l| l.starts_with("{\"record\""))
        .expect("a record line");
    let mut out = BTreeMap::new();
    for pair in object_after(record, "counts").split(',') {
        if let Some((name, value)) = pair.split_once(':') {
            out.insert(name.to_string(), value.to_string());
        }
    }
    let result = lines.last().expect("a result line");
    let metrics = object_after(result, "metrics");
    for name in keys(metrics) {
        let metric = object_after(metrics, &name);
        if metric.ends_with("\"unit\":\"count\"") {
            out.insert(name, metric.to_string());
        }
    }
    out
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| {
            let value = entry.split('"').nth(1).expect("a quoted name");
            value.to_string()
        })
        .collect()
}

#[test]
fn tiny_runs_repeat_their_exact_counts() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let first = perfbench(workload, 3, trace, &[]);
            let second = perfbench(workload, 3, trace, &[]);
            assert!(first.status.success(), "{workload}: {first:?}");
            assert!(second.status.success(), "{workload}: {second:?}");
            let (a, b) = (counts(&first), counts(&second));
            assert!(
                !a.is_empty(),
                "{workload} (trace {trace}) reports no counts"
            );
            assert_eq!(
                a, b,
                "{workload} (trace {trace}) counts differ between runs"
            );
        }
    }
}

#[test]
fn every_declared_metric_is_printed() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|m| m == "setup_s"));
    for workload in WORKLOADS {
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let output = perfbench(workload, 5, trace, &[]);
            assert!(output.status.success(), "{workload}: {output:?}");
            let lines = stdout_lines(&output);
            let result = lines.last().expect("a result line");
            for key in ["\"correct\":true", "\"attempted\":", "\"failed\":0"] {
                assert!(
                    result.contains(key),
                    "{workload}: {key} missing in {result}"
                );
            }
            let printed = keys(object_after(result, "metrics"));
            for name in names.iter() {
                assert!(
                    printed.contains(name),
                    "{workload} (trace {trace}) does not print {name}"
                );
            }
            assert_eq!(
                printed.len(),
                names.len(),
                "{workload} (trace {trace}) prints metrics BENCHMARK.json does not declare: {printed:?}"
            );
        }
    }
}

#[test]
fn a_wrong_reference_fails_the_run() {
    for workload in WORKLOADS {
        let output = perfbench(workload, 7, false, &["--corrupt-reference"]);
        assert_eq!(output.status.code(), Some(1), "{workload}: {output:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("CHECK FAILED"), "{workload}: {stdout}");
        assert!(stdout.contains("\"correct\":false"), "{workload}: {stdout}");
    }
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "sweep", "--seconds", "1", "--trace", "0"][..],
        &[
            "--workload",
            "sweep",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("perfbench runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
