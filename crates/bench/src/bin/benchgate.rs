//! `benchgate` — the runner of the workload table and the CI
//! bench-regression gate.
//!
//! ```text
//! benchgate [--min-ratio R] BENCH_pipeline.json BENCH_optim.json ...
//! ```
//!
//! Parses every named baseline file first, and exits 1 before anything is
//! timed when a file is unreadable or unparsable, names a benchmark no row
//! of `emb_bench::workloads` measures, or lacks a positive number under a
//! gated row's `summary` key. Then times every row of those files with
//! plain wall-clock timing (the fastest of three calls, so one scheduler
//! hiccup cannot fail the gate), prints one table, and exits 2 when a gated
//! row measures below `min_ratio` × its baseline (default 0.7, i.e. a >30%
//! regression). The gate exists to catch collapses, not single-digit drift.

use std::process::ExitCode;
use std::time::Instant;

use emb_bench::gate::{check, parse_json};
use emb_bench::workloads::{rows_of, Body};
use gridviz::Table;

/// Calls per row; the fastest is the least-noise throughput estimate.
const REPETITIONS: usize = 3;

/// The fastest wall-clock seconds of `REPETITIONS` calls of `body`.
fn best_seconds(mut body: Body) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPETITIONS {
        let start = Instant::now();
        body();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut min_ratio = 0.7f64;
    if let Some(index) = args.iter().position(|a| a == "--min-ratio") {
        if index + 1 >= args.len() {
            eprintln!("benchgate: --min-ratio needs a value");
            return ExitCode::from(1);
        }
        let value = args.remove(index + 1);
        args.remove(index);
        min_ratio = match value.parse() {
            Ok(ratio) => ratio,
            Err(_) => {
                eprintln!("benchgate: --min-ratio must be a number, got {value:?}");
                return ExitCode::from(1);
            }
        };
    }
    if args.is_empty() {
        eprintln!("usage: benchgate [--min-ratio R] <BENCH_*.json>...");
        return ExitCode::from(1);
    }

    let mut rows = Vec::new();
    for path in &args {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("benchgate: cannot read {path}: {error}");
                return ExitCode::from(1);
            }
        };
        match parse_json(&text).and_then(|json| rows_of(&json)) {
            Ok(found) => rows.extend(found),
            Err(error) => {
                eprintln!("benchgate: {path}: {error}");
                return ExitCode::from(1);
            }
        }
    }

    let mut table = Table::new(vec![
        "benchmark",
        "group",
        "unit",
        "measured",
        "gate",
        "baseline",
        "ratio",
        "verdict",
    ]);
    let (mut gated, mut failures) = (0usize, 0usize);
    for (row, baseline) in rows {
        let body = match (row.setup)() {
            Ok(body) => body,
            Err(error) => {
                eprintln!("benchgate: {}/{}: {error}", row.benchmark, row.group);
                return ExitCode::from(1);
            }
        };
        let measured = row.rate(best_seconds(body));
        let mut cells = vec![
            row.benchmark.to_string(),
            row.group.to_string(),
            row.unit.to_string(),
            format!("{measured:.1}"),
        ];
        match baseline {
            None => cells.extend(["-", "-", "-", "-"].map(String::from)),
            Some(baseline) => {
                let c = check(baseline, measured, min_ratio);
                gated += 1;
                failures += usize::from(!c.pass);
                cells.extend([
                    c.baseline.metric,
                    format!("{:.1}", c.baseline.throughput),
                    format!("{:.2}", c.ratio),
                    if c.pass { "ok" } else { "REGRESSION" }.to_string(),
                ]);
            }
        }
        table.push_row(cells);
    }
    print!("{table}");
    if failures > 0 {
        eprintln!(
            "benchgate: {failures} of {gated} gated row(s) fell below {:.0}% of baseline",
            min_ratio * 100.0
        );
        return ExitCode::from(2);
    }
    eprintln!(
        "benchgate: all {gated} gated row(s) within {:.0}% of baseline",
        min_ratio * 100.0
    );
    ExitCode::SUCCESS
}
