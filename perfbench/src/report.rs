//! What a workload run hands back to `main`: counts of attempted and
//! failed operations, correctness failures, the metrics the result line
//! carries, and the named figures and exact counts the run record carries.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::Summary;

/// How a run was asked to behave.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget for the run, in seconds.
    pub seconds: f64,
    /// Small inputs, for the benchmark's own tests.
    pub tiny: bool,
    /// Perturb each reference the checks compare against, so a run must
    /// fail: proves that the checks can fail.
    pub corrupt_reference: bool,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
}

/// One number of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A named figure of the run record: a summary over its samples.
#[derive(Clone, Debug)]
pub struct Figure {
    /// The figure's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Median, quartiles and sample count.
    pub summary: Summary,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (see the workload's failure accounting).
    pub failed: u64,
    /// Correctness-check failures; any entry makes the run fail.
    pub errors: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Named figures for the run record.
    pub figures: Vec<Figure>,
    /// Counts that repeat exactly for a seed (for the benchmark's tests).
    pub counts: BTreeMap<String, u64>,
}

impl Outcome {
    /// Adds a result-line metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a record figure summarizing `samples`.
    pub fn figure(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.figures.push(Figure {
            name: name.to_string(),
            unit,
            summary: Summary::of(samples),
        });
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(message());
        }
    }

    /// Adds an exact count.
    pub fn count(&mut self, name: &str, value: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += value;
    }

    /// Appends another outcome's counters, metrics, figures and counts.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.metrics.extend(other.metrics);
        self.figures.extend(other.figures);
        for (name, value) in other.counts {
            self.count(&name, value);
        }
    }
}

/// A workload's set-up, timed in batches spread over the whole run: one
/// before the first measured operation (whose result the run uses) and
/// one between later passes or steps (whose results are dropped).
/// `setup_s` is the median over every batch. On a shared machine the speed
/// drifts over tens of seconds; sampling set-up only at the start would
/// tie `setup_s` to whatever the machine was doing in that first instant.
pub struct SetupTimer {
    times: Vec<f64>,
    tiny: bool,
}

impl SetupTimer {
    /// A timer with no samples yet.
    pub fn new(cfg: &Config) -> SetupTimer {
        SetupTimer {
            times: Vec::new(),
            tiny: cfg.tiny,
        }
    }

    /// Runs `build` at least `min_runs` times and until 20 ms have passed
    /// (at most 100 times; once for tiny runs), timing each, and returns
    /// the last result.
    pub fn batch<T>(&mut self, min_runs: usize, mut build: impl FnMut() -> T) -> T {
        let started = Instant::now();
        let mut runs = 0;
        loop {
            let start = Instant::now();
            let value = build();
            self.times.push(start.elapsed().as_secs_f64());
            runs += 1;
            let enough = runs >= min_runs && started.elapsed().as_secs_f64() >= 0.02;
            if self.tiny || enough || runs >= 100 {
                return value;
            }
        }
    }

    /// Every set-up time sampled so far, in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// The end-to-end metrics of a workload measured in passes (sweep, anneal,
/// degraded): `setup_s` is the median set-up; `throughput_per_s` and
/// `latency_us` come from the fastest pass. Interference from other tenants
/// of a shared machine only ever slows a pass down, and it comes in spells
/// longer than a pass, so the fastest pass is the steadiest estimate of the
/// program's own speed (over eight 25-s `anneal` runs on a 2-core VM, the
/// interquartile spread was 0.05 for the fastest pass and 0.17 for the
/// median one). The record keeps the median and quartiles of every pass.
pub fn report_passes(out: &mut Outcome, setup_s: &[f64], rates: &[f64], pass_s: &[f64]) {
    let fastest_rate = rates.iter().copied().fold(f64::NAN, f64::max);
    let fastest_pass = pass_s.iter().copied().fold(f64::NAN, f64::min);
    out.metric("setup_s", crate::stats::median(setup_s), "s");
    out.metric("throughput_per_s", fastest_rate, "1/s");
    out.metric("latency_us", fastest_pass * 1e6, "us");
    out.figure("setup_s", "s", setup_s);
    out.figure("pass_s", "s", pass_s);
    out.figure("pass_rate_per_s", "1/s", rates);
}
