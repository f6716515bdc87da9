//! `perfbench`: the end-to-end benchmark of the placement stack.
//!
//! ```text
//! perfbench --workload serve|sweep|anneal|degraded --seed N --seconds S --trace 0|1
//!           [--size full|tiny] [--corrupt-reference]
//! ```
//!
//! With `--trace 0` the run measures one workload untraced and prints its
//! end-to-end metrics. With `--trace 1` it profiles every layer: each
//! workload's pass is repeated with spans around the calls into each
//! layer's public functions, plus direct timings of those functions on the
//! same inputs; the named workload runs first. Spans are written to
//! `perfbench-traces/` next to the executable.
//!
//! Every run checks its outputs (see each workload module). The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it is the run record (seed,
//! machine fingerprint, named figures with median, quartiles and sample
//! counts, exact counts). A failed check exits with code 1, a usage error
//! with code 2.

mod anneal;
mod cores;
mod degraded;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Config, Outcome};
use trace::Tracer;

/// The workloads, in the order a traced run profiles them.
const WORKLOADS: [&str; 4] = ["serve", "sweep", "anneal", "degraded"];

struct Args {
    workload: String,
    trace: bool,
    config: Config,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut corrupt_reference = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(value()?.parse::<u64>().map_err(|_| "bad --seed")?);
            }
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--size" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, got {other:?}")),
                };
            }
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    // Spans go next to the executable: inside the build directory.
    let trace_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("perfbench-traces")))
        .unwrap_or_else(|| PathBuf::from("perfbench-traces"));
    Ok(Args {
        workload,
        trace,
        config: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            tiny,
            corrupt_reference,
            trace_dir,
        },
    })
}

fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        "serve" => serve::run(cfg),
        "sweep" => sweep::run(cfg),
        "anneal" => anneal::run(cfg),
        "degraded" => degraded::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn profile_workload(name: &str, cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    match name {
        "serve" => serve::profile(cfg, tracer),
        "sweep" => sweep::profile(cfg, tracer),
        "anneal" => anneal::profile(cfg, tracer),
        "degraded" => degraded::profile(cfg, tracer),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The traced run: every workload's layer profile, the named one first,
/// each with an equal share of the time budget.
fn profile_all(first: &str, cfg: &Config) -> Result<Outcome, String> {
    let tracer = Tracer::default();
    let share = Config {
        seconds: cfg.seconds / WORKLOADS.len() as f64,
        ..cfg.clone()
    };
    let mut out = Outcome::default();
    let order = std::iter::once(first).chain(WORKLOADS.iter().copied().filter(|w| *w != first));
    for name in order {
        out.absorb(profile_workload(name, &share, &tracer)?);
    }
    let path = cfg
        .trace_dir
        .join(format!("trace-{first}-seed{}.jsonl", cfg.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(out)
}

/// The machine fingerprint: CPU model and the cores this process may use.
fn fingerprint() -> (String, usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cpu_model(), cores)
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // The brand string lives in extended leaves 0x8000_0002..=0x8000_0004.
    let max_leaf = __cpuid(0x8000_0000).eax;
    if max_leaf < 0x8000_0004 {
        return "x86_64 (no brand string)".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}

/// A JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become
/// `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn print_outcome(args: &Args, out: &Outcome) {
    let cfg = &args.config;
    let (cpu, cores) = fingerprint();
    for metric in &out.metrics {
        println!(
            "{:<44} {:>16} {}",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    for figure in &out.figures {
        let s = figure.summary;
        println!(
            "  {:<42} median {} {} (q1 {}, q3 {}, n={})",
            figure.name,
            json_number(s.median),
            figure.unit,
            json_number(s.q1),
            json_number(s.q3),
            s.samples
        );
    }
    for error in &out.errors {
        println!("CHECK FAILED: {error}");
    }
    let figures: Vec<String> = out
        .figures
        .iter()
        .map(|f| {
            format!(
                "{}:{{\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"samples\":{}}}",
                json_string(&f.name),
                json_string(f.unit),
                json_number(f.summary.median),
                json_number(f.summary.q1),
                json_number(f.summary.q3),
                f.summary.samples
            )
        })
        .collect();
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(name, value)| format!("{}:{value}", json_string(name)))
        .collect();
    println!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"size\":{},\
         \"machine\":{{\"cpu\":{},\"cores\":{cores}}},\"figures\":{{{}}},\"counts\":{{{}}},\
         \"checks_failed\":{}}}}}",
        json_string(&args.workload),
        cfg.seed,
        json_number(cfg.seconds),
        args.trace,
        json_string(if cfg.tiny { "tiny" } else { "full" }),
        json_string(&cpu),
        figures.join(","),
        counts.join(","),
        out.errors.len()
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload serve|sweep|anneal|degraded --seed N \
                 --seconds S --trace 0|1 [--size full|tiny] [--corrupt-reference]"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        profile_all(&args.workload, &args.config)
    } else {
        run_workload(&args.workload, &args.config)
    };
    match result {
        Ok(out) => {
            print_outcome(&args, &out);
            if out.errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {} check(s) failed", out.errors.len());
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(1)
        }
    }
}
