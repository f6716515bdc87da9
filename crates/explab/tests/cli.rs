//! Exit-code and error-message tests of the `lab` CLI.
//!
//! Every failure mode must print a `Display`-rendered message to stderr and
//! exit non-zero — never panic. Exit codes follow the contract documented in
//! `src/bin/lab.rs`: `1` for usage/plan/IO errors, `2` for failed checks.

use std::path::PathBuf;
use std::process::{Command, Output};

fn lab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lab"))
        .args(args)
        .output()
        .expect("spawn lab")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A throwaway file path in the target temp dir.
fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lab-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp plan");
    path
}

#[test]
fn no_subcommand_is_a_usage_error() {
    let out = lab(&[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("usage"));
}

#[test]
fn unknown_subcommand_and_stray_arguments_exit_one() {
    let out = lab(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("unknown subcommand"));

    let out = lab(&["plans", "--what"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("unexpected argument"));
}

#[test]
fn unknown_builtin_plan_prints_display_message() {
    let out = lab(&["run", "--plan", "nope"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("unknown built-in plan"), "{stderr}");
    assert!(stderr.contains("nope"));
}

#[test]
fn a_closed_stdout_ends_lab_quietly_with_the_sigpipe_status() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // 194,241 trials: far past a 64 KiB pipe buffer, so the listing's write
    // fails however the reader is scheduled.
    let path = temp_file(
        "big.plan",
        "family torus_to_mesh max_size=1024 max_dim=10\n",
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_lab"))
        .args(["expand", "--plan-file", path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lab");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    let out = child.wait_with_output().expect("wait for lab");
    std::fs::remove_file(&path).ok();
    assert!(first.contains("family"), "{first}");
    assert_eq!(out.status.code(), Some(141));
    let stderr = stderr_of(&out);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
}

#[test]
fn plan_file_parse_failures_name_the_line_and_exit_one() {
    // A round count, family bound, tenant count or shard count past its
    // cap would otherwise run without bound, build one trial of tens of
    // millions of nodes, or keep a table per shard without bound.
    for (name, contents, line, message) in [
        (
            "bad-seed.plan",
            "seed = x\nfamily paper\n",
            1,
            "seed must be a u64",
        ),
        (
            "huge-rounds.plan",
            "family hypercube max_dim=3\nrounds = 1000000000\n",
            2,
            "rounds must be a count of at most 1024",
        ),
        (
            "huge-dimension.plan",
            "family paper\nfamily hypercube max_dim=70\n",
            2,
            "max_dim must be an integer of at most 10",
        ),
        (
            "huge-size.plan",
            "family paper\nfamily same_shape max_size=4000000000\n",
            2,
            "max_size must be an integer of at most 1024",
        ),
        (
            "huge-random.plan",
            "family random count=1 max_size=100000000\n",
            1,
            "max_size must be an integer of at most 1024",
        ),
        (
            "huge-tenants.plan",
            "family paper\nchaos = 5\nchaos_tenants = 4294967295\n",
            3,
            "chaos_tenants entries must be at most 1024",
        ),
        (
            "huge-shards.plan",
            "family paper\noptimize = congestion\noptim_shards = 4294967295\n",
            3,
            "optim_shards must be at most 1024",
        ),
        (
            "huge-wirelength-shards.plan",
            "family paper\nwirelength = 100\nwirelength_shards = 1025\n",
            3,
            "wirelength_shards must be at most 1024",
        ),
    ] {
        let path = temp_file(name, contents);
        let out = lab(&["run", "--plan-file", path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = stderr_of(&out);
        assert!(stderr.contains(&format!("line {line}")), "{stderr}");
        assert!(stderr.contains(message), "{stderr}");
    }
}

#[test]
fn invalid_optimizer_settings_exit_one() {
    let path = temp_file("bad-optimize.plan", "optimize = warp\nfamily paper\n");
    let out = lab(&["expand", "--plan-file", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("optimize must be"),
        "{}",
        stderr_of(&out)
    );

    let path = temp_file("stray-steps.plan", "optim_steps = 10\nfamily paper\n");
    let out = lab(&["expand", "--plan-file", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("optim_steps requires"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn missing_plan_file_exits_one_with_io_message() {
    let out = lab(&["run", "--plan-file", "/definitely/not/here.plan"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("cannot read"));
}

#[test]
fn invalid_workers_values_exit_one() {
    for bad in ["x", "-3", "1.5", ""] {
        let out = lab(&["run", "--plan", "smoke", "--workers", bad]);
        assert_eq!(out.status.code(), Some(1), "--workers {bad:?}");
        assert!(
            stderr_of(&out).contains("--workers must be an integer"),
            "--workers {bad:?}: {}",
            stderr_of(&out)
        );
    }
    // A value that parses but would spawn an absurd number of OS threads is
    // rejected up front instead of panicking in the executor.
    let out = lab(&["run", "--plan", "smoke", "--workers", "1000000"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("at most"), "{}", stderr_of(&out));
}

#[test]
fn mutually_exclusive_plan_flags_exit_one() {
    let out = lab(&["run", "--plan", "smoke", "--plan-file", "x.plan"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("mutually exclusive"));
}

#[test]
fn bad_format_is_rejected_before_the_sweep_runs() {
    let out = lab(&["run", "--plan", "smoke", "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("--format must be"));
}

#[test]
fn report_check_against_a_missing_file_exits_one() {
    let out = lab(&[
        "report",
        "--check",
        "--out",
        "/definitely/not/EXPERIMENTS.md",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("cannot read"));
}

#[test]
fn successful_tiny_run_exits_zero() {
    let path = temp_file(
        "tiny.plan",
        "name = tiny\nseed = 3\noptimize = congestion\noptim_steps = 50\n\
         optim_shards = 2\nfamily ring_into max_size=8 max_dim=2\n",
    );
    let out = lab(&[
        "run",
        "--plan-file",
        path.to_str().unwrap(),
        "--workers",
        "2",
    ]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("0 bound violations"));
}

#[test]
fn invalid_shard_settings_exit_one() {
    let path = temp_file(
        "zero-shards.plan",
        "optimize = congestion\noptim_shards = 0\nfamily paper\n",
    );
    let out = lab(&["expand", "--plan-file", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("optim_shards must be at least 1"),
        "{}",
        stderr_of(&out)
    );

    let path = temp_file("stray-shards.plan", "optim_shards = 2\nfamily paper\n");
    let out = lab(&["expand", "--plan-file", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("optim_shards requires"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn doccheck_accepts_valid_cross_references() {
    let experiments = temp_file(
        "EXPERIMENTS.md",
        "# EXPERIMENTS\n\n## Table 1 — things\n\n## Table 2 — more things\n",
    );
    // Validate the generated file against itself (self-references only).
    let out = lab(&["doccheck", experiments.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("all valid"));
    std::fs::remove_file(&experiments).ok();
}

#[test]
fn doccheck_rejects_dangling_links_tables_and_paths() {
    let doc = temp_file(
        "dangling.md",
        "see [gone](no-such-file.md) and `crates/nope/src/lib.rs`\n",
    );
    let out = lab(&["doccheck", doc.to_str().unwrap()]);
    std::fs::remove_file(&doc).ok();
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("no-such-file.md"), "{stderr}");
    assert!(stderr.contains("crates/nope/src/lib.rs"), "{stderr}");

    // A table reference with no matching heading in the sibling
    // EXPERIMENTS.md is drift, not a typo to ignore.
    let dir = std::env::temp_dir().join(format!("lab-doccheck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("EXPERIMENTS.md"), "## Table 1 — only\n").unwrap();
    std::fs::write(
        dir.join("ARCH.md"),
        "results in Table 9 of EXPERIMENTS.md\n",
    )
    .unwrap();
    let out = lab(&["doccheck", dir.join("ARCH.md").to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("Table 9"), "{}", stderr_of(&out));
}

#[test]
fn doccheck_validates_urls_anchors_and_bench_baselines() {
    // Malformed arXiv / DOI / hostless URLs, a duplicate heading anchor and
    // a missing BENCH_*.json baseline each produce their own problem line.
    let doc = temp_file(
        "badrefs.md",
        "# Title\n\n\
         see https://arxiv.org/abs/not-an-id and https://doi.org/wrong\n\
         and http://nohost plus the baseline BENCH_missing.json\n\n\
         # Title\n",
    );
    let out = lab(&["doccheck", doc.to_str().unwrap()]);
    std::fs::remove_file(&doc).ok();
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("arXiv URL"), "{stderr}");
    assert!(stderr.contains("DOI URL"), "{stderr}");
    assert!(stderr.contains("no dotted host"), "{stderr}");
    assert!(stderr.contains("duplicate heading anchor"), "{stderr}");
    assert!(stderr.contains("BENCH_missing.json"), "{stderr}");

    // Canonical forms pass: a real arXiv id, a real DOI, unique anchors,
    // and a glob placeholder (`BENCH_*.json`) that names no concrete file.
    let doc = temp_file(
        "goodrefs.md",
        "# Title\n\n\
         see https://arxiv.org/abs/2302.13237 and https://doi.org/10.1000/x\n\
         (CI gates every `BENCH_*.json` baseline)\n\n\
         ## Subtitle\n",
    );
    let out = lab(&["doccheck", doc.to_str().unwrap()]);
    std::fs::remove_file(&doc).ok();
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
}

#[test]
fn doccheck_rejects_flags_and_missing_files() {
    let out = lab(&["doccheck", "--strict"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("file paths only"));

    let out = lab(&["doccheck", "/definitely/not/here.md"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("cannot read"));
}
