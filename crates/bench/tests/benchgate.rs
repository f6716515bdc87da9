//! `benchgate` refuses bad input with exit 1 before it times any row.

use std::process::{Command, Output};

/// Runs `benchgate` from the repository root, where the baselines live.
fn benchgate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchgate"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("run benchgate")
}

/// Asserts exit 1, no table on stdout, and `reason` in the message.
fn assert_refused(output: &Output, reason: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        output.stdout.is_empty(),
        "printed {:?}",
        String::from_utf8_lossy(&output.stdout)
    );
    assert!(stderr.contains(reason), "{stderr}");
}

#[test]
fn a_missing_last_file_fails_before_the_first_is_timed() {
    let output = benchgate(&["BENCH_explab.json", "missing.json"]);
    assert_refused(&output, "cannot read missing.json");
}

#[test]
fn a_zero_baseline_is_refused() {
    let path = std::env::temp_dir().join(format!("benchgate-zero-{}.json", std::process::id()));
    std::fs::write(
        &path,
        r#"{"benchmark": "optim_throughput", "summary": {
            "moves_per_second": 0,
            "wirelength_moves_per_second": 117564,
            "kcycle_moves_per_second": 68813
        }}"#,
    )
    .expect("write a temporary baseline");
    let output = benchgate(&[path.to_str().expect("UTF-8 temp path")]);
    std::fs::remove_file(&path).expect("remove the temporary baseline");
    assert_refused(&output, "summary.moves_per_second");
}

#[test]
fn min_ratio_needs_a_value() {
    let output = benchgate(&["BENCH_explab.json", "--min-ratio"]);
    assert_refused(&output, "--min-ratio needs a value");
}
