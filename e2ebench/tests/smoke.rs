//! A minimal-length pass of every workload through the built benchmark,
//! end-to-end (`--trace 0`) and traced (`--trace 1`), asserting that every
//! operation it attempted passed its correctness checks.
//!
//! The campaign binaries are built (release) into a target directory of
//! the test's own first, so this test never waits on the lock of the
//! build that is running it. The benchmark is copied beside them, where it
//! looks for the binaries it drives, and run from there.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Builds the campaign binaries and copies the benchmark beside them,
/// returning the copy.
fn benchmark_beside_campaign_bins() -> PathBuf {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_nvmx-e2ebench"));
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("binaries live in <target>/<profile>")
        .join("e2ebench-smoke");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "nvmx_bench",
            "--bins",
            "--manifest-path",
        ])
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the campaign binaries failed");
    let copy = target.join("release").join("nvmx-e2ebench");
    std::fs::copy(&exe, &copy).expect("the benchmark copies beside the campaign binaries");
    copy
}

fn smoke(benchmark: &Path, workload: &str, trace: &str) {
    let out = Command::new(benchmark)
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(repo_root())
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let result: Value =
        serde_json::from_str(stdout.lines().last().expect("a result line")).unwrap();
    let failed = result.get("failed").and_then(Value::as_u64);
    let attempted = result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
    assert_eq!(
        failed,
        Some(0),
        "{workload} trace {trace}: error_rate > 0\n{stdout}"
    );
    assert!(attempted >= 1);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
}

#[test]
fn every_workload_passes_a_minimal_run_with_error_rate_zero() {
    let benchmark = benchmark_beside_campaign_bins();
    for workload in ["campaign_large", "capacity_scan", "paper_suite"] {
        for trace in ["0", "1"] {
            smoke(&benchmark, workload, trace);
        }
    }
}
