//! Process-level proof for the distributed campaign runner: the `run`
//! binary, `nvmx-coordinator` + N real `nvmx-worker` processes, and
//! `nvmx-coordinator replay` of the captured JSONL must all produce
//! byte-identical results CSVs — including when a worker is killed
//! mid-run and the coordinator resumes the shard. Also pins the `run`
//! binary's exit-code contract for malformed configs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const RUN: &str = env!("CARGO_BIN_EXE_run");
const WORKER: &str = env!("CARGO_BIN_EXE_nvmx-worker");
const COORDINATOR: &str = env!("CARGO_BIN_EXE_nvmx-coordinator");

/// A small but non-trivial study: SRAM's unbounded endurance crosses the
/// process boundary, and the constraint filter exercises the CSV's
/// `meets_constraints` column.
const CONFIG: &str = r#"{
  "name": "dist-smoke",
  "cells": {
    "technologies": ["Stt", "Rram"],
    "tentpoles": true,
    "reference_rram": false,
    "sram_baseline": true
  },
  "array": {"capacities_mib": [2], "targets": ["ReadEdp"]},
  "traffic": {
    "kind": "explicit",
    "patterns": [
      {"name": "t", "read_bytes_per_sec": 1e9, "write_bytes_per_sec": 1e7, "access_bytes": 64}
    ]
  },
  "constraints": {"max_power_w": 0.05}
}"#;

/// The same study with a fault campaign riding on it: cell-derived models
/// at two temperatures plus a raw-BER sweep, small enough for CI but
/// crossing every new wire event (trials, verdicts, the fault terminal).
const FAULT_CONFIG: &str = r#"{
  "name": "dist-fault",
  "cells": {
    "technologies": ["Stt", "Rram"],
    "tentpoles": true,
    "reference_rram": false,
    "sram_baseline": true
  },
  "array": {"capacities_mib": [2], "targets": ["ReadEdp"]},
  "traffic": {
    "kind": "explicit",
    "patterns": [
      {"name": "t", "read_bytes_per_sec": 1e9, "write_bytes_per_sec": 1e7, "access_bytes": 64}
    ]
  },
  "constraints": {"max_power_w": 0.05},
  "fault": {
    "trials": 2,
    "seed": 7,
    "bits_per_cell": ["Slc"],
    "temperatures_c": [25.0, 85.0],
    "raw_bers": [1e-3],
    "tolerance": 0.05
  }
}"#;

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("nvmx_dist_cli_{label}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn write_config(dir: &Path, json: &str) -> PathBuf {
    let path = dir.join("study.json");
    std::fs::write(&path, json).unwrap();
    path
}

fn run_ok(output: &Output, what: &str) {
    assert!(
        output.status.success(),
        "{what} failed ({}):\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

fn stdout_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .next()
        .unwrap_or_default()
        .to_owned()
}

/// Runs the in-process `run` binary and returns (summary line, CSV bytes).
fn in_process_baseline(dir: &Path, config: &Path) -> (String, Vec<u8>) {
    let out_dir = dir.join("in_process");
    let output = Command::new(RUN)
        .arg(config)
        .env("NVMX_OUT", &out_dir)
        .output()
        .unwrap();
    run_ok(&output, "run binary");
    let csv = std::fs::read(out_dir.join("dist-smoke_results.csv")).unwrap();
    (stdout_line(&output), csv)
}

fn coordinate(
    dir: &Path,
    config: &Path,
    workers: u64,
    inject_die: Option<&str>,
    label: &str,
) -> (Output, PathBuf) {
    let capture_dir = dir.join(label);
    let mut command = Command::new(COORDINATOR);
    command
        .arg("run")
        .arg("--config")
        .arg(config)
        .arg("--workers")
        .arg(workers.to_string())
        .arg("--capture")
        .arg(&capture_dir)
        .arg("--worker-bin")
        .arg(WORKER);
    if let Some(spec) = inject_die {
        command.arg("--inject-die").arg(spec);
    }
    let output = command.output().unwrap();
    run_ok(&output, "nvmx-coordinator run");
    (output, capture_dir.join("dist-smoke.jsonl"))
}

fn replay_csv(dir: &Path, config: &Path, capture: &Path, label: &str) -> (String, Vec<u8>) {
    let csv_path = dir.join(format!("{label}.csv"));
    let output = Command::new(COORDINATOR)
        .arg("replay")
        .arg("--input")
        .arg(capture)
        .arg("--config")
        .arg(config)
        .arg("--csv")
        .arg(&csv_path)
        .output()
        .unwrap();
    run_ok(&output, "nvmx-coordinator replay");
    (stdout_line(&output), std::fs::read(&csv_path).unwrap())
}

/// Runs the in-process `run` binary on a fault campaign, returning
/// (summary line, results CSV bytes, fault-trial CSV bytes).
fn fault_baseline(dir: &Path, config: &Path) -> (String, Vec<u8>, Vec<u8>) {
    let out_dir = dir.join("in_process");
    let output = Command::new(RUN)
        .arg(config)
        .env("NVMX_OUT", &out_dir)
        .output()
        .unwrap();
    run_ok(&output, "run binary (fault campaign)");
    let csv = std::fs::read(out_dir.join("dist-fault_results.csv")).unwrap();
    let fault_csv = std::fs::read(out_dir.join("dist-fault_fault.csv")).unwrap();
    (stdout_line(&output), csv, fault_csv)
}

#[test]
fn coordinator_and_replay_match_in_process_at_1_and_2_workers() {
    let dir = TempDir::new("equivalence");
    let config = write_config(dir.path(), CONFIG);
    let (summary, csv) = in_process_baseline(dir.path(), &config);
    assert!(summary.starts_with("study `dist-smoke`:"), "{summary}");

    for workers in [1u64, 2] {
        let label = format!("w{workers}");
        let (run_output, capture) = coordinate(dir.path(), &config, workers, None, &label);
        assert_eq!(
            stdout_line(&run_output),
            summary,
            "coordinator summary diverged at {workers} workers"
        );
        assert!(capture.is_file(), "capture missing at {workers} workers");

        let (replay_summary, replay_bytes) = replay_csv(dir.path(), &config, &capture, &label);
        assert_eq!(replay_summary, summary);
        assert_eq!(
            replay_bytes, csv,
            "replayed CSV differs from in-process CSV at {workers} workers"
        );
    }
}

#[test]
fn killed_worker_resumes_to_identical_results() {
    let dir = TempDir::new("resume");
    let config = write_config(dir.path(), CONFIG);
    let (summary, csv) = in_process_baseline(dir.path(), &config);

    // Shard 0's first spawn dies (exit 137) after 2 frames; the
    // coordinator must respawn it, dedup the replayed slots, and converge
    // to the same results.
    let (run_output, capture) = coordinate(dir.path(), &config, 2, Some("0:2"), "kill");
    assert_eq!(stdout_line(&run_output), summary);
    let stderr = String::from_utf8_lossy(&run_output.stderr);
    assert!(
        stderr.contains("respawning"),
        "no respawn observed:\n{stderr}"
    );

    let (replay_summary, replay_bytes) = replay_csv(dir.path(), &config, &capture, "kill");
    assert_eq!(replay_summary, summary);
    assert_eq!(
        replay_bytes, csv,
        "resumed run diverged from in-process run"
    );
}

/// The crash artifact a *real* SIGKILL/OOM-kill leaves is a torn partial
/// line in the pipe (the worker died mid-write). The coordinator must
/// classify that as worker death — respawn and converge — not as a fatal
/// protocol error. `--die-after` can't produce this (it exits between
/// complete lines), so a wrapper script plays the part: the first worker
/// to start emits two complete frames plus a truncated third and dies
/// with exit 137; every other invocation (including the respawn) runs the
/// real worker.
#[cfg(unix)]
#[test]
fn torn_final_line_is_worker_death_not_protocol_failure() {
    use std::os::unix::fs::PermissionsExt;

    let dir = TempDir::new("torn");
    let config = write_config(dir.path(), CONFIG);
    let (summary, csv) = in_process_baseline(dir.path(), &config);

    let script = dir.path().join("torn-worker.sh");
    std::fs::write(
        &script,
        "#!/bin/sh\n\
         if mkdir \"$NVMX_TORN_MARKER\" 2>/dev/null; then\n\
         \x20 out=\"$NVMX_TORN_MARKER/out.jsonl\"\n\
         \x20 \"$NVMX_REAL_WORKER\" \"$@\" > \"$out\"\n\
         \x20 head -n 2 \"$out\"\n\
         \x20 tail -n +3 \"$out\" | head -c 40\n\
         \x20 exit 137\n\
         fi\n\
         exec \"$NVMX_REAL_WORKER\" \"$@\"\n",
    )
    .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();

    let capture_dir = dir.path().join("torn_capture");
    let output = Command::new(COORDINATOR)
        .arg("run")
        .arg("--config")
        .arg(&config)
        .arg("--workers")
        .arg("2")
        .arg("--capture")
        .arg(&capture_dir)
        .arg("--worker-bin")
        .arg(&script)
        .env("NVMX_REAL_WORKER", WORKER)
        .env("NVMX_TORN_MARKER", dir.path().join("torn_marker"))
        .output()
        .unwrap();
    run_ok(&output, "coordinator with torn-line worker");
    assert_eq!(stdout_line(&output), summary);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("torn line") && stderr.contains("respawning"),
        "torn tail must take the respawn path:\n{stderr}"
    );

    let (replay_summary, replay_bytes) = replay_csv(
        dir.path(),
        &config,
        &capture_dir.join("dist-smoke.jsonl"),
        "torn",
    );
    assert_eq!(replay_summary, summary);
    assert_eq!(replay_bytes, csv, "torn-kill resume diverged");
}

/// The tentpole acceptance scenario: a distributed fault campaign at 2
/// shards with one worker killed mid-stream and the other stalled past
/// the deadline still converges — summary, results CSV, and fault-trial
/// CSV all byte-identical to the in-process run, via both the live merge
/// and a strict replay of the capture.
#[test]
fn fault_campaign_survives_a_killed_and_a_stalled_shard() {
    let dir = TempDir::new("fault");
    let config = dir.path().join("fault.json");
    std::fs::write(&config, FAULT_CONFIG).unwrap();
    let (summary, csv, fault) = fault_baseline(dir.path(), &config);
    assert!(summary.contains("fault campaign:"), "{summary}");

    // Clean equivalence at 1 worker first (no injected failures).
    let capture_dir = dir.path().join("clean");
    let output = Command::new(COORDINATOR)
        .arg("run")
        .args(["--config".as_ref(), config.as_os_str()])
        .args(["--workers", "1"])
        .args(["--capture".as_ref(), capture_dir.as_os_str()])
        .args(["--worker-bin", WORKER])
        .output()
        .unwrap();
    run_ok(&output, "coordinator run (fault, clean)");
    assert_eq!(stdout_line(&output), summary);

    // Then the hostile run: shard 0 dies after 3 frames, shard 1 hangs
    // after 5; the stall detector kills the hung worker and both shards
    // respawn with deterministic backoff. The deadline must sit above the
    // worker's worst-case legitimate inter-frame compute gap (the
    // classifier build before the fault phase, ~4 s in debug builds) or
    // healthy respawned workers get spuriously stall-killed.
    let capture_dir = dir.path().join("hostile");
    let output = Command::new(COORDINATOR)
        .arg("run")
        .args(["--config".as_ref(), config.as_os_str()])
        .args(["--workers", "2"])
        .args(["--capture".as_ref(), capture_dir.as_os_str()])
        .args(["--worker-bin", WORKER])
        .args(["--inject-die", "0:3"])
        .args(["--inject-stall", "1:5"])
        .args(["--shard-stall-timeout", "8"])
        .args(["--respawn-backoff", "10"])
        .output()
        .unwrap();
    run_ok(&output, "coordinator run (fault, killed + stalled shards)");
    assert_eq!(stdout_line(&output), summary, "hostile merge diverged");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("respawning"),
        "no respawn observed:\n{stderr}"
    );
    assert!(
        stderr.contains("stalled"),
        "stall never detected:\n{stderr}"
    );

    // Strict replay of the hostile capture rebuilds both artifacts.
    let csv_path = dir.path().join("replay.csv");
    let fault_path = dir.path().join("replay_fault.csv");
    let output = Command::new(COORDINATOR)
        .arg("replay")
        .args([
            "--input".as_ref(),
            capture_dir.join("dist-fault.jsonl").as_os_str(),
        ])
        .args(["--config".as_ref(), config.as_os_str()])
        .args(["--csv".as_ref(), csv_path.as_os_str()])
        .args(["--fault-csv".as_ref(), fault_path.as_os_str()])
        .output()
        .unwrap();
    run_ok(&output, "coordinator replay (fault)");
    assert_eq!(stdout_line(&output), summary);
    assert_eq!(
        std::fs::read(&csv_path).unwrap(),
        csv,
        "results CSV diverged"
    );
    assert_eq!(
        std::fs::read(&fault_path).unwrap(),
        fault,
        "fault-trial CSV diverged"
    );
}

/// A shard whose respawn budget is exhausted (its crash injection re-arms
/// on every respawn) must degrade gracefully: the campaign completes via
/// an unarmed recovery worker and still matches the in-process run.
#[test]
fn exhausted_respawn_budget_degrades_to_a_recovery_worker() {
    let dir = TempDir::new("degrade");
    let config = write_config(dir.path(), CONFIG);
    let (summary, csv) = in_process_baseline(dir.path(), &config);

    let capture_dir = dir.path().join("capture");
    let output = Command::new(COORDINATOR)
        .arg("run")
        .args(["--config".as_ref(), config.as_os_str()])
        .args(["--workers", "2"])
        .args(["--capture".as_ref(), capture_dir.as_os_str()])
        .args(["--worker-bin", WORKER])
        .args(["--inject-die", "0:2"])
        .args(["--inject-die-always"])
        .args(["--max-respawns", "1"])
        .args(["--respawn-backoff", "10"])
        .output()
        .unwrap();
    run_ok(&output, "coordinator run (degraded shard)");
    assert_eq!(stdout_line(&output), summary);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("exhausted its respawn budget"),
        "budget exhaustion not reported:\n{stderr}"
    );
    assert!(
        stderr.contains("shards degraded"),
        "degradation missing from the run summary:\n{stderr}"
    );

    let (replay_summary, replay_bytes) = replay_csv(
        dir.path(),
        &config,
        &capture_dir.join("dist-smoke.jsonl"),
        "degrade",
    );
    assert_eq!(replay_summary, summary);
    assert_eq!(
        replay_bytes, csv,
        "degraded run diverged from in-process run"
    );
}

#[test]
fn run_binary_rejects_malformed_configs_with_exit_2_and_the_section_name() {
    let dir = TempDir::new("exit_codes");

    // Unknown (typo'd) section.
    let typo = dir.path().join("typo.json");
    std::fs::write(&typo, r#"{"name": "x", "trafic": {"kind": "spec_llc"}}"#).unwrap();
    let output = Command::new(RUN).arg(&typo).output().unwrap();
    assert_eq!(output.status.code(), Some(2), "typo config must exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("trafic"),
        "stderr must name the typo: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must reject, not panic: {stderr}"
    );

    // Broken section: the error names it.
    let broken = dir.path().join("broken.json");
    std::fs::write(
        &broken,
        r#"{"name": "x", "traffic": {"kind": "quantum_tunnel"}}"#,
    )
    .unwrap();
    let output = Command::new(RUN).arg(&broken).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("traffic"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // A value that parses but would resolve to NaN traffic.
    let zero = dir.path().join("zero_lookups.json");
    std::fs::write(
        &zero,
        r#"{"name": "x", "traffic": {"kind": "spec_llc", "lookups": 0, "seed": 1}}"#,
    )
    .unwrap();
    let output = Command::new(RUN).arg(&zero).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("`traffic`"), "{stderr}");
    assert!(stderr.contains("lookups"), "{stderr}");

    // Unreadable path.
    let output = Command::new(RUN)
        .arg(dir.path().join("missing.json"))
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));

    // No argument at all.
    let output = Command::new(RUN).output().unwrap();
    assert_eq!(output.status.code(), Some(2));

    // The worker applies the same contract.
    let output = Command::new(WORKER)
        .arg("--config")
        .arg(&typo)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "worker must exit 2");
    assert!(String::from_utf8_lossy(&output.stderr).contains("trafic"));

    // And the coordinator rejects the campaign before spawning anything.
    let output = Command::new(COORDINATOR)
        .arg("run")
        .arg("--config")
        .arg(&typo)
        .arg("--worker-bin")
        .arg(WORKER)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "coordinator must exit 2");
}

#[test]
fn run_reports_each_repeated_skip_once_with_a_count() {
    let dir = TempDir::new("skip_lines");
    // SRAM cannot store MLC-2: it is skipped once per capacity × target.
    let config = write_config(
        dir.path(),
        r#"{
  "name": "skip-lines",
  "cells": {
    "technologies": ["Stt"],
    "tentpoles": true,
    "reference_rram": false,
    "sram_baseline": true
  },
  "array": {
    "capacities_mib": [1, 2, 4],
    "bits_per_cell": ["Slc", "Mlc2"],
    "targets": ["ReadEdp", "WriteEdp", "Area"]
  },
  "traffic": {
    "kind": "explicit",
    "patterns": [
      {"name": "t", "read_bytes_per_sec": 1e9, "write_bytes_per_sec": 1e7, "access_bytes": 64}
    ]
  }
}"#,
    );
    let output = Command::new(RUN)
        .arg(&config)
        .env("NVMX_OUT", dir.path().join("out"))
        .output()
        .unwrap();
    run_ok(&output, "run binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let skips: Vec<&str> = stderr
        .lines()
        .filter(|line| line.starts_with("skipped "))
        .collect();
    assert_eq!(skips.len(), 1, "one line per distinct skip:\n{stderr}");
    assert!(
        skips[0].starts_with("skipped SRAM") && skips[0].ends_with(" (×9)"),
        "3 capacities × 3 targets collapse into one counted line: {}",
        skips[0]
    );
    // The summary line on stdout still counts every skip.
    let summary = stdout_line(&output);
    assert!(summary.contains(", 9 skipped,"), "{summary}");
}
