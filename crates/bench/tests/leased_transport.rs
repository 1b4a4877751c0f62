//! Process-level proof for the lease transports: `nvmx-coordinator
//! --transport pipe|tcp|unix` driving real `nvmx-worker --connect` workers must
//! produce output byte-identical to the in-process `run` binary — including
//! under the acceptance fault mix of one killed, one frozen, and one
//! throttled worker, with the summary showing slot ranges re-leased between
//! workers, and over a shared warm characterization store.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const RUN: &str = env!("CARGO_BIN_EXE_run");
const WORKER: &str = env!("CARGO_BIN_EXE_nvmx-worker");
const COORDINATOR: &str = env!("CARGO_BIN_EXE_nvmx-coordinator");

/// Three traffic patterns over five arrays so the stream is long enough
/// (~20 slots) for small leases to spread across three workers and for
/// every injected fault to land mid-lease.
const CONFIG: &str = r#"{
  "name": "lease-smoke",
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
      {"name": "ro", "read_bytes_per_sec": 1e9, "write_bytes_per_sec": 1e7, "access_bytes": 64},
      {"name": "rw", "read_bytes_per_sec": 5e8, "write_bytes_per_sec": 5e8, "access_bytes": 64},
      {"name": "wo", "read_bytes_per_sec": 1e7, "write_bytes_per_sec": 1e9, "access_bytes": 64}
    ]
  },
  "constraints": {"max_power_w": 0.05}
}"#;

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("nvmx_leased_{label}_{}", std::process::id()));
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

fn baseline(dir: &Path, config: &Path) -> (String, Vec<u8>) {
    let out_dir = dir.join("in_process");
    let output = Command::new(RUN)
        .arg(config)
        .env("NVMX_OUT", &out_dir)
        .output()
        .unwrap();
    run_ok(&output, "run binary");
    let csv = std::fs::read(out_dir.join("lease-smoke_results.csv")).unwrap();
    (stdout_line(&output), csv)
}

/// Runs a leased-transport campaign of the study named `study`; `extra`
/// carries the fault flags. The coordinator gets a fresh temp directory of
/// its own, which must be empty again when it exits: a unix transport's
/// lease socket is removed on every run.
fn leased_run(
    dir: &Path,
    config: &Path,
    study: &str,
    transport: &str,
    workers: u64,
    extra: &[&str],
    label: &str,
) -> (Output, PathBuf) {
    let capture_dir = dir.join(label);
    // A `/` in a study name nests its capture one directory down.
    let capture = capture_dir.join(format!("{study}.jsonl"));
    std::fs::create_dir_all(capture.parent().unwrap()).unwrap();
    let tmp = dir.join(format!("{label}_tmp"));
    std::fs::create_dir_all(&tmp).unwrap();
    let mut command = Command::new(COORDINATOR);
    command
        .env("TMPDIR", &tmp)
        .arg("run")
        .args(["--config".as_ref(), config.as_os_str()])
        .args(["--workers", &workers.to_string()])
        .args(["--capture".as_ref(), capture_dir.as_os_str()])
        .args(["--worker-bin", WORKER])
        .args(["--transport", transport])
        .args(["--lease-size", "2"]);
    for arg in extra {
        command.arg(arg);
    }
    let output = command.output().unwrap();
    run_ok(
        &output,
        &format!("nvmx-coordinator run --transport {transport}"),
    );
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert!(
        left.is_empty(),
        "a --transport {transport} run left {left:?} in its temp directory"
    );
    (output, capture)
}

fn replay_csv(dir: &Path, config: &Path, capture: &Path, label: &str) -> (String, Vec<u8>) {
    let csv_path = dir.join(format!("{label}.csv"));
    let output = Command::new(COORDINATOR)
        .arg("replay")
        .args(["--input".as_ref(), capture.as_os_str()])
        .args(["--config".as_ref(), config.as_os_str()])
        .args(["--csv".as_ref(), csv_path.as_os_str()])
        .output()
        .unwrap();
    run_ok(&output, "nvmx-coordinator replay");
    (stdout_line(&output), std::fs::read(&csv_path).unwrap())
}

/// Clean 3-worker campaigns over the pipe and unix transports produce the
/// same bytes as each other and as the in-process run, and leave no
/// socket behind. The unix socket's path does not depend on the study
/// name: a 90-character name and one holding a `/` run over unix too,
/// with captures byte-identical to their pipe runs.
#[test]
fn pipe_and_unix_leased_runs_match_the_local_run() {
    let dir = TempDir::new("clean");
    let config = dir.path().join("study.json");
    std::fs::write(&config, CONFIG).unwrap();
    let (summary, csv) = baseline(dir.path(), &config);
    assert!(summary.starts_with("study `lease-smoke`:"), "{summary}");

    let (pipe_out, pipe_capture) =
        leased_run(dir.path(), &config, "lease-smoke", "pipe", 3, &[], "pipe");
    assert_eq!(stdout_line(&pipe_out), summary, "pipe summary diverged");

    let (unix_out, unix_capture) =
        leased_run(dir.path(), &config, "lease-smoke", "unix", 3, &[], "unix");
    assert_eq!(stdout_line(&unix_out), summary, "unix summary diverged");

    assert_eq!(
        std::fs::read(&pipe_capture).unwrap(),
        std::fs::read(&unix_capture).unwrap(),
        "pipe and unix captures must be byte-identical"
    );

    let (replay_summary, replay_bytes) = replay_csv(dir.path(), &config, &unix_capture, "unix");
    assert_eq!(replay_summary, summary);
    assert_eq!(replay_bytes, csv, "leased run diverged from in-process run");

    for (index, study) in ["n".repeat(90), "a/b".to_owned()].iter().enumerate() {
        let config = dir.path().join(format!("renamed_{index}.json"));
        let renamed = CONFIG.replacen("\"lease-smoke\"", &format!("\"{study}\""), 1);
        std::fs::write(&config, renamed).unwrap();
        let (pipe_out, pipe_capture) = leased_run(
            dir.path(),
            &config,
            study,
            "pipe",
            3,
            &[],
            &format!("pipe_{index}"),
        );
        let (unix_out, unix_capture) = leased_run(
            dir.path(),
            &config,
            study,
            "unix",
            3,
            &[],
            &format!("unix_{index}"),
        );
        assert_eq!(stdout_line(&unix_out), stdout_line(&pipe_out), "{study}");
        assert_eq!(
            std::fs::read(&pipe_capture).unwrap(),
            std::fs::read(&unix_capture).unwrap(),
            "study `{study}`: pipe and unix captures must be byte-identical"
        );
    }
}

/// The acceptance scenario: a TCP campaign at 3 workers where one worker
/// is killed mid-lease, one freezes mid-lease (its heartbeats stop, so it
/// is killed at its deadline and its lease re-granted), and one is
/// throttled per frame. The merged output must stay byte-identical to a
/// local run, the summary must show slot ranges re-leased between
/// workers, and the run must finish within a bound derived from the
/// throttle, the deadline and the stream length.
///
/// No worker of the fleet is healthy: the throttled worker 0 delivers one
/// frame per 150 ms, so it needs seconds to drain the 23-slot stream on
/// its own. The die and stall victims therefore always connect while
/// slots are left, and each fault fires whatever order the workers say
/// `hello` in. (With a healthy worker in the fleet it could drain the
/// whole stream before either victim connected, and no hook fired.)
#[test]
fn tcp_campaign_survives_killed_stalled_and_throttled_workers() {
    let dir = TempDir::new("hostile");
    let config = dir.path().join("study.json");
    std::fs::write(&config, CONFIG).unwrap();
    let (summary, csv) = baseline(dir.path(), &config);

    // A clean leased run pins the reference capture bytes.
    let (_, clean_capture) = leased_run(
        dir.path(),
        &config,
        "lease-smoke",
        "tcp",
        2,
        &[],
        "tcp_clean",
    );

    // Die/stall thresholds of 3 with 2-slot leases guarantee the fault
    // lands mid-lease (an undrained lease → a re-lease migration).
    let started = Instant::now();
    let (output, capture) = leased_run(
        dir.path(),
        &config,
        "lease-smoke",
        "tcp",
        3,
        &[
            "--inject-throttle",
            "0:150",
            "--inject-die",
            "1:3",
            "--inject-stall",
            "2:3",
            "--respawn-backoff",
            "50",
        ],
        "tcp_hostile",
    );
    // The stall victim's undrained lease blocks the merger until the 3 s
    // heartbeat deadline kills it; the rest of the run overlaps that wait.
    // Pull-only leases let no slot wait on more than the throttled
    // worker's current 2-slot lease (2 × 150 ms). Even if the throttled
    // worker emitted the whole 23-slot stream on its own after the kill,
    // that adds 23 × 150 ms = 3.45 s. So the run ends within 3 s + 3.45 s,
    // plus 3 s for process start-up and the debug build's compute: 9.45 s.
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(3_000 + 23 * 150 + 3_000),
        "the hostile run took {elapsed:?}:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(stdout_line(&output), summary, "hostile merge diverged");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("re-lease:"),
        "no re-lease migrations reported:\n{stderr}"
    );
    assert!(
        stderr.contains("slot ranges re-leased"),
        "run summary must count re-leased ranges:\n{stderr}"
    );

    assert_eq!(
        std::fs::read(&capture).unwrap(),
        std::fs::read(&clean_capture).unwrap(),
        "hostile capture must be byte-identical to the clean capture"
    );

    let (replay_summary, replay_bytes) = replay_csv(dir.path(), &config, &capture, "hostile");
    assert_eq!(replay_summary, summary);
    assert_eq!(
        replay_bytes, csv,
        "hostile leased run diverged from the in-process run"
    );
}

/// Reads the `l2_hits=N` counter off a worker's `store …` stderr line.
fn l2_hits(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("store ")?;
    let count = rest.split("l2_hits=").nth(1)?;
    count.split(' ').next()?.parse().ok()
}

/// Workers sharing a warm store load its slabs instead of recomputing
/// them, report their L2 counters on stderr as they leave the lease
/// exchange, and still merge to the in-process summary.
#[test]
fn warm_store_leased_run_reports_l2_hits() {
    let dir = TempDir::new("store");
    let config = dir.path().join("study.json");
    std::fs::write(&config, CONFIG).unwrap();
    let (summary, csv) = baseline(dir.path(), &config);

    // A local run publishes every slab the study needs.
    let store = dir.path().join("store");
    let output = Command::new(RUN)
        .arg(&config)
        .args(["--store".as_ref(), store.as_os_str()])
        .env("NVMX_OUT", dir.path().join("cold"))
        .output()
        .unwrap();
    run_ok(&output, "cold run binary");

    let store_arg = store.to_str().expect("temp paths are UTF-8");
    let (output, capture) = leased_run(
        dir.path(),
        &config,
        "lease-smoke",
        "pipe",
        2,
        &["--store", store_arg],
        "warm",
    );
    assert_eq!(stdout_line(&output), summary, "warm-store summary diverged");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.lines().filter_map(l2_hits).any(|hits| hits > 0),
        "no worker reported loading from the warm store:\n{stderr}"
    );

    let (replay_summary, replay_bytes) = replay_csv(dir.path(), &config, &capture, "warm");
    assert_eq!(replay_summary, summary);
    assert_eq!(replay_bytes, csv, "warm-store leased run diverged");
}
