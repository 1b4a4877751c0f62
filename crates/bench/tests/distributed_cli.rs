//! Process-level proof for the distributed campaign runner: the `run`
//! binary, `nvmx-coordinator` + N real `nvmx-worker` processes on the
//! default pipe leases, and `nvmx-coordinator replay` of the captured
//! JSONL must all produce byte-identical results CSVs — including when a
//! worker is killed mid-lease and the coordinator re-leases its range and
//! respawns it. Also pins the binaries' exit-code contract for malformed
//! configs and retired flags.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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

/// A multi-array study: ten arrays, each with a run of nine evaluations
/// (a 3×3 traffic grid), so 5-slot leases cut through the runs.
const MULTI_CONFIG: &str = r#"{
  "name": "dist-multi",
  "cells": {
    "technologies": ["Stt", "Rram"],
    "tentpoles": true,
    "reference_rram": false,
    "sram_baseline": true
  },
  "array": {"capacities_mib": [1, 2], "targets": ["ReadEdp"]},
  "traffic": {
    "kind": "generic_sweep",
    "read_min": 1e8,
    "read_max": 1e10,
    "read_steps": 3,
    "write_min": 1e5,
    "write_max": 1e8,
    "write_steps": 3,
    "access_bytes": 8
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

/// Flags that make worker 0 emit several leases of the short `CONFIG`
/// stream whichever worker connects first: 2-slot leases, and worker 1
/// throttled so it drains its leases slowly.
const SPREAD: [&str; 4] = ["--lease-size", "2", "--inject-throttle", "1:50"];

/// Runs `nvmx-coordinator run` with no `--transport`, so on pipe leases;
/// `extra` carries lease-size and fault flags.
fn coordinate(
    dir: &Path,
    config: &Path,
    workers: u64,
    extra: &[&str],
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
        .arg(WORKER)
        .args(extra);
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
        let (run_output, capture) = coordinate(dir.path(), &config, workers, &[], &label);
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

    // Worker 0's first spawn dies (exit 137) after 2 frames, mid-lease;
    // the coordinator must re-lease its range, respawn it, dedup any
    // re-sent slots, and converge to the same results.
    let mut args = SPREAD.to_vec();
    args.extend(["--inject-die", "0:2"]);
    let (run_output, capture) = coordinate(dir.path(), &config, 2, &args, "kill");
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

/// A hung worker is killed at its heartbeat deadline and respawned once,
/// at the default respawn backoff of 0. The killed incarnation's reader
/// reports its pipe closing only after the respawn is already running;
/// that late report must not retire the new incarnation, which would
/// burn the respawn budget and abandon the worker. At 2 workers the
/// other worker is throttled so the run outlasts the 3 s deadline.
#[test]
fn hung_worker_respawns_once_at_the_default_backoff() {
    let dir = TempDir::new("hung");
    let config = write_config(dir.path(), CONFIG);
    let (summary, csv) = in_process_baseline(dir.path(), &config);

    for (workers, extra) in [(1u64, vec![]), (2, vec!["--inject-throttle", "1:600"])] {
        let label = format!("hung{workers}");
        let mut args = vec!["--lease-size", "2", "--inject-stall", "0:3"];
        args.extend(extra);
        let (output, capture) = coordinate(dir.path(), &config, workers, &args, &label);
        assert_eq!(stdout_line(&output), summary, "{workers} workers");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            stderr.matches("missed its heartbeat deadline").count(),
            1,
            "{workers} workers: one stall, one kill:\n{stderr}"
        );
        assert_eq!(
            stderr.matches("respawning").count(),
            1,
            "{workers} workers: one kill, one respawn:\n{stderr}"
        );
        assert!(
            !stderr.contains("abandoned"),
            "{workers} workers: a hung worker must not be abandoned:\n{stderr}"
        );

        let (replay_summary, replay_bytes) = replay_csv(dir.path(), &config, &capture, &label);
        assert_eq!(replay_summary, summary);
        assert_eq!(replay_bytes, csv, "{workers} workers: replay diverged");
    }
}

/// The crash artifact a *real* SIGKILL/OOM-kill leaves is a torn partial
/// line in the pipe (the worker died mid-write). The coordinator must
/// take that as worker death — re-lease, respawn and converge — not as a
/// fatal protocol error. `--die-after` can't produce this (it exits
/// between complete lines), so a wrapper script plays the part: the first
/// worker to start keeps its stdin as the lease channel, passes its stdout
/// through until two event frames have gone out, writes the first 40
/// bytes of the third, then kills the real worker and exits 137. Only
/// worker 0's first spawn does this; every other invocation (including
/// its respawn) runs the real worker.
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
        r#"#!/bin/sh
case " $* " in *" --name w0 "*) first=1 ;; *) first=0 ;; esac
if [ "$first" = 1 ] && mkdir "$NVMX_TORN_MARKER" 2>/dev/null; then
  out="$NVMX_TORN_MARKER/out"
  mkfifo "$out"
  exec 3<&0
  "$NVMX_REAL_WORKER" "$@" <&3 >"$out" &
  worker=$!
  frames=0
  while IFS= read -r line; do
    case "$line" in *'"seq":'*) frames=$((frames + 1)) ;; esac
    if [ "$frames" -gt 2 ]; then
      kill -9 "$worker"
      printf '%.40s' "$line"
      exit 137
    fi
    printf '%s\n' "$line"
  done <"$out"
  exit 137
fi
exec "$NVMX_REAL_WORKER" "$@"
"#,
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
        .args(SPREAD)
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
        stderr.contains("broke protocol")
            && stderr.contains("re-lease:")
            && stderr.contains("respawning"),
        "torn tail must take the death, re-lease and respawn path:\n{stderr}"
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
/// workers with one worker killed mid-lease and the other frozen past its
/// heartbeat deadline still converges — summary, results CSV, and fault-trial
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

    // Then the hostile run: worker 0 dies after 3 frames, worker 1 freezes
    // after 5, both mid-lease (2-slot leases). The frozen worker's
    // heartbeats stop, so it misses its 3 s deadline and is killed; both
    // respawn and their ranges are re-leased. The 5 s respawn backoff
    // keeps the killed worker out long enough that no idle worker can take
    // the frozen worker's lease for frame silence before its 3 s deadline
    // fires. Heartbeats come from a dedicated thread, so a long legitimate
    // compute gap (the classifier build before the fault phase) never
    // reads as a stall.
    let capture_dir = dir.path().join("hostile");
    let output = Command::new(COORDINATOR)
        .arg("run")
        .args(["--config".as_ref(), config.as_os_str()])
        .args(["--workers", "2"])
        .args(["--capture".as_ref(), capture_dir.as_os_str()])
        .args(["--worker-bin", WORKER])
        .args(["--lease-size", "2"])
        .args(["--inject-die", "0:3"])
        .args(["--inject-stall", "1:5"])
        .args(["--respawn-backoff", "5000"])
        .output()
        .unwrap();
    run_ok(&output, "coordinator run (fault, killed + stalled workers)");
    assert_eq!(stdout_line(&output), summary, "hostile merge diverged");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("respawning"),
        "no respawn observed:\n{stderr}"
    );
    assert!(
        stderr.contains("missed its heartbeat deadline"),
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

/// Runs `nvmx-coordinator run` on pipe leases at `--threads 1` and
/// returns the capture of study `name`.
fn threads_1_capture(
    dir: &Path,
    config: &Path,
    name: &str,
    workers: &str,
    extra: &[&str],
) -> String {
    let capture_dir = dir.join(format!("{name}-{workers}"));
    let output = Command::new(COORDINATOR)
        .arg("run")
        .args(["--config".as_ref(), config.as_os_str()])
        .args(["--workers", workers, "--threads", "1"])
        .args(extra)
        .args(["--capture".as_ref(), capture_dir.as_os_str()])
        .args(["--worker-bin", WORKER])
        .output()
        .unwrap();
    run_ok(&output, &format!("{name} at {workers} workers"));
    std::fs::read_to_string(capture_dir.join(format!("{name}.jsonl"))).unwrap()
}

/// Asserts two captures of study `name` are the same bytes, naming the
/// first line where they part.
fn assert_same_capture(name: &str, one: &str, other: &str) {
    let diverged = one.lines().zip(other.lines()).position(|(a, b)| a != b);
    assert_eq!(
        diverged, None,
        "{name}: captures differ at line {diverged:?}"
    );
    assert_eq!(one.len(), other.len(), "{name}: capture lengths differ");
}

/// Workers encode each evaluation only when a lease emits its slot. The
/// capture must still equal the one-worker capture byte for byte when
/// 5-slot leases over three workers cut each array's run of evaluations,
/// so every worker's encoder meets arrays out of order. At equal
/// `--threads` even `study_finished`'s cache counters match.
#[test]
fn five_slot_leases_over_three_workers_capture_the_one_worker_bytes() {
    let dir = TempDir::new("lazy");
    let multi = dir.path().join("multi.json");
    std::fs::write(&multi, MULTI_CONFIG).unwrap();
    let fault = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../config/fault_quickstart.json");
    for (config, name) in [(&multi, "dist-multi"), (&fault, "fault_quickstart")] {
        let one = threads_1_capture(dir.path(), config, name, "1", &[]);
        let three = threads_1_capture(dir.path(), config, name, "3", &["--lease-size", "5"]);
        assert!(
            one.lines().count() > 30,
            "{name}: stream too short to spread"
        );
        assert_same_capture(name, &one, &three);
    }
}

/// The coordinator takes a worker's frames in batches of up to 128, one
/// per read. With 200-slot leases over two workers, each lease spans
/// several batches, and the merger buffers whichever worker's batches
/// run ahead; the capture must still be the one-worker bytes.
#[test]
fn leases_longer_than_a_batch_capture_the_one_worker_bytes() {
    let dir = TempDir::new("batched");
    let config = dir.path().join("multi.json");
    let wide = MULTI_CONFIG
        .replace(r#""read_steps": 3"#, r#""read_steps": 6"#)
        .replace(r#""write_steps": 3"#, r#""write_steps": 6"#);
    assert_ne!(wide, MULTI_CONFIG, "the traffic grid must widen");
    std::fs::write(&config, wide).unwrap();
    let name = "dist-multi";
    let one = threads_1_capture(dir.path(), &config, name, "1", &[]);
    let two = threads_1_capture(dir.path(), &config, name, "2", &["--lease-size", "200"]);
    assert!(
        one.lines().count() >= 300,
        "stream of {} frames is too short to batch",
        one.lines().count()
    );
    assert_same_capture(name, &one, &two);
}

/// A worker whose respawn budget is exhausted is abandoned: its leases
/// flow to the surviving worker, the campaign completes, the summary
/// counts the abandonment, and the results still match the in-process run.
#[test]
fn exhausted_respawn_budget_degrades_to_a_recovery_worker() {
    let dir = TempDir::new("degrade");
    let config = write_config(dir.path(), CONFIG);
    let (summary, csv) = in_process_baseline(dir.path(), &config);

    let mut args = SPREAD.to_vec();
    args.extend(["--inject-die", "0:2", "--max-respawns", "0"]);
    let (output, capture) = coordinate(dir.path(), &config, 2, &args, "abandon");
    assert_eq!(stdout_line(&output), summary);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("exhausted its respawn budget"),
        "budget exhaustion not reported:\n{stderr}"
    );
    assert!(
        stderr.contains(", 1 workers abandoned"),
        "abandonment missing from the run summary:\n{stderr}"
    );

    let (replay_summary, replay_bytes) = replay_csv(dir.path(), &config, &capture, "abandon");
    assert_eq!(replay_summary, summary);
    assert_eq!(
        replay_bytes, csv,
        "run with an abandoned worker diverged from in-process run"
    );
}

/// The residue-class flags are gone: each is a usage error (exit 2)
/// before any worker spawns. The coordinator's retired flag names are
/// assembled from parts so that no source line spells them.
#[test]
fn retired_residue_flags_exit_2() {
    let dir = TempDir::new("retired");
    let config = write_config(dir.path(), CONFIG);
    for args in [
        vec![["--shard-stall", "-timeout"].concat(), "5".to_owned()],
        vec![
            "--inject-die".to_owned(),
            "0:2".to_owned(),
            ["--inject-die", "-always"].concat(),
        ],
    ] {
        let output = Command::new(COORDINATOR)
            .arg("run")
            .args(["--config".as_ref(), config.as_os_str()])
            .args(["--worker-bin", WORKER])
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "coordinator {args:?}");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("unknown flag"),
            "coordinator {args:?}"
        );
    }
    let output = Command::new(WORKER)
        .args(["--config".as_ref(), config.as_os_str()])
        .args(["--shard", "0/2", "--connect", "pipe"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "worker --shard");
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown flag `--shard`"));
}

/// A worker that exits before it says `hello` on a socket has no
/// connection whose end could report it: the coordinator's poll of its
/// children is the only detector. Two such workers, each respawned once,
/// leave no live worker, and the run fails instead of waiting forever.
#[test]
fn workers_exiting_before_hello_on_a_socket_are_detected_and_abandoned() {
    use std::os::unix::fs::PermissionsExt;

    let dir = TempDir::new("exit_at_once");
    let config = write_config(dir.path(), CONFIG);
    let script = dir.path().join("exit-at-once.sh");
    std::fs::write(&script, "#!/bin/sh\nexit 0\n").unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    for transport in ["unix", "tcp"] {
        let mut coordinator = Command::new(COORDINATOR)
            .arg("run")
            .args(["--config".as_ref(), config.as_os_str()])
            .args(["--transport", transport, "--max-respawns", "1"])
            .arg("--worker-bin")
            .arg(&script)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // Undetected deaths would leave the coordinator waiting forever.
        let deadline = Instant::now() + Duration::from_secs(60);
        while coordinator.try_wait().unwrap().is_none() {
            if Instant::now() > deadline {
                coordinator.kill().ok();
                coordinator.wait().ok();
                panic!("{transport}: the coordinator never saw its workers exit");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let output = coordinator.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{transport}:\n{stderr}");
        assert!(
            stderr.contains("all 2 workers are dead or abandoned"),
            "{transport}:\n{stderr}"
        );
    }
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
        .args(["--connect", "pipe"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "worker must exit 2");
    assert!(String::from_utf8_lossy(&output.stderr).contains("trafic"));

    // A worker without its lease channel is a usage error.
    let output = Command::new(WORKER)
        .arg("--config")
        .arg(&typo)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "worker without --connect");
    assert!(String::from_utf8_lossy(&output.stderr).contains("--connect is required"));

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
