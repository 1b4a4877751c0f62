//! Process-level proof for the campaign service: a real `nvmx-serve`
//! daemon on a TCP socket, warmed by earlier tenants, must hand `run
//! --connect` clients artifacts — summary stdout, results CSV, fault CSV —
//! byte-identical to a cold local `run` of the same config; concurrent
//! tenants and a client that disconnects mid-stream must not perturb
//! anyone else; `nvmx-client shutdown` must drain the daemon to exit 0.
//!
//! This is the socket half of the service equivalence bar — the
//! in-process half lives in `nvmexplorer_core`'s `service_equivalence`
//! test, and CI's `serve-smoke` job repeats the diff on the shipped
//! release binaries with a shared store.

use nvmexplorer_core::wire::{RequestFrame, ResponseFrame};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

const RUN: &str = env!("CARGO_BIN_EXE_run");
const SERVE: &str = env!("CARGO_BIN_EXE_nvmx-serve");
const CLIENT: &str = env!("CARGO_BIN_EXE_nvmx-client");

/// A small single-capacity study.
const QUICK_CONFIG: &str = r#"{
  "name": "serve-quick",
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

/// A multi-capacity study overlapping the quick one's subarrays, so a
/// warm server answers part of it from the shared cache.
const MULTI_CONFIG: &str = r#"{
  "name": "serve-multi",
  "cells": {
    "technologies": ["Stt", "Pcm"],
    "tentpoles": true,
    "reference_rram": false,
    "sram_baseline": true
  },
  "array": {"capacities_mib": [1, 2], "targets": ["ReadEdp", "Area"]},
  "traffic": {
    "kind": "explicit",
    "patterns": [
      {"name": "read-heavy", "read_bytes_per_sec": 2e9, "write_bytes_per_sec": 1e7, "access_bytes": 64},
      {"name": "write-heavy", "read_bytes_per_sec": 1e8, "write_bytes_per_sec": 4e8, "access_bytes": 64}
    ]
  }
}"#;

/// A fault campaign, so the fault terminal crosses the service socket.
const FAULT_CONFIG: &str = r#"{
  "name": "serve-fault",
  "cells": {
    "technologies": ["Rram"],
    "tentpoles": true,
    "reference_rram": false,
    "sram_baseline": false
  },
  "array": {"capacities_mib": [2], "targets": ["ReadEdp"]},
  "traffic": {
    "kind": "explicit",
    "patterns": [
      {"name": "t", "read_bytes_per_sec": 1e9, "write_bytes_per_sec": 1e7, "access_bytes": 64}
    ]
  },
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
            std::env::temp_dir().join(format!("nvmx_serve_eq_{label}_{}", std::process::id()));
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

/// A running `nvmx-serve`, killed on drop if the test never shut it down.
struct Daemon {
    child: Child,
    /// The resolved `tcp:127.0.0.1:PORT` spec from the daemon's stdout.
    spec: String,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral TCP port and waits for its
    /// `nvmx-serve listening <spec>` line.
    fn spawn(store: Option<&Path>) -> Self {
        Self::start(&mut Self::command(store))
    }

    /// The daemon's command line, for a test that adds to it.
    fn command(store: Option<&Path>) -> Command {
        let mut command = Command::new(SERVE);
        command
            .args(["--listen", "tcp:127.0.0.1:0", "--lanes", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(dir) = store {
            command.arg("--store").arg(dir);
        }
        command
    }

    /// Starts `command` and waits for its listening line.
    fn start(command: &mut Command) -> Self {
        let mut child = command.spawn().unwrap();
        let stdout = child.stdout.as_mut().unwrap();
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).unwrap();
        let spec = line
            .trim()
            .strip_prefix("nvmx-serve listening ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_owned();
        Self { child, spec }
    }

    /// Raw TCP connection to the daemon (for the disconnect test).
    fn connect_raw(&self) -> TcpStream {
        let addr = self.spec.strip_prefix("tcp:").unwrap();
        TcpStream::connect(addr).unwrap()
    }

    /// Sends each line on one raw connection and returns one decoded
    /// response per line.
    fn ask(&self, lines: &[String]) -> Vec<ResponseFrame> {
        let mut stream = self.connect_raw();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        lines
            .iter()
            .map(|line| {
                stream.write_all(format!("{line}\n").as_bytes()).unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                ResponseFrame::parse(response.trim_end()).unwrap()
            })
            .collect()
    }

    /// The daemon's virtual memory size in kB, from `/proc`.
    fn vm_size_kb(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).unwrap();
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmSize:"))
            .and_then(|kb| kb.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse().ok())
            .unwrap_or_else(|| panic!("no VmSize in:\n{status}"))
    }

    /// Sends `shutdown` via `nvmx-client` and asserts the daemon drains
    /// to exit 0, returning its full stderr for telemetry asserts.
    fn shutdown(mut self) -> String {
        let output = Command::new(CLIENT)
            .args(["--connect", &self.spec, "shutdown"])
            .output()
            .unwrap();
        run_ok(&output, "nvmx-client shutdown");
        let status = self.child.wait().unwrap();
        let mut stderr = String::new();
        self.child
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .unwrap();
        assert!(
            status.success(),
            "daemon must drain to exit 0, got {status}:\n{stderr}"
        );
        assert!(
            stderr.contains("nvmx-serve drained:"),
            "drain telemetry missing:\n{stderr}"
        );
        stderr
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
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

struct Artifacts {
    stdout: Vec<u8>,
    results_csv: Vec<u8>,
    fault_csv: Option<Vec<u8>>,
}

/// Runs the `run` binary (locally, or against `connect`) and collects
/// every artifact it writes for `name`.
fn run_artifacts(dir: &Path, config: &Path, name: &str, connect: Option<&str>) -> Artifacts {
    let label = connect.map_or("local", |_| "remote");
    let out_dir = dir.join(format!("{name}_{label}"));
    let mut command = Command::new(RUN);
    command.arg(config).env("NVMX_OUT", &out_dir);
    if let Some(spec) = connect {
        command.args(["--connect", spec]);
    }
    let output = command.output().unwrap();
    run_ok(&output, &format!("run ({name}, {label})"));
    let fault_path = out_dir.join(format!("{name}_fault.csv"));
    Artifacts {
        stdout: output.stdout.clone(),
        results_csv: std::fs::read(out_dir.join(format!("{name}_results.csv"))).unwrap(),
        fault_csv: fault_path
            .is_file()
            .then(|| std::fs::read(&fault_path).unwrap()),
    }
}

fn assert_artifacts_identical(label: &str, local: &Artifacts, remote: &Artifacts) {
    assert_eq!(
        local.stdout, remote.stdout,
        "{label}: summary stdout diverged"
    );
    assert_eq!(
        local.results_csv, remote.results_csv,
        "{label}: results CSV diverged"
    );
    assert_eq!(
        local.fault_csv, remote.fault_csv,
        "{label}: fault CSV diverged"
    );
}

fn write_config(dir: &Path, name: &str, json: &str) -> PathBuf {
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json).unwrap();
    path
}

/// The tentpole acceptance scenario end to end: a store-backed daemon
/// serves cold then warm sessions whose artifacts byte-match local runs;
/// two tenants submit concurrently; a client that drops mid-stream harms
/// nobody; `status` renders; shutdown drains to exit 0 with per-session
/// telemetry on stderr.
#[test]
fn warm_server_artifacts_match_local_runs_byte_for_byte() {
    let dir = TempDir::new("tenants");
    let store = dir.path().join("store");
    let daemon = Daemon::spawn(Some(&store));
    let spec = daemon.spec.clone();

    let quick = write_config(dir.path(), "serve-quick", QUICK_CONFIG);
    let multi = write_config(dir.path(), "serve-multi", MULTI_CONFIG);
    let fault = write_config(dir.path(), "serve-fault", FAULT_CONFIG);

    // Local baselines, each fully cold (no store, no shared cache).
    let local_quick = run_artifacts(dir.path(), &quick, "serve-quick", None);
    let local_multi = run_artifacts(dir.path(), &multi, "serve-multi", None);
    let local_fault = run_artifacts(dir.path(), &fault, "serve-fault", None);

    // Cold server session, then a warm repeat of the same config.
    let cold = run_artifacts(dir.path(), &quick, "serve-quick", Some(&spec));
    assert_artifacts_identical("cold serve vs local", &local_quick, &cold);
    let warm = run_artifacts(dir.path(), &quick, "serve-quick", Some(&spec));
    assert_artifacts_identical("warm serve vs local", &local_quick, &warm);

    // A client that vanishes mid-stream: submit over a raw socket, read a
    // few frames, drop the connection. The session keeps running against
    // the server-side log; nothing downstream may notice.
    {
        let mut socket = daemon.connect_raw();
        let submit = RequestFrame::Submit {
            priority: 0,
            config: serde_json::from_str(MULTI_CONFIG).unwrap(),
        };
        socket
            .write_all(format!("{}\n", submit.to_line()).as_bytes())
            .unwrap();
        let mut reader = BufReader::new(socket);
        let mut line = String::new();
        for _ in 0..3 {
            line.clear();
            reader.read_line(&mut line).unwrap();
        }
        // Dropped here, mid-stream.
    }

    // Two tenants concurrently on the daemon's two lanes, right after the
    // disconnect — both must still byte-match their local baselines.
    let (warm_multi, warm_fault) = std::thread::scope(|scope| {
        let multi = scope.spawn(|| run_artifacts(dir.path(), &multi, "serve-multi", Some(&spec)));
        let fault = scope.spawn(|| run_artifacts(dir.path(), &fault, "serve-fault", Some(&spec)));
        (multi.join().unwrap(), fault.join().unwrap())
    });
    assert_artifacts_identical("concurrent tenant (multi)", &local_multi, &warm_multi);
    assert_artifacts_identical("concurrent tenant (fault)", &local_fault, &warm_fault);

    // `status` renders the session table and the shared cache counters.
    let status = Command::new(CLIENT)
        .args(["--connect", &spec, "status"])
        .output()
        .unwrap();
    run_ok(&status, "nvmx-client status");
    let table = String::from_utf8_lossy(&status.stdout);
    assert!(table.contains("finished"), "no finished sessions:\n{table}");
    assert!(table.contains("cache hits="), "no cache line:\n{table}");

    // Graceful drain: exit 0, per-session telemetry lines (the CI grep
    // target), and warm-cache evidence — the repeat and overlapping
    // sessions must have hit the shared cache.
    let stderr = daemon.shutdown();
    assert!(
        stderr.contains("session 1 (serve-quick): finished cache hits="),
        "per-session telemetry missing:\n{stderr}"
    );
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("session ") && !l.contains(" hits=0 ")),
        "no session ever hit the warm shared cache:\n{stderr}"
    );

    // The store directory was actually used as the L2.
    assert!(store.is_dir(), "store directory never created");
}

/// `run --connect` usage contract: `--store` belongs to the server, and a
/// malformed config is rejected with exit 2 (client-side validation runs
/// before submission) with the offending section named.
#[test]
fn remote_usage_and_rejection_exit_codes() {
    let dir = TempDir::new("usage");
    let daemon = Daemon::spawn(None);
    let spec = daemon.spec.clone();

    let config = write_config(dir.path(), "serve-quick", QUICK_CONFIG);
    let output = Command::new(RUN)
        .arg(&config)
        .args(["--connect", &spec, "--store", "somewhere"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "--store with --connect");

    let broken = write_config(
        dir.path(),
        "broken",
        r#"{"name": "x", "traffic": {"kind": "quantum_tunnel"}}"#,
    );
    let output = Command::new(RUN)
        .arg(&broken)
        .args(["--connect", &spec])
        .output()
        .unwrap();
    assert_eq!(
        output.status.code(),
        Some(2),
        "server-rejected config must exit 2:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("traffic"),
        "rejection must name the section"
    );

    daemon.shutdown();

    // Every submit is queued before a lane claims it, so a daemon bounded
    // at 0 could admit nothing: the bound is a usage error.
    let output = Daemon::command(None)
        .args(["--capacity", "0"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "--capacity 0");
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("--capacity expects an integer >= 1"),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// One deeply nested request line is a bad request, not a crashed daemon:
/// a ~20 KB `submit` whose config nests 10,000 levels and a ~200 KB
/// `status` carrying a 100,000-level field each get an `error` response,
/// and the daemon keeps answering other connections.
#[test]
fn deeply_nested_requests_get_an_error_and_the_daemon_survives() {
    let daemon = Daemon::spawn(None);
    let submit = format!(
        r#"{{"v":4,"request":"submit","config":{}1{}}}"#,
        r#"{"k":"#.repeat(10_000),
        "}".repeat(10_000)
    );
    let status = format!(
        r#"{{"v":4,"request":"status","x":{}1{}}}"#,
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    for response in daemon.ask(&[submit, status]) {
        match response {
            ResponseFrame::Error { reason } => {
                assert!(reason.contains("nests deeper"), "{reason}");
            }
            other => panic!("expected an error response, got {other:?}"),
        }
    }
    let answer = daemon.ask(&[RequestFrame::Status.to_line()]);
    assert!(
        matches!(answer[..], [ResponseFrame::Status { .. }]),
        "{answer:?}"
    );
    daemon.shutdown();
}

/// Finished connection handlers are released as the daemon goes: 300
/// sequential `status` connections must not leave 300 thread stacks
/// (2 MiB each) mapped.
///
/// glibc reserves 64 MiB of address space for each malloc arena it
/// creates, and it creates one whenever two handler threads happen to
/// overlap — a one-off reservation, bounded by its arena limit, that
/// would swamp the bound at random. `MALLOC_ARENA_MAX=1` keeps every
/// thread on the main arena, so the thread stacks are what is measured.
#[test]
fn finished_connections_release_their_threads() {
    let mut command = Daemon::command(None);
    command.env("MALLOC_ARENA_MAX", "1");
    let daemon = Daemon::start(&mut command);
    let status = [RequestFrame::Status.to_line()];
    daemon.ask(&status);
    let before = daemon.vm_size_kb();
    for _ in 0..300 {
        let answer = daemon.ask(&status);
        assert!(matches!(answer[..], [ResponseFrame::Status { .. }]));
    }
    let grown = daemon.vm_size_kb().saturating_sub(before);
    assert!(
        grown < 64 * 1024,
        "300 connections grew VmSize by {grown} kB"
    );
    daemon.shutdown();
}
