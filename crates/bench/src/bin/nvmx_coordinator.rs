//! `nvmx-coordinator` — distributed campaign runner over the JSONL wire
//! protocol.
//!
//! `run` shards each study of a campaign across N local `nvmx-worker`
//! processes (residue-class shards `0/N .. N-1/N` of the deterministic
//! event-slot space), merges their wire streams back into strict slot
//! order with `core::wire::SlotMerger`, and feeds the merged stream to the
//! study's configured result sinks plus an optional capture file. Worker
//! death is survivable: a dead shard is re-spawned (workers are
//! deterministic, so the replacement re-emits its whole residue class) and
//! duplicate slots are deduplicated by sequence number, so the rebuilt
//! `StudyResult` is byte-identical to an in-process run — as is the
//! merged stream, except possibly the *observational* cache counters on
//! the final `study_finished` line (each worker has its own cache, and
//! racing threads may double-count a miss; see the core stream docs).
//! Studies in a multi-config campaign are distributed
//! over supervisor lanes with the same lock-free queue discipline as
//! `core::scheduler::StudyScheduler`.
//!
//! Fault-injection campaigns (configs with a top-level `fault` section)
//! are first-class: the fault stream shards, merges, resumes, and replays
//! exactly like a plain study — per-trial injection seeds ride the wire,
//! so a respawned worker's trials are bit-identical — and the summary and
//! `--fault-csv` artifacts diff clean against the in-process `run` binary.
//!
//! Failure handling goes beyond death: a shard that owns the next
//! expected slot but emits nothing for `--shard-stall-timeout` seconds is
//! declared hung, killed, and respawned (with deterministic exponential
//! `--respawn-backoff`); a shard that exhausts `--max-respawns` degrades
//! gracefully — one final recovery worker with every injection hook
//! disarmed re-covers its residue class, and the degradation is reported
//! in the run summary.
//!
//! `--transport pipe|tcp|unix` switches the campaign from fixed residue
//! classes to the version-4 *lease* protocol (`core::reshard`): workers
//! say `hello` over a framed connection (child pipes, a TCP listener, or
//! a Unix socket — the socket families are how shards on other hosts
//! join), heartbeat from a dedicated thread, and emit only the slot
//! ranges the coordinator leases to them. The supervisor measures
//! per-worker throughput with an EWMA, kills workers that miss their
//! heartbeat deadline, re-leases a dead or stalled worker's undrained
//! ranges to healthy ones (capped exponential respawn backoff; past
//! `--max-respawns` the worker is abandoned and its leases simply flow to
//! the survivors), and lets idle fast workers steal the undelivered tail
//! from slow ones. Merged output stays slot-ordered and byte-identical
//! to a local run; every re-leased range is reported in the summary.
//!
//! `replay` strictly re-reads a captured `.jsonl` (rejecting unknown
//! versions, out-of-order or duplicate slots, and truncation) and rebuilds
//! the byte-identical `StudyResult` via `StudyResultBuilder`, optionally
//! writing the canonical results CSV for diffing against a live run.
//!
//! ```text
//! nvmx-coordinator run --config config/quickstart.json --workers 2 --capture output/wire
//! nvmx-coordinator replay --input output/wire/quickstart.jsonl \
//!     --config config/quickstart.json --csv output/quickstart_replay.csv
//! ```
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage/config error.

use nvmexplorer_core::config::CampaignConfig;
use nvmexplorer_core::fault_study::FaultOutcome;
use nvmexplorer_core::fsutil::AtomicFileWriter;
use nvmexplorer_core::reshard::{Action, ReshardConfig, Resharder};
use nvmexplorer_core::scheduler::run_on_lanes;
use nvmexplorer_core::sweep::StudyResult;
use nvmexplorer_core::transport::{read_frame_line, Endpoint, Listener, TransportKind};
use nvmexplorer_core::wire::{
    EventReplayer, LeaseFrame, OwnedStudyEvent, SlotMerger, WireFrame, WorkerFrame, WorkerLine,
};
use nvmx_bench::campaign::{
    fault_csv, fault_summary_line, load_campaign, results_csv, summary_line,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  nvmx-coordinator run --config <study.json> [--config <more.json> ...]
      [--workers N] [--threads T] [--lanes L] [--capture DIR] [--store DIR]
      [--worker-bin PATH] [--max-respawns K] [--respawn-backoff MS]
      [--shard-stall-timeout SECS] [--transport pipe|tcp|unix] [--lease-size SLOTS]
      [--inject-die SHARD:FRAMES] [--inject-die-always]
      [--inject-stall SHARD:FRAMES] [--inject-throttle SHARD:MS]
  nvmx-coordinator replay --input <capture.jsonl>
      [--config <study.json>] [--csv PATH] [--fault-csv PATH]";

fn main() {
    let mut args = std::env::args().skip(1);
    let code = match args.next().as_deref() {
        Some("run") => cmd_run(args.collect()),
        Some("replay") => cmd_replay(args.collect()),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

// ------------------------------------------------------------------- run

struct RunOptions {
    configs: Vec<String>,
    workers: u64,
    threads: Option<usize>,
    lanes: usize,
    capture: Option<PathBuf>,
    /// Persistent characterization store directory, forwarded to every
    /// worker shard (`--store`), so all shards on this host share warm
    /// physics. Overrides the configs' `store` sections.
    store: Option<String>,
    worker_bin: PathBuf,
    inject_die: Option<(u64, u64)>,
    /// Re-arm `--inject-die` on every respawn of the victim shard, so its
    /// respawn budget deterministically exhausts — the graceful-degradation
    /// test hook.
    inject_die_always: bool,
    inject_stall: Option<(u64, u64)>,
    /// Slow-worker injection for leased mode: the victim sleeps this many
    /// milliseconds per emitted frame, so its leases drain slowly and the
    /// resharder's steal policy has something to migrate.
    inject_throttle: Option<(u64, u64)>,
    max_respawns: u32,
    /// Base of the deterministic exponential respawn backoff:
    /// `base · 2^(attempt-1)` ms, capped at [`MAX_BACKOFF_MS`]. Zero (the
    /// default) respawns immediately.
    respawn_backoff_ms: u64,
    /// A shard that owns the next expected slot but emits nothing for this
    /// long is declared hung, killed, and respawned like a dead one. In
    /// leased mode this is the heartbeat deadline instead (default 3 s —
    /// heartbeats flow regardless of compute progress, so the deadline can
    /// be much tighter than the residue-mode stall timeout's 300 s).
    stall_timeout: Option<Duration>,
    /// `--transport` switches from residue-class shards to the lease
    /// protocol over the given connection family.
    transport: Option<TransportKind>,
    /// Fixed lease size in slots (leased mode). Overrides the adaptive
    /// EWMA sizing — mainly a test/CI hook to force leases to spread over
    /// every worker on small streams.
    lease_size: Option<u64>,
}

/// Ceiling on one backoff sleep, however high the attempt count climbs.
const MAX_BACKOFF_MS: u64 = 10_000;

/// Residue-mode default for `--shard-stall-timeout`.
const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(300);

fn parse_run_args(args: Vec<String>) -> Result<RunOptions, String> {
    let mut configs = Vec::new();
    let mut workers = 2;
    let mut threads = None;
    let mut lanes = 1;
    let mut capture = None;
    let mut store = None;
    let mut worker_bin = None;
    let mut inject_die = None;
    let mut inject_die_always = false;
    let mut inject_stall = None;
    let mut inject_throttle = None;
    let mut max_respawns = 3;
    let mut respawn_backoff_ms = 0;
    let mut stall_timeout = None;
    let mut transport = None;
    let mut lease_size = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--config" => configs.push(value("--config")?),
            "--workers" => {
                workers = value("--workers")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--workers expects an integer >= 1")?;
            }
            "--threads" => {
                threads = Some(
                    value("--threads")?
                        .parse::<usize>()
                        .map_err(|_| "--threads expects an unsigned integer".to_owned())?,
                );
            }
            "--lanes" => {
                lanes = value("--lanes")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--lanes expects an integer >= 1")?;
            }
            "--capture" => capture = Some(PathBuf::from(value("--capture")?)),
            "--store" => store = Some(value("--store")?),
            "--worker-bin" => worker_bin = Some(PathBuf::from(value("--worker-bin")?)),
            "--inject-die" => {
                inject_die = Some(parse_injection("--inject-die", &value("--inject-die")?)?);
            }
            "--inject-die-always" => inject_die_always = true,
            "--inject-stall" => {
                inject_stall = Some(parse_injection(
                    "--inject-stall",
                    &value("--inject-stall")?,
                )?);
            }
            "--inject-throttle" => {
                inject_throttle = Some(parse_injection(
                    "--inject-throttle",
                    &value("--inject-throttle")?,
                )?);
            }
            "--transport" => transport = Some(TransportKind::parse(&value("--transport")?)?),
            "--lease-size" => {
                lease_size = Some(
                    value("--lease-size")?
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("--lease-size expects an integer >= 1")?,
                );
            }
            "--max-respawns" => {
                max_respawns = value("--max-respawns")?
                    .parse::<u32>()
                    .map_err(|_| "--max-respawns expects an unsigned integer".to_owned())?;
            }
            "--respawn-backoff" => {
                respawn_backoff_ms = value("--respawn-backoff")?
                    .parse::<u64>()
                    .map_err(|_| "--respawn-backoff expects milliseconds".to_owned())?;
            }
            "--shard-stall-timeout" => {
                let secs = value("--shard-stall-timeout")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--shard-stall-timeout expects seconds > 0")?;
                stall_timeout = Some(Duration::from_secs_f64(secs));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if configs.is_empty() {
        return Err("at least one --config is required".to_owned());
    }
    for (flag, spec) in [
        ("--inject-die", inject_die),
        ("--inject-stall", inject_stall),
        ("--inject-throttle", inject_throttle),
    ] {
        if let Some((victim, _)) = spec {
            if victim >= workers {
                return Err(format!(
                    "{flag} shard {victim} is out of range for --workers {workers} \
                     (valid shards: 0..{workers})"
                ));
            }
        }
    }
    if inject_die_always && inject_die.is_none() {
        return Err("--inject-die-always needs --inject-die".to_owned());
    }
    if inject_throttle.is_some() && transport.is_none() {
        return Err("--inject-throttle needs --transport (leased mode only)".to_owned());
    }
    if lease_size.is_some() && transport.is_none() {
        return Err("--lease-size needs --transport (leased mode only)".to_owned());
    }
    Ok(RunOptions {
        configs,
        workers,
        threads,
        lanes,
        capture,
        store,
        worker_bin: worker_bin.unwrap_or_else(default_worker_bin),
        inject_die,
        inject_die_always,
        inject_stall,
        inject_throttle,
        max_respawns,
        respawn_backoff_ms,
        stall_timeout,
        transport,
        lease_size,
    })
}

/// Parses a `SHARD:FRAMES` failure-injection spec.
fn parse_injection(flag: &str, spec: &str) -> Result<(u64, u64), String> {
    let (shard, frames) = spec
        .split_once(':')
        .ok_or_else(|| format!("{flag} `{spec}` is not SHARD:FRAMES"))?;
    Ok((
        shard
            .parse::<u64>()
            .map_err(|_| format!("{flag} shard must be an unsigned integer"))?,
        frames
            .parse::<u64>()
            .map_err(|_| format!("{flag} frames must be an unsigned integer"))?,
    ))
}

/// The worker binary ships next to the coordinator.
fn default_worker_bin() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .map(|dir| dir.join(format!("nvmx-worker{}", std::env::consts::EXE_SUFFIX)))
        })
        .unwrap_or_else(|| PathBuf::from("nvmx-worker"))
}

fn cmd_run(args: Vec<String>) -> i32 {
    let options = match parse_run_args(args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    // Load every config up front: a typo'd campaign fails before any
    // worker spawns, with the offending file and section named.
    let mut campaign = Vec::new();
    for path in &options.configs {
        match load_campaign(path) {
            Ok(config) => campaign.push((path.clone(), config)),
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }
    // Study names key the capture files (`<dir>/<name>.jsonl`) and the
    // summary lines; duplicates would silently clobber one capture with
    // another (or interleave them under concurrent lanes).
    for (i, (path, config)) in campaign.iter().enumerate() {
        if let Some((other, _)) = campaign[..i]
            .iter()
            .find(|(_, earlier)| earlier.name() == config.name())
        {
            eprintln!(
                "duplicate study name `{}`: declared by both `{other}` and `{path}`",
                config.name()
            );
            return 2;
        }
    }
    if let Some(dir) = &options.capture {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create capture directory `{}`: {e}", dir.display());
            return 1;
        }
    }

    // Studies are distributed over supervisor lanes exactly like the
    // in-process scheduler distributes them over executor lanes.
    let outcomes = run_on_lanes(&campaign, options.lanes, |_, (path, config)| match options
        .transport
    {
        Some(kind) => run_leased_study(path, config, &options, kind),
        None => run_distributed_study(path, config, &options),
    });

    let mut code = 0;
    for ((path, config), outcome) in campaign.iter().zip(outcomes) {
        let study = config.study();
        match outcome {
            Ok(run) => {
                match &run.fault {
                    Some(fault) => println!("{}", fault_summary_line(study, &run.result, fault)),
                    None => println!("{}", summary_line(study, &run.result)),
                }
                eprintln!(
                    "  [{}] {} workers, {} frames merged, {} duplicate slots deduped, {} respawns{}{}{}",
                    study.name,
                    options.workers,
                    run.frames,
                    run.duplicates,
                    run.respawns,
                    match run.migrations {
                        0 => String::new(),
                        n => format!(", {n} slot ranges re-leased"),
                    },
                    match run.abandoned {
                        0 => String::new(),
                        n => match options.transport {
                            Some(_) => format!(", {n} workers abandoned"),
                            None => format!(", {n} shards degraded to recovery workers"),
                        },
                    },
                    match &run.capture {
                        Some(p) => format!(", capture -> {}", p.display()),
                        None => String::new(),
                    }
                );
            }
            Err(e) => {
                eprintln!("study `{}` ({path}) failed: {e}", study.name);
                code = 1;
            }
        }
    }
    code
}

/// What one distributed study run produced.
struct DistributedRun {
    result: StudyResult,
    fault: Option<FaultOutcome>,
    frames: u64,
    duplicates: u64,
    respawns: u32,
    /// Slot ranges that moved between workers (leased mode; always zero
    /// under residue-class sharding).
    migrations: u64,
    /// Shards that exhausted their respawn budget: re-covered by an
    /// unarmed recovery worker in residue mode, abandoned (leases flow to
    /// the survivors) in leased mode.
    abandoned: u32,
    capture: Option<PathBuf>,
}

/// Messages from a per-worker stdout reader thread to the merge loop.
enum Msg {
    /// A parsed frame plus the raw line it came from (written verbatim to
    /// the capture — no re-serialization on the merge hot path).
    Frame(Box<(WireFrame, String)>),
    /// A line failed strict parsing (corrupt or wrong protocol version).
    Bad(String),
    /// The worker's stream ended.
    Eof { ok: bool, detail: String },
}

/// How many frames one shard's channel may buffer before its reader
/// thread blocks in `send`. A blocked reader stops draining the worker's
/// stdout pipe, the pipe fills, and the worker itself blocks on `write` —
/// OS backpressure end to end. The *transport* therefore holds at most
/// `workers × CAP` frames in flight regardless of study size, even while
/// a dead shard is re-run from scratch and the live shards race ahead.
/// (The coordinator's total footprint is still O(study): like the
/// in-process `run` binary, it assembles the full `StudyResult` for the
/// summary and results CSV — the bounded part is the merge path, not the
/// result assembly.)
const SHARD_QUEUE_CAP: usize = 64;

/// Locks a mutex, riding through poisoning (a reader thread that panicked
/// while holding the child lock must not take the merge loop down with it
/// — the child state is a plain handle, valid regardless).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Spawns one worker process for `shard` and a reader thread pumping its
/// stdout into `tx` (a bounded [`mpsc::sync_channel`]). The child is held
/// behind a shared kill handle: the reader locks it to kill (protocol
/// breakage, merge loop gone) and to reap on EOF, while the merge loop
/// holds a clone so the stall detector can kill a hung worker that will
/// never EOF on its own. Every exit path of [`run_distributed_study`]
/// drops the receivers, which surfaces to the reader as a `send` error, so
/// no error path can strand a live worker.
fn spawn_shard(
    path: &str,
    shard: u64,
    options: &RunOptions,
    die_after: Option<u64>,
    stall_after: Option<u64>,
    tx: mpsc::SyncSender<Msg>,
) -> Result<Arc<Mutex<Child>>, String> {
    let mut command = Command::new(&options.worker_bin);
    command
        .arg("--config")
        .arg(path)
        .arg("--shard")
        .arg(format!("{shard}/{}", options.workers))
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if let Some(threads) = options.threads {
        command.arg("--threads").arg(threads.to_string());
    }
    if let Some(store) = &options.store {
        command.arg("--store").arg(store);
    }
    if let Some(frames) = die_after {
        command.arg("--die-after").arg(frames.to_string());
    }
    if let Some(frames) = stall_after {
        command.arg("--stall-after").arg(frames.to_string());
    }
    let mut child = command.spawn().map_err(|e| {
        format!(
            "cannot spawn worker `{}`: {e}",
            options.worker_bin.display()
        )
    })?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let handle = Arc::new(Mutex::new(child));
    let child = Arc::clone(&handle);
    std::thread::spawn(move || {
        let mut ok = true;
        let mut detail = String::new();
        let mut killed = false;
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            match read_frame_line(&mut reader, &mut line) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    ok = false;
                    detail = format!("read error: {e}");
                    break;
                }
            }
            let line = std::mem::take(&mut line);
            if line.trim().is_empty() {
                continue;
            }
            match WireFrame::parse(&line) {
                Ok(frame) => {
                    if tx.send(Msg::Frame(Box::new((frame, line)))).is_err() {
                        // Receiver gone: nobody wants the rest of this
                        // stream, so stop the worker instead of letting it
                        // burn CPU computing results that will be dropped.
                        killed = true;
                        break;
                    }
                }
                Err(e) => {
                    // An unparseable line is one of two very different
                    // things. If the stream *continues* past it, the worker
                    // is alive and speaking garbage — a protocol failure,
                    // fatal to the study. If it is the last thing in the
                    // pipe, it is the torn tail a SIGKILL/OOM-kill leaves
                    // when the worker died mid-write — that is worker
                    // *death*, and the respawn path must get its chance.
                    let mut next = String::new();
                    if !matches!(read_frame_line(&mut reader, &mut next), Ok(false)) {
                        ok = false;
                        detail = e.to_string();
                        let _ = tx.send(Msg::Bad(e.to_string()));
                        killed = true;
                        break;
                    }
                    ok = false;
                    detail = format!("stream ended in a torn line ({e})");
                    break;
                }
            }
        }
        if killed {
            lock(&child).kill().ok();
        }
        let status = lock(&child).wait();
        if !killed {
            let exited_ok = matches!(&status, Ok(s) if s.success());
            if ok && !exited_ok {
                ok = false;
                detail = match status {
                    Ok(s) => format!("worker exited with {s}"),
                    Err(e) => format!("wait failed: {e}"),
                };
            }
            let _ = tx.send(Msg::Eof { ok, detail });
        }
    });
    Ok(handle)
}

fn run_distributed_study(
    path: &str,
    config: &CampaignConfig,
    options: &RunOptions,
) -> Result<DistributedRun, String> {
    let study = config.study();
    let shards = options.workers;
    let capture_path = options
        .capture
        .as_ref()
        .map(|dir| dir.join(format!("{}.jsonl", study.name)));
    // The capture streams through the shared atomic writer — a hidden
    // sibling temp file renamed into place only after the merged stream
    // completed and flushed — so a killed coordinator can never leave a
    // torn capture at the published path.
    let mut capture = match &capture_path {
        Some(p) => Some(std::io::BufWriter::new(
            AtomicFileWriter::create(p)
                .map_err(|e| format!("cannot create capture `{}`: {e}", p.display()))?,
        )),
        None => None,
    };
    let mut spec_sinks = nvmx_viz::sink::SpecSinks::new(&study.output)
        .map_err(|e| format!("cannot open output sinks: {e}"))?;

    // One bounded channel per shard. The receivers live in this function's
    // scope, so *every* exit path — including a failed spawn below —
    // drops them, which errors out the reader threads' sends and makes
    // them kill + reap their workers. No error path strands a process.
    let mut senders = Vec::with_capacity(usize::try_from(shards).expect("fits usize"));
    let mut receivers = Vec::with_capacity(senders.capacity());
    for _ in 0..shards {
        let (tx, rx) = mpsc::sync_channel::<Msg>(SHARD_QUEUE_CAP);
        senders.push(tx);
        receivers.push(rx);
    }
    let mut handles = Vec::with_capacity(senders.capacity());
    for shard in 0..shards {
        let die_after = options
            .inject_die
            .filter(|&(victim, _)| victim == shard)
            .map(|(_, frames)| frames);
        let stall_after = options
            .inject_stall
            .filter(|&(victim, _)| victim == shard)
            .map(|(_, frames)| frames);
        let index = usize::try_from(shard).expect("shard fits usize");
        handles.push(spawn_shard(
            path,
            shard,
            options,
            die_after,
            stall_after,
            senders[index].clone(),
        )?);
    }

    let stall_timeout = options.stall_timeout.unwrap_or(DEFAULT_STALL_TIMEOUT);
    let mut merger: SlotMerger<(WireFrame, String)> = SlotMerger::new();
    let mut replayer = EventReplayer::new();
    let mut finished = false;
    let mut frames = 0u64;
    let mut respawns = 0u32;
    let shard_count = usize::try_from(shards).expect("shard count fits usize");
    let mut attempts = vec![0u32; shard_count];
    // Shards that exhausted their respawn budget and are now covered by an
    // unarmed recovery worker. A second failure after that is fatal.
    let mut abandoned = vec![false; shard_count];

    // Slot `seq` can only come from shard `seq % n`, so the merge loop
    // receives exclusively from the shard that owns the next expected
    // slot. Shards running ahead park in their own bounded channels (and,
    // transitively, their stdout pipes) instead of accumulating in
    // coordinator memory.
    let mut merge = || -> Result<(), String> {
        while !finished {
            let owner = usize::try_from(merger.next_expected() % shards).expect("fits usize");
            // We hold a sender per shard (for respawns), so the channel
            // can never disconnect under us. The timeout is the stall
            // detector: the owner of the next expected slot emitting
            // nothing for that long means it is hung (a worker that
            // *died* EOFs immediately), so it is killed and takes the
            // same respawn path as a dead one.
            let msg = match receivers[owner].recv_timeout(stall_timeout) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => {
                    eprintln!(
                        "  [{}] shard {owner}/{shards} stalled (no frame for {:.1}s); killing",
                        study.name,
                        stall_timeout.as_secs_f64()
                    );
                    lock(&handles[owner]).kill().ok();
                    // The reader sees EOF and reports the death through
                    // the normal channel; loop back around to handle it.
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("a sender is always held")
                }
            };
            match msg {
                Msg::Frame(boxed) => {
                    let (frame, line) = *boxed;
                    if frame.study != study.name {
                        return Err(format!(
                            "worker streamed study `{}`, expected `{}`",
                            frame.study, study.name
                        ));
                    }
                    let seq = frame.seq;
                    // Deliver each slot exactly once, in slot order: the
                    // raw worker line verbatim to the capture (parse →
                    // encode is the identity, but why pay the re-encode),
                    // the decoded event (winners re-linked) into the
                    // study's configured sinks. A respawned worker's
                    // replayed prefix arrives as duplicates and is dropped
                    // by the merger.
                    merger
                        .offer(seq, (frame, line), &mut |_seq,
                                                         (frame, line): (
                            WireFrame,
                            String,
                        )| {
                            if let Some(out) = capture.as_mut() {
                                writeln!(out, "{line}")?;
                            }
                            if matches!(
                                frame.event,
                                OwnedStudyEvent::StudyFinished { .. }
                                    | OwnedStudyEvent::FaultStudyFinished { .. }
                            ) {
                                finished = true;
                            }
                            replayer.apply(&frame.event, &mut spec_sinks)?;
                            frames += 1;
                            Ok::<(), std::io::Error>(())
                        })
                        .map_err(|e| format!("sink failed at slot {seq}: {e}"))?;
                }
                Msg::Bad(detail) => {
                    return Err(format!("shard {owner}/{shards}: {detail}"));
                }
                Msg::Eof { ok: true, .. } => {
                    // A worker that exits 0 has emitted its whole residue
                    // class, so its queue cannot run dry while it still
                    // owns the next slot — unless the worker is broken.
                    return Err(format!(
                        "shard {owner}/{shards} ended cleanly before the stream completed"
                    ));
                }
                Msg::Eof { ok: false, detail } => {
                    if attempts[owner] >= options.max_respawns {
                        if abandoned[owner] {
                            return Err(format!(
                                "shard {owner}/{shards} failed {} times and its recovery \
                                 worker failed too (last: {detail})",
                                attempts[owner] + 1
                            ));
                        }
                        // Graceful degradation: the shard's respawn budget
                        // is spent, but its residue class is recoverable —
                        // sharding partitions *emission*, not computation,
                        // so one final worker with every injection hook
                        // disarmed re-covers the lost slots and the
                        // campaign completes.
                        abandoned[owner] = true;
                        eprintln!(
                            "  [{}] shard {owner}/{shards} exhausted its respawn budget \
                             ({} attempts; last: {detail}); degrading to an unarmed \
                             recovery worker",
                            study.name,
                            attempts[owner] + 1
                        );
                        handles[owner] = spawn_shard(
                            path,
                            owner as u64,
                            options,
                            None,
                            None,
                            senders[owner].clone(),
                        )?;
                        continue;
                    }
                    attempts[owner] += 1;
                    respawns += 1;
                    eprintln!(
                        "  [{}] shard {owner}/{shards} died ({detail}); respawning (attempt {})",
                        study.name, attempts[owner]
                    );
                    // Deterministic exponential backoff before the respawn:
                    // base · 2^(attempt-1), capped. Zero base (the default)
                    // respawns immediately.
                    let backoff = options
                        .respawn_backoff_ms
                        .saturating_mul(1u64 << (attempts[owner] - 1).min(31))
                        .min(MAX_BACKOFF_MS);
                    if backoff > 0 {
                        std::thread::sleep(Duration::from_millis(backoff));
                    }
                    // Respawns re-arm the crash injection only under
                    // `--inject-die-always` (the degradation test hook);
                    // otherwise the fresh worker runs clean, re-emits its
                    // whole residue class, and the merger dedups the slots
                    // that already arrived.
                    let die_after = options
                        .inject_die
                        .filter(|&(victim, _)| options.inject_die_always && victim == owner as u64)
                        .map(|(_, frames)| frames);
                    handles[owner] = spawn_shard(
                        path,
                        owner as u64,
                        options,
                        die_after,
                        None,
                        senders[owner].clone(),
                    )?;
                }
            }
        }
        Ok(())
    };
    let outcome = merge();
    // Done (or failed): drop the channels. Blocked reader sends error out,
    // and readers with workers still running kill and reap them instead of
    // letting orphans burn CPU.
    drop(senders);
    drop(receivers);
    if outcome.is_err() {
        // Abort: discard the partial capture so only complete captures
        // ever appear — dropping the uncommitted writer removes its temp
        // file and leaves any previously published capture untouched.
        if let Some(out) = capture.take() {
            if let Ok(writer) = out.into_inner() {
                writer.discard();
            }
        }
    }
    outcome?;

    if let Some(out) = capture.take() {
        // Flush, close, and atomically publish the finished capture.
        out.into_inner()
            .map_err(|e| format!("capture flush failed: {e}"))?
            .commit()
            .map_err(|e| format!("cannot finalize capture: {e}"))?;
    }
    let (result, fault) = replayer
        .finish_parts()
        .ok_or_else(|| "merged stream did not finish".to_owned())?;
    Ok(DistributedRun {
        result,
        fault,
        frames,
        duplicates: merger.duplicates(),
        respawns,
        migrations: 0,
        abandoned: abandoned.iter().filter(|&&a| a).count() as u32,
        capture: capture_path,
    })
}

// --------------------------------------------------- leased transport run

/// Messages from connection readers and child waiters to the leased merge
/// loop.
enum NetEv {
    /// A worker said `hello`; its write half rides along so the merge
    /// loop can send it lease frames.
    Connected {
        name: String,
        study: String,
        writer: Box<dyn Write + Send>,
    },
    /// A worker control frame (heartbeat / drained / done).
    Control { name: String, frame: WorkerFrame },
    /// An event frame (the raw line rides along for the capture).
    Frame {
        name: String,
        boxed: Box<(WireFrame, String)>,
    },
    /// A connection produced an unparseable line — protocol garbage from
    /// a live worker, or the torn tail a SIGKILL leaves mid-write. Both
    /// take the death-and-re-lease path.
    Bad {
        name: Option<String>,
        detail: String,
    },
    /// A connection ended. `None` when it died before saying `hello`.
    Gone { name: Option<String> },
    /// A spawned child exited — attributes deaths even when the worker
    /// never connected. `generation` guards against a stale waiter
    /// reporting the previous incarnation of a respawned name.
    Exited { name: String, generation: u64 },
}

/// Reads one worker connection, splitting the stream into control frames
/// and event frames. `preset` names the worker ahead of its `hello`
/// (known a priori for pipe children).
fn pump_worker_lines<R: BufRead>(
    mut reader: R,
    writer: Box<dyn Write + Send>,
    preset: Option<String>,
    tx: &mpsc::SyncSender<NetEv>,
) {
    let mut writer = Some(writer);
    let mut name = preset;
    let mut line = String::new();
    loop {
        match read_frame_line(&mut reader, &mut line) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                // An oversized line is protocol garbage like any other;
                // a plain read error is the connection ending.
                if e.kind() == std::io::ErrorKind::InvalidData {
                    let _ = tx.send(NetEv::Bad {
                        name: name.clone(),
                        detail: e.to_string(),
                    });
                    return;
                }
                break;
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        // One pass over the line classifies and decodes it.
        match WorkerLine::parse(&line) {
            Ok(WorkerLine::Control(WorkerFrame::Hello {
                name: hello_name,
                study,
                ..
            })) => {
                name = Some(hello_name.clone());
                if let Some(writer) = writer.take() {
                    if tx
                        .send(NetEv::Connected {
                            name: hello_name,
                            study,
                            writer,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
            }
            Ok(parsed) => {
                let Some(name) = &name else { continue };
                let ev = match parsed {
                    WorkerLine::Control(frame) => NetEv::Control {
                        name: name.clone(),
                        frame,
                    },
                    WorkerLine::Event(frame) => NetEv::Frame {
                        name: name.clone(),
                        boxed: Box::new((*frame, std::mem::take(&mut line))),
                    },
                };
                if tx.send(ev).is_err() {
                    return;
                }
            }
            Err(e) => {
                let _ = tx.send(NetEv::Bad {
                    name: name.clone(),
                    detail: e.to_string(),
                });
                return;
            }
        }
    }
    let _ = tx.send(NetEv::Gone { name });
}

/// Leased-mode worker names are `w0..wN-1`; recovers the index for
/// injection-flag matching.
fn worker_index(name: &str) -> Option<u64> {
    name.strip_prefix('w')?.parse().ok()
}

/// One leased worker process plus the spawn generation its death-waiter
/// thread reports under.
struct LeasedChild {
    generation: u64,
    handle: Arc<Mutex<Child>>,
}

/// Mutable side-state of the leased merge loop: connections, processes,
/// and the failure counters for the run summary.
struct LeasedState {
    writers: HashMap<String, Box<dyn Write + Send>>,
    children: HashMap<String, LeasedChild>,
    respawns: u32,
    abandoned: u32,
}

impl LeasedState {
    /// Best-effort lease-frame send; a broken writer surfaces as `Gone`
    /// from the connection reader, which drives recovery.
    fn send(&mut self, worker: &str, frame: &LeaseFrame) {
        if let Some(writer) = self.writers.get_mut(worker) {
            let _ = writer
                .write_all(frame.to_line().as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush());
        }
    }
}

/// Spawns one leased worker (`--connect`) plus a waiter thread that
/// reports the process's death into the merge loop. Pipe children get a
/// reader thread pumping their stdout; socket children connect back to
/// the listener on their own.
#[allow(clippy::too_many_arguments)]
fn spawn_leased_worker(
    path: &str,
    name: &str,
    spec: &str,
    options: &RunOptions,
    die_after: Option<u64>,
    stall_after: Option<u64>,
    throttle: Option<u64>,
    generation: u64,
    tx: &mpsc::SyncSender<NetEv>,
) -> Result<Arc<Mutex<Child>>, String> {
    let mut command = Command::new(&options.worker_bin);
    command
        .arg("--config")
        .arg(path)
        .arg("--connect")
        .arg(spec)
        .arg("--name")
        .arg(name);
    if let Some(threads) = options.threads {
        command.arg("--threads").arg(threads.to_string());
    }
    if let Some(store) = &options.store {
        command.arg("--store").arg(store);
    }
    if let Some(frames) = die_after {
        command.arg("--die-after").arg(frames.to_string());
    }
    if let Some(frames) = stall_after {
        command.arg("--stall-after").arg(frames.to_string());
    }
    if let Some(ms) = throttle {
        command.arg("--throttle").arg(ms.to_string());
    }
    let pipe = spec == "pipe";
    if pipe {
        command.stdin(Stdio::piped()).stdout(Stdio::piped());
    } else {
        command.stdin(Stdio::null()).stdout(Stdio::null());
    }
    let mut child = command.spawn().map_err(|e| {
        format!(
            "cannot spawn worker `{}`: {e}",
            options.worker_bin.display()
        )
    })?;
    if pipe {
        let stdout = child.stdout.take().expect("stdout was piped");
        let stdin = child.stdin.take().expect("stdin was piped");
        let pump_tx = tx.clone();
        let preset = name.to_owned();
        std::thread::spawn(move || {
            pump_worker_lines(
                BufReader::new(stdout),
                Box::new(stdin),
                Some(preset),
                &pump_tx,
            );
        });
    }
    let handle = Arc::new(Mutex::new(child));
    let waiter = Arc::clone(&handle);
    let exit_tx = tx.clone();
    let exit_name = name.to_owned();
    std::thread::spawn(move || loop {
        match lock(&waiter).try_wait() {
            Ok(Some(_)) => {
                let _ = exit_tx.send(NetEv::Exited {
                    name: exit_name,
                    generation,
                });
                return;
            }
            Ok(None) => {}
            Err(_) => return,
        }
        std::thread::sleep(Duration::from_millis(100));
    });
    Ok(handle)
}

/// Carries out the effects the [`Resharder`] decided on: lease frames to
/// writers, kills and respawns to processes, abandonments to the log.
fn apply_actions(
    actions: Vec<Action>,
    state: &mut LeasedState,
    study_name: &str,
    path: &str,
    spec: &str,
    options: &RunOptions,
    tx: &mpsc::SyncSender<NetEv>,
) -> Result<(), String> {
    for action in actions {
        match action {
            Action::Grant {
                worker,
                lease,
                start,
                end,
            } => state.send(
                &worker,
                &LeaseFrame::Grant {
                    id: lease,
                    start,
                    end,
                },
            ),
            Action::Revoke { worker, lease } => {
                state.send(&worker, &LeaseFrame::Revoke { id: lease });
            }
            Action::Kill { worker } => {
                eprintln!(
                    "  [{study_name}] worker {worker} missed its heartbeat deadline; killing"
                );
                if let Some(child) = state.children.get(&worker) {
                    lock(&child.handle).kill().ok();
                }
                state.writers.remove(&worker);
            }
            Action::Respawn { worker } => {
                state.respawns += 1;
                eprintln!("  [{study_name}] respawning worker {worker}");
                // Never two processes under one name: the previous
                // incarnation is dead or wedged either way.
                if let Some(old) = state.children.get(&worker) {
                    lock(&old.handle).kill().ok();
                }
                let generation = state.children.get(&worker).map_or(0, |c| c.generation + 1);
                // Respawns run clean unless the degradation hook re-arms
                // the crash injection.
                let die_after = options
                    .inject_die
                    .filter(|&(victim, _)| {
                        options.inject_die_always && worker_index(&worker) == Some(victim)
                    })
                    .map(|(_, frames)| frames);
                let handle = spawn_leased_worker(
                    path, &worker, spec, options, die_after, None, None, generation, tx,
                )?;
                state
                    .children
                    .insert(worker, LeasedChild { generation, handle });
            }
            Action::Abandon { worker } => {
                state.abandoned += 1;
                eprintln!(
                    "  [{study_name}] worker {worker} exhausted its respawn budget; abandoned \
                     (its leases flow to the surviving workers)"
                );
                state.writers.remove(&worker);
            }
        }
    }
    Ok(())
}

/// Runs one study under the lease protocol over `kind` transport. Every
/// worker computes the full deterministic stream; the [`Resharder`]
/// decides which slot ranges each one emits, re-leasing on death, stall,
/// or slowness, and the merged capture stays byte-identical to a local
/// run.
fn run_leased_study(
    path: &str,
    config: &CampaignConfig,
    options: &RunOptions,
    kind: TransportKind,
) -> Result<DistributedRun, String> {
    let study = config.study();
    let shards = options.workers;
    let capture_path = options
        .capture
        .as_ref()
        .map(|dir| dir.join(format!("{}.jsonl", study.name)));
    let mut capture = match &capture_path {
        Some(p) => Some(std::io::BufWriter::new(
            AtomicFileWriter::create(p)
                .map_err(|e| format!("cannot create capture `{}`: {e}", p.display()))?,
        )),
        None => None,
    };
    let mut spec_sinks = nvmx_viz::sink::SpecSinks::new(&study.output)
        .map_err(|e| format!("cannot open output sinks: {e}"))?;

    let (tx, rx) = mpsc::sync_channel::<NetEv>(1024);
    let stop_accepting = Arc::new(AtomicBool::new(false));

    // Socket transports bind before any worker spawns, so the connect
    // spec (with the resolved ephemeral TCP port) is known up front. The
    // accept loop polls non-blocking so it can wind down with the study.
    let spec = match kind {
        TransportKind::Pipe => "pipe".to_owned(),
        TransportKind::Tcp | TransportKind::Unix => {
            let endpoint = match kind {
                TransportKind::Tcp => Endpoint::parse("tcp:127.0.0.1:0")?,
                _ => {
                    let socket = std::env::temp_dir().join(format!(
                        "nvmx-lease-{}-{}.sock",
                        std::process::id(),
                        study.name
                    ));
                    Endpoint::parse(&format!("unix:{}", socket.display()))?
                }
            };
            let listener =
                Listener::bind(&endpoint).map_err(|e| format!("cannot bind `{endpoint}`: {e}"))?;
            let spec = listener.local_spec();
            listener
                .set_nonblocking(true)
                .map_err(|e| format!("cannot poll `{endpoint}`: {e}"))?;
            let stop = Arc::clone(&stop_accepting);
            let accept_tx = tx.clone();
            std::thread::spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    return; // drops the listener (and any unix socket path)
                }
                match listener.accept() {
                    Ok(stream) => {
                        let _ = stream.set_nonblocking(false);
                        let writer: Box<dyn Write + Send> = match stream.try_clone() {
                            Ok(clone) => Box::new(clone),
                            Err(_) => continue,
                        };
                        let conn_tx = accept_tx.clone();
                        std::thread::spawn(move || {
                            pump_worker_lines(BufReader::new(stream), writer, None, &conn_tx);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            });
            spec
        }
    };

    let epoch = Instant::now();
    let defaults = ReshardConfig::default();
    let mut resharder = Resharder::new(ReshardConfig {
        heartbeat_timeout_ms: options
            .stall_timeout
            .map_or(3_000, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
        respawn_backoff_ms: options.respawn_backoff_ms,
        max_backoff_ms: MAX_BACKOFF_MS,
        max_respawns: options.max_respawns,
        // A fixed --lease-size pins all three sizing knobs so the EWMA
        // sizing can neither grow nor shrink leases.
        initial_lease: options.lease_size.unwrap_or(defaults.initial_lease),
        min_lease: options.lease_size.unwrap_or(defaults.min_lease),
        max_lease: options.lease_size.unwrap_or(defaults.max_lease),
        ..defaults
    });
    let mut state = LeasedState {
        writers: HashMap::new(),
        children: HashMap::new(),
        respawns: 0,
        abandoned: 0,
    };
    for index in 0..shards {
        let name = format!("w{index}");
        resharder.expect_worker(
            &name,
            u64::try_from(epoch.elapsed().as_millis()).unwrap_or(0),
        );
        let pick =
            |spec: Option<(u64, u64)>| spec.filter(|&(victim, _)| victim == index).map(|(_, v)| v);
        let handle = spawn_leased_worker(
            path,
            &name,
            &spec,
            options,
            pick(options.inject_die),
            pick(options.inject_stall),
            pick(options.inject_throttle),
            0,
            &tx,
        )?;
        state.children.insert(
            name,
            LeasedChild {
                generation: 0,
                handle,
            },
        );
    }

    let mut merger: SlotMerger<(WireFrame, String)> = SlotMerger::new();
    let mut replayer = EventReplayer::new();
    let mut finished = false;
    let mut frames = 0u64;
    let mut reported_migrations = 0usize;

    let mut merge = || -> Result<(), String> {
        while !finished {
            let now = u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(NetEv::Connected {
                    name,
                    study: hello_study,
                    writer,
                }) => {
                    if hello_study != study.name {
                        return Err(format!(
                            "worker `{name}` is running study `{hello_study}`, expected `{}`",
                            study.name
                        ));
                    }
                    state.writers.insert(name.clone(), writer);
                    resharder.worker_connected(&name, now);
                }
                Ok(NetEv::Control { name, frame }) => match frame {
                    WorkerFrame::Heartbeat { .. } => resharder.note_heard(&name, now),
                    WorkerFrame::Drained { lease } => resharder.lease_drained(&name, lease, now),
                    WorkerFrame::Done { seen, .. } => resharder.worker_done(&name, seen, now),
                    WorkerFrame::Hello { .. } => {} // consumed by the pump
                },
                Ok(NetEv::Frame { name, boxed }) => {
                    resharder.frame_arrived(&name, now);
                    let (frame, line) = *boxed;
                    if frame.study != study.name {
                        return Err(format!(
                            "worker streamed study `{}`, expected `{}`",
                            frame.study, study.name
                        ));
                    }
                    let seq = frame.seq;
                    merger
                        .offer(seq, (frame, line), &mut |_seq,
                                                         (frame, line): (
                            WireFrame,
                            String,
                        )| {
                            if let Some(out) = capture.as_mut() {
                                writeln!(out, "{line}")?;
                            }
                            if matches!(
                                frame.event,
                                OwnedStudyEvent::StudyFinished { .. }
                                    | OwnedStudyEvent::FaultStudyFinished { .. }
                            ) {
                                finished = true;
                            }
                            replayer.apply(&frame.event, &mut spec_sinks)?;
                            frames += 1;
                            Ok::<(), std::io::Error>(())
                        })
                        .map_err(|e| format!("sink failed at slot {seq}: {e}"))?;
                    resharder.delivered(merger.next_expected());
                }
                Ok(NetEv::Bad { name, detail }) => match name {
                    Some(name) => {
                        eprintln!(
                            "  [{}] worker {name} broke protocol ({detail}); dropping it",
                            study.name
                        );
                        if let Some(child) = state.children.get(&name) {
                            lock(&child.handle).kill().ok();
                        }
                        state.writers.remove(&name);
                        let actions = resharder.worker_dead(&name, now);
                        apply_actions(actions, &mut state, &study.name, path, &spec, options, &tx)?;
                    }
                    None => eprintln!(
                        "  [{}] dropping an anonymous connection: {detail}",
                        study.name
                    ),
                },
                Ok(NetEv::Gone { name }) => {
                    if let Some(name) = name {
                        state.writers.remove(&name);
                        let actions = resharder.worker_dead(&name, now);
                        if !actions.is_empty() {
                            eprintln!("  [{}] worker {name} died", study.name);
                        }
                        apply_actions(actions, &mut state, &study.name, path, &spec, options, &tx)?;
                    }
                }
                Ok(NetEv::Exited { name, generation }) => {
                    // Only the current incarnation's waiter counts; a
                    // stale one must not kill a respawned worker's state.
                    if state.children.get(&name).map(|c| c.generation) == Some(generation) {
                        let actions = resharder.worker_dead(&name, now);
                        apply_actions(actions, &mut state, &study.name, path, &spec, options, &tx)?;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("a sender is always held")
                }
            }
            let now = u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
            let actions = resharder.tick(now);
            apply_actions(actions, &mut state, &study.name, path, &spec, options, &tx)?;
            for migration in &resharder.migrations()[reported_migrations..] {
                eprintln!("  [{}] re-lease: {migration}", study.name);
            }
            reported_migrations = resharder.migrations().len();
            if resharder.live_workers() == 0 {
                return Err(format!(
                    "all {shards} workers are dead or abandoned; the stream cannot complete"
                ));
            }
        }
        Ok(())
    };
    let outcome = merge();

    // Wind down: stop accepting, ask live workers to exit, then make sure
    // no child outlives the run (a SIGSTOPped stall victim never would).
    stop_accepting.store(true, Ordering::Relaxed);
    for name in state.writers.keys().cloned().collect::<Vec<_>>() {
        state.send(&name, &LeaseFrame::Shutdown);
    }
    std::thread::sleep(Duration::from_millis(50));
    for child in state.children.values() {
        let mut child = lock(&child.handle);
        child.kill().ok();
        child.wait().ok();
    }

    if outcome.is_err() {
        if let Some(out) = capture.take() {
            if let Ok(writer) = out.into_inner() {
                writer.discard();
            }
        }
    }
    outcome?;

    if let Some(out) = capture.take() {
        out.into_inner()
            .map_err(|e| format!("capture flush failed: {e}"))?
            .commit()
            .map_err(|e| format!("cannot finalize capture: {e}"))?;
    }
    let (result, fault) = replayer
        .finish_parts()
        .ok_or_else(|| "merged stream did not finish".to_owned())?;
    Ok(DistributedRun {
        result,
        fault,
        frames,
        duplicates: merger.duplicates(),
        respawns: state.respawns,
        migrations: u64::try_from(resharder.migrations().len()).unwrap_or(u64::MAX),
        abandoned: state.abandoned,
        capture: capture_path,
    })
}

// ---------------------------------------------------------------- replay

fn cmd_replay(args: Vec<String>) -> i32 {
    let mut input = None;
    let mut config = None;
    let mut csv = None;
    let mut fault_csv_path = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        let outcome = match flag.as_str() {
            "--input" => value("--input").map(|v| input = Some(v)),
            "--config" => value("--config").map(|v| config = Some(v)),
            "--csv" => value("--csv").map(|v| csv = Some(v)),
            "--fault-csv" => value("--fault-csv").map(|v| fault_csv_path = Some(v)),
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(e) = outcome {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }
    let Some(input) = input else {
        eprintln!("--input is required\n{USAGE}");
        return 2;
    };
    if csv.is_some() && config.is_none() {
        eprintln!("--csv needs --config (the constraint filter lives in the study config)");
        return 2;
    }
    let campaign = match config.as_deref().map(load_campaign).transpose() {
        Ok(campaign) => campaign,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let study = campaign.as_ref().map(|c| c.study());

    let file = match std::fs::File::open(&input) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("cannot open `{input}`: {e}");
            return 1;
        }
    };
    let replay = match nvmexplorer_core::wire::replay(BufReader::new(file)) {
        Ok(replay) => replay,
        Err(e) => {
            eprintln!("replay of `{input}` failed: {e}");
            return 1;
        }
    };

    if fault_csv_path.is_some() && replay.fault.is_none() {
        eprintln!("--fault-csv given, but `{input}` is not a fault-campaign capture");
        return 1;
    }
    match &study {
        Some(study) => {
            if study.name != replay.study {
                eprintln!(
                    "capture carries study `{}`, config names `{}`",
                    replay.study, study.name
                );
                return 1;
            }
            match &replay.fault {
                Some(fault) => println!("{}", fault_summary_line(study, &replay.result, fault)),
                None => println!("{}", summary_line(study, &replay.result)),
            }
            if let Some(csv_path) = csv {
                let csv_path = Path::new(&csv_path);
                // `Csv::write_to` creates parent directories itself.
                if let Err(e) = results_csv(study, &replay.result).write_to(csv_path) {
                    eprintln!("cannot write `{}`: {e}", csv_path.display());
                    return 1;
                }
                eprintln!("  [{}] results -> {}", replay.study, csv_path.display());
            }
        }
        None => {
            println!(
                "study `{}`: {} arrays, {} evaluations, {} skipped ({} frames)",
                replay.study,
                replay.result.arrays.len(),
                replay.result.evaluations.len(),
                replay.result.skipped.len(),
                replay.frames
            );
        }
    }
    if let Some(path) = fault_csv_path {
        let path = Path::new(&path);
        let fault = replay.fault.as_ref().expect("checked above");
        if let Err(e) = fault_csv(fault).write_to(path) {
            eprintln!("cannot write `{}`: {e}", path.display());
            return 1;
        }
        eprintln!("  [{}] fault trials -> {}", replay.study, path.display());
    }
    0
}
