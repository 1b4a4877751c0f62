//! `nvmx-coordinator` — distributed campaign runner over the JSONL wire
//! protocol.
//!
//! `run` distributes each study of a campaign over N `nvmx-worker`
//! processes under the version-4 *lease* protocol (`core::reshard`).
//! Workers say `hello` over a framed connection — child pipes by default,
//! or a TCP listener or Unix socket with `--transport tcp|unix`, which is
//! how workers on other hosts join — heartbeat from a dedicated thread,
//! and emit only the slot ranges the coordinator leases to them. Every
//! worker computes the full deterministic stream, so any worker can serve
//! any range; `core::wire::SlotMerger` merges the leased ranges back into
//! strict slot order and drops duplicate slots by sequence number. The
//! merged stream goes to an optional capture file and through
//! `core::wire::StreamReplayer` — the strict consumer behind `replay` and
//! `run --connect` — into the study's configured result sinks. Every
//! worker connection, pipe or socket, is one `transport::Connection`,
//! read by its own pump thread. A pump hands its worker's event frames to
//! the merge loop one read at a time: each message carries every frame
//! decoded since the last one, up to [`BATCH_FRAMES`], and goes out once
//! the connection has no more bytes buffered, so the merge loop pays its
//! channel wake-up and supervisor pass once per batch, not once per
//! frame. The channel holds at most [`FRAMES_IN_FLIGHT`] frames. The
//! rebuilt `StudyResult` is byte-identical to an in-process run — as is
//! the merged stream, except possibly the *observational* cache counters
//! on the final `study_finished` line (each worker has its own cache, and
//! racing threads may double-count a miss; see the core stream docs).
//! Studies in a multi-config campaign are distributed over supervisor
//! lanes with the same lock-free queue discipline as
//! `core::scheduler::StudyScheduler`.
//!
//! Leases are pull-only: every grant is `--lease-size` slots (512 by
//! default), and a worker gets its next range when it drains its last
//! one. The supervisor polls its children's exits from the merge loop
//! (every 100 ms), kills workers that miss their heartbeat deadline,
//! re-leases a dead or stalled worker's undrained ranges to healthy ones
//! (capped exponential `--respawn-backoff`; past `--max-respawns` the
//! worker is abandoned and its leases flow to the survivors), and, once
//! nothing else is left to grant, moves the undelivered tail of a worker
//! that heartbeats but has sent no frame for a whole heartbeat window to
//! an idle one. No decision reads a worker's rate, so a fault-free run
//! prints the same summary every time. Every re-leased range is reported
//! in the summary.
//!
//! Fault-injection campaigns (configs with a top-level `fault` section)
//! are first-class: the fault stream leases, merges, resumes, and replays
//! exactly like a plain study — per-trial injection seeds ride the wire,
//! so a respawned worker's trials are bit-identical — and the summary and
//! `--fault-csv` artifacts diff clean against the in-process `run` binary.
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
use nvmexplorer_core::transport::{
    Connection, Endpoint, FrameWriter, Listener, Stream, TransportKind,
};
use nvmexplorer_core::wire::{
    FrameDecoder, LeaseFrame, SlotMerger, StreamReplayer, WireFrame, WorkerFrame, WorkerLine,
};
use nvmx_bench::campaign::{load_campaign, write_artifacts};
use nvmx_bench::cli::{usage_error, Flags};
use nvmx_bench::fail;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  nvmx-coordinator run --config <study.json> [--config <more.json> ...]
      [--workers N] [--threads T] [--lanes L] [--capture DIR] [--store DIR]
      [--worker-bin PATH] [--max-respawns K] [--respawn-backoff MS]
      [--transport pipe|tcp|unix] [--lease-size SLOTS]
      [--inject-die WORKER:FRAMES] [--inject-stall WORKER:FRAMES]
      [--inject-throttle WORKER:MS]
  nvmx-coordinator replay --input <capture.jsonl>
      [--config <study.json>] [--csv PATH] [--fault-csv PATH]";

fn main() {
    let mut args = std::env::args().skip(1);
    let code = match args.next().as_deref() {
        Some("run") => cmd_run(args.collect()),
        Some("replay") => cmd_replay(args.collect()),
        _ => fail!(2, "{USAGE}"),
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
    /// worker (`--store`), so all workers on this host share warm physics.
    /// Overrides the configs' `store` sections.
    store: Option<String>,
    worker_bin: PathBuf,
    inject_die: Option<(u64, u64)>,
    inject_stall: Option<(u64, u64)>,
    /// Slow-worker injection: the victim sleeps this many milliseconds per
    /// emitted frame, so its leases drain slowly. A slow worker that still
    /// emits keeps its lease, so this measures what one slow host costs.
    inject_throttle: Option<(u64, u64)>,
    max_respawns: u32,
    /// Base of the deterministic exponential respawn backoff:
    /// `base · 2^(attempt-1)` ms, capped at the supervisor's default
    /// `max_backoff_ms`. Zero (the default) respawns immediately.
    respawn_backoff_ms: u64,
    /// The connection family workers speak the lease protocol over.
    transport: TransportKind,
    /// Slots per lease, overriding the supervisor's default of 512 —
    /// mainly a test/CI hook to force leases to spread over every worker
    /// on small streams.
    lease_size: Option<u64>,
}

/// How long the wind-down waits for workers to exit on `shutdown` before
/// it kills the rest.
const WIND_DOWN: Duration = Duration::from_millis(50);

/// How often the merge loop checks whether a worker process has exited.
/// A worker that dies before it says `hello` on a socket has no
/// connection to report it; this check is what sees it.
const CHILD_POLL_MS: u64 = 100;

fn parse_run_args(args: Vec<String>) -> Result<RunOptions, String> {
    let mut flags = Flags::new(args);
    let mut options = RunOptions {
        configs: Vec::new(),
        workers: 2,
        threads: None,
        lanes: 1,
        capture: None,
        store: None,
        worker_bin: default_worker_bin(),
        inject_die: None,
        inject_stall: None,
        inject_throttle: None,
        max_respawns: 3,
        respawn_backoff_ms: 0,
        transport: TransportKind::Pipe,
        lease_size: None,
    };
    while let Some(flag) = flags.next_arg() {
        let o = &mut options;
        match flag.as_str() {
            "--config" => o.configs.push(flags.value()?),
            "--workers" => o.workers = flags.count()?,
            "--threads" => o.threads = Some(flags.parse("an unsigned integer")?),
            "--lanes" => o.lanes = flags.count()?,
            "--capture" => o.capture = Some(flags.value()?.into()),
            "--store" => o.store = Some(flags.value()?),
            "--worker-bin" => o.worker_bin = flags.value()?.into(),
            "--inject-die" => o.inject_die = Some(flags.pair("WORKER:FRAMES")?),
            "--inject-stall" => o.inject_stall = Some(flags.pair("WORKER:FRAMES")?),
            "--inject-throttle" => o.inject_throttle = Some(flags.pair("WORKER:MS")?),
            "--transport" => o.transport = TransportKind::parse(&flags.value()?)?,
            "--lease-size" => o.lease_size = Some(flags.count()?),
            "--max-respawns" => o.max_respawns = flags.parse("an unsigned integer")?,
            "--respawn-backoff" => o.respawn_backoff_ms = flags.parse("milliseconds")?,
            _ => return Err(flags.unexpected()),
        }
    }
    if options.configs.is_empty() {
        return Err("at least one --config is required".to_owned());
    }
    let workers = options.workers;
    for (flag, spec) in [
        ("--inject-die", options.inject_die),
        ("--inject-stall", options.inject_stall),
        ("--inject-throttle", options.inject_throttle),
    ] {
        if let Some((victim, _)) = spec {
            if victim >= workers {
                return Err(format!(
                    "{flag} worker {victim} is out of range for --workers {workers} \
                     (valid workers: 0..{workers})"
                ));
            }
        }
    }
    Ok(options)
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
    let options = parse_run_args(args).unwrap_or_else(|e| usage_error(e, USAGE));
    // Load every config up front: a typo'd campaign fails before any
    // worker spawns, with the offending file and section named.
    let mut campaign = Vec::new();
    for path in &options.configs {
        campaign.push((
            path,
            load_campaign(path).unwrap_or_else(|e| fail!(2, "{e}")),
        ));
    }
    // Study names key the capture files (`<dir>/<name>.jsonl`) and the
    // summary lines; duplicates would silently clobber one capture with
    // another (or interleave them under concurrent lanes).
    for (i, (path, config)) in campaign.iter().enumerate() {
        if let Some((other, _)) = campaign[..i]
            .iter()
            .find(|(_, earlier)| earlier.name() == config.name())
        {
            fail!(
                2,
                "duplicate study name `{}`: declared by both `{other}` and `{path}`",
                config.name()
            );
        }
    }
    if let Some(dir) = &options.capture {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail!(
                1,
                "cannot create capture directory `{}`: {e}",
                dir.display()
            );
        }
    }

    // Studies are distributed over supervisor lanes exactly like the
    // in-process scheduler distributes them over executor lanes.
    let outcomes = run_on_lanes(&campaign, options.lanes, |_, (path, config)| {
        run_leased_study(path, config, &options)
    });

    let mut code = 0;
    for ((path, config), outcome) in campaign.iter().zip(outcomes) {
        let study = config.study();
        match outcome {
            Ok(run) => {
                write_artifacts(Some(study), &run.result, run.fault.as_ref(), None, None)
                    .unwrap_or_else(|e| fail!(1, "{e}"));
                let mut line = format!(
                    "  [{}] {} workers, {} frames merged, {} duplicate slots deduped, {} respawns",
                    study.name, options.workers, run.frames, run.duplicates, run.respawns
                );
                if run.migrations > 0 {
                    line += &format!(", {} slot ranges re-leased", run.migrations);
                }
                if run.abandoned > 0 {
                    line += &format!(", {} workers abandoned", run.abandoned);
                }
                if let Some(capture) = &run.capture {
                    line += &format!(", capture -> {}", capture.display());
                }
                eprintln!("{line}");
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
    /// Slot ranges that moved between workers.
    migrations: u64,
    /// Workers that exhausted their respawn budget; their leases flowed
    /// to the survivors.
    abandoned: u32,
    capture: Option<PathBuf>,
}

// --------------------------------------------------- leased transport run

/// The most event frames one [`NetEv::Frames`] batch carries.
const BATCH_FRAMES: usize = 128;

/// The most event frames the pump-to-merge channel holds: it takes
/// `FRAMES_IN_FLIGHT / BATCH_FRAMES` messages, each at most one batch.
/// Each pump also holds at most one batch while it fills or sends it.
const FRAMES_IN_FLIGHT: usize = 1024;

/// Bytes the merge loop buffers before it writes to the capture file.
/// Each write costs the merge loop system time; at this size a 40 MB
/// capture takes 160 writes, where std's 8 KiB default would take 5,000.
const CAPTURE_BUFFER_BYTES: usize = 256 * 1024;

/// Messages from connection readers to the leased merge loop. `link`
/// names the connection a reader pumps (see [`LeasedState::links`]), so
/// the echo of a killed incarnation's connection is told apart from the
/// current one. One connection's messages arrive in the order its lines
/// did: a batch of frames goes out before the `hello`, control line,
/// `Bad` or `Gone` that follows it.
enum NetEv {
    /// A worker said `hello`; its write half rides along so the merge
    /// loop can send it lease frames.
    Connected {
        link: u64,
        name: String,
        study: String,
        writer: FrameWriter,
    },
    /// A worker control frame (heartbeat / drained / done).
    Control { name: String, frame: WorkerFrame },
    /// Consecutive event frames from one read of the connection, at most
    /// [`BATCH_FRAMES`] (each raw line rides along for the capture).
    Frames {
        name: String,
        batch: Vec<(WireFrame, String)>,
    },
    /// A connection produced an unparseable line — protocol garbage from
    /// a live worker, or the torn tail a SIGKILL leaves mid-write. Both
    /// take the death-and-re-lease path.
    Bad {
        link: u64,
        name: Option<String>,
        detail: String,
    },
    /// A connection ended. `None` when it died before saying `hello`.
    Gone { link: u64, name: Option<String> },
}

/// Reads one worker connection, splitting the stream into control frames
/// and event frames; the write half rides to the merge loop with the
/// worker's `hello`. `preset` names the worker ahead of its `hello`
/// (known a priori for pipe children); `link` tags the connection-level
/// events.
///
/// Event frames are handed over one read at a time: they collect in a
/// batch that is sent as one [`NetEv::Frames`] when the reader has no
/// more bytes buffered (the next line must wait for the worker), when it
/// reaches [`BATCH_FRAMES`], and before any other message from this
/// connection. A worker that writes one line per flush, as a throttled
/// one does, therefore still delivers each frame as it arrives.
fn pump_worker_lines(
    Connection { mut reader, writer }: Connection,
    preset: Option<String>,
    link: u64,
    tx: &mpsc::SyncSender<NetEv>,
) {
    let mut writer = Some(writer);
    let mut name = preset;
    let mut line = String::new();
    let mut decoder = FrameDecoder::new();
    let mut batch = Vec::new();
    // Sends the collected frames, if any; `false` once the merge loop
    // has gone. Frames only collect once the worker has a name.
    let hand_over = |batch: &mut Vec<(WireFrame, String)>, name: &Option<String>| match name {
        Some(name) if !batch.is_empty() => tx
            .send(NetEv::Frames {
                name: name.clone(),
                batch: std::mem::take(batch),
            })
            .is_ok(),
        _ => true,
    };
    loop {
        match reader.next_line(&mut line) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                // An oversized line is protocol garbage like any other;
                // a plain read error is the connection ending.
                if e.kind() == std::io::ErrorKind::InvalidData {
                    if hand_over(&mut batch, &name) {
                        let _ = tx.send(NetEv::Bad {
                            link,
                            name: name.clone(),
                            detail: e.to_string(),
                        });
                    }
                    return;
                }
                break;
            }
        }
        // One pass over the line classifies and decodes it.
        let control = match decoder.worker_line(&line) {
            Ok(WorkerLine::Event(frame)) => {
                if name.is_some() {
                    batch.push((*frame, std::mem::take(&mut line)));
                }
                if (batch.len() >= BATCH_FRAMES || !reader.has_buffered())
                    && !hand_over(&mut batch, &name)
                {
                    return;
                }
                continue;
            }
            Ok(WorkerLine::Control(frame)) => Ok(frame),
            Err(e) => Err(e),
        };
        if !hand_over(&mut batch, &name) {
            return;
        }
        match control {
            Ok(WorkerFrame::Hello {
                name: hello_name,
                study,
                ..
            }) => {
                name = Some(hello_name.clone());
                if let Some(writer) = writer.take() {
                    if tx
                        .send(NetEv::Connected {
                            link,
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
            Ok(frame) => {
                let Some(name) = &name else { continue };
                let ev = NetEv::Control {
                    name: name.clone(),
                    frame,
                };
                if tx.send(ev).is_err() {
                    return;
                }
            }
            Err(e) => {
                let _ = tx.send(NetEv::Bad {
                    link,
                    name: name.clone(),
                    detail: e.to_string(),
                });
                return;
            }
        }
    }
    if hand_over(&mut batch, &name) {
        let _ = tx.send(NetEv::Gone { link, name });
    }
}

/// One leased worker process and its spawn generation (a pipe child's
/// link).
struct LeasedChild {
    generation: u64,
    process: Child,
}

/// Side-state of the leased merge loop: what a spawn needs, the
/// connections and processes, and the failure counters for the run
/// summary.
struct LeasedState<'a> {
    study: &'a str,
    /// The study's config file, passed to every worker.
    path: &'a str,
    /// The `--connect` spec workers get: `pipe`, or the bound socket.
    spec: String,
    options: &'a RunOptions,
    tx: mpsc::SyncSender<NetEv>,
    writers: HashMap<String, FrameWriter>,
    /// The connection each worker name currently speaks over: a pipe
    /// child's spawn generation, fixed at spawn, or a socket's accept
    /// number, taken at `hello`. A killed or dead incarnation's reader
    /// reports on a link no longer listed here; its `Gone` and `Bad` are
    /// ignored so they cannot retire the respawned incarnation.
    links: HashMap<String, u64>,
    children: HashMap<String, LeasedChild>,
    respawns: u32,
    abandoned: u32,
}

impl LeasedState<'_> {
    /// Whether `link` is the connection `name` currently speaks over.
    fn is_current(&self, name: &str, link: u64) -> bool {
        self.links.get(name) == Some(&link)
    }

    /// Forgets `name`'s connection: no more lease frames go to it, and
    /// its reader's closing events are stale from here on.
    fn disconnect(&mut self, name: &str) {
        self.writers.remove(name);
        self.links.remove(name);
    }

    /// Kills `name`'s process, if it has one, and forgets its connection.
    fn kill(&mut self, name: &str) {
        if let Some(child) = self.children.get_mut(name) {
            child.process.kill().ok();
        }
        self.disconnect(name);
    }

    /// The workers whose current process has exited, in name order. The
    /// merge loop retires each (a no-op for one already retired).
    fn exited(&mut self) -> Vec<String> {
        let mut names: Vec<String> = (self.children.iter_mut())
            .filter_map(|(name, child)| {
                matches!(child.process.try_wait(), Ok(Some(_))).then(|| name.clone())
            })
            .collect();
        names.sort_unstable();
        names
    }

    /// Best-effort lease-frame send; a broken writer surfaces as `Gone`
    /// from the connection reader, which drives recovery.
    fn send(&mut self, worker: &str, frame: &LeaseFrame) {
        if let Some(writer) = self.writers.get_mut(worker) {
            let _ = writer.send_now(&frame.to_line());
        }
    }

    /// Spawns worker `name` (`--connect`); the merge loop polls its exit.
    /// A pipe child gets a reader thread pumping its stdout; a socket
    /// child connects back to the listener on its own. `armed` is the
    /// worker index whose `--inject-*` hooks this spawn carries; respawns
    /// pass `None` and run clean.
    fn spawn(&mut self, name: &str, armed: Option<u64>, generation: u64) -> Result<(), String> {
        let options = self.options;
        let mut command = Command::new(&options.worker_bin);
        command.args([
            "--config",
            self.path,
            "--connect",
            &self.spec,
            "--name",
            name,
        ]);
        if let Some(threads) = options.threads {
            command.arg("--threads").arg(threads.to_string());
        }
        if let Some(store) = &options.store {
            command.arg("--store").arg(store);
        }
        for (flag, hook) in [
            ("--die-after", options.inject_die),
            ("--stall-after", options.inject_stall),
            ("--throttle", options.inject_throttle),
        ] {
            if let Some((_, value)) = hook.filter(|&(victim, _)| Some(victim) == armed) {
                command.arg(flag).arg(value.to_string());
            }
        }
        let pipe = self.spec == "pipe";
        if pipe {
            command.stdin(Stdio::piped()).stdout(Stdio::piped());
        } else {
            command.stdin(Stdio::null()).stdout(Stdio::null());
        }
        let mut process = command.spawn().map_err(|e| {
            format!(
                "cannot spawn worker `{}`: {e}",
                options.worker_bin.display()
            )
        })?;
        if pipe {
            let stdout = process.stdout.take().expect("stdout was piped");
            let stdin = process.stdin.take().expect("stdin was piped");
            let conn = Connection::from_parts(stdout, stdin);
            let (tx, preset) = (self.tx.clone(), name.to_owned());
            std::thread::spawn(move || pump_worker_lines(conn, Some(preset), generation, &tx));
            self.links.insert(name.to_owned(), generation);
        }
        let child = LeasedChild {
            generation,
            process,
        };
        self.children.insert(name.to_owned(), child);
        Ok(())
    }

    /// Carries out the effects the [`Resharder`] decided on: lease frames
    /// to writers, kills and respawns to processes, abandonments to the
    /// log.
    fn apply(&mut self, actions: Vec<Action>) -> Result<(), String> {
        let study = self.study;
        for action in actions {
            match action {
                Action::Grant {
                    worker,
                    lease,
                    start,
                    end,
                } => self.send(
                    &worker,
                    &LeaseFrame::Grant {
                        id: lease,
                        start,
                        end,
                    },
                ),
                Action::Revoke { worker, lease } => {
                    self.send(&worker, &LeaseFrame::Revoke { id: lease });
                }
                Action::Kill { worker } => {
                    eprintln!("  [{study}] worker {worker} missed its heartbeat deadline; killing");
                    self.kill(&worker);
                }
                Action::Respawn { worker } => {
                    self.respawns += 1;
                    eprintln!("  [{study}] respawning worker {worker}");
                    // Never two processes under one name: the previous
                    // incarnation is dead or wedged either way, and is
                    // reaped here so it does not linger as a zombie.
                    let generation = self.children.remove(&worker).map_or(0, |mut old| {
                        old.process.kill().ok();
                        old.process.wait().ok();
                        old.generation + 1
                    });
                    self.disconnect(&worker);
                    self.spawn(&worker, None, generation)?;
                }
                Action::Abandon { worker } => {
                    self.abandoned += 1;
                    eprintln!(
                        "  [{study}] worker {worker} exhausted its respawn budget; abandoned \
                         (its leases flow to the surviving workers)"
                    );
                    self.disconnect(&worker);
                }
            }
        }
        Ok(())
    }
}

/// Numbers the lease sockets this process binds: a unix socket is named
/// by pid and this counter, never by the study (whose name may hold a `/`
/// or overflow the socket path limit), so concurrent lanes never collide.
static LEASE_SOCKETS: AtomicU64 = AtomicU64::new(0);

/// The accept thread of a socket transport: it blocks in `accept` and
/// hands each connection to a pump thread, numbering it as its `link`.
/// Dropping the acceptor stops it the way `nvmx-serve` stops on
/// `shutdown` — a stop flag, then a connect to its own listener to wake
/// the blocked `accept` — and joins it, so the listener (and a unix
/// socket's file) is gone when the study returns.
struct Acceptor {
    stop: Arc<AtomicBool>,
    /// The bound address (TCP's ephemeral port resolved): what workers
    /// dial, and what the wake-up connects to.
    wake: Endpoint,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Acceptor {
    /// Binds a fresh lease endpoint of a socket `kind` and starts
    /// accepting on it.
    fn bind(kind: TransportKind, tx: &mpsc::SyncSender<NetEv>) -> Result<Self, String> {
        let endpoint = if kind == TransportKind::Unix {
            Endpoint::Unix(std::env::temp_dir().join(format!(
                "nvmx-lease-{}-{}.sock",
                std::process::id(),
                LEASE_SOCKETS.fetch_add(1, Ordering::Relaxed)
            )))
        } else {
            Endpoint::parse("tcp:127.0.0.1:0")?
        };
        let listener =
            Listener::bind(&endpoint).map_err(|e| format!("cannot bind `{endpoint}`: {e}"))?;
        let wake = Endpoint::parse(&listener.local_spec())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let tx = tx.clone();
        let thread = std::thread::spawn(move || {
            for link in 0u64.. {
                let accepted = listener.accept();
                if stopped.load(Ordering::Acquire) {
                    return; // drops the listener (and any unix socket path)
                }
                let Ok(conn) = accepted.and_then(Connection::from_stream) else {
                    continue;
                };
                let conn_tx = tx.clone();
                std::thread::spawn(move || pump_worker_lines(conn, None, link, &conn_tx));
            }
        });
        Ok(Self {
            stop,
            wake,
            thread: Some(thread),
        })
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        // Pairs with the accept thread's Acquire load, which follows the
        // `accept` this connect wakes.
        self.stop.store(true, Ordering::Release);
        // Without a wake-up connection the thread stays parked in
        // `accept`; joining it then would hang the run, so it is left.
        if Stream::connect(&self.wake).is_ok() {
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Runs one study under the lease protocol over `--transport`. Every
/// worker computes the full deterministic stream; the [`Resharder`]
/// decides which slot ranges each one emits, re-leasing on death, stall,
/// or frame silence, and the merged capture stays byte-identical to a
/// local run.
fn run_leased_study(
    path: &str,
    config: &CampaignConfig,
    options: &RunOptions,
) -> Result<DistributedRun, String> {
    let study = config.study();
    let workers = options.workers;
    let capture_path = options
        .capture
        .as_ref()
        .map(|dir| dir.join(format!("{}.jsonl", study.name)));
    let mut capture = match &capture_path {
        Some(p) => Some(std::io::BufWriter::with_capacity(
            CAPTURE_BUFFER_BYTES,
            AtomicFileWriter::create(p)
                .map_err(|e| format!("cannot create capture `{}`: {e}", p.display()))?,
        )),
        None => None,
    };
    let mut spec_sinks = nvmx_viz::sink::from_spec(&study.output)
        .map_err(|e| format!("cannot open output sinks: {e}"))?;

    let (tx, rx) = mpsc::sync_channel::<NetEv>(FRAMES_IN_FLIGHT / BATCH_FRAMES);

    // Socket transports bind before any worker spawns, so the connect
    // spec (with the resolved ephemeral TCP port) is known up front.
    let kind = options.transport;
    let acceptor = match kind {
        TransportKind::Pipe => None,
        TransportKind::Tcp | TransportKind::Unix => Some(Acceptor::bind(kind, &tx)?),
    };
    let spec = acceptor
        .as_ref()
        .map_or_else(|| "pipe".to_owned(), |acceptor| acceptor.wake.to_string());

    let epoch = Instant::now();
    let defaults = ReshardConfig::default();
    let mut resharder = Resharder::new(ReshardConfig {
        respawn_backoff_ms: options.respawn_backoff_ms,
        max_respawns: options.max_respawns,
        lease_size: options.lease_size.unwrap_or(defaults.lease_size),
        ..defaults
    });
    let mut state = LeasedState {
        study: &study.name,
        path,
        spec,
        options,
        tx,
        writers: HashMap::new(),
        links: HashMap::new(),
        children: HashMap::new(),
        respawns: 0,
        abandoned: 0,
    };
    for index in 0..workers {
        let name = format!("w{index}");
        resharder.expect_worker(
            &name,
            u64::try_from(epoch.elapsed().as_millis()).unwrap_or(0),
        );
        state.spawn(&name, Some(index), 0)?;
    }

    let mut merger: SlotMerger<(WireFrame, String)> = SlotMerger::new();
    let mut replayer = StreamReplayer::new();
    let mut reported_migrations = 0usize;
    let mut next_poll_ms = CHILD_POLL_MS;

    let mut merge = || -> Result<(), String> {
        while !replayer.finished() {
            let now = u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(NetEv::Connected {
                    link,
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
                    // A pipe child's link is fixed at spawn, so a late
                    // `hello` from a killed incarnation is dropped; a
                    // socket's link is whichever connection says `hello`.
                    if kind != TransportKind::Pipe {
                        state.links.insert(name.clone(), link);
                    }
                    if state.is_current(&name, link) {
                        state.writers.insert(name.clone(), writer);
                        resharder.worker_connected(&name, now);
                    }
                }
                Ok(NetEv::Control { name, frame }) => match frame {
                    WorkerFrame::Heartbeat { .. } => resharder.note_heard(&name, now),
                    WorkerFrame::Drained { lease } => resharder.lease_drained(&name, lease, now),
                    WorkerFrame::Done { seen, .. } => resharder.worker_done(&name, seen, now),
                    WorkerFrame::Hello { .. } => {} // consumed by the pump
                },
                Ok(NetEv::Frames { name, batch }) => {
                    resharder.frame_arrived(&name, now);
                    for (frame, line) in batch {
                        // Nothing follows the terminal frame: the frames
                        // after it are dropped unmerged, like the messages
                        // left in the channel when the loop ends.
                        if replayer.finished() {
                            break;
                        }
                        let seq = frame.seq;
                        merger
                            .offer(seq, (frame, line), &mut |_seq, (frame, line)| {
                                if let Some(out) = capture.as_mut() {
                                    out.write_all(line.as_bytes())?;
                                    out.write_all(b"\n")?;
                                }
                                replayer
                                    .push_frame(frame, &mut spec_sinks)
                                    .map(|_terminal| ())
                            })
                            .map_err(|e| format!("merged stream failed at slot {seq}: {e}"))?;
                    }
                    resharder.delivered(merger.next_expected());
                }
                Ok(NetEv::Bad { link, name, detail }) => match name {
                    Some(name) if !state.is_current(&name, link) => {}
                    Some(name) => {
                        eprintln!(
                            "  [{}] worker {name} broke protocol ({detail}); dropping it",
                            study.name
                        );
                        state.kill(&name);
                        state.apply(resharder.worker_dead(&name, now))?;
                    }
                    None => eprintln!(
                        "  [{}] dropping an anonymous connection: {detail}",
                        study.name
                    ),
                },
                Ok(NetEv::Gone { link, name }) => {
                    if let Some(name) = name.filter(|name| state.is_current(name, link)) {
                        state.disconnect(&name);
                        let actions = resharder.worker_dead(&name, now);
                        if !actions.is_empty() {
                            eprintln!("  [{}] worker {name} died", study.name);
                        }
                        state.apply(actions)?;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("a sender is always held")
                }
            }
            let now = u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
            // Child exits are polled on a timer, not per event: the loop
            // wakes at least every 100 ms either way.
            if now >= next_poll_ms {
                next_poll_ms = now + CHILD_POLL_MS;
                for name in state.exited() {
                    state.apply(resharder.worker_dead(&name, now))?;
                }
            }
            state.apply(resharder.tick(now))?;
            for migration in &resharder.migrations()[reported_migrations..] {
                eprintln!("  [{}] re-lease: {migration}", study.name);
            }
            reported_migrations = resharder.migrations().len();
            if resharder.live_workers() == 0 {
                return Err(format!(
                    "all {workers} workers are dead or abandoned; the stream cannot complete"
                ));
            }
        }
        Ok(())
    };
    let outcome = merge().and_then(|()| {
        let replay = replayer
            .finish()
            .map_err(|e| format!("merged stream did not finish: {e}"))?;
        // Every frame matched the first one's study; that must be this one.
        if replay.study != study.name {
            return Err(format!(
                "workers streamed study `{}`, expected `{}`",
                replay.study, study.name
            ));
        }
        Ok(replay)
    });

    // Wind down: stop accepting (joining the accept thread removes a unix
    // socket's file), ask live workers to exit and give them up to
    // `WIND_DOWN` to do so (their store lines print on the way out), then
    // make sure no child outlives the run (a SIGSTOPped stall victim never
    // would).
    drop(acceptor);
    for name in state.writers.keys().cloned().collect::<Vec<_>>() {
        state.send(&name, &LeaseFrame::Shutdown);
    }
    let deadline = Instant::now() + WIND_DOWN;
    while Instant::now() < deadline
        && (state.children.values_mut()).any(|child| matches!(child.process.try_wait(), Ok(None)))
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    for child in state.children.values_mut() {
        child.process.kill().ok();
        child.process.wait().ok();
    }

    if outcome.is_err() {
        if let Some(out) = capture.take() {
            if let Ok(writer) = out.into_inner() {
                writer.discard();
            }
        }
    }
    let replay = outcome?;

    if let Some(out) = capture.take() {
        out.into_inner()
            .map_err(|e| format!("capture flush failed: {e}"))?
            .commit()
            .map_err(|e| format!("cannot finalize capture: {e}"))?;
    }
    Ok(DistributedRun {
        result: replay.result,
        fault: replay.fault,
        frames: replay.frames,
        duplicates: merger.duplicates(),
        respawns: state.respawns,
        migrations: u64::try_from(resharder.migrations().len()).unwrap_or(u64::MAX),
        abandoned: state.abandoned,
        capture: capture_path,
    })
}

// ---------------------------------------------------------------- replay

fn cmd_replay(args: Vec<String>) -> i32 {
    let mut flags = Flags::new(args);
    let (mut input, mut config, mut csv, mut fault_csv) = (None, None, None, None);
    while let Some(flag) = flags.next_arg() {
        let slot = match flag.as_str() {
            "--input" => &mut input,
            "--config" => &mut config,
            "--csv" => &mut csv,
            "--fault-csv" => &mut fault_csv,
            _ => usage_error(flags.unexpected(), USAGE),
        };
        *slot = Some(flags.value().unwrap_or_else(|e| usage_error(e, USAGE)));
    }
    let input = input.unwrap_or_else(|| usage_error("--input is required", USAGE));
    if csv.is_some() && config.is_none() {
        fail!(
            2,
            "--csv needs --config (the constraint filter lives in the study config)"
        );
    }
    let campaign =
        (config.as_deref().map(load_campaign).transpose()).unwrap_or_else(|e| fail!(2, "{e}"));
    let study = campaign.as_ref().map(|c| c.study());

    let file =
        std::fs::File::open(&input).unwrap_or_else(|e| fail!(1, "cannot open `{input}`: {e}"));
    let replay = nvmexplorer_core::wire::replay(BufReader::new(file))
        .unwrap_or_else(|e| fail!(1, "replay of `{input}` failed: {e}"));
    if fault_csv.is_some() && replay.fault.is_none() {
        fail!(
            1,
            "--fault-csv given, but `{input}` is not a fault-campaign capture"
        );
    }
    match study {
        Some(study) if study.name != replay.study => fail!(
            1,
            "capture carries study `{}`, config names `{}`",
            replay.study,
            study.name
        ),
        Some(_) => {}
        None => println!(
            "study `{}`: {} arrays, {} evaluations, {} skipped ({} frames)",
            replay.study,
            replay.result.arrays.len(),
            replay.result.evaluations.len(),
            replay.result.skipped.len(),
            replay.frames
        ),
    }
    write_artifacts(
        study,
        &replay.result,
        replay.fault.as_ref(),
        csv.as_deref().map(Path::new),
        fault_csv.as_deref().map(Path::new),
    )
    .unwrap_or_else(|e| fail!(1, "{e}"));
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::Read;

    /// One line as a pump's reader sees it: an event frame at slot `seq`
    /// whose line, newline included, is 121 bytes. An odd length keeps
    /// every line end off the 8 KiB boundaries of the reader's refills, so
    /// a reader that has all its input at once runs dry only at the end.
    fn event_line(seq: u64) -> String {
        let head = format!(
            r#"{{"v":4,"study":"s","seq":{seq},"event":"study_started","cells":1,"jobs":1,"targets":1,"traffic":1,"name":""#
        );
        format!("{head}{}\"}}\n", "n".repeat(118 - head.len()))
    }

    fn event_lines(seqs: std::ops::Range<u64>) -> String {
        seqs.map(event_line).collect()
    }

    fn control_line(frame: &WorkerFrame) -> String {
        format!("{}\n", frame.to_line())
    }

    /// What the merge loop receives from one connection, in order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Connected(String),
        Frames(Vec<u64>),
        Control,
        Bad,
        Gone,
    }

    /// Pumps `input` to its end as connection `link` 0, named `preset`,
    /// through a channel roomy enough that the pump never waits.
    fn pump(input: impl Read + Send + 'static, preset: Option<&str>) -> Vec<Seen> {
        let (tx, rx) = mpsc::sync_channel(4096);
        let conn = Connection::from_parts(input, std::io::sink());
        pump_worker_lines(conn, preset.map(str::to_owned), 0, &tx);
        drop(tx);
        (rx.into_iter())
            .map(|ev| match ev {
                NetEv::Connected { name, .. } => Seen::Connected(name),
                NetEv::Frames { batch, .. } => {
                    assert!(batch.len() <= BATCH_FRAMES, "a batch over the cap");
                    for (frame, line) in &batch {
                        assert_eq!(format!("{line}\n"), event_line(frame.seq));
                    }
                    Seen::Frames(batch.iter().map(|(frame, _)| frame.seq).collect())
                }
                NetEv::Control { .. } => Seen::Control,
                NetEv::Bad { .. } => Seen::Bad,
                NetEv::Gone { .. } => Seen::Gone,
            })
            .collect()
    }

    fn pump_bytes(input: impl Into<Vec<u8>>) -> Vec<Seen> {
        pump(std::io::Cursor::new(input.into()), Some("w0"))
    }

    /// A worker that flushes after every line: each `read` returns one.
    struct LinePerRead(VecDeque<String>);

    impl Read for LinePerRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(line) = self.0.pop_front() else {
                return Ok(0);
            };
            buf[..line.len()].copy_from_slice(line.as_bytes());
            Ok(line.len())
        }
    }

    #[test]
    fn frames_before_a_control_line_arrive_first_as_one_batch() {
        let heartbeat = control_line(&WorkerFrame::Heartbeat { seen: 5, sent: 5 });
        assert_eq!(
            pump_bytes(event_lines(0..5) + &heartbeat),
            [Seen::Frames(vec![0, 1, 2, 3, 4]), Seen::Control, Seen::Gone]
        );
    }

    #[test]
    fn frames_before_a_garbage_line_arrive_before_bad() {
        assert_eq!(
            pump_bytes(event_lines(0..3) + "not a frame\n" + &event_line(3)),
            [Seen::Frames(vec![0, 1, 2]), Seen::Bad]
        );
        // A line that is not UTF-8 fails in the reader, not the decoder.
        let mut input = event_lines(0..3).into_bytes();
        input.extend_from_slice(b"\xff\n");
        assert_eq!(pump_bytes(input), [Seen::Frames(vec![0, 1, 2]), Seen::Bad]);
    }

    #[test]
    fn frames_before_the_end_arrive_before_gone_and_a_torn_tail_is_bad() {
        assert_eq!(
            pump_bytes(event_lines(0..4)),
            [Seen::Frames(vec![0, 1, 2, 3]), Seen::Gone]
        );
        // Blank lines after the last frame keep bytes buffered past it.
        assert_eq!(
            pump_bytes(event_lines(0..4) + "\n\n"),
            [Seen::Frames(vec![0, 1, 2, 3]), Seen::Gone]
        );
        // The unterminated tail a killed worker leaves is garbage.
        let torn = &event_line(4)[..40];
        assert_eq!(
            pump_bytes(event_lines(0..4) + torn),
            [Seen::Frames(vec![0, 1, 2, 3]), Seen::Bad]
        );
    }

    #[test]
    fn batches_stop_at_the_cap() {
        let cap = BATCH_FRAMES as u64;
        assert_eq!(
            pump_bytes(event_lines(0..300)),
            [
                Seen::Frames((0..cap).collect()),
                Seen::Frames((cap..2 * cap).collect()),
                Seen::Frames((2 * cap..300).collect()),
                Seen::Gone,
            ]
        );
    }

    /// A throttled worker's frames each come in their own read, so each
    /// is its own batch: frame-silence timing sees every frame arrive.
    #[test]
    fn a_line_per_read_is_a_frame_per_batch() {
        let lines = (0..20).map(event_line).collect();
        let mut expected: Vec<Seen> = (0..20).map(|seq| Seen::Frames(vec![seq])).collect();
        expected.push(Seen::Gone);
        assert_eq!(pump(LinePerRead(lines), Some("w0")), expected);
    }

    /// On a socket the worker is named by its `hello`: frames before it
    /// are dropped, and the hello goes out before the frames after it.
    #[test]
    fn a_hello_names_the_frames_that_follow_it() {
        let hello = control_line(&WorkerFrame::Hello {
            name: "remote-0".to_owned(),
            study: "s".to_owned(),
            resume: false,
        });
        assert_eq!(
            pump(
                std::io::Cursor::new(event_line(0) + &hello + &event_lines(1..3)),
                None
            ),
            [
                Seen::Connected("remote-0".to_owned()),
                Seen::Frames(vec![1, 2]),
                Seen::Gone
            ]
        );
    }
}
