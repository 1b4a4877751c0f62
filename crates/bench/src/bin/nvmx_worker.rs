//! `nvmx-worker` — one worker of a distributed study campaign.
//!
//! Runs a study from a JSON config and speaks the version-4 lease
//! protocol (`core::wire`, `core::reshard`) to a supervising
//! `nvmx-coordinator`: it says `hello`, heartbeats from a dedicated timer
//! thread, buffers the full study's events in memory as they are
//! computed, and emits exactly the slot ranges the coordinator leases to
//! it — so a slow or dead worker's ranges can drain to healthy ones, and
//! the coordinator merges every worker's ranges back in slot order.
//!
//! Leases partition *emission*, not *computation*: every worker runs the
//! full study, which is what makes a re-spawned replacement's output
//! bit-identical with no coordination state. A single study over n
//! workers therefore costs n× the compute — the compute-dividing axis is
//! the coordinator's multi-study `--lanes` campaign, not the worker
//! count. Encoding is not repeated: each evaluation (nearly every slot) is
//! buffered as a value and encoded only when a lease emits its slot, so
//! the fleet encodes each line about once. Every other event is buffered
//! as its encoded line.
//!
//! The lease channel is one `transport::Connection`, whatever carries it:
//! `--connect pipe` frames the worker's own stdin/stdout (the coordinator
//! holds the pipe pair); `--connect unix:…`/`tcp:…` dials out, which is
//! how workers on *other hosts* join a campaign, and reconnects with
//! `resume` on a dropped socket (the merger's dedup absorbs re-sent
//! slots). The main thread reads lease frames from the connection's
//! `FrameReader`; the compute, heartbeat and emitter threads share its
//! `FrameWriter`, which buffers emitted frames and delivers them before
//! the emitter blocks, at the end of each lease and before a fault hook
//! fires, while control lines (`hello`, `heartbeat`, `done`) go out at
//! once. A reconnect swaps in the new connection's two halves.
//!
//! ```text
//! nvmx-worker --config config/quickstart.json --connect tcp:10.0.0.5:7071 --threads 2
//! ```
//!
//! A config carrying a top-level `fault` section runs as a fault-injection
//! campaign: the fault stream (trial slots, verdicts, and the campaign's
//! own terminal event) is leased the same way, and the per-trial
//! injection seeds ride the wire so a respawned replacement is still
//! bit-identical.
//!
//! Flags:
//! - `--config <path>`   study config JSON (required)
//! - `--connect SPEC`    lease channel (required): `pipe`, `unix:PATH`, or
//!   `tcp:HOST:PORT`
//! - `--threads T`       characterization/evaluation workers (default: CPUs, capped at 16)
//! - `--name NAME`       worker name for the lease protocol (default `worker-<pid>`)
//! - `--throttle MS`     slow-worker hook: sleep MS per emitted frame —
//!   a slow host whose leases drain slowly; it keeps each lease it still
//!   emits on, so tests and CI use it to bound what one slow worker costs
//! - `--die-after K`     crash-test hook: exit(137) after emitting K frames,
//!   simulating a worker killed mid-lease (the coordinator's re-lease and
//!   respawn path and the CI smoke jobs drive this deterministically)
//! - `--stall-after K`   hang-test hook: after emitting K frames, flush and
//!   stop making progress (SIGSTOP on unix, a sleep-forever loop otherwise)
//!   — simulating a live-but-hung worker for the coordinator's heartbeat
//!   deadline
//! - `--store DIR`       back the run with the persistent characterization
//!   store (overrides the config's `store` section): published slabs are
//!   loaded instead of recomputed, new slabs are published back, and the
//!   L2 counters are reported on stderr when the worker exits. The wire
//!   stream is byte-identical either way, so every worker in a campaign
//!   may share one store.
//!
//! Flags, store and study-or-fault dispatch are the campaign binaries'
//! shared plumbing (`nvmx_bench::cli`, `nvmx_bench::campaign`).
//!
//! Exit codes: `0` success, `1` study failed, `2` usage or config error
//! (config parse failures print the offending section).

use nvmexplorer_core::config::CampaignConfig;
use nvmexplorer_core::eval::Evaluation;
use nvmexplorer_core::stream::{ResultSink, StudyEvent, StudyExecutor};
use nvmexplorer_core::transport::{Connection, Endpoint, FrameWriter};
use nvmexplorer_core::wire::{LeaseFrame, LineEncoder, WorkerFrame};
use nvmx_bench::campaign::{self, load_campaign, Store};
use nvmx_bench::cli::{usage_error, Flags};
use nvmx_bench::fail;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const USAGE: &str = "usage: nvmx-worker --config <study.json> \
                     --connect pipe|unix:PATH|tcp:HOST:PORT [--threads T] [--name NAME] \
                     [--throttle MS] [--die-after K] [--stall-after K] [--store DIR]";

/// Simulates a worker that stops making progress without dying: already
/// written frames are flushed (the sink flushes per line), then the
/// process freezes. SIGSTOP leaves the process alive-but-stopped exactly
/// like a real hang; if signalling fails the sleep loop plays the part.
fn stall_forever() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-STOP", &pid])
        .status();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

#[derive(Default)]
struct Options {
    config: String,
    connect: String,
    threads: Option<usize>,
    name: Option<String>,
    throttle_ms: Option<u64>,
    die_after: Option<u64>,
    stall_after: Option<u64>,
    store: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut flags = Flags::from_env();
    let mut options = Options::default();
    let (mut config, mut connect) = (None, None);
    while let Some(flag) = flags.next_arg() {
        match flag.as_str() {
            "--config" => config = Some(flags.value()?),
            "--connect" => connect = Some(flags.value()?),
            "--threads" => options.threads = Some(flags.parse("an unsigned integer")?),
            "--name" => options.name = Some(flags.value()?),
            "--throttle" => options.throttle_ms = Some(flags.parse("milliseconds")?),
            "--die-after" => options.die_after = Some(flags.parse("an unsigned integer")?),
            "--stall-after" => options.stall_after = Some(flags.parse("an unsigned integer")?),
            "--store" => options.store = Some(flags.value()?),
            _ => return Err(flags.unexpected()),
        }
    }
    options.config = config.ok_or_else(|| "--config is required".to_owned())?;
    options.connect = connect.ok_or_else(|| "--connect is required".to_owned())?;
    Ok(options)
}

/// One slot of the buffered stream.
#[derive(Clone)]
enum Slot {
    /// The slot's encoded wire line.
    Line(Arc<str>),
    /// An `evaluation_produced` event's `(index, evaluation)`, encoded
    /// only if a lease emits the slot.
    Evaluation(usize, Evaluation),
}

/// The full deterministic event stream, accumulating as the compute
/// thread runs. `slots[seq]` is slot `seq`.
#[derive(Default)]
struct Buffered {
    slots: Vec<Slot>,
    /// An encoder for the emitter, forked from the compute side's once
    /// `study_started` set the header; the emitter takes it.
    encoder: Option<LineEncoder>,
    done: bool,
    failed: Option<String>,
}

/// Lease-protocol state shared between the reader (main thread), the
/// emitter, the heartbeat timer, and the compute thread.
#[derive(Default)]
struct NetShared {
    buffered: Mutex<Buffered>,
    /// Pending grants (FIFO) + revocations + shutdown flag.
    control: Mutex<NetControl>,
    /// Signals a new buffered line (pairs with `buffered`).
    buffer_wake: Condvar,
    /// Signals new grants/revocations/shutdown (pairs with `control`).
    control_wake: Condvar,
    /// Frames actually emitted under leases (hazard hooks + telemetry).
    sent: AtomicU64,
}

#[derive(Default)]
struct NetControl {
    grants: VecDeque<(u64, u64, u64)>, // (id, start, end)
    revoked: HashSet<u64>,
    shutdown: bool,
}

/// Locks the connection's write half, riding through poisoning: a sender
/// that panicked mid-line leaves at worst a torn line, which the
/// coordinator treats as a dead worker.
fn lock(writer: &Mutex<FrameWriter>) -> std::sync::MutexGuard<'_, FrameWriter> {
    writer.lock().unwrap_or_else(|e| e.into_inner())
}

/// The compute thread's sink: appends each event's slot to the shared
/// buffer, waking the emitter.
struct BufferSink {
    lines: LineEncoder,
    /// Slots buffered so far: the next event's `seq`.
    seq: u64,
    shared: Arc<NetShared>,
}

impl ResultSink for BufferSink {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        let slot = match event {
            StudyEvent::EvaluationProduced { index, evaluation } => {
                Slot::Evaluation(*index, (*evaluation).clone())
            }
            _ => Slot::Line(Arc::from(self.lines.encode_at(self.seq, event))),
        };
        self.seq += 1;
        let mut buffered = self.shared.buffered.lock().unwrap();
        if matches!(event, StudyEvent::StudyStarted { .. }) {
            buffered.encoder = Some(self.lines.fork());
        }
        buffered.slots.push(slot);
        drop(buffered);
        self.shared.buffer_wake.notify_all();
        Ok(())
    }
}

/// Ends the process with `code`, first reporting the store's L2 counters
/// on stderr (telemetry only — the wire stream is unaffected). The
/// compute thread may still be running when a lease exchange ends, so the
/// worker leaves through here instead of returning to `main`. The
/// injected crash of `--die-after` bypasses it, like the SIGKILL it
/// simulates.
fn leave(code: i32, store: Option<&Store>) -> ! {
    if let Some(store) = store {
        store.report();
    }
    std::process::exit(code)
}

/// Runs the campaign: compute everything, emit what the coordinator
/// leases.
fn run_leased(
    options: &Options,
    campaign: &CampaignConfig,
    executor: &StudyExecutor<'_>,
    store: Option<&Store>,
) -> ! {
    let name = options
        .name
        .clone()
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let study_name = campaign.study().name.clone();
    let shared = Arc::new(NetShared::default());

    // First connection. `pipe` frames stdin/stdout; sockets dial out with
    // a short retry loop (the coordinator may still be binding).
    let spec = options.connect.as_str();
    let pipe = spec == "pipe";
    let endpoint = ((!pipe).then(|| Endpoint::parse(spec)).transpose()).unwrap_or_else(|e| {
        eprintln!("{e}");
        leave(2, store)
    });
    let connect = |resume: bool| -> Option<Connection> {
        let endpoint = endpoint.as_ref()?;
        let attempts = if resume { 25 } else { 50 };
        for attempt in 0..attempts {
            match Connection::connect(endpoint) {
                Ok(conn) => return Some(conn),
                Err(_) if attempt + 1 < attempts => {
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => {
                    eprintln!("cannot connect to `{endpoint}`: {e}");
                    return None;
                }
            }
        }
        None
    };
    let conn = if pipe {
        Connection::pipe()
    } else {
        connect(false).unwrap_or_else(|| leave(1, store))
    };
    let Connection { mut reader, writer } = conn;
    // The write half, shared by every sending thread (see the module doc
    // for when it flushes) and replaced wholesale on a reconnect. Send
    // failures are tolerated: the reader notices the broken connection
    // and drives recovery.
    let link = Arc::new(Mutex::new(writer));
    let hello = WorkerFrame::Hello {
        name: name.clone(),
        study: study_name.clone(),
        resume: false,
    };
    if lock(&link).send_now(&hello.to_line()).is_err() && pipe {
        leave(1, store);
    }

    // Compute thread: the full study into the slot buffer, then `done`.
    // Panics and study errors both surface as `failed`.
    std::thread::scope(|scope| {
        let compute_shared = Arc::clone(&shared);
        let compute_link = Arc::clone(&link);
        scope.spawn(move || {
            let mut sink = BufferSink {
                lines: LineEncoder::new(),
                seq: 0,
                shared: Arc::clone(&compute_shared),
            };
            let run = executor.run_campaign(campaign, &mut sink).map(|_| ());
            let seen = sink.seq;
            let mut buffered = compute_shared.buffered.lock().unwrap();
            match run {
                Ok(()) => buffered.done = true,
                Err(e) => {
                    eprintln!("study failed: {e}");
                    buffered.failed = Some(e.to_string());
                }
            }
            drop(buffered);
            compute_shared.buffer_wake.notify_all();
            if run_failed(&compute_shared) {
                return;
            }
            let done = WorkerFrame::Done {
                seen,
                sent: compute_shared.sent.load(Ordering::Relaxed),
            };
            let _ = lock(&compute_link).send_now(&done.to_line());
        });

        // Heartbeat thread: liveness decoupled from compute progress, so a
        // long characterization never reads as a stall while SIGSTOP
        // freezes the beacon immediately.
        let beat_shared = Arc::clone(&shared);
        let beat_link = Arc::clone(&link);
        scope.spawn(move || loop {
            std::thread::sleep(Duration::from_millis(250));
            let control = beat_shared.control.lock().unwrap();
            if control.shutdown {
                return;
            }
            drop(control);
            let seen = beat_shared.buffered.lock().unwrap().slots.len() as u64;
            let beat = WorkerFrame::Heartbeat {
                seen,
                sent: beat_shared.sent.load(Ordering::Relaxed),
            };
            let _ = lock(&beat_link).send_now(&beat.to_line());
        });

        // Emitter thread: walk granted leases in FIFO order, sending each
        // slot's line as the compute thread produces it — encoding it
        // here when it is an evaluation.
        let emit_shared = Arc::clone(&shared);
        let emit_link = Arc::clone(&link);
        let throttle = options.throttle_ms;
        let die_after = options.die_after;
        let stall_after = options.stall_after;
        let mut encoder: Option<LineEncoder> = None;
        scope.spawn(move || loop {
            // Take the next grant (or stop on shutdown).
            let (id, start, end) = {
                let mut control = emit_shared.control.lock().unwrap();
                loop {
                    if control.shutdown {
                        return;
                    }
                    if let Some(grant) = control.grants.pop_front() {
                        break grant;
                    }
                    control = emit_shared.control_wake.wait(control).unwrap();
                }
            };
            let mut revoked = false;
            for seq in start..end {
                if emit_shared.control.lock().unwrap().revoked.contains(&id) {
                    revoked = true;
                    break;
                }
                // Wait for the compute thread to reach this slot — after
                // delivering what is already buffered, so waiting on
                // compute never holds back emitted frames.
                let slot = {
                    let mut buffered = emit_shared.buffered.lock().unwrap();
                    let mut flushed = false;
                    loop {
                        if buffered.failed.is_some() {
                            return;
                        }
                        if let Some(slot) = buffered.slots.get(seq as usize).cloned() {
                            if encoder.is_none() {
                                encoder = buffered.encoder.take();
                            }
                            break Some(slot);
                        }
                        if buffered.done {
                            break None; // lease reaches past the stream end
                        }
                        if flushed {
                            buffered = emit_shared.buffer_wake.wait(buffered).unwrap();
                        } else {
                            drop(buffered);
                            let _ = lock(&emit_link).flush();
                            flushed = true;
                            buffered = emit_shared.buffered.lock().unwrap();
                        }
                    }
                };
                let Some(slot) = slot else { break };
                let line = match &slot {
                    Slot::Line(line) => line,
                    Slot::Evaluation(index, evaluation) => encoder
                        .as_mut()
                        .expect("study_started precedes every evaluation")
                        .encode_at(
                            seq,
                            &StudyEvent::EvaluationProduced {
                                index: *index,
                                evaluation,
                            },
                        ),
                };
                let sent = emit_shared.sent.load(Ordering::Relaxed);
                if die_after.is_some_and(|limit| sent >= limit) {
                    let _ = lock(&emit_link).flush();
                    std::process::exit(137);
                }
                if stall_after.is_some_and(|limit| sent >= limit) {
                    let _ = lock(&emit_link).flush();
                    stall_forever();
                }
                match throttle {
                    // The slow-worker hook keeps per-frame delivery, so the
                    // coordinator measures its true emission rate.
                    Some(ms) => {
                        std::thread::sleep(Duration::from_millis(ms));
                        let _ = lock(&emit_link).send_now(line);
                    }
                    None => {
                        let _ = lock(&emit_link).send(line);
                    }
                }
                emit_shared.sent.fetch_add(1, Ordering::Relaxed);
            }
            if !revoked {
                let drained = WorkerFrame::Drained { lease: id };
                let _ = lock(&emit_link).send(&drained.to_line());
            }
            // End of lease: deliver it before waiting for the next grant.
            let _ = lock(&emit_link).flush();
        });

        // Reader (this thread): lease frames in, reconnect on a dropped
        // socket, stop on shutdown.
        let mut line = String::new();
        loop {
            let more = match reader.next_line(&mut line) {
                Ok(more) => more,
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    eprintln!("bad lease line from coordinator: {e}");
                    shutdown(&shared);
                    leave(1, store);
                }
                Err(_) => false,
            };
            if !more {
                // Connection gone. Pipe workers die with their
                // coordinator; socket workers try to rejoin.
                if pipe || run_failed(&shared) {
                    shutdown(&shared);
                    leave(i32::from(run_failed(&shared)), store);
                }
                let Some(conn) = connect(true) else {
                    shutdown(&shared);
                    leave(1, store);
                };
                reader = conn.reader;
                *lock(&link) = conn.writer;
                // Stale grants died with the old connection; the
                // coordinator re-grants after the resume hello.
                {
                    let mut control = shared.control.lock().unwrap();
                    control.grants.clear();
                }
                let hello = WorkerFrame::Hello {
                    name: name.clone(),
                    study: study_name.clone(),
                    resume: true,
                };
                let _ = lock(&link).send_now(&hello.to_line());
                continue;
            }
            match LeaseFrame::parse(&line) {
                Ok(LeaseFrame::Grant { id, start, end }) => {
                    let mut control = shared.control.lock().unwrap();
                    control.grants.push_back((id, start, end));
                    drop(control);
                    shared.control_wake.notify_all();
                }
                Ok(LeaseFrame::Revoke { id }) => {
                    let mut control = shared.control.lock().unwrap();
                    control.revoked.insert(id);
                    drop(control);
                    shared.control_wake.notify_all();
                }
                Ok(LeaseFrame::Shutdown) => {
                    shutdown(&shared);
                    leave(i32::from(run_failed(&shared)), store);
                }
                Err(e) => {
                    eprintln!("bad lease line from coordinator: {e}");
                    shutdown(&shared);
                    leave(1, store);
                }
            }
        }
    })
}

fn run_failed(shared: &NetShared) -> bool {
    shared.buffered.lock().unwrap().failed.is_some()
}

fn shutdown(shared: &NetShared) {
    let mut control = shared.control.lock().unwrap();
    control.shutdown = true;
    drop(control);
    shared.control_wake.notify_all();
    shared.buffer_wake.notify_all();
}

fn main() {
    let options = parse_args().unwrap_or_else(|e| usage_error(e, USAGE));
    let campaign = load_campaign(&options.config).unwrap_or_else(|e| fail!(2, "{e}"));
    // The flag overrides the config's `store` section; the cache is owned
    // here so the L2 counters can be reported when the worker leaves.
    let store =
        Store::open(options.store.clone(), campaign.study()).unwrap_or_else(|e| fail!(1, "{e}"));
    let executor = campaign::executor(options.threads, store.as_ref());
    run_leased(&options, &campaign, &executor, store.as_ref())
}
