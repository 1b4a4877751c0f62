//! `nvmx-serve` — the persistent multi-tenant campaign daemon.
//!
//! Lifts the one-shot campaign flow into a resident service: clients
//! submit study/fault-campaign configs over a Unix or TCP socket, an
//! admission-controlled priority queue feeds a fixed pool of lanes, and
//! every session runs against **one shared warm subarray cache**
//! (optionally backed by the persistent characterization store), so each
//! tenant's request after the first hits warm state. Each session's
//! slot-ordered wire frames are retained server-side; any number of
//! clients can attach, detach, and re-attach without perturbing the run.
//!
//! ```text
//! nvmx-serve --listen unix:/tmp/nvmx.sock [--workers N] [--lanes N]
//!            [--capacity N] [--store DIR] [--session-ttl SECS]
//! ```
//!
//! - `--listen ADDR` — `unix:PATH` or `tcp:HOST:PORT` (port `0` binds an
//!   ephemeral port; the resolved address is printed on stdout).
//! - `--workers N` — characterization/evaluation threads per running
//!   session (default: one per CPU, capped at 16).
//! - `--lanes N` — sessions that run concurrently (default 1).
//! - `--capacity N` — admission-queue bound (default 64, at least 1).
//! - `--store DIR` — back the shared cache with the persistent
//!   characterization store, shared across every tenant.
//! - `--session-ttl SECS` — garbage-collect a finished session's
//!   retained event log this many seconds after it reaches a terminal
//!   state. Reaped sessions stay listed in `status` with state
//!   `reaped` and their final event count, but can no longer be
//!   replayed. Without the flag logs are retained for the life of the
//!   daemon.
//!
//! On startup the daemon prints exactly one line to stdout:
//! `nvmx-serve listening <spec>` — scripts parse this for the resolved
//! endpoint. Everything else (per-session telemetry, store counters)
//! goes to stderr, one line per terminal session:
//! `session <id> (<study>): <outcome> cache hits=.. misses=.. pruned=..
//! l2_hits=.. l2_misses=.. l2_rejects=..`.
//!
//! The protocol is the service layer of the versioned JSONL wire
//! protocol (`docs/PROTOCOL.md` is the normative spec). A `shutdown`
//! request drains gracefully: admission closes, queued and running
//! sessions complete, the store is flushed, and the process exits `0`.
//!
//! Determinism: a session's event stream — and the artifacts a client
//! rebuilds from it — is byte-identical to a cold local `run` of the
//! same config, except the terminal frame's observational cache
//! counters, which reflect the warm shared cache (see `docs/PROTOCOL.md`
//! § Determinism contract). CI's `serve-smoke` job diffs exactly this.
//!
//! Flags are read by the campaign binaries' shared reader
//! (`nvmx_bench::cli`), which owns the usage-error wording.
//!
//! Exit codes: `0` clean drain, `1` runtime failure, `2` usage error.

use nvmexplorer_core::service::{CampaignService, ServiceConfig};
use nvmexplorer_core::stream::StudyExecutor;
use nvmexplorer_core::transport::{Connection, Endpoint, FrameWriter, Listener, Stream};
use nvmexplorer_core::wire::{RequestFrame, ResponseFrame};
use nvmx_bench::cli::{usage_error, Flags};
use nvmx_bench::fail;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: nvmx-serve --listen ADDR [--workers N] [--lanes N] [--capacity N] [--store DIR] [--session-ttl SECS]\n       ADDR is unix:PATH or tcp:HOST:PORT";

fn parse_args() -> Result<(Endpoint, ServiceConfig), String> {
    let mut flags = Flags::from_env();
    let mut listen = None;
    // Default workers: what a local `run` would use (one per CPU, capped
    // at 16) — submitted sessions then match local-run wall-clock.
    let mut config = ServiceConfig {
        workers: StudyExecutor::new().threads(),
        ..ServiceConfig::default()
    };
    while let Some(flag) = flags.next_arg() {
        match flag.as_str() {
            "--listen" => listen = Some(Endpoint::parse(&flags.value()?)?),
            "--workers" => config.workers = flags.parse("an unsigned integer")?,
            "--lanes" => config.lanes = flags.parse("an unsigned integer")?,
            // Every submit is queued before a lane claims it, so a bound
            // of 0 would reject them all.
            "--capacity" => config.capacity = flags.count()?,
            "--store" => config.store = Some(flags.value()?.into()),
            "--session-ttl" => {
                config.session_ttl = Some(Duration::from_secs(flags.parse("seconds")?))
            }
            _ => return Err(flags.unexpected()),
        }
    }
    let listen = listen.ok_or_else(|| "--listen is required".to_owned())?;
    Ok((listen, config))
}

/// Streams a session's event channel to the client: every retained frame
/// from the start, then live until terminal, then the `done` response.
/// Frames go out through the connection's buffer: every line already in
/// the log is drained, and the buffer is flushed only before the cursor
/// blocks and at the terminal frame — a few large socket writes instead of
/// one small one per frame. Returns `Err` only when the client is gone —
/// the session itself is untouched either way (it writes to the
/// server-side log, never to this socket).
fn stream_session(
    service: &CampaignService,
    session: u64,
    writer: &mut FrameWriter,
) -> std::io::Result<()> {
    let mut cursor = service
        .events(session)
        .expect("caller verified the session exists");
    loop {
        let line = match cursor.try_next_line() {
            Some(line) => line,
            None => {
                writer.flush()?;
                match cursor.next_line() {
                    Some(line) => line,
                    None => break,
                }
            }
        };
        writer.send(&line)?;
    }
    let snapshot = cursor.snapshot();
    eprintln!(
        "session {} ({}): {} cache {}",
        snapshot.session,
        snapshot.study,
        snapshot.phase.as_str(),
        snapshot.cache.unwrap_or_default(),
    );
    let done = ResponseFrame::Done {
        session: snapshot.session,
        outcome: snapshot.phase.as_str().to_owned(),
        error: snapshot.error,
        cache: snapshot.cache,
    };
    writer.send_now(&done.to_line())
}

/// The response to a request for a session this daemon never admitted.
fn unknown_session(session: u64) -> String {
    ResponseFrame::Error {
        reason: format!("unknown session {session}"),
    }
    .to_line()
}

/// Serves one connection until the client closes it, a write fails, or a
/// shutdown request arrives. Every response is delivered at once; an
/// `Err` from a send means the client is gone.
fn handle(service: &CampaignService, stream: Stream, drain: &AtomicBool, listen: &Endpoint) {
    let Ok(Connection {
        mut reader,
        mut writer,
    }) = Connection::from_stream(stream)
    else {
        return;
    };
    let mut line = String::new();
    loop {
        match reader.next_line(&mut line) {
            Ok(true) => {}
            Ok(false) => return,
            Err(e) => {
                // An oversized request cannot be resynchronized mid-line:
                // say why, then drop the connection.
                if e.kind() == std::io::ErrorKind::InvalidData {
                    let reason = format!("bad request: {e}");
                    let _ = writer.send_now(&ResponseFrame::Error { reason }.to_line());
                }
                return;
            }
        }
        let request = match RequestFrame::parse(&line) {
            Ok(request) => request,
            Err(e) => {
                let reason = format!("bad request: {e}");
                if writer
                    .send_now(&ResponseFrame::Error { reason }.to_line())
                    .is_err()
                {
                    return;
                }
                continue;
            }
        };
        let ok = match request {
            RequestFrame::Submit { priority, config } => {
                let json = serde_json::to_string(&config).expect("values serialize");
                match service.submit(&json, priority) {
                    Ok(admitted) => {
                        let submitted = ResponseFrame::Submitted {
                            session: admitted.session,
                            study: admitted.study,
                            queue_depth: admitted.queue_depth,
                        };
                        writer.send_now(&submitted.to_line()).is_ok()
                            && stream_session(service, admitted.session, &mut writer).is_ok()
                    }
                    Err(e) => {
                        let reason = e.to_string();
                        writer
                            .send_now(&ResponseFrame::Error { reason }.to_line())
                            .is_ok()
                    }
                }
            }
            RequestFrame::Status => {
                let status = service.status();
                let response = ResponseFrame::Status {
                    draining: status.draining,
                    queue_depth: status.queue_depth,
                    capacity: status.capacity,
                    sessions: status.sessions.iter().map(|s| s.brief()).collect(),
                    cache: status.cache,
                };
                writer.send_now(&response.to_line()).is_ok()
            }
            RequestFrame::Cancel { session } => match service.cancel(session) {
                Some(active) => {
                    let response = ResponseFrame::Cancelled { session, active };
                    writer.send_now(&response.to_line()).is_ok()
                }
                None => writer.send_now(&unknown_session(session)).is_ok(),
            },
            RequestFrame::Events { session } => {
                if service.session(session).is_some() {
                    stream_session(service, session, &mut writer).is_ok()
                } else {
                    writer.send_now(&unknown_session(session)).is_ok()
                }
            }
            RequestFrame::Shutdown => {
                let _ = writer.send_now(&ResponseFrame::Draining.to_line());
                service.shutdown();
                drain.store(true, Ordering::Release);
                // Unblock the acceptor so the main thread notices.
                let _ = Stream::connect(listen);
                return;
            }
        };
        if !ok {
            return;
        }
    }
}

fn main() {
    let (listen, config) = parse_args().unwrap_or_else(|e| usage_error(e, USAGE));
    let service = Arc::new(
        CampaignService::start(config).unwrap_or_else(|e| fail!(1, "cannot start service: {e}")),
    );
    let listener =
        Listener::bind(&listen).unwrap_or_else(|e| fail!(1, "cannot bind {listen}: {e}"));
    let bound =
        Endpoint::parse(&listener.local_spec()).expect("a bound listener reports a valid spec");
    println!("nvmx-serve listening {bound}");
    std::io::stdout().flush().ok();

    let draining = Arc::new(AtomicBool::new(false));
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !draining.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("accept failed: {e}");
                continue;
            }
        };
        if draining.load(Ordering::Acquire) {
            break;
        }
        // A finished handler's thread keeps its stack mapped until it is
        // joined; join those before adding another.
        for handler in std::mem::take(&mut handlers) {
            if handler.is_finished() {
                let _ = handler.join();
            } else {
                handlers.push(handler);
            }
        }
        let service = Arc::clone(&service);
        let draining = Arc::clone(&draining);
        let bound = bound.clone();
        handlers.push(std::thread::spawn(move || {
            handle(&service, stream, &draining, &bound);
        }));
    }
    // Graceful drain: every queued and running session completes, then
    // the store is flushed. Connection handlers streaming those sessions
    // finish with them.
    let stats = service
        .drain()
        .unwrap_or_else(|e| fail!(1, "store flush failed during drain: {e}"));
    for handler in handlers {
        let _ = handler.join();
    }
    eprintln!("nvmx-serve drained: cache {stats}");
}
