//! `nvmx-client` — the thin protocol client for a running `nvmx-serve`.
//!
//! ```text
//! nvmx-client --connect ADDR status
//! nvmx-client --connect ADDR events SESSION
//! nvmx-client --connect ADDR cancel SESSION
//! nvmx-client --connect ADDR shutdown
//! ```
//!
//! - `status` — prints one line per session (`id state priority events
//!   study`) plus the queue and the service's cumulative cache counters.
//! - `events SESSION` — replays the session's retained wire frames to
//!   stdout (raw JSONL, suitable for `nvmx-coordinator replay` or any
//!   strict wire consumer), following live until the session ends; the
//!   terminal outcome and per-session cache delta go to stderr.
//! - `cancel SESSION` — cancels a queued or running session.
//! - `shutdown` — asks the daemon to drain gracefully and exit.
//!
//! To *submit* a campaign and collect byte-identical artifacts, use
//! `run <config.json> --connect ADDR` — submission is deliberately kept
//! on the artifact path so local and remote runs share every output
//! byte (see `docs/PROTOCOL.md` § Determinism contract).
//!
//! Exit codes: `0` success, `1` the server reported an error or the
//! session failed, `2` usage error.

use nvmexplorer_core::transport::{Connection, Endpoint};
use nvmexplorer_core::wire::{RequestFrame, ResponseFrame};

const USAGE: &str = "usage: nvmx-client --connect ADDR <status | events SESSION | cancel SESSION | shutdown>\n       ADDR is unix:PATH or tcp:HOST:PORT";

fn parse_args() -> Result<(Endpoint, RequestFrame), String> {
    let mut args = std::env::args().skip(1);
    let mut connect = None;
    let mut command: Option<String> = None;
    let mut session: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => {
                let spec = args
                    .next()
                    .ok_or_else(|| "--connect expects a value".to_owned())?;
                connect = Some(Endpoint::parse(&spec)?);
            }
            "status" | "events" | "cancel" | "shutdown" if command.is_none() => {
                command = Some(arg);
            }
            other if command.is_some() && session.is_none() => {
                session = Some(
                    other
                        .parse()
                        .map_err(|_| format!("`{other}` is not a session id"))?,
                );
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let connect = connect.ok_or_else(|| "--connect is required".to_owned())?;
    let request = match (command.as_deref(), session) {
        (Some("status"), None) => RequestFrame::Status,
        (Some("shutdown"), None) => RequestFrame::Shutdown,
        (Some("events"), Some(session)) => RequestFrame::Events { session },
        (Some("cancel"), Some(session)) => RequestFrame::Cancel { session },
        (Some(_), None) => return Err("events/cancel need a session id".to_owned()),
        (Some(cmd), Some(_)) => return Err(format!("{cmd} takes no session id")),
        (None, _) => return Err("a command is required".to_owned()),
    };
    Ok((connect, request))
}

fn fail(reason: &str) -> ! {
    eprintln!("{reason}");
    std::process::exit(1);
}

fn main() {
    let (endpoint, request) = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut client = Connection::connect(&endpoint)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {endpoint}: {e}")));
    client
        .send_line(&request.to_line())
        .unwrap_or_else(|e| fail(&format!("cannot send request: {e}")));

    loop {
        let line = match client.recv_line() {
            Ok(Some(line)) => line,
            Ok(None) => fail("server closed the connection mid-response"),
            Err(e) => fail(&format!("read failed: {e}")),
        };
        let Some(response) = ResponseFrame::parse_if_response(&line) else {
            // An event frame of a streamed session: pass through verbatim.
            println!("{line}");
            continue;
        };
        let response = response.unwrap_or_else(|e| fail(&format!("malformed response: {e}")));
        match response {
            ResponseFrame::Status {
                draining,
                queue_depth,
                capacity,
                sessions,
                cache,
            } => {
                for s in &sessions {
                    println!(
                        "{:>6}  {:<9}  p{:<3}  {:>6} events  {}",
                        s.session, s.state, s.priority, s.events, s.study
                    );
                }
                println!(
                    "queue {queue_depth}/{capacity}{}  cache hits={} misses={} pruned={} l2_hits={} l2_misses={} l2_rejects={}",
                    if draining { " (draining)" } else { "" },
                    cache.hits,
                    cache.misses,
                    cache.pruned,
                    cache.l2_hits,
                    cache.l2_misses,
                    cache.l2_rejects,
                );
                return;
            }
            ResponseFrame::Cancelled { session, active } => {
                println!(
                    "session {session} {}",
                    if active {
                        "cancelled"
                    } else {
                        "was already done"
                    }
                );
                return;
            }
            ResponseFrame::Done {
                session,
                outcome,
                error,
                cache,
            } => {
                let cache = cache.unwrap_or_default();
                eprintln!(
                    "session {session}: {outcome} cache hits={} misses={} pruned={} l2_hits={} l2_misses={} l2_rejects={}",
                    cache.hits,
                    cache.misses,
                    cache.pruned,
                    cache.l2_hits,
                    cache.l2_misses,
                    cache.l2_rejects,
                );
                match outcome.as_str() {
                    "finished" => return,
                    _ => fail(&error.unwrap_or(outcome)),
                }
            }
            ResponseFrame::Draining => {
                println!("server is draining");
                return;
            }
            ResponseFrame::Error { reason } => fail(&format!("server: {reason}")),
            ResponseFrame::Submitted { .. } => {
                fail("unexpected `submitted` response (use `run --connect` to submit)")
            }
        }
    }
}
