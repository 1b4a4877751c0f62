//! The artifact-style entry point: run a study from a JSON config file,
//! mirroring the paper artifact's `python run.py config/<study>.json`.
//!
//! ```text
//! cargo run -p nvmx_bench --release --bin run -- config/main_dnn_study.json
//! ```
//!
//! Results land as `<out>/<study-name>_results.csv` (one row per
//! array × traffic evaluation, constraint-filter column included), where
//! `<out>` is `NVMX_OUT` or `output/`. If the config carries an `output`
//! section, those sinks additionally stream while the study runs (CSV rows
//! per evaluation, JSONL events, terminal summary).
//!
//! The store opener and the artifact writer (CSV schemas, summary line)
//! are shared with the other campaign binaries (`nvmx_bench::campaign`),
//! so a distributed run's replayed capture diffs clean against this
//! binary's output.
//!
//! A config carrying a top-level `fault` section runs as a fault-injection
//! campaign: the base study's results CSV is written as usual, plus
//! `<out>/<study-name>_fault.csv` with one row per injection trial (seed
//! included), and the summary line carries the campaign counters.
//!
//! `--store DIR` (or a config `store` section; the flag wins) backs the
//! run with the persistent characterization store: subarray slabs already
//! published there are loaded instead of recomputed, and new slabs are
//! published back. Results are byte-identical either way; the L2 counters
//! are reported on stderr as `store <dir>: l2_hits=... l2_misses=...
//! l2_rejects=...`.
//!
//! `--connect ADDR` (`unix:PATH` or `tcp:HOST:PORT`) submits the config
//! to a running `nvmx-serve` daemon instead of executing locally
//! (`--priority N` orders the admission queue, higher first). The
//! streamed session frames are strictly replayed, so every artifact this
//! binary writes — results CSV, fault CSV, summary line, configured
//! output sinks — is byte-identical to a local run; only the terminal
//! event's observational cache counters reflect the server's warm shared
//! cache (`docs/PROTOCOL.md` § Determinism contract). The per-session
//! cache delta is reported on stderr.
//!
//! Exit codes: `0` success, `1` the study or its outputs failed, `2` usage
//! or config error — malformed configs are rejected (never a panic) with
//! the offending section named on stderr.

use nvmexplorer_core::fault_study::FaultOutcome;
use nvmexplorer_core::stream::MultiSink;
use nvmexplorer_core::sweep::StudyResult;
use nvmexplorer_core::transport::{Connection, Endpoint};
use nvmexplorer_core::wire::{RequestFrame, ResponseFrame, Served, StreamReplayer};
use nvmx_bench::campaign::{self, load_campaign, write_artifacts, Store};
use nvmx_bench::cli::{usage_error, Flags};
use nvmx_bench::fail;

const USAGE: &str = "usage: run <config.json> [--store DIR] [--connect ADDR [--priority N]]";

struct Args {
    config: String,
    store: Option<String>,
    connect: Option<Endpoint>,
    priority: u8,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = Flags::from_env();
    let (mut config, mut store, mut connect, mut priority) = (None, None, None, 0);
    while let Some(arg) = flags.next_arg() {
        match arg.as_str() {
            "--store" => store = Some(flags.value()?),
            "--connect" => connect = Some(Endpoint::parse(&flags.value()?)?),
            "--priority" => priority = flags.parse("an integer 0..=255")?,
            _ if arg.starts_with("--") || config.is_some() => return Err(flags.unexpected()),
            _ => config = Some(arg),
        }
    }
    if connect.is_none() && priority != 0 {
        return Err("--priority only applies with --connect".to_owned());
    }
    if connect.is_some() && store.is_some() {
        return Err("--store is the server's to configure under --connect".to_owned());
    }
    Ok(Args {
        config: config.ok_or_else(|| "a config path is required".to_owned())?,
        store,
        connect,
        priority,
    })
}

/// Submits the config at `path` to a running `nvmx-serve` and rebuilds
/// the study result from the streamed wire frames — the strict
/// [`StreamReplayer`] path, so the artifacts written afterwards are
/// byte-identical to a local run's (see `docs/PROTOCOL.md` § Determinism
/// contract). The per-session cache delta from the server's `done`
/// response goes to stderr.
fn run_remote(
    path: &str,
    endpoint: &Endpoint,
    priority: u8,
    sinks: &mut MultiSink,
) -> (StudyResult, Option<FaultOutcome>) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail!(2, "cannot read `{path}`: {e}"));
    let config: serde::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| fail!(2, "`{path}` is not valid JSON: {e}"));
    let mut client = Connection::connect(endpoint)
        .unwrap_or_else(|e| fail!(1, "cannot connect to {endpoint}: {e}"));
    client
        .send_line(&RequestFrame::Submit { priority, config }.to_line())
        .unwrap_or_else(|e| fail!(1, "cannot submit: {e}"));

    let mut replayer = StreamReplayer::new();
    let mut session = None;
    loop {
        let line = match client.recv_line() {
            Ok(Some(line)) => line,
            Ok(None) => fail!(
                1,
                "server closed the connection before the session finished"
            ),
            Err(e) => fail!(1, "read failed: {e}"),
        };
        // One pass classifies the line: a session event frame feeds the
        // strict replayer (which also forwards the event into the local
        // output sinks); a response brackets the session.
        let response = match replayer.push_served_line(&line, sinks) {
            Ok(Served::Event { .. }) => continue,
            Ok(Served::Response(response)) => response,
            Err(e) => fail!(1, "server stream is not a valid session capture: {e}"),
        };
        match response {
            Ok(ResponseFrame::Submitted {
                session: id,
                study,
                queue_depth,
            }) => {
                session = Some(id);
                eprintln!("submitted as session {id} ({study}), {queue_depth} ahead in queue");
            }
            Ok(ResponseFrame::Done {
                session,
                outcome,
                error,
                cache,
            }) => {
                let cache = cache.unwrap_or_default();
                eprintln!("session {session}: {outcome} cache {cache}");
                if outcome != "finished" {
                    fail!(1, "study failed: {}", error.unwrap_or(outcome));
                }
                break;
            }
            Ok(ResponseFrame::Error { reason }) => {
                fail!(if session.is_none() { 2 } else { 1 }, "server: {reason}")
            }
            Ok(other) => fail!(1, "unexpected `{}` response mid-session", other.kind()),
            Err(e) => fail!(1, "malformed response: {e}"),
        }
    }
    let replay = replayer
        .finish()
        .unwrap_or_else(|e| fail!(1, "session stream did not finish cleanly: {e}"));
    (replay.result, replay.fault)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| usage_error(e, USAGE));
    let campaign = load_campaign(&args.config).unwrap_or_else(|e| fail!(2, "{e}"));
    let study = campaign.study();

    let mut sinks = nvmx_viz::sink::from_spec(&study.output)
        .unwrap_or_else(|e| fail!(1, "cannot open output sinks: {e}"));
    // The flag overrides the config's `store` section; either way the cache
    // is owned here so the L2 counters can be reported after the run.
    // Under --connect the server owns cache and store.
    let store = match args.connect {
        Some(_) => None,
        None => Store::open(args.store, study).unwrap_or_else(|e| fail!(1, "{e}")),
    };
    let (result, fault) = match &args.connect {
        Some(endpoint) => run_remote(&args.config, endpoint, args.priority, &mut sinks),
        None => campaign::executor(None, store.as_ref())
            .run_campaign(&campaign, &mut sinks)
            .unwrap_or_else(|e| fail!(1, "study failed: {e}")),
    };
    // One line per distinct (cell, reason), in first-occurrence order: an
    // unrealizable cell is skipped once per target, capacity, and depth,
    // and repeating the line says nothing new.
    let mut skips: Vec<(&(String, String), usize)> = Vec::new();
    for skip in &result.skipped {
        match skips.iter_mut().find(|(seen, _)| *seen == skip) {
            Some((_, count)) => *count += 1,
            None => skips.push((skip, 1)),
        }
    }
    for ((cell, reason), count) in skips {
        eprintln!("skipped {cell}: {reason} (×{count})");
    }

    let out = nvmx_bench::output_dir();
    write_artifacts(
        Some(study),
        &result,
        fault.as_ref(),
        Some(&out.join(format!("{}_results.csv", study.name))),
        Some(&out.join(format!("{}_fault.csv", study.name))),
    )
    .unwrap_or_else(|e| fail!(1, "{e}"));
    // Store telemetry goes to stderr only: stdout (summary line) and the
    // results CSV must stay byte-identical with and without a warm store.
    if let Some(store) = &store {
        store.report();
    }
}
