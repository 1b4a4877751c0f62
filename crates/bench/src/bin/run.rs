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
//! The CSV schema and the final summary line are shared with
//! `nvmx-coordinator` (`nvmx_bench::campaign`), so a distributed run's
//! replayed capture diffs clean against this binary's output.
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

use nvmexplorer_core::config::CampaignConfig;
use nvmexplorer_core::stream::StudyExecutor;
use nvmexplorer_core::transport::{Connection, Endpoint};
use nvmexplorer_core::wire::{RequestFrame, ResponseFrame, Served, StreamReplayer};
use nvmx_bench::campaign::{
    fault_csv, fault_summary_line, load_campaign, results_csv, summary_line,
};
use nvmx_nvsim::SubarrayCache;
use nvmx_viz::sink::SpecSinks;
use std::path::PathBuf;

const USAGE: &str = "usage: run <config.json> [--store DIR] [--connect ADDR [--priority N]]";

struct Args {
    config: String,
    store: Option<String>,
    connect: Option<Endpoint>,
    priority: u8,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut config = None;
    let mut store = None;
    let mut connect = None;
    let mut priority = 0;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--store" => store = Some(value("--store")?),
            "--connect" => connect = Some(Endpoint::parse(&value("--connect")?)?),
            "--priority" => {
                priority = value("--priority")?
                    .parse()
                    .map_err(|e| format!("--priority: {e}"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path if config.is_none() => config = Some(path.to_owned()),
            extra => return Err(format!("unexpected argument `{extra}`")),
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
    sinks: &mut SpecSinks,
) -> (
    nvmexplorer_core::sweep::StudyResult,
    Option<nvmexplorer_core::fault_study::FaultOutcome>,
) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        std::process::exit(2);
    });
    let config: serde::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("`{path}` is not valid JSON: {e}");
        std::process::exit(2);
    });
    let mut client = Connection::connect(endpoint).unwrap_or_else(|e| {
        eprintln!("cannot connect to {endpoint}: {e}");
        std::process::exit(1);
    });
    client
        .send_line(&RequestFrame::Submit { priority, config }.to_line())
        .unwrap_or_else(|e| {
            eprintln!("cannot submit: {e}");
            std::process::exit(1);
        });

    let mut replayer = StreamReplayer::new();
    let mut session = None;
    loop {
        let line = match client.recv_line() {
            Ok(Some(line)) => line,
            Ok(None) => {
                eprintln!("server closed the connection before the session finished");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("read failed: {e}");
                std::process::exit(1);
            }
        };
        // One pass classifies the line: a session event frame feeds the
        // strict replayer (which also forwards the event into the local
        // output sinks); a response brackets the session.
        let response = match replayer.push_served_line(&line, sinks) {
            Ok(Served::Event { .. }) => continue,
            Ok(Served::Response(response)) => response,
            Err(e) => {
                eprintln!("server stream is not a valid session capture: {e}");
                std::process::exit(1);
            }
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
                    eprintln!("study failed: {}", error.unwrap_or(outcome));
                    std::process::exit(1);
                }
                break;
            }
            Ok(ResponseFrame::Error { reason }) => {
                eprintln!("server: {reason}");
                std::process::exit(if session.is_none() { 2 } else { 1 });
            }
            Ok(other) => {
                eprintln!("unexpected `{}` response mid-session", other.kind());
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("malformed response: {e}");
                std::process::exit(1);
            }
        }
    }
    let replay = replayer.finish().unwrap_or_else(|e| {
        eprintln!("session stream did not finish cleanly: {e}");
        std::process::exit(1);
    });
    (replay.result, replay.fault)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let (path, store_flag) = (args.config.clone(), args.store.clone());
    let campaign = load_campaign(&path).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let study = campaign.study();

    let mut sinks = SpecSinks::new(&study.output).unwrap_or_else(|e| {
        eprintln!("cannot open output sinks: {e}");
        std::process::exit(1);
    });
    // The flag overrides the config's `store` section; either way the cache
    // is owned here so the L2 counters can be reported after the run.
    // Under --connect the server owns cache and store; both stay unset.
    let store_dir: Option<PathBuf> = match &args.connect {
        Some(_) => None,
        None => store_flag
            .or_else(|| study.store.dir.clone())
            .map(PathBuf::from),
    };
    let cache = store_dir.as_ref().map(|dir| {
        SubarrayCache::with_store(dir).unwrap_or_else(|e| {
            eprintln!(
                "cannot open characterization store `{}`: {e}",
                dir.display()
            );
            std::process::exit(1);
        })
    });
    let (result, fault) = match &args.connect {
        Some(endpoint) => run_remote(&path, endpoint, args.priority, &mut sinks),
        None => {
            let mut executor = StudyExecutor::new();
            if let Some(cache) = &cache {
                executor = executor.cache(cache);
            }
            match &campaign {
                CampaignConfig::Study(study) => {
                    let result = executor.run(study, &mut sinks).unwrap_or_else(|e| {
                        eprintln!("study failed: {e}");
                        std::process::exit(1);
                    });
                    (result, None)
                }
                CampaignConfig::Fault(campaign) => {
                    let result = executor
                        .run_fault(campaign, &mut sinks)
                        .unwrap_or_else(|e| {
                            eprintln!("study failed: {e}");
                            std::process::exit(1);
                        });
                    (result.study, Some(result.fault))
                }
            }
        }
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

    let out = nvmx_bench::output_dir().join(format!("{}_results.csv", study.name));
    results_csv(study, &result)
        .write_to(&out)
        .unwrap_or_else(|e| {
            eprintln!("cannot write results: {e}");
            std::process::exit(1);
        });
    match &fault {
        Some(fault) => {
            let fault_out = nvmx_bench::output_dir().join(format!("{}_fault.csv", study.name));
            fault_csv(fault).write_to(&fault_out).unwrap_or_else(|e| {
                eprintln!("cannot write fault results: {e}");
                std::process::exit(1);
            });
            println!("{}", fault_summary_line(study, &result, fault));
            eprintln!("  [{}] results -> {}", study.name, out.display());
            eprintln!("  [{}] fault trials -> {}", study.name, fault_out.display());
        }
        None => {
            println!("{}", summary_line(study, &result));
            eprintln!("  [{}] results -> {}", study.name, out.display());
        }
    }
    // Store telemetry goes to stderr only: stdout (summary line) and the
    // results CSV must stay byte-identical with and without a warm store.
    if let (Some(dir), Some(cache)) = (&store_dir, &cache) {
        let stats = cache.stats();
        eprintln!(
            "store {}: l2_hits={} l2_misses={} l2_rejects={}",
            dir.display(),
            stats.l2_hits,
            stats.l2_misses,
            stats.l2_rejects,
        );
    }
}
