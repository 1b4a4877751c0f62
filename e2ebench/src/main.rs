//! `nvmx-e2ebench` — the end-to-end benchmark's command line.
//!
//! ```text
//! bash e2ebench/run.sh --workload campaign_large --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root (`run.sh` builds everything first). Prints
//! a human-readable report, writes the full report (and, traced, the
//! spans) under `.e2ebench/results/`, and ends stdout with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! Exit codes: `0` a result was printed (check `correct`), `1` the
//! benchmark could not produce every metric, `2` usage error.

use nvmx_e2ebench::check::{self, Ledger};
use nvmx_e2ebench::gen::{self, Expected, Workload};
use nvmx_e2ebench::host;
use nvmx_e2ebench::layers::{Layers, LAYER_METRICS};
use nvmx_e2ebench::paths::Paths;
use nvmx_e2ebench::procs::{self, Runner, Spawner, TempDir};
use nvmx_e2ebench::stats::Summary;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

const USAGE: &str = "usage: nvmx-e2ebench --workload campaign_large|capacity_scan|paper_suite \
                     --seed N --seconds S --trace 0|1";

/// Which statistic of a run's samples a metric reports.
#[derive(Debug, Clone, Copy)]
enum Stat {
    Median,
    /// Path timings. On a shared 2-vCPU VM host, individual processes
    /// run either in a fast mode or in one about 1.5× slower, in streaks
    /// of seconds to minutes. A run's median then lands on either mode
    /// depending on the mix and jumps between runs; the mean moves only in
    /// proportion to the mix, so it stays the steadier of the two. The
    /// median, tail percentile and sample count are still reported.
    Mean,
}

impl Stat {
    fn of(self, s: &Summary) -> f64 {
        match self {
            Self::Median => s.median,
            Self::Mean => s.mean,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Self::Median => "median",
            Self::Mean => "mean",
        }
    }
}

/// The end-to-end metrics: name, unit, reported statistic. `setup_s` is
/// the median of several set-ups in a run.
const END_TO_END: [(&str, &str, Stat); 10] = [
    ("run_s", "s", Stat::Mean),
    ("run_jsonl_s", "s", Stat::Mean),
    ("served_s", "s", Stat::Mean),
    ("leased_s", "s", Stat::Mean),
    ("replay_s", "s", Stat::Mean),
    ("store_cold_s", "s", Stat::Mean),
    ("store_warm_s", "s", Stat::Mean),
    ("setup_s", "s", Stat::Median),
    ("capture_mb", "MB", Stat::Median),
    ("peak_rss_mb", "MB", Stat::Median),
];

/// The campaign binaries the paths drive.
const BINARIES: [&str; 5] = [
    "run",
    "all",
    "nvmx-serve",
    "nvmx-coordinator",
    "nvmx-worker",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--spawner") {
        if let Err(e) = procs::serve_spawner() {
            eprintln!("nvmx-e2ebench spawner: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    // Everything the run owns (daemons, scratch dir) is dropped inside
    // `run`, before the process exits.
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("nvmx-e2ebench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn summary_value(m: &Measured, s: &Summary) -> Value {
    let [q1, _, q3] = s.quartiles.unwrap_or([s.median; 3]);
    let mut fields = vec![
        ("name", Value::Str(m.name.clone())),
        ("unit", Value::Str(m.unit.to_owned())),
        ("value", Value::Float(m.stat.of(s))),
        ("statistic", Value::Str(m.stat.label().to_owned())),
        ("median", Value::Float(s.median)),
        ("q1", Value::Float(q1)),
        ("q3", Value::Float(q3)),
        ("max", Value::Float(s.max)),
        ("n", Value::Uint(s.n as u64)),
        (
            "samples",
            Value::Array(m.samples.iter().copied().map(Value::Float).collect()),
        ),
        (
            "tail",
            s.tail.map_or(Value::Null, |(p, v)| {
                obj(vec![
                    ("percentile", Value::Float(p)),
                    ("value", Value::Float(v)),
                ])
            }),
        ),
    ];
    if let Some(moves) = m.moves {
        fields.push(("moves", Value::Str(moves.to_owned())));
    }
    obj(fields)
}

/// One reported metric and its samples.
struct Measured {
    name: String,
    unit: &'static str,
    stat: Stat,
    samples: Vec<f64>,
    /// For a per-layer metric, the end-to-end metric it should move.
    moves: Option<&'static str>,
}

fn run(args: &Args) -> Result<(), String> {
    // First, while this process is still small: see `Spawner`.
    let spawner = Spawner::start().map_err(|e| format!("cannot start the spawner: {e}"))?;
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let bins = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .parent()
        .map(Path::to_path_buf)
        .ok_or("executable has no directory")?;
    if let Some(missing) = BINARIES.iter().find(|b| !bins.join(b).is_file()) {
        return Err(format!("`{missing}` is not built in {}", bins.display()));
    }
    let work = Path::new(".e2ebench");
    let results = work.join("results");
    std::fs::create_dir_all(&results)
        .map_err(|e| format!("cannot create {}: {e}", results.display()))?;
    let tmp =
        TempDir::new(&work.join("tmp")).map_err(|e| format!("cannot create scratch dir: {e}"))?;
    let tmp_abs = root.join(tmp.path());

    let workload = args.workload;
    let configs = gen::write_configs(&tmp_abs, workload, args.seed)
        .map_err(|e| format!("cannot write configs: {e}"))?;
    let reference = check::reference(&configs)?;
    let mut ledger = Ledger::default();
    let expected = Expected::of(workload);
    ledger.op(
        "generator counts",
        if reference.counts == expected {
            Vec::new()
        } else {
            vec![format!(
                "seed produced {:?}, pinned {expected:?}",
                reference.counts
            )]
        },
    );

    let mut measured = Vec::new();
    let mut spans = None;
    if args.trace {
        let layers = Layers {
            runner: Runner {
                spawner: &spawner,
                bins: &bins,
                tmp: &tmp_abs,
            },
            tmp_rel: tmp.path(),
            workload,
            configs: &configs,
            reference: &reference,
        };
        let (mut samples, tracer) = layers.measure(args.seconds, args.seed, &mut ledger);
        for (name, unit, moves) in LAYER_METRICS {
            measured.push(Measured {
                name: (*name).to_owned(),
                unit,
                stat: Stat::Median,
                samples: samples.remove(*name).unwrap_or_default(),
                moves: Some(moves),
            });
        }
        spans = Some(tracer.to_jsonl());
    } else {
        let paths = Paths {
            runner: Runner {
                spawner: &spawner,
                bins: &bins,
                tmp: &tmp_abs,
            },
            workload,
            configs: &configs,
            reference: &reference,
        };
        let mut samples = paths.measure(args.seconds, &mut ledger);
        for (name, unit, stat) in END_TO_END {
            measured.push(Measured {
                name: name.to_owned(),
                unit,
                stat,
                samples: samples.remove(name).unwrap_or_default(),
                moves: None,
            });
        }
    }
    drop(spawner);
    drop(tmp);

    // Human-readable report.
    let provenance = host::provenance(&root);
    let text = |key: &str| {
        provenance
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "e2ebench workload={} seed={} (seed moves the headline input: {}) trace={} seconds={} closed loop, 1 client",
        workload.name(),
        args.seed,
        if workload.seed_moves_headline() { "yes" } else { "no: `all` takes no input" },
        u8::from(args.trace),
        args.seconds
    );
    let _ = writeln!(
        out,
        "config {} fnv1a={:016x}: {} arrays, {} evaluations, {} frames",
        configs.name,
        configs.hash,
        reference.counts.arrays,
        reference.counts.evaluations,
        reference.counts.frames
    );
    let _ = writeln!(
        out,
        "host nproc={} cpu=\"{}\" kernel={} rustc=\"{}\" commit={} profile={}",
        host::nproc(),
        text("cpu_model"),
        text("kernel"),
        text("rustc"),
        text("git_commit"),
        text("build_profile")
    );
    let _ = writeln!(
        out,
        "{:<28} {:>6} {:>22} {:>14} {:>14} {:>14} {:>22} {:>5}",
        "metric", "unit", "value", "median", "q1", "q3", "tail", "n"
    );
    let mut summaries = BTreeMap::new();
    let mut missing = Vec::new();
    for m in &measured {
        match Summary::of(&m.samples) {
            Some(s) => {
                let [q1, _, q3] = s.quartiles.unwrap_or([s.median; 3]);
                let tail = s.tail.map_or_else(
                    || format!("max {:.6}", s.max),
                    |(p, v)| format!("p{p} {v:.6}"),
                );
                let value = format!("{} {:.6}", m.stat.label(), m.stat.of(&s));
                let _ = writeln!(
                    out,
                    "{:<28} {:>6} {value:>22} {:>14.6} {q1:>14.6} {q3:>14.6} {tail:>22} {:>5}",
                    m.name, m.unit, s.median, s.n
                );
                summaries.insert(m.name.clone(), s);
            }
            None => missing.push(m.name.clone()),
        }
    }
    let _ = writeln!(
        out,
        "error_rate {} ({} of {} operations failed)",
        ledger.error_rate(),
        ledger.failed,
        ledger.attempted
    );
    for failure in &ledger.failures {
        let _ = writeln!(out, "FAILED {failure}");
    }

    // The full report, and the spans of a traced run.
    let stem = format!(
        "{}-seed{}-trace{}-{}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        std::process::id()
    );
    let spans_path = results.join(format!("{stem}-spans.jsonl"));
    if let Some(spans) = &spans {
        std::fs::write(&spans_path, spans).map_err(|e| format!("cannot write spans: {e}"))?;
        let _ = writeln!(out, "spans {}", spans_path.display());
    }
    let report = obj(vec![
        ("workload", Value::Str(workload.name().to_owned())),
        ("seed", Value::Uint(args.seed)),
        (
            "seed_moves_headline",
            Value::Bool(workload.seed_moves_headline()),
        ),
        ("trace", Value::Bool(args.trace)),
        ("seconds", Value::Uint(args.seconds)),
        ("load", Value::Str("closed loop, 1 client".to_owned())),
        (
            "config",
            obj(vec![
                ("study", Value::Str(configs.name.clone())),
                ("fnv1a", Value::Str(format!("{:016x}", configs.hash))),
                ("arrays", Value::Uint(reference.counts.arrays as u64)),
                (
                    "evaluations",
                    Value::Uint(reference.counts.evaluations as u64),
                ),
                ("frames", Value::Uint(reference.counts.frames)),
            ]),
        ),
        ("host", provenance),
        (
            "metrics",
            Value::Array(
                measured
                    .iter()
                    .filter_map(|m| Some(summary_value(m, summaries.get(&m.name)?)))
                    .collect(),
            ),
        ),
        ("attempted", Value::Uint(ledger.attempted)),
        ("failed", Value::Uint(ledger.failed)),
        ("error_rate", Value::Float(ledger.error_rate())),
        (
            "failures",
            Value::Array(ledger.failures.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "spans",
            spans.as_ref().map_or(Value::Null, |_| {
                Value::Str(spans_path.display().to_string())
            }),
        ),
    ]);
    let report_path = results.join(format!("{stem}.json"));
    std::fs::write(
        &report_path,
        serde_json::to_string_pretty(&report).expect("plain JSON"),
    )
    .map_err(|e| format!("cannot write report: {e}"))?;
    let _ = writeln!(out, "report {}", report_path.display());
    print!("{out}");

    if !missing.is_empty() {
        return Err(format!("no passing sample for {}", missing.join(", ")));
    }
    let metrics = measured
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                obj(vec![
                    ("value", Value::Float(m.stat.of(&summaries[&m.name]))),
                    ("unit", Value::Str(m.unit.to_owned())),
                ]),
            )
        })
        .collect();
    let result = obj(vec![
        ("correct", Value::Bool(ledger.failed == 0)),
        ("attempted", Value::Uint(ledger.attempted)),
        ("failed", Value::Uint(ledger.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("plain JSON"));
    Ok(())
}
