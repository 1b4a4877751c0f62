//! The traced run: the layers' public functions called in-process, in the
//! order the binaries call them, with a span around each call. Per-layer
//! numbers therefore come from outside the program; `_ms` values are self
//! times, the rest counts or ratios, each the median over the passes a
//! run fits in.

use crate::check::{diff, ledger_problems, FinishStats, Ledger, Reference};
use crate::gen::{self, Configs, Workload};
use crate::procs::{Finished, Runner};
use crate::stats::median;
use crate::trace::Tracer;
use nvmexplorer_core::config::CampaignConfig;
use nvmexplorer_core::eval::EvalKernel;
use nvmexplorer_core::fsutil::write_file_atomic;
use nvmexplorer_core::service::{CampaignService, ServiceConfig};
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmexplorer_core::transport::{Connection, Endpoint, Listener};
use nvmexplorer_core::wire::{self, StreamReplayer, WireSink};
use nvmx_bench::campaign::results_csv;
use nvmx_nvsim::SubarrayCache;
use nvmx_viz::sink::JsonlSink;
use nvmx_workloads::grid::TrafficGrid;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric: name, unit, and the end-to-end metric (on the
/// workload) it should move.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("config.parse_ms", "ms", "run_s on all"),
    ("config.traffic_resolve_ms", "ms", "run_s on all"),
    (
        "sweep.study_cold_ms",
        "ms",
        "run_s and store_*_s on capacity_scan",
    ),
    (
        "sweep.study_warm_ms",
        "ms",
        "run_s and store_*_s on capacity_scan",
    ),
    ("sweep.arrays", "count", "run_s on capacity_scan"),
    ("sweep.evaluations", "count", "run_s on capacity_scan"),
    ("sweep.skipped", "count", "run_s on capacity_scan"),
    ("nvsim.cache_hits", "count", "run_s on capacity_scan"),
    ("nvsim.cache_misses", "count", "run_s on capacity_scan"),
    ("nvsim.pruned", "count", "run_s on capacity_scan"),
    ("nvsim.hit_rate", "ratio", "run_s on capacity_scan"),
    ("nvsim.prune_rate", "ratio", "run_s on capacity_scan"),
    ("store.cold_study_ms", "ms", "store_cold_s on capacity_scan"),
    ("store.warm_study_ms", "ms", "store_warm_s on capacity_scan"),
    ("store.l2_hits", "count", "store_warm_s on capacity_scan"),
    ("store.l2_misses", "count", "store_cold_s on capacity_scan"),
    ("store.l2_rejects", "count", "store_warm_s on capacity_scan"),
    ("store.slabs", "count", "store_cold_s on capacity_scan"),
    ("eval.apply_batch_ms", "ms", "run_s on campaign_large"),
    ("eval.evaluations", "count", "run_s on campaign_large"),
    (
        "campaign.results_csv_ms",
        "ms",
        "run_s on campaign_large; every path writing the CSV",
    ),
    (
        "viz.csv_render_ms",
        "ms",
        "run_s on campaign_large; every path writing the CSV",
    ),
    (
        "fsutil.write_ms",
        "ms",
        "run_s on campaign_large; every path writing the CSV",
    ),
    ("viz.csv_bytes", "B", "run_s on campaign_large"),
    ("viz.jsonl_sink_ms", "ms", "run_jsonl_s on campaign_large"),
    ("viz.jsonl_bytes", "B", "run_jsonl_s on campaign_large"),
    (
        "wire.encode_ms",
        "ms",
        "run_jsonl_s, leased_s on campaign_large",
    ),
    (
        "wire.frames",
        "count",
        "leased_s, capture_mb on campaign_large",
    ),
    ("wire.capture_bytes", "B", "capture_mb on campaign_large"),
    (
        "wire.decode_ms",
        "ms",
        "replay_s, served_s, leased_s on campaign_large",
    ),
    (
        "transport.send_recv_ms",
        "ms",
        "leased_s, served_s on campaign_large",
    ),
    (
        "transport.lines",
        "count",
        "leased_s, served_s on campaign_large",
    ),
    ("service.start_ms", "ms", "setup_s on campaign_large"),
    ("service.submit_ms", "ms", "served_s on campaign_large"),
    (
        "service.first_frame_ms",
        "ms",
        "served_s, setup_s on campaign_large",
    ),
    (
        "service.session_ms",
        "ms",
        "served_s, setup_s on campaign_large",
    ),
    ("service.frames", "count", "served_s on campaign_large"),
    (
        "reshard.frames_merged",
        "count",
        "leased_s on campaign_large",
    ),
    ("reshard.duplicates", "count", "leased_s on campaign_large"),
    ("reshard.re_leased", "count", "leased_s on campaign_large"),
    ("reshard.respawns", "count", "leased_s on campaign_large"),
    (
        "reshard.useful_ratio",
        "ratio",
        "leased_s on campaign_large",
    ),
    ("workloads.llc_ms", "ms", "run_s on paper_suite"),
    ("workloads.bfs_ms", "ms", "run_s on paper_suite"),
    ("workloads.dnn_ms", "ms", "run_s on paper_suite"),
    ("fault.campaign_ms", "ms", "run_s on paper_suite"),
    ("fault.trials", "count", "run_s on paper_suite"),
    ("fault.degraded", "count", "run_s on paper_suite"),
    ("experiments.fig1_ms", "ms", "run_s on paper_suite"),
    ("experiments.table1_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig3_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig4_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig5_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig6_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig7_ms", "ms", "run_s on paper_suite"),
    ("experiments.table2_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig8_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig9_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig10_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig11_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig12_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig13_ms", "ms", "run_s on paper_suite"),
    ("experiments.fig14_ms", "ms", "run_s on paper_suite"),
    ("experiments.table3_ms", "ms", "run_s on paper_suite"),
    ("experiments.findings_ok", "count", "run_s on paper_suite"),
    ("experiments.findings_dev", "count", "run_s on paper_suite"),
    ("proc.spawn_ms", "ms", "every path metric on all"),
    (
        "trace.overhead_ratio",
        "ratio",
        "none: traced run-path total over untraced run_s",
    ),
];

/// The spans that make up the `run` binary's own work, summed against
/// the untraced `run_s` for the tracing overhead.
const RUN_PATH: [&str; 6] = [
    "config.parse",
    "config.traffic_resolve",
    "sweep.study_cold",
    "campaign.results_csv",
    "viz.csv_render",
    "fsutil.write",
];

/// Spawns of a `run` child that exits on a usage error.
const SPAWN_REPS: usize = 5;

/// Untraced `run` (or `all`) children for the overhead ratio.
const UNTRACED_REPS: usize = 3;

/// The traced run's state.
pub struct Layers<'a> {
    /// How the campaign binaries run (for the once-per-run children).
    pub runner: Runner<'a>,
    /// The scratch directory relative to the working directory (short
    /// enough for a unix socket path).
    pub tmp_rel: &'a Path,
    /// The workload.
    pub workload: Workload,
    /// Its generated configs.
    pub configs: &'a Configs,
    /// The artifacts the traced calls must reproduce.
    pub reference: &'a Reference,
}

/// Per-layer samples, by metric name.
pub type LayerSamples = BTreeMap<String, Vec<f64>>;

fn push(samples: &mut LayerSamples, name: &str, value: f64) {
    samples.entry(name.to_owned()).or_default().push(value);
}

impl Layers<'_> {
    /// Runs one child to a clean exit, or names why it did not get there.
    fn child(&self, cmd: &Command, tag: &str) -> Result<Finished, String> {
        match self.runner.run(cmd, tag) {
            Ok(f) if f.ok() => Ok(f),
            Ok(f) => Err(f.describe()),
            Err(e) => Err(format!("cannot run: {e}")),
        }
    }

    /// One traced pass over every layer.
    fn pass(&self, p: usize, t: &mut Tracer, ledger: &mut Ledger, s: &mut LayerSamples) {
        let mut problems = Vec::new();
        t.span("pass", |t| self.pass_body(p, t, &mut problems, s));
        ledger.op(&format!("trace pass {p}"), problems);
    }

    #[allow(clippy::too_many_lines)]
    fn pass_body(
        &self,
        p: usize,
        t: &mut Tracer,
        problems: &mut Vec<String>,
        s: &mut LayerSamples,
    ) {
        let text = &self.configs.text;
        let want = &self.reference.counts;

        // config
        let (campaign, id) = t.span("config.parse", |_| CampaignConfig::from_json(text));
        push(s, "config.parse_ms", t.self_ms(id));
        let campaign = match campaign {
            Ok(c) => c,
            Err(e) => return problems.push(format!("config: {e}")),
        };
        let study = campaign.study();
        let (patterns, id) = t.span("config.traffic_resolve", |_| study.traffic.resolve());
        push(s, "config.traffic_resolve_ms", t.self_ms(id));
        let patterns = match patterns {
            Ok(p) => p,
            Err(e) => return problems.push(format!("traffic: {e}")),
        };

        // sweep + nvsim: a cold study on a fresh cache, then warm on it.
        let cache = SubarrayCache::new();
        let mut fin = FinishStats::default();
        let (result, id) = t.span("sweep.study_cold", |_| {
            StudyExecutor::new().cache(&cache).run(study, &mut fin)
        });
        push(s, "sweep.study_cold_ms", t.self_ms(id));
        let result = match result {
            Ok(r) => r,
            Err(e) => return problems.push(format!("study: {e}")),
        };
        if (result.arrays.len(), result.evaluations.len()) != (want.arrays, want.evaluations) {
            problems.push(format!(
                "study produced {} arrays, {} evaluations",
                result.arrays.len(),
                result.evaluations.len()
            ));
        }
        push(s, "sweep.arrays", result.arrays.len() as f64);
        push(s, "sweep.evaluations", result.evaluations.len() as f64);
        push(s, "sweep.skipped", result.skipped.len() as f64);
        let stats = fin.0.and_then(|f| f.cache).unwrap_or_default();
        push(s, "nvsim.cache_hits", stats.hits as f64);
        push(s, "nvsim.cache_misses", stats.misses as f64);
        push(s, "nvsim.pruned", stats.pruned as f64);
        push(s, "nvsim.hit_rate", stats.hit_rate());
        push(s, "nvsim.prune_rate", stats.prune_rate());
        let executor = StudyExecutor::new().cache(&cache);
        let (warm, id) = t.span("sweep.study_warm", |_| executor.run(study, &mut NullSink));
        let warm_ms = t.self_ms(id);
        push(s, "sweep.study_warm_ms", warm_ms);
        if warm.map(|w| w.evaluations.len()).ok() != Some(want.evaluations) {
            problems.push("warm study differs from cold".to_owned());
        }

        // store: publish into an empty directory, then load it back.
        let dir = self.runner.tmp.join(format!("trace-store-{p}"));
        let mut l2 = [(0, 0, 0); 2];
        for (phase, (name, metric)) in [
            ("store.cold_study", "store.cold_study_ms"),
            ("store.warm_study", "store.warm_study_ms"),
        ]
        .into_iter()
        .enumerate()
        {
            let mut fin = FinishStats::default();
            let (run, id) = t.span(name, |_| {
                StudyExecutor::new()
                    .store(&dir)
                    .map_err(|e| e.to_string())
                    .and_then(|x| x.run(study, &mut fin).map_err(|e| e.to_string()))
            });
            push(s, metric, t.self_ms(id));
            if let Err(e) = run {
                problems.push(format!("{name}: {e}"));
            }
            let c = fin.0.and_then(|f| f.cache).unwrap_or_default();
            l2[phase] = (c.l2_hits, c.l2_misses, c.l2_rejects);
        }
        let slabs = std::fs::read_dir(&dir).map_or(0, |d| d.count());
        let _ = std::fs::remove_dir_all(&dir);
        let [(_, cold_misses, cold_rejects), (warm_hits, warm_misses, warm_rejects)] = l2;
        if warm_hits == 0 || warm_misses + warm_rejects != 0 {
            problems.push(format!(
                "warm store l2_hit_rate below 1.0: {warm_hits} hits, {warm_misses} misses, {warm_rejects} rejects"
            ));
        }
        push(s, "store.l2_hits", warm_hits as f64);
        push(s, "store.l2_misses", cold_misses as f64);
        push(s, "store.l2_rejects", (cold_rejects + warm_rejects) as f64);
        push(s, "store.slabs", slabs as f64);

        // eval: the batched kernels over every result array.
        let arrays: Vec<_> = result.arrays.iter().cloned().map(Arc::new).collect();
        let grid = TrafficGrid::new(&patterns);
        let (evals, id) = t.span("eval.apply_batch", |_| {
            arrays
                .iter()
                .flat_map(|a| EvalKernel::new(a).apply_batch(&grid))
                .collect::<Vec<_>>()
        });
        push(s, "eval.apply_batch_ms", t.self_ms(id));
        push(s, "eval.evaluations", evals.len() as f64);
        let same = evals.len() == result.evaluations.len()
            && evals.iter().zip(&result.evaluations).all(|(a, b)| {
                a.total_power().value().to_bits() == b.total_power().value().to_bits()
            });
        if !same {
            problems.push("batched kernels disagree with the study's evaluations".to_owned());
        }
        drop(evals);

        // campaign / viz / fsutil: the results CSV, as `run` writes it.
        let (csv, id) = t.span("campaign.results_csv", |_| results_csv(study, &result));
        push(s, "campaign.results_csv_ms", t.self_ms(id));
        let (rendered, id) = t.span("viz.csv_render", |_| csv.render());
        push(s, "viz.csv_render_ms", t.self_ms(id));
        drop(csv);
        push(s, "viz.csv_bytes", rendered.len() as f64);
        let out = self.runner.tmp.join("trace_results.csv");
        let (written, id) = t.span("fsutil.write", |_| {
            write_file_atomic(&out, rendered.as_bytes())
        });
        push(s, "fsutil.write_ms", t.self_ms(id));
        if let Err(e) = written {
            problems.push(format!("write_file_atomic: {e}"));
        }
        let _ = std::fs::remove_file(&out);
        problems.extend(diff("traced results CSV", &rendered, &self.reference.csv));
        drop(rendered);

        // viz JSONL sink and wire encode, each net of the warm study.
        let ((jsonl, _), id) = t.span("viz.jsonl_sink", |_| {
            let mut sink = JsonlSink::new(Vec::new());
            let run = executor.run(study, &mut sink);
            (sink.into_inner(), run)
        });
        push(s, "viz.jsonl_sink_ms", (t.total_ms(id) - warm_ms).max(0.0));
        push(s, "viz.jsonl_bytes", jsonl.len() as f64);
        drop(jsonl);
        let ((capture, frames), id) = t.span("wire.encode", |_| {
            let mut sink = WireSink::new(Vec::new());
            let _ = executor.run(study, &mut sink);
            let frames = sink.frames_written();
            (sink.into_inner(), frames)
        });
        push(s, "wire.encode_ms", (t.total_ms(id) - warm_ms).max(0.0));
        push(s, "wire.frames", frames as f64);
        push(s, "wire.capture_bytes", capture.len() as f64);
        if frames != want.frames {
            problems.push(format!(
                "wire sink wrote {frames} frames, expected {}",
                want.frames
            ));
        }
        let (replayed, id) = t.span("wire.decode", |_| wire::replay(&capture[..]));
        push(s, "wire.decode_ms", t.self_ms(id));
        match replayed {
            Ok(replay) => problems.extend(diff(
                "replayed results CSV",
                &results_csv(study, &replay.result).render(),
                &self.reference.csv,
            )),
            Err(e) => problems.push(format!("strict replay: {e}")),
        }

        // transport: the capture's lines through a Connection pair over a
        // unix socket.
        match self.send_recv(t, &capture, s) {
            Ok(lines) if lines == frames => {}
            Ok(lines) => problems.push(format!("transport delivered {lines} of {frames} lines")),
            Err(e) => problems.push(format!("transport: {e}")),
        }
        drop(capture);

        // service: an in-process daemon's first session.
        if let Err(e) = self.service(t, text, s) {
            problems.push(format!("service: {e}"));
        }

        // workloads, fault, experiments: the paper-suite layers.
        for (name, spec) in gen::figure_traffic() {
            let (resolved, id) = t.span(name, |_| spec.resolve());
            if !resolved.is_ok_and(|r| !r.is_empty()) {
                problems.push(format!("{name}: traffic did not resolve"));
            }
            push(s, &format!("{name}_ms"), t.self_ms(id));
        }
        let fault = gen::fault_campaign();
        let (outcome, id) = t.span("fault.campaign", |_| {
            StudyExecutor::new().run_fault(&fault, &mut NullSink)
        });
        push(s, "fault.campaign_ms", t.self_ms(id));
        match outcome {
            Ok(r) => {
                push(s, "fault.trials", r.fault.stats.trials as f64);
                push(s, "fault.degraded", r.fault.stats.degraded as f64);
            }
            Err(e) => problems.push(format!("fault campaign: {e}")),
        }
        let mut verdicts = Vec::new();
        for name in nvmx_bench::EXPERIMENT_IDS {
            let (experiment, id) = t.span(&format!("experiments.{name}"), |_| {
                nvmx_bench::run_experiment(name, false)
            });
            push(s, &format!("experiments.{name}_ms"), t.self_ms(id));
            match experiment {
                Some(x) => {
                    verdicts.extend(x.findings.into_iter().map(|f| (name, f.claim, f.holds)))
                }
                None => problems.push(format!("unknown experiment {name}")),
            }
        }
        let ok = verdicts.iter().filter(|v| v.2).count();
        push(s, "experiments.findings_ok", ok as f64);
        push(s, "experiments.findings_dev", (verdicts.len() - ok) as f64);
        problems.extend(ledger_problems(
            verdicts
                .iter()
                .map(|(id, claim, holds)| (*id, claim.as_str(), *holds)),
        ));
    }

    fn send_recv(
        &self,
        t: &mut Tracer,
        capture: &[u8],
        s: &mut LayerSamples,
    ) -> std::io::Result<u64> {
        let text = std::str::from_utf8(capture).map_err(std::io::Error::other)?;
        let endpoint = Endpoint::Unix(self.tmp_rel.join("transport.sock"));
        let listener = Listener::bind(&endpoint)?;
        let (received, id) = t.span("transport.send_recv", |_| {
            std::thread::scope(|scope| {
                let sender = scope.spawn(|| -> std::io::Result<()> {
                    let mut conn = Connection::from_stream(listener.accept()?)?;
                    for line in text.lines() {
                        conn.send_line(line)?;
                    }
                    Ok(())
                });
                let mut conn = Connection::connect(&endpoint)?;
                let mut lines = 0u64;
                while conn.recv_line()?.is_some() {
                    lines += 1;
                }
                sender
                    .join()
                    .map_err(|_| std::io::Error::other("sender panicked"))??;
                Ok::<_, std::io::Error>(lines)
            })
        });
        push(s, "transport.send_recv_ms", t.self_ms(id));
        let lines = received?;
        push(s, "transport.lines", lines as f64);
        Ok(lines)
    }

    fn service(&self, t: &mut Tracer, text: &str, s: &mut LayerSamples) -> Result<(), String> {
        let (service, id) = t.span("service.start", |_| {
            CampaignService::start(ServiceConfig {
                workers: 2,
                lanes: 1,
                ..ServiceConfig::default()
            })
        });
        push(s, "service.start_ms", t.self_ms(id));
        let service = service.map_err(|e| e.to_string())?;
        let (admission, id) = t.span("service.submit", |_| service.submit(text, 0));
        push(s, "service.submit_ms", t.self_ms(id));
        let admission = admission.map_err(|e| e.to_string())?;
        let mut cursor = service
            .events(admission.session)
            .ok_or("submitted session has no event log")?;
        let (first, id) = t.span("service.first_frame", |_| cursor.next_line());
        push(s, "service.first_frame_ms", t.self_ms(id));
        let (lines, id) = t.span("service.session", |_| {
            let mut lines: Vec<_> = first.into_iter().collect();
            while let Some(line) = cursor.next_line() {
                lines.push(line);
            }
            lines
        });
        push(s, "service.session_ms", t.self_ms(id));
        push(s, "service.frames", lines.len() as f64);
        service.join().map_err(|e| e.to_string())?;
        let mut replayer = StreamReplayer::new();
        for line in &lines {
            replayer
                .push_line(line, &mut NullSink)
                .map_err(|e| e.to_string())?;
        }
        let replay = replayer.finish().map_err(|e| e.to_string())?;
        let campaign = CampaignConfig::from_json(text).map_err(|e| e.to_string())?;
        let rendered = results_csv(campaign.study(), &replay.result).render();
        match diff("served results CSV", &rendered, &self.reference.csv) {
            Some(problem) => Err(problem),
            None => Ok(()),
        }
    }

    /// Parses the coordinator's per-study line: `N workers, F frames
    /// merged, D duplicate slots deduped, R respawns[, M slot ranges
    /// re-leased]`.
    fn reshard_counters(stderr: &str) -> Option<[u64; 4]> {
        let line = stderr.lines().find(|l| l.contains(" frames merged, "))?;
        let count = |suffix: &str| -> Option<u64> {
            let at = line.find(suffix)?;
            line[..at]
                .rsplit(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        };
        Some([
            count(" frames merged")?,
            count(" duplicate slots deduped")?,
            count(" slot ranges re-leased").unwrap_or(0),
            count(" respawns")?,
        ])
    }

    /// Measures the once-per-run layers (process spawn, the leased
    /// supervisor's counters, the untraced baseline for the overhead).
    fn once(&self, ledger: &mut Ledger, s: &mut LayerSamples) -> Option<f64> {
        let mut spawns = Vec::new();
        for k in 0..SPAWN_REPS {
            let tag = format!("spawn {k}");
            let problems = match self.runner.run(&self.runner.command("run"), &tag) {
                Ok(f) if f.code == 2 => {
                    spawns.push(f.wall.as_secs_f64() * 1e3);
                    Vec::new()
                }
                Ok(f) => vec![format!("usage error expected: {}", f.describe())],
                Err(e) => vec![format!("cannot run: {e}")],
            };
            ledger.op(&tag, problems);
        }
        if let Some(m) = median(&spawns) {
            push(s, "proc.spawn_ms", m);
        }

        let capture_dir = self.runner.tmp.join("trace-capture");
        let leased = self.runner.leased(&self.configs.base, &capture_dir);
        let problems = self.child(&leased, "trace leased").map_or_else(
            |problem| vec![problem],
            |f| {
                let mut problems = Vec::new();
                if f.stdout.lines().last() != Some(self.reference.summary.as_str()) {
                    problems.push("coordinator summary differs".to_owned());
                }
                match Self::reshard_counters(&f.stderr) {
                    Some([merged, duplicates, re_leased, respawns]) => {
                        push(s, "reshard.frames_merged", merged as f64);
                        push(s, "reshard.duplicates", duplicates as f64);
                        push(s, "reshard.re_leased", re_leased as f64);
                        push(s, "reshard.respawns", respawns as f64);
                        let useful = merged as f64 / (merged + duplicates).max(1) as f64;
                        push(s, "reshard.useful_ratio", useful);
                    }
                    None => problems.push("no supervisor summary on stderr".to_owned()),
                }
                problems
            },
        );
        ledger.op("trace leased", problems);
        let _ = std::fs::remove_dir_all(&capture_dir);

        let mut untraced = Vec::new();
        for k in 0..UNTRACED_REPS {
            let cmd = if self.workload == Workload::PaperSuite {
                self.runner.command("all")
            } else {
                let mut run = self.runner.command("run");
                run.arg(&self.configs.base);
                run
            };
            let tag = format!("untraced {k}");
            match self.child(&cmd, &tag) {
                Ok(f) => {
                    untraced.push(f.wall.as_secs_f64() * 1e3);
                    ledger.op(&tag, Vec::new());
                }
                Err(problem) => ledger.op(&tag, vec![problem]),
            }
        }
        median(&untraced)
    }

    /// Runs the once-per-run layers, then traced passes until `seconds`
    /// have passed (at least one). Returns the per-layer samples and the
    /// tracer holding every span.
    pub fn measure(&self, seconds: u64, seed: u64, ledger: &mut Ledger) -> (LayerSamples, Tracer) {
        let mut s = LayerSamples::new();
        let _ = std::fs::create_dir_all(self.runner.tmp.join("out"));
        let untraced_ms = self.once(ledger, &mut s);
        let mut t = Tracer::new(self.workload.name(), seed);
        let start = Instant::now();
        let mut p = 0;
        let mut traced_totals = Vec::new();
        while p == 0 || start.elapsed() < Duration::from_secs(seconds) {
            let first = t.spans().len();
            self.pass(p, &mut t, ledger, &mut s);
            let spans = &t.spans()[first..];
            let total = |names: &[&str]| -> f64 {
                spans
                    .iter()
                    .filter(|sp| names.contains(&sp.name.as_str()))
                    .map(|sp| sp.end_ns.saturating_sub(sp.start_ns) as f64 / 1e6)
                    .sum()
            };
            traced_totals.push(if self.workload == Workload::PaperSuite {
                let experiments: Vec<String> = nvmx_bench::EXPERIMENT_IDS
                    .iter()
                    .map(|id| format!("experiments.{id}"))
                    .collect();
                let names: Vec<&str> = experiments.iter().map(String::as_str).collect();
                total(&names)
            } else {
                total(&RUN_PATH)
            });
            p += 1;
        }
        if let (Some(traced), Some(untraced)) = (median(&traced_totals), untraced_ms) {
            push(&mut s, "trace.overhead_ratio", traced / untraced);
        }
        (s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinator_summary_parses() {
        let stderr = "  [s] 2 workers, 31613 frames merged, 4 duplicate slots deduped, 1 respawns, 3 slot ranges re-leased, capture -> x\n";
        assert_eq!(Layers::reshard_counters(stderr), Some([31613, 4, 3, 1]));
        let plain = "  [s] 2 workers, 10 frames merged, 0 duplicate slots deduped, 0 respawns\n";
        assert_eq!(Layers::reshard_counters(plain), Some([10, 0, 0, 0]));
    }

    #[test]
    fn layer_metric_names_are_unique_and_well_formed() {
        let mut names: Vec<_> = LAYER_METRICS.iter().map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(names.iter().all(|m| m.len() <= 64
            && m.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')));
        let experiments = names
            .iter()
            .filter(|m| m.starts_with("experiments.") && m.ends_with("_ms"));
        assert_eq!(experiments.count(), nvmx_bench::EXPERIMENT_IDS.len());
    }
}
