//! Streaming result sinks: incremental CSV/JSONL/summary writers over the
//! core [`StudyEvent`] stream.
//!
//! The batch reporters in this crate ([`Csv`](crate::Csv),
//! [`AsciiTable`]) hold the whole document in memory —
//! fine for a figure, hopeless for a multi-gigabyte sweep. The sinks here
//! implement [`ResultSink`] and write **as events arrive**, so a study's
//! results land on disk while the sweep is still running and memory stays
//! bounded regardless of study size:
//!
//! - [`CsvSink`] — one row per evaluation, the artifact's
//!   `output/results/*.csv` schema;
//! - [`JsonlSink`] — every event as one self-describing JSON line (the
//!   machine-readable audit trail of a run);
//! - [`SummaryTableSink`] — per-target winners and study counters rendered
//!   as an aligned table when the study finishes.
//!
//! [`from_spec`] builds the sink set a study's
//! [`OutputSpec`](nvmexplorer_core::config::OutputSpec) asks for, which is
//! how the config-driven runner and scheduler wire per-study outputs.

use crate::csv::{num_into, push_escaped};
use crate::table::AsciiTable;
use nvmexplorer_core::stream::{ResultSink, StudyEvent};
use nvmexplorer_core::wire::EventEncoder;
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;

/// Columns of the [`CsvSink`] schema, one row per evaluation.
pub const CSV_COLUMNS: [&str; 19] = [
    "study",
    "cell",
    "technology",
    "capacity_mib",
    "bits_per_cell",
    "target",
    "traffic",
    "read_latency_ns",
    "write_latency_ns",
    "read_energy_pj",
    "write_energy_pj",
    "leakage_mw",
    "area_mm2",
    "density_mbit_mm2",
    "total_power_mw",
    "utilization",
    "aggregate_latency_ms_per_s",
    "lifetime_years",
    "feasible",
];

/// Streams one CSV row per evaluation to any [`Write`] target.
///
/// The header is written on the first `study_started` event; several
/// studies may stream into one sink (the `study` column disambiguates).
/// Rows flush when each study finishes.
///
/// # Examples
///
/// ```
/// use nvmx_viz::sink::CsvSink;
/// let sink = CsvSink::new(Vec::new());
/// assert_eq!(sink.rows(), 0);
/// ```
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    out: W,
    study: String,
    header_written: bool,
    rows: usize,
    line: String,
}

impl<W: Write> CsvSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            study: String::new(),
            header_written: false,
            rows: 0,
            line: String::new(),
        }
    }

    /// Evaluation rows written so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Consumes the sink, returning the writer (useful for in-memory
    /// targets).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> ResultSink for CsvSink<W> {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        match event {
            StudyEvent::StudyStarted { name, .. } => {
                self.study = (*name).to_owned();
                if !self.header_written {
                    writeln!(self.out, "{}", CSV_COLUMNS.join(","))?;
                    self.header_written = true;
                }
            }
            StudyEvent::EvaluationProduced { evaluation, .. } => {
                let a = &evaluation.array;
                // One reused line buffer, every cell formatted in place.
                let line = &mut self.line;
                line.clear();
                push_escaped(line, &self.study);
                line.push(',');
                push_escaped(line, &a.cell_name);
                line.push(',');
                line.push_str(a.technology.label());
                line.push(',');
                num_into(line, a.capacity.as_mebibytes());
                write!(line, ",{},{},", a.bits_per_cell, a.target.label())
                    .expect("writing to a String cannot fail");
                push_escaped(line, &evaluation.traffic.name);
                for value in [
                    a.read_latency.value() * 1e9,
                    a.write_latency.value() * 1e9,
                    a.read_energy.value() * 1e12,
                    a.write_energy.value() * 1e12,
                    a.leakage.value() * 1e3,
                    a.area.value(),
                    a.density_mbit_per_mm2(),
                    evaluation.total_power().value() * 1e3,
                    evaluation.utilization,
                    evaluation.aggregate_latency.value() * 1e3,
                    evaluation.lifetime_years(),
                ] {
                    line.push(',');
                    num_into(line, value);
                }
                line.push_str(if evaluation.is_feasible() {
                    ",true\n"
                } else {
                    ",false\n"
                });
                self.out.write_all(line.as_bytes())?;
                self.rows += 1;
            }
            // Fault campaigns end in their own terminal event (the base
            // study's `study_finished` is absorbed by the campaign); flush
            // on either terminal. Per-trial fault events carry no
            // evaluation, so they add no rows.
            StudyEvent::StudyFinished { .. } | StudyEvent::FaultStudyFinished { .. } => {
                self.out.flush()?;
            }
            _ => {}
        }
        Ok(())
    }
}

/// Streams every [`StudyEvent`] as one JSON line.
///
/// Lines are self-describing (`{"event": "...", ...}`) and appear in the
/// engine's deterministic slot order, so a JSONL file is a replayable,
/// diff-able record of a run — the same study produces the same stream at
/// any thread count (modulo the observational cache counters on the final
/// `study_finished` line).
///
/// This is also the body format of the distributed wire protocol: a
/// `core::wire` frame is exactly this line with a `{"v", "study", "seq"}`
/// header prepended, and
/// [`OwnedStudyEvent::from_value`](nvmexplorer_core::wire::OwnedStudyEvent::from_value)
/// decodes both forms with one parser — there is one serialization of a
/// study event, not two (pinned by `jsonl_lines_parse_with_the_wire_event_decoder`
/// in `tests/jsonl_determinism.rs`).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    events: usize,
    line: String,
    encoder: EventEncoder,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            events: 0,
            line: String::new(),
            encoder: EventEncoder::new(),
        }
    }

    /// Events written so far.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> ResultSink for JsonlSink<W> {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        // Encoded straight into one reused buffer (no `Value` tree, each
        // repeated record copied), one `write_all` per line.
        self.line.clear();
        self.line.push('{');
        self.encoder.write_fields(event, &mut self.line);
        self.line.push_str("}\n");
        self.out.write_all(self.line.as_bytes())?;
        self.events += 1;
        if matches!(
            event,
            StudyEvent::StudyFinished { .. } | StudyEvent::FaultStudyFinished { .. }
        ) {
            self.out.flush()?;
        }
        Ok(())
    }
}

/// Collects per-target winners and counters, writing an aligned summary
/// table when each study finishes.
#[derive(Debug)]
pub struct SummaryTableSink<W: Write> {
    out: W,
    study: String,
    winners: Vec<[String; 4]>,
    verdicts: Vec<[String; 6]>,
    last: Option<String>,
}

impl<W: Write> SummaryTableSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            study: String::new(),
            winners: Vec::new(),
            verdicts: Vec::new(),
            last: None,
        }
    }

    /// The most recently rendered summary, if a study finished.
    pub fn last_summary(&self) -> Option<&str> {
        self.last.as_deref()
    }
}

impl<W: Write> ResultSink for SummaryTableSink<W> {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        match event {
            StudyEvent::StudyStarted { name, .. } => {
                self.study = (*name).to_owned();
                self.winners.clear();
                self.verdicts.clear();
            }
            StudyEvent::TargetWinnerSelected { target, winner } => {
                self.winners.push([
                    target.label().to_owned(),
                    winner.array.cell_name.clone(),
                    winner.traffic.name.clone(),
                    format!("{}", winner.total_power()),
                ]);
            }
            StudyEvent::StudyFinished { name, stats } => {
                let mut table = AsciiTable::new(vec![
                    "target".into(),
                    "winning cell".into(),
                    "traffic".into(),
                    "total power".into(),
                ]);
                for winner in &self.winners {
                    table.row(winner.to_vec());
                }
                let cache = match stats.cache {
                    Some(c) => {
                        // The store clause only appears when the run (or the
                        // capture being replayed) actually consulted an L2,
                        // so storeless captures replay byte-identically.
                        let store = if c.l2_hits + c.l2_misses + c.l2_rejects > 0 {
                            format!(
                                ", store L2: {} hits, {} misses, {} rejects",
                                c.l2_hits, c.l2_misses, c.l2_rejects
                            )
                        } else {
                            String::new()
                        };
                        format!(
                            ", cache hit rate {:.1}% ({} lookups), DSE prune rate {:.1}% ({} candidates){store}",
                            c.hit_rate() * 100.0,
                            c.lookups(),
                            c.prune_rate() * 100.0,
                            c.candidates()
                        )
                    }
                    None => String::new(),
                };
                let summary = format!(
                    "study `{name}`: {} arrays, {} evaluations, {} skipped{cache}\n{}",
                    stats.arrays,
                    stats.evaluations,
                    stats.skipped,
                    table.render()
                );
                writeln!(self.out, "{summary}")?;
                self.out.flush()?;
                self.last = Some(summary);
            }
            StudyEvent::AccuracyDegraded { report, .. } => {
                self.verdicts.push([
                    report.cell.clone(),
                    report.bits_per_cell.to_string(),
                    format!("{:.1}", report.temperature_c),
                    format!("{:.2e}", report.report.bit_error_rate),
                    format!("{:.4} / {:.4}", report.report.mean, report.report.worst),
                    if report.acceptable {
                        "ok".to_owned()
                    } else {
                        "degraded".to_owned()
                    },
                ]);
            }
            StudyEvent::FaultStudyFinished { name, stats } => {
                let mut table = AsciiTable::new(vec![
                    "cell".into(),
                    "bits/cell".into(),
                    "temp C".into(),
                    "BER".into(),
                    "accuracy mean / worst".into(),
                    "verdict".into(),
                ]);
                for verdict in &self.verdicts {
                    table.row(verdict.to_vec());
                }
                let summary = format!(
                    "fault study `{name}`: {} arrays, {} evaluations, {} fault models, \
                     {} trials, {} degraded\n{}",
                    stats.base.arrays,
                    stats.base.evaluations,
                    stats.models,
                    stats.trials,
                    stats.degraded,
                    table.render()
                );
                writeln!(self.out, "{summary}")?;
                self.out.flush()?;
                self.last = Some(summary);
            }
            _ => {}
        }
        Ok(())
    }

    fn is_passive(&self) -> bool {
        // Everything this sink renders comes from the bracketing events
        // (study_started / target_winner_selected / study_finished, plus
        // the per-model accuracy_degraded verdicts and the fault
        // campaign's own terminal event), which passive sinks are still
        // delivered — so a summary-only run keeps the batch engine's
        // drain-free execution profile.
        true
    }
}

/// Builds the file/terminal sinks a study's `output` spec asks for: CSV and
/// JSONL stream to buffered files (parent directories created), `summary`
/// prints to stdout. Returns an empty vector for an empty spec — wrap the
/// result in a [`MultiSink`](nvmexplorer_core::stream::MultiSink) or box it
/// per study.
///
/// # Errors
///
/// Propagates file-creation failures.
pub fn from_spec(
    spec: &nvmexplorer_core::config::OutputSpec,
) -> std::io::Result<Vec<Box<dyn ResultSink>>> {
    fn create(path: &str) -> std::io::Result<std::io::BufWriter<std::fs::File>> {
        let path = Path::new(path);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(std::io::BufWriter::new(std::fs::File::create(path)?))
    }

    let mut sinks: Vec<Box<dyn ResultSink>> = Vec::new();
    if let Some(path) = &spec.csv {
        sinks.push(Box::new(CsvSink::new(create(path)?)));
    }
    if let Some(path) = &spec.jsonl {
        sinks.push(Box::new(JsonlSink::new(create(path)?)));
    }
    if spec.summary {
        sinks.push(Box::new(SummaryTableSink::new(std::io::stdout())));
    }
    Ok(sinks)
}

/// A boxed fan-out over the sinks of [`from_spec`] — one owned sink per
/// study, as [`StudyScheduler::run_queue_with`] expects.
///
/// [`StudyScheduler::run_queue_with`]: nvmexplorer_core::scheduler::StudyScheduler::run_queue_with
#[derive(Default)]
pub struct SpecSinks {
    sinks: Vec<Box<dyn ResultSink>>,
}

impl SpecSinks {
    /// Builds every sink the spec names; an empty spec yields a no-op sink.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn new(spec: &nvmexplorer_core::config::OutputSpec) -> std::io::Result<Self> {
        Ok(Self {
            sinks: from_spec(spec)?,
        })
    }
}

impl ResultSink for SpecSinks {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        for sink in &mut self.sinks {
            sink.on_event(event)?;
        }
        Ok(())
    }

    fn is_passive(&self) -> bool {
        // An empty output spec builds no sinks: the engine can then skip
        // the streaming drain entirely.
        self.sinks.iter().all(|sink| sink.is_passive())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmexplorer_core::config::{CellSelection, StudyConfig, TrafficSpec};
    use nvmexplorer_core::stream::{MultiSink, StudyExecutor};

    fn small_study() -> StudyConfig {
        StudyConfig {
            name: "sink-test".into(),
            cells: CellSelection {
                technologies: Some(vec![nvmx_celldb::TechnologyClass::Stt]),
                reference_rram: false,
                sram_baseline: false,
                ..CellSelection::default()
            },
            array: Default::default(),
            traffic: TrafficSpec::Explicit {
                patterns: vec![nvmx_workloads::TrafficPattern::new("t", 1.0e9, 1.0e7, 64)],
            },
            constraints: Default::default(),
            output: Default::default(),
            store: Default::default(),
        }
    }

    #[test]
    fn csv_sink_streams_one_row_per_evaluation() {
        let mut sink = CsvSink::new(Vec::new());
        let result = StudyExecutor::with_threads(2)
            .run(&small_study(), &mut sink)
            .unwrap();
        assert_eq!(sink.rows(), result.evaluations.len());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), CSV_COLUMNS.join(","));
        assert_eq!(text.lines().count(), 1 + result.evaluations.len());
        assert!(text.contains("sink-test"));
        assert!(text.contains("STT"));
    }

    #[test]
    fn jsonl_sink_writes_tagged_lines_bracketed_by_start_and_finish() {
        let mut sink = JsonlSink::new(Vec::new());
        StudyExecutor::with_threads(2)
            .run(&small_study(), &mut sink)
            .unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines
            .first()
            .unwrap()
            .contains("\"event\":\"study_started\""));
        assert!(lines
            .last()
            .unwrap()
            .contains("\"event\":\"study_finished\""));
        assert!(lines.iter().all(|l| l.starts_with("{\"event\":\"")));
    }

    #[test]
    fn summary_sink_reports_winners_and_counts() {
        let mut sink = SummaryTableSink::new(Vec::new());
        let result = StudyExecutor::with_threads(2)
            .run(&small_study(), &mut sink)
            .unwrap();
        let summary = sink.last_summary().expect("study finished").to_owned();
        assert!(summary.contains("sink-test"));
        assert!(summary.contains(&format!("{} evaluations", result.evaluations.len())));
        assert!(summary.contains("ReadEDP"));
    }

    #[test]
    fn sinks_compose_under_a_multi_sink() {
        let mut csv = CsvSink::new(Vec::new());
        let mut jsonl = JsonlSink::new(Vec::new());
        {
            let mut multi = MultiSink::new().with(&mut csv).with(&mut jsonl);
            StudyExecutor::with_threads(1)
                .run(&small_study(), &mut multi)
                .unwrap();
        }
        assert!(csv.rows() > 0);
        assert!(jsonl.events() > csv.rows());
    }

    #[test]
    fn fault_campaign_streams_through_every_sink() {
        use nvmexplorer_core::config::{FaultSpec, FaultStudyConfig};
        let campaign = FaultStudyConfig {
            study: small_study(),
            fault: FaultSpec {
                trials: 2,
                seed: 3,
                bits_per_cell: vec![nvmx_units::BitsPerCell::Slc],
                temperatures_c: vec![25.0],
                raw_bers: vec![1.0e-2],
                tolerance: 0.05,
            },
        };
        let mut csv = CsvSink::new(Vec::new());
        let mut jsonl = JsonlSink::new(Vec::new());
        let mut summary = SummaryTableSink::new(Vec::new());
        let result = {
            let mut multi = MultiSink::new()
                .with(&mut csv)
                .with(&mut jsonl)
                .with(&mut summary);
            StudyExecutor::with_threads(2)
                .run_fault(&campaign, &mut multi)
                .unwrap()
        };
        // Trials add no CSV rows; the base study's evaluations do.
        assert_eq!(csv.rows(), result.study.evaluations.len());
        let text = String::from_utf8(jsonl.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines
            .iter()
            .any(|l| l.contains("\"event\":\"fault_trial_produced\"")));
        assert!(lines
            .last()
            .unwrap()
            .contains("\"event\":\"fault_study_finished\""));
        assert!(!text.contains("\"event\":\"study_finished\""));
        let rendered = summary.last_summary().expect("campaign finished");
        assert!(rendered.contains("fault study `sink-test`"));
        assert!(rendered.contains("fault models"));
    }

    #[test]
    fn from_spec_builds_the_requested_file_sinks() {
        let dir = std::env::temp_dir().join("nvmx_viz_sink_spec_test");
        std::fs::remove_dir_all(&dir).ok();
        let spec = nvmexplorer_core::config::OutputSpec {
            csv: Some(dir.join("out/results.csv").to_string_lossy().into_owned()),
            jsonl: Some(dir.join("events.jsonl").to_string_lossy().into_owned()),
            summary: false,
        };
        let mut sinks = SpecSinks::new(&spec).unwrap();
        StudyExecutor::with_threads(2)
            .run(&small_study(), &mut sinks)
            .unwrap();
        drop(sinks);
        let csv = std::fs::read_to_string(dir.join("out/results.csv")).unwrap();
        assert!(csv.starts_with("study,cell,"));
        let jsonl = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        assert!(jsonl.trim_end().ends_with('}'));
        std::fs::remove_dir_all(&dir).ok();
    }
}
