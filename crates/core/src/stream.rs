//! The event-driven study pipeline: a typed [`StudyEvent`] stream plus the
//! [`ResultSink`] consumer trait, and the [`StudyExecutor`] that pushes
//! events while the lock-free sweep engine runs.
//!
//! # Why streaming
//!
//! The batch entry point ([`run_study`](crate::sweep::run_study))
//! materializes the full [`StudyResult`] before a caller can observe
//! anything — fine for a 5-array quickstart, hopeless for a
//! multi-gigabyte sweep served from a queue. This module inverts that:
//! every characterization and evaluation is pushed to a sink *as its slot
//! completes*, so results can stream to disk (CSV/JSONL), drive progress
//! UIs, or feed downstream consumers with bounded memory. The batch API
//! still exists — it is now a thin wrapper that runs the executor with a
//! [`NullSink`].
//!
//! # Determinism
//!
//! Events are emitted in **slot order**, not completion order: the engine
//! fans jobs out lock-free into pre-allocated slots, and a dedicated
//! drainer walks the slots in index order, emitting each as soon as it is
//! filled. Worker interleaving therefore never changes the event sequence —
//! the stream for a given [`StudyConfig`](crate::config::StudyConfig) is
//! identical at 1 thread and at 16 (proven by proptest in
//! `tests/stream_equivalence.rs`), and the [`StudyResult`] assembled from
//! the stream (see [`StudyResultBuilder`]) is byte-identical to the batch
//! engine's return value.
//!
//! The one non-deterministic corner is the *cache counters* inside
//! [`StudyStats`]: racing workers that miss the same cache slot may both
//! count a miss (the cache stores one value but tallies two), so
//! `stats.cache` is observability data, not an invariant — everything else
//! in the stream is exact.

use crate::config::CampaignConfig;
use crate::eval::Evaluation;
use crate::fault_study::FaultOutcome;
use crate::sweep::StudyResult;
use nvmx_nvsim::{
    ArrayCharacterization, CacheStats, IncumbentStore, OptimizationTarget, SubarrayCache,
};
use serde::{json, Serialize, Value};

/// End-of-study summary carried by [`StudyEvent::StudyFinished`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyStats {
    /// Shared-DSE characterization jobs expanded from the config.
    pub jobs: usize,
    /// Optimization targets swept.
    pub targets: usize,
    /// Traffic patterns the config resolved to.
    pub traffic_patterns: usize,
    /// Design points successfully characterized.
    pub arrays: usize,
    /// `(array, traffic)` evaluations produced.
    pub evaluations: usize,
    /// Design points skipped (one entry per target, like the batch API).
    pub skipped: usize,
    /// Subarray-cache counters accrued while this study ran. The engine
    /// always reports them; `None` remains for captures whose terminal
    /// frame carries `cache: null`, which decoders still accept.
    /// Observational: when several concurrent studies share one cache the
    /// deltas interleave, and racing double misses may double-count — see
    /// the module docs.
    pub cache: Option<CacheStats>,
}

/// One observation from a running study, borrowed from the engine's slots —
/// sinks that need ownership clone what they keep.
///
/// Event order is deterministic (slot order, never completion order):
/// `StudyStarted`, then every `ArrayCharacterized`/`DesignSkipped` in job
/// order, then every `EvaluationProduced` in `arrays × traffic` order, then
/// `TargetWinnerSelected` per target (in the study's sorted target order),
/// then `StudyFinished`.
#[derive(Debug, Clone, Copy)]
pub enum StudyEvent<'a> {
    /// The study resolved its cells/traffic and is about to characterize.
    StudyStarted {
        /// Study name.
        name: &'a str,
        /// Resolved cell count.
        cells: usize,
        /// Shared-DSE jobs expanded (cells × capacities × depths).
        jobs: usize,
        /// Optimization targets swept.
        targets: usize,
        /// Resolved traffic patterns.
        traffic: usize,
    },
    /// One design point finished characterization.
    ArrayCharacterized {
        /// Slot index in the deterministic output order.
        index: usize,
        /// The characterized design point.
        array: &'a ArrayCharacterization,
    },
    /// One design point could not be characterized (reported once per
    /// target, for parity with the batch `skipped` list).
    DesignSkipped {
        /// Cell name of the failed design point.
        cell: &'a str,
        /// Target this skip is reported under.
        target: OptimizationTarget,
        /// Human-readable reason.
        reason: &'a str,
    },
    /// One `(array, traffic)` evaluation was produced.
    EvaluationProduced {
        /// Slot index in the deterministic `arrays × traffic` order.
        index: usize,
        /// The evaluation.
        evaluation: &'a Evaluation,
    },
    /// The study-wide winner under one optimization target: the feasible
    /// evaluation with the lowest total power (first in stream order wins
    /// ties). Not emitted for targets with no feasible evaluation.
    TargetWinnerSelected {
        /// The optimization target.
        target: OptimizationTarget,
        /// The winning evaluation.
        winner: &'a Evaluation,
    },
    /// The study completed; final counters.
    StudyFinished {
        /// Study name.
        name: &'a str,
        /// Final stats.
        stats: &'a StudyStats,
    },
    /// One fault-injection trial completed (fault campaigns only; see
    /// [`crate::fault_study`]). Emitted in trial slot order after the base
    /// study's events.
    FaultTrialProduced {
        /// Trial slot index in the deterministic `models × trials` order.
        index: usize,
        /// The trial record (injection seed included, so the wire carries
        /// everything a replay needs).
        trial: &'a crate::fault_study::FaultTrial,
    },
    /// Accuracy verdict for one fault model (fault campaigns only).
    /// Delivered to passive sinks too, like `TargetWinnerSelected`.
    AccuracyDegraded {
        /// Model index in the deterministic model-expansion order.
        index: usize,
        /// The per-model accuracy report.
        report: &'a crate::fault_study::FaultModelReport,
    },
    /// A fault campaign completed — the terminal event of fault streams,
    /// which never emit `StudyFinished` (the base study's counters ride
    /// inside [`crate::fault_study::FaultStudyStats`]).
    FaultStudyFinished {
        /// Study name.
        name: &'a str,
        /// Final counters (base study + fault phase).
        stats: &'a crate::fault_study::FaultStudyStats,
    },
}

impl StudyEvent<'_> {
    /// Wire tag of the event (the `"event"` field of its JSON form).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::StudyStarted { .. } => "study_started",
            Self::ArrayCharacterized { .. } => "array_characterized",
            Self::DesignSkipped { .. } => "design_skipped",
            Self::EvaluationProduced { .. } => "evaluation_produced",
            Self::TargetWinnerSelected { .. } => "target_winner_selected",
            Self::StudyFinished { .. } => "study_finished",
            Self::FaultTrialProduced { .. } => "fault_trial_produced",
            Self::AccuracyDegraded { .. } => "accuracy_degraded",
            Self::FaultStudyFinished { .. } => "fault_study_finished",
        }
    }
}

fn field(name: &str, value: Value) -> (String, Value) {
    (name.to_owned(), value)
}

fn uint(n: usize) -> Value {
    Value::Uint(n as u64)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

/// The flat field block shared by `study_finished` and
/// `fault_study_finished` (which extends it with fault counters).
fn push_finished_fields(fields: &mut Vec<(String, Value)>, name: &str, stats: &StudyStats) {
    fields.push(field("name", text(name)));
    fields.push(field("jobs", uint(stats.jobs)));
    fields.push(field("targets", uint(stats.targets)));
    fields.push(field("traffic", uint(stats.traffic_patterns)));
    fields.push(field("arrays", uint(stats.arrays)));
    fields.push(field("evaluations", uint(stats.evaluations)));
    fields.push(field("skipped", uint(stats.skipped)));
    let cache = match stats.cache {
        Some(c) => {
            let mut cache_fields = vec![
                field("hits", Value::Uint(c.hits)),
                field("misses", Value::Uint(c.misses)),
                field("pruned", Value::Uint(c.pruned)),
                field("l2_hits", Value::Uint(c.l2_hits)),
                field("l2_misses", Value::Uint(c.l2_misses)),
                field("l2_rejects", Value::Uint(c.l2_rejects)),
            ];
            // The per-class reject breakdown rides only when observed, so
            // a clean run's cache object is byte-identical to a pre-v4
            // writer's and old captures re-encode unchanged.
            for (name, count) in [
                ("l2_reject_io", c.l2_reject_classes.io),
                ("l2_reject_version", c.l2_reject_classes.version),
                ("l2_reject_truncated", c.l2_reject_classes.truncated),
                ("l2_reject_corrupt", c.l2_reject_classes.corrupt),
                ("l2_reject_collision", c.l2_reject_classes.collision),
            ] {
                if count != 0 {
                    cache_fields.push(field(name, Value::Uint(count)));
                }
            }
            cache_fields.push(field("hit_rate", Value::Float(c.hit_rate())));
            cache_fields.push(field("prune_rate", Value::Float(c.prune_rate())));
            Value::Object(cache_fields)
        }
        None => Value::Null,
    };
    fields.push(field("cache", cache));
}

// Hand-written (the derive stand-in does not handle lifetimes): every event
// serializes as a flat object tagged by `"event"`, so a JSONL stream is
// self-describing line by line.
impl Serialize for StudyEvent<'_> {
    fn to_value(&self) -> Value {
        let mut fields = Vec::new();
        fields.push(field("event", text(self.kind())));
        match self {
            Self::StudyStarted {
                name,
                cells,
                jobs,
                targets,
                traffic,
            } => {
                fields.push(field("name", text(name)));
                fields.push(field("cells", uint(*cells)));
                fields.push(field("jobs", uint(*jobs)));
                fields.push(field("targets", uint(*targets)));
                fields.push(field("traffic", uint(*traffic)));
            }
            Self::ArrayCharacterized { index, array } => {
                fields.push(field("index", uint(*index)));
                fields.push(field("array", array.to_value()));
            }
            Self::DesignSkipped {
                cell,
                target,
                reason,
            } => {
                fields.push(field("cell", text(cell)));
                fields.push(field("target", text(target.label())));
                fields.push(field("reason", text(reason)));
            }
            Self::EvaluationProduced { index, evaluation } => {
                fields.push(field("index", uint(*index)));
                fields.push(field("evaluation", evaluation.to_value()));
            }
            Self::TargetWinnerSelected { target, winner } => {
                fields.push(field("target", text(target.label())));
                fields.push(field("cell", text(&winner.array.cell_name)));
                fields.push(field("traffic", text(&winner.traffic.name)));
                fields.push(field(
                    "total_power_w",
                    Value::Float(winner.total_power().value()),
                ));
            }
            Self::StudyFinished { name, stats } => {
                push_finished_fields(&mut fields, name, stats);
            }
            Self::FaultTrialProduced { index, trial } => {
                fields.push(field("index", uint(*index)));
                fields.push(field("model_index", uint(trial.model_index)));
                fields.push(field("trial", Value::Uint(u64::from(trial.trial))));
                fields.push(field("cell", text(&trial.cell)));
                fields.push(field("bits_per_cell", trial.bits_per_cell.to_value()));
                fields.push(field("temperature_c", Value::Float(trial.temperature_c)));
                fields.push(field("bit_error_rate", Value::Float(trial.bit_error_rate)));
                fields.push(field("injection_seed", Value::Uint(trial.injection_seed)));
                fields.push(field("bits_total", Value::Uint(trial.bits_total)));
                fields.push(field("bits_flipped", Value::Uint(trial.bits_flipped)));
                fields.push(field("accuracy", Value::Float(trial.accuracy)));
            }
            Self::AccuracyDegraded { index, report } => {
                fields.push(field("index", uint(*index)));
                fields.push(field("model_index", uint(report.model_index)));
                fields.push(field("cell", text(&report.cell)));
                fields.push(field("bits_per_cell", report.bits_per_cell.to_value()));
                fields.push(field("temperature_c", Value::Float(report.temperature_c)));
                fields.push(field("baseline", Value::Float(report.report.baseline)));
                fields.push(field("mean", Value::Float(report.report.mean)));
                fields.push(field("worst", Value::Float(report.report.worst)));
                fields.push(field(
                    "bit_error_rate",
                    Value::Float(report.report.bit_error_rate),
                ));
                fields.push(field(
                    "trials",
                    Value::Uint(u64::from(report.report.trials)),
                ));
                fields.push(field("acceptable", Value::Bool(report.acceptable)));
            }
            Self::FaultStudyFinished { name, stats } => {
                push_finished_fields(&mut fields, name, &stats.base);
                fields.push(field("models", uint(stats.models)));
                fields.push(field("trials", uint(stats.trials)));
                fields.push(field("degraded", uint(stats.degraded)));
            }
        }
        Value::Object(fields)
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        self.write_fields(out);
        out.push('}');
    }
}

/// Appends `,"name":` — the separator and key of one event field (every
/// key is a plain ASCII literal, so no escaping is needed).
fn key(out: &mut String, name: &str) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
}

fn put_uint(out: &mut String, name: &str, n: u64) {
    key(out, name);
    json::write_u64(out, n);
}

fn put_float(out: &mut String, name: &str, f: f64) {
    key(out, name);
    json::write_f64(out, f);
}

fn put_str(out: &mut String, name: &str, s: &str) {
    key(out, name);
    json::write_str(out, s);
}

/// The direct-write twin of [`push_finished_fields`].
fn write_finished_fields(out: &mut String, name: &str, stats: &StudyStats) {
    put_str(out, "name", name);
    put_uint(out, "jobs", stats.jobs as u64);
    put_uint(out, "targets", stats.targets as u64);
    put_uint(out, "traffic", stats.traffic_patterns as u64);
    put_uint(out, "arrays", stats.arrays as u64);
    put_uint(out, "evaluations", stats.evaluations as u64);
    put_uint(out, "skipped", stats.skipped as u64);
    key(out, "cache");
    let Some(c) = stats.cache else {
        out.push_str("null");
        return;
    };
    out.push_str("{\"hits\":");
    json::write_u64(out, c.hits);
    put_uint(out, "misses", c.misses);
    put_uint(out, "pruned", c.pruned);
    put_uint(out, "l2_hits", c.l2_hits);
    put_uint(out, "l2_misses", c.l2_misses);
    put_uint(out, "l2_rejects", c.l2_rejects);
    for (name, count) in [
        ("l2_reject_io", c.l2_reject_classes.io),
        ("l2_reject_version", c.l2_reject_classes.version),
        ("l2_reject_truncated", c.l2_reject_classes.truncated),
        ("l2_reject_corrupt", c.l2_reject_classes.corrupt),
        ("l2_reject_collision", c.l2_reject_classes.collision),
    ] {
        if count != 0 {
            put_uint(out, name, count);
        }
    }
    put_float(out, "hit_rate", c.hit_rate());
    put_float(out, "prune_rate", c.prune_rate());
    out.push('}');
}

impl StudyEvent<'_> {
    /// Appends the event's JSON object *without* its braces —
    /// `"event":"…",…` — so a writer can prepend header fields (the wire
    /// protocol's `v`/`study`/`seq`) in the same buffer. The hand-written
    /// twin of the `to_value` tree: `{` + this + `}` is byte-identical to
    /// printing [`Serialize::to_value`] (proptested in
    /// `tests/codec_parity.rs`).
    pub fn write_fields(&self, out: &mut String) {
        self.write_fields_with(out, |out, evaluation| evaluation.write_json(out));
    }

    /// [`Self::write_fields`], with `write_evaluation` appending an
    /// `evaluation_produced` event's evaluation object — it must write
    /// exactly what [`Serialize::write_json`] would (the memoizing
    /// [`EventEncoder`](crate::wire::EventEncoder) copies repeated records).
    pub(crate) fn write_fields_with(
        &self,
        out: &mut String,
        write_evaluation: impl FnOnce(&mut String, &Evaluation),
    ) {
        out.push_str("\"event\":\"");
        out.push_str(self.kind());
        out.push('"');
        match self {
            Self::StudyStarted {
                name,
                cells,
                jobs,
                targets,
                traffic,
            } => {
                put_str(out, "name", name);
                put_uint(out, "cells", *cells as u64);
                put_uint(out, "jobs", *jobs as u64);
                put_uint(out, "targets", *targets as u64);
                put_uint(out, "traffic", *traffic as u64);
            }
            Self::ArrayCharacterized { index, array } => {
                put_uint(out, "index", *index as u64);
                key(out, "array");
                array.write_json(out);
            }
            Self::DesignSkipped {
                cell,
                target,
                reason,
            } => {
                put_str(out, "cell", cell);
                put_str(out, "target", target.label());
                put_str(out, "reason", reason);
            }
            Self::EvaluationProduced { index, evaluation } => {
                put_uint(out, "index", *index as u64);
                key(out, "evaluation");
                write_evaluation(out, evaluation);
            }
            Self::TargetWinnerSelected { target, winner } => {
                put_str(out, "target", target.label());
                put_str(out, "cell", &winner.array.cell_name);
                put_str(out, "traffic", &winner.traffic.name);
                put_float(out, "total_power_w", winner.total_power().value());
            }
            Self::StudyFinished { name, stats } => write_finished_fields(out, name, stats),
            Self::FaultTrialProduced { index, trial } => {
                put_uint(out, "index", *index as u64);
                put_uint(out, "model_index", trial.model_index as u64);
                put_uint(out, "trial", u64::from(trial.trial));
                put_str(out, "cell", &trial.cell);
                key(out, "bits_per_cell");
                trial.bits_per_cell.write_json(out);
                put_float(out, "temperature_c", trial.temperature_c);
                put_float(out, "bit_error_rate", trial.bit_error_rate);
                put_uint(out, "injection_seed", trial.injection_seed);
                put_uint(out, "bits_total", trial.bits_total);
                put_uint(out, "bits_flipped", trial.bits_flipped);
                put_float(out, "accuracy", trial.accuracy);
            }
            Self::AccuracyDegraded { index, report } => {
                put_uint(out, "index", *index as u64);
                put_uint(out, "model_index", report.model_index as u64);
                put_str(out, "cell", &report.cell);
                key(out, "bits_per_cell");
                report.bits_per_cell.write_json(out);
                put_float(out, "temperature_c", report.temperature_c);
                put_float(out, "baseline", report.report.baseline);
                put_float(out, "mean", report.report.mean);
                put_float(out, "worst", report.report.worst);
                put_float(out, "bit_error_rate", report.report.bit_error_rate);
                put_uint(out, "trials", u64::from(report.report.trials));
                key(out, "acceptable");
                json::write_bool(out, report.acceptable);
            }
            Self::FaultStudyFinished { name, stats } => {
                write_finished_fields(out, name, &stats.base);
                put_uint(out, "models", stats.models as u64);
                put_uint(out, "trials", stats.trials as u64);
                put_uint(out, "degraded", stats.degraded as u64);
            }
        }
    }
}

/// A consumer of [`StudyEvent`]s.
///
/// Sinks are driven from the executor's drainer thread in deterministic
/// slot order; an `Err` aborts the study with
/// [`StudyError::Sink`](crate::sweep::StudyError::Sink) (the in-flight
/// characterization work still completes, but no further events are
/// delivered).
pub trait ResultSink {
    /// Handles one event.
    ///
    /// # Errors
    ///
    /// Propagate I/O failures; the executor aborts the study on the first
    /// sink error.
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()>;

    /// `true` for sinks that do not need the per-slot events
    /// ([`NullSink`], summary-only sinks, or an all-passive fan-out). The
    /// engine skips the slot-order streaming drain for passive sinks —
    /// the batch entry points keep exactly their pre-streaming execution
    /// profile, with no drainer thread competing with workers for
    /// timeslices. A passive sink is **still delivered** the bracketing
    /// events (`study_started`, `target_winner_selected`,
    /// `study_finished`) — only the per-slot
    /// `array_characterized`/`design_skipped`/`evaluation_produced`
    /// events are skipped.
    fn is_passive(&self) -> bool {
        false
    }
}

// Boxed and borrowed sinks forward transparently, so sink sets built at
// runtime (a study's `output` fan-out, a scheduler's per-study sinks) and
// sinks the caller keeps (`MultiSink::new().with(&mut csv)`) compose like
// any other sink.
impl<S: ResultSink + ?Sized> ResultSink for Box<S> {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        (**self).on_event(event)
    }

    fn is_passive(&self) -> bool {
        (**self).is_passive()
    }
}

impl<S: ResultSink + ?Sized> ResultSink for &mut S {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        (**self).on_event(event)
    }

    fn is_passive(&self) -> bool {
        (**self).is_passive()
    }
}

/// A sink that discards every event — the batch API runs on this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ResultSink for NullSink {
    fn on_event(&mut self, _event: &StudyEvent<'_>) -> std::io::Result<()> {
        Ok(())
    }

    fn is_passive(&self) -> bool {
        true
    }
}

/// Fans every event out to several sinks, in push order. It owns what it
/// is given: pass a sink by value to hand it over, or `&mut sink` to keep
/// it and read it back after the run. The fan-out is passive exactly when
/// every member is, so an empty one (or one of summary-only sinks) lets the
/// engine skip the streaming drain.
#[derive(Default)]
pub struct MultiSink<'a> {
    sinks: Vec<Box<dyn ResultSink + 'a>>,
}

impl<'a> MultiSink<'a> {
    /// An empty fan-out.
    pub fn new() -> Self {
        Self { sinks: Vec::new() }
    }

    /// Adds a sink; events reach sinks in push order.
    #[must_use]
    pub fn with(mut self, sink: impl ResultSink + 'a) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }
}

impl ResultSink for MultiSink<'_> {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        for sink in &mut self.sinks {
            sink.on_event(event)?;
        }
        Ok(())
    }

    fn is_passive(&self) -> bool {
        self.sinks.iter().all(|sink| sink.is_passive())
    }
}

/// Rebuilds a [`StudyResult`] from the event stream.
///
/// This is the proof object for the streaming refactor: feeding the events
/// of a study into a builder yields a result byte-identical to what the
/// batch engine returns for the same config (asserted in
/// `tests/stream_equivalence.rs`).
#[derive(Debug, Default)]
pub struct StudyResultBuilder {
    name: String,
    arrays: Vec<ArrayCharacterization>,
    evaluations: Vec<Evaluation>,
    skipped: Vec<(String, String)>,
    fault_trials: Vec<crate::fault_study::FaultTrial>,
    fault_reports: Vec<crate::fault_study::FaultModelReport>,
    fault_stats: Option<crate::fault_study::FaultStudyStats>,
    finished: bool,
}

impl StudyResultBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The evaluations collected so far, in stream order. The wire-replay
    /// layer uses this to re-link `target_winner_selected` lines (which
    /// carry the winner's identity, not its full record) back to the
    /// evaluations that already streamed.
    pub fn evaluations(&self) -> &[Evaluation] {
        &self.evaluations
    }

    /// The assembled result, or `None` when no terminal event
    /// (`StudyFinished` or `FaultStudyFinished`) was seen (the stream was
    /// aborted or is still running).
    pub fn finish(self) -> Option<StudyResult> {
        self.finish_parts().map(|(result, _)| result)
    }

    /// Like [`Self::finish`], additionally returning the fault-campaign
    /// outcome when the stream was a fault campaign (terminal event
    /// `fault_study_finished`); `None` in the second slot for plain
    /// studies.
    pub fn finish_parts(self) -> Option<(StudyResult, Option<FaultOutcome>)> {
        if !self.finished {
            return None;
        }
        let result = StudyResult {
            name: self.name,
            arrays: self.arrays,
            evaluations: self.evaluations,
            skipped: self.skipped,
        };
        let fault = self.fault_stats.map(|stats| FaultOutcome {
            trials: self.fault_trials,
            reports: self.fault_reports,
            stats,
        });
        Some((result, fault))
    }
}

impl ResultSink for StudyResultBuilder {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        match event {
            StudyEvent::StudyStarted { name, .. } => {
                self.name = (*name).to_owned();
            }
            StudyEvent::ArrayCharacterized { array, .. } => {
                self.arrays.push((*array).clone());
            }
            StudyEvent::DesignSkipped { cell, reason, .. } => {
                self.skipped
                    .push(((*cell).to_owned(), (*reason).to_owned()));
            }
            StudyEvent::EvaluationProduced { evaluation, .. } => {
                self.evaluations.push((*evaluation).clone());
            }
            StudyEvent::TargetWinnerSelected { .. } => {}
            StudyEvent::StudyFinished { .. } => {
                self.finished = true;
            }
            StudyEvent::FaultTrialProduced { trial, .. } => {
                self.fault_trials.push((*trial).clone());
            }
            StudyEvent::AccuracyDegraded { report, .. } => {
                self.fault_reports.push((*report).clone());
            }
            StudyEvent::FaultStudyFinished { name, stats } => {
                self.name = (*name).to_owned();
                self.fault_stats = Some(**stats);
                self.finished = true;
            }
        }
        Ok(())
    }
}

/// Runs studies through the streaming engine, pushing [`StudyEvent`]s to a
/// sink while returning the same deterministic [`StudyResult`] as the batch
/// API.
///
/// # Examples
///
/// ```
/// use nvmexplorer_core::config::{StudyConfig, TrafficSpec};
/// use nvmexplorer_core::stream::{StudyExecutor, StudyResultBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut study = StudyConfig {
///     name: "stream-demo".into(),
///     cells: Default::default(),
///     array: Default::default(),
///     traffic: TrafficSpec::Explicit {
///         patterns: vec![nvmx_workloads::TrafficPattern::new("t", 1.0e9, 1.0e7, 64)],
///     },
///     constraints: Default::default(),
///     output: Default::default(),
///     store: Default::default(),
/// };
/// study.cells.technologies = Some(vec![nvmx_celldb::TechnologyClass::Stt]);
/// let mut builder = StudyResultBuilder::new();
/// let result = StudyExecutor::with_threads(2).run(&study, &mut builder)?;
/// let rebuilt = builder.finish().expect("stream finished");
/// assert_eq!(result.arrays, rebuilt.arrays);
/// # Ok(())
/// # }
/// ```
pub struct StudyExecutor<'c> {
    threads: usize,
    cache: Option<&'c SubarrayCache>,
    /// Executor-owned store-backed cache ([`Self::store`]); used when no
    /// caller cache is shared via [`Self::cache`].
    owned: Option<SubarrayCache>,
    seeds: Option<&'c IncumbentStore>,
}

impl Default for StudyExecutor<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'c> StudyExecutor<'c> {
    /// An executor with a worker per available CPU (capped at 16), like
    /// [`run_study`](crate::sweep::run_study).
    pub fn new() -> Self {
        Self::with_threads(crate::sweep::default_workers())
    }

    /// An executor with an explicit characterization/evaluation worker
    /// count.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            cache: None,
            owned: None,
            seeds: None,
        }
    }

    /// Shares a caller-owned [`SubarrayCache`] across every study this
    /// executor runs (otherwise each run gets a private cache).
    #[must_use]
    pub fn cache(mut self, cache: &'c SubarrayCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Backs this executor's cache with the persistent characterization
    /// store at `dir` (`nvmx_nvsim::store`): slab misses consult the
    /// on-disk L2 before characterizing, and finished studies publish new
    /// slabs back. The executor owns the store-backed cache and shares it
    /// across every study it runs; a cache shared via [`Self::cache`]
    /// takes precedence. Results stay byte-identical to storeless runs.
    ///
    /// # Errors
    ///
    /// When the store directory cannot be created.
    pub fn store(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.owned = Some(SubarrayCache::with_store(dir)?);
        Ok(self)
    }

    /// Shares a caller-owned [`IncumbentStore`] across every study this
    /// executor runs: each design point's branch-and-bound scan seeds its
    /// incumbents from the winners a prior identical point recorded, and
    /// records its own back. Results stay byte-identical to an unseeded
    /// run — seeding only raises the prune rate. The stream's wire format
    /// is unchanged; warm-study pruning shows up in the existing
    /// `StudyFinished` cache counters.
    #[must_use]
    pub fn seeds(mut self, seeds: &'c IncumbentStore) -> Self {
        self.seeds = Some(seeds);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one study, streaming events to `sink` and returning the
    /// assembled [`StudyResult`] (byte-identical to the batch API).
    ///
    /// # Errors
    ///
    /// [`StudyError`](crate::sweep::StudyError) on an unresolvable config,
    /// or [`StudyError::Sink`](crate::sweep::StudyError::Sink) when the
    /// sink fails.
    pub fn run(
        &self,
        study: &crate::config::StudyConfig,
        sink: &mut dyn ResultSink,
    ) -> Result<StudyResult, crate::sweep::StudyError> {
        let private;
        let cache = match (self.cache, &self.owned) {
            (Some(cache), _) => cache,
            (None, Some(owned)) => owned,
            (None, None) => {
                private = SubarrayCache::new();
                &private
            }
        };
        crate::sweep::run_study_impl(study, self.threads, cache, self.seeds, sink)
    }

    /// Runs a campaign config — a plain study through [`Self::run`], a
    /// fault campaign through [`Self::run_fault`] — returning the study's
    /// result plus, for a fault campaign, its fault outcome.
    ///
    /// # Errors
    ///
    /// As [`Self::run`] and [`Self::run_fault`].
    pub fn run_campaign(
        &self,
        campaign: &CampaignConfig,
        sink: &mut dyn ResultSink,
    ) -> Result<(StudyResult, Option<FaultOutcome>), crate::sweep::StudyError> {
        match campaign {
            CampaignConfig::Study(study) => Ok((self.run(study, sink)?, None)),
            CampaignConfig::Fault(fault) => {
                (self.run_fault(fault, sink)).map(|result| (result.study, Some(result.fault)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records event kinds and fails on request.
    struct Recorder {
        kinds: Vec<&'static str>,
        fail_at: Option<usize>,
    }

    impl ResultSink for Recorder {
        fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
            if self.fail_at == Some(self.kinds.len()) {
                return Err(std::io::Error::other("sink exploded"));
            }
            self.kinds.push(event.kind());
            Ok(())
        }
    }

    fn small_study() -> crate::config::StudyConfig {
        use crate::config::{ArraySettings, CellSelection, StudyConfig, TrafficSpec};
        let mut study = StudyConfig {
            name: "stream-unit".into(),
            cells: CellSelection {
                technologies: Some(vec![nvmx_celldb::TechnologyClass::Stt]),
                reference_rram: false,
                sram_baseline: false,
                ..CellSelection::default()
            },
            array: ArraySettings::default(),
            traffic: TrafficSpec::Explicit {
                patterns: vec![nvmx_workloads::TrafficPattern::new("t", 1.0e9, 1.0e7, 64)],
            },
            constraints: Default::default(),
            output: Default::default(),
            store: Default::default(),
        };
        study.array.capacities_mib = vec![2];
        study
    }

    #[test]
    fn event_order_brackets_the_study() {
        let mut recorder = Recorder {
            kinds: Vec::new(),
            fail_at: None,
        };
        let result = StudyExecutor::with_threads(2)
            .run(&small_study(), &mut recorder)
            .unwrap();
        assert_eq!(recorder.kinds.first(), Some(&"study_started"));
        assert_eq!(recorder.kinds.last(), Some(&"study_finished"));
        let arrays = recorder
            .kinds
            .iter()
            .filter(|k| **k == "array_characterized")
            .count();
        let evals = recorder
            .kinds
            .iter()
            .filter(|k| **k == "evaluation_produced")
            .count();
        assert_eq!(arrays, result.arrays.len());
        assert_eq!(evals, result.evaluations.len());
        assert!(recorder.kinds.contains(&"target_winner_selected"));
    }

    /// Records every event's JSON object, in order.
    #[derive(Default)]
    struct Lines(Vec<String>);

    impl ResultSink for Lines {
        fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
            let mut line = String::new();
            event.write_json(&mut line);
            self.0.push(line);
            Ok(())
        }
    }

    /// What [`StudyResultBuilder::finish_parts`] rebuilds.
    type Parts = Option<(StudyResult, Option<FaultOutcome>)>;

    /// Runs `run` with a fresh event recorder and result builder behind
    /// one sink, returning what it returned, the events, and the rebuilt
    /// parts.
    fn observed<T>(run: impl FnOnce(&mut dyn ResultSink) -> T) -> (T, Vec<String>, Parts) {
        let (mut lines, mut builder) = (Lines::default(), StudyResultBuilder::new());
        let out = run(&mut MultiSink::new().with(&mut lines).with(&mut builder));
        (out, lines.0, builder.finish_parts())
    }

    #[test]
    fn run_campaign_streams_and_returns_what_run_and_run_fault_do() {
        use crate::config::{FaultSpec, FaultStudyConfig};
        // One thread and a private cache per run: even the terminal
        // event's cache counters repeat exactly.
        let executor = StudyExecutor::with_threads(1);
        let study = small_study();
        let (direct, direct_lines, direct_parts) = observed(|sink| executor.run(&study, sink));
        let campaign = CampaignConfig::Study(study.clone());
        let (via, via_lines, via_parts) = observed(|sink| executor.run_campaign(&campaign, sink));
        let direct = direct.unwrap();
        assert_eq!(via.unwrap(), (direct.clone(), None));
        assert_eq!(via_lines, direct_lines);
        assert_eq!(via_parts, direct_parts);
        assert_eq!(via_parts, Some((direct, None)));

        let fault = FaultStudyConfig {
            study,
            fault: FaultSpec {
                trials: 2,
                seed: 5,
                bits_per_cell: vec![nvmx_units::BitsPerCell::Slc],
                temperatures_c: vec![25.0],
                raw_bers: vec![1.0e-3],
                tolerance: 0.05,
            },
        };
        let (direct, direct_lines, direct_parts) =
            observed(|sink| executor.run_fault(&fault, sink));
        let campaign = CampaignConfig::Fault(fault);
        let (via, via_lines, via_parts) = observed(|sink| executor.run_campaign(&campaign, sink));
        let direct = direct.unwrap();
        let expected = (direct.study, Some(direct.fault));
        assert_eq!(via.unwrap(), expected);
        assert!(via_lines.last().unwrap().contains("fault_study_finished"));
        assert_eq!(via_lines, direct_lines);
        assert_eq!(via_parts, direct_parts);
        assert_eq!(via_parts, Some(expected));
    }

    #[test]
    fn sink_error_aborts_the_study() {
        let mut recorder = Recorder {
            kinds: Vec::new(),
            fail_at: Some(1),
        };
        let err = StudyExecutor::with_threads(2)
            .run(&small_study(), &mut recorder)
            .unwrap_err();
        assert!(matches!(err, crate::sweep::StudyError::Sink(_)));
        assert_eq!(recorder.kinds, vec!["study_started"]);
    }

    #[test]
    fn builder_requires_a_finished_stream() {
        let builder = StudyResultBuilder::new();
        assert!(builder.finish().is_none());
    }

    #[test]
    fn multi_sink_fans_out_in_order() {
        let mut a = Recorder {
            kinds: Vec::new(),
            fail_at: None,
        };
        let mut b = Recorder {
            kinds: Vec::new(),
            fail_at: None,
        };
        {
            let mut multi = MultiSink::new().with(&mut a).with(&mut b);
            let stats = StudyStats {
                jobs: 0,
                targets: 0,
                traffic_patterns: 0,
                arrays: 0,
                evaluations: 0,
                skipped: 0,
                cache: None,
            };
            multi
                .on_event(&StudyEvent::StudyFinished {
                    name: "x",
                    stats: &stats,
                })
                .unwrap();
        }
        assert_eq!(a.kinds, vec!["study_finished"]);
        assert_eq!(b.kinds, vec!["study_finished"]);
    }

    #[test]
    fn events_serialize_with_their_kind_tag() {
        let stats = StudyStats {
            jobs: 1,
            targets: 2,
            traffic_patterns: 3,
            arrays: 4,
            evaluations: 5,
            skipped: 0,
            cache: Some(CacheStats {
                hits: 3,
                misses: 1,
                pruned: 4,
                l2_hits: 2,
                l2_misses: 1,
                l2_rejects: 1,
                l2_reject_classes: nvmx_nvsim::L2RejectClasses {
                    version: 1,
                    ..Default::default()
                },
            }),
        };
        let event = StudyEvent::StudyFinished {
            name: "demo",
            stats: &stats,
        };
        let json = serde_json::to_string(&event).unwrap();
        assert!(json.contains("\"event\":\"study_finished\""));
        assert!(json.contains("\"evaluations\":5"));
        assert!(json.contains("\"hit_rate\":0.75"));
        assert!(json.contains("\"pruned\":4"));
        assert!(json.contains("\"prune_rate\":0.5"));
        assert!(json.contains("\"l2_hits\":2"));
        assert!(json.contains("\"l2_misses\":1"));
        assert!(json.contains("\"l2_rejects\":1"));
        assert!(json.contains("\"l2_reject_version\":1"));
        assert!(
            !json.contains("\"l2_reject_io\""),
            "zero classes stay off the wire"
        );
    }
}
