//! The versioned JSONL wire protocol: [`StudyEvent`]s serialized across a
//! process/host boundary, with strict parsing, slot-order merging, and
//! deterministic replay — plus the service request/response frames the
//! `nvmx-serve` daemon speaks (protocol version 3).
//!
//! **The normative specification of this protocol — every version, every
//! frame type, field tables, version-skew and replay rules — lives in
//! [`docs/PROTOCOL.md`](https://github.com/nvmexplorer/nvmexplorer-rs/blob/main/docs/PROTOCOL.md)
//! at the repository root. That document is the source of truth; this
//! module implements it, and CI greps the two against each other.**
//!
//! # Format
//!
//! A wire line is the [`JsonlSink`](../../nvmx_viz/sink/struct.JsonlSink.html)
//! event object *extended* with a three-field header — not a second format:
//!
//! ```text
//! {"v":3,"study":"quickstart","seq":7,"event":"evaluation_produced",...}
//! ```
//!
//! - `v` — protocol version ([`WIRE_VERSION`]; readers accept the whole
//!   [`WIRE_MIN_VERSION`]`..=`[`WIRE_VERSION`] range, so v1 pre-fault and
//!   v2 pre-service captures still replay). Any other value is rejected
//!   instead of guessed at.
//! - `study` — the study name, stamped on every line so interleaved or
//!   concatenated captures stay attributable.
//! - `seq` — the event's position in the engine's deterministic slot-order
//!   stream, starting at 0 for `study_started`. Because the stream is
//!   identical at any thread count, `seq` is a *global coordinate*: two
//!   workers running the same study agree on which event is number 17.
//!
//! Everything after the header is byte-identical to what
//! `serde_json::to_string(&event)` produces, so a bare JSONL file (no
//! header) written by `JsonlSink` parses with the same event decoder
//! ([`OwnedStudyEvent::from_value`]).
//!
//! # Leases and resume
//!
//! [`WireSink`] stamps the header on every event of the stream. Because
//! `seq` is a global coordinate, N workers running the same study can
//! each emit only the contiguous slot ranges a coordinator leases to them
//! ([`LeaseFrame`], `crate::reshard`), and the coordinator merges the
//! ranges back with [`SlotMerger`], which buffers out-of-order arrivals
//! and silently drops duplicate slots — so re-leasing a dead worker's
//! range to another worker, or a respawned worker re-sending slots that
//! already arrived, is idempotent by construction.
//!
//! # Replay
//!
//! [`replay`] rebuilds a [`StudyResult`] from a captured stream via
//! [`StudyResultBuilder`] — byte-identical to the in-process run, proven by
//! proptest in `tests/wire_roundtrip.rs`. Replay is *strict*: unknown
//! versions, malformed lines, out-of-order or duplicate slots, study-name
//! changes mid-stream, and truncation (no terminal `study_finished` /
//! `fault_study_finished`) are all hard errors, because a campaign capture
//! that silently tolerated any of those could not serve as an audit
//! record. Fault-campaign captures additionally rebuild the
//! [`FaultOutcome`] (trials, per-model verdicts, final counters) from the
//! version-2 fault events.
//!
//! The codec has one path in each direction. Every strict reader decodes
//! through a stream-scoped [`FrameDecoder`]: the record-carrying lines
//! that make up nearly every study in one pass, each array or traffic
//! record decoded once per stream however many evaluations repeat it, and
//! every other line and every error through the [`Value`] tree, which is
//! also the oracle the one-pass path is proptested against. Every wire
//! writer encodes through a [`LineEncoder`], which [`WireSink`] wraps; it
//! shares the [`EventEncoder`], which formats each record once, with the
//! JSONL sink.

use crate::accuracy::AccuracyReport;
use crate::eval::Evaluation;
use crate::fault_study::{FaultModelReport, FaultOutcome, FaultStudyStats, FaultTrial};
use crate::stream::{ResultSink, StudyEvent, StudyResultBuilder, StudyStats};
use crate::sweep::StudyResult;
use nvmx_nvsim::{ArrayCharacterization, CacheStats, L2RejectClasses, OptimizationTarget};
use nvmx_workloads::TrafficPattern;
use serde::{json, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// The wire protocol version stamped on every written line.
///
/// Version 4 (this release) adds the worker-supervision control frames
/// ([`WorkerFrame`], [`LeaseFrame`]) that `nvmx-worker` processes and the
/// lease-granting coordinator speak, plus the optional per-class
/// `l2_reject_*` store counters on the `study_finished` cache object.
/// The event-frame format is otherwise unchanged from version 3 (which
/// added the service request/response frames [`RequestFrame`] /
/// [`ResponseFrame`]), version 2 (fault-campaign events), and version 1.
/// Readers accept every version down to [`WIRE_MIN_VERSION`] — pre-fault,
/// pre-service, and pre-lease captures replay unchanged; every other
/// version is rejected instead of guessed at. Re-encoding a parsed frame
/// always stamps the current version.
pub const WIRE_VERSION: u64 = 4;

/// The oldest protocol version readers still decode.
pub const WIRE_MIN_VERSION: u64 = 1;

/// The oldest protocol version that carries service request/response
/// frames. Event streams exist since version 1; `submit`/`status`/
/// `cancel`/`events`/`shutdown` requests (and their responses) only since
/// version 3 — a request line declaring an older version is rejected.
pub const WIRE_SERVICE_MIN_VERSION: u64 = 3;

/// The oldest protocol version that carries worker-supervision control
/// frames. `hello`/`heartbeat`/`drained`/`done` worker lines and
/// `grant`/`revoke`/`shutdown` lease lines exist only since version 4 —
/// a control line declaring an older version is rejected, because no
/// older writer ever produced one.
pub const WIRE_WORKER_MIN_VERSION: u64 = 4;

/// The longest frame line any reader accepts, in bytes, newline excluded
/// (4 MiB — three orders of magnitude above the largest frame the engine
/// writes, ~1.2 KB, and room for a large `submit` config). Every line
/// reader on a protocol path goes through
/// [`read_frame_line`](crate::transport::read_frame_line), which fails with
/// [`std::io::ErrorKind::InvalidData`] instead of buffering past this, so
/// a peer that never sends a newline cannot grow a reader's memory
/// without bound.
pub const MAX_FRAME_BYTES: usize = 4194304;

// --------------------------------------------------------------- errors

/// Why a wire stream was rejected.
#[derive(Debug)]
pub enum WireError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// A line was not a valid wire frame (malformed JSON, missing fields,
    /// unknown event tag, wrong field types).
    Corrupt {
        /// 1-based line number.
        line: u64,
        /// What was wrong.
        reason: String,
    },
    /// The line declared a protocol version this reader does not speak.
    Version {
        /// 1-based line number.
        line: u64,
        /// The version the line declared.
        found: u64,
    },
    /// A slot arrived more than once (strict readers only — [`SlotMerger`]
    /// dedups silently, because resume *depends* on replayed duplicates).
    DuplicateSlot {
        /// 1-based line number.
        line: u64,
        /// The repeated slot.
        seq: u64,
    },
    /// A slot arrived out of order (strict readers require `0, 1, 2, …`).
    OutOfOrder {
        /// 1-based line number.
        line: u64,
        /// The slot the reader expected next.
        expected: u64,
        /// The slot the line carried.
        found: u64,
    },
    /// The study name changed mid-stream.
    StudyMismatch {
        /// 1-based line number.
        line: u64,
        /// The name the stream opened with.
        expected: String,
        /// The name this line carried.
        found: String,
    },
    /// The stream ended without a terminal event (`study_finished`, or
    /// `fault_study_finished` for fault campaigns).
    Truncated {
        /// Frames successfully read before the end.
        frames: u64,
    },
    /// A winner line referenced an evaluation the stream never carried.
    UnknownWinner {
        /// 1-based line number.
        line: u64,
        /// The winning cell the line named.
        cell: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wire stream I/O error: {e}"),
            Self::Corrupt { line, reason } => write!(f, "corrupt wire line {line}: {reason}"),
            Self::Version { line, found } => write!(
                f,
                "wire line {line} declares protocol version {found}, this reader speaks {WIRE_MIN_VERSION}..={WIRE_VERSION}"
            ),
            Self::DuplicateSlot { line, seq } => {
                write!(f, "wire line {line} repeats slot {seq}")
            }
            Self::OutOfOrder {
                line,
                expected,
                found,
            } => write!(
                f,
                "wire line {line} is out of order: expected slot {expected}, got {found}"
            ),
            Self::StudyMismatch {
                line,
                expected,
                found,
            } => write!(
                f,
                "wire line {line} switches study from `{expected}` to `{found}`"
            ),
            Self::Truncated { frames } => write!(
                f,
                "wire stream truncated: {frames} frames but no study_finished"
            ),
            Self::UnknownWinner { line, cell } => write!(
                f,
                "wire line {line} declares winner `{cell}` but no such evaluation streamed"
            ),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Why one line failed to parse (lifted into [`WireError`] with a line
/// number by the readers).
#[derive(Debug)]
pub enum FrameError {
    /// The line declared an unsupported protocol version.
    Version {
        /// The declared version.
        found: u64,
    },
    /// The line was malformed.
    Corrupt {
        /// What was wrong.
        reason: String,
    },
}

impl FrameError {
    fn corrupt(reason: impl Into<String>) -> Self {
        Self::Corrupt {
            reason: reason.into(),
        }
    }

    fn at(self, line: u64) -> WireError {
        match self {
            Self::Version { found } => WireError::Version { line, found },
            Self::Corrupt { reason } => WireError::Corrupt { line, reason },
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Version { found } => write!(
                f,
                "frame declares protocol version {found}, this reader speaks {WIRE_MIN_VERSION}..={WIRE_VERSION}"
            ),
            Self::Corrupt { reason } => write!(f, "corrupt frame: {reason}"),
        }
    }
}

impl std::error::Error for FrameError {}

// ----------------------------------------------------------- owned events

/// An owned [`StudyEvent`]: what a wire line decodes to.
///
/// The borrowed event type borrows from the engine's result slots, so it
/// cannot cross a process boundary; this type owns its payloads and
/// converts back with [`Self::as_event`] to feed any [`ResultSink`].
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedStudyEvent {
    /// See [`StudyEvent::StudyStarted`].
    StudyStarted {
        /// Study name.
        name: String,
        /// Resolved cell count.
        cells: usize,
        /// Shared-DSE jobs expanded.
        jobs: usize,
        /// Optimization targets swept.
        targets: usize,
        /// Resolved traffic patterns.
        traffic: usize,
    },
    /// See [`StudyEvent::ArrayCharacterized`].
    ArrayCharacterized {
        /// Slot index in the deterministic output order.
        index: usize,
        /// The characterized design point.
        array: ArrayCharacterization,
    },
    /// See [`StudyEvent::DesignSkipped`].
    DesignSkipped {
        /// Cell name of the failed design point.
        cell: String,
        /// Target this skip is reported under.
        target: OptimizationTarget,
        /// Human-readable reason.
        reason: String,
    },
    /// See [`StudyEvent::EvaluationProduced`].
    EvaluationProduced {
        /// Slot index in the deterministic order.
        index: usize,
        /// The evaluation.
        evaluation: Evaluation,
    },
    /// See [`StudyEvent::TargetWinnerSelected`]. The wire carries the
    /// winner's identity (cell, traffic, total power), not the full
    /// evaluation — the evaluation itself already streamed as an earlier
    /// `evaluation_produced` line, and [`StreamReplayer`] re-links the two.
    TargetWinnerSelected {
        /// The optimization target.
        target: OptimizationTarget,
        /// Winning cell name.
        cell: String,
        /// Winning traffic pattern name.
        traffic: String,
        /// The winner's total power in watts (bit-exact on the wire).
        total_power_w: f64,
    },
    /// See [`StudyEvent::StudyFinished`].
    StudyFinished {
        /// Study name.
        name: String,
        /// Final counters.
        stats: StudyStats,
    },
    /// See [`StudyEvent::FaultTrialProduced`] (protocol version 2).
    FaultTrialProduced {
        /// Trial slot index.
        index: usize,
        /// The trial record, injection seed included.
        trial: FaultTrial,
    },
    /// See [`StudyEvent::AccuracyDegraded`] (protocol version 2).
    AccuracyDegraded {
        /// Model index in the campaign's expansion order.
        index: usize,
        /// The per-model accuracy verdict.
        report: FaultModelReport,
    },
    /// See [`StudyEvent::FaultStudyFinished`] (protocol version 2) — the
    /// terminal event of fault-campaign streams.
    FaultStudyFinished {
        /// Study name.
        name: String,
        /// Final counters (base study + fault phase).
        stats: FaultStudyStats,
    },
}

/// The top-level entries of one JSON object, in text order: what every
/// stateless decoder reads a line as. Lookups take the first occurrence of
/// a key.
type Obj = [(String, Value)];

/// Parses one line into its top-level entries — the [`Value`] tree the
/// stateless decoders share with [`WireFrame::from_value`]. `what` names
/// the line kind in the not-an-object error.
fn parse_object(line: &str, what: &str) -> Result<Vec<(String, Value)>, FrameError> {
    let mut reader = json::Reader::new(line);
    match reader
        .value()
        .and_then(|value| reader.finish().map(|()| value))
    {
        Ok(Value::Object(entries)) => Ok(entries),
        Ok(_) => Err(FrameError::corrupt(format!("{what} is not a JSON object"))),
        Err(e) => Err(FrameError::corrupt(format!("not valid JSON: {e}"))),
    }
}

fn find<'v>(obj: &'v Obj, name: &str) -> Option<&'v Value> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn field<'v>(obj: &'v Obj, name: &str) -> Result<&'v Value, FrameError> {
    find(obj, name).ok_or_else(|| FrameError::corrupt(format!("missing field `{name}`")))
}

fn uint_field(obj: &Obj, name: &str) -> Result<u64, FrameError> {
    field(obj, name)?
        .as_u64()
        .ok_or_else(|| FrameError::corrupt(format!("field `{name}` is not an unsigned integer")))
}

/// Like [`uint_field`], but a *missing* field decodes as `default` (a
/// present-but-malformed one is still corrupt). For counters added to the
/// version-1 cache object after the fact — older captures simply never
/// observed them.
fn uint_field_or(obj: &Obj, name: &str, default: u64) -> Result<u64, FrameError> {
    match find(obj, name) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            FrameError::corrupt(format!("field `{name}` is not an unsigned integer"))
        }),
    }
}

fn usize_field(obj: &Obj, name: &str) -> Result<usize, FrameError> {
    usize::try_from(uint_field(obj, name)?)
        .map_err(|_| FrameError::corrupt(format!("field `{name}` out of range")))
}

fn str_field<'v>(obj: &'v Obj, name: &str) -> Result<&'v str, FrameError> {
    field(obj, name)?
        .as_str()
        .ok_or_else(|| FrameError::corrupt(format!("field `{name}` is not a string")))
}

fn string_field(obj: &Obj, name: &str) -> Result<String, FrameError> {
    str_field(obj, name).map(str::to_owned)
}

fn float_field(obj: &Obj, name: &str) -> Result<f64, FrameError> {
    field(obj, name)?
        .as_f64()
        .ok_or_else(|| FrameError::corrupt(format!("field `{name}` is not a number")))
}

fn bool_field(obj: &Obj, name: &str) -> Result<bool, FrameError> {
    field(obj, name)?
        .as_bool()
        .ok_or_else(|| FrameError::corrupt(format!("field `{name}` is not a boolean")))
}

fn u32_field(obj: &Obj, name: &str) -> Result<u32, FrameError> {
    u32::try_from(uint_field(obj, name)?)
        .map_err(|_| FrameError::corrupt(format!("field `{name}` out of range")))
}

fn target_field(obj: &Obj, name: &str) -> Result<OptimizationTarget, FrameError> {
    let label = str_field(obj, name)?;
    OptimizationTarget::ALL
        .into_iter()
        .find(|t| t.label() == label)
        .ok_or_else(|| FrameError::corrupt(format!("unknown optimization target `{label}`")))
}

/// A typed payload field (`array`, `evaluation`, `bits_per_cell`).
fn payload_field<T: Deserialize>(obj: &Obj, name: &str, what: &str) -> Result<T, FrameError> {
    T::from_value(field(obj, name)?).map_err(|e| FrameError::corrupt(format!("bad {what}: {e}")))
}

/// Decodes the per-class `l2_reject_*` counters of a wire cache object.
/// The writer emits each class only when nonzero (a clean run's cache
/// object is byte-identical to a v3 writer's), so every class decodes
/// with a zero default.
fn reject_classes_from(cache: &Obj) -> Result<L2RejectClasses, FrameError> {
    Ok(L2RejectClasses {
        io: uint_field_or(cache, "l2_reject_io", 0)?,
        version: uint_field_or(cache, "l2_reject_version", 0)?,
        truncated: uint_field_or(cache, "l2_reject_truncated", 0)?,
        corrupt: uint_field_or(cache, "l2_reject_corrupt", 0)?,
        collision: uint_field_or(cache, "l2_reject_collision", 0)?,
    })
}

/// Appends the nonzero per-class `l2_reject_*` counters to a cache object
/// under construction — the encoding mirror of [`reject_classes_from`].
fn push_reject_classes(fields: &mut Vec<(String, Value)>, classes: &L2RejectClasses) {
    for (name, count) in [
        ("l2_reject_io", classes.io),
        ("l2_reject_version", classes.version),
        ("l2_reject_truncated", classes.truncated),
        ("l2_reject_corrupt", classes.corrupt),
        ("l2_reject_collision", classes.collision),
    ] {
        if count != 0 {
            fields.push((name.to_owned(), Value::Uint(count)));
        }
    }
}

/// Decodes the flat field block shared by `study_finished` and
/// `fault_study_finished`.
fn finished_stats(obj: &Obj) -> Result<StudyStats, FrameError> {
    let cache = match field(obj, "cache")? {
        Value::Null => None,
        // `pruned` joined the version-1 cache object in PR 5, the `l2_*`
        // store counters in PR 8, the per-class `l2_reject_*` breakdown in
        // v4; captures from older writers decode as zeros instead of
        // failing strict replay.
        Value::Object(cache) => Some(CacheStats {
            hits: uint_field(cache, "hits")?,
            misses: uint_field(cache, "misses")?,
            pruned: uint_field_or(cache, "pruned", 0)?,
            l2_hits: uint_field_or(cache, "l2_hits", 0)?,
            l2_misses: uint_field_or(cache, "l2_misses", 0)?,
            l2_rejects: uint_field_or(cache, "l2_rejects", 0)?,
            l2_reject_classes: reject_classes_from(cache)?,
        }),
        other => {
            return Err(FrameError::corrupt(format!(
                "field `cache` is neither null nor an object, got {}",
                other.kind()
            )))
        }
    };
    Ok(StudyStats {
        jobs: usize_field(obj, "jobs")?,
        targets: usize_field(obj, "targets")?,
        traffic_patterns: usize_field(obj, "traffic")?,
        arrays: usize_field(obj, "arrays")?,
        evaluations: usize_field(obj, "evaluations")?,
        skipped: usize_field(obj, "skipped")?,
        cache,
    })
}

impl OwnedStudyEvent {
    /// Decodes an event object — either a bare `JsonlSink` line or the
    /// event portion of a wire frame (header fields are ignored here).
    ///
    /// # Errors
    ///
    /// [`FrameError::Corrupt`] for a missing/unknown `event` tag or a
    /// malformed payload.
    pub fn from_value(value: &Value) -> Result<Self, FrameError> {
        let obj = value
            .as_object()
            .ok_or_else(|| FrameError::corrupt("event line is not a JSON object"))?;
        Self::decode(obj)
    }

    fn decode(obj: &Obj) -> Result<Self, FrameError> {
        match str_field(obj, "event")? {
            "study_started" => Ok(Self::StudyStarted {
                name: string_field(obj, "name")?,
                cells: usize_field(obj, "cells")?,
                jobs: usize_field(obj, "jobs")?,
                targets: usize_field(obj, "targets")?,
                traffic: usize_field(obj, "traffic")?,
            }),
            "array_characterized" => Ok(Self::ArrayCharacterized {
                index: usize_field(obj, "index")?,
                array: payload_field(obj, "array", "array payload")?,
            }),
            "design_skipped" => Ok(Self::DesignSkipped {
                cell: string_field(obj, "cell")?,
                target: target_field(obj, "target")?,
                reason: string_field(obj, "reason")?,
            }),
            "evaluation_produced" => Ok(Self::EvaluationProduced {
                index: usize_field(obj, "index")?,
                evaluation: payload_field(obj, "evaluation", "evaluation payload")?,
            }),
            "target_winner_selected" => Ok(Self::TargetWinnerSelected {
                target: target_field(obj, "target")?,
                cell: string_field(obj, "cell")?,
                traffic: string_field(obj, "traffic")?,
                total_power_w: float_field(obj, "total_power_w")?,
            }),
            "study_finished" => Ok(Self::StudyFinished {
                name: string_field(obj, "name")?,
                stats: finished_stats(obj)?,
            }),
            "fault_trial_produced" => Ok(Self::FaultTrialProduced {
                index: usize_field(obj, "index")?,
                trial: FaultTrial {
                    model_index: usize_field(obj, "model_index")?,
                    trial: u32_field(obj, "trial")?,
                    cell: string_field(obj, "cell")?,
                    bits_per_cell: payload_field(obj, "bits_per_cell", "bits_per_cell")?,
                    temperature_c: float_field(obj, "temperature_c")?,
                    bit_error_rate: float_field(obj, "bit_error_rate")?,
                    injection_seed: uint_field(obj, "injection_seed")?,
                    bits_total: uint_field(obj, "bits_total")?,
                    bits_flipped: uint_field(obj, "bits_flipped")?,
                    accuracy: float_field(obj, "accuracy")?,
                },
            }),
            "accuracy_degraded" => Ok(Self::AccuracyDegraded {
                index: usize_field(obj, "index")?,
                report: FaultModelReport {
                    model_index: usize_field(obj, "model_index")?,
                    cell: string_field(obj, "cell")?,
                    bits_per_cell: payload_field(obj, "bits_per_cell", "bits_per_cell")?,
                    temperature_c: float_field(obj, "temperature_c")?,
                    report: AccuracyReport {
                        baseline: float_field(obj, "baseline")?,
                        mean: float_field(obj, "mean")?,
                        worst: float_field(obj, "worst")?,
                        bit_error_rate: float_field(obj, "bit_error_rate")?,
                        trials: u32_field(obj, "trials")?,
                    },
                    acceptable: bool_field(obj, "acceptable")?,
                },
            }),
            "fault_study_finished" => Ok(Self::FaultStudyFinished {
                name: string_field(obj, "name")?,
                stats: FaultStudyStats {
                    base: finished_stats(obj)?,
                    models: usize_field(obj, "models")?,
                    trials: usize_field(obj, "trials")?,
                    degraded: usize_field(obj, "degraded")?,
                },
            }),
            other => Err(FrameError::corrupt(format!("unknown event tag `{other}`"))),
        }
    }

    /// The borrowed view of this event, or `None` for
    /// `target_winner_selected` (whose full evaluation is not on the wire —
    /// [`StreamReplayer`] re-links it against the streamed evaluations).
    pub fn as_event(&self) -> Option<StudyEvent<'_>> {
        match self {
            Self::StudyStarted {
                name,
                cells,
                jobs,
                targets,
                traffic,
            } => Some(StudyEvent::StudyStarted {
                name,
                cells: *cells,
                jobs: *jobs,
                targets: *targets,
                traffic: *traffic,
            }),
            Self::ArrayCharacterized { index, array } => Some(StudyEvent::ArrayCharacterized {
                index: *index,
                array,
            }),
            Self::DesignSkipped {
                cell,
                target,
                reason,
            } => Some(StudyEvent::DesignSkipped {
                cell,
                target: *target,
                reason,
            }),
            Self::EvaluationProduced { index, evaluation } => {
                Some(StudyEvent::EvaluationProduced {
                    index: *index,
                    evaluation,
                })
            }
            Self::TargetWinnerSelected { .. } => None,
            Self::StudyFinished { name, stats } => Some(StudyEvent::StudyFinished { name, stats }),
            Self::FaultTrialProduced { index, trial } => Some(StudyEvent::FaultTrialProduced {
                index: *index,
                trial,
            }),
            Self::AccuracyDegraded { index, report } => Some(StudyEvent::AccuracyDegraded {
                index: *index,
                report,
            }),
            Self::FaultStudyFinished { name, stats } => {
                Some(StudyEvent::FaultStudyFinished { name, stats })
            }
        }
    }

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

    /// The event's JSON object — byte-compatible with the borrowed
    /// [`StudyEvent`]'s serialization (parse → re-serialize is the
    /// identity on wire lines; asserted in `tests/wire_roundtrip.rs`).
    pub fn to_value(&self) -> Value {
        match self.as_event() {
            Some(event) => event.to_value(),
            None => {
                let Self::TargetWinnerSelected {
                    target,
                    cell,
                    traffic,
                    total_power_w,
                } = self
                else {
                    unreachable!("only winner events have no borrowed view")
                };
                // Mirrors the `TargetWinnerSelected` arm of the borrowed
                // event's Serialize impl field-for-field.
                Value::Object(vec![
                    ("event".to_owned(), Value::Str(self.kind().to_owned())),
                    ("target".to_owned(), Value::Str(target.label().to_owned())),
                    ("cell".to_owned(), Value::Str(cell.clone())),
                    ("traffic".to_owned(), Value::Str(traffic.clone())),
                    ("total_power_w".to_owned(), Value::Float(*total_power_w)),
                ])
            }
        }
    }

    /// The direct-write twin of [`Self::to_value`]: appends the event
    /// object's fields without braces, like [`StudyEvent::write_fields`].
    pub fn write_fields(&self, out: &mut String) {
        match self.as_event() {
            Some(event) => event.write_fields(out),
            None => {
                let Self::TargetWinnerSelected {
                    target,
                    cell,
                    traffic,
                    total_power_w,
                } = self
                else {
                    unreachable!("only winner events have no borrowed view")
                };
                out.push_str("\"event\":\"target_winner_selected\",\"target\":");
                json::write_str(out, target.label());
                out.push_str(",\"cell\":");
                json::write_str(out, cell);
                out.push_str(",\"traffic\":");
                json::write_str(out, traffic);
                out.push_str(",\"total_power_w\":");
                json::write_f64(out, *total_power_w);
            }
        }
    }
}

// ----------------------------------------------------------------- frames

/// One parsed wire line: the protocol header plus the event.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFrame {
    /// Protocol version the line declared (within
    /// [`WIRE_MIN_VERSION`]`..=`[`WIRE_VERSION`] after a successful
    /// parse; re-encoding always stamps the current [`WIRE_VERSION`]).
    pub version: u64,
    /// Study name from the header.
    pub study: String,
    /// Slot sequence number: the event's position in the deterministic
    /// slot-order stream.
    pub seq: u64,
    /// The event payload.
    pub event: OwnedStudyEvent,
}

impl WireFrame {
    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// [`FrameError::Version`] when `v` is outside
    /// [`WIRE_MIN_VERSION`]`..=`[`WIRE_VERSION`];
    /// [`FrameError::Corrupt`] for anything else wrong with the line.
    pub fn parse(line: &str) -> Result<Self, FrameError> {
        Self::decode(&parse_object(line, "wire line")?)
    }

    /// Decodes a frame from a parsed [`Value`] tree — the reference path
    /// [`FrameDecoder`]'s one-pass decode is proptested against
    /// (`tests/codec_parity.rs`).
    ///
    /// # Errors
    ///
    /// Same as [`Self::parse`], minus malformed JSON.
    pub fn from_value(value: &Value) -> Result<Self, FrameError> {
        let obj = value
            .as_object()
            .ok_or_else(|| FrameError::corrupt("wire line is not a JSON object"))?;
        Self::decode(obj)
    }

    /// `v` is checked before anything else is decoded.
    fn decode(obj: &Obj) -> Result<Self, FrameError> {
        let version = uint_field(obj, "v")?;
        if !(WIRE_MIN_VERSION..=WIRE_VERSION).contains(&version) {
            return Err(FrameError::Version { found: version });
        }
        Ok(Self {
            version,
            study: string_field(obj, "study")?,
            seq: uint_field(obj, "seq")?,
            event: OwnedStudyEvent::decode(obj)?,
        })
    }

    /// The frame as a JSON value: header fields, then the event object's
    /// fields — exactly what [`WireSink`] writes.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("v".to_owned(), Value::Uint(WIRE_VERSION)),
            ("study".to_owned(), Value::Str(self.study.clone())),
            ("seq".to_owned(), Value::Uint(self.seq)),
        ];
        if let Value::Object(body) = self.event.to_value() {
            fields.extend(body);
        }
        Value::Object(fields)
    }

    /// The frame as one JSONL line (no trailing newline). Parse → re-encode
    /// is the identity on lines produced by [`WireSink`], so a coordinator
    /// can re-emit merged frames into a capture file byte-faithfully.
    /// (Version-1 lines re-encode stamped with the current version — the
    /// payload bytes are unchanged, only the header advances.)
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        write_header(&mut line, &self.study);
        json::write_u64(&mut line, self.seq);
        line.push(',');
        self.event.write_fields(&mut line);
        line.push('}');
        line
    }
}

/// Appends the wire header up to (not including) the `seq` value:
/// `{"v":<WIRE_VERSION>,"study":<study>,"seq":`.
fn write_header(out: &mut String, study: &str) {
    out.push_str("{\"v\":");
    json::write_u64(out, WIRE_VERSION);
    out.push_str(",\"study\":");
    json::write_str(out, study);
    out.push_str(",\"seq\":");
}

// --------------------------------------------------------- service frames

/// Encodes a [`CacheStats`] counter block as the wire's cache object (the
/// same six counters the `study_finished` event carries, plus the nonzero
/// per-class `l2_reject_*` breakdown; the derived `hit_rate`/`prune_rate`
/// fields are not re-encoded here — they are a display convenience of the
/// event stream, not protocol state).
fn cache_value(stats: &CacheStats) -> Value {
    let mut fields = vec![
        ("hits".to_owned(), Value::Uint(stats.hits)),
        ("misses".to_owned(), Value::Uint(stats.misses)),
        ("pruned".to_owned(), Value::Uint(stats.pruned)),
        ("l2_hits".to_owned(), Value::Uint(stats.l2_hits)),
        ("l2_misses".to_owned(), Value::Uint(stats.l2_misses)),
        ("l2_rejects".to_owned(), Value::Uint(stats.l2_rejects)),
    ];
    push_reject_classes(&mut fields, &stats.l2_reject_classes);
    Value::Object(fields)
}

/// Decodes a wire cache object (missing counters default to zero, exactly
/// like the `study_finished` decoder — older writers never observed them).
fn cache_from(value: &Value) -> Result<CacheStats, FrameError> {
    let obj = value
        .as_object()
        .ok_or_else(|| FrameError::corrupt("cache block is not a JSON object"))?;
    Ok(CacheStats {
        hits: uint_field_or(obj, "hits", 0)?,
        misses: uint_field_or(obj, "misses", 0)?,
        pruned: uint_field_or(obj, "pruned", 0)?,
        l2_hits: uint_field_or(obj, "l2_hits", 0)?,
        l2_misses: uint_field_or(obj, "l2_misses", 0)?,
        l2_rejects: uint_field_or(obj, "l2_rejects", 0)?,
        l2_reject_classes: reject_classes_from(obj)?,
    })
}

/// Checks the `v` header of a service frame: requests/responses exist only
/// since [`WIRE_SERVICE_MIN_VERSION`].
fn service_version(obj: &Obj) -> Result<u64, FrameError> {
    let version = uint_field(obj, "v")?;
    if !(WIRE_SERVICE_MIN_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(FrameError::Version { found: version });
    }
    Ok(version)
}

/// A client → server request line of the campaign-service protocol
/// (protocol version 3; see `docs/PROTOCOL.md` § Service frames).
///
/// Requests are distinguished from event frames by the `"request"` field:
/// `{"v":3,"request":"submit","priority":0,"config":{…}}`. One request per
/// line; the server answers every request with at least one
/// [`ResponseFrame`] line.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFrame {
    /// Submit a campaign config for execution. The server admits it into
    /// the priority queue (higher `priority` runs first; ties in
    /// submission order) and then streams the session's event frames on
    /// the same connection, terminated by [`ResponseFrame::Done`].
    Submit {
        /// Scheduling priority, `0..=255`; higher is sooner.
        priority: u8,
        /// The campaign config as a raw JSON object — exactly what a
        /// config file contains. The server runs it through the one
        /// validated parse path
        /// ([`CampaignConfig::from_json`](crate::config::CampaignConfig::from_json)),
        /// so a malformed config is rejected with
        /// [`ResponseFrame::Error`] naming the offending section.
        config: Value,
    },
    /// Ask for the service's session table and cumulative cache counters.
    Status,
    /// Cancel a queued or running session.
    Cancel {
        /// The session to cancel.
        session: u64,
    },
    /// Attach to a session's event channel: the server replays every frame
    /// the session has emitted so far, then follows live until the
    /// session's terminal [`ResponseFrame::Done`].
    Events {
        /// The session to attach to.
        session: u64,
    },
    /// Gracefully drain the service: stop admitting, finish every queued
    /// and running session, flush the store, then exit.
    Shutdown,
}

impl RequestFrame {
    /// Wire tag of the request (its `"request"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Submit { .. } => "submit",
            Self::Status => "status",
            Self::Cancel { .. } => "cancel",
            Self::Events { .. } => "events",
            Self::Shutdown => "shutdown",
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`FrameError::Version`] when `v` is outside
    /// [`WIRE_SERVICE_MIN_VERSION`]`..=`[`WIRE_VERSION`];
    /// [`FrameError::Corrupt`] for anything else wrong with the line.
    pub fn parse(line: &str) -> Result<Self, FrameError> {
        let obj = &parse_object(line, "request line")?;
        service_version(obj)?;
        match str_field(obj, "request")? {
            "submit" => Ok(Self::Submit {
                priority: u8::try_from(uint_field_or(obj, "priority", 0)?)
                    .map_err(|_| FrameError::corrupt("field `priority` out of range (0..=255)"))?,
                config: field(obj, "config")?.clone(),
            }),
            "status" => Ok(Self::Status),
            "cancel" => Ok(Self::Cancel {
                session: uint_field(obj, "session")?,
            }),
            "events" => Ok(Self::Events {
                session: uint_field(obj, "session")?,
            }),
            "shutdown" => Ok(Self::Shutdown),
            other => Err(FrameError::corrupt(format!(
                "unknown request tag `{other}`"
            ))),
        }
    }

    /// The request as one JSONL line (no trailing newline); parse →
    /// re-encode is the identity.
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("v".to_owned(), Value::Uint(WIRE_VERSION)),
            ("request".to_owned(), Value::Str(self.kind().to_owned())),
        ];
        match self {
            Self::Submit { priority, config } => {
                fields.push(("priority".to_owned(), Value::Uint(u64::from(*priority))));
                fields.push(("config".to_owned(), config.clone()));
            }
            Self::Cancel { session } | Self::Events { session } => {
                fields.push(("session".to_owned(), Value::Uint(*session)));
            }
            Self::Status | Self::Shutdown => {}
        }
        serde_json::to_string(&Value::Object(fields)).expect("request frames always serialize")
    }
}

/// One session row of a [`ResponseFrame::Status`] table.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionBrief {
    /// Session id.
    pub session: u64,
    /// Study (or campaign) name the session runs.
    pub study: String,
    /// Lifecycle state: `queued`, `running`, `finished`, `failed`, or
    /// `cancelled`.
    pub state: String,
    /// Admission priority the session was submitted with.
    pub priority: u8,
    /// Event frames the session has emitted so far.
    pub events: u64,
}

impl SessionBrief {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("session".to_owned(), Value::Uint(self.session)),
            ("study".to_owned(), Value::Str(self.study.clone())),
            ("state".to_owned(), Value::Str(self.state.clone())),
            ("priority".to_owned(), Value::Uint(u64::from(self.priority))),
            ("events".to_owned(), Value::Uint(self.events)),
        ])
    }

    fn decode(value: &Value) -> Result<Self, FrameError> {
        let obj = value
            .as_object()
            .ok_or_else(|| FrameError::corrupt("session row is not a JSON object"))?;
        Ok(Self {
            session: uint_field(obj, "session")?,
            study: string_field(obj, "study")?,
            state: string_field(obj, "state")?,
            priority: u8::try_from(uint_field(obj, "priority")?)
                .map_err(|_| FrameError::corrupt("field `priority` out of range (0..=255)"))?,
            events: uint_field(obj, "events")?,
        })
    }
}

/// A server → client response line of the campaign-service protocol
/// (protocol version 3; see `docs/PROTOCOL.md` § Service frames).
///
/// Responses are distinguished from event frames by the `"response"`
/// field. On a `submit` or `events` connection the response lines bracket
/// the raw event frames: `submitted`, then the session's wire frames
/// verbatim, then `done`.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseFrame {
    /// A `submit` was admitted; the session's event frames follow on this
    /// connection.
    Submitted {
        /// The session id assigned.
        session: u64,
        /// The campaign name the config resolved to.
        study: String,
        /// Sessions queued ahead of this one at admission time.
        queue_depth: u64,
    },
    /// Answer to a `status` request.
    Status {
        /// `true` once a shutdown was requested (no further admissions).
        draining: bool,
        /// Sessions currently queued (admitted, not yet running).
        queue_depth: u64,
        /// Admission-queue capacity (`queue_depth == capacity` rejects).
        capacity: u64,
        /// Every session the service still remembers, in submission order.
        sessions: Vec<SessionBrief>,
        /// Cumulative shared-cache counters since the service started.
        cache: CacheStats,
    },
    /// Answer to a `cancel` request.
    Cancelled {
        /// The cancelled session.
        session: u64,
        /// `true` when the session was still queued or running (the cancel
        /// did something); `false` when it had already reached a terminal
        /// state.
        active: bool,
    },
    /// Terminal line of a session's event channel.
    Done {
        /// The session that ended.
        session: u64,
        /// `finished`, `failed`, or `cancelled`.
        outcome: String,
        /// The failure message, for `failed` outcomes.
        error: Option<String>,
        /// The shared-cache counter delta accrued while this session ran —
        /// the tenant's own view of the warm cache (observational, like
        /// every cache counter on the wire).
        cache: Option<CacheStats>,
    },
    /// A `shutdown` was accepted; the service drains and exits.
    Draining,
    /// The request could not be served (malformed config, unknown session,
    /// queue full, draining service, …).
    Error {
        /// Human-readable reason, safe to print verbatim.
        reason: String,
    },
}

impl ResponseFrame {
    /// Wire tag of the response (its `"response"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Submitted { .. } => "submitted",
            Self::Status { .. } => "status",
            Self::Cancelled { .. } => "cancelled",
            Self::Done { .. } => "done",
            Self::Draining => "draining",
            Self::Error { .. } => "error",
        }
    }

    /// Classifies and parses one line of a session channel in one pass:
    /// `None` when the line is not a response (no top-level `"response"`
    /// field — an event frame, or no JSON object at all), otherwise
    /// [`Self::parse`]'s result. How a client splits a session channel
    /// into event frames and bracketing responses without parsing twice.
    pub fn parse_if_response(line: &str) -> Option<Result<Self, FrameError>> {
        let obj = parse_object(line, "response line").ok()?;
        find(&obj, "response").is_some().then(|| Self::decode(&obj))
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// [`FrameError::Version`] when `v` is outside
    /// [`WIRE_SERVICE_MIN_VERSION`]`..=`[`WIRE_VERSION`];
    /// [`FrameError::Corrupt`] for anything else wrong with the line.
    pub fn parse(line: &str) -> Result<Self, FrameError> {
        Self::decode(&parse_object(line, "response line")?)
    }

    fn decode(obj: &Obj) -> Result<Self, FrameError> {
        service_version(obj)?;
        match str_field(obj, "response")? {
            "submitted" => Ok(Self::Submitted {
                session: uint_field(obj, "session")?,
                study: string_field(obj, "study")?,
                queue_depth: uint_field(obj, "queue_depth")?,
            }),
            "status" => {
                let rows = field(obj, "sessions")?;
                let rows = rows.as_array().ok_or_else(|| {
                    FrameError::corrupt(format!(
                        "field `sessions` is not an array, got {}",
                        rows.kind()
                    ))
                })?;
                Ok(Self::Status {
                    draining: bool_field(obj, "draining")?,
                    queue_depth: uint_field(obj, "queue_depth")?,
                    capacity: uint_field(obj, "capacity")?,
                    sessions: rows
                        .iter()
                        .map(SessionBrief::decode)
                        .collect::<Result<_, _>>()?,
                    cache: cache_from(field(obj, "cache")?)?,
                })
            }
            "cancelled" => Ok(Self::Cancelled {
                session: uint_field(obj, "session")?,
                active: bool_field(obj, "active")?,
            }),
            "done" => Ok(Self::Done {
                session: uint_field(obj, "session")?,
                outcome: string_field(obj, "outcome")?,
                error: match find(obj, "error") {
                    None | Some(Value::Null) => None,
                    Some(Value::Str(error)) => Some(error.clone()),
                    Some(other) => {
                        return Err(FrameError::corrupt(format!(
                            "field `error` is neither null nor a string, got {}",
                            other.kind()
                        )))
                    }
                },
                cache: match find(obj, "cache") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(cache_from(v)?),
                },
            }),
            "draining" => Ok(Self::Draining),
            "error" => Ok(Self::Error {
                reason: string_field(obj, "reason")?,
            }),
            other => Err(FrameError::corrupt(format!(
                "unknown response tag `{other}`"
            ))),
        }
    }

    /// The response as one JSONL line (no trailing newline); parse →
    /// re-encode is the identity.
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("v".to_owned(), Value::Uint(WIRE_VERSION)),
            ("response".to_owned(), Value::Str(self.kind().to_owned())),
        ];
        match self {
            Self::Submitted {
                session,
                study,
                queue_depth,
            } => {
                fields.push(("session".to_owned(), Value::Uint(*session)));
                fields.push(("study".to_owned(), Value::Str(study.clone())));
                fields.push(("queue_depth".to_owned(), Value::Uint(*queue_depth)));
            }
            Self::Status {
                draining,
                queue_depth,
                capacity,
                sessions,
                cache,
            } => {
                fields.push(("draining".to_owned(), Value::Bool(*draining)));
                fields.push(("queue_depth".to_owned(), Value::Uint(*queue_depth)));
                fields.push(("capacity".to_owned(), Value::Uint(*capacity)));
                fields.push((
                    "sessions".to_owned(),
                    Value::Array(sessions.iter().map(SessionBrief::to_value).collect()),
                ));
                fields.push(("cache".to_owned(), cache_value(cache)));
            }
            Self::Cancelled { session, active } => {
                fields.push(("session".to_owned(), Value::Uint(*session)));
                fields.push(("active".to_owned(), Value::Bool(*active)));
            }
            Self::Done {
                session,
                outcome,
                error,
                cache,
            } => {
                fields.push(("session".to_owned(), Value::Uint(*session)));
                fields.push(("outcome".to_owned(), Value::Str(outcome.clone())));
                if let Some(error) = error {
                    fields.push(("error".to_owned(), Value::Str(error.clone())));
                }
                if let Some(cache) = cache {
                    fields.push(("cache".to_owned(), cache_value(cache)));
                }
            }
            Self::Draining => {}
            Self::Error { reason } => {
                fields.push(("reason".to_owned(), Value::Str(reason.clone())));
            }
        }
        serde_json::to_string(&Value::Object(fields)).expect("response frames always serialize")
    }
}

// --------------------------------------------------------- control frames

/// Checks the `v` header of a worker-supervision control frame: worker and
/// lease lines exist only since [`WIRE_WORKER_MIN_VERSION`].
fn worker_version(obj: &Obj) -> Result<u64, FrameError> {
    let version = uint_field(obj, "v")?;
    if !(WIRE_WORKER_MIN_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(FrameError::Version { found: version });
    }
    Ok(version)
}

/// A worker → coordinator control line of the lease protocol (protocol
/// version 4; see `docs/PROTOCOL.md` § Worker frames).
///
/// Worker lines are distinguished from event frames by the `"worker"`
/// field: `{"v":4,"worker":"heartbeat","seen":120,"sent":41}`. A
/// socket-connected worker interleaves them with the event frames of its
/// active leases on the same connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFrame {
    /// First line of every connection: the worker introduces itself and
    /// names the study it is computing, so the coordinator can bind the
    /// connection to a supervision slot before any lease is granted.
    Hello {
        /// Worker name (stable across reconnects of the same worker).
        name: String,
        /// Study the worker's config resolved to.
        study: String,
        /// `true` when this connection replaces an earlier one from the
        /// same worker (a reconnect after a dropped socket). The
        /// coordinator's merger absorbs any slots the worker re-sends.
        resume: bool,
    },
    /// Periodic liveness beacon, sent from a dedicated timer thread so a
    /// long-running characterization never reads as a stall — only a
    /// stopped *process* does.
    Heartbeat {
        /// Events the worker's engine has produced so far (the worker's
        /// own slot cursor). The coordinator does not read it; it stays on
        /// the wire until the next protocol version.
        seen: u64,
        /// Event frames actually emitted under leases so far. Unread by
        /// the coordinator, like `seen`.
        sent: u64,
    },
    /// Every slot of the named lease that this worker owns has been
    /// emitted on this connection.
    Drained {
        /// The lease id from the coordinator's [`LeaseFrame::Grant`].
        lease: u64,
    },
    /// The worker's engine has finished the whole study: `seen` is the
    /// total stream length, after which no lease can ever block.
    Done {
        /// Total events in the study's deterministic stream.
        seen: u64,
        /// Event frames emitted under leases over the connection lifetime.
        sent: u64,
    },
}

impl WorkerFrame {
    /// Wire tag of the frame (its `"worker"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Hello { .. } => "hello",
            Self::Heartbeat { .. } => "heartbeat",
            Self::Drained { .. } => "drained",
            Self::Done { .. } => "done",
        }
    }

    /// Parses one worker control line.
    ///
    /// # Errors
    ///
    /// [`FrameError::Version`] when `v` is outside
    /// [`WIRE_WORKER_MIN_VERSION`]`..=`[`WIRE_VERSION`];
    /// [`FrameError::Corrupt`] for anything else wrong with the line.
    pub fn parse(line: &str) -> Result<Self, FrameError> {
        Self::decode(&parse_object(line, "worker line")?)
    }

    fn decode(obj: &Obj) -> Result<Self, FrameError> {
        worker_version(obj)?;
        match str_field(obj, "worker")? {
            "hello" => Ok(Self::Hello {
                name: string_field(obj, "name")?,
                study: string_field(obj, "study")?,
                resume: bool_field(obj, "resume")?,
            }),
            "heartbeat" => Ok(Self::Heartbeat {
                seen: uint_field(obj, "seen")?,
                sent: uint_field(obj, "sent")?,
            }),
            "drained" => Ok(Self::Drained {
                lease: uint_field(obj, "lease")?,
            }),
            "done" => Ok(Self::Done {
                seen: uint_field(obj, "seen")?,
                sent: uint_field(obj, "sent")?,
            }),
            other => Err(FrameError::corrupt(format!("unknown worker tag `{other}`"))),
        }
    }

    /// The frame as one JSONL line (no trailing newline); parse →
    /// re-encode is the identity.
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("v".to_owned(), Value::Uint(WIRE_VERSION)),
            ("worker".to_owned(), Value::Str(self.kind().to_owned())),
        ];
        match self {
            Self::Hello {
                name,
                study,
                resume,
            } => {
                fields.push(("name".to_owned(), Value::Str(name.clone())));
                fields.push(("study".to_owned(), Value::Str(study.clone())));
                fields.push(("resume".to_owned(), Value::Bool(*resume)));
            }
            Self::Heartbeat { seen, sent } | Self::Done { seen, sent } => {
                fields.push(("seen".to_owned(), Value::Uint(*seen)));
                fields.push(("sent".to_owned(), Value::Uint(*sent)));
            }
            Self::Drained { lease } => {
                fields.push(("lease".to_owned(), Value::Uint(*lease)));
            }
        }
        serde_json::to_string(&Value::Object(fields)).expect("worker frames always serialize")
    }
}

/// One line of a leased worker's connection: a control line or an event
/// frame, told apart and decoded from one parse. A line is a control line
/// when it carries a `"worker"` key whose value is a string tag; any other
/// line is an event frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerLine {
    /// A `hello`/`heartbeat`/`drained`/`done` control line.
    Control(WorkerFrame),
    /// An event frame of a granted lease (boxed: it dwarfs a control
    /// line).
    Event(Box<WireFrame>),
}

impl WorkerLine {
    /// Parses one line from a worker connection.
    ///
    /// # Errors
    ///
    /// The [`FrameError`] of whichever parser the line's family selects.
    pub fn parse(line: &str) -> Result<Self, FrameError> {
        let obj = parse_object(line, "wire line")?;
        if obj
            .iter()
            .any(|(k, v)| k == "worker" && matches!(v, Value::Str(_)))
        {
            WorkerFrame::decode(&obj).map(Self::Control)
        } else {
            WireFrame::decode(&obj).map(|frame| Self::Event(Box::new(frame)))
        }
    }
}

/// A coordinator → worker control line of the lease protocol (protocol
/// version 4; see `docs/PROTOCOL.md` § Lease frames).
///
/// Lease lines are distinguished by the `"lease"` field:
/// `{"v":4,"lease":"grant","id":3,"start":64,"end":96}`. They are the only
/// frames a coordinator sends to a worker; the worker emits each granted
/// range's events in slot order and answers with
/// [`WorkerFrame::Drained`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseFrame {
    /// Grant the half-open slot range `start..end` to this worker. Ranges
    /// may overlap ranges granted to other workers (re-leases after a
    /// stall do, deliberately); the coordinator's merger dedups.
    Grant {
        /// Lease id, unique per campaign run.
        id: u64,
        /// First slot of the range.
        start: u64,
        /// One past the last slot of the range.
        end: u64,
    },
    /// Withdraw a previously granted lease: the worker stops emitting its
    /// slots as soon as it observes the line. Slots already in flight are
    /// harmless (the merger dedups them against the re-lease).
    Revoke {
        /// The lease to withdraw.
        id: u64,
    },
    /// The campaign is complete (or this worker is dismissed): finish any
    /// in-flight line and close the connection.
    Shutdown,
}

impl LeaseFrame {
    /// Wire tag of the frame (its `"lease"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Grant { .. } => "grant",
            Self::Revoke { .. } => "revoke",
            Self::Shutdown => "shutdown",
        }
    }

    /// Parses one lease control line.
    ///
    /// # Errors
    ///
    /// [`FrameError::Version`] when `v` is outside
    /// [`WIRE_WORKER_MIN_VERSION`]`..=`[`WIRE_VERSION`];
    /// [`FrameError::Corrupt`] for anything else wrong with the line
    /// (including a `grant` whose range is empty or inverted).
    pub fn parse(line: &str) -> Result<Self, FrameError> {
        let obj = &parse_object(line, "lease line")?;
        worker_version(obj)?;
        match str_field(obj, "lease")? {
            "grant" => {
                let start = uint_field(obj, "start")?;
                let end = uint_field(obj, "end")?;
                if end <= start {
                    return Err(FrameError::corrupt(format!(
                        "lease grant range {start}..{end} is empty"
                    )));
                }
                Ok(Self::Grant {
                    id: uint_field(obj, "id")?,
                    start,
                    end,
                })
            }
            "revoke" => Ok(Self::Revoke {
                id: uint_field(obj, "id")?,
            }),
            "shutdown" => Ok(Self::Shutdown),
            other => Err(FrameError::corrupt(format!("unknown lease tag `{other}`"))),
        }
    }

    /// The frame as one JSONL line (no trailing newline); parse →
    /// re-encode is the identity.
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("v".to_owned(), Value::Uint(WIRE_VERSION)),
            ("lease".to_owned(), Value::Str(self.kind().to_owned())),
        ];
        match self {
            Self::Grant { id, start, end } => {
                fields.push(("id".to_owned(), Value::Uint(*id)));
                fields.push(("start".to_owned(), Value::Uint(*start)));
                fields.push(("end".to_owned(), Value::Uint(*end)));
            }
            Self::Revoke { id } => {
                fields.push(("id".to_owned(), Value::Uint(*id)));
            }
            Self::Shutdown => {}
        }
        serde_json::to_string(&Value::Object(fields)).expect("lease frames always serialize")
    }
}

// ------------------------------------------------------------ record memo

/// The longest record text a [`RecordMemo`] remembers (16 KiB — twenty
/// times the largest array record the engine writes). Longer records are
/// decoded and encoded as usual, just not remembered.
const MEMO_RECORD_BYTES: usize = 16 * 1024;

/// The most record text one [`RecordMemo`] holds (64 MiB). Past it,
/// records are decoded and encoded without being remembered.
const MEMO_TOTAL_BYTES: usize = 64 * 1024 * 1024;

/// The records of one type a stream has carried, in arrival order, each
/// with its exact JSON text. A lookup tries only three candidates — the
/// last record matched, the one after it, and the first — which is every
/// hit the engine's array-major stream needs: an array repeats once per
/// traffic pattern, and the patterns repeat in order once per array.
#[derive(Debug)]
struct RecordMemo<T> {
    entries: Vec<(Box<str>, Arc<T>)>,
    last: usize,
    bytes: usize,
    budget: usize,
}

impl<T> Default for RecordMemo<T> {
    fn default() -> Self {
        Self::with_budget(MEMO_TOTAL_BYTES)
    }
}

impl<T> RecordMemo<T> {
    fn with_budget(budget: usize) -> Self {
        Self {
            entries: Vec::new(),
            last: 0,
            bytes: 0,
            budget,
        }
    }

    /// The first candidate entry `matches` accepts, which becomes the
    /// last match.
    fn find(&mut self, mut matches: impl FnMut(&str, &Arc<T>) -> bool) -> Option<usize> {
        let candidates = [self.last, self.last + 1, 0];
        let hit = candidates.iter().enumerate().find_map(|(i, &at)| {
            let fresh = !candidates[..i].contains(&at);
            let (text, record) = self.entries.get(at).filter(|_| fresh)?;
            matches(text, record).then_some(at)
        })?;
        self.last = hit;
        Some(hit)
    }

    /// Appends a record that missed, unless it or the memo is over its
    /// bound.
    fn remember(&mut self, text: &str, record: Arc<T>) {
        if text.len() <= MEMO_RECORD_BYTES && self.bytes + text.len() <= self.budget {
            self.bytes += text.len();
            self.last = self.entries.len();
            self.entries.push((text.into(), record));
        }
    }
}

impl<T: Deserialize> RecordMemo<T> {
    /// Decodes the reader's next value as a record. A value whose text
    /// equals a remembered record's is skipped in one comparison and
    /// shares that record; any other is decoded and, when it is an object,
    /// remembered. Exact because a remembered text is a whole object this
    /// decoder already accepted (see [`json::Reader::skip_known`]).
    fn decode(&mut self, r: &mut json::Reader<'_>) -> Option<Arc<T>> {
        if let Some(at) = self.find(|text, _| r.skip_known(text)) {
            return Some(Arc::clone(&self.entries[at].1));
        }
        let (record, text) = r.captured(T::from_json).ok()?;
        let record = Arc::new(record);
        if text.starts_with('{') {
            self.remember(text, Arc::clone(&record));
        }
        Some(record)
    }
}

impl<T: Serialize> RecordMemo<T> {
    /// Appends `record`'s JSON text: copied when this very allocation was
    /// written before (the memo holds a clone, so the address cannot be
    /// reused by another record meanwhile), formatted otherwise. Never
    /// keyed by value — `-0.0 == 0.0`, but the two print differently.
    fn write(&mut self, record: &Arc<T>, out: &mut String) {
        if let Some(at) = self.find(|_, held| Arc::ptr_eq(held, record)) {
            out.push_str(&self.entries[at].0);
            return;
        }
        let start = out.len();
        record.write_json(out);
        self.remember(&out[start..], Arc::clone(record));
    }
}

/// An evaluation's `traffic` key as the writer lays it out, after the
/// `array` record.
const TRAFFIC_KEY: &str = ",\"traffic\":";

/// The keys of an evaluation's eight tail fields, in the writer's order and
/// text: each with the `,` before it and the `:` after it.
const TAIL_KEYS: [&str; 8] = [
    ",\"array_reads_per_sec\":",
    ",\"array_writes_per_sec\":",
    ",\"read_power\":",
    ",\"write_power\":",
    ",\"leakage_power\":",
    ",\"utilization\":",
    ",\"aggregate_latency\":",
    ",\"lifetime\":",
];

/// The event encoder [`WireSink`] and the JSONL sink share: it writes
/// exactly [`StudyEvent::write_fields`]'s bytes, but formats an
/// evaluation's array and traffic records once and copies their text
/// while the same [`Arc`] repeats.
#[derive(Debug, Default)]
pub struct EventEncoder {
    arrays: RecordMemo<ArrayCharacterization>,
    traffic: RecordMemo<TrafficPattern>,
}

impl EventEncoder {
    /// A fresh encoder that remembers nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `event`'s JSON object without its braces, byte-identical to
    /// [`StudyEvent::write_fields`].
    pub fn write_fields(&mut self, event: &StudyEvent<'_>, out: &mut String) {
        event.write_fields_with(out, |out, evaluation| {
            self.write_evaluation(evaluation, out);
        });
    }

    /// The derived `Evaluation::write_json`, field for field (the
    /// destructuring is exhaustive, so a new field cannot be missed).
    fn write_evaluation(&mut self, evaluation: &Evaluation, out: &mut String) {
        let Evaluation {
            array,
            traffic,
            array_reads_per_sec,
            array_writes_per_sec,
            read_power,
            write_power,
            leakage_power,
            utilization,
            aggregate_latency,
            lifetime,
        } = evaluation;
        out.push_str("{\"array\":");
        self.arrays.write(array, out);
        out.push_str(TRAFFIC_KEY);
        self.traffic.write(traffic, out);
        let tail: [&dyn Serialize; 8] = [
            array_reads_per_sec,
            array_writes_per_sec,
            read_power,
            write_power,
            leakage_power,
            utilization,
            aggregate_latency,
            lifetime,
        ];
        for (key, value) in TAIL_KEYS.into_iter().zip(tail) {
            out.push_str(key);
            value.write_json(out);
        }
        out.push('}');
    }
}

/// The stream-scoped strict frame decoder, the production decoder of
/// every reader: the same verdicts as the stateless parsers
/// ([`WireFrame::parse`], [`WorkerLine::parse`]), and each array or
/// traffic record whose text repeats an earlier record's decoded only
/// once.
///
/// Lines in exactly the layout [`WireSink`] writes — header, `event`,
/// then the payload fields in order, compact and with no escaped key —
/// of the two per-slot kinds that carry records (`array_characterized`,
/// `evaluation_produced`) decode in one pass: the header is skipped in one
/// comparison when its text repeats the last accepted header's, every key
/// is matched as the literal text the writer prints, the records go
/// through the record memos, and the numbers are read by their typed
/// decoders. Those are nearly every line of a study. Every other line
/// (control, service and non-record event lines) and every line that
/// deviates anywhere — whitespace inside a matched literal, an escaped
/// key, another key order, a failed value — is decoded through the
/// [`Value`] tree, which is also the reference the one-pass path is
/// proptested against.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    header: Option<HeaderMemo>,
    arrays: RecordMemo<ArrayCharacterization>,
    traffic: RecordMemo<TrafficPattern>,
}

/// The last header a [`FrameDecoder`] accepted: its text from `{` through
/// `"seq":`, and the version and study that text decodes to.
#[derive(Debug)]
struct HeaderMemo {
    text: Box<str>,
    version: u64,
    study: String,
}

/// The `event` entry and the `index` key of an `evaluation_produced` line.
const EVALUATION_EVENT: &str = ",\"event\":\"evaluation_produced\",\"index\":";

/// The `event` entry and the `index` key of an `array_characterized` line.
const ARRAY_EVENT: &str = ",\"event\":\"array_characterized\",\"index\":";

/// The value after `key`, a key literal of the writer's layout (see
/// [`json::Reader::skip_known`]), read by the typed decoder that accepts
/// exactly what the tree path's field rule accepts; `None` when the input
/// does not continue with `key` or the value fails.
fn keyed<T: Deserialize>(r: &mut json::Reader<'_>, key: &str) -> Option<T> {
    r.skip_known(key).then(|| T::from_json(r).ok()).flatten()
}

/// `{"v":<version>,"study":<study>,"seq":` in the writer's layout, with a
/// version this decoder accepts.
fn read_header(r: &mut json::Reader<'_>) -> Option<(u64, String)> {
    if !r.skip_known_open("{\"v\":") {
        return None;
    }
    let version = u64::from_json(r).ok()?;
    if !(WIRE_MIN_VERSION..=WIRE_VERSION).contains(&version) {
        return None;
    }
    let study = keyed(r, ",\"study\":")?;
    r.skip_known(",\"seq\":").then_some((version, study))
}

impl FrameDecoder {
    /// A fresh decoder that remembers nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes one wire line; the same result as [`WireFrame::parse`].
    ///
    /// # Errors
    ///
    /// As [`WireFrame::parse`].
    pub fn frame(&mut self, line: &str) -> Result<WireFrame, FrameError> {
        match self.record_frame(line) {
            Some(frame) => Ok(frame),
            None => WireFrame::parse(line),
        }
    }

    /// Decodes one line of a worker connection; the same result as
    /// [`WorkerLine::parse`].
    ///
    /// # Errors
    ///
    /// As [`WorkerLine::parse`].
    pub fn worker_line(&mut self, line: &str) -> Result<WorkerLine, FrameError> {
        match self.record_frame(line) {
            Some(frame) => Ok(WorkerLine::Event(Box::new(frame))),
            None => WorkerLine::parse(line),
        }
    }

    /// Decodes one line of a served session channel: a response when the
    /// line has a top-level `response` key, an event frame otherwise.
    fn served_line(&mut self, line: &str) -> Result<ServedLine, FrameError> {
        if let Some(frame) = self.record_frame(line) {
            return Ok(ServedLine::Event(Box::new(frame)));
        }
        let obj = parse_object(line, "wire line")?;
        if find(&obj, "response").is_some() {
            Ok(ServedLine::Response(ResponseFrame::decode(&obj)))
        } else {
            WireFrame::decode(&obj).map(|frame| ServedLine::Event(Box::new(frame)))
        }
    }

    /// Record text the decoder currently remembers, in bytes — at most
    /// 64 MiB per record type, however hostile the stream.
    pub fn remembered_bytes(&self) -> usize {
        self.arrays.bytes + self.traffic.bytes
    }

    /// The one-pass decode of a record-carrying frame in [`WireSink`]'s
    /// layout; `None` hands the line to the stateless parser. Accepting
    /// only that layout (no duplicate, unknown or reordered key, so no
    /// `worker` or `response` key either) is what makes the result the
    /// stateless parser's: every value is read by a typed decoder that
    /// accepts exactly what the tree's field rule accepts, or is a
    /// remembered header's or record's exact text.
    fn record_frame(&mut self, line: &str) -> Option<WireFrame> {
        let r = &mut json::Reader::new(line);
        let (version, study) = self.header(r)?;
        let seq = u64::from_json(r).ok()?;
        let event = if r.skip_known(EVALUATION_EVENT) {
            let index = usize::from_json(r).ok()?;
            let evaluation = self.evaluation(r)?;
            OwnedStudyEvent::EvaluationProduced { index, evaluation }
        } else if r.skip_known(ARRAY_EVENT) {
            let index = usize::from_json(r).ok()?;
            if !r.skip_known(",\"array\":") {
                return None;
            }
            let array = ArrayCharacterization::clone(&*self.arrays.decode(r)?);
            OwnedStudyEvent::ArrayCharacterized { index, array }
        } else {
            return None;
        };
        (r.object_next().ok()?.is_none() && r.finish().is_ok()).then_some(WireFrame {
            version,
            study,
            seq,
            event,
        })
    }

    /// The header through `"seq":` and its version and study: skipped in
    /// one comparison when its text is the last accepted header's, read
    /// (and then remembered) otherwise. Exact because a remembered text is
    /// a header prefix this decoder already accepted (see
    /// [`json::Reader::skip_known_open`]).
    fn header(&mut self, r: &mut json::Reader<'_>) -> Option<(u64, String)> {
        if let Some(memo) = &self.header {
            if r.skip_known_open(&memo.text) {
                return Some((memo.version, memo.study.clone()));
            }
        }
        let (header, text) = r.captured(|r| Ok(read_header(r))).ok()?;
        let (version, study) = header?;
        self.header = Some(HeaderMemo {
            text: text.into(),
            version,
            study: study.clone(),
        });
        Some((version, study))
    }

    /// The derived `Evaluation::from_json` for the layout it is written
    /// in, with the array and traffic records read through the memos.
    fn evaluation(&mut self, r: &mut json::Reader<'_>) -> Option<Evaluation> {
        if !r.skip_known_open(",\"evaluation\":{\"array\":") {
            return None;
        }
        let array = self.arrays.decode(r)?;
        if !r.skip_known(TRAFFIC_KEY) {
            return None;
        }
        let traffic = self.traffic.decode(r)?;
        let [reads, writes, read, write, leakage, utilization, latency, lifetime] = TAIL_KEYS;
        let evaluation = Evaluation {
            array,
            traffic,
            array_reads_per_sec: keyed(r, reads)?,
            array_writes_per_sec: keyed(r, writes)?,
            read_power: keyed(r, read)?,
            write_power: keyed(r, write)?,
            leakage_power: keyed(r, leakage)?,
            utilization: keyed(r, utilization)?,
            aggregate_latency: keyed(r, latency)?,
            lifetime: keyed(r, lifetime)?,
        };
        r.object_next().ok()?.is_none().then_some(evaluation)
    }
}

/// One decoded line of a served session channel.
enum ServedLine {
    Response(Result<ResponseFrame, FrameError>),
    Event(Box<WireFrame>),
}

// ------------------------------------------------------------------- sink

/// Encodes a study's events as wire lines: the header for the current
/// study and the next `seq`, then the event's fields through an
/// [`EventEncoder`] — no [`Value`] tree. The study name is captured from
/// the `study_started` event, which the engine guarantees comes first.
///
/// [`WireSink`] writes its lines to a byte stream; the service's session
/// log and a leased worker's slot buffer keep each one as a string. A
/// line's bytes depend only on the header, its `seq` and the event — not
/// on what the encoder wrote before — so [`Self::encode_at`] may encode
/// a stream's lines in any order.
#[derive(Debug)]
pub struct LineEncoder {
    /// `{"v":…,"study":…,"seq":` for the current study.
    header: String,
    /// The last line, newline included (reused across lines).
    line: String,
    encoder: EventEncoder,
    /// Lines encoded so far, which is also the next line's `seq`.
    seq: u64,
}

impl Default for LineEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl LineEncoder {
    /// An encoder whose first line carries `seq` 0.
    pub fn new() -> Self {
        let mut header = String::new();
        write_header(&mut header, "");
        Self {
            header,
            line: String::new(),
            encoder: EventEncoder::new(),
            seq: 0,
        }
    }

    /// Lines encoded so far.
    pub fn frames_written(&self) -> u64 {
        self.seq
    }

    /// A fresh encoder — nothing remembered, first `seq` 0 — whose lines
    /// carry this encoder's current study header.
    pub fn fork(&self) -> Self {
        Self {
            header: self.header.clone(),
            ..Self::new()
        }
    }

    /// Encodes `event` as the next line and returns it, without a newline.
    pub fn encode(&mut self, event: &StudyEvent<'_>) -> &str {
        let line = self.encode_terminated(event);
        &line[..line.len() - 1]
    }

    /// Encodes `event` as the line for slot `seq` and returns it, without
    /// a newline. The running count ([`Self::frames_written`]) is left
    /// alone.
    pub fn encode_at(&mut self, seq: u64, event: &StudyEvent<'_>) -> &str {
        let line = self.write_line(seq, event);
        &line[..line.len() - 1]
    }

    /// [`Self::encode`]'s line with its newline.
    fn encode_terminated(&mut self, event: &StudyEvent<'_>) -> &str {
        self.seq += 1;
        self.write_line(self.seq - 1, event)
    }

    /// Formats `event` as the line for slot `seq`, newline included.
    fn write_line(&mut self, seq: u64, event: &StudyEvent<'_>) -> &str {
        if let StudyEvent::StudyStarted { name, .. } = event {
            self.header.clear();
            write_header(&mut self.header, name);
        }
        let line = &mut self.line;
        line.clear();
        line.push_str(&self.header);
        json::write_u64(line, seq);
        line.push(',');
        self.encoder.write_fields(event, line);
        line.push_str("}\n");
        line
    }
}

/// A [`ResultSink`] that serializes every event as a versioned wire line.
///
/// Each line from the sink's [`LineEncoder`] (so `seq` is the global slot
/// coordinate) is handed to the writer in a single `write_all`, then
/// flushed: a downstream reader sees events as they happen, and a killed
/// writer leaves a clean prefix of the stream rather than a torn line.
#[derive(Debug)]
pub struct WireSink<W: Write> {
    out: W,
    lines: LineEncoder,
}

impl<W: Write> WireSink<W> {
    /// A sink writing every event to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            lines: LineEncoder::new(),
        }
    }

    /// Lines encoded so far (every one written, unless a write failed).
    pub fn frames_written(&self) -> u64 {
        self.lines.frames_written()
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> ResultSink for WireSink<W> {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        let line = self.lines.encode_terminated(event);
        self.out.write_all(line.as_bytes())?;
        self.out.flush()
    }
}

// ----------------------------------------------------------------- merger

/// Merges out-of-order slot arrivals back into a strict `0, 1, 2, …`
/// delivery order, deduplicating repeats.
///
/// Generic over the payload so the coordinator can carry `(WireFrame,
/// raw line)` pairs and tests can merge plain integers. Duplicates are
/// *dropped, not rejected*: a re-leased range may overlap slots another
/// worker already delivered, and the merger absorbing them is exactly what
/// makes resume idempotent. (The strict single-stream readers — [`replay`]
/// — do reject duplicates; a captured file has no business repeating
/// itself.)
#[derive(Debug)]
pub struct SlotMerger<T> {
    next: u64,
    pending: BTreeMap<u64, T>,
    duplicates: u64,
}

impl<T> Default for SlotMerger<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlotMerger<T> {
    /// A merger expecting slot 0 first.
    pub fn new() -> Self {
        Self {
            next: 0,
            pending: BTreeMap::new(),
            duplicates: 0,
        }
    }

    /// Offers one arrival. Delivers it (and any now-contiguous buffered
    /// successors) to `deliver` in slot order; buffers it if it is early;
    /// drops it if it was already delivered or buffered.
    ///
    /// # Errors
    ///
    /// Propagates the first `deliver` error; the merger's cursor stays
    /// consistent (the failing slot counts as delivered).
    pub fn offer<E>(
        &mut self,
        seq: u64,
        item: T,
        deliver: &mut dyn FnMut(u64, T) -> Result<(), E>,
    ) -> Result<(), E> {
        if seq < self.next || self.pending.contains_key(&seq) {
            self.duplicates += 1;
            return Ok(());
        }
        if seq != self.next {
            self.pending.insert(seq, item);
            return Ok(());
        }
        self.next += 1;
        deliver(seq, item)?;
        while let Some(item) = self.pending.remove(&self.next) {
            let seq = self.next;
            self.next += 1;
            deliver(seq, item)?;
        }
        Ok(())
    }

    /// The next slot the merger will deliver.
    pub fn next_expected(&self) -> u64 {
        self.next
    }

    /// Early arrivals currently buffered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Duplicate arrivals dropped so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

// ----------------------------------------------------------------- replay

/// A successfully replayed capture.
#[derive(Debug)]
pub struct Replay {
    /// The study name the stream carried.
    pub study: String,
    /// Frames consumed.
    pub frames: u64,
    /// The rebuilt result — byte-identical to the in-process run that
    /// produced the capture.
    pub result: StudyResult,
    /// The fault-campaign outcome, for captures terminated by
    /// `fault_study_finished`; `None` for plain studies.
    pub fault: Option<FaultOutcome>,
}

/// What one line of a served session channel was (see
/// [`StreamReplayer::push_served_line`]).
#[derive(Debug)]
pub enum Served {
    /// An event frame, applied (or a blank line).
    Event {
        /// `true` when it was the stream's terminal frame.
        terminal: bool,
    },
    /// A service response, decoded — or why it is malformed.
    Response(Result<ResponseFrame, FrameError>),
}

/// The one strict consumer of a wire stream: the line-at-a-time core of
/// [`replay_into`], of clients that receive frames over a socket rather
/// than from a finished capture file, and of the coordinator's merge of
/// leased worker ranges.
///
/// Feed every line through [`push_line`](Self::push_line) (blank lines are
/// ignored; the return value reports whether the stream just terminated),
/// or every already decoded frame through [`push_frame`](Self::push_frame),
/// then call [`finish`](Self::finish). The same strictness rules apply
/// either way: one study per stream, contiguous slot order from zero,
/// supported versions only, nothing after the terminal frame. Each event
/// is forwarded to the caller's sink and recorded in a
/// [`StudyResultBuilder`]; a `target_winner_selected` frame is re-linked to
/// the full evaluation that streamed earlier, so the sink observes the
/// exact event sequence the original engine emitted.
pub struct StreamReplayer {
    decoder: FrameDecoder,
    builder: StudyResultBuilder,
    study: Option<String>,
    frames: u64,
    lineno: u64,
    finished: bool,
}

impl Default for StreamReplayer {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamReplayer {
    /// A replayer that has consumed nothing.
    pub fn new() -> Self {
        Self {
            decoder: FrameDecoder::new(),
            builder: StudyResultBuilder::default(),
            study: None,
            frames: 0,
            lineno: 0,
            finished: false,
        }
    }

    /// Frames applied so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// `true` once the terminal (`study_finished` /
    /// `fault_study_finished`) frame has been applied.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Applies one stream line, forwarding the decoded event (winners
    /// re-linked) into `sink`. Returns `Ok(true)` when this line was the
    /// stream's terminal frame.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed lines, version mismatches,
    /// out-of-order/duplicate slots, mid-stream study changes, frames
    /// after the terminal event, or sink failures (as [`WireError::Io`]).
    pub fn push_line(&mut self, line: &str, sink: &mut dyn ResultSink) -> Result<bool, WireError> {
        self.lineno += 1;
        if line.trim().is_empty() {
            return Ok(false);
        }
        let frame = self.decoder.frame(line);
        self.apply(frame, sink)
    }

    /// Applies one decoded frame — a slot of a stream merged from several
    /// sources, say — under the same rules as [`push_line`](Self::push_line)
    /// (errors name the frame's position in the stream as its line).
    /// Returns `Ok(true)` when it was the stream's terminal frame.
    ///
    /// # Errors
    ///
    /// As [`push_line`](Self::push_line), except that the frame is
    /// already decoded.
    pub fn push_frame(
        &mut self,
        frame: WireFrame,
        sink: &mut dyn ResultSink,
    ) -> Result<bool, WireError> {
        self.lineno += 1;
        self.apply(Ok(frame), sink)
    }

    /// Applies one line of a served session channel (a `submit` or
    /// `events` connection), which carries the session's event frames
    /// bracketed by service responses: a line with a top-level `response`
    /// key is decoded and handed back, any other line is applied like
    /// [`push_line`](Self::push_line) would. One pass over the line does
    /// both. Response lines do not count towards the line numbers in
    /// errors.
    ///
    /// # Errors
    ///
    /// As [`push_line`](Self::push_line), for event lines.
    pub fn push_served_line(
        &mut self,
        line: &str,
        sink: &mut dyn ResultSink,
    ) -> Result<Served, WireError> {
        if line.trim().is_empty() {
            return self
                .push_line(line, sink)
                .map(|terminal| Served::Event { terminal });
        }
        let frame = match self.decoder.served_line(line) {
            Ok(ServedLine::Response(response)) => return Ok(Served::Response(response)),
            Ok(ServedLine::Event(frame)) => Ok(*frame),
            Err(e) => Err(e),
        };
        self.lineno += 1;
        let terminal = self.apply(frame, sink)?;
        Ok(Served::Event { terminal })
    }

    /// Applies one decoded event line under the strict stream rules.
    fn apply(
        &mut self,
        frame: Result<WireFrame, FrameError>,
        sink: &mut dyn ResultSink,
    ) -> Result<bool, WireError> {
        let lineno = self.lineno;
        if self.finished() {
            return Err(WireError::Corrupt {
                line: lineno,
                reason: "frames after study_finished".to_owned(),
            });
        }
        let frame = frame.map_err(|e| e.at(lineno))?;
        match &self.study {
            None => self.study = Some(frame.study.clone()),
            Some(expected) if *expected != frame.study => {
                return Err(WireError::StudyMismatch {
                    line: lineno,
                    expected: expected.clone(),
                    found: frame.study,
                })
            }
            Some(_) => {}
        }
        match frame.seq.cmp(&self.frames) {
            std::cmp::Ordering::Less => {
                return Err(WireError::DuplicateSlot {
                    line: lineno,
                    seq: frame.seq,
                })
            }
            std::cmp::Ordering::Greater => {
                return Err(WireError::OutOfOrder {
                    line: lineno,
                    expected: self.frames,
                    found: frame.seq,
                })
            }
            std::cmp::Ordering::Equal => {}
        }
        let terminal = matches!(
            &frame.event,
            OwnedStudyEvent::StudyFinished { .. } | OwnedStudyEvent::FaultStudyFinished { .. }
        );
        match frame.event.as_event() {
            Some(event) => {
                sink.on_event(&event)?;
                self.builder.on_event(&event)?;
            }
            None => {
                let OwnedStudyEvent::TargetWinnerSelected {
                    target,
                    cell,
                    traffic,
                    total_power_w,
                } = &frame.event
                else {
                    unreachable!("only winner events have no borrowed view")
                };
                // The winner is, by the engine's selection rule, an earlier
                // evaluation in stream order; find it and re-emit the full
                // event. Power compares bit-exact because the wire encoding
                // round-trips floats exactly.
                let winner = self
                    .builder
                    .evaluations()
                    .iter()
                    .find(|e| {
                        e.array.target == *target
                            && e.array.cell_name == *cell
                            && e.traffic.name == *traffic
                            && e.total_power().value().to_bits() == total_power_w.to_bits()
                    })
                    .ok_or_else(|| WireError::UnknownWinner {
                        line: lineno,
                        cell: cell.clone(),
                    })?;
                sink.on_event(&StudyEvent::TargetWinnerSelected {
                    target: *target,
                    winner,
                })?;
            }
        }
        self.frames += 1;
        if terminal {
            self.finished = true;
        }
        Ok(terminal)
    }

    /// The completed [`Replay`].
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the stream ended before its terminal
    /// frame.
    pub fn finish(self) -> Result<Replay, WireError> {
        if !self.finished() {
            return Err(WireError::Truncated {
                frames: self.frames,
            });
        }
        let (result, fault) = self
            .builder
            .finish_parts()
            .expect("finished stream builds a result");
        Ok(Replay {
            study: self.study.expect("finished stream has frames"),
            frames: self.frames,
            result,
            fault,
        })
    }
}

/// Strictly replays a captured wire stream, rebuilding the
/// [`StudyResult`] via [`StudyResultBuilder`].
///
/// # Errors
///
/// [`WireError`] on I/O failures, malformed lines, version mismatches,
/// out-of-order/duplicate slots, mid-stream study changes, or truncation.
pub fn replay<R: BufRead>(reader: R) -> Result<Replay, WireError> {
    replay_into(reader, &mut crate::stream::NullSink)
}

/// [`replay`], additionally streaming every event (winners re-linked) into
/// `sink` — so a capture can drive the same CSV/JSONL/summary sinks a live
/// run does.
///
/// # Errors
///
/// Same conditions as [`replay`], plus sink failures (as
/// [`WireError::Io`]).
pub fn replay_into<R: BufRead>(
    mut reader: R,
    sink: &mut dyn ResultSink,
) -> Result<Replay, WireError> {
    let mut replayer = StreamReplayer::new();
    let mut line = String::new();
    while crate::transport::read_frame_line(&mut reader, &mut line)? {
        replayer.push_line(&line, sink)?;
    }
    replayer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merger_reorders_and_dedups() {
        let mut merger = SlotMerger::new();
        let mut seen = Vec::new();
        let mut deliver = |seq: u64, item: &'static str| -> Result<(), std::io::Error> {
            seen.push((seq, item));
            Ok(())
        };
        merger.offer(2, "c", &mut deliver).unwrap();
        merger.offer(0, "a", &mut deliver).unwrap();
        merger.offer(2, "c-again", &mut deliver).unwrap();
        merger.offer(1, "b", &mut deliver).unwrap();
        merger.offer(0, "a-again", &mut deliver).unwrap();
        assert_eq!(seen, vec![(0, "a"), (1, "b"), (2, "c")]);
        assert_eq!(merger.next_expected(), 3);
        assert_eq!(merger.pending(), 0);
        assert_eq!(merger.duplicates(), 2);
    }

    #[test]
    fn frame_version_is_enforced() {
        let line = r#"{"v":5,"study":"s","seq":0,"event":"study_started","name":"s","cells":1,"jobs":1,"targets":1,"traffic":1}"#;
        match WireFrame::parse(line) {
            Err(FrameError::Version { found }) => assert_eq!(found, 5),
            other => panic!("expected version error, got {other:?}"),
        }
        let zero = r#"{"v":0,"study":"s","seq":0,"event":"study_started","name":"s","cells":1,"jobs":1,"targets":1,"traffic":1}"#;
        assert!(matches!(
            WireFrame::parse(zero),
            Err(FrameError::Version { found: 0 })
        ));
        // Version-1 lines (pre-fault captures) still decode.
        let v1 = r#"{"v":1,"study":"s","seq":0,"event":"study_started","name":"s","cells":1,"jobs":1,"targets":1,"traffic":1}"#;
        let frame = WireFrame::parse(v1).unwrap();
        assert_eq!(frame.version, 1);
        let missing = r#"{"study":"s","seq":0,"event":"study_started"}"#;
        assert!(matches!(
            WireFrame::parse(missing),
            Err(FrameError::Corrupt { .. })
        ));
    }

    #[test]
    fn unknown_event_tags_are_rejected() {
        let line = r#"{"v":1,"study":"s","seq":0,"event":"quantum_flux"}"#;
        match WireFrame::parse(line) {
            Err(FrameError::Corrupt { reason }) => assert!(reason.contains("quantum_flux")),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn started_frame_roundtrips_through_text() {
        let frame = WireFrame {
            version: WIRE_VERSION,
            study: "demo".into(),
            seq: 0,
            event: OwnedStudyEvent::StudyStarted {
                name: "demo".into(),
                cells: 2,
                jobs: 4,
                targets: 1,
                traffic: 3,
            },
        };
        let line = frame.to_line();
        assert!(line.starts_with(r#"{"v":4,"study":"demo","seq":0,"event":"study_started""#));
        let back = WireFrame::parse(&line).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.to_line(), line, "parse -> encode must be identity");
    }

    #[test]
    fn fault_frames_roundtrip_through_text() {
        use nvmx_units::BitsPerCell;
        let trial = WireFrame {
            version: WIRE_VERSION,
            study: "faults".into(),
            seq: 11,
            event: OwnedStudyEvent::FaultTrialProduced {
                index: 5,
                trial: FaultTrial {
                    model_index: 2,
                    trial: 1,
                    cell: "RRAM-opt".into(),
                    bits_per_cell: BitsPerCell::Mlc2,
                    temperature_c: 85.0,
                    bit_error_rate: 1.25e-3,
                    injection_seed: 0xDEAD_BEEF_0BAD_F00D,
                    bits_total: 65536,
                    bits_flipped: 82,
                    accuracy: 0.1 + 0.2, // deliberately non-representable
                },
            },
        };
        let line = trial.to_line();
        assert!(line.contains(r#""event":"fault_trial_produced""#));
        let seed_field = format!(r#""injection_seed":{}"#, 0xDEAD_BEEF_0BAD_F00D_u64);
        assert!(line.contains(&seed_field));
        let back = WireFrame::parse(&line).unwrap();
        assert_eq!(back, trial);
        assert_eq!(back.to_line(), line);

        let verdict = WireFrame {
            version: WIRE_VERSION,
            study: "faults".into(),
            seq: 12,
            event: OwnedStudyEvent::AccuracyDegraded {
                index: 2,
                report: FaultModelReport {
                    model_index: 2,
                    cell: "RRAM-opt".into(),
                    bits_per_cell: BitsPerCell::Mlc2,
                    temperature_c: 85.0,
                    report: AccuracyReport {
                        baseline: 0.93,
                        mean: 0.88,
                        worst: 0.84,
                        bit_error_rate: 1.25e-3,
                        trials: 3,
                    },
                    acceptable: false,
                },
            },
        };
        let line = verdict.to_line();
        let back = WireFrame::parse(&line).unwrap();
        assert_eq!(back, verdict);
        assert_eq!(back.to_line(), line);

        let finished = WireFrame {
            version: WIRE_VERSION,
            study: "faults".into(),
            seq: 13,
            event: OwnedStudyEvent::FaultStudyFinished {
                name: "faults".into(),
                stats: FaultStudyStats {
                    base: StudyStats {
                        jobs: 4,
                        targets: 1,
                        traffic_patterns: 1,
                        arrays: 4,
                        evaluations: 4,
                        skipped: 0,
                        cache: None,
                    },
                    models: 6,
                    trials: 18,
                    degraded: 2,
                },
            },
        };
        let line = finished.to_line();
        assert!(line.contains(r#""event":"fault_study_finished""#));
        let back = WireFrame::parse(&line).unwrap();
        assert_eq!(back, finished);
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn winner_frame_roundtrips_through_text() {
        let frame = WireFrame {
            version: WIRE_VERSION,
            study: "demo".into(),
            seq: 9,
            event: OwnedStudyEvent::TargetWinnerSelected {
                target: OptimizationTarget::ReadEdp,
                cell: "STT-opt".into(),
                traffic: "t".into(),
                total_power_w: 0.1 + 0.2, // deliberately non-representable
            },
        };
        let line = frame.to_line();
        let back = WireFrame::parse(&line).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn replay_rejects_empty_and_truncated_streams() {
        let err = replay(std::io::Cursor::new("")).unwrap_err();
        assert!(matches!(err, WireError::Truncated { frames: 0 }));
        let one_line = r#"{"v":1,"study":"s","seq":0,"event":"study_started","name":"s","cells":1,"jobs":1,"targets":1,"traffic":1}"#;
        let err = replay(std::io::Cursor::new(format!("{one_line}\n"))).unwrap_err();
        assert!(matches!(err, WireError::Truncated { frames: 1 }));
    }

    // ------------------------------------------------------ service frames

    #[test]
    fn request_frames_roundtrip_through_text() {
        let requests = vec![
            RequestFrame::Submit {
                priority: 7,
                config: Value::Object(vec![(
                    "name".to_owned(),
                    Value::Str("quickstart".to_owned()),
                )]),
            },
            RequestFrame::Status,
            RequestFrame::Cancel { session: 12 },
            RequestFrame::Events { session: 3 },
            RequestFrame::Shutdown,
        ];
        for request in requests {
            let line = request.to_line();
            assert!(line.starts_with(&format!(
                r#"{{"v":{WIRE_VERSION},"request":"{}""#,
                request.kind()
            )));
            let back = RequestFrame::parse(&line).unwrap();
            assert_eq!(back, request);
            assert_eq!(back.to_line(), line, "parse -> encode must be identity");
        }
    }

    #[test]
    fn response_frames_roundtrip_through_text() {
        let cache = CacheStats {
            hits: 10,
            misses: 2,
            pruned: 5,
            l2_hits: 1,
            l2_misses: 1,
            l2_rejects: 0,
            l2_reject_classes: L2RejectClasses::default(),
        };
        let responses = vec![
            ResponseFrame::Submitted {
                session: 4,
                study: "quickstart".to_owned(),
                queue_depth: 2,
            },
            ResponseFrame::Status {
                draining: false,
                queue_depth: 1,
                capacity: 64,
                sessions: vec![SessionBrief {
                    session: 4,
                    study: "quickstart".to_owned(),
                    state: "running".to_owned(),
                    priority: 9,
                    events: 17,
                }],
                cache,
            },
            ResponseFrame::Cancelled {
                session: 4,
                active: true,
            },
            ResponseFrame::Done {
                session: 4,
                outcome: "finished".to_owned(),
                error: None,
                cache: Some(cache),
            },
            ResponseFrame::Done {
                session: 5,
                outcome: "failed".to_owned(),
                error: Some("config: unknown cell".to_owned()),
                cache: None,
            },
            ResponseFrame::Draining,
            ResponseFrame::Error {
                reason: "queue full".to_owned(),
            },
        ];
        for response in responses {
            let line = response.to_line();
            let back = ResponseFrame::parse(&line).unwrap();
            assert_eq!(
                ResponseFrame::parse_if_response(&line).unwrap().unwrap(),
                back
            );
            assert_eq!(back, response);
            assert_eq!(back.to_line(), line, "parse -> encode must be identity");
        }
    }

    #[test]
    fn service_frames_reject_version_skew_and_corruption() {
        // Requests/responses exist only since v3: a v2 stamp is rejected
        // even though v2 is a valid *event* version.
        let stale = RequestFrame::Status.to_line().replacen(
            &format!("{{\"v\":{WIRE_VERSION},"),
            "{\"v\":2,",
            1,
        );
        assert!(matches!(
            RequestFrame::parse(&stale),
            Err(FrameError::Version { found: 2 })
        ));
        let stale = ResponseFrame::Draining.to_line().replacen(
            &format!("{{\"v\":{WIRE_VERSION},"),
            "{\"v\":2,",
            1,
        );
        assert!(matches!(
            ResponseFrame::parse(&stale),
            Err(FrameError::Version { found: 2 })
        ));
        // Unknown tags are corruption, not silently ignored.
        let line = format!(r#"{{"v":{WIRE_VERSION},"request":"teleport"}}"#);
        match RequestFrame::parse(&line) {
            Err(FrameError::Corrupt { reason }) => assert!(reason.contains("teleport")),
            other => panic!("expected corrupt, got {other:?}"),
        }
        let line = format!(r#"{{"v":{WIRE_VERSION},"response":"teleport"}}"#);
        match ResponseFrame::parse(&line) {
            Err(FrameError::Corrupt { reason }) => assert!(reason.contains("teleport")),
            other => panic!("expected corrupt, got {other:?}"),
        }
        // An event frame is not a response line.
        let event = r#"{"v":3,"study":"s","seq":0,"event":"study_started","name":"s","cells":1,"jobs":1,"targets":1,"traffic":1}"#;
        assert!(ResponseFrame::parse_if_response(event).is_none());
    }

    // ------------------------------------------------------ control frames

    #[test]
    fn worker_frames_roundtrip_through_text() {
        let frames = vec![
            WorkerFrame::Hello {
                name: "w0".to_owned(),
                study: "quickstart".to_owned(),
                resume: false,
            },
            WorkerFrame::Hello {
                name: "w1".to_owned(),
                study: "quickstart".to_owned(),
                resume: true,
            },
            WorkerFrame::Heartbeat {
                seen: 120,
                sent: 41,
            },
            WorkerFrame::Drained { lease: 3 },
            WorkerFrame::Done {
                seen: 257,
                sent: 90,
            },
        ];
        for frame in frames {
            let line = frame.to_line();
            assert_eq!(
                WorkerLine::parse(&line).unwrap(),
                WorkerLine::Control(frame.clone())
            );
            assert!(LeaseFrame::parse(&line).is_err());
            assert!(line.starts_with(&format!(
                r#"{{"v":{WIRE_VERSION},"worker":"{}""#,
                frame.kind()
            )));
            let back = WorkerFrame::parse(&line).unwrap();
            assert_eq!(back, frame);
            assert_eq!(back.to_line(), line, "parse -> encode must be identity");
        }
    }

    #[test]
    fn lease_frames_roundtrip_through_text() {
        let frames = vec![
            LeaseFrame::Grant {
                id: 0,
                start: 0,
                end: 32,
            },
            LeaseFrame::Revoke { id: 0 },
            LeaseFrame::Shutdown,
        ];
        for frame in frames {
            let line = frame.to_line();
            assert!(!matches!(
                WorkerLine::parse(&line),
                Ok(WorkerLine::Control(_))
            ));
            let back = LeaseFrame::parse(&line).unwrap();
            assert_eq!(back, frame);
            assert_eq!(back.to_line(), line, "parse -> encode must be identity");
        }
    }

    #[test]
    fn control_frames_reject_version_skew_and_corruption() {
        // Control frames exist only since v4: a v3 stamp is rejected even
        // though v3 is a valid event/service version.
        let stale = WorkerFrame::Drained { lease: 1 }.to_line().replacen(
            &format!("{{\"v\":{WIRE_VERSION},"),
            "{\"v\":3,",
            1,
        );
        assert!(matches!(
            WorkerFrame::parse(&stale),
            Err(FrameError::Version { found: 3 })
        ));
        let stale = LeaseFrame::Shutdown.to_line().replacen(
            &format!("{{\"v\":{WIRE_VERSION},"),
            "{\"v\":3,",
            1,
        );
        assert!(matches!(
            LeaseFrame::parse(&stale),
            Err(FrameError::Version { found: 3 })
        ));
        // Unknown tags are corruption.
        let line = format!(r#"{{"v":{WIRE_VERSION},"worker":"teleport"}}"#);
        match WorkerFrame::parse(&line) {
            Err(FrameError::Corrupt { reason }) => assert!(reason.contains("teleport")),
            other => panic!("expected corrupt, got {other:?}"),
        }
        // Empty or inverted grant ranges are corruption, not no-ops.
        let line = format!(r#"{{"v":{WIRE_VERSION},"lease":"grant","id":1,"start":8,"end":8}}"#);
        assert!(matches!(
            LeaseFrame::parse(&line),
            Err(FrameError::Corrupt { .. })
        ));
        // An event frame is neither a worker nor a lease line, and a
        // non-string `worker` key does not make a line a control line.
        let event = r#"{"v":4,"study":"s","seq":0,"event":"study_started","name":"s","cells":1,"jobs":1,"targets":1,"traffic":1}"#;
        assert!(matches!(WorkerLine::parse(event), Ok(WorkerLine::Event(_))));
        assert!(LeaseFrame::parse(event).is_err());
        let stray = event.replacen(r#""traffic":1}"#, r#""traffic":1,"worker":7}"#, 1);
        assert!(matches!(
            WorkerLine::parse(&stray),
            Ok(WorkerLine::Event(_))
        ));
    }

    #[test]
    fn line_encoder_yields_the_wire_sinks_bytes_line_for_line() {
        let stats = StudyStats {
            jobs: 1,
            targets: 1,
            traffic_patterns: 1,
            arrays: 0,
            evaluations: 0,
            skipped: 1,
            cache: None,
        };
        let started = |name| StudyEvent::StudyStarted {
            name,
            cells: 1,
            jobs: 1,
            targets: 1,
            traffic: 1,
        };
        let skipped = StudyEvent::DesignSkipped {
            cell: "STT \"opt\"",
            target: OptimizationTarget::ReadEdp,
            reason: "no fit",
        };
        let finished = |name| StudyEvent::StudyFinished {
            name,
            stats: &stats,
        };
        // A second `study_started` renames the header mid-stream.
        let events = [
            started("first"),
            skipped,
            finished("first"),
            started("second"),
            skipped,
            finished("second"),
        ];
        let mut sink = WireSink::new(Vec::new());
        let mut encoder = LineEncoder::new();
        let mut lines = Vec::new();
        for event in &events {
            sink.on_event(event).unwrap();
            lines.push(encoder.encode(event).to_owned());
        }
        assert_eq!(encoder.frames_written(), sink.frames_written());
        let written = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(written, lines.join("\n") + "\n");
        assert!(lines[4].starts_with(r#"{"v":4,"study":"second","seq":4,"#));
        for (seq, line) in lines.iter().enumerate() {
            assert_eq!(WireFrame::parse(line).unwrap().seq, seq as u64);
        }
    }

    #[test]
    fn the_writers_record_lines_take_the_one_pass_path() {
        // A key literal that drifted from the writer's text would send
        // every record line to the tree: still correct, only slower.
        let study =
            crate::config::StudyConfig::from_json(include_str!("../../../config/quickstart.json"))
                .expect("the shipped config parses");
        let mut sink = WireSink::new(Vec::new());
        crate::stream::StudyExecutor::with_threads(1)
            .run(&study, &mut sink)
            .expect("the study runs");
        let text = String::from_utf8(sink.into_inner()).expect("wire lines are UTF-8");
        let mut decoder = FrameDecoder::new();
        let mut one_pass = BTreeMap::new();
        for line in text.lines() {
            let frame = WireFrame::parse(line).expect("the writer's lines parse");
            let kind = frame.event.kind();
            match decoder.record_frame(line) {
                Some(decoded) => {
                    assert_eq!(decoded, frame, "{line}");
                    *one_pass.entry(kind).or_insert(0) += 1;
                }
                None => assert!(
                    !matches!(kind, "array_characterized" | "evaluation_produced"),
                    "{line}"
                ),
            }
        }
        assert_eq!(
            one_pass.keys().copied().collect::<Vec<_>>(),
            ["array_characterized", "evaluation_produced"]
        );
    }

    /// A leased worker encodes only the slots it is leased, in lease
    /// order, with a forked encoder: every line must still equal the one
    /// an in-order encoder writes, whatever its memo saw before.
    #[test]
    fn lines_encoded_at_shuffled_seqs_equal_the_in_order_lines() {
        use nvmx_celldb::{tentpole, CellFlavor, TechnologyClass};
        use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
        use nvmx_units::Capacity;

        let arrays: Vec<Arc<ArrayCharacterization>> = [2, 4]
            .into_iter()
            .map(|mib| {
                let cell =
                    tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
                let config = ArrayConfig::new(Capacity::from_mebibytes(mib));
                Arc::new(characterize(&cell, &config, OptimizationTarget::ReadEdp).unwrap())
            })
            .collect();
        let traffic: Vec<Arc<TrafficPattern>> = (1..=3)
            .map(|k| {
                let pattern = TrafficPattern::new(format!("t{k}"), 1.0e8 * f64::from(k), 1.0e6, 64);
                Arc::new(pattern)
            })
            .collect();
        let evaluations: Vec<Evaluation> = arrays
            .iter()
            .flat_map(|array| {
                traffic.iter().map(|pattern| Evaluation {
                    array: Arc::clone(array),
                    traffic: Arc::clone(pattern),
                    ..crate::eval::evaluate(array, pattern)
                })
            })
            .collect();
        let started = StudyEvent::StudyStarted {
            name: "shuffled",
            cells: 1,
            jobs: 2,
            targets: 1,
            traffic: 3,
        };
        let mut events = vec![started];
        events.extend(
            arrays
                .iter()
                .enumerate()
                .map(|(index, array)| StudyEvent::ArrayCharacterized { index, array }),
        );
        events.extend(
            evaluations
                .iter()
                .enumerate()
                .map(|(index, evaluation)| StudyEvent::EvaluationProduced { index, evaluation }),
        );

        let mut in_order = LineEncoder::new();
        let expected: Vec<String> = events
            .iter()
            .map(|event| in_order.encode(event).to_owned())
            .collect();
        let mut shuffled = in_order.fork();
        // Backwards, then odd slots before even ones: the memo sees
        // every array out of its run.
        let order = (0..events.len())
            .rev()
            .chain((1..events.len()).step_by(2))
            .chain((0..events.len()).step_by(2));
        for seq in order {
            let line = shuffled.encode_at(seq as u64, &events[seq]);
            assert_eq!(line, expected[seq], "slot {seq}");
        }
        assert_eq!(shuffled.frames_written(), 0, "encode_at keeps no count");
    }

    #[test]
    fn hundred_thousand_deep_lines_are_corrupt_not_a_stack_overflow() {
        // A small stack, like a connection handler's: recursing once per
        // level would overflow it long before the line ended.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let deep = |head: &str| {
                    format!(
                        "{head},\"x\":{}1{}}}",
                        "[".repeat(100_000),
                        "]".repeat(100_000)
                    )
                };
                let corrupt = |result: Result<(), FrameError>, what: &str| {
                    assert!(
                        matches!(result, Err(FrameError::Corrupt { .. })),
                        "{what}: {result:?}"
                    );
                };
                let event = deep(r#"{"v":4,"study":"s","seq":0,"event":"study_started""#);
                corrupt(WireFrame::parse(&event).map(drop), "WireFrame::parse");
                corrupt(FrameDecoder::new().frame(&event).map(drop), "frame");
                corrupt(
                    FrameDecoder::new().worker_line(&event).map(drop),
                    "worker_line",
                );
                let worker = deep(r#"{"v":4,"worker":"heartbeat""#);
                corrupt(
                    FrameDecoder::new().worker_line(&worker).map(drop),
                    "worker_line on a control line",
                );
                let request = deep(r#"{"v":4,"request":"status""#);
                corrupt(RequestFrame::parse(&request).map(drop), "RequestFrame");
                let submit = format!(
                    r#"{{"v":4,"request":"submit","config":{}1{}}}"#,
                    "{\"k\":".repeat(10_000),
                    "}".repeat(10_000)
                );
                corrupt(RequestFrame::parse(&submit).map(drop), "submit config");
                let response = deep(r#"{"v":4,"response":"draining""#);
                corrupt(ResponseFrame::parse(&response).map(drop), "ResponseFrame");
                // Not JSON this reader accepts, so not a response line.
                assert!(ResponseFrame::parse_if_response(&response).is_none());
                let lease = deep(r#"{"v":4,"lease":"shutdown""#);
                corrupt(LeaseFrame::parse(&lease).map(drop), "LeaseFrame");
                match replay(std::io::Cursor::new(event)) {
                    Err(WireError::Corrupt { line: 1, .. }) => {}
                    other => panic!("replay: {other:?}"),
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn record_memo_tries_the_last_match_its_successor_and_the_first() {
        let mut memo = RecordMemo::default();
        for n in 0..5u32 {
            memo.remember(&format!("{{\"n\":{n}}}"), Arc::new(n));
        }
        let mut find = |n: u32| memo.find(|_, record| **record == n);
        assert_eq!(find(4), Some(4), "the last remembered record");
        assert_eq!(find(0), Some(0), "the first");
        assert_eq!(find(1), Some(1), "the successor of the last match");
        assert_eq!(find(3), None, "no other candidate is tried");
        assert_eq!(find(1), Some(1));
        assert_eq!(find(2), Some(2));
    }

    #[test]
    fn record_memo_stops_remembering_at_its_bounds() {
        let mut memo = RecordMemo::with_budget(100);
        memo.remember(&"x".repeat(MEMO_RECORD_BYTES + 1), Arc::new(0));
        assert_eq!((memo.entries.len(), memo.bytes), (0, 0));
        for n in 0..20u32 {
            memo.remember(&format!("{{\"n\":{n:04}}}"), Arc::new(n));
        }
        assert_eq!((memo.entries.len(), memo.bytes), (10, 100));
        assert_eq!(MEMO_TOTAL_BYTES, 64 << 20);
        assert_eq!(MEMO_RECORD_BYTES, 16 << 10);
    }

    #[test]
    fn reject_classes_ride_the_cache_object_only_when_nonzero() {
        let mut stats = CacheStats {
            hits: 4,
            misses: 1,
            pruned: 0,
            l2_hits: 0,
            l2_misses: 1,
            l2_rejects: 0,
            l2_reject_classes: L2RejectClasses::default(),
        };
        // Clean run: the cache object is byte-identical to a v3 writer's.
        let clean = serde_json::to_string(&cache_value(&stats)).unwrap();
        assert!(!clean.contains("l2_reject_io"));
        assert_eq!(cache_from(&cache_value(&stats)).unwrap(), stats);
        // Version-skewed run: only the observed classes appear.
        stats.l2_rejects = 3;
        stats.l2_reject_classes.version = 2;
        stats.l2_reject_classes.corrupt = 1;
        let skewed = serde_json::to_string(&cache_value(&stats)).unwrap();
        assert!(skewed.contains(r#""l2_reject_version":2"#));
        assert!(skewed.contains(r#""l2_reject_corrupt":1"#));
        assert!(!skewed.contains("l2_reject_io"));
        assert_eq!(cache_from(&cache_value(&stats)).unwrap(), stats);
    }
}
