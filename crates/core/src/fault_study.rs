//! Fault-injection campaigns as first-class streamed studies (paper
//! Sec. V-C, Fig. 13).
//!
//! A fault campaign is a base sweep study plus a fault phase: the campaign
//! expands a deterministic list of fault models — per-technology level
//! distributions at each configured programming depth and operating
//! temperature ([`nvmx_fault::FaultModel::for_cell_at_temperature`]), plus
//! raw user-supplied BERs — and runs seeded injection trials against the
//! shared DNN classifier ([`crate::accuracy`]). Trials stream through the
//! same [`ResultSink`] pipeline as any sweep: per-trial
//! `fault_trial_produced` events, per-model `accuracy_degraded` verdicts,
//! and the campaign's own terminal `fault_study_finished` (fault streams
//! never emit `study_finished` — the base study's counters ride inside
//! [`FaultStudyStats`]).
//!
//! # Determinism
//!
//! Every injection seed is derived from `(campaign seed, trial slot)` via
//! [`injection_seed`] — a bijective mix of the slot coordinate, so two
//! distinct slots can never share an RNG stream — and carried on the wire
//! in each trial frame. A distributed fault campaign therefore replays
//! byte-identically, including after a worker kill/resume: the respawned
//! worker re-derives the exact seeds of whatever slots it is leased.

use crate::accuracy::{self, AccuracyReport};
use crate::config::FaultStudyConfig;
use crate::scheduler::run_on_lanes_streaming;
use crate::stream::{ResultSink, StudyEvent, StudyExecutor, StudyStats};
use crate::sweep::{clamp_workers, StudyError, StudyResult};
use nvmx_fault::FaultModel;
use nvmx_units::BitsPerCell;

/// One completed fault-injection trial — the payload of a
/// `fault_trial_produced` event, owned so it can cross the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTrial {
    /// Index of the fault model in the campaign's deterministic
    /// model-expansion order.
    pub model_index: usize,
    /// Trial number within the model, `0..trials`.
    pub trial: u32,
    /// Cell name the model was derived for.
    pub cell: String,
    /// Programming depth modeled.
    pub bits_per_cell: BitsPerCell,
    /// Operating temperature the model was derived at (°C).
    pub temperature_c: f64,
    /// The model's bit error rate.
    pub bit_error_rate: f64,
    /// The seed this trial injected with — derived from `(campaign seed,
    /// trial slot)` and carried on the wire so replays are exact.
    pub injection_seed: u64,
    /// Bits in the stored weight image.
    pub bits_total: u64,
    /// Bits the injection flipped.
    pub bits_flipped: u64,
    /// Classifier accuracy with the corrupted weights.
    pub accuracy: f64,
}

/// Accuracy verdict for one fault model — the payload of an
/// `accuracy_degraded` event.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModelReport {
    /// Index of the fault model in the campaign's expansion order.
    pub model_index: usize,
    /// Cell name the model was derived for.
    pub cell: String,
    /// Programming depth modeled.
    pub bits_per_cell: BitsPerCell,
    /// Operating temperature the model was derived at (°C).
    pub temperature_c: f64,
    /// The aggregated accuracy measurement across the model's trials.
    pub report: AccuracyReport,
    /// Whether the model passes the campaign's acceptance gate: mean
    /// degradation within the configured tolerance *and* above the study's
    /// `min_accuracy` constraint (when set).
    pub acceptable: bool,
}

/// Final counters of a fault campaign — the payload of the terminal
/// `fault_study_finished` event. Carries the base study's [`StudyStats`]
/// (fault streams do not emit a separate `study_finished`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultStudyStats {
    /// The base sweep study's final counters.
    pub base: StudyStats,
    /// Fault models expanded.
    pub models: usize,
    /// Injection trials run.
    pub trials: usize,
    /// Models failing the acceptance gate.
    pub degraded: usize,
}

/// The fault phase's collected outputs, as rebuilt from a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// Every trial, in slot order (`model_index × trials + trial`).
    pub trials: Vec<FaultTrial>,
    /// Per-model verdicts, in model-expansion order.
    pub reports: Vec<FaultModelReport>,
    /// Final counters.
    pub stats: FaultStudyStats,
}

/// Everything a fault campaign produced: the base study's result plus the
/// fault phase.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStudyResult {
    /// The base sweep study's result (byte-identical to running the study
    /// without a fault section).
    pub study: StudyResult,
    /// The fault phase.
    pub fault: FaultOutcome,
}

/// SplitMix64 finalizer: a bijective avalanche mix on `u64`.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the injection seed for one trial slot of a campaign.
///
/// For a fixed `campaign_seed` the map `slot → seed` is a composition of
/// bijections (odd-constant multiply, xor, SplitMix64 finalizer), so
/// distinct slots are *guaranteed* distinct seeds — disjoint trial slots
/// can never share an RNG stream, no matter how trials are split across
/// threads or worker processes.
pub fn injection_seed(campaign_seed: u64, slot: u64) -> u64 {
    splitmix64(campaign_seed ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One expanded fault model in a campaign's deterministic order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignModel {
    /// Operating temperature the model was derived at (°C).
    pub temperature_c: f64,
    /// The fault model.
    pub model: FaultModel,
}

/// Expands a campaign's fault-model list in its deterministic order:
/// resolved cells × programming depths × temperatures (cell-derived
/// models), then raw BERs × programming depths (at the 25 °C reference).
/// The order is part of the wire contract — `model_index` on the wire
/// refers to it.
pub fn expand_models(config: &FaultStudyConfig) -> Vec<CampaignModel> {
    let fault = &config.fault;
    let mut models = Vec::new();
    for cell in config.study.cells.resolve() {
        for &bits in &fault.bits_per_cell {
            for &celsius in &fault.temperatures_c {
                models.push(CampaignModel {
                    temperature_c: celsius,
                    model: FaultModel::for_cell_at_temperature(&cell, bits, celsius),
                });
            }
        }
    }
    for &ber in &fault.raw_bers {
        for &bits in &fault.bits_per_cell {
            models.push(CampaignModel {
                temperature_c: 25.0,
                model: FaultModel::from_ber(ber, bits),
            });
        }
    }
    models
}

/// Intercepts the base study's terminal `study_finished`, capturing its
/// stats instead of forwarding — the campaign emits its own terminal event
/// once the fault phase completes.
struct HoldFinish<'s> {
    inner: &'s mut dyn ResultSink,
    stats: Option<StudyStats>,
}

impl ResultSink for HoldFinish<'_> {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        if let StudyEvent::StudyFinished { stats, .. } = event {
            self.stats = Some(**stats);
            return Ok(());
        }
        self.inner.on_event(event)
    }

    fn is_passive(&self) -> bool {
        self.inner.is_passive()
    }
}

impl StudyExecutor<'_> {
    /// Runs one fault campaign, streaming events to `sink`.
    ///
    /// The base study streams exactly as [`Self::run`] would — except its
    /// terminal `study_finished` is withheld — followed by the fault
    /// phase: one `fault_trial_produced` per trial (in slot order,
    /// identical at any thread count), one `accuracy_degraded` per model,
    /// and the campaign's terminal `fault_study_finished`. Passive sinks
    /// skip the per-trial events but still receive the per-model verdicts
    /// and the terminal event, mirroring the engine's bracketing-event
    /// convention.
    ///
    /// # Errors
    ///
    /// [`StudyError`] on an unresolvable config, or
    /// [`StudyError::Sink`] when the sink fails.
    pub fn run_fault(
        &self,
        config: &FaultStudyConfig,
        sink: &mut dyn ResultSink,
    ) -> Result<FaultStudyResult, StudyError> {
        let mut hold = HoldFinish {
            inner: sink,
            stats: None,
        };
        let study = self.run(&config.study, &mut hold)?;
        let base = hold.stats.expect("the engine always emits study_finished");

        let models = expand_models(config);
        let trials_per_model = config.fault.trials.max(1) as usize;
        let baseline = accuracy::baseline_accuracy();
        let tolerance = config.fault.tolerance;
        let min_accuracy = config.study.constraints.min_accuracy;
        let passive = sink.is_passive();

        // One task per (model, trial) slot. Seeds are a pure function of
        // the slot coordinate, so the trial set is independent of thread
        // count and lease layout.
        let tasks: Vec<(usize, u32, u64)> = (0..models.len())
            .flat_map(|m| {
                (0..trials_per_model).map(move |t| {
                    let slot = (m * trials_per_model + t) as u64;
                    (m, t as u32, slot)
                })
            })
            .map(|(m, t, slot)| (m, t, injection_seed(config.fault.seed, slot)))
            .collect();

        let mut emit = |index: usize, trial: &FaultTrial| {
            sink.on_event(&StudyEvent::FaultTrialProduced { index, trial })
        };
        let trials = run_on_lanes_streaming(
            &tasks,
            clamp_workers(self.threads(), tasks.len()),
            |_, &(m, t, seed)| {
                let spec = &models[m];
                let (injection, accuracy) = accuracy::fault_trial(&spec.model, seed);
                FaultTrial {
                    model_index: m,
                    trial: t,
                    cell: spec.model.cell_name.clone(),
                    bits_per_cell: spec.model.bits_per_cell,
                    temperature_c: spec.temperature_c,
                    bit_error_rate: spec.model.bit_error_rate(),
                    injection_seed: seed,
                    bits_total: injection.bits_total,
                    bits_flipped: injection.bits_flipped,
                    accuracy,
                }
            },
            (!passive).then_some(&mut emit as _),
        )
        .map_err(StudyError::from)?;

        let mut reports = Vec::with_capacity(models.len());
        for (m, spec) in models.iter().enumerate() {
            let slice = &trials[m * trials_per_model..(m + 1) * trials_per_model];
            let mean = slice.iter().map(|t| t.accuracy).sum::<f64>() / slice.len() as f64;
            let worst = slice.iter().map(|t| t.accuracy).fold(1.0f64, f64::min);
            let report = AccuracyReport {
                baseline,
                mean,
                worst,
                bit_error_rate: spec.model.bit_error_rate(),
                trials: trials_per_model as u32,
            };
            let meets_floor = match min_accuracy {
                Some(floor) => mean >= floor,
                None => true,
            };
            let verdict = FaultModelReport {
                model_index: m,
                cell: spec.model.cell_name.clone(),
                bits_per_cell: spec.model.bits_per_cell,
                temperature_c: spec.temperature_c,
                report,
                acceptable: report.is_acceptable(tolerance) && meets_floor,
            };
            sink.on_event(&StudyEvent::AccuracyDegraded {
                index: m,
                report: &verdict,
            })
            .map_err(StudyError::from)?;
            reports.push(verdict);
        }

        let stats = FaultStudyStats {
            base,
            models: models.len(),
            trials: trials.len(),
            degraded: reports.iter().filter(|r| !r.acceptable).count(),
        };
        sink.on_event(&StudyEvent::FaultStudyFinished {
            name: &config.study.name,
            stats: &stats,
        })
        .map_err(StudyError::from)?;

        Ok(FaultStudyResult {
            study,
            fault: FaultOutcome {
                trials,
                reports,
                stats,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        ArraySettings, CellSelection, Constraints, FaultSpec, StudyConfig, TrafficSpec,
    };
    use std::collections::HashSet;

    fn small_campaign() -> FaultStudyConfig {
        let mut study = StudyConfig {
            name: "fault-unit".into(),
            cells: CellSelection {
                technologies: Some(vec![nvmx_celldb::TechnologyClass::Rram]),
                reference_rram: false,
                sram_baseline: false,
                ..CellSelection::default()
            },
            array: ArraySettings::default(),
            traffic: TrafficSpec::Explicit {
                patterns: vec![nvmx_workloads::TrafficPattern::new("t", 1.0e9, 1.0e7, 64)],
            },
            constraints: Constraints::default(),
            output: Default::default(),
            store: Default::default(),
        };
        study.array.capacities_mib = vec![2];
        FaultStudyConfig {
            study,
            fault: FaultSpec {
                trials: 2,
                seed: 7,
                bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
                temperatures_c: vec![25.0],
                raw_bers: vec![1.0e-2],
                tolerance: 0.05,
            },
        }
    }

    struct Recorder {
        kinds: Vec<&'static str>,
    }

    impl ResultSink for Recorder {
        fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
            self.kinds.push(event.kind());
            Ok(())
        }
    }

    #[test]
    fn injection_seeds_are_injective_in_slot() {
        let mut seen = HashSet::new();
        for slot in 0..10_000u64 {
            assert!(seen.insert(injection_seed(42, slot)), "collision at {slot}");
        }
        // Different campaign seeds decorrelate the whole stream.
        assert_ne!(injection_seed(1, 0), injection_seed(2, 0));
    }

    #[test]
    fn expansion_order_is_cells_by_depth_by_temperature_then_raws() {
        let mut config = small_campaign();
        config.fault.temperatures_c = vec![25.0, 85.0];
        let models = expand_models(&config);
        // 2 RRAM tentpoles × 2 depths × 2 temperatures + 1 raw × 2 depths.
        assert_eq!(models.len(), 10);
        assert_eq!(models[0].temperature_c, 25.0);
        assert_eq!(models[1].temperature_c, 85.0);
        assert_eq!(models[0].model.bits_per_cell, BitsPerCell::Slc);
        assert_eq!(models[2].model.bits_per_cell, BitsPerCell::Mlc2);
        assert!(models[8].model.cell_name.starts_with("raw-ber"));
        // Same config, same order: the expansion is pure.
        assert_eq!(models, expand_models(&config));
    }

    #[test]
    fn campaign_streams_trials_verdicts_and_its_own_terminal_event() {
        let config = small_campaign();
        let mut recorder = Recorder { kinds: Vec::new() };
        let result = StudyExecutor::with_threads(2)
            .run_fault(&config, &mut recorder)
            .unwrap();

        let models = expand_models(&config).len();
        assert_eq!(result.fault.stats.models, models);
        assert_eq!(result.fault.stats.trials, models * 2);
        assert_eq!(result.fault.trials.len(), models * 2);
        assert_eq!(result.fault.reports.len(), models);

        assert_eq!(recorder.kinds.first(), Some(&"study_started"));
        assert_eq!(recorder.kinds.last(), Some(&"fault_study_finished"));
        assert!(
            !recorder.kinds.contains(&"study_finished"),
            "fault streams must not emit study_finished"
        );
        let trial_events = recorder
            .kinds
            .iter()
            .filter(|k| **k == "fault_trial_produced")
            .count();
        assert_eq!(trial_events, models * 2);
        let verdicts = recorder
            .kinds
            .iter()
            .filter(|k| **k == "accuracy_degraded")
            .count();
        assert_eq!(verdicts, models);

        // Trials arrive in slot order with slot-derived seeds.
        for (slot, trial) in result.fault.trials.iter().enumerate() {
            assert_eq!(trial.model_index, slot / 2);
            assert_eq!(trial.trial as usize, slot % 2);
            assert_eq!(
                trial.injection_seed,
                injection_seed(config.fault.seed, slot as u64)
            );
        }
        // The raw 1e-2 BER model collapses accuracy; SLC RRAM does not.
        assert!(!result.fault.reports[models - 1].acceptable);
        assert!(result.fault.reports[0].acceptable);
        assert_eq!(
            result.fault.stats.degraded,
            result
                .fault
                .reports
                .iter()
                .filter(|r| !r.acceptable)
                .count()
        );
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let config = small_campaign();
        let one = StudyExecutor::with_threads(1)
            .run_fault(&config, &mut crate::stream::NullSink)
            .unwrap();
        let four = StudyExecutor::with_threads(4)
            .run_fault(&config, &mut crate::stream::NullSink)
            .unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn min_accuracy_constraint_tightens_the_gate() {
        let mut config = small_campaign();
        config.fault.tolerance = 1.0; // tolerance alone accepts everything
        config.study.constraints.min_accuracy = Some(2.0); // impossible floor
        let result = StudyExecutor::with_threads(2)
            .run_fault(&config, &mut crate::stream::NullSink)
            .unwrap();
        assert!(result.fault.reports.iter().all(|r| !r.acceptable));
        assert_eq!(result.fault.stats.degraded, result.fault.stats.models);
    }
}
