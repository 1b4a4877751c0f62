//! Sweep execution: expands a [`StudyConfig`] into characterization jobs,
//! fans them out lock-free across worker threads, and evaluates every array
//! against every traffic pattern in parallel.
//!
//! # Engine design
//!
//! The hot path is organized around five ideas:
//!
//! 1. **Shared DSE across targets, with branch-and-bound pruning.** One
//!    job per `(cell, capacity, bits_per_cell)` — not per target. Each job
//!    runs one [`characterize_targets`] pass over the study's explicit
//!    target list, which walks the candidate organizations once, in
//!    deterministic order, and keeps the best design under *every*
//!    optimization target by scoring lightweight bank metrics in place
//!    (only winners are materialized into full records) — skipping
//!    characterization entirely for candidates whose provably-sound score
//!    bounds (`nvmx_nvsim::bounds`) cannot beat any incumbent. An N-target study therefore does ~1/N of the subarray
//!    work of a per-target expansion, and only a small fraction of that
//!    after pruning.
//! 2. **Memoized subarray physics across jobs.** Subarray characterization
//!    depends on `(cell, node, geometry, depth)` but **not** on capacity,
//!    word width, or target, so the study-wide [`SubarrayCache`]
//!    (sharded, read-mostly) that every pass runs through computes each
//!    unique geometry once; every additional capacity in the study reuses
//!    most of the previous capacities' physics.
//! 3. **Lock-free fan-out.** Jobs live in an immutable pre-expanded slice;
//!    workers claim indices with a single shared atomic counter and write
//!    results into per-job slots; both stages run on the crate's one lane
//!    engine, [`run_on_lanes_streaming`]. No queue mutex, no result-vector
//!    mutex, and the output order is fixed by the job order rather than by
//!    worker interleaving — determinism by construction, with no post-hoc
//!    sort of completion order. Jobs borrow the resolved [`CellDefinition`]s
//!    instead of cloning them.
//! 4. **Batched structure-of-arrays evaluation.** The resolved traffic
//!    set is transposed once into a columnar
//!    [`TrafficGrid`] and each array is compiled once into an
//!    [`EvalKernel`]; workers then claim whole arrays and one
//!    [`EvalKernel::apply_batch_with`] computes every traffic lane in a
//!    single pass over contiguous lanes — with the per-word-width access
//!    rates ([`RateLanes`]) derived once per study and shared across
//!    kernels. A claim fills one array's `traffic.len()` consecutive
//!    evaluations, so the result order is the serial `arrays × traffic`
//!    double loop. Each [`Evaluation`] holds
//!    `Arc<ArrayCharacterization>` + `Arc<TrafficPattern>`, so the
//!    fan-out applies kernels and clones pointers, never records.
//! 5. **Streaming by slot order.** While workers fill slots, the calling
//!    thread walks them in index order and pushes each completed
//!    characterization/evaluation to a
//!    [`ResultSink`] — results can leave the
//!    process while the sweep is still running, and the event order is
//!    deterministic by the same argument as the result order. A passive
//!    sink such as [`NullSink`] (what [`run_study`] uses) skips the drain,
//!    and the calling thread just joins the workers.
//!
//! Jobs and targets are expanded in report order (cell name, capacity,
//! programming depth, then target label), so `arrays`, `evaluations`, and
//! `skipped` in [`StudyResult`] are deterministic for any thread count.
//! [`oracle`] is the serial, exhaustive reference every equivalence test
//! and the bench sanity checks compare the engine against.

use crate::config::{StudyConfig, UnknownNameError};
use crate::eval::{EvalKernel, Evaluation, RateLanes};
use crate::scheduler::run_on_lanes_streaming;
use crate::stream::{NullSink, ResultSink, StudyEvent, StudyExecutor, StudyStats};
use crate::traffic_memo;
use nvmx_celldb::CellDefinition;
use nvmx_nvsim::{
    characterize_targets, ArrayCharacterization, ArrayConfig, CharacterizationError,
    IncumbentStore, OptimizationTarget, SubarrayCache,
};
use nvmx_units::{BitsPerCell, Capacity};
use nvmx_workloads::{TrafficGrid, TrafficPattern};
use std::sync::Arc;

/// Outcome of a study run.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyResult {
    /// Study name (from the config).
    pub name: String,
    /// Every successfully characterized array design point.
    pub arrays: Vec<ArrayCharacterization>,
    /// Every `(array, traffic)` evaluation.
    pub evaluations: Vec<Evaluation>,
    /// Design points that could not be characterized, with reasons
    /// (e.g. SLC-only cells requested at MLC depth).
    pub skipped: Vec<(String, String)>,
}

impl StudyResult {
    /// The design point `(cell, capacity, bits_per_cell, target)`: its
    /// array and that array's evaluations, one per traffic pattern in the
    /// config's traffic order. `None` when the point was skipped (see
    /// `skipped` for why) or is not part of the study. The study's one
    /// word width and node complete the key.
    pub fn design(
        &self,
        cell: &str,
        capacity: Capacity,
        bits_per_cell: BitsPerCell,
        target: OptimizationTarget,
    ) -> Option<(&ArrayCharacterization, &[Evaluation])> {
        let index = self.arrays.iter().position(|array| {
            array.cell_name == cell
                && array.capacity == capacity
                && array.bits_per_cell == bits_per_cell
                && array.target == target
        })?;
        let per_array = self.evaluations.len() / self.arrays.len();
        let evaluations = &self.evaluations[index * per_array..(index + 1) * per_array];
        Some((&self.arrays[index], evaluations))
    }
}

/// Errors from running a study.
#[derive(Debug)]
pub enum StudyError {
    /// A model/graph name in the traffic spec did not resolve.
    UnknownName(UnknownNameError),
    /// The cell selection resolved to nothing.
    NoCells,
    /// The traffic spec resolved to nothing.
    NoTraffic,
    /// A [`ResultSink`] failed while consuming the event stream; the study
    /// was aborted at that point.
    Sink(std::io::Error),
    /// The persistent characterization store could not be opened. Load and
    /// publish failures never surface here — they degrade to recompute —
    /// but an unopenable store directory is a config error worth failing
    /// loudly on.
    Store(std::io::Error),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownName(e) => write!(f, "{e}"),
            Self::NoCells => write!(f, "cell selection resolved to no cells"),
            Self::NoTraffic => write!(f, "traffic specification resolved to no patterns"),
            Self::Sink(e) => write!(f, "result sink failed: {e}"),
            Self::Store(e) => write!(f, "characterization store failed to open: {e}"),
        }
    }
}

impl std::error::Error for StudyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Sink(e) | Self::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UnknownNameError> for StudyError {
    fn from(e: UnknownNameError) -> Self {
        Self::UnknownName(e)
    }
}

impl From<std::io::Error> for StudyError {
    fn from(e: std::io::Error) -> Self {
        Self::Sink(e)
    }
}

/// One shared-DSE characterization job: a `(cell, capacity, bits_per_cell)`
/// point covering *all* optimization targets at once. Cells are borrowed
/// from the resolved selection — jobs are cheap index records, not owners.
struct Job<'a> {
    cell: &'a CellDefinition,
    config: ArrayConfig,
}

/// Expands the study into shared-DSE jobs, in report order (cell name,
/// capacity, programming depth). Combined with the label-sorted target
/// list from [`resolve`], slot order is the report order, so no
/// completion-order sort is ever needed.
fn expand_jobs<'a>(
    study: &StudyConfig,
    cells: &'a [CellDefinition],
    targets: &[OptimizationTarget],
) -> Vec<Job<'a>> {
    let mut order: Vec<&CellDefinition> = cells.iter().collect();
    order.sort_by(|a, b| a.name.cmp(&b.name));
    let mut capacities = study.array.capacities();
    capacities.sort_unstable();
    let mut depths = study.array.bits_per_cell.clone();
    depths.sort_unstable();
    let mut jobs = Vec::new();
    if targets.is_empty() {
        return jobs;
    }
    for cell in order {
        for &capacity in &capacities {
            for &bits_per_cell in &depths {
                jobs.push(Job {
                    cell,
                    config: ArrayConfig {
                        capacity,
                        word_bits: study.array.word_bits,
                        node: study.array.node_for(cell),
                        bits_per_cell,
                    },
                });
            }
        }
    }
    jobs
}

/// The per-job result slot: every target's winning design, or the error
/// (reported once per target in `skipped`).
type JobOutcome = Result<Vec<ArrayCharacterization>, (String, CharacterizationError)>;

/// Caps the worker count at the request, the number of claimable items,
/// and the machine's available parallelism — extra workers beyond any of
/// those only add spawn cost and scheduler churn, never throughput.
/// Output is index-addressed, so the worker count never affects results.
pub(crate) fn clamp_workers(threads: usize, items: usize) -> usize {
    let cores =
        std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZeroUsize::get);
    threads.clamp(1, 32).min(items.max(1)).min(cores)
}

/// Default worker count for every batch/streaming entry point that does
/// not take an explicit thread budget: one per available CPU, capped
/// at 16.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().min(16))
}

/// A study's resolved cells, traffic patterns, and targets.
type Resolved = (
    Vec<CellDefinition>,
    Vec<TrafficPattern>,
    Vec<OptimizationTarget>,
);

/// Resolves the study's cells, traffic (through the process-wide
/// [`traffic_memo`], simulated across up to `lanes` threads on a miss),
/// and targets (targets in report order: by label), failing on an empty
/// cell or traffic selection.
fn resolve(study: &StudyConfig, lanes: usize) -> Result<Resolved, StudyError> {
    let cells = study.cells.resolve();
    if cells.is_empty() {
        return Err(StudyError::NoCells);
    }
    let traffic = traffic_memo::resolve(&study.traffic, lanes)?;
    if traffic.is_empty() {
        return Err(StudyError::NoTraffic);
    }
    let mut targets = study.array.targets.clone();
    targets.sort_by_key(|target| target.label());
    Ok((cells, traffic, targets))
}

/// The engine: every batch and streaming entry point runs this with its
/// own cache and optional incumbent seeds. The cache's counter delta over
/// the study rides the terminal [`StudyEvent::StudyFinished`] event.
pub(crate) fn run_study_impl(
    study: &StudyConfig,
    threads: usize,
    cache: &SubarrayCache,
    seeds: Option<&IncumbentStore>,
    sink: &mut dyn ResultSink,
) -> Result<StudyResult, StudyError> {
    let (cells, traffic, targets) = resolve(study, clamp_workers(threads, usize::MAX))?;
    let jobs = expand_jobs(study, &cells, &targets);
    sink.on_event(&StudyEvent::StudyStarted {
        name: &study.name,
        cells: cells.len(),
        jobs: jobs.len(),
        targets: targets.len(),
        traffic: traffic.len(),
    })?;
    let cache_before = cache.stats();

    // Stream the outcomes in job order as the lanes finish them: event
    // order is fixed by job order, never by worker interleaving. Passive
    // sinks (`run_study`'s `NullSink`) skip the drain entirely.
    let passive = sink.is_passive();
    let mut emitted = 0usize;
    let mut emit = |_: usize, outcome: &JobOutcome| -> std::io::Result<()> {
        match outcome {
            Ok(designs) => {
                for array in designs {
                    sink.on_event(&StudyEvent::ArrayCharacterized {
                        index: emitted,
                        array,
                    })?;
                    emitted += 1;
                }
            }
            Err((cell, error)) => {
                let reason = error.to_string();
                for &target in &targets {
                    sink.on_event(&StudyEvent::DesignSkipped {
                        cell,
                        target,
                        reason: &reason,
                    })?;
                }
            }
        }
        Ok(())
    };
    let outcomes = run_on_lanes_streaming(
        &jobs,
        clamp_workers(threads, jobs.len()),
        |_, job| {
            characterize_targets(job.cell, &job.config, &targets, cache, seeds)
                .map_err(|e| (job.cell.name.clone(), e))
        },
        (!passive).then_some(&mut emit as _),
    )?;

    let mut arrays = Vec::with_capacity(jobs.len() * targets.len());
    let mut skipped = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(designs) => arrays.extend(designs),
            Err((cell, error)) => {
                let reason = error.to_string();
                skipped.extend(targets.iter().map(|_| (cell.clone(), reason.clone())));
            }
        }
    }

    let evaluations = evaluate_all(&arrays, &traffic, threads, sink)?;

    // Study-wide winner per target: the feasible evaluation with the lowest
    // total power, first-in-stream-order on ties.
    for &target in &targets {
        let mut winner: Option<&Evaluation> = None;
        for eval in &evaluations {
            if eval.array.target != target || !eval.is_feasible() {
                continue;
            }
            let better = match winner {
                None => true,
                Some(best) => eval.total_power().value() < best.total_power().value(),
            };
            if better {
                winner = Some(eval);
            }
        }
        if let Some(winner) = winner {
            sink.on_event(&StudyEvent::TargetWinnerSelected { target, winner })?;
        }
    }

    // Publish newly characterized slabs back to the persistent store (a
    // no-op without one). Best effort: the store only shapes future runs'
    // work, never this run's results, so publish failures are not study
    // failures.
    let _ = cache.flush_store();

    let stats = StudyStats {
        jobs: jobs.len(),
        targets: targets.len(),
        traffic_patterns: traffic.len(),
        arrays: arrays.len(),
        evaluations: evaluations.len(),
        skipped: skipped.len(),
        cache: Some(cache.stats().since(cache_before)),
    };
    sink.on_event(&StudyEvent::StudyFinished {
        name: &study.name,
        stats: &stats,
    })?;

    Ok(StudyResult {
        name: study.name.clone(),
        arrays,
        evaluations,
        skipped,
    })
}

/// Evaluates the full `arrays × traffic` product across the worker pool,
/// preserving the serial double-loop order and streaming each evaluation to
/// `sink` in that order as its array's batch completes.
///
/// The traffic set is transposed into columnar lanes once per study, each
/// distinct word width's access-rate lanes are derived once and shared by
/// every kernel with that width, and each array is compiled once into an
/// [`EvalKernel`]. Workers claim whole arrays and publish an array's
/// `traffic.len()` evaluations as one batch — one synchronized store per
/// array, not per pair.
fn evaluate_all(
    arrays: &[ArrayCharacterization],
    traffic: &[TrafficPattern],
    threads: usize,
    sink: &mut dyn ResultSink,
) -> Result<Vec<Evaluation>, std::io::Error> {
    if arrays.is_empty() || traffic.is_empty() {
        return Ok(Vec::new());
    }
    let grid = TrafficGrid::new(traffic);
    let kernels: Vec<EvalKernel> = arrays
        .iter()
        .map(|array| EvalKernel::new(&Arc::new(array.clone())))
        .collect();
    let mut rate_sets: Vec<RateLanes> = Vec::new();
    let kernel_rates: Vec<usize> = kernels
        .iter()
        .map(|kernel| {
            rate_sets
                .iter()
                .position(|rates| rates.word_bits() == kernel.word_bits())
                .unwrap_or_else(|| {
                    rate_sets.push(RateLanes::new(&grid, kernel.word_bits()));
                    rate_sets.len() - 1
                })
        })
        .collect();
    let passive = sink.is_passive();
    let mut emit = |array_index: usize, batch: &Vec<Evaluation>| -> std::io::Result<()> {
        let base = array_index * traffic.len();
        for (lane, evaluation) in batch.iter().enumerate() {
            sink.on_event(&StudyEvent::EvaluationProduced {
                index: base + lane,
                evaluation,
            })?;
        }
        Ok(())
    };
    let batches = run_on_lanes_streaming(
        &kernels,
        clamp_workers(threads, arrays.len()),
        |index, kernel| kernel.apply_batch_with(&grid, &rate_sets[kernel_rates[index]]),
        (!passive).then_some(&mut emit as _),
    )?;
    Ok(batches.into_iter().flatten().collect())
}

/// Runs a full study with a worker per available CPU (capped at 16):
/// characterize every design point, evaluate against every traffic
/// pattern. The one-line default; [`StudyExecutor`] sets the thread count,
/// shares a cache or a persistent store, seeds incumbents, and streams
/// events.
///
/// # Errors
///
/// Returns [`StudyError`] when the config resolves to no cells, no traffic,
/// or references unknown model names.
pub fn run_study(study: &StudyConfig) -> Result<StudyResult, StudyError> {
    StudyExecutor::new().run(study, &mut NullSink)
}

/// The reference the engine is proven against: a serial loop over the
/// jobs in report order, each running the exhaustive, uncached, unpruned
/// [`nvmx_nvsim::dse::oracle`] pass, then a plain `arrays × traffic`
/// double loop of [`crate::eval::evaluate`]. No threads, cache, bounds,
/// kernels, or locks — slow and obviously correct. Only tests and bench
/// sanity checks call it. Not part of the supported API.
#[doc(hidden)]
pub mod oracle {
    use super::{expand_jobs, resolve, StudyError, StudyResult};
    use crate::config::StudyConfig;
    use crate::eval::evaluate;

    /// The [`StudyResult`] every engine entry point must reproduce byte
    /// for byte: `arrays`, `evaluations`, and `skipped` (one entry per
    /// target of each failed job).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_study`](super::run_study).
    pub fn run_study(study: &StudyConfig) -> Result<StudyResult, StudyError> {
        let (cells, traffic, targets) = resolve(study, 1)?;
        let mut arrays = Vec::new();
        let mut skipped = Vec::new();
        for job in expand_jobs(study, &cells, &targets) {
            match nvmx_nvsim::dse::oracle::characterize_targets(job.cell, &job.config, &targets) {
                Ok(designs) => arrays.extend(designs),
                Err(error) => {
                    for _ in &targets {
                        skipped.push((job.cell.name.clone(), error.to_string()));
                    }
                }
            }
        }
        let mut evaluations = Vec::new();
        for array in &arrays {
            for pattern in &traffic {
                evaluations.push(evaluate(array, pattern));
            }
        }
        Ok(StudyResult {
            name: study.name.clone(),
            arrays,
            evaluations,
            skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArraySettings, CellSelection, Constraints, TrafficSpec};
    use nvmx_celldb::TechnologyClass;

    fn engine(study: &StudyConfig, threads: usize) -> Result<StudyResult, StudyError> {
        StudyExecutor::with_threads(threads).run(study, &mut NullSink)
    }

    fn small_study() -> StudyConfig {
        StudyConfig {
            name: "test".into(),
            cells: CellSelection {
                technologies: Some(vec![TechnologyClass::Stt, TechnologyClass::Rram]),
                reference_rram: false,
                sram_baseline: true,
                ..CellSelection::default()
            },
            array: ArraySettings {
                capacities_mib: vec![2],
                targets: vec![OptimizationTarget::ReadEdp],
                ..ArraySettings::default()
            },
            traffic: TrafficSpec::Explicit {
                patterns: vec![nvmx_workloads::TrafficPattern::new("t", 1.0e9, 1.0e7, 64)],
            },
            constraints: Constraints::default(),
            output: Default::default(),
            store: Default::default(),
        }
    }

    fn multi_target_study() -> StudyConfig {
        let mut study = small_study();
        study.array.targets = vec![
            OptimizationTarget::ReadEdp,
            OptimizationTarget::WriteEnergy,
            OptimizationTarget::Area,
        ];
        study
    }

    #[test]
    fn study_produces_arrays_and_evaluations() {
        let result = engine(&small_study(), 4).unwrap();
        // 2 classes × 2 flavors + SRAM = 5 arrays, 1 traffic pattern each.
        assert_eq!(result.arrays.len(), 5);
        assert_eq!(result.evaluations.len(), 5);
        assert!(result.skipped.is_empty());
    }

    #[test]
    fn output_order_is_deterministic_across_thread_counts() {
        let one = engine(&small_study(), 1).unwrap();
        let many = engine(&small_study(), 8).unwrap();
        let names = |r: &StudyResult| -> Vec<String> {
            r.arrays.iter().map(|a| a.cell_name.clone()).collect()
        };
        assert_eq!(names(&one), names(&many));
        assert_eq!(one.evaluations.len(), many.evaluations.len());
    }

    #[test]
    fn multi_target_output_matches_the_oracle_exactly() {
        let mut study = multi_target_study();
        study.array.bits_per_cell = vec![BitsPerCell::Slc, BitsPerCell::Mlc2];
        let reference = oracle::run_study(&study).unwrap();
        assert!(!reference.skipped.is_empty(), "SRAM at MLC-2 is skipped");
        for threads in [1, 16] {
            let engine = engine(&study, threads).unwrap();
            assert_eq!(engine.arrays, reference.arrays);
            assert_eq!(engine.evaluations, reference.evaluations);
            assert_eq!(engine.skipped, reference.skipped);
        }
    }

    #[test]
    fn unsupported_mlc_lands_in_skipped() {
        let mut study = small_study();
        study.array.bits_per_cell = vec![BitsPerCell::Mlc2];
        let result = engine(&study, 2).unwrap();
        // SRAM cannot do MLC; the NVMs can.
        assert_eq!(result.skipped.len(), 1);
        assert!(result.skipped[0].0.contains("SRAM"));
        assert_eq!(result.arrays.len(), 4);
    }

    #[test]
    fn multi_target_skip_is_reported_per_target() {
        let mut study = multi_target_study();
        study.array.bits_per_cell = vec![BitsPerCell::Mlc2];
        let result = engine(&study, 4).unwrap();
        // SRAM fails once per target, like the per-target engine reported.
        assert_eq!(result.skipped.len(), 3);
        assert!(result.skipped.iter().all(|(cell, _)| cell.contains("SRAM")));
        assert_eq!(result.arrays.len(), 4 * 3);
    }

    #[test]
    fn design_finds_each_point_and_its_evaluations_and_none_for_skipped() {
        let mut study = multi_target_study();
        study.array.capacities_mib = vec![2, 1];
        study.array.bits_per_cell = vec![BitsPerCell::Slc, BitsPerCell::Mlc2];
        study.traffic = TrafficSpec::Explicit {
            patterns: vec![
                TrafficPattern::new("a", 1.0e9, 1.0e7, 64),
                TrafficPattern::new("b", 2.0e8, 3.0e6, 8),
            ],
        };
        let result = engine(&study, 2).unwrap();
        let mut found = 0;
        for cell in study.cells.resolve() {
            for capacity in study.array.capacities() {
                for &bits in &study.array.bits_per_cell {
                    for &target in &study.array.targets {
                        let design = result.design(&cell.name, capacity, bits, target);
                        if cell.technology == TechnologyClass::Sram && bits == BitsPerCell::Mlc2 {
                            assert!(design.is_none(), "{} MLC-2 was skipped", cell.name);
                            continue;
                        }
                        let (array, evaluations) = design.expect("characterized");
                        assert_eq!(
                            (array.cell_name.as_str(), array.capacity),
                            (cell.name.as_str(), capacity)
                        );
                        assert_eq!((array.bits_per_cell, array.target), (bits, target));
                        let names: Vec<&str> = evaluations
                            .iter()
                            .map(|e| e.traffic.name.as_str())
                            .collect();
                        assert_eq!(names, ["a", "b"]);
                        assert!(evaluations.iter().all(|e| *e.array == *array));
                        found += 1;
                    }
                }
            }
        }
        assert_eq!(found, result.arrays.len());
        assert!(!result.skipped.is_empty());
        let (absent, slc) = (Capacity::from_mebibytes(4), BitsPerCell::Slc);
        let target = OptimizationTarget::ReadEdp;
        assert!(result.design("SRAM-16nm", absent, slc, target).is_none());
        let two = Capacity::from_mebibytes(2);
        assert!(result.design("SRAM-16nm", two, slc, target).is_some());
        assert!(result.design("nope", two, slc, target).is_none());
    }

    #[test]
    fn empty_cell_selection_errors() {
        let mut study = small_study();
        study.cells = CellSelection {
            technologies: Some(vec![]),
            tentpoles: true,
            reference_rram: false,
            sram_baseline: false,
            back_gated_fefet: false,
            custom: vec![],
        };
        assert!(matches!(engine(&study, 2), Err(StudyError::NoCells)));
    }
}
