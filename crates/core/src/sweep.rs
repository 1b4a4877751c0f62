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
//!    runs a single shared design-space pass which walks the candidate
//!    organizations once, in deterministic order, and keeps the best
//!    design under *every* optimization target by scoring lightweight
//!    bank metrics in place (only winners are materialized into full
//!    records) — skipping characterization entirely for candidates whose
//!    provably-sound score bounds (`nvmx_nvsim::bounds`) cannot beat any
//!    incumbent. An N-target study therefore does ~1/N of the subarray
//!    work of a per-target expansion, and only a small fraction of that
//!    after pruning.
//! 2. **Memoized subarray physics across jobs.** Subarray characterization
//!    depends on `(cell, node, geometry, depth)` but **not** on capacity,
//!    word width, or target, so a study-wide
//!    [`SubarrayCache`] (sharded, read-mostly) computes
//!    each unique geometry once; every additional capacity in the study
//!    reuses most of the previous capacities' physics.
//! 3. **Lock-free fan-out.** Jobs live in an immutable pre-expanded slice;
//!    workers claim indices with a single shared atomic counter and write
//!    results into per-job slots. No queue mutex, no result-vector mutex,
//!    and the output order is fixed by the job order rather than by worker
//!    interleaving — determinism by construction, with no post-hoc sort of
//!    completion order. Jobs borrow the resolved [`CellDefinition`]s
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
//!    deterministic by the same argument as the result order. The batch
//!    entry points below are the streaming engine with a
//!    [`NullSink`] in place of live output.
//!
//! Jobs and targets are expanded in report order (cell name, capacity,
//! programming depth, then target label), so `arrays`, `evaluations`, and
//! `skipped` in [`StudyResult`] are deterministic for any thread count.
//! [`oracle`] is the serial, exhaustive reference every equivalence test
//! and the bench sanity checks compare the engine against.

use crate::config::{StudyConfig, UnknownNameError};
use crate::eval::{EvalKernel, Evaluation, RateLanes};
use crate::stream::{NullSink, ResultSink, StudyEvent, StudyStats};
use nvmx_celldb::CellDefinition;
use nvmx_nvsim::{
    ArrayCharacterization, ArrayConfig, CharacterizationError, IncumbentStore, OptimizationTarget,
    SubarrayCache,
};
use nvmx_workloads::{TrafficGrid, TrafficPattern};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

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
                        target: targets[0],
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
fn clamp_workers(threads: usize, items: usize) -> usize {
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

/// Arms a poison flag if the owning worker unwinds, so the streaming
/// drainer never spins forever on a slot its (dead) worker will never
/// fill. The panic itself still propagates: the drainer stops waiting,
/// the scope joins its threads, and `std::thread::scope` re-raises the
/// worker's panic — exactly the pre-streaming batch behavior.
pub(crate) struct PanicFlag<'a>(pub(crate) &'a AtomicBool);

impl Drop for PanicFlag<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Blocks until `slot` is filled by a worker, yielding the timeslice while
/// it waits; `None` when a worker died and the slot may never fill. The
/// drainer walks slots in index order, and workers claim jobs in the same
/// order, so the wait is almost always short — but correctness never
/// depends on that.
pub(crate) fn wait_filled<'s, T>(slot: &'s OnceLock<T>, poisoned: &AtomicBool) -> Option<&'s T> {
    loop {
        if let Some(value) = slot.get() {
            return Some(value);
        }
        if poisoned.load(Ordering::Acquire) {
            return None;
        }
        std::thread::yield_now();
    }
}

/// A study's resolved cells, traffic patterns, and targets.
type Resolved = (
    Vec<CellDefinition>,
    Vec<TrafficPattern>,
    Vec<OptimizationTarget>,
);

/// Resolves the study's cells, traffic (simulated traffic across up to
/// `lanes` threads), and targets (targets in report order: by label),
/// failing on an empty cell or traffic selection.
fn resolve(study: &StudyConfig, lanes: usize) -> Result<Resolved, StudyError> {
    let cells = study.cells.resolve();
    if cells.is_empty() {
        return Err(StudyError::NoCells);
    }
    let traffic = study.traffic.resolve_on_lanes(lanes)?;
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

    let slots: Vec<OnceLock<JobOutcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let next_job = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);

    let workers = clamp_workers(threads, jobs.len());
    let mut sink_status: std::io::Result<()> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _flag = PanicFlag(&poisoned);
                loop {
                    let index = next_job.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(index) else { break };
                    let outcome = nvmx_nvsim::dse::optimize_targets_seeded(
                        job.cell,
                        &job.config,
                        &targets,
                        Some(cache),
                        seeds,
                    )
                    .map_err(|e| (job.cell.name.clone(), e));
                    slots[index].set(outcome).expect("job slot written twice");
                }
            });
        }
        // Stream the slots in index order as the workers fill them: event
        // order is fixed by job order, never by worker interleaving.
        // Passive sinks (the batch entry points) skip the drain entirely —
        // the calling thread blocks in the scope join instead of spinning
        // alongside the workers.
        if sink.is_passive() {
            return;
        }
        let mut emitted = 0usize;
        'drain: for slot in &slots {
            let Some(outcome) = wait_filled(slot, &poisoned) else {
                // A worker died; stop draining so the scope can join and
                // re-raise its panic.
                break 'drain;
            };
            match outcome {
                Ok(designs) => {
                    for array in designs {
                        sink_status = sink.on_event(&StudyEvent::ArrayCharacterized {
                            index: emitted,
                            array,
                        });
                        emitted += 1;
                        if sink_status.is_err() {
                            break 'drain;
                        }
                    }
                }
                Err((cell, error)) => {
                    let reason = error.to_string();
                    for &target in &targets {
                        sink_status = sink.on_event(&StudyEvent::DesignSkipped {
                            cell,
                            target,
                            reason: &reason,
                        });
                        if sink_status.is_err() {
                            break 'drain;
                        }
                    }
                }
            }
        }
        if sink_status.is_err() {
            // The study is aborting: park the claim counter past the end so
            // workers stop picking up new jobs instead of computing results
            // nobody will read.
            next_job.store(jobs.len(), Ordering::Relaxed);
        }
    });
    sink_status?;

    let mut arrays = Vec::with_capacity(jobs.len() * targets.len());
    let mut skipped = Vec::new();
    for slot in slots {
        match slot.into_inner().expect("all job slots filled") {
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

/// Runs a full study: characterize every design point, evaluate against
/// every traffic pattern.
///
/// Characterization fans out lock-free across `threads` workers (atomic
/// index over a pre-expanded job slice, results into pre-allocated slots),
/// with one shared design-space pass covering all optimization targets per
/// `(cell, capacity, bits_per_cell)` point and a study-private
/// [`SubarrayCache`] sharing subarray physics across the capacity axis. The
/// evaluation product is then fanned out over the same pool. Output order
/// is deterministic regardless of `threads`.
///
/// # Errors
///
/// Returns [`StudyError`] when the config resolves to no cells, no traffic,
/// or references unknown model names.
pub fn run_study_with_threads(
    study: &StudyConfig,
    threads: usize,
) -> Result<StudyResult, StudyError> {
    run_study_with_cache(study, threads, &SubarrayCache::new())
}

/// [`run_study_with_threads`] with a caller-owned [`SubarrayCache`].
///
/// Use this to share one cache across several studies that sweep the same
/// cells (e.g. a capacity-axis series, or repeated runs of one config), or
/// to observe [`SubarrayCache::stats`] after a run. Results are
/// bit-identical to a private-cache run.
///
/// # Errors
///
/// Same conditions as [`run_study_with_threads`].
pub fn run_study_with_cache(
    study: &StudyConfig,
    threads: usize,
    cache: &SubarrayCache,
) -> Result<StudyResult, StudyError> {
    run_study_impl(study, threads, cache, None, &mut NullSink)
}

/// [`run_study_with_cache`] with the cache backed by the persistent
/// characterization store at `store_dir` (`nvmx_nvsim::store`): L1 slab
/// misses consult the on-disk L2 before characterizing, and newly
/// characterized slabs are published back when the study finishes. Results
/// are byte-identical to a storeless run — a corrupt, version-skewed, or
/// colliding store degrades to recomputation, never to wrong data.
///
/// # Errors
///
/// [`StudyError::Store`] when the store directory cannot be created, plus
/// the same conditions as [`run_study_with_threads`].
pub fn run_study_with_store(
    study: &StudyConfig,
    threads: usize,
    store_dir: impl Into<std::path::PathBuf>,
) -> Result<StudyResult, StudyError> {
    let cache = SubarrayCache::with_store(store_dir).map_err(StudyError::Store)?;
    run_study_with_cache(study, threads, &cache)
}

/// [`run_study_with_cache`] with cross-study incumbent seeding.
///
/// Each job's branch-and-bound scan starts from the final incumbents a
/// prior *identical* design point (same cell, node, programming depth,
/// capacity, and word width) recorded into `seeds`, and records its own
/// winners back after a successful pass. Seeding only tightens the score
/// bounds, so results are byte-identical to [`run_study_with_cache`] for
/// any thread count (proven in `tests/prune_kernel_equivalence.rs`); warm
/// studies simply prune more candidates — watch the delta with
/// [`SubarrayCache::stats`] and [`IncumbentStore::stats`].
///
/// # Errors
///
/// Same conditions as [`run_study_with_threads`].
pub fn run_study_seeded(
    study: &StudyConfig,
    threads: usize,
    cache: &SubarrayCache,
    seeds: &IncumbentStore,
) -> Result<StudyResult, StudyError> {
    run_study_impl(study, threads, cache, Some(seeds), &mut NullSink)
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
    let batch_slots: Vec<OnceLock<Vec<Evaluation>>> =
        arrays.iter().map(|_| OnceLock::new()).collect();
    let next_claim = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let workers = clamp_workers(threads, arrays.len());
    let mut sink_status: std::io::Result<()> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _flag = PanicFlag(&poisoned);
                loop {
                    let index = next_claim.fetch_add(1, Ordering::Relaxed);
                    let Some(kernel) = kernels.get(index) else {
                        break;
                    };
                    let batch = kernel.apply_batch_with(&grid, &rate_sets[kernel_rates[index]]);
                    batch_slots[index]
                        .set(batch)
                        .expect("evaluation batch written twice");
                }
            });
        }
        // Passive sinks skip the drain, as in the characterization stage.
        if sink.is_passive() {
            return;
        }
        'drain: for (array_index, slot) in batch_slots.iter().enumerate() {
            let Some(batch) = wait_filled(slot, &poisoned) else {
                // A worker died; let the scope join and re-raise its panic.
                break;
            };
            let base = array_index * traffic.len();
            for (lane, evaluation) in batch.iter().enumerate() {
                sink_status = sink.on_event(&StudyEvent::EvaluationProduced {
                    index: base + lane,
                    evaluation,
                });
                if sink_status.is_err() {
                    // Park the claim counter past the end so workers stop
                    // evaluating work nobody will read.
                    next_claim.store(arrays.len(), Ordering::Relaxed);
                    break 'drain;
                }
            }
        }
    });
    sink_status?;
    Ok(batch_slots
        .into_iter()
        .flat_map(|slot| slot.into_inner().expect("all evaluation batches filled"))
        .collect())
}

/// Runs a study with a worker per available CPU (capped at 16).
///
/// # Errors
///
/// See [`run_study_with_threads`].
pub fn run_study(study: &StudyConfig) -> Result<StudyResult, StudyError> {
    run_study_with_threads(study, default_workers())
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
    /// Same conditions as [`run_study_with_threads`](super::run_study_with_threads).
    pub fn run_study(study: &StudyConfig) -> Result<StudyResult, StudyError> {
        let (cells, traffic, targets) = resolve(study, 1)?;
        let mut arrays = Vec::new();
        let mut skipped = Vec::new();
        for job in expand_jobs(study, &cells, &targets) {
            match nvmx_nvsim::dse::oracle::optimize_targets(job.cell, &job.config, &targets) {
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
    use nvmx_units::BitsPerCell;

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
        let result = run_study_with_threads(&small_study(), 4).unwrap();
        // 2 classes × 2 flavors + SRAM = 5 arrays, 1 traffic pattern each.
        assert_eq!(result.arrays.len(), 5);
        assert_eq!(result.evaluations.len(), 5);
        assert!(result.skipped.is_empty());
    }

    #[test]
    fn output_order_is_deterministic_across_thread_counts() {
        let one = run_study_with_threads(&small_study(), 1).unwrap();
        let many = run_study_with_threads(&small_study(), 8).unwrap();
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
            let engine = run_study_with_threads(&study, threads).unwrap();
            assert_eq!(engine.arrays, reference.arrays);
            assert_eq!(engine.evaluations, reference.evaluations);
            assert_eq!(engine.skipped, reference.skipped);
        }
    }

    #[test]
    fn unsupported_mlc_lands_in_skipped() {
        let mut study = small_study();
        study.array.bits_per_cell = vec![BitsPerCell::Mlc2];
        let result = run_study_with_threads(&study, 2).unwrap();
        // SRAM cannot do MLC; the NVMs can.
        assert_eq!(result.skipped.len(), 1);
        assert!(result.skipped[0].0.contains("SRAM"));
        assert_eq!(result.arrays.len(), 4);
    }

    #[test]
    fn multi_target_skip_is_reported_per_target() {
        let mut study = multi_target_study();
        study.array.bits_per_cell = vec![BitsPerCell::Mlc2];
        let result = run_study_with_threads(&study, 4).unwrap();
        // SRAM fails once per target, like the per-target engine reported.
        assert_eq!(result.skipped.len(), 3);
        assert!(result.skipped.iter().all(|(cell, _)| cell.contains("SRAM")));
        assert_eq!(result.arrays.len(), 4 * 3);
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
        assert!(matches!(
            run_study_with_threads(&study, 2),
            Err(StudyError::NoCells)
        ));
    }
}
