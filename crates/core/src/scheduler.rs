//! The multi-study scheduler: shard a queue of [`StudyConfig`]s across a
//! shared worker budget and one warm [`SubarrayCache`].
//!
//! A batched exploration campaign (many users posing "what-if" studies over
//! the same cell families) should not pay for subarray physics once per
//! study: characterization depends on `(cell, node, geometry, depth)` and
//! nothing study-specific, so a single cache can serve the whole queue. The
//! [`StudyScheduler`] runs studies from a queue on a fixed number of
//! concurrent *lanes*, splits the worker-thread budget across the lanes,
//! threads every study through the one shared cache, and reports the
//! per-study cache delta so operators can watch the cross-study hit rate
//! climb as the cache warms.
//!
//! Studies are popped in queue order (lock-free atomic index, like the
//! sweep engine's job fan-out) and their outcomes are returned in queue
//! order regardless of completion interleaving. Each study's own
//! [`StudyResult`] is deterministic; only the *cache counter deltas* depend
//! on scheduling, since concurrent lanes flush into the same counters.

use crate::config::StudyConfig;
use crate::stream::{NullSink, ResultSink, StudyExecutor};
use crate::sweep::{StudyError, StudyResult};
use nvmx_nvsim::{CacheStats, IncumbentStore, SubarrayCache};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `run(index, task)` for every task, popped lock-free (shared atomic
/// index) across `lanes` scoped threads, returning the outcomes **in task
/// order** regardless of completion interleaving.
///
/// This is the scheduler's lane engine, factored out so other multi-task
/// drivers — notably the `nvmx-coordinator` binary, whose "tasks" are
/// *studies each leased across N worker processes* — shard work the exact
/// same way the in-process scheduler does.
///
/// `lanes` is clamped to `1..=tasks.len()`. Panics in `run` propagate after
/// all lanes join (scoped-thread semantics).
pub fn run_on_lanes<T, R, F>(tasks: &[T], lanes: usize, run: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let slots: Vec<OnceLock<R>> = tasks.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let lanes = lanes.clamp(1, tasks.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..lanes {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(index) else { break };
                let outcome = run(index, task);
                assert!(slots[index].set(outcome).is_ok(), "lane slot written twice");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("all lane slots filled"))
        .collect()
}

/// Like [`run_on_lanes`], but additionally delivers each outcome to
/// `drain` **in task order while later tasks are still running** — the
/// same slot-order streaming pattern the sweep engine uses for its event
/// emission, factored here for other slot-ordered producers (the
/// fault-study trial fan-out).
///
/// `drain` runs on the calling thread. An `Err` from `drain` stops
/// delivery (in-flight tasks still complete) and is returned; the
/// completed outcomes are returned otherwise, in task order.
///
/// # Errors
///
/// The first `drain` error, verbatim.
pub fn run_on_lanes_streaming<T, R, F>(
    tasks: &[T],
    lanes: usize,
    run: F,
    mut drain: impl FnMut(usize, &R) -> std::io::Result<()>,
) -> std::io::Result<Vec<R>>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let slots: Vec<OnceLock<R>> = tasks.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let lanes = lanes.clamp(1, tasks.len().max(1));
    let mut drain_err = None;
    std::thread::scope(|scope| {
        for _ in 0..lanes {
            scope.spawn(|| {
                let _flag = crate::sweep::PanicFlag(&poisoned);
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(index) else { break };
                    let outcome = run(index, task);
                    assert!(slots[index].set(outcome).is_ok(), "lane slot written twice");
                }
            });
        }
        for (index, slot) in slots.iter().enumerate() {
            // `None` means a lane died; stop draining and let the scope
            // re-raise its panic at join.
            let Some(outcome) = crate::sweep::wait_filled(slot, &poisoned) else {
                return;
            };
            if let Err(e) = drain(index, outcome) {
                drain_err = Some(e);
                return;
            }
        }
    });
    match drain_err {
        Some(e) => Err(e),
        None => Ok(slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("all lane slots filled"))
            .collect()),
    }
}

/// What happened to one queued study.
#[derive(Debug)]
pub struct StudyOutcome {
    /// Position in the submitted queue.
    pub index: usize,
    /// Study name (kept even when the run failed).
    pub name: String,
    /// The study's result, or why it could not run.
    pub result: Result<StudyResult, StudyError>,
    /// Shared-cache counters accrued while this study ran. On a warm cache
    /// this is the *cross-study* view: hits include reuse of physics
    /// characterized by earlier (or concurrent) studies. Deltas from
    /// concurrent lanes interleave, so treat this as observability data.
    pub cache: CacheStats,
}

impl StudyOutcome {
    /// Cache hit rate observed while this study ran.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

/// Everything a [`StudyScheduler::run_queue_with`] call produced.
#[derive(Debug)]
pub struct SchedulerReport {
    /// Per-study outcomes, in queue order.
    pub outcomes: Vec<StudyOutcome>,
    /// Cumulative counters of the shared cache after the whole queue ran
    /// (cross-study totals).
    pub cache: CacheStats,
}

impl SchedulerReport {
    /// `true` when every queued study ran to completion.
    pub fn all_succeeded(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_ok())
    }

    /// The successfully completed results, in queue order.
    pub fn results(&self) -> impl Iterator<Item = &StudyResult> {
        self.outcomes.iter().filter_map(|o| o.result.as_ref().ok())
    }
}

/// Shards a queue of studies across concurrent lanes over one shared
/// [`SubarrayCache`].
///
/// # Examples
///
/// ```
/// use nvmexplorer_core::config::{StudyConfig, TrafficSpec};
/// use nvmexplorer_core::scheduler::StudyScheduler;
/// use nvmx_nvsim::SubarrayCache;
///
/// let make = |name: &str| {
///     let mut study = StudyConfig {
///         name: name.into(),
///         cells: Default::default(),
///         array: Default::default(),
///         traffic: TrafficSpec::Explicit {
///             patterns: vec![nvmx_workloads::TrafficPattern::new("t", 1.0e9, 1.0e7, 64)],
///         },
///         constraints: Default::default(),
///         output: Default::default(),
///         store: Default::default(),
///     };
///     study.cells.technologies = Some(vec![nvmx_celldb::TechnologyClass::Stt]);
///     study
/// };
/// let cache = SubarrayCache::new();
/// // One lane: `b` runs strictly after `a`, so it reuses `a`'s physics.
/// let report = StudyScheduler::with_workers(2)
///     .lanes(1)
///     .run_queue_silent(&[make("a"), make("b")], &cache);
/// assert!(report.all_succeeded());
/// assert!(report.outcomes[1].cache_hit_rate() > 0.9);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StudyScheduler {
    workers: usize,
    lanes: usize,
}

impl Default for StudyScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl StudyScheduler {
    /// A scheduler with a worker per available CPU (capped at 16) and two
    /// concurrent lanes.
    pub fn new() -> Self {
        Self::with_workers(crate::sweep::default_workers())
    }

    /// A scheduler with an explicit total worker budget (clamped to ≥ 1)
    /// and two concurrent lanes.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            lanes: 2,
        }
    }

    /// Sets how many studies run concurrently (clamped to `1..=workers`).
    /// Each lane gets an equal share of the worker budget.
    #[must_use]
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.clamp(1, self.workers);
        self
    }

    /// The total worker budget.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The `(active lanes, worker threads per lane)` plan for a queue of
    /// `studies` — the single source of truth [`Self::run_queue_with`]
    /// executes: lanes never exceed the queue length, and the thread
    /// budget is split across the lanes that actually run.
    pub fn plan_for(&self, studies: usize) -> (usize, usize) {
        let lanes = self.lanes.min(studies).max(1);
        (lanes, (self.workers / lanes).max(1))
    }

    /// Worker threads each lane's study executor receives when every lane
    /// is occupied (queues at least as long as the lane count). Shorter
    /// queues concentrate the budget — use [`Self::plan_for`] for the
    /// exact figure.
    pub fn threads_per_lane(&self) -> usize {
        self.plan_for(usize::MAX).1
    }

    /// Runs every queued study, building one sink per study with
    /// `make_sink` (called on the lane thread, receiving the queue index
    /// and the config — return a [`NullSink`] boxed if a study needs no
    /// output).
    ///
    /// Outcomes come back in queue order. A failed study (bad config, sink
    /// error) never blocks the rest of the queue.
    pub fn run_queue_with<F>(
        &self,
        queue: &[StudyConfig],
        cache: &SubarrayCache,
        make_sink: F,
    ) -> SchedulerReport
    where
        F: Fn(usize, &StudyConfig) -> Box<dyn ResultSink> + Sync,
    {
        self.run_queue_impl(queue, cache, None, make_sink)
    }

    /// [`Self::run_queue_with`] with cross-study incumbent seeding: every
    /// lane shares `seeds`, so a study whose design points overlap an
    /// earlier (or concurrently finished) study's starts its
    /// branch-and-bound scans from the recorded winners. Results are
    /// byte-identical to the unseeded queue — seeding only tightens score
    /// bounds — but warm studies prune far more candidates; compare the
    /// per-outcome [`StudyOutcome::cache`] prune counts.
    ///
    /// With more than one lane, *which* studies run warm depends on lane
    /// interleaving (a study can finish before or after its twin starts).
    /// The results never change; only the measured prune rate does. Use
    /// one lane when the warm/cold split itself must be deterministic.
    pub fn run_queue_with_seeds<F>(
        &self,
        queue: &[StudyConfig],
        cache: &SubarrayCache,
        seeds: &IncumbentStore,
        make_sink: F,
    ) -> SchedulerReport
    where
        F: Fn(usize, &StudyConfig) -> Box<dyn ResultSink> + Sync,
    {
        self.run_queue_impl(queue, cache, Some(seeds), make_sink)
    }

    fn run_queue_impl<F>(
        &self,
        queue: &[StudyConfig],
        cache: &SubarrayCache,
        seeds: Option<&IncumbentStore>,
        make_sink: F,
    ) -> SchedulerReport
    where
        F: Fn(usize, &StudyConfig) -> Box<dyn ResultSink> + Sync,
    {
        let (lanes, threads) = self.plan_for(queue.len());
        let outcomes = run_on_lanes(queue, lanes, |index, study| {
            let before = cache.stats();
            let mut sink = make_sink(index, study);
            let mut executor = StudyExecutor::with_threads(threads).cache(cache);
            if let Some(seeds) = seeds {
                executor = executor.seeds(seeds);
            }
            let result = executor.run(study, sink.as_mut());
            StudyOutcome {
                index,
                name: study.name.clone(),
                result,
                cache: cache.stats().since(before),
            }
        });
        SchedulerReport {
            outcomes,
            cache: cache.stats(),
        }
    }

    /// [`Self::run_queue_with`] over a queue-owned cache backed by the
    /// persistent characterization store at `store_dir`
    /// (`nvmx_nvsim::store`): every lane shares one store-backed cache, so
    /// the queue pays characterization cost at most once per fingerprint —
    /// and any later run over the same directory (this process or another)
    /// starts warm. Results are byte-identical to a storeless queue; the
    /// L2 traffic shows up in the report's `l2_*` cache counters.
    ///
    /// # Errors
    ///
    /// When the store directory cannot be created.
    pub fn run_queue_with_store<F>(
        &self,
        queue: &[StudyConfig],
        store_dir: impl Into<std::path::PathBuf>,
        make_sink: F,
    ) -> std::io::Result<SchedulerReport>
    where
        F: Fn(usize, &StudyConfig) -> Box<dyn ResultSink> + Sync,
    {
        let cache = SubarrayCache::with_store(store_dir)?;
        Ok(self.run_queue_impl(queue, &cache, None, make_sink))
    }

    /// [`Self::run_queue_with`] discarding all events — batch semantics
    /// over a shared cache.
    pub fn run_queue_silent(
        &self,
        queue: &[StudyConfig],
        cache: &SubarrayCache,
    ) -> SchedulerReport {
        self.run_queue_with(queue, cache, |_, _| Box::new(NullSink))
    }

    /// [`Self::run_queue_with_seeds`] discarding all events.
    pub fn run_queue_seeded(
        &self,
        queue: &[StudyConfig],
        cache: &SubarrayCache,
        seeds: &IncumbentStore,
    ) -> SchedulerReport {
        self.run_queue_with_seeds(queue, cache, seeds, |_, _| Box::new(NullSink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArraySettings, CellSelection, StudyConfig, TrafficSpec};
    use crate::sweep::run_study_with_threads;
    use nvmx_celldb::TechnologyClass;

    fn study(name: &str, capacity_mib: u64) -> StudyConfig {
        StudyConfig {
            name: name.into(),
            cells: CellSelection {
                technologies: Some(vec![TechnologyClass::Stt, TechnologyClass::Rram]),
                reference_rram: false,
                sram_baseline: false,
                ..CellSelection::default()
            },
            array: ArraySettings {
                capacities_mib: vec![capacity_mib],
                ..ArraySettings::default()
            },
            traffic: TrafficSpec::Explicit {
                patterns: vec![nvmx_workloads::TrafficPattern::new("t", 1.0e9, 1.0e7, 64)],
            },
            constraints: Default::default(),
            output: Default::default(),
            store: Default::default(),
        }
    }

    #[test]
    fn queue_results_match_standalone_runs_in_queue_order() {
        let queue = vec![study("q0", 2), study("q1", 4), study("q2", 2)];
        let cache = SubarrayCache::new();
        let report = StudyScheduler::with_workers(4)
            .lanes(2)
            .run_queue_silent(&queue, &cache);
        assert!(report.all_succeeded());
        assert_eq!(report.outcomes.len(), 3);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.index, i);
            assert_eq!(outcome.name, queue[i].name);
            let standalone = run_study_with_threads(&queue[i], 2).unwrap();
            let scheduled = outcome.result.as_ref().unwrap();
            assert_eq!(scheduled.arrays, standalone.arrays);
            assert_eq!(scheduled.evaluations, standalone.evaluations);
            assert_eq!(scheduled.skipped, standalone.skipped);
        }
    }

    #[test]
    fn shared_cache_serves_identical_follow_up_studies_entirely_warm() {
        let queue = vec![study("cold", 2), study("warm", 2)];
        let cache = SubarrayCache::new();
        // Single lane: deterministic queue order, so `warm` runs after
        // `cold` and must hit on every grid geometry.
        let report = StudyScheduler::with_workers(2)
            .lanes(1)
            .run_queue_silent(&queue, &cache);
        assert!(report.all_succeeded());
        assert!(report.outcomes[0].cache.misses > 0);
        assert_eq!(
            report.outcomes[1].cache.misses, 0,
            "warm study re-characterized"
        );
        assert!(report.outcomes[1].cache_hit_rate() > 0.99);
        assert!(report.cache.hit_rate() > 0.0);
    }

    #[test]
    fn a_store_backed_queue_starts_warm_on_the_second_pass() {
        let dir = std::env::temp_dir().join(format!("nvmx_sched_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let queue = vec![study("s0", 2), study("s1", 4)];
        let sched = StudyScheduler::with_workers(2).lanes(1);

        let cold = sched
            .run_queue_with_store(&queue, &dir, |_, _| Box::new(crate::stream::NullSink))
            .unwrap();
        assert!(cold.all_succeeded());
        assert!(cold.cache.l2_misses > 0, "cold queue found slabs on disk");
        assert_eq!(cold.cache.l2_hits, 0);

        // A second scheduler over the same directory models a later
        // process: every slab loads from the store, and the results stay
        // byte-identical to standalone storeless runs.
        let warm = sched
            .run_queue_with_store(&queue, &dir, |_, _| Box::new(crate::stream::NullSink))
            .unwrap();
        assert!(warm.all_succeeded());
        assert!(warm.cache.l2_hits > 0, "warm queue re-characterized");
        assert_eq!(warm.cache.l2_misses, 0);
        assert_eq!(warm.cache.l2_rejects, 0);
        for (outcome, config) in warm.outcomes.iter().zip(&queue) {
            let standalone = run_study_with_threads(config, 2).unwrap();
            let scheduled = outcome.result.as_ref().unwrap();
            assert_eq!(scheduled.arrays, standalone.arrays);
            assert_eq!(scheduled.evaluations, standalone.evaluations);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_studies_do_not_block_the_queue() {
        let mut bad = study("bad", 2);
        bad.cells = CellSelection {
            technologies: Some(vec![]),
            tentpoles: true,
            reference_rram: false,
            sram_baseline: false,
            back_gated_fefet: false,
            custom: vec![],
        };
        let queue = vec![bad, study("good", 2)];
        let cache = SubarrayCache::new();
        let report = StudyScheduler::with_workers(2).run_queue_silent(&queue, &cache);
        assert!(!report.all_succeeded());
        assert!(matches!(
            report.outcomes[0].result,
            Err(StudyError::NoCells)
        ));
        assert!(report.outcomes[1].result.is_ok());
        assert_eq!(report.results().count(), 1);
    }

    #[test]
    fn lane_and_thread_budgets_clamp_sanely() {
        let sched = StudyScheduler::with_workers(8).lanes(3);
        assert_eq!(sched.workers(), 8);
        assert_eq!(sched.threads_per_lane(), 2);
        let one = StudyScheduler::with_workers(1).lanes(5);
        assert_eq!(one.threads_per_lane(), 1);
    }
}
