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
//! The module also owns the crate's one lane engine,
//! [`run_on_lanes_streaming`]: the queue's studies, the sweep's
//! characterization and evaluation stages, and the fault-trial fan-out are
//! all claimed through its lock-free atomic index. Studies are popped in
//! queue order and their outcomes are returned in queue order regardless
//! of completion interleaving. Each study's own
//! [`StudyResult`] is deterministic; only the *cache counter deltas* depend
//! on scheduling, since concurrent lanes flush into the same counters.

use crate::config::StudyConfig;
use crate::stream::{ResultSink, StudyExecutor};
use crate::sweep::{StudyError, StudyResult};
use nvmx_nvsim::{CacheStats, IncumbentStore, SubarrayCache};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `run(index, task)` for every task across `lanes` scoped threads,
/// returning the outcomes **in task order** regardless of completion
/// interleaving: a passive [`run_on_lanes_streaming`].
///
/// Multi-task drivers with nothing to stream use this — notably the
/// `nvmx-coordinator` binary, whose "tasks" are *studies each leased across
/// N worker processes*, so they shard work the exact same way the
/// in-process scheduler does.
pub fn run_on_lanes<T, R, F>(tasks: &[T], lanes: usize, run: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    run_on_lanes_streaming(tasks, lanes, run, None).expect("a passive run has no drain to fail")
}

/// The per-outcome consumer [`run_on_lanes_streaming`] calls in task
/// order on the calling thread.
pub type Drain<'d, R> = &'d mut dyn FnMut(usize, &R) -> std::io::Result<()>;

/// The lane engine: runs `run(index, task)` for every task, claimed
/// lock-free (one shared atomic index) across `lanes` scoped threads, and
/// returns the outcomes **in task order**. Every fan-out in the crate —
/// the sweep's characterization and evaluation stages, the fault-trial
/// fan-out, the study queue — runs on this one loop.
///
/// With `Some(drain)`, the calling thread also delivers each outcome to
/// `drain` in task order *while later tasks are still running*, so event
/// order is fixed by task order, never by worker interleaving. With `None`
/// (a passive sink) the caller simply joins the lanes instead of spinning
/// alongside them.
///
/// `lanes` is clamped to `1..=tasks.len()` and nothing else: callers that
/// compute on the lanes cap them at the core count themselves
/// ([`crate::sweep`]'s `clamp_workers`), while lanes that mostly wait (the
/// coordinator's lease supervisors) take the count as given. A panic in
/// `run` stops the drain and propagates after all lanes join.
///
/// # Errors
///
/// The first `drain` error, verbatim. It also parks the claim counter, so
/// the lanes finish the tasks they hold and claim no new ones.
pub fn run_on_lanes_streaming<T, R, F>(
    tasks: &[T],
    lanes: usize,
    run: F,
    drain: Option<Drain<'_, R>>,
) -> std::io::Result<Vec<R>>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let slots: Vec<OnceLock<R>> = tasks.iter().map(|_| OnceLock::new()).collect();
    let slots_ref = &slots;
    let fill = |index: usize| {
        let outcome = run(index, &tasks[index]);
        assert!(
            slots_ref[index].set(outcome).is_ok(),
            "lane slot written twice"
        );
    };
    let mut deliver = drain.map(|drain| {
        move |index: usize, poisoned: &AtomicBool| {
            wait_filled(&slots_ref[index], poisoned).map(|outcome| drain(index, outcome))
        }
    });
    fan_out(
        tasks.len(),
        lanes,
        &fill,
        deliver.as_mut().map(|deliver| deliver as Deliver<'_>),
    )?;
    Ok(slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("all lane slots filled"))
        .collect())
}

/// Waits for slot `index` to fill and hands it to the drain: `None` when a
/// lane died and the slot may never fill.
type Deliver<'d> = &'d mut dyn FnMut(usize, &AtomicBool) -> Option<std::io::Result<()>>;

/// The type-erased core of [`run_on_lanes_streaming`]: the claim loop and
/// the in-order drain, compiled once rather than once per task type, so
/// each caller instantiates only the slot bookkeeping around it.
fn fan_out(
    tasks: usize,
    lanes: usize,
    fill: &(dyn Fn(usize) + Sync),
    deliver: Option<Deliver<'_>>,
) -> std::io::Result<()> {
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let mut drained = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..lanes.clamp(1, tasks.max(1)) {
            scope.spawn(|| {
                let _flag = PanicFlag(&poisoned);
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= tasks {
                        break;
                    }
                    fill(index);
                }
            });
        }
        let Some(deliver) = deliver else { return };
        for index in 0..tasks {
            // `None` means a lane died; stop draining and let the scope
            // re-raise its panic at join.
            let Some(delivered) = deliver(index, &poisoned) else {
                return;
            };
            if delivered.is_err() {
                // Nobody will read the rest: park the claim counter past
                // the end so the lanes stop picking up new tasks.
                next.store(tasks, Ordering::Relaxed);
                drained = delivered;
                return;
            }
        }
    });
    drained
}

/// Arms a poison flag if the owning lane unwinds, so the drain never spins
/// forever on a slot its (dead) lane will never fill. The panic itself
/// still propagates: the drain stops waiting, the scope joins its threads,
/// and `std::thread::scope` re-raises the lane's panic.
struct PanicFlag<'a>(&'a AtomicBool);

impl Drop for PanicFlag<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Blocks until `slot` is filled by a lane, yielding the timeslice while it
/// waits; `None` when a lane died and the slot may never fill. The drain
/// walks slots in index order, and lanes claim tasks in the same order, so
/// the wait is almost always short — but correctness never depends on that.
fn wait_filled<'s, T>(slot: &'s OnceLock<T>, poisoned: &AtomicBool) -> Option<&'s T> {
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

/// Everything a [`StudyScheduler::run_queue`] call produced.
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
/// use nvmexplorer_core::stream::NullSink;
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
///     .run_queue(&[make("a"), make("b")], &cache, None, |_, _| Box::new(NullSink));
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
    /// `studies` — the single source of truth [`Self::run_queue`]
    /// executes: lanes never exceed the queue length, and the thread
    /// budget is split across the lanes that actually run.
    pub fn plan_for(&self, studies: usize) -> (usize, usize) {
        let lanes = self.lanes.min(studies).max(1);
        (lanes, (self.workers / lanes).max(1))
    }

    /// Runs every queued study over the shared `cache`, building one sink
    /// per study with `make_sink` (called on the lane thread, receiving the
    /// queue index and the config — return a boxed
    /// [`NullSink`](crate::stream::NullSink) if a study needs no output).
    /// Outcomes come back in queue order. A failed study (bad config, sink
    /// error) never blocks the rest of the queue.
    ///
    /// A cache built with [`SubarrayCache::with_store`] backs the whole
    /// queue with the persistent characterization store: the queue pays
    /// characterization cost at most once per fingerprint, and any later
    /// run over the same directory starts warm. Results are byte-identical
    /// to a storeless queue; the L2 traffic shows up in the report's `l2_*`
    /// cache counters.
    ///
    /// With `Some(seeds)`, every lane shares one [`IncumbentStore`], so a
    /// study whose design points overlap an earlier (or concurrently
    /// finished) study's starts its branch-and-bound scans from the
    /// recorded winners. Results are byte-identical to the unseeded queue —
    /// seeding only tightens score bounds — but warm studies prune far more
    /// candidates; compare the per-outcome [`StudyOutcome::cache`] prune
    /// counts. With more than one lane, *which* studies run warm depends on
    /// lane interleaving; use one lane when the warm/cold split itself must
    /// be deterministic.
    pub fn run_queue<F>(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArraySettings, CellSelection, StudyConfig, TrafficSpec};
    use crate::stream::NullSink;
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
        let report =
            StudyScheduler::with_workers(4)
                .lanes(2)
                .run_queue(&queue, &cache, None, |_, _| Box::new(NullSink));
        assert!(report.all_succeeded());
        assert_eq!(report.outcomes.len(), 3);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.index, i);
            assert_eq!(outcome.name, queue[i].name);
            let standalone = StudyExecutor::with_threads(2)
                .run(&queue[i], &mut NullSink)
                .unwrap();
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
        let report =
            StudyScheduler::with_workers(2)
                .lanes(1)
                .run_queue(&queue, &cache, None, |_, _| Box::new(NullSink));
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

        let cold = sched.run_queue(
            &queue,
            &SubarrayCache::with_store(&dir).unwrap(),
            None,
            |_, _| Box::new(NullSink),
        );
        assert!(cold.all_succeeded());
        assert!(cold.cache.l2_misses > 0, "cold queue found slabs on disk");
        assert_eq!(cold.cache.l2_hits, 0);

        // A second scheduler over the same directory models a later
        // process: every slab loads from the store, and the results stay
        // byte-identical to standalone storeless runs.
        let warm = sched.run_queue(
            &queue,
            &SubarrayCache::with_store(&dir).unwrap(),
            None,
            |_, _| Box::new(NullSink),
        );
        assert!(warm.all_succeeded());
        assert!(warm.cache.l2_hits > 0, "warm queue re-characterized");
        assert_eq!(warm.cache.l2_misses, 0);
        assert_eq!(warm.cache.l2_rejects, 0);
        for (outcome, config) in warm.outcomes.iter().zip(&queue) {
            let standalone = StudyExecutor::with_threads(2)
                .run(config, &mut NullSink)
                .unwrap();
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
        let report = StudyScheduler::with_workers(2)
            .run_queue(&queue, &cache, None, |_, _| Box::new(NullSink));
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
        assert_eq!(sched.plan_for(usize::MAX).1, 2);
        let one = StudyScheduler::with_workers(1).lanes(5);
        assert_eq!(one.plan_for(usize::MAX).1, 1);
    }

    #[test]
    fn drain_error_stops_claiming_new_tasks() {
        let tasks: Vec<usize> = (0..1_000).collect();
        let ran = AtomicUsize::new(0);
        let mut fail_at_first = |_: usize, _: &usize| Err(std::io::Error::other("peer gone"));
        let result = run_on_lanes_streaming(
            &tasks,
            2,
            |_, &task| {
                ran.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
                task
            },
            Some(&mut fail_at_first),
        );
        let err = result.expect_err("the drain error is returned");
        assert_eq!(err.to_string(), "peer gone");
        // The lanes finish what they hold when the drain fails, plus
        // whatever they claim before the drain thread is scheduled again.
        let ran = ran.into_inner();
        assert!(ran <= 64, "{ran} of 1000 tasks ran after the drain failed");
    }
}
