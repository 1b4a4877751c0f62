//! The sweep engine's gates on five fixed studies: byte-identity with the
//! serial exhaustive oracle (`sweep::oracle`), with each study run alone
//! and across thread counts; exact cache, prune, seed, store and fault
//! counts beside the rate floors; and throughput floors.
//!
//! Prune and seed counts are the same at any thread count, so they are
//! pinned at 1 and 8. Hit and miss counts depend on which worker misses a
//! slot first, so they are pinned at one thread or one worker. The
//! throughput floors time a whole study, best of the 1- and 8-thread runs,
//! and sit an order of magnitude or more below a debug build's figures.
//! CI runs `cargo test --release -p nvmexplorer_core --test engine_gates
//! -- --nocapture`, which prints the measured rates.

use nvmexplorer_core::config::{
    ArraySettings, CellSelection, FaultSpec, FaultStudyConfig, StudyConfig, TrafficSpec,
};
use nvmexplorer_core::scheduler::{SchedulerReport, StudyScheduler};
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmexplorer_core::sweep::{oracle, StudyResult};
use nvmx_nvsim::{IncumbentStore, OptimizationTarget, SubarrayCache};
use nvmx_units::BitsPerCell;
use std::time::Instant;

/// DSE prune rate of the multi-capacity and large studies (measured 0.78):
/// below it, the score bounds went loose.
const PRUNE_RATE_FLOOR: f64 = 0.70;
/// Cross-study hit rate of the one-lane queue (measured 0.72).
const CROSS_STUDY_HIT_FLOOR: f64 = 0.60;
/// Prune rate of the seeded queue (measured 0.83): below it, seeding
/// stopped reaching the scans.
const SEEDED_PRUNE_FLOOR: f64 = 0.60;
/// Large-campaign evaluations per second: catches losing the batched path.
const EVALS_PER_SEC_FLOOR: f64 = 100_000.0;
/// Fault-campaign trials per second: catches per-trial classifier setup.
const FAULT_TRIALS_PER_SEC_FLOOR: f64 = 5.0;
/// Warm-store L2 hit rate of a fresh cache over a published store: below
/// it, the store key or the slab codec stopped round-tripping.
const WARM_STORE_L2_HIT_FLOOR: f64 = 0.90;

fn generic_traffic() -> TrafficSpec {
    TrafficSpec::GenericSweep {
        read_min: 1.0e9,
        read_max: 10.0e9,
        read_steps: 4,
        write_min: 1.0e6,
        write_max: 100.0e6,
        write_steps: 4,
        access_bytes: 8,
    }
}

fn three_target_study() -> StudyConfig {
    StudyConfig {
        name: "bench-3-target".into(),
        cells: CellSelection::default(),
        array: ArraySettings {
            targets: vec![
                OptimizationTarget::ReadEdp,
                OptimizationTarget::WriteEdp,
                OptimizationTarget::Area,
            ],
            ..ArraySettings::default()
        },
        traffic: generic_traffic(),
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

/// The capacity-axis study the subarray cache exists for: every default
/// cell at four capacities and both programming depths.
fn multi_capacity_study() -> StudyConfig {
    StudyConfig {
        name: "bench-multi-capacity".into(),
        cells: CellSelection::default(),
        array: ArraySettings {
            capacities_mib: vec![1, 2, 4, 8],
            bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
            targets: vec![
                OptimizationTarget::ReadEdp,
                OptimizationTarget::WriteEdp,
                OptimizationTarget::Area,
            ],
            ..ArraySettings::default()
        },
        traffic: generic_traffic(),
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

/// The campaign-scale study the ROADMAP targets: six capacities spanning
/// 1–32 MiB, both programming depths, three targets, and a dense 8×8
/// generic traffic grid — tens of thousands of `(array, traffic)`
/// evaluations through one engine pass.
fn large_campaign_study() -> StudyConfig {
    StudyConfig {
        name: "bench-large-campaign".into(),
        cells: CellSelection::default(),
        array: ArraySettings {
            capacities_mib: vec![1, 2, 4, 8, 16, 32],
            bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
            targets: vec![
                OptimizationTarget::ReadEdp,
                OptimizationTarget::WriteEdp,
                OptimizationTarget::Area,
            ],
            ..ArraySettings::default()
        },
        traffic: TrafficSpec::GenericSweep {
            read_min: 1.0e8,
            read_max: 20.0e9,
            read_steps: 8,
            write_min: 1.0e5,
            write_max: 1.0e9,
            write_steps: 8,
            access_bytes: 8,
        },
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

/// The reliability-campaign shape the fault engine exists for: the
/// 3-target study with a fault section sweeping every default cell at
/// both programming depths and two operating temperatures, plus one
/// raw-BER point — 58 expanded models, a couple of seeded injection
/// trials each, so the corrupt/reload/re-evaluate loop dominates the
/// base study by a wide margin.
fn fault_campaign() -> FaultStudyConfig {
    let mut study = three_target_study();
    study.name = "bench-fault-campaign".into();
    FaultStudyConfig {
        study,
        fault: FaultSpec {
            trials: 2,
            seed: 2022,
            bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
            temperatures_c: vec![25.0, 85.0],
            raw_bers: vec![1.0e-3],
            tolerance: 0.05,
        },
    }
}

/// The queued-campaign shape the scheduler exists for: three studies over
/// the same cells and traffic family, sliced along the capacity axis. A
/// warm shared cache lets the later studies reuse most of the first one's
/// subarray physics.
fn campaign_queue() -> Vec<StudyConfig> {
    let slice = |name: &str, capacities_mib: Vec<u64>| StudyConfig {
        name: name.into(),
        cells: CellSelection::default(),
        array: ArraySettings {
            capacities_mib,
            bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
            targets: vec![
                OptimizationTarget::ReadEdp,
                OptimizationTarget::WriteEdp,
                OptimizationTarget::Area,
            ],
            ..ArraySettings::default()
        },
        traffic: generic_traffic(),
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    };
    vec![
        slice("campaign-small", vec![1, 2]),
        slice("campaign-medium", vec![2, 4]),
        slice("campaign-large", vec![4, 8]),
    ]
}

/// Arrays, evaluations and skips, the parts of a result the gates compare.
fn assert_same(name: &str, got: &StudyResult, want: &StudyResult) {
    assert_eq!(got.arrays, want.arrays, "{name}: arrays");
    assert_eq!(got.evaluations, want.evaluations, "{name}: evaluations");
    assert_eq!(got.skipped, want.skipped, "{name}: skips");
}

fn assert_floor(what: &str, value: f64, floor: f64) {
    println!("{what}: {value:.3}");
    assert!(value >= floor, "{what}: {value:.3} is below {floor}");
}

/// The campaign queue on one lane of `workers` workers over a fresh cache,
/// so the later studies run warm in a fixed order.
fn one_lane(workers: usize, seeds: Option<&IncumbentStore>) -> SchedulerReport {
    let (queue, cache) = (campaign_queue(), SubarrayCache::new());
    let scheduler = StudyScheduler::with_workers(workers).lanes(1);
    let report = scheduler.run_queue(&queue, &cache, seeds, |_, _| Box::new(NullSink));
    assert!(report.all_succeeded(), "queue runs");
    report
}

#[test]
fn the_engine_matches_the_oracle_and_clears_its_evaluation_floor() {
    let mut best = 0.0f64;
    for study in [
        three_target_study(),
        multi_capacity_study(),
        large_campaign_study(),
    ] {
        let expected = oracle::run_study(&study).expect("oracle runs");
        for threads in [1, 8] {
            let start = Instant::now();
            let engine = StudyExecutor::with_threads(threads).run(&study, &mut NullSink);
            let engine = engine.expect("engine runs");
            let rate = engine.evaluations.len() as f64 / start.elapsed().as_secs_f64();
            let name = format!("{} at {threads} threads", study.name);
            assert_same(&name, &engine, &expected);
            if study.name == "bench-large-campaign" {
                best = best.max(rate);
            }
        }
    }
    assert_floor("large-campaign evaluations/s", best, EVALS_PER_SEC_FLOOR);
}

#[test]
fn prune_counts_are_pinned_at_every_thread_count() {
    for (study, pruned, hits_misses) in [
        (multi_capacity_study(), 9_274, (1_512, 1_108)),
        (large_campaign_study(), 14_010, (2_727, 1_117)),
    ] {
        for threads in [1, 8] {
            let cache = SubarrayCache::new();
            let executor = StudyExecutor::with_threads(threads).cache(&cache);
            executor.run(&study, &mut NullSink).expect("study runs");
            let stats = cache.stats();
            let name = format!("{} at {threads} threads", study.name);
            assert_eq!(stats.pruned, pruned, "{name}");
            if threads == 1 {
                assert_eq!((stats.hits, stats.misses), hits_misses, "{name}");
            }
            let what = format!("{name}: prune rate");
            assert_floor(&what, stats.prune_rate(), PRUNE_RATE_FLOOR);
        }
    }
}

#[test]
fn a_two_lane_queue_matches_each_study_run_alone() {
    let queue = campaign_queue();
    let cache = SubarrayCache::new();
    let scheduler = StudyScheduler::with_workers(8).lanes(2);
    let report = scheduler.run_queue(&queue, &cache, None, |_, _| Box::new(NullSink));
    for (study, outcome) in queue.iter().zip(&report.outcomes) {
        let alone = StudyExecutor::with_threads(8).run(study, &mut NullSink);
        let queued = outcome.result.as_ref().expect("queued study runs");
        assert_same(&study.name, queued, &alone.expect("study runs alone"));
    }
}

#[test]
fn one_lane_queues_pin_cross_study_and_seeded_counts() {
    for workers in [1, 8] {
        let cold = one_lane(workers, None);
        let seeds = IncumbentStore::new();
        let seeded = one_lane(workers, Some(&seeds));
        let pruned = |report: &SchedulerReport| -> Vec<u64> {
            report.outcomes.iter().map(|o| o.cache.pruned).collect()
        };

        // Cross-study reuse of one warm cache.
        assert_eq!(cold.cache.pruned, 13_897, "{workers} workers");
        assert_eq!(pruned(&cold), [4_608, 4_623, 4_666], "{workers} workers");
        let what = format!("{workers} workers: cross-study hit rate");
        assert_floor(&what, cold.cache.hit_rate(), CROSS_STUDY_HIT_FLOOR);

        // Seeding from the earlier studies' winners prunes more and changes
        // no result.
        assert_eq!(pruned(&seeded), [4_608, 5_119, 5_158], "{workers} workers");
        let stats = seeds.stats();
        assert_eq!((stats.recorded, stats.seeded_scans), (324, 162));
        let what = format!("{workers} workers: seeded prune rate");
        assert_floor(&what, seeded.cache.prune_rate(), SEEDED_PRUNE_FLOOR);
        for (at, (warm, cold)) in seeded.results().zip(cold.results()).enumerate() {
            assert_same(&format!("seeded study {at}, {workers} workers"), warm, cold);
        }
        for (cold, warm) in cold.outcomes.iter().zip(&seeded.outcomes).skip(1) {
            let (warm_rate, cold_rate) = (warm.cache.prune_rate(), cold.cache.prune_rate());
            let name = format!("{}, {workers} workers", warm.name);
            assert!(
                warm_rate > cold_rate,
                "{name}: {warm_rate:.3} ≤ {cold_rate:.3}"
            );
        }

        if workers == 1 {
            assert_eq!((cold.cache.hits, cold.cache.misses), (2_849, 1_108));
            assert_eq!((seeded.cache.hits, seeded.cache.misses), (1_861, 1_108));
        }
    }
}

#[test]
fn a_warm_store_serves_a_fresh_cache_from_disk() {
    let study = multi_capacity_study();
    for threads in [1, 8] {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("nvmx_engine_gates_{threads}_{pid}"));
        let _ = std::fs::remove_dir_all(&dir);
        let storeless = StudyExecutor::with_threads(threads).run(&study, &mut NullSink);
        let storeless = storeless.expect("storeless run");
        let mut stats = Vec::new();
        for phase in ["cold", "warm"] {
            let cache = SubarrayCache::with_store(&dir).expect("store dir opens");
            let executor = StudyExecutor::with_threads(threads).cache(&cache);
            let result = executor.run(&study, &mut NullSink).expect("runs");
            assert_same(
                &format!("{phase} store, {threads} threads"),
                &result,
                &storeless,
            );
            stats.push(cache.stats());
        }
        let files = std::fs::read_dir(&dir).expect("store dir lists");
        let paths: Vec<_> = files.map(|entry| entry.expect("entry").path()).collect();
        let _ = std::fs::remove_dir_all(&dir);
        let slabs = paths
            .iter()
            .filter(|p| p.extension() == Some("slab".as_ref()));
        assert_eq!(slabs.count(), 27, "{threads} threads");

        let warm = stats[1];
        let lookups = warm.l2_hits + warm.l2_misses + warm.l2_rejects;
        assert!(warm.l2_hits > 0, "{threads} threads: no L2 hit");
        let rate = warm.l2_hits as f64 / lookups as f64;
        let what = format!("{threads} threads: warm-store L2 hit rate");
        assert_floor(&what, rate, WARM_STORE_L2_HIT_FLOOR);
        // Concurrent loads of one slab are each counted, so the hit count
        // is exact only at one thread.
        if threads == 1 {
            assert_eq!((warm.l2_hits, warm.l2_misses, warm.l2_rejects), (27, 0, 0));
        }
    }
}

#[test]
fn the_fault_campaign_is_thread_count_invariant_and_clears_its_trial_floor() {
    let fault = fault_campaign();
    // Train the shared classifier first, so the timed runs time the
    // campaign alone.
    let _ = nvmexplorer_core::accuracy::baseline_accuracy();
    let mut best = 0.0f64;
    let [eight, one] = [8, 1].map(|threads| {
        let start = Instant::now();
        let run = StudyExecutor::with_threads(threads).run_fault(&fault, &mut NullSink);
        let run = run.expect("fault campaign runs");
        best = best.max(run.fault.trials.len() as f64 / start.elapsed().as_secs_f64());
        run
    });
    assert_eq!(eight, one, "fault campaign at 8 and 1 threads");
    let flipped: u64 = eight.fault.trials.iter().map(|t| t.bits_flipped).sum();
    let stats = &eight.fault.stats;
    assert_eq!(
        (stats.models, stats.trials, stats.degraded, flipped),
        (58, 116, 14, 130_855)
    );
    let base = StudyExecutor::with_threads(8).run(&fault.study, &mut NullSink);
    let base = base.expect("base study runs");
    assert_eq!(eight.study.arrays, base.arrays, "base arrays");
    assert_eq!(
        eight.study.evaluations, base.evaluations,
        "base evaluations"
    );
    assert_floor("fault-campaign trials/s", best, FAULT_TRIALS_PER_SEC_FLOOR);
}
