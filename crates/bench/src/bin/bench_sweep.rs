//! Records the sweep-engine performance trajectory into `BENCH_sweep.json`.
//!
//! Every group times the one production engine. The engines it replaced
//! are retired; their last measured medians are embedded verbatim under
//! `trajectory` (`pr1_recorded`, `retired_recorded`) so the history
//! survives re-measurement without re-running dead code.
//!
//! Measurement groups:
//!
//! - **`three_target`**: the 3-target default study, the trajectory's
//!   first comparison point.
//! - **`multi_capacity`**: a 4-capacity × 2-depth × 3-target study. Cache hit/miss/prune counters are recorded
//!   alongside the medians, and the DSE prune rate is hard-gated.
//! - **`multi_study`** (the PR 3 comparison): a 3-study capacity-sliced
//!   campaign under the [`StudyScheduler`] sharing one warm
//!   `SubarrayCache`, against the same three studies run sequentially with
//!   per-study private caches. Cross-study cache hit rates are recorded
//!   per study and in aggregate.
//! - **`large_campaign`**: a campaign-scale single study — six capacities (1–32 MiB), SLC+MLC2, three targets, an
//!   8×8 generic traffic grid, tens of thousands of evaluations — with
//!   prune rate, kernel reuse, and evaluation throughput recorded and
//!   gated.
//! - **`fault_campaign`** (the PR 7 target): a fault-injection campaign
//!   layered over the 3-target study — every default cell at both
//!   programming depths and two operating temperatures plus a raw-BER
//!   point, a few seeded trials each, through
//!   `StudyExecutor::run_fault` — with determinism across thread counts
//!   asserted and end-to-end trial throughput recorded and floor-gated.
//! - **`multi_study` seeded queue** (the PR 6 seeding target): the same
//!   campaign queue run once more through one shared [`IncumbentStore`]
//!   (single lane, so warmth is deterministic): studies whose design
//!   points overlap an earlier study's start their branch-and-bound scans
//!   from the recorded winners. Per-study seeded prune rates are recorded
//!   next to the cold rates and hard-gated.
//! - **`store_campaign`** (the PR 8 target): the multi-capacity study run
//!   by simulated cold *processes* — a fresh `SubarrayCache` (empty
//!   in-memory L1) per rep — against one persistent on-disk
//!   characterization store (`nvmx_nvsim::store`). Cold reps start from an
//!   empty store dir and publish; warm reps attach a fresh cache to the
//!   published store and load slabs instead of recomputing. Results must
//!   stay byte-identical to the storeless reference, and the warm-store L2
//!   hit rate is hard-gated.
//!
//! Every timed row also records `evaluations_per_sec` (that group's
//! evaluation count over the current engine's median wall-clock) and an
//! `oversubscribed` flag marking rows whose thread request exceeds
//! `host.available_parallelism` — throughput numbers from such rows
//! measure scheduler churn, not the engine.
//!
//! Run from the workspace root so the JSON lands next to `Cargo.toml`:
//!
//! ```text
//! cargo run --release -p nvmx_bench --bin bench_sweep [-- --quick] [-- --out PATH]
//! ```
//!
//! `--quick` drops to a single rep (no warmup) — the CI perf-floor mode.
//! Wall-clock numbers from a quick run are noise, but the run still *hard
//! gates* the machine-independent invariants: the engine must reproduce
//! the serial exhaustive oracle (`sweep::oracle`) byte for byte on the
//! `three_target`, `multi_capacity`, and `large_campaign` studies, the
//! cross-study cache hit rate must stay at or above its recorded floor,
//! and the DSE prune rates must stay at or above theirs. `--out PATH`
//! redirects the JSON report (CI uploads it as a workflow artifact
//! instead of overwriting the checked-in trajectory).
//! The report is written via temp-file + atomic rename, so a killed run
//! never leaves a torn artifact. `host.available_parallelism` and the rep
//! counts are recorded in the report, so trajectory numbers are
//! self-describing.

use nvmexplorer_core::config::{
    ArraySettings, CellSelection, FaultSpec, FaultStudyConfig, StudyConfig, TrafficSpec,
};
use nvmexplorer_core::scheduler::StudyScheduler;
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmexplorer_core::sweep::oracle;
use nvmx_nvsim::{IncumbentStore, OptimizationTarget, SubarrayCache};
use nvmx_units::BitsPerCell;
use std::fmt::Write as _;
use std::time::Instant;

const REPS: usize = 15;
/// The large-campaign group runs multi-hundred-millisecond studies; a
/// smaller rep count keeps full local runs pleasant while medians stay
/// stable.
const REPS_LARGE: usize = 7;

/// Floor on the multi-capacity study's DSE prune rate (measured 0.80 on
/// the 3-target × 4-capacity × 2-depth study; gated with margin). A
/// regression here means the score bounds went loose.
const PRUNE_RATE_FLOOR: f64 = 0.70;

/// Floor on the seeded campaign queue's aggregate prune rate. The warm
/// studies' scans start from recorded winners, so the queue as a whole
/// must prune well past the cold floor; a regression means seeding
/// stopped reaching the scans.
const SEEDED_PRUNE_FLOOR: f64 = 0.60;

/// Floor on the large campaign's batched evaluation throughput
/// (evaluations per second through the current engine, best row). The
/// full 1-thread run on the 1-core CI container measured ~6.2M
/// evaluations/s in release mode; the floor leaves a wide margin for
/// slower machines while still catching an order-of-magnitude regression
/// (e.g. losing the batched path or re-deriving rates per pair).
const EVALS_PER_SEC_FLOOR: f64 = 100_000.0;

/// Floor on the fault campaign's end-to-end injection-trial throughput
/// (trials per second through `run_fault`, best row — classifier
/// corruption, reload, and re-evaluation included). Release-mode trials
/// run three orders of magnitude above this; the floor only catches a
/// gross regression such as rebuilding the classifier per trial.
const FAULT_TRIALS_PER_SEC_FLOOR: f64 = 5.0;

/// Floor on the warm-store L2 hit rate: a fresh cache (a cold process's
/// empty L1) over a fully published store must serve essentially every
/// slab miss from disk. The study is deterministic, so the expected rate
/// is 1.0; the floor leaves margin only for counter double-counting under
/// concurrent same-key misses. A regression means the store key or the
/// slab codec stopped round-tripping.
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

/// Median wall-clock milliseconds over `reps` runs of `f` (one warmup rep
/// unless `reps == 1`).
/// Evaluation throughput implied by a row's median wall-clock: the whole
/// study (characterization included) over the evaluations it produced, so
/// the figure is end-to-end, never a cherry-picked inner loop.
fn evaluations_per_sec(evaluations: usize, ms: f64) -> f64 {
    evaluations as f64 / (ms / 1.0e3)
}

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    if reps > 1 {
        f();
    }
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1.0e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The medians of the engines this one replaced, as last measured by a
/// full run (1-CPU host, 15 reps; 7 for `large_campaign`), each next to
/// the then-current engine's median from the same run. Copied verbatim
/// from the `BENCH_sweep.json` that last timed them live.
const RETIRED_RECORDED: &str = r#"    "retired_recorded": {
      "engines": {
        "baseline": "per-target jobs, mutex queue + mutex result vec, completion-order sort, serial evaluation",
        "pr1": "first shared-DSE engine: per-candidate materialized scoring, no subarray cache, deep-copy evaluation",
        "pr4": "exhaustive cached scan materializing every candidate bank, per-pair scalar evaluation",
        "uncached": "branch-and-bound pruned scan, no subarray cache, kernel evaluation",
        "pr5": "branch-and-bound pruned scan + subarray cache + per-pair scalar kernel applications"
      },
      "three_target": [
        {"threads": 1, "baseline_ms": 1.26, "current_ms": 0.64, "speedup": 1.96},
        {"threads": 8, "baseline_ms": 1.25, "current_ms": 0.79, "speedup": 1.58}
      ],
      "multi_capacity": [
        {"threads": 1, "pr1_ms": 9.70, "pr4_ms": 5.24, "uncached_ms": 3.43, "current_ms": 3.26, "speedup_vs_pr1": 2.97, "speedup_vs_pr4": 1.61},
        {"threads": 8, "pr1_ms": 9.91, "pr4_ms": 9.54, "uncached_ms": 4.67, "current_ms": 3.27, "speedup_vs_pr1": 3.03, "speedup_vs_pr4": 2.92}
      ],
      "large_campaign": [
        {"threads": 1, "pr4_ms": 10.99, "pr5_ms": 7.37, "current_ms": 6.01, "speedup_vs_pr4": 1.83, "speedup_vs_pr5": 1.22},
        {"threads": 8, "pr4_ms": 10.30, "pr5_ms": 7.63, "current_ms": 6.22, "speedup_vs_pr4": 1.66, "speedup_vs_pr5": 1.23}
      ]
    }
"#;

/// Writes a group's engine description and its `(threads, median ms)`
/// rows, closing the group object.
fn push_current_rows(
    json: &mut String,
    rows: &[(usize, f64)],
    evaluations: usize,
    parallelism: usize,
) {
    json.push_str(
        "    \"engine\": \"shared DSE, branch-and-bound pruning, subarray cache, lock-free fan-out, batched structure-of-arrays kernel evaluation\",\n",
    );
    json.push_str("    \"results_ms_median\": [\n");
    for (i, (threads, current_ms)) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"threads\": {threads}, \"current_ms\": {current_ms:.2}, \"evaluations_per_sec\": {:.0}, \"oversubscribed\": {}}}{}",
            evaluations_per_sec(evaluations, *current_ms),
            *threads > parallelism,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  },\n");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|arg| arg == "--quick");
    // `--out PATH` redirects the JSON report (CI uploads the quick run as a
    // workflow artifact without dirtying the checked-in BENCH_sweep.json).
    let out_path = args
        .iter()
        .position(|arg| arg == "--out")
        .map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("--out expects a path");
                std::process::exit(2);
            })
        })
        .unwrap_or_else(|| "BENCH_sweep.json".to_owned());
    let reps = if quick { 1 } else { REPS };
    let reps_large = if quick { 1 } else { REPS_LARGE };
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);

    // --- Sanity: the engine must reproduce the oracle before any timing ----
    let three = three_target_study();
    let multi = multi_capacity_study();
    let large = large_campaign_study();
    let three_reference = StudyExecutor::with_threads(8)
        .run(&three, &mut NullSink)
        .expect("engine runs");
    let reference = StudyExecutor::with_threads(8)
        .run(&multi, &mut NullSink)
        .expect("engine runs");
    let large_reference = StudyExecutor::with_threads(8)
        .run(&large, &mut NullSink)
        .expect("large study runs");
    for (name, engine, study) in [
        ("three_target", &three_reference, &three),
        ("multi_capacity", &reference, &multi),
        ("large_campaign", &large_reference, &large),
    ] {
        let expected = oracle::run_study(study).expect("oracle runs");
        assert_eq!(
            engine.arrays, expected.arrays,
            "{name} arrays diverged from the oracle; refusing to record bench"
        );
        assert_eq!(
            engine.evaluations, expected.evaluations,
            "{name} evaluations diverged from the oracle; refusing to record bench"
        );
        assert_eq!(
            engine.skipped, expected.skipped,
            "{name} skips diverged from the oracle; refusing to record bench"
        );
    }
    let three_evaluations = three_reference.evaluations.len();
    let queue = campaign_queue();
    let queue_evaluations = {
        let shared_cache = SubarrayCache::new();
        let report = StudyScheduler::with_workers(8).lanes(2).run_queue(
            &queue,
            &shared_cache,
            None,
            |_, _| Box::new(NullSink),
        );
        assert!(report.all_succeeded(), "scheduler queue must run");
        let mut total = 0usize;
        for (study, outcome) in queue.iter().zip(&report.outcomes) {
            let standalone = StudyExecutor::with_threads(8)
                .run(study, &mut NullSink)
                .expect("standalone runs");
            let scheduled = outcome.result.as_ref().expect("checked above");
            assert_eq!(
                scheduled.arrays, standalone.arrays,
                "scheduled study diverged; refusing to record bench"
            );
            assert_eq!(scheduled.evaluations, standalone.evaluations);
            total += scheduled.evaluations.len();
        }
        total
    };

    // --- Fault campaign: warm the shared classifier, then check that the
    // slot-seeded trial fan-out is thread-count invariant before timing.
    // (`baseline_accuracy` forces the one-time classifier build so the
    // quick mode's single unwarmed rep times the campaign, not training.)
    let fault = fault_campaign();
    let _ = nvmexplorer_core::accuracy::baseline_accuracy();
    let fault_reference = StudyExecutor::with_threads(8)
        .run_fault(&fault, &mut NullSink)
        .expect("fault campaign runs");
    let fault_single = StudyExecutor::with_threads(1)
        .run_fault(&fault, &mut NullSink)
        .expect("single-thread fault campaign runs");
    assert_eq!(
        fault_reference, fault_single,
        "fault campaign diverged across thread counts; refusing to record bench"
    );
    let fault_base = StudyExecutor::with_threads(8)
        .run(&fault.study, &mut NullSink)
        .expect("base study runs");
    assert_eq!(
        fault_reference.study.arrays, fault_base.arrays,
        "fault campaign's base study diverged from a plain run; refusing to record bench"
    );
    assert_eq!(fault_reference.study.evaluations, fault_base.evaluations);

    // --- Cache + prune behavior on the multi-capacity study ---------------
    let cache = SubarrayCache::new();
    StudyExecutor::with_threads(8)
        .cache(&cache)
        .run(&multi, &mut NullSink)
        .expect("cached run for stats");
    let stats = cache.stats();

    // --- three_target, multi_capacity, and large_campaign groups ----------
    let current_rows = |study: &StudyConfig, reps: usize| -> Vec<(usize, f64)> {
        [1usize, 8]
            .into_iter()
            .map(|threads| {
                let ms = median_ms(reps, || {
                    drop(
                        StudyExecutor::with_threads(threads)
                            .run(study, &mut NullSink)
                            .unwrap(),
                    );
                });
                (threads, ms)
            })
            .collect()
    };
    let three_rows = current_rows(&three, reps);
    let multi_rows = current_rows(&multi, reps);
    let large_cache = SubarrayCache::new();
    StudyExecutor::with_threads(8)
        .cache(&large_cache)
        .run(&large, &mut NullSink)
        .expect("large run for stats");
    let large_stats = large_cache.stats();
    let large_rows = current_rows(&large, reps_large);

    // --- multi_study group (PR 3 target) -----------------------------------
    // Cross-study cache behavior, measured once (single-lane so the warm-up
    // order is deterministic: later studies hit what earlier ones missed).
    let campaign_cache = SubarrayCache::new();
    let campaign_report = StudyScheduler::with_workers(8).lanes(1).run_queue(
        &queue,
        &campaign_cache,
        None,
        |_, _| Box::new(NullSink),
    );
    let campaign_stats = campaign_cache.stats();

    // The seeded queue (PR 6): same studies, same single-lane determinism,
    // but sharing one IncumbentStore — capacity-overlapping design points
    // in the later studies start their scans from the recorded winners.
    // Results must stay byte-identical to the unseeded queue.
    let seeded_cache = SubarrayCache::new();
    let seed_store = IncumbentStore::new();
    let seeded_report = StudyScheduler::with_workers(8).lanes(1).run_queue(
        &queue,
        &seeded_cache,
        Some(&seed_store),
        |_, _| Box::new(NullSink),
    );
    assert!(seeded_report.all_succeeded(), "seeded queue must run");
    for (cold, warm) in campaign_report.outcomes.iter().zip(&seeded_report.outcomes) {
        let cold_result = cold.result.as_ref().expect("cold queue succeeded");
        let warm_result = warm.result.as_ref().expect("checked above");
        assert_eq!(
            cold_result.arrays, warm_result.arrays,
            "seeding changed {}'s arrays; refusing to record bench",
            cold.name
        );
        assert_eq!(
            cold_result.evaluations, warm_result.evaluations,
            "seeding changed {}'s evaluations; refusing to record bench",
            cold.name
        );
    }
    let seeded_stats = seeded_cache.stats();
    let seed_store_stats = seed_store.stats();

    let mut study_rows = Vec::new();
    for workers in [1usize, 8] {
        let sequential_ms = median_ms(reps, || {
            // The pre-scheduler serving pattern: each study runs alone with
            // a private cache.
            for study in &queue {
                drop(
                    StudyExecutor::with_threads(workers)
                        .run(study, &mut NullSink)
                        .unwrap(),
                );
            }
        });
        let scheduler_ms = median_ms(reps, || {
            let cache = SubarrayCache::new();
            let report = StudyScheduler::with_workers(workers).lanes(2).run_queue(
                &queue,
                &cache,
                None,
                |_, _| Box::new(NullSink),
            );
            assert!(report.all_succeeded());
        });
        study_rows.push((workers, sequential_ms, scheduler_ms));
    }

    // --- fault_campaign group (the PR 7 target) ----------------------------
    let mut fault_rows = Vec::new();
    for threads in [1usize, 8] {
        let executor = StudyExecutor::with_threads(threads);
        let current_ms = median_ms(reps_large, || {
            drop(executor.run_fault(&fault, &mut NullSink).unwrap());
        });
        fault_rows.push((threads, current_ms));
    }

    // --- store_campaign group (the PR 8 target) -----------------------------
    // A fresh SubarrayCache over a persistent store models a cold *process*:
    // the in-memory L1 starts empty, so every slab miss consults the
    // on-disk L2. Cold = empty store dir (characterize, then publish);
    // warm = fresh cache attached to the published store.
    let store_dir = std::env::temp_dir().join(format!("nvmx_bench_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let cold_store_cache = SubarrayCache::with_store(&store_dir).expect("store dir opens");
    let cold_store_result = StudyExecutor::with_threads(8)
        .cache(&cold_store_cache)
        .run(&multi, &mut NullSink)
        .expect("cold-store run");
    assert_eq!(
        reference.arrays, cold_store_result.arrays,
        "cold-store arrays diverged; refusing to record bench"
    );
    assert_eq!(reference.evaluations, cold_store_result.evaluations);
    let cold_store_stats = cold_store_cache.stats();
    let slabs_published = std::fs::read_dir(&store_dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|ext| ext == "slab"))
                .count()
        })
        .unwrap_or(0);
    let warm_store_cache = SubarrayCache::with_store(&store_dir).expect("store dir reopens");
    let warm_store_result = StudyExecutor::with_threads(8)
        .cache(&warm_store_cache)
        .run(&multi, &mut NullSink)
        .expect("warm-store run");
    assert_eq!(
        reference.arrays, warm_store_result.arrays,
        "warm-store arrays diverged; refusing to record bench"
    );
    assert_eq!(reference.evaluations, warm_store_result.evaluations);
    let warm_store_stats = warm_store_cache.stats();
    let warm_l2_lookups =
        warm_store_stats.l2_hits + warm_store_stats.l2_misses + warm_store_stats.l2_rejects;
    let warm_l2_hit_rate = if warm_l2_lookups == 0 {
        0.0
    } else {
        warm_store_stats.l2_hits as f64 / warm_l2_lookups as f64
    };

    let mut store_rows = Vec::new();
    for threads in [1usize, 8] {
        let cold_ms = median_ms(reps, || {
            let _ = std::fs::remove_dir_all(&store_dir);
            let cache = SubarrayCache::with_store(&store_dir).expect("store dir opens");
            drop(
                StudyExecutor::with_threads(threads)
                    .cache(&cache)
                    .run(&multi, &mut NullSink)
                    .unwrap(),
            );
        });
        // The cold reps leave the store fully published; each warm rep
        // attaches a fresh cache, modelling a new process joining it.
        let warm_ms = median_ms(reps, || {
            let cache = SubarrayCache::with_store(&store_dir).expect("store dir reopens");
            drop(
                StudyExecutor::with_threads(threads)
                    .cache(&cache)
                    .run(&multi, &mut NullSink)
                    .unwrap(),
            );
        });
        store_rows.push((threads, cold_ms, warm_ms));
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"sweep_engine\",\n");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"host\": {\n");
    let _ = writeln!(json, "    \"available_parallelism\": {parallelism},");
    let _ = writeln!(json, "    \"reps\": {reps},");
    let _ = writeln!(json, "    \"reps_large_campaign\": {reps_large}");
    json.push_str("  },\n");
    json.push_str("  \"trajectory\": {\n");
    json.push_str("    \"pr1_recorded\": {\n");
    json.push_str(
        "      \"study\": \"3-target default study (14 cells, 2 MiB SLC, ReadEDP+WriteEDP+Area, 4x4 generic traffic sweep)\",\n",
    );
    json.push_str("      \"results_ms_median\": [\n");
    json.push_str(
        "        {\"threads\": 1, \"baseline_ms\": 2.88, \"shared_dse_ms\": 1.18, \"speedup\": 2.44},\n",
    );
    json.push_str(
        "        {\"threads\": 8, \"baseline_ms\": 2.96, \"shared_dse_ms\": 1.13, \"speedup\": 2.62}\n",
    );
    json.push_str("      ]\n    },\n");
    json.push_str(RETIRED_RECORDED);
    json.push_str("  },\n");

    json.push_str("  \"three_target\": {\n");
    json.push_str(
        "    \"study\": \"3-target default study (14 cells, 2 MiB SLC, ReadEDP+WriteEDP+Area, 4x4 generic traffic sweep)\",\n",
    );
    push_current_rows(&mut json, &three_rows, three_evaluations, parallelism);

    json.push_str("  \"multi_capacity\": {\n");
    json.push_str(
        "    \"study\": \"4-capacity study (14 cells, 1/2/4/8 MiB, SLC+MLC2, ReadEDP+WriteEDP+Area, 4x4 generic traffic sweep)\",\n",
    );
    let _ = writeln!(json, "    \"arrays\": {},", reference.arrays.len());
    let _ = writeln!(
        json,
        "    \"evaluations\": {},",
        reference.evaluations.len()
    );
    let _ = writeln!(
        json,
        "    \"subarray_cache\": {{\"entries\": {}, \"hits\": {}, \"misses\": {}, \"pruned\": {}, \"hit_rate\": {:.3}, \"prune_rate\": {:.3}}},",
        cache.len(),
        stats.hits,
        stats.misses,
        stats.pruned,
        stats.hit_rate(),
        stats.prune_rate()
    );
    push_current_rows(
        &mut json,
        &multi_rows,
        reference.evaluations.len(),
        parallelism,
    );

    json.push_str("  \"large_campaign\": {\n");
    json.push_str(
        "    \"study\": \"campaign-scale study (14 cells, 1/2/4/8/16/32 MiB, SLC+MLC2, ReadEDP+WriteEDP+Area, 8x8 generic traffic sweep)\",\n",
    );
    let _ = writeln!(json, "    \"arrays\": {},", large_reference.arrays.len());
    let _ = writeln!(
        json,
        "    \"evaluations\": {},",
        large_reference.evaluations.len()
    );
    let _ = writeln!(
        json,
        "    \"kernel_reuse\": {{\"kernels\": {}, \"applications_per_kernel\": {}}},",
        large_reference.arrays.len(),
        if large_reference.arrays.is_empty() {
            0
        } else {
            large_reference.evaluations.len() / large_reference.arrays.len()
        }
    );
    let _ = writeln!(
        json,
        "    \"subarray_cache\": {{\"entries\": {}, \"hits\": {}, \"misses\": {}, \"pruned\": {}, \"hit_rate\": {:.3}, \"prune_rate\": {:.3}}},",
        large_cache.len(),
        large_stats.hits,
        large_stats.misses,
        large_stats.pruned,
        large_stats.hit_rate(),
        large_stats.prune_rate()
    );
    push_current_rows(
        &mut json,
        &large_rows,
        large_reference.evaluations.len(),
        parallelism,
    );

    json.push_str("  \"multi_study\": {\n");
    json.push_str(
        "    \"queue\": \"3 capacity-sliced studies (14 cells each, 1+2 / 2+4 / 4+8 MiB, SLC+MLC2, ReadEDP+WriteEDP+Area, 4x4 generic traffic sweep)\",\n",
    );
    json.push_str("    \"engines\": {\n");
    json.push_str(
        "      \"sequential\": \"3x StudyExecutor::run, one private SubarrayCache per study (pre-scheduler serving pattern)\",\n",
    );
    json.push_str(
        "      \"scheduler\": \"StudyScheduler, 2 lanes sharing the worker budget and one warm SubarrayCache\"\n",
    );
    json.push_str("    },\n");
    json.push_str("    \"cross_study_cache\": {\n");
    let _ = writeln!(
        json,
        "      \"aggregate\": {{\"hits\": {}, \"misses\": {}, \"pruned\": {}, \"hit_rate\": {:.3}, \"prune_rate\": {:.3}}},",
        campaign_stats.hits,
        campaign_stats.misses,
        campaign_stats.pruned,
        campaign_stats.hit_rate(),
        campaign_stats.prune_rate()
    );
    json.push_str("      \"per_study\": [\n");
    for (i, outcome) in campaign_report.outcomes.iter().enumerate() {
        let _ = writeln!(
            json,
            "        {{\"study\": \"{}\", \"hits\": {}, \"misses\": {}, \"pruned\": {}, \"hit_rate\": {:.3}}}{}",
            outcome.name,
            outcome.cache.hits,
            outcome.cache.misses,
            outcome.cache.pruned,
            outcome.cache_hit_rate(),
            if i + 1 < campaign_report.outcomes.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("      ]\n    },\n");
    json.push_str("    \"seeded_queue\": {\n");
    json.push_str(
        "      \"engine\": \"same queue, single lane, one shared IncumbentStore: capacity-overlapping design points seed their branch-and-bound scans from recorded winners (results byte-identical to the cold queue)\",\n",
    );
    let _ = writeln!(
        json,
        "      \"seed_store\": {{\"recorded\": {}, \"seeded_scans\": {}}},",
        seed_store_stats.recorded, seed_store_stats.seeded_scans
    );
    let _ = writeln!(
        json,
        "      \"aggregate\": {{\"hits\": {}, \"misses\": {}, \"pruned\": {}, \"hit_rate\": {:.3}, \"seeded_prune_rate\": {:.3}, \"cold_prune_rate\": {:.3}}},",
        seeded_stats.hits,
        seeded_stats.misses,
        seeded_stats.pruned,
        seeded_stats.hit_rate(),
        seeded_stats.prune_rate(),
        campaign_stats.prune_rate()
    );
    json.push_str("      \"per_study\": [\n");
    for (i, (cold, warm)) in campaign_report
        .outcomes
        .iter()
        .zip(&seeded_report.outcomes)
        .enumerate()
    {
        let _ = writeln!(
            json,
            "        {{\"study\": \"{}\", \"pruned\": {}, \"seeded_prune_rate\": {:.3}, \"cold_prune_rate\": {:.3}}}{}",
            warm.name,
            warm.cache.pruned,
            warm.cache.prune_rate(),
            cold.cache.prune_rate(),
            if i + 1 < seeded_report.outcomes.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("      ]\n    },\n");
    json.push_str("    \"results_ms_median\": [\n");
    for (i, (workers, sequential_ms, scheduler_ms)) in study_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"workers\": {workers}, \"sequential_ms\": {sequential_ms:.2}, \"scheduler_ms\": {scheduler_ms:.2}, \"speedup\": {:.2}, \"evaluations_per_sec\": {:.0}, \"oversubscribed\": {}}}{}",
            sequential_ms / scheduler_ms,
            evaluations_per_sec(queue_evaluations, *scheduler_ms),
            *workers > parallelism,
            if i + 1 < study_rows.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  },\n");

    json.push_str("  \"fault_campaign\": {\n");
    json.push_str(
        "    \"campaign\": \"fault study over the 3-target default study (14 cells x SLC+MLC2 x 25/85 C cell-derived models + 1 raw-BER point, 2 seeded trials per model)\",\n",
    );
    json.push_str(
        "    \"engine\": \"StudyExecutor::run_fault — slot-seeded injection trials fanned out on lanes; each trial corrupts, reloads, and re-evaluates the shared int8 classifier\",\n",
    );
    let _ = writeln!(
        json,
        "    \"models\": {},",
        fault_reference.fault.stats.models
    );
    let _ = writeln!(
        json,
        "    \"trials\": {},",
        fault_reference.fault.stats.trials
    );
    let _ = writeln!(
        json,
        "    \"degraded\": {},",
        fault_reference.fault.stats.degraded
    );
    json.push_str("    \"results_ms_median\": [\n");
    for (i, (threads, current_ms)) in fault_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"threads\": {threads}, \"current_ms\": {current_ms:.2}, \"trials_per_sec\": {:.1}, \"oversubscribed\": {}}}{}",
            evaluations_per_sec(fault_reference.fault.trials.len(), *current_ms),
            *threads > parallelism,
            if i + 1 < fault_rows.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  },\n");

    json.push_str("  \"store_campaign\": {\n");
    json.push_str(
        "    \"study\": \"the multi_capacity study run by simulated cold processes (fresh SubarrayCache per rep) against one persistent on-disk characterization store\",\n",
    );
    json.push_str("    \"engines\": {\n");
    json.push_str(
        "      \"cold_store\": \"fresh cache over an empty store dir: every slab characterized from scratch, then published via atomic temp+rename\",\n",
    );
    json.push_str(
        "      \"warm_store\": \"fresh cache (a new process's empty L1) over the published store: slab misses load from the on-disk L2 instead of recomputing\"\n",
    );
    json.push_str("    },\n");
    let _ = writeln!(
        json,
        "    \"cold_store_l2\": {{\"l2_hits\": {}, \"l2_misses\": {}, \"l2_rejects\": {}, \"slabs_published\": {}}},",
        cold_store_stats.l2_hits,
        cold_store_stats.l2_misses,
        cold_store_stats.l2_rejects,
        slabs_published
    );
    let _ = writeln!(
        json,
        "    \"warm_store_l2\": {{\"l2_hits\": {}, \"l2_misses\": {}, \"l2_rejects\": {}, \"l2_hit_rate\": {:.3}}},",
        warm_store_stats.l2_hits,
        warm_store_stats.l2_misses,
        warm_store_stats.l2_rejects,
        warm_l2_hit_rate
    );
    json.push_str("    \"results_ms_median\": [\n");
    for (i, (threads, cold_ms, warm_ms)) in store_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"threads\": {threads}, \"cold_store_ms\": {cold_ms:.2}, \"warm_store_ms\": {warm_ms:.2}, \"speedup\": {:.2}, \"oversubscribed\": {}}}{}",
            cold_ms / warm_ms,
            *threads > parallelism,
            if i + 1 < store_rows.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  }\n}\n");

    nvmexplorer_core::fsutil::write_file_atomic(std::path::Path::new(&out_path), json.as_bytes())
        .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    print!("{json}");
    let multi_one = multi_rows.iter().find(|(t, _)| *t == 1).unwrap();
    eprintln!(
        "multi-capacity at 1 thread: {:.2} ms, prune rate {:.1}%, cache hit rate {:.1}%",
        multi_one.1,
        stats.prune_rate() * 100.0,
        stats.hit_rate() * 100.0
    );
    let large_one = large_rows.iter().find(|(t, _)| *t == 1).unwrap();
    eprintln!(
        "large-campaign ({} evaluations) at 1 thread: {:.2} ms, {:.0} evaluations/s, prune rate {:.1}%",
        large_reference.evaluations.len(),
        large_one.1,
        evaluations_per_sec(large_reference.evaluations.len(), large_one.1),
        large_stats.prune_rate() * 100.0
    );
    let campaign_eight = study_rows.iter().find(|(w, ..)| *w == 8).unwrap();
    eprintln!(
        "multi-study scheduler at 8 workers: {:.2}x vs 3 sequential runs, cross-study hit rate {:.1}% (pre-pruning single-study baseline was 74.9%; pruning removed most redundant lookups)",
        campaign_eight.1 / campaign_eight.2,
        campaign_stats.hit_rate() * 100.0
    );
    eprintln!(
        "seeded campaign queue: aggregate prune rate {:.1}% (cold {:.1}%), {} scans seeded from {} recorded design points",
        seeded_stats.prune_rate() * 100.0,
        campaign_stats.prune_rate() * 100.0,
        seed_store_stats.seeded_scans,
        seed_store_stats.recorded
    );
    let fault_best_trials_per_sec = fault_rows
        .iter()
        .map(|(_, ms)| evaluations_per_sec(fault_reference.fault.trials.len(), *ms))
        .fold(0.0f64, f64::max);
    eprintln!(
        "fault campaign ({} models, {} trials, {} degraded): best {:.1} trials/s end-to-end",
        fault_reference.fault.stats.models,
        fault_reference.fault.stats.trials,
        fault_reference.fault.stats.degraded,
        fault_best_trials_per_sec
    );
    let store_one = store_rows.iter().find(|(t, ..)| *t == 1).unwrap();
    eprintln!(
        "store campaign: warm-store L2 hit rate {:.1}% ({} slabs published), cold {:.2} ms vs warm {:.2} ms at 1 thread ({:.2}x)",
        warm_l2_hit_rate * 100.0,
        slabs_published,
        store_one.1,
        store_one.2,
        store_one.1 / store_one.2
    );
    // --- Hard gates (machine-independent; enforced even under --quick) ----
    assert!(
        stats.prune_rate() >= PRUNE_RATE_FLOOR,
        "multi-capacity DSE prune rate {:.3} fell below the {PRUNE_RATE_FLOOR} floor — score bounds went loose",
        stats.prune_rate()
    );
    assert!(
        large_stats.prune_rate() >= PRUNE_RATE_FLOOR,
        "large-campaign DSE prune rate {:.3} fell below the {PRUNE_RATE_FLOOR} floor — score bounds went loose",
        large_stats.prune_rate()
    );
    // Pruning shrank the lookup stream (and skipped lookups were mostly
    // repeat hits), so the cross-study hit-rate floor is re-based from the
    // pre-pruning 0.749: the warm studies must still serve the majority of
    // their surviving lookups from the shared cache.
    assert!(
        campaign_stats.hit_rate() >= 0.60,
        "cross-study hit rate {:.3} regressed below the post-pruning floor",
        campaign_stats.hit_rate()
    );
    // Seeding gates: the seeded queue as a whole must clear its floor, and
    // every warm study (everything after the queue head) must prune
    // strictly more than its cold twin — otherwise the seeds never reached
    // the scans.
    assert!(
        seeded_stats.prune_rate() >= SEEDED_PRUNE_FLOOR,
        "seeded queue prune rate {:.3} fell below the {SEEDED_PRUNE_FLOOR} floor",
        seeded_stats.prune_rate()
    );
    for (cold, warm) in campaign_report
        .outcomes
        .iter()
        .zip(&seeded_report.outcomes)
        .skip(1)
    {
        assert!(
            warm.cache.prune_rate() > cold.cache.prune_rate(),
            "{}: seeded prune rate {:.3} did not exceed the cold rate {:.3}",
            warm.name,
            warm.cache.prune_rate(),
            cold.cache.prune_rate()
        );
    }
    // Throughput floor on the batched evaluation path (quick CI runs
    // included — the floor is far enough below any sane machine's figure
    // that only an engine regression can trip it).
    let best_evals_per_sec = large_rows
        .iter()
        .map(|(_, ms)| evaluations_per_sec(large_reference.evaluations.len(), *ms))
        .fold(0.0f64, f64::max);
    assert!(
        best_evals_per_sec >= EVALS_PER_SEC_FLOOR,
        "large-campaign evaluation throughput {best_evals_per_sec:.0}/s fell below the {EVALS_PER_SEC_FLOOR:.0}/s floor"
    );
    // Fault-campaign throughput floor: trips only if the trial loop regains
    // per-trial setup cost (e.g. rebuilding the classifier per injection).
    assert!(
        fault_best_trials_per_sec >= FAULT_TRIALS_PER_SEC_FLOOR,
        "fault-campaign trial throughput {fault_best_trials_per_sec:.1}/s fell below the {FAULT_TRIALS_PER_SEC_FLOOR:.1}/s floor"
    );
    // Store gates: a cold process attached to a warm store must actually
    // load slabs from disk (the PR 8 acceptance invariant), and must serve
    // essentially all of its slab misses from the L2.
    assert!(
        warm_store_stats.l2_hits > 0,
        "a cold process against the warm store loaded no slabs from the on-disk L2"
    );
    assert!(
        warm_l2_hit_rate >= WARM_STORE_L2_HIT_FLOOR,
        "warm-store L2 hit rate {warm_l2_hit_rate:.3} fell below the {WARM_STORE_L2_HIT_FLOOR} floor — the store key or the slab codec stopped round-tripping"
    );
    let _ = std::fs::remove_dir_all(&store_dir);
}
