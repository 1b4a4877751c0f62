//! Engine-level regression tests for the lock-free shared-DSE sweep:
//! thread-count determinism on a large multi-target study, and full
//! `StudyResult` equivalence against the serial exhaustive oracle
//! (`sweep::oracle`).

use nvmexplorer_core::config::{
    ArraySettings, CellSelection, Constraints, StudyConfig, TrafficSpec,
};
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmexplorer_core::sweep::{oracle, StudyResult};
use nvmx_nvsim::{OptimizationTarget, SubarrayCache};
use nvmx_units::BitsPerCell;

/// A study large enough to exercise real worker interleaving: the full
/// default cell selection, two capacities, both programming depths, three
/// optimization targets, and a 3×3 generic traffic sweep.
fn large_study() -> StudyConfig {
    StudyConfig {
        name: "engine-regression".into(),
        cells: CellSelection::default(),
        array: ArraySettings {
            capacities_mib: vec![4, 1],
            bits_per_cell: vec![BitsPerCell::Mlc2, BitsPerCell::Slc],
            targets: vec![
                OptimizationTarget::WriteEdp,
                OptimizationTarget::ReadEdp,
                OptimizationTarget::Leakage,
            ],
            ..ArraySettings::default()
        },
        traffic: TrafficSpec::GenericSweep {
            read_min: 1.0e8,
            read_max: 10.0e9,
            read_steps: 3,
            write_min: 1.0e6,
            write_max: 100.0e6,
            write_steps: 3,
            access_bytes: 64,
        },
        constraints: Constraints::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

fn assert_results_identical(a: &StudyResult, b: &StudyResult) {
    assert_eq!(a.arrays.len(), b.arrays.len(), "array count");
    for (x, y) in a.arrays.iter().zip(&b.arrays) {
        assert_eq!(x, y, "array mismatch: {} vs {}", x.summary(), y.summary());
    }
    assert_eq!(a.evaluations, b.evaluations, "evaluations");
    assert_eq!(a.skipped, b.skipped, "skipped");
}

#[test]
fn large_multi_target_study_is_deterministic_from_1_to_16_threads() {
    let study = large_study();
    let serial = StudyExecutor::with_threads(1)
        .run(&study, &mut NullSink)
        .unwrap();
    // The default selection spans 14 cells × 2 capacities × 2 depths ×
    // 3 targets; make sure the study is actually big enough to interleave.
    assert!(
        serial.arrays.len() > 100,
        "got {} arrays",
        serial.arrays.len()
    );
    assert!(!serial.skipped.is_empty(), "SRAM at MLC-2 must be skipped");
    for threads in [2, 4, 8, 16] {
        let parallel = StudyExecutor::with_threads(threads).run(&study, &mut NullSink);
        assert_results_identical(&serial, &parallel.unwrap());
    }
}

#[test]
fn shared_cache_reuses_subarray_physics_across_capacities_and_runs() {
    let study = large_study();
    let cache = SubarrayCache::new();
    let first = StudyExecutor::with_threads(8)
        .cache(&cache)
        .run(&study, &mut NullSink)
        .unwrap();
    let cold = cache.stats();
    assert!(cold.misses > 0, "cold run must characterize something");
    // Two capacities × two depths per cell share one geometry space: the
    // ISSUE target is ≥ 75 % reuse on a 4-capacity study; even this
    // 2-capacity study must already reuse a substantial fraction.
    assert!(
        cold.hit_rate() > 0.40,
        "cold-run hit rate {:.2} too low for a 2-capacity, 2-depth study",
        cold.hit_rate()
    );

    // A second run over the same cache is served entirely from memory and
    // still produces byte-identical results.
    let second = StudyExecutor::with_threads(8)
        .cache(&cache)
        .run(&study, &mut NullSink)
        .unwrap();
    assert_results_identical(&first, &second);
    let warm = cache.stats();
    assert_eq!(
        warm.misses, cold.misses,
        "warm run must not characterize anything new"
    );
    assert!(warm.hits > cold.hits);
}

#[test]
fn engine_matches_the_oracle_byte_for_byte_from_1_to_16_threads() {
    let study = large_study();
    let reference = oracle::run_study(&study).unwrap();
    for threads in [1, 8, 16] {
        let engine = StudyExecutor::with_threads(threads)
            .run(&study, &mut NullSink)
            .unwrap();
        assert_results_identical(&engine, &reference);
    }
}
