//! Proof obligations for the branch-and-bound + evaluation-kernel engine:
//!
//! 1. [`EvalKernel`] applications are bit-identical to [`evaluate`] over
//!    random arrays × traffic points.
//! 2. The full pruned+kernel engine ([`StudyExecutor::run`]), cold and
//!    incumbent-seeded, returns a [`StudyResult`] byte-identical to the
//!    serial exhaustive oracle ([`oracle::run_study`]) at 1 and 16
//!    threads.

use nvmexplorer_core::config::{ArraySettings, CellSelection, StudyConfig, TrafficSpec};
use nvmexplorer_core::eval::{evaluate, EvalKernel};
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmexplorer_core::sweep::{oracle, StudyResult};
use nvmx_celldb::{survey, tentpole};
use nvmx_nvsim::{characterize, ArrayConfig, IncumbentStore, OptimizationTarget, SubarrayCache};
use nvmx_units::{BitsPerCell, Capacity};
use nvmx_workloads::{TrafficGrid, TrafficPattern};
use proptest::prelude::*;
use std::sync::Arc;

fn assert_identical(a: &StudyResult, b: &StudyResult, what: &str) {
    assert_eq!(a.arrays, b.arrays, "{what}: arrays must be byte-identical");
    assert_eq!(
        a.evaluations, b.evaluations,
        "{what}: evaluations must be byte-identical"
    );
    assert_eq!(a.skipped, b.skipped, "{what}: skipped must agree");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kernel hoisting must not move a single bit: every field of the
    /// produced [`Evaluation`] — including the endurance-limited lifetime
    /// and the infeasible-utilization corner — matches `evaluate`.
    #[test]
    fn kernel_is_bit_identical_to_evaluate(
        cell_pick in 0usize..64,
        cap_exp in 0u32..4,
        target_pick in 0usize..OptimizationTarget::ALL.len(),
        read_mbps in 1.0e6f64..20.0e9,
        write_mbps in 0.0f64..2.0e9,
        abytes_pick in 0usize..4,
    ) {
        let cells = tentpole::tentpoles(survey::database());
        let cell = &cells[cell_pick % cells.len()];
        let access_bytes = [4u64, 8, 64, 256][abytes_pick];
        let config = ArrayConfig::new(Capacity::from_mebibytes(1 << cap_exp));
        if let Ok(array) = characterize(cell, &config, OptimizationTarget::ALL[target_pick]) {
            let traffic = TrafficPattern::new("prop", read_mbps, write_mbps, access_bytes);
            let kernel = EvalKernel::new(&Arc::new(array.clone()));
            let from_kernel = kernel
                .apply_batch(&TrafficGrid::new(std::slice::from_ref(&traffic)))
                .remove(0);
            let reference = evaluate(&array, &traffic);
            prop_assert_eq!(&from_kernel, &reference, "kernel diverged for {}", &cell.name);
            // PartialEq would treat NaN fields as unequal, so a passing
            // compare already proves bit-level agreement for these inputs;
            // pin the two float-heavy derived fields explicitly anyway.
            prop_assert_eq!(
                from_kernel.utilization.to_bits(),
                reference.utilization.to_bits()
            );
            prop_assert_eq!(
                from_kernel.lifetime_years().to_bits(),
                reference.lifetime_years().to_bits()
            );
        }
    }
}

fn stress_study() -> StudyConfig {
    StudyConfig {
        name: "prune-kernel-equivalence".into(),
        cells: CellSelection::default(),
        array: ArraySettings {
            capacities_mib: vec![4, 1],
            bits_per_cell: vec![BitsPerCell::Mlc2, BitsPerCell::Slc],
            targets: vec![
                OptimizationTarget::WriteEdp,
                OptimizationTarget::ReadEdp,
                OptimizationTarget::Area,
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
            access_bytes: 8,
        },
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

/// The engine-level guarantee behind the perf claim: pruning, the
/// subarray cache, and batched kernels change nothing the study reports,
/// at single-threaded and heavily fanned-out execution alike.
#[test]
fn pruned_batched_engine_matches_the_oracle_at_1_and_16_threads() {
    let study = stress_study();
    let reference = oracle::run_study(&study).expect("oracle runs");
    for threads in [1usize, 16] {
        let current = StudyExecutor::with_threads(threads)
            .run(&study, &mut NullSink)
            .expect("engine runs");
        assert_identical(&current, &reference, &format!("{threads} threads"));
    }
}

/// Incumbent seeding must be invisible in the results: recording and
/// fully warm seeded runs both match the oracle at 1 and 16 threads. The
/// first loop records the seeds; the second runs entirely warm against
/// them.
#[test]
fn seeded_engine_matches_the_oracle_at_1_and_16_threads() {
    let study = stress_study();
    let reference = oracle::run_study(&study).expect("oracle runs");
    let cache = SubarrayCache::new();
    let seeds = IncumbentStore::new();
    for round in ["recording", "warm"] {
        for threads in [1usize, 16] {
            let seeded = StudyExecutor::with_threads(threads)
                .cache(&cache)
                .seeds(&seeds)
                .run(&study, &mut NullSink)
                .expect("seeded engine runs");
            assert_identical(
                &seeded,
                &reference,
                &format!("{round} at {threads} threads"),
            );
        }
    }
    assert!(
        !seeds.is_empty(),
        "the study's design points must have recorded incumbents"
    );
}
