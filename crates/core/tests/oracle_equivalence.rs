//! The engine against the oracle over generated studies: random cell
//! subsets (SRAM at MLC-2 included, so skips are exercised), capacities,
//! programming depths, target subsets, traffic grids, and access sizes.
//! Three engine variants must each reproduce `sweep::oracle::run_study`
//! exactly — `arrays`, `evaluations`, and `skipped`:
//!
//! 1. the cold engine (private cache, no seeds);
//! 2. the warm seeded engine (a second pass over a shared cache and an
//!    `IncumbentStore` its first pass recorded into);
//! 3. the store-backed engine (a fresh process's cache over a persistent
//!    store an earlier run published to).

use nvmexplorer_core::config::{ArraySettings, CellSelection, StudyConfig, TrafficSpec};
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmexplorer_core::sweep::{oracle, StudyError, StudyResult};
use nvmx_celldb::TechnologyClass;
use nvmx_nvsim::{IncumbentStore, OptimizationTarget, SubarrayCache};
use nvmx_units::BitsPerCell;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const CAPACITIES_MIB: [u64; 6] = [1, 2, 4, 8, 16, 32];
const DEPTHS: [BitsPerCell; 2] = [BitsPerCell::Slc, BitsPerCell::Mlc2];

/// Members of `items` whose bit is set in `mask`.
fn subset<T: Copy>(items: &[T], mask: u32) -> Vec<T> {
    items
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &item)| item)
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn generated_study(
    tech_mask: u32,
    extras: (bool, bool, bool),
    capacity_mask: u32,
    depth_mask: u32,
    target_mask: u32,
    steps: (u32, u32),
    rates: (f64, f64, f64, f64),
    abytes_pick: usize,
) -> StudyConfig {
    let (reference_rram, sram_baseline, back_gated_fefet) = extras;
    let (read_min, read_span, write_min, write_span) = rates;
    StudyConfig {
        name: "oracle-equivalence".into(),
        cells: CellSelection {
            technologies: Some(subset(&TechnologyClass::ALL, tech_mask)),
            tentpoles: true,
            reference_rram,
            sram_baseline,
            back_gated_fefet,
            custom: Vec::new(),
        },
        array: ArraySettings {
            capacities_mib: subset(&CAPACITIES_MIB, capacity_mask),
            bits_per_cell: subset(&DEPTHS, depth_mask),
            targets: subset(&OptimizationTarget::ALL, target_mask),
            ..ArraySettings::default()
        },
        traffic: TrafficSpec::GenericSweep {
            read_min,
            read_max: read_min * read_span,
            read_steps: steps.0 as usize,
            write_min,
            write_max: write_min * write_span,
            write_steps: steps.1 as usize,
            access_bytes: [4u64, 8, 64, 256][abytes_pick],
        },
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

fn assert_identical(engine: &StudyResult, reference: &StudyResult, what: &str) {
    assert_eq!(engine.arrays, reference.arrays, "{what}: arrays");
    assert_eq!(
        engine.evaluations, reference.evaluations,
        "{what}: evaluations"
    );
    assert_eq!(engine.skipped, reference.skipped, "{what}: skipped");
}

/// A fresh store directory per case, removed when dropped.
struct StoreDir(std::path::PathBuf);

impl StoreDir {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        Self(std::env::temp_dir().join(format!(
            "nvmx_oracle_equivalence_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_engine_variant_reproduces_the_oracle(
        tech_mask in 0u32..256,
        extras in (any::<bool>(), any::<bool>(), any::<bool>()),
        capacity_mask in 1u32..64,
        depth_mask in 1u32..4,
        target_mask in 1u32..256,
        steps in (1u32..4, 1u32..4),
        rates in (1.0e7f64..1.0e9, 1.0f64..50.0, 0.0f64..1.0e7, 1.0f64..100.0),
        abytes_pick in 0usize..4,
        threads in 1usize..17,
    ) {
        let study = generated_study(
            tech_mask, extras, capacity_mask, depth_mask, target_mask, steps, rates, abytes_pick,
        );
        let reference = match oracle::run_study(&study) {
            Ok(reference) => reference,
            Err(error) => {
                // An empty selection must fail the engine the same way.
                let engine = StudyExecutor::with_threads(threads).run(&study, &mut NullSink);
                prop_assert!(
                    matches!(
                        (&error, &engine),
                        (StudyError::NoCells, Err(StudyError::NoCells))
                            | (StudyError::NoTraffic, Err(StudyError::NoTraffic))
                    ),
                    "oracle failed with {error}, engine with {engine:?}"
                );
                return;
            }
        };

        let cold = StudyExecutor::with_threads(threads)
            .run(&study, &mut NullSink)
            .expect("cold engine runs");
        assert_identical(&cold, &reference, "cold");

        let cache = SubarrayCache::new();
        let seeds = IncumbentStore::new();
        let seeded = StudyExecutor::with_threads(threads).cache(&cache).seeds(&seeds);
        seeded.run(&study, &mut NullSink).expect("recording pass runs");
        let warm = seeded.run(&study, &mut NullSink).expect("warm pass runs");
        assert_identical(&warm, &reference, "warm seeded");

        // A fresh store-backed executor per run: the second run's slabs
        // come from disk, not from the first run's in-memory cache.
        let store = StoreDir::new();
        let run_stored = || {
            StudyExecutor::with_threads(threads)
                .store(&store.0)
                .expect("store opens")
                .run(&study, &mut NullSink)
        };
        run_stored().expect("publishing run");
        let stored = run_stored().expect("store-backed run");
        assert_identical(&stored, &reference, "store-backed");
    }
}
