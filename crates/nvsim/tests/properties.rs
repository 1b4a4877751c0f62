//! Property-based tests for the array simulator: physical monotonicities
//! and invariants over random geometries and configurations.

use nvmx_celldb::{custom, survey, tentpole, CellFlavor, TechnologyClass};
use nvmx_nvsim::subarray::Subarray;
use nvmx_nvsim::technology::lookup;
use nvmx_nvsim::{
    characterize, characterize_targets, ArrayConfig, OptimizationTarget, SubarrayCache,
};
use nvmx_units::{BitsPerCell, Capacity, Meters};
use proptest::prelude::*;

fn stt() -> nvmx_celldb::CellDefinition {
    tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).expect("surveyed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn subarray_metrics_are_positive_and_finite(
        rows_exp in 5u32..12,
        cols_exp in 5u32..12,
        mux_exp in 0u32..4,
    ) {
        let rows = 1usize << rows_exp;
        let cols = 1usize << cols_exp;
        let mux = (1usize << mux_exp).min(cols);
        let tech = lookup(Meters::from_nano(22.0));
        let sub = Subarray::characterize(&tech, &stt(), rows, cols, mux, BitsPerCell::Slc);
        for v in [
            sub.read_latency, sub.write_latency, sub.read_energy,
            sub.write_energy, sub.leakage, sub.total_area(),
        ] {
            prop_assert!(v.is_finite() && v > 0.0, "non-physical metric {v}");
        }
        prop_assert!(sub.read_cycle >= sub.read_latency);
        prop_assert!(sub.write_cycle >= sub.write_latency);
        prop_assert!((0.0..=1.0).contains(&sub.area_efficiency()));
        prop_assert_eq!(sub.capacity_bits(), (rows * cols) as u64);
    }

    #[test]
    fn more_rows_never_speed_up_reads(cols_exp in 6u32..12, mux_exp in 0u32..3) {
        let cols = 1usize << cols_exp;
        let mux = (1usize << mux_exp).min(cols);
        let tech = lookup(Meters::from_nano(22.0));
        let small = Subarray::characterize(&tech, &stt(), 128, cols, mux, BitsPerCell::Slc);
        let large = Subarray::characterize(&tech, &stt(), 2048, cols, mux, BitsPerCell::Slc);
        prop_assert!(large.read_latency >= small.read_latency);
        prop_assert!(large.leakage >= small.leakage);
    }

    #[test]
    fn bigger_capacity_needs_more_area_and_leaks_more(cap_exp in 1u64..6) {
        let small_cfg = ArrayConfig::new(Capacity::from_mebibytes(1 << (cap_exp - 1)));
        let large_cfg = ArrayConfig::new(Capacity::from_mebibytes(1 << cap_exp));
        let cell = stt();
        let small = characterize(&cell, &small_cfg, OptimizationTarget::ReadEdp).expect("characterizes");
        let large = characterize(&cell, &large_cfg, OptimizationTarget::ReadEdp).expect("characterizes");
        prop_assert!(large.area.value() > small.area.value());
        prop_assert!(large.leakage.value() > small.leakage.value());
        prop_assert_eq!(large.capacity.bits(), 2 * small.capacity.bits());
    }

    #[test]
    fn optimizer_never_loses_to_itself(target_idx in 0usize..8) {
        // The design chosen for target T must score at least as well on T
        // as designs chosen for any other target.
        let target = OptimizationTarget::ALL[target_idx];
        let cell = stt();
        let config = ArrayConfig::new(Capacity::from_mebibytes(2));
        let chosen = characterize(&cell, &config, target).expect("ok");
        for other in OptimizationTarget::ALL {
            let alt = characterize(&cell, &config, other).expect("ok");
            prop_assert!(
                chosen.score(target) <= alt.score(target) * (1.0 + 1e-9),
                "{target}: chosen {} vs {other}-optimized {}",
                chosen.score(target),
                alt.score(target)
            );
        }
    }

    #[test]
    fn node_scaling_shrinks_arrays(node_a in 16.0..30.0f64, node_b in 30.0..65.0f64) {
        let cell = stt();
        let config = ArrayConfig::new(Capacity::from_mebibytes(2));
        let fine = characterize(&cell, &config.with_node(Meters::from_nano(node_a)), OptimizationTarget::ReadEdp).expect("ok");
        let coarse = characterize(&cell, &config.with_node(Meters::from_nano(node_b)), OptimizationTarget::ReadEdp).expect("ok");
        prop_assert!(fine.area.value() < coarse.area.value());
        prop_assert!(fine.density_mbit_per_mm2() > coarse.density_mbit_per_mm2());
    }

    #[test]
    fn mlc_always_denser_than_slc(cap_exp in 1u64..5) {
        let cell = tentpole::tentpole_cell(TechnologyClass::Rram, CellFlavor::Optimistic)
            .expect("surveyed");
        let config = ArrayConfig::new(Capacity::from_mebibytes(1 << cap_exp));
        let slc = characterize(&cell, &config, OptimizationTarget::ReadEdp).expect("ok");
        let mlc = characterize(&cell, &config.with_bits_per_cell(BitsPerCell::Mlc2), OptimizationTarget::ReadEdp).expect("ok");
        prop_assert!(mlc.density_mbit_per_mm2() > slc.density_mbit_per_mm2());
        prop_assert!(mlc.read_latency.value() > slc.read_latency.value());
    }
}

/// Physical invariants of every characterized array across the whole cell
/// survey: every tentpole cell plus the SRAM baseline (at its native
/// 16 nm), the industry RRAM reference, and the back-gated FeFET, at each
/// supported depth, under all eight targets, from 1 to 32 MiB. Every
/// latency, cycle, energy, leakage, area, and bandwidth is finite and
/// non-negative, area efficiency is a fraction, and area grows strictly
/// with capacity. (Leakage is deliberately not required to grow: the
/// target may pick a leaner organization at the larger capacity.)
#[test]
fn survey_wide_arrays_are_physical_and_grow_with_capacity() {
    let mut cells = tentpole::tentpoles(survey::database());
    cells.extend([
        custom::sram_16nm(),
        custom::reference_rram(),
        custom::back_gated_fefet(),
    ]);
    let mut checked = 0;
    for cell in &cells {
        let node = if cell.technology == TechnologyClass::Sram {
            Meters::from_nano(16.0)
        } else {
            Meters::from_nano(22.0)
        };
        for depth in BitsPerCell::ALL.into_iter().filter(|&d| cell.supports(d)) {
            let mut previous: Option<Vec<f64>> = None;
            for mib in [1u64, 2, 4, 8, 16, 32] {
                let config = ArrayConfig::new(Capacity::from_mebibytes(mib))
                    .with_node(node)
                    .with_bits_per_cell(depth);
                let arrays = characterize_targets(
                    cell,
                    &config,
                    &OptimizationTarget::ALL,
                    &SubarrayCache::new(),
                    None,
                )
                .unwrap_or_else(|e| panic!("{} {depth:?} {mib} MiB: {e}", cell.name));
                for array in &arrays {
                    let at = format!("{} {depth:?} {mib} MiB {}", cell.name, array.target);
                    for (metric, value) in [
                        ("read latency", array.read_latency.value()),
                        ("write latency", array.write_latency.value()),
                        ("read cycle", array.read_cycle.value()),
                        ("write cycle", array.write_cycle.value()),
                        ("read energy", array.read_energy.value()),
                        ("write energy", array.write_energy.value()),
                        ("leakage", array.leakage.value()),
                        ("area", array.area.value()),
                        ("read bandwidth", array.read_bandwidth),
                        ("write bandwidth", array.write_bandwidth),
                    ] {
                        assert!(
                            value.is_finite() && value >= 0.0,
                            "{at}: {metric} = {value}"
                        );
                    }
                    let efficiency = array.area_efficiency.value();
                    assert!(
                        (0.0..=1.0).contains(&efficiency),
                        "{at}: efficiency {efficiency}"
                    );
                }
                let areas: Vec<f64> = arrays.iter().map(|a| a.area.value()).collect();
                if let Some(smaller) = &previous {
                    for ((small, large), array) in smaller.iter().zip(&areas).zip(&arrays) {
                        assert!(
                            large > small,
                            "{} {depth:?} {}: area {small} at {} MiB vs {large} at {mib} MiB",
                            cell.name,
                            array.target,
                            mib / 2
                        );
                    }
                }
                previous = Some(areas);
                checked += arrays.len();
            }
        }
    }
    assert_eq!(checked, 1680, "arrays checked across the survey");
}
