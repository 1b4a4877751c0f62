//! Proof obligations for the structure-of-arrays batched evaluation path:
//! [`EvalKernel::apply_batch`] over a [`TrafficGrid`] is bit-identical per
//! field to the one scalar entry point, [`evaluate`], on each lane's
//! pattern, over adversarial grids: zero-traffic lanes,
//! infinite-endurance SRAM, 1-lane and 64+-lane grids, and shared
//! [`RateLanes`].

use nvmexplorer_core::eval::{evaluate, EvalKernel, Evaluation, RateLanes};
use nvmx_celldb::{custom, survey, tentpole};
use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
use nvmx_units::Capacity;
use nvmx_workloads::{TrafficGrid, TrafficPattern};
use proptest::prelude::*;
use std::sync::Arc;

/// `PartialEq` on [`Evaluation`] already fails on any differing bit unless
/// a field is NaN-equal-NaN; pin the float-derived fields through `to_bits`
/// so even that corner cannot hide a divergence.
fn assert_bit_identical(a: &Evaluation, b: &Evaluation, what: &str) {
    assert_eq!(a, b, "{what}: evaluations must compare equal");
    assert_eq!(
        a.array_reads_per_sec.to_bits(),
        b.array_reads_per_sec.to_bits(),
        "{what}: reads/sec"
    );
    assert_eq!(
        a.array_writes_per_sec.to_bits(),
        b.array_writes_per_sec.to_bits(),
        "{what}: writes/sec"
    );
    assert_eq!(
        a.read_power.value().to_bits(),
        b.read_power.value().to_bits(),
        "{what}: read power"
    );
    assert_eq!(
        a.write_power.value().to_bits(),
        b.write_power.value().to_bits(),
        "{what}: write power"
    );
    assert_eq!(
        a.utilization.to_bits(),
        b.utilization.to_bits(),
        "{what}: utilization"
    );
    assert_eq!(
        a.lifetime_years().to_bits(),
        b.lifetime_years().to_bits(),
        "{what}: lifetime"
    );
}

/// A lane spec the proptest strategies produce: possibly forced to zero
/// traffic, otherwise random rates at one of four access granularities.
fn lane_pattern(
    index: usize,
    read: f64,
    write: f64,
    abytes_pick: usize,
    zeroed: bool,
) -> TrafficPattern {
    let access_bytes = [4u64, 8, 64, 256][abytes_pick % 4];
    if zeroed {
        TrafficPattern::new(format!("lane-{index}-idle"), 0.0, 0.0, access_bytes)
    } else {
        TrafficPattern::new(format!("lane-{index}"), read, write, access_bytes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole guarantee: one batched application over the grid's
    /// columnar lanes produces, per lane, the exact evaluation `evaluate`
    /// produces for that lane's pattern — including zero-traffic lanes and
    /// 1-lane grids.
    #[test]
    fn apply_batch_is_bit_identical_to_evaluate(
        cell_pick in 0usize..64,
        cap_exp in 0u32..4,
        target_pick in 0usize..OptimizationTarget::ALL.len(),
        lanes in proptest::collection::vec(
            (0.0f64..20.0e9, 0.0f64..2.0e9, 0usize..4, any::<bool>()),
            1..80,
        ),
    ) {
        let cells = tentpole::tentpoles(survey::database());
        let cell = &cells[cell_pick % cells.len()];
        let config = ArrayConfig::new(Capacity::from_mebibytes(1 << cap_exp));
        if let Ok(array) = characterize(cell, &config, OptimizationTarget::ALL[target_pick]) {
            let patterns: Vec<TrafficPattern> = lanes
                .iter()
                .enumerate()
                .map(|(i, &(r, w, a, z))| lane_pattern(i, r, w, a, z))
                .collect();
            let grid = TrafficGrid::new(&patterns);
            let kernel = EvalKernel::new(&Arc::new(array.clone()));
            let batched = kernel.apply_batch(&grid);
            prop_assert_eq!(batched.len(), grid.len());
            // Shared rate lanes (the sweep engine's form) must not change
            // anything either.
            let rates = RateLanes::new(&grid, kernel.word_bits());
            let batched_shared = kernel.apply_batch_with(&grid, &rates);
            for (lane, pattern) in patterns.iter().enumerate() {
                let scalar = evaluate(&array, pattern);
                assert_bit_identical(
                    &batched[lane],
                    &scalar,
                    &format!("{} lane {lane}", &cell.name),
                );
                assert_bit_identical(
                    &batched_shared[lane],
                    &scalar,
                    &format!("{} shared-rates lane {lane}", &cell.name),
                );
            }
        }
    }
}

/// Infinite-endurance SRAM and zero-write lanes are the lifetime corners:
/// SRAM never reports a lifetime, and zero writes mean unlimited lifetime
/// on any cell — the batched path must reproduce both `None`s exactly.
#[test]
fn sram_and_zero_write_lanes_match_scalar_lifetimes() {
    let sram = custom::sram_16nm();
    let config = ArrayConfig::new(Capacity::from_mebibytes(2));
    let array =
        characterize(&sram, &config, OptimizationTarget::ReadEdp).expect("SRAM characterizes");
    let patterns = vec![
        TrafficPattern::new("busy", 4.0e9, 1.0e8, 64),
        TrafficPattern::new("read-only", 4.0e9, 0.0, 64),
        TrafficPattern::new("idle", 0.0, 0.0, 64),
    ];
    let grid = TrafficGrid::new(&patterns);
    let kernel = EvalKernel::new(&Arc::new(array.clone()));
    let batched = kernel.apply_batch(&grid);
    for (lane, pattern) in patterns.iter().enumerate() {
        let scalar = evaluate(&array, pattern);
        assert!(scalar.lifetime.is_none(), "SRAM endurance is unlimited");
        assert_bit_identical(&batched[lane], &scalar, &format!("SRAM lane {lane}"));
    }

    // A finite-endurance NVM still reports no lifetime on zero-write lanes.
    let cells = tentpole::tentpoles(survey::database());
    let nvm = cells
        .iter()
        .find(|cell| cell.endurance_cycles.is_finite())
        .expect("tentpoles include endurance-limited cells");
    let array = characterize(nvm, &config, OptimizationTarget::ReadEdp).expect("NVM characterizes");
    let kernel = EvalKernel::new(&Arc::new(array.clone()));
    let batched = kernel.apply_batch(&grid);
    for (lane, pattern) in patterns.iter().enumerate() {
        let scalar = evaluate(&array, pattern);
        assert_bit_identical(&batched[lane], &scalar, &format!("NVM lane {lane}"));
        assert_eq!(
            scalar.lifetime.is_some(),
            pattern.write_bytes_per_sec > 0.0,
            "lifetime is reported exactly when the lane writes"
        );
    }
}

/// An empty grid batches to an empty evaluation set.
#[test]
fn empty_grid_batches_to_nothing() {
    let cells = tentpole::tentpoles(survey::database());
    let config = ArrayConfig::new(Capacity::from_mebibytes(1));
    let array = Arc::new(
        characterize(&cells[0], &config, OptimizationTarget::ReadEdp).expect("characterizes"),
    );
    let kernel = EvalKernel::new(&array);
    assert!(kernel.apply_batch(&TrafficGrid::new(&[])).is_empty());
}
