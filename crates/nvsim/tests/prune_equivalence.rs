//! Property proof for branch-and-bound DSE pruning: the pruned streaming
//! scan must return bit-identical winners to the exhaustive oracle scan
//! (`dse::oracle`) for random tentpole cells, capacities, programming
//! depths, and target subsets — through a fresh subarray cache — and the
//! score lower bounds driving the pruning must never exceed the true
//! scores.

use nvmx_celldb::{survey, tentpole};
use nvmx_nvsim::bounds::BoundContext;
use nvmx_nvsim::dse::{enumerate_organizations, oracle};
use nvmx_nvsim::{
    characterize_targets, ArrayConfig, IncumbentStore, OptimizationTarget, SubarrayCache,
};
use nvmx_units::{BitsPerCell, Capacity};
use proptest::prelude::*;

fn target_subset(mask: u32) -> Vec<OptimizationTarget> {
    OptimizationTarget::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, target)| target)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole guarantee: pruning never changes a winner, bit for bit.
    /// (Warm and shared caches are `cache_equivalence`'s subject.)
    #[test]
    fn pruned_winners_are_bit_identical_to_unpruned(
        cell_pick in 0usize..64,
        cap_exp in 0u32..4,
        depth_pick in 0usize..2,
        target_mask in 1u32..256,
    ) {
        let cells = tentpole::tentpoles(survey::database());
        let cell = &cells[cell_pick % cells.len()];
        let depth = [BitsPerCell::Slc, BitsPerCell::Mlc2][depth_pick];
        let targets = target_subset(target_mask);
        let config = ArrayConfig::new(Capacity::from_mebibytes(1 << cap_exp))
            .with_bits_per_cell(depth);

        let unpruned = oracle::characterize_targets(cell, &config, &targets);
        let pruned = characterize_targets(cell, &config, &targets, &SubarrayCache::new(), None);

        match (unpruned, pruned) {
            (Ok(reference), Ok(pruned)) => {
                prop_assert_eq!(&reference, &pruned, "pruned scan diverged for {}", &cell.name);
            }
            (Err(reference), Err(pruned)) => {
                prop_assert_eq!(&reference, &pruned);
            }
            _ => prop_assert!(
                false,
                "pruning flipped success/failure for {} at {}",
                &cell.name,
                config.capacity
            ),
        }
    }

    /// Cross-pass incumbent seeding must not move a bit either: a
    /// recording pass (cold store) and a fully warm pass (seeded from the
    /// recording pass's winners) both return exactly what the unseeded
    /// scan returns, for random cells, capacities, depths, and target
    /// subsets.
    #[test]
    fn seeded_winners_are_bit_identical_to_cold(
        cell_pick in 0usize..64,
        cap_exp in 0u32..4,
        depth_pick in 0usize..2,
        target_mask in 1u32..256,
    ) {
        let cells = tentpole::tentpoles(survey::database());
        let cell = &cells[cell_pick % cells.len()];
        let depth = [BitsPerCell::Slc, BitsPerCell::Mlc2][depth_pick];
        let targets = target_subset(target_mask);
        let config = ArrayConfig::new(Capacity::from_mebibytes(1 << cap_exp))
            .with_bits_per_cell(depth);

        let cold_cache = SubarrayCache::new();
        let cold = characterize_targets(cell, &config, &targets, &cold_cache, None);

        let warm_cache = SubarrayCache::new();
        let seeds = IncumbentStore::new();
        let recording = characterize_targets(cell, &config, &targets, &warm_cache, Some(&seeds));
        let warm = characterize_targets(cell, &config, &targets, &warm_cache, Some(&seeds));

        match (cold, recording, warm) {
            (Ok(reference), Ok(recording), Ok(warm)) => {
                prop_assert_eq!(
                    &reference, &recording,
                    "recording pass diverged for {}", &cell.name
                );
                prop_assert_eq!(&reference, &warm, "warm pass diverged for {}", &cell.name);
                prop_assert_eq!(seeds.len(), targets.len(), "one seed per target");
            }
            (Err(reference), Err(recording), Err(warm)) => {
                prop_assert_eq!(&reference, &recording);
                prop_assert_eq!(&reference, &warm);
                prop_assert!(seeds.is_empty(), "failed passes must record nothing");
            }
            _ => prop_assert!(
                false,
                "seeding flipped success/failure for {} at {}",
                &cell.name,
                config.capacity
            ),
        }
    }

    /// Soundness of the bounds themselves, against full characterization:
    /// pruning needs `bound ≤ score` for every target (with Area promised
    /// bit-exact), for every enumerated candidate of a random design
    /// point. A failure here means `bounds.rs` drifted from
    /// `subarray.rs`/`bank.rs`/`wire.rs`.
    #[test]
    fn score_bounds_never_exceed_true_scores(
        cell_pick in 0usize..64,
        cap_exp in 0u32..4,
        depth_pick in 0usize..2,
    ) {
        let cells = tentpole::tentpoles(survey::database());
        let cell = &cells[cell_pick % cells.len()];
        let depth = [BitsPerCell::Slc, BitsPerCell::Mlc2][depth_pick];
        if cell.supports(depth) {
            let config = ArrayConfig::new(Capacity::from_mebibytes(1 << cap_exp))
                .with_bits_per_cell(depth);
            let tech = nvmx_nvsim::technology::lookup(config.node);
            let bounds = BoundContext::new(&tech, cell, depth, config.word_bits);
            for org in enumerate_organizations(&config) {
                // `characterize_organization` packages through the exact
                // bank metrics the scan compares against, so `score` here
                // is the scan's true score bit-for-bit.
                let packaged = nvmx_nvsim::dse::characterize_organization(
                    &tech,
                    cell,
                    &config,
                    org,
                    OptimizationTarget::ReadEdp,
                );
                for target in OptimizationTarget::ALL {
                    let bound = bounds
                        .score_bound_for(&org, target)
                        .expect("enumerated orgs are on-grid");
                    let truth = packaged.score(target);
                    prop_assert!(
                        bound <= truth,
                        "{}: bound {:e} exceeds true score {:e} for {} at {}",
                        &cell.name, bound, truth, target, org
                    );
                    if target == OptimizationTarget::Area {
                        prop_assert!(
                            bound.to_bits() == truth.to_bits(),
                            "{}: Area bound must be exact at {}",
                            &cell.name, org
                        );
                    }
                }
            }
        }
    }
}

/// Pruning must actually fire on the bread-and-butter design point, not
/// just be sound: a full 8-target pass over a 2 MiB STT array should skip
/// a solid majority of its candidates.
#[test]
fn pruning_skips_most_candidates_on_the_default_design_point() {
    let cell = tentpole::tentpole_cell(
        nvmx_celldb::TechnologyClass::Stt,
        nvmx_celldb::CellFlavor::Optimistic,
    )
    .unwrap();
    let config = ArrayConfig::new(Capacity::from_mebibytes(2));
    let cache = SubarrayCache::new();
    characterize_targets(&cell, &config, &OptimizationTarget::ALL, &cache, None).unwrap();
    let stats = cache.stats();
    let candidates = enumerate_organizations(&config).len() as u64;
    assert_eq!(
        stats.candidates(),
        candidates,
        "hits + misses + pruned must account for every candidate"
    );
    assert!(
        stats.prune_rate() > 0.5,
        "expected >50% pruning on the default design point, got {:.1}% ({} of {})",
        stats.prune_rate() * 100.0,
        stats.pruned,
        candidates
    );
}

/// The warm-pass payoff: re-running the default design point seeded from
/// its own recorded winners returns identical results while pruning
/// strictly more candidates than the cold pass — the bound check now
/// compares against the final winner from candidate one.
#[test]
fn warm_pass_prunes_strictly_more_with_identical_results() {
    let cell = tentpole::tentpole_cell(
        nvmx_celldb::TechnologyClass::Stt,
        nvmx_celldb::CellFlavor::Optimistic,
    )
    .unwrap();
    let config = ArrayConfig::new(Capacity::from_mebibytes(2));
    let cache = SubarrayCache::new();
    let seeds = IncumbentStore::new();

    let cold = characterize_targets(
        &cell,
        &config,
        &OptimizationTarget::ALL,
        &cache,
        Some(&seeds),
    )
    .unwrap();
    let cold_stats = cache.stats();
    assert_eq!(seeds.len(), OptimizationTarget::ALL.len());
    assert_eq!(seeds.stats().recorded, OptimizationTarget::ALL.len() as u64);

    let warm = characterize_targets(
        &cell,
        &config,
        &OptimizationTarget::ALL,
        &cache,
        Some(&seeds),
    )
    .unwrap();
    let warm_stats = cache.stats().since(cold_stats);
    assert_eq!(cold, warm, "seeding must not change a single winner");
    assert_eq!(
        seeds.stats().seeded_scans,
        OptimizationTarget::ALL.len() as u64,
        "the warm pass seeds every target's scan"
    );

    let candidates = enumerate_organizations(&config).len() as u64;
    assert_eq!(
        warm_stats.candidates(),
        candidates,
        "hits + misses + pruned still account for every candidate"
    );
    assert!(
        warm_stats.prune_rate() > cold_stats.prune_rate(),
        "warm prune rate {:.3} must exceed cold {:.3}",
        warm_stats.prune_rate(),
        cold_stats.prune_rate()
    );
}

/// Seeds key on the full design point: a different capacity shares no
/// incumbents, runs exactly as cold, and records its own entries.
#[test]
fn different_capacity_never_seeds() {
    let cell = tentpole::tentpole_cell(
        nvmx_celldb::TechnologyClass::Rram,
        nvmx_celldb::CellFlavor::Pessimistic,
    )
    .unwrap();
    let seeds = IncumbentStore::new();
    let cache = SubarrayCache::new();
    let two = ArrayConfig::new(Capacity::from_mebibytes(2));
    let four = ArrayConfig::new(Capacity::from_mebibytes(4));

    characterize_targets(&cell, &two, &OptimizationTarget::ALL, &cache, Some(&seeds)).unwrap();
    let recorded_after_first = seeds.stats().recorded;

    let seeded =
        characterize_targets(&cell, &four, &OptimizationTarget::ALL, &cache, Some(&seeds)).unwrap();
    assert_eq!(
        seeds.stats().seeded_scans,
        0,
        "a 4 MiB pass must not look warm from 2 MiB seeds"
    );
    assert_eq!(
        seeds.stats().recorded,
        recorded_after_first + OptimizationTarget::ALL.len() as u64,
        "the new design point records its own seeds"
    );
    let cold = characterize_targets(&cell, &four, &OptimizationTarget::ALL, &cache, None).unwrap();
    assert_eq!(seeded, cold);
}
