//! Property proof for the subarray characterization cache: cached
//! shared-DSE passes must return winners bit-identical to the exhaustive,
//! uncached oracle (`dse::oracle`) for random tentpole cells, capacities,
//! programming depths, and target subsets — cold cache, warm cache, and
//! cache shared across capacities alike.

use nvmx_celldb::{survey, tentpole};
use nvmx_nvsim::dse::oracle;
use nvmx_nvsim::{characterize_targets, ArrayConfig, OptimizationTarget, SubarrayCache};
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

    #[test]
    fn cached_winners_are_bit_identical_to_the_oracle(
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

        let cache = SubarrayCache::new();
        let uncached = oracle::characterize_targets(cell, &config, &targets);
        let cold = characterize_targets(cell, &config, &targets, &cache, None);
        let warm = characterize_targets(cell, &config, &targets, &cache, None);

        match (uncached, cold, warm) {
            (Ok(reference), Ok(cold), Ok(warm)) => {
                prop_assert_eq!(&reference, &cold, "cold cache diverged for {}", &cell.name);
                prop_assert_eq!(&reference, &warm, "warm cache diverged for {}", &cell.name);
            }
            (Err(reference), Err(cold), Err(warm)) => {
                prop_assert_eq!(&reference, &cold);
                prop_assert_eq!(&reference, &warm);
            }
            _ => prop_assert!(
                false,
                "cache flipped success/failure for {} at {}",
                &cell.name,
                config.capacity
            ),
        }
    }

    #[test]
    fn one_cache_shared_across_the_capacity_axis_stays_identical(
        cell_pick in 0usize..64,
        target_mask in 1u32..256,
    ) {
        let cells = tentpole::tentpoles(survey::database());
        let cell = &cells[cell_pick % cells.len()];
        let targets = target_subset(target_mask);
        let cache = SubarrayCache::new();
        for mib in [1u64, 2, 4, 8] {
            let config = ArrayConfig::new(Capacity::from_mebibytes(mib));
            let reference = oracle::characterize_targets(cell, &config, &targets).unwrap();
            let cached = characterize_targets(cell, &config, &targets, &cache, None).unwrap();
            prop_assert_eq!(reference, cached, "divergence at {} MiB for {}", mib, &cell.name);
        }
    }

    /// The counter invariant the pruned scan must uphold: every enumerated
    /// candidate either hit the cache, missed it, or was pruned —
    /// `hits + misses + pruned == candidates` — for any cell, capacity,
    /// depth, and target subset, cold and warm alike.
    #[test]
    fn hit_miss_prune_counters_account_for_every_candidate(
        cell_pick in 0usize..64,
        cap_exp in 0u32..4,
        depth_pick in 0usize..2,
        target_mask in 1u32..256,
    ) {
        let cells = tentpole::tentpoles(survey::database());
        let cell = &cells[cell_pick % cells.len()];
        let depth = [BitsPerCell::Slc, BitsPerCell::Mlc2][depth_pick];
        if cell.supports(depth) {
            let targets = target_subset(target_mask);
            let config = ArrayConfig::new(Capacity::from_mebibytes(1 << cap_exp))
                .with_bits_per_cell(depth);
            let candidates =
                nvmx_nvsim::dse::enumerate_organizations(&config).len() as u64;
            let cache = SubarrayCache::new();

            characterize_targets(cell, &config, &targets, &cache, None).unwrap();
            let cold = cache.stats();
            prop_assert_eq!(
                cold.candidates(), candidates,
                "cold pass dropped candidates for {}: {:?}", &cell.name, cold
            );

            characterize_targets(cell, &config, &targets, &cache, None).unwrap();
            let warm = cache.stats().since(cold);
            prop_assert_eq!(
                warm.candidates(), candidates,
                "warm pass dropped candidates for {}: {:?}", &cell.name, warm
            );
            // Pruning decisions are deterministic, so the warm pass prunes
            // the same set and serves every surviving lookup from the
            // cache.
            prop_assert_eq!(warm.pruned, cold.pruned, "prune set must be deterministic");
            prop_assert_eq!(warm.misses, 0u64, "warm pass must not re-characterize");
        }
    }
}

/// The ISSUE-level reuse claim: a tentpole-wide, 4-capacity, 2-depth study
/// shares the large majority of its subarray characterizations through the
/// cache (the geometry space barely depends on capacity).
///
/// Branch-and-bound pruning (PR 5) re-based this gate from 0.70 to 0.60:
/// pruning skips the cache entirely for provably-losing candidates, and
/// the skipped lookups were disproportionately *hits* (a geometry that
/// survives at one capacity is often pruned at the next, so the cheap
/// repeat lookups vanish from the denominator). Measured after pruning:
/// 67.3 % hit rate over ~4.1k lookups with 69 % of the 13.3k candidates
/// pruned — i.e. far less total work, at a slightly lower *rate* on what
/// remains.
#[test]
fn four_capacity_study_reuses_most_subarray_characterizations() {
    let cells = tentpole::tentpoles(survey::database());
    let cache = SubarrayCache::new();
    for cell in &cells {
        for depth in [BitsPerCell::Slc, BitsPerCell::Mlc2] {
            if !cell.supports(depth) {
                continue;
            }
            for mib in [1u64, 2, 4, 8] {
                let config =
                    ArrayConfig::new(Capacity::from_mebibytes(mib)).with_bits_per_cell(depth);
                characterize_targets(cell, &config, &OptimizationTarget::ALL, &cache, None)
                    .unwrap();
            }
        }
    }
    let stats = cache.stats();
    assert!(
        stats.hit_rate() >= 0.60,
        "expected ≥ 60% reuse across 4 capacities, got {:.1}% ({} hits / {} lookups)",
        stats.hit_rate() * 100.0,
        stats.hits,
        stats.lookups()
    );
    assert!(
        stats.prune_rate() >= 0.60,
        "expected ≥ 60% pruning across 4 capacities, got {:.1}% ({} of {})",
        stats.prune_rate() * 100.0,
        stats.pruned,
        stats.candidates()
    );
}
