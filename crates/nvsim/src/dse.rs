//! Internal-organization design-space exploration: enumerate candidate
//! subarray geometries and bank compositions, filter invalid ones, and keep
//! the best under each optimization target.
//!
//! The scan is a **branch-and-bound streaming pass**: candidates are
//! visited in the deterministic enumeration order, and a candidate is fully
//! characterized only when at least one target's provably-sound score
//! lower bound ([`crate::bounds`]) says it could still beat that target's
//! incumbent. Skipped candidates are proven non-winners, so winners — and
//! everything derived from them — are byte-identical to the exhaustive
//! scan of [`oracle`], which tests and bench sanity checks compare against.
//! Nothing is materialized per candidate: incumbents hold lightweight
//! [`Bank`] records, and only each target's winner is packaged into a full
//! result.

use crate::bank::{Bank, Organization};
use crate::bounds::{BoundContext, IncumbentStore, TargetSeed};
use crate::cache::SubarrayCache;
use crate::result::{ArrayCharacterization, OptimizationTarget};
use crate::subarray::Subarray;
use crate::technology::{lookup, TechnologyParams};
use crate::{ArrayConfig, CharacterizationError};
use nvmx_celldb::CellDefinition;
use nvmx_units::{Joules, Ratio, Seconds, SquareMillimeters, Watts};

/// Candidate geometry axes. Modest powers of two: real NVSim sweeps the same
/// shape space. `pub(crate)` so [`crate::cache`] can slot the grid into a
/// fixed-size table.
pub(crate) const ROW_CHOICES: [usize; 5] = [128, 256, 512, 1024, 2048];
pub(crate) const COL_CHOICES: [usize; 5] = [256, 512, 1024, 2048, 4096];
pub(crate) const MUX_CHOICES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Upper bound on bank subarray count (beyond this the H-tree model stops
/// being credible and the design is silly anyway).
const MAX_SUBARRAYS: usize = 8192;

/// Minimum cell-area fraction a candidate organization must reach
/// (NVSim-style sanity constraint: designs below it drown the cells in
/// periphery). When no candidate qualifies, the constraint is dropped so
/// characterization always returns a design.
const MIN_AREA_EFFICIENCY: f64 = 0.25;

/// [`enumerate_organizations`] plus each candidate's cache-slab slot
/// (derived for free from the loop indices, so the cached scan never has to
/// search the choice arrays).
pub(crate) fn enumerate_organizations_indexed(config: &ArrayConfig) -> Vec<(Organization, usize)> {
    let capacity_cells = config.capacity.cells(config.bits_per_cell);
    let word_bits = config.word_bits;
    let mut orgs = Vec::new();

    for (row_idx, rows) in ROW_CHOICES.into_iter().enumerate() {
        for (col_idx, cols) in COL_CHOICES.into_iter().enumerate() {
            let cells_per_sub = (rows * cols) as u64;
            if cells_per_sub > capacity_cells {
                continue;
            }
            let total = capacity_cells.div_ceil(cells_per_sub) as usize;
            if total > MAX_SUBARRAYS {
                continue;
            }
            for (mux_idx, mux) in MUX_CHOICES.into_iter().enumerate() {
                if mux > cols {
                    continue;
                }
                let sensed = cols / mux;
                let bits_per_sub = sensed as u64 * u64::from(config.bits_per_cell.bits());
                // Don't sense more than 4× the word (grossly wasteful), and
                // the active group must be able to supply the word.
                if bits_per_sub > word_bits * 4 {
                    continue;
                }
                let active = word_bits.div_ceil(bits_per_sub) as usize;
                if active > total || active > 64 {
                    continue;
                }
                orgs.push((
                    Organization {
                        rows,
                        cols,
                        mux,
                        active_subarrays: active,
                        total_subarrays: total,
                    },
                    crate::cache::grid_slot(row_idx, col_idx, mux_idx),
                ));
            }
        }
    }
    orgs
}

/// Enumerates all valid organizations under `config`.
///
/// Candidate validity is purely geometric (capacity coverage, mux bounds,
/// sensing-vs-word-width sanity), so the enumeration is cell-independent;
/// the access-transistor drive constraint is deliberately not a filter —
/// write-driver sizing already folds current needs into energy/area.
pub fn enumerate_organizations(config: &ArrayConfig) -> Vec<Organization> {
    enumerate_organizations_indexed(config)
        .into_iter()
        .map(|(org, _)| org)
        .collect()
}

/// Characterizes one organization into a full result record labeled
/// `target`, with the technology table resolved by the caller (sweeps over
/// many organizations at one node look it up once).
pub fn characterize_organization(
    tech: &TechnologyParams,
    cell: &CellDefinition,
    config: &ArrayConfig,
    org: Organization,
    target: OptimizationTarget,
) -> ArrayCharacterization {
    let sub = Subarray::characterize(
        tech,
        cell,
        org.rows,
        org.cols,
        org.mux,
        config.bits_per_cell,
    );
    let bank = Bank::compose(tech, sub, org, config.word_bits);
    package(cell, config, bank, target)
}

/// Materializes one characterized bank into the full result record. Called
/// once per *winner* — the candidate scan itself never packages (and never
/// clones the cell-name/flavor strings).
fn package(
    cell: &CellDefinition,
    config: &ArrayConfig,
    bank: Bank,
    target: OptimizationTarget,
) -> ArrayCharacterization {
    ArrayCharacterization {
        cell_name: cell.name.clone(),
        technology: cell.technology,
        flavor: cell.flavor.clone(),
        capacity: config.capacity,
        node_nm: config.node.value() * 1.0e9,
        bits_per_cell: config.bits_per_cell,
        target,
        word_bits: config.word_bits,
        read_latency: Seconds::new(bank.read_latency),
        write_latency: Seconds::new(bank.write_latency),
        read_cycle: Seconds::new(bank.read_cycle),
        write_cycle: Seconds::new(bank.write_cycle),
        read_energy: Joules::new(bank.read_energy),
        write_energy: Joules::new(bank.write_energy),
        leakage: Watts::new(bank.leakage),
        area: SquareMillimeters::from_square_meters(bank.area),
        area_efficiency: Ratio::new(bank.area_efficiency),
        read_bandwidth: bank.read_bandwidth,
        write_bandwidth: bank.write_bandwidth,
        endurance_cycles: cell.endurance_cycles,
        retention: cell.retention,
        nonvolatile: cell.is_nonvolatile(),
        organization: bank.organization,
    }
}

/// The metric a characterized bank would score under `target`, bit-for-bit
/// equal to packaging the bank into an [`ArrayCharacterization`] and calling
/// [`ArrayCharacterization::score`] — the unit wrappers are transparent
/// `f64` newtypes, and the one lossy-looking case (area, scored in mm²)
/// applies the identical conversion [`package`] would.
fn bank_score(bank: &Bank, target: OptimizationTarget) -> f64 {
    match target {
        OptimizationTarget::ReadLatency => bank.read_latency,
        OptimizationTarget::WriteLatency => bank.write_latency,
        OptimizationTarget::ReadEnergy => bank.read_energy,
        OptimizationTarget::WriteEnergy => bank.write_energy,
        OptimizationTarget::ReadEdp => bank.read_energy * bank.read_latency,
        OptimizationTarget::WriteEdp => bank.write_energy * bank.write_latency,
        OptimizationTarget::Area => SquareMillimeters::from_square_meters(bank.area).value(),
        OptimizationTarget::Leakage => bank.leakage,
    }
}

/// Per-target incumbents of the streaming scan. Mirrors the two-chain
/// selection rule of the exhaustive scan exactly: `best` tracks the first
/// strictly-better candidate meeting [`MIN_AREA_EFFICIENCY`], and
/// `best_unconstrained` tracks the overall first strictly-better candidate
/// (the fallback when nothing qualifies). Incumbents own their [`Bank`]
/// (plain data, no heap) because the scan no longer materializes a
/// candidate vector to index into.
struct TargetScan {
    target: OptimizationTarget,
    best: Option<(f64, Bank)>,
    best_unconstrained: Option<(f64, Bank)>,
}

impl TargetScan {
    fn new(target: OptimizationTarget) -> Self {
        Self {
            target,
            best: None,
            best_unconstrained: None,
        }
    }

    /// A scan whose incumbents start at a prior identical pass's **final**
    /// chains ([`TargetSeed`]). The scan then behaves exactly as if it had
    /// already visited the winning candidates: no later candidate scores
    /// strictly below a recorded minimum, and equal scores never displace
    /// an incumbent (first-strictly-better rule), so the final winner is
    /// byte-identical to the cold scan's — while [`Self::provably_loses`]
    /// prunes against the final winner from the first candidate on.
    fn seeded(target: OptimizationTarget, seed: TargetSeed) -> Self {
        Self {
            target,
            best: seed.best,
            best_unconstrained: seed.best_unconstrained,
        }
    }

    /// The scan's final chains, cloned for recording into an
    /// [`IncumbentStore`].
    fn to_seed(&self) -> TargetSeed {
        TargetSeed {
            best: self.best.clone(),
            best_unconstrained: self.best_unconstrained.clone(),
        }
    }

    /// Offers one characterized candidate, replicating the exhaustive
    /// scan's first-strictly-better update rule (so ties resolve to the
    /// earlier candidate, identically).
    fn offer(&mut self, bank: &Bank) {
        let score = bank_score(bank, self.target);
        let improves = |incumbent: &Option<(f64, Bank)>| match incumbent {
            None => true,
            Some((incumbent_score, _)) => score < *incumbent_score,
        };
        if Ratio::new(bank.area_efficiency).value() >= MIN_AREA_EFFICIENCY && improves(&self.best) {
            self.best = Some((score, bank.clone()));
        }
        if improves(&self.best_unconstrained) {
            self.best_unconstrained = Some((score, bank.clone()));
        }
    }

    /// `true` when `bound` (a sound lower bound on a candidate's score)
    /// proves the candidate cannot change this target's final winner:
    /// an incumbent qualifies under the area-efficiency constraint and the
    /// candidate's score cannot be strictly below it. While no candidate
    /// qualifies yet, nothing is skippable — the candidate might become the
    /// first qualified incumbent regardless of score.
    fn provably_loses(&self, bound: f64) -> bool {
        match &self.best {
            None => false,
            Some((incumbent_score, _)) => bound >= *incumbent_score,
        }
    }

    /// The winning bank: the best qualified candidate, else the best
    /// overall — exactly `best.or(best_unconstrained)`.
    fn into_winner(self) -> Option<Bank> {
        self.best.or(self.best_unconstrained).map(|(_, bank)| bank)
    }
}

/// Rejects a programming depth the cell cannot store.
fn check_depth(cell: &CellDefinition, config: &ArrayConfig) -> Result<(), CharacterizationError> {
    if cell.supports(config.bits_per_cell) {
        Ok(())
    } else {
        Err(CharacterizationError::UnsupportedBitsPerCell {
            cell: cell.name.clone(),
            requested: config.bits_per_cell,
            supported: cell.max_bits_per_cell,
        })
    }
}

fn no_valid_organization(cell: &CellDefinition, config: &ArrayConfig) -> CharacterizationError {
    CharacterizationError::NoValidOrganization {
        cell: cell.name.clone(),
        capacity: config.capacity,
    }
}

/// Runs the organization search **once** and returns the best design under
/// each of `targets`, in order.
///
/// This is the one design-space pass: subarray and bank characterization
/// do not depend on the optimization target (the target only selects
/// among candidates), so an N-target sweep costs one enumeration pass
/// instead of N. The pass is a branch-and-bound streaming scan: candidates
/// are visited in deterministic enumeration order, and one is
/// characterized only when some target's score lower bound
/// ([`crate::bounds`]) leaves it a chance of beating that target's
/// incumbent. A skipped candidate is *proven* unable to change any winner,
/// so results are byte-identical to the exhaustive scan
/// ([`oracle::characterize_targets`]), for any target subset.
///
/// Subarray physics are memoized in `cache`: every job of a multi-capacity
/// study that needs the same `(cell, node, geometry, depth)` reuses one
/// characterization. Pruning composes with the cache — a pruned candidate
/// neither hits nor populates it — and prune counts are recorded next to
/// the hit/miss counters ([`CacheStats::pruned`](crate::cache::CacheStats)).
///
/// With `seeds` present, each target's scan starts from the **final**
/// incumbent chains a prior *identical* pass recorded — same cell,
/// technology node, programming depth, capacity, and word width
/// ([`IncumbentStore`] keys on exactly those, so non-overlapping design
/// points simply run cold). A seed carries the recorded winning bank, so
/// the scan behaves as if it had already visited the winner: winners stay
/// byte-identical to a cold scan (proptested in
/// `tests/prune_equivalence.rs`), while the pre-tightened incumbents let
/// the score bounds prune every candidate that cannot beat the final
/// winner. Completed passes record their chains back into the store
/// (write-once), so a multi-study queue warms itself as it runs.
///
/// # Errors
///
/// [`CharacterizationError::UnsupportedBitsPerCell`] when the cell cannot
/// store `config.bits_per_cell`, and
/// [`CharacterizationError::NoValidOrganization`] when the geometry space
/// cannot realize the capacity; a failed pass records nothing.
pub fn characterize_targets(
    cell: &CellDefinition,
    config: &ArrayConfig,
    targets: &[OptimizationTarget],
    cache: &SubarrayCache,
    seeds: Option<&IncumbentStore>,
) -> Result<Vec<ArrayCharacterization>, CharacterizationError> {
    if targets.is_empty() {
        return Ok(Vec::new());
    }
    check_depth(cell, config)?;
    let orgs = enumerate_organizations_indexed(config);
    if orgs.is_empty() {
        return Err(no_valid_organization(cell, config));
    }
    let tech = lookup(config.node);
    let bounds = BoundContext::new(&tech, cell, config.bits_per_cell, config.word_bits);
    // One outer-map access per pass; candidate lookups inside the session
    // are a pre-computed slot index plus an atomic load.
    let mut session = cache.session(cell, &tech, config.bits_per_cell);
    let mut scans: Vec<TargetScan> = targets
        .iter()
        .map(
            |&t| match seeds.and_then(|store| store.lookup(cell, &tech, config, t)) {
                Some(seed) => TargetScan::seeded(t, seed),
                None => TargetScan::new(t),
            },
        )
        .collect();
    for (org, slot) in orgs {
        // Branch and bound: skip full characterization when every target's
        // bound proves the candidate a non-winner. The bound check runs in
        // target order and stops at the first target that still needs the
        // candidate.
        let provably_loses = scans
            .iter()
            .all(|scan| scan.provably_loses(bounds.score_bound(&org, slot, scan.target)));
        if provably_loses {
            session.note_pruned();
            continue;
        }
        let sub = session.lookup(Some(slot), org.rows, org.cols, org.mux);
        let bank = Bank::compose(&tech, sub, org, config.word_bits);
        for scan in &mut scans {
            scan.offer(&bank);
        }
    }
    let mut results = Vec::with_capacity(scans.len());
    for scan in scans {
        let target = scan.target;
        // Record before consuming the scan; the write is deferred until
        // every target resolved, so a failed pass records nothing.
        let seed = seeds.map(|_| scan.to_seed());
        let bank = scan
            .into_winner()
            .ok_or_else(|| no_valid_organization(cell, config))?;
        results.push((target, seed, package(cell, config, bank, target)));
    }
    if let Some(store) = seeds {
        for (target, seed, _) in &results {
            if let Some(seed) = seed {
                store.record(cell, &tech, config, *target, seed.clone());
            }
        }
    }
    Ok(results.into_iter().map(|(_, _, array)| array).collect())
}

/// The reference the production scan is proven against: one exhaustive,
/// uncached, unpruned pass that characterizes **every** candidate into a
/// full record and picks each target's winner with
/// [`ArrayCharacterization::score`] under the same two-chain
/// `MIN_AREA_EFFICIENCY` rule (first strictly-better qualified
/// candidate, else first strictly-better overall). Slow and obviously
/// correct; only tests and bench sanity checks call it. Not part of the
/// supported API.
#[doc(hidden)]
pub mod oracle {
    use super::{
        characterize_organization, check_depth, enumerate_organizations, no_valid_organization,
        MIN_AREA_EFFICIENCY,
    };
    use crate::result::{ArrayCharacterization, OptimizationTarget};
    use crate::technology::lookup;
    use crate::{ArrayConfig, CharacterizationError};
    use nvmx_celldb::CellDefinition;

    /// The best design under each of `targets`, in order — what
    /// [`characterize_targets`](super::characterize_targets) must return
    /// bit for bit, on a cold or warm cache, with or without seeds.
    ///
    /// # Errors
    ///
    /// Same conditions as [`characterize_targets`](super::characterize_targets).
    pub fn characterize_targets(
        cell: &CellDefinition,
        config: &ArrayConfig,
        targets: &[OptimizationTarget],
    ) -> Result<Vec<ArrayCharacterization>, CharacterizationError> {
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        check_depth(cell, config)?;
        let tech = lookup(config.node);
        let candidates: Vec<ArrayCharacterization> = enumerate_organizations(config)
            .into_iter()
            .map(|org| characterize_organization(&tech, cell, config, org, targets[0]))
            .collect();
        if candidates.is_empty() {
            return Err(no_valid_organization(cell, config));
        }
        Ok(targets
            .iter()
            .map(|&target| {
                let mut best: Option<&ArrayCharacterization> = None;
                let mut best_unconstrained: Option<&ArrayCharacterization> = None;
                for candidate in &candidates {
                    let improves = |incumbent: Option<&ArrayCharacterization>| {
                        incumbent.is_none_or(|i| candidate.score(target) < i.score(target))
                    };
                    if candidate.area_efficiency.value() >= MIN_AREA_EFFICIENCY && improves(best) {
                        best = Some(candidate);
                    }
                    if improves(best_unconstrained) {
                        best_unconstrained = Some(candidate);
                    }
                }
                let mut winner = best
                    .or(best_unconstrained)
                    .expect("a non-empty candidate set has a winner")
                    .clone();
                winner.target = target;
                winner
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize;
    use crate::result::OptimizationTarget;
    use nvmx_celldb::{custom, tentpole, CellFlavor, TechnologyClass};
    use nvmx_units::{BitsPerCell, Capacity, Meters};

    fn cfg() -> ArrayConfig {
        ArrayConfig {
            capacity: Capacity::from_mebibytes(2),
            word_bits: 128,
            node: Meters::from_nano(22.0),
            bits_per_cell: BitsPerCell::Slc,
        }
    }

    fn stt() -> CellDefinition {
        tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap()
    }

    #[test]
    fn enumeration_is_nonempty_and_valid() {
        let orgs = enumerate_organizations(&cfg());
        assert!(orgs.len() > 20, "{} orgs", orgs.len());
        for org in &orgs {
            assert!(org.active_subarrays <= org.total_subarrays);
            assert!(org.mux <= org.cols);
            let cap = org.total_subarrays as u64 * (org.rows * org.cols) as u64;
            assert!(cap >= Capacity::from_mebibytes(2).bits(), "covers capacity");
        }
    }

    #[test]
    fn optimize_respects_target() {
        let cell = stt();
        let lat = characterize(&cell, &cfg(), OptimizationTarget::ReadLatency).unwrap();
        let energy = characterize(&cell, &cfg(), OptimizationTarget::ReadEnergy).unwrap();
        let area = characterize(&cell, &cfg(), OptimizationTarget::Area).unwrap();
        assert!(lat.read_latency.value() <= energy.read_latency.value());
        assert!(energy.read_energy.value() <= lat.read_energy.value());
        assert!(area.area.value() <= lat.area.value());
    }

    #[test]
    fn mlc_unsupported_for_sram() {
        let sram = custom::sram_16nm();
        let mut config = cfg();
        config.bits_per_cell = BitsPerCell::Mlc2;
        let err = characterize(&sram, &config, OptimizationTarget::ReadLatency).unwrap_err();
        assert!(matches!(
            err,
            CharacterizationError::UnsupportedBitsPerCell { .. }
        ));
    }

    #[test]
    fn pruned_scan_matches_the_oracle() {
        // Cold-cache, warm-cache, and seeded (recording, then warm) scans
        // must pick and package exactly the exhaustive oracle's winners, at
        // every supported depth.
        let cell = stt();
        for depth in [BitsPerCell::Slc, BitsPerCell::Mlc2] {
            let config = cfg().with_bits_per_cell(depth);
            let targets = OptimizationTarget::ALL;
            let reference = oracle::characterize_targets(&cell, &config, &targets).unwrap();
            let cache = SubarrayCache::new();
            let seeds = IncumbentStore::new();
            let runs = [
                characterize_targets(&cell, &config, &targets, &cache, None).unwrap(),
                characterize_targets(&cell, &config, &targets, &cache, None).unwrap(),
                characterize_targets(&cell, &config, &targets, &cache, Some(&seeds)).unwrap(),
                characterize_targets(&cell, &config, &targets, &cache, Some(&seeds)).unwrap(),
            ];
            for run in runs {
                assert_eq!(run, reference, "scan diverged from the oracle at {depth:?}");
            }
        }
        let mut sram = cfg();
        sram.bits_per_cell = BitsPerCell::Mlc2;
        let cache = SubarrayCache::new();
        assert_eq!(
            oracle::characterize_targets(&custom::sram_16nm(), &sram, &OptimizationTarget::ALL),
            characterize_targets(
                &custom::sram_16nm(),
                &sram,
                &OptimizationTarget::ALL,
                &cache,
                None
            ),
        );
    }

    #[test]
    fn cached_pass_is_bit_identical_and_hits_on_reuse() {
        let cell = stt();
        let config = cfg();
        let cache = SubarrayCache::new();
        let reference =
            oracle::characterize_targets(&cell, &config, &OptimizationTarget::ALL).unwrap();
        let cold =
            characterize_targets(&cell, &config, &OptimizationTarget::ALL, &cache, None).unwrap();
        let warm =
            characterize_targets(&cell, &config, &OptimizationTarget::ALL, &cache, None).unwrap();
        assert_eq!(reference, cold);
        assert_eq!(reference, warm);
        let stats = cache.stats();
        assert_eq!(
            stats.misses as usize,
            cache.len(),
            "every miss memoizes exactly one geometry"
        );
        assert_eq!(
            stats.hits, stats.misses,
            "second pass must be served entirely from the cache"
        );
    }

    #[test]
    fn bank_score_matches_packaged_score_for_every_target() {
        let cell = stt();
        let config = cfg();
        let tech = lookup(config.node);
        for org in enumerate_organizations(&config).into_iter().take(8) {
            let sub = Subarray::characterize(
                &tech,
                &cell,
                org.rows,
                org.cols,
                org.mux,
                config.bits_per_cell,
            );
            let bank = Bank::compose(&tech, sub, org, config.word_bits);
            let packaged = package(
                &cell,
                &config,
                bank.clone(),
                OptimizationTarget::ReadLatency,
            );
            for target in OptimizationTarget::ALL {
                assert_eq!(
                    bank_score(&bank, target).to_bits(),
                    packaged.score(target).to_bits(),
                    "score drift for {target} at {org}"
                );
            }
        }
    }

    #[test]
    fn area_optimized_design_trades_latency() {
        // Paper Sec. V-B: lower area efficiency correlates with lower
        // latency; conversely the area-optimal point is slower.
        let cell = stt();
        let area_opt = characterize(&cell, &cfg(), OptimizationTarget::Area).unwrap();
        let lat_opt = characterize(&cell, &cfg(), OptimizationTarget::ReadLatency).unwrap();
        assert!(area_opt.read_latency.value() >= lat_opt.read_latency.value());
        assert!(area_opt.area_efficiency.value() >= lat_opt.area_efficiency.value());
    }
}
