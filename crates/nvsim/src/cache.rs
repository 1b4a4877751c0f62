//! Sweep-wide memoization of subarray characterizations.
//!
//! [`crate::subarray::Subarray::characterize`] depends only on the
//! technology node, the cell, the subarray geometry, and the programming
//! depth — **not** on the array capacity, word width, or optimization
//! target. A multi-capacity study therefore re-derives the same ~150
//! subarray geometries for every `(cell, capacity)` job; this module
//! computes each unique geometry once per study and shares it across every
//! job that needs it.
//!
//! Every design-space pass runs through a cache:
//! [`characterize_targets`](crate::characterize_targets) takes one, and
//! [`characterize`](crate::characterize) makes a fresh one per call.
//!
//! # Layout
//!
//! The cache is two-level, exploiting the fact that the DSE geometry space
//! is a small fixed grid (the `dse` module's `ROW_CHOICES` ×
//! `COL_CHOICES` × `MUX_CHOICES`):
//!
//! 1. an outer read-mostly map `(cell fingerprint, node, depth) →` slab,
//!    consulted **once per design-space pass** (when the pass opens its
//!    per-slab session), and
//! 2. an inner *slab*: a fixed array of [`OnceLock`]-slotted geometries,
//!    so the per-candidate hot path is an index computation plus one
//!    acquire load — no hashing, no locks, no contention under the sweep
//!    engine's atomic-index fan-out.
//!
//! Characterization is deterministic, so racing workers that miss the same
//! slot initialize it with bit-identical values ([`OnceLock`] keeps the
//! first); results never depend on thread interleaving. Geometries off the
//! DSE grid are characterized directly (counted as misses, never stored) —
//! correctness does not require the grid, it is purely a fast path.

use crate::dse::{COL_CHOICES, MUX_CHOICES, ROW_CHOICES};
use crate::store::CharacterizationStore;
use crate::subarray::Subarray;
use crate::technology::TechnologyParams;
use nvmx_celldb::CellDefinition;
use nvmx_units::BitsPerCell;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Slots in one geometry slab: the full DSE grid.
pub(crate) const SLOTS: usize = ROW_CHOICES.len() * COL_CHOICES.len() * MUX_CHOICES.len();

/// Slab slot of a geometry given its *indices* into the DSE choice arrays.
/// The enumeration pass computes this for free; [`slot_index`] recovers it
/// from raw dimensions.
pub(crate) fn grid_slot(row_idx: usize, col_idx: usize, mux_idx: usize) -> usize {
    (row_idx * COL_CHOICES.len() + col_idx) * MUX_CHOICES.len() + mux_idx
}

/// Slab slot for a grid geometry, or `None` for off-grid requests.
pub(crate) fn slot_index(rows: usize, cols: usize, mux: usize) -> Option<usize> {
    let r = ROW_CHOICES.iter().position(|&x| x == rows)?;
    let c = COL_CHOICES.iter().position(|&x| x == cols)?;
    let m = MUX_CHOICES.iter().position(|&x| x == mux)?;
    Some(grid_slot(r, c, m))
}

/// Everything besides geometry that [`Subarray::characterize`] reads, as a
/// hashable key. The cell is identified by
/// [`CellDefinition::fingerprint`] and the node by the feature-size bit
/// pattern. Fingerprints are 64-bit hashes, so `SubarrayCache::session`
/// additionally verifies the slab's stored cell against the requesting one
/// — a collision degrades to uncached characterization, never to another
/// cell's physics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SlabKey {
    cell: u64,
    node_bits: u64,
    bits_per_cell: BitsPerCell,
}

/// One `(cell, node, depth)`'s memoized geometry grid. The owning cell is
/// stored so sessions can prove the fingerprint key really resolved to
/// their cell.
struct Slab {
    cell: CellDefinition,
    slots: [OnceLock<Subarray>; SLOTS],
}

impl Slab {
    fn new(cell: CellDefinition) -> Self {
        Self {
            cell,
            slots: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

/// The [`CacheStats::l2_rejects`] total broken out by
/// [`StoreError`](crate::store::StoreError) class — one counter per reason
/// the strict store codec refused a slab. Version skew dominating the
/// breakdown means a mixed-version fleet shares one store directory;
/// corruption/truncation point at the disk; collisions are the expected
/// (rare) 64-bit fingerprint accidents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2RejectClasses {
    /// Rejections by filesystem failure (other than a missing slab, which
    /// is a plain `l2_miss`).
    pub io: u64,
    /// Rejections by codec version skew (a slab written by a different
    /// `STORE_VERSION`).
    pub version: u64,
    /// Rejections by truncated slab files.
    pub truncated: u64,
    /// Rejections by failed checksums / malformed payloads.
    pub corrupt: u64,
    /// Rejections by fingerprint collision (the slab belongs to a
    /// different cell than the one requesting it).
    pub collision: u64,
}

impl L2RejectClasses {
    /// Sum of all classes — equals [`CacheStats::l2_rejects`] up to the
    /// usual observational counter races.
    pub fn total(&self) -> u64 {
        self.io + self.version + self.truncated + self.corrupt + self.collision
    }

    /// Per-class counters accumulated since an `earlier` snapshot
    /// (saturating, like [`CacheStats::since`]).
    pub fn since(&self, earlier: Self) -> Self {
        Self {
            io: self.io.saturating_sub(earlier.io),
            version: self.version.saturating_sub(earlier.version),
            truncated: self.truncated.saturating_sub(earlier.truncated),
            corrupt: self.corrupt.saturating_sub(earlier.corrupt),
            collision: self.collision.saturating_sub(earlier.collision),
        }
    }
}

/// Hit/miss/prune counters of a [`SubarrayCache`], captured by
/// [`SubarrayCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran a fresh characterization.
    pub misses: u64,
    /// DSE candidates skipped by branch-and-bound pruning before reaching
    /// the cache — a pruned candidate neither hits nor populates a slot.
    /// Per design-space pass, `hits + misses + pruned` equals the number of
    /// enumerated candidates.
    pub pruned: u64,
    /// Slab misses served by the on-disk L2 store (one per slab, not per
    /// geometry — a single L2 hit warms up to a full DSE grid of slots).
    pub l2_hits: u64,
    /// Slab misses the L2 store could not serve (no slab published yet).
    pub l2_misses: u64,
    /// L2 loads rejected by the strict codec — version skew, corruption,
    /// truncation, fingerprint collision, or I/O failure — all degraded to
    /// recomputation.
    pub l2_rejects: u64,
    /// The [`Self::l2_rejects`] total broken out by
    /// [`StoreError`](crate::store::StoreError) class.
    pub l2_reject_classes: L2RejectClasses,
}

/// The counter clause every binary prints after `cache`:
/// `hits=.. misses=.. pruned=.. l2_hits=.. l2_misses=.. l2_rejects=..`.
impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} pruned={} l2_hits={} l2_misses={} l2_rejects={}",
            self.hits, self.misses, self.pruned, self.l2_hits, self.l2_misses, self.l2_rejects
        )
    }
}

impl CacheStats {
    /// Total lookups (pruned candidates never look up).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Total DSE candidates scanned: lookups plus pruned skips.
    pub fn candidates(&self) -> u64 {
        self.hits + self.misses + self.pruned
    }

    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / lookups as f64
            }
        }
    }

    /// Fraction of scanned candidates skipped by branch-and-bound pruning
    /// (0 when nothing was scanned).
    pub fn prune_rate(&self) -> f64 {
        let candidates = self.candidates();
        if candidates == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.pruned as f64 / candidates as f64
            }
        }
    }

    /// Counters accumulated since an `earlier` snapshot of the same cache —
    /// the per-study view a scheduler slot reports when several studies
    /// share one warm cache. Saturating, so a stale/foreign snapshot never
    /// panics (it just clamps to zero).
    pub fn since(&self, earlier: Self) -> Self {
        Self {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            pruned: self.pruned.saturating_sub(earlier.pruned),
            l2_hits: self.l2_hits.saturating_sub(earlier.l2_hits),
            l2_misses: self.l2_misses.saturating_sub(earlier.l2_misses),
            l2_rejects: self.l2_rejects.saturating_sub(earlier.l2_rejects),
            l2_reject_classes: self.l2_reject_classes.since(earlier.l2_reject_classes),
        }
    }
}

/// A sweep-wide, thread-safe memo of subarray characterizations.
///
/// Create one per study (or share one across studies — keys are globally
/// unambiguous) and thread it through
/// [`characterize_targets`](crate::characterize_targets). A shared cache
/// and a fresh one produce bit-identical results; only the work is shared,
/// never approximated.
pub struct SubarrayCache {
    slabs: RwLock<HashMap<SlabKey, Arc<Slab>>>,
    /// Optional on-disk L2: consulted on slab misses, published back by
    /// [`Self::flush_store`].
    store: Option<CharacterizationStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    pruned: AtomicU64,
    l2_hits: AtomicU64,
    l2_misses: AtomicU64,
    l2_rejects: AtomicU64,
    /// Per-class reject tallies, indexed like the rows of
    /// [`L2RejectClasses`]: io, version, truncated, corrupt, collision.
    l2_reject_by_class: [AtomicU64; 5],
}

impl Default for SubarrayCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SubarrayCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            slabs: RwLock::new(HashMap::new()),
            store: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            l2_hits: AtomicU64::new(0),
            l2_misses: AtomicU64::new(0),
            l2_rejects: AtomicU64::new(0),
            l2_reject_by_class: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Creates an empty cache backed by the persistent characterization
    /// store at `dir` (created if absent). Slab misses consult the store
    /// before characterizing, and [`Self::flush_store`] publishes newly
    /// characterized slabs back — so a cold process against a warm store
    /// skips characterization entirely for every fingerprint it has seen
    /// before. Every store pathology (corruption, version skew, fingerprint
    /// collisions, I/O failure) degrades to recomputation; store-backed and
    /// storeless runs produce bit-identical results.
    ///
    /// # Errors
    ///
    /// When the store directory cannot be created.
    pub fn with_store(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let mut cache = Self::new();
        cache.store = Some(CharacterizationStore::open(dir)?);
        Ok(cache)
    }

    /// The backing persistent store, when one was attached.
    pub fn store(&self) -> Option<&CharacterizationStore> {
        self.store.as_ref()
    }

    /// Consults the L2 store for a slab missing from L1. Counter races
    /// (two threads loading the same slab) can double-count; totals are
    /// observability, not invariants — same contract as the L1 counters.
    fn store_lookup(&self, key: &SlabKey, cell: &CellDefinition) -> Option<Vec<(usize, Subarray)>> {
        let store = self.store.as_ref()?;
        match store.load(key.cell, key.node_bits, key.bits_per_cell, cell) {
            Ok(Some(slots)) => {
                self.l2_hits.fetch_add(1, Ordering::Relaxed);
                Some(slots)
            }
            Ok(None) => {
                self.l2_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(err) => {
                self.l2_rejects.fetch_add(1, Ordering::Relaxed);
                let class = match err {
                    crate::store::StoreError::Io(_) => 0,
                    crate::store::StoreError::Version { .. } => 1,
                    crate::store::StoreError::Truncated { .. } => 2,
                    crate::store::StoreError::Corrupt { .. } => 3,
                    crate::store::StoreError::Collision => 4,
                };
                self.l2_reject_by_class[class].fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes every slab holding at least one characterized geometry to
    /// the backing store (write-once: slabs already on disk are skipped).
    /// Returns the number of slabs newly published; a no-op `Ok(0)` without
    /// a store. Best-effort callers can ignore the result — the store is
    /// never left with a torn slab.
    ///
    /// # Errors
    ///
    /// The first I/O failure encountered while publishing.
    pub fn flush_store(&self) -> io::Result<usize> {
        let Some(store) = self.store.as_ref() else {
            return Ok(0);
        };
        let slabs: Vec<(SlabKey, Arc<Slab>)> = self
            .slabs
            .read()
            .expect("cache poisoned")
            .iter()
            .map(|(key, slab)| (*key, Arc::clone(slab)))
            .collect();
        let mut published = 0;
        for (key, slab) in slabs {
            let slots: Vec<(usize, Subarray)> = slab
                .slots
                .iter()
                .enumerate()
                .filter_map(|(index, slot)| slot.get().map(|sub| (index, sub.clone())))
                .collect();
            if slots.is_empty() {
                continue;
            }
            if store.publish(
                key.cell,
                key.node_bits,
                key.bits_per_cell,
                &slab.cell,
                &slots,
            )? {
                published += 1;
            }
        }
        Ok(published)
    }

    /// Opens the slab for `(cell, node, depth)` — the one outer-map access
    /// of a design-space pass; every per-candidate lookup then goes through
    /// the returned [`SubarraySession`] lock-free. The session binds the
    /// cell, technology, and depth, so lookups cannot mix inputs and
    /// poison the slab.
    pub(crate) fn session<'a>(
        &self,
        cell: &'a CellDefinition,
        tech: &'a TechnologyParams,
        bits_per_cell: BitsPerCell,
    ) -> SubarraySession<'_, 'a> {
        let key = SlabKey {
            cell: cell.fingerprint(),
            node_bits: tech.feature_size.value().to_bits(),
            bits_per_cell,
        };
        // Probe under the read lock and *drop the guard* before any write
        // acquisition — the scrutinee temporary of an `if let`/`match`
        // would otherwise live through the miss arm and self-deadlock.
        let probed = self
            .slabs
            .read()
            .expect("cache poisoned")
            .get(&key)
            .map(Arc::clone);
        let slab = match probed {
            Some(slab) => slab,
            None => {
                // L1 slab miss: consult the on-disk L2 *before* taking the
                // write lock (disk reads must not serialize other threads).
                // If a racing thread inserts first, the loaded slots are
                // discarded — the entry it made is equivalent.
                let loaded = self.store_lookup(&key, cell);
                Arc::clone(
                    self.slabs
                        .write()
                        .expect("cache poisoned")
                        .entry(key)
                        .or_insert_with(|| {
                            let slab = Slab::new(cell.clone());
                            for (index, subarray) in loaded.into_iter().flatten() {
                                // Indices were validated (< SLOTS) by the
                                // store codec.
                                let _ = slab.slots[index].set(subarray);
                            }
                            Arc::new(slab)
                        }),
                )
            }
        };
        // Fingerprints are 64-bit hashes: prove the slab belongs to this
        // cell. A collision (or a racing insert by a colliding cell)
        // degrades to uncached characterization — never to another cell's
        // physics.
        let slab = (slab.cell == *cell).then_some(slab);
        SubarraySession {
            cache: self,
            slab,
            cell,
            tech,
            bits_per_cell,
            hits: 0,
            misses: 0,
            pruned: 0,
        }
    }

    /// Hit/miss counters of every **dropped** session (live sessions batch
    /// their counts locally and flush on drop, keeping atomics off the
    /// per-candidate path). A racing double-miss on one slot may be counted
    /// twice even though only one value is stored — totals are for
    /// observability, not invariants.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            l2_hits: self.l2_hits.load(Ordering::Relaxed),
            l2_misses: self.l2_misses.load(Ordering::Relaxed),
            l2_rejects: self.l2_rejects.load(Ordering::Relaxed),
            l2_reject_classes: L2RejectClasses {
                io: self.l2_reject_by_class[0].load(Ordering::Relaxed),
                version: self.l2_reject_by_class[1].load(Ordering::Relaxed),
                truncated: self.l2_reject_by_class[2].load(Ordering::Relaxed),
                corrupt: self.l2_reject_by_class[3].load(Ordering::Relaxed),
                collision: self.l2_reject_by_class[4].load(Ordering::Relaxed),
            },
        }
    }

    /// Number of distinct geometries memoized.
    pub fn len(&self) -> usize {
        self.slabs
            .read()
            .expect("cache poisoned")
            .values()
            .map(|slab| {
                slab.slots
                    .iter()
                    .filter(|slot| slot.get().is_some())
                    .count()
            })
            .sum()
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for SubarrayCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SubarrayCache")
            .field("entries", &self.len())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// A per-pass handle onto one `(cell, node, depth)` slab of a
/// [`SubarrayCache`]. Obtained from [`SubarrayCache::session`], which binds
/// the cell, technology, and depth — per-geometry lookups only supply the
/// geometry, so a session cannot store one cell's physics under another's
/// key.
///
/// Hit/miss counts accumulate locally and flush to the owning cache when
/// the session drops.
pub(crate) struct SubarraySession<'c, 'a> {
    cache: &'c SubarrayCache,
    /// `None` when the fingerprint key collided with a different cell's
    /// slab — every lookup then characterizes directly.
    slab: Option<Arc<Slab>>,
    cell: &'a CellDefinition,
    tech: &'a TechnologyParams,
    bits_per_cell: BitsPerCell,
    hits: u64,
    misses: u64,
    pruned: u64,
}

impl SubarraySession<'_, '_> {
    /// Records one branch-and-bound prune: a DSE candidate whose score
    /// bound proved it cannot win, skipped before any cache lookup. Pruned
    /// candidates neither hit nor populate the cache; they are tallied so
    /// `hits + misses + pruned` accounts for every scanned candidate.
    pub(crate) fn note_pruned(&mut self) {
        self.pruned += 1;
    }

    /// Returns the memoized characterization of the geometry in slab
    /// `slot`, running (and recording) it on first sight. The DSE
    /// enumeration derives the slot for free from its loop indices;
    /// [`slot_index`] recovers it from raw dimensions. Off-grid geometries
    /// (`slot` is `None`) are characterized directly and not stored.
    pub(crate) fn lookup(
        &mut self,
        slot: Option<usize>,
        rows: usize,
        cols: usize,
        mux: usize,
    ) -> Subarray {
        let (Some(slab), Some(index)) = (&self.slab, slot) else {
            self.misses += 1;
            return Subarray::characterize(
                self.tech,
                self.cell,
                rows,
                cols,
                mux,
                self.bits_per_cell,
            );
        };
        let slot = &slab.slots[index];
        if let Some(hit) = slot.get() {
            self.hits += 1;
            return hit.clone();
        }
        self.misses += 1;
        slot.get_or_init(|| {
            Subarray::characterize(self.tech, self.cell, rows, cols, mux, self.bits_per_cell)
        })
        .clone()
    }
}

impl Drop for SubarraySession<'_, '_> {
    fn drop(&mut self) {
        if self.hits > 0 {
            self.cache.hits.fetch_add(self.hits, Ordering::Relaxed);
        }
        if self.misses > 0 {
            self.cache.misses.fetch_add(self.misses, Ordering::Relaxed);
        }
        if self.pruned > 0 {
            self.cache.pruned.fetch_add(self.pruned, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::lookup;
    use nvmx_celldb::{tentpole, CellFlavor, TechnologyClass};
    use nvmx_units::Meters;

    fn stt() -> CellDefinition {
        tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap()
    }

    #[test]
    fn cached_result_is_bit_identical_to_direct_characterization() {
        let tech = lookup(Meters::from_nano(22.0));
        let cell = stt();
        let cache = SubarrayCache::new();
        let direct = Subarray::characterize(&tech, &cell, 512, 1024, 4, BitsPerCell::Slc);
        let mut session = cache.session(&cell, &tech, BitsPerCell::Slc);
        let cold = session.lookup(slot_index(512, 1024, 4), 512, 1024, 4);
        let warm = session.lookup(slot_index(512, 1024, 4), 512, 1024, 4);
        drop(session); // flush counters
        assert_eq!(direct, cold);
        assert_eq!(direct, warm);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn sessions_share_memoized_geometries() {
        let tech = lookup(Meters::from_nano(22.0));
        let cell = stt();
        let cache = SubarrayCache::new();
        cache.session(&cell, &tech, BitsPerCell::Slc).lookup(
            slot_index(512, 1024, 4),
            512,
            1024,
            4,
        );
        // A second session — e.g. the same cell at another capacity — sees
        // the slab warm.
        cache.session(&cell, &tech, BitsPerCell::Slc).lookup(
            slot_index(512, 1024, 4),
            512,
            1024,
            4,
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn distinct_geometries_cells_and_depths_get_distinct_entries() {
        let tech = lookup(Meters::from_nano(22.0));
        let stt = stt();
        let rram = tentpole::tentpole_cell(TechnologyClass::Rram, CellFlavor::Optimistic).unwrap();
        let cache = SubarrayCache::new();
        for (cell, rows, bpc) in [
            (&stt, 512usize, BitsPerCell::Slc),
            (&stt, 1024, BitsPerCell::Slc),
            (&stt, 512, BitsPerCell::Mlc2),
            (&rram, 512, BitsPerCell::Slc),
        ] {
            cache
                .session(cell, &tech, bpc)
                .lookup(slot_index(rows, 1024, 4), rows, 1024, 4);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn node_is_part_of_the_key() {
        let cell = stt();
        let cache = SubarrayCache::new();
        let t22 = lookup(Meters::from_nano(22.0));
        let t16 = lookup(Meters::from_nano(16.0));
        let a = cache.session(&cell, &t22, BitsPerCell::Slc).lookup(
            slot_index(512, 1024, 4),
            512,
            1024,
            4,
        );
        let b = cache.session(&cell, &t16, BitsPerCell::Slc).lookup(
            slot_index(512, 1024, 4),
            512,
            1024,
            4,
        );
        assert_ne!(a, b, "different nodes must not share an entry");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn off_grid_geometries_fall_through_without_storing() {
        let tech = lookup(Meters::from_nano(22.0));
        let cell = stt();
        let cache = SubarrayCache::new();
        let mut session = cache.session(&cell, &tech, BitsPerCell::Slc);
        let direct = Subarray::characterize(&tech, &cell, 100, 100, 4, BitsPerCell::Slc);
        let via_cache = session.lookup(slot_index(100, 100, 4), 100, 100, 4);
        drop(session); // flush counters
        assert_eq!(direct, via_cache);
        assert!(cache.is_empty(), "off-grid results are never stored");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn fingerprint_collision_degrades_to_uncached_not_wrong_physics() {
        let tech = lookup(Meters::from_nano(22.0));
        let stt = stt();
        let rram = tentpole::tentpole_cell(TechnologyClass::Rram, CellFlavor::Optimistic).unwrap();
        let cache = SubarrayCache::new();
        // Simulate a 64-bit fingerprint collision: plant the RRAM cell's
        // slab (pre-warmed with RRAM physics) under the STT cell's key.
        let planted = Slab::new(rram.clone());
        planted.slots[slot_index(512, 1024, 4).unwrap()]
            .set(Subarray::characterize(
                &tech,
                &rram,
                512,
                1024,
                4,
                BitsPerCell::Slc,
            ))
            .unwrap();
        let key = SlabKey {
            cell: stt.fingerprint(),
            node_bits: tech.feature_size.value().to_bits(),
            bits_per_cell: BitsPerCell::Slc,
        };
        cache.slabs.write().unwrap().insert(key, Arc::new(planted));

        let mut session = cache.session(&stt, &tech, BitsPerCell::Slc);
        let got = session.lookup(slot_index(512, 1024, 4), 512, 1024, 4);
        drop(session);
        let expected = Subarray::characterize(&tech, &stt, 512, 1024, 4, BitsPerCell::Slc);
        assert_eq!(got, expected, "collision must never serve foreign physics");
        assert_eq!(cache.stats().hits, 0, "collided session cannot hit");
    }

    #[test]
    fn cold_process_against_warm_store_skips_characterization() {
        let dir = std::env::temp_dir().join(format!("nvmx_cache_l2_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tech = lookup(Meters::from_nano(22.0));
        let cell = stt();

        // "Process" one: cold cache, cold store — characterizes and flushes.
        let first = SubarrayCache::with_store(&dir).unwrap();
        let a = first.session(&cell, &tech, BitsPerCell::Slc).lookup(
            slot_index(512, 1024, 4),
            512,
            1024,
            4,
        );
        assert_eq!(first.stats().l2_misses, 1, "cold store is a miss");
        assert_eq!(first.flush_store().unwrap(), 1);
        assert_eq!(first.flush_store().unwrap(), 0, "publication is write-once");

        // "Process" two: cold cache, warm store — loads instead of
        // characterizing, bit-identically.
        let second = SubarrayCache::with_store(&dir).unwrap();
        let mut session = second.session(&cell, &tech, BitsPerCell::Slc);
        let b = session.lookup(slot_index(512, 1024, 4), 512, 1024, 4);
        drop(session);
        assert_eq!(a, b, "L2-loaded physics must be bit-identical");
        let stats = second.stats();
        assert_eq!(stats.l2_hits, 1);
        assert_eq!(stats.hits, 1, "the warmed slot serves as an L1 hit");
        assert_eq!(stats.misses, 0, "nothing re-characterized");

        // A corrupted store degrades to recompute with identical results.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, bytes).unwrap();
        }
        let third = SubarrayCache::with_store(&dir).unwrap();
        let c = third.session(&cell, &tech, BitsPerCell::Slc).lookup(
            slot_index(512, 1024, 4),
            512,
            1024,
            4,
        );
        assert_eq!(a, c, "corruption must degrade to recompute, not wrong data");
        assert_eq!(third.stats().l2_rejects, 1);
        let classes = third.stats().l2_reject_classes;
        assert_eq!(
            classes.total(),
            1,
            "every reject lands in exactly one class"
        );
        assert_eq!(
            classes.corrupt + classes.truncated,
            1,
            "a flipped byte is corruption"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_lookups_agree_with_serial() {
        let tech = lookup(Meters::from_nano(22.0));
        let cell = stt();
        let cache = SubarrayCache::new();
        let serial = Subarray::characterize(&tech, &cell, 1024, 2048, 8, BitsPerCell::Slc);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let mut session = cache.session(&cell, &tech, BitsPerCell::Slc);
                    for _ in 0..16 {
                        let got = session.lookup(slot_index(1024, 2048, 8), 1024, 2048, 8);
                        assert_eq!(got, serial);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().lookups(), 8 * 16);
    }
}
