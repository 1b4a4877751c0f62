//! Hostility proof for the persistent characterization store: every store
//! pathology — truncation, bit flips, version skew, fingerprint
//! collisions, racing publishers — must degrade to recomputation, with
//! winners byte-identical to a storeless run. The store may only ever
//! make a run faster, never different.
//!
//! These tests drive real files through the public `SubarrayCache` L2
//! path (a fresh cache per "process", one shared store directory), unlike
//! the codec-level proptests in `store.rs` which attack `decode_slab`
//! directly.

use nvmx_celldb::{survey, tentpole, CellDefinition};
use nvmx_nvsim::dse::oracle;
use nvmx_nvsim::{characterize_targets, ArrayConfig, OptimizationTarget, SubarrayCache};
use nvmx_units::{BitsPerCell, Capacity};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const TARGETS: [OptimizationTarget; 2] = [OptimizationTarget::ReadEdp, OptimizationTarget::Area];

fn cells() -> Vec<CellDefinition> {
    tentpole::tentpoles(survey::database())
}

fn config() -> ArrayConfig {
    ArrayConfig::new(Capacity::from_mebibytes(2)).with_bits_per_cell(BitsPerCell::Slc)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nvmx_store_hostility_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One simulated cold process: a fresh cache (empty L1) over `dir`,
/// characterize, publish, and return (winners, that process's stats).
fn cold_process(
    dir: &Path,
    cell: &CellDefinition,
) -> (
    Vec<nvmx_nvsim::ArrayCharacterization>,
    nvmx_nvsim::CacheStats,
) {
    let cache = SubarrayCache::with_store(dir).expect("store dir opens");
    let result = characterize_targets(cell, &config(), &TARGETS, &cache, None)
        .expect("characterization succeeds");
    cache.flush_store().expect("store flush succeeds");
    (result, cache.stats())
}

fn slab_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir is readable")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "slab"))
        .collect();
    files.sort();
    files
}

#[test]
fn a_warm_store_serves_a_cold_process_bit_identically() {
    let cells = cells();
    let cell = &cells[0];
    let reference = oracle::characterize_targets(cell, &config(), &TARGETS).expect("storeless run");
    let dir = temp_dir("warm");

    let (first, first_stats) = cold_process(&dir, cell);
    assert_eq!(reference, first, "cold-store winners diverged");
    assert!(first_stats.l2_misses > 0, "cold store must miss");
    assert_eq!(first_stats.l2_hits, 0);
    assert!(!slab_files(&dir).is_empty(), "flush published no slabs");

    let (second, second_stats) = cold_process(&dir, cell);
    assert_eq!(reference, second, "warm-store winners diverged");
    assert!(
        second_stats.l2_hits > 0,
        "a cold process against the warm store loaded nothing: {second_stats:?}"
    );
    assert_eq!(second_stats.l2_misses, 0, "{second_stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_file_pathology_degrades_to_recompute() {
    let cells = cells();
    let cell = &cells[0];
    let reference = oracle::characterize_targets(cell, &config(), &TARGETS).expect("storeless run");

    type Mutation = fn(&Path);
    let truncate: Mutation = |path| {
        let bytes = std::fs::read(path).unwrap();
        std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
    };
    let flip: Mutation = |path| {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(path, bytes).unwrap();
    };
    let version_skew: Mutation = |path| {
        let mut bytes = std::fs::read(path).unwrap();
        // Bytes 8..12 are the little-endian STORE_VERSION after the magic.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(path, bytes).unwrap();
    };
    let empty: Mutation = |path| std::fs::write(path, []).unwrap();

    // Each pathology must land in its own reject class: the per-class
    // counters are what an operator triages with, so a truncation that
    // counted as `corrupt` (or vice versa) would misdirect the diagnosis.
    type Class = fn(&nvmx_nvsim::L2RejectClasses) -> u64;
    let truncated_class: Class = |c| c.truncated;
    let corrupt_class: Class = |c| c.corrupt;
    let version_class: Class = |c| c.version;

    for (tag, mutate, class) in [
        ("truncated", truncate, truncated_class),
        ("flipped", flip, corrupt_class),
        ("version", version_skew, version_class),
        ("empty", empty, truncated_class),
    ] {
        let dir = temp_dir(tag);
        let _ = cold_process(&dir, cell);
        let files = slab_files(&dir);
        assert!(!files.is_empty(), "{tag}: nothing published");
        for file in &files {
            mutate(file);
        }
        let (result, stats) = cold_process(&dir, cell);
        assert_eq!(
            reference, result,
            "{tag}: corrupted store changed the winners"
        );
        assert_eq!(stats.l2_hits, 0, "{tag}: a corrupt slab counted as a hit");
        assert!(
            stats.l2_rejects > 0,
            "{tag}: corruption was not detected: {stats:?}"
        );
        assert!(
            class(&stats.l2_reject_classes) > 0,
            "{tag}: reject landed in the wrong class: {:?}",
            stats.l2_reject_classes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_fingerprint_collision_is_rejected_not_trusted() {
    let cells = cells();
    let (cell_a, cell_b) = (&cells[0], &cells[1]);
    assert_ne!(cell_a.fingerprint(), cell_b.fingerprint());
    let reference =
        oracle::characterize_targets(cell_a, &config(), &TARGETS).expect("storeless run");

    // Publish each cell into its own store, then plant cell B's slab bytes
    // at cell A's path — a simulated 64-bit fingerprint collision.
    let dir_a = temp_dir("collide_a");
    let dir_b = temp_dir("collide_b");
    let _ = cold_process(&dir_a, cell_a);
    let _ = cold_process(&dir_b, cell_b);
    let files_a = slab_files(&dir_a);
    let files_b = slab_files(&dir_b);
    assert_eq!(files_a.len(), 1);
    assert_eq!(files_b.len(), 1);
    std::fs::copy(&files_b[0], &files_a[0]).unwrap();

    let (result, stats) = cold_process(&dir_a, cell_a);
    assert_eq!(reference, result, "a collision leaked foreign physics");
    assert_eq!(stats.l2_hits, 0, "{stats:?}");
    assert!(
        stats.l2_rejects > 0,
        "collision was not detected: {stats:?}"
    );
    assert!(
        stats.l2_reject_classes.collision > 0,
        "collision reject landed in the wrong class: {:?}",
        stats.l2_reject_classes
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn racing_publishers_never_tear_the_store() {
    let cells = cells();
    let cell = &cells[0];
    let reference = oracle::characterize_targets(cell, &config(), &TARGETS).expect("storeless run");
    let dir = temp_dir("race");
    std::fs::create_dir_all(&dir).unwrap();

    // Eight simulated processes characterize and publish concurrently into
    // one store directory; the write-once atomic publish must keep every
    // file whole no matter who wins.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let dir = dir.clone();
                scope.spawn(move || cold_process(&dir, cell).0)
            })
            .collect();
        for handle in handles {
            assert_eq!(reference, handle.join().expect("publisher thread"));
        }
    });

    let (result, stats) = cold_process(&dir, cell);
    assert_eq!(reference, result, "post-race load diverged");
    assert!(stats.l2_hits > 0, "{stats:?}");
    assert_eq!(
        stats.l2_rejects, 0,
        "racing publishers tore a slab: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any single byte flip or truncation of any published slab file still
    /// yields storeless-identical winners through the real L2 path.
    #[test]
    fn arbitrary_slab_damage_degrades_to_recompute(
        damage_byte in any::<u8>(),
        position in 0.0f64..1.0,
        truncate in any::<bool>(),
        case in 0u32..u32::MAX,
    ) {
        let cells = cells();
        let cell = &cells[0];
        let reference = oracle::characterize_targets(cell, &config(), &TARGETS).unwrap();
        let dir = temp_dir(&format!("prop_{case}"));
        let _ = cold_process(&dir, cell);

        for file in slab_files(&dir) {
            let mut bytes = std::fs::read(&file).unwrap();
            let index = ((bytes.len() - 1) as f64 * position) as usize;
            if truncate {
                bytes.truncate(index);
            } else {
                // Force a real change even when damage_byte matches.
                bytes[index] ^= damage_byte | 1;
            }
            std::fs::write(&file, bytes).unwrap();
        }

        let (result, stats) = cold_process(&dir, cell);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(reference, result, "damaged store changed the winners");
        prop_assert_eq!(stats.l2_hits, 0, "damaged slab counted as a hit: {:?}", stats);
    }
}
