//! Equivalence proof for store-backed studies: `StudyExecutor::store`
//! must produce results byte-identical to the storeless engine at every
//! thread count, cold store and warm store alike — and must keep doing so
//! after the store is corrupted on disk, when every load degrades to
//! recomputation.

use nvmexplorer_core::config::{CellSelection, StudyConfig, TrafficSpec};
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use std::path::{Path, PathBuf};

fn small_study() -> StudyConfig {
    StudyConfig {
        name: "store-equivalence".into(),
        cells: CellSelection {
            technologies: Some(vec![
                nvmx_celldb::TechnologyClass::Stt,
                nvmx_celldb::TechnologyClass::Rram,
            ]),
            reference_rram: false,
            sram_baseline: false,
            ..CellSelection::default()
        },
        array: Default::default(),
        traffic: TrafficSpec::Explicit {
            patterns: vec![nvmx_workloads::TrafficPattern::new("t", 1.0e9, 1.0e7, 64)],
        },
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nvmx_store_equivalence_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corrupt_every_slab(dir: &Path) {
    let mut corrupted = 0;
    for entry in std::fs::read_dir(dir).expect("store dir is readable") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|ext| ext == "slab") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, bytes).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "no slabs to corrupt — flush never published");
}

#[test]
fn store_backed_results_match_storeless_at_every_thread_count() {
    let study = small_study();
    let dir = temp_dir("threads");
    for threads in [1usize, 16] {
        let reference = StudyExecutor::with_threads(threads)
            .run(&study, &mut NullSink)
            .expect("storeless run");
        let cold = StudyExecutor::with_threads(threads)
            .store(&dir)
            .expect("store opens")
            .run(&study, &mut NullSink)
            .expect("cold-store run");
        assert_eq!(reference.arrays, cold.arrays, "{threads} threads, cold");
        assert_eq!(reference.evaluations, cold.evaluations);
        assert_eq!(reference.skipped, cold.skipped);
        let warm = StudyExecutor::with_threads(threads)
            .store(&dir)
            .expect("store opens")
            .run(&study, &mut NullSink)
            .expect("warm-store run");
        assert_eq!(reference.arrays, warm.arrays, "{threads} threads, warm");
        assert_eq!(reference.evaluations, warm.evaluations);
        assert_eq!(reference.skipped, warm.skipped);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupted_store_still_yields_storeless_results() {
    let study = small_study();
    let reference = StudyExecutor::with_threads(2)
        .run(&study, &mut NullSink)
        .expect("storeless run");
    let dir = temp_dir("corrupt");
    let _ = StudyExecutor::with_threads(2)
        .store(&dir)
        .expect("store opens")
        .run(&study, &mut NullSink)
        .expect("publishing run");
    corrupt_every_slab(&dir);
    for threads in [1usize, 16] {
        let damaged = StudyExecutor::with_threads(threads)
            .store(&dir)
            .expect("store opens")
            .run(&study, &mut NullSink)
            .expect("corrupt-store run");
        assert_eq!(
            reference.arrays, damaged.arrays,
            "corruption changed the winners at {threads} threads"
        );
        assert_eq!(reference.evaluations, damaged.evaluations);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
