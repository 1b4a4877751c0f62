//! Regression proof for the shared-DSE pass: for every tentpole cell and
//! every optimization target, `characterize_targets` must produce results
//! identical to a standalone per-target `characterize` call — no numeric
//! drift, no selection drift.

use nvmx_celldb::{survey, tentpole};
use nvmx_nvsim::{
    characterize, characterize_targets, ArrayConfig, OptimizationTarget, SubarrayCache,
};
use nvmx_units::{BitsPerCell, Capacity};

fn config() -> ArrayConfig {
    ArrayConfig::new(Capacity::from_mebibytes(2))
}

#[test]
fn shared_pass_matches_per_target_for_every_tentpole_cell_and_target() {
    let cells = tentpole::tentpoles(survey::database());
    assert!(!cells.is_empty(), "tentpole set must not be empty");
    for cell in &cells {
        let shared = characterize_targets(
            cell,
            &config(),
            &OptimizationTarget::ALL,
            &SubarrayCache::new(),
            None,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", cell.name));
        assert_eq!(shared.len(), OptimizationTarget::ALL.len());
        for (result, target) in shared.iter().zip(OptimizationTarget::ALL) {
            let standalone = characterize(cell, &config(), target)
                .unwrap_or_else(|e| panic!("{} @ {target}: {e}", cell.name));
            assert_eq!(
                result, &standalone,
                "shared-DSE result diverged for {} @ {target}",
                cell.name
            );
        }
    }
}

#[test]
fn shared_pass_matches_per_target_at_mlc_depths() {
    let cells = tentpole::tentpoles(survey::database());
    for cell in cells.iter().filter(|c| c.supports(BitsPerCell::Mlc2)) {
        let config = config().with_bits_per_cell(BitsPerCell::Mlc2);
        let shared = characterize_targets(
            cell,
            &config,
            &OptimizationTarget::ALL,
            &SubarrayCache::new(),
            None,
        )
        .unwrap();
        for (result, target) in shared.iter().zip(OptimizationTarget::ALL) {
            let standalone = characterize(cell, &config, target).unwrap();
            assert_eq!(
                result, &standalone,
                "MLC divergence for {} @ {target}",
                cell.name
            );
        }
    }
}

#[test]
fn target_subsets_and_duplicates_select_consistently() {
    let cell = cells_one();
    let subset = [
        OptimizationTarget::Area,
        OptimizationTarget::ReadLatency,
        OptimizationTarget::Area,
    ];
    let results =
        characterize_targets(&cell, &config(), &subset, &SubarrayCache::new(), None).unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0], results[2], "duplicate targets must agree");
    assert_eq!(results[0].target, OptimizationTarget::Area);
    assert_eq!(results[1].target, OptimizationTarget::ReadLatency);
    assert_eq!(
        results[0],
        characterize(&cell, &config(), OptimizationTarget::Area).unwrap()
    );
}

#[test]
fn empty_target_list_yields_no_results() {
    let cell = cells_one();
    assert!(
        characterize_targets(&cell, &config(), &[], &SubarrayCache::new(), None)
            .unwrap()
            .is_empty()
    );
}

fn cells_one() -> nvmx_celldb::CellDefinition {
    tentpole::tentpole_cell(
        nvmx_celldb::TechnologyClass::Stt,
        nvmx_celldb::CellFlavor::Optimistic,
    )
    .expect("STT is always surveyed")
}
