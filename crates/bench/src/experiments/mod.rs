//! The per-figure/table experiment implementations (DESIGN.md §3).

pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod shared;
pub mod table1;
pub mod table2;
pub mod table3;

use nvmx_celldb::{tentpole, CellDefinition, CellFlavor};
use nvmx_nvsim::{characterize, ArrayCharacterization, ArrayConfig, OptimizationTarget};
use nvmx_units::{BitsPerCell, Capacity, Meters};

/// The paper's standard study cells: validated tentpoles + reference RRAM +
/// 16 nm SRAM.
pub fn study_cells() -> Vec<CellDefinition> {
    tentpole::study_cells()
}

/// Characterizes one cell at the study node (eNVMs at 22 nm, SRAM native),
/// panicking on error — experiment inputs are known-good.
pub fn characterize_study(
    cell: &CellDefinition,
    capacity: Capacity,
    word_bits: u64,
    target: OptimizationTarget,
    bits_per_cell: BitsPerCell,
) -> ArrayCharacterization {
    let node = if cell.technology == nvmx_celldb::TechnologyClass::Sram {
        cell.default_node
    } else {
        Meters::from_nano(22.0)
    };
    let config = ArrayConfig {
        capacity,
        word_bits,
        node,
        bits_per_cell,
    };
    characterize(cell, &config, target)
        .unwrap_or_else(|e| panic!("characterizing {}: {e}", cell.name))
}

/// Characterizes every study cell at one capacity/word/target (SLC).
pub fn study_arrays(
    capacity: Capacity,
    word_bits: u64,
    target: OptimizationTarget,
) -> Vec<ArrayCharacterization> {
    study_cells()
        .iter()
        .map(|cell| characterize_study(cell, capacity, word_bits, target, BitsPerCell::Slc))
        .collect()
}

/// `Optimistic`-flavor tentpole for a class (panics if missing — the survey
/// always covers the validated classes).
pub fn opt_cell(tech: nvmx_celldb::TechnologyClass) -> CellDefinition {
    tentpole::tentpole_cell(tech, CellFlavor::Optimistic).expect("class surveyed")
}

/// `Pessimistic`-flavor tentpole for a class.
pub fn pess_cell(tech: nvmx_celldb::TechnologyClass) -> CellDefinition {
    tentpole::tentpole_cell(tech, CellFlavor::Pessimistic).expect("class surveyed")
}

/// Finds the array for a given cell name in a characterized set.
pub fn by_name<'a>(arrays: &'a [ArrayCharacterization], name: &str) -> &'a ArrayCharacterization {
    arrays
        .iter()
        .find(|a| a.cell_name == name)
        .unwrap_or_else(|| panic!("array `{name}` missing from study set"))
}
