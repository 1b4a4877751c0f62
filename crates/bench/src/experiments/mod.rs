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

/// `Optimistic`-flavor tentpole for a class (panics if missing — the survey
/// always covers the validated classes).
pub fn opt_cell(tech: nvmx_celldb::TechnologyClass) -> CellDefinition {
    tentpole::tentpole_cell(tech, CellFlavor::Optimistic).expect("class surveyed")
}

/// `Pessimistic`-flavor tentpole for a class.
pub fn pess_cell(tech: nvmx_celldb::TechnologyClass) -> CellDefinition {
    tentpole::tentpole_cell(tech, CellFlavor::Pessimistic).expect("class surveyed")
}
