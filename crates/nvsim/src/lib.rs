//! An NVSim-class circuit-level memory-array simulator (paper Sec. II-B).
//!
//! Given a [`nvmx_celldb::CellDefinition`] from the cell
//! database, an [`ArrayConfig`] (capacity, word width, node, programming
//! depth), and one or more [`OptimizationTarget`]s, this crate searches
//! internal array organizations — subarray geometry, column muxing, bank
//! composition — and returns the best [`ArrayCharacterization`] under each
//! target: read/write latency and energy, leakage, area, bandwidth, and
//! density.
//!
//! There is one design-space pass, [`characterize_targets`]: it walks the
//! candidate organizations once, memoizes subarray physics in a
//! [`SubarrayCache`], optionally starts from an [`IncumbentStore`]'s
//! recorded winners, and picks every target's winner from that single
//! scan. [`characterize`] is the one-target shorthand over a private cache.
//!
//! The modeling lineage is NVSim/CACTI: Horowitz gate delays, logical-effort
//! buffer chains, Elmore RC wires, repeated global H-trees, and
//! scheme-specific bitline sensing (voltage-differential SRAM, current-mode
//! resistive, FET-drain FeFET/CTT, destructive charge FeRAM).
//!
//! # Examples
//!
//! ```
//! use nvmx_celldb::{tentpole, CellFlavor, TechnologyClass};
//! use nvmx_nvsim::{characterize, characterize_targets, ArrayConfig};
//! use nvmx_nvsim::{OptimizationTarget, SubarrayCache};
//! use nvmx_units::{BitsPerCell, Capacity, Meters};
//!
//! # fn main() -> Result<(), nvmx_nvsim::CharacterizationError> {
//! let cell = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic)
//!     .expect("STT is always surveyed");
//! let config = ArrayConfig {
//!     capacity: Capacity::from_mebibytes(2),
//!     word_bits: 128,
//!     node: Meters::from_nano(22.0),
//!     bits_per_cell: BitsPerCell::Slc,
//! };
//! let array = characterize(&cell, &config, OptimizationTarget::ReadEdp)?;
//! assert!(array.read_latency.value() < 10.0e-9);
//!
//! // Every target from one pass; the cache can be shared across calls.
//! let cache = SubarrayCache::new();
//! let arrays = characterize_targets(&cell, &config, &OptimizationTarget::ALL, &cache, None)?;
//! assert_eq!(arrays.len(), OptimizationTarget::ALL.len());
//! # Ok(())
//! # }
//! ```

// Every public item must explain itself — the circuit models only earn
// trust if each knob and output names its NVSim/CACTI lineage. CI builds
// the docs with `-D warnings`, so broken intra-doc links fail too.
#![deny(missing_docs)]

pub mod bank;
pub mod bounds;
pub mod cache;
pub mod components;
pub mod dse;
pub mod fsutil;
pub mod gates;
pub mod result;
pub mod store;
pub mod subarray;
pub mod technology;
pub mod wire;

pub use bank::Organization;
pub use bounds::{IncumbentStore, SeedStats};
pub use cache::{CacheStats, L2RejectClasses, SubarrayCache};
pub use dse::characterize_targets;
pub use result::{ArrayCharacterization, OptimizationTarget};
pub use store::{CharacterizationStore, StoreError, STORE_VERSION};

use nvmx_celldb::CellDefinition;
use nvmx_units::{BitsPerCell, Capacity, Meters};
use serde::{Deserialize, Serialize};

/// Array-level design request: everything except the cell itself and the
/// optimization target, which every characterization call names
/// explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Total storage capacity.
    pub capacity: Capacity,
    /// Access width in bits (e.g. 512 for a 64 B cache line).
    pub word_bits: u64,
    /// Process node for periphery and cell geometry.
    pub node: Meters,
    /// Programming depth.
    pub bits_per_cell: BitsPerCell,
}

impl ArrayConfig {
    /// A sensible starting configuration: `capacity` at 22 nm, 128-bit
    /// words, SLC.
    pub fn new(capacity: Capacity) -> Self {
        Self {
            capacity,
            word_bits: 128,
            node: Meters::from_nano(22.0),
            bits_per_cell: BitsPerCell::Slc,
        }
    }

    /// Returns a copy with a different word width.
    #[must_use]
    pub fn with_word_bits(mut self, word_bits: u64) -> Self {
        self.word_bits = word_bits;
        self
    }

    /// Returns a copy with a different programming depth.
    #[must_use]
    pub fn with_bits_per_cell(mut self, bits_per_cell: BitsPerCell) -> Self {
        self.bits_per_cell = bits_per_cell;
        self
    }

    /// Returns a copy with a different process node.
    #[must_use]
    pub fn with_node(mut self, node: Meters) -> Self {
        self.node = node;
        self
    }
}

/// Errors from array characterization.
#[derive(Debug, Clone, PartialEq)]
pub enum CharacterizationError {
    /// The cell cannot be programmed at the requested depth.
    UnsupportedBitsPerCell {
        /// Cell name.
        cell: String,
        /// Requested depth.
        requested: BitsPerCell,
        /// Densest supported depth.
        supported: BitsPerCell,
    },
    /// No internal organization satisfies the request (capacity too small
    /// or absurdly large for the geometry space).
    NoValidOrganization {
        /// Cell name.
        cell: String,
        /// Requested capacity.
        capacity: Capacity,
    },
}

impl std::fmt::Display for CharacterizationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsupportedBitsPerCell {
                cell,
                requested,
                supported,
            } => write!(
                f,
                "cell `{cell}` supports at most {supported} but {requested} was requested"
            ),
            Self::NoValidOrganization { cell, capacity } => {
                write!(f, "no valid organization for `{cell}` at {capacity}")
            }
        }
    }
}

impl std::error::Error for CharacterizationError {}

/// Characterizes the best array for `cell` under `config` and `target`:
/// one [`characterize_targets`] pass through a private, fresh
/// [`SubarrayCache`]. Loops over many design points should call
/// [`characterize_targets`] with one shared cache instead.
///
/// # Errors
///
/// Returns [`CharacterizationError::UnsupportedBitsPerCell`] when the cell
/// cannot store `config.bits_per_cell`, and
/// [`CharacterizationError::NoValidOrganization`] when the geometry space
/// cannot realize the capacity.
pub fn characterize(
    cell: &CellDefinition,
    config: &ArrayConfig,
    target: OptimizationTarget,
) -> Result<ArrayCharacterization, CharacterizationError> {
    let mut results = characterize_targets(cell, config, &[target], &SubarrayCache::new(), None)?;
    Ok(results.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmx_celldb::{custom, tentpole, CellFlavor, TechnologyClass};

    #[test]
    fn all_targets_characterize_2mb_stt() {
        let cell = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
        let config = ArrayConfig::new(Capacity::from_mebibytes(2));
        let results = characterize_targets(
            &cell,
            &config,
            &OptimizationTarget::ALL,
            &SubarrayCache::new(),
            None,
        )
        .unwrap();
        assert_eq!(results.len(), OptimizationTarget::ALL.len());
    }

    #[test]
    fn stt_is_denser_than_sram_by_about_6x() {
        // Paper Fig. 5: "optimistic STT offers 6× higher density over SRAM".
        let stt = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
        let sram = custom::sram_16nm();
        let config = ArrayConfig::new(Capacity::from_mebibytes(2));
        let stt_array = characterize(&stt, &config, OptimizationTarget::ReadEdp).unwrap();
        let sram_array = characterize(
            &sram,
            &config.with_node(nvmx_units::Meters::from_nano(16.0)),
            OptimizationTarget::ReadEdp,
        )
        .unwrap();
        let ratio = stt_array.density_mbit_per_mm2() / sram_array.density_mbit_per_mm2();
        assert!(
            (3.0..12.0).contains(&ratio),
            "density ratio {ratio} (stt {} vs sram {})",
            stt_array.density_mbit_per_mm2(),
            sram_array.density_mbit_per_mm2()
        );
    }

    #[test]
    fn error_display_is_informative() {
        let err = CharacterizationError::UnsupportedBitsPerCell {
            cell: "SRAM-16nm".into(),
            requested: BitsPerCell::Mlc2,
            supported: BitsPerCell::Slc,
        };
        let text = err.to_string();
        assert!(text.contains("SRAM-16nm"));
        assert!(text.contains("MLC-2b"));
    }

    #[test]
    fn config_builders_compose() {
        let config = ArrayConfig::new(Capacity::from_mebibytes(16))
            .with_word_bits(512)
            .with_bits_per_cell(BitsPerCell::Mlc2);
        assert_eq!(config.word_bits, 512);
        assert_eq!(config.bits_per_cell, BitsPerCell::Mlc2);
    }
}
