//! Write-buffer analytical model (paper Sec. V-D, Fig. 14).
//!
//! A small, fast write cache in front of an eNVM array can (a) *mask* the
//! array's write latency from the system and (b) *coalesce* repeated writes
//! to the same address, reducing the write traffic that reaches the eNVM.
//! Rather than commit to a cycle-accurate design, the paper sweeps the two
//! effects analytically to decide whether a write buffer could make slow
//! writers (FeFETs in particular) viable — this module is that sweep.

use crate::eval::{evaluate, Evaluation};
use nvmx_nvsim::ArrayCharacterization;
use nvmx_units::Seconds;
use nvmx_workloads::TrafficPattern;
use serde::{Deserialize, Serialize};

/// A write-buffer configuration expressed by its two analytical effects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WriteBuffer {
    /// Fraction of array write latency hidden from the system
    /// (0 = none, 1 = fully masked while the buffer drains in background).
    pub latency_mask: f64,
    /// Fraction of write traffic absorbed by in-place updates in the buffer
    /// (0 = all writes reach the eNVM, 0.5 = write traffic halved).
    pub coalescing: f64,
}

impl WriteBuffer {
    /// No buffering — the baseline.
    pub const NONE: Self = Self {
        latency_mask: 0.0,
        coalescing: 0.0,
    };

    /// Creates a configuration, clamping both effects into `[0, 1]`.
    pub fn new(latency_mask: f64, coalescing: f64) -> Self {
        Self {
            latency_mask: latency_mask.clamp(0.0, 1.0),
            coalescing: coalescing.clamp(0.0, 1.0),
        }
    }

    /// The paper's Fig. 14 sweep points: latency masking only, and write
    /// traffic reduced by 25 %, 50 %, and 100 % (perfect coalescing).
    pub fn fig14_sweep() -> Vec<(String, Self)> {
        vec![
            ("no buffer".to_owned(), Self::NONE),
            ("mask latency".to_owned(), Self::new(1.0, 0.0)),
            ("mask + coalesce 25%".to_owned(), Self::new(1.0, 0.25)),
            ("mask + coalesce 50%".to_owned(), Self::new(1.0, 0.50)),
            ("mask + coalesce 100%".to_owned(), Self::new(1.0, 1.0)),
        ]
    }
}

/// Evaluates `array` under `traffic` with a write buffer in front.
///
/// Coalescing reduces the write traffic that reaches (and wears) the array;
/// latency masking removes the masked fraction of write latency from the
/// aggregate-latency metric and the utilization check (drains overlap with
/// reads in other banks). Write *energy* still pays for every drained write.
pub fn evaluate_with_buffer(
    array: &ArrayCharacterization,
    traffic: &TrafficPattern,
    buffer: WriteBuffer,
) -> Evaluation {
    let reduced = traffic.with_write_traffic_scaled(1.0 - buffer.coalescing);
    let mut eval = evaluate(array, &reduced);

    if buffer.latency_mask > 0.0 {
        let masked_write_latency =
            Seconds::new(array.write_latency.value() * (1.0 - buffer.latency_mask));
        // Re-derive the latency aggregate and utilization with the masked
        // write cost: buffered drains overlap with reads to other banks, so
        // masked writes occupy only a quarter of their raw cycle.
        eval.aggregate_latency = array.read_latency * eval.array_reads_per_sec
            + masked_write_latency * eval.array_writes_per_sec;
        let interleave = (array.organization.groups() as f64).min(4.0);
        let write_occupancy = eval.array_writes_per_sec
            * array.write_cycle.value()
            * (1.0 - buffer.latency_mask * 0.75);
        eval.utilization =
            (eval.array_reads_per_sec * array.read_cycle.value() + write_occupancy) / interleave;
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmx_celldb::{tentpole, CellFlavor, TechnologyClass};
    use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
    use nvmx_units::Capacity;

    fn fefet_array() -> ArrayCharacterization {
        let cell = tentpole::tentpole_cell(TechnologyClass::FeFet, CellFlavor::Optimistic).unwrap();
        characterize(
            &cell,
            &ArrayConfig::new(Capacity::from_mebibytes(8)).with_word_bits(512),
            OptimizationTarget::ReadEdp,
        )
        .unwrap()
    }

    fn heavy_writes() -> TrafficPattern {
        // Facebook-BFS-class scratchpad traffic: word-granularity accesses,
        // write rate at the top of the paper's graph envelope.
        TrafficPattern::new("bfs-like", 4.0e9, 400.0e6, 8)
    }

    #[test]
    fn buffering_recovers_feasibility_for_fefet() {
        // Paper Fig. 14: with write traffic reduced by at least half, FeFET
        // emerges as a performant option for Facebook-Graph-BFS.
        let array = fefet_array();
        let traffic = heavy_writes();
        let bare = evaluate_with_buffer(&array, &traffic, WriteBuffer::NONE);
        let buffered = evaluate_with_buffer(&array, &traffic, WriteBuffer::new(1.0, 0.5));
        assert!(!bare.is_feasible(), "bare utilization {}", bare.utilization);
        assert!(
            buffered.is_feasible(),
            "buffered utilization {}",
            buffered.utilization
        );
    }

    #[test]
    fn coalescing_extends_lifetime() {
        let array = fefet_array();
        let traffic = heavy_writes();
        let bare = evaluate_with_buffer(&array, &traffic, WriteBuffer::NONE);
        let coalesced = evaluate_with_buffer(&array, &traffic, WriteBuffer::new(0.0, 0.5));
        assert!(coalesced.lifetime_years() > 1.9 * bare.lifetime_years());
    }

    #[test]
    fn masking_reduces_aggregate_latency() {
        let array = fefet_array();
        let traffic = heavy_writes();
        let bare = evaluate_with_buffer(&array, &traffic, WriteBuffer::NONE);
        let masked = evaluate_with_buffer(&array, &traffic, WriteBuffer::new(1.0, 0.0));
        assert!(masked.aggregate_latency.value() < bare.aggregate_latency.value());
        // Reads are untouched.
        assert_eq!(masked.read_power, bare.read_power);
    }

    #[test]
    fn full_coalescing_removes_write_power() {
        let array = fefet_array();
        let traffic = heavy_writes();
        let perfect = evaluate_with_buffer(&array, &traffic, WriteBuffer::new(1.0, 1.0));
        assert_eq!(perfect.write_power.value(), 0.0);
        assert!(perfect.lifetime.is_none());
    }

    #[test]
    fn config_clamps_inputs() {
        let b = WriteBuffer::new(3.0, -1.0);
        assert_eq!(b.latency_mask, 1.0);
        assert_eq!(b.coalescing, 0.0);
    }

    #[test]
    fn sweep_has_five_points() {
        assert_eq!(WriteBuffer::fig14_sweep().len(), 5);
    }
}
