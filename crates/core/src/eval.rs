//! The analytical application-level evaluation engine (paper Sec. II-B).
//!
//! Performance uses the paper's *long-pole, bandwidth-driven* model: instead
//! of cycle-accurate simulation, each array is checked for whether it can
//! service the workload's sustained read/write traffic (utilization ≤ 1),
//! and aggregated access latency identifies solutions that would slow the
//! application down. Power combines per-access dynamic energy with standby
//! leakage; memory lifetime extrapolates cell endurance against the write
//! rate under ideal wear-leveling.

use nvmx_nvsim::ArrayCharacterization;
use nvmx_units::{Joules, Seconds, Watts};
use nvmx_workloads::{TrafficGrid, TrafficPattern};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Evaluation of one `(array, traffic)` pairing — the atom of every study.
///
/// The evaluated array and the applied traffic pattern are held behind
/// [`Arc`]s: a study's `arrays × traffic` product pairs each array with
/// many patterns (and vice versa), and sharing the records costs one
/// pointer clone per evaluation instead of a deep copy (strings and the
/// full organization record). Field access is unchanged
/// (`eval.array.read_latency`, `eval.traffic.name` etc.), equality
/// compares the pointed-to values, and serde serializes the records
/// inline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The array evaluated.
    pub array: Arc<ArrayCharacterization>,
    /// The traffic applied.
    pub traffic: Arc<TrafficPattern>,
    /// Array-level read accesses per second (traffic accesses split into
    /// array words).
    pub array_reads_per_sec: f64,
    /// Array-level write accesses per second.
    pub array_writes_per_sec: f64,
    /// Dynamic read power.
    pub read_power: Watts,
    /// Dynamic write power.
    pub write_power: Watts,
    /// Standby leakage power.
    pub leakage_power: Watts,
    /// Fraction of array service capacity the traffic consumes
    /// (> 1 ⇒ the array cannot sustain the workload).
    pub utilization: f64,
    /// Aggregated access latency per second of execution
    /// (`reads/s · t_read + writes/s · t_write`), the paper's total memory
    /// latency metric.
    pub aggregate_latency: Seconds,
    /// Projected memory lifetime under this write rate (`None` when
    /// endurance is unlimited or there are no writes).
    pub lifetime: Option<Seconds>,
}

impl Evaluation {
    /// Total operating power (dynamic + leakage).
    pub fn total_power(&self) -> Watts {
        self.read_power + self.write_power + self.leakage_power
    }

    /// `true` when the array can sustain the workload's traffic.
    pub fn is_feasible(&self) -> bool {
        self.utilization <= 1.0
    }

    /// Lifetime in years (`f64::INFINITY` when unconstrained).
    pub fn lifetime_years(&self) -> f64 {
        self.lifetime.map_or(f64::INFINITY, Seconds::as_years)
    }
}

/// Array accesses needed to serve one traffic access of `access_bytes`.
fn accesses_per_line(array: &ArrayCharacterization, access_bytes: u64) -> f64 {
    (access_bytes * 8).div_ceil(array.word_bits) as f64
}

/// Evaluates `array` under `traffic` with the analytical model.
///
/// This is the one scalar entry point and *the* evaluation float
/// expression: the batched [`EvalKernel::apply_batch_with`] hoists its
/// per-array terms and reproduces it term for term (proptested in
/// `tests/batch_eval_equivalence.rs`). It re-derives the per-array
/// invariants and deep-copies both records into the returned
/// [`Evaluation`]; sweeps evaluating many pairs build [`EvalKernel`]s
/// instead.
pub fn evaluate(array: &ArrayCharacterization, traffic: &TrafficPattern) -> Evaluation {
    let per_line = accesses_per_line(array, traffic.access_bytes);
    let reads = traffic.read_accesses_per_sec() * per_line;
    let writes = traffic.write_accesses_per_sec() * per_line;

    // Long-pole model: every traffic access occupies the array for a full
    // read/write cycle (small accesses against wide slow words amplify),
    // with limited bank-interleave credit.
    let interleave = (array.organization.groups() as f64).min(4.0);
    let utilization =
        (reads * array.read_cycle.value() + writes * array.write_cycle.value()) / interleave;

    Evaluation {
        array: Arc::new(array.clone()),
        traffic: Arc::new(traffic.clone()),
        array_reads_per_sec: reads,
        array_writes_per_sec: writes,
        read_power: array.read_energy.at_rate(reads),
        write_power: array.write_energy.at_rate(writes),
        leakage_power: array.leakage,
        utilization,
        aggregate_latency: array.read_latency * reads + array.write_latency * writes,
        lifetime: memory_lifetime(array, traffic.write_bytes_per_sec),
    }
}

/// A precomputed evaluation kernel for one array: every traffic-independent
/// sub-expression of [`evaluate`] hoisted out, so a study's
/// `arrays × traffic` product pays the per-array derivations (interleave
/// credit, endurance-capacity product, unit unwrapping) once per array
/// instead of once per evaluation.
///
/// [`EvalKernel::apply_batch_with`] preserves the floating-point expression
/// order of [`evaluate`] exactly — every hoisted value is the same
/// bit-pattern the inline expression would produce, and the per-traffic
/// arithmetic keeps the same association — so every field of the returned
/// [`Evaluation`]s is bit-identical (proptested in
/// `tests/batch_eval_equivalence.rs`).
#[derive(Debug, Clone)]
pub struct EvalKernel {
    array: Arc<ArrayCharacterization>,
    word_bits: u64,
    read_energy: Joules,
    write_energy: Joules,
    read_cycle_s: f64,
    write_cycle_s: f64,
    read_latency: Seconds,
    write_latency: Seconds,
    leakage: Watts,
    /// `min(groups, 4)` — the bank-interleave credit.
    interleave: f64,
    /// `endurance_cycles · capacity_bytes`, or `None` when endurance is
    /// unbounded (no write rate can then bound the lifetime).
    endurance_capacity: Option<f64>,
}

impl EvalKernel {
    /// Builds the kernel for `array`. Cost: a handful of loads and two
    /// multiplies — build it once per array of a sweep, then apply it to
    /// the study's traffic grid.
    pub fn new(array: &Arc<ArrayCharacterization>) -> Self {
        #[allow(clippy::cast_precision_loss)]
        let capacity_bytes = array.capacity.bytes() as f64;
        Self {
            word_bits: array.word_bits,
            read_energy: array.read_energy,
            write_energy: array.write_energy,
            read_cycle_s: array.read_cycle.value(),
            write_cycle_s: array.write_cycle.value(),
            read_latency: array.read_latency,
            write_latency: array.write_latency,
            leakage: array.leakage,
            interleave: (array.organization.groups() as f64).min(4.0),
            endurance_capacity: array
                .endurance_cycles
                .is_finite()
                .then(|| array.endurance_cycles * capacity_bytes),
            array: Arc::clone(array),
        }
    }

    /// The array this kernel evaluates.
    pub fn array(&self) -> &Arc<ArrayCharacterization> {
        &self.array
    }

    /// The array's access width — the only array property the
    /// traffic-rate lanes ([`RateLanes`]) depend on.
    pub fn word_bits(&self) -> u64 {
        self.word_bits
    }

    /// Evaluates the kernel's array against **every** lane of `grid` in one
    /// pass, returning the evaluations in lane order — bit-identical per
    /// field to calling [`evaluate`] on each pattern (proptested in
    /// `tests/batch_eval_equivalence.rs`).
    ///
    /// The batch walks the grid's contiguous columnar lanes instead of
    /// chasing one pattern record per application, and derives the access
    /// rates once for the whole grid via [`RateLanes`]. Engines evaluating
    /// many arrays that share a word width should build the lanes once and
    /// call [`EvalKernel::apply_batch_with`].
    pub fn apply_batch(&self, grid: &TrafficGrid) -> Vec<Evaluation> {
        self.apply_batch_with(grid, &RateLanes::new(grid, self.word_bits))
    }

    /// [`EvalKernel::apply_batch`] with the access-rate lanes precomputed
    /// by the caller (they depend on the array only through its word
    /// width, so arrays sharing one width share one set of lanes).
    ///
    /// # Panics
    ///
    /// Panics when `rates` was built for a different word width — the
    /// rates would silently belong to another array shape.
    pub fn apply_batch_with(&self, grid: &TrafficGrid, rates: &RateLanes) -> Vec<Evaluation> {
        assert_eq!(
            rates.word_bits, self.word_bits,
            "rate lanes built for word_bits={}, kernel has word_bits={}",
            rates.word_bits, self.word_bits
        );
        assert_eq!(
            rates.reads.len(),
            grid.len(),
            "rate lanes cover a different grid"
        );
        // Zipped columnar lanes: contiguous loads, bounds checks elided.
        let lanes = rates
            .reads
            .iter()
            .zip(&rates.writes)
            .zip(grid.write_bytes_per_sec())
            .zip(grid.patterns());
        lanes
            .map(|(((&reads, &writes), &write_rate), pattern)| {
                // Term for term the body of `evaluate`: same operands, same
                // association, so every field is bit-identical. `ec / rate`
                // associates exactly like `memory_lifetime`'s
                // `endurance_cycles * capacity_bytes / write_bytes_per_sec`,
                // and the `<= 0.0` guard mirrors it verbatim (so even a NaN
                // write rate behaves identically).
                let utilization =
                    (reads * self.read_cycle_s + writes * self.write_cycle_s) / self.interleave;
                let lifetime = self.endurance_capacity.and_then(|ec| {
                    if write_rate <= 0.0 {
                        None
                    } else {
                        Some(Seconds::new(ec / write_rate))
                    }
                });
                Evaluation {
                    array: Arc::clone(&self.array),
                    traffic: Arc::clone(pattern),
                    array_reads_per_sec: reads,
                    array_writes_per_sec: writes,
                    read_power: self.read_energy.at_rate(reads),
                    write_power: self.write_energy.at_rate(writes),
                    leakage_power: self.leakage,
                    utilization,
                    aggregate_latency: self.read_latency * reads + self.write_latency * writes,
                    lifetime,
                }
            })
            .collect()
    }
}

/// Per-word-width access-rate lanes over a [`TrafficGrid`]: the
/// traffic-dependent but array-independent prefix of the evaluation
/// expression (`per_line`, array reads/sec, array writes/sec).
///
/// Rates depend on the array only through its word width, so a campaign
/// whose arrays share one access width computes these lanes **once for the
/// whole evaluation product** instead of once per `(array, traffic)` pair
/// — the integer `div_ceil` and two multiplies leave the per-pair hot
/// path entirely.
///
/// Every lane holds the exact bit pattern the scalar expression produces:
/// `per_line` is the same `div_ceil`-then-cast, and the rate products use
/// the grid's precomputed accesses-per-second lanes (pure functions of
/// the pattern).
#[derive(Debug, Clone)]
pub struct RateLanes {
    word_bits: u64,
    reads: Vec<f64>,
    writes: Vec<f64>,
}

impl RateLanes {
    /// Derives the access-rate lanes of `grid` for arrays of `word_bits`
    /// access width.
    pub fn new(grid: &TrafficGrid, word_bits: u64) -> Self {
        let lanes = grid.len();
        let access_bytes = grid.access_bytes();
        let read_accesses = grid.read_accesses_per_sec();
        let write_accesses = grid.write_accesses_per_sec();
        let mut reads = Vec::with_capacity(lanes);
        let mut writes = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let per_line = (access_bytes[lane] * 8).div_ceil(word_bits) as f64;
            reads.push(read_accesses[lane] * per_line);
            writes.push(write_accesses[lane] * per_line);
        }
        Self {
            word_bits,
            reads,
            writes,
        }
    }

    /// The access width these lanes were derived for.
    pub fn word_bits(&self) -> u64 {
        self.word_bits
    }
}

/// Projected lifetime of `array` at a sustained write byte rate, assuming
/// ideal wear-leveling across the whole capacity.
pub fn memory_lifetime(array: &ArrayCharacterization, write_bytes_per_sec: f64) -> Option<Seconds> {
    if !array.endurance_cycles.is_finite() || write_bytes_per_sec <= 0.0 {
        return None;
    }
    let capacity_bytes = array.capacity.bytes() as f64;
    let seconds = array.endurance_cycles * capacity_bytes / write_bytes_per_sec;
    Some(Seconds::new(seconds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmx_celldb::{custom, tentpole, CellFlavor, TechnologyClass};
    use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
    use nvmx_units::{Capacity, Meters};

    fn array(tech: TechnologyClass, flavor: CellFlavor) -> ArrayCharacterization {
        let cell = tentpole::tentpole_cell(tech, flavor).unwrap();
        characterize(
            &cell,
            &ArrayConfig::new(Capacity::from_mebibytes(2)),
            OptimizationTarget::ReadEdp,
        )
        .unwrap()
    }

    fn sram_array() -> ArrayCharacterization {
        let cell = custom::sram_16nm();
        let config =
            ArrayConfig::new(Capacity::from_mebibytes(2)).with_node(Meters::from_nano(16.0));
        characterize(&cell, &config, OptimizationTarget::ReadEdp).unwrap()
    }

    #[test]
    fn leakage_dominates_sram_at_low_traffic() {
        let sram = sram_array();
        let light = TrafficPattern::new("light", 1.0e6, 1.0e5, 64);
        let eval = evaluate(&sram, &light);
        assert!(eval.leakage_power.value() > 10.0 * (eval.read_power + eval.write_power).value());
    }

    #[test]
    fn envm_beats_sram_power_under_dnn_class_traffic() {
        // Paper Fig. 6: PCM, RRAM, STT offer >4× lower power than SRAM.
        let traffic = TrafficPattern::new("dnn", 1.0e9, 0.0, 32);
        let sram_power = evaluate(&sram_array(), &traffic).total_power().value();
        for tech in [
            TechnologyClass::Pcm,
            TechnologyClass::Rram,
            TechnologyClass::Stt,
        ] {
            let power = evaluate(&array(tech, CellFlavor::Optimistic), &traffic)
                .total_power()
                .value();
            assert!(
                sram_power / power > 4.0,
                "{tech}: SRAM {sram_power} vs {power}"
            );
        }
    }

    #[test]
    fn infeasible_when_writes_exceed_bandwidth() {
        let pcm = array(TechnologyClass::Pcm, CellFlavor::Pessimistic);
        // Pessimistic PCM writes take 30 µs; 100 MB/s of writes is hopeless.
        let heavy = TrafficPattern::new("write-heavy", 1.0e6, 100.0e6, 64);
        let eval = evaluate(&pcm, &heavy);
        assert!(!eval.is_feasible(), "utilization {}", eval.utilization);
    }

    #[test]
    fn lifetime_tracks_endurance_and_write_rate() {
        let rram = array(TechnologyClass::Rram, CellFlavor::Optimistic);
        let t1 = TrafficPattern::new("w1", 1.0e9, 1.0e6, 64);
        let t100 = TrafficPattern::new("w100", 1.0e9, 100.0e6, 64);
        let l1 = evaluate(&rram, &t1).lifetime_years();
        let l100 = evaluate(&rram, &t100).lifetime_years();
        assert!(l1 / l100 > 99.0 && l1 / l100 < 101.0, "{l1} vs {l100}");
    }

    #[test]
    fn stt_outlives_rram() {
        // Paper Fig. 8: RRAM has the worst endurance and lowest lifetimes;
        // STT the best.
        let traffic = TrafficPattern::new("w", 1.0e9, 50.0e6, 8);
        let stt = evaluate(
            &array(TechnologyClass::Stt, CellFlavor::Optimistic),
            &traffic,
        );
        let rram = evaluate(
            &array(TechnologyClass::Rram, CellFlavor::Optimistic),
            &traffic,
        );
        assert!(stt.lifetime_years() > 1.0e3 * rram.lifetime_years());
    }

    #[test]
    fn sram_lifetime_is_unbounded() {
        let traffic = TrafficPattern::new("w", 1.0e9, 100.0e6, 64);
        let eval = evaluate(&sram_array(), &traffic);
        assert!(eval.lifetime.is_none());
        assert_eq!(eval.lifetime_years(), f64::INFINITY);
    }

    #[test]
    fn zero_write_traffic_means_no_lifetime_bound() {
        let rram = array(TechnologyClass::Rram, CellFlavor::Optimistic);
        let readonly = TrafficPattern::new("ro", 1.0e9, 0.0, 64);
        assert!(evaluate(&rram, &readonly).lifetime.is_none());
    }

    #[test]
    fn wide_lines_need_multiple_array_accesses() {
        let stt = array(TechnologyClass::Stt, CellFlavor::Optimistic);
        // 64 B line = 512 bits over a 128-bit word ⇒ 4 array accesses.
        let t = TrafficPattern::new("lines", 64.0e6, 0.0, 64);
        let eval = evaluate(&stt, &t);
        let expected = 1.0e6 * (512u64.div_ceil(stt.word_bits)) as f64;
        assert!((eval.array_reads_per_sec - expected).abs() < 1.0);
    }
}
