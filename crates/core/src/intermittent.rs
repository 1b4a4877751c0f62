//! Intermittent-operation model (paper Sec. IV-A2, Figs. 6-right and 7).
//!
//! Non-volatile weight storage lets the accelerator power off between
//! inferences. The daily energy of such a system is
//!
//! ```text
//! E/day = N · (E_dynamic_per_event + E_wake) + P_sleep · T_sleep
//! ```
//!
//! where `P_sleep` is the residual leakage of the always-on power-management
//! domain (a small fraction of the array's active leakage, scaling with the
//! array's periphery), and `E_wake` charges the power rails (scaling with
//! array area). Volatile SRAM instead pays a full DRAM reload of the weight
//! image on every wake-up — the paper's "restore the weights from off-chip
//! memory" penalty.
//!
//! The interplay of those terms produces the paper's Fig. 7 crossover: the
//! densest/least-leaky array (optimistic FeFET) wins at low wake-up rates,
//! the lowest-energy-per-access one (optimistic STT) wins at high rates.

use crate::eval;
use nvmx_nvsim::ArrayCharacterization;
use nvmx_units::{Joules, Seconds};
use serde::{Deserialize, Serialize};

/// Fraction of active leakage the always-on sleep domain retains.
pub const SLEEP_LEAKAGE_FRACTION: f64 = 0.01;

/// Rail/decap charge energy per mm² of array on each wake-up.
pub const WAKE_ENERGY_PER_MM2: Joules = Joules::new(50.0e-9);

/// Energy to fetch one byte from off-chip DRAM (for volatile weight
/// restore).
pub const DRAM_FETCH_ENERGY_PER_BYTE: Joules = Joules::new(20.0e-12);

/// One intermittent deployment: how much data moves per event and how big
/// the stored weight image is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntermittentScenario {
    /// Scenario name, e.g. `"single-task image classification"`.
    pub name: String,
    /// Bytes read from the array per inference event.
    pub read_bytes_per_event: f64,
    /// Bytes written to the array per inference event.
    pub write_bytes_per_event: f64,
    /// Stored weight image (what SRAM must reload from DRAM per wake).
    pub weight_bytes: u64,
    /// Access granularity, bytes.
    pub access_bytes: u64,
}

/// Energy breakdown for one day of intermittent operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DailyEnergy {
    /// Events (inferences) per day.
    pub events_per_day: f64,
    /// Dynamic array energy across all events.
    pub dynamic: Joules,
    /// Wake-up (rail charge / weight restore) energy across all events.
    pub wake: Joules,
    /// Sleep-domain leakage energy.
    pub sleep: Joules,
    /// Retention-scrub energy: cells whose retention is shorter than a day
    /// must be periodically rewritten while the system sleeps (an extension
    /// the paper's Table I motivates but does not evaluate).
    pub scrub: Joules,
}

impl DailyEnergy {
    /// Total energy per day.
    pub fn total(&self) -> Joules {
        self.dynamic + self.wake + self.sleep + self.scrub
    }

    /// Average energy per inference event.
    pub fn per_event(&self) -> Joules {
        self.total() / self.events_per_day.max(1.0)
    }
}

/// Energy spent per day rewriting the whole array to counter retention
/// loss. Zero when retention exceeds one day (a deployment can refresh on
/// its natural wake-ups) or when the array is volatile anyway.
pub fn scrub_energy_per_day(array: &ArrayCharacterization) -> Joules {
    const DAY: f64 = 24.0 * 3600.0;
    let retention = array.retention.value();
    if !array.nonvolatile || !retention.is_finite() || retention >= DAY {
        return Joules::ZERO;
    }
    let scrubs_per_day = DAY / retention.max(1.0);
    let writes_per_scrub = array.capacity.bits() as f64 / array.word_bits as f64;
    array.write_energy * (writes_per_scrub * scrubs_per_day)
}

/// [`scrub_energy_per_day`] at an operating temperature: retention shrinks
/// by the Arrhenius acceleration factor
/// ([`nvmx_fault::retention_acceleration`]), so a hot deployment scrubs
/// proportionally more often — and an array whose retention comfortably
/// exceeds a day at 25 °C may start paying scrub energy at 85 °C. This is
/// the retention-vs-temperature axis the fault-study campaigns sweep.
pub fn scrub_energy_per_day_at(array: &ArrayCharacterization, celsius: f64) -> Joules {
    const DAY: f64 = 24.0 * 3600.0;
    let retention = array.retention.value();
    if !array.nonvolatile || !retention.is_finite() {
        return Joules::ZERO;
    }
    let effective = retention / nvmx_fault::retention_acceleration(celsius);
    if effective >= DAY {
        return Joules::ZERO;
    }
    let scrubs_per_day = DAY / effective.max(1.0);
    let writes_per_scrub = array.capacity.bits() as f64 / array.word_bits as f64;
    array.write_energy * (writes_per_scrub * scrubs_per_day)
}

/// Evaluates one day of intermittent operation of `array` under `scenario`
/// at `events_per_day` wake-ups.
pub fn daily_energy(
    array: &ArrayCharacterization,
    scenario: &IntermittentScenario,
    events_per_day: f64,
) -> DailyEnergy {
    let per_line = (scenario.access_bytes * 8).div_ceil(array.word_bits) as f64;
    let reads = scenario.read_bytes_per_event / scenario.access_bytes as f64 * per_line;
    let writes = scenario.write_bytes_per_event / scenario.access_bytes as f64 * per_line;
    let dynamic_per_event = array.read_energy * reads + array.write_energy * writes;

    let wake_per_event = if array.nonvolatile {
        WAKE_ENERGY_PER_MM2 * array.area.value()
    } else {
        // Volatile storage must restore the full weight image from DRAM and
        // rewrite it into the array.
        WAKE_ENERGY_PER_MM2 * array.area.value()
            + DRAM_FETCH_ENERGY_PER_BYTE * scenario.weight_bytes as f64
            + array.write_energy
                * (scenario.weight_bytes as f64 / scenario.access_bytes as f64 * per_line)
    };

    const DAY: f64 = 24.0 * 3600.0;
    let sleep_power = array.leakage * SLEEP_LEAKAGE_FRACTION;
    // Active time is negligible against a day at realistic event rates.
    let sleep = sleep_power * Seconds::new(DAY);

    DailyEnergy {
        events_per_day,
        dynamic: dynamic_per_event * events_per_day,
        wake: wake_per_event * events_per_day,
        sleep,
        scrub: scrub_energy_per_day(array),
    }
}

/// Sweeps events-per-day over a log range, returning `(rate, total energy)`
/// series for plotting Fig. 7.
pub fn sweep_events_per_day(
    array: &ArrayCharacterization,
    scenario: &IntermittentScenario,
    min_rate: f64,
    max_rate: f64,
    steps: usize,
) -> Vec<(f64, Joules)> {
    (0..steps)
        .map(|i| {
            let t = if steps <= 1 {
                0.0
            } else {
                i as f64 / (steps - 1) as f64
            };
            let rate = min_rate * (max_rate / min_rate).powf(t);
            (rate, daily_energy(array, scenario, rate).total())
        })
        .collect()
}

/// Continuous-mode counterpart for comparison: converts a per-event scenario
/// at `events_per_sec` into a sustained evaluation.
pub fn continuous_equivalent(
    array: &ArrayCharacterization,
    scenario: &IntermittentScenario,
    events_per_sec: f64,
) -> eval::Evaluation {
    let traffic = nvmx_workloads::TrafficPattern::new(
        scenario.name.clone(),
        scenario.read_bytes_per_event * events_per_sec,
        scenario.write_bytes_per_event * events_per_sec,
        scenario.access_bytes,
    );
    eval::evaluate(array, &traffic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmx_celldb::{custom, tentpole, CellFlavor, TechnologyClass};
    use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
    use nvmx_units::{Capacity, Meters};

    fn array(tech: TechnologyClass) -> ArrayCharacterization {
        let cell = tentpole::tentpole_cell(tech, CellFlavor::Optimistic).unwrap();
        characterize(
            &cell,
            &ArrayConfig::new(Capacity::from_mebibytes(2)),
            OptimizationTarget::ReadEdp,
        )
        .unwrap()
    }

    fn scenario() -> IntermittentScenario {
        IntermittentScenario {
            name: "image classification".into(),
            read_bytes_per_event: 12.0e6,
            write_bytes_per_event: 0.0,
            weight_bytes: 1_500_000,
            access_bytes: 32,
        }
    }

    #[test]
    fn sleep_dominates_at_low_rates_dynamic_at_high() {
        let stt = array(TechnologyClass::Stt);
        let low = daily_energy(&stt, &scenario(), 10.0);
        assert!(low.sleep.value() > low.dynamic.value());
        let high = daily_energy(&stt, &scenario(), 1.0e7);
        assert!(high.dynamic.value() > high.sleep.value());
    }

    #[test]
    fn fefet_to_stt_crossover_exists() {
        // Paper Fig. 7: FeFET lowest below ~1e5 inferences/day, STT above.
        let stt = array(TechnologyClass::Stt);
        let fefet = array(TechnologyClass::FeFet);
        let low_stt = daily_energy(&stt, &scenario(), 100.0).total();
        let low_fefet = daily_energy(&fefet, &scenario(), 100.0).total();
        assert!(
            low_fefet.value() < low_stt.value(),
            "low rate: FeFET {low_fefet} vs STT {low_stt}"
        );
        let hi_stt = daily_energy(&stt, &scenario(), 1.0e7).total();
        let hi_fefet = daily_energy(&fefet, &scenario(), 1.0e7).total();
        assert!(
            hi_stt.value() < hi_fefet.value(),
            "high rate: STT {hi_stt} vs FeFET {hi_fefet}"
        );
    }

    #[test]
    fn sram_pays_dram_restore_on_every_wake() {
        let cell = custom::sram_16nm();
        let sram = characterize(
            &cell,
            &ArrayConfig::new(Capacity::from_mebibytes(2)).with_node(Meters::from_nano(16.0)),
            OptimizationTarget::ReadEdp,
        )
        .unwrap();
        let stt = array(TechnologyClass::Stt);
        let s = scenario();
        for rate in [100.0, 1.0e4, 1.0e6] {
            let sram_e = daily_energy(&sram, &s, rate).total();
            let stt_e = daily_energy(&stt, &s, rate).total();
            assert!(
                sram_e.value() > stt_e.value(),
                "rate {rate}: SRAM {sram_e} vs STT {stt_e}"
            );
        }
    }

    #[test]
    fn energy_scales_with_rate_plus_floor() {
        let stt = array(TechnologyClass::Stt);
        let sweep = sweep_events_per_day(&stt, &scenario(), 1.0, 1.0e7, 8);
        assert_eq!(sweep.len(), 8);
        for pair in sweep.windows(2) {
            assert!(pair[1].1.value() >= pair[0].1.value(), "monotone in rate");
        }
        // Floor: even one event/day pays the sleep leakage.
        assert!(sweep[0].1.value() > 0.0);
    }

    #[test]
    fn continuous_equivalent_matches_eval() {
        let stt = array(TechnologyClass::Stt);
        let eval = continuous_equivalent(&stt, &scenario(), 60.0);
        assert!(eval.is_feasible());
        assert!(eval.total_power().value() > 0.0);
    }

    #[test]
    fn long_retention_arrays_never_scrub() {
        // Optimistic STT retains for years: no scrub cost.
        let stt = array(TechnologyClass::Stt);
        assert_eq!(scrub_energy_per_day(&stt).value(), 0.0);
        // SRAM is volatile: scrubbing is meaningless (it reloads instead).
        let sram = characterize(
            &custom::sram_16nm(),
            &ArrayConfig::new(Capacity::from_mebibytes(2)).with_node(Meters::from_nano(16.0)),
            OptimizationTarget::ReadEdp,
        )
        .unwrap();
        assert_eq!(scrub_energy_per_day(&sram).value(), 0.0);
    }

    #[test]
    fn hot_operation_raises_scrub_energy() {
        let cell = tentpole::tentpole_cell(TechnologyClass::Rram, CellFlavor::Pessimistic).unwrap();
        let rram = characterize(
            &cell,
            &ArrayConfig::new(Capacity::from_mebibytes(2)),
            OptimizationTarget::ReadEdp,
        )
        .unwrap();
        let reference = scrub_energy_per_day_at(&rram, 25.0);
        assert!(
            (reference.value() - scrub_energy_per_day(&rram).value()).abs()
                < reference.value() * 1e-6,
            "25 °C must match the untemperatured model"
        );
        let hot = scrub_energy_per_day_at(&rram, 85.0);
        assert!(
            hot.value() > reference.value(),
            "hot cells scrub more often"
        );
        // Volatile arrays never scrub at any temperature.
        let sram = characterize(
            &custom::sram_16nm(),
            &ArrayConfig::new(Capacity::from_mebibytes(2)).with_node(Meters::from_nano(16.0)),
            OptimizationTarget::ReadEdp,
        )
        .unwrap();
        assert_eq!(scrub_energy_per_day_at(&sram, 125.0).value(), 0.0);
    }

    #[test]
    fn short_retention_cells_pay_daily_scrub() {
        // Pessimistic RRAM retains ~1e3 s — it must rewrite itself ~86
        // times a day, and that cost lands in the daily total.
        let cell = tentpole::tentpole_cell(TechnologyClass::Rram, CellFlavor::Pessimistic).unwrap();
        let rram = characterize(
            &cell,
            &ArrayConfig::new(Capacity::from_mebibytes(2)),
            OptimizationTarget::ReadEdp,
        )
        .unwrap();
        let scrub = scrub_energy_per_day(&rram);
        assert!(scrub.value() > 0.0, "short-retention array must scrub");
        let daily = daily_energy(&rram, &scenario(), 100.0);
        assert_eq!(daily.scrub, scrub);
        assert!(daily.total().value() > (daily.dynamic + daily.wake + daily.sleep).value());
    }
}
