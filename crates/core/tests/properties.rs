//! Property-based tests for the evaluation engine: conservation, scaling,
//! and filter invariants over random traffic.

use nvmexplorer_core::eval::evaluate;
use nvmexplorer_core::explore::{Objective, ResultSet};
use nvmexplorer_core::intermittent::{daily_energy, IntermittentScenario};
use nvmexplorer_core::write_buffer::{evaluate_with_buffer, WriteBuffer};
use nvmx_celldb::{tentpole, CellFlavor, TechnologyClass};
use nvmx_nvsim::{characterize, ArrayCharacterization, ArrayConfig, OptimizationTarget};
use nvmx_units::Capacity;
use nvmx_workloads::TrafficPattern;
use proptest::prelude::*;
use std::sync::OnceLock;

fn stt_array() -> &'static ArrayCharacterization {
    static ARRAY: OnceLock<ArrayCharacterization> = OnceLock::new();
    ARRAY.get_or_init(|| {
        let cell = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
        characterize(
            &cell,
            &ArrayConfig::new(Capacity::from_mebibytes(2)),
            OptimizationTarget::ReadEdp,
        )
        .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn power_decomposes_and_scales(
        reads in 1.0e3..1.0e10f64,
        writes in 0.0..1.0e8f64,
    ) {
        let t = TrafficPattern::new("p", reads, writes, 64);
        let eval = evaluate(stt_array(), &t);
        let total = eval.total_power().value();
        let parts = eval.read_power.value() + eval.write_power.value()
            + eval.leakage_power.value();
        prop_assert!((total - parts).abs() / total < 1e-12, "power must decompose");

        // Doubling traffic doubles dynamic power exactly.
        let t2 = TrafficPattern::new("p2", 2.0 * reads, 2.0 * writes, 64);
        let eval2 = evaluate(stt_array(), &t2);
        prop_assert!((eval2.read_power.value() - 2.0 * eval.read_power.value()).abs()
            <= 1e-9 * eval2.read_power.value().max(1e-30));
        prop_assert_eq!(eval2.leakage_power, eval.leakage_power);
    }

    #[test]
    fn utilization_and_latency_scale_with_traffic(rate_exp in 4.0..9.0f64) {
        let rate = 10f64.powf(rate_exp);
        let t = TrafficPattern::new("p", rate, rate / 100.0, 64);
        let t10 = TrafficPattern::new("p", 10.0 * rate, rate / 10.0, 64);
        let a = evaluate(stt_array(), &t);
        let b = evaluate(stt_array(), &t10);
        prop_assert!((b.utilization / a.utilization - 10.0).abs() < 1e-6);
        prop_assert!((b.aggregate_latency.value() / a.aggregate_latency.value() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn lifetime_is_inverse_in_write_rate(writes in 1.0e3..1.0e9f64) {
        let t1 = TrafficPattern::new("a", 1.0e9, writes, 64);
        let t2 = TrafficPattern::new("b", 1.0e9, 2.0 * writes, 64);
        let l1 = evaluate(stt_array(), &t1).lifetime_years();
        let l2 = evaluate(stt_array(), &t2).lifetime_years();
        prop_assert!((l1 / l2 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn write_buffer_never_hurts(
        reads in 1.0e6..2.0e10f64,
        writes in 1.0e3..2.0e9f64,
        mask in 0.0..1.0f64,
        coalesce in 0.0..1.0f64,
    ) {
        let t = TrafficPattern::new("p", reads, writes, 8);
        let bare = evaluate_with_buffer(stt_array(), &t, WriteBuffer::NONE);
        let buffered = evaluate_with_buffer(stt_array(), &t, WriteBuffer::new(mask, coalesce));
        prop_assert!(buffered.utilization <= bare.utilization * (1.0 + 1e-9));
        prop_assert!(buffered.aggregate_latency.value() <= bare.aggregate_latency.value() * (1.0 + 1e-9));
        prop_assert!(buffered.lifetime_years() >= bare.lifetime_years() * (1.0 - 1e-9));
    }

    #[test]
    fn intermittent_energy_is_monotone_in_rate(lo_exp in 0.0..3.0f64, factor in 1.1..100.0f64) {
        let scenario = IntermittentScenario {
            name: "p".into(),
            read_bytes_per_event: 1.0e6,
            write_bytes_per_event: 0.0,
            weight_bytes: 1_000_000,
            access_bytes: 32,
        };
        let lo = 10f64.powf(lo_exp);
        let a = daily_energy(stt_array(), &scenario, lo).total();
        let b = daily_energy(stt_array(), &scenario, lo * factor).total();
        prop_assert!(b.value() >= a.value());
        // Per-event cost must fall (the fixed sleep floor amortizes).
        let pa = daily_energy(stt_array(), &scenario, lo).per_event();
        let pb = daily_energy(stt_array(), &scenario, lo * factor).per_event();
        prop_assert!(pb.value() <= pa.value() * (1.0 + 1e-9));
    }

    #[test]
    fn filters_only_shrink_result_sets(
        reads in 1.0e6..1.0e10f64,
        writes in 1.0e3..1.0e8f64,
        power_cap_mw in 0.1..1000.0f64,
    ) {
        let t = TrafficPattern::new("p", reads, writes, 64);
        let evals = vec![evaluate(stt_array(), &t)];
        let set = ResultSet::new(evals);
        let feasible = set.feasible();
        prop_assert!(feasible.len() <= set.len());
        let constrained = set.constrained(&nvmexplorer_core::config::Constraints {
            max_power_w: Some(power_cap_mw / 1e3),
            ..Default::default()
        });
        prop_assert!(constrained.len() <= set.len());
        // best() agrees with leaderboard head.
        if let Some(best) = set.best(Objective::TotalPower) {
            let board = set.leaderboard(Objective::TotalPower);
            prop_assert_eq!(&board[0].array.cell_name, &best.array.cell_name);
        }
    }
}
