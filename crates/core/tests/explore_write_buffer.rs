//! Public-API pinning tests for [`explore`] and [`write_buffer`]: these two
//! modules sit downstream of the sweep engine, so their observable behavior
//! is locked here before/while refactors move code around them.

use nvmexplorer_core::config::Constraints;
use nvmexplorer_core::eval::evaluate;
use nvmexplorer_core::explore::{Objective, ResultSet};
use nvmexplorer_core::write_buffer::{evaluate_with_buffer, WriteBuffer};
use nvmx_celldb::{custom, tentpole, CellFlavor, TechnologyClass};
use nvmx_nvsim::{characterize, ArrayCharacterization, ArrayConfig, OptimizationTarget};
use nvmx_units::{Capacity, Meters};
use nvmx_workloads::TrafficPattern;

fn array(tech: TechnologyClass, flavor: CellFlavor) -> ArrayCharacterization {
    let cell = tentpole::tentpole_cell(tech, flavor).unwrap();
    characterize(
        &cell,
        &ArrayConfig::new(Capacity::from_mebibytes(2)),
        OptimizationTarget::ReadEdp,
    )
    .unwrap()
}

fn sample_set() -> ResultSet {
    let traffic = TrafficPattern::new("api-pin", 2.0e9, 20.0e6, 64);
    let mut evals = Vec::new();
    for tech in [TechnologyClass::Stt, TechnologyClass::Rram] {
        for flavor in [CellFlavor::Optimistic, CellFlavor::Pessimistic] {
            evals.push(evaluate(&array(tech, flavor), &traffic));
        }
    }
    let sram = characterize(
        &custom::sram_16nm(),
        &ArrayConfig::new(Capacity::from_mebibytes(2)).with_node(Meters::from_nano(16.0)),
        OptimizationTarget::ReadEdp,
    )
    .unwrap();
    evals.push(evaluate(&sram, &traffic));
    ResultSet::new(evals)
}

// ------------------------------------------------------------------ explore

#[test]
fn objective_scores_are_lower_is_better_for_every_variant() {
    let set = sample_set();
    let eval = &set.evaluations()[0];
    // Direct metrics score as themselves…
    assert_eq!(
        Objective::TotalPower.score(eval),
        eval.total_power().value()
    );
    assert_eq!(
        Objective::AggregateLatency.score(eval),
        eval.aggregate_latency.value()
    );
    assert_eq!(
        Objective::ReadEnergy.score(eval),
        eval.array.read_energy.value()
    );
    assert_eq!(Objective::Area.score(eval), eval.array.area.value());
    // …higher-is-better metrics negate.
    assert_eq!(Objective::Lifetime.score(eval), -eval.lifetime_years());
    assert_eq!(
        Objective::Density.score(eval),
        -eval.array.density_mbit_per_mm2()
    );
}

#[test]
fn result_set_construction_accessors_and_from_iterator_agree() {
    let set = sample_set();
    assert_eq!(set.len(), 5);
    assert!(!set.is_empty());
    let rebuilt: ResultSet = set.evaluations().iter().cloned().collect();
    assert_eq!(rebuilt.len(), set.len());
    assert_eq!(rebuilt.evaluations(), set.evaluations());
    assert!(ResultSet::new(Vec::new()).is_empty());
    assert!(ResultSet::new(Vec::new())
        .best(Objective::TotalPower)
        .is_none());
}

#[test]
fn filter_feasible_and_technology_compose_without_mutating_the_source() {
    let set = sample_set();
    let before = set.len();
    let stt = set.feasible().technology(TechnologyClass::Stt);
    assert!(stt
        .evaluations()
        .iter()
        .all(|e| e.array.technology == TechnologyClass::Stt && e.is_feasible()));
    // Filters return new sets; the source is untouched.
    assert_eq!(set.len(), before);
    // An impossible predicate empties the set.
    assert!(set.filter(|_| false).is_empty());
}

#[test]
fn constraints_block_applies_every_bound() {
    let set = sample_set();
    let constrained = set.constrained(&Constraints {
        max_power_w: Some(0.05),
        max_area_mm2: Some(10.0),
        min_lifetime_years: Some(0.5),
        max_read_latency_ns: Some(100.0),
        min_accuracy: None,
    });
    for eval in constrained.evaluations() {
        assert!(eval.total_power().value() <= 0.05);
        assert!(eval.array.area.value() <= 10.0);
        assert!(eval.lifetime_years() >= 0.5);
        assert!(eval.array.read_latency.value() * 1.0e9 <= 100.0);
    }
    assert!(
        constrained.len() < set.len(),
        "SRAM must fail the power bound"
    );
}

#[test]
fn leaderboard_orders_best_first_and_agrees_with_best() {
    let set = sample_set();
    for objective in [
        Objective::TotalPower,
        Objective::Lifetime,
        Objective::Density,
    ] {
        let board = set.leaderboard(objective);
        assert_eq!(board.len(), set.len());
        for pair in board.windows(2) {
            assert!(objective.score(pair[0]) <= objective.score(pair[1]));
        }
        let best = set.best(objective).unwrap();
        assert_eq!(objective.score(board[0]), objective.score(best));
    }
}

#[test]
fn best_per_technology_returns_one_sorted_entry_per_present_class() {
    let set = sample_set();
    let best = set.best_per_technology(Objective::TotalPower);
    let mut techs: Vec<_> = best.iter().map(|e| e.array.technology).collect();
    let sorted_scores: Vec<f64> = best
        .iter()
        .map(|e| Objective::TotalPower.score(e))
        .collect();
    assert!(sorted_scores.windows(2).all(|w| w[0] <= w[1]));
    techs.sort_unstable();
    techs.dedup();
    assert_eq!(techs.len(), best.len(), "one entry per class");
    assert_eq!(set.technologies().len(), best.len());
}

#[test]
fn technologies_lists_present_classes_sorted_and_deduped() {
    let set = sample_set();
    let techs = set.technologies();
    assert_eq!(
        techs,
        vec![
            TechnologyClass::Sram,
            TechnologyClass::Stt,
            TechnologyClass::Rram
        ]
    );
}

// ------------------------------------------------------------- write_buffer

#[test]
fn write_buffer_constants_and_clamping_pin_the_constructor() {
    assert_eq!(WriteBuffer::NONE.latency_mask, 0.0);
    assert_eq!(WriteBuffer::NONE.coalescing, 0.0);
    let clamped = WriteBuffer::new(2.5, -0.5);
    assert_eq!(clamped.latency_mask, 1.0);
    assert_eq!(clamped.coalescing, 0.0);
    let inside = WriteBuffer::new(0.3, 0.7);
    assert_eq!(inside.latency_mask, 0.3);
    assert_eq!(inside.coalescing, 0.7);
}

#[test]
fn fig14_sweep_spans_none_to_perfect_coalescing() {
    let sweep = WriteBuffer::fig14_sweep();
    assert_eq!(sweep.len(), 5);
    assert_eq!(sweep[0].1, WriteBuffer::NONE);
    assert_eq!(sweep.last().unwrap().1, WriteBuffer::new(1.0, 1.0));
    // Coalescing is monotonically increasing across the sweep.
    for pair in sweep.windows(2) {
        assert!(pair[0].1.coalescing <= pair[1].1.coalescing);
    }
}

#[test]
fn no_buffer_matches_plain_evaluation_on_every_metric() {
    let fefet = array(TechnologyClass::FeFet, CellFlavor::Optimistic);
    let traffic = TrafficPattern::new("w", 1.0e9, 100.0e6, 8);
    let plain = evaluate(&fefet, &traffic);
    let buffered = evaluate_with_buffer(&fefet, &traffic, WriteBuffer::NONE);
    // NONE is the identity configuration metric-for-metric (the traffic
    // name gains a "writes x1.00" annotation, which is presentation only).
    assert_eq!(plain.array, buffered.array);
    assert_eq!(plain.array_reads_per_sec, buffered.array_reads_per_sec);
    assert_eq!(plain.array_writes_per_sec, buffered.array_writes_per_sec);
    assert_eq!(plain.read_power, buffered.read_power);
    assert_eq!(plain.write_power, buffered.write_power);
    assert_eq!(plain.leakage_power, buffered.leakage_power);
    assert_eq!(plain.utilization, buffered.utilization);
    assert_eq!(plain.aggregate_latency, buffered.aggregate_latency);
    assert_eq!(plain.lifetime, buffered.lifetime);
}

#[test]
fn coalescing_scales_write_traffic_power_and_lifetime_together() {
    let fefet = array(TechnologyClass::FeFet, CellFlavor::Optimistic);
    let traffic = TrafficPattern::new("w", 1.0e9, 100.0e6, 8);
    let bare = evaluate_with_buffer(&fefet, &traffic, WriteBuffer::NONE);
    let half = evaluate_with_buffer(&fefet, &traffic, WriteBuffer::new(0.0, 0.5));
    // Half the writes reach the array…
    assert!((half.array_writes_per_sec - bare.array_writes_per_sec / 2.0).abs() < 1.0);
    // …reads are untouched…
    assert_eq!(half.array_reads_per_sec, bare.array_reads_per_sec);
    assert_eq!(half.read_power, bare.read_power);
    // …and lifetime doubles (endurance is finite for FeFET).
    let ratio = half.lifetime_years() / bare.lifetime_years();
    assert!((ratio - 2.0).abs() < 0.01, "lifetime ratio {ratio}");
}

#[test]
fn latency_masking_lowers_utilization_monotonically() {
    let fefet = array(TechnologyClass::FeFet, CellFlavor::Pessimistic);
    let traffic = TrafficPattern::new("w", 1.0e9, 50.0e6, 8);
    let mut last = f64::INFINITY;
    for mask in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let eval = evaluate_with_buffer(&fefet, &traffic, WriteBuffer::new(mask, 0.0));
        assert!(
            eval.utilization <= last,
            "mask {mask} raised utilization {} > {last}",
            eval.utilization
        );
        last = eval.utilization;
    }
}
