//! End-to-end integration: LLC simulator → traffic → evaluation + write
//! buffering, checking the paper's LLC-study orderings.

use nvmexplorer_core::eval::evaluate;
use nvmexplorer_core::write_buffer::{evaluate_with_buffer, WriteBuffer};
use nvmx_celldb::{tentpole, CellFlavor, TechnologyClass};
use nvmx_nvsim::{characterize, ArrayCharacterization, ArrayConfig, OptimizationTarget};
use nvmx_units::{BitsPerCell, Capacity, Meters};
use nvmx_workloads::cache::spec2017_llc_traffic;

fn llc_array(tech: TechnologyClass, flavor: CellFlavor) -> ArrayCharacterization {
    let cell = tentpole::tentpole_cell(tech, flavor).expect("surveyed");
    let config = ArrayConfig {
        capacity: Capacity::from_mebibytes(16),
        word_bits: 512,
        node: Meters::from_nano(22.0),
        bits_per_cell: BitsPerCell::Slc,
    };
    characterize(&cell, &config, OptimizationTarget::ReadEdp).expect("characterizes")
}

#[test]
fn rram_is_not_viable_as_llc() {
    // Paper Fig. 9: RRAM lifetime collapses under cache write traffic.
    let suite = spec2017_llc_traffic(80_000, 5);
    let rram = llc_array(TechnologyClass::Rram, CellFlavor::Optimistic);
    let worst_lifetime = suite
        .iter()
        .map(|b| evaluate(&rram, &b.traffic).lifetime_years())
        .fold(f64::MAX, f64::min);
    assert!(
        worst_lifetime < 1.0,
        "RRAM worst-case lifetime {worst_lifetime} years"
    );
}

#[test]
fn stt_llc_sustains_every_benchmark() {
    let suite = spec2017_llc_traffic(80_000, 5);
    let stt = llc_array(TechnologyClass::Stt, CellFlavor::Optimistic);
    for bench in &suite {
        let eval = evaluate(&stt, &bench.traffic);
        assert!(eval.is_feasible(), "{} infeasible on STT", bench.name);
    }
}

#[test]
fn per_benchmark_power_winner_varies() {
    // Paper: "the lowest power eNVM solution depends on the traffic
    // pattern".
    let suite = spec2017_llc_traffic(80_000, 5);
    let arrays = [
        llc_array(TechnologyClass::Stt, CellFlavor::Optimistic),
        llc_array(TechnologyClass::Pcm, CellFlavor::Optimistic),
        llc_array(TechnologyClass::Rram, CellFlavor::Optimistic),
        llc_array(TechnologyClass::FeFet, CellFlavor::Optimistic),
    ];
    let mut winners: Vec<String> = suite
        .iter()
        .map(|bench| {
            arrays
                .iter()
                .map(|a| {
                    (
                        a.cell_name.clone(),
                        evaluate(a, &bench.traffic).total_power().value(),
                    )
                })
                .min_by(|x, y| x.1.total_cmp(&y.1))
                .expect("nonempty")
                .0
        })
        .collect();
    winners.sort_unstable();
    winners.dedup();
    assert!(
        winners.len() >= 2,
        "expected multiple winners, got {winners:?}"
    );
}

#[test]
fn write_buffer_extends_fefet_lifetime_and_feasibility() {
    let suite = spec2017_llc_traffic(80_000, 5);
    let heaviest = suite
        .iter()
        .max_by(|a, b| {
            a.traffic
                .write_bytes_per_sec
                .total_cmp(&b.traffic.write_bytes_per_sec)
        })
        .expect("nonempty");
    let fefet = llc_array(TechnologyClass::FeFet, CellFlavor::Optimistic);
    let bare = evaluate_with_buffer(&fefet, &heaviest.traffic, WriteBuffer::NONE);
    let buffered = evaluate_with_buffer(&fefet, &heaviest.traffic, WriteBuffer::new(1.0, 0.5));
    assert!(buffered.utilization < bare.utilization);
    assert!(buffered.lifetime_years() > 1.9 * bare.lifetime_years());
}

#[test]
fn cache_statistics_feed_traffic_consistently() {
    let suite = spec2017_llc_traffic(50_000, 11);
    for bench in &suite {
        assert!(bench.miss_rate >= 0.0 && bench.miss_rate <= 1.0);
        assert!(bench.traffic.read_bytes_per_sec >= 0.0);
        assert!(
            bench.traffic.write_bytes_per_sec > 0.0,
            "{} has no writes",
            bench.name
        );
    }
}
