//! Integration: tentpole methodology against published arrays (the paper's
//! Sec. III-C validation), across celldb + nvsim.

use nvmx_celldb::validation::{bracket, reference_arrays, BracketOutcome};
use nvmx_celldb::{tentpole, CellFlavor};
use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
use nvmx_units::{BitsPerCell, Meters};

#[test]
fn tentpoles_bracket_published_read_latencies() {
    let mut acceptable = 0;
    let mut total = 0;
    for reference in reference_arrays() {
        let opt = tentpole::tentpole_cell(reference.technology, CellFlavor::Optimistic)
            .expect("surveyed");
        let pess = tentpole::tentpole_cell(reference.technology, CellFlavor::Pessimistic)
            .expect("surveyed");
        let config = ArrayConfig {
            capacity: reference.capacity,
            word_bits: 128,
            node: Meters::from_nano(22.0),
            bits_per_cell: BitsPerCell::Slc,
        };
        let opt_array =
            characterize(&opt, &config, OptimizationTarget::ReadLatency).expect("characterizes");
        let pess_array =
            characterize(&pess, &config, OptimizationTarget::ReadLatency).expect("characterizes");
        let outcome = bracket(
            reference.read_latency.value(),
            opt_array.read_latency.value(),
            pess_array.read_latency.value(),
            3.0,
        );
        total += 1;
        if outcome.is_acceptable() {
            acceptable += 1;
        }
    }
    assert!(
        acceptable as f64 / total as f64 >= 0.75,
        "only {acceptable}/{total} read latencies bracketed"
    );
}

#[test]
fn fig4_stt_macro_is_covered() {
    let reference = reference_arrays()
        .into_iter()
        .find(|r| r.key.contains("dong"))
        .expect("Fig. 4 reference present");
    let opt = tentpole::tentpole_cell(reference.technology, CellFlavor::Optimistic).unwrap();
    let pess = tentpole::tentpole_cell(reference.technology, CellFlavor::Pessimistic).unwrap();
    let config = ArrayConfig {
        capacity: reference.capacity,
        word_bits: 128,
        node: Meters::from_nano(28.0), // the macro's own node
        bits_per_cell: BitsPerCell::Slc,
    };
    let o = characterize(&opt, &config, OptimizationTarget::ReadLatency).unwrap();
    let p = characterize(&pess, &config, OptimizationTarget::ReadLatency).unwrap();
    let outcome = bracket(
        reference.read_latency.value(),
        o.read_latency.value(),
        p.read_latency.value(),
        3.0,
    );
    assert!(outcome.is_acceptable(), "{outcome:?}");
    assert_ne!(outcome, BracketOutcome::Missed);
}

#[test]
fn optimistic_always_beats_pessimistic_at_array_level() {
    // The tentpole invariant must survive array composition, not just
    // cell-level extraction.
    for tech in [
        nvmx_celldb::TechnologyClass::Stt,
        nvmx_celldb::TechnologyClass::Rram,
        nvmx_celldb::TechnologyClass::Pcm,
        nvmx_celldb::TechnologyClass::FeFet,
    ] {
        let config = ArrayConfig::new(nvmx_units::Capacity::from_mebibytes(4));
        let opt = characterize(
            &tentpole::tentpole_cell(tech, CellFlavor::Optimistic).unwrap(),
            &config,
            OptimizationTarget::ReadEdp,
        )
        .unwrap();
        let pess = characterize(
            &tentpole::tentpole_cell(tech, CellFlavor::Pessimistic).unwrap(),
            &config,
            OptimizationTarget::ReadEdp,
        )
        .unwrap();
        assert!(
            opt.read_latency.value() <= pess.read_latency.value(),
            "{tech} read latency"
        );
        assert!(
            opt.write_latency.value() <= pess.write_latency.value(),
            "{tech} write latency"
        );
        assert!(
            opt.density_mbit_per_mm2() >= pess.density_mbit_per_mm2(),
            "{tech} density"
        );
    }
}
