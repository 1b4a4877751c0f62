//! Fig. 4 — tentpole validation: modeled optimistic/pessimistic arrays must
//! bracket published fabricated arrays of the same class and capacity.

use crate::experiments::{opt_cell, pess_cell};
use crate::{Experiment, Finding};
use nvmexplorer_core::config::ArraySettings;
use nvmx_celldb::validation::{bracket, reference_arrays, BracketOutcome};
use nvmx_celldb::CellDefinition;
use nvmx_nvsim::{characterize, ArrayCharacterization, ArrayConfig, OptimizationTarget};
use nvmx_units::{BitsPerCell, Capacity};
use nvmx_viz::{csv::num, AsciiTable, Csv};

/// Acceptance tolerance: the paper requires "similar in magnitude", which we
/// encode as within 3× beyond either pole.
const TOLERANCE: f64 = 3.0;

/// One validation pole: `cell`'s read-latency-optimal SLC array at a macro's
/// capacity. The macros are 1–32 Mb, finer than a study config's whole-MiB
/// `capacities_mib`, so this is the one direct characterization.
fn pole(cell: &CellDefinition, capacity: Capacity) -> ArrayCharacterization {
    let config = ArrayConfig {
        capacity,
        word_bits: 128,
        node: ArraySettings::default().node_for(cell),
        bits_per_cell: BitsPerCell::Slc,
    };
    characterize(cell, &config, OptimizationTarget::ReadLatency)
        .unwrap_or_else(|e| panic!("characterizing {}: {e}", cell.name))
}

/// Regenerates the validation exercise for every published reference array.
pub fn run() -> Experiment {
    let mut csv = Csv::new([
        "reference",
        "technology",
        "capacity_mib",
        "metric",
        "measured",
        "optimistic",
        "pessimistic",
        "outcome",
    ]);
    let mut table = AsciiTable::new(vec![
        "reference".into(),
        "metric".into(),
        "published".into(),
        "opt model".into(),
        "pess model".into(),
        "outcome".into(),
    ]);

    let mut checks = 0usize;
    let mut acceptable = 0usize;
    let mut stt_read_latency_outcome = BracketOutcome::Missed;

    for reference in reference_arrays() {
        let opt = pole(&opt_cell(reference.technology), reference.capacity);
        let pess = pole(&pess_cell(reference.technology), reference.capacity);

        let mut check = |metric: &str, measured: f64, o: f64, p: f64, scale: f64, unit: &str| {
            let outcome = bracket(measured, o, p, TOLERANCE);
            checks += 1;
            if outcome.is_acceptable() {
                acceptable += 1;
            }
            if reference.key.contains("dong") && metric == "read_latency" {
                stt_read_latency_outcome = outcome;
            }
            csv.row([
                reference.key.clone(),
                reference.technology.label().to_owned(),
                num(reference.capacity.as_mebibytes()),
                metric.to_owned(),
                num(measured * scale),
                num(o * scale),
                num(p * scale),
                format!("{outcome:?}"),
            ]);
            table.row(vec![
                reference.key.clone(),
                format!("{metric} [{unit}]"),
                format!("{:.3}", measured * scale),
                format!("{:.3}", o * scale),
                format!("{:.3}", p * scale),
                format!("{outcome:?}"),
            ]);
        };

        check(
            "read_latency",
            reference.read_latency.value(),
            opt.read_latency.value(),
            pess.read_latency.value(),
            1e9,
            "ns",
        );
        if let Some(e) = reference.read_energy {
            check(
                "read_energy",
                e.value(),
                opt.read_energy.value(),
                pess.read_energy.value(),
                1e12,
                "pJ",
            );
        }
        if let Some(w) = reference.write_latency {
            check(
                "write_latency",
                w.value(),
                opt.write_latency.value(),
                pess.write_latency.value(),
                1e9,
                "ns",
            );
        }
        if let Some(a) = reference.area {
            check(
                "area",
                a.value(),
                opt.area.value(),
                pess.area.value(),
                1.0,
                "mm2",
            );
        }
    }

    let findings = vec![
        Finding::new(
            "tentpole arrays bracket the ISSCC'18 1 MB STT macro read latency",
            format!("{stt_read_latency_outcome:?}"),
            stt_read_latency_outcome.is_acceptable(),
        ),
        Finding::new(
            "tentpole coverage holds across published reference arrays",
            format!(
                "{acceptable}/{checks} metrics covered or near-covered (tolerance {TOLERANCE}x)"
            ),
            acceptable as f64 / checks.max(1) as f64 >= 0.8,
        ),
    ];

    Experiment {
        id: "fig4".into(),
        title: "Tentpole validation against fabricated arrays".into(),
        csv: vec![("fig4_validation".into(), csv)],
        plots: vec![],
        summary: table.render(),
        findings,
    }
}
