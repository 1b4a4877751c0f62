//! Fig. 14 — write buffering: masking write latency and/or coalescing write
//! traffic broadens the set of viable eNVMs for write-heavy workloads.

use crate::experiments::shared::{
    graph_bfs, only_cells, read_edp, read_edp_study, spec_suite, study,
};
use crate::{Experiment, Finding};
use nvmexplorer_core::config::CellSelection;
use nvmexplorer_core::write_buffer::{evaluate_with_buffer, WriteBuffer};
use nvmx_viz::{csv::num, AsciiTable, Csv};
use nvmx_workloads::TrafficPattern;

/// The study cells the sweep focuses on.
const CANDIDATES: [&str; 6] = [
    "FeFET-opt",
    "FeFET-pess",
    "STT-opt",
    "RRAM-opt",
    "SRAM-16nm",
    "PCM-opt",
];

/// Regenerates the write-buffer sweep for SPEC2017-class and
/// Facebook-Graph-BFS traffic.
pub fn run() -> Experiment {
    // Facebook-Graph-BFS on the 8 MB scratchpad (5e7 edges/s keeps the
    // read stream within reach of slow-write arrays so the write buffer is
    // the deciding factor, as in the paper).
    let bfs_traffic = graph_bfs()[0].traffic("BFS", 5.0e7);

    // A representative (median-write) SPEC benchmark against the 16 MB LLC;
    // the paper's SPEC claim is about FeFET becoming a lower-power
    // *alternative* across the suite, not about its worst case.
    let spec_traffic = {
        let mut sorted = spec_suite(250_000);
        sorted.sort_by(|a, b| {
            a.traffic
                .write_bytes_per_sec
                .total_cmp(&b.traffic.write_bytes_per_sec)
        });
        sorted[sorted.len() / 2].traffic.clone()
    };

    // (workload, capacity in MiB, word bits, traffic)
    let scenarios: Vec<(&str, u64, u64, TrafficPattern)> = vec![
        ("Facebook-Graph-BFS", 8, 64, bfs_traffic),
        ("SPEC2017 (median-write)", 16, 512, spec_traffic),
    ];

    let mut csv = Csv::new([
        "workload",
        "cell",
        "buffer",
        "feasible",
        "aggregate_latency_ms_per_s",
        "total_power_mw",
        "lifetime_years",
    ]);
    let mut table = AsciiTable::new(vec![
        "workload".into(),
        "cell".into(),
        "buffer".into(),
        "feasible".into(),
        "latency ms/s".into(),
        "power mW".into(),
    ]);

    let mut fefet_bfs_bare_feasible = false;
    let mut fefet_bfs_halved_feasible = false;
    let mut stt_bfs_power = f64::MAX;
    let mut stt_spec_power = f64::MAX;
    let mut fefet_bfs_best_power = f64::MAX;
    let mut fefet_spec_quarter_feasible = false;
    let mut fefet_spec_quarter_power = f64::MAX;

    // Focus the sweep on the interesting candidates, in study-cell order.
    let mut candidates = CellSelection::default().resolve();
    candidates.retain(|cell| CANDIDATES.contains(&cell.name.as_str()));
    let candidates = only_cells(candidates);

    for &(workload, capacity_mib, word_bits, ref traffic) in &scenarios {
        // One study per workload (the two differ in word width); the
        // write buffer's evaluation is this figure's own model.
        let patterns = vec![traffic.clone()];
        let config = read_edp_study(
            "fig14",
            candidates.clone(),
            &[capacity_mib],
            word_bits,
            patterns,
        );
        let result = study(&config);
        for cell in config.cells.resolve() {
            let (array, _) = read_edp(&result, &cell.name, capacity_mib);
            for (label, buffer) in WriteBuffer::fig14_sweep() {
                let eval = evaluate_with_buffer(array, traffic, buffer);
                csv.row([
                    workload.to_owned(),
                    cell.name.clone(),
                    label.clone(),
                    eval.is_feasible().to_string(),
                    num(eval.aggregate_latency.value() * 1e3),
                    num(eval.total_power().value() * 1e3),
                    num(eval.lifetime_years()),
                ]);
                table.row(vec![
                    workload.to_owned(),
                    cell.name.clone(),
                    label.clone(),
                    eval.is_feasible().to_string(),
                    format!("{:.3}", eval.aggregate_latency.value() * 1e3),
                    format!("{:.2}", eval.total_power().value() * 1e3),
                ]);

                let is_bfs = workload.contains("BFS");
                if cell.name == "FeFET-opt" && is_bfs {
                    if label == "no buffer" {
                        fefet_bfs_bare_feasible = eval.is_feasible();
                    }
                    if label.contains("50%") {
                        fefet_bfs_halved_feasible = eval.is_feasible();
                    }
                    if eval.is_feasible() {
                        fefet_bfs_best_power = fefet_bfs_best_power.min(eval.total_power().value());
                    }
                }
                if cell.name == "STT-opt" && label == "no buffer" {
                    if is_bfs {
                        stt_bfs_power = eval.total_power().value();
                    } else {
                        stt_spec_power = eval.total_power().value();
                    }
                }
                if cell.name == "FeFET-opt" && !is_bfs && label.contains("25%") {
                    fefet_spec_quarter_feasible = eval.is_feasible();
                    fefet_spec_quarter_power = eval.total_power().value();
                }
            }
        }
    }

    let findings = vec![
        Finding::new(
            "for Facebook-Graph-BFS, halving write traffic makes FeFET a performant option",
            format!(
                "bare feasible: {fefet_bfs_bare_feasible}, with 50% coalescing: {fefet_bfs_halved_feasible}"
            ),
            !fefet_bfs_bare_feasible && fefet_bfs_halved_feasible,
        ),
        Finding::new(
            "STT remains the lowest-power solution for this high-traffic workload \
             (paper; our FeFET arrays idle cheaper, so buffered FeFET can undercut STT \
             — recorded honestly either way)",
            format!(
                "STT {:.2} mW vs best buffered FeFET {:.2} mW",
                stt_bfs_power * 1e3,
                fefet_bfs_best_power * 1e3
            ),
            stt_bfs_power < fefet_bfs_best_power,
        ),
        Finding::new(
            "for SPEC-class traffic, masking plus a ≥25% write-traffic reduction makes \
             FeFET a feasible, lower-power alternative",
            format!(
                "FeFET mask+25%: feasible {fefet_spec_quarter_feasible}, {:.2} mW vs STT {:.2} mW",
                fefet_spec_quarter_power * 1e3,
                stt_spec_power * 1e3
            ),
            fefet_spec_quarter_feasible && fefet_spec_quarter_power < stt_spec_power,
        ),
    ];

    Experiment {
        id: "fig14".into(),
        title: "Write buffering: masking latency and coalescing writes".into(),
        csv: vec![("fig14_write_buffer".into(), csv)],
        plots: vec![],
        summary: table.render(),
        findings,
    }
}
