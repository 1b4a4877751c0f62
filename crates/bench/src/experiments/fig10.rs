//! Fig. 10 — 16 MB array access characteristics in isolation, for the LLC
//! replacement consideration.

use crate::experiments::shared::{design, study};
use crate::{Experiment, Finding};
use nvmexplorer_core::config::StudyConfig;
use nvmexplorer_core::sweep::StudyResult;
use nvmx_viz::{csv::num, Csv, ScatterPlot};

/// The figure's study: `run config/paper/fig10.json` reproduces it.
const CONFIG: &str = include_str!("../../../../config/paper/fig10.json");

/// Regenerates the 16 MB iso-capacity array comparison.
pub fn run() -> Experiment {
    let config = StudyConfig::from_json(CONFIG).expect("config/paper/fig10.json parses");
    report(&config, &study(&config))
}

/// The Fig. 10 report over the study's arrays, one row per cell and
/// target in the config's order.
pub fn report(config: &StudyConfig, result: &StudyResult) -> Experiment {
    let mib = config.array.capacities_mib[0];
    let bits = config.array.bits_per_cell[0];
    let targets = &config.array.targets;
    let cells = config.cells.resolve();

    let mut csv = Csv::new([
        "cell",
        "target",
        "read_latency_ns",
        "read_energy_pj",
        "write_latency_ns",
        "write_energy_pj",
    ]);
    let mut read_plot = ScatterPlot::log_log(
        "Fig.10: 16 MB read energy vs latency (all read/write targets)",
        "read latency (s)",
        "read energy per access (J)",
    );
    let mut write_plot = ScatterPlot::log_log(
        "Fig.10: 16 MB write energy vs latency",
        "write latency (s)",
        "write energy per access (J)",
    );

    let mut best_write_lat: Vec<(String, f64)> = Vec::new();
    let mut best_read: Vec<(String, f64, f64)> = Vec::new();
    let mut stt_points: Vec<(f64, f64)> = Vec::new();
    let mut sram_reads: Vec<(f64, f64)> = Vec::new();
    for cell in &cells {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for &target in targets {
            let (array, _) = design(result, &cell.name, mib, bits, target);
            csv.row([
                array.cell_name.clone(),
                target.label().to_owned(),
                num(array.read_latency.value() * 1e9),
                num(array.read_energy.value() * 1e12),
                num(array.write_latency.value() * 1e9),
                num(array.write_energy.value() * 1e12),
            ]);
            reads.push((array.read_latency.value(), array.read_energy.value()));
            writes.push((array.write_latency.value(), array.write_energy.value()));
        }
        let best_w = writes.iter().map(|(l, _)| *l).fold(f64::MAX, f64::min);
        best_write_lat.push((cell.name.clone(), best_w));
        let (bl, be) = reads.iter().fold((f64::MAX, f64::MAX), |(bl, be), (l, e)| {
            (bl.min(*l), be.min(*e))
        });
        best_read.push((cell.name.clone(), bl, be));
        match cell.name.as_str() {
            "STT-opt" => stt_points = reads.clone(),
            "SRAM-16nm" => sram_reads = reads.clone(),
            _ => {}
        }
        read_plot.series(cell.name.clone(), reads);
        write_plot.series(cell.name.clone(), writes);
    }

    let lat_of = |name: &str| -> f64 {
        best_write_lat
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::MAX, |(_, l)| *l)
    };
    let sram_wlat = lat_of("SRAM-16nm");
    let faster_than_sram: Vec<String> = best_write_lat
        .iter()
        .filter(|(n, l)| *l < sram_wlat && !n.contains("SRAM"))
        .map(|(n, _)| n.clone())
        .collect();

    // "STT and optimistic FeFET offer pareto-optimal read characteristics":
    // no other cell strictly dominates them on (latency, energy).
    let dominated = |name: &str| -> bool {
        let (_, l, e) = best_read
            .iter()
            .find(|(n, _, _)| n == name)
            .expect("present");
        best_read
            .iter()
            .any(|(other, ol, oe)| other != name && ol < l && oe < e)
    };
    let stt_pareto = !dominated("STT-opt");

    // The figure's message: array configurations trade access latency for
    // energy efficiency. The paper's explicit marker (Fig. 3/10 text) is the
    // wide read-energy range of iso-capacity SRAM across optimization
    // targets; STT shows the same trade within its config set.
    let stt_lat_min = stt_points.iter().map(|(l, _)| *l).fold(f64::MAX, f64::min);
    let stt_e_min_lat = stt_points
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(f64::MAX, |(l, _)| *l);
    let sram_e_span = {
        let max = sram_reads.iter().map(|(_, e)| *e).fold(0.0, f64::max);
        let min = sram_reads.iter().map(|(_, e)| *e).fold(f64::MAX, f64::min);
        max / min
    };

    let findings = vec![
        Finding::new(
            "configurations trade access latency for energy efficiency: iso-capacity \
             SRAM shows a wide read-energy range across optimization targets",
            format!(
                "SRAM read-energy span {sram_e_span:.1}x across targets; STT energy-optimal \
                 config {:.2}x slower than its latency-optimal one",
                stt_e_min_lat / stt_lat_min
            ),
            sram_e_span > 1.5 || stt_e_min_lat > 1.2 * stt_lat_min,
        ),
        Finding::new(
            "STT offers pareto-optimal read characteristics",
            format!("STT-opt undominated: {stt_pareto}"),
            stt_pareto,
        ),
        Finding::new(
            "only STT-class writes approach SRAM write latency; slow writers lag by \
             orders of magnitude",
            format!(
                "SRAM {:.2} ns; faster eNVMs: {:?}; STT-opt {:.2} ns",
                sram_wlat * 1e9,
                faster_than_sram,
                lat_of("STT-opt") * 1e9
            ),
            lat_of("STT-opt") < 4.0 * sram_wlat && lat_of("FeFET-opt") > 10.0 * sram_wlat,
        ),
    ];

    let summary = format!(
        "16 MB arrays, {} optimization targets per cell.\n\
         Best write latencies: {}",
        targets.len(),
        best_write_lat
            .iter()
            .map(|(n, l)| format!("{n} {:.1}ns", l * 1e9))
            .collect::<Vec<_>>()
            .join(", ")
    );

    Experiment {
        id: "fig10".into(),
        title: "16 MB array access characteristics in isolation".into(),
        csv: vec![("fig10_16mb_arrays".into(), csv)],
        plots: vec![
            ("fig10_read_energy_vs_latency".into(), read_plot),
            ("fig10_write_energy_vs_latency".into(), write_plot),
        ],
        summary,
        findings,
    }
}
