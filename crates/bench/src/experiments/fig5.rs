//! Fig. 5 — read characteristics and storage density of 2 MB arrays
//! provisioned to replace the NVDLA on-chip SRAM buffer.

use crate::experiments::shared::{design, study};
use crate::{Experiment, Finding};
use nvmexplorer_core::config::StudyConfig;
use nvmexplorer_core::sweep::StudyResult;
use nvmx_celldb::{CellFlavor, TechnologyClass};
use nvmx_nvsim::ArrayCharacterization;
use nvmx_viz::{csv::num, AsciiTable, Csv, ScatterPlot};

/// The figure's study: `run config/paper/fig5.json` reproduces it.
const CONFIG: &str = include_str!("../../../../config/paper/fig5.json");

/// Regenerates the 2 MB NVDLA-buffer comparison.
pub fn run() -> Experiment {
    let config = StudyConfig::from_json(CONFIG).expect("config/paper/fig5.json parses");
    report(&config, &study(&config))
}

/// The Fig. 5 report over the study's arrays, one row per cell in the
/// config's order.
pub fn report(config: &StudyConfig, result: &StudyResult) -> Experiment {
    let mib = config.array.capacities_mib[0];
    let (bits, target) = (config.array.bits_per_cell[0], config.array.targets[0]);
    let metric = |name: &str| design(result, name, mib, bits, target).0;
    let cells = config.cells.resolve();
    let arrays: Vec<&ArrayCharacterization> = cells.iter().map(|c| metric(&c.name)).collect();

    let mut csv = Csv::new([
        "cell",
        "technology",
        "flavor",
        "read_latency_ns",
        "read_energy_pj",
        "density_mbit_mm2",
        "leakage_mw",
    ]);
    let mut plot = ScatterPlot::log_log(
        "Fig.5: 2 MB arrays for the NVDLA buffer (ReadEDP-optimized)",
        "read latency (s)",
        "read energy per access (J)",
    );
    let mut table = AsciiTable::new(vec![
        "cell".into(),
        "read lat".into(),
        "read energy".into(),
        "Mb/mm^2".into(),
    ]);

    for array in &arrays {
        csv.row([
            array.cell_name.clone(),
            array.technology.label().to_owned(),
            array.flavor.label().to_owned(),
            num(array.read_latency.value() * 1e9),
            num(array.read_energy.value() * 1e12),
            num(array.density_mbit_per_mm2()),
            num(array.leakage.value() * 1e3),
        ]);
        plot.series(
            array.cell_name.clone(),
            vec![(array.read_latency.value(), array.read_energy.value())],
        );
        table.row(vec![
            array.cell_name.clone(),
            format!("{}", array.read_latency),
            format!("{}", array.read_energy),
            format!("{:.1}", array.density_mbit_per_mm2()),
        ]);
    }

    let sram = metric("SRAM-16nm").clone();
    let stt = metric("STT-opt").clone();
    let fefet = metric("FeFET-opt").clone();
    let pcm = metric("PCM-opt").clone();
    let rram = metric("RRAM-opt").clone();

    let low_tier = [&stt, &pcm, &rram]
        .iter()
        .all(|a| a.read_energy.value() < sram.read_energy.value());
    let density_ratio = stt.density_mbit_per_mm2() / sram.density_mbit_per_mm2();
    let densest = arrays
        .iter()
        .max_by(|a, b| {
            a.density_mbit_per_mm2()
                .total_cmp(&b.density_mbit_per_mm2())
        })
        .expect("nonempty");

    let findings = vec![
        Finding::new(
            "read energy divides arrays into two tiers: STT/PCM/RRAM below SRAM",
            format!(
                "STT {:.1} / PCM {:.1} / RRAM {:.1} vs SRAM {:.1} pJ",
                stt.read_energy.value() * 1e12,
                pcm.read_energy.value() * 1e12,
                rram.read_energy.value() * 1e12,
                sram.read_energy.value() * 1e12
            ),
            low_tier,
        ),
        Finding::new(
            "FeFET suffers higher read energies than SRAM",
            format!(
                "FeFET-opt {:.1} pJ vs SRAM {:.1} pJ",
                fefet.read_energy.value() * 1e12,
                sram.read_energy.value() * 1e12
            ),
            fefet.read_energy.value() > sram.read_energy.value(),
        ),
        Finding::new(
            "optimistic FeFET offers the highest storage density",
            format!(
                "densest = {} at {:.0} Mb/mm^2",
                densest.cell_name,
                densest.density_mbit_per_mm2()
            ),
            densest.technology == TechnologyClass::FeFet
                && densest.flavor == CellFlavor::Optimistic,
        ),
        Finding::new(
            "optimistic STT offers ~6x higher density than SRAM (paper: 6x)",
            format!("{density_ratio:.1}x"),
            (2.5..=9.0).contains(&density_ratio),
        ),
        Finding::new(
            "PCM and RRAM beat SRAM on storage density",
            format!(
                "PCM {:.0}, RRAM {:.0} vs SRAM {:.0} Mb/mm^2",
                pcm.density_mbit_per_mm2(),
                rram.density_mbit_per_mm2(),
                sram.density_mbit_per_mm2()
            ),
            pcm.density_mbit_per_mm2() > sram.density_mbit_per_mm2()
                && rram.density_mbit_per_mm2() > sram.density_mbit_per_mm2(),
        ),
    ];

    Experiment {
        id: "fig5".into(),
        title: "2 MB array read characteristics and density (NVDLA buffer)".into(),
        csv: vec![("fig5_2mb_arrays".into(), csv)],
        plots: vec![("fig5_read_energy_vs_latency".into(), plot)],
        summary: table.render(),
        findings,
    }
}
