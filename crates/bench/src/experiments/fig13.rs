//! Fig. 13 — SLC vs 2-bit MLC: density/latency of 8 and 16 MB arrays with
//! storage filtered by whether image-classification accuracy survives the
//! technology's fault rates.

use crate::experiments::shared::{design, lanes, only_cells, read_edp_study, study};
use crate::experiments::{opt_cell, pess_cell};
use crate::{Experiment, Finding};
use nvmexplorer_core::accuracy::accuracy_under_storage;
use nvmexplorer_core::scheduler::run_on_lanes;
use nvmx_celldb::{CellDefinition, TechnologyClass};
use nvmx_nvsim::OptimizationTarget;
use nvmx_units::BitsPerCell;
use nvmx_viz::{csv::num, AsciiTable, Csv};
use nvmx_workloads::dnn::{resnet26, DnnUseCase, StoragePolicy};

/// Accuracy-degradation tolerance (fraction of baseline accuracy).
const TOLERANCE: f64 = 0.05;

/// Regenerates the MLC reliability/density study.
pub fn run() -> Experiment {
    let trials = 4;
    // The paper's fault-modeled subset: RRAM, CTT, FeFET (Sec. II-B2), with
    // small (optimistic) and large (pessimistic) cell sizes.
    let cells = only_cells(vec![
        opt_cell(TechnologyClass::Rram),
        pess_cell(TechnologyClass::Rram),
        opt_cell(TechnologyClass::Ctt),
        opt_cell(TechnologyClass::FeFet),
        pess_cell(TechnologyClass::FeFet),
    ]);
    // One study over both depths and both capacities. Only its arrays are
    // read; its traffic is single-task image classification at 60 FPS.
    let traffic =
        DnnUseCase::single(resnet26(), StoragePolicy::WeightsOnly).continuous_traffic(60.0);
    let mut config = read_edp_study("fig13", cells, &[8, 16], 256, vec![traffic]);
    config.array.bits_per_cell = vec![BitsPerCell::Slc, BitsPerCell::Mlc2];
    let result = study(&config);
    let cells = config.cells.resolve();

    let mut csv = Csv::new([
        "cell",
        "area_f2",
        "bits_per_cell",
        "capacity_mib",
        "density_mbit_mm2",
        "read_latency_ns",
        "bit_error_rate",
        "mean_accuracy",
        "baseline_accuracy",
        "accuracy_ok",
    ]);
    let mut table = AsciiTable::new(vec![
        "cell".into(),
        "mode".into(),
        "BER".into(),
        "accuracy".into(),
        "ok".into(),
        "density (16MiB)".into(),
    ]);

    struct Row {
        cell: String,
        bits: BitsPerCell,
        density: f64,
        ok: bool,
    }
    let mut rows: Vec<Row> = Vec::new();

    // Each (cell, depth) pair's accuracy trials are independent of every
    // other pair's.
    let pairs: Vec<(&CellDefinition, BitsPerCell)> = cells
        .iter()
        .flat_map(|cell| {
            config
                .array
                .bits_per_cell
                .iter()
                .map(move |&bits| (cell, bits))
        })
        .collect();
    let reports = run_on_lanes(&pairs, lanes(), |_, &(cell, bits)| {
        accuracy_under_storage(cell, bits, trials)
    });

    let read_edp = OptimizationTarget::ReadEdp;
    for (&(cell, bits), report) in pairs.iter().zip(&reports) {
        let ok = report.is_acceptable(TOLERANCE);
        let mut density = 0.0;
        for &capacity_mib in &config.array.capacities_mib {
            let (array, _) = design(&result, &cell.name, capacity_mib, bits, read_edp);
            if capacity_mib == 16 {
                density = array.density_mbit_per_mm2();
            }
            csv.row([
                cell.name.clone(),
                num(cell.area.value()),
                bits.to_string(),
                capacity_mib.to_string(),
                num(array.density_mbit_per_mm2()),
                num(array.read_latency.value() * 1e9),
                num(report.bit_error_rate),
                num(report.mean),
                num(report.baseline),
                ok.to_string(),
            ]);
        }
        table.row(vec![
            cell.name.clone(),
            bits.to_string(),
            format!("{:.2e}", report.bit_error_rate),
            format!("{:.3}", report.mean),
            ok.to_string(),
            format!("{density:.0}"),
        ]);
        rows.push(Row {
            cell: cell.name.clone(),
            bits,
            density,
            ok,
        });
    }

    let find = |name: &str, bits: BitsPerCell| -> &Row {
        rows.iter()
            .find(|r| r.cell == name && r.bits == bits)
            .expect("row computed above")
    };
    let rram_slc = find("RRAM-opt", BitsPerCell::Slc);
    let rram_mlc = find("RRAM-opt", BitsPerCell::Mlc2);
    let fefet_small_mlc = find("FeFET-opt", BitsPerCell::Mlc2);
    let fefet_large_mlc = find("FeFET-pess", BitsPerCell::Mlc2);
    let ctt_mlc = find("CTT-opt", BitsPerCell::Mlc2);
    let all_slc_ok = rows
        .iter()
        .filter(|r| r.bits == BitsPerCell::Slc)
        .all(|r| r.ok);

    let findings = vec![
        Finding::new(
            "MLC RRAM is denser than SLC RRAM while keeping acceptable accuracy",
            format!(
                "MLC {:.0} vs SLC {:.0} Mb/mm^2, accuracy ok: {}",
                rram_mlc.density, rram_slc.density, rram_mlc.ok
            ),
            rram_mlc.ok && rram_mlc.density > 1.5 * rram_slc.density,
        ),
        Finding::new(
            "MLC FeFET is only sufficiently reliable for larger cell sizes",
            format!(
                "small-cell (4 F^2) ok: {}; large-cell (103 F^2) ok: {}",
                fefet_small_mlc.ok, fefet_large_mlc.ok
            ),
            !fefet_small_mlc.ok && fefet_large_mlc.ok,
        ),
        Finding::new(
            "CTT-based MLC storage maintains accuracy (verified in the paper via [35])",
            format!("CTT MLC ok: {}", ctt_mlc.ok),
            ctt_mlc.ok,
        ),
        Finding::new(
            "SLC storage is robust for every modeled technology",
            format!("all SLC rows acceptable: {all_slc_ok}"),
            all_slc_ok,
        ),
    ];

    Experiment {
        id: "fig13".into(),
        title: "SLC vs 2-bit MLC: density and inference accuracy".into(),
        csv: vec![("fig13_mlc_accuracy".into(), csv)],
        plots: vec![],
        summary: table.render(),
        findings,
    }
}
