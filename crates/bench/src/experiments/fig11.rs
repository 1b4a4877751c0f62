//! Fig. 11 — co-design study: back-gated FeFETs (10 ns writes, 10¹²
//! endurance) vs standard FeFET tentpoles and SRAM on 8 MB arrays under
//! graph + SPEC-class traffic.

use crate::experiments::shared::{only_cells, read_edp, read_edp_study, social_bfs, study};
use crate::{Experiment, Finding};
use nvmexplorer_core::eval::Evaluation;
use nvmx_celldb::custom::{back_gated_fefet, sram_16nm};
use nvmx_celldb::{tentpole, CellFlavor, TechnologyClass};
use nvmx_viz::{csv::num, AsciiTable, Csv, ScatterPlot};
use nvmx_workloads::traffic::log_sweep;

/// Regenerates the back-gated FeFET co-design study.
pub fn run() -> Experiment {
    let cells = only_cells(vec![
        sram_16nm(),
        tentpole::tentpole_cell(TechnologyClass::FeFet, CellFlavor::Optimistic).expect("FeFET"),
        tentpole::tentpole_cell(TechnologyClass::FeFet, CellFlavor::Pessimistic).expect("FeFET"),
        back_gated_fefet(),
    ]);

    let mut patterns = log_sweep(0.05e9, 10.0e9, 6, 1.0e6, 400.0e6, 5, 8);
    patterns.extend(social_bfs().iter().map(|bfs| bfs.traffic("BFS8MB", 2.5e8)));
    let config = read_edp_study("fig11", cells, &[8], 64, patterns.clone());
    let result = study(&config);
    let cells = config.cells.resolve();

    let mut csv = Csv::new([
        "cell",
        "traffic",
        "read_accesses_per_sec",
        "write_accesses_per_sec",
        "total_power_mw",
        "aggregate_latency_ms_per_s",
        "feasible",
        "read_energy_pj",
        "density_mbit_mm2",
    ]);
    let mut power_plot = ScatterPlot::log_log(
        "Fig.11: power vs read rate — back-gated FeFET vs standard FeFET vs SRAM",
        "read accesses per second",
        "total memory power (W)",
    );
    let mut latency_plot = ScatterPlot::log_log(
        "Fig.11: aggregate latency vs write rate",
        "write accesses per second",
        "aggregate latency (s per s)",
    );
    let mut table = AsciiTable::new(vec![
        "cell".into(),
        "read energy".into(),
        "density Mb/mm^2".into(),
        "write latency".into(),
        "feasible patterns".into(),
    ]);

    let mut evals: Vec<Evaluation> = Vec::new();
    for cell in &cells {
        let (array, cell_evals) = read_edp(&result, &cell.name, 8);
        let mut p = Vec::new();
        let mut l = Vec::new();
        let mut feasible_count = 0usize;
        for eval in cell_evals {
            let pattern = &eval.traffic;
            csv.row([
                cell.name.clone(),
                pattern.name.clone(),
                num(pattern.read_accesses_per_sec()),
                num(pattern.write_accesses_per_sec()),
                num(eval.total_power().value() * 1e3),
                num(eval.aggregate_latency.value() * 1e3),
                eval.is_feasible().to_string(),
                num(array.read_energy.value() * 1e12),
                num(array.density_mbit_per_mm2()),
            ]);
            p.push((pattern.read_accesses_per_sec(), eval.total_power().value()));
            if eval.is_feasible() {
                l.push((
                    pattern.write_accesses_per_sec(),
                    eval.aggregate_latency.value(),
                ));
                feasible_count += 1;
            }
            evals.push(eval.clone());
        }
        table.row(vec![
            cell.name.clone(),
            format!("{}", array.read_energy),
            format!("{:.0}", array.density_mbit_per_mm2()),
            format!("{}", array.write_latency),
            format!("{feasible_count}/{}", patterns.len()),
        ]);
        power_plot.series(cell.name.clone(), p);
        latency_plot.series(cell.name.clone(), l);
    }

    // Write-range feasibility: compare at read rates the arrays can all
    // serve (≤1e8 reads/s), where the contrast is purely about writes.
    let write_range_ok = |name: &str| -> usize {
        evals
            .iter()
            .filter(|e| {
                e.array.cell_name == name
                    && e.traffic.read_accesses_per_sec() <= 1.0e8
                    && e.is_feasible()
            })
            .count()
    };
    let sram_ok = write_range_ok("SRAM-16nm");
    let bg_ok = write_range_ok("FeFET-BG");
    let std_ok = write_range_ok("FeFET-opt");

    // The co-design payoff: patterns standard FeFET cannot serve but the
    // back-gated cell can — and at far lower power than falling back to
    // SRAM.
    let gap_patterns: Vec<&str> = patterns
        .iter()
        .filter(|p| {
            let feasible = |name: &str| {
                evals.iter().any(|e| {
                    e.array.cell_name == name && e.traffic.name == p.name && e.is_feasible()
                })
            };
            !feasible("FeFET-opt") && feasible("FeFET-BG")
        })
        .map(|p| p.name.as_str())
        .collect();
    let bg_beats_sram_on_gap = gap_patterns.iter().all(|name| {
        let power_of = |cell: &str| {
            evals
                .iter()
                .find(|e| e.array.cell_name == cell && e.traffic.name == *name)
                .map_or(f64::MAX, |e| e.total_power().value())
        };
        power_of("FeFET-BG") < power_of("SRAM-16nm")
    });

    // Power winner counts across the read range among feasible FeFET
    // variants + SRAM (the figure's cell set).
    let winners: Vec<&str> = (patterns.iter())
        .filter_map(|pattern| {
            (evals.iter())
                .filter(|e| e.traffic.name == pattern.name && e.is_feasible())
                .min_by(|a, b| a.total_power().value().total_cmp(&b.total_power().value()))
                .map(|e| e.array.cell_name.as_str())
        })
        .collect();
    let comparable = winners.len();
    let bg_power_wins = (winners.iter())
        .filter(|&&winner| winner == "FeFET-BG" || winner == "FeFET-opt")
        .count();

    // BFS-specific check.
    let bfs_winner = evals
        .iter()
        .filter(|e| {
            e.traffic.name.contains("BFS")
                && e.traffic.name.contains("Wikipedia")
                && e.is_feasible()
        })
        .min_by(|a, b| a.total_power().value().total_cmp(&b.total_power().value()))
        .map(|e| e.array.cell_name.clone());

    // Array-level deltas vs standard optimistic FeFET.
    let (bg_array, _) = read_edp(&result, "FeFET-BG", 8);
    let (std_array, _) = read_edp(&result, &cells[1].name, 8);

    let findings = vec![
        Finding::new(
            "back-gated FeFETs enable SRAM-comparable feasibility across the write-traffic \
             range where previous FeFETs fall short",
            format!(
                "write-range feasible: BG {bg_ok}, std-FeFET {std_ok}, SRAM {sram_ok}; \
                 gap patterns recovered: {} (all cheaper than SRAM: {bg_beats_sram_on_gap})",
                gap_patterns.len()
            ),
            bg_ok > std_ok && bg_ok >= sram_ok && !gap_patterns.is_empty() && bg_beats_sram_on_gap,
        ),
        Finding::new(
            "a FeFET variant yields the lowest operating power over most of the read range \
             (back-gated where standard cells fail)",
            format!("FeFET lowest power for {bg_power_wins}/{comparable} comparable patterns; Wikipedia-BFS winner: {bfs_winner:?}"),
            bg_power_wins * 2 > comparable,
        ),
        Finding::new(
            "slight increase in read energy and slight density decrease vs prior FeFET cells",
            format!(
                "read energy {:.1} vs {:.1} pJ; density {:.0} vs {:.0} Mb/mm^2",
                bg_array.read_energy.value() * 1e12,
                std_array.read_energy.value() * 1e12,
                bg_array.density_mbit_per_mm2(),
                std_array.density_mbit_per_mm2()
            ),
            bg_array.read_energy.value() > std_array.read_energy.value()
                && bg_array.density_mbit_per_mm2() < std_array.density_mbit_per_mm2(),
        ),
    ];

    Experiment {
        id: "fig11".into(),
        title: "Back-gated FeFET co-design study (8 MB)".into(),
        csv: vec![("fig11_backgated_fefet".into(), csv)],
        plots: vec![
            ("fig11_power_vs_reads".into(), power_plot),
            ("fig11_latency_vs_writes".into(), latency_plot),
        ],
        summary: table.render(),
        findings,
    }
}
