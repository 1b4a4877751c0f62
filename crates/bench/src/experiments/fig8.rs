//! Fig. 8 — graph processing on an 8 MB scratchpad: total power vs read
//! rate, aggregate latency vs write rate, and projected lifetime, over
//! generic traffic plus BFS points from the synthetic social graphs.

use crate::experiments::shared::{read_edp, read_edp_study, social_bfs, study};
use crate::{Experiment, Finding};
use nvmexplorer_core::config::CellSelection;
use nvmexplorer_core::eval::Evaluation;
use nvmx_viz::{csv::num, Csv, ScatterPlot};
use nvmx_workloads::traffic::log_sweep;
use nvmx_workloads::TrafficPattern;

/// Graphicionado-class edge throughput for the BFS points.
const EDGES_PER_SEC: f64 = 2.5e8;

/// The Fig. 8 traffic set: generic grid + BFS points (named `*-BFS`).
fn traffic_set() -> Vec<TrafficPattern> {
    // Reads swept below the paper's 1 GB/s floor as well so the low-rate
    // leakage-dominated regime (where FeFET wins) is visible, matching the
    // Fig. 8 x-axis extent.
    let mut patterns = log_sweep(0.05e9, 10.0e9, 6, 1.0e6, 100.0e6, 5, 8);
    patterns.extend(
        social_bfs()
            .iter()
            .map(|bfs| bfs.traffic("BFS", EDGES_PER_SEC)),
    );
    patterns
}

/// Regenerates the three Fig. 8 panels.
pub fn run() -> Experiment {
    let patterns = traffic_set();
    let pattern_count = patterns.len();
    let config = read_edp_study("fig8", CellSelection::default(), &[8], 64, patterns);
    let result = study(&config);
    let cells = config.cells.resolve();

    let mut csv = Csv::new([
        "cell",
        "traffic",
        "read_accesses_per_sec",
        "write_accesses_per_sec",
        "total_power_mw",
        "aggregate_latency_ms_per_s",
        "lifetime_years",
        "feasible",
    ]);
    let mut power_plot = ScatterPlot::log_log(
        "Fig.8: total memory power vs read rate (8 MB graph scratchpad)",
        "read accesses per second",
        "total memory power (W)",
    );
    let mut latency_plot = ScatterPlot::log_log(
        "Fig.8: aggregate memory latency vs write rate",
        "write accesses per second",
        "aggregate latency (s per s of execution)",
    );
    let mut lifetime_plot = ScatterPlot::log_log(
        "Fig.8: projected lifetime vs write rate",
        "write accesses per second",
        "lifetime (years)",
    );

    let mut evals: Vec<Evaluation> = Vec::new();
    for cell in &cells {
        let (_, cell_evals) = read_edp(&result, &cell.name, 8);
        let mut power_pts = Vec::new();
        let mut lat_pts = Vec::new();
        let mut life_pts = Vec::new();
        for eval in cell_evals {
            let pattern = &eval.traffic;
            csv.row([
                cell.name.clone(),
                pattern.name.clone(),
                num(pattern.read_accesses_per_sec()),
                num(pattern.write_accesses_per_sec()),
                num(eval.total_power().value() * 1e3),
                num(eval.aggregate_latency.value() * 1e3),
                num(eval.lifetime_years()),
                eval.is_feasible().to_string(),
            ]);
            power_pts.push((pattern.read_accesses_per_sec(), eval.total_power().value()));
            if eval.is_feasible() {
                lat_pts.push((
                    pattern.write_accesses_per_sec(),
                    eval.aggregate_latency.value(),
                ));
            }
            if eval.lifetime.is_some() {
                life_pts.push((pattern.write_accesses_per_sec(), eval.lifetime_years()));
            }
            evals.push(eval.clone());
        }
        power_plot.series(cell.name.clone(), power_pts);
        latency_plot.series(cell.name.clone(), lat_pts);
        lifetime_plot.series(cell.name.clone(), life_pts);
    }

    // --- Findings ---------------------------------------------------------
    let lowest_power_at = |pred: &dyn Fn(&Evaluation) -> bool| -> Option<String> {
        evals
            .iter()
            .filter(|e| pred(e))
            .min_by(|a, b| a.total_power().value().total_cmp(&b.total_power().value()))
            .map(|e| e.array.cell_name.clone())
    };
    let low_rate_winner = lowest_power_at(&|e: &Evaluation| {
        e.traffic.read_accesses_per_sec() < 1.0e7 && e.array.nonvolatile
    });
    let high_rate_winner = lowest_power_at(&|e: &Evaluation| {
        e.traffic.read_accesses_per_sec() > 8.0e8 && e.array.nonvolatile && e.is_feasible()
    });

    let best_latency = evals
        .iter()
        .filter(|e| e.is_feasible() && e.array.nonvolatile)
        .min_by(|a, b| {
            a.aggregate_latency
                .value()
                .total_cmp(&b.aggregate_latency.value())
        })
        .map(|e| e.array.cell_name.clone());

    let fefet_infeasible_high_writes = evals.iter().any(|e| {
        e.array.cell_name == "FeFET-opt"
            && e.traffic.write_accesses_per_sec() > 5.0e6
            && !e.is_feasible()
    });

    let min_lifetime_of = |name: &str| -> f64 {
        evals
            .iter()
            .filter(|e| e.array.cell_name == name && e.lifetime.is_some())
            .map(Evaluation::lifetime_years)
            .fold(f64::MAX, f64::min)
    };
    let stt_life = min_lifetime_of("STT-opt");
    let rram_life = min_lifetime_of("RRAM-opt");

    let findings = vec![
        Finding::new(
            "below ~1e7 reads/s, optimistic FeFET is the lowest-power solution",
            format!("{low_rate_winner:?}"),
            low_rate_winner.as_deref() == Some("FeFET-opt"),
        ),
        Finding::new(
            "at high read rates (>1e8/s), optimistic STT is the lowest-power feasible eNVM",
            format!("{high_rate_winner:?}"),
            high_rate_winner.as_deref() == Some("STT-opt"),
        ),
        Finding::new(
            "optimistic STT offers the best overall memory latency",
            format!("{best_latency:?}"),
            best_latency.as_deref() == Some("STT-opt"),
        ),
        Finding::new(
            "FeFET cannot meet application demands under the higher write-traffic range",
            format!("FeFET-opt infeasible at high write rates: {fefet_infeasible_high_writes}"),
            fefet_infeasible_high_writes,
        ),
        Finding::new(
            "RRAM has the worst lifetime; STT the best (orders of magnitude apart)",
            format!("worst-case STT {stt_life:.1e} yr vs RRAM {rram_life:.1e} yr"),
            stt_life > 100.0 * rram_life,
        ),
    ];

    let summary = format!(
        "{} traffic patterns x {} cells evaluated at 8 MB.\n\
         Low-rate power winner: {:?}; high-rate: {:?}; best latency: {:?}.",
        pattern_count,
        cells.len(),
        low_rate_winner,
        high_rate_winner,
        best_latency
    );

    Experiment {
        id: "fig8".into(),
        title: "Graph processing: power, latency, and lifetime (8 MB)".into(),
        csv: vec![("fig8_graph_traffic".into(), csv)],
        plots: vec![
            ("fig8_power_vs_reads".into(), power_plot),
            ("fig8_latency_vs_writes".into(), latency_plot),
            ("fig8_lifetime_vs_writes".into(), lifetime_plot),
        ],
        summary,
        findings,
    }
}
