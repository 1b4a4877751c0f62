//! Fig. 9 — non-volatile 16 MB LLC under SPEC CPU2017-class traffic:
//! per-benchmark power, aggregate latency, and lifetime.

use crate::experiments::shared::{read_edp, read_edp_study, spec_suites, study};
use crate::{Experiment, Finding};
use nvmexplorer_core::config::CellSelection;
use nvmexplorer_core::eval::Evaluation;
use nvmx_viz::{csv::num, Csv, ScatterPlot};

/// Regenerates the SPEC LLC study.
pub fn run() -> Experiment {
    let suite = &spec_suites().fig9;
    let patterns = suite.iter().map(|bench| bench.traffic.clone()).collect();
    // 16 MB, 64 B cache lines.
    let config = read_edp_study("fig9", CellSelection::default(), &[16], 512, patterns);
    let result = study(&config);
    let cells = config.cells.resolve();

    let mut csv = Csv::new([
        "cell",
        "benchmark",
        "read_accesses_per_sec",
        "write_accesses_per_sec",
        "miss_rate",
        "total_power_mw",
        "aggregate_latency_ms_per_s",
        "lifetime_years",
        "feasible",
    ]);
    let mut power_plot = ScatterPlot::log_log(
        "Fig.9: LLC power vs read rate (16 MB, SPEC2017-class)",
        "read accesses per second",
        "total memory power (W)",
    );
    let mut latency_plot = ScatterPlot::log_log(
        "Fig.9: LLC aggregate latency vs write rate",
        "write accesses per second",
        "aggregate latency (s per s)",
    );
    let mut lifetime_plot = ScatterPlot::log_log(
        "Fig.9: LLC lifetime vs write rate",
        "write accesses per second",
        "lifetime (years)",
    );

    let mut evals: Vec<(String, Evaluation)> = Vec::new();
    for cell in &cells {
        let (_, cell_evals) = read_edp(&result, &cell.name, 16);
        let mut p = Vec::new();
        let mut l = Vec::new();
        let mut lt = Vec::new();
        for (bench, eval) in suite.iter().zip(cell_evals) {
            csv.row([
                cell.name.clone(),
                bench.name.clone(),
                num(bench.traffic.read_accesses_per_sec()),
                num(bench.traffic.write_accesses_per_sec()),
                num(bench.miss_rate),
                num(eval.total_power().value() * 1e3),
                num(eval.aggregate_latency.value() * 1e3),
                num(eval.lifetime_years()),
                eval.is_feasible().to_string(),
            ]);
            p.push((
                bench.traffic.read_accesses_per_sec(),
                eval.total_power().value(),
            ));
            if eval.is_feasible() {
                l.push((
                    bench.traffic.write_accesses_per_sec(),
                    eval.aggregate_latency.value(),
                ));
            }
            if eval.lifetime.is_some() {
                lt.push((
                    bench.traffic.write_accesses_per_sec(),
                    eval.lifetime_years(),
                ));
            }
            evals.push((bench.name.clone(), eval.clone()));
        }
        power_plot.series(cell.name.clone(), p);
        latency_plot.series(cell.name.clone(), l);
        lifetime_plot.series(cell.name.clone(), lt);
    }

    // High-traffic benchmark = the one with the highest read rate.
    let top_bench = suite
        .iter()
        .max_by(|a, b| {
            a.traffic
                .read_accesses_per_sec()
                .total_cmp(&b.traffic.read_accesses_per_sec())
        })
        .expect("suite nonempty")
        .name
        .clone();
    let among_top = |f: &dyn Fn(&Evaluation) -> f64| -> Option<String> {
        evals
            .iter()
            .filter(|(b, e)| *b == top_bench && e.array.nonvolatile && e.is_feasible())
            .min_by(|a, b| f(&a.1).total_cmp(&f(&b.1)))
            .map(|(_, e)| e.array.cell_name.clone())
    };
    let top_power = among_top(&|e: &Evaluation| e.total_power().value());
    let top_latency = among_top(&|e: &Evaluation| e.aggregate_latency.value());
    let top_lifetime = among_top(&|e: &Evaluation| -e.lifetime_years());

    // RRAM viability: worst-case lifetime across the suite.
    let rram_worst_life = evals
        .iter()
        .filter(|(_, e)| e.array.cell_name == "RRAM-opt" && e.lifetime.is_some())
        .map(|(_, e)| e.lifetime_years())
        .fold(f64::MAX, f64::min);

    let mut winners: Vec<String> = suite
        .iter()
        .filter_map(|bench| {
            evals
                .iter()
                .filter(|(b, e)| *b == bench.name && e.array.nonvolatile)
                .min_by(|a, b| {
                    a.1.total_power()
                        .value()
                        .total_cmp(&b.1.total_power().value())
                })
                .map(|(_, e)| e.array.cell_name.clone())
        })
        .collect();
    winners.sort_unstable();
    winners.dedup();

    let findings = vec![
        Finding::new(
            "for high-traffic benchmarks STT provides the lowest power, lowest latency, \
             and longest lifetime",
            format!(
                "{top_bench}: power {top_power:?}, latency {top_latency:?}, lifetime {top_lifetime:?}"
            ),
            top_power.as_deref() == Some("STT-opt")
                && top_latency.as_deref() == Some("STT-opt")
                && top_lifetime.as_deref() == Some("STT-opt"),
        ),
        Finding::new(
            "RRAM does not appear viable as an LLC (lifetime collapses under cache writes)",
            format!("worst-case RRAM-opt lifetime {rram_worst_life:.2e} years"),
            rram_worst_life < 1.0,
        ),
        Finding::new(
            "the lowest-power eNVM depends on the benchmark's traffic pattern",
            format!("distinct per-benchmark power winners: {winners:?}"),
            winners.len() >= 2,
        ),
    ];

    let summary = format!(
        "{} SPEC-class benchmarks x {} cells at 16 MB / 64 B lines.\n\
         Highest-traffic benchmark: {top_bench}.",
        suite.len(),
        cells.len()
    );

    Experiment {
        id: "fig9".into(),
        title: "SPEC2017-class LLC: power, latency, lifetime (16 MB)".into(),
        csv: vec![("fig9_spec_llc".into(), csv)],
        plots: vec![
            ("fig9_power_vs_reads".into(), power_plot),
            ("fig9_latency_vs_writes".into(), latency_plot),
            ("fig9_lifetime_vs_writes".into(), lifetime_plot),
        ],
        summary,
        findings,
    }
}
