//! Fig. 12 — trading area efficiency for performance: arrays with low area
//! efficiency (less periphery amortization) tend to deliver lower total
//! memory latency.

use crate::experiments::shared::{design, study};
use crate::{Experiment, Finding};
use nvmexplorer_core::config::StudyConfig;
use nvmexplorer_core::explore::ResultSet;
use nvmexplorer_core::sweep::StudyResult;
use nvmx_viz::{csv::num, Csv, ScatterPlot};

/// The area-efficiency threshold the study filters at.
const EFFICIENCY_THRESHOLD: f64 = 0.45;

/// The figure's study: `run config/paper/fig12.json` reproduces it. Its
/// three traffic patterns are a band of scenarios (the paper: "across many
/// traffic scenarios").
const CONFIG: &str = include_str!("../../../../config/paper/fig12.json");

/// Regenerates the area-efficiency filter study on 8 MB arrays.
pub fn run() -> Experiment {
    let config = StudyConfig::from_json(CONFIG).expect("config/paper/fig12.json parses");
    report(&config, &study(&config))
}

/// The Fig. 12 report over the study's evaluations, in the config's cell,
/// target and traffic order.
pub fn report(config: &StudyConfig, result: &StudyResult) -> Experiment {
    let mib = config.array.capacities_mib[0];
    let bits = config.array.bits_per_cell[0];

    let mut csv = Csv::new([
        "cell",
        "target",
        "traffic",
        "area_efficiency",
        "aggregate_latency_ms_per_s",
        "total_power_mw",
        "read_energy_pj",
        "highlighted_low_efficiency",
    ]);
    let mut plot = ScatterPlot::log_log(
        "Fig.12: aggregate latency vs area efficiency (8 MB, all targets)",
        "area efficiency (fraction)",
        "aggregate latency (s per s)",
    );
    plot.x_scale = nvmx_viz::svg::Scale::Linear;

    let mut evaluations = Vec::new();
    for cell in &config.cells.resolve() {
        for &target in &config.array.targets {
            let (_, evals) = design(result, &cell.name, mib, bits, target);
            evaluations.extend_from_slice(evals);
        }
    }
    let set = ResultSet::new(evaluations).feasible();
    let low = set.area_efficiency_at_most(EFFICIENCY_THRESHOLD);
    let high = set.filter(|e| e.array.area_efficiency.value() > EFFICIENCY_THRESHOLD);

    let mut low_points = Vec::new();
    let mut high_points = Vec::new();
    for eval in set.evaluations() {
        let highlighted = eval.array.area_efficiency.value() <= EFFICIENCY_THRESHOLD;
        csv.row([
            eval.array.cell_name.clone(),
            eval.array.target.label().to_owned(),
            eval.traffic.name.clone(),
            num(eval.array.area_efficiency.value()),
            num(eval.aggregate_latency.value() * 1e3),
            num(eval.total_power().value() * 1e3),
            num(eval.array.read_energy.value() * 1e12),
            highlighted.to_string(),
        ]);
        let point = (
            eval.array.area_efficiency.value(),
            eval.aggregate_latency.value(),
        );
        if highlighted {
            low_points.push(point);
        } else {
            high_points.push(point);
        }
    }
    plot.series(format!("area eff <= {EFFICIENCY_THRESHOLD}"), low_points);
    plot.series(format!("area eff > {EFFICIENCY_THRESHOLD}"), high_points);

    let low_median = median_latency(&low);
    let high_median = median_latency(&high);

    // Energy-per-access advantage → large power advantage at high traffic.
    let heavy = set.filter(|e| e.traffic.name == "heavy");
    let corr = {
        // Rank correlation proxy: does lower read energy predict lower
        // total power under heavy traffic?
        let mut pairs: Vec<(f64, f64)> = heavy
            .evaluations()
            .iter()
            .map(|e| (e.array.read_energy.value(), e.total_power().value()))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = pairs.len();
        if n < 4 {
            1.0
        } else {
            let first_half: f64 = pairs[..n / 2].iter().map(|p| p.1).sum::<f64>() / (n / 2) as f64;
            let second_half: f64 =
                pairs[n / 2..].iter().map(|p| p.1).sum::<f64>() / (n - n / 2) as f64;
            second_half / first_half
        }
    };

    let findings = vec![
        efficiency_finding(low_median, high_median),
        Finding::new(
            "slight energy-per-access advantages become large power advantages in \
             high-traffic scenarios",
            format!("mean heavy-traffic power of high-read-energy half = {corr:.2}x the low half"),
            corr > 1.5,
        ),
    ];

    let medians = match (low_median, high_median) {
        (Some(low), Some(high)) => format!(
            "Median aggregate latency {:.3} vs {:.3} ms/s.",
            low * 1e3,
            high * 1e3
        ),
        _ => "Median aggregate latency: no data.".to_owned(),
    };
    let summary = format!(
        "{} feasible design points ({} low-efficiency highlighted). {medians}",
        set.len(),
        low.len(),
    );

    Experiment {
        id: "fig12".into(),
        title: "Area efficiency vs performance filter study (8 MB)".into(),
        csv: vec![("fig12_area_efficiency".into(), csv)],
        plots: vec![("fig12_latency_vs_efficiency".into(), plot)],
        summary,
        findings,
    }
}

/// Median aggregate latency of `set`, or `None` for an empty set.
fn median_latency(set: &ResultSet) -> Option<f64> {
    let mut latencies: Vec<f64> = set
        .evaluations()
        .iter()
        .map(|e| e.aggregate_latency.value())
        .collect();
    latencies.sort_by(f64::total_cmp);
    latencies.get(latencies.len() / 2).copied()
}

/// The paper's Fig. 12 claim checked on the two medians. A side with no
/// feasible design points gives "no data" and a claim that does not hold.
fn efficiency_finding(low_median: Option<f64>, high_median: Option<f64>) -> Finding {
    let claim = "low-area-efficiency arrays tend to deliver lower total memory latency";
    match (low_median, high_median) {
        (Some(low), Some(high)) => Finding::new(
            claim,
            format!(
                "median aggregate latency: {:.3} ms/s (eff<={EFFICIENCY_THRESHOLD}) vs {:.3} ms/s (above)",
                low * 1e3,
                high * 1e3
            ),
            low < high,
        ),
        _ => Finding::new(
            claim,
            format!(
                "no data: a side of the eff<={EFFICIENCY_THRESHOLD} split has no feasible design points"
            ),
            false,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_low_efficiency_set_is_no_data_not_nan() {
        assert_eq!(median_latency(&ResultSet::new(Vec::new())), None);
        let finding = efficiency_finding(None, Some(1.0e-3));
        assert!(!finding.holds);
        assert!(finding.measured.contains("no data"), "{}", finding.measured);
        assert!(!finding.measured.contains("NaN"), "{}", finding.measured);
    }

    #[test]
    fn present_medians_hold_when_low_efficiency_is_faster() {
        assert!(efficiency_finding(Some(1.0e-3), Some(2.0e-3)).holds);
        assert!(!efficiency_finding(Some(2.0e-3), Some(1.0e-3)).holds);
    }
}
