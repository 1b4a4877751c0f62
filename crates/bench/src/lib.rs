//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md §3 for the index).
//!
//! Each experiment is a pure function from configuration to an
//! [`Experiment`] bundle (CSV data + SVG plots + an ASCII summary + a list
//! of checked paper findings). The `fig*`/`table*` binaries are thin
//! wrappers; integration tests and criterion benches call the same
//! functions.
//!
//! The simulations several experiments share (the SPEC LLC suite, the
//! social graphs' BFS counts) run once per process in core's traffic memo,
//! read through [`experiments::shared`], and independent kernels inside an
//! experiment run across threads. Neither changes a byte: every report and
//! artifact is identical whether an experiment runs alone, after the
//! others, or on any number of cores.

pub mod campaign;
pub mod cli;
pub mod experiments;

use nvmx_viz::{Csv, ScatterPlot};
use std::path::{Path, PathBuf};

/// One paper claim checked against our measured reproduction.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The paper's claim, paraphrased.
    pub claim: String,
    /// What we measured.
    pub measured: String,
    /// Whether the claim's *shape* holds in the reproduction.
    pub holds: bool,
}

impl Finding {
    /// Creates a finding record.
    pub fn new(claim: impl Into<String>, measured: impl Into<String>, holds: bool) -> Self {
        Self {
            claim: claim.into(),
            measured: measured.into(),
            holds,
        }
    }
}

/// A fully-materialized experiment: everything a figure/table regeneration
/// produces.
#[derive(Debug, Default)]
pub struct Experiment {
    /// Experiment id (`fig3`, `table2`, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Named CSV outputs.
    pub csv: Vec<(String, Csv)>,
    /// Named SVG plots.
    pub plots: Vec<(String, ScatterPlot)>,
    /// Terminal summary (ASCII tables + notes).
    pub summary: String,
    /// Paper-vs-measured checks.
    pub findings: Vec<Finding>,
}

impl Experiment {
    /// Writes all CSV/SVG artifacts under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_artifacts(&self, dir: impl AsRef<Path>) -> std::io::Result<Vec<PathBuf>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, csv) in &self.csv {
            let path = dir.join(format!("{name}.csv"));
            csv.write_to(&path)?;
            written.push(path);
        }
        for (name, plot) in &self.plots {
            let path = dir.join(format!("{name}.svg"));
            plot.write_to(&path)?;
            written.push(path);
        }
        Ok(written)
    }

    /// Renders the terminal report (summary + findings).
    pub fn report(&self) -> String {
        let mut out = format!("== {} — {} ==\n\n{}\n", self.id, self.title, self.summary);
        if !self.findings.is_empty() {
            out.push_str("\nPaper-vs-measured:\n");
            for f in &self.findings {
                let mark = if f.holds { "OK " } else { "DEV" };
                out.push_str(&format!(
                    "  [{mark}] {}\n        measured: {}\n",
                    f.claim, f.measured
                ));
            }
        }
        out
    }

    /// `true` when every checked finding holds.
    pub fn all_findings_hold(&self) -> bool {
        self.findings.iter().all(|f| f.holds)
    }
}

/// Where experiment artifacts land (`NVMX_OUT`, default `output/`).
pub fn output_dir() -> PathBuf {
    std::env::var_os("NVMX_OUT").map_or_else(|| PathBuf::from("output"), PathBuf::from)
}

/// All experiment ids, in paper order.
pub const EXPERIMENT_IDS: [&str; 16] = [
    "fig1", "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "table2", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14", "table3",
];

/// Runs one experiment by id.
///
/// Returns `None` for unknown ids. `_fast` is ignored; it goes when the
/// end-to-end benchmark stops passing it.
pub fn run_experiment(id: &str, _fast: bool) -> Option<Experiment> {
    use experiments as x;
    Some(match id {
        "fig1" => x::fig1::run(),
        "table1" => x::table1::run(),
        "fig3" => x::fig3::run(),
        "fig4" => x::fig4::run(),
        "fig5" => x::fig5::run(),
        "fig6" => x::fig6::run(),
        "fig7" => x::fig7::run(),
        "table2" => x::table2::run(),
        "fig8" => x::fig8::run(),
        "fig9" => x::fig9::run(),
        "fig10" => x::fig10::run(),
        "fig11" => x::fig11::run(),
        "fig12" => x::fig12::run(),
        "fig13" => x::fig13::run(),
        "fig14" => x::fig14::run(),
        "table3" => x::table3::run(),
        _ => return None,
    })
}

/// Binary entry point shared by all `fig*`/`table*` targets: run, print the
/// report, write artifacts.
pub fn main_for(id: &str) {
    let experiment = run_experiment(id, false)
        .unwrap_or_else(|| fail!(2, "unknown experiment `{id}`; known: {EXPERIMENT_IDS:?}"));
    println!("{}", experiment.report());
    let paths = (experiment.write_artifacts(output_dir().join(id)))
        .unwrap_or_else(|e| fail!(1, "failed to write artifacts: {e}"));
    for p in paths {
        println!("wrote {}", p.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatcher_knows_all_ids() {
        // Don't *run* them here (integration tests do); just check unknown
        // ids are rejected and ids are unique.
        assert!(run_experiment("fig999", false).is_none());
        let mut ids = EXPERIMENT_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENT_IDS.len());
    }

    #[test]
    fn experiment_report_marks_deviations() {
        let mut e = Experiment {
            id: "x".into(),
            title: "t".into(),
            ..Default::default()
        };
        e.findings.push(Finding::new("claim", "value", true));
        e.findings.push(Finding::new("other", "value", false));
        let report = e.report();
        assert!(report.contains("[OK ]"));
        assert!(report.contains("[DEV]"));
        assert!(!e.all_findings_hold());
    }
}
