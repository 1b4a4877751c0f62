//! Correctness: the in-process reference every path's artifacts are
//! byte-diffed against, the paper-fidelity ledger, and the tally of
//! operations attempted and failed. A mismatch is recorded and named,
//! never a panic.

use crate::gen::{Configs, Expected};
use nvmexplorer_core::config::CampaignConfig;
use nvmexplorer_core::stream::{ResultSink, StudyEvent, StudyExecutor, StudyStats};
use nvmexplorer_core::wire::WireSink;
use nvmx_bench::campaign::{results_csv, summary_line};

/// Operations attempted and failed, with every failure named.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one problem.
    pub failed: u64,
    /// `operation: problem` lines, in the order they were found.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records one operation; it failed if `problems` is non-empty.
    pub fn op(&mut self, operation: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .extend(problems.into_iter().map(|p| format!("{operation}: {p}")));
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A passive sink keeping the terminal event's counters.
#[derive(Debug, Default)]
pub struct FinishStats(pub Option<StudyStats>);

impl ResultSink for FinishStats {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        if let StudyEvent::StudyFinished { stats, .. } = event {
            self.0 = Some(**stats);
        }
        Ok(())
    }

    fn is_passive(&self) -> bool {
        true
    }
}

/// The artifacts every path must reproduce byte for byte.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `results_csv(..).render()` of an in-process run.
    pub csv: String,
    /// `summary_line` of that run.
    pub summary: String,
    /// Counts the run produced.
    pub counts: Expected,
}

/// Runs the workload's study in-process and renders its artifacts.
///
/// # Errors
///
/// A message when the config does not parse or the study fails.
pub fn reference(configs: &Configs) -> Result<Reference, String> {
    let campaign = CampaignConfig::from_json(&configs.text).map_err(|e| e.to_string())?;
    let study = campaign.study();
    let mut wire = WireSink::new(std::io::sink());
    let result = StudyExecutor::new()
        .run(study, &mut wire)
        .map_err(|e| e.to_string())?;
    Ok(Reference {
        csv: results_csv(study, &result).render(),
        summary: summary_line(study, &result),
        counts: Expected {
            arrays: result.arrays.len(),
            evaluations: result.evaluations.len(),
            frames: wire.frames_written(),
        },
    })
}

/// Names how `got` differs from `want`, or `None` when identical.
pub fn diff(what: &str, got: &str, want: &str) -> Option<String> {
    if got == want {
        return None;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .map_or_else(
            || got.lines().count().min(want.lines().count()) + 1,
            |i| i + 1,
        );
    Some(format!(
        "{what} differs from the in-process reference at line {line} ({} vs {} bytes)",
        got.len(),
        want.len()
    ))
}

/// The paper claims known to deviate in full mode, as `(experiment,
/// claim prefix)`; every other finding must hold. The first is the
/// paper's Fig. 9 high-read-rate claim, which the `fig8` experiment (graph
/// processing) checks.
pub const PINNED_DEVIATIONS: [(&str, &str); 2] = [
    (
        "fig8",
        "at high read rates (>1e8/s), optimistic STT is the lowest-power feasible eNVM",
    ),
    (
        "fig14",
        "STT remains the lowest-power solution for this high-traffic workload",
    ),
];

/// Findings that must hold in full mode.
pub const PINNED_OK: usize = 48;

/// Problems with a set of `(experiment, claim, holds)` verdicts against
/// the pinned ledger.
pub fn ledger_problems<'a>(
    verdicts: impl IntoIterator<Item = (&'a str, &'a str, bool)>,
) -> Vec<String> {
    let mut ok = 0;
    let mut problems = Vec::new();
    let mut pinned_seen = [false; PINNED_DEVIATIONS.len()];
    for (id, claim, holds) in verdicts {
        if holds {
            ok += 1;
            continue;
        }
        match PINNED_DEVIATIONS
            .iter()
            .position(|(pid, prefix)| *pid == id && claim.starts_with(prefix))
        {
            Some(i) => pinned_seen[i] = true,
            None => problems.push(format!("unexpected deviation in {id}: {claim}")),
        }
    }
    if ok != PINNED_OK {
        problems.push(format!("{ok} findings hold, ledger pins {PINNED_OK}"));
    }
    for (seen, (id, claim)) in pinned_seen.iter().zip(PINNED_DEVIATIONS) {
        if !seen {
            problems.push(format!(
                "pinned deviation in {id} no longer reported: {claim}"
            ));
        }
    }
    problems
}

/// Parses the `all` binary's report into `(experiment, claim, holds)`
/// verdicts: `== <id> — ...` headers, then `[OK ]`/`[DEV]` claim lines.
pub fn parse_report(stdout: &str) -> Vec<(&str, &str, bool)> {
    let mut id = "";
    let mut verdicts = Vec::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("== ") {
            id = rest.split_whitespace().next().unwrap_or("");
        }
        let line = line.trim_start();
        if let Some(claim) = line.strip_prefix("[OK ] ") {
            verdicts.push((id, claim, true));
        } else if let Some(claim) = line.strip_prefix("[DEV] ") {
            verdicts.push((id, claim, false));
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_operations_not_problems() {
        let mut ledger = Ledger::default();
        ledger.op("a", vec![]);
        ledger.op("b", vec!["x".into(), "y".into()]);
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert_eq!(ledger.failures, ["b: x", "b: y"]);
        assert_eq!(ledger.error_rate(), 0.5);
    }

    #[test]
    fn diff_names_the_first_differing_line() {
        assert_eq!(diff("csv", "a\nb\n", "a\nb\n"), None);
        let d = diff("csv", "a\nc\n", "a\nb\n").unwrap();
        assert!(d.contains("line 2"), "{d}");
        let d = diff("csv", "a\n", "a\nb\n").unwrap();
        assert!(d.contains("line 2"), "{d}");
    }

    #[test]
    fn report_parsing_feeds_the_pinned_ledger() {
        let mut report = String::from("== fig8 — graphs ==\n  [DEV] at high read rates (>1e8/s), optimistic STT is the lowest-power feasible eNVM\n");
        report.push_str("== fig14 — BFS ==\n  [DEV] STT remains the lowest-power solution for this high-traffic workload (paper)\n");
        for _ in 0..PINNED_OK {
            report.push_str("== fig3 — x ==\n  [OK ] holds\n");
        }
        let verdicts = parse_report(&report);
        assert_eq!(verdicts.len(), PINNED_OK + 2);
        assert!(ledger_problems(verdicts).is_empty());

        let bad = "== fig3 — x ==\n  [DEV] something new\n";
        let problems = ledger_problems(parse_report(bad));
        assert!(problems
            .iter()
            .any(|p| p.contains("unexpected deviation in fig3")));
        assert!(problems.iter().any(|p| p.contains("no longer reported")));
    }
}
