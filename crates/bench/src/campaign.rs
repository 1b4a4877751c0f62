//! Shared plumbing for the campaign binaries (`run`, `nvmx-worker`,
//! `nvmx-coordinator`): config loading with artifact-style exit
//! semantics, the one store opener ([`Store`]), the canonical results-CSV
//! and fault-CSV schemas, the canonical summary lines, and the one writer
//! of a finished campaign's artifacts ([`write_artifacts`]).
//!
//! Everything here is deliberately a pure function of `(StudyConfig,
//! StudyResult)`, so the in-process runner and a wire-replayed capture
//! produce **byte-identical** artifacts — that identity is what the CI
//! distributed-smoke job diffs.

use nvmexplorer_core::config::{CampaignConfig, StudyConfig};
use nvmexplorer_core::fault_study::FaultOutcome;
use nvmexplorer_core::stream::StudyExecutor;
use nvmexplorer_core::sweep::StudyResult;
use nvmx_nvsim::SubarrayCache;
use nvmx_viz::csv::{ArrayCells, Csv};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Loads a campaign config file: a plain study, or — when the JSON carries
/// a top-level `fault` section — a fault-injection campaign layered over
/// it.
///
/// # Errors
///
/// A ready-to-print message: unreadable files and malformed configs both
/// name the path, and parse failures carry the offending section (via
/// [`ConfigError`](nvmexplorer_core::config::ConfigError)'s display form).
pub fn load_campaign(path: &str) -> Result<CampaignConfig, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    CampaignConfig::from_json(&json).map_err(|e| format!("invalid study config `{path}`: {e}"))
}

/// The persistent characterization store a run is backed by: its
/// directory and the cache that counts its L2 traffic.
pub struct Store {
    dir: PathBuf,
    cache: SubarrayCache,
}

impl Store {
    /// Opens the store `flag` (a `--store DIR` value) names, else the one
    /// `study`'s `store` section names; `None` when neither names one.
    ///
    /// # Errors
    ///
    /// ``cannot open characterization store `<dir>`: <cause>`` when the
    /// directory cannot be created.
    pub fn open(flag: Option<String>, study: &StudyConfig) -> Result<Option<Self>, String> {
        let Some(dir) = flag.or_else(|| study.store.dir.clone()).map(PathBuf::from) else {
            return Ok(None);
        };
        let cache = SubarrayCache::with_store(&dir).map_err(|e| {
            format!(
                "cannot open characterization store `{}`: {e}",
                dir.display()
            )
        })?;
        Ok(Some(Self { dir, cache }))
    }

    /// Prints the L2 counters so far on stderr:
    /// `store <dir>: l2_hits=… l2_misses=… l2_rejects=…`. One write for
    /// the whole line: workers share their coordinator's stderr, and
    /// `eprintln!` writes each piece separately, so two workers reporting
    /// at once would interleave mid-line.
    pub fn report(&self) {
        let stats = self.cache.stats();
        let line = format!(
            "store {}: l2_hits={} l2_misses={} l2_rejects={}\n",
            self.dir.display(),
            stats.l2_hits,
            stats.l2_misses,
            stats.l2_rejects,
        );
        let _ = std::io::stderr().write_all(line.as_bytes());
    }
}

/// An executor with `threads` workers (default: one per CPU, capped at
/// 16), sharing `store`'s cache when there is one.
pub fn executor(threads: Option<usize>, store: Option<&Store>) -> StudyExecutor<'_> {
    let executor = threads.map_or_else(StudyExecutor::new, StudyExecutor::with_threads);
    match store {
        Some(store) => executor.cache(&store.cache),
        None => executor,
    }
}

/// Writes a finished campaign's artifacts, the same way in every binary:
/// the results CSV to `results` (which needs the study's config, for its
/// constraint filter) and, for a fault campaign, the fault CSV to
/// `fault_out`; then, with the config, the summary line on stdout
/// ([`fault_summary_line`] for a fault campaign, else [`summary_line`]);
/// then one `  [<study>] results -> <path>` or `  [<study>] fault trials
/// -> <path>` line on stderr per CSV written. A capture replayed without
/// its config gets no summary line and no results CSV.
///
/// # Errors
///
/// ``cannot write `<path>`: <cause>`` for the first CSV that fails;
/// nothing is printed then.
pub fn write_artifacts(
    study: Option<&StudyConfig>,
    result: &StudyResult,
    fault: Option<&FaultOutcome>,
    results: Option<&Path>,
    fault_out: Option<&Path>,
) -> Result<(), String> {
    let mut written = Vec::new();
    let mut write = |what, csv: Csv, path: &'_ Path| {
        csv.write_to(path)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        written.push((what, path.to_owned()));
        Ok::<_, String>(())
    };
    if let (Some(study), Some(path)) = (study, results) {
        write("results", results_csv(study, result), path)?;
    }
    if let (Some(fault), Some(path)) = (fault, fault_out) {
        write("fault trials", fault_csv(fault), path)?;
    }
    if let Some(study) = study {
        println!("{}", campaign_summary_line(study, result, fault));
    }
    for (what, path) in written {
        eprintln!("  [{}] {what} -> {}", result.name, path.display());
    }
    Ok(())
}

/// [`fault_summary_line`] for a fault campaign, else [`summary_line`].
fn campaign_summary_line(
    study: &StudyConfig,
    result: &StudyResult,
    fault: Option<&FaultOutcome>,
) -> String {
    match fault {
        Some(fault) => fault_summary_line(study, result, fault),
        None => summary_line(study, result),
    }
}

/// The artifact-style results table: one row per `array × traffic`
/// evaluation, with the study's constraint filter applied as a column
/// (each row tested directly via
/// [`Constraints::admits`](nvmexplorer_core::config::Constraints) — no
/// cloned result set, no identity re-matching). Each array's cells are
/// formatted once and copied into its other rows ([`ArrayCells`]).
/// Identical inputs produce identical bytes — the runner and the
/// wire-replay path share this function for exactly that reason.
pub fn results_csv(study: &StudyConfig, result: &StudyResult) -> Csv {
    let mut csv = Csv::new([
        "cell",
        "technology",
        "capacity_mib",
        "bits_per_cell",
        "target",
        "traffic",
        "read_latency_ns",
        "write_latency_ns",
        "read_energy_pj",
        "write_energy_pj",
        "leakage_mw",
        "area_mm2",
        "density_mbit_mm2",
        "total_power_mw",
        "aggregate_latency_ms_per_s",
        "lifetime_years",
        "feasible",
        "meets_constraints",
    ]);
    let mut array_cells = ArrayCells::new();
    for eval in &result.evaluations {
        let (prefix, middle) = array_cells.get(&eval.array);
        csv.push_row()
            .cells(prefix, ArrayCells::PREFIX)
            .text(&eval.traffic.name)
            .cells(middle, ArrayCells::MIDDLE)
            .num(eval.total_power().value() * 1e3)
            .num(eval.aggregate_latency.value() * 1e3)
            .num(eval.lifetime_years())
            .bool(eval.is_feasible())
            .bool(study.constraints.admits(eval));
    }
    csv
}

/// The fault-campaign trial table: one row per injection trial, in the
/// campaign's deterministic slot order (`model_index × trials + trial`),
/// with the wire-carried injection seed included so any row can be
/// reproduced in isolation. Like [`results_csv`], this is a pure function
/// of its input — the in-process runner, the coordinator, and a replayed
/// capture all produce identical bytes.
pub fn fault_csv(fault: &FaultOutcome) -> Csv {
    let mut csv = Csv::new([
        "model_index",
        "trial",
        "cell",
        "bits_per_cell",
        "temperature_c",
        "bit_error_rate",
        "injection_seed",
        "bits_total",
        "bits_flipped",
        "accuracy",
    ]);
    for trial in &fault.trials {
        csv.push_row()
            .display(trial.model_index)
            .display(trial.trial)
            .text(&trial.cell)
            .display(trial.bits_per_cell)
            .num(trial.temperature_c)
            .num(trial.bit_error_rate)
            .display(trial.injection_seed)
            .display(trial.bits_total)
            .display(trial.bits_flipped)
            .num(trial.accuracy);
    }
    csv
}

/// The canonical one-line fault-campaign summary: the base study's
/// [`summary_line`] extended with the campaign counters. Printed
/// identically by the `run` binary, `nvmx-coordinator run`, and
/// `nvmx-coordinator replay`, so CI can diff the three paths textually.
pub fn fault_summary_line(
    study: &StudyConfig,
    result: &StudyResult,
    fault: &FaultOutcome,
) -> String {
    format!(
        "{}; fault campaign: {} models, {} trials, {} degraded",
        summary_line(study, result),
        fault.stats.models,
        fault.stats.trials,
        fault.stats.degraded,
    )
}

/// The canonical one-line study summary, printed identically by the `run`
/// binary, `nvmx-coordinator run`, and `nvmx-coordinator replay` so CI can
/// diff the three paths textually.
pub fn summary_line(study: &StudyConfig, result: &StudyResult) -> String {
    format!(
        "study `{}`: {} arrays, {} evaluations, {} skipped, {} meet constraints",
        result.name,
        result.arrays.len(),
        result.evaluations.len(),
        result.skipped.len(),
        (result.evaluations.iter())
            .filter(|e| study.constraints.admits(e))
            .count(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmexplorer_core::config::{CellSelection, TrafficSpec};
    use nvmexplorer_core::stream::{NullSink, StudyExecutor};

    fn small_study() -> StudyConfig {
        StudyConfig {
            name: "campaign-unit".into(),
            cells: CellSelection {
                technologies: Some(vec![nvmx_celldb::TechnologyClass::Stt]),
                reference_rram: false,
                sram_baseline: false,
                ..CellSelection::default()
            },
            array: Default::default(),
            traffic: TrafficSpec::Explicit {
                patterns: vec![nvmx_workloads::TrafficPattern::new("t", 1.0e9, 1.0e7, 64)],
            },
            constraints: Default::default(),
            output: Default::default(),
            store: Default::default(),
        }
    }

    #[test]
    fn results_csv_is_a_pure_function_of_the_result() {
        let study = small_study();
        let result = StudyExecutor::with_threads(2)
            .run(&study, &mut NullSink)
            .unwrap();
        let a = results_csv(&study, &result).render();
        let b = results_csv(&study, &result).render();
        assert_eq!(a, b);
        assert!(a.starts_with("cell,technology,"));
        assert_eq!(a.lines().count(), 1 + result.evaluations.len());
    }

    /// `result` with every evaluation's array deep-cloned into its own
    /// `Arc`, so no two rows share an allocation.
    fn unshared(result: &StudyResult) -> StudyResult {
        let mut out = result.clone();
        for eval in &mut out.evaluations {
            eval.array = std::sync::Arc::new((*eval.array).clone());
        }
        out
    }

    #[test]
    fn results_csv_bytes_do_not_depend_on_array_sharing_or_order() {
        let mut study = small_study();
        study.traffic = TrafficSpec::Explicit {
            patterns: (1..=3)
                .map(|i| {
                    nvmx_workloads::TrafficPattern::new(
                        format!("t,{i}"),
                        1.0e9 * i as f64,
                        1.0e7,
                        64,
                    )
                })
                .collect(),
        };
        let result = StudyExecutor::with_threads(2)
            .run(&study, &mut NullSink)
            .unwrap();
        let shared = results_csv(&study, &result).render();
        assert_eq!(results_csv(&study, &unshared(&result)).render(), shared);

        // Rows alternate between arrays (A, B, A, ...), so the memo misses
        // in the middle of each array's rows; each row must still be the
        // row the in-order rendering gave that evaluation.
        let half = result.evaluations.len() / 2;
        let order: Vec<usize> = (0..half).flat_map(|i| [i, half + i]).collect();
        let mut reordered = result.clone();
        reordered.evaluations = order
            .iter()
            .map(|&i| result.evaluations[i].clone())
            .collect();
        let text = results_csv(&study, &reordered).render();
        assert_eq!(results_csv(&study, &unshared(&reordered)).render(), text);
        let rows: Vec<&str> = shared.lines().skip(1).collect();
        for (line, &i) in text.lines().skip(1).zip(&order) {
            assert_eq!(line, rows[i]);
        }
    }

    #[test]
    fn results_csv_memo_keys_by_allocation_not_value() {
        let study = small_study();
        let mut result = StudyExecutor::with_threads(2)
            .run(&study, &mut NullSink)
            .unwrap();
        let first = result.evaluations[0].clone();
        // A value-equal array in a distinct `Arc`, then one that differs
        // only in a memoized field, interleaved with the original.
        let mut twin = first.clone();
        twin.array = std::sync::Arc::new((*first.array).clone());
        let mut other = first.clone();
        let mut array = (*first.array).clone();
        array.read_latency = nvmx_units::Seconds::new(array.read_latency.value() * 2.0);
        other.array = std::sync::Arc::new(array);
        result.evaluations = vec![first.clone(), twin, other, first];
        let text = results_csv(&study, &result).render();
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows[0], rows[1]);
        assert_eq!(rows[0], rows[3]);
        assert_ne!(rows[0], rows[2]);
        assert_eq!(text, results_csv(&study, &unshared(&result)).render());
    }

    #[test]
    fn summary_line_counts_the_result() {
        let study = small_study();
        let result = StudyExecutor::with_threads(2)
            .run(&study, &mut NullSink)
            .unwrap();
        let line = summary_line(&study, &result);
        assert!(line.contains("campaign-unit"));
        assert!(line.contains(&format!("{} evaluations", result.evaluations.len())));
    }

    fn small_fault_campaign() -> nvmexplorer_core::config::FaultStudyConfig {
        use nvmexplorer_core::config::{FaultSpec, FaultStudyConfig};
        FaultStudyConfig {
            study: small_study(),
            fault: FaultSpec {
                trials: 2,
                seed: 5,
                bits_per_cell: vec![nvmx_units::BitsPerCell::Slc],
                temperatures_c: vec![25.0],
                raw_bers: vec![1.0e-3],
                tolerance: 0.05,
            },
        }
    }

    #[test]
    fn write_artifacts_writes_the_canonical_bytes() {
        let dir = std::env::temp_dir().join(format!(
            "nvmx_campaign_artifacts_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (results, fault_out) = (dir.join("results.csv"), dir.join("fault.csv"));
        let read = |path: &Path| std::fs::read_to_string(path).unwrap();
        let executor = StudyExecutor::with_threads(2);

        // A plain study: its results CSV, no fault CSV, the plain line.
        let study = small_study();
        let result = executor.run(&study, &mut NullSink).unwrap();
        write_artifacts(
            Some(&study),
            &result,
            None,
            Some(&results),
            Some(&fault_out),
        )
        .unwrap();
        assert_eq!(read(&results), results_csv(&study, &result).render());
        assert!(!fault_out.exists(), "a plain study has no fault CSV");
        assert_eq!(
            campaign_summary_line(&study, &result, None),
            summary_line(&study, &result)
        );

        // A fault campaign: both CSVs and the fault campaign's line.
        let campaign = small_fault_campaign();
        let run = executor.run_fault(&campaign, &mut NullSink).unwrap();
        let (study, fault) = (&campaign.study, Some(&run.fault));
        write_artifacts(
            Some(study),
            &run.study,
            fault,
            Some(&results),
            Some(&fault_out),
        )
        .unwrap();
        assert_eq!(read(&results), results_csv(study, &run.study).render());
        assert_eq!(read(&fault_out), fault_csv(&run.fault).render());
        assert_eq!(
            campaign_summary_line(study, &run.study, fault),
            fault_summary_line(study, &run.study, &run.fault)
        );

        // Without the config (a bare replay) only the fault CSV is written.
        std::fs::remove_file(&results).unwrap();
        std::fs::remove_file(&fault_out).unwrap();
        write_artifacts(None, &run.study, fault, Some(&results), Some(&fault_out)).unwrap();
        assert!(!results.exists());
        assert_eq!(read(&fault_out), fault_csv(&run.fault).render());

        // A CSV that cannot be written names its path.
        let blocked = results.join("under-a-file.csv");
        std::fs::write(&results, "").unwrap();
        let err = write_artifacts(Some(study), &run.study, None, Some(&blocked), None).unwrap_err();
        assert!(
            err.starts_with(&format!("cannot write `{}`: ", blocked.display())),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_csv_and_summary_are_pure_functions_of_the_outcome() {
        let campaign = small_fault_campaign();
        let result = StudyExecutor::with_threads(2)
            .run_fault(&campaign, &mut NullSink)
            .unwrap();
        let a = fault_csv(&result.fault).render();
        let b = fault_csv(&result.fault).render();
        assert_eq!(a, b);
        assert!(a.starts_with("model_index,trial,cell,"));
        assert_eq!(a.lines().count(), 1 + result.fault.trials.len());
        let line = fault_summary_line(&campaign.study, &result.study, &result.fault);
        assert!(line.contains("fault campaign:"), "{line}");
        assert!(
            line.contains(&format!("{} trials", result.fault.stats.trials)),
            "{line}"
        );
    }

    #[test]
    fn load_campaign_dispatches_on_the_fault_section() {
        let dir =
            std::env::temp_dir().join(format!("nvmx_campaign_fault_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plain = dir.join("plain.json");
        std::fs::write(
            &plain,
            r#"{"name": "p", "traffic": {"kind": "explicit", "patterns":
                [{"name": "t", "read_bytes_per_sec": 1e9,
                  "write_bytes_per_sec": 1e7, "access_bytes": 64}]}}"#,
        )
        .unwrap();
        assert!(matches!(
            load_campaign(plain.to_str().unwrap()).unwrap(),
            nvmexplorer_core::config::CampaignConfig::Study(_)
        ));
        let fault = dir.join("fault.json");
        std::fs::write(
            &fault,
            r#"{"name": "f", "traffic": {"kind": "explicit", "patterns":
                [{"name": "t", "read_bytes_per_sec": 1e9,
                  "write_bytes_per_sec": 1e7, "access_bytes": 64}]},
                "fault": {"trials": 2}}"#,
        )
        .unwrap();
        match load_campaign(fault.to_str().unwrap()).unwrap() {
            nvmexplorer_core::config::CampaignConfig::Fault(campaign) => {
                assert_eq!(campaign.fault.trials, 2);
            }
            other => panic!("expected a fault campaign, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_campaign_errors_name_the_path_and_section() {
        let err = load_campaign("/nonexistent/nope.json").unwrap_err();
        assert!(err.contains("nope.json"));
        let dir =
            std::env::temp_dir().join(format!("nvmx_campaign_cfg_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"name": "x", "trafic": {}}"#).unwrap();
        let err = load_campaign(bad.to_str().unwrap()).unwrap_err();
        assert!(err.contains("trafic"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
