//! Runs every paper experiment in the configuration the `fig*`/`table*`
//! binaries publish and checks its findings. Every finding holds except
//! in `fig8` and `fig14`, whose two known deviations the `all` ledger
//! reports; those two are checked for non-empty findings and CSV data.

use nvmx_bench::{run_experiment, EXPERIMENT_IDS};

#[test]
fn survey_and_validation_experiments_hold() {
    for id in ["fig1", "table1", "fig4", "table3"] {
        let experiment = run_experiment(id, false).expect("known id");
        assert!(
            experiment.all_findings_hold(),
            "{id} deviated:\n{}",
            experiment.report()
        );
        assert!(!experiment.csv.is_empty(), "{id} must emit CSV data");
    }
}

#[test]
fn array_level_experiments_hold() {
    for id in ["fig3", "fig5", "fig10"] {
        let experiment = run_experiment(id, false).expect("known id");
        assert!(
            experiment.all_findings_hold(),
            "{id} deviated:\n{}",
            experiment.report()
        );
    }
}

#[test]
fn dnn_experiments_produce_findings() {
    for id in ["fig6", "fig7", "table2"] {
        let experiment = run_experiment(id, false).expect("known id");
        assert!(!experiment.findings.is_empty(), "{id} must check findings");
        assert!(!experiment.csv.is_empty());
        assert!(
            experiment.all_findings_hold(),
            "{id} deviated:\n{}",
            experiment.report()
        );
    }
}

#[test]
fn system_experiments_produce_findings() {
    for id in ["fig8", "fig9", "fig11", "fig12", "fig13", "fig14"] {
        let experiment = run_experiment(id, false).expect("known id");
        assert!(!experiment.findings.is_empty(), "{id} must check findings");
        assert!(!experiment.csv.is_empty(), "{id} must emit CSV data");
        // The ledger's two known deviations sit in fig8 and fig14.
        if !["fig8", "fig14"].contains(&id) {
            assert!(
                experiment.all_findings_hold(),
                "{id} deviated:\n{}",
                experiment.report()
            );
        }
    }
}

#[test]
fn artifacts_write_to_disk() {
    let experiment = run_experiment("fig1", false).expect("known id");
    let dir = std::env::temp_dir().join(format!("nvmx_experiment_smoke-{}", std::process::id()));
    let written = experiment.write_artifacts(&dir).expect("writes");
    assert!(!written.is_empty());
    for path in &written {
        assert!(path.exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn smoke_groups_cover_every_registered_id() {
    // Keep the groups above in sync with the dispatcher table.
    let covered: Vec<&str> = [
        "fig1", "table1", "fig4", "table3", "fig3", "fig5", "fig10", "fig6", "fig7", "table2",
        "fig8", "fig9", "fig11", "fig12", "fig13", "fig14",
    ]
    .into_iter()
    .collect();
    for id in EXPERIMENT_IDS {
        assert!(covered.contains(&id), "experiment {id} not smoke-tested");
    }
    assert_eq!(covered.len(), EXPERIMENT_IDS.len());
}
