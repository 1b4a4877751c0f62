//! The committed paper configs (`config/paper/*.json`) are the only
//! source of their figures' inputs, and the figures run them on the
//! production engine through the suite's one shared subarray cache
//! (`experiments::shared::study`). Whatever the other figures left in
//! that cache must not show: each config gives the same `StudyResult`
//! through a fresh `StudyExecutor` with a private cache as through
//! `shared::study` once every figure has warmed the shared one.

use nvmexplorer_core::config::StudyConfig;
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmx_bench::experiments::shared;
use nvmx_bench::run_experiment;
use std::path::Path;

/// Every `config/paper/*.json`, by file stem, in name order.
fn paper_configs() -> Vec<(String, StudyConfig)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../config/paper");
    let mut configs: Vec<(String, StudyConfig)> = std::fs::read_dir(&dir)
        .expect("config/paper exists")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| {
            let stem = path.file_stem().expect("file stem").to_string_lossy();
            let json = std::fs::read_to_string(&path).expect("readable config");
            let config =
                StudyConfig::from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (stem.into_owned(), config)
        })
        .collect();
    configs.sort_by(|a, b| a.0.cmp(&b.0));
    configs
}

#[test]
fn each_paper_config_is_the_same_study_on_a_fresh_and_on_the_warmed_shared_cache() {
    let configs = paper_configs();
    let names: Vec<&str> = configs.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["fig10", "fig12", "fig3", "fig5"]);

    // Every figure that reads a committed config warms the shared cache.
    for (name, config) in &configs {
        assert_eq!(
            config.name, *name,
            "a config's study is named after its file"
        );
        let experiment = run_experiment(name, false).expect("known experiment");
        assert!(experiment.all_findings_hold(), "{name}");
    }

    for (name, config) in &configs {
        let fresh = (StudyExecutor::new().run(config, &mut NullSink))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let before = shared::cache().stats();
        let warmed = shared::study(config);
        let delta = shared::cache().stats().since(before);
        assert_eq!(
            delta.misses, 0,
            "{name}: the shared cache was warm ({delta})"
        );
        assert!(delta.hits > 0, "{name}: {delta}");
        assert!(
            fresh == warmed,
            "{name}: the warmed shared cache changed the study"
        );
        assert!(fresh.skipped.is_empty(), "{name}: {:?}", fresh.skipped);
    }
}
