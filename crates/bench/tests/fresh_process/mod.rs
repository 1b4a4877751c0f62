//! Compares an experiment run in the calling test process, whose
//! shared-input memos may already be warm, against its binary run in a
//! fresh process with cold memos. Each test binary that uses this keeps
//! its own memos, since they are per process.

use nvmx_bench::Experiment;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory unique to this process.
pub fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvmx-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the `id` binary in a fresh process with artifacts under `out` and
/// returns its stdout.
fn run_binary(id: &str, out: &Path) -> String {
    let exe = match id {
        "fig6" => env!("CARGO_BIN_EXE_fig6"),
        "fig9" => env!("CARGO_BIN_EXE_fig9"),
        "fig11" => env!("CARGO_BIN_EXE_fig11"),
        "fig13" => env!("CARGO_BIN_EXE_fig13"),
        "fig14" => env!("CARGO_BIN_EXE_fig14"),
        other => panic!("no binary for `{other}`"),
    };
    let output = Command::new(exe)
        .env("NVMX_OUT", out)
        .output()
        .expect("spawn experiment binary");
    assert!(
        output.status.success(),
        "{id} exited with {}",
        output.status
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// Asserts that `experiment`, run in this process, reports and writes
/// exactly what its binary did in a fresh one.
pub fn assert_matches_fresh_process(experiment: &Experiment, dir: &Path) {
    let id = &experiment.id;
    let stdout = run_binary(id, &dir.join("fresh"));
    assert!(
        stdout.starts_with(&format!("{}\n", experiment.report())),
        "{id} report differs from a fresh process"
    );
    let written = experiment
        .write_artifacts(dir.join("here").join(id))
        .expect("write artifacts");
    assert!(!written.is_empty());
    for path in written {
        let name = path.file_name().expect("artifact name");
        let fresh = std::fs::read(dir.join("fresh").join(id).join(name)).expect("fresh artifact");
        let here = std::fs::read(&path).expect("artifact");
        assert!(fresh == here, "{id}: {} differs", name.to_string_lossy());
    }
}
