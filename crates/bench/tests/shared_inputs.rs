//! The experiments memoize their shared inputs (the SPEC LLC suite, the
//! social graphs' BFS counts) once per process. Whichever experiment
//! fills a memo must not show in any artifact: `fig14`, `fig11` and
//! `fig9` give the same CSVs and summary in one process, after another
//! experiment filled their memos, as their binaries do in fresh processes
//! with cold memos.

use nvmx_bench::{run_experiment, Experiment};
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvmx-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the `id` binary in a fresh process with artifacts under `out` and
/// returns its stdout.
fn run_binary(id: &str, out: &Path) -> String {
    let exe = match id {
        "fig9" => env!("CARGO_BIN_EXE_fig9"),
        "fig11" => env!("CARGO_BIN_EXE_fig11"),
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
fn assert_matches_fresh_process(experiment: &Experiment, dir: &Path) {
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

#[test]
fn shared_inputs_do_not_depend_on_which_experiment_fills_them() {
    // The reverse of `all`'s order: fig14 fills both memos, so fig11 reads
    // warm BFS counts and fig9 a warm SPEC suite. `all`'s own order is
    // covered by diffing its tree against the standalone binaries'.
    let dir = scratch_dir();
    for id in ["fig14", "fig11", "fig9"] {
        let experiment = run_experiment(id, false).expect("known id");
        assert_matches_fresh_process(&experiment, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
