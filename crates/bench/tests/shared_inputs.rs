//! The experiments memoize their shared inputs (the SPEC LLC suite, the
//! social graphs' BFS counts) once per process. Whichever experiment
//! fills a memo must not show in any artifact: `fig9` and `fig14` give
//! the same CSVs and summary in one process, whichever runs first, as
//! their binaries do in fresh processes with cold memos.

use nvmx_bench::{run_experiment, Experiment};
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvmx-shared-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the `id` binary in a fresh process with artifacts under `out` and
/// returns its stdout.
fn run_binary(id: &str, fast: bool, out: &Path) -> String {
    let exe = match id {
        "fig9" => env!("CARGO_BIN_EXE_fig9"),
        "fig14" => env!("CARGO_BIN_EXE_fig14"),
        other => panic!("no binary for `{other}`"),
    };
    let mut cmd = Command::new(exe);
    cmd.env("NVMX_OUT", out).env_remove("NVMX_FAST");
    if fast {
        cmd.env("NVMX_FAST", "1");
    }
    let output = cmd.output().expect("spawn experiment binary");
    assert!(
        output.status.success(),
        "{id} exited with {}",
        output.status
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// Asserts that `experiment`, run in this process, reports and writes
/// exactly what its binary did in a fresh one.
fn assert_matches_fresh_process(experiment: &Experiment, fast: bool, dir: &Path) {
    let id = &experiment.id;
    let stdout = run_binary(id, fast, &dir.join("fresh"));
    assert!(
        stdout.starts_with(&format!("{}\n", experiment.report())),
        "{id} (fast: {fast}) report differs from a fresh process"
    );
    let written = experiment
        .write_artifacts(dir.join("here").join(id))
        .expect("write artifacts");
    assert!(!written.is_empty());
    for path in written {
        let name = path.file_name().expect("artifact name");
        let fresh = std::fs::read(dir.join("fresh").join(id).join(name)).expect("fresh artifact");
        let here = std::fs::read(&path).expect("artifact");
        assert!(
            fresh == here,
            "{id} (fast: {fast}): {} differs",
            name.to_string_lossy()
        );
    }
}

#[test]
fn fig9_and_fig14_do_not_depend_on_which_runs_first() {
    // Fast and full mode fill separate memos, so this one process sees
    // both orders: fig14 first in fast mode, fig9 first in full mode.
    for (fast, order) in [(true, ["fig14", "fig9"]), (false, ["fig9", "fig14"])] {
        let dir = scratch_dir(if fast { "fast" } else { "full" });
        for id in order {
            let experiment = run_experiment(id, fast).expect("known id");
            assert_matches_fresh_process(&experiment, fast, &dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
