//! Host provenance recorded with every result, and the thread budget of
//! each path, so oversubscription is flagged rather than hidden.

use nvmexplorer_core::stream::StudyExecutor;
use serde::Value;
use std::path::Path;
use std::process::Command;

/// Usable CPUs (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unavailable".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// Compute threads each path runs with, and whether that exceeds `nproc`.
pub fn path_settings() -> Value {
    let cpus = nproc();
    let path = |name: &str, flags: &str, threads: usize| {
        (
            name.to_owned(),
            Value::Object(vec![
                ("flags".to_owned(), Value::Str(flags.to_owned())),
                ("compute_threads".to_owned(), Value::Uint(threads as u64)),
                ("oversubscribed".to_owned(), Value::Bool(threads > cpus)),
            ]),
        )
    };
    // The thread count `run` gets: whatever the default executor picks.
    let local = StudyExecutor::new().threads();
    Value::Object(vec![
        path("run", "default StudyExecutor", local),
        path("run_jsonl", "default StudyExecutor", local),
        path("store", "default StudyExecutor", local),
        path("served", "nvmx-serve --workers 2 --lanes 1", 2),
        path(
            "leased",
            "nvmx-coordinator --transport pipe --workers 2 --threads 1",
            2,
        ),
        path("replay", "single-threaded decode", 1),
        path("all", "experiments in sequence", local),
        path("traced", "in-process, default StudyExecutor", local),
    ])
}

/// `nproc`, CPU model, kernel, `rustc -V`, git commit and build profile.
pub fn provenance(root: &Path) -> Value {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unavailable".to_owned(), |s| s.trim().to_owned());
    // The ceiling stops git from reporting an enclosing repository's
    // commit when the checkout itself is not one.
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]).current_dir(root);
    if let Some(parent) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let commit = first_line(&mut git);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Object(vec![
        ("nproc".to_owned(), Value::Uint(nproc() as u64)),
        ("cpu_model".to_owned(), Value::Str(cpu_model())),
        ("kernel".to_owned(), Value::Str(kernel)),
        (
            "rustc".to_owned(),
            Value::Str(first_line(Command::new("rustc").arg("-V"))),
        ),
        ("git_commit".to_owned(), Value::Str(commit)),
        ("build_profile".to_owned(), Value::Str(profile.to_owned())),
        ("paths".to_owned(), path_settings()),
    ])
}
