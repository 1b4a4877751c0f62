//! The experiments memoize their shared inputs (the SPEC LLC suite, the
//! social graphs' BFS counts) once per process. Whichever experiment
//! fills a memo must not show in any artifact: `fig14`, `fig11` and
//! `fig9` give the same CSVs and summary in one process, after another
//! experiment filled their memos, as their binaries do in fresh processes
//! with cold memos.

mod fresh_process;

use fresh_process::{assert_matches_fresh_process, scratch_dir};
use nvmx_bench::run_experiment;

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
