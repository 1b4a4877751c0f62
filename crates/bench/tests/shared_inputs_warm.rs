//! `all` fills every shared-input memo up front with
//! `experiments::shared::warm_inputs`, building the SPEC LLC suite, the
//! social graphs' BFS counts and the fault studies' classifier side by side
//! on the lanes. The experiments that read those memos (fig6 and fig13 the
//! classifier, fig9 and fig14 the SPEC suite, fig11 and fig14 the BFS
//! counts) must then report and write exactly what their binaries do in
//! fresh processes, where each memo fills lazily on first use. The memos
//! are per process, so this case has its own test binary.

mod fresh_process;

use fresh_process::{assert_matches_fresh_process, scratch_dir};
use nvmx_bench::experiments::shared::warm_inputs;
use nvmx_bench::run_experiment;

#[test]
fn warmed_inputs_match_lazily_filled_ones() {
    let dir = scratch_dir();
    warm_inputs();
    for id in ["fig6", "fig9", "fig11", "fig13", "fig14"] {
        let experiment = run_experiment(id, false).expect("known id");
        assert_matches_fresh_process(&experiment, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
