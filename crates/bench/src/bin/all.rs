//! Runs every experiment in paper order, printing each report and writing
//! all artifacts, then a final `total deviating findings: N` line.
//!
//! The experiments run one after another in this one process, so the
//! inputs they share are computed once (`nvmx_bench::experiments::shared`)
//! while each experiment spreads its own independent kernels over the
//! cores. Before the first experiment, `shared::warm_inputs` builds the
//! three shared inputs (the social graphs' BFS counts, the fault studies'
//! classifier and the SPEC LLC suite, one job per profile) side by side
//! on the lanes, so no experiment waits on a serial build of an input.
//! The output is byte-identical to running each `fig*`/`table*` binary on
//! its own.
//!
//! Deviations are reported, not fatal: the exit code is 0 whatever `N` is,
//! so callers that time or diff the run are not cut short. Gate on the
//! printed `[DEV]` claims and the final line instead.

fn main() {
    nvmx_bench::experiments::shared::warm_inputs();
    let mut deviations = 0;
    for id in nvmx_bench::EXPERIMENT_IDS {
        let experiment = nvmx_bench::run_experiment(id, false).expect("known id");
        println!("{}", experiment.report());
        experiment
            .write_artifacts(nvmx_bench::output_dir().join(id))
            .expect("write artifacts");
        deviations += experiment.findings.iter().filter(|f| !f.holds).count();
    }
    println!("total deviating findings: {deviations}");
}
