//! Runs every experiment in paper order, printing each report and writing
//! all artifacts, then a final `total deviating findings: N` line.
//!
//! Deviations are reported, not fatal: the exit code is 0 whatever `N` is,
//! so callers that time or diff the run are not cut short. Gate on the
//! printed `[DEV]` claims and the final line instead.

fn main() {
    let fast = nvmx_bench::fast_mode();
    let mut deviations = 0;
    for id in nvmx_bench::EXPERIMENT_IDS {
        let experiment = nvmx_bench::run_experiment(id, fast).expect("known id");
        println!("{}", experiment.report());
        experiment
            .write_artifacts(nvmx_bench::output_dir().join(id))
            .expect("write artifacts");
        deviations += experiment.findings.iter().filter(|f| !f.holds).count();
    }
    println!("total deviating findings: {deviations}");
}
