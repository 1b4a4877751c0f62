//! Fault & reliability campaigns on the streaming engine: a study config
//! with a `fault` section runs the base sweep as usual, then sweeps every
//! expanded fault model — per-technology BERs at each requested
//! temperature and programming depth, plus raw-BER points — through
//! seeded injection trials against the shared int8 classifier, streaming
//! typed events (`fault_trial_produced`, `accuracy_degraded`,
//! `fault_study_finished`) to the same sinks as any other study.
//!
//! Run with: `cargo run -p nvmexplorer --release --example fault_campaign`
//!
//! The JSONL event stream lands under `NVMX_OUT` (default `output/`) as
//! `fault_campaign_events.jsonl`; the terminal shows the per-model
//! accuracy verdict table.
//!
//! Determinism is the point: each trial's RNG seed is
//! `injection_seed(campaign_seed, slot)` with
//! `slot = model_index × trials + trial`, so the trial set is a pure
//! function of the config — identical at any thread count, shard layout,
//! or worker respawn schedule (the distributed runner carries the seed on
//! the wire). This example proves the thread-count half of that claim
//! directly.

use nvmexplorer_core::config::{FaultSpec, FaultStudyConfig, OutputSpec, StudyConfig, TrafficSpec};
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmx_units::BitsPerCell;
use nvmx_viz::sink::from_spec;
use nvmx_workloads::TrafficPattern;

fn campaign() -> FaultStudyConfig {
    let out = std::env::var("NVMX_OUT").unwrap_or_else(|_| "output".into());
    FaultStudyConfig {
        study: StudyConfig {
            name: "fault_campaign".into(),
            cells: Default::default(),
            array: Default::default(),
            traffic: TrafficSpec::Explicit {
                patterns: vec![TrafficPattern::new(
                    "1 GB/s reads + 10 MB/s writes",
                    1.0e9,
                    1.0e7,
                    64,
                )],
            },
            constraints: Default::default(),
            output: OutputSpec {
                csv: None,
                jsonl: Some(format!("{out}/fault_campaign_events.jsonl")),
                summary: true,
            },
            store: Default::default(),
        },
        fault: FaultSpec {
            trials: 3,
            seed: 2022,
            bits_per_cell: vec![BitsPerCell::Slc],
            temperatures_c: vec![25.0, 85.0],
            raw_bers: vec![1.0e-3],
            tolerance: 0.05,
        },
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let campaign = campaign();
    let mut sinks = from_spec(&campaign.study.output)?;
    let result = StudyExecutor::new().run_fault(&campaign, &mut sinks)?;

    println!(
        "base study: {} arrays, {} evaluations; fault phase: {} models, {} trials, {} degraded",
        result.study.arrays.len(),
        result.study.evaluations.len(),
        result.fault.stats.models,
        result.fault.stats.trials,
        result.fault.stats.degraded,
    );

    // The worst degradation in the campaign, with the seed that reproduces
    // its worst trial in isolation.
    if let Some(worst) = result
        .fault
        .reports
        .iter()
        .max_by(|a, b| a.report.degradation().total_cmp(&b.report.degradation()))
    {
        let trial = result
            .fault
            .trials
            .iter()
            .filter(|t| t.model_index == worst.model_index)
            .min_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
            .expect("every model has trials");
        println!(
            "worst model: {} ({} at {:.0} C, BER {:.2e}) — mean accuracy {:.4} vs baseline {:.4}; worst trial flipped {} of {} bits (seed {})",
            worst.cell,
            worst.bits_per_cell,
            worst.temperature_c,
            worst.report.bit_error_rate,
            worst.report.mean,
            worst.report.baseline,
            trial.bits_flipped,
            trial.bits_total,
            trial.injection_seed,
        );
    }

    // Thread-count invariance: the same campaign on 1 thread produces the
    // identical trial set, verdicts, and stats — the property that lets
    // the distributed runner shard, kill, stall, respawn, and still replay
    // byte-identically.
    let single = StudyExecutor::with_threads(1).run_fault(&campaign, &mut NullSink)?;
    assert_eq!(result, single, "fault campaigns are deterministic");
    println!("re-run at 1 thread: identical trial-for-trial");
    Ok(())
}
