//! Streaming + scheduling: queue three studies, shard them over one warm
//! subarray cache, and stream every result incrementally to CSV and JSONL
//! while the sweeps run — the serving pattern for batched exploration
//! campaigns, where materializing whole studies in memory does not scale.
//!
//! Run with: `cargo run -p nvmexplorer --release --example streaming_study`
//!
//! Outputs land under `NVMX_OUT` (default `output/`):
//! `<study>_stream.csv` (one row per evaluation, written as evaluations
//! complete) and `<study>_events.jsonl` (the full deterministic event
//! stream).

use nvmexplorer_core::config::{ArraySettings, StudyConfig, TrafficSpec};
use nvmexplorer_core::scheduler::StudyScheduler;
use nvmexplorer_core::stream::{NullSink, ResultSink};
use nvmx_nvsim::{OptimizationTarget, SubarrayCache};
use nvmx_units::BitsPerCell;
use nvmx_viz::sink::from_spec;

/// One slice of a capacity-axis exploration campaign: same cells, same
/// traffic family, different buffer sizes — exactly the shape where a
/// shared cache pays off.
fn campaign_study(name: &str, capacities_mib: Vec<u64>) -> StudyConfig {
    let out = std::env::var("NVMX_OUT").unwrap_or_else(|_| "output".into());
    StudyConfig {
        name: name.into(),
        cells: Default::default(),
        array: ArraySettings {
            capacities_mib,
            bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
            targets: vec![OptimizationTarget::ReadEdp, OptimizationTarget::Area],
            ..ArraySettings::default()
        },
        traffic: TrafficSpec::GenericSweep {
            read_min: 1.0e9,
            read_max: 10.0e9,
            read_steps: 3,
            write_min: 1.0e6,
            write_max: 100.0e6,
            write_steps: 3,
            access_bytes: 8,
        },
        constraints: Default::default(),
        output: nvmexplorer_core::config::OutputSpec {
            csv: Some(format!("{out}/{name}_stream.csv")),
            jsonl: Some(format!("{out}/{name}_events.jsonl")),
            summary: false,
        },
        store: Default::default(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let queue = vec![
        campaign_study("campaign_small", vec![1, 2]),
        campaign_study("campaign_medium", vec![2, 4]),
        campaign_study("campaign_large", vec![4, 8]),
    ];

    // One warm cache serves the whole queue: subarray physics depends on
    // (cell, node, geometry, depth) — never on capacity — so later studies
    // mostly reuse what earlier ones characterized.
    let cache = SubarrayCache::new();
    let report = StudyScheduler::new().lanes(2).run_queue(
        &queue,
        &cache,
        None,
        |_, study| -> Box<dyn ResultSink> {
            match from_spec(&study.output) {
                Ok(sinks) => Box::new(sinks),
                Err(e) => {
                    eprintln!(
                        "{}: cannot open output sinks ({e}); running silent",
                        study.name
                    );
                    Box::new(NullSink)
                }
            }
        },
    );

    for outcome in &report.outcomes {
        match &outcome.result {
            Ok(result) => println!(
                "{}: {} arrays, {} evaluations streamed (cache hit rate while running: {:.1}%)",
                outcome.name,
                result.arrays.len(),
                result.evaluations.len(),
                outcome.cache_hit_rate() * 100.0
            ),
            Err(e) => eprintln!("{}: failed: {e}", outcome.name),
        }
    }
    println!(
        "queue done: {} studies, cross-study cache totals: {} lookups, {:.1}% hits",
        report.outcomes.len(),
        report.cache.lookups(),
        report.cache.hit_rate() * 100.0
    );
    assert!(report.all_succeeded());
    Ok(())
}
