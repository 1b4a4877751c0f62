//! Warm-start campaign: queue two studies that sweep the same array design
//! points under different traffic, sharing one subarray cache *and* one
//! incumbent store. Study 1 runs cold and records each design point's
//! winning incumbents; study 2's branch-and-bound scans start from those
//! winners, so its bounds prune nearly every candidate immediately.
//! Results are byte-identical either way — only the prune rate moves.
//!
//! Run with: `cargo run -p nvmexplorer --release --example warm_campaign`

use nvmexplorer_core::config::{ArraySettings, StudyConfig, TrafficSpec};
use nvmexplorer_core::scheduler::StudyScheduler;
use nvmexplorer_core::stream::NullSink;
use nvmx_nvsim::{IncumbentStore, OptimizationTarget, SubarrayCache};
use nvmx_units::BitsPerCell;

/// Two phases of one exploration campaign: identical design points (cells,
/// capacities, depths, targets), different traffic envelopes. Incumbent
/// seeds key on the design point — traffic never enters the DSE — so the
/// second study is fully warm.
fn phase(name: &str, read_max: f64, write_max: f64) -> StudyConfig {
    StudyConfig {
        name: name.into(),
        cells: Default::default(),
        array: ArraySettings {
            capacities_mib: vec![1, 2, 4],
            bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
            targets: OptimizationTarget::ALL.to_vec(),
            ..ArraySettings::default()
        },
        traffic: TrafficSpec::GenericSweep {
            read_min: 1.0e8,
            read_max,
            read_steps: 4,
            write_min: 1.0e6,
            write_max,
            write_steps: 4,
            access_bytes: 64,
        },
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let queue = vec![
        phase("phase1_read_heavy", 20.0e9, 50.0e6),
        phase("phase2_write_heavy", 5.0e9, 500.0e6),
    ];

    // One lane: studies run in queue order, so phase 2 is deterministically
    // warm. (More lanes still give identical results; only the measured
    // warm/cold split would depend on interleaving.)
    let cache = SubarrayCache::new();
    let seeds = IncumbentStore::new();
    let report = StudyScheduler::new()
        .lanes(1)
        .run_queue(&queue, &cache, Some(&seeds), |_, _| Box::new(NullSink));

    println!("warm-start campaign over {} studies:\n", queue.len());
    let mut cold_rate = None;
    for outcome in &report.outcomes {
        let result = match &outcome.result {
            Ok(result) => result,
            Err(e) => {
                eprintln!("{}: failed ({e})", outcome.name);
                continue;
            }
        };
        // `outcome.cache` is this study's slice of the shared cache
        // counters (`CacheStats::since` under the hood).
        let stats = &outcome.cache;
        println!(
            "  {:<20} {:>4} arrays, {:>4} evaluations | candidates {:>6}: \
             {:>5.1}% pruned, {:>5.1}% cache hits",
            outcome.name,
            result.arrays.len(),
            result.evaluations.len(),
            stats.candidates(),
            stats.prune_rate() * 100.0,
            stats.hit_rate() * 100.0,
        );
        match cold_rate {
            None => cold_rate = Some(stats.prune_rate()),
            Some(cold) => {
                println!(
                    "{:>45} warm-start delta: +{:.1} points over the cold pass",
                    "",
                    (stats.prune_rate() - cold) * 100.0
                );
            }
        }
    }

    let seed_stats = seeds.stats();
    println!(
        "\nincumbent store: {} design-point seeds recorded, {} scans seeded",
        seed_stats.recorded, seed_stats.seeded_scans
    );
    Ok(())
}
