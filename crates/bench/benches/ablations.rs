//! Ablation benches for the design choices DESIGN.md calls out:
//! organization-DSE granularity, tentpole vs. full-survey sweeps, and the
//! analytic long-pole model vs. per-access accumulation.

use criterion::{criterion_group, criterion_main, Criterion};
use nvmexplorer_core::eval::evaluate;
use nvmx_celldb::{survey, tentpole, CellFlavor, TechnologyClass};
use nvmx_nvsim::{characterize, dse, ArrayConfig, OptimizationTarget};
use nvmx_units::Capacity;
use nvmx_workloads::TrafficPattern;

/// Ablation 1: exhaustive organization enumeration vs. the pruned search —
/// how much of the DSE cost is candidate evaluation.
fn ablation_dse_granularity(c: &mut Criterion) {
    let cell = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
    let config = ArrayConfig::new(Capacity::from_mebibytes(4));
    let mut group = c.benchmark_group("ablation_dse");
    group.bench_function("enumerate_only", |b| {
        b.iter(|| dse::enumerate_organizations(&config));
    });
    group.bench_function("full_optimize", |b| {
        b.iter(|| characterize(&cell, &config, OptimizationTarget::ReadEdp).unwrap());
    });
    group.finish();
}

/// Ablation 2: sweeping the 2-cell tentpoles per class vs. every surveyed
/// publication — the paper's methodology vs. brute force.
fn ablation_tentpole_vs_full_survey(c: &mut Criterion) {
    let config = ArrayConfig::new(Capacity::from_mebibytes(2));
    let mut group = c.benchmark_group("ablation_survey");
    group.sample_size(10);
    group.bench_function("tentpoles_only", |b| {
        let cells = tentpole::study_cells();
        b.iter(|| {
            cells
                .iter()
                .filter_map(|cell| characterize(cell, &config, OptimizationTarget::ReadEdp).ok())
                .count()
        });
    });
    group.bench_function("every_surveyed_entry", |b| {
        // One synthesized cell per surveyed publication (tentpole summary of
        // a single entry).
        let cells: Vec<_> = survey::database()
            .iter()
            .filter_map(|entry| {
                let singleton = [entry];
                tentpole::summarize(&singleton[..], entry.technology, &CellFlavor::Optimistic)
                    .map(|s| tentpole::physicalize(&s, CellFlavor::Optimistic))
            })
            .collect();
        b.iter(|| {
            cells
                .iter()
                .filter_map(|cell| characterize(cell, &config, OptimizationTarget::ReadEdp).ok())
                .count()
        });
    });
    group.finish();
}

/// Ablation 3: the analytic long-pole evaluation vs. naive per-access
/// accumulation over one second of simulated traffic.
fn ablation_longpole_vs_per_access(c: &mut Criterion) {
    let cell = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
    let array = characterize(
        &cell,
        &ArrayConfig::new(Capacity::from_mebibytes(2)),
        OptimizationTarget::ReadEdp,
    )
    .unwrap();
    let traffic = TrafficPattern::new("t", 1.0e9, 10.0e6, 64);
    let mut group = c.benchmark_group("ablation_eval");
    group.bench_function("analytic_longpole", |b| {
        b.iter(|| evaluate(&array, &traffic));
    });
    group.bench_function("per_access_accumulation_10k", |b| {
        // Simulate 10k individual accesses explicitly (what the analytic
        // model replaces; scaled down from the full second).
        let reads = 9_900usize;
        let writes = 100usize;
        b.iter(|| {
            let mut energy = 0.0;
            let mut busy = 0.0;
            for _ in 0..reads {
                energy += array.read_energy.value();
                busy += array.read_cycle.value();
            }
            for _ in 0..writes {
                energy += array.write_energy.value();
                busy += array.write_cycle.value();
            }
            (energy, busy)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_dse_granularity,
    ablation_tentpole_vs_full_survey,
    ablation_longpole_vs_per_access
);
criterion_main!(benches);
