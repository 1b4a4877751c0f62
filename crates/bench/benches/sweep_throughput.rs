//! Criterion bench: full study sweeps (cells × targets × traffic) and the
//! evaluation engine itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nvmexplorer_core::config::{ArraySettings, CellSelection, StudyConfig, TrafficSpec};
use nvmexplorer_core::eval::evaluate;
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmx_celldb::{tentpole, CellFlavor, TechnologyClass};
use nvmx_nvsim::{
    characterize, characterize_targets, ArrayConfig, OptimizationTarget, SubarrayCache,
};
use nvmx_units::Capacity;
use nvmx_workloads::TrafficPattern;

fn study() -> StudyConfig {
    StudyConfig {
        name: "bench".into(),
        cells: CellSelection::default(),
        array: ArraySettings::default(),
        traffic: TrafficSpec::GenericSweep {
            read_min: 1.0e9,
            read_max: 10.0e9,
            read_steps: 4,
            write_min: 1.0e6,
            write_max: 100.0e6,
            write_steps: 4,
            access_bytes: 8,
        },
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

/// The 3-target default study (`three_target_study` in the
/// `nvmexplorer_core` `engine_gates` test).
fn multi_target_study() -> StudyConfig {
    let mut config = study();
    config.array.targets = vec![
        OptimizationTarget::ReadEdp,
        OptimizationTarget::WriteEdp,
        OptimizationTarget::Area,
    ];
    config
}

fn bench_study(c: &mut Criterion) {
    let mut group = c.benchmark_group("study_sweep");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            StudyExecutor::with_threads(1)
                .run(&study(), &mut NullSink)
                .unwrap()
        });
    });
    group.bench_function("threads_8", |b| {
        b.iter(|| {
            StudyExecutor::with_threads(8)
                .run(&study(), &mut NullSink)
                .unwrap()
        });
    });
    group.finish();
}

fn bench_multi_target(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_target");
    group.sample_size(10);
    for threads in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("shared_dse", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    StudyExecutor::with_threads(threads)
                        .run(&multi_target_study(), &mut NullSink)
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

/// The nvsim-level amortization in isolation: one shared pass over all 8
/// targets versus 8 standalone searches.
fn bench_characterize_targets(c: &mut Criterion) {
    let cell = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
    let config = ArrayConfig::new(Capacity::from_mebibytes(2));
    let mut group = c.benchmark_group("characterize_targets");
    group.bench_function("shared_pass", |b| {
        b.iter(|| {
            characterize_targets(
                &cell,
                &config,
                &OptimizationTarget::ALL,
                &SubarrayCache::new(),
                None,
            )
            .unwrap()
        });
    });
    group.bench_function("per_target", |b| {
        b.iter(|| {
            OptimizationTarget::ALL
                .into_iter()
                .map(|t| characterize(&cell, &config, t).unwrap())
                .collect::<Vec<_>>()
        });
    });
    group.finish();
}

fn bench_evaluate(c: &mut Criterion) {
    let cell = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
    let array = characterize(
        &cell,
        &ArrayConfig::new(Capacity::from_mebibytes(2)),
        OptimizationTarget::ReadEdp,
    )
    .unwrap();
    let traffic = TrafficPattern::new("t", 2.0e9, 20.0e6, 64);
    c.bench_function("evaluate_single_pair", |b| {
        b.iter(|| evaluate(&array, &traffic));
    });
}

criterion_group!(
    benches,
    bench_study,
    bench_multi_target,
    bench_characterize_targets,
    bench_evaluate
);
criterion_main!(benches);
