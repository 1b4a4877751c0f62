//! Criterion bench: the event codec on its own — `WireSink` and
//! `JsonlSink` encoding the `large_campaign` study's events (the engine
//! is not timed: the events come from a finished result), and strict
//! `wire::replay` of its capture.

use criterion::{criterion_group, criterion_main, Criterion};
use nvmexplorer_core::config::{ArraySettings, CellSelection, StudyConfig, TrafficSpec};
use nvmexplorer_core::stream::{ResultSink, StudyEvent, StudyExecutor};
use nvmexplorer_core::sweep::StudyResult;
use nvmexplorer_core::wire::{self, WireSink};
use nvmx_nvsim::OptimizationTarget;
use nvmx_units::BitsPerCell;
use nvmx_viz::sink::JsonlSink;
use std::sync::OnceLock;

/// The `large_campaign` study of `bench_sweep`: six capacities, both
/// programming depths, three targets, an 8×8 traffic grid — 31k
/// evaluations.
fn large_campaign_study() -> StudyConfig {
    StudyConfig {
        name: "bench-large-campaign".into(),
        cells: CellSelection::default(),
        array: ArraySettings {
            capacities_mib: vec![1, 2, 4, 8, 16, 32],
            bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
            targets: vec![
                OptimizationTarget::ReadEdp,
                OptimizationTarget::WriteEdp,
                OptimizationTarget::Area,
            ],
            ..ArraySettings::default()
        },
        traffic: TrafficSpec::GenericSweep {
            read_min: 1.0e8,
            read_max: 20.0e9,
            read_steps: 8,
            write_min: 1.0e5,
            write_max: 1.0e9,
            write_steps: 8,
            access_bytes: 8,
        },
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

/// The study's result and its wire capture, computed on first use (so
/// test mode, which skips every measurement, never runs the study).
fn fixture() -> &'static (StudyResult, Vec<u8>) {
    static FIXTURE: OnceLock<(StudyResult, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut sink = WireSink::new(Vec::new());
        let result = StudyExecutor::with_threads(1)
            .run(&large_campaign_study(), &mut sink)
            .expect("study runs");
        (result, sink.into_inner())
    })
}

/// Feeds a result's per-slot events — arrays in order, then evaluations
/// in order, each sharing its records' `Arc`s like the engine's — into
/// `sink`.
fn encode(result: &StudyResult, sink: &mut dyn ResultSink) {
    sink.on_event(&StudyEvent::StudyStarted {
        name: &result.name,
        cells: 0,
        jobs: 0,
        targets: 0,
        traffic: 0,
    })
    .expect("in-memory sinks do not fail");
    for (index, array) in result.arrays.iter().enumerate() {
        sink.on_event(&StudyEvent::ArrayCharacterized { index, array })
            .expect("in-memory sinks do not fail");
    }
    for (index, evaluation) in result.evaluations.iter().enumerate() {
        sink.on_event(&StudyEvent::EvaluationProduced { index, evaluation })
            .expect("in-memory sinks do not fail");
    }
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec_encode");
    group.sample_size(10);
    group.bench_function("wire_sink", |b| {
        let (result, capture) = fixture();
        b.iter(|| {
            let mut sink = WireSink::new(Vec::with_capacity(capture.len()));
            encode(result, &mut sink);
            sink.into_inner().len()
        });
    });
    group.bench_function("jsonl_sink", |b| {
        let (result, capture) = fixture();
        b.iter(|| {
            let mut sink = JsonlSink::new(Vec::with_capacity(capture.len()));
            encode(result, &mut sink);
            sink.into_inner().len()
        });
    });
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec_decode");
    group.sample_size(10);
    group.bench_function("strict_replay", |b| {
        let (_, capture) = fixture();
        b.iter(|| wire::replay(&capture[..]).expect("capture replays").frames);
    });
    group.finish();
}

criterion_group!(benches, bench_encode, bench_replay);
criterion_main!(benches);
