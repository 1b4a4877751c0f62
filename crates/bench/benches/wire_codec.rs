//! Criterion bench: the event codec on its own — `WireSink` and
//! `JsonlSink` encoding the `large_campaign` study's events (the engine
//! is not timed: the events come from a finished result), and strict
//! `wire::replay` of its capture, with its two layers apart: framing the
//! capture into lines through a `BufReader` (`frame_lines`) and decoding
//! the lines through one `FrameDecoder` (`frame_decoder`) — next to the
//! results-CSV layer over the same result: `results_csv(..).render()` and
//! `CsvSink`. The `json_f64` group times the JSON float printer on the
//! evaluations' tail floats against its reference, std's `Display` plus
//! the `.0` rule. The `reshard` group times the lease supervisor the
//! coordinator's merge loop ticks once per arriving frame.

use criterion::{criterion_group, criterion_main, Criterion};
use nvmexplorer_core::config::{ArraySettings, CellSelection, StudyConfig, TrafficSpec};
use nvmexplorer_core::reshard::{Action, ReshardConfig, Resharder};
use nvmexplorer_core::stream::{ResultSink, StudyEvent, StudyExecutor};
use nvmexplorer_core::sweep::StudyResult;
use nvmexplorer_core::transport::read_frame_line;
use nvmexplorer_core::wire::{self, FrameDecoder, SlotMerger, WireSink};
use nvmx_bench::campaign::results_csv;
use nvmx_nvsim::OptimizationTarget;
use nvmx_units::BitsPerCell;
use nvmx_viz::sink::{CsvSink, JsonlSink};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::io::BufReader;
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
    group.bench_function("frame_lines", |b| {
        let (_, capture) = fixture();
        let mut line = String::new();
        b.iter(|| {
            let mut reader = BufReader::new(&capture[..]);
            let mut lines = 0u64;
            while read_frame_line(&mut reader, &mut line).expect("capture frames") {
                lines += 1;
            }
            lines
        });
    });
    group.bench_function("frame_decoder", |b| {
        let (_, capture) = fixture();
        let text = std::str::from_utf8(capture).expect("captures are UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        b.iter(|| {
            let mut decoder = FrameDecoder::new();
            for line in &lines {
                decoder.frame(line).expect("capture lines decode");
            }
            lines.len()
        });
    });
    group.finish();
}

fn bench_results_csv(c: &mut Criterion) {
    let mut group = c.benchmark_group("results_csv");
    group.sample_size(10);
    group.bench_function("results_csv_render", |b| {
        let (result, _) = fixture();
        let study = large_campaign_study();
        b.iter(|| results_csv(&study, result).render().len());
    });
    group.bench_function("csv_sink", |b| {
        let (result, _) = fixture();
        b.iter(|| {
            let mut sink = CsvSink::new(Vec::new());
            encode(result, &mut sink);
            sink.into_inner().len()
        });
    });
    group.finish();
}

/// Slots in a `campaign_large` capture.
const CAMPAIGN_SLOTS: u64 = 31_613;

/// Drives `total` slots through two equally fast simulated workers under
/// the default [`ReshardConfig`] (pull-only 512-slot leases): they
/// alternate frames, 100 frames per simulated millisecond (a leased
/// `campaign_large` run's rate), report each drained lease, and the
/// supervisor ticks once per frame. Returns the number of leases granted.
fn supervise(total: u64) -> u64 {
    const NAMES: [&str; 2] = ["w0", "w1"];
    let mut resharder = Resharder::new(ReshardConfig::default());
    let mut merger = SlotMerger::new();
    // Each worker's granted leases, FIFO: (id, next slot, end).
    let mut leases: [VecDeque<(u64, u64, u64)>; 2] = Default::default();
    let mut granted = 0u64;
    let mut apply = |actions: Vec<Action>, leases: &mut [VecDeque<(u64, u64, u64)>; 2]| {
        for action in actions {
            match action {
                Action::Grant {
                    worker,
                    lease,
                    start,
                    end,
                } => {
                    granted += 1;
                    leases[usize::from(worker == NAMES[1])].push_back((lease, start, end));
                }
                Action::Revoke { worker, lease } => {
                    leases[usize::from(worker == NAMES[1])].retain(|l| l.0 != lease);
                }
                _ => {}
            }
        }
    };
    for name in NAMES {
        resharder.worker_connected(name, 0);
        resharder.worker_done(name, total, 0);
    }
    apply(resharder.tick(0), &mut leases);
    let mut frames = 0u64;
    while merger.next_expected() < total {
        for (w, name) in NAMES.into_iter().enumerate() {
            let Some((id, slot, end)) = leases[w].front_mut() else {
                continue;
            };
            let (id, seq) = (*id, *slot);
            *slot += 1;
            let drained = *slot >= *end;
            let now = frames / 100;
            frames += 1;
            resharder.frame_arrived(name, now);
            merger
                .offer(seq, (), &mut |_, ()| Ok::<(), Infallible>(()))
                .expect("infallible");
            resharder.delivered(merger.next_expected());
            if drained {
                leases[w].pop_front();
                resharder.lease_drained(name, id, now);
            }
            apply(resharder.tick(now), &mut leases);
        }
    }
    granted
}

fn bench_reshard(c: &mut Criterion) {
    let mut group = c.benchmark_group("reshard");
    group.sample_size(10);
    group.bench_function("tick_per_frame_2_workers", |b| {
        b.iter(|| supervise(CAMPAIGN_SLOTS));
    });
    group.finish();
}

/// The eight tail floats every `evaluation_produced` line prints, over
/// the whole study (an absent lifetime prints `null`, not a float).
fn tail_floats(result: &StudyResult) -> Vec<f64> {
    let mut floats = Vec::with_capacity(result.evaluations.len() * 8);
    for evaluation in &result.evaluations {
        floats.extend([
            evaluation.array_reads_per_sec,
            evaluation.array_writes_per_sec,
            evaluation.read_power.value(),
            evaluation.write_power.value(),
            evaluation.leakage_power.value(),
            evaluation.utilization,
            evaluation.aggregate_latency.value(),
        ]);
        floats.extend(evaluation.lifetime.map(|lifetime| lifetime.value()));
    }
    floats
}

fn bench_json_f64(c: &mut Criterion) {
    let mut group = c.benchmark_group("json_f64");
    group.sample_size(10);
    group.bench_function("write_f64", |b| {
        let floats = tail_floats(&fixture().0);
        let mut out = String::new();
        b.iter(|| {
            out.clear();
            for &f in &floats {
                serde::json::write_f64(&mut out, f);
            }
            out.len()
        });
    });
    group.bench_function("std_display", |b| {
        let floats = tail_floats(&fixture().0);
        let mut out = String::new();
        b.iter(|| {
            out.clear();
            for &f in &floats {
                let start = out.len();
                write!(out, "{f}").expect("writing to a String cannot fail");
                if !out[start..].contains('.') {
                    out.push_str(".0");
                }
            }
            out.len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_json_f64,
    bench_replay,
    bench_results_csv,
    bench_reshard
);
criterion_main!(benches);
