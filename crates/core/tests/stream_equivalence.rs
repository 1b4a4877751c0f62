//! The streaming refactor's proof obligations: for any study config, the
//! [`StudyResult`] assembled from the event stream is byte-identical to the
//! batch engine's return value, and the event stream itself is
//! deterministic across thread counts.

use nvmexplorer_core::config::{
    ArraySettings, CellSelection, Constraints, StudyConfig, TrafficSpec,
};
use nvmexplorer_core::stream::{
    NullSink, ResultSink, StudyEvent, StudyExecutor, StudyResultBuilder,
};
use nvmexplorer_core::sweep::StudyResult;
use nvmx_celldb::TechnologyClass;
use nvmx_nvsim::{OptimizationTarget, SubarrayCache};
use nvmx_units::BitsPerCell;
use nvmx_workloads::TrafficPattern;
use proptest::prelude::*;

/// Records the serialized form of every event, so streams can be compared
/// line-by-line across runs.
#[derive(Default)]
struct Tape {
    lines: Vec<String>,
}

impl ResultSink for Tape {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        self.lines
            .push(serde_json::to_string(event).map_err(std::io::Error::other)?);
        Ok(())
    }
}

fn assert_identical(streamed: &StudyResult, batch: &StudyResult) {
    assert_eq!(streamed.name, batch.name);
    assert_eq!(
        streamed.arrays, batch.arrays,
        "arrays must be byte-identical"
    );
    assert_eq!(
        streamed.evaluations, batch.evaluations,
        "evaluations must be byte-identical"
    );
    assert_eq!(streamed.skipped, batch.skipped, "skipped must agree");
}

/// Event streams must agree everywhere except the final `study_finished`
/// line, whose cache hit/miss counters are observational (racing workers
/// missing the same cache slot may both count a miss).
fn assert_streams_agree(a: &Tape, b: &Tape) {
    assert_eq!(a.lines.len(), b.lines.len(), "event counts differ");
    let (last_a, head_a) = a.lines.split_last().expect("non-empty stream");
    let (last_b, head_b) = b.lines.split_last().expect("non-empty stream");
    for (x, y) in head_a.iter().zip(head_b) {
        assert_eq!(x, y, "event streams diverged");
    }
    assert!(last_a.contains("\"event\":\"study_finished\""));
    // Deterministic prefix of the finished line: everything before the
    // cache counters.
    let strip = |line: &str| line.split(",\"cache\":").next().unwrap().to_owned();
    assert_eq!(strip(last_a), strip(last_b), "finished stats diverged");
}

/// A study spanning skips (SRAM at MLC-2), multiple capacities, depths,
/// and targets.
fn stress_study() -> StudyConfig {
    StudyConfig {
        name: "stream-equivalence".into(),
        cells: CellSelection::default(),
        array: ArraySettings {
            capacities_mib: vec![4, 1],
            bits_per_cell: vec![BitsPerCell::Mlc2, BitsPerCell::Slc],
            targets: vec![
                OptimizationTarget::WriteEdp,
                OptimizationTarget::ReadEdp,
                OptimizationTarget::Leakage,
            ],
            ..ArraySettings::default()
        },
        traffic: TrafficSpec::GenericSweep {
            read_min: 1.0e8,
            read_max: 10.0e9,
            read_steps: 2,
            write_min: 1.0e6,
            write_max: 100.0e6,
            write_steps: 2,
            access_bytes: 64,
        },
        constraints: Constraints::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

#[test]
fn streamed_assembly_is_byte_identical_to_the_batch_engine() {
    let study = stress_study();
    let cache = SubarrayCache::new();
    let batch = StudyExecutor::with_threads(8)
        .cache(&cache)
        .run(&study, &mut NullSink)
        .unwrap();
    for threads in [1usize, 4, 16] {
        let mut builder = StudyResultBuilder::new();
        let returned = StudyExecutor::with_threads(threads)
            .run(&study, &mut builder)
            .unwrap();
        let assembled = builder.finish().expect("stream finished");
        assert_identical(&assembled, &batch);
        assert_identical(&returned, &batch);
    }
}

#[test]
fn event_stream_is_deterministic_from_1_to_16_threads() {
    let study = stress_study();
    let mut serial = Tape::default();
    StudyExecutor::with_threads(1)
        .run(&study, &mut serial)
        .unwrap();
    for threads in [2usize, 16] {
        let mut parallel = Tape::default();
        StudyExecutor::with_threads(threads)
            .run(&study, &mut parallel)
            .unwrap();
        assert_streams_agree(&serial, &parallel);
    }
}

#[test]
fn shared_executor_cache_stays_byte_identical_on_warm_runs() {
    let study = stress_study();
    let cache = SubarrayCache::new();
    let executor = StudyExecutor::with_threads(8).cache(&cache);
    let mut first_builder = StudyResultBuilder::new();
    let first = executor.run(&study, &mut first_builder).unwrap();
    let mut second_builder = StudyResultBuilder::new();
    let second = executor.run(&study, &mut second_builder).unwrap();
    assert_identical(&second, &first);
    assert_identical(
        &second_builder.finish().expect("finished"),
        &first_builder.finish().expect("finished"),
    );
    assert!(cache.stats().hits > 0, "warm run must reuse physics");
}

// ------------------------------------------------------------------ fuzzing

/// A randomized small study: technology subset, optional SRAM baseline,
/// 1–2 capacities, 1–2 depths, 1–2 targets, 1–2 traffic patterns.
fn arb_study() -> impl Strategy<Value = StudyConfig> {
    ((1u8..16, 0u8..2), (0u8..2, 0u8..2), 0u8..3, 1u64..3).prop_map(
        |((tech_mask, sram), (caps, depths), targets, patterns)| {
            let pool = [
                TechnologyClass::Stt,
                TechnologyClass::Rram,
                TechnologyClass::Pcm,
                TechnologyClass::FeFet,
            ];
            let technologies: Vec<TechnologyClass> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| tech_mask & (1 << i) != 0)
                .map(|(_, t)| *t)
                .collect();
            StudyConfig {
                name: format!("fuzz-{tech_mask}-{caps}-{depths}-{targets}-{patterns}"),
                cells: CellSelection {
                    technologies: Some(technologies),
                    reference_rram: false,
                    sram_baseline: sram == 1,
                    ..CellSelection::default()
                },
                array: ArraySettings {
                    capacities_mib: if caps == 0 { vec![2] } else { vec![1, 2] },
                    bits_per_cell: if depths == 0 {
                        vec![BitsPerCell::Slc]
                    } else {
                        vec![BitsPerCell::Slc, BitsPerCell::Mlc2]
                    },
                    targets: match targets {
                        0 => vec![OptimizationTarget::ReadEdp],
                        1 => vec![OptimizationTarget::ReadEdp, OptimizationTarget::Area],
                        _ => vec![OptimizationTarget::WriteEnergy],
                    },
                    ..ArraySettings::default()
                },
                traffic: TrafficSpec::Explicit {
                    patterns: (0..patterns)
                        .map(|i| {
                            TrafficPattern::new(
                                format!("p{i}"),
                                1.0e9 * (i + 1) as f64,
                                1.0e7 * (i + 1) as f64,
                                64,
                            )
                        })
                        .collect(),
                },
                constraints: Constraints::default(),
                output: Default::default(),
                store: Default::default(),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For *any* config: the stream-assembled result (a drained run) equals
    /// a passive `NullSink` run (the engine's join-only path), and the
    /// stream is thread-count invariant.
    #[test]
    fn any_config_streams_byte_identically(study in arb_study()) {
        let cache = SubarrayCache::new();
        let batch = StudyExecutor::with_threads(4)
            .cache(&cache)
            .run(&study, &mut NullSink)
            .unwrap();

        let mut builder = StudyResultBuilder::new();
        let mut serial = Tape::default();
        {
            let mut fan = nvmexplorer_core::stream::MultiSink::new()
                .with(&mut builder)
                .with(&mut serial);
            StudyExecutor::with_threads(1).run(&study, &mut fan).unwrap();
        }
        let assembled = builder.finish().expect("stream finished");
        assert_identical(&assembled, &batch);

        let mut parallel = Tape::default();
        StudyExecutor::with_threads(16).run(&study, &mut parallel).unwrap();
        assert_streams_agree(&serial, &parallel);
    }
}
