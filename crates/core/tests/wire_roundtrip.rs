//! The wire protocol's proof obligations: for any study config, the
//! in-process run, a sharded run merged coordinator-style from N workers,
//! and a strict replay of the captured JSONL all yield **byte-identical**
//! [`StudyResult`]s — and the strict parser rejects every malformed stream
//! it claims to reject.

use nvmexplorer_core::config::{
    ArraySettings, CellSelection, Constraints, FaultSpec, FaultStudyConfig, StudyConfig,
    TrafficSpec,
};
use nvmexplorer_core::fault_study::FaultStudyResult;
use nvmexplorer_core::stream::{ResultSink, StudyEvent, StudyExecutor};
use nvmexplorer_core::sweep::{run_study_with_threads, StudyResult};
use nvmexplorer_core::wire::{
    replay, replay_into, EventReplayer, FrameDecoder, FrameError, OwnedStudyEvent, ResponseFrame,
    Served, Shard, SlotMerger, StreamReplayer, WireError, WireFrame, WireSink, WIRE_VERSION,
};
use nvmx_celldb::TechnologyClass;
use nvmx_nvsim::OptimizationTarget;
use nvmx_units::BitsPerCell;
use nvmx_workloads::TrafficPattern;
use proptest::prelude::*;

fn assert_identical(label: &str, a: &StudyResult, b: &StudyResult) {
    assert_eq!(a.name, b.name, "{label}: names differ");
    assert_eq!(a.arrays, b.arrays, "{label}: arrays differ");
    assert_eq!(a.evaluations, b.evaluations, "{label}: evaluations differ");
    assert_eq!(a.skipped, b.skipped, "{label}: skipped differ");
}

/// Runs the study at `threads`, capturing the full wire stream for `shard`.
fn capture_shard(study: &StudyConfig, shard: Shard, threads: usize) -> Vec<String> {
    let mut sink = WireSink::sharded(Vec::new(), shard);
    StudyExecutor::with_threads(threads)
        .run(study, &mut sink)
        .expect("study runs");
    String::from_utf8(sink.into_inner())
        .expect("wire lines are UTF-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// The deterministic event stream modulo the one observational field: the
/// cache counters on the final `study_finished` line (racing workers may
/// double-count a miss, and different runs have different caches).
fn strip_cache(line: &str) -> String {
    line.split(",\"cache\":").next().unwrap().to_owned()
}

/// Merges shard captures the way the coordinator does — out-of-order
/// offers buffered by [`SlotMerger`], duplicates dropped — returning the
/// merged capture and the rebuilt result. `rotation` picks which shard the
/// adversarial interleave drains first.
fn merge_shards(shards: &[Vec<String>], rotation: usize) -> (Vec<String>, StudyResult) {
    let mut queues: Vec<std::collections::VecDeque<WireFrame>> = shards
        .iter()
        .map(|lines| {
            lines
                .iter()
                .map(|line| WireFrame::parse(line).expect("worker lines parse"))
                .collect()
        })
        .collect();
    let mut merger = SlotMerger::new();
    let mut replayer = EventReplayer::new();
    let mut capture = Vec::new();
    let mut deliver = |_seq: u64, frame: WireFrame| {
        capture.push(frame.to_line());
        replayer.apply(&frame.event, &mut nvmexplorer_core::stream::NullSink)
    };
    // Round-robin starting from an arbitrary shard: early slots from the
    // other shards must buffer until the rotation comes around.
    let mut remaining = true;
    let mut duplicates = Vec::new();
    let count = queues.len();
    while remaining {
        remaining = false;
        for i in 0..count {
            let queue = &mut queues[(i + rotation) % count];
            if let Some(frame) = queue.pop_front() {
                remaining = remaining || !queue.is_empty();
                // A "respawned worker" replays old slots: re-offer every
                // fourth frame later and expect it to be deduplicated.
                if frame.seq % 4 == 0 {
                    duplicates.push(frame.clone());
                }
                merger.offer(frame.seq, frame, &mut deliver).unwrap();
            }
        }
    }
    for frame in duplicates {
        merger.offer(frame.seq, frame, &mut deliver).unwrap();
    }
    assert_eq!(merger.pending(), 0, "merge left buffered slots");
    assert!(merger.duplicates() > 0, "dedup path never exercised");
    (capture, replayer.finish().expect("merged stream finished"))
}

/// Records serialized events, so replayed sink traffic can be compared
/// against the original run's line-by-line.
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

fn small_study() -> StudyConfig {
    StudyConfig {
        name: "wire-unit".into(),
        cells: CellSelection {
            technologies: Some(vec![TechnologyClass::Stt]),
            reference_rram: false,
            sram_baseline: true, // infinite endurance exercises the 1e999 path
            ..CellSelection::default()
        },
        array: ArraySettings {
            capacities_mib: vec![2],
            targets: vec![OptimizationTarget::ReadEdp],
            ..ArraySettings::default()
        },
        traffic: TrafficSpec::Explicit {
            patterns: vec![TrafficPattern::new("t", 1.0e9, 1.0e7, 64)],
        },
        constraints: Constraints::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

fn capture_text(lines: &[String]) -> String {
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

// --------------------------------------------------------- deterministic

#[test]
fn every_wire_line_reencodes_byte_identically() {
    let lines = capture_shard(&small_study(), Shard::WHOLE, 2);
    assert!(lines.len() >= 4);
    for line in &lines {
        let frame = WireFrame::parse(line).expect("line parses");
        assert_eq!(&frame.to_line(), line, "parse -> encode must be identity");
    }
}

#[test]
fn sram_infinite_endurance_survives_the_wire() {
    let lines = capture_shard(&small_study(), Shard::WHOLE, 1);
    let text = capture_text(&lines);
    assert!(
        text.contains("\"endurance_cycles\":1e999"),
        "SRAM's unbounded endurance must be encoded losslessly"
    );
    let replayed = replay(std::io::Cursor::new(text)).unwrap();
    let sram = replayed
        .result
        .arrays
        .iter()
        .find(|a| a.cell_name.contains("SRAM"))
        .expect("SRAM array present");
    assert_eq!(sram.endurance_cycles, f64::INFINITY);
}

#[test]
fn replayed_sink_traffic_matches_the_original_run() {
    let study = small_study();
    let mut original = Tape::default();
    StudyExecutor::with_threads(1)
        .run(&study, &mut original)
        .unwrap();
    let lines = capture_shard(&study, Shard::WHOLE, 1);
    let mut replayed = Tape::default();
    let summary = replay_into(std::io::Cursor::new(capture_text(&lines)), &mut replayed).unwrap();
    assert_eq!(summary.study, study.name);
    assert_eq!(summary.frames as usize, original.lines.len());
    assert_eq!(replayed.lines.len(), original.lines.len());
    for (a, b) in replayed.lines.iter().zip(&original.lines) {
        // Full fidelity including the re-linked winner events; only the
        // observational cache counters on the final line may differ
        // between the two runs that produced the streams.
        assert_eq!(strip_cache(a), strip_cache(b));
    }
}

#[test]
fn strict_replay_rejects_malformed_streams() {
    let lines = capture_shard(&small_study(), Shard::WHOLE, 2);
    let parse = |text: String| replay(std::io::Cursor::new(text));

    // Corrupt line.
    let mut corrupt = lines.clone();
    corrupt[1] = corrupt[1].replace("\"event\"", "\"evnt\"");
    match parse(capture_text(&corrupt)) {
        Err(WireError::Corrupt { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Not JSON at all.
    let mut garbage = lines.clone();
    garbage[2] = "{not json".into();
    assert!(matches!(
        parse(capture_text(&garbage)),
        Err(WireError::Corrupt { line: 3, .. })
    ));

    // Unknown protocol version.
    let mut versioned = lines.clone();
    versioned[0] = versioned[0].replacen(&format!("{{\"v\":{WIRE_VERSION},"), "{\"v\":9,", 1);
    match parse(capture_text(&versioned)) {
        Err(WireError::Version { line, found }) => {
            assert_eq!((line, found), (1, 9));
        }
        other => panic!("expected Version, got {other:?}"),
    }

    // Duplicate slot.
    let mut duplicated = lines.clone();
    duplicated.insert(2, duplicated[1].clone());
    match parse(capture_text(&duplicated)) {
        Err(WireError::DuplicateSlot { line, seq }) => assert_eq!((line, seq), (3, 1)),
        other => panic!("expected DuplicateSlot, got {other:?}"),
    }

    // Out-of-order slot (a gap).
    let mut gapped = lines.clone();
    gapped.remove(1);
    match parse(capture_text(&gapped)) {
        Err(WireError::OutOfOrder {
            line,
            expected,
            found,
        }) => assert_eq!((line, expected, found), (2, 1, 2)),
        other => panic!("expected OutOfOrder, got {other:?}"),
    }

    // Truncated: no study_finished.
    let mut truncated = lines.clone();
    truncated.pop();
    match parse(capture_text(&truncated)) {
        Err(WireError::Truncated { frames }) => assert_eq!(frames as usize, lines.len() - 1),
        other => panic!("expected Truncated, got {other:?}"),
    }

    // Study renamed mid-stream.
    let mut renamed = lines.clone();
    renamed[1] = renamed[1].replacen("\"study\":\"wire-unit\"", "\"study\":\"imposter\"", 1);
    match parse(capture_text(&renamed)) {
        Err(WireError::StudyMismatch { line, found, .. }) => {
            assert_eq!(line, 2);
            assert_eq!(found, "imposter");
        }
        other => panic!("expected StudyMismatch, got {other:?}"),
    }

    // Frames after study_finished.
    let mut overlong = lines.clone();
    let mut extra = WireFrame::parse(lines.last().unwrap()).unwrap();
    extra.seq += 1;
    overlong.push(extra.to_line());
    assert!(matches!(
        parse(capture_text(&overlong)),
        Err(WireError::Corrupt { .. })
    ));

    // The pristine capture still replays fine.
    let replayed = parse(capture_text(&lines)).unwrap();
    assert_eq!(replayed.frames as usize, lines.len());
}

/// Captures written before PR 5 carry a `study_finished` cache object
/// without the `pruned` counter. They are still valid version-1 streams:
/// strict replay must accept them (decoding zero prunes), not reject a
/// file an older release of this very tool produced.
#[test]
fn pre_prune_counter_captures_still_replay() {
    let lines = capture_shard(&small_study(), Shard::WHOLE, 2);
    let legacy: Vec<String> = lines
        .iter()
        .map(|line| {
            if !line.contains("\"event\":\"study_finished\"") {
                return line.clone();
            }
            // Rewrite the cache object to its pre-PR5 shape.
            let frame = WireFrame::parse(line).unwrap();
            let (hits, misses) = match &frame.event {
                OwnedStudyEvent::StudyFinished { stats, .. } => {
                    let cache = stats.cache.expect("cached engine reports stats");
                    (cache.hits, cache.misses)
                }
                other => panic!("study_finished expected, got {}", other.kind()),
            };
            let old_object =
                format!("\"cache\":{{\"hits\":{hits},\"misses\":{misses},\"hit_rate\":0.0}}");
            let start = line.find("\"cache\":").expect("cache object present");
            // The cache object is the last field of the line.
            let end = line.rfind('}').unwrap();
            format!("{}{}{}", &line[..start], old_object, &line[end..])
        })
        .collect();
    let replayed = replay(std::io::Cursor::new(capture_text(&legacy)))
        .expect("legacy capture without `pruned` must still replay");
    assert_eq!(replayed.frames as usize, legacy.len());
}

/// Version-1 captures (written before the fault-campaign events landed)
/// must still replay, and re-encoding a v1 frame stamps the current
/// protocol version with the payload bytes untouched.
#[test]
fn version1_captures_still_replay_and_reencode_as_current() {
    let lines = capture_shard(&small_study(), Shard::WHOLE, 2);
    let legacy: Vec<String> = lines
        .iter()
        .map(|line| line.replacen(&format!("{{\"v\":{WIRE_VERSION},"), "{\"v\":1,", 1))
        .collect();
    assert_ne!(legacy, lines, "downgrade must have rewritten the stamps");
    let replayed =
        replay(std::io::Cursor::new(capture_text(&legacy))).expect("v1 capture must still replay");
    assert_eq!(replayed.frames as usize, legacy.len());
    for (old, current) in legacy.iter().zip(&lines) {
        let frame = WireFrame::parse(old).unwrap();
        assert_eq!(frame.version, 1, "parse preserves the version it read");
        assert_eq!(
            &frame.to_line(),
            current,
            "re-encode stamps the current version"
        );
    }
}

/// The incremental [`StreamReplayer`] (the socket client's replay core)
/// must agree with the batch [`replay`] path line for line, including
/// where it reports the terminal frame.
#[test]
fn stream_replayer_matches_batch_replay_line_by_line() {
    let lines = capture_shard(&small_study(), Shard::WHOLE, 2);
    let mut incremental = StreamReplayer::new();
    for (i, line) in lines.iter().enumerate() {
        let terminal = incremental
            .push_line(line, &mut nvmexplorer_core::stream::NullSink)
            .expect("well-formed capture");
        assert_eq!(
            terminal,
            i + 1 == lines.len(),
            "terminal flag must fire exactly on the last frame"
        );
    }
    assert!(incremental.finished());
    let a = incremental.finish().expect("finished stream");
    let b = replay(std::io::Cursor::new(lines.join("\n"))).expect("batch replay");
    assert_eq!(a.study, b.study);
    assert_eq!(a.frames, b.frames);
    assert_identical("incremental vs batch", &a.result, &b.result);
}

/// A strict replay decodes each array and traffic record once: every
/// evaluation of an array shares the `Arc` its `array_characterized` frame
/// decoded, and every evaluation under a pattern shares one `Arc` — so
/// the counts of distinct pointers are the counts of array frames and of
/// resolved patterns, on any machine.
#[test]
fn replay_shares_each_array_and_traffic_record() {
    let mut study = small_study();
    study.array.capacities_mib = vec![1, 2, 4];
    study.traffic = TrafficSpec::Explicit {
        patterns: vec![
            TrafficPattern::new("t", 1.0e9, 1.0e7, 64),
            TrafficPattern::new("u", 2.0e8, 4.0e8, 32),
            TrafficPattern::new("w", 5.0e7, 5.0e7, 8),
        ],
    };
    let lines = capture_shard(&study, Shard::WHOLE, 2);
    let array_frames = lines
        .iter()
        .filter(|line| line.contains(r#""event":"array_characterized""#))
        .count();
    let replayed = replay(std::io::Cursor::new(capture_text(&lines))).expect("replays");
    let evaluations = &replayed.result.evaluations;
    assert_eq!(
        evaluations.len(),
        array_frames * 3,
        "every array meets every pattern"
    );
    let distinct = |pointers: Vec<usize>| {
        pointers
            .into_iter()
            .collect::<std::collections::HashSet<_>>()
            .len()
    };
    let arrays = distinct(
        evaluations
            .iter()
            .map(|e| std::sync::Arc::as_ptr(&e.array) as usize)
            .collect(),
    );
    let traffic = distinct(
        evaluations
            .iter()
            .map(|e| std::sync::Arc::as_ptr(&e.traffic) as usize)
            .collect(),
    );
    assert_eq!(arrays, array_frames);
    assert_eq!(traffic, 3);
}

/// On a served session channel, any line with a top-level `response` key
/// is a response — even one that also carries every field of an event
/// frame — and response lines leave the replay's line count alone.
#[test]
fn served_lines_with_a_response_key_are_responses() {
    let lines = capture_shard(&small_study(), Shard::WHOLE, 1);
    let array = lines
        .iter()
        .find(|line| line.contains(r#""event":"array_characterized""#))
        .unwrap();
    let body = array.strip_suffix('}').unwrap();
    let mut replayer = StreamReplayer::new();
    let sink = &mut nvmexplorer_core::stream::NullSink;
    let draining = ResponseFrame::Draining.to_line();
    for (line, decodes) in [
        (format!(r#"{body},"response":"draining"}}"#), true),
        (
            format!(r#"{{"response":"draining",{}"#, &body[1..]) + "}",
            true,
        ),
        (format!(r#"{body},"response":7}}"#), false),
        (draining.clone(), true),
    ] {
        match replayer.push_served_line(&line, sink) {
            Ok(Served::Response(Ok(ResponseFrame::Draining))) => assert!(decodes, "{line}"),
            Ok(Served::Response(Err(FrameError::Corrupt { .. }))) => assert!(!decodes, "{line}"),
            other => panic!("{line} is a response, got {other:?}"),
        }
        assert_eq!(
            ResponseFrame::parse_if_response(&line).map(|r| r.is_ok()),
            Some(decodes)
        );
    }
    assert_eq!(replayer.frames(), 0);
    for line in &lines {
        assert!(ResponseFrame::parse_if_response(line).is_none());
        match replayer.push_served_line(line, sink) {
            Ok(Served::Event { .. }) => {}
            other => panic!("{line} is an event frame, got {other:?}"),
        }
    }
    assert!(replayer.finished());
    // The terminal `done` response follows the last frame.
    assert!(matches!(
        replayer.push_served_line(&draining, sink),
        Ok(Served::Response(Ok(ResponseFrame::Draining)))
    ));
    // Line numbers count event lines only.
    let mut replayer = StreamReplayer::new();
    replayer.push_served_line(&draining, sink).unwrap();
    match replayer.push_served_line("{not json", sink) {
        Err(WireError::Corrupt { line: 1, .. }) => {}
        other => panic!("expected a corrupt line 1, got {other:?}"),
    }
}

/// Records padded past the memo's per-record bound (with whitespace or
/// an unknown key) decode exactly and are not remembered; many distinct
/// records are each remembered once, within the bound.
#[test]
fn hostile_records_decode_exactly_and_the_memo_stays_bounded() {
    const RECORD_BOUND: usize = 16 * 1024;
    const MEMO_BOUND: usize = 64 * 1024 * 1024;
    let lines = capture_shard(&small_study(), Shard::WHOLE, 1);
    let evaluation = lines
        .iter()
        .find(|line| line.contains(r#""event":"evaluation_produced""#))
        .unwrap();
    let mut decoder = FrameDecoder::new();
    let same = |decoder: &mut FrameDecoder, line: &str| match (
        decoder.frame(line),
        WireFrame::parse(line),
    ) {
        (Ok(a), Ok(b)) => assert_eq!(a, b),
        (Err(FrameError::Corrupt { .. }), Err(FrameError::Corrupt { .. })) => {}
        (a, b) => panic!("decoder {a:?} against stateless {b:?}"),
    };
    let spaces = " ".repeat(RECORD_BOUND);
    let pad = format!(r#""zz_pad":"{}","#, "x".repeat(RECORD_BOUND));
    for padding in [spaces.as_str(), pad.as_str()] {
        let padded = evaluation
            .replacen(r#""array":{"#, &format!(r#""array":{{{padding}"#), 1)
            .replacen(r#""traffic":{"#, &format!(r#""traffic":{{{padding}"#), 1);
        for _ in 0..3 {
            same(&mut decoder, &padded);
            assert_eq!(
                decoder.remembered_bytes(),
                0,
                "oversized records are not remembered"
            );
        }
        // A padded record that breaks off mid-padding is still corrupt.
        same(&mut decoder, &padded[..padded.len() / 2]);
    }
    // Each distinct record is remembered once: the array on its first
    // line, then one traffic record per name.
    let record = |line: &str, key: &str| {
        let value: serde::Value = serde_json::from_str(line).unwrap();
        let record = value.get("evaluation").and_then(|e| e.get(key)).unwrap();
        serde_json::to_string(record).unwrap().len()
    };
    let mut expected = record(evaluation, "array");
    for n in 0..2000 {
        let line = evaluation.replacen(r#""name":"t""#, &format!(r#""name":"t{n}""#), 1);
        same(&mut decoder, &line);
        expected += record(&line, "traffic");
        assert_eq!(decoder.remembered_bytes(), expected);
    }
    assert!(expected < MEMO_BOUND);
}

/// Version-2 captures (written before the service frames landed) must
/// still replay, and re-encode as the current version — the v3 bump added
/// request/response frames only, never touching the event encoding.
#[test]
fn version2_captures_still_replay_and_reencode_as_current() {
    let lines = capture_shard(&small_study(), Shard::WHOLE, 2);
    let legacy: Vec<String> = lines
        .iter()
        .map(|line| line.replacen(&format!("{{\"v\":{WIRE_VERSION},"), "{\"v\":2,", 1))
        .collect();
    assert_ne!(legacy, lines, "downgrade must have rewritten the stamps");
    let replayed =
        replay(std::io::Cursor::new(capture_text(&legacy))).expect("v2 capture must still replay");
    assert_eq!(replayed.frames as usize, legacy.len());
    for (old, current) in legacy.iter().zip(&lines) {
        let frame = WireFrame::parse(old).unwrap();
        assert_eq!(frame.version, 2, "parse preserves the version it read");
        assert_eq!(
            &frame.to_line(),
            current,
            "re-encode stamps the current version"
        );
    }
}

// --------------------------------------------------------- fault campaigns

fn small_fault_campaign() -> FaultStudyConfig {
    let mut study = small_study();
    study.name = "wire-fault".into();
    FaultStudyConfig {
        study,
        fault: FaultSpec {
            trials: 2,
            seed: 9,
            bits_per_cell: vec![BitsPerCell::Slc],
            temperatures_c: vec![25.0, 85.0],
            raw_bers: vec![1.0e-3],
            tolerance: 0.05,
        },
    }
}

/// Runs the fault campaign at `threads`, capturing the wire stream for
/// `shard` alongside the in-process result.
fn capture_fault_shard(
    campaign: &FaultStudyConfig,
    shard: Shard,
    threads: usize,
) -> (Vec<String>, FaultStudyResult) {
    let mut sink = WireSink::sharded(Vec::new(), shard);
    let result = StudyExecutor::with_threads(threads)
        .run_fault(campaign, &mut sink)
        .expect("fault campaign runs");
    let lines = String::from_utf8(sink.into_inner())
        .expect("wire lines are UTF-8")
        .lines()
        .map(str::to_owned)
        .collect();
    (lines, result)
}

/// The fault-campaign acceptance bar: the wire carries the injection
/// seeds, the sharded merge reproduces the unsharded capture byte for
/// byte, and strict replay rebuilds both the base study result and the
/// full [`FaultOutcome`].
#[test]
fn fault_campaign_survives_sharding_merge_and_replay() {
    let campaign = small_fault_campaign();
    let (whole, direct) = capture_fault_shard(&campaign, Shard::WHOLE, 2);

    let has = |tag: &str| whole.iter().any(|l| l.contains(tag));
    assert!(has("\"event\":\"fault_trial_produced\""));
    assert!(has("\"event\":\"accuracy_degraded\""));
    assert!(has("\"injection_seed\":"), "seeds must ride the wire");
    assert!(
        !has("\"event\":\"study_finished\""),
        "fault streams end in their own terminal event"
    );
    let last = whole.last().unwrap();
    assert!(last.contains("\"event\":\"fault_study_finished\""));

    // Strict replay reconstructs both halves of the result.
    let replayed = replay(std::io::Cursor::new(capture_text(&whole))).unwrap();
    assert_identical("replay(fault)", &replayed.result, &direct.study);
    let fault = replayed.fault.expect("fault outcome reconstructed");
    assert_eq!(fault, direct.fault);

    // Sharded captures at mixed thread counts merge back to the same
    // bytes, and the merged capture replays to the same outcome.
    for count in [2u64, 3] {
        let shards: Vec<Vec<String>> = (0..count)
            .map(|i| capture_fault_shard(&campaign, Shard::of(i, count).unwrap(), 1 + i as usize).0)
            .collect();
        let (capture, merged) = merge_shards(&shards, 1);
        assert_identical("merged(fault)", &merged, &direct.study);
        assert_eq!(
            capture.len(),
            whole.len(),
            "shards must partition the stream"
        );
        for (m, w) in capture.iter().zip(&whole) {
            assert_eq!(strip_cache(m), strip_cache(w));
        }
        let rereplayed = replay(std::io::Cursor::new(capture_text(&capture))).unwrap();
        assert_eq!(rereplayed.fault.expect("fault outcome"), direct.fault);
    }
}

#[test]
fn winner_lines_referencing_unknown_evaluations_are_rejected() {
    let lines = capture_shard(&small_study(), Shard::WHOLE, 2);
    let tampered: Vec<String> = lines
        .iter()
        .map(|line| {
            if line.contains("\"event\":\"target_winner_selected\"") {
                line.replace("\"cell\":\"", "\"cell\":\"ghost-")
            } else {
                line.clone()
            }
        })
        .collect();
    match replay(std::io::Cursor::new(capture_text(&tampered))) {
        Err(WireError::UnknownWinner { cell, .. }) => assert!(cell.starts_with("ghost-")),
        other => panic!("expected UnknownWinner, got {other:?}"),
    }
}

#[test]
fn shard_partition_is_exact_and_disjoint() {
    let study = small_study();
    let whole = capture_shard(&study, Shard::WHOLE, 2);
    for count in [2u64, 3] {
        let shards: Vec<Vec<String>> = (0..count)
            .map(|i| capture_shard(&study, Shard::of(i, count).unwrap(), 2))
            .collect();
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, whole.len(), "shards must partition the stream");
        for (i, lines) in shards.iter().enumerate() {
            for line in lines {
                let frame = WireFrame::parse(line).unwrap();
                assert_eq!(frame.seq % count, i as u64, "slot in wrong shard");
            }
        }
    }
}

// --------------------------------------------------------------- fuzzing

/// A randomized small study: technology subset, optional SRAM baseline
/// (unbounded endurance), 1–2 capacities, SLC or SLC+MLC (MLC makes SRAM
/// skip, exercising `design_skipped` on the wire), 1–2 targets.
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
                name: format!("wire-fuzz-{tech_mask}-{sram}-{caps}-{depths}-{targets}"),
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
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance bar: in-process run ≡ coordinator-style
    /// sharded merge ≡ replay of the capture, byte-identical, at 1 and N
    /// workers — for any study config.
    #[test]
    fn in_process_sharded_and_replayed_results_are_byte_identical(study in arb_study()) {
        let batch = run_study_with_threads(&study, 4).unwrap();

        // 1 worker: a single unsharded capture.
        let whole = capture_shard(&study, Shard::WHOLE, 1);
        let replayed = replay(std::io::Cursor::new(capture_text(&whole))).unwrap();
        assert_identical("replay(1 worker)", &replayed.result, &batch);
        prop_assert_eq!(replayed.frames as usize, whole.len());

        // N workers at mixed thread counts, merged out of order with
        // injected duplicates, then replayed from the merged capture.
        for count in [2u64, 3] {
            let shards: Vec<Vec<String>> = (0..count)
                .map(|i| {
                    capture_shard(&study, Shard::of(i, count).unwrap(), 1 + i as usize)
                })
                .collect();
            let (capture, merged) = merge_shards(&shards, 1);
            assert_identical("merged", &merged, &batch);

            // The merged capture is the unsharded capture, byte for byte
            // (modulo the observational cache counters on the final line).
            prop_assert_eq!(capture.len(), whole.len());
            for (m, w) in capture.iter().zip(&whole) {
                prop_assert_eq!(strip_cache(m), strip_cache(w));
            }

            let rereplayed = replay(std::io::Cursor::new(capture_text(&capture))).unwrap();
            assert_identical("replay(merged)", &rereplayed.result, &batch);
        }
    }
}
