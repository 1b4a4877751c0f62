//! The direct JSON codec against its `Value`-tree oracle.
//!
//! - **Encode:** for every [`StudyEvent`] kind, the direct writer
//!   (`serde_json::to_string`, [`WireSink`], [`WireFrame::to_line`]) is
//!   byte-identical to printing the event's `to_value()` tree — across
//!   ±infinity, NaN, -0.0, subnormals, `1e-300` (a 300-digit decimal under
//!   `Display`), and names carrying quotes, backslashes, control
//!   characters and non-ASCII text.
//! - **Decode:** for valid wire lines and hostile mutations of them
//!   (truncation, flipped bytes, reordered/duplicate/unknown keys,
//!   integral floats and strings in integer fields, escaped keys), the
//!   one-pass stream-scoped [`FrameDecoder`] — fresh, and warmed by a real
//!   capture so its array and traffic records are remembered; as a frame
//!   and as a worker-connection line — agrees with parsing a `Value` and
//!   calling [`WireFrame::from_value`]: the same frame when accepted, the
//!   same [`FrameError`] variant when rejected. Mutations also aim at the
//!   memo's boundaries — a flipped byte inside a remembered record,
//!   garbage after one, one cut at its closing brace, array text under the
//!   `traffic` key, a duplicate `array` key whose second value is
//!   remembered. (The stateless [`WireFrame::parse`] is the tree path
//!   itself, so it is not compared against it.)
//! - **Memoized encode:** [`EventEncoder`] against the tree printer with
//!   shared and unshared records, and with two distinct records that are
//!   equal by `PartialEq` but print differently (`-0.0` and `0.0`).

use nvmexplorer_core::accuracy::AccuracyReport;
use nvmexplorer_core::config::{
    ArraySettings, CellSelection, Constraints, FaultSpec, FaultStudyConfig, StudyConfig,
    TrafficSpec,
};
use nvmexplorer_core::eval::Evaluation;
use nvmexplorer_core::fault_study::{FaultModelReport, FaultStudyStats, FaultTrial};
use nvmexplorer_core::stream::{NullSink, StudyEvent, StudyExecutor, StudyStats};
use nvmexplorer_core::sweep::StudyResult;
use nvmexplorer_core::wire::{
    EventEncoder, FrameDecoder, FrameError, WireFrame, WireSink, WorkerLine, WIRE_VERSION,
};
use nvmx_celldb::TechnologyClass;
use nvmx_nvsim::{CacheStats, L2RejectClasses, OptimizationTarget};
use nvmx_units::{BitsPerCell, Joules, Ratio, Seconds, SquareMillimeters, Watts};
use nvmx_workloads::TrafficPattern;
use proptest::prelude::*;
use serde::{json, Serialize, Value};
use std::sync::{Arc, OnceLock};

/// Floats every encoder must print exactly like the tree printer.
const SPECIAL: [f64; 18] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
    5e-324,                   // smallest subnormal
    2.225_073_858_507_2e-308, // largest subnormal
    1e-300,
    -1e-300,
    1e300,
    f64::MAX,
    f64::MIN,
    0.1 + 0.2,
    1.0,
    123_456_789.0,
    1e21,
    -7.25e-7,
];

const NAMES: [&str; 7] = [
    "plain",
    "",
    "quo\"ted",
    "back\\slash",
    "ctl\u{1}\u{8}\u{c}\u{1f}\t\n\r end",
    "ünïcødé ✓ 日本語 \u{7f}",
    "mixed \"\\\u{0} é",
];

/// SplitMix64: one seed expands into as many independent draws as needed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn float(&mut self) -> f64 {
        if self.next() % 2 == 0 {
            SPECIAL[self.below(SPECIAL.len())]
        } else {
            f64::from_bits(self.next())
        }
    }

    fn name(&mut self) -> String {
        NAMES[self.below(NAMES.len())].to_owned()
    }
}

fn small_study() -> StudyConfig {
    StudyConfig {
        name: "codec-parity".into(),
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
            // Two patterns: every array repeats, and the patterns cycle.
            patterns: vec![
                TrafficPattern::new("t", 1.0e9, 1.0e7, 64),
                TrafficPattern::new("u", 2.0e8, 4.0e8, 32),
            ],
        },
        constraints: Constraints::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

fn study_result() -> &'static StudyResult {
    static RESULT: OnceLock<StudyResult> = OnceLock::new();
    RESULT.get_or_init(|| {
        StudyExecutor::with_threads(1)
            .run(&small_study(), &mut NullSink)
            .expect("study runs")
    })
}

/// Every line of a real study capture plus a small fault campaign's.
fn real_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let mut sink = WireSink::new(Vec::new());
        StudyExecutor::with_threads(1)
            .run(&small_study(), &mut sink)
            .expect("study runs");
        let mut fault_sink = WireSink::new(Vec::new());
        let mut study = small_study();
        study.name = "codec-fault".into();
        StudyExecutor::with_threads(1)
            .run_fault(
                &FaultStudyConfig {
                    study,
                    fault: FaultSpec {
                        trials: 1,
                        seed: 4,
                        bits_per_cell: vec![BitsPerCell::Slc],
                        temperatures_c: vec![25.0],
                        raw_bers: vec![1.0e-3],
                        tolerance: 0.05,
                    },
                },
                &mut fault_sink,
            )
            .expect("fault campaign runs");
        [sink.into_inner(), fault_sink.into_inner()]
            .iter()
            .flat_map(|bytes| {
                String::from_utf8(bytes.clone())
                    .unwrap()
                    .lines()
                    .map(str::to_owned)
                    .collect::<Vec<_>>()
            })
            .collect()
    })
}

/// A real evaluation with every float and name replaced by a hostile draw.
fn hostile_evaluation(d: &mut Draws) -> Evaluation {
    let result = study_result();
    let mut eval = result.evaluations[d.below(result.evaluations.len())].clone();
    let mut array = (*eval.array).clone();
    array.cell_name = d.name();
    array.node_nm = d.float();
    array.read_latency = Seconds::new(d.float());
    array.write_latency = Seconds::new(d.float());
    array.read_energy = Joules::new(d.float());
    array.write_energy = Joules::new(d.float());
    array.leakage = Watts::new(d.float());
    array.area = SquareMillimeters::new(d.float());
    array.area_efficiency = Ratio::new(d.float());
    array.read_bandwidth = d.float();
    array.write_bandwidth = d.float();
    array.endurance_cycles = d.float();
    array.retention = Seconds::new(d.float());
    let mut traffic = (*eval.traffic).clone();
    traffic.name = d.name();
    traffic.read_bytes_per_sec = d.float();
    traffic.write_bytes_per_sec = d.float();
    traffic.access_bytes = d.next();
    eval.array = Arc::new(array);
    eval.traffic = Arc::new(traffic);
    eval.array_reads_per_sec = d.float();
    eval.array_writes_per_sec = d.float();
    eval.read_power = Watts::new(d.float());
    eval.write_power = Watts::new(d.float());
    eval.leakage_power = Watts::new(d.float());
    eval.utilization = d.float();
    eval.aggregate_latency = Seconds::new(d.float());
    eval.lifetime = (d.next() % 2 == 0).then(|| Seconds::new(d.float()));
    eval
}

fn hostile_stats(d: &mut Draws) -> StudyStats {
    StudyStats {
        jobs: d.next() as usize,
        targets: d.below(9),
        traffic_patterns: d.below(100),
        arrays: d.below(1000),
        evaluations: d.next() as usize,
        skipped: d.below(3),
        cache: (d.next() % 3 != 0).then(|| CacheStats {
            hits: d.next() % 1000,
            misses: d.next() % 1000,
            pruned: d.next() % 1000,
            l2_hits: d.next(),
            l2_misses: d.next() % 7,
            l2_rejects: d.next() % 7,
            l2_reject_classes: L2RejectClasses {
                io: d.next() % 2,
                version: d.next() % 3,
                truncated: 0,
                corrupt: d.next() % 2,
                collision: d.next() % 2,
            },
        }),
    }
}

/// Encodes one event of every kind from the draws, checking each direct
/// encoding against the tree printer, and returns the wire lines.
fn check_every_event_kind(d: &mut Draws) -> Vec<String> {
    let eval = hostile_evaluation(d);
    let stats = hostile_stats(d);
    let name = d.name();
    let reason = d.name();
    let bits = [BitsPerCell::Slc, BitsPerCell::Mlc2, BitsPerCell::Mlc3][d.below(3)];
    let trial = FaultTrial {
        model_index: d.below(50),
        trial: d.next() as u32,
        cell: d.name(),
        bits_per_cell: bits,
        temperature_c: d.float(),
        bit_error_rate: d.float(),
        injection_seed: d.next(),
        bits_total: d.next(),
        bits_flipped: d.next(),
        accuracy: d.float(),
    };
    let report = FaultModelReport {
        model_index: d.below(50),
        cell: d.name(),
        bits_per_cell: bits,
        temperature_c: d.float(),
        report: AccuracyReport {
            baseline: d.float(),
            mean: d.float(),
            worst: d.float(),
            bit_error_rate: d.float(),
            trials: d.next() as u32,
        },
        acceptable: d.next() % 2 == 0,
    };
    let fault_stats = FaultStudyStats {
        base: stats,
        models: d.below(100),
        trials: d.below(1000),
        degraded: d.below(10),
    };
    let target = OptimizationTarget::ALL[d.below(OptimizationTarget::ALL.len())];
    let events = [
        StudyEvent::StudyStarted {
            name: &name,
            cells: d.below(20),
            jobs: d.next() as usize,
            targets: d.below(9),
            traffic: d.below(64),
        },
        StudyEvent::ArrayCharacterized {
            index: d.next() as usize,
            array: &eval.array,
        },
        StudyEvent::DesignSkipped {
            cell: &name,
            target,
            reason: &reason,
        },
        StudyEvent::EvaluationProduced {
            index: d.next() as usize,
            evaluation: &eval,
        },
        StudyEvent::TargetWinnerSelected {
            target,
            winner: &eval,
        },
        StudyEvent::StudyFinished {
            name: &name,
            stats: &stats,
        },
        StudyEvent::FaultTrialProduced {
            index: d.next() as usize,
            trial: &trial,
        },
        StudyEvent::AccuracyDegraded {
            index: d.below(50),
            report: &report,
        },
        StudyEvent::FaultStudyFinished {
            name: &name,
            stats: &fault_stats,
        },
    ];

    let mut sink = WireSink::new(Vec::new());
    for event in &events {
        let mut oracle = String::new();
        json::write_value(&mut oracle, &event.to_value());
        assert_eq!(
            serde_json::to_string(event).unwrap(),
            oracle,
            "{} event encodes differently from its tree",
            event.kind()
        );
        nvmexplorer_core::stream::ResultSink::on_event(&mut sink, event).unwrap();
    }
    let lines: Vec<String> = String::from_utf8(sink.into_inner())
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(lines.len(), events.len());
    for (seq, (line, event)) in lines.iter().zip(&events).enumerate() {
        let mut header = vec![
            ("v".to_owned(), Value::Uint(WIRE_VERSION)),
            // The sink stamps the study name from the opening event.
            ("study".to_owned(), Value::Str(name.clone())),
            ("seq".to_owned(), Value::Uint(seq as u64)),
        ];
        if let Value::Object(body) = event.to_value() {
            header.extend(body);
        }
        let mut oracle = String::new();
        json::write_value(&mut oracle, &Value::Object(header));
        assert_eq!(line, &oracle, "wire line {seq} differs from its tree");
    }
    check_memoized_evaluations(&eval, d);
    lines
}

/// The tree printer's wire line for `event` at `seq` in study `s`.
fn oracle_line(seq: usize, event: &StudyEvent<'_>) -> String {
    let mut fields = vec![
        ("v".to_owned(), Value::Uint(WIRE_VERSION)),
        ("study".to_owned(), Value::Str("s".to_owned())),
        ("seq".to_owned(), Value::Uint(seq as u64)),
    ];
    if let Value::Object(body) = event.to_value() {
        fields.extend(body);
    }
    print(fields)
}

/// Encodes evaluations through one [`EventEncoder`] — the same records
/// again (shared `Arc`s), equal copies (unshared), and two records equal
/// by `PartialEq` that print differently (`-0.0` against `0.0`) — and
/// decodes them through one [`FrameDecoder`]. Every line must match the
/// tree printer, decode like the tree path, and re-encode to itself (the
/// byte check a sign confusion would fail: `-0.0 == 0.0`).
fn check_memoized_evaluations(eval: &Evaluation, d: &mut Draws) {
    let unshared = Evaluation {
        array: Arc::new((*eval.array).clone()),
        traffic: Arc::new((*eval.traffic).clone()),
        ..eval.clone()
    };
    // Built on a real evaluation: the hostile one may hold a NaN, which
    // equals nothing.
    let real = &study_result().evaluations[d.below(study_result().evaluations.len())];
    let twin = |zero: f64| {
        let mut array = (*real.array).clone();
        array.read_latency = Seconds::new(zero);
        let mut traffic = (*real.traffic).clone();
        traffic.write_bytes_per_sec = zero;
        Evaluation {
            array: Arc::new(array),
            traffic: Arc::new(traffic),
            ..real.clone()
        }
    };
    let (negative, positive) = (twin(-0.0), twin(0.0));
    assert_eq!(negative, positive, "the twins are equal by value");
    let sequence = [
        eval,
        &eval.clone(),
        &unshared,
        &negative,
        &positive,
        &negative,
        &positive,
        eval,
    ];
    let mut encoder = EventEncoder::new();
    let mut decoder = FrameDecoder::new();
    for (seq, evaluation) in sequence.into_iter().enumerate() {
        let event = StudyEvent::EvaluationProduced {
            index: d.below(1000),
            evaluation,
        };
        let mut line = format!("{{\"v\":{WIRE_VERSION},\"study\":\"s\",\"seq\":{seq},");
        encoder.write_fields(&event, &mut line);
        line.push('}');
        assert_eq!(line, oracle_line(seq, &event), "memoized encoding {seq}");
        let decoded = decoder.frame(&line);
        assert_agree(&line, "stream decoder", &decoded, &oracle_parse(&line));
        if let Ok(frame) = decoded {
            assert_eq!(frame.to_line(), line, "decoded record {seq} re-encodes");
        }
    }
}

/// The tree path: parse a `Value`, then decode it.
fn oracle_parse(line: &str) -> Result<WireFrame, FrameError> {
    let value: Value = serde_json::from_str(line).map_err(|e| FrameError::Corrupt {
        reason: format!("not valid JSON: {e}"),
    })?;
    WireFrame::from_value(&value)
}

/// A decoder that has decoded the whole real capture, so every real array
/// and traffic record is remembered.
fn warmed_decoder() -> FrameDecoder {
    let mut decoder = FrameDecoder::new();
    for line in real_lines() {
        decoder.frame(line).expect("real lines decode");
    }
    decoder
}

fn assert_agree<T: PartialEq + std::fmt::Debug>(
    line: &str,
    what: &str,
    direct: &Result<T, FrameError>,
    oracle: &Result<T, FrameError>,
) {
    match (direct, oracle) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what} disagrees on {line:?}"),
        (Err(FrameError::Version { found: a }), Err(FrameError::Version { found: b })) => {
            assert_eq!(a, b, "{what}: version errors disagree on {line:?}");
        }
        (Err(FrameError::Corrupt { .. }), Err(FrameError::Corrupt { .. })) => {}
        _ => panic!("{what} disagrees on {line:?}:\n direct {direct:?}\n oracle {oracle:?}"),
    }
}

/// `line` decodes like the tree path through a fresh and a warmed
/// [`FrameDecoder`] — as a frame, and as a worker-connection line like the
/// stateless [`WorkerLine::parse`].
fn assert_same_decode(line: &str) {
    let oracle = oracle_parse(line);
    for (what, mut decoder) in [("fresh", FrameDecoder::new()), ("warmed", warmed_decoder())] {
        assert_agree(line, what, &decoder.frame(line), &oracle);
        // Decoding again meets the line's own records in the memo.
        assert_agree(line, what, &decoder.frame(line), &oracle);
    }
    let worker = WorkerLine::parse(line);
    assert_agree(
        line,
        "fresh worker line",
        &FrameDecoder::new().worker_line(line),
        &worker,
    );
    assert_agree(
        line,
        "warmed worker line",
        &warmed_decoder().worker_line(line),
        &worker,
    );
}

/// Rebuilds a line from a mutated top-level entry list.
fn print(entries: Vec<(String, Value)>) -> String {
    let mut out = String::new();
    json::write_value(&mut out, &Value::Object(entries));
    out
}

/// The top-level object or, half the time at each level, an object nested
/// in it — payloads, their `organization`, the cache block.
fn some_object<'e>(
    entries: &'e mut Vec<(String, Value)>,
    d: &mut Draws,
) -> &'e mut Vec<(String, Value)> {
    let nested: Vec<usize> = entries
        .iter()
        .enumerate()
        .filter(|(_, (_, v))| matches!(v, Value::Object(_)))
        .map(|(i, _)| i)
        .collect();
    if nested.is_empty() || d.next() % 2 == 0 {
        return entries;
    }
    match &mut entries[nested[d.below(nested.len())]].1 {
        Value::Object(inner) => some_object(inner, d),
        _ => unreachable!("filtered to objects"),
    }
}

/// Bytes a flip may write — JSON-structural and number characters, so
/// mutations reach past the first syntax check.
const FLIPS: &[u8] = b"\"{}[],:0123456789.-+eE \\nultrfa";

/// One hostile mutation of `line`, chosen by the draws.
fn mutate(line: &str, d: &mut Draws) -> String {
    let entries = match serde_json::from_str::<Value>(line) {
        Ok(Value::Object(entries)) => entries,
        _ => return line.to_owned(),
    };
    let junk = [
        Value::Null,
        Value::Bool(true),
        Value::Uint(3),
        Value::Float(3.0),
        Value::Float(3.5),
        Value::Int(-3),
        Value::Str("3.0".to_owned()),
        Value::Array(vec![Value::Uint(1), Value::Str("x".to_owned())]),
        Value::Object(vec![("k".to_owned(), Value::Null)]),
    ];
    let pick = |d: &mut Draws| junk[d.below(junk.len())].clone();
    match d.below(10) {
        // Truncated anywhere (on a char boundary).
        0 => {
            let mut at = d.below(line.len() + 1);
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            line[..at].to_owned()
        }
        // One flipped byte.
        1 => {
            let mut bytes = line.as_bytes().to_vec();
            let at = d.below(bytes.len());
            if bytes[at].is_ascii() {
                bytes[at] = FLIPS[d.below(FLIPS.len())];
            }
            String::from_utf8(bytes).unwrap_or_else(|_| line.to_owned())
        }
        // Reordered keys.
        2 => {
            let mut entries = entries;
            let n = entries.len();
            for i in (1..n).rev() {
                entries.swap(i, d.below(i + 1));
            }
            print(entries)
        }
        // A duplicate key, before or after the original, with junk.
        3 => {
            let mut entries = entries;
            let object = some_object(&mut entries, d);
            if !object.is_empty() {
                let i = d.below(object.len());
                let dup = (object[i].0.clone(), pick(d));
                let at = if d.next() % 2 == 0 { i } else { i + 1 };
                object.insert(at, dup);
            }
            print(entries)
        }
        // An unknown key, top level or inside a nested object.
        4 => {
            let mut entries = entries;
            let unknown = ("zz_unknown".to_owned(), pick(d));
            let object = some_object(&mut entries, d);
            let at = d.below(object.len() + 1);
            object.insert(at, unknown);
            print(entries)
        }
        // An integer field rewritten as an integral float, a fractional
        // float, a string, or a negative.
        5 => {
            let mut entries = entries;
            let ints: Vec<usize> = entries
                .iter()
                .enumerate()
                .filter(|(_, (_, v))| matches!(v, Value::Uint(_)))
                .map(|(i, _)| i)
                .collect();
            if let Some(&i) = ints.get(d.below(ints.len().max(1))) {
                let Value::Uint(u) = entries[i].1 else {
                    unreachable!()
                };
                entries[i].1 = match d.below(4) {
                    0 => Value::Float(u as f64),
                    1 => Value::Float(u as f64 + 0.5),
                    2 => Value::Str(format!("{u}.0")),
                    _ => Value::Int(-1),
                };
            }
            print(entries)
        }
        // A field anywhere rewritten with junk.
        6 => {
            let mut entries = entries;
            let object = some_object(&mut entries, d);
            if !object.is_empty() {
                let i = d.below(object.len());
                object[i].1 = pick(d);
            }
            print(entries)
        }
        // Escaped keys (top level and nested) decode like plain ones.
        7 => line
            .replacen("\"v\":", "\"\\u0076\":", 1)
            .replacen("\"event\":", "\"\\u0065vent\":", 1)
            .replacen("\"cell_name\":", "\"cell\\u005fname\":", 1)
            .replacen("\"seq\":", "\"s\\u0065q\":", 1),
        // A declared version from the whole neighbourhood of the range.
        8 => {
            let mut entries = entries;
            if let Some((_, v)) = entries.iter_mut().find(|(k, _)| k == "v") {
                *v = Value::Uint(d.next() % (WIRE_VERSION + 3));
            }
            print(entries)
        }
        // A missing field.
        _ => {
            let mut entries = entries;
            let i = d.below(entries.len());
            entries.remove(i);
            print(entries)
        }
    }
}

/// Prints one value as the encoders do.
fn text_of(value: &Value) -> String {
    let mut out = String::new();
    json::write_value(&mut out, value);
    out
}

/// The records a line carries — a top-level `array`, or the `array` and
/// `traffic` of its `evaluation` — as `(key, byte offset, text)`.
fn records(line: &str) -> Vec<(&'static str, usize, String)> {
    let Ok(Value::Object(entries)) = serde_json::from_str::<Value>(line) else {
        return Vec::new();
    };
    let mut found = Vec::new();
    for (key, value) in &entries {
        match (key.as_str(), value) {
            ("array", _) => found.push(("array", text_of(value))),
            ("evaluation", Value::Object(inner)) => {
                for (key, value) in inner {
                    match key.as_str() {
                        "array" => found.push(("array", text_of(value))),
                        "traffic" => found.push(("traffic", text_of(value))),
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    found
        .into_iter()
        .filter_map(|(key, text)| line.find(&text).map(|at| (key, at, text)))
        .collect()
}

/// The real lines that carry records.
fn record_lines() -> Vec<&'static String> {
    real_lines()
        .iter()
        .filter(|line| !records(line).is_empty())
        .collect()
}

/// One mutation at the boundary of a record the warmed decoder remembers.
fn mutate_record(line: &str, d: &mut Draws) -> String {
    let found = records(line);
    let (key, at, text) = &found[d.below(found.len())];
    let end = at + text.len();
    match d.below(5) {
        // A flipped byte inside the remembered record.
        0 => {
            let mut bytes = line.as_bytes().to_vec();
            let i = at + d.below(text.len());
            if bytes[i].is_ascii() {
                bytes[i] = FLIPS[d.below(FLIPS.len())];
            }
            String::from_utf8(bytes).unwrap_or_else(|_| line.to_owned())
        }
        // The remembered record followed by garbage.
        1 => {
            const GARBAGE: [&str; 9] = [" x", "}", ",", "]", "\"", "0", "{}", ",}", " "];
            format!(
                "{}{}{}",
                &line[..end],
                GARBAGE[d.below(GARBAGE.len())],
                &line[end..]
            )
        }
        // The record cut at its closing brace: the line ends after it or
        // before it, or continues without it.
        2 => match d.below(3) {
            0 => line[..end].to_owned(),
            1 => line[..end - 1].to_owned(),
            _ => format!("{}{}", &line[..end - 1], &line[end..]),
        },
        // Array text under the `traffic` key.
        3 => match found.iter().find(|(key, ..)| *key == "traffic") {
            Some((_, traffic_at, traffic)) => {
                let array = &found.iter().find(|(key, ..)| *key == "array").unwrap().2;
                format!(
                    "{}{array}{}",
                    &line[..*traffic_at],
                    &line[traffic_at + traffic.len()..]
                )
            }
            None => line.to_owned(),
        },
        // A duplicate key whose second value is a remembered record (of
        // the same type, or the other one): the first occurrence wins.
        _ => {
            let lines = record_lines();
            let other = records(lines[d.below(lines.len())]);
            let (_, _, second) = &other[d.below(other.len())];
            let first = if d.next() % 3 == 0 {
                "{\"zz_unknown\":null}"
            } else {
                text.as_str()
            };
            let prefix = &line[..*at];
            format!("{prefix}{first},\"{key}\":{second}{}", &line[end..])
        }
    }
}

#[test]
fn text_form_pins_floats_and_escapes() {
    let mut out = String::new();
    for f in [
        1.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e-300,
    ] {
        f.write_json(&mut out);
        out.push(' ');
    }
    assert!(out.starts_with("1.0 -0.0 1e999 -1e999 null 0.000"));
    assert!(out.ends_with("0001 "), "1e-300 prints as a plain decimal");
    let mut s = String::new();
    "a\"b\\c\u{1}\u{1f}\n\u{7f} é".write_json(&mut s);
    assert_eq!(s, "\"a\\\"b\\\\c\\u0001\\u001f\\n\u{7f} é\"");
}

#[test]
fn real_capture_lines_decode_identically_and_reencode_byte_for_byte() {
    let lines = real_lines();
    assert!(lines.len() > 10);
    for line in lines {
        assert_same_decode(line);
        let frame = WireFrame::parse(line).expect("real lines parse");
        assert_eq!(&frame.to_line(), line);
        let mut oracle = String::new();
        json::write_value(&mut oracle, &frame.to_value());
        assert_eq!(&oracle, line, "to_value and to_line disagree");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_event_kind_encodes_exactly_like_its_tree(seed in any::<u64>()) {
        let mut d = Draws(seed);
        let lines = check_every_event_kind(&mut d);
        for line in &lines {
            assert_same_decode(line);
            // A NaN prints as `null`, which no plain float field accepts;
            // every line that does decode re-encodes byte for byte.
            if let Ok(frame) = WireFrame::parse(line) {
                prop_assert_eq!(&frame.to_line(), line);
            }
        }
    }

    #[test]
    fn memo_boundary_mutations_decode_like_the_tree_path(seed in any::<u64>()) {
        let mut d = Draws(seed);
        let lines = record_lines();
        let line = lines[d.below(lines.len())];
        let mut mutated = mutate_record(line, &mut d);
        assert_same_decode(&mutated);
        // Stack a second one when the first left a record to aim at.
        if !records(&mutated).is_empty() {
            mutated = mutate_record(&mutated, &mut d);
            assert_same_decode(&mutated);
        }
    }

    #[test]
    fn mutated_lines_decode_like_the_tree_path(seed in any::<u64>()) {
        let mut d = Draws(seed);
        let lines = real_lines();
        let line = &lines[d.below(lines.len())];
        let mut mutated = mutate(line, &mut d);
        assert_same_decode(&mutated);
        // Stack a second mutation on the first.
        mutated = mutate(&mutated, &mut d);
        assert_same_decode(&mutated);
    }
}
