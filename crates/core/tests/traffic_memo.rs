//! The process-wide resolved-traffic memo (`core::traffic_memo`).
//!
//! A memoized resolve must be bit-identical to the uncached oracle,
//! `TrafficSpec::resolve`, at any lane count; failures must not be cached;
//! the bound must evict; and a warm `CampaignService` must simulate a
//! repeated `spec_llc` spec once, still streaming what a cold local run
//! streams. This suite is its own test binary because the memo and its
//! counters are process-wide: every test here holds `SERIAL` and reads
//! counter deltas.

use std::sync::{Mutex, MutexGuard, PoisonError};

use nvmexplorer_core::config::{CampaignConfig, StudyConfig, TrafficSpec};
use nvmexplorer_core::service::{CampaignService, ServiceConfig, SessionPhase};
use nvmexplorer_core::stream::StudyExecutor;
use nvmexplorer_core::traffic_memo::{self, MemoStats, MAX_ENTRIES};
use nvmexplorer_core::wire::WireSink;
use nvmx_workloads::TrafficPattern;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The counters' change since `before`, with the current entry count.
fn since(before: MemoStats) -> MemoStats {
    let now = traffic_memo::stats();
    MemoStats {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        entries: now.entries,
    }
}

fn bits(patterns: &[TrafficPattern]) -> Vec<(String, u64, u64, u64)> {
    patterns
        .iter()
        .map(|p| {
            (
                p.name.clone(),
                p.read_bytes_per_sec.to_bits(),
                p.write_bytes_per_sec.to_bits(),
                p.access_bytes,
            )
        })
        .collect()
}

fn spec_llc(lookups: u64, seed: u64) -> TrafficSpec {
    TrafficSpec::SpecLlc { lookups, seed }
}

fn facebook(graph: &str) -> TrafficSpec {
    TrafficSpec::GraphBfs {
        graph: graph.to_owned(),
        edges_per_sec: 5.0e7,
        seed: 7,
    }
}

#[test]
fn memoized_patterns_are_bit_identical_to_the_oracle() {
    let _serial = serial();
    // Two seeds at one length: a key without the seed would serve the
    // second seed the first one's patterns.
    for seed in [101, 102] {
        let spec = spec_llc(20_000, seed);
        let oracle = bits(&spec.resolve().unwrap());
        let before = traffic_memo::stats();
        for lanes in 1..=3 {
            let memoized = traffic_memo::resolve(&spec, lanes).unwrap();
            assert_eq!(bits(&memoized), oracle, "seed {seed}, {lanes} lanes");
        }
        let delta = since(before);
        assert_eq!((delta.misses, delta.hits), (1, 2), "seed {seed}");
    }

    // Graph names resolve case-insensitively, so both spellings share one
    // entry.
    let oracle = bits(&facebook("facebook").resolve().unwrap());
    let before = traffic_memo::stats();
    let first = traffic_memo::resolve(&facebook("Facebook"), 2).unwrap();
    let second = traffic_memo::resolve(&facebook("facebook"), 1).unwrap();
    assert_eq!(bits(&first), oracle);
    assert_eq!(bits(&second), oracle);
    let delta = since(before);
    assert_eq!((delta.misses, delta.hits), (1, 1));
    assert_eq!(delta.entries, before.entries + 1);

    // A spec that does not simulate never touches the memo.
    let explicit = TrafficSpec::Explicit {
        patterns: vec![TrafficPattern::new("t", 1.0e9, 1.0e7, 64)],
    };
    let before = traffic_memo::stats();
    assert_eq!(
        bits(&traffic_memo::resolve(&explicit, 2).unwrap()),
        bits(&explicit.resolve().unwrap())
    );
    assert_eq!(traffic_memo::stats(), before);
}

#[test]
fn errors_are_not_cached() {
    let _serial = serial();
    let before = traffic_memo::stats();
    for _ in 0..2 {
        let err = traffic_memo::resolve(&facebook("orkut"), 1).unwrap_err();
        assert!(err.to_string().contains("orkut"), "{err}");
    }
    let delta = since(before);
    assert_eq!((delta.misses, delta.hits), (2, 0));
    assert_eq!(delta.entries, before.entries);
}

#[test]
fn the_bound_evicts_the_oldest_entry() {
    let _serial = serial();
    // One lookup per profile keeps each miss cheap; the seeds are unused
    // elsewhere in this suite.
    let specs: Vec<TrafficSpec> = (0..=MAX_ENTRIES as u64)
        .map(|k| spec_llc(1, 9_000 + k))
        .collect();
    let before = traffic_memo::stats();
    for spec in &specs {
        traffic_memo::resolve(spec, 1).unwrap();
    }
    let delta = since(before);
    assert_eq!(delta.misses, specs.len() as u64);
    assert_eq!(delta.entries, MAX_ENTRIES);

    // The newest is still held; the oldest was evicted and simulates again.
    let before = traffic_memo::stats();
    traffic_memo::resolve(specs.last().unwrap(), 1).unwrap();
    assert_eq!(since(before).hits, 1);
    let before = traffic_memo::stats();
    let again = traffic_memo::resolve(&specs[0], 1).unwrap();
    assert_eq!(since(before).misses, 1);
    assert_eq!(bits(&again), bits(&specs[0].resolve().unwrap()));
}

/// One LLC study; only `array` differs between the two configs.
fn llc_config(array: &str) -> String {
    format!(
        r#"{{
    "name": "memo-llc",
    "cells": {{"technologies": ["Stt"], "reference_rram": false, "sram_baseline": false}},
    "array": {array},
    "traffic": {{"kind": "spec_llc", "lookups": 20000, "seed": 4242}}
}}"#
    )
}

/// The deterministic stream modulo the terminal frame's observational
/// cache counters.
fn strip_cache(line: &str) -> &str {
    line.split(",\"cache\":").next().unwrap()
}

fn local_capture(study: &StudyConfig) -> Vec<String> {
    let mut sink = WireSink::new(Vec::new());
    StudyExecutor::with_threads(2)
        .run(study, &mut sink)
        .unwrap();
    let text = String::from_utf8(sink.into_inner()).unwrap();
    text.lines().map(str::to_owned).collect()
}

fn serve_capture(service: &CampaignService, config: &str) -> Vec<String> {
    let admitted = service.submit(config, 0).expect("config admits");
    let mut cursor = service.events(admitted.session).expect("session exists");
    let mut lines = Vec::new();
    while let Some(line) = cursor.next_line() {
        lines.push(line.to_string());
    }
    assert_eq!(cursor.snapshot().phase, SessionPhase::Finished);
    lines
}

#[test]
fn a_warm_service_simulates_a_repeated_spec_once() {
    let _serial = serial();
    let first = llc_config(r#"{"capacities_mib": [8], "word_bits": 64, "targets": ["ReadEdp"]}"#);
    let second = llc_config(r#"{"capacities_mib": [16], "word_bits": 128, "targets": ["Area"]}"#);
    let service = CampaignService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();

    let before = traffic_memo::stats();
    serve_capture(&service, &first);
    let delta = since(before);
    assert_eq!(
        (delta.misses, delta.hits),
        (1, 0),
        "the first session simulates"
    );

    let before = traffic_memo::stats();
    let served = serve_capture(&service, &second);
    let delta = since(before);
    assert_eq!(
        (delta.misses, delta.hits),
        (0, 1),
        "the second session hits"
    );
    service.join().expect("drains clean");

    // A cold local run of the same config, and one whose traffic the
    // uncached oracle resolved, so that no memo entry is involved.
    let CampaignConfig::Study(mut study) = CampaignConfig::from_json(&second).unwrap() else {
        panic!("a study config");
    };
    let local = local_capture(&study);
    study.traffic = TrafficSpec::Explicit {
        patterns: study.traffic.resolve().unwrap(),
    };
    let oracle = local_capture(&study);
    for (label, reference) in [("local", local), ("oracle traffic", oracle)] {
        assert_eq!(
            served.len(),
            reference.len(),
            "{label}: frame counts differ"
        );
        for (i, (a, b)) in served.iter().zip(&reference).enumerate() {
            assert_eq!(strip_cache(a), strip_cache(b), "{label}: frame {i} differs");
        }
    }
}
