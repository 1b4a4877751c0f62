//! The process-wide traffic memo (`core::traffic_memo`).
//!
//! A memoized resolve must be bit-identical to the uncached oracle,
//! `TrafficSpec::resolve`, at any lane count; one BFS must serve a graph at
//! every edge rate; one checkpointed LLC request must fill every length it
//! asks for; failures must not be cached; the bound must evict; and a warm
//! `CampaignService` must simulate a repeated `spec_llc` spec once, still
//! streaming what a cold local run streams. The counters count entry
//! lookups: one per LLC profile and length, one per graph. This suite is
//! its own test binary because the memo and its counters are
//! process-wide: every test here holds `SERIAL` and reads counter deltas.

use std::sync::{Mutex, MutexGuard, PoisonError};

use nvmexplorer_core::config::{CampaignConfig, StudyConfig, TrafficSpec};
use nvmexplorer_core::service::{CampaignService, ServiceConfig, SessionPhase};
use nvmexplorer_core::stream::StudyExecutor;
use nvmexplorer_core::traffic_memo::{self, MemoStats, MAX_ENTRIES};
use nvmexplorer_core::wire::WireSink;
use nvmx_workloads::cache::{run_profile, spec2017_profiles, LlcConfig, LlcTraffic};
use nvmx_workloads::TrafficPattern;

/// Profiles in a `spec_llc` suite, each its own entry per length.
const PROFILES: u64 = 14;

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

/// An LLC run's pattern and miss-rate bits.
fn run_bits(runs: &[LlcTraffic]) -> Vec<((String, u64, u64, u64), u64)> {
    let patterns: Vec<TrafficPattern> = runs.iter().map(|run| run.traffic.clone()).collect();
    (bits(&patterns).into_iter())
        .zip(runs.iter().map(|run| run.miss_rate.to_bits()))
        .collect()
}

fn spec_llc(lookups: u64, seed: u64) -> TrafficSpec {
    TrafficSpec::SpecLlc { lookups, seed }
}

fn facebook(graph: &str) -> TrafficSpec {
    graph_bfs(graph, 5.0e7, 7)
}

fn graph_bfs(graph: &str, edges_per_sec: f64, seed: u64) -> TrafficSpec {
    TrafficSpec::GraphBfs {
        graph: graph.to_owned(),
        edges_per_sec,
        seed,
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
        assert_eq!(
            (delta.misses, delta.hits),
            (PROFILES, 2 * PROFILES),
            "seed {seed}"
        );
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
fn graph_bfs_at_any_edge_rate_costs_one_bfs() {
    let _serial = serial();
    // A seed unused elsewhere in this suite, so the first resolve misses.
    let specs = [
        graph_bfs("facebook", 5.0e7, 11),
        graph_bfs("Facebook", 2.5e8, 11),
        graph_bfs("facebook", 1.0e9, 11),
    ];
    let before = traffic_memo::stats();
    for spec in &specs {
        assert_eq!(
            bits(&traffic_memo::resolve(spec, 2).unwrap()),
            bits(&spec.resolve().unwrap())
        );
    }
    let delta = since(before);
    assert_eq!((delta.misses, delta.hits), (1, 2));
    assert_eq!(delta.entries, before.entries + 1);

    // The counts themselves come from the same entry.
    let before = traffic_memo::stats();
    let counts = traffic_memo::bfs_counts("FACEBOOK", 11).unwrap();
    assert_eq!(since(before).hits, 1);
    assert_eq!(
        bits(&[counts.traffic("BFS", 2.5e8)]),
        bits(&specs[1].resolve().unwrap())
    );
}

#[test]
fn one_checkpointed_request_fills_every_length() {
    let _serial = serial();
    let seed = 2_024;
    let profiles = spec2017_profiles();
    let separate = |length: u64| -> Vec<LlcTraffic> {
        (profiles.iter())
            .map(|profile| run_profile(LlcConfig::default(), profile, length, seed))
            .collect()
    };

    // One request for two lengths: each profile runs once and fills both.
    let before = traffic_memo::stats();
    let runs: Vec<Vec<LlcTraffic>> = (profiles.iter())
        .map(|profile| traffic_memo::llc_profile(profile, &[5_000, 12_000], seed))
        .collect();
    let delta = since(before);
    assert_eq!((delta.misses, delta.hits), (2 * PROFILES, 0));
    assert_eq!(delta.entries, before.entries + 2 * PROFILES as usize);
    for (at, length) in [5_000, 12_000].into_iter().enumerate() {
        let snapshots: Vec<LlcTraffic> = runs.iter().map(|run| run[at].clone()).collect();
        assert_eq!(
            run_bits(&snapshots),
            run_bits(&separate(length)),
            "{length}"
        );
    }

    // Either length alone now hits, as a `spec_llc` spec or as runs.
    for length in [5_000, 12_000] {
        let before = traffic_memo::stats();
        let patterns = traffic_memo::resolve(&spec_llc(length, seed), 2).unwrap();
        let delta = since(before);
        assert_eq!((delta.misses, delta.hits), (0, PROFILES), "{length}");
        assert_eq!(
            bits(&patterns),
            bits(&spec_llc(length, seed).resolve().unwrap())
        );
    }

    // A request that misses one of its lengths runs the profile once more
    // and fills the missing one; the held one is still counted a hit.
    let before = traffic_memo::stats();
    let both = traffic_memo::llc_profile(&profiles[0], &[12_000, 20_000], seed);
    let delta = since(before);
    assert_eq!((delta.misses, delta.hits), (1, 1));
    assert_eq!(
        run_bits(&both),
        run_bits(&[
            run_profile(LlcConfig::default(), &profiles[0], 12_000, seed),
            run_profile(LlcConfig::default(), &profiles[0], 20_000, seed),
        ])
    );
}

#[test]
fn the_bound_evicts_the_oldest_entry() {
    let _serial = serial();
    // One lookup per profile keeps each miss cheap; the seeds are unused
    // elsewhere in this suite. Together the suites overfill the memo by
    // fewer entries than one suite holds, so every older entry and the
    // first `evicted` profiles of the first suite go.
    let suites = MAX_ENTRIES as u64 / PROFILES + 1;
    let evicted = suites * PROFILES - MAX_ENTRIES as u64;
    assert!((1..PROFILES).contains(&evicted));
    let specs: Vec<TrafficSpec> = (0..suites).map(|k| spec_llc(1, 9_000 + k)).collect();
    let before = traffic_memo::stats();
    for spec in &specs {
        traffic_memo::resolve(spec, 1).unwrap();
    }
    let delta = since(before);
    assert_eq!(delta.misses, suites * PROFILES);
    assert_eq!(delta.entries, MAX_ENTRIES);

    // The newest suite is still held, and so are the last profiles of the
    // oldest one.
    let before = traffic_memo::stats();
    traffic_memo::resolve(specs.last().unwrap(), 1).unwrap();
    let delta = since(before);
    assert_eq!((delta.misses, delta.hits), (0, PROFILES));
    let profiles = spec2017_profiles();
    let before = traffic_memo::stats();
    for profile in &profiles[evicted as usize..] {
        traffic_memo::llc_profile(profile, &[1], 9_000);
    }
    let delta = since(before);
    assert_eq!((delta.misses, delta.hits), (0, PROFILES - evicted));

    // Its first profile was evicted and simulates again.
    let before = traffic_memo::stats();
    let again = traffic_memo::llc_profile(&profiles[0], &[1], 9_000);
    let delta = since(before);
    assert_eq!((delta.misses, delta.hits), (1, 0));
    assert_eq!(
        run_bits(&again),
        run_bits(&[run_profile(LlcConfig::default(), &profiles[0], 1, 9_000)])
    );
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
        (PROFILES, 0),
        "the first session simulates"
    );

    let before = traffic_memo::stats();
    let served = serve_capture(&service, &second);
    let delta = since(before);
    assert_eq!(
        (delta.misses, delta.hits),
        (0, PROFILES),
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
