//! The campaign service's proof obligations: a session submitted to a
//! *warm* [`CampaignService`] streams the same slot-ordered wire frames —
//! and rebuilds the same [`StudyResult`] — as a cold local run of the
//! identical config, for any config; cancellation and multi-tenant
//! interleaving never perturb other sessions.
//!
//! The one permitted divergence is the terminal frame's observational
//! `cache` object (warm runs see warm counters); everything before it,
//! and every rebuilt-result byte, must match exactly. This is the
//! in-process half of the equivalence bar — `nvmx_bench`'s
//! `serve_equivalence` test proves the same thing over real sockets and
//! processes, and CI's `serve-smoke` job over the shipped binaries.

use nvmexplorer_core::config::CampaignConfig;
use nvmexplorer_core::service::{CampaignService, ServiceConfig, SessionPhase};
use nvmexplorer_core::stream::StudyExecutor;
use nvmexplorer_core::sweep::StudyResult;
use nvmexplorer_core::wire::{replay, WireSink};
use proptest::prelude::*;

fn assert_identical(label: &str, a: &StudyResult, b: &StudyResult) {
    assert_eq!(a.name, b.name, "{label}: names differ");
    assert_eq!(a.arrays, b.arrays, "{label}: arrays differ");
    assert_eq!(a.evaluations, b.evaluations, "{label}: evaluations differ");
    assert_eq!(a.skipped, b.skipped, "{label}: skipped differ");
}

/// The deterministic stream modulo the one observational field: the cache
/// counters on the terminal line (same convention as
/// `jsonl_determinism.rs` and the CI smoke diffs).
fn strip_cache(line: &str) -> &str {
    line.split(",\"cache\":").next().unwrap()
}

/// Runs `config` cold and locally, capturing its full wire stream.
fn local_capture(config: &str) -> Vec<String> {
    let campaign = CampaignConfig::from_json(config).expect("config parses");
    let mut sink = WireSink::new(Vec::new());
    let executor = StudyExecutor::with_threads(2);
    match &campaign {
        CampaignConfig::Study(study) => {
            executor.run(study, &mut sink).expect("local run");
        }
        CampaignConfig::Fault(fault) => {
            executor.run_fault(fault, &mut sink).expect("local run");
        }
    }
    String::from_utf8(sink.into_inner())
        .expect("wire output is UTF-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// Submits `config` and drains the session's event log.
fn serve_capture(service: &CampaignService, config: &str) -> Vec<String> {
    let admitted = service.submit(config, 0).expect("config admits");
    let mut cursor = service.events(admitted.session).expect("session exists");
    let mut lines = Vec::new();
    while let Some(line) = cursor.next_line() {
        lines.push(line.to_string());
    }
    let snapshot = cursor.snapshot();
    assert_eq!(
        snapshot.phase,
        SessionPhase::Finished,
        "session must finish clean ({:?})",
        snapshot.error
    );
    lines
}

/// Asserts two captures are identical modulo the terminal cache object,
/// and that both replay to byte-identical results.
fn assert_equivalent(label: &str, local: &[String], served: &[String]) {
    assert_eq!(local.len(), served.len(), "{label}: frame counts differ");
    for (i, (a, b)) in local.iter().zip(served).enumerate() {
        assert_eq!(
            strip_cache(a),
            strip_cache(b),
            "{label}: frame {i} differs beyond the cache object"
        );
    }
    let a = replay(std::io::Cursor::new(local.join("\n"))).expect("local capture replays");
    let b = replay(std::io::Cursor::new(served.join("\n"))).expect("served capture replays");
    assert_identical(label, &a.result, &b.result);
}

const QUICK: &str = r#"{
    "name": "serve-eq",
    "cells": {"technologies": ["Stt", "Rram"],
              "reference_rram": false, "sram_baseline": false},
    "array": {"capacities_mib": [2], "word_bits": 64, "targets": ["ReadEdp"]},
    "traffic": {"kind": "explicit", "patterns": [
        {"name": "t", "read_bytes_per_sec": 1.0e9,
         "write_bytes_per_sec": 1.0e7, "access_bytes": 64}]}
}"#;

const MULTI_CAPACITY: &str = r#"{
    "name": "serve-eq-multi",
    "cells": {"technologies": ["Stt", "Pcm"],
              "reference_rram": false, "sram_baseline": true},
    "array": {"capacities_mib": [1, 2], "word_bits": 64,
              "bits_per_cell": ["Slc", "Mlc2"],
              "targets": ["ReadEdp", "Area"]},
    "traffic": {"kind": "explicit", "patterns": [
        {"name": "read-heavy", "read_bytes_per_sec": 2.0e9,
         "write_bytes_per_sec": 1.0e7, "access_bytes": 64},
        {"name": "write-heavy", "read_bytes_per_sec": 1.0e8,
         "write_bytes_per_sec": 4.0e8, "access_bytes": 64}]}
}"#;

const FAULT: &str = r#"{
    "name": "serve-eq-fault",
    "cells": {"technologies": ["Rram"],
              "reference_rram": false, "sram_baseline": false},
    "array": {"capacities_mib": [2], "word_bits": 64, "targets": ["ReadEdp"]},
    "traffic": {"kind": "explicit", "patterns": [
        {"name": "t", "read_bytes_per_sec": 1.0e9,
         "write_bytes_per_sec": 1.0e7, "access_bytes": 64}]},
    "fault": {"trials": 2, "seed": 7, "bits_per_cell": ["Slc"],
              "temperatures_c": [25.0, 85.0], "raw_bers": [1.0e-3],
              "tolerance": 0.05}
}"#;

/// Warm sessions — second submission of the same config, and submissions
/// after *other* configs warmed the shared cache — stream byte-identically
/// to a cold local run (modulo the terminal cache object).
#[test]
fn warm_sessions_match_cold_local_runs() {
    let service = CampaignService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    for config in [QUICK, MULTI_CAPACITY, FAULT] {
        let local = local_capture(config);
        let cold = serve_capture(&service, config);
        let warm = serve_capture(&service, config);
        assert_equivalent("cold serve vs local", &local, &cold);
        assert_equivalent("warm serve vs local", &local, &warm);
    }
    let stats = service.join().expect("drains clean");
    assert!(stats.hits > 0, "warm submissions must hit the shared cache");
}

/// Concurrent tenants on multiple lanes: every session's stream is
/// unperturbed by its neighbours.
#[test]
fn concurrent_tenants_stream_unperturbed() {
    let service = CampaignService::start(ServiceConfig {
        workers: 1,
        lanes: 3,
        ..ServiceConfig::default()
    })
    .unwrap();
    let locals: Vec<Vec<String>> = [QUICK, MULTI_CAPACITY, FAULT]
        .iter()
        .map(|c| local_capture(c))
        .collect();
    std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = [QUICK, MULTI_CAPACITY, FAULT]
            .iter()
            .map(|config| scope.spawn(move || serve_capture(service, config)))
            .collect();
        for (local, handle) in locals.iter().zip(handles) {
            let served = handle.join().expect("tenant thread");
            assert_equivalent("concurrent tenant vs local", local, &served);
        }
    });
    service.join().expect("drains clean");
}

/// Cancelling one tenant mid-run never poisons another: the victim ends
/// `cancelled`, the survivor's stream still matches the local reference.
#[test]
fn cancellation_does_not_poison_other_tenants() {
    let service = CampaignService::start(ServiceConfig {
        workers: 1,
        lanes: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let local = local_capture(MULTI_CAPACITY);

    let victim = service.submit(FAULT, 0).expect("admits");
    // Wait until the victim is actually streaming, then cancel mid-run.
    let mut cursor = service.events(victim.session).expect("exists");
    let _first = cursor.next_line();
    assert!(service.cancel(victim.session).expect("known session"));

    let survivor = serve_capture(&service, MULTI_CAPACITY);
    assert_equivalent("survivor vs local", &local, &survivor);

    // The victim reached a terminal state without failing the service.
    while cursor.next_line().is_some() {}
    let phase = cursor.snapshot().phase;
    assert!(
        matches!(phase, SessionPhase::Cancelled | SessionPhase::Finished),
        "victim must end cancelled (or finished, if the race lost), got {phase:?}"
    );
    service.join().expect("drains clean");
}

// ------------------------------------------------------------------ fuzzing

/// A randomized config as raw JSON — the submission path takes text, so
/// the strategy builds the same document a user's config file would hold.
fn arb_config() -> impl Strategy<Value = String> {
    ((1u8..8, 0u8..2), 0u8..2, 1u64..3).prop_map(|((tech_mask, sram), caps, patterns)| {
        let pool = ["Stt", "Rram", "Pcm"];
        let technologies: Vec<String> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| tech_mask & (1 << i) != 0)
            .map(|(_, t)| format!("\"{t}\""))
            .collect();
        let patterns: Vec<String> = (0..patterns)
            .map(|i| {
                format!(
                    r#"{{"name": "p{i}", "read_bytes_per_sec": {}, "write_bytes_per_sec": {}, "access_bytes": 64}}"#,
                    1.0e9 * (i + 1) as f64,
                    1.0e7 * (i + 1) as f64,
                )
            })
            .collect();
        format!(
            r#"{{
                "name": "fuzz-{tech_mask}-{sram}-{caps}",
                "cells": {{"technologies": [{}], "reference_rram": false,
                          "sram_baseline": {}}},
                "array": {{"capacities_mib": [{}], "word_bits": 64,
                          "targets": ["ReadEdp"]}},
                "traffic": {{"kind": "explicit", "patterns": [{}]}}
            }}"#,
            technologies.join(", "),
            sram == 1,
            if caps == 0 { "2" } else { "1, 2" },
            patterns.join(", "),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For *any* config: a warm service session streams identically to a
    /// cold local run, modulo the terminal cache object.
    #[test]
    fn any_config_serves_byte_identically(config in arb_config()) {
        let service = CampaignService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let local = local_capture(&config);
        let cold = serve_capture(&service, &config);
        let warm = serve_capture(&service, &config);
        assert_equivalent("cold serve vs local", &local, &cold);
        assert_equivalent("warm serve vs local", &local, &warm);
        service.join().expect("drains clean");
    }
}
