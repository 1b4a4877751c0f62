//! The process-wide resolved-traffic memo.
//!
//! NVMExplorer fixes an application's traffic and sweeps array settings
//! against it (paper Sec. II-A). Two [`TrafficSpec`] variants simulate to
//! get their patterns: `spec_llc` runs the 14-profile LLC suite, and
//! `graph_bfs` builds a social graph and searches it. [`resolve`] keeps
//! their patterns for the life of the process, so a warm
//! [`CampaignService`](crate::service::CampaignService) simulates each
//! such spec once, not once per session. Every engine entry point resolves
//! through it: [`run_study`](crate::sweep::run_study),
//! [`StudyExecutor`](crate::stream::StudyExecutor), service sessions and
//! fault campaigns. `explicit`, `generic_sweep` and `dnn_continuous`
//! resolve directly, with no lookup and no copy.
//!
//! - **Key.** For `spec_llc`, `(lookups, seed)`. For `graph_bfs`, the
//!   lower-cased graph name (names resolve case-insensitively), the seed
//!   and the bits of `edges_per_sec`. Only the traffic section is in the
//!   key, so a session that changes cells, capacities, targets or
//!   constraints still hits. The lane count is not in it either: each LLC
//!   profile is an independent seeded simulation, so the patterns are the
//!   same at every lane count (`config`'s lane-invariance test), and one
//!   entry serves them all.
//! - **Bound.** [`MAX_ENTRIES`] entries; the oldest is evicted first. An
//!   entry holds its patterns: about 1 KB for a `spec_llc` suite (14
//!   patterns), about 100 B for a `graph_bfs` pattern.
//! - **Locking.** The lock is held only to look up, insert and count,
//!   never while simulating. Two sessions that miss the same key at once
//!   both simulate; the first insert wins and the other's copy is dropped.
//!   Both are bit-identical, so which one wins never shows.
//! - **Errors** (an unknown graph name) count as misses and are never
//!   cached.
//!
//! [`TrafficSpec::resolve`] stays uncached: it is the oracle this memo is
//! tested against, and what benchmarks time the simulators through.
//! [`stats`] reads the counters; they stay off the wire, so recording them
//! never changes a result byte.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use nvmx_workloads::traffic::TrafficPattern;

use crate::config::{TrafficSpec, UnknownNameError};

/// How many resolved specs the memo holds before it evicts the oldest.
pub const MAX_ENTRIES: usize = 64;

/// The memo's counters since the process started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Resolves served from the memo.
    pub hits: u64,
    /// Resolves of a memoized variant that simulated (failures included).
    pub misses: u64,
    /// Specs held now, at most [`MAX_ENTRIES`].
    pub entries: usize,
}

/// What identifies a simulated spec's patterns.
#[derive(PartialEq, Eq)]
enum Key {
    SpecLlc {
        lookups: u64,
        seed: u64,
    },
    GraphBfs {
        graph: String,
        seed: u64,
        edges_per_sec: u64,
    },
}

impl Key {
    /// The key of a spec that simulates, `None` for one that does not.
    fn of(spec: &TrafficSpec) -> Option<Self> {
        match spec {
            TrafficSpec::SpecLlc { lookups, seed } => Some(Self::SpecLlc {
                lookups: *lookups,
                seed: *seed,
            }),
            TrafficSpec::GraphBfs {
                graph,
                edges_per_sec,
                seed,
            } => Some(Self::GraphBfs {
                graph: graph.to_ascii_lowercase(),
                seed: *seed,
                edges_per_sec: edges_per_sec.to_bits(),
            }),
            TrafficSpec::Explicit { .. }
            | TrafficSpec::GenericSweep { .. }
            | TrafficSpec::DnnContinuous { .. } => None,
        }
    }
}

struct Memo {
    /// Oldest first.
    entries: VecDeque<(Key, Vec<TrafficPattern>)>,
    hits: u64,
    misses: u64,
}

static MEMO: Mutex<Memo> = Mutex::new(Memo {
    entries: VecDeque::new(),
    hits: 0,
    misses: 0,
});

/// The memo; nothing panics while it is held, so a poisoned lock still
/// guards consistent state.
fn memo() -> MutexGuard<'static, Memo> {
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resolves `spec` as [`TrafficSpec::resolve`] does, simulating across up
/// to `lanes` threads, and serves a `spec_llc` or `graph_bfs` spec the
/// process already resolved from the memo.
///
/// # Errors
///
/// Returns [`UnknownNameError`] for unrecognized model/graph names.
pub fn resolve(spec: &TrafficSpec, lanes: usize) -> Result<Vec<TrafficPattern>, UnknownNameError> {
    let Some(key) = Key::of(spec) else {
        return spec.resolve_on_lanes(lanes);
    };
    {
        let mut memo = memo();
        let hit = (memo.entries.iter())
            .find(|(k, _)| *k == key)
            .map(|(_, patterns)| patterns.clone());
        if let Some(patterns) = hit {
            memo.hits += 1;
            return Ok(patterns);
        }
        memo.misses += 1;
    }
    let patterns = spec.resolve_on_lanes(lanes)?;
    let mut memo = memo();
    if !memo.entries.iter().any(|(k, _)| *k == key) {
        if memo.entries.len() == MAX_ENTRIES {
            memo.entries.pop_front();
        }
        memo.entries.push_back((key, patterns.clone()));
    }
    Ok(patterns)
}

/// The memo's hit and miss counts and its current size.
pub fn stats() -> MemoStats {
    let memo = memo();
    MemoStats {
        hits: memo.hits,
        misses: memo.misses,
        entries: memo.entries.len(),
    }
}
