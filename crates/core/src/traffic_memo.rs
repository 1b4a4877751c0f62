//! The process-wide traffic memo: the LLC and BFS simulations behind
//! simulated traffic, run once per process.
//!
//! NVMExplorer fixes an application's traffic and sweeps array settings
//! against it (paper Sec. II-A). A `spec_llc` spec runs the 14-profile LLC
//! suite and a `graph_bfs` spec builds a social graph and searches it; this
//! memo keeps each profile's [`LlcTraffic`] and each graph's
//! [`KernelCounts`]. Every engine entry point (studies, service sessions,
//! fault campaigns) resolves traffic through [`resolve`], which builds
//! patterns from those entries, so a warm
//! [`CampaignService`](crate::service::CampaignService) simulates each once.
//! Code that needs miss rates or counts reads the same entries through
//! [`llc_profile`] and [`bfs_counts`]. Other traffic resolves directly.
//!
//! - **Key.** An LLC entry is one profile's run, `(profile name, lookups,
//!   seed)`; a BFS entry is `(lower-cased graph name, seed)`. The edge rate
//!   is not in it, since [`KernelCounts::traffic`] derives the pattern at
//!   any rate, and neither is the lane count.
//! - **Checkpoints.** A request for several lengths of one profile that
//!   misses any of them runs one [`run_profile_checkpoints`], which fills
//!   every length.
//! - **Bound.** [`MAX_ENTRIES`], the oldest evicted first.
//! - **Locking.** The lock is never held while simulating. Two sessions
//!   that miss the same key at once both simulate and the first insert
//!   wins; both are bit-identical, so which one wins never shows.
//! - **Errors** (an unknown graph name) count as misses and are never
//!   cached.
//!
//! [`TrafficSpec::resolve`] stays uncached: it is the oracle this memo is
//! tested against. [`stats`] reads the counters, which stay off the wire.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use nvmx_workloads::cache::{
    run_profile_checkpoints, spec2017_profiles, BenchProfile, LlcConfig, LlcTraffic,
};
use nvmx_workloads::graph::KernelCounts;
use nvmx_workloads::traffic::TrafficPattern;

use crate::config::{search_graph, TrafficSpec, UnknownNameError};
use crate::scheduler::run_on_lanes;

/// How many simulation outcomes (one LLC profile at one length, or one
/// graph's BFS) the memo holds before it evicts the oldest: 73 full
/// `spec_llc` suites, about 250 KB (an entry, names included, is about
/// 250 B).
pub const MAX_ENTRIES: usize = 1024;

/// The memo's counters since the process started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Entry lookups served from the memo.
    pub hits: u64,
    /// Entry lookups that found nothing and simulated (failures included).
    pub misses: u64,
    /// Simulations run: one per checkpointed LLC run, however many lengths
    /// it fills, and one per BFS.
    pub simulations: u64,
    /// Entries held now, at most [`MAX_ENTRIES`].
    pub entries: usize,
}

/// What identifies a simulation's outcome.
#[derive(PartialEq, Eq)]
enum Key {
    Llc {
        profile: String,
        lookups: u64,
        seed: u64,
    },
    Bfs {
        graph: String,
        seed: u64,
    },
}

/// A simulation's outcome.
enum Value {
    Llc(LlcTraffic),
    Bfs(KernelCounts),
}

struct Memo {
    /// Oldest first.
    entries: VecDeque<(Key, Value)>,
    hits: u64,
    misses: u64,
    simulations: u64,
}

impl Memo {
    /// The value held under `key`, counted as a hit or a miss.
    fn get(&mut self, key: &Key) -> Option<&Value> {
        let at = self.entries.iter().position(|(k, _)| k == key);
        self.hits += u64::from(at.is_some());
        self.misses += u64::from(at.is_none());
        at.map(|at| &self.entries[at].1)
    }

    /// Holds `value` under `key` unless an entry already does, evicting the
    /// oldest entry at the bound.
    fn insert(&mut self, key: Key, value: Value) {
        if self.entries.iter().any(|(k, _)| *k == key) {
            return;
        }
        if self.entries.len() == MAX_ENTRIES {
            self.entries.pop_front();
        }
        self.entries.push_back((key, value));
    }
}

static MEMO: Mutex<Memo> = Mutex::new(Memo {
    entries: VecDeque::new(),
    hits: 0,
    misses: 0,
    simulations: 0,
});

/// The memo; nothing panics while it is held, so a poisoned lock still
/// guards consistent state.
fn memo() -> MutexGuard<'static, Memo> {
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `profile`'s run through the default 16 MiB LLC, snapshotted after each
/// of `lengths` lookups, exactly as [`run_profile_checkpoints`] gives it.
/// Each length is one entry; a miss on any of them runs the profile once
/// and fills every length.
///
/// # Panics
///
/// Panics when a length misses and `lengths` is not in ascending order.
pub fn llc_profile(profile: &BenchProfile, lengths: &[u64], seed: u64) -> Vec<LlcTraffic> {
    let key = |lookups| Key::Llc {
        profile: profile.name.clone(),
        lookups,
        seed,
    };
    let held: Vec<Option<LlcTraffic>> = {
        let mut memo = memo();
        (lengths.iter())
            .map(|&lookups| match memo.get(&key(lookups)) {
                Some(Value::Llc(run)) => Some(run.clone()),
                _ => None,
            })
            .collect()
    };
    if let Some(held) = held.into_iter().collect() {
        return held;
    }
    let runs = run_profile_checkpoints(LlcConfig::default(), profile, lengths, seed);
    let mut memo = memo();
    memo.simulations += 1;
    for (&lookups, run) in lengths.iter().zip(&runs) {
        memo.insert(key(lookups), Value::Llc(run.clone()));
    }
    runs
}

/// The access counts of a BFS from node 0 on the synthetic social graph
/// `graph` (`"facebook"` or `"wikipedia"`, any case) generated from `seed`.
///
/// # Errors
///
/// Returns [`UnknownNameError`] for an unrecognized graph name.
pub fn bfs_counts(graph: &str, seed: u64) -> Result<KernelCounts, UnknownNameError> {
    let key = Key::Bfs {
        graph: graph.to_ascii_lowercase(),
        seed,
    };
    if let Some(Value::Bfs(counts)) = memo().get(&key) {
        return Ok(counts.clone());
    }
    let counts = search_graph(graph, seed)?;
    let mut memo = memo();
    memo.simulations += 1;
    memo.insert(key, Value::Bfs(counts.clone()));
    Ok(counts)
}

/// Resolves `spec` as [`TrafficSpec::resolve`] does, building a `spec_llc`
/// or `graph_bfs` spec's patterns from the memo's entries. The profiles of
/// a `spec_llc` suite are looked up, and simulated on a miss, across up to
/// `lanes` threads.
///
/// # Errors
///
/// Returns [`UnknownNameError`] for unrecognized model/graph names.
pub fn resolve(spec: &TrafficSpec, lanes: usize) -> Result<Vec<TrafficPattern>, UnknownNameError> {
    match spec {
        TrafficSpec::SpecLlc { lookups, seed } => {
            Ok(run_on_lanes(&spec2017_profiles(), lanes, |_, profile| {
                llc_profile(profile, &[*lookups], *seed)
                    .swap_remove(0)
                    .traffic
            }))
        }
        TrafficSpec::GraphBfs {
            graph,
            edges_per_sec,
            seed,
        } => Ok(vec![
            bfs_counts(graph, *seed)?.traffic("BFS", *edges_per_sec)
        ]),
        TrafficSpec::Explicit { .. }
        | TrafficSpec::GenericSweep { .. }
        | TrafficSpec::DnnContinuous { .. } => spec.resolve(),
    }
}

/// The memo's hit, miss and simulation counts and its current size.
pub fn stats() -> MemoStats {
    let memo = memo();
    MemoStats {
        hits: memo.hits,
        misses: memo.misses,
        simulations: memo.simulations,
        entries: memo.entries.len(),
    }
}
