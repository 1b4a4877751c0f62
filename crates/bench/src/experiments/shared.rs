//! Inputs several experiments share, computed once per process.
//!
//! Each memo keeps only small derived values (traffic rates, access
//! counts), never the caches or graphs that produced them, and each value
//! is exactly what an experiment would compute on its own. So every
//! artifact is byte-identical whichever experiment asks first, and a
//! standalone `fig*` binary matches `all`.

use nvmexplorer_core::scheduler::run_on_lanes;
use nvmexplorer_core::stream::StudyExecutor;
use nvmx_workloads::cache::{run_profile_checkpoints, spec2017_profiles, LlcConfig, LlcTraffic};
use nvmx_workloads::graph::{facebook_like, wikipedia_like, Graph, KernelCounts};
use std::sync::OnceLock;

/// Seed of the SPEC-class LLC simulations behind Figs. 9 and 14.
const SPEC_SEED: u64 = 17;

/// LLC lookups per SPEC benchmark behind Figs. 14 and 9, in that order.
const SPEC_LOOKUPS: [u64; 2] = [250_000, 400_000];

/// Seed of the synthetic social graphs behind Figs. 8, 11 and 14.
const GRAPH_SEED: u64 = 7;

/// How many threads an experiment spreads its independent kernels over:
/// the sweep engine's default worker count.
pub fn lanes() -> usize {
    StudyExecutor::new().threads()
}

/// The SPEC CPU2017-class suite on the default 16 MiB LLC, at the run
/// lengths of Figs. 14 and 9.
#[derive(Debug)]
pub struct SpecSuites {
    /// 250k lookups per benchmark.
    pub fig14: Vec<LlcTraffic>,
    /// 400k lookups per benchmark.
    pub fig9: Vec<LlcTraffic>,
}

/// The memoized [`SpecSuites`]. Each profile runs once, is snapshotted at
/// both lengths (the shorter run is a prefix of the longer one), and the
/// profiles are spread over [`lanes`].
pub fn spec_suites() -> &'static SpecSuites {
    static MEMO: OnceLock<SpecSuites> = OnceLock::new();
    MEMO.get_or_init(|| {
        let runs = run_on_lanes(&spec2017_profiles(), lanes(), |_, profile| {
            run_profile_checkpoints(LlcConfig::default(), profile, &SPEC_LOOKUPS, SPEC_SEED)
        });
        let (fig14, fig9) = runs
            .into_iter()
            .map(|snapshots| {
                let [fig14, fig9]: [LlcTraffic; 2] =
                    snapshots.try_into().expect("one snapshot per length");
                (fig14, fig9)
            })
            .unzip();
        SpecSuites { fig14, fig9 }
    })
}

/// BFS from node 0 on the Facebook- and Wikipedia-like graphs, in that
/// order. The graphs are built one at a time and each is dropped once its
/// BFS is counted: they are what sets the suite's peak memory.
pub fn social_bfs() -> &'static [KernelCounts; 2] {
    static MEMO: OnceLock<[KernelCounts; 2]> = OnceLock::new();
    MEMO.get_or_init(|| {
        let bfs = |graph: Graph| {
            let (_, counter) = graph.bfs(0);
            KernelCounts::new(&graph, counter)
        };
        [
            bfs(facebook_like(GRAPH_SEED)),
            bfs(wikipedia_like(GRAPH_SEED)),
        ]
    })
}
