//! Inputs several experiments share, computed once per process, and the
//! one front door through which every experiment but Fig. 4 gets its
//! arrays and evaluations: [`study`].
//!
//! Each workload memo keeps only small derived values (traffic rates,
//! access counts), never the caches or graphs that produced them, and
//! each value is exactly what an experiment would compute on its own. The
//! subarray cache behind [`study`] is the engine's own, which never
//! changes a result. So every artifact is byte-identical whichever
//! experiment asks first, and a standalone `fig*` binary matches `all`.

use nvmexplorer_core::accuracy;
use nvmexplorer_core::config::{
    ArraySettings, CellSelection, Constraints, OutputSpec, StoreSpec, StudyConfig, TrafficSpec,
};
use nvmexplorer_core::eval::Evaluation;
use nvmexplorer_core::scheduler::run_on_lanes;
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmexplorer_core::sweep::StudyResult;
use nvmx_celldb::CellDefinition;
use nvmx_nvsim::{ArrayCharacterization, OptimizationTarget, SubarrayCache};
use nvmx_units::{BitsPerCell, Capacity};
use nvmx_workloads::cache::{
    run_profile_checkpoints, spec2017_profiles, BenchProfile, LlcConfig, LlcTraffic,
};
use nvmx_workloads::graph::{facebook_like, wikipedia_like, Graph, KernelCounts};
use nvmx_workloads::TrafficPattern;
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

/// The process-wide subarray cache every [`study`] runs through, so the
/// whole suite characterizes each (cell, node, depth) slab once.
pub fn cache() -> &'static SubarrayCache {
    static CACHE: OnceLock<SubarrayCache> = OnceLock::new();
    CACHE.get_or_init(SubarrayCache::new)
}

/// Runs `config` on the production engine (the one `run`, `nvmx-serve` and
/// `nvmx-coordinator` share) through the shared [`cache`], panicking on
/// error: experiment configs are known-good.
pub fn study(config: &StudyConfig) -> StudyResult {
    (StudyExecutor::new()
        .cache(cache())
        .run(config, &mut NullSink))
    .unwrap_or_else(|e| panic!("study `{}`: {e}", config.name))
}

/// A ReadEDP-optimized SLC study of `cells` at each of `capacities_mib` and
/// `word_bits` under explicit `patterns`: every study an experiment builds
/// in code. Callers fill the patterns from the memos here, so the engine
/// never simulates a workload a second time.
pub fn read_edp_study(
    name: &str,
    cells: CellSelection,
    capacities_mib: &[u64],
    word_bits: u64,
    patterns: Vec<TrafficPattern>,
) -> StudyConfig {
    let mut capacities_mib = capacities_mib.to_vec();
    capacities_mib.sort_unstable();
    capacities_mib.dedup();
    StudyConfig {
        name: name.to_owned(),
        cells,
        array: ArraySettings {
            capacities_mib,
            word_bits,
            bits_per_cell: vec![BitsPerCell::Slc],
            targets: vec![OptimizationTarget::ReadEdp],
            ..ArraySettings::default()
        },
        traffic: TrafficSpec::Explicit { patterns },
        constraints: Constraints::default(),
        output: OutputSpec::default(),
        store: StoreSpec::default(),
    }
}

/// A cell selection of exactly `cells`, in that order.
pub fn only_cells(cells: Vec<CellDefinition>) -> CellSelection {
    CellSelection {
        technologies: None,
        tentpoles: false,
        reference_rram: false,
        sram_baseline: false,
        back_gated_fefet: false,
        custom: cells,
    }
}

/// The array and evaluations of a [`study`]'s design point, panicking when
/// the study skipped the point or does not list it.
pub fn design<'r>(
    result: &'r StudyResult,
    cell: &str,
    capacity_mib: u64,
    bits_per_cell: BitsPerCell,
    target: OptimizationTarget,
) -> (&'r ArrayCharacterization, &'r [Evaluation]) {
    let capacity = Capacity::from_mebibytes(capacity_mib);
    (result.design(cell, capacity, bits_per_cell, target))
        .unwrap_or_else(|| panic!("study `{}` has no {cell} design at {capacity}", result.name))
}

/// `cell`'s design at `capacity_mib` in a [`read_edp_study`] result.
pub fn read_edp<'r>(
    result: &'r StudyResult,
    cell: &str,
    capacity_mib: u64,
) -> (&'r ArrayCharacterization, &'r [Evaluation]) {
    design(
        result,
        cell,
        capacity_mib,
        BitsPerCell::Slc,
        OptimizationTarget::ReadEdp,
    )
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

static SPEC_SUITES: OnceLock<SpecSuites> = OnceLock::new();

/// One profile's run, snapshotted at each of [`SPEC_LOOKUPS`].
fn spec_run(profile: &BenchProfile) -> Vec<LlcTraffic> {
    run_profile_checkpoints(LlcConfig::default(), profile, &SPEC_LOOKUPS, SPEC_SEED)
}

/// [`SpecSuites`] from the [`spec_run`]s of [`spec2017_profiles`], in
/// profile order.
fn spec_suites_from(runs: impl IntoIterator<Item = Vec<LlcTraffic>>) -> SpecSuites {
    let (fig14, fig9) = runs
        .into_iter()
        .map(|snapshots| {
            let [fig14, fig9]: [LlcTraffic; 2] =
                snapshots.try_into().expect("one snapshot per length");
            (fig14, fig9)
        })
        .unzip();
    SpecSuites { fig14, fig9 }
}

/// The memoized [`SpecSuites`]. Each profile runs once, is snapshotted at
/// both lengths (the shorter run is a prefix of the longer one), and the
/// profiles are spread over [`lanes`].
pub fn spec_suites() -> &'static SpecSuites {
    SPEC_SUITES.get_or_init(|| {
        spec_suites_from(run_on_lanes(&spec2017_profiles(), lanes(), |_, profile| {
            spec_run(profile)
        }))
    })
}

/// BFS from node 0 on the Facebook- and Wikipedia-like graphs, in that
/// order. The graphs are built one at a time and each is dropped once its
/// BFS is counted, so the two are never in memory together. The larger
/// one sets the suite's peak memory: while its CSR is filled, the
/// Wikipedia-like graph holds its attachment pool (7.7 MB, which doubles
/// as the edge list) and the CSR's edge array (15.4 MB).
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

/// One of the independent inputs [`warm_inputs`] builds.
enum Input {
    /// The fault studies' shared classifier (trained once per process).
    Classifier,
    /// [`social_bfs`]: both graphs, one after the other.
    Graphs,
    /// One SPEC profile's [`spec_run`].
    Llc(BenchProfile),
}

/// Fills every shared-input memo at once: [`social_bfs`], the fault
/// studies' classifier and each profile of [`spec_suites`] run as
/// independent jobs over [`lanes`], longest first, so the inputs build
/// side by side instead of one after another as the experiments first ask
/// for them. The SPEC runs fill [`spec_suites`] in profile order; every
/// memo holds exactly what its lazy path would compute. `all` calls this
/// before the first experiment; a standalone `fig*` binary fills only the
/// memos it reads, when it reads them.
pub fn warm_inputs() {
    let jobs: Vec<Input> = [Input::Classifier, Input::Graphs]
        .into_iter()
        .chain(spec2017_profiles().into_iter().map(Input::Llc))
        .collect();
    let runs = run_on_lanes(&jobs, lanes(), |_, job| match job {
        Input::Classifier => {
            accuracy::baseline_accuracy();
            None
        }
        Input::Graphs => {
            social_bfs();
            None
        }
        Input::Llc(profile) => Some(spec_run(profile)),
    });
    SPEC_SUITES.get_or_init(|| spec_suites_from(runs.into_iter().flatten()));
}
