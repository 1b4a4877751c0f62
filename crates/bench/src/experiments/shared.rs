//! The one front door through which every experiment but Fig. 4 gets its
//! arrays and evaluations, [`study`], and the paper's simulated traffic.
//!
//! The SPEC LLC suite ([`spec_suite`]) and the social graphs' BFS counts
//! ([`graph_bfs`]) come from core's process-wide [`traffic_memo`], the
//! one place a simulation is memoized; `run`, `nvmx-serve` and the
//! coordinator resolve `spec_llc` and `graph_bfs` traffic through the
//! same entries. The memo keeps only small derived values (traffic rates,
//! miss rates, access counts), never the caches or graphs that produced
//! them, and each value is exactly what a fresh simulation gives. The
//! subarray cache behind [`study`] is the engine's own, which never
//! changes a result either. So every artifact is byte-identical whichever
//! experiment asks first, and a standalone `fig*` binary matches `all`.

use nvmexplorer_core::accuracy;
use nvmexplorer_core::config::{
    ArraySettings, CellSelection, Constraints, OutputSpec, StoreSpec, StudyConfig, TrafficSpec,
};
use nvmexplorer_core::eval::Evaluation;
use nvmexplorer_core::scheduler::run_on_lanes;
use nvmexplorer_core::stream::{NullSink, StudyExecutor};
use nvmexplorer_core::sweep::StudyResult;
use nvmexplorer_core::traffic_memo;
use nvmx_celldb::CellDefinition;
use nvmx_nvsim::{ArrayCharacterization, OptimizationTarget, SubarrayCache};
use nvmx_units::{BitsPerCell, Capacity};
use nvmx_workloads::cache::{spec2017_profiles, BenchProfile, LlcTraffic};
use nvmx_workloads::graph::KernelCounts;
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
/// in code. Callers fill the patterns from [`spec_suite`] and
/// [`graph_bfs`], so no workload is simulated a second time.
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

/// The SPEC CPU2017-class suite on the default 16 MiB LLC after `lookups`
/// per benchmark (250k for Fig. 14, 400k for Fig. 9), in profile order,
/// from core's [`traffic_memo`]. Every call asks for both lengths, so the
/// first one runs each profile once for both and the next one hits.
pub fn spec_suite(lookups: u64) -> Vec<LlcTraffic> {
    let at = (SPEC_LOOKUPS.iter().position(|&length| length == lookups))
        .unwrap_or_else(|| panic!("no SPEC run length of {lookups} lookups"));
    run_on_lanes(&spec2017_profiles(), lanes(), |_, profile| {
        traffic_memo::llc_profile(profile, &SPEC_LOOKUPS, SPEC_SEED).swap_remove(at)
    })
}

/// BFS from node 0 on the Facebook- and Wikipedia-like graphs, in that
/// order, from core's [`traffic_memo`]. The graphs are built one after the
/// other, so the two are never in memory together. The larger one sets the
/// suite's peak memory: while its CSR is filled, the Wikipedia-like graph
/// holds its attachment pool (7.7 MB, which doubles as the edge list) and
/// the CSR's edge array (15.4 MB).
pub fn graph_bfs() -> [KernelCounts; 2] {
    ["facebook", "wikipedia"]
        .map(|graph| traffic_memo::bfs_counts(graph, GRAPH_SEED).expect("a paper graph"))
}

/// One of the independent inputs [`warm_inputs`] builds.
enum Input {
    /// The fault studies' shared classifier (trained once per process).
    Classifier,
    /// [`graph_bfs`]: both graphs, one after the other.
    Graphs,
    /// One SPEC profile at both of [`SPEC_LOOKUPS`].
    Llc(BenchProfile),
}

/// Fills core's [`traffic_memo`] with every simulation the experiments
/// read, and trains the fault studies' classifier: the classifier, both
/// graphs' BFS and each SPEC profile run as independent jobs over
/// [`lanes`], longest first, so the inputs build side by side instead of
/// one after another as the experiments first ask for them. Every entry
/// holds exactly what its lazy path would compute. `all` calls this before
/// the first experiment; a standalone `fig*` binary simulates only what it
/// reads, when it reads it.
pub fn warm_inputs() {
    let jobs: Vec<Input> = [Input::Classifier, Input::Graphs]
        .into_iter()
        .chain(spec2017_profiles().into_iter().map(Input::Llc))
        .collect();
    run_on_lanes(&jobs, lanes(), |_, job| match job {
        Input::Classifier => {
            accuracy::baseline_accuracy();
        }
        Input::Graphs => {
            graph_bfs();
        }
        Input::Llc(profile) => {
            traffic_memo::llc_profile(profile, &SPEC_LOOKUPS, SPEC_SEED);
        }
    });
}
