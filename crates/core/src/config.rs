//! The cross-stack configuration interface (paper Sec. II-A).
//!
//! NVMExplorer's artifact drives everything from JSON configs
//! (`python run.py config/<study>.json`); this module reproduces that
//! interface. A [`StudyConfig`] names the cells to sweep (tentpoles,
//! reference cells, or fully custom definitions), the array-level settings
//! (capacities, word width, node, programming depths, optimization
//! targets), the application traffic, and the constraints used to filter
//! results.

use nvmx_celldb::{custom, tentpole, CellDefinition, TechnologyClass};
use nvmx_nvsim::OptimizationTarget;
use nvmx_units::{BitsPerCell, Capacity, Meters};
use nvmx_workloads::cache::spec2017_llc_traffic;
use nvmx_workloads::dnn::{self, DnnUseCase, StoragePolicy};
use nvmx_workloads::graph;
use nvmx_workloads::traffic::{log_sweep, TrafficPattern};
use serde::{Deserialize, Serialize};

/// A full study specification, loadable from JSON.
///
/// Deliberately *not* `Deserialize`: [`StudyConfig::from_json`] is the one
/// parse path, so every consumer gets the section validation (required
/// sections, unknown-section rejection, per-section error context) — a
/// derived impl would silently default its way past typos.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StudyConfig {
    /// Study name (used in output file names).
    pub name: String,
    /// Which cells to sweep.
    #[serde(default)]
    pub cells: CellSelection,
    /// Array-level settings.
    #[serde(default)]
    pub array: ArraySettings,
    /// Application traffic.
    pub traffic: TrafficSpec,
    /// Result filters.
    #[serde(default)]
    pub constraints: Constraints,
    /// Where this study's results stream while it runs.
    #[serde(default)]
    pub output: OutputSpec,
    /// Persistent characterization store shared across processes.
    #[serde(default)]
    pub store: StoreSpec,
}

/// A parse failure for a study config, carrying the offending section so
/// queue operators get an actionable reject instead of a bare serde error.
#[derive(Debug)]
pub struct ConfigError {
    /// Top-level section (`"name"`, `"traffic"`, …) the error points at,
    /// `None` for document-level problems (syntax errors, wrong root type).
    section: Option<&'static str>,
    source: serde_json::Error,
}

impl ConfigError {
    fn at(section: &'static str, source: serde_json::Error) -> Self {
        Self {
            section: Some(section),
            source,
        }
    }

    fn document(source: serde_json::Error) -> Self {
        Self {
            section: None,
            source,
        }
    }

    /// The top-level config section the error points at, when known.
    pub fn section(&self) -> Option<&'static str> {
        self.section
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.section {
            Some(section) => write!(f, "invalid study config at `{section}`: {}", self.source),
            None => write!(f, "invalid study config: {}", self.source),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The top-level sections of a study config, with whether each is required.
///
/// Must list every field of [`StudyConfig`]. Kept in sync by construction:
/// `from_json` builds the struct from exactly these probes (a new field is
/// a compile error here), and the `json_roundtrip` test fails if an entry
/// is forgotten — `to_json` emits every field, and `from_json` rejects
/// sections not listed below.
const SECTIONS: [(&str, bool); 7] = [
    ("name", true),
    ("cells", false),
    ("array", false),
    ("traffic", true),
    ("constraints", false),
    ("output", false),
    ("store", false),
];

impl StudyConfig {
    /// Parses a study from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the offending top-level section —
    /// missing required fields, unknown sections, and per-section shape
    /// mismatches all point at where to look.
    pub fn from_json(json: &str) -> Result<Self, ConfigError> {
        let value: serde::Value = serde_json::from_str(json).map_err(ConfigError::document)?;
        Self::from_value(&value)
    }

    /// Parses a study from an already-parsed JSON document. The campaign
    /// loader ([`CampaignConfig::from_json`]) strips the `fault` section
    /// and reuses this path, so both config kinds share exactly the same
    /// section validation.
    fn from_value(value: &serde::Value) -> Result<Self, ConfigError> {
        if value.as_object().is_none() {
            return Err(ConfigError::document(serde_json::Error::new(format!(
                "top-level JSON must be an object with `name` and `traffic`, got {}",
                value.kind()
            ))));
        }
        for (key, _) in value.as_object().expect("checked above") {
            if !SECTIONS.iter().any(|(known, _)| known == key) {
                let known = SECTIONS.map(|(name, _)| name).join(", ");
                return Err(ConfigError::document(serde_json::Error::new(format!(
                    "unknown section `{key}` (expected one of: {known})"
                ))));
            }
        }
        for (section, required) in SECTIONS {
            if required && value.get(section).is_none() {
                return Err(ConfigError::at(
                    section,
                    serde_json::Error::new(format!("missing required section `{section}`")),
                ));
            }
        }
        let section = |name: &'static str| value.get(name);
        let traffic: TrafficSpec = parse_section(section("traffic"), "traffic")?.expect("required");
        traffic
            .validate()
            .map_err(|e| ConfigError::at("traffic", e))?;
        let array: ArraySettings = parse_section(section("array"), "array")?.unwrap_or_default();
        array.validate().map_err(|e| ConfigError::at("array", e))?;
        Ok(Self {
            name: parse_section(section("name"), "name")?.expect("required"),
            cells: parse_section(section("cells"), "cells")?.unwrap_or_default(),
            array,
            traffic,
            constraints: parse_section(section("constraints"), "constraints")?.unwrap_or_default(),
            output: parse_section(section("output"), "output")?.unwrap_or_default(),
            store: parse_section(section("store"), "store")?.unwrap_or_default(),
        })
    }

    /// Serializes the study to pretty JSON (the artifact's config format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("StudyConfig is always serializable")
    }
}

/// Fault-campaign settings: which fault models to sweep and how hard to
/// stress each one. Present as a top-level `fault` section in a campaign
/// config (see [`CampaignConfig`]); every field has a default, so
/// `"fault": {}` is the smallest valid campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultSpec {
    /// Injection trials per fault model, 1 to [`MAX_FAULT_TRIALS`]
    /// (checked when a config is parsed).
    pub trials: u32,
    /// Campaign seed; each trial's injection seed is derived from
    /// `(seed, trial slot)` ([`crate::fault_study::injection_seed`]).
    pub seed: u64,
    /// Programming depths to derive fault models for.
    pub bits_per_cell: Vec<BitsPerCell>,
    /// Operating temperatures (°C) to derive cell fault models at —
    /// retention-vs-temperature scaling per the Arrhenius law.
    pub temperatures_c: Vec<f64>,
    /// Raw bit error rates to sweep in addition to the cell-derived
    /// models (the paper also accepts "an expected error rate" directly).
    /// Each is expanded across `bits_per_cell` at the 25 °C reference.
    pub raw_bers: Vec<f64>,
    /// Maximum tolerated mean-accuracy degradation (baseline − mean).
    pub tolerance: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            trials: 3,
            seed: 0,
            bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
            temperatures_c: vec![25.0],
            raw_bers: Vec::new(),
            tolerance: 0.05,
        }
    }
}

/// The most injection trials a fault campaign may ask for per model,
/// checked when a config is parsed.
pub const MAX_FAULT_TRIALS: u32 = 10000;

impl FaultSpec {
    /// Rejects a trial count outside `1..=MAX_FAULT_TRIALS`.
    fn validate(&self) -> Result<(), serde_json::Error> {
        if (1..=MAX_FAULT_TRIALS).contains(&self.trials) {
            Ok(())
        } else {
            Err(serde_json::Error::new(format!(
                "`trials` must be 1 to {MAX_FAULT_TRIALS}, got {}",
                self.trials
            )))
        }
    }
}

/// A fault campaign: a base study plus the fault sweep riding on it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStudyConfig {
    /// The base sweep study (runs unchanged, streaming the same events).
    pub study: StudyConfig,
    /// The fault sweep.
    pub fault: FaultSpec,
}

impl FaultStudyConfig {
    /// Serializes the campaign to pretty JSON: the study's sections plus
    /// the `fault` section, exactly what [`CampaignConfig::from_json`]
    /// parses back.
    pub fn to_json(&self) -> String {
        let serde::Value::Object(mut fields) = self.study.to_value() else {
            unreachable!("StudyConfig serializes to an object")
        };
        fields.push(("fault".to_owned(), self.fault.to_value()));
        serde_json::to_string_pretty(&serde::Value::Object(fields))
            .expect("FaultStudyConfig is always serializable")
    }
}

/// Either kind of campaign the runner binaries accept: a plain sweep
/// study, or a fault campaign (a study with a top-level `fault` section).
///
/// [`StudyConfig::from_json`] keeps rejecting `fault` as an unknown
/// section — callers that can only run plain studies fail loudly instead
/// of silently dropping the fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignConfig {
    /// A plain sweep study (no `fault` section).
    Study(StudyConfig),
    /// A fault campaign.
    Fault(FaultStudyConfig),
}

impl CampaignConfig {
    /// Parses either campaign kind, dispatching on the presence of a
    /// top-level `fault` section.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending section, exactly like
    /// [`StudyConfig::from_json`] (with `fault` as one more section).
    pub fn from_json(json: &str) -> Result<Self, ConfigError> {
        let value: serde::Value = serde_json::from_str(json).map_err(ConfigError::document)?;
        let Some(obj) = value.as_object() else {
            // Not an object: reuse the study path's document-level error.
            return StudyConfig::from_value(&value).map(Self::Study);
        };
        let Some((_, fault_value)) = obj.iter().find(|(k, _)| k == "fault") else {
            return StudyConfig::from_value(&value).map(Self::Study);
        };
        let fault: FaultSpec =
            serde_json::from_value(fault_value).map_err(|e| ConfigError::at("fault", e))?;
        fault.validate().map_err(|e| ConfigError::at("fault", e))?;
        let rest =
            serde::Value::Object(obj.iter().filter(|(k, _)| k != "fault").cloned().collect());
        let study = StudyConfig::from_value(&rest)?;
        Ok(Self::Fault(FaultStudyConfig { study, fault }))
    }

    /// The base study of either campaign kind.
    pub fn study(&self) -> &StudyConfig {
        match self {
            Self::Study(study) => study,
            Self::Fault(campaign) => &campaign.study,
        }
    }

    /// The campaign name (the base study's name).
    pub fn name(&self) -> &str {
        &self.study().name
    }
}

/// Deserializes one top-level section, wrapping failures with the section
/// name. `Ok(None)` means the section was absent (callers apply defaults).
fn parse_section<T: serde::Deserialize>(
    value: Option<&serde::Value>,
    section: &'static str,
) -> Result<Option<T>, ConfigError> {
    value
        .map(|v| serde_json::from_value(v).map_err(|e| ConfigError::at(section, e)))
        .transpose()
}

/// Where (and how) a study's results stream while it runs — consumed by the
/// sink layer (`nvmx_viz::sink`) and the config-driven runner.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct OutputSpec {
    /// Stream one CSV row per evaluation to this path.
    pub csv: Option<String>,
    /// Stream every study event as a JSON line to this path.
    pub jsonl: Option<String>,
    /// Print a per-target winner summary table when the study finishes.
    pub summary: bool,
}

impl OutputSpec {
    /// `true` when the spec requests no output at all.
    pub fn is_empty(&self) -> bool {
        self.csv.is_none() && self.jsonl.is_none() && !self.summary
    }
}

/// The persistent characterization store a study's subarray cache is
/// backed by (`nvmx_nvsim::store`) — the on-disk L2 that lets cold
/// processes, worker shards, and replays share warm physics. A `--store
/// DIR` flag on the runner binaries overrides this section.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct StoreSpec {
    /// Store directory (created if absent). `None` disables the L2.
    pub dir: Option<String>,
}

impl StoreSpec {
    /// `true` when no store is configured.
    pub fn is_empty(&self) -> bool {
        self.dir.is_none()
    }
}

/// Which cell definitions a study sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct CellSelection {
    /// Technology classes to include (`None` = all validated classes).
    pub technologies: Option<Vec<TechnologyClass>>,
    /// Include the optimistic/pessimistic tentpole pair per class.
    pub tentpoles: bool,
    /// Include the industry RRAM reference cell (paper ref. \[29]).
    pub reference_rram: bool,
    /// Include the 16 nm SRAM baseline.
    pub sram_baseline: bool,
    /// Include the back-gated FeFET co-design cell (paper Sec. V-A).
    pub back_gated_fefet: bool,
    /// Fully custom cell definitions.
    pub custom: Vec<CellDefinition>,
}

impl Default for CellSelection {
    fn default() -> Self {
        Self {
            technologies: None,
            tentpoles: true,
            reference_rram: true,
            sram_baseline: true,
            back_gated_fefet: false,
            custom: Vec::new(),
        }
    }
}

impl CellSelection {
    /// Resolves the selection into concrete cell definitions.
    pub fn resolve(&self) -> Vec<CellDefinition> {
        let wanted = |tech: TechnologyClass| match &self.technologies {
            Some(list) => list.contains(&tech),
            None => tech.is_validated() && tech != TechnologyClass::Sram,
        };
        let mut cells = Vec::new();
        if self.tentpoles {
            cells.extend(
                tentpole::tentpoles(nvmx_celldb::survey::database())
                    .into_iter()
                    .filter(|c| wanted(c.technology)),
            );
        }
        if self.reference_rram {
            cells.push(custom::reference_rram());
        }
        if self.sram_baseline {
            cells.push(custom::sram_16nm());
        }
        if self.back_gated_fefet {
            cells.push(custom::back_gated_fefet());
        }
        cells.extend(self.custom.iter().cloned());
        cells
    }
}

/// Array-level sweep settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ArraySettings {
    /// Capacities in MiB, each 1 to [`MAX_CAPACITY_MIB`] (checked when a
    /// config is parsed).
    pub capacities_mib: Vec<u64>,
    /// Access width in bits.
    pub word_bits: u64,
    /// Process node in nm for eNVM cells (SRAM keeps its native node).
    pub node_nm: f64,
    /// Programming depths to sweep.
    pub bits_per_cell: Vec<BitsPerCell>,
    /// Optimization targets to sweep.
    pub targets: Vec<OptimizationTarget>,
}

/// The largest capacity a study may sweep, in MiB (1 TiB), checked when a
/// config is parsed. A capacity is counted in bits in a `u64`, so 2^41 MiB
/// or more overflows: a release build would silently sweep a different
/// array. 1 TiB is 4096 times the largest array any shipped config sweeps
/// (256 MiB) and still 2^21 times below that overflow.
pub const MAX_CAPACITY_MIB: u64 = 1048576;

impl Default for ArraySettings {
    fn default() -> Self {
        Self {
            capacities_mib: vec![2],
            word_bits: 128,
            node_nm: 22.0,
            bits_per_cell: vec![BitsPerCell::Slc],
            targets: vec![OptimizationTarget::ReadEdp],
        }
    }
}

impl ArraySettings {
    /// Node for a specific cell: eNVMs retarget to the study node, the SRAM
    /// baseline keeps its native (16 nm) node, matching the paper's setup.
    pub fn node_for(&self, cell: &CellDefinition) -> Meters {
        if cell.technology == TechnologyClass::Sram {
            cell.default_node
        } else {
            Meters::from_nano(self.node_nm)
        }
    }

    /// Rejects a capacity of 0 or above [`MAX_CAPACITY_MIB`], and a value
    /// listed twice in `capacities_mib`, `bits_per_cell` or `targets`: the
    /// sweep would run the repeat again and write every one of its rows
    /// twice.
    fn validate(&self) -> Result<(), serde_json::Error> {
        if let Some(mib) =
            (self.capacities_mib.iter()).find(|mib| !(1..=MAX_CAPACITY_MIB).contains(*mib))
        {
            return Err(serde_json::Error::new(format!(
                "`capacities_mib` lists {mib}, outside 1 to {MAX_CAPACITY_MIB} MiB"
            )));
        }
        reject_repeats("capacities_mib", &self.capacities_mib)?;
        reject_repeats("bits_per_cell", &self.bits_per_cell)?;
        reject_repeats("targets", &self.targets)
    }

    /// The capacities as typed values.
    pub fn capacities(&self) -> Vec<Capacity> {
        self.capacities_mib
            .iter()
            .map(|&mib| Capacity::from_mebibytes(mib))
            .collect()
    }
}

/// Fails on the first value of `field` that an earlier one repeats, naming
/// it as the config spells it.
fn reject_repeats<T: PartialEq + std::fmt::Debug>(
    field: &str,
    values: &[T],
) -> Result<(), serde_json::Error> {
    match (values.iter().enumerate()).find(|&(i, value)| values[..i].contains(value)) {
        Some((_, value)) => Err(serde_json::Error::new(format!(
            "`{field}` lists {value:?} more than once"
        ))),
        None => Ok(()),
    }
}

/// Application traffic specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TrafficSpec {
    /// Explicit traffic patterns.
    Explicit {
        /// The patterns to apply.
        patterns: Vec<TrafficPattern>,
    },
    /// A log-spaced generic sweep (paper Sec. IV-B1).
    GenericSweep {
        /// Minimum read rate, bytes/s.
        read_min: f64,
        /// Maximum read rate, bytes/s.
        read_max: f64,
        /// Read-axis steps.
        read_steps: usize,
        /// Minimum write rate, bytes/s.
        write_min: f64,
        /// Maximum write rate, bytes/s.
        write_max: f64,
        /// Write-axis steps.
        write_steps: usize,
        /// Access granularity, bytes.
        access_bytes: u64,
    },
    /// A DNN accelerator use case at a fixed frame rate (paper Sec. IV-A1).
    DnnContinuous {
        /// `"resnet26"`, `"resnet18"`, or `"albert"`.
        model: String,
        /// Concurrent tasks (1 or 3).
        tasks: u64,
        /// Store activations too?
        store_activations: bool,
        /// Frames per second.
        fps: f64,
    },
    /// The SPEC CPU2017-class LLC suite (paper Sec. IV-C).
    SpecLlc {
        /// Simulated lookups per benchmark, 1 to [`MAX_SPEC_LLC_LOOKUPS`]
        /// (traffic is a rate over the simulated time, so zero lookups
        /// would make every rate NaN).
        lookups: u64,
        /// Simulation seed.
        seed: u64,
    },
    /// BFS traffic on a synthetic social graph (paper Sec. IV-B2).
    GraphBfs {
        /// `"facebook"` or `"wikipedia"`.
        graph: String,
        /// Accelerator edge throughput, edges/s.
        edges_per_sec: f64,
        /// Generator seed.
        seed: u64,
    },
}

/// Error resolving a traffic or model name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownNameError {
    /// What kind of name failed to resolve.
    pub kind: &'static str,
    /// The offending name.
    pub name: String,
}

impl std::fmt::Display for UnknownNameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown {}: `{}`", self.kind, self.name)
    }
}

impl std::error::Error for UnknownNameError {}

/// Looks up a paper network by name.
pub fn model_by_name(name: &str) -> Result<dnn::DnnModel, UnknownNameError> {
    match name.to_ascii_lowercase().as_str() {
        "resnet26" => Ok(dnn::resnet26()),
        "resnet18" => Ok(dnn::resnet18()),
        "albert" => Ok(dnn::albert()),
        "albert-embeddings" => Ok(dnn::albert_embeddings_only()),
        other => Err(UnknownNameError {
            kind: "DNN model",
            name: other.to_owned(),
        }),
    }
}

/// The uncached simulation behind `graph_bfs` traffic: BFS from node 0 on
/// the synthetic social graph `name` (`"facebook"` or `"wikipedia"`, any
/// case) generated from `seed`. Only the counts are kept; the graph is
/// dropped once searched.
pub(crate) fn search_graph(name: &str, seed: u64) -> Result<graph::KernelCounts, UnknownNameError> {
    let graph = match name.to_ascii_lowercase().as_str() {
        "facebook" => graph::facebook_like(seed),
        "wikipedia" => graph::wikipedia_like(seed),
        other => {
            return Err(UnknownNameError {
                kind: "graph",
                name: other.to_owned(),
            })
        }
    };
    let (_, counter) = graph.bfs(0);
    Ok(graph::KernelCounts::new(&graph, counter))
}

/// The most patterns a `generic_sweep` may ask for: a cap on
/// `read_steps × write_steps` and on each axis alone, checked when a config
/// is parsed, before anything is allocated.
pub const MAX_SWEEP_PATTERNS: usize = 65536;

/// The most lookups a `spec_llc` spec may simulate per benchmark, checked
/// when a config is parsed: about 50 s of LLC simulation for the 14-profile
/// suite on one lane.
pub const MAX_SPEC_LLC_LOOKUPS: u64 = 100000000;

impl TrafficSpec {
    /// Rejects values that parse but cannot resolve to finite traffic, a
    /// `spec_llc` run longer than [`MAX_SPEC_LLC_LOOKUPS`], and a
    /// `generic_sweep` grid larger than [`MAX_SWEEP_PATTERNS`].
    fn validate(&self) -> Result<(), serde_json::Error> {
        match self {
            Self::SpecLlc { lookups: 0, .. } => Err(serde_json::Error::new(
                "`spec_llc` needs `lookups` >= 1 (zero simulated lookups give NaN traffic rates)",
            )),
            Self::SpecLlc { lookups, .. } if *lookups > MAX_SPEC_LLC_LOOKUPS => {
                Err(serde_json::Error::new(format!(
                    "`spec_llc` asks for {lookups} lookups (capped at {MAX_SPEC_LLC_LOOKUPS})"
                )))
            }
            Self::GenericSweep {
                read_steps,
                write_steps,
                ..
            } if (*read_steps).max(*write_steps) > MAX_SWEEP_PATTERNS
                || read_steps
                    .checked_mul(*write_steps)
                    .is_none_or(|n| n > MAX_SWEEP_PATTERNS) =>
            {
                Err(serde_json::Error::new(format!(
                    "`generic_sweep` asks for {read_steps} × {write_steps} patterns \
                     (each axis and the product are capped at {MAX_SWEEP_PATTERNS})"
                )))
            }
            _ => Ok(()),
        }
    }

    /// Resolves the specification into concrete traffic patterns.
    ///
    /// This is the uncached oracle: it simulates a `spec_llc` suite or a
    /// `graph_bfs` search on every call, on one thread. The engine resolves
    /// through the process-wide [`traffic_memo`](crate::traffic_memo)
    /// instead, which is tested bit-identical to this.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNameError`] for unrecognized model/graph names.
    pub fn resolve(&self) -> Result<Vec<TrafficPattern>, UnknownNameError> {
        match self {
            Self::Explicit { patterns } => Ok(patterns.clone()),
            Self::GenericSweep {
                read_min,
                read_max,
                read_steps,
                write_min,
                write_max,
                write_steps,
                access_bytes,
            } => Ok(log_sweep(
                *read_min,
                *read_max,
                *read_steps,
                *write_min,
                *write_max,
                *write_steps,
                *access_bytes,
            )),
            Self::DnnContinuous {
                model,
                tasks,
                store_activations,
                fps,
            } => {
                let model = model_by_name(model)?;
                let storage = if *store_activations {
                    StoragePolicy::WeightsAndActivations
                } else {
                    StoragePolicy::WeightsOnly
                };
                let use_case = if *tasks > 1 {
                    DnnUseCase::multi(model, storage)
                } else {
                    DnnUseCase::single(model, storage)
                };
                Ok(vec![use_case.continuous_traffic(*fps)])
            }
            Self::SpecLlc { lookups, seed } => Ok(spec2017_llc_traffic(*lookups, *seed)
                .into_iter()
                .map(|run| run.traffic)
                .collect()),
            Self::GraphBfs {
                graph,
                edges_per_sec,
                seed,
            } => Ok(vec![
                search_graph(graph, *seed)?.traffic("BFS", *edges_per_sec)
            ]),
        }
    }
}

/// Result filters (paper Sec. II-C: "filter results in terms of important
/// constraints").
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct Constraints {
    /// Maximum total memory power, watts.
    pub max_power_w: Option<f64>,
    /// Maximum array area, mm².
    pub max_area_mm2: Option<f64>,
    /// Minimum projected lifetime, years.
    pub min_lifetime_years: Option<f64>,
    /// Maximum read latency, ns.
    pub max_read_latency_ns: Option<f64>,
    /// Minimum application accuracy under faults (fraction), enforced by
    /// fault-injection studies.
    pub min_accuracy: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_selection_includes_tentpoles_reference_and_sram() {
        let cells = CellSelection::default().resolve();
        // 6 validated NVM classes × 2 flavors + reference RRAM + SRAM.
        assert_eq!(cells.len(), 14);
        assert!(cells.iter().any(|c| c.technology == TechnologyClass::Sram));
        assert!(!cells.iter().any(|c| c.technology == TechnologyClass::Sot));
    }

    /// The paper's committed configs select the default cells and rely on
    /// them being the study cells, in the same order.
    #[test]
    fn default_selection_is_the_study_cells_in_order() {
        assert_eq!(CellSelection::default().resolve(), tentpole::study_cells());
    }

    #[test]
    fn selection_can_narrow_technologies() {
        let selection = CellSelection {
            technologies: Some(vec![TechnologyClass::Stt]),
            reference_rram: false,
            sram_baseline: false,
            ..CellSelection::default()
        };
        let cells = selection.resolve();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.technology == TechnologyClass::Stt));
    }

    #[test]
    fn json_roundtrip() {
        let config = StudyConfig {
            name: "main_dnn_study".into(),
            cells: CellSelection::default(),
            array: ArraySettings {
                capacities_mib: vec![2],
                ..ArraySettings::default()
            },
            traffic: TrafficSpec::DnnContinuous {
                model: "resnet26".into(),
                tasks: 1,
                store_activations: false,
                fps: 60.0,
            },
            constraints: Constraints {
                max_power_w: Some(0.1),
                ..Constraints::default()
            },
            output: OutputSpec {
                csv: Some("out/results.csv".into()),
                jsonl: None,
                summary: true,
            },
            store: StoreSpec {
                dir: Some("stores/shared".into()),
            },
        };
        let json = config.to_json();
        let parsed = StudyConfig::from_json(&json).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn parse_errors_name_the_offending_section() {
        // Broken traffic section: unknown kind.
        let err = StudyConfig::from_json(r#"{"name": "s", "traffic": {"kind": "quantum_tunnel"}}"#)
            .unwrap_err();
        assert_eq!(err.section(), Some("traffic"));
        assert!(err.to_string().contains("traffic"), "{err}");
        assert!(err.to_string().contains("quantum_tunnel"), "{err}");

        // Wrong type inside the array section.
        let err = StudyConfig::from_json(
            r#"{"name": "s", "array": {"word_bits": "wide"},
                "traffic": {"kind": "spec_llc", "lookups": 10, "seed": 1}}"#,
        )
        .unwrap_err();
        assert_eq!(err.section(), Some("array"));

        // Missing required sections point at themselves.
        let err = StudyConfig::from_json(r#"{"name": "s"}"#).unwrap_err();
        assert_eq!(err.section(), Some("traffic"));
        let err = StudyConfig::from_json("{}").unwrap_err();
        assert_eq!(err.section(), Some("name"));

        // Syntax errors and non-object roots are document-level.
        let err = StudyConfig::from_json("{\"name\": }").unwrap_err();
        assert_eq!(err.section(), None);
        let err = StudyConfig::from_json("[1, 2]").unwrap_err();
        assert!(err.to_string().contains("object"), "{err}");

        // Typos in section names are caught instead of silently ignored.
        let err = StudyConfig::from_json(
            r#"{"name": "s", "trafic": {"kind": "spec_llc", "lookups": 1, "seed": 1}}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("trafic"), "{err}");
    }

    #[test]
    fn zero_spec_llc_lookups_are_rejected_at_the_traffic_section() {
        let zero = r#"{"name": "s", "traffic": {"kind": "spec_llc", "lookups": 0, "seed": 1}}"#;
        let err = StudyConfig::from_json(zero).unwrap_err();
        assert_eq!(err.section(), Some("traffic"));
        assert!(err.to_string().contains("lookups"), "{err}");

        // The campaign loader (every binary and the service) shares the check.
        let err = CampaignConfig::from_json(zero).unwrap_err();
        assert_eq!(err.section(), Some("traffic"));
        let fault = r#"{"name": "s", "fault": {},
            "traffic": {"kind": "spec_llc", "lookups": 0, "seed": 1}}"#;
        let err = CampaignConfig::from_json(fault).unwrap_err();
        assert_eq!(err.section(), Some("traffic"));

        let one = r#"{"name": "s", "traffic": {"kind": "spec_llc", "lookups": 1, "seed": 1}}"#;
        let config = StudyConfig::from_json(one).unwrap();
        let patterns = config.traffic.resolve().unwrap();
        assert!(patterns
            .iter()
            .all(|p| p.read_bytes_per_sec.is_finite() && p.write_bytes_per_sec.is_finite()));
    }

    /// Over-cap `spec_llc` lookups fail at the traffic section when parsed
    /// (this test would simulate for hours if the check came later).
    #[test]
    fn over_cap_spec_llc_lookups_are_rejected_at_the_traffic_section() {
        let spec = |lookups: u64| {
            format!(
                r#"{{"name": "s", "traffic": {{"kind": "spec_llc", "lookups": {lookups}, "seed": 1}}}}"#
            )
        };
        for lookups in [MAX_SPEC_LLC_LOOKUPS + 1, u64::MAX] {
            let err = StudyConfig::from_json(&spec(lookups)).unwrap_err();
            assert_eq!(err.section(), Some("traffic"));
            assert!(err.to_string().contains("lookups"), "{err}");
            let err = CampaignConfig::from_json(&spec(lookups)).unwrap_err();
            assert_eq!(err.section(), Some("traffic"));
        }
        assert!(StudyConfig::from_json(&spec(MAX_SPEC_LLC_LOOKUPS)).is_ok());
    }

    #[test]
    fn fault_trials_outside_one_to_the_cap_are_rejected_at_the_fault_section() {
        let campaign = |trials: u64| {
            format!(
                r#"{{"name": "s", "traffic": {{"kind": "spec_llc", "lookups": 10, "seed": 1}},
                    "fault": {{"trials": {trials}}}}}"#
            )
        };
        for trials in [0, u64::from(MAX_FAULT_TRIALS) + 1, u64::from(u32::MAX)] {
            let err = CampaignConfig::from_json(&campaign(trials)).unwrap_err();
            assert_eq!(err.section(), Some("fault"), "trials {trials}");
            assert!(err.to_string().contains("trials"), "{err}");
        }
        for trials in [1, MAX_FAULT_TRIALS] {
            let CampaignConfig::Fault(parsed) =
                CampaignConfig::from_json(&campaign(u64::from(trials))).unwrap()
            else {
                panic!("a fault section selects the fault campaign kind")
            };
            assert_eq!(parsed.fault.trials, trials);
        }
    }

    /// An oversized `generic_sweep` fails at the traffic section when it is
    /// parsed, so no resolve ever sizes a grid from it.
    #[test]
    fn oversized_generic_sweeps_are_rejected_at_the_traffic_section() {
        let sweep = |read_steps: usize, write_steps: usize| {
            format!(
                r#"{{"name": "s", "traffic": {{"kind": "generic_sweep",
                    "read_min": 1e9, "read_max": 1e10, "read_steps": {read_steps},
                    "write_min": 1e6, "write_max": 1e8, "write_steps": {write_steps},
                    "access_bytes": 8}}}}"#
            )
        };
        let huge = [
            (usize::MAX, usize::MAX),
            (usize::MAX, 2),
            // A zero axis makes an empty grid, but the other axis would still
            // be walked step by step.
            (usize::MAX, 0),
            (0, MAX_SWEEP_PATTERNS + 1),
            (257, 256),
        ];
        for (read_steps, write_steps) in huge {
            for err in [
                StudyConfig::from_json(&sweep(read_steps, write_steps)).unwrap_err(),
                CampaignConfig::from_json(&sweep(read_steps, write_steps)).unwrap_err(),
            ] {
                assert_eq!(
                    err.section(),
                    Some("traffic"),
                    "{read_steps} × {write_steps}"
                );
                assert!(err.to_string().contains("generic_sweep"), "{err}");
            }
        }
        let config = StudyConfig::from_json(&sweep(256, 256)).unwrap();
        assert_eq!(config.traffic.resolve().unwrap().len(), MAX_SWEEP_PATTERNS);
    }

    /// A capacity of 0, or one above the cap (up to where the bit count
    /// overflows and beyond), fails at the array section when parsed.
    #[test]
    fn out_of_range_capacities_are_rejected_at_the_array_section() {
        for mib in [0, MAX_CAPACITY_MIB + 1, (1 << 41) + 1, u64::MAX] {
            assert_array_rejected(
                &format!(r#"{{"capacities_mib": [2, {mib}]}}"#),
                &format!("`capacities_mib` lists {mib}, outside 1 to {MAX_CAPACITY_MIB} MiB"),
            );
        }
        let at_cap = format!(
            r#"{{"name": "s", "array": {{"capacities_mib": [{MAX_CAPACITY_MIB}]}},
                "traffic": {{"kind": "spec_llc", "lookups": 10, "seed": 1}}}}"#
        );
        let config = StudyConfig::from_json(&at_cap).unwrap();
        assert_eq!(config.array.capacities()[0].bytes(), 1 << 40);
        assert!(CampaignConfig::from_json(&at_cap).is_ok());
    }

    /// Asserts that a study whose `array` section is `array` fails at that
    /// section with an error containing `message`, through both loaders.
    fn assert_array_rejected(array: &str, message: &str) {
        let json = format!(
            r#"{{"name": "s", "array": {array},
                "traffic": {{"kind": "spec_llc", "lookups": 10, "seed": 1}}}}"#
        );
        let err = StudyConfig::from_json(&json).unwrap_err();
        assert_eq!(err.section(), Some("array"), "{err}");
        assert!(err.to_string().contains(message), "{err}");
        let campaign = CampaignConfig::from_json(&json).unwrap_err();
        assert_eq!(campaign.to_string(), err.to_string());
    }

    #[test]
    fn a_repeated_capacity_is_rejected_at_the_array_section() {
        assert_array_rejected(
            r#"{"capacities_mib": [2, 4, 2]}"#,
            "`capacities_mib` lists 2 more than once",
        );
    }

    #[test]
    fn a_repeated_programming_depth_is_rejected_at_the_array_section() {
        assert_array_rejected(
            r#"{"bits_per_cell": ["Mlc2", "Slc", "Mlc2"]}"#,
            "`bits_per_cell` lists Mlc2 more than once",
        );
    }

    #[test]
    fn a_repeated_target_is_rejected_at_the_array_section() {
        assert_array_rejected(
            r#"{"targets": ["ReadEdp", "Area", "ReadEdp"]}"#,
            "`targets` lists ReadEdp more than once",
        );
    }

    #[test]
    fn campaign_configs_dispatch_on_the_fault_section() {
        let plain = r#"{"name": "s", "traffic": {"kind": "spec_llc", "lookups": 10, "seed": 1}}"#;
        assert!(matches!(
            CampaignConfig::from_json(plain).unwrap(),
            CampaignConfig::Study(_)
        ));
        // A plain-study parser must keep rejecting the fault section.
        let with_fault = r#"{
            "name": "s",
            "traffic": {"kind": "spec_llc", "lookups": 10, "seed": 1},
            "fault": {"trials": 2, "seed": 9, "raw_bers": [1e-3]}
        }"#;
        assert!(StudyConfig::from_json(with_fault).is_err());
        let CampaignConfig::Fault(campaign) = CampaignConfig::from_json(with_fault).unwrap() else {
            panic!("fault section must select the fault campaign kind")
        };
        assert_eq!(campaign.study.name, "s");
        assert_eq!(campaign.fault.trials, 2);
        assert_eq!(campaign.fault.seed, 9);
        assert_eq!(campaign.fault.raw_bers, vec![1.0e-3]);
        // Defaults fill the omitted fields.
        assert_eq!(campaign.fault.tolerance, 0.05);
        assert_eq!(
            campaign.fault.bits_per_cell,
            vec![BitsPerCell::Slc, BitsPerCell::Mlc2]
        );
        // `"fault": {}` is the smallest valid campaign.
        let minimal = r#"{
            "name": "s",
            "traffic": {"kind": "spec_llc", "lookups": 10, "seed": 1},
            "fault": {}
        }"#;
        let CampaignConfig::Fault(minimal) = CampaignConfig::from_json(minimal).unwrap() else {
            panic!("empty fault section still selects the fault kind")
        };
        assert_eq!(minimal.fault, FaultSpec::default());
    }

    #[test]
    fn campaign_errors_name_the_offending_section() {
        let err = CampaignConfig::from_json(
            r#"{"name": "s", "traffic": {"kind": "spec_llc", "lookups": 1, "seed": 1},
                "fault": {"trials": "many"}}"#,
        )
        .unwrap_err();
        assert_eq!(err.section(), Some("fault"));
        // Study-section errors surface unchanged through the campaign path.
        let err = CampaignConfig::from_json(r#"{"name": "s", "fault": {}}"#).unwrap_err();
        assert_eq!(err.section(), Some("traffic"));
        let err = CampaignConfig::from_json("[1]").unwrap_err();
        assert!(err.to_string().contains("object"), "{err}");
    }

    #[test]
    fn fault_campaign_json_roundtrip() {
        let campaign = FaultStudyConfig {
            study: StudyConfig::from_json(
                r#"{"name": "rt", "traffic": {"kind": "spec_llc", "lookups": 5, "seed": 3}}"#,
            )
            .unwrap(),
            fault: FaultSpec {
                trials: 4,
                seed: 0xDEAD,
                bits_per_cell: vec![BitsPerCell::Mlc2],
                temperatures_c: vec![25.0, 85.0],
                raw_bers: vec![1.0e-4, 1.0e-2],
                tolerance: 0.1,
            },
        };
        let parsed = CampaignConfig::from_json(&campaign.to_json()).unwrap();
        assert_eq!(parsed, CampaignConfig::Fault(campaign));
    }

    #[test]
    fn store_spec_defaults_to_disabled() {
        let study = StudyConfig::from_json(
            r#"{"name": "s", "traffic": {"kind": "spec_llc", "lookups": 10, "seed": 1}}"#,
        )
        .unwrap();
        assert!(study.store.is_empty());
        let with_store = StudyConfig::from_json(
            r#"{
            "name": "s",
            "traffic": {"kind": "spec_llc", "lookups": 10, "seed": 1},
            "store": {"dir": "stores/warm"}
        }"#,
        )
        .unwrap();
        assert_eq!(with_store.store.dir.as_deref(), Some("stores/warm"));
        assert!(!with_store.store.is_empty());
    }

    #[test]
    fn output_spec_defaults_to_empty() {
        let json = r#"{
            "name": "s",
            "traffic": {"kind": "spec_llc", "lookups": 10, "seed": 1}
        }"#;
        let study = StudyConfig::from_json(json).unwrap();
        assert!(study.output.is_empty());
        let with_output = StudyConfig::from_json(
            r#"{
            "name": "s",
            "traffic": {"kind": "spec_llc", "lookups": 10, "seed": 1},
            "output": {"jsonl": "events.jsonl"}
        }"#,
        )
        .unwrap();
        assert_eq!(with_output.output.jsonl.as_deref(), Some("events.jsonl"));
        assert!(!with_output.output.is_empty());
    }

    #[test]
    fn partial_sections_fill_gaps_from_the_containers_default() {
        // A `cells` section that only narrows technologies must keep the
        // container defaults for everything it omits — notably
        // `tentpoles: true`, whose default differs from `bool::default()`
        // (real serde container-default semantics).
        let study = StudyConfig::from_json(
            r#"{
            "name": "s",
            "cells": {"technologies": ["Stt"], "sram_baseline": false, "reference_rram": false},
            "traffic": {"kind": "spec_llc", "lookups": 10, "seed": 1}
        }"#,
        )
        .unwrap();
        assert!(study.cells.tentpoles, "container default must survive");
        assert!(!study.cells.sram_baseline);
        let cells = study.cells.resolve();
        assert_eq!(cells.len(), 2, "STT optimistic + pessimistic tentpoles");
        // Same for a partial `array` section.
        let study = StudyConfig::from_json(
            r#"{
            "name": "s",
            "array": {"capacities_mib": [4]},
            "traffic": {"kind": "spec_llc", "lookups": 10, "seed": 1}
        }"#,
        )
        .unwrap();
        assert_eq!(study.array.capacities_mib, vec![4]);
        assert_eq!(study.array.word_bits, ArraySettings::default().word_bits);
        assert_eq!(study.array.targets, ArraySettings::default().targets);
    }

    #[test]
    fn sram_keeps_native_node() {
        let settings = ArraySettings::default();
        let sram = custom::sram_16nm();
        let stt =
            tentpole::tentpole_cell(TechnologyClass::Stt, nvmx_celldb::CellFlavor::Optimistic)
                .unwrap();
        assert!((settings.node_for(&sram).value() - 16.0e-9).abs() < 1e-15);
        assert!((settings.node_for(&stt).value() - 22.0e-9).abs() < 1e-15);
    }

    #[test]
    fn traffic_specs_resolve() {
        let dnn = TrafficSpec::DnnContinuous {
            model: "resnet26".into(),
            tasks: 3,
            store_activations: true,
            fps: 60.0,
        };
        let patterns = dnn.resolve().unwrap();
        assert_eq!(patterns.len(), 1);
        assert!(patterns[0].write_bytes_per_sec > 0.0);

        let sweep = TrafficSpec::GenericSweep {
            read_min: 1.0e9,
            read_max: 10.0e9,
            read_steps: 3,
            write_min: 1.0e6,
            write_max: 100.0e6,
            write_steps: 3,
            access_bytes: 8,
        };
        assert_eq!(sweep.resolve().unwrap().len(), 9);
    }

    /// The engine resolves `spec_llc` through the memo, simulating a miss
    /// across lanes; each lane count gets its own seed, so each one
    /// simulates rather than hitting another's entry.
    #[test]
    fn spec_llc_resolves_the_same_on_every_lane_count() {
        let bits = |patterns: Vec<TrafficPattern>| -> Vec<(String, u64, u64, u64)> {
            patterns
                .into_iter()
                .map(|p| {
                    (
                        p.name,
                        p.read_bytes_per_sec.to_bits(),
                        p.write_bytes_per_sec.to_bits(),
                        p.access_bytes,
                    )
                })
                .collect()
        };
        for (lanes, seed) in [(1, 29), (2, 30), (16, 31)] {
            let spec = TrafficSpec::SpecLlc {
                lookups: 20_000,
                seed,
            };
            let serial = bits(
                spec2017_llc_traffic(20_000, seed)
                    .into_iter()
                    .map(|t| t.traffic)
                    .collect(),
            );
            assert_eq!(serial.len(), 14);
            assert_eq!(bits(spec.resolve().unwrap()), serial);
            assert_eq!(
                bits(crate::traffic_memo::resolve(&spec, lanes).unwrap()),
                serial,
                "{lanes} lanes"
            );
        }
    }

    #[test]
    fn unknown_model_is_an_error() {
        let bad = TrafficSpec::DnnContinuous {
            model: "vgg".into(),
            tasks: 1,
            store_activations: false,
            fps: 60.0,
        };
        let err = bad.resolve().unwrap_err();
        assert!(err.to_string().contains("vgg"));
    }
}
