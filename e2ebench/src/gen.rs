//! Seeded workload inputs. The benchmark's `--seed` moves only what a
//! workload says it moves; the binaries under test see nothing but the
//! config files written here.

use nvmexplorer_core::config::{
    ArraySettings, CellSelection, FaultSpec, FaultStudyConfig, StudyConfig, TrafficSpec,
};
use nvmx_nvsim::OptimizationTarget;
use nvmx_units::BitsPerCell;
use nvmx_workloads::TrafficPattern;
use std::path::{Path, PathBuf};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ROADMAP's large campaign: output-bound (CSV, wire, service).
    CampaignLarge,
    /// 128 seeded capacities under one traffic pattern: DSE-bound.
    CapacityScan,
    /// The 16 paper experiments (`all`), plus a seeded LLC study for the
    /// config-driven paths.
    PaperSuite,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Self; 3] = [Self::CampaignLarge, Self::CapacityScan, Self::PaperSuite];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::CampaignLarge => "campaign_large",
            Self::CapacityScan => "capacity_scan",
            Self::PaperSuite => "paper_suite",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether `--seed` reaches the workload's headline input. The paper
    /// suite's `all` binary takes no input, so its seed only moves the LLC
    /// study the config-driven paths run.
    pub fn seed_moves_headline(self) -> bool {
        self != Self::PaperSuite
    }
}

/// Counts every seed of a workload must produce: the engine's arrays and
/// evaluations, and the wire frames of one full capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Characterized arrays.
    pub arrays: usize,
    /// `(array, traffic)` evaluations.
    pub evaluations: usize,
    /// Frames in the study's wire stream (and lines of its JSONL sink).
    pub frames: u64,
}

impl Expected {
    /// The pinned counts for `workload`.
    pub fn of(workload: Workload) -> Self {
        match workload {
            // 14 cells × 6 capacities × 2 depths × 3 targets, less the 18
            // SLC-only skips, times the 8 × 8 traffic grid.
            Workload::CampaignLarge => Self {
                arrays: 486,
                evaluations: 31_104,
                frames: 31_613,
            },
            // 27 cell/depth pairs × 128 capacities × 3 targets, one pattern.
            Workload::CapacityScan => Self {
                arrays: 10_368,
                evaluations: 10_368,
                frames: 21_125,
            },
            // 14 cells × 3 capacities × 2 depths × 3 targets, less the 9
            // SLC-only skips, times the 14-benchmark LLC suite.
            Workload::PaperSuite => Self {
                arrays: 243,
                evaluations: 3_402,
                frames: 3_659,
            },
        }
    }
}

/// SplitMix64: a tiny, portable, seedable generator, so a seed means the
/// same inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `value` scaled log-uniformly within ×/÷ 2.
    pub fn jitter2(&mut self, value: f64) -> f64 {
        value * 2f64.powf(2.0 * self.unit() - 1.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        // Bias is below 2^-50 for the tiny ranges used here.
        self.next_u64() % n
    }
}

/// FNV-1a over `bytes`: the config fingerprint recorded with each result.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const ALL_TARGETS: [OptimizationTarget; 3] = [
    OptimizationTarget::ReadEdp,
    OptimizationTarget::WriteEdp,
    OptimizationTarget::Area,
];

fn study(name: &str, array: ArraySettings, traffic: TrafficSpec) -> StudyConfig {
    StudyConfig {
        name: name.to_owned(),
        cells: CellSelection::default(),
        array,
        traffic,
        constraints: Default::default(),
        output: Default::default(),
        store: Default::default(),
    }
}

/// The study a workload's config-driven paths run for `seed`.
pub fn study_for(workload: Workload, seed: u64) -> StudyConfig {
    let mut rng = Rng::new(seed);
    match workload {
        Workload::CampaignLarge => study(
            "e2e-campaign-large",
            ArraySettings {
                capacities_mib: vec![1, 2, 4, 8, 16, 32],
                bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
                targets: ALL_TARGETS.to_vec(),
                ..ArraySettings::default()
            },
            TrafficSpec::GenericSweep {
                read_min: rng.jitter2(1.0e8),
                read_max: rng.jitter2(2.0e10),
                read_steps: 8,
                write_min: rng.jitter2(1.0e5),
                write_max: rng.jitter2(1.0e9),
                write_steps: 8,
                access_bytes: 8,
            },
        ),
        Workload::CapacityScan => {
            // 128 distinct capacities out of 1..=256 MiB: a seeded partial
            // Fisher-Yates shuffle, then sorted.
            let mut pool: Vec<u64> = (1..=256).collect();
            for i in 0..128 {
                let j = i + rng.below((pool.len() - i) as u64) as usize;
                pool.swap(i, j);
            }
            let mut capacities = pool[..128].to_vec();
            capacities.sort_unstable();
            study(
                "e2e-capacity-scan",
                ArraySettings {
                    capacities_mib: capacities,
                    bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
                    targets: ALL_TARGETS.to_vec(),
                    ..ArraySettings::default()
                },
                TrafficSpec::Explicit {
                    patterns: vec![TrafficPattern::new(
                        "1 GB/s reads + 10 MB/s writes",
                        1.0e9,
                        10.0e6,
                        64,
                    )],
                },
            )
        }
        // The SPEC-class LLC study behind fig. 9 at LLC-sized capacities;
        // the seed picks the cache simulation's seed.
        Workload::PaperSuite => study(
            "e2e-paper-llc",
            ArraySettings {
                capacities_mib: vec![4, 8, 16],
                bits_per_cell: vec![BitsPerCell::Slc, BitsPerCell::Mlc2],
                targets: ALL_TARGETS.to_vec(),
                ..ArraySettings::default()
            },
            TrafficSpec::SpecLlc {
                lookups: 100_000,
                seed: rng.below(1 << 20),
            },
        ),
    }
}

/// The fixed fault campaign the trace's `fault` layer runs (the
/// `config/fault_quickstart.json` shape).
pub fn fault_campaign() -> FaultStudyConfig {
    let mut base = study(
        "e2e-fault",
        ArraySettings::default(),
        TrafficSpec::Explicit {
            patterns: vec![TrafficPattern::new("1 GB/s reads", 1.0e9, 10.0e6, 64)],
        },
    );
    base.constraints.max_power_w = Some(0.5);
    FaultStudyConfig {
        study: base,
        fault: FaultSpec {
            trials: 2,
            seed: 7,
            bits_per_cell: vec![BitsPerCell::Slc],
            temperatures_c: vec![25.0, 85.0],
            raw_bers: vec![1.0e-3],
            tolerance: 0.05,
        },
    }
}

/// The traffic specs the paper figures resolve (fig. 9's LLC suite,
/// fig. 14's BFS, fig. 6's continuous DNN inference), by span name.
pub fn figure_traffic() -> [(&'static str, TrafficSpec); 3] {
    [
        (
            "workloads.llc",
            TrafficSpec::SpecLlc {
                lookups: 400_000,
                seed: 17,
            },
        ),
        (
            "workloads.bfs",
            TrafficSpec::GraphBfs {
                graph: "facebook".to_owned(),
                edges_per_sec: 5.0e7,
                seed: 7,
            },
        ),
        (
            "workloads.dnn",
            TrafficSpec::DnnContinuous {
                model: "resnet26".to_owned(),
                tasks: 1,
                store_activations: false,
                fps: 60.0,
            },
        ),
    ]
}

/// The config files generated for one run.
#[derive(Debug, Clone)]
pub struct Configs {
    /// The workload's study config, as every path but JSONL reads it.
    pub base: PathBuf,
    /// The same study with an `output.jsonl` sink.
    pub jsonl: PathBuf,
    /// Where the JSONL path's sink writes.
    pub jsonl_out: PathBuf,
    /// The base config's text.
    pub text: String,
    /// FNV-1a of the base config's bytes.
    pub hash: u64,
    /// The study's name (which names its artifacts).
    pub name: String,
}

/// Writes `workload`'s configs for `seed` into `dir`.
///
/// # Errors
///
/// Filesystem errors.
pub fn write_configs(dir: &Path, workload: Workload, seed: u64) -> std::io::Result<Configs> {
    let mut study = study_for(workload, seed);
    let text = study.to_json();
    let base = dir.join("study.json");
    std::fs::write(&base, &text)?;
    let jsonl_out = dir.join("events.jsonl");
    study.output.jsonl = Some(jsonl_out.to_string_lossy().into_owned());
    let jsonl = dir.join("study_jsonl.json");
    std::fs::write(&jsonl, study.to_json())?;
    Ok(Configs {
        base,
        jsonl,
        jsonl_out,
        hash: fnv1a64(text.as_bytes()),
        text,
        name: study.name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmexplorer_core::stream::{NullSink, StudyExecutor};
    use nvmexplorer_core::wire::WireSink;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in Workload::ALL {
            let a = study_for(workload, 11).to_json();
            assert_eq!(a, study_for(workload, 11).to_json(), "{}", workload.name());
            assert_ne!(a, study_for(workload, 12).to_json(), "{}", workload.name());
        }
    }

    #[test]
    fn rng_is_pinned() {
        // SplitMix64's published first output for seed 0.
        assert_eq!(Rng::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let x = rng.jitter2(1.0);
            assert!((0.5..2.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn capacity_scan_draws_128_distinct_capacities() {
        let study = study_for(Workload::CapacityScan, 5);
        let caps = &study.array.capacities_mib;
        assert_eq!(caps.len(), 128);
        assert!(caps.windows(2).all(|w| w[0] < w[1]));
        assert!(caps.iter().all(|c| (1..=256).contains(c)));
    }

    #[test]
    fn configs_round_trip_through_the_campaign_parser() {
        for workload in Workload::ALL {
            let study = study_for(workload, 9);
            let parsed = StudyConfig::from_json(&study.to_json()).unwrap();
            assert_eq!(parsed, study);
        }
    }

    /// Array, evaluation and frame counts are the same for every seed.
    #[test]
    fn counts_do_not_depend_on_the_seed() {
        for workload in Workload::ALL {
            let expected = Expected::of(workload);
            for seed in [0, 1, 977] {
                let study = study_for(workload, seed);
                let mut sink = WireSink::new(std::io::sink());
                let result = StudyExecutor::new().run(&study, &mut sink).unwrap();
                let got = Expected {
                    arrays: result.arrays.len(),
                    evaluations: result.evaluations.len(),
                    frames: sink.frames_written(),
                };
                assert_eq!(got, expected, "{} seed {seed}", workload.name());
            }
        }
        let fault = fault_campaign();
        StudyExecutor::new()
            .run_fault(&fault, &mut NullSink)
            .unwrap();
    }
}
