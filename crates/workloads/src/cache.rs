//! Last-level-cache substrate (paper Sec. IV-C): a trace-driven
//! set-associative write-back LLC fed by synthetic per-benchmark address
//! streams calibrated to SPEC CPU2017-class traffic intensities.
//!
//! The paper simulates a Skylake-like 8-core with Sniper and extracts
//! per-benchmark LLC reads/writes; here the same quantity comes from a real
//! cache model running profile-parameterized streams (substitution
//! documented in DESIGN.md).

use crate::traffic::TrafficPattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Geometry of the simulated LLC (paper: 16 MiB, 16-way, 64 B lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl Default for LlcConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 16 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
        }
    }
}

impl LlcConfig {
    /// Number of sets: zero for a degenerate geometry (no ways, zero-byte
    /// lines, or less capacity than one set), which [`Llc::new`] rejects.
    pub fn sets(&self) -> usize {
        (self.ways as u64)
            .checked_mul(self.line_bytes)
            .filter(|&set_bytes| set_bytes > 0)
            .map_or(0, |set_bytes| (self.capacity_bytes / set_bytes) as usize)
    }
}

/// Access statistics against the LLC *data array* (the quantity an eNVM
/// replacement study needs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcStats {
    /// Lookups that hit and read data.
    pub read_hits: u64,
    /// Lookups that missed (data read comes from DRAM; array write on fill).
    pub misses: u64,
    /// Store hits (array writes).
    pub write_hits: u64,
    /// Dirty-victim writebacks (array reads).
    pub writebacks: u64,
    /// Total lookups processed.
    pub lookups: u64,
}

impl LlcStats {
    /// Array read accesses: data reads on hits + victim reads on writeback.
    pub fn array_reads(&self) -> u64 {
        self.read_hits + self.writebacks
    }

    /// Array write accesses: line fills + store hits.
    pub fn array_writes(&self) -> u64 {
        self.misses + self.write_hits
    }

    /// Miss rate over all lookups.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups as f64
        }
    }
}

/// Occupancy of one way. An empty way's tag is meaningless, so every
/// `u64` stays a valid tag (no sentinel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Empty,
    Clean,
    Dirty,
}

/// A set-associative write-back, write-allocate cache with exact LRU
/// replacement.
///
/// Every access allocates on a miss, reads and writes alike. A miss fills
/// an empty way while the set has one and only then evicts, always the
/// least recently used line, writing it back if dirty. [`LlcStats`]
/// depend only on which lines each set holds, not on their physical way.
///
/// All sets share two flat vectors (tags and line states), `ways` slots
/// per set, each set kept in recency order with the most recent line first
/// and its empty ways at the tail. A hit rotates its line to the front; a
/// miss shifts the set down one slot and drops the last, which is either
/// empty or the LRU line — so neither path needs a victim scan.
#[derive(Debug, Clone)]
pub struct Llc {
    config: LlcConfig,
    sets: u64,
    tags: Vec<u64>,
    states: Vec<LineState>,
    stats: LlcStats,
}

impl Llc {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when the geometry has no sets — zero ways, zero-byte lines,
    /// or a capacity below one set (`ways × line_bytes`) — with a message
    /// naming the geometry.
    pub fn new(config: LlcConfig) -> Self {
        let sets = config.sets();
        assert!(
            sets > 0,
            "degenerate LLC geometry: {} B capacity, {} ways, {} B lines \
             (needs at least one way, non-empty lines, and room for one set)",
            config.capacity_bytes,
            config.ways,
            config.line_bytes,
        );
        Self {
            config,
            sets: sets as u64,
            tags: vec![0; sets * config.ways],
            states: vec![LineState::Empty; sets * config.ways],
            stats: LlcStats::default(),
        }
    }

    /// Geometry.
    pub fn config(&self) -> LlcConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> LlcStats {
        self.stats
    }

    /// Empties every set and zeroes the statistics, keeping the allocation.
    fn reset(&mut self) {
        self.states.fill(LineState::Empty);
        self.stats = LlcStats::default();
    }

    /// Processes one access at byte address `addr`.
    pub fn access(&mut self, addr: u64, is_write: bool) {
        self.stats.lookups += 1;
        let line_addr = addr / self.config.line_bytes;
        let ways = self.config.ways;
        let first = (line_addr % self.sets) as usize * ways;
        let tag = line_addr / self.sets;
        let tags = &mut self.tags[first..first + ways];
        let states = &mut self.states[first..first + ways];

        let hit = tags
            .iter()
            .zip(states.iter())
            .position(|(&t, &s)| t == tag && s != LineState::Empty);
        // `last` is the slot the shift toward the back overwrites: the hit
        // line's own, or on a miss the tail, whose empty or LRU line drops.
        let (last, state) = match hit {
            Some(way) if is_write => {
                self.stats.write_hits += 1;
                (way, LineState::Dirty)
            }
            Some(way) => {
                self.stats.read_hits += 1;
                (way, states[way])
            }
            None => {
                self.stats.misses += 1;
                if states[ways - 1] == LineState::Dirty {
                    self.stats.writebacks += 1;
                }
                let state = if is_write {
                    LineState::Dirty
                } else {
                    LineState::Clean
                };
                (ways - 1, state)
            }
        };
        tags.copy_within(..last, 1);
        states.copy_within(..last, 1);
        tags[0] = tag;
        states[0] = state;
    }
}

/// A SPEC-class synthetic benchmark profile.
///
/// The address stream mixes sequential streaming through a large footprint
/// with Zipf-biased revisits to a hot region — enough structure to give each
/// profile a distinct LLC hit/writeback personality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchProfile {
    /// Benchmark name (SPEC-like).
    pub name: String,
    /// Total memory footprint, bytes.
    pub footprint_bytes: u64,
    /// Fraction of accesses that revisit the hot region.
    pub hot_fraction: f64,
    /// Hot-region size, bytes.
    pub hot_bytes: u64,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
    /// LLC lookups per second of simulated execution (per-core L2-miss
    /// stream aggregated over the 8-core system).
    pub lookups_per_sec: f64,
}

/// The synthetic SPECrate 2017 profile suite (intmarks + fpmarks), spanning
/// the traffic envelope the paper reports: `mcf`/`lbm`-class benchmarks
/// hammer the LLC, `leela`/`exchange2`-class ones barely touch it.
pub fn spec2017_profiles() -> Vec<BenchProfile> {
    fn p(
        name: &str,
        footprint_mb: u64,
        hot_fraction: f64,
        hot_mb: u64,
        write_fraction: f64,
        lookups_per_sec: f64,
    ) -> BenchProfile {
        BenchProfile {
            name: format!("SPEC-{name}"),
            footprint_bytes: footprint_mb * 1024 * 1024,
            hot_fraction,
            hot_bytes: hot_mb * 1024 * 1024,
            write_fraction,
            lookups_per_sec,
        }
    }
    vec![
        p("mcf", 1024, 0.55, 12, 0.28, 4.0e8),
        p("lbm", 512, 0.30, 8, 0.45, 3.5e8),
        p("omnetpp", 256, 0.55, 14, 0.30, 2.2e8),
        p("cactuBSSN", 768, 0.35, 12, 0.35, 2.0e8),
        p("bwaves", 896, 0.30, 10, 0.20, 2.6e8),
        p("gcc", 128, 0.60, 12, 0.25, 1.2e8),
        p("xalancbmk", 192, 0.55, 12, 0.22, 1.5e8),
        p("wrf", 384, 0.40, 10, 0.30, 1.1e8),
        p("x264", 96, 0.70, 10, 0.35, 7.0e7),
        p("perlbench", 64, 0.75, 8, 0.30, 5.0e7),
        p("deepsjeng", 48, 0.80, 7, 0.25, 3.5e7),
        p("xz", 256, 0.50, 12, 0.40, 9.0e7),
        p("leela", 24, 0.90, 6, 0.20, 8.0e6),
        p("exchange2", 8, 0.95, 4, 0.15, 1.5e6),
    ]
}

/// Per-benchmark LLC traffic extracted from simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlcTraffic {
    /// Profile name.
    pub name: String,
    /// Resulting array-level traffic pattern.
    pub traffic: TrafficPattern,
    /// Observed miss rate.
    pub miss_rate: f64,
}

/// Runs `profile` through an LLC of `config` for `lookups` simulated
/// accesses and scales the counts to sustained traffic.
pub fn run_profile(
    config: LlcConfig,
    profile: &BenchProfile,
    lookups: u64,
    seed: u64,
) -> LlcTraffic {
    simulate(&mut Llc::new(config), profile, lookups, seed)
}

/// [`run_profile`] on a caller-owned, empty `llc`.
fn simulate(llc: &mut Llc, profile: &BenchProfile, lookups: u64, seed: u64) -> LlcTraffic {
    let config = llc.config();
    let mut rng = StdRng::seed_from_u64(seed);
    let lines_in_footprint = (profile.footprint_bytes / config.line_bytes).max(1);
    let lines_in_hot = (profile.hot_bytes / config.line_bytes).max(1);
    let mut stream_pos: u64 = 0;

    for _ in 0..lookups {
        let is_write = rng.gen_bool(profile.write_fraction);
        let addr = if rng.gen_bool(profile.hot_fraction) {
            // Zipf-flavored hot-region revisit: bias toward low line ids.
            let u: f64 = rng.gen_range(0.0f64..1.0);
            let line = ((u * u) * lines_in_hot as f64) as u64;
            line * config.line_bytes
        } else {
            // Streaming through the cold footprint.
            stream_pos = (stream_pos + 1) % lines_in_footprint;
            (lines_in_hot + stream_pos) % lines_in_footprint * config.line_bytes
        };
        llc.access(addr, is_write);
    }

    let stats = llc.stats();
    let seconds_simulated = lookups as f64 / profile.lookups_per_sec;
    LlcTraffic {
        name: profile.name.clone(),
        traffic: TrafficPattern::new(
            profile.name.clone(),
            stats.array_reads() as f64 * config.line_bytes as f64 / seconds_simulated,
            stats.array_writes() as f64 * config.line_bytes as f64 / seconds_simulated,
            config.line_bytes,
        ),
        miss_rate: stats.miss_rate(),
    }
}

/// Runs the full SPEC-like suite against the default 16 MiB LLC.
pub fn spec2017_llc_traffic(lookups_per_benchmark: u64, seed: u64) -> Vec<LlcTraffic> {
    let mut llc = Llc::new(LlcConfig::default());
    spec2017_profiles()
        .iter()
        .map(|p| {
            llc.reset();
            simulate(&mut llc, p, lookups_per_benchmark, seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_16mib_16way() {
        let c = LlcConfig::default();
        assert_eq!(c.sets(), 16 * 1024);
        assert_eq!(
            c.sets() as u64 * c.ways as u64 * c.line_bytes,
            16 * 1024 * 1024
        );
    }

    #[test]
    fn repeated_access_hits() {
        let mut llc = Llc::new(LlcConfig::default());
        llc.access(0x1000, false);
        llc.access(0x1000, false);
        llc.access(0x1000, false);
        let s = llc.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.read_hits, 2);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let config = LlcConfig {
            capacity_bytes: 2 * 64,
            ways: 1,
            line_bytes: 64,
        };
        let mut llc = Llc::new(config);
        llc.access(0, true); // set 0, dirty
        llc.access(2 * 64, false); // same set (2 sets), evicts dirty line
        let s = llc.stats();
        assert_eq!(s.writebacks, 1);
    }

    #[test]
    fn lru_keeps_recent_line() {
        let config = LlcConfig {
            capacity_bytes: 4 * 64,
            ways: 2,
            line_bytes: 64,
        };
        let mut llc = Llc::new(config);
        // Two lines in set 0 (2 sets → stride 128).
        llc.access(0, false);
        llc.access(256, false);
        llc.access(0, false); // refresh line 0
        llc.access(512, false); // evicts line 256, not 0
        llc.access(0, false);
        // Hits: third access (0) and final access (0).
        assert_eq!(llc.stats().read_hits, 2);
        assert_eq!(llc.stats().misses, 3);
    }

    #[test]
    fn small_working_set_mostly_hits() {
        let profile = BenchProfile {
            name: "tiny".into(),
            footprint_bytes: 4 * 1024 * 1024,
            hot_fraction: 0.9,
            hot_bytes: 2 * 1024 * 1024,
            write_fraction: 0.2,
            lookups_per_sec: 1.0e7,
        };
        let result = run_profile(LlcConfig::default(), &profile, 200_000, 1);
        assert!(result.miss_rate < 0.35, "miss rate {}", result.miss_rate);
    }

    #[test]
    fn huge_streaming_working_set_mostly_misses() {
        let profile = BenchProfile {
            name: "stream".into(),
            footprint_bytes: 1024 * 1024 * 1024,
            hot_fraction: 0.05,
            hot_bytes: 1024 * 1024,
            write_fraction: 0.2,
            lookups_per_sec: 1.0e8,
        };
        let result = run_profile(LlcConfig::default(), &profile, 200_000, 1);
        assert!(result.miss_rate > 0.5, "miss rate {}", result.miss_rate);
    }

    #[test]
    fn suite_spans_two_orders_of_traffic() {
        let results = spec2017_llc_traffic(100_000, 3);
        assert_eq!(results.len(), 14);
        let rates: Vec<f64> = results
            .iter()
            .map(|r| r.traffic.read_bytes_per_sec)
            .collect();
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 30.0, "span {min}..{max}");
    }

    #[test]
    fn deterministic_runs() {
        let p = &spec2017_profiles()[0];
        let a = run_profile(LlcConfig::default(), p, 50_000, 9);
        let b = run_profile(LlcConfig::default(), p, 50_000, 9);
        assert_eq!(a, b);
    }
}
