//! Equivalence of the production LLC model against a test-only oracle,
//! plus a golden pin of the SPEC-suite traffic.
//!
//! The oracle is a timestamp model: one heap `Vec` per set, each way
//! carrying `{tag, valid, dirty, lru}`, a linear hit scan, and a second
//! scan for the victim (an invalid way first, else the smallest
//! timestamp). It is slow but obviously exact LRU; the production [`Llc`]
//! keeps a recency order per set instead (a packed stack up to 16 ways,
//! recency-ordered slots above) and must report the same [`LlcStats`]
//! after every access, for every geometry it accepts. A second oracle,
//! the address stream in its float-draw form feeding the timestamp model,
//! checks `run_profile`'s generator.

use nvmx_workloads::cache::{
    run_profile, run_profile_checkpoints, spec2017_llc_traffic, spec2017_profiles, BenchProfile,
    Llc, LlcConfig, LlcStats, LlcTraffic,
};
use nvmx_workloads::TrafficPattern;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, Default)]
struct OracleLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

struct OracleLlc {
    line_bytes: u64,
    sets: Vec<Vec<OracleLine>>,
    clock: u64,
    stats: LlcStats,
}

impl OracleLlc {
    fn new(config: LlcConfig) -> Self {
        let sets = (config.capacity_bytes / (config.ways as u64 * config.line_bytes)) as usize;
        Self {
            line_bytes: config.line_bytes,
            sets: vec![vec![OracleLine::default(); config.ways]; sets],
            clock: 0,
            stats: LlcStats::default(),
        }
    }

    fn access(&mut self, addr: u64, is_write: bool) {
        self.clock += 1;
        self.stats.lookups += 1;
        let line_addr = addr / self.line_bytes;
        let set_idx = (line_addr % self.sets.len() as u64) as usize;
        let tag = line_addr / self.sets.len() as u64;
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.clock;
            if is_write {
                line.dirty = true;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            return;
        }

        self.stats.misses += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("ways >= 1");
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        *victim = OracleLine {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.clock,
        };
    }
}

/// A random accepted geometry: 1–32 ways, 1–64 B lines, and 1–37 sets
/// (mostly not a power of two). One in four geometries is a single set of
/// one-byte lines, where the tag is the full 64-bit address.
fn geometry() -> impl Strategy<Value = LlcConfig> {
    ((1usize..=32, 1u64..=64), (1u64..=37, 0u8..4, 0u64..64)).prop_map(
        |((ways, line_bytes), (sets, shape, slack))| {
            let (line_bytes, sets) = if shape == 0 {
                (1, 1)
            } else {
                (line_bytes, sets)
            };
            let set_bytes = ways as u64 * line_bytes;
            LlcConfig {
                // Capacity that is not a whole number of sets rounds down.
                capacity_bytes: sets * set_bytes + slack % set_bytes,
                ways,
                line_bytes,
            }
        },
    )
}

/// A read/write stream: each access is a full-range address or, folded
/// into a small window, a revisit (so sets fill, hit, and evict).
fn stream() -> impl Strategy<Value = Vec<(u64, bool, bool)>> {
    prop::collection::vec((any::<u64>(), any::<bool>(), any::<bool>()), 1..1500)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recency_ordered_model_matches_the_timestamp_oracle(
        config in geometry(),
        accesses in stream(),
        window in 1u64..4096,
    ) {
        let mut llc = Llc::new(config);
        let mut oracle = OracleLlc::new(config);
        prop_assert_eq!(llc.config(), config);
        for (i, &(raw, wide, is_write)) in accesses.iter().enumerate() {
            let addr = if wide { raw } else { raw % window };
            llc.access(addr, is_write);
            oracle.access(addr, is_write);
            prop_assert_eq!(llc.stats(), oracle.stats, "diverged at access {} ({:?})", i, config);
        }
    }

    #[test]
    fn full_width_tags_are_not_confused_with_empty_ways(
        ways in 1usize..=32,
        accesses in prop::collection::vec((0u64..8, any::<bool>()), 1..400),
    ) {
        // One set of one-byte lines: the tag is the address itself, so tag
        // 0 and `u64::MAX` are ordinary lines.
        let config = LlcConfig { capacity_bytes: ways as u64, ways, line_bytes: 1 };
        let mut llc = Llc::new(config);
        let mut oracle = OracleLlc::new(config);
        for &(slot, is_write) in &accesses {
            let addr = [0, 1, 2, u64::MAX, u64::MAX - 1, 1 << 63, 3, 4][slot as usize];
            llc.access(addr, is_write);
            oracle.access(addr, is_write);
            prop_assert_eq!(llc.stats(), oracle.stats);
        }
    }
}

/// The address stream in its defining form, feeding the timestamp oracle:
/// per access a float `gen_bool` store flag, a float `gen_bool` hot flag,
/// then either a hot line `⌊u² × hot lines⌋` or the next cold line, stepped
/// and wrapped with `%`. `run_profile` draws the same addresses with
/// integer thresholds and a compare-and-reset wrap.
fn reference_stats(config: LlcConfig, profile: &BenchProfile, lookups: u64, seed: u64) -> LlcStats {
    let mut oracle = OracleLlc::new(config);
    let mut rng = StdRng::seed_from_u64(seed);
    let lines_in_footprint = (profile.footprint_bytes / config.line_bytes).max(1);
    let lines_in_hot = (profile.hot_bytes / config.line_bytes).max(1);
    let mut stream_pos: u64 = 0;
    for _ in 0..lookups {
        let is_write = rng.gen_bool(profile.write_fraction);
        let addr = if rng.gen_bool(profile.hot_fraction) {
            let u: f64 = rng.gen_range(0.0f64..1.0);
            let line = ((u * u) * lines_in_hot as f64) as u64;
            line * config.line_bytes
        } else {
            stream_pos = (stream_pos + 1) % lines_in_footprint;
            (lines_in_hot + stream_pos) % lines_in_footprint * config.line_bytes
        };
        oracle.access(addr, is_write);
    }
    oracle.stats
}

/// A draw probability: 0, 1, the smallest subnormal, a tiny one, or any
/// in `[0, 1)`.
fn fraction() -> impl Strategy<Value = f64> {
    (0u8..5, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => 1.0,
        2 => f64::from_bits(1),
        3 => x * 1e-3,
        _ => x,
    })
}

/// A profile whose footprint and hot region are any byte counts up to
/// 4 MiB, so line counts are mostly not powers of two and the hot region
/// is as often larger than the footprint as not.
fn profile() -> impl Strategy<Value = BenchProfile> {
    (
        (1u64..1 << 22, 1u64..1 << 22),
        (fraction(), fraction()),
        1.0e6f64..1.0e9,
    )
        .prop_map(
            |((footprint_bytes, hot_bytes), (hot_fraction, write_fraction), lookups_per_sec)| {
                BenchProfile {
                    name: "generated".into(),
                    footprint_bytes,
                    hot_fraction,
                    hot_bytes,
                    write_fraction,
                    lookups_per_sec,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn address_stream_matches_the_float_draw_reference(
        config in geometry(),
        profile in profile(),
        (lookups, seed) in (1u64..2000, any::<u64>()),
    ) {
        let stats = reference_stats(config, &profile, lookups, seed);
        let seconds = lookups as f64 / profile.lookups_per_sec;
        let line_bytes = config.line_bytes as f64;
        let expected = LlcTraffic {
            name: profile.name.clone(),
            traffic: TrafficPattern::new(
                profile.name.clone(),
                stats.array_reads() as f64 * line_bytes / seconds,
                stats.array_writes() as f64 * line_bytes / seconds,
                config.line_bytes,
            ),
            miss_rate: stats.miss_rate(),
        };
        let got = run_profile(config, &profile, lookups, seed);
        prop_assert_eq!(traffic_bits(&got), traffic_bits(&expected), "{:?} {:?}", config, profile);
    }
}

#[test]
fn oracle_agrees_on_the_spec_geometry() {
    // The paper geometry (16 MiB, 16-way, 64 B) under a stream that
    // revisits, streams, and conflicts within sets.
    let config = LlcConfig::default();
    let mut llc = Llc::new(config);
    let mut oracle = OracleLlc::new(config);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = match i % 3 {
            0 => (x % (64 << 20)) & !63,
            1 => i * 64,
            _ => (x % 64) * (16 << 20),
        };
        llc.access(addr, x & 8 == 0);
        oracle.access(addr, x & 8 == 0);
    }
    assert_eq!(llc.stats(), oracle.stats);
}

#[test]
#[should_panic(expected = "degenerate LLC geometry: 1024 B capacity, 0 ways, 64 B lines")]
fn zero_ways_panics_naming_the_geometry() {
    Llc::new(LlcConfig {
        capacity_bytes: 1024,
        ways: 0,
        line_bytes: 64,
    });
}

#[test]
#[should_panic(expected = "degenerate LLC geometry: 1024 B capacity, 4 ways, 0 B lines")]
fn zero_line_bytes_panics_naming_the_geometry() {
    Llc::new(LlcConfig {
        capacity_bytes: 1024,
        ways: 4,
        line_bytes: 0,
    });
}

#[test]
#[should_panic(expected = "degenerate LLC geometry: 255 B capacity, 4 ways, 64 B lines")]
fn capacity_below_one_set_panics_naming_the_geometry() {
    Llc::new(LlcConfig {
        capacity_bytes: 255,
        ways: 4,
        line_bytes: 64,
    });
}

#[test]
#[should_panic(expected = "degenerate LLC geometry")]
fn overflowing_set_size_panics_naming_the_geometry() {
    Llc::new(LlcConfig {
        capacity_bytes: u64::MAX,
        ways: usize::MAX,
        line_bytes: 4,
    });
}

/// `f64::to_bits` of `(read_bytes_per_sec, write_bytes_per_sec, miss_rate)`
/// per profile of `spec2017_llc_traffic(100_000, 17)`, recorded from the
/// timestamp model (the oracle above) — never regenerate them from `Llc`.
const GOLDEN_100K_SEED_17: [(&str, u64, u64, u64); 14] = [
    (
        "SPEC-mcf",
        0x41df807400000000,
        0x4215df7cc0000000,
        0x3fec5fd8adab9f56,
    ),
    (
        "SPEC-lbm",
        0x41c3d04400000000,
        0x42143e1160000000,
        0x3fee4467381d7dbf,
    ),
    (
        "SPEC-omnetpp",
        0x41cdec4100000000,
        0x42085b19f0000000,
        0x3fecbbc2b94d9408,
    ),
    (
        "SPEC-cactuBSSN",
        0x41b9a28000000000,
        0x42070a7000000000,
        0x3fee54de7ea5f84d,
    ),
    (
        "SPEC-bwaves",
        0x41c2506100000000,
        0x420dd98bf0000000,
        0x3fee8548a9bcfd4c,
    ),
    (
        "SPEC-gcc",
        0x41c6b19200000000,
        0x41f9c605c0000000,
        0x3febc9320d9945b7,
    ),
    (
        "SPEC-xalancbmk",
        0x41c98c8700000000,
        0x420048da90000000,
        0x3fec5fd8adab9f56,
    ),
    (
        "SPEC-wrf",
        0x41b6058000000000,
        0x41f8d98600000000,
        0x3fed94ee392e1ef7,
    ),
    (
        "SPEC-x264",
        0x41c0791700000000,
        0x41ed42a640000000,
        0x3fe9e7d566cf41f2,
    ),
    (
        "SPEC-perlbench",
        0x41c0356a00000000,
        0x41e3ca2980000000,
        0x3fe83dee78183f92,
    ),
    (
        "SPEC-deepsjeng",
        0x41bd181880000000,
        0x41da1ae5e0000000,
        0x3fe6b352a8438088,
    ),
    (
        "SPEC-xz",
        0x41b43ee900000000,
        0x41f4313b70000000,
        0x3fece685db76b3bc,
    ),
    (
        "SPEC-leela",
        0x41a2886000000000,
        0x41b5405000000000,
        0x3fe3d859c8c9320e,
    ),
    (
        "SPEC-exchange2",
        0x4183aa7e00000000,
        0x418a1c4200000000,
        0x3fdfb645a1cac083,
    ),
];

#[test]
fn spec_suite_traffic_is_pinned_bit_for_bit() {
    let suite = spec2017_llc_traffic(100_000, 17);
    assert_eq!(suite.len(), GOLDEN_100K_SEED_17.len());
    for (got, &(name, read, write, miss)) in suite.iter().zip(&GOLDEN_100K_SEED_17) {
        assert_eq!(got.name, name);
        assert_eq!(
            got.traffic.read_bytes_per_sec.to_bits(),
            read,
            "{name} reads"
        );
        assert_eq!(
            got.traffic.write_bytes_per_sec.to_bits(),
            write,
            "{name} writes"
        );
        assert_eq!(got.miss_rate.to_bits(), miss, "{name} miss rate");
    }
}

/// Short and long run lengths: 1, an intermediate 60k, the pinned 100k,
/// and the lengths the paper figures read (Fig. 14's 250k, Fig. 9's 400k).
const CHECKPOINTS: [u64; 5] = [1, 60_000, 100_000, 250_000, 400_000];

/// `(name, read rate bits, write rate bits, access bytes, miss rate bits)`.
fn traffic_bits(t: &LlcTraffic) -> (&str, u64, u64, u64, u64) {
    (
        &t.name,
        t.traffic.read_bytes_per_sec.to_bits(),
        t.traffic.write_bytes_per_sec.to_bits(),
        t.traffic.access_bytes,
        t.miss_rate.to_bits(),
    )
}

/// Asserts that one checkpointed run of `profile` snapshots exactly what a
/// separate `run_profile` gives at each of `CHECKPOINTS`.
fn assert_checkpoints_match_separate_runs(config: LlcConfig, profile: &BenchProfile, seed: u64) {
    let snapshots = run_profile_checkpoints(config, profile, &CHECKPOINTS, seed);
    assert_eq!(snapshots.len(), CHECKPOINTS.len());
    for (snapshot, &length) in snapshots.iter().zip(&CHECKPOINTS) {
        let separate = run_profile(config, profile, length, seed);
        assert_eq!(
            traffic_bits(snapshot),
            traffic_bits(&separate),
            "{} seed {seed} at {length} lookups ({config:?})",
            profile.name
        );
    }
}

#[test]
fn checkpoints_equal_separate_runs_for_every_profile() {
    let profiles = spec2017_profiles();
    // Profiles are independent; split them over two threads to halve the
    // unoptimized test build's wall time.
    std::thread::scope(|scope| {
        for half in profiles.chunks(profiles.len().div_ceil(2)) {
            scope.spawn(move || {
                for profile in half {
                    for seed in [3, 17, 0xdead_beef] {
                        assert_checkpoints_match_separate_runs(LlcConfig::default(), profile, seed);
                    }
                }
            });
        }
    });
}

#[test]
fn checkpoints_equal_separate_runs_on_a_small_odd_geometry() {
    // 1 MiB, 12-way, 32 B lines: a non-power-of-two set count, and far
    // more evictions and writebacks than the 16 MiB default.
    let config = LlcConfig {
        capacity_bytes: 1 << 20,
        ways: 12,
        line_bytes: 32,
    };
    let profiles = spec2017_profiles();
    for profile in [&profiles[0], &profiles[7], &profiles[13]] {
        assert_checkpoints_match_separate_runs(config, profile, 5);
    }
}

#[test]
fn checkpoints_may_repeat_a_length_and_must_ascend() {
    let profile = &spec2017_profiles()[2];
    let config = LlcConfig::default();
    let twice = run_profile_checkpoints(config, profile, &[5_000, 5_000], 1);
    assert_eq!(traffic_bits(&twice[0]), traffic_bits(&twice[1]));
    assert!(run_profile_checkpoints(config, profile, &[], 1).is_empty());
    let descending =
        std::panic::catch_unwind(|| run_profile_checkpoints(config, profile, &[10, 9], 1));
    assert!(descending.is_err());
}
