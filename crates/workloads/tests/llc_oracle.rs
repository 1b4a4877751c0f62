//! Equivalence of the production LLC model against a test-only oracle,
//! plus a golden pin of the SPEC-suite traffic.
//!
//! The oracle is a timestamp model: one heap `Vec` per set, each way
//! carrying `{tag, valid, dirty, lru}`, a linear hit scan, and a second
//! scan for the victim (an invalid way first, else the smallest
//! timestamp). It is slow but obviously exact LRU; the production [`Llc`]
//! keeps its sets in recency order instead and must report the same
//! [`LlcStats`] after every access, for every geometry it accepts.

use nvmx_workloads::cache::{spec2017_llc_traffic, Llc, LlcConfig, LlcStats};
use proptest::prelude::*;

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
