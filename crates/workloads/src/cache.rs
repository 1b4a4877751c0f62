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
use rand::{Rng, RngCore, SeedableRng};
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

/// A set-associative write-back, write-allocate cache with exact LRU
/// replacement.
///
/// Every access allocates on a miss, reads and writes alike. A miss fills
/// an empty way while the set has one and only then evicts, always the
/// least recently used line, writing it back if dirty. [`LlcStats`]
/// depend only on which lines each set holds, not on their physical way.
///
/// A byte address becomes a line address, and a line address a (set, tag)
/// pair, by shift and mask when the divisor is a power of two and by `/`
/// and `%` otherwise. [`Llc::new`] picks the set layout from `ways`; no
/// caller chooses it:
///
/// - **Up to 16 ways: a packed recency stack, one cache line per set.** A
///   tag stays in its physical way for as long as its line is cached. The
///   set's 64-byte `PackedSet` holds the low 16 bits of every way's tag,
///   a `u64` recency stack of 4-bit way numbers (most recent in the low
///   nibble), and `u16` `valid` and `dirty` masks. The rest of each tag
///   lives apart and is read only once some tag has needed it, so on the
///   paper's geometry every access touches one line. A hit is a
///   branch-free match mask over all 16 slots, ANDed with `valid`; the
///   victim is the stack's last nibble; a hit or a fill moves its way to
///   the front with one SWAR find-and-shift, and no tag ever moves.
/// - **More than 16 ways: recency-ordered slots.** All sets share two flat
///   vectors (tags and line states), `ways` slots per set, each set in
///   recency order with the most recent line first. A hit rotates its line
///   to the front; a miss shifts the set down one slot and drops the last.
///
/// Both layouts keep the same invariants, which is why neither needs a
/// victim scan:
///
/// - an invalid way's tag is never read as a hit, so it may hold any
///   stale value and every `u64` is a valid tag (no sentinel);
/// - empty ways sit at the recency order's tail, after every valid line,
///   so its last entry is the victim: an empty way while the set has one,
///   else the LRU line;
/// - only a valid line is dirty.
#[derive(Debug, Clone)]
pub struct Llc {
    config: LlcConfig,
    line: Divisor,
    sets: Divisor,
    layout: Layout,
    stats: LlcStats,
}

/// Division by a fixed non-zero divisor: a shift and a mask when it is a
/// power of two, else `/` and `%`.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    value: u64,
    /// `log2(value)` when `value` is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    fn new(value: u64) -> Self {
        Self {
            value,
            shift: value.is_power_of_two().then(|| value.trailing_zeros()),
        }
    }

    /// `(n / value, n % value)`.
    #[inline]
    fn div_rem(self, n: u64) -> (u64, u64) {
        match self.shift {
            Some(shift) => (n >> shift, n & (self.value - 1)),
            None => (n / self.value, n % self.value),
        }
    }
}

/// The per-set state, chosen from the associativity.
#[derive(Debug, Clone)]
enum Layout {
    Packed(PackedSets),
    Ordered(OrderedSets),
}

/// Widest associativity a packed recency stack encodes: 16 4-bit way
/// numbers.
const PACKED_WAYS: usize = 16;

/// One packed set, a cache line to itself: the low 16 bits of each way's
/// tag and the set's recency stack.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct PackedSet {
    /// The low 16 bits of way `w`'s tag, in slot `w`.
    tags: [u16; PACKED_WAYS],
    /// Way numbers from most (low nibble) to least recently used. The
    /// first `ways` nibbles are a permutation of `0..ways`; the rest stay 0.
    order: u64,
    /// Bit `w` set when way `w` holds a line.
    valid: u16,
    /// Bit `w` set when way `w` holds a modified line.
    dirty: u16,
}

/// Sets of at most [`PACKED_WAYS`] ways, with tags fixed in place. Slots
/// past `ways` are never filled.
#[derive(Debug, Clone)]
struct PackedSets {
    sets: Vec<PackedSet>,
    /// The rest of each way's tag (`tag >> 16`): empty until the first tag
    /// with bits above the low 16 arrives, then allocated zeroed, which is
    /// the high half of every tag cached before it.
    high_tags: Vec<[u64; PACKED_WAYS]>,
    /// Bit offset of the stack's last used nibble: `4 × (ways − 1)`.
    tail: u32,
}

/// `0x1111_…_1111`: a 1 in every nibble.
const NIBBLE_ONES: u64 = u64::MAX / 0xF;

/// Bit `w` set when `tags[w] == tag`, compared branch-free.
#[inline(always)]
fn match_mask<T: Copy + Eq>(tags: &[T; PACKED_WAYS], tag: T) -> u16 {
    let mut matches = 0u16;
    for (way, &t) in tags.iter().enumerate() {
        matches |= u16::from(t == tag) << way;
    }
    matches
}

impl PackedSets {
    fn new(sets: usize, ways: usize) -> Self {
        // The identity permutation: way `w` in nibble `w`.
        let order = (0..ways as u64).fold(0, |order, way| order | way << (4 * way));
        let empty = PackedSet {
            tags: [0; PACKED_WAYS],
            order,
            valid: 0,
            dirty: 0,
        };
        Self {
            sets: vec![empty; sets],
            high_tags: Vec::new(),
            tail: 4 * (ways as u32 - 1),
        }
    }

    #[inline(always)]
    fn access(&mut self, set: usize, tag: u64, is_write: bool, stats: &mut LlcStats) {
        let (low, high) = (tag as u16, tag >> 16);
        let (wide, set_count) = (!self.high_tags.is_empty(), self.sets.len());
        let packed = &mut self.sets[set];
        let mut matches = match_mask(&packed.tags, low) & packed.valid;
        if wide {
            matches &= match_mask(&self.high_tags[set], high);
        } else if high != 0 {
            matches = 0;
        }
        // The way to move to the front, and the bit offset of its nibble.
        let (way, depth) = if matches != 0 {
            if is_write {
                stats.write_hits += 1;
            } else {
                stats.read_hits += 1;
            }
            let way = matches.trailing_zeros();
            (way, nibble_offset(packed.order, way))
        } else {
            stats.misses += 1;
            let way = (packed.order >> self.tail) as u32 & 0xF;
            let bit = 1 << way;
            stats.writebacks += u64::from(packed.dirty & bit != 0);
            packed.dirty &= !bit;
            packed.valid |= bit;
            packed.tags[way as usize] = low;
            if wide | (high != 0) {
                if !wide {
                    self.high_tags = vec![[0; PACKED_WAYS]; set_count];
                }
                self.high_tags[set][way as usize] = high;
            }
            (way, self.tail)
        };
        packed.dirty |= u16::from(is_write) << way;
        packed.order = move_to_front(packed.order, way, depth);
    }

    /// Loads the cache line `access` reads for `set`, so that a batch of
    /// touches overlaps its cache misses.
    #[inline]
    fn touch(&self, set: usize) -> u64 {
        self.sets[set].order
    }
}

/// Bit offset of the lowest nibble of `order` equal to `way`, which must
/// occur in it. Flags every nibble of `order ^ way…way` that is zero; a
/// borrow can only flag nibbles above the lowest zero, so the lowest flag
/// is exact.
#[inline]
fn nibble_offset(order: u64, way: u32) -> u32 {
    let x = order ^ (NIBBLE_ONES * u64::from(way));
    let zeros = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
    zeros.trailing_zeros() & !3
}

/// `order` with the nibble at bit offset `depth` (which holds `way`)
/// removed, the nibbles below it shifted up one, and `way` in front.
#[inline]
fn move_to_front(order: u64, way: u32, depth: u32) -> u64 {
    let below = (1u64 << depth) - 1;
    let through = (below << 4) | 0xF;
    (order & !through) | ((order & below) << 4) | u64::from(way)
}

/// Occupancy of one recency-ordered slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Empty,
    Clean,
    Dirty,
}

/// Sets of any associativity, each kept in recency order in `ways`
/// consecutive slots of two flat vectors.
#[derive(Debug, Clone)]
struct OrderedSets {
    ways: usize,
    tags: Vec<u64>,
    states: Vec<LineState>,
}

impl OrderedSets {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            tags: vec![0; sets * ways],
            states: vec![LineState::Empty; sets * ways],
        }
    }

    fn access(&mut self, set: usize, tag: u64, is_write: bool, stats: &mut LlcStats) {
        let ways = self.ways;
        let first = set * ways;
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
                stats.write_hits += 1;
                (way, LineState::Dirty)
            }
            Some(way) => {
                stats.read_hits += 1;
                (way, states[way])
            }
            None => {
                stats.misses += 1;
                if states[ways - 1] == LineState::Dirty {
                    stats.writebacks += 1;
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
        let layout = if config.ways <= PACKED_WAYS {
            Layout::Packed(PackedSets::new(sets, config.ways))
        } else {
            Layout::Ordered(OrderedSets::new(sets, config.ways))
        };
        Self {
            config,
            line: Divisor::new(config.line_bytes),
            sets: Divisor::new(sets as u64),
            layout,
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

    /// Processes one access at byte address `addr`.
    pub fn access(&mut self, addr: u64, is_write: bool) {
        let (line, _) = self.line.div_rem(addr);
        let (tag, set) = self.sets.div_rem(line);
        self.access_set(set as usize, tag, is_write);
    }

    /// Processes one access to `tag` in `set`.
    #[inline]
    fn access_set(&mut self, set: usize, tag: u64, is_write: bool) {
        self.stats.lookups += 1;
        match &mut self.layout {
            Layout::Packed(sets) => sets.access(set, tag, is_write, &mut self.stats),
            Layout::Ordered(sets) => sets.access(set, tag, is_write, &mut self.stats),
        }
    }

    /// Loads the cache line an access to `set` reads (see
    /// [`PackedSets::touch`]); a no-op for the recency-ordered layout.
    #[inline]
    fn touch(&self, set: usize) -> u64 {
        match &self.layout {
            Layout::Packed(sets) => sets.touch(set),
            Layout::Ordered(_) => 0,
        }
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
    run_profile_checkpoints(config, profile, &[lookups], seed)
        .pop()
        .expect("one snapshot per length")
}

/// Runs `profile` through one fresh LLC of `config` and snapshots its
/// traffic after each of `lengths` lookups, so a single simulation serves
/// several run lengths.
///
/// Each snapshot is bit-identical to a separate [`run_profile`] at that
/// length: the address stream depends only on `seed`, and the cache state
/// and counts only on the lookups so far.
///
/// # Panics
///
/// Panics when `lengths` is not in ascending order.
pub fn run_profile_checkpoints(
    config: LlcConfig,
    profile: &BenchProfile,
    lengths: &[u64],
    seed: u64,
) -> Vec<LlcTraffic> {
    assert!(
        lengths.windows(2).all(|pair| pair[0] <= pair[1]),
        "checkpoint lengths must ascend: {lengths:?}"
    );
    let mut llc = Llc::new(config);
    let mut stream = AddressStream::new(config, profile, seed);
    // Accesses are drawn and split into (set, tag) a batch at a time; every
    // set in the batch is touched before any of its accesses runs, so their
    // cache misses overlap. Accesses still run in draw order, and a batch
    // never crosses a checkpoint.
    let mut batch = [(0usize, 0u64, false); BATCH];

    let mut snapshots = Vec::with_capacity(lengths.len());
    for &length in lengths {
        while llc.stats.lookups < length {
            let batch = &mut batch[..(length - llc.stats.lookups).min(BATCH as u64) as usize];
            for access in batch.iter_mut() {
                let (line, is_write) = stream.next_line();
                let (tag, set) = llc.sets.div_rem(line);
                *access = (set as usize, tag, is_write);
            }
            let touched = batch.iter().fold(0, |acc, &(set, ..)| acc ^ llc.touch(set));
            std::hint::black_box(touched);
            for &(set, tag, is_write) in batch.iter() {
                llc.access_set(set, tag, is_write);
            }
        }

        let stats = llc.stats();
        let seconds_simulated = length as f64 / profile.lookups_per_sec;
        snapshots.push(LlcTraffic {
            name: profile.name.clone(),
            traffic: TrafficPattern::new(
                profile.name.clone(),
                stats.array_reads() as f64 * config.line_bytes as f64 / seconds_simulated,
                stats.array_writes() as f64 * config.line_bytes as f64 / seconds_simulated,
                config.line_bytes,
            ),
            miss_rate: stats.miss_rate(),
        });
    }
    snapshots
}

/// Accesses drawn and touched ahead of simulating them (1.5 KiB of stack).
const BATCH: usize = 64;

/// A profile's address stream, as line addresses.
///
/// Per access it draws a store flag, then a hot-or-cold flag, then for a
/// hot access a uniform `u`: the hot line is `⌊u² × hot lines⌋`, a
/// Zipf-flavored bias toward low line ids. A cold access streams through
/// the footprint, one line further each time, starting `hot lines` in and
/// wrapping at its end: line `(hot lines + n) % footprint lines` on the
/// `n`-th cold access. The flags compare integer thresholds
/// ([`bool_threshold`]) instead of calling `gen_bool`, and the cold line
/// advances by one and wraps by compare-and-reset instead of `%`; both
/// give the same outcome, so each line times `line_bytes` is the byte
/// address of that formula.
struct AddressStream {
    rng: StdRng,
    write_threshold: u64,
    hot_threshold: u64,
    lines_in_hot: f64,
    lines_in_footprint: u64,
    /// The last cold line drawn.
    cold_line: u64,
}

impl AddressStream {
    fn new(config: LlcConfig, profile: &BenchProfile, seed: u64) -> Self {
        let lines_in_footprint = (profile.footprint_bytes / config.line_bytes).max(1);
        let lines_in_hot = (profile.hot_bytes / config.line_bytes).max(1);
        Self {
            rng: StdRng::seed_from_u64(seed),
            write_threshold: bool_threshold(profile.write_fraction),
            hot_threshold: bool_threshold(profile.hot_fraction),
            lines_in_hot: lines_in_hot as f64,
            lines_in_footprint,
            cold_line: lines_in_hot % lines_in_footprint,
        }
    }

    /// The next access: its line address and whether it is a store.
    #[inline]
    fn next_line(&mut self) -> (u64, bool) {
        let is_write = self.rng.next_u64() >> 11 < self.write_threshold;
        let line = if self.rng.next_u64() >> 11 < self.hot_threshold {
            let u: f64 = self.rng.gen_range(0.0f64..1.0);
            ((u * u) * self.lines_in_hot) as u64
        } else {
            self.cold_line += 1;
            if self.cold_line == self.lines_in_footprint {
                self.cold_line = 0;
            }
            self.cold_line
        };
        (line, is_write)
    }
}

/// The integer form of `gen_bool(p)`: `k < bool_threshold(p)` exactly when
/// `(k as f64) × 2⁻⁵³ < p`, for every draw `k = next_u64() >> 11` below
/// 2⁵³. `k × 2⁻⁵³` is exact, and so is `p × 2⁵³` short of overflow, so
/// the comparison holds for the integers below `⌈p × 2⁵³⌉`: none for NaN,
/// zero or a negative `p`, all 2⁵³ from `p ≥ 1` on.
fn bool_threshold(p: f64) -> u64 {
    const DRAWS: f64 = (1u64 << 53) as f64;
    // `as` maps NaN (which `clamp` passes through) to 0.
    (p * DRAWS).ceil().clamp(0.0, DRAWS) as u64
}

/// Runs the full SPEC-like suite against the default 16 MiB LLC.
pub fn spec2017_llc_traffic(lookups_per_benchmark: u64, seed: u64) -> Vec<LlcTraffic> {
    spec2017_profiles()
        .iter()
        .map(|p| run_profile(LlcConfig::default(), p, lookups_per_benchmark, seed))
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
    fn bool_threshold_matches_the_float_comparison_at_the_edges() {
        const DRAWS: u64 = 1 << 53;
        // `gen_bool(p)` on a draw `k = next_u64() >> 11`.
        let float_draw = |k: u64, p: f64| (k as f64) * (1.0 / DRAWS as f64) < p;
        let edges = [
            0.0,
            -0.0,
            f64::NAN,
            -1.0,
            f64::NEG_INFINITY,
            1.0,
            1.0 + f64::EPSILON,
            2.0,
            1.0e300,
            f64::INFINITY,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON / 2.0,
            1.0 - f64::EPSILON,
            0.5,
            0.28,
            1.0 / 3.0,
            (DRAWS - 1) as f64 / DRAWS as f64,
        ];
        for p in edges {
            let threshold = bool_threshold(p);
            assert!(threshold <= DRAWS, "{p:e}");
            let around = [threshold.wrapping_sub(1), threshold, threshold + 1];
            for k in [0, 1, 2, DRAWS / 2, DRAWS - 2, DRAWS - 1]
                .into_iter()
                .chain(around)
                .filter(|&k| k < DRAWS)
            {
                assert_eq!(k < threshold, float_draw(k, p), "k {k}, p {p:e}");
            }
        }
    }

    #[test]
    fn stack_moves_any_way_to_the_front() {
        // A 16-way stack, most recent first: 15, 14, …, 0.
        let order = (0..16u64).fold(0, |order, way| order | (15 - way) << (4 * way));
        for way in 0..16u32 {
            let depth = nibble_offset(order, way);
            assert_eq!(depth, 4 * (15 - way));
            let moved = move_to_front(order, way, depth);
            let nibbles: Vec<u64> = (0..16).map(|i| moved >> (4 * i) & 0xF).collect();
            let mut expected = vec![u64::from(way)];
            expected.extend((0..16).rev().filter(|&w| w != u64::from(way)));
            assert_eq!(nibbles, expected, "way {way}");
        }
    }

    #[test]
    fn deterministic_runs() {
        let p = &spec2017_profiles()[0];
        let a = run_profile(LlcConfig::default(), p, 50_000, 9);
        let b = run_profile(LlcConfig::default(), p, 50_000, 9);
        assert_eq!(a, b);
    }
}
