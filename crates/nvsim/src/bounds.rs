//! Provably-sound per-target score lower bounds for branch-and-bound DSE
//! pruning.
//!
//! The shared design-space scan in [`crate::dse`] walks every candidate
//! [`Organization`] in a fixed order and keeps the best design per
//! [`OptimizationTarget`]. A candidate only matters if its score could be
//! *strictly lower* than the incumbent's, so a cheap **lower bound** on the
//! score lets the scan skip full characterization ([`crate::subarray`] +
//! [`crate::bank`]) for candidates that provably cannot win — without
//! changing a single selected winner.
//!
//! # Soundness argument
//!
//! A bound combines two ingredients:
//!
//! 1. **Exact mirrored subarray terms.** Every subarray-level term (and
//!    the bank area, which has no H-tree contribution) is computed with
//!    the *same source-level expression and the same inputs* as the real
//!    model in
//!    [`Subarray::characterize`](crate::subarray::Subarray::characterize) /
//!    [`Bank::compose`](crate::bank::Bank::compose), so its floating-point
//!    value is bit-identical to the term inside the true score — the Area
//!    bound *equals* the true score.
//! 2. **A monotone floor for the H-tree.** The bank's repeated-wire H-tree
//!    is the one per-candidate cost that cannot be tabled per axis (its
//!    route length couples all three geometry axes plus the subarray
//!    count), and sizing it exactly per candidate would cost as much as
//!    the `Bank::compose` call pruning is meant to skip. Instead,
//!    `HtreeStair` (private to this module) precomputes, once per technology node, the
//!    repeated-wire characterization at the *minimum length of each
//!    segment-count class* (plus a log-spaced anchor subdivision of the
//!    single-segment class). Within a class the wire load grows with
//!    length, so the class-minimum characterization is a floor for every
//!    longer route in the class — the stair lookup is ≤ the true
//!    `RepeatedWire` for the candidate's exact route, at the cost of an
//!    array index instead of a logical-effort chain sizing.
//!
//! IEEE-754 round-to-nearest addition and multiplication are monotone in
//! each non-negative operand, so feeding the floored H-tree terms through
//! the true score's expression chains keeps every bound ≤ the true score.
//! Both properties — stair ≤ `RepeatedWire` across dense route lengths,
//! and bound ≤ score (with Area exactly equal) across the whole candidate
//! grid for random cells/capacities/depths — are proptested in
//! `tests/prune_equivalence.rs`, which is what keeps this mirror honest if
//! the model ever changes.
//!
//! # Why it is cheap
//!
//! Every subarray-model input depends on only one geometry axis: decoders
//! and bitlines on `rows` (5 choices), wordline drive on `cols` (5
//! choices), the column decoder on `mux` (6 choices).
//! [`BoundContext::new`] runs the expensive pieces (logical-effort buffer
//! chains, decoder trees, component sizing — the transcendental-heavy
//! parts of characterization) **once per axis value** for the whole
//! design-space pass, and the H-tree stair **once per technology node for
//! the whole process** (shared behind a lock, since it depends on nothing
//! cell- or study-specific). The per-candidate bound is then table lookups
//! plus a few dozen multiply-adds — no transcendentals, no allocation, no
//! wire sizing — memoized per grid slot so multiple targets probing one
//! candidate share the work. One context costs about as much as
//! characterizing a handful of subarrays and is amortized over the ~10× as
//! many candidates a pass scans; the scan then skips the subarray
//! re-derivation, the bank composition (including its wire sizing), and
//! the cache traffic for every pruned candidate.

use crate::bank::{Bank, Organization};
use crate::components::{Precharger, SenseAmp, WriteDriver};
use crate::dse::{COL_CHOICES, MUX_CHOICES, ROW_CHOICES};
use crate::gates::{drive_load, Decoder};
use crate::result::OptimizationTarget;
use crate::subarray::{
    access_drain_cap, access_gate_cap, all_columns_swing, cell_pitch, sa_bias_current,
    sense_window, wordline_read_voltage, wordline_write_voltage,
};
use crate::technology::TechnologyParams;
use crate::wire::{RepeatedWire, Wire};
use nvmx_celldb::CellDefinition;
use nvmx_units::{BitsPerCell, SquareMillimeters};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Repeater pitch of the H-tree model — must mirror `RepeatedWire::new`
/// (the stair-soundness proptest catches drift).
const SEGMENT: f64 = 0.5e-3;

/// Segment-count classes precomputed by the stair; routes beyond
/// `MAX_CLASS × SEGMENT` (32 mm — far outside any credible bank) fall back
/// to an exact `RepeatedWire` sizing.
const MAX_CLASS: usize = 64;

/// Log-spaced anchor lengths subdividing the single-segment class
/// (2 µm … `SEGMENT`). Small banks live here, so the first class gets a
/// finer floor than the per-class minimum alone would give.
const CLASS1_ANCHORS: usize = 24;

/// Linear anchors inside each multi-segment class: the class infimum plus
/// `CLASS_ANCHORS − 1` interior points, so the floor is within a few
/// percent of the true sizing instead of the ~`1/k` slack the class
/// minimum alone would leave.
const CLASS_ANCHORS: usize = 4;

/// Per-technology monotone floor table for [`RepeatedWire`]: for any route
/// length, a precomputed characterization that is component-wise ≤ the
/// true `RepeatedWire::new` of that length.
///
/// Within one segment-count class `k` (lengths in `((k−1)·S, k·S]`), the
/// true characterization is `k` identical stages whose wire load grows
/// with length, so the characterization at any anchor length ≤ the route
/// *in the same class* floors it. Each class stores a few ascending
/// anchors (its infimum, built from the shared stage primitives, plus
/// interior points sized exactly via `RepeatedWire::new`); lookups take
/// the largest anchor at or below the route. Comparisons never cross a
/// class boundary — the per-segment sizing saw-tooths there. Routes
/// shorter than the first class-1 anchor get the zero floor; routes
/// beyond [`MAX_CLASS`] classes are sized exactly (both are rare
/// extremes).
struct HtreeStair {
    /// Anchors of class `k` at index `k − 1` (`k = 1..=MAX_CLASS`), each
    /// `(length, floor)` ascending within its class.
    classes: Vec<Vec<(f64, RepeatedWire)>>,
}

impl HtreeStair {
    fn new(tech: &TechnologyParams) -> Self {
        let vdd = tech.vdd.value();
        // Class 1 covers everything from micron-scale subarrray grids up
        // to the repeater pitch: log-spaced anchors (~26 % steps), sized
        // exactly (ceil(len/S) == 1 for all of them).
        let class1 = (0..CLASS1_ANCHORS)
            .map(|i| {
                let len = 2.0e-6 * (SEGMENT / 2.0e-6).powf(i as f64 / (CLASS1_ANCHORS - 1) as f64);
                (len, RepeatedWire::new(tech, len))
            })
            .collect();
        let mut classes = vec![class1];
        for k in 2..=MAX_CLASS {
            let mut anchors = Vec::with_capacity(CLASS_ANCHORS);
            // The infimum of class k — k segments of ((k−1)/k)·SEGMENT —
            // is not reachable by `RepeatedWire::new` (that length ceils
            // into class k−1), so build it from the stage primitives.
            let seg_len = SEGMENT * ((k - 1) as f64 / k as f64);
            let seg = Wire::global(tech, seg_len);
            let drive = drive_load(tech, seg.capacitance, seg.resistance, vdd);
            let segments = k as f64;
            anchors.push((
                SEGMENT * (k - 1) as f64,
                RepeatedWire {
                    delay: segments * (drive.delay + seg.elmore_delay()),
                    energy: segments * (drive.energy + 0.0),
                    leakage: segments * drive.leakage,
                },
            ));
            for j in 1..CLASS_ANCHORS {
                let len = SEGMENT * ((k - 1) as f64 + j as f64 / CLASS_ANCHORS as f64);
                anchors.push((len, RepeatedWire::new(tech, len)));
            }
            classes.push(anchors);
        }
        Self { classes }
    }

    /// A floor for `RepeatedWire::new(tech, length)`.
    fn floor(&self, tech: &TechnologyParams, length: f64) -> RepeatedWire {
        if length <= 0.0 {
            return RepeatedWire::default();
        }
        // Mirror `RepeatedWire::new`'s class computation exactly.
        let class = (length / SEGMENT).ceil().max(1.0) as usize;
        if class > MAX_CLASS {
            // Absurdly long route (> 32 mm): size it exactly rather than
            // extrapolate — these candidates are pruned immediately anyway.
            return RepeatedWire::new(tech, length);
        }
        let anchors = &self.classes[class - 1];
        match anchors.partition_point(|&(anchor_len, _)| anchor_len <= length) {
            0 => RepeatedWire::default(),
            i => anchors[i - 1].1,
        }
    }
}

/// Process-wide stair cache, keyed by the node's feature-size bit pattern
/// (the technology lookup is a pure function of the node, so equal keys
/// mean equal parameters). Built once per node, shared by every
/// design-space pass of every study.
fn stair_for(tech: &TechnologyParams) -> Arc<HtreeStair> {
    static STAIRS: OnceLock<RwLock<HashMap<u64, Arc<HtreeStair>>>> = OnceLock::new();
    let stairs = STAIRS.get_or_init(|| RwLock::new(HashMap::new()));
    let key = tech.feature_size.value().to_bits();
    if let Some(stair) = stairs.read().expect("stair cache poisoned").get(&key) {
        return Arc::clone(stair);
    }
    Arc::clone(
        stairs
            .write()
            .expect("stair cache poisoned")
            .entry(key)
            .or_insert_with(|| Arc::new(HtreeStair::new(tech))),
    )
}

/// Row-axis partial terms: everything in the model that depends on `rows`
/// (and on nothing else geometric).
#[derive(Clone, Copy)]
struct RowTerms {
    rows_f: f64,
    array_height: f64,
    decoder_delay: f64,
    decoder_energy: f64,
    decoder_leakage: f64,
    decoder_width_f: f64,
    bl_capacitance: f64,
    t_bl: f64,
    /// `sa.energy + sa_bias_current · vdd · t_bl_single` — the per-column
    /// inner factor of the sense energy.
    e_sense_inner: f64,
}

/// Column-axis partial terms: everything that depends on `cols` alone.
#[derive(Clone, Copy)]
struct ColTerms {
    cols_f: f64,
    array_width: f64,
    wl_read_delay: f64,
    wl_read_energy: f64,
    wl_read_leakage: f64,
    wl_read_width_f: f64,
    wl_write_delay: f64,
    wl_write_energy: f64,
}

/// Mux-axis partial terms: the column decoder.
#[derive(Clone, Copy)]
struct MuxTerms {
    col_decoder_energy: f64,
    col_decoder_leakage: f64,
}

/// Memoized H-tree floor for one grid slot: the per-access
/// delay/energy/leakage terms `Bank::compose` derives from the routed
/// grid, with the repeated-wire characterization floored by the
/// [`HtreeStair`]. Keyed by the subarray count the route was computed
/// for, so a context accidentally reused across capacities recomputes
/// instead of serving a stale route.
#[derive(Clone, Copy)]
struct HtreeTerms {
    total_subarrays: usize,
    delay: f64,
    /// `htree.energy · 0.25 · 0.5 · (addr_bits + data_bits)` — identical
    /// for reads and writes in the model.
    access_energy: f64,
    /// `htree.leakage · data_bits · 0.5`.
    leakage: f64,
}

/// Per-pass bound evaluator for one `(cell, technology, programming depth)`
/// triple — exactly the inputs that are fixed across a design-space scan.
///
/// Build one with [`BoundContext::new`] at the top of a scan, then call
/// [`BoundContext::score_bound`] per `(candidate, target)`.
pub struct BoundContext {
    rows: [RowTerms; ROW_CHOICES.len()],
    cols: [ColTerms; COL_CHOICES.len()],
    muxes: [MuxTerms; MUX_CHOICES.len()],
    /// Per-slot H-tree memo (single-threaded: one context per DSE pass).
    htree: RefCell<[Option<HtreeTerms>; ROW_CHOICES.len() * COL_CHOICES.len() * MUX_CHOICES.len()]>,
    /// Shared per-node repeated-wire floor table.
    stair: Arc<HtreeStair>,
    tech: TechnologyParams,
    /// `addr_bits + data_bits` of the H-tree energy model.
    addr_plus_data_bits: f64,
    /// `word_bits as f64` (the H-tree carries this many data wires).
    data_bits: f64,
    f: f64,
    f2: f64,
    vdd: f64,
    phases: f64,
    /// `sa.delay · phases`, the sense-resolution latency term.
    sa_delay_phases: f64,
    t_mux_out: f64,
    driver_delay: f64,
    /// The (MLC-scaled) programming pulse.
    pulse: f64,
    v_read: f64,
    bl_swing_v: f64,
    i_cell: f64,
    all_cols_swing: bool,
    destructive: bool,
    /// `cell.write_energy_per_cell()`.
    wepc: f64,
    mlc_write_scale: f64,
    supply_efficiency: f64,
    driver_energy: f64,
    v_write: f64,
    cell_leakage: f64,
    /// `sa.leakage + driver.leakage`.
    sa_driver_leak: f64,
    pre_leakage: f64,
    /// `sa.area_f2 + driver.area_f2`.
    sa_driver_area: f64,
    pre_area: f64,
}

impl BoundContext {
    /// Precomputes the per-axis model tables for one design-space pass.
    ///
    /// Mirrors the exact expressions of
    /// [`Subarray::characterize`](crate::subarray::Subarray::characterize)
    /// and [`Bank::compose`](crate::bank::Bank::compose) — any change there
    /// must be reflected here, which the bound-exactness proptest in
    /// `tests/prune_equivalence.rs` enforces.
    pub fn new(
        tech: &TechnologyParams,
        cell: &CellDefinition,
        bits_per_cell: BitsPerCell,
        word_bits: u64,
    ) -> Self {
        let f = tech.feature_size.value();
        let vdd = tech.vdd.value();
        let levels = bits_per_cell.levels() as f64;
        let mlc = bits_per_cell.bits() > 1;
        let (cell_w, cell_h) = cell_pitch(tech, cell);
        let gate_per_cell = access_gate_cap(tech, cell);
        let drain_per_cell = access_drain_cap(tech, cell);
        let v_wl_read = wordline_read_voltage(tech, cell);
        let v_wl_write = wordline_write_voltage(tech, cell);
        let i_cell = cell.read.cell_current.value().max(1.0e-7);
        let (sense_margin_v, swing_fraction) = sense_window(cell.read.scheme);
        let margin_scale = if mlc { levels / 2.0 } else { 1.0 };
        let phases = bits_per_cell.bits() as f64;
        let sa = SenseAmp::new(tech, cell.read.scheme);
        let pre = Precharger::new(tech);
        let driver = WriteDriver::new(tech, cell.write.current.value(), cell.write.voltage.value());
        let sa_bias = sa_bias_current(cell.read.scheme);
        let min_sense = cell.read.min_sense_time.value();

        let rows = std::array::from_fn(|row_idx| {
            let rows = ROW_CHOICES[row_idx];
            let array_height = rows as f64 * cell_h;
            let bl = Wire::local(tech, array_height).with_load(rows as f64 * drain_per_cell);
            let decoder = Decoder::new(tech, rows);
            let t_develop = bl.capacitance * sense_margin_v * margin_scale / i_cell;
            let t_bl_single = min_sense + t_develop + bl.elmore_delay();
            RowTerms {
                rows_f: rows as f64,
                array_height,
                decoder_delay: decoder.delay,
                decoder_energy: decoder.energy,
                decoder_leakage: decoder.leakage,
                decoder_width_f: decoder.total_width_f,
                bl_capacitance: bl.capacitance,
                t_bl: t_bl_single * phases,
                e_sense_inner: sa.energy + sa_bias * vdd * t_bl_single,
            }
        });
        let cols = std::array::from_fn(|col_idx| {
            let cols = COL_CHOICES[col_idx];
            let array_width = cols as f64 * cell_w;
            let wl = Wire::local(tech, array_width).with_load(cols as f64 * gate_per_cell);
            let wl_read = drive_load(tech, wl.capacitance, wl.resistance, v_wl_read);
            let wl_write = drive_load(tech, wl.capacitance, wl.resistance, v_wl_write);
            ColTerms {
                cols_f: cols as f64,
                array_width,
                wl_read_delay: wl_read.delay,
                wl_read_energy: wl_read.energy,
                wl_read_leakage: wl_read.leakage,
                wl_read_width_f: wl_read.total_width_f,
                wl_write_delay: wl_write.delay,
                wl_write_energy: wl_write.energy,
            }
        });
        let muxes = std::array::from_fn(|mux_idx| {
            let col_decoder = Decoder::new(tech, MUX_CHOICES[mux_idx].max(2));
            MuxTerms {
                col_decoder_energy: col_decoder.energy,
                col_decoder_leakage: col_decoder.leakage,
            }
        });

        #[allow(clippy::cast_precision_loss)]
        let data_bits = word_bits as f64;
        Self {
            rows,
            cols,
            muxes,
            htree: RefCell::new([None; ROW_CHOICES.len() * COL_CHOICES.len() * MUX_CHOICES.len()]),
            stair: stair_for(tech),
            tech: *tech,
            addr_plus_data_bits: 32.0 + data_bits,
            data_bits,
            f,
            f2: f * f,
            vdd,
            phases,
            sa_delay_phases: sa.delay * phases,
            t_mux_out: 1.5 * tech.fo4_delay,
            driver_delay: driver.delay,
            pulse: cell.write.effective_pulse().value() * if mlc { levels - 1.0 } else { 1.0 },
            v_read: cell.read.voltage.value(),
            bl_swing_v: cell.read.voltage.value() * swing_fraction,
            i_cell,
            all_cols_swing: all_columns_swing(cell.read.scheme),
            destructive: cell.read.scheme.is_destructive(),
            wepc: cell.write_energy_per_cell().value(),
            mlc_write_scale: if mlc { levels - 1.0 } else { 1.0 },
            supply_efficiency: driver.supply_efficiency,
            driver_energy: driver.energy,
            v_write: cell.write.voltage.value(),
            cell_leakage: cell.cell_leakage.value(),
            sa_driver_leak: sa.leakage + driver.leakage,
            pre_leakage: pre.leakage,
            sa_driver_area: sa.area_f2 + driver.area_f2,
            pre_area: pre.area_f2,
        }
    }

    /// Lower bound on `bank_score(org, target)` for the candidate at grid
    /// slot `slot` (as produced by the DSE enumeration): exact subarray
    /// terms plus the stair-floored H-tree (see the module docs). For
    /// [`OptimizationTarget::Area`] the bound equals the true score
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside the DSE grid.
    #[allow(clippy::cast_precision_loss)]
    pub fn score_bound(&self, org: &Organization, slot: usize, target: OptimizationTarget) -> f64 {
        let mux_idx = slot % MUX_CHOICES.len();
        let col_idx = (slot / MUX_CHOICES.len()) % COL_CHOICES.len();
        let row_idx = slot / (MUX_CHOICES.len() * COL_CHOICES.len());
        let r = &self.rows[row_idx];
        let c = &self.cols[col_idx];
        let m = &self.muxes[mux_idx];
        let sensed_f = (org.cols / org.mux) as f64;
        let active_f = org.active_subarrays as f64;
        match target {
            OptimizationTarget::ReadLatency => {
                let ht = self.htree_terms(org, slot, r, c, sensed_f);
                2.0 * ht.delay + self.sub_read_latency(r, c)
            }
            OptimizationTarget::WriteLatency => {
                let ht = self.htree_terms(org, slot, r, c, sensed_f);
                2.0 * ht.delay + self.sub_write_latency(r, c)
            }
            OptimizationTarget::ReadEnergy => {
                let ht = self.htree_terms(org, slot, r, c, sensed_f);
                active_f * self.sub_read_energy(r, c, m, sensed_f) + ht.access_energy
            }
            OptimizationTarget::WriteEnergy => {
                let ht = self.htree_terms(org, slot, r, c, sensed_f);
                active_f * self.sub_write_energy(r, c, m, sensed_f) + ht.access_energy
            }
            OptimizationTarget::ReadEdp => {
                let ht = self.htree_terms(org, slot, r, c, sensed_f);
                (active_f * self.sub_read_energy(r, c, m, sensed_f) + ht.access_energy)
                    * (2.0 * ht.delay + self.sub_read_latency(r, c))
            }
            OptimizationTarget::WriteEdp => {
                let ht = self.htree_terms(org, slot, r, c, sensed_f);
                (active_f * self.sub_write_energy(r, c, m, sensed_f) + ht.access_energy)
                    * (2.0 * ht.delay + self.sub_write_latency(r, c))
            }
            OptimizationTarget::Area => self.bank_area_mm2(r, c, org, sensed_f),
            OptimizationTarget::Leakage => {
                let ht = self.htree_terms(org, slot, r, c, sensed_f);
                let sub_leak = self.sub_leakage(r, c, m, sensed_f);
                let total_f = org.total_subarrays as f64;
                total_f * sub_leak + ht.leakage + 0.02 * total_f * sub_leak
            }
        }
    }

    /// The memoized H-tree floor for one grid slot: the exact route length
    /// (from the bit-exact subarray footprint and `Bank::compose`'s grid
    /// derivation) looked up in the [`HtreeStair`]. The floored
    /// repeated-wire characterization is then fed through `Bank::compose`'s
    /// exact per-access expressions — monotone, so the result bounds the
    /// true terms from below.
    #[allow(clippy::cast_precision_loss)]
    fn htree_terms(
        &self,
        org: &Organization,
        slot: usize,
        r: &RowTerms,
        c: &ColTerms,
        sensed_f: f64,
    ) -> HtreeTerms {
        if let Some(memo) = self.htree.borrow()[slot] {
            if memo.total_subarrays == org.total_subarrays {
                return memo;
            }
        }
        let (width, height) = self.sub_footprint(r, c, sensed_f);
        let nx = (org.total_subarrays as f64).sqrt().ceil() as usize;
        let ny = org.total_subarrays.div_ceil(nx);
        let grid_w = nx as f64 * width;
        let grid_h = ny as f64 * height;
        let route_len = 0.5 * (grid_w + grid_h);
        let htree = self.stair.floor(&self.tech, route_len);
        let terms = HtreeTerms {
            total_subarrays: org.total_subarrays,
            delay: htree.delay,
            access_energy: htree.energy * 0.25 * 0.5 * self.addr_plus_data_bits,
            leakage: htree.leakage * self.data_bits * 0.5,
        };
        self.htree.borrow_mut()[slot] = Some(terms);
        terms
    }

    /// [`Self::score_bound`] for an organization whose grid slot is not at
    /// hand — resolves the choice-array indices first. Test/diagnostic
    /// convenience; returns `None` for off-grid geometries.
    pub fn score_bound_for(&self, org: &Organization, target: OptimizationTarget) -> Option<f64> {
        let row_idx = ROW_CHOICES.iter().position(|&r| r == org.rows)?;
        let col_idx = COL_CHOICES.iter().position(|&c| c == org.cols)?;
        let mux_idx = MUX_CHOICES.iter().position(|&m| m == org.mux)?;
        let slot = (row_idx * COL_CHOICES.len() + col_idx) * MUX_CHOICES.len() + mux_idx;
        Some(self.score_bound(org, slot, target))
    }

    /// Exact `Subarray::read_latency` (the bank adds only H-tree delay).
    fn sub_read_latency(&self, r: &RowTerms, c: &ColTerms) -> f64 {
        r.decoder_delay + c.wl_read_delay + r.t_bl + self.sa_delay_phases + self.t_mux_out
    }

    /// Exact `Subarray::write_latency`.
    fn sub_write_latency(&self, r: &RowTerms, c: &ColTerms) -> f64 {
        r.decoder_delay + c.wl_write_delay + self.driver_delay + self.pulse
    }

    /// Exact `Subarray::read_energy`.
    fn sub_read_energy(&self, r: &RowTerms, c: &ColTerms, m: &MuxTerms, sensed_f: f64) -> f64 {
        let swinging_cols = if self.all_cols_swing {
            c.cols_f
        } else {
            sensed_f
        };
        let e_bitlines =
            swinging_cols * r.bl_capacitance * self.v_read * self.bl_swing_v * self.phases;
        let e_cells = swinging_cols * self.v_read * self.i_cell * r.t_bl;
        let e_sense = sensed_f * r.e_sense_inner * self.phases;
        let e_restore = if self.destructive {
            c.cols_f * self.wepc / self.supply_efficiency
        } else {
            0.0
        };
        r.decoder_energy
            + m.col_decoder_energy
            + c.wl_read_energy
            + e_bitlines
            + e_cells
            + e_sense
            + e_restore
            + self.t_mux_out * 0.0
            + sensed_f * 0.5e-15 * self.vdd * self.vdd
    }

    /// Exact `Subarray::write_energy`.
    fn sub_write_energy(&self, r: &RowTerms, c: &ColTerms, m: &MuxTerms, sensed_f: f64) -> f64 {
        let e_write_cells = sensed_f * self.wepc * self.mlc_write_scale / self.supply_efficiency;
        let e_write_bitlines =
            sensed_f * r.bl_capacitance * self.v_write * self.v_write / self.supply_efficiency;
        r.decoder_energy
            + m.col_decoder_energy
            + c.wl_write_energy / self.supply_efficiency
            + e_write_bitlines
            + e_write_cells
            + sensed_f * self.driver_energy
    }

    /// Exact `Subarray::leakage`.
    fn sub_leakage(&self, r: &RowTerms, c: &ColTerms, m: &MuxTerms, sensed_f: f64) -> f64 {
        let cell_leak = r.rows_f * c.cols_f * self.cell_leakage;
        let wl_driver_leak = r.rows_f * c.wl_read_leakage * 0.06;
        let periphery_leak = r.decoder_leakage
            + m.col_decoder_leakage
            + sensed_f * self.sa_driver_leak
            + c.cols_f * self.pre_leakage;
        cell_leak + wl_driver_leak + periphery_leak
    }

    /// Exact `Subarray::{width, height}` — the cell array plus the decoder
    /// strip and the SA/driver/precharge strips.
    fn sub_footprint(&self, r: &RowTerms, c: &ColTerms, sensed_f: f64) -> (f64, f64) {
        let decoder_area = (r.decoder_width_f + r.rows_f * c.wl_read_width_f) * 1.5 * self.f2;
        let decoder_strip_w = decoder_area / r.array_height.max(self.f);
        let sa_strip_h = sensed_f * self.sa_driver_area * self.f2 / c.array_width.max(self.f);
        let pre_strip_h = c.cols_f * self.pre_area * self.f2 / c.array_width.max(self.f);
        let width = c.array_width + decoder_strip_w;
        let height = r.array_height + sa_strip_h + pre_strip_h;
        (width, height)
    }

    /// Exact `Bank::area` in mm² — the subarray footprint tiled on the
    /// same near-square grid `Bank::compose` uses, with the same 5 %
    /// routing overhead. The H-tree has no separate area term in the
    /// model.
    #[allow(clippy::cast_precision_loss)]
    fn bank_area_mm2(&self, r: &RowTerms, c: &ColTerms, org: &Organization, sensed_f: f64) -> f64 {
        let (width, height) = self.sub_footprint(r, c, sensed_f);
        let nx = (org.total_subarrays as f64).sqrt().ceil() as usize;
        let ny = org.total_subarrays.div_ceil(nx);
        let grid_w = nx as f64 * width;
        let grid_h = ny as f64 * height;
        SquareMillimeters::from_square_meters(grid_w * grid_h * 1.05).value()
    }
}

/// Final incumbent chains of one target's completed design-space pass —
/// what [`IncumbentStore`] records per `(design point, target)` and what a
/// later identical pass seeds its scan with.
///
/// A seed is **not** a bare score: it carries the winning [`Bank`] of each
/// chain, so a seeded scan behaves exactly as if it had already visited
/// the winning candidate. Under the scan's first-strictly-better tie rule
/// no later candidate can displace an equal-scoring seed, and no candidate
/// scores strictly below the recorded minimum — so the seeded scan's
/// winners are byte-identical to a cold scan's, while the pre-tightened
/// incumbent lets the score bounds prune every candidate that cannot beat
/// the *final* winner (instead of only the incumbent-so-far).
#[derive(Debug, Clone)]
pub(crate) struct TargetSeed {
    /// Final qualified chain (candidates meeting the minimum area
    /// efficiency), which alone drives pruning decisions.
    pub(crate) best: Option<(f64, Bank)>,
    /// Final unconstrained fallback chain. Only authoritative when `best`
    /// is `None` — in that case the recording pass pruned nothing (an
    /// unqualified target vetoes every skip), so the chain is the full
    /// deterministic scan's. When `best` is `Some` the winner never reads
    /// this chain.
    pub(crate) best_unconstrained: Option<(f64, Bank)>,
}

/// Everything the design-space pass's candidate set and scoring depend on,
/// as a hashable key: the cell (by fingerprint, verified against the
/// stored cell on lookup), the technology node, the programming depth, the
/// capacity, the word width, and the target. Two passes agreeing on all of
/// these walk identical candidates to identical scores — the condition
/// under which seeding preserves byte-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SeedKey {
    cell: u64,
    node_bits: u64,
    bits_per_cell: BitsPerCell,
    capacity_bytes: u64,
    word_bits: u64,
    target: OptimizationTarget,
}

impl SeedKey {
    fn new(
        cell: &CellDefinition,
        tech: &TechnologyParams,
        config: &crate::ArrayConfig,
        target: OptimizationTarget,
    ) -> Self {
        Self {
            cell: cell.fingerprint(),
            node_bits: tech.feature_size.value().to_bits(),
            bits_per_cell: config.bits_per_cell,
            capacity_bytes: config.capacity.bytes(),
            word_bits: config.word_bits,
            target,
        }
    }
}

/// One recorded seed plus the owning cell, stored so lookups can prove the
/// 64-bit fingerprint key really resolved to their cell (a collision
/// degrades to an unseeded scan, never to another cell's incumbents).
struct SeedEntry {
    cell: CellDefinition,
    seed: TargetSeed,
}

/// Counters of an [`IncumbentStore`], captured by [`IncumbentStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedStats {
    /// `(design point, target)` winner chains recorded.
    pub recorded: u64,
    /// Target scans that started from a recorded seed instead of cold.
    pub seeded_scans: u64,
}

impl SeedStats {
    /// Counters accumulated since an `earlier` snapshot of the same store.
    /// Saturating, like [`CacheStats::since`](crate::cache::CacheStats).
    pub fn since(&self, earlier: Self) -> Self {
        Self {
            recorded: self.recorded.saturating_sub(earlier.recorded),
            seeded_scans: self.seeded_scans.saturating_sub(earlier.seeded_scans),
        }
    }
}

/// Cross-study store of branch-and-bound winner incumbents.
///
/// A multi-study queue whose studies overlap in design points — same cell,
/// technology node, programming depth, capacity, and word width — re-runs
/// identical design-space passes from cold incumbents: each pass prunes
/// only against the best candidate *seen so far*, even though an earlier
/// study already proved the final winner. Threading one `IncumbentStore`
/// through the passes (via
/// [`characterize_targets`](crate::characterize_targets) or the core
/// scheduler's seeded queue) records each completed pass's final
/// incumbent chains and seeds later identical passes with them, so the
/// bounds prune against the final winner from the very first candidate.
///
/// Seeding only ever *tightens* the incumbent a sound lower bound is
/// compared against, and a seed carries the recorded winning bank itself,
/// so seeded winners are byte-identical to cold winners (proptested in
/// `tests/prune_equivalence.rs`) — the prune rate just climbs. Entries are
/// write-once; recording is idempotent and concurrent recorders of an
/// identical pass store identical chains.
#[derive(Default)]
pub struct IncumbentStore {
    entries: RwLock<HashMap<SeedKey, Arc<SeedEntry>>>,
    recorded: std::sync::atomic::AtomicU64,
    seeded_scans: std::sync::atomic::AtomicU64,
}

impl IncumbentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recording/seeding counters so far.
    pub fn stats(&self) -> SeedStats {
        use std::sync::atomic::Ordering;
        SeedStats {
            recorded: self.recorded.load(Ordering::Relaxed),
            seeded_scans: self.seeded_scans.load(Ordering::Relaxed),
        }
    }

    /// Number of `(design point, target)` seeds recorded.
    pub fn len(&self) -> usize {
        self.entries.read().expect("seed store poisoned").len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorded seed for an exactly-matching design point, or `None`
    /// when no identical pass completed yet (or the fingerprint collided
    /// with a different cell — verified, so a collision can only cost the
    /// speedup, never correctness).
    pub(crate) fn lookup(
        &self,
        cell: &CellDefinition,
        tech: &TechnologyParams,
        config: &crate::ArrayConfig,
        target: OptimizationTarget,
    ) -> Option<TargetSeed> {
        let key = SeedKey::new(cell, tech, config, target);
        let entry = self
            .entries
            .read()
            .expect("seed store poisoned")
            .get(&key)
            .map(Arc::clone)?;
        if entry.cell != *cell {
            return None;
        }
        self.seeded_scans
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(entry.seed.clone())
    }

    /// Records a completed pass's final chains for one target. First
    /// writer wins; an existing entry is left untouched (identical passes
    /// record identical chains, so which racer lands is unobservable).
    pub(crate) fn record(
        &self,
        cell: &CellDefinition,
        tech: &TechnologyParams,
        config: &crate::ArrayConfig,
        target: OptimizationTarget,
        seed: TargetSeed,
    ) {
        let key = SeedKey::new(cell, tech, config, target);
        let mut entries = self.entries.write().expect("seed store poisoned");
        if let std::collections::hash_map::Entry::Vacant(vacant) = entries.entry(key) {
            vacant.insert(Arc::new(SeedEntry {
                cell: cell.clone(),
                seed,
            }));
            self.recorded
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for IncumbentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("IncumbentStore")
            .field("entries", &self.len())
            .field("recorded", &stats.recorded)
            .field("seeded_scans", &stats.seeded_scans)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::Bank;
    use crate::subarray::Subarray;
    use crate::technology::lookup;
    use crate::{dse, ArrayConfig};
    use nvmx_celldb::{custom, tentpole, CellFlavor, TechnologyClass};
    use nvmx_units::{Capacity, Meters};

    fn score(bank: &Bank, target: OptimizationTarget) -> f64 {
        match target {
            OptimizationTarget::ReadLatency => bank.read_latency,
            OptimizationTarget::WriteLatency => bank.write_latency,
            OptimizationTarget::ReadEnergy => bank.read_energy,
            OptimizationTarget::WriteEnergy => bank.write_energy,
            OptimizationTarget::ReadEdp => bank.read_energy * bank.read_latency,
            OptimizationTarget::WriteEdp => bank.write_energy * bank.write_latency,
            OptimizationTarget::Area => SquareMillimeters::from_square_meters(bank.area).value(),
            OptimizationTarget::Leakage => bank.leakage,
        }
    }

    fn assert_sound(cell: &nvmx_celldb::CellDefinition, depth: BitsPerCell, node_nm: f64) {
        let config = ArrayConfig::new(Capacity::from_mebibytes(2))
            .with_bits_per_cell(depth)
            .with_node(Meters::from_nano(node_nm));
        let tech = lookup(config.node);
        let bounds = BoundContext::new(&tech, cell, depth, config.word_bits);
        for org in dse::enumerate_organizations(&config) {
            let sub = Subarray::characterize(&tech, cell, org.rows, org.cols, org.mux, depth);
            let bank = Bank::compose(&tech, sub, org, config.word_bits);
            for target in OptimizationTarget::ALL {
                let bound = bounds.score_bound_for(&org, target).expect("on-grid");
                let truth = score(&bank, target);
                assert!(
                    bound <= truth,
                    "{}: bound {bound:e} exceeds true score {truth:e} for {target} at {org}",
                    cell.name
                );
                if target == OptimizationTarget::Area {
                    assert_eq!(
                        bound.to_bits(),
                        truth.to_bits(),
                        "Area bound must be exact at {org}"
                    );
                }
            }
        }
    }

    #[test]
    fn bounds_never_exceed_true_scores_for_tentpoles() {
        for class in [
            TechnologyClass::Stt,
            TechnologyClass::Rram,
            TechnologyClass::Pcm,
            TechnologyClass::FeFet,
            TechnologyClass::FeRam,
        ] {
            for flavor in [CellFlavor::Optimistic, CellFlavor::Pessimistic] {
                let cell = tentpole::tentpole_cell(class, flavor).unwrap();
                assert_sound(&cell, BitsPerCell::Slc, 22.0);
                if cell.supports(BitsPerCell::Mlc2) {
                    assert_sound(&cell, BitsPerCell::Mlc2, 22.0);
                }
            }
        }
    }

    #[test]
    fn bounds_are_sound_for_sram() {
        assert_sound(&custom::sram_16nm(), BitsPerCell::Slc, 16.0);
    }

    #[test]
    fn off_grid_geometries_have_no_bound() {
        let cell = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
        let tech = lookup(Meters::from_nano(22.0));
        let bounds = BoundContext::new(&tech, &cell, BitsPerCell::Slc, 128);
        let org = Organization {
            rows: 100,
            cols: 256,
            mux: 1,
            active_subarrays: 1,
            total_subarrays: 64,
        };
        assert!(bounds
            .score_bound_for(&org, OptimizationTarget::Area)
            .is_none());
    }

    #[test]
    fn htree_memo_recomputes_when_the_subarray_count_changes() {
        // The per-slot H-tree memo is keyed by the subarray count, so a
        // context reused across capacities (not the intended pattern, but
        // nothing forbids it) must recompute routes instead of serving the
        // other capacity's — bounds stay sound either way, and the Area
        // bound stays exact.
        let cell = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
        let tech = lookup(Meters::from_nano(22.0));
        let bounds = BoundContext::new(&tech, &cell, BitsPerCell::Slc, 128);
        for mib in [2u64, 8, 2] {
            let config = ArrayConfig::new(Capacity::from_mebibytes(mib));
            for org in dse::enumerate_organizations(&config).into_iter().take(8) {
                let sub = Subarray::characterize(
                    &tech,
                    &cell,
                    org.rows,
                    org.cols,
                    org.mux,
                    BitsPerCell::Slc,
                );
                let bank = Bank::compose(&tech, sub, org, config.word_bits);
                for target in OptimizationTarget::ALL {
                    let bound = bounds.score_bound_for(&org, target).unwrap();
                    let truth = score(&bank, target);
                    assert!(
                        bound <= truth,
                        "stale route served for {target} at {org} ({mib} MiB): \
                         bound {bound:e} vs {truth:e}"
                    );
                }
                let area_bound = bounds
                    .score_bound_for(&org, OptimizationTarget::Area)
                    .unwrap();
                assert_eq!(
                    area_bound.to_bits(),
                    score(&bank, OptimizationTarget::Area).to_bits(),
                    "stale footprint served at {org} ({mib} MiB)"
                );
            }
        }
    }

    #[test]
    fn stair_floors_repeated_wire_over_dense_lengths() {
        // The within-class monotonicity the stair relies on, checked
        // against the real `RepeatedWire` across a dense log sweep of
        // route lengths (sub-anchor tiny routes through multi-centimeter
        // absurdities, crossing every class boundary in range).
        for node_nm in [16.0, 22.0] {
            let tech = lookup(Meters::from_nano(node_nm));
            let stair = stair_for(&tech);
            for i in 0..4000 {
                let len = 1.0e-6 * (40.0e-3f64 / 1.0e-6).powf(f64::from(i) / 3999.0);
                let floor = stair.floor(&tech, len);
                let truth = RepeatedWire::new(&tech, len);
                assert!(
                    floor.delay <= truth.delay
                        && floor.energy <= truth.energy
                        && floor.leakage <= truth.leakage,
                    "stair exceeds RepeatedWire at {len:e} m ({node_nm} nm): \
                     {floor:?} vs {truth:?}"
                );
            }
        }
    }
}
