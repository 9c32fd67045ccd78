//! Explicit SIMD-lane substrate for the dense kernels.
//!
//! Every dense primitive in [`crate::kernels`] is built on the
//! fixed-width chunk loops in this module: slices are traversed in
//! `f32x8` lanes (`chunks_exact(8)`), reductions keep one accumulator
//! per lane and combine them in a **fixed pairwise tree**, and the
//! scalar remainder is folded sequentially at the end. That fixed
//! combine order is the workspace's canonical floating-point semantics:
//! for a given input, every entry point — portable chunk loop or the
//! runtime-dispatched AVX2 path — produces bit-identical results.
//!
//! # Dispatch and the determinism contract
//!
//! On `x86_64` hosts with AVX2, the hot primitives run through
//! `core::arch` intrinsics; everywhere else (and whenever the scalar
//! fallback is forced) the portable chunk loop runs. Two rules keep the
//! paths bit-equal, which is what lets the golden-gradient fixtures,
//! the `Exact`-equals-dense property, and the stream/batch bitwise
//! contract hold on *any* host:
//!
//! * the AVX2 reduction keeps its 8 lane accumulators in one vector
//!   register and combines them through the **same** pairwise tree as
//!   the portable loop, and
//! * the AVX2 paths use separate multiply and add (`vmulps` +
//!   `vaddps`), **never fused multiply-add**: FMA skips the
//!   intermediate rounding step, so an FMA path would fork the float
//!   semantics between AVX2 hosts and the portable fallback.
//!
//! Elementwise kernels ([`axpy`], [`scale`], [`add_assign`], …) do not
//! reassociate anything, so laning them is bitwise-neutral by
//! construction; only the [`dot`] reduction defines new canonical
//! semantics (8 lanes instead of the previous 4-way unroll). The sparse
//! product [`sparse_matmul_add`] does not reassociate either: it only
//! keeps partial sums in registers across terms, in term order. The
//! event-form weight gradient [`add_event_columns`] defines its own
//! order, each channel's terms summed in step order and added once,
//! and keeps it on both paths.
//!
//! # The layer tile pass
//!
//! [`tile_rollout`] is the forward of every spiking layer — training,
//! inference, streaming and the dense reference — one kernel per neuron
//! kind ([`Neuron`]). It turns the step-at-a-time loop inside out:
//! tiles of [`TILE`] = 64 output neurons outside, timesteps inside, so
//! a tile's drive stays in eight `f32x8` registers for the whole
//! sequence while each step's leak, event-column adds (or dense drive
//! row, [`Drive`]), neuron update, record writes and fire bits happen
//! in one pass over the tile. The carried state ([`Carry`]) is read at
//! tile entry and written at exit, so a chunked rollout equals a single
//! one bit for bit. Every element still sees the same operations in
//! the same order, so the tile pass reassociates nothing either.
//!
//! # Forcing the scalar fallback
//!
//! Set `SNN_FORCE_SCALAR=1` in the environment (read once, on first
//! kernel use) or call [`set_force_scalar`] at runtime (used by the
//! kernel bench's lane sweep and the cross-path tests). Because the two
//! paths are bit-identical, flipping the switch mid-process can never
//! change results — only throughput.

use std::sync::atomic::{AtomicU8, Ordering};

/// Fixed lane width of the chunk loops (`f32x8`, one AVX2 register).
pub const LANES: usize = 8;

const MODE_UNSET: u8 = 0;
const MODE_SCALAR: u8 = 1;
const MODE_SIMD: u8 = 2;

/// Resolved dispatch mode: unset until first use, then scalar or SIMD.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// Whether the explicit SIMD path is active for this process (AVX2
/// detected, not overridden by `SNN_FORCE_SCALAR` or
/// [`set_force_scalar`]).
#[inline]
pub fn simd_enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        MODE_SIMD => true,
        MODE_SCALAR => false,
        _ => resolve_mode(),
    }
}

/// Human-readable label of the active dispatch path (for bench
/// provenance notes).
pub fn path_label() -> &'static str {
    if simd_enabled() {
        "avx2"
    } else {
        "portable"
    }
}

/// Forces (`true`) or re-enables auto-detection of (`false`) the
/// portable scalar path, process-wide. Safe to flip at any time: the
/// two paths are bit-identical, so in-flight work on other threads is
/// unaffected beyond throughput.
pub fn set_force_scalar(force: bool) {
    MODE.store(
        if force { MODE_SCALAR } else { MODE_UNSET },
        Ordering::Relaxed,
    );
}

#[cold]
fn resolve_mode() -> bool {
    let forced = std::env::var_os("SNN_FORCE_SCALAR").is_some_and(|v| v != "0" && !v.is_empty());
    let enabled = !forced && detect_simd();
    MODE.store(
        if enabled { MODE_SIMD } else { MODE_SCALAR },
        Ordering::Relaxed,
    );
    enabled
}

fn detect_simd() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Dot product in 8 lanes with the canonical fixed combine order:
/// per-lane accumulators over the `chunks_exact(8)` body, pairwise-tree
/// combine `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, then the remainder
/// folded in sequentially.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is only true after a successful AVX2
        // feature detection.
        return unsafe { avx2::dot(a, b) };
    }
    portable::dot(a, b)
}

/// `y += alpha * x`, laned. Elementwise: bit-identical on every path.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: gated on AVX2 detection.
        unsafe { avx2::axpy(alpha, x, y) };
        return;
    }
    portable::axpy(alpha, x, y);
}

/// `y += x`, laned: the `alpha = 1` axpy, kept separate so the hot
/// column-accumulation loop has no multiply.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add_assign(x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "add_assign: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: gated on AVX2 detection.
        unsafe { avx2::add_assign(x, y) };
        return;
    }
    portable::add_assign(x, y);
}

/// `x *= alpha`, laned (leaky-integrator decay step).
#[inline]
pub fn scale(alpha: f32, x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: gated on AVX2 detection.
        unsafe { avx2::scale(alpha, x) };
        return;
    }
    portable::scale(alpha, x);
}

/// `y[i] = a·x[i] + b·y[i]`, laned — the decay-and-charge update of
/// the BPTT reset-trace adjoint `dh = −ϑ·dv + β·dh`. Elementwise, so
/// bit-identical to the scalar loop it replaces.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn decay_axpy(a: f32, x: &[f32], b: f32, y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "decay_axpy: length mismatch");
    portable::decay_axpy(a, x, b, y);
}

/// `carry[i] = add[i] + alpha·carry[i]; out[i] = carry[i]`, laned — the
/// BPTT synapse-trace adjoint recursion `dk[t] = Wᵀ·dv + α·dk[t+1]`
/// with its write-through to the downstream adjoint row.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn carry_decay_out(alpha: f32, add: &[f32], carry: &mut [f32], out: &mut [f32]) {
    assert_eq!(add.len(), carry.len(), "carry_decay_out: length mismatch");
    assert_eq!(add.len(), out.len(), "carry_decay_out: length mismatch");
    portable::carry_decay_out(alpha, add, carry, out);
}

/// `out[i] = alpha·x[i]`, laned (the hard-reset input-gain projection
/// `dx[t] = gain·Wᵀ·dv`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn scale_copy(alpha: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "scale_copy: length mismatch");
    portable::scale_copy(alpha, x, out);
}

/// Collects the indices with `|x[i]| > eps` into `out` (cleared first,
/// capacity reused, ascending order). On AVX2 the compare runs 8 lanes
/// at a time with a movemask scan; index sets are exact, so the paths
/// agree bitwise.
///
/// The BPTT uses it to rebuild spike-column lists from forward records
/// without mutating them (the adjoint side goes through
/// `GradRaster::push_step_pruned`, which also zeroes the losers). With
/// `eps = 0.0` the surviving set is exactly the nonzero entries, which
/// is why the `Exact` sparsity policy is bit-identical to the dense
/// kernels: every dense gradient kernel already skips zero rows, so
/// pruning precisely that set changes nothing.
#[inline]
pub fn threshold_mask(x: &[f32], eps: f32, out: &mut Vec<usize>) {
    out.clear();
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: gated on AVX2 detection.
        unsafe { avx2::threshold_indices(x, eps, out) };
        return;
    }
    portable::threshold_indices(x, eps, out);
}

/// Appends to `out` the indices with `|x[i]| > eps` (ascending) and
/// zeroes every other entry in place — the pruning step behind
/// `GradRaster::push_step_pruned`. On AVX2 one compare per 8 lanes
/// yields a mask that both zeroes the losers (`+0.0`, like the scalar
/// `*v = 0.0`) and, through a movemask scan, lists the survivors, so no
/// entry takes a branch of its own. Index sets and values are exact,
/// so the paths agree bitwise.
#[inline]
pub fn prune_indices(x: &mut [f32], eps: f32, out: &mut Vec<usize>) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: gated on AVX2 detection.
        unsafe { avx2::prune_indices(x, eps, out) };
        return;
    }
    portable::prune_indices(x, eps, 0, out);
}

/// Width of a register tile, eight `f32x8` registers: the output rows
/// [`tile_rollout`] carries through a whole sequence (one `u64` of fire
/// bits per step), and the columns [`sparse_matmul_add`] keeps in
/// registers across a row's terms.
pub const TILE: usize = 8 * LANES;

/// One neuron kind's per-step update in [`tile_rollout`], with the
/// constants of one layer run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Neuron {
    /// The adaptive threshold (eqs. 6, 8 and 10) over the carried reset
    /// trace `h`: the potential is `v = g − ϑ·h`, and the trace the next
    /// step reads is `β·h`, plus 1 where the neuron fired.
    Adaptive {
        /// Reset-trace decay `β`.
        beta: f32,
        /// Reset charge `ϑ`.
        theta: f32,
        /// Firing threshold.
        v_th: f32,
    },
    /// The hard-reset LIF (eq. 1) over the carried potential `u`: the
    /// potential is `v = λ·u + gain·g`, and `u` becomes `+0.0` where the
    /// neuron fires, else `v`.
    HardReset {
        /// Membrane decay `λ`.
        lambda: f32,
        /// Input gain.
        gain: f32,
        /// Firing threshold.
        v_th: f32,
    },
}

/// How [`tile_rollout`] forms each step's drive `g[t]`.
#[derive(Debug, Clone, Copy)]
pub enum Drive<'a> {
    /// Event-driven: `g = α·g` (`+0.0` exactly when `α = 0`, whatever
    /// `g` held), then `g += column(c)` for each of the step's events in
    /// the order listed. `cols` holds the weights column-major (column
    /// `c` at `c·n_out`); step `t`'s events are
    /// `ids[offsets[t]..offsets[t + 1]]`.
    Events {
        /// Drive decay `α`.
        alpha: f32,
        /// Column-major weights, `n_out` rows per column.
        cols: &'a [f32],
        /// Per-step boundaries into `ids`; one more entry than steps.
        offsets: &'a [usize],
        /// Concatenated per-step input events (column indices).
        ids: &'a [usize],
    },
    /// Precomputed: `g[t]` is row `t` of a row-major `steps × n_out`
    /// matrix.
    Rows(&'a [f32]),
}

/// The state a layer carries from one [`tile_rollout`] into the next.
/// Each tile reads its rows on entry and writes them back on exit, so a
/// sequence rolled out in chunks gives the same bits as in one call.
#[derive(Debug)]
pub struct Carry<'a> {
    /// The drive `g` of the last step; `n_out` long.
    pub drive: &'a mut [f32],
    /// The reset trace the next step reads (adaptive) or the potential
    /// `u` (hard reset); `n_out` long.
    pub trace: &'a mut [f32],
}

/// Rolls a layer of `n_out` neurons (the width of `carry`) over `steps`
/// timesteps, tiles of [`TILE`] neurons outside and timesteps inside: a
/// tile's drive stays in registers for the whole sequence, and each
/// step's drive update, neuron update, record writes and fire bits
/// happen in one pass over the tile.
///
/// Every element sees one step's operations in the order [`Drive`] and
/// [`Neuron`] give them, the spike where `v ≥ v_th` (ordered: a NaN
/// potential never fires), one multiply and one add at a time and never
/// fused. `v` and `o`, when given, are row-major `steps × n_out` records
/// of the potential and of the spikes (`1.0`, else `+0.0`), and every
/// element is written. `fired` receives the fire bits tile-major: bit
/// `i` of `fired[k·steps + t]` is set when neuron `k·TILE + i` spikes at
/// step `t`.
///
/// On AVX2 the first `8·⌊w/8⌋` rows of each `w`-row tile run in `f32x8`
/// registers (`vmulps`/`vaddps`/`vsubps`, an ordered `>=` compare, a
/// blend for the reset-trace charge and a mask for the leak) and the
/// scalar loop, which is the portable path, handles the rest, so the
/// paths agree bitwise.
///
/// # Panics
///
/// Panics if a buffer's length disagrees with `steps` and `n_out`, if
/// the event offsets decrease or overrun `ids`, or if an event is not a
/// column of `cols`.
pub fn tile_rollout(
    steps: usize,
    neuron: Neuron,
    drive: Drive,
    carry: Carry,
    v: Option<&mut [f32]>,
    o: Option<&mut [f32]>,
    fired: &mut [u64],
) {
    let n_out = carry.drive.len();
    assert_eq!(carry.trace.len(), n_out, "tile_rollout: bad trace");
    assert_eq!(
        fired.len(),
        n_out.div_ceil(TILE) * steps,
        "tile_rollout: bad fired"
    );
    for rec in [v.as_deref(), o.as_deref()].into_iter().flatten() {
        assert_eq!(rec.len(), steps * n_out, "tile_rollout: bad record");
    }
    match drive {
        Drive::Events {
            cols, offsets, ids, ..
        } => {
            assert_eq!(offsets.len(), steps + 1, "tile_rollout: bad offsets");
            assert!(
                offsets.windows(2).all(|w| w[0] <= w[1]) && offsets[steps] <= ids.len(),
                "tile_rollout: bad offsets"
            );
            let n_cols = cols.len().checked_div(n_out).unwrap_or(0);
            assert_eq!(cols.len(), n_cols * n_out, "tile_rollout: bad cols");
            assert!(
                n_out == 0 || ids[offsets[0]..offsets[steps]].iter().all(|&c| c < n_cols),
                "tile_rollout: event out of range"
            );
        }
        Drive::Rows(rows) => assert_eq!(rows.len(), steps * n_out, "tile_rollout: bad rows"),
    }
    if steps == 0 {
        return;
    }
    let mut run = Run {
        n_out,
        neuron,
        drive,
        v,
        o,
    };
    let tiles = carry
        .drive
        .chunks_mut(TILE)
        .zip(carry.trace.chunks_mut(TILE));
    for (k, ((g, trace), fired)) in tiles.zip(fired.chunks_exact_mut(steps)).enumerate() {
        fired.fill(0);
        let mut laned = 0;
        #[cfg(target_arch = "x86_64")]
        if simd_enabled() {
            laned = g.len() / LANES * LANES;
            // SAFETY: gated on AVX2 detection; the checks above cover
            // every row, record, event and column the tile reads.
            unsafe {
                avx2::tile(
                    &mut run,
                    k * TILE,
                    &mut g[..laned],
                    &mut trace[..laned],
                    fired,
                )
            };
        }
        if laned < g.len() {
            portable::tile(
                &mut run,
                k * TILE + laned,
                laned,
                &mut g[laned..],
                &mut trace[laned..],
                fired,
            );
        }
    }
}

/// The shared inputs of one [`tile_rollout`], after its checks.
struct Run<'a, 'r> {
    n_out: usize,
    neuron: Neuron,
    drive: Drive<'a>,
    v: Option<&'r mut [f32]>,
    o: Option<&'r mut [f32]>,
}

/// A sparse matrix in compressed-row form: row `i` holds the terms
/// `(idx[k], coef[k])` for `k` in `offsets[i]..offsets[i + 1]`, in that
/// order. Offsets may start past 0, so a row range of a larger matrix
/// is a `SparseRows` too.
#[derive(Debug, Clone, Copy)]
pub struct SparseRows<'a> {
    /// Row boundaries into `idx` and `coef`; one more entry than rows.
    pub offsets: &'a [usize],
    /// Column index of each term.
    pub idx: &'a [usize],
    /// Value of each term.
    pub coef: &'a [f32],
}

impl SparseRows<'_> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()` or the offsets overrun the terms.
    pub fn row(&self, i: usize) -> (&[usize], &[f32]) {
        let (start, end) = (self.offsets[i], self.offsets[i + 1]);
        (&self.idx[start..end], &self.coef[start..end])
    }
}

/// `out += A·B` for a sparse `A` ([`SparseRows`]) and a dense row-major
/// `B` with `cols` columns: for each row `i` of `A` and each column `c`,
///
/// ```text
/// out[i][c] += coef[k]·b[idx[k]][c]   for each term k of row i, in order
/// ```
///
/// one multiply then one add per term and no FMA, so every element is
/// bit-identical to one [`axpy`] per term — the per-step loop this
/// replaces in the BPTT input adjoint `P = DV·W`.
/// Only the listed terms are touched, so a pruned entry costs nothing.
///
/// The speed comes from register blocking: the product runs over
/// 64-column tiles of `B`, each first copied into `pack` (a reusable
/// buffer, grown on first use) with every row 32-byte aligned, and each
/// row's 64-column slice of `out` stays in eight `f32x8` registers
/// across all its terms instead of making a memory round trip per term.
///
/// # Panics
///
/// Panics if `out` is not `A.rows() × cols`, if `b.len()` is not a
/// multiple of `cols`, if the offsets decrease or overrun the terms, or
/// if a term's index is not a row of `B`.
pub fn sparse_matmul_add(
    out: &mut [f32],
    cols: usize,
    a: &SparseRows,
    b: &[f32],
    pack: &mut Vec<f32>,
) {
    let rows = a.rows();
    assert_eq!(out.len(), rows * cols, "sparse_matmul_add: bad out");
    assert_eq!(a.idx.len(), a.coef.len(), "sparse_matmul_add: idx/coef");
    let b_rows = b.len().checked_div(cols).unwrap_or(0);
    assert_eq!(b.len(), b_rows * cols, "sparse_matmul_add: bad b");
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(
        a.offsets.windows(2).all(|w| w[0] <= w[1]) && a.offsets[rows] <= a.idx.len(),
        "sparse_matmul_add: bad offsets"
    );
    let terms = a.offsets[0]..a.offsets[rows];
    assert!(
        a.idx[terms].iter().all(|&j| j < b_rows),
        "sparse_matmul_add: index out of bounds"
    );

    // Room for every row of one tile plus the slack to align the start.
    pack.resize(b_rows * TILE + LANES, 0.0);
    let start = pack.as_ptr().align_offset(4 * LANES).min(LANES);
    let packed = &mut pack[start..start + b_rows * TILE];
    for c0 in (0..cols).step_by(TILE) {
        let w = TILE.min(cols - c0);
        for (dst, src) in packed.chunks_exact_mut(TILE).zip(b.chunks_exact(cols)) {
            dst[..w].copy_from_slice(&src[c0..c0 + w]);
        }
        for (i, out_row) in out.chunks_exact_mut(cols).enumerate() {
            let (idx, coef) = a.row(i);
            let acc = &mut out_row[c0..c0 + w];
            #[cfg(target_arch = "x86_64")]
            if simd_enabled() {
                // SAFETY: gated on AVX2 detection; every index was checked
                // to be a row of `B`, hence of `packed`.
                unsafe { avx2::sparse_tile(acc, packed, idx, coef) };
                continue;
            }
            portable::sparse_tile(acc, 0, packed, idx, coef);
        }
    }
}

/// A binary event raster regrouped by channel, the layout
/// [`add_event_columns`] reads: channel `c` fired at the steps
/// `at[offsets[c]..offsets[c + 1]]`, ascending. Reusable: the buffers
/// grow to the largest raster seen and then stop allocating.
#[derive(Debug, Clone, Default)]
pub struct ChannelEvents {
    /// Timesteps of the raster.
    steps: usize,
    /// Per-channel boundaries into `at`; one more entry than channels.
    offsets: Vec<usize>,
    /// Concatenated per-channel spike steps.
    at: Vec<u32>,
}

impl ChannelEvents {
    /// Refills from a raster of `offsets.len() − 1` steps given
    /// time-major, as [`Drive::Events`] lists it (step `t`'s channels are
    /// `ids[offsets[t]..offsets[t + 1]]`): a counting sort by channel,
    /// `O(events + channels)`, that keeps each channel's steps ascending.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty, decreases or overruns `ids`, if an
    /// event's channel is not below `channels`, or if the step count does
    /// not fit in a `u32`.
    pub fn regroup(&mut self, channels: usize, offsets: &[usize], ids: &[usize]) {
        let steps = offsets.len().checked_sub(1).expect("regroup: no offsets");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]) && offsets[steps] <= ids.len(),
            "regroup: bad offsets"
        );
        assert!(u32::try_from(steps).is_ok(), "regroup: too many steps");
        let events = &ids[offsets[0]..offsets[steps]];
        assert!(
            events.iter().all(|&c| c < channels),
            "regroup: channel out of range"
        );
        self.steps = steps;
        let starts = &mut self.offsets;
        starts.clear();
        starts.resize(channels + 1, 0);
        for &c in events {
            starts[c + 1] += 1;
        }
        for c in 0..channels {
            starts[c + 1] += starts[c];
        }
        self.at.clear();
        self.at.resize(events.len(), 0);
        // `starts[c]` serves as channel c's write cursor, ending at the
        // start of channel c + 1; the shift afterwards restores the starts.
        for t in 0..steps {
            for &c in &ids[offsets[t]..offsets[t + 1]] {
                self.at[starts[c]] = t as u32;
                starts[c] += 1;
            }
        }
        starts.copy_within(0..channels, 1);
        starts[0] = 0;
    }

    /// Timesteps of the raster.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the raster holds no event.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// The steps at which channel `c` fired, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `c >= channels()`.
    pub fn channel(&self, c: usize) -> &[u32] {
        &self.at[self.offsets[c]..self.offsets[c + 1]]
    }
}

/// `dw += Σ_s e[s] ⊗ x[s]` for a binary raster `x` given by its
/// [`ChannelEvents`]: for every spike of channel `c` at step `s`, row `s`
/// of `e` (`steps × n_out`, row-major) goes into column `c` of `dw`
/// (`n_out × channels`, row-major). Per element, a channel's terms are
/// summed in step order and the sum is added once:
///
/// ```text
/// dw[r][c] += (e[s₀][r] + e[s₁][r]) + …   over c's steps s₀ < s₁ < …
/// ```
///
/// This is the BPTT weight gradient in event form. A presynaptic trace
/// `k[t] = α·k[t−1] + x[t]` is linear in `x`, so
/// `Σ_t dv[t] ⊗ k[t] = Σ_s e[s] ⊗ x[s]` with `e[s] = dv[s] + α·e[s+1]`:
/// the work is one add per event and output row instead of a dense
/// `n_out × n_in` product per step.
///
/// The sums start from `−0.0`, the exact identity of IEEE addition, so
/// a channel with no event leaves its column bitwise unchanged (signed
/// zeros included) whether a path skips it or adds its empty sum. On
/// AVX2, blocks of 8 rows × 8 channels are summed in 8 registers, one
/// per channel, transposed in registers and added into 8 row segments
/// of `dw`, so `dw` is written in its own layout; blocks without an
/// event are skipped. The portable loop handles the last `n_out mod 8`
/// rows, and all of them without AVX2; the paths agree bitwise.
///
/// # Panics
///
/// Panics if `dw.len()` is not a multiple of `events.channels()` or `e`
/// is not `events.steps()` rows of `dw.len() / events.channels()`.
pub fn add_event_columns(dw: &mut [f32], e: &[f32], events: &ChannelEvents) {
    let n_in = events.channels();
    let n_out = dw.len().checked_div(n_in).unwrap_or(0);
    assert_eq!(dw.len(), n_out * n_in, "add_event_columns: bad dw");
    assert_eq!(e.len(), events.steps() * n_out, "add_event_columns: bad e");
    if n_out == 0 || events.is_empty() {
        return;
    }
    let mut r0 = 0;
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        r0 = n_out / LANES * LANES;
        // SAFETY: gated on AVX2 detection; the checks above make every
        // event step a row of `e` and every channel a column of `dw`.
        unsafe { avx2::event_columns(dw, e, events, r0) };
    }
    for r0 in (r0..n_out).step_by(LANES) {
        portable::event_columns(dw, e, events, r0..n_out.min(r0 + LANES));
    }
}

/// Maximum over a slice, laned. Returns `f32::NEG_INFINITY` for an
/// empty slice. `max` is associative and commutative, so the lane
/// reduction is exact; NaN entries are skipped (`f32::max` semantics).
/// Portable-only: a peak scan is never hot enough to justify an
/// intrinsics path (and `_mm256_max_ps` differs from `f32::max` on
/// NaN, which would fork the semantics for no win).
#[inline]
pub fn reduce_max(x: &[f32]) -> f32 {
    let mut chunks = x.chunks_exact(LANES);
    let mut acc = [f32::NEG_INFINITY; LANES];
    for c in chunks.by_ref() {
        for l in 0..LANES {
            acc[l] = acc[l].max(c[l]);
        }
    }
    let mut m = f32::NEG_INFINITY;
    for a in acc {
        m = m.max(a);
    }
    for &v in chunks.remainder() {
        m = m.max(v);
    }
    m
}

/// Portable chunk loops — the always-correct fallback and the canonical
/// definition of every kernel's float semantics.
mod portable {
    use super::{ChannelEvents, Drive, Neuron, Run, LANES, TILE};

    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        let mut acc = [0.0f32; LANES];
        for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
            for l in 0..LANES {
                acc[l] += pa[l] * pb[l];
            }
        }
        let mut sum = combine_tree(&acc);
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            sum += x * y;
        }
        sum
    }

    /// The canonical pairwise-tree combine of the 8 lane accumulators.
    #[inline]
    pub fn combine_tree(acc: &[f32; LANES]) -> f32 {
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    }

    #[inline]
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let mut cx = x.chunks_exact(LANES);
        let mut cy = y.chunks_exact_mut(LANES);
        for (px, py) in cx.by_ref().zip(cy.by_ref()) {
            for l in 0..LANES {
                py[l] += alpha * px[l];
            }
        }
        for (x, y) in cx.remainder().iter().zip(cy.into_remainder()) {
            *y += alpha * x;
        }
    }

    #[inline]
    pub fn add_assign(x: &[f32], y: &mut [f32]) {
        let mut cx = x.chunks_exact(LANES);
        let mut cy = y.chunks_exact_mut(LANES);
        for (px, py) in cx.by_ref().zip(cy.by_ref()) {
            for l in 0..LANES {
                py[l] += px[l];
            }
        }
        for (x, y) in cx.remainder().iter().zip(cy.into_remainder()) {
            *y += x;
        }
    }

    #[inline]
    pub fn scale(alpha: f32, x: &mut [f32]) {
        let mut cx = x.chunks_exact_mut(LANES);
        for px in cx.by_ref() {
            for xl in px.iter_mut() {
                *xl *= alpha;
            }
        }
        for x in cx.into_remainder() {
            *x *= alpha;
        }
    }

    #[inline]
    pub fn decay_axpy(a: f32, x: &[f32], b: f32, y: &mut [f32]) {
        let mut cx = x.chunks_exact(LANES);
        let mut cy = y.chunks_exact_mut(LANES);
        for (px, py) in cx.by_ref().zip(cy.by_ref()) {
            for l in 0..LANES {
                py[l] = a * px[l] + b * py[l];
            }
        }
        for (x, y) in cx.remainder().iter().zip(cy.into_remainder()) {
            *y = a * x + b * *y;
        }
    }

    #[inline]
    pub fn carry_decay_out(alpha: f32, add: &[f32], carry: &mut [f32], out: &mut [f32]) {
        let mut ca = add.chunks_exact(LANES);
        let mut cc = carry.chunks_exact_mut(LANES);
        let mut co = out.chunks_exact_mut(LANES);
        for ((pa, pc), po) in ca.by_ref().zip(cc.by_ref()).zip(co.by_ref()) {
            for l in 0..LANES {
                pc[l] = pa[l] + alpha * pc[l];
                po[l] = pc[l];
            }
        }
        for ((a, c), o) in ca
            .remainder()
            .iter()
            .zip(cc.into_remainder())
            .zip(co.into_remainder())
        {
            *c = a + alpha * *c;
            *o = *c;
        }
    }

    #[inline]
    pub fn scale_copy(alpha: f32, x: &[f32], out: &mut [f32]) {
        let mut cx = x.chunks_exact(LANES);
        let mut co = out.chunks_exact_mut(LANES);
        for (px, po) in cx.by_ref().zip(co.by_ref()) {
            for l in 0..LANES {
                po[l] = alpha * px[l];
            }
        }
        for (x, o) in cx.remainder().iter().zip(co.into_remainder()) {
            *o = alpha * x;
        }
    }

    #[inline]
    pub fn threshold_indices(x: &[f32], eps: f32, out: &mut Vec<usize>) {
        for (i, &v) in x.iter().enumerate() {
            if v.abs() > eps {
                out.push(i);
            }
        }
    }

    /// [`super::prune_indices`] with the recorded indices offset by
    /// `first`, so the AVX2 path can hand it its tail.
    #[inline]
    pub fn prune_indices(x: &mut [f32], eps: f32, first: usize, out: &mut Vec<usize>) {
        for (i, v) in x.iter_mut().enumerate() {
            if v.abs() > eps {
                out.push(first + i);
            } else {
                *v = 0.0;
            }
        }
    }

    /// Rows `r0..r0 + g.len()` of one [`super::tile_rollout`] tile
    /// (`g` and `trace` are their carried state), whose fire bits are
    /// ORed into `fired` from bit `bit0` on, so the AVX2 path can hand
    /// it its tail rows.
    pub fn tile(
        run: &mut Run,
        r0: usize,
        bit0: usize,
        g_carry: &mut [f32],
        trace: &mut [f32],
        fired: &mut [u64],
    ) {
        let w = g_carry.len();
        let n_out = run.n_out;
        let mut g = [0.0f32; TILE];
        let g = &mut g[..w];
        g.copy_from_slice(g_carry);
        for (t, fired) in fired.iter_mut().enumerate() {
            match run.drive {
                Drive::Events {
                    alpha,
                    cols,
                    offsets,
                    ids,
                } => {
                    for x in g.iter_mut() {
                        *x = if alpha == 0.0 { 0.0 } else { alpha * *x };
                    }
                    for &c in &ids[offsets[t]..offsets[t + 1]] {
                        let col = &cols[c * n_out + r0..][..w];
                        for (x, y) in g.iter_mut().zip(col) {
                            *x += y;
                        }
                    }
                }
                Drive::Rows(rows) => g.copy_from_slice(&rows[t * n_out + r0..][..w]),
            }
            // The step's potentials and spikes (1.0 or +0.0), in
            // branch-free loops the compiler can vectorize.
            let (mut v, mut o) = ([0.0f32; TILE], [0.0f32; TILE]);
            let elements = g.iter().zip(trace.iter_mut()).zip(v.iter_mut().zip(&mut o));
            match run.neuron {
                Neuron::Adaptive { beta, theta, v_th } => {
                    for ((&g, h), (v, o)) in elements {
                        *v = g - theta * *h;
                        let fire = *v >= v_th;
                        *o = if fire { 1.0 } else { 0.0 };
                        let bh = beta * *h;
                        *h = if fire { bh + 1.0 } else { bh };
                    }
                }
                Neuron::HardReset { lambda, gain, v_th } => {
                    for ((&g, u), (v, o)) in elements {
                        *v = lambda * *u + gain * g;
                        let fire = *v >= v_th;
                        *o = if fire { 1.0 } else { 0.0 };
                        *u = if fire { 0.0 } else { *v };
                    }
                }
            }
            let at = t * n_out + r0;
            if let Some(row) = run.v.as_deref_mut() {
                row[at..at + w].copy_from_slice(&v[..w]);
            }
            if let Some(row) = run.o.as_deref_mut() {
                row[at..at + w].copy_from_slice(&o[..w]);
            }
            let bits = o[..w]
                .iter()
                .enumerate()
                .fold(0u64, |bits, (i, &x)| bits | u64::from(x != 0.0) << i);
            *fired |= bits << bit0;
        }
        g_carry.copy_from_slice(g);
    }

    /// Columns `c0..c0 + acc.len()` of one tile of
    /// [`super::sparse_matmul_add`] (`acc.len() <= TILE - c0`), through
    /// a stack accumulator; `packed` holds the tile's rows of `B` at
    /// stride `TILE`.
    pub fn sparse_tile(acc: &mut [f32], c0: usize, packed: &[f32], idx: &[usize], coef: &[f32]) {
        let w = acc.len();
        let mut tile = [0.0f32; TILE];
        tile[..w].copy_from_slice(acc);
        for (&j, &s) in idx.iter().zip(coef) {
            let at = j * TILE + c0;
            for (a, &x) in tile[..w].iter_mut().zip(&packed[at..at + w]) {
                *a += s * x;
            }
        }
        acc.copy_from_slice(&tile[..w]);
    }

    /// Rows `rows` (at most [`LANES`]) of [`super::add_event_columns`],
    /// one channel at a time; channels without events are skipped.
    pub fn event_columns(
        dw: &mut [f32],
        e: &[f32],
        events: &ChannelEvents,
        rows: std::ops::Range<usize>,
    ) {
        let n_in = events.channels();
        let n_out = e.len() / events.steps();
        let (r0, w) = (rows.start, rows.len());
        for c in 0..n_in {
            let at = events.channel(c);
            if at.is_empty() {
                continue;
            }
            let mut acc = [-0.0f32; LANES];
            for &s in at {
                let row = &e[s as usize * n_out + r0..][..w];
                for (a, &x) in acc.iter_mut().zip(row) {
                    *a += x;
                }
            }
            for (i, &a) in acc[..w].iter().enumerate() {
                dw[(r0 + i) * n_in + c] += a;
            }
        }
    }
}

/// AVX2 intrinsics paths. Separate multiply + add throughout (no FMA)
/// and the same pairwise-tree reduction as the portable loop, so every
/// function here is bit-identical to its portable counterpart.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{portable, ChannelEvents, Drive, Neuron, Run, LANES, TILE};
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Requires AVX2 (callers gate on `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let chunks = a.len() / LANES;
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            // SAFETY: i * LANES + LANES <= len by construction.
            let va = unsafe { _mm256_loadu_ps(a.as_ptr().add(i * LANES)) };
            let vb = unsafe { _mm256_loadu_ps(b.as_ptr().add(i * LANES)) };
            // mul + add, not FMA: keeps the intermediate rounding the
            // portable loop performs.
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        let mut lanes = [0.0f32; LANES];
        // SAFETY: `lanes` is 8 f32s; storeu has no alignment demand.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
        let mut sum = portable::combine_tree(&lanes);
        for (x, y) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
            sum += x * y;
        }
        sum
    }

    /// # Safety
    ///
    /// Requires AVX2 (callers gate on `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let chunks = x.len() / LANES;
        let va = _mm256_set1_ps(alpha);
        for i in 0..chunks {
            // SAFETY: i * LANES + LANES <= len by construction.
            unsafe {
                let px = _mm256_loadu_ps(x.as_ptr().add(i * LANES));
                let py = _mm256_loadu_ps(y.as_ptr().add(i * LANES));
                _mm256_storeu_ps(
                    y.as_mut_ptr().add(i * LANES),
                    _mm256_add_ps(py, _mm256_mul_ps(va, px)),
                );
            }
        }
        for (x, y) in x[chunks * LANES..].iter().zip(&mut y[chunks * LANES..]) {
            *y += alpha * x;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (callers gate on `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign(x: &[f32], y: &mut [f32]) {
        // Peel `y` up to a 32-byte boundary with scalar adds, so every
        // laned store is aligned: with `y` 16 bytes off, every other
        // store splits a cache line, which cost the fused accumulation
        // up to a third more. Elementwise, so where the lanes start
        // cannot change a bit.
        let head = y.as_ptr().align_offset(32).min(y.len());
        let (x_head, x) = x.split_at(head);
        let (y_head, y) = y.split_at_mut(head);
        for (x, y) in x_head.iter().zip(y_head) {
            *y += x;
        }
        let chunks = x.len() / LANES;
        for i in 0..chunks {
            // SAFETY: i * LANES + LANES <= len by construction.
            unsafe {
                let px = _mm256_loadu_ps(x.as_ptr().add(i * LANES));
                let py = _mm256_loadu_ps(y.as_ptr().add(i * LANES));
                _mm256_storeu_ps(y.as_mut_ptr().add(i * LANES), _mm256_add_ps(py, px));
            }
        }
        for (x, y) in x[chunks * LANES..].iter().zip(&mut y[chunks * LANES..]) {
            *y += x;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (callers gate on `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale(alpha: f32, x: &mut [f32]) {
        let chunks = x.len() / LANES;
        let va = _mm256_set1_ps(alpha);
        for i in 0..chunks {
            // SAFETY: i * LANES + LANES <= len by construction.
            unsafe {
                let px = _mm256_loadu_ps(x.as_ptr().add(i * LANES));
                _mm256_storeu_ps(x.as_mut_ptr().add(i * LANES), _mm256_mul_ps(va, px));
            }
        }
        for x in &mut x[chunks * LANES..] {
            *x *= alpha;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (callers gate on `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn threshold_indices(x: &[f32], eps: f32, out: &mut Vec<usize>) {
        let chunks = x.len() / LANES;
        let veps = _mm256_set1_ps(eps);
        // Clearing the sign bit is `abs` for every finite and infinite
        // value; NaN stays NaN and compares false, same as the scalar
        // `v.abs() > eps`.
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        for i in 0..chunks {
            // SAFETY: i * LANES + LANES <= len by construction.
            let v = unsafe { _mm256_loadu_ps(x.as_ptr().add(i * LANES)) };
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_and_ps(v, abs_mask), veps);
            let mut bits = _mm256_movemask_ps(gt) as u32;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                out.push(i * LANES + l);
                bits &= bits - 1;
            }
        }
        for (i, &v) in x[chunks * LANES..].iter().enumerate() {
            if v.abs() > eps {
                out.push(chunks * LANES + i);
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (callers gate on `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn prune_indices(x: &mut [f32], eps: f32, out: &mut Vec<usize>) {
        let chunks = x.len() / LANES;
        let veps = _mm256_set1_ps(eps);
        // Sign-bit clear = `abs`; NaN compares false and is zeroed, as
        // in the scalar loop.
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        for i in 0..chunks {
            // SAFETY: i * LANES + LANES <= len by construction.
            unsafe {
                let p = x.as_mut_ptr().add(i * LANES);
                let v = _mm256_loadu_ps(p);
                let keep = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_and_ps(v, abs_mask), veps);
                _mm256_storeu_ps(p, _mm256_and_ps(v, keep));
                let mut bits = _mm256_movemask_ps(keep) as u32;
                while bits != 0 {
                    out.push(i * LANES + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
        portable::prune_indices(&mut x[chunks * LANES..], eps, chunks * LANES, out);
    }

    /// The first `g.len()` rows (a multiple of 8, at most [`TILE`]) of
    /// one [`super::tile_rollout`] tile from row `r0`, in `g.len() / 8`
    /// drive registers; `g` and `trace` are their carried state.
    ///
    /// # Safety
    ///
    /// Requires AVX2, and `run` checked by `tile_rollout`: rows
    /// `r0..r0 + g.len()` inside every record, row and column.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tile(
        run: &mut Run,
        r0: usize,
        g: &mut [f32],
        trace: &mut [f32],
        fired: &mut [u64],
    ) {
        // SAFETY: each arm covers 8·R = g.len() rows; the caller's
        // contract covers the rest.
        unsafe {
            match g.len() / LANES {
                0 => {}
                1 => regs::<1>(run, r0, g, trace, fired),
                2 => regs::<2>(run, r0, g, trace, fired),
                3 => regs::<3>(run, r0, g, trace, fired),
                4 => regs::<4>(run, r0, g, trace, fired),
                5 => regs::<5>(run, r0, g, trace, fired),
                6 => regs::<6>(run, r0, g, trace, fired),
                7 => regs::<7>(run, r0, g, trace, fired),
                _ => regs::<8>(run, r0, g, trace, fired),
            }
        }
    }

    /// `R` drive registers over rows `r0..r0 + 8·R`, held across every
    /// step, with the neuron kind's update.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `g.len() == trace.len() == 8·R`, and the contract
    /// of [`tile`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn regs<const R: usize>(
        run: &mut Run,
        r0: usize,
        g: &mut [f32],
        trace: &mut [f32],
        fired: &mut [u64],
    ) {
        let one = _mm256_set1_ps(1.0);
        // SAFETY: each update reads and writes the 8 floats of carried
        // trace `steps` points it at (the caller's contract).
        unsafe {
            match run.neuron {
                Neuron::Adaptive { beta, theta, v_th } => {
                    let (beta, theta, v_th) = (
                        _mm256_set1_ps(beta),
                        _mm256_set1_ps(theta),
                        _mm256_set1_ps(v_th),
                    );
                    steps::<R>(run, r0, g, trace, fired, |g, hp| {
                        let h = _mm256_loadu_ps(hp);
                        // mul + sub, not FMA, as in the scalar `g − θ·h`.
                        let v = _mm256_sub_ps(g, _mm256_mul_ps(theta, h));
                        // Ordered compare: a NaN potential never fires.
                        let fire = _mm256_cmp_ps::<_CMP_GE_OQ>(v, v_th);
                        // The next step's trace: β·h, plus 1 where the
                        // lane fired (the blend keeps the others' product
                        // as it is).
                        let bh = _mm256_mul_ps(beta, h);
                        _mm256_storeu_ps(hp, _mm256_blendv_ps(bh, _mm256_add_ps(bh, one), fire));
                        (v, fire)
                    })
                }
                Neuron::HardReset { lambda, gain, v_th } => {
                    let (lambda, gain, v_th) = (
                        _mm256_set1_ps(lambda),
                        _mm256_set1_ps(gain),
                        _mm256_set1_ps(v_th),
                    );
                    steps::<R>(run, r0, g, trace, fired, |g, up| {
                        let v = _mm256_add_ps(
                            _mm256_mul_ps(lambda, _mm256_loadu_ps(up)),
                            _mm256_mul_ps(gain, g),
                        );
                        let fire = _mm256_cmp_ps::<_CMP_GE_OQ>(v, v_th);
                        // The hard reset: +0.0 where the lane fired.
                        _mm256_storeu_ps(up, _mm256_andnot_ps(fire, v));
                        (v, fire)
                    })
                }
            }
        }
    }

    /// The step loop of [`regs`]: `update` turns one register of drive
    /// and the 8 floats of carried trace it points at (read and written
    /// in place) into the potential and the fire mask.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and the contract of [`regs`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn steps<const R: usize>(
        run: &mut Run,
        r0: usize,
        g_carry: &mut [f32],
        trace: &mut [f32],
        fired: &mut [u64],
        update: impl Fn(__m256, *mut f32) -> (__m256, __m256),
    ) {
        let stride = run.n_out;
        let v_rec = run.v.as_deref_mut().map(|v| v[r0..].as_mut_ptr());
        let o_rec = run.o.as_deref_mut().map(|o| o[r0..].as_mut_ptr());
        let (run, tp) = (&*run, trace.as_mut_ptr());
        let one = _mm256_set1_ps(1.0);
        // SAFETY: the pointers cover 8·R floats of the carried state and,
        // at `t·stride`, of each record row (the caller's contract).
        unsafe {
            let mut g = [_mm256_setzero_ps(); R];
            for (k, r) in g.iter_mut().enumerate() {
                *r = _mm256_loadu_ps(g_carry.as_ptr().add(k * LANES));
            }
            for (t, fired) in fired.iter_mut().enumerate() {
                drive_step(&mut g, run, r0, t);
                let mut bits = 0u64;
                for (k, &gk) in g.iter().enumerate() {
                    let (v, fire) = update(gk, tp.add(k * LANES));
                    let at = t * stride + k * LANES;
                    if let Some(p) = v_rec {
                        _mm256_storeu_ps(p.add(at), v);
                    }
                    if let Some(p) = o_rec {
                        // All-ones lanes keep 1.0; the rest store +0.0.
                        _mm256_storeu_ps(p.add(at), _mm256_and_ps(fire, one));
                    }
                    bits |= lane_bits(fire) << (k * LANES);
                }
                *fired |= bits;
            }
            for (k, r) in g.iter().enumerate() {
                _mm256_storeu_ps(g_carry.as_mut_ptr().add(k * LANES), *r);
            }
        }
    }

    /// One step's drive in `R` registers over rows `r0..r0 + 8·R`: the
    /// leak `α·g` (`vmulps`, then a mask that clears it to `+0.0` when
    /// `α = 0`) and one `vaddps` per event column, or a load of the
    /// step's row.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and the contract of [`tile`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn drive_step<const R: usize>(g: &mut [__m256; R], run: &Run, r0: usize, t: usize) {
        // SAFETY: every event is a column of `cols` and rows
        // `r0..r0 + 8·R` lie inside `n_out` (the caller's contract).
        unsafe {
            match run.drive {
                Drive::Events {
                    alpha,
                    cols,
                    offsets,
                    ids,
                } => {
                    let keep =
                        _mm256_cmp_ps::<_CMP_NEQ_UQ>(_mm256_set1_ps(alpha), _mm256_setzero_ps());
                    let alpha = _mm256_set1_ps(alpha);
                    for r in g.iter_mut() {
                        *r = _mm256_and_ps(_mm256_mul_ps(alpha, *r), keep);
                    }
                    for &c in &ids[offsets[t]..offsets[t + 1]] {
                        let col = cols.as_ptr().add(c * run.n_out + r0);
                        for (k, r) in g.iter_mut().enumerate() {
                            *r = _mm256_add_ps(*r, _mm256_loadu_ps(col.add(k * LANES)));
                        }
                    }
                }
                Drive::Rows(rows) => {
                    let row = rows.as_ptr().add(t * run.n_out + r0);
                    for (k, r) in g.iter_mut().enumerate() {
                        *r = _mm256_loadu_ps(row.add(k * LANES));
                    }
                }
            }
        }
    }

    /// The fire bits of one register's lanes, lane `l` at bit `l`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lane_bits(fire: __m256) -> u64 {
        u64::from(_mm256_movemask_ps(fire) as u32)
    }

    /// One row tile of [`super::sparse_matmul_add`]: `acc.len() <= TILE`
    /// columns, whole `f32x8` chunks in registers, the rest scalar.
    ///
    /// # Safety
    ///
    /// Requires AVX2, and every index of `idx` must be a row of `packed`
    /// (stride `TILE`); `coef` must be as long as `idx`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sparse_tile(acc: &mut [f32], packed: &[f32], idx: &[usize], coef: &[f32]) {
        let chunks = acc.len() / LANES;
        // SAFETY: each arm covers chunks·8 <= acc.len() columns, and the
        // caller's contract covers the rows of `packed`.
        unsafe {
            match chunks {
                0 => {}
                1 => sparse_tile_regs::<1>(acc, packed, idx, coef),
                2 => sparse_tile_regs::<2>(acc, packed, idx, coef),
                3 => sparse_tile_regs::<3>(acc, packed, idx, coef),
                4 => sparse_tile_regs::<4>(acc, packed, idx, coef),
                5 => sparse_tile_regs::<5>(acc, packed, idx, coef),
                6 => sparse_tile_regs::<6>(acc, packed, idx, coef),
                7 => sparse_tile_regs::<7>(acc, packed, idx, coef),
                _ => sparse_tile_regs::<8>(acc, packed, idx, coef),
            }
        }
        let c0 = chunks * LANES;
        if c0 < acc.len() {
            portable::sparse_tile(&mut acc[c0..], c0, packed, idx, coef);
        }
    }

    /// `R` accumulator registers over the first `8·R` columns of `acc`,
    /// held across the whole term list.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `8·R <= acc.len()`, and the contract of
    /// [`sparse_tile`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sparse_tile_regs<const R: usize>(
        acc: &mut [f32],
        packed: &[f32],
        idx: &[usize],
        coef: &[f32],
    ) {
        // SAFETY: the caller guarantees every pointer below stays inside
        // `acc` and `packed`.
        unsafe {
            let out = acc.as_mut_ptr();
            let mut regs = [_mm256_setzero_ps(); R];
            for (k, r) in regs.iter_mut().enumerate() {
                *r = _mm256_loadu_ps(out.add(k * LANES));
            }
            for (&j, &c) in idx.iter().zip(coef) {
                let s = _mm256_set1_ps(c);
                let row = packed.as_ptr().add(j * TILE);
                for (k, r) in regs.iter_mut().enumerate() {
                    // mul + add, not FMA, as in `axpy`.
                    *r = _mm256_add_ps(*r, _mm256_mul_ps(s, _mm256_loadu_ps(row.add(k * LANES))));
                }
            }
            for (k, r) in regs.iter().enumerate() {
                _mm256_storeu_ps(out.add(k * LANES), *r);
            }
        }
    }

    /// Rows `0..rows` (a multiple of 8) of [`super::add_event_columns`]
    /// in blocks of 8 rows × 8 channels: one register per channel sums
    /// its steps' row segments, [`transpose`] turns the 8 channel sums
    /// into 8 row segments, and each is added into `dw` with one load,
    /// add and store (scalar adds for the last `channels mod 8`
    /// columns). A block whose channels have no event is skipped.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `rows <= n_out`, and `dw` and `e` of the shapes
    /// [`super::add_event_columns`] checks, with every event step a row
    /// of `e`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn event_columns(dw: &mut [f32], e: &[f32], events: &ChannelEvents, rows: usize) {
        let n_in = events.channels();
        let n_out = e.len() / events.steps();
        let empty = _mm256_set1_ps(-0.0);
        // SAFETY: every step indexes a row of `e`, every row `r0 + i` is
        // below `n_out` and every column `c0 + j` below `n_in` (the
        // caller's contract).
        unsafe {
            for r0 in (0..rows).step_by(LANES) {
                let segment = e.as_ptr().add(r0);
                for c0 in (0..n_in).step_by(LANES) {
                    let cw = LANES.min(n_in - c0);
                    let starts = &events.offsets[c0..=c0 + cw];
                    if starts[0] == starts[cw] {
                        continue;
                    }
                    let mut sums = [empty; LANES];
                    for (j, sum) in sums.iter_mut().enumerate().take(cw) {
                        for &s in &events.at[starts[j]..starts[j + 1]] {
                            *sum = _mm256_add_ps(
                                *sum,
                                _mm256_loadu_ps(segment.add(s as usize * n_out)),
                            );
                        }
                    }
                    transpose(&mut sums);
                    for (i, sum) in sums.iter().enumerate() {
                        let out = dw.as_mut_ptr().add((r0 + i) * n_in + c0);
                        if cw == LANES {
                            _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(out), *sum));
                        } else {
                            let mut lanes = [0.0f32; LANES];
                            _mm256_storeu_ps(lanes.as_mut_ptr(), *sum);
                            for (j, &x) in lanes[..cw].iter().enumerate() {
                                *out.add(j) += x;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Transposes 8 registers as the rows of an 8×8 matrix: afterwards
    /// lane `j` of register `i` holds what lane `i` of register `j` held.
    /// Pure data movement, so no bit changes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose(r: &mut [__m256; LANES]) {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        r[0] = _mm256_permute2f128_ps::<0x20>(u0, u4);
        r[1] = _mm256_permute2f128_ps::<0x20>(u1, u5);
        r[2] = _mm256_permute2f128_ps::<0x20>(u2, u6);
        r[3] = _mm256_permute2f128_ps::<0x20>(u3, u7);
        r[4] = _mm256_permute2f128_ps::<0x31>(u0, u4);
        r[5] = _mm256_permute2f128_ps::<0x31>(u1, u5);
        r[6] = _mm256_permute2f128_ps::<0x31>(u2, u6);
        r[7] = _mm256_permute2f128_ps::<0x31>(u3, u7);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn vec_rng(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect()
    }

    const LENS: [usize; 13] = [0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 33, 100, 1027];

    #[test]
    fn dot_matches_naive_across_lengths() {
        let mut rng = Rng::seed_from(1);
        for len in LENS {
            let a = vec_rng(len, &mut rng);
            let b = vec_rng(len, &mut rng);
            let fast = dot(&a, &b);
            let slow: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                (fast - slow).abs() < 1e-3 * (1.0 + slow.abs()),
                "len {len}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn simd_and_portable_paths_agree_bitwise() {
        // The contract is *exact* equality (stronger than the 1-ULP
        // tolerance the refactor promised): no FMA, same combine tree.
        if !simd_enabled() {
            return; // nothing to cross-check on this host
        }
        let mut rng = Rng::seed_from(2);
        // Every start offset within a 32-byte line: the AVX2 paths peel
        // or not depending on where the slices start.
        for offset in 0..LANES {
            for len in LENS {
                let a = vec_rng(offset + len, &mut rng);
                let b = vec_rng(offset + len, &mut rng);
                let y0 = vec_rng(offset + len, &mut rng);
                let (a, b) = (&a[offset..], &b[offset..]);
                let mut y_simd = y0.clone();
                let mut y_port = y0.clone();
                let mut y_plain = y0;
                let (y_simd, y_port) = (&mut y_simd[offset..], &mut y_port[offset..]);
                let mut m_simd = Vec::new();
                let mut m_port = Vec::new();

                let d_simd = dot(a, b);
                axpy(0.37, a, y_simd);
                add_assign(b, y_simd);
                scale(0.93, y_simd);
                threshold_mask(y_simd, 0.25, &mut m_simd);

                set_force_scalar(true);
                let d_port = dot(a, b);
                axpy(0.37, a, y_port);
                add_assign(b, y_port);
                scale(0.93, y_port);
                threshold_mask(y_port, 0.25, &mut m_port);
                set_force_scalar(false);

                for ((y, &a), &b) in y_plain[offset..].iter_mut().zip(a).zip(b) {
                    *y += 0.37 * a;
                    *y += b;
                    *y *= 0.93;
                }

                let at = format!("offset {offset} len {len}");
                assert_eq!(d_simd.to_bits(), d_port.to_bits(), "dot {at}");
                for ((s, p), q) in y_simd.iter().zip(y_port.iter()).zip(&y_plain[offset..]) {
                    assert_eq!(s.to_bits(), p.to_bits(), "elementwise {at}");
                    assert_eq!(s.to_bits(), q.to_bits(), "elementwise vs plain loop {at}");
                }
                assert_eq!(m_simd, m_port, "threshold_mask {at}");
            }
        }
    }

    #[test]
    fn repeated_runs_are_bitwise_deterministic() {
        let mut rng = Rng::seed_from(3);
        let a = vec_rng(517, &mut rng);
        let b = vec_rng(517, &mut rng);
        let first = dot(&a, &b);
        for _ in 0..10 {
            assert_eq!(first.to_bits(), dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn decay_axpy_matches_scalar_loop_bitwise() {
        let mut rng = Rng::seed_from(4);
        for len in LENS {
            let x = vec_rng(len, &mut rng);
            let mut y = vec_rng(len, &mut rng);
            let mut y_ref = y.clone();
            decay_axpy(-0.7, &x, 0.9, &mut y);
            for (yr, xr) in y_ref.iter_mut().zip(&x) {
                *yr = -0.7 * xr + 0.9 * *yr;
            }
            for (a, b) in y.iter().zip(&y_ref) {
                assert_eq!(a.to_bits(), b.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn carry_decay_out_matches_scalar_loop_bitwise() {
        let mut rng = Rng::seed_from(5);
        for len in LENS {
            let add = vec_rng(len, &mut rng);
            let mut carry = vec_rng(len, &mut rng);
            let mut carry_ref = carry.clone();
            let mut out = vec![0.0f32; len];
            let mut out_ref = vec![0.0f32; len];
            carry_decay_out(0.6, &add, &mut carry, &mut out);
            for j in 0..len {
                carry_ref[j] = add[j] + 0.6 * carry_ref[j];
                out_ref[j] = carry_ref[j];
            }
            assert_eq!(carry, carry_ref, "carry len {len}");
            assert_eq!(out, out_ref, "out len {len}");
        }
    }

    #[test]
    fn scale_copy_matches_scalar_loop() {
        let mut rng = Rng::seed_from(6);
        let x = vec_rng(41, &mut rng);
        let mut out = vec![0.0f32; 41];
        scale_copy(1.5, &x, &mut out);
        for (o, x) in out.iter().zip(&x) {
            assert_eq!(o.to_bits(), (1.5 * x).to_bits());
        }
    }

    #[test]
    fn threshold_mask_is_exact_and_ascending() {
        let x = [0.0, 0.5, -0.5, 0.1, -2.0, 0.0, 0.3, f32::NAN, 1.0];
        let mut out = vec![7usize]; // must be cleared
        threshold_mask(&x, 0.25, &mut out);
        assert_eq!(out, vec![1, 2, 4, 6, 8]);
        threshold_mask(&x, 0.0, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 6, 8]);
    }

    #[test]
    fn reduce_max_matches_fold() {
        let mut rng = Rng::seed_from(7);
        for len in LENS {
            let x = vec_rng(len, &mut rng);
            let want = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            assert_eq!(reduce_max(&x), want, "len {len}");
        }
        assert_eq!(reduce_max(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn prune_indices_matches_scalar_loop_bitwise() {
        let mut rng = Rng::seed_from(8);
        for len in LENS {
            let mut x = vec_rng(len, &mut rng);
            for (i, v) in x.iter_mut().enumerate() {
                match i % 7 {
                    0 => *v = 0.0,
                    1 => *v = -0.0,
                    2 => *v = 0.25, // == eps: pruned
                    3 => *v = f32::NAN,
                    _ => {}
                }
            }
            let (mut want_x, mut want) = (x.clone(), vec![3usize]);
            for (i, v) in want_x.iter_mut().enumerate() {
                if v.abs() > 0.25 {
                    want.push(i);
                } else {
                    *v = 0.0;
                }
            }
            for force in [false, true] {
                set_force_scalar(force);
                let (mut got_x, mut got) = (x.clone(), vec![3usize]);
                prune_indices(&mut got_x, 0.25, &mut got);
                set_force_scalar(false);
                assert_eq!(got, want, "indices, len {len}, scalar {force}");
                let same = got_x
                    .iter()
                    .zip(&want_x)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "values, len {len}, scalar {force}");
            }
        }
    }

    /// One [`tile_rollout`] problem: `n_out` neurons over `steps` steps
    /// of events on `n_in` inputs (or of precomputed drive rows), from a
    /// carried state with exact threshold hits, signed zeros, ±inf and
    /// NaN in every lane position.
    struct TileCase {
        steps: usize,
        n_out: usize,
        cols: Vec<f32>,
        offsets: Vec<usize>,
        ids: Vec<usize>,
        rows: Vec<f32>,
        g: Vec<f32>,
        trace: Vec<f32>,
    }

    /// What a rollout leaves: the carried state, both records and the
    /// fire bits.
    #[derive(Debug, PartialEq)]
    struct TileOut {
        g: Vec<u32>,
        trace: Vec<u32>,
        v: Vec<u32>,
        o: Vec<u32>,
        fired: Vec<u64>,
    }

    const TILE_WIDTHS: [usize; 8] = [1, 7, 8, 9, 63, 64, 65, 130];

    fn tile_case(n_out: usize, steps: usize, v_th: f32, rng: &mut Rng) -> TileCase {
        let n_in = 11;
        let (mut offsets, mut ids) = (vec![0usize], Vec::new());
        for _ in 0..steps {
            ids.extend((0..n_in).filter(|_| rng.coin(0.3)));
            offsets.push(ids.len());
        }
        let mut g = vec_rng(n_out, rng);
        let mut trace: Vec<f32> = (0..n_out).map(|_| rng.uniform(0.0, 2.0)).collect();
        for i in 0..n_out {
            (g[i], trace[i]) = match i % 10 {
                0 => (v_th, 0.0),
                1 => (0.0, 0.0),
                2 => (-0.0, 0.0),
                3 => (0.0, -0.0),
                4 => (f32::INFINITY, trace[i]),
                5 => (f32::NEG_INFINITY, trace[i]),
                6 => (g[i], f32::INFINITY),
                7 => (f32::NAN, trace[i]),
                8 => (g[i], f32::NAN),
                _ => (g[i], trace[i]),
            };
        }
        let mut rows = vec_rng(steps * n_out, rng);
        for (i, x) in rows.iter_mut().enumerate() {
            match i % 7 {
                0 => *x = v_th,
                1 => *x = -0.0,
                _ => {}
            }
        }
        TileCase {
            steps,
            n_out,
            cols: vec_rng(n_in * n_out, rng),
            offsets,
            ids,
            rows,
            g,
            trace,
        }
    }

    fn to_bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|x| x.to_bits()).collect()
    }

    impl TileCase {
        fn drive(&self, rows: bool, alpha: f32) -> Drive<'_> {
            if rows {
                Drive::Rows(&self.rows)
            } else {
                Drive::Events {
                    alpha,
                    cols: &self.cols,
                    offsets: &self.offsets,
                    ids: &self.ids,
                }
            }
        }

        /// [`tile_rollout`] from this case's state; records not asked
        /// for come back as the `9.0` they were filled with.
        fn run(&self, neuron: Neuron, drive: Drive, records: (bool, bool)) -> TileOut {
            let (g, trace) = (&mut self.g.clone(), &mut self.trace.clone());
            let len = self.steps * self.n_out;
            let (mut v, mut o) = (vec![9.0f32; len], vec![9.0f32; len]);
            let mut fired = vec![u64::MAX; self.n_out.div_ceil(TILE) * self.steps];
            let carry = Carry { drive: g, trace };
            tile_rollout(
                self.steps,
                neuron,
                drive,
                carry,
                records.0.then_some(v.as_mut_slice()),
                records.1.then_some(o.as_mut_slice()),
                &mut fired,
            );
            TileOut {
                g: to_bits(g),
                trace: to_bits(trace),
                v: to_bits(&v),
                o: to_bits(&o),
                fired,
            }
        }

        /// [`tile_rollout`] as its docs define it: one step at a time
        /// over whole vectors, with both records.
        fn reference(&self, neuron: Neuron, drive: Drive) -> TileOut {
            let (steps, n) = (self.steps, self.n_out);
            let (mut g, mut trace) = (self.g.clone(), self.trace.clone());
            let (mut v, mut o) = (vec![0.0f32; steps * n], vec![0.0f32; steps * n]);
            let mut fired = vec![0u64; n.div_ceil(TILE) * steps];
            for t in 0..steps {
                match drive {
                    Drive::Rows(rows) => g.copy_from_slice(&rows[t * n..(t + 1) * n]),
                    Drive::Events {
                        alpha,
                        cols,
                        offsets,
                        ids,
                    } => {
                        for x in g.iter_mut() {
                            *x = if alpha == 0.0 { 0.0 } else { alpha * *x };
                        }
                        for &c in &ids[offsets[t]..offsets[t + 1]] {
                            for i in 0..n {
                                g[i] += cols[c * n + i];
                            }
                        }
                    }
                }
                for i in 0..n {
                    let (vi, fire) = match neuron {
                        Neuron::Adaptive { beta, theta, v_th } => {
                            let vi = g[i] - theta * trace[i];
                            trace[i] *= beta;
                            if vi >= v_th {
                                trace[i] += 1.0;
                            }
                            (vi, vi >= v_th)
                        }
                        Neuron::HardReset { lambda, gain, v_th } => {
                            let vi = lambda * trace[i] + gain * g[i];
                            let fire = vi >= v_th;
                            trace[i] = if fire { 0.0 } else { vi };
                            (vi, fire)
                        }
                    };
                    v[t * n + i] = vi;
                    o[t * n + i] = if fire { 1.0 } else { 0.0 };
                    if fire {
                        fired[i / TILE * steps + t] |= 1 << (i % TILE);
                    }
                }
            }
            TileOut {
                g: to_bits(&g),
                trace: to_bits(&trace),
                v: to_bits(&v),
                o: to_bits(&o),
                fired,
            }
        }
    }

    /// Every width, drive source and record combination of one neuron
    /// kind against the step-at-a-time reference, on both paths.
    fn tile_matches_step_reference(neuron: impl Fn(f32) -> Neuron, seed: u64) {
        let mut rng = Rng::seed_from(seed);
        for n_out in TILE_WIDTHS {
            for v_th in [0.4f32, 0.0] {
                let case = tile_case(n_out, 13, v_th, &mut rng);
                let neuron = neuron(v_th);
                for (rows, alpha) in [(false, 0.37f32), (false, 0.0), (false, 1.0), (true, 0.0)] {
                    let drive = case.drive(rows, alpha);
                    let want = case.reference(neuron, drive);
                    for force in [false, true] {
                        for records in [(true, true), (true, false), (false, true), (false, false)]
                        {
                            set_force_scalar(force);
                            let got = case.run(neuron, drive, records);
                            set_force_scalar(false);
                            let at = format!(
                                "{neuron:?}, n_out {n_out}, rows {rows}, alpha {alpha}, \
                                 scalar {force}, records {records:?}"
                            );
                            let nine = to_bits(&vec![9.0; case.steps * n_out]);
                            assert_eq!(got.g, want.g, "drive, {at}");
                            assert_eq!(got.trace, want.trace, "trace, {at}");
                            assert_eq!(got.fired, want.fired, "fire bits, {at}");
                            assert_eq!(&got.v, if records.0 { &want.v } else { &nine }, "v, {at}");
                            assert_eq!(&got.o, if records.1 { &want.o } else { &nine }, "o, {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_tile_matches_step_reference_bitwise() {
        tile_matches_step_reference(
            |v_th| Neuron::Adaptive {
                beta: 0.8,
                theta: 0.3,
                v_th,
            },
            10,
        );
    }

    #[test]
    fn hard_reset_tile_matches_step_reference_bitwise() {
        tile_matches_step_reference(
            |v_th| Neuron::HardReset {
                lambda: 0.9,
                gain: 0.25,
                v_th,
            },
            11,
        );
    }

    #[test]
    fn tile_kernels_avx2_match_portable_bitwise() {
        if !simd_enabled() {
            return; // nothing to cross-check on this host
        }
        let mut rng = Rng::seed_from(12);
        for n_out in TILE_WIDTHS {
            let case = tile_case(n_out, 17, 0.4, &mut rng);
            for neuron in [
                Neuron::Adaptive {
                    beta: 0.8,
                    theta: 0.3,
                    v_th: 0.4,
                },
                Neuron::HardReset {
                    lambda: 0.9,
                    gain: 0.25,
                    v_th: 0.4,
                },
            ] {
                for (rows, alpha) in [(false, 0.37f32), (false, 0.0), (false, 1.0), (true, 0.0)] {
                    let drive = case.drive(rows, alpha);
                    let lanes = case.run(neuron, drive, (true, true));
                    set_force_scalar(true);
                    let portable = case.run(neuron, drive, (true, true));
                    set_force_scalar(false);
                    assert_eq!(
                        lanes, portable,
                        "{neuron:?}, n_out {n_out}, rows {rows}, alpha {alpha}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "event out of range")]
    fn tile_rollout_rejects_an_event_outside_cols() {
        let carry = Carry {
            drive: &mut [0.0; 3],
            trace: &mut [0.0; 3],
        };
        let neuron = Neuron::HardReset {
            lambda: 0.5,
            gain: 1.0,
            v_th: 1.0,
        };
        let drive = Drive::Events {
            alpha: 0.0,
            cols: &[0.0; 6],
            offsets: &[0, 1],
            ids: &[2],
        };
        tile_rollout(1, neuron, drive, carry, None, None, &mut [0]);
    }

    /// [`sparse_matmul_add`] as its docs define it: each term in row
    /// order, one multiply and one add per element.
    fn sparse_matmul_reference(out: &mut [f32], cols: usize, a: &SparseRows, b: &[f32]) {
        for i in 0..a.rows() {
            let (idx, coef) = a.row(i);
            for (&j, &s) in idx.iter().zip(coef) {
                for c in 0..cols {
                    out[i * cols + c] += s * b[j * cols + c];
                }
            }
        }
    }

    #[test]
    fn sparse_matmul_add_matches_scalar_loop_bitwise() {
        let (rows, b_rows) = (5usize, 11usize);
        let mut rng = Rng::seed_from(9);
        let mut pack = Vec::new();
        for cols in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
            for fill in ["empty", "full", "random"] {
                // Row i's terms; the offsets start past 0 (a row range
                // of a larger matrix) and every row's list is unsorted.
                let mut offsets = vec![2usize];
                let (mut idx, mut coef) = (vec![9usize, 9], vec![f32::NAN; 2]);
                for _ in 0..rows {
                    for j in (0..b_rows).rev() {
                        if fill == "full" || (fill == "random" && rng.coin(0.5)) {
                            idx.push(j);
                            coef.push(rng.uniform(-2.0, 2.0));
                        }
                    }
                    offsets.push(idx.len());
                }
                let a = SparseRows {
                    offsets: &offsets,
                    idx: &idx,
                    coef: &coef,
                };
                let b = vec_rng(b_rows * cols, &mut rng);
                let out0 = vec_rng(rows * cols, &mut rng);
                let mut want = out0.clone();
                sparse_matmul_reference(&mut want, cols, &a, &b);
                for force in [false, true] {
                    set_force_scalar(force);
                    let mut got = out0.clone();
                    sparse_matmul_add(&mut got, cols, &a, &b, &mut pack);
                    set_force_scalar(false);
                    let same = got
                        .iter()
                        .zip(&want)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "cols {cols}, {fill} lists, scalar {force}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn sparse_matmul_add_rejects_a_row_outside_b() {
        let a = SparseRows {
            offsets: &[0, 1],
            idx: &[2],
            coef: &[1.0],
        };
        sparse_matmul_add(&mut [0.0; 3], 3, &a, &[0.0; 6], &mut Vec::new());
    }

    /// A `steps × channels` raster in time-major event lists, spiking
    /// with probability `density`, plus every step on the channels that
    /// are multiples of `busy` (when given).
    fn event_raster(
        steps: usize,
        channels: usize,
        density: f32,
        busy: Option<usize>,
        rng: &mut Rng,
    ) -> (Vec<usize>, Vec<usize>) {
        let (mut offsets, mut ids) = (vec![0usize], Vec::new());
        for _ in 0..steps {
            ids.extend(
                (0..channels).filter(|&c| busy.is_some_and(|b| c % b == 0) || rng.coin(density)),
            );
            offsets.push(ids.len());
        }
        (offsets, ids)
    }

    /// [`add_event_columns`] as its docs define it: per element, the
    /// channel's terms in step order from `−0.0`, added once — to every
    /// element, so a channel without events adds its empty sum.
    fn event_columns_reference(
        dw: &mut [f32],
        e: &[f32],
        offsets: &[usize],
        ids: &[usize],
        n_in: usize,
    ) {
        let n_out = dw.len() / n_in;
        let mut sums = vec![-0.0f32; n_out * n_in];
        for t in 0..offsets.len() - 1 {
            for &c in &ids[offsets[t]..offsets[t + 1]] {
                for r in 0..n_out {
                    sums[r * n_in + c] += e[t * n_out + r];
                }
            }
        }
        for (w, s) in dw.iter_mut().zip(&sums) {
            *w += s;
        }
    }

    #[test]
    fn channel_events_regroup_by_channel_in_step_order() {
        let mut rng = Rng::seed_from(13);
        let mut events = ChannelEvents::default();
        assert_eq!((events.steps(), events.channels()), (0, 0));
        assert!(events.is_empty());
        // Shrinking and growing through one value reuses its buffers.
        for (steps, channels, density) in
            [(30, 11, 0.3f32), (4, 3, 0.0), (1, 9, 1.0), (50, 70, 0.05)]
        {
            let (offsets, ids) = event_raster(steps, channels, density, None, &mut rng);
            events.regroup(channels, &offsets, &ids);
            assert_eq!((events.steps(), events.channels()), (steps, channels));
            assert_eq!(events.is_empty(), ids.is_empty());
            for c in 0..channels {
                let want: Vec<u32> = (0..steps)
                    .filter(|&t| ids[offsets[t]..offsets[t + 1]].contains(&c))
                    .map(|t| t as u32)
                    .collect();
                assert_eq!(events.channel(c), want, "channel {c} of {channels}");
            }
        }
        // Offsets may start past 0, as in a row range of a larger list.
        events.regroup(4, &[2, 3, 5], &[9, 9, 1, 0, 3]);
        assert_eq!(events.steps(), 2);
        let lists: Vec<&[u32]> = (0..4).map(|c| events.channel(c)).collect();
        assert_eq!(lists, [&[1u32][..], &[0], &[], &[1]]);
    }

    #[test]
    fn event_columns_avx2_and_portable_match_the_definition_bitwise() {
        let mut rng = Rng::seed_from(14);
        let mut events = ChannelEvents::default();
        for n_out in [1usize, 7, 8, 9, 63, 64, 65, 400] {
            for n_in in [1usize, 7, 8, 9, 700] {
                for steps in [1usize, 100] {
                    for (fill, density, busy) in [
                        ("empty", 0.0f32, None),
                        ("sparse", 0.027, None),
                        ("busy channels", 0.01, Some(5)),
                    ] {
                        let (offsets, ids) = event_raster(steps, n_in, density, busy, &mut rng);
                        events.regroup(n_in, &offsets, &ids);
                        // Signed zeros in both operands: a -0.0 sum keeps a
                        // -0.0 entry, a +0.0 term flips it to +0.0.
                        let mut e = vec_rng(steps * n_out, &mut rng);
                        for (i, x) in e.iter_mut().enumerate() {
                            match i % 5 {
                                0 => *x = -0.0,
                                1 => *x = 0.0,
                                _ => {}
                            }
                        }
                        let mut dw0 = vec_rng(n_out * n_in, &mut rng);
                        for (i, x) in dw0.iter_mut().enumerate() {
                            match i % 3 {
                                0 => *x = -0.0,
                                1 => *x = 0.0,
                                _ => {}
                            }
                        }
                        let mut want = dw0.clone();
                        event_columns_reference(&mut want, &e, &offsets, &ids, n_in);
                        let mut got = Vec::new();
                        for force in [false, true] {
                            set_force_scalar(force);
                            let mut dw = dw0.clone();
                            add_event_columns(&mut dw, &e, &events);
                            set_force_scalar(false);
                            got.push(to_bits(&dw));
                        }
                        let at = format!("n_out {n_out}, n_in {n_in}, steps {steps}, {fill}");
                        assert_eq!(got[0], got[1], "AVX2 vs portable, {at}");
                        assert_eq!(got[1], to_bits(&want), "definition, {at}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "add_event_columns: bad e")]
    fn add_event_columns_rejects_e_of_the_wrong_shape() {
        let mut events = ChannelEvents::default();
        events.regroup(3, &[0, 1, 1], &[2]);
        add_event_columns(&mut [0.0; 6], &[0.0; 3], &events);
    }

    #[test]
    fn lane_width_is_eight() {
        // The fixed combine tree above is written for 8 lanes; a width
        // change must be a deliberate, fixture-regenerating event.
        assert_eq!(LANES, 8);
    }
}
