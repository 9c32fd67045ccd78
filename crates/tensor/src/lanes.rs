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
//! # The BPTT adjoint step
//!
//! [`adjoint_step`] is phase 1 of the backward pass for one timestep of
//! one layer, fused: the membrane adjoint through the surrogate
//! derivative ([`Pseudo`]; the Gaussian through the repository's own
//! `exp`, which uses no libm call), its pruning into error events
//! left-packed into a [`GradRaster`] without a branch, the carries and
//! the event-form row `e[t]`, for both neuron kinds ([`Adjoint`]). It
//! mirrors `Surrogate::grad` in `snn-neuron` operation for operation, so
//! its two paths and that scalar specification agree bit for bit.
//!
//! # Forcing the scalar fallback
//!
//! Set `SNN_FORCE_SCALAR=1` in the environment (read once, on first
//! kernel use) or call [`set_force_scalar`] at runtime (used by the
//! kernel bench's lane sweep and the cross-path tests). Because the two
//! paths are bit-identical, flipping the switch mid-process can never
//! change results — only throughput.

use crate::GradRaster;
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

/// One layer's adjoint recursion in [`adjoint_step`], with the constants
/// of its neuron kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Adjoint {
    /// The adaptive threshold: `dv = (ext + dh)·σ'(v − v_th)`, then the
    /// reset-trace carry `dh ← −ϑ·dv + β·dh` and the event-form row
    /// `e[t] = dv + α·e[t+1]`.
    Adaptive {
        /// Synapse-trace decay `α`.
        alpha: f32,
        /// Reset-trace decay `β`.
        beta: f32,
        /// Reset charge `ϑ`.
        theta: f32,
        /// Firing threshold.
        v_th: f32,
    },
    /// The hard reset, with the gradient stopped through the reset:
    /// `dv = ext·σ'(v − v_th) + λ·(1 − o)·dv[t+1]` and `e[t] = gain·dv`.
    HardReset {
        /// Membrane decay `λ`.
        lambda: f32,
        /// Input gain.
        gain: f32,
        /// Firing threshold.
        v_th: f32,
    },
}

/// The spike function's surrogate derivative `σ'(x)` in
/// [`adjoint_step`], its constants resolved. `Surrogate::grad` in
/// `snn-neuron` is the scalar specification, which the kernel mirrors
/// operation for operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pseudo {
    /// The paper's Gaussian (eq. 14), `exp(k·x²)·peak`, through the
    /// repository's `exp`: a Cody–Waite reduction by `ln 2`, a degree-7
    /// polynomial and `2ⁿ` from exponent bits, with separate multiplies
    /// and adds and no libm call.
    Gauss {
        /// `−0.5/σ²`.
        k: f32,
        /// `1/(√(2π)·σ)`.
        peak: f32,
    },
    /// `height` where `|x| < width`, else `+0.0`.
    Rect {
        /// Half-width of the window.
        width: f32,
        /// Its value inside, `0.5/width`.
        height: f32,
    },
    /// `1 / (1 + slope·|x|)²`.
    FastSigmoid {
        /// Slope steepness, non-negative.
        slope: f32,
    },
}

/// Step `t`'s rows that [`adjoint_step`] reads, one value per neuron.
#[derive(Debug, Clone, Copy)]
pub struct AdjointRows<'a> {
    /// The upstream adjoint `∂E/∂O[t]`.
    pub ext: &'a [f32],
    /// The membrane potentials `v[t]`.
    pub v: &'a [f32],
    /// The spikes `o[t]` (the hard reset reads them).
    pub o: &'a [f32],
    /// `e[t + 1]`, zeros at the last step (the adaptive kind reads it).
    pub e_next: &'a [f32],
}

/// One timestep of phase 1 of BPTT in one pass over a layer's neurons:
/// the membrane adjoint `dv[t]` from the upstream adjoint row, the carry
/// and `σ'(v − v_th)` ([`Adjoint`], [`Pseudo`]), its pruning, the
/// carries and the event-form row `e[t]`.
///
/// `dv` holds `dv[t+1]` on entry (the hard-reset carry reads it) and
/// `dv[t]` on exit. `dh` holds the adaptive reset-trace carry, `dh[t+1]`
/// on entry and `dh[t]` on exit; the hard reset leaves it alone. `e`
/// receives `e[t]`.
///
/// With `prune = Some((ε, events))` every `dv` with `|dv| ≤ ε`, and
/// every NaN, becomes `+0.0` before anything reads it, and the
/// survivors' indices (ascending) and values are appended to `events`
/// as one step, so the carries see exactly the recorded events. The
/// survivors are left-packed without a branch: on AVX2 a compare and
/// movemask per 8 lanes select a permutation from a 256-entry table,
/// and one full-width store of values and of indices is followed by a
/// cursor advance of the lane count; the scalar loop writes every
/// element at the cursor and advances it only for a survivor. Without
/// `prune`, nothing is pruned and nothing is recorded.
///
/// Every element sees the operations of its [`Adjoint`] and [`Pseudo`]
/// in the order they are written there, one multiply and one add at a
/// time, never fused. On AVX2 whole `f32x8` chunks run in registers
/// (the surrogates of up to 8 chunks first, which do not wait on the
/// pack cursor, then the rest chunk by chunk) and the scalar loop, which
/// is the portable path, takes the last `n mod 8` neurons, so the paths
/// agree bitwise.
///
/// # Panics
///
/// Panics if the rows, `dh` or `e` differ in length from `dv`.
pub fn adjoint_step(
    neuron: Adjoint,
    surrogate: Pseudo,
    rows: AdjointRows,
    dv: &mut [f32],
    dh: &mut [f32],
    e: &mut [f32],
    prune: Option<(f32, &mut GradRaster)>,
) {
    let n = dv.len();
    let lens = [
        ("ext", rows.ext.len()),
        ("v", rows.v.len()),
        ("o", rows.o.len()),
        ("e_next", rows.e_next.len()),
        ("dh", dh.len()),
        ("e", e.len()),
    ];
    for (name, len) in lens {
        assert_eq!(len, n, "adjoint_step: bad {name}");
    }
    assert!(u32::try_from(n).is_ok(), "adjoint_step: too wide");
    let (eps, mut events) = prune.map_or((0.0, None), |(eps, events)| (eps, Some(events)));
    let pack = events.as_mut().map(|events| {
        let (idx, val) = events.spare(n);
        Pack {
            eps,
            idx,
            val,
            len: 0,
        }
    });
    let mut step = Step {
        neuron,
        surrogate,
        rows,
        dv,
        dh,
        e,
        pack,
    };
    let mut laned = 0;
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        laned = n / LANES * LANES;
        // SAFETY: gated on AVX2 detection; every row and buffer is `n`
        // long (checked above) and `spare` made room for `n` entries.
        unsafe { avx2::adjoint_step(&mut step, laned) };
    }
    portable::adjoint_step(&mut step, laned);
    if let (Some(events), Some(pack)) = (events, step.pack) {
        // SAFETY: the kernels wrote the first `pack.len <= n` entries
        // through the pointers `spare` handed out.
        unsafe { events.commit(pack.len, n) };
    }
}

/// The checked operands of one [`adjoint_step`].
struct Step<'a, 'b> {
    neuron: Adjoint,
    surrogate: Pseudo,
    rows: AdjointRows<'a>,
    dv: &'b mut [f32],
    dh: &'b mut [f32],
    e: &'b mut [f32],
    pack: Option<Pack>,
}

/// Where a pruning [`adjoint_step`] left-packs its survivors: the end of
/// a [`GradRaster`]'s index and value lists, with room for the step's
/// width, and the count written so far.
struct Pack {
    eps: f32,
    idx: *mut usize,
    val: *mut f32,
    len: usize,
}

impl Pack {
    /// Prunes `d` (`+0.0` unless `|d| > ε`) and writes it with its index
    /// `i` at the cursor, which moves on only for a survivor.
    ///
    /// # Safety
    ///
    /// `i` must be below the step's width that `spare` made room for, and
    /// every earlier call of the step must have had a smaller `i`, so the
    /// cursor is at most `i`.
    #[inline]
    unsafe fn push(&mut self, i: usize, d: f32) -> f32 {
        let keep = d.abs() > self.eps;
        let d = if keep { d } else { 0.0 };
        // SAFETY: cursor <= i < width (the caller's contract).
        unsafe {
            self.idx.add(self.len).write(i);
            self.val.add(self.len).write(d);
        }
        self.len += usize::from(keep);
        d
    }
}

/// Range ends of the repository's `exp` (the same as `Surrogate::grad`'s
/// in `snn-neuron`), into which arguments are clamped: at `EXP_MAX` the
/// result overflows to `+∞`, at `EXP_MIN` it rounds to `+0.0`.
const EXP_MAX: f32 = 88.722_84;
const EXP_MIN: f32 = -104.0;
/// `1.5·2²³`: adding it rounds `|t| < 2²²` to an integer.
const EXP_SHIFT: f32 = 12_582_912.0;
/// `ln 2` split for the Cody–Waite reduction; `n·LN2_HI` is exact.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes' `expf` polynomial: `eʳ ≈ 1 + r + r²·P(r)`, Horner order.
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    0.166_666_65,
    0.5,
];

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
    use super::{
        Adjoint, ChannelEvents, Drive, Neuron, Pseudo, Run, Step, EXP_MAX, EXP_MIN, EXP_POLY,
        EXP_SHIFT, LANES, LN2_HI, LN2_LO, TILE,
    };

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

    /// Neurons `from..` of [`super::adjoint_step`], one at a time, so the
    /// AVX2 path can hand it its tail.
    pub fn adjoint_step(step: &mut Step, from: usize) {
        let Step {
            neuron,
            surrogate,
            rows,
            dv,
            dh,
            e,
            pack,
        } = step;
        let v_th = match *neuron {
            Adjoint::Adaptive { v_th, .. } | Adjoint::HardReset { v_th, .. } => v_th,
        };
        for i in from..dv.len() {
            let g = pseudo(*surrogate, rows.v[i] - v_th);
            let mut d = match *neuron {
                Adjoint::Adaptive { .. } => (rows.ext[i] + dh[i]) * g,
                Adjoint::HardReset { lambda, .. } => {
                    rows.ext[i] * g + lambda * (1.0 - rows.o[i]) * dv[i]
                }
            };
            if let Some(pack) = pack {
                // SAFETY: `adjoint_step` made room for `dv.len()` entries,
                // and `i` rises from `from`, where the AVX2 chunks (at
                // most one entry each) left the cursor.
                d = unsafe { pack.push(i, d) };
            }
            dv[i] = d;
            match *neuron {
                Adjoint::Adaptive {
                    alpha, beta, theta, ..
                } => {
                    dh[i] = -theta * d + beta * dh[i];
                    e[i] = d + alpha * rows.e_next[i];
                }
                Adjoint::HardReset { gain, .. } => e[i] = gain * d,
            }
        }
    }

    /// `σ'(x)` of one element, as `Surrogate::grad` specifies it.
    #[inline]
    fn pseudo(surrogate: Pseudo, x: f32) -> f32 {
        match surrogate {
            Pseudo::Gauss { k, peak } => exp(x * x * k) * peak,
            Pseudo::Rect { width, height } => {
                if x.abs() < width {
                    height
                } else {
                    0.0
                }
            }
            Pseudo::FastSigmoid { slope } => {
                let d = 1.0 + slope * x.abs();
                1.0 / (d * d)
            }
        }
    }

    /// The repository's `eˣ`, the scalar copy of `Surrogate::grad`'s (see
    /// [`super::Pseudo::Gauss`]); the AVX2 `exp` mirrors it lane by lane.
    #[inline]
    pub fn exp(x: f32) -> f32 {
        // Clamped into range; a NaN passes both compares and propagates.
        let x = if x < EXP_MIN { EXP_MIN } else { x };
        let x = if x > EXP_MAX { EXP_MAX } else { x };
        let shifted = x * std::f32::consts::LOG2_E + EXP_SHIFT;
        let n = shifted - EXP_SHIFT;
        let r = (x - n * LN2_HI) - n * LN2_LO;
        let mut p = EXP_POLY[0];
        for c in &EXP_POLY[1..] {
            p = p * r + c;
        }
        let y = (p * (r * r) + r) + 1.0;
        // 2ⁿ in two normal factors, so a subnormal result rounds once.
        let n = (shifted.to_bits() as i32).wrapping_sub(EXP_SHIFT.to_bits() as i32);
        let half = n >> 1;
        y * pow2(n.wrapping_sub(half)) * pow2(half)
    }

    /// `2ⁿ` for a normal exponent `n`, from its bits.
    #[inline]
    fn pow2(n: i32) -> f32 {
        f32::from_bits((n.wrapping_add(127) as u32) << 23)
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
    use super::{
        portable, Adjoint, ChannelEvents, Drive, Neuron, Pack, Pseudo, Run, Step, EXP_MAX, EXP_MIN,
        EXP_POLY, EXP_SHIFT, LANES, LN2_HI, LN2_LO, TILE,
    };
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

    /// The first `laned` neurons (a multiple of 8) of
    /// [`super::adjoint_step`], 8 lanes at a time, with the surrogate's
    /// lane form.
    ///
    /// # Safety
    ///
    /// Requires AVX2, every row and buffer of `step` at least `laned`
    /// long, and room for `laned` entries behind the pack's pointers.
    #[target_feature(enable = "avx2")]
    pub unsafe fn adjoint_step(step: &mut Step, laned: usize) {
        let one = _mm256_set1_ps(1.0);
        // SAFETY: forwarded from the caller.
        unsafe {
            match step.surrogate {
                Pseudo::Gauss { k, peak } => {
                    let (k, peak) = (_mm256_set1_ps(k), _mm256_set1_ps(peak));
                    adjoint_chunks(step, laned, |x| {
                        _mm256_mul_ps(exp(_mm256_mul_ps(_mm256_mul_ps(x, x), k)), peak)
                    })
                }
                Pseudo::Rect { width, height } => {
                    let (width, height) = (_mm256_set1_ps(width), _mm256_set1_ps(height));
                    adjoint_chunks(step, laned, |x| {
                        let inside = _mm256_cmp_ps::<_CMP_LT_OQ>(abs(x), width);
                        _mm256_and_ps(inside, height)
                    })
                }
                Pseudo::FastSigmoid { slope } => {
                    let slope = _mm256_set1_ps(slope);
                    adjoint_chunks(step, laned, |x| {
                        let d = _mm256_add_ps(one, _mm256_mul_ps(slope, abs(x)));
                        _mm256_div_ps(one, _mm256_mul_ps(d, d))
                    })
                }
            }
        }
    }

    /// The chunk loop of [`adjoint_step`] for the neuron kind, `grad`
    /// being the surrogate's lane form.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and the contract of [`adjoint_step`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn adjoint_chunks(step: &mut Step, laned: usize, grad: impl Fn(__m256) -> __m256) {
        let Step {
            neuron,
            rows,
            dv,
            dh,
            e,
            pack,
            ..
        } = step;
        let (ext, v, o, e_next) = (
            rows.ext.as_ptr(),
            rows.v.as_ptr(),
            rows.o.as_ptr(),
            rows.e_next.as_ptr(),
        );
        let (dv, dh, e) = (dv.as_mut_ptr(), dh.as_mut_ptr(), e.as_mut_ptr());
        let v_th = _mm256_set1_ps(match *neuron {
            Adjoint::Adaptive { v_th, .. } | Adjoint::HardReset { v_th, .. } => v_th,
        });
        // The surrogate of a block of up to 8 chunks first, then the rest
        // chunk by chunk: the blocks' surrogates are independent of each
        // other and of the pack cursor, so they overlap in the pipeline.
        let mut grads = [_mm256_setzero_ps(); LANES];
        // SAFETY: `i + 8 <= laned`, inside every row and buffer (the
        // caller's contract).
        unsafe {
            for b in (0..laned).step_by(LANES * LANES) {
                let block = ((laned - b) / LANES).min(LANES);
                for (k, g) in grads.iter_mut().enumerate().take(block) {
                    *g = grad(_mm256_sub_ps(_mm256_loadu_ps(v.add(b + k * LANES)), v_th));
                }
                match *neuron {
                    Adjoint::Adaptive {
                        alpha, beta, theta, ..
                    } => {
                        let (alpha, beta, neg_theta) = (
                            _mm256_set1_ps(alpha),
                            _mm256_set1_ps(beta),
                            _mm256_set1_ps(-theta),
                        );
                        for (k, &g) in grads.iter().enumerate().take(block) {
                            let i = b + k * LANES;
                            let h = _mm256_loadu_ps(dh.add(i));
                            let mut d =
                                _mm256_mul_ps(_mm256_add_ps(_mm256_loadu_ps(ext.add(i)), h), g);
                            if let Some(pack) = pack {
                                d = pack8(pack, d, i);
                            }
                            _mm256_storeu_ps(dv.add(i), d);
                            // mul + add, not FMA: −ϑ·dv + β·dh and dv + α·e[t+1]
                            let h =
                                _mm256_add_ps(_mm256_mul_ps(neg_theta, d), _mm256_mul_ps(beta, h));
                            _mm256_storeu_ps(dh.add(i), h);
                            let carried = _mm256_mul_ps(alpha, _mm256_loadu_ps(e_next.add(i)));
                            _mm256_storeu_ps(e.add(i), _mm256_add_ps(d, carried));
                        }
                    }
                    Adjoint::HardReset { lambda, gain, .. } => {
                        let (lambda, gain, one) = (
                            _mm256_set1_ps(lambda),
                            _mm256_set1_ps(gain),
                            _mm256_set1_ps(1.0),
                        );
                        for (k, &g) in grads.iter().enumerate().take(block) {
                            let i = b + k * LANES;
                            let open = _mm256_mul_ps(
                                lambda,
                                _mm256_sub_ps(one, _mm256_loadu_ps(o.add(i))),
                            );
                            let carried = _mm256_mul_ps(open, _mm256_loadu_ps(dv.add(i)));
                            let mut d = _mm256_add_ps(
                                _mm256_mul_ps(_mm256_loadu_ps(ext.add(i)), g),
                                carried,
                            );
                            if let Some(pack) = pack {
                                d = pack8(pack, d, i);
                            }
                            _mm256_storeu_ps(dv.add(i), d);
                            _mm256_storeu_ps(e.add(i), _mm256_mul_ps(gain, d));
                        }
                    }
                }
            }
        }
    }

    /// Lane `l`'s bits with the sign cleared: `|x|` for every value, NaN
    /// payloads kept.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn abs(x: __m256) -> __m256 {
        _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff)))
    }

    /// Prunes the 8 lanes of `d` (neurons `i..i + 8`) to `+0.0` unless
    /// `|d| > ε` (ordered: NaN is pruned) and left-packs the survivors:
    /// their values and indices go to the cursor in one full-width store
    /// each, permuted by [`PACK_LANES`], and the cursor moves on by their
    /// count. Returns the pruned lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2, and the cursor at most `i` with room for the
    /// step's width behind the pointers.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn pack8(pack: &mut Pack, d: __m256, i: usize) -> __m256 {
        let keep = _mm256_cmp_ps::<_CMP_GT_OQ>(abs(d), _mm256_set1_ps(pack.eps));
        let d = _mm256_and_ps(d, keep);
        let mask = _mm256_movemask_ps(keep) as usize;
        // Slot j takes lane (PACK_LANES[mask] >> 4j) & 15.
        let slots = _mm256_and_si256(
            _mm256_srlv_epi32(
                _mm256_set1_epi32(PACK_LANES[mask] as i32),
                _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28),
            ),
            _mm256_set1_epi32(0xf),
        );
        let idx = _mm256_add_epi32(slots, _mm256_set1_epi32(i as i32));
        // SAFETY: cursor + 8 <= i + 8 <= the step's width (the caller's
        // contract); slots past the survivors are overwritten or left
        // past the committed length.
        unsafe {
            let at = pack.len;
            _mm256_storeu_ps(pack.val.add(at), _mm256_permutevar8x32_ps(d, slots));
            let lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(idx));
            let hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(idx));
            _mm256_storeu_si256(pack.idx.add(at).cast(), lo);
            _mm256_storeu_si256(pack.idx.add(at + 4).cast(), hi);
        }
        pack.len += mask.count_ones() as usize;
        d
    }

    /// For each 8-bit keep mask, the kept lanes in ascending order, one
    /// per nibble from the lowest (unused nibbles 0).
    const PACK_LANES: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut mask = 0;
        while mask < 256 {
            let (mut packed, mut slot, mut lane) = (0u32, 0, 0);
            while lane < LANES {
                if mask >> lane & 1 == 1 {
                    packed |= (lane as u32) << (4 * slot);
                    slot += 1;
                }
                lane += 1;
            }
            table[mask] = packed;
            mask += 1;
        }
        table
    };

    /// The repository's `eˣ` in 8 lanes, [`portable::exp`] operation for
    /// operation.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn exp(x: __m256) -> __m256 {
        // `maxps`/`minps` return their second operand when either is NaN,
        // so with `x` second they are the scalar clamps exactly.
        let x = _mm256_max_ps(_mm256_set1_ps(EXP_MIN), x);
        let x = _mm256_min_ps(_mm256_set1_ps(EXP_MAX), x);
        let shift = _mm256_set1_ps(EXP_SHIFT);
        let shifted = _mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            shift,
        );
        let n = _mm256_sub_ps(shifted, shift);
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI))),
            _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)),
        );
        let mut p = _mm256_set1_ps(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
            _mm256_set1_ps(1.0),
        );
        let n = _mm256_sub_epi32(
            _mm256_castps_si256(shifted),
            _mm256_set1_epi32(EXP_SHIFT.to_bits() as i32),
        );
        let half = _mm256_srai_epi32::<1>(n);
        _mm256_mul_ps(
            _mm256_mul_ps(y, pow2(_mm256_sub_epi32(n, half))),
            pow2(half),
        )
    }

    /// `2ⁿ` per lane for normal exponents, from their bits.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn pow2(n: __m256i) -> __m256 {
        _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            n,
            _mm256_set1_epi32(127),
        )))
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

                let d_simd = dot(a, b);
                axpy(0.37, a, y_simd);
                add_assign(b, y_simd);
                scale(0.93, y_simd);

                set_force_scalar(true);
                let d_port = dot(a, b);
                axpy(0.37, a, y_port);
                add_assign(b, y_port);
                scale(0.93, y_port);
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

    /// One [`adjoint_step`] problem of width `n`: the rows and carries
    /// hold signed zeros, ±inf and NaN in every lane position, `v`
    /// exactly at `v_th`, and neurons whose `dv` is exactly `±ε` (the
    /// surrogate is 1 at `v = v_th` for every shape the tests use, and
    /// the hard-reset carry is shut by `o = 1`).
    struct AdjointCase {
        ext: Vec<f32>,
        v: Vec<f32>,
        o: Vec<f32>,
        e_next: Vec<f32>,
        dv: Vec<f32>,
        dh: Vec<f32>,
    }

    /// What a step leaves: `dv`, `dh`, `e` and the recorded events.
    #[derive(Debug)]
    struct AdjointOut {
        dv: Vec<f32>,
        dh: Vec<f32>,
        e: Vec<f32>,
        idx: Vec<usize>,
        val: Vec<f32>,
    }

    const ADJOINT_WIDTHS: [usize; 8] = [1, 7, 8, 9, 63, 64, 65, 400];
    const ADJOINT_VTH: f32 = 0.4;

    fn adjoint_case(n: usize, eps: f32, rng: &mut Rng) -> AdjointCase {
        // Potentials far enough out that the Gaussian's exponent sweeps
        // its whole range, underflow included.
        let wide = |rng: &mut Rng, n| (0..n).map(|_| rng.uniform(-14.0, 14.0)).collect();
        let mut case = AdjointCase {
            ext: vec_rng(n, rng),
            v: wide(rng, n),
            o: (0..n).map(|_| f32::from(u8::from(rng.coin(0.3)))).collect(),
            e_next: vec_rng(n, rng),
            dv: vec_rng(n, rng),
            dh: vec_rng(n, rng),
        };
        let c = &mut case;
        for i in 0..n {
            match i % 13 {
                0 | 1 => {
                    // |dv| == ε exactly: pruned when ε > 0.
                    c.v[i] = ADJOINT_VTH;
                    c.ext[i] = if i % 13 == 0 { eps } else { -eps };
                    (c.dh[i], c.dv[i], c.o[i]) = (0.0, 0.0, 1.0);
                }
                2 => (c.v[i], c.ext[i]) = (0.0, -0.0),
                3 => (c.v[i], c.dh[i], c.dv[i]) = (-0.0, -0.0, 0.0),
                4 => c.v[i] = f32::NAN,
                5 => c.ext[i] = f32::INFINITY,
                6 => c.dh[i] = f32::NEG_INFINITY,
                7 => c.dv[i] = f32::NAN,
                8 => c.e_next[i] = f32::NAN,
                9 => c.v[i] = f32::INFINITY,
                10 => (c.ext[i], c.dh[i]) = (f32::NAN, f32::NAN),
                11 => c.e_next[i] = -0.0,
                _ => {}
            }
        }
        case
    }

    fn run_adjoint(
        case: &AdjointCase,
        neuron: Adjoint,
        surrogate: Pseudo,
        eps: Option<f32>,
    ) -> AdjointOut {
        let n = case.v.len();
        let (mut dv, mut dh, mut e) = (case.dv.clone(), case.dh.clone(), vec![7.0; n]);
        // A step already in the raster, so the step appends after it.
        let mut events = GradRaster::new();
        events.push_step_pruned(&mut [0.5, 0.0, -2.0], 0.0);
        let rows = AdjointRows {
            ext: &case.ext,
            v: &case.v,
            o: &case.o,
            e_next: &case.e_next,
        };
        let prune = eps.map(|eps| (eps, &mut events));
        adjoint_step(neuron, surrogate, rows, &mut dv, &mut dh, &mut e, prune);
        let (idx, val) = if eps.is_some() {
            assert_eq!(events.steps(), 2);
            assert_eq!(events.step(0), &[0, 2]);
            assert_eq!(events.candidates(), 3 + n);
            let step = events.rows(1..2);
            let (idx, val) = step.row(0);
            (idx.to_vec(), val.to_vec())
        } else {
            assert_eq!(events.steps(), 1, "an unpruned step records nothing");
            (Vec::new(), Vec::new())
        };
        AdjointOut {
            dv,
            dh,
            e,
            idx,
            val,
        }
    }

    /// Bit equality, except that any NaN equals any NaN: IEEE leaves
    /// the payload of an operation on two NaNs to the implementation,
    /// and the compiler may order a commutative operation's operands
    /// either way on either path.
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    fn adjoint_kinds() -> [Adjoint; 2] {
        [
            Adjoint::Adaptive {
                alpha: 0.75,
                beta: 0.8,
                theta: 0.3,
                v_th: ADJOINT_VTH,
            },
            Adjoint::HardReset {
                lambda: 0.9,
                gain: 0.25,
                v_th: ADJOINT_VTH,
            },
        ]
    }

    fn adjoint_surrogates() -> [Pseudo; 4] {
        [
            // Peak exactly 1, the paper's k = −π and a wider Gaussian.
            Pseudo::Gauss {
                k: -std::f32::consts::PI,
                peak: 1.0,
            },
            Pseudo::Gauss {
                k: -0.02,
                peak: 1.0,
            },
            Pseudo::Rect {
                width: 0.5,
                height: 1.0,
            },
            Pseudo::FastSigmoid { slope: 3.0 },
        ]
    }

    #[test]
    fn adjoint_step_prunes_exactly_the_scalar_survivors() {
        // Against a plain scalar prune of the unpruned step's `dv`, on
        // whichever path this host dispatches to and on the portable one.
        let mut rng = Rng::seed_from(21);
        for n in ADJOINT_WIDTHS {
            for eps in [0.0f32, 0.05] {
                let case = adjoint_case(n, eps, &mut rng);
                for neuron in adjoint_kinds() {
                    for surrogate in adjoint_surrogates() {
                        for force in [false, true] {
                            set_force_scalar(force);
                            let raw = run_adjoint(&case, neuron, surrogate, None);
                            let got = run_adjoint(&case, neuron, surrogate, Some(eps));
                            set_force_scalar(false);
                            let at =
                                format!("{neuron:?} {surrogate:?} n {n} eps {eps} scalar {force}");
                            let want: Vec<usize> =
                                (0..n).filter(|&i| raw.dv[i].abs() > eps).collect();
                            assert_eq!(got.idx, want, "indices, {at}");
                            let want_val: Vec<f32> = want.iter().map(|&i| raw.dv[i]).collect();
                            assert!(same_bits(&got.val, &want_val), "values, {at}");
                            let pruned: Vec<f32> = raw
                                .dv
                                .iter()
                                .map(|&d| if d.abs() > eps { d } else { 0.0 })
                                .collect();
                            assert!(same_bits(&got.dv, &pruned), "dv, {at}");
                            if eps > 0.0 {
                                assert!(!got.idx.contains(&0) && !got.idx.contains(&1), "{at}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn adjoint_step_avx2_matches_portable_bitwise() {
        if !simd_enabled() {
            return; // nothing to cross-check on this host
        }
        let mut rng = Rng::seed_from(22);
        for n in ADJOINT_WIDTHS {
            for eps in [None, Some(0.0f32), Some(0.05)] {
                let case = adjoint_case(n, eps.unwrap_or(0.0), &mut rng);
                for neuron in adjoint_kinds() {
                    for surrogate in adjoint_surrogates() {
                        let lanes = run_adjoint(&case, neuron, surrogate, eps);
                        set_force_scalar(true);
                        let portable = run_adjoint(&case, neuron, surrogate, eps);
                        set_force_scalar(false);
                        let at = format!("{neuron:?} {surrogate:?} n {n} eps {eps:?}");
                        assert!(same_bits(&lanes.dv, &portable.dv), "dv, {at}");
                        assert!(same_bits(&lanes.dh, &portable.dh), "dh, {at}");
                        assert!(same_bits(&lanes.e, &portable.e), "e, {at}");
                        assert_eq!(lanes.idx, portable.idx, "indices, {at}");
                        assert!(same_bits(&lanes.val, &portable.val), "values, {at}");
                        if eps.is_some() {
                            // Pruned lanes carry no NaN into the carries'
                            // inputs, so these are bitwise, payloads too.
                            assert_eq!(to_bits(&lanes.dv), to_bits(&portable.dv), "{at}");
                            assert_eq!(to_bits(&lanes.e), to_bits(&portable.e), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn adjoint_step_follows_the_recursions() {
        // One adaptive and one hard-reset step written out by hand.
        let rows = AdjointRows {
            ext: &[1.0, 0.5],
            v: &[0.4, 1.4],
            o: &[1.0, 0.0],
            e_next: &[2.0, -1.0],
        };
        let rect = Pseudo::Rect {
            width: 0.5,
            height: 1.0,
        };
        let (mut dv, mut dh, mut e) = ([3.0, 4.0], [0.25, 1.0], [0.0; 2]);
        adjoint_step(
            adjoint_kinds()[0],
            rect,
            rows,
            &mut dv,
            &mut dh,
            &mut e,
            None,
        );
        // Neuron 0 at v_th: dv = ext + dh; neuron 1 outside the window.
        assert_eq!(dv, [1.25, 0.0]);
        assert_eq!(dh, [-0.3 * 1.25 + 0.8 * 0.25, 0.8 * 1.0]);
        assert_eq!(e, [1.25 + 0.75 * 2.0, 0.0 - 0.75]);
        let (mut dv, mut e) = ([3.0, 4.0], [0.0; 2]);
        adjoint_step(
            adjoint_kinds()[1],
            rect,
            rows,
            &mut dv,
            &mut dh,
            &mut e,
            None,
        );
        // o = 1 shuts neuron 0's carry; neuron 1 keeps λ·dv[t+1].
        assert_eq!(dv, [1.0, 0.9 * 4.0]);
        assert_eq!(e, [0.25, 0.25 * (0.9 * 4.0)]);
    }

    #[test]
    #[should_panic(expected = "adjoint_step: bad e_next")]
    fn adjoint_step_rejects_rows_of_another_width() {
        let rows = AdjointRows {
            ext: &[0.0; 3],
            v: &[0.0; 3],
            o: &[0.0; 3],
            e_next: &[0.0; 2],
        };
        let surrogate = adjoint_surrogates()[0];
        let mut bufs = ([0.0; 3], [0.0; 3], [0.0; 3]);
        adjoint_step(
            adjoint_kinds()[0],
            surrogate,
            rows,
            &mut bufs.0,
            &mut bufs.1,
            &mut bufs.2,
            None,
        );
    }

    #[test]
    fn lane_width_is_eight() {
        // The fixed combine tree above is written for 8 lanes; a width
        // change must be a deliberate, fixture-regenerating event.
        assert_eq!(LANES, 8);
    }
}
