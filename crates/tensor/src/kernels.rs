//! Sparsity-aware, lane-oriented compute kernels.
//!
//! The spike rasters this workspace multiplies are overwhelmingly zero
//! (5–10% density is typical for the paper's workloads), and the weight
//! recurrences of the SNN forward pass factor through products with
//! *binary* spike vectors. This module exploits both facts:
//!
//! * [`dot`] / [`axpy`] and the other dense primitives — re-exported
//!   from [`crate::lanes`] (fixed-width `f32x8` chunk loops with a fixed
//!   combine order; AVX2 dispatch at runtime), used by every dense
//!   matrix product in [`Matrix`].
//! * [`ColMajor`] — a column-major mirror of a weight matrix, rebuilt
//!   by the owning layer whenever its weights are written, whose
//!   [`ColMajor::accumulate_columns`] computes `y += W·x` for a
//!   **binary sparse** `x` by summing only the active columns:
//!   `O(n_out · nnz)` instead of `O(n_out · n_in)`.
//! * The layer rollout — [`lanes::tile_rollout`] runs a layer over a
//!   whole sequence one 64-neuron tile at a time: the tile's drive
//!   stays in registers while each step's leak `g = α·g`, event-column
//!   adds, neuron update, record writes and fire bits happen in one
//!   pass. It reads the weights through [`ColMajor::as_slice`]. Behind
//!   training, batch inference, streaming and the dense reference
//!   alike; [`fused_decay_accumulate`] is its drive update over one
//!   whole vector, and [`decay_add_unit`] the input-trace update the
//!   `pre` record and the dense drive read.
//!
//! Phase 1 of BPTT (the membrane adjoint, its surrogate, pruning and
//! carries) is one fused pass per step, [`lanes::adjoint_step`]; the
//! input-adjoint carries are [`carry_decay_out`] and [`scale_copy`].
//! The BPTT weight gradient runs over the layer's input events through
//! [`lanes::add_event_columns`], and the event-driven input adjoint
//! `P = DV·W` through [`lanes::sparse_matmul_add`].
//!
//! Numerical note: the lane kernels reassociate floating-point sums, so
//! results may differ from a naive loop by a few ULPs; the lane
//! reduction order (see [`crate::lanes`]) is the workspace's canonical
//! float semantics. All kernels are individually deterministic — given
//! the same inputs they produce bit-identical outputs on every run, on
//! every dispatch path (AVX2 or portable), and at any thread count. The
//! tile pass performs the *same per-element operations in the same
//! order* as a step-at-a-time loop over whole vectors, so it is
//! bitwise-neutral: only the traversal order (tiles outside, steps
//! inside) differs, never the arithmetic on any element.

use crate::lanes;
use crate::Matrix;

pub use crate::lanes::{
    add_assign, axpy, carry_decay_out, dot, reduce_max, scale, scale_copy, set_force_scalar,
    simd_enabled,
};

/// Square tile edge of the blocked transpose in
/// [`ColMajor::refresh_from`]: a 32×32 `f32` tile is 4 KiB of source and
/// 4 KiB of destination, so both stay in L1 while it is copied.
const TRANSPOSE_TILE: usize = 32;

/// `x *= decay; x[i] += 1.0 for i in events` — one trace update of the
/// forward step (the synapse trace `k = α·k + x[t]` for a binary
/// `x[t]`, and the threshold trace `h = β·h + O[t−1]` for binary
/// fires). The decay is laned; the unit charges are index writes. For
/// a non-negative `x` this is bit-identical to the dense
/// `x[i] = 1.0·row[i] + decay·x[i]` over the 0/1 row.
///
/// # Panics
///
/// Panics if any event index is out of range.
#[inline]
pub fn decay_add_unit(decay: f32, x: &mut [f32], events: &[usize]) {
    lanes::scale(decay, x);
    for &i in events {
        x[i] += 1.0;
    }
}

/// Leak + event accumulation over one vector: `y = alpha·y + Σ_{c ∈
/// active} cols.column(c)` — one step of the layer drive (eq. 7,
/// factored), which [`lanes::tile_rollout`] carries tile by tile with
/// the same arithmetic. Each element sees one multiply, then the
/// active-column adds in order. `alpha == 0.0` clears with an exact
/// fill (`0.0 * x` would leave `-0.0`/NaN residue); `alpha == 1.0` skips
/// the multiply.
///
/// # Panics
///
/// Panics if `y.len() != cols.rows()` or any index is out of range.
pub fn fused_decay_accumulate(alpha: f32, cols: &ColMajor, active: &[usize], y: &mut [f32]) {
    assert_eq!(y.len(), cols.rows, "fused_decay_accumulate: bad y");
    if alpha == 0.0 {
        y.fill(0.0);
    } else if alpha != 1.0 {
        lanes::scale(alpha, y);
    }
    for &c in active {
        lanes::add_assign(cols.column(c), y);
    }
}

/// Column-major mirror of a weight matrix, used for event-driven
/// products with binary spike vectors.
///
/// A dense layer stores its weights row-major (`n_out × n_in`); computing
/// `W·x` for a binary `x` means summing the columns of `W` selected by
/// `x`'s active indices, and a column of a row-major matrix is a strided
/// (cache-hostile) access. The mirror stores the transpose contiguously:
/// `column(c)` of `W` is a contiguous `n_out`-length slice.
///
/// The owner keeps the mirror in sync with the row-major source:
/// `DenseLayer` in `snn-core` hands out its weights for writing only
/// through a guard whose drop calls [`ColMajor::refresh_from`].
///
/// # Examples
///
/// ```
/// use snn_tensor::{kernels::ColMajor, Matrix};
///
/// let w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let mirror = ColMajor::from_matrix(&w);
/// let mut y = vec![0.0; 2];
/// mirror.accumulate_columns(&[1], &mut y); // y += W·[0, 1]
/// assert_eq!(y, vec![2.0, 4.0]);
/// ```
#[derive(Debug)]
pub struct ColMajor {
    rows: usize,
    cols: usize,
    /// `data[start + c * rows + r]` is `W[r, c]`: `start` puts the first
    /// column on a 64-byte line, so when `rows` is a multiple of 16 every
    /// 64-row tile of every column is line-aligned and the tile pass's
    /// `f32x8` loads never split a cache line.
    start: usize,
    data: Vec<f32>,
}

/// Slack floats at the front of [`ColMajor`]'s buffer, enough to reach a
/// 64-byte boundary.
const LINE_FLOATS: usize = 16;

impl Clone for ColMajor {
    fn clone(&self) -> Self {
        // A copy of the buffer lands wherever the allocator puts it, so
        // align it afresh rather than copying `start`.
        let mut out = Self {
            rows: self.rows,
            cols: self.cols,
            start: 0,
            data: Vec::new(),
        };
        out.reserve(self.rows * self.cols);
        out.data[out.start..][..self.rows * self.cols].copy_from_slice(self.as_slice());
        out
    }
}

impl PartialEq for ColMajor {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.as_slice() == other.as_slice()
    }
}

impl ColMajor {
    /// Builds a mirror of `m`.
    pub fn from_matrix(m: &Matrix) -> Self {
        let mut out = Self {
            rows: 0,
            cols: 0,
            start: 0,
            data: Vec::new(),
        };
        out.refresh_from(m);
        out
    }

    /// Sizes the buffer for `len` floats after a line-aligned `start`.
    fn reserve(&mut self, len: usize) {
        self.data.resize(len + LINE_FLOATS, 0.0);
        self.start = self.data.as_ptr().align_offset(64).min(LINE_FLOATS);
    }

    /// Re-transposes `m` into the existing buffer (no allocation when the
    /// shape is unchanged).
    ///
    /// # Panics
    ///
    /// Never panics; resizes if the shape changed.
    pub fn refresh_from(&mut self, m: &Matrix) {
        let (rows, cols) = m.shape();
        self.rows = rows;
        self.cols = cols;
        self.reserve(rows * cols);
        let dst = &mut self.data[self.start..self.start + rows * cols];
        let src = m.as_slice();
        // Copy tile by tile: each destination column of a tile is one
        // short sequential write, and the source rows it reads stay in L1
        // for the tile's other columns (a row-major walk would scatter
        // every element `rows` floats from the last). Zipped chunk
        // iterators rather than computed indices keep bounds checks out
        // of the inner loop. A pure copy, so the tiling cannot change a
        // bit.
        for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
            let r1 = (r0 + TRANSPOSE_TILE).min(rows);
            let band = &src[r0 * cols..r1 * cols];
            for c0 in (0..cols).step_by(TRANSPOSE_TILE) {
                let c1 = (c0 + TRANSPOSE_TILE).min(cols);
                for (c, column) in (c0..c1).zip(dst.chunks_exact_mut(rows).skip(c0)) {
                    for (w, row) in column[r0..r1].iter_mut().zip(band.chunks_exact(cols)) {
                        *w = row[c];
                    }
                }
            }
        }
    }

    /// Number of rows of the mirrored (row-major) matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the mirrored matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The mirror's storage: column `c` at `c·rows()..(c + 1)·rows()`,
    /// starting on a 64-byte boundary.
    pub fn as_slice(&self) -> &[f32] {
        &self.data[self.start..self.start + self.rows * self.cols]
    }

    /// Column `c` of the mirrored matrix as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn column(&self, c: usize) -> &[f32] {
        assert!(c < self.cols, "column {c} out of bounds ({})", self.cols);
        &self.as_slice()[c * self.rows..(c + 1) * self.rows]
    }

    /// `y += W·x` for a binary `x` given by its active indices:
    /// sums the selected columns (the `alpha = 1` case of
    /// [`fused_decay_accumulate`]).
    /// `O(rows · active.len())`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows` or any index is out of range.
    pub fn accumulate_columns(&self, active: &[usize], y: &mut [f32]) {
        fused_decay_accumulate(1.0, self, active, y);
    }

    /// `y += Σ_{c ∈ active} x[c] · column(c)` — the general (non-binary)
    /// sparse product, used when a spike vector carries magnitudes.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows` or any index is out of range.
    pub fn accumulate_columns_scaled(&self, active: &[usize], x: &[f32], y: &mut [f32]) {
        assert_eq!(y.len(), self.rows, "accumulate_columns_scaled: bad y");
        for &c in active {
            lanes::axpy(x[c], self.column(c), y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn dot_matches_naive_across_lengths() {
        let mut rng = Rng::seed_from(1);
        for len in [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100] {
            let a: Vec<f32> = (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let b: Vec<f32> = (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let fast = dot(&a, &b);
            let slow = naive_dot(&a, &b);
            assert!(
                (fast - slow).abs() < 1e-4 * (1.0 + slow.abs()),
                "len {len}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn axpy_and_add_assign_match_naive() {
        let mut rng = Rng::seed_from(2);
        for len in [0, 1, 3, 4, 9, 64, 101] {
            let x: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut y1: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut y2 = y1.clone();
            let mut y3 = y1.clone();
            axpy(0.5, &x, &mut y1);
            for (yi, xi) in y2.iter_mut().zip(&x) {
                *yi += 0.5 * xi;
            }
            for (a, b) in y1.iter().zip(&y2) {
                assert!((a - b).abs() < 1e-6);
            }
            add_assign(&x, &mut y3);
            for ((a, b), x) in y3.iter().zip(&y2).zip(&x) {
                assert!((a - (b - 0.5 * x + x)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn scale_matches_naive() {
        let mut x: Vec<f32> = (0..11).map(|i| i as f32).collect();
        scale(0.5, &mut x);
        for (i, v) in x.iter().enumerate() {
            assert_eq!(*v, i as f32 * 0.5);
        }
    }

    #[test]
    fn colmajor_mirrors_matrix() {
        // Shapes smaller than, not a multiple of, and several times the
        // transpose tile, each refreshed over the previous shape's mirror.
        let mut rng = Rng::seed_from(3);
        let mut cm = ColMajor::from_matrix(&Matrix::full(3, 5, f32::NAN));
        for (rows, cols) in [(5, 7), (1, 1), (7, 33), (400, 700), (33, 7)] {
            let m = Matrix::xavier_uniform(rows, cols, &mut rng);
            cm.refresh_from(&m);
            assert_eq!((cm.rows(), cm.cols()), (rows, cols));
            for c in 0..cols {
                for r in 0..rows {
                    assert_eq!(cm.column(c)[r].to_bits(), m[(r, c)].to_bits());
                }
            }
        }
    }

    #[test]
    fn accumulate_columns_equals_binary_matvec() {
        let mut rng = Rng::seed_from(4);
        let m = Matrix::xavier_uniform(6, 10, &mut rng);
        let cm = ColMajor::from_matrix(&m);
        let active = [0usize, 3, 9];
        let mut x = vec![0.0f32; 10];
        for &c in &active {
            x[c] = 1.0;
        }
        let dense = m.matvec(&x);
        let mut sparse = vec![0.0f32; 6];
        cm.accumulate_columns(&active, &mut sparse);
        for (a, b) in sparse.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn accumulate_columns_scaled_equals_matvec() {
        let mut rng = Rng::seed_from(5);
        let m = Matrix::xavier_uniform(4, 8, &mut rng);
        let cm = ColMajor::from_matrix(&m);
        let mut x = vec![0.0f32; 8];
        let active = [1usize, 2, 6];
        for &c in &active {
            x[c] = rng.uniform(-1.0, 1.0);
        }
        let dense = m.matvec(&x);
        let mut sparse = vec![0.0f32; 4];
        cm.accumulate_columns_scaled(&active, &x, &mut sparse);
        for (a, b) in sparse.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn refresh_tracks_mutation_and_reshape() {
        let mut m = Matrix::zeros(2, 3);
        let mut cm = ColMajor::from_matrix(&m);
        m[(1, 2)] = 7.0;
        cm.refresh_from(&m);
        assert_eq!(cm.column(2)[1], 7.0);
        let m2 = Matrix::full(4, 1, 2.0);
        cm.refresh_from(&m2);
        assert_eq!(cm.rows(), 4);
        assert_eq!(cm.cols(), 1);
        assert_eq!(cm.column(0), &[2.0; 4]);
    }

    #[test]
    fn empty_active_list_is_noop() {
        let m = Matrix::full(3, 3, 1.0);
        let cm = ColMajor::from_matrix(&m);
        let mut y = vec![5.0f32; 3];
        cm.accumulate_columns(&[], &mut y);
        assert_eq!(y, vec![5.0; 3]);
    }

    /// A seeded Xavier mirror of a `rows × cols` matrix.
    fn tall_mirror(rows: usize, cols: usize, seed: u64) -> ColMajor {
        let mut rng = Rng::seed_from(seed);
        ColMajor::from_matrix(&Matrix::xavier_uniform(rows, cols, &mut rng))
    }

    #[test]
    fn fused_decay_accumulate_matches_scale_then_accumulate_bitwise() {
        let cm = tall_mirror(97, 13, 8);
        let active = [1usize, 5, 12];
        let mut rng = Rng::seed_from(9);
        let y0: Vec<f32> = (0..97).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut y_fused = y0.clone();
        let mut y_ref = y0;
        fused_decay_accumulate(0.9, &cm, &active, &mut y_fused);
        scale(0.9, &mut y_ref);
        // Unfused reference: per-column full passes (the old two-pass
        // loop shape). Same per-element op order, so bitwise-equal.
        for &c in &active {
            add_assign(cm.column(c), &mut y_ref);
        }
        for (a, b) in y_fused.iter().zip(&y_ref) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fused_decay_accumulate_alpha_zero_is_exact_clear() {
        let cm = tall_mirror(101, 3, 10);
        let mut y = vec![f32::NAN; 101];
        fused_decay_accumulate(0.0, &cm, &[1], &mut y);
        // NaN residue would survive `0.0 * NaN`; the exact clear must not.
        for (a, b) in y.iter().zip(cm.column(1)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn decay_add_unit_matches_two_pass() {
        let mut x: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        let mut x_ref = x.clone();
        decay_add_unit(0.8, &mut x, &[0, 5, 12]);
        scale(0.8, &mut x_ref);
        for &i in &[0usize, 5, 12] {
            x_ref[i] += 1.0;
        }
        for (a, b) in x.iter().zip(&x_ref) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
