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
//! * Fused per-timestep kernels — [`fused_decay_accumulate`] folds the
//!   leak `g = α·g` and the event accumulation `g += Σ active cols`
//!   into one cache-blocked traversal, and the membrane passes
//!   ([`fused_adaptive_membrane`], laned in [`crate::lanes`];
//!   [`fused_hard_reset_membrane`], scalar) do decay + threshold +
//!   reset + record writes in a single sweep. The
//!   layer's one timestep function — behind training, batch inference,
//!   streaming and the dense reference alike — is built from these, and
//!   the BPTT recursion from [`decay_axpy`], [`carry_decay_out`] and
//!   [`scale_copy`].
//!
//! The event-driven BPTT's weight products run through
//! [`lanes::sparse_matmul_add`]; the binary-trace rank-1 updates of the
//! hard-reset layers live on [`Matrix`] itself
//! ([`Matrix::add_outer_indexed`], [`Matrix::add_outer_indexed_pairs`]).
//!
//! Numerical note: the lane kernels reassociate floating-point sums, so
//! results may differ from a naive loop by a few ULPs; the lane
//! reduction order (see [`crate::lanes`]) is the workspace's canonical
//! float semantics. All kernels are individually deterministic — given
//! the same inputs they produce bit-identical outputs on every run, on
//! every dispatch path (AVX2 or portable), and at any thread count. The
//! fused kernels perform the *same per-element operations in the same
//! order* as the unfused multi-pass loops they replaced, so fusing is
//! bitwise-neutral: only traversal order across cache blocks changes,
//! never the arithmetic on any element.

use crate::lanes;
use crate::Matrix;

pub use crate::lanes::{
    add_assign, axpy, carry_decay_out, decay_axpy, dot, fused_adaptive_membrane, reduce_max, scale,
    scale_copy, set_force_scalar, simd_enabled, threshold_mask,
};

/// Output-row tile for the cache-blocked column accumulation: 4096
/// `f32`s = 16 KiB per partial-sum segment, small enough that the `y`
/// tile and a column tile coexist in L1 while every active column is
/// drained into it, and large enough that the per-column segment jumps
/// (one per tile per active column) stay cheap at high spike densities.
pub const BLOCK_ROWS: usize = 4096;

/// `x *= decay; x[i] += 1.0 for i in events` — one trace update of the
/// forward step (the synapse trace `k = α·k + x[t]` for a binary
/// `x[t]`, and the threshold trace `h = β·h + O[t−1]` for binary
/// fires). The decay is laned; the unit charges are index writes. For
/// a non-negative `x` this is bit-identical to the dense
/// `decay_axpy(1.0, row, decay, x)` over the 0/1 row.
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

/// Fused leak + event accumulation: `y = alpha·y + Σ_{c ∈ active}
/// cols.column(c)`, cache-blocked over [`BLOCK_ROWS`]-row output tiles
/// so each partial-sum segment is decayed once and stays resident in L1
/// while every active column drains into it — one traversal of `y`
/// instead of the unfused decay pass plus one full-vector pass per
/// column.
///
/// Bitwise-identical to `scale(alpha, y)` followed by
/// [`ColMajor::accumulate_columns`]: each element still sees exactly
/// one multiply followed by the active-column adds in the same order.
/// `alpha == 0.0` clears the tile with an exact fill (matching the
/// `fill(0.0)` of the unfused hard-reset path — `0.0 * x` would leave
/// `-0.0`/NaN residue); `alpha == 1.0` skips the decay multiply.
///
/// # Panics
///
/// Panics if `y.len() != cols.rows()` or any index is out of range.
pub fn fused_decay_accumulate(alpha: f32, cols: &ColMajor, active: &[usize], y: &mut [f32]) {
    assert_eq!(y.len(), cols.rows, "fused_decay_accumulate: bad y");
    let rows = cols.rows;
    let mut start = 0;
    while start < rows {
        let end = (start + BLOCK_ROWS).min(rows);
        let seg = &mut y[start..end];
        if alpha == 0.0 {
            seg.fill(0.0);
        } else if alpha != 1.0 {
            lanes::scale(alpha, seg);
        }
        for &c in active {
            lanes::add_assign(&cols.column(c)[start..end], seg);
        }
        start = end;
    }
}

/// Unblocked reference for [`fused_decay_accumulate`]: full-vector decay
/// pass, then one full-vector pass per active column. Kept public so
/// the property tests and the kernel bench's blocking sweep can compare
/// the tiled kernel against it (they are bitwise-identical; only memory
/// traffic differs).
///
/// # Panics
///
/// Panics if `y.len() != cols.rows()` or any index is out of range.
pub fn fused_decay_accumulate_unblocked(
    alpha: f32,
    cols: &ColMajor,
    active: &[usize],
    y: &mut [f32],
) {
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

/// Fused hard-reset membrane pass: for each neuron computes
/// `v = λ·vm[i] + gain·current[i]`, fires where `v ≥ v_th`, applies the
/// hard reset (`vm[i] = 0.0` on fire, else `vm[i] = v`), and in the
/// same sweep writes the optional record rows and collects the fired
/// indices (ascending; `fired` is cleared first). Scalar on every
/// path: unlike [`fused_adaptive_membrane`], no benchmarked workload
/// runs it.
///
/// # Panics
///
/// Panics if `current`/`vm` or any provided record row differ in
/// length.
// One scalar per circuit constant plus the two optional record rows and
// the fired list; a params struct would just re-bundle what
// NeuronParams already unpacked.
#[allow(clippy::too_many_arguments)]
pub fn fused_hard_reset_membrane(
    lambda: f32,
    gain: f32,
    v_th: f32,
    current: &[f32],
    vm: &mut [f32],
    mut vrow: Option<&mut [f32]>,
    mut orow: Option<&mut [f32]>,
    fired: &mut Vec<usize>,
) {
    assert_eq!(current.len(), vm.len(), "fused_hard_reset_membrane: bad vm");
    if let Some(v) = vrow.as_deref_mut() {
        assert_eq!(
            current.len(),
            v.len(),
            "fused_hard_reset_membrane: bad vrow"
        );
    }
    if let Some(o) = orow.as_deref_mut() {
        assert_eq!(
            current.len(),
            o.len(),
            "fused_hard_reset_membrane: bad orow"
        );
    }
    fired.clear();
    for i in 0..current.len() {
        let vi = lambda * vm[i] + gain * current[i];
        let fire = vi >= v_th;
        if let Some(v) = vrow.as_deref_mut() {
            v[i] = vi;
        }
        if let Some(o) = orow.as_deref_mut() {
            o[i] = if fire { 1.0 } else { 0.0 };
        }
        if fire {
            vm[i] = 0.0;
            fired.push(i);
        } else {
            vm[i] = vi;
        }
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
#[derive(Debug, Clone, PartialEq)]
pub struct ColMajor {
    rows: usize,
    cols: usize,
    /// `data[c * rows + r]` is `W[r, c]`.
    data: Vec<f32>,
}

impl ColMajor {
    /// Builds a mirror of `m`.
    pub fn from_matrix(m: &Matrix) -> Self {
        let mut out = Self {
            rows: m.rows(),
            cols: m.cols(),
            data: vec![0.0; m.rows() * m.cols()],
        };
        out.refresh_from(m);
        out
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
        self.data.resize(rows * cols, 0.0);
        let src = m.as_slice();
        // Walk the source row-major (sequential reads), scatter into
        // columns; for the matrix sizes used here this is bandwidth-bound
        // either way.
        for r in 0..rows {
            let row = &src[r * cols..(r + 1) * cols];
            for (c, &w) in row.iter().enumerate() {
                self.data[c * rows + r] = w;
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

    /// Column `c` of the mirrored matrix as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn column(&self, c: usize) -> &[f32] {
        assert!(c < self.cols, "column {c} out of bounds ({})", self.cols);
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// `y += W·x` for a binary `x` given by its active indices:
    /// sums the selected columns, cache-blocked over output-row tiles
    /// (the `alpha = 1` case of [`fused_decay_accumulate`]).
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
    /// Cache-blocked like [`ColMajor::accumulate_columns`].
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows` or any index is out of range.
    pub fn accumulate_columns_scaled(&self, active: &[usize], x: &[f32], y: &mut [f32]) {
        assert_eq!(y.len(), self.rows, "accumulate_columns_scaled: bad y");
        let mut start = 0;
        while start < self.rows {
            let end = (start + BLOCK_ROWS).min(self.rows);
            let seg = &mut y[start..end];
            for &c in active {
                lanes::axpy(x[c], &self.column(c)[start..end], seg);
            }
            start = end;
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
        let mut rng = Rng::seed_from(3);
        let m = Matrix::xavier_uniform(5, 7, &mut rng);
        let cm = ColMajor::from_matrix(&m);
        for r in 0..5 {
            for c in 0..7 {
                assert_eq!(cm.column(c)[r], m[(r, c)]);
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

    /// Tall mirror (several [`BLOCK_ROWS`] tiles plus a ragged tail) for
    /// the blocking tests.
    fn tall_mirror(rows: usize, cols: usize, seed: u64) -> ColMajor {
        let mut rng = Rng::seed_from(seed);
        ColMajor::from_matrix(&Matrix::xavier_uniform(rows, cols, &mut rng))
    }

    #[test]
    fn blocked_fused_matches_unblocked_bitwise() {
        let rows = 2 * BLOCK_ROWS + 313; // exercises full tiles + tail
        let cm = tall_mirror(rows, 19, 6);
        let active = [0usize, 2, 3, 7, 18];
        let mut rng = Rng::seed_from(7);
        for alpha in [0.0f32, 0.37, 1.0] {
            let y0: Vec<f32> = (0..rows).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut y_blocked = y0.clone();
            let mut y_ref = y0;
            fused_decay_accumulate(alpha, &cm, &active, &mut y_blocked);
            fused_decay_accumulate_unblocked(alpha, &cm, &active, &mut y_ref);
            for (a, b) in y_blocked.iter().zip(&y_ref) {
                assert_eq!(a.to_bits(), b.to_bits(), "alpha {alpha}");
            }
        }
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
        let cm = tall_mirror(BLOCK_ROWS + 5, 3, 10);
        let mut y = vec![f32::NAN; BLOCK_ROWS + 5];
        fused_decay_accumulate(0.0, &cm, &[1], &mut y);
        // NaN residue would survive `0.0 * NaN`; the exact clear must not.
        for (a, b) in y.iter().zip(cm.column(1)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn blocked_scaled_accumulate_matches_unblocked_bitwise() {
        let rows = BLOCK_ROWS + 77;
        let cm = tall_mirror(rows, 9, 11);
        let mut rng = Rng::seed_from(12);
        let x: Vec<f32> = (0..9).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let active = [0usize, 4, 8];
        let mut y_blocked = vec![0.25f32; rows];
        let mut y_ref = y_blocked.clone();
        cm.accumulate_columns_scaled(&active, &x, &mut y_blocked);
        for &c in &active {
            axpy(x[c], cm.column(c), &mut y_ref);
        }
        for (a, b) in y_blocked.iter().zip(&y_ref) {
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

    #[test]
    fn adaptive_membrane_matches_unfused_reference() {
        let g = [0.5f32, -0.2, 1.4, 0.0, 0.9];
        let h = [0.1f32, 0.0, 0.5, 0.0, 2.0];
        let (theta, v_th) = (0.3f32, 0.4f32);
        let mut vrow = [0.0f32; 5];
        let mut orow = [0.0f32; 5];
        let mut fired = vec![9usize]; // must be cleared
        fused_adaptive_membrane(
            theta,
            v_th,
            &g,
            &h,
            Some(&mut vrow),
            Some(&mut orow),
            &mut fired,
        );
        for i in 0..5 {
            let vi = g[i] - theta * h[i];
            assert_eq!(vrow[i].to_bits(), vi.to_bits());
            assert_eq!(orow[i], if vi >= v_th { 1.0 } else { 0.0 });
        }
        assert_eq!(fired, vec![0, 2]);
        // Record-free variant (stream path) agrees on the fired set.
        let mut fired2 = Vec::new();
        fused_adaptive_membrane(theta, v_th, &g, &h, None, None, &mut fired2);
        assert_eq!(fired, fired2);
    }

    #[test]
    fn hard_reset_membrane_matches_unfused_reference() {
        let current = [0.5f32, 0.0, 2.0, -1.0, 0.45];
        let vm0 = [0.1f32, 0.4, 0.0, 0.2, 0.05];
        let (lambda, gain, v_th) = (0.9f32, 0.1f32, 0.5f32);
        let mut vm = vm0;
        let mut vrow = [0.0f32; 5];
        let mut orow = [0.0f32; 5];
        let mut fired = Vec::new();
        fused_hard_reset_membrane(
            lambda,
            gain,
            v_th,
            &current,
            &mut vm,
            Some(&mut vrow),
            Some(&mut orow),
            &mut fired,
        );
        let mut fired_ref = Vec::new();
        for i in 0..5 {
            let vi = lambda * vm0[i] + gain * current[i];
            assert_eq!(vrow[i].to_bits(), vi.to_bits());
            if vi >= v_th {
                fired_ref.push(i);
                assert_eq!(orow[i], 1.0);
                assert_eq!(vm[i], 0.0);
            } else {
                assert_eq!(orow[i], 0.0);
                assert_eq!(vm[i].to_bits(), vi.to_bits());
            }
        }
        assert_eq!(fired, fired_ref);
    }
}
