//! Event-driven view of a gradient trajectory: per-timestep index lists
//! of the adjoint entries that survive a magnitude threshold.
//!
//! The BPTT adjoint `dv[t]` is mathematically dense — surrogate
//! gradients are rarely *exactly* zero — but overwhelmingly tiny: far
//! from the firing threshold the erfc surrogate underflows toward zero,
//! so almost all of the backward pass's work multiplies negligible
//! values. [`GradRaster`] is the CSR-style mirror of the forward pass's
//! spike event lists (`SpikeRaster` in `snn-core`): each
//! recorded step holds the sorted indices and the values of the entries
//! with `|dv| > ε`, and the BPTT input adjoint `P = DV·W`
//! ([`lanes::sparse_matmul_add`](crate::lanes::sparse_matmul_add)) walks
//! those lists so a backward timestep costs `O(nnz · width)` instead of
//! `O(n_out · n_in)`.
//!
//! Steps are recorded in **push order**; the backward pass iterates time
//! in reverse, so step `0` of a raster filled during BPTT is the *last*
//! simulated timestep (of the topmost layer — a multi-layer pass
//! concatenates the layers' trajectories).

use crate::lanes::SparseRows;
use std::ops::Range;

/// Per-step surviving entries in CSR layout (offsets + concatenated
/// indices and values), with backing buffers reused across refills so a
/// training loop performs no per-sample allocation once warmed up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GradRaster {
    /// `offsets[t]..offsets[t + 1]` indexes `indices` for step `t`.
    offsets: Vec<usize>,
    /// Concatenated surviving-entry index lists (sorted within a step).
    indices: Vec<usize>,
    /// The surviving entries' values, parallel to `indices`.
    values: Vec<f32>,
    /// Total entries examined (`Σ` step widths) — the denominator of
    /// [`density`](Self::density).
    candidates: usize,
}

impl GradRaster {
    /// Creates an empty raster (0 steps).
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
            candidates: 0,
        }
    }

    /// Number of recorded steps.
    pub fn steps(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total surviving entries across all steps.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Total entries examined across all steps (the denominator of
    /// [`density`](Self::density); lets callers aggregate densities
    /// across samples without losing the per-sample weights).
    pub fn candidates(&self) -> usize {
        self.candidates
    }

    /// Fraction of examined entries that survived (0 when nothing has
    /// been recorded) — the "how sparse was this backward pass really?"
    /// diagnostic the kernel bench reports.
    pub fn density(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.candidates as f64
        }
    }

    /// Surviving indices of step `t` (sorted ascending).
    ///
    /// # Panics
    ///
    /// Panics if `t >= steps()`.
    pub fn step(&self, t: usize) -> &[usize] {
        assert!(
            t + 1 < self.offsets.len(),
            "step {t} out of range {}",
            self.steps()
        );
        &self.indices[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Steps `steps` as a sparse matrix, one row per step: the indices
    /// and values of its surviving entries.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past `steps()`.
    pub fn rows(&self, steps: Range<usize>) -> SparseRows<'_> {
        SparseRows {
            offsets: &self.offsets[steps.start..=steps.end],
            idx: &self.indices,
            coef: &self.values,
        }
    }

    /// Clears all recorded steps (buffers retain capacity).
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.indices.clear();
        self.values.clear();
        self.candidates = 0;
    }

    /// Room for `width` more entries: pointers to the end of the index
    /// and value lists, valid for `width` writes until the raster is
    /// next touched. [`lanes::adjoint_step`](crate::lanes::adjoint_step)
    /// left-packs a step's survivors there, then calls
    /// [`commit`](Self::commit).
    pub(crate) fn spare(&mut self, width: usize) -> (*mut usize, *mut f32) {
        self.indices.reserve(width);
        self.values.reserve(width);
        (
            self.indices.spare_capacity_mut().as_mut_ptr().cast(),
            self.values.spare_capacity_mut().as_mut_ptr().cast(),
        )
    }

    /// Records one step of `width` candidates whose `kept` survivors
    /// were written through [`spare`](Self::spare).
    ///
    /// # Safety
    ///
    /// The first `kept` entries behind both pointers of the last
    /// `spare(width)` must be initialised, and `kept <= width`.
    pub(crate) unsafe fn commit(&mut self, kept: usize, width: usize) {
        debug_assert!(kept <= width);
        let len = self.indices.len() + kept;
        // SAFETY: the caller initialised these entries, within the
        // capacity `spare` reserved.
        unsafe {
            self.indices.set_len(len);
            self.values.set_len(len);
        }
        self.offsets.push(len);
        self.candidates += width;
    }

    /// Records one step from `x`, **zeroing** every entry with
    /// `|x[i]| <= eps` in place and appending the survivors' indices
    /// ([`lanes::prune_indices`](crate::lanes::prune_indices)) and
    /// values. Returns the newly recorded index list.
    ///
    /// Pruning (rather than just masking) keeps `x` and its list in
    /// agreement: a pruned entry is an exact zero, so any kernel that
    /// reads `x` directly (the recurrent carries) sees the same nonzero
    /// set as one that walks the list.
    pub fn push_step_pruned(&mut self, x: &mut [f32], eps: f32) -> &[usize] {
        let start = self.indices.len();
        crate::lanes::prune_indices(x, eps, &mut self.indices);
        let kept = &self.indices[start..];
        self.values.extend(kept.iter().map(|&i| x[i]));
        self.offsets.push(self.indices.len());
        self.candidates += x.len();
        &self.indices[start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_raster() {
        let g = GradRaster::new();
        assert_eq!(g.steps(), 0);
        assert_eq!(g.nnz(), 0);
        assert_eq!(g.density(), 0.0);
    }

    #[test]
    fn push_step_pruned_zeroes_and_records() {
        let mut g = GradRaster::new();
        let mut x = [0.5f32, 1e-8, -0.25, 0.0, -1e-9];
        let active = g.push_step_pruned(&mut x, 1e-6);
        assert_eq!(active, &[0, 2]);
        assert_eq!(x, [0.5, 0.0, -0.25, 0.0, 0.0]);
        assert_eq!(g.steps(), 1);
        assert_eq!(g.nnz(), 2);
        assert!((g.density() - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn eps_zero_keeps_exactly_the_nonzeros() {
        let mut g = GradRaster::new();
        let mut x = [0.0f32, -0.0, 1e-30, -1e-30, 2.0];
        let active = g.push_step_pruned(&mut x, 0.0);
        // |±0.0| > 0.0 is false, subnormals survive.
        assert_eq!(active, &[2, 3, 4]);
    }

    #[test]
    fn multiple_steps_and_clear() {
        let mut g = GradRaster::new();
        g.push_step_pruned(&mut [1.0f32, 0.0], 0.0);
        g.push_step_pruned(&mut [0.0f32, 0.0], 0.0);
        g.push_step_pruned(&mut [0.0f32, 3.0], 0.0);
        assert_eq!(g.steps(), 3);
        assert_eq!(g.step(0), &[0]);
        assert_eq!(g.step(1), &[] as &[usize]);
        assert_eq!(g.step(2), &[1]);
        g.clear();
        assert_eq!(g.steps(), 0);
        assert_eq!(g.nnz(), 0);
        assert_eq!(g.density(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn step_out_of_range_panics() {
        GradRaster::new().step(0);
    }
}
