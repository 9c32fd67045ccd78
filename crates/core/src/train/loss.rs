//! Loss functions of paper §III: rate/softmax cross-entropy for
//! classification and the van Rossum kernel distance (eqs. 15–16) for
//! spatial-temporal pattern association.

use crate::spike::{SpikeRaster, TraceKernel};
use snn_tensor::{stats, Matrix};

/// A classification loss over the output spike matrix.
///
/// Implementors return the scalar loss and `∂E/∂O_L[t]` as a
/// `T × n_out` matrix, ready for [`backward`](crate::train::backward).
pub trait ClassificationLoss {
    /// Computes the loss and writes `∂E/∂O_L` into the caller's `d_out`
    /// (resized as needed) — the allocation-free form the trainer uses.
    fn loss_and_grad_into(&self, output: &Matrix, target: usize, d_out: &mut Matrix) -> f32;

    /// Convenience wrapper returning `(loss, d_output)` freshly
    /// allocated.
    fn loss_and_grad(&self, output: &Matrix, target: usize) -> (f32, Matrix) {
        let mut d = Matrix::zeros(0, 0);
        let loss = self.loss_and_grad_into(output, target, &mut d);
        (loss, d)
    }
}

/// A pattern-association loss against a target spike raster.
pub trait PatternLoss {
    /// Computes the loss and writes `∂E/∂O_L` into the caller's `d_out`
    /// (resized as needed) — the allocation-free form the trainer uses.
    fn loss_and_grad_into(&self, output: &Matrix, target: &SpikeRaster, d_out: &mut Matrix) -> f32;

    /// Convenience wrapper returning `(loss, d_output)` freshly
    /// allocated.
    fn loss_and_grad(&self, output: &Matrix, target: &SpikeRaster) -> (f32, Matrix) {
        let mut d = Matrix::zeros(0, 0);
        let loss = self.loss_and_grad_into(output, target, &mut d);
        (loss, d)
    }
}

/// Softmax cross-entropy on output spike counts (the paper's
/// classification objective: "spike rate is mapped to probability by
/// Softmax").
///
/// With counts `r_i = Σ_t O_i[t]`, probabilities `p = softmax(r)` and a
/// one-hot target `y`, the gradient is the classic `∂E/∂r_i = p_i − y_i`,
/// spread uniformly over time because each timestep contributes equally
/// to the count.
///
/// # Examples
///
/// ```
/// use snn_core::train::{ClassificationLoss, RateCrossEntropy};
/// use snn_tensor::Matrix;
///
/// let output = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]);
/// let (loss, grad) = RateCrossEntropy.loss_and_grad(&output, 0);
/// assert!(loss < RateCrossEntropy.loss_and_grad(&output, 1).0);
/// assert_eq!(grad.shape(), (2, 2));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RateCrossEntropy;

impl ClassificationLoss for RateCrossEntropy {
    /// # Panics
    ///
    /// Panics if `target >= output.cols()`.
    fn loss_and_grad_into(&self, output: &Matrix, target: usize, d_out: &mut Matrix) -> f32 {
        let (t_steps, classes) = output.shape();
        assert!(target < classes, "target {target} out of range {classes}");
        // Row 0 of `d_out` holds the counts, then the probabilities, so
        // a warm buffer makes the call allocation-free.
        d_out.resize_zeroed(t_steps.max(1), classes);
        let (probs, rest) = d_out.as_mut_slice().split_at_mut(classes);
        for t in 0..t_steps {
            for (c, &x) in output.row(t).iter().enumerate() {
                probs[c] += x;
            }
        }
        stats::softmax_in_place(probs);
        let loss = stats::cross_entropy(probs, target);
        for row in rest.chunks_exact_mut(classes) {
            for c in 0..classes {
                let y = if c == target { 1.0 } else { 0.0 };
                row[c] = probs[c] - y;
            }
        }
        probs[target] -= 1.0;
        if t_steps == 0 {
            d_out.resize_zeroed(0, classes);
        }
        loss
    }
}

/// Van Rossum kernel distance loss (paper eqs. 15–16): trains the network
/// to emit spikes at *specific times*, enabling the pattern-association
/// task of §V-B.
///
/// `E = Σ_channels 1/(2T) Σ_t (f∗O − f∗S)²` with
/// `f[t] = e^{−t/τm} − e^{−t/τs}`. The gradient with respect to `O[s]`
/// is the correlation of the trace difference with the kernel,
/// `1/T Σ_{t≥s} d[t]·f[t−s]`, computed in O(T) per channel with two
/// backward leaky accumulators.
#[derive(Debug, Clone, Copy)]
pub struct VanRossumLoss {
    /// Trace kernel (Table I: `τm = 4`, `τs = 1`).
    pub kernel: TraceKernel,
}

impl VanRossumLoss {
    /// Loss with the paper's Table I kernel.
    pub fn paper_default() -> Self {
        Self {
            kernel: TraceKernel::paper_defaults(),
        }
    }
}

impl Default for VanRossumLoss {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl PatternLoss for VanRossumLoss {
    /// # Panics
    ///
    /// Panics if the output and target shapes differ.
    fn loss_and_grad_into(&self, output: &Matrix, target: &SpikeRaster, grad: &mut Matrix) -> f32 {
        let (t_steps, channels) = output.shape();
        assert_eq!(t_steps, target.steps(), "step count mismatch");
        assert_eq!(channels, target.channels(), "channel count mismatch");
        grad.resize_zeroed(t_steps, channels);
        if t_steps == 0 {
            return 0.0;
        }

        let am = (-1.0 / self.kernel.tau_m).exp();
        let as_ = (-1.0 / self.kernel.tau_s).exp();
        let inv_t = 1.0 / t_steps as f32;

        let mut loss = 0.0f32;

        // Per channel: forward pass for the trace difference d[t], then a
        // backward pass for G[s] = Σ_{t≥s} d[t](am^{t−s} − as^{t−s}).
        let mut d = vec![0.0f32; t_steps];
        for c in 0..channels {
            let (mut mo, mut so, mut mt, mut st) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for t in 0..t_steps {
                let o = output.row(t)[c];
                let s = if target.get(t, c) { 1.0 } else { 0.0 };
                mo = am * mo + o;
                so = as_ * so + o;
                mt = am * mt + s;
                st = as_ * st + s;
                d[t] = (mo - so) - (mt - st);
                loss += 0.5 * inv_t * d[t] * d[t];
            }
            let (mut acc_m, mut acc_s) = (0.0f32, 0.0f32);
            for t in (0..t_steps).rev() {
                acc_m = d[t] + am * acc_m;
                acc_s = d[t] + as_ * acc_s;
                grad.row_mut(t)[c] = inv_t * (acc_m - acc_s);
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spike::raster_distance;

    fn output_from(raster: &SpikeRaster) -> Matrix {
        let mut m = Matrix::zeros(raster.steps(), raster.channels());
        for (t, c) in raster.events() {
            m[(t, c)] = 1.0;
        }
        m
    }

    #[test]
    fn rate_ce_prefers_firing_class() {
        let output = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[1.0, 1.0, 0.0], &[1.0, 0.0, 0.0]]);
        let (l0, _) = RateCrossEntropy.loss_and_grad(&output, 0);
        let (l1, _) = RateCrossEntropy.loss_and_grad(&output, 1);
        let (l2, _) = RateCrossEntropy.loss_and_grad(&output, 2);
        assert!(l0 < l1 && l1 < l2);
    }

    #[test]
    fn rate_ce_gradient_signs() {
        let output = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]);
        let (_, g) = RateCrossEntropy.loss_and_grad(&output, 1);
        // Wrong class fires: its gradient positive (push down); target's negative.
        assert!(g.row(0)[0] > 0.0);
        assert!(g.row(0)[1] < 0.0);
    }

    #[test]
    fn rate_ce_gradient_is_constant_over_time() {
        let output = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let (_, g) = RateCrossEntropy.loss_and_grad(&output, 0);
        for t in 1..3 {
            assert_eq!(g.row(t), g.row(0));
        }
    }

    #[test]
    fn rate_ce_gradient_sums_to_zero_per_step() {
        // Softmax gradient rows sum to zero: Σ(p−y) = 1 − 1.
        let output = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]);
        let (_, g) = RateCrossEntropy.loss_and_grad(&output, 2);
        for t in 0..2 {
            let s: f32 = g.row(t).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn van_rossum_zero_for_perfect_match() {
        let target = SpikeRaster::from_events(20, 3, &[(2, 0), (7, 1), (15, 2)]);
        let output = output_from(&target);
        let (loss, grad) = VanRossumLoss::paper_default().loss_and_grad(&output, &target);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.max_abs(), 0.0);
    }

    #[test]
    fn van_rossum_loss_matches_raster_distance() {
        let target = SpikeRaster::from_events(30, 2, &[(5, 0), (20, 1)]);
        let produced = SpikeRaster::from_events(30, 2, &[(8, 0), (12, 1)]);
        let output = output_from(&produced);
        let (loss, _) = VanRossumLoss::paper_default().loss_and_grad(&output, &target);
        let dist = raster_distance(TraceKernel::paper_defaults(), &produced, &target);
        assert!((loss - dist).abs() < 1e-5, "{loss} vs {dist}");
    }

    #[test]
    fn van_rossum_gradient_matches_finite_differences() {
        // The loss is a smooth function of the (relaxed) output values, so
        // plain finite differences validate the O(T) gradient.
        let t_steps = 15;
        let target = SpikeRaster::from_events(t_steps, 2, &[(3, 0), (10, 1)]);
        let mut output = Matrix::zeros(t_steps, 2);
        // A non-binary "soft" output exercises generality.
        for t in 0..t_steps {
            output.row_mut(t)[0] = ((t * 7) % 5) as f32 / 5.0;
            output.row_mut(t)[1] = ((t * 3) % 4) as f32 / 4.0;
        }
        let loss_fn = VanRossumLoss::paper_default();
        let (_, grad) = loss_fn.loss_and_grad(&output, &target);
        let eps = 1e-3f32;
        for &(t, c) in &[(0usize, 0usize), (5, 1), (14, 0), (7, 1)] {
            let orig = output.row(t)[c];
            output.row_mut(t)[c] = orig + eps;
            let (up, _) = loss_fn.loss_and_grad(&output, &target);
            output.row_mut(t)[c] = orig - eps;
            let (down, _) = loss_fn.loss_and_grad(&output, &target);
            output.row_mut(t)[c] = orig;
            let fd = (up - down) / (2.0 * eps);
            let an = grad.row(t)[c];
            assert!((fd - an).abs() < 1e-3, "({t},{c}): fd={fd} analytic={an}");
        }
    }

    #[test]
    fn van_rossum_gradient_pushes_toward_target() {
        // Missing spike at target time → gradient there should be negative
        // (increase the output), extra spike → positive.
        let t_steps = 25;
        let target = SpikeRaster::from_events(t_steps, 1, &[(10, 0)]);
        let produced = SpikeRaster::from_events(t_steps, 1, &[(20, 0)]);
        let (_, grad) =
            VanRossumLoss::paper_default().loss_and_grad(&output_from(&produced), &target);
        assert!(grad.row(10)[0] < 0.0, "should encourage the missing spike");
        assert!(
            grad.row(20)[0] > 0.0,
            "should discourage the spurious spike"
        );
    }

    #[test]
    fn van_rossum_empty_raster() {
        let target = SpikeRaster::zeros(0, 3);
        let (loss, grad) =
            VanRossumLoss::paper_default().loss_and_grad(&Matrix::zeros(0, 3), &target);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.shape(), (0, 3));
    }

    #[test]
    #[should_panic(expected = "target")]
    fn rate_ce_bad_target_panics() {
        RateCrossEntropy.loss_and_grad(&Matrix::zeros(2, 2), 5);
    }
}
