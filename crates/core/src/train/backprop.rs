//! Backpropagation through time for the unfolded network (paper eq. 13).
//!
//! The forward recursions (eqs. 6–10) are differentiable except for the
//! Heaviside spike function, whose Dirac-delta derivative is replaced by
//! the [`Surrogate`] pseudo-gradient (eq. 14). For the adaptive-threshold
//! model the adjoint recursions, iterating `t` from `T−1` down to `0`
//! with carries `dh[t+1]` and `dk[t+1]`, are
//!
//! ```text
//! dO[t] = dOᵉˣᵗ[t] + dh[t+1]                    (O[t] feeds h[t+1])
//! dv[t] = dO[t] · ε[t]                          (ε = surrogate at v−Vth)
//! dh[t] = −ϑ·dv[t] + β·dh[t+1]                  (v = g − ϑh; h decays by β)
//! dk[t] = Wᵀ·dv[t] + α·dk[t+1]                  (g = W·k; k decays by α)
//! dW   += dv[t] ⊗ k[t]
//! dx[t] = dk[t]                                 (input grad → layer below)
//! ```
//!
//! which is exactly eq. 13 with the synapse-filter chain made explicit.
//! The hard-reset model uses the standard stop-gradient-through-reset
//! convention, `dv[t] = dOᵉˣᵗ[t]·ε[t] + λ(1−O[t])·dv[t+1]`, and its trace
//! is the raw input scaled by the input gain `g`: `dW += g·dv[t] ⊗ x[t]`.
//!
//! The weight gradient is formed over the layer's input events, not
//! over the dense trace. `k[t] = α·k[t−1] + x[t]` is linear in the
//! binary input `x`, so the sum moves onto the input spikes:
//!
//! ```text
//! Σ_t dv[t] ⊗ k[t] = Σ_s e[s] ⊗ x[s],   e[s] = dv[s] + α·e[s+1],   e[T] = 0
//! ```
//!
//! (hard reset: `e[s] = g·dv[s]`). The recursion writes each step's `e`
//! row as it goes, a reverse-time filter of the adjoint, and
//! [`lanes::add_event_columns`] then adds `e[s]` into column `c` of `dW`
//! for every input spike `(s, c)`: one add per input event and output
//! neuron, where the dense form costs `n_out × n_in` per step. The
//! rasters come from the [`Forward`]; `dW` sums each element's terms
//! per input channel, a reassociation of the dense form.
//!
//! The input layer's `dx` would feed no parameter, so neither entry
//! point forms it; at the widest layer it is the costliest product of
//! the pass.
//!
//! Phase 1 of each layer, the recursion over `t` that needs no weights
//! (`dv[t]` through the surrogate, its pruning into error events, the
//! `dh` carry and the `e[t]` row), is one fused laned pass per step,
//! [`lanes::adjoint_step`], for both neuron kinds and every surrogate
//! shape. It evaluates the surrogate exactly as [`Surrogate::grad`]
//! specifies it, with the repository's own `exp` rather than the host's
//! `expf`, so the gradients are the same bits on every host.
//!
//! Two entry points run these recursions: [`backward_into`], the plain
//! per-step reference (one `Wᵀ·dv` pass at every step), and
//! [`backward_sparse_into`], which prunes `dv` into error events and
//! forms the input adjoint once per sequence over them — three phases
//! per layer, described on the function. Both run phase 1 through the
//! same kernel and form `dW` with the same event kernel.

use crate::scratch::ScratchSpace;
use crate::{Forward, Network, NeuronKind};
use snn_neuron::Surrogate;
use snn_tensor::lanes::{self, SparseRows};
use snn_tensor::{kernels, Matrix};

/// How the event-driven backward pass
/// ([`backward_sparse_into`]) prunes the per-timestep membrane adjoint
/// `dv` into error events.
///
/// The surrogate gradient decays fast away from the firing threshold,
/// so most `dv` entries are negligible but not *exactly* zero; pruning
/// them is what lets training track the same sparsity wins as the
/// event-driven forward pass. The policy decides the per-timestep
/// threshold `ε`; an entry survives when `|dv| > ε`, and pruned entries
/// are treated as exactly zero from then on (they contribute nothing to
/// the weight gradient, the downstream adjoint, or the recurrent
/// carries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparsityPolicy {
    /// `ε = 0`: only exact zeros are skipped, which the dense kernels
    /// do anyway — gradients are **bit-identical** to
    /// [`backward_into`] (property-tested), the pass just routes the
    /// surviving entries through the sparse input-adjoint product.
    Exact,
    /// Fixed absolute threshold on `|dv|`. The gradient error it
    /// introduces is bounded by `ε` times the pruned volume (see the
    /// differential proptests); thresholds up to `~1e-3` — about 1% of
    /// a typical rate-cross-entropy loss gradient — are
    /// indistinguishable from dense training on the end task (the
    /// `bench_kernels` ε-sweep asserts this) while pruning the
    /// overwhelming majority of the backward work.
    Thresholded(f32),
    /// Adjoint-scale-relative threshold `ε_l = 10⁻³ · max |∂E/∂O_l|`,
    /// resolved **per layer** from the upstream adjoint entering that
    /// layer (for the output layer, the loss gradient itself): error
    /// events three orders of magnitude below the layer's dominant
    /// error are dropped. Adapts to any loss scale (softmax
    /// cross-entropy and van Rossum gradients differ by orders of
    /// magnitude) with no tuning, and — because adjoints attenuate
    /// layer to layer in deep stacks — the per-layer resolution keeps
    /// lower layers training where a single output-scale threshold
    /// would silently zero them. The rule is a pure per-sample
    /// function, so epoch gradients stay bitwise identical across
    /// trainer thread counts.
    Auto,
}

impl SparsityPolicy {
    /// `Auto`'s threshold relative to a layer's largest upstream
    /// adjoint entry.
    const AUTO_RELATIVE_EPS: f32 = 1e-3;

    /// Resolves the policy to the absolute pruning threshold for one
    /// layer of one sample, given the upstream adjoint `∂E/∂O_l` the
    /// layer's recursion starts from.
    fn resolve_eps(&self, d_o: &Matrix) -> f32 {
        match *self {
            SparsityPolicy::Exact => 0.0,
            SparsityPolicy::Thresholded(eps) => eps,
            SparsityPolicy::Auto => Self::AUTO_RELATIVE_EPS * d_o.max_abs(),
        }
    }
}

impl Default for SparsityPolicy {
    /// [`SparsityPolicy::Exact`] — never change results unless asked.
    fn default() -> Self {
        SparsityPolicy::Exact
    }
}

/// Weight gradients, one matrix per layer (same shapes as the weights).
#[derive(Debug, Clone)]
pub struct Gradients {
    /// `grads[l]` is ∂E/∂W_l.
    pub per_layer: Vec<Matrix>,
}

impl Gradients {
    /// Zero gradients matching a network's weight shapes.
    pub fn zeros_like(net: &Network) -> Self {
        Self {
            per_layer: net
                .layers()
                .iter()
                .map(|l| Matrix::zeros(l.n_out(), l.n_in()))
                .collect(),
        }
    }

    /// Zeroes every gradient in place (reuse between batches without
    /// reallocating).
    pub fn reset(&mut self) {
        for g in &mut self.per_layer {
            g.fill_zero();
        }
    }

    /// Accumulates `other` into `self` (batch accumulation).
    ///
    /// # Panics
    ///
    /// Panics if the layer structures differ.
    pub fn accumulate(&mut self, other: &Gradients) {
        assert_eq!(
            self.per_layer.len(),
            other.per_layer.len(),
            "layer count mismatch"
        );
        for (a, b) in self.per_layer.iter_mut().zip(&other.per_layer) {
            a.add_scaled(1.0, b);
        }
    }

    /// Scales all gradients (e.g. by `1/batch_size`).
    pub fn scale(&mut self, alpha: f32) {
        for g in &mut self.per_layer {
            g.scale(alpha);
        }
    }

    /// Clips the global norm to `max_norm`, returning the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self
            .per_layer
            .iter()
            .map(|g| {
                let n = g.frobenius_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for g in &mut self.per_layer {
                g.scale(scale);
            }
        }
        norm
    }

    /// Largest absolute gradient entry across layers.
    pub fn max_abs(&self) -> f32 {
        self.per_layer
            .iter()
            .map(|g| g.max_abs())
            .fold(0.0, f32::max)
    }
}

/// Runs BPTT over a cached forward pass.
///
/// `d_output` is `∂E/∂O_L[t]`, a `T × n_out` matrix produced by one of
/// the [loss functions](crate::train). Returns the weight gradients for
/// every layer.
///
/// # Panics
///
/// Panics if `d_output`'s shape does not match the output layer record.
pub fn backward(
    net: &Network,
    fwd: &Forward,
    d_output: &Matrix,
    surrogate: Surrogate,
) -> Gradients {
    let mut grads = Gradients::zeros_like(net);
    let mut scratch = ScratchSpace::new();
    backward_into(net, fwd, d_output, surrogate, &mut grads, &mut scratch);
    grads
}

/// Allocation-free BPTT: **accumulates** the sample's weight gradients
/// into `grads` (callers zero it per batch with
/// [`Gradients::reset`]) using the worker-owned `scratch` for every
/// intermediate adjoint. See [`ScratchSpace`](crate::ScratchSpace) for
/// the ownership rules.
///
/// This is the plain pass: phase 1 through [`lanes::adjoint_step`]
/// without pruning, and at every timestep one `Wᵀ·dv` projection over
/// `W` for the input adjoint. The weight gradient is the event form of
/// the module docs, as in [`backward_sparse_into`]. It is the reference the event-driven pass
/// is pinned to (bit for bit under [`SparsityPolicy::Exact`]) and the
/// dense baseline the kernel bench measures against.
///
/// Accumulating here (rather than returning fresh gradients that the
/// caller adds up) is what removes the two per-sample matrix allocations
/// the original trainer paid per sample, and it keeps the floating-point
/// accumulation order a pure function of sample order — the property the
/// deterministic parallel trainer relies on.
///
/// # Panics
///
/// Panics if `d_output`'s shape does not match the output layer record,
/// if `fwd` lacks the `v` records and input rasters of
/// [`Network::forward_into`] (an inference pass keeps only `o`), or if
/// `grads` does not match the network's layer shapes.
pub fn backward_into(
    net: &Network,
    fwd: &Forward,
    d_output: &Matrix,
    surrogate: Surrogate,
    grads: &mut Gradients,
    scratch: &mut ScratchSpace,
) {
    bptt(net, fwd, d_output, surrogate, None, grads, scratch);
}

/// Event-driven BPTT: like [`backward_into`], but each timestep's
/// membrane adjoint `dv` is pruned to the entries with `|dv| > ε`
/// (per [`SparsityPolicy`]) and only those **error events** drive the
/// input adjoint. Each layer runs in three phases:
///
/// 1. the `dv` recursion, which involves no weights, over all `T` steps,
///    one fused laned pass per step ([`lanes::adjoint_step`]): `dv[t]`
///    through the surrogate, pruned, its surviving events (index and
///    value) left-packed into the event raster, the carries updated and
///    the event-form adjoint row `e[t]` written from the pruned `dv`;
/// 2. `dW += Σ_s e[s] ⊗ x[s]` over the layer's input spikes
///    ([`lanes::add_event_columns`], the same kernel as
///    [`backward_into`]), and `P = DV·W` once per sequence, a
///    sparse-times-dense product over the error events
///    ([`lanes::sparse_matmul_add`]) in which pruned entries cost
///    nothing and every element keeps the per-step order of its sum;
/// 3. the `dk` carry (adaptive) or input-gain scale (hard reset) over
///    `P`, giving the adjoint handed to the layer below — skipped at
///    the input layer, like every write of its adjoint.
///
/// With [`SparsityPolicy::Exact`] the gradients are bit-identical to
/// [`backward_into`] (both run the same phase-1 kernel, and pruning exact
/// zeros changes no sum); the
/// thresholded policies trade a bounded gradient perturbation for
/// skipping most of the input-adjoint work. Like `backward_into`, this
/// **accumulates** into `grads` and performs no per-sample heap
/// allocation once `scratch` is warm. The surviving event lists remain
/// readable afterwards via
/// [`ScratchSpace::backward_events`](crate::ScratchSpace::backward_events).
///
/// # Panics
///
/// Panics if `d_output`'s shape does not match the output layer record,
/// if `fwd` lacks the `v` records and input rasters of
/// [`Network::forward_into`] (an inference pass keeps only `o`), or if
/// `grads` does not match the network's layer shapes.
pub fn backward_sparse_into(
    net: &Network,
    fwd: &Forward,
    d_output: &Matrix,
    surrogate: Surrogate,
    policy: SparsityPolicy,
    grads: &mut Gradients,
    scratch: &mut ScratchSpace,
) {
    bptt(net, fwd, d_output, surrogate, Some(policy), grads, scratch);
}

/// The one BPTT recursion behind [`backward_into`] (`policy = None`:
/// no pruning, the input adjoint at every step) and
/// [`backward_sparse_into`] (pruning, then the input adjoint once per
/// sequence over the recorded events).
fn bptt(
    net: &Network,
    fwd: &Forward,
    d_output: &Matrix,
    surrogate: Surrogate,
    policy: Option<SparsityPolicy>,
    grads: &mut Gradients,
    scratch: &mut ScratchSpace,
) {
    let layers = net.layers();
    assert_eq!(
        fwd.records.len(),
        layers.len(),
        "forward/record layer mismatch"
    );
    for (l, (rec, layer)) in fwd.records.iter().zip(layers).enumerate() {
        let t = rec.steps();
        let input = fwd
            .inputs
            .get(l)
            .map_or((0, 0), |x| (x.steps(), x.channels()));
        assert!(
            input == (t, layer.n_in()) && rec.v.shape() == (t, layer.n_out()),
            "layer {l}: BPTT needs a training forward from Network::forward_into \
             (input raster {t}×{} and v {t}×{}), got input {input:?} and v {:?}; an \
             inference pass records only o",
            layer.n_in(),
            layer.n_out(),
            rec.v.shape()
        );
    }
    assert_eq!(
        grads.per_layer.len(),
        layers.len(),
        "gradient/layer count mismatch"
    );
    let top = fwd.records.last().expect("empty network");
    assert_eq!(
        d_output.shape(),
        top.o.shape(),
        "d_output shape {:?} != output shape {:?}",
        d_output.shape(),
        top.o.shape()
    );
    for (g, layer) in grads.per_layer.iter().zip(layers) {
        assert_eq!(
            g.shape(),
            (layer.n_out(), layer.n_in()),
            "gradient shape mismatch"
        );
    }
    scratch.ensure_backward(net);

    let ScratchSpace {
        d_o,
        d_pre,
        dv,
        dh,
        dk_next,
        wt_dv,
        grad_events,
        e,
        input_events,
        pack,
        ..
    } = scratch;
    // The dense pass records no error events; clearing here means
    // [`ScratchSpace::backward_events`] never reports a *previous*
    // sample's sparse pass as this one's diagnostic.
    grad_events.clear();
    let pseudo = lane_surrogate(surrogate);

    d_o.resize_zeroed(d_output.rows(), d_output.cols());
    d_o.as_mut_slice().copy_from_slice(d_output.as_slice());

    for l in (0..layers.len()).rev() {
        // Disarmed unless the caller installed an ambient trace context
        // (see `snn_obs::with_trace`); records on drop at loop end.
        let mut span = snn_obs::span(crate::network::layer_span_name(
            l,
            crate::network::LAYER_BACKWARD_NAMES,
        ));
        let layer = &layers[l];
        let rec = &fwd.records[l];
        let t_steps = rec.steps();
        if span.is_armed() {
            span.set_payload(t_steps as u64);
        }
        let (n_in, n_out) = (layer.n_in(), layer.n_out());
        let params = layer.params();
        let weights = layer.weights();
        let neuron = match layer.kind() {
            NeuronKind::Adaptive => lanes::Adjoint::Adaptive {
                alpha: params.synapse_decay(),
                beta: params.reset_decay(),
                theta: params.theta,
                v_th: params.v_th,
            },
            NeuronKind::HardReset | NeuronKind::HardResetMatched => lanes::Adjoint::HardReset {
                lambda: params.synapse_decay(),
                gain: layer.kind().input_gain(&params),
                v_th: params.v_th,
            },
        };
        // The input adjoint: `dk[t] = Wᵀ·dv + α·dk[t+1]` (adaptive) or
        // `dx[t] = gain·Wᵀ·dv` (hard reset), from one row of `Wᵀ·dv`.
        let input_carry = |add: &[f32], dk_next: &mut [f32], out: &mut [f32]| match neuron {
            lanes::Adjoint::Adaptive { alpha, .. } => {
                kernels::carry_decay_out(alpha, add, dk_next, out)
            }
            lanes::Adjoint::HardReset { gain, .. } => kernels::scale_copy(gain, add, out),
        };
        // Per-layer threshold: `d_o` holds this layer's upstream
        // adjoint ∂E/∂O_l (the loss gradient for the top layer), so
        // `Auto` tracks the adjoint scale as it attenuates down the
        // stack.
        let eps = policy.map(|policy| policy.resolve_eps(d_o));
        // Nothing reads the input layer's adjoint.
        let input_adjoint = l > 0;
        let steps = grad_events.steps()..grad_events.steps() + t_steps;
        if input_adjoint {
            d_pre.resize_zeroed(t_steps, n_in);
        }
        // Phase 1 writes rows 0..T; row T is `e[T] = 0`, the last
        // step's `e[t + 1]`.
        e.resize_for_overwrite(t_steps + 1, n_out);
        e.row_mut(t_steps).fill(0.0);
        let dv = &mut dv[..n_out];
        let dh = &mut dh[..n_out];
        let dk_next = &mut dk_next[..n_in];
        let wt_dv = &mut wt_dv[..n_in];
        dv.fill(0.0);
        dh.fill(0.0);
        dk_next.fill(0.0);

        for t in (0..t_steps).rev() {
            let (rows_to_t, from_next) = e.as_mut_slice().split_at_mut((t + 1) * n_out);
            let rows = lanes::AdjointRows {
                ext: d_o.row(t),
                v: rec.v.row(t),
                o: rec.o.row(t),
                e_next: &from_next[..n_out],
            };
            // dv[t], pruned into error events, the carries and e[t] in
            // one pass.
            let prune = eps.map(|eps| (eps, &mut *grad_events));
            let e_row = &mut rows_to_t[t * n_out..];
            lanes::adjoint_step(neuron, pseudo, rows, dv, dh, e_row, prune);
            if eps.is_none() && input_adjoint {
                weights.matvec_t_into(dv, wt_dv);
                input_carry(wt_dv, dk_next, d_pre.row_mut(t));
            }
        }
        if eps.is_some() && input_adjoint {
            // The upstream adjoint is dead after phase 1: its buffer
            // takes `P`.
            let p = events_times_weights(d_o, &grad_events.rows(steps), weights, pack);
            for (k, t) in (0..t_steps).rev().enumerate() {
                input_carry(p.row(k), dk_next, d_pre.row_mut(t));
            }
        }
        // dW += Σ_s e[s] ⊗ x[s] over the layer's input spikes.
        let input = &fwd.inputs[l];
        input_events.regroup(n_in, input.offsets(), input.ids());
        lanes::add_event_columns(
            grads.per_layer[l].as_mut_slice(),
            &e.as_slice()[..t_steps * n_out],
            input_events,
        );
        std::mem::swap(d_o, d_pre);
    }
}

/// The surrogate in the form [`lanes::adjoint_step`] evaluates, with the
/// constants [`Surrogate::grad`] resolves, computed the same way (a test
/// pins the two together bit for bit).
fn lane_surrogate(surrogate: Surrogate) -> lanes::Pseudo {
    match surrogate {
        Surrogate::Erfc { sigma } => {
            let s = sigma.max(1e-6);
            lanes::Pseudo::Gauss {
                k: -0.5 / (s * s),
                peak: 1.0 / ((std::f32::consts::TAU).sqrt() * s),
            }
        }
        Surrogate::Rect { width } => {
            let w = width.max(1e-6);
            lanes::Pseudo::Rect {
                width: w,
                height: 0.5 / w,
            }
        }
        Surrogate::FastSigmoid { slope } => lanes::Pseudo::FastSigmoid {
            slope: slope.max(0.0),
        },
    }
}

/// `P = DV·W` over a layer's error events, written into `p`: row `k`
/// (timestep `T−1−k`) sums `dv[r]·W[r]` over the step's event rows `r`,
/// ascending — the input adjoint before its carry or gain.
fn events_times_weights<'a>(
    p: &'a mut Matrix,
    steps: &SparseRows,
    weights: &Matrix,
    pack: &mut Vec<f32>,
) -> &'a Matrix {
    p.resize_zeroed(steps.rows(), weights.cols());
    lanes::sparse_matmul_add(
        p.as_mut_slice(),
        weights.cols(),
        steps,
        weights.as_slice(),
        pack,
    );
    p
}

/// Allocating convenience wrapper over [`backward_sparse_into`].
pub fn backward_sparse(
    net: &Network,
    fwd: &Forward,
    d_output: &Matrix,
    surrogate: Surrogate,
    policy: SparsityPolicy,
) -> Gradients {
    let mut grads = Gradients::zeros_like(net);
    let mut scratch = ScratchSpace::new();
    backward_sparse_into(
        net,
        fwd,
        d_output,
        surrogate,
        policy,
        &mut grads,
        &mut scratch,
    );
    grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseLayer, LayerRecord, SpikeRaster};
    use snn_neuron::NeuronParams;
    use snn_tensor::Rng;

    /// Smooth ("soft-spike") forward pass for the adaptive model: the
    /// Heaviside is replaced by the sigmoid-like CDF whose derivative is
    /// the erfc surrogate, making the whole network differentiable so we
    /// can validate `backward` against finite differences.
    fn soft_spike(x: f32, sigma: f32) -> f32 {
        // Logistic approximation to the Gaussian CDF with matched slope
        // at 0: s'(0) = 1/(sqrt(2π)σ) requires k = 4/(sqrt(2π)σ)... we
        // instead use the exact Gaussian CDF via erf series? Simpler: use
        // the logistic and a matching surrogate in the test.
        1.0 / (1.0 + (-x / sigma).exp())
    }

    fn soft_spike_grad(x: f32, sigma: f32) -> f32 {
        let s = soft_spike(x, sigma);
        s * (1.0 - s) / sigma
    }

    /// Soft forward for a single adaptive layer stack; returns records
    /// with o = soft spikes. The same recursions as DenseLayer::forward
    /// but with soft output.
    fn soft_forward(net: &Network, input: &Matrix, sigma: f32) -> Forward {
        let mut x = input.clone();
        let mut records = Vec::new();
        for layer in net.layers() {
            let p = layer.params();
            let (alpha, beta, theta, v_th) = (p.synapse_decay(), p.reset_decay(), p.theta, p.v_th);
            let (n_in, n_out) = (layer.n_in(), layer.n_out());
            let t_steps = x.rows();
            let mut pre = Matrix::zeros(t_steps, n_in);
            let mut v = Matrix::zeros(t_steps, n_out);
            let mut o = Matrix::zeros(t_steps, n_out);
            let mut k = vec![0.0f32; n_in];
            let mut h = vec![0.0f32; n_out];
            let mut prev_o = vec![0.0f32; n_out];
            for t in 0..t_steps {
                for (ki, &xi) in k.iter_mut().zip(x.row(t)) {
                    *ki = alpha * *ki + xi;
                }
                pre.row_mut(t).copy_from_slice(&k);
                let g = layer.weights().matvec(&k);
                for i in 0..n_out {
                    h[i] = beta * h[i] + prev_o[i];
                    let vi = g[i] - theta * h[i];
                    v.row_mut(t)[i] = vi;
                    let oi = soft_spike(vi - v_th, sigma);
                    o.row_mut(t)[i] = oi;
                    prev_o[i] = oi;
                }
            }
            x = o.clone();
            records.push(LayerRecord { pre, v, o });
        }
        Forward {
            records,
            ..Forward::empty()
        }
    }

    /// Backward pass identical to `backward` but with the logistic
    /// derivative, applied to soft records.
    fn soft_backward(net: &Network, fwd: &Forward, d_output: &Matrix, sigma: f32) -> Gradients {
        let mut grads = Gradients::zeros_like(net);
        let mut d_o = d_output.clone();
        for l in (0..net.layers().len()).rev() {
            let layer = &net.layers()[l];
            let rec = &fwd.records[l];
            let p = layer.params();
            let (alpha, beta, theta, v_th) = (p.synapse_decay(), p.reset_decay(), p.theta, p.v_th);
            let (n_in, n_out) = (layer.n_in(), layer.n_out());
            let t_steps = rec.steps();
            let mut d_pre = Matrix::zeros(t_steps, n_in);
            let mut dh_next = vec![0.0f32; n_out];
            let mut dk_next = vec![0.0f32; n_in];
            for t in (0..t_steps).rev() {
                let mut dv = vec![0.0f32; n_out];
                for i in 0..n_out {
                    let d_tot = d_o.row(t)[i] + dh_next[i];
                    dv[i] = d_tot * soft_spike_grad(rec.v.row(t)[i] - v_th, sigma);
                }
                for i in 0..n_out {
                    dh_next[i] = -theta * dv[i] + beta * dh_next[i];
                }
                grads.per_layer[l].add_outer(1.0, &dv, rec.pre.row(t));
                let wt_dv = layer.weights().matvec_t(&dv);
                for j in 0..n_in {
                    dk_next[j] = wt_dv[j] + alpha * dk_next[j];
                    d_pre.row_mut(t)[j] = dk_next[j];
                }
            }
            d_o = d_pre;
        }
        grads
    }

    /// Loss on the soft network: sum of squared output values against a
    /// fixed random target (smooth in the weights).
    fn soft_loss(net: &Network, input: &Matrix, target: &Matrix, sigma: f32) -> f32 {
        let fwd = soft_forward(net, input, sigma);
        let o = fwd.output();
        o.as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(a, b)| 0.5 * (a - b).powi(2))
            .sum()
    }

    #[test]
    fn adaptive_bptt_matches_finite_differences() {
        let mut rng = Rng::seed_from(99);
        let sigma = 0.7f32; // wide enough for stable finite differences
        let mut net = Network::mlp(
            &[3, 4, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let t_steps = 6;
        let input = {
            let mut m = Matrix::zeros(t_steps, 3);
            for t in 0..t_steps {
                for c in 0..3 {
                    if rng.coin(0.4) {
                        m.row_mut(t)[c] = 1.0;
                    }
                }
            }
            m
        };
        let target = {
            let mut m = Matrix::zeros(t_steps, 2);
            m.map_inplace(|_| 0.0);
            for t in 0..t_steps {
                for c in 0..2 {
                    m.row_mut(t)[c] = rng.uniform(0.0, 1.0);
                }
            }
            m
        };

        // Analytic gradients via soft BPTT.
        let fwd = soft_forward(&net, &input, sigma);
        let mut d_out = Matrix::zeros(t_steps, 2);
        for t in 0..t_steps {
            for c in 0..2 {
                d_out.row_mut(t)[c] = fwd.output().row(t)[c] - target.row(t)[c];
            }
        }
        let grads = soft_backward(&net, &fwd, &d_out, sigma);

        // Finite differences on a sample of weights in every layer.
        let eps = 1e-3f32;
        for l in 0..2 {
            let (rows, cols) = net.layers()[l].weights().shape();
            for &(r, c) in &[(0usize, 0usize), (rows - 1, cols - 1), (rows / 2, cols / 2)] {
                let orig = net.layers()[l].weights()[(r, c)];
                net.layers_mut()[l].weights_mut()[(r, c)] = orig + eps;
                let up = soft_loss(&net, &input, &target, sigma);
                net.layers_mut()[l].weights_mut()[(r, c)] = orig - eps;
                let down = soft_loss(&net, &input, &target, sigma);
                net.layers_mut()[l].weights_mut()[(r, c)] = orig;
                let fd = (up - down) / (2.0 * eps);
                let an = grads.per_layer[l][(r, c)];
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + fd.abs().max(an.abs())),
                    "layer {l} ({r},{c}): fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn hard_reset_bptt_matches_reference_implementation() {
        // Cross-check the fused hard-reset backward against an explicit,
        // slow re-derivation that materialises all adjoints.
        let mut rng = Rng::seed_from(5);
        let net = {
            let p = NeuronParams::paper_defaults().with_v_th(0.6);
            let l = DenseLayer::new(3, 2, NeuronKind::HardResetMatched, p, &mut rng);
            Network::from_layers(vec![l])
        };
        let input = SpikeRaster::from_events(5, 3, &[(0, 0), (1, 1), (2, 2), (3, 0), (4, 1)]);
        let fwd = net.forward(&input);
        let t_steps = 5;
        let mut d_out = Matrix::zeros(t_steps, 2);
        for t in 0..t_steps {
            d_out.row_mut(t)[0] = 1.0; // push neuron 0 to fire more
            d_out.row_mut(t)[1] = -0.5;
        }
        let sur = Surrogate::paper_default();
        let fast = backward(&net, &fwd, &d_out, sur);

        // Reference: dv[t] materialised forward-in-reverse with explicit loops.
        let layer = &net.layers()[0];
        let p = layer.params();
        let lambda = p.synapse_decay();
        let rec = &fwd.records[0];
        let mut dv_all = vec![vec![0.0f32; 2]; t_steps];
        for t in (0..t_steps).rev() {
            for i in 0..2 {
                let mut dv = d_out.row(t)[i] * sur.grad(rec.v.row(t)[i] - p.v_th);
                if t + 1 < t_steps {
                    dv += lambda * (1.0 - rec.o.row(t)[i]) * dv_all[t + 1][i];
                }
                dv_all[t][i] = dv;
            }
        }
        let mut dw_ref = Matrix::zeros(2, 3);
        for t in 0..t_steps {
            dw_ref.add_outer(1.0, &dv_all[t], rec.pre.row(t));
        }
        for r in 0..2 {
            for c in 0..3 {
                assert!(
                    (fast.per_layer[0][(r, c)] - dw_ref[(r, c)]).abs() < 1e-5,
                    "({r},{c})"
                );
            }
        }
    }

    #[test]
    fn gradients_flow_to_all_layers() {
        let mut rng = Rng::seed_from(2);
        let net = Network::mlp(
            &[4, 6, 5, 3],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.3),
            &mut rng,
        );
        let mut input = SpikeRaster::zeros(10, 4);
        for t in 0..10 {
            for c in 0..4 {
                if (t + c) % 2 == 0 {
                    input.set(t, c, true);
                }
            }
        }
        let fwd = net.forward(&input);
        let d_out = Matrix::full(10, 3, 1.0);
        let grads = backward(&net, &fwd, &d_out, Surrogate::paper_default());
        for (l, g) in grads.per_layer.iter().enumerate() {
            assert!(g.max_abs() > 0.0, "layer {l} received zero gradient");
            assert!(!g.has_non_finite(), "layer {l} has non-finite gradients");
        }
    }

    #[test]
    fn zero_upstream_gradient_gives_zero_weight_gradient() {
        let mut rng = Rng::seed_from(2);
        let net = Network::mlp(
            &[3, 4, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let input = SpikeRaster::from_events(6, 3, &[(0, 0), (1, 1)]);
        let fwd = net.forward(&input);
        let grads = backward(&net, &fwd, &Matrix::zeros(6, 2), Surrogate::paper_default());
        assert_eq!(grads.max_abs(), 0.0);
    }

    #[test]
    fn clip_global_norm_bounds_gradients() {
        let mut rng = Rng::seed_from(2);
        let net = Network::mlp(
            &[3, 8, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.2),
            &mut rng,
        );
        let mut input = SpikeRaster::zeros(8, 3);
        for t in 0..8 {
            input.set(t, t % 3, true);
        }
        let fwd = net.forward(&input);
        let mut grads = backward(
            &net,
            &fwd,
            &Matrix::full(8, 2, 5.0),
            Surrogate::paper_default(),
        );
        let pre = grads.clip_global_norm(0.5);
        assert!(pre > 0.5, "test needs a large pre-clip norm, got {pre}");
        let post = grads
            .per_layer
            .iter()
            .map(|g| g.frobenius_norm().powi(2))
            .sum::<f32>()
            .sqrt();
        assert!((post - 0.5).abs() < 1e-4);
    }

    /// Mixed-density raster for exercising both kernel paths.
    fn patterned_raster(steps: usize, channels: usize, seed: u64, density: f32) -> SpikeRaster {
        let mut rng = Rng::seed_from(seed);
        let mut r = SpikeRaster::zeros(steps, channels);
        for t in 0..steps {
            for c in 0..channels {
                if rng.coin(density) {
                    r.set(t, c, true);
                }
            }
        }
        r
    }

    #[test]
    fn sparse_exact_is_bitwise_identical_to_dense_backward() {
        for (kind, v_th) in [
            (NeuronKind::Adaptive, 0.3),
            (NeuronKind::HardReset, 0.4),
            (NeuronKind::HardResetMatched, 0.5),
        ] {
            let mut rng = Rng::seed_from(42);
            let net = Network::mlp(
                &[5, 9, 3],
                kind,
                NeuronParams::paper_defaults().with_v_th(v_th),
                &mut rng,
            );
            let input = patterned_raster(14, 5, 7, 0.3);
            let fwd = net.forward(&input);
            let d_out = Matrix::full(14, 3, 0.4);
            let sur = Surrogate::paper_default();
            let dense = backward(&net, &fwd, &d_out, sur);
            let sparse = backward_sparse(&net, &fwd, &d_out, sur, SparsityPolicy::Exact);
            for (l, (a, b)) in dense.per_layer.iter().zip(&sparse.per_layer).enumerate() {
                assert_eq!(a.as_slice(), b.as_slice(), "{kind:?} layer {l}");
            }
        }
    }

    #[test]
    fn thresholded_policy_prunes_events_and_stays_close() {
        let mut rng = Rng::seed_from(8);
        let net = Network::mlp(
            &[8, 16, 4],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        );
        let input = patterned_raster(20, 8, 3, 0.15);
        let fwd = net.forward(&input);
        let d_out = Matrix::full(20, 4, 0.25);
        let sur = Surrogate::paper_default();
        let dense = backward(&net, &fwd, &d_out, sur);

        let mut scratch = ScratchSpace::new();
        let mut sparse = Gradients::zeros_like(&net);
        let eps = 1e-5f32;
        backward_sparse_into(
            &net,
            &fwd,
            &d_out,
            sur,
            SparsityPolicy::Thresholded(eps),
            &mut sparse,
            &mut scratch,
        );
        let events = scratch.backward_events();
        assert!(events.nnz() > 0, "some events must survive");
        assert!(
            events.density() < 1.0,
            "thresholding must prune something, density {}",
            events.density()
        );
        for (a, b) in dense.per_layer.iter().zip(&sparse.per_layer) {
            let mut max_diff = 0.0f32;
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                max_diff = max_diff.max((x - y).abs());
            }
            assert!(max_diff < 1e-2, "gradient drift {max_diff} too large");
        }
    }

    #[test]
    fn auto_policy_trains_every_layer_of_a_deep_attenuating_stack() {
        // Adjoints attenuate sharply below a small-weight readout: the
        // per-layer ε resolution must keep the lower layers' gradients
        // nonzero, where a single output-scale threshold would prune
        // every one of their error events.
        let mut rng = Rng::seed_from(3);
        let mut net = Network::mlp(
            &[6, 12, 12, 3],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.2),
            &mut rng,
        );
        let top = net.layers_mut().len() - 1;
        net.layers_mut()[top].weights_mut().scale(1e-3);
        let input = patterned_raster(30, 6, 11, 0.4);
        let fwd = net.forward(&input);
        let d_out = Matrix::full(30, 3, 0.5);
        let sur = Surrogate::paper_default();
        let dense = backward(&net, &fwd, &d_out, sur);
        let auto = backward_sparse(&net, &fwd, &d_out, sur, SparsityPolicy::Auto);
        for (l, (d, a)) in dense.per_layer.iter().zip(&auto.per_layer).enumerate() {
            assert!(d.max_abs() > 0.0, "layer {l}: degenerate dense gradient");
            assert!(
                a.max_abs() > 0.0,
                "layer {l}: Auto pruned the whole layer's gradient"
            );
            // And it tracks the dense gradient to the Auto tolerance.
            let mut diff = 0.0f32;
            for (x, y) in d.as_slice().iter().zip(a.as_slice()) {
                diff = diff.max((x - y).abs());
            }
            assert!(
                diff < 0.05 * (1.0 + d.max_abs()),
                "layer {l}: Auto drifted {diff} from dense (max {})",
                d.max_abs()
            );
        }
    }

    #[test]
    fn auto_policy_prunes_relative_to_loss_gradient_scale() {
        let mut rng = Rng::seed_from(19);
        let net = Network::mlp(
            &[6, 24, 3],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.5),
            &mut rng,
        );
        let input = patterned_raster(25, 6, 4, 0.2);
        let fwd = net.forward(&input);
        let d_out = Matrix::full(25, 3, 0.3);
        let mut scratch = ScratchSpace::new();
        let mut grads = Gradients::zeros_like(&net);
        backward_sparse_into(
            &net,
            &fwd,
            &d_out,
            Surrogate::paper_default(),
            SparsityPolicy::Auto,
            &mut grads,
            &mut scratch,
        );
        let density = scratch.backward_events().density();
        assert!(
            density < 0.9,
            "auto policy should prune far-from-threshold adjoints, density {density}"
        );
        assert!(grads.max_abs() > 0.0, "gradients must still flow");
    }

    /// BPTT as the module docs define it, in `f64`, with the weight
    /// gradient taken over the dense trace: `dW = Σ_t dv[t] ⊗ k[t]` from
    /// `rec.pre` (times the input gain for hard reset), and the input
    /// adjoint through `Wᵀ·dv` at every step.
    fn f64_trace_reference(
        net: &Network,
        fwd: &Forward,
        d_output: &Matrix,
        sur: Surrogate,
    ) -> Vec<Vec<f64>> {
        let rows = |m: &Matrix| -> Vec<Vec<f64>> {
            (0..m.rows())
                .map(|t| m.row(t).iter().map(|&x| x as f64).collect())
                .collect()
        };
        let mut d_o = rows(d_output);
        let mut grads = Vec::new();
        for (layer, rec) in net.layers().iter().zip(&fwd.records).rev() {
            let p = layer.params();
            let (n_in, n_out, t_steps) = (layer.n_in(), layer.n_out(), rec.steps());
            let w = layer.weights();
            let alpha = p.synapse_decay() as f64;
            let gain = layer.kind().input_gain(&p) as f64;
            let pre = rows(&rec.pre);
            let (mut dw, mut d_pre) = (
                vec![0.0f64; n_out * n_in],
                vec![vec![0.0f64; n_in]; t_steps],
            );
            let (mut carry_out, mut dk) = (vec![0.0f64; n_out], vec![0.0f64; n_in]);
            for t in (0..t_steps).rev() {
                let sg = |i: usize| sur.grad(rec.v.row(t)[i] - p.v_th) as f64;
                let dv: Vec<f64> = match layer.kind() {
                    NeuronKind::Adaptive => {
                        let dv: Vec<f64> = (0..n_out)
                            .map(|i| (d_o[t][i] + carry_out[i]) * sg(i))
                            .collect();
                        for i in 0..n_out {
                            carry_out[i] =
                                -(p.theta as f64) * dv[i] + p.reset_decay() as f64 * carry_out[i];
                        }
                        dv
                    }
                    NeuronKind::HardReset | NeuronKind::HardResetMatched => {
                        let dv: Vec<f64> = (0..n_out)
                            .map(|i| {
                                d_o[t][i] * sg(i)
                                    + alpha * (1.0 - rec.o.row(t)[i] as f64) * carry_out[i]
                            })
                            .collect();
                        carry_out.copy_from_slice(&dv);
                        dv
                    }
                };
                for i in 0..n_out {
                    for j in 0..n_in {
                        dw[i * n_in + j] += gain * dv[i] * pre[t][j];
                    }
                }
                for j in 0..n_in {
                    let wt_dv: f64 = (0..n_out).map(|i| w[(i, j)] as f64 * dv[i]).sum();
                    d_pre[t][j] = match layer.kind() {
                        NeuronKind::Adaptive => {
                            dk[j] = wt_dv + alpha * dk[j];
                            dk[j]
                        }
                        _ => gain * wt_dv,
                    };
                }
            }
            grads.push(dw);
            d_o = d_pre;
        }
        grads.reverse();
        grads
    }

    #[test]
    fn event_form_weight_gradient_matches_f64_dense_trace_reference() {
        let sur = Surrogate::paper_default();
        for (kind, v_th) in [
            (NeuronKind::Adaptive, 0.3),
            (NeuronKind::HardReset, 0.05),
            (NeuronKind::HardResetMatched, 0.4),
        ] {
            let mut rng = Rng::seed_from(17);
            // Widths cross the 8-row and 8-channel blocks of the event
            // kernel with ragged tails.
            let net = Network::mlp(
                &[11, 17, 9, 4],
                kind,
                NeuronParams::paper_defaults().with_v_th(v_th),
                &mut rng,
            );
            let input = patterned_raster(31, 11, 23, 0.3);
            let mut d_out = Matrix::zeros(31, 4);
            d_out.map_inplace(|_| rng.uniform(-1.0, 1.0));
            // The dense reference rollout keeps its input rasters too, so
            // its `Forward` differentiates like the event-driven one's.
            for (rollout, fwd) in [
                ("forward", net.forward(&input)),
                (
                    "forward_dense_reference",
                    net.forward_dense_reference(&input),
                ),
            ] {
                for (l, rec) in fwd.records.iter().enumerate().take(2) {
                    let spikes = rec.o.as_slice().iter().filter(|&&o| o != 0.0).count();
                    assert!(spikes > 0, "{kind:?} {rollout}: layer {l} is silent");
                }
                let want = f64_trace_reference(&net, &fwd, &d_out, sur);
                let dense = backward(&net, &fwd, &d_out, sur);
                let exact = backward_sparse(&net, &fwd, &d_out, sur, SparsityPolicy::Exact);
                for (pass, got) in [("backward", &dense), ("Exact", &exact)] {
                    for (l, (g, w)) in got.per_layer.iter().zip(&want).enumerate() {
                        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
                        let diff = g
                            .as_slice()
                            .iter()
                            .zip(w)
                            .map(|(&a, b)| (a as f64 - b).powi(2))
                            .sum::<f64>()
                            .sqrt();
                        assert!(
                            norm > 0.0,
                            "{kind:?} {rollout} {pass}: layer {l} zero gradient"
                        );
                        assert!(
                            diff <= 1e-5 * norm,
                            "{kind:?} {rollout} {pass}: layer {l} relative difference {}",
                            diff / norm
                        );
                    }
                }
            }
        }
    }

    /// A network and an inference pass over it, which records only `o`.
    fn inference_forward() -> (Network, Forward) {
        let mut rng = Rng::seed_from(2);
        let net = Network::mlp(
            &[3, 4, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let input = SpikeRaster::from_events(100, 3, &[(0, 0), (1, 1), (50, 2)]);
        let engine = crate::engine::Engine::from_network(net.clone()).build();
        let mut fwd = Forward::empty();
        engine.forward_into(&input, &mut fwd, &mut ScratchSpace::new());
        (net, fwd)
    }

    #[test]
    #[should_panic(expected = "BPTT needs a training forward from Network::forward_into")]
    fn backward_into_rejects_an_inference_forward() {
        let (net, fwd) = inference_forward();
        let mut grads = Gradients::zeros_like(&net);
        backward_into(
            &net,
            &fwd,
            &Matrix::zeros(100, 2),
            Surrogate::paper_default(),
            &mut grads,
            &mut ScratchSpace::new(),
        );
    }

    #[test]
    #[should_panic(expected = "BPTT needs a training forward from Network::forward_into")]
    fn backward_sparse_into_rejects_an_inference_forward() {
        let (net, fwd) = inference_forward();
        let mut grads = Gradients::zeros_like(&net);
        backward_sparse_into(
            &net,
            &fwd,
            &Matrix::zeros(100, 2),
            Surrogate::paper_default(),
            SparsityPolicy::default(),
            &mut grads,
            &mut ScratchSpace::new(),
        );
    }

    #[test]
    fn accumulate_and_scale() {
        let mut rng = Rng::seed_from(2);
        let net = Network::mlp(
            &[2, 3, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let mut a = Gradients::zeros_like(&net);
        let mut b = Gradients::zeros_like(&net);
        a.per_layer[0][(0, 0)] = 1.0;
        b.per_layer[0][(0, 0)] = 3.0;
        a.accumulate(&b);
        a.scale(0.5);
        assert_eq!(a.per_layer[0][(0, 0)], 2.0);
    }

    /// `σ'(x)` for every `x` through [`lanes::adjoint_step`]: an
    /// adaptive step with `ext = 1`, `dh = 0` and `v_th = 0` makes
    /// `dv = (1 + 0)·σ'(x − 0)`, which is `σ'(x)` exactly.
    fn laned_grad(surrogate: Surrogate, xs: &[f32]) -> Vec<u32> {
        let n = xs.len();
        let (ones, zeros) = (vec![1.0f32; n], vec![0.0f32; n]);
        let rows = lanes::AdjointRows {
            ext: &ones,
            v: xs,
            o: &zeros,
            e_next: &zeros,
        };
        let neuron = lanes::Adjoint::Adaptive {
            alpha: 0.0,
            beta: 0.0,
            theta: 0.0,
            v_th: 0.0,
        };
        let (mut dv, mut dh, mut e) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let pseudo = lane_surrogate(surrogate);
        lanes::adjoint_step(neuron, pseudo, rows, &mut dv, &mut dh, &mut e, None);
        dv.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn surrogate_grad_matches_the_laned_kernel_bitwise() {
        // `Surrogate::grad` (snn-neuron) is the scalar spec and
        // `lanes::adjoint_step` (snn-tensor) its laned copy, constants
        // and `exp` included. A dense sweep of x over [−20, 20], whose
        // Gaussian exponents cover exp's whole range and its underflow,
        // plus the special values, on both dispatch paths.
        let mut xs: Vec<f32> = (-400_000..=400_000).map(|i| i as f32 * 5e-5).collect();
        xs.extend([
            -0.0,
            f32::MIN_POSITIVE,
            1e-40,
            -1e-40,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
        ]);
        for surrogate in [
            Surrogate::paper_default(),
            Surrogate::Erfc { sigma: 0.3 },
            Surrogate::Erfc { sigma: 2.5 },
            Surrogate::Erfc { sigma: 1e-9 },
            Surrogate::Rect { width: 0.5 },
            Surrogate::Rect { width: 0.0 },
            Surrogate::FastSigmoid { slope: 3.0 },
            Surrogate::FastSigmoid { slope: -1.0 },
        ] {
            let want: Vec<u32> = xs.iter().map(|&x| surrogate.grad(x).to_bits()).collect();
            for force in [false, true] {
                snn_tensor::kernels::set_force_scalar(force);
                let got = laned_grad(surrogate, &xs);
                snn_tensor::kernels::set_force_scalar(false);
                let first = (0..xs.len()).find(|&i| got[i] != want[i]);
                assert!(
                    first.is_none(),
                    "{surrogate:?}, scalar {force}: first mismatch at x = {}",
                    xs[first.unwrap_or(0)]
                );
            }
        }
    }
}
