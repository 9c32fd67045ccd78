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
//! convention: `dv[t] = dOᵉˣᵗ[t]·ε[t] + λ(1−O[t])·dv[t+1]`.
//!
//! The input layer's `dx` would feed no parameter, so neither entry
//! point forms it; at the widest layer it is the costliest product of
//! the pass.
//!
//! Two entry points run these recursions: [`backward_into`], the plain
//! per-step reference (one rank-1 `dW` update and one `Wᵀ·dv` pass at
//! every step), and [`backward_sparse_into`], which prunes `dv` into
//! error events and forms both weight products once per sequence over
//! them — three phases per layer, described on the function.

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
    /// surviving entries through the sparse weight products.
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
/// This is the plain per-step dense pass: at every timestep one rank-1
/// update over `dW` and one `Wᵀ·dv` projection over `W`. It is the
/// reference the event-driven [`backward_sparse_into`] is pinned to
/// (bit for bit under [`SparsityPolicy::Exact`]) and the dense baseline
/// the kernel bench measures against.
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
/// or if `grads` does not match the network's layer shapes.
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
/// weight products. Each layer runs in three phases:
///
/// 1. the `dv` recursion, which involves no weights, over all `T` steps,
///    recording each step's surviving events (index and value);
/// 2. `dW += DVᵀ·K` and `P = DV·W` once per sequence, as sparse-times-
///    dense products over those events
///    ([`lanes::sparse_matmul_add`]): pruned entries cost nothing, and
///    every element keeps the per-step order of its sum (`t` descending
///    for `dW`, rows ascending for `P`), so the bits do not change.
///    Hard-reset layers keep their per-step `dW` update over (error row
///    × spike column) index pairs, as their presynaptic trace is binary;
/// 3. the `dk` carry (adaptive) or input-gain scale (hard reset) over
///    `P`, giving the adjoint handed to the layer below — skipped at
///    the input layer, like every write of its adjoint.
///
/// With [`SparsityPolicy::Exact`] the gradients are bit-identical to
/// [`backward_into`] (the dense kernels skip exact zeros); the
/// thresholded policies trade a bounded gradient perturbation for
/// skipping most of the backward work. Like `backward_into`, this
/// **accumulates** into `grads` and performs no per-sample heap
/// allocation once `scratch` is warm. The surviving event lists remain
/// readable afterwards via
/// [`ScratchSpace::backward_events`](crate::ScratchSpace::backward_events).
///
/// # Panics
///
/// Panics if `d_output`'s shape does not match the output layer record,
/// or if `grads` does not match the network's layer shapes.
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
/// no pruning, both weight products at every step) and
/// [`backward_sparse_into`] (pruning, then the products once per
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
        dv_next,
        dh_next,
        dk_next,
        wt_dv,
        active_tmp,
        grad_events,
        dvt_offsets,
        dvt_steps,
        dvt_values,
        pack,
        ..
    } = scratch;
    // The dense pass records no error events; clearing here means
    // [`ScratchSpace::backward_events`] never reports a *previous*
    // sample's sparse pass as this one's diagnostic.
    grad_events.clear();

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
        let v_th = params.v_th;
        let weights = layer.weights();
        let dw = &mut grads.per_layer[l];
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
        let dv = &mut dv[..n_out];
        let wt_dv = &mut wt_dv[..n_in];

        match layer.kind() {
            NeuronKind::Adaptive => {
                let alpha = params.synapse_decay();
                let beta = params.reset_decay();
                let theta = params.theta;
                let dh_next = &mut dh_next[..n_out];
                let dk_next = &mut dk_next[..n_in];
                dh_next.fill(0.0);
                dk_next.fill(0.0);

                for t in (0..t_steps).rev() {
                    let vrow = rec.v.row(t);
                    let ext = d_o.row(t);
                    for i in 0..n_out {
                        let d_o_total = ext[i] + dh_next[i];
                        dv[i] = d_o_total * surrogate.grad(vrow[i] - v_th);
                    }
                    if let Some(eps) = eps {
                        grad_events.push_step_pruned(dv, eps);
                    }
                    // dh[t] = −ϑ·dv[t] + β·dh[t+1], laned. A pruned entry
                    // adds −ϑ·0 = −0.0, which leaves its carry bitwise
                    // unchanged.
                    kernels::decay_axpy(-theta, dv, beta, dh_next);
                    if eps.is_none() {
                        dw.add_outer(1.0, dv, rec.pre.row(t));
                        if input_adjoint {
                            weights.matvec_t_into(dv, wt_dv);
                            // dk[t] = Wᵀ·dv + α·dk[t+1], written through
                            // to the downstream adjoint row
                            kernels::carry_decay_out(alpha, wt_dv, dk_next, d_pre.row_mut(t));
                        }
                    }
                }
                if eps.is_some() {
                    let dvt = events_by_neuron(
                        &grad_events.rows(steps.clone()),
                        n_out,
                        dvt_offsets,
                        dvt_steps,
                        dvt_values,
                    );
                    lanes::sparse_matmul_add(
                        dw.as_mut_slice(),
                        n_in,
                        &dvt,
                        rec.pre.as_slice(),
                        pack,
                    );
                    if input_adjoint {
                        // The upstream adjoint is dead after phase 1: its
                        // buffer takes `P`.
                        let p = events_times_weights(d_o, &grad_events.rows(steps), weights, pack);
                        for (k, t) in (0..t_steps).rev().enumerate() {
                            kernels::carry_decay_out(alpha, p.row(k), dk_next, d_pre.row_mut(t));
                        }
                    }
                }
            }
            NeuronKind::HardReset | NeuronKind::HardResetMatched => {
                let lambda = params.synapse_decay();
                let gain = layer.kind().input_gain(&params);
                let dv_next = &mut dv_next[..n_out];
                dv_next.fill(0.0);

                for t in (0..t_steps).rev() {
                    let vrow = rec.v.row(t);
                    let orow = rec.o.row(t);
                    let ext = d_o.row(t);
                    for i in 0..n_out {
                        dv[i] = ext[i] * surrogate.grad(vrow[i] - v_th)
                            + lambda * (1.0 - orow[i]) * dv_next[i];
                    }
                    // The presynaptic trace of a hard-reset layer is the
                    // raw binary spike raster: use the index-list rank-1
                    // update. The list is rebuilt from the record (an
                    // O(n_in) scan, minor next to the O(nnz·n_out)
                    // update) rather than read from the scratch's spike
                    // rasters, so a `Forward` from any source — including
                    // the dense reference path — differentiates correctly.
                    kernels::threshold_mask(rec.pre.row(t), 0.0, active_tmp);
                    match eps {
                        Some(eps) => {
                            let events = grad_events.push_step_pruned(dv, eps);
                            dw.add_outer_indexed_pairs(gain, dv, events, active_tmp);
                        }
                        None => {
                            dw.add_outer_indexed(gain, dv, active_tmp);
                            if input_adjoint {
                                weights.matvec_t_into(dv, wt_dv);
                                // dx[t] = gain·(Wᵀ·dv), laned
                                kernels::scale_copy(gain, wt_dv, d_pre.row_mut(t));
                            }
                        }
                    }
                    // Only surviving events propagate through the
                    // reset-gated carry (dv was pruned in place).
                    dv_next.copy_from_slice(dv);
                }
                if eps.is_some() && input_adjoint {
                    let p = events_times_weights(d_o, &grad_events.rows(steps), weights, pack);
                    for (k, t) in (0..t_steps).rev().enumerate() {
                        kernels::scale_copy(gain, p.row(k), d_pre.row_mut(t));
                    }
                }
            }
        }
        std::mem::swap(d_o, d_pre);
    }
}

/// Regroups a layer's error events by neuron. `steps` holds them one row
/// per step in push order (row `k` is timestep `T−1−k`); the result's
/// row `r` lists the timesteps at which neuron `r` carried an event,
/// descending, with its adjoint values — `DVᵀ` as a sparse matrix over
/// the rows of the presynaptic trace `K`. A counting sort, `O(nnz +
/// n_out)`. The term buffers grow to the largest layer's candidate
/// count, so their capacity depends only on the network's shape.
fn events_by_neuron<'a>(
    steps: &SparseRows,
    n_out: usize,
    offsets: &'a mut Vec<usize>,
    times: &'a mut Vec<usize>,
    values: &'a mut Vec<f32>,
) -> SparseRows<'a> {
    let t_steps = steps.rows();
    offsets.clear();
    offsets.resize(n_out + 1, 0);
    for k in 0..t_steps {
        for &r in steps.row(k).0 {
            offsets[r + 1] += 1;
        }
    }
    for r in 0..n_out {
        offsets[r + 1] += offsets[r];
    }
    // Grow only: layers of different widths alternate every pass.
    let candidates = t_steps * n_out;
    if times.len() < candidates {
        times.resize(candidates, 0);
        values.resize(candidates, 0.0);
    }
    // `offsets[r]` serves as row r's write cursor, ending at the start
    // of row r + 1; the shift afterwards restores the starts.
    for k in 0..t_steps {
        let (rows, dv) = steps.row(k);
        for (&r, &v) in rows.iter().zip(dv) {
            times[offsets[r]] = t_steps - 1 - k;
            values[offsets[r]] = v;
            offsets[r] += 1;
        }
    }
    offsets.copy_within(0..n_out, 1);
    offsets[0] = 0;
    SparseRows {
        offsets,
        idx: times,
        coef: values,
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
        Forward { records }
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
}
