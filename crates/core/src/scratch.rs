//! Reusable scratch buffers for allocation-free training steps.
//!
//! # Ownership rules
//!
//! A [`ScratchSpace`] is **owned by exactly one worker** (one thread of
//! the trainer, or one caller of the `*_into` APIs) and is handed
//! **mutably** into [`Network::forward_into`](crate::Network::forward_into)
//! and [`backward_into`](crate::train::backward_into). It is never shared:
//! the parallel trainer creates one per worker thread, which is what makes
//! the fan-out safe without locks. The buffers inside carry no semantic
//! state between calls — every entry point re-sizes and re-initialises
//! what it uses — so a scratch can be freely reused across samples,
//! batches, epochs, and even across *different* networks (buffers grow to
//! the largest network seen and then stop allocating).
//!
//! The capacity-retaining pattern is the point: after the first sample,
//! a forward + backward training step performs **zero per-timestep and
//! zero per-sample heap allocations** (the losses still build their small
//! `d_output` gradient into a scratch matrix the caller provides).

use crate::{Network, SpikeRaster};
use snn_tensor::lanes::ChannelEvents;
use snn_tensor::{GradRaster, Matrix};

/// Per-layer forward-state buffers (synapse trace, reset trace / membrane
/// potential, drive) and the staging of one rollout.
#[derive(Debug, Clone, Default)]
pub struct LayerScratch {
    /// Input-side trace `k[t]`: the synapse filter (adaptive) or the raw
    /// input spikes (hard reset) — length `n_in`. Maintained only when
    /// the dense drive or the `pre` record reads it.
    pub trace_in: Vec<f32>,
    /// Output-side state: the reset trace `h` the next step reads
    /// (adaptive: eq. 8's decay and last step's spikes already applied)
    /// or the membrane potential (hard reset) — length `n_out`.
    pub trace_out: Vec<f32>,
    /// Drive `g[t] = W·k[t]` of the last step (adaptive, maintained
    /// incrementally) or its current `W·x[t]` — length `n_out`.
    pub drive: Vec<f32>,
    /// The latest rollout's fire bits, tile-major (`steps` entries per
    /// tile), from which its output raster is assembled.
    pub(crate) fired: Vec<u64>,
    /// The dense backend's per-step drive rows `W·k[t]`, `steps × n_out`.
    pub(crate) drive_rows: Vec<f32>,
}

impl LayerScratch {
    /// Sizes and zero-fills the carried state (the single home of the
    /// buffer-initialization invariant — called by
    /// `ScratchSpace::ensure_forward` and by the `DenseLayer` rollouts).
    pub(crate) fn ensure(&mut self, n_in: usize, n_out: usize) {
        self.trace_in.clear();
        self.trace_in.resize(n_in, 0.0);
        self.trace_out.clear();
        self.trace_out.resize(n_out, 0.0);
        self.drive.clear();
        self.drive.resize(n_out, 0.0);
    }
}

/// All reusable buffers one worker needs for forward + BPTT.
///
/// # Ownership rules
///
/// A scratch is **owned by exactly one worker** (one trainer thread, one
/// engine session, or one caller of the `*_into` APIs) and is never
/// shared. Its buffers carry no semantic state between calls — every
/// entry point re-sizes and re-initialises what it uses — so one scratch
/// can be reused across samples, batches, epochs, and even different
/// networks; buffers grow to the largest network seen and then stop
/// allocating.
#[derive(Debug, Clone, Default)]
pub struct ScratchSpace {
    /// `spikes[l]` is layer `l`'s output spike raster, written by the
    /// forward pass.
    pub(crate) spikes: Vec<SpikeRaster>,
    /// Per-layer forward state.
    pub(crate) layers: Vec<LayerScratch>,
    /// Upstream adjoint `∂E/∂O_l[t]` for the layer currently being
    /// differentiated (`T × n_out`).
    pub(crate) d_o: Matrix,
    /// Downstream adjoint being produced (`T × n_in`); swapped with
    /// `d_o` after each layer.
    pub(crate) d_pre: Matrix,
    /// `dv[t]` adjoint of the membrane potential, which the hard reset
    /// also carries to step `t − 1` — length ≥ widest layer.
    pub(crate) dv: Vec<f32>,
    /// Reset-trace adjoint carry `dh` (adaptive) — length ≥ widest
    /// layer.
    pub(crate) dh: Vec<f32>,
    /// Synapse-trace adjoint carry `dk[t + 1]` — length ≥ widest layer.
    pub(crate) dk_next: Vec<f32>,
    /// `Wᵀ·dv` staging buffer of the per-step dense pass — length ≥
    /// widest layer.
    pub(crate) wt_dv: Vec<f32>,
    /// Per-timestep surviving error-event lists recorded by
    /// [`backward_sparse_into`](crate::train::backward_sparse_into)
    /// (cleared at the start of each backward pass; steps are recorded
    /// in reverse-time order, all layers concatenated).
    pub(crate) grad_events: GradRaster,
    /// The current layer's event-form adjoint rows `e[t]`, whose sum
    /// over the layer's input events is its weight gradient, and a zero
    /// row `e[T]` (`(T + 1) × n_out`).
    pub(crate) e: Matrix,
    /// The current layer's input events regrouped by channel.
    pub(crate) input_events: ChannelEvents,
    /// Packed-tile buffer of the sparse input-adjoint product.
    pub(crate) pack: Vec<f32>,
    /// Scratch `d_output` the trainer hands to the losses.
    pub(crate) d_loss: Matrix,
}

impl ScratchSpace {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the forward buffers for `net` and zeroes every layer's
    /// state (idempotent, allocation-free once the sizes have been seen).
    pub(crate) fn ensure_forward(&mut self, net: &Network) {
        let n_layers = net.layers().len();
        self.spikes.resize_with(n_layers, SpikeRaster::default);
        self.layers.resize_with(n_layers, LayerScratch::default);
        for (layer, ls) in net.layers().iter().zip(&mut self.layers) {
            ls.ensure(layer.n_in(), layer.n_out());
        }
    }

    /// Sizes and zeroes the per-step adjoint buffers of the backward
    /// pass for `net`.
    pub(crate) fn ensure_backward(&mut self, net: &Network) {
        let max_w = net
            .layers()
            .iter()
            .map(|layer| layer.n_in().max(layer.n_out()))
            .max()
            .unwrap_or(0);
        for buf in [
            &mut self.dv,
            &mut self.dh,
            &mut self.dk_next,
            &mut self.wt_dv,
        ] {
            buf.clear();
            buf.resize(max_w, 0.0);
        }
    }

    /// The surviving error-event lists recorded by the most recent
    /// [`backward_sparse_into`](crate::train::backward_sparse_into)
    /// call: its [`GradRaster::density`] is the "how sparse was the
    /// backward pass?" diagnostic the kernel bench reports. Empty until
    /// a sparse backward pass has run with this scratch.
    pub fn backward_events(&self) -> &GradRaster {
        &self.grad_events
    }
}
