//! Dense spiking layer: synapse filter bank + weight matrix + neuron
//! nonlinearity, with full state caching for BPTT.

use crate::engine::Backend;
use crate::scratch::LayerScratch;
use crate::SpikeRaster;
use snn_neuron::NeuronParams;
use snn_tensor::kernels::{self, ColMajor};
use snn_tensor::lanes::{self, Carry, Drive, Neuron};
use snn_tensor::{Matrix, Rng};
use std::ops::{Deref, DerefMut};

/// Which neuron dynamics a layer uses.
///
/// * [`NeuronKind::Adaptive`] — the paper's filter-based model
///   (eqs. 6–12): per-input synapse filters `k[t]`, crossbar product
///   `g = W·k`, adaptive threshold via the reset trace `h[t]`.
/// * [`NeuronKind::HardReset`] — the conventional ODE LIF exactly as
///   defined by paper eq. 1: `τ·dv/dt = −v + Σwᵢxᵢ`, hard reset on
///   firing. Discretised exactly (zero-order hold), the input enters
///   with gain `1 − e^{−1/τ}` — the ODE's impulse response is
///   `(1/τ)e^{−t/τ}`, τ-fold weaker than the SRM kernel `e^{−t/τ}` the
///   adaptive model (and the trained weights) use. This is the model the
///   Table II "HR" rows swap in, and the gain mismatch is part of why
///   the swap is destructive.
/// * [`NeuronKind::HardResetMatched`] — a diagnostic variant with unit
///   input gain, isolating the effect of the reset itself from the gain
///   mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeuronKind {
    /// Filter-based adaptive-threshold LIF (the paper's model).
    Adaptive,
    /// Hard-reset ODE LIF exactly per eq. 1 (input gain `1 − e^{−1/τ}`).
    HardReset,
    /// Hard-reset LIF with input gain matched to the SRM kernel (1).
    HardResetMatched,
}

impl NeuronKind {
    /// The input gain this dynamics applies to the weighted spike drive.
    pub fn input_gain(&self, params: &NeuronParams) -> f32 {
        match self {
            NeuronKind::Adaptive | NeuronKind::HardResetMatched => 1.0,
            NeuronKind::HardReset => 1.0 - params.synapse_decay(),
        }
    }
}

/// Per-layer forward cache for one input sample.
///
/// A training rollout ([`Network::forward_into`](crate::Network::forward_into),
/// [`Network::forward_dense_reference`](crate::Network::forward_dense_reference))
/// fills all three matrices, `T × width` each (row per timestep); BPTT
/// reads `v` and `o`, with the input rasters the
/// [`Forward`](crate::Forward) keeps. An inference pass (every
/// [`Session`](crate::engine::Session) call and
/// [`Engine::forward_into`](crate::engine::Engine::forward_into)) fills
/// only `o`, and leaves `pre` and `v` empty (`0 × 0`).
#[derive(Debug, Clone)]
pub struct LayerRecord {
    /// Filtered presynaptic trace `k[t]` (adaptive) or raw input spikes
    /// (hard reset); `T × n_in`.
    pub pre: Matrix,
    /// Membrane potential `v[t] = g[t] − ϑ·h[t]` (adaptive) or the
    /// pre-reset potential (hard reset); `T × n_out`.
    pub v: Matrix,
    /// Output spikes `O[t]`; `T × n_out`.
    pub o: Matrix,
}

impl LayerRecord {
    /// An empty record, ready to be filled by a `forward_into` call.
    pub fn empty() -> Self {
        Self {
            pre: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
            o: Matrix::zeros(0, 0),
        }
    }

    /// Number of timesteps recorded.
    pub fn steps(&self) -> usize {
        self.o.rows()
    }

    /// Reshapes the cache for a `t_steps`-long rollout of an
    /// `n_in → n_out` layer, zero-filled, reusing the buffers.
    pub fn resize_zeroed(&mut self, t_steps: usize, n_in: usize, n_out: usize) {
        self.pre.resize_zeroed(t_steps, n_in);
        self.v.resize_zeroed(t_steps, n_out);
        self.o.resize_zeroed(t_steps, n_out);
    }

    /// Reshapes the cache for the rollout that fills it: all three
    /// matrices when `full`, else `o` alone (`pre` and `v` become
    /// `0 × 0`), reusing the buffers. Not zero-filled: the rollout writes
    /// every element of each matrix it keeps.
    pub(crate) fn resize_for_rollout(
        &mut self,
        t_steps: usize,
        n_in: usize,
        n_out: usize,
        full: bool,
    ) {
        let (t_full, n_in, n_v) = if full {
            (t_steps, n_in, n_out)
        } else {
            (0, 0, 0)
        };
        self.pre.resize_for_overwrite(t_full, n_in);
        self.v.resize_for_overwrite(t_full, n_v);
        self.o.resize_for_overwrite(t_steps, n_out);
    }
}

/// A dense spiking layer (`n_out × n_in` weights plus neuron dynamics).
///
/// # Examples
///
/// ```
/// use snn_core::{DenseLayer, NeuronKind};
/// use snn_neuron::NeuronParams;
/// use snn_tensor::Rng;
///
/// let mut rng = Rng::seed_from(1);
/// let mut layer = DenseLayer::new(3, 2, NeuronKind::Adaptive,
///                                 NeuronParams::paper_defaults(), &mut rng);
/// assert_eq!(layer.weights().shape(), (2, 3));
/// layer.weights_mut()[(0, 0)] = 0.5; // the guard's drop updates the column copy
/// assert_eq!(layer.weights()[(0, 0)], 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct DenseLayer {
    weights: Matrix,
    /// Column-major copy of `weights` for event-driven products with
    /// binary spike vectors (sum of active columns). Every write goes
    /// through [`WeightsMut`], which rebuilds it when dropped.
    cols: ColMajor,
    kind: NeuronKind,
    params: NeuronParams,
}

/// Write access to a layer's weights, from
/// [`DenseLayer::weights_mut`]. Dropping the guard rebuilds the layer's
/// column-major copy, so every forward reads the weights last written.
#[derive(Debug)]
pub struct WeightsMut<'a> {
    layer: &'a mut DenseLayer,
}

impl Deref for WeightsMut<'_> {
    type Target = Matrix;

    fn deref(&self) -> &Matrix {
        &self.layer.weights
    }
}

impl DerefMut for WeightsMut<'_> {
    fn deref_mut(&mut self) -> &mut Matrix {
        &mut self.layer.weights
    }
}

impl Drop for WeightsMut<'_> {
    fn drop(&mut self) {
        self.layer.cols.refresh_from(&self.layer.weights);
    }
}

impl DenseLayer {
    /// Creates a layer with Xavier-uniform weights.
    pub fn new(
        n_in: usize,
        n_out: usize,
        kind: NeuronKind,
        params: NeuronParams,
        rng: &mut Rng,
    ) -> Self {
        Self::from_weights(Matrix::xavier_uniform(n_out, n_in, rng), kind, params)
    }

    /// Creates a layer from an explicit weight matrix.
    pub fn from_weights(weights: Matrix, kind: NeuronKind, params: NeuronParams) -> Self {
        Self {
            cols: ColMajor::from_matrix(&weights),
            weights,
            kind,
            params,
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.weights.cols()
    }

    /// Output width (population size).
    pub fn n_out(&self) -> usize {
        self.weights.rows()
    }

    /// The weight matrix (`n_out × n_in`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Write access to the weights (used by optimizers and by the
    /// hardware deployment pipeline's quantization). The guard borrows
    /// the layer, so no forward runs while it lives; dropping it
    /// rebuilds the column-major copy the event-driven forward reads.
    pub fn weights_mut(&mut self) -> WeightsMut<'_> {
        WeightsMut { layer: self }
    }

    /// The neuron dynamics this layer uses.
    pub fn kind(&self) -> NeuronKind {
        self.kind
    }

    /// Swaps the neuron dynamics while keeping the trained weights —
    /// exactly the Table II "HR" experiment.
    pub fn set_kind(&mut self, kind: NeuronKind) {
        self.kind = kind;
    }

    /// Neuron hyper-parameters.
    pub fn params(&self) -> NeuronParams {
        self.params
    }

    /// Event-driven rollout over an input raster's per-step event lists
    /// — the hot path of training and inference.
    ///
    /// Because layer inputs are **binary** spike vectors, the weighted
    /// drive factors as `W·k[t] = α·(W·k[t−1]) + W·x[t]`, and `W·x[t]`
    /// is just the sum of the weight columns selected by `x[t]`'s active
    /// indices. Each timestep therefore costs
    /// `O(n_in + n_out + n_out·nnz(x[t]))` instead of the dense
    /// `O(n_out·n_in)`. The incremental recurrence is algebraically
    /// identical to the dense rollout
    /// ([`Network::forward_dense_reference`](crate::Network::forward_dense_reference));
    /// it reassociates floating-point sums, so potentials may differ from
    /// the dense reference by a few ULPs.
    ///
    /// `rec` and the buffers in `scratch` are resized and re-initialised
    /// here; `output` receives the output spikes (consumable as the next
    /// layer's `input`).
    pub fn forward_steps(
        &self,
        input: &SpikeRaster,
        rec: &mut LayerRecord,
        scratch: &mut LayerScratch,
        output: &mut SpikeRaster,
    ) {
        scratch.ensure(self.n_in(), self.n_out());
        rec.resize_for_rollout(input.steps(), self.n_in(), self.n_out(), true);
        self.run(Backend::Sparse, input, Some(rec), scratch, output);
    }

    /// Rolls the layer over `input` from the state carried in
    /// `scratch`: zeroed by `LayerScratch::ensure` for an independent
    /// sample, or left as the previous call left it for a stream, which
    /// is what makes a chunked rollout bitwise identical to a single
    /// one. `rec`, when given, receives every matrix the caller sized for
    /// the input's steps (`LayerRecord::resize_for_rollout`: all three,
    /// or `o` alone), each element written; `output` receives the output
    /// spikes.
    ///
    /// The only definition of each neuron kind's forward: the decay
    /// constants are computed once, then [`lanes::tile_rollout`] runs the
    /// whole sequence one 64-neuron tile at a time. The two [`Backend`]s
    /// differ only in how the drive `W·k[t]` is formed — summed from the
    /// active columns step by step inside the tile pass, or as a full
    /// matrix–vector product per step before it — so they agree up to
    /// the reassociation of that one sum.
    pub(crate) fn run(
        &self,
        backend: Backend,
        input: &SpikeRaster,
        rec: Option<&mut LayerRecord>,
        s: &mut LayerScratch,
        output: &mut SpikeRaster,
    ) {
        let (steps, n_out) = (input.steps(), self.n_out());
        let p = &self.params;
        // A record matrix is kept when the caller sized it for the input.
        let kept = |m: &&mut Matrix| m.rows() == steps;
        let (mut pre, v, o) = match rec {
            Some(LayerRecord { pre, v, o }) => (
                Some(pre).filter(kept),
                Some(v).filter(kept).map(Matrix::as_mut_slice),
                Some(o).filter(kept).map(Matrix::as_mut_slice),
            ),
            None => (None, None, None),
        };
        let alpha = p.synapse_decay();
        // Input trace k[t] = d·k[t−1] + x[t]: the synapse filter (eq. 9)
        // for the adaptive model, the raw spikes (d = 0) for hard reset.
        // For 0/1 spikes and a non-negative trace the unit charges are
        // bit-identical to a dense `d·k + 1.0·x`. The event-driven drive
        // needs the trace only for the `pre` record; the dense drive is
        // eq. 7 as a full matrix–vector product over it, one row per step.
        let decay = match self.kind {
            NeuronKind::Adaptive => alpha,
            NeuronKind::HardReset | NeuronKind::HardResetMatched => 0.0,
        };
        let dense = backend == Backend::Dense;
        if dense {
            // Every row is overwritten below.
            s.drive_rows.resize(steps * n_out, 0.0);
        }
        if pre.is_some() || dense {
            for t in 0..steps {
                kernels::decay_add_unit(decay, &mut s.trace_in, input.step(t));
                if let Some(pre) = pre.as_deref_mut() {
                    pre.row_mut(t).copy_from_slice(&s.trace_in);
                }
                if dense {
                    let row = &mut s.drive_rows[t * n_out..(t + 1) * n_out];
                    self.weights.matvec_into(&s.trace_in, row);
                }
            }
        }
        let drive = match backend {
            // W·k[t] = d·(W·k[t−1]) + Σ active columns (eq. 7, factored)
            Backend::Sparse => Drive::Events {
                alpha: decay,
                cols: self.cols.as_slice(),
                offsets: input.offsets(),
                ids: input.ids(),
            },
            Backend::Dense => Drive::Rows(&s.drive_rows),
        };
        let neuron = match self.kind {
            // eqs. 6, 8 and 10: reset trace, membrane, adaptive threshold
            NeuronKind::Adaptive => Neuron::Adaptive {
                beta: p.reset_decay(),
                theta: p.theta,
                v_th: p.v_th,
            },
            // eq. 1: decay + input gain + threshold + hard reset (`v`
            // records the pre-reset potential)
            NeuronKind::HardReset | NeuronKind::HardResetMatched => Neuron::HardReset {
                lambda: alpha,
                gain: self.kind.input_gain(p),
                v_th: p.v_th,
            },
        };
        s.fired.resize(n_out.div_ceil(lanes::TILE) * steps, 0);
        let carry = Carry {
            drive: &mut s.drive,
            trace: &mut s.trace_out,
        };
        lanes::tile_rollout(steps, neuron, drive, carry, v, o, &mut s.fired);
        output.refill_from_fire_bits(steps, n_out, &s.fired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_neuron::{AdaptiveThresholdNeuron, ExpFilter, HardResetNeuron};

    fn spikes(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    /// The dense drive over a 0/1 spike matrix, through a one-layer
    /// network.
    fn dense_rollout(layer: &DenseLayer, input: &Matrix) -> LayerRecord {
        let mut raster = crate::SpikeRaster::zeros(input.rows(), input.cols());
        for t in 0..input.rows() {
            for (c, &x) in input.row(t).iter().enumerate() {
                raster.set(t, c, x != 0.0);
            }
        }
        let net = crate::Network::from_layers(vec![layer.clone()]);
        net.forward_dense_reference(&raster).records.remove(0)
    }

    #[test]
    fn adaptive_layer_matches_neuron_crate_dynamics() {
        // The layer's fused rollout must agree with composing the
        // snn-neuron building blocks by hand.
        let params = NeuronParams::paper_defaults();
        let mut rng = Rng::seed_from(42);
        let layer = DenseLayer::new(3, 2, NeuronKind::Adaptive, params, &mut rng);

        let input = spikes(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 0.0],
            &[1.0, 1.0, 1.0],
            &[0.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0],
        ]);
        let rec = dense_rollout(&layer, &input);

        let mut filt = ExpFilter::new(3, params.synapse_decay());
        let mut neuron = AdaptiveThresholdNeuron::new(2, params);
        for t in 0..input.rows() {
            let k = filt.step(input.row(t)).to_vec();
            let g = layer.weights().matvec(&k);
            // The layer compares v >= Vth where v = g − θh; the neuron crate
            // compares g > Vth + θh. Equality-at-threshold differs only on a
            // measure-zero set; random weights keep us off it.
            let out = neuron.step(&g);
            for i in 0..2 {
                assert_eq!(
                    rec.o.row(t)[i] != 0.0,
                    out[i],
                    "mismatch at t={t}, neuron {i}"
                );
            }
            for (a, b) in rec.pre.row(t).iter().zip(&k) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn hard_reset_matched_layer_matches_neuron_crate() {
        // The snn-neuron HardResetNeuron integrates its input directly
        // (unit gain), so compare against the gain-matched variant.
        let params = NeuronParams::paper_defaults();
        let mut rng = Rng::seed_from(7);
        let layer = DenseLayer::new(4, 3, NeuronKind::HardResetMatched, params, &mut rng);
        let input = spikes(&[
            &[1.0, 1.0, 0.0, 0.0],
            &[0.0, 1.0, 1.0, 1.0],
            &[1.0, 0.0, 0.0, 1.0],
            &[1.0, 1.0, 1.0, 1.0],
        ]);
        let rec = dense_rollout(&layer, &input);
        let mut neuron = HardResetNeuron::new(3, params);
        for t in 0..input.rows() {
            let current = layer.weights().matvec(input.row(t));
            let out = neuron.step(&current);
            for i in 0..3 {
                assert_eq!(rec.o.row(t)[i] != 0.0, out[i], "t={t} i={i}");
            }
        }
    }

    #[test]
    fn adaptive_threshold_suppresses_repeat_firing() {
        // One strong input spike; the filtered PSP stays high for several
        // steps but the neuron must not fire continuously.
        let params = NeuronParams::paper_defaults();
        let w = Matrix::from_rows(&[&[3.0]]);
        let layer = DenseLayer::from_weights(w, NeuronKind::Adaptive, params);
        let mut rows: Vec<Vec<f32>> = vec![vec![0.0]; 12];
        rows[0][0] = 1.0;
        let input = Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>());
        let rec = dense_rollout(&layer, &input);
        let total: f32 = (0..12).map(|t| rec.o.row(t)[0]).sum();
        assert!(total >= 1.0, "must fire at least once");
        assert!(
            total <= 3.0,
            "adaptive threshold should suppress, fired {total}"
        );
    }

    #[test]
    fn swap_kind_keeps_weights() {
        let mut rng = Rng::seed_from(3);
        let mut layer = DenseLayer::new(
            5,
            4,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let w_before = layer.weights().clone();
        layer.set_kind(NeuronKind::HardReset);
        assert_eq!(layer.kind(), NeuronKind::HardReset);
        assert_eq!(layer.weights(), &w_before);
    }

    #[test]
    fn record_shapes() {
        let mut rng = Rng::seed_from(3);
        let layer = DenseLayer::new(
            5,
            4,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let input = Matrix::zeros(7, 5);
        let rec = dense_rollout(&layer, &input);
        assert_eq!(rec.pre.shape(), (7, 5));
        assert_eq!(rec.v.shape(), (7, 4));
        assert_eq!(rec.o.shape(), (7, 4));
        assert_eq!(rec.steps(), 7);
    }

    #[test]
    fn ode_hard_reset_input_gain_is_one_minus_decay() {
        // Eq. 1 exactly: the ODE's impulse response is τ-fold weaker
        // than the SRM kernel, so a single spike deposits (1−λ)·w.
        let params = NeuronParams::paper_defaults();
        let w = Matrix::from_rows(&[&[0.5]]);
        let layer = DenseLayer::from_weights(w, NeuronKind::HardReset, params);
        let input = Matrix::from_rows(&[&[1.0], &[0.0]]);
        let rec = dense_rollout(&layer, &input);
        let expected = (1.0 - params.synapse_decay()) * 0.5;
        assert!((rec.v.row(0)[0] - expected).abs() < 1e-6);
        // Matched variant deposits the full weight.
        let w = Matrix::from_rows(&[&[0.5]]);
        let layer = DenseLayer::from_weights(w, NeuronKind::HardResetMatched, params);
        let rec = dense_rollout(&layer, &input);
        assert!((rec.v.row(0)[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn silent_input_produces_silent_output() {
        let mut rng = Rng::seed_from(5);
        for kind in [
            NeuronKind::Adaptive,
            NeuronKind::HardReset,
            NeuronKind::HardResetMatched,
        ] {
            let layer = DenseLayer::new(3, 3, kind, NeuronParams::paper_defaults(), &mut rng);
            let rec = dense_rollout(&layer, &Matrix::zeros(10, 3));
            assert_eq!(rec.o.as_slice().iter().filter(|&&x| x != 0.0).count(), 0);
        }
    }

    /// The event-driven forward over `raster`, checked against the
    /// dense rollout over the row-major weights: potentials to
    /// tolerance, spikes exactly. Returns the output spikes.
    fn sparse_matching_dense(layer: &DenseLayer, raster: &SpikeRaster) -> Matrix {
        let mut rec = LayerRecord::empty();
        let mut output = SpikeRaster::default();
        layer.forward_steps(raster, &mut rec, &mut LayerScratch::default(), &mut output);
        let net = crate::Network::from_layers(vec![layer.clone()]);
        let dense = net.forward_dense_reference(raster).records.remove(0);
        for (a, b) in rec.v.as_slice().iter().zip(dense.v.as_slice()) {
            assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "v {a} vs {b}");
        }
        assert_eq!(rec.o, dense.o);
        rec.o
    }

    #[test]
    fn forward_reads_weights_written_through_the_guard() {
        let mut rng = Rng::seed_from(13);
        let mut layer = DenseLayer::new(
            4,
            3,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let raster = SpikeRaster::from_events(6, 4, &[(0, 0), (1, 2), (3, 3), (4, 1)]);
        let before = sparse_matching_dense(&layer, &raster);
        // Scaled weights change the spike train, so a forward over the
        // old column-major copy would fail the check.
        layer.weights_mut().scale(5.0);
        assert_ne!(sparse_matching_dense(&layer, &raster), before);
    }

    #[test]
    fn clone_carries_weights_and_fresh_cache() {
        let mut rng = Rng::seed_from(14);
        let mut layer = DenseLayer::new(
            3,
            2,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let raster = SpikeRaster::from_events(5, 3, &[(0, 0), (1, 0), (2, 1), (3, 0)]);
        let before = sparse_matching_dense(&layer.clone(), &raster);
        layer.weights_mut()[(0, 0)] = 2.5;
        let clone = layer.clone();
        assert_eq!(clone.weights(), layer.weights());
        assert_ne!(sparse_matching_dense(&clone, &raster), before);
    }

    /// Steps `from..to` of `raster` as a raster of their own.
    fn steps_of(raster: &SpikeRaster, from: usize, to: usize) -> SpikeRaster {
        let events: Vec<_> = (from..to)
            .flat_map(|t| raster.step(t).iter().map(move |&c| (t - from, c)))
            .collect();
        SpikeRaster::from_events(to - from, raster.channels(), &events)
    }

    /// Rolls `layer` over `input` in `chunk`-step pieces through one
    /// carried scratch, and stitches the records (all three or `o`
    /// alone) and the output spikes back together.
    fn chunked(
        layer: &DenseLayer,
        backend: Backend,
        input: &SpikeRaster,
        chunk: usize,
        full: bool,
    ) -> (LayerRecord, SpikeRaster) {
        let (steps, n_in, n_out) = (input.steps(), layer.n_in(), layer.n_out());
        let mut scratch = LayerScratch::default();
        scratch.ensure(n_in, n_out);
        let (mut rec, mut out) = (LayerRecord::empty(), SpikeRaster::default());
        let mut whole = LayerRecord::empty();
        whole.resize_for_rollout(steps, n_in, n_out, full);
        let mut events = Vec::new();
        for from in (0..steps).step_by(chunk) {
            let to = steps.min(from + chunk);
            rec.resize_for_rollout(to - from, n_in, n_out, full);
            let piece = steps_of(input, from, to);
            layer.run(backend, &piece, Some(&mut rec), &mut scratch, &mut out);
            for (part, all) in [
                (&rec.pre, &mut whole.pre),
                (&rec.v, &mut whole.v),
                (&rec.o, &mut whole.o),
            ] {
                for t in 0..part.rows() {
                    all.row_mut(from + t).copy_from_slice(part.row(t));
                }
            }
            events.extend(out.events().into_iter().map(|(t, c)| (from + t, c)));
        }
        (whole, SpikeRaster::from_events(steps, n_out, &events))
    }

    #[test]
    fn chunked_rollout_through_one_scratch_matches_single_shot() {
        // 130 neurons: two full tiles and a tail with a lane remainder.
        // Chunks of 1, 3 and 17 steps (the last one ragged) carry the
        // drive and trace through one scratch between calls.
        let mut rng = Rng::seed_from(16);
        let params = NeuronParams::paper_defaults().with_v_th(0.3);
        let events: Vec<_> = (0..60)
            .flat_map(|t| (0..37).map(move |c| (t, c)))
            .filter(|_| rng.coin(0.15))
            .collect();
        let input = SpikeRaster::from_events(60, 37, &events);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut spikes = 0;
        for kind in [
            NeuronKind::Adaptive,
            NeuronKind::HardReset,
            NeuronKind::HardResetMatched,
        ] {
            let layer = DenseLayer::new(37, 130, kind, params, &mut rng);
            for backend in [Backend::Sparse, Backend::Dense] {
                for full in [true, false] {
                    let (want, want_out) = chunked(&layer, backend, &input, 60, full);
                    spikes += want_out.spike_count();
                    for chunk in [1, 3, 17] {
                        let (got, got_out) = chunked(&layer, backend, &input, chunk, full);
                        let ctx = format!("{kind:?} {backend:?} full {full} chunk {chunk}");
                        assert_eq!(bits(&got.pre), bits(&want.pre), "pre, {ctx}");
                        assert_eq!(bits(&got.v), bits(&want.v), "v, {ctx}");
                        assert_eq!(bits(&got.o), bits(&want.o), "o, {ctx}");
                        assert_eq!(got_out, want_out, "spikes, {ctx}");
                    }
                }
            }
        }
        assert!(spikes > 0, "the layers must fire to carry a reset trace");
    }

    #[test]
    #[should_panic(expected = "network expects")]
    fn wrong_input_width_panics() {
        let mut rng = Rng::seed_from(5);
        let layer = DenseLayer::new(
            3,
            3,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        dense_rollout(&layer, &Matrix::zeros(4, 2));
    }
}
