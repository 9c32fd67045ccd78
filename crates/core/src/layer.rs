//! Dense spiking layer: synapse filter bank + weight matrix + neuron
//! nonlinearity, with full state caching for BPTT.

use crate::engine::Backend;
use crate::scratch::LayerScratch;
use crate::SpikeRaster;
use snn_neuron::NeuronParams;
use snn_tensor::kernels::{self, ColMajor};
use snn_tensor::{Matrix, Rng};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

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

/// A [`Backend`] resolved for one rollout.
enum Drive<'a> {
    Sparse(RwLockReadGuard<'a, Mirror>),
    Dense,
}

/// One timestep's `pre`, `v` and `o` record rows, each `None` when the
/// record does not keep that matrix.
type Rows<'a> = (
    Option<&'a mut [f32]>,
    Option<&'a mut [f32]>,
    Option<&'a mut [f32]>,
);

/// Per-layer forward cache for one input sample.
///
/// A training rollout ([`Network::forward_into`](crate::Network::forward_into),
/// [`Network::forward_dense_reference`](crate::Network::forward_dense_reference))
/// fills all three matrices, `T × width` each (row per timestep):
/// everything BPTT needs. An inference pass (every
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

    /// Reshapes the cache for an inference rollout: `o` becomes
    /// `t_steps × n_out`, zero-filled; `pre` and `v` become `0 × 0`.
    pub(crate) fn resize_output(&mut self, t_steps: usize, n_out: usize) {
        self.pre.resize_zeroed(0, 0);
        self.v.resize_zeroed(0, 0);
        self.o.resize_zeroed(t_steps, n_out);
    }

    /// Step `t`'s row of each matrix that holds one.
    fn rows_mut(&mut self, t: usize) -> Rows<'_> {
        fn row(m: &mut Matrix, t: usize) -> Option<&mut [f32]> {
            (t < m.rows()).then(|| m.row_mut(t))
        }
        (
            row(&mut self.pre, t),
            row(&mut self.v, t),
            row(&mut self.o, t),
        )
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
/// let layer = DenseLayer::new(3, 2, NeuronKind::Adaptive,
///                             NeuronParams::paper_defaults(), &mut rng);
/// assert_eq!(layer.weights().shape(), (2, 3));
/// ```
#[derive(Debug)]
pub struct DenseLayer {
    weights: Matrix,
    /// Epoch counter bumped by every [`weights_mut`](Self::weights_mut)
    /// call. The kernel mirror records which epoch it was built from, so
    /// staleness is a cheap integer comparison — no caller ever has to
    /// remember a manual `sync_caches()` call.
    weights_epoch: u64,
    /// Column-major mirror of `weights` for event-driven products with
    /// binary spike vectors (sum of active columns), tagged with the
    /// weight epoch it was built from. Rebuilt **lazily** under a write
    /// lock by the next forward pass that finds it stale; shared-read
    /// afterwards, so concurrent evaluation threads never block each
    /// other on the hot path.
    mirror: RwLock<Mirror>,
    kind: NeuronKind,
    params: NeuronParams,
}

/// The lazily-maintained kernel cache: a column-major weight mirror plus
/// the weight epoch it reflects.
#[derive(Debug)]
struct Mirror {
    epoch: u64,
    cols: ColMajor,
}

impl Clone for DenseLayer {
    fn clone(&self) -> Self {
        // The clone rebuilds a fresh mirror from the current weights and
        // restarts at epoch 0 (RwLock is not Clone, and copying a
        // possibly-stale mirror would buy nothing).
        Self::from_weights(self.weights.clone(), self.kind, self.params)
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
        let cols = ColMajor::from_matrix(&weights);
        Self {
            weights,
            weights_epoch: 0,
            mirror: RwLock::new(Mirror { epoch: 0, cols }),
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

    /// Mutable access to the weights (used by optimizers and by the
    /// hardware deployment pipeline's quantization).
    ///
    /// Bumps the weight epoch, invalidating the column-major kernel
    /// cache. No follow-up call is required: the next forward pass
    /// notices the stale epoch and rebuilds the mirror lazily, so direct
    /// weight mutation can never silently degrade the event-driven fast
    /// path.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        self.weights_epoch = self.weights_epoch.wrapping_add(1);
        &mut self.weights
    }

    /// Eagerly rebuilds the column-major mirror if it is stale.
    ///
    /// Never required for correctness or speed — the forward pass
    /// rebuilds lazily — but useful to move the (one-off) rebuild cost
    /// out of a timed or latency-sensitive region.
    pub fn refresh_cache(&self) {
        drop(self.fresh_mirror());
    }

    /// Whether the event-driven kernel cache currently matches the
    /// weights (diagnostic only; a stale cache is rebuilt on next use).
    pub fn cache_is_fresh(&self) -> bool {
        self.read_mirror().epoch == self.weights_epoch
    }

    fn read_mirror(&self) -> RwLockReadGuard<'_, Mirror> {
        self.mirror.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns a read guard over an up-to-date mirror, rebuilding it
    /// first (under the write lock) if a weight mutation outdated it.
    ///
    /// `weights_epoch` only changes through `&mut self`, so while any
    /// `&self` borrow exists the target epoch is pinned and the
    /// double-checked locking below cannot race with a mutation.
    fn fresh_mirror(&self) -> RwLockReadGuard<'_, Mirror> {
        let epoch = self.weights_epoch;
        {
            let guard = self.read_mirror();
            if guard.epoch == epoch {
                return guard;
            }
        }
        {
            let mut guard = self.mirror.write().unwrap_or_else(PoisonError::into_inner);
            if guard.epoch != epoch {
                guard.cols.refresh_from(&self.weights);
                guard.epoch = epoch;
            }
        }
        self.read_mirror()
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
    /// layer's `input`). If a weight mutation left the
    /// kernel cache stale (see [`weights_mut`](Self::weights_mut)) it is
    /// rebuilt here, once, before the rollout starts.
    pub fn forward_steps(
        &self,
        input: &SpikeRaster,
        rec: &mut LayerRecord,
        scratch: &mut LayerScratch,
        output: &mut SpikeRaster,
    ) {
        scratch.ensure(self.n_in(), self.n_out());
        rec.resize_zeroed(input.steps(), self.n_in(), self.n_out());
        self.run(Backend::Sparse, input, Some(rec), scratch, output);
    }

    /// Rolls the layer over `input` from the state carried in
    /// `scratch`: zeroed by `LayerScratch::ensure` for an independent
    /// sample, or left as the previous call left it for a stream, which
    /// is what makes a chunked rollout bitwise identical to a single
    /// one. `rec`, when given, receives each step's row of every matrix
    /// the caller sized for the input's steps
    /// ([`LayerRecord::resize_zeroed`] for all three,
    /// `LayerRecord::resize_output` for `o` alone); `output` receives the
    /// output spikes.
    pub(crate) fn run(
        &self,
        backend: Backend,
        input: &SpikeRaster,
        mut rec: Option<&mut LayerRecord>,
        scratch: &mut LayerScratch,
        output: &mut SpikeRaster,
    ) {
        output.restart(self.n_out());
        let drive = self.drive(backend);
        for t in 0..input.steps() {
            let rows = match rec.as_deref_mut() {
                Some(rec) => rec.rows_mut(t),
                None => (None, None, None),
            };
            self.step(&drive, input.step(t), scratch, rows);
            output.push_step(&scratch.fired);
        }
    }

    /// Resolves `backend` for one rollout: the event-driven drive holds
    /// the column mirror's read guard for the whole rollout, not per
    /// step.
    fn drive(&self, backend: Backend) -> Drive<'_> {
        match backend {
            Backend::Sparse => Drive::Sparse(self.fresh_mirror()),
            Backend::Dense => Drive::Dense,
        }
    }

    /// One timestep of the layer's dynamics over the state carried in
    /// `s` — the only definition of each neuron kind's forward step.
    ///
    /// `active` lists this step's input spikes (ascending, no
    /// duplicates). On return `s.fired` holds this step's output spikes
    /// and `s.prev_fired` the previous step's. `pre`, `v` and `o`
    /// receive this step's record rows, each only when given. The two
    /// [`Drive`]s differ only in how `W·k[t]` is formed, so they agree
    /// up to the reassociation of that one sum.
    fn step(&self, drive: &Drive<'_>, active: &[usize], s: &mut LayerScratch, (pre, v, o): Rows) {
        let p = &self.params;
        // Input trace k[t] = d·k[t−1] + x[t]: the synapse filter (eq. 9)
        // for the adaptive model, the raw spikes (d = 0) for hard reset.
        // For 0/1 spikes and a non-negative trace the unit charges are
        // bit-identical to a dense `d·k + 1.0·x`. The event-driven drive
        // needs the trace only for the `pre` record.
        let decay = match self.kind {
            NeuronKind::Adaptive => p.synapse_decay(),
            NeuronKind::HardReset | NeuronKind::HardResetMatched => 0.0,
        };
        if pre.is_some() || matches!(drive, Drive::Dense) {
            kernels::decay_add_unit(decay, &mut s.trace_in, active);
            if let Some(pre) = pre {
                pre.copy_from_slice(&s.trace_in);
            }
        }
        match drive {
            // W·k[t] = d·(W·k[t−1]) + Σ active columns (eq. 7, factored),
            // decay and accumulation fused in one blocked traversal
            Drive::Sparse(mirror) => {
                kernels::fused_decay_accumulate(decay, &mirror.cols, active, &mut s.drive)
            }
            // eq. 7 as a full matrix–vector product over the trace
            Drive::Dense => self.weights.matvec_into(&s.trace_in, &mut s.drive),
        }
        std::mem::swap(&mut s.fired, &mut s.prev_fired);
        match self.kind {
            NeuronKind::Adaptive => {
                // eq. 8: decay + last step's spikes charge h
                kernels::decay_add_unit(p.reset_decay(), &mut s.trace_out, &s.prev_fired);
                // eqs. 6 + 10: membrane, threshold and record writes fused
                kernels::fused_adaptive_membrane(
                    p.theta,
                    p.v_th,
                    &s.drive,
                    &s.trace_out,
                    v,
                    o,
                    &mut s.fired,
                );
            }
            // eq. 1: decay + input gain + threshold + hard reset + record
            // writes in one sweep (`v` caches the pre-reset potential)
            NeuronKind::HardReset | NeuronKind::HardResetMatched => {
                kernels::fused_hard_reset_membrane(
                    p.synapse_decay(),
                    self.kind.input_gain(p),
                    p.v_th,
                    &s.drive,
                    &mut s.trace_out,
                    v,
                    o,
                    &mut s.fired,
                )
            }
        }
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

    #[test]
    fn weights_mut_bumps_epoch_and_forward_rebuilds_lazily() {
        let mut rng = Rng::seed_from(13);
        let mut layer = DenseLayer::new(
            4,
            3,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        assert!(layer.cache_is_fresh());
        // Scale the weights so stale-mirror output would be wrong.
        layer.weights_mut().scale(5.0);
        assert!(!layer.cache_is_fresh());

        let raster = SpikeRaster::from_events(6, 4, &[(0, 0), (1, 2), (3, 3), (4, 1)]);
        let mut rec = LayerRecord::empty();
        let mut scratch = LayerScratch::default();
        let mut output = SpikeRaster::default();
        layer.forward_steps(&raster, &mut rec, &mut scratch, &mut output);
        assert!(layer.cache_is_fresh(), "forward must rebuild the mirror");

        // The event-driven pass must agree with the dense rollout over
        // the *mutated* weights (spikes are exact; a stale mirror would
        // produce the pre-mutation spike train).
        let mut input = Matrix::zeros(6, 4);
        for (t, c) in raster.events() {
            input[(t, c)] = 1.0;
        }
        let dense = dense_rollout(&layer, &input);
        assert_eq!(rec.o.as_slice(), dense.o.as_slice());
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
        layer.weights_mut()[(0, 0)] = 2.5;
        let clone = layer.clone();
        assert_eq!(clone.weights(), layer.weights());
        assert!(clone.cache_is_fresh());
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
