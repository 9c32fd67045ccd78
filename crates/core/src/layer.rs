//! Dense spiking layer: synapse filter bank + weight matrix + neuron
//! nonlinearity, with full state caching for BPTT.

use crate::scratch::LayerScratch;
use crate::spike::ActiveIndices;
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

/// How a rollout forms each step's synaptic drive `W·k[t]` — the only
/// difference between the event-driven path and the dense reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compute {
    /// Event-driven: decay the previous drive and add the weight columns
    /// of this step's input spikes (the production path).
    Events,
    /// Dense reference: a full matrix–vector product over the input
    /// trace every step.
    Dense,
}

/// [`Compute`] resolved for one rollout.
enum Drive<'a> {
    Events(RwLockReadGuard<'a, Mirror>),
    Dense,
}

/// One timestep's `pre`, `v` and `o` record rows.
type Rows<'a> = (&'a mut [f32], &'a mut [f32], &'a mut [f32]);

/// Per-layer forward cache for one input sample: everything BPTT needs.
///
/// All matrices are `T × width` (row per timestep).
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
        self.v.rows()
    }

    /// Reshapes the cache for a `t_steps`-long rollout of an
    /// `n_in → n_out` layer, zero-filled, reusing the buffers.
    pub fn resize_zeroed(&mut self, t_steps: usize, n_in: usize, n_out: usize) {
        self.pre.resize_zeroed(t_steps, n_in);
        self.v.resize_zeroed(t_steps, n_out);
        self.o.resize_zeroed(t_steps, n_out);
    }

    fn rows_mut(&mut self, t: usize) -> Rows<'_> {
        (self.pre.row_mut(t), self.v.row_mut(t), self.o.row_mut(t))
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

    /// Rolls the layer over a `T × n_in` spike matrix, returning the full
    /// cache. State starts from zero (independent sample) and is never
    /// cleared mid-sequence.
    ///
    /// Allocating wrapper over
    /// [`forward_dense_into`](Self::forward_dense_into).
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != n_in`.
    pub fn forward(&self, input: &Matrix) -> LayerRecord {
        let mut rec = LayerRecord::empty();
        let mut scratch = LayerScratch::default();
        self.forward_dense_into(input, &mut rec, &mut scratch);
        rec
    }

    /// Event-driven rollout over per-step active-input lists — the hot
    /// path of training and inference.
    ///
    /// Because layer inputs are **binary** spike vectors, the weighted
    /// drive factors as `W·k[t] = α·(W·k[t−1]) + W·x[t]`, and `W·x[t]`
    /// is just the sum of the weight columns selected by `x[t]`'s active
    /// indices. Each timestep therefore costs
    /// `O(n_in + n_out + n_out·nnz(x[t]))` instead of the dense
    /// `O(n_out·n_in)`. The incremental recurrence is algebraically
    /// identical to the dense rollout ([`forward`](Self::forward)); it
    /// reassociates floating-point sums, so potentials may differ from
    /// the dense reference by a few ULPs.
    ///
    /// `rec` and the buffers in `scratch` are resized and re-initialised
    /// here; `active_out` receives the output spike lists (consumable as
    /// the next layer's `active_in`). If a weight mutation left the
    /// kernel cache stale (see [`weights_mut`](Self::weights_mut)) it is
    /// rebuilt here, once, before the rollout starts.
    pub fn forward_steps(
        &self,
        active_in: &ActiveIndices,
        rec: &mut LayerRecord,
        scratch: &mut LayerScratch,
        active_out: &mut ActiveIndices,
    ) {
        scratch.ensure(self.n_in(), self.n_out());
        self.run(Compute::Events, active_in, Some(rec), scratch, active_out);
    }

    /// Dense rollout into reusable buffers: per-step matrix–vector
    /// products with no event-driven shortcuts, writing the same
    /// [`LayerRecord`] layout as [`forward_steps`](Self::forward_steps).
    /// `input` is a 0/1 spike matrix (any nonzero entry is a spike).
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != n_in`.
    pub fn forward_dense_into(
        &self,
        input: &Matrix,
        rec: &mut LayerRecord,
        scratch: &mut LayerScratch,
    ) {
        assert_eq!(
            input.cols(),
            self.n_in(),
            "layer expects {} inputs, got {}",
            self.n_in(),
            input.cols()
        );
        rec.resize_zeroed(input.rows(), self.n_in(), self.n_out());
        scratch.ensure(self.n_in(), self.n_out());
        let drive = self.drive(Compute::Dense);
        let mut active = Vec::new();
        for t in 0..input.rows() {
            kernels::threshold_mask(input.row(t), 0.0, &mut active);
            self.step(&drive, &active, scratch, Some(rec.rows_mut(t)));
        }
    }

    /// Rolls the layer over `active_in` from the state carried in
    /// `scratch`: zeroed by `LayerScratch::ensure` for an independent
    /// sample, or left as the previous call left it for a stream, which
    /// is what makes a chunked rollout bitwise identical to a single
    /// one. `rec`, when given, is resized and receives the BPTT record;
    /// `active_out` receives the output spike lists.
    pub(crate) fn run(
        &self,
        compute: Compute,
        active_in: &ActiveIndices,
        mut rec: Option<&mut LayerRecord>,
        scratch: &mut LayerScratch,
        active_out: &mut ActiveIndices,
    ) {
        let t_steps = active_in.steps();
        if let Some(rec) = rec.as_deref_mut() {
            rec.resize_zeroed(t_steps, self.n_in(), self.n_out());
        }
        active_out.clear();
        let drive = self.drive(compute);
        for t in 0..t_steps {
            let rows = rec.as_deref_mut().map(|rec| rec.rows_mut(t));
            self.step(&drive, active_in.step(t), scratch, rows);
            active_out.push_step(&scratch.fired);
        }
    }

    /// Resolves `compute` for one rollout: the event-driven drive holds
    /// the column mirror's read guard for the whole rollout, not per
    /// step.
    fn drive(&self, compute: Compute) -> Drive<'_> {
        match compute {
            Compute::Events => Drive::Events(self.fresh_mirror()),
            Compute::Dense => Drive::Dense,
        }
    }

    /// One timestep of the layer's dynamics over the state carried in
    /// `s` — the only definition of each neuron kind's forward step.
    ///
    /// `active` lists this step's input spikes (ascending, no
    /// duplicates). On return `s.fired` holds this step's output spikes
    /// and `s.prev_fired` the previous step's. `rows` receives this
    /// step's `pre`/`v`/`o` record rows when given. The two [`Drive`]s
    /// differ only in how `W·k[t]` is formed, so they agree up to the
    /// reassociation of that one sum.
    fn step(&self, drive: &Drive<'_>, active: &[usize], s: &mut LayerScratch, rows: Option<Rows>) {
        let p = &self.params;
        let (pre, v, o) = match rows {
            Some((pre, v, o)) => (Some(pre), Some(v), Some(o)),
            None => (None, None, None),
        };
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
            Drive::Events(mirror) => {
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
                    Some(&mut s.fired),
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
                    Some(&mut s.fired),
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
        let rec = layer.forward(&input);

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
        let rec = layer.forward(&input);
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
        let rec = layer.forward(&input);
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
        let rec = layer.forward(&input);
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
        let rec = layer.forward(&input);
        let expected = (1.0 - params.synapse_decay()) * 0.5;
        assert!((rec.v.row(0)[0] - expected).abs() < 1e-6);
        // Matched variant deposits the full weight.
        let w = Matrix::from_rows(&[&[0.5]]);
        let layer = DenseLayer::from_weights(w, NeuronKind::HardResetMatched, params);
        let rec = layer.forward(&input);
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
            let rec = layer.forward(&Matrix::zeros(10, 3));
            assert_eq!(rec.o.as_slice().iter().filter(|&&x| x != 0.0).count(), 0);
        }
    }

    #[test]
    fn dense_into_matches_allocating_forward() {
        let mut rng = Rng::seed_from(9);
        let mut pattern = Rng::seed_from(31);
        for kind in [
            NeuronKind::Adaptive,
            NeuronKind::HardReset,
            NeuronKind::HardResetMatched,
        ] {
            let layer = DenseLayer::new(5, 4, kind, NeuronParams::paper_defaults(), &mut rng);
            let mut input = Matrix::zeros(9, 5);
            for t in 0..9 {
                for c in 0..5 {
                    if pattern.coin(0.3) {
                        input.row_mut(t)[c] = 1.0;
                    }
                }
            }
            let reference = layer.forward(&input);
            let mut rec = LayerRecord::empty();
            let mut scratch = LayerScratch::default();
            layer.forward_dense_into(&input, &mut rec, &mut scratch);
            assert_eq!(reference.pre.as_slice(), rec.pre.as_slice(), "{kind:?}");
            assert_eq!(reference.v.as_slice(), rec.v.as_slice(), "{kind:?}");
            assert_eq!(reference.o.as_slice(), rec.o.as_slice(), "{kind:?}");
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

        let raster = crate::SpikeRaster::from_events(6, 4, &[(0, 0), (1, 2), (3, 3), (4, 1)]);
        let mut active_in = ActiveIndices::new();
        active_in.fill_from(&raster);
        let mut rec = LayerRecord::empty();
        let mut scratch = LayerScratch::default();
        let mut active_out = ActiveIndices::new();
        layer.forward_steps(&active_in, &mut rec, &mut scratch, &mut active_out);
        assert!(layer.cache_is_fresh(), "forward must rebuild the mirror");

        // The event-driven pass must agree with the dense rollout over
        // the *mutated* weights (spikes are exact; a stale mirror would
        // produce the pre-mutation spike train).
        let dense = layer.forward(&Matrix::from_vec(6, 4, raster.as_slice().to_vec()));
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
    #[should_panic(expected = "layer expects")]
    fn wrong_input_width_panics() {
        let mut rng = Rng::seed_from(5);
        let layer = DenseLayer::new(
            3,
            3,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        layer.forward(&Matrix::zeros(4, 2));
    }
}
