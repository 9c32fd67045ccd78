//! Feedforward spiking network: a stack of [`DenseLayer`]s rolled over
//! time (the "unfolded network" of paper Fig. 2).

use crate::engine::Backend;
use crate::scratch::ScratchSpace;
use crate::{DenseLayer, LayerRecord, NeuronKind, SpikeRaster};
use snn_neuron::NeuronParams;
use snn_tensor::{Matrix, Rng};

/// Span names for the per-layer forward tracing hooks. The flight
/// recorder interns `&'static str` names only, so networks deeper than
/// the table clamp to the last entry instead of allocating.
pub(crate) const LAYER_FORWARD_NAMES: [&str; 8] = [
    "layer0_forward",
    "layer1_forward",
    "layer2_forward",
    "layer3_forward",
    "layer4_forward",
    "layer5_forward",
    "layer6_forward",
    "layer7_forward",
];

/// Span names for the per-layer backward (BPTT) tracing hooks.
pub(crate) const LAYER_BACKWARD_NAMES: [&str; 8] = [
    "layer0_backward",
    "layer1_backward",
    "layer2_backward",
    "layer3_backward",
    "layer4_backward",
    "layer5_backward",
    "layer6_backward",
    "layer7_backward",
];

/// Resolves layer `l`'s span name from a name table, clamping deep
/// networks to the table's last entry.
pub(crate) fn layer_span_name(l: usize, names: [&'static str; 8]) -> &'static str {
    names[l.min(names.len() - 1)]
}

/// Records layer `l`'s output-spike density into the cross-crate obs
/// gauges (scraped by serving's `/metrics`) and returns the packed span
/// payload (`steps << 32 | density_ppm`).
fn note_layer_density(l: usize, fired: &SpikeRaster) -> u64 {
    let ppm = snn_obs::density_ppm(fired.spike_count(), fired.steps() * fired.channels());
    snn_obs::record_layer_density(l, ppm);
    snn_obs::pack_density_payload(fired.steps(), ppm)
}

/// Forward pass result: one [`LayerRecord`] per layer, bottom to top,
/// and each layer's input raster.
///
/// [`Network::forward`], [`Network::forward_into`] and
/// [`Network::forward_dense_reference`] fill every record's `pre`, `v`
/// and `o`, and keep the raster each layer read: the network input for
/// the first, the spikes of the layer below for the rest. BPTT reads
/// `v`, `o` and the rasters. An inference pass — every
/// [`Session`](crate::engine::Session) call and
/// [`Engine::forward_into`](crate::engine::Engine::forward_into) — fills
/// only each layer's `o` and leaves `pre`, `v` and the rasters empty;
/// [`output`](Self::output), the spike counts and the output raster read
/// `o` alone, so they are the same either way.
#[derive(Debug, Clone, Default)]
pub struct Forward {
    /// Per-layer caches, `records[0]` is the first hidden layer.
    pub records: Vec<LayerRecord>,
    /// `inputs[l]` is the raster layer `l` read, refilled in place by
    /// each record-writing rollout; empty after an inference pass.
    pub(crate) inputs: Vec<SpikeRaster>,
}

impl Forward {
    /// An empty pass, ready to be filled by
    /// [`Network::forward_into`] (reusable across samples).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The output layer's spike matrix (`T × n_classes`/`T × n_out`).
    ///
    /// # Panics
    ///
    /// Panics if the network had no layers.
    pub fn output(&self) -> &Matrix {
        &self.records.last().expect("empty network").o
    }

    /// Output spikes as a [`SpikeRaster`] (a session's
    /// [`infer_raster`](crate::engine::Session::infer_raster) returns the
    /// one its rollout wrote instead).
    pub fn output_raster(&self) -> SpikeRaster {
        let o = self.output();
        let mut raster = SpikeRaster::default();
        let events = (0..o.rows())
            .flat_map(|t| o.row(t).iter().enumerate().map(move |(c, &x)| (t, c, x)))
            .filter(|&(_, _, x)| x != 0.0)
            .map(|(t, c, _)| (t, c));
        raster.refill(o.rows(), o.cols(), events);
        raster
    }

    /// Per-output-channel spike counts (the rate readout).
    pub fn spike_counts(&self) -> Vec<f32> {
        let mut counts = Vec::new();
        self.spike_counts_into(&mut counts);
        counts
    }

    /// Accumulates the per-channel spike counts into `counts`, reusing
    /// its capacity (the allocation-free form of
    /// [`spike_counts`](Self::spike_counts)).
    pub fn spike_counts_into(&self, counts: &mut Vec<f32>) {
        let o = self.output();
        counts.clear();
        counts.resize(o.cols(), 0.0);
        for t in 0..o.rows() {
            for (c, &x) in o.row(t).iter().enumerate() {
                counts[c] += x;
            }
        }
    }
}

/// A feedforward spiking MLP.
///
/// Temporal processing happens entirely inside the layers' synapse
/// filters and adaptive thresholds, so there are no recurrent weights —
/// the property that makes the network crossbar-mappable (paper §II).
///
/// # Examples
///
/// ```
/// use snn_core::{Network, NeuronKind, SpikeRaster};
/// use snn_neuron::NeuronParams;
/// use snn_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let net = Network::mlp(&[10, 20, 4], NeuronKind::Adaptive,
///                        NeuronParams::paper_defaults(), &mut rng);
/// let input = SpikeRaster::zeros(30, 10);
/// let fwd = net.forward(&input);
/// assert_eq!(fwd.output().shape(), (30, 4));
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<DenseLayer>,
}

impl Network {
    /// Builds an MLP with the given layer sizes, e.g. `&[700, 400, 400, 20]`
    /// for the paper's SHD network.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn mlp(sizes: &[usize], kind: NeuronKind, params: NeuronParams, rng: &mut Rng) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .map(|w| DenseLayer::new(w[0], w[1], kind, params, rng))
            .collect();
        Self { layers }
    }

    /// Builds a network from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if consecutive layer widths do not chain.
    pub fn from_layers(layers: Vec<DenseLayer>) -> Self {
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].n_out(),
                pair[1].n_in(),
                "layer widths do not chain: {} -> {}",
                pair[0].n_out(),
                pair[1].n_in()
            );
        }
        Self { layers }
    }

    /// The layers, bottom to top.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutable layer access (optimizer updates, hardware deployment).
    pub fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// Input width.
    ///
    /// # Panics
    ///
    /// Panics if the network has no layers.
    pub fn n_in(&self) -> usize {
        self.layers.first().expect("empty network").n_in()
    }

    /// Output width.
    ///
    /// # Panics
    ///
    /// Panics if the network has no layers.
    pub fn n_out(&self) -> usize {
        self.layers.last().expect("empty network").n_out()
    }

    /// Swaps the neuron dynamics of **every** layer while keeping the
    /// trained weights — the Table II hard-reset ablation.
    pub fn set_neuron_kind(&mut self, kind: NeuronKind) {
        for layer in &mut self.layers {
            layer.set_kind(kind);
        }
    }

    /// Full forward rollout over an input raster, caching every layer's
    /// state trajectory (needed for BPTT).
    ///
    /// Runs the event-driven sparse kernels; allocates a fresh
    /// [`ScratchSpace`] per call. Hot loops should hold their own scratch
    /// and call [`forward_into`](Self::forward_into) instead.
    ///
    /// # Panics
    ///
    /// Panics if `input.channels() != n_in`.
    pub fn forward(&self, input: &SpikeRaster) -> Forward {
        let mut fwd = Forward::empty();
        let mut scratch = ScratchSpace::new();
        self.forward_into(input, &mut fwd, &mut scratch);
        fwd
    }

    /// Allocation-free forward rollout: fills `fwd` (reusing its record
    /// matrices) using the worker-owned `scratch`.
    ///
    /// See [`ScratchSpace`](crate::ScratchSpace) for the ownership rules.
    ///
    /// # Panics
    ///
    /// Panics if `input.channels() != n_in`.
    pub fn forward_into(&self, input: &SpikeRaster, fwd: &mut Forward, scratch: &mut ScratchSpace) {
        self.rollout(Backend::Sparse, input, fwd, scratch);
    }

    /// Reference dense rollout (naive per-step matrix–vector products,
    /// no event-driven shortcuts): the correctness yardstick for the
    /// sparse kernels and the baseline for the kernel benchmarks.
    ///
    /// Allocates fresh buffers per call; an engine built with
    /// [`Backend::Dense`] runs the same rollout into reused buffers.
    ///
    /// # Panics
    ///
    /// Panics if `input.channels() != n_in`.
    pub fn forward_dense_reference(&self, input: &SpikeRaster) -> Forward {
        let mut fwd = Forward::empty();
        let mut scratch = ScratchSpace::new();
        self.rollout(Backend::Dense, input, &mut fwd, &mut scratch);
        fwd
    }

    /// The record-writing rollout behind [`forward_into`](Self::forward_into)
    /// and [`forward_dense_reference`](Self::forward_dense_reference):
    /// every layer's `pre`, `v` and `o` records.
    pub(crate) fn rollout(
        &self,
        backend: Backend,
        input: &SpikeRaster,
        fwd: &mut Forward,
        scratch: &mut ScratchSpace,
    ) {
        self.rollout_records(backend, input, fwd, scratch, true);
    }

    /// The inference rollout behind every engine session and
    /// [`Engine::forward_into`](crate::engine::Engine::forward_into):
    /// only each layer's `o` record, so the event-driven step also skips
    /// the input-trace update that only `pre` reads. The spikes are
    /// bit-identical to [`rollout`](Self::rollout)'s.
    pub(crate) fn infer_rollout(
        &self,
        backend: Backend,
        input: &SpikeRaster,
        fwd: &mut Forward,
        scratch: &mut ScratchSpace,
    ) {
        self.rollout_records(backend, input, fwd, scratch, false);
    }

    /// Zeroes every layer's state, sizes the records (all three matrices
    /// when `full`, else `o` alone; the rollout writes every element),
    /// then runs the layers over the input. When `full`, each layer's
    /// input raster is copied into `fwd.inputs`, reusing its buffers.
    fn rollout_records(
        &self,
        backend: Backend,
        input: &SpikeRaster,
        fwd: &mut Forward,
        scratch: &mut ScratchSpace,
        full: bool,
    ) {
        assert_eq!(
            input.channels(),
            self.n_in(),
            "input has {} channels, network expects {}",
            input.channels(),
            self.n_in()
        );
        scratch.ensure_forward(self);
        fwd.records
            .resize_with(self.layers.len(), LayerRecord::empty);
        let t_steps = input.steps();
        for (layer, rec) in self.layers.iter().zip(&mut fwd.records) {
            rec.resize_for_rollout(t_steps, layer.n_in(), layer.n_out(), full);
        }
        self.run_layers(backend, input, scratch, Some(&mut fwd.records));
        if full {
            let below = std::iter::once(input).chain(&scratch.spikes);
            fwd.inputs
                .resize_with(self.layers.len(), SpikeRaster::default);
            for (kept, raster) in fwd.inputs.iter_mut().zip(below) {
                kept.clone_from(raster);
            }
        } else {
            fwd.inputs.clear();
        }
    }

    /// Runs every layer over `input`, from the state carried in
    /// `scratch.layers`, writing layer `l`'s output spikes to
    /// `scratch.spikes[l]` and, when `records` is given, its BPTT record.
    /// Shared by the rollouts above and by
    /// [`StreamSession::advance`](crate::stream::StreamSession::advance).
    pub(crate) fn run_layers(
        &self,
        backend: Backend,
        input: &SpikeRaster,
        scratch: &mut ScratchSpace,
        mut records: Option<&mut [LayerRecord]>,
    ) {
        for (l, layer) in self.layers.iter().enumerate() {
            // Disarmed (one relaxed atomic load + a cell read) unless an
            // ambient trace context was installed by the caller.
            let mut span = snn_obs::span(layer_span_name(l, LAYER_FORWARD_NAMES));
            let (below, rest) = scratch.spikes.split_at_mut(l);
            let layer_in = below.last().unwrap_or(input);
            let rec = records.as_deref_mut().map(|records| &mut records[l]);
            layer.run(backend, layer_in, rec, &mut scratch.layers[l], &mut rest[0]);
            if span.is_armed() {
                span.set_payload(note_layer_density(l, &rest[0]));
            }
        }
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.n_in() * l.n_out()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_net(kind: NeuronKind) -> Network {
        let mut rng = Rng::seed_from(11);
        Network::mlp(&[6, 10, 3], kind, NeuronParams::paper_defaults(), &mut rng)
    }

    #[test]
    fn mlp_builds_chained_layers() {
        let net = small_net(NeuronKind::Adaptive);
        assert_eq!(net.layers().len(), 2);
        assert_eq!(net.n_in(), 6);
        assert_eq!(net.n_out(), 3);
        assert_eq!(net.parameter_count(), 6 * 10 + 10 * 3);
    }

    #[test]
    fn forward_records_every_layer() {
        let net = small_net(NeuronKind::Adaptive);
        let input = SpikeRaster::from_events(8, 6, &[(0, 0), (1, 2), (5, 5)]);
        let fwd = net.forward(&input);
        assert_eq!(fwd.records.len(), 2);
        assert_eq!(fwd.records[0].o.shape(), (8, 10));
        assert_eq!(fwd.output().shape(), (8, 3));
    }

    #[test]
    fn unfold_propagates_spikes_layer_to_layer() {
        // The second layer's `pre` must be the filter of the first
        // layer's output spikes (adaptive) — i.e. unfolding is consistent.
        let net = small_net(NeuronKind::Adaptive);
        let input = SpikeRaster::from_events(12, 6, &[(0, 0), (0, 1), (2, 3), (4, 4)]);
        let fwd = net.forward(&input);
        let alpha = NeuronParams::paper_defaults().synapse_decay();
        let mut k = vec![0.0f32; 10];
        for t in 0..12 {
            for (ki, &o) in k.iter_mut().zip(fwd.records[0].o.row(t)) {
                *ki = alpha * *ki + o;
            }
            for (a, b) in fwd.records[1].pre.row(t).iter().zip(&k) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn record_writing_rollouts_keep_each_layers_input_raster() {
        let mut rng = Rng::seed_from(11);
        let params = NeuronParams::paper_defaults().with_v_th(0.2);
        let net = Network::mlp(&[6, 10, 3], NeuronKind::Adaptive, params, &mut rng);
        let events: Vec<(usize, usize)> =
            (0..8).flat_map(|t| [(t, t % 6), (t, 5 - t % 6)]).collect();
        let input = SpikeRaster::from_events(8, 6, &events);
        let check = |fwd: &Forward, rollout: &str| {
            assert_eq!(fwd.inputs.len(), 2, "{rollout}");
            assert_eq!(fwd.inputs[0], input, "{rollout}: layer 0 reads the input");
            let below = Forward {
                records: fwd.records[..1].to_vec(),
                inputs: Vec::new(),
            };
            assert!(below.output_raster().spike_count() > 0, "layer 0 is silent");
            assert_eq!(
                fwd.inputs[1],
                below.output_raster(),
                "{rollout}: layer 1 reads layer 0's spikes"
            );
        };
        let mut fwd = Forward::empty();
        net.forward_into(&input, &mut fwd, &mut ScratchSpace::new());
        check(&fwd, "forward_into");
        check(
            &net.forward_dense_reference(&input),
            "forward_dense_reference",
        );
        let engine = crate::engine::Engine::from_network(net.clone()).build();
        engine.forward_into(&input, &mut fwd, &mut ScratchSpace::new());
        assert!(
            fwd.inputs.is_empty(),
            "an inference pass kept input rasters"
        );
        net.forward_into(&input, &mut fwd, &mut ScratchSpace::new());
        check(&fwd, "forward_into after an inference pass");
    }

    #[test]
    fn forward_is_deterministic() {
        let net = small_net(NeuronKind::Adaptive);
        let input = SpikeRaster::from_events(8, 6, &[(0, 0), (3, 2)]);
        let a = net.forward(&input);
        let b = net.forward(&input);
        assert_eq!(a.output().as_slice(), b.output().as_slice());
    }

    #[test]
    fn classify_returns_valid_distribution() {
        let net = small_net(NeuronKind::Adaptive);
        let input = SpikeRaster::from_events(8, 6, &[(0, 0), (1, 1), (2, 2)]);
        let engine = crate::engine::Engine::from_network(net).build();
        let mut session = engine.session();
        let (class, probs) = session.classify_with_probs(&input);
        assert!(class < 3);
        assert_eq!(probs.len(), 3);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn neuron_kind_swap_changes_dynamics_not_weights() {
        let mut net = small_net(NeuronKind::Adaptive);
        let w0 = net.layers()[0].weights().clone();
        net.set_neuron_kind(NeuronKind::HardReset);
        assert!(net
            .layers()
            .iter()
            .all(|l| l.kind() == NeuronKind::HardReset));
        assert_eq!(net.layers()[0].weights(), &w0);
    }

    #[test]
    fn output_raster_matches_output_matrix() {
        let net = small_net(NeuronKind::Adaptive);
        let input = SpikeRaster::from_events(8, 6, &[(0, 0), (0, 1), (0, 2), (1, 3)]);
        let fwd = net.forward(&input);
        let raster = fwd.output_raster();
        for t in 0..8 {
            for c in 0..3 {
                assert_eq!(raster.get(t, c), fwd.output().row(t)[c] != 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "widths do not chain")]
    fn mismatched_layers_panic() {
        let mut rng = Rng::seed_from(1);
        let a = DenseLayer::new(
            4,
            5,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let b = DenseLayer::new(
            6,
            2,
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        Network::from_layers(vec![a, b]);
    }
}
