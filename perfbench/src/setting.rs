//! The paper's SHD setting that every workload shares: synthetic SHD
//! inputs, the 700-400-400-20 adaptive-LIF network, and the reference
//! answers and layer activity that the workloads are checked against.

use crate::measure::layer_energy_nj;
use snn_core::engine::Engine;
use snn_core::train::{ClassificationLoss, RateCrossEntropy};
use snn_core::{Forward, Network, NeuronKind, SpikeRaster};
use snn_data::shd::{self, ShdConfig};
use snn_neuron::NeuronParams;
use snn_tensor::{Matrix, Rng};
use std::time::Instant;

/// Width of both hidden layers of the paper's SHD network.
pub const HIDDEN: usize = 400;
/// Share of the generated samples held out from training.
pub const HELD_OUT: f32 = 0.2;

/// Generated data and a freshly initialised network.
pub struct Setting {
    /// Training split, `(raster, label)`.
    pub train: Vec<(SpikeRaster, usize)>,
    /// Held-out split, `(raster, label)`.
    pub test: Vec<(SpikeRaster, usize)>,
    /// The paper's network at random initialisation.
    pub net: Network,
    /// Wall time of `shd::generate` per generated sample, in ms.
    pub generate_ms: f64,
}

/// Generates the inputs with `shd::generate(&ShdConfig::paper(), seed)`,
/// splits them, and initialises the network, all from `seed`.
pub fn build(seed: u64) -> Setting {
    let cfg = ShdConfig::paper();
    let start = Instant::now();
    let data = shd::generate(&cfg, seed);
    let generate_ms = start.elapsed().as_secs_f64() * 1e3 / data.samples.len() as f64;
    let mut rng = Rng::seed_from(seed ^ 0x5EED_BE4C);
    let split = data.split(HELD_OUT, &mut rng);
    let net = Network::mlp(
        &[cfg.channels, HIDDEN, HIDDEN, cfg.classes],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults(),
        &mut rng,
    );
    Setting {
        train: split.train,
        test: split.test,
        net,
        generate_ms,
    }
}

/// Layer activity accumulated over samples: input events into each
/// layer and the spikes it emits.
#[derive(Debug, Clone)]
pub struct Activity {
    /// `(n_in, n_out)` of each layer.
    shapes: Vec<(usize, usize)>,
    steps: usize,
    samples: u64,
    in_events: Vec<u64>,
    out_spikes: Vec<u64>,
}

impl Activity {
    /// An empty tally for `net`'s layers.
    pub fn new(net: &Network) -> Self {
        let shapes: Vec<_> = net.layers().iter().map(|l| (l.n_in(), l.n_out())).collect();
        let n = shapes.len();
        Self {
            shapes,
            steps: 0,
            samples: 0,
            in_events: vec![0; n],
            out_spikes: vec![0; n],
        }
    }

    /// Adds one sample's activity from the records its forward pass left.
    ///
    /// # Panics
    ///
    /// Panics if `fwd` holds a different number of layers.
    pub fn add(&mut self, input: &SpikeRaster, fwd: &Forward) {
        assert_eq!(fwd.records.len(), self.shapes.len(), "layer count");
        self.steps = input.steps();
        self.samples += 1;
        let mut events = input.spike_count() as u64;
        for (l, rec) in fwd.records.iter().enumerate() {
            let spikes = count_nonzero(&rec.o);
            self.in_events[l] += events;
            self.out_spikes[l] += spikes;
            events = spikes;
        }
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.shapes.len()
    }

    /// Samples added.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    fn per_sample(&self, total: u64) -> f64 {
        total as f64 / self.samples.max(1) as f64
    }

    /// Mean output spikes of layer `l` per sample.
    pub fn spikes(&self, l: usize) -> f64 {
        self.per_sample(self.out_spikes[l])
    }

    /// Mean synaptic operations of layer `l` per sample: input events
    /// times the layer's fan-out.
    pub fn synops(&self, l: usize) -> f64 {
        self.per_sample(self.in_events[l]) * self.shapes[l].1 as f64
    }

    /// Simulated circuit energy of layer `l` per sample, in nJ, at the
    /// measured mean input spike count per synapse.
    pub fn energy_nj(&self, l: usize) -> f64 {
        let (n_in, n_out) = self.shapes[l];
        let per_synapse = self.per_sample(self.in_events[l]) / n_in as f64;
        layer_energy_nj(self.steps.max(1), per_synapse, n_out, n_in)
    }

    /// Simulated circuit energy of the whole network per sample, in nJ.
    pub fn total_energy_nj(&self) -> f64 {
        (0..self.layers()).map(|l| self.energy_nj(l)).sum()
    }
}

fn count_nonzero(m: &Matrix) -> u64 {
    m.as_slice().iter().filter(|&&x| x != 0.0).count() as u64
}

/// Record bytes per timestep that a forward pass left in `fwd`, in kB
/// (2^10 bytes): every layer's `pre`, `v` and `o` matrices.
pub fn record_kb_per_step(fwd: &Forward, steps: usize) -> f64 {
    let cells: usize = fwd
        .records
        .iter()
        .map(|r| r.pre.as_slice().len() + r.v.as_slice().len() + r.o.as_slice().len())
        .sum();
    (cells * std::mem::size_of::<f32>()) as f64 / steps.max(1) as f64 / 1024.0
}

/// What a network answers on a sample set, from single-thread
/// `Session::classify`.
pub struct Reference {
    /// The session's class for every sample.
    pub classes: Vec<usize>,
    /// Mean `RateCrossEntropy` loss against the labels.
    pub mean_loss: f64,
    /// Layer activity over the samples.
    pub activity: Activity,
}

/// Classifies every input once on a warm session of `engine`.
pub fn reference(engine: &Engine, inputs: &[SpikeRaster], labels: &[usize]) -> Reference {
    let mut session = engine.session();
    let mut activity = Activity::new(engine.network());
    let mut classes = Vec::with_capacity(inputs.len());
    let mut d_out = Matrix::zeros(0, 0);
    let mut loss = 0.0f64;
    for (input, &label) in inputs.iter().zip(labels) {
        classes.push(session.classify(input));
        let fwd = session.last_output();
        activity.add(input, fwd);
        loss += RateCrossEntropy.loss_and_grad_into(fwd.output(), label, &mut d_out) as f64;
    }
    Reference {
        classes,
        mean_loss: loss / inputs.len().max(1) as f64,
        activity,
    }
}
