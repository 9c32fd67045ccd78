//! Feedforward spiking neural networks that learn spatial-temporal
//! patterns — the algorithmic half of Fang et al., *"Neuromorphic
//! Algorithm-hardware Codesign for Temporal Pattern Learning"* (DAC 2021).
//!
//! The crate provides:
//!
//! * [`SpikeRaster`] — the `T × channels` binary spike tensor, stored as
//!   per-step channel-id lists, used as network input, output and
//!   pattern-association target, together with kernel-smoothing and van
//!   Rossum distance utilities ([`spike`]).
//! * [`Network`] — a feedforward MLP of dense layers whose nonlinearity
//!   is either the paper's filter-based adaptive-threshold LIF neuron or
//!   the conventional hard-reset LIF baseline ([`NeuronKind`]). Because
//!   temporal memory lives in per-channel synapse filters, the network
//!   processes time-varying inputs **without any recurrent weights**,
//!   which is what makes it mappable to a memristor crossbar.
//! * [`train`] — hand-derived backpropagation-through-time with
//!   surrogate gradients (paper eqs. 13–14), the two loss functions of
//!   Section III (rate/softmax cross-entropy and the van Rossum kernel
//!   distance of eqs. 15–16), and SGD/Adam/AdamW optimizers.
//! * [`engine`] — the serving surface: the batched, deterministic
//!   [`engine::Engine`] (a shared network plus an
//!   [`engine::Backend`], event-driven sparse or dense reference) and
//!   the zero-allocation [`engine::Session`]. An RRAM crossbar
//!   deployment (via `snn-hardware`) is an engine over the crossbars'
//!   effective network.
//! * [`config`] — the Table I hyper-parameter set.
//! * [`baseline`] — a windowed rate-coding classifier used as a
//!   comparison point in the evaluation harness.
//!
//! # Examples
//!
//! Train a tiny network to tell two temporal patterns apart, then serve
//! it through an [`engine::Engine`]:
//!
//! ```
//! use snn_core::engine::{Backend, Engine};
//! use snn_core::{Network, NeuronKind, SpikeRaster};
//! use snn_core::train::{Trainer, TrainerConfig, RateCrossEntropy};
//! use snn_neuron::NeuronParams;
//! use snn_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let mut net = Network::mlp(&[4, 8, 2], NeuronKind::Adaptive,
//!                            NeuronParams::paper_defaults(), &mut rng);
//! let mut a = SpikeRaster::zeros(10, 4);
//! a.set(1, 0, true); a.set(2, 1, true);
//! let mut b = SpikeRaster::zeros(10, 4);
//! b.set(7, 2, true); b.set(8, 3, true);
//! let data = vec![(a, 0usize), (b, 1usize)];
//! let mut trainer = Trainer::new(TrainerConfig::default());
//! for _ in 0..30 {
//!     trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
//! }
//! let engine = Engine::from_network(net).backend(Backend::Sparse).build();
//! assert!(engine.evaluate(&data) >= 0.5);
//! let mut session = engine.session();
//! assert_eq!(session.classify(&data[0].0), 0);
//! ```

// Numeric kernels index several arrays per iteration; iterator zips would
// obscure the recurrences that mirror the paper's equations.
#![allow(clippy::needless_range_loop)]

pub mod baseline;
pub mod checkpoint;
pub mod config;
pub mod engine;
mod layer;
pub mod metrics;
mod network;
mod scratch;
pub mod spike;
pub mod stream;
pub mod train;

pub use layer::{DenseLayer, LayerRecord, NeuronKind, WeightsMut};
pub use network::{Forward, Network};
pub use scratch::{LayerScratch, ScratchSpace};
pub use spike::{SpikeRaster, WireRaster};
