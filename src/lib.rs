//! **neurosnn** — a Rust reproduction of Fang et al., *"Neuromorphic
//! Algorithm-hardware Codesign for Temporal Pattern Learning"*
//! (DAC 2021, arXiv:2104.10712).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `snn-tensor` | dense matrices, RNG, statistics |
//! | [`neuron`] | `snn-neuron` | adaptive-threshold & hard-reset LIF, SRM kernels, surrogate gradients |
//! | [`core`] | `snn-core` | feedforward SNN, BPTT training, losses, optimizers, spike utilities |
//! | [`data`] | `snn-data` | synthetic N-MNIST / SHD / pattern-association datasets |
//! | [`hardware`] | `snn-hardware` | RRAM crossbar, analog neuron circuit, transient sim, power/area model |
//! | [`engine`] | `snn-engine` | serving API: batched `Engine` over a sparse or dense `Backend`, zero-alloc `Session`, seeded RRAM `hardware` deployment |
//! | [`serve`] | `snn-serve` | network serving: HTTP/1.1 on `std::net`, dynamic micro-batching scheduler, metrics |
//!
//! # Quickstart
//!
//! Train a small adaptive-threshold SNN on a timing-only task (patterns
//! with identical spike counts that differ only in temporal order),
//! then serve it through the batched [`Engine`](engine::Engine) — the
//! same trained weights answer from the event-driven software kernels,
//! the dense reference, and a simulated 5-bit RRAM deployment:
//!
//! ```
//! use neurosnn::core::{Network, NeuronKind, SpikeRaster};
//! use neurosnn::core::train::{Optimizer, RateCrossEntropy, Trainer, TrainerConfig};
//! use neurosnn::engine::{hardware, Backend, DeployConfig, Engine};
//! use neurosnn::neuron::NeuronParams;
//! use neurosnn::tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let mut net = Network::mlp(
//!     &[2, 24, 2],
//!     NeuronKind::Adaptive,
//!     NeuronParams::paper_defaults().with_v_th(0.3),
//!     &mut rng,
//! );
//! // Class 0: channel 0 early, channel 1 late. Class 1: the reverse.
//! let mut a = SpikeRaster::zeros(20, 2);
//! let mut b = SpikeRaster::zeros(20, 2);
//! for s in 0..4 {
//!     a.set(s, 0, true); a.set(19 - s, 1, true);
//!     b.set(s, 1, true); b.set(19 - s, 0, true);
//! }
//! let data = vec![(a, 0), (b, 1)];
//! let mut trainer = Trainer::new(TrainerConfig {
//!     batch_size: 2,
//!     optimizer: Optimizer::adam(0.02),
//!     ..TrainerConfig::default()
//! });
//! // 600 epochs leaves margin for the 5-bit quantized deployment to
//! // stay separable under any variation seed.
//! for _ in 0..600 {
//!     trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
//! }
//!
//! // Serve the trained model: the sparse and dense backends, and the
//! // 5-bit crossbar deployment, must all separate the classes.
//! for engine in [
//!     Engine::from_network(net.clone()).backend(Backend::Sparse).build(),
//!     Engine::from_network(net.clone()).backend(Backend::Dense).build(),
//!     Engine::from_network(hardware(&net, DeployConfig::five_bit(), 42)).build(),
//! ] {
//!     assert_eq!(engine.evaluate(&data), 1.0, "{:?}", engine);
//! }
//!
//! // Low-latency path: a session reuses every buffer across calls.
//! let engine = Engine::from_network(net).build();
//! let mut session = engine.session();
//! assert_eq!(session.classify(&data[0].0), 0);
//! assert_eq!(session.classify(&data[1].0), 1);
//! ```

pub use snn_core as core;
pub use snn_data as data;
pub use snn_engine as engine;
pub use snn_hardware as hardware;
pub use snn_neuron as neuron;
pub use snn_serve as serve;
pub use snn_tensor as tensor;
