//! **snn-engine** — the serving API of the neurosnn workspace: one
//! trained network, two arithmetic paths, and crossbar deployment as a
//! weight transform.
//!
//! The paper (Fang et al., DAC 2021) is an algorithm–hardware codesign,
//! so the same model must answer queries from the event-driven software
//! kernels, from the dense reference implementation, and from a
//! simulated RRAM crossbar deployment. This crate re-exports the core
//! engine ([`Engine`], [`Backend`], [`Session`], [`SessionPool`]) and the
//! crossbar model's [`deploy`]; [`hardware`] is the seeded one-liner
//! that turns a network into its quantized, variation-perturbed
//! effective network, which an ordinary engine then serves.
//!
//! Every engine routes inference through the core forward kernels,
//! which carry `snn-obs` flight-recorder hooks: when a caller installs
//! an ambient trace context (`snn_obs::with_trace`, as the serving
//! scheduler's workers do per traced job), each layer's rollout records
//! a span with its output-spike density packed into the payload. With
//! no context the hooks are disarmed — one relaxed atomic load each.
//!
//! # Examples
//!
//! Serve one trained network three ways:
//!
//! ```
//! use snn_engine::{hardware, Backend, DeployConfig, Engine};
//! use snn_core::{Network, NeuronKind, SpikeRaster};
//! use snn_neuron::NeuronParams;
//! use snn_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let net = Network::mlp(&[8, 16, 3], NeuronKind::Adaptive,
//!                        NeuronParams::paper_defaults(), &mut rng);
//!
//! let sparse = Engine::from_network(net.clone())
//!     .backend(Backend::Sparse)
//!     .threads(2)
//!     .build();
//! let dense = Engine::from_network(net.clone())
//!     .backend(Backend::Dense)
//!     .build();
//! let rram = Engine::from_network(hardware(&net, DeployConfig::four_bit(), 42)).build();
//!
//! let input = SpikeRaster::from_events(20, 8, &[(0, 1), (3, 4), (9, 7)]);
//! let mut session = sparse.session();
//! let class = session.classify(&input);
//! assert_eq!(dense.classify_batch(std::slice::from_ref(&input))[0], class);
//! assert_eq!(rram.backend(), Backend::Sparse);
//! ```

pub use snn_core::checkpoint::{self, CheckpointError};
pub use snn_core::engine::{Backend, Engine, EngineBuilder, Session, SessionPool, BATCH_CHUNK};
pub use snn_core::stream::{StreamError, StreamSession};
pub use snn_hardware::deploy::{deploy, DeployConfig, Deployment};

use snn_core::Network;
use snn_tensor::Rng;

/// Deploys `net` onto quantized, variation-perturbed RRAM crossbars and
/// returns the crossbars' *effective* network; the seed drives the
/// device-variation draws (same seed, same devices).
///
/// Serve the result with an ordinary [`Engine`]: inference is the same
/// allocation-free event-driven path as the software model, so
/// software/hardware comparisons measure the non-idealities, not a
/// different compute path. Call [`deploy`] directly for the crossbars
/// and per-layer mapping reports.
///
/// ```
/// # use snn_engine::{hardware, DeployConfig, Engine};
/// # use snn_core::{Network, NeuronKind};
/// # use snn_neuron::NeuronParams;
/// # use snn_tensor::Rng;
/// # let mut rng = Rng::seed_from(1);
/// # let net = Network::mlp(&[3, 2], NeuronKind::Adaptive,
/// #                        NeuronParams::paper_defaults(), &mut rng);
/// let cfg = DeployConfig::five_bit().with_deviation(0.2);
/// let engine = Engine::from_network(hardware(&net, cfg, 7)).build();
/// assert_eq!(engine.network().n_in(), 3);
/// ```
pub fn hardware(net: &Network, cfg: DeployConfig, seed: u64) -> Network {
    deploy(net, cfg, &mut Rng::seed_from(seed)).network
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{NeuronKind, SpikeRaster};
    use snn_neuron::NeuronParams;

    fn net(seed: u64) -> Network {
        let mut rng = Rng::seed_from(seed);
        Network::mlp(
            &[6, 12, 4],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        )
    }

    fn inputs(n: usize, seed: u64) -> Vec<SpikeRaster> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let mut r = SpikeRaster::zeros(15, 6);
                for t in 0..15 {
                    for c in 0..6 {
                        if rng.coin(0.2) {
                            r.set(t, c, true);
                        }
                    }
                }
                r
            })
            .collect()
    }

    #[test]
    fn hardware_backend_matches_manual_deployment() {
        let net = net(1);
        let batch = inputs(8, 2);
        let cfg = DeployConfig::four_bit().with_deviation(0.2);
        let engine = Engine::from_network(hardware(&net, cfg, 9)).build();
        let manual = deploy(&net, cfg, &mut Rng::seed_from(9));
        assert_eq!(
            engine.network().layers()[0].weights(),
            manual.network.layers()[0].weights()
        );
        let manual = Engine::from_network(manual.network).threads(1).build();
        assert_eq!(engine.classify_batch(&batch), manual.classify_batch(&batch));
    }

    #[test]
    fn hardware_backend_is_seed_deterministic() {
        let net = net(3);
        let cfg = DeployConfig::four_bit().with_deviation(0.3);
        let weights = |seed| hardware(&net, cfg, seed).layers()[0].weights().clone();
        assert_eq!(weights(5), weights(5));
        assert_ne!(weights(5), weights(6));
    }

    #[test]
    fn high_precision_hardware_agrees_with_sparse() {
        let net = net(4);
        let batch = inputs(12, 5);
        let cfg = DeployConfig {
            bits: 12,
            deviation: 0.0,
            g_max: 1e-4,
        };
        let sparse = Engine::from_network(net.clone()).build();
        let hw = Engine::from_network(hardware(&net, cfg, 1)).build();
        assert_eq!(sparse.classify_batch(&batch), hw.classify_batch(&batch));
    }
}
