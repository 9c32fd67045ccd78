//! Deployment of a trained network onto non-ideal crossbars (Fig. 8).
//!
//! The Fig. 8 protocol: take the trained N-MNIST classification model,
//! quantize every layer's weights to 4 or 5 bits, perturb each RRAM
//! device's conductance by a relative deviation σ ∈ [0, 0.5], and
//! measure the resulting test accuracy. This module performs exactly
//! that mapping and hands back a functionally-equivalent
//! [`snn_core::Network`] whose weights are the crossbars' *effective*
//! weights, so evaluation reuses the core forward pass: an
//! `Engine::from_network(deployment.network)` serves the hardware model
//! through the same event-driven kernels as the software one.

use crate::{Crossbar, Quantizer, VariationModel};
use snn_core::Network;
use snn_tensor::Rng;

/// Deployment settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeployConfig {
    /// Conductance bit precision per device.
    pub bits: u8,
    /// Relative resistance deviation σ (0 disables variation).
    pub deviation: f32,
    /// Full-on device conductance (S); affects currents, not the
    /// functional result.
    pub g_max: f32,
}

impl DeployConfig {
    /// Fig. 8's default operating point: 4-bit cells, no deviation.
    pub fn four_bit() -> Self {
        Self {
            bits: 4,
            deviation: 0.0,
            g_max: 1e-4,
        }
    }

    /// 5-bit cells, no deviation.
    pub fn five_bit() -> Self {
        Self {
            bits: 5,
            deviation: 0.0,
            g_max: 1e-4,
        }
    }

    /// Returns a copy with the given deviation.
    pub fn with_deviation(mut self, sigma: f32) -> Self {
        self.deviation = sigma;
        self
    }
}

/// Per-layer report of the deployment mapping.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer index.
    pub layer: usize,
    /// RRAM devices used.
    pub devices: usize,
    /// Mean absolute weight error introduced by quantization+variation.
    pub mean_abs_error: f32,
    /// Max absolute weight error.
    pub max_abs_error: f32,
}

/// Result of deploying a network.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// A network functionally equivalent to the programmed hardware
    /// (same neuron dynamics, crossbar effective weights).
    pub network: Network,
    /// The programmed crossbars, one per layer.
    pub crossbars: Vec<Crossbar>,
    /// Per-layer mapping reports.
    pub reports: Vec<LayerReport>,
}

impl Deployment {
    /// Total RRAM devices across all layers.
    pub fn total_devices(&self) -> usize {
        self.crossbars.iter().map(Crossbar::device_count).sum()
    }
}

/// Maps a trained network onto crossbars with the given non-idealities.
///
/// The returned [`Deployment::network`] keeps the original neuron kind
/// and parameters; only the weights change.
pub fn deploy(net: &Network, cfg: DeployConfig, rng: &mut Rng) -> Deployment {
    let quantizer = Quantizer::new(cfg.bits);
    let variation = VariationModel::new(cfg.deviation);
    let mut hw_net = net.clone();
    let mut crossbars = Vec::with_capacity(net.layers().len());
    let mut reports = Vec::with_capacity(net.layers().len());

    for (l, layer) in hw_net.layers_mut().iter_mut().enumerate() {
        let original = layer.weights().clone();
        let mut xbar = Crossbar::program(&original, quantizer, cfg.g_max);
        if cfg.deviation > 0.0 {
            xbar.apply_variation(variation, rng);
        }
        let effective = xbar.effective_weights();
        let mut sum_err = 0.0f64;
        let mut max_err = 0.0f32;
        for (a, b) in original.as_slice().iter().zip(effective.as_slice()) {
            let e = (a - b).abs();
            sum_err += e as f64;
            max_err = max_err.max(e);
        }
        let n = original.as_slice().len().max(1);
        reports.push(LayerReport {
            layer: l,
            devices: xbar.device_count(),
            mean_abs_error: (sum_err / n as f64) as f32,
            max_abs_error: max_err,
        });
        *layer.weights_mut() = effective;
        crossbars.push(xbar);
    }
    // The weight swap above bumped each layer's cache epoch; the first
    // forward pass on the deployed network rebuilds the event-driven
    // kernel mirrors lazily, so no manual synchronisation is needed.

    Deployment {
        network: hw_net,
        crossbars,
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::{NeuronKind, SpikeRaster};
    use snn_neuron::NeuronParams;

    fn trained_like_net(seed: u64) -> Network {
        let mut rng = Rng::seed_from(seed);
        Network::mlp(
            &[6, 10, 4],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        )
    }

    #[test]
    fn ideal_deployment_preserves_behaviour_at_high_precision() {
        let net = trained_like_net(1);
        let mut rng = Rng::seed_from(2);
        let cfg = DeployConfig {
            bits: 12,
            deviation: 0.0,
            g_max: 1e-4,
        };
        let dep = deploy(&net, cfg, &mut rng);
        let input = SpikeRaster::from_events(15, 6, &[(0, 0), (2, 1), (3, 3), (7, 5), (9, 2)]);
        let a = net.forward(&input).output_raster();
        let b = dep.network.forward(&input).output_raster();
        assert_eq!(a, b, "12-bit quantization should not change spikes");
    }

    #[test]
    fn quantization_error_shrinks_with_bits() {
        let net = trained_like_net(3);
        let mut rng = Rng::seed_from(4);
        let e4 = deploy(&net, DeployConfig::four_bit(), &mut rng).reports[0].mean_abs_error;
        let e5 = deploy(&net, DeployConfig::five_bit(), &mut rng).reports[0].mean_abs_error;
        assert!(e5 < e4, "5-bit should be more accurate: {e5} vs {e4}");
    }

    #[test]
    fn variation_increases_error() {
        let net = trained_like_net(5);
        let mut rng = Rng::seed_from(6);
        let clean = deploy(&net, DeployConfig::four_bit(), &mut rng).reports[0].mean_abs_error;
        let mut rng = Rng::seed_from(6);
        let noisy = deploy(&net, DeployConfig::four_bit().with_deviation(0.4), &mut rng).reports[0]
            .mean_abs_error;
        assert!(noisy > clean);
    }

    #[test]
    fn deployment_keeps_neuron_kind_and_shape() {
        let mut net = trained_like_net(7);
        net.set_neuron_kind(NeuronKind::HardReset);
        let mut rng = Rng::seed_from(8);
        let dep = deploy(&net, DeployConfig::four_bit(), &mut rng);
        assert!(dep
            .network
            .layers()
            .iter()
            .all(|l| l.kind() == NeuronKind::HardReset));
        assert_eq!(dep.network.n_in(), 6);
        assert_eq!(dep.network.n_out(), 4);
        assert_eq!(dep.crossbars.len(), 2);
        assert_eq!(dep.total_devices(), 2 * (6 * 10 + 10 * 4));
    }

    #[test]
    fn deployment_is_seed_deterministic() {
        let net = trained_like_net(9);
        let run = |seed| {
            let mut rng = Rng::seed_from(seed);
            deploy(&net, DeployConfig::four_bit().with_deviation(0.3), &mut rng)
                .network
                .layers()[0]
                .weights()
                .clone()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn network_weights_match_crossbar_effective_weights() {
        let net = trained_like_net(11);
        let mut rng = Rng::seed_from(12);
        let dep = deploy(&net, DeployConfig::four_bit().with_deviation(0.2), &mut rng);
        for (layer, xbar) in dep.network.layers().iter().zip(&dep.crossbars) {
            assert_eq!(layer.weights(), &xbar.effective_weights());
        }
    }
}
