//! First-order optimizers: SGD (with momentum), Adam, and the paper's
//! AdamW (Table I).

use crate::train::Gradients;
use crate::Network;
use snn_tensor::Matrix;

/// A stateful first-order optimizer over a network's weight matrices.
///
/// State (momentum / moment estimates) is allocated lazily on the first
/// [`step`](Optimizer::step) to match the network's layer shapes.
///
/// # Examples
///
/// ```
/// use snn_core::train::Optimizer;
///
/// let opt = Optimizer::adamw(1e-4, 0.01);
/// assert!(format!("{opt:?}").contains("AdamW"));
/// ```
#[derive(Debug, Clone)]
pub enum Optimizer {
    /// Stochastic gradient descent with optional momentum.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient (0 disables).
        momentum: f32,
        /// Per-layer velocity buffers.
        velocity: Vec<Matrix>,
    },
    /// Adam (Kingma & Ba).
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay β₁.
        beta1: f32,
        /// Second-moment decay β₂.
        beta2: f32,
        /// Numerical-stability epsilon.
        eps: f32,
        /// Step counter for bias correction.
        t: u64,
        /// First-moment estimates.
        m: Vec<Matrix>,
        /// Second-moment estimates.
        v: Vec<Matrix>,
    },
    /// AdamW: Adam with decoupled weight decay (the paper's optimizer).
    AdamW {
        /// Learning rate.
        lr: f32,
        /// First-moment decay β₁.
        beta1: f32,
        /// Second-moment decay β₂.
        beta2: f32,
        /// Numerical-stability epsilon.
        eps: f32,
        /// Decoupled weight-decay coefficient.
        weight_decay: f32,
        /// Step counter for bias correction.
        t: u64,
        /// First-moment estimates.
        m: Vec<Matrix>,
        /// Second-moment estimates.
        v: Vec<Matrix>,
    },
}

impl Optimizer {
    /// Plain SGD.
    pub fn sgd(lr: f32) -> Self {
        Self::Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with momentum.
    pub fn sgd_momentum(lr: f32, momentum: f32) -> Self {
        Self::Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Adam with the standard `β₁ = 0.9`, `β₂ = 0.999`.
    pub fn adam(lr: f32) -> Self {
        Self::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// AdamW (paper Table I) with the given decoupled weight decay.
    pub fn adamw(lr: f32, weight_decay: f32) -> Self {
        Self::AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        match self {
            Self::Sgd { lr, .. } | Self::Adam { lr, .. } | Self::AdamW { lr, .. } => *lr,
        }
    }

    /// Updates the learning rate (for schedules).
    pub fn set_learning_rate(&mut self, new_lr: f32) {
        match self {
            Self::Sgd { lr, .. } | Self::Adam { lr, .. } | Self::AdamW { lr, .. } => *lr = new_lr,
        }
    }

    /// Applies one optimization step to every layer of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the network's layer structure, or
    /// if the network's shape changed between steps.
    pub fn step(&mut self, net: &mut Network, grads: &Gradients) {
        let layers = net.layers_mut();
        assert_eq!(
            layers.len(),
            grads.per_layer.len(),
            "gradient/layer count mismatch"
        );
        match self {
            Self::Sgd {
                lr,
                momentum,
                velocity,
            } => {
                ensure_state(velocity, layers.iter().map(|l| l.weights().shape()));
                for ((layer, g), vel) in layers.iter_mut().zip(&grads.per_layer).zip(velocity) {
                    let mut w = layer.weights_mut();
                    if *momentum > 0.0 {
                        vel.scale(*momentum);
                        vel.add_scaled(1.0, g);
                        w.add_scaled(-*lr, vel);
                    } else {
                        w.add_scaled(-*lr, g);
                    }
                }
            }
            Self::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            } => {
                ensure_state(m, layers.iter().map(|l| l.weights().shape()));
                ensure_state(v, layers.iter().map(|l| l.weights().shape()));
                *t += 1;
                let bc1 = 1.0 - beta1.powi(*t as i32);
                let bc2 = 1.0 - beta2.powi(*t as i32);
                for (i, (layer, g)) in layers.iter_mut().zip(&grads.per_layer).enumerate() {
                    adam_update(
                        &mut layer.weights_mut(),
                        g,
                        &mut m[i],
                        &mut v[i],
                        *lr,
                        *beta1,
                        *beta2,
                        *eps,
                        bc1,
                        bc2,
                    );
                }
            }
            Self::AdamW {
                lr,
                beta1,
                beta2,
                eps,
                weight_decay,
                t,
                m,
                v,
            } => {
                ensure_state(m, layers.iter().map(|l| l.weights().shape()));
                ensure_state(v, layers.iter().map(|l| l.weights().shape()));
                *t += 1;
                let bc1 = 1.0 - beta1.powi(*t as i32);
                let bc2 = 1.0 - beta2.powi(*t as i32);
                for (i, (layer, g)) in layers.iter_mut().zip(&grads.per_layer).enumerate() {
                    let mut w = layer.weights_mut();
                    // Decoupled decay: w ← w − lr·wd·w, independent of the
                    // adaptive gradient scaling (Loshchilov & Hutter).
                    if *weight_decay > 0.0 {
                        w.scale(1.0 - *lr * *weight_decay);
                    }
                    adam_update(
                        &mut w, g, &mut m[i], &mut v[i], *lr, *beta1, *beta2, *eps, bc1, bc2,
                    );
                }
            }
        }
    }
}

fn ensure_state(buffers: &mut Vec<Matrix>, shapes: impl Iterator<Item = (usize, usize)>) {
    let shapes: Vec<_> = shapes.collect();
    if buffers.len() != shapes.len() {
        *buffers = shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect();
    } else {
        for (b, &(r, c)) in buffers.iter().zip(&shapes) {
            assert_eq!(
                b.shape(),
                (r, c),
                "network shape changed under the optimizer"
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn adam_update(
    w: &mut Matrix,
    g: &Matrix,
    m: &mut Matrix,
    v: &mut Matrix,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bias_corr1: f32,
    bias_corr2: f32,
) {
    let ws = w.as_mut_slice();
    let gs = g.as_slice();
    let ms = m.as_mut_slice();
    let vs = v.as_mut_slice();
    for i in 0..ws.len() {
        ms[i] = beta1 * ms[i] + (1.0 - beta1) * gs[i];
        vs[i] = beta2 * vs[i] + (1.0 - beta2) * gs[i] * gs[i];
        let m_hat = ms[i] / bias_corr1;
        let v_hat = vs[i] / bias_corr2;
        ws[i] -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NeuronKind, SpikeRaster};
    use snn_neuron::NeuronParams;
    use snn_tensor::Rng;

    fn net() -> Network {
        let mut rng = Rng::seed_from(4);
        Network::mlp(
            &[2, 3, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        )
    }

    fn unit_grads(net: &Network) -> Gradients {
        let mut g = Gradients::zeros_like(net);
        for m in &mut g.per_layer {
            m.map_inplace(|_| 1.0);
        }
        g
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut n = net();
        let w0 = n.layers()[0].weights()[(0, 0)];
        let g = unit_grads(&n);
        Optimizer::sgd(0.1).step(&mut n, &g);
        assert!((n.layers()[0].weights()[(0, 0)] - (w0 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut plain = net();
        let mut with_mom = plain.clone();
        let g = unit_grads(&plain);
        let mut o1 = Optimizer::sgd(0.1);
        let mut o2 = Optimizer::sgd_momentum(0.1, 0.9);
        for _ in 0..5 {
            o1.step(&mut plain, &g);
            o2.step(&mut with_mom, &g);
        }
        // After several identical steps momentum has moved further.
        let d1 = plain.layers()[0].weights()[(0, 0)];
        let d2 = with_mom.layers()[0].weights()[(0, 0)];
        assert!(
            d2 < d1,
            "momentum should have travelled further: {d2} vs {d1}"
        );
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam step ≈ lr·sign(g).
        let mut n = net();
        let w0 = n.layers()[0].weights()[(0, 0)];
        let g = unit_grads(&n);
        Optimizer::adam(0.01).step(&mut n, &g);
        let moved = w0 - n.layers()[0].weights()[(0, 0)];
        assert!((moved - 0.01).abs() < 1e-4, "moved {moved}");
    }

    #[test]
    fn adamw_decays_weights_decoupled() {
        let mut n = net();
        // Zero gradients: AdamW should still shrink the weights.
        let g = Gradients::zeros_like(&n);
        let w0 = n.layers()[0].weights()[(0, 0)];
        let mut opt = Optimizer::adamw(0.1, 0.5);
        opt.step(&mut n, &g);
        let w1 = n.layers()[0].weights()[(0, 0)];
        assert!((w1 - w0 * (1.0 - 0.1 * 0.5)).abs() < 1e-6);
    }

    #[test]
    fn plain_adam_does_not_decay_on_zero_grad() {
        let mut n = net();
        let g = Gradients::zeros_like(&n);
        let w0 = n.layers()[0].weights()[(0, 0)];
        Optimizer::adam(0.1).step(&mut n, &g);
        assert_eq!(n.layers()[0].weights()[(0, 0)], w0);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Optimizer::adamw(1e-4, 0.01);
        assert_eq!(opt.learning_rate(), 1e-4);
        opt.set_learning_rate(5e-5);
        assert_eq!(opt.learning_rate(), 5e-5);
    }

    #[test]
    fn state_persists_across_steps() {
        let mut n = net();
        let g = unit_grads(&n);
        let mut opt = Optimizer::adam(0.01);
        opt.step(&mut n, &g);
        if let Optimizer::Adam { t, m, .. } = &opt {
            assert_eq!(*t, 1);
            assert!(m[0].max_abs() > 0.0);
        } else {
            panic!("expected Adam");
        }
        opt.step(&mut n, &g);
        if let Optimizer::Adam { t, .. } = &opt {
            assert_eq!(*t, 2);
        }
    }

    #[test]
    fn forward_reads_the_weights_every_optimizer_writes() {
        // The event-driven forward reads each layer's column-major copy
        // of the weights; after a step it must agree with the dense
        // reference on the new weights, compared as the core property
        // tests do: potentials to tolerance, spike trains exactly.
        let mut rng = Rng::seed_from(21);
        let mut events = Vec::new();
        for t in 0..30 {
            for c in 0..12 {
                if rng.coin(0.3) {
                    events.push((t, c));
                }
            }
        }
        let input = SpikeRaster::from_events(30, 12, &events);
        for mut opt in [
            Optimizer::sgd(0.5),
            Optimizer::adam(0.2),
            Optimizer::adamw(0.2, 0.5),
        ] {
            let mut rng = Rng::seed_from(22);
            let mut n = Network::mlp(
                &[12, 16, 4],
                NeuronKind::Adaptive,
                NeuronParams::paper_defaults().with_v_th(0.5),
                &mut rng,
            );
            let before = n.forward(&input);
            let mut g = Gradients::zeros_like(&n);
            for m in &mut g.per_layer {
                m.map_inplace(|_| rng.uniform(-1.0, 1.0));
            }
            opt.step(&mut n, &g);
            let fast = n.forward(&input);
            let reference = n.forward_dense_reference(&input);
            // The step is large enough to change the spikes, so a
            // forward over the pre-step weights could not pass below.
            assert!(before
                .records
                .iter()
                .zip(&reference.records)
                .any(|(b, r)| b.o != r.o));
            for (l, (f, r)) in fast.records.iter().zip(&reference.records).enumerate() {
                for (a, b) in f.v.as_slice().iter().zip(r.v.as_slice()) {
                    assert!(
                        (a - b).abs() < 1e-3 * (1.0 + b.abs()),
                        "layer {l}: v {a} vs {b}"
                    );
                }
                assert_eq!(f.o, r.o, "layer {l} spikes");
            }
        }
    }

    #[test]
    fn adam_descends_a_quadratic() {
        // Minimise 0.5·(w−3)² for a single-weight "network" stand-in:
        // run Adam on explicit gradients and check convergence.
        let mut rng = Rng::seed_from(8);
        let mut n = Network::mlp(
            &[1, 1],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let mut opt = Optimizer::adam(0.05);
        for _ in 0..2000 {
            let w = n.layers()[0].weights()[(0, 0)];
            let mut g = Gradients::zeros_like(&n);
            g.per_layer[0][(0, 0)] = w - 3.0;
            opt.step(&mut n, &g);
        }
        let w = n.layers()[0].weights()[(0, 0)];
        assert!((w - 3.0).abs() < 0.05, "converged to {w}");
    }
}
