//! Integration: train → deploy on non-ideal crossbars → evaluate — the
//! Fig. 8 pipeline — plus software/hardware dynamics equivalence checks.

use neurosnn::core::train::{Optimizer, RateCrossEntropy, Trainer, TrainerConfig};
use neurosnn::core::{Network, NeuronKind};
use neurosnn::data::nmnist::{generate, NmnistConfig};
use neurosnn::engine::{hardware, Backend, DeployConfig, Engine};
use neurosnn::hardware::deploy::deploy;
use neurosnn::hardware::faults::FaultModel;
use neurosnn::hardware::{transient, CircuitParams, Quantizer};
use neurosnn::neuron::NeuronParams;
use neurosnn::tensor::Rng;

fn trained_model() -> (Network, Vec<(neurosnn::core::SpikeRaster, usize)>) {
    let cfg = NmnistConfig {
        samples_per_class: 8,
        ..NmnistConfig::small()
    };
    let mut rng = Rng::seed_from(21);
    let split = generate(&cfg, 21).split(0.25, &mut rng);
    let mut net = Network::mlp(
        &[cfg.channels(), 64, 10],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.3),
        &mut rng,
    );
    let mut trainer = Trainer::new(TrainerConfig {
        batch_size: 16,
        optimizer: Optimizer::adamw(1e-3, 0.0),
        ..TrainerConfig::default()
    });
    for _ in 0..12 {
        trainer.epoch_classification(&mut net, &split.train, &RateCrossEntropy);
    }
    (net, split.test)
}

#[test]
fn fig8_pipeline_quantization_and_variation_degrade_gracefully() {
    let (net, test) = trained_model();
    let sw = Engine::from_network(net.clone())
        .backend(Backend::Sparse)
        .build()
        .evaluate(&test);
    assert!(sw > 0.5, "software model must work first: {sw}");

    // 5-bit clean deployment should track the software model closely
    // (an engine over the effective network, shared batched eval).
    let five = Engine::from_network(hardware(&net, DeployConfig::five_bit(), 1)).build();
    let acc5 = five.evaluate(&test);
    assert!(
        sw - acc5 < 0.15,
        "5-bit clean drop too large: {sw} -> {acc5}"
    );

    // Heavy variation must hurt at least as much as none (averaged over
    // seeds to avoid flaky single draws).
    let mean_acc = |sigma: f32| {
        let accs: Vec<f32> = (0..4)
            .map(|s| {
                let cfg = DeployConfig::four_bit().with_deviation(sigma);
                Engine::from_network(hardware(&net, cfg, 100 + s))
                    .build()
                    .evaluate(&test)
            })
            .collect();
        accs.iter().sum::<f32>() / accs.len() as f32
    };
    let clean = mean_acc(0.0);
    let noisy = mean_acc(0.5);
    assert!(
        noisy <= clean + 0.05,
        "0.5 deviation should not beat clean: {clean} vs {noisy}"
    );
}

#[test]
fn stuck_at_faults_reduce_accuracy_monotonically_in_expectation() {
    let (net, test) = trained_model();
    let acc_with_faults = |p: f32| {
        let mut total = 0.0;
        for s in 0..3 {
            let mut rng = Rng::seed_from(7 + s);
            let mut dep = deploy(&net, DeployConfig::five_bit(), &mut rng);
            for (xbar, layer) in dep.crossbars.iter_mut().zip(dep.network.layers_mut()) {
                FaultModel::stuck_off(p).inject(xbar, &mut rng);
                *layer.weights_mut() = xbar.effective_weights();
            }
            // The mutated effective network serves as an ordinary
            // engine; its kernel caches re-sync lazily after the weight
            // swap above.
            total += Engine::from_network(dep.network).build().evaluate(&test);
        }
        total / 3.0
    };
    let healthy = acc_with_faults(0.0);
    let broken = acc_with_faults(0.6);
    assert!(
        broken < healthy,
        "60% dead devices must hurt: {healthy} vs {broken}"
    );
}

#[test]
fn software_and_circuit_synapse_filters_agree() {
    // The discrete-time model's k[t] recursion and the RC transient
    // simulation must describe the same filter (up to the paper's
    // RC≈46 ns vs τ=4 step nominal mismatch, which we model exactly).
    let params = CircuitParams::paper();
    let spike_steps = [3usize, 4, 11];
    let trace = transient::simulate_neuron(&spike_steps, 20, &params);
    let per_step = trace.per_step(&trace.wordline);
    let alpha = (-params.step_seconds / params.rc_seconds()).exp();
    let charge = params.spike_amplitude * (1.0 - alpha);
    let mut k = 0.0f32;
    for (t, &sample) in per_step.iter().enumerate() {
        k = alpha * k
            + if spike_steps.contains(&t) {
                charge
            } else {
                0.0
            };
        assert!(
            (sample - k).abs() < 5e-3,
            "step {t}: circuit {sample} vs model {k}"
        );
    }
}

#[test]
fn quantizer_and_crossbar_compose_with_deploy() {
    // deploy()'s per-layer effective weights must equal quantizing the
    // original weights directly when no variation is applied.
    let (net, _) = trained_model();
    let mut rng = Rng::seed_from(5);
    let dep = deploy(&net, DeployConfig::four_bit(), &mut rng);
    let q = Quantizer::new(4);
    for (orig, hw) in net.layers().iter().zip(dep.network.layers()) {
        let expected = q.quantize_matrix(orig.weights());
        for (a, b) in expected.as_slice().iter().zip(hw.weights().as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
