//! Quickstart: build, train, and *serve* a small adaptive-threshold SNN.
//!
//! Trains the paper's neuron model on a miniature temporal task —
//! classifying which of two channels spikes *first* — which is
//! impossible for a pure rate model (both classes have identical spike
//! counts), then serves the **same trained network** three ways:
//!
//! * `sparse`   — the event-driven production kernels,
//! * `dense`    — the per-step matrix–vector reference,
//! * `hardware` — the event-driven kernels over a quantized RRAM
//!   crossbar deployment's effective weights.
//!
//! Run with: `cargo run --release --example quickstart`

use neurosnn::core::train::{Optimizer, RateCrossEntropy, Trainer, TrainerConfig};
use neurosnn::core::{Network, NeuronKind, SpikeRaster};
use neurosnn::engine::{hardware, Backend, DeployConfig, Engine};
use neurosnn::neuron::NeuronParams;
use neurosnn::tensor::Rng;

fn make_sample(first_channel: usize, steps: usize, rng: &mut Rng) -> SpikeRaster {
    // A short burst on `first_channel`, then a burst on the other one;
    // equal spike counts, only the order differs. Small timing jitter
    // makes each sample unique.
    let mut r = SpikeRaster::zeros(steps, 2);
    let other = 1 - first_channel;
    let jitter = rng.below(3);
    for s in 0..4 {
        r.set(jitter + s, first_channel, true);
        r.set(steps - 1 - jitter - s, other, true);
    }
    r
}

fn main() {
    let steps = 24;
    let mut rng = Rng::seed_from(42);

    // 40 training samples, 20 per class.
    let mut data = Vec::new();
    for _ in 0..20 {
        data.push((make_sample(0, steps, &mut rng), 0usize));
        data.push((make_sample(1, steps, &mut rng), 1usize));
    }

    println!("temporal-order task: {} samples, 2 classes", data.len());
    println!("(both classes have identical per-channel spike counts)");

    let mut net = Network::mlp(
        &[2, 24, 2],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.3),
        &mut rng,
    );
    println!(
        "network: 2-24-2 adaptive-threshold LIF, {} parameters",
        net.parameter_count()
    );

    let mut trainer = Trainer::new(TrainerConfig {
        batch_size: 8,
        optimizer: Optimizer::adam(0.01),
        ..TrainerConfig::default()
    });

    for epoch in 0..100 {
        let stats = trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
        if epoch % 20 == 0 || epoch == 99 {
            println!(
                "epoch {epoch:>3}: loss {:.4}, accuracy {:.1}%",
                stats.mean_loss,
                stats.accuracy * 100.0
            );
        }
    }

    // --- Serve the unmodified trained network: both backends, and a
    // 5-bit crossbar deployment of it ---
    println!("\nserving the trained network through Engine:");
    let engines = [
        (
            "sparse",
            Engine::from_network(net.clone())
                .backend(Backend::Sparse)
                .build(),
        ),
        (
            "dense",
            Engine::from_network(net.clone())
                .backend(Backend::Dense)
                .build(),
        ),
        (
            "hardware",
            Engine::from_network(hardware(&net, DeployConfig::five_bit(), 7)).build(),
        ),
    ];
    for (label, engine) in &engines {
        println!(
            "  {label:<8} backend: accuracy {:.1}%",
            engine.evaluate(&data) * 100.0
        );
    }

    // Low-latency path: one session, every buffer reused across calls.
    let mut session = engines[0].1.session();
    for class in 0..2 {
        let sample = make_sample(class, steps, &mut rng);
        let (pred, probs) = session.classify_with_probs(&sample);
        println!("\nclass {class} sample (channels over time):");
        print!("{}", sample.render_ascii(2));
        println!(
            "prediction: {pred}  probabilities: [{:.3}, {:.3}]",
            probs[0], probs[1]
        );
    }
}
