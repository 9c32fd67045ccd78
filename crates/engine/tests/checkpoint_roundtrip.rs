//! Checkpoint load-path parity: a trained network saved to JSON and
//! restored through `checkpoint::load` (the loader behind `Engine::load`)
//! must predict identically to the in-memory engine on the sparse, dense
//! and deployed-hardware engines — not just construct.

use snn_core::train::{Optimizer, RateCrossEntropy, Trainer, TrainerConfig};
use snn_core::{checkpoint, Network, NeuronKind, SpikeRaster};
use snn_engine::{hardware, Backend, DeployConfig, Engine};
use snn_neuron::NeuronParams;
use snn_tensor::Rng;

fn trained_net() -> Network {
    let mut rng = Rng::seed_from(21);
    let mut net = Network::mlp(
        &[6, 16, 3],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.35),
        &mut rng,
    );
    // A short real training run, so the checkpoint carries non-initial
    // weights shaped by the optimizer (the load path must reproduce
    // exactly these, not a fresh init).
    let data: Vec<(SpikeRaster, usize)> = (0..3)
        .map(|class| {
            let mut r = SpikeRaster::zeros(14, 6);
            for s in 0..4 {
                r.set(s + class, class * 2, true);
                r.set(13 - s, class * 2 + 1, true);
            }
            (r, class)
        })
        .collect();
    let mut trainer = Trainer::new(TrainerConfig {
        batch_size: 3,
        optimizer: Optimizer::adam(0.01),
        ..TrainerConfig::default()
    });
    for _ in 0..15 {
        trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
    }
    net
}

fn eval_inputs(n: usize, seed: u64) -> Vec<SpikeRaster> {
    let mut rng = Rng::seed_from(seed);
    (0..n)
        .map(|_| {
            let mut r = SpikeRaster::zeros(14, 6);
            for t in 0..14 {
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
fn loaded_engine_matches_in_memory_engine_on_all_backends() {
    let net = trained_net();
    let path = std::env::temp_dir().join("neurosnn_engine_ckpt_parity.json");
    checkpoint::save(&net, &path).expect("save checkpoint");
    let inputs = eval_inputs(24, 22);

    type EngineCtor = fn(Network) -> Engine;
    let engines: Vec<(&str, EngineCtor)> = vec![
        ("sparse", |net| {
            Engine::from_network(net).backend(Backend::Sparse).build()
        }),
        ("dense", |net| {
            Engine::from_network(net).backend(Backend::Dense).build()
        }),
        ("hardware", |net| {
            let cfg = DeployConfig::five_bit().with_deviation(0.1);
            Engine::from_network(hardware(&net, cfg, 77)).build()
        }),
    ];
    for (label, engine) in engines {
        let in_memory = engine(net.clone());
        let loaded = engine(checkpoint::load(&path).expect("load checkpoint"));
        assert_eq!(loaded.backend().label(), in_memory.backend().label());
        // Batched predictions match…
        assert_eq!(
            loaded.classify_batch(&inputs),
            in_memory.classify_batch(&inputs),
            "{label}: batched load-path parity"
        );
        // …and so does the per-sample session hot path.
        let mut s_loaded = loaded.session();
        let mut s_memory = in_memory.session();
        for input in &inputs {
            assert_eq!(
                s_loaded.classify(input),
                s_memory.classify(input),
                "{label}: session load-path parity"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}
