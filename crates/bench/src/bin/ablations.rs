//! Ablation studies over the design decisions DESIGN.md calls out:
//!
//! 1. reset kernel time constant τr (the soft-reset memory);
//! 2. synapse filter (τ → small = memoryless synapse);
//! 3. surrogate sharpness σ (eq. 14);
//! 4. surrogate family (erfc vs rectangle vs fast-sigmoid).
//!
//! Each ablation trains the same small SHD-like task and reports test
//! accuracy, so the contribution of each mechanism is measurable.
//!
//! Usage: `ablations [--seed N] [--epochs N] [--which taur|tau|sigma|family|all]`

use bench::{banner, Args};
use snn_core::train::{
    evaluate_classification, Optimizer, RateCrossEntropy, Trainer, TrainerConfig,
};
use snn_core::{Network, NeuronKind};
use snn_data::shd::{generate, ShdConfig};
use snn_data::Split;
use snn_neuron::{NeuronParams, Surrogate};
use snn_tensor::Rng;

fn dataset(seed: u64) -> Split {
    let cfg = ShdConfig {
        channels: 64,
        steps: 50,
        classes: 6,
        samples_per_class: 25,
        ..ShdConfig::small()
    };
    let mut rng = Rng::seed_from(seed);
    generate(&cfg, seed).split(0.25, &mut rng)
}

fn train_once(
    split: &Split,
    params: NeuronParams,
    surrogate: Surrogate,
    epochs: usize,
    seed: u64,
) -> f32 {
    let channels = split.train[0].0.channels();
    let mut rng = Rng::seed_from(seed);
    let mut net = Network::mlp(
        &[channels, 96, split.classes],
        NeuronKind::Adaptive,
        params,
        &mut rng,
    );
    let mut trainer = Trainer::new(TrainerConfig {
        batch_size: 16,
        surrogate,
        optimizer: Optimizer::adamw(1e-3, 0.0),
        ..TrainerConfig::default()
    });
    for _ in 0..epochs {
        trainer.epoch_classification(&mut net, &split.train, &RateCrossEntropy);
    }
    evaluate_classification(&net, &split.test)
}

fn main() {
    let args = Args::parse(&["seed", "epochs", "which"]);
    let seed = args.get_u64("seed", 7);
    let epochs = args.get_usize("epochs", 20);
    let which = args.get("which", "all").to_string();
    banner("Ablation studies");

    let split = dataset(seed);
    let base = NeuronParams::paper_defaults().with_v_th(0.5);
    let sur = Surrogate::paper_default();
    println!(
        "task: synthetic SHD, {} train / {} test, {} classes; {} epochs each\n",
        split.train.len(),
        split.test.len(),
        split.classes,
        epochs
    );

    if which == "taur" || which == "all" {
        println!("--- 1. reset-trace time constant tau_r (adaptive threshold memory) ---");
        for tau_r in [0.5f32, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let acc = train_once(&split, base.with_tau_r(tau_r), sur, epochs, seed);
            let marker = if tau_r == 4.0 { "  <- paper" } else { "" };
            println!("  tau_r = {tau_r:>4}: {:.1}%{marker}", acc * 100.0);
        }
    }

    if which == "tau" || which == "all" {
        println!("\n--- 2. synapse filter time constant tau (temporal memory) ---");
        for tau in [0.25f32, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let acc = train_once(&split, base.with_tau(tau), sur, epochs, seed);
            let marker = if tau == 4.0 {
                "  <- paper"
            } else if tau == 0.25 {
                "  (near-memoryless synapse)"
            } else {
                ""
            };
            println!("  tau = {tau:>5}: {:.1}%{marker}", acc * 100.0);
        }
    }

    if which == "sigma" || which == "all" {
        println!("\n--- 3. surrogate sharpness sigma (eq. 14) ---");
        let paper_sigma = 1.0 / std::f32::consts::TAU.sqrt();
        for sigma in [0.05f32, 0.1, paper_sigma, 1.0, 2.0, 5.0] {
            let acc = train_once(&split, base, Surrogate::Erfc { sigma }, epochs, seed);
            let marker = if (sigma - paper_sigma).abs() < 1e-6 {
                "  <- paper (1/sqrt(2pi))"
            } else {
                ""
            };
            println!("  sigma = {sigma:.4}: {:.1}%{marker}", acc * 100.0);
        }
    }

    if which == "family" || which == "all" {
        println!("\n--- 4. surrogate family ---");
        let families: [(&str, Surrogate); 3] = [
            ("erfc (paper)", Surrogate::paper_default()),
            ("rectangle w=0.5", Surrogate::Rect { width: 0.5 }),
            ("fast-sigmoid k=5", Surrogate::FastSigmoid { slope: 5.0 }),
        ];
        for (name, s) in families {
            let acc = train_once(&split, base, s, epochs, seed);
            println!("  {name:<18}: {:.1}%", acc * 100.0);
        }
    }
}
