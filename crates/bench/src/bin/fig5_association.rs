//! Fig. 5 — spatial-temporal pattern association (paper §V-B).
//!
//! Trains a feedforward SNN to emit the spike raster of a handwritten
//! digit whenever it is shown the corresponding synthetic spoken digit,
//! using the van Rossum kernel loss (eqs. 15–16). Prints example
//! input/target/output rasters like the paper's figure, plus a
//! quantitative nearest-target identification score.
//!
//! Usage: `fig5_association [--scale small|medium|paper] [--epochs N] [--seed N]`

use bench::{banner, Args, Scale};
use snn_core::config::Hyperparams;
use snn_core::spike::TraceKernel;
use snn_core::train::{Optimizer, Trainer, TrainerConfig, VanRossumLoss};
use snn_core::{Network, NeuronKind};
use snn_data::association::{generate, nearest_target, AssociationConfig};
use snn_data::shd::ShdConfig;
use snn_tensor::Rng;

fn main() {
    let args = Args::parse(&["seed", "scale", "epochs"]);
    let seed = args.get_u64("seed", 5);
    let scale = args.scale();
    banner("Fig. 5: spatial-temporal pattern association");
    println!("{}", Hyperparams::table1());

    let (cfg, hidden, epochs, lr) = match scale {
        Scale::Small => (
            AssociationConfig {
                shd: ShdConfig {
                    channels: 64,
                    steps: 48,
                    classes: 10,
                    samples_per_class: 2,
                    ..ShdConfig::small()
                },
                target_channels: 32,
                samples_per_digit: 2,
            },
            vec![128],
            80,
            5e-3,
        ),
        Scale::Medium => (
            AssociationConfig {
                shd: ShdConfig {
                    channels: 128,
                    steps: 80,
                    classes: 10,
                    samples_per_class: 6,
                    ..ShdConfig::paper()
                },
                target_channels: 64,
                samples_per_digit: 6,
            },
            vec![200, 200],
            60,
            2e-3,
        ),
        // The paper's 700-500-500-300 with 1000 samples of length 300.
        Scale::Paper => (AssociationConfig::paper(), vec![500, 500], 100, 1e-3),
    };
    let epochs = args.get_usize("epochs", epochs);

    let ds = generate(&cfg, seed);
    println!(
        "\n{} pairs; input {}x{}, target {}x{}, net {:?}",
        ds.pairs.len(),
        cfg.shd.steps,
        cfg.shd.channels,
        cfg.shd.steps,
        cfg.target_channels,
        {
            let mut s = vec![cfg.shd.channels];
            s.extend_from_slice(&hidden);
            s.push(cfg.target_channels);
            s
        }
    );

    let mut rng = Rng::seed_from(seed);
    let mut sizes = vec![cfg.shd.channels];
    sizes.extend_from_slice(&hidden);
    sizes.push(cfg.target_channels);
    let mut net = Network::mlp(
        &sizes,
        NeuronKind::Adaptive,
        Hyperparams::table1().neuron_params().with_v_th(0.3),
        &mut rng,
    );
    let mut trainer = Trainer::new(TrainerConfig {
        batch_size: 10,
        optimizer: Optimizer::adamw(lr, 0.0),
        ..TrainerConfig::default()
    });
    let loss = VanRossumLoss::paper_default();

    for epoch in 0..epochs {
        let stats = trainer.epoch_pattern(&mut net, &ds.pairs, &loss);
        if epoch % 10 == 0 || epoch + 1 == epochs {
            println!("epoch {epoch:>3}: van Rossum loss {:.4}", stats.mean_loss);
        }
    }

    // Quantitative readout: nearest canonical target identification.
    let kernel = TraceKernel::paper_defaults();
    let mut correct = 0;
    for (i, (input, _)) in ds.pairs.iter().enumerate() {
        let produced = net.forward(input).output_raster();
        if nearest_target(&produced, &ds.targets, kernel) == ds.labels[i] {
            correct += 1;
        }
    }
    println!(
        "\nnearest-target digit identification: {}/{} ({:.1}%)",
        correct,
        ds.pairs.len(),
        100.0 * correct as f32 / ds.pairs.len() as f32
    );

    // Fig. 5-style panels for the first sample of three digits.
    for digit in [0usize, 1, 2] {
        if let Some(i) = ds.labels.iter().position(|&l| l == digit) {
            let (input, target) = &ds.pairs[i];
            let produced = net.forward(input).output_raster();
            println!("\n--- digit {digit} ---");
            println!("input (synthetic spoken digit):");
            print!("{}", input.render_ascii(10));
            println!("target (digit glyph as spikes):");
            print!("{}", target.render_ascii(10));
            println!("network output:");
            print!("{}", produced.render_ascii(10));
        }
    }
}
