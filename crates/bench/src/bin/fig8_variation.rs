//! Fig. 8 — classification accuracy under conductance quantization and
//! process variation.
//!
//! Trains the N-MNIST classification model (as in §V-A), deploys it on
//! simulated RRAM crossbars at 4-bit and 5-bit precision, sweeps the
//! relative resistance deviation from 0 to 0.5, and reports mean ± std
//! accuracy over several variation seeds — the same two curves the
//! paper plots.
//!
//! Usage: `fig8_variation [--scale small|medium|paper] [--seeds N]
//! [--epochs N] [--seed N]`

use bench::{banner, Args, Scale};
use snn_core::config::Hyperparams;
use snn_core::train::{Optimizer, RateCrossEntropy, Trainer, TrainerConfig};
use snn_core::{Network, NeuronKind};
use snn_data::nmnist::{generate, NmnistConfig};
use snn_engine::{deploy, hardware, Backend, DeployConfig, Engine};
use snn_hardware::faults::FaultModel;
use snn_tensor::{stats, Rng};

fn main() {
    let args = Args::parse();
    let scale = args.scale();
    let seed = args.get_u64("seed", 7);
    let n_seeds = args.get_usize("seeds", 5);

    banner("Fig. 8: accuracy vs quantization level and process variation");
    println!("{}", Hyperparams::table1());

    let (cfg, hidden, epochs) = match scale {
        Scale::Small => (
            NmnistConfig {
                samples_per_class: 8,
                ..NmnistConfig::small()
            },
            vec![64],
            10,
        ),
        Scale::Medium => (
            NmnistConfig {
                width: 20,
                height: 20,
                steps: 60,
                samples_per_class: 30,
                dvs_threshold: 0.12,
                saccade_amplitude: 4.0,
                ..NmnistConfig::paper()
            },
            vec![128, 128],
            15,
        ),
        Scale::Paper => (NmnistConfig::paper(), vec![500, 500], 30),
    };
    let epochs = args.get_usize("epochs", epochs);

    // --- Train the software model ---
    let mut rng = Rng::seed_from(seed);
    let split = generate(&cfg, seed).split(0.25, &mut rng);
    let mut sizes = vec![cfg.channels()];
    sizes.extend_from_slice(&hidden);
    sizes.push(10);
    let mut net = Network::mlp(
        &sizes,
        NeuronKind::Adaptive,
        Hyperparams::table1().neuron_params().with_v_th(0.5),
        &mut rng,
    );
    let mut trainer = Trainer::new(TrainerConfig {
        batch_size: 64,
        optimizer: Optimizer::adamw(1e-3, 0.0),
        ..TrainerConfig::default()
    });
    for epoch in 0..epochs {
        let s = trainer.epoch_classification(&mut net, &split.train, &RateCrossEntropy);
        if epoch % 5 == 0 || epoch + 1 == epochs {
            println!(
                "  training epoch {epoch}: loss {:.4}, acc {:.2}%",
                s.mean_loss,
                s.accuracy * 100.0
            );
        }
    }
    let sw_engine = Engine::from_network(net.clone())
        .backend(Backend::Sparse)
        .build();
    let sw_acc = sw_engine.evaluate(&split.test);
    println!("software test accuracy: {:.2}%\n", sw_acc * 100.0);

    // --- Sweep quantization x variation: each operating point is an
    // engine over one deployment's effective network (evaluation is the
    // shared batched path) ---
    println!("deviation |   4-bit acc (mean +/- std)   |   5-bit acc (mean +/- std)");
    let deviations: Vec<f32> = (0..=10).map(|i| i as f32 * 0.05).collect();
    let mut rows = Vec::new();
    for &sigma in &deviations {
        let mut cols = Vec::new();
        for bits in [4u8, 5] {
            let accs: Vec<f32> = (0..n_seeds)
                .map(|s| {
                    // Parenthesized so the trial/bits tag is XORed as one
                    // unit: `^` binds looser than `<<` but tighter than
                    // `|`, and the old `.. ^ s << 8 | bits` OR-ed `bits`
                    // into an already-odd seed, giving the 4- and 5-bit
                    // sweeps identical variation draws.
                    let dep_seed = seed ^ 0xF18 ^ (((s as u64) << 8) | bits as u64);
                    let cfg = DeployConfig {
                        bits,
                        deviation: sigma,
                        g_max: 1e-4,
                    };
                    let engine = Engine::from_network(hardware(&net, cfg, dep_seed)).build();
                    engine.evaluate(&split.test)
                })
                .collect();
            cols.push((stats::mean(&accs), stats::std_dev(&accs)));
        }
        println!(
            "   {sigma:.2}   |      {:>6.2}% +/- {:>5.2}%       |      {:>6.2}% +/- {:>5.2}%",
            cols[0].0 * 100.0,
            cols[0].1 * 100.0,
            cols[1].0 * 100.0,
            cols[1].1 * 100.0
        );
        rows.push((sigma, cols[0].0, cols[1].0));
    }

    // Extension beyond the paper: stuck-at-fault sweep at fixed 5-bit
    // precision (dead devices are the dominant RRAM yield failure).
    if args.flag("faults") {
        println!("\nextension: stuck-off fault sweep (5-bit, no variation)");
        println!("p(stuck-off) | accuracy (mean +/- std over {n_seeds} seeds)");
        for p in [0.0f32, 0.01, 0.02, 0.05, 0.1, 0.2] {
            let accs: Vec<f32> = (0..n_seeds)
                .map(|s| {
                    let mut dep_rng = Rng::seed_from(seed ^ 0xFA17 ^ (s as u64));
                    let mut dep = deploy(&net, DeployConfig::five_bit(), &mut dep_rng);
                    for (xbar, layer) in dep.crossbars.iter_mut().zip(dep.network.layers_mut()) {
                        FaultModel::stuck_off(p).inject(xbar, &mut dep_rng);
                        *layer.weights_mut() = xbar.effective_weights();
                    }
                    // The mutated effective network is served by an
                    // ordinary engine, so evaluation stays on the one
                    // shared batched path.
                    let engine = Engine::from_network(dep.network).build();
                    engine.evaluate(&split.test)
                })
                .collect();
            println!(
                "    {p:.2}     | {:>6.2}% +/- {:>5.2}%",
                stats::mean(&accs) * 100.0,
                stats::std_dev(&accs) * 100.0
            );
        }
    }

    println!("\nPaper reference (real N-MNIST): 98.4% software; 4-bit @ 0.2 deviation 97.97%;");
    println!("5-bit curve above 4-bit; graceful monotone degradation up to 0.5.");
    let at0 = rows[0];
    let at_half = rows[rows.len() - 1];
    println!(
        "\nShape check: 4-bit {:.1}% -> {:.1}% and 5-bit {:.1}% -> {:.1}% across the sweep.",
        at0.1 * 100.0,
        at_half.1 * 100.0,
        at0.2 * 100.0,
        at_half.2 * 100.0
    );
}
