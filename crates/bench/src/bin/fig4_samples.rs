//! Fig. 4 — dataset samples: a synthetic N-MNIST recording and a
//! synthetic SHD sample, rendered as spike rasters.
//!
//! Usage: `fig4_samples [--digit D] [--shd-class C] [--seed N]`

use bench::{banner, Args};
use snn_data::{nmnist, shd};
use snn_tensor::Rng;

fn main() {
    let args = Args::parse(&["seed", "digit", "shd-class"]);
    let seed = args.get_u64("seed", 3);
    let digit = args.get_usize("digit", 7).min(9);
    let shd_class = args.get_usize("shd-class", 0);

    banner("Fig. 4: dataset samples");

    // (a) N-MNIST-like event recording.
    let ncfg = nmnist::NmnistConfig {
        width: 24,
        height: 24,
        steps: 80,
        ..nmnist::NmnistConfig::paper()
    };
    let mut rng = Rng::seed_from(seed);
    let sample = nmnist::simulate_sample(digit, &ncfg, &mut rng);
    println!(
        "\n(a) synthetic N-MNIST, digit {digit}: {} events over {} steps x {} channels",
        sample.spike_count(),
        sample.steps(),
        sample.channels()
    );
    println!("    (rows = channel groups, columns = time; '|' = spike)");
    print!("{}", sample.render_ascii(24));

    // (b) SHD-like auditory sample.
    let scfg = shd::ShdConfig {
        channels: 100,
        steps: 80,
        classes: 20,
        ..shd::ShdConfig::paper()
    };
    let mut rng = Rng::seed_from(seed ^ 0xA5);
    let sample = shd::simulate_sample(shd_class, &scfg, &mut rng);
    println!(
        "\n(b) synthetic SHD, class {shd_class}: {} events over {} steps x {} channels",
        sample.spike_count(),
        sample.steps(),
        sample.channels()
    );
    print!("{}", sample.render_ascii(25));

    // Its rate-identical partner: same channel histogram, different order.
    let partner = shd::paired_class(shd_class);
    let mut rng = Rng::seed_from(seed ^ 0xA5);
    let sample2 = shd::simulate_sample(partner, &scfg, &mut rng);
    println!("\n(b') partner class {partner} (same per-channel rates, different temporal order):");
    print!("{}", sample2.render_ascii(25));
}
