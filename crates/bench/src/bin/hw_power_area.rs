//! §V-C — power, energy and area estimates for the neurosynaptic
//! circuit, regenerating the paper's reported numbers and extending the
//! estimate to the paper's full network layers, plus an engine-measured
//! workload (real spike activity from a serving session instead of the
//! paper's assumed reference counts).
//!
//! Usage: `hw_power_area [--steps N] [--spikes N]`

use bench::{banner, Args};
use snn_core::{Network, NeuronKind};
use snn_data::nmnist::{generate, NmnistConfig};
use snn_engine::Engine;
use snn_hardware::{power, CircuitParams};
use snn_neuron::NeuronParams;
use snn_tensor::Rng;

fn main() {
    let args = Args::parse(&["steps", "spikes"]);
    let steps = args.get_usize("steps", power::REFERENCE_STEPS);
    let spikes = args.get_usize("spikes", power::REFERENCE_SPIKES).min(steps);
    let params = CircuitParams::paper();

    banner("Section V-C: power, energy and area estimates");

    println!(
        "\nreference workload: {steps} steps x {:.0} ns, {spikes} input spikes",
        params.step_seconds * 1e9
    );
    let r = power::estimate(steps, spikes, &params);
    println!("single neuron + synapse circuit:");
    println!(
        "  minimum power  {:.3} mW   (paper: 1.067 mW)",
        r.min_w * 1e3
    );
    println!(
        "  maximum power  {:.3} mW   (paper: 1.965 mW)",
        r.max_w * 1e3
    );
    println!(
        "  average power  {:.3} mW   (paper: 1.110 mW)",
        r.avg_w * 1e3
    );
    println!(
        "  total energy   {:.3} nJ   (paper: 3.329 nJ)",
        r.energy_j * 1e9
    );

    let area = power::AreaBreakdown::paper();
    println!("\narea breakdown (mm^2):");
    println!("  comparator op-amp   {:.4}", area.comparator_opamp);
    println!("  bias op-amp         {:.4}", area.bias_opamp);
    println!("  filter capacitors   {:.4}", area.filter_capacitors);
    println!("  resistors           {:.4}", area.resistors);
    println!("  inverters + misc    {:.4}", area.inverters_misc);
    println!(
        "  total               {:.4}   (paper: ~0.0125 mm^2)",
        area.total_mm2()
    );

    // Extrapolation to the paper's network layers (neuron + filter
    // circuitry only; RRAM arrays excluded, as in the paper).
    println!("\nextrapolation to full layers (dynamics circuitry only):");
    for (name, n_in, n_out) in [
        ("N-MNIST layer 1 (2312 -> 500)", 2312usize, 500usize),
        ("N-MNIST layer 2 (500 -> 500)", 500, 500),
        ("SHD layer 1 (700 -> 400)", 700, 400),
        ("association output (500 -> 300)", 500, 300),
    ] {
        let layer = power::estimate_layer(steps, spikes, n_out, n_in, &params);
        println!(
            "  {name:<34} avg {:>8.2} mW, energy {:>8.2} nJ/sample",
            layer.avg_w * 1e3,
            layer.energy_j * 1e9
        );
    }

    // Duty-cycle sensitivity: energy vs input activity.
    println!("\nenergy vs input activity (300-step sample):");
    for s in [0usize, 7, 14, 30, 60, 150, 300] {
        let r = power::estimate(300, s, &params);
        println!(
            "  {s:>3} spikes: avg {:.3} mW, energy {:.3} nJ",
            r.avg_w * 1e3,
            r.energy_j * 1e9
        );
    }

    // --- Engine-measured workload (beyond the paper's fixed counts) ---
    // Serve a synthetic N-MNIST batch through an inference session and
    // feed the *measured* mean spike activity into the power model, so
    // the per-layer energy estimate reflects real event rates rather
    // than the reference workload's assumed spike count.
    let cfg = NmnistConfig {
        samples_per_class: 4,
        ..NmnistConfig::small()
    };
    let mut rng = Rng::seed_from(5);
    let split = generate(&cfg, 5).split(0.5, &mut rng);
    let net = Network::mlp(
        &[cfg.channels(), 64, 10],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.5),
        &mut rng,
    );
    let engine = Engine::from_network(net).build();
    let mut session = engine.session();
    let mut input_spikes = 0usize;
    let mut hidden_spikes = 0usize;
    for (input, _) in &split.train {
        let fwd = session.infer(input);
        input_spikes += input.spike_count();
        hidden_spikes += fwd.records[0]
            .o
            .as_slice()
            .iter()
            .filter(|&&x| x != 0.0)
            .count();
    }
    let samples = split.train.len();
    let t_steps = cfg.steps;
    let in_per_channel = input_spikes as f64 / (samples * cfg.channels()) as f64;
    let hid_per_neuron = hidden_spikes as f64 / (samples * 64) as f64;
    println!(
        "\nengine-measured workload ({samples} synthetic N-MNIST samples, {t_steps} steps, sparse backend):"
    );
    println!(
        "  mean input spikes/channel  {in_per_channel:>6.2}  (rate {:.1}%)",
        100.0 * in_per_channel / t_steps as f64
    );
    println!(
        "  mean hidden spikes/neuron  {hid_per_neuron:>6.2}  (rate {:.1}%)",
        100.0 * hid_per_neuron / t_steps as f64
    );
    // `estimate_layer` takes an integer spike count, but measured means
    // are fractional (often < 0.5, where rounding would zero out the
    // active energy); interpolate between the floor and ceiling counts —
    // exact, since the power model is linear in the spike count.
    let estimate_layer_frac = |spikes: f64, n_out: usize, n_in: usize| {
        let lo = spikes.floor().min((t_steps - 1) as f64) as usize;
        let frac = spikes - lo as f64;
        let a = power::estimate_layer(t_steps, lo, n_out, n_in, &params);
        let b = power::estimate_layer(t_steps, lo + 1, n_out, n_in, &params);
        (
            a.avg_w + frac * (b.avg_w - a.avg_w),
            a.energy_j + frac * (b.energy_j - a.energy_j),
        )
    };
    let (l1_avg, l1_energy) = estimate_layer_frac(in_per_channel, 64, cfg.channels());
    let (l2_avg, l2_energy) = estimate_layer_frac(hid_per_neuron, 10, 64);
    println!(
        "  layer 1 ({} -> 64): avg {:.2} mW, energy {:.2} nJ/sample (measured activity)",
        cfg.channels(),
        l1_avg * 1e3,
        l1_energy * 1e9
    );
    println!(
        "  layer 2 (64 -> 10): avg {:.2} mW, energy {:.2} nJ/sample (measured activity)",
        l2_avg * 1e3,
        l2_energy * 1e9
    );
}
