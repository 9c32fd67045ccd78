//! Fig. 1 — synapse PSP and adaptive-threshold dynamics.
//!
//! Reproduces the paper's illustrative figure: two synapses receive
//! input spike trains; each synapse's first-order filter turns spikes
//! into decaying PSPs; the neuron compares the weighted PSP sum with a
//! threshold that jumps after every output spike and decays back.
//! Prints the traces as aligned columns plus an ASCII sketch.
//!
//! Usage: `fig1_dynamics [--steps N]`

use bench::{banner, Args};
use snn_core::config::Hyperparams;
use snn_neuron::{AdaptiveThresholdNeuron, ExpFilter, NeuronParams};

fn sparkline(values: &[f32], max: f32) -> String {
    const LEVELS: &[char] = &[' ', '.', ':', '-', '=', '+', '*', '#'];
    values
        .iter()
        .map(|&v| {
            let idx = ((v / max).clamp(0.0, 1.0) * (LEVELS.len() - 1) as f32).round() as usize;
            LEVELS[idx]
        })
        .collect()
}

fn main() {
    let args = Args::parse(&["steps"]);
    let steps = args.get_usize("steps", 60);
    banner("Fig. 1: synapse and adaptive threshold dynamics");
    println!("{}", Hyperparams::table1());

    let params = NeuronParams::paper_defaults();
    let mut syn1 = ExpFilter::from_tau(1, params.tau);
    let mut syn2 = ExpFilter::from_tau(1, params.tau);
    let mut neuron = AdaptiveThresholdNeuron::new(1, params);
    let (w1, w2) = (0.8f32, 0.6f32);

    // Input spike trains: synapse 1 bursts early, synapse 2 later.
    let spikes1: Vec<usize> = vec![4, 6, 8, 30, 32, 34, 36];
    let spikes2: Vec<usize> = vec![10, 12, 14, 33, 35, 37];

    let mut psp1 = Vec::new();
    let mut psp2 = Vec::new();
    let mut summed = Vec::new();
    let mut thresholds = Vec::new();
    let mut outputs = Vec::new();

    for t in 0..steps {
        let x1 = if spikes1.contains(&t) { 1.0 } else { 0.0 };
        let x2 = if spikes2.contains(&t) { 1.0 } else { 0.0 };
        let k1 = syn1.step(&[x1])[0];
        let k2 = syn2.step(&[x2])[0];
        let g = w1 * k1 + w2 * k2;
        let fired = neuron.step(&[g])[0];
        psp1.push(k1);
        psp2.push(k2);
        summed.push(g);
        thresholds.push(neuron.effective_threshold()[0]);
        outputs.push(fired);
    }

    let spike_row = |train: &[usize]| -> String {
        (0..steps)
            .map(|t| if train.contains(&t) { '|' } else { '.' })
            .collect()
    };
    let out_row: String = outputs.iter().map(|&f| if f { '|' } else { '.' }).collect();
    let max = summed
        .iter()
        .chain(&thresholds)
        .fold(0.0f32, |m, &x| m.max(x))
        .max(1.0);

    println!("\ninput spikes (synapse 1): {}", spike_row(&spikes1));
    println!("input spikes (synapse 2): {}", spike_row(&spikes2));
    println!("synapse 1 PSP:            {}", sparkline(&psp1, max));
    println!("synapse 2 PSP:            {}", sparkline(&psp2, max));
    println!("summation of PSPs:        {}", sparkline(&summed, max));
    println!("adaptive threshold:       {}", sparkline(&thresholds, max));
    println!("output spikes:            {out_row}");

    println!("\n t | sum(PSP) | threshold | spike");
    for t in 0..steps {
        if summed[t] > 0.01 || outputs[t] {
            println!(
                "{t:>3} | {:>8.3} | {:>9.3} | {}",
                summed[t],
                thresholds[t],
                if outputs[t] { "*" } else { "" }
            );
        }
    }

    let n_out = outputs.iter().filter(|&&f| f).count();
    println!(
        "\n{n_out} output spikes; after each, the threshold jumps and decays (tau_r = {}).",
        params.tau_r
    );
}
