//! Fig. 7 — transient simulation of the neurosynaptic circuit.
//!
//! Replays the paper's circuit experiment: a spike train drives the
//! word-line RC filter; the crossbar cell converts the filtered voltage
//! into a bit-line PSP; the comparator with adaptive feedback threshold
//! produces output spikes. Prints (a) bit-line output, PSP, threshold,
//! input and output spikes, and (b) comparator output and feedback
//! voltage, per algorithmic step.
//!
//! Usage: `fig7_circuit_sim [--steps N]`

use bench::{banner, Args};
use snn_hardware::{transient, CircuitParams};

fn main() {
    let args = Args::parse(&["steps"]);
    let steps = args.get_usize("steps", 40);
    banner("Fig. 7: circuit transient simulation");

    let params = CircuitParams::paper();
    println!(
        "components: R = {:.2} kOhm, C = {:.2} pF (RC = {:.1} ns, tau = {:.2} steps)",
        params.r_filter / 1e3,
        params.c_filter * 1e12,
        params.rc_seconds() * 1e9,
        params.tau_steps()
    );
    println!(
        "step = {:.0} ns, V_bias = {:.0} mV, VDD = {:.1} V, {} substeps/step",
        params.step_seconds * 1e9,
        params.v_bias * 1e3,
        params.vdd,
        params.substeps()
    );

    // The paper's style of stimulus: a burst that fires the neuron, then
    // single spikes that the raised threshold must suppress.
    let input_spikes = vec![4usize, 5, 6, 9, 14, 22, 23, 24, 28];
    let trace = transient::simulate_neuron(&input_spikes, steps, &params);

    let k = trace.per_step(&trace.wordline);
    let psp = trace.per_step(&trace.psp);
    let th = trace.per_step(&trace.threshold);
    let comp = trace.per_step(&trace.comparator);
    let fb = trace.per_step(&trace.feedback);
    let out_spikes = trace.output_spike_times();

    println!("\n(a) bit-line output, PSP, threshold, input & output spikes");
    println!("step | in | k(t) V | PSP V  | thresh V | out");
    for t in 0..steps {
        println!(
            "{t:>4} | {}  | {:>6.3} | {:>6.3} | {:>8.3} | {}",
            if input_spikes.contains(&t) { "|" } else { "." },
            k[t],
            psp[t],
            th[t],
            if out_spikes.contains(&t) { "|" } else { "." },
        );
    }

    println!("\n(b) comparator output and feedback voltage");
    println!("step | comparator V | feedback V");
    for t in 0..steps {
        if comp[t] > 1e-3 || fb[t] > 1e-3 {
            println!("{t:>4} | {:>12.3} | {:>10.3}", comp[t], fb[t]);
        }
    }

    println!("\noutput spikes at steps {out_spikes:?}");
    println!(
        "peak PSP {:.3} V, peak threshold {:.3} V (bias {:.3} V)",
        trace.peak_psp(),
        trace.peak_threshold(),
        params.v_bias
    );
    println!("\nExpected shape (paper Fig. 7): the burst fires the neuron once;");
    println!("the threshold jumps and decays slowly; subsequent single spikes");
    println!("are suppressed until the threshold has recovered.");
}
