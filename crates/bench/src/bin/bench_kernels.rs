//! Kernel smoke bench: proves the sparsity-aware compute core against the
//! naive dense baseline and records the numbers in `BENCH_kernels.json`.
//!
//! Fast enough for CI (a few seconds): every measurement uses the in-repo
//! best-of-N harness, not criterion. Covers:
//!
//! * dense vs. unrolled `matvec`,
//! * event-driven forward rollout vs. dense reference at several spike
//!   densities (the headline: ≥3× at 5% density),
//! * the inference rollout (warm `Session::infer`, which writes only the
//!   output-spike records) vs. the record-writing forward at the same
//!   densities (gated at 5% on the median of alternating rounds:
//!   `--min-infer-speedup`, default 1.1),
//! * the lane-dispatch sweep: the same `matvec` and 5%-density forward
//!   with the runtime SIMD dispatch pinned to the portable scalar
//!   fallback (bitwise-identical outputs; pure speed comparison),
//! * dense vs. **event-driven BPTT backward** on the paper's
//!   700-400-400-20 network over synthetic SHD samples (the training
//!   headline: ≥2×), plus a loss-vs-ε accuracy sweep across every
//!   [`SparsityPolicy`],
//! * BPTT phase 1 on the same network and samples: the fused laned
//!   pass (`lanes::adjoint_step`) against the scalar loop it replaced
//!   (libm `expf` per neuron and step, then the prune and the carries),
//!   gated on the median of alternating rounds (`--min-phase1-speedup`,
//!   default 3),
//! * the two BPTT weight products at paper width (400×700 and 400×400,
//!   T = 100): `dW` per step over the dense trace vs over the input
//!   events (gated ≥5×), and the input adjoint per step vs one sparse
//!   product per sequence over ~0.8-dense error events (gated ≥1×),
//! * epoch wall-clock scaling at 1/2/4 trainer threads.
//!
//! The report's notes record where it ran: host, OS, architecture,
//! cores, git revision of the checkout, lane dispatch path and build
//! profile.
//!
//! Usage: `cargo run --release --bin bench_kernels
//!         [-- --out PATH --min-backward-speedup X --min-infer-speedup Y
//!          --min-phase1-speedup Z]`

use bench::timing::{self, median, Measurement, Report};
use bench::Args;
use snn_core::engine::Engine;
use snn_core::train::{backward_into, backward_sparse_into, ClassificationLoss, SparsityPolicy};
use snn_core::train::{Gradients, Optimizer, RateCrossEntropy, Trainer, TrainerConfig};
use snn_core::{Forward, Network, NeuronKind, ScratchSpace, SpikeRaster};
use snn_data::shd::{self, ShdConfig};
use snn_neuron::{NeuronParams, Surrogate};
use snn_tensor::lanes::{self, ChannelEvents};
use snn_tensor::{kernels, GradRaster, Matrix, Rng};
use std::hint::black_box;
use std::time::Instant;

/// Alternating rounds behind each median-gated ratio.
const ROUNDS: usize = 5;

fn random_raster(steps: usize, channels: usize, density: f32, seed: u64) -> SpikeRaster {
    let mut rng = Rng::seed_from(seed);
    let mut r = SpikeRaster::zeros(steps, channels);
    for t in 0..steps {
        for c in 0..channels {
            if rng.coin(density) {
                r.set(t, c, true);
            }
        }
    }
    r
}

fn main() {
    let args = Args::parse(&[
        "out",
        "min-infer-speedup",
        "min-backward-speedup",
        "min-phase1-speedup",
    ]);
    let out_path = args.get("out", "BENCH_kernels.json").to_string();
    // The gate floors are read before the timing, so a bad value fails
    // at once rather than after minutes of benchmarking.
    let min_infer = args.get_f32("min-infer-speedup", 1.1) as f64;
    let min_backward = args.get_f32("min-backward-speedup", 2.0) as f64;
    let min_phase1 = args.get_f32("min-phase1-speedup", 3.0) as f64;
    let mut report = Report::new();

    bench::banner("neurosnn kernel bench");
    let host = snn_obs::provenance::host_info();
    report.note("hostname", &host.hostname);
    report.note("os", host.os);
    report.note("arch", host.arch);
    report.note("cores", &host.cores.to_string());
    report.note(
        "git_revision",
        host.git_revision.as_deref().unwrap_or("unknown"),
    );
    report.note("simd_path", lanes::path_label());
    report.note(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    // --- Dense matvec: unrolled vs naive -------------------------------
    let mut rng = Rng::seed_from(1);
    let w = Matrix::xavier_uniform(256, 256, &mut rng);
    let x: Vec<f32> = (0..256).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let mut y = vec![0.0f32; 256];
    report.run("matvec_256x256/naive", || {
        w.matvec_into_naive(black_box(&x), black_box(&mut y));
    });
    report.run("matvec_256x256/unrolled", || {
        w.matvec_into(black_box(&x), black_box(&mut y));
    });

    // --- Forward rollout: dense reference vs event-driven --------------
    let net = {
        let mut rng = Rng::seed_from(2);
        Network::mlp(
            &[256, 256, 10],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        )
    };
    let t_steps = 100;
    let engine = Engine::from_network(net.clone()).threads(1).build();
    let mut session = engine.session();
    for density_pct in [1usize, 5, 20] {
        let input = random_raster(
            t_steps,
            256,
            density_pct as f32 / 100.0,
            3 + density_pct as u64,
        );
        report.run(
            &format!("forward_256x256x10_T100/dense_{density_pct}pct"),
            || {
                black_box(net.forward_dense_reference(black_box(&input)));
            },
        );
        let mut fwd = Forward::empty();
        let mut scratch = ScratchSpace::new();
        report.run(
            &format!("forward_256x256x10_T100/sparse_{density_pct}pct"),
            || {
                net.forward_into(black_box(&input), &mut fwd, &mut scratch);
                black_box(&fwd);
            },
        );
        report.run(
            &format!("forward_256x256x10_T100/infer_{density_pct}pct"),
            || {
                black_box(session.infer(black_box(&input)));
            },
        );
    }
    // The acceptance metric: speedup at 5% density.
    let dense = report
        .get("forward_256x256x10_T100/dense_5pct")
        .expect("dense measured")
        .ns_per_iter;
    let sparse = report
        .get("forward_256x256x10_T100/sparse_5pct")
        .expect("sparse measured")
        .ns_per_iter;
    let speedup = dense / sparse;
    report.metric("forward_speedup_at_5pct_density", speedup);
    // Progress against the pre-lane-refactor committed number: the sparse
    // 5%-density forward row stood at 0.145 ms before the fused/laned
    // kernel core landed. Ratio > 1 means the fused path is faster.
    report.metric("forward_sparse_5pct_baseline_ratio", 145_000.0 / sparse);
    // Inference writes only the output-spike records, and the
    // event-driven step then skips the input-trace update that only the
    // `pre` record reads. The rows above are one timing each, and a
    // noisy neighbour moves one without the other, so the gated ratio
    // is the median over alternating rounds that time both forwards on
    // the 5% input.
    let infer_rounds: Vec<f64> = {
        let input = random_raster(t_steps, 256, 0.05, 8);
        let mut fwd = Forward::empty();
        let mut scratch = ScratchSpace::new();
        let mut record = || {
            timing::bench("record", || {
                net.forward_into(black_box(&input), &mut fwd, &mut scratch);
                black_box(&fwd);
            })
            .ns_per_iter
        };
        let mut infer = || {
            timing::bench("infer", || {
                black_box(session.infer(black_box(&input)));
            })
            .ns_per_iter
        };
        (0..ROUNDS)
            .map(|round| {
                // Each forward goes first in every other round.
                let (rec, inf) = if round % 2 == 0 {
                    let rec = record();
                    (rec, infer())
                } else {
                    let inf = infer();
                    (record(), inf)
                };
                rec / inf
            })
            .collect()
    };
    println!("inference vs record-writing forward per round: {infer_rounds:.3?}");
    let infer_speedup = median(&infer_rounds);
    report.metric("forward_infer_speedup_5pct", infer_speedup);

    // --- Lane dispatch: forced-scalar fallback vs lane path ------------
    // Same workloads as above with the runtime dispatch pinned to the
    // portable scalar fallback. The two paths are bitwise-identical (the
    // AVX2 kernels use separate multiply+add and the same combine tree),
    // so this is a pure speed comparison. Recorded, not gated: the
    // margin is machine-dependent and legitimately 1.0× on hosts
    // without AVX2.
    report.metric(
        "lane_simd_enabled",
        if kernels::simd_enabled() { 1.0 } else { 0.0 },
    );
    let input_5pct = random_raster(t_steps, 256, 0.05, 8);
    let mut fwd = Forward::empty();
    let mut scratch = ScratchSpace::new();
    kernels::set_force_scalar(true);
    let scalar_matvec = report
        .run("lane_sweep/matvec_256x256_scalar", || {
            w.matvec_into(black_box(&x), black_box(&mut y));
        })
        .ns_per_iter;
    let scalar_fwd = report
        .run("lane_sweep/forward_5pct_scalar", || {
            net.forward_into(black_box(&input_5pct), &mut fwd, &mut scratch);
            black_box(&fwd);
        })
        .ns_per_iter;
    kernels::set_force_scalar(false);
    let lane_matvec = report
        .run("lane_sweep/matvec_256x256_lanes", || {
            w.matvec_into(black_box(&x), black_box(&mut y));
        })
        .ns_per_iter;
    let lane_fwd = report
        .run("lane_sweep/forward_5pct_lanes", || {
            net.forward_into(black_box(&input_5pct), &mut fwd, &mut scratch);
            black_box(&fwd);
        })
        .ns_per_iter;
    report.metric("lane_speedup_matvec", scalar_matvec / lane_matvec);
    report.metric("lane_speedup_forward_5pct", scalar_fwd / lane_fwd);

    // --- BPTT: dense vs event-driven backward at paper width ----------
    // The paper's 700-400-400-20 network over synthetic SHD samples
    // (T = 100, ~2.7% input density), the dense per-step backward vs the
    // event-driven pass under a threshold the sweep below shows is
    // accuracy-neutral (1e-3 is ~1% of a typical rate-cross-entropy loss
    // gradient). Both form `dW` over the input events, so the gap is
    // what pruning skips of the input adjoint `P = DV·W` of layers 1 and
    // 2. Each sample's forward runs untimed before its two backwards;
    // a row is the best of ROUNDS rounds over the samples, per sample.
    let bench_policy = SparsityPolicy::Thresholded(1e-3);
    let shd = shd::generate(&ShdConfig::paper(), 5);
    let samples: Vec<&(SpikeRaster, usize)> = shd
        .samples
        .iter()
        .step_by(shd.samples.len() / 64)
        .take(64)
        .collect();
    let paper_net = {
        let mut rng = Rng::seed_from(9);
        Network::mlp(
            &[700, 400, 400, 20],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        )
    };
    let label = "bptt_shd_700x400x400x20_T100";
    let (mut dense_us, mut sparse_us) = (Vec::new(), Vec::new());
    let (mut kept, mut examined) = (0usize, 0usize);
    {
        let mut fwd = Forward::empty();
        let mut scratch = ScratchSpace::new();
        let mut grads = Gradients::zeros_like(&paper_net);
        let mut d_out = Matrix::zeros(0, 0);
        let sur = Surrogate::paper_default();
        for _ in 0..ROUNDS {
            let (mut dense_s, mut sparse_s) = (0.0, 0.0);
            for (input, class) in &samples {
                paper_net.forward_into(input, &mut fwd, &mut scratch);
                RateCrossEntropy.loss_and_grad_into(fwd.output(), *class, &mut d_out);
                grads.reset();
                let start = Instant::now();
                backward_into(&paper_net, &fwd, &d_out, sur, &mut grads, &mut scratch);
                dense_s += start.elapsed().as_secs_f64();
                black_box(&grads);
                grads.reset();
                let start = Instant::now();
                backward_sparse_into(
                    &paper_net,
                    &fwd,
                    &d_out,
                    sur,
                    bench_policy,
                    &mut grads,
                    &mut scratch,
                );
                sparse_s += start.elapsed().as_secs_f64();
                black_box(&grads);
                kept += scratch.backward_events().nnz();
                examined += scratch.backward_events().candidates();
            }
            dense_us.push(dense_s * 1e6 / samples.len() as f64);
            sparse_us.push(sparse_s * 1e6 / samples.len() as f64);
        }
    }
    let rounds_row = |name: &str, us: &[f64]| {
        let mut sorted = us.to_vec();
        sorted.sort_by(f64::total_cmp);
        Measurement {
            name: format!("{label}/{name}"),
            ns_per_iter: sorted[0] * 1e3,
            iters: samples.len() as u64,
            p50_ns: median(us) * 1e3,
            p99_ns: sorted[sorted.len() - 1] * 1e3,
            samples: us.len() as u32,
        }
    };
    let dense_ns = report
        .record(rounds_row("backward_dense", &dense_us))
        .ns_per_iter;
    let sparse_ns = report
        .record(rounds_row("backward_sparse_eps1e-3", &sparse_us))
        .ns_per_iter;
    let backward_speedup = dense_ns / sparse_ns;
    report.metric("backward_speedup_shd_700x400x400x20", backward_speedup);
    report.metric(
        "backward_event_density_shd_700x400x400x20",
        kept as f64 / examined.max(1) as f64,
    );

    // --- BPTT phase 1 at paper width -----------------------------------
    // Phase 1 of every layer's backward (the membrane adjoint through the
    // erfc surrogate, pruning into error events, the reset-trace carry and
    // the event-form rows e[t]) over the paper network's v records on the
    // same samples, against the scalar loop `lanes::adjoint_step`
    // replaced: libm `expf` and two divisions per neuron and step, then
    // `GradRaster::push_step_pruned`, a scalar `dh` loop and
    // `carry_decay_out`. The upstream adjoints are synthetic (uniform
    // ±0.01 per layer) and the threshold is `Auto`'s, 1e-3 of their
    // largest entry. Each sample's forward runs untimed; the two loops
    // alternate which runs first, round by round, and the gated ratio is
    // the median of the rounds' ratios.
    let phase1_label = "bptt_phase1_700x400x400x20_T100";
    let phase1_eps = 1e-5f32;
    let Surrogate::Erfc { sigma } = Surrogate::paper_default() else {
        unreachable!("the paper's surrogate is the erfc one")
    };
    let s = sigma.max(1e-6);
    let root_tau = std::f32::consts::TAU.sqrt();
    // The constants `Surrogate::grad` resolves, and its pre-change form.
    let pseudo = lanes::Pseudo::Gauss {
        k: -0.5 / (s * s),
        peak: 1.0 / (root_tau * s),
    };
    let libm_grad = |x: f32| (-x * x / (2.0 * s * s)).exp() / (root_tau * s);
    let params = NeuronParams::paper_defaults();
    let (alpha, beta, theta) = (params.synapse_decay(), params.reset_decay(), params.theta);
    let v_th = params.v_th;
    let neuron = lanes::Adjoint::Adaptive {
        alpha,
        beta,
        theta,
        v_th,
    };
    let steps = samples[0].0.steps();
    let widths: Vec<usize> = paper_net.layers().iter().map(|l| l.n_out()).collect();
    let ext: Vec<Matrix> = widths
        .iter()
        .enumerate()
        .map(|(l, &n)| {
            let mut rng = Rng::seed_from(60 + l as u64);
            let mut m = Matrix::zeros(steps, n);
            m.map_inplace(|_| rng.uniform(-0.01, 0.01));
            m
        })
        .collect();
    let (mut e_libm, mut e_laned): (Vec<Matrix>, Vec<Matrix>) = widths
        .iter()
        .map(|&n| (Matrix::zeros(steps + 1, n), Matrix::zeros(steps + 1, n)))
        .unzip();
    let (mut libm_events, mut laned_events) = (GradRaster::new(), GradRaster::new());
    let (mut dv, mut dh) = (vec![0.0f32; 400], vec![0.0f32; 400]);
    let mut e_next = vec![0.0f32; 400];
    let (mut libm_us, mut laned_us) = (Vec::new(), Vec::new());
    let (mut libm_kept, mut laned_kept) = (0usize, 0usize);
    {
        let mut fwd = Forward::empty();
        let mut scratch = ScratchSpace::new();
        for round in 0..ROUNDS {
            let (mut libm_s, mut laned_s) = (0.0, 0.0);
            for (input, _) in &samples {
                paper_net.forward_into(input, &mut fwd, &mut scratch);
                for (l, rec) in fwd.records.iter().enumerate() {
                    let n = widths[l];
                    for laned_first in [round % 2 == 1, round % 2 == 0] {
                        let start = Instant::now();
                        if laned_first {
                            let (dv, dh) = (&mut dv[..n], &mut dh[..n]);
                            dv.fill(0.0);
                            dh.fill(0.0);
                            let e = &mut e_laned[l];
                            e.row_mut(steps).fill(0.0);
                            laned_events.clear();
                            for t in (0..steps).rev() {
                                let (rows_to_t, from_next) =
                                    e.as_mut_slice().split_at_mut((t + 1) * n);
                                let rows = lanes::AdjointRows {
                                    ext: ext[l].row(t),
                                    v: rec.v.row(t),
                                    o: rec.o.row(t),
                                    e_next: &from_next[..n],
                                };
                                let prune = Some((phase1_eps, &mut laned_events));
                                let e_row = &mut rows_to_t[t * n..];
                                lanes::adjoint_step(neuron, pseudo, rows, dv, dh, e_row, prune);
                            }
                            laned_s += start.elapsed().as_secs_f64();
                            laned_kept += laned_events.nnz();
                        } else {
                            let (dv, dh) = (&mut dv[..n], &mut dh[..n]);
                            let e_next = &mut e_next[..n];
                            dh.fill(0.0);
                            e_next.fill(0.0);
                            libm_events.clear();
                            for t in (0..steps).rev() {
                                let (vrow, ext) = (rec.v.row(t), ext[l].row(t));
                                for i in 0..n {
                                    dv[i] = (ext[i] + dh[i]) * libm_grad(vrow[i] - v_th);
                                }
                                libm_events.push_step_pruned(dv, phase1_eps);
                                for (h, &d) in dh.iter_mut().zip(dv.iter()) {
                                    *h = -theta * d + beta * *h;
                                }
                                kernels::carry_decay_out(alpha, dv, e_next, e_libm[l].row_mut(t));
                            }
                            libm_s += start.elapsed().as_secs_f64();
                            libm_kept += libm_events.nnz();
                        }
                    }
                }
            }
            libm_us.push(libm_s * 1e6 / samples.len() as f64);
            laned_us.push(laned_s * 1e6 / samples.len() as f64);
        }
    }
    // The two forms differ only in the exp (a few ULP) and in which
    // entries within those ULPs of the threshold survive.
    for (l, (a, b)) in e_libm.iter().zip(&e_laned).enumerate() {
        let mut diff = b.clone();
        diff.add_scaled(-1.0, a);
        let relative = diff.frobenius_norm() / a.frobenius_norm().max(f32::MIN_POSITIVE);
        assert!(
            relative <= 1e-5,
            "{phase1_label}: layer {l}'s laned e rows differ from the scalar ones by {relative:e}"
        );
    }
    assert!(
        libm_kept.abs_diff(laned_kept) * 1000 <= libm_kept.max(1),
        "{phase1_label}: the laned pass kept {laned_kept} events, the scalar one {libm_kept}"
    );
    let phase1_row = |name: &str, us: &[f64]| {
        let mut sorted = us.to_vec();
        sorted.sort_by(f64::total_cmp);
        Measurement {
            name: format!("{phase1_label}/{name}"),
            ns_per_iter: sorted[0] * 1e3,
            iters: samples.len() as u64,
            p50_ns: median(us) * 1e3,
            p99_ns: sorted[sorted.len() - 1] * 1e3,
            samples: us.len() as u32,
        }
    };
    report.record(phase1_row("scalar_libm", &libm_us));
    report.record(phase1_row("laned", &laned_us));
    let phase1_rounds: Vec<f64> = libm_us.iter().zip(&laned_us).map(|(a, b)| a / b).collect();
    let phase1_speedup = median(&phase1_rounds);
    report.metric("phase1_speedup", phase1_speedup);
    report.metric(
        "phase1_event_density",
        laned_kept as f64 / (ROUNDS * samples.len() * steps * widths.iter().sum::<usize>()) as f64,
    );

    // --- BPTT weight products at paper width ----------------------------
    // The two products of an adaptive layer's backward at paper width
    // (T = 100, 400 neurons over 700 or 400 inputs), on a binary input
    // raster at SHD's ~2.7% density and synthetic adjoints at the ~0.8
    // event density `Auto` keeps on SHD.
    // * `dW`: the per-step rank-1 loop `dW += dv[t] ⊗ k[t]` over the
    //   dense synapse trace `k[t] = α·k[t−1] + x[t]`, against the event
    //   form the backward runs: the reverse filter `e[t] = dv[t] +
    //   α·e[t+1]`, the raster regrouped by channel, and one add of
    //   `e[s]` into column `c` per input spike `(s, c)`. The sum is
    //   reassociated, so the two agree to a relative Frobenius
    //   difference of 1e-6 (asserted here), not bit for bit; the event
    //   form is gated at ≥5×.
    // * `P = DV·W`: the per-step `Wᵀ·dv` loop against one sparse
    //   product over the recorded error events, bit for bit (asserted
    //   here), gated at ≥1×.
    const DW_EVENTS_FLOOR: f64 = 5.0;
    let alpha = NeuronParams::paper_defaults().synapse_decay();
    let mut product_ratios = Vec::new();
    for (n_out, n_in) in [(400usize, 700usize), (400, 400)] {
        let mut rng = Rng::seed_from(31 + n_in as u64);
        let w = Matrix::xavier_uniform(n_out, n_in, &mut rng);
        let (mut offsets, mut ids) = (vec![0usize], Vec::new());
        let mut k = Matrix::zeros(t_steps, n_in);
        let mut trace = vec![0.0f32; n_in];
        for t in 0..t_steps {
            ids.extend((0..n_in).filter(|_| rng.coin(0.027)));
            offsets.push(ids.len());
            kernels::decay_add_unit(alpha, &mut trace, &ids[offsets[t]..]);
            k.row_mut(t).copy_from_slice(&trace);
        }
        // Events recorded as BPTT records them: t descending.
        let mut dv = Matrix::zeros(t_steps, n_out);
        let mut events = GradRaster::new();
        for t in (0..t_steps).rev() {
            for x in dv.row_mut(t) {
                *x = if rng.coin(0.8) {
                    rng.uniform(-1.0, 1.0)
                } else {
                    0.0
                };
            }
            events.push_step_pruned(dv.row_mut(t), 0.0);
        }
        let steps = events.rows(0..t_steps);
        let label = format!("bptt_products_{n_out}x{n_in}_T{t_steps}");
        let (mut dw_step, mut dw_events) = (Matrix::zeros(n_out, n_in), Matrix::zeros(n_out, n_in));
        let (mut p_step, mut p_seq) = (Matrix::zeros(t_steps, n_in), Matrix::zeros(t_steps, n_in));
        let (mut e, mut e_next) = (Matrix::zeros(t_steps, n_out), vec![0.0f32; n_out]);
        let mut by_channel = ChannelEvents::default();
        let mut pack = Vec::new();
        let dw_step_ns = report
            .run(&format!("{label}/dw_per_step"), || {
                dw_step.fill_zero();
                for t in (0..t_steps).rev() {
                    dw_step.add_outer(1.0, dv.row(t), k.row(t));
                }
                black_box(&dw_step);
            })
            .ns_per_iter;
        let dw_events_ns = report
            .run(&format!("{label}/dw_events"), || {
                dw_events.fill_zero();
                e_next.fill(0.0);
                for t in (0..t_steps).rev() {
                    kernels::carry_decay_out(alpha, dv.row(t), &mut e_next, e.row_mut(t));
                }
                by_channel.regroup(n_in, &offsets, &ids);
                lanes::add_event_columns(dw_events.as_mut_slice(), e.as_slice(), &by_channel);
                black_box(&dw_events);
            })
            .ns_per_iter;
        let p_step_ns = report
            .run(&format!("{label}/p_per_step"), || {
                for t in 0..t_steps {
                    w.matvec_t_into(dv.row(t), p_step.row_mut(t));
                }
                black_box(&p_step);
            })
            .ns_per_iter;
        let p_seq_ns = report
            .run(&format!("{label}/p_sequence"), || {
                p_seq.fill_zero();
                lanes::sparse_matmul_add(
                    p_seq.as_mut_slice(),
                    n_in,
                    &steps,
                    w.as_slice(),
                    &mut pack,
                );
                black_box(&p_seq);
            })
            .ns_per_iter;
        let mut diff = dw_events.clone();
        diff.add_scaled(-1.0, &dw_step);
        let relative = diff.frobenius_norm() / dw_step.frobenius_norm();
        assert!(
            relative <= 1e-6,
            "{label}: event-form dW differs from the per-step dW by {relative:e} (relative Frobenius)"
        );
        for t in 0..t_steps {
            // The raster's row k is timestep T−1−k.
            assert_eq!(
                p_step.row(t),
                p_seq.row(t_steps - 1 - t),
                "{label}: P row {t}"
            );
        }
        report.metric(
            &format!("dw_events_relative_difference_{n_out}x{n_in}"),
            relative as f64,
        );
        for (name, ratio, floor) in [
            (
                "events_vs_step_speedup_dw",
                dw_step_ns / dw_events_ns,
                DW_EVENTS_FLOOR,
            ),
            ("sequence_vs_step_speedup_p", p_step_ns / p_seq_ns, 1.0),
        ] {
            report.metric(&format!("{name}_{n_out}x{n_in}"), ratio);
            product_ratios.push((format!("{name}_{n_out}x{n_in}"), ratio, floor));
        }
    }

    // --- Loss-vs-ε sweep: end-task accuracy under every policy ---------
    // A noisy 10-class rate-pattern task trained for two epochs only, so
    // exact accuracy lands *below* saturation and thresholding-induced
    // drift is observable in both the accuracy and the loss gates below
    // (a task every policy aces would have no detection power).
    let sweep_data: Vec<(SpikeRaster, usize)> = {
        let mut rng = Rng::seed_from(41);
        (0..60)
            .map(|i| {
                let class = i % 10;
                let mut r = SpikeRaster::zeros(40, 128);
                for t in 0..40 {
                    for c in 0..128 {
                        let hot = c >= class * 12 && c < class * 12 + 12;
                        if rng.coin(if hot { 0.12 } else { 0.05 }) {
                            r.set(t, c, true);
                        }
                    }
                }
                (r, class)
            })
            .collect()
    };
    let sweep_net = {
        let mut rng = Rng::seed_from(43);
        Network::mlp(
            &[128, 64, 10],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        )
    };
    let mut sweep_results = Vec::new();
    for (label, policy) in [
        ("exact", SparsityPolicy::Exact),
        ("eps_1e-6", SparsityPolicy::Thresholded(1e-6)),
        ("eps_1e-5", SparsityPolicy::Thresholded(1e-5)),
        ("eps_1e-4", SparsityPolicy::Thresholded(1e-4)),
        ("eps_1e-3", SparsityPolicy::Thresholded(1e-3)),
        ("auto", SparsityPolicy::Auto),
    ] {
        let mut net = sweep_net.clone();
        let mut trainer = Trainer::new(
            TrainerConfig {
                batch_size: 20,
                optimizer: Optimizer::adam(0.01),
                ..TrainerConfig::default()
            }
            .with_threads(1)
            .with_sparsity(policy),
        );
        let mut stats = trainer.epoch_classification(&mut net, &sweep_data, &RateCrossEntropy);
        for _ in 0..3 {
            stats = trainer.epoch_classification(&mut net, &sweep_data, &RateCrossEntropy);
        }
        report.metric(
            &format!("eps_sweep_final_loss/{label}"),
            stats.mean_loss as f64,
        );
        report.metric(
            &format!("eps_sweep_accuracy/{label}"),
            stats.accuracy as f64,
        );
        sweep_results.push((label, stats.accuracy, stats.mean_loss));
    }

    // --- Epoch scaling: 1 / 2 / 4 trainer threads ----------------------
    let data: Vec<(SpikeRaster, usize)> = (0..48)
        .map(|i| (random_raster(60, 128, 0.05, 100 + i as u64), i % 10))
        .collect();
    let epoch_net = {
        let mut rng = Rng::seed_from(7);
        Network::mlp(
            &[128, 128, 10],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        )
    };
    let mut per_thread_ns = Vec::new();
    for threads in [1usize, 2, 4] {
        let m = report.run(&format!("epoch_48x128x128x10/threads_{threads}"), || {
            let mut net = epoch_net.clone();
            let mut trainer = Trainer::new(TrainerConfig::classification().with_threads(threads));
            black_box(trainer.epoch_classification(&mut net, &data, &RateCrossEntropy));
        });
        per_thread_ns.push((threads, m.ns_per_iter));
    }
    let base = per_thread_ns[0].1;
    for &(threads, ns) in &per_thread_ns[1..] {
        report.metric(
            &format!("epoch_scaling_speedup_{threads}_threads"),
            base / ns,
        );
    }
    // Scaling is bounded by the machine: on a 1-core container the
    // speedup is expected to be ~1.0 (and gradients are bitwise
    // identical regardless, which the test suite asserts). Record the
    // core count so the numbers above are interpretable.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.metric("available_cores", cores as f64);

    // Every gate below is evaluated before the report is written, so a
    // failing run leaves the committed report untouched.
    assert!(
        speedup >= 3.0,
        "sparsity-aware forward must be >=3x the dense kernel at 5% density, measured {speedup:.2}x"
    );
    println!("OK: forward speedup at 5% density = {speedup:.2}x (target >=3x)");

    // Inference acceptance: the record-free session pass must beat the
    // record-writing forward at 5% density, on the median of the
    // alternating rounds (one slow round no longer decides it). CI
    // passes 1.0 to tolerate noisy shared runners.
    assert!(
        infer_speedup >= min_infer,
        "inference rollout must be >={min_infer:.2}x the record-writing forward at 5% density, \
         measured {infer_speedup:.2}x (median of {ROUNDS} rounds: {infer_rounds:.3?})"
    );
    println!("OK: inference vs record-writing forward at 5% density = {infer_speedup:.2}x (target >={min_infer:.2}x)");

    // Product acceptance: the event-form `dW` must be ≥5× its per-step
    // loop (a fixed floor: the saving is in the arithmetic, not in the
    // host), and the sequence-blocked `P` must never lose to its
    // per-step loop (same arithmetic, so a loss would be a pure
    // blocking regression).
    for (name, ratio, floor) in &product_ratios {
        assert!(
            ratio >= floor,
            "BPTT product {name} must be >={floor:.1}x, measured {ratio:.2}x"
        );
    }
    println!(
        "OK: BPTT products {}",
        product_ratios
            .iter()
            .map(|(n, r, f)| format!("{n} = {r:.2}x (target >={f:.1}x)"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Backward acceptance: ≥2x at paper width by default; CI passes a
    // floor of 1.0 to tolerate noisy shared runners (the committed
    // BENCH_kernels.json records the full margin).
    assert!(
        backward_speedup >= min_backward,
        "event-driven backward must be >={min_backward:.1}x the dense backward on the \
         700-400-400-20 SHD network, measured {backward_speedup:.2}x"
    );
    println!(
        "OK: backward speedup on the 700-400-400-20 SHD network = {backward_speedup:.2}x \
         (target >={min_backward:.1}x)"
    );

    // Phase-1 acceptance: the fused laned pass against the scalar libm
    // loop it replaced, on the median of the alternating rounds. CI
    // passes 1.0 to tolerate noisy shared runners.
    assert!(
        phase1_speedup >= min_phase1,
        "BPTT phase 1 must be >={min_phase1:.1}x its scalar libm loop on the 700-400-400-20 \
         network, measured {phase1_speedup:.2}x (median of {ROUNDS} rounds: {phase1_rounds:.3?})"
    );
    println!(
        "OK: BPTT phase 1 laned vs scalar libm loop = {phase1_speedup:.2}x (target >={min_phase1:.1}x)"
    );

    // Accuracy acceptance: every swept policy — up to and including the
    // eps=1e-3 the speed rows use, plus Auto — must match dense end-task
    // accuracy within noise, on a task exact itself does NOT saturate
    // (so the gate has detection power), and must not blow up the
    // training loss. Deterministic: seeded data, seeded init,
    // single-threaded training.
    let (_, exact_acc, exact_loss) = *sweep_results
        .iter()
        .find(|(l, _, _)| *l == "exact")
        .expect("exact row");
    assert!(
        exact_acc < 1.0,
        "eps sweep task saturated (exact accuracy {exact_acc}); it can no longer detect drift — \
         make the task harder"
    );
    for &(label, acc, loss) in &sweep_results {
        if label != "exact" {
            // Tolerance: +-6 of 60 samples, just above the observed
            // policy-to-policy jitter at this (deliberately
            // unsaturated) training point; a real pruning regression
            // costs far more.
            assert!(
                (acc - exact_acc).abs() <= 0.10,
                "{label}: end-task accuracy {acc:.3} drifted from dense {exact_acc:.3}"
            );
            assert!(
                loss <= exact_loss * 1.5 + 1e-3,
                "{label}: final loss {loss:.4} blew up vs dense {exact_loss:.4}"
            );
        }
    }
    println!(
        "OK: eps sweep accuracy within noise of dense \
         (exact = {exact_acc:.3}, loss {exact_loss:.4})"
    );

    report
        .write(&out_path)
        .expect("failed to write bench report");
}
