//! Property tests for the layer's fused forward pass.
//!
//! `DenseLayer` rolls each 64-neuron tile over all timesteps in one
//! pass (`lanes::tile_rollout`): the drive update, neuron update,
//! record writes and fire bits of a step happen together, where the
//! original layer ran separate multi-pass loops. The contract is
//! **bitwise** equivalence: fusing changes traversal and memory
//! traffic, never the per-element arithmetic or its order. These tests
//! pin that contract against a naive, scalar, unfused reference rollout
//! across all three neuron kinds, a density grid, and randomized
//! sequence lengths — plus scalar-fallback vs lane-path agreement and
//! repeated-run determinism. The last case pins every tile and lane
//! tail, both backends and both record shapes.

use snn_core::engine::{Backend, Engine};
use snn_core::{DenseLayer, LayerRecord, LayerScratch, Network, NeuronKind, SpikeRaster};
use snn_neuron::NeuronParams;
use snn_tensor::{kernels, Matrix, Rng};

const KINDS: [NeuronKind; 3] = [
    NeuronKind::Adaptive,
    NeuronKind::HardReset,
    NeuronKind::HardResetMatched,
];

fn random_active(t_steps: usize, n_in: usize, density: f32, rng: &mut Rng) -> SpikeRaster {
    let mut raster = SpikeRaster::zeros(t_steps, n_in);
    for t in 0..t_steps {
        for c in 0..n_in {
            if rng.coin(density) {
                raster.set(t, c, true);
            }
        }
    }
    raster
}

/// Unfused scalar reference: the pre-refactor multi-pass rollout,
/// written with naive loops (separate decay pass, per-column
/// accumulation pass in active order, separate membrane/threshold/record
/// pass). Every per-element operation and its order matches the fused
/// path, so the comparison below is exact.
fn reference_rollout(layer: &DenseLayer, active_in: &SpikeRaster) -> (LayerRecord, SpikeRaster) {
    let t_steps = active_in.steps();
    let (n_in, n_out) = (layer.n_in(), layer.n_out());
    let w = layer.weights();
    let params = layer.params();
    let mut rec = LayerRecord::empty();
    rec.resize_zeroed(t_steps, n_in, n_out);
    let mut active_out = SpikeRaster::zeros(t_steps, n_out);

    match layer.kind() {
        NeuronKind::Adaptive => {
            let alpha = params.synapse_decay();
            let beta = params.reset_decay();
            let (theta, v_th) = (params.theta, params.v_th);
            let mut k = vec![0.0f32; n_in];
            let mut h = vec![0.0f32; n_out];
            let mut g = vec![0.0f32; n_out];
            let mut prev_fired: Vec<usize> = Vec::new();
            for t in 0..t_steps {
                let active = active_in.step(t);
                for kj in k.iter_mut() {
                    *kj *= alpha;
                }
                for &j in active {
                    k[j] += 1.0;
                }
                rec.pre.row_mut(t).copy_from_slice(&k);
                for gi in g.iter_mut() {
                    *gi *= alpha;
                }
                for &c in active {
                    for (gi, wi) in g.iter_mut().zip(column(w, c)) {
                        *gi += wi;
                    }
                }
                for hi in h.iter_mut() {
                    *hi *= beta;
                }
                for &i in &prev_fired {
                    h[i] += 1.0;
                }
                prev_fired.clear();
                for i in 0..n_out {
                    let vi = g[i] - theta * h[i];
                    rec.v.row_mut(t)[i] = vi;
                    if vi >= v_th {
                        rec.o.row_mut(t)[i] = 1.0;
                        active_out.set(t, i, true);
                        prev_fired.push(i);
                    }
                }
            }
        }
        NeuronKind::HardReset | NeuronKind::HardResetMatched => {
            let lambda = params.synapse_decay();
            let gain = layer.kind().input_gain(&params);
            let v_th = params.v_th;
            let mut vm = vec![0.0f32; n_out];
            let mut current = vec![0.0f32; n_out];
            for t in 0..t_steps {
                let active = active_in.step(t);
                for &j in active {
                    rec.pre.row_mut(t)[j] = 1.0;
                }
                current.fill(0.0);
                for &c in active {
                    for (ci, wi) in current.iter_mut().zip(column(w, c)) {
                        *ci += wi;
                    }
                }
                for i in 0..n_out {
                    let vi = lambda * vm[i] + gain * current[i];
                    rec.v.row_mut(t)[i] = vi;
                    if vi >= v_th {
                        rec.o.row_mut(t)[i] = 1.0;
                        active_out.set(t, i, true);
                        vm[i] = 0.0;
                    } else {
                        vm[i] = vi;
                    }
                }
            }
        }
    }
    (rec, active_out)
}

/// Column `c` of a row-major matrix as an owned vector.
fn column(w: &Matrix, c: usize) -> Vec<f32> {
    (0..w.rows()).map(|r| w[(r, c)]).collect()
}

fn assert_bitwise_eq(a: &Matrix, b: &Matrix, what: &str, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{what} shape ({ctx})");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} bits ({ctx})");
    }
}

#[test]
fn fused_rollout_matches_unfused_reference_bitwise() {
    let mut rng = Rng::seed_from(20260808);
    for kind in KINDS {
        for density in [0.01f32, 0.05, 0.20] {
            // Randomized sequence length per (kind, density) case.
            let t_steps = 3 + rng.below(45);
            let (n_in, n_out) = (37, 23); // ragged widths: lane tails exercised
            let layer =
                DenseLayer::new(n_in, n_out, kind, NeuronParams::paper_defaults(), &mut rng);
            let active_in = random_active(t_steps, n_in, density, &mut rng);
            let ctx = format!("{kind:?} density {density} T {t_steps}");

            let mut rec = LayerRecord::empty();
            let mut scratch = LayerScratch::default();
            let mut active_out = SpikeRaster::default();
            layer.forward_steps(&active_in, &mut rec, &mut scratch, &mut active_out);

            let (rec_ref, active_ref) = reference_rollout(&layer, &active_in);
            assert_bitwise_eq(&rec.pre, &rec_ref.pre, "pre", &ctx);
            assert_bitwise_eq(&rec.v, &rec_ref.v, "v", &ctx);
            assert_bitwise_eq(&rec.o, &rec_ref.o, "o", &ctx);
            assert_eq!(active_out, active_ref, "active_out ({ctx})");
        }
    }
}

#[test]
fn tall_layer_crosses_block_boundary_bitwise() {
    // An output thousands of rows tall crosses many 64-neuron tiles of
    // the tile pass and ends in a ragged one.
    let mut rng = Rng::seed_from(41);
    let n_out = 4096 + 199;
    let layer = DenseLayer::new(
        16,
        n_out,
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults(),
        &mut rng,
    );
    let active_in = random_active(7, 16, 0.25, &mut rng);
    let mut rec = LayerRecord::empty();
    let mut scratch = LayerScratch::default();
    let mut active_out = SpikeRaster::default();
    layer.forward_steps(&active_in, &mut rec, &mut scratch, &mut active_out);
    let (rec_ref, active_ref) = reference_rollout(&layer, &active_in);
    assert_bitwise_eq(&rec.v, &rec_ref.v, "v", "tall layer");
    assert_eq!(active_out, active_ref);
}

#[test]
fn scalar_fallback_agrees_with_lane_path_bitwise() {
    // The refactor's tolerance budget was "within 1 ULP"; the no-FMA
    // design makes the paths exactly equal, so assert the stronger
    // bitwise property. (Safe even though tests share the process-wide
    // dispatch flag: both paths produce identical bits, so concurrent
    // tests cannot observe the toggle.)
    let mut rng = Rng::seed_from(99);
    for kind in KINDS {
        let layer = DenseLayer::new(64, 48, kind, NeuronParams::paper_defaults(), &mut rng);
        let active_in = random_active(20, 64, 0.1, &mut rng);

        let mut rec_lane = LayerRecord::empty();
        let mut scratch = LayerScratch::default();
        let mut out_lane = SpikeRaster::default();
        layer.forward_steps(&active_in, &mut rec_lane, &mut scratch, &mut out_lane);

        kernels::set_force_scalar(true);
        let mut rec_scalar = LayerRecord::empty();
        let mut out_scalar = SpikeRaster::default();
        layer.forward_steps(&active_in, &mut rec_scalar, &mut scratch, &mut out_scalar);
        kernels::set_force_scalar(false);

        let ctx = format!("{kind:?}");
        assert_bitwise_eq(&rec_lane.pre, &rec_scalar.pre, "pre", &ctx);
        assert_bitwise_eq(&rec_lane.v, &rec_scalar.v, "v", &ctx);
        assert_bitwise_eq(&rec_lane.o, &rec_scalar.o, "o", &ctx);
        assert_eq!(out_lane, out_scalar, "{ctx}");
    }
}

#[test]
fn repeated_rollouts_are_bitwise_deterministic() {
    let mut rng = Rng::seed_from(7);
    for kind in KINDS {
        let layer = DenseLayer::new(30, 30, kind, NeuronParams::paper_defaults(), &mut rng);
        let active_in = random_active(15, 30, 0.15, &mut rng);
        let mut first: Option<LayerRecord> = None;
        for _ in 0..5 {
            let mut rec = LayerRecord::empty();
            let mut scratch = LayerScratch::default();
            let mut active_out = SpikeRaster::default();
            layer.forward_steps(&active_in, &mut rec, &mut scratch, &mut active_out);
            match &first {
                None => first = Some(rec),
                Some(f) => {
                    assert_bitwise_eq(&f.v, &rec.v, "v", &format!("{kind:?} repeat"));
                    assert_bitwise_eq(&f.o, &rec.o, "o", &format!("{kind:?} repeat"));
                }
            }
        }
    }
}

/// The dense-drive reference: the same recurrences as
/// [`reference_rollout`], with each step's drive formed as the full
/// matrix–vector product `W·k[t]` over the input trace, as
/// `Backend::Dense` and `Network::forward_dense_reference` form it.
fn dense_reference_rollout(
    layer: &DenseLayer,
    active_in: &SpikeRaster,
) -> (LayerRecord, SpikeRaster) {
    let t_steps = active_in.steps();
    let (n_in, n_out) = (layer.n_in(), layer.n_out());
    let params = layer.params();
    let mut rec = LayerRecord::empty();
    rec.resize_zeroed(t_steps, n_in, n_out);
    let mut active_out = SpikeRaster::zeros(t_steps, n_out);
    let decay = match layer.kind() {
        NeuronKind::Adaptive => params.synapse_decay(),
        NeuronKind::HardReset | NeuronKind::HardResetMatched => 0.0,
    };
    let mut k = vec![0.0f32; n_in];
    let mut state = vec![0.0f32; n_out];
    let mut prev_fired = vec![false; n_out];
    for t in 0..t_steps {
        for kj in k.iter_mut() {
            *kj *= decay;
        }
        for &j in active_in.step(t) {
            k[j] += 1.0;
        }
        rec.pre.row_mut(t).copy_from_slice(&k);
        let g = layer.weights().matvec(&k);
        for i in 0..n_out {
            let vi = match layer.kind() {
                NeuronKind::Adaptive => {
                    state[i] *= params.reset_decay();
                    if prev_fired[i] {
                        state[i] += 1.0;
                    }
                    g[i] - params.theta * state[i]
                }
                NeuronKind::HardReset | NeuronKind::HardResetMatched => {
                    params.synapse_decay() * state[i] + layer.kind().input_gain(&params) * g[i]
                }
            };
            let fire = vi >= params.v_th;
            if layer.kind() != NeuronKind::Adaptive {
                state[i] = if fire { 0.0 } else { vi };
            }
            rec.v.row_mut(t)[i] = vi;
            if fire {
                rec.o.row_mut(t)[i] = 1.0;
                active_out.set(t, i, true);
            }
            prev_fired[i] = fire;
        }
    }
    (rec, active_out)
}

#[test]
fn every_tile_and_lane_tail_matches_the_reference_bitwise() {
    // Widths below, at and past the 8-lane register and the 64-row tile,
    // for every neuron kind and both backends, with the full records of
    // a training rollout and the spikes-only record of inference.
    let mut rng = Rng::seed_from(20261020);
    let params = NeuronParams::paper_defaults().with_v_th(0.3);
    let mut spikes = 0.0;
    for n_out in [1usize, 7, 8, 9, 63, 64, 65, 130] {
        for kind in KINDS {
            let layer = DenseLayer::new(29, n_out, kind, params, &mut rng);
            let t_steps = 5 + rng.below(30);
            let active_in = random_active(t_steps, 29, 0.2, &mut rng);
            let net = Network::from_layers(vec![layer.clone()]);
            for backend in [Backend::Sparse, Backend::Dense] {
                let ctx = format!("{kind:?} n_out {n_out} T {t_steps} {}", backend.label());
                let (want, want_out) = match backend {
                    Backend::Sparse => reference_rollout(&layer, &active_in),
                    Backend::Dense => dense_reference_rollout(&layer, &active_in),
                };
                let full = match backend {
                    Backend::Sparse => net.forward(&active_in),
                    Backend::Dense => net.forward_dense_reference(&active_in),
                };
                let full = &full.records[0];
                assert_bitwise_eq(&full.pre, &want.pre, "pre", &ctx);
                assert_bitwise_eq(&full.v, &want.v, "v", &ctx);
                assert_bitwise_eq(&full.o, &want.o, "o", &ctx);
                let engine = Engine::from_network(net.clone())
                    .backend(backend)
                    .threads(1)
                    .build();
                let mut session = engine.session();
                assert_bitwise_eq(
                    &session.infer(&active_in).records[0].o,
                    &want.o,
                    "o only",
                    &ctx,
                );
                assert_eq!(
                    session.infer_raster(&active_in),
                    &want_out,
                    "spikes ({ctx})"
                );
                spikes += want.o.as_slice().iter().sum::<f32>();
            }
        }
    }
    assert!(
        spikes > 0.0,
        "the cases must fire to exercise the reset paths"
    );
}
