//! Wide golden-gradient regression: pins the gradient bits of a network
//! whose layers are wider than the register tiles of the BPTT weight
//! products, which the small committed fixture (`golden_gradient.rs`,
//! 6→10→4) and the property tests (widths below 14) never reach.
//!
//! The network, input raster and loss gradient are generated from fixed
//! seeds, so the test needs no fixture files: each backward entry point
//! and sparsity policy is pinned by one CRC-32 per layer over the
//! little-endian bytes of its gradient matrix. The widths cover a full
//! 64-column tile plus a ragged tail at every layer (130, 67, 70) and a
//! readout narrower than one 8-lane chunk (9), over T = 37 steps.
//!
//! After an *intentional* numeric change, the failure message prints
//! the new CRCs; paste them into [`EXPECTED`] together with the change
//! that justified them.

use snn_core::train::{
    backward_into, backward_sparse_into, ClassificationLoss, Gradients, RateCrossEntropy,
    SparsityPolicy,
};
use snn_core::{DenseLayer, Forward, Network, NeuronKind, ScratchSpace, SpikeRaster};
use snn_json::integrity::crc32;
use snn_neuron::{NeuronParams, Surrogate};
use snn_tensor::{Matrix, Rng};

const STEPS: usize = 37;
const TARGET: usize = 4;

/// Per-layer CRC-32s of the gradient bits, in the order of [`PASSES`].
const EXPECTED: [(&str, [u32; 3]); 4] = [
    ("backward_into", [0x339bb81d, 0x5d79794d, 0x9d96e847]),
    ("Exact", [0x339bb81d, 0x5d79794d, 0x9d96e847]),
    ("Thresholded(1e-3)", [0xae781969, 0x4e235663, 0x473fb1c0]),
    ("Auto", [0xd1f6b964, 0x31bde28b, 0x473fb1c0]),
];

/// The backward passes the test pins: the dense reference, then the
/// event-driven pass under each policy.
const PASSES: [Option<SparsityPolicy>; 4] = [
    None,
    Some(SparsityPolicy::Exact),
    Some(SparsityPolicy::Thresholded(1e-3)),
    Some(SparsityPolicy::Auto),
];

/// Adaptive 130→67, adaptive 67→70, hard-reset-matched 70→9.
fn network() -> Network {
    let mut rng = Rng::seed_from(20261017);
    let params = |v_th: f32| NeuronParams::paper_defaults().with_v_th(v_th);
    Network::from_layers(vec![
        DenseLayer::new(130, 67, NeuronKind::Adaptive, params(0.4), &mut rng),
        DenseLayer::new(67, 70, NeuronKind::Adaptive, params(0.3), &mut rng),
        DenseLayer::new(70, 9, NeuronKind::HardResetMatched, params(0.3), &mut rng),
    ])
}

fn input() -> SpikeRaster {
    let mut rng = Rng::seed_from(37);
    let mut raster = SpikeRaster::zeros(STEPS, 130);
    for t in 0..STEPS {
        for c in 0..130 {
            if rng.coin(0.15) {
                raster.set(t, c, true);
            }
        }
    }
    raster
}

fn layer_crcs(grads: &Gradients) -> [u32; 3] {
    let mut out = [0u32; 3];
    for (crc, g) in out.iter_mut().zip(&grads.per_layer) {
        let bytes: Vec<u8> = g.as_slice().iter().flat_map(|x| x.to_le_bytes()).collect();
        *crc = crc32(&bytes);
    }
    out
}

/// Runs one backward pass on a fresh scratch and returns its gradients
/// and the surviving error-event density (0 for the dense pass).
fn run(
    net: &Network,
    fwd: &Forward,
    d_out: &Matrix,
    pass: Option<SparsityPolicy>,
) -> (Gradients, f64) {
    let mut grads = Gradients::zeros_like(net);
    let mut scratch = ScratchSpace::new();
    let sur = Surrogate::paper_default();
    match pass {
        None => backward_into(net, fwd, d_out, sur, &mut grads, &mut scratch),
        Some(policy) => {
            backward_sparse_into(net, fwd, d_out, sur, policy, &mut grads, &mut scratch)
        }
    }
    (grads, scratch.backward_events().density())
}

#[test]
fn wide_gradients_reproduce_their_golden_crcs() {
    let net = network();
    let fwd = net.forward(&input());
    for (l, rec) in fwd.records.iter().enumerate() {
        let spikes = rec.o.as_slice().iter().filter(|&&o| o != 0.0).count();
        assert!(spikes > 0, "layer {l} is silent; the test would pin little");
    }
    let (_, d_out) = RateCrossEntropy.loss_and_grad(fwd.output(), TARGET);

    let mut got = Vec::new();
    for pass in PASSES {
        let (grads, density) = run(&net, &fwd, &d_out, pass);
        for (l, g) in grads.per_layer.iter().enumerate() {
            assert!(g.max_abs() > 0.0, "{pass:?}: layer {l} has a zero gradient");
        }
        if let Some(SparsityPolicy::Thresholded(_) | SparsityPolicy::Auto) = pass {
            assert!(
                density > 0.0 && density < 1.0,
                "{pass:?} kept density {density}; the policy must prune some events, not all"
            );
        }
        got.push(layer_crcs(&grads));
    }
    assert_eq!(
        got[0], got[1],
        "Exact must equal the dense pass bit for bit"
    );
    assert_ne!(got[1], got[2], "Thresholded(1e-3) pruned nothing");

    let want: Vec<[u32; 3]> = EXPECTED.iter().map(|(_, crcs)| *crcs).collect();
    assert_eq!(
        got,
        want,
        "gradient bits changed; new CRCs (backward_into, Exact, Thresholded(1e-3), Auto): {}",
        got.iter()
            .map(|c| format!("[{:#010x}, {:#010x}, {:#010x}]", c[0], c[1], c[2]))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
