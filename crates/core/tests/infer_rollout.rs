//! The inference rollout behind every engine session writes only the
//! spikes: each layer's `o` record, bit-equal to the training rollout's
//! (and so to the golden-forward fixture), with `pre` and `v` left
//! empty. Checked on the golden checkpoint and input for every
//! `NeuronKind`, both backends, and both lane dispatch paths.

use snn_core::engine::{Backend, Engine};
use snn_core::{checkpoint, Forward, Network, NeuronKind, ScratchSpace, SpikeRaster};
use snn_json::Json;
use snn_tensor::{kernels, Matrix};
use std::path::PathBuf;

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// The golden checkpoint (its own mix of kinds, then every layer set to
/// each kind) and the golden input raster.
fn variants() -> (Vec<(&'static str, Network)>, SpikeRaster) {
    let dir = fixtures().join("golden_grad");
    let net = checkpoint::load(dir.join("checkpoint.json")).expect("fixture checkpoint");
    let raw = std::fs::read_to_string(dir.join("input.json")).expect("fixture input");
    let input =
        SpikeRaster::from_json(&Json::parse(&raw).expect("input json")).expect("input raster");
    let mut variants = vec![("checkpoint", net.clone())];
    for (name, kind) in [
        ("adaptive", NeuronKind::Adaptive),
        ("hard_reset", NeuronKind::HardReset),
        ("hard_reset_matched", NeuronKind::HardResetMatched),
    ] {
        let mut net = net.clone();
        net.set_neuron_kind(kind);
        variants.push((name, net));
    }
    (variants, input)
}

/// Layer `o` bit patterns of one golden-forward fixture case.
fn golden_outputs(case: &str) -> Vec<Vec<Vec<u32>>> {
    let path = fixtures()
        .join("golden_forward")
        .join("expected_records.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("golden forward fixture"))
        .expect("fixture json");
    let entry = doc
        .get("cases")
        .and_then(Json::as_array)
        .expect("cases array")
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(case))
        .unwrap_or_else(|| panic!("fixture has no case {case}"));
    let layers = entry
        .get("layers")
        .and_then(Json::as_array)
        .expect("layers");
    layers
        .iter()
        .map(|layer| {
            let bits = layer.get("o").and_then(|o| o.get("bits"));
            bits.and_then(Json::as_array)
                .expect("o bits")
                .iter()
                .map(|row| {
                    let hex = row.as_str().expect("hex row").split_whitespace();
                    hex.map(|h| u32::from_str_radix(h, 16).expect("hex bit pattern"))
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn bits(m: &Matrix) -> Vec<Vec<u32>> {
    (0..m.rows())
        .map(|t| m.row(t).iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn check_inference_pass(what: &str, got: &Forward, training: &Forward, golden: &[Vec<Vec<u32>>]) {
    let steps = training.output().rows();
    assert_eq!(got.records.len(), training.records.len(), "{what}: layers");
    for (l, (rec, want)) in got.records.iter().zip(&training.records).enumerate() {
        assert_eq!(bits(&rec.o), bits(&want.o), "{what} layer {l}: o");
        assert_eq!(bits(&rec.o), golden[l], "{what} layer {l}: o vs fixture");
        assert_eq!(rec.pre.shape(), (0, 0), "{what} layer {l}: pre not empty");
        assert_eq!(rec.v.shape(), (0, 0), "{what} layer {l}: v not empty");
        assert_eq!(rec.steps(), steps, "{what} layer {l}: steps");
    }
}

#[test]
fn inference_writes_only_spikes_bit_equal_to_the_training_rollout() {
    let (variants, input) = variants();
    for force_scalar in [false, true] {
        kernels::set_force_scalar(force_scalar);
        for (name, net) in &variants {
            for backend in [Backend::Sparse, Backend::Dense] {
                let (training, case) = match backend {
                    Backend::Sparse => (net.forward(&input), format!("{name}/forward")),
                    Backend::Dense => (
                        net.forward_dense_reference(&input),
                        format!("{name}/dense_reference"),
                    ),
                };
                let golden = golden_outputs(&case);
                let what = format!("{case} (scalar {force_scalar})");
                let engine = Engine::from_network(net.clone())
                    .backend(backend)
                    .threads(1)
                    .build();
                let mut session = engine.session();
                // Twice on one session: the second pass reuses warm buffers.
                for _ in 0..2 {
                    check_inference_pass(&what, session.infer(&input), &training, &golden);
                }
                assert_eq!(
                    session.infer_raster(&input),
                    &training.output_raster(),
                    "{what}: infer_raster"
                );
                check_inference_pass(&what, session.last_output(), &training, &golden);
                let (mut fwd, mut scratch) = (Forward::empty(), ScratchSpace::new());
                engine.forward_into(&input, &mut fwd, &mut scratch);
                check_inference_pass(&format!("{what} forward_into"), &fwd, &training, &golden);
            }
        }
    }
    kernels::set_force_scalar(false);
}
