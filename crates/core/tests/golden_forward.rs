//! Golden-forward regression fixture: the `pre`/`v`/`o` record bits of
//! both forward rollouts — the event-driven `Network::forward` and the
//! dense `Network::forward_dense_reference` — pinned **bit-for-bit**
//! on the golden-gradient checkpoint and input raster.
//!
//! The checkpoint mixes an adaptive hidden layer with a hard-reset
//! readout; each `NeuronKind` is additionally pinned on every layer via
//! `Network::set_neuron_kind`. The property tests compare the two
//! rollouts with each other only within a tolerance, so this fixture is
//! what pins each rollout's own bits across refactors of the timestep
//! code. Every value is stored as its `f32` bit pattern (8 hex digits,
//! one string per timestep row).
//!
//! To regenerate after an *intentional* numeric change, run:
//!
//! ```text
//! cargo test -p snn-core --test golden_forward -- --ignored regenerate
//! ```
//!
//! and commit the updated JSON together with the change that justified
//! it.

use snn_core::{checkpoint, Forward, NeuronKind, SpikeRaster};
use snn_json::Json;
use snn_tensor::Matrix;
use std::path::PathBuf;

const FORMAT: &str = "neurosnn-golden-forward-v1";

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

fn expected_path() -> PathBuf {
    fixtures()
        .join("golden_forward")
        .join("expected_records.json")
}

/// Every pinned case, in fixture order: `(name, forward pass)`.
fn cases() -> Vec<(String, Forward)> {
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
    let mut out = Vec::new();
    for (name, net) in &variants {
        out.push((format!("{name}/forward"), net.forward(&input)));
        out.push((
            format!("{name}/dense_reference"),
            net.forward_dense_reference(&input),
        ));
    }
    out
}

fn matrix_to_json(m: &Matrix) -> Json {
    let rows = (0..m.rows())
        .map(|t| {
            let hex: Vec<String> = m
                .row(t)
                .iter()
                .map(|x| format!("{:08x}", x.to_bits()))
                .collect();
            Json::Str(hex.join(" "))
        })
        .collect();
    Json::obj(vec![
        ("rows", Json::from(m.rows())),
        ("cols", Json::from(m.cols())),
        ("bits", Json::Arr(rows)),
    ])
}

fn assert_bitwise(expected: &Json, got: &Matrix, what: &str) {
    let rows = expected.get("rows").and_then(Json::as_usize).expect("rows");
    let cols = expected.get("cols").and_then(Json::as_usize).expect("cols");
    assert_eq!(got.shape(), (rows, cols), "{what}: shape");
    let bits = expected
        .get("bits")
        .and_then(Json::as_array)
        .expect("bits array");
    assert_eq!(bits.len(), rows, "{what}: fixture row count");
    for (t, row) in bits.iter().enumerate() {
        let want: Vec<u32> = row
            .as_str()
            .expect("hex row")
            .split_whitespace()
            .map(|h| u32::from_str_radix(h, 16).expect("hex bit pattern"))
            .collect();
        assert_eq!(want.len(), cols, "{what}: fixture row {t} width");
        for (c, (&w, &g)) in want.iter().zip(got.row(t)).enumerate() {
            assert_eq!(
                w,
                g.to_bits(),
                "{what}: step {t} column {c}: expected {}, got {g}",
                f32::from_bits(w)
            );
        }
    }
}

#[test]
fn forward_records_reproduce_golden_bits() {
    let raw = std::fs::read_to_string(expected_path()).expect("golden forward fixture");
    let doc = Json::parse(&raw).expect("fixture json");
    assert_eq!(doc.get("format").and_then(Json::as_str), Some(FORMAT));
    let expected = doc
        .get("cases")
        .and_then(Json::as_array)
        .expect("cases array");
    let got = cases();
    assert_eq!(expected.len(), got.len(), "case count");
    for (case, (name, fwd)) in expected.iter().zip(&got) {
        assert_eq!(case.get("name").and_then(Json::as_str), Some(name.as_str()));
        let layers = case
            .get("layers")
            .and_then(Json::as_array)
            .expect("layers array");
        assert_eq!(layers.len(), fwd.records.len(), "{name}: layer count");
        for (l, (layer, rec)) in layers.iter().zip(&fwd.records).enumerate() {
            for (field, m) in [("pre", &rec.pre), ("v", &rec.v), ("o", &rec.o)] {
                let e = layer.get(field).expect("record field");
                assert_bitwise(e, m, &format!("{name} layer {l} {field}"));
            }
        }
    }
}

/// Every case must spike in its first layer, or its `o` record and the
/// next layer's `pre` record would pin nothing but zeros. (The eq. 1
/// hard-reset readout may stay silent: its input gain is τ-fold weaker.)
#[test]
fn fixture_cases_are_not_silent() {
    for (name, fwd) in cases() {
        let o = &fwd.records[0].o;
        let spikes = o.as_slice().iter().filter(|&&x| x != 0.0).count();
        assert!(spikes > 0, "{name}: silent first layer");
    }
}

/// Regenerates the committed fixture. Ignored by default: run it only
/// when a numeric change is intentional, and commit the result.
#[test]
#[ignore = "writes the committed fixture; run explicitly to regenerate"]
fn regenerate() {
    let cases = cases()
        .into_iter()
        .map(|(name, fwd)| {
            let layers = fwd
                .records
                .iter()
                .map(|rec| {
                    Json::obj(vec![
                        ("pre", matrix_to_json(&rec.pre)),
                        ("v", matrix_to_json(&rec.v)),
                        ("o", matrix_to_json(&rec.o)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("name", Json::from(name.as_str())),
                ("layers", Json::Arr(layers)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("format", Json::from(FORMAT)),
        ("cases", Json::Arr(cases)),
    ]);
    let path = expected_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("fixture dir");
    std::fs::write(&path, doc.pretty() + "\n").expect("write fixture");
    println!("regenerated fixture at {}", path.display());
}
