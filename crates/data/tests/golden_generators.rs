//! Golden generator regression: pins the exact spike events the
//! synthetic dataset generators draw from fixed seeds.
//!
//! `generators.rs` checks that two runs of the same code agree; that
//! cannot notice a change in the order the generators consume their
//! random numbers, or in where they place a spike. Here each dataset is
//! pinned by one CRC-32 over its samples in order: every label, raster
//! shape and `(t, c)` event list, as little-endian `u64`s. The
//! `ShdConfig::paper()` draws are the benchmark's inputs.
//!
//! After an *intentional* change to a generator, the failure message
//! prints the new CRCs; paste them into [`EXPECTED`] together with the
//! change that justified them.

use snn_core::SpikeRaster;
use snn_data::association::{self, AssociationConfig};
use snn_data::nmnist::{self, NmnistConfig};
use snn_data::shd::{self, PairMode, ShdConfig};
use snn_json::integrity::crc32;
use snn_tensor::Rng;

/// CRC-32 of each generated dataset, in the order of [`datasets`].
const EXPECTED: [(&str, u32); 5] = [
    ("shd small, PermuteOrder", 0x964ba5fa),
    ("shd small, Mirror", 0xb2d79178),
    ("nmnist small", 0x99e96955),
    ("association small", 0x8fe334e5),
    ("shd paper, simulate_sample", 0xa33353cf),
];

/// Appends one labelled raster: label, steps, channels, event count,
/// then every `(t, c)` event in time order.
fn push_sample(bytes: &mut Vec<u8>, label: usize, r: &SpikeRaster) {
    let events = r.events();
    for x in [label, r.steps(), r.channels(), events.len()] {
        bytes.extend_from_slice(&(x as u64).to_le_bytes());
    }
    for (t, c) in events {
        bytes.extend_from_slice(&(t as u64).to_le_bytes());
        bytes.extend_from_slice(&(c as u64).to_le_bytes());
    }
}

fn shd_small(pair_mode: PairMode) -> u32 {
    let cfg = ShdConfig {
        pair_mode,
        ..ShdConfig::small()
    };
    let mut bytes = Vec::new();
    for (r, label) in &shd::generate(&cfg, 19).samples {
        push_sample(&mut bytes, *label, r);
    }
    crc32(&bytes)
}

fn nmnist_small() -> u32 {
    let mut bytes = Vec::new();
    for (r, label) in &nmnist::generate(&NmnistConfig::small(), 23).samples {
        push_sample(&mut bytes, *label, r);
    }
    crc32(&bytes)
}

fn association_small() -> u32 {
    let data = association::generate(&AssociationConfig::small(), 29);
    let mut bytes = Vec::new();
    for ((input, target), &label) in data.pairs.iter().zip(&data.labels) {
        push_sample(&mut bytes, label, input);
        push_sample(&mut bytes, label, target);
    }
    for (digit, target) in data.targets.iter().enumerate() {
        push_sample(&mut bytes, digit, target);
    }
    crc32(&bytes)
}

/// A few paper-scale draws from one generator stream, covering both
/// members of a reversed pair and the last class.
fn shd_paper_draws() -> u32 {
    let cfg = ShdConfig::paper();
    let mut rng = Rng::seed_from(31);
    let mut bytes = Vec::new();
    for label in [0, 1, 6, 19] {
        let r = shd::simulate_sample(label, &cfg, &mut rng);
        assert!(r.spike_count() > 0, "class {label} drew no spikes");
        push_sample(&mut bytes, label, &r);
    }
    crc32(&bytes)
}

fn datasets() -> [u32; 5] {
    [
        shd_small(PairMode::PermuteOrder),
        shd_small(PairMode::Mirror),
        nmnist_small(),
        association_small(),
        shd_paper_draws(),
    ]
}

#[test]
fn generated_events_reproduce_their_golden_crcs() {
    let got = datasets();
    let want: Vec<u32> = EXPECTED.iter().map(|&(_, crc)| crc).collect();
    let report: Vec<String> = EXPECTED
        .iter()
        .zip(&got)
        .map(|((name, _), crc)| format!("(\"{name}\", {crc:#010x}),"))
        .collect();
    assert_eq!(
        got.to_vec(),
        want,
        "generator events changed; new CRCs:\n{}",
        report.join("\n")
    );
}
