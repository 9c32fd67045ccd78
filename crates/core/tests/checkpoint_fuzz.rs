//! Fuzz-style robustness tests for the checkpoint loader, mirroring the
//! HTTP ones in `snn-serve`: deterministic, in-tree `Rng`-driven
//! mutations, truncations and deeply nested variants of the golden
//! fixture checkpoint must always load as a `Network` or fail with a
//! typed `CheckpointError`, never panic.
//!
//! Each variant is tried twice: sealed with its integrity trailer, which
//! exercises `integrity::verify`, and with the trailer stripped, which
//! reaches the JSON parser and the shape checks. Every case is seeded
//! from a fixed list, so a failure reproduces exactly.

use snn_core::checkpoint::{self, CheckpointError};
use snn_json::integrity;
use snn_tensor::Rng;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn fixture() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_grad")
        .join("checkpoint.json");
    std::fs::read_to_string(path).expect("golden checkpoint fixture")
}

/// The payload without its trailer line.
fn strip(sealed: &str) -> &str {
    let (payload, trailed) = integrity::verify(sealed).expect("the fixture is sealed");
    assert!(trailed, "the fixture carries a trailer");
    payload
}

/// Loads one variant; a panic fails the test naming the case. Returns
/// what came back, as a short label for the coverage tally.
fn load(case: &str, text: &str) -> &'static str {
    let outcome = std::panic::catch_unwind(|| checkpoint::from_json(text))
        .unwrap_or_else(|_| panic!("{case}: the loader panicked on {text:?}"));
    match outcome {
        Ok(_) => "network",
        Err(CheckpointError::Parse(_)) => "parse",
        Err(CheckpointError::Truncated { .. }) => "truncated",
        Err(CheckpointError::ChecksumMismatch { .. }) => "checksum",
        Err(CheckpointError::NonFinite { .. }) => "non-finite",
        Err(CheckpointError::Io(e)) => panic!("{case}: no I/O happens here: {e}"),
    }
}

/// Bytes that steer mutations into the grammar and the shape checks.
const ALPHABET: &[u8] = b" \n{}[],:\"\\-+.eE0123456789#\x00";

/// Applies `n_edits` random single-byte edits (overwrite, insert,
/// delete), like `http_fuzz.rs`.
fn mutate(bytes: &[u8], rng: &mut Rng, n_edits: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..n_edits {
        if out.is_empty() {
            break;
        }
        let pos = rng.below(out.len());
        let byte = if rng.coin(0.7) {
            ALPHABET[rng.below(ALPHABET.len())]
        } else {
            rng.below(256) as u8
        };
        match rng.below(3) {
            0 => out[pos] = byte,
            1 => out.insert(pos, byte),
            _ => {
                out.remove(pos);
            }
        }
    }
    out
}

#[test]
fn the_fixture_loads_sealed_and_stripped() {
    let sealed = fixture();
    assert_eq!(load("sealed", &sealed), "network");
    assert_eq!(load("stripped", strip(&sealed)), "network");
}

#[test]
fn random_mutations_load_or_fail_typed() {
    let sealed = fixture();
    let stripped = strip(&sealed).to_string();
    let mut tally = BTreeMap::<(&str, &str), usize>::new();
    for seed in 0u64..6000 {
        let mut rng = Rng::seed_from(seed);
        let n_edits = [1usize, 2, 4, 16][rng.below(4)];
        for (label, doc) in [("sealed", &sealed), ("stripped", &stripped)] {
            let mutant = mutate(doc.as_bytes(), &mut rng, n_edits);
            let text = String::from_utf8_lossy(&mutant);
            let case = format!("{label} seed {seed}");
            let outcome = load(&case, &text);
            // The trailer guards every payload byte: a sealed mutant
            // loads only when the edits spared the payload and left the
            // trailer's fields readable.
            if label == "sealed" && outcome == "network" {
                let intact = text.strip_prefix(stripped.as_str());
                assert!(
                    intact.is_some_and(|rest| rest.starts_with('\n')),
                    "{case}: {text:?}"
                );
            }
            *tally.entry((label, outcome)).or_default() += 1;
        }
    }
    let cases: usize = tally.values().sum();
    assert!(cases >= 10_000, "{cases} cases");
    // The sealed mutants are caught by the trailer; the stripped ones
    // reach the parser and the shape checks, and some still load (an
    // edited digit is a different, valid weight).
    for outcome in [
        ("sealed", "truncated"),
        ("sealed", "checksum"),
        ("stripped", "parse"),
        ("stripped", "non-finite"),
        ("stripped", "network"),
    ] {
        assert!(tally.contains_key(&outcome), "no {outcome:?}: {tally:?}");
    }
}

#[test]
fn every_truncation_fails_typed() {
    let sealed = fixture();
    let stripped = strip(&sealed);
    for (label, doc) in [("sealed", sealed.as_str()), ("stripped", stripped)] {
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            let outcome = load(&format!("{label} cut at {cut}"), &doc[..cut]);
            // A cut that takes the whole trailer line leaves a complete
            // trailer-less document, which loads by design; any shorter
            // cut must fail.
            assert!(
                outcome != "network" || (label == "sealed" && cut >= stripped.len()),
                "{label} cut at {cut} loaded"
            );
        }
    }
}

#[test]
fn deeply_nested_variants_fail_typed() {
    let stripped = strip(&fixture()).to_string();
    // Wrap the whole document, a member and a weight in containers,
    // around the parser's 128-level limit.
    for depth in [1usize, 2, 64, 127, 128, 129, 130, 1000, 10_000] {
        let open = "[".repeat(depth);
        let close = "]".repeat(depth);
        let objects = "{\"k\":".repeat(depth) + "1" + &"}".repeat(depth);
        let variants = [
            format!("{open}{stripped}{close}"),
            stripped.replacen("\"layers\":", &format!("\"layers\":{open}"), 1) + &close,
            stripped.replacen("\"weights\":[", &format!("\"weights\":[{open}"), 1),
            stripped.replacen(
                "\"format\":",
                &format!("\"extra\":{objects},\"format\":"),
                1,
            ),
            stripped.replacen("\"tau\":4", &format!("\"tau\":{open}4{close}"), 1),
        ];
        for (i, doc) in variants.iter().enumerate() {
            let case = format!("depth {depth} variant {i}");
            let outcome = load(&format!("{case} stripped"), doc);
            let sealed = integrity::seal(doc);
            assert_eq!(load(&format!("{case} sealed"), &sealed), outcome, "{case}");
            // Only the unknown member may nest; it must stay within the
            // parser's limit to load.
            let loads = i == 3 && depth < 128;
            assert_eq!(outcome == "network", loads, "{case}: {outcome}");
        }
    }
}
