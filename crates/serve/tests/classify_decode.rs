//! The one-pass body decoder behind `POST /classify` and
//! `POST /classify_batch` ([`decode_rasters`]) must answer every body
//! exactly like the tree path it replaced: `Json::parse`, then the
//! route's cell-cap and input-width checks and `SpikeRaster::from_json`
//! per raster. "Exactly" means the same rasters, or the same status and
//! the same error message, byte for byte.
//!
//! Inputs: paper-scale SHD bodies, seeded byte flips, insertions,
//! deletions and truncations of small and paper-scale bodies, and
//! hand-written edge cases. Every case is seeded from a fixed list, so a
//! failure reproduces exactly.

use snn_core::SpikeRaster;
use snn_data::shd::{self, ShdConfig};
use snn_json::Json;
use snn_serve::http::Response;
use snn_serve::{decode_rasters, ServerConfig};
use snn_tensor::Rng;

/// The tree path the routes took before the one-pass decoder, kept here
/// as the reference.
fn reference(
    body: &[u8],
    batch: bool,
    config: &ServerConfig,
    n_in: usize,
) -> Result<Vec<SpikeRaster>, Response> {
    let text =
        std::str::from_utf8(body).map_err(|_| Response::error(400, "body is not valid utf-8"))?;
    let doc = Json::parse(text).map_err(|e| Response::error(400, &format!("invalid json: {e}")))?;
    let rasters = if batch {
        let Some(rasters) = doc.get("rasters").and_then(Json::as_array) else {
            return Err(Response::error(400, "missing \"rasters\" array"));
        };
        if rasters.len() > config.max_batch_request {
            return Err(Response::error(
                400,
                &format!(
                    "batch of {} samples exceeds limit of {}",
                    rasters.len(),
                    config.max_batch_request
                ),
            ));
        }
        rasters
    } else {
        std::slice::from_ref(&doc)
    };
    rasters
        .iter()
        .map(|v| {
            let steps = v.get("steps").and_then(Json::as_usize).unwrap_or(0);
            let channels = v.get("channels").and_then(Json::as_usize);
            let declared = channels.unwrap_or(0);
            if steps.saturating_mul(declared) > config.max_raster_cells {
                return Err(Response::error(
                    400,
                    &format!(
                        "raster of {steps}x{declared} cells exceeds limit of {} cells",
                        config.max_raster_cells
                    ),
                ));
            }
            if channels.is_some_and(|c| c != n_in) {
                return Err(Response::error(
                    400,
                    &format!("raster has {declared} channels, model expects {n_in}"),
                ));
            }
            SpikeRaster::from_json(v)
                .map_err(|e| Response::error(400, &format!("invalid raster: {e}")))
        })
        .collect()
}

/// What a route answers: the rasters it would classify, or its error's
/// status and body.
type Answer = Result<Vec<SpikeRaster>, (u16, String)>;

fn answer(decoded: Result<Vec<SpikeRaster>, Response>) -> Answer {
    decoded.map_err(|r| {
        (
            r.status,
            String::from_utf8(r.body).expect("error bodies are utf-8"),
        )
    })
}

/// Asserts the decoder and the reference agree on `body`, and returns
/// the shared answer.
fn same_answer(body: &[u8], batch: bool, config: &ServerConfig, n_in: usize) -> Answer {
    let got = answer(decode_rasters(body, batch, config, n_in));
    let want = answer(reference(body, batch, config, n_in));
    assert_eq!(
        got,
        want,
        "batch={batch} body {:?}",
        String::from_utf8_lossy(&body[..body.len().min(400)])
    );
    got
}

fn error_of(answer: Answer) -> String {
    match answer {
        Err((status, body)) => {
            assert_eq!(status, 400, "{body}");
            body
        }
        Ok(rasters) => panic!("expected a 400, decoded {} rasters", rasters.len()),
    }
}

fn batch_body(rasters: &[SpikeRaster]) -> String {
    Json::obj(vec![(
        "rasters",
        Json::Arr(rasters.iter().map(SpikeRaster::to_json).collect()),
    )])
    .to_string()
}

/// Paper-scale SHD rasters: 700 channels, T = 100, ~15 kB as JSON. Two
/// samples per class keep the debug-build test fast; the rasters have
/// the paper configuration's size and density.
fn paper_rasters(seed: u64) -> Vec<SpikeRaster> {
    let cfg = ShdConfig {
        samples_per_class: 2,
        ..ShdConfig::paper()
    };
    shd::generate(&cfg, seed)
        .samples
        .into_iter()
        .map(|(raster, _)| raster)
        .collect()
}

fn small_rasters() -> Vec<SpikeRaster> {
    vec![
        SpikeRaster::from_events(10, 6, &[(0, 1), (3, 4), (9, 5)]),
        SpikeRaster::from_events(4, 6, &[(0, 0), (0, 5), (2, 3), (3, 1)]),
        SpikeRaster::zeros(3, 6),
    ]
}

/// Bytes that steer mutations into the grammar's corners.
const ALPHABET: &[u8] = b" \t\n{}[],:\"\\-+.eE0123456789\x00\x1f\x7f\xc3\xff";

/// One random edit: overwrite, insert, delete, or truncate.
fn mutate(bytes: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    let pos = rng.below(out.len());
    let byte = if rng.coin(0.8) {
        ALPHABET[rng.below(ALPHABET.len())]
    } else {
        rng.below(256) as u8
    };
    match rng.below(8) {
        0..=2 => out[pos] = byte,
        3..=4 => out.insert(pos, byte),
        5..=6 => {
            out.remove(pos);
        }
        _ => out.truncate(pos),
    }
    out
}

/// A tight configuration, so mutated sizes also cross the cell cap and
/// the batch limit.
fn tight() -> ServerConfig {
    ServerConfig {
        max_raster_cells: 64,
        max_batch_request: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn paper_scale_bodies_decode_to_the_generated_rasters() {
    let config = ServerConfig::default();
    for seed in [3u64, 4] {
        let rasters = paper_rasters(seed);
        for raster in &rasters {
            let body = raster.to_json().to_string();
            let decoded = same_answer(body.as_bytes(), false, &config, 700).unwrap();
            assert_eq!(decoded, std::slice::from_ref(raster));
        }
        let body = batch_body(&rasters[..8]);
        let decoded = same_answer(body.as_bytes(), true, &config, 700).unwrap();
        assert_eq!(decoded, &rasters[..8]);
    }
}

#[test]
fn mutated_small_bodies_answer_like_the_tree_path() {
    let small = small_rasters();
    let bodies: Vec<(String, bool)> = small
        .iter()
        .map(|r| (r.to_json().to_string(), false))
        .chain([(batch_body(&small[..2]), true), (batch_body(&small), true)])
        .collect();
    let configs = [ServerConfig::default(), tight()];
    let mut outcomes = std::collections::BTreeMap::<String, usize>::new();
    for seed in 0u64..2000 {
        let mut rng = Rng::seed_from(seed);
        for (body, batch) in &bodies {
            let mut mutant = mutate(body.as_bytes(), &mut rng);
            for _ in 0..rng.below(3) {
                mutant = mutate(&mutant, &mut rng);
            }
            let config = &configs[rng.below(2)];
            // The batch route also sees single-raster bodies, and the
            // single route batch bodies.
            let batch = *batch ^ rng.coin(0.1);
            let outcome = match same_answer(&mutant, batch, config, 6) {
                Ok(_) => "accepted".to_string(),
                Err((_, body)) => body.chars().take(40).collect(),
            };
            *outcomes.entry(outcome).or_default() += 1;
        }
    }
    let cases: usize = outcomes.values().sum();
    assert!(cases >= 10_000, "{cases} cases");
    // The mutants reach every check, and some are still accepted.
    for outcome in [
        "accepted",
        "{\"error\": \"body is not",
        "{\"error\": \"invalid json",
        "{\"error\": \"missing ",
        "{\"error\": \"batch of ",
        "{\"error\": \"raster of ",
        "{\"error\": \"raster has ",
        "{\"error\": \"invalid raster",
    ] {
        assert!(
            outcomes.keys().any(|k| k.starts_with(outcome)),
            "no mutant answered {outcome:?}: {outcomes:?}"
        );
    }
}

#[test]
fn mutated_paper_scale_bodies_answer_like_the_tree_path() {
    let rasters = paper_rasters(5);
    let single = rasters[0].to_json().to_string();
    let batch = batch_body(&rasters[1..3]);
    let config = ServerConfig::default();
    let mut cases = 0;
    for seed in 0u64..150 {
        let mut rng = Rng::seed_from(10_000 + seed);
        for (body, is_batch) in [(&single, false), (&batch, true)] {
            let mut mutant = mutate(body.as_bytes(), &mut rng);
            if rng.coin(0.5) {
                mutant = mutate(&mutant, &mut rng);
            }
            let _ = same_answer(&mutant, is_batch, &config, 700);
            cases += 1;
        }
    }
    assert_eq!(cases, 300);
}

#[test]
fn hand_written_bodies_answer_like_the_tree_path() {
    let config = ServerConfig::default();
    let one = |body: &str| same_answer(body.as_bytes(), false, &config, 3);
    let raster = SpikeRaster::from_events(4, 3, &[(0, 2), (3, 1)]);

    // Members in any order, events first; duplicates: the first wins;
    // unknown members hold any value.
    for body in [
        r#"{"events": [[3, 1], [0, 2]], "steps": 4, "channels": 3}"#,
        r#"{"channels": 3, "events": [[0, 2], [3, 1]], "steps": 4}"#,
        r#"{"steps": 4, "steps": "x", "channels": 3, "channels": 99, "events": [[0, 2], [3, 1]], "events": 7}"#,
        r#"{"meta": {"a": [1, {"b": [null, true]}], "s": "\u0041\n"}, "steps": 4, "channels": 3, "events": [[3, 1], [0, 2], [0, 2]], "x": []}"#,
        // 1.0, 1e0 and -0 are integers; repeats collapse.
        r#"{"steps": 4.0, "channels": 3e0, "events": [[-0, 2], [3, 1.0], [0.0, 2e0]]}"#,
    ] {
        assert_eq!(one(body).unwrap(), std::slice::from_ref(&raster), "{body}");
    }
    assert_eq!(
        one(r#"{"steps": 4, "channels": 3, "events": []}"#).unwrap(),
        [SpikeRaster::zeros(4, 3)]
    );

    // The first violation by event index, whichever kind it is.
    let cases = [
        (
            r#"{"steps": "4", "channels": 3, "events": []}"#,
            "missing or non-integer \\\"steps\\\"",
        ),
        (
            r#"{"steps": 4, "events": []}"#,
            "missing or non-integer \\\"channels\\\"",
        ),
        (
            r#"{"steps": 4, "channels": 3, "events": {}}"#,
            "missing or non-array \\\"events\\\"",
        ),
        (
            r#"{"steps": 4, "channels": 3, "events": [[0, 0], [9, 0], [0]]}"#,
            "event 1 at (9,0) outside 4x3 raster",
        ),
        (
            r#"{"steps": 4, "channels": 3, "events": [[0, 0], [0], [9, 0]]}"#,
            "event 1 is not a [t, c] pair",
        ),
        (
            r#"{"steps": 4, "channels": 3, "events": [[0, 0, 0]]}"#,
            "event 0 is not a [t, c] pair",
        ),
        (
            r#"{"steps": 4, "channels": 3, "events": [[-1, 0]]}"#,
            "event 0: non-integer time",
        ),
        (
            r#"{"steps": 4, "channels": 3, "events": [[0.5, 0.5]]}"#,
            "event 0: non-integer time",
        ),
        (
            r#"{"steps": 4, "channels": 3, "events": [[0, 1e400]]}"#,
            "event 0: non-integer channel",
        ),
        (
            r#"{"steps": 4, "channels": 3, "events": [[1, "2"]]}"#,
            "event 0: non-integer channel",
        ),
        (
            r#"{"steps": 4, "channels": 3, "events": [[9007199254740993, 0]]}"#,
            "event 0 at (9007199254740992,0) outside 4x3 raster",
        ),
        // Over the cap or the wrong width, with bad events too: the
        // size checks come first.
        (
            r#"{"events": [[0]], "steps": 2000000, "channels": 3}"#,
            "raster of 2000000x3 cells exceeds limit of 4194304 cells",
        ),
        (
            r#"{"events": [[0]], "steps": 4, "channels": 5}"#,
            "raster has 5 channels, model expects 3",
        ),
        (
            r#"{"events": [[0]], "steps": 18446744073709551616, "channels": 3}"#,
            "raster of 18446744073709551615x3 cells exceeds limit of 4194304 cells",
        ),
        // A value that is not an object declares nothing.
        (r#"[[0, 1]]"#, "missing or non-integer \\\"steps\\\""),
        ("7", "missing or non-integer \\\"steps\\\""),
    ];
    for (body, message) in cases {
        let error = error_of(one(body));
        assert!(error.contains(message), "{body}: {error}");
    }

    // Grammar errors anywhere outrank every raster fault.
    let deep = format!(
        r#"{{"steps": 4, "channels": 3, "events": [[9, 9]], "x": {}1{}}}"#,
        "[".repeat(129),
        "]".repeat(129)
    );
    assert!(error_of(one(&deep)).contains("nesting too deep"));
    let shallow = format!(
        r#"{{"x": {}{}, "steps": 4, "channels": 3, "events": []}}"#,
        "[".repeat(128),
        "]".repeat(128)
    );
    assert_eq!(one(&shallow).unwrap(), [SpikeRaster::zeros(4, 3)]);
    for body in [
        r#"{"steps": 4, "channels": 9, "events": [[0, 0]]} x"#,
        r#"{"steps": 4, "channels": 3, "events": [[01, 2]]}"#,
        r#"{"steps": 4, "channels": 3, "events": [[1., 2]]}"#,
        "{\"steps\": 4, \"channels\": 3, \"events\": [], \"k\": \"a\tb\"}",
        "",
    ] {
        assert!(error_of(one(body)).contains("invalid json"), "{body}");
    }
    let error = error_of(same_answer(b"{\"steps\": 4\xff}", false, &config, 3));
    assert!(error.contains("not valid utf-8"), "{error}");
}

#[test]
fn hand_written_batches_answer_like_the_tree_path() {
    let tight = tight();
    let batch = |body: &str| same_answer(body.as_bytes(), true, &tight, 3);
    let good = r#"{"steps": 2, "channels": 3, "events": [[1, 2]]}"#;
    let raster = SpikeRaster::from_events(2, 3, &[(1, 2)]);
    assert_eq!(
        batch(&format!(
            r#"{{"id": 7, "rasters": [{good}, {good}], "rasters": 5}}"#
        ))
        .unwrap(),
        [raster.clone(), raster.clone()]
    );
    assert_eq!(batch(r#"{"rasters": []}"#).unwrap(), []);
    for (body, message) in [
        (r#"{"rasters": 5, "rasters": []}"#.to_string(), "missing \\\"rasters\\\" array"),
        (r#"[{"steps": 2}]"#.to_string(), "missing \\\"rasters\\\" array"),
        // The batch limit outranks the rasters' own faults.
        (format!(r#"{{"rasters": [{good}, {{}}, {good}]}}"#), "batch of 3 samples exceeds limit of 2"),
        // Raster by raster, in order.
        (format!(r#"{{"rasters": [{good}, {{"steps": 2, "channels": 3, "events": [[2, 0]]}}]}}"#), "event 0 at (2,0) outside 2x3 raster"),
        (format!(r#"{{"rasters": [{{"steps": 100, "channels": 3, "events": [[0]]}}, {good}]}}"#), "raster of 100x3 cells exceeds limit of 64 cells"),
        (r#"{"rasters": [{"steps": 2, "channels": 4, "events": []}, {"steps": 100, "channels": 3, "events": []}]}"#.to_string(), "raster has 4 channels, model expects 3"),
        (r#"{"rasters": [{}, 1] } ,"#.to_string(), "invalid json"),
    ] {
        let error = error_of(batch(&body));
        assert!(error.contains(message), "{body}: {error}");
    }
}
