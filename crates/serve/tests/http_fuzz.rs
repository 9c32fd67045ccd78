//! Fuzz-style robustness tests for the HTTP request parser and the
//! serving front end: deterministic, in-tree `Rng`-driven mutations of
//! valid requests (byte flips, truncations, insertions, oversized
//! headers) must never panic or hang — the parser always returns a
//! request or a typed error, and a live server always answers a mutant
//! with a well-formed HTTP response (4xx for the broken ones) or a
//! clean connection close within the timeout.
//!
//! Every case is seeded from a fixed list, so a failure reproduces
//! exactly; there is no wall-clock or entropy dependence.

use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_data::shd::{self, ShdConfig};
use snn_engine::Engine;
use snn_json::Json;
use snn_neuron::NeuronParams;
use snn_serve::http::{read_request, HttpError, MAX_HEADERS, MAX_LINE_BYTES};
use snn_serve::{serve, ServerConfig};
use snn_tensor::Rng;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const MAX_BODY: usize = 64 * 1024;

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

/// A handful of structurally different valid requests to mutate.
fn valid_requests() -> Vec<Vec<u8>> {
    let raster = SpikeRaster::from_events(10, 6, &[(0, 1), (3, 4), (9, 5)]);
    // One paper-size SHD body: 700 channels, T = 100, ~15 kB.
    let shd = ShdConfig {
        samples_per_class: 1,
        ..ShdConfig::paper()
    };
    let paper = &shd::generate(&shd, 1).samples[0].0;
    let batch = Json::obj(vec![(
        "rasters",
        Json::Arr(vec![
            raster.to_json(),
            SpikeRaster::from_events(4, 6, &[(0, 0), (2, 3)]).to_json(),
        ]),
    )]);
    vec![
        b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n".to_vec(),
        b"GET /metrics?verbose=1 HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        post("/classify", &raster.to_json().to_string()),
        b"POST /classify_batch HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}".to_vec(),
        post("/classify", &paper.to_json().to_string()),
        post("/classify_batch", &batch.to_string()),
    ]
}

/// Applies `n_edits` random single-byte edits (overwrite, insert,
/// delete) to `bytes`.
fn mutate(bytes: &[u8], rng: &mut Rng, n_edits: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..n_edits {
        if out.is_empty() {
            break;
        }
        let pos = rng.uniform(0.0, out.len() as f32) as usize % out.len();
        match rng.uniform(0.0, 3.0) as usize {
            0 => out[pos] = rng.uniform(0.0, 256.0) as u8,
            1 => out.insert(pos, rng.uniform(0.0, 256.0) as u8),
            _ => {
                out.remove(pos);
            }
        }
    }
    out
}

/// The parser contract under fuzzing: a clean return, never a panic.
/// (Reading from an in-memory buffer, a hang is impossible unless the
/// parser loops without consuming — the bounded line reader prevents
/// that, and the test completing is the proof.)
fn parse_must_not_panic(bytes: &[u8]) {
    let _ = read_request(&mut BufReader::new(bytes), MAX_BODY);
}

#[test]
fn truncations_of_valid_requests_never_panic() {
    for req in valid_requests() {
        for cut in 0..=req.len() {
            parse_must_not_panic(&req[..cut]);
        }
    }
}

#[test]
fn random_byte_mutations_never_panic() {
    let requests = valid_requests();
    for seed in 0u64..200 {
        let mut rng = Rng::seed_from(seed);
        for req in &requests {
            for n_edits in [1usize, 3, 16] {
                let mutant = mutate(req, &mut rng, n_edits);
                parse_must_not_panic(&mutant);
            }
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    for seed in 200u64..260 {
        let mut rng = Rng::seed_from(seed);
        let len = rng.uniform(0.0, 512.0) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.uniform(0.0, 256.0) as u8).collect();
        parse_must_not_panic(&garbage);
        // Garbage that at least terminates a line must parse to an
        // error, not a request.
        let mut with_newlines = garbage;
        with_newlines.extend_from_slice(b"\r\n\r\n");
        if let Ok(Some(req)) = read_request(&mut BufReader::new(with_newlines.as_slice()), MAX_BODY)
        {
            // Extraordinarily unlikely, but if the garbage happened to
            // be a valid request it must at least be self-consistent.
            assert!(!req.method.is_empty());
        }
    }
}

#[test]
fn oversized_header_lines_and_counts_are_typed_errors() {
    // One header line longer than the limit.
    let long_value = "x".repeat(MAX_LINE_BYTES + 10);
    let raw = format!("GET / HTTP/1.1\r\nX-Fuzz: {long_value}\r\n\r\n");
    match read_request(&mut BufReader::new(raw.as_bytes()), MAX_BODY) {
        Err(HttpError::Malformed(msg)) => assert!(msg.contains("too long"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // More headers than the limit.
    let mut raw = String::from("GET / HTTP/1.1\r\n");
    for i in 0..(MAX_HEADERS + 5) {
        raw.push_str(&format!("X-H{i}: v\r\n"));
    }
    raw.push_str("\r\n");
    match read_request(&mut BufReader::new(raw.as_bytes()), MAX_BODY) {
        Err(HttpError::Malformed(msg)) => assert!(msg.contains("too many"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // Content-Length overflowing usize parsing is malformed, not a panic.
    let raw = "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
    assert!(matches!(
        read_request(&mut BufReader::new(raw.as_bytes()), MAX_BODY),
        Err(HttpError::Malformed(_))
    ));
}

#[test]
fn duplicate_content_length_headers_are_handled_per_rfc9112() {
    // Conflicting duplicates: typed Malformed error, never a parse that
    // picks one of the lengths (the request-smuggling vector).
    for (a, b) in [(4usize, 11usize), (0, 4), (11, 4)] {
        let raw = format!(
            "POST /classify HTTP/1.1\r\nContent-Length: {a}\r\nContent-Length: {b}\r\n\r\n{}",
            "x".repeat(a.max(b))
        );
        match read_request(&mut BufReader::new(raw.as_bytes()), MAX_BODY) {
            Err(HttpError::Malformed(msg)) => assert!(msg.contains("conflicting"), "{msg}"),
            other => panic!("({a},{b}): expected Malformed, got {other:?}"),
        }
    }
    // Identical duplicates collapse to one length.
    let raw = "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}";
    let req = read_request(&mut BufReader::new(raw.as_bytes()), MAX_BODY)
        .unwrap()
        .unwrap();
    assert_eq!(req.body, b"{}");
    // Mixed valid/garbage duplicates are malformed, not first-match.
    let raw = "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: zz\r\n\r\n{}";
    assert!(matches!(
        read_request(&mut BufReader::new(raw.as_bytes()), MAX_BODY),
        Err(HttpError::Malformed(_))
    ));
}

/// End-to-end: mutated requests against a live server must always yield
/// a well-formed HTTP response (4xx for broken ones) or a clean close —
/// never a hang (bounded by the socket timeout) and never a server
/// panic (the server keeps answering a control request afterwards).
#[test]
fn live_server_answers_mutants_with_4xx_or_clean_close() {
    let mut rng_net = Rng::seed_from(5);
    let net = Network::mlp(
        &[6, 10, 3],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.4),
        &mut rng_net,
    );
    let server = serve(Engine::from_network(net).build(), ServerConfig::default())
        .expect("bind ephemeral port");

    let requests = valid_requests();
    for seed in 0u64..40 {
        let mut rng = Rng::seed_from(1000 + seed);
        let base = &requests[seed as usize % requests.len()];
        // Heavier mutation for the structural cases, light for a few.
        let mutant = mutate(base, &mut rng, 1 + (seed as usize % 8));

        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The peer may reject mid-write (e.g. oversized declared body);
        // a broken pipe here is a valid outcome, not a test failure.
        let _ = stream.write_all(&mutant);
        let _ = stream.write_all(b"\r\n");
        let _ = stream.flush();
        let _ = stream.shutdown(std::net::Shutdown::Write);

        let mut response = Vec::new();
        match stream.take(1 << 20).read_to_end(&mut response) {
            Ok(0) => {} // clean close with no bytes: acceptable rejection
            Ok(_) => {
                // Whatever came back must be a well-formed status line.
                let head = String::from_utf8_lossy(&response);
                assert!(
                    head.starts_with("HTTP/1.1 "),
                    "seed {seed}: malformed response {head:?}"
                );
                let status: u16 = head[9..12].parse().unwrap_or(0);
                assert!(
                    (200..600).contains(&status),
                    "seed {seed}: bad status in {head:?}"
                );
            }
            Err(e) => panic!("seed {seed}: read failed or timed out: {e}"),
        }
    }

    // The server survived the barrage and still serves.
    let mut client = snn_serve::Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(client.healthz().unwrap(), "ok");
    let m = server.metrics();
    assert_eq!(
        m.responses_server_error.get(),
        0,
        "mutants must map to 4xx, not 5xx"
    );
    server.shutdown();
}

/// Request-smuggling pin: the parser does not implement
/// `Transfer-Encoding`, so a chunked request must be refused outright
/// with `501` and a close. If it were parsed as body-less instead (the
/// old behavior), the chunk payload below — crafted to look like a
/// second request — would be read as a smuggled pipelined request on
/// the same connection and draw a second response.
#[test]
fn transfer_encoding_is_refused_with_501_and_close() {
    let mut rng_net = Rng::seed_from(7);
    let net = Network::mlp(
        &[4, 6, 2],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults(),
        &mut rng_net,
    );
    let server = serve(Engine::from_network(net).build(), ServerConfig::default())
        .expect("bind ephemeral port");

    let smuggled = b"POST /classify HTTP/1.1\r\nHost: fuzz\r\nTransfer-Encoding: chunked\r\n\r\n\
                     1b\r\nGET /healthz HTTP/1.1\r\n\r\n\r\n0\r\n\r\n";
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(smuggled).expect("write");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = Vec::new();
    stream
        .take(1 << 20)
        .read_to_end(&mut response)
        .expect("clean close after the 501");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 501"), "got: {text}");
    assert_eq!(
        text.matches("HTTP/1.1 ").count(),
        1,
        "exactly one response — the chunk payload must never be parsed \
         as a second request: {text}"
    );
    assert_eq!(
        server.metrics().requests_total.get(),
        1,
        "the smuggled inner request must not be counted"
    );
    server.shutdown();
}

/// Structurally-broken heads (no valid request line) must specifically
/// draw a 4xx when any response is produced at all.
#[test]
fn live_server_answers_garbage_heads_with_400() {
    let mut rng_net = Rng::seed_from(6);
    let net = Network::mlp(
        &[4, 6, 2],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults(),
        &mut rng_net,
    );
    let server = serve(Engine::from_network(net).build(), ServerConfig::default())
        .expect("bind ephemeral port");

    for raw in [
        &b"GARBAGE\r\n\r\n"[..],
        &b"GET /\r\n\r\n"[..],
        &b"GET / SPDY/3\r\n\r\n"[..],
        &b"POST /classify HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
        &b"POST /classify HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\nabcd"[..],
        &b"\xff\xfe\xfd\r\n\r\n"[..],
    ] {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(raw).expect("write");
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut response = Vec::new();
        stream
            .take(1 << 20)
            .read_to_end(&mut response)
            .expect("read response");
        let head = String::from_utf8_lossy(&response);
        assert!(
            head.starts_with("HTTP/1.1 4"),
            "expected 4xx for {raw:?}, got {head:?}"
        );
    }
    server.shutdown();
}
