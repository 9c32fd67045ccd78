//! Fuzz-style robustness tests for the binary stream wire protocol,
//! mirroring `http_fuzz.rs`: deterministic, in-tree `Rng`-driven
//! mutations of valid frame transcripts (byte flips, truncations,
//! insertions, oversized declared lengths, pure garbage) must never
//! panic or hang — the frame parsers always return a frame or a typed
//! [`WireError`], and a live server always answers a mutant with a
//! well-formed typed `ERROR` reply or a clean connection close.
//!
//! Every case is seeded from a fixed list, so a failure reproduces
//! exactly; there is no wall-clock or entropy dependence.

use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_engine::Engine;
use snn_neuron::NeuronParams;
use snn_serve::wire::{self, MAGIC, MAX_FRAME_PAYLOAD};
use snn_serve::{serve, Client, ErrorCode, Frame, Reply, ServerConfig};
use snn_tensor::Rng;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One structurally complete, valid session transcript (after the
/// magic): HELLO, EVENTS, TICK, READOUT, RESET, CLOSE.
fn valid_transcript(n_in: u32) -> Vec<u8> {
    let raster = SpikeRaster::from_events(10, n_in as usize, &[(0, 1), (3, 4), (9, 5)]);
    let deltas: Vec<(u16, u16)> = raster
        .delta_events()
        .iter()
        .map(|&(dt, ch)| (dt as u16, ch as u16))
        .collect();
    let mut out = Vec::new();
    for frame in [
        Frame::Hello {
            n_in,
            max_pending: 0,
        },
        Frame::Events(deltas),
        Frame::Tick {
            advance: raster.steps() as u32,
        },
        Frame::Readout,
        Frame::Reset,
        Frame::Close,
    ] {
        frame.write_to(&mut out).unwrap();
    }
    out
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

/// The parser contract under fuzzing: both frame directions must return
/// cleanly — a parsed frame, `None` at a frame boundary, or a typed
/// [`WireError`] — and never panic. Reading from an in-memory buffer, a
/// hang is impossible unless the parser loops without consuming; the
/// test completing is the proof.
fn parsers_must_not_panic(bytes: &[u8]) {
    let mut reader = BufReader::new(bytes);
    while let Ok(Some(_)) = Frame::read_from(&mut reader) {}
    let mut reader = BufReader::new(bytes);
    while let Ok(Some(_)) = Reply::read_from(&mut reader) {}
}

#[test]
fn truncations_of_a_valid_transcript_never_panic() {
    let transcript = valid_transcript(6);
    for cut in 0..=transcript.len() {
        parsers_must_not_panic(&transcript[..cut]);
    }
}

#[test]
fn random_byte_mutations_never_panic_the_parsers() {
    let transcript = valid_transcript(6);
    for seed in 0u64..200 {
        let mut rng = Rng::seed_from(seed);
        for n_edits in [1usize, 3, 16] {
            let mutant = mutate(&transcript, &mut rng, n_edits);
            parsers_must_not_panic(&mutant);
        }
    }
}

#[test]
fn random_garbage_never_panics_the_parsers() {
    for seed in 200u64..260 {
        let mut rng = Rng::seed_from(seed);
        let len = rng.uniform(0.0, 512.0) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.uniform(0.0, 256.0) as u8).collect();
        parsers_must_not_panic(&garbage);
    }
}

#[test]
fn oversized_declared_lengths_are_typed_errors_not_allocations() {
    // A header declaring a payload past the cap must be rejected before
    // any proportional allocation or read.
    let mut raw = Vec::new();
    raw.push(0x02); // EVENTS
    raw.extend_from_slice(&u32::try_from(MAX_FRAME_PAYLOAD + 1).unwrap().to_le_bytes());
    raw.extend_from_slice(&[0u8; 16]);
    match Frame::read_from(&mut BufReader::new(raw.as_slice())) {
        Err(wire::WireError::TooLarge { declared, limit }) => {
            assert_eq!(declared, MAX_FRAME_PAYLOAD + 1);
            assert_eq!(limit, MAX_FRAME_PAYLOAD);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

fn fuzz_server() -> snn_serve::ServerHandle {
    let mut rng_net = Rng::seed_from(5);
    let net = Network::mlp(
        &[6, 10, 3],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.4),
        &mut rng_net,
    );
    serve(Engine::from_network(net).build(), ServerConfig::default()).expect("bind ephemeral port")
}

/// Waits for every resident stream session to be reclaimed. A closed
/// connection reaches its stream worker asynchronously, so the gauge can
/// lag the close under load; a real leak never drains and fails here.
fn assert_sessions_reclaimed(server: &snn_serve::ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().stream_sessions_resident.get() != 0 {
        assert!(Instant::now() < deadline, "sessions leaked");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Writes `body` after the magic preamble, half-closes, and returns
/// whatever the server answered (bounded by the read timeout).
fn exchange(addr: std::net::SocketAddr, body: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The peer may close mid-write after answering a typed error; a
    // broken pipe here is a valid outcome, not a test failure.
    let _ = stream.write_all(&MAGIC);
    let _ = stream.write_all(body);
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = Vec::new();
    stream
        .take(1 << 20)
        .read_to_end(&mut response)
        .expect("read replies");
    response
}

/// Whatever a live server sends back must parse as a sequence of whole,
/// well-formed reply frames — typed errors included — ending at a clean
/// frame boundary.
fn assert_replies_well_formed(response: &[u8], label: &str) {
    let mut reader = BufReader::new(response);
    loop {
        match Reply::read_from(&mut reader) {
            Ok(Some(_)) => {}
            Ok(None) => return,
            Err(e) => panic!("{label}: server sent a malformed reply: {e}"),
        }
    }
}

/// End-to-end: mutated transcripts against a live server must always
/// yield well-formed typed replies or a clean close — never a hang
/// (bounded by the socket timeout), never a worker panic, and never a
/// wrong-protocol response (the server keeps serving HTTP afterwards).
#[test]
fn live_server_answers_stream_mutants_with_typed_errors_or_clean_close() {
    let server = fuzz_server();
    let transcript = valid_transcript(6);

    for seed in 0u64..40 {
        let mut rng = Rng::seed_from(1000 + seed);
        let mutant = mutate(&transcript, &mut rng, 1 + (seed as usize % 8));
        let response = exchange(server.addr(), &mutant);
        assert_replies_well_formed(&response, &format!("seed {seed}"));
    }

    // The server survived the barrage: no worker died (faults are off,
    // so any panic would be a real bug), nothing leaked into the HTTP
    // error counters, and both protocols still answer.
    let m = server.metrics();
    assert_eq!(m.worker_panics_total.get(), 0, "a mutant panicked a worker");
    assert_eq!(m.responses_server_error.get(), 0);
    assert_sessions_reclaimed(&server);
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(client.healthz().unwrap(), "ok");
    server.shutdown();
}

#[test]
fn live_server_answers_garbage_streams_with_typed_errors() {
    let server = fuzz_server();
    for seed in 300u64..330 {
        let mut rng = Rng::seed_from(seed);
        let len = 1 + rng.uniform(0.0, 256.0) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| rng.uniform(0.0, 256.0) as u8).collect();
        let response = exchange(server.addr(), &garbage);
        assert_replies_well_formed(&response, &format!("seed {seed}"));
    }
    assert_eq!(server.metrics().worker_panics_total.get(), 0);
    assert_sessions_reclaimed(&server);
    server.shutdown();
}

#[test]
fn live_server_rejects_oversized_frames_and_non_hello_starts() {
    let server = fuzz_server();

    // A declared length past the cap after a valid handshake: typed
    // BAD_FRAME, then close.
    let mut body = Vec::new();
    Frame::Hello {
        n_in: 6,
        max_pending: 0,
    }
    .write_to(&mut body)
    .unwrap();
    body.push(0x02); // EVENTS
    body.extend_from_slice(&u32::try_from(MAX_FRAME_PAYLOAD + 7).unwrap().to_le_bytes());
    let response = exchange(server.addr(), &body);
    let mut reader = BufReader::new(response.as_slice());
    assert!(matches!(
        Reply::read_from(&mut reader).unwrap(),
        Some(Reply::HelloOk { .. })
    ));
    match Reply::read_from(&mut reader).unwrap() {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BAD_FRAME error, got {other:?}"),
    }

    // A session that does not start with HELLO: typed PROTOCOL error.
    let mut body = Vec::new();
    Frame::Readout.write_to(&mut body).unwrap();
    let response = exchange(server.addr(), &body);
    match Reply::read_from(&mut BufReader::new(response.as_slice())).unwrap() {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected PROTOCOL error, got {other:?}"),
    }

    assert_sessions_reclaimed(&server);
    server.shutdown();
}
