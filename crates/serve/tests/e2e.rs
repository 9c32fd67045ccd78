//! End-to-end tests over real loopback sockets: routing, keep-alive,
//! error paths, admission control, metrics, and graceful shutdown.

use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_engine::Engine;
use snn_neuron::NeuronParams;
use snn_serve::{serve, BatchPolicy, Client, FaultPlan, ServerConfig, ServerHandle};
use snn_tensor::Rng;
use std::sync::Arc;
use std::time::Duration;

fn engine(seed: u64) -> Engine {
    let mut rng = Rng::seed_from(seed);
    let net = Network::mlp(
        &[6, 12, 4],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.4),
        &mut rng,
    );
    Engine::from_network(net).build()
}

fn inputs(n: usize, seed: u64) -> Vec<SpikeRaster> {
    let mut rng = Rng::seed_from(seed);
    (0..n)
        .map(|_| {
            let mut r = SpikeRaster::zeros(10, 6);
            for t in 0..10 {
                for c in 0..6 {
                    if rng.coin(0.25) {
                        r.set(t, c, true);
                    }
                }
            }
            r
        })
        .collect()
}

fn start(seed: u64, policy: BatchPolicy) -> ServerHandle {
    serve(
        engine(seed),
        ServerConfig {
            policy,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

#[test]
fn classify_over_the_wire_matches_the_engine() {
    let samples = inputs(12, 2);
    let expected = engine(1).classify_batch(&samples);
    let server = start(1, BatchPolicy::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // Keep-alive: every request rides the same connection.
    for (raster, &want) in samples.iter().zip(&expected) {
        assert_eq!(client.classify(raster).unwrap(), want);
    }
    assert_eq!(client.classify_batch(&samples).unwrap(), expected);
    assert_eq!(client.healthz().unwrap(), "ok");

    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("snn_requests_total"));
    assert!(metrics.contains("snn_batch_size_bucket"));
    let m = server.metrics();
    assert_eq!(m.jobs_total.get(), 24);
    assert!(m.responses_ok.get() >= 15);
    assert_eq!(m.responses_server_error.get(), 0);
    server.shutdown();
}

#[test]
fn error_paths_answer_with_json_errors() {
    let server = start(3, BatchPolicy::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // Unknown route.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    // Wrong method.
    assert_eq!(client.get("/classify").unwrap().status, 405);
    assert_eq!(
        client.request("POST", "/healthz", b"{}").unwrap().status,
        405
    );
    // Invalid JSON.
    let resp = client.request("POST", "/classify", b"{oops").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body_str().contains("invalid json"));
    // Valid JSON, wrong shape.
    let resp = client.request("POST", "/classify", b"{\"x\": 1}").unwrap();
    assert_eq!(resp.status, 400);
    // Channel mismatch (model expects 6).
    let wrong = SpikeRaster::zeros(5, 3).to_json().to_string();
    let resp = client
        .request("POST", "/classify", wrong.as_bytes())
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body_str().contains("channels"));
    // Batch without the rasters key.
    let resp = client
        .request("POST", "/classify_batch", b"{\"samples\": []}")
        .unwrap();
    assert_eq!(resp.status, 400);
    // The connection survives all of the above (keep-alive), and the
    // server still serves.
    assert_eq!(client.healthz().unwrap(), "ok");
    assert!(server.metrics().responses_client_error.get() >= 6);
    server.shutdown();
}

#[test]
fn declared_oversize_raster_is_rejected_cheaply() {
    let server = serve(
        engine(4),
        ServerConfig {
            max_raster_cells: 100,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    // Declared 10^9 cells but a tiny body: must bounce off the declared
    // size check, not allocate.
    let body = b"{\"steps\": 100000, \"channels\": 10000, \"events\": []}";
    let resp = client.request("POST", "/classify", body).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body_str().contains("exceeds limit"));
    // Zero declared cells but 10^12 steps: the raster would hold one
    // offset per step, so the width check must bounce it before the
    // decoder runs. The second case has a wrong width and 7·10^12 cells.
    let good = SpikeRaster::zeros(5, 6).to_json().to_string();
    for (hostile, why) in [
        (
            r#"{"steps": 1000000000000, "channels": 0, "events": []}"#,
            "model expects 6",
        ),
        (
            r#"{"steps": 1000000000000, "channels": 7, "events": []}"#,
            "exceeds limit",
        ),
    ] {
        let resp = client
            .request("POST", "/classify", hostile.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 400, "{hostile}");
        assert!(
            resp.body_str().contains(why),
            "{hostile}: {}",
            resp.body_str()
        );
        let batch = format!("{{\"rasters\": [{good}, {hostile}]}}");
        let resp = client
            .request("POST", "/classify_batch", batch.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 400, "batch with {hostile}");
        assert!(resp.body_str().contains(why), "batch: {}", resp.body_str());
    }
    assert_eq!(client.healthz().unwrap(), "ok");
    server.shutdown();
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let server = serve(
        engine(5),
        ServerConfig {
            max_body_bytes: 256,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let big = vec![b' '; 1024];
    let resp = client.request("POST", "/classify", &big).unwrap();
    assert_eq!(resp.status, 413);
    server.shutdown();
}

#[test]
fn connections_past_the_cap_are_refused_with_503() {
    let server = serve(
        engine(9),
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    a.set_timeout(Some(Duration::from_secs(30))).unwrap();
    b.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(a.healthz().unwrap(), "ok");
    assert_eq!(b.healthz().unwrap(), "ok");
    // Third connection: accepted at the TCP level, answered 503, closed.
    let mut c = Client::connect(server.addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
    match c.healthz() {
        Err(err) => {
            if let Some(status) = err.status() {
                assert_eq!(status, 503);
            } // a raced close surfaces as a transport error instead
        }
        Ok(_) => panic!("third connection must be refused"),
    }
    // The capped connections still serve.
    assert_eq!(a.healthz().unwrap(), "ok");
    server.shutdown();
}

#[test]
fn over_cap_503_reaches_the_client_without_a_reset() {
    use std::io::{Read, Write};
    // Regression: the over-capacity path used to write the 503 and drop
    // the socket without reading the request. Closing with unread bytes
    // in the receive buffer makes the kernel send RST, so the client
    // observed ECONNRESET instead of the 503 — and a retrying client
    // (which only backs off on a *received* 503) treated it as a crash.
    let server = serve(
        engine(10),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut held = Client::connect(server.addr()).unwrap();
    held.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(held.healthz().unwrap(), "ok");

    // Raw socket so the full wire exchange is visible: send a complete
    // request, then read everything until EOF.
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response)
        .expect("clean EOF, not ECONNRESET");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 503"), "got: {text}");
    assert!(
        text.to_ascii_lowercase().contains("retry-after: 1"),
        "got: {text}"
    );
    assert_eq!(server.metrics().rejected_over_capacity.get(), 1);

    // The resident connection is unaffected.
    assert_eq!(held.healthz().unwrap(), "ok");
    server.shutdown();
}

#[test]
fn graceful_shutdown_closes_idle_connections_and_joins() {
    let server = start(6, BatchPolicy::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(client.healthz().unwrap(), "ok");
    // Leave the keep-alive connection idle and shut down: shutdown must
    // return despite the open connection (force-close after grace).
    server.shutdown();
    // The old connection is dead and the port no longer accepts.
    assert!(client.healthz().is_err());
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener must be gone after shutdown"
    );
}

#[test]
fn concurrent_clients_are_batched_together() {
    let samples = inputs(64, 7);
    let expected = engine(8).classify_batch(&samples);
    // Both workers sleep 10 ms on every job, so the 64 requests build a
    // backlog in the admission queue while the workers are busy.
    let server = serve(
        engine(8),
        ServerConfig {
            policy: BatchPolicy {
                max_batch: 16,
                workers: 2,
                ..BatchPolicy::default()
            },
            faults: Some(Arc::new(
                FaultPlan::seeded(8).with_latency(1.0, Duration::from_millis(10)),
            )),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    let results: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = samples
            .iter()
            .map(|raster| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                    client.classify(raster).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(results, expected);
    let m = server.metrics();
    assert_eq!(m.jobs_total.get(), 64);
    // 64 concurrent single-sample requests queued behind busy workers
    // must produce fewer batches than samples — dynamic batching engaged.
    assert!(
        m.batches_total.get() < 64,
        "expected micro-batching, got {} batches for 64 samples (mean size {:.2})",
        m.batches_total.get(),
        m.mean_batch_size()
    );
    server.shutdown();
}
