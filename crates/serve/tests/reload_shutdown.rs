//! Hot-reload and shutdown-race tests.
//!
//! Covers the reload contract end to end: a reload really swaps the
//! serving weights (observable as a changed prediction on `/classify`
//! and on a fresh stream session), every flavor of
//! bad checkpoint (tampered, truncated, non-finite, a time constant out
//! of range, wrong shape) is rejected with a typed status while the old
//! engine keeps serving, and
//! a graceful shutdown racing a concurrent reload neither hangs nor
//! corrupts a single answered request.

use snn_core::{checkpoint, Network, NeuronKind, SpikeRaster};
use snn_engine::{Backend, Engine};
use snn_json::integrity;
use snn_neuron::NeuronParams;
use snn_serve::{serve, BatchPolicy, Client, ServerConfig, StreamClient};
use snn_tensor::Rng;
use std::path::PathBuf;
use std::time::Duration;

fn network_shaped(layers: &[usize], seed: u64) -> Network {
    let mut rng = Rng::seed_from(seed);
    Network::mlp(
        layers,
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.4),
        &mut rng,
    )
}

fn network(seed: u64) -> Network {
    network_shaped(&[6, 12, 4], seed)
}

fn engine(seed: u64) -> Engine {
    Engine::from_network(network(seed)).build()
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

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "neurosnn_reload_{name}_{}.json",
        std::process::id()
    ))
}

fn reload_body(path: &std::path::Path) -> String {
    format!(
        "{{\"path\": {}}}",
        snn_json::Json::from(path.to_string_lossy().as_ref())
    )
}

#[test]
fn hot_reload_swaps_the_serving_weights() {
    // Two different weight sets over the same shape, and an input they
    // classify differently: the reload must be observable from outside.
    let (net_a, net_b) = (network(40), network(41));
    let candidates = inputs(64, 42);
    let a_cls = engine(40).classify_batch(&candidates);
    let b_cls = engine(41).classify_batch(&candidates);
    let probe = (0..candidates.len())
        .find(|&i| a_cls[i] != b_cls[i])
        .expect("some input must distinguish the two weight sets");

    let ckpt = temp_path("swap");
    checkpoint::save(&net_b, &ckpt).unwrap();
    let server = serve(Engine::from_network(net_a).build(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    assert_eq!(client.classify(&candidates[probe]).unwrap(), a_cls[probe]);
    let resp = client
        .request("POST", "/admin/reload", reload_body(&ckpt).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "reload failed: {}", resp.body_str());
    assert!(resp.body_str().contains("\"reloaded\""));
    assert_eq!(
        client.classify(&candidates[probe]).unwrap(),
        b_cls[probe],
        "the swapped-in weights must serve the very next request"
    );
    // The stream workers serve from the same slot: a session opened after
    // the reload reads out with the new weights too.
    let deltas: Vec<(u16, u16)> = candidates[probe]
        .delta_events()
        .iter()
        .map(|&(dt, ch)| (dt as u16, ch as u16))
        .collect();
    let mut stream = StreamClient::open(server.addr(), 6, 0).unwrap();
    stream.set_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.feed(&deltas).unwrap();
    stream.tick(candidates[probe].steps() as u32).unwrap();
    let (class, _) = stream.readout().unwrap();
    assert_eq!(
        class as usize, b_cls[probe],
        "a stream opened after the reload must serve the swapped-in weights"
    );
    stream.close().unwrap();
    let m = server.metrics();
    assert_eq!(m.reloads_total.get(), 1);
    assert_eq!(m.reload_failures_total.get(), 0);
    server.shutdown();
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn hot_reload_keeps_the_running_backend() {
    let ckpt = temp_path("backend");
    checkpoint::save(&network(43), &ckpt).unwrap();
    let engine = Engine::from_network(network(44))
        .backend(Backend::Dense)
        .build();
    let server = serve(engine, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let backend = |client: &mut Client| {
        let resp = client.request("GET", "/healthz", b"").unwrap();
        assert_eq!(resp.status, 200);
        resp.body_str().to_string()
    };
    assert!(backend(&mut client).contains("\"backend\": \"dense\""));
    let resp = client
        .request("POST", "/admin/reload", reload_body(&ckpt).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "reload failed: {}", resp.body_str());
    let after = backend(&mut client);
    assert!(
        after.contains("\"backend\": \"dense\""),
        "a reload must keep the running backend: {after}"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn reload_rejects_bad_checkpoints_and_keeps_serving() {
    let server = serve(engine(50), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let sample = &inputs(1, 51)[0];
    let want = engine(50).classify_batch(std::slice::from_ref(sample))[0];
    assert_eq!(client.classify(sample).unwrap(), want);

    let sealed = checkpoint::to_sealed_json(&network(50)).unwrap();

    // 1. Tampered payload: the CRC trailer no longer matches.
    let tampered = temp_path("tampered");
    std::fs::write(&tampered, sealed.replacen('3', "4", 1)).unwrap();
    let resp = client
        .request("POST", "/admin/reload", reload_body(&tampered).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        resp.body_str().contains("crc32"),
        "unexpected body: {}",
        resp.body_str()
    );

    // 2. Truncated payload (the trailer's own newline survives, so the
    //    trailer still parses and reports the length mismatch).
    let newline_at = sealed.rfind(integrity::TRAILER_PREFIX).unwrap() - 1;
    assert_eq!(sealed.as_bytes()[newline_at], b'\n');
    let truncated = temp_path("truncated");
    std::fs::write(
        &truncated,
        format!("{}{}", &sealed[..newline_at - 40], &sealed[newline_at..]),
    )
    .unwrap();
    let resp = client
        .request("POST", "/admin/reload", reload_body(&truncated).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        resp.body_str().contains("truncated"),
        "unexpected body: {}",
        resp.body_str()
    );

    // 3. Non-finite weight: splice a `null` over the first weight and
    //    re-seal so only the NaN check can reject it.
    let (payload, _) = integrity::verify(&sealed).unwrap();
    let wfield = payload.find("\"weights\"").unwrap();
    let open = payload[wfield..].find('[').unwrap() + wfield;
    let end = payload[open + 1..].find([',', ']']).unwrap() + open + 1;
    let nan_payload = format!("{}null{}", &payload[..open + 1], &payload[end..]);
    let nonfinite = temp_path("nonfinite");
    std::fs::write(&nonfinite, integrity::seal(&nan_payload)).unwrap();
    let resp = client
        .request("POST", "/admin/reload", reload_body(&nonfinite).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        resp.body_str().contains("non-finite"),
        "unexpected body: {}",
        resp.body_str()
    );

    // 4. Valid checkpoint, wrong shape: a conflict, not a parse error.
    let mismatched = temp_path("mismatched");
    checkpoint::save(&network_shaped(&[5, 8, 3], 52), &mismatched).unwrap();
    let resp = client
        .request("POST", "/admin/reload", reload_body(&mismatched).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 409);

    // 5. No path anywhere: client error before the reload even starts.
    let resp = client.request("POST", "/admin/reload", b"").unwrap();
    assert_eq!(resp.status, 400);

    // The old engine served through all of it, and only the four real
    // reload attempts count as failures (the missing path never started).
    assert_eq!(client.classify(sample).unwrap(), want);
    let m = server.metrics();
    assert_eq!(m.reloads_total.get(), 0);
    assert_eq!(m.reload_failures_total.get(), 4);
    server.shutdown();
    for p in [tampered, truncated, nonfinite, mismatched] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn reload_rejects_non_positive_time_constants_and_keeps_serving() {
    // A sealed checkpoint whose time constant is zero, negative or past
    // the f32 range is a parse error: the reload answers 400 naming the
    // field, and the running model keeps answering.
    let server = serve(engine(60), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let sample = &inputs(1, 61)[0];
    let want = engine(60).classify_batch(std::slice::from_ref(sample))[0];
    let sealed = checkpoint::to_sealed_json(&network(62)).unwrap();
    let (payload, _) = integrity::verify(&sealed).unwrap();
    let path = temp_path("time_constant");
    let mut rejected = 0;
    for key in ["tau", "tau_r"] {
        let field = format!("\"{key}\":4,");
        assert!(payload.contains(&field), "{payload}");
        for bad in ["0", "-4", "1e39"] {
            let mutated = payload.replacen(&field, &format!("\"{key}\":{bad},"), 1);
            std::fs::write(&path, integrity::seal(&mutated)).unwrap();
            let resp = client
                .request("POST", "/admin/reload", reload_body(&path).as_bytes())
                .unwrap();
            assert_eq!(resp.status, 400, "{key} = {bad}: {}", resp.body_str());
            assert!(
                resp.body_str()
                    .contains(&format!("{key} must be a positive finite number")),
                "{key} = {bad}: {}",
                resp.body_str()
            );
            assert_eq!(client.classify(sample).unwrap(), want, "{key} = {bad}");
            rejected += 1;
        }
    }
    let m = server.metrics();
    assert_eq!(m.reloads_total.get(), 0);
    assert_eq!(m.reload_failures_total.get(), rejected);
    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn graceful_shutdown_races_a_concurrent_reload() {
    // Shutdown fires while a client streams requests and a reload is in
    // flight. The contract: no hang, every answer that was delivered is
    // correct, and failures after the cutoff are clean errors (a 503 or
    // a closed connection), never a wrong class.
    let ckpt = temp_path("race");
    checkpoint::save(&network(60), &ckpt).unwrap();
    let server = serve(
        engine(60),
        ServerConfig {
            policy: BatchPolicy {
                max_batch: 8,
                workers: 2,
                ..BatchPolicy::default()
            },
            checkpoint_path: Some(ckpt.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let samples = inputs(32, 61);
    let expected = engine(60).classify_batch(&samples);

    std::thread::scope(|scope| {
        let streamer = scope.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            client.set_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut delivered = 0usize;
            for (raster, &want) in samples.iter().zip(&expected) {
                match client.classify(raster) {
                    Ok(class) => {
                        assert_eq!(class, want, "a delivered answer must be correct");
                        delivered += 1;
                    }
                    // Shutdown cut us off: acceptable, but only cleanly.
                    Err(e) => {
                        assert!(
                            e.status().is_none_or(|s| s == 503),
                            "unexpected failure mode: {e}"
                        );
                        break;
                    }
                }
            }
            delivered
        });
        let reloader = scope.spawn(|| {
            let mut admin = Client::connect(addr).unwrap();
            admin.set_timeout(Some(Duration::from_secs(30))).unwrap();
            std::thread::sleep(Duration::from_millis(5));
            // Either outcome is legal under the race (an Err means the
            // shutdown closed the connection first — also clean); what
            // matters is that the reload neither hangs nor panics.
            if let Ok(resp) = admin.request("POST", "/admin/reload", b"") {
                assert!(
                    [200, 409, 503].contains(&resp.status),
                    "unexpected reload status {}",
                    resp.status
                );
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        server.shutdown();
        let delivered = streamer.join().unwrap();
        reloader.join().unwrap();
        assert!(
            delivered > 0,
            "some requests must have been answered before the cutoff"
        );
    });
    let _ = std::fs::remove_file(&ckpt);
}
