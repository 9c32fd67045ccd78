//! Chaos tests: deterministic fault injection against a live server.
//!
//! Every test threads a seeded [`FaultPlan`] through the scheduler's
//! supervision hook and asserts the fault-tolerance contract from the
//! outside: injected worker panics are contained (recovered by a
//! supervised retry or answered with a clean 503), deadlines shed
//! expired work as 504s, readiness degrades and recovers, and a full
//! storm of panics plus mid-run hot reloads loses not a single accepted
//! request.

use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_engine::Engine;
use snn_neuron::NeuronParams;
use snn_serve::{
    serve, silence_injected_panics, BatchPolicy, Client, ErrorCode, FaultPlan, Retrier,
    RetryPolicy, Scheduler, ServeMetrics, ServerConfig, ServerHandle, StreamClient, StreamConfig,
    TicketError,
};
use snn_tensor::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn network(seed: u64) -> Network {
    let mut rng = Rng::seed_from(seed);
    Network::mlp(
        &[6, 12, 4],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.4),
        &mut rng,
    )
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

fn start_with_faults(seed: u64, faults: FaultPlan, config: ServerConfig) -> ServerHandle {
    silence_injected_panics();
    serve(
        engine(seed),
        ServerConfig {
            faults: Some(Arc::new(faults)),
            ..config
        },
    )
    .expect("bind ephemeral port")
}

#[test]
fn injected_panic_is_recovered_and_counted() {
    // Every first attempt panics; every retry succeeds. The client must
    // see nothing but 200s while the metrics record the carnage.
    let server = start_with_faults(
        1,
        FaultPlan::seeded(10).with_panic_rate(1.0),
        ServerConfig {
            policy: BatchPolicy {
                workers: 2,
                ..BatchPolicy::default()
            },
            degraded_window: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let samples = inputs(6, 2);
    let expected = engine(1).classify_batch(&samples);
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for (raster, &want) in samples.iter().zip(&expected) {
        assert_eq!(client.classify(raster).unwrap(), want);
    }
    // Readiness reflects the recent panics...
    assert_eq!(client.ready().unwrap(), "degraded");
    let m = server.metrics();
    assert_eq!(m.worker_panics_total.get(), 6);
    assert_eq!(m.sessions_quarantined_total.get(), 6);
    assert_eq!(m.jobs_retried_total.get(), 6);
    assert_eq!(m.responses_server_error.get(), 0);
    // ...and recovers once the degraded window passes.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(client.ready().unwrap(), "ok");
    assert_eq!(client.healthz().unwrap(), "ok", "liveness never degrades");
    server.shutdown();
}

#[test]
fn double_panic_answers_a_clean_503_and_the_server_survives() {
    // Both in-process attempts panic: the request fails with a
    // retryable 503 (no Retry-After — the failure is job-specific, not
    // backpressure), and the server keeps serving.
    let server = start_with_faults(
        3,
        FaultPlan::seeded(11)
            .with_panic_rate(1.0)
            .with_panic_attempts(2),
        ServerConfig::default(),
    );
    let samples = inputs(2, 4);
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let err = client.classify(&samples[0]).unwrap_err();
    assert_eq!(err.status(), Some(503));
    assert_eq!(err.retry_after(), None);
    let m = server.metrics();
    assert_eq!(m.worker_panics_total.get(), 2);
    assert_eq!(m.jobs_retried_total.get(), 1);
    // The connection and the server both survived the failure.
    assert_eq!(client.healthz().unwrap(), "ok");
    server.shutdown();
}

#[test]
fn expired_deadlines_shed_work_as_504() {
    // One worker that sleeps 300 ms on every job it executes, busy with
    // a blocker request: a request with a 5 ms deadline queued behind it
    // expires before the worker is free and must be shed, not executed.
    let server = start_with_faults(
        5,
        FaultPlan::seeded(5).with_latency(1.0, Duration::from_millis(300)),
        ServerConfig {
            policy: BatchPolicy {
                workers: 1,
                ..BatchPolicy::default()
            },
            ..ServerConfig::default()
        },
    );
    let samples = inputs(2, 6);
    let expected = engine(5).classify_batch(&samples);
    let addr = server.addr();
    let blocker = std::thread::spawn({
        let raster = samples[1].clone();
        move || {
            let mut client = Client::connect(addr).unwrap();
            client.set_timeout(Some(Duration::from_secs(30))).unwrap();
            client.classify(&raster).unwrap()
        }
    });
    // The blocker is admitted first, so the deadline job queues behind it.
    let admitted = Instant::now();
    while server.metrics().jobs_total.get() == 0 {
        assert!(
            admitted.elapsed() < Duration::from_secs(30),
            "blocker never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let body = samples[0].to_json().to_string();
    let resp = client
        .request_with_headers(
            "POST",
            "/classify",
            body.as_bytes(),
            &[("X-Deadline-Ms", "5")],
        )
        .unwrap();
    assert_eq!(resp.status, 504);
    assert_eq!(blocker.join().unwrap(), expected[1]);
    let m = server.metrics();
    assert_eq!(m.jobs_expired_total.get(), 1);
    // Only the blocker ran: the shed job never reached a session.
    assert_eq!(m.job_latency_us.count(), 1);
    // An invalid deadline is a client error, not a shed.
    let resp = client
        .request_with_headers(
            "POST",
            "/classify",
            body.as_bytes(),
            &[("X-Deadline-Ms", "soon")],
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    server.shutdown();
}

#[test]
fn scheduler_level_deadline_expiry_is_typed() {
    // The one worker sleeps 200 ms on the blocker; the job with a 2 ms
    // deadline behind it expires in the queue.
    let scheduler = Scheduler::start_with_streams(
        engine(7),
        BatchPolicy {
            workers: 1,
            ..BatchPolicy::default()
        },
        Arc::new(ServeMetrics::new()),
        Some(Arc::new(
            FaultPlan::seeded(7).with_latency(1.0, Duration::from_millis(200)),
        )),
        StreamConfig::default(),
    );
    let samples = inputs(2, 8);
    let blocker = scheduler.submit(samples[1].clone()).unwrap();
    let ticket = scheduler
        .submit_with_deadline(
            samples[0].clone(),
            Some(Instant::now() + Duration::from_millis(2)),
        )
        .unwrap();
    assert_eq!(ticket.wait(), Err(TicketError::Expired));
    assert_eq!(blocker.wait(), Ok(engine(7).classify_batch(&samples)[1]));
    let m = scheduler.metrics();
    assert_eq!(m.jobs_expired_total.get(), 1);
    assert_eq!(m.job_latency_us.count(), 1, "the expired job never ran");
    scheduler.shutdown();
}

#[test]
fn retrier_rides_out_double_panics() {
    // panic_attempts = 2 → every request 503s in-process; the client's
    // jittered-backoff retry loop must still land every answer, because
    // each HTTP retry gets a fresh seq (and fresh first attempt… which
    // also panics, and is retried in-process). With panic_rate 0.5 a few
    // client-level retries always find a clean seq.
    let server = start_with_faults(
        9,
        FaultPlan::seeded(12)
            .with_panic_rate(0.5)
            .with_panic_attempts(2),
        ServerConfig::default(),
    );
    let samples = inputs(16, 10);
    let expected = engine(9).classify_batch(&samples);
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut retrier = Retrier::new(
        RetryPolicy {
            max_attempts: 8,
            retry_budget: Duration::from_secs(10),
            ..RetryPolicy::default()
        }
        .seeded(13),
    );
    for (raster, &want) in samples.iter().zip(&expected) {
        assert_eq!(retrier.classify(&mut client, raster).unwrap(), want);
    }
    assert!(
        server.metrics().worker_panics_total.get() > 0,
        "the plan must actually have fired"
    );
    server.shutdown();
}

#[test]
fn chaos_storm_with_mid_run_reloads_loses_nothing() {
    // The acceptance scenario, test-sized: concurrent retrying clients,
    // injected panics and latency, and two hot reloads mid-storm. Every
    // accepted request must come back 200 with the right answer for
    // whichever engine was serving.
    let seed: u64 = std::env::var("SNN_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let checkpoint = std::env::temp_dir().join(format!("neurosnn_chaos_ckpt_{seed}.json"));
    // Reload with the *same* weights: answers stay comparable to one
    // expected vector while still exercising the full swap path.
    snn_core::checkpoint::save(&network(20), &checkpoint).unwrap();

    let server = start_with_faults(
        20,
        FaultPlan::seeded(seed)
            .with_panic_rate(0.1)
            .with_latency(0.05, Duration::from_millis(1)),
        ServerConfig {
            policy: BatchPolicy {
                max_batch: 16,
                workers: 2,
                ..BatchPolicy::default()
            },
            checkpoint_path: Some(checkpoint.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let samples = inputs(48, 21);
    let expected = engine(20).classify_batch(&samples);

    let results: Vec<usize> = std::thread::scope(|scope| {
        // Two reloads fire while the clients hammer the server.
        let reloader = scope.spawn(move || {
            let mut admin = Client::connect(addr).unwrap();
            admin.set_timeout(Some(Duration::from_secs(30))).unwrap();
            for _ in 0..2 {
                std::thread::sleep(Duration::from_millis(30));
                let resp = admin.request("POST", "/admin/reload", b"").unwrap();
                assert_eq!(resp.status, 200, "reload failed: {}", resp.body_str());
            }
        });
        let handles: Vec<_> = samples
            .chunks(12)
            .enumerate()
            .map(|(w, chunk)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                    let mut retrier = Retrier::new(
                        RetryPolicy {
                            max_attempts: 8,
                            retry_budget: Duration::from_secs(20),
                            ..RetryPolicy::default()
                        }
                        .seeded(100 + w as u64),
                    );
                    chunk
                        .iter()
                        .map(|raster| retrier.classify(&mut client, raster).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        reloader.join().unwrap();
        all
    });

    assert_eq!(results, expected, "no request answered wrongly or lost");
    let m = server.metrics();
    assert_eq!(m.reloads_total.get(), 2);
    assert_eq!(m.reload_failures_total.get(), 0);
    assert!(
        m.worker_panics_total.get() > 0,
        "seed {seed} must inject at least one panic over 48+ jobs"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&checkpoint);
}

#[test]
fn register_failure_does_not_leak_connection_slots() {
    // Regression: the connection registry entry is inserted before the
    // poller registration; a registration failure used to leave the
    // entry behind, permanently consuming a max_connections slot. With
    // the first three registrations fault-injected to fail and a cap of
    // three, a leak would make every later connection answer an
    // over-capacity 503.
    let server = start_with_faults(
        50,
        FaultPlan::seeded(51).with_register_failures(3),
        ServerConfig {
            max_connections: 3,
            ..ServerConfig::default()
        },
    );
    let samples = inputs(1, 52);
    let expected = engine(50).classify_batch(&samples);

    // The three fault-injected connections answer 503 and close.
    for _ in 0..3 {
        let mut client = Client::connect(server.addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
        let err = client.classify(&samples[0]).unwrap_err();
        assert_eq!(err.status(), Some(503), "register failure answers 503");
    }
    assert_eq!(server.metrics().conn_register_failures_total.get(), 3);

    // All three capacity slots are free again: three simultaneous
    // connections serve correctly...
    let mut clients: Vec<Client> = (0..3)
        .map(|_| {
            let mut client = Client::connect(server.addr()).unwrap();
            client.set_timeout(Some(Duration::from_secs(30))).unwrap();
            assert_eq!(client.classify(&samples[0]).unwrap(), expected[0]);
            client
        })
        .collect();
    // ...and a fourth is a genuine over-capacity reject.
    let mut extra = Client::connect(server.addr()).unwrap();
    extra.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let err = extra.classify(&samples[0]).unwrap_err();
    assert_eq!(err.status(), Some(503), "fourth connection is over cap");
    assert_eq!(server.metrics().rejected_over_capacity.get(), 1);

    // The three resident connections are still healthy.
    for client in &mut clients {
        assert_eq!(client.healthz().unwrap(), "ok");
    }
    server.shutdown();
}

fn stream_deltas(raster: &SpikeRaster) -> Vec<(u16, u16)> {
    raster
        .delta_events()
        .iter()
        .map(|&(dt, ch)| (dt as u16, ch as u16))
        .collect()
}

#[test]
fn mid_stream_worker_panic_is_a_typed_session_lost() {
    // Every stream command panics its worker. Resident streams must be
    // quarantined and answer a typed SESSION_LOST — never a readout from
    // half-stepped membrane state — while the batch path (whose fault
    // salt is independent and zeroed) keeps answering correctly.
    let server = start_with_faults(
        30,
        FaultPlan::seeded(40).with_stream_panic_rate(1.0),
        ServerConfig::default(),
    );
    let samples = inputs(4, 31);
    let expected = engine(30).classify_batch(&samples);

    let mut stream = StreamClient::open(server.addr(), 6, 0).unwrap();
    stream.set_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.feed(&stream_deltas(&samples[0])).unwrap(); // panics the worker
    let err = stream.readout().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::SessionLost), "{err}");

    // Non-streaming traffic is unaffected by the quarantine.
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for (raster, &want) in samples.iter().zip(&expected) {
        assert_eq!(client.classify(raster).unwrap(), want);
    }
    let m = server.metrics();
    assert!(m.worker_panics_total.get() >= 1);
    assert!(m.stream_sessions_lost_total.get() >= 1);
    assert_eq!(m.stream_sessions_resident.get(), 0);
    assert_eq!(m.responses_server_error.get(), 0);
    server.shutdown();
}

#[test]
fn mid_stream_hot_reload_is_a_typed_session_lost() {
    // A hot reload invalidates resident streams by policy: their state
    // was computed by the old engine, so continuing under the new one
    // could blend weights. The next sync frame answers SESSION_LOST and
    // a fresh session serves the new engine.
    let checkpoint = std::env::temp_dir().join("neurosnn_chaos_stream_reload_ckpt.json");
    snn_core::checkpoint::save(&network(32), &checkpoint).unwrap();
    let server = serve(
        engine(32),
        ServerConfig {
            checkpoint_path: Some(checkpoint.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let samples = inputs(2, 33);

    let mut stream = StreamClient::open(server.addr(), 6, 0).unwrap();
    stream.set_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.feed(&stream_deltas(&samples[0])).unwrap();
    stream.tick(samples[0].steps() as u32).unwrap();

    let mut admin = Client::connect(server.addr()).unwrap();
    admin.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let resp = admin.request("POST", "/admin/reload", b"").unwrap();
    assert_eq!(resp.status, 200, "reload failed: {}", resp.body_str());

    let err = stream.readout().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::SessionLost), "{err}");

    // A fresh stream on the reloaded engine agrees with /classify.
    let mut fresh = StreamClient::open(server.addr(), 6, 0).unwrap();
    fresh.set_timeout(Some(Duration::from_secs(30))).unwrap();
    fresh.feed(&stream_deltas(&samples[1])).unwrap();
    fresh.tick(samples[1].steps() as u32).unwrap();
    let (class, _) = fresh.readout().unwrap();
    assert_eq!(class as usize, admin.classify(&samples[1]).unwrap());
    fresh.close().unwrap();

    assert!(server.metrics().stream_sessions_lost_total.get() >= 1);
    server.shutdown();
    let _ = std::fs::remove_file(&checkpoint);
}
