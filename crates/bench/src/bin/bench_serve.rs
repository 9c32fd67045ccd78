//! Network-serving load generator: measures what the dynamic
//! micro-batching scheduler buys over single-request (batch-size-1)
//! serving, recorded in `BENCH_serve.json`.
//!
//! Experiments on the sparse backend:
//!
//! 0. **Request decode**: a `/classify` body decoded by the routes'
//!    one-pass decoder ([`decode_rasters`]) against the JSON tree path it
//!    replaced (`Json::parse`, then `SpikeRaster::from_json`), on
//!    paper-scale SHD bodies (700 channels, T = 100, ~15 kB) in
//!    alternating rounds. Reports both medians and their ratio; the
//!    binary asserts the one-pass decode ≥ `--min-decode-speedup`×
//!    faster (default 2).
//! 1. **Closed-loop HTTP throughput** at `--concurrency`-way concurrency
//!    (default 64) against a real `snn-serve` server on an ephemeral
//!    loopback port: the same request storm against `max_batch = 1`
//!    (single-request serving) and `max_batch = 64` (dynamic batching).
//!    Every response must be non-error and both servers must shut down
//!    gracefully — this doubles as the CI smoke test. On a multi-core
//!    host the batched mode pulls ahead; on a 1-core container both
//!    modes are bounded by the per-request socket work that client and
//!    server share, so the honest ratio here hovers near 1 and is
//!    recorded, not asserted.
//!    A rider step (`--skip-idle` to skip) parks `--idle-conns`
//!    (default 256) keep-alive connections against the readiness-based
//!    front end and asserts the server's thread count stays flat and
//!    p99 on a live connection is unaffected — idle connections cost a
//!    registered descriptor, not a thread.
//! 2. **Scheduler drain capacity** (the headline): 64 concurrent
//!    clients burst-submit a 4096-sample backlog straight into the
//!    scheduler (the same `submit`/`Ticket` path the HTTP handlers use)
//!    and the drain is timed to the last answer. This isolates the
//!    batcher itself — per-job rendezvous and context switches under
//!    `max_batch = 1` versus one dispatch per micro-batch — which is
//!    exactly the capacity a loaded server degrades into. The binary
//!    asserts batched ≥ `--min-speedup`× single (default 2). A rider
//!    gate measures the flight recorder's disarmed span-hook cost and
//!    asserts the tracing-disabled observability overhead stays under
//!    2% of the measured per-job cost; the fully-traced drain rate is
//!    recorded alongside for the ratio.
//! 3. **Open-loop HTTP latency**: requests arrive on a fixed schedule at
//!    a sweep of arrival rates; reports client-side p50/p99 latency
//!    (measured from the *scheduled* send time, so queue build-up is not
//!    hidden) and the achieved mean batch size at each rate.
//! 4. **Chaos soak** (`--soak-*` flags): an open-loop run in two phases —
//!    a fault-free baseline, then the same load against a server with a
//!    seeded [`FaultPlan`] injecting worker panics and client-side
//!    corrupted frames while an admin thread fires two mid-run hot
//!    reloads. The binary asserts zero lost accepted requests, zero
//!    non-injected 5xx, both reloads succeeding, and chaos p99 within
//!    25% of the fault-free baseline (floored at 2 ms so a fast machine's
//!    sub-millisecond baseline does not turn scheduler jitter into a
//!    failure). `--smoke` shrinks the soak for CI gates; `--soak-only`
//!    skips experiments 0–3; `--skip-soak` skips the soak.
//!
//! Usage: `cargo run --release --bin bench_serve
//! [-- --out PATH] [--min-speedup X] [--min-decode-speedup X]
//! [--requests N] [--concurrency C] [--burst N] [--steps T] [--channels C]
//! [--hidden H] [--density D] [--idle-conns N] [--skip-idle]
//! [--skip-open-loop] [--skip-soak] [--soak-only] [--smoke] [--soak-seconds S] [--soak-rps R]
//! [--fault-seed N] [--panic-rate P] [--latency-rate P]
//! [--inject-latency-ms MS] [--corrupt-rate P]`

use bench::timing::Report;
use bench::Args;
use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_data::shd::{self, ShdConfig};
use snn_engine::{Backend, Engine};
use snn_json::Json;
use snn_neuron::NeuronParams;
use snn_serve::{
    decode_rasters, serve, silence_injected_panics, BatchPolicy, Client, FaultPlan, Retrier,
    RetryPolicy, Scheduler, ServerConfig, ServerHandle,
};
use snn_tensor::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct LoadResult {
    wall: Duration,
    ok: u64,
    errors: u64,
    /// Client-side latencies in µs (from scheduled send time).
    latencies_us: Vec<u64>,
}

/// Fires `total` requests from `concurrency` keep-alive connections.
/// `interval_us = 0` is closed-loop (send as fast as responses return);
/// otherwise requests follow an open-loop schedule with one request
/// every `interval_us` across the whole fleet.
fn drive(
    addr: std::net::SocketAddr,
    inputs: &[SpikeRaster],
    total: usize,
    concurrency: usize,
    interval_us: u64,
) -> LoadResult {
    let barrier = Barrier::new(concurrency + 1);
    let ok = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let mut latencies: Vec<Vec<u64>> = Vec::new();
    let wall = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|worker| {
                let barrier = &barrier;
                let ok = &ok;
                let errors = &errors;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect load client");
                    client
                        .set_timeout(Some(Duration::from_secs(120)))
                        .expect("set timeout");
                    // Requests worker `w` owns: w, w+C, w+2C, …
                    let my_requests: Vec<usize> = (worker..total).step_by(concurrency).collect();
                    let mut lat = Vec::with_capacity(my_requests.len());
                    barrier.wait();
                    let t0 = Instant::now();
                    for k in my_requests {
                        let scheduled = Duration::from_micros(interval_us * k as u64);
                        if interval_us > 0 {
                            let now = t0.elapsed();
                            if scheduled > now {
                                std::thread::sleep(scheduled - now);
                            }
                        }
                        let sent_after = if interval_us > 0 {
                            scheduled
                        } else {
                            t0.elapsed()
                        };
                        match client.classify(&inputs[k % inputs.len()]) {
                            Ok(_) => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                lat.push(
                                    t0.elapsed().saturating_sub(sent_after).as_micros() as u64
                                );
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    lat
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for handle in handles {
            latencies.push(handle.join().expect("load worker"));
        }
        t0.elapsed()
    });
    let mut latencies_us: Vec<u64> = latencies.into_iter().flatten().collect();
    latencies_us.sort_unstable();
    LoadResult {
        wall,
        ok: ok.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        latencies_us,
    }
}

/// Burst-submits `shards` (one per concurrent client) straight into the
/// scheduler and times the drain to the last answer. Each client waits
/// on its final ticket first (its jobs resolve in near-FIFO order), so
/// the measurement counts the batcher's work, not 4096 client wakeups.
/// With `traced` every job carries a live trace id, exercising the
/// full flight-recorder path (queue-wait/batch-wait/inference spans).
fn burst_drain(
    scheduler: &Scheduler,
    mut shards: Vec<Vec<SpikeRaster>>,
    traced: bool,
) -> (f64, f64) {
    let total: usize = shards.iter().map(Vec::len).sum();
    let concurrency = shards.len();
    let barrier = Barrier::new(concurrency + 1);
    let wall = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .drain(..)
            .map(|mine| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let mut tickets: Vec<_> = mine
                        .into_iter()
                        .map(|r| {
                            if traced {
                                scheduler
                                    .submit_traced(
                                        r,
                                        None,
                                        snn_obs::next_trace_id(),
                                        snn_obs::next_span_id(),
                                    )
                                    .expect("burst admitted")
                            } else {
                                scheduler.submit(r).expect("burst admitted")
                            }
                        })
                        .collect();
                    let last = tickets.pop().expect("non-empty shard");
                    last.wait().expect("burst answered");
                    for ticket in tickets {
                        ticket.wait().expect("burst answered");
                    }
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for handle in handles {
            handle.join().expect("burst client");
        }
        t0.elapsed()
    });
    (
        total as f64 / wall.as_secs_f64(),
        scheduler.metrics().mean_batch_size(),
    )
}

struct SoakOutcome {
    ok: u64,
    corrupt_rejected: u64,
    /// Lost or wrongly answered accepted requests, or corrupted frames
    /// not rejected with a 400 — any non-zero value fails the soak.
    failures: u64,
    latencies_us: Vec<u64>,
}

/// One open-loop soak phase: `total` requests on a fixed schedule from
/// `concurrency` retrying clients. Requests the fault plan marks as
/// corrupted send an undecodable body and must be rejected `400`; every
/// other request must come back with the expected class (clients retry
/// 503s and transport errors with seeded jittered backoff, so a request
/// only counts as lost when its retry budget is truly exhausted).
#[allow(clippy::too_many_arguments)]
fn soak_phase(
    addr: std::net::SocketAddr,
    inputs: &[SpikeRaster],
    expected: &[usize],
    plan: Option<&FaultPlan>,
    total: usize,
    concurrency: usize,
    interval_us: u64,
    seed: u64,
) -> SoakOutcome {
    let barrier = Barrier::new(concurrency);
    let ok = AtomicU64::new(0);
    let corrupt_rejected = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let mut latencies: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|worker| {
                let barrier = &barrier;
                let ok = &ok;
                let corrupt_rejected = &corrupt_rejected;
                let failures = &failures;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect soak client");
                    client
                        .set_timeout(Some(Duration::from_secs(120)))
                        .expect("set timeout");
                    let mut retrier = Retrier::new(
                        RetryPolicy {
                            max_attempts: 6,
                            retry_budget: Duration::from_secs(5),
                            ..RetryPolicy::default()
                        }
                        .seeded(seed ^ (worker as u64).wrapping_mul(0x9E37_79B9)),
                    );
                    let mut lat = Vec::new();
                    barrier.wait();
                    let t0 = Instant::now();
                    for k in (worker..total).step_by(concurrency) {
                        let scheduled = Duration::from_micros(interval_us * k as u64);
                        let now = t0.elapsed();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        if plan.is_some_and(|p| p.corrupts_frame(k as u64)) {
                            // An injected corrupted frame: the server must
                            // answer a clean 400, nothing else.
                            match client.request("POST", "/classify", b"{\"steps\": oops") {
                                Ok(resp) if resp.status == 400 => {
                                    corrupt_rejected.fetch_add(1, Ordering::Relaxed);
                                }
                                _ => {
                                    failures.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            continue;
                        }
                        match retrier.classify(&mut client, &inputs[k % inputs.len()]) {
                            Ok(class) if class == expected[k % expected.len()] => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                lat.push(t0.elapsed().saturating_sub(scheduled).as_micros() as u64);
                            }
                            _ => {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    lat
                })
            })
            .collect();
        for handle in handles {
            latencies.push(handle.join().expect("soak worker"));
        }
    });
    let mut latencies_us: Vec<u64> = latencies.into_iter().flatten().collect();
    latencies_us.sort_unstable();
    SoakOutcome {
        ok: ok.load(Ordering::Relaxed),
        corrupt_rejected: corrupt_rejected.load(Ordering::Relaxed),
        failures: failures.load(Ordering::Relaxed),
        latencies_us,
    }
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn policy(max_batch: usize, workers: usize) -> BatchPolicy {
    BatchPolicy {
        max_batch,
        queue_capacity: 8192,
        workers,
    }
}

/// Threads in this process, counted from `/proc/self/task`. `None`
/// off-Linux, where the idle-connection thread gate is skipped.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|dir| dir.count())
}

fn start_server(engine: Engine, max_batch: usize, workers: usize) -> ServerHandle {
    serve(
        engine,
        ServerConfig {
            policy: policy(max_batch, workers),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral serving port")
}

/// Times the two ways to decode a `/classify` body on paper-scale SHD
/// rasters, in alternating rounds: the JSON tree path (`Json::parse`,
/// then `SpikeRaster::from_json`) and the routes' one-pass decoder.
/// Returns the median µs per body of each, tree first.
fn decode_medians(rounds: usize) -> (f64, f64) {
    let cfg = ShdConfig {
        samples_per_class: 3,
        ..ShdConfig::paper()
    };
    let rasters: Vec<SpikeRaster> = shd::generate(&cfg, 5)
        .samples
        .into_iter()
        .map(|(raster, _)| raster)
        .collect();
    let bodies: Vec<String> = rasters.iter().map(|r| r.to_json().to_string()).collect();
    let config = ServerConfig::default();
    let tree = |body: &str| {
        let text = std::str::from_utf8(body.as_bytes()).expect("generated bodies are utf-8");
        SpikeRaster::from_json(&Json::parse(text).expect("generated bodies parse"))
            .expect("generated rasters are valid")
    };
    let one_pass = |body: &str| {
        let mut decoded = decode_rasters(body.as_bytes(), false, &config, cfg.channels)
            .unwrap_or_else(|r| panic!("one-pass decode refused a generated body: {r:?}"));
        decoded.pop().expect("one raster per body")
    };
    for (raster, body) in rasters.iter().zip(&bodies) {
        assert_eq!(&tree(body), raster, "the tree path must decode the raster");
        assert_eq!(
            &one_pass(body),
            raster,
            "the one-pass decode must decode the raster"
        );
    }
    let time = |decode: &dyn Fn(&str) -> SpikeRaster| {
        let t0 = Instant::now();
        for body in &bodies {
            std::hint::black_box(decode(std::hint::black_box(body)));
        }
        1e6 * t0.elapsed().as_secs_f64() / bodies.len() as f64
    };
    let (mut tree_us, mut one_pass_us) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        if round % 2 == 0 {
            tree_us.push(time(&tree));
            one_pass_us.push(time(&one_pass));
        } else {
            one_pass_us.push(time(&one_pass));
            tree_us.push(time(&tree));
        }
    }
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    (median(tree_us), median(one_pass_us))
}

fn main() {
    let args = Args::parse(&[
        "out",
        "min-speedup",
        "min-decode-speedup",
        "requests",
        "concurrency",
        "burst",
        "steps",
        "channels",
        "hidden",
        "classes",
        "density",
        "workers",
        "skip-idle",
        "idle-conns",
        "skip-open-loop",
        "skip-soak",
        "soak-only",
        "smoke",
        "soak-seconds",
        "soak-rps",
        "fault-seed",
        "panic-rate",
        "latency-rate",
        "inject-latency-ms",
        "corrupt-rate",
    ]);
    let out_path = args.get("out", "BENCH_serve.json").to_string();
    let min_speedup = args.get_f32("min-speedup", 2.0) as f64;
    let min_decode_speedup = args.get_f32("min-decode-speedup", 2.0) as f64;
    let total = args.get_usize("requests", 3000);
    let concurrency = args.get_usize("concurrency", 64);
    let burst = args.get_usize("burst", 4096);
    let steps = args.get_usize("steps", 10);
    let channels = args.get_usize("channels", 16);
    let hidden = args.get_usize("hidden", 32);
    let classes = args.get_usize("classes", 10);
    let density = args.get_f32("density", 0.15);
    let workers = args.get_usize("workers", 0);
    let skip_soak = args.flag("skip-soak");
    let soak_only = args.flag("soak-only");
    let smoke = args.flag("smoke");
    let mut soak_seconds = args.get_usize("soak-seconds", 12);
    let mut soak_rps = args.get_usize("soak-rps", 400);
    if smoke {
        soak_seconds = soak_seconds.min(3);
        soak_rps = soak_rps.min(200);
    }
    let fault_seed = args.get_u64("fault-seed", 1);
    let panic_rate = args.get_f32("panic-rate", 0.02) as f64;
    let latency_rate = args.get_f32("latency-rate", 0.0) as f64;
    let inject_latency_ms = args.get_u64("inject-latency-ms", 2);
    let corrupt_rate = args.get_f32("corrupt-rate", 0.01) as f64;
    let mut report = Report::new();

    bench::banner("neurosnn network serving bench");
    println!(
        "model {channels}-{hidden}-{classes}, T={steps}, density {density}, \
         {total} http requests + {burst} burst samples, {concurrency}-way concurrency\n"
    );

    let net = {
        let mut rng = Rng::seed_from(11);
        Network::mlp(
            &[channels, hidden, classes],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        )
    };
    let inputs: Vec<SpikeRaster> = {
        let mut rng = Rng::seed_from(12);
        (0..256)
            .map(|_| {
                let mut r = SpikeRaster::zeros(steps, channels);
                for t in 0..steps {
                    for c in 0..channels {
                        if rng.coin(density) {
                            r.set(t, c, true);
                        }
                    }
                }
                r
            })
            .collect()
    };
    let engine = || {
        Engine::from_network(net.clone())
            .backend(Backend::Sparse)
            .build()
    };

    // ── 1. Closed-loop HTTP: single-request vs dynamic batching ───────
    let mut http_rps = [0.0f64; 2];
    let mut speedup = None;
    let mut decode_speedup = None;
    if !soak_only {
        // ── 0. Request decode: one pass against the JSON tree ─────────────
        // perfbench's traced serve_http times the tree path, which the
        // routes no longer take, so this row attributes the decode.
        let (tree_us, one_pass_us) = decode_medians(21);
        report.metric("decode/tree_us", tree_us);
        report.metric("decode/one_pass_us", one_pass_us);
        report.metric("decode/speedup", tree_us / one_pass_us);
        decode_speedup = Some(tree_us / one_pass_us);

        for (i, (label, max_batch)) in [("single", 1usize), ("batched", 64)].iter().enumerate() {
            let server = start_server(engine(), *max_batch, workers);
            // Warm up sessions, pools, and connections outside the clock.
            let _ = drive(server.addr(), &inputs, concurrency * 2, concurrency, 0);
            let result = drive(server.addr(), &inputs, total, concurrency, 0);
            assert_eq!(
                result.errors, 0,
                "{label}: every load-test response must be non-error"
            );
            assert_eq!(result.ok as usize, total, "{label}: all requests answered");
            let rps = result.ok as f64 / result.wall.as_secs_f64();
            report.metric(&format!("http_closed_loop/{label}_rps"), rps);
            report.metric(
                &format!("http_closed_loop/{label}_mean_batch"),
                server.metrics().mean_batch_size(),
            );
            report.metric(
                &format!("http_closed_loop/{label}_p50_us"),
                percentile(&result.latencies_us, 0.50) as f64,
            );
            report.metric(
                &format!("http_closed_loop/{label}_p99_us"),
                percentile(&result.latencies_us, 0.99) as f64,
            );
            http_rps[i] = rps;
            // Graceful shutdown is part of the assertion surface: a hang
            // here fails CI by timeout; leaked requests failed above.
            server.shutdown();
        }
        report.metric(
            "http_closed_loop_batched_over_single",
            http_rps[1] / http_rps[0],
        );

        // ── 1b. Idle keep-alive connections cost fds, not threads ─────────
        // The readiness-based front end parks an idle connection as one
        // registered descriptor. Open a fleet of keep-alive connections,
        // leave them idle, and assert (a) the server spawned no extra
        // threads for them and (b) p99 on a live connection is unmoved
        // (generous 5x + 2 ms bound — this is a flatness gate, not a
        // latency benchmark).
        if !args.flag("skip-idle") {
            let idle_conns = args.get_usize("idle-conns", 256);
            let server = start_server(engine(), 64, workers);
            let mut live = Client::connect(server.addr()).expect("connect live client");
            live.set_timeout(Some(Duration::from_secs(120)))
                .expect("set timeout");
            for k in 0..64 {
                live.classify(&inputs[k % inputs.len()]).expect("warm live");
            }
            let probe = |live: &mut Client| -> Vec<u64> {
                let mut lat = Vec::with_capacity(200);
                for k in 0..200 {
                    let t0 = Instant::now();
                    live.classify(&inputs[k % inputs.len()])
                        .expect("live classify");
                    lat.push(t0.elapsed().as_micros() as u64);
                }
                lat.sort_unstable();
                lat
            };
            let base = probe(&mut live);
            let threads_before = thread_count();
            // One round-trip each proves the connection is registered
            // with the poller before it goes idle.
            let parked: Vec<Client> = (0..idle_conns)
                .map(|_| {
                    let mut c = Client::connect(server.addr()).expect("connect idle client");
                    c.set_timeout(Some(Duration::from_secs(120)))
                        .expect("set timeout");
                    assert_eq!(c.healthz().expect("idle conn round-trip"), "ok");
                    c
                })
                .collect();
            let threads_after = thread_count();
            let loaded = probe(&mut live);
            let base_p99 = percentile(&base, 0.99);
            let loaded_p99 = percentile(&loaded, 0.99);
            report.metric("idle_connections/count", idle_conns as f64);
            report.metric("idle_connections/p99_before_us", base_p99 as f64);
            report.metric("idle_connections/p99_with_idle_us", loaded_p99 as f64);
            if let (Some(before), Some(after)) = (threads_before, threads_after) {
                report.metric("idle_connections/threads_before", before as f64);
                report.metric("idle_connections/threads_with_idle", after as f64);
                assert!(
                    after <= before + 2,
                    "{idle_conns} idle connections must not grow the thread \
                     count: {before} threads before, {after} after"
                );
            }
            assert!(
                loaded_p99 <= 5 * base_p99 + 2000,
                "p99 on a live connection must be unaffected by {idle_conns} \
                 idle ones: {base_p99}us before, {loaded_p99}us with idle fleet"
            );
            drop(parked);
            server.shutdown();
            println!(
                "idle OK: {idle_conns} parked keep-alive connections, thread \
                 count flat ({:?} -> {:?}), live p99 {base_p99}us -> {loaded_p99}us",
                threads_before, threads_after
            );
        }

        // ── 2. Scheduler drain capacity: the headline speedup ─────────────
        let mut drain_rate = [0.0f64; 2];
        for (i, (label, max_batch)) in [("single", 1usize), ("batched", 64)].iter().enumerate() {
            let scheduler = Scheduler::start(engine(), policy(*max_batch, workers));
            // Warm the worker sessions.
            let warm = scheduler.submit(inputs[0].clone()).expect("warm");
            warm.wait().expect("warm answered");
            let per_client = burst.div_ceil(concurrency).max(1);
            let shards: Vec<Vec<SpikeRaster>> = (0..concurrency)
                .map(|c| {
                    (0..per_client)
                        .map(|k| inputs[(c * per_client + k) % inputs.len()].clone())
                        .collect()
                })
                .collect();
            let (rate, mean_batch) = burst_drain(&scheduler, shards, false);
            report.metric(&format!("scheduler_drain/{label}_jobs_per_sec"), rate);
            report.metric(&format!("scheduler_drain/{label}_mean_batch"), mean_batch);
            drain_rate[i] = rate;
            scheduler.shutdown();
        }
        speedup = Some(drain_rate[1] / drain_rate[0]);
        report.metric(
            "scheduler_drain_batched_over_single_speedup",
            speedup.unwrap(),
        );

        // ── 2b. Observability overhead ─────────────────────────────────────
        // The request path crosses a handful of flight-recorder hooks
        // (root/parse/serialize spans in the server, queue-wait /
        // batch-wait / inference spans in the scheduler, one span per
        // layer in the engine). With tracing disabled each hook is one
        // relaxed atomic load; measure that disarmed cost directly and
        // assert it is invisible — a generous 16 hooks per request must
        // stay under 2% of the measured per-job drain cost.
        snn_obs::set_enabled(false);
        let disarmed = report.run("obs/disarmed_span_ns", || {
            std::hint::black_box(snn_obs::span("bench_serve_probe"));
        });
        let disarmed_ns = disarmed.ns_per_iter;
        snn_obs::set_enabled(true);
        let request_ns = 1e9 / drain_rate[1];
        const HOOKS_PER_REQUEST: f64 = 16.0;
        let overhead_pct = 100.0 * HOOKS_PER_REQUEST * disarmed_ns / request_ns;
        report.metric("obs/disabled_overhead_pct_of_request", overhead_pct);
        assert!(
            overhead_pct <= 2.0,
            "tracing-disabled span hooks must cost <=2% of a request: \
             {HOOKS_PER_REQUEST} hooks x {disarmed_ns:.1}ns against a \
             {request_ns:.0}ns/job drain = {overhead_pct:.3}%"
        );

        // And the fully-traced drain (every job recording spans into the
        // flight recorder) for the record — informational, not gated:
        // ring appends are lock-free but nonzero.
        let scheduler = Scheduler::start(engine(), policy(64, workers));
        let warm = scheduler.submit(inputs[0].clone()).expect("warm");
        warm.wait().expect("warm answered");
        let per_client = burst.div_ceil(concurrency).max(1);
        let shards: Vec<Vec<SpikeRaster>> = (0..concurrency)
            .map(|c| {
                (0..per_client)
                    .map(|k| inputs[(c * per_client + k) % inputs.len()].clone())
                    .collect()
            })
            .collect();
        let (traced_rate, _) = burst_drain(&scheduler, shards, true);
        scheduler.shutdown();
        report.metric("scheduler_drain/batched_traced_jobs_per_sec", traced_rate);
        report.metric(
            "obs/traced_over_untraced_drain",
            traced_rate / drain_rate[1],
        );

        // ── 3. Open-loop HTTP: arrival-rate sweep ──────────────────────────
        if !args.flag("skip-open-loop") {
            for fraction in [0.25f64, 0.5, 0.75] {
                let rate = (http_rps[1] * fraction).max(50.0);
                let interval_us = (1e6 / rate).round().max(1.0) as u64;
                // ~2 s per rate, at least one request per client; `max`
                // before `min` so a small --requests cannot invert the
                // bounds (clamp panics on min > max).
                let n = ((rate * 2.0).round() as usize)
                    .max(concurrency)
                    .min(total.max(concurrency));
                let server = start_server(engine(), 64, workers);
                let _ = drive(server.addr(), &inputs, concurrency, concurrency, 0);
                let result = drive(server.addr(), &inputs, n, concurrency, interval_us);
                let achieved = result.ok as f64 / result.wall.as_secs_f64();
                let label = format!("http_open_loop/load{:02}", (fraction * 100.0) as u32);
                report.metric(&format!("{label}/offered_rps"), rate);
                report.metric(&format!("{label}/achieved_rps"), achieved);
                report.metric(
                    &format!("{label}/p50_us"),
                    percentile(&result.latencies_us, 0.50) as f64,
                );
                report.metric(
                    &format!("{label}/p99_us"),
                    percentile(&result.latencies_us, 0.99) as f64,
                );
                report.metric(
                    &format!("{label}/mean_batch"),
                    server.metrics().mean_batch_size(),
                );
                assert_eq!(result.errors, 0, "open-loop responses must be non-error");
                server.shutdown();
            }
        }
    } // !soak_only

    // ── 4. Chaos soak: fault-free baseline vs panics + hot reloads ────
    if !skip_soak {
        bench::banner("chaos soak");
        let requests = (soak_rps * soak_seconds).max(concurrency);
        let interval_us = (1e6 / soak_rps as f64).round().max(1.0) as u64;
        println!(
            "{requests} requests at {soak_rps} req/s over ~{soak_seconds}s per phase \
             (seed {fault_seed}, panic {panic_rate}, corrupt {corrupt_rate}, \
             latency {latency_rate}x{inject_latency_ms}ms)\n"
        );
        let expected = engine().classify_batch(&inputs);

        // Phase A: fault-free baseline.
        let server = start_server(engine(), 16, workers);
        let _ = drive(server.addr(), &inputs, concurrency * 2, concurrency, 0);
        let base = soak_phase(
            server.addr(),
            &inputs,
            &expected,
            None,
            requests,
            concurrency,
            interval_us,
            fault_seed,
        );
        assert_eq!(base.failures, 0, "baseline phase must lose nothing");
        assert_eq!(base.ok as usize, requests, "baseline answers all requests");
        server.shutdown();
        let base_p99 = percentile(&base.latencies_us, 0.99);

        // Phase B: same load against injected panics and corrupted
        // frames, with two hot reloads fired mid-run.
        let mut plan = FaultPlan::seeded(fault_seed)
            .with_panic_rate(panic_rate)
            .with_corrupt_rate(corrupt_rate);
        if latency_rate > 0.0 {
            plan = plan.with_latency(latency_rate, Duration::from_millis(inject_latency_ms));
        }
        silence_injected_panics();
        let ckpt =
            std::env::temp_dir().join(format!("neurosnn_soak_ckpt_{}.json", std::process::id()));
        snn_core::checkpoint::save(&net, &ckpt).expect("write soak checkpoint");
        let server = serve(
            engine(),
            ServerConfig {
                policy: policy(16, workers),
                checkpoint_path: Some(ckpt.to_string_lossy().into_owned()),
                faults: Some(Arc::new(plan)),
                ..ServerConfig::default()
            },
        )
        .expect("bind soak server");
        let addr = server.addr();
        let _ = drive(addr, &inputs, concurrency * 2, concurrency, 0);
        let phase_wall = Duration::from_micros(interval_us * requests as u64);
        let chaos = std::thread::scope(|scope| {
            let reloader = scope.spawn(move || {
                let mut admin = Client::connect(addr).expect("connect admin client");
                admin
                    .set_timeout(Some(Duration::from_secs(120)))
                    .expect("set timeout");
                for _ in 0..2 {
                    std::thread::sleep(phase_wall / 3);
                    let resp = admin
                        .request("POST", "/admin/reload", b"")
                        .expect("reload request");
                    assert_eq!(resp.status, 200, "mid-run reload: {}", resp.body_str());
                }
            });
            let out = soak_phase(
                addr,
                &inputs,
                &expected,
                Some(&plan),
                requests,
                concurrency,
                interval_us,
                fault_seed ^ 0xC0DE,
            );
            reloader.join().expect("reloader thread");
            out
        });
        let m = Arc::clone(server.metrics());
        server.shutdown();
        let _ = std::fs::remove_file(&ckpt);

        // The acceptance contract, asserted in-binary.
        assert_eq!(
            chaos.failures, 0,
            "chaos phase must lose no accepted request and reject every \
             corrupted frame with a 400"
        );
        assert_eq!(
            chaos.ok + chaos.corrupt_rejected,
            requests as u64,
            "every chaos-phase request accounted for"
        );
        // The schedule is deterministic, so the rejected-corruption count
        // is exactly predictable from the plan — a cheap end-to-end check
        // that the load generator consumed the schedule it claims.
        let scheduled_corrupt = (0..requests as u64)
            .filter(|&k| plan.corrupts_frame(k))
            .count() as u64;
        assert_eq!(
            chaos.corrupt_rejected, scheduled_corrupt,
            "rejected corrupted frames must match the plan's schedule"
        );
        assert_eq!(m.reloads_total.get(), 2, "both mid-run reloads succeeded");
        assert_eq!(m.reload_failures_total.get(), 0);
        assert_eq!(
            m.responses_server_error.get(),
            0,
            "zero non-injected 5xx (supervision recovers every injected panic)"
        );
        if panic_rate > 0.0 && requests >= 500 {
            assert!(
                m.worker_panics_total.get() > 0,
                "the fault plan must actually have injected panics"
            );
        }
        let chaos_p99 = percentile(&chaos.latencies_us, 0.99);
        // Flatness floor: 2 ms absolute (sub-millisecond baselines would
        // turn scheduler jitter into flaky failures) plus the injected
        // latency when that fault is enabled.
        let floor_us = 2000.0
            + if latency_rate > 0.0 {
                (inject_latency_ms * 1000) as f64
            } else {
                0.0
            };
        let bound = 1.25 * (base_p99 as f64).max(floor_us);
        assert!(
            (chaos_p99 as f64) <= bound,
            "chaos p99 {chaos_p99}us exceeds 1.25x fault-free baseline \
             (baseline {base_p99}us, bound {bound:.0}us)"
        );

        report.metric("soak/requests_per_phase", requests as f64);
        report.metric("soak/offered_rps", soak_rps as f64);
        report.metric(
            "soak/base_p50_us",
            percentile(&base.latencies_us, 0.50) as f64,
        );
        report.metric("soak/base_p99_us", base_p99 as f64);
        report.metric(
            "soak/chaos_p50_us",
            percentile(&chaos.latencies_us, 0.50) as f64,
        );
        report.metric("soak/chaos_p99_us", chaos_p99 as f64);
        report.metric(
            "soak/chaos_p99_over_base",
            chaos_p99 as f64 / (base_p99 as f64).max(1.0),
        );
        report.metric("soak/worker_panics", m.worker_panics_total.get() as f64);
        report.metric(
            "soak/sessions_quarantined",
            m.sessions_quarantined_total.get() as f64,
        );
        report.metric(
            "soak/corrupt_frames_rejected",
            chaos.corrupt_rejected as f64,
        );
        report.metric("soak/reloads", m.reloads_total.get() as f64);
        println!(
            "soak OK: {}/{} answered + {} corrupted frames rejected, \
             {} injected panics recovered, 2 hot reloads, \
             p99 {}us chaos vs {}us baseline (bound {:.0}us)",
            chaos.ok,
            requests,
            chaos.corrupt_rejected,
            m.worker_panics_total.get(),
            chaos_p99,
            base_p99,
            bound
        );
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.metric("available_cores", cores as f64);
    report.metric("concurrency", concurrency as f64);
    report.metric("http_requests", total as f64);
    report.metric("burst_samples", burst as f64);
    report.metric("model_steps", steps as f64);
    report.metric("model_channels", channels as f64);
    report.metric("model_hidden", hidden as f64);

    // The last gate runs before the report is written, so a failing run
    // leaves the committed report untouched.
    if let Some(speedup) = speedup {
        assert!(
            speedup >= min_speedup,
            "dynamic batching must drain >={min_speedup:.1}x faster than batch-size-1 \
             serving under a {concurrency}-client backlog, measured {speedup:.2}x"
        );
        println!(
            "OK: dynamic-batching drain speedup = {speedup:.2}x (target >={min_speedup:.1}x) \
             at {concurrency}-way concurrency; http closed-loop ratio {:.2}x on {cores} core(s); \
             all {total} http responses per mode non-error; graceful shutdowns clean",
            http_rps[1] / http_rps[0]
        );
    }

    if let Some(decode_speedup) = decode_speedup {
        assert!(
            decode_speedup >= min_decode_speedup,
            "the one-pass /classify decode must be >={min_decode_speedup:.1}x faster than \
             the JSON tree path on paper-scale bodies, measured {decode_speedup:.2}x"
        );
        println!(
            "OK: one-pass request decode = {decode_speedup:.2}x the JSON tree path \
             (target >={min_decode_speedup:.1}x)"
        );
    }

    report
        .write(&out_path)
        .expect("failed to write bench report");
}
