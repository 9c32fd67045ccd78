//! Streaming-protocol load generator: measures what the binary event
//! wire protocol buys over JSON-per-raster HTTP on a parse-bound
//! workload, recorded under `stream/*` in `BENCH_serve.json` (merged —
//! the `bench_serve` metrics in the same file are preserved).
//!
//! Three experiments against a real `snn-serve` server on an ephemeral
//! loopback port, all on the 16-32-10 sparse model `bench_serve` uses:
//!
//! 1. **JSON baseline**: closed-loop `POST /classify`, one raster per
//!    request over a keep-alive connection with `max_batch = 1`. Every
//!    answer is checked against the engine.
//! 2. **Binary streaming, synchronous**: one resident session; per
//!    raster a `feed → tick → readout → reset` cycle awaiting each
//!    readout. This is the per-sample *latency* shape (p50/p99 per
//!    cycle, plus the server-side per-chunk histogram).
//! 3. **Binary streaming, continuous**: one long-lived session fed the
//!    same rasters back-to-back as a continuous event stream (EVENTS +
//!    TICK pipelined from a writer thread, READOUT every 64 rasters) —
//!    the *throughput* shape the unacknowledged frame contract exists
//!    for, and the shape a live event-camera feed actually has. The
//!    committed-step counts in every periodic readout are checked.
//!
//! The binary asserts pipelined streaming moves ≥ `--min-ratio`× the
//! events/s of the JSON baseline (default 2; `--smoke` lowers it to 1
//! for CI's 1-core containers) and that a server shuts down cleanly
//! while streams are still resident (the smoke gate for supervised
//! stream-worker teardown).
//!
//! Usage: `cargo run --release --bin bench_stream
//! [-- --out PATH] [--min-ratio X] [--rasters N] [--steps T]
//! [--channels C] [--hidden H] [--classes K] [--density D] [--smoke]`

use bench::timing::Report;
use bench::Args;
use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_engine::{Backend, Engine};
use snn_json::Json;
use snn_neuron::NeuronParams;
use snn_serve::wire::{Frame, Reply, MAGIC};
use snn_serve::{serve, BatchPolicy, Client, ServerConfig, ServerHandle, StreamClient};
use snn_tensor::Rng;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn deltas(raster: &SpikeRaster) -> Vec<(u16, u16)> {
    raster
        .delta_events()
        .iter()
        .map(|&(dt, ch)| (dt as u16, ch as u16))
        .collect()
}

fn start_server(engine: Engine) -> ServerHandle {
    serve(
        engine,
        ServerConfig {
            policy: BatchPolicy {
                max_batch: 1,
                queue_capacity: 8192,
                workers: 0,
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral serving port")
}

/// Reads `BENCH_serve.json` (if present) and returns its non-`stream/`
/// metrics so this binary's report can be merged over the `bench_serve`
/// one instead of clobbering it.
fn existing_metrics(path: &str) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return Vec::new();
    };
    let Some(Json::Obj(pairs)) = doc.get("metrics").cloned() else {
        return Vec::new();
    };
    pairs
        .into_iter()
        .filter(|(k, _)| !k.starts_with("stream/"))
        .filter_map(|(k, v)| v.as_f64().map(|x| (k, x)))
        .collect()
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = Args::parse(&[
        "out",
        "smoke",
        "min-ratio",
        "rasters",
        "steps",
        "channels",
        "hidden",
        "classes",
        "density",
    ]);
    let out_path = args.get("out", "BENCH_serve.json").to_string();
    let smoke = args.flag("smoke");
    let min_ratio = args.get_f32("min-ratio", if smoke { 1.0 } else { 2.0 }) as f64;
    let mut rasters = args.get_usize("rasters", 4000);
    if smoke {
        rasters = rasters.min(600);
    }
    let steps = args.get_usize("steps", 10);
    let channels = args.get_usize("channels", 16);
    let hidden = args.get_usize("hidden", 32);
    let classes = args.get_usize("classes", 10);
    let density = args.get_f32("density", 0.15);

    bench::banner("neurosnn streaming serving bench");
    println!(
        "model {channels}-{hidden}-{classes}, T={steps}, density {density}, \
         {rasters} rasters per mode\n"
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
    let expected = engine().classify_batch(&inputs);
    let input_deltas: Vec<Vec<(u16, u16)>> = inputs.iter().map(deltas).collect();
    let total_events: u64 = (0..rasters)
        .map(|k| input_deltas[k % inputs.len()].len() as u64)
        .sum();

    let server = start_server(engine());
    let addr = server.addr();
    let mut report = Report::new();
    for (k, v) in existing_metrics(&out_path) {
        report.metric(&k, v);
    }

    // ── 1. JSON-per-raster baseline ───────────────────────────────────
    let mut client = Client::connect(addr).expect("connect json client");
    client
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    // Warm up the session pool and the connection outside the clock.
    for raster in inputs.iter().take(64) {
        let _ = client.classify(raster).expect("warmup classify");
    }
    let mut json_lat = Vec::with_capacity(rasters);
    let t0 = Instant::now();
    for k in 0..rasters {
        let sent = t0.elapsed();
        let class = client
            .classify(&inputs[k % inputs.len()])
            .expect("json classify");
        assert_eq!(class, expected[k % inputs.len()], "json answer {k}");
        json_lat.push(t0.elapsed().saturating_sub(sent).as_micros() as u64);
    }
    let json_wall = t0.elapsed();
    json_lat.sort_unstable();
    let json_rps = rasters as f64 / json_wall.as_secs_f64();
    let json_eps = total_events as f64 / json_wall.as_secs_f64();
    report.metric("stream/json_rasters_per_sec", json_rps);
    report.metric("stream/json_events_per_sec", json_eps);
    report.metric("stream/json_p50_us", percentile(&json_lat, 0.50) as f64);
    report.metric("stream/json_p99_us", percentile(&json_lat, 0.99) as f64);

    // ── 2. Binary streaming, synchronous cycles (latency shape) ───────
    let mut stream = StreamClient::open(addr, channels as u32, 0).expect("open stream");
    stream
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    for k in 0..64usize {
        let d = &input_deltas[k % inputs.len()];
        stream.feed(d).expect("warmup feed");
        stream.tick(steps as u32).expect("warmup tick");
        let _ = stream.readout().expect("warmup readout");
        stream.reset().expect("warmup reset");
    }
    let mut sync_lat = Vec::with_capacity(rasters);
    let t0 = Instant::now();
    for k in 0..rasters {
        let sent = t0.elapsed();
        let d = &input_deltas[k % inputs.len()];
        stream.feed(d).expect("feed");
        stream.tick(steps as u32).expect("tick");
        let (class, _) = stream.readout().expect("readout");
        assert_eq!(
            class as usize,
            expected[k % inputs.len()],
            "stream answer {k}"
        );
        stream.reset().expect("reset");
        sync_lat.push(t0.elapsed().saturating_sub(sent).as_micros() as u64);
    }
    let sync_wall = t0.elapsed();
    stream.close().expect("close stream");
    sync_lat.sort_unstable();
    report.metric(
        "stream/binary_sync_rasters_per_sec",
        rasters as f64 / sync_wall.as_secs_f64(),
    );
    report.metric(
        "stream/binary_sync_p50_us",
        percentile(&sync_lat, 0.50) as f64,
    );
    report.metric(
        "stream/binary_sync_p99_us",
        percentile(&sync_lat, 0.99) as f64,
    );
    report.metric(
        "stream/server_chunk_p99_us",
        server.metrics().stream_chunk_latency_us.quantile(0.99) as f64,
    );

    // ── 3. Binary streaming, continuous (throughput shape) ────────────
    // The rasters become one long event stream on a single resident
    // session: EVENTS and TICK frames are pipelined from a writer thread
    // (they are unacknowledged by contract), with a synchronous READOUT
    // every `SYNC_EVERY` rasters — the cadence a consumer querying a
    // live feed has, without the per-sample round-trip the JSON path is
    // forced into.
    const SYNC_EVERY: usize = 64;
    let raw = TcpStream::connect(addr).expect("connect pipelined stream");
    raw.set_nodelay(true).ok();
    raw.set_read_timeout(Some(Duration::from_secs(120))).ok();
    let write_half = raw.try_clone().expect("clone stream socket");
    let mut reader = BufReader::new(raw);
    {
        let mut w = BufWriter::new(&write_half);
        w.write_all(&MAGIC).expect("magic");
        Frame::Hello {
            n_in: channels as u32,
            max_pending: 0,
        }
        .write_to(&mut w)
        .expect("hello");
        w.flush().expect("flush hello");
    }
    match Reply::read_from(&mut reader).expect("hello reply") {
        Some(Reply::HelloOk { .. }) => {}
        other => panic!("expected HELLO_OK, got {other:?}"),
    }
    let n_inputs = inputs.len();
    let t0 = Instant::now();
    let binary_wall = std::thread::scope(|scope| {
        let input_deltas = &input_deltas;
        scope.spawn(move || {
            let mut w = BufWriter::new(&write_half);
            for k in 0..rasters {
                Frame::Events(input_deltas[k % n_inputs].clone())
                    .write_to(&mut w)
                    .expect("pipelined events");
                Frame::Tick {
                    advance: steps as u32,
                }
                .write_to(&mut w)
                .expect("pipelined tick");
                if (k + 1) % SYNC_EVERY == 0 {
                    Frame::Readout.write_to(&mut w).expect("pipelined readout");
                }
            }
            Frame::Readout.write_to(&mut w).expect("final readout");
            Frame::Close.write_to(&mut w).expect("pipelined close");
            w.flush().expect("flush pipeline");
        });
        let mut readouts = 0usize;
        let mut last_steps = 0u64;
        loop {
            match Reply::read_from(&mut reader).expect("pipelined reply") {
                Some(Reply::Readout { steps, .. }) => {
                    assert!(
                        steps >= last_steps,
                        "committed frontier went backwards: {steps} < {last_steps}"
                    );
                    last_steps = steps;
                    readouts += 1;
                }
                Some(Reply::Ok) => break, // the CLOSE acknowledgement
                other => panic!("expected READOUT_REPLY or OK, got {other:?}"),
            }
        }
        let wall = t0.elapsed();
        assert_eq!(readouts, rasters / SYNC_EVERY + 1, "every readout answered");
        assert_eq!(
            last_steps,
            (rasters * steps) as u64,
            "final frontier covers every streamed raster"
        );
        wall
    });
    let binary_rps = rasters as f64 / binary_wall.as_secs_f64();
    let binary_eps = total_events as f64 / binary_wall.as_secs_f64();
    report.metric("stream/binary_continuous_rasters_per_sec", binary_rps);
    report.metric("stream/binary_continuous_events_per_sec", binary_eps);
    let ratio = binary_eps / json_eps;
    report.metric("stream/binary_over_json_events_per_sec", ratio);
    report.metric(
        "stream/events_per_raster",
        total_events as f64 / rasters as f64,
    );
    report.metric(
        "stream/server_events_total",
        server.metrics().stream_events_total.get() as f64,
    );

    // ── 4. Clean shutdown with resident sessions ──────────────────────
    // Open streams and *leave them resident*: graceful shutdown must
    // still join every stream worker and close every connection. A hang
    // here fails CI by timeout.
    let resident: Vec<StreamClient> = (0..2)
        .map(|_| StreamClient::open(addr, channels as u32, 0).expect("resident stream"))
        .collect();
    assert!(server.metrics().stream_sessions_resident.get() >= 2);
    server.shutdown();
    drop(resident);

    // The gate runs before the report is written, so a failing run
    // leaves the committed report untouched.
    assert!(
        ratio >= min_ratio,
        "binary streaming must move >={min_ratio:.1}x the events/s of \
         JSON-per-raster serving, measured {ratio:.2}x \
         ({binary_eps:.0} vs {json_eps:.0} events/s)"
    );
    println!(
        "OK: binary streaming {ratio:.2}x JSON events/s (target >={min_ratio:.1}x); \
         continuous {binary_rps:.0} rasters/s vs json {json_rps:.0} rasters/s; \
         sync stream p99 {}us vs json p99 {}us; all {rasters} answers per mode verified; \
         shutdown with resident sessions clean",
        percentile(&sync_lat, 0.99),
        percentile(&json_lat, 0.99),
    );

    report
        .write(&out_path)
        .expect("failed to write bench report");
}
