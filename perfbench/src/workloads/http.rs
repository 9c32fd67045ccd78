//! `serve_http`: `snn_serve::serve` with the default `ServerConfig` and
//! `BatchPolicy`, driven by one keep-alive connection per core, each
//! with one client thread that sends `POST /classify` with a
//! pre-encoded raster and waits for the answer. Its traced run also
//! times the server's streaming path (see [`stream`]).

use super::{
    closed_loop, end_to_end, forward_us, lap, layer_activity, pass_order, stream, wait_ready,
    Measured, Phase,
};
use crate::measure::{mean, overhead_pct, trace_steal, unattributed_pct, Tally, TAIL_BLOCK};
use crate::setting::{self, record_kb_per_step, Setting};
use crate::{cores, secs, timed_setups, work, Args, RunResult, SETUP_REPS};
use snn_core::engine::Engine;
use snn_core::SpikeRaster;
use snn_json::Json;
use snn_serve::{BatchPolicy, Client, Scheduler, ServerConfig, ServerHandle};
use std::sync::Barrier;
use std::time::Instant;

/// Requests per second of `--seconds` (sizing only; see [`work`]).
const NOMINAL_REQUESTS_PER_S: f64 = 520.0;
/// Requests per connection during set-up.
const WARMUP: usize = 16;
/// A route the server answers 404 after reading the whole request: the
/// HTTP transport of a same-sized request without any inference.
const NULL_PATH: &str = "/perfbench/null";
/// Requests per phase of the traced run.
const TRACE_REQUESTS: usize = 2000;
/// Passes over the held-out bodies when timing the layers in-process.
const TRACE_PASSES: usize = 2;

/// A running server with its clients. Dropping it closes the clients
/// first (fields drop in declaration order), then shuts the server down.
struct Served {
    clients: Vec<Client>,
    server: ServerHandle,
    engine: Engine,
    inputs: Vec<SpikeRaster>,
    labels: Vec<usize>,
    bodies: Vec<Vec<u8>>,
    generate_ms: f64,
}

fn class_of(body: &str) -> Option<usize> {
    Json::parse(body).ok()?.get("class")?.as_usize()
}

/// Builds the setting, encodes the bodies, starts the server, waits for
/// its first ready answer and warms every connection. The seconds
/// returned exclude the encoding.
fn setup(seed: u64) -> Result<(Served, f64), String> {
    let start = Instant::now();
    let Setting {
        test,
        net,
        generate_ms,
        ..
    } = setting::build(seed);
    let (inputs, labels): (Vec<_>, Vec<_>) = test.into_iter().unzip();
    let engine = Engine::from_network(net).build();
    let encode = Instant::now();
    let bodies: Vec<Vec<u8>> = inputs
        .iter()
        .map(|r| r.to_json().to_string().into_bytes())
        .collect();
    let encode_s = secs(encode);
    let server = snn_serve::serve(engine.clone(), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let mut clients = (0..cores())
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    wait_ready(server.addr())?;
    for (k, client) in clients.iter_mut().enumerate() {
        for i in 0..WARMUP {
            let body = &bodies[(k + i * cores()) % bodies.len()];
            match client.request("POST", "/classify", body) {
                Ok(resp) if resp.status == 200 => {}
                other => return Err(format!("warm-up request failed: {other:?}")),
            }
        }
    }
    let served = Served {
        clients,
        server,
        engine,
        inputs,
        labels,
        bodies,
        generate_ms,
    };
    Ok((served, secs(start) - encode_s))
}

/// The closed loop of `POST /classify`, every answer checked against
/// `expected`.
fn classify_loop(
    s: &mut Served,
    expected: &[usize],
    per_client: usize,
    tally: &mut Tally,
) -> Phase {
    let bodies = &s.bodies;
    closed_loop(&mut s.clients, per_client, tally, |client, i, tally| {
        let idx = i % bodies.len();
        let class = match client.request("POST", "/classify", &bodies[idx]) {
            Ok(resp) if resp.status == 200 => class_of(&resp.body_str()),
            _ => None,
        };
        tally.answer(class, expected[idx]);
    })
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    if args.trace {
        return traced(args);
    }
    let (setup_s, mut s) = timed_setups(SETUP_REPS, || setup(args.seed))?;
    let mut result = RunResult::default();
    let reference = setting::reference(&s.engine, &s.inputs, &s.labels);
    let per_client = work(args.seconds, NOMINAL_REQUESTS_PER_S, TAIL_BLOCK) / s.clients.len();
    let (phase, steal) =
        trace_steal(|| classify_loop(&mut s, &reference.classes, per_client, &mut result.tally));
    end_to_end(
        &mut result,
        Measured {
            setup_s: &setup_s,
            phase: &phase,
            steal: &steal,
            latency_of: "one POST /classify request",
            loss: reference.mean_loss,
            activity: &reference.activity,
        },
    );
    result.note(
        "serve_http",
        Json::obj(vec![
            ("connections", Json::Num(s.clients.len() as f64)),
            ("held_out_samples", Json::Num(s.inputs.len() as f64)),
        ]),
    );
    drop(s);
    Ok(result)
}

/// Reads a counter from `/metrics` text.
fn counter(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .find_map(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// `Scheduler::submit` → `Ticket::wait` with the default policy, one
/// submitter thread per core, no sockets. Returns each job's seconds.
fn scheduler_roundtrips(
    engine: &Engine,
    inputs: &[SpikeRaster],
    expected: &[usize],
    per_submitter: usize,
    tally: &mut Tally,
) -> Vec<f64> {
    let scheduler = Scheduler::start(engine.clone(), BatchPolicy::default());
    let stride = cores();
    let barrier = Barrier::new(stride);
    let outs: Vec<(Vec<f64>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..stride)
            .map(|k| {
                let (scheduler, barrier) = (&scheduler, &barrier);
                scope.spawn(move || {
                    let mut times = Vec::with_capacity(per_submitter);
                    let mut tally = Tally::default();
                    barrier.wait();
                    for j in 0..per_submitter {
                        let idx = (k + j * stride) % inputs.len();
                        let raster = inputs[idx].clone();
                        let t = Instant::now();
                        let class = scheduler.submit(raster).ok().and_then(|tk| tk.wait().ok());
                        times.push(secs(t));
                        tally.answer(class, expected[idx]);
                    }
                    (times, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread panicked"))
            .collect()
    });
    scheduler.shutdown();
    let mut times = Vec::new();
    for (t, sub) in outs {
        times.extend(t);
        tally.merge(sub);
    }
    times
}

/// The traced run: the closed loop of `POST /classify`, then requests
/// to a route that answers 404, then the layers of the request path
/// timed in-process on the same bodies: `Json::parse`,
/// `SpikeRaster::from_json` and `Session::classify`, each body twice,
/// once with the per-call timers and once without; then the streaming
/// path of the same server.
fn traced(args: &Args) -> Result<RunResult, String> {
    let (mut s, _) = setup(args.seed)?;
    let mut result = RunResult::default();
    let reference = setting::reference(&s.engine, &s.inputs, &s.labels);
    let expected = &reference.classes;
    let per_client = TRACE_REQUESTS / s.clients.len();
    let before = s.clients[0]
        .metrics()
        .map_err(|e| format!("/metrics: {e}"))?;
    let served = classify_loop(&mut s, expected, per_client, &mut result.tally);
    let after = s.clients[0]
        .metrics()
        .map_err(|e| format!("/metrics: {e}"))?;
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let bodies = &s.bodies;
    let null = closed_loop(
        &mut s.clients,
        per_client,
        &mut result.tally,
        |client, i, tally| {
            let resp = client.request("POST", NULL_PATH, &bodies[i % bodies.len()]);
            tally.outcome(resp.is_ok_and(|r| r.status == 404));
        },
    );

    let tally = &mut result.tally;
    let texts = s
        .bodies
        .iter()
        .map(|b| std::str::from_utf8(b))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut session = s.engine.session();
    let (mut parse_s, mut from_json_s, mut session_s) = (0.0, 0.0, 0.0);
    // Wall seconds of the passes without and with the timers.
    let mut wall = [0.0; 2];
    let rounds = TRACE_PASSES * texts.len();
    for round in 0..rounds {
        let i = round % texts.len();
        for timed in pass_order(round) {
            let start = Instant::now();
            let doc = lap(timed, &mut parse_s, || Json::parse(texts[i]));
            let doc = doc.map_err(|e| e.to_string())?;
            let raster = lap(timed, &mut from_json_s, || SpikeRaster::from_json(&doc));
            match raster {
                Ok(raster) if raster == s.inputs[i] => {
                    let class = lap(timed, &mut session_s, || session.classify(&raster));
                    tally.answer(Some(class), expected[i]);
                }
                _ => tally.outcome(false),
            }
            wall[usize::from(timed)] += secs(start);
        }
    }
    let record_kb = record_kb_per_step(session.last_output(), s.inputs[0].steps());
    let forward = forward_us(s.engine.network(), &s.inputs);
    let roundtrip_s = scheduler_roundtrips(&s.engine, &s.inputs, expected, per_client, tally);
    let streamed = stream::trace(s.server.addr(), &s.engine, &s.inputs, expected, tally)?;

    let n = rounds as f64;
    let end_to_end_us = 1e3 * mean(&served.latency_ms);
    let parse_us = 1e6 * parse_s / n;
    let from_json_us = 1e6 * from_json_s / n;
    let session_us = 1e6 * session_s / n;
    let roundtrip_us = 1e6 * mean(&roundtrip_s);
    let null_us = 1e3 * mean(&null.latency_ms);
    let request_kb =
        s.bodies.iter().map(Vec::len).sum::<usize>() as f64 / s.bodies.len() as f64 / 1024.0;
    result.set("data.generate_ms", s.generate_ms);
    result.set("core.network.forward_us", forward);
    result.set("core.network.record_kb", record_kb);
    result.set("core.engine.session_us", session_us);
    result.set("json.parse_us", parse_us);
    result.set("core.spike.from_json_us", from_json_us);
    result.set("serve.http.request_kb", request_kb);
    result.set("serve.scheduler.roundtrip_us", roundtrip_us);
    result.set("serve.scheduler.wait_us", roundtrip_us - session_us);
    result.set(
        "serve.scheduler.mean_batch",
        delta("snn_jobs_total") / delta("snn_batches_total"),
    );
    result.set(
        "serve.scheduler.rejected",
        delta("snn_rejected_queue_full_total") + delta("snn_jobs_retried_total"),
    );
    result.set(
        "serve.http.transport_us",
        end_to_end_us - parse_us - from_json_us - roundtrip_us,
    );
    result.set("serve.null_roundtrip_us", null_us);
    result.set("core.stream.sample_us", streamed.session_us);
    result.set("serve.wire.sample_us", streamed.wire_us);
    result.set(
        "serve.stream.transport_us",
        streamed.end_to_end_us - streamed.session_us - streamed.wire_us,
    );
    layer_activity(&mut result, &reference.activity);
    result.set(
        "bench.unattributed_pct",
        unattributed_pct(
            end_to_end_us,
            &[parse_us, from_json_us, roundtrip_us, null_us],
        ),
    );
    result.set(
        "bench.trace_overhead_pct",
        overhead_pct(n / wall[0], n / wall[1]),
    );
    result.note(
        "reconciliation",
        Json::obj(vec![
            ("requests", Json::Num(served.done.len() as f64)),
            ("requests_per_s", Json::Num(served.rate())),
            ("end_to_end_mean_us", Json::Num(end_to_end_us)),
            ("in_process_samples", Json::Num(n)),
            ("in_process_samples_per_s_timed", Json::Num(n / wall[1])),
            ("in_process_samples_per_s_plain", Json::Num(n / wall[0])),
            ("connections", Json::Num(s.clients.len() as f64)),
        ]),
    );
    // A stream cycle makes two round trips (readout, reset), each at
    // least a lone RESET round trip.
    result.note(
        "stream_reconciliation",
        Json::obj(vec![
            ("cycles_per_s", Json::Num(streamed.cycles_per_s)),
            ("end_to_end_mean_us", Json::Num(streamed.end_to_end_us)),
            ("reset_roundtrip_us", Json::Num(streamed.null_us)),
            (
                "unattributed_pct",
                Json::Num(unattributed_pct(
                    streamed.end_to_end_us,
                    &[
                        streamed.session_us,
                        streamed.wire_us,
                        2.0 * streamed.null_us,
                    ],
                )),
            ),
        ]),
    );
    drop(s);
    Ok(result)
}
