//! `infer_shd`: `Engine::classify_batch` (sparse backend, default
//! threads) over held-out samples, in calls of [`BATCH`] samples.
//!
//! A call is a fork-join over one thread per core, so a core the host
//! takes away for a few milliseconds stalls the whole call. Four 8-sample
//! chunks per thread spread such a stall over more work.

use super::{end_to_end, forward_us, lap, layer_activity, pass_order, Measured, Phase};
use crate::measure::{overhead_pct, trace_steal, unattributed_pct, Tally};
use crate::setting::{self, record_kb_per_step, Reference, Setting};
use crate::{secs, timed_setups, work, Args, RunResult, SETUP_REPS};
use snn_core::engine::{Backend, Engine};
use snn_core::SpikeRaster;
use snn_json::Json;
use std::time::Instant;

/// Samples per `classify_batch` call: the serving scheduler's default
/// `max_batch` and the trainer's batch size.
const BATCH: usize = 64;
/// Calls per second of `--seconds` (sizing only; see [`work`]).
const NOMINAL_CALLS_PER_S: f64 = 45.0;
/// Samples checked against a `Backend::Dense` engine.
const DENSE_CHECK: usize = 32;
/// Samples per phase of the traced run.
const TRACE_SAMPLES: usize = 40 * BATCH;

struct Prepared {
    inputs: Vec<SpikeRaster>,
    labels: Vec<usize>,
    engine: Engine,
    generate_ms: f64,
}

fn setup(seed: u64) -> (Prepared, f64) {
    let start = Instant::now();
    let Setting {
        test,
        net,
        generate_ms,
        ..
    } = setting::build(seed);
    let (inputs, labels): (Vec<_>, Vec<_>) = test.into_iter().unzip();
    let engine = Engine::from_network(net).build();
    engine.classify_batch(&inputs[..2 * BATCH]);
    let prepared = Prepared {
        inputs,
        labels,
        engine,
        generate_ms,
    };
    (prepared, secs(start))
}

/// Classifies `samples` held-out inputs in calls of [`BATCH`], checking
/// each answer.
fn batches(
    engine: &Engine,
    inputs: &[SpikeRaster],
    expected: &[usize],
    samples: usize,
    tally: &mut Tally,
) -> Phase {
    let per_pass = inputs.len() / BATCH;
    let calls = samples.div_ceil(BATCH);
    let mut done = Vec::with_capacity(calls);
    let mut latency_ms = Vec::with_capacity(calls);
    let start = Instant::now();
    for i in 0..calls {
        let lo = (i % per_pass) * BATCH;
        let t = Instant::now();
        let got = engine.classify_batch(&inputs[lo..lo + BATCH]);
        latency_ms.push(secs(t) * 1e3);
        done.push((secs(start), BATCH));
        for (class, want) in got.iter().zip(&expected[lo..lo + BATCH]) {
            tally.answer(Some(*class), *want);
        }
    }
    Phase {
        start,
        done,
        latency_ms,
    }
}

/// Checks a `Backend::Dense` engine against the reference classes on
/// the first [`DENSE_CHECK`] inputs.
fn dense_check(p: &Prepared, reference: &Reference, tally: &mut Tally) {
    let dense = Engine::from_network(p.engine.network().clone())
        .backend(Backend::Dense)
        .build();
    let n = DENSE_CHECK.min(p.inputs.len());
    for (class, want) in dense
        .classify_batch(&p.inputs[..n])
        .iter()
        .zip(&reference.classes)
    {
        tally.answer(Some(*class), *want);
    }
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    if args.trace {
        return traced(args);
    }
    let (setup_s, p) = timed_setups(SETUP_REPS, || Ok::<_, String>(setup(args.seed)))?;
    let mut result = RunResult::default();
    let reference = setting::reference(&p.engine, &p.inputs, &p.labels);
    let calls = work(args.seconds, NOMINAL_CALLS_PER_S, crate::workloads::BLOCKS);
    let (phase, steal) = trace_steal(|| {
        batches(
            &p.engine,
            &p.inputs,
            &reference.classes,
            calls * BATCH,
            &mut result.tally,
        )
    });
    dense_check(&p, &reference, &mut result.tally);
    end_to_end(
        &mut result,
        Measured {
            setup_s: &setup_s,
            phase: &phase,
            steal: &steal,
            latency_of: "one 64-sample classify_batch call",
            loss: reference.mean_loss,
            activity: &reference.activity,
        },
    );
    result.note(
        "infer",
        Json::obj(vec![
            ("held_out_samples", Json::Num(p.inputs.len() as f64)),
            ("batch", Json::Num(BATCH as f64)),
            ("threads", Json::Num(crate::cores() as f64)),
            ("dense_checked", Json::Num(DENSE_CHECK as f64)),
        ]),
    );
    Ok(result)
}

/// The traced run, interleaved call by call so that every phase sees
/// the same host: `classify_batch` on [`BATCH`] inputs at one thread per
/// core and at one thread, then warm `Session::classify` on the same
/// inputs twice, once with the per-call timer and once without; then
/// `Network::forward_into` on each input.
fn traced(args: &Args) -> Result<RunResult, String> {
    let (p, _) = setup(args.seed);
    let mut result = RunResult::default();
    let reference = setting::reference(&p.engine, &p.inputs, &p.labels);
    let expected = &reference.classes;
    let tally = &mut result.tally;
    let one_thread = Engine::from_network(p.engine.network().clone())
        .threads(1)
        .build();
    let mut session = p.engine.session();
    let (mut secs_all, mut secs_one, mut session_s) = (0.0, 0.0, 0.0);
    // Wall seconds of the session passes without and with the timer.
    let mut wall = [0.0; 2];
    let calls = TRACE_SAMPLES / BATCH;
    for call in 0..calls {
        let lo = (call % (p.inputs.len() / BATCH)) * BATCH;
        let (inputs, want) = (&p.inputs[lo..lo + BATCH], &expected[lo..lo + BATCH]);
        for (engine, total) in [(&p.engine, &mut secs_all), (&one_thread, &mut secs_one)] {
            let t = Instant::now();
            let got = engine.classify_batch(inputs);
            *total += secs(t);
            for (class, want) in got.iter().zip(want) {
                tally.answer(Some(*class), *want);
            }
        }
        for timed in pass_order(call) {
            let start = Instant::now();
            for (input, want) in inputs.iter().zip(want) {
                let class = lap(timed, &mut session_s, || session.classify(input));
                tally.answer(Some(class), *want);
            }
            wall[usize::from(timed)] += secs(start);
        }
    }
    let n = (calls * BATCH) as f64;
    let (rate_all, rate_one) = (n / secs_all, n / secs_one);

    let session_us = 1e6 * session_s / n;
    result.set("data.generate_ms", p.generate_ms);
    result.set(
        "core.network.forward_us",
        forward_us(p.engine.network(), &p.inputs),
    );
    result.set(
        "core.network.record_kb",
        record_kb_per_step(session.last_output(), p.inputs[0].steps()),
    );
    result.set("core.engine.session_us", session_us);
    result.set("core.engine.thread_scaling", rate_all / rate_one);
    layer_activity(&mut result, &reference.activity);
    result.set(
        "bench.unattributed_pct",
        unattributed_pct(1e6 / rate_one, &[session_us]),
    );
    result.set(
        "bench.trace_overhead_pct",
        overhead_pct(n / wall[0], n / wall[1]),
    );
    result.note(
        "reconciliation",
        Json::obj(vec![
            ("samples", Json::Num(n)),
            (
                "classify_batch_samples_per_s_all_threads",
                Json::Num(rate_all),
            ),
            (
                "classify_batch_samples_per_s_one_thread",
                Json::Num(rate_one),
            ),
            ("session_samples_per_s_timed", Json::Num(n / wall[1])),
            ("session_samples_per_s_plain", Json::Num(n / wall[0])),
            ("threads", Json::Num(crate::cores() as f64)),
        ]),
    );
    Ok(result)
}
