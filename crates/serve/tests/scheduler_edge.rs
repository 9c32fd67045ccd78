//! Scheduler edge cases: deadline expiry on a quiet queue, size-triggered
//! dispatch, graceful shutdown with a non-empty queue, and admission
//! backpressure.

use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_engine::Engine;
use snn_neuron::NeuronParams;
use snn_serve::{BatchPolicy, FaultPlan, Scheduler, ServeMetrics, SubmitError};
use snn_tensor::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A lone sample on a quiet queue must not wait for a full batch: the
/// `max_wait` deadline flushes the partial batch.
#[test]
fn deadline_expiry_flushes_partial_batch() {
    let engine = engine(1);
    let expected = engine.classify_batch(&inputs(1, 2))[0];
    let scheduler = Scheduler::start(
        engine,
        BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_millis(30),
            workers: 1,
            ..BatchPolicy::default()
        },
    );
    let started = Instant::now();
    let ticket = scheduler.submit(inputs(1, 2).remove(0)).unwrap();
    let class = ticket
        .wait_timeout(Duration::from_secs(10))
        .expect("deadline must flush the batch");
    assert_eq!(class, expected);
    // Far below the would-be forever of waiting for 63 more samples;
    // generous upper bound for a loaded CI box.
    assert!(started.elapsed() < Duration::from_secs(5));
    let m = scheduler.metrics();
    assert_eq!(m.batches_total.get(), 1);
    assert_eq!(m.batch_size.count(), 1);
    assert_eq!(m.batch_size.sum(), 1);
    scheduler.shutdown();
}

/// A batch that reaches exactly `max_batch` dispatches immediately: with
/// a deliberately huge `max_wait`, only the size trigger can explain the
/// answers arriving.
#[test]
fn batch_exactly_at_max_size_dispatches_without_waiting() {
    let engine = engine(3);
    let batch = inputs(4, 4);
    let expected = engine.classify_batch(&batch);
    let scheduler = Scheduler::start(
        engine,
        BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_secs(600),
            workers: 1,
            ..BatchPolicy::default()
        },
    );
    let tickets: Vec<_> = batch
        .iter()
        .map(|r| scheduler.submit(r.clone()).unwrap())
        .collect();
    let classes: Vec<usize> = tickets
        .into_iter()
        .map(|t| {
            t.wait_timeout(Duration::from_secs(30))
                .expect("size trigger must dispatch")
        })
        .collect();
    assert_eq!(classes, expected);
    let m = scheduler.metrics();
    assert_eq!(m.batches_total.get(), 1, "one full batch, zero partials");
    assert_eq!(m.batch_size.sum(), 4);
    scheduler.shutdown();
}

/// Shutdown with samples still queued: every accepted sample is drained,
/// classified, and answered — no request is dropped without a response.
#[test]
fn shutdown_with_non_empty_queue_answers_everything() {
    let engine = engine(5);
    let batch = inputs(23, 6);
    let expected = engine.classify_batch(&batch);
    // A long max_wait guarantees the queue is non-empty at shutdown:
    // without the drain, most tickets would sit for 10 minutes.
    let scheduler = Scheduler::start(
        engine,
        BatchPolicy {
            max_batch: 5,
            max_wait: Duration::from_secs(600),
            workers: 2,
            ..BatchPolicy::default()
        },
    );
    let tickets: Vec<_> = batch
        .iter()
        .map(|r| scheduler.submit(r.clone()).unwrap())
        .collect();
    scheduler.shutdown();
    // After shutdown, every ticket must already be (or immediately
    // become) redeemable.
    let classes: Vec<usize> = tickets
        .into_iter()
        .map(|t| {
            t.wait_timeout(Duration::from_secs(5))
                .expect("drained job must be answered")
        })
        .collect();
    assert_eq!(classes, expected);
    // And new work is refused.
    assert_eq!(
        scheduler.submit(batch[0].clone()).unwrap_err(),
        SubmitError::ShuttingDown
    );
}

/// When workers cannot keep up, the bounded queue fills and `submit`
/// fails fast with `QueueFull` instead of buffering without bound. The
/// fault plan sleeps 50 ms before every job, inside the worker's
/// supervision loop, to hold the one worker busy while the queue fills.
#[test]
fn full_queue_applies_backpressure() {
    let scheduler = Scheduler::start_with_faults(
        engine(7),
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            queue_capacity: 2,
            workers: 1,
            ..BatchPolicy::default()
        },
        Arc::new(ServeMetrics::new()),
        Some(Arc::new(
            FaultPlan::seeded(7).with_latency(1.0, Duration::from_millis(50)),
        )),
    );
    let batch = inputs(64, 8);
    let mut accepted = Vec::new();
    let mut rejections = 0usize;
    for raster in &batch {
        match scheduler.submit(raster.clone()) {
            Ok(t) => accepted.push(t),
            Err(SubmitError::QueueFull) => rejections += 1,
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
    assert!(
        rejections > 0,
        "64 instant submissions into a 2-slot queue over a 50ms/sample worker must reject"
    );
    assert_eq!(
        scheduler.metrics().rejected_queue_full.get(),
        rejections as u64
    );
    // Everything accepted is still answered.
    for ticket in accepted {
        ticket
            .wait_timeout(Duration::from_secs(30))
            .expect("accepted job must be answered");
    }
    scheduler.shutdown();
}
