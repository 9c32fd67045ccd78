//! Scheduler edge cases: a lone job on a quiet queue, a backlog cut
//! into `max_batch`-sized batches, graceful shutdown with a non-empty
//! queue, and admission backpressure.

use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_engine::Engine;
use snn_neuron::NeuronParams;
use snn_serve::{BatchPolicy, FaultPlan, Scheduler, ServeMetrics, StreamConfig, SubmitError};
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

/// Starts a scheduler whose every job first sleeps `stall` inside the
/// worker: a busy worker is what makes a backlog build in the queue.
fn stalled(seed: u64, policy: BatchPolicy, stall: Duration) -> Scheduler {
    Scheduler::start_with_streams(
        engine(seed),
        policy,
        Arc::new(ServeMetrics::new()),
        Some(Arc::new(FaultPlan::seeded(seed).with_latency(1.0, stall))),
        StreamConfig::default(),
    )
}

/// A lone sample on a quiet queue dispatches at once as a batch of one:
/// the collator takes what is queued and never waits for more.
#[test]
fn deadline_expiry_flushes_partial_batch() {
    let engine = engine(1);
    let expected = engine.classify_batch(&inputs(1, 2))[0];
    let scheduler = Scheduler::start(
        engine,
        BatchPolicy {
            max_batch: 64,
            workers: 1,
            ..BatchPolicy::default()
        },
    );
    let started = Instant::now();
    let ticket = scheduler.submit(inputs(1, 2).remove(0)).unwrap();
    let class = ticket
        .wait_timeout(Duration::from_secs(10))
        .expect("a lone job must be dispatched");
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

/// An idle scheduler answers a lone job without holding it for company:
/// the median submit-to-answer time of sequential lone jobs stays far
/// below a millisecond. A collator that held each partial batch open
/// for even 1 ms would fail this on every job.
#[test]
fn idle_scheduler_answers_lone_jobs_without_a_hold() {
    let scheduler = Scheduler::start(
        engine(2),
        BatchPolicy {
            workers: 1,
            ..BatchPolicy::default()
        },
    );
    let samples = inputs(60, 3);
    let mut elapsed: Vec<Duration> = samples
        .iter()
        .map(|raster| {
            let started = Instant::now();
            scheduler
                .submit(raster.clone())
                .unwrap()
                .wait_timeout(Duration::from_secs(10))
                .expect("lone job answered");
            started.elapsed()
        })
        .collect();
    elapsed.sort_unstable();
    let median = elapsed[elapsed.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "median submit-to-answer of {} lone jobs was {median:?}",
        elapsed.len()
    );
    assert_eq!(scheduler.metrics().batch_size.sum(), 60);
    assert_eq!(scheduler.metrics().batches_total.get(), 60);
    scheduler.shutdown();
}

/// A backlog is cut into batches of at most `max_batch`: while the one
/// worker sleeps on each job, the submissions pile up in the queue, and
/// the collator takes them `max_batch` at a time.
#[test]
fn batch_exactly_at_max_size_dispatches_without_waiting() {
    let batch = inputs(18, 4);
    let expected = engine(3).classify_batch(&batch);
    let scheduler = stalled(
        3,
        BatchPolicy {
            max_batch: 4,
            workers: 1,
            ..BatchPolicy::default()
        },
        Duration::from_millis(20),
    );
    let tickets: Vec<_> = batch
        .iter()
        .map(|r| scheduler.submit(r.clone()).unwrap())
        .collect();
    let classes: Vec<usize> = tickets
        .into_iter()
        .map(|t| {
            t.wait_timeout(Duration::from_secs(30))
                .expect("backlog must be dispatched")
        })
        .collect();
    assert_eq!(classes, expected);
    let m = scheduler.metrics();
    assert_eq!(m.batch_size.sum(), 18);
    // No batch is larger than max_batch (the largest lands in the
    // histogram's (2, 4] bucket), so 18 jobs need at least 5 batches...
    assert!(
        m.batch_size.quantile(1.0) <= 4,
        "a batch exceeded max_batch"
    );
    let batches = m.batches_total.get();
    assert!(
        batches >= 5,
        "18 jobs in batches of at most 4, got {batches}"
    );
    // ...and the backlog behind the 20 ms-per-job worker was batched
    // rather than dispatched one job at a time.
    assert!(
        batches < 18,
        "a backlog must be batched, got {batches} batches"
    );
    scheduler.shutdown();
}

/// Shutdown with samples still queued: every accepted sample is drained,
/// classified, and answered — no request is dropped without a response.
#[test]
fn shutdown_with_non_empty_queue_answers_everything() {
    let batch = inputs(23, 6);
    let expected = engine(5).classify_batch(&batch);
    // Workers sleeping 40 ms per job guarantee the queue is non-empty at
    // shutdown: 23 jobs on two workers take about half a second.
    let scheduler = stalled(
        5,
        BatchPolicy {
            max_batch: 5,
            workers: 2,
            ..BatchPolicy::default()
        },
        Duration::from_millis(40),
    );
    let tickets: Vec<_> = batch
        .iter()
        .map(|r| scheduler.submit(r.clone()).unwrap())
        .collect();
    assert!(
        scheduler.metrics().queue_depth.get() > 0,
        "the queue must still hold jobs when shutdown starts"
    );
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
    let scheduler = Scheduler::start_with_streams(
        engine(7),
        BatchPolicy {
            max_batch: 1,
            queue_capacity: 2,
            workers: 1,
        },
        Arc::new(ServeMetrics::new()),
        Some(Arc::new(
            FaultPlan::seeded(7).with_latency(1.0, Duration::from_millis(50)),
        )),
        StreamConfig::default(),
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
