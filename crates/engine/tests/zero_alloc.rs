//! Pins the engine's zero-per-sample-allocation guarantee: once a
//! [`Session`]'s buffers are warm, `classify` / `classify_with_probs` /
//! `infer` / `infer_raster` must not touch the heap.
//!
//! A counting global allocator tracks allocations **on the current
//! thread only**, so the measurement is immune to whatever the test
//! harness does on other threads. This file is its own integration-test
//! binary, so the allocator override cannot leak into other suites.

use snn_core::train::{
    backward_sparse_into, ClassificationLoss, Gradients, RateCrossEntropy, SparsityPolicy,
};
use snn_core::{Forward, Network, NeuronKind, ScratchSpace, SpikeRaster};
use snn_engine::{hardware, Backend, DeployConfig, Engine, Session};
use snn_neuron::{NeuronParams, Surrogate};
use snn_tensor::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn net() -> Network {
    let mut rng = Rng::seed_from(5);
    Network::mlp(
        &[10, 24, 4],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.4),
        &mut rng,
    )
}

fn inputs() -> Vec<SpikeRaster> {
    let mut rng = Rng::seed_from(6);
    (0..32)
        .map(|_| {
            let mut r = SpikeRaster::zeros(25, 10);
            for t in 0..25 {
                for c in 0..10 {
                    if rng.coin(0.15) {
                        r.set(t, c, true);
                    }
                }
            }
            r
        })
        .collect()
}

/// Warm the session on every input (buffers grow to their final sizes),
/// then measure a full second pass.
fn assert_hot_path_is_allocation_free(mut session: Session<'_>, label: &str) {
    let batch = inputs();
    for input in &batch {
        session.classify(input);
        let _ = session.classify_with_probs(input);
        session.infer(input);
        session.infer_raster(input);
    }
    let before = allocations();
    for input in &batch {
        std::hint::black_box(session.classify(input));
        std::hint::black_box(session.classify_with_probs(input).0);
        let mut fresh_counts = Vec::new();
        session.infer(input).spike_counts_into(&mut fresh_counts);
        std::hint::black_box(&fresh_counts);
        std::hint::black_box(session.infer_raster(input).spike_count());
    }
    let after = allocations();
    // The spike_counts_into above feeds a fresh Vec each call (one alloc
    // per sample) purely to exercise `infer`; everything session-owned
    // must be silent. 32 samples → exactly 32 counted allocations.
    assert_eq!(
        after - before,
        batch.len() as u64,
        "{label}: session hot path allocated"
    );
}

#[test]
fn sparse_session_hot_path_is_allocation_free() {
    let engine = Engine::from_network(net()).backend(Backend::Sparse).build();
    assert_hot_path_is_allocation_free(engine.session(), "sparse");
}

#[test]
fn dense_session_hot_path_is_allocation_free() {
    let engine = Engine::from_network(net()).backend(Backend::Dense).build();
    assert_hot_path_is_allocation_free(engine.session(), "dense");
}

#[test]
fn hardware_session_hot_path_is_allocation_free() {
    let engine = Engine::from_network(net())
        .backend(hardware(DeployConfig::five_bit(), 3))
        .build();
    assert_hot_path_is_allocation_free(engine.session(), "hardware");
}

#[test]
fn fused_forward_and_sparse_backward_are_allocation_free() {
    // The fused timestep kernels (fused decay+accumulate, fused
    // membrane passes) and the laned BPTT recursions must not change
    // the zero-per-sample-allocation guarantee of a full training step:
    // forward_into + backward_sparse_into, under both the Exact and the
    // default Auto pruning policy.
    let net = net();
    let batch = inputs();
    let loss = RateCrossEntropy;
    let surrogate = Surrogate::default();
    let mut fwd = Forward::empty();
    let mut scratch = ScratchSpace::new();
    let mut grads = Gradients::zeros_like(&net);
    let mut d_out = snn_tensor::Matrix::zeros(0, 0);

    // Warm-up pass: buffers (records, scratch, d_out) grow to final size.
    for input in &batch {
        net.forward_into(input, &mut fwd, &mut scratch);
        let _ = loss.loss_and_grad_into(fwd.output(), 1, &mut d_out);
        for policy in [SparsityPolicy::Exact, SparsityPolicy::Auto] {
            backward_sparse_into(
                &net,
                &fwd,
                &d_out,
                surrogate,
                policy,
                &mut grads,
                &mut scratch,
            );
        }
    }

    grads.reset();
    let before = allocations();
    for input in &batch {
        net.forward_into(input, &mut fwd, &mut scratch);
        for policy in [SparsityPolicy::Exact, SparsityPolicy::Auto] {
            backward_sparse_into(
                &net,
                &fwd,
                &d_out,
                surrogate,
                policy,
                &mut grads,
                &mut scratch,
            );
        }
        std::hint::black_box(&grads);
    }
    let after = allocations();
    // The loss stages per-call temporaries (counts/softmax vectors), so
    // d_out is reused from warm-up here; the fused forward and sparse
    // backward paths themselves must be completely silent.
    assert_eq!(
        after - before,
        0,
        "fused forward/sparse-backward hot path allocated"
    );
}

#[test]
fn network_classify_is_allocation_free_after_warmup_except_probs() {
    let net = net();
    let batch = inputs();
    for input in &batch {
        let _ = net.classify(input);
    }
    let before = allocations();
    for input in &batch {
        std::hint::black_box(net.classify(input));
    }
    let after = allocations();
    // classify returns a fresh probability Vec (its signature demands
    // it); the thread-local forward/scratch path must add nothing else.
    assert_eq!(
        after - before,
        batch.len() as u64,
        "Network::classify allocated beyond the returned probs vector"
    );
}

/// Long silent `advance(65536)` calls per stream cycle. The unoptimised
/// build runs two: 200 take minutes there, and two already outgrow a
/// pool that keeps a list per silent step.
const SILENT_ADVANCES: usize = if cfg!(debug_assertions) { 2 } else { 200 };

/// One feed/advance/readout/reset cycle over every input, fed whole and
/// in one-step chunks, then the long silent advances.
fn stream_cycle(
    stream: &mut snn_engine::StreamSession,
    batch: &[SpikeRaster],
    deltas: &[Vec<(usize, usize)>],
) {
    for (input, deltas) in batch.iter().zip(deltas) {
        stream.feed_events(deltas).unwrap();
        stream.advance(input.steps());
        std::hint::black_box(stream.readout());
        stream.reset();
        for t in 0..input.steps() {
            for (c, &x) in input.step(t).iter().enumerate() {
                if x != 0.0 {
                    stream.feed_at(t, c).unwrap();
                }
            }
            stream.advance(1);
        }
        std::hint::black_box(stream.readout());
        stream.reset();
    }
    for _ in 0..SILENT_ADVANCES {
        stream.advance(65536);
    }
    std::hint::black_box(stream.readout());
    stream.reset();
}

/// A resident stream session must stop allocating once warm: silent
/// steps may not grow its recycled channel-list pool, and a warm feed
/// must reuse recycled lists rather than allocate fresh ones.
fn assert_stream_is_allocation_free(engine: &Engine, label: &str) {
    let batch = inputs();
    let deltas: Vec<_> = batch.iter().map(SpikeRaster::delta_events).collect();
    let mut stream = engine.stream_session();
    stream_cycle(&mut stream, &batch, &deltas);
    let before = allocations();
    stream_cycle(&mut stream, &batch, &deltas);
    let after = allocations();
    assert_eq!(after - before, 0, "{label}: stream hot path allocated");
}

#[test]
fn stream_session_hot_path_is_allocation_free() {
    for (backend, label) in [
        (Backend::Sparse, "sparse"),
        (Backend::Dense, "dense"),
        (hardware(DeployConfig::five_bit(), 3), "hardware"),
    ] {
        let engine = Engine::from_network(net()).backend(backend).build();
        assert_stream_is_allocation_free(&engine, label);
    }
}
