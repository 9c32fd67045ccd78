//! Pins the trainer's allocation behaviour once warm: a single-worker
//! [`Trainer`] kept across calls allocates nothing per sample and
//! nothing gradient-sized per batch (its workers' scratch, forward
//! records and per-chunk gradients persist across batches).
//!
//! A counting global allocator tracks allocations **on the current
//! thread only**; with one worker the trainer runs every sample on the
//! calling thread. This file is its own integration-test binary, so the
//! allocator override cannot leak into other suites.

use snn_core::train::{RateCrossEntropy, SparsityPolicy, Trainer, TrainerConfig};
use snn_core::{Network, NeuronKind, SpikeRaster};
use snn_neuron::NeuronParams;
use snn_tensor::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count(size: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    LARGEST.with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations and the largest allocation on this thread while `f` ran.
fn measure(f: impl FnOnce()) -> (u64, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    LARGEST.with(|c| c.set(0));
    f();
    (
        ALLOCATIONS.with(Cell::get) - before,
        LARGEST.with(Cell::get),
    )
}

fn data(samples: usize) -> Vec<(SpikeRaster, usize)> {
    let mut rng = Rng::seed_from(6);
    (0..samples)
        .map(|i| {
            let mut r = SpikeRaster::zeros(30, 48);
            for t in 0..30 {
                for c in 0..48 {
                    if rng.coin(0.12) {
                        r.set(t, c, true);
                    }
                }
            }
            (r, i % 4)
        })
        .collect()
}

#[test]
fn warm_single_worker_trainer_allocates_nothing_per_sample() {
    let mut rng = Rng::seed_from(5);
    let mut net = Network::mlp(
        &[48, 64, 4],
        NeuronKind::Adaptive,
        NeuronParams::paper_defaults().with_v_th(0.4),
        &mut rng,
    );
    // Layer 0's weight gradient, 64 × 48 floats: no allocation of a warm
    // epoch may be this large (its one allocation, the prediction list,
    // is 16 bytes per sample).
    let gradient_bytes = 64 * 48 * std::mem::size_of::<f32>();
    let data = data(96);
    for sparsity in [SparsityPolicy::Auto, SparsityPolicy::Exact] {
        let mut trainer = Trainer::new(
            TrainerConfig {
                batch_size: 24,
                ..TrainerConfig::classification()
            }
            .with_threads(1)
            .with_sparsity(sparsity),
        );
        // Warm-up: every buffer grows to its final size.
        for _ in 0..2 {
            trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
        }
        // 4 batches of 24 samples, then 8 batches of 24: one epoch call
        // allocates its prediction list and nothing per batch or sample.
        let (short, short_largest) = measure(|| {
            trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
        });
        let twice: Vec<_> = data.iter().chain(&data).cloned().collect();
        let (long, long_largest) = measure(|| {
            trainer.epoch_classification(&mut net, &twice, &RateCrossEntropy);
        });
        assert!(
            short <= 1 && long <= 1,
            "{sparsity:?}: a warm epoch allocated {short} times over 96 samples and \
             {long} times over 192"
        );
        assert!(
            short_largest.max(long_largest) < gradient_bytes,
            "{sparsity:?}: a warm epoch made a {}-byte allocation",
            short_largest.max(long_largest)
        );
    }
}
