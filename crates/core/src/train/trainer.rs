//! Epoch-level training loop: batching, multi-core gradient computation,
//! deterministic reduction, clipping and evaluation.
//!
//! # Parallel mini-batch engine
//!
//! Every mini-batch is split into **fixed-size chunks of [`GRAD_CHUNK`]
//! samples** — a partition that depends only on the batch, never on the
//! thread count. Each worker thread takes a contiguous run of chunks,
//! accumulates each chunk's gradients sample-by-sample into that chunk's
//! own [`Gradients`] (using its own [`ScratchSpace`], so the fan-out is
//! lock-free), and the per-chunk results are combined in place by a
//! pairwise tree reduction **in chunk order**. Floating-point addition is
//! not associative, so this fixed partition + fixed reduction order is
//! what makes epoch gradients — and therefore trained weights — **bitwise
//! identical for any `num_threads`**, including 1.
//!
//! # Buffers kept across batches
//!
//! A [`Trainer`] keeps every worker's scratch and forward records and
//! every chunk's gradients from one batch (and one `epoch_*` call) to
//! the next: each chunk's gradients are zeroed in place before its first
//! sample, and rebuilt only when the network's layer shapes change. So a
//! warm trainer allocates nothing per sample and nothing gradient-sized
//! per batch, and, since a chunk's sum is a pure function of its samples
//! and starts from zero either way, a reused trainer trains the same bits
//! as a fresh one.

use crate::engine::Backend;
use crate::scratch::ScratchSpace;
use crate::train::{
    backward_into, backward_sparse_into, ClassificationLoss, Gradients, Optimizer, PatternLoss,
    SparsityPolicy,
};
use crate::{Forward, Network, SpikeRaster};
use snn_neuron::Surrogate;
use snn_tensor::stats;

/// Samples per gradient chunk: the unit of parallel work distribution.
/// Fixed (never derived from the thread count) so that the reduction
/// tree — and therefore every floating-point sum — is identical no
/// matter how many workers run.
pub const GRAD_CHUNK: usize = 8;

/// Trainer configuration (paper Table I defaults: AdamW, batch 64,
/// lr 1e-4 for classification).
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Samples per gradient step.
    pub batch_size: usize,
    /// Global-norm gradient clip; `None` disables clipping.
    pub grad_clip: Option<f32>,
    /// Surrogate gradient for the spike nonlinearity.
    pub surrogate: Surrogate,
    /// Optimizer (consumed into the trainer's state).
    pub optimizer: Optimizer,
    /// Worker threads for the per-batch gradient fan-out; `0` means one
    /// per available core. Results are bitwise identical for any value.
    pub num_threads: usize,
    /// Error-event pruning policy for the backward pass (see
    /// [`SparsityPolicy`]). The default is [`SparsityPolicy::Auto`]:
    /// loss-scale-relative pruning whose end-task accuracy the
    /// full-scale SHD/N-MNIST policy grid (`bench_train`, committed in
    /// `BENCH_train.json`) confirmed within noise of dense training.
    /// Pass [`SparsityPolicy::Exact`] for gradients bit-identical to
    /// the dense backward pass; every policy keeps epoch gradients
    /// bitwise identical across thread counts.
    pub sparsity: SparsityPolicy,
    /// Route the backward pass through [`backward_into`], ignoring
    /// `sparsity`: no pruning, and the input adjoint `Wᵀ·dv` formed
    /// densely at every step. This is the measurement baseline for the
    /// `bench_train` policy grid. The weight gradient is the same
    /// event-form sum over the input spikes on either path, so only the
    /// input adjoint differs in cost; training results are the same as
    /// `Exact` bit-for-bit.
    pub dense_backward: bool,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            batch_size: 64,
            grad_clip: Some(5.0),
            surrogate: Surrogate::paper_default(),
            optimizer: Optimizer::adamw(1e-4, 0.0),
            num_threads: 0,
            sparsity: SparsityPolicy::Auto,
            dense_backward: false,
        }
    }
}

impl TrainerConfig {
    /// Table I classification settings (AdamW, lr 1e-4, batch 64).
    pub fn classification() -> Self {
        Self::default()
    }

    /// Table I pattern-association settings (AdamW, lr 1e-3, batch 64).
    pub fn pattern_association() -> Self {
        Self {
            optimizer: Optimizer::adamw(1e-3, 0.0),
            ..Self::default()
        }
    }

    /// Returns a copy pinned to an explicit worker-thread count.
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Returns a copy with the given backward-pass sparsity policy.
    pub fn with_sparsity(mut self, sparsity: SparsityPolicy) -> Self {
        self.sparsity = sparsity;
        self
    }

    /// Returns a copy routed through the dense backward kernel (the
    /// policy-grid measurement baseline; see
    /// [`dense_backward`](Self::dense_backward)).
    pub fn with_dense_backward(mut self) -> Self {
        self.dense_backward = true;
        self
    }
}

/// Aggregate statistics for one pass over the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean per-sample loss.
    pub mean_loss: f32,
    /// Classification accuracy (0 for pattern-association epochs, where
    /// accuracy is not defined).
    pub accuracy: f32,
    /// Number of samples seen.
    pub samples: usize,
    /// Fraction of examined backward adjoint entries that survived
    /// pruning, aggregated over every sample's
    /// [`GradRaster`](snn_tensor::GradRaster) diagnostic
    /// (`Σ nnz / Σ candidates`). Reported as `1.0` when the epoch ran
    /// the dense backward kernel (nothing is pruned) and `0.0` for an
    /// empty epoch.
    pub backward_event_density: f32,
}

/// Per-worker reusable buffers (one per thread; never shared — see the
/// [`ScratchSpace`] ownership rules), kept by the [`Trainer`] across
/// batches.
#[derive(Default)]
struct WorkerCtx {
    scratch: ScratchSpace,
    fwd: Forward,
    /// The current sample's output spike counts.
    counts: Vec<f32>,
}

/// One chunk's contribution to a batch, kept by the [`Trainer`] across
/// batches and reset before each.
struct Chunk {
    grads: Gradients,
    loss: f64,
    preds: Vec<(usize, usize)>,
    /// Surviving backward error events (numerator of the epoch's
    /// [`EpochStats::backward_event_density`]).
    events_nnz: u64,
    /// Examined backward adjoint entries (its denominator; 0 for dense
    /// backward passes).
    events_candidates: u64,
}

impl Chunk {
    fn new() -> Self {
        Self {
            grads: Gradients {
                per_layer: Vec::new(),
            },
            loss: 0.0,
            preds: Vec::new(),
            events_nnz: 0,
            events_candidates: 0,
        }
    }

    /// Zeroes every sum for a batch on `net`: the gradients in place, or
    /// rebuilt when the network's layer shapes differ from theirs.
    fn reset(&mut self, net: &Network) {
        let layers = net.layers();
        let fits = self.grads.per_layer.len() == layers.len()
            && self
                .grads
                .per_layer
                .iter()
                .zip(layers)
                .all(|(g, l)| g.shape() == (l.n_out(), l.n_in()));
        if fits {
            self.grads.reset();
        } else {
            self.grads = Gradients::zeros_like(net);
        }
        self.loss = 0.0;
        self.preds.clear();
        self.events_nnz = 0;
        self.events_candidates = 0;
    }
}

/// Drives training of a [`Network`].
///
/// # Examples
///
/// ```
/// use snn_core::train::{Trainer, TrainerConfig};
///
/// let trainer = Trainer::new(TrainerConfig::default());
/// assert_eq!(trainer.config().batch_size, 64);
/// ```
pub struct Trainer {
    config: TrainerConfig,
    optimizer: Optimizer,
    /// Each worker's buffers, kept across batches.
    workers: Vec<WorkerCtx>,
    /// One entry per chunk of the largest batch seen, kept across
    /// batches.
    chunks: Vec<Chunk>,
}

impl std::fmt::Debug for Trainer {
    /// The configuration and optimizer state; the kept buffers are
    /// scratch and are left out.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("config", &self.config)
            .field("optimizer", &self.optimizer)
            .finish_non_exhaustive()
    }
}

impl Trainer {
    /// Creates a trainer, taking ownership of the optimizer state in
    /// `config`.
    pub fn new(config: TrainerConfig) -> Self {
        let optimizer = config.optimizer.clone();
        Self {
            config,
            optimizer,
            workers: Vec::new(),
            chunks: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Mutable access to the optimizer (e.g. for lr schedules).
    pub fn optimizer_mut(&mut self) -> &mut Optimizer {
        &mut self.optimizer
    }

    fn resolved_threads(&self) -> usize {
        match self.config.num_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// One full pass over labelled data with mini-batch updates.
    /// Returns mean loss and training accuracy.
    pub fn epoch_classification<L: ClassificationLoss + Sync>(
        &mut self,
        net: &mut Network,
        data: &[(SpikeRaster, usize)],
        loss: &L,
    ) -> EpochStats {
        let surrogate = self.config.surrogate;
        let sparsity = self.config.sparsity;
        let dense = self.config.dense_backward;
        self.epoch_generic(
            net,
            data,
            &|sample: &(SpikeRaster, usize),
              net: &Network,
              ctx: &mut WorkerCtx,
              grads: &mut Gradients| {
                let (input, target) = sample;
                net.forward_into(input, &mut ctx.fwd, &mut ctx.scratch);
                ctx.fwd.spike_counts_into(&mut ctx.counts);
                let pred = stats::argmax(&ctx.counts).unwrap_or(0);
                let mut d_out = std::mem::take(&mut ctx.scratch.d_loss);
                let l = loss.loss_and_grad_into(ctx.fwd.output(), *target, &mut d_out);
                if dense {
                    backward_into(net, &ctx.fwd, &d_out, surrogate, grads, &mut ctx.scratch);
                } else {
                    backward_sparse_into(
                        net,
                        &ctx.fwd,
                        &d_out,
                        surrogate,
                        sparsity,
                        grads,
                        &mut ctx.scratch,
                    );
                }
                ctx.scratch.d_loss = d_out;
                (l, Some((pred, *target)))
            },
        )
    }

    /// One full pass over pattern-association data (input raster →
    /// target raster). Returns mean loss; accuracy is reported as 0.
    pub fn epoch_pattern<L: PatternLoss + Sync>(
        &mut self,
        net: &mut Network,
        data: &[(SpikeRaster, SpikeRaster)],
        loss: &L,
    ) -> EpochStats {
        let surrogate = self.config.surrogate;
        let sparsity = self.config.sparsity;
        let dense = self.config.dense_backward;
        self.epoch_generic(
            net,
            data,
            &|sample: &(SpikeRaster, SpikeRaster),
              net: &Network,
              ctx: &mut WorkerCtx,
              grads: &mut Gradients| {
                let (input, target) = sample;
                net.forward_into(input, &mut ctx.fwd, &mut ctx.scratch);
                let mut d_out = std::mem::take(&mut ctx.scratch.d_loss);
                let l = loss.loss_and_grad_into(ctx.fwd.output(), target, &mut d_out);
                if dense {
                    backward_into(net, &ctx.fwd, &d_out, surrogate, grads, &mut ctx.scratch);
                } else {
                    backward_sparse_into(
                        net,
                        &ctx.fwd,
                        &d_out,
                        surrogate,
                        sparsity,
                        grads,
                        &mut ctx.scratch,
                    );
                }
                ctx.scratch.d_loss = d_out;
                (l, None)
            },
        )
    }

    /// Shared epoch driver: batches the data, fans each batch's
    /// forward + backward across workers, reduces deterministically,
    /// applies the optimizer.
    fn epoch_generic<S, F>(&mut self, net: &mut Network, data: &[S], per_sample: &F) -> EpochStats
    where
        S: Sync,
        F: Fn(&S, &Network, &mut WorkerCtx, &mut Gradients) -> (f32, Option<(usize, usize)>) + Sync,
    {
        let threads = self.resolved_threads();
        let mut total_loss = 0.0f64;
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(data.len());
        let mut events_nnz = 0u64;
        let mut events_candidates = 0u64;

        let Trainer {
            config,
            optimizer,
            workers,
            chunks,
        } = self;
        for batch in data.chunks(config.batch_size.max(1)) {
            let chunks = run_batch(net, batch, threads, workers, chunks, per_sample);
            for chunk in chunks.iter() {
                total_loss += chunk.loss;
                pairs.extend_from_slice(&chunk.preds);
                events_nnz += chunk.events_nnz;
                events_candidates += chunk.events_candidates;
            }
            tree_reduce(chunks);
            let grads = &mut chunks[0].grads;
            grads.scale(1.0 / batch.len() as f32);
            if let Some(max_norm) = config.grad_clip {
                grads.clip_global_norm(max_norm);
            }
            optimizer.step(net, grads);
        }
        EpochStats {
            mean_loss: if data.is_empty() {
                0.0
            } else {
                (total_loss / data.len() as f64) as f32
            },
            accuracy: stats::accuracy(&pairs),
            samples: data.len(),
            backward_event_density: if events_candidates > 0 {
                (events_nnz as f64 / events_candidates as f64) as f32
            } else if data.is_empty() {
                0.0
            } else {
                // Dense backward: every adjoint entry participated.
                1.0
            },
        }
    }
}

/// Computes every chunk of one non-empty batch into `chunks`, possibly in
/// parallel, and returns the batch's chunks in order.
///
/// Chunk boundaries are multiples of [`GRAD_CHUNK`]; worker `w` owns the
/// `w`-th contiguous run of `⌈chunks / workers⌉` chunks (static — the
/// per-sample cost is uniform, so stealing buys nothing and static
/// ownership keeps every worker's buffers private). Both lists grow to
/// the largest batch seen and are reused from then on; each chunk is
/// reset before its first sample.
fn run_batch<'c, S, F>(
    net: &Network,
    batch: &[S],
    threads: usize,
    workers: &mut Vec<WorkerCtx>,
    chunks: &'c mut Vec<Chunk>,
    per_sample: &F,
) -> &'c mut [Chunk]
where
    S: Sync,
    F: Fn(&S, &Network, &mut WorkerCtx, &mut Gradients) -> (f32, Option<(usize, usize)>) + Sync,
{
    let n_chunks = batch.len().div_ceil(GRAD_CHUNK);
    let per_worker = n_chunks.div_ceil(threads.clamp(1, n_chunks));
    let n_workers = n_chunks.div_ceil(per_worker);
    if workers.len() < n_workers {
        workers.resize_with(n_workers, WorkerCtx::default);
    }
    if chunks.len() < n_chunks {
        chunks.resize_with(n_chunks, Chunk::new);
    }
    let chunks = &mut chunks[..n_chunks];

    // Chunk `first + k` of the batch into `owned[k]`, on `ctx`.
    let run_worker = |ctx: &mut WorkerCtx, first: usize, owned: &mut [Chunk]| {
        for (k, chunk) in owned.iter_mut().enumerate() {
            let lo = (first + k) * GRAD_CHUNK;
            let hi = (lo + GRAD_CHUNK).min(batch.len());
            chunk.reset(net);
            for sample in &batch[lo..hi] {
                let (l, pred) = per_sample(sample, net, ctx, &mut chunk.grads);
                chunk.loss += l as f64;
                chunk.preds.extend(pred);
                // Both backward kernels reset the event raster, so this
                // reads exactly this sample's pruning diagnostic (empty
                // after a dense pass).
                let events = ctx.scratch.backward_events();
                chunk.events_nnz += events.nnz() as u64;
                chunk.events_candidates += events.candidates() as u64;
            }
        }
    };

    if n_workers == 1 {
        run_worker(&mut workers[0], 0, chunks);
    } else {
        std::thread::scope(|scope| {
            let run_worker = &run_worker;
            let handles: Vec<_> = chunks
                .chunks_mut(per_worker)
                .zip(workers.iter_mut())
                .enumerate()
                .map(|(w, (owned, ctx))| {
                    scope.spawn(move || run_worker(ctx, w * per_worker, owned))
                })
                .collect();
            for handle in handles {
                handle.join().expect("trainer worker panicked");
            }
        });
    }
    chunks
}

/// Pairwise tree reduction into `chunks[0]`, in chunk order: combines
/// `(0,1)`, `(2,3)`, … then the pairs' sums, so the summation tree
/// depends only on the chunk count.
fn tree_reduce(chunks: &mut [Chunk]) {
    let mut stride = 1;
    while stride < chunks.len() {
        for i in (0..chunks.len() - stride).step_by(2 * stride) {
            let (left, right) = chunks.split_at_mut(i + stride);
            left[i].grads.accumulate(&right[0].grads);
        }
        stride *= 2;
    }
}

/// Evaluates classification accuracy on held-out data (no updates),
/// fanning samples across one thread per available core.
///
/// Runs the engine's batched evaluation over the borrowed network — the
/// workspace has exactly one evaluation code path, shared with
/// [`Engine::evaluate`](crate::engine::Engine::evaluate).
pub fn evaluate_classification(net: &Network, data: &[(SpikeRaster, usize)]) -> f32 {
    crate::engine::evaluate(net, Backend::Sparse, data, 0)
}

/// [`evaluate_classification`] with an explicit thread count (results do
/// not depend on it; evaluation is read-only and order-preserving).
pub fn evaluate_classification_with_threads(
    net: &Network,
    data: &[(SpikeRaster, usize)],
    threads: usize,
) -> f32 {
    crate::engine::evaluate(net, Backend::Sparse, data, threads.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{RateCrossEntropy, VanRossumLoss};
    use crate::NeuronKind;
    use snn_neuron::NeuronParams;
    use snn_tensor::Rng;

    /// Two spatial patterns, trivially separable by rate.
    fn toy_rate_data() -> Vec<(SpikeRaster, usize)> {
        let t = 12;
        let mut a = SpikeRaster::zeros(t, 4);
        let mut b = SpikeRaster::zeros(t, 4);
        for step in 0..t {
            if step % 2 == 0 {
                a.set(step, 0, true);
                a.set(step, 1, true);
                b.set(step, 2, true);
                b.set(step, 3, true);
            }
        }
        vec![(a, 0), (b, 1)]
    }

    /// Two patterns with identical per-channel rates but different
    /// *timing order* — solvable only with temporal information.
    fn toy_temporal_data() -> Vec<(SpikeRaster, usize)> {
        let t = 20;
        let mut a = SpikeRaster::zeros(t, 2);
        let mut b = SpikeRaster::zeros(t, 2);
        // A: channel 0 early, channel 1 late. B: the reverse.
        for s in 0..4 {
            a.set(s, 0, true);
            a.set(t - 1 - s, 1, true);
            b.set(s, 1, true);
            b.set(t - 1 - s, 0, true);
        }
        vec![(a, 0), (b, 1)]
    }

    #[test]
    fn learns_rate_separable_task() {
        let mut rng = Rng::seed_from(21);
        let mut net = Network::mlp(
            &[4, 12, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.5),
            &mut rng,
        );
        let data = toy_rate_data();
        let mut trainer = Trainer::new(TrainerConfig {
            batch_size: 2,
            optimizer: Optimizer::adam(0.01),
            ..TrainerConfig::default()
        });
        let first = trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
        let mut last = first;
        for _ in 0..60 {
            last = trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
        }
        assert!(
            last.mean_loss < first.mean_loss,
            "loss should fall: {} -> {}",
            first.mean_loss,
            last.mean_loss
        );
        assert_eq!(evaluate_classification(&net, &data), 1.0);
    }

    #[test]
    fn adaptive_model_learns_timing_only_task() {
        // The headline capability: patterns indistinguishable by rate.
        let mut rng = Rng::seed_from(33);
        let mut net = Network::mlp(
            &[2, 24, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.3),
            &mut rng,
        );
        let data = toy_temporal_data();
        let mut trainer = Trainer::new(TrainerConfig {
            batch_size: 2,
            optimizer: Optimizer::adam(0.02),
            ..TrainerConfig::default()
        });
        for _ in 0..500 {
            trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
        }
        assert_eq!(
            evaluate_classification(&net, &data),
            1.0,
            "adaptive-threshold model must separate timing-only classes"
        );
    }

    #[test]
    fn pattern_association_reduces_van_rossum_loss() {
        let mut rng = Rng::seed_from(55);
        let mut net = Network::mlp(
            &[3, 32, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.3),
            &mut rng,
        );
        let t = 30;
        let mut input = SpikeRaster::zeros(t, 3);
        for s in (0..t).step_by(3) {
            input.set(s, s % 3, true);
        }
        let target = SpikeRaster::from_events(t, 2, &[(5, 0), (12, 0), (20, 1), (25, 1)]);
        let data = vec![(input, target)];
        let mut trainer = Trainer::new(TrainerConfig {
            batch_size: 1,
            optimizer: Optimizer::adam(0.05),
            ..TrainerConfig::default()
        });
        let loss = VanRossumLoss::paper_default();
        let first = trainer.epoch_pattern(&mut net, &data, &loss);
        let mut last = first;
        for _ in 0..500 {
            last = trainer.epoch_pattern(&mut net, &data, &loss);
        }
        assert!(
            last.mean_loss < first.mean_loss * 0.8,
            "association loss should drop substantially: {} -> {}",
            first.mean_loss,
            last.mean_loss
        );
    }

    #[test]
    fn empty_dataset_is_harmless() {
        let mut rng = Rng::seed_from(1);
        let mut net = Network::mlp(
            &[2, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let mut trainer = Trainer::new(TrainerConfig::default());
        let stats = trainer.epoch_classification(&mut net, &[], &RateCrossEntropy);
        assert_eq!(stats.samples, 0);
        assert_eq!(stats.mean_loss, 0.0);
    }

    #[test]
    fn batch_boundaries_do_not_crash_with_remainder() {
        let mut rng = Rng::seed_from(1);
        let mut net = Network::mlp(
            &[4, 4, 2],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        let data: Vec<_> = (0..5)
            .map(|i| (toy_rate_data()[i % 2].0.clone(), i % 2))
            .collect();
        let mut trainer = Trainer::new(TrainerConfig {
            batch_size: 2, // 5 samples → 2+2+1
            ..TrainerConfig::default()
        });
        let stats = trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
        assert_eq!(stats.samples, 5);
    }

    #[test]
    fn table1_configs() {
        assert_eq!(
            TrainerConfig::classification().optimizer.learning_rate(),
            1e-4
        );
        assert_eq!(
            TrainerConfig::pattern_association()
                .optimizer
                .learning_rate(),
            1e-3
        );
        assert_eq!(TrainerConfig::classification().batch_size, 64);
    }

    /// A batch spanning several chunks with varied per-channel activity,
    /// so the parallel fan-out genuinely exercises multiple workers.
    fn chunky_data(samples: usize) -> Vec<(SpikeRaster, usize)> {
        let mut rng = Rng::seed_from(77);
        (0..samples)
            .map(|i| {
                let mut r = SpikeRaster::zeros(15, 6);
                for t in 0..15 {
                    for c in 0..6 {
                        if rng.coin(if i % 2 == 0 { 0.15 } else { 0.05 }) {
                            r.set(t, c, true);
                        }
                    }
                }
                (r, i % 3)
            })
            .collect()
    }

    #[test]
    fn epoch_is_bitwise_identical_for_any_thread_count() {
        let data = chunky_data(40);
        let mut weights_by_threads = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut rng = Rng::seed_from(9);
            let mut net = Network::mlp(
                &[6, 16, 3],
                NeuronKind::Adaptive,
                NeuronParams::paper_defaults().with_v_th(0.4),
                &mut rng,
            );
            let mut trainer = Trainer::new(
                TrainerConfig {
                    batch_size: 20,
                    optimizer: Optimizer::adam(0.01),
                    ..TrainerConfig::default()
                }
                .with_threads(threads),
            );
            let mut stats_log = Vec::new();
            for _ in 0..3 {
                stats_log.push(trainer.epoch_classification(&mut net, &data, &RateCrossEntropy));
            }
            let weights: Vec<Vec<f32>> = net
                .layers()
                .iter()
                .map(|l| l.weights().as_slice().to_vec())
                .collect();
            weights_by_threads.push((threads, weights, stats_log));
        }
        let (_, ref_weights, ref_stats) = &weights_by_threads[0];
        for (threads, weights, stats_log) in &weights_by_threads[1..] {
            assert_eq!(
                weights, ref_weights,
                "weights diverged between 1 and {threads} threads"
            );
            for (a, b) in stats_log.iter().zip(ref_stats) {
                assert_eq!(
                    a.accuracy, b.accuracy,
                    "accuracy diverged at {threads} threads"
                );
                assert_eq!(a.samples, b.samples);
            }
        }
    }

    fn weights(net: &Network) -> Vec<Vec<u32>> {
        net.layers()
            .iter()
            .map(|l| l.weights().as_slice().iter().map(|w| w.to_bits()).collect())
            .collect()
    }

    #[test]
    fn a_reused_trainer_trains_the_bits_of_a_fresh_one() {
        // One trainer kept across epochs, a batch remainder (45 samples
        // in batches of 20: chunks 3, 3 and 1), a call with fewer chunks
        // than it holds, and networks of two shapes, against a fresh
        // trainer for every call. Plain SGD keeps no optimizer state, so
        // the two may differ only through the buffers the trainer keeps.
        let data = chunky_data(45);
        let mut results = Vec::new();
        for threads in [1usize, 2, 4] {
            let config = TrainerConfig {
                batch_size: 20,
                optimizer: Optimizer::sgd(0.05),
                ..TrainerConfig::default()
            }
            .with_threads(threads);
            let init = |sizes: &[usize], seed| {
                let mut rng = Rng::seed_from(seed);
                let params = NeuronParams::paper_defaults().with_v_th(0.4);
                Network::mlp(sizes, NeuronKind::Adaptive, params, &mut rng)
            };
            let (mut a_reused, mut b_reused) = (init(&[6, 16, 3], 9), init(&[6, 11, 7, 3], 10));
            let (mut a_fresh, mut b_fresh) = (a_reused.clone(), b_reused.clone());
            let mut reused = Trainer::new(config.clone());
            let calls: [(bool, &[(SpikeRaster, usize)]); 5] = [
                (true, &data),
                (true, &data),
                (false, &data),
                (true, &data[..7]),
                (false, &data[3..]),
            ];
            for (k, (on_a, part)) in calls.into_iter().enumerate() {
                let (net_reused, net_fresh) = if on_a {
                    (&mut a_reused, &mut a_fresh)
                } else {
                    (&mut b_reused, &mut b_fresh)
                };
                let got = reused.epoch_classification(net_reused, part, &RateCrossEntropy);
                let want = Trainer::new(config.clone()).epoch_classification(
                    net_fresh,
                    part,
                    &RateCrossEntropy,
                );
                assert_eq!(got, want, "stats of call {k} at {threads} threads");
                assert_eq!(
                    weights(net_reused),
                    weights(net_fresh),
                    "weights after call {k} at {threads} threads"
                );
            }
            results.push((weights(&a_reused), weights(&b_reused)));
        }
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "trained weights differ between 1, 2 and 4 threads"
        );
    }

    #[test]
    fn tree_reduce_sums_pairs_in_chunk_order() {
        // Against the pairwise reduction over a list: (0,1), (2,3), …
        // then the sums of the pairs, for every chunk count up to 9.
        let mut rng = Rng::seed_from(5);
        let net = Network::mlp(
            &[3, 5],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults(),
            &mut rng,
        );
        for n in 1..=9 {
            let mut chunks: Vec<Chunk> = (0..n)
                .map(|_| {
                    let mut chunk = Chunk::new();
                    chunk.reset(&net);
                    for g in chunk.grads.per_layer[0].as_mut_slice() {
                        *g = rng.uniform(-1.0, 1.0) * 10f32.powi(rng.below(9) as i32 - 4);
                    }
                    chunk
                })
                .collect();
            let mut level: Vec<Vec<f32>> = chunks
                .iter()
                .map(|c| c.grads.per_layer[0].as_slice().to_vec())
                .collect();
            while level.len() > 1 {
                level = level
                    .chunks(2)
                    .map(|pair| match pair {
                        [a, b] => a.iter().zip(b).map(|(x, y)| x + y).collect(),
                        [a] => a.clone(),
                        _ => unreachable!(),
                    })
                    .collect();
            }
            tree_reduce(&mut chunks);
            let got: Vec<u32> = chunks[0].grads.per_layer[0]
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let want: Vec<u32> = level[0].iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{n} chunks");
        }
    }

    #[test]
    fn eval_thread_count_does_not_change_accuracy() {
        let data = chunky_data(30);
        let mut rng = Rng::seed_from(4);
        let net = Network::mlp(
            &[6, 10, 3],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        );
        let base = evaluate_classification_with_threads(&net, &data, 1);
        for threads in [2, 3, 8] {
            assert_eq!(
                base,
                evaluate_classification_with_threads(&net, &data, threads)
            );
        }
    }

    #[test]
    fn with_threads_builder() {
        let cfg = TrainerConfig::classification().with_threads(3);
        assert_eq!(cfg.num_threads, 3);
    }

    #[test]
    fn default_sparsity_is_auto() {
        // Pinned by the full-scale policy grid (BENCH_train.json): Auto
        // matched the dense baseline within noise on paper-scale SHD
        // (both pair modes) and N-MNIST, closing the ROADMAP gate.
        assert_eq!(TrainerConfig::default().sparsity, SparsityPolicy::Auto);
        assert!(!TrainerConfig::default().dense_backward);
    }

    #[test]
    fn default_config_trains_identically_to_explicit_auto() {
        let data = chunky_data(24);
        let run = |cfg: TrainerConfig| {
            let mut rng = Rng::seed_from(12);
            let mut net = Network::mlp(
                &[6, 12, 3],
                NeuronKind::Adaptive,
                NeuronParams::paper_defaults().with_v_th(0.4),
                &mut rng,
            );
            let mut trainer = Trainer::new(cfg);
            for _ in 0..2 {
                trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
            }
            net.layers()
                .iter()
                .map(|l| l.weights().as_slice().to_vec())
                .collect::<Vec<_>>()
        };
        let defaulted = run(TrainerConfig {
            batch_size: 8,
            optimizer: Optimizer::adam(0.01),
            ..TrainerConfig::default()
        });
        let explicit = run(TrainerConfig {
            batch_size: 8,
            optimizer: Optimizer::adam(0.01),
            ..TrainerConfig::default()
        }
        .with_sparsity(SparsityPolicy::Auto));
        assert_eq!(defaulted, explicit);
    }

    #[test]
    fn dense_backward_baseline_matches_exact_bitwise() {
        let data = chunky_data(24);
        let run = |cfg: TrainerConfig| {
            let mut rng = Rng::seed_from(13);
            let mut net = Network::mlp(
                &[6, 12, 3],
                NeuronKind::Adaptive,
                NeuronParams::paper_defaults().with_v_th(0.4),
                &mut rng,
            );
            let mut trainer = Trainer::new(cfg);
            let mut last = None;
            for _ in 0..2 {
                last = Some(trainer.epoch_classification(&mut net, &data, &RateCrossEntropy));
            }
            let weights: Vec<Vec<f32>> = net
                .layers()
                .iter()
                .map(|l| l.weights().as_slice().to_vec())
                .collect();
            (weights, last.unwrap())
        };
        let base = TrainerConfig {
            batch_size: 8,
            optimizer: Optimizer::adam(0.01),
            ..TrainerConfig::default()
        };
        let (dense_w, dense_stats) = run(base.clone().with_dense_backward());
        let (exact_w, exact_stats) = run(base.with_sparsity(SparsityPolicy::Exact));
        assert_eq!(dense_w, exact_w);
        assert_eq!(dense_stats.mean_loss, exact_stats.mean_loss);
        // The dense pass prunes nothing: density reports 1. Exact
        // reports the genuine nonzero fraction, which is below 1 on
        // this data (the surrogate tail underflows to exact zeros).
        assert_eq!(dense_stats.backward_event_density, 1.0);
        assert!(exact_stats.backward_event_density > 0.0);
        assert!(exact_stats.backward_event_density <= 1.0);
    }

    #[test]
    fn auto_policy_reports_sparse_backward_density() {
        let data = chunky_data(24);
        let mut rng = Rng::seed_from(14);
        let mut net = Network::mlp(
            &[6, 12, 3],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        );
        let mut trainer = Trainer::new(TrainerConfig {
            batch_size: 8,
            optimizer: Optimizer::adam(0.01),
            ..TrainerConfig::default()
        });
        let stats = trainer.epoch_classification(&mut net, &data, &RateCrossEntropy);
        assert!(
            stats.backward_event_density > 0.0 && stats.backward_event_density < 1.0,
            "auto pruning should drop part of the adjoint: {}",
            stats.backward_event_density
        );
    }
}
