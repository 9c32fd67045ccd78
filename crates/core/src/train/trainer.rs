//! Epoch-level training loop: batching, multi-core gradient computation,
//! deterministic reduction, clipping and evaluation.
//!
//! # Parallel mini-batch engine
//!
//! Every mini-batch is split into **fixed-size chunks of [`GRAD_CHUNK`]
//! samples** — a partition that depends only on the batch, never on the
//! thread count. Worker threads claim chunks round-robin, accumulate each
//! chunk's gradients sample-by-sample into a private [`Gradients`] (using
//! a private [`ScratchSpace`], so the fan-out is lock-free), and the
//! per-chunk results are combined by a pairwise tree reduction **in chunk
//! order**. Floating-point addition is not associative, so this fixed
//! partition + fixed reduction order is what makes epoch gradients — and
//! therefore trained weights — **bitwise identical for any
//! `num_threads`**, including 1.

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
    /// Route the backward pass through the dense [`backward_into`]
    /// kernel, ignoring `sparsity`. This is the measurement baseline
    /// for the `bench_train` policy grid (wall-clock comparisons need
    /// the genuinely dense pass, not `Exact`'s indexed equivalent);
    /// training results are the same as `Exact` bit-for-bit.
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
/// [`ScratchSpace`] ownership rules).
#[derive(Default)]
struct WorkerCtx {
    scratch: ScratchSpace,
    fwd: Forward,
}

impl WorkerCtx {
    fn new() -> Self {
        Self {
            scratch: ScratchSpace::new(),
            fwd: Forward::empty(),
        }
    }
}

/// One chunk's contribution, tagged with its position in the batch.
struct ChunkOutcome {
    index: usize,
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
#[derive(Debug)]
pub struct Trainer {
    config: TrainerConfig,
    optimizer: Optimizer,
}

impl Trainer {
    /// Creates a trainer, taking ownership of the optimizer state in
    /// `config`.
    pub fn new(config: TrainerConfig) -> Self {
        let optimizer = config.optimizer.clone();
        Self { config, optimizer }
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
                let counts = ctx.fwd.spike_counts();
                let pred = stats::argmax(&counts).unwrap_or(0);
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

        for batch in data.chunks(self.config.batch_size.max(1)) {
            let outcomes = run_batch(net, batch, threads, per_sample);
            let mut chunk_grads = Vec::with_capacity(outcomes.len());
            for outcome in outcomes {
                total_loss += outcome.loss;
                pairs.extend(outcome.preds);
                events_nnz += outcome.events_nnz;
                events_candidates += outcome.events_candidates;
                chunk_grads.push(outcome.grads);
            }
            let batch_grads = tree_reduce(chunk_grads).expect("non-empty batch");
            self.apply(net, batch_grads, batch.len());
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

    fn apply(&mut self, net: &mut Network, mut batch: Gradients, count: usize) {
        batch.scale(1.0 / count as f32);
        if let Some(max_norm) = self.config.grad_clip {
            batch.clip_global_norm(max_norm);
        }
        self.optimizer.step(net, &batch);
    }
}

/// Computes every chunk of one batch, possibly in parallel.
///
/// Chunk boundaries are multiples of [`GRAD_CHUNK`]; worker `w` owns
/// chunks `w, w + workers, w + 2·workers, …` (static round-robin — the
/// per-sample cost is uniform, so stealing buys nothing and static
/// ownership keeps every worker's buffers private). Each worker reuses
/// one `WorkerCtx` across all its samples. Outcomes are returned sorted
/// by chunk index.
fn run_batch<S, F>(net: &Network, batch: &[S], threads: usize, per_sample: &F) -> Vec<ChunkOutcome>
where
    S: Sync,
    F: Fn(&S, &Network, &mut WorkerCtx, &mut Gradients) -> (f32, Option<(usize, usize)>) + Sync,
{
    let n_chunks = batch.len().div_ceil(GRAD_CHUNK).max(1);
    let workers = threads.clamp(1, n_chunks);

    let run_worker = |w: usize| -> Vec<ChunkOutcome> {
        let mut ctx = WorkerCtx::new();
        let mut out = Vec::new();
        let mut chunk = w;
        while chunk * GRAD_CHUNK < batch.len() {
            let lo = chunk * GRAD_CHUNK;
            let hi = (lo + GRAD_CHUNK).min(batch.len());
            // One Gradients per chunk is deliberate: each chunk's sum
            // must be an independent object so the tree reduction is a
            // pure function of chunk order. The allocation is per-chunk
            // (amortized over GRAD_CHUNK samples' forward+BPTT, which
            // dwarf it) — the zero-alloc guarantee is per-sample.
            let mut grads = Gradients::zeros_like(net);
            let mut loss = 0.0f64;
            let mut preds = Vec::new();
            let mut events_nnz = 0u64;
            let mut events_candidates = 0u64;
            for sample in &batch[lo..hi] {
                let (l, pred) = per_sample(sample, net, &mut ctx, &mut grads);
                loss += l as f64;
                preds.extend(pred);
                // Both backward kernels reset the event raster, so this
                // reads exactly this sample's pruning diagnostic (empty
                // after a dense pass).
                let events = ctx.scratch.backward_events();
                events_nnz += events.nnz() as u64;
                events_candidates += events.candidates() as u64;
            }
            out.push(ChunkOutcome {
                index: chunk,
                grads,
                loss,
                preds,
                events_nnz,
                events_candidates,
            });
            chunk += workers;
        }
        out
    };

    let mut outcomes = if workers == 1 || batch.is_empty() {
        run_worker(0)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || run_worker(w)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("trainer worker panicked"))
                .collect()
        })
    };
    outcomes.sort_by_key(|o| o.index);
    outcomes
}

/// Pairwise tree reduction in slice order: combines `(0,1)`, `(2,3)`, …
/// then recurses, so the summation tree depends only on the chunk count.
fn tree_reduce(mut grads: Vec<Gradients>) -> Option<Gradients> {
    if grads.is_empty() {
        return None;
    }
    while grads.len() > 1 {
        let mut next = Vec::with_capacity(grads.len().div_ceil(2));
        let mut iter = grads.into_iter();
        while let Some(mut a) = iter.next() {
            if let Some(b) = iter.next() {
                a.accumulate(&b);
            }
            next.push(a);
        }
        grads = next;
    }
    grads.pop()
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
