//! `train_shd`: the paper's training algorithm, `Trainer::epoch_classification`
//! with the `TrainerConfig::classification()` defaults (AdamW, batch 64,
//! `SparsityPolicy::Auto`, one worker per core), over the training split.
//!
//! Each epoch is driven one batch per `epoch_classification` call. The
//! trainer walks its data in batch order with no shuffling, so this runs
//! the same code and produces the same weights as one call over the
//! whole split, and lets the benchmark time every optimizer step.

use super::{end_to_end, lap, layer_activity, pass_order, Measured, Phase};
use crate::measure::{mean, overhead_pct, trace_steal, unattributed_pct};
use crate::setting::{self, record_kb_per_step, Setting};
use crate::{secs, timed_setups, work, Args, RunResult, SETUP_REPS};
use snn_core::engine::Engine;
use snn_core::train::{
    backward_sparse_into, ClassificationLoss, Gradients, Optimizer, RateCrossEntropy, Trainer,
    TrainerConfig,
};
use snn_core::{Forward, Network, ScratchSpace, SpikeRaster};
use snn_json::Json;
use snn_tensor::Matrix;
use std::time::Instant;

/// Epochs per second of `--seconds` (sizing only; see [`work`]).
const NOMINAL_EPOCHS_PER_S: f64 = 0.12;
/// Batches per phase of the traced run.
const TRACE_BATCHES: usize = 8;

type Samples = [(SpikeRaster, usize)];

/// Builds the setting and warms the trainer with one step on a copy of
/// the network. Returns the set-up and its seconds.
fn setup(seed: u64) -> (Setting, f64) {
    let start = Instant::now();
    let s = setting::build(seed);
    let config = TrainerConfig::classification();
    let mut warm = s.net.clone();
    Trainer::new(config.clone()).epoch_classification(
        &mut warm,
        &s.train[..config.batch_size.min(s.train.len())],
        &RateCrossEntropy,
    );
    (s, secs(start))
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    if args.trace {
        return traced(args);
    }
    let (setup_s, s) = timed_setups(SETUP_REPS, || Ok::<_, String>(setup(args.seed)))?;
    let Setting {
        train,
        test,
        mut net,
        ..
    } = s;
    let mut result = RunResult::default();
    let epochs = work(args.seconds, NOMINAL_EPOCHS_PER_S, 1);
    let batch = TrainerConfig::classification().batch_size;
    let mut trainer = Trainer::new(TrainerConfig::classification());
    let mut epoch_loss = Vec::with_capacity(epochs);
    let (phase, steal) = trace_steal(|| {
        let mut phase = Phase {
            start: Instant::now(),
            done: Vec::new(),
            latency_ms: Vec::new(),
        };
        for _ in 0..epochs {
            let mut loss = 0.0f64;
            for chunk in train.chunks(batch) {
                let t = Instant::now();
                let stats = trainer.epoch_classification(&mut net, chunk, &RateCrossEntropy);
                phase.latency_ms.push(secs(t) * 1e3);
                phase.done.push((secs(phase.start), chunk.len()));
                result
                    .tally
                    .outcome(stats.mean_loss.is_finite() && stats.samples == chunk.len());
                loss += stats.mean_loss as f64 * chunk.len() as f64;
            }
            epoch_loss.push(loss / train.len() as f64);
        }
        phase
    });

    // Simulated energy of the trained network on held-out samples.
    let (inputs, labels): (Vec<_>, Vec<_>) = test.into_iter().unzip();
    let engine = Engine::from_network(net).build();
    let reference = setting::reference(&engine, &inputs, &labels);
    end_to_end(
        &mut result,
        Measured {
            setup_s: &setup_s,
            phase: &phase,
            steal: &steal,
            latency_of: "one 64-sample training step",
            loss: mean(&epoch_loss),
            activity: &reference.activity,
        },
    );
    result.note(
        "train",
        Json::obj(vec![
            ("epochs", Json::Num(epochs as f64)),
            ("train_samples", Json::Num(train.len() as f64)),
            ("threads", Json::Num(crate::cores() as f64)),
            (
                "epoch_loss",
                Json::Arr(epoch_loss.iter().map(|&l| Json::Num(l)).collect()),
            ),
        ]),
    );
    Ok(result)
}

/// The trainer's loop rebuilt from its public parts on one thread:
/// `Network::forward_into`, `RateCrossEntropy::loss_and_grad_into`,
/// `backward_sparse_into` under the trainer's policy, and
/// `Optimizer::step` once per batch. A timed replica has the benchmark's
/// timer around each call; a plain one runs the same calls without.
struct Replica<'c> {
    config: &'c TrainerConfig,
    timed: bool,
    net: Network,
    optimizer: Optimizer,
    grads: Gradients,
    fwd: Forward,
    scratch: ScratchSpace,
    d_out: Matrix,
    forward_s: f64,
    loss_s: f64,
    backward_s: f64,
    optimizer_s: f64,
    wall_s: f64,
    batches: usize,
    loss: f64,
    /// Backward adjoint entries kept and examined.
    kept: u64,
    examined: u64,
}

impl<'c> Replica<'c> {
    fn new(net: Network, config: &'c TrainerConfig, timed: bool) -> Self {
        Self {
            config,
            timed,
            optimizer: config.optimizer.clone(),
            grads: Gradients::zeros_like(&net),
            net,
            fwd: Forward::empty(),
            scratch: ScratchSpace::new(),
            d_out: Matrix::zeros(0, 0),
            forward_s: 0.0,
            loss_s: 0.0,
            backward_s: 0.0,
            optimizer_s: 0.0,
            wall_s: 0.0,
            batches: 0,
            loss: 0.0,
            kept: 0,
            examined: 0,
        }
    }

    /// One optimizer step over `batch`.
    fn step(&mut self, batch: &Samples) {
        let start = Instant::now();
        let timed = self.timed;
        self.grads.reset();
        for (input, label) in batch {
            lap(timed, &mut self.forward_s, || {
                self.net
                    .forward_into(input, &mut self.fwd, &mut self.scratch)
            });
            let loss = lap(timed, &mut self.loss_s, || {
                RateCrossEntropy.loss_and_grad_into(self.fwd.output(), *label, &mut self.d_out)
            });
            self.loss += loss as f64;
            lap(timed, &mut self.backward_s, || {
                backward_sparse_into(
                    &self.net,
                    &self.fwd,
                    &self.d_out,
                    self.config.surrogate,
                    self.config.sparsity,
                    &mut self.grads,
                    &mut self.scratch,
                )
            });
            let events = self.scratch.backward_events();
            self.kept += events.nnz() as u64;
            self.examined += events.candidates() as u64;
        }
        self.grads.scale(1.0 / batch.len() as f32);
        if let Some(max_norm) = self.config.grad_clip {
            self.grads.clip_global_norm(max_norm);
        }
        lap(timed, &mut self.optimizer_s, || {
            self.optimizer.step(&mut self.net, &self.grads)
        });
        self.batches += 1;
        self.wall_s += secs(start);
    }
}

/// The traced run over [`TRACE_BATCHES`] batches, interleaved batch by
/// batch so that every phase sees the same host: the trainer at one
/// worker per core and at one worker, then the timed and the plain
/// replica, each training its own copy of the initial weights. Layer
/// activity is that of the initial network on the same samples.
fn traced(args: &Args) -> Result<RunResult, String> {
    let (s, _) = setup(args.seed);
    let Setting {
        train,
        net,
        generate_ms,
        ..
    } = s;
    let mut result = RunResult::default();
    let config = TrainerConfig::classification();
    let train = &train[..(TRACE_BATCHES * config.batch_size).min(train.len())];
    let n = train.len() as f64;
    let (inputs, labels): (Vec<_>, Vec<_>) = train.iter().cloned().unzip();
    let initial = setting::reference(&Engine::from_network(net.clone()).build(), &inputs, &labels);

    let mut all = (net.clone(), Trainer::new(config.clone()));
    let mut one = (net.clone(), Trainer::new(config.clone().with_threads(1)));
    let mut replicas = [
        Replica::new(net.clone(), &config, false),
        Replica::new(net, &config, true),
    ];
    let (mut secs_all, mut secs_one) = (0.0, 0.0);
    for (b, batch) in train.chunks(config.batch_size).enumerate() {
        let t = Instant::now();
        let stats_all = all
            .1
            .epoch_classification(&mut all.0, batch, &RateCrossEntropy);
        secs_all += secs(t);
        let t = Instant::now();
        let stats_one = one
            .1
            .epoch_classification(&mut one.0, batch, &RateCrossEntropy);
        secs_one += secs(t);
        // Training is bitwise identical for any worker count.
        result.tally.outcome(
            stats_all.mean_loss.is_finite()
                && stats_all.mean_loss.to_bits() == stats_one.mean_loss.to_bits(),
        );
        for timed in pass_order(b) {
            replicas[usize::from(timed)].step(batch);
        }
    }
    let [plain, replica] = &replicas;
    // Both replicas run the same arithmetic, so they agree exactly.
    result
        .tally
        .outcome(replica.loss.is_finite() && replica.loss.to_bits() == plain.loss.to_bits());

    let per_sample_us = |s: f64| 1e6 * s / n;
    let epoch_us = per_sample_us(secs_one);
    let attributed = [
        per_sample_us(replica.forward_s),
        per_sample_us(replica.loss_s),
        per_sample_us(replica.backward_s),
        per_sample_us(replica.optimizer_s),
    ];
    result.set("data.generate_ms", generate_ms);
    result.set("core.network.forward_us", attributed[0]);
    result.set(
        "core.network.record_kb",
        record_kb_per_step(&replica.fwd, train[0].0.steps()),
    );
    result.set("core.train.loss_us", attributed[1]);
    result.set("core.train.backward_us", attributed[2]);
    result.set(
        "core.train.backward_density",
        replica.kept as f64 / replica.examined as f64,
    );
    result.set(
        "core.train.optimizer_us",
        1e6 * replica.optimizer_s / replica.batches as f64,
    );
    result.set("core.train.thread_scaling", secs_one / secs_all);
    layer_activity(&mut result, &initial.activity);
    result.set(
        "bench.unattributed_pct",
        unattributed_pct(epoch_us, &attributed),
    );
    result.set(
        "bench.trace_overhead_pct",
        overhead_pct(n / plain.wall_s, n / replica.wall_s),
    );
    result.note(
        "reconciliation",
        Json::obj(vec![
            ("samples", Json::Num(n)),
            ("trainer_s_all_workers", Json::Num(secs_all)),
            ("trainer_s_one_worker", Json::Num(secs_one)),
            ("replica_s_timed", Json::Num(replica.wall_s)),
            ("replica_s_plain", Json::Num(plain.wall_s)),
            ("trainer_us_per_sample", Json::Num(epoch_us)),
            ("threads", Json::Num(crate::cores() as f64)),
        ]),
    );
    Ok(result)
}
