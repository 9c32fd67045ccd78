//! Multi-epoch experiment runner: the full-scale training loop behind
//! `bench_train`'s SHD/N-MNIST policy grid.
//!
//! [`run_classification`] wires a labelled train/test split into the
//! [`Trainer`]'s streaming mini-batch epoch loop (fixed-8-chunk parallel
//! fan-out, bitwise-deterministic for any thread count) and adds the
//! machinery a paper-scale run needs on top of single epochs:
//!
//! * a deterministic per-epoch reshuffle of the training set (seeded,
//!   so an experiment is reproducible end to end),
//! * [`LrSchedule`] integration (the schedule maps epoch → learning
//!   rate over the trainer's base rate),
//! * early stopping on a validation plateau,
//! * best-checkpoint tracking through the existing JSON checkpoint
//!   format — the best weights are restored into the caller's network
//!   when the run ends and optionally persisted to (and resumed from)
//!   a checkpoint file,
//! * per-epoch metrics: train/test loss and accuracy, the backward
//!   pass's surviving error-event density, and wall-clock per phase,
//! * a structured **run manifest**: a JSONL provenance record (config,
//!   seed, policy, host info, per-epoch metrics, outcome) written next
//!   to the checkpoint — or wherever
//!   [`ExperimentConfig::manifest_path`] points — one flushed line per
//!   event, so even an interrupted run leaves a parseable record.
//!
//! Manifest schema (`neurosnn.run.v1`), one JSON object per line:
//!
//! | `record` | When | Carries |
//! |---|---|---|
//! | `"run"` | at start | schema tag, start time, full config, host info |
//! | `"epoch"` | per epoch | every [`EpochRecord`] field |
//! | `"summary"` | at end | best epoch/accuracy, early-stop flag, wall-clock |

use crate::checkpoint::{self, CheckpointError};
use crate::engine::Backend;
use crate::train::{ClassificationLoss, LrSchedule, Trainer, TrainerConfig};
use crate::{Forward, Network, ScratchSpace, SpikeRaster};
use snn_json::Json;
use snn_tensor::{stats, Matrix, Rng};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stop when the validation metric has not improved for more than
/// `patience` consecutive epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStopping {
    /// Non-improving epochs tolerated after the last improvement.
    pub patience: usize,
    /// Minimum accuracy gain that counts as an improvement (guards the
    /// plateau counter against noise-level wiggle).
    pub min_delta: f32,
}

/// Configuration for one [`run_classification`] experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Learning-rate schedule over the trainer's base rate.
    pub lr_schedule: LrSchedule,
    /// Early stopping on the validation plateau; `None` always runs
    /// all `epochs`.
    pub early_stop: Option<EarlyStopping>,
    /// Seed for the deterministic per-epoch reshuffle of the training
    /// set.
    pub shuffle_seed: u64,
    /// Where to persist the best checkpoint (written on every
    /// improvement, so an interrupted run keeps its best weights);
    /// `None` keeps the best in memory only.
    pub checkpoint_path: Option<PathBuf>,
    /// Load `checkpoint_path` as the starting weights when the file
    /// exists (resume a previous run; silently starts fresh when it
    /// does not exist yet).
    pub resume: bool,
    /// Where to write the JSONL run manifest. `None` derives the path
    /// from `checkpoint_path` (sibling file with a `.manifest.jsonl`
    /// extension); when both are `None` no manifest is written.
    pub manifest_path: Option<PathBuf>,
    /// Print a one-line summary per epoch (for the harness binaries).
    pub progress: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            lr_schedule: LrSchedule::Constant,
            early_stop: None,
            shuffle_seed: 0,
            checkpoint_path: None,
            resume: false,
            manifest_path: None,
            progress: false,
        }
    }
}

impl ExperimentConfig {
    /// Returns a copy with the given epoch budget.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Returns a copy with the given learning-rate schedule.
    pub fn with_lr_schedule(mut self, schedule: LrSchedule) -> Self {
        self.lr_schedule = schedule;
        self
    }

    /// Returns a copy with early stopping enabled.
    pub fn with_early_stopping(mut self, patience: usize, min_delta: f32) -> Self {
        self.early_stop = Some(EarlyStopping {
            patience,
            min_delta,
        });
        self
    }

    /// Returns a copy with best-checkpoint persistence (and, when
    /// `resume` is set, warm-starting from the file if it exists).
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>, resume: bool) -> Self {
        self.checkpoint_path = Some(path.into());
        self.resume = resume;
        self
    }

    /// Returns a copy writing the JSONL run manifest to an explicit
    /// path (instead of the checkpoint-derived default).
    pub fn with_manifest(mut self, path: impl Into<PathBuf>) -> Self {
        self.manifest_path = Some(path.into());
        self
    }

    /// The manifest path this configuration resolves to: the explicit
    /// [`manifest_path`](Self::manifest_path) if set, else a sibling of
    /// the checkpoint with a `.manifest.jsonl` extension, else `None`.
    pub fn resolved_manifest_path(&self) -> Option<PathBuf> {
        self.manifest_path.clone().or_else(|| {
            self.checkpoint_path
                .as_ref()
                .map(|p| p.with_extension("manifest.jsonl"))
        })
    }
}

/// One epoch's metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Learning rate the epoch ran at (schedule applied).
    pub lr: f32,
    /// Mean training loss.
    pub train_loss: f32,
    /// Training accuracy.
    pub train_accuracy: f32,
    /// Mean loss on the held-out set (0 when it is empty).
    pub test_loss: f32,
    /// Accuracy on the held-out set (0 when it is empty).
    pub test_accuracy: f32,
    /// Surviving backward error-event density
    /// ([`EpochStats::backward_event_density`](crate::train::EpochStats::backward_event_density)).
    pub backward_event_density: f32,
    /// Wall-clock seconds spent in the training phase.
    pub train_secs: f64,
    /// Wall-clock seconds spent in the evaluation phase.
    pub eval_secs: f64,
}

/// Outcome of a [`run_classification`] experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Per-epoch metrics, in order.
    pub records: Vec<EpochRecord>,
    /// Epoch index of the best validation accuracy (0 when a resumed
    /// checkpoint was never improved upon).
    pub best_epoch: usize,
    /// Best validation accuracy (train accuracy when no test set; the
    /// resumed checkpoint's own accuracy when no epoch beat it).
    pub best_accuracy: f32,
    /// Whether early stopping ended the run before `epochs`.
    pub stopped_early: bool,
    /// Whether the run warm-started from an existing checkpoint file.
    pub resumed: bool,
    /// Where the JSONL run manifest was written, when one was.
    pub manifest_path: Option<PathBuf>,
}

/// Streams the JSONL run manifest: one flushed line per event, so an
/// interrupted run still leaves a parseable provenance record.
struct ManifestWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl ManifestWriter {
    fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            file: std::fs::File::create(path)?,
            path: path.to_path_buf(),
        })
    }

    fn line(&mut self, doc: &Json) -> std::io::Result<()> {
        writeln!(self.file, "{doc}")?;
        self.file.flush()
    }

    #[allow(clippy::too_many_arguments)]
    fn run_header(
        &mut self,
        cfg: &ExperimentConfig,
        trainer_config: &TrainerConfig,
        base_lr: f32,
        train_samples: usize,
        test_samples: usize,
        layer_widths: &[usize],
        resumed: bool,
    ) -> std::io::Result<()> {
        let host = snn_obs::provenance::host_info();
        let started_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let doc = Json::obj(vec![
            ("record", Json::from("run")),
            ("schema", Json::from("neurosnn.run.v1")),
            ("started_unix", Json::from(started_unix as f64)),
            ("epochs", Json::from(cfg.epochs)),
            ("shuffle_seed", Json::from(cfg.shuffle_seed as f64)),
            (
                "lr_schedule",
                Json::from(format!("{:?}", cfg.lr_schedule).as_str()),
            ),
            ("base_lr", Json::from(base_lr)),
            ("batch_size", Json::from(trainer_config.batch_size)),
            ("num_threads", Json::from(trainer_config.num_threads)),
            (
                "sparsity",
                Json::from(format!("{:?}", trainer_config.sparsity).as_str()),
            ),
            (
                "surrogate",
                Json::from(format!("{:?}", trainer_config.surrogate).as_str()),
            ),
            ("dense_backward", Json::from(trainer_config.dense_backward)),
            ("train_samples", Json::from(train_samples)),
            ("test_samples", Json::from(test_samples)),
            (
                "layer_widths",
                Json::Arr(layer_widths.iter().map(|&w| Json::from(w)).collect()),
            ),
            (
                "checkpoint",
                cfg.checkpoint_path
                    .as_ref()
                    .map_or(Json::Null, |p| Json::from(p.display().to_string().as_str())),
            ),
            ("resumed", Json::from(resumed)),
            (
                "host",
                Json::obj(vec![
                    ("hostname", Json::from(host.hostname.as_str())),
                    ("os", Json::from(host.os)),
                    ("arch", Json::from(host.arch)),
                    ("cores", Json::from(host.cores)),
                    (
                        "git_revision",
                        host.git_revision.as_deref().map_or(Json::Null, Json::from),
                    ),
                ]),
            ),
        ]);
        self.line(&doc)
    }

    fn epoch(&mut self, r: &EpochRecord) -> std::io::Result<()> {
        let doc = Json::obj(vec![
            ("record", Json::from("epoch")),
            ("epoch", Json::from(r.epoch)),
            ("lr", Json::from(r.lr)),
            ("train_loss", Json::from(r.train_loss)),
            ("train_accuracy", Json::from(r.train_accuracy)),
            ("test_loss", Json::from(r.test_loss)),
            ("test_accuracy", Json::from(r.test_accuracy)),
            (
                "backward_event_density",
                Json::from(r.backward_event_density),
            ),
            ("train_secs", Json::from(r.train_secs)),
            ("eval_secs", Json::from(r.eval_secs)),
        ]);
        self.line(&doc)
    }

    fn summary(
        &mut self,
        result_best_epoch: usize,
        best_accuracy: f32,
        stopped_early: bool,
        epochs_run: usize,
        wall_secs: f64,
    ) -> std::io::Result<()> {
        let doc = Json::obj(vec![
            ("record", Json::from("summary")),
            ("best_epoch", Json::from(result_best_epoch)),
            ("best_accuracy", Json::from(best_accuracy)),
            ("stopped_early", Json::from(stopped_early)),
            ("epochs_run", Json::from(epochs_run)),
            ("wall_secs", Json::from(wall_secs)),
        ]);
        self.line(&doc)
    }
}

/// Mean loss and accuracy on held-out data (no updates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalStats {
    /// Mean per-sample loss.
    pub mean_loss: f32,
    /// Classification accuracy.
    pub accuracy: f32,
    /// Number of samples evaluated.
    pub samples: usize,
}

/// Evaluates loss **and** accuracy in one pass (the per-epoch validation
/// probe; [`evaluate_classification`](crate::train::evaluate_classification)
/// reports accuracy only).
///
/// Sequential by design: the engine's batched eval path cannot report
/// per-sample loss, and at paper scale this probe is ~0.1 s against
/// 10–30 s of training per epoch, so a parallel variant would buy
/// nothing. Its predictions are pinned to agree with the engine eval
/// path by test (`eval_helper_matches_engine_accuracy`).
pub fn evaluate_loss_accuracy<L: ClassificationLoss>(
    net: &Network,
    data: &[(SpikeRaster, usize)],
    loss: &L,
) -> EvalStats {
    let mut fwd = Forward::empty();
    let mut scratch = ScratchSpace::new();
    let mut d_out = Matrix::zeros(0, 0);
    let mut total_loss = 0.0f64;
    let mut correct = 0usize;
    for (input, target) in data {
        net.infer_rollout(Backend::Sparse, input, &mut fwd, &mut scratch);
        total_loss += loss.loss_and_grad_into(fwd.output(), *target, &mut d_out) as f64;
        let counts = fwd.spike_counts();
        if stats::argmax(&counts) == Some(*target) {
            correct += 1;
        }
    }
    let n = data.len();
    EvalStats {
        mean_loss: if n == 0 {
            0.0
        } else {
            (total_loss / n as f64) as f32
        },
        accuracy: if n == 0 {
            0.0
        } else {
            correct as f32 / n as f32
        },
        samples: n,
    }
}

/// Runs a full multi-epoch classification experiment.
///
/// Trains `net` on `train`, validating each epoch on `test` (falling
/// back to the training accuracy when `test` is empty). When the run
/// ends — epoch budget exhausted or validation plateau — the **best**
/// weights seen are restored into `net` (round-tripped through the
/// checkpoint format, which preserves weights bit-exactly).
///
/// # Errors
///
/// Returns [`CheckpointError`] when the configured checkpoint file
/// cannot be written, or an existing one cannot be read on resume.
///
/// # Panics
///
/// Panics if a label is out of range for the network's output width
/// (propagated from the loss).
pub fn run_classification<L: ClassificationLoss + Sync>(
    net: &mut Network,
    train: &[(SpikeRaster, usize)],
    test: &[(SpikeRaster, usize)],
    loss: &L,
    trainer_config: TrainerConfig,
    cfg: &ExperimentConfig,
) -> Result<ExperimentResult, CheckpointError> {
    let mut resumed = false;
    if cfg.resume {
        if let Some(path) = &cfg.checkpoint_path {
            if path.exists() {
                *net = checkpoint::load(path)?;
                resumed = true;
            }
        }
    }

    let run_start = Instant::now();
    let base_lr = trainer_config.optimizer.learning_rate();
    let mut manifest = match cfg.resolved_manifest_path() {
        Some(path) => {
            let mut writer = ManifestWriter::create(&path)?;
            let mut widths = vec![net.n_in()];
            widths.extend(net.layers().iter().map(|l| l.n_out()));
            writer.run_header(
                cfg,
                &trainer_config,
                base_lr,
                train.len(),
                test.len(),
                &widths,
                resumed,
            )?;
            Some(writer)
        }
        None => None,
    };
    let mut trainer = Trainer::new(trainer_config);
    let mut shuffle_rng = Rng::seed_from(cfg.shuffle_seed);
    // Shuffling swaps (raster, label) pairs in place — the rasters are
    // cloned once here, never per epoch.
    let mut train_set: Vec<(SpikeRaster, usize)> = train.to_vec();

    let mut records = Vec::with_capacity(cfg.epochs);
    let mut best_json = checkpoint::to_json(net)?;
    // A resumed run must not clobber the checkpoint's weights with a
    // worse epoch: seed the bar with the restored network's own
    // validation accuracy instead of -inf, so only genuine
    // improvements overwrite the file.
    let mut best_accuracy = if resumed {
        let warm = if test.is_empty() {
            evaluate_loss_accuracy(net, train, loss)
        } else {
            evaluate_loss_accuracy(net, test, loss)
        };
        warm.accuracy
    } else {
        f32::NEG_INFINITY
    };
    let mut best_epoch = 0usize;
    let mut plateau_ref = best_accuracy;
    let mut since_improve = 0usize;
    let mut stopped_early = false;

    for epoch in 0..cfg.epochs {
        trainer
            .optimizer_mut()
            .set_learning_rate(cfg.lr_schedule.rate(base_lr, epoch));
        shuffle_rng.shuffle(&mut train_set);

        let t0 = Instant::now();
        let stats = trainer.epoch_classification(net, &train_set, loss);
        let train_secs = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let eval = evaluate_loss_accuracy(net, test, loss);
        let eval_secs = t1.elapsed().as_secs_f64();

        let record = EpochRecord {
            epoch,
            lr: cfg.lr_schedule.rate(base_lr, epoch),
            train_loss: stats.mean_loss,
            train_accuracy: stats.accuracy,
            test_loss: eval.mean_loss,
            test_accuracy: eval.accuracy,
            backward_event_density: stats.backward_event_density,
            train_secs,
            eval_secs,
        };
        if cfg.progress {
            println!(
                "epoch {:>3}  lr {:.2e}  train loss {:.4} acc {:.3}  \
                 test loss {:.4} acc {:.3}  bwd density {:.3}  \
                 [{:.1}s train / {:.1}s eval]",
                record.epoch,
                record.lr,
                record.train_loss,
                record.train_accuracy,
                record.test_loss,
                record.test_accuracy,
                record.backward_event_density,
                record.train_secs,
                record.eval_secs,
            );
        }
        if let Some(writer) = manifest.as_mut() {
            writer.epoch(&record)?;
        }
        records.push(record);

        let metric = if test.is_empty() {
            stats.accuracy
        } else {
            eval.accuracy
        };
        if metric > best_accuracy {
            best_accuracy = metric;
            best_epoch = epoch;
            best_json = checkpoint::to_json(net)?;
            if let Some(path) = &cfg.checkpoint_path {
                std::fs::write(path, &best_json)?;
            }
        }
        if let Some(stop) = cfg.early_stop {
            if metric > plateau_ref + stop.min_delta {
                plateau_ref = metric;
                since_improve = 0;
            } else {
                since_improve += 1;
                if since_improve > stop.patience {
                    stopped_early = true;
                    break;
                }
            }
        }
    }

    // Leave the caller holding the best weights, not the last ones.
    *net = checkpoint::from_json(&best_json)?;
    let best_accuracy = best_accuracy.max(0.0);
    let manifest_path = match manifest.as_mut() {
        Some(writer) => {
            writer.summary(
                best_epoch,
                best_accuracy,
                stopped_early,
                records.len(),
                run_start.elapsed().as_secs_f64(),
            )?;
            Some(writer.path.clone())
        }
        None => None,
    };
    Ok(ExperimentResult {
        records,
        best_epoch,
        best_accuracy,
        stopped_early,
        resumed,
        manifest_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{Optimizer, RateCrossEntropy};
    use crate::NeuronKind;
    use snn_neuron::NeuronParams;

    /// A small rate-separable 3-class task with per-sample noise.
    fn toy_data(samples: usize, seed: u64) -> Vec<(SpikeRaster, usize)> {
        let mut rng = Rng::seed_from(seed);
        (0..samples)
            .map(|i| {
                let class = i % 3;
                let mut r = SpikeRaster::zeros(12, 6);
                for t in 0..12 {
                    for c in 0..6 {
                        let hot = c / 2 == class;
                        if rng.coin(if hot { 0.35 } else { 0.04 }) {
                            r.set(t, c, true);
                        }
                    }
                }
                (r, class)
            })
            .collect()
    }

    fn toy_net(seed: u64) -> Network {
        let mut rng = Rng::seed_from(seed);
        Network::mlp(
            &[6, 16, 3],
            NeuronKind::Adaptive,
            NeuronParams::paper_defaults().with_v_th(0.4),
            &mut rng,
        )
    }

    fn toy_trainer_config() -> TrainerConfig {
        TrainerConfig {
            batch_size: 8,
            optimizer: Optimizer::adam(0.01),
            ..TrainerConfig::default()
        }
        .with_threads(1)
    }

    #[test]
    fn experiment_learns_and_records_every_epoch() {
        let train = toy_data(36, 1);
        let test = toy_data(12, 2);
        let mut net = toy_net(7);
        let result = run_classification(
            &mut net,
            &train,
            &test,
            &RateCrossEntropy,
            toy_trainer_config(),
            &ExperimentConfig::default().with_epochs(8),
        )
        .unwrap();
        assert_eq!(result.records.len(), 8);
        assert!(!result.stopped_early);
        assert!(!result.resumed);
        assert!(
            result.best_accuracy > 1.0 / 3.0,
            "should beat chance: {}",
            result.best_accuracy
        );
        for r in &result.records {
            assert!(r.train_secs > 0.0 && r.eval_secs > 0.0);
            assert!(r.backward_event_density > 0.0 && r.backward_event_density <= 1.0);
            assert_eq!(r.lr, 0.01);
        }
        // The returned network carries the best epoch's weights.
        let eval = evaluate_loss_accuracy(&net, &test, &RateCrossEntropy);
        assert_eq!(eval.accuracy, result.best_accuracy);
    }

    #[test]
    fn experiment_is_deterministic() {
        let train = toy_data(24, 3);
        let test = toy_data(9, 4);
        let run = || {
            let mut net = toy_net(5);
            let result = run_classification(
                &mut net,
                &train,
                &test,
                &RateCrossEntropy,
                toy_trainer_config(),
                &ExperimentConfig::default().with_epochs(3),
            )
            .unwrap();
            (
                result
                    .records
                    .iter()
                    .map(|r| (r.train_loss.to_bits(), r.test_loss.to_bits()))
                    .collect::<Vec<_>>(),
                net.layers()[0].weights().as_slice().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lr_schedule_is_applied_per_epoch() {
        let train = toy_data(12, 6);
        let mut net = toy_net(6);
        let result = run_classification(
            &mut net,
            &train,
            &[],
            &RateCrossEntropy,
            toy_trainer_config(),
            &ExperimentConfig::default()
                .with_epochs(4)
                .with_lr_schedule(LrSchedule::step(2, 0.5)),
        )
        .unwrap();
        let lrs: Vec<f32> = result.records.iter().map(|r| r.lr).collect();
        assert_eq!(lrs, vec![0.01, 0.01, 0.005, 0.005]);
    }

    #[test]
    fn early_stopping_cuts_the_run_and_restores_best() {
        let train = toy_data(36, 7);
        let test = toy_data(12, 8);
        let mut net = toy_net(9);
        let result = run_classification(
            &mut net,
            &train,
            &test,
            &RateCrossEntropy,
            toy_trainer_config(),
            &ExperimentConfig::default()
                .with_epochs(100)
                // Impossible bar: accuracy can never improve by > 1.0,
                // so the plateau counter trips deterministically.
                .with_early_stopping(2, 1.0),
        )
        .unwrap();
        assert!(result.stopped_early);
        assert_eq!(result.records.len(), 4); // epoch 0 + patience 2 + trip
        let eval = evaluate_loss_accuracy(&net, &test, &RateCrossEntropy);
        assert_eq!(eval.accuracy, result.best_accuracy);
    }

    #[test]
    fn checkpoint_save_and_resume_roundtrip() {
        let dir = std::env::temp_dir().join("neurosnn_experiment_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("best.json");
        let _ = std::fs::remove_file(&path);

        let train = toy_data(24, 10);
        let test = toy_data(9, 11);
        let mut net = toy_net(12);
        let first = run_classification(
            &mut net,
            &train,
            &test,
            &RateCrossEntropy,
            toy_trainer_config(),
            &ExperimentConfig::default()
                .with_epochs(3)
                .with_checkpoint(&path, true),
        )
        .unwrap();
        assert!(!first.resumed, "no file existed yet");
        assert!(path.exists(), "best checkpoint persisted");

        // The file holds the best weights: loading it reproduces the
        // best accuracy exactly.
        let restored = checkpoint::load(&path).unwrap();
        let eval = evaluate_loss_accuracy(&restored, &test, &RateCrossEntropy);
        assert_eq!(eval.accuracy, first.best_accuracy);

        // A second run resumes from it (fresh random net is replaced by
        // the checkpoint before epoch 0), and — because the best bar is
        // seeded with the restored weights' own accuracy — can never
        // regress the checkpoint below the first run's best.
        let mut fresh = toy_net(999);
        let second = run_classification(
            &mut fresh,
            &train,
            &test,
            &RateCrossEntropy,
            toy_trainer_config(),
            &ExperimentConfig::default()
                .with_epochs(1)
                .with_checkpoint(&path, true),
        )
        .unwrap();
        assert!(second.resumed);
        assert!(
            second.best_accuracy >= first.best_accuracy,
            "resume seeds the best bar from the checkpoint: {} vs {}",
            second.best_accuracy,
            first.best_accuracy
        );
        let after = checkpoint::load(&path).unwrap();
        let after_eval = evaluate_loss_accuracy(&after, &test, &RateCrossEntropy);
        assert!(
            after_eval.accuracy >= first.best_accuracy,
            "a resumed run must not clobber the best checkpoint with \
             worse weights: file now scores {} vs previous best {}",
            after_eval.accuracy,
            first.best_accuracy
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn manifest_records_run_epochs_and_summary() {
        let dir = std::env::temp_dir().join("neurosnn_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("best.json");
        let manifest = dir.join("best.manifest.jsonl");
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(&manifest);

        let train = toy_data(24, 20);
        let test = toy_data(9, 21);
        let mut net = toy_net(22);
        let result = run_classification(
            &mut net,
            &train,
            &test,
            &RateCrossEntropy,
            toy_trainer_config(),
            &ExperimentConfig::default()
                .with_epochs(3)
                .with_checkpoint(&ckpt, false),
        )
        .unwrap();

        // The path derives from the checkpoint and is reported back.
        assert_eq!(result.manifest_path.as_deref(), Some(manifest.as_path()));
        let text = std::fs::read_to_string(&manifest).unwrap();
        let lines: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("every manifest line parses"))
            .collect();
        assert_eq!(lines.len(), 1 + 3 + 1, "run + 3 epochs + summary");

        let run = &lines[0];
        assert_eq!(run.get("record").and_then(Json::as_str), Some("run"));
        assert_eq!(
            run.get("schema").and_then(Json::as_str),
            Some("neurosnn.run.v1")
        );
        assert_eq!(run.get("train_samples").and_then(Json::as_usize), Some(24));
        assert!(run.get("host").and_then(|h| h.get("hostname")).is_some());
        assert_eq!(
            run.get("layer_widths")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(3)
        );

        for (i, line) in lines[1..4].iter().enumerate() {
            assert_eq!(line.get("record").and_then(Json::as_str), Some("epoch"));
            assert_eq!(line.get("epoch").and_then(Json::as_usize), Some(i));
        }

        let summary = &lines[4];
        assert_eq!(
            summary.get("record").and_then(Json::as_str),
            Some("summary")
        );
        assert_eq!(summary.get("epochs_run").and_then(Json::as_usize), Some(3));
        let best = summary.get("best_accuracy").and_then(Json::as_f64).unwrap();
        assert!((best as f32 - result.best_accuracy).abs() < 1e-6);

        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(&manifest);
    }

    #[test]
    fn no_checkpoint_means_no_manifest() {
        let train = toy_data(12, 23);
        let mut net = toy_net(24);
        let result = run_classification(
            &mut net,
            &train,
            &[],
            &RateCrossEntropy,
            toy_trainer_config(),
            &ExperimentConfig::default().with_epochs(1),
        )
        .unwrap();
        assert!(result.manifest_path.is_none());
    }

    #[test]
    fn empty_test_set_validates_on_train() {
        let train = toy_data(12, 13);
        let mut net = toy_net(14);
        let result = run_classification(
            &mut net,
            &train,
            &[],
            &RateCrossEntropy,
            toy_trainer_config(),
            &ExperimentConfig::default().with_epochs(2),
        )
        .unwrap();
        assert_eq!(result.records.len(), 2);
        assert!(result.best_accuracy >= 0.0);
        for r in &result.records {
            assert_eq!(r.test_accuracy, 0.0);
            assert_eq!(r.test_loss, 0.0);
        }
    }

    #[test]
    fn eval_helper_matches_engine_accuracy() {
        let data = toy_data(18, 15);
        let net = toy_net(16);
        let eval = evaluate_loss_accuracy(&net, &data, &RateCrossEntropy);
        assert_eq!(
            eval.accuracy,
            crate::train::evaluate_classification(&net, &data)
        );
        assert_eq!(eval.samples, 18);
    }
}
