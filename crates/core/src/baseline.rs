//! Windowed rate-coding baseline classifier.
//!
//! The paper's introduction contrasts temporal coding with rate coding:
//! "a purely rate-based system ... only considers spike statistics inside
//! each window, ignoring dependencies in spike trains". This module
//! implements exactly that straw-man — a softmax regression over
//! per-window spike counts — so the evaluation harness can quantify how
//! much of each dataset is solvable *without* temporal dynamics.

use crate::SpikeRaster;
use snn_tensor::{stats, Matrix, Rng};

/// Softmax regression over windowed spike-count features.
///
/// The input raster is divided into `windows` equal time windows; the
/// per-channel spike count inside each window is one feature. With
/// `windows = 1` this is the purest rate model (total counts only).
///
/// # Examples
///
/// ```
/// use snn_core::baseline::RateClassifier;
/// use snn_core::SpikeRaster;
/// use snn_tensor::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let mut clf = RateClassifier::new(4, 1, 2, &mut rng);
/// let sample = SpikeRaster::zeros(10, 4);
/// assert!(clf.predict(&sample) < 2);
/// ```
#[derive(Debug, Clone)]
pub struct RateClassifier {
    weights: Matrix,
    bias: Vec<f32>,
    channels: usize,
    windows: usize,
}

impl RateClassifier {
    /// Creates a classifier for rasters of `channels` channels, using
    /// `windows` count windows and `classes` output classes.
    ///
    /// # Panics
    ///
    /// Panics if `windows == 0` or `classes == 0`.
    pub fn new(channels: usize, windows: usize, classes: usize, rng: &mut Rng) -> Self {
        assert!(windows > 0, "need at least one window");
        assert!(classes > 0, "need at least one class");
        Self {
            weights: Matrix::xavier_uniform(classes, channels * windows, rng),
            bias: vec![0.0; classes],
            channels,
            windows,
        }
    }

    /// Number of count windows.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Extracts the windowed-count feature vector, normalised by window
    /// length so features are rates.
    ///
    /// # Panics
    ///
    /// Panics if the raster's channel count differs from the model's.
    pub fn features(&self, raster: &SpikeRaster) -> Vec<f32> {
        assert_eq!(raster.channels(), self.channels, "channel mismatch");
        let mut feats = vec![0.0f32; self.channels * self.windows];
        let steps = raster.steps().max(1);
        let w_len = steps.div_ceil(self.windows);
        for t in 0..raster.steps() {
            let w = (t / w_len).min(self.windows - 1);
            for &c in raster.step(t) {
                feats[w * self.channels + c] += 1.0;
            }
        }
        let norm = 1.0 / w_len as f32;
        for f in &mut feats {
            *f *= norm;
        }
        feats
    }

    /// Class probabilities for one raster.
    pub fn probabilities(&self, raster: &SpikeRaster) -> Vec<f32> {
        let feats = self.features(raster);
        let mut logits = self.weights.matvec(&feats);
        for (l, b) in logits.iter_mut().zip(&self.bias) {
            *l += b;
        }
        stats::softmax(&logits)
    }

    /// Most probable class.
    pub fn predict(&self, raster: &SpikeRaster) -> usize {
        stats::argmax(&self.probabilities(raster)).unwrap_or(0)
    }

    /// One epoch of SGD on cross-entropy; returns mean loss.
    pub fn train_epoch(&mut self, data: &[(SpikeRaster, usize)], lr: f32) -> f32 {
        let mut total = 0.0f64;
        for (raster, target) in data {
            let feats = self.features(raster);
            let mut logits = self.weights.matvec(&feats);
            for (l, b) in logits.iter_mut().zip(&self.bias) {
                *l += b;
            }
            let probs = stats::softmax(&logits);
            total += stats::cross_entropy(&probs, *target) as f64;
            let mut delta = probs;
            delta[*target] -= 1.0;
            self.weights.add_outer(-lr, &delta, &feats);
            for (b, d) in self.bias.iter_mut().zip(&delta) {
                *b -= lr * d;
            }
        }
        if data.is_empty() {
            0.0
        } else {
            (total / data.len() as f64) as f32
        }
    }

    /// Accuracy on held-out data.
    pub fn evaluate(&self, data: &[(SpikeRaster, usize)]) -> f32 {
        let pairs: Vec<_> = data.iter().map(|(r, t)| (self.predict(r), *t)).collect();
        stats::accuracy(&pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate_separable() -> Vec<(SpikeRaster, usize)> {
        // Class 0 fires on channels 0-1, class 1 on channels 2-3.
        let mut data = Vec::new();
        for rep in 0..8 {
            let mut a = SpikeRaster::zeros(20, 4);
            let mut b = SpikeRaster::zeros(20, 4);
            for t in (rep % 3..20).step_by(2) {
                a.set(t, 0, true);
                a.set(t, 1, true);
                b.set(t, 2, true);
                b.set(t, 3, true);
            }
            data.push((a, 0));
            data.push((b, 1));
        }
        data
    }

    /// Identical total rates per channel; only the order differs.
    fn timing_only() -> Vec<(SpikeRaster, usize)> {
        let t = 20;
        let mut data = Vec::new();
        for _ in 0..8 {
            let mut a = SpikeRaster::zeros(t, 2);
            let mut b = SpikeRaster::zeros(t, 2);
            for s in 0..5 {
                a.set(s, 0, true);
                a.set(t - 1 - s, 1, true);
                b.set(s, 1, true);
                b.set(t - 1 - s, 0, true);
            }
            data.push((a, 0));
            data.push((b, 1));
        }
        data
    }

    #[test]
    fn learns_rate_separable_data() {
        let mut rng = Rng::seed_from(3);
        let mut clf = RateClassifier::new(4, 1, 2, &mut rng);
        let data = rate_separable();
        for _ in 0..50 {
            clf.train_epoch(&data, 0.5);
        }
        assert_eq!(clf.evaluate(&data), 1.0);
    }

    #[test]
    fn single_window_cannot_solve_timing_only_data() {
        // The defining failure of pure rate coding: with one window the
        // features of the two classes are *identical*, so accuracy is
        // stuck at chance regardless of training.
        let mut rng = Rng::seed_from(3);
        let mut clf = RateClassifier::new(2, 1, 2, &mut rng);
        let data = timing_only();
        let (fa, fb) = (clf.features(&data[0].0), clf.features(&data[1].0));
        assert_eq!(fa, fb, "features must be identical by construction");
        for _ in 0..100 {
            clf.train_epoch(&data, 0.5);
        }
        let acc = clf.evaluate(&data);
        assert!((acc - 0.5).abs() < 0.26, "chance-level expected, got {acc}");
    }

    #[test]
    fn more_windows_recover_coarse_timing() {
        // With 4 windows the early/late structure becomes visible to the
        // rate model — the paper's point that windowing trades latency
        // for temporal resolution.
        let mut rng = Rng::seed_from(3);
        let mut clf = RateClassifier::new(2, 4, 2, &mut rng);
        let data = timing_only();
        for _ in 0..100 {
            clf.train_epoch(&data, 0.5);
        }
        assert_eq!(clf.evaluate(&data), 1.0);
    }

    #[test]
    fn features_are_rates_not_counts() {
        let mut rng = Rng::seed_from(1);
        let clf = RateClassifier::new(1, 1, 2, &mut rng);
        let mut r = SpikeRaster::zeros(10, 1);
        for t in 0..10 {
            r.set(t, 0, true);
        }
        assert!((clf.features(&r)[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut rng = Rng::seed_from(1);
        let clf = RateClassifier::new(3, 2, 4, &mut rng);
        let r = SpikeRaster::from_events(9, 3, &[(0, 0), (4, 1), (8, 2)]);
        let p = clf.probabilities(&r);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(p.len(), 4);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_windows_panics() {
        let mut rng = Rng::seed_from(1);
        RateClassifier::new(2, 0, 2, &mut rng);
    }
}
