//! Classification metrics: confusion matrix, per-class accuracy, and the
//! pair-confusion analysis used to diagnose the SHD ablation.

use crate::engine::{Backend, Session};
use crate::{Network, SpikeRaster};

/// A confusion matrix over `n` classes (`rows = true label`,
/// `cols = prediction`).
///
/// # Examples
///
/// ```
/// use snn_core::metrics::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::new(2);
/// cm.record(0, 0);
/// cm.record(0, 1);
/// cm.record(1, 1);
/// assert_eq!(cm.accuracy(), 2.0 / 3.0);
/// assert_eq!(cm.count(0, 1), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        Self {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Records one `(true label, prediction)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, label: usize, prediction: usize) {
        assert!(
            label < self.classes && prediction < self.classes,
            "({label},{prediction}) out of range {}",
            self.classes
        );
        self.counts[label * self.classes + prediction] += 1;
    }

    /// Count of samples with the given true label and prediction.
    pub fn count(&self, label: usize, prediction: usize) -> u64 {
        self.counts[label * self.classes + prediction]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (0 if empty).
    pub fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.classes).map(|i| self.count(i, i)).sum();
        correct as f32 / total as f32
    }

    /// Per-class recall (accuracy restricted to each true label); classes
    /// with no samples report 0.
    pub fn per_class_recall(&self) -> Vec<f32> {
        (0..self.classes)
            .map(|i| {
                let row: u64 = (0..self.classes).map(|j| self.count(i, j)).sum();
                if row == 0 {
                    0.0
                } else {
                    self.count(i, i) as f32 / row as f32
                }
            })
            .collect()
    }

    /// Accuracy of identifying the *pair group* `label / 2` — used with
    /// the synthetic SHD dataset whose classes `2k`/`2k+1` are
    /// rate-identical. A model with no temporal sensitivity can still
    /// have high pair accuracy while within-pair accuracy sits at chance.
    pub fn pair_accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut correct = 0u64;
        for label in 0..self.classes {
            for pred in 0..self.classes {
                if label / 2 == pred / 2 {
                    correct += self.count(label, pred);
                }
            }
        }
        correct as f32 / total as f32
    }

    /// Accuracy *within* correctly-identified pairs: of the samples whose
    /// prediction landed in the right pair, the fraction assigned the
    /// right member. Chance level is 0.5; this is the purest measure of
    /// temporal-order sensitivity on the paired dataset.
    pub fn within_pair_accuracy(&self) -> f32 {
        let mut in_pair = 0u64;
        let mut exact = 0u64;
        for label in 0..self.classes {
            for pred in 0..self.classes {
                if label / 2 == pred / 2 {
                    in_pair += self.count(label, pred);
                    if label == pred {
                        exact += self.count(label, pred);
                    }
                }
            }
        }
        if in_pair == 0 {
            0.0
        } else {
            exact as f32 / in_pair as f32
        }
    }

    /// Renders the matrix as an aligned table.
    pub fn render(&self) -> String {
        let mut out = String::from("true\\pred");
        for j in 0..self.classes {
            out.push_str(&format!(" {j:>4}"));
        }
        out.push('\n');
        for i in 0..self.classes {
            out.push_str(&format!("{i:>9}"));
            for j in 0..self.classes {
                out.push_str(&format!(" {:>4}", self.count(i, j)));
            }
            out.push('\n');
        }
        out
    }
}

/// Evaluates a network on labelled data, returning the full confusion
/// matrix.
pub fn confusion(net: &Network, data: &[(SpikeRaster, usize)], classes: usize) -> ConfusionMatrix {
    let mut cm = ConfusionMatrix::new(classes);
    let mut session = Session::new(net, Backend::Sparse);
    for (input, label) in data {
        cm.record(*label, session.classify(input));
    }
    cm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_matrix() -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new(4);
        for i in 0..4 {
            for _ in 0..5 {
                cm.record(i, i);
            }
        }
        cm
    }

    #[test]
    fn perfect_predictions() {
        let cm = diag_matrix();
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.pair_accuracy(), 1.0);
        assert_eq!(cm.within_pair_accuracy(), 1.0);
        assert_eq!(cm.per_class_recall(), vec![1.0; 4]);
    }

    #[test]
    fn pair_right_member_wrong() {
        // Always predicts the partner class: pair accuracy perfect,
        // within-pair accuracy zero.
        let mut cm = ConfusionMatrix::new(4);
        for i in 0..4 {
            for _ in 0..5 {
                cm.record(i, i ^ 1);
            }
        }
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.pair_accuracy(), 1.0);
        assert_eq!(cm.within_pair_accuracy(), 0.0);
    }

    #[test]
    fn coin_flip_within_pair() {
        let mut cm = ConfusionMatrix::new(2);
        for _ in 0..10 {
            cm.record(0, 0);
            cm.record(0, 1);
        }
        assert_eq!(cm.pair_accuracy(), 1.0);
        assert_eq!(cm.within_pair_accuracy(), 0.5);
    }

    #[test]
    fn empty_matrix_is_zero() {
        let cm = ConfusionMatrix::new(3);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.total(), 0);
        assert_eq!(cm.per_class_recall(), vec![0.0; 3]);
    }

    #[test]
    fn render_contains_counts() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 1);
        cm.record(1, 1);
        let s = cm.render();
        assert!(s.contains("true\\pred"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_out_of_range_panics() {
        ConfusionMatrix::new(2).record(0, 5);
    }
}
