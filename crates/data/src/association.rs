//! The §V-B spatial-temporal pattern-association task: SHD-like auditory
//! inputs paired with handwritten-digit target rasters.
//!
//! The paper trains a 700-500-500-300 network to emit the spike pattern
//! of a handwritten digit image whenever it hears the corresponding
//! spoken digit: pixel `(x, y)` of the image becomes a spike in output
//! train `y` at time `x`. This module builds those `(input, target)`
//! pairs from the synthetic SHD generator and the procedural glyphs.

use crate::glyph::render_digit;
use crate::shd::{self, ShdConfig};
use snn_core::SpikeRaster;
use snn_tensor::Rng;

/// Configuration for the pattern-association dataset.
#[derive(Debug, Clone)]
pub struct AssociationConfig {
    /// SHD-like input generator settings; only the first 10 classes are
    /// used (one per digit).
    pub shd: ShdConfig,
    /// Output spike trains (300 in the paper — the digit image height).
    pub target_channels: usize,
    /// Samples per digit.
    pub samples_per_digit: usize,
}

impl AssociationConfig {
    /// Paper-scale: 700-channel inputs of length 300, 300 output trains,
    /// 1000 samples total.
    pub fn paper() -> Self {
        Self {
            shd: ShdConfig {
                steps: 300,
                ..ShdConfig::paper()
            },
            target_channels: 300,
            samples_per_digit: 100,
        }
    }

    /// Reduced configuration for tests.
    pub fn small() -> Self {
        Self {
            shd: ShdConfig::small(),
            target_channels: 24,
            samples_per_digit: 2,
        }
    }
}

impl Default for AssociationConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Converts digit `d` to its target raster using the paper's rule:
/// pixel `(x, y)` → spike in train `y` at time `x`. The glyph is
/// rendered at `steps × channels` resolution.
///
/// # Panics
///
/// Panics if `d > 9`.
pub fn digit_target(d: usize, steps: usize, channels: usize) -> SpikeRaster {
    let bmp = render_digit(d, steps, channels, 1.0, (0.0, 0.0, 1.0));
    let mut events = Vec::new();
    for y in 0..channels {
        for x in 0..steps {
            if bmp.get(x as isize, y as isize) > 0.5 {
                events.push((x, y));
            }
        }
    }
    SpikeRaster::from_events(steps, channels, &events)
}

/// A pattern-association dataset: inputs, targets and the digit labels.
#[derive(Debug, Clone)]
pub struct AssociationDataset {
    /// `(input, target)` training pairs.
    pub pairs: Vec<(SpikeRaster, SpikeRaster)>,
    /// Digit label of each pair (for evaluation by nearest-target).
    pub labels: Vec<usize>,
    /// The ten canonical targets, indexed by digit.
    pub targets: Vec<SpikeRaster>,
}

/// Generates the association dataset: for each digit `d`, SHD-like
/// samples of class `d` paired with the digit-`d` glyph raster.
///
/// # Panics
///
/// Panics if the SHD configuration has fewer than 10 classes.
pub fn generate(cfg: &AssociationConfig, seed: u64) -> AssociationDataset {
    assert!(
        cfg.shd.classes >= 10,
        "need >= 10 SHD classes for 10 digits"
    );
    let mut rng = Rng::seed_from(seed);
    let targets: Vec<SpikeRaster> = (0..10)
        .map(|d| digit_target(d, cfg.shd.steps, cfg.target_channels))
        .collect();
    let mut pairs = Vec::with_capacity(10 * cfg.samples_per_digit);
    let mut labels = Vec::with_capacity(10 * cfg.samples_per_digit);
    for d in 0..10 {
        for _ in 0..cfg.samples_per_digit {
            let input = shd::simulate_sample(d, &cfg.shd, &mut rng);
            pairs.push((input, targets[d].clone()));
            labels.push(d);
        }
    }
    AssociationDataset {
        pairs,
        labels,
        targets,
    }
}

/// Classifies a produced output raster by nearest canonical target under
/// the van Rossum distance — the quantitative readout for Fig. 5.
pub fn nearest_target(
    output: &SpikeRaster,
    targets: &[SpikeRaster],
    kernel: snn_core::spike::TraceKernel,
) -> usize {
    let mut best = 0;
    let mut best_d = f32::INFINITY;
    for (i, t) in targets.iter().enumerate() {
        let d = snn_core::spike::raster_distance(kernel, output, t);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_core::spike::TraceKernel;

    #[test]
    fn digit_targets_are_distinct_rasters() {
        let a = digit_target(0, 24, 24);
        let b = digit_target(1, 24, 24);
        assert!(a.spike_count() > 10);
        assert_ne!(a, b);
    }

    #[test]
    fn target_follows_pixel_convention() {
        // A pixel at (x, y) must appear as a spike at time x in train y.
        let d = 1; // mostly-vertical digit: one train spans many times? no —
                   // vertical stroke = fixed x range, many y → many trains at
                   // similar times. Just verify coordinates agree with bitmap.
        let steps = 20;
        let channels = 20;
        let bmp = render_digit(d, steps, channels, 1.0, (0.0, 0.0, 1.0));
        let raster = digit_target(d, steps, channels);
        for y in 0..channels {
            for x in 0..steps {
                assert_eq!(raster.get(x, y), bmp.get(x as isize, y as isize) > 0.5);
            }
        }
    }

    #[test]
    fn generate_pairs_inputs_with_matching_targets() {
        let cfg = AssociationConfig::small();
        let ds = generate(&cfg, 7);
        assert_eq!(ds.pairs.len(), 20);
        assert_eq!(ds.labels.len(), 20);
        for (i, (_, target)) in ds.pairs.iter().enumerate() {
            assert_eq!(target, &ds.targets[ds.labels[i]]);
        }
    }

    #[test]
    fn shapes_are_consistent() {
        let cfg = AssociationConfig::small();
        let ds = generate(&cfg, 7);
        for (input, target) in &ds.pairs {
            assert_eq!(input.steps(), cfg.shd.steps);
            assert_eq!(input.channels(), cfg.shd.channels);
            assert_eq!(target.steps(), cfg.shd.steps);
            assert_eq!(target.channels(), cfg.target_channels);
        }
    }

    #[test]
    fn nearest_target_identifies_exact_match() {
        let cfg = AssociationConfig::small();
        let ds = generate(&cfg, 7);
        let kernel = TraceKernel::paper_defaults();
        for d in 0..10 {
            assert_eq!(nearest_target(&ds.targets[d], &ds.targets, kernel), d);
        }
    }

    #[test]
    fn nearest_target_tolerates_perturbation() {
        let cfg = AssociationConfig::small();
        let ds = generate(&cfg, 7);
        let kernel = TraceKernel::paper_defaults();
        // Remove a few spikes from digit 3's target; it should still be
        // closest to digit 3.
        let mut noisy = ds.targets[3].clone();
        let events = noisy.events();
        for &(t, c) in events.iter().take(events.len() / 10) {
            noisy.set(t, c, false);
        }
        assert_eq!(nearest_target(&noisy, &ds.targets, kernel), 3);
    }

    #[test]
    #[should_panic(expected = "10 SHD classes")]
    fn too_few_classes_panics() {
        let mut cfg = AssociationConfig::small();
        cfg.shd.classes = 4;
        generate(&cfg, 0);
    }
}
