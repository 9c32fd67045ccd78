//! Synthetic N-MNIST: a simulated DVS event camera viewing digit glyphs
//! under the three-saccade motion protocol of the original dataset.
//!
//! The real N-MNIST was captured by moving a DVS camera in three straight
//! saccades in front of a displayed MNIST digit; pixels emit ON/OFF
//! events when log-brightness changes exceed a threshold. We replicate
//! that pipeline: a procedural glyph is translated along a triangular
//! saccade path, and a per-pixel change detector with its own reference
//! memory emits polarity events. The resulting rasters have the same
//! format as N-MNIST (`2 × 34 × 34` channels) and, critically, the same
//! *information structure*: class identity is carried by which pixels
//! fire (spatial/rate code), not by fine timing — so the hard-reset
//! ablation degrades only mildly here, as in the paper's Table II.

use crate::glyph::{render_digit, Bitmap};
use crate::ClassDataset;
use snn_core::SpikeRaster;
use snn_tensor::Rng;

/// Generator configuration for synthetic N-MNIST.
#[derive(Debug, Clone)]
pub struct NmnistConfig {
    /// Sensor width (34 in the real dataset).
    pub width: usize,
    /// Sensor height (34 in the real dataset).
    pub height: usize,
    /// Timesteps per sample.
    pub steps: usize,
    /// Samples generated per digit class.
    pub samples_per_class: usize,
    /// DVS brightness-change threshold.
    pub dvs_threshold: f32,
    /// Saccade amplitude in pixels.
    pub saccade_amplitude: f32,
    /// Probability of a spurious noise event per pixel per step.
    pub noise_rate: f32,
}

impl NmnistConfig {
    /// Paper-scale sensor (34×34×2) with a moderate duration.
    pub fn paper() -> Self {
        Self {
            width: 34,
            height: 34,
            steps: 100,
            samples_per_class: 100,
            dvs_threshold: 0.25,
            saccade_amplitude: 3.0,
            noise_rate: 1e-4,
        }
    }

    /// A reduced configuration for fast tests and CI.
    pub fn small() -> Self {
        Self {
            width: 16,
            height: 16,
            steps: 40,
            samples_per_class: 8,
            dvs_threshold: 0.25,
            saccade_amplitude: 2.0,
            noise_rate: 1e-4,
        }
    }

    /// Total input channels: `2 · width · height` (ON + OFF polarities).
    pub fn channels(&self) -> usize {
        2 * self.width * self.height
    }
}

impl Default for NmnistConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Camera displacement at normalised time `u ∈ [0, 1]`: three straight
/// saccades tracing a triangle, like the original recording rig.
fn saccade_offset(u: f32, amplitude: f32) -> (f32, f32) {
    let u = u.clamp(0.0, 1.0);
    // Vertices of the triangular path.
    let verts = [(0.0f32, 0.0f32), (1.0, 0.5), (0.0, 1.0), (0.0, 0.0)];
    let seg = (u * 3.0).min(2.999);
    let i = seg as usize;
    let t = seg - i as f32;
    let (x0, y0) = verts[i];
    let (x1, y1) = verts[i + 1];
    (
        amplitude * (x0 + t * (x1 - x0)),
        amplitude * (y0 + t * (y1 - y0)),
    )
}

/// Simulates one DVS recording of `digit`, returning the event raster.
///
/// Channel layout: `polarity · (W·H) + y · W + x` with polarity 0 = ON
/// (brightness increase), 1 = OFF.
pub fn simulate_sample(digit: usize, cfg: &NmnistConfig, rng: &mut Rng) -> SpikeRaster {
    // Per-sample handwriting jitter.
    let jitter = (
        rng.uniform(-0.06, 0.06),
        rng.uniform(-0.06, 0.06),
        rng.uniform(0.85, 1.1),
    );
    let glyph = render_digit(digit, cfg.width, cfg.height, 1.0, jitter);
    let mut events = Vec::new();
    let plane = cfg.width * cfg.height;

    // Per-pixel DVS reference memory, initialised to the first frame.
    let frame = |bmp: &Bitmap, off: (f32, f32), x: usize, y: usize| {
        bmp.sample(x as f32 - off.0, y as f32 - off.1)
    };
    let off0 = saccade_offset(0.0, cfg.saccade_amplitude);
    let mut reference: Vec<f32> = (0..plane)
        .map(|p| frame(&glyph, off0, p % cfg.width, p / cfg.width))
        .collect();

    for t in 0..cfg.steps {
        let u = t as f32 / cfg.steps.max(1) as f32;
        let off = saccade_offset(u, cfg.saccade_amplitude);
        for y in 0..cfg.height {
            for x in 0..cfg.width {
                let p = y * cfg.width + x;
                let brightness = frame(&glyph, off, x, y);
                let delta = brightness - reference[p];
                if delta > cfg.dvs_threshold {
                    events.push((t, p)); // ON event
                    reference[p] = brightness;
                } else if delta < -cfg.dvs_threshold {
                    events.push((t, plane + p)); // OFF event
                    reference[p] = brightness;
                }
                if cfg.noise_rate > 0.0 && rng.coin(cfg.noise_rate) {
                    let polarity = usize::from(rng.coin(0.5));
                    events.push((t, polarity * plane + p));
                }
            }
        }
    }
    SpikeRaster::from_events(cfg.steps, cfg.channels(), &events)
}

/// Generates a full labelled dataset (`samples_per_class` recordings of
/// each digit 0–9).
pub fn generate(cfg: &NmnistConfig, seed: u64) -> ClassDataset {
    let mut rng = Rng::seed_from(seed);
    let mut samples = Vec::with_capacity(cfg.samples_per_class * 10);
    for digit in 0..10 {
        for _ in 0..cfg.samples_per_class {
            samples.push((simulate_sample(digit, cfg, &mut rng), digit));
        }
    }
    ClassDataset::new(samples, 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_has_events() {
        let cfg = NmnistConfig::small();
        let mut rng = Rng::seed_from(1);
        let r = simulate_sample(3, &cfg, &mut rng);
        assert!(
            r.spike_count() > 10,
            "expected events, got {}",
            r.spike_count()
        );
        assert_eq!(r.channels(), cfg.channels());
        assert_eq!(r.steps(), cfg.steps);
    }

    #[test]
    fn both_polarities_fire() {
        let cfg = NmnistConfig::small();
        let mut rng = Rng::seed_from(2);
        let r = simulate_sample(8, &cfg, &mut rng);
        let plane = cfg.width * cfg.height;
        let counts = r.channel_counts();
        let on: f32 = counts[..plane].iter().sum();
        let off: f32 = counts[plane..].iter().sum();
        assert!(on > 0.0, "no ON events");
        assert!(off > 0.0, "no OFF events");
    }

    #[test]
    fn moving_edges_drive_events() {
        // Without motion (amplitude 0) almost nothing should fire.
        let mut still = NmnistConfig::small();
        still.saccade_amplitude = 0.0;
        still.noise_rate = 0.0;
        let mut rng = Rng::seed_from(3);
        let quiet = simulate_sample(5, &still, &mut rng);
        let mut moving = NmnistConfig::small();
        moving.noise_rate = 0.0;
        let loud = simulate_sample(5, &moving, &mut rng);
        assert!(loud.spike_count() > 10 * (quiet.spike_count() + 1));
    }

    #[test]
    fn spatial_signature_differs_between_digits() {
        // Rate profiles (per-channel counts) must differ between classes —
        // the property that makes this dataset rate-solvable.
        let cfg = NmnistConfig::small();
        let mut rng = Rng::seed_from(4);
        let a = simulate_sample(1, &cfg, &mut rng).channel_counts();
        let b = simulate_sample(0, &cfg, &mut rng).channel_counts();
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        let total: f32 = a.iter().sum::<f32>() + b.iter().sum::<f32>();
        assert!(
            diff / total > 0.2,
            "digit signatures too similar: {}",
            diff / total
        );
    }

    #[test]
    fn generate_is_deterministic_and_balanced() {
        let cfg = NmnistConfig {
            samples_per_class: 3,
            ..NmnistConfig::small()
        };
        let a = generate(&cfg, 9);
        let b = generate(&cfg, 9);
        assert_eq!(a.samples.len(), 30);
        assert_eq!(a.class_histogram(), vec![3; 10]);
        for ((ra, la), (rb, lb)) in a.samples.iter().zip(&b.samples) {
            assert_eq!(la, lb);
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = NmnistConfig {
            samples_per_class: 1,
            ..NmnistConfig::small()
        };
        let a = generate(&cfg, 1);
        let b = generate(&cfg, 2);
        assert!(a
            .samples
            .iter()
            .zip(&b.samples)
            .any(|((ra, _), (rb, _))| ra != rb));
    }

    #[test]
    fn saccade_path_is_closed_triangle() {
        let (x0, y0) = saccade_offset(0.0, 3.0);
        let (x1, y1) = saccade_offset(1.0, 3.0);
        assert!((x0 - x1).abs() < 0.05 && (y0 - y1).abs() < 0.05);
        // Midpoints are displaced.
        let (mx, _) = saccade_offset(0.17, 3.0);
        assert!(mx > 0.5);
    }
}
