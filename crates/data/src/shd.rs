//! Synthetic Spiking Heidelberg Digits: auditory-style spike trains whose
//! class identity lives in spike *timing*.
//!
//! The real SHD converts spoken digits (English + German) through an
//! artificial inner-ear model into 700 spike trains; Cramer et al. showed
//! that spike timing is essential for it. We reproduce that property by
//! construction: each class is a sequence of formant-like channel sweeps,
//! and classes come in **time-reversed pairs** — class `2k+1` replays the
//! exact segments of class `2k` in reverse temporal order. Paired classes
//! therefore have *identical per-channel spike counts in expectation*, so
//! any model limited to rate statistics (hard-reset LIF included, per the
//! paper's Table II ablation) cannot tell them apart; only temporal
//! dynamics can.

use crate::ClassDataset;
use snn_core::SpikeRaster;
use snn_tensor::Rng;

/// One formant-like sweep: a band of channels whose centre moves linearly
/// during an activity window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    /// Centre channel at segment start (fraction of the channel range).
    c_start: f32,
    /// Centre channel at segment end (fraction).
    c_end: f32,
    /// Window start (fraction of the sample duration).
    t_start: f32,
    /// Window length (fraction).
    t_len: f32,
    /// Gaussian half-width of the band, in channels.
    width: f32,
    /// Peak firing probability at the band centre.
    intensity: f32,
}

/// How the time-reversed partner of each class pair is constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairMode {
    /// Mirror the whole word in time: segment windows and sweep
    /// directions are both reversed. Local chirp direction then differs
    /// between the pair, so models with even a few steps of memory can
    /// separate them.
    Mirror,
    /// Permute only the segment *order*: each segment plays forward
    /// internally (identical local structure); only the long-range
    /// arrangement differs. Separating the pair then requires temporal
    /// memory spanning segment boundaries — the regime where the paper's
    /// hard-reset ablation collapses.
    PermuteOrder,
}

/// Generator configuration for synthetic SHD.
#[derive(Debug, Clone)]
pub struct ShdConfig {
    /// Number of cochlear channels (700 in the real dataset).
    pub channels: usize,
    /// Timesteps per sample.
    pub steps: usize,
    /// Number of classes; must be even (classes are reversed pairs) and
    /// at most 20.
    pub classes: usize,
    /// Samples generated per class.
    pub samples_per_class: usize,
    /// Background noise spikes per channel per step.
    pub noise_rate: f32,
    /// Per-spike timing jitter (std, in steps).
    pub time_jitter: f32,
    /// Probability that an intended spike is dropped.
    pub dropout: f32,
    /// How class pairs are built (see [`PairMode`]).
    pub pair_mode: PairMode,
    /// Seed defining the class signatures themselves (kept fixed so that
    /// "digit three" means the same thing across datasets).
    pub class_seed: u64,
}

impl ShdConfig {
    /// Paper-scale configuration: 700 channels, 20 classes.
    pub fn paper() -> Self {
        Self {
            channels: 700,
            steps: 100,
            classes: 20,
            samples_per_class: 100,
            noise_rate: 5e-4,
            time_jitter: 1.0,
            dropout: 0.05,
            pair_mode: PairMode::PermuteOrder,
            class_seed: 0xC0C1EA,
        }
    }

    /// A reduced configuration for fast tests and CI.
    pub fn small() -> Self {
        Self {
            channels: 64,
            steps: 50,
            classes: 10,
            samples_per_class: 8,
            noise_rate: 2e-4,
            time_jitter: 0.5,
            dropout: 0.02,
            pair_mode: PairMode::PermuteOrder,
            class_seed: 0xC0C1EA,
        }
    }
}

impl Default for ShdConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Builds the segment list for every class. Classes `2k` and `2k+1`
/// share segments; the odd class's windows are mirrored in time.
fn class_signatures(cfg: &ShdConfig) -> Vec<Vec<Segment>> {
    assert!(
        cfg.classes >= 2 && cfg.classes.is_multiple_of(2),
        "classes must be even and >= 2, got {}",
        cfg.classes
    );
    assert!(cfg.classes <= 20, "at most 20 classes, got {}", cfg.classes);
    let mut rng = Rng::seed_from(cfg.class_seed);
    let words = cfg.classes / 2;
    let mut signatures = Vec::with_capacity(cfg.classes);
    for _ in 0..words {
        let n_seg = 3 + rng.below(2); // 3-4 syllables
        let mut segments = Vec::with_capacity(n_seg);
        for s in 0..n_seg {
            let t_start = s as f32 / n_seg as f32 + rng.uniform(0.0, 0.25 / n_seg as f32);
            let t_len = rng.uniform(0.5, 0.9) / n_seg as f32;
            segments.push(Segment {
                c_start: rng.uniform(0.1, 0.9),
                c_end: rng.uniform(0.1, 0.9),
                t_start,
                t_len,
                width: rng.uniform(0.01, 0.04) * cfg.channels as f32 + 1.0,
                intensity: rng.uniform(0.5, 0.9),
            });
        }
        // Forward word.
        signatures.push(segments.clone());
        // The rate-identical partner class.
        let partner = match cfg.pair_mode {
            // Time-mirrored word: same sweeps, reversed schedule. Each
            // segment's window [t, t+len] maps to [1−t−len, 1−t] and its
            // sweep direction flips, so per-channel occupancy is
            // unchanged.
            PairMode::Mirror => segments
                .iter()
                .map(|seg| Segment {
                    c_start: seg.c_end,
                    c_end: seg.c_start,
                    t_start: 1.0 - seg.t_start - seg.t_len,
                    ..*seg
                })
                .collect(),
            // Order-permuted word: the i-th segment plays in the window
            // slot of segment (n−1−i) but keeps its own sweep and length,
            // so every *local* feature is shared with the forward word
            // and only the long-range order differs.
            PairMode::PermuteOrder => {
                let n = segments.len();
                (0..n)
                    .map(|i| Segment {
                        t_start: segments[n - 1 - i].t_start,
                        ..segments[i]
                    })
                    .collect()
            }
        };
        signatures.push(partner);
    }
    signatures
}

/// True if `label` is the time-reversed member of its class pair.
pub fn is_reversed_class(label: usize) -> bool {
    label % 2 == 1
}

/// The partner class that differs only in temporal order.
pub fn paired_class(label: usize) -> usize {
    label ^ 1
}

/// Generates one sample of `label`.
///
/// # Panics
///
/// Panics if `label >= cfg.classes`.
pub fn simulate_sample(label: usize, cfg: &ShdConfig, rng: &mut Rng) -> SpikeRaster {
    let signatures = class_signatures(cfg);
    assert!(
        label < signatures.len(),
        "label {label} out of range {}",
        signatures.len()
    );
    sample_from_signature(&signatures[label], cfg, rng)
}

fn sample_from_signature(segments: &[Segment], cfg: &ShdConfig, rng: &mut Rng) -> SpikeRaster {
    let mut events = Vec::new();
    // Speaker-like global warps.
    let warp = rng.uniform(0.92, 1.08);
    let channel_shift = rng.uniform(-0.02, 0.02) * cfg.channels as f32;

    for seg in segments {
        let t0 = (seg.t_start * warp).clamp(0.0, 0.98);
        let t1 = (t0 + seg.t_len * warp).clamp(t0 + 0.01, 1.0);
        let step0 = (t0 * cfg.steps as f32) as usize;
        let step1 = ((t1 * cfg.steps as f32) as usize).min(cfg.steps);
        let span = (step1.saturating_sub(step0)).max(1);
        for (i, t) in (step0..step1).enumerate() {
            let u = i as f32 / span as f32;
            let centre =
                (seg.c_start + u * (seg.c_end - seg.c_start)) * cfg.channels as f32 + channel_shift;
            let w = seg.width;
            let lo = ((centre - 3.0 * w).floor().max(0.0)) as usize;
            let hi = ((centre + 3.0 * w).ceil() as usize).min(cfg.channels.saturating_sub(1));
            for c in lo..=hi.min(cfg.channels - 1) {
                let z = (c as f32 - centre) / w;
                let p = seg.intensity * (-0.5 * z * z).exp();
                if rng.coin(p) && !rng.coin(cfg.dropout) {
                    // Per-spike timing jitter.
                    let tj = (t as f32 + rng.normal_with(0.0, cfg.time_jitter)).round();
                    if tj >= 0.0 && (tj as usize) < cfg.steps {
                        events.push((tj as usize, c));
                    }
                }
            }
        }
    }
    // Background noise.
    if cfg.noise_rate > 0.0 {
        for t in 0..cfg.steps {
            for c in 0..cfg.channels {
                if rng.coin(cfg.noise_rate) {
                    events.push((t, c));
                }
            }
        }
    }
    SpikeRaster::from_events(cfg.steps, cfg.channels, &events)
}

/// Generates a full labelled dataset.
pub fn generate(cfg: &ShdConfig, seed: u64) -> ClassDataset {
    let signatures = class_signatures(cfg);
    let mut rng = Rng::seed_from(seed);
    let mut samples = Vec::with_capacity(cfg.samples_per_class * cfg.classes);
    for (label, signature) in signatures.iter().enumerate() {
        for _ in 0..cfg.samples_per_class {
            samples.push((sample_from_signature(signature, cfg, &mut rng), label));
        }
    }
    ClassDataset::new(samples, cfg.classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn_tensor::stats;

    #[test]
    fn samples_have_structure() {
        let cfg = ShdConfig::small();
        let mut rng = Rng::seed_from(1);
        let r = simulate_sample(0, &cfg, &mut rng);
        assert!(r.spike_count() > 20, "too few spikes: {}", r.spike_count());
        assert!(r.mean_rate() < 0.5, "raster almost saturated");
    }

    #[test]
    fn paired_classes_share_rate_profile() {
        // The defining property: classes 2k and 2k+1 must have nearly
        // identical expected per-channel counts.
        let cfg = ShdConfig {
            samples_per_class: 1,
            time_jitter: 0.0,
            dropout: 0.0,
            noise_rate: 0.0,
            ..ShdConfig::small()
        };
        let mut fwd_counts = vec![0.0f32; cfg.channels];
        let mut rev_counts = vec![0.0f32; cfg.channels];
        // Average over many stochastic draws of the same signatures.
        for s in 0..40 {
            let mut rng = Rng::seed_from(1000 + s);
            let f = simulate_sample(0, &cfg, &mut rng);
            let mut rng = Rng::seed_from(1000 + s);
            let r = simulate_sample(1, &cfg, &mut rng);
            for (acc, x) in fwd_counts.iter_mut().zip(f.channel_counts()) {
                *acc += x;
            }
            for (acc, x) in rev_counts.iter_mut().zip(r.channel_counts()) {
                *acc += x;
            }
        }
        let total: f32 = fwd_counts.iter().sum::<f32>() + rev_counts.iter().sum::<f32>();
        let diff: f32 = fwd_counts
            .iter()
            .zip(&rev_counts)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff / total < 0.25,
            "paired classes should be rate-similar; relative diff {}",
            diff / total
        );
    }

    #[test]
    fn paired_classes_differ_in_time() {
        // Temporal centroid (mean spike time) must differ between the
        // forward and reversed member for at least some channels.
        let cfg = ShdConfig {
            time_jitter: 0.0,
            dropout: 0.0,
            noise_rate: 0.0,
            ..ShdConfig::small()
        };
        let mut rng = Rng::seed_from(5);
        let f = simulate_sample(0, &cfg, &mut rng);
        let r = simulate_sample(1, &cfg, &mut rng);
        let centroid = |raster: &SpikeRaster| {
            let events = raster.events();
            let times: Vec<f32> = events.iter().map(|&(t, _)| t as f32).collect();
            stats::mean(&times)
        };
        // Overall activity occupies the full duration for both, but the
        // channel-resolved timing differs; test with a coarse statistic:
        // per-channel first-spike times.
        let first_spike = |raster: &SpikeRaster, c: usize| {
            (0..raster.steps())
                .find(|&t| raster.get(t, c))
                .map(|t| t as f32)
        };
        let mut diffs = 0;
        let mut compared = 0;
        for c in 0..cfg.channels {
            if let (Some(a), Some(b)) = (first_spike(&f, c), first_spike(&r, c)) {
                compared += 1;
                if (a - b).abs() > 3.0 {
                    diffs += 1;
                }
            }
        }
        assert!(compared > 5, "not enough shared channels");
        assert!(
            diffs as f32 / compared as f32 > 0.3,
            "first-spike times too similar: {diffs}/{compared}"
        );
        let _ = centroid; // coarse statistic retained for debugging
    }

    #[test]
    fn class_helpers() {
        assert!(!is_reversed_class(0));
        assert!(is_reversed_class(1));
        assert_eq!(paired_class(4), 5);
        assert_eq!(paired_class(5), 4);
    }

    #[test]
    fn generate_is_balanced_and_deterministic() {
        let cfg = ShdConfig {
            samples_per_class: 2,
            ..ShdConfig::small()
        };
        let a = generate(&cfg, 3);
        let b = generate(&cfg, 3);
        assert_eq!(a.samples.len(), 2 * cfg.classes);
        assert_eq!(a.class_histogram(), vec![2; cfg.classes]);
        for ((ra, _), (rb, _)) in a.samples.iter().zip(&b.samples) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn signatures_stable_under_dataset_seed() {
        // The class definitions come from class_seed, not the sample seed.
        let cfg = ShdConfig::small();
        let s1 = class_signatures(&cfg);
        let s2 = class_signatures(&cfg);
        assert_eq!(s1.len(), cfg.classes);
        assert_eq!(s1[0], s2[0]);
    }

    #[test]
    fn different_words_have_different_signatures() {
        let cfg = ShdConfig::small();
        let sigs = class_signatures(&cfg);
        assert_ne!(sigs[0], sigs[2]);
    }

    #[test]
    #[should_panic(expected = "classes must be even")]
    fn odd_class_count_panics() {
        let cfg = ShdConfig {
            classes: 5,
            ..ShdConfig::small()
        };
        class_signatures(&cfg);
    }

    #[test]
    #[should_panic(expected = "label")]
    fn label_out_of_range_panics() {
        let cfg = ShdConfig::small();
        let mut rng = Rng::seed_from(0);
        simulate_sample(99, &cfg, &mut rng);
    }
}
