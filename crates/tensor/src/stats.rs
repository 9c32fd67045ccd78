//! Small statistics and activation helpers shared by training and
//! evaluation code.

/// Numerically-stable softmax over a slice.
///
/// Returns a probability vector that sums to 1 (up to rounding). An empty
/// input yields an empty output.
///
/// # Examples
///
/// ```
/// let p = snn_tensor::stats::softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    softmax_into(logits, &mut out);
    out
}

/// [`softmax`] into a caller-owned buffer, reusing its capacity — the
/// allocation-free form used by serving hot paths.
pub fn softmax_into(logits: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend_from_slice(logits);
    softmax_in_place(out);
}

/// [`softmax`] in place: `x` holds the logits on entry and the
/// probabilities on exit.
pub fn softmax_in_place(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    for v in x.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f32 = x.iter().sum();
    for p in x.iter_mut() {
        *p /= sum;
    }
}

/// Index of the maximum element (first wins on ties); `None` for empty input.
pub fn argmax(values: &[f32]) -> Option<usize> {
    values
        .iter()
        .enumerate()
        .fold(None, |best: Option<(usize, f32)>, (i, &v)| match best {
            Some((_, bv)) if bv >= v => best,
            _ => Some((i, v)),
        })
        .map(|(i, _)| i)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

/// Population variance; 0 for an empty slice.
pub fn variance(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|x| (x - m).powi(2)).sum::<f32>() / values.len() as f32
}

/// Population standard deviation.
pub fn std_dev(values: &[f32]) -> f32 {
    variance(values).sqrt()
}

/// Cross-entropy `-log p[target]`, with probability floor for stability.
///
/// # Panics
///
/// Panics if `target >= probs.len()`.
pub fn cross_entropy(probs: &[f32], target: usize) -> f32 {
    assert!(
        target < probs.len(),
        "target {target} out of range {}",
        probs.len()
    );
    -probs[target].max(1e-12).ln()
}

/// Fraction of `(prediction, label)` pairs that agree.
pub fn accuracy(pairs: &[(usize, usize)]) -> f32 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs.iter().filter(|(p, l)| p == l).count() as f32 / pairs.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[0.1, 2.0, -1.0, 0.5]);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_inputs() {
        let p = softmax(&[1000.0, 0.0]);
        assert!((p[0] - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_into_reuses_buffer_and_matches() {
        let mut buf = Vec::with_capacity(8);
        softmax_into(&[0.3, -1.0, 2.0], &mut buf);
        assert_eq!(buf, softmax(&[0.3, -1.0, 2.0]));
        let cap = buf.capacity();
        softmax_into(&[1.0, 1.0], &mut buf);
        assert_eq!(buf.capacity(), cap, "no reallocation on refill");
        assert!((buf[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn argmax_basic_and_tie() {
        assert_eq!(argmax(&[0.0, 3.0, 1.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn mean_variance_known_values() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&v) - 2.5).abs() < 1e-6);
        assert!((variance(&v) - 1.25).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_zero() {
        let loss = cross_entropy(&[0.0, 1.0], 1);
        assert!(loss.abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_floors_zero_probability() {
        let loss = cross_entropy(&[1.0, 0.0], 1);
        assert!(loss.is_finite());
        assert!(loss > 20.0);
    }

    #[test]
    fn accuracy_counts() {
        assert_eq!(accuracy(&[(1, 1), (2, 0), (3, 3), (0, 0)]), 0.75);
        assert_eq!(accuracy(&[]), 0.0);
    }
}
