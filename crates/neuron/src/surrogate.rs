//! Pseudo-gradients for the Heaviside spike nonlinearity (paper eq. 14).

/// Surrogate derivative of the Heaviside step `U(v − Vth)`.
///
/// The true derivative is a Dirac delta, which blocks backpropagation;
/// the paper (following Neftci et al.) replaces it with the derivative of
/// a complementary error function:
///
/// ```text
/// U'(x) ≈ exp(−x² / 2σ²) / (√(2π)·σ)       (eq. 14)
/// ```
///
/// with sharpness `σ = 1/√(2π)` by default (Table I), which makes the
/// peak value exactly 1. Two alternatives are provided for the ablation
/// study: a rectangular window and the fast-sigmoid derivative.
///
/// # Numerics
///
/// [`grad`](Self::grad) is the scalar specification of the surrogate
/// the BPTT kernel evaluates (`lanes::adjoint_step` in `snn-tensor`
/// mirrors it operation for operation, in `f32x8` lanes on AVX2). The
/// Gaussian is `exp(k·x²)·peak` with `k = −0.5/σ²` and
/// `peak = 1/(√(2π)·σ)` resolved once, and its `exp` is the
/// repository's own rather than the host's `expf`: a Cody–Waite
/// reduction `x = n·ln 2 + r`, `|r| ≤ ln 2 / 2` (`n` rounded by the
/// `1.5·2²³` shifter, `ln 2` split in two so that `n·ln2_hi` is
/// exact), Cephes' degree-7 polynomial for `eʳ`, and `2ⁿ` assembled
/// from exponent bits in two factors, so a subnormal result is rounded
/// once. It uses separate multiplies and adds only, no fused
/// multiply-add and no libm call, so training gradients are the same
/// bits on every host. It stays within 2 ULP of the correctly rounded
/// `eˣ` on `[−104, 0]` (tested on a dense sweep; it reads at most 1
/// ULP there), returns exactly 1 at ±0, `+0.0` from −104 down to −∞
/// (arguments are clamped into `[−104, 88.72284]` first), `+∞` above
/// `ln(f32::MAX)`, and passes a quiet NaN through with its payload.
///
/// # Examples
///
/// ```
/// use snn_neuron::Surrogate;
///
/// let s = Surrogate::paper_default();
/// assert!((s.grad(0.0) - 1.0).abs() < 1e-6);  // peak at the threshold
/// assert!(s.grad(3.0) < s.grad(0.1));          // decays away from it
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Surrogate {
    /// Gaussian pseudo-derivative of erfc (the paper's choice); `sigma`
    /// controls sharpness.
    Erfc {
        /// Sharpness σ of eq. 14.
        sigma: f32,
    },
    /// Rectangular window: `1/(2w)` for `|x| < w`, else 0.
    Rect {
        /// Half-width of the window.
        width: f32,
    },
    /// Fast-sigmoid derivative `1 / (1 + k|x|)²`.
    FastSigmoid {
        /// Slope steepness k.
        slope: f32,
    },
}

impl Surrogate {
    /// The paper's Table I configuration: erfc surrogate with
    /// `σ = 1/√(2π)`.
    pub fn paper_default() -> Self {
        Self::Erfc {
            sigma: 1.0 / (std::f32::consts::TAU).sqrt(),
        }
    }

    /// Evaluates the pseudo-derivative at `x = v − Vth`.
    pub fn grad(&self, x: f32) -> f32 {
        match *self {
            Surrogate::Erfc { sigma } => {
                let s = sigma.max(1e-6);
                let k = -0.5 / (s * s);
                let peak = 1.0 / ((std::f32::consts::TAU).sqrt() * s);
                exp(x * x * k) * peak
            }
            Surrogate::Rect { width } => {
                let w = width.max(1e-6);
                if x.abs() < w {
                    0.5 / w
                } else {
                    0.0
                }
            }
            Surrogate::FastSigmoid { slope } => {
                let d = 1.0 + slope.max(0.0) * x.abs();
                1.0 / (d * d)
            }
        }
    }
}

/// `eˣ` from multiplies, adds, compares and exponent bits (see
/// [`Surrogate`]'s numerics section); `lanes::adjoint_step` in
/// `snn-tensor` holds the laned copy, which a `snn-core` test pins to
/// [`Surrogate::grad`] bit for bit.
fn exp(x: f32) -> f32 {
    // Past these the result leaves the f32 range: from the first f32
    // above ln(f32::MAX) it is +inf, and below −104 even the smallest
    // subnormal rounds to +0.0.
    const MAX_ARG: f32 = 88.722_84;
    const MIN_ARG: f32 = -104.0;
    // Adding 1.5·2²³ rounds |t| < 2²² to an integer in the low mantissa
    // bits; subtracting it again gives that integer as a float.
    const SHIFT: f32 = 12_582_912.0;
    // ln 2 = LN2_HI + LN2_LO, LN2_HI with 9 significant bits, so n·LN2_HI
    // is exact for every n this range produces (Cody–Waite).
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Cephes' expf: e^r ≈ 1 + r + r²·P(r) on |r| ≤ ln 2 / 2.
    const P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        0.166_666_65,
        0.5,
    ];
    // Clamped into range first (a NaN passes both compares and then
    // propagates): at MAX_ARG the result overflows to +inf, and at
    // MIN_ARG it rounds to +0.0.
    let x = if x < MIN_ARG { MIN_ARG } else { x };
    let x = if x > MAX_ARG { MAX_ARG } else { x };
    let shifted = x * std::f32::consts::LOG2_E + SHIFT;
    let n = shifted - SHIFT;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = P[0];
    for c in &P[1..] {
        p = p * r + c;
    }
    let y = (p * (r * r) + r) + 1.0;
    // 2ⁿ as 2^(n − n/2) · 2^(n/2): both factors are normal for every n
    // in range, the first product is exact, and the second rounds once.
    // (For a NaN, y is NaN and the wrapped integers are ignored.)
    let n = (shifted.to_bits() as i32).wrapping_sub(SHIFT.to_bits() as i32);
    let half = n >> 1;
    y * pow2(n.wrapping_sub(half)) * pow2(half)
}

/// `2ⁿ` for a normal exponent `n` (−126..=127), from its bits.
fn pow2(n: i32) -> f32 {
    f32::from_bits((n.wrapping_add(127) as u32) << 23)
}

impl Default for Surrogate {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_peak_is_one_at_paper_sigma() {
        let s = Surrogate::paper_default();
        assert!((s.grad(0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn erfc_is_symmetric_and_decaying() {
        let s = Surrogate::paper_default();
        assert!((s.grad(0.5) - s.grad(-0.5)).abs() < 1e-7);
        assert!(s.grad(0.0) > s.grad(0.5));
        assert!(s.grad(0.5) > s.grad(2.0));
        assert!(s.grad(10.0) < 1e-6);
    }

    #[test]
    fn erfc_integrates_to_one() {
        // The pseudo-derivative is a probability density: ∫ grad dx = 1.
        let s = Surrogate::paper_default();
        let dx = 0.001f32;
        let integral: f32 = (-8000..8000).map(|i| s.grad(i as f32 * dx) * dx).sum();
        assert!((integral - 1.0).abs() < 1e-3, "integral {integral}");
    }

    #[test]
    fn sharper_sigma_means_narrower_peak() {
        let narrow = Surrogate::Erfc { sigma: 0.1 };
        let wide = Surrogate::Erfc { sigma: 1.0 };
        assert!(narrow.grad(0.0) > wide.grad(0.0));
        assert!(narrow.grad(1.0) < wide.grad(1.0));
    }

    #[test]
    fn rect_window() {
        let s = Surrogate::Rect { width: 0.5 };
        assert_eq!(s.grad(0.0), 1.0);
        assert_eq!(s.grad(0.6), 0.0);
        // Integrates to one as well.
        let dx = 0.001f32;
        let integral: f32 = (-1000..1000).map(|i| s.grad(i as f32 * dx) * dx).sum();
        assert!((integral - 1.0).abs() < 1e-2);
    }

    #[test]
    fn fast_sigmoid_shape() {
        let s = Surrogate::FastSigmoid { slope: 10.0 };
        assert_eq!(s.grad(0.0), 1.0);
        assert!(s.grad(1.0) < 0.05);
        assert!((s.grad(1.0) - s.grad(-1.0)).abs() < 1e-7);
    }

    /// Distance in representable f32 steps between two non-negative
    /// floats (subnormals and zero included).
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn exp_is_within_two_ulp_of_the_rounded_exp() {
        // A dense sweep of [−104, 0] (about 2²¹ points) plus the
        // positive range, against f64's exp rounded to f32.
        let mut worst = (0u32, 0.0f32);
        let steps = 1 << 21;
        for i in 0..=steps {
            let x = -104.0 * (i as f64 / steps as f64) as f32;
            let d = ulps(exp(x), (x as f64).exp() as f32);
            if d > worst.0 {
                worst = (d, x);
            }
        }
        assert!(worst.0 <= 2, "{} ULP at x = {}", worst.0, worst.1);
        for i in 0..=1 << 16 {
            let x = 88.0 * (i as f32 / 65536.0);
            let d = ulps(exp(x), (x as f64).exp() as f32);
            assert!(d <= 2, "{d} ULP at x = {x}");
        }
    }

    #[test]
    fn exp_special_values_are_exact() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(-104.001).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(-1e30).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(88.73), f32::INFINITY);
        assert!(exp(88.72).is_finite());
        let nan = f32::from_bits(0x7fc0_1234);
        assert_eq!(exp(nan).to_bits(), nan.to_bits());
        assert!(exp(-f32::NAN).is_nan());
    }

    #[test]
    fn exp_underflow_tail_is_pinned() {
        // Below ln(f32::MIN_POSITIVE) ≈ −87.34 the results are
        // subnormal and rounded once; from about −103.97 (2⁻¹⁵⁰) they
        // round to +0.0. Each pinned value is the correctly rounded eˣ,
        // so a change to the reduction or the scaling shows here first.
        for (x, bits) in [
            (-87.0f32, 0x00b3_3687u32),
            (-87.5, 0x006c_b2bc),
            (-90.0, 0x0008_ec28),
            (-100.0, 0x0000_001b),
            (-103.0, 0x0000_0001),
            (-103.97, 0x0000_0001),
            (-103.98, 0x0000_0000),
            (-104.0, 0x0000_0000),
        ] {
            assert_eq!(exp(x).to_bits(), bits, "exp({x}) = {:e}", exp(x));
        }
        // Non-increasing toward −104 at every float of the tail.
        let mut x = -87.0f32;
        let mut last = exp(x);
        while x > -104.0 {
            x = f32::from_bits(x.to_bits() + 64);
            let y = exp(x);
            assert!(y <= last, "exp rose at {x}");
            last = y;
        }
    }

    #[test]
    fn all_variants_finite_everywhere() {
        for s in [
            Surrogate::Erfc { sigma: 1e-9 },
            Surrogate::Rect { width: 0.0 },
            Surrogate::FastSigmoid { slope: -1.0 },
        ] {
            for x in [-1e6f32, -1.0, 0.0, 1.0, 1e6] {
                assert!(s.grad(x).is_finite(), "{s:?} at {x}");
            }
        }
    }
}
