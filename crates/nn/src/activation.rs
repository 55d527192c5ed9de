//! The activation functions, and the crate's own `exp` / `sigmoid` /
//! `tanh`.
//!
//! Nothing here calls the platform math library. [`exp`] is built from
//! operations that every IEEE-754 implementation — scalar or vector, any
//! width — rounds identically: an input clamp, round-to-integer by adding
//! and subtracting a magic constant, a two-constant `ln 2` reduction, a
//! fixed Horner polynomial and a `2^k` assembled in the exponent field. No
//! branch, no fused multiply-add, no `powi`. [`sigmoid`] and [`tanh`] are
//! single expressions over it. So a score is a function of this file alone:
//! the same bits in debug and release, on any host, whether the compiler
//! ran a loop scalar, four wide or eight wide (pinned by
//! `tests/activation_accuracy.rs`, which folds a fixed grid of outputs into
//! one constant checked in every profile).

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Activation {
    /// Logistic sigmoid `1/(1+e^-x)`.
    Sigmoid,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear output layer).
    Linear,
}

impl Activation {
    /// Applies the activation to one scalar — the per-element kernel of the
    /// fused bias+activation epilogue (see
    /// [`crate::Dense::forward_rows_into`]) and of the training forward:
    /// this module's [`sigmoid`] / [`tanh`], which training and inference
    /// share, so the two stay bit-identical.
    #[inline]
    pub fn eval(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid => sigmoid(x),
            Activation::Relu => x.max(0.0),
            Activation::Tanh => tanh(x),
            Activation::Linear => x,
        }
    }

    /// Applies the activation to every element of `xs` in place: the
    /// variant match is hoisted out of the loop, so each arm is a bare
    /// elementwise loop the compiler vectorizes whole — polynomial, divide
    /// and all. Element for element it is [`Activation::eval`], bit for bit,
    /// whatever the slice length (a vector body and its scalar tail perform
    /// the same IEEE operations).
    #[inline]
    pub fn apply(self, xs: &mut [f64]) {
        match self {
            Activation::Linear => {}
            Activation::Relu => xs.iter_mut().for_each(|x| *x = x.max(0.0)),
            Activation::Sigmoid => xs.iter_mut().for_each(|x| *x = sigmoid(*x)),
            Activation::Tanh => xs.iter_mut().for_each(|x| *x = tanh(*x)),
        }
    }

    /// Derivative with respect to the pre-activation, expressed in terms of
    /// the *activated* output `y = f(x)` (all four supported functions admit
    /// this form, which avoids caching pre-activations).
    #[inline]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Linear => 1.0,
        }
    }
}

/// `1.5 · 2^52`: adding it to `|v| < 2^51` leaves `round(v)` (ties to even)
/// in the low mantissa bits, and subtracting it again returns that integer
/// as a float — rounding without a `round` call (which is a libm call below
/// SSE4.1) and without a float→integer conversion.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split in two: the high part has its low 21 mantissa bits clear, so
/// `k · LN2_HI` is exact for every `|k| ≤ 1024` and the reduction
/// `x − k·ln 2` loses nothing to cancellation.
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// `ln(f64::MIN_POSITIVE)` and `ln(f64::MAX)`: the clamp keeps `2^k`
/// inside the exponent field.
const EXP_LO: f64 = -708.396_418_532_264_1;
const EXP_HI: f64 = 709.782_712_893_384;

/// The shared core of [`exp`] and [`tanh`]: returns `(k, r·q, 2^k)` with
/// `x = k·ln 2 + r`, `|r| ≤ ln 2 / 2` and `e^r = 1 + r·q`, so that
/// `e^x = (1 + r·q) · 2^k` — and, when `k = 0`, `e^x − 1 = r·q` without the
/// cancellation of subtracting one.
#[inline(always)]
fn exp_parts(x: f64) -> (f64, f64, f64) {
    let x = x.clamp(EXP_LO, EXP_HI);
    let t = x * std::f64::consts::LOG2_E + ROUND_MAGIC;
    let k = t - ROUND_MAGIC;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // q = Σ rⁿ/(n+1)! through n = 12 (Horner): e^r to degree 13, truncation
    // below 5e-18 relative at |r| = ln 2 / 2.
    let mut q = 1.0 / 6_227_020_800.0;
    q = 1.0 / 479_001_600.0 + r * q;
    q = 1.0 / 39_916_800.0 + r * q;
    q = 1.0 / 3_628_800.0 + r * q;
    q = 1.0 / 362_880.0 + r * q;
    q = 1.0 / 40_320.0 + r * q;
    q = 1.0 / 5_040.0 + r * q;
    q = 1.0 / 720.0 + r * q;
    q = 1.0 / 120.0 + r * q;
    q = 1.0 / 24.0 + r * q;
    q = 1.0 / 6.0 + r * q;
    q = 0.5 + r * q;
    q = 1.0 + r * q;
    // `t`'s low mantissa bits hold k in two's complement and the magic
    // constant's low 11 bits are clear, so (bits + 1023) << 52 is the
    // biased exponent of 2^k: k = 1024 gives +∞, k = −1022 the smallest
    // normal.
    let scale = f64::from_bits(t.to_bits().wrapping_add(1023) << 52);
    (k, r * q, scale)
}

/// `e^x` without the math library (see the module docs): relative error
/// below 4e-16 over the whole finite range. Saturates instead of going
/// subnormal — the smallest positive normal below `−708.39`, and `+∞` from
/// `709.44` (where `k` reaches 1024; libm holds on until `709.78`). `NaN`
/// stays `NaN`.
// `#[inline]` on the three public kernels: their callers include the
// activation loops of downstream crates, where a non-inline function is an
// opaque call the vectorizer cannot see through.
#[inline]
pub fn exp(x: f64) -> f64 {
    let (_, rq, scale) = exp_parts(x);
    (1.0 + rq) * scale
}

/// Logistic sigmoid `1/(1+e^−x)` over [`exp`], as a single expression: the
/// saturating `exp` makes it stable on the whole line (`+∞` gives exactly
/// 0, the smallest normal exactly 1), with no branch to stop a loop from
/// vectorizing.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + exp(-x))
}

/// Hyperbolic tangent as `m / (m + 2)` with `m = e^{2|x|} − 1`, sign
/// restored by `copysign` (so it is odd bit for bit and `tanh(±0) = ±0`).
/// Where the reduction of `2|x|` has `k = 0` — below `|x| ≈ 0.173` — `m` is
/// the polynomial's `r·q` directly, exact down to subnormal `x`; above,
/// `e − 1` has lost at most a few ULP. Both are computed and one selected,
/// branch-free.
#[inline]
pub fn tanh(x: f64) -> f64 {
    // tanh rounds to 1 from 19.07; the clamp keeps e^{2|x|} finite. Written
    // as a comparison so that NaN passes through.
    let a = x.abs();
    let a = if a > 20.0 { 20.0 } else { a };
    let (k, rq, scale) = exp_parts(a + a);
    let m = if k == 0.0 { rq } else { (1.0 + rq) * scale - 1.0 };
    (m / (m + 2.0)).copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert_eq!(sigmoid(0.0), 0.5);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!([-1.0, 0.0, 2.5].map(|x| Activation::Relu.eval(x)), [0.0, 0.0, 2.5]);
    }

    #[test]
    fn derivatives_match_numeric() {
        let points = [-2.0, -0.5, 0.1, 1.5];
        let eps = 1e-6;
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Linear] {
            for &p in &points {
                let analytic = act.derivative_from_output(act.eval(p));
                let numeric = (act.eval(p + eps) - act.eval(p - eps)) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-5,
                    "{act:?} at {p}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_from_output() {
        let d =
            [-1.0, 2.0].map(|x| Activation::Relu.derivative_from_output(Activation::Relu.eval(x)));
        assert_eq!(d, [0.0, 1.0]);
    }
}
