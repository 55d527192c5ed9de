//! The `f32` wide lane behind [`Precision::F32Wide`].
//!
//! The inference kernels of this crate are written once over a
//! [`Lane`]; this module is the `f32` instantiation. It trades the crate's
//! bitwise-f64 reproducibility contract for lane width: twice the elements
//! per vector in the broadcast matmul and in the activation passes, an
//! eight-lane dot product ([`dot_f32`]) for narrow heads, and a degree-6
//! polynomial `exp` ([`fast_exp_f32`]) under its sigmoid and tanh where the
//! `f64` lane needs degree 13 — all plain Rust that `-C target-cpu=native`
//! compiles to full-width SIMD, no intrinsics. Both lanes' activations are
//! branch-free polynomial kernels with no libm call (the `f64` ones live in
//! [`crate::activation`]); what this lane gives up is digits, not
//! determinism. The lane structure is fixed by the *code*, not the hardware
//! vector width, so f32 results are still deterministic across hosts and
//! independent of how a batch was cut — they are just not the f64 results.
//! Consumers opt in per run via [`Precision`]; the default everywhere stays
//! [`Precision::F64Bitwise`], and the f32 mode is covered by the
//! epsilon-parity contract pinned in `tests/epsilon_parity.rs` instead of
//! the score digests.
//!
//! What it buys is measured, not assumed (147 k-packet runs per cell, see
//! the README table): ~1.7× on HELAD at every call shape, because HELAD's
//! time is activations and the 100→50→100 autoencoder, both of which scale
//! with lane width; ~1.25× on Kitsune once batches reach the stream batch
//! size, and a few percent on its one-row calls — there the narrowing and
//! the scalar tails of 7–10-wide layers eat what the wider lanes return.

use crate::dense::{Frozen, Snapshot};
use crate::lane::Lane;
use crate::matrix::Mat;

/// Numeric mode of the inference kernels, selected per run.
///
/// Models snapshot their weights into the selected lane at freeze time
/// (see [`crate::Dense::freeze`]); any training step afterwards drops the
/// snapshot, so stale weights can never be consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Blocked `f64` kernels with a fixed accumulation order:
    /// bitwise-reproducible scores (the digest contract). The default.
    #[default]
    F64Bitwise,
    /// `f32` kernels: twice the lane width and a shorter activation
    /// polynomial, under the epsilon-parity contract (per-detector relative
    /// error bound + identical threshold decisions, pinned by
    /// `tests/epsilon_parity.rs`). Pays on HELAD at any call shape and on
    /// Kitsune at stream batch sizes; on Kitsune's one-row calls it is
    /// within a few percent of `f64` (measured in the README's "Wide
    /// lanes" section).
    F32Wide,
}

impl Precision {
    /// Short lowercase label (`"f64"` / `"f32"`) for bench rows and logs.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F64Bitwise => "f64",
            Precision::F32Wide => "f32",
        }
    }
}

/// A dense row-major `f32` matrix: the wide-lane instantiation of
/// [`Mat`], with the same grow-only scratch contract as [`crate::Matrix`].
pub type MatrixF32 = Mat<f32>;

/// Number of explicit accumulator lanes in the f32 kernels. Eight `f32`
/// lanes fill one AVX2 register (or half an AVX-512 register, which the
/// compiler then double-pumps); the reduction order over the lanes is fixed
/// by `reduce_lanes`, so results do not depend on the host vector width.
pub const LANES: usize = 8;

/// Fixed-order reduction of the eight accumulator lanes (pairwise tree, the
/// order a horizontal vector add performs).
#[inline]
fn reduce_lanes(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// Eight-lane dot product: the lane-chunked kernel of the wide narrow-head
/// path. Accumulates `chunks_exact(8)` into `[f32; 8]` (one vector FMA-free
/// multiply-add per chunk once vectorized), reduces the lanes in a fixed
/// pairwise order, then folds the scalar remainder — deterministic on any
/// host.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut sum = reduce_lanes(acc);
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        sum += x * y;
    }
    sum
}

/// `out = a · b` in the wide lane — a monomorphic name for
/// [`Mat::matmul_into`] at `f32`, kept for callers that time the kernel by
/// name.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn matmul_f32_into(a: &MatrixF32, b: &MatrixF32, out: &mut MatrixF32) {
    a.matmul_into(b, out);
}

// ---------------------------------------------------------------------------
// Vectorizable f32 activations.
// ---------------------------------------------------------------------------

/// `1.5 · 2^23`: the `f32` twin of the `f64` lane's rounding constant —
/// adding it leaves `round(v)` in the low mantissa bits, subtracting it
/// returns that integer as a float.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// The shared core of [`fast_exp_f32`] and [`fast_tanh_f32`], shaped like
/// the `f64` lane's: returns `(k, r·q, 2^k)` with `x = k·ln 2 + r`,
/// `|r| ≤ ln 2 / 2` and `e^r = 1 + r·q`.
#[inline(always)]
fn exp_parts_f32(x: f32) -> (f32, f32, f32) {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    // ln2 split hi/lo so `x - k·ln2` keeps extra bits of the reduction.
    // The hi part is written out in full: 0.693359375 is 0x1.63p-1,
    // exactly representable, which is the whole point of the split.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Saturation bounds of finite f32 exp.
    const HI: f32 = 88.722_84;
    const LO: f32 = -87.336_54;
    let x = x.clamp(LO, HI);
    let t = x * LOG2_E + ROUND_MAGIC;
    let k = t - ROUND_MAGIC;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // e^r ≈ Σ rⁿ/n! through n = 6 (Horner), |r| ≤ ln2/2: truncation
    // ~1e-7 relative, below the f32 rounding of the evaluation itself.
    let q = 1.0
        + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0 + r * (1.0 / 720.0)))));
    // 2^k via the exponent field; k ∈ [-126, 128] after the clamp, and the
    // magic constant's low 8 bits are clear.
    let scale = f32::from_bits(t.to_bits().wrapping_add(127) << 23);
    (k, r * q, scale)
}

/// `exp(x)` for `f32` from pure arithmetic (no libm call): range-reduce to
/// `x = k·ln2 + r` with `|r| ≤ ln2/2`, evaluate a degree-6 polynomial for
/// `exp(r)`, and scale by `2^k` through the exponent bits. Every operation
/// has a vector equivalent, so activation loops calling this vectorize
/// end-to-end. Relative error below 1e-6 at every `f32` argument (bounded,
/// like the sigmoid and tanh over it, by `tests/activation_accuracy.rs`).
/// Out-of-range inputs saturate: `+∞` above, the smallest positive normal
/// below (the input clamp keeps `2^k` representable).
#[inline]
pub fn fast_exp_f32(x: f32) -> f32 {
    let (_, rq, scale) = exp_parts_f32(x);
    (1.0 + rq) * scale
}

/// Logistic sigmoid over [`fast_exp_f32`], single-expression form. The
/// saturating exp makes it stable across the whole line — `+∞` below the
/// clamp gives exactly 0, the smallest positive normal above gives exactly
/// 1 — and with one exp and no branch the activation loops vectorize
/// end-to-end.
#[inline]
pub fn sigmoid_f32(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp_f32(-x))
}

/// Hyperbolic tangent over the same polynomial, the `f64` lane's
/// formulation: `m / (m + 2)` with `m = e^{2|x|} − 1`, taken from the
/// polynomial's `r·q` where the reduction has `k = 0` (so nothing cancels
/// near zero) and from `e − 1` above, sign restored by `copysign`. Relative
/// error below 1e-6 (bounded by `tests/activation_accuracy.rs`).
#[inline]
pub fn fast_tanh_f32(x: f32) -> f32 {
    // tanh rounds to 1 from 9.02; the clamp keeps e^{2|x|} finite. Written
    // as a comparison so that NaN passes through.
    let a = x.abs();
    let a = if a > 10.0 { 10.0 } else { a };
    let (k, rq, scale) = exp_parts_f32(a + a);
    let m = if k == 0.0 { rq } else { (1.0 + rq) * scale - 1.0 };
    (m / (m + 2.0)).copysign(x)
}

/// The wide lane: eight-lane dot, polynomial-`exp` sigmoid and tanh.
impl Lane for f32 {
    const ZERO: f32 = 0.0;
    const TILE: usize = 512;

    #[inline]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }

    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline]
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        dot_f32(a, b)
    }

    #[inline]
    fn sigmoid(self) -> f32 {
        sigmoid_f32(self)
    }

    #[inline]
    fn tanh(self) -> f32 {
        fast_tanh_f32(self)
    }

    #[inline]
    fn relu(self) -> f32 {
        self.max(0.0)
    }

    fn frozen(snapshot: &Snapshot) -> Option<&Frozen<f32>> {
        snapshot.f32.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn matrix_f32_converts_and_reshapes() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut w = MatrixF32::from_f64(&m);
        assert_eq!((w.rows(), w.cols()), (2, 2));
        assert_eq!(w.row(1), &[3.0, 4.0]);
        w.reshape(1, 2);
        assert_eq!(w.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn lane_dot_matches_f64_reference() {
        for len in [1, 3, 7, 8, 9, 16, 31, 100] {
            let a = Matrix::xavier(1, len, len as u64);
            let b = Matrix::xavier(1, len, (len + 77) as u64);
            let a32: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
            let b32: Vec<f32> = b.as_slice().iter().map(|&v| v as f32).collect();
            let reference: f64 = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| x * y).sum();
            let wide = dot_f32(&a32, &b32) as f64;
            assert!(
                (wide - reference).abs() <= 1e-4 * reference.abs().max(1.0),
                "len {len}: {wide} vs {reference}"
            );
        }
    }

    #[test]
    fn lane_matmul_matches_f64_reference() {
        for (m, k, n) in [(1, 1, 1), (1, 100, 75), (3, 5, 7), (4, 8, 4), (2, 9, 13), (7, 4, 1)] {
            let a = Matrix::xavier(m, k, (m * 100 + k * 10 + n) as u64);
            let b = Matrix::xavier(k, n, (n * 100 + k) as u64);
            let reference = a.matmul(&b);
            let (a32, b32) = (MatrixF32::from_f64(&a), MatrixF32::from_f64(&b));
            let mut out = MatrixF32::default();
            matmul_f32_into(&a32, &b32, &mut out);
            assert_eq!((out.rows(), out.cols()), (m, n));
            for i in 0..m {
                for j in 0..n {
                    let (r, w) = (reference.get(i, j), f64::from(out.get(i, j)));
                    assert!(
                        (w - r).abs() <= 1e-4 * r.abs().max(1.0),
                        "({m}x{k}x{n}) at ({i},{j}): {w} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn precision_labels() {
        assert_eq!(Precision::default(), Precision::F64Bitwise);
        assert_eq!(Precision::F64Bitwise.label(), "f64");
        assert_eq!(Precision::F32Wide.label(), "f32");
    }
}
