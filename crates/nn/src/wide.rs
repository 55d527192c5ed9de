//! The `f32` instantiation of [`Mat`] and its matmul.
//!
//! No model scores in `f32`. These stay only because the repository
//! benchmark times [`matmul_f32_into`] for its `nn.matmul_gflops_f32` row.

use crate::lane::Lane;
use crate::matrix::Mat;

/// A dense row-major `f32` matrix, with the same grow-only scratch contract
/// as [`crate::Matrix`].
pub type MatrixF32 = Mat<f32>;

/// `out = a · b` in `f32` — a monomorphic name for [`Mat::matmul_into`],
/// kept for the benchmark that times the kernel by name.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn matmul_f32_into(a: &MatrixF32, b: &MatrixF32, out: &mut MatrixF32) {
    a.matmul_into(b, out);
}

impl Lane for f32 {
    const ZERO: f32 = 0.0;
    const TILE: usize = 512;

    #[inline]
    fn from_f64(v: f64) -> f32 {
        v as f32
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
}
