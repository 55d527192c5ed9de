use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::lane::Lane;

/// A dense row-major matrix over a [`Lane`] scalar. Every model uses the
/// `f64` instantiation, [`Matrix`]; [`crate::MatrixF32`] exists only for the
/// benchmark's kernel timing.
///
/// Shape, [`Mat::reshape`]-style scratch reuse, [`Mat::push_row`] staging
/// and [`Mat::matmul_into`] are generic; the constructors and the training
/// kernels (`Xᵀ·δ`, `δ·Wᵀ`) exist for `f64` only.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat<L: Lane> {
    rows: usize,
    cols: usize,
    data: Vec<L>,
}

/// A dense row-major `f64` matrix.
///
/// Sized for the small networks this workspace trains (tens to a few hundred
/// units per layer); operations are straightforward loops that the compiler
/// auto-vectorizes adequately in release builds.
///
/// # Examples
///
/// ```
/// use idsbench_nn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// assert_eq!(a.matmul(&b), a);
/// ```
pub type Matrix = Mat<f64>;

impl<L: Lane> Mat<L> {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![L::ZERO; rows * cols] }
    }

    /// Converts an `f64` matrix into this lane.
    pub fn from_f64(m: &Matrix) -> Self {
        Mat { rows: m.rows, cols: m.cols, data: m.data.iter().map(|&v| L::from_f64(v)).collect() }
    }

    /// Reshapes this matrix to `rows × cols`, reusing the existing
    /// allocation. Contents are unspecified afterwards; the buffer only
    /// grows, never shrinks its capacity — the scratch-space contract that
    /// makes repeated inference allocation-free once every shape has been
    /// seen.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, L::ZERO);
    }

    /// Reshapes to `rows × cols` and zeroes every element.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.reshape(rows, cols);
        self.data.fill(L::ZERO);
    }

    /// Empties the matrix to `0 × cols`, keeping the allocation: the start
    /// of a staging pass that appends one row per sample with
    /// [`Mat::push_row`] when the row count is not known up front.
    pub fn start_rows(&mut self, cols: usize) {
        self.rows = 0;
        self.cols = cols;
        self.data.clear();
    }

    /// Appends one row of `f64` values — how callers stage feature rows
    /// for the batch-of-rows inference entry points. Allocation-free once
    /// the backing store has held this many rows.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not yield exactly [`Mat::cols`] elements.
    pub fn push_row(&mut self, values: impl IntoIterator<Item = f64>) {
        self.data.extend(values.into_iter().map(L::from_f64));
        self.rows += 1;
        assert_eq!(self.data.len(), self.rows * self.cols, "row width mismatch");
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> L {
        assert!(row < self.rows && col < self.cols, "index ({row},{col}) out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: L) {
        assert!(row < self.rows && col < self.cols, "index ({row},{col}) out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// The elements of row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[L] {
        assert!(row < self.rows, "row {row} out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable view of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [L] {
        assert!(row < self.rows, "row {row} out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// All elements in row-major order.
    pub fn as_slice(&self) -> &[L] {
        &self.data
    }

    /// Mutable view of all elements in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [L] {
        &mut self.data
    }

    /// Matrix product `self · other` written into `out` (reshaped as
    /// needed), allocating nothing once `out` has the right capacity.
    ///
    /// The kernel is cache-blocked over the output columns and unrolled
    /// eight-wide over the inner dimension: each pass over an output-row
    /// tile folds eight rows of `other` in, so the tile is loaded and
    /// stored `⌈K/8⌉` times instead of `K`. Every output element still
    /// accumulates its `k` terms in ascending order from zero, so the
    /// result is bitwise identical to the naive triple loop (the invariant
    /// the score-digest tests pin), and each output row depends on its own
    /// input row only — which is what makes a score independent of where a
    /// batch was cut.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into(&self, other: &Mat<L>, out: &mut Mat<L>) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, kd, n) = (self.rows, self.cols, other.cols);
        if kd == 0 {
            out.reshape_zeroed(m, n);
            return;
        }
        out.reshape(m, n);
        // Output-column tile sized so the tile plus the unroll window of
        // `other` rows stay L1-resident (see `Lane::TILE`).
        for j0 in (0..n).step_by(L::TILE) {
            let jn = (j0 + L::TILE).min(n);
            for i in 0..m {
                let a_row = &self.data[i * kd..(i + 1) * kd];
                let out_row = &mut out.data[i * n + j0..i * n + jn];
                broadcast_tile(a_row, &other.data, n, j0, jn, out_row);
            }
        }
    }
}

impl Matrix {
    /// Creates a matrix by evaluating `f(row, col)` for each element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or no rows are given.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Creates a 1×n row vector from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Creates a matrix with Xavier/Glorot-uniform entries, deterministic in
    /// `seed`.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.random_range(-limit..limit))
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Reshapes to `rows × cols` and copies `values` in — how training
    /// stages a sample or a window into model-owned scratch.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not hold exactly `rows · cols` elements.
    pub(crate) fn assign(&mut self, rows: usize, cols: usize, values: &[f64]) {
        self.reshape(rows, cols);
        self.data.copy_from_slice(values);
    }

    /// The weight-gradient kernel: `out = selfᵀ · delta` without forming
    /// the transpose, as rank-1 row accumulations — row `i` of `out` is
    /// `Σ_r self[r][i] · delta[r][:]`, vectorized across the row, four `r`
    /// per pass. Every element accumulates its `r` terms in ascending order
    /// with the first written as `0 + a·b`: the chain `transpose()` followed
    /// by [`Matrix::matmul`] builds, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    pub(crate) fn transposed_matmul_into(&self, delta: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, delta.rows, "row count mismatch");
        let (rows, k, n) = (self.rows, self.cols, delta.cols);
        if rows == 0 || n == 0 {
            out.reshape_zeroed(k, n);
            return;
        }
        out.reshape(k, n);
        let d = |r: usize| &delta.data[r * n..(r + 1) * n];
        for (i, out_row) in out.data.chunks_exact_mut(n).enumerate() {
            let x = |r: usize| self.data[r * k + i];
            let a = x(0);
            for (o, &b) in out_row.iter_mut().zip(d(0)) {
                *o = 0.0 + a * b;
            }
            let mut r = 1;
            while r + 4 <= rows {
                let (a0, a1, a2, a3) = (x(r), x(r + 1), x(r + 2), x(r + 3));
                let (b0, b1, b2, b3) = (d(r), d(r + 1), d(r + 2), d(r + 3));
                for j in 0..n {
                    out_row[j] =
                        (((out_row[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
                }
                r += 4;
            }
            while r < rows {
                let a = x(r);
                for (o, &b) in out_row.iter_mut().zip(d(r)) {
                    *o += a * b;
                }
                r += 1;
            }
        }
    }

    /// The fused one-row SGD step: `self[i][j] -= rate · (0 + x[i]·δ[j])`,
    /// vectorized across each row. Per element this is
    /// [`Matrix::transposed_matmul_into`] on a one-row batch (`grad = 0 +
    /// x[i]·δ[j]`, the zero-init chain spelled out — it turns a `-0.0`
    /// product into `+0.0`) followed by the stateless `p -= rate·grad`, bit
    /// for bit, without the round trip of `grad` through memory. A bias row
    /// takes the same step with `x = [1.0]`, since `1.0·δ[j]` is `δ[j]`
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `x.len() × delta.len()`.
    pub(crate) fn sub_scaled_outer(&mut self, rate: f64, x: &[f64], delta: &[f64]) {
        assert_eq!((self.rows, self.cols), (x.len(), delta.len()), "shape mismatch");
        if delta.is_empty() {
            return;
        }
        for (row, &a) in self.data.chunks_exact_mut(delta.len()).zip(x) {
            for (w, &d) in row.iter_mut().zip(delta) {
                *w -= rate * (0.0 + a * d);
            }
        }
    }

    /// The input-gradient kernel: `out = self · wᵀ` without forming the
    /// transpose — `out[r][i]` is the dot product of row `r` of `self` with
    /// the *contiguous* row `i` of `w`, ascending `j` from zero (the chain
    /// [`Matrix::matmul`] against a materialised `wᵀ` builds, bit for bit).
    /// A single chain is latency-bound — one dependent add per term — so
    /// four rows of `w` advance together and their chains overlap (four
    /// cover the latency of an add; measured, eight abreast is slower at
    /// every training shape of this workspace).
    /// The chains stay scalar (lanes would need a column of `w`), which is
    /// the right trade for the one-row steps of online training; see
    /// [`crate::Dense::backward`] for batches.
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    pub(crate) fn matmul_transposed_into(&self, w: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, w.cols, "column count mismatch");
        let (n, k) = (self.cols, w.rows);
        out.reshape(self.rows, k);
        if n == 0 || k == 0 {
            out.data.fill(0.0);
            return;
        }
        let w_row = |i: usize| &w.data[i * n..][..n];
        for (d, out_row) in self.data.chunks_exact(n).zip(out.data.chunks_exact_mut(k)) {
            let mut i = 0;
            while i + 4 <= k {
                let (w0, w1, w2, w3) = (w_row(i), w_row(i + 1), w_row(i + 2), w_row(i + 3));
                let mut acc = [0.0; 4];
                for j in 0..n {
                    let dj = d[j];
                    acc[0] += dj * w0[j];
                    acc[1] += dj * w1[j];
                    acc[2] += dj * w2[j];
                    acc[3] += dj * w3[j];
                }
                out_row[i..i + 4].copy_from_slice(&acc);
                i += 4;
            }
            for (i, o) in out_row.iter_mut().enumerate().skip(i) {
                *o = dot(d, w_row(i));
            }
        }
    }

    /// Writes `selfᵀ` into `out` (reshaped as needed, no allocation once it
    /// has held this shape) — for the one caller that amortises the copy:
    /// a multi-row batch's input gradient (see [`crate::Dense::backward`]).
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.reshape(self.cols, self.rows);
        if self.rows == 0 {
            return;
        }
        for (j, out_row) in out.data.chunks_exact_mut(self.rows).enumerate() {
            for (i, o) in out_row.iter_mut().enumerate() {
                *o = self.data[i * self.cols + j];
            }
        }
    }

    /// Sums each column into the `1 × cols` matrix `out` (ascending rows
    /// from zero); used for bias gradients.
    pub(crate) fn column_sums_into(&self, out: &mut Matrix) {
        out.reshape_zeroed(1, self.cols);
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_exact(self.cols) {
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl<L: Lane> Default for Mat<L> {
    /// An empty 0×0 matrix — the starting state of scratch buffers, which
    /// [`Mat::reshape`] grows on first use.
    fn default() -> Self {
        Mat { rows: 0, cols: 0, data: Vec::new() }
    }
}

/// Sequential dot product of two equal-length slices: the exact addition
/// chain one output element of the naive matmul builds (ascending `k`,
/// starting from `0.0`).
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// A right-hand-side matrix packed column-major for the narrow-head
/// inference kernel: column `j` of the original matrix is the contiguous
/// slice [`Packed::col`]`(j)`.
///
/// Row-major `x · W` inference walks the columns of `W`; for a layer with
/// one or two outputs a broadcast pass would serialize through one or two
/// memory cells `K` times, so those layers pack the transpose once (at
/// freeze time) and every output element becomes one [`dot`] over two
/// contiguous slices. Packing permutes the *layout*, never any element's
/// accumulation order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Packed {
    /// Inner dimension (rows of the original matrix).
    k: usize,
    /// Output dimension (columns of the original matrix).
    n: usize,
    /// Column-major data: column `j` lives at `data[j*k..(j+1)*k]`.
    data: Vec<f64>,
}

impl Packed {
    /// Packs `b` (the right-hand side of a product) column-major.
    pub(crate) fn pack(b: &Matrix) -> Self {
        let (k, n) = (b.rows, b.cols);
        let mut data = Vec::with_capacity(k * n);
        for j in 0..n {
            for i in 0..k {
                data.push(b.data[i * n + j]);
            }
        }
        Packed { k, n, data }
    }

    /// Inner dimension (rows of the packed matrix).
    pub(crate) fn rows(&self) -> usize {
        self.k
    }

    /// Output dimension (columns of the packed matrix).
    pub(crate) fn cols(&self) -> usize {
        self.n
    }

    /// Column `col` of the original matrix, contiguous.
    #[inline]
    pub(crate) fn col(&self, col: usize) -> &[f64] {
        &self.data[col * self.k..(col + 1) * self.k]
    }
}

/// The broadcast microkernel: accumulates `a_row · B` into one output-row
/// tile (columns `j0..jn` of a `B` with `n` columns), up to eight `k` rows
/// per pass, vectorizing across the output columns — independent
/// accumulator chains per column give the instruction-level parallelism a
/// single dot-product accumulator lacks. The first pass *writes* (`0 + a·b`,
/// the zero-init chain spelled out) so the tile never needs a zeroing pass;
/// every element accumulates its `k` terms in ascending order from zero,
/// bitwise identical to the naive triple loop.
///
/// Kept out of line on purpose: standing alone, the eight right-hand-side
/// row pointers of the unrolled pass each get a register; inlined into
/// [`Mat::matmul_into`]'s row loop they are rebuilt by a serial chain of
/// stride adds inside the hot loop (measured ~8 % slower at 100×50).
#[inline(never)]
fn broadcast_tile<L: Lane>(
    a_row: &[L],
    bdata: &[L],
    n: usize,
    j0: usize,
    jn: usize,
    out_row: &mut [L],
) {
    let kd = a_row.len();
    debug_assert!(kd > 0);
    let len = out_row.len();
    debug_assert_eq!(len, jn - j0);
    // `row(k)` is row `k` of the right-hand side, tile-aligned.
    let row = |k: usize| &bdata[k * n + j0..k * n + jn][..len];
    let mut k;
    if kd >= 4 {
        let (a0, a1, a2, a3) = (a_row[0], a_row[1], a_row[2], a_row[3]);
        let (b0, b1, b2, b3) = (row(0), row(1), row(2), row(3));
        for j in 0..len {
            out_row[j] = (((L::ZERO + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
        }
        k = 4;
    } else {
        let a = a_row[0];
        let b = row(0);
        for (o, &bv) in out_row.iter_mut().zip(b) {
            *o = L::ZERO + a * bv;
        }
        k = 1;
    }
    // Main unroll: eight dependent adds per element per pass, ascending-k
    // — the same chain the naive loop builds, an eighth of the passes.
    while k + 8 <= kd {
        let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
        let (a4, a5, a6, a7) = (a_row[k + 4], a_row[k + 5], a_row[k + 6], a_row[k + 7]);
        let (b0, b1, b2, b3) = (row(k), row(k + 1), row(k + 2), row(k + 3));
        let (b4, b5, b6, b7) = (row(k + 4), row(k + 5), row(k + 6), row(k + 7));
        for j in 0..len {
            let acc = (((out_row[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
            out_row[j] = (((acc + a4 * b4[j]) + a5 * b5[j]) + a6 * b6[j]) + a7 * b7[j];
        }
        k += 8;
    }
    if k + 4 <= kd {
        let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
        let (b0, b1, b2, b3) = (row(k), row(k + 1), row(k + 2), row(k + 3));
        for j in 0..len {
            out_row[j] = (((out_row[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
        }
        k += 4;
    }
    while k < kd {
        let a = a_row[k];
        let b = row(k);
        for (o, &bv) in out_row.iter_mut().zip(b) {
            *o += a * bv;
        }
        k += 1;
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Matrix::xavier(10, 10, 1);
        let b = Matrix::xavier(10, 10, 1);
        let c = Matrix::xavier(10, 10, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let limit = (6.0 / 20.0f64).sqrt();
        for &x in a.as_slice() {
            assert!(x.abs() <= limit);
        }
    }

    /// The pre-kernel formulation: a materialised transpose.
    fn transpose(m: &Matrix) -> Matrix {
        Matrix::from_fn(m.cols(), m.rows(), |r, c| m.get(c, r))
    }

    #[test]
    fn training_kernels_match_the_transposed_products_bitwise() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Batch rows straddling the 4-wide `r` unroll, widths straddling
        // the four-row blocks of the dot kernel.
        for (rows, k, n) in [(1, 1, 1), (1, 100, 50), (4, 3, 2), (5, 9, 7), (13, 4, 8), (64, 6, 5)]
        {
            let mut x = Matrix::xavier(rows, k, (rows * 100 + k) as u64);
            // A zero times a negative is −0: the leading `0 + a·b` of every
            // chain is what turns it into the +0 the reference produces.
            x.set(0, 0, 0.0);
            let delta = Matrix::xavier(rows, n, (rows * 100 + n + 7) as u64);
            let w = Matrix::xavier(k, n, (k * 10 + n) as u64);
            let mut out = Matrix::default();
            x.transposed_matmul_into(&delta, &mut out);
            assert_eq!(bits(&out), bits(&transpose(&x).matmul(&delta)), "xT·delta {rows}x{k}x{n}");
            delta.matmul_transposed_into(&w, &mut out);
            assert_eq!(bits(&out), bits(&delta.matmul(&transpose(&w))), "delta·wT {rows}x{k}x{n}");
            w.transpose_into(&mut out);
            assert_eq!(out, transpose(&w));
        }
    }

    #[test]
    fn fused_one_row_step_is_the_materialised_step_bitwise() {
        use crate::optimizer::{Optimizer, Sgd};
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Parameters, inputs and δ all carry both zeros: a `-0.0` parameter
        // is the one value on which `p - r·(-0.0)` and `p - r·(0 + -0.0)`
        // differ, so this is what pins the `0 +` in the kernel.
        let pool = [0.0, -0.0, 0.75, -0.5, -0.0, 3.0];
        for (k, n) in [(1, 1), (1, 6), (6, 1), (7, 5)] {
            let x: Vec<f64> = (0..k).map(|i| pool[(i + 1) % 6]).collect();
            let delta = Matrix::from_fn(1, n, |_, j| pool[(j * 5 + 2) % 6]);
            let mut fused = Matrix::from_fn(k, n, |i, j| pool[(i * 7 + j) % 6]);
            let mut fused_bias = Matrix::from_fn(1, n, |_, j| pool[(j + 4) % 6]);
            let (mut stepped, mut stepped_bias) = (fused.clone(), fused_bias.clone());

            let mut opt = Sgd::new(0.1);
            let rate = opt.stateless_rate().expect("plain SGD is stateless");
            fused.sub_scaled_outer(rate, &x, delta.as_slice());
            fused_bias.sub_scaled_outer(rate, &[1.0], delta.as_slice());

            let (mut grad, mut grad_bias) = (Matrix::default(), Matrix::default());
            Matrix::row_vector(&x).transposed_matmul_into(&delta, &mut grad);
            delta.column_sums_into(&mut grad_bias);
            opt.step(0, &mut stepped, &grad);
            opt.step(1, &mut stepped_bias, &grad_bias);
            assert_eq!(bits(&fused), bits(&stepped), "weights {k}x{n}");
            assert_eq!(bits(&fused_bias), bits(&stepped_bias), "bias {k}x{n}");
        }
    }

    #[test]
    fn column_sums_start_from_positive_zero() {
        let x = Matrix::from_rows(&[&[11.0, -0.0], &[13.0, -0.0]]);
        let mut sums = Matrix::zeros(3, 3);
        x.column_sums_into(&mut sums);
        assert_eq!(sums, Matrix::row_vector(&[24.0, 0.0]));
        assert!(sums.get(0, 1).is_sign_positive(), "0 + -0 is +0");
    }

    #[test]
    fn scratch_reuse_and_row_staging() {
        let a = Matrix::xavier(3, 4, 7);
        let b = Matrix::xavier(4, 2, 8);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Reuse with a different shape: capacity survives, contents don't.
        let c = Matrix::xavier(4, 6, 9);
        a.matmul_into(&c, &mut out);
        assert_eq!(out, a.matmul(&c));

        // Staging: rows append in order, and a restart reuses the store.
        let mut staged = Matrix::default();
        staged.start_rows(3);
        staged.push_row([0.5, -0.25, 8.0]);
        staged.push_row([1.0, 2.0, 3.0]);
        assert_eq!((staged.rows(), staged.cols()), (2, 3));
        assert_eq!(staged.row(1), &[1.0, 2.0, 3.0]);
        staged.start_rows(1);
        staged.push_row([7.0]);
        assert_eq!(staged.as_slice(), &[7.0]);
        staged.row_mut(0)[0] = 9.0;
        assert_eq!(staged.get(0, 0), 9.0);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn staging_a_short_row_panics() {
        let mut staged = Matrix::default();
        staged.start_rows(3);
        staged.push_row([1.0, 2.0]);
    }

    #[test]
    fn blocked_kernel_matches_naive_product_bitwise() {
        // Shapes straddling the 4-wide unroll boundary and the remainder
        // loop, including the one-row inference shape.
        for (m, k, n) in [(1, 1, 1), (1, 100, 75), (3, 5, 7), (4, 8, 4), (2, 9, 13), (7, 4, 1)] {
            let a = Matrix::xavier(m, k, (m * 100 + k * 10 + n) as u64);
            let b = Matrix::xavier(k, n, (n * 100 + k) as u64);
            // Naive reference: the pre-blocking triple loop.
            let mut naive = Matrix::zeros(m, n);
            for i in 0..m {
                for kk in 0..k {
                    for j in 0..n {
                        let v = naive.get(i, j) + a.get(i, kk) * b.get(kk, j);
                        naive.set(i, j, v);
                    }
                }
            }
            assert_eq!(a.matmul(&b), naive, "blocked kernel diverged at {m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_columns_are_original_columns() {
        let b = Matrix::xavier(5, 3, 11);
        let packed = Packed::pack(&b);
        assert_eq!((packed.rows(), packed.cols()), (5, 3));
        for j in 0..3 {
            let col: Vec<f64> = (0..5).map(|i| b.get(i, j)).collect();
            assert_eq!(packed.col(j), &col[..]);
        }
    }

    #[test]
    fn frobenius_norm() {
        assert_eq!(Matrix::from_rows(&[&[3.0, 4.0]]).norm(), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a.get(2, 0);
    }
}
