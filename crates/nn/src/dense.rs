use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::optimizer::Optimizer;

/// Batch rows from which [`Dense::backward`] computes the input gradient as
/// a vectorized product against a scratch copy of `Wᵀ` instead of scalar
/// dot chains over `W`'s rows (measured crossover at the DNN's layer
/// shapes: two to three rows with 256-bit vectors; with 512-bit ones the
/// copy took 0.97× the dot chains' step time at two rows and 0.91–0.93× at
/// three). Only a DNN epoch's last, partial mini-batch can fall below it,
/// so lowering it would move no workload.
const PACK_ROWS: usize = 4;

/// A fully connected layer: `y = f(x·W + b)`.
///
/// Parameter ids for the optimizer are `base_id` (weights) and
/// `base_id + 1` (bias).
///
/// Inference has one entry point, [`Dense::forward_rows_into`]. It reads
/// the parameters training updates, so a score always reflects the last
/// [`Dense::backward`] step; the training forward is the same product and
/// epilogue over the layer's own copy of its input.
///
/// **Training contract.** A step is [`Dense::forward_training`] then
/// [`Dense::backward`]. The layer owns everything the step needs
/// — its copy of the input, the activated output, `δ` and both parameter
/// gradients — in scratch that is sized by the first step and reused
/// verbatim: a steady-state step at a seen batch size performs zero heap
/// allocations (pinned by `hot_path_allocs`). The gradient with respect to
/// the input is *optional*: it is computed, from the pre-update weights,
/// only into a destination the caller passes — a network's first layer
/// passes none. One-row steps (online training) form no transpose at all;
/// a batch of `PACK_ROWS` (4) rows or more copies `Wᵀ` into scratch once,
/// because only then do the scalar dot chains of the transpose-free
/// kernel cost more than the copy plus a vectorized product. Either way
/// the elements are the same chains. A one-row step under an optimizer
/// that reports a [`Optimizer::stateless_rate`] (plain SGD — every
/// [`crate::Autoencoder`] step) never writes `grad_W` or `grad_b` at all:
/// each parameter is updated straight from `x[i]` and `δ[j]` by the
/// operations the materialised step would apply to it, in their order;
/// batched or stateful steps materialise both. Which of the two runs
/// follows from the batch shape and the optimizer, nothing else. Every
/// accumulation chain is pinned: forward elements ascend `k` from zero,
/// `grad_W` ascends the batch rows with its first term `0 + a·b`, `grad_b`
/// ascends the rows from zero, `grad_X` ascends the output columns from
/// zero — the chains of the allocating `transpose`/`matmul` formulation
/// kept as the reference in `tests/training_reference.rs`, bit for bit.
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    activation: Activation,
    base_id: usize,
    train: TrainScratch,
}

/// One layer's training scratch (see the training contract on [`Dense`]).
#[derive(Debug, Clone, Default)]
struct TrainScratch {
    /// The forward input, kept for `grad_W = Xᵀ·δ`.
    input: Matrix,
    /// The activated forward output.
    output: Matrix,
    /// `δ = dL/d(pre-activation)`.
    delta: Matrix,
    /// Both parameter gradients, filled only by batched or stateful steps.
    grad_weights: Matrix,
    grad_bias: Matrix,
    /// `Wᵀ`, filled only by batched steps that propagate an input gradient.
    weights_t: Matrix,
    /// Whether `input`/`output` hold a forward pass no backward has
    /// consumed yet.
    forwarded: bool,
}

impl Dense {
    /// Creates a layer with Xavier-initialized weights, deterministic in
    /// `seed`.
    pub fn new(
        input_size: usize,
        output_size: usize,
        activation: Activation,
        base_id: usize,
        seed: u64,
    ) -> Self {
        Dense {
            weights: Matrix::xavier(input_size, output_size, seed),
            bias: Matrix::zeros(1, output_size),
            activation,
            base_id,
            train: TrainScratch::default(),
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.weights.rows()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable view of the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Immutable view of the `1 × output` bias row.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Inference over a batch of rows, written into caller-owned scratch:
    /// `out` is reshaped to `x.rows() × output_size` and filled with
    /// `f(x·W + b)` without any heap allocation (once `out` has capacity).
    /// A single sample is a batch of one row.
    ///
    /// Every output row is computed from its own input row by the same
    /// operations in the same order whatever `x.rows()` is, so a result
    /// never depends on where a batch was cut — bitwise (pinned by the
    /// `batch_rows_parity` proptests). Each element is the exact
    /// ascending-`k` chain of the naive triple loop ([`Matrix::matmul_into`]
    /// picks its kernel by output width), which is what keeps batch scoring
    /// on the digest contract.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn forward_rows_into(&self, x: &Matrix, out: &mut Matrix) {
        affine_into(x, &self.weights, self.bias.as_slice(), self.activation, out);
    }

    /// Forward pass that keeps what a subsequent [`Dense::backward`] needs
    /// (a copy of `x` and the returned output) in the layer's own scratch.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn forward_training(&mut self, x: &Matrix) -> &Matrix {
        let train = &mut self.train;
        train.input.assign(x.rows(), x.cols(), x.as_slice());
        affine_into(x, &self.weights, self.bias.as_slice(), self.activation, &mut train.output);
        train.forwarded = true;
        &train.output
    }

    /// Backward pass: consumes the gradient w.r.t. this layer's output and
    /// updates weights via `opt`. When `grad_input` is given it is filled
    /// with the gradient w.r.t. the layer's input (computed from the
    /// pre-update weights); a layer nobody propagates past passes `None`
    /// and skips that product.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`Dense::forward_training`], or
    /// if `grad_output` does not have that forward pass's output shape.
    pub fn backward(
        &mut self,
        grad_output: &Matrix,
        opt: &mut dyn Optimizer,
        grad_input: Option<&mut Matrix>,
    ) {
        let train = &mut self.train;
        assert!(train.forwarded, "backward without forward_training");
        train.forwarded = false;
        let (rows, cols) = (train.output.rows(), train.output.cols());
        assert_eq!((grad_output.rows(), grad_output.cols()), (rows, cols), "shape mismatch");
        train.delta.reshape(rows, cols);
        let activation = self.activation;
        for ((d, &g), &y) in train
            .delta
            .as_mut_slice()
            .iter_mut()
            .zip(grad_output.as_slice())
            .zip(train.output.as_slice())
        {
            *d = g * activation.derivative_from_output(y);
        }
        if let Some(grad_input) = grad_input {
            if rows < PACK_ROWS {
                train.delta.matmul_transposed_into(&self.weights, grad_input);
            } else {
                self.weights.transpose_into(&mut train.weights_t);
                train.delta.matmul_into(&train.weights_t, grad_input);
            }
        }
        match opt.stateless_rate() {
            // One row under a stateless optimizer: `grad_W` is the outer
            // product `xᵀ·δ` and the step only subtracts a multiple of it,
            // so each weight is updated straight from `x[i]` and `δ[j]`.
            Some(rate) if rows == 1 => {
                let delta = train.delta.as_slice();
                self.weights.sub_scaled_outer(rate, train.input.as_slice(), delta);
                self.bias.sub_scaled_outer(rate, &[1.0], delta);
            }
            _ => {
                train.input.transposed_matmul_into(&train.delta, &mut train.grad_weights);
                train.delta.column_sums_into(&mut train.grad_bias);
                opt.step(self.base_id, &mut self.weights, &train.grad_weights);
                opt.step(self.base_id + 1, &mut self.bias, &train.grad_bias);
            }
        }
    }
}

/// `out = f(x·W + b)`: the product, then the fused epilogue
/// `out[i][j] = f(out[i][j] + b[j])`. The bias add runs per row; the
/// activation then runs as one flat elementwise pass over the whole matrix
/// ([`Activation::apply`]), `m·n` long, so the polynomial exp vectorizes at
/// full width even for the narrow layers (`n` of 7–10) the ensemble
/// autoencoders use. Same per-element arithmetic either way, same bits.
pub(crate) fn affine_into(
    x: &Matrix,
    weights: &Matrix,
    bias: &[f64],
    act: Activation,
    out: &mut Matrix,
) {
    x.matmul_into(weights, out);
    if !bias.is_empty() {
        for row in out.as_mut_slice().chunks_exact_mut(bias.len()) {
            for (o, &b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
    }
    act.apply(out.as_mut_slice());
}

/// Rows per block of the rows-in-lanes kernels ([`crate::Autoencoder`]
/// scoring, [`crate::Lstm`] windows): one `f64` vector at AVX-512, two at
/// AVX2. The one-vector form needs LLVM's 256-bit preference lifted
/// (`-prefer-256-bit` in `.cargo/config.toml`); without it an AVX-512 host
/// also runs each block as two 256-bit halves. Only full blocks take them,
/// so a one-row call never pays for seven idle lanes.
pub(crate) const LANES: usize = 8;

/// Output units of [`affine_lanes`] accumulated abreast. At AVX2 width
/// four units of eight lanes are eight independent add chains, enough to
/// hide the add latency; one unit at a time was 1.3–1.8× slower per row,
/// and eight abreast spilled its accumulators from its sixteen registers
/// and was slower from eight outputs up. At AVX-512 width the four units
/// are four chains of one vector each, and each step's multiply and add
/// (never fused) keep both vector ports busy, so more chains add nothing:
/// eight abreast fits AVX-512's 32 registers but took 0.97–1.00× the time
/// of four at HELAD's and KitNET's shapes, too little to change.
const UNITS: usize = 4;

/// `out[j] = Σ_i x[i]·w[i][j] + b[j]` for every lane of the feature-major
/// block `x` and row-major weights `w` (`x.len() × out.len()`), `UNITS`
/// output units at a time: the rows-in-lanes form of [`affine_into`],
/// element for element the same chain. The activation is a separate pass
/// over `out`: applied inside the unit loop, its polynomial serialises
/// behind each unit's accumulator.
pub(crate) fn affine_lanes(x: &[[f64; LANES]], w: &[f64], b: &[f64], out: &mut [[f64; LANES]]) {
    product_lanes(x, w, out, |j, o, acc| *o = acc.map(|v| v + b[j]));
}

/// `out[j] += Σ_i x[i]·w[i][j]`: the product of [`affine_lanes`] without a
/// bias, added onto what `out` already holds — the LSTM's recurrent term
/// joining its input term, `z = (x·w_x + b) + h·w_h`, with no `+ 0` in
/// the chain.
pub(crate) fn add_product_lanes(x: &[[f64; LANES]], w: &[f64], out: &mut [[f64; LANES]]) {
    product_lanes(x, w, out, |_, o, acc| {
        for (o, a) in o.iter_mut().zip(acc) {
            *o += a;
        }
    });
}

/// The one rows-in-lanes product loop, `UNITS` output units at a time;
/// `store(j, out[j], acc)` is the epilogue of unit `j`.
#[inline(always)]
fn product_lanes(
    x: &[[f64; LANES]],
    w: &[f64],
    out: &mut [[f64; LANES]],
    store: impl Fn(usize, &mut [f64; LANES], [f64; LANES]) + Copy,
) {
    let mut j = 0;
    while j + UNITS <= out.len() {
        product_units::<UNITS>(x, w, j, out, store);
        j += UNITS;
    }
    for j in j..out.len() {
        product_units::<1>(x, w, j, out, store);
    }
}

/// Output units `j..j + U` of [`product_lanes`]: one accumulator per
/// (unit, lane), `0 + x₀·w₀j` then ascending `i` — the naive chain, lane
/// by lane — handed to `store`.
#[inline(always)]
fn product_units<const U: usize>(
    x: &[[f64; LANES]],
    w: &[f64],
    j: usize,
    out: &mut [[f64; LANES]],
    store: impl Fn(usize, &mut [f64; LANES], [f64; LANES]),
) {
    let n = out.len();
    let mut acc = [[0.0; LANES]; U];
    for (xi, w_row) in x.iter().zip(w.chunks_exact(n)) {
        for (a, &wij) in acc.iter_mut().zip(&w_row[j..j + U]) {
            for lane in 0..LANES {
                a[lane] += xi[lane] * wij;
            }
        }
    }
    for (u, (o, a)) in out[j..j + U].iter_mut().zip(acc).enumerate() {
        store(j + u, o, a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use crate::optimizer::Sgd;

    fn infer(layer: &Dense, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        layer.forward_rows_into(x, &mut out);
        out
    }

    #[test]
    fn forward_shape() {
        let layer = Dense::new(3, 5, Activation::Relu, 0, 1);
        let y = infer(&layer, &Matrix::zeros(4, 3));
        assert_eq!((y.rows(), y.cols()), (4, 5));
    }

    #[test]
    fn single_layer_learns_linear_map() {
        let mut layer = Dense::new(2, 1, Activation::Linear, 0, 7);
        let mut opt = Sgd::new(0.3);
        // Target: y = 2a - b
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[0.5, 0.25]]);
        let y = Matrix::from_rows(&[&[2.0], &[-1.0], &[1.0], &[0.75]]);
        let mut grad = Matrix::default();
        for _ in 0..3000 {
            Loss::Mse.gradient_into(layer.forward_training(&x), &y, &mut grad);
            layer.backward(&grad, &mut opt, None);
        }
        assert!(Loss::Mse.value(&infer(&layer, &x), &y) < 1e-6);
    }

    /// Finite-difference check of the full dense-layer gradient.
    #[test]
    fn gradient_matches_numeric() {
        let x = Matrix::from_rows(&[&[0.3, -0.6], &[0.9, 0.1]]);
        let y = Matrix::from_rows(&[&[1.0], &[0.0]]);
        let eps = 1e-6;

        // Analytic gradient of the input, captured through backward with a
        // frozen "optimizer" that applies no update.
        #[derive(Debug)]
        struct NoStep;
        impl Optimizer for NoStep {
            fn step(&mut self, _: usize, _: &mut Matrix, _: &Matrix) {}
        }

        let mut layer = Dense::new(2, 1, Activation::Sigmoid, 0, 11);
        let (mut grad_out, mut grad_in) = (Matrix::default(), Matrix::default());
        Loss::Mse.gradient_into(layer.forward_training(&x), &y, &mut grad_out);
        layer.backward(&grad_out, &mut NoStep, Some(&mut grad_in));

        for r in 0..2 {
            for c in 0..2 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let lp = Loss::Mse.value(&infer(&layer, &xp), &y);
                let lm = Loss::Mse.value(&infer(&layer, &xm), &y);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (grad_in.get(r, c) - numeric).abs() < 1e-5,
                    "grad_in({r},{c}) = {} vs numeric {numeric}",
                    grad_in.get(r, c)
                );
            }
        }
    }

    #[test]
    fn inference_is_bitwise_the_training_forward() {
        // Inference and the training-time forward share the product and
        // epilogue, at narrow (one register accumulator per element) and
        // wide (broadcast) output widths alike.
        for activation in
            [Activation::Sigmoid, Activation::Relu, Activation::Tanh, Activation::Linear]
        {
            for outputs in [1, 2, 7] {
                let mut layer = Dense::new(5, outputs, activation, 0, 23);
                let x = Matrix::xavier(3, 5, 99);
                let trained = layer.forward_training(&x).clone();
                assert_eq!(infer(&layer, &x), trained, "{activation:?} x{outputs} diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward without forward_training")]
    fn backward_requires_forward() {
        let mut layer = Dense::new(2, 2, Activation::Linear, 0, 1);
        let grad = Matrix::zeros(1, 2);
        let mut opt = Sgd::new(0.1);
        layer.backward(&grad, &mut opt, None);
    }
}
