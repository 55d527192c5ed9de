//! Differential reference for the training kernels.
//!
//! The allocating `transpose`/`matmul`/`hadamard` formulation of
//! `Dense::backward`, `Lstm::step` and BPTT — the code every digest in this
//! repository was pinned against — lives on here, as a test-only reference,
//! and is driven in lock-step with the scratch-owning, transpose-free
//! kernels that replaced it. After every step of every case the trained
//! parameters, the returned loss/RMSE and the propagated input gradient
//! must be equal **bit for bit**: the replacement is allowed to be faster,
//! not different.
//!
//! What is pinned is the kernels' *structure* — which products are formed,
//! in which order they are summed. The scalar `sigmoid`/`tanh` underneath
//! are the crate's own (`idsbench_nn::activation`), shared by both sides;
//! their values are pinned separately, by `activation_accuracy.rs`.
//!
//! The chains are opt-level-sensitive (the release profile vectorizes what
//! the debug profile runs scalar), so CI runs this file in both.

use idsbench_nn::activation::{sigmoid, tanh};
use idsbench_nn::{
    Activation, Adam, Autoencoder, AutoencoderConfig, Dense, Loss, LstmRegressor,
    LstmRegressorConfig, Matrix, MlpBuilder, Optimizer, Sgd,
};
use proptest::prelude::*;

// ---- The deleted allocating `Matrix` helpers, verbatim ------------------

fn transpose(m: &Matrix) -> Matrix {
    Matrix::from_fn(m.cols(), m.rows(), |r, c| m.get(c, r))
}

fn map(m: &Matrix, f: impl Fn(f64) -> f64) -> Matrix {
    Matrix::from_fn(m.rows(), m.cols(), |r, c| f(m.get(r, c)))
}

fn zip(a: &Matrix, b: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    Matrix::from_fn(a.rows(), a.cols(), |r, c| f(a.get(r, c), b.get(r, c)))
}

fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    zip(a, b, |x, y| x * y)
}

fn add(a: &Matrix, b: &Matrix) -> Matrix {
    zip(a, b, |x, y| x + y)
}

fn scale(m: &Matrix, factor: f64) -> Matrix {
    map(m, |x| x * factor)
}

fn add_row_broadcast(m: &Matrix, row: &Matrix) -> Matrix {
    assert_eq!((row.rows(), row.cols()), (1, m.cols()), "broadcast row must be 1xN");
    Matrix::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c) + row.get(0, c))
}

fn column_sums(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, m.cols());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            out.set(0, c, out.get(0, c) + m.get(r, c));
        }
    }
    out
}

fn activate(act: Activation, x: f64) -> f64 {
    match act {
        Activation::Sigmoid => sigmoid(x),
        Activation::Relu => x.max(0.0),
        Activation::Tanh => tanh(x),
        _ => x,
    }
}

fn derivative_from_output(act: Activation, y: &Matrix) -> Matrix {
    match act {
        Activation::Sigmoid => map(y, |v| v * (1.0 - v)),
        Activation::Relu => map(y, |v| if v > 0.0 { 1.0 } else { 0.0 }),
        Activation::Tanh => map(y, |v| 1.0 - v * v),
        _ => map(y, |_| 1.0),
    }
}

fn loss_gradient(loss: Loss, prediction: &Matrix, target: &Matrix) -> Matrix {
    let n = (prediction.rows() * prediction.cols()) as f64;
    match loss {
        Loss::Mse => scale(&zip(prediction, target, |p, y| p - y), 2.0 / n),
        _ => zip(prediction, target, |p, y| {
            let p = p.clamp(1e-12, 1.0 - 1e-12);
            ((p - y) / (p * (1.0 - p))) / n
        }),
    }
}

// ---- The reference layer: the pre-kernel `Dense`, verbatim --------------

struct RefDense {
    weights: Matrix,
    bias: Matrix,
    activation: Activation,
    base_id: usize,
    cached: Option<(Matrix, Matrix)>,
}

impl RefDense {
    /// Starts from the parameters of a freshly built real layer.
    fn like(layer: &Dense, base_id: usize) -> Self {
        RefDense {
            weights: layer.weights().clone(),
            bias: layer.bias().clone(),
            activation: layer.activation(),
            base_id,
            cached: None,
        }
    }

    fn forward_training(&mut self, x: Matrix) -> Matrix {
        let z = add_row_broadcast(&x.matmul(&self.weights), &self.bias);
        let out = map(&z, |v| activate(self.activation, v));
        self.cached = Some((x, out.clone()));
        out
    }

    fn backward(&mut self, grad_output: &Matrix, opt: &mut dyn Optimizer) -> Matrix {
        let (input, output) = self.cached.take().expect("backward without forward_training");
        let delta = hadamard(grad_output, &derivative_from_output(self.activation, &output));
        let grad_weights = transpose(&input).matmul(&delta);
        let grad_bias = column_sums(&delta);
        let grad_input = delta.matmul(&transpose(&self.weights));
        opt.step(self.base_id, &mut self.weights, &grad_weights);
        opt.step(self.base_id + 1, &mut self.bias, &grad_bias);
        grad_input
    }

    fn assert_tracks(&self, layer: &Dense, what: &str) -> Result<(), TestCaseError> {
        prop_assert!(bits(&self.weights) == bits(layer.weights()), "{} weights diverged", what);
        prop_assert!(bits(&self.bias) == bits(layer.bias()), "{} bias diverged", what);
        Ok(())
    }
}

/// Bit patterns, so `-0.0 != 0.0` and a NaN equals itself.
fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
    (m.rows(), m.cols(), m.as_slice().iter().map(|v| v.to_bits()).collect())
}

// ---- The reference LSTM regressor: `Lstm::step` + BPTT, verbatim --------

struct StepCache {
    x: Matrix,
    h_prev: Matrix,
    c_prev: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    tanh_c: Matrix,
}

struct RefLstmRegressor {
    w_x: Matrix,
    w_h: Matrix,
    bias: Matrix,
    head_w: Matrix,
    head_b: Matrix,
    hidden: usize,
    optimizer: Adam,
}

impl RefLstmRegressor {
    fn like(model: &LstmRegressor, learning_rate: f64) -> Self {
        let [w_x, w_h, bias, head_w, head_b] = model.parameters().map(Matrix::clone);
        let hidden = w_h.rows();
        RefLstmRegressor {
            w_x,
            w_h,
            bias,
            head_w,
            head_b,
            hidden,
            optimizer: Adam::new(learning_rate),
        }
    }

    fn step(&self, x: &Matrix, h_prev: &Matrix, c_prev: &Matrix) -> (Matrix, Matrix, StepCache) {
        let z =
            add(&add_row_broadcast(&x.matmul(&self.w_x), &self.bias), &h_prev.matmul(&self.w_h));
        let h = self.hidden;
        let slice = |from: usize, f: fn(f64) -> f64| {
            Matrix::from_fn(1, h, |_, j| f(z.get(0, from * h + j)))
        };
        let i = slice(0, sigmoid);
        let f = slice(1, sigmoid);
        let g = slice(2, tanh);
        let o = slice(3, sigmoid);
        let c = add(&hadamard(&f, c_prev), &hadamard(&i, &g));
        let tanh_c = map(&c, tanh);
        let h_new = hadamard(&o, &tanh_c);
        let cache = StepCache {
            x: x.clone(),
            h_prev: h_prev.clone(),
            c_prev: c_prev.clone(),
            i,
            f,
            g,
            o,
            tanh_c,
        };
        (h_new, c, cache)
    }

    fn train_sequence(&mut self, inputs: &[Vec<f64>], target: f64) -> f64 {
        let hidden = self.hidden;
        let mut caches = Vec::with_capacity(inputs.len());
        let mut h = Matrix::zeros(1, hidden);
        let mut c = Matrix::zeros(1, hidden);
        for x in inputs {
            let (h2, c2, cache) = self.step(&Matrix::row_vector(x), &h, &c);
            caches.push(cache);
            h = h2;
            c = c2;
        }
        let prediction = h.matmul(&self.head_w).get(0, 0) + self.head_b.get(0, 0);
        let loss = (prediction - target).powi(2);

        let dpred = 2.0 * (prediction - target);
        let grad_head_w = scale(&transpose(&h), dpred);
        let grad_head_b = Matrix::from_rows(&[&[dpred]]);
        let mut dh = scale(&transpose(&self.head_w), dpred);
        let mut dc = Matrix::zeros(1, hidden);

        let mut grad_wx = Matrix::zeros(self.w_x.rows(), 4 * hidden);
        let mut grad_wh = Matrix::zeros(hidden, 4 * hidden);
        let mut grad_b = Matrix::zeros(1, 4 * hidden);

        for cache in caches.iter().rev() {
            let do_ = hadamard(&dh, &cache.tanh_c);
            let dtanh_c = hadamard(&dh, &cache.o);
            let dc_total = add(&dc, &hadamard(&dtanh_c, &map(&cache.tanh_c, |v| 1.0 - v * v)));
            let di = hadamard(&dc_total, &cache.g);
            let dg = hadamard(&dc_total, &cache.i);
            let df = hadamard(&dc_total, &cache.c_prev);
            let dc_prev = hadamard(&dc_total, &cache.f);

            let dzi = hadamard(&di, &map(&cache.i, |v| v * (1.0 - v)));
            let dzf = hadamard(&df, &map(&cache.f, |v| v * (1.0 - v)));
            let dzg = hadamard(&dg, &map(&cache.g, |v| 1.0 - v * v));
            let dzo = hadamard(&do_, &map(&cache.o, |v| v * (1.0 - v)));
            let dz = Matrix::from_fn(1, 4 * hidden, |_, j| {
                let (gate, k) = (j / hidden, j % hidden);
                match gate {
                    0 => dzi.get(0, k),
                    1 => dzf.get(0, k),
                    2 => dzg.get(0, k),
                    _ => dzo.get(0, k),
                }
            });

            grad_wx = add(&grad_wx, &transpose(&cache.x).matmul(&dz));
            grad_wh = add(&grad_wh, &transpose(&cache.h_prev).matmul(&dz));
            grad_b = add(&grad_b, &dz);

            dh = dz.matmul(&transpose(&self.w_h));
            dc = dc_prev;
        }

        for grad in [&mut grad_wx, &mut grad_wh, &mut grad_b] {
            let norm = grad.norm();
            if norm > 5.0 {
                let scale = 5.0 / norm;
                for g in grad.as_mut_slice() {
                    *g *= scale;
                }
            }
        }

        self.optimizer.step(0, &mut self.w_x, &grad_wx);
        self.optimizer.step(1, &mut self.w_h, &grad_wh);
        self.optimizer.step(2, &mut self.bias, &grad_b);
        self.optimizer.step(3, &mut self.head_w, &grad_head_w);
        self.optimizer.step(4, &mut self.head_b, &grad_head_b);
        loss
    }
}

// ---- Strategies -----------------------------------------------------------

/// One of `choices`, uniformly.
fn one_of<T: Copy + std::fmt::Debug, const N: usize>(choices: [T; N]) -> impl Strategy<Value = T> {
    (0..N).prop_map(move |i| choices[i])
}

fn arb_activation() -> impl Strategy<Value = Activation> {
    one_of([Activation::Sigmoid, Activation::Relu, Activation::Tanh, Activation::Linear])
}

/// A pair of identically configured optimizers (one per side): plain SGD,
/// SGD with momentum, Adam.
fn optimizer_pair(kind: usize) -> [Box<dyn Optimizer>; 2] {
    match kind {
        0 => [Box::new(Sgd::new(0.05)), Box::new(Sgd::new(0.05))],
        1 => [Box::new(Sgd::with_momentum(0.05, 0.9)), Box::new(Sgd::with_momentum(0.05, 0.9))],
        _ => [Box::new(Adam::new(0.01)), Box::new(Adam::new(0.01))],
    }
}

/// Deterministic pseudo-random values in `[-1, 1]`, some exactly zero (the
/// signed-zero cases `0 + a·b` exists for).
fn noise(seed: u64, i: usize) -> f64 {
    let v = ((seed % 1000) as f64 + i as f64 * 12.9898).sin() * 43_758.545_3;
    let v = v.fract();
    if (v * 16.0) as i64 % 7 == 0 {
        0.0
    } else {
        v
    }
}

const STEPS: usize = 50;

/// One-row steps the noise pools do not reach, per layer shape: inputs and
/// output gradients holding `0.0` and `-0.0` (so `x[i]·δ[j]` is a signed
/// zero the `0 +` must normalise before the rate multiplies it), and a
/// pre-activation large enough to saturate a sigmoid to exactly `1.0`
/// (`δ = 0` whatever the gradient).
fn one_row_cases(input: usize, output: usize) -> Vec<(Matrix, Matrix)> {
    let signed_zero = |i: usize| [0.0, -0.0, 0.75, -0.5][i % 4];
    vec![
        (
            Matrix::from_fn(1, input, |_, c| signed_zero(c)),
            Matrix::from_fn(1, output, |_, c| signed_zero(c + 1)),
        ),
        (
            Matrix::from_fn(1, input, |_, c| -signed_zero(c + 2)),
            Matrix::from_fn(1, output, |_, c| -signed_zero(c)),
        ),
        (Matrix::from_fn(1, input, |_, _| 1e6), Matrix::from_fn(1, output, |_, _| 0.25)),
        (Matrix::from_fn(1, input, |_, _| -1e6), Matrix::from_fn(1, output, |_, _| -0.25)),
    ]
}

/// The fused one-row step is taken for plain SGD only; `Sgd::with_momentum`
/// and `Adam` see the same one-row inputs through the materialised
/// gradient. All three must track the reference layer bit for bit, on
/// shapes down to width 1. (A `-0.0` *parameter* — the one value on which
/// the kernel's `0 +` is observable — cannot be built through the public
/// API; `matrix.rs`'s unit tests pin that case on the kernel itself.)
#[test]
fn one_row_steps_match_the_reference_on_signed_zeros_and_saturation() {
    for (input, output) in [(1, 1), (1, 3), (4, 1), (5, 7)] {
        for activation in [Activation::Sigmoid, Activation::Linear, Activation::Relu] {
            for opt_kind in 0..3 {
                let mut layer = Dense::new(input, output, activation, 0, 17);
                let mut reference = RefDense::like(&layer, 0);
                let [mut opt, mut ref_opt] = optimizer_pair(opt_kind);
                let mut grad_input = Matrix::default();
                let what = format!("{input}x{output} {activation:?} optimizer {opt_kind}");
                for round in 0..3 {
                    for (case, (x, grad)) in one_row_cases(input, output).iter().enumerate() {
                        let ref_out = reference.forward_training(x.clone());
                        assert_eq!(bits(layer.forward_training(x)), bits(&ref_out), "{what}");
                        let ref_grad_input = reference.backward(grad, ref_opt.as_mut());
                        layer.backward(grad, opt.as_mut(), Some(&mut grad_input));
                        let at = format!("{what}, round {round} case {case}");
                        assert_eq!(bits(&grad_input), bits(&ref_grad_input), "{at}: grad_input");
                        assert_eq!(
                            bits(layer.weights()),
                            bits(&reference.weights),
                            "{at}: weights"
                        );
                        assert_eq!(bits(layer.bias()), bits(&reference.bias), "{at}: bias");
                    }
                }
            }
        }
    }
}

/// The cases above must actually produce what they are named for: a
/// saturated sigmoid (`δ = 0` from a non-zero gradient) and `-0.0` outer
/// products — otherwise a later change to the pools would quietly stop
/// exercising them.
#[test]
fn one_row_cases_reach_saturation_and_negative_zero() {
    let mut layer = Dense::new(4, 1, Activation::Sigmoid, 0, 17);
    let cases = one_row_cases(4, 1);
    let saturated = layer.forward_training(&cases[2].0).get(0, 0);
    assert!(saturated == 1.0 || saturated == 0.0, "sigmoid did not saturate: {saturated}");
    layer.backward(&cases[2].1, &mut Sgd::new(0.05), None);
    let (x, grad) = &cases[0];
    let products: Vec<f64> =
        x.as_slice().iter().flat_map(|a| grad.as_slice().iter().map(move |d| a * d)).collect();
    assert!(products.iter().any(|p| p.to_bits() == (-0.0f64).to_bits()));
    assert!(products.iter().any(|p| p.to_bits() == 0.0f64.to_bits()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two chained layers stepped in lock-step with the reference: widths
    /// straddle the 4-wide `r`/row unrolls and the 8-wide matmul unroll and
    /// include 1- and 2-wide heads; batch rows cross the `Wᵀ`-pack
    /// threshold. A twin of the first layer is asked for the input gradient
    /// it does not need and must update identically.
    #[test]
    fn dense_steps_match_the_reference_bitwise(
        input in 1usize..14,
        hidden in 1usize..20,
        output in one_of([1usize, 2, 1, 2, 3, 4, 5, 7, 8, 9, 10]),
        rows in 1usize..=70,
        act_hidden in arb_activation(),
        act_out in arb_activation(),
        opt_kind in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut first = Dense::new(input, hidden, act_hidden, 0, seed);
        let mut second = Dense::new(hidden, output, act_out, 2, seed ^ 0x5eed);
        let mut twin = first.clone();
        let mut ref_first = RefDense::like(&first, 0);
        let mut ref_second = RefDense::like(&second, 2);
        let [mut opt, mut ref_opt] = optimizer_pair(opt_kind);
        let [mut twin_opt, _] = optimizer_pair(opt_kind);
        let (mut grad_hidden, mut unused) = (Matrix::default(), Matrix::default());

        for step in 0..STEPS {
            let x = Matrix::from_fn(rows, input, |r, c| noise(seed, step * 4099 + r * input + c));
            let grad = Matrix::from_fn(rows, output, |r, c| {
                0.1 * noise(seed ^ 0xbeef, step * 4099 + r * output + c)
            });

            let ref_hidden = ref_first.forward_training(x.clone());
            let ref_out = ref_second.forward_training(ref_hidden.clone());
            let hidden_out = first.forward_training(&x);
            prop_assert!(bits(hidden_out) == bits(&ref_hidden), "step {}: hidden output", step);
            let out = second.forward_training(hidden_out);
            prop_assert!(bits(out) == bits(&ref_out), "step {}: output", step);

            let ref_grad_hidden = ref_second.backward(&grad, ref_opt.as_mut());
            second.backward(&grad, opt.as_mut(), Some(&mut grad_hidden));
            prop_assert!(
                bits(&grad_hidden) == bits(&ref_grad_hidden),
                "step {}: propagated grad_input", step
            );
            let ref_grad_input = ref_first.backward(&ref_grad_hidden, ref_opt.as_mut());
            first.backward(&grad_hidden, opt.as_mut(), None);

            // The twin sees the same inputs and gradients but is asked for
            // its input gradient too.
            twin.forward_training(&x);
            twin.backward(&grad_hidden, twin_opt.as_mut(), Some(&mut unused));
            prop_assert!(bits(&unused) == bits(&ref_grad_input), "step {}: first grad_input", step);

            ref_second.assert_tracks(&second, "second layer")?;
            ref_first.assert_tracks(&first, "first layer")?;
            ref_first.assert_tracks(&twin, "grad_input-producing twin")?;
        }
    }

    /// `Autoencoder::train_sample` against two reference layers and the
    /// pre-kernel RMSE / loss-gradient arithmetic, at widths around the
    /// HELAD (wide) and KitNET-member (narrow) shapes.
    #[test]
    fn autoencoder_steps_match_the_reference_bitwise(
        width in one_of([1usize, 2, 3, 4, 5, 7, 8, 9, 10, 12, 21, 32, 39]),
        ratio in one_of([0.5, 0.75, 1.0]),
        seed in any::<u64>(),
    ) {
        let config = AutoencoderConfig { hidden_ratio: ratio, learning_rate: 0.1, seed };
        let mut ae = Autoencoder::new(width, config);
        let [encoder, decoder] = ae.layers();
        let (mut ref_encoder, mut ref_decoder) = (RefDense::like(encoder, 0), RefDense::like(decoder, 2));
        let mut ref_opt = Sgd::new(0.1);

        for step in 0..STEPS {
            let x: Vec<f64> = (0..width).map(|i| noise(seed, step * 1009 + i).abs()).collect();
            let input = Matrix::row_vector(&x);
            let hidden = ref_encoder.forward_training(input.clone());
            let reconstruction = ref_decoder.forward_training(hidden);
            let squares: f64 =
                x.iter().zip(reconstruction.as_slice()).map(|(a, b)| (a - b) * (a - b)).sum();
            let ref_rmse = (squares / width as f64).sqrt();
            let grad = scale(&zip(&reconstruction, &input, |r, v| r - v), 2.0 / width as f64);
            let grad_hidden = ref_decoder.backward(&grad, &mut ref_opt);
            ref_encoder.backward(&grad_hidden, &mut ref_opt);

            let rmse = ae.train_sample(&x);
            prop_assert!(rmse.to_bits() == ref_rmse.to_bits(), "step {}: rmse", step);
            let [encoder, decoder] = ae.layers();
            ref_encoder.assert_tracks(encoder, "encoder")?;
            ref_decoder.assert_tracks(decoder, "decoder")?;
        }
    }

    /// `Mlp::train_batch` (the DNN shape in miniature: ReLU stack, sigmoid
    /// head) against a stack of reference layers, both losses, fixed and
    /// ragged batch sizes.
    #[test]
    fn mlp_steps_match_the_reference_bitwise(
        input in 1usize..10,
        widths in proptest::collection::vec(1usize..12, 1..4),
        rows in 1usize..=70,
        bce in any::<bool>(),
        opt_kind in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut builder = MlpBuilder::new(input);
        for &w in &widths {
            builder = builder.layer(w, Activation::Relu);
        }
        let mut mlp = builder.layer(1, Activation::Sigmoid).seed(seed).build();
        let mut reference: Vec<RefDense> =
            mlp.layers().iter().enumerate().map(|(i, l)| RefDense::like(l, i * 2)).collect();
        let loss = if bce { Loss::BinaryCrossEntropy } else { Loss::Mse };
        let [mut opt, mut ref_opt] = optimizer_pair(opt_kind);

        for step in 0..STEPS {
            // Every third batch is a ragged tail, like the last chunk of an
            // epoch.
            let rows = if step % 3 == 2 { rows.div_ceil(2) } else { rows };
            let x = Matrix::from_fn(rows, input, |r, c| noise(seed, step * 4099 + r * input + c));
            let y = Matrix::from_fn(rows, 1, |r, _| noise(seed ^ 7, step * 71 + r).abs().round());

            let mut activation = x.clone();
            for layer in &mut reference {
                activation = layer.forward_training(activation);
            }
            let ref_loss = loss.value(&activation, &y);
            let mut grad = loss_gradient(loss, &activation, &y);
            for layer in reference.iter_mut().rev() {
                grad = layer.backward(&grad, ref_opt.as_mut());
            }

            let value = mlp.train_batch(&x, &y, loss, opt.as_mut());
            prop_assert!(value.to_bits() == ref_loss.to_bits(), "step {}: loss", step);
            for (i, (r, l)) in reference.iter().zip(mlp.layers()).enumerate() {
                r.assert_tracks(l, &format!("step {step} layer {i}"))?;
            }
        }
    }

    /// `LstmRegressor::train_window` against `Lstm::step` + BPTT: input
    /// widths 1 (the fused HELAD shape) and 3, windows 1..=16, hidden
    /// widths around the unrolls.
    #[test]
    fn lstm_steps_match_the_reference_bitwise(
        input in one_of([1usize, 3]),
        hidden in one_of([1usize, 2, 3, 4, 5, 12, 16]),
        timesteps in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let config = LstmRegressorConfig { hidden_size: hidden, learning_rate: 0.02, seed };
        let mut model = LstmRegressor::new(input, config);
        let mut reference = RefLstmRegressor::like(&model, 0.02);

        for step in 0..STEPS {
            // Large inputs every few steps push the gradient norm over the
            // clip threshold, so both branches of the clip are compared.
            let gain = if step % 5 == 4 { 40.0 } else { 1.0 };
            let window: Vec<f64> =
                (0..timesteps * input).map(|i| gain * noise(seed, step * 257 + i)).collect();
            let target = gain * noise(seed ^ 3, step);
            let sequence: Vec<Vec<f64>> = window.chunks(input).map(<[f64]>::to_vec).collect();

            let ref_loss = reference.train_sequence(&sequence, target);
            let loss = model.train_window(&window, target);
            prop_assert!(loss.to_bits() == ref_loss.to_bits(), "step {}: loss", step);
            let expected =
                [&reference.w_x, &reference.w_h, &reference.bias, &reference.head_w, &reference.head_b];
            for (id, (p, r)) in model.parameters().into_iter().zip(expected).enumerate() {
                prop_assert!(bits(p) == bits(r), "step {}: parameter {} diverged", step, id);
            }
        }
    }
}
