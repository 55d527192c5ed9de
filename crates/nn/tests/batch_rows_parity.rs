//! Chunking invariance of the batch-of-rows inference entry points, over
//! random layer shapes, inputs and batch cuts.
//!
//! Stream batching, autoscaling and fabric re-homing all re-cut batch
//! boundaries, so the contract every executor relies on is that a score
//! does not depend on where a batch was cut:
//!
//! * **Any cut, same bits.** `M` rows in one call, `M` one-row calls, and
//!   any random split of the `M` rows produce bitwise identical results per
//!   row. This is why batching can sit underneath the score-digest contract
//!   without its own pin.
//! * **The naive loop is the reference.** The blocked, tiled, column-packed
//!   kernels equal a plain triple loop (ascending `k` from `0.0`, then
//!   bias, then the crate's activation) bit for bit. The reference lives
//!   here, never in `src/`.

use idsbench_nn::{
    Activation, Autoencoder, AutoencoderConfig, Dense, Lstm, LstmRegressor, LstmRegressorConfig,
    Matrix, MlpBuilder, Sgd, Workspace,
};
use proptest::prelude::*;

fn arb_activation() -> impl Strategy<Value = Activation> {
    (0usize..4).prop_map(|i| match i {
        0 => Activation::Sigmoid,
        1 => Activation::Relu,
        2 => Activation::Tanh,
        _ => Activation::Linear,
    })
}

/// Chunk sizes covering `rows`, drawn from a seeded LCG.
fn random_cut(rows: usize, mut seed: u64) -> Vec<usize> {
    let mut cut = Vec::new();
    let mut left = rows;
    while left > 0 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let take = 1 + (seed >> 33) as usize % left;
        cut.push(take);
        left -= take;
    }
    cut
}

/// Scores `x` cut into consecutive chunks of the given sizes through
/// `score` (which appends one or more `f64` per row), concatenated.
fn scored_in_chunks(
    x: &Matrix,
    cut: &[usize],
    mut score: impl FnMut(&Matrix, &mut Vec<f64>),
) -> Vec<u64> {
    let mut out = Vec::new();
    let mut start = 0;
    for &len in cut {
        let mut chunk = Matrix::zeros(len, x.cols());
        for i in 0..len {
            chunk.row_mut(i).copy_from_slice(x.row(start + i));
        }
        score(&chunk, &mut out);
        start += len;
    }
    assert_eq!(start, x.rows(), "cut must cover every row");
    out.into_iter().map(f64::to_bits).collect()
}

/// The contract: one call ≡ one-row calls ≡ a random split, bitwise.
/// Returns the (shared) results.
fn assert_cut_invariant(
    x: &Matrix,
    cut_seed: u64,
    mut score: impl FnMut(&Matrix, &mut Vec<f64>),
) -> Result<Vec<f64>, TestCaseError> {
    let rows = x.rows();
    let whole = scored_in_chunks(x, &[rows], &mut score);
    let ones = scored_in_chunks(x, &vec![1; rows], &mut score);
    let split = scored_in_chunks(x, &random_cut(rows, cut_seed), &mut score);
    prop_assert_eq!(&whole, &ones, "one-row calls differ from one {}-row call", rows);
    prop_assert_eq!(&whole, &split, "a random split differs from one {}-row call", rows);
    Ok(whole.into_iter().map(f64::from_bits).collect())
}

fn flat(m: &Matrix, out: &mut Vec<f64>) {
    out.extend_from_slice(m.as_slice());
}

/// The naive reference for one dense layer: the textbook triple loop
/// (ascending `k` from `0.0`), then the bias, then the crate's scalar
/// activation (pinned on its own by `activation_accuracy.rs`).
fn naive_dense(x: &Matrix, w: &Matrix, bias: &Matrix, act: Activation) -> Vec<f64> {
    let mut out = Vec::new();
    for i in 0..x.rows() {
        for j in 0..w.cols() {
            let mut acc = 0.0;
            for k in 0..w.rows() {
                acc += x.get(i, k) * w.get(k, j);
            }
            out.push(act.eval(acc + bias.get(0, j)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense: cut-invariant (narrow outputs exercise the column-packed dot
    /// kernel) and equal to the naive triple loop with a trained (non-zero)
    /// bias.
    #[test]
    fn dense_is_cut_invariant_and_f64_is_the_naive_loop(
        input in 1usize..24,
        output in 1usize..12,
        rows in 1usize..9,
        activation in arb_activation(),
        seed in any::<u64>(),
    ) {
        let mut layer = Dense::new(input, output, activation, 0, seed);
        let x = Matrix::from_fn(rows, input, |r, c| ((r * input + c) as f64 * 0.37).sin());
        // One optimizer step so the bias is not all zeros.
        let out = layer.forward_training(&x);
        let grad = Matrix::from_fn(out.rows(), out.cols(), |r, c| 0.05 + 0.01 * (r + c) as f64);
        layer.backward(&grad, &mut Sgd::new(0.1), None);
        layer.freeze();

        let reference = assert_cut_invariant(&x, seed, |chunk, out| {
            let mut y = Matrix::default();
            layer.forward_rows_into(chunk, &mut y);
            assert_eq!((y.rows(), y.cols()), (chunk.rows(), output));
            flat(&y, out);
        })?;
        let naive = naive_dense(&x, layer.weights(), layer.bias(), activation);
        prop_assert_eq!(
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            naive.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "kernel diverged from the naive triple loop"
        );
    }

    /// Autoencoder scores: cut-invariant.
    #[test]
    fn autoencoder_scores_are_cut_invariant(
        input in 2usize..20,
        rows in 1usize..9,
        seed in any::<u64>(),
        train_rounds in 0usize..12,
    ) {
        let mut ae = Autoencoder::new(input, AutoencoderConfig { seed, ..Default::default() });
        let sample: Vec<f64> = (0..input).map(|i| (i as f64 * 0.7).sin().abs()).collect();
        for _ in 0..train_rounds {
            ae.train_sample(&sample);
        }
        ae.freeze();
        let xs = Matrix::from_fn(rows, input, |r, c| ((r + c * 3) as f64 * 0.41).sin().abs());

        let mut ws = Workspace::new();
        let reference =
            assert_cut_invariant(&xs, seed, |chunk, out| ae.score_rows_with(chunk, out, &mut ws))?;
        prop_assert_eq!(reference.len(), rows);
    }

    /// MLP predictions: cut-invariant.
    #[test]
    fn mlp_predictions_are_cut_invariant(
        input in 1usize..12,
        hidden in 1usize..16,
        rows in 1usize..9,
        seed in any::<u64>(),
    ) {
        let mut mlp = MlpBuilder::new(input)
            .layer(hidden, Activation::Relu)
            .layer(1, Activation::Sigmoid)
            .seed(seed)
            .build();
        mlp.freeze();
        let x = Matrix::from_fn(rows, input, |r, c| ((r * 7 + c) as f64 * 0.29).sin());

        let mut ws = Workspace::new();
        let reference = assert_cut_invariant(&x, seed, |chunk, out| {
            let y = mlp.predict_with(chunk, &mut ws);
            assert_eq!((y.rows(), y.cols()), (chunk.rows(), 1));
            flat(y, out);
        })?;
        prop_assert_eq!(reference.len(), rows);
    }

    /// LSTM regressor over score-history windows (the HELAD shape): each
    /// prediction is cut-invariant.
    #[test]
    fn lstm_window_predictions_are_cut_invariant(
        timesteps in 1usize..12,
        rows in 1usize..7,
        seed in any::<u64>(),
        train_rounds in 0usize..6,
    ) {
        let mut model = LstmRegressor::new(1, LstmRegressorConfig { seed, ..Default::default() });
        let window: Vec<f64> = (0..timesteps).map(|t| (t % 2) as f64).collect();
        for i in 0..train_rounds {
            model.train_window(&window, (i % 2) as f64);
        }
        model.freeze();
        let windows =
            Matrix::from_fn(rows, timesteps, |r, t| ((r * 13 + t) as f64 * 0.47).sin());

        let mut ws = Workspace::new();
        let reference = assert_cut_invariant(&windows, seed, |chunk, out| {
            model.predict_windows_with(chunk, out, &mut ws)
        })?;
        prop_assert_eq!(reference.len(), rows);
    }

    /// Bare LSTM over multi-feature timesteps: every final hidden state is
    /// cut-invariant.
    #[test]
    fn lstm_final_states_are_cut_invariant(
        input in 1usize..4,
        hidden in 1usize..9,
        timesteps in 1usize..8,
        rows in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut lstm = Lstm::new(input, hidden, seed);
        lstm.freeze();
        let windows =
            Matrix::from_fn(rows, timesteps * input, |r, c| ((r * 11 + c) as f64 * 0.31).cos());

        let mut ws = Workspace::new();
        let reference = assert_cut_invariant(&windows, seed, |chunk, out| {
            flat(lstm.final_hidden_windows_with(chunk, &mut ws), out)
        })?;
        prop_assert_eq!(reference.len(), rows * hidden);
    }
}
