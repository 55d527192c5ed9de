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
//! * **The naive loop is the reference.** The blocked broadcast kernel,
//!   the narrow-head kernel and the autoencoder's rows-in-lanes kernel
//!   equal a plain triple loop (ascending `k` from `0.0`, then bias, then
//!   the crate's activation; for an autoencoder, then the ascending-order
//!   RMSE) bit for bit. The reference lives here, never in `src/`.
//! * **Lanes equal rows.** Full eight-row blocks of an autoencoder or LSTM
//!   batch run rows-in-lanes, and the one-row calls of every check run
//!   row-major, so each check with eight rows or more pins the two kernels
//!   against each other bit for bit.

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

/// Autoencoder input widths: KitNET's 1–24, and 90–140 (HELAD's 100, and
/// past 128) in two cases of three.
fn arb_autoencoder_width() -> impl Strategy<Value = usize> {
    (0usize..75).prop_map(|i| if i < 24 { i + 1 } else { i + 66 })
}

/// LSTM hidden widths 1–16, HELAD's 12 drawn in half the cases.
fn arb_lstm_hidden() -> impl Strategy<Value = usize> {
    (0usize..32).prop_map(|i| if i < 16 { 12 } else { i - 15 })
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

/// The naive reference for an autoencoder score: [`naive_dense`] for the
/// encoder, then for the decoder, then the RMSE with `d²` summed in
/// ascending feature order from `0.0`, divided by the width, square-rooted.
fn naive_autoencoder_scores(ae: &Autoencoder, xs: &Matrix) -> Vec<f64> {
    let [encoder, decoder] = ae.layers();
    let hidden = naive_dense(xs, encoder.weights(), encoder.bias(), Activation::Sigmoid);
    let hidden = Matrix::from_fn(xs.rows(), encoder.output_size(), |r, c| {
        hidden[r * encoder.output_size() + c]
    });
    let reconstruction =
        naive_dense(&hidden, decoder.weights(), decoder.bias(), Activation::Sigmoid);
    (0..xs.rows())
        .map(|r| {
            let mut sum = 0.0;
            for c in 0..xs.cols() {
                let d = xs.get(r, c) - reconstruction[r * xs.cols() + c];
                sum += d * d;
            }
            (sum / xs.cols() as f64).sqrt()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense: cut-invariant (outputs of one and two take the narrow
    /// matmul kernel, wider ones the broadcast kernel) and equal to the naive triple loop with a trained (non-zero)
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

    /// Autoencoder scores: cut-invariant and equal to the naive reference.
    /// Widths cover KitNET's (1–24) and HELAD's shape (90–140, past 128);
    /// row counts cover one-row calls, several eight-row lane blocks, the
    /// 32-packet burst and ragged tails, and the random split mixes lane
    /// blocks with row-major remainders.
    #[test]
    fn autoencoder_scores_are_cut_invariant(
        input in arb_autoencoder_width(),
        hidden_ratio in (0usize..2).prop_map(|i| [0.75, 0.5][i]),
        rows in 1usize..=70,
        seed in any::<u64>(),
        train_rounds in 0usize..12,
    ) {
        let config = AutoencoderConfig { hidden_ratio, seed, ..Default::default() };
        let mut ae = Autoencoder::new(input, config);
        let sample: Vec<f64> = (0..input).map(|i| (i as f64 * 0.7).sin().abs()).collect();
        for _ in 0..train_rounds {
            ae.train_sample(&sample);
        }
        let xs = Matrix::from_fn(rows, input, |r, c| ((r + c * 3) as f64 * 0.41).sin().abs());

        let mut ws = Workspace::new();
        let reference =
            assert_cut_invariant(&xs, seed, |chunk, out| ae.score_rows_with(chunk, out, &mut ws))?;
        let naive = naive_autoencoder_scores(&ae, &xs);
        prop_assert_eq!(
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            naive.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "autoencoder scores diverged from the naive reference"
        );
    }

    /// MLP predictions: cut-invariant.
    #[test]
    fn mlp_predictions_are_cut_invariant(
        input in 1usize..12,
        hidden in 1usize..16,
        rows in 1usize..9,
        seed in any::<u64>(),
    ) {
        let mlp = MlpBuilder::new(input)
            .layer(hidden, Activation::Relu)
            .layer(1, Activation::Sigmoid)
            .seed(seed)
            .build();
        let x = Matrix::from_fn(rows, input, |r, c| ((r * 7 + c) as f64 * 0.29).sin());

        let mut ws = Workspace::new();
        let reference = assert_cut_invariant(&x, seed, |chunk, out| {
            let y = mlp.predict_with(chunk, &mut ws);
            assert_eq!((y.rows(), y.cols()), (chunk.rows(), 1));
            flat(y, out);
        })?;
        prop_assert_eq!(reference.len(), rows);
    }

    /// LSTM regressor over score-history windows (the HELAD shape, up to
    /// its 12 timesteps and hidden width 12): each prediction is
    /// cut-invariant, lane blocks and row-major tails alike.
    #[test]
    fn lstm_window_predictions_are_cut_invariant(
        timesteps in 1usize..=12,
        hidden in arb_lstm_hidden(),
        rows in 1usize..=70,
        seed in any::<u64>(),
        train_rounds in 0usize..6,
    ) {
        let config = LstmRegressorConfig { hidden_size: hidden, seed, ..Default::default() };
        let mut model = LstmRegressor::new(1, config);
        let window: Vec<f64> = (0..timesteps).map(|t| (t % 2) as f64).collect();
        for i in 0..train_rounds {
            model.train_window(&window, (i % 2) as f64);
        }
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
        input in 1usize..5,
        hidden in arb_lstm_hidden(),
        timesteps in 1usize..8,
        rows in 1usize..=40,
        seed in any::<u64>(),
    ) {
        let lstm = Lstm::new(input, hidden, seed);
        let windows =
            Matrix::from_fn(rows, timesteps * input, |r, c| ((r * 11 + c) as f64 * 0.31).cos());

        let mut ws = Workspace::new();
        let reference = assert_cut_invariant(&windows, seed, |chunk, out| {
            flat(lstm.final_hidden_windows_with(chunk, &mut ws), out)
        })?;
        prop_assert_eq!(reference.len(), rows * hidden);
    }
}
