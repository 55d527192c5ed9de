//! Regression tests for the snapshot lifecycle: a training step after
//! `freeze()` must drop the frozen weights (narrow column packs included),
//! so inference can never be served from stale weights. Re-freezing after
//! training must score from the updated weights, and inference must refuse
//! to run (panic loudly) rather than silently fall back when the snapshot
//! is gone — for every model.

use idsbench_nn::{
    Activation, Autoencoder, AutoencoderConfig, Dense, LstmRegressor, LstmRegressorConfig, Matrix,
    Sgd, Workspace,
};

fn probe_rows(cols: usize) -> Matrix {
    Matrix::from_fn(3, cols, |r, c| ((r * cols + c) as f64 * 0.61).sin())
}

/// A narrow-output Dense layer (the shape whose column pack is actually
/// built — wider layers score from the row-major snapshot alone), frozen.
fn frozen_narrow_dense() -> Dense {
    let mut layer = Dense::new(16, 2, Activation::Sigmoid, 0, 7);
    layer.freeze();
    layer
}

/// One real optimization step; returns the layer's training-time output
/// on `x` *after* the step.
fn train_step(layer: &mut Dense, x: &Matrix) -> Matrix {
    let out = layer.forward_training(x);
    let grad = Matrix::from_fn(out.rows(), out.cols(), |_, _| 0.05);
    layer.backward(&grad, &mut Sgd::new(0.1), None);
    layer.clone().forward_training(x).clone()
}

#[test]
fn dense_refreeze_after_training_scores_from_the_updated_weights() {
    let mut layer = frozen_narrow_dense();
    let x = probe_rows(16);
    let mut before = Matrix::default();
    layer.forward_rows_into(&x, &mut before);

    let updated = train_step(&mut layer, &x);
    assert_ne!(updated, before, "the step must move the outputs");

    // Re-freezing must reproduce exactly the updated weights' outputs, the
    // narrow column pack included.
    layer.freeze();
    let mut refrozen = Matrix::default();
    layer.forward_rows_into(&x, &mut refrozen);
    assert_eq!(refrozen, updated, "re-frozen outputs differ from the live weights'");
}

#[test]
#[should_panic(expected = "f64 inference without a current snapshot")]
fn dense_f64_inference_panics_when_the_snapshot_is_stale() {
    let mut layer = frozen_narrow_dense();
    let x = probe_rows(16);
    train_step(&mut layer, &x);
    // The snapshot is gone; inference must refuse, not silently score from
    // pre-training weights.
    layer.forward_rows_into(&x, &mut Matrix::default());
}

fn trained_autoencoder() -> (Autoencoder, Matrix) {
    let mut ae = Autoencoder::new(8, AutoencoderConfig::default());
    let sample: Vec<f64> = (0..8).map(|i| (i as f64) / 8.0).collect();
    ae.train_sample(&sample);
    ae.freeze();
    ae.train_sample(&sample);
    (ae, Matrix::row_vector(&sample))
}

#[test]
fn autoencoder_refreeze_after_training_scores_from_the_updated_weights() {
    let (mut ae, sample) = trained_autoencoder();
    ae.freeze();
    let mut scores = Vec::new();
    ae.score_rows_with(&sample, &mut scores, &mut Workspace::new());
    // `train_sample` reports the RMSE of the live weights before its step.
    let live = ae.clone().train_sample(sample.as_slice());
    assert_eq!(scores[0].to_bits(), live.to_bits(), "re-frozen score differs from the live one");
}

#[test]
#[should_panic(expected = "f64 inference without a current snapshot")]
fn autoencoder_training_drops_the_f64_snapshot() {
    let (ae, sample) = trained_autoencoder();
    ae.score_rows_with(&sample, &mut Vec::new(), &mut Workspace::new());
}

fn trained_regressor() -> (LstmRegressor, Matrix) {
    let mut model = LstmRegressor::new(1, LstmRegressorConfig::default());
    let window: Vec<f64> = (0..6).map(|i| f64::from(i % 2)).collect();
    model.train_window(&window, 1.0);
    model.freeze();
    model.train_window(&window, 0.0);
    (model, Matrix::row_vector(&window))
}

#[test]
fn lstm_regressor_refreeze_after_training_predicts_from_the_updated_weights() {
    let (mut model, window) = trained_regressor();
    model.freeze();
    let mut predictions = Vec::new();
    model.predict_windows_with(&window, &mut predictions, &mut Workspace::new());
    // `train_window` reports the squared error of the live weights before
    // its step.
    let live = model.clone().train_window(window.as_slice(), 0.5);
    let error = (predictions[0] - 0.5).powi(2);
    assert_eq!(error.to_bits(), live.to_bits(), "re-frozen prediction differs from the live one");
}

#[test]
#[should_panic(expected = "f64 inference without a current snapshot")]
fn lstm_regressor_training_drops_the_f64_snapshot() {
    let (model, window) = trained_regressor();
    model.predict_windows_with(&window, &mut Vec::new(), &mut Workspace::new());
}
