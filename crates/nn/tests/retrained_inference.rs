//! Inference after training reads the weights training left: for every
//! model, a score taken after one more training step equals, bit for bit,
//! what the updated weights' own training forward computes.

use idsbench_nn::{
    Activation, Autoencoder, AutoencoderConfig, Dense, LstmRegressor, LstmRegressorConfig, Matrix,
    Sgd, Workspace,
};

fn probe_rows(cols: usize) -> Matrix {
    Matrix::from_fn(3, cols, |r, c| ((r * cols + c) as f64 * 0.61).sin())
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
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
fn dense_inference_after_training_reads_the_updated_weights() {
    // Both kernels of the product: a narrow head and a wide layer.
    for outputs in [2, 7] {
        let mut layer = Dense::new(16, outputs, Activation::Sigmoid, 0, 7);
        let x = probe_rows(16);
        let mut before = Matrix::default();
        layer.forward_rows_into(&x, &mut before);

        let updated = train_step(&mut layer, &x);
        assert_ne!(updated, before, "the step must move the outputs");

        let mut after = Matrix::default();
        layer.forward_rows_into(&x, &mut after);
        assert_eq!(
            bits(&after),
            bits(&updated),
            "x{outputs}: inference differs from the live weights'"
        );
    }
}

#[test]
fn autoencoder_score_after_training_reads_the_updated_weights() {
    let mut ae = Autoencoder::new(8, AutoencoderConfig::default());
    let sample: Vec<f64> = (0..8).map(|i| (i as f64) / 8.0).collect();
    ae.train_sample(&sample);
    let mut scores = Vec::new();
    ae.score_rows_with(&Matrix::row_vector(&sample), &mut scores, &mut Workspace::new());
    ae.train_sample(&sample);
    ae.score_rows_with(&Matrix::row_vector(&sample), &mut scores, &mut Workspace::new());
    assert_ne!(scores[0], scores[1], "the step must move the score");
    // `train_sample` reports the RMSE of the live weights before its step.
    let live = ae.clone().train_sample(&sample);
    assert_eq!(scores[1].to_bits(), live.to_bits(), "score differs from the live one");
}

#[test]
fn lstm_regressor_prediction_after_training_reads_the_updated_weights() {
    let mut model = LstmRegressor::new(1, LstmRegressorConfig::default());
    let window: Vec<f64> = (0..6).map(|i| f64::from(i % 2)).collect();
    let windows = Matrix::row_vector(&window);
    model.train_window(&window, 1.0);
    let mut predictions = Vec::new();
    model.predict_windows_with(&windows, &mut predictions, &mut Workspace::new());
    model.train_window(&window, 0.0);
    model.predict_windows_with(&windows, &mut predictions, &mut Workspace::new());
    assert_ne!(predictions[0], predictions[1], "the step must move the prediction");
    // `train_window` reports the squared error of the live weights before
    // its step.
    let live = model.clone().train_window(&window, 0.5);
    let error = (predictions[1] - 0.5).powi(2);
    assert_eq!(error.to_bits(), live.to_bits(), "prediction differs from the live one");
}
