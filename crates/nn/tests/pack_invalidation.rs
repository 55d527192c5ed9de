//! Regression tests for the snapshot lifecycle: a training step after
//! `freeze()` must drop every lane's frozen weights (the `f64` and `f32`
//! snapshots alike, narrow column packs included), so inference can never
//! be served from stale weights. Re-freezing after training must score
//! from the updated weights, and inference must refuse to run (panic
//! loudly) rather than silently fall back when the snapshot is gone — in
//! either lane, for every model.

use idsbench_nn::{
    Activation, Autoencoder, AutoencoderConfig, Dense, LstmRegressor, LstmRegressorConfig, Matrix,
    MatrixF32, Precision, Sgd, Workspace,
};

const BOTH: [Precision; 2] = [Precision::F64Bitwise, Precision::F32Wide];

fn probe_rows(cols: usize) -> Matrix {
    Matrix::from_fn(3, cols, |r, c| ((r * cols + c) as f64 * 0.61).sin())
}

/// A narrow-output Dense layer (the shape whose column pack is actually
/// built — wider layers score from the row-major snapshot alone), frozen
/// in both lanes.
fn frozen_narrow_dense() -> Dense {
    let mut layer = Dense::new(16, 2, Activation::Sigmoid, 0, 7);
    for precision in BOTH {
        layer.freeze(precision);
    }
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

    // Re-freezing must reproduce exactly the updated weights' outputs:
    // f64 bitwise (the narrow column pack included), f32 within epsilon.
    for precision in BOTH {
        layer.freeze(precision);
    }
    let mut refrozen = Matrix::default();
    layer.forward_rows_into(&x, &mut refrozen);
    assert_eq!(refrozen, updated, "re-frozen f64 outputs differ from the live weights'");

    let mut wide = MatrixF32::default();
    layer.forward_rows_into(&MatrixF32::from_f64(&x), &mut wide);
    for (i, (&w, &r)) in wide.as_slice().iter().zip(updated.as_slice()).enumerate() {
        assert!(
            (f64::from(w) - r).abs() <= 1e-4 * r.abs().max(1.0),
            "f32 output {i} diverged after re-freeze: {w} vs {r}"
        );
    }
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

#[test]
#[should_panic(expected = "f32 inference without a current snapshot")]
fn dense_f32_inference_panics_when_the_snapshot_is_stale() {
    let mut layer = frozen_narrow_dense();
    let x = probe_rows(16);
    train_step(&mut layer, &x);
    layer.forward_rows_into(&MatrixF32::from_f64(&x), &mut MatrixF32::default());
}

#[test]
#[should_panic(expected = "f32 inference without a current snapshot")]
fn freezing_one_lane_does_not_serve_the_other() {
    let mut layer = Dense::new(4, 3, Activation::Relu, 0, 1);
    layer.freeze(Precision::F64Bitwise);
    layer.forward_rows_into(&MatrixF32::zeros(1, 4), &mut MatrixF32::default());
}

fn trained_autoencoder() -> (Autoencoder, Matrix) {
    let mut ae = Autoencoder::new(8, AutoencoderConfig::default());
    let sample: Vec<f64> = (0..8).map(|i| (i as f64) / 8.0).collect();
    ae.train_sample(&sample);
    for precision in BOTH {
        ae.freeze(precision);
    }
    ae.train_sample(&sample);
    (ae, Matrix::row_vector(&sample))
}

#[test]
fn autoencoder_refreeze_after_training_tracks_across_lanes() {
    let (mut ae, sample) = trained_autoencoder();
    for precision in BOTH {
        ae.freeze(precision);
    }
    let (mut reference, mut wide) = (Vec::new(), Vec::new());
    ae.score_rows_with(&sample, &mut reference, &mut Workspace::new());
    ae.score_rows_with(&MatrixF32::from_f64(&sample), &mut wide, &mut Workspace::new());
    assert!(
        (wide[0] - reference[0]).abs() <= 1e-4 * reference[0].max(1e-9),
        "f32 score {} diverged from f64 {} after re-freeze",
        wide[0],
        reference[0]
    );
}

#[test]
#[should_panic(expected = "f64 inference without a current snapshot")]
fn autoencoder_training_drops_the_f64_snapshot() {
    let (ae, sample) = trained_autoencoder();
    ae.score_rows_with(&sample, &mut Vec::new(), &mut Workspace::new());
}

#[test]
#[should_panic(expected = "f32 inference without a current snapshot")]
fn autoencoder_training_drops_the_f32_snapshot() {
    let (ae, sample) = trained_autoencoder();
    ae.score_rows_with(&MatrixF32::from_f64(&sample), &mut Vec::new(), &mut Workspace::new());
}

fn trained_regressor() -> (LstmRegressor, Matrix) {
    let mut model = LstmRegressor::new(1, LstmRegressorConfig::default());
    let window: Vec<f64> = (0..6).map(|i| f64::from(i % 2)).collect();
    model.train_window(&window, 1.0);
    for precision in BOTH {
        model.freeze(precision);
    }
    model.train_window(&window, 0.0);
    (model, Matrix::row_vector(&window))
}

#[test]
fn lstm_regressor_refreeze_after_training_tracks_across_lanes() {
    let (mut model, window) = trained_regressor();
    for precision in BOTH {
        model.freeze(precision);
    }
    let (mut reference, mut wide) = (Vec::new(), Vec::new());
    model.predict_windows_with(&window, &mut reference, &mut Workspace::new());
    model.predict_windows_with(&MatrixF32::from_f64(&window), &mut wide, &mut Workspace::new());
    assert!(
        (wide[0] - reference[0]).abs() <= 1e-4 * reference[0].abs().max(1.0),
        "f32 prediction {} diverged from f64 {} after re-freeze",
        wide[0],
        reference[0]
    );
}

#[test]
#[should_panic(expected = "f64 inference without a current snapshot")]
fn lstm_regressor_training_drops_the_f64_snapshot() {
    let (model, window) = trained_regressor();
    model.predict_windows_with(&window, &mut Vec::new(), &mut Workspace::new());
}

#[test]
#[should_panic(expected = "f32 inference without a current snapshot")]
fn lstm_regressor_training_drops_the_f32_snapshot() {
    let (model, window) = trained_regressor();
    model.predict_windows_with(
        &MatrixF32::from_f64(&window),
        &mut Vec::new(),
        &mut Workspace::new(),
    );
}
