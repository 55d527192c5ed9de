//! Property-based tests for the neural substrate: training never produces
//! non-finite parameters, normalizers respect their contracts, and
//! gradient-based learning actually reduces loss on random linear problems.

use idsbench_nn::{
    Activation, Adam, Autoencoder, AutoencoderConfig, Loss, Matrix, MinMaxNormalizer, MlpBuilder,
    Sgd, Workspace, ZScoreNormalizer,
};
use proptest::prelude::*;

fn small_f64() -> impl Strategy<Value = f64> {
    (-100.0f64..100.0).prop_filter("finite", |x| x.is_finite())
}

proptest! {
    /// MLP training on arbitrary bounded data never yields NaN/Inf outputs.
    #[test]
    fn mlp_stays_finite(
        rows in proptest::collection::vec(
            proptest::collection::vec(small_f64(), 3),
            4..32,
        ),
        seed in any::<u64>(),
        lr in 0.0001f64..0.05,
    ) {
        let targets: Vec<f64> = rows.iter().map(|r| f64::from(r[0] > 0.0)).collect();
        let x = Matrix::from_fn(rows.len(), 3, |r, c| rows[r][c]);
        let y = Matrix::from_fn(rows.len(), 1, |r, _| targets[r]);
        let mut mlp = MlpBuilder::new(3)
            .layer(6, Activation::Relu)
            .layer(1, Activation::Sigmoid)
            .seed(seed)
            .build();
        let mut opt = Adam::new(lr);
        for _ in 0..30 {
            let loss = mlp.train_batch(&x, &y, Loss::BinaryCrossEntropy, &mut opt);
            prop_assert!(loss.is_finite(), "loss went non-finite");
        }
        for v in mlp.predict_with(&x, &mut Workspace::new()).as_slice() {
            prop_assert!(v.is_finite());
            prop_assert!((0.0..=1.0).contains(v), "sigmoid output out of range: {v}");
        }
    }

    /// A linear problem is learnable by a linear model from any seed.
    #[test]
    fn linear_regression_converges(seed in any::<u64>(), w0 in -3.0f64..3.0, w1 in -3.0f64..3.0) {
        let x = Matrix::from_fn(32, 2, |r, c| ((r * 2 + c) as f64 * 0.37).sin());
        let y = Matrix::from_fn(32, 1, |r, _| w0 * x.get(r, 0) + w1 * x.get(r, 1));
        let mut mlp = MlpBuilder::new(2).layer(1, Activation::Linear).seed(seed).build();
        let mut opt = Sgd::new(0.1);
        let mut last = f64::INFINITY;
        for _ in 0..1500 {
            last = mlp.train_batch(&x, &y, Loss::Mse, &mut opt);
        }
        // Tolerance scales with the target weights' magnitude.
        let tolerance = 1e-2 * (1.0 + w0 * w0 + w1 * w1);
        prop_assert!(last < tolerance, "failed to fit linear map: loss {last}");
    }

    /// Autoencoder scores are finite and non-negative for any input in the
    /// unit cube, trained or not.
    #[test]
    fn autoencoder_scores_well_behaved(
        width in 2usize..24,
        samples in proptest::collection::vec(0.0f64..1.0, 24..96),
        seed in any::<u64>(),
    ) {
        let mut ae = Autoencoder::new(
            width,
            AutoencoderConfig { seed, ..Default::default() },
        );
        for chunk in samples.chunks(width) {
            if chunk.len() == width {
                let rmse = ae.train_sample(chunk);
                prop_assert!(rmse.is_finite() && rmse >= 0.0);
            }
        }
        let probe: Vec<f64> = (0..width).map(|i| (i % 2) as f64).collect();
        let mut scores = Vec::new();
        ae.score_rows_with(&Matrix::row_vector(&probe), &mut scores, &mut Workspace::new());
        prop_assert!(scores[0].is_finite() && scores[0] >= 0.0);
    }

    /// Min-max transform is always in [0, 1] and is monotone per feature.
    #[test]
    fn minmax_is_bounded_and_monotone(
        observations in proptest::collection::vec(small_f64(), 2..64),
        probe_a in small_f64(),
        probe_b in small_f64(),
    ) {
        let mut norm = MinMaxNormalizer::new(1);
        for &x in &observations {
            norm.observe(&[x]);
        }
        let a = norm.transform(&[probe_a])[0];
        let b = norm.transform(&[probe_b])[0];
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!((0.0..=1.0).contains(&b));
        if probe_a <= probe_b {
            prop_assert!(a <= b + 1e-12, "transform must be monotone");
        }
    }

    /// Z-score transform of the fitted data has ~zero mean per feature.
    #[test]
    fn zscore_centers_training_data(
        rows in proptest::collection::vec(
            proptest::collection::vec(small_f64(), 2),
            3..40,
        ),
    ) {
        let scaler = ZScoreNormalizer::fit(&rows);
        let mut sums = [0.0f64; 2];
        for row in &rows {
            let z = scaler.transform(row);
            sums[0] += z[0];
            sums[1] += z[1];
        }
        let n = rows.len() as f64;
        prop_assert!((sums[0] / n).abs() < 1e-6);
        prop_assert!((sums[1] / n).abs() < 1e-6);
    }

    /// Matrix multiplication is associative (within float tolerance) and
    /// distributes over addition.
    #[test]
    fn matmul_algebra(seed in any::<u64>()) {
        let a = Matrix::xavier(4, 3, seed);
        let b = Matrix::xavier(3, 5, seed ^ 1);
        let c = Matrix::xavier(5, 2, seed ^ 2);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        let d = Matrix::xavier(3, 5, seed ^ 3);
        let sum = |p: &Matrix, q: &Matrix| Matrix::from_fn(p.rows(), p.cols(), |r, c| p.get(r, c) + q.get(r, c));
        let dist_left = a.matmul(&sum(&b, &d));
        let dist_right = sum(&a.matmul(&b), &a.matmul(&d));
        for (x, y) in dist_left.as_slice().iter().zip(dist_right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }
}
