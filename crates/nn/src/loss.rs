use crate::matrix::Matrix;

/// Training loss functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Loss {
    /// Mean squared error.
    Mse,
    /// Binary cross-entropy over sigmoid outputs.
    BinaryCrossEntropy,
}

impl Loss {
    /// Mean loss over a batch.
    ///
    /// # Panics
    ///
    /// Panics if `prediction` and `target` have different shapes.
    pub fn value(self, prediction: &Matrix, target: &Matrix) -> f64 {
        assert_eq!(
            (prediction.rows(), prediction.cols()),
            (target.rows(), target.cols()),
            "loss shape mismatch"
        );
        let n = (prediction.rows() * prediction.cols()) as f64;
        match self {
            Loss::Mse => {
                let squares = prediction.as_slice().iter().zip(target.as_slice()).map(|(p, y)| {
                    let d = p - y;
                    d * d
                });
                squares.sum::<f64>() / n
            }
            Loss::BinaryCrossEntropy => {
                prediction
                    .as_slice()
                    .iter()
                    .zip(target.as_slice())
                    .map(|(&p, &y)| {
                        let p = p.clamp(1e-12, 1.0 - 1e-12);
                        -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
                    })
                    .sum::<f64>()
                    / n
            }
        }
    }

    /// Gradient of the mean loss with respect to the prediction, written
    /// into `out` (reshaped as needed; allocation-free once it has held
    /// this shape).
    ///
    /// # Panics
    ///
    /// Panics if `prediction` and `target` have different shapes.
    pub fn gradient_into(self, prediction: &Matrix, target: &Matrix, out: &mut Matrix) {
        assert_eq!(
            (prediction.rows(), prediction.cols()),
            (target.rows(), target.cols()),
            "loss shape mismatch"
        );
        let n = (prediction.rows() * prediction.cols()) as f64;
        out.reshape(prediction.rows(), prediction.cols());
        let terms =
            out.as_mut_slice().iter_mut().zip(prediction.as_slice().iter().zip(target.as_slice()));
        match self {
            Loss::Mse => {
                let scale = 2.0 / n;
                for (g, (&p, &y)) in terms {
                    *g = (p - y) * scale;
                }
            }
            Loss::BinaryCrossEntropy => {
                for (g, (&p, &y)) in terms {
                    let p = p.clamp(1e-12, 1.0 - 1e-12);
                    *g = ((p - y) / (p * (1.0 - p))) / n;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_exact_prediction_is_zero() {
        let p = Matrix::from_rows(&[&[0.5, 1.0]]);
        assert_eq!(Loss::Mse.value(&p, &p), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::from_rows(&[&[1.0, 2.0]]);
        let y = Matrix::from_rows(&[&[0.0, 0.0]]);
        assert!((Loss::Mse.value(&p, &y) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bce_penalizes_confident_mistakes() {
        let good = Matrix::from_rows(&[&[0.99]]);
        let bad = Matrix::from_rows(&[&[0.01]]);
        let target = Matrix::from_rows(&[&[1.0]]);
        assert!(
            Loss::BinaryCrossEntropy.value(&bad, &target)
                > Loss::BinaryCrossEntropy.value(&good, &target)
        );
    }

    #[test]
    fn gradients_match_numeric() {
        let eps = 1e-6;
        for loss in [Loss::Mse, Loss::BinaryCrossEntropy] {
            let p = Matrix::from_rows(&[&[0.3, 0.7], &[0.5, 0.9]]);
            let y = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0]]);
            let mut grad = Matrix::default();
            loss.gradient_into(&p, &y, &mut grad);
            for r in 0..2 {
                for c in 0..2 {
                    let mut pp = p.clone();
                    pp.set(r, c, p.get(r, c) + eps);
                    let mut pm = p.clone();
                    pm.set(r, c, p.get(r, c) - eps);
                    let numeric = (loss.value(&pp, &y) - loss.value(&pm, &y)) / (2.0 * eps);
                    assert!(
                        (grad.get(r, c) - numeric).abs() < 1e-5,
                        "{loss:?} grad({r},{c}): {} vs numeric {numeric}",
                        grad.get(r, c)
                    );
                }
            }
        }
    }

    #[test]
    fn bce_handles_saturated_predictions() {
        let p = Matrix::from_rows(&[&[0.0, 1.0]]);
        let y = Matrix::from_rows(&[&[0.0, 1.0]]);
        let v = Loss::BinaryCrossEntropy.value(&p, &y);
        assert!(v.is_finite());
        let mut grad = Matrix::default();
        Loss::BinaryCrossEntropy.gradient_into(&p, &y, &mut grad);
        assert!(grad.as_slice().iter().all(|g| g.is_finite()));
    }
}
