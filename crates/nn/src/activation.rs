use crate::lane::Lane;

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Activation {
    /// Logistic sigmoid `1/(1+e^-x)`.
    Sigmoid,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear output layer).
    Linear,
}

impl Activation {
    /// Applies the activation to one scalar of either [`Lane`] — the
    /// per-element kernel of the fused bias+activation epilogue (see
    /// [`crate::Dense::forward_rows_into`]) and of the training forward. In
    /// `f64` it is libm `exp`/`tanh`, so training and inference stay
    /// bit-identical; in `f32` the sigmoid runs on the vectorizable
    /// polynomial exp of [`crate::wide`], within the epsilon contract.
    #[inline]
    pub fn eval<L: Lane>(self, x: L) -> L {
        match self {
            Activation::Sigmoid => x.sigmoid(),
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Linear => x,
        }
    }

    /// Derivative with respect to the pre-activation, expressed in terms of
    /// the *activated* output `y = f(x)` (all four supported functions admit
    /// this form, which avoids caching pre-activations).
    #[inline]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Linear => 1.0,
        }
    }
}

// `#[inline]`: the lane-generic kernels calling this are instantiated in
// downstream crates, where a non-inline function is an opaque call inside
// the activation loops.
#[inline]
pub(crate) fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        // Numerically stable branch for large negative inputs.
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0).abs() < 1e-12);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!([-1.0, 0.0, 2.5].map(|x| Activation::Relu.eval(x)), [0.0, 0.0, 2.5]);
    }

    #[test]
    fn derivatives_match_numeric() {
        let points = [-2.0, -0.5, 0.1, 1.5];
        let eps = 1e-6;
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Linear] {
            for &p in &points {
                let analytic = act.derivative_from_output(act.eval(p));
                let numeric = (act.eval(p + eps) - act.eval(p - eps)) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-5,
                    "{act:?} at {p}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_from_output() {
        let d =
            [-1.0, 2.0].map(|x| Activation::Relu.derivative_from_output(Activation::Relu.eval(x)));
        assert_eq!(d, [0.0, 1.0]);
    }
}
