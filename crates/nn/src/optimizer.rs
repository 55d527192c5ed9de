use crate::matrix::Matrix;

/// A gradient-descent parameter updater with per-parameter state.
///
/// Parameters are identified by a stable `param_id` assigned by the model
/// — small consecutive integers, so the state (momentum/moment buffers)
/// lives in a dense table indexed by id. A parameter's state is allocated
/// on its first step; every later step allocates nothing.
pub trait Optimizer: std::fmt::Debug {
    /// Applies one update step to `param` given its gradient.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `grad` and `param` shapes differ.
    fn step(&mut self, param_id: usize, param: &mut Matrix, grad: &Matrix);

    /// The rate `r`, when [`Optimizer::step`] is exactly `param[k] -= r·grad[k]`
    /// for every element and reads or writes nothing else — no
    /// per-parameter state. A caller that knows its gradient in factored
    /// form (a one-row layer step: `grad_W = xᵀ·δ`) may then apply that
    /// update itself, element by element, without materialising `grad`.
    /// `None` — the default — means every step must go through
    /// [`Optimizer::step`].
    fn stateless_rate(&self) -> Option<f64> {
        None
    }

    /// Current learning rate.
    fn learning_rate(&self) -> f64;

    /// Replaces the learning rate (used for schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Option<Matrix>>,
}

/// The state slot of `param_id`, created by `init` on the parameter's
/// first step (the table grows to the highest id seen).
fn state_of<T>(states: &mut Vec<Option<T>>, param_id: usize, init: impl FnOnce() -> T) -> &mut T {
    if states.len() <= param_id {
        states.resize_with(param_id + 1, || None);
    }
    states[param_id].get_or_insert_with(init)
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f64) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with classical momentum.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite/positive or `momentum` is outside `[0, 1)`.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd { lr, momentum, velocity: Vec::new() }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, param_id: usize, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(
            (param.rows(), param.cols()),
            (grad.rows(), grad.cols()),
            "gradient shape mismatch"
        );
        if self.momentum == 0.0 {
            for (p, g) in param.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *p -= self.lr * g;
            }
            return;
        }
        let velocity =
            state_of(&mut self.velocity, param_id, || Matrix::zeros(param.rows(), param.cols()));
        for ((v, p), g) in
            velocity.as_mut_slice().iter_mut().zip(param.as_mut_slice()).zip(grad.as_slice())
        {
            *v = self.momentum * *v - self.lr * g;
            *p += *v;
        }
    }

    fn stateless_rate(&self) -> Option<f64> {
        (self.momentum == 0.0).then_some(self.lr)
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

/// The Adam optimizer (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    state: Vec<Option<AdamState>>,
}

#[derive(Debug, Clone)]
struct AdamState {
    m: Matrix,
    v: Matrix,
    t: u64,
}

impl Adam {
    /// Adam with the standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Adam { lr, beta1: 0.9, beta2: 0.999, epsilon: 1e-8, state: Vec::new() }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, param_id: usize, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(
            (param.rows(), param.cols()),
            (grad.rows(), grad.cols()),
            "gradient shape mismatch"
        );
        let state = state_of(&mut self.state, param_id, || AdamState {
            m: Matrix::zeros(param.rows(), param.cols()),
            v: Matrix::zeros(param.rows(), param.cols()),
            t: 0,
        });
        state.t += 1;
        let bias1 = 1.0 - self.beta1.powi(state.t as i32);
        let bias2 = 1.0 - self.beta2.powi(state.t as i32);
        for (((m, v), p), g) in state
            .m
            .as_mut_slice()
            .iter_mut()
            .zip(state.v.as_mut_slice())
            .zip(param.as_mut_slice())
            .zip(grad.as_slice())
        {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 with each optimizer.
    fn minimize(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut x = Matrix::from_rows(&[&[0.0]]);
        for _ in 0..steps {
            let grad = Matrix::from_rows(&[&[2.0 * (x.get(0, 0) - 3.0)]]);
            opt.step(0, &mut x, &grad);
        }
        x.get(0, 0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!((minimize(&mut opt, 200) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        assert!((minimize(&mut opt, 300) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        assert!((minimize(&mut opt, 300) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn optimizers_keep_independent_state_per_param() {
        let mut opt = Adam::new(0.1);
        let mut a = Matrix::from_rows(&[&[0.0]]);
        let mut b = Matrix::from_rows(&[&[0.0, 0.0]]);
        let ga = Matrix::from_rows(&[&[1.0]]);
        let gb = Matrix::from_rows(&[&[1.0, -1.0]]);
        opt.step(0, &mut a, &ga);
        opt.step(1, &mut b, &gb);
        assert!(a.get(0, 0) < 0.0);
        assert!(b.get(0, 0) < 0.0 && b.get(0, 1) > 0.0);
    }

    #[test]
    fn only_momentum_free_sgd_is_stateless() {
        assert_eq!(Sgd::new(0.5).stateless_rate(), Some(0.5));
        assert_eq!(Sgd::with_momentum(0.5, 0.9).stateless_rate(), None);
        assert_eq!(Adam::new(0.5).stateless_rate(), None);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.5);
        assert_eq!(opt.learning_rate(), 0.5);
        opt.set_learning_rate(0.25);
        assert_eq!(opt.learning_rate(), 0.25);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_panics() {
        let _ = Adam::new(0.0);
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn shape_mismatch_panics() {
        let mut opt = Sgd::new(0.1);
        let mut p = Matrix::zeros(2, 2);
        let g = Matrix::zeros(1, 2);
        opt.step(0, &mut p, &g);
    }
}
