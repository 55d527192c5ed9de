use crate::activation::Activation;
use crate::dense::Dense;
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::optimizer::Optimizer;
use crate::workspace::Workspace;

/// A feed-forward network of [`Dense`] layers.
///
/// Construct with [`MlpBuilder`]. See the crate-level example for training
/// on XOR.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// Training scratch, sized by the first [`Mlp::train_batch`] and
    /// reused: the gradient arriving at the current layer and the one it
    /// propagates, swapped layer by layer.
    grad: Matrix,
    grad_next: Matrix,
}

impl Mlp {
    /// Inference over a batch of rows through caller-owned scratch: the
    /// layers ping-pong between two workspace buffers and the returned
    /// reference points at the final activation (`x.rows() × output_size`)
    /// — zero heap allocations once `ws` is warm. A single sample is a
    /// batch of one row, and a row's output never depends on the rows it
    /// was batched with.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have [`Mlp::input_size`] columns or the
    /// network has no layers.
    pub fn predict_with<'w>(&self, x: &Matrix, ws: &'w mut Workspace) -> &'w Matrix {
        assert!(!self.layers.is_empty(), "network needs at least one layer");
        let mut into_ping = true;
        for (i, layer) in self.layers.iter().enumerate() {
            match (i == 0, into_ping) {
                (true, _) => layer.forward_rows_into(x, &mut ws.ping),
                (false, true) => layer.forward_rows_into(&ws.pong, &mut ws.ping),
                (false, false) => layer.forward_rows_into(&ws.ping, &mut ws.pong),
            }
            into_ping = !into_ping;
        }
        // `into_ping` has flipped past the last write: the final activation
        // sits in the buffer the *last* iteration wrote.
        if into_ping {
            &ws.pong
        } else {
            &ws.ping
        }
    }

    /// One optimization step on a batch; returns the pre-step loss.
    /// Allocation-free once a batch of this many rows has been seen; the
    /// first layer computes no input gradient.
    ///
    /// # Panics
    ///
    /// Panics on input/target shape mismatches.
    pub fn train_batch(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        loss: Loss,
        opt: &mut dyn Optimizer,
    ) -> f64 {
        let mut activation = x;
        for layer in &mut self.layers {
            activation = layer.forward_training(activation);
        }
        let loss_value = loss.value(activation, y);
        loss.gradient_into(activation, y, &mut self.grad);
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            layer.backward(&self.grad, opt, (i > 0).then_some(&mut self.grad_next));
            std::mem::swap(&mut self.grad, &mut self.grad_next);
        }
        loss_value
    }

    /// The layers, input side first (read-only: weights and biases for
    /// inspection and for the training reference tests).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Width of the input layer.
    pub fn input_size(&self) -> usize {
        self.layers.first().map_or(0, Dense::input_size)
    }

    /// Width of the output layer.
    pub fn output_size(&self) -> usize {
        self.layers.last().map_or(0, Dense::output_size)
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// Builder for [`Mlp`].
///
/// # Examples
///
/// ```
/// use idsbench_nn::{Activation, MlpBuilder};
///
/// let mlp = MlpBuilder::new(10)
///     .layer(32, Activation::Relu)
///     .layer(1, Activation::Sigmoid)
///     .seed(42)
///     .build();
/// assert_eq!(mlp.input_size(), 10);
/// assert_eq!(mlp.output_size(), 1);
/// assert_eq!(mlp.depth(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input_size: usize,
    layers: Vec<(usize, Activation)>,
    seed: u64,
}

impl MlpBuilder {
    /// Starts a network taking `input_size` features.
    pub fn new(input_size: usize) -> Self {
        MlpBuilder { input_size, layers: Vec::new(), seed: 0 }
    }

    /// Appends a layer of `size` units with the given activation.
    pub fn layer(mut self, size: usize, activation: Activation) -> Self {
        self.layers.push((size, activation));
        self
    }

    /// Sets the weight-initialization seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if no layers were added or the input size is zero.
    pub fn build(&self) -> Mlp {
        assert!(self.input_size > 0, "input size must be positive");
        assert!(!self.layers.is_empty(), "network needs at least one layer");
        let mut layers = Vec::with_capacity(self.layers.len());
        let mut in_size = self.input_size;
        for (i, &(out_size, activation)) in self.layers.iter().enumerate() {
            assert!(out_size > 0, "layer {i} has zero units");
            layers.push(Dense::new(
                in_size,
                out_size,
                activation,
                i * 2,
                self.seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ));
            in_size = out_size;
        }
        Mlp { layers, grad: Matrix::default(), grad_next: Matrix::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;

    fn predict(mlp: &Mlp, x: &Matrix) -> Matrix {
        mlp.predict_with(x, &mut Workspace::new()).clone()
    }

    #[test]
    fn xor_is_learnable() {
        let mut mlp = MlpBuilder::new(2)
            .layer(8, Activation::Tanh)
            .layer(1, Activation::Sigmoid)
            .seed(3)
            .build();
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut opt = Adam::new(0.05);
        let mut last = f64::INFINITY;
        for _ in 0..1000 {
            last = mlp.train_batch(&x, &y, Loss::BinaryCrossEntropy, &mut opt);
        }
        assert!(last < 0.1, "final loss {last}");
        let out = predict(&mlp, &x);
        assert!(out.get(0, 0) < 0.3);
        assert!(out.get(1, 0) > 0.7);
        assert!(out.get(2, 0) > 0.7);
        assert!(out.get(3, 0) < 0.3);
    }

    #[test]
    fn training_reduces_loss_monotonically_on_average() {
        let mut mlp = MlpBuilder::new(3)
            .layer(8, Activation::Relu)
            .layer(2, Activation::Linear)
            .seed(1)
            .build();
        let x = Matrix::xavier(16, 3, 99);
        // Learn a fixed random linear map.
        let w = Matrix::xavier(3, 2, 123);
        let y = x.matmul(&w);
        let mut opt = Adam::new(0.01);
        let first = mlp.train_batch(&x, &y, Loss::Mse, &mut opt);
        let mut last = first;
        for _ in 0..500 {
            last = mlp.train_batch(&x, &y, Loss::Mse, &mut opt);
        }
        assert!(last < first * 0.05, "loss {first} -> {last}");
    }

    #[test]
    fn builder_reports_shapes() {
        let mlp = MlpBuilder::new(4)
            .layer(10, Activation::Relu)
            .layer(10, Activation::Relu)
            .layer(2, Activation::Sigmoid)
            .build();
        assert_eq!(mlp.depth(), 3);
    }

    #[test]
    fn identical_seeds_build_identical_networks() {
        let a = MlpBuilder::new(2).layer(4, Activation::Tanh).seed(5).build();
        let b = MlpBuilder::new(2).layer(4, Activation::Tanh).seed(5).build();
        let x = Matrix::from_rows(&[&[0.3, -0.4]]);
        assert_eq!(predict(&a, &x), predict(&b, &x));
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_network_panics() {
        let _ = MlpBuilder::new(2).build();
    }
}
