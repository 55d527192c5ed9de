use crate::activation::Activation;
use crate::dense::Dense;
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::optimizer::Sgd;
use crate::workspace::Workspace;

/// Configuration for [`Autoencoder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoencoderConfig {
    /// Hidden width as a fraction of the input width (KitNET uses 0.75).
    pub hidden_ratio: f64,
    /// SGD learning rate for online training.
    pub learning_rate: f64,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for AutoencoderConfig {
    /// KitNET defaults: `hidden_ratio` 0.75, learning rate 0.1.
    fn default() -> Self {
        AutoencoderConfig { hidden_ratio: 0.75, learning_rate: 0.1, seed: 0 }
    }
}

/// A shallow sigmoid autoencoder trained online, one sample at a time.
///
/// This is the building block of both Kitsune's KitNET ensemble and HELAD's
/// anomaly scorer. Inputs are expected in `[0, 1]` (see
/// [`crate::MinMaxNormalizer`]); the anomaly signal is the reconstruction
/// RMSE.
///
/// # Examples
///
/// ```
/// use idsbench_nn::{Autoencoder, AutoencoderConfig, Matrix, Workspace};
///
/// let mut ae = Autoencoder::new(4, AutoencoderConfig::default());
/// // Train on a repeated "normal" pattern…
/// for _ in 0..200 {
///     ae.train_sample(&[0.1, 0.9, 0.1, 0.9]);
/// }
/// // …then an unseen pattern reconstructs worse.
/// ae.freeze();
/// let rows = Matrix::from_rows(&[&[0.9, 0.1, 0.9, 0.1], &[0.1, 0.9, 0.1, 0.9]]);
/// let mut scores = Vec::new();
/// ae.score_rows_with(&rows, &mut scores, &mut Workspace::new());
/// assert!(scores[0] > scores[1]);
/// ```
#[derive(Debug, Clone)]
pub struct Autoencoder {
    encoder: Dense,
    decoder: Dense,
    optimizer: Sgd,
    input_size: usize,
    trained_samples: u64,
    /// Training scratch, sized by the first [`Autoencoder::train_sample`]
    /// and reused: the staged sample, the loss gradient, and the gradient
    /// the decoder propagates to the encoder.
    input: Matrix,
    grad: Matrix,
    grad_hidden: Matrix,
}

impl Autoencoder {
    /// Creates an autoencoder for `input_size` features.
    ///
    /// # Panics
    ///
    /// Panics if `input_size` is zero or the configuration is out of range
    /// (`hidden_ratio` outside `(0, 1]`, non-positive learning rate).
    pub fn new(input_size: usize, config: AutoencoderConfig) -> Self {
        assert!(input_size > 0, "input size must be positive");
        assert!(
            config.hidden_ratio > 0.0 && config.hidden_ratio <= 1.0,
            "hidden_ratio must be in (0, 1]"
        );
        let hidden = ((input_size as f64 * config.hidden_ratio).ceil() as usize).max(1);
        Autoencoder {
            encoder: Dense::new(input_size, hidden, Activation::Sigmoid, 0, config.seed),
            decoder: Dense::new(hidden, input_size, Activation::Sigmoid, 2, config.seed ^ 0x5eed),
            optimizer: Sgd::new(config.learning_rate),
            input_size,
            trained_samples: 0,
            input: Matrix::default(),
            grad: Matrix::default(),
            grad_hidden: Matrix::default(),
        }
    }

    /// Input (and output) width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden-layer width.
    pub fn hidden_size(&self) -> usize {
        self.encoder.output_size()
    }

    /// Number of training samples consumed.
    pub fn trained_samples(&self) -> u64 {
        self.trained_samples
    }

    /// The encoder and decoder layers (read-only: weights and biases for
    /// inspection and for the training reference tests).
    pub fn layers(&self) -> [&Dense; 2] {
        [&self.encoder, &self.decoder]
    }

    /// Snapshots both layers' parameters (see [`crate::Dense::freeze`]).
    /// Call when training is finished; a later
    /// [`Autoencoder::train_sample`] drops the snapshots automatically.
    pub fn freeze(&mut self) {
        self.encoder.freeze();
        self.decoder.freeze();
    }

    /// Reconstruction RMSE of every row of `xs`, without updating weights:
    /// one score per row is appended to `scores`. This is the steady-state
    /// entry point of the Kitsune/HELAD scoring hot path — zero heap
    /// allocations once `ws` is warm; a single sample is a batch of one
    /// row.
    ///
    /// Each layer's weights stream through cache once per batch, and every
    /// row's score is bitwise identical however the rows are split across
    /// calls — batching reorders only pure computation (pinned by the
    /// `batch_rows_parity` proptests).
    ///
    /// # Panics
    ///
    /// Panics if `xs` has the wrong width or there is no current snapshot
    /// (call [`Autoencoder::freeze`] after the last training step).
    pub fn score_rows_with(&self, xs: &Matrix, scores: &mut Vec<f64>, ws: &mut Workspace) {
        assert_eq!(xs.cols(), self.input_size, "input width mismatch");
        self.encoder.forward_rows_into(xs, &mut ws.ping);
        self.decoder.forward_rows_into(&ws.ping, &mut ws.pong);
        for i in 0..xs.rows() {
            scores.push(rmse(xs.row(i), ws.pong.row(i)));
        }
    }

    /// One online SGD step on `x`; returns the RMSE measured *before* the
    /// update (the score Kitsune reports during its training phase).
    /// Allocation-free after the first call; the encoder is the first
    /// layer, so no input gradient is computed for it.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn train_sample(&mut self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.input_size, "input width mismatch");
        self.input.assign(1, self.input_size, x);
        let hidden = self.encoder.forward_training(&self.input);
        let reconstruction = self.decoder.forward_training(hidden);
        let error = rmse(x, reconstruction.as_slice());
        Loss::Mse.gradient_into(reconstruction, &self.input, &mut self.grad);
        self.decoder.backward(&self.grad, &mut self.optimizer, Some(&mut self.grad_hidden));
        self.encoder.backward(&self.grad_hidden, &mut self.optimizer, None);
        self.trained_samples += 1;
        error
    }
}

/// RMSE of a reconstruction against its input.
fn rmse(x: &[f64], reconstruction: &[f64]) -> f64 {
    let sum: f64 = x
        .iter()
        .zip(reconstruction)
        .map(|(&a, &b)| {
            let d = a - b;
            d * d
        })
        .sum();
    (sum / x.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Score of one sample on the autoencoder's current weights.
    fn score(ae: &Autoencoder, x: &[f64]) -> f64 {
        let mut frozen = ae.clone();
        frozen.freeze();
        let mut scores = Vec::new();
        frozen.score_rows_with(&Matrix::row_vector(x), &mut scores, &mut Workspace::new());
        scores[0]
    }

    #[test]
    fn hidden_size_follows_ratio() {
        let ae = Autoencoder::new(100, AutoencoderConfig::default());
        assert_eq!(ae.hidden_size(), 75);
        let ae = Autoencoder::new(3, AutoencoderConfig { hidden_ratio: 0.5, ..Default::default() });
        assert_eq!(ae.hidden_size(), 2);
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let mut ae = Autoencoder::new(8, AutoencoderConfig::default());
        let pattern = [0.2, 0.8, 0.2, 0.8, 0.5, 0.5, 0.1, 0.9];
        let first = score(&ae, &pattern);
        for _ in 0..500 {
            ae.train_sample(&pattern);
        }
        let last = score(&ae, &pattern);
        assert!(last < first * 0.5, "rmse {first} -> {last}");
    }

    #[test]
    fn anomalies_score_higher_than_trained_manifold() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut ae = Autoencoder::new(6, AutoencoderConfig::default());
        // Normal data: low values with small jitter.
        for _ in 0..2000 {
            let x: Vec<f64> = (0..6).map(|_| rng.random_range(0.0..0.2)).collect();
            ae.train_sample(&x);
        }
        let normal: Vec<f64> = (0..6).map(|_| rng.random_range(0.0..0.2)).collect();
        let anomaly = vec![0.95; 6];
        assert!(
            score(&ae, &anomaly) > 2.0 * score(&ae, &normal),
            "anomaly {} vs normal {}",
            score(&ae, &anomaly),
            score(&ae, &normal)
        );
    }

    #[test]
    fn score_is_pure() {
        let mut ae = Autoencoder::new(4, AutoencoderConfig::default());
        for _ in 0..10 {
            ae.train_sample(&[0.1, 0.2, 0.3, 0.4]);
        }
        let a = score(&ae, &[0.5; 4]);
        let b = score(&ae, &[0.5; 4]);
        assert_eq!(a, b);
        assert_eq!(ae.trained_samples(), 10);
    }

    #[test]
    fn rmse_is_nonnegative_and_bounded_for_unit_inputs() {
        let ae = Autoencoder::new(5, AutoencoderConfig::default());
        let rmse = score(&ae, &[0.0, 1.0, 0.0, 1.0, 0.5]);
        assert!((0.0..=1.0).contains(&rmse), "sigmoid outputs keep rmse in [0,1]: {rmse}");
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_width_panics() {
        let ae = Autoencoder::new(4, AutoencoderConfig::default());
        let _ = score(&ae, &[0.0; 3]);
    }
}
