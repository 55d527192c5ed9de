use crate::activation::{sigmoid, Activation};
use crate::dense::{affine_lanes, Dense, LANES};
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

    /// Reconstruction RMSE of every row of `xs`, without updating weights:
    /// one score per row is appended to `scores`. This is the steady-state
    /// entry point of the Kitsune/HELAD scoring hot path — zero heap
    /// allocations once `ws` is warm; a single sample is a batch of one
    /// row.
    ///
    /// The kernel follows the row count. Each full block of `LANES` rows is
    /// scored *rows-in-lanes*: the block is transposed into feature-major
    /// scratch, so one vector holds one feature of eight packets, and each
    /// output unit of the encoder, then the decoder, is one register
    /// accumulator per block with the bias fused into its store; the RMSE
    /// folds in as the decoder's outputs are activated. That holds at every
    /// width: at KitNET's 4–13-wide layers row-major tiles vectorise badly,
    /// and at HELAD's 100 → 50 → 100 the lanes took about half the
    /// row-major time per row. The last `m mod LANES` rows — so every
    /// one-row call — run row-major through [`Dense::forward_rows_into`].
    ///
    /// Both paths build each element by the same chain: `0 + x₀·w₀`, then
    /// `+ x_k·w_k` in ascending `k`, then `+ b`, then the crate's
    /// `sigmoid`, and each RMSE sums `d²` in ascending feature order before
    /// `/ k` and `sqrt`. So every row's score is bitwise identical however
    /// the rows are split across calls and whichever path scored it —
    /// batching reorders only pure computation (pinned by the
    /// `batch_rows_parity` proptests, against a naive reference).
    ///
    /// # Panics
    ///
    /// Panics if `xs` has the wrong width.
    pub fn score_rows_with(&self, xs: &Matrix, scores: &mut Vec<f64>, ws: &mut Workspace) {
        assert_eq!(xs.cols(), self.input_size, "input width mismatch");
        let (m, k) = (xs.rows(), self.input_size);
        let blocked = m - m % LANES;
        if blocked > 0 {
            self.score_lanes(&xs.as_slice()[..blocked * k], scores, ws);
        }
        if blocked == m {
            return;
        }
        let Workspace { ping, pong, stage, .. } = ws;
        let rest = if blocked == 0 {
            xs
        } else {
            stage.assign(m - blocked, k, &xs.as_slice()[blocked * k..]);
            &*stage
        };
        self.encoder.forward_rows_into(rest, ping);
        self.decoder.forward_rows_into(ping, pong);
        for i in 0..rest.rows() {
            scores.push(rmse(rest.row(i), pong.row(i)));
        }
    }

    /// The rows-in-lanes kernel of [`Autoencoder::score_rows_with`] over
    /// `rows`, a whole number of `LANES`-row blocks of row-major input.
    fn score_lanes(&self, rows: &[f64], scores: &mut Vec<f64>, ws: &mut Workspace) {
        let (k, hidden) = (self.input_size, self.hidden_size());
        // Scratch, one `[f64; LANES]` per feature or unit: the transposed
        // input, the hidden activations, the decoder's pre-activations.
        ws.lanes.resize(2 * k + hidden, [0.0; LANES]);
        let (xt, units) = ws.lanes.split_at_mut(k);
        let (ht, yt) = units.split_at_mut(hidden);
        let (we, be) = (self.encoder.weights().as_slice(), self.encoder.bias().as_slice());
        let (wd, bd) = (self.decoder.weights().as_slice(), self.decoder.bias().as_slice());
        for block in rows.chunks_exact(k * LANES) {
            for (lane, row) in block.chunks_exact(k).enumerate() {
                for (feature, &v) in xt.iter_mut().zip(row) {
                    feature[lane] = v;
                }
            }
            affine_lanes(xt, we, be, ht);
            for h in ht.iter_mut() {
                for v in h.iter_mut() {
                    *v = sigmoid(*v);
                }
            }
            affine_lanes(ht, wd, bd, yt);
            let mut sum = [0.0; LANES];
            for (x, y) in xt.iter().zip(yt.iter()) {
                for lane in 0..LANES {
                    let d = x[lane] - sigmoid(y[lane]);
                    sum[lane] += d * d;
                }
            }
            scores.extend(sum.map(|s| (s / k as f64).sqrt()));
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

    /// Score of one sample.
    fn score(ae: &Autoencoder, x: &[f64]) -> f64 {
        let mut scores = Vec::new();
        ae.score_rows_with(&Matrix::row_vector(x), &mut scores, &mut Workspace::new());
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
