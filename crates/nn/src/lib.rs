//! Minimal neural-network substrate for the `idsbench` replay-evaluation
//! framework.
//!
//! Three of the four evaluated IDSs are neural: Kitsune (an ensemble of
//! small autoencoders), HELAD (autoencoder + LSTM ensemble), and the
//! supervised three-layer DNN. This crate provides exactly the machinery
//! those systems need — no more:
//!
//! * [`Matrix`]: a small row-major dense matrix,
//! * [`Dense`] layers with [`Activation`] functions and [`Loss`] functions,
//! * [`Mlp`]: a feed-forward network with backprop training,
//! * [`Autoencoder`]: online single-sample training with RMSE scoring,
//! * [`Lstm`] / [`LstmRegressor`]: a single-layer LSTM sequence regressor
//!   trained with truncated BPTT,
//! * [`MinMaxNormalizer`] / [`ZScoreNormalizer`]: streaming normalizers,
//! * [`Sgd`] / [`Adam`]: optimizers with per-parameter state,
//! * [`Workspace`]: caller-owned scratch buffers for allocation-free
//!   steady-state inference.
//!
//! Everything is deterministic given a seed, with no threads and no
//! external math libraries — the activations included: `exp`, `sigmoid` and
//! `tanh` are in-crate polynomial kernels ([`activation`]), not calls into
//! the host's libm.
//!
//! **One inference shape.** Every model scores a *batch of rows* into
//! caller-owned scratch — [`Dense::forward_rows_into`],
//! [`Autoencoder::score_rows_with`], [`Mlp::predict_with`],
//! [`Lstm::final_hidden_windows_with`],
//! [`LstmRegressor::predict_windows_with`] — and a single sample is a batch
//! of one row. A row's result never depends on the rows it was batched
//! with, so stream batching, autoscaling and fabric re-homing can cut
//! batches anywhere without moving a score.
//!
//! **One training implementation.** Training is one step at a time
//! ([`Autoencoder::train_sample`], [`Mlp::train_batch`],
//! [`LstmRegressor::train_window`]), over model-owned scratch that the
//! first step sizes: no per-step heap allocation, and the weight and input
//! gradients come from two kernels (`Xᵀ·δ` as rank-1 row accumulations,
//! `δ·Wᵀ` as dot products over `W`'s contiguous rows) whose accumulation
//! chains are pinned bit for bit to the allocating `transpose`/`matmul`
//! formulation kept as a test-side reference (`tests/training_reference.rs`).
//!
//! **One numeric lane.** Training and inference are both `f64`. A model
//! snapshots its weights at `freeze()` time; any training step drops the
//! snapshot, and inference without a current one panics rather than scoring
//! from stale weights. The blocked kernels keep a fixed ascending
//! accumulation order and the branch-free activations of [`activation`], so
//! scores are bitwise-reproducible across runs, shard counts, batch shapes,
//! build profiles and vector widths (the contract the score-digest tests
//! pin). The matrix type [`Mat`] and its matmul stay generic over a
//! [`Lane`] scalar only so the repository benchmark can time the same
//! matmul in `f32` ([`wide`]).
//!
//! # Examples
//!
//! Train a tiny network on XOR:
//!
//! ```
//! use idsbench_nn::{Activation, Adam, Loss, Matrix, MlpBuilder, Workspace};
//!
//! let mut mlp = MlpBuilder::new(2)
//!     .layer(8, Activation::Tanh)
//!     .layer(1, Activation::Sigmoid)
//!     .seed(7)
//!     .build();
//! let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
//! let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
//! let mut opt = Adam::new(0.05);
//! for _ in 0..800 {
//!     mlp.train_batch(&x, &y, Loss::Mse, &mut opt);
//! }
//! mlp.freeze();
//! let mut ws = Workspace::new();
//! let out = mlp.predict_with(&x, &mut ws);
//! assert!(out.get(0, 0) < 0.2 && out.get(1, 0) > 0.8);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod activation;
mod autoencoder;
mod dense;
mod lane;
mod loss;
mod lstm;
mod matrix;
mod mlp;
mod normalize;
mod optimizer;
pub mod wide;
mod workspace;

pub use activation::Activation;
pub use autoencoder::{Autoencoder, AutoencoderConfig};
pub use dense::Dense;
pub use lane::Lane;
pub use loss::Loss;
pub use lstm::{Lstm, LstmRegressor, LstmRegressorConfig};
pub use matrix::{Mat, Matrix};
pub use mlp::{Mlp, MlpBuilder};
pub use normalize::{MinMaxNormalizer, ZScoreNormalizer};
pub use optimizer::{Adam, Optimizer, Sgd};
pub use wide::MatrixF32;
pub use workspace::Workspace;
