//! Caller-owned scratch space for allocation-free inference.
//!
//! Neither half of this crate touches the heap in steady state, and the two
//! halves own their scratch differently. *Scoring* — the path a deployed
//! IDS pays per packet, forever — writes into a caller-owned [`Workspace`]:
//! the activation buffers of the inference entry points
//! ([`Autoencoder::score_rows_with`], [`Mlp::predict_with`],
//! [`Lstm::final_hidden_windows_with`],
//! [`LstmRegressor::predict_windows_with`]), shareable across models.
//! *Training* keeps its scratch inside the model being trained (each [`Dense`] layer's input copy,
//! output, `δ` and parameter gradients; the LSTM's flat per-timestep
//! buffers; the optimizer's moment tables), because those buffers carry
//! state from the forward pass to the backward pass of one step. Both kinds
//! grow to the largest shape they have ever held and are then reused
//! verbatim, so after one warm-up pass per shape neither a scoring loop nor
//! a training loop performs a heap allocation (pinned, for both, by the
//! `hot_path_allocs` integration test at the workspace root).
//!
//! One workspace can serve many models of different sizes — KitNET routes
//! its whole autoencoder ensemble through a single workspace — because the
//! buffers reshape without shrinking capacity.
//!
//! [`Dense`]: crate::Dense
//! [`Autoencoder::score_rows_with`]: crate::Autoencoder::score_rows_with
//! [`Mlp::predict_with`]: crate::Mlp::predict_with
//! [`Lstm::final_hidden_windows_with`]: crate::Lstm::final_hidden_windows_with
//! [`LstmRegressor::predict_windows_with`]: crate::LstmRegressor::predict_windows_with

use crate::dense::LANES;
use crate::matrix::Matrix;

/// Reusable inference scratch buffers (see module docs).
///
/// # Examples
///
/// ```
/// use idsbench_nn::{Autoencoder, AutoencoderConfig, Matrix, Workspace};
///
/// let ae = Autoencoder::new(4, AutoencoderConfig::default());
/// let rows = Matrix::from_rows(&[&[0.1, 0.9, 0.1, 0.9], &[0.5, 0.5, 0.5, 0.5]]);
/// let (mut ws, mut scores) = (Workspace::new(), Vec::new());
/// ae.score_rows_with(&rows, &mut scores, &mut ws);
/// assert_eq!(scores.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Ping/pong activation buffers for layered forward passes.
    pub(crate) ping: Matrix,
    pub(crate) pong: Matrix,
    /// One LSTM timestep's inputs, gathered from every sequence of a batch.
    pub(crate) stage: Matrix,
    /// LSTM input→gates pre-activations (`M × 4·hidden`).
    pub(crate) gates: Matrix,
    /// LSTM hidden→gates contribution, kept separate so the summation
    /// order matches the training-time step bit-for-bit.
    pub(crate) gates_h: Matrix,
    /// LSTM hidden state.
    pub(crate) hidden: Matrix,
    /// LSTM cell state.
    pub(crate) cell: Matrix,
    /// One block of rows in feature-major lanes, an array per feature or
    /// unit and a lane per row: for an autoencoder the transposed input,
    /// the hidden activations and the decoder's pre-activations (see
    /// [`crate::Autoencoder::score_rows_with`]); for an LSTM one timestep's
    /// transposed inputs, the gates, and the hidden and cell states (see
    /// [`crate::Lstm::final_hidden_windows_with`]).
    pub(crate) lanes: Vec<[f64; LANES]>,
}

impl Workspace {
    /// Creates an empty workspace; buffers are sized on first use and kept
    /// thereafter.
    pub fn new() -> Self {
        Workspace::default()
    }
}
