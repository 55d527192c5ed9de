//! The scalar type the inference kernels are generic over.
//!
//! Every inference kernel in this crate — the matrix type, the column
//! pack, the broadcast matmul, the bias+activation epilogue, the LSTM gate
//! update, the frozen-weight snapshots and the scratch buffers — is written
//! once over a [`Lane`] and instantiated twice: `f64` (the bitwise lane
//! behind [`crate::Precision::F64Bitwise`]) and `f32` (the wide lane behind
//! [`crate::Precision::F32Wide`], implemented in [`crate::wide`]). A lane
//! supplies only what genuinely differs between the two: its constants, the
//! `f64` conversions, the dot product of the narrow-head kernel, and the
//! transcendental activations.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul};

use crate::activation::{sigmoid, tanh};
use crate::dense::{Frozen, Snapshot};

/// A numeric lane of the inference kernels. Implemented for `f64` and `f32`
/// only: the snapshot selector names crate-private types, so no other
/// implementation can be written.
pub trait Lane:
    Copy + Debug + Default + PartialEq + Add<Output = Self> + Mul<Output = Self> + AddAssign + 'static
{
    /// Additive identity, the start of every accumulation chain.
    const ZERO: Self;
    /// Output-column tile width of the broadcast matmul: the tile plus the
    /// eight right-hand-side rows of one unrolled pass must stay
    /// L1-resident (9 rows × `TILE` × lane size = 18 KiB for both lanes,
    /// against a typical 32 KiB L1d).
    const TILE: usize;

    /// Converts from `f64` (identity for `f64`, the one narrowing step of
    /// the wide lane).
    fn from_f64(v: f64) -> Self;
    /// Converts to `f64` (exact for both lanes).
    fn to_f64(self) -> f64;
    /// Dot product of two equal-length slices — the kernel of narrow output
    /// heads over a column pack.
    fn dot(a: &[Self], b: &[Self]) -> Self;
    /// Logistic sigmoid.
    fn sigmoid(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// `max(self, 0)`.
    fn relu(self) -> Self;
    /// This lane's slot of a snapshot — the one place generic code turns
    /// "lane `L`" into "that lane's frozen weights".
    #[doc(hidden)]
    fn frozen(snapshot: &Snapshot) -> Option<&Frozen<Self>>;
}

/// The bitwise lane: ascending-`k` accumulation chains and the in-crate
/// activations of [`crate::activation`], so every score is reproducible bit
/// for bit (the contract the score-digest tests pin) without depending on
/// the host's math library.
impl Lane for f64 {
    const ZERO: f64 = 0.0;
    const TILE: usize = 256;

    #[inline]
    fn from_f64(v: f64) -> f64 {
        v
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    /// Sequential dot product: the exact addition chain one output element
    /// of the naive matmul builds (ascending `k`, starting from `0.0`).
    #[inline]
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    #[inline]
    fn sigmoid(self) -> f64 {
        sigmoid(self)
    }

    #[inline]
    fn tanh(self) -> f64 {
        tanh(self)
    }

    #[inline]
    fn relu(self) -> f64 {
        self.max(0.0)
    }

    fn frozen(snapshot: &Snapshot) -> Option<&Frozen<f64>> {
        snapshot.f64.as_ref()
    }
}
