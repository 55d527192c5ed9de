//! The scalar type [`crate::Mat`] and its matmul are generic over.
//!
//! Every model in this crate trains and scores in `f64`; a [`Lane`] supplies
//! only what the matrix type needs to be instantiated at another width: its
//! constants and the conversion from `f64`. The `f32` instantiation
//! ([`crate::MatrixF32`]) exists only so the repository benchmark can time
//! the same matmul at single precision.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul};

/// A scalar the matrix type and its matmul are generic over (`f64`, and
/// `f32` for the benchmark's kernel timing).
pub trait Lane:
    Copy + Debug + Default + PartialEq + Add<Output = Self> + Mul<Output = Self> + AddAssign + 'static
{
    /// Additive identity, the start of every accumulation chain.
    const ZERO: Self;
    /// Output-column tile width of the broadcast matmul: the tile plus the
    /// eight right-hand-side rows of one unrolled pass must stay
    /// L1-resident (9 rows × `TILE` × lane size = 18 KiB, against a typical
    /// 32 KiB L1d).
    const TILE: usize;

    /// Converts from `f64` (identity for `f64`).
    fn from_f64(v: f64) -> Self;
}

impl Lane for f64 {
    const ZERO: f64 = 0.0;
    const TILE: usize = 256;

    #[inline]
    fn from_f64(v: f64) -> f64 {
        v
    }
}
