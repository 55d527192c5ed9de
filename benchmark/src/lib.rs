//! The repository's benchmark: seven workloads that each isolate one
//! bottleneck, five end-to-end metrics (four with regression bounds, plus
//! `failed_share`, which must be 0), and an
//! outside-in per-layer budget — all measured through the workspace
//! crates' `pub` items, none of which this package changes.
//!
//! See `README.md` for the metric and workload tables, the protocol, and
//! how to compare two commits.

pub mod child;
pub mod cli;
pub mod detectors;
pub mod engine;
pub mod host;
pub mod kernels;
pub mod replay;
pub mod sources;
pub mod spec;
pub mod stats;
pub mod trace;
