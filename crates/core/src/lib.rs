//! The `idsbench` evaluation pipeline — the primary contribution of
//! *Expectations Versus Reality: Evaluating Intrusion Detection Systems in
//! Practice* (DSN 2025) as a reusable library.
//!
//! The paper proposes (and executes) a standardized pipeline for comparing
//! network IDSs across datasets. This crate implements that pipeline:
//!
//! 1. **Vocabulary & contract** — [`Label`]/[`AttackKind`]/[`LabeledPacket`]
//!    ground truth, the [`Dataset`] trait, and the parse-once [`event`]
//!    model: every packet is decoded exactly once into a [`ParsedView`] and
//!    every detector implements one [`EventDetector`] contract over
//!    [`Event::Packet`] and [`Event::FlowEvicted`] events ([`InputFormat`]
//!    names the two shapes — the format-compatibility problem Section I
//!    discusses at length). Every shipped system is one [`Model`] inside
//!    the [`shell`]'s [`Detector`], the contract's single implementation.
//! 2. **Preprocessing** (Section IV-A steps 1–2) — [`preprocess::Pipeline`]:
//!    random flow sampling, timestamp re-sorting, train/eval splitting, and
//!    label-preserving flow assembly.
//! 3. **Deployment** (step 3) — detectors run with their out-of-the-box
//!    configurations: each default is a constant placed next to the code
//!    that uses it, and `Default` builds the detector. What stays settable
//!    is what an experiment varies: Kitsune and HELAD take `seed`, Slips
//!    takes nothing, and the DNN takes `normalize` and `rebalance` (the
//!    preprocessing ablations) plus `seed`. Every model scores in `f64`.
//! 4. **Threshold calibration** (step 4) — [`threshold::ThresholdPolicy`]:
//!    a standardized rule applied uniformly to every IDS.
//! 5. **Metrics & reporting** — [`metrics`] (accuracy/precision/recall/F1,
//!    ROC/AUC) and [`report`] renderers that reproduce the paper's table
//!    layouts, plus [`registry`] holding Tables I–III as data.
//! 6. **Execution** — [`runner`]: the IDS × dataset grid, parallelized with
//!    `std::thread::scope` workers.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod allocwatch;
pub mod arena;
mod dataset;
pub mod fasthash {
    //! Fast hashing for per-packet state maps — re-exported from
    //! [`idsbench_net::fasthash`], which lives at the bottom of the crate
    //! stack so the flow layer can share it.
    pub use idsbench_net::fasthash::{fx_hash, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
}
mod detector;
mod error;
pub mod event;
pub mod json;
mod label;
pub mod metrics;
pub mod preprocess;
pub mod registry;
pub mod report;
pub mod runner;
pub mod shell;
pub mod threshold;
pub mod traffic;

pub use arena::PayloadArena;
pub use dataset::{Dataset, DatasetInfo};
pub use detector::{InputFormat, LabeledFlow};
pub use error::CoreError;
pub use event::{
    Burst, BurstEvent, Event, EventDetector, EventFactory, FeatureRow, FlowEventAssembler,
    FlowMigration, ParsedView, TrainView, BURST_PACKETS,
};
pub use label::{AttackKind, Label, LabeledPacket};
pub use metrics::{Assessment, FamilyCounts, FamilyOutcome};
pub use report::ScaleEvent;
pub use shell::{Detector, FeatureStage, InferenceProbe, Model, Scoring, TrainRows};
pub use traffic::{PacketStream, ScenarioScale, TrafficModel};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
