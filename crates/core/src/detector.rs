//! Shared detector vocabulary: input formats, labeled flows, and verdicts.
//!
//! The detector *contract* itself lives in [`crate::event`]: every system
//! implements [`EventDetector`](crate::event::EventDetector) over the
//! parse-once event stream.

use idsbench_flow::{FlowFeatures, FlowRecord};

use crate::label::Label;

/// The input shape a detector consumes — the packets-vs-flows compatibility
/// axis the paper highlights as a major practical obstacle (Section I).
///
/// Under the Event API both shapes travel on one stream: packet detectors
/// score [`Event::Packet`](crate::event::Event::Packet) events, flow
/// detectors score [`Event::FlowEvicted`](crate::event::Event::FlowEvicted)
/// events emitted by the flow table's eviction path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputFormat {
    /// Scores packet events in timestamp order (Kitsune, HELAD).
    Packets,
    /// Scores flow-eviction events (DNN, Slips).
    Flows,
}

/// A completed flow with its statistical features and ground-truth label.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledFlow {
    /// The assembled flow.
    pub record: FlowRecord,
    /// CICFlowMeter-style feature vector.
    pub features: FlowFeatures,
    /// Ground truth (attack if any constituent packet was attack traffic).
    pub label: Label,
}

impl LabeledFlow {
    /// Shorthand for `label.is_attack()`.
    pub fn is_attack(&self) -> bool {
        self.label.is_attack()
    }
}

/// A binary verdict produced by applying a calibrated threshold to a score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Scored below the threshold.
    Benign,
    /// Scored at or above the threshold.
    Alert,
}
