//! Live stream metrics: windowed detection quality and latency/throughput
//! accounting, merged across shards.
//!
//! Every report is summarised by one fold, [`OnlineStats`]: confusion
//! counts, per-window counts, per-family counts and a logarithmic
//! [`LatencyHistogram`] at one threshold. With a fixed threshold
//! ([`ThresholdMode::Fixed`](crate::executor::ThresholdMode)) each shard
//! folds its events as they are scored and no per-event record is stored —
//! memory stays O(windows + families), not O(events). A calibrated run
//! records one lightweight [`ScoredEvent`] per event instead, resolves the
//! threshold over the merged scores at finalisation, and then folds the
//! records through the same [`OnlineStats::record`]. Either way the
//! report's verdict is built from that fold by the batch runner's
//! constructor, `Assessment::new`. Latency percentiles are approximate to
//! within one histogram bucket (≤ 12.5% relative error) in both modes.

use std::collections::BTreeMap;

use idsbench_core::metrics::{ConfusionMatrix, FamilyCounts};
use idsbench_core::AttackKind;

/// Tumbling-window index of a traffic timestamp — the one boundary rule
/// shared by the metrics windows, the executor's event windowing, and the
/// autoscaler's control loop, so `ScaleEvent::window` and
/// [`WindowMetrics::index`] always join on the same axis.
pub fn window_index(ts_micros: u64, window_secs: f64) -> u64 {
    let window_micros = (window_secs * 1e6) as u64;
    ts_micros / window_micros.max(1)
}

/// One scored evaluation event, as recorded inside a shard of a calibrated
/// run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEvent {
    /// Arrival index of the packet that triggered this event (assigned by
    /// the feeder); `u64::MAX` for end-of-stream flush evictions.
    pub seq: u64,
    /// Orders multiple events triggered by one packet: `0` for the packet
    /// event itself, `1..` for the flow evictions it caused (and the flush
    /// index at end of stream).
    pub sub: u32,
    /// Tumbling window index (`ts / window`).
    pub window: u64,
    /// Anomaly score emitted by the shard's detector.
    pub score: f64,
    /// This event's share of its burst's wall time: the nanoseconds the
    /// shard spent on the burst that scored it (flow assembly included),
    /// divided by the events that burst scored.
    pub latency_nanos: u64,
    /// Ground truth.
    pub label: bool,
    /// Attack family for per-family recall (`None` for benign).
    pub kind: Option<AttackKind>,
}

/// Detection quality over one tumbling time window of the traffic timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowMetrics {
    /// Window index (`start_secs / window length`).
    pub index: u64,
    /// Window start on the traffic timeline, in seconds.
    pub start_secs: f64,
    /// Scored events in the window.
    pub packets: usize,
    /// Attack events in the window.
    pub attacks: usize,
    /// Alerts raised in the window.
    pub alerts: usize,
    /// Precision within the window.
    pub precision: f64,
    /// Recall within the window.
    pub recall: f64,
    /// False-positive rate within the window.
    pub false_positive_rate: f64,
}

/// Online aggregation of scored events at one threshold — the single
/// summary behind every [`StreamReport`]. The report's [`Assessment`] is
/// [`Assessment::new`] over this fold's confusion matrix and family
/// tallies, plus the threshold and the AUC (which needs the score set);
/// its windows and latency percentiles are read from the fold too.
///
/// [`StreamReport`]: crate::report::StreamReport
/// [`Assessment`]: idsbench_core::metrics::Assessment
/// [`Assessment::new`]: idsbench_core::metrics::Assessment::new
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    /// Overall confusion counts at the threshold.
    pub cm: ConfusionMatrix,
    /// Per-window confusion counts and event totals.
    pub windows: BTreeMap<u64, (ConfusionMatrix, usize)>,
    /// Per-family alert/packet/flow counts.
    pub families: BTreeMap<&'static str, FamilyCounts>,
    /// Scoring-latency histogram (log-bucketed).
    pub latency: LatencyHistogram,
    /// Scored events folded in.
    pub events: usize,
}

impl OnlineStats {
    /// Folds one scored event in. `is_flow` distinguishes flow-eviction
    /// events from packet events for the per-family item breakdown.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        window: u64,
        score: f64,
        threshold: f64,
        label: bool,
        kind: Option<AttackKind>,
        is_flow: bool,
        latency_nanos: u64,
    ) {
        let alert = score >= threshold;
        self.cm.record(alert, label);
        let (cm, packets) = self.windows.entry(window).or_default();
        cm.record(alert, label);
        *packets += 1;
        if let Some(kind) = kind {
            self.families.entry(kind.name()).or_default().record(alert, is_flow);
        }
        self.latency.record(latency_nanos);
        self.events += 1;
    }

    /// Merges another shard's aggregation into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        self.cm.merge(&other.cm);
        for (&window, &(cm, packets)) in &other.windows {
            let entry = self.windows.entry(window).or_default();
            entry.0.merge(&cm);
            entry.1 += packets;
        }
        for (&family, counts) in &other.families {
            self.families.entry(family).or_default().merge(counts);
        }
        self.latency.merge(&other.latency);
        self.events += other.events;
    }

    /// Renders the per-window metrics, one per window that saw an event
    /// (sparse traffic timelines leave gaps).
    pub fn window_metrics(&self, window_secs: f64) -> Vec<WindowMetrics> {
        self.windows
            .iter()
            .map(|(&index, (cm, packets))| WindowMetrics {
                index,
                start_secs: index as f64 * window_secs,
                packets: *packets,
                attacks: (cm.true_positives + cm.false_negatives) as usize,
                alerts: (cm.true_positives + cm.false_positives) as usize,
                precision: cm.precision(),
                recall: cm.recall(),
                false_positive_rate: cm.false_positive_rate(),
            })
            .collect()
    }
}

/// The log-bucketed latency histogram, re-exported from
/// `idsbench-telemetry` — the stream engine's per-shard latency unit and
/// the telemetry stage-span unit are one type, so merges and percentile
/// semantics cannot drift apart.
pub use idsbench_telemetry::LatencyHistogram;

/// Wall-clock throughput and latency summary of one streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct Throughput {
    /// Wall-clock seconds from first fed packet to last scored event
    /// (training excluded).
    pub wall_seconds: f64,
    /// Evaluation packets fed per wall-clock second.
    pub packets_per_sec: f64,
    /// Median per-event scoring latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile per-event scoring latency, microseconds.
    pub p99_latency_us: f64,
    /// Summed burst wall time across all shards, seconds — each scoring
    /// burst timed as a whole, flow assembly included (see
    /// [`ShardOutcome::score_seconds`](crate::shard::ShardOutcome)): the
    /// recurring per-event cost of the shard.
    pub score_seconds: f64,
    /// One-time training cost: shared train-view assembly plus the slowest
    /// shard's `fit`, seconds.
    pub train_seconds: f64,
}

impl Throughput {
    /// Builds the summary from run totals and the merged latency histogram
    /// (percentiles approximate, see [`LatencyHistogram`]).
    pub fn from_histogram(
        packets: usize,
        wall_seconds: f64,
        latency: &LatencyHistogram,
        score_seconds: f64,
        train_seconds: f64,
    ) -> Self {
        Throughput {
            wall_seconds,
            packets_per_sec: if wall_seconds > 0.0 { packets as f64 / wall_seconds } else { 0.0 },
            p50_latency_us: latency.percentile(0.50) as f64 / 1_000.0,
            p99_latency_us: latency.percentile(0.99) as f64 / 1_000.0,
            score_seconds,
            train_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::is_eviction;
    use idsbench_core::metrics::{Assessment, FamilyOutcome};

    fn record(seq: u64, window: u64, score: f64, label: bool) -> ScoredEvent {
        ScoredEvent { seq, sub: 0, window, score, latency_nanos: 100, label, kind: None }
    }

    /// The per-family outcomes a report builds from `stats`.
    fn family_recall(stats: &OnlineStats) -> Vec<FamilyOutcome> {
        Assessment::new(0.5, stats.cm, &stats.families, f64::NAN).family_recall
    }

    /// Folds `records` at `threshold`, routing each through the shard's
    /// eviction rule as the report merge does.
    fn fold(records: &[ScoredEvent], threshold: f64) -> OnlineStats {
        let mut stats = OnlineStats::default();
        for r in records {
            let is_flow = is_eviction(r.seq, r.sub);
            stats.record(r.window, r.score, threshold, r.label, r.kind, is_flow, r.latency_nanos);
        }
        stats
    }

    #[test]
    fn windows_partition_the_stream() {
        let records = vec![
            record(0, 0, 0.9, true),
            record(1, 0, 0.1, false),
            record(2, 1, 0.8, false),
            record(3, 3, 0.2, true),
        ];
        let stats = fold(&records, 0.5);
        assert_eq!(stats.events, 4);
        assert_eq!(stats.cm.true_positives + stats.cm.false_negatives, 2);
        let windows = stats.window_metrics(10.0);
        assert_eq!(windows.len(), 3, "empty window 2 omitted");
        assert_eq!(windows[0].packets, 2);
        assert_eq!(windows[0].recall, 1.0);
        assert_eq!(windows[0].precision, 1.0);
        assert_eq!(windows[1].start_secs, 10.0);
        assert_eq!(windows[1].false_positive_rate, 1.0);
        assert_eq!(windows[2].index, 3);
        assert_eq!(windows[2].start_secs, 30.0);
        assert_eq!(windows[2].recall, 0.0);
        assert_eq!(windows[2].alerts, 0);
    }

    #[test]
    fn family_recall_counts_hits() {
        let mut records = vec![record(0, 0, 0.9, true), record(1, 0, 0.2, true)];
        records[0].kind = Some(AttackKind::SynFlood);
        records[1].kind = Some(AttackKind::SynFlood);
        let families = family_recall(&fold(&records, 0.5));
        assert_eq!(families.len(), 1);
        assert_eq!(families[0].family, "syn-flood");
        assert_eq!(families[0].recall, 0.5);
        assert_eq!(families[0].alerts, 1);
        assert_eq!(families[0].packets, 2);
        assert_eq!(families[0].flows, 0);
    }

    #[test]
    fn family_recall_splits_packets_from_flows() {
        let mut packet_event = record(4, 0, 0.9, true);
        packet_event.kind = Some(AttackKind::PortScan);
        let mut eviction = record(5, 0, 0.9, true);
        eviction.sub = 1;
        eviction.kind = Some(AttackKind::PortScan);
        // The end-of-stream flush: `sub = 0`, told apart by its sentinel seq.
        let mut flush = record(u64::MAX, 0, 0.1, true);
        flush.kind = Some(AttackKind::PortScan);
        let families = family_recall(&fold(&[packet_event, eviction, flush], 0.5));
        assert_eq!(families[0].packets, 1);
        assert_eq!(families[0].flows, 2);
        assert_eq!(families[0].alerts, 2);
        assert_eq!(families[0].items(), 3);
    }

    #[test]
    fn online_stats_merge_is_additive() {
        let threshold = 0.5;
        let mut a = OnlineStats::default();
        let mut b = OnlineStats::default();
        let mut whole = OnlineStats::default();
        for (i, r) in (0..10).map(|i| record(i, i / 3, i as f64 / 10.0, i % 2 == 0)).enumerate() {
            let half = if i % 2 == 0 { &mut a } else { &mut b };
            half.record(r.window, r.score, threshold, r.label, r.kind, false, r.latency_nanos);
            whole.record(r.window, r.score, threshold, r.label, r.kind, false, r.latency_nanos);
        }
        a.merge(&b);
        assert_eq!(a.events, whole.events);
        assert_eq!(a.cm, whole.cm);
        assert_eq!(a.window_metrics(10.0), whole.window_metrics(10.0));
    }

    #[test]
    fn throughput_divides_by_wall_time() {
        let mut latency = LatencyHistogram::default();
        for nanos in [1_000, 2_000, 3_000] {
            latency.record(nanos);
        }
        let t = Throughput::from_histogram(1000, 2.0, &latency, 1.5, 0.25);
        assert_eq!(t.packets_per_sec, 500.0);
        assert_eq!(t.train_seconds, 0.25);
        let p50_nanos = latency.percentile(0.50) as f64;
        assert_eq!(t.p50_latency_us, p50_nanos / 1_000.0);
        assert!((p50_nanos - 2_000.0).abs() <= 2_000.0 * 0.125, "p50 within one bucket");
    }
}
