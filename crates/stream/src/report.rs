//! The streaming run report and its reconciliation with the batch
//! [`Experiment`] shape.

use idsbench_core::metrics::{FamilyOutcome, Metrics};
use idsbench_core::runner::Experiment;
use idsbench_core::ScaleEvent;

use crate::metrics::{Throughput, WindowMetrics};

/// Per-shard accounting of one streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Packet events routed to this shard.
    pub packets: usize,
    /// Events this shard's detector scored (packets or flow evictions,
    /// per the detector's input format).
    pub items: usize,
    /// Distinct canonical flows this shard owned.
    pub flows: usize,
    /// Busy seconds of this shard's scoring bursts, flow assembly included
    /// (see [`ShardOutcome::score_seconds`](crate::shard::ShardOutcome)).
    pub score_seconds: f64,
    /// Times the feeder found this shard's channel full and had to block —
    /// the backpressure count. Zero means the shard kept up.
    pub stalls: usize,
}

/// The merged outcome of one streaming run — the streaming counterpart of a
/// batch [`Experiment`] cell, extended with the live dimensions batch
/// evaluation cannot observe (windowed quality, latency, throughput,
/// per-shard load).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Detector name.
    pub detector: String,
    /// Packet-source (dataset/capture) name.
    pub source: String,
    /// Shard count the run started with (the pool may move between
    /// `scale_events`; see `final_shards`).
    pub shards: usize,
    /// Per-shard feeder batch size.
    pub batch_size: usize,
    /// Packets in the shared warmup slice.
    pub warmup_packets: usize,
    /// Evaluation packets fed through the shards.
    pub eval_packets: usize,
    /// Evaluation events scored — equals `eval_packets` for packet-format
    /// detectors, the flow-eviction count for flow-format detectors.
    pub eval_items: usize,
    /// Packets the source dropped before the feeder saw them (lossy
    /// live-capture sources; always 0 for replay sources, which block).
    pub dropped_packets: u64,
    /// Fraction of scored evaluation events that are attacks.
    pub attack_share: f64,
    /// Resolved alert threshold.
    pub threshold: f64,
    /// Overall headline metrics at the resolved threshold.
    pub metrics: Metrics,
    /// Overall false-positive rate at the resolved threshold.
    pub false_positive_rate: f64,
    /// Area under the ROC curve of the raw score stream. `NaN` in
    /// zero-buffer mode (fixed threshold), where no scores are recorded to
    /// rank.
    pub auc: f64,
    /// Per-attack-family detection outcomes, sorted by family name.
    pub family_recall: Vec<FamilyOutcome>,
    /// Detection quality per tumbling traffic-time window.
    pub windows: Vec<WindowMetrics>,
    /// Wall-clock throughput and latency summary.
    pub throughput: Throughput,
    /// Per-shard load breakdown. Under autoscaling this includes retired
    /// shards; a migrated flow counts only for its final owner.
    pub shard_stats: Vec<ShardStats>,
    /// Every elastic-sharding action the run took, in order. Empty for
    /// fixed-pool runs.
    pub scale_events: Vec<ScaleEvent>,
    /// Shard count when the stream ended (equals `shards` without
    /// autoscaling).
    pub final_shards: usize,
}

impl StreamReport {
    /// Projects this report onto the batch [`Experiment`] shape, so
    /// streaming and batch results of the same detector/dataset pair can sit
    /// in the same tables.
    ///
    /// `score_seconds` maps to the summed busy time across shards and
    /// `train_seconds` to the shared assembly plus the slowest shard's fit
    /// (the batch fields measure one detector's calls).
    pub fn to_experiment(&self) -> Experiment {
        Experiment {
            detector: self.detector.clone(),
            dataset: self.source.clone(),
            metrics: self.metrics,
            threshold: self.threshold,
            eval_items: self.eval_items,
            attack_share: self.attack_share,
            auc: self.auc,
            false_positive_rate: self.false_positive_rate,
            train_seconds: self.throughput.train_seconds,
            score_seconds: self.throughput.score_seconds,
            family_recall: self.family_recall.clone(),
        }
    }

    /// Serializes the report as a self-contained JSON object.
    ///
    /// Hand-rolled through `idsbench_core::json`; the layout is stable.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        json_str(&mut out, "detector", &self.detector);
        out.push(',');
        json_str(&mut out, "source", &self.source);
        out.push(',');
        json_num(&mut out, "shards", self.shards as f64);
        out.push(',');
        json_num(&mut out, "batch_size", self.batch_size as f64);
        out.push(',');
        json_num(&mut out, "warmup_packets", self.warmup_packets as f64);
        out.push(',');
        json_num(&mut out, "eval_packets", self.eval_packets as f64);
        out.push(',');
        json_num(&mut out, "eval_items", self.eval_items as f64);
        out.push(',');
        json_num(&mut out, "dropped_packets", self.dropped_packets as f64);
        out.push(',');
        json_num(&mut out, "attack_share", self.attack_share);
        out.push(',');
        json_num(&mut out, "threshold", self.threshold);
        out.push(',');
        json_num(&mut out, "accuracy", self.metrics.accuracy);
        out.push(',');
        json_num(&mut out, "precision", self.metrics.precision);
        out.push(',');
        json_num(&mut out, "recall", self.metrics.recall);
        out.push(',');
        json_num(&mut out, "f1", self.metrics.f1);
        out.push(',');
        json_num(&mut out, "false_positive_rate", self.false_positive_rate);
        out.push(',');
        json_num(&mut out, "auc", self.auc);
        out.push(',');
        json_num(&mut out, "wall_seconds", self.throughput.wall_seconds);
        out.push(',');
        json_num(&mut out, "packets_per_sec", self.throughput.packets_per_sec);
        out.push(',');
        json_num(&mut out, "p50_latency_us", self.throughput.p50_latency_us);
        out.push(',');
        json_num(&mut out, "p99_latency_us", self.throughput.p99_latency_us);
        out.push(',');
        json_num(&mut out, "score_seconds", self.throughput.score_seconds);
        out.push(',');
        json_num(&mut out, "train_seconds", self.throughput.train_seconds);
        out.push(',');
        out.push_str("\"family_recall\":[");
        for (i, outcome) in self.family_recall.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&outcome.to_json());
        }
        out.push_str("],\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_num(&mut out, "start_secs", w.start_secs);
            out.push(',');
            json_num(&mut out, "packets", w.packets as f64);
            out.push(',');
            json_num(&mut out, "attacks", w.attacks as f64);
            out.push(',');
            json_num(&mut out, "alerts", w.alerts as f64);
            out.push(',');
            json_num(&mut out, "precision", w.precision);
            out.push(',');
            json_num(&mut out, "recall", w.recall);
            out.push(',');
            json_num(&mut out, "false_positive_rate", w.false_positive_rate);
            out.push('}');
        }
        out.push_str("],\"shard_stats\":[");
        for (i, s) in self.shard_stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_num(&mut out, "shard", s.shard as f64);
            out.push(',');
            json_num(&mut out, "packets", s.packets as f64);
            out.push(',');
            json_num(&mut out, "items", s.items as f64);
            out.push(',');
            json_num(&mut out, "flows", s.flows as f64);
            out.push(',');
            json_num(&mut out, "score_seconds", s.score_seconds);
            out.push(',');
            json_num(&mut out, "stalls", s.stalls as f64);
            out.push('}');
        }
        out.push_str("],");
        json_num(&mut out, "final_shards", self.final_shards as f64);
        out.push_str(",\"scale_events\":[");
        for (i, e) in self.scale_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // One encoding for scale events everywhere: the report array and
            // the telemetry journal both delegate to `ScaleEvent::to_json`.
            out.push_str(&e.to_json());
        }
        out.push_str("]}");
        out
    }
}

// The escaping and number conventions live in `idsbench_core::json` (shared
// with the batch report, the telemetry sink, and the fig binaries).
use idsbench_core::json::{num_field as json_num, str_field as json_str};

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> StreamReport {
        StreamReport {
            detector: "length \"v2\"".to_string(),
            source: "toy".to_string(),
            shards: 2,
            batch_size: 32,
            warmup_packets: 10,
            eval_packets: 90,
            eval_items: 90,
            dropped_packets: 4,
            attack_share: 0.1,
            threshold: f64::INFINITY,
            metrics: Metrics { accuracy: 0.9, precision: 1.0, recall: 0.5, f1: 2.0 / 3.0 },
            false_positive_rate: 0.0,
            auc: 0.95,
            family_recall: vec![FamilyOutcome {
                family: "syn-flood".to_string(),
                recall: 0.5,
                alerts: 4,
                packets: 9,
                flows: 0,
            }],
            windows: vec![WindowMetrics {
                index: 0,
                start_secs: 0.0,
                packets: 90,
                attacks: 9,
                alerts: 5,
                precision: 1.0,
                recall: 0.5,
                false_positive_rate: 0.0,
            }],
            throughput: Throughput {
                wall_seconds: 0.5,
                packets_per_sec: 180.0,
                p50_latency_us: 2.0,
                p99_latency_us: 9.0,
                score_seconds: 0.4,
                train_seconds: 0.1,
            },
            shard_stats: vec![
                ShardStats {
                    shard: 0,
                    packets: 50,
                    items: 50,
                    flows: 3,
                    score_seconds: 0.2,
                    stalls: 1,
                },
                ShardStats {
                    shard: 1,
                    packets: 40,
                    items: 40,
                    flows: 2,
                    score_seconds: 0.2,
                    stalls: 0,
                },
            ],
            scale_events: vec![ScaleEvent {
                seq: 30,
                at_secs: 1.5,
                window: 2,
                from_shards: 1,
                to_shards: 2,
                trigger_pps: 4000.0,
                migrated_flows: 3,
                rebalance_micros: 250,
            }],
            final_shards: 2,
        }
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let json = report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"detector\":\"length \\\"v2\\\"\""));
        assert!(json.contains("\"threshold\":null"), "infinity must encode as null");
        assert!(json.contains("\"packets_per_sec\":180"));
        assert!(json.contains("\"windows\":[{"));
        assert!(json.contains("\"shard_stats\":[{\"shard\":0"));
        assert!(json.contains("\"stalls\":1"));
        assert!(json.contains("\"dropped_packets\":4"));
        assert!(json.contains("\"final_shards\":2"));
        assert!(json.contains("\"scale_events\":[{\"seq\":30"));
        assert!(json.contains("\"rebalance_micros\":250"));
        // Balanced braces/brackets (cheap structural sanity).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn experiment_projection_keeps_headline_numbers() {
        let r = report();
        let e = r.to_experiment();
        assert_eq!(e.detector, r.detector);
        assert_eq!(e.dataset, r.source);
        assert_eq!(e.metrics, r.metrics);
        assert_eq!(e.eval_items, 90);
        assert_eq!(e.score_seconds, 0.4);
        assert_eq!(e.train_seconds, 0.1);
    }
}
