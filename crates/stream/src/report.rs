//! The streaming run report. Its verdict is the same [`Assessment`] a
//! batch `Experiment` holds, so streaming and batch results of the same
//! detector/dataset pair compare field for field.

// The escaping and number conventions live in `idsbench_core::json`.
use idsbench_core::json::{list_field, num_field, num_fields, num_object, str_field};
use idsbench_core::metrics::Assessment;
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
/// batch `Experiment` cell, extended with the live dimensions batch
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
    /// Evaluation packets fed through the shards. The assessment's
    /// `eval_items` equals it for packet-format detectors and counts flow
    /// evictions for flow-format ones.
    pub eval_packets: usize,
    /// Packets the source dropped before the feeder saw them (lossy
    /// live-capture sources; always 0 for replay sources, which block).
    pub dropped_packets: u64,
    /// The verdict at the resolved threshold. Its AUC is `NaN` in
    /// zero-buffer mode (fixed threshold), where no scores are recorded to
    /// rank.
    pub assessment: Assessment,
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

/// `report.metrics`, `report.threshold`, … read the report's
/// [`Assessment`]: the repository benchmark, the examples and the crate
/// docs read the verdict's fields off the report directly, and this keeps
/// them working without a second copy of the fields.
impl std::ops::Deref for StreamReport {
    type Target = Assessment;

    fn deref(&self) -> &Assessment {
        &self.assessment
    }
}

impl StreamReport {
    /// Serializes the report as a self-contained JSON object.
    ///
    /// Hand-rolled through `idsbench_core::json`; the layout is stable.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        str_field(&mut out, "detector", &self.detector);
        out.push(',');
        str_field(&mut out, "source", &self.source);
        out.push(',');
        num_fields(
            &mut out,
            &[
                ("shards", self.shards as f64),
                ("batch_size", self.batch_size as f64),
                ("warmup_packets", self.warmup_packets as f64),
                ("eval_packets", self.eval_packets as f64),
                ("dropped_packets", self.dropped_packets as f64),
            ],
        );
        out.push(',');
        self.assessment.push_json_members(&mut out);
        out.push(',');
        let t = &self.throughput;
        num_fields(
            &mut out,
            &[
                ("wall_seconds", t.wall_seconds),
                ("packets_per_sec", t.packets_per_sec),
                ("p50_latency_us", t.p50_latency_us),
                ("p99_latency_us", t.p99_latency_us),
                ("score_seconds", t.score_seconds),
                ("train_seconds", t.train_seconds),
            ],
        );
        out.push(',');
        let windows = self.windows.iter().map(|w| {
            num_object(&[
                ("start_secs", w.start_secs),
                ("packets", w.packets as f64),
                ("attacks", w.attacks as f64),
                ("alerts", w.alerts as f64),
                ("precision", w.precision),
                ("recall", w.recall),
                ("false_positive_rate", w.false_positive_rate),
            ])
        });
        list_field(&mut out, "windows", windows);
        out.push(',');
        let shard_stats = self.shard_stats.iter().map(|s| {
            num_object(&[
                ("shard", s.shard as f64),
                ("packets", s.packets as f64),
                ("items", s.items as f64),
                ("flows", s.flows as f64),
                ("score_seconds", s.score_seconds),
                ("stalls", s.stalls as f64),
            ])
        });
        list_field(&mut out, "shard_stats", shard_stats);
        out.push(',');
        num_field(&mut out, "final_shards", self.final_shards as f64);
        out.push(',');
        // One encoding for scale events everywhere: the report array and the
        // telemetry journal both delegate to `ScaleEvent::to_json`.
        list_field(&mut out, "scale_events", self.scale_events.iter().map(ScaleEvent::to_json));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_core::metrics::{FamilyOutcome, Metrics};

    fn report() -> StreamReport {
        StreamReport {
            detector: "length \"v2\"".to_string(),
            source: "toy".to_string(),
            shards: 2,
            batch_size: 32,
            warmup_packets: 10,
            eval_packets: 90,
            dropped_packets: 4,
            assessment: Assessment {
                threshold: f64::INFINITY,
                metrics: Metrics { accuracy: 0.9, precision: 1.0, recall: 0.5, f1: 2.0 / 3.0 },
                false_positive_rate: 0.0,
                auc: 0.95,
                eval_items: 90,
                attack_share: 0.1,
                family_recall: vec![FamilyOutcome {
                    family: "syn-flood".to_string(),
                    recall: 0.5,
                    alerts: 4,
                    packets: 9,
                    flows: 0,
                }],
            },
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

    /// The top-level keys of a JSON object, in order (strings followed by
    /// `:` at depth 1).
    fn top_level_keys(json: &str) -> Vec<String> {
        let (mut keys, mut depth, mut chars) = (Vec::new(), 0, json.chars().peekable());
        while let Some(c) = chars.next() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                '"' => {
                    let mut text = String::new();
                    while let Some(c) = chars.next() {
                        match c {
                            '\\' => text.extend(chars.next()),
                            '"' => break,
                            c => text.push(c),
                        }
                    }
                    if depth == 1 && chars.peek() == Some(&':') {
                        keys.push(text);
                    }
                }
                _ => {}
            }
        }
        keys
    }

    #[test]
    fn json_writes_each_key_once() {
        let mut keys = top_level_keys(&report().to_json());
        let count = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), count, "a key is written twice");
        let mut expected: Vec<&str> = "detector source shards batch_size warmup_packets \
            eval_packets eval_items dropped_packets attack_share threshold accuracy precision \
            recall f1 false_positive_rate auc wall_seconds packets_per_sec p50_latency_us \
            p99_latency_us score_seconds train_seconds family_recall windows shard_stats \
            final_shards scale_events"
            .split_whitespace()
            .collect();
        expected.sort_unstable();
        assert_eq!(keys, expected);
    }
}
