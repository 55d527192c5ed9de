//! Data preprocessing and sampling (Section IV-A steps 1–2).
//!
//! The paper's pipeline, reproduced exactly:
//!
//! 1. **Random flow sampling** — when a dataset is too large, whole flows
//!    are sampled at random (sampling packets independently would destroy
//!    the flow structure every evaluated IDS depends on).
//! 2. **Timestamp re-sort** — after sampling, packets are re-sorted by
//!    timestamp so "the IDSs received data that preserved the temporal
//!    statistics of the input packets".
//! 3. **Train/eval split** — the leading part of the trace (by time) is
//!    made available for training/calibration, mirroring how the evaluated
//!    systems train on initial traffic when no explicit benign capture
//!    exists: a fraction of the packets ([`Split::Fraction`]), or every
//!    packet before a traffic time ([`Split::BeforeSecs`]).
//! 4. **Flow assembly** — the same packet stream is also delivered as
//!    labeled flow records for flow-input IDSs.

use std::collections::HashMap;

use idsbench_flow::{FlowKey, FlowTableConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::{ParsedView, TrainView};
use crate::label::LabeledPacket;
use crate::{CoreError, Result};

/// Seed for the flow-sampling RNG.
const SAMPLING_SEED: u64 = 0;

/// Where the timestamp-sorted trace splits into training and evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Split {
    /// The leading fraction of packets, in `[0, 1)` ([`split_at_fraction`]).
    Fraction(f64),
    /// Every packet before this traffic time in seconds, finite and ≥ 0: a
    /// scenario's attack-free lead (`ScenarioSource::split_warmup_secs`' rule).
    BeforeSecs(f64),
}

/// Configuration for the preprocessing pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Fraction of flows retained by random flow sampling (1.0 = keep all).
    pub sampling_rate: f64,
    /// The part of the sorted trace available for training/calibration.
    pub split: Split,
    /// Flow-table parameters used for flow assembly.
    pub flow_config: FlowTableConfig,
}

impl Default for PipelineConfig {
    /// Keep every flow, train on the leading 30% (the split the evaluated
    /// anomaly detectors assume).
    fn default() -> Self {
        PipelineConfig {
            sampling_rate: 1.0,
            split: Split::Fraction(0.3),
            flow_config: FlowTableConfig::default(),
        }
    }
}

/// Prepared input for event replay: the training slice in both shapes plus
/// the evaluation packets as parsed views, produced by
/// [`Pipeline::prepare_events`].
///
/// Evaluation flows are deliberately *not* materialized here — the drivers
/// deliver them as [`Event::FlowEvicted`](crate::event::Event::FlowEvicted)
/// events at the moment the flow table evicts them, because eviction timing
/// is part of what is being evaluated.
#[derive(Debug, Clone)]
pub struct EventInput {
    /// The training slice: parsed packets plus the flows assembled from
    /// exactly those packets.
    pub train: TrainView,
    /// Evaluation packets with their parsed views, in timestamp order.
    pub eval: Vec<ParsedView>,
    /// Flow-table parameters the eval replay must use (the same ones the
    /// training flows were assembled with).
    pub flow_config: FlowTableConfig,
}

/// The preprocessing pipeline (see module docs).
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `sampling_rate` is outside
    /// `(0, 1]` or `split` out of the range its [`Split`] variant names.
    pub fn new(config: PipelineConfig) -> Result<Self> {
        if !(config.sampling_rate > 0.0 && config.sampling_rate <= 1.0) {
            return Err(CoreError::invalid(
                "sampling_rate",
                format!("{} not in (0, 1]", config.sampling_rate),
            ));
        }
        let split_ok = match config.split {
            Split::Fraction(fraction) => (0.0..1.0).contains(&fraction),
            Split::BeforeSecs(secs) => secs.is_finite() && secs >= 0.0,
        };
        if !split_ok {
            return Err(CoreError::invalid("split", format!("{:?} out of range", config.split)));
        }
        Ok(Pipeline { config })
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the parse-once pipeline for event replay: decode every packet
    /// exactly once, flow-sample on the precomputed keys, sort, split, and
    /// assemble the training slice's flow view.
    ///
    /// This is the preparation step behind [`crate::runner::evaluate`] and
    /// the entry point for replaying externally captured traffic (pcap)
    /// through the event drivers. Malformed frames are *not* an error here:
    /// they ride through as keyless [`ParsedView`]s that packet detectors
    /// score neutrally, exactly as a deployed IDS passes them through.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyDataset`] if nothing survives sampling.
    pub fn prepare_events(&self, name: &str, packets: Vec<LabeledPacket>) -> Result<EventInput> {
        // The data plane's single parse per packet (see `event` module).
        let views: Vec<ParsedView> = packets.into_iter().map(ParsedView::from_packet).collect();
        let sampled = self.sample_flow_views(views);
        if sampled.is_empty() {
            return Err(CoreError::EmptyDataset { dataset: name.to_string() });
        }
        let mut sorted = sampled;
        sorted.sort_by_key(|view| view.packet.packet.ts);

        let (train_views, eval) = match self.config.split {
            Split::Fraction(fraction) => split_at_fraction(sorted, fraction),
            Split::BeforeSecs(secs) => {
                let lead = sorted.partition_point(|v| v.packet.packet.ts.as_secs_f64() < secs);
                let eval = sorted.split_off(lead);
                (sorted, eval)
            }
        };
        let train = TrainView::assemble(train_views, self.config.flow_config);
        Ok(EventInput { train, eval, flow_config: self.config.flow_config })
    }

    /// Step 1: random flow sampling on the precomputed canonical keys. The
    /// RNG is drawn once per newly seen flow, in arrival order, and every
    /// packet of a flow shares that one keep/drop decision, so the kept
    /// set is a pure function of the input and [`SAMPLING_SEED`]. Packets
    /// without flow identity — non-IP *and* malformed frames — are always
    /// retained, honouring the event pipeline's pass-through promise.
    fn sample_flow_views(&self, views: Vec<ParsedView>) -> Vec<ParsedView> {
        if self.config.sampling_rate >= 1.0 {
            return views;
        }
        let mut rng = SmallRng::seed_from_u64(SAMPLING_SEED);
        let mut keep: HashMap<FlowKey, bool> = HashMap::new();
        views
            .into_iter()
            .filter(|view| match view.flow_key {
                None => true,
                Some(key) => *keep
                    .entry(key)
                    .or_insert_with(|| rng.random_range(0.0..1.0) < self.config.sampling_rate),
            })
            .collect()
    }
}

/// Step 3: splits a timestamp-sorted trace at the leading `fraction` of
/// items (`⌊len · fraction⌋`) into (train/warmup, eval) — the *single*
/// definition of the [`Split::Fraction`] rule. The batch pipeline (packets
/// and parsed views alike) and the streaming engine's warmup split all call
/// this function, which is what keeps the streaming↔batch parity invariant
/// stable under maintenance.
pub fn split_at_fraction<T>(mut items: Vec<T>, fraction: f64) -> (Vec<T>, Vec<T>) {
    let split = ((items.len() as f64) * fraction.clamp(0.0, 1.0)) as usize;
    let rest = items.split_off(split.min(items.len()));
    (items, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::LabeledFlow;
    use crate::label::Label;
    use idsbench_net::{MacAddr, PacketBuilder, TcpFlags, Timestamp};
    use std::collections::BTreeSet;
    use std::net::Ipv4Addr;

    fn tcp_packet(src: (u8, u16), dst: (u8, u16), t: f64, label: Label) -> LabeledPacket {
        let p = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(src.0 as u32), MacAddr::from_host_id(dst.0 as u32))
            .ipv4(Ipv4Addr::new(10, 0, 0, src.0), Ipv4Addr::new(10, 0, 0, dst.0))
            .tcp(src.1, dst.1, TcpFlags::ACK)
            .payload(&[0; 20])
            .build(Timestamp::from_secs_f64(t));
        LabeledPacket::new(p, label)
    }

    fn many_flows(flows: usize, packets_per_flow: usize) -> Vec<LabeledPacket> {
        let mut out = Vec::new();
        for f in 0..flows {
            for p in 0..packets_per_flow {
                out.push(tcp_packet(
                    (1 + (f % 4) as u8, 1000 + f as u16),
                    (20, 80),
                    f as f64 + p as f64 * 0.001,
                    Label::Benign,
                ));
            }
        }
        out
    }

    /// Every packet of a prepared input, train slice first.
    fn all_views(input: &EventInput) -> impl Iterator<Item = &ParsedView> {
        input.train.packets.iter().chain(&input.eval)
    }

    /// The flows that survived sampling.
    fn kept_flows(input: &EventInput) -> BTreeSet<FlowKey> {
        all_views(input).filter_map(|view| view.flow_key).collect()
    }

    #[test]
    fn sorting_orders_by_timestamp() {
        let pipeline = Pipeline::new(PipelineConfig::default()).unwrap();
        let mut packets = many_flows(5, 3);
        packets.reverse();
        let input = pipeline.prepare_events("t", packets).unwrap();
        let all: Vec<&ParsedView> = all_views(&input).collect();
        assert_eq!(all.len(), 15);
        for pair in all.windows(2) {
            assert!(pair[0].packet.packet.ts <= pair[1].packet.packet.ts);
        }
    }

    #[test]
    fn sampling_keeps_whole_flows() {
        let config = PipelineConfig {
            sampling_rate: 0.5,
            split: Split::Fraction(0.0),
            ..Default::default()
        };
        let pipeline = Pipeline::new(config).unwrap();
        let input = pipeline.prepare_events("t", many_flows(100, 4)).unwrap();
        // Every surviving flow must have all 4 packets.
        let mut counts: HashMap<FlowKey, usize> = HashMap::new();
        for view in &input.eval {
            *counts.entry(view.flow_key.unwrap()).or_default() += 1;
        }
        assert!(!counts.is_empty());
        assert!(counts.len() < 100, "some flows must be dropped");
        for (key, count) in counts {
            assert_eq!(count, 4, "flow {key:?} was sampled partially");
        }
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let sample = || {
            let config = PipelineConfig { sampling_rate: 0.3, ..Default::default() };
            kept_flows(
                &Pipeline::new(config).unwrap().prepare_events("t", many_flows(50, 2)).unwrap(),
            )
        };
        let a = sample();
        assert!(!a.is_empty() && a.len() < 50, "kept {} of 50 flows", a.len());
        assert_eq!(a, sample(), "the same seed must keep the identical flow set");
    }

    #[test]
    fn split_fraction_is_respected() {
        let config = PipelineConfig { split: Split::Fraction(0.25), ..Default::default() };
        let pipeline = Pipeline::new(config).unwrap();
        let input = pipeline.prepare_events("t", many_flows(10, 4)).unwrap();
        assert_eq!(input.train.packets.len(), 10);
        assert_eq!(input.eval.len(), 30);
    }

    #[test]
    fn flows_inherit_attack_labels() {
        let pipeline =
            Pipeline::new(PipelineConfig { split: Split::Fraction(0.9), ..Default::default() })
                .unwrap();
        let mut packets = many_flows(3, 2);
        packets.push(tcp_packet(
            (9, 6666),
            (20, 80),
            0.5,
            Label::Attack(crate::AttackKind::PortScan),
        ));
        // Six of the seven packets train: flows 0 and 1, the attack, and
        // the first packet of flow 2.
        let input = pipeline.prepare_events("t", packets).unwrap();
        let attacks: Vec<&LabeledFlow> =
            input.train.flows.iter().filter(|f| f.is_attack()).collect();
        assert_eq!(attacks.len(), 1);
        assert_eq!(attacks[0].label.attack_kind(), Some(crate::AttackKind::PortScan));
        assert_eq!(input.train.flows.len(), 4);
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let pipeline = Pipeline::new(PipelineConfig::default()).unwrap();
        assert!(matches!(
            pipeline.prepare_events("empty", Vec::new()),
            Err(CoreError::EmptyDataset { .. })
        ));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(Pipeline::new(PipelineConfig { sampling_rate: 0.0, ..Default::default() }).is_err());
        assert!(Pipeline::new(PipelineConfig { sampling_rate: 1.5, ..Default::default() }).is_err());
        let split = |split| Pipeline::new(PipelineConfig { split, ..Default::default() });
        assert!(split(Split::Fraction(1.0)).is_err());
        assert!(split(Split::BeforeSecs(f64::NAN)).is_err());
        assert!(split(Split::BeforeSecs(-1.0)).is_err());
        assert!(split(Split::BeforeSecs(f64::INFINITY)).is_err());
        assert!(split(Split::BeforeSecs(0.0)).is_ok());
    }

    #[test]
    fn a_time_split_trains_on_the_packets_strictly_before_it() {
        // Flow f's packets sit at f, f + 1 ms and f + 2 ms; the two packets
        // at exactly 4.0 s arrive tied, flow 9's first.
        let mut packets = many_flows(6, 3);
        packets.push(tcp_packet((9, 9000), (20, 80), 4.0, Label::Benign));
        packets.push(tcp_packet((8, 8000), (20, 80), 4.0, Label::Benign));
        let prepare = |secs| {
            let config = PipelineConfig { split: Split::BeforeSecs(secs), ..Default::default() };
            Pipeline::new(config).unwrap().prepare_events("t", packets.clone()).unwrap()
        };
        let port = |view: &ParsedView| view.parsed.as_ref().unwrap().src_port().unwrap();
        let input = prepare(4.0);
        assert_eq!(input.train.packets.len(), 12);
        assert!(input.train.packets.iter().all(|view| view.packet.packet.ts.as_secs_f64() < 4.0));
        // A packet at exactly the boundary is evaluated, and ties keep
        // their arrival order.
        let ports: Vec<u16> = input.eval.iter().take(3).map(port).collect();
        assert_eq!(ports, [1004, 9000, 8000]);
        assert_eq!(input.eval.len(), 8);
        // A split at 0 s trains on nothing.
        let input = prepare(0.0);
        assert!(input.train.packets.is_empty() && input.train.flows.is_empty());
        assert_eq!(input.eval.len(), 20);
    }
}
