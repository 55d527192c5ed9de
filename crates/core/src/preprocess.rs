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
//! 3. **Train/eval split** — the leading fraction of the trace (by time) is
//!    made available for training/calibration, mirroring how the evaluated
//!    systems train on initial traffic when no explicit benign capture
//!    exists.
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

/// Configuration for the preprocessing pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Fraction of flows retained by random flow sampling (1.0 = keep all).
    pub sampling_rate: f64,
    /// Fraction of the trace (by packet count, after sorting) available for
    /// training/calibration.
    pub train_fraction: f64,
    /// Flow-table parameters used for flow assembly.
    pub flow_config: FlowTableConfig,
}

impl Default for PipelineConfig {
    /// Keep every flow, train on the leading 30% (the split the evaluated
    /// anomaly detectors assume).
    fn default() -> Self {
        PipelineConfig {
            sampling_rate: 1.0,
            train_fraction: 0.3,
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
    /// `(0, 1]` or `train_fraction` outside `[0, 1)`.
    pub fn new(config: PipelineConfig) -> Result<Self> {
        if !(config.sampling_rate > 0.0 && config.sampling_rate <= 1.0) {
            return Err(CoreError::invalid(
                "sampling_rate",
                format!("{} not in (0, 1]", config.sampling_rate),
            ));
        }
        if !(0.0..1.0).contains(&config.train_fraction) {
            return Err(CoreError::invalid(
                "train_fraction",
                format!("{} not in [0, 1)", config.train_fraction),
            ));
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

        let (train_views, eval) = split_at_fraction(sorted, self.config.train_fraction);
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
/// definition of the train/eval split rule. The batch pipeline (packets
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
        let config =
            PipelineConfig { sampling_rate: 0.5, train_fraction: 0.0, ..Default::default() };
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
        let config = PipelineConfig { train_fraction: 0.25, ..Default::default() };
        let pipeline = Pipeline::new(config).unwrap();
        let input = pipeline.prepare_events("t", many_flows(10, 4)).unwrap();
        assert_eq!(input.train.packets.len(), 10);
        assert_eq!(input.eval.len(), 30);
    }

    #[test]
    fn flows_inherit_attack_labels() {
        let pipeline =
            Pipeline::new(PipelineConfig { train_fraction: 0.9, ..Default::default() }).unwrap();
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
        assert!(
            Pipeline::new(PipelineConfig { train_fraction: 1.0, ..Default::default() }).is_err()
        );
    }
}
