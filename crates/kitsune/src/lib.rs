//! Kitsune (Mirsky et al., NDSS'18) reimplemented for the `idsbench`
//! evaluation pipeline.
//!
//! Kitsune is an online, unsupervised, plug-and-play NIDS:
//!
//! 1. **AfterImage** extracts a 100-dimensional temporal-context vector per
//!    packet ([`idsbench_flow::AfterImage`]). The detector shell
//!    ([`idsbench_core::shell`]) runs it, for HELAD too, and hands the model
//!    one feature row per well-formed packet.
//! 2. A **feature mapper** clusters correlated features during a grace
//!    period ([`feature_mapper::CorrelationTracker`]).
//! 3. **KitNET** — an ensemble of small autoencoders plus an output
//!    autoencoder — is trained online on the (assumed benign) leading
//!    traffic; its reconstruction RMSE is the anomaly score
//!    ([`kitnet::KitNet`]).
//!
//! [`KitsuneModel`] is steps 2 and 3; [`Kitsune`] is that model in the
//! detector shell, which implements the `EventDetector` contract: `fit`
//! spends the training rows on feature mapping and ensemble training, then
//! each burst's rows are scored in one call. Kitsune never touches raw
//! bytes, and batch and single-shard streaming runs score bit-identically.
//!
//! # Examples
//!
//! ```
//! use idsbench_core::{EventDetector, InputFormat};
//! use idsbench_kitsune::Kitsune;
//!
//! let detector = Kitsune::default();
//! assert_eq!(detector.input_format(), InputFormat::Packets);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod feature_mapper;
pub mod kitnet;

use idsbench_core::{Detector, Model, Scoring, TrainRows, TrainView};
use idsbench_flow::AFTERIMAGE_FEATURES;
use idsbench_net::ParsedPacket;
use idsbench_nn::Matrix;

use feature_mapper::CorrelationTracker;
use kitnet::{KitNet, KitNetConfig};

/// Maximum features per ensemble autoencoder (`m` in the paper).
const MAX_AUTOENCODER_SIZE: usize = 10;

/// Fraction of the training slice spent on feature mapping.
const FM_GRACE_FRACTION: f64 = 0.10;

/// Configuration for [`Kitsune`]. Every other hyper-parameter is the
/// reference default, fixed as a constant next to the code that reads it
/// (the paper's step 3: out of the box, no per-dataset tuning).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KitsuneConfig {
    /// Weight-initialization seed of the KitNET ensemble.
    pub seed: u64,
}

/// The Kitsune NIDS (see crate docs): [`KitsuneModel`] in the detector shell.
pub type Kitsune = Detector<KitsuneModel>;

impl Model for KitsuneModel {
    const NAME: &'static str = "Kitsune";
    const SCORING: Scoring<Self> =
        Scoring::Features { stage: KitsuneModel::stage, score: KitsuneModel::score };
    type Config = KitsuneConfig;

    /// Runs feature mapping and online ensemble training over the training
    /// slice, returning the fitted per-packet scoring model.
    ///
    /// This is the single training path behind both drivers of the event
    /// contract. An empty training slice yields a degenerate (but
    /// functional) model: one feature cluster per block, untrained weights.
    fn fit(config: &KitsuneConfig, train: &TrainView, rows: &mut TrainRows<'_>) -> Self {
        let width = AFTERIMAGE_FEATURES;
        let train = &train.packets;

        // Phase 1 — feature mapping over the leading views of the training
        // slice, malformed ones included.
        let fm_len =
            ((train.len() as f64 * FM_GRACE_FRACTION) as usize).clamp(1.min(train.len()), 5_000);
        let mut tracker = CorrelationTracker::new(width);
        let mut grace = TrainRows::new(&train[..fm_len]);
        while let Some(row) = grace.next_row() {
            tracker.observe(row);
        }
        let clusters = if tracker.count() >= 2 {
            tracker.cluster(MAX_AUTOENCODER_SIZE)
        } else {
            // Degenerate trace: one cluster per feature block.
            (0..width)
                .collect::<Vec<_>>()
                .chunks(MAX_AUTOENCODER_SIZE)
                .map(<[usize]>::to_vec)
                .collect()
        };

        // Phase 2 — online ensemble training over the whole training slice.
        // The shell's extractor replays the grace slice into the same
        // features phase 1 saw (AfterImage is a function of the packets so
        // far), so nothing is staged between the phases.
        let mut net = KitNet::new(clusters, width, KitNetConfig { seed: config.seed });
        while let Some(row) = rows.next_row() {
            net.train(row);
        }
        KitsuneModel { net, feat_rows: Matrix::zeros(0, width) }
    }
}

/// A fitted Kitsune: the trained KitNET ensemble, scoring feature rows in
/// arrival order. Deliberately *stateful*, as in the reference
/// implementation's execution phase: its input normalizer keeps widening
/// as evaluation rows arrive.
#[derive(Debug)]
pub struct KitsuneModel {
    net: KitNet,
    /// The feature rows staged since the last score.
    feat_rows: Matrix,
}

impl KitsuneModel {
    /// Stages one packet's feature row.
    fn stage(&mut self, _packet: &ParsedPacket, row: &[f64]) {
        self.feat_rows.push_row(row.iter().copied());
    }

    /// Scores the staged rows in one [`KitNet::execute_batch`], amortizing
    /// every autoencoder's weight traffic across the burst, into buffers
    /// the model owns (allocation-free, pinned by `hot_path_allocs`).
    fn score(&mut self, out: &mut Vec<f64>) {
        self.net.execute_batch(&self.feat_rows, out);
        self.feat_rows.start_rows(AFTERIMAGE_FEATURES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_core::{
        AttackKind, Event, EventDetector, InputFormat, Label, LabeledPacket, ParsedView,
    };
    use idsbench_net::{MacAddr, PacketBuilder, TcpFlags, Timestamp};
    use std::net::Ipv4Addr;

    /// Regular benign telemetry plus a mid-eval flood burst, pre-parsed
    /// into (train view, eval views).
    fn toy_input() -> (TrainView, Vec<ParsedView>) {
        let mut packets = Vec::new();
        // Benign: two devices, periodic small packets.
        for i in 0..2400u32 {
            let device = (i % 2) as u8 + 1;
            let p = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(device as u32), MacAddr::from_host_id(100))
                .ipv4(Ipv4Addr::new(10, 0, 0, device), Ipv4Addr::new(10, 0, 0, 100))
                .tcp(40_000 + device as u16, 1883, TcpFlags::PSH | TcpFlags::ACK)
                .payload_len(64)
                .build(Timestamp::from_micros(u64::from(i) * 50_000));
            packets.push(LabeledPacket::new(p, Label::Benign));
        }
        // Attack: a rapid large-packet burst from a new source late in the
        // trace.
        for i in 0..300u32 {
            let p = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(66), MacAddr::from_host_id(100))
                .ipv4(Ipv4Addr::new(66, 6, 6, 6), Ipv4Addr::new(10, 0, 0, 100))
                .udp(1000 + (i % 100) as u16, 53)
                .payload_len(1200)
                .build(Timestamp::from_micros(95_000_000 + u64::from(i) * 100));
            packets.push(LabeledPacket::new(p, Label::Attack(AttackKind::UdpFlood)));
        }
        packets.sort_by_key(|lp| lp.packet.ts);
        let split = packets.len() * 3 / 10;
        // Ensure the training prefix is clean.
        assert!(packets[..split].iter().all(|p| !p.is_attack()));
        let views: Vec<ParsedView> = packets.into_iter().map(ParsedView::from_packet).collect();
        let mut train = views;
        let eval = train.split_off(split);
        (TrainView { packets: train, flows: Vec::new() }, eval)
    }

    fn score_all(detector: &mut Kitsune, train: &TrainView, eval: &[ParsedView]) -> Vec<f64> {
        detector.fit(train);
        eval.iter()
            .map(|view| detector.on_event(&Event::Packet(view)).expect("packet event scored"))
            .collect()
    }

    #[test]
    fn flood_scores_above_benign_baseline() {
        let (train, eval) = toy_input();
        let mut kitsune = Kitsune::default();
        let scores = score_all(&mut kitsune, &train, &eval);
        assert_eq!(scores.len(), eval.len());

        let mut attack_scores = Vec::new();
        let mut benign_scores = Vec::new();
        for (score, view) in scores.iter().zip(&eval) {
            if view.is_attack() {
                attack_scores.push(*score);
            } else {
                benign_scores.push(*score);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&attack_scores) > 1.5 * mean(&benign_scores),
            "attack mean {} vs benign mean {}",
            mean(&attack_scores),
            mean(&benign_scores)
        );
    }

    #[test]
    fn scores_are_finite_nonnegative() {
        let (train, eval) = toy_input();
        let mut kitsune = Kitsune::default();
        for score in score_all(&mut kitsune, &train, &eval) {
            assert!(score.is_finite() && score >= 0.0);
        }
    }

    #[test]
    fn name_and_format() {
        let kitsune = Kitsune::default();
        assert_eq!(kitsune.name(), "Kitsune");
        assert_eq!(kitsune.input_format(), InputFormat::Packets);
    }

    #[test]
    fn flow_events_are_not_kitsunes_shape() {
        let (train, eval) = toy_input();
        let mut kitsune = Kitsune::default();
        let _ = score_all(&mut kitsune, &train, &eval[..10]);
        // A flow eviction must pass through unscored.
        let mut assembler = idsbench_core::FlowEventAssembler::new(Default::default());
        for view in &eval[..50] {
            assembler.observe(view, |_| {});
        }
        for flow in assembler.flush() {
            assert_eq!(kitsune.on_event(&Event::FlowEvicted(&flow)), None);
        }
    }

    #[test]
    fn scoring_without_fit_does_not_panic() {
        let (_, eval) = toy_input();
        let mut kitsune = Kitsune::default();
        let score = kitsune.on_event(&Event::Packet(&eval[0]));
        assert!(score.expect("scored").is_finite());
    }

    /// Stream batching, autoscaling and fabric re-homing all re-cut batch
    /// boundaries, so a score must not depend on where a batch was cut: one
    /// packet per call, the whole trace in one call, and an uneven random
    /// split all give the same bits — from a trained model and from an
    /// unfitted one (one cluster per feature block, an empty input
    /// normalizer).
    #[test]
    fn scores_do_not_depend_on_batch_boundaries() {
        let (train, eval) = toy_input();
        let untrained = TrainView::default();
        for (case, train) in [("trained", &train), ("untrained", &untrained)] {
            let fitted = || {
                let mut kitsune = Kitsune::default();
                EventDetector::fit(&mut kitsune, train);
                kitsune
            };
            let reference: Vec<f64> = {
                let mut kitsune = fitted();
                eval.iter().map(|v| kitsune.on_event(&Event::Packet(v)).unwrap()).collect()
            };
            let mut whole = Vec::new();
            fitted().on_packet_batch(&mut eval.iter(), &mut whole);
            // Uneven bursts (1..=97 packets, LCG-sized) re-use the staging
            // across batch sizes.
            let (mut split, mut kitsune, mut rest, mut state) =
                (Vec::new(), fitted(), &eval[..], 7u64);
            while !rest.is_empty() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let (burst, tail) =
                    rest.split_at((1 + (state >> 33) as usize % 97).min(rest.len()));
                kitsune.on_packet_batch(&mut burst.iter(), &mut split);
                rest = tail;
            }
            for (name, scores) in [("whole", &whole), ("split", &split)] {
                assert_eq!(scores.len(), reference.len());
                for (i, (b, r)) in scores.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        b.to_bits(),
                        r.to_bits(),
                        "{case} packet {i}: {name} {b} vs one-row {r}"
                    );
                }
            }
        }
    }
}
