//! Kitsune (Mirsky et al., NDSS'18) reimplemented for the `idsbench`
//! evaluation pipeline.
//!
//! Kitsune is an online, unsupervised, plug-and-play NIDS:
//!
//! 1. **AfterImage** extracts a ~100-dimensional temporal-context vector per
//!    packet ([`idsbench_flow::AfterImage`]).
//! 2. A **feature mapper** clusters correlated features during a grace
//!    period ([`feature_mapper::CorrelationTracker`]).
//! 3. **KitNET** — an ensemble of small autoencoders plus an output
//!    autoencoder — is trained online on the (assumed benign) leading
//!    traffic; its reconstruction RMSE is the anomaly score
//!    ([`kitnet::KitNet`]).
//!
//! The [`Kitsune`] type wires these into the unified
//! [`EventDetector`] contract: [`EventDetector::fit`] spends the training
//! slice on feature mapping and ensemble training, then every
//! [`Event::Packet`] is scored from its already-parsed view — Kitsune never
//! touches raw bytes, so the pipeline's parse-once guarantee holds through
//! the detector. Batch evaluation and a single-shard streaming replay of
//! the same packets produce bit-identical scores (one `fit`/`score_batch`
//! code path; an [`Event::Packet`] is a burst of one).
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

use idsbench_core::{Event, EventDetector, InputFormat, ParsedView, TrainView};
use idsbench_flow::{AfterImage, AfterImageConfig};
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

/// The Kitsune NIDS (see crate docs).
#[derive(Debug)]
pub struct Kitsune {
    config: KitsuneConfig,
    /// The fitted online engine, populated by [`EventDetector::fit`].
    engine: Option<KitsuneEngine>,
    /// Optional sampled timer around the inference kernel.
    probe: Option<idsbench_telemetry::SpanTimer>,
    /// The one-score output of a one-packet [`Event::Packet`] burst.
    single: Vec<f64>,
}

impl Kitsune {
    /// Creates a Kitsune instance with the given configuration.
    pub fn new(config: KitsuneConfig) -> Self {
        Kitsune { config, engine: None, probe: None, single: Vec::with_capacity(1) }
    }

    /// Attaches a sampled [`SpanTimer`](idsbench_telemetry::SpanTimer)
    /// around the inference kernel ([`KitsuneEngine::score_batch`], once
    /// per burst; an [`Event::Packet`] is a burst of one).
    /// Purely observational — scores are bit-identical with or without it —
    /// and allocation-free on the scoring path.
    pub fn attach_inference_probe(&mut self, probe: idsbench_telemetry::SpanTimer) {
        self.probe = Some(probe);
    }

    /// Runs feature mapping and online ensemble training over the training
    /// slice, returning the fitted per-packet scoring engine.
    ///
    /// This is the single training path behind both drivers of the event
    /// contract. An empty training slice yields a degenerate (but
    /// functional) engine: one feature cluster per block, untrained weights.
    pub fn fit(&self, train: &TrainView) -> KitsuneEngine {
        // The reference λ bank.
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        let width = extractor.feature_count();
        let train = &train.packets;

        // Phase 1 — feature mapping over the leading slice of the training
        // data. Feature vectors are buffered so the ensemble can train on
        // them afterwards without re-extracting.
        let fm_len =
            ((train.len() as f64 * FM_GRACE_FRACTION) as usize).clamp(1.min(train.len()), 5_000);
        let mut tracker = CorrelationTracker::new(width);
        let mut buffered: Vec<Option<Vec<f64>>> = Vec::with_capacity(fm_len);
        for view in &train[..fm_len.min(train.len())] {
            let features = features_of(&mut extractor, view);
            if let Some(f) = &features {
                tracker.observe(f);
            }
            buffered.push(features);
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
        let KitsuneConfig { seed } = self.config;
        let mut net = KitNet::new(clusters, width, KitNetConfig { seed });
        for features in buffered.iter().flatten() {
            net.train(features);
        }
        if train.len() > fm_len {
            let mut features = Vec::with_capacity(width);
            for view in &train[fm_len..] {
                if features_into(&mut extractor, view, &mut features) {
                    net.train(&features);
                }
            }
        }

        // Training is done: snapshot the ensemble weights for the execution
        // phase.
        net.freeze();
        KitsuneEngine {
            extractor,
            net,
            feat_buf: Vec::with_capacity(width),
            feat_rows: Matrix::default(),
            valid: Vec::new(),
            batch_scores: Vec::new(),
        }
    }
}

/// A fitted Kitsune: damped-statistics extractor plus trained KitNET
/// ensemble, scoring packets in arrival order (phase 3 of the crate docs).
///
/// The engine is deliberately *stateful*: AfterImage statistics keep
/// evolving as evaluation packets arrive, exactly as in the reference
/// implementation's execution phase.
#[derive(Debug)]
pub struct KitsuneEngine {
    extractor: AfterImage,
    net: KitNet,
    /// Reused per-packet feature buffer — the glue that keeps the
    /// extractor→ensemble hand-off off the heap.
    feat_buf: Vec<f64>,
    /// Batch staging: one feature row per well-formed packet of the burst.
    feat_rows: Matrix,
    /// Which views of the current burst parsed (malformed ones score 0).
    valid: Vec<bool>,
    /// Ensemble scores for the valid rows of the current burst.
    batch_scores: Vec<f64>,
}

impl KitsuneEngine {
    /// Scores a burst of views, pushing one score per view in order.
    /// Feature extraction (stateful AfterImage updates) runs sequentially
    /// per packet; the ensemble forwards then run batched through
    /// [`KitNet::execute_batch`], amortizing every autoencoder's weight
    /// traffic across the burst. Scores do not depend on how the packet
    /// stream was cut into bursts, down to bursts of one packet.
    ///
    /// Steady-state allocation-free: feature extraction, normalization,
    /// cluster partitioning, and every autoencoder forward pass write into
    /// buffers owned by the engine (pinned by the `hot_path_allocs`
    /// integration test).
    pub fn score_batch(
        &mut self,
        views: &mut dyn Iterator<Item = &ParsedView>,
        out: &mut Vec<f64>,
    ) {
        self.valid.clear();
        self.feat_rows.start_rows(self.extractor.feature_count());
        // First pass: sequential feature extraction into the staging rows.
        for view in views {
            let ok = features_into(&mut self.extractor, view, &mut self.feat_buf);
            self.valid.push(ok);
            if ok {
                self.feat_rows.push_row(self.feat_buf.iter().copied());
            }
        }
        self.batch_scores.clear();
        self.net.execute_batch(&self.feat_rows, &mut self.batch_scores);
        // Merge: valid views take the next batch score, malformed score 0.
        let mut scored = self.batch_scores.iter();
        out.extend(self.valid.iter().map(|&ok| {
            if ok {
                *scored.next().expect("one score per valid view")
            } else {
                0.0
            }
        }));
    }
}

impl Default for Kitsune {
    fn default() -> Self {
        Kitsune::new(KitsuneConfig::default())
    }
}

fn features_of(extractor: &mut AfterImage, view: &ParsedView) -> Option<Vec<f64>> {
    view.parsed.as_ref().map(|parsed| extractor.update(parsed))
}

/// Extracts features into a reused buffer; `false` for malformed packets
/// (buffer contents unspecified). The allocation-free sibling of
/// [`features_of`] used on the per-packet paths.
fn features_into(extractor: &mut AfterImage, view: &ParsedView, buf: &mut Vec<f64>) -> bool {
    match &view.parsed {
        Some(parsed) => {
            extractor.update_into(parsed, buf);
            true
        }
        None => false,
    }
}

impl EventDetector for Kitsune {
    fn name(&self) -> &str {
        "Kitsune"
    }

    fn input_format(&self) -> InputFormat {
        InputFormat::Packets
    }

    fn fit(&mut self, train: &TrainView) {
        self.engine = Some(Kitsune::fit(self, train));
    }

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        match event {
            Event::Packet(view) => {
                let mut single = std::mem::take(&mut self.single);
                single.clear();
                self.on_packet_batch(&mut std::iter::once(*view), &mut single);
                let score = single[0];
                self.single = single;
                Some(score)
            }
            Event::FlowEvicted(_) => None,
        }
    }

    fn on_packet_batch(
        &mut self,
        views: &mut dyn Iterator<Item = &ParsedView>,
        scores: &mut Vec<f64>,
    ) {
        // Scoring without fit degrades to an untrained engine rather than
        // panicking — the stream keeps flowing, as a deployed IDS must.
        if self.engine.is_none() {
            self.engine = Some(Kitsune::fit(self, &TrainView::default()));
        }
        let engine = self.engine.as_mut().expect("engine fitted above");
        let started = self.probe.as_ref().and_then(|probe| probe.begin());
        engine.score_batch(views, scores);
        if let (Some(probe), Some(started)) = (&self.probe, started) {
            probe.end(started);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_core::{AttackKind, Label, LabeledPacket};
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
    /// split all give the same bits — from a trained engine and from an
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
