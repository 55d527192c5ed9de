//! HELAD (Zhong et al., *Computer Networks* 169, 2020) reimplemented for
//! the `idsbench` evaluation pipeline.
//!
//! HELAD is a *heterogeneous ensemble*: it reuses Kitsune's damped
//! incremental statistics (AfterImage) as the per-packet feature stream,
//! scores each packet with a single wide **autoencoder**, and feeds the
//! recent score history into an **LSTM** that predicts the next score. The
//! final anomaly signal blends the reconstruction error with the LSTM's
//! surprise:
//!
//! ```text
//! score(t) = w_ae · mean(rmse over the packet's channel history) +
//!            w_lstm · |rmse(t) − lstm_prediction(t)|
//! ```
//!
//! The reconstruction term is smoothed over the recent errors *of the same
//! channel* (source↔destination pair): a sustained anomaly keeps its
//! channel's score high, while an isolated benign burst on another channel
//! is damped by that channel's own quiet history — the source of HELAD's
//! high-precision / lower-recall profile on bursty enterprise traffic
//! (CICIDS2017 in Table IV).
//!
//! Training uses the leading traffic slice *assumed to be benign* — the
//! assumption the paper identifies as HELAD's Achilles heel: on datasets
//! without a clean benign prefix (UNSW-NB15) the ensemble normalizes attack
//! traffic and collapses (Table IV), while on Stratosphere's clean IoT
//! baseline it is the best system tested.
//!
//! [`HeladModel`] is the ensemble; [`Helad`] is that model in the detector
//! shell ([`idsbench_core::shell`]), which runs the AfterImage extractor
//! it shares with Kitsune and implements the `EventDetector` contract.
//! Like Kitsune, HELAD has one training/scoring code path (`fit` on the
//! training slice's feature rows, then one score call per burst of staged
//! rows; a packet event is a burst of one), so batch and single-shard
//! streaming runs produce bit-identical scores, and every packet is read
//! through its already-parsed view, never re-parsed.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::collections::VecDeque;

use idsbench_core::fasthash::FxHashMap;
use idsbench_core::{Detector, Model, Scoring, TrainRows, TrainView};
use idsbench_flow::AFTERIMAGE_FEATURES;
use idsbench_net::ParsedPacket;
use idsbench_nn::{
    Autoencoder, AutoencoderConfig, LstmRegressor, LstmRegressorConfig, Matrix, MinMaxNormalizer,
    Workspace,
};

/// A src↔dst channel key (ordered so both directions share one history).
type ChannelKey = (std::net::IpAddr, std::net::IpAddr);

/// Autoencoder hidden width as a fraction of the feature width.
const HIDDEN_RATIO: f64 = 0.5;
/// Autoencoder learning rate.
const LEARNING_RATE: f64 = 0.05;
/// Autoencoder training epochs over the training slice (HELAD trains
/// offline, unlike Kitsune's single online pass).
const EPOCHS: usize = 5;
/// Length of the score history window fed to the LSTM.
const LSTM_WINDOW: usize = 12;
/// LSTM hidden width.
const LSTM_HIDDEN: usize = 12;
/// LSTM learning rate.
const LSTM_LEARNING_RATE: f64 = 0.01;
/// The LSTM trains on every `LSTM_STRIDE`-th window (keeps training linear
/// in trace length).
const LSTM_STRIDE: usize = 4;
/// Reconstruction errors are averaged over this many recent packets of the
/// *same channel* (src↔dst pair).
const SMOOTH_WINDOW: usize = 6;
/// Weight of the autoencoder reconstruction error in the blend.
const WEIGHT_AE: f64 = 0.7;
/// Weight of the LSTM surprise in the blend.
const WEIGHT_LSTM: f64 = 0.3;

/// Configuration for [`Helad`]. Every other hyper-parameter is an
/// out-of-the-box default, fixed as a constant next to the code that reads
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HeladConfig {
    /// Weight-initialization seed.
    pub seed: u64,
}

/// The HELAD NIDS (see crate docs): [`HeladModel`] in the detector shell.
pub type Helad = Detector<HeladModel>;

impl Model for HeladModel {
    const NAME: &'static str = "HELAD";
    const SCORING: Scoring<Self> =
        Scoring::Features { stage: HeladModel::stage, score: HeladModel::score };
    type Config = HeladConfig;

    /// Trains the autoencoder and LSTM over the (assumed benign) training
    /// slice's feature rows and returns the fitted per-packet scoring model
    /// — the single training path behind both drivers of the event
    /// contract.
    fn fit(config: &HeladConfig, train: &TrainView, rows: &mut TrainRows<'_>) -> Self {
        let width = AFTERIMAGE_FEATURES;
        let mut norm = MinMaxNormalizer::new(width);
        let mut autoencoder = Autoencoder::new(
            width,
            AutoencoderConfig {
                hidden_ratio: HIDDEN_RATIO,
                learning_rate: LEARNING_RATE,
                seed: config.seed,
            },
        );
        let mut lstm = LstmRegressor::new(
            1,
            LstmRegressorConfig {
                hidden_size: LSTM_HIDDEN,
                learning_rate: LSTM_LEARNING_RATE,
                seed: config.seed ^ 0x4a17,
            },
        );

        // Phase 1 — train the autoencoder over the (assumed benign)
        // training slice. The first pass copies each packet's feature row
        // into one flat row of `staged` and widens the normalizer; the
        // normalizer is then fixed, so each row is normalized once, in
        // place, and every epoch retrains on them.
        let mut staged = Matrix::zeros(train.packets.len(), width);
        let mut count = 0;
        while let Some(row) = rows.next_row() {
            norm.observe(row);
            staged.row_mut(count).copy_from_slice(row);
            count += 1;
        }
        let rows = &mut staged.as_mut_slice()[..count * width];
        let mut features = Vec::with_capacity(width);
        for row in rows.chunks_exact_mut(width) {
            norm.transform_into(row, &mut features);
            row.copy_from_slice(&features);
        }
        let mut history: Vec<f64> = Vec::with_capacity(count);
        for _ in 0..EPOCHS {
            history.clear();
            for row in rows.chunks_exact(width) {
                history.push(autoencoder.train_sample(row));
            }
        }

        // Phase 2 — train the LSTM to predict the next reconstruction error
        // from the previous `LSTM_WINDOW` errors.
        if history.len() > LSTM_WINDOW {
            for start in (0..history.len() - LSTM_WINDOW).step_by(LSTM_STRIDE) {
                lstm.train_window(
                    &history[start..start + LSTM_WINDOW],
                    history[start + LSTM_WINDOW],
                );
            }
        }

        let mut recent = VecDeque::with_capacity(LSTM_WINDOW);
        recent.extend(&history[history.len().saturating_sub(LSTM_WINDOW)..]);
        HeladModel {
            norm,
            autoencoder,
            lstm,
            recent,
            channel_history: FxHashMap::default(),
            norm_buf: Vec::with_capacity(width),
            batch_rmses: Vec::new(),
            batch_preds: Vec::new(),
            batch_keys: Vec::new(),
            feat_rows: Matrix::zeros(0, width),
            windows: Matrix::default(),
            ws: Workspace::new(),
        }
    }
}

/// A fitted HELAD ensemble scoring feature rows in arrival order (phase
/// 3): offline-fitted normalizer, trained autoencoder and LSTM, plus the
/// rolling score and per-channel smoothing state.
#[derive(Debug)]
pub struct HeladModel {
    norm: MinMaxNormalizer,
    autoencoder: Autoencoder,
    lstm: LstmRegressor,
    /// The last `LSTM_WINDOW` reconstruction errors, oldest first: the
    /// LSTM's input window (never past its initial capacity).
    recent: VecDeque<f64>,
    /// Recent errors per src↔dst channel for the smoothing term.
    channel_history: FxHashMap<ChannelKey, VecDeque<f64>>,
    /// Reused normalized-feature buffer.
    norm_buf: Vec<f64>,
    /// Reconstruction errors for the staged rows.
    batch_rmses: Vec<f64>,
    /// LSTM predictions for the rows whose history window was full.
    batch_preds: Vec<f64>,
    /// Each staged row's smoothing channel (`None`: channel-less).
    batch_keys: Vec<Option<ChannelKey>>,
    /// One normalized feature row per staged packet.
    feat_rows: Matrix,
    /// Lockstep LSTM input: one score-history window per predicted row.
    windows: Matrix,
    /// Shared NN inference scratch (autoencoder and LSTM).
    ws: Workspace,
}

impl HeladModel {
    /// Normalizes and stages one packet's feature row, with its channel.
    fn stage(&mut self, packet: &ParsedPacket, row: &[f64]) {
        // HELAD fits its scaler offline on the training set; out-of-range
        // eval features clamp to the boundary (and read as anomalous)
        // rather than re-scaling the whole space.
        self.norm.transform_into(row, &mut self.norm_buf);
        self.feat_rows.push_row(self.norm_buf.iter().copied());
        let key = match (packet.src_ip(), packet.dst_ip()) {
            (Some(a), Some(b)) => Some(if a <= b { (a, b) } else { (b, a) }),
            _ => None,
        };
        self.batch_keys.push(key);
    }

    /// Scores the staged rows in order. The stateful stages (the score
    /// window, per-channel smoothing) run in arrival order; the autoencoder
    /// and then the LSTM run once per burst, batched, so both stream their
    /// weights through cache once per *burst*. Allocation-free in steady
    /// state (pinned by `hot_path_allocs`).
    fn score(&mut self, out: &mut Vec<f64>) {
        // Every row's reconstruction error in one autoencoder batch
        // forward.
        self.batch_rmses.clear();
        self.autoencoder.score_rows_with(&self.feat_rows, &mut self.batch_rmses, &mut self.ws);

        // Sequential window, then lockstep LSTM: snapshot each row's
        // history window in arrival order — row `i` sees the window after
        // the pushes of rows `0..i` — then predict every full window in one
        // lockstep batch. The first `missing` rows have incomplete windows
        // (no surprise term): the warm-up of a freshly fitted model.
        let missing = LSTM_WINDOW - self.recent.len().min(LSTM_WINDOW);
        self.windows.start_rows(LSTM_WINDOW);
        for &rmse in &self.batch_rmses {
            if self.recent.len() == LSTM_WINDOW {
                self.windows.push_row(self.recent.iter().copied());
                self.recent.pop_front();
            }
            self.recent.push_back(rmse);
        }
        debug_assert_eq!(self.windows.rows(), self.batch_rmses.len().saturating_sub(missing));
        self.batch_preds.clear();
        self.lstm.predict_windows_with(&self.windows, &mut self.batch_preds, &mut self.ws);

        // Sequential blend and per-channel smoothing in arrival order — the
        // channel histories are shared mutable state. A channel's sustained
        // anomaly stays high; other channels keep their own quiet history.
        for (i, (channel, &rmse)) in self.batch_keys.iter().zip(&self.batch_rmses).enumerate() {
            let surprise =
                if i >= missing { (rmse - self.batch_preds[i - missing]).abs() } else { 0.0 };
            let smoothed = match channel {
                Some(key) => {
                    let history = self.channel_history.entry(*key).or_default();
                    history.push_back(rmse);
                    if history.len() > SMOOTH_WINDOW {
                        history.pop_front();
                    }
                    history.iter().sum::<f64>() / history.len() as f64
                }
                None => rmse,
            };
            out.push(WEIGHT_AE * smoothed + WEIGHT_LSTM * surprise);
        }
        self.batch_keys.clear();
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

    fn periodic_benign(count: u32, offset_micros: u64) -> Vec<LabeledPacket> {
        (0..count)
            .map(|i| {
                let device = (i % 3) as u8 + 1;
                let p = PacketBuilder::new()
                    .ethernet(MacAddr::from_host_id(device as u32), MacAddr::from_host_id(100))
                    .ipv4(Ipv4Addr::new(10, 0, 0, device), Ipv4Addr::new(10, 0, 0, 100))
                    .tcp(41_000 + device as u16, 1883, TcpFlags::PSH | TcpFlags::ACK)
                    .payload_len(70)
                    .build(Timestamp::from_micros(offset_micros + u64::from(i) * 40_000));
                LabeledPacket::new(p, Label::Benign)
            })
            .collect()
    }

    fn flood(count: u32, start_micros: u64, step_micros: u64) -> Vec<LabeledPacket> {
        (0..count)
            .map(|i| {
                let p = PacketBuilder::new()
                    .ethernet(MacAddr::from_host_id(77), MacAddr::from_host_id(100))
                    .ipv4(Ipv4Addr::new(7, 7, 7, 7), Ipv4Addr::new(10, 0, 0, 100))
                    .udp(2000 + (i % 64) as u16, 80)
                    .payload_len(1100)
                    .build(Timestamp::from_micros(start_micros + u64::from(i) * step_micros));
                LabeledPacket::new(p, Label::Attack(AttackKind::UdpFlood))
            })
            .collect()
    }

    /// Sorts, splits 30/70 at the packet level, and parses once.
    fn split_views(mut packets: Vec<LabeledPacket>) -> (TrainView, Vec<ParsedView>) {
        packets.sort_by_key(|lp| lp.packet.ts);
        let split = packets.len() * 3 / 10;
        let mut views: Vec<ParsedView> = packets.into_iter().map(ParsedView::from_packet).collect();
        let eval = views.split_off(split);
        (TrainView { packets: views, flows: Vec::new() }, eval)
    }

    fn clean_baseline_input() -> (TrainView, Vec<ParsedView>) {
        let mut packets = periodic_benign(2000, 0);
        packets.extend(flood(400, 70_000_000, 150));
        let (train, eval) = split_views(packets);
        assert!(train.packets.iter().all(|v| !v.is_attack()));
        (train, eval)
    }

    fn score_all(helad: &mut Helad, train: &TrainView, eval: &[ParsedView]) -> Vec<f64> {
        helad.fit(train);
        eval.iter()
            .map(|view| helad.on_event(&Event::Packet(view)).expect("packet event scored"))
            .collect()
    }

    fn mean_split(scores: &[f64], eval: &[ParsedView]) -> (f64, f64) {
        let (mut attack, mut benign) = (Vec::new(), Vec::new());
        for (score, view) in scores.iter().zip(eval) {
            if view.is_attack() {
                attack.push(*score);
            } else {
                benign.push(*score);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        (mean(&attack), mean(&benign))
    }

    #[test]
    fn clean_baseline_separates_attacks() {
        let (train, eval) = clean_baseline_input();
        let mut helad = Helad::default();
        let scores = score_all(&mut helad, &train, &eval);
        assert_eq!(scores.len(), eval.len());
        let (attack, benign) = mean_split(&scores, &eval);
        assert!(attack > 1.5 * benign, "attack mean {attack} vs benign mean {benign}");
    }

    #[test]
    fn contaminated_training_narrows_the_gap() {
        // Same attack, but the *training* slice is saturated with identical
        // flood traffic — HELAD normalizes it (the UNSW failure mode).
        let mut packets = periodic_benign(2000, 0);
        packets.extend(flood(1200, 1_000_000, 60_000));
        let (train, eval) = split_views(packets);
        assert!(
            train.packets.iter().filter(|v| v.is_attack()).count() > 100,
            "training slice must be contaminated"
        );
        let mut helad = Helad::default();
        let scores = score_all(&mut helad, &train, &eval);
        let (attack, benign) = mean_split(&scores, &eval);
        let contaminated_ratio = attack / benign;

        // Compare with the clean-baseline ratio on the same attack shape.
        let (clean_train, clean_eval) = clean_baseline_input();
        let mut helad2 = Helad::default();
        let clean_scores = score_all(&mut helad2, &clean_train, &clean_eval);
        let (attack2, benign2) = mean_split(&clean_scores, &clean_eval);
        let clean_ratio = attack2 / benign2;
        assert!(
            contaminated_ratio < clean_ratio,
            "contamination must narrow the anomaly gap: {contaminated_ratio} vs {clean_ratio}"
        );
    }

    #[test]
    fn scores_are_finite() {
        let (train, eval) = clean_baseline_input();
        let mut helad = Helad::default();
        for score in score_all(&mut helad, &train, &eval) {
            assert!(score.is_finite() && score >= 0.0);
        }
    }

    #[test]
    fn name_and_format() {
        let helad = Helad::default();
        assert_eq!(helad.name(), "HELAD");
        assert_eq!(helad.input_format(), InputFormat::Packets);
    }

    #[test]
    fn scoring_without_fit_does_not_panic() {
        let (_, eval) = clean_baseline_input();
        let mut helad = Helad::default();
        assert!(helad.on_event(&Event::Packet(&eval[0])).expect("scored").is_finite());
    }

    /// Stream batching, autoscaling and fabric re-homing all re-cut batch
    /// boundaries, so a score must not depend on where a batch was cut: one
    /// packet per call, the whole trace in one call, and an uneven random
    /// split all give the same bits — from a trained model and from an
    /// unfitted one (whose empty score window makes the first bursts
    /// straddle the LSTM warm-up of partial windows).
    #[test]
    fn scores_do_not_depend_on_batch_boundaries() {
        let (train, eval) = clean_baseline_input();
        let untrained = TrainView::default();
        for (case, train) in [("trained", &train), ("untrained", &untrained)] {
            let fitted = || {
                let mut helad = Helad::default();
                EventDetector::fit(&mut helad, train);
                helad
            };
            let reference: Vec<f64> = {
                let mut helad = fitted();
                eval.iter().map(|v| helad.on_event(&Event::Packet(v)).unwrap()).collect()
            };
            let mut whole = Vec::new();
            fitted().on_packet_batch(&mut eval.iter(), &mut whole);
            // Uneven bursts (1..=89 packets, LCG-sized) re-use the staging
            // across batch sizes.
            let (mut split, mut helad, mut rest, mut state) =
                (Vec::new(), fitted(), &eval[..], 7u64);
            while !rest.is_empty() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let (burst, tail) =
                    rest.split_at((1 + (state >> 33) as usize % 89).min(rest.len()));
                helad.on_packet_batch(&mut burst.iter(), &mut split);
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
