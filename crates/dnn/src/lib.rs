//! The supervised DNN NIDS (Vigneswaran et al., ICCCNT 2018) reimplemented
//! for the `idsbench` evaluation pipeline, plus the classical-ML baselines
//! that study compared against.
//!
//! The original work evaluated shallow and deep networks over KDD-style
//! connection records and found a **three-hidden-layer** network optimal;
//! features are min-max scaled and the output is a sigmoid attack
//! probability. Here the connection records are `idsbench`'s flow feature
//! vectors ([`LabeledFlow::features`]), and training uses the labelled
//! *training* flows of the pipeline split — the only evaluated system that
//! consumes labels (it is supervised; Kitsune/HELAD/Slips are not).
//!
//! [`baselines`] carries logistic regression, Gaussian naive Bayes, a
//! depth-limited decision tree, and k-nearest-neighbours for the ablation
//! bench comparing the DNN against the study's classical algorithms.
//!
//! Each system here is one flow [`Model`] in the detector shell
//! ([`idsbench_core::shell`]), which implements the `EventDetector`
//! contract: [`Dnn`] is [`DnnModel`] in the shell, and each baseline is its
//! own model likewise.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod baselines;

use idsbench_core::{Detector, LabeledFlow, Model, Scoring, TrainRows, TrainView};
use idsbench_nn::{Activation, Adam, Loss, Matrix, MinMaxNormalizer, Mlp, MlpBuilder, Workspace};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hidden-layer widths (the study's optimum is three hidden layers).
const HIDDEN_LAYERS: [usize; 3] = [64, 48, 32];
/// Adam learning rate.
const LEARNING_RATE: f64 = 0.005;
/// Training epochs.
const EPOCHS: usize = 30;
/// Mini-batch size.
const BATCH_SIZE: usize = 64;

/// Configuration for [`Dnn`]: the two preprocessing ablations and the seed.
/// The architecture and training schedule are the study's out-of-the-box
/// constants.
#[derive(Debug, Clone, PartialEq)]
pub struct DnnConfig {
    /// Oversample the minority class to parity in training (the study
    /// rebalances its KDD splits).
    pub rebalance: bool,
    /// Apply the study's min-max feature scaling. Disabling it is the
    /// preprocessing-impact ablation (Section V factor 5).
    pub normalize: bool,
    /// Weight-initialization and shuffling seed.
    pub seed: u64,
}

impl Default for DnnConfig {
    fn default() -> Self {
        DnnConfig { rebalance: true, normalize: true, seed: 0 }
    }
}

/// The supervised DNN NIDS (see crate docs): [`DnnModel`] in the detector
/// shell.
///
/// Streaming-native under the Event API: training consumes the labelled
/// training flows once in `fit`, then every flow event is scored the moment
/// the flow table emits it — the model never waits for a materialized
/// evaluation set.
pub type Dnn = Detector<DnnModel>;

/// A fitted DNN: the trained network, or none when the training slice held
/// no flows.
#[derive(Debug)]
pub struct DnnModel(Option<Network>);

/// A trained DNN: the fitted scaler plus the network.
#[derive(Debug)]
struct Network {
    norm: MinMaxNormalizer,
    mlp: Mlp,
    normalize: bool,
    /// Reused normalized-feature buffer.
    feat_buf: Vec<f64>,
    /// The one-row input batch and the network's inference scratch.
    input: Matrix,
    ws: Workspace,
}

impl DnnModel {
    /// One flow through the batch-of-rows entry point: a batch of one row.
    fn score_flow(&mut self, flow: &LabeledFlow) -> f64 {
        let Some(net) = &mut self.0 else {
            return 0.5;
        };
        let mut features = flow.features.as_slice();
        if net.normalize {
            net.norm.transform_into(features, &mut net.feat_buf);
            features = &net.feat_buf;
        }
        net.input.start_rows(features.len());
        net.input.push_row(features.iter().copied());
        net.mlp.predict_with(&net.input, &mut net.ws).get(0, 0)
    }
}

impl Model for DnnModel {
    const NAME: &'static str = "DNN";
    const SCORING: Scoring<Self> = Scoring::Flows(DnnModel::score_flow);
    type Config = DnnConfig;

    fn fit(config: &DnnConfig, train: &TrainView, _rows: &mut TrainRows<'_>) -> Self {
        if train.flows.is_empty() {
            // No labelled training data: stay untrained and emit a neutral
            // constant score per flow. The calibration layer then chooses
            // "never alert".
            return DnnModel(None);
        }

        // Min-max scaling fitted on the training flows only.
        let width = train.flows[0].features.as_slice().len();
        let mut norm = MinMaxNormalizer::new(width);
        for flow in &train.flows {
            norm.observe(flow.features.as_slice());
        }
        let scale = |features: &[f64]| -> Vec<f64> {
            if config.normalize {
                norm.transform(features)
            } else {
                features.to_vec()
            }
        };

        let mut rows: Vec<(Vec<f64>, f64)> = train
            .flows
            .iter()
            .map(|flow| (scale(flow.features.as_slice()), f64::from(flow.is_attack())))
            .collect();

        if config.rebalance {
            rows = rebalance(rows, config.seed);
        }

        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x5eed_1e55);
        let mut builder = MlpBuilder::new(width);
        for units in HIDDEN_LAYERS {
            builder = builder.layer(units, Activation::Relu);
        }
        let mut mlp: Mlp = builder.layer(1, Activation::Sigmoid).seed(config.seed).build();
        let mut optimizer = Adam::new(LEARNING_RATE);

        // Each mini-batch is staged into the same two matrices.
        let (mut x, mut y) = (Matrix::default(), Matrix::default());
        for _ in 0..EPOCHS {
            rows.shuffle(&mut rng);
            for chunk in rows.chunks(BATCH_SIZE) {
                x.start_rows(width);
                y.start_rows(1);
                for (features, target) in chunk {
                    x.push_row(features.iter().copied());
                    y.push_row([*target]);
                }
                mlp.train_batch(&x, &y, Loss::BinaryCrossEntropy, &mut optimizer);
            }
        }

        DnnModel(Some(Network {
            norm,
            mlp,
            normalize: config.normalize,
            feat_buf: Vec::with_capacity(width),
            input: Matrix::default(),
            ws: Workspace::new(),
        }))
    }
}

/// Oversamples the minority class to parity, deterministically.
fn rebalance(rows: Vec<(Vec<f64>, f64)>, seed: u64) -> Vec<(Vec<f64>, f64)> {
    let positives: Vec<&(Vec<f64>, f64)> = rows.iter().filter(|(_, y)| *y > 0.5).collect();
    let negatives: Vec<&(Vec<f64>, f64)> = rows.iter().filter(|(_, y)| *y <= 0.5).collect();
    if positives.is_empty() || negatives.is_empty() {
        return rows;
    }
    let (minority, majority) = if positives.len() < negatives.len() {
        (positives, negatives)
    } else {
        (negatives, positives)
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xba1a_ba1a);
    let mut out: Vec<(Vec<f64>, f64)> = majority.iter().map(|r| (*r).clone()).collect();
    out.extend(minority.iter().map(|r| (*r).clone()));
    // Top the minority up to parity by resampling with replacement.
    use rand::Rng;
    for _ in 0..majority.len().saturating_sub(minority.len()) {
        let pick = minority[rng.random_range(0..minority.len())];
        out.push(pick.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_core::preprocess::{EventInput, Pipeline, PipelineConfig, Split};
    use idsbench_core::runner::{replay, ScoredReplay};
    use idsbench_core::{AttackKind, Label, LabeledPacket};
    use idsbench_core::{EventDetector, InputFormat};
    use idsbench_net::{MacAddr, PacketBuilder, TcpFlags, Timestamp};
    use std::net::Ipv4Addr;

    /// Benign = ordinary paired exchanges; attack = unanswered SYN probes to
    /// many ports (a port scan), which flow features separate trivially.
    fn labelled_input() -> EventInput {
        let mut packets = Vec::new();
        for i in 0..400u32 {
            let client = (i % 8) as u8 + 1;
            let p = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(client as u32), MacAddr::from_host_id(99))
                .ipv4(Ipv4Addr::new(10, 0, 0, client), Ipv4Addr::new(10, 0, 0, 99))
                .tcp(30_000 + i as u16, 80, TcpFlags::PSH | TcpFlags::ACK)
                .payload_len(300)
                .build(Timestamp::from_micros(u64::from(i) * 100_000));
            packets.push(LabeledPacket::new(p, Label::Benign));
            let r = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(99), MacAddr::from_host_id(client as u32))
                .ipv4(Ipv4Addr::new(10, 0, 0, 99), Ipv4Addr::new(10, 0, 0, client))
                .tcp(80, 30_000 + i as u16, TcpFlags::PSH | TcpFlags::ACK)
                .payload_len(900)
                .build(Timestamp::from_micros(u64::from(i) * 100_000 + 3_000));
            packets.push(LabeledPacket::new(r, Label::Benign));
        }
        for i in 0..300u32 {
            let p = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(66), MacAddr::from_host_id(99))
                .ipv4(Ipv4Addr::new(10, 0, 0, 66), Ipv4Addr::new(10, 0, 0, 99))
                .tcp(45_000 + i as u16, 1 + i as u16, TcpFlags::SYN)
                .build(Timestamp::from_micros(u64::from(i) * 120_000 + 7_000));
            packets.push(LabeledPacket::new(p, Label::Attack(AttackKind::PortScan)));
        }
        packets.sort_by_key(|lp| lp.packet.ts);
        let pipeline =
            Pipeline::new(PipelineConfig { split: Split::Fraction(0.5), ..Default::default() })
                .unwrap();
        pipeline.prepare_events("toy", packets).unwrap()
    }

    fn run(dnn: &mut Dnn, input: &EventInput) -> ScoredReplay {
        replay(dnn, input).unwrap()
    }

    #[test]
    fn learns_to_separate_scan_flows() {
        let input = labelled_input();
        assert!(!input.train.flows.is_empty());
        assert!(input.train.flows.iter().any(|f| f.is_attack()));
        let mut dnn = Dnn::default();
        let replayed = run(&mut dnn, &input);
        assert!(!replayed.scores.is_empty());
        let (mut attack, mut benign) = (Vec::new(), Vec::new());
        for (score, &label) in replayed.scores.iter().zip(&replayed.labels) {
            if label {
                attack.push(*score);
            } else {
                benign.push(*score);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&attack) > 0.8 && mean(&benign) < 0.2,
            "attack mean {} benign mean {}",
            mean(&attack),
            mean(&benign)
        );
    }

    #[test]
    fn scores_are_probabilities() {
        let input = labelled_input();
        let mut dnn = Dnn::default();
        for score in run(&mut dnn, &input).scores {
            assert!((0.0..=1.0).contains(&score));
        }
    }

    #[test]
    fn empty_training_emits_neutral_scores() {
        let mut input = labelled_input();
        input.train.flows.clear();
        input.train.packets.clear();
        let mut dnn = Dnn::default();
        let replayed = run(&mut dnn, &input);
        assert!(!replayed.scores.is_empty());
        assert!(replayed.scores.iter().all(|&s| s == 0.5));
    }

    #[test]
    fn rebalance_reaches_parity() {
        let rows: Vec<(Vec<f64>, f64)> =
            (0..100).map(|i| (vec![i as f64], f64::from(i < 10))).collect();
        let balanced = rebalance(rows, 1);
        let positives = balanced.iter().filter(|(_, y)| *y > 0.5).count();
        let negatives = balanced.len() - positives;
        assert_eq!(positives, negatives);
    }

    #[test]
    fn name_and_format() {
        let dnn = Dnn::default();
        assert_eq!(dnn.name(), "DNN");
        assert_eq!(dnn.input_format(), InputFormat::Flows);
    }

    #[test]
    fn deterministic_given_seed() {
        let input = labelled_input();
        let a = run(&mut Dnn::default(), &input).scores;
        let b = run(&mut Dnn::default(), &input).scores;
        assert_eq!(a, b);
        let other = run(&mut Dnn::new(DnnConfig { seed: 1, ..Default::default() }), &input).scores;
        assert_ne!(other, a, "a different seed must change at least one score");
    }
}
