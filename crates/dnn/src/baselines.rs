//! The classical-ML baselines from the DNN study (logistic regression,
//! Gaussian naive Bayes, decision tree, k-nearest-neighbours), each exposed
//! as an [`EventDetector`] so the ablation bench can run them through the
//! same event pipeline as the headline systems: train once in `fit`, then
//! score each flow the moment the flow table evicts it.

use idsbench_core::{Event, EventDetector, InputFormat, LabeledFlow, TrainView};
use idsbench_nn::{
    Activation, Adam, Loss, Matrix, MinMaxNormalizer, Mlp, MlpBuilder, Workspace, ZScoreNormalizer,
};

fn training_matrix(train: &TrainView) -> Option<(Vec<Vec<f64>>, Vec<f64>, MinMaxNormalizer)> {
    if train.flows.is_empty() {
        return None;
    }
    let width = train.flows[0].features.as_slice().len();
    let mut norm = MinMaxNormalizer::new(width);
    for flow in &train.flows {
        norm.observe(flow.features.as_slice());
    }
    let x: Vec<Vec<f64>> =
        train.flows.iter().map(|f| norm.transform(f.features.as_slice())).collect();
    let y: Vec<f64> = train.flows.iter().map(|f| f64::from(f.is_attack())).collect();
    Some((x, y, norm))
}

/// The untrained fallback every baseline shares: a neutral 0.5 per flow, so
/// the calibration layer chooses "never alert".
const NEUTRAL: f64 = 0.5;

/// Logistic regression: a single sigmoid unit trained with Adam.
#[derive(Debug, Default)]
pub struct LogisticRegression {
    model: Option<(Mlp, MinMaxNormalizer)>,
}

impl LogisticRegression {
    fn score_flow(&mut self, flow: &LabeledFlow) -> f64 {
        match &mut self.model {
            Some((model, norm)) => model
                .predict_with(
                    &Matrix::row_vector(&norm.transform(flow.features.as_slice())),
                    &mut Workspace::new(),
                )
                .get(0, 0),
            None => NEUTRAL,
        }
    }
}

impl EventDetector for LogisticRegression {
    fn name(&self) -> &str {
        "LogReg"
    }

    fn input_format(&self) -> InputFormat {
        InputFormat::Flows
    }

    fn fit(&mut self, train: &TrainView) {
        let Some((x, y, norm)) = training_matrix(train) else {
            self.model = None;
            return;
        };
        let width = x[0].len();
        let mut model = MlpBuilder::new(width).layer(1, Activation::Sigmoid).seed(11).build();
        let mut opt = Adam::new(0.02);
        let matrix = Matrix::from_fn(x.len(), width, |r, c| x[r][c]);
        let targets = Matrix::from_fn(y.len(), 1, |r, _| y[r]);
        for _ in 0..200 {
            model.train_batch(&matrix, &targets, Loss::BinaryCrossEntropy, &mut opt);
        }
        model.freeze();
        self.model = Some((model, norm));
    }

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        match event {
            Event::Packet(_) => None,
            Event::FlowEvicted(flow) => Some(self.score_flow(flow)),
        }
    }
}

/// Fitted per-class Gaussian statistics for [`NaiveBayes`].
#[derive(Debug)]
struct NbModel {
    scaler: ZScoreNormalizer,
    /// (sum, sumsq, n) per feature per class.
    stats: [[(f64, f64, u64); 64]; 2],
    prior_attack: f64,
}

/// Gaussian naive Bayes over z-scored features.
#[derive(Debug, Default)]
pub struct NaiveBayes {
    model: Option<NbModel>,
}

impl NaiveBayes {
    fn score_flow(&self, flow: &LabeledFlow) -> f64 {
        let Some(model) = &self.model else {
            return NEUTRAL;
        };
        let log_likelihood = |class: usize, z: &[f64]| -> f64 {
            let mut total = 0.0;
            for (i, &v) in z.iter().enumerate() {
                let (s, ss, n) = model.stats[class][i];
                if n < 2 {
                    continue;
                }
                let mean = s / n as f64;
                let var = (ss / n as f64 - mean * mean).max(1e-4);
                total += -0.5 * ((v - mean).powi(2) / var + var.ln());
            }
            total
        };
        let z = model.scaler.transform(flow.features.as_slice());
        let log_attack = log_likelihood(1, &z) + model.prior_attack.ln();
        let log_benign = log_likelihood(0, &z) + (1.0 - model.prior_attack).ln();
        // Posterior P(attack | x) via the log-sum-exp trick.
        let max = log_attack.max(log_benign);
        let attack = (log_attack - max).exp();
        let benign = (log_benign - max).exp();
        attack / (attack + benign)
    }
}

impl EventDetector for NaiveBayes {
    fn name(&self) -> &str {
        "NaiveBayes"
    }

    fn input_format(&self) -> InputFormat {
        InputFormat::Flows
    }

    fn fit(&mut self, train: &TrainView) {
        if train.flows.is_empty() {
            self.model = None;
            return;
        }
        let rows: Vec<Vec<f64>> = train.flows.iter().map(|f| f.features.to_vec()).collect();
        let scaler = ZScoreNormalizer::fit(&rows);
        let width = scaler.width();
        assert!(width <= 64, "baseline supports up to 64 features");

        // Per-class feature means/variances.
        let mut stats = [[(0.0f64, 0.0f64, 0u64); 64]; 2];
        for flow in &train.flows {
            let class = usize::from(flow.is_attack());
            let z = scaler.transform(flow.features.as_slice());
            for (i, &v) in z.iter().enumerate() {
                let (s, ss, n) = stats[class][i];
                stats[class][i] = (s + v, ss + v * v, n + 1);
            }
        }
        let attack_count = train.flows.iter().filter(|f| f.is_attack()).count();
        let prior_attack = (attack_count as f64 / train.flows.len() as f64).clamp(1e-6, 1.0 - 1e-6);
        self.model = Some(NbModel { scaler, stats, prior_attack });
    }

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        match event {
            Event::Packet(_) => None,
            Event::FlowEvicted(flow) => Some(self.score_flow(flow)),
        }
    }
}

/// A depth-limited CART-style decision tree on raw flow features.
#[derive(Debug)]
pub struct DecisionTree {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples: usize,
    root: Option<Node>,
}

impl Default for DecisionTree {
    fn default() -> Self {
        DecisionTree { max_depth: 6, min_samples: 10, root: None }
    }
}

#[derive(Debug)]
enum Node {
    Leaf(f64),
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

fn gini(positives: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = positives as f64 / total as f64;
    2.0 * p * (1.0 - p)
}

fn build_tree(
    rows: &[(Vec<f64>, bool)],
    indices: &[usize],
    depth: usize,
    max_depth: usize,
    min_samples: usize,
) -> Node {
    let total = indices.len();
    let positives = indices.iter().filter(|&&i| rows[i].1).count();
    let ratio = if total == 0 { 0.0 } else { positives as f64 / total as f64 };
    if depth >= max_depth || total < min_samples || positives == 0 || positives == total {
        return Node::Leaf(ratio);
    }
    let width = rows[0].0.len();
    let parent_impurity = gini(positives, total);
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
    for feature in 0..width {
        // Candidate thresholds: quartiles of the feature over this node.
        let mut values: Vec<f64> = indices.iter().map(|&i| rows[i].0[feature]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        for q in [0.25, 0.5, 0.75] {
            let threshold = values[((values.len() - 1) as f64 * q) as usize];
            let (mut lp, mut lt) = (0usize, 0usize);
            for &i in indices {
                if rows[i].0[feature] <= threshold {
                    lt += 1;
                    lp += usize::from(rows[i].1);
                }
            }
            let (rt, rp) = (total - lt, positives - lp);
            if lt == 0 || rt == 0 {
                continue;
            }
            let weighted = (lt as f64 * gini(lp, lt) + rt as f64 * gini(rp, rt)) / total as f64;
            let gain = parent_impurity - weighted;
            if best.map_or(gain > 1e-9, |(_, _, g)| gain > g) {
                best = Some((feature, threshold, gain));
            }
        }
    }
    let Some((feature, threshold, _)) = best else {
        return Node::Leaf(ratio);
    };
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        indices.iter().partition(|&&i| rows[i].0[feature] <= threshold);
    Node::Split {
        feature,
        threshold,
        left: Box::new(build_tree(rows, &left_idx, depth + 1, max_depth, min_samples)),
        right: Box::new(build_tree(rows, &right_idx, depth + 1, max_depth, min_samples)),
    }
}

fn tree_score(node: &Node, x: &[f64]) -> f64 {
    match node {
        Node::Leaf(p) => *p,
        Node::Split { feature, threshold, left, right } => {
            if x[*feature] <= *threshold {
                tree_score(left, x)
            } else {
                tree_score(right, x)
            }
        }
    }
}

impl EventDetector for DecisionTree {
    fn name(&self) -> &str {
        "DecisionTree"
    }

    fn input_format(&self) -> InputFormat {
        InputFormat::Flows
    }

    fn fit(&mut self, train: &TrainView) {
        if train.flows.is_empty() {
            self.root = None;
            return;
        }
        let rows: Vec<(Vec<f64>, bool)> =
            train.flows.iter().map(|f| (f.features.to_vec(), f.is_attack())).collect();
        let indices: Vec<usize> = (0..rows.len()).collect();
        self.root = Some(build_tree(&rows, &indices, 0, self.max_depth, self.min_samples));
    }

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        match event {
            Event::Packet(_) => None,
            Event::FlowEvicted(flow) => Some(match &self.root {
                Some(root) => tree_score(root, flow.features.as_slice()),
                None => NEUTRAL,
            }),
        }
    }
}

/// Fitted nearest-neighbour reference set for [`KNearest`].
#[derive(Debug)]
struct KnnModel {
    points: Vec<(Vec<f64>, f64)>,
    norm: MinMaxNormalizer,
    k: usize,
}

/// k-nearest-neighbours on min-max-scaled features (Euclidean distance,
/// training set subsampled for tractability).
#[derive(Debug)]
pub struct KNearest {
    /// Number of neighbours.
    pub k: usize,
    /// Maximum training points retained (subsampled deterministically).
    pub max_points: usize,
    model: Option<KnnModel>,
}

impl Default for KNearest {
    fn default() -> Self {
        KNearest { k: 5, max_points: 2_000, model: None }
    }
}

impl KNearest {
    fn score_flow(&self, flow: &LabeledFlow) -> f64 {
        let Some(model) = &self.model else {
            return NEUTRAL;
        };
        let q = model.norm.transform(flow.features.as_slice());
        let mut distances: Vec<(f64, f64)> = model
            .points
            .iter()
            .map(|(p, label)| {
                let d: f64 = p.iter().zip(&q).map(|(a, b)| (a - b).powi(2)).sum();
                (d, *label)
            })
            .collect();
        distances.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        distances[..model.k].iter().map(|(_, label)| label).sum::<f64>() / model.k as f64
    }
}

impl EventDetector for KNearest {
    fn name(&self) -> &str {
        "kNN"
    }

    fn input_format(&self) -> InputFormat {
        InputFormat::Flows
    }

    fn fit(&mut self, train: &TrainView) {
        let Some((x, y, norm)) = training_matrix(train) else {
            self.model = None;
            return;
        };
        // Deterministic stride subsampling.
        let stride = (x.len() / self.max_points.max(1)).max(1);
        let points: Vec<(Vec<f64>, f64)> = x.into_iter().zip(y).step_by(stride).collect();
        let k = self.k.clamp(1, points.len());
        self.model = Some(KnnModel { points, norm, k });
    }

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        match event {
            Event::Packet(_) => None,
            Event::FlowEvicted(flow) => Some(self.score_flow(flow)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_core::preprocess::{EventInput, Pipeline, PipelineConfig};
    use idsbench_core::runner::replay;
    use idsbench_core::{AttackKind, Label, LabeledPacket};
    use idsbench_net::{MacAddr, PacketBuilder, TcpFlags, Timestamp};
    use std::net::Ipv4Addr;

    fn labelled_input() -> EventInput {
        let mut packets = Vec::new();
        for i in 0..300u32 {
            let client = (i % 6) as u8 + 1;
            let p = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(client as u32), MacAddr::from_host_id(99))
                .ipv4(Ipv4Addr::new(10, 0, 0, client), Ipv4Addr::new(10, 0, 0, 99))
                .tcp(30_000 + i as u16, 443, TcpFlags::PSH | TcpFlags::ACK)
                .payload_len(500)
                .build(Timestamp::from_micros(u64::from(i) * 90_000));
            packets.push(LabeledPacket::new(p, Label::Benign));
        }
        for i in 0..200u32 {
            let p = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(66), MacAddr::from_host_id(99))
                .ipv4(Ipv4Addr::new(10, 0, 0, 66), Ipv4Addr::new(10, 0, 0, 99))
                .tcp(45_000 + i as u16, 1 + i as u16, TcpFlags::SYN)
                .build(Timestamp::from_micros(u64::from(i) * 130_000 + 11_000));
            packets.push(LabeledPacket::new(p, Label::Attack(AttackKind::PortScan)));
        }
        packets.sort_by_key(|lp| lp.packet.ts);
        Pipeline::new(PipelineConfig { train_fraction: 0.5, ..Default::default() })
            .unwrap()
            .prepare_events("toy", packets)
            .unwrap()
    }

    fn separation(detector: &mut dyn EventDetector, input: &EventInput) -> (f64, f64) {
        let replayed = replay(detector, input).unwrap();
        assert!(!replayed.scores.is_empty(), "{}", detector.name());
        let (mut attack, mut benign) = (Vec::new(), Vec::new());
        for (score, &label) in replayed.scores.iter().zip(&replayed.labels) {
            if label {
                attack.push(*score);
            } else {
                benign.push(*score);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        (mean(&attack), mean(&benign))
    }

    #[test]
    fn every_baseline_separates_the_easy_case() {
        let input = labelled_input();
        let detectors: Vec<Box<dyn EventDetector>> = vec![
            Box::new(LogisticRegression::default()),
            Box::new(NaiveBayes::default()),
            Box::new(DecisionTree::default()),
            Box::new(KNearest::default()),
        ];
        for mut detector in detectors {
            let (attack, benign) = separation(detector.as_mut(), &input);
            assert!(
                attack > benign + 0.2,
                "{}: attack {attack} vs benign {benign}",
                detector.name()
            );
        }
    }

    #[test]
    fn decision_tree_is_deterministic() {
        let input = labelled_input();
        let a = replay(&mut DecisionTree::default(), &input).unwrap().scores;
        let b = replay(&mut DecisionTree::default(), &input).unwrap().scores;
        assert_eq!(a, b);
    }

    #[test]
    fn baselines_handle_empty_training() {
        let mut input = labelled_input();
        input.train.flows.clear();
        input.train.packets.clear();
        for mut detector in [
            Box::new(LogisticRegression::default()) as Box<dyn EventDetector>,
            Box::new(NaiveBayes::default()),
            Box::new(DecisionTree::default()),
            Box::new(KNearest::default()),
        ] {
            let replayed = replay(detector.as_mut(), &input).unwrap();
            assert!(replayed.scores.iter().all(|&s| s == 0.5), "{}", detector.name());
        }
    }

    #[test]
    fn gini_impurity_properties() {
        assert_eq!(gini(0, 10), 0.0);
        assert_eq!(gini(10, 10), 0.0);
        assert!((gini(5, 10) - 0.5).abs() < 1e-12);
    }
}
