//! Confusion-matrix metrics and score-ranking curves.
//!
//! The paper evaluates with accuracy, precision, recall, and F1 (Section
//! IV-B) and explicitly warns that accuracy alone misleads on imbalanced
//! datasets (Section V). This module implements those metrics plus ROC/PR
//! curves and AUC for the threshold-sensitivity ablations.

use serde::{Deserialize, Serialize};

/// Binary confusion matrix.
///
/// # Examples
///
/// ```
/// use idsbench_core::metrics::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::default();
/// cm.record(true, true); // predicted attack, was attack
/// cm.record(false, true); // predicted benign, was attack
/// cm.record(false, false);
/// assert_eq!(cm.true_positives, 1);
/// assert_eq!(cm.false_negatives, 1);
/// assert!((cm.recall() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// Attack items predicted as attack.
    pub true_positives: u64,
    /// Benign items predicted as attack.
    pub false_positives: u64,
    /// Benign items predicted as benign.
    pub true_negatives: u64,
    /// Attack items predicted as benign.
    pub false_negatives: u64,
}

impl ConfusionMatrix {
    /// Tallies one decision.
    pub fn record(&mut self, predicted_attack: bool, actually_attack: bool) {
        match (predicted_attack, actually_attack) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
            (false, true) => self.false_negatives += 1,
        }
    }

    /// Adds another matrix's counts into this one (shard merging).
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
    }

    /// Builds a matrix by thresholding `scores` against `labels`
    /// (`score >= threshold` ⇒ alert).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_scores(scores: &[f64], labels: &[bool], threshold: f64) -> Self {
        assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
        let mut cm = ConfusionMatrix::default();
        for (&score, &label) in scores.iter().zip(labels) {
            cm.record(score >= threshold, label);
        }
        cm
    }

    /// Total items.
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Accuracy: fraction of correct decisions (0 on an empty matrix).
    pub fn accuracy(&self) -> f64 {
        ratio(self.true_positives + self.true_negatives, self.total())
    }

    /// Precision: TP / (TP + FP); 0 when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        ratio(self.true_positives, self.true_positives + self.false_positives)
    }

    /// Recall (detection rate): TP / (TP + FN); 0 when there were no attacks.
    pub fn recall(&self) -> f64 {
        ratio(self.true_positives, self.true_positives + self.false_negatives)
    }

    /// False-positive rate: FP / (FP + TN); 0 when there was no benign
    /// traffic.
    pub fn false_positive_rate(&self) -> f64 {
        ratio(self.false_positives, self.false_positives + self.true_negatives)
    }

    /// F1: harmonic mean of precision and recall (0 when both are 0).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r > 0.0 {
            2.0 * p * r / (p + r)
        } else {
            0.0
        }
    }

    /// The four headline metrics as a [`Metrics`] record.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            accuracy: self.accuracy(),
            precision: self.precision(),
            recall: self.recall(),
            f1: self.f1(),
        }
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The four metrics reported per (IDS, dataset) cell of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Fraction of correct decisions.
    pub accuracy: f64,
    /// TP / predicted positives.
    pub precision: f64,
    /// TP / actual positives (detection rate).
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl Metrics {
    /// Element-wise mean of several metric records (the "Average:" rows of
    /// Table IV). Returns zeros for an empty slice.
    pub fn mean(items: &[Metrics]) -> Metrics {
        if items.is_empty() {
            return Metrics::default();
        }
        let n = items.len() as f64;
        Metrics {
            accuracy: items.iter().map(|m| m.accuracy).sum::<f64>() / n,
            precision: items.iter().map(|m| m.precision).sum::<f64>() / n,
            recall: items.iter().map(|m| m.recall).sum::<f64>() / n,
            f1: items.iter().map(|m| m.f1).sum::<f64>() / n,
        }
    }
}

/// Raw per-attack-family tallies, accumulated while scoring and merged
/// across shards/peers exactly like confusion counts.
///
/// `packets` and `flows` split the family's scored items by event shape:
/// a packet-format detector scores [`Event::Packet`]s (so `flows == 0`),
/// a flow-format detector scores [`Event::FlowEvicted`]s (so
/// `packets == 0`) — keeping both makes the split visible when outcomes
/// from differently-shaped detectors sit in one table.
///
/// [`Event::Packet`]: crate::event::Event::Packet
/// [`Event::FlowEvicted`]: crate::event::Event::FlowEvicted
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FamilyCounts {
    /// Scored items of this family at or above the alert threshold.
    pub alerts: usize,
    /// Packet events of this family scored.
    pub packets: usize,
    /// Flow-eviction events of this family scored.
    pub flows: usize,
}

impl FamilyCounts {
    /// Tallies one scored event of this family.
    pub fn record(&mut self, alert: bool, is_flow: bool) {
        self.alerts += usize::from(alert);
        if is_flow {
            self.flows += 1;
        } else {
            self.packets += 1;
        }
    }

    /// Adds another shard's tallies (the cross-shard/cross-peer merge).
    pub fn merge(&mut self, other: &FamilyCounts) {
        self.alerts += other.alerts;
        self.packets += other.packets;
        self.flows += other.flows;
    }

    /// Total scored items of this family.
    pub fn items(&self) -> usize {
        self.packets + self.flows
    }
}

/// The per-attack-family outcome row of an experiment or stream report:
/// named fields instead of the historical `(name, recall, count)` tuple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyOutcome {
    /// Attack family name (`AttackKind::name()`).
    pub family: String,
    /// Fraction of this family's scored items that raised an alert.
    pub recall: f64,
    /// Scored items of this family at or above the alert threshold.
    pub alerts: usize,
    /// Packet events of this family scored.
    pub packets: usize,
    /// Flow-eviction events of this family scored.
    pub flows: usize,
}

impl FamilyOutcome {
    /// Builds the outcome row from raw tallies.
    pub fn from_counts(family: &str, counts: &FamilyCounts) -> Self {
        FamilyOutcome {
            family: family.to_string(),
            recall: counts.alerts as f64 / counts.items().max(1) as f64,
            alerts: counts.alerts,
            packets: counts.packets,
            flows: counts.flows,
        }
    }

    /// Total scored items of this family (packets + flows).
    pub fn items(&self) -> usize {
        self.packets + self.flows
    }

    /// Serializes this row as a JSON object (the hand-rolled convention
    /// shared by `Experiment` and `StreamReport` serialization).
    pub fn to_json(&self) -> String {
        use crate::json::{num_field, str_field};
        let mut out = String::with_capacity(96);
        out.push('{');
        str_field(&mut out, "family", &self.family);
        out.push(',');
        num_field(&mut out, "recall", self.recall);
        out.push(',');
        num_field(&mut out, "alerts", self.alerts as f64);
        out.push(',');
        num_field(&mut out, "packets", self.packets as f64);
        out.push(',');
        num_field(&mut out, "flows", self.flows as f64);
        out.push('}');
        out
    }
}

/// Folds a per-family tally map into sorted [`FamilyOutcome`] rows — the
/// one rendering rule shared by the batch runner and the stream merge.
pub fn family_outcomes(
    families: &std::collections::BTreeMap<&'static str, FamilyCounts>,
) -> Vec<FamilyOutcome> {
    families.iter().map(|(name, counts)| FamilyOutcome::from_counts(name, counts)).collect()
}

/// One point of a ROC or precision-recall curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Threshold producing this point.
    pub threshold: f64,
    /// X coordinate (FPR for ROC, recall for PR).
    pub x: f64,
    /// Y coordinate (TPR for ROC, precision for PR).
    pub y: f64,
}

/// A scored population ranked **once**: every distinct score value in
/// descending order, each with the running true/false-positive counts of
/// alerting at it. Threshold calibration, the confusion matrix at the
/// chosen threshold and the ROC/PR curves all read this one ranking, so
/// they cannot disagree about the same cell — and a whole candidate sweep
/// costs one `O(n log n)` sort instead of one `O(n)` scan per candidate.
///
/// The alert rule everywhere is `score >= threshold`, which settles the
/// non-finite scores: `NaN` never alerts (it is counted in the totals and
/// ranked nowhere), `−∞` ranks last and alerts only at a `−∞` threshold,
/// `+∞` ranks first and alerts at every threshold up to and including the
/// "never alert" `+∞`. Values are ordered by [`f64::total_cmp`]; `0.0` and
/// `-0.0` alert together and form one step, reported as `0.0`.
#[derive(Debug, Clone)]
pub struct Ranking {
    steps: Vec<RankStep>,
    positives: u64,
    negatives: u64,
}

/// One distinct score value of a [`Ranking`] with the counts of alerting
/// at it (`score >= value`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RankStep {
    pub(crate) score: f64,
    pub(crate) true_positives: u64,
    pub(crate) false_positives: u64,
}

impl RankStep {
    /// Items scoring at or above this step's value.
    pub(crate) fn alerts(&self) -> u64 {
        self.true_positives + self.false_positives
    }
}

impl Ranking {
    /// Ranks `scores` against their ground truth.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn new(scores: &[f64], labels: &[bool]) -> Self {
        assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
        let positives = labels.iter().filter(|&&l| l).count() as u64;
        let mut ranked: Vec<(f64, bool)> = scores
            .iter()
            .copied()
            .zip(labels.iter().copied())
            .filter(|(s, _)| !s.is_nan())
            .collect();
        ranked.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        let mut steps: Vec<RankStep> = Vec::new();
        let (mut true_positives, mut false_positives) = (0u64, 0u64);
        for (score, label) in ranked {
            if label {
                true_positives += 1;
            } else {
                false_positives += 1;
            }
            match steps.last_mut() {
                // `==`, not bit equality: `-0.0` joins the `0.0` step.
                Some(last) if last.score == score => {
                    (last.true_positives, last.false_positives) = (true_positives, false_positives);
                }
                _ => steps.push(RankStep { score, true_positives, false_positives }),
            }
        }
        Ranking { steps, positives, negatives: labels.len() as u64 - positives }
    }

    /// Number of ranked items, `NaN`-scored ones included.
    pub fn total(&self) -> u64 {
        self.positives + self.negatives
    }

    /// The distinct score values, descending, `+∞` first and `−∞` last
    /// when present.
    pub(crate) fn steps(&self) -> &[RankStep] {
        &self.steps
    }

    /// The confusion matrix of alerting on exactly `step` and everything
    /// ranked above it; `None` is the matrix of alerting on nothing.
    pub(crate) fn confusion_of(&self, step: Option<&RankStep>) -> ConfusionMatrix {
        let (true_positives, false_positives) =
            step.map_or((0, 0), |s| (s.true_positives, s.false_positives));
        ConfusionMatrix {
            true_positives,
            false_positives,
            true_negatives: self.negatives - false_positives,
            false_negatives: self.positives - true_positives,
        }
    }

    /// The confusion matrix at `threshold` (`score >= threshold` ⇒ alert):
    /// [`ConfusionMatrix::from_scores`] by binary search instead of a scan.
    pub fn confusion_at(&self, threshold: f64) -> ConfusionMatrix {
        let alerting = self.steps.partition_point(|s| s.score >= threshold);
        self.confusion_of(alerting.checked_sub(1).map(|last| &self.steps[last]))
    }

    /// The ROC curve (FPR, TPR), one point per distinct score value,
    /// ordered by increasing FPR. Degenerate populations (no positives or
    /// no negatives) yield an empty curve.
    pub fn roc_curve(&self) -> Vec<CurvePoint> {
        self.roc_points().collect()
    }

    fn roc_points(&self) -> impl Iterator<Item = CurvePoint> + '_ {
        let (positives, negatives) = (self.positives as f64, self.negatives as f64);
        let steps = if self.positives == 0 || self.negatives == 0 { &[][..] } else { &self.steps };
        steps.iter().map(move |s| CurvePoint {
            threshold: s.score,
            x: s.false_positives as f64 / negatives,
            y: s.true_positives as f64 / positives,
        })
    }

    /// Area under [`Ranking::roc_curve`] (see [`auc`]), without
    /// materialising the curve.
    pub fn auc(&self) -> f64 {
        area_under(self.roc_points())
    }

    /// The precision-recall curve, one point per distinct score value,
    /// ordered by increasing recall (empty without positives).
    pub fn pr_curve(&self) -> Vec<CurvePoint> {
        let positives = self.positives as f64;
        let steps = if self.positives == 0 { &[][..] } else { &self.steps };
        steps
            .iter()
            .map(|s| CurvePoint {
                threshold: s.score,
                x: s.true_positives as f64 / positives,
                y: s.true_positives as f64 / s.alerts() as f64,
            })
            .collect()
    }
}

/// Computes the ROC curve (FPR, TPR) over all distinct score thresholds
/// (see [`Ranking::roc_curve`], which this wraps, for the ordering and the
/// treatment of non-finite scores).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn roc_curve(scores: &[f64], labels: &[bool]) -> Vec<CurvePoint> {
    Ranking::new(scores, labels).roc_curve()
}

/// Area under the ROC curve via trapezoidal integration (0.5 for random
/// scores, 0 for an empty curve).
pub fn auc(points: &[CurvePoint]) -> f64 {
    area_under(points.iter().copied())
}

fn area_under(points: impl Iterator<Item = CurvePoint>) -> f64 {
    let mut area = 0.0;
    let mut prev = CurvePoint { threshold: f64::INFINITY, x: 0.0, y: 0.0 };
    let mut empty = true;
    for point in points {
        area += (point.x - prev.x) * (point.y + prev.y) / 2.0;
        prev = point;
        empty = false;
    }
    if empty {
        return 0.0;
    }
    // Close the curve to (1, 1).
    area + (1.0 - prev.x) * (1.0 + prev.y) / 2.0
}

/// Computes the precision-recall curve over all distinct score thresholds,
/// ordered by increasing recall (see [`Ranking::pr_curve`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pr_curve(scores: &[f64], labels: &[bool]) -> Vec<CurvePoint> {
    Ranking::new(scores, labels).pr_curve()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let scores = [0.9, 0.8, 0.1, 0.2];
        let labels = [true, true, false, false];
        let cm = ConfusionMatrix::from_scores(&scores, &labels, 0.5);
        let m = cm.metrics();
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(auc(&roc_curve(&scores, &labels)), 1.0);
    }

    #[test]
    fn all_positive_predictor_matches_table_iv_degenerate_rows() {
        // DNN on Stratosphere predicted everything attack: acc == prec ==
        // attack share, recall == 1.
        let labels = [true, false, false, false, true];
        let scores = [1.0; 5];
        let cm = ConfusionMatrix::from_scores(&scores, &labels, 0.5);
        let m = cm.metrics();
        assert!((m.accuracy - 0.4).abs() < 1e-12);
        assert!((m.precision - 0.4).abs() < 1e-12);
        assert_eq!(m.recall, 1.0);
    }

    #[test]
    fn all_negative_predictor_matches_slips_rows() {
        // Slips on UNSW alerted on nothing: precision = recall = f1 = 0,
        // accuracy = benign share.
        let labels = [true, false, false, false];
        let scores = [0.0; 4];
        let cm = ConfusionMatrix::from_scores(&scores, &labels, 0.5);
        let m = cm.metrics();
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f1, 0.0);
        assert!((m.accuracy - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_all_zero() {
        let cm = ConfusionMatrix::default();
        let m = cm.metrics();
        assert_eq!((m.accuracy, m.precision, m.recall, m.f1), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn random_scores_have_auc_near_half() {
        // Deterministic pseudo-random scores via a linear congruential step.
        let mut state = 12345u64;
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for i in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            scores.push((state >> 11) as f64 / (1u64 << 53) as f64);
            labels.push(i % 2 == 0);
        }
        let a = auc(&roc_curve(&scores, &labels));
        assert!((a - 0.5).abs() < 0.05, "auc = {a}");
    }

    #[test]
    fn roc_handles_no_positives() {
        assert!(roc_curve(&[1.0, 2.0], &[false, false]).is_empty());
        assert!(pr_curve(&[1.0, 2.0], &[false, false]).is_empty());
    }

    #[test]
    fn roc_is_monotone_in_fpr_and_tpr() {
        let scores = [0.1, 0.4, 0.35, 0.8, 0.65, 0.2, 0.9];
        let labels = [false, true, false, true, true, false, true];
        let curve = roc_curve(&scores, &labels);
        for pair in curve.windows(2) {
            assert!(pair[1].x >= pair[0].x);
            assert!(pair[1].y >= pair[0].y);
        }
    }

    #[test]
    fn tied_scores_are_grouped() {
        let scores = [0.5, 0.5, 0.5];
        let labels = [true, false, true];
        let curve = roc_curve(&scores, &labels);
        assert_eq!(curve.len(), 1);
        assert_eq!(curve[0].x, 1.0);
        assert_eq!(curve[0].y, 1.0);
    }

    /// Separable scores (attacks ≥ 0.8, benign ≤ 0.2) with the non-finite
    /// values mixed in on both sides.
    fn separable_with_non_finite() -> (Vec<f64>, Vec<bool>) {
        let scores = vec![
            f64::NAN,
            0.9,
            0.1,
            f64::NEG_INFINITY,
            0.8,
            f64::INFINITY,
            0.2,
            f64::NAN,
            f64::NEG_INFINITY,
            0.85,
            -f64::NAN,
        ];
        let labels = vec![true, true, false, true, true, true, false, false, false, true, false];
        (scores, labels)
    }

    #[test]
    fn non_finite_scores_have_one_defined_rank() {
        let (scores, labels) = separable_with_non_finite();
        let ranking = Ranking::new(&scores, &labels);
        assert_eq!(ranking.total(), 11);
        // +∞ first, the finite values descending, −∞ last; NaN nowhere.
        let order: Vec<f64> = ranking.steps().iter().map(|s| s.score).collect();
        assert_eq!(order, vec![f64::INFINITY, 0.9, 0.85, 0.8, 0.2, 0.1, f64::NEG_INFINITY]);
        // The ranking answers every threshold as a full scan does.
        for threshold in
            [f64::INFINITY, 1.0, 0.85, 0.5, 0.1, -3.0, f64::NEG_INFINITY, f64::NAN, 0.0, -0.0]
        {
            assert_eq!(
                ranking.confusion_at(threshold),
                ConfusionMatrix::from_scores(&scores, &labels, threshold),
                "threshold {threshold}"
            );
        }
        // +∞ alerts even at "never alert"; NaN and −∞ at no finite one.
        let never = ranking.confusion_at(f64::INFINITY);
        assert_eq!((never.true_positives, never.false_positives), (1, 0));
        let lowest = ranking.confusion_at(0.1);
        assert_eq!((lowest.true_positives, lowest.false_positives), (4, 2));
        assert_eq!((lowest.false_negatives, lowest.true_negatives), (2, 3));
    }

    #[test]
    fn auc_ranks_non_finite_scores_last() {
        let (scores, labels) = separable_with_non_finite();
        // −∞ is a threshold like any other (it alerts on everything but
        // NaN), so −∞ scores rank below every finite one and NaN scores,
        // which nothing alerts on, tie below that: the curve is the one of
        // the same population with −∞ → −1 and NaN → −2.
        let floored: Vec<f64> = scores
            .iter()
            .map(|&s| match s {
                s if s.is_nan() => -2.0,
                s if s == f64::NEG_INFINITY => -1.0,
                s => s,
            })
            .collect();
        let expected = auc(&roc_curve(&floored, &labels));
        // 4 of 6 attacks outrank all 5 benign; the −∞ one outranks the two
        // NaN benign and ties one; the NaN one ties two.
        assert!((expected - (4.0 * 5.0 + 2.0 + 0.5 + 2.0 * 0.5) / 30.0).abs() < 1e-12);
        // −∞ still forms its own (last) point; NaN only closes the curve.
        let curve = roc_curve(&scores, &labels);
        assert_eq!(curve.len(), 7);
        assert_eq!(curve[0].threshold, f64::INFINITY);
        assert!((auc(&curve) - expected).abs() < 1e-12);
        assert_eq!(Ranking::new(&scores, &labels).auc(), auc(&curve));
        // The PR curve reads the same ranking.
        let pr = pr_curve(&scores, &labels);
        assert_eq!(pr.len(), 7);
        assert_eq!((pr[3].x, pr[3].y), (4.0 / 6.0, 1.0));
    }

    #[test]
    fn signed_zeros_share_a_step() {
        let ranking = Ranking::new(&[-0.0, 0.0, -0.0, 1.0], &[true, false, false, true]);
        let order: Vec<u64> = ranking.steps().iter().map(|s| s.score.to_bits()).collect();
        assert_eq!(order, vec![1.0f64.to_bits(), 0.0f64.to_bits()]);
        assert_eq!(ranking.confusion_at(-0.0), ranking.confusion_at(0.0));
        assert_eq!(ranking.confusion_at(0.0).false_positives, 2);
    }

    #[test]
    fn metrics_mean_matches_paper_average_rows() {
        let rows = [
            Metrics { accuracy: 0.8, precision: 0.5, recall: 0.4, f1: 0.44 },
            Metrics { accuracy: 0.6, precision: 0.7, recall: 0.8, f1: 0.75 },
        ];
        let avg = Metrics::mean(&rows);
        assert!((avg.accuracy - 0.7).abs() < 1e-12);
        assert!((avg.precision - 0.6).abs() < 1e-12);
        assert!((avg.recall - 0.6).abs() < 1e-12);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let cm = ConfusionMatrix {
            true_positives: 30,
            false_positives: 10,
            true_negatives: 50,
            false_negatives: 10,
        };
        let p = 0.75;
        let r = 0.75;
        assert!((cm.f1() - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }
}
