//! Standardized anomaly-threshold calibration (Section IV-A step 4).
//!
//! The paper applies one calibration rule uniformly to every IDS:
//! "identifying the threshold value that maximised the detection rate of
//! anomalous packets while maintaining a tolerable level of false
//! positives." This module implements that rule ([`ThresholdPolicy::
//! DetectionFirst`]) plus the common alternatives used in the ablation
//! benches.

use crate::metrics::{ConfusionMatrix, RankStep, Ranking};

/// A rule for choosing the alert threshold from scored evaluation output.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ThresholdPolicy {
    /// The paper's rule: among candidate thresholds whose false-positive
    /// rate does not exceed `max_fpr`, pick the one with the highest
    /// detection rate (recall); ties break toward fewer false positives.
    /// Falls back to the threshold with the lowest FPR if none satisfies
    /// the cap.
    DetectionFirst {
        /// The "tolerable level of false positives".
        max_fpr: f64,
    },
    /// Maximize F1 over all candidate thresholds.
    MaxF1,
    /// A fixed, externally supplied threshold.
    Fixed(f64),
    /// Mean + `k`·std of the *training-phase* scores — the rule shipped in
    /// Kitsune's own examples. The statistics must be supplied by the
    /// detector through the score stream's leading `train_len` items.
    TrainQuantile {
        /// Quantile of training scores used as the threshold (e.g. 0.999).
        quantile: f64,
    },
}

impl Default for ThresholdPolicy {
    /// The paper's rule with a 25% false-positive tolerance — loose enough
    /// to favour detection rate, as the published Table IV rows imply.
    fn default() -> Self {
        ThresholdPolicy::DetectionFirst { max_fpr: 0.25 }
    }
}

impl ThresholdPolicy {
    /// Calibrates a threshold from evaluation scores and ground truth:
    /// [`ThresholdPolicy::calibrate_ranked`] on a fresh [`Ranking`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn calibrate(&self, scores: &[f64], labels: &[bool]) -> f64 {
        self.calibrate_ranked(&Ranking::new(scores, labels))
    }

    /// Calibrates a threshold from an already ranked population — for a
    /// caller that also wants the confusion matrix and the AUC of the same
    /// scores and should pay for one sort, not three.
    ///
    /// Candidate thresholds are the distinct finite scores present (plus
    /// +∞ for "never alert"). Returns +∞ for an empty population, which
    /// yields an all-benign verdict downstream.
    ///
    /// **Cost.** Ranking is one `O(n log n)` sort; after it every candidate
    /// reads its confusion counts off the ranking in `O(1)`, so a sweep is
    /// `O(candidates)` — at most 514 of them — whatever `n` is.
    pub fn calibrate_ranked(&self, ranking: &Ranking) -> f64 {
        if ranking.total() == 0 {
            return f64::INFINITY;
        }
        match *self {
            ThresholdPolicy::Fixed(threshold) => threshold,
            ThresholdPolicy::TrainQuantile { quantile } => quantile_of(ranking, quantile),
            ThresholdPolicy::MaxF1 => {
                let mut best = (f64::INFINITY, -1.0);
                for (candidate, cm) in candidates(ranking) {
                    let f1 = cm.f1();
                    if f1 > best.1 {
                        best = (candidate, f1);
                    }
                }
                best.0
            }
            ThresholdPolicy::DetectionFirst { max_fpr } => {
                let mut best: Option<(f64, f64, f64)> = None; // (threshold, recall, fpr)
                let mut fallback: Option<(f64, f64)> = None; // (threshold, fpr)
                for (candidate, cm) in candidates(ranking) {
                    let recall = cm.recall();
                    let fpr = cm.false_positive_rate();
                    if fpr <= max_fpr {
                        let better = match best {
                            None => true,
                            Some((_, r, f)) => recall > r || (recall == r && fpr < f),
                        };
                        if better {
                            best = Some((candidate, recall, fpr));
                        }
                    }
                    let lower_fpr = match fallback {
                        None => true,
                        Some((_, f)) => fpr < f,
                    };
                    if lower_fpr {
                        fallback = Some((candidate, fpr));
                    }
                }
                best.map(|(t, _, _)| t).or(fallback.map(|(t, _)| t)).unwrap_or(f64::INFINITY)
            }
        }
    }
}

/// Most distinct finite scores a sweep visits; a population with more is
/// subsampled at evenly spaced ranks (plus the lowest value).
const MAX_CANDIDATES: usize = 512;

/// The ranking's finite steps (descending) and the step of the `+∞`
/// scores ranked above them, if any.
fn finite_steps(ranking: &Ranking) -> (Option<&RankStep>, &[RankStep]) {
    let steps = ranking.steps();
    let (above, steps) = match steps.split_first() {
        Some((first, rest)) if first.score == f64::INFINITY => (Some(first), rest),
        _ => (None, steps),
    };
    let steps = match steps.split_last() {
        Some((last, rest)) if last.score == f64::NEG_INFINITY => rest,
        _ => steps,
    };
    (above, steps)
}

/// The candidate thresholds in visiting order, each with the confusion
/// matrix of alerting at it. "Never alert" (+∞) comes first and is always
/// present: a detector that produces one constant score (e.g. a rule-based
/// system that found nothing) must be able to stay silent rather than
/// alert on everything. (A score of +∞ alerts even there — `+∞ >= +∞`.)
/// Then the distinct finite scores, descending, capped to a manageable
/// count by rank subsampling.
fn candidates(ranking: &Ranking) -> impl Iterator<Item = (f64, ConfusionMatrix)> + '_ {
    let (above, finite) = finite_steps(ranking);
    let picks: Vec<usize> = if finite.len() > MAX_CANDIDATES {
        let step = finite.len() as f64 / MAX_CANDIDATES as f64;
        let mut sampled: Vec<usize> =
            (0..MAX_CANDIDATES).map(|i| (i as f64 * step) as usize).collect();
        // Always keep the extremes.
        sampled.push(finite.len() - 1);
        sampled.dedup();
        sampled
    } else {
        (0..finite.len()).collect()
    };
    std::iter::once((f64::INFINITY, ranking.confusion_of(above))).chain(
        picks.into_iter().map(move |i| (finite[i].score, ranking.confusion_of(Some(&finite[i])))),
    )
}

/// The finite score at `quantile` of the finite scores in ascending order
/// (+∞ when there is none).
fn quantile_of(ranking: &Ranking, quantile: f64) -> f64 {
    let (above, finite) = finite_steps(ranking);
    let Some(lowest) = finite.last() else {
        return f64::INFINITY;
    };
    let above = above.map_or(0, RankStep::alerts);
    let count = lowest.alerts() - above;
    let index = ((count - 1) as f64 * quantile.clamp(0.0, 1.0)).round() as u64;
    // Ascending index → descending rank among everything ranked; the item
    // at rank `r` sits in the first step whose running count exceeds `r`.
    let rank = above + (count - 1 - index);
    finite[finite.partition_point(|s| s.alerts() <= rank)].score
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Well-separated scores: attacks around 0.9, benign around 0.1.
    fn separated() -> (Vec<f64>, Vec<bool>) {
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for i in 0..50 {
            scores.push(0.1 + (i as f64) * 1e-4);
            labels.push(false);
            scores.push(0.9 + (i as f64) * 1e-4);
            labels.push(true);
        }
        (scores, labels)
    }

    #[test]
    fn max_f1_finds_separating_threshold() {
        let (scores, labels) = separated();
        let t = ThresholdPolicy::MaxF1.calibrate(&scores, &labels);
        let cm = ConfusionMatrix::from_scores(&scores, &labels, t);
        assert_eq!(cm.f1(), 1.0);
    }

    #[test]
    fn detection_first_finds_separating_threshold() {
        let (scores, labels) = separated();
        let t = ThresholdPolicy::default().calibrate(&scores, &labels);
        let cm = ConfusionMatrix::from_scores(&scores, &labels, t);
        assert_eq!(cm.recall(), 1.0);
        assert!(cm.false_positive_rate() <= 0.25);
    }

    #[test]
    fn detection_first_respects_fpr_cap() {
        // Scores where catching the last attacks costs huge FPR.
        let mut scores = vec![0.9; 10]; // 10 easy attacks
        let mut labels = vec![true; 10];
        scores.push(0.05); // 1 hard attack below all benign
        labels.push(true);
        scores.extend(vec![0.5; 100]); // benign wall
        labels.extend(vec![false; 100]);
        let t = ThresholdPolicy::DetectionFirst { max_fpr: 0.10 }.calibrate(&scores, &labels);
        let cm = ConfusionMatrix::from_scores(&scores, &labels, t);
        assert!(cm.false_positive_rate() <= 0.10, "fpr = {}", cm.false_positive_rate());
        assert!((cm.recall() - 10.0 / 11.0).abs() < 1e-9, "recall = {}", cm.recall());
    }

    #[test]
    fn detection_first_with_loose_cap_floods_false_positives() {
        // The Kitsune-on-CICIDS2017 phenomenon: overlapping score
        // distributions + detection-first calibration = high recall, terrible
        // precision.
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for i in 0..400 {
            scores.push((i % 100) as f64); // benign spread over 0..99
            labels.push(false);
        }
        for i in 0..20 {
            scores.push(50.0 + (i % 50) as f64); // attacks inside the benign range
            labels.push(true);
        }
        let t = ThresholdPolicy::DetectionFirst { max_fpr: 0.5 }.calibrate(&scores, &labels);
        let cm = ConfusionMatrix::from_scores(&scores, &labels, t);
        assert!(cm.recall() >= 0.9);
        assert!(cm.precision() < 0.25, "precision = {}", cm.precision());
    }

    #[test]
    fn fixed_policy_is_verbatim() {
        let t = ThresholdPolicy::Fixed(3.25).calibrate(&[1.0, 2.0], &[false, true]);
        assert_eq!(t, 3.25);
    }

    #[test]
    fn train_quantile_tracks_distribution() {
        let scores: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let labels = vec![false; 1000];
        let t = ThresholdPolicy::TrainQuantile { quantile: 0.99 }.calibrate(&scores, &labels);
        assert!((t - 989.0).abs() <= 1.0, "t = {t}");
    }

    #[test]
    fn empty_input_never_alerts() {
        let t = ThresholdPolicy::default().calibrate(&[], &[]);
        assert!(t.is_infinite());
    }

    #[test]
    fn candidate_subsampling_keeps_extremes() {
        let scores: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let labels: Vec<bool> = (0..10_000).map(|i| i % 2 == 0).collect();
        let ranking = Ranking::new(&scores, &labels);
        let c: Vec<(f64, ConfusionMatrix)> = candidates(&ranking).collect();
        assert_eq!(c.len(), 1 + MAX_CANDIDATES + 1);
        assert!(c[0].0.is_infinite());
        assert_eq!(c[1].0, 9999.0);
        assert_eq!(c.last().unwrap().0, 0.0);
        // Each candidate carries the matrix a full scan would build.
        for (threshold, cm) in c {
            assert_eq!(cm, ConfusionMatrix::from_scores(&scores, &labels, threshold));
        }
    }

    #[test]
    fn constant_zero_scores_never_alert_under_detection_first() {
        // A rule-based detector that found nothing emits all-zero scores; the
        // calibrated threshold must be "never alert", not "alert everything".
        let scores = vec![0.0; 100];
        let mut labels = vec![false; 100];
        labels[3] = true;
        let t = ThresholdPolicy::default().calibrate(&scores, &labels);
        let cm = ConfusionMatrix::from_scores(&scores, &labels, t);
        assert_eq!(cm.false_positives, 0);
        assert_eq!(cm.recall(), 0.0);
        assert!((cm.accuracy() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn nan_scores_are_ignored_in_candidates() {
        let scores = vec![f64::NAN, 1.0, 2.0];
        let labels = vec![false, false, true];
        let t = ThresholdPolicy::MaxF1.calibrate(&scores, &labels);
        assert!(t.is_finite());
    }
}
