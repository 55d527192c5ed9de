//! Property-based tests on metric and calibration identities: confusion
//! arithmetic, ROC invariants, threshold-policy contracts.

use idsbench_core::metrics::{auc, roc_curve, ConfusionMatrix, Metrics};
use idsbench_core::threshold::ThresholdPolicy;
use proptest::prelude::*;

fn scored_population() -> impl Strategy<Value = (Vec<f64>, Vec<bool>)> {
    proptest::collection::vec((0.0f64..1.0, any::<bool>()), 2..300)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

proptest! {
    /// Confusion matrix totals and derived metrics are internally
    /// consistent at any threshold.
    #[test]
    fn confusion_identities((scores, labels) in scored_population(), threshold in 0.0f64..1.0) {
        let cm = ConfusionMatrix::from_scores(&scores, &labels, threshold);
        prop_assert_eq!(cm.total() as usize, scores.len());
        let positives = labels.iter().filter(|&&l| l).count() as u64;
        prop_assert_eq!(cm.true_positives + cm.false_negatives, positives);
        prop_assert_eq!(cm.false_positives + cm.true_negatives, cm.total() - positives);
        let m = cm.metrics();
        for v in [m.accuracy, m.precision, m.recall, m.f1] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        // F1 is bounded by min and max of precision/recall.
        if m.precision > 0.0 && m.recall > 0.0 {
            prop_assert!(m.f1 <= m.precision.max(m.recall) + 1e-12);
            prop_assert!(m.f1 >= m.precision.min(m.recall) - 1e-12);
        }
    }

    /// Lowering the threshold never lowers recall and never lowers FPR's
    /// complement (monotonicity of thresholding).
    #[test]
    fn thresholding_is_monotone((scores, labels) in scored_population(), a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (low, high) = if a <= b { (a, b) } else { (b, a) };
        let cm_low = ConfusionMatrix::from_scores(&scores, &labels, low);
        let cm_high = ConfusionMatrix::from_scores(&scores, &labels, high);
        prop_assert!(cm_low.recall() >= cm_high.recall());
        prop_assert!(cm_low.false_positive_rate() >= cm_high.false_positive_rate());
    }

    /// AUC is within [0, 1] and invariant under any strictly monotone score
    /// transform.
    #[test]
    fn auc_is_rank_statistic((scores, labels) in scored_population()) {
        let a1 = auc(&roc_curve(&scores, &labels));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&a1));
        let transformed: Vec<f64> = scores.iter().map(|s| (s * 3.0).exp()).collect();
        let a2 = auc(&roc_curve(&transformed, &labels));
        prop_assert!((a1 - a2).abs() < 1e-9, "auc must be rank-invariant: {a1} vs {a2}");
    }

    /// DetectionFirst always respects its FPR cap when any candidate
    /// satisfies it (and +inf always does).
    #[test]
    fn detection_first_respects_cap((scores, labels) in scored_population(), cap in 0.0f64..0.8) {
        let t = ThresholdPolicy::DetectionFirst { max_fpr: cap }.calibrate(&scores, &labels);
        let cm = ConfusionMatrix::from_scores(&scores, &labels, t);
        prop_assert!(
            cm.false_positive_rate() <= cap + 1e-12,
            "fpr {} exceeds cap {cap}",
            cm.false_positive_rate()
        );
    }

    /// MaxF1's chosen threshold really does maximize F1 over the candidate
    /// grid (verified against an exhaustive scan of observed scores).
    #[test]
    fn max_f1_is_maximal((scores, labels) in scored_population()) {
        let t = ThresholdPolicy::MaxF1.calibrate(&scores, &labels);
        let chosen = ConfusionMatrix::from_scores(&scores, &labels, t).f1();
        // Exhaustive scan only valid when under the calibration's candidate
        // subsampling limit.
        if scores.len() <= 256 {
            for &candidate in &scores {
                let f1 = ConfusionMatrix::from_scores(&scores, &labels, candidate).f1();
                prop_assert!(chosen >= f1 - 1e-12, "candidate {candidate} has f1 {f1} > chosen {chosen}");
            }
        }
    }

    /// Metrics::mean is the arithmetic mean, element-wise.
    #[test]
    fn metrics_mean_is_elementwise(values in proptest::collection::vec(0.0f64..1.0, 4..40)) {
        let rows: Vec<Metrics> = values
            .chunks(4)
            .filter(|c| c.len() == 4)
            .map(|c| Metrics { accuracy: c[0], precision: c[1], recall: c[2], f1: c[3] })
            .collect();
        let mean = Metrics::mean(&rows);
        let expect = |f: fn(&Metrics) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
        prop_assert!((mean.accuracy - expect(|m| m.accuracy)).abs() < 1e-12);
        prop_assert!((mean.f1 - expect(|m| m.f1)).abs() < 1e-12);
    }
}
