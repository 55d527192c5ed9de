//! Differential reference for threshold calibration and the score ranking.
//!
//! `ThresholdPolicy::calibrate` used to build a `ConfusionMatrix` with a
//! full pass over the scores for every candidate threshold, and
//! `roc_curve` sorted the scores again. All of that now
//! reads one `Ranking` (sort once, running counts per distinct value). The
//! code it replaced lives on here, verbatim, as the test-only reference:
//! on every population below the sweep must choose the **same threshold,
//! bit for bit**, under every policy, and the ranking must give the same
//! confusion matrix and the same ROC curve as the scan did.
//!
//! Two deliberate differences, both outside what the old code defined:
//!
//! * `NaN` scores. The old `roc_curve` sorted with
//!   `partial_cmp(..).unwrap_or(Equal)`, which is not a total order once a
//!   `NaN` is present (the result depended on where the `NaN`s sat, and
//!   `sort_by` may panic on such a comparator), while `candidates` filtered
//!   them — the two disagreed about the same cell. Calibration and the
//!   confusion matrix never did depend on the sort, so those are compared
//!   on `NaN` inputs too; the curve is compared on `NaN`-free inputs and
//!   its `NaN` behaviour is pinned by `metrics.rs`'s unit tests.
//! * `-0.0` scores. `0.0` and `-0.0` alert together and so share one
//!   candidate; the old code reported whichever came first in the input,
//!   the ranking always reports `0.0`. The pools below contain no `-0.0`
//!   (a unit test in `metrics.rs` covers the shared step).

use idsbench_core::metrics::{auc, roc_curve, ConfusionMatrix, CurvePoint, Ranking};
use idsbench_core::threshold::ThresholdPolicy;
use proptest::prelude::*;

// ---- The deleted per-candidate calibration, verbatim ----------------------

fn reference_calibrate(policy: &ThresholdPolicy, scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    if scores.is_empty() {
        return f64::INFINITY;
    }
    match *policy {
        ThresholdPolicy::Fixed(threshold) => threshold,
        ThresholdPolicy::ScoreQuantile { quantile } => reference_quantile_of(scores, quantile),
        ThresholdPolicy::MaxF1 => {
            let mut best = (f64::INFINITY, -1.0);
            for &candidate in reference_candidates(scores).iter() {
                let f1 = ConfusionMatrix::from_scores(scores, labels, candidate).f1();
                if f1 > best.1 {
                    best = (candidate, f1);
                }
            }
            best.0
        }
        ThresholdPolicy::DetectionFirst { max_fpr } => {
            let mut best: Option<(f64, f64, f64)> = None; // (threshold, recall, fpr)
            let mut fallback: Option<(f64, f64)> = None; // (threshold, fpr)
            for &candidate in reference_candidates(scores).iter() {
                let cm = ConfusionMatrix::from_scores(scores, labels, candidate);
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
        _ => unreachable!("ThresholdPolicy grew a variant the reference does not know"),
    }
}

fn reference_candidates(scores: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = scores.iter().copied().filter(|s| s.is_finite()).collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    sorted.dedup();
    const MAX_CANDIDATES: usize = 512;
    let mut kept = if sorted.len() > MAX_CANDIDATES {
        let step = sorted.len() as f64 / MAX_CANDIDATES as f64;
        let mut sampled: Vec<f64> =
            (0..MAX_CANDIDATES).map(|i| sorted[(i as f64 * step) as usize]).collect();
        sampled.push(*sorted.last().expect("non-empty"));
        sampled.dedup();
        sampled
    } else {
        sorted
    };
    kept.insert(0, f64::INFINITY);
    kept
}

fn reference_quantile_of(scores: &[f64], quantile: f64) -> f64 {
    let mut sorted: Vec<f64> = scores.iter().copied().filter(|s| s.is_finite()).collect();
    if sorted.is_empty() {
        return f64::INFINITY;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = quantile.clamp(0.0, 1.0);
    let index = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[index]
}

// ---- The deleted per-curve sorts, verbatim --------------------------------

fn reference_roc_curve(scores: &[f64], labels: &[bool]) -> Vec<CurvePoint> {
    let positives = labels.iter().filter(|&&l| l).count() as f64;
    let negatives = labels.len() as f64 - positives;
    if positives == 0.0 || negatives == 0.0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal));
    let mut points = Vec::new();
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut i = 0;
    while i < order.len() {
        let threshold = scores[order[i]];
        while i < order.len() && scores[order[i]] == threshold {
            if labels[order[i]] {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
            i += 1;
        }
        points.push(CurvePoint { threshold, x: fp / negatives, y: tp / positives });
    }
    points
}

fn reference_auc(points: &[CurvePoint]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let mut area = 0.0;
    let mut prev = CurvePoint { threshold: f64::INFINITY, x: 0.0, y: 0.0 };
    for point in points {
        area += (point.x - prev.x) * (point.y + prev.y) / 2.0;
        prev = *point;
    }
    area += (1.0 - prev.x) * (1.0 + prev.y) / 2.0;
    area
}

// ---- Populations ------------------------------------------------------------

/// How one population's scores are drawn.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Continuous: (almost) every value distinct — with enough items this
    /// is the > 512-distinct-values subsample path.
    Continuous,
    /// A handful of levels: heavy ties, far fewer candidates than items.
    Ties,
    /// One value everywhere (a rule-based detector that found nothing).
    Constant,
}

/// Which labels a population carries.
#[derive(Debug, Clone, Copy)]
enum Truth {
    Mixed,
    AllAttack,
    AllBenign,
}

fn one_of<T: Copy + std::fmt::Debug, const N: usize>(choices: [T; N]) -> impl Strategy<Value = T> {
    (0..N).prop_map(move |i| choices[i])
}

/// Deterministic pseudo-random unit values (splitmix64), so a failing case
/// is reproducible from `(shape, truth, len, seed)` alone.
fn unit(seed: u64, i: usize) -> f64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// A population of `len` scored items. Attacks score higher on average, so
/// the policies have something to separate; `non_finite` sprinkles `+∞`,
/// `−∞` and (when `nan`) `NaN` over roughly one item in eight.
fn population(
    shape: Shape,
    truth: Truth,
    len: usize,
    seed: u64,
    non_finite: bool,
    nan: bool,
) -> (Vec<f64>, Vec<bool>) {
    let mut scores = Vec::with_capacity(len);
    let mut labels = Vec::with_capacity(len);
    for i in 0..len {
        let label = match truth {
            Truth::Mixed => unit(seed ^ 0x1abe1, i) < 0.3,
            Truth::AllAttack => true,
            Truth::AllBenign => false,
        };
        let lift = if label { 0.35 } else { 0.0 };
        let mut score = match shape {
            Shape::Continuous => unit(seed, i) + lift,
            Shape::Ties => ((unit(seed, i) + lift) * 6.0).floor() / 4.0,
            Shape::Constant => 0.5,
        };
        if non_finite {
            score = match (unit(seed ^ 0xbad, i) * 24.0) as u32 {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 if nan => f64::NAN,
                _ => score,
            };
        }
        scores.push(score);
        labels.push(label);
    }
    (scores, labels)
}

fn policies() -> Vec<ThresholdPolicy> {
    let mut policies = vec![ThresholdPolicy::MaxF1, ThresholdPolicy::Fixed(0.6)];
    policies
        .extend([0.0, 0.1, 0.25, 1.0].map(|max_fpr| ThresholdPolicy::DetectionFirst { max_fpr }));
    policies
        .extend([0.0, 0.5, 0.999, 1.0].map(|quantile| ThresholdPolicy::ScoreQuantile { quantile }));
    policies
}

/// Bit patterns of a curve, so `NaN`/signed-zero differences cannot hide
/// behind `==`.
fn curve_bits(points: &[CurvePoint]) -> Vec<[u64; 3]> {
    points.iter().map(|p| [p.threshold.to_bits(), p.x.to_bits(), p.y.to_bits()]).collect()
}

/// Everything the sweep and the ranking promise, on one population.
fn check(scores: &[f64], labels: &[bool], has_nan: bool) -> Result<(), TestCaseError> {
    let ranking = Ranking::new(scores, labels);
    for policy in policies() {
        let expected = reference_calibrate(&policy, scores, labels);
        let threshold = policy.calibrate(scores, labels);
        prop_assert!(
            threshold.to_bits() == expected.to_bits(),
            "{:?}: threshold {:e} != reference {:e}",
            policy,
            threshold,
            expected
        );
        prop_assert_eq!(policy.calibrate_ranked(&ranking).to_bits(), expected.to_bits());
        prop_assert_eq!(
            ranking.confusion_at(threshold),
            ConfusionMatrix::from_scores(scores, labels, threshold)
        );
    }
    if !has_nan {
        let reference = reference_roc_curve(scores, labels);
        let curve = roc_curve(scores, labels);
        prop_assert!(curve_bits(&curve) == curve_bits(&reference), "roc curve diverged");
        let expected = reference_auc(&reference).to_bits();
        prop_assert_eq!(auc(&curve).to_bits(), expected);
        prop_assert_eq!(ranking.auc().to_bits(), expected);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small to mid-sized populations of every shape, finite scores only.
    #[test]
    fn sweep_matches_the_per_candidate_scan(
        shape in one_of([Shape::Continuous, Shape::Ties, Shape::Constant]),
        truth in one_of([Truth::Mixed, Truth::Mixed, Truth::AllAttack, Truth::AllBenign]),
        len in 0usize..400,
        seed in any::<u64>(),
    ) {
        let (scores, labels) = population(shape, truth, len, seed, false, false);
        check(&scores, &labels, false)?;
    }

    /// More than 512 distinct values: the rank-subsampled candidate list
    /// (with its appended minimum) must pick the same ranks.
    #[test]
    fn subsampled_sweep_matches_the_per_candidate_scan(
        truth in one_of([Truth::Mixed, Truth::Mixed, Truth::AllAttack, Truth::AllBenign]),
        len in 513usize..3000,
        seed in any::<u64>(),
        infinities in any::<bool>(),
    ) {
        let (scores, labels) = population(Shape::Continuous, truth, len, seed, infinities, false);
        check(&scores, &labels, false)?;
    }

    /// `±∞` mixed in (curves included), then `NaN` as well (calibration and
    /// the confusion matrix; see the module docs for the curves).
    #[test]
    fn non_finite_scores_match_the_per_candidate_scan(
        shape in one_of([Shape::Continuous, Shape::Ties, Shape::Constant]),
        truth in one_of([Truth::Mixed, Truth::Mixed, Truth::AllAttack, Truth::AllBenign]),
        len in 1usize..700,
        seed in any::<u64>(),
        nan in any::<bool>(),
    ) {
        let (scores, labels) = population(shape, truth, len, seed, true, nan);
        check(&scores, &labels, nan)?;
    }
}

/// The corners a random draw rarely lands on, spelled out.
#[test]
fn named_corner_cases_match_the_reference() {
    let cases: Vec<(Vec<f64>, Vec<bool>)> = vec![
        (vec![], vec![]),
        (vec![0.0; 100], (0..100).map(|i| i == 3).collect()),
        (vec![f64::NAN; 4], vec![true, false, true, false]),
        (vec![f64::INFINITY; 3], vec![true, false, false]),
        (vec![f64::NEG_INFINITY; 3], vec![true, false, false]),
        (vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN], vec![false, true, true]),
        // Exactly 512 and 513 distinct values: either side of the subsample.
        ((0..512).map(f64::from).collect(), (0..512).map(|i| i % 3 == 0).collect()),
        ((0..513).map(f64::from).collect(), (0..513).map(|i| i % 3 == 0).collect()),
    ];
    for (scores, labels) in cases {
        let has_nan = scores.iter().any(|s| s.is_nan());
        check(&scores, &labels, has_nan).unwrap_or_else(|e| panic!("{scores:?}: {e}"));
    }
}
