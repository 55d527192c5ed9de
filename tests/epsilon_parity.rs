//! Pins the epsilon-parity contract of the wide-lane f32 inference mode.
//!
//! The default `Precision::F64Bitwise` mode is covered by
//! `tests/score_digest.rs` — every score bit is pinned. The opt-in
//! `Precision::F32Wide` mode trades that bitwise guarantee for speed, and
//! this test pins exactly what it trades: for the canonical replay
//! (Tiny Stratosphere, default `EvalConfig`), every f32-mode score must
//! stay within a per-detector relative-error bound of its f64 twin, and
//! the *decisions* — which events cross each mode's own calibrated
//! quantile threshold — must be identical. Slips has no neural network,
//! so its f32-mode scores must be bit-for-bit unchanged.
//!
//! The bounds are deliberately loose relative to observed error (several
//! times headroom) but tight enough that a broken kernel — wrong lane
//! reduction, stale packed weights, an activation diverging — fails
//! immediately rather than drifting.

use idsbench::core::preprocess::Pipeline;
use idsbench::core::runner::{replay, EvalConfig};
use idsbench::core::{Dataset, EventDetector};
use idsbench::datasets::{scenarios, ScenarioScale};
use idsbench::dnn::{Dnn, DnnConfig};
use idsbench::helad::{Helad, HeladConfig};
use idsbench::kitsune::{Kitsune, KitsuneConfig};
use idsbench::nn::Precision;
use idsbench::slips::Slips;

/// Per-detector ceiling on the max relative error of f32-mode scores
/// against f64-mode scores over the canonical replay. Slips runs no f32
/// code at all, so its ceiling is exactly zero.
const ERROR_CEILINGS: [(&str, f64); 4] =
    [("Kitsune", 1e-3), ("HELAD", 1e-3), ("DNN", 1e-4), ("Slips", 0.0)];

/// Calibration quantile for the decision-parity half of the contract —
/// the default threshold policy's percentile.
const QUANTILE: f64 = 0.99;

fn canonical_scores(precision: Precision) -> Vec<(String, Vec<f64>)> {
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let config = EvalConfig::default();
    let pipeline = Pipeline::new(config.pipeline).expect("pipeline");
    let input = pipeline
        .prepare_events(&scenario.info().name, scenario.generate(config.dataset_seed))
        .expect("preprocess");
    let detectors: Vec<Box<dyn EventDetector>> = vec![
        Box::new(Kitsune::new(KitsuneConfig { precision, ..Default::default() })),
        Box::new(Helad::new(HeladConfig { precision, ..Default::default() })),
        Box::new(Dnn::new(DnnConfig { precision, ..Default::default() })),
        Box::new(Slips::default()),
    ];
    detectors
        .into_iter()
        .map(|mut detector| {
            let scores = replay(detector.as_mut(), &input).expect("replay").scores;
            (detector.name().to_string(), scores)
        })
        .collect()
}

/// Relative error with a small absolute floor in the denominator, so
/// near-zero scores compare on absolute terms instead of exploding.
fn rel_err(f64_score: f64, f32_score: f64) -> f64 {
    (f64_score - f32_score).abs() / f64_score.abs().max(1e-6)
}

/// The threshold the default calibration policy would pick from a score
/// stream: the empirical quantile by sorted rank.
fn quantile_threshold(scores: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let rank = ((sorted.len() as f64 - 1.0) * QUANTILE).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[test]
fn wide_mode_scores_stay_within_pinned_epsilon() {
    let baseline = canonical_scores(Precision::F64Bitwise);
    let wide = canonical_scores(Precision::F32Wide);
    assert_eq!(baseline.len(), wide.len());

    for ((name, f64_scores), (wide_name, f32_scores)) in baseline.iter().zip(wide.iter()) {
        assert_eq!(name, wide_name, "roster order diverged between modes");
        assert_eq!(
            f64_scores.len(),
            f32_scores.len(),
            "{name}: wide mode scored a different event count"
        );
        let (_, ceiling) = ERROR_CEILINGS
            .iter()
            .find(|(who, _)| who == name)
            .expect("every detector has a pinned ceiling");

        if *ceiling == 0.0 {
            // No NN — the wide knob must be a no-op, bit for bit.
            for (i, (a, b)) in f64_scores.iter().zip(f32_scores).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}: score {i} changed in wide mode");
            }
            continue;
        }

        let mut worst = 0.0f64;
        for (a, b) in f64_scores.iter().zip(f32_scores) {
            worst = worst.max(rel_err(*a, *b));
        }
        // Shown under `--nocapture`: the margin a kernel change has left.
        println!("{name}: max relative error {worst:.3e} (ceiling {ceiling:.0e})");
        assert!(
            worst <= *ceiling,
            "{name}: max relative error {worst:.3e} exceeds pinned ceiling {ceiling:.0e}"
        );
    }
}

#[test]
fn wide_mode_threshold_decisions_are_identical() {
    let baseline = canonical_scores(Precision::F64Bitwise);
    let wide = canonical_scores(Precision::F32Wide);

    for ((name, f64_scores), (_, f32_scores)) in baseline.iter().zip(wide.iter()) {
        // Each mode calibrates on its own scores — the deployment story —
        // and the resulting alert vectors must agree on every event.
        let t64 = quantile_threshold(f64_scores);
        let t32 = quantile_threshold(f32_scores);
        let disagreements: Vec<usize> = f64_scores
            .iter()
            .zip(f32_scores)
            .enumerate()
            .filter(|(_, (a, b))| (**a >= t64) != (**b >= t32))
            .map(|(i, _)| i)
            .collect();
        assert!(
            disagreements.is_empty(),
            "{name}: {} of {} alert decisions flipped in wide mode (first at event {}); \
             thresholds f64={t64:.6e} f32={t32:.6e}",
            disagreements.len(),
            f64_scores.len(),
            disagreements[0],
        );
    }
}
