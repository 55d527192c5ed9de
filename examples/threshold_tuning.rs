//! Show how the calibration rule (Section IV-A step 4) changes reported
//! metrics for the same detector on the same traffic — the paper's
//! "tolerable level of false positives" is a judgment call, and this
//! example quantifies how much it matters.
//!
//! ```text
//! cargo run --release --example threshold_tuning
//! ```

use idsbench::core::metrics::{auc, roc_curve, ConfusionMatrix};
use idsbench::core::preprocess::Pipeline;
use idsbench::core::runner::replay;
use idsbench::core::threshold::ThresholdPolicy;
use idsbench::core::{CoreError, Dataset};
use idsbench::datasets::{scenarios, ScenarioScale};
use idsbench::kitsune::Kitsune;

fn main() -> Result<(), CoreError> {
    let dataset = scenarios::cicids2017(ScenarioScale::Small);
    let packets = dataset.generate(42);
    let pipeline = Pipeline::new(Default::default())?;
    let input = pipeline.prepare_events(&dataset.info().name, packets)?;

    let mut detector = Kitsune::default();
    let scored = replay(&mut detector, &input)?;
    let (scores, labels) = (scored.scores, scored.labels);
    println!(
        "Kitsune on {}: {} eval packets, AUC {:.3}\n",
        dataset.info().name,
        scores.len(),
        auc(&roc_curve(&scores, &labels))
    );

    let policies: [(&str, ThresholdPolicy); 6] = [
        ("detection-first, 25% FPR cap (paper)", ThresholdPolicy::DetectionFirst { max_fpr: 0.25 }),
        ("detection-first, 10% FPR cap", ThresholdPolicy::DetectionFirst { max_fpr: 0.10 }),
        ("detection-first, 1% FPR cap", ThresholdPolicy::DetectionFirst { max_fpr: 0.01 }),
        ("max F1", ThresholdPolicy::MaxF1),
        ("99.9th score quantile", ThresholdPolicy::ScoreQuantile { quantile: 0.999 }),
        ("fixed 0.5", ThresholdPolicy::Fixed(0.5)),
    ];

    println!(
        "{:<44} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "policy", "threshold", "acc", "prec", "rec", "f1"
    );
    for (name, policy) in policies {
        let threshold = policy.calibrate(&scores, &labels);
        let cm = ConfusionMatrix::from_scores(&scores, &labels, threshold);
        let m = cm.metrics();
        println!(
            "{:<44} {:>10.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
            name, threshold, m.accuracy, m.precision, m.recall, m.f1
        );
    }
    println!("\nSame scores, very different tables — the paper's Section VI point in one screen.");
    Ok(())
}
