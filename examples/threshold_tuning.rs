//! Show how the calibration rule (Section IV-A step 4) changes reported
//! metrics for the same detector on the same traffic — the paper's
//! "tolerable level of false positives" is a judgment call, and this
//! example quantifies how much it matters.
//!
//! Each rule is one row of a single grid: the six rows are the same
//! dataset under the same seed and pipeline, so they share the dataset's
//! one realisation and Kitsune's one replay, and each row calibrates its
//! own threshold on that replay's scores.
//!
//! ```text
//! cargo run --release --example threshold_tuning
//! ```

use idsbench::core::runner::{run_rows, DetectorFactory, EvalConfig};
use idsbench::core::threshold::ThresholdPolicy;
use idsbench::core::{CoreError, Dataset, EventDetector};
use idsbench::datasets::{scenarios, ScenarioScale};
use idsbench::kitsune::Kitsune;

fn main() -> Result<(), CoreError> {
    let dataset = scenarios::cicids2017(ScenarioScale::Small);
    let policies: [(&str, ThresholdPolicy); 6] = [
        ("detection-first, 25% FPR cap (paper)", ThresholdPolicy::DetectionFirst { max_fpr: 0.25 }),
        ("detection-first, 10% FPR cap", ThresholdPolicy::DetectionFirst { max_fpr: 0.10 }),
        ("detection-first, 1% FPR cap", ThresholdPolicy::DetectionFirst { max_fpr: 0.01 }),
        ("max F1", ThresholdPolicy::MaxF1),
        ("99.9th score quantile", ThresholdPolicy::ScoreQuantile { quantile: 0.999 }),
        ("fixed 0.5", ThresholdPolicy::Fixed(0.5)),
    ];
    let rows = policies
        .map(|(_, policy)| (0, EvalConfig { policy, dataset_seed: 42, ..Default::default() }));
    let detectors: Vec<(String, DetectorFactory)> = vec![(
        "Kitsune".into(),
        Box::new(|| Box::new(Kitsune::default()) as Box<dyn EventDetector>),
    )];
    // One row per policy, one cell per row: Kitsune's.
    let cells: Vec<_> = run_rows(&detectors, &[&dataset], &rows)?.into_iter().flatten().collect();

    println!(
        "Kitsune on {}: {} eval packets, AUC {:.3}\n",
        dataset.info().name,
        cells[0].eval_items,
        cells[0].auc
    );
    println!(
        "{:<44} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "policy", "threshold", "acc", "prec", "rec", "f1"
    );
    for ((name, _), cell) in policies.iter().zip(&cells) {
        let m = &cell.metrics;
        println!(
            "{:<44} {:>10.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
            name, cell.threshold, m.accuracy, m.precision, m.recall, m.f1
        );
    }
    println!("\nSame scores, very different tables — the paper's Section VI point in one screen.");
    Ok(())
}
