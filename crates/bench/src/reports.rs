//! The report subcommands: the paper's tables, the four ablations and the
//! native-scenario matrix, each scoring report a projection of one
//! [`run_conditions`] grid. Each prints to stdout; only `scenarios` writes a
//! file.

use idsbench_bench::{paper_cell, standard_detectors};
use idsbench_core::json::{fmt_num, quoted};
use idsbench_core::metrics::FamilyOutcome;
use idsbench_core::preprocess::Split;
use idsbench_core::runner::{run_conditions, run_grid, DetectorFactory, EvalConfig, Experiment};
use idsbench_core::threshold::ThresholdPolicy;
use idsbench_core::{registry, report, Dataset, EventDetector};
use idsbench_datasets::{scenarios, ScenarioScale};
use idsbench_dnn::baselines::{DecisionTree, KNearest, LogisticRegression, NaiveBayes};
use idsbench_dnn::{Dnn, DnnConfig};
use idsbench_helad::Helad;
use idsbench_kitsune::Kitsune;
use idsbench_trafficgen::{registry as workloads, table4_models, ScenarioSpec, Tier};
use std::collections::BTreeMap;

/// Outcome of a report: `Err` carries the message printed before a
/// non-zero exit.
pub type Outcome = Result<(), String>;

/// Table I: NIDSs investigated, with inclusion/exclusion outcomes.
pub fn table1() -> Outcome {
    println!("## Table I — IDSs investigated\n");
    println!("{}", registry::render_table1());
    let included = registry::investigated_ids().iter().filter(|e| e.included()).count();
    println!(
        "\n{included} of {} investigated systems were usable out of the box.",
        registry::investigated_ids().len()
    );
    Ok(())
}

/// Table II: datasets used for evaluation.
pub fn table2() -> Outcome {
    println!("## Table II — datasets used for evaluation\n");
    println!("{}", registry::render_table2());
    Ok(())
}

/// Table III: datasets considered but not used.
pub fn table3() -> Outcome {
    println!("## Table III — datasets considered but not used for evaluation\n");
    println!("{}", registry::render_table3());
    Ok(())
}

/// `detectors` on every Table IV dataset at `scale` under each condition:
/// one [`run_conditions`] grid, and the number of datasets `S` — result
/// `(c·D + d)·S + s` is detector `d` on dataset `s` under condition `c`.
fn table4_grid(
    detectors: &[(String, DetectorFactory<'_>)],
    scale: ScenarioScale,
    conditions: &[EvalConfig],
) -> Result<(Vec<Experiment>, usize), String> {
    let scenarios = table4_models(scale);
    let datasets: Vec<&dyn Dataset> = scenarios.iter().map(|s| s as &dyn Dataset).collect();
    let grid =
        run_conditions(detectors, &datasets, conditions).map_err(|e| format!("grid: {e}"))?;
    Ok((grid, datasets.len()))
}

/// Table IV in the paper's layout, a paper-vs-measured comparison, the
/// diagnostics CSV, and — from the same grid — per-attack-family recall
/// per dataset: which families each IDS actually catches, the mechanism
/// behind every cell (Section V factor 1).
pub fn table4(scale: ScenarioScale, seed: u64) -> Outcome {
    let config = EvalConfig { dataset_seed: seed, ..Default::default() };
    let (experiments, sets) = table4_grid(&standard_detectors(), scale, &[config])?;

    println!("## Table IV — performance results for tested IDSs and datasets (measured)\n");
    println!("{}", report::render_table4(&experiments));

    println!("\n## Paper vs measured (F1 per cell)\n");
    println!("| IDS | Dataset | F1 (paper) | F1 (measured) | Acc (paper) | Acc (measured) |");
    println!("|---|---|---|---|---|---|");
    for experiment in &experiments {
        if let Some(paper) = paper_cell(&experiment.detector, &experiment.dataset) {
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.4} | {:.4} |",
                experiment.detector,
                experiment.dataset,
                paper.f1,
                experiment.metrics.f1,
                paper.accuracy,
                experiment.metrics.accuracy,
            );
        }
    }

    println!("\n## Diagnostics (CSV)\n");
    println!("{}", report::render_csv(&experiments));

    // The first detector's cells name the datasets in grid order.
    for name in experiments[..sets].iter().map(|e| &e.dataset) {
        println!("## {name} — per-family recall at the calibrated threshold\n");
        println!("{}", report::render_family_breakdown(name, &experiments));
    }
    Ok(())
}

/// Threshold sensitivity (Section IV-A step 4): each IDS's metrics as the
/// calibration rule's false-positive cap sweeps from strict to lax, one CSV
/// row per (IDS, dataset, cap). One grid of five conditions that differ
/// only in their cap, so each cell's one replay serves all five.
pub fn sweep(scale: ScenarioScale, seed: u64) -> Outcome {
    println!("detector,dataset,max_fpr,threshold,accuracy,precision,recall,f1");
    let caps = [0.01, 0.05, 0.10, 0.25, 0.50];
    let conditions = caps.map(|max_fpr| EvalConfig {
        policy: ThresholdPolicy::DetectionFirst { max_fpr },
        dataset_seed: seed,
        ..Default::default()
    });
    let detectors = standard_detectors();
    let (grid, sets) = table4_grid(&detectors, scale, &conditions)?;
    // The report is dataset-major, then detector, then cap: its `i`-th
    // (dataset, detector) pair is cell `d·S + s` of every condition's block.
    let block = detectors.len() * sets;
    for cell in (0..block).map(|i| (i % detectors.len()) * sets + i / detectors.len()) {
        for (cap, e) in caps.iter().zip(grid.iter().skip(cell).step_by(block)) {
            let m = &e.metrics;
            println!(
                "{},{},{cap:.2},{:.6e},{:.4},{:.4},{:.4},{:.4}",
                e.detector, e.dataset, e.threshold, m.accuracy, m.precision, m.recall, m.f1
            );
        }
    }
    Ok(())
}

/// Sampling ablation (Section IV-A step 1): Table IV metrics as the random
/// flow-sampling rate drops from 100% to 10%, one CSV row per (IDS,
/// dataset, rate). One grid of four conditions, one pipeline each.
pub fn sampling(scale: ScenarioScale, seed: u64) -> Outcome {
    println!("sampling_rate,detector,dataset,accuracy,precision,recall,f1,eval_items");
    let rates = [1.0, 0.5, 0.25, 0.1];
    let conditions = rates.map(|sampling_rate| {
        let mut config = EvalConfig { dataset_seed: seed, ..Default::default() };
        config.pipeline.sampling_rate = sampling_rate;
        config
    });
    let (grid, _) = table4_grid(&standard_detectors(), scale, &conditions)?;
    for (rate, block) in rates.iter().zip(grid.chunks(grid.len() / rates.len())) {
        for e in block {
            let m = &e.metrics;
            println!(
                "{rate:.2},{},{},{:.4},{:.4},{:.4},{:.4},{}",
                e.detector, e.dataset, m.accuracy, m.precision, m.recall, m.f1, e.eval_items
            );
        }
    }
    Ok(())
}

/// One ablation CSV row: two naming columns, then accuracy, precision,
/// recall, F1 and AUC.
fn csv_row(first: &str, second: &str, e: &Experiment) -> String {
    format!(
        "{first},{second},{:.4},{:.4},{:.4},{:.4},{:.4}",
        e.metrics.accuracy, e.metrics.precision, e.metrics.recall, e.metrics.f1, e.auc
    )
}

/// A grid row label and the factory of its detector.
fn variant(
    label: &str,
    make: impl Fn() -> Box<dyn EventDetector> + Send + Sync + 'static,
) -> (String, DetectorFactory<'static>) {
    (label.to_string(), Box::new(make))
}

/// Preprocessing ablation (Section V factor 5): the supervised DNN with and
/// without min-max scaling and class rebalancing, plus the original study's
/// classical-ML baselines under the standard pipeline. The trailing
/// `train_attacks` column counts the attack flows each row trained on (the
/// cell's [`TrainMix`](idsbench_core::runner::TrainMix)); a dataset whose
/// count is 0 gets a note on stderr, since no supervised model can learn an
/// attack class it never saw. One grid scores every variant, so
/// each dataset is prepared once for all of them.
pub fn preprocessing(scale: ScenarioScale, seed: u64) -> Outcome {
    let config = EvalConfig { dataset_seed: seed, ..Default::default() };
    println!("variant,dataset,accuracy,precision,recall,f1,auc,train_attacks");
    let variants = [
        variant("dnn", || Box::new(Dnn::default())),
        variant("dnn-no-normalize", || {
            Box::new(Dnn::new(DnnConfig { normalize: false, ..Default::default() }))
        }),
        variant("dnn-no-rebalance", || {
            Box::new(Dnn::new(DnnConfig { rebalance: false, ..Default::default() }))
        }),
        variant("logreg", || Box::new(LogisticRegression::default())),
        variant("naive-bayes", || Box::new(NaiveBayes::default())),
        variant("decision-tree", || Box::new(DecisionTree::default())),
        variant("knn", || Box::new(KNearest::default())),
    ];
    let (grid, sets) = table4_grid(&variants, scale, &[config])?;
    // The grid is detector-major; the report is dataset-major. Every cell
    // of a row trained on the same slice.
    for s in 0..sets {
        for (d, (label, _)) in variants.iter().enumerate() {
            let e = &grid[d * sets + s];
            println!("{},{}", csv_row(label, &e.dataset, e), e.train.attack_flows);
        }
    }
    for e in grid.iter().take(sets).filter(|e| e.train.attack_flows == 0) {
        eprintln!(
            "note: the {} training slice holds no attack flow; its supervised rows are not a \
             measurement",
            e.dataset
        );
    }
    Ok(())
}

/// Benign-baseline ablation (Section V factor 6 / VI-B-2): the leading-
/// slice anomaly detectors on Stratosphere with a clean benign prefix
/// versus the same site with the infection active from t = 0, both sites
/// scored by one [`run_grid`].
pub fn baseline(scale: ScenarioScale, seed: u64) -> Outcome {
    let config = EvalConfig { dataset_seed: seed, ..Default::default() };
    println!("detector,baseline,accuracy,precision,recall,f1,auc");
    let labels = ["clean-prefix", "contaminated"];
    let sites =
        [scenarios::stratosphere_iot(scale), scenarios::stratosphere_iot_contaminated(scale)];
    let datasets: Vec<&dyn Dataset> = sites.iter().map(|s| s as &dyn Dataset).collect();
    let detectors = [
        variant("Kitsune", || Box::new(Kitsune::default())),
        variant("HELAD", || Box::new(Helad::default())),
    ];
    let grid = run_grid(&detectors, &datasets, &config).map_err(|e| format!("grid: {e}"))?;
    // `run_grid` is detector-major: cell `d * 2 + s` is detector `d` on
    // site `s`. The report lists the clean-prefix rows first.
    for (s, label) in labels.iter().enumerate() {
        for d in 0..detectors.len() {
            let e = &grid[d * labels.len() + s];
            println!("{}", csv_row(&e.detector, label, e));
        }
    }
    eprintln!();
    for pair in grid.chunks_exact(labels.len()) {
        let (clean, contaminated) = (&pair[0], &pair[1]);
        eprintln!("{}", baseline_shift(&clean.detector, clean.metrics.f1, contaminated.metrics.f1));
    }
    Ok(())
}

/// How one detector's F1 moved when the clean benign prefix was removed:
/// clean → contaminated, the signed change, and its direction.
fn baseline_shift(detector: &str, clean: f64, contaminated: f64) -> String {
    let change = contaminated - clean;
    let direction = if change < 0.0 {
        "fell"
    } else if change > 0.0 {
        "rose"
    } else {
        "held"
    };
    format!(
        "{detector}: F1 {clean:.4} (clean prefix) → {contaminated:.4} (contaminated), \
         {change:+.4}, {direction}"
    )
}

/// One native scenario and each detector's cell on it.
pub type MatrixRow = (ScenarioSpec, Vec<Experiment>);

/// Every native trafficgen scenario (benign mix, floods, scans, staged
/// campaigns) scored by all four detectors in one [`run_conditions`] grid.
/// Condition `s` trains on scenario `s`'s attack-free lead
/// (`spec.warmup_secs`) under the default threshold policy, so results stay
/// comparable with `table4`, and row `s` keeps its cells on scenario `s`.
/// Conditions with equal leads share their rows: each scenario is realised
/// and scored once per distinct lead (all six are 30 s).
pub fn scenario_matrix(scale: ScenarioScale, seed: u64) -> Result<Vec<MatrixRow>, String> {
    let specs: Vec<ScenarioSpec> =
        workloads().into_iter().filter(|s| s.tier != Tier::Legacy).collect();
    let models: Vec<_> = specs.iter().map(|spec| spec.build(scale)).collect();
    let datasets: Vec<&dyn Dataset> = models.iter().map(|m| m as &dyn Dataset).collect();
    let lead = |spec: &ScenarioSpec| {
        let mut config = EvalConfig { dataset_seed: seed, ..Default::default() };
        config.pipeline.split = Split::BeforeSecs(spec.warmup_secs);
        config
    };
    let conditions: Vec<EvalConfig> = specs.iter().map(lead).collect();
    let (detectors, s_count) = (standard_detectors(), specs.len());
    let grid =
        run_conditions(&detectors, &datasets, &conditions).map_err(|e| format!("grid: {e}"))?;
    // Result `i` is scenario `i % S` under condition `i / (D·S)`, detector-major.
    let own = |(i, _): &(usize, Experiment)| i / (detectors.len() * s_count) == i % s_count;
    let mut cells = grid.into_iter().enumerate().filter(own).map(|(_, cell)| cell);
    Ok(specs
        .into_iter()
        .map(|spec| (spec, cells.by_ref().take(detectors.len()).collect()))
        .collect())
}

/// Greatest max-minus-min recall across detectors on any family of one
/// scenario (families at least two detectors report), with its name.
pub fn max_family_spread(cells: &[Experiment]) -> (f64, String) {
    let mut ranges: BTreeMap<&str, (f64, f64, usize)> = BTreeMap::new();
    for f in cells.iter().flat_map(|cell| &cell.family_recall) {
        let (lo, hi, n) = ranges.entry(&f.family).or_insert((f64::MAX, f64::MIN, 0));
        (*lo, *hi, *n) = (lo.min(f.recall), hi.max(f.recall), *n + 1);
    }
    ranges
        .into_iter()
        .filter(|(_, (_, _, n))| *n >= 2)
        .map(|(family, (lo, hi, _))| (hi - lo, family.to_string()))
        .fold((0.0, String::new()), |best, next| if next.0 > best.0 { next } else { best })
}

/// The scenario matrix: a human-readable table on stderr, one JSON object
/// on stdout, and the same object in `BENCH_scenarios.json`.
pub fn scenarios(scale: ScenarioScale, seed: u64) -> Outcome {
    let mut scenario_json = Vec::new();
    for (spec, cells) in scenario_matrix(scale, seed)? {
        eprintln!("## {} ({}) — {}", spec.name, spec.tier.name(), spec.summary);
        let mut detectors = Vec::new();
        for cell in &cells {
            let (detector, threshold, eval) = (&cell.detector, cell.threshold, cell.eval_packets);
            let rows: Vec<String> = cell
                .family_recall
                .iter()
                .map(|f| format!("{}={:.3}", f.family, f.recall))
                .collect();
            let rows = if rows.is_empty() { "(benign only)".to_string() } else { rows.join("  ") };
            eprintln!("  {detector:<10} thr={threshold:.4} eval={eval}  {rows}");
            let families: Vec<String> =
                cell.family_recall.iter().map(FamilyOutcome::to_json).collect();
            detectors.push(format!(
                "{{\"detector\":{},\"threshold\":{},\"eval_packets\":{eval},\"families\":[{}]}}",
                quoted(detector),
                fmt_num(threshold),
                families.join(",")
            ));
        }
        scenario_json.push(format!(
            "{{\"scenario\":{},\"tier\":{},\"warmup_secs\":{},\"detectors\":[{}]}}",
            quoted(spec.name),
            quoted(spec.tier.name()),
            fmt_num(spec.warmup_secs),
            detectors.join(",")
        ));
    }

    let scale_name = format!("{scale:?}").to_lowercase();
    let json = format!(
        "{{\"bench\":\"scenarios\",\"scale\":\"{scale_name}\",\"seed\":{seed},\"scenarios\":[{}]}}",
        scenario_json.join(",")
    );
    println!("{json}");
    std::fs::write("BENCH_scenarios.json", format!("{json}\n"))
        .map_err(|e| format!("write BENCH_scenarios.json: {e}"))
}

#[cfg(test)]
mod tests {
    use super::baseline_shift;

    #[test]
    fn baseline_shift_reads_the_direction_off_the_rows() {
        assert_eq!(
            baseline_shift("kitsune", 0.3523, 0.5523),
            "kitsune: F1 0.3523 (clean prefix) → 0.5523 (contaminated), +0.2000, rose"
        );
        assert_eq!(
            baseline_shift("helad", 0.8, 0.25),
            "helad: F1 0.8000 (clean prefix) → 0.2500 (contaminated), -0.5500, fell"
        );
        assert!(baseline_shift("helad", 0.5, 0.5).ends_with("+0.0000, held"));
    }
}
