//! The report subcommands: the paper's tables, the four ablations, and the
//! native-scenario matrix. Each prints to stdout; only `scenarios` writes a
//! file.

use idsbench_bench::{paper_cell, standard_detectors};
use idsbench_core::json::{fmt_num, quoted};
use idsbench_core::metrics::{ConfusionMatrix, FamilyOutcome};
use idsbench_core::preprocess::{Pipeline, PipelineConfig};
use idsbench_core::runner::{evaluate, replay, run_grid, EvalConfig, Experiment};
use idsbench_core::threshold::ThresholdPolicy;
use idsbench_core::{registry, report, Dataset, EventDetector};
use idsbench_datasets::{scenarios, ScenarioScale};
use idsbench_dnn::baselines::{DecisionTree, KNearest, LogisticRegression, NaiveBayes};
use idsbench_dnn::{Dnn, DnnConfig};
use idsbench_helad::Helad;
use idsbench_kitsune::Kitsune;
use idsbench_stream::{run_stream, ScenarioSource, StreamConfig, StreamReport};
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

/// Table IV in the paper's layout, a paper-vs-measured comparison, the
/// diagnostics CSV, and — from the same grid — per-attack-family recall
/// per dataset: which families each IDS actually catches, the mechanism
/// behind every cell (Section V factor 1).
pub fn table4(scale: ScenarioScale, seed: u64) -> Outcome {
    let scenarios = table4_models(scale);
    let datasets: Vec<&dyn Dataset> = scenarios.iter().map(|s| s as &dyn Dataset).collect();
    let config = EvalConfig { dataset_seed: seed, ..Default::default() };
    let experiments =
        run_grid(&standard_detectors(), &datasets, &config).map_err(|e| format!("grid: {e}"))?;

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

    for scenario in &scenarios {
        let name = &scenario.info().name;
        println!("## {name} — per-family recall at the calibrated threshold\n");
        println!("{}", report::render_family_breakdown(name, &experiments));
    }
    Ok(())
}

/// Threshold sensitivity (Section IV-A step 4): each IDS's metrics as the
/// calibration rule's false-positive cap sweeps from strict to lax, one CSV
/// row per (IDS, dataset, cap).
pub fn sweep(scale: ScenarioScale, seed: u64) -> Outcome {
    let caps = [0.01, 0.05, 0.10, 0.25, 0.50];
    let pipeline = Pipeline::new(PipelineConfig::default()).map_err(|e| e.to_string())?;
    println!("detector,dataset,max_fpr,threshold,accuracy,precision,recall,f1");
    for scenario in table4_models(scale) {
        let name = &scenario.info().name;
        let input = pipeline
            .prepare_events(name, scenario.generate(seed))
            .map_err(|e| format!("{name}: {e}"))?;
        for (detector, factory) in standard_detectors() {
            // One event replay per detector; every cap recalibrates the
            // same score stream.
            let replayed = replay(factory().as_mut(), &input)
                .map_err(|e| format!("{detector}/{name}: {e}"))?;
            let (scores, labels) = (&replayed.scores, &replayed.labels);
            for cap in caps {
                let threshold =
                    ThresholdPolicy::DetectionFirst { max_fpr: cap }.calibrate(scores, labels);
                let m = ConfusionMatrix::from_scores(scores, labels, threshold).metrics();
                println!(
                    "{detector},{name},{cap:.2},{threshold:.6e},{:.4},{:.4},{:.4},{:.4}",
                    m.accuracy, m.precision, m.recall, m.f1
                );
            }
        }
    }
    Ok(())
}

/// Sampling ablation (Section IV-A step 1): Table IV metrics as the random
/// flow-sampling rate drops from 100% to 10%, one CSV row per (IDS,
/// dataset, rate).
pub fn sampling(scale: ScenarioScale, seed: u64) -> Outcome {
    println!("sampling_rate,detector,dataset,accuracy,precision,recall,f1,eval_items");
    let scenarios = table4_models(scale);
    let datasets: Vec<&dyn Dataset> = scenarios.iter().map(|s| s as &dyn Dataset).collect();
    let detectors = standard_detectors();
    for rate in [1.0, 0.5, 0.25, 0.1] {
        let mut config = EvalConfig { dataset_seed: seed, ..Default::default() };
        config.pipeline.sampling_rate = rate;
        let experiments =
            run_grid(&detectors, &datasets, &config).map_err(|e| format!("grid: {e}"))?;
        for e in experiments {
            println!(
                "{rate:.2},{},{},{:.4},{:.4},{:.4},{:.4},{}",
                e.detector,
                e.dataset,
                e.metrics.accuracy,
                e.metrics.precision,
                e.metrics.recall,
                e.metrics.f1,
                e.eval_items
            );
        }
    }
    Ok(())
}

/// One ablation CSV row: two naming columns, then accuracy, precision,
/// recall, F1 and AUC.
fn print_row(first: &str, second: &str, e: &Experiment) {
    println!(
        "{first},{second},{:.4},{:.4},{:.4},{:.4},{:.4}",
        e.metrics.accuracy, e.metrics.precision, e.metrics.recall, e.metrics.f1, e.auc
    );
}

/// Preprocessing ablation (Section V factor 5): the supervised DNN with and
/// without min-max scaling and class rebalancing, plus the original study's
/// classical-ML baselines under the standard pipeline.
pub fn preprocessing(scale: ScenarioScale, seed: u64) -> Outcome {
    let config = EvalConfig { dataset_seed: seed, ..Default::default() };
    println!("variant,dataset,accuracy,precision,recall,f1,auc");
    for scenario in table4_models(scale) {
        let variants: Vec<(&str, Box<dyn EventDetector>)> = vec![
            ("dnn", Box::new(Dnn::default())),
            (
                "dnn-no-normalize",
                Box::new(Dnn::new(DnnConfig { normalize: false, ..Default::default() })),
            ),
            (
                "dnn-no-rebalance",
                Box::new(Dnn::new(DnnConfig { rebalance: false, ..Default::default() })),
            ),
            ("logreg", Box::new(LogisticRegression::default())),
            ("naive-bayes", Box::new(NaiveBayes::default())),
            ("decision-tree", Box::new(DecisionTree::default())),
            ("knn", Box::new(KNearest::default())),
        ];
        for (label, mut detector) in variants {
            let e = evaluate(detector.as_mut(), &scenario, &config)
                .map_err(|e| format!("{label}: {e}"))?;
            print_row(label, &e.dataset, &e);
        }
    }
    Ok(())
}

/// Benign-baseline ablation (Section V factor 6 / VI-B-2): the leading-
/// slice anomaly detectors on Stratosphere with a clean benign prefix
/// versus the same site with the infection active from t = 0.
pub fn baseline(scale: ScenarioScale, seed: u64) -> Outcome {
    let config = EvalConfig { dataset_seed: seed, ..Default::default() };
    println!("detector,baseline,accuracy,precision,recall,f1,auc");
    for (label, scenario) in [
        ("clean-prefix", scenarios::stratosphere_iot(scale)),
        ("contaminated", scenarios::stratosphere_iot_contaminated(scale)),
    ] {
        let detectors: Vec<Box<dyn EventDetector>> =
            vec![Box::new(Kitsune::default()), Box::new(Helad::default())];
        for mut detector in detectors {
            let e = evaluate(detector.as_mut(), &scenario, &config)
                .map_err(|e| format!("{label}: {e}"))?;
            print_row(&e.detector, label, &e);
        }
    }
    eprintln!(
        "\nExpected shape: both detectors lose most of their F1 when the clean prefix is removed."
    );
    Ok(())
}

/// One native scenario and each detector's name and stream report on it.
pub type MatrixRow = (ScenarioSpec, Vec<(String, StreamReport)>);

/// Every native trafficgen scenario (benign mix, floods, scans, staged
/// campaigns) streamed through all four detectors, one report per
/// detector. Each scenario runs as a stream — the generator is never
/// materialised: the leading attack-free span (`spec.warmup_secs`) trains
/// and calibrates, the rest is scored under the engine's default
/// calibrated threshold so results stay comparable with `table4`.
pub fn scenario_matrix(scale: ScenarioScale, seed: u64) -> Result<Vec<MatrixRow>, String> {
    let detectors = standard_detectors();
    let mut rows = Vec::new();
    for spec in workloads().into_iter().filter(|s| s.tier != Tier::Legacy) {
        let model = spec.build(scale);
        let mut cells = Vec::new();
        for (detector, factory) in &detectors {
            let (warmup, source) =
                ScenarioSource::new(model.as_ref(), seed).split_warmup_secs(spec.warmup_secs);
            let run = run_stream(factory.as_ref(), &warmup, source, &StreamConfig::default())
                .map_err(|e| format!("{}/{detector}: {e}", spec.name))?;
            cells.push((detector.clone(), run.report));
        }
        rows.push((spec, cells));
    }
    Ok(rows)
}

/// Greatest max-minus-min recall across detectors on any family of one
/// scenario (families at least two detectors report), with its name.
pub fn max_family_spread(cells: &[(String, StreamReport)]) -> (f64, String) {
    let mut ranges: BTreeMap<&str, (f64, f64, usize)> = BTreeMap::new();
    for f in cells.iter().flat_map(|(_, report)| &report.family_recall) {
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
        for (detector, report) in &cells {
            let rows: Vec<String> = report
                .family_recall
                .iter()
                .map(|f| format!("{}={:.3}", f.family, f.recall))
                .collect();
            eprintln!(
                "  {detector:<10} thr={:.4} eval={}  {}",
                report.threshold,
                report.eval_packets,
                if rows.is_empty() { "(benign only)".to_string() } else { rows.join("  ") }
            );
        }

        let detectors: Vec<String> = cells
            .iter()
            .map(|(detector, report)| {
                let families: Vec<String> =
                    report.family_recall.iter().map(FamilyOutcome::to_json).collect();
                format!(
                    "{{\"detector\":{},\"threshold\":{},\"eval_packets\":{},\"families\":[{}]}}",
                    quoted(detector),
                    fmt_num(report.threshold),
                    report.eval_packets,
                    families.join(",")
                )
            })
            .collect();
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
