//! Integration tests for the parallel grid runner and the table renderers,
//! exercising the same code path as the Table IV regeneration binary.

use idsbench::core::preprocess::Pipeline;
use idsbench::core::report;
use idsbench::core::runner::{run_grid, DetectorFactory, EvalConfig, TrainMix};
use idsbench::core::{registry, Dataset, EventDetector};
use idsbench::datasets::{scenarios, ScenarioScale};
use idsbench::dnn::baselines::DecisionTree;
use idsbench::slips::Slips;

#[test]
fn grid_produces_detector_major_table() {
    let a = scenarios::bot_iot(ScenarioScale::Tiny);
    let b = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let datasets: Vec<&dyn Dataset> = vec![&a, &b];
    let detectors: Vec<(String, DetectorFactory)> = vec![
        ("Slips".into(), Box::new(|| Box::new(Slips::default()) as Box<dyn EventDetector>)),
        (
            "DecisionTree".into(),
            Box::new(|| Box::new(DecisionTree::default()) as Box<dyn EventDetector>),
        ),
    ];
    let experiments = run_grid(&detectors, &datasets, &EvalConfig::default()).unwrap();
    assert_eq!(experiments.len(), 4);
    let cells: Vec<(&str, &str)> =
        experiments.iter().map(|e| (e.detector.as_str(), e.dataset.as_str())).collect();
    assert_eq!(
        cells,
        vec![
            ("Slips", "BoT IoT"),
            ("Slips", "Stratosphere"),
            ("DecisionTree", "BoT IoT"),
            ("DecisionTree", "Stratosphere"),
        ]
    );

    // The renderers accept the grid output directly.
    let table = report::render_table4(&experiments);
    assert!(table.contains("**IDS: Slips**"));
    assert!(table.contains("**IDS: DecisionTree**"));
    let csv = report::render_csv(&experiments);
    assert_eq!(csv.lines().count(), 5); // header + 4 cells
}

/// Every cell carries the composition of the slice it trained on, counted
/// once per row and equal to a standalone preparation of the same dataset
/// and seed. At Tiny, seed 42, CICIDS2017's attacks all start after the
/// training prefix, so its cells trained on no attack flow.
#[test]
fn grid_cells_carry_their_training_slice_mix() {
    let bot = scenarios::bot_iot(ScenarioScale::Tiny);
    let cic = scenarios::cicids2017(ScenarioScale::Tiny);
    let datasets: Vec<&dyn Dataset> = vec![&bot, &cic];
    let detectors: Vec<(String, DetectorFactory)> = vec![
        ("Slips".into(), Box::new(|| Box::new(Slips::default()) as Box<dyn EventDetector>)),
        (
            "DecisionTree".into(),
            Box::new(|| Box::new(DecisionTree::default()) as Box<dyn EventDetector>),
        ),
    ];
    let config = EvalConfig { dataset_seed: 42, ..Default::default() };
    let cells = run_grid(&detectors, &datasets, &config).unwrap();

    let pipeline = Pipeline::new(config.pipeline).unwrap();
    let standalone: Vec<TrainMix> = datasets
        .iter()
        .map(|dataset| {
            let packets = dataset.generate(config.dataset_seed);
            TrainMix::of(&pipeline.prepare_events(&dataset.info().name, packets).unwrap().train)
        })
        .collect();
    for (at, cell) in cells.iter().enumerate() {
        assert_eq!(
            cell.train,
            standalone[at % datasets.len()],
            "{} on {}",
            cell.detector,
            cell.dataset
        );
    }
    let [bot_mix, cic_mix] = [standalone[0], standalone[1]];
    assert!(bot_mix.attack_flows > 0 && bot_mix.attack_packets > 0, "{bot_mix:?}");
    assert_eq!((cic_mix.attack_flows, cic_mix.attack_packets), (0, 0), "{cic_mix:?}");
    assert!(cic_mix.flows > 0 && cic_mix.packets > 0, "{cic_mix:?}");
}

/// Table IV itself, pinned: the Tiny grid at seed 42 — the four systems
/// out of the box on the five scenarios — with every cell's calibrated
/// `threshold`, `f1` and `auc` folded bit for bit into one constant
/// (rotate-xor in result order, the fold `tests/score_digest.rs` uses).
/// The score digests pin what the detectors emit; this pins what the
/// runner makes of it — ranking, candidate sweep, tie-breaks, confusion
/// counts, ROC integration — so a change there cannot move the table
/// unnoticed. Gated to `linux-gnu` like the score digests, for the same
/// reason (the scores underneath are libm-sensitive); it runs in both
/// profiles, and CI's `test-release` lane runs it again on the vectorised
/// build. Re-pin only deliberately: the failure message prints the
/// constant and every cell.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn tiny_table4_is_bitwise_pinned() {
    const PINNED: u64 = 0x7263_3c23_2516_7c20;

    let scenarios = scenarios::table4_scenarios(ScenarioScale::Tiny);
    let datasets: Vec<&dyn Dataset> = scenarios.iter().map(|s| s as &dyn Dataset).collect();
    let config = EvalConfig { dataset_seed: 42, ..Default::default() };
    let cells = run_grid(&idsbench_bench::standard_detectors(), &datasets, &config).unwrap();
    assert_eq!(cells.len(), 20);

    let mut digest = 0u64;
    let mut table = String::new();
    for cell in &cells {
        for value in [cell.threshold, cell.metrics.f1, cell.auc] {
            digest = digest.rotate_left(7) ^ value.to_bits();
        }
        table.push_str(&format!(
            "\n  {} on {}: threshold {:e}, f1 {}, auc {}",
            cell.detector, cell.dataset, cell.threshold, cell.metrics.f1, cell.auc
        ));
    }
    assert_eq!(
        digest, PINNED,
        "Table IV digest {digest:#018x} != pinned {PINNED:#018x} — calibration, ranking or a \
         detector changed a cell:{table}"
    );
}

#[test]
fn registry_tables_render() {
    let t1 = registry::render_table1();
    assert_eq!(t1.lines().count(), 2 + 15, "15 investigated systems");
    assert!(t1.contains("Kitsune"));
    assert!(t1.contains("Used in Paper"));
    let t2 = registry::render_table2();
    assert_eq!(t2.lines().count(), 2 + 5, "5 selected datasets");
    let t3 = registry::render_table3();
    assert_eq!(t3.lines().count(), 2 + 11, "11 excluded dataset rows");
}

#[test]
fn scenario_names_align_with_registry_naming() {
    // Table IV rows must be producible for each scenario name used by the
    // bench harness.
    let names: Vec<String> = scenarios::table4_scenarios(ScenarioScale::Tiny)
        .iter()
        .map(|s| s.info().name.clone())
        .collect();
    assert_eq!(names, vec!["UNSW-NB15", "BoT IoT", "CICIDS2017", "Stratosphere", "Mirai"]);
}
