//! Pins the Event API's headline guarantee: **exactly one
//! `ParsedPacket::parse` per packet across the whole pipeline** — the
//! feeder routes, the flow table assembles, and every detector extracts
//! features from the same parsed view, with no re-parse anywhere.
//!
//! The grid holds the same line one level up: `run_grid` realises and
//! parses each dataset **once**, not once per cell — its detectors share
//! the prepared input — and every cell is still what a standalone
//! `evaluate` of the same pair returns. `run_rows` keys each row, one
//! dataset under one condition, by (dataset, seed, pipeline): rows that
//! differ only in their threshold policy share the key's one realisation
//! and each detector's one replay on it.
//!
//! The check reads the process-wide parse counter
//! (`ParsedPacket::parse_calls`), so everything lives in one `#[test]`
//! function: a second concurrent test in this binary would race the
//! counter. (Other test binaries are separate processes and cannot
//! interfere.)

use std::sync::atomic::{AtomicUsize, Ordering};

use idsbench::core::preprocess::{Pipeline, Split};
use idsbench::core::runner::{
    evaluate, replay, run_grid, run_rows, DetectorFactory, EvalConfig, Experiment,
};
use idsbench::core::threshold::ThresholdPolicy;
use idsbench::core::{Dataset, DatasetInfo, EventDetector, LabeledPacket};
use idsbench::datasets::{scenarios, ScenarioScale};
use idsbench::kitsune::Kitsune;
use idsbench::net::ParsedPacket;
use idsbench::slips::Slips;
use idsbench::stream::{run_stream, ScenarioSource, StreamConfig};

/// A dataset that counts how often it is realised.
struct Counted<D> {
    inner: D,
    generated: AtomicUsize,
}

impl<D: Dataset> Dataset for Counted<D> {
    fn info(&self) -> &DatasetInfo {
        self.inner.info()
    }

    fn generate(&self, seed: u64) -> Vec<LabeledPacket> {
        self.generated.fetch_add(1, Ordering::SeqCst);
        self.inner.generate(seed)
    }
}

#[test]
fn exactly_one_parse_per_packet_across_the_pipeline() {
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let config = EvalConfig::default();

    // Dataset generation synthesizes frames; it must not decode them.
    let before = ParsedPacket::parse_calls();
    let packets = scenario.generate(config.dataset_seed);
    let total = packets.len() as u64;
    assert!(total > 0);
    assert_eq!(
        ParsedPacket::parse_calls() - before,
        0,
        "generators must build packets without parsing them"
    );

    // The counter is a process-wide total: parses made on another thread
    // count once that thread is joined.
    let before = ParsedPacket::parse_calls();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for labeled in &packets[..10] {
                let _ = ParsedPacket::parse(&labeled.packet);
            }
        });
    });
    assert_eq!(
        ParsedPacket::parse_calls() - before,
        10,
        "parses on a spawned thread must reach parse_calls"
    );

    // Batch preprocessing parses each packet exactly once...
    let pipeline = Pipeline::new(config.pipeline).expect("valid default pipeline");
    let before = ParsedPacket::parse_calls();
    let input = pipeline.prepare_events("strat", packets).expect("preprocess");
    assert_eq!(
        ParsedPacket::parse_calls() - before,
        total,
        "prepare_events must parse each packet exactly once"
    );

    // ...and no detector re-parses during replay — neither the flow-event
    // path (Slips: flow table + eviction events) nor the packet path
    // (Kitsune: AfterImage features).
    let before = ParsedPacket::parse_calls();
    replay(&mut Slips::default(), &input).expect("slips replay");
    assert_eq!(
        ParsedPacket::parse_calls() - before,
        0,
        "flow-event replay must reuse the parsed views"
    );
    let before = ParsedPacket::parse_calls();
    replay(&mut Kitsune::default(), &input).expect("kitsune replay");
    assert_eq!(
        ParsedPacket::parse_calls() - before,
        0,
        "packet-event replay must reuse the parsed views"
    );

    // The sharded streaming executor holds the same invariant: the warmup
    // slice is parsed once (shared across shards, not per shard) and each
    // fed packet once in the feeder, regardless of shard count.
    for (factory, shards) in [
        (
            &(|| Box::new(Kitsune::default()) as Box<dyn EventDetector>)
                as &(dyn Fn() -> Box<dyn EventDetector> + Sync),
            2usize,
        ),
        (&(|| Box::new(Slips::default()) as Box<dyn EventDetector>), 1usize),
    ] {
        let (warmup, source) =
            ScenarioSource::new(&scenario, config.dataset_seed).split_warmup(0.3);
        // Generation is seeded: the lazy source carries `total - warmup`
        // packets, so warmup + eval together equal the realisation above.
        let expected = total;
        let before = ParsedPacket::parse_calls();
        run_stream(factory, &warmup, source, &StreamConfig { shards, ..Default::default() })
            .expect("streaming run");
        assert_eq!(
            ParsedPacket::parse_calls() - before,
            expected,
            "streaming must parse warmup + eval packets exactly once ({shards} shards)"
        );
    }

    // The grid: four detectors share each dataset's one realisation and
    // one parse — the counters move once per dataset, not once per cell...
    let sets = [
        Counted { inner: scenarios::bot_iot(ScenarioScale::Tiny), generated: AtomicUsize::new(0) },
        Counted { inner: scenario, generated: AtomicUsize::new(0) },
    ];
    let datasets: Vec<&dyn Dataset> = sets.iter().map(|set| set as &dyn Dataset).collect();
    let one_seed: u64 =
        sets.iter().map(|set| set.inner.generate(config.dataset_seed).len() as u64).sum();
    let detectors = idsbench_bench::standard_detectors();
    assert_eq!(detectors.len(), 4);
    let before = ParsedPacket::parse_calls();
    let cells = run_grid(&detectors, &datasets, &config).expect("grid");
    assert_eq!(
        ParsedPacket::parse_calls() - before,
        one_seed,
        "a grid must parse each packet once per dataset, not once per cell"
    );
    for set in &sets {
        assert_eq!(
            set.generated.load(Ordering::SeqCst),
            1,
            "{} must be realised once for all its cells",
            set.info().name
        );
    }

    // ...and sharing changes nothing a cell reports: each one equals a
    // standalone evaluation of the same pair in every field but the two
    // wall-clock timings.
    let standalone = |cell: &Experiment, d: usize, s: usize, condition: &EvalConfig| {
        let (name, factory) = &detectors[d];
        let mut alone =
            evaluate(factory().as_mut(), datasets[s], condition).expect("standalone evaluation");
        alone.detector = name.clone();
        (alone.train_seconds, alone.score_seconds) = (cell.train_seconds, cell.score_seconds);
        assert_eq!(cell, &alone, "{name} on {} under {condition:?} differs", cell.dataset);
    };
    assert_eq!(cells.len(), 8);
    for (at, cell) in cells.iter().enumerate() {
        standalone(cell, at / sets.len(), at % sets.len(), &config);
    }

    // Rows hold the line per row key, not per row: two caps at one seed
    // share a key, a second seed makes keys of its own, and each (detector,
    // key) builds one detector and replays once for every row of the key...
    let seeds = [config.dataset_seed, config.dataset_seed + 1];
    let condition = |max_fpr, dataset_seed| EvalConfig {
        policy: ThresholdPolicy::DetectionFirst { max_fpr },
        dataset_seed,
        ..config
    };
    let conditions =
        [condition(0.25, seeds[0]), condition(0.10, seeds[0]), condition(0.25, seeds[1])];
    let grid_rows: Vec<(usize, EvalConfig)> =
        conditions.iter().flat_map(|&c| (0..sets.len()).map(move |s| (s, c))).collect();
    let two_seeds: u64 =
        one_seed + sets.iter().map(|set| set.inner.generate(seeds[1]).len() as u64).sum::<u64>();
    let built = AtomicUsize::new(0);
    let counting: Vec<(String, DetectorFactory)> = detectors
        .iter()
        .map(|(name, factory)| {
            let built = &built;
            let counted: DetectorFactory = Box::new(move || {
                built.fetch_add(1, Ordering::SeqCst);
                factory()
            });
            (name.clone(), counted)
        })
        .collect();
    let reset = || {
        built.store(0, Ordering::SeqCst);
        for set in &sets {
            set.generated.store(0, Ordering::SeqCst);
        }
    };
    reset();
    let before = ParsedPacket::parse_calls();
    let grid = run_rows(&counting, &datasets, &grid_rows).expect("row grid");
    assert_eq!(
        ParsedPacket::parse_calls() - before,
        two_seeds,
        "a row grid must parse each packet once per (dataset, seed), not once per row"
    );
    for set in &sets {
        assert_eq!(
            set.generated.load(Ordering::SeqCst),
            seeds.len(),
            "{} must be realised once per seed",
            set.info().name
        );
    }
    assert_eq!(
        built.load(Ordering::SeqCst),
        detectors.len() * sets.len() * seeds.len(),
        "a detector must be built once per (detector, key), not once per row"
    );

    // ...and every result is a standalone evaluation of its pair under its
    // own row's condition, the two wall-clock timings aside. The rows under
    // `config` are the grid above, checked against standalone runs there.
    assert_eq!(conditions[0], config);
    assert_eq!(grid.len(), grid_rows.len());
    for (&(s, condition), row) in grid_rows.iter().zip(&grid) {
        for (d, cell) in row.iter().enumerate() {
            if condition == config {
                let mut alone = cells[d * sets.len() + s].clone();
                (alone.train_seconds, alone.score_seconds) =
                    (cell.train_seconds, cell.score_seconds);
                assert_eq!(cell, &alone, "{} on {} under config differs", alone.detector, s);
            } else {
                standalone(cell, d, s, &condition);
            }
        }
    }

    // Rows need not form a product, as a matrix of scenarios each trained
    // on its own lead does not: each dataset on one row of its own, under
    // its own `Split::BeforeSecs`, is realised and parsed once, builds one
    // detector per cell, and every cell is a standalone evaluation of its
    // pair under its row's lead.
    let lead = |s: usize, secs: f64| {
        let mut condition = config;
        condition.pipeline.split = Split::BeforeSecs(secs);
        (s, condition)
    };
    let own_leads = [lead(0, 5.0), lead(1, 10.0)];
    reset();
    let before = ParsedPacket::parse_calls();
    let grid = run_rows(&counting, &datasets, &own_leads).expect("lead grid");
    assert_eq!(ParsedPacket::parse_calls() - before, one_seed, "each dataset parsed once");
    for set in &sets {
        assert_eq!(set.generated.load(Ordering::SeqCst), 1, "{} realised once", set.info().name);
    }
    assert_eq!(built.load(Ordering::SeqCst), detectors.len() * own_leads.len());
    for (&(s, condition), row) in own_leads.iter().zip(&grid) {
        assert_eq!(row.len(), detectors.len());
        for (d, cell) in row.iter().enumerate() {
            assert!(cell.train.packets > 0 && cell.eval_packets > 0, "both sides of the lead");
            standalone(cell, d, s, &condition);
        }
    }
}
