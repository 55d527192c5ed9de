//! Pins the Event API's headline guarantee: **exactly one
//! `ParsedPacket::parse` per packet across the whole pipeline** — the
//! feeder routes, the flow table assembles, and every detector extracts
//! features from the same parsed view, with no re-parse anywhere.
//!
//! The grid holds the same line one level up: `run_grid` realises and
//! parses each dataset **once per row**, not once per cell — its detectors
//! share the prepared input — and every cell is still what a standalone
//! `evaluate` of the same pair returns.
//!
//! The check reads the process-wide parse counter
//! (`ParsedPacket::parse_calls`), so everything lives in one `#[test]`
//! function: a second concurrent test in this binary would race the
//! counter. (Other test binaries are separate processes and cannot
//! interfere.)

use std::sync::atomic::{AtomicUsize, Ordering};

use idsbench::core::preprocess::Pipeline;
use idsbench::core::runner::{evaluate, replay, run_grid, EvalConfig};
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
    // one parse — the counters move once per row, not once per cell...
    let rows = [
        Counted { inner: scenarios::bot_iot(ScenarioScale::Tiny), generated: AtomicUsize::new(0) },
        Counted { inner: scenario, generated: AtomicUsize::new(0) },
    ];
    let datasets: Vec<&dyn Dataset> = rows.iter().map(|row| row as &dyn Dataset).collect();
    let per_row: u64 =
        rows.iter().map(|row| row.inner.generate(config.dataset_seed).len() as u64).sum();
    let detectors = idsbench_bench::standard_detectors();
    assert_eq!(detectors.len(), 4);
    let before = ParsedPacket::parse_calls();
    let cells = run_grid(&detectors, &datasets, &config).expect("grid");
    assert_eq!(
        ParsedPacket::parse_calls() - before,
        per_row,
        "a grid must parse each packet once per dataset, not once per cell"
    );
    for row in &rows {
        assert_eq!(
            row.generated.load(Ordering::SeqCst),
            1,
            "{} must be realised once for its whole row",
            row.info().name
        );
    }

    // ...and sharing changes nothing a cell reports: each one equals a
    // standalone evaluation of the same pair in every field but the two
    // wall-clock timings.
    assert_eq!(cells.len(), 8);
    for (at, cell) in cells.iter().enumerate() {
        let (name, factory) = &detectors[at / rows.len()];
        let mut alone = evaluate(factory().as_mut(), datasets[at % rows.len()], &config)
            .expect("standalone evaluation");
        alone.detector = name.clone();
        (alone.train_seconds, alone.score_seconds) = (cell.train_seconds, cell.score_seconds);
        assert_eq!(cell, &alone, "{name} on {} differs from its standalone run", cell.dataset);
    }
}
