//! Streaming ↔ batch parity: the invariant that makes streaming results
//! citable next to batch results.
//!
//! Batch `evaluate()` and the sharded streaming executor are two drivers of
//! the same `EventDetector` contract over the same parse-once event stream,
//! so a single-shard streaming run must reproduce the batch pipeline
//! *exactly* — same per-event scores (bitwise), hence the same calibrated
//! threshold, alert decisions, and metrics. That now includes the
//! flow-event systems (Slips, DNN): their flow-eviction events fire at the
//! same flow-table moments in both drivers. Multi-shard runs route by the
//! canonical flow key, which keeps every flow whole on one shard, so a
//! detector whose state is all per-flow (DNN) scores the same at every
//! shard count; the autoscaled bursty replay below pins that for the DNN.
//!
//! Kitsune's and HELAD's features are AfterImage rows, whose state is keyed
//! by host, channel and socket. `run_stream` extracts them once, in feed
//! order, on the feeder, and each shard scores the rows it is handed, so
//! at any shard count (autoscaled too) their features equal the
//! single-shard features; a model whose score is a function of its row
//! alone scores the same multiset everywhere, which
//! `row_scores_are_one_multiset_at_every_shard_count` pins. Their scores
//! still differ at N > 1: KitNET's input normaliser and HELAD's score
//! windows are per shard. `run_fabric` ships bare views, and its workers
//! still extract per shard. Slips keeps per-profile state, which a
//! multi-shard run splits too. Routing is deterministic, so every
//! multi-shard run is reproducible.

use std::collections::HashSet;

use idsbench::core::metrics::Assessment;
use idsbench::core::preprocess::EventInput;
use idsbench::core::preprocess::Pipeline;
use idsbench::core::runner::{evaluate, replay, EvalConfig};
use idsbench::core::{
    CoreError, Dataset, Detector, Event, EventDetector, InputFormat, LabeledPacket, Model,
    ParsedView, Scoring, TrainRows, TrainView,
};
use idsbench::datasets::{scenarios, ScenarioScale};
use idsbench::dnn::Dnn;
use idsbench::flow::{FlowKey, FlowTableConfig};
use idsbench::helad::Helad;
use idsbench::kitsune::Kitsune;
use idsbench::net::{ParsedPacket, Timestamp};
use idsbench::slips::Slips;
use idsbench::stream::{
    run_stream, AutoscalePolicy, BoundedSource, PacketSource, ScenarioSource, StreamConfig,
    StreamRun, ThresholdMode, VecSource,
};

fn kitsune() -> Box<dyn EventDetector> {
    Box::new(Kitsune::default())
}

/// A shareable detector factory, as `run_stream` consumes them.
type Factory = Box<dyn Fn() -> Box<dyn EventDetector> + Sync>;

/// The batch driver's raw score stream for this detector on Stratosphere
/// Tiny under the default config.
fn batch_scores(detector: &mut dyn EventDetector) -> Vec<f64> {
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let config = EvalConfig::default();
    let pipeline = Pipeline::new(config.pipeline).expect("valid default pipeline");
    let input = pipeline
        .prepare_events(&scenario.info().name, scenario.generate(config.dataset_seed))
        .expect("preprocess");
    replay(detector, &input).expect("batch replay").scores
}

/// A streaming run over the identical warmup/eval split.
fn stream_run(
    factory: &(dyn Fn() -> Box<dyn EventDetector> + Sync),
    seed: u64,
    shards: usize,
) -> StreamRun {
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let (warmup, source) = ScenarioSource::new(&scenario, seed).split_warmup(0.3);
    run_stream(factory, &warmup, source, &StreamConfig { shards, ..Default::default() })
        .expect("streaming run")
}

fn assert_bitwise(name: &str, stream: &[f64], batch: &[f64]) {
    assert_eq!(stream.len(), batch.len(), "{name}: event counts diverged");
    for (i, (s, b)) in stream.iter().zip(batch).enumerate() {
        assert_eq!(
            s.to_bits(),
            b.to_bits(),
            "{name} score {i} diverged: streaming {s} vs batch {b}"
        );
    }
}

/// The acceptance invariant, for every evaluated system: packet-event
/// detectors and flow-event detectors alike reproduce batch evaluation
/// bitwise through a single-shard stream.
#[test]
fn single_shard_scores_match_batch_bitwise_for_all_four_systems() {
    let factories: Vec<(&str, Factory)> = vec![
        ("Kitsune", Box::new(|| Box::new(Kitsune::default()) as Box<dyn EventDetector>)),
        ("HELAD", Box::new(|| Box::new(Helad::default()) as Box<dyn EventDetector>)),
        ("DNN", Box::new(|| Box::new(Dnn::default()) as Box<dyn EventDetector>)),
        ("Slips", Box::new(|| Box::new(Slips::default()) as Box<dyn EventDetector>)),
    ];
    for (name, factory) in &factories {
        let batch = batch_scores(factory().as_mut());
        assert!(!batch.is_empty(), "{name}: batch produced no scores");
        let run = stream_run(factory.as_ref(), EvalConfig::default().dataset_seed, 1);
        assert_bitwise(name, &run.scores, &batch);
    }
}

#[test]
fn flow_event_detectors_score_flows_not_packets() {
    let run = stream_run(
        &|| Box::new(Slips::default()) as Box<dyn EventDetector>,
        EvalConfig::default().dataset_seed,
        1,
    );
    assert!(run.report.eval_items > 0, "Slips must score flow events");
    assert!(
        run.report.eval_items < run.report.eval_packets,
        "flow events must be fewer than packets ({} vs {})",
        run.report.eval_items,
        run.report.eval_packets
    );
}

/// A packet detector that breaks the one-score-per-packet contract: it
/// scores by wire length but returns `None` on every fifth packet.
#[derive(Debug, Default)]
struct SkipsEveryFifth {
    seen: usize,
}

impl EventDetector for SkipsEveryFifth {
    fn name(&self) -> &str {
        "skips-every-fifth"
    }

    fn input_format(&self) -> InputFormat {
        InputFormat::Packets
    }

    fn fit(&mut self, _train: &TrainView) {}

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        match event {
            Event::Packet(view) => {
                self.seen += 1;
                (self.seen % 5 != 0).then(|| view.packet.packet.wire_len() as f64)
            }
            Event::FlowEvicted(_) => None,
        }
    }
}

/// How [`MiscountsFlows`] breaks the one-score-per-eviction contract.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowFault {
    /// Also scores every packet event.
    ScoresPackets,
    /// Withholds the score of the eviction with this index (in delivery
    /// order); an index past the last eviction keeps the contract.
    DropsEviction(usize),
}

/// A flow detector that scores evictions by packet count, broken by `fault`.
#[derive(Debug)]
struct MiscountsFlows {
    fault: FlowFault,
    evictions: usize,
}

impl EventDetector for MiscountsFlows {
    fn name(&self) -> &str {
        "miscounts-flows"
    }

    fn input_format(&self) -> InputFormat {
        InputFormat::Flows
    }

    fn fit(&mut self, _train: &TrainView) {}

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        match event {
            Event::Packet(_) => (self.fault == FlowFault::ScoresPackets).then_some(0.0),
            Event::FlowEvicted(flow) => {
                let index = self.evictions;
                self.evictions += 1;
                (self.fault != FlowFault::DropsEviction(index))
                    .then(|| flow.record.total_packets() as f64)
            }
        }
    }
}

/// Runs `fault`'s detector through both drivers on Stratosphere Tiny at
/// the default configs; both must fail. Returns (batch, stream) errors.
fn both_drivers_fail(fault: FlowFault) -> [CoreError; 2] {
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let config = EvalConfig::default();
    let factory =
        move || Box::new(MiscountsFlows { fault, evictions: 0 }) as Box<dyn EventDetector>;
    let batch = evaluate(factory().as_mut(), &scenario, &config)
        .expect_err("the batch driver must refuse a miscounted burst");
    let (warmup, source) = ScenarioSource::new(&scenario, config.dataset_seed).split_warmup(0.3);
    let stream = run_stream(&factory, &warmup, source, &StreamConfig::default())
        .expect_err("the stream driver must refuse a miscounted burst");
    [batch, stream]
}

/// A missing score is an error in both drivers, never a label shift: the
/// first 32-packet burst comes back six scores short, and that burst fails
/// the run, naming the detector and the counts. The flow path fails the
/// same way in both drivers: packet scores from a flow detector, a dropped
/// eviction score, and a dropped score in the end-of-stream flush.
#[test]
fn a_missing_packet_score_fails_both_drivers() {
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let config = EvalConfig::default();
    let batch = evaluate(&mut SkipsEveryFifth::default(), &scenario, &config)
        .expect_err("the batch driver must refuse a short burst");
    let (warmup, source) = ScenarioSource::new(&scenario, config.dataset_seed).split_warmup(0.3);
    let factory = || Box::new(SkipsEveryFifth::default()) as Box<dyn EventDetector>;
    let stream = run_stream(&factory, &warmup, source, &StreamConfig::default())
        .expect_err("the stream driver must refuse a short burst");
    for err in [batch, stream] {
        assert!(
            matches!(
                &err,
                CoreError::ScoreCountMismatch { detector, expected: 32, got: 26 }
                    if detector == "skips-every-fifth"
            ),
            "{err}"
        );
        assert!(err.to_string().contains("\"skips-every-fifth\" returned 26 scores for 32"));
    }

    // The last eviction of the clean run falls in the flush.
    let pipeline = Pipeline::new(config.pipeline).expect("valid default pipeline");
    let input = pipeline
        .prepare_events(&scenario.info().name, scenario.generate(config.dataset_seed))
        .expect("preprocess");
    let mut clean = MiscountsFlows { fault: FlowFault::DropsEviction(usize::MAX), evictions: 0 };
    let evictions = replay(&mut clean, &input).expect("the clean detector keeps the contract");
    let last = evictions.eval_flows - 1;
    for (fault, want) in [
        (FlowFault::ScoresPackets, (0, 32)),
        (FlowFault::DropsEviction(0), (1, 0)),
        (FlowFault::DropsEviction(last), (9, 8)),
    ] {
        let counts = both_drivers_fail(fault).map(|err| match err {
            CoreError::ScoreCountMismatch { detector, expected, got } => (detector, expected, got),
            other => panic!("{fault:?}: expected ScoreCountMismatch, got {other}"),
        });
        assert_eq!(counts[0], counts[1], "{fault:?}: the drivers disagree");
        assert_eq!(counts[0], ("miscounts-flows".to_string(), want.0, want.1), "{fault:?}");
    }
}

/// Both drivers build their verdict with one constructor from bitwise-equal
/// scores, so a single-shard stream's assessment equals the batch cell's
/// exactly: threshold, metrics, AUC, counts and families.
#[test]
fn single_shard_report_assessment_equals_batch_experiment() {
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let config = EvalConfig::default();
    let batch = evaluate(&mut Kitsune::default(), &scenario, &config).expect("batch evaluate");

    let run = stream_run(&kitsune, config.dataset_seed, 1);
    assert_eq!(run.report.assessment, batch.assessment);
}

#[test]
fn slips_report_assessment_equals_batch_experiment() {
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let config = EvalConfig::default();
    let batch = evaluate(&mut Slips::default(), &scenario, &config).expect("batch evaluate");

    let run = stream_run(
        &|| Box::new(Slips::default()) as Box<dyn EventDetector>,
        config.dataset_seed,
        1,
    );
    assert_eq!(run.report.assessment, batch.assessment);
}

/// Calibrated and fixed-threshold runs summarise their events through the
/// same fold, so a fixed run at the threshold a calibrated run resolved
/// reports the same detection figures — for packet-event (Kitsune) and
/// flow-event (Slips) detectors, on one shard and on two. Only the AUC
/// tells the modes apart: it needs the recorded score set.
#[test]
fn calibrated_and_fixed_reports_agree_at_the_same_threshold() {
    let factories: Vec<(&str, Factory)> = vec![
        ("Kitsune", Box::new(|| Box::new(Kitsune::default()) as Box<dyn EventDetector>)),
        ("Slips", Box::new(|| Box::new(Slips::default()) as Box<dyn EventDetector>)),
    ];
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    for (name, factory) in &factories {
        for shards in [1, 2] {
            let report = |threshold| {
                let (warmup, source) = ScenarioSource::new(&scenario, 42).split_warmup(0.3);
                let config = StreamConfig { shards, threshold, ..Default::default() };
                run_stream(factory.as_ref(), &warmup, source, &config)
                    .expect("streaming run")
                    .report
            };
            let calibrated = report(ThresholdMode::default());
            let fixed = report(ThresholdMode::Fixed(calibrated.threshold));
            let run = format!("{name} on {shards} shard(s)");
            assert!(calibrated.eval_items > 0, "{run}: nothing scored");
            assert!(calibrated.auc.is_finite(), "{run}: calibrated AUC {}", calibrated.auc);
            assert!(fixed.auc.is_nan(), "{run}: fixed AUC {}", fixed.auc);
            let fixed_with_auc = Assessment { auc: calibrated.auc, ..fixed.assessment.clone() };
            assert_eq!(fixed_with_auc, calibrated.assessment, "{run}: assessment");
            assert_eq!(fixed.windows, calibrated.windows, "{run}: windows");
        }
    }
}

#[test]
fn multi_shard_runs_are_deterministic_and_flow_consistent() {
    let first = stream_run(&kitsune, 0, 4);
    let second = stream_run(&kitsune, 0, 4);

    // Determinism: identical routing and per-shard state ⇒ identical scores.
    assert_eq!(first.scores, second.scores);
    assert_eq!(first.report.metrics, second.report.metrics);

    // Flow consistency: every canonical flow lives whole on one shard, so
    // the per-shard distinct-flow counts add up to the global flow count.
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let (_, mut source) = ScenarioSource::new(&scenario, 0).split_warmup(0.3);
    let mut global_flows: HashSet<FlowKey> = HashSet::new();
    while let Some(lp) = source.next_packet().expect("source") {
        if let Ok(parsed) = ParsedPacket::parse(&lp.packet) {
            if let Some(key) = FlowKey::from_packet(&parsed) {
                global_flows.insert(key.canonical().0);
            }
        }
    }
    let sharded_flows: usize = first.report.shard_stats.iter().map(|s| s.flows).sum();
    assert_eq!(sharded_flows, global_flows.len(), "a flow was split across shards");
    assert!(
        first.report.shard_stats.iter().filter(|s| s.packets > 0).count() > 1,
        "the Tiny trace must spread across more than one shard"
    );
}

/// Bursty operational traffic, StealthCup-style: quiet benign phases
/// alternate with attack bursts, one traffic-second per phase — the same
/// generator `idsbench check`'s autoscale and fabric gates replay, so the
/// pinned invariant and the gates exercise identical traffic.
fn bursty_sessions(phases: u64) -> Vec<LabeledPacket> {
    idsbench_bench::workload::bursty_trace(phases, 8, 120, 0, |phase| phase % 2 == 1)
}

/// The DNN and a policy the bursty trace trips in both directions.
fn autoscale_fixture() -> (impl Fn() -> Box<dyn EventDetector> + Sync, StreamConfig) {
    let factory = || Box::new(Dnn::default()) as Box<dyn EventDetector>;
    let config = StreamConfig {
        shards: 1,
        window_secs: 1.0,
        autoscale: Some(AutoscalePolicy {
            min_shards: 1,
            max_shards: 3,
            scale_up_pps: 400.0,
            scale_down_pps: 150.0,
            cooldown_windows: 0,
            vnodes: 16,
        }),
        ..Default::default()
    };
    (factory, config)
}

/// The elastic-sharding acceptance invariant, on a real flow-format system:
/// a bursty replay with autoscaling enabled — scale-ups mid-burst,
/// scale-downs in the quiet phases, flow state migrating every time — emits
/// the bitwise-identical sorted per-flow score multiset of the single-shard
/// run, with the pool verifiably moving in both directions.
#[test]
fn autoscaled_bursty_replay_is_score_parity_with_single_shard() {
    let packets = bursty_sessions(10);
    let split = packets.partition_point(|lp| lp.packet.ts < Timestamp::from_micros(2_000_000));
    let (warmup, eval) = packets.split_at(split);
    let (factory, auto_config) = autoscale_fixture();

    let single = run_stream(
        &factory,
        warmup,
        VecSource::new("bursty", eval.to_vec()),
        &StreamConfig { window_secs: 1.0, ..Default::default() },
    )
    .expect("single-shard run");
    assert!(single.report.eval_items > 0, "flow events must be scored");
    assert!(single.report.scale_events.is_empty());

    // The autoscaled run pulls through a BoundedSource, as a live deployment
    // would decouple capture from scoring.
    let auto = run_stream(
        &factory,
        warmup,
        BoundedSource::spawn(VecSource::new("bursty", eval.to_vec()), 256),
        &auto_config,
    )
    .expect("autoscaled run");

    let ups = auto.report.scale_events.iter().filter(|e| e.is_scale_up()).count();
    let downs = auto.report.scale_events.iter().filter(|e| e.is_scale_down()).count();
    assert!(ups >= 1, "attack bursts must scale the pool up: {:?}", auto.report.scale_events);
    assert!(downs >= 1, "quiet phases must scale the pool down");
    assert!(
        auto.report.scale_events.iter().any(|e| e.migrated_flows > 0),
        "rebalances must migrate flow state"
    );

    let mut expected = single.scores.clone();
    let mut got = auto.scores.clone();
    expected.sort_by(f64::total_cmp);
    got.sort_by(f64::total_cmp);
    assert_eq!(expected.len(), got.len(), "autoscaling changed the flow-event count");
    for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(
            e.to_bits(),
            g.to_bits(),
            "sorted flow score {i} diverged: single-shard {e} vs autoscaled {g}"
        );
    }
}

/// Scores each packet by a weighted sum over its AfterImage row and nothing
/// else: a score that is a function of the row alone.
#[derive(Debug)]
struct RowScore(Vec<f64>);

impl Model for RowScore {
    const NAME: &'static str = "row-score";
    const SCORING: Scoring<Self> =
        Scoring::Features { stage: RowScore::stage, score: RowScore::score };
    type Config = ();
    fn fit(_config: &(), _train: &TrainView, _rows: &mut TrainRows<'_>) -> Self {
        RowScore(Vec::new())
    }
}

impl RowScore {
    fn stage(&mut self, _packet: &ParsedPacket, row: &[f64]) {
        self.0.push(row.iter().enumerate().map(|(i, x)| (i + 1) as f64 * x).sum());
    }

    fn score(&mut self, out: &mut Vec<f64>) {
        out.append(&mut self.0);
    }
}

/// The ordered-stage invariant: `run_stream` extracts every AfterImage row
/// on the feeder in feed order, so a row-pure model scores the batch
/// replay's multiset at 1, 2 and 4 shards and in an autoscaled run, on a
/// trace whose hosts' flows the ring spreads across shards (bit for bit,
/// and in order, at one shard).
#[test]
fn row_scores_are_one_multiset_at_every_shard_count() {
    let packets = bursty_sessions(10);
    let split = packets.partition_point(|lp| lp.packet.ts < Timestamp::from_micros(2_000_000));
    let (warmup, eval) = packets.split_at(split);
    let factory = || Box::new(Detector::<RowScore>::default()) as Box<dyn EventDetector>;
    let views = |packets: &[LabeledPacket]| -> Vec<ParsedView> {
        packets.iter().cloned().map(ParsedView::from_packet).collect()
    };
    let input = EventInput {
        train: TrainView::assemble(views(warmup), FlowTableConfig::default()),
        eval: views(eval),
        flow_config: FlowTableConfig::default(),
    };
    let batch = replay(factory().as_mut(), &input).expect("batch replay").scores;
    let sorted = |scores: &[f64]| {
        let mut bits: Vec<u64> = scores.iter().map(|score| score.to_bits()).collect();
        bits.sort_unstable();
        bits
    };
    let expected = sorted(&batch);
    assert_eq!(batch.len(), eval.len());

    let stream = |config: &StreamConfig| {
        run_stream(&factory, warmup, VecSource::new("bursty", eval.to_vec()), config)
            .expect("streaming run")
    };
    for shards in [1, 2, 4] {
        let run = stream(&StreamConfig { shards, window_secs: 1.0, ..Default::default() });
        if shards == 1 {
            assert_bitwise("row-score", &run.scores, &batch);
        } else {
            let busy = run.report.shard_stats.iter().filter(|s| s.packets > 0).count();
            assert_eq!(busy, shards, "the trace must reach every shard");
        }
        assert!(sorted(&run.scores) == expected, "row scores moved at {shards} shards");
    }
    let auto = stream(&autoscale_fixture().1);
    let events = &auto.report.scale_events;
    assert!(events.iter().any(|e| e.is_scale_up()) && events.iter().any(|e| e.is_scale_down()));
    assert!(sorted(&auto.scores) == expected, "row scores moved in the autoscaled run");
}

/// Scale decisions key off the traffic timeline, so the whole elastic run —
/// scores, metrics, and the scale trajectory itself — replays identically.
#[test]
fn autoscaled_runs_replay_deterministically() {
    let packets = bursty_sessions(8);
    let split = packets.partition_point(|lp| lp.packet.ts < Timestamp::from_micros(2_000_000));
    let (warmup, eval) = packets.split_at(split);
    let (factory, config) = autoscale_fixture();

    let run = |packets: Vec<LabeledPacket>| {
        run_stream(&factory, warmup, VecSource::new("bursty", packets), &config)
            .expect("autoscaled run")
    };
    let first = run(eval.to_vec());
    let second = run(eval.to_vec());
    assert_eq!(first.scores, second.scores);
    assert_eq!(first.report.metrics, second.report.metrics);
    let shape = |r: &StreamRun| {
        r.report
            .scale_events
            .iter()
            .map(|e| (e.seq, e.window, e.from_shards, e.to_shards, e.migrated_flows))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&first), shape(&second), "scale trajectory must be deterministic");
    assert!(!first.report.scale_events.is_empty(), "the fixture policy must fire");
}

#[test]
fn use_packet_source_trait_directly() {
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let mut source = ScenarioSource::new(&scenario, 1);
    assert_eq!(source.name(), "Stratosphere");
    let first = source.next_packet().expect("pull").expect("non-empty");
    let second = source.next_packet().expect("pull").expect("non-empty");
    assert!(first.packet.ts <= second.packet.ts);
}
