//! Failure-injection and pipeline-integrity tests: detectors must behave
//! sanely on pathological inputs and must not peek at evaluation labels.

use idsbench::core::preprocess::{EventInput, Pipeline, PipelineConfig};
use idsbench::core::runner::replay;
use idsbench::core::{
    AttackKind, Dataset, Event, EventDetector, InputFormat, Label, ParsedView, TrainView,
};
use idsbench::datasets::{scenarios, ScenarioScale};
use idsbench::dnn::baselines::{DecisionTree, KNearest, LogisticRegression, NaiveBayes};
use idsbench::dnn::Dnn;
use idsbench::helad::Helad;
use idsbench::kitsune::Kitsune;
use idsbench::slips::Slips;

fn prepared_input() -> EventInput {
    let scenario = scenarios::bot_iot(ScenarioScale::Tiny);
    let packets = scenario.generate(3);
    Pipeline::new(PipelineConfig::default()).unwrap().prepare_events("toy", packets).unwrap()
}

/// The eight systems: the paper's four and the DNN study's four baselines.
const SYSTEMS: [&str; 8] =
    ["Kitsune", "HELAD", "DNN", "Slips", "LogReg", "NaiveBayes", "DecisionTree", "kNN"];

fn all_detectors() -> Vec<Box<dyn EventDetector>> {
    SYSTEMS.iter().map(|name| fresh(name)).collect()
}

fn fresh(name: &str) -> Box<dyn EventDetector> {
    match name {
        "Kitsune" => Box::new(Kitsune::default()),
        "HELAD" => Box::new(Helad::default()),
        "DNN" => Box::new(Dnn::default()),
        "Slips" => Box::new(Slips::default()),
        "LogReg" => Box::new(LogisticRegression::default()),
        "NaiveBayes" => Box::new(NaiveBayes::default()),
        "DecisionTree" => Box::new(DecisionTree::default()),
        "kNN" => Box::new(KNearest::default()),
        other => panic!("unknown system {other}"),
    }
}

/// Forwards every call except `fit`, so a replay scores a detector that
/// was never fitted.
struct Unfitted(Box<dyn EventDetector>);

impl EventDetector for Unfitted {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn input_format(&self) -> InputFormat {
        self.0.input_format()
    }

    fn fit(&mut self, _train: &TrainView) {}

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        self.0.on_event(event)
    }

    fn on_packet_batch(
        &mut self,
        views: &mut dyn Iterator<Item = &ParsedView>,
        scores: &mut Vec<f64>,
    ) {
        self.0.on_packet_batch(views, scores);
    }
}

fn flip(label: Label) -> Label {
    match label {
        Label::Benign => Label::Attack(AttackKind::Stealth),
        Label::Attack(_) => Label::Benign,
    }
}

fn flip_eval_labels(input: &EventInput) -> EventInput {
    let mut flipped = input.clone();
    for view in &mut flipped.eval {
        view.packet.label = flip(view.packet.label);
    }
    flipped
}

/// Deterministically permutes the evaluation labels among the evaluation
/// packets (the label *multiset* is unchanged — only the assignment moves).
fn shuffle_eval_labels(input: &EventInput, seed: u64) -> EventInput {
    let mut shuffled = input.clone();
    let mut labels: Vec<Label> = shuffled.eval.iter().map(|v| v.packet.label).collect();
    // Fisher–Yates with a splitmix-style generator, no rand dependency.
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..labels.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        labels.swap(i, j);
    }
    for (view, label) in shuffled.eval.iter_mut().zip(labels) {
        view.packet.label = label;
    }
    shuffled
}

/// The core integrity rule: scores must be a function of traffic only —
/// flipping every *evaluation* label must not change a single score.
#[test]
fn no_detector_reads_evaluation_labels() {
    let input = prepared_input();
    let flipped = flip_eval_labels(&input);
    for mut detector in all_detectors() {
        let name = detector.name().to_string();
        let scores_original = replay(detector.as_mut(), &input).unwrap().scores;
        let scores_flipped = replay(fresh(&name).as_mut(), &flipped).unwrap().scores;
        assert_eq!(scores_original, scores_flipped, "{name} peeked at evaluation labels");
    }
}

/// The permutation variant of the same rule (what `detector.rs` promises):
/// shuffling the evaluation labels among the evaluation items — preserving
/// the label multiset, which flipping does not — must leave every
/// detector's score stream untouched. This catches subtler leaks, e.g. a
/// detector keying on the eval attack *rate* would survive a flip check on
/// a balanced trace but not a permutation check.
#[test]
fn no_detector_reacts_to_permuted_evaluation_labels() {
    let input = prepared_input();
    let shuffled = shuffle_eval_labels(&input, 7);
    // The permutation must actually move labels around...
    assert!(
        input.eval.iter().zip(&shuffled.eval).any(|(a, b)| a.packet.label != b.packet.label),
        "shuffle must change some assignments"
    );
    // ...while preserving the label multiset.
    assert_eq!(
        input.eval.iter().filter(|v| v.is_attack()).count(),
        shuffled.eval.iter().filter(|v| v.is_attack()).count(),
    );
    for mut detector in all_detectors() {
        let name = detector.name().to_string();
        let scores_original = replay(detector.as_mut(), &input).unwrap().scores;
        let scores_shuffled = replay(fresh(&name).as_mut(), &shuffled).unwrap().scores;
        assert_eq!(scores_original, scores_shuffled, "{name} reacted to permuted eval labels");
    }
}

/// The supervised DNN must, by contrast, depend on its *training* labels.
#[test]
fn dnn_depends_on_training_labels() {
    let input = prepared_input();
    let mut corrupted = input.clone();
    for flow in &mut corrupted.train.flows {
        flow.label = flip(flow.label);
    }
    let a = replay(&mut Dnn::default(), &input).unwrap().scores;
    let b = replay(&mut Dnn::default(), &corrupted).unwrap().scores;
    assert_ne!(a, b, "supervised training must react to label changes");
}

/// Detectors must handle an empty training slice without panicking.
#[test]
fn detectors_survive_empty_training() {
    let mut input = prepared_input();
    input.train.packets.clear();
    input.train.flows.clear();
    for mut detector in all_detectors() {
        let name = detector.name().to_string();
        let replayed = replay(detector.as_mut(), &input).unwrap();
        assert!(!replayed.scores.is_empty(), "{name}");
        assert!(replayed.scores.iter().all(|s| s.is_finite()), "{name}");
    }
}

/// Scoring before `fit` is fitting on an empty training slice first: for
/// every system, the unfitted scores equal, bit for bit, the scores after
/// `fit(&TrainView::default())`.
#[test]
fn scoring_before_fit_is_fitting_on_nothing() {
    let mut input = prepared_input();
    input.train = TrainView::default();
    for name in SYSTEMS {
        let unfitted = replay(&mut Unfitted(fresh(name)), &input).unwrap().scores;
        let fitted = replay(fresh(name).as_mut(), &input).unwrap().scores;
        assert!(!fitted.is_empty(), "{name}");
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert!(bits(&unfitted) == bits(&fitted), "{name}: unfitted scores differ");
    }
}

/// Detectors must handle a single-item evaluation slice.
#[test]
fn detectors_survive_minimal_eval() {
    let mut input = prepared_input();
    input.eval.truncate(1);
    for mut detector in all_detectors() {
        let name = detector.name().to_string();
        let format = detector.input_format();
        let replayed = replay(detector.as_mut(), &input).unwrap();
        match format {
            InputFormat::Packets => assert_eq!(replayed.scores.len(), 1, "{name}"),
            InputFormat::Flows => assert_eq!(replayed.scores.len(), replayed.eval_flows, "{name}"),
        }
    }
}

/// A truncated/corrupted packet in the eval stream must not break packet
/// detectors (they score it neutrally and stay aligned).
#[test]
fn corrupt_packets_do_not_derail_packet_detectors() {
    use idsbench::core::LabeledPacket;
    use idsbench::net::{Packet, Timestamp};

    let mut input = prepared_input();
    // Inject garbage frames into the eval stream.
    for i in 0..5u64 {
        input.eval.push(ParsedView::from_packet(LabeledPacket::new(
            Packet::new(Timestamp::from_secs(10_000 + i), vec![0xff; 7]),
            Label::Benign,
        )));
    }
    for mut detector in
        [Box::new(Kitsune::default()) as Box<dyn EventDetector>, Box::new(Helad::default())]
    {
        let name = detector.name().to_string();
        let replayed = replay(detector.as_mut(), &input).unwrap();
        assert_eq!(replayed.scores.len(), input.eval.len(), "{name}");
        assert!(replayed.scores.iter().all(|s| s.is_finite()));
    }
}

/// The pipeline rejects empty datasets instead of producing empty grids.
#[test]
fn pipeline_rejects_empty_input() {
    let pipeline = Pipeline::new(PipelineConfig::default()).unwrap();
    assert!(pipeline.prepare_events("nothing", Vec::new()).is_err());
}

/// Sampling at very low rates still yields a coherent, label-aligned input.
#[test]
fn aggressive_sampling_keeps_alignment() {
    let scenario = scenarios::cicids2017(ScenarioScale::Tiny);
    let packets = scenario.generate(4);
    let config = PipelineConfig { sampling_rate: 0.05, ..Default::default() };
    let input = Pipeline::new(config).unwrap().prepare_events("sampled", packets).unwrap();
    assert!(!input.eval.is_empty());
    let replayed = replay(&mut Kitsune::default(), &input).unwrap();
    assert_eq!(replayed.scores.len(), replayed.labels.len());
    assert_eq!(replayed.scores.len(), input.eval.len());
}
