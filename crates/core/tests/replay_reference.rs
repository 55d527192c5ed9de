//! Differential reference for the burst replay.
//!
//! `runner::replay` used to read the clock around every `on_event` and hand
//! every event — Kitsune's and HELAD's packets included — to the detector
//! one at a time, through a `deliver` closure. It now scores 32-packet
//! bursts under one clock pair, packet-format detectors through
//! `on_packet_batch`, and checks the score count per burst. The per-event
//! loop it replaced lives on here, verbatim, as the test-only reference:
//! both must produce the same scores (bit for bit), labels, attack kinds and
//! event counts for all four systems plus a classical baseline, on a Tiny
//! dataset whose evaluation slice is not a multiple of 32 (so the last
//! burst is short) and on an empty evaluation slice.

use idsbench_core::preprocess::{EventInput, Pipeline};
use idsbench_core::runner::{replay, EvalConfig, ScoredReplay};
use idsbench_core::{CoreError, Dataset, Event, EventDetector, FlowEventAssembler, InputFormat};
use idsbench_datasets::{scenarios, ScenarioScale};
use idsbench_dnn::baselines::LogisticRegression;
use idsbench_dnn::Dnn;
use idsbench_helad::Helad;
use idsbench_kitsune::Kitsune;
use idsbench_slips::Slips;

// ---- The deleted per-event replay, verbatim --------------------------------

fn reference_replay(
    detector: &mut dyn EventDetector,
    input: &EventInput,
) -> Result<ScoredReplay, CoreError> {
    let fit_started = std::time::Instant::now();
    detector.fit(&input.train);
    let train_seconds = fit_started.elapsed().as_secs_f64();

    let format = detector.input_format();
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    let mut kinds = Vec::new();
    let mut score_nanos = 0u128;
    let mut eval_flows = 0usize;

    let mut deliver = |detector: &mut dyn EventDetector, event: Event<'_>| {
        let started = std::time::Instant::now();
        let score = detector.on_event(&event);
        score_nanos += started.elapsed().as_nanos();
        if let Some(score) = score {
            let label = event.label();
            scores.push(score);
            labels.push(label.is_attack());
            kinds.push(label.attack_kind());
        }
    };

    // Flow assembly runs only when the detector consumes flows; packet
    // detectors pay nothing for the shape they ignore.
    let mut assembler =
        matches!(format, InputFormat::Flows).then(|| FlowEventAssembler::new(input.flow_config));
    let mut evicted = Vec::new();
    for view in &input.eval {
        deliver(detector, Event::Packet(view));
        if let Some(assembler) = &mut assembler {
            assembler.observe(view, |flow| evicted.push(flow));
            for flow in evicted.drain(..) {
                eval_flows += 1;
                deliver(detector, Event::FlowEvicted(&flow));
            }
        }
    }
    if let Some(mut assembler) = assembler {
        for flow in assembler.flush() {
            eval_flows += 1;
            deliver(detector, Event::FlowEvicted(&flow));
        }
    }

    let expected = match format {
        InputFormat::Packets => input.eval.len(),
        InputFormat::Flows => eval_flows,
    };
    if scores.len() != expected {
        return Err(CoreError::ScoreCountMismatch {
            detector: detector.name().to_string(),
            expected,
            got: scores.len(),
        });
    }
    Ok(ScoredReplay {
        scores,
        labels,
        kinds,
        train_seconds,
        score_seconds: score_nanos as f64 / 1e9,
        eval_packets: input.eval.len(),
        eval_flows,
    })
}

// ---- The comparison --------------------------------------------------------

type Factory = fn() -> Box<dyn EventDetector>;

fn systems() -> [(&'static str, Factory); 5] {
    [
        ("Kitsune", || Box::new(Kitsune::default())),
        ("HELAD", || Box::new(Helad::default())),
        ("DNN", || Box::new(Dnn::default())),
        ("Slips", || Box::new(Slips::default())),
        ("LogReg", || Box::new(LogisticRegression::default())),
    ]
}

/// Everything but the two timings, which are wall clock.
fn assert_same_replay(what: &str, burst: &ScoredReplay, reference: &ScoredReplay) {
    let bits = |scores: &[f64]| scores.iter().map(|score| score.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&burst.scores), bits(&reference.scores), "{what}: scores");
    assert_eq!(burst.labels, reference.labels, "{what}: labels");
    assert_eq!(burst.kinds, reference.kinds, "{what}: kinds");
    assert_eq!(burst.eval_packets, reference.eval_packets, "{what}: eval_packets");
    assert_eq!(burst.eval_flows, reference.eval_flows, "{what}: eval_flows");
}

#[test]
fn burst_replay_equals_the_per_event_reference() {
    let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
    let config = EvalConfig::default();
    let pipeline = Pipeline::new(config.pipeline).expect("valid default pipeline");
    let input = pipeline
        .prepare_events(&scenario.info().name, scenario.generate(config.dataset_seed))
        .expect("preprocess");
    assert_ne!(input.eval.len() % 32, 0, "the last burst must be a short one");
    let empty =
        EventInput { train: input.train.clone(), eval: Vec::new(), flow_config: input.flow_config };

    for (name, factory) in systems() {
        let burst = replay(factory().as_mut(), &input).expect("burst replay");
        let reference = reference_replay(factory().as_mut(), &input).expect("reference replay");
        assert!(!reference.scores.is_empty(), "{name}: the reference scored nothing");
        assert_same_replay(name, &burst, &reference);

        let burst = replay(factory().as_mut(), &empty).expect("burst replay, empty slice");
        let reference = reference_replay(factory().as_mut(), &empty).expect("reference, empty");
        assert!(burst.scores.is_empty() && burst.eval_packets == 0, "{name}: empty slice");
        assert_same_replay(&format!("{name} (empty slice)"), &burst, &reference);
    }
}
