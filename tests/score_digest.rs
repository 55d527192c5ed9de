//! Pins a bit-level digest of every batch score for all eight systems: the
//! paper's four and the DNN study's four classical baselines.
//!
//! The scoring hot path is under continuous optimisation — blocked matmul
//! kernels, packed weight layouts, fused activation passes, fast-hash state
//! maps — and every one of those rewrites promises *bitwise identical*
//! scores. This test makes that promise enforceable: any kernel change
//! that silently perturbs a single bit of a single score fails here.
//!
//! If a change is *supposed* to alter scores (a detector fix, a scenario
//! change, a different default), re-pin by running
//! `cargo test --release --test score_digest`: on a mismatch it prints the
//! complete replacement `PINNED` block. Paste it in deliberately, in the
//! same commit, with the reason in its message.
//!
//! What the pinned bits depend on. The neural activations — every
//! `sigmoid`/`tanh`/`exp` in Kitsune, HELAD and the DNN — are the in-crate
//! kernels of `idsbench_nn::activation`: a function of the code alone, the
//! same in every profile, on every host and at every vector width (pinned
//! on their own, on all targets, by `crates/nn/tests/activation_accuracy.rs`).
//! Two things outside the networks still resolve to the platform's libm,
//! whose implementations differ by ULPs across platforms: AfterImage's
//! `(−λ·Δt).exp2()` decay (`crates/flow/src/damped.rs`, upstream of Kitsune
//! and HELAD; the same bits in debug and release on `linux-gnu`) and the
//! `ln`/`powf` inter-arrival and size sampling of
//! `crates/datasets/src/session.rs` (upstream of all four). So the pinning
//! test runs only on `linux-gnu`, the environment the constants were
//! produced under. It runs in both profiles: Rust never contracts or
//! reassociates floating-point arithmetic, so neither the optimiser nor the
//! vector width changes any score's chain, and the unvectorised debug build
//! gives the same bits as the release build. The plain `cargo test` checks
//! them; CI also runs `cargo test --release --test score_digest`, since
//! only release builds vectorise. Every other configuration still verifies
//! self-consistency (two replays agree bit-for-bit).
//!
//! Slips has no activation, so its digest is the control: it did not move
//! when the activations were brought in-crate, and a change that moves it
//! changed something other than a network.

use idsbench::core::preprocess::{EventInput, Pipeline};
use idsbench::core::runner::{replay, EvalConfig};
use idsbench::core::{Dataset, EventDetector, LabeledPacket, ParsedView};
use idsbench::datasets::{scenarios, Scenario, ScenarioScale};
use idsbench::dnn::baselines::{DecisionTree, KNearest, LogisticRegression, NaiveBayes};
use idsbench::dnn::Dnn;
use idsbench::helad::{Helad, HeladConfig};
use idsbench::kitsune::{Kitsune, KitsuneConfig};
use idsbench::net::Packet;
use idsbench::slips::Slips;
use idsbench::telemetry::{Stage, Telemetry, TelemetryConfig};

/// `(detector, scored events, digest)` with default `EvalConfig` on
/// `linux-gnu`, either profile: the paper's four systems on Tiny
/// Stratosphere, the four baselines on Tiny UNSW-NB15 (see
/// [`baseline_input`]), then Kitsune and HELAD once more on Tiny
/// Stratosphere with truncated frames (see [`malformed_input`]).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const PINNED: [(&str, usize, u64); 10] = [
    ("Kitsune", 3843, 0xbf7e_f8ed_57fa_0215),
    ("HELAD", 3843, 0x8139_a324_cea0_6e6f),
    ("DNN", 240, 0xb7f9_4f1c_3a8e_299e),
    ("Slips", 240, 0x1f30_458e_5d0a_79fa),
    ("LogReg", 166, 0xd499_761e_9f4b_332f),
    ("NaiveBayes", 166, 0xb8ea_d2e0_2253_5ecc),
    ("DecisionTree", 166, 0x4966_c152_6093_764c),
    ("kNN", 166, 0x61f4_ddfc_e345_263f),
    ("Kitsune", 3843, 0x08ea_51c0_1da7_ba1a),
    ("HELAD", 3843, 0x48e1_7ee4_ad00_e028),
];

/// Every `MALFORMED_EVERY`-th generated frame of [`malformed_input`] is
/// cut short of an Ethernet header.
const MALFORMED_EVERY: usize = 53;

/// The digest fold: rotate-xor over the raw bits of each score in replay
/// order.
fn digest_of(scores: &[f64]) -> u64 {
    let mut digest = 0u64;
    for s in scores {
        digest = digest.rotate_left(7) ^ s.to_bits();
    }
    digest
}

/// `scenario`'s packets, changed by `edit`, prepared with the default
/// `EvalConfig`.
fn prepared(scenario: Scenario, edit: impl FnOnce(&mut [LabeledPacket])) -> EventInput {
    let config = EvalConfig::default();
    let mut packets = scenario.generate(config.dataset_seed);
    edit(&mut packets);
    let pipeline = Pipeline::new(config.pipeline).expect("pipeline");
    pipeline.prepare_events(&scenario.info().name, packets).expect("preprocess")
}

/// The canonical input of the paper's four systems: Tiny Stratosphere.
fn canonical_input() -> EventInput {
    prepared(scenarios::stratosphere_iot(ScenarioScale::Tiny), |_| {})
}

/// The baselines' input: Tiny UNSW-NB15, whose training slice holds both
/// labels (24 of 98 flows are attacks). Stratosphere's is all benign, so
/// the tree and kNN would score every flow 0 there and pin nothing.
fn baseline_input() -> EventInput {
    prepared(scenarios::unsw_nb15(ScenarioScale::Tiny), |_| {})
}

/// Tiny Stratosphere with every [`MALFORMED_EVERY`]-th frame truncated to
/// 10 bytes, so no view of it parses: a few land in Kitsune's grace prefix
/// of the training slice and dozens inside evaluation bursts. A malformed
/// view scores 0 and must leave the features of every other view as they
/// were.
fn malformed_input() -> EventInput {
    let input = prepared(scenarios::stratosphere_iot(ScenarioScale::Tiny), |packets| {
        for labeled in packets.iter_mut().step_by(MALFORMED_EVERY) {
            let packet = &mut labeled.packet;
            *packet = Packet::new(packet.ts, packet.data[..10].to_vec());
        }
    });
    let malformed = |views: &[ParsedView]| views.iter().filter(|v| v.parsed.is_none()).count();
    assert!(malformed(&input.train.packets[..input.train.packets.len() / 10]) > 0);
    assert!(malformed(&input.eval) > 20);
    input
}

fn digest_row(detector: &mut dyn EventDetector, input: &EventInput) -> (String, usize, u64) {
    let scores = replay(detector, input).expect("replay").scores;
    (detector.name().to_string(), scores.len(), digest_of(&scores))
}

/// Runs the replays of `PINNED`'s rows, in order, and returns `(name,
/// events, digest)` for each. With `telemetry` supplied, every replay of
/// the paper's four systems carries a sampled inference probe — the
/// digests must not notice.
fn replay_digests(telemetry: Option<&Telemetry>) -> Vec<(String, usize, u64)> {
    let mut kitsune = Kitsune::default();
    let mut helad = Helad::default();
    let mut dnn = Dnn::default();
    let mut slips = Slips::default();
    let (mut malformed_kitsune, mut malformed_helad) = (Kitsune::default(), Helad::default());
    if let Some(telemetry) = telemetry {
        kitsune.attach_inference_probe(telemetry.span(Stage::Infer, Some(0)));
        helad.attach_inference_probe(telemetry.span(Stage::Infer, Some(1)));
        dnn.attach_inference_probe(telemetry.span(Stage::Infer, Some(2)));
        slips.attach_inference_probe(telemetry.span(Stage::Infer, Some(3)));
        malformed_kitsune.attach_inference_probe(telemetry.span(Stage::Infer, Some(0)));
        malformed_helad.attach_inference_probe(telemetry.span(Stage::Infer, Some(1)));
    }
    let systems: [Box<dyn EventDetector>; 4] =
        [Box::new(kitsune), Box::new(helad), Box::new(dnn), Box::new(slips)];
    let baselines: [Box<dyn EventDetector>; 4] = [
        Box::new(LogisticRegression::default()),
        Box::new(NaiveBayes::default()),
        Box::new(DecisionTree::default()),
        Box::new(KNearest::default()),
    ];
    let (input, baseline) = (canonical_input(), baseline_input());
    let mut digests: Vec<_> =
        systems.into_iter().map(|mut d| digest_row(d.as_mut(), &input)).collect();
    digests.extend(baselines.into_iter().map(|mut d| digest_row(d.as_mut(), &baseline)));
    let malformed = malformed_input();
    digests.push(digest_row(&mut malformed_kitsune, &malformed));
    digests.push(digest_row(&mut malformed_helad, &malformed));
    digests
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn batch_scores_are_bitwise_pinned() {
    let digests = replay_digests(None);
    let pinned: Vec<(String, usize, u64)> =
        PINNED.iter().map(|&(name, events, digest)| (name.to_string(), events, digest)).collect();
    if digests != pinned {
        let mut block = format!("const PINNED: [(&str, usize, u64); {}] = [\n", digests.len());
        for (name, events, digest) in &digests {
            let hex = format!("{digest:016x}");
            let groups = [&hex[..4], &hex[4..8], &hex[8..12], &hex[12..]].join("_");
            block += &format!("    (\"{name}\", {events}, 0x{groups}),\n");
        }
        panic!(
            "a change altered scores bit-for-bit. If it is deliberate (see module docs), \
             replace PINNED with:\n{block}];"
        );
    }
}

/// Platform-independent half of the invariant: the replay is a pure
/// function — two runs agree bit-for-bit regardless of which libm the
/// platform links.
#[test]
fn batch_scores_are_self_consistent() {
    assert_eq!(replay_digests(None), replay_digests(None));
}

/// Telemetry half of the invariant: attaching sampled inference probes to
/// every detector changes no score bit — telemetry observes the replay, it
/// never steers it.
#[test]
fn telemetry_probes_do_not_perturb_scores() {
    let telemetry = Telemetry::new(TelemetryConfig { sample_every: 4 });
    let instrumented = replay_digests(Some(&telemetry));
    assert_eq!(instrumented, replay_digests(None), "probes perturbed a score digest");
    for probe in 0..4 {
        assert!(
            !telemetry.stage(Stage::Infer, Some(probe)).histogram().is_empty(),
            "probe {probe} sampled no inference spans"
        );
    }
}

/// The model-initialization seed is one of the two knobs Kitsune and HELAD
/// keep, so it must reach the scores: equal seeds give bitwise-equal
/// scores, a different seed changes at least one.
#[test]
fn model_init_seed_reaches_the_scores() {
    let input = canonical_input();
    let bits = |mut detector: Box<dyn EventDetector>| -> Vec<u64> {
        let scores = replay(detector.as_mut(), &input).expect("replay").scores;
        scores.iter().map(|s| s.to_bits()).collect()
    };
    type Build = fn(u64) -> Box<dyn EventDetector>;
    let systems: [(&str, Build); 2] = [
        ("Kitsune", |seed| Box::new(Kitsune::new(KitsuneConfig { seed }))),
        ("HELAD", |seed| Box::new(Helad::new(HeladConfig { seed }))),
    ];
    for (name, build) in systems {
        let reference = bits(build(0));
        // `assert!` rather than `assert_eq!`: a failure names the system
        // instead of printing thousands of score bits.
        assert!(bits(build(0)) == reference, "{name}: equal seeds gave different scores");
        assert!(bits(build(1)) != reference, "{name}: the seed never reached the model");
    }
}
