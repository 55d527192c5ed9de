//! Campaign-label integrity through the streaming engine: every stage
//! family of the staged campaign must survive the full path — flow-table
//! assembly, eviction, sharded scoring, and the per-family merge — and
//! come out as its own [`FamilyOutcome`] row, on both the flow-event path
//! (Slips) and the packet-event path (Kitsune). The batch grid trained on
//! a scenario's attack-free lead scores exactly what that stream scores.

use std::collections::BTreeMap;

use idsbench_core::preprocess::{PipelineConfig, Split};
use idsbench_core::runner::{run_grid, DetectorFactory, EvalConfig};
use idsbench_core::{Dataset, EventDetector, ScenarioScale};
use idsbench_kitsune::Kitsune;
use idsbench_slips::Slips;
use idsbench_stream::{run_stream, PacketSource, ScenarioSource, StreamConfig, ThresholdMode};
use idsbench_trafficgen::spec;

/// The five stage families the staged campaign emits, by construction.
const STAGE_FAMILIES: [&str; 5] =
    ["port-scan", "brute-force", "botnet-c2", "stealth", "exfiltration"];

fn family_counts(
    factory: &(dyn Fn() -> Box<dyn EventDetector> + Sync),
    shards: usize,
) -> BTreeMap<String, (usize, usize)> {
    let spec = spec("stealth-campaign").expect("registered scenario");
    let model = spec.build(ScenarioScale::Tiny);
    let (warmup, source) =
        ScenarioSource::new(model.as_ref(), 42).split_warmup_secs(spec.warmup_secs);
    assert!(!warmup.is_empty(), "campaign scenario must carry a benign warmup");
    let config =
        StreamConfig { shards, threshold: ThresholdMode::Fixed(0.3), ..Default::default() };
    let run = run_stream(factory, &warmup, source, &config).expect("streaming run");
    run.report.family_recall.iter().map(|o| (o.family.clone(), (o.packets, o.flows))).collect()
}

#[test]
fn stage_labels_survive_eviction_and_sharded_merge_on_the_flow_path() {
    // Two shards so the per-family tallies really merge across workers;
    // Slips is flow-format, so every scored event is a flow eviction and
    // the label must have ridden the flow record through the table.
    let families = family_counts(&|| Box::new(Slips::default()) as Box<dyn EventDetector>, 2);
    for family in STAGE_FAMILIES {
        let (packets, flows) = *families
            .get(family)
            .unwrap_or_else(|| panic!("family {family} missing: {families:?}"));
        assert!(flows > 0, "{family}: no flow evictions scored ({families:?})");
        assert_eq!(packets, 0, "{family}: flow-format run scored packet events");
    }
}

#[test]
fn stage_labels_survive_on_the_packet_path() {
    let families = family_counts(&|| Box::new(Kitsune::default()) as Box<dyn EventDetector>, 1);
    for family in STAGE_FAMILIES {
        let (packets, flows) = *families
            .get(family)
            .unwrap_or_else(|| panic!("family {family} missing: {families:?}"));
        assert!(packets > 0, "{family}: no packet events scored ({families:?})");
        assert_eq!(flows, 0, "{family}: packet-format run scored flow events");
    }
}

/// Each cell of the native-scenario matrix is a grid cell under
/// `Split::BeforeSecs(spec.warmup_secs)`. It must equal a one-shard
/// calibrated stream over `split_warmup_secs`, on the packet and the flow
/// path alike, also when a packet sits exactly on the boundary (it is
/// evaluated on both sides).
#[test]
fn a_grid_cell_trained_on_the_lead_equals_a_one_shard_stream() {
    let detectors: Vec<(String, DetectorFactory)> = vec![
        ("Kitsune".into(), Box::new(|| Box::new(Kitsune::default()) as Box<dyn EventDetector>)),
        ("Slips".into(), Box::new(|| Box::new(Slips::default()) as Box<dyn EventDetector>)),
    ];
    for name in ["stealth-campaign", "syn-burst"] {
        let spec = spec(name).expect("registered scenario");
        let model = spec.build(ScenarioScale::Tiny);
        let split = |secs| ScenarioSource::new(model.as_ref(), 42).split_warmup_secs(secs);
        let first_eval = split(spec.warmup_secs).1.next_packet().expect("source").expect("eval");
        for secs in [spec.warmup_secs, first_eval.packet.ts.as_secs_f64()] {
            let config = EvalConfig {
                pipeline: PipelineConfig { split: Split::BeforeSecs(secs), ..Default::default() },
                dataset_seed: 42,
                ..Default::default()
            };
            let cells = run_grid(&detectors, &[&model as &dyn Dataset], &config).expect("grid");
            for ((detector, factory), cell) in detectors.iter().zip(&cells) {
                let (warmup, source) = split(secs);
                let run = run_stream(factory.as_ref(), &warmup, source, &StreamConfig::default())
                    .expect("streaming run");
                let at = format!("{name}/{detector} split at {secs} s");
                assert_eq!(run.report.assessment, cell.assessment, "{at}");
                assert_eq!(run.report.eval_packets, cell.eval_packets, "{at}");
                assert_eq!(run.report.warmup_packets, cell.train.packets, "{at}");
            }
        }
    }
}
