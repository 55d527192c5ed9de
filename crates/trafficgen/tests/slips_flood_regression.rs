//! Pins the root-caused Slips syn-flood result: **zero recall on the
//! spoofed single-target SYN flood is faithful behaviour, not a bug.**
//!
//! Slips accumulates evidence per source profile and per time window. The
//! `syn-burst` scenario spoofs every source address, so no profile ever
//! sees a second flow: the vertical-scan counter stays at one port, the
//! sweep counter at one host, and every flood flow scores zero evidence —
//! exactly the mechanism behind the paper's Table IV Slips/BoT-IoT recall
//! of 0.0000 (volumetric spoofed floods dominate BoT-IoT). The same
//! detector, same configuration, and same threshold *does* alert on the
//! unanswered-scan scenario, where evidence can accumulate on the real
//! scanning profile — so the zero is attribution, not blindness.

use idsbench_core::{EventDetector, ScenarioScale};
use idsbench_slips::Slips;
use idsbench_stream::{run_stream, ScenarioSource, StreamConfig, ThresholdMode};
use idsbench_trafficgen::spec;

fn slips_family_outcomes(scenario: &str) -> Vec<idsbench_core::metrics::FamilyOutcome> {
    let spec = spec(scenario).expect("registered scenario");
    let model = spec.build(ScenarioScale::Tiny);
    let (warmup, source) =
        ScenarioSource::new(model.as_ref(), 42).split_warmup_secs(spec.warmup_secs);
    let config = StreamConfig { threshold: ThresholdMode::Fixed(0.3), ..Default::default() };
    let run = run_stream(
        &|| Box::new(Slips::default()) as Box<dyn EventDetector>,
        &warmup,
        source,
        &config,
    )
    .expect("streaming run");
    run.report.assessment.family_recall
}

#[test]
fn slips_scores_zero_recall_on_the_spoofed_syn_flood() {
    let outcomes = slips_family_outcomes("syn-burst");
    let syn = outcomes
        .iter()
        .find(|o| o.family == "syn-flood")
        .unwrap_or_else(|| panic!("syn-flood family missing: {outcomes:?}"));
    assert!(syn.flows > 0, "flood flows must be evicted and scored: {syn:?}");
    assert_eq!(syn.alerts, 0, "spoofed flood must accumulate no evidence: {syn:?}");
    assert_eq!(syn.recall, 0.0, "paper-faithful zero recall regressed: {syn:?}");
}

#[test]
fn the_same_slips_configuration_alerts_on_accumulating_scans() {
    let outcomes = slips_family_outcomes("scan-wave");
    let scan = outcomes
        .iter()
        .find(|o| o.family == "port-scan")
        .unwrap_or_else(|| panic!("port-scan family missing: {outcomes:?}"));
    assert!(scan.alerts > 0, "vertical scan past the port threshold must alert: {scan:?}");
    assert!(scan.recall > 0.0, "scan recall must be positive: {scan:?}");
}
