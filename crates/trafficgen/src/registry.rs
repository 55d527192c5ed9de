//! The scenario registry: every workload the benches can run, by name.
//!
//! A [`ScenarioSpec`] maps a stable name to a [`TrafficModel`] builder at a
//! chosen [`ScenarioScale`], plus the warmup horizon a streaming run should
//! train/calibrate on. The six native specs cover the three adversarial
//! tiers (trace-shaped benign, volumetric floods/scans, multi-stage
//! campaigns); the five `Legacy` specs re-express the Table II dataset
//! scenarios on the same contract, so batch, stream, fabric, and trafficgen
//! consumers all draw from one catalogue.

use idsbench_core::{DatasetInfo, ScenarioScale, TrafficModel};
use idsbench_datasets::{scenarios, Host, HostPool};

use crate::benign::{VideoSlot, VoipSlot, WebSlot};
use crate::campaign::{Pace, StagedCampaign};
use crate::flood::{Flood, FloodKind, HostSweep, PortScanWave};
use crate::process::{CampaignModel, ProcessFactory};

/// Which tier of the workload library a scenario belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Trace-shaped benign mixes (no attacks).
    Benign,
    /// Volumetric floods and scans over a benign bed.
    Volumetric,
    /// Multi-stage evasion campaigns over a benign bed.
    Campaign,
    /// A Table II dataset scenario re-expressed on the streaming contract.
    Legacy,
}

impl Tier {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Benign => "benign",
            Tier::Volumetric => "volumetric",
            Tier::Campaign => "campaign",
            Tier::Legacy => "legacy",
        }
    }
}

/// One registry entry: a named scenario builder.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Stable scenario name (report key).
    pub name: &'static str,
    /// Workload tier.
    pub tier: Tier,
    /// One-line description.
    pub summary: &'static str,
    /// Traffic seconds a run trains on: the leading attack-free span every
    /// native scenario guarantees (the batch grid's `Split::BeforeSecs`, a
    /// stream's `ScenarioSource::split_warmup_secs`; both train strictly
    /// before it). Legacy scenarios interleave attacks from t=0 and use
    /// fraction-based splits instead.
    pub warmup_secs: f64,
    builder: fn(ScenarioScale) -> Box<dyn TrafficModel>,
}

impl ScenarioSpec {
    /// Builds the scenario's model at `scale`.
    pub fn build(&self, scale: ScenarioScale) -> Box<dyn TrafficModel> {
        (self.builder)(scale)
    }
}

/// Traffic seconds every native scenario runs for.
pub const HORIZON_SECS: f64 = 90.0;

/// Warmup span of the native scenarios: attacks start strictly after this.
pub const WARMUP_SECS: f64 = 30.0;

/// Earliest traffic time adversarial processes may start.
const ATTACK_START: f64 = 40.0;

/// Scaled count: `full` slots at `Full`, proportionally fewer below, and
/// never zero.
fn slots(scale: ScenarioScale, full: f64) -> usize {
    ((full * scale.factor()).round() as usize).max(1)
}

/// The shared benign bed: VOIP, video, and web session slots over one
/// client subnet — many concurrent heavy-tailed streams per client mix.
fn benign_bed(scale: ScenarioScale) -> Vec<Box<dyn ProcessFactory>> {
    let clients = HostPool::subnet(1, 24);
    let voip_gw = Host::new(2, 1);
    let cdn = Host::external(40);
    let web = Host::external(41);
    let mut out: Vec<Box<dyn ProcessFactory>> = Vec::new();
    for i in 0..slots(scale, 6.0) {
        let start = i as f64 * 0.37;
        out.push(Box::new(VoipSlot::new(clients.get(i), voip_gw, start, 7.0, HORIZON_SECS)));
    }
    for i in 0..slots(scale, 6.0) {
        let start = i as f64 * 0.53;
        out.push(Box::new(VideoSlot::new(clients.get(6 + i), cdn, start, 9.0, HORIZON_SECS)));
    }
    for i in 0..slots(scale, 10.0) {
        let start = i as f64 * 0.29;
        out.push(Box::new(WebSlot::new(clients.get(12 + i), web, start, 2.5, HORIZON_SECS)));
    }
    out
}

fn info(name: &str, characteristics: &str) -> DatasetInfo {
    DatasetInfo::new(name, characteristics, "idsbench-trafficgen adversarial workload", 2026)
}

fn benign_mix(scale: ScenarioScale) -> Box<dyn TrafficModel> {
    Box::new(CampaignModel::new(
        info("benign-mix", "VOIP/video/web mix, heavy-tailed sessions, no attacks"),
        benign_bed(scale),
    ))
}

fn syn_burst(scale: ScenarioScale) -> Box<dyn TrafficModel> {
    let mut components = benign_bed(scale);
    components.push(Box::new(Flood::new(
        FloodKind::Syn,
        Host::external(9),
        HostPool::from_hosts(vec![Host::new(1, 1)]),
        160.0 * scale.factor().max(0.2),
        80,
        1,
        true,
        ATTACK_START,
        30.0,
    )));
    Box::new(CampaignModel::new(
        info("syn-burst", "spoofed single-target SYN flood over the benign bed"),
        components,
    ))
}

fn udp_storm(scale: ScenarioScale) -> Box<dyn TrafficModel> {
    let mut components = benign_bed(scale);
    components.push(Box::new(Flood::new(
        FloodKind::Udp,
        Host::external(10),
        HostPool::subnet(1, 4),
        140.0 * scale.factor().max(0.2),
        1024,
        2048,
        true,
        ATTACK_START,
        30.0,
    )));
    components.push(Box::new(Flood::new(
        FloodKind::Icmp,
        Host::external(11),
        HostPool::from_hosts(vec![Host::new(1, 2)]),
        60.0 * scale.factor().max(0.2),
        0,
        1,
        false,
        ATTACK_START + 5.0,
        20.0,
    )));
    Box::new(CampaignModel::new(
        info("udp-storm", "spoofed wide-port UDP flood plus an ICMP echo flood"),
        components,
    ))
}

fn scan_wave(scale: ScenarioScale) -> Box<dyn TrafficModel> {
    let mut components = benign_bed(scale);
    let ports = (400.0 * scale.factor()).round().max(60.0) as u16;
    components.push(Box::new(PortScanWave::new(
        Host::external(12),
        Host::new(1, 3),
        ports,
        0.06,
        ATTACK_START,
    )));
    components.push(Box::new(HostSweep::new(
        Host::external(13),
        HostPool::subnet(1, 24),
        23,
        0.4,
        ATTACK_START + 8.0,
    )));
    Box::new(CampaignModel::new(
        info("scan-wave", "vertical port scan and a horizontal telnet sweep"),
        components,
    ))
}

fn campaign_components(scale: ScenarioScale, pace: Pace) -> Vec<Box<dyn ProcessFactory>> {
    let mut components = benign_bed(scale);
    components.push(Box::new(StagedCampaign::new(
        Host::external(14),
        Host::external(210),
        HostPool::subnet(1, 12),
        ATTACK_START,
        pace,
    )));
    components
}

fn stealth_campaign(scale: ScenarioScale) -> Box<dyn TrafficModel> {
    Box::new(CampaignModel::new(
        info("stealth-campaign", "recon → foothold → lateral movement → exfiltration"),
        campaign_components(scale, Pace::Brisk),
    ))
}

fn lowslow_campaign(scale: ScenarioScale) -> Box<dyn TrafficModel> {
    Box::new(CampaignModel::new(
        info("lowslow-campaign", "the staged campaign with every gap stretched ~12×"),
        campaign_components(scale, Pace::LowSlow),
    ))
}

/// Every scenario the workload library ships, native tiers first.
pub fn registry() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "benign-mix",
            tier: Tier::Benign,
            summary: "VOIP/video/web mix with heavy-tailed sessions and no attacks",
            warmup_secs: WARMUP_SECS,
            builder: benign_mix,
        },
        ScenarioSpec {
            name: "syn-burst",
            tier: Tier::Volumetric,
            summary: "Spoofed single-target SYN flood over the benign bed",
            warmup_secs: WARMUP_SECS,
            builder: syn_burst,
        },
        ScenarioSpec {
            name: "udp-storm",
            tier: Tier::Volumetric,
            summary: "Spoofed wide-port UDP flood plus an ICMP echo flood",
            warmup_secs: WARMUP_SECS,
            builder: udp_storm,
        },
        ScenarioSpec {
            name: "scan-wave",
            tier: Tier::Volumetric,
            summary: "Vertical port scan and a horizontal telnet sweep",
            warmup_secs: WARMUP_SECS,
            builder: scan_wave,
        },
        ScenarioSpec {
            name: "stealth-campaign",
            tier: Tier::Campaign,
            summary: "Recon, foothold, lateral movement, exfiltration — brisk",
            warmup_secs: WARMUP_SECS,
            builder: stealth_campaign,
        },
        ScenarioSpec {
            name: "lowslow-campaign",
            tier: Tier::Campaign,
            summary: "The staged campaign, low-and-slow (~12× stretched gaps)",
            warmup_secs: WARMUP_SECS,
            builder: lowslow_campaign,
        },
        ScenarioSpec {
            name: "unsw-nb15",
            tier: Tier::Legacy,
            summary: "Table II UNSW-NB15 calibrated scenario",
            warmup_secs: 0.0,
            builder: |scale| Box::new(scenarios::unsw_nb15(scale)),
        },
        ScenarioSpec {
            name: "bot-iot",
            tier: Tier::Legacy,
            summary: "Table II BoT-IoT calibrated scenario",
            warmup_secs: 0.0,
            builder: |scale| Box::new(scenarios::bot_iot(scale)),
        },
        ScenarioSpec {
            name: "cicids2017",
            tier: Tier::Legacy,
            summary: "Table II CICIDS2017 calibrated scenario",
            warmup_secs: 0.0,
            builder: |scale| Box::new(scenarios::cicids2017(scale)),
        },
        ScenarioSpec {
            name: "stratosphere-iot",
            tier: Tier::Legacy,
            summary: "Table II Stratosphere IoT calibrated scenario",
            warmup_secs: 0.0,
            builder: |scale| Box::new(scenarios::stratosphere_iot(scale)),
        },
        ScenarioSpec {
            name: "mirai",
            tier: Tier::Legacy,
            summary: "Table II Mirai calibrated scenario",
            warmup_secs: 0.0,
            builder: |scale| Box::new(scenarios::mirai(scale)),
        },
    ]
}

/// The five Table IV dataset scenarios, in row order, as boxed models —
/// what the bench harness's `standard_scenarios` is built on.
pub fn table4_models(scale: ScenarioScale) -> Vec<Box<dyn TrafficModel>> {
    registry().into_iter().filter(|s| s.tier == Tier::Legacy).map(|s| s.build(scale)).collect()
}

/// Looks a spec up by name.
pub fn spec(name: &str) -> Option<ScenarioSpec> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_lookup_works() {
        let specs = registry();
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate scenario names");
        assert!(spec("syn-burst").is_some());
        assert!(spec("nope").is_none());
    }

    #[test]
    fn registry_covers_all_tiers() {
        let specs = registry();
        for tier in [Tier::Benign, Tier::Volumetric, Tier::Campaign, Tier::Legacy] {
            assert!(specs.iter().any(|s| s.tier == tier), "missing tier {}", tier.name());
        }
        assert!(specs.iter().filter(|s| s.tier != Tier::Legacy).count() >= 6);
    }

    #[test]
    fn native_scenarios_keep_the_warmup_attack_free() {
        for spec in registry().into_iter().filter(|s| s.tier != Tier::Legacy) {
            let model = spec.build(ScenarioScale::Tiny);
            let mut saw_warmup_packet = false;
            for packet in model.stream(11) {
                let t = packet.packet.ts.as_secs_f64();
                if t < spec.warmup_secs {
                    saw_warmup_packet = true;
                    assert!(!packet.is_attack(), "{}: attack at t={t} inside warmup", spec.name);
                }
            }
            assert!(saw_warmup_packet, "{}: empty warmup span", spec.name);
        }
    }

    #[test]
    fn model_names_match_spec_names() {
        for spec in registry().into_iter().filter(|s| s.tier != Tier::Legacy) {
            let model = spec.build(ScenarioScale::Tiny);
            assert_eq!(model.info().name, spec.name);
        }
    }
}
