//! The five calibrated dataset scenarios (one per row of the paper's
//! Table II).
//!
//! Each constructor mixes benign and attack generators so that the
//! scenario's *composition* — class balance, benign regularity, attack
//! families, attack placement relative to the training prefix — matches the
//! published properties of the real dataset it stands in for:
//!
//! | scenario | benign profile | attack share | attack placement |
//! |---|---|---|---|
//! | [`unsw_nb15`] | enterprise, heavy-tailed | ~13% | spread over the whole trace (contaminates training) |
//! | [`bot_iot`] | minimal IoT | ~97% | spoofed volumetric floods throughout |
//! | [`cicids2017`] | enterprise, heavy-tailed | ~10% | attacks only after the benign first "day" |
//! | [`stratosphere_iot`] | periodic IoT | ~20% | infection strictly after the training prefix |
//! | [`mirai`] | periodic IoT | ~85% | clean start, then propagation, then floods |

use idsbench_core::DatasetInfo;

use crate::attack::{
    AddressSweep, BotnetC2, BruteForce, Exfiltration, Fuzzing, HttpFlood, MiraiPropagation,
    PortScan, Stealth, SynFlood, UdpFlood, WebAttack,
};
use crate::benign::{
    CctvStream, DeviceBoot, DnsTraffic, FileTransfer, IotTelemetry, NtpSync, SmtpTraffic,
    WebBrowsing,
};
use crate::host::{Host, HostPool};
use crate::scenario::Scenario;

/// The scale knob, shared with every other workload builder. Re-exported
/// from `idsbench-core` (it parameterizes the whole `TrafficModel`
/// registry, not just these scenarios).
pub use idsbench_core::ScenarioScale;

fn scaled(count: usize, scale: ScenarioScale) -> usize {
    ((count as f64 * scale.factor()).round() as usize).max(1)
}

fn scaled_rate(rate: f64, scale: ScenarioScale) -> f64 {
    (rate * scale.factor()).max(0.02)
}

/// Device pools shrink with scale but keep at least two members so
/// profile-based detection (Slips) remains exercisable at every scale.
fn scaled_devices(count: usize, scale: ScenarioScale) -> usize {
    scaled(count, scale).max(2)
}

/// UNSW-NB15: diverse enterprise traffic with nine low-and-slow attack
/// families spread across the *entire* capture — there is no clean benign
/// prefix, which is what breaks leading-slice training (Section V factor 6).
pub fn unsw_nb15(scale: ScenarioScale) -> Scenario {
    let clients = HostPool::subnet(1, 40);
    let web_servers = HostPool::external(0, 48);
    let resolver = Host::new(1, 250);
    let smtp = Host::new(1, 251);
    let file_server = Host::new(1, 252);
    let victim_web = Host::new(1, 253);
    let ssh_server = Host::new(1, 254);
    let window = (0.0, 600.0);

    Scenario::builder(DatasetInfo::new(
        "UNSW-NB15",
        "Generated by ACCS with 49 features and 9 attack types over 2 days.",
        "Represents a wide spectrum of contemporary attack types, providing a broad base for IDS effectiveness testing.",
        2015,
    ))
    .with(WebBrowsing { clients: clients.clone(), servers: web_servers, window, sessions: scaled(1300, scale) })
    .with(DnsTraffic { clients: clients.clone(), resolver, window, queries: scaled(2500, scale) })
    .with(SmtpTraffic { clients: clients.clone(), server: smtp, window, messages: scaled(280, scale) })
    .with(FileTransfer { clients: clients.clone(), server: file_server, window, transfers: scaled(55, scale) })
    // Attack families, all windows spanning the full trace.
    .with(Fuzzing { attacker: Host::external(90), target: victim_web, dport: 8080, window, rate: scaled_rate(0.25, scale) })
    .with(Stealth { attacker: Host::new(1, 66), server: Host::external(91), dport: 31337, window, sessions: scaled(45, scale) })
    .with(Stealth { attacker: Host::new(1, 67), server: Host::external(92), dport: 6667, window, sessions: scaled(40, scale) })
    .with(Exfiltration { source: Host::new(1, 68), sink: Host::external(93), window, sessions: scaled(6, scale), bytes_per_session: 150_000 })
    .with(PortScan { scanner: Host::external(94), target: ssh_server, window, first_port: 1, ports: scaled(150, scale) as u16, rate: 0.25 })
    .with(BruteForce { attacker: Host::external(95), server: ssh_server, dport: 22, window, attempts: scaled(60, scale) })
    .with(WebAttack { attacker: Host::external(96), server: victim_web, window, requests: scaled(50, scale) })
    .with(HttpFlood { bots: HostPool::external(100, 4), victim: victim_web, window, rate: scaled_rate(0.25, scale) })
    .build()
}

/// BoT-IoT: a tiny IoT site drowned in spoofed volumetric floods — over 95%
/// of packets are attack traffic, so a detector that never alerts scores
/// near-zero accuracy (the Slips row of Table IV).
pub fn bot_iot(scale: ScenarioScale) -> Scenario {
    let devices = HostPool::subnet(2, scaled_devices(10, scale));
    let broker = Host::new(2, 200);
    let resolver = Host::new(2, 250);
    let victim = Host::new(2, 100);
    let bots = HostPool::external(200, 8);
    let window = (0.0, 300.0);

    Scenario::builder(DatasetInfo::new(
        "BoT IoT",
        "Encompasses legitimate and emulated IoT network traffic.",
        "Offers a balanced view of IDS performance in IoT settings, serving as a robust alternative to the Kitsune dataset.",
        2021,
    ))
    // The capture begins with the testbed booting: a dense benign
    // provisioning phase that gives leading-slice training a usable
    // baseline (as in the real capture), before the attack tooling starts.
    .with(DeviceBoot { devices: devices.clone(), broker, resolver, ntp: Host::external(199), window: (0.0, 60.0), sessions_per_device: scaled(115, scale) })
    .with(IotTelemetry { devices: devices.clone(), broker, window, period: 20.0, jitter: 0.02, payload: 64 })
    .with(NtpSync { devices: devices.clone(), server: Host::external(199), window, period: 60.0 })
    .with(DnsTraffic { clients: devices.clone(), resolver, window, queries: scaled(100, scale) })
    .with(SynFlood { bots: bots.clone(), victim, dport: 80, window: (62.0, 300.0), rate: scaled_rate(100.0, scale), spoofed: false })
    .with(UdpFlood { bots: bots.clone(), victim, dport: 53, window: (62.0, 300.0), rate: scaled_rate(75.0, scale), payload: 512, spoofed: false, per_bot_sport: false })
    .with(AddressSweep { scanner: bots.get(0), targets: HostPool::subnet(2, 120), dport: 80, window: (70.0, 250.0), rate: scaled_rate(12.0, scale), passes: 2, spoofed: true })
    .with(Exfiltration { source: devices.get(0), sink: Host::external(210), window: (100.0, 280.0), sessions: scaled(4, scale), bytes_per_session: 80_000 })
    .build()
}

/// CICIDS2017: large enterprise site; the first "day" (leading ~40% of the
/// trace) is attack-free, then floods, scans, brute force, and web attacks
/// arrive — mirroring the real dataset's Monday-benign structure.
pub fn cicids2017(scale: ScenarioScale) -> Scenario {
    let clients = HostPool::subnet(3, 50);
    let web_servers = HostPool::external(300, 60);
    let resolver = Host::new(3, 250);
    let smtp = Host::new(3, 251);
    let file_server = Host::new(3, 252);
    let victim_web = Host::new(3, 253);
    let ssh_server = Host::new(3, 254);
    let window = (0.0, 600.0);

    Scenario::builder(DatasetInfo::new(
        "CICIDS2017",
        "Includes traffic from various devices and operating systems. Labelled with 80 features over 5 days.",
        "Comprehensive range of attacks; ideal for evaluating modern IDSs due to diversity and extensive feature set.",
        2017,
    ))
    .with(WebBrowsing { clients: clients.clone(), servers: web_servers, window, sessions: scaled(1700, scale) })
    .with(DnsTraffic { clients: clients.clone(), resolver, window, queries: scaled(3000, scale) })
    .with(SmtpTraffic { clients: clients.clone(), server: smtp, window, messages: scaled(200, scale) })
    .with(FileTransfer { clients: clients.clone(), server: file_server, window, transfers: scaled(45, scale) })
    // Attacks strictly after t=250 (the benign "Monday").
    .with(HttpFlood { bots: HostPool::external(400, 6), victim: victim_web, window: (250.0, 270.0), rate: scaled_rate(1.5, scale) })
    .with(SynFlood { bots: HostPool::external(406, 1), victim: victim_web, dport: 80, window: (300.0, 312.0), rate: scaled_rate(60.0, scale), spoofed: false })
    .with(PortScan { scanner: Host::external(407), target: ssh_server, window: (420.0, 432.0), first_port: 1, ports: scaled(60, scale) as u16, rate: scaled_rate(8.0, scale) })
    .with(BruteForce { attacker: Host::external(408), server: ssh_server, dport: 22, window: (300.0, 340.0), attempts: scaled(15, scale) })
    .with(WebAttack { attacker: Host::external(409), server: victim_web, window: (300.0, 420.0), requests: scaled(20, scale) })
    .with(Stealth { attacker: Host::new(3, 66), server: Host::external(410), dport: 31337, window: (450.0, 590.0), sessions: scaled(15, scale) })
    .build()
}

/// Stratosphere IoT (CTU IoT-23 style): very regular IoT benign traffic
/// with an explicit clean prefix; a botnet infection begins at t=600 —
/// strictly after any 30% training prefix — giving anomaly detectors the
/// well-defined benign baseline the paper credits for their best results.
///
/// The infection is dominated by C2 check-ins that *mimic the site's own
/// MQTT telemetry* (same port, same message sizes): temporal anomaly
/// detectors still see them (fresh external channels), the behavioural/TI
/// modules of Slips catch the periodic and blacklisted halves, but a
/// flow-feature classifier has nothing to separate on — reproducing the
/// DNN's collapse on this dataset in Table IV.
pub fn stratosphere_iot(scale: ScenarioScale) -> Scenario {
    let devices = HostPool::subnet(4, scaled_devices(24, scale));
    let infected_periodic = HostPool::subnet(4, scaled_devices(8, scale));
    // The jittery half of the botnet: device indices 9..16.
    let jittery_hosts: Vec<Host> =
        (0..scaled_devices(8, scale)).map(|i| Host::new(4, (9 + i) as u8)).collect();
    let infected_jittery = HostPool::from_hosts(jittery_hosts);
    let broker = Host::new(4, 200);
    let resolver = Host::new(4, 250);
    // Two controllers: one on the TI blacklist (203.0.1.240/28), one not.
    let c2_listed = Host::external(500);
    let c2_unlisted = Host::external(520);
    let window = (0.0, 1200.0);

    Scenario::builder(DatasetInfo::new(
        "Stratosphere",
        "Focuses on IoT network traffic, with realistic threat and behaviour representation.",
        "Essential for understanding IDS effectiveness in IoT environments due to its focus on realistic IoT-specific threats.",
        2020,
    ))
    .with(IotTelemetry { devices: devices.clone(), broker, window, period: 15.0, jitter: 0.02, payload: 72 })
    .with(NtpSync { devices: devices.clone(), server: Host::external(499), window, period: 120.0 })
    .with(CctvStream { camera: Host::new(4, 101), sink: Host::new(4, 201), window, fps: 1.0, frame_size: 900 })
    .with(CctvStream { camera: Host::new(4, 102), sink: Host::new(4, 201), window, fps: 1.0, frame_size: 880 })
    .with(DnsTraffic { clients: devices.clone(), resolver, window, queries: scaled(400, scale) })
    // Infection strictly after t=480. C2 check-ins mimic telemetry: TCP
    // port 1883, telemetry-sized messages.
    .with(BotnetC2 { bots: infected_periodic.clone(), controller: c2_listed, dport: 1883, window: (600.0, 1200.0), period: 20.0, jitter: 0.03, request: 72, response: 4 })
    .with(BotnetC2 { bots: infected_jittery, controller: c2_unlisted, dport: 1883, window: (600.0, 1200.0), period: 20.0, jitter: 0.45, request: 72, response: 4 })
    .with(AddressSweep { scanner: infected_periodic.get(0), targets: HostPool::subnet(4, 200), dport: 23, window: (700.0, 780.0), rate: scaled_rate(2.0, scale), passes: 1, spoofed: false })
    .with(UdpFlood { bots: infected_periodic.clone(), victim: Host::external(501), dport: 80, window: (700.0, 900.0), rate: scaled_rate(45.0, scale), payload: 400, spoofed: false, per_bot_sport: true })
    .with(Exfiltration { source: infected_periodic.get(1), sink: c2_listed, window: (650.0, 1150.0), sessions: scaled(10, scale), bytes_per_session: 50_000 })
    .build()
}

/// The benign-baseline ablation variant of [`stratosphere_iot`]: the same
/// site and botnet, but the infection runs from `t = 0` — there is no clean
/// benign prefix, so leading-slice training is contaminated (the Section V
/// factor-6 experiment behind `idsbench baseline`).
pub fn stratosphere_iot_contaminated(scale: ScenarioScale) -> Scenario {
    let devices = HostPool::subnet(4, scaled_devices(24, scale));
    let infected_periodic = HostPool::subnet(4, scaled_devices(8, scale));
    let jittery_hosts: Vec<Host> =
        (0..scaled_devices(8, scale)).map(|i| Host::new(4, (9 + i) as u8)).collect();
    let infected_jittery = HostPool::from_hosts(jittery_hosts);
    let broker = Host::new(4, 200);
    let resolver = Host::new(4, 250);
    let c2_listed = Host::external(500);
    let c2_unlisted = Host::external(520);
    let window = (0.0, 1200.0);

    Scenario::builder(DatasetInfo::new(
        "Stratosphere-contaminated",
        "The Stratosphere scenario with the infection active from the first packet.",
        "Ablation: removes the clean benign prefix that leading-slice training depends on.",
        2020,
    ))
    .with(IotTelemetry {
        devices: devices.clone(),
        broker,
        window,
        period: 15.0,
        jitter: 0.02,
        payload: 72,
    })
    .with(NtpSync { devices: devices.clone(), server: Host::external(499), window, period: 120.0 })
    .with(CctvStream {
        camera: Host::new(4, 101),
        sink: Host::new(4, 201),
        window,
        fps: 1.0,
        frame_size: 900,
    })
    .with(CctvStream {
        camera: Host::new(4, 102),
        sink: Host::new(4, 201),
        window,
        fps: 1.0,
        frame_size: 880,
    })
    .with(DnsTraffic { clients: devices.clone(), resolver, window, queries: scaled(400, scale) })
    .with(BotnetC2 {
        bots: infected_periodic.clone(),
        controller: c2_listed,
        dport: 1883,
        window,
        period: 20.0,
        jitter: 0.03,
        request: 72,
        response: 4,
    })
    .with(BotnetC2 {
        bots: infected_jittery,
        controller: c2_unlisted,
        dport: 1883,
        window,
        period: 20.0,
        jitter: 0.45,
        request: 72,
        response: 4,
    })
    .with(AddressSweep {
        scanner: infected_periodic.get(0),
        targets: HostPool::subnet(4, 200),
        dport: 23,
        window: (100.0, 180.0),
        rate: scaled_rate(2.0, scale),
        passes: 1,
        spoofed: false,
    })
    .with(UdpFlood {
        bots: infected_periodic.clone(),
        victim: Host::external(501),
        dport: 80,
        window: (100.0, 300.0),
        rate: scaled_rate(45.0, scale),
        payload: 400,
        spoofed: false,
        per_bot_sport: true,
    })
    .with(Exfiltration {
        source: infected_periodic.get(1),
        sink: c2_listed,
        window: (50.0, 1150.0),
        sessions: scaled(10, scale),
        bytes_per_session: 50_000,
    })
    .build()
}

/// Mirai (the Kitsune capture): a quiet IoT site, then the Mirai lifecycle —
/// telnet sweeps and loader downloads from t=150, massive floods from t=350
/// — ending with attack traffic dominating the packet count (~85–90%), as
/// in the original capture.
pub fn mirai(scale: ScenarioScale) -> Scenario {
    let devices = HostPool::subnet(5, scaled_devices(12, scale));
    let infected = HostPool::subnet(5, scaled_devices(6, scale));
    let broker = Host::new(5, 200);
    let resolver = Host::new(5, 250);
    let loader = Host::external(600);
    let victim = Host::external(601);
    let window = (0.0, 600.0);

    Scenario::builder(DatasetInfo::new(
        "Mirai",
        "Data specific to Mirai botnet attacks, used with the Kitsune IDS.",
        "Demonstrates significant Mirai threat in IoT, allowing for practical assessment of IDS capabilities against IoT botnets.",
        2018,
    ))
    .with(DeviceBoot { devices: devices.clone(), broker, resolver, ntp: Host::external(599), window: (0.0, 140.0), sessions_per_device: scaled(60, scale) })
    .with(IotTelemetry { devices: devices.clone(), broker, window, period: 20.0, jitter: 0.02, payload: 64 })
    .with(CctvStream { camera: Host::new(5, 101), sink: Host::new(5, 201), window, fps: 1.0, frame_size: 950 })
    .with(DnsTraffic { clients: devices.clone(), resolver, window, queries: scaled(150, scale) })
    .with(NtpSync { devices: devices.clone(), server: Host::external(599), window, period: 120.0 })
    // Propagation from t=150, floods from t=350.
    .with(MiraiPropagation { infected: infected.clone(), targets: HostPool::subnet(6, 250), loader, window: (150.0, 600.0), rate: scaled_rate(14.0, scale), success_rate: 0.02 })
    .with(SynFlood { bots: infected.clone(), victim, dport: 80, window: (350.0, 600.0), rate: scaled_rate(60.0, scale), spoofed: false })
    .with(UdpFlood { bots: infected.clone(), victim, dport: 53, window: (420.0, 600.0), rate: scaled_rate(40.0, scale), payload: 470, spoofed: false, per_bot_sport: false })
    .build()
}

/// All five Table IV scenarios in row order.
///
/// Prefer `idsbench_trafficgen::registry` for scenario construction — it
/// names these five (tier `Legacy`) alongside the adversarial workload
/// library behind one `TrafficModel` contract. This constructor list
/// remains for consumers that want the concrete [`Scenario`] type.
pub fn table4_scenarios(scale: ScenarioScale) -> Vec<Scenario> {
    vec![unsw_nb15(scale), bot_iot(scale), cicids2017(scale), stratosphere_iot(scale), mirai(scale)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_core::Dataset;

    #[test]
    fn scenarios_are_deterministic() {
        let scenario = stratosphere_iot(ScenarioScale::Tiny);
        assert_eq!(scenario.generate(3).len(), scenario.generate(3).len());
        let a = scenario.generate(3);
        let b = scenario.generate(3);
        assert_eq!(a, b);
    }

    #[test]
    fn unsw_composition_is_benign_heavy() {
        let stats = unsw_nb15(ScenarioScale::Tiny).stats(1);
        assert!(stats.packets > 500, "packets = {}", stats.packets);
        let share = stats.attack_share();
        assert!((0.05..0.30).contains(&share), "attack share = {share}");
    }

    #[test]
    fn bot_iot_composition_is_attack_dominated() {
        let stats = bot_iot(ScenarioScale::Tiny).stats(1);
        let share = stats.attack_share();
        assert!(share > 0.80, "attack share = {share}");
    }

    #[test]
    fn cicids_attacks_start_after_benign_day() {
        let packets = cicids2017(ScenarioScale::Tiny).generate(2);
        let first_attack = packets
            .iter()
            .find(|p| p.is_attack())
            .map(|p| p.packet.ts.as_secs_f64())
            .expect("attacks exist");
        assert!(first_attack >= 250.0, "first attack at {first_attack}");
    }

    #[test]
    fn stratosphere_prefix_is_clean() {
        let packets = stratosphere_iot(ScenarioScale::Tiny).generate(2);
        let first_attack = packets
            .iter()
            .find(|p| p.is_attack())
            .map(|p| p.packet.ts.as_secs_f64())
            .expect("attacks exist");
        assert!(first_attack >= 480.0, "first attack at {first_attack}");
        // The training prefix (leading 30% of packets) must be clean.
        let cut = packets.len() * 3 / 10;
        assert!(packets[..cut].iter().all(|p| !p.is_attack()));
        let share = crate::scenario::TrafficStats::of(&packets).attack_share();
        assert!((0.08..0.40).contains(&share), "attack share = {share}");
    }

    #[test]
    fn mirai_is_attack_heavy_with_clean_start() {
        let packets = mirai(ScenarioScale::Tiny).generate(2);
        let share = crate::scenario::TrafficStats::of(&packets).attack_share();
        assert!(share > 0.5, "attack share = {share}");
        let first_attack = packets
            .iter()
            .find(|p| p.is_attack())
            .map(|p| p.packet.ts.as_secs_f64())
            .expect("attacks exist");
        assert!(first_attack >= 150.0, "first attack at {first_attack}");
    }

    #[test]
    fn table4_scenarios_have_table2_names() {
        let names: Vec<String> =
            table4_scenarios(ScenarioScale::Tiny).iter().map(|s| s.info().name.clone()).collect();
        assert_eq!(names, vec!["UNSW-NB15", "BoT IoT", "CICIDS2017", "Stratosphere", "Mirai"]);
    }

    #[test]
    fn scale_orders_packet_counts() {
        let tiny = unsw_nb15(ScenarioScale::Tiny).stats(1).packets;
        let small = unsw_nb15(ScenarioScale::Small).stats(1).packets;
        assert!(small > tiny * 2, "tiny {tiny}, small {small}");
    }
}
