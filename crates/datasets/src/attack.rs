//! Attack traffic generators, one per [`AttackKind`] family.
//!
//! Loudness varies deliberately: volumetric floods and sweeps dominate
//! packet counts (BoT-IoT, Mirai), while the UNSW-style stealth families
//! hide inside the benign envelope — the axis along which the paper explains
//! every detector's wins and losses.

use idsbench_core::{AttackKind, Label, LabeledPacket};
use idsbench_net::TcpFlags;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::host::{Host, HostPool};
use crate::scenario::TrafficGenerator;
use crate::session::{exponential_gap, pareto, SessionEmitter};

/// TCP SYN flood against one victim service.
///
/// With `spoofed = true` every packet carries a random source IP, so no
/// per-source profile ever accumulates more than one flow — the property
/// that blinds Slips on BoT-IoT.
#[derive(Debug, Clone)]
pub struct SynFlood {
    /// Sending bots (their MACs stay on the wire even when spoofing).
    pub bots: HostPool,
    /// The victim.
    pub victim: Host,
    /// Victim port.
    pub dport: u16,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Aggregate packets per second.
    pub rate: f64,
    /// Spoof source addresses per packet.
    pub spoofed: bool,
}

impl TrafficGenerator for SynFlood {
    fn name(&self) -> &str {
        "syn-flood"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::SynFlood));
        let mut t = self.window.0;
        while t < self.window.1 {
            let bot = self.bots.pick(rng);
            let src = if self.spoofed { Host::spoofed(bot.mac, rng) } else { bot };
            let sport = rng.random_range(1024..65535);
            let seq: u32 = rng.random();
            emitter.tcp_packet(src, self.victim, sport, self.dport, TcpFlags::SYN, seq, 0, 0, t);
            t += exponential_gap(rng, 1.0 / self.rate);
        }
    }
}

/// UDP flood against one victim.
#[derive(Debug, Clone)]
pub struct UdpFlood {
    /// Sending bots.
    pub bots: HostPool,
    /// The victim.
    pub victim: Host,
    /// Victim port.
    pub dport: u16,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Aggregate packets per second.
    pub rate: f64,
    /// Payload bytes per packet.
    pub payload: usize,
    /// Spoof source addresses per packet.
    pub spoofed: bool,
    /// Use one fixed source port per bot (the flood aggregates into a few
    /// long flows) instead of a random port per packet (every packet its
    /// own flow). Flooding tools exist in both shapes; the choice moves the
    /// attack's weight between packet-level and flow-level metrics.
    pub per_bot_sport: bool,
}

impl TrafficGenerator for UdpFlood {
    fn name(&self) -> &str {
        "udp-flood"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::UdpFlood));
        let mut t = self.window.0;
        let mut index = 0usize;
        while t < self.window.1 {
            index += 1;
            let bot_index = index % self.bots.len();
            let bot = self.bots.get(bot_index);
            let src = if self.spoofed { Host::spoofed(bot.mac, rng) } else { bot };
            let sport = if self.per_bot_sport {
                5000 + bot_index as u16
            } else {
                rng.random_range(1024..65535)
            };
            let size = self.payload + rng.random_range(0..64);
            emitter.udp_packet(src, self.victim, sport, self.dport, size, t);
            t += exponential_gap(rng, 1.0 / self.rate);
        }
    }
}

/// Application-layer HTTP request flood: complete short sessions at high
/// rate from real (non-spoofed) bot addresses.
#[derive(Debug, Clone)]
pub struct HttpFlood {
    /// Attacking hosts.
    pub bots: HostPool,
    /// The victim web server.
    pub victim: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Aggregate requests per second.
    pub rate: f64,
}

impl TrafficGenerator for HttpFlood {
    fn name(&self) -> &str {
        "http-flood"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::HttpFlood));
        let mut t = self.window.0;
        while t < self.window.1 {
            let bot = self.bots.pick(rng);
            let sport = rng.random_range(1024..65535);
            // Identical minimal GETs, tiny error response: rigid and fast.
            emitter.tcp_session(bot, self.victim, sport, 80, t, &[(220, 420)], 0.001, rng);
            t += exponential_gap(rng, 1.0 / self.rate);
        }
    }
}

/// Vertical port scan: one scanner probes many ports on one target.
#[derive(Debug, Clone)]
pub struct PortScan {
    /// The scanning host.
    pub scanner: Host,
    /// The scanned target.
    pub target: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// First port probed.
    pub first_port: u16,
    /// Number of ports probed (sequentially).
    pub ports: u16,
    /// Probes per second.
    pub rate: f64,
}

impl TrafficGenerator for PortScan {
    fn name(&self) -> &str {
        "port-scan"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::PortScan));
        let mut t = self.window.0;
        for offset in 0..self.ports {
            if t >= self.window.1 {
                break;
            }
            let sport = rng.random_range(32768..61000);
            emitter.syn_probe(
                self.scanner,
                self.target,
                sport,
                self.first_port.wrapping_add(offset),
                t,
                0.85,
                rng,
            );
            t += exponential_gap(rng, 1.0 / self.rate);
        }
    }
}

/// Horizontal sweep: one scanner probes the same port across a subnet.
#[derive(Debug, Clone)]
pub struct AddressSweep {
    /// The scanning host.
    pub scanner: Host,
    /// Swept targets.
    pub targets: HostPool,
    /// Swept port.
    pub dport: u16,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Probes per second.
    pub rate: f64,
    /// Sweep passes over the target pool.
    pub passes: usize,
    /// Spoof the probe source address (per-probe), as BoT-IoT's scan
    /// tooling does — leaving no per-source profile for behavioural IDSs.
    pub spoofed: bool,
}

impl TrafficGenerator for AddressSweep {
    fn name(&self) -> &str {
        "address-sweep"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::AddressSweep));
        let mut t = self.window.0;
        'outer: for _ in 0..self.passes {
            for index in 0..self.targets.len() {
                if t >= self.window.1 {
                    break 'outer;
                }
                let src =
                    if self.spoofed { Host::spoofed(self.scanner.mac, rng) } else { self.scanner };
                let sport = rng.random_range(32768..61000);
                emitter.syn_probe(src, self.targets.get(index), sport, self.dport, t, 0.3, rng);
                t += exponential_gap(rng, 1.0 / self.rate);
            }
        }
    }
}

/// SSH/FTP credential brute force: repeated short authentication sessions
/// from one attacker to one server.
#[derive(Debug, Clone)]
pub struct BruteForce {
    /// The attacking host.
    pub attacker: Host,
    /// The authentication server.
    pub server: Host,
    /// Service port (22 for SSH, 21 for FTP).
    pub dport: u16,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Login attempts.
    pub attempts: usize,
}

impl TrafficGenerator for BruteForce {
    fn name(&self) -> &str {
        "brute-force"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let span = (self.window.1 - self.window.0).max(1e-6);
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::BruteForce));
        let gap = span / self.attempts.max(1) as f64;
        let mut t = self.window.0;
        for _ in 0..self.attempts {
            let sport = rng.random_range(32768..61000);
            // Banner, auth attempt, rejection — all small and near-identical.
            emitter.tcp_session(
                self.attacker,
                self.server,
                sport,
                self.dport,
                t,
                &[(30, 90), (70, 40)],
                0.02,
                rng,
            );
            t += gap * rng.random_range(0.6..1.4);
        }
    }
}

/// Periodic botnet C2 beaconing: infected devices poll their controller on
/// a fixed interval — the signature Slips' behavioural model is built to
/// catch.
#[derive(Debug, Clone)]
pub struct BotnetC2 {
    /// Infected devices.
    pub bots: HostPool,
    /// The C2 server.
    pub controller: Host,
    /// C2 port.
    pub dport: u16,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Beacon period, seconds.
    pub period: f64,
    /// Uniform jitter as a fraction of the period. Low jitter (< ~0.1)
    /// makes the beacon periodic enough for behavioural detection; high
    /// jitter models HTTP-polling C2 that evades it.
    pub jitter: f64,
    /// Bytes sent per check-in.
    pub request: usize,
    /// Bytes returned per check-in. Matching these to the site's benign
    /// telemetry makes C2 flows feature-indistinguishable for flow-feature
    /// classifiers (the Stratosphere DNN collapse in Table IV).
    pub response: usize,
}

impl TrafficGenerator for BotnetC2 {
    fn name(&self) -> &str {
        "botnet-c2"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::BotnetC2));
        for (index, &bot) in self.bots.hosts().iter().enumerate() {
            let sport = 45_000 + (index as u16 % 10_000);
            let phase = rng.random_range(0.0..self.period);
            let mut t = self.window.0 + phase;
            while t < self.window.1 {
                let jitter = self.period * self.jitter * rng.random_range(-1.0..1.0);
                // Check-in shaped exactly like an MQTT publish (request with
                // small jitter, fixed-size ack) so the flow is
                // indistinguishable from telemetry by shape alone.
                let request = self.request + rng.random_range(0..8);
                emitter.tcp_session(
                    bot,
                    self.controller,
                    sport,
                    self.dport,
                    (t + jitter).max(self.window.0),
                    &[(request, self.response)],
                    0.001,
                    rng,
                );
                t += self.period;
            }
        }
    }
}

/// Mirai propagation: infected devices sweep telnet across address space
/// and occasionally "succeed", triggering a credential exchange and a
/// binary download from the loader.
#[derive(Debug, Clone)]
pub struct MiraiPropagation {
    /// Already-infected devices doing the scanning.
    pub infected: HostPool,
    /// Scan victims.
    pub targets: HostPool,
    /// The loader serving the bot binary.
    pub loader: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Aggregate probes per second.
    pub rate: f64,
    /// Probability a probe finds an open telnet port.
    pub success_rate: f64,
}

impl TrafficGenerator for MiraiPropagation {
    fn name(&self) -> &str {
        "mirai-propagation"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::MiraiPropagation));
        let mut t = self.window.0;
        while t < self.window.1 {
            let scanner = self.infected.pick(rng);
            let target = self.targets.pick(rng);
            let sport = rng.random_range(1024..65535);
            let dport = if rng.random_range(0.0..1.0) < 0.8 { 23 } else { 2323 };
            if rng.random_range(0.0..1.0) < self.success_rate {
                // Credential brute + report + loader download.
                emitter.tcp_session(
                    scanner,
                    target,
                    sport,
                    dport,
                    t,
                    &[(40, 60), (60, 30)],
                    0.05,
                    rng,
                );
                let dl_port = rng.random_range(32768..61000);
                emitter.tcp_session(
                    target,
                    self.loader,
                    dl_port,
                    80,
                    t + 0.4,
                    &[(120, 60_000)],
                    0.01,
                    rng,
                );
            } else {
                emitter.syn_probe(scanner, target, sport, dport, t, 0.15, rng);
            }
            t += exponential_gap(rng, 1.0 / self.rate);
        }
    }
}

/// Bulk exfiltration: long-lived, upload-heavy sessions from one internal
/// host to an external sink.
#[derive(Debug, Clone)]
pub struct Exfiltration {
    /// The compromised internal host.
    pub source: Host,
    /// The external collection point.
    pub sink: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Upload sessions.
    pub sessions: usize,
    /// Bytes per session (heavy-tailed around this).
    pub bytes_per_session: usize,
}

impl TrafficGenerator for Exfiltration {
    fn name(&self) -> &str {
        "exfiltration"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let span = (self.window.1 - self.window.0).max(1e-6);
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::Exfiltration));
        for _ in 0..self.sessions {
            let start = self.window.0 + rng.random_range(0.0..span);
            let sport = rng.random_range(32768..61000);
            let size = (self.bytes_per_session as f64 * rng.random_range(0.5..2.0)) as usize;
            emitter.tcp_session(
                self.source,
                self.sink,
                sport,
                443,
                start,
                &[(size, 200)],
                0.01,
                rng,
            );
        }
    }
}

/// Low-rate protocol fuzzing: odd-sized probes against one service from one
/// host (UNSW-NB15 "Fuzzers").
#[derive(Debug, Clone)]
pub struct Fuzzing {
    /// The fuzzing host.
    pub attacker: Host,
    /// The fuzzed service.
    pub target: Host,
    /// Service port.
    pub dport: u16,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Probes per second.
    pub rate: f64,
}

impl TrafficGenerator for Fuzzing {
    fn name(&self) -> &str {
        "fuzzing"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::Fuzzing));
        let mut t = self.window.0;
        while t < self.window.1 {
            let sport = rng.random_range(32768..61000);
            // Malformed-looking bursts: random odd sizes, no meaningful reply.
            let size = pareto(rng, 20.0, 1.1, 4000.0) as usize;
            emitter.tcp_session(
                self.attacker,
                self.target,
                sport,
                self.dport,
                t,
                &[(size, 40)],
                0.005,
                rng,
            );
            t += exponential_gap(rng, 1.0 / self.rate);
        }
    }
}

/// Stealthy backdoor/analysis traffic shaped to sit inside the benign
/// envelope: browsing-like session sizes and think times, but to an unusual
/// destination port — invisible to temporal anomaly detectors, separable by
/// flow features (the UNSW-NB15 DNN-vs-Kitsune split in Table IV).
#[derive(Debug, Clone)]
pub struct Stealth {
    /// The attacking host.
    pub attacker: Host,
    /// The contacted server.
    pub server: Host,
    /// The characteristic port (e.g. 31337, 6667).
    pub dport: u16,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Sessions across the window.
    pub sessions: usize,
}

impl TrafficGenerator for Stealth {
    fn name(&self) -> &str {
        "stealth"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let span = (self.window.1 - self.window.0).max(1e-6);
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::Stealth));
        for _ in 0..self.sessions {
            let start = self.window.0 + rng.random_range(0.0..span);
            let sport = rng.random_range(32768..61000);
            let count = rng.random_range(1..4);
            let exchanges: Vec<(usize, usize)> = (0..count)
                .map(|_| (rng.random_range(150..600), rng.random_range(800..8000)))
                .collect();
            emitter.tcp_session(
                self.attacker,
                self.server,
                sport,
                self.dport,
                start,
                &exchanges,
                0.7,
                rng,
            );
        }
    }
}

/// Web application attack: HTTP sessions whose *requests* are oversized
/// (injection payloads), inverting the usual request/response ratio.
#[derive(Debug, Clone)]
pub struct WebAttack {
    /// The attacking host.
    pub attacker: Host,
    /// The victim web server.
    pub server: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Malicious requests.
    pub requests: usize,
}

impl TrafficGenerator for WebAttack {
    fn name(&self) -> &str {
        "web-attack"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let span = (self.window.1 - self.window.0).max(1e-6);
        let mut emitter = SessionEmitter::new(out, Label::Attack(AttackKind::WebAttack));
        for _ in 0..self.requests {
            let start = self.window.0 + rng.random_range(0.0..span);
            let sport = rng.random_range(32768..61000);
            let injected = rng.random_range(2_000..12_000);
            emitter.tcp_session(
                self.attacker,
                self.server,
                sport,
                80,
                start,
                &[(injected, 600)],
                0.05,
                rng,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_net::ParsedPacket;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn run(generator: &dyn TrafficGenerator, seed: u64) -> Vec<LabeledPacket> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        generator.generate(&mut rng, &mut out);
        out
    }

    #[test]
    fn spoofed_syn_flood_mints_sources() {
        let flood = SynFlood {
            bots: HostPool::subnet(9, 3),
            victim: Host::new(1, 10),
            dport: 80,
            window: (0.0, 1.0),
            rate: 500.0,
            spoofed: true,
        };
        let packets = run(&flood, 1);
        assert!(packets.len() > 300);
        let sources: HashSet<std::net::IpAddr> = packets
            .iter()
            .map(|p| ParsedPacket::parse(&p.packet).unwrap().src_ip().unwrap())
            .collect();
        assert!(sources.len() > packets.len() / 2, "spoofing must mint many sources");
        assert!(packets.iter().all(|p| p.label == Label::Attack(AttackKind::SynFlood)));
    }

    #[test]
    fn port_scan_covers_ports() {
        let scan = PortScan {
            scanner: Host::new(9, 1),
            target: Host::new(1, 5),
            window: (0.0, 100.0),
            first_port: 1,
            ports: 200,
            rate: 50.0,
        };
        let packets = run(&scan, 2);
        let ports: HashSet<u16> = packets
            .iter()
            .filter_map(|p| {
                let parsed = ParsedPacket::parse(&p.packet).unwrap();
                // Only count probes (to the target), not RSTs back.
                (parsed.dst_ip() == Some(Host::new(1, 5).ip.into()))
                    .then(|| parsed.dst_port().unwrap())
            })
            .collect();
        assert_eq!(ports.len(), 200);
    }

    #[test]
    fn c2_beacons_are_periodic_per_bot() {
        let c2 = BotnetC2 {
            bots: HostPool::subnet(2, 1),
            controller: Host::external(500),
            dport: 8080,
            window: (0.0, 300.0),
            period: 30.0,
            jitter: 0.02,
            request: 90,
            response: 180,
        };
        let packets = run(&c2, 3);
        let syns: Vec<f64> = packets
            .iter()
            .filter(|p| {
                let parsed = ParsedPacket::parse(&p.packet).unwrap();
                parsed.tcp().map(|t| t.flags == TcpFlags::SYN).unwrap_or(false)
            })
            .map(|p| p.packet.ts.as_secs_f64())
            .collect();
        assert!(syns.len() >= 9, "expected ~10 beacons, got {}", syns.len());
        for pair in syns.windows(2) {
            assert!((pair[1] - pair[0] - 30.0).abs() < 3.0);
        }
    }

    #[test]
    fn exfiltration_is_upload_heavy() {
        let exfil = Exfiltration {
            source: Host::new(1, 7),
            sink: Host::external(900),
            window: (0.0, 100.0),
            sessions: 5,
            bytes_per_session: 100_000,
        };
        let packets = run(&exfil, 4);
        let (mut up, mut down) = (0u64, 0u64);
        for p in &packets {
            let parsed = ParsedPacket::parse(&p.packet).unwrap();
            if parsed.dst_port() == Some(443) {
                up += u64::from(parsed.payload_len);
            } else {
                down += u64::from(parsed.payload_len);
            }
        }
        assert!(up > down * 20, "uploads must dominate: up {up} down {down}");
    }

    #[test]
    fn mirai_propagation_mixes_probes_and_downloads() {
        let mirai = MiraiPropagation {
            infected: HostPool::subnet(5, 4),
            targets: HostPool::subnet(6, 50),
            loader: Host::external(600),
            window: (0.0, 20.0),
            rate: 50.0,
            success_rate: 0.05,
        };
        let packets = run(&mirai, 5);
        let telnet_probes = packets
            .iter()
            .filter(|p| {
                let parsed = ParsedPacket::parse(&p.packet).unwrap();
                matches!(parsed.dst_port(), Some(23) | Some(2323))
            })
            .count();
        let downloads = packets
            .iter()
            .filter(|p| {
                let parsed = ParsedPacket::parse(&p.packet).unwrap();
                parsed.src_ip() == Some(Host::external(600).ip.into()) && parsed.payload_len > 1000
            })
            .count();
        assert!(telnet_probes > 100, "telnet probes: {telnet_probes}");
        assert!(downloads > 0, "at least one loader download expected");
    }

    #[test]
    fn stealth_sessions_look_like_browsing_but_use_odd_port() {
        let stealth = Stealth {
            attacker: Host::new(1, 66),
            server: Host::external(700),
            dport: 31337,
            window: (0.0, 100.0),
            sessions: 10,
        };
        let packets = run(&stealth, 6);
        for p in &packets {
            let parsed = ParsedPacket::parse(&p.packet).unwrap();
            let ports = (parsed.src_port().unwrap(), parsed.dst_port().unwrap());
            assert!(ports.0 == 31337 || ports.1 == 31337);
        }
        // Sizes stay within a browsing-like envelope (no > 10 KB bursts).
        for p in &packets {
            assert!(p.packet.wire_len() < 1600);
        }
    }

    #[test]
    fn brute_force_sessions_are_short_and_repeated() {
        let brute = BruteForce {
            attacker: Host::external(800),
            server: Host::new(1, 22),
            dport: 22,
            window: (0.0, 60.0),
            attempts: 20,
        };
        let packets = run(&brute, 7);
        let syns = packets
            .iter()
            .filter(|p| {
                ParsedPacket::parse(&p.packet)
                    .unwrap()
                    .tcp()
                    .map(|t| t.flags == TcpFlags::SYN)
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(syns, 20);
    }

    #[test]
    fn all_generators_label_consistently() {
        let sweep = AddressSweep {
            scanner: Host::new(9, 9),
            targets: HostPool::subnet(1, 30),
            dport: 23,
            window: (0.0, 10.0),
            rate: 100.0,
            passes: 2,
            spoofed: false,
        };
        for p in run(&sweep, 8) {
            assert_eq!(p.label, Label::Attack(AttackKind::AddressSweep));
        }
    }
}
