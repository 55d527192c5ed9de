//! Benign traffic generators.
//!
//! Two families, matching the paper's dataset taxonomy:
//!
//! * **Enterprise** traffic (UNSW-NB15, CICIDS2017): heavy-tailed web
//!   browsing, DNS, mail, and bulk file transfer — bursty and diverse, which
//!   is exactly what drives anomaly-detector false positives (Section V
//!   factor 1).
//! * **IoT** traffic (Stratosphere, BoT-IoT, Mirai): periodic telemetry,
//!   NTP, and constant-rate camera streams — highly regular, giving anomaly
//!   detectors a clean baseline (Section VI-B-2).

use idsbench_core::{Label, LabeledPacket};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::host::{Host, HostPool};
use crate::scenario::TrafficGenerator;
use crate::session::{exponential_gap, pareto, SessionEmitter};

/// Heavy-tailed enterprise web browsing: clients open sessions to web
/// servers at Poisson arrivals; response sizes are bounded-Pareto.
#[derive(Debug, Clone)]
pub struct WebBrowsing {
    /// Browsing clients.
    pub clients: HostPool,
    /// Web servers (internal or external).
    pub servers: HostPool,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Total sessions across the window.
    pub sessions: usize,
}

impl TrafficGenerator for WebBrowsing {
    fn name(&self) -> &str {
        "web-browsing"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let span = self.window.1 - self.window.0;
        let mut emitter = SessionEmitter::new(out, Label::Benign);
        for _ in 0..self.sessions {
            let start = self.window.0 + rng.random_range(0.0..span.max(1e-6));
            let client = self.clients.pick(rng);
            let server = self.servers.pick(rng);
            let sport = rng.random_range(32768..61000);
            let dport = if rng.random_range(0.0..1.0) < 0.7 { 443 } else { 80 };
            // 1-8 request/response exchanges, heavy-tailed response sizes.
            let count = 1 + (pareto(rng, 1.0, 1.6, 8.0) as usize).min(8);
            let exchanges: Vec<(usize, usize)> = (0..count)
                .map(|_| {
                    let request = rng.random_range(120..900);
                    let response = pareto(rng, 400.0, 1.25, 200_000.0) as usize;
                    (request, response)
                })
                .collect();
            let think = exponential_gap(rng, 0.8);
            emitter.tcp_session(client, server, sport, dport, start, &exchanges, think, rng);
        }
    }
}

/// DNS lookups: small UDP query/response pairs at Poisson arrivals.
#[derive(Debug, Clone)]
pub struct DnsTraffic {
    /// Querying clients.
    pub clients: HostPool,
    /// The site resolver.
    pub resolver: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Total queries across the window.
    pub queries: usize,
}

impl TrafficGenerator for DnsTraffic {
    fn name(&self) -> &str {
        "dns"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let span = self.window.1 - self.window.0;
        let mut emitter = SessionEmitter::new(out, Label::Benign);
        for _ in 0..self.queries {
            let t = self.window.0 + rng.random_range(0.0..span.max(1e-6));
            let client = self.clients.pick(rng);
            let sport = rng.random_range(32768..61000);
            let query = rng.random_range(40..90);
            let response = rng.random_range(80..400);
            emitter.udp_exchange(client, self.resolver, sport, 53, t, query, response, rng);
        }
    }
}

/// Outbound mail: client-heavy TCP sessions to an SMTP server.
#[derive(Debug, Clone)]
pub struct SmtpTraffic {
    /// Sending clients.
    pub clients: HostPool,
    /// The mail server.
    pub server: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Messages sent across the window.
    pub messages: usize,
}

impl TrafficGenerator for SmtpTraffic {
    fn name(&self) -> &str {
        "smtp"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let span = self.window.1 - self.window.0;
        let mut emitter = SessionEmitter::new(out, Label::Benign);
        for _ in 0..self.messages {
            let start = self.window.0 + rng.random_range(0.0..span.max(1e-6));
            let client = self.clients.pick(rng);
            let sport = rng.random_range(32768..61000);
            let body = pareto(rng, 800.0, 1.4, 300_000.0) as usize;
            // EHLO/AUTH chatter then the upload.
            let exchanges = [(60, 250), (120, 80), (body, 120)];
            emitter.tcp_session(client, self.server, sport, 587, start, &exchanges, 0.05, rng);
        }
    }
}

/// Bulk file downloads from an internal file server (SMB/HTTP-like).
#[derive(Debug, Clone)]
pub struct FileTransfer {
    /// Downloading clients.
    pub clients: HostPool,
    /// The file server.
    pub server: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Transfers across the window.
    pub transfers: usize,
}

impl TrafficGenerator for FileTransfer {
    fn name(&self) -> &str {
        "file-transfer"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let span = self.window.1 - self.window.0;
        let mut emitter = SessionEmitter::new(out, Label::Benign);
        for _ in 0..self.transfers {
            let start = self.window.0 + rng.random_range(0.0..span.max(1e-6));
            let client = self.clients.pick(rng);
            let sport = rng.random_range(32768..61000);
            let size = pareto(rng, 20_000.0, 1.2, 500_000.0) as usize;
            let exchanges = [(200, size)];
            emitter.tcp_session(client, self.server, sport, 445, start, &exchanges, 0.01, rng);
        }
    }
}

/// Periodic IoT telemetry: each device publishes a small message to the
/// broker every `period` seconds (MQTT-style, TCP/1883), with small jitter.
/// The regularity of this traffic is what gives anomaly detectors their
/// clean IoT baseline.
#[derive(Debug, Clone)]
pub struct IotTelemetry {
    /// Publishing devices.
    pub devices: HostPool,
    /// The broker.
    pub broker: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Publish period per device, seconds.
    pub period: f64,
    /// Uniform jitter applied to each publish, as a fraction of the period.
    pub jitter: f64,
    /// Payload bytes per publish.
    pub payload: usize,
}

impl TrafficGenerator for IotTelemetry {
    fn name(&self) -> &str {
        "iot-telemetry"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let mut emitter = SessionEmitter::new(out, Label::Benign);
        for (index, &device) in self.devices.hosts().iter().enumerate() {
            // Stable per-device source port: each device keeps a long-lived
            // broker connection in real deployments; here each publish is a
            // short session on the device's characteristic port.
            let sport = 40_000 + (index as u16 % 20_000);
            let phase = rng.random_range(0.0..self.period);
            let mut t = self.window.0 + phase;
            while t < self.window.1 {
                let jitter = self.period * self.jitter * rng.random_range(-1.0..1.0);
                let size = self.payload + rng.random_range(0..8);
                emitter.tcp_session(
                    device,
                    self.broker,
                    sport,
                    1883,
                    (t + jitter).max(self.window.0),
                    &[(size, 4)],
                    0.001,
                    rng,
                );
                t += self.period;
            }
        }
    }
}

/// Device provisioning / boot churn: a dense burst of setup traffic (DNS
/// lookups, NTP syncs, broker registrations) emitted when an IoT testbed is
/// brought up. The real BoT-IoT and Mirai captures begin with exactly this
/// benign phase before the attack tooling starts, which is what gives
/// leading-slice anomaly detectors a usable baseline there.
#[derive(Debug, Clone)]
pub struct DeviceBoot {
    /// Booting devices.
    pub devices: HostPool,
    /// The broker devices register with.
    pub broker: Host,
    /// The site resolver.
    pub resolver: Host,
    /// The NTP server.
    pub ntp: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Setup sessions per device across the window.
    pub sessions_per_device: usize,
}

impl TrafficGenerator for DeviceBoot {
    fn name(&self) -> &str {
        "device-boot"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let span = (self.window.1 - self.window.0).max(1e-6);
        let mut emitter = SessionEmitter::new(out, Label::Benign);
        for &device in self.devices.hosts() {
            for _ in 0..self.sessions_per_device {
                let t = self.window.0 + rng.random_range(0.0..span);
                let sport = rng.random_range(32768..61000);
                // Lookup, clock sync, then a registration exchange.
                emitter.udp_exchange(device, self.resolver, sport, 53, t, 60, 180, rng);
                emitter.udp_exchange(device, self.ntp, 123, 123, t + 0.03, 48, 48, rng);
                let reg = rng.random_range(80..300);
                let ack = rng.random_range(16..64);
                emitter.tcp_session(
                    device,
                    self.broker,
                    sport,
                    1883,
                    t + 0.06,
                    &[(reg, ack), (64, 8)],
                    0.02,
                    rng,
                );
            }
        }
    }
}

/// Periodic NTP synchronisation (UDP/123).
#[derive(Debug, Clone)]
pub struct NtpSync {
    /// Synchronising devices.
    pub devices: HostPool,
    /// The NTP server.
    pub server: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Sync period per device, seconds.
    pub period: f64,
}

impl TrafficGenerator for NtpSync {
    fn name(&self) -> &str {
        "ntp"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let mut emitter = SessionEmitter::new(out, Label::Benign);
        for &device in self.devices.hosts() {
            let phase = rng.random_range(0.0..self.period);
            let mut t = self.window.0 + phase;
            while t < self.window.1 {
                emitter.udp_exchange(device, self.server, 123, 123, t, 48, 48, rng);
                t += self.period * rng.random_range(0.98..1.02);
            }
        }
    }
}

/// A constant-rate camera stream: fixed-size UDP frames at a steady frame
/// rate from a camera to a recorder.
#[derive(Debug, Clone)]
pub struct CctvStream {
    /// The camera.
    pub camera: Host,
    /// The recorder/NVR.
    pub sink: Host,
    /// Active window `(start, end)` in seconds.
    pub window: (f64, f64),
    /// Frames per second.
    pub fps: f64,
    /// Bytes per frame packet.
    pub frame_size: usize,
}

impl TrafficGenerator for CctvStream {
    fn name(&self) -> &str {
        "cctv-stream"
    }

    fn generate(&self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
        let mut emitter = SessionEmitter::new(out, Label::Benign);
        let gap = 1.0 / self.fps.max(1e-6);
        let mut t = self.window.0 + rng.random_range(0.0..gap);
        while t < self.window.1 {
            let size = self.frame_size + rng.random_range(0..32);
            emitter.udp_packet(self.camera, self.sink, 5004, 5004, size, t);
            t += gap * rng.random_range(0.995..1.005);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_net::ParsedPacket;
    use rand::SeedableRng;

    fn run(generator: &dyn TrafficGenerator, seed: u64) -> Vec<LabeledPacket> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        generator.generate(&mut rng, &mut out);
        out
    }

    #[test]
    fn web_browsing_is_heavy_tailed_and_benign() {
        let generator = WebBrowsing {
            clients: HostPool::subnet(1, 10),
            servers: HostPool::external(0, 20),
            window: (0.0, 100.0),
            sessions: 100,
        };
        let packets = run(&generator, 1);
        assert!(packets.len() > 500, "got {}", packets.len());
        assert!(packets.iter().all(|p| !p.is_attack()));
        let sizes: Vec<usize> = packets.iter().map(|p| p.packet.wire_len()).collect();
        let max = *sizes.iter().max().unwrap();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(max as f64 > mean * 3.0, "tail must dominate: max {max}, mean {mean}");
    }

    #[test]
    fn telemetry_is_periodic() {
        let generator = IotTelemetry {
            devices: HostPool::subnet(2, 1),
            broker: Host::new(2, 200),
            window: (0.0, 100.0),
            period: 10.0,
            jitter: 0.01,
            payload: 64,
        };
        let packets = run(&generator, 2);
        // Publishes happen every ~10s: collect SYN timestamps.
        let syns: Vec<f64> = packets
            .iter()
            .filter(|p| {
                let parsed = ParsedPacket::parse(&p.packet).unwrap();
                parsed
                    .tcp()
                    .map(|t| {
                        t.flags.contains(idsbench_net::TcpFlags::SYN)
                            && !t.flags.contains(idsbench_net::TcpFlags::ACK)
                    })
                    .unwrap_or(false)
            })
            .map(|p| p.packet.ts.as_secs_f64())
            .collect();
        assert!(syns.len() >= 9, "expected ~10 publishes, got {}", syns.len());
        for pair in syns.windows(2) {
            let gap = pair[1] - pair[0];
            assert!((gap - 10.0).abs() < 1.0, "gap {gap} not ~10s");
        }
    }

    #[test]
    fn cctv_rate_is_constant() {
        let generator = CctvStream {
            camera: Host::new(3, 1),
            sink: Host::new(3, 2),
            window: (0.0, 10.0),
            fps: 20.0,
            frame_size: 1000,
        };
        let packets = run(&generator, 3);
        assert!((packets.len() as i64 - 200).abs() < 10, "got {}", packets.len());
    }

    #[test]
    fn dns_exchanges_are_paired() {
        let generator = DnsTraffic {
            clients: HostPool::subnet(1, 5),
            resolver: Host::new(1, 250),
            window: (0.0, 50.0),
            queries: 40,
        };
        let packets = run(&generator, 4);
        assert_eq!(packets.len(), 80);
    }

    #[test]
    fn generators_are_deterministic() {
        let generator = SmtpTraffic {
            clients: HostPool::subnet(1, 3),
            server: Host::new(1, 25),
            window: (0.0, 60.0),
            messages: 10,
        };
        assert_eq!(run(&generator, 5), run(&generator, 5));
        assert_ne!(run(&generator, 5), run(&generator, 6));
    }

    #[test]
    fn ntp_uses_port_123_both_ways() {
        let generator = NtpSync {
            devices: HostPool::subnet(4, 2),
            server: Host::external(9),
            window: (0.0, 30.0),
            period: 10.0,
        };
        let packets = run(&generator, 6);
        assert!(!packets.is_empty());
        for p in &packets {
            let parsed = ParsedPacket::parse(&p.packet).unwrap();
            assert_eq!(parsed.src_port(), Some(123));
            assert_eq!(parsed.dst_port(), Some(123));
        }
    }

    #[test]
    fn file_transfers_are_download_heavy() {
        let generator = FileTransfer {
            clients: HostPool::subnet(1, 4),
            server: Host::new(1, 100),
            window: (0.0, 60.0),
            transfers: 5,
        };
        let packets = run(&generator, 7);
        let (mut down, mut up) = (0u64, 0u64);
        for p in &packets {
            let parsed = ParsedPacket::parse(&p.packet).unwrap();
            if parsed.src_port() == Some(445) {
                down += u64::from(parsed.payload_len);
            } else {
                up += u64::from(parsed.payload_len);
            }
        }
        assert!(down > up * 10, "downloads must dominate: down {down}, up {up}");
    }
}
