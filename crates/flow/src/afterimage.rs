//! The AfterImage per-packet feature extractor from Kitsune (Mirsky et al.,
//! NDSS'18).
//!
//! For every packet, four aggregate entities are updated across a bank of
//! damped time windows, and a 100-dimensional feature vector summarising the
//! *temporal context* of the packet is returned:
//!
//! | entity | keyed by | features/λ |
//! |---|---|---|
//! | `MI`  | source MAC+IP bandwidth | 3 (`w, μ, σ`) |
//! | `HH`  | channel src↔dst bandwidth | 7 (`w, μ, σ, ‖μ‖, ‖σ²‖, cov, pcc`) |
//! | `HHjit` | channel jitter (inter-arrival) | 3 |
//! | `HpHp` | socket src:port↔dst:port bandwidth | 7 |
//!
//! `HH` and `HHjit` share one entry per channel, so a packet costs three
//! map lookups.
//!
//! With the default five decay rates λ ∈ {5, 3, 1, 0.1, 0.01} this yields
//! (3+7+3+7)×5 = 100 features, matching the reference implementation.

use std::net::IpAddr;

use idsbench_net::fasthash::FxHashMap;
use idsbench_net::{MacAddr, ParsedPacket};

use crate::damped::{DampedPairStat, DampedStat};

/// Number of features produced per packet by [`AfterImage`] with the default
/// configuration.
pub const AFTERIMAGE_FEATURES: usize = 100;

/// Configuration for the [`AfterImage`] extractor.
#[derive(Debug, Clone, PartialEq)]
pub struct AfterImageConfig {
    /// Damped-window decay rates, most to least aggressive.
    pub lambdas: Vec<f64>,
    /// Maximum tracked entities per aggregate map before the stalest
    /// entries are purged (memory guard for scans/floods that mint keys).
    pub max_entities: usize,
}

impl Default for AfterImageConfig {
    /// The reference Kitsune configuration: λ ∈ {5, 3, 1, 0.1, 0.01},
    /// bounded at 100 000 entities per aggregate.
    fn default() -> Self {
        AfterImageConfig { lambdas: vec![5.0, 3.0, 1.0, 0.1, 0.01], max_entities: 100_000 }
    }
}

impl AfterImageConfig {
    /// Number of features produced per packet under this configuration.
    pub fn feature_count(&self) -> usize {
        self.lambdas.len() * (3 + 7 + 3 + 7)
    }
}

type ChannelKey = (IpAddr, IpAddr);
type SocketKey = (IpAddr, u16, IpAddr, u16);

/// Orders a pair of endpoints canonically; returns true if the packet
/// direction matches the canonical (a→b) orientation.
fn canonical_channel(src: IpAddr, dst: IpAddr) -> (ChannelKey, bool) {
    if src <= dst {
        ((src, dst), true)
    } else {
        ((dst, src), false)
    }
}

fn canonical_socket(src: IpAddr, sp: u16, dst: IpAddr, dp: u16) -> (SocketKey, bool) {
    if (src, sp) <= (dst, dp) {
        ((src, sp, dst, dp), true)
    } else {
        ((dst, dp, src, sp), false)
    }
}

#[derive(Debug)]
struct PairEntry {
    stats: Vec<DampedPairStat>,
    last_seen: f64,
}

impl PairEntry {
    /// A pair entity first seen at `t`.
    fn new(lambdas: &[f64], t: f64) -> Self {
        PairEntry { stats: lambdas.iter().map(|&l| DampedPairStat::new(l)).collect(), last_seen: t }
    }
}

/// An `HH` channel and its `HHjit` inter-arrival statistics: one entity
/// under one key, so one lookup and one `last_seen` serve both groups.
#[derive(Debug)]
struct ChannelEntry {
    pair: PairEntry,
    jitter: Vec<DampedStat>,
}

#[derive(Debug)]
struct BandwidthEntry {
    stats: Vec<DampedStat>,
    last_seen: f64,
}

/// Streaming per-packet feature extractor (see module docs).
///
/// # Examples
///
/// ```
/// use idsbench_flow::{AfterImage, AFTERIMAGE_FEATURES};
/// use idsbench_net::{MacAddr, PacketBuilder, ParsedPacket, TcpFlags, Timestamp};
/// use std::net::Ipv4Addr;
///
/// # fn main() -> Result<(), idsbench_net::NetError> {
/// let mut extractor = AfterImage::new(Default::default());
/// let packet = PacketBuilder::new()
///     .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
///     .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
///     .tcp(40000, 80, TcpFlags::SYN)
///     .build(Timestamp::from_secs(1));
/// let features = extractor.update(&ParsedPacket::parse(&packet)?);
/// assert_eq!(features.len(), AFTERIMAGE_FEATURES);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AfterImage {
    config: AfterImageConfig,
    mac_ip: FxHashMap<(MacAddr, IpAddr), BandwidthEntry>,
    channels: FxHashMap<ChannelKey, ChannelEntry>,
    sockets: FxHashMap<SocketKey, PairEntry>,
    packets_seen: u64,
}

impl AfterImage {
    /// Creates an extractor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no decay rates or a zero entity
    /// budget.
    pub fn new(config: AfterImageConfig) -> Self {
        assert!(!config.lambdas.is_empty(), "at least one decay rate required");
        assert!(config.max_entities > 0, "max_entities must be at least 1");
        AfterImage {
            config,
            mac_ip: FxHashMap::default(),
            channels: FxHashMap::default(),
            sockets: FxHashMap::default(),
            packets_seen: 0,
        }
    }

    /// Number of features produced per packet.
    pub fn feature_count(&self) -> usize {
        self.config.feature_count()
    }

    /// Number of packets processed so far.
    pub fn packets_seen(&self) -> u64 {
        self.packets_seen
    }

    /// Processes one packet and returns its temporal-context feature vector.
    ///
    /// Non-IP packets still produce a vector (all-zero except MAC-level
    /// weight features) so packet- and feature-streams stay aligned.
    pub fn update(&mut self, packet: &ParsedPacket) -> Vec<f64> {
        let mut features = Vec::with_capacity(self.feature_count());
        self.update_into(packet, &mut features);
        features
    }

    /// [`AfterImage::update`] into a caller-owned buffer (cleared and
    /// refilled). On traffic whose entities are already tracked this
    /// performs zero heap allocations — the per-packet feature-extraction
    /// step of the Kitsune/HELAD scoring hot path.
    pub fn update_into(&mut self, packet: &ParsedPacket, features: &mut Vec<f64>) {
        self.packets_seen += 1;
        let t = packet.ts.as_secs_f64();
        let size = packet.wire_len as f64;
        let lambdas = &self.config.lambdas;
        features.clear();

        // --- MI: source MAC+IP bandwidth -------------------------------
        if let Some(src_ip) = packet.src_ip() {
            let entry =
                self.mac_ip.entry((packet.src_mac(), src_ip)).or_insert_with(|| BandwidthEntry {
                    stats: lambdas.iter().map(|&l| DampedStat::new(l)).collect(),
                    last_seen: t,
                });
            entry.last_seen = t;
            for stat in &mut entry.stats {
                stat.insert(t, size);
                features.extend_from_slice(&stat.snapshot());
            }
        } else {
            features.extend(std::iter::repeat(0.0).take(3 * lambdas.len()));
        }

        let (Some(src_ip), Some(dst_ip)) = (packet.src_ip(), packet.dst_ip()) else {
            // Pad the channel/socket groups for non-IP packets.
            features.extend(std::iter::repeat(0.0).take((7 + 3 + 7) * lambdas.len()));
            debug_assert_eq!(features.len(), self.feature_count());
            return;
        };

        // --- HH: channel bandwidth (with cross-direction covariance) ----
        let (channel_key, is_a) = canonical_channel(src_ip, dst_ip);
        let channel = self.channels.entry(channel_key).or_insert_with(|| ChannelEntry {
            pair: PairEntry::new(lambdas, t),
            jitter: lambdas.iter().map(|&l| DampedStat::new(l)).collect(),
        });
        // The gap since the channel's previous packet; a new channel was
        // created at `t`, so its first gap is 0.
        let gap = (t - channel.pair.last_seen).max(0.0);
        update_pair(&mut channel.pair, is_a, t, size, features);

        // --- HHjit: channel jitter --------------------------------------
        for stat in &mut channel.jitter {
            stat.insert(t, gap);
            features.extend_from_slice(&stat.snapshot());
        }

        // --- HpHp: socket bandwidth -------------------------------------
        let sp = packet.src_port().unwrap_or(0);
        let dp = packet.dst_port().unwrap_or(0);
        let (socket_key, sock_is_a) = canonical_socket(src_ip, sp, dst_ip, dp);
        let socket = self.sockets.entry(socket_key).or_insert_with(|| PairEntry::new(lambdas, t));
        update_pair(socket, sock_is_a, t, size, features);

        debug_assert_eq!(features.len(), self.feature_count());
        self.maybe_purge();
    }

    /// Total tracked entities across all aggregate maps (a channel counts
    /// once: its `HH` and `HHjit` statistics share one entry).
    pub fn tracked_entities(&self) -> usize {
        self.mac_ip.len() + self.channels.len() + self.sockets.len()
    }

    /// Bounds memory: when a map exceeds the budget, drop the stalest half.
    fn maybe_purge(&mut self) {
        let cap = self.config.max_entities;
        purge_map(&mut self.mac_ip, cap, |e| e.last_seen);
        purge_map(&mut self.channels, cap, |e| e.pair.last_seen);
        purge_map(&mut self.sockets, cap, |e| e.last_seen);
    }
}

/// The HH and HpHp update: folds one packet of `size` bytes at time `t`
/// into the pair entity `entry` on every λ, and appends its 7 features per
/// λ as seen from the packet's side of the pair (`is_a`: the canonical a→b
/// direction).
fn update_pair(entry: &mut PairEntry, is_a: bool, t: f64, size: f64, features: &mut Vec<f64>) {
    entry.last_seen = t;
    for stat in &mut entry.stats {
        if is_a {
            stat.insert_a(t, size);
            features.extend_from_slice(&stat.snapshot_for_a());
        } else {
            stat.insert_b(t, size);
            let [w, mean, std] = stat.b().snapshot();
            features.extend_from_slice(&[
                w,
                mean,
                std,
                stat.magnitude(),
                stat.radius(),
                stat.covariance(),
                stat.correlation(),
            ]);
        }
    }
}

fn purge_map<K: std::hash::Hash + Eq, V>(
    map: &mut FxHashMap<K, V>,
    cap: usize,
    last_seen: impl Fn(&V) -> f64,
) {
    if map.len() <= cap {
        return;
    }
    let mut times: Vec<f64> = map.values().map(&last_seen).collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let cutoff = times[times.len() / 2];
    map.retain(|_, v| last_seen(v) > cutoff);
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_net::{PacketBuilder, TcpFlags, Timestamp};
    use std::net::Ipv4Addr;

    fn packet(src: u8, sport: u16, dst: u8, dport: u16, size: usize, t: f64) -> ParsedPacket {
        let p = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(src as u32), MacAddr::from_host_id(dst as u32))
            .ipv4(Ipv4Addr::new(10, 0, 0, src), Ipv4Addr::new(10, 0, 0, dst))
            .tcp(sport, dport, TcpFlags::ACK)
            .payload_len(size)
            .build(Timestamp::from_secs_f64(t));
        ParsedPacket::parse(&p).unwrap()
    }

    #[test]
    fn produces_100_features_by_default() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        let features = extractor.update(&packet(1, 1000, 2, 80, 100, 0.0));
        assert_eq!(features.len(), AFTERIMAGE_FEATURES);
        assert_eq!(extractor.feature_count(), AFTERIMAGE_FEATURES);
    }

    #[test]
    fn all_features_finite_under_traffic() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        for i in 0..500 {
            let features = extractor.update(&packet(
                (i % 5) as u8 + 1,
                1000 + (i % 7) as u16,
                (i % 3) as u8 + 10,
                80,
                (i % 1000) + 40,
                i as f64 * 0.001,
            ));
            for (j, v) in features.iter().enumerate() {
                assert!(v.is_finite(), "feature {j} not finite at packet {i}");
            }
        }
    }

    #[test]
    fn weight_grows_with_repeated_traffic() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        let first = extractor.update(&packet(1, 1000, 2, 80, 100, 0.0));
        let second = extractor.update(&packet(1, 1000, 2, 80, 100, 0.001));
        // Feature 0 is the weight of the most aggressive MI window.
        assert!(second[0] > first[0]);
    }

    #[test]
    fn distinct_sources_have_independent_mi_stats() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        for i in 0..10 {
            extractor.update(&packet(1, 1000, 2, 80, 100, i as f64 * 0.01));
        }
        let fresh = extractor.update(&packet(3, 1000, 2, 80, 100, 0.2));
        assert!((fresh[0] - 1.0).abs() < 1e-9, "new source starts at weight 1, got {}", fresh[0]);
    }

    #[test]
    fn bidirectional_channel_shares_pair_state() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        for i in 0..20 {
            extractor.update(&packet(1, 1000, 2, 80, 100, i as f64 * 0.01));
            extractor.update(&packet(2, 80, 1, 1000, 1000, i as f64 * 0.01 + 0.005));
        }
        // One channel entity tracks both directions.
        assert_eq!(extractor.channels.len(), 1);
        assert_eq!(extractor.sockets.len(), 1);
        assert_eq!(extractor.mac_ip.len(), 2);
        // HH and HHjit share the channel's entry: it counts once.
        assert_eq!(extractor.tracked_entities(), 4);
    }

    #[test]
    fn channel_jitter_is_the_gap_since_the_channel_last_spoke() {
        // HHjit's mean per λ sits after MI (3 per λ) and HH (7 per λ).
        let jitter_means = |features: &[f64]| -> Vec<f64> {
            (0..5).map(|i| features[5 * (3 + 7) + 3 * i + 1]).collect()
        };
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        // A new channel's first gap is 0, from either direction.
        let first = extractor.update(&packet(1, 1000, 2, 80, 100, 10.0));
        assert_eq!(jitter_means(&first), vec![0.0; 5]);
        // The reply 0.25 s later is on the same channel: every λ's mean
        // moves off 0 toward the 0.25 s gap.
        let reply = extractor.update(&packet(2, 80, 1, 1000, 100, 10.25));
        for mean in jitter_means(&reply) {
            assert!(mean > 0.0 && mean <= 0.25, "mean {mean}");
        }
        // Another pair of hosts is another channel, starting from 0 again.
        let other = extractor.update(&packet(3, 1000, 4, 80, 100, 10.5));
        assert_eq!(jitter_means(&other), vec![0.0; 5]);
    }

    #[test]
    fn entity_budget_is_enforced() {
        let config = AfterImageConfig { max_entities: 50, ..Default::default() };
        let mut extractor = AfterImage::new(config);
        // A scan mints a new socket per packet.
        for i in 0..500u16 {
            extractor.update(&packet(1, 1000 + i, 2, 80, 60, i as f64 * 0.001));
        }
        assert!(extractor.sockets.len() <= 50, "sockets = {}", extractor.sockets.len());
    }

    #[test]
    fn feature_count_follows_lambda_count() {
        let config = AfterImageConfig { lambdas: vec![1.0, 0.1], max_entities: 1000 };
        let mut extractor = AfterImage::new(config);
        let features = extractor.update(&packet(1, 1, 2, 2, 100, 0.0));
        assert_eq!(features.len(), 40);
    }

    #[test]
    fn packets_seen_counts() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        for i in 0..7 {
            extractor.update(&packet(1, 1000, 2, 80, 100, i as f64));
        }
        assert_eq!(extractor.packets_seen(), 7);
    }
}
