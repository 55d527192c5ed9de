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
//! Every entity runs the fixed five-rate bank λ ∈ {5, 3, 1, 0.1, 0.01} as
//! one [`DampedStat`]/[`DampedPairStat`] of five lanes, which yields
//! (3+7+3+7)×5 = 100 features, matching the reference implementation. One
//! [`DecayBank`] serves every entity, so a packet pays `exp2` once per
//! distinct interval its entities' clocks advance by, not once per
//! statistic and λ.

use std::net::IpAddr;

use idsbench_net::fasthash::FxHashMap;
use idsbench_net::{MacAddr, ParsedPacket};

use crate::damped::{DampedPairStat, DampedStat, DecayBank};

/// The reference decay rates, most to least aggressive.
const LAMBDAS: [f64; 5] = [5.0, 3.0, 1.0, 0.1, 0.01];

/// Lanes of every entity's bank.
const L: usize = LAMBDAS.len();

/// Number of features produced per packet by [`AfterImage`]: per λ, 3 `MI`,
/// 7 `HH`, 3 `HHjit` and 7 `HpHp` features.
pub const AFTERIMAGE_FEATURES: usize = L * (3 + 7 + 3 + 7);

/// Configuration for the [`AfterImage`] extractor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AfterImageConfig {
    /// Maximum tracked entities per aggregate map before the stalest
    /// entries are purged (memory guard for scans/floods that mint keys).
    pub max_entities: usize,
}

impl Default for AfterImageConfig {
    /// The reference bound of 100 000 entities per aggregate.
    fn default() -> Self {
        AfterImageConfig { max_entities: 100_000 }
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

// Entity records are boxed in their maps, so a flood of fresh keys moves
// pointers, not records, when a map grows. `last_seen` is the time of the
// entity's last packet, in or out of order: it drives the purge and the
// `HHjit` gap, apart from the statistics' clocks, which only move forward.

#[derive(Debug)]
struct PairEntry {
    stats: DampedPairStat<L>,
    last_seen: f64,
}

/// An `HH` channel and its `HHjit` inter-arrival statistics: one entity
/// under one key, so one lookup and one `last_seen` serve both groups.
#[derive(Debug)]
struct ChannelEntry {
    pair: PairEntry,
    jitter: DampedStat<L>,
}

#[derive(Debug)]
struct BandwidthEntry {
    stats: DampedStat<L>,
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
/// let mut features = Vec::new();
/// extractor.update_into(&ParsedPacket::parse(&packet)?, &mut features);
/// assert_eq!(features.len(), AFTERIMAGE_FEATURES);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AfterImage {
    config: AfterImageConfig,
    bank: DecayBank<L>,
    mac_ip: FxHashMap<(MacAddr, IpAddr), Box<BandwidthEntry>>,
    channels: FxHashMap<ChannelKey, Box<ChannelEntry>>,
    sockets: FxHashMap<SocketKey, Box<PairEntry>>,
    packets_seen: u64,
}

impl AfterImage {
    /// Creates an extractor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has a zero entity budget.
    pub fn new(config: AfterImageConfig) -> Self {
        assert!(config.max_entities > 0, "max_entities must be at least 1");
        AfterImage {
            config,
            bank: DecayBank::new(LAMBDAS),
            mac_ip: FxHashMap::default(),
            channels: FxHashMap::default(),
            sockets: FxHashMap::default(),
            packets_seen: 0,
        }
    }

    /// Number of packets processed so far.
    pub fn packets_seen(&self) -> u64 {
        self.packets_seen
    }

    /// Processes one packet and writes its temporal-context feature vector
    /// into `features` (cleared and refilled). On traffic whose entities are
    /// already tracked this performs zero heap allocations — the per-packet
    /// feature-extraction step of the Kitsune/HELAD scoring hot path.
    ///
    /// Non-IP packets still produce a vector (all zeros) so packet- and
    /// feature-streams stay aligned.
    pub fn update_into(&mut self, packet: &ParsedPacket, features: &mut Vec<f64>) {
        self.packets_seen += 1;
        let t = packet.ts.as_secs_f64();
        let size = packet.wire_len as f64;
        let bank = &mut self.bank;
        features.clear();
        features.resize(AFTERIMAGE_FEATURES, 0.0);
        let (mi, rest) = features.split_at_mut(3 * L);
        let (hh, rest) = rest.split_at_mut(7 * L);
        let (hh_jit, hphp) = rest.split_at_mut(3 * L);

        let (Some(src_ip), Some(dst_ip)) = (packet.src_ip(), packet.dst_ip()) else {
            return;
        };

        // --- MI: source MAC+IP bandwidth -------------------------------
        let entry = self.mac_ip.entry((packet.src_mac(), src_ip)).or_insert_with(|| {
            Box::new(BandwidthEntry { stats: DampedStat::default(), last_seen: t })
        });
        entry.last_seen = t;
        entry.stats.insert(bank, t, size);
        write_groups(mi, entry.stats.snapshot());

        // --- HH: channel bandwidth (with cross-direction covariance) ----
        let (channel_key, is_a) = canonical_channel(src_ip, dst_ip);
        let channel = self.channels.entry(channel_key).or_insert_with(|| {
            Box::new(ChannelEntry { pair: PairEntry::new(t), jitter: DampedStat::default() })
        });
        // The gap since the channel's previous packet; a new channel was
        // created at `t`, so its first gap is 0.
        let gap = (t - channel.pair.last_seen).max(0.0);
        channel.pair.update(bank, is_a, t, size, hh);

        // --- HHjit: channel jitter --------------------------------------
        channel.jitter.insert(bank, t, gap);
        write_groups(hh_jit, channel.jitter.snapshot());

        // --- HpHp: socket bandwidth -------------------------------------
        let sp = packet.src_port().unwrap_or(0);
        let dp = packet.dst_port().unwrap_or(0);
        let (socket_key, sock_is_a) = canonical_socket(src_ip, sp, dst_ip, dp);
        let socket = self.sockets.entry(socket_key).or_insert_with(|| Box::new(PairEntry::new(t)));
        socket.update(bank, sock_is_a, t, size, hphp);

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

impl PairEntry {
    /// A pair entity first seen at `t`.
    fn new(t: f64) -> Self {
        PairEntry { stats: DampedPairStat::default(), last_seen: t }
    }

    /// The HH and HpHp update: folds one packet of `size` bytes at time `t`
    /// into the pair on every λ, and writes its 7 features per λ into
    /// `out` as seen from the packet's side of the pair (`is_a`: the
    /// canonical a→b direction).
    fn update(&mut self, bank: &mut DecayBank<L>, is_a: bool, t: f64, size: f64, out: &mut [f64]) {
        self.last_seen = t;
        self.stats.insert(bank, is_a, t, size);
        write_groups(out, self.stats.snapshot(is_a));
    }
}

/// Writes per-λ feature groups back to back into `out`.
fn write_groups<const W: usize>(out: &mut [f64], groups: [[f64; W]; L]) {
    for (out, group) in out.chunks_exact_mut(W).zip(groups) {
        out.copy_from_slice(&group);
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

    fn update(extractor: &mut AfterImage, packet: &ParsedPacket) -> Vec<f64> {
        let mut features = Vec::new();
        extractor.update_into(packet, &mut features);
        features
    }

    fn flat<const W: usize>(groups: [[f64; W]; L]) -> Vec<f64> {
        groups.iter().flatten().copied().collect()
    }

    #[test]
    fn produces_100_features_by_default() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        let features = update(&mut extractor, &packet(1, 1000, 2, 80, 100, 0.0));
        assert_eq!(features.len(), AFTERIMAGE_FEATURES);
    }

    #[test]
    fn all_features_finite_under_traffic() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        for i in 0..500 {
            let features = update(
                &mut extractor,
                &packet(
                    (i % 5) as u8 + 1,
                    1000 + (i % 7) as u16,
                    (i % 3) as u8 + 10,
                    80,
                    (i % 1000) + 40,
                    i as f64 * 0.001,
                ),
            );
            for (j, v) in features.iter().enumerate() {
                assert!(v.is_finite(), "feature {j} not finite at packet {i}");
            }
        }
    }

    #[test]
    fn weight_grows_with_repeated_traffic() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        let first = update(&mut extractor, &packet(1, 1000, 2, 80, 100, 0.0));
        let second = update(&mut extractor, &packet(1, 1000, 2, 80, 100, 0.001));
        // Feature 0 is the weight of the most aggressive MI window.
        assert!(second[0] > first[0]);
    }

    #[test]
    fn distinct_sources_have_independent_mi_stats() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        for i in 0..10 {
            update(&mut extractor, &packet(1, 1000, 2, 80, 100, i as f64 * 0.01));
        }
        let fresh = update(&mut extractor, &packet(3, 1000, 2, 80, 100, 0.2));
        assert!((fresh[0] - 1.0).abs() < 1e-9, "new source starts at weight 1, got {}", fresh[0]);
    }

    #[test]
    fn bidirectional_channel_shares_pair_state() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        for i in 0..20 {
            update(&mut extractor, &packet(1, 1000, 2, 80, 100, i as f64 * 0.01));
            update(&mut extractor, &packet(2, 80, 1, 1000, 1000, i as f64 * 0.01 + 0.005));
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
        let first = update(&mut extractor, &packet(1, 1000, 2, 80, 100, 10.0));
        assert_eq!(jitter_means(&first), vec![0.0; 5]);
        // The reply 0.25 s later is on the same channel: every λ's mean
        // moves off 0 toward the 0.25 s gap.
        let reply = update(&mut extractor, &packet(2, 80, 1, 1000, 100, 10.25));
        for mean in jitter_means(&reply) {
            assert!(mean > 0.0 && mean <= 0.25, "mean {mean}");
        }
        // Another pair of hosts is another channel, starting from 0 again.
        let other = update(&mut extractor, &packet(3, 1000, 4, 80, 100, 10.5));
        assert_eq!(jitter_means(&other), vec![0.0; 5]);
    }

    #[test]
    fn entity_budget_is_enforced() {
        let config = AfterImageConfig { max_entities: 50 };
        let mut extractor = AfterImage::new(config);
        // A scan mints a new socket per packet.
        for i in 0..500u16 {
            update(&mut extractor, &packet(1, 1000 + i, 2, 80, 60, i as f64 * 0.001));
        }
        assert!(extractor.sockets.len() <= 50, "sockets = {}", extractor.sockets.len());
    }

    #[test]
    fn features_are_the_fixed_100_wide_layout() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        // The lanes run λ = 5, 3, 1, 0.1, 0.01: a source's second packet,
        // 1 s after its first, reads weight 1 + 2^-λ per λ.
        update(&mut extractor, &packet(9, 1, 8, 1, 100, 0.0));
        let second = update(&mut extractor, &packet(9, 1, 8, 1, 100, 1.0));
        for (i, lambda) in [5.0f64, 3.0, 1.0, 0.1, 0.01].into_iter().enumerate() {
            assert!((second[3 * i] - (1.0 + (-lambda).exp2())).abs() < 1e-12);
        }
        // MI | HH | HHjit | HpHp, each group's λ lanes back to back, every
        // value bit for bit the bank's, from the packet's side of each pair.
        let mut bank = DecayBank::new(LAMBDAS);
        let mut mi = [DampedStat::<L>::default(); 2];
        let (mut hh, mut hphp) = (DampedPairStat::<L>::default(), DampedPairStat::<L>::default());
        let mut jitter = DampedStat::<L>::default();
        let mut last = None;
        for i in 0..40 {
            let (forward, t) = (i % 3 != 0, 10.0 + i as f64 * 0.05);
            let p = if forward {
                packet(1, 1000, 2, 80, 40 + 37 * i, t)
            } else {
                packet(2, 80, 1, 1000, 40 + 37 * i, t)
            };
            let features = update(&mut extractor, &p);
            let size = p.wire_len as f64;
            let source = &mut mi[usize::from(!forward)];
            source.insert(&mut bank, t, size);
            hh.insert(&mut bank, forward, t, size);
            jitter.insert(&mut bank, t, last.map_or(0.0, |last| t - last));
            last = Some(t);
            hphp.insert(&mut bank, forward, t, size);
            let groups = [
                flat(source.snapshot()),
                flat(hh.snapshot(forward)),
                flat(jitter.snapshot()),
                flat(hphp.snapshot(forward)),
            ];
            assert_eq!(features, groups.concat(), "packet {i}");
            assert_eq!(features.len(), AFTERIMAGE_FEATURES);
        }
        assert_eq!(AFTERIMAGE_FEATURES, 100);
    }

    #[test]
    fn packets_seen_counts() {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        for i in 0..7 {
            update(&mut extractor, &packet(1, 1000, 2, 80, 100, i as f64));
        }
        assert_eq!(extractor.packets_seen(), 7);
    }
}
