use std::fmt;
use std::net::IpAddr;

use idsbench_net::{IpProtocol, ParsedPacket};

/// Direction of a packet within a bidirectional flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowDirection {
    /// Same direction as the first packet of the flow (initiator → responder).
    Forward,
    /// Opposite direction (responder → initiator).
    Backward,
}

/// A directional 5-tuple identifying one side of a conversation.
///
/// `FlowKey` is directional (src → dst); [`FlowKey::canonical`] maps both
/// directions of a conversation to the same key so the flow table can
/// aggregate bidirectionally.
///
/// # Examples
///
/// ```
/// use idsbench_flow::FlowKey;
/// use idsbench_net::IpProtocol;
/// use std::net::{IpAddr, Ipv4Addr};
///
/// let forward = FlowKey {
///     src_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
///     dst_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
///     src_port: 40000,
///     dst_port: 80,
///     protocol: IpProtocol::Tcp,
/// };
/// let backward = forward.reversed();
/// assert_eq!(forward.canonical().0, backward.canonical().0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IP address.
    pub src_ip: IpAddr,
    /// Destination IP address.
    pub dst_ip: IpAddr,
    /// Source transport port (0 for port-less protocols).
    pub src_port: u16,
    /// Destination transport port (0 for port-less protocols).
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: IpProtocol,
}

impl FlowKey {
    /// Extracts the directional key from a parsed packet, or `None` for
    /// non-IP traffic.
    pub fn from_packet(packet: &ParsedPacket) -> Option<Self> {
        let src_ip = packet.src_ip()?;
        let dst_ip = packet.dst_ip()?;
        let protocol = packet.ip_protocol()?;
        Some(FlowKey {
            src_ip,
            dst_ip,
            src_port: packet.src_port().unwrap_or(0),
            dst_port: packet.dst_port().unwrap_or(0),
            protocol,
        })
    }

    /// The same conversation viewed from the other side.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// Canonical (direction-independent) form plus the direction this key
    /// had relative to it.
    ///
    /// The canonical form orders endpoints by `(ip, port)` so both directions
    /// of a conversation collapse to one key.
    pub fn canonical(&self) -> (FlowKey, FlowDirection) {
        if (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port) {
            (*self, FlowDirection::Forward)
        } else {
            (self.reversed(), FlowDirection::Backward)
        }
    }

    /// Serializes the key for the fabric wire — the one key layout, shared
    /// by [`FlowRecord::encode_wire`](crate::FlowRecord::encode_wire) and
    /// flow migrations.
    pub fn encode_wire(&self, out: &mut Vec<u8>) {
        use idsbench_net::wire::{put_ip, put_u16, put_u8};
        put_ip(out, self.src_ip);
        put_ip(out, self.dst_ip);
        put_u16(out, self.src_port);
        put_u16(out, self.dst_port);
        put_u8(out, self.protocol.as_u8());
    }

    /// Decodes a key written by [`FlowKey::encode_wire`].
    ///
    /// # Errors
    ///
    /// A [`WireError`](idsbench_net::wire::WireError) on a truncated buffer
    /// or an unknown address family tag.
    pub fn decode_wire(
        reader: &mut idsbench_net::wire::WireReader<'_>,
    ) -> idsbench_net::wire::WireResult<Self> {
        Ok(FlowKey {
            src_ip: reader.ip()?,
            dst_ip: reader.ip()?,
            src_port: reader.u16()?,
            dst_port: reader.u16()?,
            protocol: IpProtocol::from(reader.u8()?),
        })
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.protocol, self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(a: u8, ap: u16, b: u8, bp: u16) -> FlowKey {
        FlowKey {
            src_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, a)),
            dst_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, b)),
            src_port: ap,
            dst_port: bp,
            protocol: IpProtocol::Tcp,
        }
    }

    #[test]
    fn reversal_is_involutive() {
        let k = key(1, 1000, 2, 80);
        assert_eq!(k.reversed().reversed(), k);
    }

    #[test]
    fn both_directions_share_canonical_key() {
        let k = key(1, 1000, 2, 80);
        let (c1, d1) = k.canonical();
        let (c2, d2) = k.reversed().canonical();
        assert_eq!(c1, c2);
        assert_ne!(d1, d2);
    }

    #[test]
    fn same_hosts_different_ports_are_distinct() {
        let (c1, _) = key(1, 1000, 2, 80).canonical();
        let (c2, _) = key(1, 1001, 2, 80).canonical();
        assert_ne!(c1, c2);
    }

    /// `HashMap` picks a bucket from the low bits of the hash, so the
    /// hasher must spread them over keys that differ only in a host octet:
    /// the key shapes of AfterImage's and HELAD's maps, Slips' sets, the
    /// flow table and the label fold.
    #[test]
    fn fx_hash_spreads_the_low_byte_over_one_subnet() {
        use idsbench_net::fasthash::FxBuildHasher;
        use std::collections::HashSet;
        use std::hash::{BuildHasher, Hash};

        fn distinct_low_bytes<K: Hash>(keys: impl Iterator<Item = K>) -> usize {
            keys.map(|k| FxBuildHasher.hash_one(k) & 0xff).collect::<HashSet<u64>>().len()
        }
        let host = |h: u8| IpAddr::V4(Ipv4Addr::new(10, 0, 0, h));
        let server = host(200);
        let spreads = [
            ("IpAddr", distinct_low_bytes((0..=255).map(host))),
            ("(IpAddr, u16)", distinct_low_bytes((0..=255).map(|h| (host(h), 443u16)))),
            ("socket", distinct_low_bytes((0..=255).map(|h| (host(h), 40_000u16, server, 80u16)))),
            ("FlowKey", distinct_low_bytes((0..=255).map(|h| key(h, 40_000, 200, 80)))),
        ];
        for (shape, distinct) in spreads {
            assert!(distinct > 128, "{shape}: only {distinct} distinct low bytes over 256 hosts");
        }
    }

    #[test]
    fn wire_roundtrip_keeps_both_families_and_rejects_truncation() {
        let v6 = IpAddr::V6(std::net::Ipv6Addr::LOCALHOST);
        for k in [key(1, 1000, 2, 80), FlowKey { dst_ip: v6, ..key(1, 0, 2, 0) }] {
            let mut buf = Vec::new();
            k.encode_wire(&mut buf);
            let mut reader = idsbench_net::wire::WireReader::new(&buf);
            assert_eq!(FlowKey::decode_wire(&mut reader).unwrap(), k);
            assert!(reader.is_empty());
            for cut in 0..buf.len() {
                let mut reader = idsbench_net::wire::WireReader::new(&buf[..cut]);
                assert!(FlowKey::decode_wire(&mut reader).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn display_is_informative() {
        let s = key(1, 1000, 2, 80).to_string();
        assert!(s.contains("tcp"));
        assert!(s.contains("10.0.0.1:1000"));
        assert!(s.contains("10.0.0.2:80"));
    }
}
