use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use bytes::Bytes;

use crate::arp::ArpPacket;
use crate::ethernet::{EtherType, EthernetHeader};
use crate::icmp::IcmpHeader;
use crate::ipv4::{IpProtocol, Ipv4Header};
use crate::ipv6::Ipv6Header;
use crate::tcp::TcpHeader;
use crate::time::Timestamp;
use crate::udp::UdpHeader;
use crate::{MacAddr, Result};

/// A captured (or synthesized) frame: a timestamp plus raw bytes.
///
/// The byte buffer is reference-counted ([`Bytes`]), so packets can be cloned
/// and fanned out to several detectors without copying frame data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Capture timestamp.
    pub ts: Timestamp,
    /// Raw frame bytes, starting at the Ethernet header.
    pub data: Bytes,
}

impl Packet {
    /// Creates a packet from a timestamp and raw frame bytes.
    pub fn new(ts: Timestamp, data: impl Into<Bytes>) -> Self {
        Packet { ts, data: data.into() }
    }

    /// Length of the frame in bytes.
    pub fn wire_len(&self) -> usize {
        self.data.len()
    }
}

/// The parsed network layer of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetworkLayer {
    /// An IPv4 datagram.
    Ipv4(Ipv4Header),
    /// An IPv6 datagram.
    Ipv6(Ipv6Header),
    /// An ARP packet.
    Arp(ArpPacket),
    /// A payload this crate does not decode.
    Unknown(EtherType),
}

/// The parsed transport layer of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportLayer {
    /// A TCP segment.
    Tcp(TcpHeader),
    /// A UDP datagram.
    Udp(UdpHeader),
    /// An ICMP message.
    Icmp(IcmpHeader),
    /// A transport this crate does not decode.
    Other(IpProtocol),
}

/// A fully decoded view of a [`Packet`].
///
/// Parsing is tolerant above the Ethernet layer: unknown EtherTypes and IP
/// protocols are reported as [`NetworkLayer::Unknown`] /
/// [`TransportLayer::Other`] rather than errors, because real captures always
/// contain some traffic an IDS must simply pass through.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedPacket {
    /// Capture timestamp.
    pub ts: Timestamp,
    /// Ethernet header.
    pub ethernet: EthernetHeader,
    /// Network layer.
    pub network: NetworkLayer,
    /// Transport layer, when the network layer carries one.
    pub transport: Option<TransportLayer>,
    /// Bytes of transport payload (application data).
    pub payload_len: u32,
    /// Total frame length in bytes. Both lengths are `u32`, which keeps a
    /// parsed view (the unit a stream run moves per packet) small; they
    /// saturate at `u32::MAX`, a length no link carries.
    pub wire_len: u32,
}

/// Count of [`ParsedPacket::parse`] invocations, kept per thread.
///
/// Parsing is the dominant fixed cost of the evaluation data plane, and the
/// parse-once Event API promises each packet is decoded exactly once across
/// the whole pipeline. The counter makes that promise testable (see the
/// `parse_once` integration test). One process-wide atomic would bounce its
/// cache line between every two threads that parse (a fabric coordinator
/// and its in-process worker, say) on every packet; each thread instead
/// bumps its own padded slot, and [`ParsedPacket::parse_calls`] sums them.
/// More threads than slots share slots, which stays exact because every
/// increment is atomic.
static PARSE_CALLS: [ParseSlot; PARSE_SLOTS] = [ParseSlot::ZERO; PARSE_SLOTS];

const PARSE_SLOTS: usize = 32;

/// One counter per 128 bytes: x86's adjacent-line prefetcher pairs 64-byte
/// lines, so a 64-byte slot would still share a line pair with its
/// neighbour.
#[repr(align(128))]
struct ParseSlot(AtomicU64);

impl ParseSlot {
    /// The array initialiser: each use is a fresh counter.
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: Self = Self(AtomicU64::new(0));
}

/// Hands each thread its slot, round-robin, on its first parse.
static NEXT_PARSE_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static PARSE_SLOT: &'static AtomicU64 =
        &PARSE_CALLS[NEXT_PARSE_SLOT.fetch_add(1, Ordering::Relaxed) % PARSE_SLOTS].0;
}

impl ParsedPacket {
    /// Total [`ParsedPacket::parse`] calls made by this process so far.
    ///
    /// Monotonically increasing; take a delta around the region of interest.
    /// Counts attempts, including ones that return an error.
    pub fn parse_calls() -> u64 {
        PARSE_CALLS.iter().map(|slot| slot.0.load(Ordering::Relaxed)).sum()
    }

    /// Decodes a packet.
    ///
    /// # Errors
    ///
    /// Returns an error only when a *declared* structure is violated — e.g. a
    /// truncated Ethernet or IP header, or an IHL smaller than the legal
    /// minimum. Unknown protocols parse successfully as opaque layers.
    pub fn parse(packet: &Packet) -> Result<Self> {
        PARSE_SLOT.with(|slot| slot.fetch_add(1, Ordering::Relaxed));
        let data = &packet.data[..];
        let (ethernet, eth_len) = EthernetHeader::parse(data)?;
        let rest = &data[eth_len..];

        let (network, net_len) = match ethernet.ethertype {
            EtherType::Ipv4 => {
                let (h, n) = Ipv4Header::parse(rest)?;
                (NetworkLayer::Ipv4(h), n)
            }
            EtherType::Ipv6 => {
                let (h, n) = Ipv6Header::parse(rest)?;
                (NetworkLayer::Ipv6(h), n)
            }
            EtherType::Arp => {
                let (p, n) = ArpPacket::parse(rest)?;
                (NetworkLayer::Arp(p), n)
            }
            other => (NetworkLayer::Unknown(other), 0),
        };

        let after_net = &rest[net_len..];
        let (transport, transport_len) = match &network {
            NetworkLayer::Ipv4(h) if !h.is_fragment() || h.fragment_offset == 0 => {
                Self::parse_transport(h.protocol, after_net)?
            }
            NetworkLayer::Ipv6(h) => Self::parse_transport(h.next_header, after_net)?,
            _ => (None, 0),
        };

        // No link carries a frame of 4 GiB, so the lengths saturate
        // instead of failing the parse.
        let saturate = |len: usize| u32::try_from(len).unwrap_or(u32::MAX);
        Ok(ParsedPacket {
            ts: packet.ts,
            ethernet,
            network,
            transport,
            payload_len: saturate(after_net.len().saturating_sub(transport_len)),
            wire_len: saturate(data.len()),
        })
    }

    fn parse_transport(
        protocol: IpProtocol,
        data: &[u8],
    ) -> Result<(Option<TransportLayer>, usize)> {
        Ok(match protocol {
            IpProtocol::Tcp => {
                let (h, n) = TcpHeader::parse(data)?;
                (Some(TransportLayer::Tcp(h)), n)
            }
            IpProtocol::Udp => {
                let (h, n) = UdpHeader::parse(data)?;
                (Some(TransportLayer::Udp(h)), n)
            }
            IpProtocol::Icmp => {
                let (h, n) = IcmpHeader::parse(data)?;
                (Some(TransportLayer::Icmp(h)), n)
            }
            other => (Some(TransportLayer::Other(other)), 0),
        })
    }

    /// Source MAC address.
    pub fn src_mac(&self) -> MacAddr {
        self.ethernet.src
    }

    /// Destination MAC address.
    pub fn dst_mac(&self) -> MacAddr {
        self.ethernet.dst
    }

    /// Source IP address, when the packet is IP.
    pub fn src_ip(&self) -> Option<IpAddr> {
        match &self.network {
            NetworkLayer::Ipv4(h) => Some(IpAddr::V4(h.src)),
            NetworkLayer::Ipv6(h) => Some(IpAddr::V6(h.src)),
            _ => None,
        }
    }

    /// Destination IP address, when the packet is IP.
    pub fn dst_ip(&self) -> Option<IpAddr> {
        match &self.network {
            NetworkLayer::Ipv4(h) => Some(IpAddr::V4(h.dst)),
            NetworkLayer::Ipv6(h) => Some(IpAddr::V6(h.dst)),
            _ => None,
        }
    }

    /// IP protocol number, when the packet is IP.
    pub fn ip_protocol(&self) -> Option<IpProtocol> {
        match &self.network {
            NetworkLayer::Ipv4(h) => Some(h.protocol),
            NetworkLayer::Ipv6(h) => Some(h.next_header),
            _ => None,
        }
    }

    /// Source transport port, when the packet is TCP or UDP.
    pub fn src_port(&self) -> Option<u16> {
        match self.transport {
            Some(TransportLayer::Tcp(h)) => Some(h.src_port),
            Some(TransportLayer::Udp(h)) => Some(h.src_port),
            _ => None,
        }
    }

    /// Destination transport port, when the packet is TCP or UDP.
    pub fn dst_port(&self) -> Option<u16> {
        match self.transport {
            Some(TransportLayer::Tcp(h)) => Some(h.dst_port),
            Some(TransportLayer::Udp(h)) => Some(h.dst_port),
            _ => None,
        }
    }

    /// TCP header, when the packet is TCP.
    pub fn tcp(&self) -> Option<&TcpHeader> {
        match &self.transport {
            Some(TransportLayer::Tcp(h)) => Some(h),
            _ => None,
        }
    }

    /// UDP header, when the packet is UDP.
    pub fn udp(&self) -> Option<&UdpHeader> {
        match &self.transport {
            Some(TransportLayer::Udp(h)) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use crate::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    fn tcp_packet() -> Packet {
        PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .tcp(1234, 80, TcpFlags::SYN)
            .payload(&[1, 2, 3])
            .build(Timestamp::from_secs(1))
    }

    #[test]
    fn parse_full_tcp_packet() {
        let packet = tcp_packet();
        let parsed = ParsedPacket::parse(&packet).unwrap();
        assert_eq!(parsed.src_ip(), Some(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1))));
        assert_eq!(parsed.dst_port(), Some(80));
        assert_eq!(parsed.payload_len, 3);
        assert_eq!(parsed.ip_protocol(), Some(IpProtocol::Tcp));
        assert!(parsed.tcp().unwrap().flags.contains(TcpFlags::SYN));
        assert_eq!(parsed.wire_len as usize, packet.wire_len());
    }

    #[test]
    fn unknown_ethertype_is_opaque() {
        let mut frame = vec![0u8; 20];
        frame[12] = 0x88; // 0x88cc = LLDP
        frame[13] = 0xcc;
        let packet = Packet::new(Timestamp::ZERO, frame);
        let parsed = ParsedPacket::parse(&packet).unwrap();
        assert!(matches!(parsed.network, NetworkLayer::Unknown(EtherType::Other(0x88cc))));
        assert!(parsed.transport.is_none());
        assert!(parsed.src_ip().is_none());
        assert!(parsed.src_port().is_none());
    }

    #[test]
    fn unknown_ip_protocol_is_opaque() {
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .ip_payload(IpProtocol::Other(47), &[0u8; 16]) // GRE
            .build(Timestamp::ZERO);
        let parsed = ParsedPacket::parse(&packet).unwrap();
        assert_eq!(parsed.transport, Some(TransportLayer::Other(IpProtocol::Other(47))));
        assert_eq!(parsed.payload_len, 16);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let packet = Packet::new(Timestamp::ZERO, vec![0u8; 10]);
        assert!(ParsedPacket::parse(&packet).is_err());
    }

    #[test]
    fn packet_clone_shares_buffer() {
        let packet = tcp_packet();
        let clone = packet.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(packet.data.as_ptr(), clone.data.as_ptr());
    }
}
