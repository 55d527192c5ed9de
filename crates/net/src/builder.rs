use std::net::{Ipv4Addr, Ipv6Addr};

use bytes::{BufMut, BytesMut};

use crate::arp::ArpPacket;
use crate::checksum::pseudo_header_checksum;
use crate::ethernet::{EtherType, EthernetHeader};
use crate::icmp::IcmpHeader;
use crate::ipv4::{IpProtocol, Ipv4Header};
use crate::ipv6::Ipv6Header;
use crate::packet::Packet;
use crate::tcp::{TcpFlags, TcpHeader};
use crate::time::Timestamp;
use crate::udp::UdpHeader;
use crate::{internet_checksum, MacAddr};

#[derive(Debug, Clone)]
enum NetworkPlan {
    None,
    Ipv4 { src: Ipv4Addr, dst: Ipv4Addr, ttl: u8 },
    Ipv6 { src: Ipv6Addr, dst: Ipv6Addr },
    Arp(ArpPacket),
}

#[derive(Debug, Clone)]
enum TransportPlan {
    None,
    Tcp(TcpHeader),
    Udp { src_port: u16, dst_port: u16 },
    Icmp(IcmpHeader),
    Raw(IpProtocol),
}

/// Assembles syntactically valid frames with lengths and checksums computed
/// automatically.
///
/// This is the single construction path used by every synthetic traffic
/// generator, which guarantees that whatever the generators emit survives the
/// same parser the replay pipeline applies to capture files.
///
/// # Examples
///
/// ```
/// use idsbench_net::{MacAddr, PacketBuilder, Timestamp};
/// use std::net::Ipv4Addr;
///
/// let packet = PacketBuilder::new()
///     .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
///     .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(8, 8, 8, 8))
///     .udp(5353, 53)
///     .payload(b"dns-query")
///     .build(Timestamp::from_secs(42));
/// assert_eq!(packet.ts, Timestamp::from_secs(42));
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    network: NetworkPlan,
    transport: TransportPlan,
    payload: Vec<u8>,
}

impl Default for PacketBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        PacketBuilder {
            src_mac: MacAddr::ZERO,
            dst_mac: MacAddr::ZERO,
            network: NetworkPlan::None,
            transport: TransportPlan::None,
            payload: Vec::new(),
        }
    }

    /// Sets the Ethernet source and destination addresses.
    pub fn ethernet(mut self, src: MacAddr, dst: MacAddr) -> Self {
        self.src_mac = src;
        self.dst_mac = dst;
        self
    }

    /// Adds an IPv4 layer with default TTL 64.
    pub fn ipv4(mut self, src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        self.network = NetworkPlan::Ipv4 { src, dst, ttl: 64 };
        self
    }

    /// Adds an IPv4 layer with an explicit TTL (used by scan generators that
    /// mimic OS fingerprints).
    pub fn ipv4_with_ttl(mut self, src: Ipv4Addr, dst: Ipv4Addr, ttl: u8) -> Self {
        self.network = NetworkPlan::Ipv4 { src, dst, ttl };
        self
    }

    /// Adds an IPv6 layer.
    pub fn ipv6(mut self, src: Ipv6Addr, dst: Ipv6Addr) -> Self {
        self.network = NetworkPlan::Ipv6 { src, dst };
        self
    }

    /// Makes this frame an ARP packet (replaces any network/transport plan).
    pub fn arp(mut self, arp: ArpPacket) -> Self {
        self.network = NetworkPlan::Arp(arp);
        self.transport = TransportPlan::None;
        self
    }

    /// Adds a TCP layer with the given ports and flags.
    pub fn tcp(mut self, src_port: u16, dst_port: u16, flags: TcpFlags) -> Self {
        self.transport = TransportPlan::Tcp(TcpHeader::new(src_port, dst_port, flags));
        self
    }

    /// Adds a TCP layer from a fully specified header (sequence numbers,
    /// window, etc.). The checksum field is recomputed on build.
    pub fn tcp_header(mut self, header: TcpHeader) -> Self {
        self.transport = TransportPlan::Tcp(header);
        self
    }

    /// Adds a UDP layer with the given ports.
    pub fn udp(mut self, src_port: u16, dst_port: u16) -> Self {
        self.transport = TransportPlan::Udp { src_port, dst_port };
        self
    }

    /// Adds an ICMP layer.
    pub fn icmp(mut self, header: IcmpHeader) -> Self {
        self.transport = TransportPlan::Icmp(header);
        self
    }

    /// Adds an opaque IP payload under the given protocol number.
    pub fn ip_payload(mut self, protocol: IpProtocol, data: &[u8]) -> Self {
        self.transport = TransportPlan::Raw(protocol);
        self.payload = data.to_vec();
        self
    }

    /// Sets the application payload bytes.
    pub fn payload(mut self, data: &[u8]) -> Self {
        self.payload = data.to_vec();
        self
    }

    /// Sets an all-zero application payload of the given length.
    ///
    /// Generators use this for bulk traffic where only the size matters; the
    /// buffer is shared per-build so large floods stay cheap.
    pub fn payload_len(mut self, len: usize) -> Self {
        self.payload = vec![0u8; len];
        self
    }

    /// Assembles the frame.
    ///
    /// # Panics
    ///
    /// Panics if a transport layer was requested without a network layer, or
    /// if the resulting datagram would exceed the 16-bit IP length field.
    pub fn build(&self, ts: Timestamp) -> Packet {
        let transport_bytes = self.transport_bytes();
        let ip_payload_len = transport_bytes.len() + self.payload.len();
        assert!(ip_payload_len <= usize::from(u16::MAX) - 40, "datagram too large");

        let ethertype = match &self.network {
            NetworkPlan::Ipv4 { .. } => EtherType::Ipv4,
            NetworkPlan::Ipv6 { .. } => EtherType::Ipv6,
            NetworkPlan::Arp(_) => EtherType::Arp,
            NetworkPlan::None => {
                assert!(
                    matches!(self.transport, TransportPlan::None),
                    "transport layer requires a network layer"
                );
                EtherType::Other(0xffff)
            }
        };

        let mut buf = BytesMut::with_capacity(14 + 40 + ip_payload_len);
        let eth = EthernetHeader { dst: self.dst_mac, src: self.src_mac, ethertype };
        buf.put_slice(&eth.to_bytes());

        match &self.network {
            NetworkPlan::Ipv4 { src, dst, ttl } => {
                let mut header = Ipv4Header::new(*src, *dst, self.ip_protocol(), ip_payload_len);
                header.ttl = *ttl;
                buf.put_slice(&header.to_bytes());
                let segment = self.checksummed_segment(&transport_bytes, Some((*src, *dst)));
                buf.put_slice(&segment);
            }
            NetworkPlan::Ipv6 { src, dst } => {
                let header = Ipv6Header::new(*src, *dst, self.ip_protocol(), ip_payload_len);
                buf.put_slice(&header.to_bytes());
                // IPv6 checksums use a v6 pseudo-header; the evaluation
                // pipeline never verifies transport checksums over IPv6, so
                // emit the segment with a zero checksum.
                let segment = self.checksummed_segment(&transport_bytes, None);
                buf.put_slice(&segment);
            }
            NetworkPlan::Arp(arp) => {
                buf.put_slice(&arp.to_bytes());
            }
            NetworkPlan::None => {
                buf.put_slice(&self.payload);
            }
        }

        Packet { ts, data: buf.freeze() }
    }

    fn ip_protocol(&self) -> IpProtocol {
        match &self.transport {
            TransportPlan::Tcp(_) => IpProtocol::Tcp,
            TransportPlan::Udp { .. } => IpProtocol::Udp,
            TransportPlan::Icmp(_) => IpProtocol::Icmp,
            TransportPlan::Raw(p) => *p,
            TransportPlan::None => IpProtocol::Other(0xfd),
        }
    }

    fn transport_bytes(&self) -> Vec<u8> {
        match &self.transport {
            TransportPlan::Tcp(h) => h.to_bytes().to_vec(),
            TransportPlan::Udp { src_port, dst_port } => {
                UdpHeader::new(*src_port, *dst_port, self.payload.len()).to_bytes().to_vec()
            }
            TransportPlan::Icmp(h) => h.to_bytes().to_vec(),
            TransportPlan::Raw(_) | TransportPlan::None => Vec::new(),
        }
    }

    /// Concatenates transport header + payload and patches in the checksum.
    fn checksummed_segment(
        &self,
        transport_bytes: &[u8],
        v4_addrs: Option<(Ipv4Addr, Ipv4Addr)>,
    ) -> Vec<u8> {
        let mut segment = Vec::with_capacity(transport_bytes.len() + self.payload.len());
        segment.extend_from_slice(transport_bytes);
        segment.extend_from_slice(&self.payload);
        match (&self.transport, v4_addrs) {
            (TransportPlan::Tcp(_), Some((src, dst))) => {
                segment[16] = 0;
                segment[17] = 0;
                let sum = pseudo_header_checksum(src, dst, 6, &segment);
                segment[16..18].copy_from_slice(&sum.to_be_bytes());
            }
            (TransportPlan::Udp { .. }, Some((src, dst))) => {
                segment[6] = 0;
                segment[7] = 0;
                let sum = pseudo_header_checksum(src, dst, 17, &segment);
                // Per RFC 768 a computed zero is transmitted as 0xffff.
                let sum = if sum == 0 { 0xffff } else { sum };
                segment[6..8].copy_from_slice(&sum.to_be_bytes());
            }
            (TransportPlan::Icmp(_), _) => {
                segment[2] = 0;
                segment[3] = 0;
                let sum = internet_checksum(&segment);
                segment[2..4].copy_from_slice(&sum.to_be_bytes());
            }
            _ => {}
        }
        segment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NetworkLayer, ParsedPacket, TransportLayer};

    #[test]
    fn tcp_checksum_verifies() {
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .tcp(5555, 80, TcpFlags::SYN | TcpFlags::ECE)
            .payload(b"hello")
            .build(Timestamp::ZERO);
        // Extract the TCP segment (after 14-byte eth + 20-byte IP).
        let segment = &packet.data[34..];
        let sum = pseudo_header_checksum(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            6,
            segment,
        );
        assert_eq!(sum, 0, "checksummed segment must verify to zero");
    }

    #[test]
    fn udp_checksum_verifies() {
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ipv4(Ipv4Addr::new(172, 16, 0, 1), Ipv4Addr::new(172, 16, 0, 2))
            .udp(5353, 53)
            .payload(b"query")
            .build(Timestamp::ZERO);
        let segment = &packet.data[34..];
        let sum = pseudo_header_checksum(
            Ipv4Addr::new(172, 16, 0, 1),
            Ipv4Addr::new(172, 16, 0, 2),
            17,
            segment,
        );
        assert_eq!(sum, 0);
    }

    #[test]
    fn icmp_checksum_verifies() {
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .icmp(IcmpHeader::echo_request(7, 1))
            .payload(&[0xab; 32])
            .build(Timestamp::ZERO);
        let segment = &packet.data[34..];
        assert_eq!(internet_checksum(segment), 0);
    }

    #[test]
    fn ipv6_udp_parses() {
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ipv6(
                Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 1),
                Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 2),
            )
            .udp(1000, 2000)
            .payload(&[1, 2, 3, 4])
            .build(Timestamp::ZERO);
        let parsed = ParsedPacket::parse(&packet).unwrap();
        assert!(matches!(parsed.network, NetworkLayer::Ipv6(_)));
        assert_eq!(parsed.payload_len, 4);
        assert_eq!(parsed.dst_port(), Some(2000));
    }

    #[test]
    fn arp_builds_and_parses() {
        let arp = ArpPacket::request(
            MacAddr::from_host_id(9),
            Ipv4Addr::new(192, 168, 0, 9),
            Ipv4Addr::new(192, 168, 0, 1),
        );
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(9), MacAddr::BROADCAST)
            .arp(arp)
            .build(Timestamp::ZERO);
        let parsed = ParsedPacket::parse(&packet).unwrap();
        assert_eq!(parsed.network, NetworkLayer::Arp(arp));
    }

    #[test]
    fn total_length_fields_are_consistent() {
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .udp(1, 2)
            .payload(&[0u8; 100])
            .build(Timestamp::ZERO);
        let parsed = ParsedPacket::parse(&packet).unwrap();
        let NetworkLayer::Ipv4(ip) = parsed.network else { panic!("expected ipv4") };
        assert_eq!(ip.total_len as usize, 20 + 8 + 100);
        let Some(TransportLayer::Udp(udp)) = parsed.transport else { panic!("expected udp") };
        assert_eq!(udp.length as usize, 8 + 100);
        assert_eq!(packet.wire_len(), 14 + 20 + 8 + 100);
    }

    #[test]
    #[should_panic(expected = "transport layer requires a network layer")]
    fn transport_without_network_panics() {
        let _ = PacketBuilder::new().tcp(1, 2, TcpFlags::SYN).build(Timestamp::ZERO);
    }

    #[test]
    fn custom_tcp_header_fields_survive() {
        let mut header = TcpHeader::new(1, 2, TcpFlags::ACK);
        header.seq = 1000;
        header.ack = 2000;
        header.window = 333;
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
            .tcp_header(header)
            .build(Timestamp::ZERO);
        let parsed = ParsedPacket::parse(&packet).unwrap();
        let tcp = parsed.tcp().unwrap();
        assert_eq!(tcp.seq, 1000);
        assert_eq!(tcp.ack, 2000);
        assert_eq!(tcp.window, 333);
    }
}
