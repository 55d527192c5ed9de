//! Property-based round-trip tests: any packet the builder can construct must
//! survive serialization → pcap container → parsing with every field intact.

use std::net::Ipv4Addr;

use idsbench_net::pcap::{PcapReader, PcapWriter};
use idsbench_net::{
    internet_checksum, IcmpHeader, IpProtocol, MacAddr, NetError, NetworkLayer, Packet,
    PacketBuilder, ParsedPacket, TcpFlags, TcpHeader, Timestamp, TransportLayer,
};
use proptest::prelude::*;

/// Reads every record of an in-memory capture.
fn read_all(image: &[u8]) -> Result<Vec<Packet>, NetError> {
    PcapReader::new(image)?.collect()
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3]))
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    any::<u8>().prop_map(TcpFlags::from_bits)
}

proptest! {
    #[test]
    fn tcp_packet_round_trips(
        src_mac in arb_mac(),
        dst_mac in arb_mac(),
        src_ip in arb_ipv4(),
        dst_ip in arb_ipv4(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        flags in arb_flags(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        micros in 0u64..(1u64 << 40),
    ) {
        let mut header = TcpHeader::new(src_port, dst_port, flags);
        header.seq = seq;
        header.ack = ack;
        header.window = window;
        let packet = PacketBuilder::new()
            .ethernet(src_mac, dst_mac)
            .ipv4(src_ip, dst_ip)
            .tcp_header(header)
            .payload(&payload)
            .build(Timestamp::from_micros(micros));

        let parsed = ParsedPacket::parse(&packet).unwrap();
        prop_assert_eq!(parsed.src_mac(), src_mac);
        prop_assert_eq!(parsed.dst_mac(), dst_mac);
        prop_assert_eq!(parsed.src_ip(), Some(src_ip.into()));
        prop_assert_eq!(parsed.dst_ip(), Some(dst_ip.into()));
        prop_assert_eq!(parsed.src_port(), Some(src_port));
        prop_assert_eq!(parsed.dst_port(), Some(dst_port));
        prop_assert_eq!(parsed.payload_len as usize, payload.len());
        let tcp = parsed.tcp().unwrap();
        prop_assert_eq!(tcp.seq, seq);
        prop_assert_eq!(tcp.ack, ack);
        prop_assert_eq!(tcp.window, window);
        prop_assert_eq!(tcp.flags, flags);
        prop_assert_eq!(parsed.ts, Timestamp::from_micros(micros));
    }

    #[test]
    fn udp_packet_round_trips(
        src_ip in arb_ipv4(),
        dst_ip in arb_ipv4(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ipv4(src_ip, dst_ip)
            .udp(src_port, dst_port)
            .payload(&payload)
            .build(Timestamp::ZERO);
        let parsed = ParsedPacket::parse(&packet).unwrap();
        let Some(TransportLayer::Udp(udp)) = parsed.transport else {
            return Err(TestCaseError::fail("expected udp"));
        };
        prop_assert_eq!(udp.src_port, src_port);
        prop_assert_eq!(udp.dst_port, dst_port);
        prop_assert_eq!(udp.payload_len(), payload.len());
    }

    #[test]
    fn ipv4_checksum_always_verifies(
        src_ip in arb_ipv4(),
        dst_ip in arb_ipv4(),
        ttl in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ipv4_with_ttl(src_ip, dst_ip, ttl)
            .ip_payload(IpProtocol::Other(0xfd), &payload)
            .build(Timestamp::ZERO);
        // IPv4 header starts at offset 14 and is 20 bytes (builder never
        // emits options).
        prop_assert_eq!(internet_checksum(&packet.data[14..34]), 0);
    }

    #[test]
    fn pcap_container_round_trips(
        count in 0usize..20,
        seed in any::<u64>(),
    ) {
        let packets: Vec<Packet> = (0..count)
            .map(|i| {
                let len = 14 + ((seed as usize).wrapping_mul(i + 1) % 1200);
                Packet::new(
                    Timestamp::from_micros(seed % (1 << 32) + i as u64),
                    vec![(i % 251) as u8; len],
                )
            })
            .collect();
        let mut image = Vec::new();
        let mut writer = PcapWriter::new(&mut image).unwrap();
        for packet in &packets {
            writer.write_packet(packet).unwrap();
        }
        let restored = read_all(&image).unwrap();
        prop_assert_eq!(restored, packets);
    }

    #[test]
    fn icmp_echo_round_trips(identifier in any::<u16>(), sequence in any::<u16>()) {
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .icmp(IcmpHeader::echo_request(identifier, sequence))
            .build(Timestamp::ZERO);
        let parsed = ParsedPacket::parse(&packet).unwrap();
        let Some(TransportLayer::Icmp(icmp)) = parsed.transport else {
            return Err(TestCaseError::fail("expected icmp"));
        };
        prop_assert_eq!(&icmp.rest[0..2], &identifier.to_be_bytes());
        prop_assert_eq!(&icmp.rest[2..4], &sequence.to_be_bytes());
    }

    /// Arbitrary garbage must never panic the parser: it either parses or
    /// returns a structured error.
    #[test]
    fn parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let packet = Packet::new(Timestamp::ZERO, data);
        let _ = ParsedPacket::parse(&packet);
    }

    /// Arbitrary record bytes must never panic the pcap reader, whatever
    /// the global header's snaplen: each record decodes or fails with a
    /// structured error. The global header is valid (either byte order,
    /// either resolution), because random bytes almost never pass the
    /// magic check and so would never reach the record path. The first
    /// record claims an arbitrary capture length: even draws fold into
    /// 0..128, so the record decodes when enough bytes follow; odd draws
    /// keep the whole `u32` range and meet the size bound.
    #[test]
    fn pcap_reader_never_panics(
        magic in 0usize..4,
        snaplen in any::<u32>(),
        cap_len in any::<u32>(),
        records in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let swapped = magic >= 2;
        let put = |image: &mut Vec<u8>, value: u32| {
            let bytes = if swapped { value.to_be_bytes() } else { value.to_le_bytes() };
            image.extend_from_slice(&bytes);
        };
        // Magic (microseconds or nanoseconds), version 2.4, thiszone,
        // sigfigs, snaplen, Ethernet.
        let mut image = Vec::new();
        put(&mut image, [0xa1b2_c3d4, 0xa1b2_3c4d][magic % 2]);
        for half in [2u16, 4] {
            let bytes = if swapped { half.to_be_bytes() } else { half.to_le_bytes() };
            image.extend_from_slice(&bytes);
        }
        for field in [0, 0, snaplen, 1] {
            put(&mut image, field);
        }
        let cap_len = if cap_len % 2 == 0 { cap_len % 128 } else { cap_len };
        for field in [7, 9, cap_len, cap_len] {
            put(&mut image, field);
        }
        image.extend_from_slice(&records);
        let _ = read_all(&image);
    }
}

#[test]
fn ipv4_network_layer_reports_builder_ttl() {
    let packet = PacketBuilder::new()
        .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
        .ipv4_with_ttl(Ipv4Addr::new(9, 9, 9, 9), Ipv4Addr::new(8, 8, 8, 8), 42)
        .udp(1, 2)
        .build(Timestamp::ZERO);
    let parsed = ParsedPacket::parse(&packet).unwrap();
    let NetworkLayer::Ipv4(ip) = parsed.network else { panic!("expected ipv4") };
    assert_eq!(ip.ttl, 42);
}
