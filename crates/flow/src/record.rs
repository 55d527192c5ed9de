use idsbench_net::{Duration, ParsedPacket, TcpFlags, Timestamp, TransportLayer};

use crate::key::{FlowDirection, FlowKey};
use crate::running::RunningStats;

/// Why a flow was emitted from the flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowTermination {
    /// No packet seen for longer than the idle timeout.
    IdleTimeout,
    /// Flow exceeded the active timeout and was cut (long-lived flows are
    /// emitted in segments, as NetFlow exporters do).
    ActiveTimeout,
    /// TCP teardown observed (FIN from both sides or RST).
    TcpClose,
    /// The table was flushed at end of trace.
    Flush,
    /// The table hit its capacity limit and evicted the oldest flow.
    Evicted,
}

/// A completed bidirectional flow with accumulated statistics.
///
/// The *forward* direction is the direction of the first packet observed
/// (the initiator). All statistics needed by the CICFlowMeter-style feature
/// vector are accumulated incrementally — no packet list is retained.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Canonical flow key (see [`FlowKey::canonical`]).
    pub key: FlowKey,
    /// Direction of the first packet relative to the canonical key.
    pub initiator_direction: FlowDirection,
    /// Timestamp of the first packet.
    pub first_seen: Timestamp,
    /// Timestamp of the last packet.
    pub last_seen: Timestamp,
    /// Packets in the forward (initiator) direction.
    pub forward_packets: u64,
    /// Packets in the backward (responder) direction.
    pub backward_packets: u64,
    /// Wire bytes in the forward direction.
    pub forward_bytes: u64,
    /// Wire bytes in the backward direction.
    pub backward_bytes: u64,
    /// Payload (application) bytes in the forward direction.
    pub forward_payload_bytes: u64,
    /// Payload bytes in the backward direction.
    pub backward_payload_bytes: u64,
    /// Packet-length statistics, forward direction.
    pub forward_len: RunningStats,
    /// Packet-length statistics, backward direction.
    pub backward_len: RunningStats,
    /// Inter-arrival statistics over the whole flow (seconds).
    pub iat: RunningStats,
    /// Inter-arrival statistics, forward direction only.
    pub forward_iat: RunningStats,
    /// Inter-arrival statistics, backward direction only.
    pub backward_iat: RunningStats,
    /// Count of packets carrying each TCP flag (fin, syn, rst, psh, ack, urg).
    pub flag_counts: [u64; 6],
    /// SYN seen from the initiator (connection attempt).
    pub saw_syn: bool,
    /// SYN+ACK seen from the responder.
    pub saw_syn_ack: bool,
    /// FIN seen from forward / backward direction.
    pub saw_fin: (bool, bool),
    /// RST seen in either direction.
    pub saw_rst: bool,
    /// Why the flow was emitted (set by the flow table).
    pub termination: FlowTermination,
    /// TCP teardown observed; the flow lingers in TIME_WAIT so trailing
    /// ACKs/retransmits join it instead of dangling as one-packet flows.
    pub(crate) closing: bool,
    last_packet_ts: Timestamp,
    last_forward_ts: Option<Timestamp>,
    last_backward_ts: Option<Timestamp>,
}

impl FlowRecord {
    /// Starts a new record from the first packet of a flow.
    pub(crate) fn open(key: FlowKey, direction: FlowDirection, packet: &ParsedPacket) -> Self {
        let mut record = FlowRecord {
            key,
            initiator_direction: direction,
            first_seen: packet.ts,
            last_seen: packet.ts,
            forward_packets: 0,
            backward_packets: 0,
            forward_bytes: 0,
            backward_bytes: 0,
            forward_payload_bytes: 0,
            backward_payload_bytes: 0,
            forward_len: RunningStats::new(),
            backward_len: RunningStats::new(),
            iat: RunningStats::new(),
            forward_iat: RunningStats::new(),
            backward_iat: RunningStats::new(),
            flag_counts: [0; 6],
            saw_syn: false,
            saw_syn_ack: false,
            saw_fin: (false, false),
            saw_rst: false,
            termination: FlowTermination::Flush,
            closing: false,
            last_packet_ts: packet.ts,
            last_forward_ts: None,
            last_backward_ts: None,
        };
        record.add(direction, packet, true);
        record
    }

    /// Accumulates a packet. `direction` is relative to the canonical key;
    /// internally it is normalised so "forward" means the initiator's
    /// direction.
    pub(crate) fn update(&mut self, direction: FlowDirection, packet: &ParsedPacket) {
        self.add(direction, packet, false);
    }

    fn add(&mut self, direction: FlowDirection, packet: &ParsedPacket, first: bool) {
        // Normalise: forward == initiator's direction.
        let is_forward = direction == self.initiator_direction;
        let wire_len = packet.wire_len as u64;
        let payload = packet.payload_len as u64;

        if !first {
            let gap = packet.ts.saturating_since(self.last_packet_ts).as_secs_f64();
            self.iat.push(gap);
        }
        self.last_packet_ts = packet.ts;
        self.last_seen = self.last_seen.max(packet.ts);

        if is_forward {
            if let Some(prev) = self.last_forward_ts {
                self.forward_iat.push(packet.ts.saturating_since(prev).as_secs_f64());
            }
            self.last_forward_ts = Some(packet.ts);
            self.forward_packets += 1;
            self.forward_bytes += wire_len;
            self.forward_payload_bytes += payload;
            self.forward_len.push(wire_len as f64);
        } else {
            if let Some(prev) = self.last_backward_ts {
                self.backward_iat.push(packet.ts.saturating_since(prev).as_secs_f64());
            }
            self.last_backward_ts = Some(packet.ts);
            self.backward_packets += 1;
            self.backward_bytes += wire_len;
            self.backward_payload_bytes += payload;
            self.backward_len.push(wire_len as f64);
        }

        if let Some(TransportLayer::Tcp(tcp)) = &packet.transport {
            const FLAGS: [TcpFlags; 6] = [
                TcpFlags::FIN,
                TcpFlags::SYN,
                TcpFlags::RST,
                TcpFlags::PSH,
                TcpFlags::ACK,
                TcpFlags::URG,
            ];
            for (slot, flag) in self.flag_counts.iter_mut().zip(FLAGS) {
                if tcp.flags.contains(flag) {
                    *slot += 1;
                }
            }
            if tcp.flags.contains(TcpFlags::SYN) {
                if tcp.flags.contains(TcpFlags::ACK) {
                    self.saw_syn_ack = true;
                } else if is_forward {
                    self.saw_syn = true;
                }
            }
            if tcp.flags.contains(TcpFlags::FIN) {
                if is_forward {
                    self.saw_fin.0 = true;
                } else {
                    self.saw_fin.1 = true;
                }
            }
            if tcp.flags.contains(TcpFlags::RST) {
                self.saw_rst = true;
            }
        }
    }

    /// Whether TCP teardown is complete (FIN both ways, or any RST).
    pub(crate) fn tcp_closed(&self) -> bool {
        self.saw_rst || (self.saw_fin.0 && self.saw_fin.1)
    }

    /// Flow duration.
    pub fn duration(&self) -> Duration {
        self.last_seen.saturating_since(self.first_seen)
    }

    /// Total packets in both directions.
    pub fn total_packets(&self) -> u64 {
        self.forward_packets + self.backward_packets
    }

    /// Total wire bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.forward_bytes + self.backward_bytes
    }

    /// Whether any response traffic was observed.
    pub fn is_bidirectional(&self) -> bool {
        self.backward_packets > 0
    }

    /// Whether this looks like an unanswered TCP connection attempt
    /// (SYN sent, no SYN-ACK, no payload exchanged).
    pub fn is_unanswered_syn(&self) -> bool {
        self.saw_syn && !self.saw_syn_ack && self.backward_payload_bytes == 0
    }

    /// The flow key as seen by the initiator (source = whoever sent the
    /// first packet).
    pub fn initiator_key(&self) -> FlowKey {
        match self.initiator_direction {
            FlowDirection::Forward => self.key,
            FlowDirection::Backward => self.key.reversed(),
        }
    }

    /// Serializes the full record — including the private continuation state
    /// (`closing`, last-packet timestamps) — for cross-process flow
    /// migration. [`FlowRecord::decode_wire`] restores a bitwise-identical
    /// record, so a migrated flow keeps accumulating IATs and teardown state
    /// exactly as if it had never moved.
    pub fn encode_wire(&self, out: &mut Vec<u8>) {
        use idsbench_net::wire::{put_bool, put_f64, put_u64, put_u8};
        self.key.encode_wire(out);
        put_u8(out, matches!(self.initiator_direction, FlowDirection::Backward) as u8);
        put_u64(out, self.first_seen.as_micros());
        put_u64(out, self.last_seen.as_micros());
        put_u64(out, self.forward_packets);
        put_u64(out, self.backward_packets);
        put_u64(out, self.forward_bytes);
        put_u64(out, self.backward_bytes);
        put_u64(out, self.forward_payload_bytes);
        put_u64(out, self.backward_payload_bytes);
        for stats in [
            &self.forward_len,
            &self.backward_len,
            &self.iat,
            &self.forward_iat,
            &self.backward_iat,
        ] {
            let (count, mean, m2, min, max, sum) = stats.to_parts();
            put_u64(out, count);
            put_f64(out, mean);
            put_f64(out, m2);
            put_f64(out, min);
            put_f64(out, max);
            put_f64(out, sum);
        }
        for count in self.flag_counts {
            put_u64(out, count);
        }
        put_bool(out, self.saw_syn);
        put_bool(out, self.saw_syn_ack);
        put_bool(out, self.saw_fin.0);
        put_bool(out, self.saw_fin.1);
        put_bool(out, self.saw_rst);
        put_u8(out, self.termination.as_wire_u8());
        put_bool(out, self.closing);
        put_u64(out, self.last_packet_ts.as_micros());
        put_bool(out, self.last_forward_ts.is_some());
        put_u64(out, self.last_forward_ts.map_or(0, |ts| ts.as_micros()));
        put_bool(out, self.last_backward_ts.is_some());
        put_u64(out, self.last_backward_ts.map_or(0, |ts| ts.as_micros()));
    }

    /// Decodes a record written by [`FlowRecord::encode_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`wire::WireError`](idsbench_net::wire::WireError) on a
    /// truncated buffer or an invalid direction/protocol/termination tag.
    pub fn decode_wire(
        reader: &mut idsbench_net::wire::WireReader<'_>,
    ) -> idsbench_net::wire::WireResult<Self> {
        use idsbench_net::wire::WireError;
        let key = FlowKey::decode_wire(reader)?;
        let initiator_direction = match reader.u8()? {
            0 => FlowDirection::Forward,
            1 => FlowDirection::Backward,
            tag => return Err(WireError::BadTag(tag)),
        };
        let first_seen = Timestamp::from_micros(reader.u64()?);
        let last_seen = Timestamp::from_micros(reader.u64()?);
        let forward_packets = reader.u64()?;
        let backward_packets = reader.u64()?;
        let forward_bytes = reader.u64()?;
        let backward_bytes = reader.u64()?;
        let forward_payload_bytes = reader.u64()?;
        let backward_payload_bytes = reader.u64()?;
        let mut stats = [RunningStats::new(); 5];
        for slot in &mut stats {
            let count = reader.u64()?;
            let mean = reader.f64()?;
            let m2 = reader.f64()?;
            let min = reader.f64()?;
            let max = reader.f64()?;
            let sum = reader.f64()?;
            *slot = RunningStats::from_parts(count, mean, m2, min, max, sum);
        }
        let [forward_len, backward_len, iat, forward_iat, backward_iat] = stats;
        let mut flag_counts = [0u64; 6];
        for slot in &mut flag_counts {
            *slot = reader.u64()?;
        }
        let saw_syn = reader.bool()?;
        let saw_syn_ack = reader.bool()?;
        let saw_fin = (reader.bool()?, reader.bool()?);
        let saw_rst = reader.bool()?;
        let termination = FlowTermination::from_wire_u8(reader.u8()?)?;
        let closing = reader.bool()?;
        let last_packet_ts = Timestamp::from_micros(reader.u64()?);
        let has_forward_ts = reader.bool()?;
        let last_forward_ts =
            Some(Timestamp::from_micros(reader.u64()?)).filter(|_| has_forward_ts);
        let has_backward_ts = reader.bool()?;
        let last_backward_ts =
            Some(Timestamp::from_micros(reader.u64()?)).filter(|_| has_backward_ts);
        Ok(FlowRecord {
            key,
            initiator_direction,
            first_seen,
            last_seen,
            forward_packets,
            backward_packets,
            forward_bytes,
            backward_bytes,
            forward_payload_bytes,
            backward_payload_bytes,
            forward_len,
            backward_len,
            iat,
            forward_iat,
            backward_iat,
            flag_counts,
            saw_syn,
            saw_syn_ack,
            saw_fin,
            saw_rst,
            termination,
            closing,
            last_packet_ts,
            last_forward_ts,
            last_backward_ts,
        })
    }
}

impl FlowTermination {
    /// Stable wire discriminant.
    fn as_wire_u8(self) -> u8 {
        match self {
            FlowTermination::IdleTimeout => 0,
            FlowTermination::ActiveTimeout => 1,
            FlowTermination::TcpClose => 2,
            FlowTermination::Flush => 3,
            FlowTermination::Evicted => 4,
        }
    }

    fn from_wire_u8(tag: u8) -> idsbench_net::wire::WireResult<Self> {
        Ok(match tag {
            0 => FlowTermination::IdleTimeout,
            1 => FlowTermination::ActiveTimeout,
            2 => FlowTermination::TcpClose,
            3 => FlowTermination::Flush,
            4 => FlowTermination::Evicted,
            tag => return Err(idsbench_net::wire::WireError::BadTag(tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_net::{MacAddr, PacketBuilder, Timestamp};
    use std::net::Ipv4Addr;

    fn packet(
        src: (u8, u16),
        dst: (u8, u16),
        flags: TcpFlags,
        payload: usize,
        t: f64,
    ) -> ParsedPacket {
        let p = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(src.0 as u32), MacAddr::from_host_id(dst.0 as u32))
            .ipv4(Ipv4Addr::new(10, 0, 0, src.0), Ipv4Addr::new(10, 0, 0, dst.0))
            .tcp(src.1, dst.1, flags)
            .payload_len(payload)
            .build(Timestamp::from_secs_f64(t));
        ParsedPacket::parse(&p).unwrap()
    }

    fn open_three_way() -> FlowRecord {
        let syn = packet((1, 5000), (2, 80), TcpFlags::SYN, 0, 0.0);
        let key = FlowKey::from_packet(&syn).unwrap();
        let (canonical, dir) = key.canonical();
        let mut record = FlowRecord::open(canonical, dir, &syn);

        let synack = packet((2, 80), (1, 5000), TcpFlags::SYN | TcpFlags::ACK, 0, 0.010);
        let (_, dir2) = FlowKey::from_packet(&synack).unwrap().canonical();
        record.update(dir2, &synack);

        let ack = packet((1, 5000), (2, 80), TcpFlags::ACK, 100, 0.020);
        let (_, dir3) = FlowKey::from_packet(&ack).unwrap().canonical();
        record.update(dir3, &ack);
        record
    }

    #[test]
    fn three_way_handshake_accumulates() {
        let record = open_three_way();
        assert_eq!(record.forward_packets, 2);
        assert_eq!(record.backward_packets, 1);
        assert!(record.saw_syn);
        assert!(record.saw_syn_ack);
        assert!(record.is_bidirectional());
        assert!(!record.is_unanswered_syn());
        assert!((record.duration().as_secs_f64() - 0.020).abs() < 1e-9);
        // flag counts: fin syn rst psh ack urg
        assert_eq!(record.flag_counts, [0, 2, 0, 0, 2, 0]);
    }

    #[test]
    fn initiator_key_points_from_client() {
        let record = open_three_way();
        let ik = record.initiator_key();
        assert_eq!(ik.src_port, 5000);
        assert_eq!(ik.dst_port, 80);
    }

    #[test]
    fn unanswered_syn_detected() {
        let syn = packet((1, 6000), (2, 22), TcpFlags::SYN, 0, 0.0);
        let (canonical, dir) = FlowKey::from_packet(&syn).unwrap().canonical();
        let record = FlowRecord::open(canonical, dir, &syn);
        assert!(record.is_unanswered_syn());
    }

    #[test]
    fn fin_both_ways_closes() {
        let mut record = open_three_way();
        assert!(!record.tcp_closed());
        let fin1 = packet((1, 5000), (2, 80), TcpFlags::FIN | TcpFlags::ACK, 0, 0.5);
        let (_, d1) = FlowKey::from_packet(&fin1).unwrap().canonical();
        record.update(d1, &fin1);
        assert!(!record.tcp_closed());
        let fin2 = packet((2, 80), (1, 5000), TcpFlags::FIN | TcpFlags::ACK, 0, 0.6);
        let (_, d2) = FlowKey::from_packet(&fin2).unwrap().canonical();
        record.update(d2, &fin2);
        assert!(record.tcp_closed());
    }

    #[test]
    fn rst_closes_immediately() {
        let mut record = open_three_way();
        let rst = packet((2, 80), (1, 5000), TcpFlags::RST, 0, 0.1);
        let (_, d) = FlowKey::from_packet(&rst).unwrap().canonical();
        record.update(d, &rst);
        assert!(record.tcp_closed());
        assert!(record.saw_rst);
    }

    #[test]
    fn wire_roundtrip_is_bitwise_and_keeps_continuation_state() {
        let mut record = open_three_way();
        record.termination = FlowTermination::TcpClose;
        record.closing = true;
        let mut buf = Vec::new();
        record.encode_wire(&mut buf);
        let mut reader = idsbench_net::wire::WireReader::new(&buf);
        let mut decoded = FlowRecord::decode_wire(&mut reader).unwrap();
        assert!(reader.is_empty(), "decoder must consume the whole record");
        assert_eq!(decoded, record);
        // The private continuation state survived: the next packet's IAT is
        // measured from the migrated last-packet timestamp, not reset.
        let next = packet((1, 5000), (2, 80), TcpFlags::ACK, 10, 0.045);
        let (_, dir) = FlowKey::from_packet(&next).unwrap().canonical();
        decoded.update(dir, &next);
        record.update(dir, &next);
        assert_eq!(decoded, record);
        assert_eq!(decoded.iat.count(), 3);

        // Truncation anywhere is an error, never a panic or a bogus record.
        for cut in 0..buf.len() {
            let mut reader = idsbench_net::wire::WireReader::new(&buf[..cut]);
            assert!(FlowRecord::decode_wire(&mut reader).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn iat_statistics_track_gaps() {
        let record = open_three_way();
        assert_eq!(record.iat.count(), 2);
        assert!((record.iat.mean() - 0.010).abs() < 1e-9);
        // Forward IAT: between packet 1 (t=0) and packet 3 (t=0.020).
        assert_eq!(record.forward_iat.count(), 1);
        assert!((record.forward_iat.mean() - 0.020).abs() < 1e-9);
    }
}
