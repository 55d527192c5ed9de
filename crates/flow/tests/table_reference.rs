//! Differential tests for [`FlowTable`]'s expiry index and slab.
//!
//! [`ScanTable`] below is the table as it was before the index existed: an
//! idle sweep that walks *every* open flow once per trace-second, and a
//! capacity eviction that scans for the minimum `(last_seen, key)`. It keeps
//! only the summary the comparison needs (timestamps, packet counts,
//! teardown state), so it shares no code with the real table. Whatever the
//! index does to find due flows faster, each call must emit exactly what the
//! scan would have, in the same order.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use idsbench_flow::{
    FlowDirection, FlowKey, FlowRecord, FlowTable, FlowTableConfig, FlowTermination,
};
use idsbench_net::{
    Duration, MacAddr, PacketBuilder, ParsedPacket, TcpFlags, Timestamp, TransportLayer,
};
use proptest::prelude::*;

/// What the two tables must agree on for every emitted (or migrated) flow.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Summary {
    key: FlowKey,
    first_seen: Timestamp,
    last_seen: Timestamp,
    forward_packets: u64,
    backward_packets: u64,
    termination: FlowTermination,
}

fn summary(record: &FlowRecord) -> Summary {
    Summary {
        key: record.key,
        first_seen: record.first_seen,
        last_seen: record.last_seen,
        forward_packets: record.forward_packets,
        backward_packets: record.backward_packets,
        termination: record.termination,
    }
}

fn summaries(records: &[FlowRecord]) -> Vec<Summary> {
    records.iter().map(summary).collect()
}

/// One open flow of the reference table.
#[derive(Debug, Clone)]
struct ScanFlow {
    summary: Summary,
    initiator: FlowDirection,
    fin: (bool, bool),
    rst: bool,
    closing: bool,
}

impl ScanFlow {
    fn open(key: FlowKey, direction: FlowDirection, ts: Timestamp, flags: TcpFlags) -> Self {
        let mut flow = ScanFlow {
            summary: Summary {
                key,
                first_seen: ts,
                last_seen: ts,
                forward_packets: 0,
                backward_packets: 0,
                termination: FlowTermination::Flush,
            },
            initiator: direction,
            fin: (false, false),
            rst: false,
            closing: false,
        };
        flow.add(direction, ts, flags);
        flow
    }

    fn add(&mut self, direction: FlowDirection, ts: Timestamp, flags: TcpFlags) {
        let forward = direction == self.initiator;
        self.summary.last_seen = self.summary.last_seen.max(ts);
        if forward {
            self.summary.forward_packets += 1;
        } else {
            self.summary.backward_packets += 1;
        }
        if flags.contains(TcpFlags::FIN) {
            if forward {
                self.fin.0 = true;
            } else {
                self.fin.1 = true;
            }
        }
        self.rst |= flags.contains(TcpFlags::RST);
    }

    fn emit(mut self, termination: FlowTermination) -> Summary {
        self.summary.termination = termination;
        self.summary
    }
}

/// The full-scan flow table the expiry index replaced (see module docs).
#[derive(Debug)]
struct ScanTable {
    config: FlowTableConfig,
    flows: BTreeMap<FlowKey, ScanFlow>,
    last_sweep: Timestamp,
    emitted: u64,
}

impl ScanTable {
    fn new(config: FlowTableConfig) -> Self {
        ScanTable { config, flows: BTreeMap::new(), last_sweep: Timestamp::ZERO, emitted: 0 }
    }

    fn observe(&mut self, packet: &ParsedPacket) -> Vec<Summary> {
        let Some(key) = FlowKey::from_packet(packet) else {
            return Vec::new();
        };
        let (key, direction) = key.canonical();
        let now = packet.ts;
        let flags = match packet.transport {
            Some(TransportLayer::Tcp(tcp)) => tcp.flags,
            _ => TcpFlags::default(),
        };
        let mut out = self.sweep(now);
        let fresh_syn = flags.contains(TcpFlags::SYN) && !flags.contains(TcpFlags::ACK);
        let fresh = ScanFlow::open(key, direction, now, flags);
        let active_timeout = self.config.active_timeout;
        let mut timed_out = false;
        match self.flows.get_mut(&key) {
            Some(flow) if flow.closing && fresh_syn => {
                out.push(std::mem::replace(flow, fresh).emit(FlowTermination::TcpClose));
            }
            Some(flow) => {
                flow.add(direction, now, flags);
                if flow.rst || flow.fin == (true, true) {
                    flow.closing = true;
                } else {
                    timed_out = now.saturating_since(flow.summary.first_seen) >= active_timeout;
                }
            }
            None => {
                self.flows.insert(key, fresh);
            }
        }
        if timed_out {
            let flow = self.flows.remove(&key).expect("present");
            out.push(flow.emit(FlowTermination::ActiveTimeout));
        }
        if self.flows.len() > self.config.max_flows {
            let stalest = *self
                .flows
                .iter()
                .min_by_key(|(key, flow)| (flow.summary.last_seen, **key))
                .expect("over capacity")
                .0;
            out.push(self.flows.remove(&stalest).expect("present").emit(FlowTermination::Evicted));
        }
        self.emitted += out.len() as u64;
        out
    }

    /// The deleted sweep: once per trace-second, test every open flow.
    fn sweep(&mut self, now: Timestamp) -> Vec<Summary> {
        if now.saturating_since(self.last_sweep) < Duration::from_secs(1) {
            return Vec::new();
        }
        self.last_sweep = now;
        let config = self.config;
        let due: Vec<FlowKey> = self
            .flows
            .values()
            .filter(|flow| {
                let timeout = if flow.closing { config.time_wait } else { config.idle_timeout };
                now.saturating_since(flow.summary.last_seen) >= timeout
            })
            .map(|flow| flow.summary.key)
            .collect();
        let mut out: Vec<Summary> = due
            .iter()
            .map(|key| {
                let flow = self.flows.remove(key).expect("present");
                let termination = if flow.closing {
                    FlowTermination::TcpClose
                } else {
                    FlowTermination::IdleTimeout
                };
                flow.emit(termination)
            })
            .collect();
        out.sort_by_key(|s| (s.first_seen, s.key));
        out
    }

    fn flush(&mut self) -> Vec<Summary> {
        let mut out: Vec<Summary> = std::mem::take(&mut self.flows)
            .into_values()
            .map(|flow| {
                let termination =
                    if flow.closing { FlowTermination::TcpClose } else { FlowTermination::Flush };
                flow.emit(termination)
            })
            .collect();
        out.sort_by_key(|s| (s.first_seen, s.key));
        self.emitted += out.len() as u64;
        out
    }
}

/// The real table and the reference, driven in lock-step.
struct Pair {
    real: FlowTable,
    scan: ScanTable,
}

impl Pair {
    fn new(config: FlowTableConfig) -> Self {
        Pair { real: FlowTable::new(config), scan: ScanTable::new(config) }
    }

    fn check_counters(&self) {
        assert_eq!(self.real.flows_emitted(), self.scan.emitted, "flows_emitted diverged");
        assert_eq!(self.real.active_flows(), self.scan.flows.len(), "active_flows diverged");
    }

    /// Feeds one packet to both; returns the packets carried by whatever it
    /// made the tables emit.
    fn observe(&mut self, packet: &ParsedPacket) -> u64 {
        let real = summaries(&self.real.observe(packet));
        let scan = self.scan.observe(packet);
        assert_eq!(real, scan, "emissions diverged on packet at {}", packet.ts);
        self.check_counters();
        real.iter().map(|s| s.forward_packets + s.backward_packets).sum()
    }

    fn flush(&mut self) -> u64 {
        let real = summaries(&self.real.flush());
        let scan = self.scan.flush();
        assert_eq!(real, scan, "flush diverged");
        self.check_counters();
        real.iter().map(|s| s.forward_packets + s.backward_packets).sum()
    }

    /// Moves `key`'s open flow (if any) from `self` into `heir`, as shard
    /// rebalancing and checkpoint restore do.
    fn migrate(&mut self, key: &FlowKey, heir: &mut Pair) {
        assert_eq!(self.real.contains(key), self.scan.flows.contains_key(key));
        if heir.real.contains(key) {
            return;
        }
        let Some(record) = self.real.extract(key) else {
            return;
        };
        let flow = self.scan.flows.remove(key).expect("reference holds the flow too");
        assert_eq!(summary(&record), flow.summary, "extracted record diverged");
        heir.real.absorb(record);
        heir.scan.flows.insert(*key, flow);
        self.check_counters();
        heir.check_counters();
    }

    fn set_sweep_clock(&mut self, ts: Timestamp) {
        self.real.set_sweep_clock(ts);
        self.scan.last_sweep = ts;
    }
}

/// Packet `kind`s: the flag combinations that drive the TCP state machine,
/// plus UDP (its own 5-tuple, never closes).
const KINDS: u8 = 6;

fn packet(tuple: u8, kind: u8, forward: bool, ts: Timestamp) -> ParsedPacket {
    let (a, b) = ((tuple % 2 + 1, 4000 + u16::from(tuple / 2)), (9u8, 80u16));
    let (src, dst) = if forward { (a, b) } else { (b, a) };
    let builder = PacketBuilder::new()
        .ethernet(MacAddr::from_host_id(src.0.into()), MacAddr::from_host_id(dst.0.into()))
        .ipv4(Ipv4Addr::new(10, 0, 0, src.0), Ipv4Addr::new(10, 0, 0, dst.0));
    let builder = match kind {
        0 => builder.tcp(src.1, dst.1, TcpFlags::SYN),
        1 => builder.tcp(src.1, dst.1, TcpFlags::SYN | TcpFlags::ACK),
        2 => builder.tcp(src.1, dst.1, TcpFlags::ACK),
        3 => builder.tcp(src.1, dst.1, TcpFlags::FIN | TcpFlags::ACK),
        4 => builder.tcp(src.1, dst.1, TcpFlags::RST),
        _ => builder.udp(src.1, dst.1),
    };
    ParsedPacket::parse(&builder.build(ts)).expect("well-formed packet")
}

fn key_of(tuple: u8, kind: u8) -> FlowKey {
    FlowKey::from_packet(&packet(tuple, kind, true, Timestamp::ZERO))
        .expect("ip packet")
        .canonical()
        .0
}

/// Short timeouts, so idle, TIME_WAIT and active expiry all fire within a
/// few hundred operations.
fn short_config(max_flows: usize) -> FlowTableConfig {
    FlowTableConfig {
        idle_timeout: Duration::from_secs(7),
        active_timeout: Duration::from_secs(20),
        time_wait: Duration::from_secs(3),
        max_flows,
    }
}

/// Clock steps, in microseconds: none, sub-second, just over the sweep
/// cadence, over each timeout in turn — and two *backwards* steps, one of
/// them further than the idle timeout. `jitter` is below one second.
fn step(now: u64, kind: u8, jitter: u64) -> u64 {
    const S: u64 = 1_000_000;
    match kind {
        0 => now,
        1 | 2 => now + jitter,
        3 => now + S + jitter,
        4 => now + 3 * S + jitter,
        5 => now + 7 * S + jitter,
        6 => now + 20 * S + jitter,
        7 => now.saturating_sub(jitter),
        _ => now.saturating_sub(8 * S + jitter),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random traffic over eight tuples, interleaved with migrations between
    /// two tables, sweep-clock restores and mid-stream flushes: the indexed
    /// table and the full-scan reference agree call by call.
    #[test]
    fn indexed_table_matches_the_full_scan_reference(
        max_flows in 2usize..12,
        ops in proptest::collection::vec(
            (0u8..100, 0u8..8, 0u8..KINDS, any::<bool>(), 0u8..9, 0u64..1_000_000),
            1..400,
        ),
    ) {
        let config = short_config(max_flows);
        let mut tables = [Pair::new(config), Pair::new(config)];
        let mut now = 30_000_000u64;
        let (mut observed, mut emitted) = (0u64, 0u64);
        for (op, tuple, kind, flag, step_kind, jitter) in ops {
            let [a, b] = &mut tables;
            let (this, other) = if flag { (a, b) } else { (b, a) };
            match op {
                0..=79 => {
                    now = step(now, step_kind, jitter);
                    observed += 1;
                    let ts = Timestamp::from_micros(now);
                    emitted += this.observe(&packet(tuple, kind, jitter % 2 == 0, ts));
                }
                80..=87 => {
                    // Out and straight back in: the index entry is re-filed.
                    let key = key_of(tuple, kind);
                    let mut limbo = Pair::new(config);
                    this.migrate(&key, &mut limbo);
                    limbo.migrate(&key, this);
                }
                88..=93 => this.migrate(&key_of(tuple, kind), other),
                94..=96 => {
                    this.set_sweep_clock(Timestamp::from_micros(step(now, step_kind, jitter)));
                }
                _ => emitted += this.flush(),
            }
        }
        for table in &mut tables {
            emitted += table.flush();
        }
        prop_assert_eq!(emitted, observed, "every packet lands in exactly one emitted flow");
    }
}

/// A SYN flood of distinct spoofed sources through a 64-flow table: every
/// packet past the 64th evicts, and the evicted sequence is the scan's.
#[test]
fn flood_evicts_the_scan_models_victims_without_scanning() {
    let mut pair = Pair::new(FlowTableConfig { max_flows: 64, ..FlowTableConfig::default() });
    let mut evicted = 0u64;
    for i in 0..10_000u32 {
        let p = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(i), MacAddr::from_host_id(1))
            .ipv4(Ipv4Addr::from(0x0b00_0000 + i), Ipv4Addr::new(10, 0, 0, 1))
            .tcp(1024 + (i % 50_000) as u16, 80, TcpFlags::SYN)
            // Four packets per microsecond: ties in `last_seen` exercise the
            // key tie-break.
            .build(Timestamp::from_micros(u64::from(i / 4)));
        evicted += pair.observe(&ParsedPacket::parse(&p).expect("well-formed packet"));
        assert!(pair.real.active_flows() <= 64);
    }
    assert_eq!(evicted, 10_000 - 64, "one eviction per packet once the table is full");
    assert_eq!(evicted + pair.flush(), 10_000);
}

/// Far-future, zero and backwards timestamps: no panic or overflow (this
/// runs in a debug build), the reference's emissions, and every packet
/// accounted for exactly once.
#[test]
fn hostile_timestamps_neither_panic_nor_lose_packets() {
    let far = u64::MAX;
    let s = 1_000_000u64;
    #[rustfmt::skip]
    let traces: [&[(u8, u8, u64)]; 4] = [
        // A packet at u64::MAX µs, then ordinary time again.
        &[(0, 5, 5 * s), (1, 0, 6 * s), (2, 5, far), (0, 5, 7 * s), (3, 5, far), (1, 2, far - 1), (0, 5, 9 * s)],
        // Timestamp::ZERO after later traffic.
        &[(0, 5, 50 * s), (1, 0, 51 * s), (0, 5, 0), (2, 5, 0), (1, 4, 0), (3, 5, 52 * s), (1, 0, 60 * s)],
        // Backwards steps larger than the idle timeout, around a reopen.
        &[(0, 0, 100 * s), (0, 4, 101 * s), (1, 5, 90 * s), (0, 0, 80 * s), (0, 2, 102 * s), (1, 5, 70 * s),
          (0, 4, 111 * s), (2, 5, 60 * s), (0, 0, 125 * s), (3, 5, 140 * s)],
        // The sweep clock itself parked in the far future.
        &[(0, 5, far), (1, 5, far), (0, 5, 3 * s), (2, 0, 4 * s), (2, 4, far), (2, 0, 5 * s)],
    ];
    for trace in traces {
        let mut pair = Pair::new(short_config(3));
        let mut emitted = 0;
        for &(tuple, kind, micros) in trace {
            emitted += pair.observe(&packet(tuple, kind, true, Timestamp::from_micros(micros)));
        }
        assert_eq!(emitted + pair.flush(), trace.len() as u64);
    }
}

/// A tuple that closes and reopens over and over leaves a trail of dead
/// index entries; none of them may emit the reopened flow early, twice, or
/// after it has gone.
#[test]
fn dead_index_entries_never_resurrect_a_reopened_tuple() {
    let mut pair = Pair::new(short_config(1000));
    let mut emitted = 0;
    let mut sent = 0;
    let mut now = 0u64;
    for round in 0..200u64 {
        // SYN, RST, then a fresh SYN ends the TIME_WAIT — at gaps that walk
        // across the 1 s sweep cadence and the 3 s / 7 s timeouts.
        for kind in [0, 4] {
            now += 150_000 + (round % 9) * 450_000;
            emitted += pair.observe(&packet(0, kind, true, Timestamp::from_micros(now)));
            sent += 1;
        }
        assert!(pair.real.active_flows() <= 1);
    }
    assert_eq!(emitted + pair.flush(), sent);
}
