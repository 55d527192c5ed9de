use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use idsbench_net::fasthash::FxHashMap;
use idsbench_net::{Duration, ParsedPacket, Timestamp};

use crate::key::FlowKey;
use crate::record::{FlowRecord, FlowTermination};

/// Configuration for [`FlowTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTableConfig {
    /// A flow with no traffic for this long is emitted.
    pub idle_timeout: Duration,
    /// A flow older than this is cut and emitted even while active
    /// (matching NetFlow/CICFlowMeter exporter behaviour).
    pub active_timeout: Duration,
    /// How long a TCP flow lingers after teardown so trailing ACKs and
    /// retransmits join it (TIME_WAIT). A new SYN on the same 5-tuple ends
    /// the lingering flow immediately.
    pub time_wait: Duration,
    /// Maximum number of concurrently tracked flows; the stalest flow is
    /// evicted when the limit is hit.
    pub max_flows: usize,
}

impl Default for FlowTableConfig {
    /// CICFlowMeter-compatible defaults: 120 s idle timeout, 30 min active
    /// timeout, 10 s TIME_WAIT, one million tracked flows.
    fn default() -> Self {
        FlowTableConfig {
            idle_timeout: Duration::from_secs(120),
            active_timeout: Duration::from_secs(1800),
            time_wait: Duration::from_secs(10),
            max_flows: 1_000_000,
        }
    }
}

/// Index entries a class heap may hold beyond twice the live flow count
/// before its dead entries are compacted away.
const INDEX_SLACK: usize = 64;

/// One slab cell. `serial` names the record filed here last, so an index
/// entry filed for an earlier tenant of the cell is recognisably dead.
#[derive(Debug)]
struct Cell {
    serial: u64,
    record: Option<FlowRecord>,
}

/// One expiry-index entry: "the record `serial` in `slot` was last seen no
/// earlier than `seen`". The derived order is `(seen, key)` first — the
/// staleness order capacity eviction needs, tie-break included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct IndexEntry {
    seen: Timestamp,
    key: FlowKey,
    slot: u32,
    serial: u64,
}

/// Assembles packets into bidirectional flows.
///
/// Feed packets in timestamp order via [`FlowTable::observe`]; completed
/// flows are returned as they terminate (TCP close, idle timeout, active
/// timeout, capacity eviction). Call [`FlowTable::flush`] at end of trace to
/// drain the remainder.
///
/// # Layout and complexity
///
/// Records live in a slab (`Vec` of cells plus a free list); the hash map
/// holds only `key → slot`, so growing or compacting it moves small entries
/// and never a record (over 400 bytes). Expiry is served by an *expiry
/// index*: a lazy min-heap of `(seen, key)` entries per timeout class — open
/// flows expire `idle_timeout` after their last packet, flows in TIME_WAIT
/// `time_wait` after it — so that within a heap the order by `seen` is both
/// the order by deadline (what the sweep pops) and the order by staleness
/// (what capacity eviction pops).
///
/// * A packet on a known flow costs one hash lookup and one record update;
///   the index is **not** touched (an entry may lag its record).
/// * Opening, reopening or [`absorb`](FlowTable::absorb)ing a flow, and the
///   open → TIME_WAIT transition — the only event that moves a deadline
///   *earlier* — each file one entry: O(log n), O(1) when timestamps ascend.
/// * The idle sweep (first packet of each trace-second) pops only entries
///   whose `seen + timeout` has passed: O((expired + lagging) · log n), not
///   O(open flows). Capacity eviction pops the stalest entry: O(log n).
/// * Dead entries (their flow was extracted, cut by the active timeout,
///   reopened, or left the class) are dropped when popped, and a class heap
///   that outgrows `2 · active_flows + 64` entries is compacted in place —
///   amortised O(1) per filed entry — so the index is bounded by the live
///   flow count, not by traffic history.
///
/// Nothing on the per-packet path iterates the table; only
/// [`flush`](FlowTable::flush) does.
///
/// # Index invariant
///
/// Every live record has, in the heap of its class, exactly one entry that
/// names its slot and serial, and that entry's `seen` is ≤ the record's
/// `last_seen` — i.e. its deadline `seen + timeout` is never later than the
/// record's true one. `last_seen` never decreases, so the bound survives
/// every update without re-indexing. Popping in `seen` order therefore
/// meets every record that can be due; each is re-validated against the
/// live record and either emitted, or re-filed at its current `last_seen`.
/// All comparisons are saturating differences of timestamps (no deadline is
/// ever added up), so far-future and backwards timestamps cannot overflow.
///
/// # Determinism contract
///
/// The index decides only *how fast* the due set is found, never what it
/// is: a sweep at `now` emits exactly the records with `now − last_seen ≥
/// idle_timeout` (`time_wait` when closing), ordered by `(first_seen,
/// key)`; capacity eviction removes exactly the minimum `(last_seen, key)`.
/// Sweep cadence is a function of packet timestamps and
/// [`sweep_clock`](FlowTable::sweep_clock) alone. A table rebuilt through
/// `absorb` + [`set_sweep_clock`](FlowTable::set_sweep_clock) therefore
/// replays byte-identically to its donor, whatever the heaps' internal
/// arrangement.
#[derive(Debug)]
pub struct FlowTable {
    config: FlowTableConfig,
    flows: FxHashMap<FlowKey, u32>,
    slab: Vec<Cell>,
    free: Vec<u32>,
    next_serial: u64,
    /// The expiry index: `[open, closing]` min-heaps (see the type docs).
    index: [BinaryHeap<Reverse<IndexEntry>>; 2],
    last_sweep: Timestamp,
    emitted: u64,
    /// Sweep scratch, reused so the expiry sweep stays off the heap.
    sweep_records: Vec<FlowRecord>,
}

impl FlowTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `max_flows` is zero.
    pub fn new(config: FlowTableConfig) -> Self {
        assert!(config.max_flows > 0, "max_flows must be at least 1");
        FlowTable {
            config,
            flows: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            next_serial: 0,
            index: [BinaryHeap::new(), BinaryHeap::new()],
            last_sweep: Timestamp::ZERO,
            emitted: 0,
            sweep_records: Vec::new(),
        }
    }

    /// Number of flows currently being tracked.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Whether a canonical key currently has an open record in the table.
    pub fn contains(&self, key: &FlowKey) -> bool {
        self.flows.contains_key(key)
    }

    /// The open record for a canonical key, if any — a read-only peek that,
    /// unlike [`FlowTable::extract`], leaves ownership with this table. This
    /// is the checkpoint half of fault tolerance: a snapshot clones records
    /// without disturbing the live flow state.
    pub fn get(&self, key: &FlowKey) -> Option<&FlowRecord> {
        self.slab[*self.flows.get(key)? as usize].record.as_ref()
    }

    /// The timestamp of the last idle sweep ([`Timestamp::ZERO`] before the
    /// first). Together with [`FlowTable::set_sweep_clock`] this lets a
    /// recovered table resume with the donor's sweep phase, so replayed
    /// packets trigger idle evictions at exactly the packets the original
    /// table would have — byte-for-byte deterministic replay.
    pub fn sweep_clock(&self) -> Timestamp {
        self.last_sweep
    }

    /// Restores the sweep phase captured by [`FlowTable::sweep_clock`] on a
    /// fresh table before replay.
    pub fn set_sweep_clock(&mut self, ts: Timestamp) {
        self.last_sweep = ts;
    }

    /// Total flows emitted so far (not counting those still open).
    pub fn flows_emitted(&self) -> u64 {
        self.emitted
    }

    /// Accumulates one packet, returning any flows that completed as a
    /// result (timeouts are checked lazily against this packet's timestamp).
    ///
    /// Non-IP packets (e.g. ARP) are ignored and produce no flow.
    pub fn observe(&mut self, packet: &ParsedPacket) -> Vec<FlowRecord> {
        let mut completed = Vec::new();
        self.observe_with(packet, |record| completed.push(record));
        completed
    }

    /// Callback form of [`FlowTable::observe`]: evicted flows are handed to
    /// `emit` instead of being collected into a fresh vector.
    ///
    /// This is the eviction path of the Event API — the per-packet hot loop
    /// of both the batch replay and the streaming shards, where most packets
    /// evict nothing and the `Vec` allocation of [`FlowTable::observe`]
    /// would be pure overhead.
    pub fn observe_with(&mut self, packet: &ParsedPacket, mut emit: impl FnMut(FlowRecord)) {
        let Some(key) = FlowKey::from_packet(packet) else {
            return;
        };
        let (canonical, direction) = key.canonical();
        self.sweep_into(packet.ts, &mut emit);

        // An existing flow that idled out must be emitted before this packet
        // opens a fresh one (the sweep above already handled that case).
        let is_fresh_syn = matches!(
            packet.transport,
            Some(idsbench_net::TransportLayer::Tcp(h))
                if h.flags.contains(idsbench_net::TcpFlags::SYN)
                    && !h.flags.contains(idsbench_net::TcpFlags::ACK)
        );
        /// What the (rare) outcomes of the lookup defer until the record
        /// borrow is released.
        enum Outcome {
            None,
            /// Teardown seen: the flow's deadline moved earlier, so it needs
            /// an entry in the closing class.
            Closing(IndexEntry),
            /// TIME_WAIT ended by a new connection on the same tuple.
            Reopen,
            ActiveTimeout,
        }
        let outcome = match self.flows.get(&canonical) {
            Some(&slot) => {
                let cell = &mut self.slab[slot as usize];
                let flow = cell.record.as_mut().expect("mapped slot holds a record");
                if flow.closing && is_fresh_syn {
                    Outcome::Reopen
                } else {
                    flow.update(direction, packet);
                    if flow.tcp_closed() {
                        // Linger in TIME_WAIT; trailing ACKs join this flow.
                        if flow.closing {
                            Outcome::None
                        } else {
                            flow.closing = true;
                            Outcome::Closing(IndexEntry {
                                seen: flow.last_seen,
                                key: canonical,
                                slot,
                                serial: cell.serial,
                            })
                        }
                    } else if packet.ts.saturating_since(flow.first_seen)
                        >= self.config.active_timeout
                    {
                        Outcome::ActiveTimeout
                    } else {
                        Outcome::None
                    }
                }
            }
            None => {
                self.insert(FlowRecord::open(canonical, direction, packet));
                Outcome::None
            }
        };
        let record = match outcome {
            Outcome::None => None,
            Outcome::Closing(entry) => {
                self.file(entry, true);
                None
            }
            Outcome::Reopen => {
                let mut old = self.extract(&canonical).expect("reopened flow was present");
                self.insert(FlowRecord::open(canonical, direction, packet));
                old.termination = FlowTermination::TcpClose;
                Some(old)
            }
            Outcome::ActiveTimeout => {
                let mut record = self.extract(&canonical).expect("timed-out flow was present");
                record.termination = FlowTermination::ActiveTimeout;
                Some(record)
            }
        };
        if let Some(record) = record {
            self.emitted += 1;
            emit(record);
        }

        if self.flows.len() > self.config.max_flows {
            if let Some(record) = self.evict_stalest() {
                emit(record);
            }
        }
    }

    /// Removes the open flow for `key` *without* emitting it — the record
    /// keeps its in-progress state (no termination is assigned and
    /// [`FlowTable::flows_emitted`] does not advance). This is the donor
    /// half of shard rebalancing: ownership of the flow is moving to
    /// another table, which will [`FlowTable::absorb`] the record and
    /// continue aggregating as if the handoff never happened.
    pub fn extract(&mut self, key: &FlowKey) -> Option<FlowRecord> {
        let slot = self.flows.remove(key)?;
        self.free.push(slot);
        // The cell keeps its serial; with no record in it, the index
        // entries filed for this flow are dead.
        self.slab[slot as usize].record.take()
    }

    /// Adopts a record extracted from another table ([`FlowTable::extract`])
    /// under its own key. The record resumes exactly where the donor left
    /// off: subsequent packets, timeouts, and the final flush treat it as if
    /// it had always lived here.
    ///
    /// The key must not already be tracked — ring-based ownership guarantees
    /// a flow lives in exactly one table at a time (checked in debug
    /// builds).
    pub fn absorb(&mut self, record: FlowRecord) {
        debug_assert!(!self.contains(&record.key), "absorbed a flow the table already owned");
        self.insert(record);
    }

    /// Emits every flow still open, in first-seen order. Flows already in
    /// TIME_WAIT report [`FlowTermination::TcpClose`].
    pub fn flush(&mut self) -> Vec<FlowRecord> {
        let mut records: Vec<FlowRecord> = self
            .slab
            .drain(..)
            .filter_map(|cell| cell.record)
            .map(|mut record| {
                record.termination =
                    if record.closing { FlowTermination::TcpClose } else { FlowTermination::Flush };
                record
            })
            .collect();
        self.flows = FxHashMap::default();
        self.free.clear();
        self.index.iter_mut().for_each(BinaryHeap::clear);
        records.sort_by_key(|r| (r.first_seen, r.key));
        self.emitted += records.len() as u64;
        records
    }

    /// Files `record` under its key in a free slab cell and indexes it in
    /// the class its `closing` state selects. A record already filed under
    /// the key is replaced.
    fn insert(&mut self, record: FlowRecord) {
        let serial = self.next_serial;
        self.next_serial += 1;
        let (seen, key, closing) = (record.last_seen, record.key, record.closing);
        let cell = Cell { serial, record: Some(record) };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = cell;
                slot
            }
            None => {
                self.slab.push(cell);
                u32::try_from(self.slab.len() - 1).expect("flow slab outgrew u32 slot ids")
            }
        };
        let entry = IndexEntry { seen, key, slot, serial };
        if let Some(replaced) = self.flows.insert(key, slot) {
            self.slab[replaced as usize].record = None;
            self.free.push(replaced);
        }
        self.file(entry, closing);
    }

    /// Pushes one entry onto its class heap, compacting the heap when dead
    /// entries have come to outnumber the live flows (see the type docs).
    fn file(&mut self, entry: IndexEntry, closing: bool) {
        let heap = &mut self.index[usize::from(closing)];
        heap.push(Reverse(entry));
        if heap.len() > 2 * self.flows.len() + INDEX_SLACK {
            let slab = &self.slab;
            heap.retain(|Reverse(entry)| Self::resolve(slab, entry, closing).is_some());
        }
    }

    /// The live record an index entry still speaks for: the same tenant of
    /// its slab cell, still in the entry's class.
    fn resolve<'a>(slab: &'a [Cell], entry: &IndexEntry, closing: bool) -> Option<&'a FlowRecord> {
        let cell = &slab[entry.slot as usize];
        cell.record
            .as_ref()
            .filter(|record| cell.serial == entry.serial && record.closing == closing)
    }

    /// Brings an *exact* entry — live, with `seen` equal to its record's
    /// `last_seen` — to the top of a class heap and returns a copy of it,
    /// looking only at entries whose filed `seen` is `due`. Dead tops are
    /// dropped; lagging ones are re-filed at their record's `last_seen`.
    /// Every other entry bounds its record from below (the index
    /// invariant), so the returned one is the class minimum of
    /// `(last_seen, key)`.
    fn settle(&mut self, closing: bool, due: impl Fn(Timestamp) -> bool) -> Option<IndexEntry> {
        let heap = &mut self.index[usize::from(closing)];
        while let Some(mut top) = heap.peek_mut() {
            if !due(top.0.seen) {
                return None;
            }
            match Self::resolve(&self.slab, &top.0, closing).map(|record| record.last_seen) {
                None => {
                    PeekMut::pop(top);
                }
                Some(last_seen) if last_seen != top.0.seen => top.0.seen = last_seen,
                Some(_) => return Some(top.0),
            }
        }
        None
    }

    /// Lazily emits idle flows: at most once per second of trace time, pop
    /// each class of the expiry index up to `now − timeout`. Cost follows
    /// the number of flows that expire (plus lagging entries met on the
    /// way), not the number open, and everything runs in reused scratch so
    /// the steady-state eviction path performs no heap allocation
    /// (`sort_unstable` included — flow keys are unique, so the unstable
    /// sort is deterministic).
    fn sweep_into(&mut self, now: Timestamp, emit: &mut impl FnMut(FlowRecord)) {
        if now.saturating_since(self.last_sweep) < Duration::from_secs(1) {
            return;
        }
        self.last_sweep = now;
        let mut records = std::mem::take(&mut self.sweep_records);
        for closing in [false, true] {
            let (timeout, termination) = if closing {
                (self.config.time_wait, FlowTermination::TcpClose)
            } else {
                (self.config.idle_timeout, FlowTermination::IdleTimeout)
            };
            while let Some(entry) =
                self.settle(closing, |seen| now.saturating_since(seen) >= timeout)
            {
                // Extraction kills the entry; the next `settle` drops it.
                let mut record = self.extract(&entry.key).expect("settled entry names a live flow");
                record.termination = termination;
                records.push(record);
            }
        }
        records.sort_unstable_by_key(|r| (r.first_seen, r.key));
        self.emitted += records.len() as u64;
        for record in records.drain(..) {
            emit(record);
        }
        self.sweep_records = records;
    }

    /// Evicts the flow with the minimum `(last_seen, key)`: the smaller of
    /// the two classes' exact minima.
    fn evict_stalest(&mut self) -> Option<FlowRecord> {
        let open = self.settle(false, |_| true);
        let closing = self.settle(true, |_| true);
        let stalest = match (open, closing) {
            (Some(open), Some(closing)) => open.min(closing),
            (open, closing) => open.or(closing)?,
        };
        let mut record = self.extract(&stalest.key)?;
        record.termination = FlowTermination::Evicted;
        self.emitted += 1;
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_net::{MacAddr, PacketBuilder, TcpFlags};
    use std::net::Ipv4Addr;

    fn tcp_packet(src: (u8, u16), dst: (u8, u16), flags: TcpFlags, t: f64) -> ParsedPacket {
        let p = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(src.0 as u32), MacAddr::from_host_id(dst.0 as u32))
            .ipv4(Ipv4Addr::new(10, 0, 0, src.0), Ipv4Addr::new(10, 0, 0, dst.0))
            .tcp(src.1, dst.1, flags)
            .build(Timestamp::from_secs_f64(t));
        ParsedPacket::parse(&p).unwrap()
    }

    fn udp_packet(src: (u8, u16), dst: (u8, u16), t: f64) -> ParsedPacket {
        let p = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(src.0 as u32), MacAddr::from_host_id(dst.0 as u32))
            .ipv4(Ipv4Addr::new(10, 0, 0, src.0), Ipv4Addr::new(10, 0, 0, dst.0))
            .udp(src.1, dst.1)
            .payload(&[0; 32])
            .build(Timestamp::from_secs_f64(t));
        ParsedPacket::parse(&p).unwrap()
    }

    #[test]
    fn bidirectional_aggregation() {
        let mut table = FlowTable::new(FlowTableConfig::default());
        assert!(table.observe(&tcp_packet((1, 5000), (2, 80), TcpFlags::SYN, 0.0)).is_empty());
        assert!(table
            .observe(&tcp_packet((2, 80), (1, 5000), TcpFlags::SYN | TcpFlags::ACK, 0.01))
            .is_empty());
        assert_eq!(table.active_flows(), 1);
        let flows = table.flush();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].forward_packets, 1);
        assert_eq!(flows[0].backward_packets, 1);
    }

    #[test]
    fn tcp_close_lingers_in_time_wait_then_emits() {
        let mut table = FlowTable::new(FlowTableConfig::default());
        table.observe(&tcp_packet((1, 5000), (2, 80), TcpFlags::SYN, 0.0));
        table.observe(&tcp_packet((1, 5000), (2, 80), TcpFlags::FIN | TcpFlags::ACK, 0.1));
        let done =
            table.observe(&tcp_packet((2, 80), (1, 5000), TcpFlags::FIN | TcpFlags::ACK, 0.2));
        // TIME_WAIT: not emitted yet, so the final ACK can still join.
        assert!(done.is_empty());
        let done = table.observe(&tcp_packet((1, 5000), (2, 80), TcpFlags::ACK, 0.21));
        assert!(done.is_empty());
        let flows = table.flush();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].termination, FlowTermination::TcpClose);
        assert_eq!(flows[0].total_packets(), 4, "trailing ack joins the closed flow");
    }

    #[test]
    fn final_ack_does_not_dangle_into_next_session() {
        // Two back-to-back sessions on the same 5-tuple: each must come out
        // as its own complete flow with a sub-second duration.
        let mut table = FlowTable::new(FlowTableConfig::default());
        let mut emitted = Vec::new();
        for session in 0..2 {
            let t0 = session as f64 * 15.0;
            emitted.extend(table.observe(&tcp_packet((1, 5000), (2, 80), TcpFlags::SYN, t0)));
            emitted.extend(table.observe(&tcp_packet(
                (2, 80),
                (1, 5000),
                TcpFlags::SYN | TcpFlags::ACK,
                t0 + 0.01,
            )));
            emitted.extend(table.observe(&tcp_packet(
                (1, 5000),
                (2, 80),
                TcpFlags::ACK,
                t0 + 0.02,
            )));
            emitted.extend(table.observe(&tcp_packet(
                (1, 5000),
                (2, 80),
                TcpFlags::FIN | TcpFlags::ACK,
                t0 + 0.03,
            )));
            emitted.extend(table.observe(&tcp_packet(
                (2, 80),
                (1, 5000),
                TcpFlags::FIN | TcpFlags::ACK,
                t0 + 0.04,
            )));
            emitted.extend(table.observe(&tcp_packet(
                (1, 5000),
                (2, 80),
                TcpFlags::ACK,
                t0 + 0.05,
            )));
        }
        emitted.extend(table.flush());
        assert_eq!(emitted.len(), 2);
        for flow in &emitted {
            assert_eq!(flow.total_packets(), 6);
            assert!(flow.duration().as_secs_f64() < 1.0, "duration {}", flow.duration());
            assert_eq!(flow.termination, FlowTermination::TcpClose);
        }
    }

    #[test]
    fn idle_timeout_emits_flow() {
        let config =
            FlowTableConfig { idle_timeout: Duration::from_secs(10), ..Default::default() };
        let mut table = FlowTable::new(config);
        table.observe(&udp_packet((1, 999), (2, 53), 0.0));
        // A packet from an unrelated flow far in the future triggers the sweep.
        let done = table.observe(&udp_packet((3, 999), (4, 53), 100.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].termination, FlowTermination::IdleTimeout);
        assert_eq!(table.active_flows(), 1);
    }

    #[test]
    fn active_timeout_cuts_long_flow() {
        let config = FlowTableConfig {
            idle_timeout: Duration::from_secs(1000),
            active_timeout: Duration::from_secs(60),
            ..Default::default()
        };
        let mut table = FlowTable::new(config);
        let mut emitted = Vec::new();
        for i in 0..100 {
            emitted.extend(table.observe(&udp_packet((1, 999), (2, 53), i as f64)));
        }
        assert!(!emitted.is_empty(), "long-lived flow must be segmented");
        assert_eq!(emitted[0].termination, FlowTermination::ActiveTimeout);
    }

    #[test]
    fn capacity_eviction() {
        let config = FlowTableConfig { max_flows: 5, ..Default::default() };
        let mut table = FlowTable::new(config);
        let mut evicted = Vec::new();
        for i in 0..10u16 {
            evicted.extend(table.observe(&udp_packet((1, 1000 + i), (2, 53), i as f64 * 1e-3)));
        }
        assert!(table.active_flows() <= 5);
        assert!(evicted.iter().any(|r| r.termination == FlowTermination::Evicted));
    }

    #[test]
    fn flush_orders_by_first_seen() {
        let mut table = FlowTable::new(FlowTableConfig::default());
        table.observe(&udp_packet((5, 1000), (2, 53), 3.0));
        table.observe(&udp_packet((1, 1000), (2, 53), 1.0));
        table.observe(&udp_packet((3, 1000), (2, 53), 2.0));
        let flows = table.flush();
        let times: Vec<f64> = flows.iter().map(|f| f.first_seen.as_secs_f64()).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
        assert_eq!(table.flows_emitted(), 3);
    }

    #[test]
    fn non_ip_packets_are_ignored() {
        let mut table = FlowTable::new(FlowTableConfig::default());
        let arp = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(1), MacAddr::BROADCAST)
            .arp(idsbench_net::ArpPacket::request(
                MacAddr::from_host_id(1),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 254),
            ))
            .build(Timestamp::ZERO);
        let parsed = ParsedPacket::parse(&arp).unwrap();
        assert!(table.observe(&parsed).is_empty());
        assert_eq!(table.active_flows(), 0);
    }

    #[test]
    fn extract_and_absorb_hand_off_mid_flow() {
        // A flow split across two tables by an extract/absorb handoff must
        // come out identical to one that lived in a single table throughout.
        let mut single = FlowTable::new(FlowTableConfig::default());
        let mut donor = FlowTable::new(FlowTableConfig::default());
        let mut heir = FlowTable::new(FlowTableConfig::default());
        let first_half = [
            tcp_packet((1, 5000), (2, 80), TcpFlags::SYN, 0.0),
            tcp_packet((2, 80), (1, 5000), TcpFlags::SYN | TcpFlags::ACK, 0.01),
        ];
        let second_half = [
            tcp_packet((1, 5000), (2, 80), TcpFlags::ACK, 0.02),
            tcp_packet((1, 5000), (2, 80), TcpFlags::ACK, 0.03),
        ];
        for p in &first_half {
            assert!(single.observe(p).is_empty());
            assert!(donor.observe(p).is_empty());
        }
        let key = FlowKey::from_packet(&first_half[0]).unwrap().canonical().0;
        let record = donor.extract(&key).expect("open flow is extractable");
        assert_eq!(donor.active_flows(), 0);
        assert_eq!(donor.flows_emitted(), 0, "extraction is not an emission");
        heir.absorb(record);
        for p in &second_half {
            assert!(single.observe(p).is_empty());
            assert!(heir.observe(p).is_empty());
        }
        let expected = single.flush();
        let migrated = heir.flush();
        assert_eq!(expected, migrated, "handoff must be invisible to the record");
        assert_eq!(migrated[0].total_packets(), 4);
    }

    #[test]
    fn get_peeks_without_disturbing_ownership() {
        let mut table = FlowTable::new(FlowTableConfig::default());
        let p = tcp_packet((1, 5000), (2, 80), TcpFlags::SYN, 0.0);
        table.observe(&p);
        let key = FlowKey::from_packet(&p).unwrap().canonical().0;
        let peeked = table.get(&key).expect("open flow is visible").clone();
        assert_eq!(table.active_flows(), 1, "get must not remove the record");
        assert_eq!(table.flows_emitted(), 0, "get is not an emission");
        let extracted = table.extract(&key).unwrap();
        assert_eq!(peeked, extracted, "the peek saw the live record");
    }

    #[test]
    fn sweep_clock_restores_the_sweep_phase() {
        let config =
            FlowTableConfig { idle_timeout: Duration::from_secs(10), ..Default::default() };
        let mut donor = FlowTable::new(config);
        donor.observe(&udp_packet((1, 999), (2, 53), 7.5));
        assert_eq!(donor.sweep_clock(), Timestamp::from_secs_f64(7.5));
        let mut heir = FlowTable::new(config);
        assert_eq!(heir.sweep_clock(), Timestamp::ZERO);
        heir.set_sweep_clock(donor.sweep_clock());
        assert_eq!(heir.sweep_clock(), donor.sweep_clock());
    }

    /// The index invariant of the type docs, checked exhaustively.
    fn assert_index_invariant(table: &FlowTable) {
        for cell in &table.slab {
            let Some(record) = &cell.record else { continue };
            let entries: Vec<&IndexEntry> = table.index[usize::from(record.closing)]
                .iter()
                .map(|Reverse(entry)| entry)
                .filter(|entry| entry.serial == cell.serial)
                .collect();
            assert_eq!(entries.len(), 1, "one entry per live record in its class: {entries:?}");
            assert!(entries[0].seen <= record.last_seen && entries[0].key == record.key);
            assert_eq!(table.flows.get(&record.key), Some(&entries[0].slot));
        }
        assert_eq!(table.slab.iter().filter(|c| c.record.is_some()).count(), table.flows.len());
        assert_eq!(table.free.len() + table.flows.len(), table.slab.len());
    }

    #[test]
    fn index_invariant_holds_and_index_stays_bounded_under_churn() {
        // Close/reopen cycles on three tuples, all inside one TIME_WAIT:
        // every cycle strands dead entries (the open-class entry of a flow
        // that went to TIME_WAIT, then both entries of the flow the next SYN
        // replaced), and no sweep or capacity eviction comes by to pop them.
        let mut table = FlowTable::new(FlowTableConfig::default());
        for i in 0..5_000u32 {
            let t = f64::from(i) * 1e-3;
            let tuple = (1 + (i % 3) as u8, 5000);
            table.observe(&tcp_packet(tuple, (9, 80), TcpFlags::SYN, t));
            table.observe(&tcp_packet(tuple, (9, 80), TcpFlags::RST, t + 2e-4));
            assert_index_invariant(&table);
            let entries: usize = table.index.iter().map(BinaryHeap::len).sum();
            assert!(
                entries <= 2 * (2 * table.active_flows() + INDEX_SLACK) + 2,
                "index grew to {entries} entries over {} flows",
                table.active_flows()
            );
        }
        assert_eq!(table.slab.len(), 3, "slab cells are recycled");
        assert_eq!(table.flows_emitted(), 5_000 - 3);
    }

    #[test]
    fn reopened_flow_after_close_is_new_record() {
        let mut table = FlowTable::new(FlowTableConfig::default());
        table.observe(&tcp_packet((1, 5000), (2, 80), TcpFlags::SYN, 0.0));
        table.observe(&tcp_packet((1, 5000), (2, 80), TcpFlags::RST, 0.1));
        // Same 5-tuple again: a brand-new flow.
        table.observe(&tcp_packet((1, 5000), (2, 80), TcpFlags::SYN, 5.0));
        let flows = table.flush();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].forward_packets, 1);
        assert!((flows[0].first_seen.as_secs_f64() - 5.0).abs() < 1e-9);
    }
}
