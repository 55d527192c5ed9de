//! The bounded trace journal: a fixed-capacity ring of structured runtime
//! events (scale decisions, backpressure stalls, packet drops, flow
//! migrations, suppressed threshold crossings).
//!
//! The ring overwrites oldest-first when full, so a long run keeps the
//! *newest* events and an honest count of how many were dropped. Pushing
//! takes a short mutex (a copy into a preallocated slot — no allocation
//! once the ring has filled); journal events are emitted at control-plane
//! rate (scale events, stalls), never per packet.

use idsbench_core::ScaleEvent;
use std::sync::{Mutex, PoisonError};

/// One structured runtime event. Variants are scalar-only (plus the `Copy`
/// fields of [`ScaleEvent`]) so pushing never chases pointers.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// The autoscaler changed the shard count (the full decision record).
    Scale(ScaleEvent),
    /// The feeder blocked on a full shard channel (backpressure).
    FeederStall {
        /// Arrival index of the packet the feeder was holding.
        seq: u64,
        /// The shard whose channel was full.
        shard: usize,
        /// The channel's capacity (its depth at the stall).
        depth: usize,
    },
    /// A lossy source dropped packets (live-capture mode).
    PacketDrops {
        /// Packets dropped since the previous `PacketDrops` event.
        dropped: u64,
    },
    /// Flow state moved to a new owner during a rebalance.
    Migration {
        /// The shard that received the flows.
        to_shard: usize,
        /// How many flows moved.
        flows: usize,
    },
    /// A fabric worker was classified dead (socket error or timeout); its
    /// shards are about to be re-homed.
    PeerDeath {
        /// Accept-order index of the dead peer.
        peer: usize,
        /// Shards the peer was hosting when it died.
        shards: usize,
    },
    /// A peer-death recovery finished: every orphaned shard was re-homed
    /// from its last checkpoint and its buffered frames replayed.
    RecoveryComplete {
        /// Accept-order index of the dead peer.
        peer: usize,
        /// Shards re-homed.
        shards: usize,
        /// Flow-state entries restored from checkpoints.
        flows: usize,
        /// Batch frames replayed from the coordinator's replay buffers.
        replayed_batches: u64,
        /// Wall-clock recovery latency, detect-to-resume.
        latency_micros: u64,
    },
    /// A scale threshold was crossed but no decision fired (cooldown, or
    /// the pool was already at its bound).
    ThresholdCrossing {
        /// Tumbling window index of the crossing.
        window: u64,
        /// Events per second observed in that window.
        pps: f64,
        /// `true` for an up-crossing, `false` for a down-crossing.
        up: bool,
    },
}

impl JournalEvent {
    /// Stable lowercase tag used by the JSON export.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::Scale(_) => "scale",
            JournalEvent::FeederStall { .. } => "feeder_stall",
            JournalEvent::PacketDrops { .. } => "packet_drops",
            JournalEvent::Migration { .. } => "migration",
            JournalEvent::PeerDeath { .. } => "peer_death",
            JournalEvent::RecoveryComplete { .. } => "recovery_complete",
            JournalEvent::ThresholdCrossing { .. } => "threshold_crossing",
        }
    }

    /// Hand-rolled JSON object for this event (same conventions as
    /// `report.rs`: no trailing zeros on integral floats, non-finite → `null`).
    pub fn to_json(&self) -> String {
        match self {
            JournalEvent::Scale(event) => {
                format!("{{\"type\":\"scale\",\"event\":{}}}", event.to_json())
            }
            JournalEvent::FeederStall { seq, shard, depth } => format!(
                "{{\"type\":\"feeder_stall\",\"seq\":{seq},\"shard\":{shard},\"depth\":{depth}}}"
            ),
            JournalEvent::PacketDrops { dropped } => {
                format!("{{\"type\":\"packet_drops\",\"dropped\":{dropped}}}")
            }
            JournalEvent::Migration { to_shard, flows } => {
                format!("{{\"type\":\"migration\",\"to_shard\":{to_shard},\"flows\":{flows}}}")
            }
            JournalEvent::PeerDeath { peer, shards } => {
                format!("{{\"type\":\"peer_death\",\"peer\":{peer},\"shards\":{shards}}}")
            }
            JournalEvent::RecoveryComplete {
                peer,
                shards,
                flows,
                replayed_batches,
                latency_micros,
            } => {
                format!(
                    "{{\"type\":\"recovery_complete\",\"peer\":{peer},\"shards\":{shards},\"flows\":{flows},\"replayed_batches\":{replayed_batches},\"latency_micros\":{latency_micros}}}"
                )
            }
            JournalEvent::ThresholdCrossing { window, pps, up } => format!(
                "{{\"type\":\"threshold_crossing\",\"window\":{window},\"pps\":{},\"up\":{up}}}",
                crate::sink::json_f64(*pps)
            ),
        }
    }
}

struct JournalInner {
    ring: Vec<JournalEvent>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    pushed: u64,
}

/// The bounded ring of [`JournalEvent`]s. See the [module docs](self).
pub struct Journal {
    inner: Mutex<JournalInner>,
    capacity: usize,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("Journal")
            .field("capacity", &self.capacity)
            .field("pushed", &inner.pushed)
            .finish()
    }
}

impl Journal {
    /// Builds a journal holding at most `capacity` events (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Journal {
            inner: Mutex::new(JournalInner {
                ring: Vec::with_capacity(capacity),
                head: 0,
                pushed: 0,
            }),
            capacity,
        }
    }

    /// Appends an event, overwriting the oldest once the ring is full.
    pub fn push(&self, event: JournalEvent) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.pushed += 1;
        if inner.ring.len() < self.capacity {
            inner.ring.push(event);
        } else {
            let head = inner.head;
            inner.ring[head] = event;
            inner.head = (head + 1) % self.capacity;
        }
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A point-in-time copy: retained events oldest-first, plus push/drop
    /// accounting.
    pub fn snapshot(&self) -> JournalSnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut events = Vec::with_capacity(inner.ring.len());
        events.extend_from_slice(&inner.ring[inner.head..]);
        events.extend_from_slice(&inner.ring[..inner.head]);
        let dropped = inner.pushed - events.len() as u64;
        JournalSnapshot { events, pushed: inner.pushed, dropped }
    }
}

/// A point-in-time copy of the journal contents.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSnapshot {
    /// Retained events, oldest first (newest events always survive a wrap).
    pub events: Vec<JournalEvent>,
    /// Total events ever pushed.
    pub pushed: u64,
    /// Events lost to ring overwrites (`pushed - events.len()`).
    pub dropped: u64,
}

impl JournalSnapshot {
    /// Hand-rolled JSON: `{"pushed":…,"dropped":…,"events":[…]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 64);
        out.push_str(&format!(
            "{{\"pushed\":{},\"dropped\":{},\"events\":[",
            self.pushed, self.dropped
        ));
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_keeps_newest_and_counts_dropped() {
        let journal = Journal::new(4);
        for seq in 0..10u64 {
            journal.push(JournalEvent::FeederStall { seq, shard: 0, depth: 8 });
        }
        let snap = journal.snapshot();
        assert_eq!(snap.pushed, 10);
        assert_eq!(snap.dropped, 6, "capacity 4, 10 pushed");
        let seqs: Vec<u64> = snap
            .events
            .iter()
            .map(|e| match e {
                JournalEvent::FeederStall { seq, .. } => *seq,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest events, oldest-first order");
    }

    #[test]
    fn recovery_events_export_scalar_json() {
        let journal = Journal::new(4);
        journal.push(JournalEvent::PeerDeath { peer: 1, shards: 2 });
        journal.push(JournalEvent::RecoveryComplete {
            peer: 1,
            shards: 2,
            flows: 37,
            replayed_batches: 5,
            latency_micros: 1200,
        });
        let snap = journal.snapshot();
        assert_eq!(snap.events[0].kind(), "peer_death");
        assert_eq!(snap.events[1].kind(), "recovery_complete");
        let json = snap.to_json();
        assert!(json.contains("{\"type\":\"peer_death\",\"peer\":1,\"shards\":2}"), "{json}");
        assert!(json.contains("\"replayed_batches\":5,\"latency_micros\":1200}"), "{json}");
    }

    #[test]
    fn under_capacity_drops_nothing() {
        let journal = Journal::new(8);
        journal.push(JournalEvent::PacketDrops { dropped: 3 });
        journal.push(JournalEvent::Migration { to_shard: 1, flows: 12 });
        let snap = journal.snapshot();
        assert_eq!(snap.pushed, 2);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].kind(), "packet_drops");
        let json = snap.to_json();
        assert!(json.starts_with("{\"pushed\":2,\"dropped\":0,\"events\":["), "{json}");
        assert!(json.contains("{\"type\":\"migration\",\"to_shard\":1,\"flows\":12}"), "{json}");
    }
}
