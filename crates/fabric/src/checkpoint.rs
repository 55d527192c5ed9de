//! Epoch checkpoints and the coordinator's recovery bookkeeping.
//!
//! Fault tolerance in the fabric is coordinator-driven: every shard has a
//! monotonically increasing **epoch**, advanced when the coordinator asks
//! its host for a [`CoordMsg::Checkpoint`](crate::CoordMsg::Checkpoint).
//! The reply carries the shard's
//! [`ShardCheckpoint`](idsbench_stream::ShardCheckpoint) (per-flow state +
//! traffic clock) plus the score fragment accumulated since the previous
//! epoch, and committing it clears the shard's `ReplayLog` — the bounded
//! buffer of state-bearing frames sent since that epoch. On a peer death
//! the coordinator replays exactly `checkpoint + log` onto a surviving
//! worker, which reproduces the dead shard's scoring byte-for-byte as long
//! as the detector's state is all per-flow: entity-keyed state (per-host
//! profiles, per-channel statistics) is not checkpointed, and a replica's
//! starts again from `fit`.
//!
//! Score integrity falls out of two invariants this module enforces:
//!
//! * **No loss** — every shard id ever spawned must contribute at least one
//!   fragment (`FragmentSet::missing` is the coverage check).
//! * **No duplication** — fragments are keyed by `(shard, epoch)` and
//!   replay-mode events by `(seq, sub)` within a shard; re-delivered copies
//!   are dropped and *counted*, and a healthy run counts zero because a
//!   committed fragment is never regenerated (replay resumes from the
//!   checkpoint, which drained its recorder).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use idsbench_stream::{Recorder, ShardOutcome};

use crate::transport::Frame;

/// Replay-log bytes that force a checkpoint, as
/// [`RecoveryConfig::checkpoint_frames`] frames do.
pub(crate) const MAX_LOG_BYTES: usize = 16 << 20;

/// How long an idle peer may stay silent on a liveness ping.
pub(crate) const PING_TIMEOUT: Duration = Duration::from_secs(2);

/// The deployment settings of epoch checkpointing and crash recovery.
/// Recovery is on by default in [`FabricConfig`](crate::FabricConfig) —
/// checkpoints are score-transparent (fragments concatenate to the
/// crash-free outcome), so there is no correctness reason to disable it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Batch frames a shard may receive before the coordinator forces a
    /// new checkpoint epoch (bounds replay work after a crash). A replay
    /// log past 16 MiB forces one too.
    pub checkpoint_frames: usize,
    /// Extra worker connections to accept beyond `workers`: standbys
    /// handshake and take the warmup stream but host no shards until a
    /// recovery re-homes a dead peer's shards onto them.
    pub standby_workers: usize,
}

impl Default for RecoveryConfig {
    /// Checkpoint every 64 batch frames, no standbys.
    fn default() -> Self {
        RecoveryConfig { checkpoint_frames: 64, standby_workers: 0 }
    }
}

/// What a logged frame was, with whatever the replayer needs to know about
/// the exchange it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryKind {
    /// A routed `Batch` frame carrying `count` packets.
    Batch {
        /// Packets in the batch (for replay accounting).
        count: usize,
    },
    /// A `Migrate` delivery (inbound flow state from a rebalance).
    Migrate,
    /// A `Rebalance` request. `replied` records whether the shard's
    /// `Migrations` answer was already consumed: replay must read (and
    /// discard) the re-sent answer for replied entries, and leave the
    /// answer of an un-replied one — necessarily the last entry — for the
    /// interrupted barrier loop to pick up.
    Rebalance {
        /// Whether the original `Migrations` reply was already received.
        replied: bool,
    },
}

/// One buffered frame: the kind plus the exact frame that was sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LogEntry {
    pub(crate) kind: EntryKind,
    pub(crate) frame: Frame,
}

/// A shard's bounded replay buffer: every state-bearing frame sent to the
/// shard since its last committed checkpoint, in send order.
#[derive(Debug, Default)]
pub(crate) struct ReplayLog {
    entries: Vec<LogEntry>,
    bytes: usize,
    batches: usize,
}

impl ReplayLog {
    /// Appends a frame and returns it to send from (log *before* the send:
    /// a frame the peer may have processed must be in the log even if the
    /// send errors).
    pub(crate) fn push(&mut self, kind: EntryKind, frame: Frame) -> &Frame {
        self.bytes += frame.body().len();
        if matches!(kind, EntryKind::Batch { .. }) {
            self.batches += 1;
        }
        self.entries.push(LogEntry { kind, frame });
        &self.entries.last().expect("just pushed").frame
    }

    /// Marks the trailing `Rebalance` entry's reply as consumed.
    pub(crate) fn mark_replied(&mut self) {
        if let Some(LogEntry { kind: EntryKind::Rebalance { replied }, .. }) =
            self.entries.last_mut()
        {
            *replied = true;
        }
    }

    /// Commits a checkpoint: everything buffered is now covered by it, and
    /// its frames go back to `spare` for reuse.
    pub(crate) fn clear(&mut self, spare: &mut Vec<Frame>) {
        spare.extend(self.entries.drain(..).map(|entry| entry.frame));
        self.bytes = 0;
        self.batches = 0;
    }

    /// Buffered frame bodies in bytes.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Buffered `Batch` frames since the last checkpoint.
    pub(crate) fn batches(&self) -> usize {
        self.batches
    }

    /// The buffered frames, oldest first.
    pub(crate) fn entries(&self) -> &[LogEntry] {
        &self.entries
    }
}

/// Accumulates per-epoch [`ShardOutcome`] fragments into one outcome per
/// shard, deduplicating re-delivered fragments and events. See the
/// [module docs](self) for the integrity argument.
#[derive(Debug, Default)]
pub(crate) struct FragmentSet {
    combined: BTreeMap<usize, ShardOutcome>,
    seen_epochs: BTreeSet<(usize, u64)>,
    seen_events: BTreeMap<usize, BTreeSet<(u64, u32)>>,
    last_epoch: BTreeMap<usize, u64>,
    duplicate_fragments: u64,
    duplicate_events: u64,
}

impl FragmentSet {
    /// Folds one fragment in. Duplicate `(shard, epoch)` fragments and
    /// duplicate `(seq, sub)` replay events are dropped and counted.
    ///
    /// # Errors
    ///
    /// A recorder-mode mismatch between fragments of one shard (the mode
    /// is global to a run, so this is a protocol violation).
    pub(crate) fn absorb(&mut self, epoch: u64, fragment: ShardOutcome) -> Result<(), String> {
        let shard = fragment.shard;
        if !self.seen_epochs.insert((shard, epoch)) {
            self.duplicate_fragments += 1;
            return Ok(());
        }
        let combined = self.combined.entry(shard).or_insert_with(|| ShardOutcome {
            shard,
            recorder: match &fragment.recorder {
                Recorder::Full(_) => Recorder::Full(Vec::new()),
                Recorder::Online(_, threshold) => Recorder::Online(Box::default(), *threshold),
            },
            score_seconds: 0.0,
            fit_seconds: 0.0,
            packets: 0,
            flows: 0,
        });
        match (&mut combined.recorder, fragment.recorder) {
            (Recorder::Full(into), Recorder::Full(events)) => {
                let seen = self.seen_events.entry(shard).or_default();
                for event in events {
                    if seen.insert((event.seq, event.sub)) {
                        into.push(event);
                    } else {
                        self.duplicate_events += 1;
                    }
                }
            }
            (Recorder::Online(into, _), Recorder::Online(stats, _)) => {
                into.merge(&stats);
            }
            _ => {
                return Err(format!("shard {shard} fragments disagree on the recorder mode"));
            }
        }
        combined.score_seconds += fragment.score_seconds;
        // `fit` runs once per (re)placement on identical warmup data; the
        // max is the honest per-shard cost, repeats are not extra work the
        // crash-free run would have done.
        combined.fit_seconds = combined.fit_seconds.max(fragment.fit_seconds);
        combined.packets += fragment.packets;
        // `flows` is a point-in-time gauge: the newest epoch wins.
        let last = self.last_epoch.entry(shard).or_insert(epoch);
        if epoch >= *last {
            *last = epoch;
            combined.flows = fragment.flows;
        }
        Ok(())
    }

    /// Fragments dropped as `(shard, epoch)` duplicates.
    pub(crate) fn duplicate_fragments(&self) -> u64 {
        self.duplicate_fragments
    }

    /// Replay-mode events dropped as `(seq, sub)` duplicates.
    pub(crate) fn duplicate_events(&self) -> u64 {
        self.duplicate_events
    }

    /// Shard ids in `0..next_id` with no fragment at all — the coverage
    /// check that replaces the old `outcomes.len() != next_id` count.
    pub(crate) fn missing(&self, next_id: usize) -> Vec<usize> {
        (0..next_id).filter(|id| !self.combined.contains_key(id)).collect()
    }

    /// The combined outcomes, ascending by shard id.
    pub(crate) fn into_outcomes(self) -> Vec<ShardOutcome> {
        self.combined.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_stream::metrics::{OnlineStats, ScoredEvent};

    fn event(seq: u64, sub: u32) -> ScoredEvent {
        ScoredEvent {
            seq,
            sub,
            window: 0,
            score: seq as f64,
            latency_nanos: 10,
            label: false,
            kind: None,
        }
    }

    fn full_fragment(shard: usize, events: Vec<ScoredEvent>, packets: usize) -> ShardOutcome {
        ShardOutcome {
            shard,
            recorder: Recorder::Full(events),
            score_seconds: 0.5,
            fit_seconds: 1.0,
            packets,
            flows: packets,
        }
    }

    #[test]
    fn fragments_concatenate_and_duplicates_are_dropped() {
        let mut set = FragmentSet::default();
        set.absorb(0, full_fragment(0, vec![event(1, 0), event(2, 0)], 2)).unwrap();
        set.absorb(1, full_fragment(0, vec![event(3, 0)], 1)).unwrap();
        // Re-delivered epoch 1 fragment: dropped wholesale.
        set.absorb(1, full_fragment(0, vec![event(3, 0)], 1)).unwrap();
        // A fresh epoch that re-carries an old event: the event dedups.
        set.absorb(2, full_fragment(0, vec![event(3, 0), event(4, 0)], 1)).unwrap();
        assert_eq!(set.duplicate_fragments(), 1);
        assert_eq!(set.duplicate_events(), 1);
        assert!(set.missing(1).is_empty());
        let outcomes = set.into_outcomes();
        assert_eq!(outcomes.len(), 1);
        let Recorder::Full(events) = &outcomes[0].recorder else {
            panic!("replay-mode fragments combine into a replay-mode outcome");
        };
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        assert_eq!(outcomes[0].packets, 4, "epoch-1 duplicate dropped before summing");
        assert_eq!(outcomes[0].score_seconds, 1.5);
        assert_eq!(outcomes[0].fit_seconds, 1.0, "fit repeats combine via max");
        assert_eq!(outcomes[0].flows, 1, "newest epoch's gauge wins");
    }

    #[test]
    fn online_fragments_merge_counts() {
        let stats = OnlineStats { events: 3, ..Default::default() };
        let mut set = FragmentSet::default();
        set.absorb(
            0,
            ShardOutcome {
                shard: 2,
                recorder: Recorder::Online(Box::new(stats.clone()), 0.5),
                score_seconds: 0.1,
                fit_seconds: 0.2,
                packets: 3,
                flows: 1,
            },
        )
        .unwrap();
        set.absorb(
            1,
            ShardOutcome {
                shard: 2,
                recorder: Recorder::Online(Box::new(stats), 0.5),
                score_seconds: 0.1,
                fit_seconds: 0.2,
                packets: 3,
                flows: 2,
            },
        )
        .unwrap();
        assert_eq!(set.missing(3), vec![0, 1], "coverage check names absent shards");
        let outcomes = set.into_outcomes();
        let Recorder::Online(merged, threshold) = &outcomes[0].recorder else {
            panic!("online fragments combine into an online outcome");
        };
        assert_eq!(merged.events, 6);
        assert_eq!(*threshold, 0.5);
        assert_eq!(outcomes[0].flows, 2);
    }

    #[test]
    fn recorder_mode_mismatch_is_a_protocol_error() {
        let mut set = FragmentSet::default();
        set.absorb(0, full_fragment(0, vec![], 0)).unwrap();
        let online = ShardOutcome {
            shard: 0,
            recorder: Recorder::Online(Box::default(), 0.5),
            score_seconds: 0.0,
            fit_seconds: 0.0,
            packets: 0,
            flows: 0,
        };
        assert!(set.absorb(1, online).is_err());
    }

    #[test]
    fn replay_log_tracks_bytes_batches_and_reply_state() {
        let frame = |len: usize| Frame::of(|out| out.resize(out.len() + len, 0));
        let mut log = ReplayLog::default();
        assert_eq!(log.push(EntryKind::Batch { count: 4 }, frame(10)).body().len(), 10);
        log.push(EntryKind::Migrate, frame(5));
        log.push(EntryKind::Rebalance { replied: false }, frame(3));
        assert_eq!(log.bytes(), 18);
        assert_eq!(log.batches(), 1);
        assert_eq!(log.entries().len(), 3);
        log.mark_replied();
        assert!(matches!(
            log.entries().last().map(|e| e.kind),
            Some(EntryKind::Rebalance { replied: true })
        ));
        let mut spare = Vec::new();
        log.clear(&mut spare);
        assert_eq!(log.bytes(), 0);
        assert_eq!(log.batches(), 0);
        assert!(log.entries().is_empty());
        let lens: Vec<usize> = spare.iter().map(|frame| frame.body().len()).collect();
        assert_eq!(lens, [10, 5, 3], "cleared frames are kept for reuse");
    }
}
