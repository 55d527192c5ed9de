//! The parse-once Event data plane: one detector contract for packets,
//! flows, batch, and stream.
//!
//! The paper's two hardest practical boundaries are the packets-vs-flows
//! input split (Section I) and the batch-vs-deployment split. This module
//! removes both from the detector contract:
//!
//! * **Parse once.** Every packet is decoded exactly once, at the edge of
//!   the pipeline, into a [`ParsedView`] ([`ParsedView::from_packet`] is the
//!   single `ParsedPacket::parse` call site of the data plane — pinned by
//!   the `parse_once` integration test). Flow-key routing, flow assembly,
//!   and detector features all read that one view; no detector re-parses
//!   raw bytes internally.
//! * **One event stream.** The replay delivers a uniform stream of
//!   [`Event`]s: a [`Event::Packet`] per packet in arrival order, and a
//!   [`Event::FlowEvicted`] whenever the flow table emits a completed flow
//!   — eviction timing included, because when a flow is scored is itself a
//!   detection variable (Ficke et al.).
//! * **One contract.** [`EventDetector`]: `fit` consumes the training
//!   slice once, then `on_event` must score each event of the detector's
//!   [`InputFormat`] immediately, with no second pass.
//! * **One scoring loop.** The batch runner and every streaming shard
//!   score through one [`Burst`], so a single-shard streaming run
//!   reproduces batch evaluation bitwise by construction.
//!
//! # Examples
//!
//! A trivial packet detector under the unified contract:
//!
//! ```
//! use idsbench_core::event::{Event, EventDetector, ParsedView, TrainView};
//! use idsbench_core::{InputFormat, Label, LabeledPacket};
//! use idsbench_net::{Packet, Timestamp};
//!
//! /// Scores every packet by wire length.
//! #[derive(Debug)]
//! struct Length;
//!
//! impl EventDetector for Length {
//!     fn name(&self) -> &str {
//!         "length"
//!     }
//!     fn input_format(&self) -> InputFormat {
//!         InputFormat::Packets
//!     }
//!     fn fit(&mut self, _train: &TrainView) {}
//!     fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
//!         match event {
//!             Event::Packet(view) => Some(view.packet.packet.wire_len() as f64),
//!             Event::FlowEvicted(_) => None,
//!         }
//!     }
//! }
//!
//! let mut detector = Length;
//! detector.fit(&TrainView::default());
//! let view = ParsedView::from_packet(LabeledPacket::new(
//!     Packet::new(Timestamp::ZERO, vec![0u8; 60]),
//!     Label::Benign,
//! ));
//! assert_eq!(detector.on_event(&Event::Packet(&view)), Some(60.0));
//! ```

use std::time::Instant;

use idsbench_flow::{
    FlowFeatures, FlowKey, FlowRecord, FlowTable, FlowTableConfig, AFTERIMAGE_FEATURES,
};
use idsbench_net::fasthash::FxHashMap;
use idsbench_net::{Duration, ParsedPacket, Timestamp};

use crate::detector::{InputFormat, LabeledFlow};
use crate::label::{Label, LabeledPacket};
use crate::{CoreError, Result};

/// A labeled packet paired with its one-and-only parsed view.
///
/// Construction ([`ParsedView::from_packet`]) is the data plane's single
/// parse site: the decoded headers and the canonical flow key derived from
/// them ride along with the packet through routing, flow assembly, and
/// detector feature extraction, so nothing downstream ever re-parses the
/// raw bytes. In a `run_stream` of a packet-format detector the view also
/// carries the packet's AfterImage row, extracted once in feed order by
/// the feeder's [`FeatureStage`](crate::shell::FeatureStage).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedView {
    /// The raw packet and its ground-truth label.
    pub packet: LabeledPacket,
    /// The decoded headers, or `None` when the frame is malformed. A
    /// malformed frame still flows through the pipeline (a deployed IDS
    /// must pass it through, not crash); packet detectors score it
    /// neutrally and it carries no flow identity.
    pub parsed: Option<ParsedPacket>,
    /// Canonical (direction-independent) 5-tuple, or `None` for non-IP or
    /// malformed frames. Precomputed here because every driver needs it:
    /// the streaming feeder routes on it and the flow assembler groups by
    /// it.
    pub flow_key: Option<FlowKey>,
    /// The packet's AfterImage feature row, when an ordered extraction
    /// stage upstream computed it ([`FeatureStage`](crate::shell::FeatureStage));
    /// the detector shell then stages this row instead of extracting one.
    /// `None` from [`ParsedView::from_packet`], and always for a malformed
    /// frame. Boxed, so the row costs the view one pointer (the view's size
    /// is pinned: see its size test).
    pub features: Option<FeatureRow>,
}

/// One packet's AfterImage feature row, as it rides in a [`ParsedView`].
pub type FeatureRow = Box<[f64; AFTERIMAGE_FEATURES]>;

impl ParsedView {
    /// Parses a labeled packet into its view — **the** `ParsedPacket::parse`
    /// call of the evaluation data plane (exactly one per packet; the
    /// `parse_once` integration test counts).
    pub fn from_packet(packet: LabeledPacket) -> Self {
        let parsed = ParsedPacket::parse(&packet.packet).ok();
        let flow_key = parsed.as_ref().and_then(FlowKey::from_packet).map(|key| key.canonical().0);
        ParsedView { packet, parsed, flow_key, features: None }
    }

    /// Ground-truth label of the underlying packet.
    pub fn label(&self) -> Label {
        self.packet.label
    }

    /// Shorthand for `label().is_attack()`.
    pub fn is_attack(&self) -> bool {
        self.packet.is_attack()
    }
}

/// One observable occurrence in the replayed traffic timeline.
///
/// Packet events arrive in timestamp order; flow events are interleaved at
/// the exact moment the flow table evicts the record (TCP close, idle or
/// active timeout, capacity eviction, end-of-stream flush) — the timing a
/// deployed flow-input IDS actually experiences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// A packet arrived.
    Packet(&'a ParsedView),
    /// The flow table evicted a completed flow.
    FlowEvicted(&'a LabeledFlow),
}

impl Event<'_> {
    /// Ground truth of the packet or flow this event carries.
    pub fn label(&self) -> Label {
        match self {
            Event::Packet(view) => view.label(),
            Event::FlowEvicted(flow) => flow.label,
        }
    }

    /// Which input format this event belongs to.
    pub fn format(&self) -> InputFormat {
        match self {
            Event::Packet(_) => InputFormat::Packets,
            Event::FlowEvicted(_) => InputFormat::Flows,
        }
    }
}

/// The training slice in both shapes, parsed once and shared by every
/// driver: packet views in timestamp order plus the flows the eviction path
/// emitted while replaying them (flush included, so no training packet is
/// silently dropped from the flow view).
///
/// Supervised detectors may read labels here — training labels are the only
/// labels a detector is ever allowed to consume. Evaluation labels never
/// reach a detector: `on_event` hands over traffic, not ground truth.
#[derive(Debug, Clone, Default)]
pub struct TrainView {
    /// Training packets with their parsed views, in timestamp order.
    pub packets: Vec<ParsedView>,
    /// Flows assembled from exactly those packets, in eviction order
    /// (flush-at-end sorted by first-seen time).
    pub flows: Vec<LabeledFlow>,
}

impl TrainView {
    /// Builds the view from already-parsed training packets: replays them
    /// through a fresh [`FlowEventAssembler`] and keeps both shapes.
    pub fn assemble(packets: Vec<ParsedView>, flow_config: FlowTableConfig) -> Self {
        let mut assembler = FlowEventAssembler::new(flow_config);
        let mut flows = Vec::new();
        for view in &packets {
            assembler.observe(view, |flow| flows.push(flow));
        }
        flows.extend(assembler.flush());
        TrainView { packets, flows }
    }
}

/// A network IDS under the unified evaluation contract (see module docs).
///
/// The lifecycle mirrors deployment: `fit` consumes the training slice
/// exactly once (the detector trains or calibrates itself as its published
/// protocol dictates — the paper's out-of-the-box rule), then `on_event` is
/// called for every event in arrival order and must return a score for each
/// event of the detector's [`InputFormat`] immediately, without seeing any
/// future event.
///
/// Implementations carry mutable state across calls (damped statistics,
/// model weights, behavioural profiles); the sharded executor therefore
/// gives every shard its own instance via [`EventFactory`].
///
/// The trait is object-safe; both drivers work with
/// `Box<dyn EventDetector>`.
pub trait EventDetector: Send {
    /// Human-readable system name as used in the paper (e.g. `"Kitsune"`).
    fn name(&self) -> &str;

    /// Which event kind this detector scores. The drivers use this for two
    /// things: they only run the flow-eviction path when the detector
    /// consumes flows, and they verify one score came back per event of
    /// this format.
    fn input_format(&self) -> InputFormat;

    /// Consumes the training slice once, before any scoring.
    fn fit(&mut self, train: &TrainView);

    /// Observes one event. Must return `Some(score)` (higher = more
    /// anomalous) for every event matching [`EventDetector::input_format`]
    /// and `None` for the rest. Packet detectors still receive flow events
    /// only if a driver chooses to deliver them (they are free to ignore
    /// them); flow detectors always receive the packet events too, since
    /// real deployments see the packets their flows are made of.
    fn on_event(&mut self, event: &Event<'_>) -> Option<f64>;

    /// Scores a batch of parsed packets, pushing exactly one score per view
    /// onto `scores` in order. The drivers call this instead of
    /// [`EventDetector::on_event`] when a burst of packet events arrives
    /// together and the detector consumes packets without flow assembly —
    /// the batch-of-rows entry point that lets NN-backed detectors amortize
    /// weight traffic across the burst.
    ///
    /// The contract mirrors scoring the views one at a time in order: the
    /// default implementation does exactly that, and overrides must produce
    /// bitwise-identical scores (batch delivery sits underneath the
    /// score-digest contract without its own pin).
    fn on_packet_batch(
        &mut self,
        views: &mut dyn Iterator<Item = &ParsedView>,
        scores: &mut Vec<f64>,
    ) {
        for view in views {
            if let Some(score) = self.on_event(&Event::Packet(view)) {
                scores.push(score);
            }
        }
    }

    /// Surrenders any private per-flow state this detector keeps for
    /// `key`, removing it locally. The streaming executor calls this when
    /// consistent-hash ownership of the flow moves to another shard, and
    /// delivers the returned state to the new owner's
    /// [`EventDetector::absorb_flow_state`].
    ///
    /// The state is a detector-private byte encoding: the receiving side is
    /// always another instance of the *same* detector, so the format needs
    /// no self-description — but it must be bytes, because ownership moves
    /// can now cross process (and host) boundaries over the fabric wire,
    /// where a `Box<dyn Any>` cannot travel.
    ///
    /// Only state keyed *by this exact flow* belongs here. Entity-keyed
    /// state (per-host profiles, per-channel statistics) is shared across
    /// flows and stays shard-local: routing by flow key splits it across
    /// the shards of a multi-shard run, so a detector that keeps any
    /// (Kitsune's and HELAD's models, Slips) scores differently than at one
    /// shard. AfterImage's entity-keyed statistics stay whole only because
    /// `run_stream` extracts every row on its feeder. Only a detector whose
    /// state is all per-flow (DNN) can score the same at every shard count.
    /// The default (no per-flow state) returns `None`.
    fn extract_flow_state(&mut self, _key: &FlowKey) -> Option<Vec<u8>> {
        None
    }

    /// Adopts per-flow state extracted from another instance of the same
    /// detector by [`EventDetector::extract_flow_state`]. The default drops
    /// it.
    fn absorb_flow_state(&mut self, _key: &FlowKey, _state: Vec<u8>) {}

    /// Copies the per-flow state for `key` *without* removing it — the
    /// checkpoint counterpart of [`EventDetector::extract_flow_state`],
    /// used by fault-tolerant executors to snapshot a live shard.
    ///
    /// The default implementation round-trips through extract + absorb,
    /// which is sound for any detector honouring the migration contract
    /// (`absorb ∘ extract` must be the identity — it is exactly what a
    /// shard handoff performs). Detectors may override it with a cheaper
    /// read-only copy.
    fn snapshot_flow_state(&mut self, key: &FlowKey) -> Option<Vec<u8>> {
        let state = self.extract_flow_state(key)?;
        self.absorb_flow_state(key, state.clone());
        Some(state)
    }
}

impl EventDetector for Box<dyn EventDetector> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn input_format(&self) -> InputFormat {
        self.as_ref().input_format()
    }

    fn fit(&mut self, train: &TrainView) {
        self.as_mut().fit(train);
    }

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        self.as_mut().on_event(event)
    }

    // Forwarded explicitly: the default body would loop `on_event` on the
    // box and silently bypass the inner detector's batch override.
    fn on_packet_batch(
        &mut self,
        views: &mut dyn Iterator<Item = &ParsedView>,
        scores: &mut Vec<f64>,
    ) {
        self.as_mut().on_packet_batch(views, scores);
    }

    fn extract_flow_state(&mut self, key: &FlowKey) -> Option<Vec<u8>> {
        self.as_mut().extract_flow_state(key)
    }

    fn absorb_flow_state(&mut self, key: &FlowKey, state: Vec<u8>) {
        self.as_mut().absorb_flow_state(key, state);
    }

    fn snapshot_flow_state(&mut self, key: &FlowKey) -> Option<Vec<u8>> {
        self.as_mut().snapshot_flow_state(key)
    }
}

/// One flow's migratable state, in flight from the shard that owned it to
/// the shard the consistent-hash ring now assigns it — the payload of the
/// streaming executor's `FlowMigration` handoff message.
///
/// A migration carries up to three pieces, any of which may be absent:
/// the open [`FlowRecord`] (absent when the flow already evicted and only
/// its label fold persists), the folded ground-truth [`Label`], and the
/// detector's private per-flow state
/// ([`EventDetector::extract_flow_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMigration {
    /// Canonical flow key whose ownership moved.
    pub key: FlowKey,
    /// The open flow record, mid-aggregation, if the flow is still live.
    pub record: Option<FlowRecord>,
    /// The label fold accumulated for this key so far.
    pub label: Label,
    /// Traffic time of the last packet that touched the label fold —
    /// carried so the new owner expires the fold on the same clock the old
    /// owner would have ([`FlowEventAssembler`] dead-tuple expiry).
    pub label_seen: Timestamp,
    /// Opaque detector per-flow state, if the detector keeps any
    /// ([`EventDetector::extract_flow_state`]'s private byte encoding).
    pub detector: Option<Vec<u8>>,
}

/// A named factory producing fresh [`EventDetector`] instances — one per
/// grid cell in the batch runner, one per shard in the streaming executor,
/// so no state leaks between datasets or flow partitions.
pub type EventFactory<'a> = Box<dyn Fn() -> Box<dyn EventDetector> + Send + Sync + 'a>;

/// One key's accumulated ground-truth fold plus the traffic time of the
/// last packet that touched it — the unit of the bounded label inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LabelEntry {
    label: Label,
    last_seen: Timestamp,
}

/// Dead-tuple horizon for the label fold: a tuple silent this long is
/// treated as gone for good, and a later reopen starts a fresh label.
/// Chosen well above the flow-table timeouts so every shipped scenario's
/// scores are unchanged by the bound.
const LABEL_HORIZON: Duration = Duration::from_secs(600);

/// Minimum label-fold size before the amortized physical purge first runs.
const LABEL_PURGE_MIN: usize = 1024;

/// Turns a parsed packet stream into labeled [`Event::FlowEvicted`] events.
///
/// Owns a [`FlowTable`] plus the label fold: a flow inherits the attack
/// label (and kind) of its constituent packets via the canonical 5-tuple;
/// mixed tuples (benign and attack traffic sharing an exact 5-tuple) label
/// the flow as attack, matching the labelling practice of the real
/// datasets. Both replay drivers — batch and each streaming shard — run one
/// assembler over the packets they own, which is what makes their flow
/// event streams identical for identically-routed traffic.
///
/// # Bounded label fold
///
/// Labels persist beyond flow eviction so a reopened 5-tuple inherits the
/// attack fold — but not forever. A tuple with no traffic for the *label
/// horizon* (10 minutes, or `idle_timeout + time_wait` if that is longer)
/// is considered gone for good: a later reopen starts a fresh label, and
/// the entry becomes purgeable. The expiry predicate is pure
/// traffic time on the tuple's own packets, so every run shape — batch,
/// single shard, autoscaled, multi-process — makes the identical label
/// decisions no matter when the physical purge happens to run.
#[derive(Debug)]
pub struct FlowEventAssembler {
    table: FlowTable,
    labels: FxHashMap<FlowKey, LabelEntry>,
    /// Dead-tuple expiry horizon: [`LABEL_HORIZON`], raised to
    /// `idle_timeout + time_wait` — the longest a tuple can sit in the flow
    /// table between packets — so the purge schedule cannot change scores.
    label_horizon: Duration,
    /// Latest packet timestamp observed (the purge/migration clock).
    last_ts: Timestamp,
    /// Next fold size at which the amortized purge fires.
    purge_at: usize,
}

impl FlowEventAssembler {
    /// Creates an assembler with an empty flow table.
    pub fn new(config: FlowTableConfig) -> Self {
        FlowEventAssembler {
            table: FlowTable::new(config),
            labels: FxHashMap::default(),
            label_horizon: LABEL_HORIZON.max(config.idle_timeout + config.time_wait),
            last_ts: Timestamp::ZERO,
            purge_at: LABEL_PURGE_MIN,
        }
    }

    /// The assembler a driver needs for a detector of `format`: one for
    /// flow-format detectors, none for packet-format ones, which skip flow
    /// assembly entirely.
    pub fn for_format(format: InputFormat, config: FlowTableConfig) -> Option<Self> {
        (format == InputFormat::Flows).then(|| Self::new(config))
    }

    /// Feeds one parsed view; evicted flows (if any) are handed to `emit`
    /// as labeled flows, in eviction order. Malformed and non-IP packets
    /// are passed over (they carry no flow identity).
    pub fn observe(&mut self, view: &ParsedView, mut emit: impl FnMut(LabeledFlow)) {
        let Some(parsed) = &view.parsed else {
            return;
        };
        let now = parsed.ts;
        // Fold this packet's label — unless the tuple's fold has expired.
        // An expired fold must stay intact through the table sweep below
        // (the sweep may still emit the tuple's *previous* record, which
        // belongs to the old fold) and is replaced afterwards.
        let mut expired_reopen: Option<FlowKey> = None;
        if let Some(key) = view.flow_key {
            match self.labels.get_mut(&key) {
                Some(entry) => {
                    if now.saturating_since(entry.last_seen) > self.label_horizon {
                        expired_reopen = Some(key);
                    } else {
                        if !entry.label.is_attack() && view.packet.label.is_attack() {
                            entry.label = view.packet.label;
                        }
                        entry.last_seen = now;
                    }
                }
                None => {
                    self.labels
                        .insert(key, LabelEntry { label: view.packet.label, last_seen: now });
                }
            }
        }
        let labels = &self.labels;
        self.table.observe_with(parsed, |record| emit(Self::labeled(labels, record)));
        if let Some(key) = expired_reopen {
            self.labels.insert(key, LabelEntry { label: view.packet.label, last_seen: now });
        }
        self.last_ts = now;
        if self.labels.len() >= self.purge_at {
            self.purge_expired();
        }
    }

    /// Emits every flow still open, in first-seen order (end of stream).
    pub fn flush(&mut self) -> Vec<LabeledFlow> {
        let labels = &self.labels;
        self.table.flush().into_iter().map(|record| Self::labeled(labels, record)).collect()
    }

    /// Extracts every flow this assembler no longer owns: each key for
    /// which `owned` returns `false` leaves with its open record (if the
    /// flow is still live) and its accumulated label fold, as a
    /// [`FlowMigration`] with no detector state attached (the caller owns
    /// the detector and fills that field).
    ///
    /// The label fold is the inventory, not the flow table: labels persist
    /// beyond eviction so a reopened 5-tuple inherits the attack fold, and
    /// that persistence must survive an ownership move too — otherwise an
    /// autoscaled run could label a reopened flow differently than a
    /// single-shard run. Migrations are returned sorted by key, so the
    /// handoff is deterministic regardless of map iteration order.
    ///
    /// Expired dead tuples (no open record, silent past the label horizon)
    /// are dropped rather than migrated: any reopen resets their fold
    /// anyway, so shipping them would only re-seed the new owner with
    /// history it is about to discard. Together with the amortized purge
    /// this bounds the scan and the migration volume by recent traffic, not
    /// by everything the shard has ever seen.
    pub fn extract_departing(&mut self, owned: impl Fn(&FlowKey) -> bool) -> Vec<FlowMigration> {
        let mut departing: Vec<FlowKey> =
            self.labels.keys().filter(|key| !owned(key)).copied().collect();
        departing.sort_unstable();
        let now = self.last_ts;
        let mut migrations = Vec::with_capacity(departing.len());
        for key in departing {
            let entry = self.labels.remove(&key).expect("departing key came from the label fold");
            let record = self.table.extract(&key);
            if record.is_none() && now.saturating_since(entry.last_seen) > self.label_horizon {
                continue;
            }
            migrations.push(FlowMigration {
                key,
                record,
                label: entry.label,
                label_seen: entry.last_seen,
                detector: None,
            });
        }
        migrations
    }

    /// Clones the *entire* live state as migrations, leaving this assembler
    /// untouched — the checkpoint counterpart of
    /// [`FlowEventAssembler::extract_departing`]. Open records are copied
    /// (not extracted), label folds stay in place, and the same dead-tuple
    /// rule applies: an expired tuple with no open record is skipped, since
    /// a reopen would reset its fold anyway. Sorted by key.
    ///
    /// Restoring a fresh assembler from the result via
    /// [`FlowEventAssembler::absorb`] plus
    /// [`FlowEventAssembler::restore_clock`] yields a replica that makes
    /// byte-identical decisions on a replay of the donor's packet stream.
    pub fn snapshot_all(&self) -> Vec<FlowMigration> {
        let mut keys: Vec<FlowKey> = self.labels.keys().copied().collect();
        keys.sort_unstable();
        let now = self.last_ts;
        let mut migrations = Vec::with_capacity(keys.len());
        for key in keys {
            let entry = self.labels.get(&key).expect("key came from the label fold");
            let record = self.table.get(&key).cloned();
            if record.is_none() && now.saturating_since(entry.last_seen) > self.label_horizon {
                continue;
            }
            migrations.push(FlowMigration {
                key,
                record,
                label: entry.label,
                label_seen: entry.last_seen,
                detector: None,
            });
        }
        migrations
    }

    /// The assembler's traffic clock: latest packet timestamp observed plus
    /// the flow table's idle-sweep phase. Checkpointed alongside
    /// [`FlowEventAssembler::snapshot_all`] so a recovered replica sweeps at
    /// exactly the packets the donor would have.
    pub fn clock(&self) -> (Timestamp, Timestamp) {
        (self.last_ts, self.table.sweep_clock())
    }

    /// Restores a clock captured by [`FlowEventAssembler::clock`] onto a
    /// fresh assembler, before any replay traffic.
    pub fn restore_clock(&mut self, last_ts: Timestamp, sweep: Timestamp) {
        self.last_ts = last_ts;
        self.table.set_sweep_clock(sweep);
    }

    /// Adopts one migrated flow: the label fold merges (attack wins, the
    /// same rule [`FlowEventAssembler::observe`] applies), the fold clock
    /// keeps the later of the two `label_seen` times, and the open record,
    /// if any, resumes aggregating in this assembler's table.
    pub fn absorb(&mut self, migration: FlowMigration) {
        match self.labels.get_mut(&migration.key) {
            Some(entry) => {
                if !entry.label.is_attack() && migration.label.is_attack() {
                    entry.label = migration.label;
                }
                entry.last_seen = entry.last_seen.max(migration.label_seen);
            }
            None => {
                self.labels.insert(
                    migration.key,
                    LabelEntry { label: migration.label, last_seen: migration.label_seen },
                );
            }
        }
        if let Some(record) = migration.record {
            self.table.absorb(record);
        }
    }

    /// Number of flows currently being tracked.
    pub fn active_flows(&self) -> usize {
        self.table.active_flows()
    }

    /// Number of keys currently held by the label fold (live flows plus
    /// dead tuples still within the label horizon, up to purge slack).
    pub fn label_entries(&self) -> usize {
        self.labels.len()
    }

    /// Physically drops expired dead tuples from the fold. Entries whose
    /// record is still in the flow table are always kept (their eventual
    /// eviction must read the old fold), so purge timing is unobservable:
    /// every read path either finds the entry live or would have reset it.
    fn purge_expired(&mut self) {
        let table = &self.table;
        let horizon = self.label_horizon;
        let now = self.last_ts;
        self.labels.retain(|key, entry| {
            now.saturating_since(entry.last_seen) <= horizon || table.contains(key)
        });
        self.purge_at = (self.labels.len() * 2).max(LABEL_PURGE_MIN);
    }

    fn labeled(labels: &FxHashMap<FlowKey, LabelEntry>, record: FlowRecord) -> LabeledFlow {
        let label = labels.get(&record.key).map(|entry| entry.label).unwrap_or(Label::Benign);
        let features = FlowFeatures::from_record(&record);
        LabeledFlow { record, features, label }
    }
}

/// Packets per [`Burst`] in the batch runner and, by default, per stream
/// batch: equal, so both drivers time and batch alike.
pub const BURST_PACKETS: usize = 32;

/// One event a [`Burst`] scored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstEvent {
    /// The view that was scored or triggered the eviction; `None` in a flush.
    pub packet: Option<usize>,
    /// `0` for a packet, `n` for its `n`-th eviction, the index in a flush.
    pub sub: u32,
    /// The detector's score.
    pub score: f64,
    /// Ground truth of the packet or flow.
    pub label: Label,
    /// Traffic time: the packet's timestamp, or the flow's last-seen time.
    pub ts: Timestamp,
}

impl BurstEvent {
    fn packet(at: usize, view: &ParsedView, score: f64) -> Self {
        let ts = view.packet.packet.ts;
        BurstEvent { packet: Some(at), sub: 0, score, label: view.label(), ts }
    }

    /// Delivers `flow` as an [`Event::FlowEvicted`]; the event, if scored.
    fn eviction(
        detector: &mut dyn EventDetector,
        packet: Option<usize>,
        sub: u32,
        flow: &LabeledFlow,
    ) -> Option<Self> {
        let score = detector.on_event(&Event::FlowEvicted(flow))?;
        Some(BurstEvent { packet, sub, score, label: flow.label, ts: flow.record.last_seen })
    }
}

/// The one scoring loop of both drivers, and the only driver code that
/// hands events to a detector. Without a flow assembler (packet format) a
/// burst goes to [`EventDetector::on_packet_batch`] in one call; with one,
/// each [`Event::Packet`] is followed by the evictions it triggered, and
/// [`Burst::flush`] scores the end-of-stream flush as a last burst. Each
/// call is timed by one clock pair, flow assembly included, and fails with
/// [`CoreError::ScoreCountMismatch`], keeping nothing, unless the detector
/// returned one score per event of its input format — a missing score
/// fails the run instead of shifting later scores onto the wrong labels.
/// [`Burst::events`] holds what the last call scored; the buffers are
/// reused, so steady-state bursts allocate nothing.
#[derive(Debug, Default)]
pub struct Burst {
    events: Vec<BurstEvent>,
    scores: Vec<f64>,
    evicted: Vec<LabeledFlow>,
}

impl Burst {
    /// Scores `views`, feeding `assembler` if any; returns the wall-clock
    /// nanoseconds.
    ///
    /// # Errors
    ///
    /// [`CoreError::ScoreCountMismatch`] on a wrong score count.
    pub fn score<'v>(
        &mut self,
        detector: &mut dyn EventDetector,
        assembler: Option<&mut FlowEventAssembler>,
        views: impl ExactSizeIterator<Item = &'v ParsedView> + Clone,
    ) -> Result<u128> {
        self.events.clear();
        let started = Instant::now();
        let (expected, got) = match assembler {
            None => {
                let expected = views.len();
                detector.on_packet_batch(&mut views.clone(), &mut self.scores);
                let got = self.scores.len();
                let scored = views.enumerate().zip(self.scores.drain(..));
                self.events
                    .extend(scored.map(|((at, view), score)| BurstEvent::packet(at, view, score)));
                (expected, got)
            }
            Some(assembler) => {
                let mut evictions = 0;
                for (at, view) in views.enumerate() {
                    let score = detector.on_event(&Event::Packet(view));
                    self.events.extend(score.map(|score| BurstEvent::packet(at, view, score)));
                    let evicted = &mut self.evicted;
                    assembler.observe(view, |flow| evicted.push(flow));
                    evictions += self.evicted.len();
                    for (index, flow) in self.evicted.drain(..).enumerate() {
                        let sub = index as u32 + 1;
                        self.events.extend(BurstEvent::eviction(detector, Some(at), sub, &flow));
                    }
                }
                (evictions, self.events.len())
            }
        };
        self.settle(detector, started, expected, got)
    }

    /// Scores the end-of-stream flush of `assembler`; returns the
    /// wall-clock nanoseconds.
    ///
    /// # Errors
    ///
    /// As [`Burst::score`].
    pub fn flush(
        &mut self,
        detector: &mut dyn EventDetector,
        assembler: &mut FlowEventAssembler,
    ) -> Result<u128> {
        self.events.clear();
        let started = Instant::now();
        let flushed = assembler.flush();
        for (index, flow) in flushed.iter().enumerate() {
            self.events.extend(BurstEvent::eviction(detector, None, index as u32, flow));
        }
        self.settle(detector, started, flushed.len(), self.events.len())
    }

    /// The events the last burst scored, in delivery order.
    pub fn events(&self) -> &[BurstEvent] {
        &self.events
    }

    fn settle(
        &mut self,
        detector: &dyn EventDetector,
        started: Instant,
        expected: usize,
        got: usize,
    ) -> Result<u128> {
        let nanos = started.elapsed().as_nanos();
        if got != expected {
            self.events.clear();
            let detector = detector.name().to_string();
            return Err(CoreError::ScoreCountMismatch { detector, expected, got });
        }
        Ok(nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::AttackKind;
    use idsbench_flow::FlowTermination;
    use idsbench_net::{MacAddr, Packet, PacketBuilder, TcpFlags, Timestamp};
    use std::net::Ipv4Addr;

    fn tcp_view(src: (u8, u16), dst: (u8, u16), t: f64, label: Label) -> ParsedView {
        flagged_view(src, dst, TcpFlags::ACK, t, label)
    }

    /// A view is moved whole per packet — built, pushed into its batch,
    /// handed back through the recycle lane — and `slips-iot` is bound by
    /// that feeder-side work, so its size is throughput. At 184 bytes a
    /// `StreamItem` (sequence number and view) fills three cache lines. On
    /// a 2-core Xeon VM `slips-iot` read 11 % fewer packets per second with
    /// a 192-byte view, and 6 % fewer again when a field grew a 192-byte
    /// view to 200. So the feature row is boxed, and `ParsedPacket`'s
    /// lengths and the `Bytes` range are `u32`s to make room for it.
    #[test]
    fn a_parsed_view_stays_within_184_bytes() {
        assert!(std::mem::size_of::<ParsedView>() <= 184, "{}", std::mem::size_of::<ParsedView>());
    }

    fn flagged_view(
        src: (u8, u16),
        dst: (u8, u16),
        flags: TcpFlags,
        t: f64,
        label: Label,
    ) -> ParsedView {
        let p = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(src.0 as u32), MacAddr::from_host_id(dst.0 as u32))
            .ipv4(Ipv4Addr::new(10, 0, 0, src.0), Ipv4Addr::new(10, 0, 0, dst.0))
            .tcp(src.1, dst.1, flags)
            .payload(&[0; 20])
            .build(Timestamp::from_secs_f64(t));
        ParsedView::from_packet(LabeledPacket::new(p, label))
    }

    #[test]
    fn view_precomputes_canonical_flow_key() {
        let forward = tcp_view((1, 40_000), (2, 80), 0.0, Label::Benign);
        let backward = tcp_view((2, 80), (1, 40_000), 0.1, Label::Benign);
        assert!(forward.parsed.is_some());
        assert_eq!(forward.flow_key, backward.flow_key, "both directions share one key");
        assert!(forward.flow_key.is_some());
    }

    #[test]
    fn malformed_frame_yields_keyless_view() {
        let garbage =
            LabeledPacket::new(Packet::new(Timestamp::ZERO, vec![0xff; 7]), Label::Benign);
        let view = ParsedView::from_packet(garbage);
        assert!(view.parsed.is_none());
        assert!(view.flow_key.is_none());
        assert!(!view.is_attack());
    }

    #[test]
    fn event_carries_label_and_format() {
        let view = tcp_view((1, 40_000), (2, 80), 0.0, Label::Attack(AttackKind::PortScan));
        let event = Event::Packet(&view);
        assert!(event.label().is_attack());
        assert_eq!(event.format(), InputFormat::Packets);
    }

    #[test]
    fn assembler_labels_flows_from_constituent_packets() {
        let mut assembler = FlowEventAssembler::new(FlowTableConfig::default());
        let views = [
            tcp_view((1, 40_000), (2, 80), 0.0, Label::Benign),
            tcp_view((2, 80), (1, 40_000), 0.1, Label::Attack(AttackKind::Exfiltration)),
        ];
        for view in &views {
            assembler.observe(view, |_| panic!("nothing should evict yet"));
        }
        let flows = assembler.flush();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].label.attack_kind(), Some(AttackKind::Exfiltration));
        assert_eq!(flows[0].record.total_packets(), 2);
    }

    #[test]
    fn assembler_handoff_migrates_record_and_label_fold() {
        let mut donor = FlowEventAssembler::new(FlowTableConfig::default());
        let mut heir = FlowEventAssembler::new(FlowTableConfig::default());
        // Two flows on the donor; one carries an attack label.
        let moving = [
            tcp_view((1, 40_000), (2, 80), 0.0, Label::Attack(AttackKind::PortScan)),
            tcp_view((2, 80), (1, 40_000), 0.1, Label::Benign),
        ];
        let staying = tcp_view((3, 41_000), (2, 80), 0.05, Label::Benign);
        for view in moving.iter().chain(std::iter::once(&staying)) {
            donor.observe(view, |_| panic!("nothing evicts yet"));
        }
        assert_eq!(donor.active_flows(), 2);

        let moving_key = moving[0].flow_key.unwrap();
        let migrations = donor.extract_departing(|key| *key != moving_key);
        assert_eq!(migrations.len(), 1);
        assert_eq!(migrations[0].key, moving_key);
        assert!(migrations[0].record.is_some(), "open flow travels with its record");
        assert_eq!(donor.active_flows(), 1, "donor keeps only what it still owns");

        for migration in migrations {
            heir.absorb(migration);
        }
        // The flow continues on the heir as if nothing happened.
        heir.observe(&tcp_view((1, 40_000), (2, 80), 0.2, Label::Benign), |_| {
            panic!("nothing evicts yet")
        });
        let flows = heir.flush();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].record.total_packets(), 3, "pre-handoff packets survive");
        assert!(flows[0].label.is_attack(), "label fold survives the handoff");
    }

    #[test]
    fn label_fold_plateaus_under_short_lived_flow_churn() {
        let config = FlowTableConfig {
            idle_timeout: Duration::from_secs(1),
            active_timeout: Duration::from_secs(60),
            time_wait: Duration::from_secs(1),
            max_flows: 4096,
        };
        let mut assembler = FlowEventAssembler::new(config);
        // A long stream of one-packet flows: a fresh source port every
        // packet, one packet per traffic-second. Before the bound, the
        // fold kept every tuple ever seen and this grew without limit.
        let total = 8_000u32;
        let mut peak = 0usize;
        for i in 0..total {
            let t = f64::from(i);
            let port = 2_000 + (i % 60_000) as u16;
            let view = tcp_view((1, port), (2, 80), t, Label::Benign);
            assembler.observe(&view, |_| {});
            peak = peak.max(assembler.label_entries());
        }
        assert!(
            peak <= 2 * 1024 + 64,
            "label fold failed to plateau: peak {peak} of {total} tuples"
        );
        assert!(assembler.label_entries() < total as usize / 4);
    }

    #[test]
    fn expired_dead_tuple_reopens_with_a_fresh_label() {
        let config = FlowTableConfig {
            idle_timeout: Duration::from_secs(1),
            active_timeout: Duration::from_secs(60),
            time_wait: Duration::from_secs(1),
            max_flows: 4096,
        };
        let mut assembler = FlowEventAssembler::new(config);
        // An attack-labeled flow dies, then the same 5-tuple reopens past
        // the horizon with benign traffic.
        let mut evicted = Vec::new();
        assembler.observe(
            &tcp_view((1, 40_000), (2, 80), 0.0, Label::Attack(AttackKind::PortScan)),
            |flow| evicted.push(flow),
        );
        assembler.observe(&tcp_view((1, 40_000), (2, 80), 700.0, Label::Benign), |flow| {
            evicted.push(flow)
        });
        // The old record idled out, swept by the reopening packet — and it
        // must still carry the old attack fold.
        assert_eq!(evicted.len(), 1);
        assert!(evicted[0].label.is_attack(), "old segment keeps the old fold");
        // The reopened segment starts fresh: no inherited attack label.
        let flows = assembler.flush();
        assert_eq!(flows.len(), 1);
        assert!(!flows[0].label.is_attack(), "expired fold must not leak into the reopen");

        // Inside the horizon the fold still carries over (unchanged rule).
        let mut assembler = FlowEventAssembler::new(config);
        let mut evicted = Vec::new();
        assembler.observe(
            &tcp_view((1, 40_000), (2, 80), 0.0, Label::Attack(AttackKind::PortScan)),
            |flow| evicted.push(flow),
        );
        assembler.observe(&tcp_view((1, 40_000), (2, 80), 100.0, Label::Benign), |flow| {
            evicted.push(flow)
        });
        let flows = assembler.flush();
        assert_eq!(flows.len(), 1);
        assert!(flows[0].label.is_attack(), "in-horizon reopen inherits the fold");
    }

    #[test]
    fn expired_dead_tuples_are_dropped_from_migration() {
        let config = FlowTableConfig {
            idle_timeout: Duration::from_secs(1),
            active_timeout: Duration::from_secs(60),
            time_wait: Duration::from_secs(1),
            max_flows: 4096,
        };
        let mut donor = FlowEventAssembler::new(config);
        // One tuple dies early, another stays live until the handoff.
        donor.observe(&tcp_view((1, 40_000), (2, 80), 0.0, Label::Benign), |_| {});
        donor.observe(&tcp_view((3, 41_000), (2, 80), 650.0, Label::Benign), |_| {});
        let migrations = donor.extract_departing(|_| false);
        assert_eq!(migrations.len(), 1, "expired dead tuple must not be shipped");
        assert_eq!(
            migrations[0].key,
            tcp_view((3, 41_000), (2, 80), 0.0, Label::Benign).flow_key.unwrap()
        );
    }

    #[test]
    fn snapshot_restores_a_byte_identical_replica() {
        let config = FlowTableConfig {
            idle_timeout: Duration::from_secs(2),
            active_timeout: Duration::from_secs(60),
            time_wait: Duration::from_secs(1),
            max_flows: 4096,
        };
        let flagged = |src, flags, t| flagged_view(src, (2, 80), flags, t, Label::Benign);
        let mut donor = FlowEventAssembler::new(config);
        donor.observe(
            &tcp_view((1, 40_000), (2, 80), 0.0, Label::Attack(AttackKind::SynFlood)),
            |_| {},
        );
        donor.observe(&tcp_view((3, 41_000), (2, 80), 0.5, Label::Benign), |_| {});
        // Two flows torn down and sitting in TIME_WAIT (one of them touched
        // again since), one mid-idle flow touched since it was opened: the
        // donor's expiry index holds dead and lagging entries for them, the
        // replica's is rebuilt from the records alone.
        donor.observe(&flagged((6, 43_000), TcpFlags::SYN, 0.55), |_| {});
        donor.observe(&flagged((6, 43_000), TcpFlags::RST, 0.6), |_| {});
        donor.observe(&flagged((7, 44_000), TcpFlags::SYN, 0.6), |_| {});
        donor.observe(&flagged((7, 44_000), TcpFlags::RST, 0.65), |_| {});
        donor.observe(&flagged((7, 44_000), TcpFlags::ACK, 0.8), |_| {});
        donor.observe(&tcp_view((3, 41_000), (2, 80), 0.85, Label::Benign), |_| {});

        let snapshot = donor.snapshot_all();
        assert_eq!(snapshot.len(), 4);
        assert_eq!(donor.active_flows(), 4, "snapshot must not disturb the donor");
        assert_eq!(donor.label_entries(), 4);

        let mut replica = FlowEventAssembler::new(config);
        let (last_ts, sweep) = donor.clock();
        for migration in snapshot {
            replica.absorb(migration);
        }
        replica.restore_clock(last_ts, sweep);

        // Same subsequent traffic → same evictions at the same packets —
        // TIME_WAIT expiry at 1.7 (one flow) and 1.9 (the other), a reopen
        // of a TIME_WAIT tuple, sweep-triggered idle evictions — and an
        // identical flush.
        let tail = [
            tcp_view((1, 40_000), (2, 80), 0.9, Label::Benign),
            tcp_view((8, 45_000), (2, 80), 1.7, Label::Benign),
            flagged((7, 44_000), TcpFlags::SYN, 1.75),
            tcp_view((8, 45_000), (2, 80), 2.9, Label::Benign),
            tcp_view((5, 42_000), (2, 80), 4.0, Label::Benign),
            tcp_view((5, 42_000), (2, 80), 4.5, Label::Benign),
        ];
        let mut donor_evicted = Vec::new();
        let mut replica_evicted = Vec::new();
        for view in &tail {
            donor.observe(view, |flow| donor_evicted.push(flow));
            replica.observe(view, |flow| replica_evicted.push(flow));
            assert_eq!(
                donor_evicted, replica_evicted,
                "replica diverged at {}",
                view.packet.packet.ts
            );
        }
        let terminations: Vec<FlowTermination> =
            donor_evicted.iter().map(|flow| flow.record.termination).collect();
        assert_eq!(
            terminations,
            [
                FlowTermination::TcpClose,    // (6, 43_000): TIME_WAIT over at 1.7
                FlowTermination::TcpClose,    // (7, 44_000): reopened at 1.75
                FlowTermination::IdleTimeout, // (1, 40_000): idle since 0.9 at 2.9
                FlowTermination::IdleTimeout, // (3, 41_000): idle since 0.85 at 2.9
                FlowTermination::IdleTimeout, // (7, 44_000) again: idle since 1.75 at 4.0
            ]
        );
        donor_evicted.extend(donor.flush());
        replica_evicted.extend(replica.flush());
        assert_eq!(donor_evicted, replica_evicted, "replica diverged from the donor");
    }

    #[test]
    fn snapshot_flow_state_default_round_trips() {
        // A detector with per-flow state: the default snapshot must copy
        // without consuming.
        #[derive(Debug, Default)]
        struct Count(std::collections::HashMap<FlowKey, u64>);
        impl EventDetector for Count {
            fn name(&self) -> &str {
                "count"
            }
            fn input_format(&self) -> InputFormat {
                InputFormat::Packets
            }
            fn fit(&mut self, _train: &TrainView) {}
            fn on_event(&mut self, _event: &Event<'_>) -> Option<f64> {
                Some(0.0)
            }
            fn extract_flow_state(&mut self, key: &FlowKey) -> Option<Vec<u8>> {
                self.0.remove(key).map(|c| c.to_le_bytes().to_vec())
            }
            fn absorb_flow_state(&mut self, key: &FlowKey, state: Vec<u8>) {
                if let Ok(bytes) = <[u8; 8]>::try_from(state.as_slice()) {
                    self.0.insert(*key, u64::from_le_bytes(bytes));
                }
            }
        }
        let key = tcp_view((1, 40_000), (2, 80), 0.0, Label::Benign).flow_key.unwrap();
        let mut detector = Count::default();
        detector.0.insert(key, 7);
        let snap = detector.snapshot_flow_state(&key).expect("state exists");
        assert_eq!(snap, 7u64.to_le_bytes().to_vec());
        assert_eq!(detector.0.get(&key), Some(&7), "snapshot must not consume");
        let mut boxed: Box<dyn EventDetector> = Box::new(detector);
        assert!(boxed.snapshot_flow_state(&key).is_some(), "Box forwards the hook");
    }

    #[test]
    fn train_view_assembles_both_shapes() {
        let views = vec![
            tcp_view((1, 40_000), (2, 80), 0.0, Label::Benign),
            tcp_view((3, 41_000), (2, 80), 0.5, Label::Benign),
        ];
        let train = TrainView::assemble(views, FlowTableConfig::default());
        assert_eq!(train.packets.len(), 2);
        assert_eq!(train.flows.len(), 2, "flush must surface open flows");
    }
}
