//! The fabric message codec: every frame that crosses a coordinator↔worker
//! socket, encoded with the little-endian primitives of
//! [`idsbench_net::wire`].
//!
//! A frame on the wire is `[u32 LE body length][body]`, capped at
//! [`FRAME_MAX`]; the first body byte is the message tag. Coordinator→worker
//! tags live in `0x01..=0x0F`, worker→coordinator tags in `0x40..=0x4F`, so
//! a crossed stream fails immediately with a [`WireError::BadTag`] instead
//! of mis-decoding. Every decoder demands full consumption of the body —
//! trailing bytes are rejected, which is what lets the property tests pin
//! "decode ∘ encode = id" and "any truncation is an error".
//!
//! Scores, thresholds, and statistics travel as IEEE-754 bit patterns
//! ([`put_f64`]), so the multiset-parity guarantee of the multi-node
//! executor is bitwise, not approximate.

use idsbench_core::{AttackKind, FlowMigration, Label};
use idsbench_flow::{FlowKey, FlowRecord, FlowTableConfig};
use idsbench_net::wire::{
    put_bool, put_bytes, put_f64, put_list, put_str, put_u16, put_u32, put_u64, put_u8, WireError,
    WireReader, WireResult, LIST_RESERVE,
};
use idsbench_net::{Duration, Timestamp};
use idsbench_stream::{HashRing, ShardCheckpoint, StreamConfig, ThresholdMode};
use idsbench_stream::{LatencyHistogram, OnlineStats, Recorder, ScoredEvent, ShardOutcome};

/// Hard ceiling on one frame body, bytes. Large enough for a full-recorder
/// outcome of millions of scored events, small enough that a corrupt length
/// prefix cannot trigger a runaway allocation.
pub const FRAME_MAX: usize = 1 << 26;

/// First four bytes of every `Hello` body after the tag: `"IDSB"`.
pub const PROTOCOL_MAGIC: u32 = 0x4244_5349;

/// Protocol revision; bumped on any wire-visible change. Version 2 added
/// the recovery-epoch messages (`Checkpoint`/`Restore`/`Ping` and their
/// replies).
pub const PROTOCOL_VERSION: u16 = 2;

/// Sanity bounds for decoded element counts (see [`WireReader::count`]).
const MAX_ITEMS: usize = 1 << 20;
const MAX_MIGRATIONS: usize = 1 << 20;
const MAX_SHARDS: usize = 4096;
const MAX_EVENTS: usize = 1 << 22;
const MAX_WINDOWS: usize = 1 << 20;

/// Most vnodes per shard a `Rebalance` ring may carry (a ring holds
/// `vnodes × shards` points); [`run_fabric`](crate::run_fabric) refuses a
/// finer ring before it awaits a worker.
pub const MAX_VNODES: usize = 1024;

/// The `Batch` tag, written by [`put_batch`] and checked by [`BatchReader`].
const BATCH: u8 = 0x05;

/// The run parameters a worker needs before it can host shards: which
/// detector to instantiate, the metrics-window length, the recording mode,
/// and the flow-table geometry (which must match the coordinator's for
/// parity).
#[derive(Debug, Clone, PartialEq)]
pub struct HelloConfig {
    /// Registry name of the detector every hosted shard instantiates.
    pub detector: String,
    /// Tumbling metrics-window length, seconds.
    pub window_secs: f64,
    /// `Some(threshold)` selects the zero-buffer online recorder at that
    /// fixed threshold; `None` selects full score recording (the
    /// coordinator calibrates after the merge).
    pub fixed_threshold: Option<f64>,
    /// Flow-table parameters for the per-shard eviction path.
    pub flow: FlowTableConfig,
}

impl HelloConfig {
    /// Derives the wire config from a [`StreamConfig`] and a detector name.
    pub fn from_stream(detector: &str, config: &StreamConfig) -> Self {
        HelloConfig {
            detector: detector.to_string(),
            window_secs: config.window_secs,
            fixed_threshold: match config.threshold {
                ThresholdMode::Fixed(threshold) => Some(threshold),
                ThresholdMode::Calibrated(_) => None,
            },
            flow: config.flow,
        }
    }

    /// The recorder a hosted shard starts with under this config.
    pub fn recorder(&self) -> Recorder {
        Recorder::for_mode(
            self.fixed_threshold.map_or(ThresholdMode::default(), ThresholdMode::Fixed),
        )
    }
}

/// One evaluation packet as shipped to a remote shard: the feeder's global
/// sequence number plus the raw frame. The worker re-parses the bytes on
/// arrival — its own single `ParsedView::from_packet` site, mirroring the
/// in-process feeder's parse-once rule per process.
#[derive(Debug, Clone, PartialEq)]
pub struct WireItem {
    /// Global feed order assigned by the coordinator.
    pub seq: u64,
    /// Capture timestamp, microseconds.
    pub ts_micros: u64,
    /// Ground-truth label.
    pub label: Label,
    /// Raw frame bytes starting at the Ethernet header.
    pub data: Vec<u8>,
}

impl From<BatchItem<'_>> for WireItem {
    fn from(item: BatchItem<'_>) -> Self {
        WireItem {
            seq: item.seq,
            ts_micros: item.ts_micros,
            label: item.label,
            data: item.data.to_vec(),
        }
    }
}

/// One routed packet of a `Batch` body, borrowed: what [`put_batch`]
/// encodes straight from the caller's packets and what a [`BatchReader`]
/// yields as a view into the received body — no payload is copied either
/// way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchItem<'a> {
    /// Global feed order assigned by the coordinator.
    pub seq: u64,
    /// Capture timestamp, microseconds.
    pub ts_micros: u64,
    /// Ground-truth label.
    pub label: Label,
    /// Raw frame bytes starting at the Ethernet header.
    pub data: &'a [u8],
}

impl<'a> From<&'a WireItem> for BatchItem<'a> {
    fn from(item: &'a WireItem) -> Self {
        BatchItem { seq: item.seq, ts_micros: item.ts_micros, label: item.label, data: &item.data }
    }
}

/// Appends a `Batch` body for `shard` — the one `Batch` encoder, behind
/// [`CoordMsg::encode`] and the coordinator's recycled frames alike.
pub fn put_batch<'a>(
    out: &mut Vec<u8>,
    shard: u32,
    items: impl ExactSizeIterator<Item = BatchItem<'a>>,
) {
    put_u8(out, BATCH);
    put_u32(out, shard);
    put_u32(out, items.len() as u32);
    for item in items {
        put_u64(out, item.seq);
        put_packet_body(out, item.ts_micros, item.label, item.data);
    }
}

/// The one `Batch` reader: yields a body's items in order, each payload
/// borrowed from the body, and after the last item demands the body is
/// fully consumed (the final `next` is then an `Err` carrying
/// [`WireError::Oversize`]). [`CoordMsg::decode`] collects it into
/// [`WireItem`]s; the worker slices its packets out of the received frame
/// at [`BatchReader::consumed`].
#[derive(Debug, Clone)]
pub struct BatchReader<'a> {
    r: WireReader<'a>,
    body_len: usize,
    shard: u32,
    left: usize,
}

impl<'a> BatchReader<'a> {
    /// Opens `body` when its tag is `Batch` — `Ok(None)` for any other
    /// tag — reading the target shard and the item count.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on a body too short for the header,
    /// [`WireError::Oversize`] on an item count past the sanity bound.
    pub fn open(body: &'a [u8]) -> WireResult<Option<Self>> {
        let mut r = WireReader::new(body);
        if r.u8()? != BATCH {
            return Ok(None);
        }
        BatchReader::after_tag(r, body.len()).map(Some)
    }

    fn after_tag(mut r: WireReader<'a>, body_len: usize) -> WireResult<Self> {
        let shard = r.u32()?;
        let left = r.count(MAX_ITEMS)?;
        Ok(BatchReader { r, body_len, shard, left })
    }

    /// The shard the batch is routed to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Body bytes read so far: right after an item, the end offset of its
    /// payload within the body.
    pub fn consumed(&self) -> usize {
        self.body_len - self.r.remaining()
    }

    fn item(&mut self) -> WireResult<BatchItem<'a>> {
        let r = &mut self.r;
        Ok(BatchItem {
            seq: r.u64()?,
            ts_micros: r.u64()?,
            label: read_label(r)?,
            data: r.bytes()?,
        })
    }
}

impl<'a> Iterator for BatchReader<'a> {
    type Item = WireResult<BatchItem<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = if self.left > 0 {
            self.left -= 1;
            self.item()
        } else if self.r.is_empty() {
            return None;
        } else {
            Err(WireError::Oversize(self.r.remaining() as u64))
        };
        if item.is_err() {
            // Fused after the first error.
            self.left = 0;
            self.r = WireReader::new(&[]);
        }
        Some(item)
    }
}

/// One training packet (same shape as [`WireItem`] minus the sequence
/// number — warmup packets are not part of the scored stream).
#[derive(Debug, Clone, PartialEq)]
pub struct WirePacket {
    /// Capture timestamp, microseconds.
    pub ts_micros: u64,
    /// Ground-truth label.
    pub label: Label,
    /// Raw frame bytes starting at the Ethernet header.
    pub data: Vec<u8>,
}

/// Coordinator→worker messages, in protocol order.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordMsg {
    /// Handshake: magic, version, and the run parameters.
    Hello(HelloConfig),
    /// A chunk of warmup packets for the shared train view.
    Train(Vec<WirePacket>),
    /// End of warmup: assemble the train view; shards may now spawn.
    TrainDone,
    /// Host a new shard: fit a fresh detector and reply [`WorkerMsg::Ready`].
    Spawn {
        /// Stable shard id.
        shard: u32,
    },
    /// A batch of routed evaluation packets for one hosted shard.
    Batch {
        /// Target shard id.
        shard: u32,
        /// The routed packets, in feed order.
        items: Vec<WireItem>,
    },
    /// Ring membership changed: the shard extracts every flow it no longer
    /// owns and replies [`WorkerMsg::Migrations`]. Receipt doubles as the
    /// drain barrier — the reply proves the shard's old-ring backlog is
    /// fully scored.
    Rebalance {
        /// Target shard id.
        shard: u32,
        /// The new ring; only its vnode count and shard ids travel, since
        /// vnode placement is a pure function of the two.
        ring: HashRing,
    },
    /// Flows whose ownership moved to this shard; absorb before scoring
    /// anything routed under the new ring (socket order guarantees this).
    Migrate {
        /// Target shard id.
        shard: u32,
        /// The migrated flow state.
        migrations: Vec<FlowMigration>,
    },
    /// Retire one shard: flush it and reply [`WorkerMsg::Outcome`].
    Retire {
        /// Target shard id.
        shard: u32,
    },
    /// End of stream: flush every remaining shard, reply one
    /// [`WorkerMsg::Outcome`] per shard (ascending id) then
    /// [`WorkerMsg::Bye`].
    Finish,
    /// Recovery-epoch barrier: the shard snapshots its live state and
    /// drained score fragment, replying [`WorkerMsg::Checkpoint`]. Like
    /// `Rebalance`, receipt proves every prior batch on this socket is
    /// fully scored.
    Checkpoint {
        /// Target shard id.
        shard: u32,
        /// Monotonic epoch the snapshot commits.
        epoch: u64,
    },
    /// Re-homes a crashed shard onto this worker:
    /// [`ShardLoop::restore`](idsbench_stream::ShardLoop::restore) the
    /// checkpoint before any replayed frame (always preceded by a fresh
    /// `Spawn` for the same shard).
    Restore {
        /// Target shard id.
        shard: u32,
        /// The epoch the state was checkpointed at.
        epoch: u64,
        /// The donor's committed checkpoint.
        checkpoint: ShardCheckpoint,
    },
    /// Liveness probe for peers hosting no shards (standbys, drained
    /// workers); the worker echoes the nonce as [`WorkerMsg::Pong`].
    Ping {
        /// Echoed verbatim in the reply.
        nonce: u64,
    },
}

/// Worker→coordinator messages.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Handshake accepted: echoes the resolved detector and its input
    /// format (`false` = packets, `true` = flows).
    HelloOk {
        /// Resolved detector name.
        detector: String,
        /// Whether the detector consumes flow events.
        flows: bool,
    },
    /// A spawned shard finished fitting and is accepting batches.
    Ready {
        /// The shard that fitted.
        shard: u32,
        /// Seconds its detector spent in `fit`.
        fit_seconds: f64,
    },
    /// Reply to [`CoordMsg::Rebalance`]: the extracted departing flows.
    Migrations {
        /// The shard that drained.
        shard: u32,
        /// Everything it no longer owns.
        migrations: Vec<FlowMigration>,
    },
    /// A retired or finished shard's mergeable report fragment.
    Outcome(ShardOutcome),
    /// All outcomes sent; the worker is exiting cleanly.
    Bye,
    /// Reply to [`CoordMsg::Checkpoint`]: what
    /// [`ShardLoop::on_checkpoint`](idsbench_stream::ShardLoop::on_checkpoint)
    /// returned — the shard's restorable state and the score fragment
    /// drained since its previous checkpoint (fragments concatenate to the
    /// crash-free outcome).
    Checkpoint {
        /// The shard that snapshotted.
        shard: u32,
        /// Echo of the epoch being committed.
        epoch: u64,
        /// Flow state and traffic clock, cloned (the shard keeps scoring).
        checkpoint: ShardCheckpoint,
        /// Scores and counters accumulated since the previous checkpoint.
        fragment: ShardOutcome,
    },
    /// Reply to [`CoordMsg::Ping`], echoing its nonce.
    Pong {
        /// The probed nonce.
        nonce: u64,
    },
}

fn put_label(out: &mut Vec<u8>, label: Label) {
    match label {
        Label::Benign => put_u8(out, 0),
        Label::Attack(kind) => {
            let index =
                AttackKind::ALL.iter().position(|k| *k == kind).expect("kind is in ALL") as u8;
            put_u8(out, index + 1);
        }
    }
}

fn read_label(r: &mut WireReader<'_>) -> WireResult<Label> {
    match r.u8()? {
        0 => Ok(Label::Benign),
        tag => match AttackKind::ALL.get(tag as usize - 1) {
            Some(kind) => Ok(Label::Attack(*kind)),
            None => Err(WireError::BadTag(tag)),
        },
    }
}

fn put_kind(out: &mut Vec<u8>, kind: Option<AttackKind>) {
    put_label(out, kind.map_or(Label::Benign, Label::Attack));
}

fn read_kind(r: &mut WireReader<'_>) -> WireResult<Option<AttackKind>> {
    Ok(match read_label(r)? {
        Label::Benign => None,
        Label::Attack(kind) => Some(kind),
    })
}

fn put_duration(out: &mut Vec<u8>, d: Duration) {
    put_u64(out, d.as_micros());
}

fn read_duration(r: &mut WireReader<'_>) -> WireResult<Duration> {
    Ok(Duration::from_micros(r.u64()?))
}

fn put_migration(out: &mut Vec<u8>, migration: &FlowMigration) {
    migration.key.encode_wire(out);
    put_bool(out, migration.record.is_some());
    if let Some(record) = &migration.record {
        record.encode_wire(out);
    }
    put_label(out, migration.label);
    put_u64(out, migration.label_seen.as_micros());
    put_bool(out, migration.detector.is_some());
    if let Some(state) = &migration.detector {
        put_bytes(out, state);
    }
}

fn read_migration(r: &mut WireReader<'_>) -> WireResult<FlowMigration> {
    let key = FlowKey::decode_wire(r)?;
    let record = if r.bool()? { Some(FlowRecord::decode_wire(r)?) } else { None };
    let label = read_label(r)?;
    let label_seen = Timestamp::from_micros(r.u64()?);
    let detector = if r.bool()? { Some(r.bytes()?.to_vec()) } else { None };
    Ok(FlowMigration { key, record, label, label_seen, detector })
}

fn put_checkpoint(out: &mut Vec<u8>, checkpoint: &ShardCheckpoint) {
    put_u64(out, checkpoint.last_ts.as_micros());
    put_u64(out, checkpoint.sweep.as_micros());
    put_list(out, &checkpoint.flows, put_migration);
}

fn read_checkpoint(r: &mut WireReader<'_>) -> WireResult<ShardCheckpoint> {
    Ok(ShardCheckpoint {
        last_ts: Timestamp::from_micros(r.u64()?),
        sweep: Timestamp::from_micros(r.u64()?),
        flows: r.list(MAX_MIGRATIONS, read_migration)?,
    })
}

fn put_ring(out: &mut Vec<u8>, ring: &HashRing) {
    put_u32(out, ring.vnodes_per_shard() as u32);
    put_list(out, ring.shards(), |out, &shard| put_u32(out, shard as u32));
}

/// Rebuilds a ring written by [`put_ring`], refusing every membership
/// [`HashRing`] would panic on — or route nothing with — rather than
/// handing it to a worker.
fn read_ring(r: &mut WireReader<'_>) -> WireResult<HashRing> {
    let vnodes = r.u32()? as usize;
    if !(1..=MAX_VNODES).contains(&vnodes) {
        return Err(WireError::Invalid("ring vnodes outside 1..=MAX_VNODES"));
    }
    let shards = r.list(MAX_SHARDS, |r| Ok(r.u32()? as usize))?;
    if shards.is_empty() || shards.windows(2).any(|pair| pair[0] >= pair[1]) {
        return Err(WireError::Invalid("ring shard ids empty or not strictly ascending"));
    }
    let mut ring = HashRing::new(vnodes);
    shards.into_iter().for_each(|shard| ring.add_shard(shard));
    Ok(ring)
}

/// The sequence number of a `Batch` body's first item, read without
/// decoding the rest of the batch; `None` for any other frame, an empty
/// batch, or a first item that fails to decode.
pub(crate) fn batch_first_seq(body: &[u8]) -> Option<u64> {
    let first = BatchReader::open(body).ok()??.next()?;
    first.ok().map(|item| item.seq)
}

fn put_cm(out: &mut Vec<u8>, cm: &idsbench_core::metrics::ConfusionMatrix) {
    put_u64(out, cm.true_positives);
    put_u64(out, cm.false_positives);
    put_u64(out, cm.true_negatives);
    put_u64(out, cm.false_negatives);
}

fn read_cm(r: &mut WireReader<'_>) -> WireResult<idsbench_core::metrics::ConfusionMatrix> {
    Ok(idsbench_core::metrics::ConfusionMatrix {
        true_positives: r.u64()?,
        false_positives: r.u64()?,
        true_negatives: r.u64()?,
        false_negatives: r.u64()?,
    })
}

fn put_online(out: &mut Vec<u8>, stats: &OnlineStats) {
    put_cm(out, &stats.cm);
    put_u32(out, stats.windows.len() as u32);
    for (&window, (cm, packets)) in &stats.windows {
        put_u64(out, window);
        put_cm(out, cm);
        put_u64(out, *packets as u64);
    }
    put_u32(out, stats.families.len() as u32);
    for (&family, counts) in &stats.families {
        // Family keys are `AttackKind::name()` values; the index encoding
        // keeps the wire independent of name spelling and restores the
        // `&'static str` keys on decode.
        let index =
            AttackKind::ALL.iter().position(|k| k.name() == family).expect("family is a kind name");
        put_u8(out, index as u8);
        put_u64(out, counts.alerts as u64);
        put_u64(out, counts.packets as u64);
        put_u64(out, counts.flows as u64);
    }
    let buckets: Vec<(usize, u64)> = stats.latency.nonzero_buckets().collect();
    put_u32(out, buckets.len() as u32);
    for (index, count) in buckets {
        put_u32(out, index as u32);
        put_u64(out, count);
    }
    put_u64(out, stats.events as u64);
    // The attack count is the matrix's; the slot keeps the wire layout.
    put_u64(out, stats.cm.true_positives + stats.cm.false_negatives);
}

fn read_online(r: &mut WireReader<'_>) -> WireResult<OnlineStats> {
    let mut stats = OnlineStats { cm: read_cm(r)?, ..Default::default() };
    for _ in 0..r.count(MAX_WINDOWS)? {
        let window = r.u64()?;
        let cm = read_cm(r)?;
        let packets = r.u64()? as usize;
        stats.windows.insert(window, (cm, packets));
    }
    for _ in 0..r.count(AttackKind::ALL.len())? {
        let index = r.u8()? as usize;
        let kind = AttackKind::ALL.get(index).ok_or(WireError::BadTag(index as u8))?;
        let counts = idsbench_core::metrics::FamilyCounts {
            alerts: r.u64()? as usize,
            packets: r.u64()? as usize,
            flows: r.u64()? as usize,
        };
        stats.families.insert(kind.name(), counts);
    }
    for _ in 0..r.count(LatencyHistogram::bucket_slots())? {
        let index = r.u32()? as usize;
        let count = r.u64()?;
        if !stats.latency.add_bucket(index, count) {
            return Err(WireError::Oversize(index as u64));
        }
    }
    stats.events = r.u64()? as usize;
    let attacks = stats.cm.true_positives.checked_add(stats.cm.false_negatives);
    if Some(r.u64()?) != attacks {
        return Err(WireError::Invalid("online attack count disagrees with the confusion matrix"));
    }
    Ok(stats)
}

fn put_event(out: &mut Vec<u8>, event: &ScoredEvent) {
    put_u64(out, event.seq);
    put_u32(out, event.sub);
    put_u64(out, event.window);
    put_f64(out, event.score);
    put_u64(out, event.latency_nanos);
    put_bool(out, event.label);
    put_kind(out, event.kind);
}

fn read_event(r: &mut WireReader<'_>) -> WireResult<ScoredEvent> {
    Ok(ScoredEvent {
        seq: r.u64()?,
        sub: r.u32()?,
        window: r.u64()?,
        score: r.f64()?,
        latency_nanos: r.u64()?,
        label: r.bool()?,
        kind: read_kind(r)?,
    })
}

fn put_outcome(out: &mut Vec<u8>, outcome: &ShardOutcome) {
    put_u32(out, outcome.shard as u32);
    put_u64(out, outcome.packets as u64);
    put_u64(out, outcome.flows as u64);
    put_f64(out, outcome.score_seconds);
    put_f64(out, outcome.fit_seconds);
    match &outcome.recorder {
        Recorder::Full(records) => {
            put_u8(out, 0);
            put_list(out, records, put_event);
        }
        Recorder::Online(stats, threshold) => {
            put_u8(out, 1);
            put_f64(out, *threshold);
            put_online(out, stats);
        }
    }
}

fn read_outcome(r: &mut WireReader<'_>) -> WireResult<ShardOutcome> {
    let shard = r.u32()? as usize;
    let packets = r.u64()? as usize;
    let flows = r.u64()? as usize;
    let score_seconds = r.f64()?;
    let fit_seconds = r.f64()?;
    let recorder = match r.u8()? {
        0 => Recorder::Full(r.list(MAX_EVENTS, read_event)?),
        1 => {
            let threshold = r.f64()?;
            Recorder::Online(Box::new(read_online(r)?), threshold)
        }
        tag => return Err(WireError::BadTag(tag)),
    };
    Ok(ShardOutcome { shard, recorder, score_seconds, fit_seconds, packets, flows })
}

fn put_packet_body(out: &mut Vec<u8>, ts_micros: u64, label: Label, data: &[u8]) {
    put_u64(out, ts_micros);
    put_label(out, label);
    put_bytes(out, data);
}

fn read_packet(r: &mut WireReader<'_>) -> WireResult<WirePacket> {
    Ok(WirePacket { ts_micros: r.u64()?, label: read_label(r)?, data: r.bytes()?.to_vec() })
}

/// Demands the reader is fully consumed — a decoded message must account
/// for every body byte.
fn finish<T>(r: &WireReader<'_>, value: T) -> WireResult<T> {
    if r.is_empty() {
        Ok(value)
    } else {
        Err(WireError::Oversize(r.remaining() as u64))
    }
}

impl CoordMsg {
    /// Encodes the message body (tag byte first) for framing.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the message body (tag byte first) to `out` — into a
    /// [`Frame`](crate::Frame), say.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            CoordMsg::Hello(config) => {
                put_u8(out, 0x01);
                put_u32(out, PROTOCOL_MAGIC);
                put_u16(out, PROTOCOL_VERSION);
                put_str(out, &config.detector);
                put_f64(out, config.window_secs);
                put_bool(out, config.fixed_threshold.is_some());
                put_f64(out, config.fixed_threshold.unwrap_or(0.0));
                put_duration(out, config.flow.idle_timeout);
                put_duration(out, config.flow.active_timeout);
                put_duration(out, config.flow.time_wait);
                put_u64(out, config.flow.max_flows as u64);
            }
            CoordMsg::Train(packets) => {
                put_u8(out, 0x02);
                put_list(out, packets, |out, packet| {
                    put_packet_body(out, packet.ts_micros, packet.label, &packet.data);
                });
            }
            CoordMsg::TrainDone => put_u8(out, 0x03),
            CoordMsg::Spawn { shard } => {
                put_u8(out, 0x04);
                put_u32(out, *shard);
            }
            CoordMsg::Batch { shard, items } => {
                put_batch(out, *shard, items.iter().map(BatchItem::from));
            }
            CoordMsg::Rebalance { shard, ring } => {
                put_u8(out, 0x06);
                put_u32(out, *shard);
                put_ring(out, ring);
            }
            CoordMsg::Migrate { shard, migrations } => {
                put_u8(out, 0x07);
                put_u32(out, *shard);
                put_list(out, migrations, put_migration);
            }
            CoordMsg::Retire { shard } => {
                put_u8(out, 0x08);
                put_u32(out, *shard);
            }
            CoordMsg::Finish => put_u8(out, 0x09),
            CoordMsg::Checkpoint { shard, epoch } => {
                put_u8(out, 0x0A);
                put_u32(out, *shard);
                put_u64(out, *epoch);
            }
            CoordMsg::Restore { shard, epoch, checkpoint } => {
                put_u8(out, 0x0B);
                put_u32(out, *shard);
                put_u64(out, *epoch);
                put_checkpoint(out, checkpoint);
            }
            CoordMsg::Ping { nonce } => {
                put_u8(out, 0x0C);
                put_u64(out, *nonce);
            }
        }
    }

    /// Decodes one framed body.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]: unknown tag, truncation, oversize count, bad
    /// magic/version (reported as [`WireError::BadTag`] on the mismatched
    /// byte), or trailing bytes.
    pub fn decode(body: &[u8]) -> WireResult<Self> {
        let mut r = WireReader::new(body);
        let message = match r.u8()? {
            0x01 => {
                if r.u32()? != PROTOCOL_MAGIC {
                    return Err(WireError::BadTag(0x01));
                }
                if r.u16()? != PROTOCOL_VERSION {
                    return Err(WireError::BadTag(0x01));
                }
                let detector = r.str()?.to_string();
                let window_secs = r.f64()?;
                let has_threshold = r.bool()?;
                let threshold = r.f64()?;
                let flow = FlowTableConfig {
                    idle_timeout: read_duration(&mut r)?,
                    active_timeout: read_duration(&mut r)?,
                    time_wait: read_duration(&mut r)?,
                    max_flows: r.u64()? as usize,
                };
                CoordMsg::Hello(HelloConfig {
                    detector,
                    window_secs,
                    fixed_threshold: has_threshold.then_some(threshold),
                    flow,
                })
            }
            0x02 => CoordMsg::Train(r.list(MAX_ITEMS, read_packet)?),
            0x03 => CoordMsg::TrainDone,
            0x04 => CoordMsg::Spawn { shard: r.u32()? },
            BATCH => {
                // The reader checks the trailing bytes itself.
                let batch = BatchReader::after_tag(r, body.len())?;
                let shard = batch.shard;
                let mut items = Vec::with_capacity(batch.left.min(LIST_RESERVE));
                for item in batch {
                    items.push(WireItem::from(item?));
                }
                return Ok(CoordMsg::Batch { shard, items });
            }
            0x06 => {
                let shard = r.u32()?;
                let ring = read_ring(&mut r)?;
                CoordMsg::Rebalance { shard, ring }
            }
            0x07 => {
                let shard = r.u32()?;
                let migrations = r.list(MAX_MIGRATIONS, read_migration)?;
                CoordMsg::Migrate { shard, migrations }
            }
            0x08 => CoordMsg::Retire { shard: r.u32()? },
            0x09 => CoordMsg::Finish,
            0x0A => {
                let shard = r.u32()?;
                let epoch = r.u64()?;
                CoordMsg::Checkpoint { shard, epoch }
            }
            0x0B => {
                let shard = r.u32()?;
                let epoch = r.u64()?;
                let checkpoint = read_checkpoint(&mut r)?;
                CoordMsg::Restore { shard, epoch, checkpoint }
            }
            0x0C => CoordMsg::Ping { nonce: r.u64()? },
            tag => return Err(WireError::BadTag(tag)),
        };
        finish(&r, message)
    }
}

impl WorkerMsg {
    /// Encodes the message body (tag byte first) for framing.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the message body (tag byte first) to `out` — into a
    /// [`Frame`](crate::Frame), say.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WorkerMsg::HelloOk { detector, flows } => {
                put_u8(out, 0x40);
                put_str(out, detector);
                put_bool(out, *flows);
            }
            WorkerMsg::Ready { shard, fit_seconds } => {
                put_u8(out, 0x41);
                put_u32(out, *shard);
                put_f64(out, *fit_seconds);
            }
            WorkerMsg::Migrations { shard, migrations } => {
                put_u8(out, 0x42);
                put_u32(out, *shard);
                put_list(out, migrations, put_migration);
            }
            WorkerMsg::Outcome(outcome) => {
                put_u8(out, 0x43);
                put_outcome(out, outcome);
            }
            WorkerMsg::Bye => put_u8(out, 0x44),
            WorkerMsg::Checkpoint { shard, epoch, checkpoint, fragment } => {
                put_u8(out, 0x45);
                put_u32(out, *shard);
                put_u64(out, *epoch);
                put_checkpoint(out, checkpoint);
                put_outcome(out, fragment);
            }
            WorkerMsg::Pong { nonce } => {
                put_u8(out, 0x46);
                put_u64(out, *nonce);
            }
        }
    }

    /// Decodes one framed body.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]: unknown tag, truncation, oversize count, or
    /// trailing bytes.
    pub fn decode(body: &[u8]) -> WireResult<Self> {
        let mut r = WireReader::new(body);
        let message = match r.u8()? {
            0x40 => {
                let detector = r.str()?.to_string();
                let flows = r.bool()?;
                WorkerMsg::HelloOk { detector, flows }
            }
            0x41 => {
                let shard = r.u32()?;
                let fit_seconds = r.f64()?;
                WorkerMsg::Ready { shard, fit_seconds }
            }
            0x42 => {
                let shard = r.u32()?;
                let migrations = r.list(MAX_MIGRATIONS, read_migration)?;
                WorkerMsg::Migrations { shard, migrations }
            }
            0x43 => WorkerMsg::Outcome(read_outcome(&mut r)?),
            0x44 => WorkerMsg::Bye,
            0x45 => {
                let shard = r.u32()?;
                let epoch = r.u64()?;
                let checkpoint = read_checkpoint(&mut r)?;
                let fragment = read_outcome(&mut r)?;
                WorkerMsg::Checkpoint { shard, epoch, checkpoint, fragment }
            }
            0x46 => WorkerMsg::Pong { nonce: r.u64()? },
            tag => return Err(WireError::BadTag(tag)),
        };
        finish(&r, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrips_and_rejects_bad_magic() {
        let config = HelloConfig {
            detector: "Slips".to_string(),
            window_secs: 1.5,
            fixed_threshold: Some(0.75),
            flow: FlowTableConfig::default(),
        };
        let body = CoordMsg::Hello(config.clone()).encode();
        assert_eq!(CoordMsg::decode(&body).unwrap(), CoordMsg::Hello(config));

        let mut corrupt = body.clone();
        corrupt[1] ^= 0xFF; // first magic byte
        assert!(CoordMsg::decode(&corrupt).is_err());
    }

    #[test]
    fn rebalance_rebuilds_identical_ownership() {
        let mut ring = HashRing::with_shards(16, 3);
        ring.add_shard(7);
        ring.remove_shard(1);
        let body = CoordMsg::Rebalance { shard: 2, ring: ring.clone() }.encode();
        let Ok(CoordMsg::Rebalance { shard: 2, ring: rebuilt }) = CoordMsg::decode(&body) else {
            panic!("a rebalance must decode as itself");
        };
        assert_eq!(rebuilt.shards(), ring.shards());
        // Ownership is a pure function of membership: probe a key spread.
        for port in 0..200u16 {
            let key = FlowKey {
                src_ip: std::net::IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 1)),
                dst_ip: std::net::IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 2)),
                src_port: port,
                dst_port: 80,
                protocol: idsbench_net::IpProtocol::Tcp,
            };
            assert_eq!(ring.owner_of(&key), rebuilt.owner_of(&key));
        }
    }

    /// A `Rebalance` body for shard 1 with a hand-written ring.
    fn rebalance_body(vnodes: u32, shards: &[u32]) -> Vec<u8> {
        let mut body = vec![0x06];
        put_u32(&mut body, 1);
        put_u32(&mut body, vnodes);
        put_u32(&mut body, shards.len() as u32);
        for &shard in shards {
            put_u32(&mut body, shard);
        }
        body
    }

    fn refused(vnodes: u32, shards: &[u32]) -> bool {
        matches!(
            CoordMsg::decode(&rebalance_body(vnodes, shards)),
            Err(WireError::Invalid(_) | WireError::Oversize(_))
        )
    }

    #[test]
    fn ring_with_zero_vnodes_is_refused() {
        assert!(refused(0, &[0, 1]));
        assert!(!refused(1, &[0, 1]));
    }

    #[test]
    fn ring_with_vnodes_above_the_cap_is_refused() {
        assert!(refused(MAX_VNODES as u32 + 1, &[0, 1]));
        assert!(refused(u32::MAX, &[0]));
        assert!(!refused(MAX_VNODES as u32, &[0, 1]));
    }

    #[test]
    fn ring_with_a_repeated_shard_is_refused() {
        assert!(refused(4, &[0, 2, 2]));
    }

    #[test]
    fn ring_with_descending_shards_is_refused() {
        assert!(refused(4, &[3, 1]));
        assert!(!refused(4, &[1, 3]));
    }

    #[test]
    fn ring_with_no_shards_is_refused() {
        assert!(refused(4, &[]));
    }

    #[test]
    fn batch_first_seq_reads_only_nonempty_batches() {
        let item = |seq| WireItem { seq, ts_micros: 0, label: Label::Benign, data: vec![0; 24] };
        let batch = |items| CoordMsg::Batch { shard: 3, items }.encode();
        assert_eq!(batch_first_seq(&batch(vec![item(77), item(78)])), Some(77));
        assert_eq!(batch_first_seq(&batch(Vec::new())), None);
        assert_eq!(batch_first_seq(&CoordMsg::Finish.encode()), None);
        assert_eq!(batch_first_seq(&CoordMsg::Spawn { shard: BATCH as u32 }.encode()), None);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut body = CoordMsg::Finish.encode();
        body.push(0);
        assert_eq!(CoordMsg::decode(&body).unwrap_err(), WireError::Oversize(1));
        let mut body = WorkerMsg::Bye.encode();
        body.push(9);
        assert!(WorkerMsg::decode(&body).is_err());
    }

    #[test]
    fn online_outcome_roundtrips_bitwise() {
        let mut stats = OnlineStats::default();
        for i in 0..50u64 {
            stats.record(
                i / 7,
                i as f64 * 0.13,
                3.0,
                i % 3 == 0,
                (i % 5 == 0).then_some(AttackKind::SynFlood),
                i % 4 == 0,
                i * 900,
            );
        }
        let outcome = ShardOutcome {
            shard: 3,
            recorder: Recorder::Online(Box::new(stats.clone()), 3.0),
            score_seconds: 0.25,
            fit_seconds: 1.5,
            packets: 50,
            flows: 9,
        };
        let body = WorkerMsg::Outcome(outcome).encode();
        match WorkerMsg::decode(&body).unwrap() {
            WorkerMsg::Outcome(decoded) => match decoded.recorder {
                Recorder::Online(decoded_stats, threshold) => {
                    assert_eq!(threshold, 3.0);
                    assert_eq!(*decoded_stats, stats);
                    assert_eq!(
                        decoded_stats.latency.percentile(0.99),
                        stats.latency.percentile(0.99)
                    );
                }
                other => panic!("wrong recorder: {other:?}"),
            },
            other => panic!("wrong message: {other:?}"),
        }
    }

    /// The online fold's last slot carries its attack count, which the
    /// decoder reads off the confusion matrix: a slot that disagrees is
    /// refused.
    #[test]
    fn online_attack_slot_must_match_the_matrix() {
        let mut stats = OnlineStats::default();
        for (score, label) in [(0.9, true), (0.1, true), (0.8, false)] {
            stats.record(0, score, 0.5, label, None, false, 100);
        }
        let mut body = Vec::new();
        put_online(&mut body, &stats);
        let slot = body.len() - 8;
        assert_eq!(body[slot..], 2u64.to_le_bytes());
        assert_eq!(read_online(&mut WireReader::new(&body)), Ok(stats));
        body[slot] = 3;
        assert!(matches!(read_online(&mut WireReader::new(&body)), Err(WireError::Invalid(_))));
    }
}
