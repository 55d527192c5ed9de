//! The shard event loop as a reusable unit: one detector instance plus its
//! flow table, label fold, and recorder, driven by routed packets and the
//! drain-then-migrate rebalance protocol.
//!
//! [`ShardLoop`] is the *same* code path whether the shard lives on a
//! thread inside [`run_stream`](crate::executor::run_stream) or inside a
//! remote `idsbench-fabric` worker process fed over a socket — that shared
//! body is what makes single-process and multi-node runs score-identical
//! by construction rather than by parallel maintenance; its scoring loop is
//! core's [`Burst`], the batch runner's too. The executor owns the threads
//! and channels; this module owns what a shard adds to that loop.

use std::time::Instant;

use idsbench_core::metrics::Ranking;
use idsbench_core::{
    Burst, EventDetector, FlowEventAssembler, FlowMigration, Label, ParsedView, Result, ScaleEvent,
};
use idsbench_flow::FlowKey;
use idsbench_net::fasthash::FxHashSet;
use idsbench_telemetry::{Stage, StageHistogram, Telemetry};

use crate::executor::{StreamConfig, StreamRun, ThresholdMode};
use crate::metrics::window_index as window_of_micros;
use crate::metrics::{OnlineStats, ScoredEvent, Throughput};
use crate::report::{ShardStats, StreamReport};
use crate::ring::HashRing;

use std::sync::Arc;

/// One packet in flight from a feeder to a shard: the parsed view rides
/// along, so the shard never touches raw bytes.
#[derive(Debug)]
pub struct StreamItem {
    /// Global feed order of the packet (assigned by the feeder).
    pub seq: u64,
    /// The packet's single parse, shared by routing and scoring.
    pub view: ParsedView,
}

/// Per-shard recording state, chosen by threshold mode.
#[derive(Debug, Clone, PartialEq)]
pub enum Recorder {
    /// Calibrated mode: keep every scored event for post-hoc calibration.
    Full(Vec<ScoredEvent>),
    /// Zero-buffer mode: fold into online aggregates at a fixed threshold.
    Online(Box<OnlineStats>, f64),
}

impl Recorder {
    /// The recorder a shard needs under `mode`: full score recording for
    /// calibrated runs, online aggregation at the fixed threshold
    /// otherwise.
    pub fn for_mode(mode: ThresholdMode) -> Self {
        match mode {
            ThresholdMode::Fixed(threshold) => Recorder::Online(Box::default(), threshold),
            ThresholdMode::Calibrated(_) => Recorder::Full(Vec::new()),
        }
    }

    /// Number of events this recorder has absorbed.
    pub fn items(&self) -> usize {
        match self {
            Recorder::Full(records) => records.len(),
            Recorder::Online(stats, _) => stats.events,
        }
    }

    /// Records one scored event.
    pub fn push(
        &mut self,
        seq: u64,
        sub: u32,
        window: u64,
        score: f64,
        latency_nanos: u64,
        label: Label,
    ) {
        match self {
            Recorder::Full(records) => records.push(ScoredEvent {
                seq,
                sub,
                window,
                score,
                latency_nanos,
                label: label.is_attack(),
                kind: label.attack_kind(),
            }),
            Recorder::Online(stats, threshold) => stats.record(
                window,
                score,
                *threshold,
                label.is_attack(),
                label.attack_kind(),
                is_eviction(seq, sub),
                latency_nanos,
            ),
        }
    }
}

/// Whether the event at `(seq, sub)` is a flow eviction: evictions carry
/// `sub > 0` (triggered by a packet) or the flush sentinel `seq`; packet
/// events carry neither. Applied at scoring time by the online recorder and
/// at merge time to a calibrated run's records.
pub(crate) fn is_eviction(seq: u64, sub: u32) -> bool {
    sub > 0 || seq == u64::MAX
}

/// The migration payload of a packet-format shard, which keeps no flow
/// table: one record-less, label-less entry per owned key `select` picks,
/// in key order.
fn keyless_migrations(
    flows: &FxHashSet<FlowKey>,
    select: impl Fn(&FlowKey) -> bool,
) -> Vec<FlowMigration> {
    let mut keys: Vec<FlowKey> = flows.iter().filter(|key| select(key)).copied().collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|key| FlowMigration {
            key,
            record: None,
            label: Label::Benign,
            label_seen: idsbench_net::Timestamp::ZERO,
            detector: None,
        })
        .collect()
}

/// What a shard hands back when its stream drains — the associatively
/// mergeable fragment the feeder's merge folds into the final report. The
/// fabric worker ships exactly this (the recorder wholesale) back over the
/// wire, so remote shards merge the same way local ones do.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// Stable shard id.
    pub shard: usize,
    /// Everything the shard scored.
    pub recorder: Recorder,
    /// Shard busy seconds, summed per burst: each [`ShardLoop::on_batch`]
    /// (and the end-of-stream flush) is timed as a whole — detector calls
    /// plus, on flow-format shards, the flow assembly that triggered the
    /// evictions.
    pub score_seconds: f64,
    /// Seconds this shard's detector instance spent in `fit`.
    pub fit_seconds: f64,
    /// Packets routed to this shard.
    pub packets: usize,
    /// Distinct canonical flows the shard owned at the end.
    pub flows: usize,
}

/// The restorable state of a live shard, taken by
/// [`ShardLoop::on_checkpoint`] and rebuilt by [`ShardLoop::restore`]: every
/// live flow plus the traffic clock. Only per-flow state travels — open
/// records, label folds, [`EventDetector::snapshot_flow_state`] — so a
/// replica reproduces the donor's scores exactly only for detectors whose
/// state is all per-flow; entity-keyed state (per-host profiles,
/// per-channel statistics) restarts from `fit`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Every live flow (open record, label fold, detector per-flow state),
    /// cloned — the shard keeps scoring untouched.
    pub flows: Vec<FlowMigration>,
    /// Latest packet timestamp the shard observed (assembler clock).
    pub last_ts: idsbench_net::Timestamp,
    /// The flow table's idle-sweep phase, so a replica sweeps at exactly
    /// the packets the original would have.
    pub sweep: idsbench_net::Timestamp,
}

/// Per-shard stage histograms; present only when the run carries telemetry.
/// Score (packet events) and evict (flow evictions) record the same
/// per-event burst share the recorder does, so attaching them adds no clock
/// reads to the scoring path.
#[derive(Debug)]
pub struct ShardSpans {
    score: Arc<StageHistogram>,
    evict: Arc<StageHistogram>,
    migrate: Arc<StageHistogram>,
}

impl ShardSpans {
    /// Resolves the score/evict/migrate stage histograms for `shard` once,
    /// so the event loop never touches the registry.
    pub fn new(telemetry: &Telemetry, shard: usize) -> Self {
        ShardSpans {
            score: telemetry.stage(Stage::Score, Some(shard)),
            evict: telemetry.stage(Stage::Evict, Some(shard)),
            migrate: telemetry.stage(Stage::Migrate, Some(shard)),
        }
    }
}

/// The per-shard event loop: scores every routed batch as one core
/// [`Burst`] and records what it scored.
pub struct ShardLoop {
    /// Stable shard id — the identity the ring routes to.
    id: usize,
    detector: Box<dyn EventDetector>,
    recorder: Recorder,
    assembler: Option<FlowEventAssembler>,
    /// Distinct canonical flows routed here (the owned-flow inventory).
    flows: FxHashSet<FlowKey>,
    window_secs: f64,
    score_nanos: u128,
    packets: usize,
    /// Per-stage telemetry histograms; absent without telemetry.
    spans: Option<ShardSpans>,
    burst: Burst,
}

impl std::fmt::Debug for ShardLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardLoop")
            .field("id", &self.id)
            .field("detector", &self.detector.name())
            .field("packets", &self.packets)
            .field("flows", &self.flows.len())
            .finish_non_exhaustive()
    }
}

impl ShardLoop {
    /// Builds one shard's event loop around an already-fitted detector.
    ///
    /// `assembler` is `Some` for flow-format detectors (the shard then owns
    /// a flow table and emits eviction events); see
    /// [`FlowEventAssembler::for_format`]. `_live_latency` is ignored: it
    /// stays only so existing seven-argument callers still build.
    pub fn new(
        id: usize,
        detector: Box<dyn EventDetector>,
        recorder: Recorder,
        assembler: Option<FlowEventAssembler>,
        window_secs: f64,
        _live_latency: bool,
        spans: Option<ShardSpans>,
    ) -> Self {
        ShardLoop {
            id,
            detector,
            recorder,
            assembler,
            flows: FxHashSet::default(),
            window_secs,
            score_nanos: 0,
            packets: 0,
            spans,
            burst: Burst::default(),
        }
    }

    /// Scores one routed batch as a [`Burst`] — the shard's only scoring
    /// entry, for both input formats and both pools — and records it.
    ///
    /// # Errors
    ///
    /// The burst's score-count error; nothing of the batch is recorded.
    pub fn on_batch(&mut self, items: &[StreamItem]) -> Result<()> {
        self.packets += items.len();
        for key in items.iter().filter_map(|item| item.view.flow_key) {
            self.flows.insert(key);
        }
        let views = items.iter().map(|item| &item.view);
        let nanos = self.burst.score(self.detector.as_mut(), self.assembler.as_mut(), views)?;
        self.settle(nanos, items);
        Ok(())
    }

    /// Books the burst that scored `items`, each event at an equal share of
    /// its wall time (the span it held the shard); a flush gets `seq` MAX.
    fn settle(&mut self, nanos: u128, items: &[StreamItem]) {
        self.score_nanos += nanos;
        let events = self.burst.events();
        let per_event = (nanos / events.len().max(1) as u128).min(u128::from(u64::MAX)) as u64;
        for event in events {
            let seq = event.packet.map_or(u64::MAX, |at| items[at].seq);
            if let Some(spans) = &self.spans {
                let stage = if is_eviction(seq, event.sub) { &spans.evict } else { &spans.score };
                stage.record(per_event);
            }
            let window = window_of_micros(event.ts.as_micros(), self.window_secs);
            self.recorder.push(seq, event.sub, window, event.score, per_event, event.label);
        }
    }

    /// Ring membership changed: extract every flow this shard no longer
    /// owns — open records and label folds from the assembler (flow-format
    /// detectors), the owned-key inventory otherwise — plus whatever
    /// per-flow state the detector keeps, as the migration payload.
    pub fn on_rebalance(&mut self, ring: &HashRing) -> Vec<FlowMigration> {
        let mut migrations = match &mut self.assembler {
            Some(assembler) => assembler.extract_departing(|key| ring.owner_of(key) == self.id),
            None => keyless_migrations(&self.flows, |key| ring.owner_of(key) != self.id),
        };
        for migration in &mut migrations {
            migration.detector = self.detector.extract_flow_state(&migration.key);
            self.flows.remove(&migration.key);
        }
        migrations
    }

    /// Flows whose ownership moved here: adopt them before any packet
    /// routed under the new ring (message order — on the channel or on the
    /// fabric socket — guarantees the "before").
    pub fn on_migrate(&mut self, migrations: Vec<FlowMigration>) {
        let started = self.spans.as_ref().map(|_| Instant::now());
        for mut migration in migrations {
            self.flows.insert(migration.key);
            if let Some(state) = migration.detector.take() {
                self.detector.absorb_flow_state(&migration.key, state);
            }
            if let Some(assembler) = &mut self.assembler {
                assembler.absorb(migration);
            }
        }
        if let (Some(spans), Some(started)) = (&self.spans, started) {
            let nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            spans.migrate.record(nanos);
        }
    }

    /// Snapshots the shard without disturbing it — every flow's state
    /// cloned, the traffic clock captured — and drains what it recorded
    /// since the previous checkpoint into an outcome fragment, so successive
    /// fragments sum to exactly the crash-free totals. `fit_seconds` is
    /// repeated on every fragment (a combiner takes the max).
    pub fn on_checkpoint(&mut self, fit_seconds: f64) -> (ShardCheckpoint, ShardOutcome) {
        let mut flows = match &self.assembler {
            Some(assembler) => assembler.snapshot_all(),
            None => keyless_migrations(&self.flows, |_| true),
        };
        for migration in &mut flows {
            migration.detector = self.detector.snapshot_flow_state(&migration.key);
        }
        let (last_ts, sweep) =
            self.assembler.as_ref().map(FlowEventAssembler::clock).unwrap_or_default();
        (ShardCheckpoint { flows, last_ts, sweep }, self.drain(fit_seconds))
    }

    /// Rebuilds a donor's [`ShardCheckpoint`] on this freshly fitted loop,
    /// before any traffic: the flows are absorbed first (as
    /// [`ShardLoop::on_migrate`] does), then the clock is restored, so the
    /// replica sweeps its restored flows at exactly the donor's phase.
    pub fn restore(&mut self, checkpoint: ShardCheckpoint) {
        self.on_migrate(checkpoint.flows);
        if let Some(assembler) = &mut self.assembler {
            assembler.restore_clock(checkpoint.last_ts, checkpoint.sweep);
        }
    }

    /// End of stream: scores and records the flow table's flush.
    ///
    /// # Errors
    ///
    /// As [`ShardLoop::on_batch`].
    pub fn finish(&mut self) -> Result<()> {
        let Some(mut assembler) = self.assembler.take() else {
            return Ok(());
        };
        let nanos = self.burst.flush(self.detector.as_mut(), &mut assembler)?;
        self.settle(nanos, &[]);
        Ok(())
    }

    /// Consumes the loop into its mergeable outcome fragment. Call
    /// [`ShardLoop::finish`] first; `fit_seconds` is supplied by the
    /// spawner, which timed the detector's `fit`.
    pub fn into_outcome(mut self, fit_seconds: f64) -> ShardOutcome {
        self.drain(fit_seconds)
    }

    /// Moves everything recorded so far into an outcome fragment and resets
    /// the packet and busy-time counters it reports.
    fn drain(&mut self, fit_seconds: f64) -> ShardOutcome {
        let recorder = match &mut self.recorder {
            Recorder::Full(records) => Recorder::Full(std::mem::take(records)),
            Recorder::Online(stats, threshold) => {
                Recorder::Online(Box::new(std::mem::take(stats.as_mut())), *threshold)
            }
        };
        ShardOutcome {
            shard: self.id,
            recorder,
            score_seconds: std::mem::take(&mut self.score_nanos) as f64 / 1e9,
            fit_seconds,
            packets: std::mem::take(&mut self.packets),
            flows: self.flows.len(),
        }
    }
}

/// Merges shard outcomes, resolves the threshold, and assembles the final
/// [`StreamRun`] — the single merge point, called once, by the feeder,
/// whichever pool (threads or fabric sockets) the outcomes came from.
///
/// Both threshold modes settle into one [`OnlineStats`]: a fixed-threshold
/// run's shards folded their events as they scored them, and a calibrated
/// run's records are folded here, at the threshold resolved over the merged
/// scores. Every report figure but the threshold and the AUC comes from
/// that fold.
///
/// `fed` is the total packets the feeder routed, `shard_stalls` the
/// backpressure counts indexed by shard id (including retired shards), and
/// `assembly_seconds` the shared train-view assembly time that joins the
/// slowest shard's fit in `train_seconds`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_outcomes(
    detector: String,
    source: String,
    warmup_packets: usize,
    fed: u64,
    wall_seconds: f64,
    assembly_seconds: f64,
    outcomes: Vec<ShardOutcome>,
    scale_events: Vec<ScaleEvent>,
    final_shards: usize,
    shard_stalls: Vec<usize>,
    dropped_packets: u64,
    config: &StreamConfig,
) -> StreamRun {
    let mut shard_stats = Vec::with_capacity(outcomes.len());
    let mut score_seconds = 0.0;
    let mut fit_seconds: f64 = 0.0;
    let mut records: Vec<(usize, ScoredEvent)> = Vec::new();
    let mut stats = OnlineStats::default();
    for outcome in outcomes {
        shard_stats.push(ShardStats {
            shard: outcome.shard,
            packets: outcome.packets,
            items: outcome.recorder.items(),
            flows: outcome.flows,
            score_seconds: outcome.score_seconds,
            stalls: shard_stalls.get(outcome.shard).copied().unwrap_or(0),
        });
        score_seconds += outcome.score_seconds;
        fit_seconds = fit_seconds.max(outcome.fit_seconds);
        match outcome.recorder {
            Recorder::Full(shard_records) => {
                records.extend(shard_records.into_iter().map(|r| (outcome.shard, r)));
            }
            Recorder::Online(online, _) => stats.merge(&online),
        }
    }

    // Each shard's recorder follows `config.threshold` (`Recorder::for_mode`),
    // so a fixed run brought only online folds and a calibrated one only
    // records.
    let (threshold, auc, scores, labels) = match config.threshold {
        // Zero-buffer run: everything was folded online; no scores exist to
        // rank, so AUC is undefined.
        ThresholdMode::Fixed(threshold) => (threshold, f64::NAN, Vec::new(), Vec::new()),
        ThresholdMode::Calibrated(policy) => {
            // Restore the batch driver's event order — packet seq, then the
            // evictions it triggered; flush events (seq = MAX) ordered by
            // shard then flush index — and rank once, as the batch runner
            // does, for the threshold and the AUC.
            records.sort_by_key(|(shard, r)| (r.seq, *shard, r.sub));
            let scores: Vec<f64> = records.iter().map(|(_, r)| r.score).collect();
            let labels: Vec<bool> = records.iter().map(|(_, r)| r.label).collect();
            let ranking = Ranking::new(&scores, &labels);
            let threshold = policy.calibrate_ranked(&ranking);
            // `Ranking` alerts on `score >= threshold` with NaN never
            // alerting — `OnlineStats::record`'s rule — so this fold's
            // confusion matrix is `ranking.confusion_at(threshold)`.
            for &(_, event) in &records {
                let ScoredEvent { seq, sub, window, score, latency_nanos, label, kind } = event;
                let is_flow = is_eviction(seq, sub);
                stats.record(window, score, threshold, label, kind, is_flow, latency_nanos);
            }
            (threshold, ranking.auc(), scores, labels)
        }
    };

    let report = StreamReport {
        detector,
        source,
        shards: config.shards,
        batch_size: config.batch_size,
        warmup_packets,
        eval_packets: fed as usize,
        eval_items: stats.events,
        dropped_packets,
        attack_share: if stats.events == 0 {
            0.0
        } else {
            stats.attacks as f64 / stats.events as f64
        },
        threshold,
        metrics: stats.cm.metrics(),
        false_positive_rate: stats.cm.false_positive_rate(),
        auc,
        family_recall: stats.family_recall(),
        windows: stats.window_metrics(config.window_secs),
        throughput: Throughput::from_histogram(
            fed as usize,
            wall_seconds,
            &stats.latency,
            score_seconds,
            assembly_seconds + fit_seconds,
        ),
        shard_stats,
        scale_events,
        final_shards,
    };
    StreamRun { report, scores, labels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_core::{AttackKind, Event, InputFormat, LabeledPacket, TrainView};
    use idsbench_flow::FlowTableConfig;
    use idsbench_net::{Duration, MacAddr, PacketBuilder, TcpFlags, Timestamp};
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    /// Scores each evicted flow by its packet, byte and duration totals.
    struct EvictionScorer;

    impl EventDetector for EvictionScorer {
        fn name(&self) -> &str {
            "eviction-scorer"
        }
        fn input_format(&self) -> InputFormat {
            InputFormat::Flows
        }
        fn fit(&mut self, _train: &TrainView) {}
        fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
            let Event::FlowEvicted(flow) = event else {
                return None;
            };
            let record = &flow.record;
            let totals = record.total_packets() as f64 * 1e4 + record.total_bytes() as f64;
            Some(totals + record.duration().as_secs_f64())
        }
    }

    /// Scores each packet by its 1-based position within its flow: state
    /// that is all per-flow, and migrates as such.
    #[derive(Default)]
    struct FlowPosition(HashMap<FlowKey, u64>);

    impl EventDetector for FlowPosition {
        fn name(&self) -> &str {
            "flow-position"
        }
        fn input_format(&self) -> InputFormat {
            InputFormat::Packets
        }
        fn fit(&mut self, _train: &TrainView) {}
        fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
            let Event::Packet(view) = event else {
                return None;
            };
            let key = view.flow_key?;
            let count = self.0.entry(key).or_insert(0);
            *count += 1;
            Some(*count as f64)
        }
        fn extract_flow_state(&mut self, key: &FlowKey) -> Option<Vec<u8>> {
            self.0.remove(key).map(|count| count.to_le_bytes().to_vec())
        }
        fn absorb_flow_state(&mut self, key: &FlowKey, state: Vec<u8>) {
            let bytes = <[u8; 8]>::try_from(state.as_slice()).expect("a count is 8 bytes");
            self.0.insert(*key, u64::from_le_bytes(bytes));
        }
    }

    const CONFIG: FlowTableConfig = FlowTableConfig {
        idle_timeout: Duration::from_secs(2),
        active_timeout: Duration::from_secs(60),
        time_wait: Duration::from_secs(1),
        max_flows: 4096,
    };

    /// Four batches of three packets against server 10.0.0.2:80, from
    /// client host `h` on port `40_000 + h`; the checkpoint falls between
    /// the second and the third. At it, tuple 4 has been idle-evicted with
    /// an attack label fold (and reopens benign after it), tuple 1 lingers
    /// in TIME_WAIT (a trailing ACK joins it after), and tuple 3 is open.
    /// The donor swept at 2.5 s, so a replica without the donor's clock
    /// would sweep tuple 1 out at 3.0 s instead of taking its ACK.
    fn batches() -> Vec<Vec<StreamItem>> {
        let attack = Label::Attack(AttackKind::SynFlood);
        let trace = [
            (4, TcpFlags::ACK, 0.0, attack),
            (3, TcpFlags::ACK, 0.5, Label::Benign),
            (3, TcpFlags::ACK, 1.0, Label::Benign),
            (1, TcpFlags::SYN, 1.8, Label::Benign),
            (1, TcpFlags::RST, 1.9, Label::Benign),
            (3, TcpFlags::ACK, 2.5, Label::Benign),
            (1, TcpFlags::ACK, 3.0, Label::Benign),
            (4, TcpFlags::ACK, 3.1, Label::Benign),
            (3, TcpFlags::ACK, 3.2, Label::Benign),
            (5, TcpFlags::ACK, 3.6, Label::Benign),
            (5, TcpFlags::ACK, 5.8, Label::Benign),
            (3, TcpFlags::ACK, 5.9, Label::Benign),
        ];
        let items = trace.into_iter().enumerate().map(|(seq, (host, flags, t, label))| {
            let packet = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(host.into()), MacAddr::from_host_id(2))
                .ipv4(Ipv4Addr::new(10, 0, 0, host), Ipv4Addr::new(10, 0, 0, 2))
                .tcp(40_000 + u16::from(host), 80, flags)
                .payload_len(100 + seq)
                .build(Timestamp::from_secs_f64(t));
            StreamItem {
                seq: seq as u64,
                view: ParsedView::from_packet(LabeledPacket::new(packet, label)),
            }
        });
        let items: Vec<StreamItem> = items.collect();
        let mut items = items.into_iter();
        (0..4).map(|_| items.by_ref().take(3).collect()).collect()
    }

    fn shard(detector: Box<dyn EventDetector>) -> ShardLoop {
        let assembler = FlowEventAssembler::for_format(detector.input_format(), CONFIG);
        ShardLoop::new(0, detector, Recorder::Full(Vec::new()), assembler, 1.0, false, None)
    }

    /// `(seq, sub, score bits, label)` per recorded event.
    type Recorded = Vec<(u64, u32, u64, bool)>;

    /// Everything `shard` recorded since its last checkpoint, after the
    /// end-of-stream flush.
    fn recorded(mut shard: ShardLoop) -> Recorded {
        shard.finish().unwrap();
        let Recorder::Full(records) = shard.into_outcome(0.0).recorder else {
            panic!("a full recorder stays full");
        };
        records.iter().map(|r| (r.seq, r.sub, r.score.to_bits(), r.label)).collect()
    }

    /// Scores half the trace on a donor, checkpoints it, restores the
    /// checkpoint on a fresh replica, and feeds both the rest; returns the
    /// checkpoint and both post-checkpoint event lists.
    fn donor_and_replica(
        fresh: impl Fn() -> Box<dyn EventDetector>,
    ) -> (ShardCheckpoint, Recorded, Recorded) {
        let batches = batches();
        let (before, after) = batches.split_at(2);
        let mut donor = shard(fresh());
        for batch in before {
            donor.on_batch(batch).unwrap();
        }
        let (checkpoint, fragment) = donor.on_checkpoint(0.0);
        assert_eq!(fragment.packets, 6, "the fragment drains the first half");
        let mut replica = shard(fresh());
        replica.restore(checkpoint.clone());
        for batch in after {
            donor.on_batch(batch).unwrap();
            replica.on_batch(batch).unwrap();
        }
        (checkpoint, recorded(donor), recorded(replica))
    }

    #[test]
    fn a_restored_flow_shard_scores_what_the_donor_scores() {
        let (checkpoint, donor, replica) = donor_and_replica(|| Box::new(EvictionScorer));
        let dead: Vec<&FlowMigration> =
            checkpoint.flows.iter().filter(|flow| flow.record.is_none()).collect();
        assert_eq!(checkpoint.flows.len(), 3, "tuples 1 (TIME_WAIT), 3 (open) and 4 (fold only)");
        assert_eq!(dead.len(), 1);
        assert!(dead[0].label.is_attack(), "the evicted tuple's attack fold is checkpointed");
        assert_eq!(checkpoint.sweep, Timestamp::from_secs_f64(2.5));
        // Four evictions at the last packet's sweep, then a two-flow flush;
        // the reopened tuple 4 carries its attack fold into one of them.
        assert_eq!(donor.len(), 6);
        assert_eq!(donor.iter().filter(|event| event.3).count(), 1, "the fold was lost");
        assert_eq!(replica, donor);
    }

    #[test]
    fn a_restored_packet_shard_scores_what_the_donor_scores() {
        let (checkpoint, donor, replica) = donor_and_replica(|| Box::new(FlowPosition::default()));
        assert_eq!(checkpoint.flows.len(), 3);
        assert!(checkpoint.flows.iter().all(|flow| flow.detector.is_some()));
        assert_eq!(donor.len(), 6, "one score per post-checkpoint packet");
        assert_eq!(replica, donor);
    }
}
