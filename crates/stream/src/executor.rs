//! The sharded streaming executor: flow-hashed fan-out of an online packet
//! stream onto N scoring workers with bounded-channel backpressure — the
//! *streaming driver* of the Event contract.
//!
//! ```text
//!                    ┌─ shard 0: detector₀ + flow table ─┐
//!  source ─ feeder ──┼─ shard 1: detector₁ + flow table ─┼── merge ─ report
//!   (pull)  (parse   └─ shard N: detectorN + flow table ─┘
//!            once, hash by flow key, bounded channels, batches)
//! ```
//!
//! The feed loop itself — parse, autoscale, route, the rebalance ordering,
//! the merge — is [`crate::feeder`], shared with the multi-node fabric.
//! This module is the in-process [`ShardPool`]: one thread per shard behind
//! a bounded channel. Data-plane invariants the design pins down:
//!
//! * **Parse once.** The feeder decodes each packet into a `ParsedView` —
//!   the pipeline's single `ParsedPacket::parse` site — routes on the
//!   view's precomputed canonical flow key, and the pool ships the view to
//!   the shard. Detectors and per-shard flow tables all consume that same
//!   view; nothing downstream re-parses.
//! * **Per-flow locality.** Packets are routed by the canonical 5-tuple
//!   over a consistent-hash ring ([`HashRing`]), so both directions of a
//!   conversation always reach the flow's owning shard and each shard's
//!   detector (and flow table) sees every flow it owns in arrival order.
//!   Flow-eviction events therefore fire on the shard that owns the flow.
//! * **Elastic sharding.** With an [`AutoscalePolicy`] configured the pool
//!   grows and shrinks mid-stream. Control messages ride the same ordered
//!   channel as the data — the FIFO lane the feeder's drain-then-migrate
//!   barrier needs — and the barrier here is concurrent: the drain request
//!   is broadcast to every affected shard before the first reply is
//!   awaited, so its latency is the slowest shard's backlog, not the sum.
//! * **One scoring loop, two drivers.** Every shard scores through the
//!   core [`Burst`](idsbench_core::Burst) the batch runner replays through
//!   — packet events in order, flow evictions at flow-table eviction time,
//!   flush at end of stream, one score per event. A single-shard run
//!   reproduces batch `evaluate()` bitwise, for packet *and* flow
//!   detectors.
//! * **Backpressure, not buffering.** Feeder→shard channels are bounded; a
//!   slow shard stalls the feeder (and, through [`BoundedSource`], the
//!   producer) instead of ballooning memory.
//! * **Zero-buffer deployment mode.** With a fixed threshold
//!   ([`ThresholdMode::Fixed`]) decisions are final at scoring time, so
//!   shards fold them straight into online aggregates and no per-event
//!   score is ever recorded — memory grows with windows and distinct
//!   flows (shard accounting and flow labels), never with event count.
//! * **Warmup off the clock.** Every shard fits its own detector instance
//!   on the shared [`TrainView`] before the feeder starts the throughput
//!   clock, so reported packets/sec measures scoring, not training.
//!
//! [`BoundedSource`]: crate::source::BoundedSource

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Barrier};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

use idsbench_core::threshold::ThresholdPolicy;
use idsbench_core::{
    CoreError, EventDetector, FlowEventAssembler, FlowMigration, InputFormat, LabeledPacket,
    ParsedView, Result, TrainView, BURST_PACKETS,
};
use idsbench_flow::FlowTableConfig;
use idsbench_telemetry::{Counter, JournalEvent, Telemetry};

use crate::autoscale::AutoscalePolicy;
use crate::feeder::{Feeder, ShardPool};
use crate::report::StreamReport;
use crate::ring::HashRing;
use crate::shard::{Recorder, ShardLoop, ShardOutcome, ShardSpans, StreamItem};
use crate::source::PacketSource;

/// How the alert threshold is resolved at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdMode {
    /// Replay-evaluation mode: collect all scores, then apply the same
    /// standardized calibration rule the batch pipeline uses — streaming and
    /// batch results stay directly comparable.
    Calibrated(ThresholdPolicy),
    /// Deployment mode: a fixed threshold known up front; decisions are
    /// final the moment an event is scored, so the run aggregates online
    /// and records no per-event scores at all (zero-buffer mode — see
    /// module docs; AUC is unavailable and reported as NaN).
    Fixed(f64),
}

impl Default for ThresholdMode {
    fn default() -> Self {
        ThresholdMode::Calibrated(ThresholdPolicy::default())
    }
}

/// Configuration of one streaming run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Number of scoring shards (worker threads), each owning an independent
    /// detector instance and flow table.
    pub shards: usize,
    /// Packets per feeder→shard batch (channel-synchronisation amortisation).
    pub batch_size: usize,
    /// Channel capacity per shard, in batches (the backpressure bound).
    pub channel_capacity: usize,
    /// Tumbling metrics-window length on the traffic timeline, seconds.
    pub window_secs: f64,
    /// Threshold resolution mode.
    pub threshold: ThresholdMode,
    /// Flow-table parameters for the per-shard eviction path (flow-format
    /// detectors only). Must match the batch pipeline's
    /// `PipelineConfig::flow_config` for parity.
    pub flow: FlowTableConfig,
    /// Elastic-sharding policy. `None` (the default) keeps the pool fixed
    /// at [`StreamConfig::shards`]; `Some` lets the run grow/shrink the
    /// pool between `min_shards` and `max_shards`, starting from
    /// [`StreamConfig::shards`].
    pub autoscale: Option<AutoscalePolicy>,
}

impl Default for StreamConfig {
    /// One shard, [`BURST_PACKETS`]-packet batches, 64 batches of
    /// backpressure headroom, 10-second metric windows, batch-compatible
    /// calibration, default flow table.
    fn default() -> Self {
        StreamConfig {
            shards: 1,
            batch_size: BURST_PACKETS,
            channel_capacity: 64,
            window_secs: 10.0,
            threshold: ThresholdMode::default(),
            flow: FlowTableConfig::default(),
            autoscale: None,
        }
    }
}

impl StreamConfig {
    /// The one configuration check, reached only through [`Feeder::new`].
    pub(crate) fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(CoreError::stream("shards must be >= 1"));
        }
        if self.batch_size == 0 {
            return Err(CoreError::stream("batch_size must be >= 1"));
        }
        if self.channel_capacity == 0 {
            return Err(CoreError::stream("channel_capacity must be >= 1"));
        }
        // NaN must be rejected too, hence the negated comparison shape.
        if self.window_secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(CoreError::stream("window_secs must be positive"));
        }
        if let ThresholdMode::Fixed(threshold) = self.threshold {
            if threshold.is_nan() {
                // `score >= NaN` is always false: the run would complete but
                // silently never alert.
                return Err(CoreError::stream("fixed threshold must not be NaN"));
            }
        }
        if let Some(policy) = &self.autoscale {
            policy.validate(self.shards)?;
        }
        Ok(())
    }
}

/// The outcome of a streaming run: the report plus the raw per-event score
/// stream in event order (what parity tests and calibration sweeps need).
///
/// In zero-buffer mode ([`ThresholdMode::Fixed`]) `scores` and `labels` are
/// empty — nothing was recorded, by design.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRun {
    /// The merged, threshold-resolved report.
    pub report: StreamReport,
    /// Score per scored event, in batch-replay event order.
    pub scores: Vec<f64>,
    /// Ground truth aligned with `scores`.
    pub labels: Vec<bool>,
}

/// Everything that travels the feeder→shard channel. Control messages ride
/// the same ordered channel as the data — the FIFO lane the feeder's
/// rebalance ordering relies on.
enum ShardMsg {
    /// A batch of routed packets.
    Batch(Vec<StreamItem>),
    /// The ring changed: extract every flow you no longer own and reply
    /// with the migrations. Receipt doubles as the drain barrier — by the
    /// time a shard answers, it has processed its entire old-ring backlog.
    Rebalance { ring: Arc<HashRing>, reply: SyncSender<Vec<FlowMigration>> },
    /// Flows whose ownership moved here: absorb their records, label
    /// folds, and detector per-flow state before scoring anything newer.
    Migrate(Vec<FlowMigration>),
}

/// Everything a shard worker needs from the run environment; cloned per
/// spawn so mid-stream scale-ups reuse the exact setup of the initial pool.
#[derive(Clone)]
struct ShardContext<'scope> {
    factory: &'scope (dyn Fn() -> Box<dyn EventDetector> + Sync),
    train: &'scope TrainView,
    start_line: &'scope Barrier,
    recycle: SyncSender<Vec<StreamItem>>,
    config: StreamConfig,
    format: InputFormat,
    /// Runtime telemetry shared by every thread of the run; `None` (the
    /// [`run_stream`] default) keeps the hot path exactly as before.
    telemetry: Option<&'scope Telemetry>,
}

/// Feeder-side handle to one live shard.
struct ShardSlot {
    id: usize,
    tx: SyncSender<ShardMsg>,
}

fn died(shard: usize) -> CoreError {
    CoreError::stream(format!("shard {shard} died"))
}

/// The in-process [`ShardPool`]: shard threads inside one
/// [`std::thread::scope`], each behind a bounded channel.
struct LocalPool<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    ctx: ShardContext<'scope>,
    /// Live shards, sorted by id (the feeder only ever spawns a fresh
    /// highest id), so the per-batch lookup is a binary search.
    slots: Vec<ShardSlot>,
    workers: Vec<ScopedJoinHandle<'scope, Result<ShardOutcome>>>,
    /// Indexed by shard id (ids are dense), retired shards included: how
    /// often a full channel forced the feeder to block behind the shard —
    /// the backpressure design working as intended, but visible.
    stalls: Vec<usize>,
    /// Consumed batches flow back to the feeder through this lane: `ship`
    /// hands each view's payload buffer to the source's arena
    /// (`PacketSource::recycle_packet`) and reuses the vector, so the
    /// steady-state fan-out allocates neither a `Vec` per batch nor a
    /// payload per packet. Both ends use the non-blocking ops: recycling is
    /// an optimisation, never a stall (a full return lane just drops the
    /// buffer).
    recycle_rx: Receiver<Vec<StreamItem>>,
    stall_counter: Option<Arc<Counter>>,
}

impl<'scope, 'env> LocalPool<'scope, 'env> {
    /// Spawns the initial pool and returns once every shard has fitted —
    /// everyone meets at the start line, so the feeder's throughput clock
    /// starts only when scoring can actually proceed.
    fn open(
        scope: &'scope Scope<'scope, 'env>,
        ctx: ShardContext<'scope>,
        recycle_rx: Receiver<Vec<StreamItem>>,
    ) -> Self {
        let mut pool = LocalPool {
            scope,
            stall_counter: ctx.telemetry.map(|t| t.counter("feeder_stalls_total")),
            ctx,
            slots: Vec::new(),
            workers: Vec::new(),
            stalls: Vec::new(),
            recycle_rx,
        };
        for id in 0..pool.ctx.config.shards {
            pool.spawn_slot(id, true);
        }
        pool.ctx.start_line.wait();
        pool
    }

    /// Spawns one scoring worker behind a fresh channel. Initial-pool
    /// shards pass the start barrier after fitting so the throughput clock
    /// excludes training; shards added mid-stream (`use_barrier = false`)
    /// fit on the clock — elastic capacity is not free, and the run
    /// measures that honestly.
    fn spawn_slot(&mut self, id: usize, use_barrier: bool) {
        let (tx, rx) = sync_channel::<ShardMsg>(self.ctx.config.channel_capacity);
        self.slots.push(ShardSlot { id, tx });
        self.stalls.push(0);
        let ctx = self.ctx.clone();
        let worker = self.scope.spawn(move || -> Result<ShardOutcome> {
            // A fit panic must not strand the barrier (the feeder would
            // deadlock behind it): catch it, pass the start line, and
            // disconnect so the feeder sees the shard as dead.
            let fit_started = Instant::now();
            let fitted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut detector = (ctx.factory)();
                detector.fit(ctx.train);
                detector
            }));
            let fit_seconds = fit_started.elapsed().as_secs_f64();
            if use_barrier {
                ctx.start_line.wait();
            }
            let Ok(detector) = fitted else {
                drop(rx);
                return Err(CoreError::stream("shard worker panicked in fit"));
            };

            let mut state = ShardLoop::new(
                id,
                detector,
                Recorder::for_mode(ctx.config.threshold),
                FlowEventAssembler::for_format(ctx.format, ctx.config.flow),
                ctx.config.window_secs,
                false,
                ctx.telemetry.map(|telemetry| ShardSpans::new(telemetry, id)),
            );
            // A shard whose detector broke the score contract stops scoring
            // but keeps serving its channel until the feeder closes it: a
            // rebalance already queued behind the bad batch still gets its
            // reply, so the feeder cannot block on a dead shard.
            let mut scored = Ok(());
            for msg in rx.iter() {
                match msg {
                    ShardMsg::Batch(batch) => {
                        if scored.is_ok() {
                            scored = state.on_batch(&batch);
                        }
                        // The batch goes back *full*: the feeder recycles each
                        // view's payload buffer into its source's arena before
                        // reusing the vector.
                        let _ = ctx.recycle.try_send(batch);
                    }
                    ShardMsg::Rebalance { ring, reply } => {
                        let _ = reply.send(state.on_rebalance(&ring));
                    }
                    ShardMsg::Migrate(migrations) => state.on_migrate(migrations),
                }
            }
            scored?;
            state.finish()?;
            Ok(state.into_outcome(fit_seconds))
        });
        self.workers.push(worker);
    }

    fn index_of(&self, shard: usize) -> usize {
        self.slots.binary_search_by_key(&shard, |slot| slot.id).expect("ring owner is live")
    }
}

impl ShardPool for LocalPool<'_, '_> {
    type Error = CoreError;

    /// Swaps a recycled buffer (or an empty placeholder that first pushes
    /// grow) into the lane and sends the full one: a non-blocking attempt
    /// first, then — accounting the stall — the blocking send the
    /// backpressure design requires.
    fn ship(
        &mut self,
        shard: usize,
        batch: &mut Vec<StreamItem>,
        source: &mut impl PacketSource,
    ) -> Result<()> {
        let next_seq = batch.last().map_or(0, |item| item.seq + 1);
        let mut replacement = self.recycle_rx.try_recv().unwrap_or_default();
        // Consumed views give their payload buffers back to the source.
        for item in replacement.drain(..) {
            source.recycle_packet(item.view.packet.packet);
        }
        let batch = std::mem::replace(batch, replacement);
        let at = self.index_of(shard);
        let slot = &mut self.slots[at];
        match slot.tx.try_send(ShardMsg::Batch(batch)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Disconnected(_)) => Err(died(shard)),
            Err(TrySendError::Full(msg)) => {
                self.stalls[shard] += 1;
                if let (Some(telemetry), Some(counter)) = (self.ctx.telemetry, &self.stall_counter)
                {
                    counter.inc();
                    telemetry.journal().push(JournalEvent::FeederStall {
                        seq: next_seq,
                        shard,
                        depth: self.ctx.config.channel_capacity,
                    });
                }
                slot.tx.send(msg).map_err(|_| died(shard))
            }
        }
    }

    fn spawn(&mut self, id: usize) -> Result<()> {
        self.spawn_slot(id, false);
        Ok(())
    }

    /// Concurrent: the request is broadcast before the first reply is
    /// awaited, so every affected shard drains its backlog in parallel.
    fn drain(&mut self, from: &[usize], ring: &HashRing) -> Result<Vec<FlowMigration>> {
        let snapshot = Arc::new(ring.clone());
        let (reply_tx, reply_rx) = sync_channel(from.len().max(1));
        for &shard in from {
            let message = ShardMsg::Rebalance { ring: snapshot.clone(), reply: reply_tx.clone() };
            self.slots[self.index_of(shard)].tx.send(message).map_err(|_| died(shard))?;
        }
        drop(reply_tx);
        let mut moved = Vec::new();
        for _ in from {
            let mut flows =
                reply_rx.recv().map_err(|_| CoreError::stream("a shard died during rebalance"))?;
            moved.append(&mut flows);
        }
        Ok(moved)
    }

    fn migrate(&mut self, shard: usize, flows: Vec<FlowMigration>) -> Result<()> {
        self.slots[self.index_of(shard)].tx.send(ShardMsg::Migrate(flows)).map_err(|_| died(shard))
    }

    /// Dropping the sender ends the victim's message stream; it flushes
    /// its now-empty state and reports at join time.
    fn retire(&mut self, shard: usize) -> Result<()> {
        self.slots.remove(self.index_of(shard));
        Ok(())
    }

    /// Closes every channel and joins every worker, after a failed feed
    /// too: a failed worker is the root cause of whatever the feeder saw
    /// (it sees only a closed channel), so it is the error reported first.
    fn finish(mut self, fed: Result<()>) -> Result<(Vec<ShardOutcome>, Vec<usize>)> {
        self.slots.clear(); // drops every sender
        let mut outcomes = Vec::new();
        let mut failure = None;
        for worker in self.workers {
            match worker.join() {
                Ok(Ok(outcome)) => outcomes.push(outcome),
                Ok(Err(err)) => failure = Some(err),
                Err(_) => failure = Some(CoreError::stream("shard worker panicked")),
            }
        }
        match failure {
            Some(failure) => Err(failure),
            None => fed.map(|()| (outcomes, self.stalls)),
        }
    }
}

/// Runs one streaming evaluation: assembles the shared [`TrainView`] from
/// `warmup` (parsing each packet once), fits a detector per shard, then
/// drains `source` through the sharded scoring pipeline and merges the
/// result into a [`StreamReport`].
///
/// The factory is invoked once per shard; each instance must be independent
/// (the paper's out-of-the-box rule, per shard instead of per grid cell).
///
/// # Errors
///
/// Returns [`CoreError::Stream`] for invalid configuration, a failing packet
/// source, or a panicked shard worker, and
/// [`CoreError::ScoreCountMismatch`] when a shard's detector does not
/// return exactly one score per event of its input format.
pub fn run_stream(
    factory: &(dyn Fn() -> Box<dyn EventDetector> + Sync),
    warmup: &[LabeledPacket],
    source: impl PacketSource,
    config: &StreamConfig,
) -> Result<StreamRun> {
    run_stream_with_telemetry(factory, warmup, source, config, None)
}

/// [`run_stream`] with runtime telemetry attached.
///
/// When `telemetry` is `Some`, the run additionally emits the feeder
/// telemetry [`Feeder::new`] lists, plus what only this pool can observe:
/// `feeder_stalls_total` and a `FeederStall` journal event whenever a full
/// channel blocks the feeder, and full-coverage per-shard
/// `score`/`evict`/`migrate` stage latencies (the scoring stages reuse
/// latencies the recorder already measures, so no clock reads are added to
/// the per-event path).
///
/// `None` is byte-for-byte the plain [`run_stream`] behaviour: scores,
/// thresholds, and reports are unaffected either way — telemetry observes
/// the run, it never steers it.
///
/// # Errors
///
/// Same contract as [`run_stream`].
pub fn run_stream_with_telemetry(
    factory: &(dyn Fn() -> Box<dyn EventDetector> + Sync),
    warmup: &[LabeledPacket],
    source: impl PacketSource,
    config: &StreamConfig,
    telemetry: Option<&Telemetry>,
) -> Result<StreamRun> {
    let feeder = Feeder::new(config, telemetry)?;
    let max_pool = config.autoscale.map_or(config.shards, |policy| policy.max_shards);
    let (detector, format) = {
        let probe = factory();
        (probe.name().to_string(), probe.input_format())
    };

    // One shared train view for every shard: the warmup slice is parsed
    // once and its flows assembled once, here (not per shard).
    let assembly_started = Instant::now();
    let train = TrainView::assemble(
        warmup.iter().cloned().map(ParsedView::from_packet).collect(),
        config.flow,
    );
    let assembly_seconds = assembly_started.elapsed().as_secs_f64();

    let start_line = Barrier::new(config.shards + 1);
    // Sized for the autoscaler's ceiling, not the initial pool.
    let (recycle, recycle_rx) =
        sync_channel::<Vec<StreamItem>>(max_pool * config.channel_capacity + max_pool);
    let ctx = ShardContext {
        factory,
        train: &train,
        start_line: &start_line,
        recycle,
        config: *config,
        format,
        telemetry,
    };
    std::thread::scope(|scope| {
        let pool = LocalPool::open(scope, ctx, recycle_rx);
        feeder.run(pool, source, detector, warmup.len(), assembly_seconds)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::source::VecSource;
    use idsbench_core::metrics::ConfusionMatrix;
    use idsbench_core::runner::{evaluate, EvalConfig};
    use idsbench_core::{AttackKind, Dataset, DatasetInfo, Event, Label};
    use idsbench_flow::FlowKey;
    use idsbench_net::{MacAddr, PacketBuilder, TcpFlags, Timestamp};
    use idsbench_telemetry::Stage;
    use std::collections::HashSet;
    use std::net::Ipv4Addr;

    /// Scores by wire length after counting warmup packets.
    #[derive(Debug, Default)]
    struct LengthDetector {
        warmed: usize,
    }

    impl EventDetector for LengthDetector {
        fn name(&self) -> &str {
            "length"
        }

        fn input_format(&self) -> InputFormat {
            InputFormat::Packets
        }

        fn fit(&mut self, train: &TrainView) {
            self.warmed = train.packets.len();
        }

        fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
            match event {
                Event::Packet(view) => Some(view.packet.packet.wire_len() as f64),
                Event::FlowEvicted(_) => None,
            }
        }
    }

    /// Scores each evicted flow by its packet count — exercises the
    /// per-shard eviction path.
    #[derive(Debug, Default)]
    struct FlowCounter;

    impl EventDetector for FlowCounter {
        fn name(&self) -> &str {
            "flow-counter"
        }

        fn input_format(&self) -> InputFormat {
            InputFormat::Flows
        }

        fn fit(&mut self, _train: &TrainView) {}

        fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
            match event {
                Event::Packet(_) => None,
                Event::FlowEvicted(flow) => Some(flow.record.total_packets() as f64),
            }
        }
    }

    fn flow_packet(host: u8, port: u16, t_micros: u64, attack: bool) -> LabeledPacket {
        let payload = if attack { 900 } else { 40 };
        let p = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(host as u32), MacAddr::from_host_id(200))
            .ipv4(Ipv4Addr::new(10, 0, 0, host), Ipv4Addr::new(10, 0, 0, 200))
            .tcp(port, 80, TcpFlags::ACK)
            .payload_len(payload)
            .build(Timestamp::from_micros(t_micros));
        let label = if attack { Label::Attack(AttackKind::SynFlood) } else { Label::Benign };
        LabeledPacket::new(p, label)
    }

    fn workload(n: usize) -> Vec<LabeledPacket> {
        (0..n)
            .map(|i| {
                flow_packet((i % 7) as u8 + 1, 1000 + (i % 13) as u16, i as u64 * 1000, i % 10 == 0)
            })
            .collect()
    }

    fn factory() -> Box<dyn EventDetector> {
        Box::new(LengthDetector::default())
    }

    fn flow_factory() -> Box<dyn EventDetector> {
        Box::new(FlowCounter)
    }

    #[test]
    fn single_shard_scores_every_packet_in_order() {
        let packets = workload(200);
        let run = run_stream(
            &factory,
            &packets[..50],
            VecSource::new("toy", packets[50..].to_vec()),
            &StreamConfig::default(),
        )
        .unwrap();
        assert_eq!(run.scores.len(), 150);
        assert_eq!(run.report.eval_items, 150);
        assert_eq!(run.report.eval_packets, 150);
        assert_eq!(run.report.warmup_packets, 50);
        // Length oracle: attacks are the large packets.
        assert_eq!(run.report.metrics.recall, 1.0);
        assert_eq!(run.report.metrics.precision, 1.0);
        assert_eq!(run.report.detector, "length");
        assert_eq!(run.report.source, "toy");
    }

    #[test]
    fn sharded_run_matches_single_shard_scores() {
        let packets = workload(400);
        let single = run_stream(
            &factory,
            &packets[..100],
            VecSource::new("toy", packets[100..].to_vec()),
            &StreamConfig::default(),
        )
        .unwrap();
        let sharded = run_stream(
            &factory,
            &packets[..100],
            VecSource::new("toy", packets[100..].to_vec()),
            &StreamConfig { shards: 4, batch_size: 7, ..Default::default() },
        )
        .unwrap();
        // A stateless per-packet scorer must agree exactly across shardings;
        // seq-indexed merge restores arrival order.
        assert_eq!(single.scores, sharded.scores);
        assert_eq!(single.labels, sharded.labels);
        assert_eq!(single.report.metrics, sharded.report.metrics);
        assert_eq!(sharded.report.shard_stats.len(), 4);
        let spread: usize = sharded.report.shard_stats.iter().map(|s| s.packets).sum();
        assert_eq!(spread, 300);
        assert!(
            sharded.report.shard_stats.iter().filter(|s| s.packets > 0).count() > 1,
            "flow hashing must actually spread load"
        );
    }

    #[test]
    fn flow_detector_scores_evictions_on_owning_shards() {
        let packets = workload(300);
        let single = run_stream(
            &flow_factory,
            &packets[..60],
            VecSource::new("toy", packets[60..].to_vec()),
            &StreamConfig::default(),
        )
        .unwrap();
        assert!(single.report.eval_items > 0, "flow events must be scored");
        assert_eq!(single.report.eval_packets, 240);
        // Flow events ≠ packet events: the report keeps both.
        assert!(single.report.eval_items < single.report.eval_packets);

        let sharded = run_stream(
            &flow_factory,
            &packets[..60],
            VecSource::new("toy", packets[60..].to_vec()),
            &StreamConfig { shards: 4, batch_size: 5, ..Default::default() },
        )
        .unwrap();
        // Per-flow locality: the same flows are assembled whole on their
        // owning shards, so the multiset of flow scores is identical.
        let mut a = single.scores.clone();
        let mut b = sharded.scores.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b, "sharding must not split or merge flows");
    }

    #[test]
    fn flows_stay_on_one_shard() {
        // All packets share one flow: every one must land on a single shard.
        let packets: Vec<LabeledPacket> =
            (0..100).map(|i| flow_packet(1, 1000, i * 1000, false)).collect();
        let run = run_stream(
            &factory,
            &[],
            VecSource::new("one-flow", packets),
            &StreamConfig { shards: 4, ..Default::default() },
        )
        .unwrap();
        let active: Vec<_> = run.report.shard_stats.iter().filter(|s| s.packets > 0).collect();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].packets, 100);
        assert_eq!(active[0].flows, 1);
    }

    #[test]
    fn windows_split_the_traffic_timeline() {
        // 100 packets at 1ms spacing → 0.1s of traffic; 0.02s windows → 5.
        let packets = workload(100);
        let run = run_stream(
            &factory,
            &[],
            VecSource::new("toy", packets),
            &StreamConfig { window_secs: 0.02, ..Default::default() },
        )
        .unwrap();
        assert_eq!(run.report.windows.len(), 5);
        assert_eq!(run.report.windows.iter().map(|w| w.packets).sum::<usize>(), 100);
    }

    #[test]
    fn fixed_threshold_mode_is_zero_buffer() {
        let packets = workload(100);
        let run = run_stream(
            &factory,
            &[],
            VecSource::new("toy", packets.clone()),
            &StreamConfig { threshold: ThresholdMode::Fixed(500.0), ..Default::default() },
        )
        .unwrap();
        assert_eq!(run.report.threshold, 500.0);
        assert_eq!(run.report.metrics.recall, 1.0);
        // Zero-buffer: no per-event scores were recorded; AUC undefined.
        assert!(run.scores.is_empty());
        assert!(run.labels.is_empty());
        assert!(run.report.auc.is_nan());
        assert_eq!(run.report.eval_items, 100);

        // The online aggregation must agree with a calibrated replay run
        // resolved at the same threshold.
        let replayed =
            run_stream(&factory, &[], VecSource::new("toy", packets), &StreamConfig::default())
                .unwrap();
        let cm = ConfusionMatrix::from_scores(&replayed.scores, &replayed.labels, 500.0);
        assert_eq!(run.report.metrics, cm.metrics());
        assert_eq!(run.report.false_positive_rate, cm.false_positive_rate());
        assert_eq!(
            run.report.windows.iter().map(|w| w.packets).sum::<usize>(),
            replayed.report.eval_items
        );
    }

    #[test]
    fn zero_buffer_mode_covers_flow_detectors() {
        let packets = workload(300);
        let fixed = run_stream(
            &flow_factory,
            &packets[..60],
            VecSource::new("toy", packets[60..].to_vec()),
            &StreamConfig { shards: 2, threshold: ThresholdMode::Fixed(3.0), ..Default::default() },
        )
        .unwrap();
        assert!(fixed.scores.is_empty());
        assert!(fixed.report.eval_items > 0);
        let replayed = run_stream(
            &flow_factory,
            &packets[..60],
            VecSource::new("toy", packets[60..].to_vec()),
            &StreamConfig { shards: 2, ..Default::default() },
        )
        .unwrap();
        let cm = ConfusionMatrix::from_scores(&replayed.scores, &replayed.labels, 3.0);
        assert_eq!(fixed.report.metrics, cm.metrics());
    }

    /// Alternating quiet/burst phases on a fixed flow population, one
    /// traffic-second per phase: quiet phases run ~20 events/sec, bursts
    /// ~600 — enough contrast to drive any sane autoscale policy.
    pub(crate) fn bursty_workload(phases: u64) -> Vec<LabeledPacket> {
        let mut packets = Vec::new();
        for phase in 0..phases {
            let (count, attack) = if phase % 2 == 1 { (600u64, true) } else { (20u64, false) };
            let spacing = (1_000_000 / count).max(1);
            for i in 0..count {
                let host = (i % 7) as u8 + 1;
                let port = 1000 + (i % 23) as u16;
                let t = phase * 1_000_000 + i * spacing;
                packets.push(flow_packet(host, port, t, attack && i % 3 == 0));
            }
        }
        packets
    }

    /// A policy the bursty workload reliably trips in both directions.
    fn bursty_policy() -> crate::autoscale::AutoscalePolicy {
        crate::autoscale::AutoscalePolicy {
            min_shards: 1,
            max_shards: 3,
            scale_up_pps: 300.0,
            scale_down_pps: 100.0,
            cooldown_windows: 0,
            vnodes: 16,
        }
    }

    fn autoscaled_config() -> StreamConfig {
        StreamConfig {
            shards: 1,
            batch_size: 16,
            window_secs: 1.0,
            autoscale: Some(bursty_policy()),
            ..Default::default()
        }
    }

    #[test]
    fn autoscaled_flow_scores_match_single_shard_multiset() {
        let packets = bursty_workload(6);
        let single = run_stream(
            &flow_factory,
            &[],
            VecSource::new("bursty", packets.clone()),
            &StreamConfig { window_secs: 1.0, ..Default::default() },
        )
        .unwrap();
        let auto = run_stream(
            &flow_factory,
            &[],
            VecSource::new("bursty", packets.clone()),
            &autoscaled_config(),
        )
        .unwrap();

        // The pool must actually move, both ways.
        let ups = auto.report.scale_events.iter().filter(|e| e.is_scale_up()).count();
        let downs = auto.report.scale_events.iter().filter(|e| e.is_scale_down()).count();
        assert!(ups >= 1, "bursts must trigger a scale-up: {:?}", auto.report.scale_events);
        assert!(downs >= 1, "quiet phases must trigger a scale-down");
        assert!(
            auto.report.scale_events.iter().any(|e| e.migrated_flows > 0),
            "rebalancing must migrate live flow state"
        );
        assert_eq!(auto.report.shards, 1);
        assert!(auto.report.final_shards >= 1);

        // The acceptance invariant: per-flow scores are indifferent to when
        // (or whether) the pool scaled — the sorted multiset is bitwise
        // identical to the single-shard run.
        let mut a = single.scores.clone();
        let mut b = auto.scores.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b, "autoscaling changed the per-flow score multiset");

        // Migration accounting: each flow counts once, for its final owner,
        // so per-shard distinct-flow counts still sum to the global count.
        let global: HashSet<FlowKey> = packets
            .iter()
            .filter_map(|lp| idsbench_net::ParsedPacket::parse(&lp.packet).ok())
            .filter_map(|p| FlowKey::from_packet(&p))
            .map(|k| k.canonical().0)
            .collect();
        let sharded: usize = auto.report.shard_stats.iter().map(|s| s.flows).sum();
        assert_eq!(sharded, global.len(), "a migrated flow was double- or zero-counted");
    }

    #[test]
    fn autoscaled_runs_are_deterministic() {
        let packets = bursty_workload(6);
        let first = run_stream(
            &flow_factory,
            &[],
            VecSource::new("bursty", packets.clone()),
            &autoscaled_config(),
        )
        .unwrap();
        let second =
            run_stream(&flow_factory, &[], VecSource::new("bursty", packets), &autoscaled_config())
                .unwrap();
        assert_eq!(first.scores, second.scores);
        assert_eq!(first.report.metrics, second.report.metrics);
        // Same decisions at the same packets, shard for shard (wall-clock
        // fields excluded: the default policy uses only traffic-time rates).
        let shape = |run: &StreamRun| {
            run.report
                .scale_events
                .iter()
                .map(|e| (e.seq, e.window, e.from_shards, e.to_shards, e.migrated_flows))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&first), shape(&second));
        assert!(!first.report.scale_events.is_empty());
    }

    #[test]
    fn telemetry_observes_the_run_without_changing_it() {
        use idsbench_telemetry::TelemetryConfig;

        let packets = bursty_workload(6);
        let plain = run_stream(
            &flow_factory,
            &[],
            VecSource::new("bursty", packets.clone()),
            &autoscaled_config(),
        )
        .unwrap();
        let telemetry = Telemetry::new(TelemetryConfig { sample_every: 4 });
        let observed = run_stream_with_telemetry(
            &flow_factory,
            &[],
            VecSource::new("bursty", packets),
            &autoscaled_config(),
            Some(&telemetry),
        )
        .unwrap();
        // The acceptance invariant: identical scores and identical scale
        // history with telemetry attached.
        assert_eq!(plain.scores, observed.scores, "telemetry must not steer the run");
        assert_eq!(
            plain.report.scale_events.len(),
            observed.report.scale_events.len(),
            "telemetry must not change scaling decisions"
        );

        // And the observers actually observed.
        assert_eq!(telemetry.counter("packets_total").get(), observed.report.eval_packets as u64);
        assert_eq!(telemetry.gauge("live_shards").get(), observed.report.final_shards as u64);
        let journal = telemetry.journal().snapshot();
        assert_eq!(journal.dropped, 0);
        let scales = journal.events.iter().filter(|e| matches!(e, JournalEvent::Scale(_))).count();
        assert_eq!(scales, observed.report.scale_events.len());
        let evictions: u64 = telemetry
            .stages()
            .iter()
            .filter(|s| s.stage() == Stage::Evict)
            .map(|s| s.histogram().len())
            .sum();
        assert!(evictions > 0, "per-shard stage histograms must record");
    }

    #[test]
    fn feeder_stalls_journal_the_channel_capacity() {
        /// Scores nothing until the feeder has stalled behind it, so a
        /// 1-slot channel stalls at least once whatever the timing.
        #[derive(Debug)]
        struct WaitsForAStall(Arc<Counter>);

        impl EventDetector for WaitsForAStall {
            fn name(&self) -> &str {
                "waits-for-a-stall"
            }
            fn input_format(&self) -> InputFormat {
                InputFormat::Packets
            }
            fn fit(&mut self, _train: &TrainView) {}
            fn on_event(&mut self, _event: &Event<'_>) -> Option<f64> {
                while self.0.get() == 0 {
                    std::thread::yield_now();
                }
                Some(0.0)
            }
        }

        let telemetry = Telemetry::default();
        let stalls = telemetry.counter("feeder_stalls_total");
        run_stream_with_telemetry(
            &|| Box::new(WaitsForAStall(Arc::clone(&stalls))) as Box<dyn EventDetector>,
            &[],
            VecSource::new("toy", workload(400)),
            &StreamConfig { batch_size: 8, channel_capacity: 1, ..Default::default() },
            Some(&telemetry),
        )
        .unwrap();
        let journal = telemetry.journal().snapshot();
        let depths: Vec<usize> = journal
            .events
            .iter()
            .filter_map(|event| match event {
                JournalEvent::FeederStall { depth, .. } => Some(*depth),
                _ => None,
            })
            .collect();
        assert!(!depths.is_empty(), "the shard waited for a stall");
        assert!(depths.iter().all(|&depth| depth == 1), "depths = {depths:?}");
        assert_eq!(journal.dropped, 0);
        assert_eq!(depths.len() as u64, stalls.get());
    }

    #[test]
    fn detector_per_flow_state_migrates_with_ownership() {
        use std::collections::HashMap;

        /// Packet detector whose score is the packet's 1-based position
        /// within its flow — pure per-flow state, so a dropped migration
        /// resets a counter mid-flow and the scores give it away.
        #[derive(Debug, Default)]
        struct FlowSeq {
            counts: HashMap<FlowKey, u64>,
        }

        impl EventDetector for FlowSeq {
            fn name(&self) -> &str {
                "flow-seq"
            }
            fn input_format(&self) -> InputFormat {
                InputFormat::Packets
            }
            fn fit(&mut self, _train: &TrainView) {}
            fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
                match event {
                    Event::Packet(view) => match view.flow_key {
                        Some(key) => {
                            let count = self.counts.entry(key).or_insert(0);
                            *count += 1;
                            Some(*count as f64)
                        }
                        None => Some(0.0),
                    },
                    Event::FlowEvicted(_) => None,
                }
            }
            fn extract_flow_state(&mut self, key: &FlowKey) -> Option<Vec<u8>> {
                self.counts.remove(key).map(|count| count.to_le_bytes().to_vec())
            }
            fn absorb_flow_state(&mut self, key: &FlowKey, state: Vec<u8>) {
                if let Ok(bytes) = <[u8; 8]>::try_from(state.as_slice()) {
                    self.counts.insert(*key, u64::from_le_bytes(bytes));
                }
            }
        }

        let factory = || Box::new(FlowSeq::default()) as Box<dyn EventDetector>;
        let packets = bursty_workload(6);
        let single = run_stream(
            &factory,
            &[],
            VecSource::new("bursty", packets.clone()),
            &StreamConfig { window_secs: 1.0, ..Default::default() },
        )
        .unwrap();
        let auto =
            run_stream(&factory, &[], VecSource::new("bursty", packets), &autoscaled_config())
                .unwrap();
        assert!(auto.report.scale_events.iter().any(|e| e.is_scale_up()));
        // Per-flow order is preserved and the counters moved with their
        // flows, so even the seq-ordered score stream is identical.
        assert_eq!(single.scores, auto.scores, "a per-flow counter reset across a rebalance");
    }

    #[test]
    fn fit_panic_fails_the_run_instead_of_deadlocking() {
        /// Panics during training, as a buggy detector would.
        #[derive(Debug)]
        struct Exploding;

        impl EventDetector for Exploding {
            fn name(&self) -> &str {
                "exploding"
            }
            fn input_format(&self) -> InputFormat {
                InputFormat::Packets
            }
            fn fit(&mut self, _train: &TrainView) {
                panic!("train-time bug");
            }
            fn on_event(&mut self, _event: &Event<'_>) -> Option<f64> {
                Some(0.0)
            }
        }

        let err = run_stream(
            &|| Box::new(Exploding) as Box<dyn EventDetector>,
            &workload(10),
            VecSource::new("toy", workload(100)),
            &StreamConfig { shards: 2, ..Default::default() },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Stream { .. }), "{err}");
        assert!(err.to_string().contains("fit"), "{err}");
    }

    #[test]
    fn empty_source_yields_empty_report() {
        let run = run_stream(
            &factory,
            &[],
            VecSource::new("empty", Vec::new()),
            &StreamConfig::default(),
        )
        .unwrap();
        assert_eq!(run.report.eval_items, 0);
        assert_eq!(run.report.threshold, f64::INFINITY);
        assert!(run.report.windows.is_empty());
    }

    #[test]
    fn report_reconciles_with_batch_experiment_shape() {
        /// The same 200 packets as a dataset: the batch split's leading 30 %
        /// is the stream's 60-packet warmup.
        #[derive(Debug)]
        struct Toy(DatasetInfo, Vec<LabeledPacket>);
        impl Dataset for Toy {
            fn info(&self) -> &DatasetInfo {
                &self.0
            }
            fn generate(&self, _seed: u64) -> Vec<LabeledPacket> {
                self.1.clone()
            }
        }

        let packets = workload(200);
        let run = run_stream(
            &factory,
            &packets[..60],
            VecSource::new("toy", packets[60..].to_vec()),
            &StreamConfig::default(),
        )
        .unwrap();
        let toy = Toy(DatasetInfo::new("toy", "toy", "unit test", 2024), packets);
        let batch = evaluate(factory().as_mut(), &toy, &EvalConfig::default()).unwrap();
        assert_eq!(run.report.eval_items, 140);
        assert_eq!((run.report.detector.as_str(), run.report.source.as_str()), ("length", "toy"));
        assert_eq!(run.report.assessment, batch.assessment);
    }
}
