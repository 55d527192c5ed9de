//! The feeder: the one loop that turns a packet source into routed, batched
//! shard traffic — for the in-process executor and the multi-node fabric
//! alike.
//!
//! Everything that is *policy* lives here and exists once: configuration
//! validation, the source loop and its single parse (each view then passes
//! through [`ShardPool::prepare`], in feed order), the `Autoscaler` and
//! its suppressed crossings, the [`HashRing`] and shard-id allocation,
//! victim choice, batching, the rebalance ordering, the [`ScaleEvent`]
//! constructor, routing, the feeder telemetry, and the call to
//! `merge_outcomes`. Everything that is *mechanism* — how a batch reaches
//! a shard, how a barrier is awaited, what survives a crash — sits behind
//! [`ShardPool`], implemented by the executor's thread-and-channel pool and
//! the fabric's socket pool. [`Feeder::run`] is generic over the pool, so
//! each driver gets its own monomorphised loop and the per-packet path pays
//! no dynamic dispatch.
//!
//! # The rebalance ordering
//!
//! Ownership moves are a drain-then-migrate barrier, enacted by
//! `Feeder::scale` in this order:
//!
//! 1. **flush** — every partial batch routed under the old ring is shipped;
//! 2. **reshape** — a scale-up spawns the next fresh id (ids are never
//!    reused) and adds it to the ring; a scale-down or planned drain
//!    removes the victim;
//! 3. **drain** — each shard that loses key ranges (every pre-existing
//!    shard on the way up, the victim on the way down) extracts the flows
//!    it no longer owns under the *new* ring;
//! 4. **migrate** — the extracted flows are grouped by their new owner and
//!    delivered;
//! 5. **retire** — a victim, now stateless, leaves the pool.
//!
//! A pool carries control messages on the same per-shard FIFO lane as the
//! data (a bounded channel, a socket), and that is the whole correctness
//! argument: the drain request provably trails every packet routed under
//! the old ring (the reply is the proof the backlog was scored), and the
//! migration provably precedes every packet routed under the new ring (the
//! feeder routes nothing until `scale` returns). Per-flow event order
//! therefore survives every scale action, and a flow-format detector's
//! per-flow score multiset is invariant to when — or whether, or over which
//! pool — scaling happens. The recording fake pool in this module's tests
//! pins the order.

use std::sync::Arc;
use std::time::Instant;

use idsbench_core::{CoreError, FlowMigration, ParsedView, ScaleEvent};
use idsbench_telemetry::{
    Counter, Gauge, JournalEvent, SpanTimer, Stage, StageHistogram, Telemetry,
};

use crate::autoscale::{Autoscaler, ScaleDirection};
use crate::executor::{StreamConfig, StreamRun};
use crate::metrics::window_index;
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::shard::{merge_outcomes, ShardOutcome, StreamItem};
use crate::source::PacketSource;

/// The mechanism half of a streaming run: a set of live shards the feeder
/// can ship batches and control messages to.
///
/// A pool is handed to [`Feeder::run`] with shards `0..config.shards`
/// spawned and fitted. Every shard must see what the feeder sends it in
/// send order (see the module docs — the rebalance protocol is correct
/// because of that FIFO and nothing else).
pub trait ShardPool: Sized {
    /// What a failing primitive returns; feeder-side failures (validation,
    /// the packet source) convert into it.
    type Error: From<CoreError>;

    /// Ships `batch` to `shard` and leaves an empty vector behind for the
    /// lane to refill. Packets whose bytes the pool no longer needs go back
    /// through [`PacketSource::recycle_packet`].
    fn ship(
        &mut self,
        shard: usize,
        batch: &mut Vec<StreamItem>,
        source: &mut impl PacketSource,
    ) -> Result<(), Self::Error>;

    /// Runs on every parsed view in feed order, before it is routed. The
    /// in-process pool's ordered extraction stage attaches the packet's
    /// feature row here ([`idsbench_core::FeatureStage`]), so every shard
    /// scores rows of the global packet sequence. The default does
    /// nothing: the fabric's pool ships bare views and its workers extract.
    fn prepare(&mut self, _view: &mut ParsedView) {}

    /// Brings up shard `id` (a fresh detector fitted on the shared train
    /// view) with an empty lane.
    fn spawn(&mut self, id: usize) -> Result<(), Self::Error>;

    /// The drain barrier: asks each shard in `from` for the flows it does
    /// not own under `ring` and waits for every answer — by which time each
    /// has scored its whole backlog.
    fn drain(&mut self, from: &[usize], ring: &HashRing)
        -> Result<Vec<FlowMigration>, Self::Error>;

    /// Delivers flows whose ownership moved to `shard`.
    fn migrate(&mut self, shard: usize, flows: Vec<FlowMigration>) -> Result<(), Self::Error>;

    /// Ends `shard`'s stream; its [`ShardOutcome`] joins the ones
    /// [`ShardPool::finish`] returns.
    fn retire(&mut self, shard: usize) -> Result<(), Self::Error>;

    /// Shards an operator-planned drain retires before packet `seq` is
    /// routed; empty on every packet but the one such a plan names.
    fn planned_drain(&mut self, _seq: u64) -> Vec<usize> {
        Vec::new()
    }

    /// Runs once the pool has settled into a new shape (one autoscale
    /// action, or every victim of a planned drain), outside the
    /// [`ScaleEvent::rebalance_micros`] clock.
    fn settled(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Ends the run. After a clean feed (`fed` is `Ok`, everything is
    /// shipped) ends every remaining shard and returns all outcomes of the
    /// run, retired shards included, plus stall counts indexed by shard id
    /// — how often a full lane blocked the feeder behind each shard (ids
    /// beyond the vector report zero). After a failed feed only tears down
    /// and returns `fed`'s error, unless the pool knows the root cause (a
    /// panicked worker shows up feeder-side only as a closed lane).
    fn finish(
        self,
        fed: Result<(), Self::Error>,
    ) -> Result<(Vec<ShardOutcome>, Vec<usize>), Self::Error>;
}

/// Feeder-side telemetry handles, resolved once before the stream starts so
/// the per-packet path touches only relaxed atomics and sampled clocks.
#[derive(Debug)]
struct FeederTelemetry<'run> {
    telemetry: &'run Telemetry,
    parse: SpanTimer,
    route: SpanTimer,
    rebalance: Arc<StageHistogram>,
    packets: Arc<Counter>,
    batches: Arc<Counter>,
    live_shards: Arc<Gauge>,
}

/// Runs `body` under a sampled stage span when one is attached.
#[inline]
pub(crate) fn with_span<T>(span: Option<&SpanTimer>, body: impl FnOnce() -> T) -> T {
    match span.and_then(|span| span.begin().map(|started| (span, started))) {
        Some((span, started)) => {
            let out = body();
            span.end(started);
            out
        }
        None => body(),
    }
}

/// A validated streaming run, ready to drive a [`ShardPool`].
///
/// Construction is the only place a [`StreamConfig`] is checked, and a
/// driver cannot reach [`Feeder::run`] without it — so no driver can accept
/// a configuration another rejects.
#[derive(Debug)]
pub struct Feeder<'run> {
    config: StreamConfig,
    telemetry: Option<FeederTelemetry<'run>>,
    ring: HashRing,
    /// The partial batch accumulating for each live shard, sorted by id.
    lanes: Vec<(usize, Vec<StreamItem>)>,
    next_id: usize,
    /// Packets routed so far — the next packet's sequence number.
    seq: u64,
    scale_events: Vec<ScaleEvent>,
}

impl<'run> Feeder<'run> {
    /// Validates `config` and resolves the feeder's telemetry handles.
    ///
    /// With `telemetry` attached the run counts `packets_total` and
    /// `batches_total`, tracks the pool size in the `live_shards` gauge,
    /// records sampled `parse`/`route` spans and one `rebalance` latency
    /// per scale action, and journals scale actions, flow migrations,
    /// dropped packets and the autoscaler's suppressed threshold crossings.
    /// Telemetry observes the run, it never steers it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Stream`] for a zero `shards`, `batch_size` or
    /// `channel_capacity`, a non-positive or NaN `window_secs`, a NaN fixed
    /// threshold, or an invalid autoscale policy.
    pub fn new(
        config: &StreamConfig,
        telemetry: Option<&'run Telemetry>,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let vnodes = config.autoscale.map_or(DEFAULT_VNODES, |policy| policy.vnodes);
        Ok(Feeder {
            config: *config,
            telemetry: telemetry.map(|telemetry| FeederTelemetry {
                telemetry,
                parse: telemetry.span(Stage::Parse, None),
                route: telemetry.span(Stage::Route, None),
                rebalance: telemetry.stage(Stage::Rebalance, None),
                packets: telemetry.counter("packets_total"),
                batches: telemetry.counter("batches_total"),
                live_shards: telemetry.gauge("live_shards"),
            }),
            ring: HashRing::with_shards(vnodes, config.shards),
            lanes: (0..config.shards).map(|id| (id, Vec::new())).collect(),
            next_id: config.shards,
            seq: 0,
            scale_events: Vec::new(),
        })
    }

    /// Drains `source` through `pool` and merges what the shards return
    /// into the run's [`StreamRun`]; the throughput clock covers this call.
    /// `assembly_seconds` is the shared train view's assembly time, which
    /// joins the slowest shard's fit in `train_seconds`.
    ///
    /// # Errors
    ///
    /// Whatever a pool primitive returns, or the packet source's failure
    /// converted into the pool's error type.
    pub fn run<P: ShardPool>(
        mut self,
        mut pool: P,
        mut source: impl PacketSource,
        detector: String,
        warmup_packets: usize,
        assembly_seconds: f64,
    ) -> Result<StreamRun, P::Error> {
        if let Some(feeder) = &self.telemetry {
            feeder.live_shards.set(self.ring.len() as u64);
        }
        let clock = Instant::now();
        let fed = self.feed(&mut pool, &mut source);
        let (mut outcomes, stalls) = pool.finish(fed)?;
        let wall_seconds = clock.elapsed().as_secs_f64();
        outcomes.sort_by_key(|outcome| outcome.shard);

        let dropped_packets = source.dropped_packets();
        if let Some(feeder) = self.telemetry.as_ref().filter(|_| dropped_packets > 0) {
            feeder.telemetry.counter("dropped_packets_total").add(dropped_packets);
            feeder.telemetry.journal().push(JournalEvent::PacketDrops { dropped: dropped_packets });
        }
        Ok(merge_outcomes(
            detector,
            source.name().to_string(),
            warmup_packets,
            self.seq,
            wall_seconds,
            assembly_seconds,
            outcomes,
            self.scale_events,
            self.ring.len(),
            stalls,
            dropped_packets,
            &self.config,
        ))
    }

    /// The source loop: parse once, enact due drains and scale decisions,
    /// route over the ring, batch per shard, ship full batches.
    fn feed<P: ShardPool, S: PacketSource>(
        &mut self,
        pool: &mut P,
        source: &mut S,
    ) -> Result<(), P::Error> {
        let window_secs = self.config.window_secs;
        let mut scaler = self.config.autoscale.map(|policy| Autoscaler::new(policy, window_secs));
        if let (Some(scaler), Some(_)) = (&mut scaler, &self.telemetry) {
            // The journal wants the near-misses too: windows that crossed a
            // threshold but produced no decision.
            scaler.log_crossings(true);
        }
        while let Some(packet) = source.next_packet()? {
            // The eval stream's single parse per packet on this side of
            // any process boundary.
            let mut view = with_span(self.telemetry.as_ref().map(|f| &f.parse), || {
                ParsedView::from_packet(packet)
            });
            pool.prepare(&mut view);
            if let Some(feeder) = &self.telemetry {
                feeder.packets.inc();
            }
            let ts_micros = view.packet.packet.ts.as_micros();

            // A planned drain fires like a scale decision — before this
            // packet is routed, so it already travels under the new ring —
            // but it is an operator action, not a rate trigger.
            let victims = pool.planned_drain(self.seq);
            if !victims.is_empty() {
                let window = window_index(ts_micros, window_secs);
                for victim in victims {
                    self.scale(pool, source, Some(victim), ts_micros, window, 0.0)?;
                }
                pool.settled()?;
            }
            if let Some(scaler) = &mut scaler {
                scaler.observe_packet(ts_micros);
                // Drain every due decision before routing.
                while let Some(decision) = scaler.poll(self.ring.len()) {
                    let victim = match decision.direction {
                        ScaleDirection::Up => None,
                        // The youngest shard: consistent hashing moves only
                        // its own key ranges, and ids stay a compact history.
                        ScaleDirection::Down => {
                            Some(*self.ring.shards().last().expect("scale-down on an empty pool"))
                        }
                    };
                    let (window, pps) = (decision.window, decision.trigger_pps);
                    self.scale(pool, source, victim, ts_micros, window, pps)?;
                    pool.settled()?;
                }
                if let Some(feeder) = self.telemetry.as_ref().filter(|_| scaler.has_crossings()) {
                    for crossing in scaler.take_crossings() {
                        feeder.telemetry.journal().push(JournalEvent::ThresholdCrossing {
                            window: crossing.window,
                            pps: crossing.pps,
                            up: crossing.up,
                        });
                    }
                }
            }

            let owner =
                with_span(self.telemetry.as_ref().map(|f| &f.route), || match &view.flow_key {
                    // Keyless (non-IP/malformed) packets carry no flow
                    // state; they ride on the lowest live shard.
                    None => self.ring.first_shard(),
                    Some(key) => self.ring.owner_of(key),
                });
            let at = self.lanes.binary_search_by_key(&owner, |lane| lane.0);
            let batch = &mut self.lanes[at.expect("ring owner has a lane")].1;
            batch.push(StreamItem { seq: self.seq, view });
            self.seq += 1;
            if batch.len() >= self.config.batch_size {
                pool.ship(owner, batch, source)?;
                if let Some(feeder) = &self.telemetry {
                    feeder.batches.inc();
                }
            }
        }
        self.flush(pool, source)
    }

    /// Ships every partial batch.
    fn flush<P: ShardPool>(
        &mut self,
        pool: &mut P,
        source: &mut impl PacketSource,
    ) -> Result<(), P::Error> {
        for (shard, batch) in self.lanes.iter_mut().filter(|lane| !lane.1.is_empty()) {
            pool.ship(*shard, batch, source)?;
            if let Some(feeder) = &self.telemetry {
                feeder.batches.inc();
            }
        }
        Ok(())
    }

    /// Enacts one change of pool shape — retire `victim`, or grow by one
    /// shard when there is none — behind the drain-then-migrate barrier
    /// (module docs) and records it as a [`ScaleEvent`] whose
    /// `rebalance_micros` runs from the pre-barrier flush through migration
    /// delivery and retirement.
    fn scale<P: ShardPool>(
        &mut self,
        pool: &mut P,
        source: &mut impl PacketSource,
        victim: Option<usize>,
        ts_micros: u64,
        window: u64,
        trigger_pps: f64,
    ) -> Result<(), P::Error> {
        let started = Instant::now();
        let from_shards = self.ring.len();
        self.flush(pool, source)?;
        let losing = match victim {
            None => {
                let existing = self.ring.shards().to_vec();
                pool.spawn(self.next_id)?;
                self.ring.add_shard(self.next_id);
                self.lanes.push((self.next_id, Vec::new()));
                self.next_id += 1;
                existing
            }
            Some(victim) => {
                if from_shards == 1 {
                    return Err(CoreError::stream("cannot retire the last live shard").into());
                }
                self.ring.remove_shard(victim);
                self.lanes.retain(|lane| lane.0 != victim);
                vec![victim]
            }
        };
        let moved = pool.drain(&losing, &self.ring)?;
        let migrated_flows = moved.len();
        let mut groups: Vec<(usize, Vec<FlowMigration>)> = Vec::new();
        for migration in moved {
            let owner = self.ring.owner_of(&migration.key);
            match groups.iter_mut().find(|(id, _)| *id == owner) {
                Some((_, flows)) => flows.push(migration),
                None => groups.push((owner, vec![migration])),
            }
        }
        for (to_shard, flows) in groups {
            if let Some(feeder) = &self.telemetry {
                let event = JournalEvent::Migration { to_shard, flows: flows.len() };
                feeder.telemetry.journal().push(event);
            }
            pool.migrate(to_shard, flows)?;
        }
        if let Some(victim) = victim {
            pool.retire(victim)?;
        }
        let elapsed = started.elapsed();
        let event = ScaleEvent {
            seq: self.seq,
            at_secs: ts_micros as f64 / 1e6,
            window,
            from_shards,
            to_shards: self.ring.len(),
            trigger_pps,
            migrated_flows,
            rebalance_micros: elapsed.as_micros() as u64,
        };
        if let Some(feeder) = &self.telemetry {
            feeder.rebalance.record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
            feeder.live_shards.set(self.ring.len() as u64);
            feeder.telemetry.journal().push(JournalEvent::Scale(event.clone()));
        }
        self.scale_events.push(event);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::AutoscalePolicy;
    use crate::executor::tests::bursty_workload;
    use crate::shard::Recorder;
    use crate::source::VecSource;
    use idsbench_core::Label;
    use idsbench_flow::FlowKey;
    use idsbench_net::Timestamp;
    use std::collections::{BTreeSet, HashMap};

    /// One primitive call, as the fake pool saw it.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Ship { shard: usize, seqs: Vec<u64> },
        Spawn(usize),
        Drain { from: Vec<usize>, live: Vec<usize> },
        Migrate { shard: usize, flows: usize },
        Retire(usize),
        Settled,
    }

    /// A pool that scores nothing and records everything. It keeps the
    /// owned-key inventory a real packet-format shard keeps, so drains
    /// return — and migrations deliver — the flows a real pool would move.
    #[derive(Debug)]
    struct FakePool {
        log: Vec<Call>,
        owned: HashMap<usize, BTreeSet<FlowKey>>,
        /// `(at_seq, victims)` of an operator-planned drain.
        plan: Option<(u64, Vec<usize>)>,
    }

    impl FakePool {
        fn new(shards: usize, plan: Option<(u64, Vec<usize>)>) -> Self {
            let owned = (0..shards).map(|id| (id, BTreeSet::new())).collect();
            FakePool { log: Vec::new(), owned, plan }
        }

        fn live(&self) -> Vec<usize> {
            let mut live: Vec<usize> = self.owned.keys().copied().collect();
            live.sort_unstable();
            live
        }
    }

    impl ShardPool for &mut FakePool {
        type Error = CoreError;

        fn ship(
            &mut self,
            shard: usize,
            batch: &mut Vec<StreamItem>,
            source: &mut impl PacketSource,
        ) -> Result<(), CoreError> {
            let keys = self.owned.get_mut(&shard).expect("shipped to a live shard");
            let seqs = batch.iter().map(|item| item.seq).collect();
            for item in batch.drain(..) {
                keys.extend(item.view.flow_key);
                source.recycle_packet(item.view.packet.packet);
            }
            self.log.push(Call::Ship { shard, seqs });
            Ok(())
        }

        fn spawn(&mut self, id: usize) -> Result<(), CoreError> {
            assert!(self.owned.insert(id, BTreeSet::new()).is_none(), "shard {id} spawned twice");
            self.log.push(Call::Spawn(id));
            Ok(())
        }

        fn drain(
            &mut self,
            from: &[usize],
            ring: &HashRing,
        ) -> Result<Vec<FlowMigration>, CoreError> {
            self.log.push(Call::Drain { from: from.to_vec(), live: ring.shards().to_vec() });
            let mut moved = Vec::new();
            for shard in from {
                let keys = self.owned.get_mut(shard).expect("drained a live shard");
                let departing: Vec<FlowKey> =
                    keys.iter().filter(|key| ring.owner_of(key) != *shard).copied().collect();
                for key in departing {
                    keys.remove(&key);
                    moved.push(FlowMigration {
                        key,
                        record: None,
                        label: Label::Benign,
                        label_seen: Timestamp::ZERO,
                        detector: None,
                    });
                }
            }
            Ok(moved)
        }

        fn migrate(&mut self, shard: usize, flows: Vec<FlowMigration>) -> Result<(), CoreError> {
            self.log.push(Call::Migrate { shard, flows: flows.len() });
            let keys = self.owned.get_mut(&shard).expect("migrated to a live shard");
            keys.extend(flows.iter().map(|flow| flow.key));
            Ok(())
        }

        fn retire(&mut self, shard: usize) -> Result<(), CoreError> {
            let keys = self.owned.remove(&shard).expect("retired a live shard");
            assert!(keys.is_empty(), "shard {shard} retired while still owning flows");
            self.log.push(Call::Retire(shard));
            Ok(())
        }

        fn planned_drain(&mut self, seq: u64) -> Vec<usize> {
            match &self.plan {
                Some((at_seq, _)) if seq >= *at_seq => self.plan.take().expect("checked").1,
                _ => Vec::new(),
            }
        }

        fn settled(&mut self) -> Result<(), CoreError> {
            self.log.push(Call::Settled);
            Ok(())
        }

        fn finish(
            self,
            fed: Result<(), CoreError>,
        ) -> Result<(Vec<ShardOutcome>, Vec<usize>), CoreError> {
            fed?;
            let outcome = |shard| ShardOutcome {
                shard,
                recorder: Recorder::Full(Vec::new()),
                score_seconds: 0.0,
                fit_seconds: 0.0,
                packets: 0,
                flows: 0,
            };
            Ok((self.live().into_iter().map(outcome).collect(), Vec::new()))
        }
    }

    #[test]
    fn rebalance_protocol_order_is_pinned() {
        let config = StreamConfig {
            shards: 3,
            batch_size: 16,
            window_secs: 1.0,
            autoscale: Some(AutoscalePolicy {
                min_shards: 1,
                max_shards: 4,
                scale_up_pps: 300.0,
                scale_down_pps: 100.0,
                cooldown_windows: 0,
                vnodes: 16,
            }),
            ..Default::default()
        };
        // Phases hold 20, 600, 20, 600, 20, 600 packets: seq 1245 lies in
        // the quiet fifth second, when shards 0, 1 and one scaled-up shard
        // are live.
        let drain_seq = 1245;
        let mut pool = FakePool::new(config.shards, Some((drain_seq, vec![0, 1])));
        let source = VecSource::new("bursty", bursty_workload(6));
        let run = Feeder::new(&config, None)
            .unwrap()
            .run(&mut pool, source, "fake".to_string(), 0, 0.0)
            .unwrap();
        let events = &run.report.scale_events;
        let log = &pool.log;

        // One drain barrier per scale event, in order.
        let drains: Vec<usize> =
            (0..log.len()).filter(|&at| matches!(log[at], Call::Drain { .. })).collect();
        assert_eq!(drains.len(), events.len());
        assert!(events.iter().any(|e| e.is_scale_up()) && events.iter().any(|e| e.is_scale_down()));
        assert!(events.iter().any(|e| e.migrated_flows > 0), "no flow ever moved");

        let mut live: Vec<usize> = (0..config.shards).collect();
        let mut spawned = Vec::new();
        for (event, &drain_at) in events.iter().zip(&drains) {
            // Every packet routed under the old ring — exactly the ones
            // before `event.seq` — is shipped before the drain request.
            let mut shipped: Vec<u64> = log[..drain_at]
                .iter()
                .filter_map(|call| match call {
                    Call::Ship { seqs, .. } => Some(seqs.clone()),
                    _ => None,
                })
                .flatten()
                .collect();
            shipped.sort_unstable();
            assert_eq!(shipped, (0..event.seq).collect::<Vec<u64>>(), "flush before rebalance");

            // Nothing is shipped from the drain request until the event's
            // migrations (and retirement) are through: a `Migrate` reaches
            // a shard before the first item routed to it under the new ring.
            let done = drain_at
                + 1
                + log[drain_at + 1..]
                    .iter()
                    .position(|call| !matches!(call, Call::Migrate { .. } | Call::Retire(_)))
                    .expect("a scale event ends");
            assert!(matches!(log[done], Call::Settled | Call::Drain { .. }), "{:?}", log[done]);
            let barrier = &log[drain_at + 1..done];
            let migrated: usize = barrier
                .iter()
                .map(|call| if let Call::Migrate { flows, .. } = call { *flows } else { 0 })
                .sum();
            assert_eq!(migrated, event.migrated_flows);

            let Call::Drain { from, live: ring } = &log[drain_at] else { unreachable!() };
            if event.is_scale_up() {
                // The spawn precedes the barrier, every pre-existing shard
                // is drained, and the new id is on the ring they drain to.
                let Call::Spawn(id) = log[drain_at - 1] else { panic!("scale-up without spawn") };
                assert_eq!(from, &live);
                spawned.push(id);
                live.push(id);
            } else {
                let [victim] = from[..] else { panic!("one victim per scale-down") };
                assert_eq!(barrier.last(), Some(&Call::Retire(victim)), "retire comes last");
                if event.trigger_pps == 0.0 {
                    assert_eq!(event.seq, drain_seq);
                    assert_eq!(event.window, window_index(4_000_000, config.window_secs));
                } else {
                    assert_eq!(Some(&victim), live.last(), "scale-down retires the youngest");
                }
                live.retain(|&shard| shard != victim);
            }
            assert_eq!(ring, &live, "the barrier runs against the new ring");
            assert_eq!(event.to_shards, live.len());
        }

        // A planned drain is one operator-triggered event per victim.
        let planned: Vec<_> = events.iter().filter(|e| e.trigger_pps == 0.0).collect();
        assert_eq!(planned.len(), 2);
        // Ids are never reused: fresh ids only ever count up.
        assert_eq!(spawned, (config.shards..config.shards + spawned.len()).collect::<Vec<_>>());
        assert!(spawned.len() >= 2, "the trace must scale up more than once: {spawned:?}");
        assert_eq!(run.report.final_shards, live.len());
        assert_eq!(run.report.eval_packets, 1860);
    }

    #[test]
    fn retiring_the_last_shard_is_an_error_not_a_panic() {
        let mut pool = FakePool::new(1, Some((5, vec![0])));
        let source = VecSource::new("bursty", bursty_workload(1));
        let err = Feeder::new(&StreamConfig::default(), None)
            .unwrap()
            .run(&mut pool, source, "fake".to_string(), 0, 0.0)
            .unwrap_err();
        assert!(err.to_string().contains("last live shard"), "{err}");
    }
}
