//! The fabric coordinator: the socket-backed [`ShardPool`], driving remote
//! shard pools over sockets instead of threads over channels.
//!
//! [`run_fabric`] accepts `workers` connections (plus any configured
//! standbys), handshakes each peer, streams the warmup slice to all of them
//! (every worker assembles the same shared train view, like the in-process
//! executor's single `TrainView::assemble`), spawns the initial shards
//! across peers, and then hands the pool to the one feed loop in
//! [`idsbench_stream::feeder`] — the very loop [`run_stream`] drives.
//!
//! What is the coordinator's own: each pool primitive is a frame (or a
//! request/reply exchange) on the hosting peer's socket, whose FIFO is the
//! ordered lane the feeder's drain-then-migrate barrier relies on; the
//! barrier is sequential, one round-trip per affected shard, each timed
//! into that peer's `rebalance` stage histogram. Cross-peer migrations ride
//! through the coordinator, which counts them into
//! `fabric_cross_peer_migrations_total`. Scale decisions are a function of
//! the trace alone (traffic-time window rates), as in the in-process pool,
//! so multi-node scale decisions are deterministic.
//!
//! # Crash recovery
//!
//! The coordinator keeps every shard re-creatable: each shard has a
//! committed **epoch checkpoint** (a
//! [`ShardCheckpoint`] — per-flow state + traffic clock — and the drained
//! score fragment, refreshed after every scale action or planned drain and
//! every `checkpoint_frames` batches) and a bounded `ReplayLog` of the
//! state-bearing frames sent since that checkpoint, appended *before* each
//! send. Any socket error, decode failure, or io-timeout expiry on a peer
//! classifies it dead: its socket is shut down, its shards are re-homed one
//! by one onto the least-loaded survivor (standbys first) via `Spawn`
//! (deterministic re-fit from the shared train view) + `Restore`
//! (checkpoint state and clock) + an in-order replay of the log, and the
//! interrupted operation is retried against the new host. Fragments dedup
//! by `(shard, epoch)`; and because a restored replica of a detector whose
//! state is all per-flow makes byte-identical scoring decisions on the
//! replayed frames, its merged scores stay exactly those of a crash-free
//! run — `idsbench check` in `idsbench-bench` pins that with seeded
//! kill/corrupt fault plans. Entity-keyed detector state is not
//! checkpointed and restarts from `fit` on the replica.
//!
//! A [`DrainPlan`] retires an entire worker mid-stream — every shard it
//! hosts is drained and its flow state (detector per-flow blobs included)
//! migrated to survivors — after which the peer receives no new shards.
//!
//! [`run_stream`]: idsbench_stream::run_stream

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use idsbench_core::{FlowMigration, LabeledPacket};
use idsbench_stream::feeder::{Feeder, ShardPool};
use idsbench_stream::{
    HashRing, PacketSource, ShardCheckpoint, ShardOutcome, StreamConfig, StreamItem, StreamRun,
};
use idsbench_telemetry::{JournalEvent, Stage, StageHistogram, Telemetry};

use crate::checkpoint::{EntryKind, FragmentSet, RecoveryConfig, ReplayLog};
use crate::checkpoint::{MAX_LOG_BYTES, PING_TIMEOUT};
use crate::transport::FabricListener;
use crate::wire::{CoordMsg, HelloConfig, WireItem, WirePacket, MAX_VNODES};
use crate::{FabricCounters, FabricError, ShardTransport, WorkerMsg};

/// Warmup packets per `Train` frame: large enough to amortize framing,
/// small enough to keep peak frame size well under [`crate::FRAME_MAX`].
const TRAIN_CHUNK: usize = 512;

/// Per-peer socket send/receive timeout. A peer that stalls longer than
/// this is classified dead and recovered.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Retire one worker mid-stream: when the feeder reaches `at_seq`, every
/// shard hosted on peer `peer` is drained (rebalance barrier, state
/// migrated to survivors) and the peer stops receiving shards. Models a
/// planned node decommission — the acceptance bar is zero lost flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainPlan {
    /// Peer index in accept order.
    pub peer: usize,
    /// Global packet sequence at (or after) which the drain runs.
    pub at_seq: u64,
}

/// Fabric-level run parameters, alongside the per-run [`StreamConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Worker connections to accept before the run starts.
    pub workers: usize,
    /// How long to wait for each worker to dial in.
    pub accept_timeout: std::time::Duration,
    /// Optional mid-stream worker decommission.
    pub drain: Option<DrainPlan>,
    /// Epoch checkpointing + crash recovery tuning.
    pub recovery: RecoveryConfig,
}

impl Default for FabricConfig {
    /// Two workers, 30 s accept window, no drain,
    /// [`RecoveryConfig::default`].
    fn default() -> Self {
        FabricConfig {
            workers: 2,
            accept_timeout: std::time::Duration::from_secs(30),
            drain: None,
            recovery: RecoveryConfig::default(),
        }
    }
}

/// One connected worker process.
struct Peer<'a> {
    transport: ShardTransport,
    counters: Option<&'a FabricCounters>,
    /// Shard ids currently hosted here.
    shards: Vec<usize>,
    /// A drained peer keeps its socket (for `Finish`/`Bye`) but receives
    /// no new shards.
    drained: bool,
    /// A dead peer's socket is shut down and never used again; its shards
    /// were re-homed when it was classified.
    dead: bool,
    /// Standbys host nothing until a recovery re-homes shards onto them.
    standby: bool,
    /// Rebalance barrier round-trip latencies to this peer.
    rtt: Option<Arc<StageHistogram>>,
}

/// Feeder-side handle to one remote shard: which peer hosts it and its
/// recovery state. Kept sorted by shard id.
struct CoordSlot {
    shard: usize,
    peer: usize,
    /// Committed checkpoint epochs so far (0 = never checkpointed).
    epoch: u64,
    /// The committed state a dead shard is rebuilt from.
    checkpoint: Option<ShardCheckpoint>,
    log: ReplayLog,
}

fn wire_packet(lp: &LabeledPacket) -> WirePacket {
    WirePacket {
        ts_micros: lp.packet.ts.as_micros(),
        label: lp.label,
        data: lp.packet.data.to_vec(),
    }
}

fn unexpected<T>(wanted: &str, got: WorkerMsg) -> Result<T, FabricError> {
    Err(FabricError::Protocol(format!("expected {wanted}, got {got:?}")))
}

impl Peer<'_> {
    fn send_raw(&mut self, body: &[u8]) -> Result<(), FabricError> {
        self.transport.send_frame(body, self.counters).map_err(FabricError::Io)
    }

    fn send(&mut self, msg: &CoordMsg) -> Result<(), FabricError> {
        self.send_raw(&msg.encode())
    }

    /// Receives one message; a clean close mid-conversation is an I/O death
    /// (a crashed process closes its socket), not a protocol nit.
    fn recv(&mut self) -> Result<WorkerMsg, FabricError> {
        let body = self.transport.recv_frame(self.counters).map_err(FabricError::Io)?;
        let body = body.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid conversation")
        })?;
        Ok(WorkerMsg::decode(&body)?)
    }

    fn spawn(&mut self, id: usize) -> Result<(), FabricError> {
        self.send(&CoordMsg::Spawn { shard: id as u32 })?;
        match self.recv()? {
            WorkerMsg::Ready { shard, .. } if shard as usize == id => Ok(()),
            other => unexpected(&format!("Ready for shard {id}"), other),
        }
    }

    /// `Retire` makes the worker flush the shard's flow table and answer
    /// with its final fragment.
    fn retire(&mut self, victim: usize) -> Result<ShardOutcome, FabricError> {
        self.send(&CoordMsg::Retire { shard: victim as u32 })?;
        match self.recv()? {
            WorkerMsg::Outcome(outcome) if outcome.shard == victim => Ok(outcome),
            other => unexpected(&format!("Outcome for retired shard {victim}"), other),
        }
    }

    fn checkpoint(
        &mut self,
        shard: usize,
        epoch: u64,
    ) -> Result<(ShardCheckpoint, ShardOutcome), FabricError> {
        self.send(&CoordMsg::Checkpoint { shard: shard as u32, epoch })?;
        match self.recv()? {
            WorkerMsg::Checkpoint { shard: echoed, epoch: committed, checkpoint, fragment }
                if echoed as usize == shard && committed == epoch =>
            {
                Ok((checkpoint, fragment))
            }
            other => unexpected(&format!("Checkpoint for shard {shard} epoch {epoch}"), other),
        }
    }

    fn ping(&mut self, nonce: u64) -> Result<(), FabricError> {
        self.transport.set_io_timeout(Some(PING_TIMEOUT)).map_err(FabricError::Io)?;
        let result = self.send(&CoordMsg::Ping { nonce }).and_then(|()| match self.recv()? {
            WorkerMsg::Pong { nonce: echoed } if echoed == nonce => Ok(()),
            other => unexpected(&format!("Pong({nonce})"), other),
        });
        let _ = self.transport.set_io_timeout(Some(IO_TIMEOUT));
        result
    }

    /// Rebuilds one shard here: fresh `Spawn` (re-fit from the shared
    /// train view), `Restore` of the committed checkpoint (when one
    /// exists), then an in-order replay of every logged frame. Replies to
    /// *replied* rebalances are consumed and discarded (the replica
    /// re-extracts the same flows the original already handed over); the
    /// reply to an un-replied trailing rebalance is left for the
    /// interrupted barrier to pick up.
    fn place(&mut self, slot: &CoordSlot) -> Result<(), FabricError> {
        self.spawn(slot.shard)?;
        if let Some(checkpoint) = &slot.checkpoint {
            let (shard, epoch, checkpoint) = (slot.shard as u32, slot.epoch, checkpoint.clone());
            self.send(&CoordMsg::Restore { shard, epoch, checkpoint })?;
        }
        for entry in slot.log.entries() {
            self.send_raw(&entry.body)?;
            if let EntryKind::Rebalance { replied: true } = entry.kind {
                let reply = self.recv()?;
                if !matches!(reply, WorkerMsg::Migrations { .. }) {
                    let wanted = format!("replayed Migrations for shard {}", slot.shard);
                    return unexpected(&wanted, reply);
                }
            }
        }
        Ok(())
    }
}

/// The coordinator's live state: peers, shard slots, and the fragment
/// accumulator, with every peer interaction routed through the recovery
/// machinery.
struct Pool<'a> {
    peers: Vec<Peer<'a>>,
    slots: Vec<CoordSlot>,
    fragments: FragmentSet,
    /// Shard ids handed out so far: every one must end the run with at
    /// least one outcome fragment.
    spawned: usize,
    /// The run's parameters; `drain` is cleared once the plan has fired.
    fabric: FabricConfig,
    counters: Option<&'a FabricCounters>,
    telemetry: Option<&'a Telemetry>,
    recover_span: Option<Arc<StageHistogram>>,
    ping_nonce: u64,
}

impl<'a> Pool<'a> {
    fn slot_index(&self, shard: usize) -> Result<usize, FabricError> {
        self.slots
            .binary_search_by_key(&shard, |slot| slot.shard)
            .map_err(|_| FabricError::StaleRing { shard })
    }

    /// The least-loaded live peer (ties to the lowest accept index). A
    /// scale-up places on regulars before standbys; a recovery re-homes
    /// onto standbys *first* — that is what they are held back for.
    fn host_for(&self, standbys_first: bool) -> Result<usize, FabricError> {
        self.peers
            .iter()
            .enumerate()
            .filter(|(_, peer)| !peer.dead && !peer.drained)
            .min_by_key(|(index, peer)| (peer.standby != standbys_first, peer.shards.len(), *index))
            .map(|(index, _)| index)
            .ok_or_else(|| FabricError::Protocol("no live peers to host a shard".to_string()))
    }

    /// Routes a failed peer interaction: a socket or decode failure
    /// classifies the peer dead, recovers it and returns `Ok` so the caller
    /// retries; a semantic protocol bug on a healthy socket propagates and
    /// fails the run.
    fn handle_death(&mut self, peer: usize, err: FabricError) -> Result<(), FabricError> {
        match err {
            FabricError::Io(_) | FabricError::Wire(_) => self.recover_peer(peer),
            other => Err(other),
        }
    }

    /// Runs `exchange` against every live peer, recovering the ones that
    /// die in it.
    fn each_live_peer(
        &mut self,
        mut exchange: impl FnMut(&mut Peer<'a>) -> Result<(), FabricError>,
    ) -> Result<(), FabricError> {
        for index in 0..self.peers.len() {
            if !self.peers[index].dead {
                if let Err(err) = exchange(&mut self.peers[index]) {
                    self.handle_death(index, err)?;
                }
            }
        }
        Ok(())
    }

    /// Runs `exchange` against the peer hosting the shard at `at`; when
    /// that peer dies in it, the shard is re-homed and the exchange
    /// retried against its new host (a replica answers exactly as the
    /// original would have).
    fn with_host<T>(
        &mut self,
        at: usize,
        exchange: impl Fn(&mut Peer<'a>) -> Result<T, FabricError>,
    ) -> Result<T, FabricError> {
        loop {
            let peer = self.slots[at].peer;
            match exchange(&mut self.peers[peer]) {
                Ok(value) => return Ok(value),
                Err(err) => self.handle_death(peer, err)?,
            }
        }
    }

    /// Classifies `dead` as failed and re-homes every shard it hosted from
    /// its checkpoint + replay log. Recursion through a secondary death
    /// during placement is bounded: each call permanently retires one peer.
    fn recover_peer(&mut self, dead: usize) -> Result<(), FabricError> {
        if self.peers[dead].dead {
            return Ok(());
        }
        let started = Instant::now();
        self.peers[dead].dead = true;
        self.peers[dead].transport.shutdown();
        if let Some(counters) = self.counters {
            counters.peer_failures.inc();
        }
        let orphans = std::mem::take(&mut self.peers[dead].shards);
        if let Some(telemetry) = self.telemetry {
            telemetry.journal().push(JournalEvent::PeerDeath { peer: dead, shards: orphans.len() });
        }
        let mut flows = 0usize;
        let mut replayed = 0u64;
        for shard in &orphans {
            let at = self.slot_index(*shard)?;
            flows += self.slots[at].checkpoint.as_ref().map_or(0, |cp| cp.flows.len());
            replayed += self.slots[at].log.batches() as u64;
            self.place_shard(at)?;
        }
        let latency = started.elapsed();
        let latency_micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        if let Some(counters) = self.counters {
            counters.flows_rehomed.add(flows as u64);
            counters.replayed_batches.add(replayed);
            counters.recovery_micros.add(latency_micros);
        }
        if let Some(span) = &self.recover_span {
            span.record(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        if let Some(telemetry) = self.telemetry {
            telemetry.journal().push(JournalEvent::RecoveryComplete {
                peer: dead,
                shards: orphans.len(),
                flows,
                replayed_batches: replayed,
                latency_micros,
            });
        }
        Ok(())
    }

    /// Re-homes the shard at slot `at` onto a surviving peer, recovering
    /// through secondary deaths until a placement sticks.
    fn place_shard(&mut self, at: usize) -> Result<(), FabricError> {
        loop {
            let target = self.host_for(true)?;
            match self.peers[target].place(&self.slots[at]) {
                Ok(()) => {
                    let shard = self.slots[at].shard;
                    self.slots[at].peer = target;
                    self.peers[target].shards.push(shard);
                    return Ok(());
                }
                Err(err) => self.handle_death(target, err)?,
            }
        }
    }

    /// Commits a new checkpoint epoch for one shard (a re-homed replica
    /// regenerates the exact same fragment from the previous checkpoint +
    /// replay).
    fn checkpoint_shard(&mut self, at: usize) -> Result<(), FabricError> {
        let (shard, epoch) = (self.slots[at].shard, self.slots[at].epoch + 1);
        let (checkpoint, fragment) = self.with_host(at, |peer| peer.checkpoint(shard, epoch))?;
        self.slots[at].checkpoint = Some(checkpoint);
        self.slots[at].epoch = epoch;
        self.slots[at].log.clear();
        self.fragments.absorb(epoch, fragment).map_err(FabricError::Protocol)
    }

    /// Liveness probe for live peers hosting no shards — a dead standby
    /// must be discovered *before* a recovery tries to lean on it.
    fn ping_idle_peers(&mut self) -> Result<(), FabricError> {
        for index in 0..self.peers.len() {
            let peer = &mut self.peers[index];
            if peer.dead || peer.drained || !peer.shards.is_empty() {
                continue;
            }
            self.ping_nonce += 1;
            let probe = peer.ping(self.ping_nonce);
            if let Err(err) = probe {
                // Zero shards hosted: classification only, nothing to
                // re-home.
                self.handle_death(index, err)?;
            }
        }
        Ok(())
    }

    /// Runs the drain barrier for the shard at `at` against the new ring:
    /// `Rebalance` (logged), await `Migrations`, record the round-trip, and
    /// return the extracted flows.
    fn rebalance_shard(
        &mut self,
        at: usize,
        ring: &HashRing,
    ) -> Result<Vec<FlowMigration>, FabricError> {
        let shard = self.slots[at].shard;
        let body = CoordMsg::Rebalance { shard: shard as u32, ring: ring.clone() }.encode();
        self.slots[at].log.push(EntryKind::Rebalance { replied: false }, body.clone());
        let started = Instant::now();
        let peer = self.slots[at].peer;
        if let Err(err) = self.peers[peer].send_raw(&body) {
            // Recovery replays the logged rebalance onto the new host;
            // only the reply remains outstanding.
            self.handle_death(peer, err)?;
        }
        let migrations = self.with_host(at, |peer| match peer.recv()? {
            WorkerMsg::Migrations { shard: echoed, migrations } if echoed as usize == shard => {
                Ok(migrations)
            }
            other => unexpected(&format!("Migrations for shard {shard}"), other),
        })?;
        self.slots[at].log.mark_replied();
        let peer = self.slots[at].peer;
        if let Some(rtt) = &self.peers[peer].rtt {
            rtt.record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        Ok(migrations)
    }
}

impl ShardPool for Pool<'_> {
    type Error = FabricError;

    /// Copies each packet's bytes into a wire batch — raw bytes are what
    /// travel, the worker re-parses on arrival — returns the packet to the
    /// source, and ships the frame log-then-send; then checkpoints if the
    /// replay log crossed its frame or byte budget.
    fn ship(
        &mut self,
        shard: usize,
        batch: &mut Vec<StreamItem>,
        source: &mut impl PacketSource,
    ) -> Result<(), FabricError> {
        let at = self.slot_index(shard)?;
        let count = batch.len();
        let items = batch.drain(..).map(|item| {
            let labeled = item.view.packet;
            let wire = WireItem {
                seq: item.seq,
                ts_micros: labeled.packet.ts.as_micros(),
                label: labeled.label,
                data: labeled.packet.data.to_vec(),
            };
            source.recycle_packet(labeled.packet);
            wire
        });
        let body = CoordMsg::Batch { shard: shard as u32, items: items.collect() }.encode();
        self.slots[at].log.push(EntryKind::Batch { count }, body.clone());
        let peer = self.slots[at].peer;
        if let Err(err) = self.peers[peer].send_raw(&body) {
            // The batch is already logged: recovery replays it, so the
            // delivery is complete either way.
            self.handle_death(peer, err)?;
        }
        let log = &self.slots[at].log;
        if log.batches() >= self.fabric.recovery.checkpoint_frames || log.bytes() >= MAX_LOG_BYTES {
            self.checkpoint_shard(at)?;
        }
        Ok(())
    }

    /// Places the shard on the least-loaded live peer. Its slot exists
    /// before the drain barrier that follows a scale-up, so a mid-barrier
    /// recovery can re-home it too.
    fn spawn(&mut self, id: usize) -> Result<(), FabricError> {
        let peer = loop {
            let target = self.host_for(false)?;
            match self.peers[target].spawn(id) {
                Ok(()) => break target,
                Err(err) => self.handle_death(target, err)?,
            }
        };
        self.peers[peer].shards.push(id);
        let at = self.slots.partition_point(|slot| slot.shard < id);
        let slot =
            CoordSlot { shard: id, peer, epoch: 0, checkpoint: None, log: ReplayLog::default() };
        self.slots.insert(at, slot);
        self.spawned = self.spawned.max(id + 1);
        Ok(())
    }

    /// Sequential round-trips keep per-socket ordering trivially correct.
    fn drain(
        &mut self,
        from: &[usize],
        ring: &HashRing,
    ) -> Result<Vec<FlowMigration>, FabricError> {
        let mut moved = Vec::new();
        for &shard in from {
            let at = self.slot_index(shard)?;
            let flows = self.rebalance_shard(at, ring)?;
            if let Some(counters) = self.counters {
                // Flows whose new owner lives on another peer cross a
                // process boundary on their way through the coordinator.
                let host = self.slots[at].peer;
                let crosses = |m: &&FlowMigration| {
                    let to = self.slot_index(ring.owner_of(&m.key));
                    !to.is_ok_and(|to| self.slots[to].peer == host)
                };
                let crossed = flows.iter().filter(crosses).count();
                counters.cross_peer_migrations.add(crossed as u64);
            }
            moved.extend(flows);
        }
        Ok(moved)
    }

    fn migrate(&mut self, shard: usize, migrations: Vec<FlowMigration>) -> Result<(), FabricError> {
        let at = self.slot_index(shard)?;
        let peer = self.slots[at].peer;
        let body = CoordMsg::Migrate { shard: shard as u32, migrations }.encode();
        self.slots[at].log.push(EntryKind::Migrate, body.clone());
        if let Err(err) = self.peers[peer].send_raw(&body) {
            // Already logged: recovery replays the delivery.
            self.handle_death(peer, err)?;
        }
        Ok(())
    }

    /// Absorbs the shard's final fragment and drops its slot.
    fn retire(&mut self, shard: usize) -> Result<(), FabricError> {
        let at = self.slot_index(shard)?;
        let outcome = self.with_host(at, |peer| peer.retire(shard))?;
        let slot = self.slots.remove(at);
        self.peers[slot.peer].shards.retain(|&hosted| hosted != shard);
        self.fragments.absorb(slot.epoch + 1, outcome).map_err(FabricError::Protocol)
    }

    /// The [`DrainPlan`]: once the feeder reaches `at_seq` the peer stops
    /// receiving shards and everything it hosts is retired.
    fn planned_drain(&mut self, seq: u64) -> Vec<usize> {
        match self.fabric.drain {
            Some(plan) if seq >= plan.at_seq => {
                self.fabric.drain = None;
                self.peers[plan.peer].drained = true;
                self.peers[plan.peer].shards.clone()
            }
            _ => Vec::new(),
        }
    }

    /// The recovery-epoch barrier: checkpoint every live shard and probe
    /// idle peers (standbys) for liveness.
    fn settled(&mut self) -> Result<(), FabricError> {
        for at in 0..self.slots.len() {
            self.checkpoint_shard(at)?;
        }
        self.ping_idle_peers()
    }

    /// End of stream: retire every remaining shard in ascending id order
    /// (each retire is individually recoverable — a peer crash here costs
    /// nothing), then `Finish` tells the now-shardless workers to exit;
    /// each answers a bare `Bye`. Every score is merged by then, so a peer
    /// that dies saying goodbye costs nothing either.
    fn finish(
        mut self,
        fed: Result<(), FabricError>,
    ) -> Result<(Vec<ShardOutcome>, Vec<usize>), FabricError> {
        fed?;
        while let Some(slot) = self.slots.first() {
            self.retire(slot.shard)?;
        }
        self.each_live_peer(|peer| {
            peer.send(&CoordMsg::Finish)?;
            match peer.recv()? {
                WorkerMsg::Bye => Ok(()),
                other => unexpected("Bye", other),
            }
        })?;
        drop(self.peers); // closes every socket; workers unblock from their final read

        if let Some(counters) = self.counters {
            counters
                .duplicate_fragments
                .add(self.fragments.duplicate_fragments() + self.fragments.duplicate_events());
        }
        let missing = self.fragments.missing(self.spawned);
        if !missing.is_empty() {
            return Err(FabricError::Protocol(format!(
                "no outcome fragment for shards {missing:?} of {}",
                self.spawned
            )));
        }
        // Remote shards report no feeder-side stalls — TCP backpressure
        // plays that role on the fabric.
        Ok((self.fragments.into_outcomes(), Vec::new()))
    }
}

/// Runs one multi-node streaming evaluation over an already-bound
/// listener: accepts `fabric.workers` worker connections (plus recovery
/// standbys), drives the stream, and merges the remote outcome fragments
/// into the same [`StreamRun`] the in-process executor produces.
///
/// `detector` is resolved *by the workers* (their
/// [`DetectorResolver`](crate::worker::DetectorResolver)); the coordinator
/// never instantiates it. Telemetry attaches everything [`Feeder::new`]
/// lists, plus the fabric counters, per-peer rebalance RTT histograms, the
/// `recover` stage histogram and peer-death / recovery journal events.
///
/// # Errors
///
/// [`FabricError`] — before any connection is awaited — for a
/// [`StreamConfig`] the in-process executor would reject, zero workers, a
/// ring finer than [`MAX_VNODES`] (a worker would refuse its `Rebalance`),
/// or a drain plan naming a peer that does not exist; then when a worker fails
/// to connect in time, a handshake or protocol step goes wrong, the packet
/// source errors, or no live peer is left to take over a failed socket.
pub fn run_fabric(
    detector: &str,
    warmup: &[LabeledPacket],
    source: impl PacketSource,
    config: &StreamConfig,
    fabric: &FabricConfig,
    listener: FabricListener,
    telemetry: Option<&Telemetry>,
) -> Result<StreamRun, FabricError> {
    let feeder = Feeder::new(config, telemetry)?;
    if fabric.workers == 0 {
        return Err(FabricError::Protocol("fabric needs at least one worker".to_string()));
    }
    if let Some(policy) = config.autoscale.filter(|policy| policy.vnodes > MAX_VNODES) {
        return Err(FabricError::Protocol(format!(
            "autoscale vnodes {} exceed the wire's {MAX_VNODES}",
            policy.vnodes
        )));
    }
    if let Some(plan) = fabric.drain.filter(|plan| plan.peer >= fabric.workers) {
        return Err(FabricError::Protocol(format!(
            "drain plan names peer {} of {}",
            plan.peer, fabric.workers
        )));
    }
    let counters = telemetry.map(FabricCounters::register);
    let counters = counters.as_ref();
    let standbys = fabric.recovery.standby_workers;

    // ---- Accept + handshake every peer (standbys last). ----
    let mut pool = Pool {
        peers: Vec::with_capacity(fabric.workers + standbys),
        slots: Vec::with_capacity(config.shards),
        fragments: FragmentSet::default(),
        spawned: 0,
        fabric: *fabric,
        counters,
        telemetry,
        recover_span: telemetry.map(|t| t.stage(Stage::Recover, None)),
        ping_nonce: 0,
    };
    for index in 0..fabric.workers + standbys {
        let transport = listener.accept_timeout(fabric.accept_timeout)?;
        transport.set_io_timeout(Some(IO_TIMEOUT))?;
        pool.peers.push(Peer {
            transport,
            counters,
            shards: Vec::new(),
            drained: false,
            dead: false,
            standby: index >= fabric.workers,
            rtt: telemetry.map(|t| t.stage(Stage::Rebalance, Some(index))),
        });
    }
    let hello = CoordMsg::Hello(HelloConfig::from_stream(detector, config));
    let mut detector_name = detector.to_string();
    pool.each_live_peer(|peer| {
        peer.send(&hello)?;
        match peer.recv()? {
            WorkerMsg::HelloOk { detector: resolved, .. } => detector_name = resolved,
            other => return unexpected("HelloOk", other),
        }
        Ok(())
    })?;

    // ---- Train phase: stream warmup to every live peer, then the initial
    // spawn barrier. `assembly_seconds` covers the whole phase (shipping +
    // remote assembly + initial fits happen before the throughput clock).
    let train_started = Instant::now();
    pool.each_live_peer(|peer| {
        for chunk in warmup.chunks(TRAIN_CHUNK) {
            peer.send(&CoordMsg::Train(chunk.iter().map(wire_packet).collect()))?;
        }
        peer.send(&CoordMsg::TrainDone)
    })?;
    for id in 0..config.shards {
        pool.spawn(id)?;
    }
    let assembly_seconds = train_started.elapsed().as_secs_f64();
    feeder.run(pool, source, detector_name, warmup.len(), assembly_seconds)
}
