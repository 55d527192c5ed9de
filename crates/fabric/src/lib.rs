//! `idsbench-fabric` — the multi-node stream fabric: the sharded streaming
//! executor of `idsbench-stream`, stretched across process (and host)
//! boundaries.
//!
//! The in-process executor feeds [`ShardLoop`](idsbench_stream::ShardLoop)s
//! over bounded channels; the fabric feeds the *same* shard event-loop over
//! sockets, so a multi-node run scores every packet with the identical code
//! path and produces the identical per-flow score multiset:
//!
//! * [`wire`] — the framed binary codec: [`CoordMsg`]/[`WorkerMsg`] cover
//!   handshake, warmup streaming, shard spawn/retire, routed batches, and
//!   the stream crate's own types as they are — the
//!   [`HashRing`](idsbench_stream::HashRing) of a rebalance, cross-process
//!   [`FlowMigration`](idsbench_core::FlowMigration)s (detector per-flow
//!   state included), the
//!   [`ShardCheckpoint`](idsbench_stream::ShardCheckpoint) a recovery epoch
//!   commits and restores, and mergeable
//!   [`ShardOutcome`](idsbench_stream::ShardOutcome) fragments.
//! * [`transport`] — [`ShardTransport`] over TCP (`TCP_NODELAY`) or Unix
//!   domain sockets; workers dial in to the coordinator's
//!   [`FabricListener`], so ephemeral ports work and self-spawned worker
//!   processes need no port agreement.
//! * [`worker`] — [`run_worker`]: the process entry hosting a remote shard
//!   pool. It assembles the train view once, fits one detector per spawned
//!   shard, scores batches, answers rebalance barriers with extracted flow
//!   state, and streams back outcome fragments.
//! * [`coordinator`] — [`run_fabric`]: accepts N workers, streams warmup,
//!   then hands a socket-backed
//!   [`ShardPool`](idsbench_stream::feeder::ShardPool) to the one feed loop
//!   in [`idsbench_stream::feeder`] — the loop `run_stream` drives, so
//!   validation, autoscaling, routing, the rebalance ordering and the
//!   merge are shared code. Scale-ups place shards on the least-loaded
//!   live peer; scale-downs and planned drains retire shards behind a
//!   drain-then-migrate barrier that runs *across the sockets*.
//!
//! The protocol is strictly request-driven on the coordinator side: a worker
//! only writes when answering `Spawn`, `Rebalance`, `Checkpoint`, `Ping`,
//! `Retire`, or `Finish`, and the coordinator always follows those with
//! reads — there is no state where both sides block on writes. Per-socket FIFO ordering is the drain
//! barrier: a worker necessarily scores its backlog before it sees (and
//! answers) the rebalance that follows it.
//!
//! `idsbench check` (in `idsbench-bench`) pins the guarantee end to end:
//! worker *processes*, bursty autoscaling traffic, a mid-stream worker
//! drain, and sorted-multiset score parity against the single-process run.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod checkpoint;
pub mod coordinator;
pub mod faults;
pub mod transport;
pub mod wire;
pub mod worker;

use std::fmt;
use std::sync::Arc;

use idsbench_net::wire::WireError;
use idsbench_telemetry::{Counter, Telemetry};

pub use checkpoint::RecoveryConfig;
pub use coordinator::{run_fabric, DrainPlan, FabricConfig};
pub use faults::{Fault, FaultInjector, FaultPlan};
pub use transport::{read_frame, write_frame, Endpoint, FabricListener, ShardTransport};
pub use wire::{CoordMsg, HelloConfig, WireItem, WirePacket, WorkerMsg, FRAME_MAX};
pub use worker::{run_worker, run_worker_with_faults, DetectorResolver};

/// Everything that can go wrong on a fabric socket.
#[derive(Debug)]
pub enum FabricError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// A frame arrived but its body failed to decode.
    Wire(WireError),
    /// The peer violated the protocol (wrong message, unknown detector,
    /// handshake mismatch, premature close).
    Protocol(String),
    /// The routing ring referenced a shard whose slot the coordinator no
    /// longer tracks — internal bookkeeping drift that must fail loudly
    /// instead of misrouting packets.
    StaleRing {
        /// The shard id the ring produced.
        shard: usize,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Io(err) => write!(f, "fabric i/o error: {err}"),
            FabricError::Wire(err) => write!(f, "fabric wire error: {err}"),
            FabricError::Protocol(detail) => write!(f, "fabric protocol error: {detail}"),
            FabricError::StaleRing { shard } => {
                write!(f, "fabric routing ring references untracked shard {shard}")
            }
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Io(err) => Some(err),
            FabricError::Wire(err) => Some(err),
            FabricError::Protocol(_) | FabricError::StaleRing { .. } => None,
        }
    }
}

impl From<std::io::Error> for FabricError {
    fn from(err: std::io::Error) -> Self {
        FabricError::Io(err)
    }
}

/// Feeder-side failures — a rejected [`StreamConfig`](idsbench_stream::StreamConfig),
/// a failing packet source — surface as protocol errors of the run.
impl From<idsbench_core::CoreError> for FabricError {
    fn from(err: idsbench_core::CoreError) -> Self {
        FabricError::Protocol(err.to_string())
    }
}

impl From<WireError> for FabricError {
    fn from(err: WireError) -> Self {
        FabricError::Wire(err)
    }
}

/// The fabric's registered telemetry counters. All register in the shared
/// [`Telemetry`] registry, so the exposition endpoint and JSON snapshots
/// pick them up like any other runtime counter.
#[derive(Debug, Clone)]
pub struct FabricCounters {
    /// Frames sent + received on this side of the fabric.
    pub frames: Arc<Counter>,
    /// Wire bytes (length prefixes included) sent + received.
    pub bytes: Arc<Counter>,
    /// Connect retries after a refused/failed attempt.
    pub reconnects: Arc<Counter>,
    /// Flow migrations whose source and destination shard live on
    /// *different* peers — the cross-process state movements.
    pub cross_peer_migrations: Arc<Counter>,
    /// Peers classified dead (socket error or io-timeout expiry).
    pub peer_failures: Arc<Counter>,
    /// Flow-state entries restored onto a new owner during recovery.
    pub flows_rehomed: Arc<Counter>,
    /// Batch frames replayed from the coordinator's replay buffers.
    pub replayed_batches: Arc<Counter>,
    /// Outcome fragments discarded as duplicates during the merge (must
    /// stay zero — the at-least-once replay never re-delivers a committed
    /// fragment by construction).
    pub duplicate_fragments: Arc<Counter>,
    /// Total wall-clock microseconds spent in peer-death recovery.
    pub recovery_micros: Arc<Counter>,
}

impl FabricCounters {
    /// Registers (or re-attaches to) the fabric counters.
    pub fn register(telemetry: &Telemetry) -> Self {
        FabricCounters {
            frames: telemetry.counter("fabric_frames_total"),
            bytes: telemetry.counter("fabric_bytes_total"),
            reconnects: telemetry.counter("fabric_reconnects_total"),
            cross_peer_migrations: telemetry.counter("fabric_cross_peer_migrations_total"),
            peer_failures: telemetry.counter("fabric_peer_failures_total"),
            flows_rehomed: telemetry.counter("fabric_flows_rehomed_total"),
            replayed_batches: telemetry.counter("fabric_replayed_batches_total"),
            duplicate_fragments: telemetry.counter("fabric_duplicate_fragments_total"),
            recovery_micros: telemetry.counter("fabric_recovery_micros_total"),
        }
    }
}

/// Sends one message and flushes (helper shared by both endpoints' loops).
/// Routes through the transport's fault injector when one is armed.
pub(crate) fn send_msg(
    transport: &mut ShardTransport,
    body: &[u8],
    counters: Option<&FabricCounters>,
) -> Result<(), FabricError> {
    transport.send_frame(body, counters).map_err(FabricError::Io)
}

/// Receives one frame body, treating clean EOF as a protocol error (callers
/// that expect EOF use [`read_frame`] directly). Routes through the
/// transport's fault injector when one is armed.
pub(crate) fn recv_body(
    transport: &mut ShardTransport,
    counters: Option<&FabricCounters>,
) -> Result<Vec<u8>, FabricError> {
    transport
        .recv_frame(counters)?
        .ok_or_else(|| FabricError::Protocol("peer closed mid conversation".to_string()))
}
