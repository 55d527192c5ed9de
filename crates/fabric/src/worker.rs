//! The fabric worker: one process (or thread) hosting a remote shard pool.
//!
//! [`run_worker`] dials in to the coordinator, answers the handshake, and
//! then serves the protocol loop: warmup chunks accumulate into the shared
//! [`TrainView`] (assembled exactly once, like the in-process executor's
//! feeder), every `Spawn` fits a fresh detector instance for its shard,
//! batches drive the very same [`ShardLoop`] the local executor uses, and
//! rebalance/checkpoint/retire stream migrations and
//! [`ShardOutcome`](idsbench_stream::ShardOutcome) fragments back. The
//! worker never initiates a message — it only answers — which is what makes
//! the protocol deadlock-free (see the crate docs).

use std::collections::BTreeMap;
use std::time::Instant;

use idsbench_core::{
    EventDetector, FlowEventAssembler, InputFormat, LabeledPacket, ParsedView, TrainView,
};
use idsbench_net::{Packet, Timestamp};
use idsbench_stream::{ShardLoop, StreamItem};
use idsbench_telemetry::Telemetry;

use crate::faults::{FaultInjector, FaultPlan};
use crate::transport::{read_frame, Endpoint, ShardTransport};
use crate::wire::{CoordMsg, WireItem, WorkerMsg};
use crate::{recv_body, send_msg, FabricCounters, FabricError};

/// Maps a detector registry name to a fresh (unfitted) instance; `None`
/// means the name is unknown and the handshake is refused. Called once per
/// spawned shard — every shard owns an independent detector, exactly as in
/// the in-process executor.
pub type DetectorResolver<'a> = dyn Fn(&str) -> Option<Box<dyn EventDetector>> + 'a;

/// One hosted shard: its event loop plus the fit time its `Ready` reported
/// (shipped with the outcome at retire/finish).
struct HostedShard {
    event_loop: ShardLoop,
    fit_seconds: f64,
}

impl std::fmt::Debug for HostedShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostedShard").field("event_loop", &self.event_loop).finish()
    }
}

fn wire_item_to_stream(item: WireItem) -> StreamItem {
    let packet = LabeledPacket::new(
        Packet::new(Timestamp::from_micros(item.ts_micros), item.data),
        item.label,
    );
    // The worker's single parse site — the remote analog of the local
    // feeder's parse-once rule, shared by routing (already done upstream)
    // and scoring.
    StreamItem { seq: item.seq, view: ParsedView::from_packet(packet) }
}

/// Runs the worker protocol loop to completion: connect, handshake, host
/// shards until the coordinator's `Finish`, reply `Bye`, return.
///
/// `telemetry` attaches the fabric frame/byte/reconnect counters to this
/// process's registry; scoring behavior is identical with or without it.
///
/// # Errors
///
/// [`FabricError`] on socket failure, a frame that fails to decode, an
/// unknown detector name, a coordinator that closes the connection before
/// `Finish`, or a hosted detector that does not return one score per event
/// of its input format (the worker stops instead of mislabelling scores).
pub fn run_worker(
    endpoint: &Endpoint,
    resolve: &DetectorResolver<'_>,
    telemetry: Option<&Telemetry>,
) -> Result<(), FabricError> {
    run_worker_with_faults(endpoint, resolve, telemetry, None)
}

/// [`run_worker`] with an optional deterministic [`FaultPlan`] armed on the
/// transport — the entry point `idsbench worker --faults` uses to
/// crash, corrupt, or stall a worker at an exact frame or packet seq.
///
/// # Errors
///
/// Everything [`run_worker`] can return, plus the synthetic
/// `ConnectionReset`/`TimedOut` I/O errors an armed fault raises when it
/// fires (the socket is really shut down, so the coordinator observes a
/// genuine peer death).
pub fn run_worker_with_faults(
    endpoint: &Endpoint,
    resolve: &DetectorResolver<'_>,
    telemetry: Option<&Telemetry>,
    faults: Option<FaultPlan>,
) -> Result<(), FabricError> {
    let counters = telemetry.map(FabricCounters::register);
    let counters = counters.as_ref();
    let mut transport = ShardTransport::connect_retry(endpoint, counters)?;
    if let Some(plan) = faults {
        transport.inject_faults(FaultInjector::new(plan));
    }

    // Handshake: the first frame must be Hello; resolve the detector once
    // to validate the name and learn its input format.
    let body = recv_body(&mut transport, counters)?;
    let config = match CoordMsg::decode(&body)? {
        CoordMsg::Hello(config) => config,
        other => {
            return Err(FabricError::Protocol(format!("expected Hello, got {other:?}")));
        }
    };
    let probe = resolve(&config.detector)
        .ok_or_else(|| FabricError::Protocol(format!("unknown detector {:?}", config.detector)))?;
    let format = probe.input_format();
    let detector_name = probe.name().to_string();
    drop(probe);
    send_msg(
        &mut transport,
        &WorkerMsg::HelloOk { detector: detector_name, flows: format == InputFormat::Flows }
            .encode(),
        counters,
    )?;

    let mut warmup: Vec<ParsedView> = Vec::new();
    let mut train: Option<TrainView> = None;
    let mut shards: BTreeMap<usize, HostedShard> = BTreeMap::new();
    // Reused across batches so a steady stream settles into zero staging
    // allocations, mirroring the local executor's recycled batch vectors.
    let mut staged: Vec<StreamItem> = Vec::new();

    loop {
        let body = recv_body(&mut transport, counters)?;
        match CoordMsg::decode(&body)? {
            CoordMsg::Hello(_) => {
                return Err(FabricError::Protocol("duplicate Hello".to_string()));
            }
            CoordMsg::Train(packets) => {
                if train.is_some() {
                    return Err(FabricError::Protocol("Train after TrainDone".to_string()));
                }
                warmup.extend(packets.into_iter().map(|p| {
                    ParsedView::from_packet(LabeledPacket::new(
                        Packet::new(Timestamp::from_micros(p.ts_micros), p.data),
                        p.label,
                    ))
                }));
            }
            CoordMsg::TrainDone => {
                if train.is_some() {
                    return Err(FabricError::Protocol("duplicate TrainDone".to_string()));
                }
                train = Some(TrainView::assemble(std::mem::take(&mut warmup), config.flow));
            }
            CoordMsg::Spawn { shard } => {
                let view = train
                    .as_ref()
                    .ok_or_else(|| FabricError::Protocol("Spawn before TrainDone".to_string()))?;
                let shard = shard as usize;
                if shards.contains_key(&shard) {
                    return Err(FabricError::Protocol(format!("shard {shard} spawned twice")));
                }
                let mut detector =
                    resolve(&config.detector).expect("detector resolved during handshake");
                let started = Instant::now();
                detector.fit(view);
                let fit_seconds = started.elapsed().as_secs_f64();
                let event_loop = ShardLoop::new(
                    shard,
                    detector,
                    config.recorder(),
                    FlowEventAssembler::for_format(format, config.flow),
                    config.window_secs,
                    false,
                    None,
                );
                shards.insert(shard, HostedShard { event_loop, fit_seconds });
                send_msg(
                    &mut transport,
                    &WorkerMsg::Ready { shard: shard as u32, fit_seconds }.encode(),
                    counters,
                )?;
            }
            CoordMsg::Batch { shard, items } => {
                let hosted = hosted(&mut shards, shard)?;
                staged.clear();
                staged.extend(items.into_iter().map(wire_item_to_stream));
                hosted.event_loop.on_batch(&staged)?;
            }
            CoordMsg::Rebalance { shard, ring } => {
                let hosted = hosted(&mut shards, shard)?;
                let migrations = hosted.event_loop.on_rebalance(&ring);
                send_msg(
                    &mut transport,
                    &WorkerMsg::Migrations { shard, migrations }.encode(),
                    counters,
                )?;
            }
            CoordMsg::Migrate { shard, migrations } => {
                hosted(&mut shards, shard)?.event_loop.on_migrate(migrations);
            }
            CoordMsg::Checkpoint { shard, epoch } => {
                let hosted = hosted(&mut shards, shard)?;
                let (checkpoint, fragment) = hosted.event_loop.on_checkpoint(hosted.fit_seconds);
                let reply = WorkerMsg::Checkpoint { shard, epoch, checkpoint, fragment };
                send_msg(&mut transport, &reply.encode(), counters)?;
            }
            CoordMsg::Restore { shard, epoch: _, checkpoint } => {
                hosted(&mut shards, shard)?.event_loop.restore(checkpoint);
            }
            CoordMsg::Ping { nonce } => {
                send_msg(&mut transport, &WorkerMsg::Pong { nonce }.encode(), counters)?;
            }
            CoordMsg::Retire { shard } => {
                let mut hosted = shards.remove(&(shard as usize)).ok_or_else(|| {
                    FabricError::Protocol(format!("Retire for unhosted shard {shard}"))
                })?;
                hosted.event_loop.finish()?;
                let outcome = hosted.event_loop.into_outcome(hosted.fit_seconds);
                send_msg(&mut transport, &WorkerMsg::Outcome(outcome).encode(), counters)?;
            }
            CoordMsg::Finish => {
                // The coordinator retires every shard before `Finish` and
                // accepts only `Bye` in reply; scores still held here would
                // be lost silently.
                if !shards.is_empty() {
                    let hosted: Vec<&usize> = shards.keys().collect();
                    return Err(FabricError::Protocol(format!(
                        "Finish with shards {hosted:?} still hosted"
                    )));
                }
                send_msg(&mut transport, &WorkerMsg::Bye.encode(), counters)?;
                // Wait for the coordinator to close; exiting first could
                // reset unread reply bytes on some stacks.
                let _ = read_frame(&mut transport, counters);
                return Ok(());
            }
        }
    }
}

fn hosted(
    shards: &mut BTreeMap<usize, HostedShard>,
    shard: u32,
) -> Result<&mut HostedShard, FabricError> {
    shards
        .get_mut(&(shard as usize))
        .ok_or_else(|| FabricError::Protocol(format!("message for unhosted shard {shard}")))
}
