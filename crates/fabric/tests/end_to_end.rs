//! End-to-end fabric runs: `run_worker` on threads, `run_fabric` as the
//! coordinator, real sockets in between — the full protocol (handshake,
//! warmup streaming, autoscale barriers, cross-peer migration, drain,
//! outcome merge) without process-spawn overhead. The process-level version
//! of the same contract is `idsbench check`'s fabric gates.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idsbench_core::{
    AttackKind, CoreError, Event, EventDetector, InputFormat, Label, LabeledPacket, TrainView,
};
use idsbench_fabric::coordinator::DrainPlan;
use idsbench_fabric::{
    run_fabric, run_worker, run_worker_with_faults, CoordMsg, Endpoint, FabricConfig, FabricError,
    FabricListener, FaultPlan, HelloConfig, RecoveryConfig, WorkerMsg,
};
use idsbench_flow::FlowKey;
use idsbench_net::{MacAddr, Packet, PacketBuilder, TcpFlags, Timestamp};
use idsbench_stream::metrics::window_index;
use idsbench_stream::{
    run_stream, AutoscalePolicy, PacketSource, StreamConfig, StreamRun, ThresholdMode, VecSource,
};
use idsbench_telemetry::{JournalEvent, Stage, Telemetry, TelemetryConfig};

/// Scores each evicted flow by its packet count — the flow-format detector
/// whose score multiset is partition-invariant.
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

/// Packet detector scoring each packet's 1-based position within its flow —
/// pure per-flow state, so any dropped cross-process migration resets a
/// counter and the seq-ordered scores give it away.
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

fn resolve(name: &str) -> Option<Box<dyn EventDetector>> {
    match name {
        "flow-counter" => Some(Box::new(FlowCounter)),
        "flow-seq" => Some(Box::new(FlowSeq::default())),
        _ => None,
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

/// Alternating quiet/burst phases, one traffic-second each — the workload
/// the in-process autoscale tests use.
fn bursty_workload(phases: u64) -> Vec<LabeledPacket> {
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

fn autoscaled_config() -> StreamConfig {
    StreamConfig {
        shards: 1,
        batch_size: 16,
        window_secs: 1.0,
        autoscale: Some(AutoscalePolicy {
            min_shards: 1,
            max_shards: 3,
            scale_up_pps: 300.0,
            scale_down_pps: 100.0,
            cooldown_windows: 0,
            vnodes: 16,
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// [`fabric_run_from`] over an in-memory copy of `packets`.
fn fabric_run(
    bind: &Endpoint,
    detector: &str,
    packets: &[LabeledPacket],
    config: &StreamConfig,
    fabric: FabricConfig,
    telemetry: Option<&Telemetry>,
) -> StreamRun {
    let source = VecSource::new("bursty", packets.to_vec());
    fabric_run_from(bind, detector, source, config, fabric, telemetry)
}

/// Binds a listener, launches `workers` worker threads against it, runs the
/// coordinator over `source`, and joins the workers.
fn fabric_run_from(
    bind: &Endpoint,
    detector: &str,
    source: impl PacketSource,
    config: &StreamConfig,
    fabric: FabricConfig,
    telemetry: Option<&Telemetry>,
) -> StreamRun {
    let listener = FabricListener::bind(bind).expect("bind");
    let endpoint = listener.local_endpoint().unwrap();
    let workers: Vec<_> = (0..fabric.workers)
        .map(|_| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || run_worker(&endpoint, &resolve, None))
        })
        .collect();
    let run = run_fabric(detector, &[], source, config, &fabric, listener, telemetry)
        .expect("fabric run");
    for worker in workers {
        worker.join().expect("worker thread").expect("worker protocol");
    }
    run
}

/// Like [`fabric_run`], but each worker thread gets an optional fault-plan
/// spec, threads connect in list order (a short stagger keeps accept order
/// deterministic), and worker errors are tolerated — a worker whose plan
/// kills it exits with an error by design.
fn fabric_run_with_faults(
    detector: &str,
    packets: &[LabeledPacket],
    config: &StreamConfig,
    fabric: FabricConfig,
    plans: Vec<Option<&'static str>>,
    telemetry: Option<&Telemetry>,
) -> StreamRun {
    let listener =
        FabricListener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).expect("bind");
    let endpoint = listener.local_endpoint().unwrap();
    let workers: Vec<_> = plans
        .into_iter()
        .enumerate()
        .map(|(index, plan)| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                // Accept order is connect order: stagger so worker `index`
                // becomes peer `index` (standbys are the last accepts).
                std::thread::sleep(std::time::Duration::from_millis(250 * index as u64));
                let plan = plan.map(|spec| FaultPlan::parse(spec).expect("fault plan"));
                run_worker_with_faults(&endpoint, &resolve, None, plan)
            })
        })
        .collect();
    let run = run_fabric(
        detector,
        &[],
        VecSource::new("bursty", packets.to_vec()),
        config,
        &fabric,
        listener,
        telemetry,
    )
    .expect("fabric run");
    for worker in workers {
        let _ = worker.join().expect("worker thread");
    }
    run
}

/// Counts how many packets come back through `recycle_packet`.
#[derive(Debug)]
struct CountingSource {
    inner: VecSource,
    recycled: Arc<AtomicUsize>,
}

impl PacketSource for CountingSource {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn next_packet(&mut self) -> Result<Option<LabeledPacket>, CoreError> {
        self.inner.next_packet()
    }
    fn recycle_packet(&mut self, _packet: Packet) {
        self.recycled.fetch_add(1, Ordering::Relaxed);
    }
}

fn sorted(mut scores: Vec<f64>) -> Vec<f64> {
    scores.sort_by(f64::total_cmp);
    scores
}

#[test]
fn tcp_fabric_matches_single_process_multiset_under_autoscale() {
    let packets = bursty_workload(6);
    let single = run_stream(
        &|| Box::new(FlowCounter) as Box<dyn EventDetector>,
        &[],
        VecSource::new("bursty", packets.clone()),
        &StreamConfig { window_secs: 1.0, ..Default::default() },
    )
    .unwrap();

    let telemetry = Telemetry::new(TelemetryConfig::default());
    let fabric = fabric_run(
        &Endpoint::parse("tcp://127.0.0.1:0").unwrap(),
        "flow-counter",
        &packets,
        &autoscaled_config(),
        FabricConfig { workers: 2, ..Default::default() },
        Some(&telemetry),
    );

    // The pool moved, and moved state across processes.
    assert!(fabric.report.scale_events.iter().any(|e| e.is_scale_up()), "no scale-up");
    assert!(fabric.report.scale_events.iter().any(|e| e.migrated_flows > 0), "no migrations");
    assert!(telemetry.counter("fabric_frames_total").get() > 0);
    assert!(telemetry.counter("fabric_bytes_total").get() > 0);
    assert!(
        telemetry.counter("fabric_cross_peer_migrations_total").get() > 0,
        "two workers with spread shards must migrate across the process boundary"
    );

    // The fabric drives the one feeder, so it reports the feeder's telemetry.
    assert_eq!(telemetry.counter("packets_total").get(), fabric.report.eval_packets as u64);
    assert!(telemetry.counter("batches_total").get() > 0);
    assert_eq!(telemetry.gauge("live_shards").get(), fabric.report.final_shards as u64);
    let journal = telemetry.journal().snapshot();
    let scales = journal.events.iter().filter(|e| matches!(e, JournalEvent::Scale(_))).count();
    assert_eq!(scales, fabric.report.scale_events.len());
    let sampled = |stage: Stage| -> u64 {
        let stages = telemetry.stages();
        stages.iter().filter(|s| s.stage() == stage).map(|s| s.histogram().len()).sum()
    };
    assert!(sampled(Stage::Parse) > 0, "no parse span sampled");
    assert!(sampled(Stage::Route) > 0, "no route span sampled");

    // ... and telemetry still steers nothing: the same run without it
    // produces the same scores in the same order, and returns every fed
    // packet to its source once the bytes are copied into the wire item.
    let recycled = Arc::new(AtomicUsize::new(0));
    let counting = CountingSource {
        inner: VecSource::new("bursty", packets.clone()),
        recycled: Arc::clone(&recycled),
    };
    let plain = fabric_run_from(
        &Endpoint::parse("tcp://127.0.0.1:0").unwrap(),
        "flow-counter",
        counting,
        &autoscaled_config(),
        FabricConfig { workers: 2, ..Default::default() },
        None,
    );
    assert_eq!(plain.scores, fabric.scores, "telemetry must not steer the run");
    assert_eq!(plain.report.scale_events.len(), fabric.report.scale_events.len());
    assert_eq!(recycled.load(Ordering::Relaxed), packets.len(), "a fed packet was not recycled");

    // The acceptance invariant: identical sorted score multiset.
    assert_eq!(sorted(single.scores), sorted(fabric.scores), "fabric changed flow scores");
    assert_eq!(single.report.metrics, fabric.report.metrics);
    assert_eq!(fabric.report.detector, "flow-counter");
    assert_eq!(fabric.report.eval_packets, packets.len());
}

#[cfg(unix)]
#[test]
fn uds_fabric_matches_single_process_multiset() {
    let packets = bursty_workload(4);
    let single = run_stream(
        &|| Box::new(FlowCounter) as Box<dyn EventDetector>,
        &[],
        VecSource::new("bursty", packets.clone()),
        &StreamConfig { window_secs: 1.0, ..Default::default() },
    )
    .unwrap();
    let path =
        std::env::temp_dir().join(format!("idsbench-fabric-e2e-{}.sock", std::process::id()));
    let fabric = fabric_run(
        &Endpoint::Uds(path),
        "flow-counter",
        &packets,
        &autoscaled_config(),
        FabricConfig { workers: 2, ..Default::default() },
        None,
    );
    assert_eq!(sorted(single.scores), sorted(fabric.scores));
    assert_eq!(single.report.metrics, fabric.report.metrics);
}

#[test]
fn drained_worker_loses_no_flow_state() {
    let packets = bursty_workload(6);
    let mid_seq = packets.len() as u64 / 2;
    let factory = || Box::new(FlowSeq::default()) as Box<dyn EventDetector>;
    let single = run_stream(
        &factory,
        &[],
        VecSource::new("bursty", packets.clone()),
        &StreamConfig { window_secs: 1.0, ..Default::default() },
    )
    .unwrap();

    let fabric = fabric_run(
        &Endpoint::parse("tcp://127.0.0.1:0").unwrap(),
        "flow-seq",
        &packets,
        // A fixed two-shard pool, one shard per peer, so the drained peer
        // deterministically hosts live mid-stream state (autoscaling is
        // covered separately — here the decommission itself is the test).
        &StreamConfig { shards: 2, batch_size: 16, window_secs: 1.0, ..Default::default() },
        FabricConfig {
            workers: 2,
            drain: Some(DrainPlan { peer: 1, at_seq: mid_seq }),
            ..Default::default()
        },
        None,
    );

    // The drain actually happened and is visible in the scale history as
    // operator-triggered events (trigger_pps == 0).
    let drains: Vec<_> =
        fabric.report.scale_events.iter().filter(|e| e.trigger_pps == 0.0).collect();
    assert!(
        !drains.is_empty(),
        "drain plan produced no retirement: {:?}",
        fabric.report.scale_events
    );
    assert!(drains.iter().any(|e| e.migrated_flows > 0), "drain moved no flow state");

    // Zero lost flows: every per-flow counter survived the mid-stream
    // decommission, so even the *seq-ordered* score stream is identical to
    // the single-process run.
    assert_eq!(single.scores, fabric.scores, "a per-flow counter reset across the drain");
}

#[test]
fn drain_scale_events_join_the_metrics_window_axis() {
    // One packet per millisecond, so the drain at seq 300 lands exactly on
    // ts = 300 000 µs — the boundary of 0.1 s window 3, where a float
    // `ts / 1e6 / window_secs` truncates to 2.
    let packets: Vec<LabeledPacket> = (0..600u64)
        .map(|i| flow_packet((i % 7) as u8 + 1, 1000 + (i % 13) as u16, i * 1000, false))
        .collect();
    let window_secs = 0.1;
    let fabric = fabric_run(
        &Endpoint::parse("tcp://127.0.0.1:0").unwrap(),
        "flow-seq",
        &packets,
        &StreamConfig { shards: 2, batch_size: 16, window_secs, ..Default::default() },
        FabricConfig {
            workers: 2,
            drain: Some(DrainPlan { peer: 1, at_seq: 300 }),
            ..Default::default()
        },
        None,
    );
    let events = &fabric.report.scale_events;
    assert!(!events.is_empty(), "drain plan produced no retirement");
    for event in events {
        assert_eq!(event.trigger_pps, 0.0, "only the drain may reshape this pool");
        assert_eq!((event.seq, event.at_secs), (300, 0.3));
        let at_micros = (event.at_secs * 1e6).round() as u64;
        assert_eq!(event.window, window_index(at_micros, window_secs));
        assert_eq!(event.window, 3);
    }
    // The report's windows are indexed on the same axis.
    assert!(fabric.report.windows.iter().any(|w| w.index == events[0].window));
}

#[test]
fn both_drivers_reject_the_same_configs_before_any_worker_is_awaited() {
    let policy = |policy: AutoscalePolicy| Some(policy);
    let cases = [
        ("shards must be", StreamConfig { shards: 0, ..Default::default() }),
        ("batch_size must be", StreamConfig { batch_size: 0, ..Default::default() }),
        ("channel_capacity must be", StreamConfig { channel_capacity: 0, ..Default::default() }),
        ("window_secs must be", StreamConfig { window_secs: 0.0, ..Default::default() }),
        ("window_secs must be", StreamConfig { window_secs: -1.0, ..Default::default() }),
        ("window_secs must be", StreamConfig { window_secs: f64::NAN, ..Default::default() }),
        (
            "fixed threshold must not be NaN",
            StreamConfig { threshold: ThresholdMode::Fixed(f64::NAN), ..Default::default() },
        ),
        (
            "min_shards must be",
            StreamConfig {
                autoscale: policy(AutoscalePolicy { min_shards: 0, ..Default::default() }),
                ..Default::default()
            },
        ),
        (
            "max_shards must be",
            StreamConfig {
                shards: 3,
                autoscale: policy(AutoscalePolicy {
                    min_shards: 3,
                    max_shards: 2,
                    ..Default::default()
                }),
                ..Default::default()
            },
        ),
        (
            "outside autoscale bounds",
            StreamConfig {
                shards: 1,
                autoscale: policy(AutoscalePolicy { min_shards: 2, ..Default::default() }),
                ..Default::default()
            },
        ),
        (
            "outside autoscale bounds",
            StreamConfig {
                shards: 9,
                autoscale: policy(AutoscalePolicy::default()),
                ..Default::default()
            },
        ),
        (
            "would flap",
            StreamConfig {
                autoscale: policy(AutoscalePolicy {
                    scale_up_pps: 10.0,
                    scale_down_pps: 20.0,
                    ..Default::default()
                }),
                ..Default::default()
            },
        ),
    ];
    // No worker ever dials in: a fabric run that got as far as `accept`
    // would sit out the 30 s accept window and fail with an I/O timeout.
    let fabric_err = |config: &StreamConfig, fabric: &FabricConfig| {
        let listener =
            FabricListener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
        let started = Instant::now();
        let source = VecSource::new("x", Vec::new());
        let err = run_fabric("flow-counter", &[], source, config, fabric, listener, None)
            .expect_err("an invalid config must not run");
        assert!(started.elapsed() < Duration::from_secs(10), "rejected only after accept: {err}");
        err
    };
    for (why, config) in &cases {
        let local = run_stream(
            &|| Box::new(FlowCounter) as Box<dyn EventDetector>,
            &[],
            VecSource::new("x", Vec::new()),
            config,
        )
        .expect_err("an invalid config must not run");
        assert!(matches!(local, CoreError::Stream { .. }), "{why}: {local}");
        assert!(local.to_string().contains(why), "{why}: {local}");
        let remote = fabric_err(config, &FabricConfig::default());
        assert!(matches!(remote, FabricError::Protocol(_)), "{why}: {remote}");
        assert!(remote.to_string().contains(why), "{why}: {remote}");
    }

    // The fabric's own checks stay, equally early.
    let valid = StreamConfig::default();
    let err = fabric_err(&valid, &FabricConfig { workers: 0, ..Default::default() });
    assert!(err.to_string().contains("at least one worker"), "{err}");
    let drain = Some(DrainPlan { peer: 2, at_seq: 0 });
    let err = fabric_err(&valid, &FabricConfig { workers: 2, drain, ..Default::default() });
    assert!(err.to_string().contains("drain plan names peer 2 of 2"), "{err}");
}

#[test]
fn worker_refuses_finish_while_it_still_hosts_shards() {
    let listener = FabricListener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    let worker = std::thread::spawn(move || run_worker(&endpoint, &resolve, None));
    let mut peer = listener.accept_timeout(Duration::from_secs(30)).unwrap();
    let mut exchange = |msg: CoordMsg, reply: bool| {
        peer.send_frame(&msg.encode(), None).unwrap();
        reply.then(|| WorkerMsg::decode(&peer.recv_frame(None).unwrap().unwrap()).unwrap())
    };
    let hello = HelloConfig::from_stream("flow-counter", &StreamConfig::default());
    assert!(matches!(exchange(CoordMsg::Hello(hello), true), Some(WorkerMsg::HelloOk { .. })));
    exchange(CoordMsg::TrainDone, false);
    assert!(matches!(exchange(CoordMsg::Spawn { shard: 0 }, true), Some(WorkerMsg::Ready { .. })));
    // A coordinator retires every shard before `Finish`; one that does not
    // would lose the shard's scores, so the worker fails loudly instead of
    // answering with frames the coordinator never reads.
    exchange(CoordMsg::Finish, false);
    let err = worker.join().unwrap().expect_err("Finish with a hosted shard must fail");
    assert!(matches!(err, FabricError::Protocol(_)), "{err}");
    assert!(err.to_string().contains("still hosted"), "{err}");
}

#[test]
fn killed_worker_recovers_with_identical_scores() {
    let packets = bursty_workload(6);
    let kill_at = packets.len() as u64 * 3 / 5;
    let factory = || Box::new(FlowSeq::default()) as Box<dyn EventDetector>;
    let single = run_stream(
        &factory,
        &[],
        VecSource::new("bursty", packets.clone()),
        &StreamConfig { window_secs: 1.0, ..Default::default() },
    )
    .unwrap();

    let telemetry = Telemetry::new(TelemetryConfig::default());
    let fabric = fabric_run_with_faults(
        "flow-seq",
        &packets,
        // A fixed two-shard pool, one shard per peer, so the killed peer
        // deterministically hosts live mid-stream per-flow state.
        &StreamConfig { shards: 2, batch_size: 16, window_secs: 1.0, ..Default::default() },
        FabricConfig {
            workers: 2,
            // Tight epochs so the kill lands well past a committed
            // checkpoint: recovery must restore flows AND replay batches.
            recovery: RecoveryConfig { checkpoint_frames: 8, ..Default::default() },
            ..Default::default()
        },
        vec![Some(Box::leak(format!("kill-at-seq={kill_at}").into_boxed_str())), None],
        Some(&telemetry),
    );

    assert_eq!(telemetry.counter("fabric_peer_failures_total").get(), 1, "exactly one death");
    assert!(telemetry.counter("fabric_flows_rehomed_total").get() > 0, "no flow state restored");
    assert!(telemetry.counter("fabric_replayed_batches_total").get() > 0, "nothing replayed");
    assert_eq!(
        telemetry.counter("fabric_duplicate_fragments_total").get(),
        0,
        "replay re-delivered a committed fragment"
    );
    let kinds: Vec<&str> = telemetry.journal().snapshot().events.iter().map(|e| e.kind()).collect();
    assert!(kinds.contains(&"peer_death"), "no peer_death journal event: {kinds:?}");
    assert!(kinds.contains(&"recovery_complete"), "no recovery_complete event: {kinds:?}");

    // Zero lost flows, zero duplicated fragments: even the *seq-ordered*
    // score stream is identical to the crash-free single-process run.
    assert_eq!(single.scores, fabric.scores, "a per-flow counter diverged across the crash");
    assert_eq!(single.report.metrics, fabric.report.metrics);
}

#[test]
fn standby_absorbs_every_shard_after_both_regulars_die() {
    let packets = bursty_workload(6);
    let first_kill = packets.len() as u64 * 2 / 5;
    let second_kill = packets.len() as u64 * 7 / 10;
    let factory = || Box::new(FlowSeq::default()) as Box<dyn EventDetector>;
    let single = run_stream(
        &factory,
        &[],
        VecSource::new("bursty", packets.clone()),
        &StreamConfig { window_secs: 1.0, ..Default::default() },
    )
    .unwrap();

    let telemetry = Telemetry::new(TelemetryConfig::default());
    let fabric = fabric_run_with_faults(
        "flow-seq",
        &packets,
        &StreamConfig { shards: 2, batch_size: 16, window_secs: 1.0, ..Default::default() },
        FabricConfig {
            workers: 2,
            recovery: RecoveryConfig {
                checkpoint_frames: 8,
                standby_workers: 1,
                ..Default::default()
            },
            ..Default::default()
        },
        // Both regular workers die mid-stream; the third (standby, last to
        // connect) must end up hosting everything.
        vec![
            Some(Box::leak(format!("kill-at-seq={first_kill}").into_boxed_str())),
            Some(Box::leak(format!("kill-at-seq={second_kill}").into_boxed_str())),
            None,
        ],
        Some(&telemetry),
    );

    assert_eq!(telemetry.counter("fabric_peer_failures_total").get(), 2, "both regulars died");
    assert_eq!(telemetry.counter("fabric_duplicate_fragments_total").get(), 0);
    assert_eq!(single.scores, fabric.scores, "state lost across double recovery onto standby");
    assert_eq!(single.report.metrics, fabric.report.metrics);
}

#[test]
fn corrupted_frame_triggers_recovery_under_autoscale() {
    let packets = bursty_workload(6);
    let single = run_stream(
        &|| Box::new(FlowCounter) as Box<dyn EventDetector>,
        &[],
        VecSource::new("bursty", packets.clone()),
        &StreamConfig { window_secs: 1.0, ..Default::default() },
    )
    .unwrap();

    let telemetry = Telemetry::new(TelemetryConfig::default());
    let fabric = fabric_run_with_faults(
        "flow-counter",
        &packets,
        &autoscaled_config(),
        FabricConfig {
            workers: 2,
            recovery: RecoveryConfig { checkpoint_frames: 8, ..Default::default() },
            ..Default::default()
        },
        // One worker corrupts its 5th reply frame: the coordinator's
        // decoder rejects it, which must classify the peer dead and
        // recover — mid-autoscale, scores still multiset-identical.
        vec![Some("seed=11,corrupt-send=5"), None],
        Some(&telemetry),
    );

    assert_eq!(telemetry.counter("fabric_peer_failures_total").get(), 1);
    assert!(fabric.report.scale_events.iter().any(|e| e.is_scale_up()), "no scale-up");
    assert_eq!(sorted(single.scores), sorted(fabric.scores), "corruption recovery lost scores");
    assert_eq!(single.report.metrics, fabric.report.metrics);
}

#[test]
fn unknown_detector_fails_the_handshake() {
    let listener = FabricListener::bind(&Endpoint::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    let worker = std::thread::spawn(move || run_worker(&endpoint, &resolve, None));
    let err = run_fabric(
        "no-such-detector",
        &[],
        VecSource::new("empty", Vec::new()),
        &StreamConfig::default(),
        &FabricConfig { workers: 1, ..Default::default() },
        listener,
        None,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            idsbench_fabric::FabricError::Protocol(_) | idsbench_fabric::FabricError::Io(_)
        ),
        "unexpected error shape: {err}"
    );
    assert!(worker.join().unwrap().is_err(), "worker must also fail the handshake");
}
