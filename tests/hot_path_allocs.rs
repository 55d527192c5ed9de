//! Pins the tentpole invariant of the allocation-free scoring hot path:
//! once Kitsune and HELAD are fitted and warmed up, scoring a packet
//! performs **zero** heap allocations.
//!
//! The test binary installs [`CountingAllocator`] as its global allocator,
//! fits each system, replays a warmup slice so every per-entity map entry
//! and every scratch buffer reaches its steady-state capacity, and then
//! counts allocator traffic across a measured scoring pass over traffic on
//! the *same* flows (fresh timestamps, so damped statistics keep evolving
//! forward in time, exactly like a long-running deployment).
//!
//! Everything runs inside a single `#[test]` because the counters are
//! process-global: parallel test threads would bleed allocations into each
//! other's measurement windows.
//!
//! The invariant is pinned **with telemetry enabled** too: a live counter,
//! sampled inference probes, and per-stage histograms join the measured
//! window, and the budget stays zero — observability must be free on the
//! hot path.
//!
//! The **shard loop** around the detectors is pinned too: a warmed
//! `ShardLoop` — Kitsune for packet format, Slips and DNN for flow format —
//! scores steady-state 32-packet bursts through `on_batch` with zero
//! allocations, so its burst staging must reuse its buffers.
//!
//! The **flow table under key churn** is pinned too: at a fixed flow
//! capacity, a stream of never-repeating 5-tuples (each packet opens one
//! flow and evicts the stalest) leaves the table's memory where warm-up put
//! it — the flow map reuses its deleted slots instead of growing.
//!
//! Steady-state **training** is pinned the same way: after one warm-up step
//! has sized a model's scratch and its optimizer state, further steps of
//! the autoencoder, the LSTM regressor and the MLP allocate nothing.
//!
//! The **in-process stream path** is pinned per packet: a whole
//! `run_stream` (feeder, feeder→shard channels, shard loops, batch recycle
//! lane) costs at most 0.1 allocations per extra packet, measured as the
//! difference between two stream lengths so the fixed setup and merge
//! cancel out. It runs Slips at 2 shards for the flow format, and Kitsune
//! at 1 and 2 shards for the packet format, whose feeder extracts a boxed
//! AfterImage row per packet: rows must come back through the recycle lane.

use idsbench::core::allocwatch::{allocation_snapshot, CountingAllocator};
use idsbench::core::{
    Event, EventDetector, FlowEventAssembler, InputFormat, Label, LabeledFlow, LabeledPacket,
    ParsedView, TrainView,
};
use idsbench::dnn::Dnn;
use idsbench::flow::{FlowTable, FlowTableConfig};
use idsbench::helad::Helad;
use idsbench::kitsune::Kitsune;
use idsbench::net::{MacAddr, PacketBuilder, ParsedPacket, TcpFlags, Timestamp};
use idsbench::nn::{
    Activation, Adam, Autoencoder, AutoencoderConfig, Loss, LstmRegressor, LstmRegressorConfig,
    Matrix, MlpBuilder,
};
use idsbench::slips::Slips;
use idsbench::stream::{
    run_stream, Recorder, ShardLoop, StreamConfig, StreamItem, ThresholdMode, VecSource,
};
use idsbench::telemetry::{Counter, Stage, Telemetry, TelemetryConfig};
use std::net::Ipv4Addr;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Periodic traffic over a fixed set of flows: four devices talking to one
/// server on stable 5-tuples. Replaying later index ranges reuses the same
/// channels/sockets with later timestamps, so a warmed detector sees no new
/// entities — the steady state of a deployment.
fn packet_at(i: u64) -> ParsedView {
    let device = (i % 4) as u8 + 1;
    let p = PacketBuilder::new()
        .ethernet(MacAddr::from_host_id(u32::from(device)), MacAddr::from_host_id(100))
        .ipv4(Ipv4Addr::new(10, 0, 0, device), Ipv4Addr::new(10, 0, 0, 100))
        .tcp(40_000 + u16::from(device), 1883, TcpFlags::PSH | TcpFlags::ACK)
        .payload_len(64 + (i % 32) as usize)
        .build(Timestamp::from_micros(i * 10_000));
    ParsedView::from_packet(LabeledPacket::new(p, Label::Benign))
}

/// Scores `measure` after `warmup` and returns the allocator traffic of the
/// measured pass.
fn measured_allocations(
    detector: &mut dyn EventDetector,
    warmup: &[ParsedView],
    measure: &[ParsedView],
) -> (u64, u64) {
    for view in warmup {
        let score = detector.on_event(&Event::Packet(view)).expect("packet event scored");
        assert!(score.is_finite(), "{}: warmup score must be finite", detector.name());
    }
    let before = allocation_snapshot();
    let mut checksum = 0.0;
    for view in measure {
        checksum += detector.on_event(&Event::Packet(view)).expect("packet event scored");
    }
    let after = allocation_snapshot();
    assert!(checksum.is_finite(), "{}: scores must stay finite", detector.name());
    (after.allocations_since(&before), after.bytes_since(&before))
}

/// Like [`measured_allocations`], but with live telemetry on the budget:
/// bumps `packets` once per scored packet (exactly what the stream feeder
/// does) while the detector's attached inference probe samples spans.
fn measured_allocations_instrumented(
    detector: &mut dyn EventDetector,
    warmup: &[ParsedView],
    measure: &[ParsedView],
    packets: &Counter,
) -> (u64, u64) {
    for view in warmup {
        let score = detector.on_event(&Event::Packet(view)).expect("packet event scored");
        assert!(score.is_finite(), "{}: warmup score must be finite", detector.name());
    }
    let before = allocation_snapshot();
    let mut checksum = 0.0;
    for view in measure {
        packets.inc();
        checksum += detector.on_event(&Event::Packet(view)).expect("packet event scored");
    }
    let after = allocation_snapshot();
    assert!(checksum.is_finite(), "{}: scores must stay finite", detector.name());
    (after.allocations_since(&before), after.bytes_since(&before))
}

#[test]
fn steady_state_scoring_allocates_nothing() {
    // Sanity: the counting allocator must actually be live in this binary,
    // otherwise the zero assertions below would be vacuous.
    let before = allocation_snapshot();
    let probe: Vec<u8> = Vec::with_capacity(4096);
    std::hint::black_box(&probe);
    let after = allocation_snapshot();
    assert!(after.allocations_since(&before) >= 1, "counting allocator is not installed");
    assert!(after.bytes_since(&before) >= 4096);
    drop(probe);

    let views: Vec<ParsedView> = (0..2_000).map(packet_at).collect();
    let (train, rest) = views.split_at(600);
    let (warm, measure) = rest.split_at(700);
    let train = TrainView { packets: train.to_vec(), flows: Vec::new() };

    let mut kitsune = Kitsune::default();
    EventDetector::fit(&mut kitsune, &train);
    let (allocs, bytes) = measured_allocations(&mut kitsune, warm, measure);
    assert_eq!(
        allocs,
        0,
        "Kitsune steady-state scoring must not allocate ({allocs} allocations, {bytes} bytes \
         over {} packets)",
        measure.len()
    );

    let mut helad = Helad::default();
    EventDetector::fit(&mut helad, &train);
    let (allocs, bytes) = measured_allocations(&mut helad, warm, measure);
    assert_eq!(
        allocs,
        0,
        "HELAD steady-state scoring must not allocate ({allocs} allocations, {bytes} bytes \
         over {} packets)",
        measure.len()
    );

    // ---- Same pass with telemetry attached: observability must be free ----
    let telemetry = Telemetry::new(TelemetryConfig { sample_every: 8 });
    let packets = telemetry.counter("packets_total");

    let mut kitsune = Kitsune::default();
    EventDetector::fit(&mut kitsune, &train);
    kitsune.attach_inference_probe(telemetry.span(Stage::Infer, Some(0)));
    let (allocs, bytes) = measured_allocations_instrumented(&mut kitsune, warm, measure, &packets);
    assert_eq!(
        allocs, 0,
        "Kitsune with telemetry probes must not allocate ({allocs} allocations, {bytes} bytes)"
    );

    let mut helad = Helad::default();
    EventDetector::fit(&mut helad, &train);
    helad.attach_inference_probe(telemetry.span(Stage::Infer, Some(1)));
    let (allocs, bytes) = measured_allocations_instrumented(&mut helad, warm, measure, &packets);
    assert_eq!(
        allocs, 0,
        "HELAD with telemetry probes must not allocate ({allocs} allocations, {bytes} bytes)"
    );

    assert_eq!(packets.get(), 2 * measure.len() as u64, "counter must see every measured packet");
    assert!(
        !telemetry.stage(Stage::Infer, Some(0)).histogram().is_empty(),
        "Kitsune's sampled inference spans must have recorded"
    );
    assert!(
        !telemetry.stage(Stage::Infer, Some(1)).histogram().is_empty(),
        "HELAD's sampled inference spans must have recorded"
    );

    // ---- Flow-format detectors: the eviction path must be clean too ----
    flow_detectors_evict_without_allocating();

    // ---- The shard loop around them: burst staging reuses its buffers ----
    // Packet detectors: a 32-packet burst is four full eight-row lane
    // blocks of every autoencoder and of HELAD's LSTM windows.
    for mut detector in
        [Box::new(Kitsune::default()) as Box<dyn EventDetector>, Box::new(Helad::default())]
    {
        detector.fit(&train);
        shard_loop_bursts_allocate_nothing(detector, warm, measure);
    }
    let sessions: Vec<ParsedView> = (0..1_000).flat_map(session_at).collect();
    let train = TrainView::assemble(sessions[..500].to_vec(), FlowTableConfig::default());
    for mut detector in
        [Box::new(Slips::default()) as Box<dyn EventDetector>, Box::new(Dnn::default())]
    {
        detector.fit(&train);
        shard_loop_bursts_allocate_nothing(detector, &sessions[500..3_500], &sessions[3_500..]);
    }

    // ---- Flow table under key churn: one fresh flow in, one evicted ----
    flow_table_churn_allocates_nothing();

    // ---- Training: scratch is sized by the first step, then reused ----
    training_steps_allocate_nothing();

    // ---- The in-process stream path: feeder, channels, shards, recycle ----
    stream_path_allocates_at_most_a_tenth_per_packet();
}

/// 128 long-lived flows (16 devices × 8 source ports) to one broker,
/// 1 ms apart, with payloads of 64–127 bytes.
fn broker_packet(i: u64) -> LabeledPacket {
    let device = (i % 16) as u8 + 1;
    let port = 40_000 + (i / 16 % 8) as u16;
    let p = PacketBuilder::new()
        .ethernet(MacAddr::from_host_id(u32::from(device)), MacAddr::from_host_id(100))
        .ipv4(Ipv4Addr::new(10, 0, 0, device), Ipv4Addr::new(10, 0, 0, 100))
        .tcp(port, 1883, TcpFlags::PSH | TcpFlags::ACK)
        .payload_len(64 + (i % 64) as usize)
        .build(Timestamp::from_micros(1_000 * i));
    LabeledPacket::new(p, Label::Benign)
}

/// A `run_stream` detector factory.
type Factory = dyn Fn() -> Box<dyn EventDetector> + Sync;

/// Allocations of one `run_stream` of `factory`'s detector at `shards`
/// shards over `packets` packets, built before the window opens.
fn stream_run_allocations(factory: &Factory, shards: usize, packets: u64) -> u64 {
    let warmup: Vec<LabeledPacket> = (0..512).map(broker_packet).collect();
    let source = VecSource::new("stream-path", (512..512 + packets).map(broker_packet).collect());
    let config = StreamConfig { shards, ..Default::default() };
    let before = allocation_snapshot();
    let run = run_stream(factory, &warmup, source, &config).expect("stream run");
    let after = allocation_snapshot();
    assert_eq!(run.report.eval_packets as u64, packets, "every packet fed");
    after.allocations_since(&before)
}

/// Slips exercises the flow-format path; Kitsune the packet-format one, whose
/// feeder-side extraction stage attaches a boxed row to every view — rows
/// that must come back through the recycle lane, not be allocated anew.
fn stream_path_allocates_at_most_a_tenth_per_packet() {
    let slips = || Box::new(Slips::default()) as Box<dyn EventDetector>;
    let kitsune = || Box::new(Kitsune::default()) as Box<dyn EventDetector>;
    let runs: [(&str, &Factory, usize); 3] =
        [("Slips", &slips, 2), ("Kitsune", &kitsune, 1), ("Kitsune", &kitsune, 2)];
    // Lanes fill as timing has it, in a debug build too (its shards need not
    // stay far slower than its feeder), so both profiles add enough packets
    // that one more set of full lanes (about 4,400 rows at 2 shards) stays
    // well inside the budget.
    let (short, long) = (16_384u64, 131_072u64);
    for (name, factory, shards) in runs {
        let at_short = stream_run_allocations(factory, shards, short);
        let at_long = stream_run_allocations(factory, shards, long);
        // Setup, warmup and the final merge cost the same in both runs; the
        // difference is what the extra packets cost.
        let marginal = at_long.saturating_sub(at_short) as f64 / (long - short) as f64;
        assert!(
            marginal <= 0.1,
            "run_stream of {name} at {shards} shard(s): {marginal:.3} allocations per packet \
             ({at_short} at {short} packets, {at_long} at {long})"
        );
    }
}

/// A UDP packet on a 5-tuple no other index shares (source address
/// `10.0.0.0 + i`), 50 µs after its predecessor.
fn fresh_flow_packet(i: u32) -> ParsedPacket {
    let p = PacketBuilder::new()
        .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
        .ipv4(Ipv4Addr::from(0x0a00_0000 | i), Ipv4Addr::new(192, 0, 2, 1))
        .udp(40_000, 53)
        .build(Timestamp::from_micros(u64::from(i) * 50));
    ParsedPacket::parse(&p).expect("built packet parses")
}

/// A `FlowTable` held at 1 000 flows is fed one fresh 5-tuple per packet,
/// so every packet past the first thousand evicts the stalest flow. The
/// flow map's deleted slots pile up until it rehashes; the one growth that
/// takes it to its steady size lands at about ten times the capacity, well
/// inside the warm-up. The next 10⁵ packets must allocate nothing.
fn flow_table_churn_allocates_nothing() {
    const CAPACITY: u32 = 1_000;
    const WARMUP: u32 = 100_000;
    const MEASURED: u32 = 100_000;
    let mut table =
        FlowTable::new(FlowTableConfig { max_flows: CAPACITY as usize, ..Default::default() });
    let mut evicted = 0u32;
    for i in 0..WARMUP {
        table.observe_with(&fresh_flow_packet(i), |_| evicted += 1);
    }
    let (mut allocs, mut bytes) = (0, 0);
    for i in WARMUP..WARMUP + MEASURED {
        // Built outside the counted window: only the table is on the budget.
        let packet = fresh_flow_packet(i);
        let before = allocation_snapshot();
        table.observe_with(&packet, |_| evicted += 1);
        let after = allocation_snapshot();
        allocs += after.allocations_since(&before);
        bytes += after.bytes_since(&before);
    }
    assert_eq!(evicted, WARMUP + MEASURED - CAPACITY, "one eviction per packet past capacity");
    assert_eq!(table.active_flows(), CAPACITY as usize);
    assert_eq!(
        allocs, 0,
        "FlowTable churn at constant load must not allocate ({allocs} allocations, {bytes} \
         bytes over {MEASURED} packets)"
    );
}

/// Drives a fitted detector through a [`ShardLoop`] (Online recorder, as a
/// fixed-threshold deployment runs) in the feeder's 32-packet bursts: after
/// `warm`, the `on_batch` calls over `measure` must allocate nothing.
fn shard_loop_bursts_allocate_nothing(
    detector: Box<dyn EventDetector>,
    warm: &[ParsedView],
    measure: &[ParsedView],
) {
    let name = detector.name().to_string();
    let flows = detector.input_format() == InputFormat::Flows;
    // Every burst is built before the measured window opens.
    let bursts = |views: &[ParsedView], first_seq: usize| -> Vec<Vec<StreamItem>> {
        let item = |(at, view): (usize, &ParsedView)| StreamItem {
            seq: (first_seq + at) as u64,
            view: view.clone(),
        };
        let items: Vec<(usize, &ParsedView)> = views.iter().enumerate().collect();
        items.chunks(32).map(|burst| burst.iter().copied().map(item).collect()).collect()
    };
    let (warm, measure) = (bursts(warm, 0), bursts(measure, warm.len()));
    let mut shard = ShardLoop::new(
        0,
        detector,
        Recorder::for_mode(ThresholdMode::Fixed(0.5)),
        flows.then(|| FlowEventAssembler::new(FlowTableConfig::default())),
        10.0,
        false,
        None,
    );
    for burst in &warm {
        shard.on_batch(burst).expect("one score per event");
    }
    let before = allocation_snapshot();
    for burst in &measure {
        shard.on_batch(burst).expect("one score per event");
    }
    let after = allocation_snapshot();
    let (allocs, bytes) = (after.allocations_since(&before), after.bytes_since(&before));
    let packets: usize = measure.iter().map(Vec::len).sum();
    assert_eq!(
        allocs, 0,
        "{name}: steady-state ShardLoop::on_batch must not allocate ({allocs} allocations, \
         {bytes} bytes over {packets} packets)"
    );
    assert!(shard.into_outcome(0.0).recorder.items() > 0, "{name}: the bursts must score events");
}

/// Allocator traffic of `steps` calls of `step`, after one warm-up call.
fn training_allocations(steps: usize, mut step: impl FnMut(usize) -> f64) -> (u64, u64) {
    assert!(step(0).is_finite(), "warm-up step must be finite");
    let before = allocation_snapshot();
    let mut checksum = 0.0;
    for i in 1..=steps {
        checksum += step(i);
    }
    let after = allocation_snapshot();
    assert!(checksum.is_finite(), "training losses must stay finite");
    (after.allocations_since(&before), after.bytes_since(&before))
}

/// After one warm-up step, training allocates **zero bytes**: the HELAD
/// (100→50) and KitNET-member (10→8) autoencoders, HELAD's LSTM (hidden 12,
/// window 12) and the DNN's MLP at a fixed 64-row batch.
fn training_steps_allocate_nothing() {
    let value = |i: usize| ((i as f64) * 0.37).sin().abs();

    for (width, hidden_ratio) in [(100, 0.5), (10, 0.75)] {
        let mut ae =
            Autoencoder::new(width, AutoencoderConfig { hidden_ratio, ..Default::default() });
        let samples: Vec<f64> = (0..8 * width).map(value).collect();
        let (allocs, bytes) = training_allocations(1_000, |i| {
            ae.train_sample(&samples[(i % 8) * width..(i % 8 + 1) * width])
        });
        assert_eq!(
            bytes, 0,
            "Autoencoder::train_sample at width {width} must not allocate ({allocs} allocations)"
        );
    }

    let mut lstm =
        LstmRegressor::new(1, LstmRegressorConfig { hidden_size: 12, ..Default::default() });
    let history: Vec<f64> = (0..64).map(value).collect();
    let (allocs, bytes) = training_allocations(1_000, |i| {
        let start = i % 50;
        lstm.train_window(&history[start..start + 12], history[start + 12])
    });
    assert_eq!(bytes, 0, "LstmRegressor::train_window must not allocate ({allocs} allocations)");

    let mut mlp = MlpBuilder::new(42)
        .layer(64, Activation::Relu)
        .layer(48, Activation::Relu)
        .layer(32, Activation::Relu)
        .layer(1, Activation::Sigmoid)
        .build();
    let x = Matrix::from_fn(64, 42, |r, c| value(r * 42 + c));
    let y = Matrix::from_fn(64, 1, |r, _| (r % 2) as f64);
    let mut opt = Adam::new(0.005);
    let (allocs, bytes) =
        training_allocations(100, |_| mlp.train_batch(&x, &y, Loss::BinaryCrossEntropy, &mut opt));
    assert_eq!(
        bytes, 0,
        "Mlp::train_batch at a fixed batch must not allocate ({allocs} allocations)"
    );
}

/// One complete TCP session (handshake, data, orderly close) on a stable
/// per-device 5-tuple to an external service. Each later session on the
/// same tuple ends the previous one's TIME_WAIT, so the flow table emits
/// exactly one eviction per session — recurring evictions over a fixed
/// entity set, the steady state of the flow-input hot path. The whole
/// trace spans well under one Slips profile window, so no per-window
/// counter state is minted mid-measurement.
fn session_at(s: u64) -> Vec<ParsedView> {
    let device = (s % 2) as u8 + 1;
    let src = Ipv4Addr::new(10, 0, 0, device);
    let dst = Ipv4Addr::new(198, 51, 100, 7);
    let sport = 40_000 + u16::from(device);
    let base_micros = s * 5_000;
    let mut views = Vec::new();
    let mut push = |flags: TcpFlags, forward: bool, payload: usize, offset: u64| {
        let (s_ip, d_ip, s_mac, d_mac, sp, dp) = if forward {
            (src, dst, u32::from(device), 99, sport, 8080)
        } else {
            (dst, src, 99, u32::from(device), 8080, sport)
        };
        let p = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(s_mac), MacAddr::from_host_id(d_mac))
            .ipv4(s_ip, d_ip)
            .tcp(sp, dp, flags)
            .payload_len(payload)
            .build(Timestamp::from_micros(base_micros + offset));
        views.push(ParsedView::from_packet(LabeledPacket::new(p, Label::Benign)));
    };
    push(TcpFlags::SYN, true, 0, 0);
    push(TcpFlags::SYN | TcpFlags::ACK, false, 0, 400);
    push(TcpFlags::PSH | TcpFlags::ACK, true, 120, 800);
    push(TcpFlags::FIN | TcpFlags::ACK, true, 0, 1_200);
    push(TcpFlags::FIN | TcpFlags::ACK, false, 0, 1_600);
    views
}

/// Replays `views` through detector + per-driver flow assembler (the exact
/// event order both drivers produce), returning `(allocations, bytes,
/// evictions)` of the pass.
fn replay_flow_events(
    detector: &mut dyn EventDetector,
    assembler: &mut FlowEventAssembler,
    evicted: &mut Vec<LabeledFlow>,
    views: &[ParsedView],
) -> (u64, u64, usize) {
    let before = allocation_snapshot();
    let mut evictions = 0usize;
    let mut checksum = 0.0;
    for view in views {
        assert_eq!(detector.on_event(&Event::Packet(view)), None, "flow detectors skip packets");
        assembler.observe(view, |flow| evicted.push(flow));
        for flow in evicted.drain(..) {
            evictions += 1;
            checksum += detector.on_event(&Event::FlowEvicted(&flow)).expect("flow event scored");
        }
    }
    let after = allocation_snapshot();
    assert!(checksum.is_finite());
    (after.allocations_since(&before), after.bytes_since(&before), evictions)
}

/// Warmed DNN and Slips must score recurring flow evictions without heap
/// allocations — per eviction, not just per packet: the eviction machinery
/// (flow table, label fold, feature vector, evidence accumulation) is on
/// the budget alongside the model inference. Both run with sampled
/// telemetry inference probes attached, so the instrumented eviction path
/// is what gets pinned.
fn flow_detectors_evict_without_allocating() {
    let sessions: Vec<Vec<ParsedView>> = (0..1_000).map(session_at).collect();
    // 100 sessions to fit on, 600 to reach steady state (group histories
    // hit their 256-entry caps), 300 measured.
    let train_views: Vec<ParsedView> = sessions[..100].iter().flatten().cloned().collect();
    let train = TrainView::assemble(train_views, FlowTableConfig::default());

    let telemetry = Telemetry::new(TelemetryConfig { sample_every: 8 });
    let mut dnn = Dnn::default();
    dnn.attach_inference_probe(telemetry.span(Stage::Infer, Some(0)));
    let mut slips = Slips::default();
    slips.attach_inference_probe(telemetry.span(Stage::Infer, Some(1)));

    for mut detector in
        [Box::new(dnn) as Box<dyn EventDetector>, Box::new(slips) as Box<dyn EventDetector>]
    {
        let name = detector.name().to_string();
        detector.fit(&train);
        let mut assembler = FlowEventAssembler::new(FlowTableConfig::default());
        let mut evicted = Vec::new();
        for session in &sessions[100..700] {
            replay_flow_events(detector.as_mut(), &mut assembler, &mut evicted, session);
        }
        let (mut allocs, mut bytes, mut evictions) = (0, 0, 0);
        for session in &sessions[700..] {
            let (a, b, e) =
                replay_flow_events(detector.as_mut(), &mut assembler, &mut evicted, session);
            allocs += a;
            bytes += b;
            evictions += e;
        }
        assert!(evictions >= 299, "{name}: expected ~one eviction per session, got {evictions}");
        assert_eq!(
            allocs, 0,
            "{name}: warmed eviction path must not allocate ({allocs} allocations, {bytes} \
             bytes over {evictions} evictions)"
        );
    }

    for shard in [0, 1] {
        assert!(
            !telemetry.stage(Stage::Infer, Some(shard)).histogram().is_empty(),
            "sampled inference spans must have recorded for probe {shard}"
        );
    }
}
