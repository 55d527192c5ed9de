//! Setting a stream workload up, driving it through the repository's real
//! entry points (`run_stream`, `run_fabric`) and checking what comes back.
//!
//! Everything here calls `pub` items of the workspace crates from outside;
//! the only instrumentation on an untraced run is a [`MarkedSource`] around
//! the packet source and a counting [`TracedDetector`] around the detector.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use idsbench_core::preprocess::{split_at_fraction, EventInput};
use idsbench_core::runner::replay;
use idsbench_core::{EventDetector, LabeledPacket, ParsedView, TrafficModel, TrainView};
use idsbench_fabric::{
    run_fabric, run_worker, CoordMsg, Endpoint, FabricConfig, FabricCounters, FabricListener,
    WireItem,
};
use idsbench_flow::FlowTableConfig;
use idsbench_stream::{
    run_stream_with_telemetry, PacketSource, StreamConfig, StreamRun, ThresholdMode,
};
use idsbench_telemetry::{SpanTimer, Stage, StageHistogram, Telemetry};
use idsbench_trafficgen::ScenarioScale;

use crate::detectors::{DetectTrace, DetectorTotals, SharedTotals, System, TracedDetector};
use crate::sources::{ChainedSource, LoopedSource, Mark, MarkedSource, TracedSource, WindowMarks};
use crate::spec::{Traffic, NATIVE_WARMUP_SECS, WARMUP_FRACTION};

/// Where sockets and trace files go: inside the checkout, relative to the
/// directory the benchmark is run from (the repository root). Relative on
/// purpose — a Unix socket path must stay under ~100 bytes.
pub const OUT_DIR: &str = "benchmark/out";

/// A stream workload, resolved.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub name: &'static str,
    pub system: System,
    pub traffic: Traffic,
    pub fabric: bool,
    pub threshold: f64,
}

/// What one set-up pass leaves behind for the measured run.
pub struct Prepared {
    pub model: Arc<dyn TrafficModel>,
    pub warmup: Vec<LabeledPacket>,
    /// One lap of evaluation packets: the looped base trace, or the
    /// evaluation side of realisation 0 of a chained model.
    pub lap: Arc<[LabeledPacket]>,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("warmup", &self.warmup.len())
            .field("lap", &self.lap.len())
            .finish_non_exhaustive()
    }
}

/// Either source shape behind one type, so the driver calls are written
/// once.
#[derive(Debug)]
pub enum AnySource {
    Looped(LoopedSource),
    Chained(ChainedSource),
}

impl PacketSource for AnySource {
    fn name(&self) -> &str {
        match self {
            AnySource::Looped(source) => source.name(),
            AnySource::Chained(source) => source.name(),
        }
    }

    fn next_packet(&mut self) -> idsbench_core::Result<Option<LabeledPacket>> {
        match self {
            AnySource::Looped(source) => source.next_packet(),
            AnySource::Chained(source) => source.next_packet(),
        }
    }
}

fn build_model(traffic: Traffic) -> Result<Arc<dyn TrafficModel>, String> {
    let name = match traffic {
        Traffic::Looped(name) | Traffic::Chained(name) => name,
    };
    let spec = idsbench_trafficgen::spec(name).ok_or_else(|| format!("no scenario {name:?}"))?;
    Ok(Arc::from(spec.build(ScenarioScale::Full)))
}

/// Builds the model and one lap of traffic from `seed`.
pub fn build_traffic(spec: &StreamSpec, seed: u64) -> Result<Prepared, String> {
    let model = build_model(spec.traffic)?;
    let (warmup, lap) = match spec.traffic {
        Traffic::Looped(_) => split_at_fraction(model.materialize(seed), WARMUP_FRACTION),
        Traffic::Chained(_) => {
            let (warmup, mut rest) =
                ChainedSource::split_warmup(Arc::clone(&model), seed, 1, NATIVE_WARMUP_SECS);
            let mut lap = Vec::new();
            while let Some(packet) = rest.next_packet().map_err(|e| e.to_string())? {
                lap.push(packet);
            }
            (warmup, lap)
        }
    };
    if warmup.is_empty() || lap.is_empty() {
        return Err(format!("{}: empty warmup or evaluation slice", spec.name));
    }
    Ok(Prepared { model, warmup, lap: lap.into() })
}

/// Opens the workload's source for `laps` laps (realisations).
pub fn open_source(spec: &StreamSpec, traffic: &Prepared, seed: u64, laps: usize) -> AnySource {
    match spec.traffic {
        Traffic::Looped(name) => {
            AnySource::Looped(LoopedSource::new(name, Arc::clone(&traffic.lap), laps))
        }
        Traffic::Chained(_) => AnySource::Chained(
            ChainedSource::split_warmup(Arc::clone(&traffic.model), seed, laps, NATIVE_WARMUP_SECS)
                .1,
        ),
    }
}

/// How a driver call is instrumented.
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    /// Time the detector and the source, recording spans under `parent`.
    pub trace: Option<DetectTrace>,
    /// The detector's own inference-kernel histogram (sample period 1).
    pub infer: Option<Arc<StageHistogram>>,
    /// Runtime telemetry handed to the driver call itself.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Packets per slice mark of the window (0: no slices).
    pub slice_packets: u64,
}

/// What one driver call produced, with the window marks around it.
#[derive(Debug)]
pub struct Driven {
    pub run: StreamRun,
    pub marks: WindowMarks,
    /// Taken right after the driver call returned.
    pub returned: Mark,
    pub totals: DetectorTotals,
}

impl Driven {
    /// Seconds from the source's first `next_packet` call to the driver
    /// call returning its merged report.
    pub fn window_seconds(&self) -> f64 {
        self.marks
            .first
            .map_or(0.0, |first| self.returned.at.duration_since(first.at).as_secs_f64())
    }

    /// Evaluation packets per second over the whole window.
    pub fn pps(&self) -> f64 {
        self.marks.packets as f64 / self.window_seconds().max(1e-9)
    }

    /// The median slice rate of a sliced window (see
    /// [`WindowMarks::slice_rates`]); the whole-window rate otherwise.
    pub fn steady_pps(&self) -> f64 {
        let rates = self.marks.slice_rates();
        if rates.is_empty() {
            self.pps()
        } else {
            crate::stats::median(&rates)
        }
    }

    /// Process CPU microseconds per packet over the window.
    pub fn cpu_us_per_packet(&self) -> f64 {
        let first = self.marks.first.map_or(self.returned.cpu_seconds, |m| m.cpu_seconds);
        (self.returned.cpu_seconds - first) * 1e6 / self.marks.packets.max(1) as f64
    }

    /// Seconds from `started` to the first measured packet.
    pub fn setup_seconds(&self, started: Instant) -> f64 {
        self.marks.first.map_or(0.0, |first| first.at.duration_since(started).as_secs_f64())
    }

    /// Seconds from the source returning `None` to the call returning.
    pub fn drain_seconds(&self) -> f64 {
        self.marks.end.map_or(0.0, |end| self.returned.at.duration_since(end.at).as_secs_f64())
    }

    /// Packets the run lost or failed to account for: drops, packets the
    /// source handed out that the report does not count, and events the
    /// detector was given (or scored) that the report did not record.
    pub fn failed(&self) -> u64 {
        let report = &self.run.report;
        report.dropped_packets
            + self.marks.packets.abs_diff(report.eval_packets as u64)
            + self.totals.delivered.abs_diff(report.eval_items as u64)
            + self.totals.delivered.abs_diff(self.totals.scored)
    }
}

fn socket_path() -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    // Relaxed: only uniqueness within this process matters.
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    PathBuf::from(format!("{OUT_DIR}/fabric-{}-{n}.sock", std::process::id()))
}

/// Drives `source` through the workload's entry point: `run_stream` on one
/// shard, or `run_fabric` over `uds://` to one in-process `run_worker`
/// thread. Batch size, channel capacity, windows and flow table are the
/// crate defaults.
pub fn drive(
    spec: &StreamSpec,
    warmup: &[LabeledPacket],
    source: AnySource,
    threshold: ThresholdMode,
    instruments: &Instruments,
) -> Result<Driven, String> {
    let totals = SharedTotals::default();
    let alert_at = spec.threshold;
    let system = spec.system;
    let make = {
        let totals = Arc::clone(&totals);
        let trace = instruments.trace.clone();
        let infer = instruments.infer.clone();
        move || -> Box<dyn EventDetector> {
            let probe = infer.as_ref().map(|hist| SpanTimer::new(Arc::clone(hist), 1));
            Box::new(TracedDetector::new(
                system.fresh(probe),
                alert_at,
                Arc::clone(&totals),
                trace.clone(),
            ))
        }
    };
    let config = StreamConfig { threshold, ..StreamConfig::default() };
    let telemetry = instruments.telemetry.as_deref();
    let (marked, marks) = MarkedSource::new(source, instruments.slice_packets);

    let run = match &instruments.trace {
        None => call_driver(spec, &make, warmup, marked, &config, telemetry),
        Some(trace) => {
            let traced = TracedSource::new(marked, Arc::clone(&trace.tracer), trace.parent);
            call_driver(spec, &make, warmup, traced, &config, telemetry)
        }
    }?;
    let returned = Mark::now();
    drop(make);
    let marks = marks.lock().expect("marks lock").clone();
    let totals = *totals.lock().expect("totals lock");
    Ok(Driven { run, marks, returned, totals })
}

fn call_driver(
    spec: &StreamSpec,
    make: &(dyn Fn() -> Box<dyn EventDetector> + Sync),
    warmup: &[LabeledPacket],
    source: impl PacketSource,
    config: &StreamConfig,
    telemetry: Option<&Telemetry>,
) -> Result<StreamRun, String> {
    if spec.fabric {
        drive_fabric(spec.system, make, warmup, source, config, telemetry)
    } else {
        run_stream_with_telemetry(make, warmup, source, config, telemetry)
            .map_err(|e| e.to_string())
    }
}

fn drive_fabric(
    system: System,
    make: &(dyn Fn() -> Box<dyn EventDetector> + Sync),
    warmup: &[LabeledPacket],
    source: impl PacketSource,
    config: &StreamConfig,
    telemetry: Option<&Telemetry>,
) -> Result<StreamRun, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = socket_path();
    let endpoint = Endpoint::Uds(path.clone());
    let listener = FabricListener::bind(&endpoint).map_err(|e| format!("bind {endpoint}: {e}"))?;
    let fabric = FabricConfig { workers: 1, ..FabricConfig::default() };
    let outcome = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let resolve = |name: &str| (name == system.name()).then(make);
            run_worker(&endpoint, &resolve, None)
        });
        let run = run_fabric(system.name(), warmup, source, config, &fabric, listener, telemetry);
        let worker = worker.join();
        match (run, worker) {
            (Ok(run), Ok(Ok(()))) => Ok(run),
            (Err(e), _) => Err(format!("run_fabric: {e}")),
            (_, Ok(Err(e))) => Err(format!("run_worker: {e}")),
            (_, Err(_)) => Err("fabric worker thread panicked".to_string()),
        }
    });
    let _ = std::fs::remove_file(&path);
    outcome
}

/// One batch as the coordinator frames it for a worker.
pub fn encode_batch<'a>(first_seq: u64, burst: impl Iterator<Item = &'a LabeledPacket>) -> Vec<u8> {
    let items = burst
        .enumerate()
        .map(|(i, packet)| WireItem {
            seq: first_seq + i as u64,
            ts_micros: packet.packet.ts.as_micros(),
            label: packet.label,
            data: packet.packet.data.to_vec(),
        })
        .collect();
    CoordMsg::Batch { shard: 0, items }.encode()
}

/// Length prefix every frame travels with, bytes.
pub const FRAME_PREFIX_BYTES: u64 = 4;

/// Bytes per packet on the socket when `lap` travels as default-size
/// batches. Sequence numbers and timestamps are fixed-width on the wire, so
/// the value depends only on the payloads and where the batches end.
pub fn fabric_wire_bytes_per_packet(lap: &[LabeledPacket]) -> f64 {
    let bytes: u64 = lap
        .chunks(StreamConfig::default().batch_size)
        .map(|burst| encode_batch(0, burst.iter()).len() as u64 + FRAME_PREFIX_BYTES)
        .sum();
    bytes as f64 / lap.len().max(1) as f64
}

/// The fabric counters of a telemetry hub, read after a run.
pub fn fabric_counts(telemetry: &Telemetry) -> [u64; 4] {
    let counters = FabricCounters::register(telemetry);
    [
        counters.frames.get(),
        counters.bytes.get(),
        counters.reconnects.get(),
        counters.peer_failures.get(),
    ]
}

/// What the one-lap parity check measured on the way.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParityTimes {
    /// `TrainView::assemble` over the parsed warmup slice.
    pub assemble_seconds: f64,
    /// The threshold a `Calibrated` one-lap run resolves to.
    pub calibrated_threshold: f64,
    /// F1 of the one-lap run at the workload's committed threshold.
    pub f1_at_threshold: f64,
}

fn bits(scores: &[f64]) -> impl Iterator<Item = u64> + '_ {
    scores.iter().map(|score| score.to_bits())
}

/// The correctness gate of every child, off the clock: one lap of scores
/// from a direct single-thread `on_event` replay must equal a one-shard
/// `run_stream` — and, for the fabric workload, `run_fabric` — bit for bit.
pub fn parity_check(
    spec: &StreamSpec,
    traffic: &Prepared,
    seed: u64,
) -> Result<ParityTimes, String> {
    let flow = FlowTableConfig::default();
    let parsed: Vec<ParsedView> =
        traffic.warmup.iter().cloned().map(ParsedView::from_packet).collect();
    let started = Instant::now();
    let train = TrainView::assemble(parsed, flow);
    let assemble_seconds = started.elapsed().as_secs_f64();
    let eval = traffic.lap.iter().cloned().map(ParsedView::from_packet).collect();
    let input = EventInput { train, eval, flow_config: flow };
    let mut detector = spec.system.fresh(None);
    let direct = replay(detector.as_mut(), &input).map_err(|e| format!("direct replay: {e}"))?;
    drop(input);

    let calibrated = ThresholdMode::default();
    let mut paths = vec![("run_stream", StreamSpec { fabric: false, ..*spec })];
    if spec.fabric {
        paths.push(("run_fabric", *spec));
    }
    let mut times = ParityTimes { assemble_seconds, ..ParityTimes::default() };
    for (label, path) in paths {
        let source = open_source(&path, traffic, seed, 1);
        let driven = drive(&path, &traffic.warmup, source, calibrated, &Instruments::default())?;
        if !bits(&driven.run.scores).eq(bits(&direct.scores)) {
            return Err(format!(
                "{}: one-lap {label} scores differ from the direct replay ({} vs {} scores)",
                spec.name,
                driven.run.scores.len(),
                direct.scores.len()
            ));
        }
        if driven.failed() != 0 {
            return Err(format!("{}: one-lap {label} lost {} events", spec.name, driven.failed()));
        }
        times.calibrated_threshold = driven.run.report.threshold;
        times.f1_at_threshold = f1_at(&driven.run.scores, &driven.run.labels, spec.threshold);
    }
    Ok(times)
}

fn f1_at(scores: &[f64], labels: &[bool], threshold: f64) -> f64 {
    idsbench_core::metrics::ConfusionMatrix::from_scores(scores, labels, threshold).f1()
}

/// One set-up pass up to the measured driver call: build the model,
/// materialise a lap, run the parity check. Returns the traffic, the
/// instant the pass began (set-up time runs from there to the first
/// measured packet, so it includes the measured call's own warmup parse,
/// `TrainView::assemble` and `fit`) and what the parity check measured.
pub fn setup_pass(
    spec: &StreamSpec,
    seed: u64,
) -> Result<(Prepared, Instant, ParityTimes), String> {
    let started = Instant::now();
    let traffic = build_traffic(spec, seed)?;
    let times = parity_check(spec, &traffic, seed)?;
    Ok((traffic, started, times))
}

/// A free-standing histogram for the detectors' inference probes.
pub fn infer_histogram() -> Arc<StageHistogram> {
    Arc::new(StageHistogram::new(Stage::Infer, None))
}
