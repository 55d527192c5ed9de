//! One child run: one workload, one seed, one `ChildResult`.
//!
//! An untraced child runs [`SEGMENTS`] segments: each sets up from its own
//! sub-seed (ending in the bitwise parity check) and runs one measured
//! window; `pps` (packets ÷ wall of the whole window), CPU and set-up time
//! are medians over the segments. A traced
//! child sets up once, runs the same window twice — plain, then with the
//! timing wrappers — replays the stages on one thread, times the
//! single-function kernels, and reports the per-layer metrics; its spans
//! are written to `benchmark/out/trace-<workload>.json`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use idsbench_core::preprocess::split_at_fraction;
use idsbench_core::runner::{run_grid, DetectorFactory, EvalConfig, Experiment};
use idsbench_core::{Dataset, EventDetector, LabeledPacket, TrafficModel, TrainView};
use idsbench_flow::FlowTableConfig;
use idsbench_stream::ThresholdMode;
use idsbench_telemetry::{LatencyHistogram, Telemetry};
use idsbench_trafficgen::ScenarioScale;

use crate::detectors::{DetectTrace, DetectorTotals, SharedTotals, System, TracedDetector};
use crate::engine::{
    drive, fabric_counts, fabric_wire_bytes_per_packet, infer_histogram, open_source, setup_pass,
    Driven, Instruments, StreamSpec, OUT_DIR,
};
use crate::host::peak_rss_mb;
use crate::replay::{stage_replay, StageBudget};
use crate::spec::{
    segment_seed, Kind, Workload, PER_LAYER, SEGMENTS, SLICES_PER_WINDOW, WARMUP_FRACTION,
};
use crate::stats::{mean, median, ChildResult, Metric};
use crate::trace::Tracer;
use crate::{kernels, spec};

/// What the command line asked of one child.
#[derive(Debug, Clone, Copy)]
pub struct ChildOptions {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// One lap, one segment, correctness only: no metric is reported.
    pub quick: bool,
}

impl ChildOptions {
    /// Laps of one measured window.
    pub fn window_laps(&self) -> usize {
        if self.quick {
            1
        } else {
            self.workload.window_laps(self.seconds)
        }
    }
}

/// Per-layer values by name; whatever a run does not set reads 0.
#[derive(Debug, Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::unit_of(name).is_some(), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    /// The values that must repeat exactly (see [`spec::EXACT`]), of those
    /// this run set.
    fn counts(&self) -> Vec<Metric> {
        spec::EXACT
            .iter()
            .filter_map(|&name| Some(Metric::new(name, *self.0.get(name)?, spec::unit_of(name)?)))
            .collect()
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| Metric::new(m.name, self.0.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    }
}

fn end_to_end(pps: f64, cpu_us: f64, setup_s: f64) -> Vec<Metric> {
    let values = [pps, cpu_us, setup_s, peak_rss_mb()];
    spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(metric, value)| Metric::new(metric.name, value, metric.unit))
        .collect()
}

/// Runs one child to completion.
pub fn run_child(options: &ChildOptions) -> Result<ChildResult, String> {
    if cfg!(debug_assertions) && !options.quick {
        return Err("refusing to report timings from a debug build; build with --release \
                    (or pass --quick for a correctness-only run)"
            .to_string());
    }
    match options.workload.kind {
        Kind::Stream { system, traffic, fabric, threshold } => {
            let spec =
                StreamSpec { name: options.workload.name, system, traffic, fabric, threshold };
            if options.trace {
                traced_stream(options, &spec)
            } else {
                plain_stream(options, &spec)
            }
        }
        Kind::Grid => grid(options),
    }
}

fn fixed(spec: &StreamSpec) -> ThresholdMode {
    ThresholdMode::Fixed(spec.threshold)
}

fn plain_stream(options: &ChildOptions, spec: &StreamSpec) -> Result<ChildResult, String> {
    let segments = if options.quick { 1 } else { SEGMENTS };
    let (mut setups, mut rates, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let (mut f1s, mut wire_bytes) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut totals = DetectorTotals::default();
    for segment in 0..segments {
        let seed = segment_seed(options.seed, segment);
        let (prepared, started, parity) = setup_pass(spec, seed)?;
        let laps = options.window_laps();
        let source = open_source(spec, &prepared, seed, laps);
        let slice_packets = ((prepared.lap.len() * laps) as u64 / SLICES_PER_WINDOW).max(1);
        let instruments = Instruments { slice_packets, ..Instruments::default() };
        let driven = drive(spec, &prepared.warmup, source, fixed(spec), &instruments)?;
        let setup_seconds = driven.setup_seconds(started);
        eprintln!(
            "# {} segment {segment}: set-up {setup_seconds:.3} s, {:.0} packets/s over {:.2} s \
             (steady {:.0}); a calibrated lap resolves threshold {:e} (committed {:e})",
            spec.name,
            driven.pps(),
            driven.window_seconds(),
            driven.steady_pps(),
            parity.calibrated_threshold,
            spec.threshold
        );
        setups.push(setup_seconds);
        rates.push(driven.pps());
        cpus.push(driven.cpu_us_per_packet());
        f1s.push(parity.f1_at_threshold);
        if spec.fabric {
            wire_bytes.push(fabric_wire_bytes_per_packet(&prepared.lap));
        }
        attempted += driven.marks.packets;
        failed += driven.failed();
        totals.add(&driven.totals);
    }
    let mut exact = Layers::default();
    exact.set("detector.events_scored", totals.scored as f64);
    exact.set("detector.alerts", totals.alerts as f64);
    exact.set("core.f1", mean(&f1s));
    if spec.fabric {
        exact.set("fabric.wire_bytes_per_packet", mean(&wire_bytes));
    }
    let metrics = if options.quick {
        Vec::new()
    } else {
        end_to_end(median(&rates), median(&cpus), median(&setups))
    };
    Ok(ChildResult {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        counts: exact.counts(),
    })
}

/// Total nanoseconds a bucketed histogram holds, using each bucket's
/// representative value as the histogram itself reports it.
fn histogram_total(hist: &LatencyHistogram) -> f64 {
    let mut total = 0.0;
    for (bucket, count) in hist.nonzero_buckets() {
        let mut single = LatencyHistogram::default();
        single.add_bucket(bucket, 1);
        total += single.percentile(0.5) as f64 * count as f64;
    }
    total
}

fn traced_stream(options: &ChildOptions, spec: &StreamSpec) -> Result<ChildResult, String> {
    let laps = options.window_laps();
    let replay_laps = (laps / 2).max(1);
    let seed = options.seed;
    let tracer = Arc::new(Tracer::new(spec.name));
    let root = tracer.open("run", 0);
    let mut layers = Layers::default();

    let setup = tracer.open("setup", root);
    let (prepared, _, parity) = setup_pass(spec, seed)?;
    tracer.close(setup);
    layers.set("core.assemble_s", parity.assemble_seconds);
    layers.set("core.f1", parity.f1_at_threshold);

    // One measured window under `span`, sliced like an untraced one and
    // otherwise instrumented as asked.
    let slice_packets = ((prepared.lap.len() * laps) as u64 / SLICES_PER_WINDOW).max(1);
    let window = |span: u32, instruments: Instruments| -> Result<Driven, String> {
        let source = open_source(spec, &prepared, seed, laps);
        let instruments = Instruments { slice_packets, ..instruments };
        let driven = drive(spec, &prepared.warmup, source, fixed(spec), &instruments)?;
        tracer.close(span);
        Ok(driven)
    };
    // The same window, untraced then traced: their difference is the
    // tracing overhead, and allocator traffic is read off the clean one.
    let plain = window(tracer.open("plain", root), Instruments::default())?;
    let infer = infer_histogram();
    let telemetry = spec.fabric.then(|| Arc::new(Telemetry::default()));
    let span = tracer.open("traced", root);
    let traced = window(
        span,
        Instruments {
            trace: Some(DetectTrace { tracer: Arc::clone(&tracer), parent: span }),
            infer: Some(Arc::clone(&infer)),
            telemetry: telemetry.clone(),
            ..Instruments::default()
        },
    )?;
    let mut failed = plain.failed() + traced.failed();
    let mut attempted = plain.marks.packets + traced.marks.packets;
    if (plain.totals.scored, plain.totals.alerts) != (traced.totals.scored, traced.totals.alerts) {
        return Err(format!(
            "{}: traced run scored {} events / {} alerts, plain run {} / {}",
            spec.name,
            traced.totals.scored,
            traced.totals.alerts,
            plain.totals.scored,
            plain.totals.alerts
        ));
    }
    stream_layers(&mut layers, &plain, &traced, &tracer);
    // The probe fires once per call into the inference kernel — per
    // 32-row batch on a packet detector — so divide by events, not calls.
    layers.set(
        "detector.infer_ns_per_event",
        histogram_total(&infer.histogram().snapshot()) / traced.totals.scored.max(1) as f64,
    );
    if let Some(telemetry) = &telemetry {
        let [frames, bytes, reconnects, peer_failures] = fabric_counts(telemetry);
        layers.set("fabric.frames", frames as f64);
        layers.set("fabric.bytes", bytes as f64);
        layers.set("fabric.reconnects", reconnects as f64);
        layers.set("fabric.peer_failures", peer_failures as f64);
        failed += peer_failures;
    }

    // ROADMAP's <= 5 % instrumentation gate, on the feeder-bound workload
    // where per-packet telemetry costs the most.
    if spec.name == "slips-iot" {
        let instruments =
            Instruments { telemetry: Some(Arc::new(Telemetry::default())), ..Default::default() };
        let with = window(tracer.open("telemetry", root), instruments)?;
        failed += with.failed();
        attempted += with.marks.packets;
        let (without, with) = (plain.pps(), with.pps());
        layers.set("telemetry.overhead_share", (without - with) / without);
    }

    let replay_span = tracer.open("replay", root);
    let source = open_source(spec, &prepared, seed, replay_laps);
    let budget = stage_replay(spec, &prepared, source, &tracer, replay_span)?;
    tracer.close(replay_span);

    let span = tracer.open("kernels", root);
    let channel_ns = kernel_layers(&mut layers, &prepared.warmup, seed);
    tracer.close(span);
    budget_layers(&mut layers, &budget, spec.fabric, channel_ns, plain.pps());
    tracer.close(root);

    layers.set("failed_share", failed as f64 / attempted.max(1) as f64);
    write_trace(&tracer, spec.name)?;
    Ok(ChildResult {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        counts: layers.counts(),
        metrics: layers.into_metrics(),
    })
}

/// Layers read off the real driver calls.
fn stream_layers(layers: &mut Layers, plain: &Driven, traced: &Driven, tracer: &Tracer) {
    let packets = traced.marks.packets.max(1) as f64;
    let window_ns = traced.window_seconds() * 1e9;
    let report = &traced.run.report;
    layers.set("stream.source_busy_share", tracer.counter("source_busy_ns") as f64 / window_ns);
    layers.set("stream.detector_busy_share", traced.totals.busy_ns as f64 / window_ns);
    let (_, detect_calls) = tracer.totals("detect");
    let batched = report.eval_items == report.eval_packets;
    let batches = if batched { detect_calls } else { 0 };
    layers.set("stream.batches", batches as f64);
    layers.set(
        "stream.rows_per_batch",
        if batches == 0 { 0.0 } else { traced.totals.delivered as f64 / batches as f64 },
    );
    let stalls: usize = report.shard_stats.iter().map(|shard| shard.stalls).sum();
    layers.set("stream.stalls", stalls as f64);
    layers.set("stream.dropped_packets", report.dropped_packets as f64);
    layers.set("stream.score_p50_us", report.throughput.p50_latency_us);
    layers.set("stream.score_p99_us", report.throughput.p99_latency_us);
    layers.set("stream.drain_s", plain.drain_seconds());
    layers.set("stream.steady_pps", plain.steady_pps());
    if let Some(first) = plain.marks.first {
        let clean = plain.marks.packets.max(1) as f64;
        let allocs = plain.returned.allocs.allocations - first.allocs.allocations;
        let bytes = plain.returned.allocs.bytes - first.allocs.bytes;
        layers.set("stream.allocs_per_packet", allocs as f64 / clean);
        layers.set("stream.alloc_bytes_per_packet", bytes as f64 / clean);
    }
    layers.set("detector.fit_s", traced.totals.fit_ns as f64 / 1e9);
    layers.set("detector.busy_ns_per_packet", traced.totals.busy_ns as f64 / packets);
    layers.set("detector.events_scored", traced.totals.scored as f64);
    layers.set("detector.alerts", traced.totals.alerts as f64);
    layers.set("trace.pps", traced.pps());
    layers.set("trace.overhead_share", (plain.pps() - traced.pps()) / plain.pps());
}

/// Layers read off the stage replay, and the budget they add up to. The
/// feeder side also pays one channel hop per packet, which only the
/// single-function kernel can time.
fn budget_layers(
    layers: &mut Layers,
    budget: &StageBudget,
    fabric: bool,
    channel_ns: f64,
    pps: f64,
) {
    let packets = budget.packets.max(1) as f64;
    layers.set("source.next_ns_per_packet", budget.source_ns);
    layers.set("net.parse_ns_per_packet", budget.parse_ns);
    layers.set("net.parse_failures", budget.parse_failures as f64);
    layers.set("net.wire_bytes_per_packet", budget.wire_bytes_per_packet);
    layers.set("stream.route_ns_per_packet", budget.route_ns);
    layers.set("stream.batch_ns_per_packet", budget.batch_ns);
    layers.set("stream.shard_ns_per_packet", budget.shard_ns);
    layers.set("stream.record_ns_per_event", budget.record_ns_per_event);
    layers.set("flow.observe_ns_per_packet", budget.flow_ns);
    layers.set("flow.evictions_per_packet", budget.evictions as f64 / packets);
    layers.set("flow.active_flows_peak", budget.active_flows_peak as f64);
    layers.set("flow.label_entries_peak", budget.label_entries_peak as f64);
    layers.set("flow.afterimage_ns_per_packet", budget.extract_ns);
    layers.set("flow.tracked_entities", budget.tracked_entities as f64);
    layers.set("detector.replay_ns_per_packet", budget.detect_ns);
    if fabric {
        layers.set("fabric.encode_ns_per_packet", budget.encode_ns);
        layers.set("fabric.decode_ns_per_packet", budget.decode_ns);
        layers.set("fabric.reparse_ns_per_packet", budget.reparse_ns);
        layers.set("fabric.wire_bytes_per_packet", budget.fabric_bytes_per_packet);
    }
    let (feeder, shard, e2e) = (budget.feeder_ns() + channel_ns, budget.shard_side_ns(), 1e9 / pps);
    layers.set("budget.feeder_ns", feeder);
    layers.set("budget.shard_ns", shard);
    layers.set("budget.e2e_ns", e2e);
    layers.set("budget.coverage", feeder.max(shard) / e2e);
}

/// The single-function kernels (workload-independent except for their
/// inputs, which come from a warmup slice of this run).
fn kernel_layers(layers: &mut Layers, warmup: &[LabeledPacket], seed: u64) -> f64 {
    let (stream_ns, packets, attack_share) = kernels::trafficgen_stream(seed);
    layers.set("trafficgen.stream_ns_per_packet", stream_ns);
    layers.set("trafficgen.packets", packets as f64);
    layers.set("trafficgen.attack_share", attack_share);
    layers.set("datasets.materialize_ns_per_packet", kernels::datasets_materialize(seed));
    let train = TrainView::assemble(kernels::parse_all(warmup), FlowTableConfig::default());
    let channel_ns = kernels::stream_channel(&train.packets);
    layers.set("stream.channel_ns_per_packet", channel_ns);
    layers.set("flow.features_ns_per_flow", kernels::flow_features(&train.flows));
    layers.set("nn.normalise_ns_per_row", kernels::nn_normalise());
    layers.set("nn.matmul_gflops_f64", kernels::nn_matmul_f64());
    layers.set("nn.matmul_gflops_f32", kernels::nn_matmul_f32());
    layers.set("core.calibrate_ns_per_score", kernels::core_calibrate());
    channel_ns
}

fn write_trace(tracer: &Tracer, workload: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("write {path}: {e}"))
}

// ---------------------------------------------------------------- grid --

struct GridRun {
    experiments: Vec<Experiment>,
    wall_seconds: f64,
    cpu_seconds: f64,
    totals: Vec<DetectorTotals>,
}

/// One whole `run_grid` of the four systems over `models`, every detector
/// wrapped in a counting (or, traced, timing) [`TracedDetector`].
fn run_one_grid(
    models: &[Box<dyn TrafficModel>],
    seed: u64,
    trace: Option<&DetectTrace>,
) -> Result<GridRun, String> {
    let shared: Vec<SharedTotals> = System::ALL.iter().map(|_| SharedTotals::default()).collect();
    let detectors: Vec<(String, DetectorFactory<'_>)> = System::ALL
        .iter()
        .zip(&shared)
        .map(|(&system, totals)| {
            let totals = Arc::clone(totals);
            let trace = trace.cloned();
            let factory: DetectorFactory<'_> = Box::new(move || {
                // No fixed threshold exists for a calibrated cell: the
                // wrapper counts scores, and no score reaches +inf.
                Box::new(TracedDetector::new(
                    system.fresh(None),
                    f64::INFINITY,
                    Arc::clone(&totals),
                    trace.clone(),
                )) as Box<dyn EventDetector>
            });
            (system.name().to_string(), factory)
        })
        .collect();
    let datasets: Vec<&dyn Dataset> = models.iter().map(|model| model as &dyn Dataset).collect();
    let config = EvalConfig { dataset_seed: seed, ..EvalConfig::default() };
    let cpu_before = crate::host::cpu_seconds();
    let started = Instant::now();
    let experiments = run_grid(&detectors, &datasets, &config).map_err(|e| e.to_string())?;
    let wall_seconds = started.elapsed().as_secs_f64();
    let cpu_seconds = crate::host::cpu_seconds() - cpu_before;
    drop(detectors);
    let totals = shared.iter().map(|totals| *totals.lock().expect("totals lock")).collect();
    Ok(GridRun { experiments, wall_seconds, cpu_seconds, totals })
}

/// Packets of failed cells: a cell fails when a headline metric is not
/// finite, it scored nothing, or its detector returned a different number
/// of scores than the cell reports.
fn grid_failed(run: &GridRun, packets_per_dataset: &[u64]) -> u64 {
    let datasets = packets_per_dataset.len();
    let mut failed = 0;
    for (at, cell) in run.experiments.iter().enumerate() {
        let metrics =
            [cell.metrics.accuracy, cell.metrics.precision, cell.metrics.recall, cell.metrics.f1];
        if cell.eval_items == 0 || metrics.iter().any(|m| !m.is_finite()) {
            failed += packets_per_dataset[at % datasets];
        }
    }
    for (at, totals) in run.totals.iter().enumerate() {
        let reported: u64 = run.experiments[at * datasets..(at + 1) * datasets]
            .iter()
            .map(|cell| cell.eval_items as u64)
            .sum();
        failed += totals.scored.abs_diff(reported);
    }
    let expected_cells = System::ALL.len() * datasets;
    failed + (expected_cells.abs_diff(run.experiments.len()) as u64) * packets_per_dataset[0]
}

fn grid(options: &ChildOptions) -> Result<ChildResult, String> {
    let seed = options.seed;
    let scale = if options.quick { ScenarioScale::Tiny } else { ScenarioScale::Full };
    // Set-up: build the five models and materialise each once — the grid
    // regenerates them on the clock, but the packet totals that turn its
    // wall time into packets/s are only known from a realisation.
    let passes = if options.quick || options.trace { 1 } else { SEGMENTS };
    let mut pass_seconds = Vec::with_capacity(passes);
    let mut models = Vec::new();
    let mut packets_per_dataset = Vec::new();
    for _ in 0..passes {
        let started = Instant::now();
        models = idsbench_trafficgen::table4_models(scale);
        packets_per_dataset =
            models.iter().map(|model| model.materialize(seed).len() as u64).collect();
        pass_seconds.push(started.elapsed().as_secs_f64());
    }
    let grid_packets = packets_per_dataset.iter().sum::<u64>() * System::ALL.len() as u64;
    let grids = options.window_laps();

    let mut wall = 0.0;
    let mut cpu = 0.0;
    let mut failed = 0;
    let mut last = None;
    for _ in 0..grids {
        let run = run_one_grid(&models, seed, None)?;
        wall += run.wall_seconds;
        cpu += run.cpu_seconds;
        failed += grid_failed(&run, &packets_per_dataset);
        last = Some(run);
    }
    let plain = last.expect("at least one grid");
    let mut attempted = grid_packets * grids as u64;
    let pps = attempted as f64 / wall;
    if !options.trace {
        let metrics = if options.quick {
            Vec::new()
        } else {
            end_to_end(pps, cpu * 1e6 / attempted as f64, median(&pass_seconds))
        };
        let mut exact = Layers::default();
        grid_counts(&mut exact, &plain);
        let counts = exact.counts();
        return Ok(ChildResult { correct: failed == 0, attempted, failed, metrics, counts });
    }

    let tracer = Arc::new(Tracer::new(options.workload.name));
    let root = tracer.open("run", 0);
    let span = tracer.open("traced", root);
    let trace = DetectTrace { tracer: Arc::clone(&tracer), parent: span };
    let traced = run_one_grid(&models, seed, Some(&trace))?;
    tracer.close(span);
    failed += grid_failed(&traced, &packets_per_dataset);
    attempted += grid_packets;
    let f1s = |run: &GridRun| -> Vec<u64> {
        run.experiments.iter().map(|cell| cell.metrics.f1.to_bits()).collect()
    };
    if f1s(&plain) != f1s(&traced) {
        return Err("table4-grid: traced and plain grids disagree on F1".to_string());
    }

    let mut layers = Layers::default();
    let datasets = packets_per_dataset.len();
    for (at, system) in System::ALL.iter().enumerate() {
        let cells = &traced.experiments[at * datasets..(at + 1) * datasets];
        let train: f64 = cells.iter().map(|cell| cell.train_seconds).sum();
        let score: f64 = cells.iter().map(|cell| cell.score_seconds).sum();
        let (train_name, score_name) = cell_names(*system);
        layers.set(train_name, train);
        layers.set(score_name, score);
    }
    let totals = grid_counts(&mut layers, &traced);
    layers.set("detector.fit_s", totals.fit_ns as f64 / 1e9);
    layers.set("detector.busy_ns_per_packet", totals.busy_ns as f64 / grid_packets as f64);
    let traced_pps = grid_packets as f64 / traced.wall_seconds;
    layers.set("budget.e2e_ns", 1e9 / pps);
    layers.set("trace.pps", traced_pps);
    layers.set("trace.overhead_share", (pps - traced_pps) / pps);

    let span = tracer.open("kernels", root);
    let (warmup, _) = split_at_fraction(models[0].materialize(seed), WARMUP_FRACTION);
    kernel_layers(&mut layers, &warmup, seed);
    tracer.close(span);
    tracer.close(root);
    layers.set("failed_share", failed as f64 / attempted.max(1) as f64);
    write_trace(&tracer, options.workload.name)?;
    let counts = layers.counts();
    Ok(ChildResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: layers.into_metrics(),
        counts,
    })
}

/// Sets what one grid must repeat exactly — mean F1 over its cells, events
/// scored, alerts — and returns the detectors' summed totals.
fn grid_counts(layers: &mut Layers, run: &GridRun) -> DetectorTotals {
    let mut totals = DetectorTotals::default();
    run.totals.iter().for_each(|system| totals.add(system));
    let f1s: Vec<f64> = run.experiments.iter().map(|cell| cell.metrics.f1).collect();
    layers.set("core.f1_mean", mean(&f1s));
    layers.set("detector.events_scored", totals.scored as f64);
    layers.set("detector.alerts", totals.alerts as f64);
    totals
}

fn cell_names(system: System) -> (&'static str, &'static str) {
    match system {
        System::Kitsune => ("core.cell_train_s.kitsune", "core.cell_score_s.kitsune"),
        System::Helad => ("core.cell_train_s.helad", "core.cell_score_s.helad"),
        System::Dnn => ("core.cell_train_s.dnn", "core.cell_score_s.dnn"),
        System::Slips => ("core.cell_train_s.slips", "core.cell_score_s.slips"),
    }
}
