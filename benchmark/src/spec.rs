//! The benchmark's committed definition: workloads with their lap
//! constants and thresholds, the end-to-end metrics with their bounds, the
//! per-layer metrics — and the `BENCHMARK.json` they render to.

use std::fmt::Write as _;

use crate::detectors::System;

/// Train/eval split of the replayed (legacy) traces: the leading 30 % is
/// warmup, as in the batch pipeline.
pub const WARMUP_FRACTION: f64 = 0.3;
/// Warmup span of the native trafficgen scenarios, traffic seconds.
pub const NATIVE_WARMUP_SECS: f64 = 30.0;
/// Segments of an untraced child. Each segment sets up from its own
/// sub-seed (a different realisation), passes the parity check and runs its
/// own measured window; the child reports the median over segments, so one
/// unlucky realisation or one disturbed window does not decide a run.
pub const SEGMENTS: usize = 3;
/// Slices a measured window is cut into at the source, one clock read per
/// slice: the per-layer diagnostic `stream.steady_pps` is their median
/// rate, which leaves out the drain and any slow tail that `pps` includes.
pub const SLICES_PER_WINDOW: u64 = 8;
/// Measured seconds a run is sized for when `--seconds` is not given:
/// three windows of three and a third seconds, so that a window stays above
/// three seconds when the host runs a few percent fast.
pub const DEFAULT_SECONDS: u64 = 10;
/// Children per workload in one set of `run` and `selfcheck`; `trace` and
/// `selfcheck --quick` run one.
pub const REPEATS: usize = 3;

/// The seed of segment `segment`: the run's seed itself for segment 0, then
/// steps of the 64-bit golden ratio, so neighbouring `--seed` values never
/// share a realisation.
pub fn segment_seed(seed: u64, segment: usize) -> u64 {
    seed.wrapping_add((segment as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Where a stream workload's packets come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// One realisation of a legacy spec, materialised in set-up and looped.
    Looped(&'static str),
    /// Realisation after realisation of a native spec, generated lazily on
    /// the measured clock.
    Chained(&'static str),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Stream {
        system: System,
        traffic: Traffic,
        /// Through `run_fabric` over `uds://` to one in-process worker
        /// instead of `run_stream`.
        fabric: bool,
        /// Alert threshold of the measured (`ThresholdMode::Fixed`) runs:
        /// what a `Calibrated` one-lap run at seed 42 resolved to at the
        /// commit that added the benchmark. Fixed, so nothing calibrates on
        /// the clock and no per-event score is buffered.
        threshold: f64,
    },
    /// `run_grid` over the four systems × `table4_models(Full)`.
    Grid,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Laps (realisations, grids) that fill one measured second on the
    /// 2-core reference host. Work is fixed by `--seconds`, never
    /// time-adaptive: see [`Workload::window_laps`].
    pub laps_per_second: f64,
}

impl Workload {
    /// Measured windows per untraced run: the grid is one window of one
    /// grid (twenty cells already average over detectors and datasets).
    pub fn windows(&self) -> usize {
        match self.kind {
            Kind::Stream { .. } => SEGMENTS,
            Kind::Grid => 1,
        }
    }

    /// Laps of one measured window: `round(seconds × rate ÷ windows)`, at
    /// least one.
    pub fn window_laps(&self, seconds: u64) -> usize {
        let laps = seconds as f64 * self.laps_per_second / self.windows() as f64;
        (laps.round() as usize).max(1)
    }
}

const IOT: Traffic = Traffic::Looped("stratosphere-iot");
/// Slips' threshold as calibrated on the stratosphere-iot lap. Also used on
/// syn-burst, whose own calibration resolves to "never alert" (+inf).
const SLIPS: f64 = 0.6;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "kitsune-iot",
        why: "Detector-bound: Kitsune on stratosphere-iot, the shard inside on_packet_batch \
              (AfterImage, normalise, KitNET) is >= 85% of wall; where an nn or afterimage \
              gain must show.",
        kind: Kind::Stream {
            system: System::Kitsune,
            traffic: IOT,
            fabric: false,
            threshold: 0.180_059_162_993_760_12,
        },
        laps_per_second: 12.0,
    },
    Workload {
        name: "helad-iot",
        why: "LSTM-bound: HELAD, the slowest detector, on the same traffic as kitsune-iot, so \
              the two differ only in the kernels used.",
        kind: Kind::Stream {
            system: System::Helad,
            traffic: IOT,
            fabric: false,
            threshold: 0.096_856_930_538_806_1,
        },
        laps_per_second: 3.6,
    },
    Workload {
        name: "slips-iot",
        why: "Feeder-bound: Slips on the same traffic, detector < 15% of wall, so parse, route, \
              channel and batch recycle are the work; an nn change must leave it flat.",
        kind: Kind::Stream { system: System::Slips, traffic: IOT, fabric: false, threshold: SLIPS },
        laps_per_second: 90.0,
    },
    Workload {
        name: "dnn-botiot",
        why: "Flow-bound: DNN on bot-iot (43k flows, ~21k concurrent); flow table, label fold \
              and eviction sweep are most of wall; the only place a state-plane change shows.",
        kind: Kind::Stream {
            system: System::Dnn,
            traffic: Traffic::Looped("bot-iot"),
            fabric: false,
            threshold: 7.085_975_256_227_741e-12,
        },
        laps_per_second: 4.3,
    },
    Workload {
        name: "fabric-slips-iot",
        why: "Wire-bound: slips-iot through run_fabric over uds to one worker thread; the gap \
              to slips-iot is encode, decode, socket, replay log and the second parse.",
        kind: Kind::Stream { system: System::Slips, traffic: IOT, fabric: true, threshold: SLIPS },
        laps_per_second: 45.0,
    },
    Workload {
        name: "gen-synburst",
        why: "Generation on the clock: Slips on native syn-burst streamed lazily, fresh keys \
              every realisation; slips-iot (replay, generation in set-up) is its bypass.",
        kind: Kind::Stream {
            system: System::Slips,
            traffic: Traffic::Chained("syn-burst"),
            fabric: false,
            threshold: SLIPS,
        },
        laps_per_second: 27.0,
    },
    Workload {
        name: "table4-grid",
        why: "The paper's deliverable: run_grid of 4 detectors x 5 datasets, the only workload \
              with training (fit, backward, optimizer, calibrate, AUC) on the clock.",
        kind: Kind::Grid,
        laps_per_second: 0.11,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

/// A metric a user of the system would see, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
///
/// Every bound is 25 %, the widest the benchmark's contract allows, because
/// that is what two unpaired sets of runs on the shared 2-core reference
/// host can tell apart (README, "End-to-end metrics"): in a quiet quarter of
/// an hour the quartile spread of `pps` and `cpu_us_per_packet` over ten
/// seeds is 1–3 %, but the ten-seed pass made while this was written read
/// 21 % and 24 % on `fabric-slips-iot` (a minute of interference; the
/// workload also has a mode, lasting minutes, in which coordinator and worker
/// keep exactly one core busy between them instead of one and a half) and
/// 15 % on `peak_rss_mb` (`kitsune-iot`, 31.6 or 36.5 MB by realisation).
/// Differences below that are for the paired comparison the README
/// describes, not for these bounds.
///
/// The issue's fifth metric, `failed_share`, must be 0 and so cannot stand
/// among metrics that may never read 0: it is the result line's `failed` ÷
/// `attempted`, which `run` and `selfcheck` report and gate at 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "pps", unit: "packets/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "cpu_us_per_packet", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25 },
];

/// A metric of one layer (layers are crate names); no bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

const NS_PACKET: &str = "ns/packet";

/// Every per-layer metric, in report order. A traced run prints all of
/// them; one that does not apply to the workload (fabric counters on an
/// in-process run, grid cells on a stream run) reads 0.
pub const PER_LAYER: [PerLayer; 69] = [
    layer("trafficgen.stream_ns_per_packet", NS_PACKET, "lower"),
    layer("trafficgen.packets", "count", "higher"),
    layer("trafficgen.attack_share", "ratio", "higher"),
    layer("datasets.materialize_ns_per_packet", NS_PACKET, "lower"),
    layer("source.next_ns_per_packet", NS_PACKET, "lower"),
    layer("net.parse_ns_per_packet", NS_PACKET, "lower"),
    layer("net.parse_failures", "count", "lower"),
    layer("net.wire_bytes_per_packet", "B/packet", "lower"),
    layer("stream.route_ns_per_packet", NS_PACKET, "lower"),
    layer("stream.batch_ns_per_packet", NS_PACKET, "lower"),
    layer("stream.channel_ns_per_packet", NS_PACKET, "lower"),
    layer("stream.shard_ns_per_packet", NS_PACKET, "lower"),
    layer("stream.record_ns_per_event", "ns/event", "lower"),
    layer("stream.source_busy_share", "ratio", "lower"),
    layer("stream.detector_busy_share", "ratio", "lower"),
    layer("stream.batches", "count", "lower"),
    layer("stream.rows_per_batch", "rows", "higher"),
    layer("stream.stalls", "count", "lower"),
    layer("stream.dropped_packets", "count", "lower"),
    layer("stream.score_p50_us", "us", "lower"),
    layer("stream.score_p99_us", "us", "lower"),
    layer("stream.drain_s", "s", "lower"),
    layer("stream.steady_pps", "packets/s", "higher"),
    layer("stream.allocs_per_packet", "1/packet", "lower"),
    layer("stream.alloc_bytes_per_packet", "B/packet", "lower"),
    layer("flow.observe_ns_per_packet", NS_PACKET, "lower"),
    layer("flow.evictions_per_packet", "1/packet", "lower"),
    layer("flow.active_flows_peak", "count", "lower"),
    layer("flow.label_entries_peak", "count", "lower"),
    layer("flow.afterimage_ns_per_packet", NS_PACKET, "lower"),
    layer("flow.tracked_entities", "count", "lower"),
    layer("flow.features_ns_per_flow", "ns/flow", "lower"),
    layer("nn.normalise_ns_per_row", "ns/row", "lower"),
    layer("nn.matmul_gflops_f64", "GFLOP/s", "higher"),
    layer("nn.matmul_gflops_f32", "GFLOP/s", "higher"),
    layer("detector.fit_s", "s", "lower"),
    layer("detector.busy_ns_per_packet", NS_PACKET, "lower"),
    layer("detector.replay_ns_per_packet", NS_PACKET, "lower"),
    layer("detector.events_scored", "count", "higher"),
    layer("detector.alerts", "count", "higher"),
    layer("detector.infer_ns_per_event", "ns/event", "lower"),
    layer("fabric.encode_ns_per_packet", NS_PACKET, "lower"),
    layer("fabric.decode_ns_per_packet", NS_PACKET, "lower"),
    layer("fabric.reparse_ns_per_packet", NS_PACKET, "lower"),
    layer("fabric.wire_bytes_per_packet", "B/packet", "lower"),
    layer("fabric.frames", "count", "lower"),
    layer("fabric.bytes", "B", "lower"),
    layer("fabric.reconnects", "count", "lower"),
    layer("fabric.peer_failures", "count", "lower"),
    layer("core.assemble_s", "s", "lower"),
    layer("core.calibrate_ns_per_score", "ns/score", "lower"),
    layer("core.cell_train_s.kitsune", "s", "lower"),
    layer("core.cell_train_s.helad", "s", "lower"),
    layer("core.cell_train_s.dnn", "s", "lower"),
    layer("core.cell_train_s.slips", "s", "lower"),
    layer("core.cell_score_s.kitsune", "s", "lower"),
    layer("core.cell_score_s.helad", "s", "lower"),
    layer("core.cell_score_s.dnn", "s", "lower"),
    layer("core.cell_score_s.slips", "s", "lower"),
    layer("core.f1_mean", "ratio", "higher"),
    layer("core.f1", "ratio", "higher"),
    layer("telemetry.overhead_share", "ratio", "lower"),
    layer("budget.feeder_ns", NS_PACKET, "lower"),
    layer("budget.shard_ns", NS_PACKET, "lower"),
    layer("budget.e2e_ns", NS_PACKET, "lower"),
    layer("budget.coverage", "ratio", "higher"),
    layer("trace.pps", "packets/s", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("failed_share", "ratio", "lower"),
];

/// What two runs of the same code and seed must agree on exactly. Every
/// child prints the ones its workload has on a line of its own, before the
/// result line; `selfcheck` fails on any difference.
pub const EXACT: [&str; 5] = [
    "detector.events_scored",
    "detector.alerts",
    "core.f1",
    "core.f1_mean",
    "fabric.wire_bytes_per_packet",
];

/// The unit of any metric this benchmark prints, by name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|metric| (metric.name, metric.unit))
        .chain(PER_LAYER.iter().map(|metric| (metric.name, metric.unit)))
        .find(|(known, _)| *known == name)
        .map(|(_, unit)| unit)
}

/// Renders `BENCHMARK.json` (the committed file must equal this, which a
/// test checks).
pub fn manifest() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"command\": [");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    for (i, word) in command.iter().enumerate() {
        let _ = write!(out, "{}\"{word}\"", if i > 0 { ", " } else { "" });
    }
    let _ = write!(
        out,
        "],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {DEFAULT_SECONDS},\n  \
         \"workloads\": [\n"
    );
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            workload.name,
            workload.why,
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, metric) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            metric.name,
            metric.unit,
            metric.better,
            metric.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, metric) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            metric.name,
            metric.unit,
            metric.better,
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest(), "regenerate with `benchmark manifest > BENCHMARK.json`");
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|name| name_ok(name)), "a name breaks the contract");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for workload in &WORKLOADS {
            let why: String = workload.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200, "{}: why is {} characters", workload.name, why.len());
            assert!(!workload.why.contains(['"', '\\', '\n']));
        }
        let unit_ok = |unit: &str| {
            unit.len() <= 16
                && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn laps_are_fixed_by_seconds_and_never_zero() {
        let grid = workload("table4-grid").unwrap();
        assert_eq!(grid.window_laps(1), 1);
        assert_eq!(grid.window_laps(DEFAULT_SECONDS), 1);
        let slips = workload("slips-iot").unwrap();
        assert_eq!(slips.window_laps(9), slips.window_laps(9));
        assert!(slips.window_laps(9) > slips.window_laps(4));
        assert!(workload("nope").is_none());
        assert_eq!(segment_seed(42, 0), 42);
        assert_ne!(segment_seed(42, 1), segment_seed(43, 0));
    }
}
