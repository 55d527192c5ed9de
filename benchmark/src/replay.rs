//! The stage replay: the second half of a traced run.
//!
//! The real driver call overlaps its stages across two threads, so its
//! wall time cannot be split per layer from outside. The replay pushes the
//! same packets through the same `pub` functions on one thread in
//! *stage-major* order over 1,024-packet chunks — pull the chunk from the
//! source, parse all of it, route all of it, … — so each (chunk, stage)
//! costs two clock reads per 1,024 packets instead of two per packet, and
//! every stage gets its own span parented to the chunk's span.
//!
//! The budget has two sides, one per thread of the real run:
//!
//! * **feeder** — `source → parse → route → batch` (+ `encode` on the
//!   fabric workload);
//! * **shard** — `shard`: the repository's own [`ShardLoop::on_batch`], the
//!   function the shard thread (or fabric worker) runs, over 32-row batches
//!   (+ `decode → reparse` on the fabric workload).
//!
//! Four more stages are *shadows* that decompose the shard side and are
//! never added into it: `flow` (a second flow table; run even where the
//! detector takes packets, so its value compares across workloads),
//! `extract` (a second AfterImage), `detect` (a second fitted detector,
//! called the way the shard loop calls it) and `record`. The shard
//! stage's self time — `shard − (flow + detect + record)` on a flow
//! workload, `shard − (detect + record)` otherwise — is the shard loop's
//! own bookkeeping: clock reads, the owned-flow set, latency recording.

use idsbench_core::{
    Event, EventDetector, FlowEventAssembler, InputFormat, LabeledFlow, LabeledPacket, ParsedView,
    TrainView,
};
use idsbench_fabric::{CoordMsg, WireItem};
use idsbench_flow::{AfterImage, AfterImageConfig, FlowTableConfig};
use idsbench_net::{Packet, Timestamp};
use idsbench_stream::{
    metrics::window_index, HashRing, OnlineStats, PacketSource, Recorder, ShardLoop, StreamConfig,
    StreamItem, ThresholdMode, DEFAULT_VNODES,
};

use crate::engine::{encode_batch, AnySource, Prepared, StreamSpec, FRAME_PREFIX_BYTES};
use crate::trace::Tracer;

const CHUNK: usize = 1024;

/// Per-packet nanoseconds of every stage plus the counts taken at the same
/// boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageBudget {
    pub packets: u64,
    pub source_ns: f64,
    pub parse_ns: f64,
    pub route_ns: f64,
    pub batch_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub reparse_ns: f64,
    pub shard_ns: f64,
    pub flow_ns: f64,
    pub extract_ns: f64,
    pub detect_ns: f64,
    /// Per scored event, not per packet.
    pub record_ns_per_event: f64,
    pub parse_failures: u64,
    pub wire_bytes_per_packet: f64,
    pub fabric_bytes_per_packet: f64,
    pub evictions: u64,
    pub active_flows_peak: usize,
    pub label_entries_peak: usize,
    pub tracked_entities: usize,
    pub events_scored: u64,
}

impl StageBudget {
    /// Σ stages on the feeder (coordinator) thread of the real run.
    pub fn feeder_ns(&self) -> f64 {
        self.source_ns + self.parse_ns + self.route_ns + self.batch_ns + self.encode_ns
    }

    /// Σ stages on the shard (worker) thread of the real run.
    pub fn shard_side_ns(&self) -> f64 {
        self.decode_ns + self.reparse_ns + self.shard_ns
    }
}

/// Runs `body` as one stage span under `chunk`.
fn stage<T>(
    tracer: &Tracer,
    name: &'static str,
    chunk: u32,
    count: u64,
    body: impl FnOnce() -> T,
) -> T {
    let started = tracer.now();
    let out = body();
    let ended = tracer.now();
    tracer.push(name, chunk, started, ended, count, ended - started);
    out
}

fn fitted(spec: &StreamSpec, train: &TrainView) -> Box<dyn EventDetector> {
    let mut detector = spec.system.fresh(None);
    detector.fit(train);
    detector
}

/// Replays `source` through every stage; spans go under `root`.
pub fn stage_replay(
    spec: &StreamSpec,
    prepared: &Prepared,
    mut source: AnySource,
    tracer: &Tracer,
    root: u32,
) -> Result<StageBudget, String> {
    let config = StreamConfig::default();
    let flow_config = FlowTableConfig::default();
    let train = TrainView::assemble(
        prepared.warmup.iter().cloned().map(ParsedView::from_packet).collect(),
        flow_config,
    );
    let mut detector = fitted(spec, &train);
    let flows = detector.input_format() == InputFormat::Flows;
    let mut shard = ShardLoop::new(
        0,
        fitted(spec, &train),
        Recorder::for_mode(ThresholdMode::Fixed(spec.threshold)),
        flows.then(|| FlowEventAssembler::new(flow_config)),
        config.window_secs,
        false,
        None,
    );
    drop(train);

    let ring = HashRing::with_shards(DEFAULT_VNODES, 1);
    let mut assembler = FlowEventAssembler::new(flow_config);
    let mut extractor = AfterImage::new(AfterImageConfig::default());
    let mut stats = OnlineStats::default();

    let mut packets: Vec<LabeledPacket> = Vec::with_capacity(CHUNK);
    let mut views: Vec<ParsedView> = Vec::with_capacity(CHUNK);
    let mut evicted: Vec<LabeledFlow> = Vec::new();
    let mut scores: Vec<f64> = Vec::with_capacity(CHUNK);
    let mut flow_scores: Vec<(f64, usize)> = Vec::new();
    let mut features: Vec<f64> = Vec::new();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut decoded: Vec<WireItem> = Vec::new();
    let mut batches: Vec<Vec<StreamItem>> = Vec::new();
    let mut budget = StageBudget::default();
    let mut wire_bytes = 0u64;
    let mut fabric_bytes = 0u64;
    let mut owners = 0usize;
    let mut seq = 0u64;

    loop {
        let chunk = tracer.open("stage.chunk", root);
        packets.clear();
        stage(tracer, "stage.source", chunk, CHUNK as u64, || -> Result<(), String> {
            while packets.len() < CHUNK {
                match source.next_packet().map_err(|e| e.to_string())? {
                    Some(packet) => packets.push(packet),
                    None => break,
                }
            }
            Ok(())
        })?;
        if packets.is_empty() {
            tracer.close(chunk);
            break;
        }
        let n = packets.len() as u64;
        budget.packets += n;
        wire_bytes += packets.iter().map(|p| p.packet.wire_len() as u64).sum::<u64>();

        views.clear();
        stage(tracer, "stage.parse", chunk, n, || {
            views.extend(packets.drain(..).map(ParsedView::from_packet));
        });
        budget.parse_failures += views.iter().filter(|view| view.parsed.is_none()).count() as u64;

        stage(tracer, "stage.route", chunk, n, || {
            for view in &views {
                owners += match &view.flow_key {
                    Some(key) => ring.owner_of(key),
                    None => ring.first_shard(),
                };
            }
        });

        if spec.fabric {
            frames.clear();
            stage(tracer, "stage.encode", chunk, n, || {
                for (at, burst) in views.chunks(config.batch_size).enumerate() {
                    let first_seq = seq + (at * config.batch_size) as u64;
                    frames.push(encode_batch(first_seq, burst.iter().map(|view| &view.packet)));
                }
            });
            fabric_bytes +=
                frames.iter().map(|frame| frame.len() as u64 + FRAME_PREFIX_BYTES).sum::<u64>();
            stage(tracer, "stage.decode", chunk, n, || -> Result<(), String> {
                for frame in &frames {
                    match CoordMsg::decode(frame).map_err(|e| format!("decode: {e}"))? {
                        CoordMsg::Batch { items, .. } => decoded.extend(items),
                        other => return Err(format!("decoded {other:?}, not a batch")),
                    }
                }
                Ok(())
            })?;
            // The worker's own parse of what arrived: every shard-side
            // stage below consumes these views, as on the worker.
            views.clear();
            stage(tracer, "stage.reparse", chunk, n, || {
                views.extend(decoded.drain(..).map(|item| {
                    ParsedView::from_packet(LabeledPacket::new(
                        Packet::new(Timestamp::from_micros(item.ts_micros), item.data),
                        item.label,
                    ))
                }));
            });
        }

        // ---- Shadows: the shard side, one layer at a time. ----
        evicted.clear();
        stage(tracer, "stage.flow", chunk, n, || {
            for view in &views {
                assembler.observe(view, |flow| evicted.push(flow));
            }
        });
        budget.evictions += evicted.len() as u64;
        budget.active_flows_peak = budget.active_flows_peak.max(assembler.active_flows());
        budget.label_entries_peak = budget.label_entries_peak.max(assembler.label_entries());

        stage(tracer, "stage.extract", chunk, n, || {
            for parsed in views.iter().filter_map(|view| view.parsed.as_ref()) {
                extractor.update_into(parsed, &mut features);
            }
        });

        scores.clear();
        flow_scores.clear();
        stage(tracer, "stage.detect", chunk, n, || {
            if flows {
                for view in &views {
                    detector.on_event(&Event::Packet(view));
                }
                for (at, flow) in evicted.iter().enumerate() {
                    if let Some(score) = detector.on_event(&Event::FlowEvicted(flow)) {
                        flow_scores.push((score, at));
                    }
                }
            } else {
                for burst in views.chunks(config.batch_size) {
                    detector.on_packet_batch(&mut burst.iter(), &mut scores);
                }
            }
        });

        let scored = if flows { flow_scores.len() } else { scores.len() } as u64;
        budget.events_scored += scored;
        stage(tracer, "stage.record", chunk, scored, || {
            if flows {
                for &(score, at) in &flow_scores {
                    let flow = &evicted[at];
                    let window =
                        window_index(flow.record.last_seen.as_micros(), config.window_secs);
                    let kind = flow.label.attack_kind();
                    stats.record(window, score, spec.threshold, flow.is_attack(), kind, true, 0);
                }
            } else {
                for (view, &score) in views.iter().zip(&scores) {
                    let window =
                        window_index(view.packet.packet.ts.as_micros(), config.window_secs);
                    let label = view.label();
                    let (attack, kind) = (label.is_attack(), label.attack_kind());
                    stats.record(window, score, spec.threshold, attack, kind, false, 0);
                }
            }
        });

        // ---- The real thing: batch like the feeder, score like the shard. ----
        stage(tracer, "stage.batch", chunk, n, || {
            let mut views = views.drain(..);
            for batch in 0..(n as usize).div_ceil(config.batch_size) {
                if batches.len() <= batch {
                    batches.push(Vec::with_capacity(config.batch_size));
                }
                for view in views.by_ref().take(config.batch_size) {
                    batches[batch].push(StreamItem { seq, view });
                    seq += 1;
                }
            }
        });
        stage(tracer, "stage.shard", chunk, n, || {
            for batch in batches.iter().filter(|batch| !batch.is_empty()) {
                shard.on_batch(batch);
            }
        });
        // Dropping consumed views is the feeder's recycle step, not the
        // shard's scoring: keep it out of both spans.
        batches.iter_mut().for_each(Vec::clear);
        tracer.close(chunk);
    }
    std::hint::black_box((owners, &stats, &features));
    budget.tracked_entities = extractor.tracked_entities();

    // The flush at end of stream belongs to drain, which the real run
    // reports; here it only makes the two event counts comparable.
    let flushed = assembler.flush();
    let shadow_events = budget.events_scored
        + if flows {
            flushed
                .iter()
                .filter(|flow| detector.on_event(&Event::FlowEvicted(flow)).is_some())
                .count() as u64
        } else {
            0
        };
    shard.finish();
    let real_events = shard.into_outcome(0.0).recorder.items() as u64;
    if real_events != shadow_events {
        return Err(format!(
            "{}: ShardLoop recorded {real_events} events, the shadow stages scored {shadow_events}",
            spec.name
        ));
    }

    let per_packet = |name: &str| tracer.totals(name).0 as f64 / budget.packets.max(1) as f64;
    budget.source_ns = per_packet("stage.source");
    budget.parse_ns = per_packet("stage.parse");
    budget.route_ns = per_packet("stage.route");
    budget.batch_ns = per_packet("stage.batch");
    budget.encode_ns = per_packet("stage.encode");
    budget.decode_ns = per_packet("stage.decode");
    budget.reparse_ns = per_packet("stage.reparse");
    budget.shard_ns = per_packet("stage.shard");
    budget.flow_ns = per_packet("stage.flow");
    budget.extract_ns = per_packet("stage.extract");
    budget.detect_ns = per_packet("stage.detect");
    budget.record_ns_per_event =
        tracer.totals("stage.record").0 as f64 / budget.events_scored.max(1) as f64;
    budget.wire_bytes_per_packet = wire_bytes as f64 / budget.packets.max(1) as f64;
    budget.fabric_bytes_per_packet = fabric_bytes as f64 / budget.packets.max(1) as f64;
    Ok(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::System;
    use crate::engine::{build_traffic, open_source};
    use crate::spec::Traffic;

    /// A small replayed workload: every stage must see every packet, and
    /// the real shard loop must agree with the shadow stages on the event
    /// count (the function errors otherwise).
    #[test]
    fn every_stage_sees_every_packet() {
        for (system, fabric) in [(System::Slips, true), (System::Kitsune, false)] {
            let spec = StreamSpec {
                name: "test",
                system,
                traffic: Traffic::Looped("stratosphere-iot"),
                fabric,
                threshold: 0.5,
            };
            let mut prepared = build_traffic(&spec, 3).unwrap();
            prepared.lap = prepared.lap[..2_500].to_vec().into();
            let tracer = Tracer::new("test");
            let root = tracer.open("replay", 0);
            let source = open_source(&spec, &prepared, 3, 2);
            let budget = stage_replay(&spec, &prepared, source, &tracer, root).unwrap();
            assert_eq!(budget.packets, 5_000);
            assert_eq!(budget.parse_failures, 0);
            assert!(budget.events_scored > 0);
            for name in ["stage.parse", "stage.route", "stage.flow", "stage.batch", "stage.shard"] {
                assert_eq!(tracer.totals(name).1, 5_000, "{name}");
            }
            let wire_stages = ["stage.encode", "stage.decode", "stage.reparse"];
            for name in wire_stages {
                assert_eq!(tracer.totals(name).1, if fabric { 5_000 } else { 0 }, "{name}");
            }
            assert_eq!(budget.fabric_bytes_per_packet > 0.0, fabric);
            // 5 chunks of 1,024 (the last one short) plus the empty pull
            // that ends the stream.
            assert_eq!(tracer.totals("stage.chunk").1, 6);
        }
    }
}
