//! Packet-source adapters: how the benchmark turns one seeded realisation
//! into a measured window of fixed, committed length.
//!
//! * [`LoopedSource`] replays a materialised trace `laps` times, shifting
//!   each lap's timestamps past the previous lap's end. Payload [`Bytes`]
//!   are reference-counted, so a looped packet costs a refcount bump, never
//!   a payload allocation.
//! * [`ChainedSource`] streams realisation after realisation of one
//!   [`TrafficModel`] lazily, so generation stays on the measured clock.
//! * [`MarkedSource`] records the marks of the measured window (first
//!   `next_packet` call, end of stream, packets handed out) at one branch
//!   per packet — the only instrumentation of an untraced run.
//! * [`TracedSource`] adds sampled busy-time accounting and spans.
//!
//! [`Bytes`]: idsbench_net::Packet::data

use std::sync::{Arc, Mutex};
use std::time::Instant;

use idsbench_core::{LabeledPacket, PacketStream, Result, TrafficModel};
use idsbench_net::{Packet, Timestamp};
use idsbench_stream::PacketSource;

use crate::host::{cpu_seconds, AllocMark};
use crate::trace::Tracer;

/// Gap inserted between the last packet of one lap and the first of the
/// next, microseconds.
const LAP_GAP_MICROS: u64 = 1_000_000;

/// Replays `base` `laps` times with timestamps shifted by
/// `lap × (span + 1 s)`.
#[derive(Debug)]
pub struct LoopedSource {
    name: String,
    base: Arc<[LabeledPacket]>,
    laps: usize,
    lap: usize,
    at: usize,
    shift_micros: u64,
}

impl LoopedSource {
    pub fn new(name: impl Into<String>, base: Arc<[LabeledPacket]>, laps: usize) -> Self {
        let span = match (base.first(), base.last()) {
            (Some(first), Some(last)) => last.packet.ts.as_micros() - first.packet.ts.as_micros(),
            _ => 0,
        };
        LoopedSource {
            name: name.into(),
            base,
            laps,
            lap: 0,
            at: 0,
            shift_micros: span + LAP_GAP_MICROS,
        }
    }
}

impl PacketSource for LoopedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_packet(&mut self) -> Result<Option<LabeledPacket>> {
        if self.at == self.base.len() {
            self.at = 0;
            self.lap += 1;
        }
        if self.lap >= self.laps || self.base.is_empty() {
            return Ok(None);
        }
        let original = &self.base[self.at];
        self.at += 1;
        let ts = Timestamp::from_micros(
            original.packet.ts.as_micros() + self.lap as u64 * self.shift_micros,
        );
        Ok(Some(LabeledPacket::new(
            Packet { ts, data: original.packet.data.clone() },
            original.label,
        )))
    }
}

/// Traffic seconds between the starts of two chained realisations: one
/// second past the native scenarios' 90 s horizon.
const CHAIN_STRIDE_MICROS: u64 = 91_000_000;

/// Streams `realisations` seeded realisations of one model back to back:
/// realisation `k` is `model.stream(seed + k)` offset by `k × 91 s` (and
/// never before the last packet already handed out). Nothing is
/// materialised, so every packet is generated on the caller's clock.
pub struct ChainedSource {
    name: String,
    model: Arc<dyn TrafficModel>,
    seed: u64,
    realisations: usize,
    next_realisation: usize,
    current: PacketStream,
    offset_micros: u64,
    last_micros: u64,
    pending: Option<LabeledPacket>,
}

impl std::fmt::Debug for ChainedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainedSource")
            .field("name", &self.name)
            .field("realisations", &self.realisations)
            .finish_non_exhaustive()
    }
}

impl ChainedSource {
    /// Opens the chain and splits off every packet of the first realisation
    /// before `warmup_secs` as the warmup slice (the registry's
    /// `split_warmup_secs` rule); the source streams the remainder.
    pub fn split_warmup(
        model: Arc<dyn TrafficModel>,
        seed: u64,
        realisations: usize,
        warmup_secs: f64,
    ) -> (Vec<LabeledPacket>, Self) {
        let mut current = model.stream(seed);
        let mut warmup = Vec::new();
        let mut pending = None;
        for packet in current.by_ref() {
            if packet.packet.ts.as_secs_f64() < warmup_secs {
                warmup.push(packet);
            } else {
                pending = Some(packet);
                break;
            }
        }
        let source = ChainedSource {
            name: model.info().name.clone(),
            model,
            seed,
            realisations,
            next_realisation: 1,
            current,
            offset_micros: 0,
            last_micros: 0,
            pending,
        };
        (warmup, source)
    }
}

impl PacketSource for ChainedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_packet(&mut self) -> Result<Option<LabeledPacket>> {
        loop {
            if let Some(mut packet) = self.pending.take().or_else(|| self.current.next()) {
                let micros = packet.packet.ts.as_micros() + self.offset_micros;
                packet.packet.ts = Timestamp::from_micros(micros);
                self.last_micros = micros;
                return Ok(Some(packet));
            }
            if self.next_realisation >= self.realisations {
                return Ok(None);
            }
            let k = self.next_realisation as u64;
            self.current = self.model.stream(self.seed.wrapping_add(k));
            self.offset_micros = (k * CHAIN_STRIDE_MICROS).max(self.last_micros);
            self.next_realisation += 1;
        }
    }
}

/// One edge of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    /// Process CPU seconds (user + system, all threads) at the mark.
    pub cpu_seconds: f64,
    pub allocs: AllocMark,
}

impl Mark {
    pub fn now() -> Self {
        Mark { at: Instant::now(), cpu_seconds: cpu_seconds(), allocs: AllocMark::now() }
    }
}

/// What a [`MarkedSource`] publishes once its stream ends.
#[derive(Debug, Clone, Default)]
pub struct WindowMarks {
    /// Taken inside the first `next_packet` call, before the inner pull.
    pub first: Option<Mark>,
    /// Taken when the inner source returned `None`.
    pub end: Option<Mark>,
    /// Packets handed to the consumer.
    pub packets: u64,
    /// Packets per slice (0: the window is not sliced).
    pub slice_packets: u64,
    /// The instant each full slice was handed out, in order; slice `i` ran
    /// from `slices[i - 1]` (or `first`) to `slices[i]`.
    pub slices: Vec<Instant>,
}

impl WindowMarks {
    /// Packets per second of every full slice. The channel between feeder
    /// and shard is bounded (64 batches), so the rate at which the closed
    /// loop *accepts* packets is the rate at which it completes them, give
    /// or take two thousand packets in flight.
    pub fn slice_rates(&self) -> Vec<f64> {
        let Some(first) = self.first else { return Vec::new() };
        let starts = std::iter::once(first.at).chain(self.slices.iter().copied());
        starts
            .zip(&self.slices)
            .map(|(from, to)| {
                self.slice_packets as f64 / to.duration_since(from).as_secs_f64().max(1e-9)
            })
            .collect()
    }
}

/// Shared handle the caller keeps while the source itself moves into the
/// driver call.
pub type SharedMarks = Arc<Mutex<WindowMarks>>;

/// Marks the measured window of an untraced run (see module docs), and
/// one instant per `slice_packets` packets handed out.
#[derive(Debug)]
pub struct MarkedSource<S> {
    inner: S,
    marks: SharedMarks,
    started: bool,
    packets: u64,
    slice_packets: u64,
    until_slice: u64,
    slices: Vec<Instant>,
}

impl<S: PacketSource> MarkedSource<S> {
    /// `slice_packets` = 0 takes no slice marks.
    pub fn new(inner: S, slice_packets: u64) -> (Self, SharedMarks) {
        let marks = SharedMarks::default();
        let source = MarkedSource {
            inner,
            marks: Arc::clone(&marks),
            started: false,
            packets: 0,
            slice_packets,
            until_slice: slice_packets,
            slices: Vec::with_capacity(64),
        };
        (source, marks)
    }
}

impl<S: PacketSource> PacketSource for MarkedSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_packet(&mut self) -> Result<Option<LabeledPacket>> {
        if !self.started {
            self.started = true;
            self.marks.lock().expect("marks lock").first = Some(Mark::now());
        }
        let packet = self.inner.next_packet()?;
        match &packet {
            Some(_) => {
                self.packets += 1;
                self.until_slice = self.until_slice.wrapping_sub(1);
                if self.until_slice == 0 {
                    self.until_slice = self.slice_packets;
                    self.slices.push(Instant::now());
                }
            }
            None => {
                let mut marks = self.marks.lock().expect("marks lock");
                marks.end = Some(Mark::now());
                marks.packets = self.packets;
                marks.slice_packets = self.slice_packets;
                marks.slices = std::mem::take(&mut self.slices);
            }
        }
        Ok(packet)
    }

    fn recycle_packet(&mut self, packet: Packet) {
        self.inner.recycle_packet(packet);
    }

    fn dropped_packets(&self) -> u64 {
        self.inner.dropped_packets()
    }
}

/// `next_packet` calls timed: one in this many (count-scaled afterwards).
const SOURCE_SAMPLE_EVERY: u64 = 8;
/// Packets folded into one `source` span.
const SOURCE_SPAN_PACKETS: u64 = 4096;

/// Busy-time accounting for the feeder's pull side: times one in eight
/// `next_packet` calls and emits one aggregated `source` span per 4,096
/// packets carrying the count-scaled busy nanoseconds of that stretch.
#[derive(Debug)]
pub struct TracedSource<S> {
    inner: S,
    tracer: Arc<Tracer>,
    parent: u32,
    calls: u64,
    busy_nanos: u64,
    span_started: Option<u64>,
    span_calls: u64,
    span_sampled_nanos: u64,
    span_sampled_calls: u64,
}

impl<S: PacketSource> TracedSource<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>, parent: u32) -> Self {
        TracedSource {
            inner,
            tracer,
            parent,
            calls: 0,
            busy_nanos: 0,
            span_started: None,
            span_calls: 0,
            span_sampled_nanos: 0,
            span_sampled_calls: 0,
        }
    }

    fn close_span(&mut self) {
        let Some(started) = self.span_started.take() else { return };
        let busy = scale(self.span_sampled_nanos, self.span_calls, self.span_sampled_calls);
        self.tracer.push("source", self.parent, started, self.tracer.now(), self.span_calls, busy);
        self.busy_nanos += busy;
        self.span_calls = 0;
        self.span_sampled_nanos = 0;
        self.span_sampled_calls = 0;
    }
}

/// Count-scales a sampled total to the whole population.
pub fn scale(sampled_nanos: u64, calls: u64, sampled_calls: u64) -> u64 {
    if sampled_calls == 0 {
        return 0;
    }
    (sampled_nanos as u128 * calls as u128 / sampled_calls as u128) as u64
}

impl<S: PacketSource> PacketSource for TracedSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_packet(&mut self) -> Result<Option<LabeledPacket>> {
        if self.span_started.is_none() {
            self.span_started = Some(self.tracer.now());
        }
        self.calls += 1;
        self.span_calls += 1;
        let packet = if self.calls % SOURCE_SAMPLE_EVERY == 0 {
            let started = Instant::now();
            let packet = self.inner.next_packet();
            self.span_sampled_nanos += started.elapsed().as_nanos() as u64;
            self.span_sampled_calls += 1;
            packet?
        } else {
            self.inner.next_packet()?
        };
        if packet.is_none() || self.span_calls >= SOURCE_SPAN_PACKETS {
            self.close_span();
        }
        if packet.is_none() {
            self.tracer.add_counter("source_busy_ns", self.busy_nanos);
        }
        Ok(packet)
    }

    fn recycle_packet(&mut self, packet: Packet) {
        self.inner.recycle_packet(packet);
    }

    fn dropped_packets(&self) -> u64 {
        self.inner.dropped_packets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_core::{DatasetInfo, Label};

    fn base(n: usize) -> Arc<[LabeledPacket]> {
        (0..n)
            .map(|i| {
                LabeledPacket::new(
                    Packet::new(Timestamp::from_micros(1_000 + i as u64 * 250), vec![i as u8; 60]),
                    Label::Benign,
                )
            })
            .collect()
    }

    fn drain(mut source: impl PacketSource) -> Vec<LabeledPacket> {
        let mut out = Vec::new();
        while let Some(packet) = source.next_packet().unwrap() {
            out.push(packet);
        }
        out
    }

    fn assert_non_decreasing(packets: &[LabeledPacket]) {
        for pair in packets.windows(2) {
            assert!(pair[0].packet.ts <= pair[1].packet.ts, "timestamps went backwards");
        }
    }

    #[test]
    fn looped_source_hands_out_laps_times_base_in_time_order() {
        let packets = drain(LoopedSource::new("loop", base(37), 5));
        assert_eq!(packets.len(), 185);
        assert_non_decreasing(&packets);
        // Lap k is the base trace shifted by k × (span + 1 s).
        let span = 36 * 250;
        assert_eq!(
            packets[37].packet.ts.as_micros() - packets[0].packet.ts.as_micros(),
            span + LAP_GAP_MICROS
        );
        assert_eq!(packets[37 * 4 + 3].packet.data, packets[3].packet.data);
    }

    #[test]
    fn looped_source_of_nothing_ends_at_once() {
        assert!(drain(LoopedSource::new("empty", base(0), 9)).is_empty());
        assert!(drain(LoopedSource::new("no-laps", base(4), 0)).is_empty());
    }

    /// `n` packets, 1 s apart from t = 0; the seed is the payload.
    #[derive(Debug)]
    struct Ticks {
        info: DatasetInfo,
        n: u64,
    }

    impl TrafficModel for Ticks {
        fn info(&self) -> &DatasetInfo {
            &self.info
        }

        fn stream(&self, seed: u64) -> PacketStream {
            Box::new((0..self.n).map(move |i| {
                LabeledPacket::new(
                    Packet::new(Timestamp::from_micros(i * 1_000_000), vec![seed as u8; 60]),
                    Label::Benign,
                )
            }))
        }
    }

    fn ticks(n: u64) -> Arc<dyn TrafficModel> {
        Arc::new(Ticks { info: DatasetInfo::new("ticks", "", "", 2026), n })
    }

    #[test]
    fn chained_source_offsets_each_realisation_and_keeps_the_lookahead() {
        let (warmup, source) = ChainedSource::split_warmup(ticks(10), 7, 3, 4.0);
        assert_eq!(warmup.len(), 4);
        let packets = drain(source);
        assert_eq!(packets.len(), 6 + 10 + 10, "first realisation minus warmup, then two whole");
        assert_non_decreasing(&packets);
        assert_eq!(packets[0].packet.ts.as_micros(), 4_000_000, "lookahead packet kept");
        assert_eq!(packets[6].packet.ts.as_micros(), CHAIN_STRIDE_MICROS);
        assert_eq!(packets[6].packet.data[0], 8, "realisation k streams seed + k");
        assert_eq!(packets[16].packet.data[0], 9);
    }

    #[test]
    fn chained_source_never_steps_back_when_a_realisation_overruns_the_stride() {
        let packets = drain(ChainedSource::split_warmup(ticks(120), 0, 2, 0.0).1);
        assert_eq!(packets.len(), 240);
        assert_non_decreasing(&packets);
    }

    #[test]
    fn marked_source_counts_and_marks_edges_and_slices() {
        let (source, marks) = MarkedSource::new(LoopedSource::new("loop", base(10), 3), 8);
        assert!(marks.lock().unwrap().first.is_none(), "no mark before the first pull");
        assert_eq!(drain(source).len(), 30);
        let marks = marks.lock().unwrap().clone();
        assert_eq!(marks.packets, 30);
        assert!(marks.first.unwrap().at <= marks.end.unwrap().at);
        assert_eq!(marks.slices.len(), 3, "30 packets hold three full 8-packet slices");
        assert!(marks.slices.windows(2).all(|pair| pair[0] <= pair[1]));
        assert_eq!(marks.slice_rates().len(), 3);
        assert!(marks.slice_rates().iter().all(|rate| *rate > 0.0));

        let (source, marks) = MarkedSource::new(LoopedSource::new("loop", base(10), 3), 0);
        assert_eq!(drain(source).len(), 30);
        assert!(marks.lock().unwrap().slices.is_empty(), "0 takes no slice marks");
    }

    #[test]
    fn traced_source_is_transparent_and_accounts_every_call() {
        let tracer = Arc::new(Tracer::new("test"));
        let root = tracer.open("run", 0);
        let plain = drain(LoopedSource::new("loop", base(100), 90));
        let traced = drain(TracedSource::new(
            LoopedSource::new("loop", base(100), 90),
            Arc::clone(&tracer),
            root,
        ));
        assert_eq!(plain, traced);
        let spans = tracer.spans();
        let sources: Vec<_> = spans.iter().filter(|s| s.name == "source").collect();
        // 9,000 packets plus the final `None` call, 4,096 per span.
        assert_eq!(sources.iter().map(|s| s.count).sum::<u64>(), 9_001);
        assert_eq!(sources.len(), 3);
        assert!(sources.iter().all(|s| s.parent == root && s.end_ns >= s.start_ns));
    }
}
