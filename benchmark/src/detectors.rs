//! The detector roster (the paper's four systems at their out-of-the-box
//! `Default` configurations, f64 precision) and [`TracedDetector`], the
//! wrapper that counts — and in a traced run also times — every call the
//! drivers make into a detector.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use idsbench_core::{Event, EventDetector, InputFormat, ParsedView, TrainView};
use idsbench_flow::FlowKey;
use idsbench_telemetry::SpanTimer;

use crate::sources::scale;
use crate::trace::Tracer;

/// One of the four evaluated systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Kitsune,
    Helad,
    Dnn,
    Slips,
}

impl System {
    /// Table IV block order.
    pub const ALL: [System; 4] = [System::Kitsune, System::Helad, System::Dnn, System::Slips];

    /// The name the detector reports (and the fabric resolves by).
    pub fn name(self) -> &'static str {
        match self {
            System::Kitsune => "Kitsune",
            System::Helad => "HELAD",
            System::Dnn => "DNN",
            System::Slips => "Slips",
        }
    }

    /// A fresh, unfitted instance; `probe` attaches the detector's own
    /// inference-kernel timer (traced runs only).
    pub fn fresh(self, probe: Option<SpanTimer>) -> Box<dyn EventDetector> {
        // `attach_inference_probe` is an inherent method of each system, not
        // part of the `EventDetector` contract.
        macro_rules! build {
            ($detector:ty) => {{
                let mut detector = <$detector>::default();
                if let Some(probe) = probe {
                    detector.attach_inference_probe(probe);
                }
                Box::new(detector)
            }};
        }
        match self {
            System::Kitsune => build!(idsbench_kitsune::Kitsune),
            System::Helad => build!(idsbench_helad::Helad),
            System::Dnn => build!(idsbench_dnn::Dnn),
            System::Slips => build!(idsbench_slips::Slips),
        }
    }
}

/// What the wrappers of one run add up to (published when each wrapped
/// detector is dropped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorTotals {
    /// `fit` calls and the nanoseconds inside them.
    pub fits: u64,
    pub fit_ns: u64,
    /// Events of the detector's own input format delivered to it.
    pub delivered: u64,
    /// Scores the detector returned.
    pub scored: u64,
    /// Scores at or above the wrapper's threshold.
    pub alerts: u64,
    /// Nanoseconds inside `on_packet_batch` / `on_event` (timed runs only;
    /// per-event calls are sampled and count-scaled).
    pub busy_ns: u64,
}

impl DetectorTotals {
    pub fn add(&mut self, other: &DetectorTotals) {
        self.fits += other.fits;
        self.fit_ns += other.fit_ns;
        self.delivered += other.delivered;
        self.scored += other.scored;
        self.alerts += other.alerts;
        self.busy_ns += other.busy_ns;
    }
}

pub type SharedTotals = Arc<Mutex<DetectorTotals>>;

/// Per-event calls timed: one in this many.
const EVENT_SAMPLE_EVERY: u64 = 8;
/// Calls folded into one `detect` span.
const DETECT_SPAN_CALLS: u64 = 256;

/// Cost of one `Instant::now()` + `elapsed()` pair on this host, taken once
/// and subtracted from every sampled call so that a near-empty call (a flow
/// detector passing a packet event through) is not billed the clock.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> =
            (0..2001).map(|_| Instant::now().elapsed().as_nanos() as u64).collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// Sampled timing of one kind of call.
#[derive(Debug, Default)]
struct Sampler {
    calls: u64,
    sampled_calls: u64,
    sampled_nanos: u64,
}

impl Sampler {
    fn due(&mut self) -> bool {
        self.calls += 1;
        self.calls % EVENT_SAMPLE_EVERY == 0
    }

    fn record(&mut self, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        self.sampled_nanos += nanos.saturating_sub(clock_overhead_ns());
        self.sampled_calls += 1;
    }

    fn take_scaled(&mut self) -> u64 {
        let busy = scale(self.sampled_nanos, self.calls, self.sampled_calls);
        *self = Sampler::default();
        busy
    }
}

/// Where a timed wrapper records its spans.
#[derive(Debug, Clone)]
pub struct DetectTrace {
    pub tracer: Arc<Tracer>,
    pub parent: u32,
}

/// Wraps a detector, forwarding every call unchanged.
///
/// Always counts: events delivered, scores returned, alerts at `threshold`
/// — the independent tally the conservation check compares the engine's
/// report against. With a [`DetectTrace`] it also times: every `fit` and
/// `on_packet_batch` call, and one in eight `on_event` calls per event
/// kind (count-scaled), emitting one aggregated `detect` span per 256
/// calls.
pub struct TracedDetector {
    inner: Box<dyn EventDetector>,
    format: InputFormat,
    threshold: f64,
    shared: SharedTotals,
    local: DetectorTotals,
    trace: Option<DetectTrace>,
    packet_events: Sampler,
    flow_events: Sampler,
    span_started: Option<u64>,
    span_calls: u64,
    span_busy: u64,
}

impl std::fmt::Debug for TracedDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedDetector")
            .field("inner", &self.inner.name())
            .field("timed", &self.trace.is_some())
            .finish_non_exhaustive()
    }
}

impl TracedDetector {
    pub fn new(
        inner: Box<dyn EventDetector>,
        threshold: f64,
        shared: SharedTotals,
        trace: Option<DetectTrace>,
    ) -> Self {
        if trace.is_some() {
            clock_overhead_ns(); // calibrate before the first timed call
        }
        TracedDetector {
            format: inner.input_format(),
            inner,
            threshold,
            shared,
            local: DetectorTotals::default(),
            trace,
            packet_events: Sampler::default(),
            flow_events: Sampler::default(),
            span_started: None,
            span_calls: 0,
            span_busy: 0,
        }
    }

    fn tally(&mut self, score: f64) {
        self.local.scored += 1;
        self.local.alerts += u64::from(score >= self.threshold);
    }

    /// Accounts one timed-or-sampled call into the current `detect` span.
    fn span_call(&mut self, busy: u64) {
        let Some(trace) = &self.trace else { return };
        if self.span_started.is_none() {
            self.span_started = Some(trace.tracer.now().saturating_sub(busy));
        }
        self.span_calls += 1;
        self.span_busy += busy;
        if self.span_calls >= DETECT_SPAN_CALLS {
            self.close_span();
        }
    }

    fn close_span(&mut self) {
        let Some(trace) = &self.trace else { return };
        // Sampled per-event time lands in the span that is open when the
        // sampler is drained.
        let sampled = self.packet_events.take_scaled() + self.flow_events.take_scaled();
        let busy = self.span_busy + sampled;
        self.local.busy_ns += busy;
        if let Some(started) = self.span_started.take() {
            let tracer = &trace.tracer;
            tracer.push("detect", trace.parent, started, tracer.now(), self.span_calls, busy);
        }
        self.span_calls = 0;
        self.span_busy = 0;
    }
}

impl Drop for TracedDetector {
    fn drop(&mut self) {
        self.close_span();
        // A poisoned lock means another wrapper's thread panicked; the run
        // is already failing, and `drop` must not add a second panic.
        if let Ok(mut shared) = self.shared.lock() {
            shared.add(&self.local);
        }
    }
}

impl EventDetector for TracedDetector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input_format(&self) -> InputFormat {
        self.format
    }

    fn fit(&mut self, train: &TrainView) {
        let span = self.trace.as_ref().map(|t| t.tracer.open("fit", t.parent));
        let started = Instant::now();
        self.inner.fit(train);
        self.local.fit_ns += started.elapsed().as_nanos() as u64;
        self.local.fits += 1;
        if let (Some(trace), Some(span)) = (&self.trace, span) {
            trace.tracer.close(span);
        }
    }

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        self.local.delivered += u64::from(event.format() == self.format);
        let score = if self.trace.is_some() {
            let sampler = match event {
                Event::Packet(_) => &mut self.packet_events,
                Event::FlowEvicted(_) => &mut self.flow_events,
            };
            let score = if sampler.due() {
                let started = Instant::now();
                let score = self.inner.on_event(event);
                sampler.record(started);
                score
            } else {
                self.inner.on_event(event)
            };
            self.span_call(0);
            score
        } else {
            self.inner.on_event(event)
        };
        if let Some(score) = score {
            self.tally(score);
        }
        score
    }

    fn on_packet_batch(
        &mut self,
        views: &mut dyn Iterator<Item = &ParsedView>,
        scores: &mut Vec<f64>,
    ) {
        let before = scores.len();
        let mut delivered = 0u64;
        let mut counted = views.inspect(|_| delivered += 1);
        if self.trace.is_some() {
            let started = Instant::now();
            self.inner.on_packet_batch(&mut counted, scores);
            let busy = started.elapsed().as_nanos() as u64;
            self.span_call(busy);
        } else {
            self.inner.on_packet_batch(&mut counted, scores);
        }
        if self.format == InputFormat::Packets {
            self.local.delivered += delivered;
        }
        for &score in &scores[before..] {
            self.tally(score);
        }
    }

    fn extract_flow_state(&mut self, key: &FlowKey) -> Option<Vec<u8>> {
        self.inner.extract_flow_state(key)
    }

    fn absorb_flow_state(&mut self, key: &FlowKey, state: Vec<u8>) {
        self.inner.absorb_flow_state(key, state);
    }

    fn snapshot_flow_state(&mut self, key: &FlowKey) -> Option<Vec<u8>> {
        self.inner.snapshot_flow_state(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_core::{Label, LabeledPacket};
    use idsbench_net::{MacAddr, PacketBuilder, TcpFlags, Timestamp};
    use std::net::Ipv4Addr;

    fn views(n: usize) -> Vec<ParsedView> {
        (0..n)
            .map(|i| {
                let packet = PacketBuilder::new()
                    .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
                    .ipv4(Ipv4Addr::new(10, 0, 0, 1 + (i % 5) as u8), Ipv4Addr::new(10, 0, 0, 9))
                    .tcp(2000 + (i % 11) as u16, 80, TcpFlags::ACK)
                    .payload_len(40 + (i * 7) % 300)
                    .build(Timestamp::from_micros(1_000 + i as u64 * 900));
                ParsedView::from_packet(LabeledPacket::new(packet, Label::Benign))
            })
            .collect()
    }

    fn score_all(detector: &mut dyn EventDetector, eval: &[ParsedView]) -> Vec<u64> {
        let mut scores = Vec::new();
        for burst in eval.chunks(32) {
            detector.on_packet_batch(&mut burst.iter(), &mut scores);
        }
        for view in eval {
            scores.extend(detector.on_event(&Event::Packet(view)));
        }
        scores.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn wrappers_leave_scores_bitwise_identical_and_count_exactly() {
        let all = views(700);
        let train = TrainView::assemble(all[..300].to_vec(), Default::default());
        let eval = &all[300..];

        let mut plain = System::Kitsune.fresh(None);
        plain.fit(&train);
        let expected = score_all(plain.as_mut(), eval);

        let tracer = Arc::new(Tracer::new("test"));
        let root = tracer.open("run", 0);
        for trace in [None, Some(DetectTrace { tracer: Arc::clone(&tracer), parent: root })] {
            let timed = trace.is_some();
            let totals = SharedTotals::default();
            let mut wrapped =
                TracedDetector::new(System::Kitsune.fresh(None), 0.0, Arc::clone(&totals), trace);
            wrapped.fit(&train);
            assert_eq!(score_all(&mut wrapped, eval), expected, "timed = {timed}");
            drop(wrapped);
            let totals = *totals.lock().unwrap();
            assert_eq!(totals.fits, 1);
            assert_eq!(totals.delivered, 800);
            assert_eq!(totals.scored, 800);
            assert_eq!(totals.alerts, 800, "every score is >= 0");
            assert_eq!(totals.busy_ns > 0, timed);
        }
        let (_, detect_calls) = tracer.totals("detect");
        assert_eq!(detect_calls, 400_u64.div_ceil(32) + 400);
        assert_eq!(tracer.totals("fit").1, 1);
    }
}
