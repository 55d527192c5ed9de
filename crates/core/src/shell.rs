//! The one detector shell: [`Detector`] implements [`EventDetector`] once,
//! for every system, and each system supplies only its [`Model`].
//!
//! A model declares its name, its configuration, how it fits on the
//! training slice, and how it scores ([`Scoring`]: a burst of packets or one
//! evicted flow, which is also its [`InputFormat`]). The shell owns the
//! rest, written once for all of them:
//!
//! * scoring before [`EventDetector::fit`] first fits on an empty
//!   [`TrainView`] — the stream keeps flowing, as a deployed IDS must;
//! * dispatch on the input format: a packet model scores each
//!   [`EventDetector::on_packet_batch`] burst, and an [`Event::Packet`] as a
//!   burst of one; a flow model scores each [`Event::FlowEvicted`]; every
//!   other event passes through unscored;
//! * the sampled [`InferenceProbe`] around each scoring call.

use std::fmt;
use std::time::Instant;

use crate::detector::{InputFormat, LabeledFlow};
use crate::event::{Event, EventDetector, ParsedView, TrainView};

/// A sampled timer around a model's scoring call. `idsbench-telemetry`
/// implements it for its `SpanTimer`; core cannot name that type, because
/// telemetry depends on core.
pub trait InferenceProbe: fmt::Debug + Send {
    /// Starts a span; `None` when this call is not sampled.
    fn begin(&self) -> Option<Instant>;

    /// Finishes a span that [`InferenceProbe::begin`] started.
    fn end(&self, started: Instant);
}

/// How a [`Model`] scores, which is also the [`InputFormat`] it consumes.
#[derive(Debug)]
pub enum Scoring<M> {
    /// Scores a burst of packets, pushing one score per view in order.
    /// Scores must not depend on where the stream was cut into bursts.
    Packets(fn(&mut M, &mut dyn Iterator<Item = &ParsedView>, &mut Vec<f64>)),
    /// Scores one flow as the flow table evicts it.
    Flows(fn(&mut M, &LabeledFlow) -> f64),
}

/// What a system supplies to the shell: its fitted state and how it scores.
pub trait Model: fmt::Debug + Send + Sized {
    /// System name as used in the paper (e.g. `"Kitsune"`).
    const NAME: &'static str;

    /// The scoring function, tagged with the input format it consumes.
    const SCORING: Scoring<Self>;

    /// What an experiment may set ([`Detector::new`]); `()` for none.
    type Config: fmt::Debug + Send;

    /// Fits a model on the training slice. An empty slice must give a
    /// working model: it is what scoring before `fit` scores with.
    fn fit(config: &Self::Config, train: &TrainView) -> Self;
}

/// The one [`EventDetector`] implementation (see module docs).
#[derive(Debug)]
pub struct Detector<M: Model> {
    config: M::Config,
    /// The fitted model; `None` until `fit` or the first scored event.
    model: Option<M>,
    /// Optional sampled timer around the scoring call.
    probe: Option<Box<dyn InferenceProbe>>,
    /// The one-score output of a one-packet [`Event::Packet`] burst.
    single: Vec<f64>,
}

impl<M: Model> Detector<M> {
    /// An unfitted detector with the given configuration.
    pub fn new(config: M::Config) -> Self {
        Detector { config, model: None, probe: None, single: Vec::with_capacity(1) }
    }

    /// Attaches a sampled timer around the scoring call: once per packet
    /// burst (an [`Event::Packet`] is a burst of one) or once per flow.
    /// Purely observational — scores are bit-identical with or without it —
    /// and allocation-free on the scoring path.
    pub fn attach_inference_probe(&mut self, probe: impl InferenceProbe + 'static) {
        self.probe = Some(Box::new(probe));
    }

    /// Runs `score` on the model, fitting on nothing first if `fit` never
    /// ran, inside the probe's span.
    fn timed<T>(&mut self, score: impl FnOnce(&mut M, &mut Vec<f64>) -> T) -> T {
        let model = self.model.get_or_insert_with(|| M::fit(&self.config, &TrainView::default()));
        let started = self.probe.as_ref().and_then(|probe| probe.begin());
        let out = score(model, &mut self.single);
        if let (Some(probe), Some(started)) = (&self.probe, started) {
            probe.end(started);
        }
        out
    }
}

impl<M: Model> Default for Detector<M>
where
    M::Config: Default,
{
    fn default() -> Self {
        Detector::new(M::Config::default())
    }
}

impl<M: Model> EventDetector for Detector<M> {
    fn name(&self) -> &str {
        M::NAME
    }

    fn input_format(&self) -> InputFormat {
        match M::SCORING {
            Scoring::Packets(_) => InputFormat::Packets,
            Scoring::Flows(_) => InputFormat::Flows,
        }
    }

    fn fit(&mut self, train: &TrainView) {
        self.model = Some(M::fit(&self.config, train));
    }

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        match (M::SCORING, event) {
            (Scoring::Packets(score), Event::Packet(view)) => self.timed(|model, single| {
                single.clear();
                score(model, &mut std::iter::once(*view), single);
                single.pop()
            }),
            (Scoring::Flows(score), Event::FlowEvicted(flow)) => {
                Some(self.timed(|model, _| score(model, flow)))
            }
            _ => None,
        }
    }

    fn on_packet_batch(
        &mut self,
        views: &mut dyn Iterator<Item = &ParsedView>,
        scores: &mut Vec<f64>,
    ) {
        // A flow model scores no packet.
        if let Scoring::Packets(score) = M::SCORING {
            self.timed(|model, _| score(model, views, scores));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{Label, LabeledPacket};
    use idsbench_net::{Packet, Timestamp};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Scores each packet by wire length plus the number of fits so far.
    #[derive(Debug)]
    struct Length {
        fits: usize,
    }

    impl Model for Length {
        const NAME: &'static str = "length";
        const SCORING: Scoring<Self> = Scoring::Packets(Length::score);
        type Config = usize;
        fn fit(config: &usize, train: &TrainView) -> Self {
            Length { fits: config + train.packets.len() }
        }
    }

    impl Length {
        fn score(&mut self, views: &mut dyn Iterator<Item = &ParsedView>, out: &mut Vec<f64>) {
            out.extend(views.map(|v| (v.packet.packet.wire_len() + self.fits) as f64));
        }
    }

    /// Counts the spans it is asked to start and finish; samples every call.
    #[derive(Debug, Default, Clone)]
    struct Counting(Arc<[AtomicUsize; 2]>);

    impl InferenceProbe for Counting {
        fn begin(&self) -> Option<Instant> {
            self.0[0].fetch_add(1, Ordering::Relaxed);
            Some(Instant::now())
        }
        fn end(&self, _started: Instant) {
            self.0[1].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn view(len: usize) -> ParsedView {
        let packet = Packet::new(Timestamp::ZERO, vec![0; len]);
        ParsedView::from_packet(LabeledPacket::new(packet, Label::Benign))
    }

    #[test]
    fn scoring_before_fit_fits_on_an_empty_slice() {
        let mut detector = Detector::<Length>::new(7);
        assert_eq!(detector.on_event(&Event::Packet(&view(60))), Some(67.0));
        detector.fit(&TrainView { packets: vec![view(1), view(2)], flows: Vec::new() });
        assert_eq!(detector.on_event(&Event::Packet(&view(60))), Some(69.0));
    }

    #[test]
    fn a_packet_is_a_burst_of_one_and_the_probe_spans_each_burst() {
        let mut detector = Detector::<Length>::default();
        let probe = Counting::default();
        detector.attach_inference_probe(probe.clone());
        let views = [view(10), view(20), view(30)];
        let mut scores = Vec::new();
        detector.on_packet_batch(&mut views.iter(), &mut scores);
        let single: Vec<f64> =
            views.iter().filter_map(|v| detector.on_event(&Event::Packet(v))).collect();
        assert_eq!(scores, [10.0, 20.0, 30.0]);
        assert_eq!(single, scores);
        assert_eq!(detector.name(), "length");
        assert_eq!(detector.input_format(), InputFormat::Packets);
        // One span for the burst, one per single packet.
        assert_eq!(probe.0[0].load(Ordering::Relaxed), 4);
        assert_eq!(probe.0[1].load(Ordering::Relaxed), 4);
    }
}
