//! The one detector shell: [`Detector`] implements [`EventDetector`] once,
//! for every system, and each system supplies only its [`Model`].
//!
//! A model declares its name, its configuration, how it fits on the
//! training slice, and how it scores ([`Scoring`]: AfterImage feature rows
//! of packets, or one evicted flow, which is also its [`InputFormat`]). The
//! shell owns the rest, written once for all of them:
//!
//! * a feature model's one AfterImage [`FeatureStage`]: `fit` reads the
//!   training rows through [`TrainRows`], and the shell scores on with the
//!   stage that has seen the whole slice — unless the views arrive carrying
//!   their rows ([`ParsedView::features`]). A `run_stream` of a
//!   packet-format detector extracts them once, in feed order, with the
//!   feeder's own stage, built past the training slice as the shell's is;
//!   the first carried row drops the shell's stage, which then extracts
//!   nothing again;
//! * scoring before [`EventDetector::fit`] first fits on an empty
//!   [`TrainView`] — the stream keeps flowing, as a deployed IDS must;
//! * dispatch on the input format: a feature model scores each
//!   [`EventDetector::on_packet_batch`] burst, and an [`Event::Packet`] as a
//!   burst of one, where a malformed view scores 0 unextracted and
//!   unstaged; a flow model scores each [`Event::FlowEvicted`]; every other
//!   event passes through unscored;
//! * the sampled [`InferenceProbe`] around each scoring call, extraction
//!   included where the shell extracts (a stream run times the feeder's
//!   extraction as a stage of its own).

use std::fmt;
use std::time::Instant;

use idsbench_flow::{AfterImage, AfterImageConfig, AFTERIMAGE_FEATURES};
use idsbench_net::ParsedPacket;

use crate::detector::{InputFormat, LabeledFlow};
use crate::event::{Event, EventDetector, FeatureRow, ParsedView, TrainView};

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
    /// Scores packets by their AfterImage rows. Scores must not depend on
    /// where the stream was cut into bursts.
    Features {
        /// Stages a well-formed packet of the burst with its row.
        stage: fn(&mut M, &ParsedPacket, &[f64]),
        /// Pushes one score per row staged since the last call, in order.
        score: fn(&mut M, &mut Vec<f64>),
    },
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

    /// Fits a model on the training slice, whose rows a feature model reads
    /// from `rows` (a flow model gets none). An empty slice must give a
    /// working model: it is what scoring before `fit` scores with.
    fn fit(config: &Self::Config, train: &TrainView, rows: &mut TrainRows<'_>) -> Self;
}

/// The AfterImage rows of a slice's well-formed views, extracted in order
/// as they are read, by a [`FeatureStage`] that starts fresh.
#[derive(Debug)]
pub struct TrainRows<'a> {
    views: std::slice::Iter<'a, ParsedView>,
    stage: FeatureStage,
}

impl<'a> TrainRows<'a> {
    /// A cursor over the rows of `views`.
    pub fn new(views: &'a [ParsedView]) -> Self {
        let stage = FeatureStage {
            extractor: AfterImage::new(AfterImageConfig::default()),
            row: Vec::new(),
            spare: Vec::new(),
        };
        TrainRows { views: views.iter(), stage }
    }

    /// The next well-formed view's row; `None` past the last.
    pub fn next_row(&mut self) -> Option<&[f64]> {
        let parsed = self.views.by_ref().find_map(|view| view.parsed.as_ref())?;
        Some(self.stage.extract(parsed))
    }

    /// Reads the rows left unread; the stage past the whole slice.
    fn finish(mut self) -> FeatureStage {
        while self.next_row().is_some() {}
        self.stage
    }
}

/// The ordered extraction stage of a stream run: one AfterImage that sees
/// every evaluation packet in feed order and attaches each well-formed
/// view's row ([`ParsedView::features`]) for the shard that scores it.
///
/// It is built past the training slice the way the shell's own stage is
/// after `fit` (every well-formed training view, in order, through
/// [`TrainRows`]); its private `extract` is the one place either
/// extracts. So at one shard the carried rows are bit for bit the
/// rows the shard would have extracted, and at any shard count every shard
/// scores rows of the global packet sequence. Consumed rows come back
/// through [`FeatureStage::reclaim`], so a warm stage allocates nothing.
#[derive(Debug)]
pub struct FeatureStage {
    extractor: AfterImage,
    /// The row being extracted.
    row: Vec<f64>,
    /// Reclaimed rows, reused before a new one is allocated.
    spare: Vec<FeatureRow>,
}

impl FeatureStage {
    /// A stage past the well-formed views of `train`.
    pub fn new(train: &TrainView) -> Self {
        TrainRows::new(&train.packets).finish()
    }

    /// The next packet's row, in the stage's own buffer.
    fn extract(&mut self, parsed: &ParsedPacket) -> &[f64] {
        self.extractor.update_into(parsed, &mut self.row);
        &self.row
    }

    /// Extracts `view`'s row and attaches a copy in a spare buffer (a new
    /// one when none is left); a malformed view gets none.
    ///
    /// A reclaimed buffer was last read on a shard's core. Extracting into
    /// the stage's own row and copying it over in one pass costs less than
    /// scattering the extractor's stores across those lines.
    pub fn attach(&mut self, view: &mut ParsedView) {
        if let Some(parsed) = &view.parsed {
            let mut row = self.spare.pop().unwrap_or_else(|| Box::new([0.0; AFTERIMAGE_FEATURES]));
            row.copy_from_slice(self.extract(parsed));
            view.features = Some(row);
        }
    }

    /// Keeps a consumed view's row, if it carried one, for reuse.
    pub fn reclaim(&mut self, row: Option<FeatureRow>) {
        self.spare.extend(row);
    }
}

/// A fitted model, the stage past its training slice and every packet the
/// shell extracted since (none for a flow model, nor once rows arrive
/// carried), and the positions of the malformed views in the burst.
#[derive(Debug)]
struct Fitted<M> {
    model: M,
    rows: Option<FeatureStage>,
    malformed: Vec<usize>,
}

impl<M: Model> Fitted<M> {
    /// Fits the model, then extracts the training rows it left unread.
    fn new(config: &M::Config, train: &TrainView) -> Self {
        let flows = matches!(M::SCORING, Scoring::Flows(_));
        let mut rows = TrainRows::new(if flows { &[] } else { &train.packets });
        let model = M::fit(config, train, &mut rows);
        Fitted { model, rows: (!flows).then(|| rows.finish()), malformed: Vec::new() }
    }

    /// Stages each well-formed view with its row — the one it carries, or
    /// else one the shell's stage extracts — scores them in one call and
    /// pushes one score per view, 0 for a malformed one.
    ///
    /// A carried row means an upstream stage has seen the packet and the
    /// shell's has not, so the first one drops the shell's stage. A bare
    /// view after it cannot be extracted in order: it is neither staged nor
    /// scored, and the burst's count check refuses the short burst.
    fn score_burst(
        &mut self,
        stage: fn(&mut M, &ParsedPacket, &[f64]),
        score: fn(&mut M, &mut Vec<f64>),
        views: &mut dyn Iterator<Item = &ParsedView>,
        out: &mut Vec<f64>,
    ) {
        self.malformed.clear();
        // The position of the next view's score in this burst.
        let mut at = 0;
        for view in views {
            let Some(parsed) = &view.parsed else {
                self.malformed.push(at);
                at += 1;
                continue;
            };
            let row = match (&view.features, &mut self.rows) {
                (Some(row), rows) => {
                    *rows = None;
                    &row[..]
                }
                (None, Some(rows)) => rows.extract(parsed),
                (None, None) => continue,
            };
            stage(&mut self.model, parsed, row);
            at += 1;
        }
        let start = out.len();
        score(&mut self.model, out);
        // In ascending order, each insert lands at its final position.
        for &i in &self.malformed {
            out.insert(start + i, 0.0);
        }
    }
}

/// The one [`EventDetector`] implementation (see module docs).
#[derive(Debug)]
pub struct Detector<M: Model> {
    config: M::Config,
    /// `None` until `fit` or the first scored event.
    fitted: Option<Fitted<M>>,
    /// Optional sampled timer around the scoring call.
    probe: Option<Box<dyn InferenceProbe>>,
    /// The one-score output of a one-packet [`Event::Packet`] burst.
    single: Vec<f64>,
}

impl<M: Model> Detector<M> {
    /// An unfitted detector with the given configuration.
    pub fn new(config: M::Config) -> Self {
        Detector { config, fitted: None, probe: None, single: Vec::with_capacity(1) }
    }

    /// Attaches a sampled timer around the scoring call: once per packet
    /// burst (an [`Event::Packet`] is a burst of one), the shell's own
    /// extraction included (rows a [`FeatureStage`] carried in were timed
    /// upstream), or once per flow. Purely observational — scores are
    /// bit-identical with or without it — and allocation-free on the
    /// scoring path.
    pub fn attach_inference_probe(&mut self, probe: impl InferenceProbe + 'static) {
        self.probe = Some(Box::new(probe));
    }

    /// Runs `score`, fitting on nothing first if `fit` never ran, inside the
    /// probe's span.
    fn timed<T>(&mut self, score: impl FnOnce(&mut Fitted<M>, &mut Vec<f64>) -> T) -> T {
        let fitted =
            self.fitted.get_or_insert_with(|| Fitted::new(&self.config, &TrainView::default()));
        let started = self.probe.as_ref().and_then(|probe| probe.begin());
        let out = score(fitted, &mut self.single);
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
            Scoring::Features { .. } => InputFormat::Packets,
            Scoring::Flows(_) => InputFormat::Flows,
        }
    }

    fn fit(&mut self, train: &TrainView) {
        self.fitted = Some(Fitted::new(&self.config, train));
    }

    fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
        match (M::SCORING, event) {
            (Scoring::Features { stage, score }, Event::Packet(view)) => {
                self.timed(|fitted, single| {
                    single.clear();
                    fitted.score_burst(stage, score, &mut std::iter::once(*view), single);
                    single.pop()
                })
            }
            (Scoring::Flows(score), Event::FlowEvicted(flow)) => {
                Some(self.timed(|fitted, _| score(&mut fitted.model, flow)))
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
        if let Scoring::Features { stage, score } = M::SCORING {
            self.timed(|fitted, _| fitted.score_burst(stage, score, views, scores));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{Label, LabeledPacket};
    use idsbench_net::{MacAddr, Packet, PacketBuilder, Timestamp};
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Scores each packet by its source's packet weight at the fastest λ
    /// (feature 0) plus the number of fits so far, and counts the rows it
    /// is handed.
    #[derive(Debug)]
    struct Weight {
        fits: usize,
        staged: Vec<f64>,
        stages: usize,
    }

    impl Model for Weight {
        const NAME: &'static str = "weight";
        const SCORING: Scoring<Self> =
            Scoring::Features { stage: Weight::stage, score: Weight::score };
        type Config = usize;
        fn fit(config: &usize, train: &TrainView, _rows: &mut TrainRows<'_>) -> Self {
            Weight { fits: config + train.packets.len(), staged: Vec::new(), stages: 0 }
        }
    }

    impl Weight {
        fn stage(&mut self, _parsed: &ParsedPacket, row: &[f64]) {
            self.staged.push(row[0] + self.fits as f64);
            self.stages += 1;
        }

        fn score(&mut self, out: &mut Vec<f64>) {
            out.append(&mut self.staged);
        }
    }

    /// Scores each packet by a weighted sum over its whole row, so any
    /// feature that moves moves the score.
    #[derive(Debug)]
    struct RowSum(Vec<f64>);

    impl Model for RowSum {
        const NAME: &'static str = "row-sum";
        const SCORING: Scoring<Self> =
            Scoring::Features { stage: RowSum::stage, score: RowSum::score };
        type Config = ();
        fn fit(_config: &(), _train: &TrainView, _rows: &mut TrainRows<'_>) -> Self {
            RowSum(Vec::new())
        }
    }

    impl RowSum {
        fn stage(&mut self, _parsed: &ParsedPacket, row: &[f64]) {
            self.0.push(row.iter().enumerate().map(|(i, x)| (i + 1) as f64 * x).sum());
        }

        fn score(&mut self, out: &mut Vec<f64>) {
            out.append(&mut self.0);
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

    /// A packet from host `source`, all at one instant: a source's weight
    /// counts its packets, undecayed.
    fn view(source: u8) -> ParsedView {
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(source.into()), MacAddr::from_host_id(100))
            .ipv4(Ipv4Addr::new(10, 0, 0, source), Ipv4Addr::new(10, 0, 0, 100))
            .udp(4000, 53)
            .build(Timestamp::ZERO);
        ParsedView::from_packet(LabeledPacket::new(packet, Label::Benign))
    }

    /// A packet from host `source` to host 100 at `micros`, on the source's
    /// own UDP port.
    fn view_at(source: u8, micros: u64) -> ParsedView {
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(source.into()), MacAddr::from_host_id(100))
            .ipv4(Ipv4Addr::new(10, 0, 0, source), Ipv4Addr::new(10, 0, 0, 100))
            .udp(4000 + u16::from(source), 53)
            .payload_len(usize::from(source) * 10)
            .build(Timestamp::from_micros(micros));
        ParsedView::from_packet(LabeledPacket::new(packet, Label::Benign))
    }

    /// A frame too short for an Ethernet header.
    fn malformed() -> ParsedView {
        let packet = Packet::new(Timestamp::ZERO, vec![0; 10]);
        ParsedView::from_packet(LabeledPacket::new(packet, Label::Benign))
    }

    fn stages(detector: &Detector<Weight>) -> usize {
        detector.fitted.as_ref().expect("fitted").model.stages
    }

    #[test]
    fn scoring_before_fit_fits_on_an_empty_slice() {
        let mut detector = Detector::<Weight>::new(7);
        assert_eq!(detector.on_event(&Event::Packet(&view(1))), Some(1.0 + 7.0));
        // A fit replaces the model and the stage, which has then seen the
        // two training packets of source 1.
        detector.fit(&TrainView { packets: vec![view(1), view(1)], flows: Vec::new() });
        assert_eq!(detector.on_event(&Event::Packet(&view(1))), Some(3.0 + 9.0));
        assert_eq!(detector.on_event(&Event::Packet(&view(2))), Some(1.0 + 9.0));
    }

    #[test]
    fn a_packet_is_a_burst_of_one_and_the_probe_spans_each_burst() {
        let probe = Counting::default();
        let (mut batched, mut single) =
            (Detector::<Weight>::default(), Detector::<Weight>::default());
        batched.attach_inference_probe(probe.clone());
        single.attach_inference_probe(probe.clone());
        let views = [view(1), view(2), view(1)];
        let mut scores = Vec::new();
        batched.on_packet_batch(&mut views.iter(), &mut scores);
        let one_by_one: Vec<f64> =
            views.iter().filter_map(|v| single.on_event(&Event::Packet(v))).collect();
        assert_eq!(scores, [1.0, 1.0, 2.0]);
        assert_eq!(one_by_one, scores);
        assert_eq!(batched.name(), "weight");
        assert_eq!(batched.input_format(), InputFormat::Packets);
        // One span for the burst, one per single packet.
        assert_eq!(probe.0[0].load(Ordering::Relaxed), 4);
        assert_eq!(probe.0[1].load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_malformed_view_scores_zero_and_reaches_neither_extractor_nor_model() {
        let clean = [view(1), view(1), view(2), view(1)];
        let with_malformed = [view(1), view(1), malformed(), view(2), view(1)];
        let (mut reference, mut detector) =
            (Detector::<Weight>::default(), Detector::<Weight>::default());
        let (mut expected, mut scores) = (Vec::new(), Vec::new());
        reference.on_packet_batch(&mut clean.iter(), &mut expected);
        detector.on_packet_batch(&mut with_malformed.iter(), &mut scores);
        expected.insert(2, 0.0);
        assert_eq!(scores, expected);
        assert_eq!(scores, [1.0, 2.0, 0.0, 1.0, 3.0]);
        assert_eq!(stages(&detector), 4);
        // Nor does a malformed packet event, which is a burst of one.
        assert_eq!(detector.on_event(&Event::Packet(&malformed())), Some(0.0));
        assert_eq!(detector.on_event(&Event::Packet(&view(1))), Some(4.0));
        assert_eq!(stages(&detector), 5);
    }

    #[test]
    fn carried_rows_score_bit_for_bit_like_rows_the_shell_extracts() {
        let train = TrainView {
            packets: (0..40).map(|i| view_at(i % 3 + 1, 700 * u64::from(i))).collect(),
            flows: Vec::new(),
        };
        let burst: Vec<ParsedView> = (0..48u8)
            .map(|i| {
                if i == 17 {
                    malformed()
                } else {
                    view_at(i % 5 + 1, 30_000 + 450 * u64::from(i))
                }
            })
            .collect();
        let mut carried = burst.clone();
        let mut stage = FeatureStage::new(&train);
        for view in &mut carried {
            stage.attach(view);
        }
        assert!(carried[17].features.is_none(), "a malformed view carries no row");
        assert_eq!(carried.iter().filter(|view| view.features.is_some()).count(), 47);

        let (mut extracting, mut staging) =
            (Detector::<RowSum>::default(), Detector::<RowSum>::default());
        extracting.fit(&train);
        staging.fit(&train);
        let (mut expected, mut scores) = (Vec::new(), Vec::new());
        extracting.on_packet_batch(&mut burst.iter(), &mut expected);
        staging.on_packet_batch(&mut carried.iter(), &mut scores);
        assert_eq!(scores.len(), 48);
        assert_eq!(scores[17], 0.0);
        let bits = |scores: &[f64]| scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scores), bits(&expected));
        // The shell staged the carried rows, extracted none of its own and
        // dropped its stage at the first.
        let seen = |detector: &Detector<RowSum>| {
            let rows = &detector.fitted.as_ref().expect("fitted").rows;
            rows.as_ref().map(|stage| stage.extractor.packets_seen())
        };
        assert_eq!((seen(&extracting), seen(&staging)), (Some(40 + 47), None));

        // Consumed rows are reused, not reallocated.
        for view in &mut carried {
            stage.reclaim(view.features.take());
        }
        let reused: Vec<*const [f64; AFTERIMAGE_FEATURES]> =
            stage.spare.iter().map(|row| &**row as *const _).collect();
        let mut again = view_at(1, 60_000);
        stage.attach(&mut again);
        assert_eq!(again.features.as_deref().map(|row| row as *const _), reused.last().copied());
    }

    #[test]
    fn a_bare_view_after_a_carried_row_fails_its_burst() {
        let mut views = [view_at(1, 0), view_at(2, 10), malformed(), view_at(1, 20)];
        let mut stage = FeatureStage::new(&TrainView::default());
        stage.attach(&mut views[0]);
        stage.attach(&mut views[3]);
        let mut detector = Detector::<RowSum>::default();
        let mut burst = crate::event::Burst::default();
        let err = burst.score(&mut detector, None, views.iter()).unwrap_err();
        assert!(
            matches!(err, crate::CoreError::ScoreCountMismatch { expected: 4, got: 3, .. }),
            "{err}"
        );
    }
}
