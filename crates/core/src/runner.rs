//! The experiment runner: the *batch driver* of the Event contract.
//!
//! [`evaluate`] runs the full paper pipeline — generate → parse-once
//! preprocess → `fit` → event replay → calibrate threshold → confusion
//! metrics — by replaying the evaluation slice as an event stream through
//! an [`EventDetector`]. The replay is one [`Burst`] loop, the one every
//! streaming shard in `idsbench-stream` runs too, so a single-shard
//! streaming run reproduces these results bitwise by construction.
//!
//! The pipeline has three parts. *Preparing a row* — `generate` →
//! [`Pipeline::prepare_events`], then the training slice's [`TrainMix`] —
//! depends on the dataset, the seed and the pipeline only. *Scoring a
//! cell* — a fresh detector fitted and replayed on a prepared
//! [`EventInput`], its scores ranked once — reads that input without
//! changing it. *Assessing* a scored cell under a threshold policy
//! calibrates on that ranking, counts the attack families at the threshold
//! and builds an [`Assessment`] through [`Assessment::new`], the
//! constructor the stream engine's merge calls too, so batch and stream
//! derive every verdict figure one way.
//!
//! [`run_rows`] evaluates detectors on a list of rows, each row one
//! dataset under one condition (an [`EvalConfig`]); [`run_grid`] is its
//! case of every dataset under one condition. Rows are keyed by (dataset,
//! `dataset_seed`, `pipeline`): rows that differ only in `policy` share a
//! key, and each key's dataset is realised **once**, not once per cell or
//! per row. A cell is a (detector, key) pair: it builds one fresh detector
//! and runs one replay and one ranking, and every row with the key assesses
//! that ranking under its own policy. Cells are handed to the worker
//! threads key by key, in the order of each key's first row; the first
//! worker to reach a key prepares it, the key's detectors share the
//! prepared input read-only, and the worker that finishes the key's last
//! cell drops it. Because cells are claimed in key order, a key that is
//! still prepared has a cell in flight, so no more prepared inputs are ever
//! resident than there are workers — the grid's peak memory grows with
//! neither the number of datasets nor the number of rows. Every result is
//! what a standalone [`evaluate`] of the same pair under its row's
//! condition returns.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::dataset::Dataset;
use crate::detector::InputFormat;
use crate::event::{
    Burst, BurstEvent, EventDetector, EventFactory, FlowEventAssembler, TrainView, BURST_PACKETS,
};
use crate::metrics::{Assessment, FamilyCounts, Ranking};
use crate::preprocess::{EventInput, Pipeline, PipelineConfig};
use crate::threshold::ThresholdPolicy;
use crate::{AttackKind, CoreError, Result};

/// Configuration for one evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalConfig {
    /// Preprocessing parameters (sampling, split, flow table).
    pub pipeline: PipelineConfig,
    /// Threshold-calibration rule applied uniformly to every detector.
    pub policy: ThresholdPolicy,
    /// Seed handed to [`Dataset::generate`].
    pub dataset_seed: u64,
}

/// The outcome of evaluating one detector on one dataset — one cell of
/// Table IV plus the diagnostics the discussion section draws on.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Detector name.
    pub detector: String,
    /// Dataset name.
    pub dataset: String,
    /// The verdict at the calibrated threshold.
    pub assessment: Assessment,
    /// What the detector trained on.
    pub train: TrainMix,
    /// Evaluation packets replayed; `eval_items` equals it for a packet
    /// detector and counts flow evictions for a flow detector.
    pub eval_packets: usize,
    /// Wall-clock seconds spent in `fit` — the one-time training and
    /// calibration cost a deployment pays once.
    pub train_seconds: f64,
    /// Wall-clock seconds of the scoring bursts ([`ScoredReplay::score_seconds`])
    /// — the recurring per-event scoring cost a deployment pays forever,
    /// flow assembly included for flow-format detectors. Kept separate from
    /// [`Experiment::train_seconds`] so practicality comparisons do not
    /// launder training time into per-packet cost (or vice versa).
    pub score_seconds: f64,
}

/// `cell.metrics`, `cell.threshold`, … read the cell's [`Assessment`]:
/// the repository benchmark, the examples and the crate docs read the
/// verdict's fields off the cell directly, and this keeps them working
/// without a second copy of the fields.
impl std::ops::Deref for Experiment {
    type Target = Assessment;

    fn deref(&self) -> &Assessment {
        &self.assessment
    }
}

/// The composition of a training slice: what a detector had to learn from.
/// A supervised model whose slice holds no attack cannot learn an attack
/// class. Counted once per prepared row and carried by every batch cell;
/// a `StreamReport` does not carry it, since a fabric run's coordinator
/// never assembles the training flows it would count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainMix {
    /// Training packets.
    pub packets: usize,
    /// Training packets labelled as attacks.
    pub attack_packets: usize,
    /// Flows assembled from the training packets.
    pub flows: usize,
    /// Training flows labelled as attacks.
    pub attack_flows: usize,
}

impl TrainMix {
    /// Counts `train`'s packets and flows, attacks among them.
    pub fn of(train: &TrainView) -> Self {
        TrainMix {
            packets: train.packets.len(),
            attack_packets: train.packets.iter().filter(|view| view.is_attack()).count(),
            flows: train.flows.len(),
            attack_flows: train.flows.iter().filter(|flow| flow.is_attack()).count(),
        }
    }
}

/// The raw outcome of one event replay, before threshold calibration: one
/// entry per scored event, in delivery order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredReplay {
    /// Anomaly scores, one per scored event.
    pub scores: Vec<f64>,
    /// Ground truth aligned with `scores`.
    pub labels: Vec<bool>,
    /// Attack kinds aligned with `scores` (`None` for benign).
    pub kinds: Vec<Option<AttackKind>>,
    /// Seconds spent inside `fit`.
    pub train_seconds: f64,
    /// Wall-clock seconds of the scoring bursts: detector calls plus, for
    /// flow-format detectors, the flow assembly that produced the
    /// evictions (one clock pair per [`Burst`], the flush included).
    pub score_seconds: f64,
    /// Packet events delivered.
    pub eval_packets: usize,
    /// Flow-eviction events delivered (zero for packet-format detectors,
    /// whose replay skips flow assembly entirely).
    pub eval_flows: usize,
}

impl ScoredReplay {
    /// Appends a burst's scored events.
    fn extend(&mut self, events: &[BurstEvent]) {
        for event in events {
            self.scores.push(event.score);
            self.labels.push(event.label.is_attack());
            self.kinds.push(event.label.attack_kind());
        }
    }
}

/// Fits a detector on the prepared training slice, then replays the
/// evaluation slice as an event stream through one [`Burst`] — over
/// [`BURST_PACKETS`]-packet chunks, then the end-of-stream flush for
/// flow-format detectors. No packet is parsed here; the views were decoded
/// once in [`Pipeline::prepare_events`].
///
/// # Errors
///
/// Returns [`CoreError::ScoreCountMismatch`] as soon as a burst's detector
/// fails to return exactly one score per event of its declared input
/// format.
pub fn replay(detector: &mut dyn EventDetector, input: &EventInput) -> Result<ScoredReplay> {
    let fit_started = Instant::now();
    detector.fit(&input.train);
    let train_seconds = fit_started.elapsed().as_secs_f64();

    let mut out = ScoredReplay {
        scores: Vec::new(),
        labels: Vec::new(),
        kinds: Vec::new(),
        train_seconds,
        score_seconds: 0.0,
        eval_packets: input.eval.len(),
        eval_flows: 0,
    };
    let mut assembler = FlowEventAssembler::for_format(detector.input_format(), input.flow_config);
    let mut burst = Burst::default();
    let mut score_nanos = 0u128;
    for views in input.eval.chunks(BURST_PACKETS) {
        score_nanos += burst.score(detector, assembler.as_mut(), views.iter())?;
        out.extend(burst.events());
    }
    if let Some(assembler) = &mut assembler {
        score_nanos += burst.flush(detector, assembler)?;
        out.extend(burst.events());
        // Every burst passed its count check: one score per eviction.
        out.eval_flows = out.scores.len();
    }
    out.score_seconds = score_nanos as f64 / 1e9;
    Ok(out)
}

/// Evaluates one detector on one dataset.
///
/// Runs the full paper pipeline: generate → parse-once preprocess → fit →
/// event replay → calibrate threshold → confusion metrics.
///
/// # Errors
///
/// Propagates preprocessing errors and returns
/// [`CoreError::ScoreCountMismatch`] if the detector skips or double-scores
/// events of its declared format.
pub fn evaluate(
    detector: &mut dyn EventDetector,
    dataset: &dyn Dataset,
    config: &EvalConfig,
) -> Result<Experiment> {
    let prepared = prepare(dataset, config)?;
    let scored = Scored::new(detector, &prepared.input)?;
    Ok(scored.experiment(detector.name(), &dataset.info().name, &prepared, config.policy))
}

/// A prepared dataset: the input its cells replay and its training mix.
#[derive(Debug)]
struct Prepared {
    input: EventInput,
    train: TrainMix,
}

/// The detector-independent part of [`evaluate`]: one realisation of
/// `dataset` from the configured seed, parsed once, split, with the
/// training slice's flow view assembled and its mix counted. Reads only
/// `config`'s `dataset_seed` and `pipeline`, its part of a row key.
fn prepare(dataset: &dyn Dataset, config: &EvalConfig) -> Result<Prepared> {
    let packets = dataset.generate(config.dataset_seed);
    let input = Pipeline::new(config.pipeline)?.prepare_events(&dataset.info().name, packets)?;
    Ok(Prepared { train: TrainMix::of(&input.train), input })
}

/// The policy-independent half of a cell, which every row sharing its key
/// reads: a detector fitted and replayed on a prepared input, its scores
/// ranked once.
struct Scored {
    replayed: ScoredReplay,
    ranking: Ranking,
    auc: f64,
    /// Every scored event shares the detector's declared input shape:
    /// packet-format detectors score packets, flow-format detectors score
    /// flow evictions.
    is_flow: bool,
}

impl Scored {
    fn new(detector: &mut dyn EventDetector, input: &EventInput) -> Result<Self> {
        let replayed = replay(detector, input)?;
        let ranking = Ranking::new(&replayed.scores, &replayed.labels);
        let auc = ranking.auc();
        Ok(Scored {
            replayed,
            ranking,
            auc,
            is_flow: detector.input_format() == InputFormat::Flows,
        })
    }

    /// The per-row half: calibrate `policy`'s threshold on the ranking,
    /// count the families at it and build the [`Assessment`].
    fn experiment(
        &self,
        detector: &str,
        dataset: &str,
        prepared: &Prepared,
        policy: ThresholdPolicy,
    ) -> Experiment {
        let threshold = policy.calibrate_ranked(&self.ranking);
        let mut families: BTreeMap<&'static str, FamilyCounts> = BTreeMap::new();
        for (score, kind) in self.replayed.scores.iter().zip(&self.replayed.kinds) {
            if let Some(kind) = kind {
                families.entry(kind.name()).or_default().record(*score >= threshold, self.is_flow);
            }
        }
        let cm = self.ranking.confusion_at(threshold);
        Experiment {
            detector: detector.to_string(),
            dataset: dataset.to_string(),
            assessment: Assessment::new(threshold, cm, &families, self.auc),
            train: prepared.train,
            eval_packets: self.replayed.eval_packets,
            train_seconds: self.replayed.train_seconds,
            score_seconds: self.replayed.score_seconds,
        }
    }
}

/// A named detector factory: the grid builds a fresh instance per cell so
/// no state leaks between datasets (the paper's out-of-the-box rule).
pub type DetectorFactory<'a> = EventFactory<'a>;

/// One key of a running grid: the prepared input its cells share.
struct Preparation {
    /// Filled by the first cell to arrive (the lock is held while it
    /// prepares, so the key's other cells wait instead of preparing it
    /// again), emptied by the last cell to leave. A preparation that fails
    /// stores nothing: each of the key's cells repeats it and reports the
    /// same error. One that panics stores nothing either, so a poisoned
    /// lock still guards a valid slot and is taken as if it were not.
    input: Mutex<Option<Arc<Prepared>>>,
    /// Cells of this key that have not finished yet.
    unfinished: AtomicUsize,
}

impl Preparation {
    fn share(&self, dataset: &dyn Dataset, config: &EvalConfig) -> Result<Arc<Prepared>> {
        let mut slot = self.input.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(prepared) = &*slot {
            return Ok(Arc::clone(prepared));
        }
        let prepared = Arc::new(prepare(dataset, config)?);
        *slot = Some(Arc::clone(&prepared));
        Ok(prepared)
    }
}

/// One cell's claim on its key's preparation, released on drop — so a cell
/// that fails or panics still counts as finished and the last one out
/// still frees the prepared input.
struct Claim<'a>(&'a Preparation);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.0.unfinished.fetch_sub(1, Ordering::SeqCst) == 1 {
            *self.0.input.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
}

/// The message of a caught panic (`panic!` payloads are a `&str` or a
/// `String`; anything else is a custom `panic_any` value).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|message| message.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Evaluates every detector on every dataset under the one condition
/// `config`, in parallel: [`run_rows`] with one row per dataset, its
/// results laid out detector-major (all datasets for the first detector,
/// then the second, …) as in Table IV.
///
/// # Errors
///
/// Returns the first error in result order, as [`run_rows`] describes.
pub fn run_grid(
    detectors: &[(String, DetectorFactory<'_>)],
    datasets: &[&dyn Dataset],
    config: &EvalConfig,
) -> Result<Vec<Experiment>> {
    let rows: Vec<_> = (0..datasets.len()).map(|s| (s, *config)).collect();
    // Cell `s·D + d` is result `d·S + s`: a stable sort by detector keeps
    // each detector's datasets in order.
    let mut cells: Vec<_> =
        grid_cells(detectors, datasets, &rows).into_iter().enumerate().collect();
    cells.sort_by_key(|(at, _)| at % detectors.len());
    cells.into_iter().map(|(_, cell)| cell).collect()
}

/// Evaluates every detector on every row, in parallel. A row is one
/// dataset, by its index in `datasets`, under one condition.
///
/// Results hold one `Vec` per row, in `rows` order, each with one
/// [`Experiment`] per detector in `detectors` order. Each `detector` field
/// is the *registered* factory name, so one implementation can appear
/// under several configurations. Rows with the same dataset,
/// `dataset_seed` and `pipeline` share one realisation, and a detector is
/// fitted, replayed and ranked once for all of them: each such row
/// calibrates its own `policy` on that ranking, so their results carry the
/// same two timings. Every result equals a standalone [`evaluate`] of its
/// pair under its row's condition in every other field.
///
/// # Errors
///
/// Returns the first error in row order, then in detector order. A
/// detector (or dataset) that panics fails its cell with
/// [`CoreError::CellPanicked`] in every row that shares the cell's key; the
/// other cells still run.
///
/// # Panics
///
/// Panics if a row's dataset index is out of range of `datasets`.
pub fn run_rows(
    detectors: &[(String, DetectorFactory<'_>)],
    datasets: &[&dyn Dataset],
    rows: &[(usize, EvalConfig)],
) -> Result<Vec<Vec<Experiment>>> {
    let mut cells = grid_cells(detectors, datasets, rows).into_iter();
    rows.iter().map(|_| cells.by_ref().take(detectors.len()).collect()).collect()
}

/// Every cell's own outcome, row-major: outcome `r·D + d` is detector `d`
/// on row `r`.
fn grid_cells(
    detectors: &[(String, DetectorFactory<'_>)],
    datasets: &[&dyn Dataset],
    rows: &[(usize, EvalConfig)],
) -> Vec<Result<Experiment>> {
    // The keys in order of first appearance, each listing the rows that
    // share it; its first row prepares it.
    let key_of = |&(s, config): &(usize, EvalConfig)| (s, config.dataset_seed, config.pipeline);
    let mut keys: Vec<Vec<usize>> = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        assert!(row.0 < datasets.len(), "row {r} names dataset {} of {}", row.0, datasets.len());
        match keys.iter_mut().find(|key| key_of(&rows[key[0]]) == key_of(row)) {
            Some(key) => key.push(r),
            None => keys.push(vec![r]),
        }
    }
    let preparations: Vec<Preparation> = (0..keys.len())
        .map(|_| Preparation { input: Mutex::default(), unfinished: detectors.len().into() })
        .collect();
    let cells = detectors.len() * keys.len();
    let results: Mutex<Vec<(usize, Result<Experiment>)>> =
        Mutex::new(Vec::with_capacity(rows.len() * detectors.len()));
    // Cells are claimed key-major: claim `c` is detector `c % D` on key
    // `c / D`.
    let next = AtomicUsize::new(0);

    // Detector `d` on key `k`: one outcome per row of the key, each with
    // its result slot.
    let run_cell = |d: usize, k: usize| -> Vec<(usize, Result<Experiment>)> {
        let (name, factory) = &detectors[d];
        let key = &keys[k];
        let (s, config) = &rows[key[0]];
        let dataset = datasets[*s];
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<Experiment>> {
            let _claim = Claim(&preparations[k]);
            let prepared = preparations[k].share(dataset, config)?;
            let scored = Scored::new(factory().as_mut(), &prepared.input)?;
            let dataset_name = &dataset.info().name;
            Ok(key
                .iter()
                .map(|&r| scored.experiment(name, dataset_name, &prepared, rows[r].1.policy))
                .collect())
        }))
        .unwrap_or_else(|payload| {
            Err(CoreError::CellPanicked {
                detector: name.clone(),
                dataset: dataset.info().name.clone(),
                detail: panic_message(payload.as_ref()),
            })
        });
        let outcomes = match outcome {
            Ok(experiments) => experiments.into_iter().map(Ok).collect(),
            Err(error) => vec![Err(error); key.len()],
        };
        key.iter().map(|&r| r * detectors.len() + d).zip(outcomes).collect()
    };

    let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).min(cells.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let claim = next.fetch_add(1, Ordering::SeqCst);
                if claim >= cells {
                    return;
                }
                let outcomes = run_cell(claim % detectors.len(), claim / detectors.len());
                results.lock().unwrap_or_else(PoisonError::into_inner).extend(outcomes);
            });
        }
    });

    let mut collected = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    collected.sort_by_key(|(index, _)| *index);
    collected.into_iter().map(|(_, outcome)| outcome).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetInfo;
    use crate::event::{Event, TrainView};
    use crate::label::{AttackKind, Label, LabeledPacket};
    use idsbench_net::{MacAddr, PacketBuilder, TcpFlags, Timestamp};
    use std::net::Ipv4Addr;

    /// Benign = small packets, attacks = large packets. An oracle-by-length
    /// dataset that a length-scoring detector classifies perfectly.
    #[derive(Debug)]
    struct ToyDataset {
        info: DatasetInfo,
        packets: u64,
    }

    impl ToyDataset {
        fn new(name: &str) -> Self {
            Self::sized(name, 200)
        }

        fn sized(name: &str, packets: u64) -> Self {
            ToyDataset { info: DatasetInfo::new(name, "toy", "unit test", 2024), packets }
        }
    }

    impl Dataset for ToyDataset {
        fn info(&self) -> &DatasetInfo {
            &self.info
        }

        fn generate(&self, seed: u64) -> Vec<LabeledPacket> {
            (0..self.packets)
                .map(|i| {
                    let attack = i % 10 == 0;
                    let payload = if attack { 900 } else { 40 + (seed % 10) as usize };
                    let p = PacketBuilder::new()
                        .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
                        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
                        .tcp(1000 + (i % 50) as u16, 80, TcpFlags::ACK)
                        .payload_len(payload)
                        .build(Timestamp::from_micros(i * 1000));
                    LabeledPacket::new(
                        p,
                        if attack { Label::Attack(AttackKind::SynFlood) } else { Label::Benign },
                    )
                })
                .collect()
        }
    }

    #[derive(Debug)]
    struct LengthDetector;

    impl EventDetector for LengthDetector {
        fn name(&self) -> &str {
            "length"
        }

        fn input_format(&self) -> InputFormat {
            InputFormat::Packets
        }

        fn fit(&mut self, _train: &TrainView) {}

        fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
            match event {
                Event::Packet(view) => Some(view.packet.packet.wire_len() as f64),
                Event::FlowEvicted(_) => None,
            }
        }
    }

    /// Scores flow events by forward packet count — exercises the flow
    /// eviction path of the batch driver.
    #[derive(Debug)]
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

    /// Drops every other packet score — must be caught by the count check.
    #[derive(Debug)]
    struct BrokenDetector {
        seen: usize,
    }

    impl EventDetector for BrokenDetector {
        fn name(&self) -> &str {
            "broken"
        }

        fn input_format(&self) -> InputFormat {
            InputFormat::Packets
        }

        fn fit(&mut self, _train: &TrainView) {}

        fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
            match event {
                Event::Packet(_) => {
                    self.seen += 1;
                    (self.seen % 2 == 0).then_some(0.0)
                }
                Event::FlowEvicted(_) => None,
            }
        }
    }

    #[test]
    fn oracle_detector_scores_perfectly() {
        let dataset = ToyDataset::new("toy");
        let mut detector = LengthDetector;
        let experiment = evaluate(&mut detector, &dataset, &EvalConfig::default()).unwrap();
        assert_eq!(experiment.metrics.f1, 1.0);
        assert_eq!(experiment.metrics.recall, 1.0);
        assert!((experiment.attack_share - 0.1).abs() < 0.05);
        assert_eq!(experiment.auc, 1.0);
        assert_eq!(experiment.dataset, "toy");
        assert_eq!(experiment.detector, "length");
        assert!(experiment.train_seconds >= 0.0);
        assert!(experiment.score_seconds > 0.0);
    }

    #[test]
    fn flow_detector_scores_eviction_events() {
        let dataset = ToyDataset::new("toy");
        let mut detector = FlowCounter;
        let experiment = evaluate(&mut detector, &dataset, &EvalConfig::default()).unwrap();
        assert!(experiment.eval_items > 0, "flow events must have been delivered");
        // All toy packets share one canonical 5-tuple family per src port;
        // the point here is just that the eviction path produced events.
        assert_eq!(experiment.detector, "flow-counter");
    }

    #[test]
    fn family_recall_tracks_detected_kinds() {
        let dataset = ToyDataset::new("toy");
        let mut detector = LengthDetector;
        let experiment = evaluate(&mut detector, &dataset, &EvalConfig::default()).unwrap();
        // The toy dataset's attacks are all SynFlood; the oracle detector
        // catches all of them.
        assert_eq!(experiment.family_recall.len(), 1);
        let outcome = &experiment.family_recall[0];
        assert_eq!(outcome.family, "syn-flood");
        assert_eq!(outcome.recall, 1.0);
        assert!(outcome.items() > 0);
        assert_eq!(outcome.alerts, outcome.items());
        // LengthDetector is packet-format: every scored item is a packet.
        assert_eq!(outcome.flows, 0);
        assert_eq!(outcome.packets, outcome.items());
    }

    #[test]
    fn mismatched_score_count_is_detected() {
        let dataset = ToyDataset::new("toy");
        let mut detector = BrokenDetector { seen: 0 };
        let err = evaluate(&mut detector, &dataset, &EvalConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::ScoreCountMismatch { .. }));
    }

    #[test]
    fn grid_runs_all_cells_in_order() {
        let a = ToyDataset::new("alpha");
        let b = ToyDataset::new("beta");
        let datasets: Vec<&dyn Dataset> = vec![&a, &b];
        let detectors: Vec<(String, DetectorFactory)> = vec![
            ("length".into(), Box::new(|| Box::new(LengthDetector) as Box<dyn EventDetector>)),
            ("length2".into(), Box::new(|| Box::new(LengthDetector) as Box<dyn EventDetector>)),
        ];
        let results = run_grid(&detectors, &datasets, &EvalConfig::default()).unwrap();
        assert_eq!(results.len(), 4);
        let order: Vec<(String, String)> =
            results.iter().map(|e| (e.detector.clone(), e.dataset.clone())).collect();
        assert_eq!(order[0], ("length".to_string(), "alpha".to_string()));
        assert_eq!(order[1], ("length".to_string(), "beta".to_string()));
        assert_eq!(order[2], ("length2".to_string(), "alpha".to_string()));
        assert_eq!(order[3], ("length2".to_string(), "beta".to_string()));

        // Rows in any order, a dataset on several keys: one `Vec` per row,
        // in the rows' order, its cells in detector order.
        let fixed = EvalConfig {
            policy: ThresholdPolicy::Fixed(500.0),
            dataset_seed: 7,
            ..Default::default()
        };
        let rows = [(1, EvalConfig::default()), (0, fixed), (0, EvalConfig::default())];
        let grid = run_rows(&detectors, &datasets, &rows).unwrap();
        assert_eq!(grid.len(), rows.len());
        for ((s, condition), cells) in rows.iter().zip(&grid) {
            assert_eq!(cells.len(), detectors.len());
            for (d, cell) in cells.iter().enumerate() {
                let alone = &results[d * datasets.len() + s];
                assert_eq!((&cell.detector, &cell.dataset), (&alone.detector, &alone.dataset));
                if *condition == fixed {
                    assert_eq!(cell.threshold, 500.0, "row ({s}, fixed), detector {d}");
                } else {
                    assert_eq!(cell.assessment, alone.assessment, "row {s}, detector {d}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row 1 names dataset 2 of 2")]
    fn a_row_naming_no_dataset_is_refused() {
        let (a, b) = (ToyDataset::new("alpha"), ToyDataset::new("beta"));
        let detectors: Vec<(String, DetectorFactory)> = vec![(
            "length".into(),
            Box::new(|| Box::new(LengthDetector) as Box<dyn EventDetector>),
        )];
        let rows = [(0, EvalConfig::default()), (2, EvalConfig::default())];
        let _ = run_rows(&detectors, &[&a, &b], &rows);
    }

    #[test]
    fn grid_propagates_cell_errors() {
        let a = ToyDataset::new("alpha");
        let datasets: Vec<&dyn Dataset> = vec![&a];
        let detectors: Vec<(String, DetectorFactory)> = vec![(
            "broken".into(),
            Box::new(|| Box::new(BrokenDetector { seen: 0 }) as Box<dyn EventDetector>),
        )];
        assert!(run_grid(&detectors, &datasets, &EvalConfig::default()).is_err());
    }

    /// A [`LengthDetector`] that panics in `fit` when handed a training
    /// slice of exactly `fatal_len` packets — i.e. on one dataset only.
    #[derive(Debug)]
    struct PanicsInFit {
        fatal_len: usize,
    }

    impl EventDetector for PanicsInFit {
        fn name(&self) -> &str {
            "panics-in-fit"
        }

        fn input_format(&self) -> InputFormat {
            InputFormat::Packets
        }

        fn fit(&mut self, train: &TrainView) {
            assert!(train.packets.len() != self.fatal_len, "cannot fit {} packets", self.fatal_len);
        }

        fn on_event(&mut self, event: &Event<'_>) -> Option<f64> {
            LengthDetector.on_event(event)
        }
    }

    #[test]
    fn a_panicking_cell_fails_alone_and_names_itself() {
        let a = ToyDataset::new("alpha");
        let b = ToyDataset::sized("beta", 100); // 30 training packets
        let datasets: Vec<&dyn Dataset> = vec![&a, &b];
        let detectors: Vec<(String, DetectorFactory)> = vec![
            ("length".into(), Box::new(|| Box::new(LengthDetector) as Box<dyn EventDetector>)),
            (
                "fragile".into(),
                Box::new(|| Box::new(PanicsInFit { fatal_len: 30 }) as Box<dyn EventDetector>),
            ),
            ("flows".into(), Box::new(|| Box::new(FlowCounter) as Box<dyn EventDetector>)),
        ];
        let config = EvalConfig::default();
        match run_grid(&detectors, &datasets, &config).unwrap_err() {
            CoreError::CellPanicked { detector, dataset, detail } => {
                assert_eq!((detector.as_str(), dataset.as_str()), ("fragile", "beta"));
                assert!(detail.contains("cannot fit 30 packets"), "detail = {detail}");
            }
            other => panic!("expected CellPanicked, got {other}"),
        }

        // Two rows on one key share each cell's one fit, so the panicking
        // cell fails in both rows and no other cell fails in any row.
        let max_f1 = EvalConfig { policy: ThresholdPolicy::MaxF1, ..config };
        let rows = [(0, config), (1, config), (1, max_f1), (0, max_f1)];
        let cells = grid_cells(&detectors, &datasets, &rows);
        assert_eq!(cells.len(), 12);
        for (at, cell) in cells.iter().enumerate() {
            let (d, s) = (at % detectors.len(), rows[at / detectors.len()].0);
            match cell {
                Err(CoreError::CellPanicked { detector, dataset, .. }) => {
                    assert_eq!((d, s), (1, 1), "cell {at}");
                    assert_eq!((detector.as_str(), dataset.as_str()), ("fragile", "beta"));
                }
                other => assert!(other.is_ok() && (d, s) != (1, 1), "cell {at}: {other:?}"),
            }
        }

        // Errors come in row order, then detector order: the first row's
        // panic in its second cell, not the second row's unpreparable
        // dataset, which fails its first cell.
        let empty = ToyDataset::sized("empty", 0);
        let with_empty: Vec<&dyn Dataset> = vec![&a, &b, &empty];
        match run_rows(&detectors, &with_empty, &[(1, config), (2, config)]).unwrap_err() {
            CoreError::CellPanicked { detector, .. } => assert_eq!(detector, "fragile"),
            other => panic!("expected the first row's panic, got {other}"),
        }

        // The panic neither leaked the input it shared nor took the lock
        // with it: the same datasets, walked again around the failed cell, still
        // serve the detectors that come after it.
        let survivors: Vec<(String, DetectorFactory)> = detectors.into_iter().step_by(2).collect();
        let cells = run_grid(&survivors, &datasets, &config).unwrap();
        assert_eq!(cells.len(), 4);
    }

    #[test]
    fn a_panicking_cell_releases_its_row() {
        // Drive the key bookkeeping by hand: three cells share a key, the
        // second panics after taking its share.
        let dataset = ToyDataset::new("toy");
        let config = EvalConfig::default();
        let key = Preparation { input: Mutex::new(None), unfinished: AtomicUsize::new(3) };
        let first = Claim(&key);
        let shared = key.share(&dataset, &config).unwrap();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let _claim = Claim(&key);
            let _input = key.share(&dataset, &config).unwrap();
            panic!("cell failed");
        }));
        assert!(panicked.is_err());
        assert_eq!(key.unfinished.load(Ordering::SeqCst), 2);
        // Still prepared, still the same realisation, lock still usable.
        let last = Claim(&key);
        assert!(Arc::ptr_eq(&shared, &key.share(&dataset, &config).unwrap()));
        drop(first);
        assert!(key.input.lock().unwrap().is_some(), "a cell is still unfinished");
        drop(last);
        assert!(key.input.lock().unwrap().is_none(), "the last cell out frees the input");
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    /// A dataset whose realisation panics: inside `Preparation::share`,
    /// with its lock held.
    #[derive(Debug)]
    struct PanicsInGenerate {
        info: DatasetInfo,
    }

    impl Dataset for PanicsInGenerate {
        fn info(&self) -> &DatasetInfo {
            &self.info
        }

        fn generate(&self, _seed: u64) -> Vec<LabeledPacket> {
            panic!("cannot realise {}", self.info.name)
        }
    }

    #[test]
    fn a_row_that_panics_under_its_lock_fails_each_cell_with_the_original_panic() {
        let a = ToyDataset::new("alpha");
        let broken =
            PanicsInGenerate { info: DatasetInfo::new("broken", "panics", "unit test", 2024) };
        let b = ToyDataset::sized("beta", 120);
        let datasets: Vec<&dyn Dataset> = vec![&a, &broken, &b];
        let detectors: Vec<(String, DetectorFactory)> = vec![
            ("length".into(), Box::new(|| Box::new(LengthDetector) as Box<dyn EventDetector>)),
            ("flows".into(), Box::new(|| Box::new(FlowCounter) as Box<dyn EventDetector>)),
            ("length2".into(), Box::new(|| Box::new(LengthDetector) as Box<dyn EventDetector>)),
        ];
        // The first cell of the broken dataset poisons its lock; the ones
        // after it must still lock it, panic the same way, and say so.
        let cells =
            grid_cells(&detectors, &datasets, &[0, 1, 2].map(|s| (s, EvalConfig::default())));
        assert_eq!(cells.len(), 9);
        for (index, cell) in cells.iter().enumerate() {
            let (d, s) = (index % detectors.len(), index / detectors.len());
            if s != 1 {
                assert!(cell.is_ok(), "cell {index}: {cell:?}");
                continue;
            }
            match cell {
                Err(CoreError::CellPanicked { detector, dataset, detail }) => {
                    assert_eq!((detector, dataset.as_str()), (&detectors[d].0, "broken"));
                    assert!(detail.contains("cannot realise broken"), "detail = {detail}");
                }
                other => panic!("cell {index}: expected CellPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_row_that_cannot_be_prepared_fails_each_of_its_cells() {
        let a = ToyDataset::new("alpha");
        let empty = ToyDataset::sized("empty", 0);
        let datasets: Vec<&dyn Dataset> = vec![&a, &empty];
        let detectors: Vec<(String, DetectorFactory)> = vec![
            ("length".into(), Box::new(|| Box::new(LengthDetector) as Box<dyn EventDetector>)),
            ("length2".into(), Box::new(|| Box::new(LengthDetector) as Box<dyn EventDetector>)),
        ];
        let config = EvalConfig::default();
        // Nothing is cached for a failed preparation: every cell that asks
        // gets the error, not a stale or half-built input.
        let key = Preparation { input: Mutex::new(None), unfinished: AtomicUsize::new(2) };
        for _cell in 0..2 {
            let err = key.share(&empty, &config).unwrap_err();
            assert!(matches!(err, CoreError::EmptyDataset { ref dataset } if dataset == "empty"));
        }
        let err = run_grid(&detectors, &datasets, &config).unwrap_err();
        assert!(matches!(err, CoreError::EmptyDataset { .. }), "got {err}");
    }

    #[test]
    fn grid_cells_equal_standalone_evaluations() {
        let a = ToyDataset::new("alpha");
        let b = ToyDataset::sized("beta", 120);
        let datasets: Vec<&dyn Dataset> = vec![&a, &b];
        let detectors: Vec<(String, DetectorFactory)> = vec![
            ("length".into(), Box::new(|| Box::new(LengthDetector) as Box<dyn EventDetector>)),
            ("flow-counter".into(), Box::new(|| Box::new(FlowCounter) as Box<dyn EventDetector>)),
        ];
        let config = EvalConfig { policy: ThresholdPolicy::MaxF1, ..Default::default() };
        let cells = run_grid(&detectors, &datasets, &config).unwrap();
        for (at, cell) in cells.iter().enumerate() {
            let mut detector = (detectors[at / 2].1)();
            let mut alone = evaluate(detector.as_mut(), datasets[at % 2], &config).unwrap();
            (alone.train_seconds, alone.score_seconds) = (cell.train_seconds, cell.score_seconds);
            assert_eq!(cell, &alone);
        }
    }

    #[test]
    fn different_seeds_yield_different_realisations() {
        let dataset = ToyDataset::new("toy");
        let mut d1 = LengthDetector;
        let mut d2 = LengthDetector;
        let c1 = EvalConfig { dataset_seed: 1, ..Default::default() };
        let c2 = EvalConfig { dataset_seed: 2, ..Default::default() };
        let e1 = evaluate(&mut d1, &dataset, &c1).unwrap();
        let e2 = evaluate(&mut d2, &dataset, &c2).unwrap();
        // Same structure, same metrics for this toy; thresholds may differ
        // because packet sizes depend on the seed.
        assert_eq!(e1.metrics.f1, e2.metrics.f1);
    }
}
