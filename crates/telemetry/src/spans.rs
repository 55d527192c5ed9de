//! Sampled stage spans: cheap wall-clock timing of pipeline stages (parse,
//! route, extract, score, evict, migrate, rebalance, model inference) feeding
//! per-shard [`AtomicHistogram`]s, so per-stage p50/p99 is visible live.
//!
//! A [`SpanTimer`] samples 1-in-`every` calls: `begin()` returns
//! `Some(Instant)` only on sampled ticks, so the common case costs one
//! `Cell` increment and compare — no clock read, no atomic. Building with
//! `--no-default-features` (dropping the `spans` feature) compiles the
//! sampling out entirely: `begin()` becomes a constant `None`.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use idsbench_core::InferenceProbe;

use crate::hist::AtomicHistogram;

/// A pipeline stage a span can time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Packet parsing in the feeder (`ParsedView::from_packet`).
    Parse,
    /// Flow-key routing in the feeder (ring lookup + shard dispatch).
    Route,
    /// The feeder's ordered AfterImage extraction of a packet-format run
    /// (`idsbench_core::FeatureStage::attach`).
    Extract,
    /// Detector scoring of a packet event in a shard.
    Score,
    /// Detector scoring of a flow-eviction event in a shard.
    Evict,
    /// Applying inbound flow-state migrations in a shard.
    Migrate,
    /// The feeder-side drain-and-rebalance barrier during a scale event.
    Rebalance,
    /// The model-inference portion of a detector's scoring path (attached
    /// through the detector shell's `attach_inference_probe`).
    Infer,
    /// A fabric peer-death recovery: re-homing a dead worker's shards onto
    /// survivors and replaying their buffered frames (coordinator side).
    Recover,
}

impl Stage {
    /// Stable lowercase label used by the exposition formats.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Route => "route",
            Stage::Extract => "extract",
            Stage::Score => "score",
            Stage::Evict => "evict",
            Stage::Migrate => "migrate",
            Stage::Rebalance => "rebalance",
            Stage::Infer => "infer",
            Stage::Recover => "recover",
        }
    }
}

/// A per-stage, per-shard latency histogram registered with the telemetry
/// hub. `shard: None` means the feeder (exposed with a `shard="feeder"`
/// label).
#[derive(Debug)]
pub struct StageHistogram {
    stage: Stage,
    shard: Option<usize>,
    hist: AtomicHistogram,
}

impl StageHistogram {
    /// Builds an unregistered histogram (the telemetry hub's `stage()` is
    /// the usual constructor).
    pub fn new(stage: Stage, shard: Option<usize>) -> Self {
        StageHistogram { stage, shard, hist: AtomicHistogram::default() }
    }

    /// The timed stage.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The owning shard, or `None` for the feeder.
    pub fn shard(&self) -> Option<usize> {
        self.shard
    }

    /// Records one duration (relaxed; shared-reference safe).
    pub fn record(&self, nanos: u64) {
        self.hist.record(nanos);
    }

    /// The underlying histogram, for percentile reads.
    pub fn histogram(&self) -> &AtomicHistogram {
        &self.hist
    }
}

/// A sampling timer over one [`StageHistogram`].
///
/// Clone one per thread: clones share the target histogram but keep their
/// own sampling tick (`Cell`), so a `SpanTimer` is `Send` but deliberately
/// not `Sync`.
#[derive(Debug, Clone)]
pub struct SpanTimer {
    hist: Arc<StageHistogram>,
    every: u32,
    tick: Cell<u32>,
}

impl SpanTimer {
    /// Builds a timer sampling 1-in-`every` calls (`every` is clamped to at
    /// least 1; the first sampled call is the `every`-th).
    pub fn new(hist: Arc<StageHistogram>, every: u32) -> Self {
        SpanTimer { hist, every: every.max(1), tick: Cell::new(0) }
    }

    /// Starts a span on sampled ticks. Returns `None` (and reads no clock)
    /// on unsampled ticks or when the crate's `spans` feature is disabled.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if !cfg!(feature = "spans") {
            return None;
        }
        let tick = self.tick.get() + 1;
        if tick >= self.every {
            self.tick.set(0);
            Some(Instant::now())
        } else {
            self.tick.set(tick);
            None
        }
    }

    /// Finishes a span started by [`SpanTimer::begin`], recording its
    /// elapsed nanoseconds.
    #[inline]
    pub fn end(&self, started: Instant) {
        let nanos = started.elapsed().as_nanos();
        self.hist.record(u64::try_from(nanos).unwrap_or(u64::MAX));
    }

    /// Records an externally measured duration, bypassing sampling — for
    /// stages the caller already times (e.g. the shard's per-event scoring
    /// clock), where re-reading the clock would double the cost.
    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        self.hist.record(nanos);
    }

    /// The histogram this timer feeds.
    pub fn target(&self) -> &StageHistogram {
        &self.hist
    }
}

/// The detector shell's inference probe ([`Stage::Infer`] spans).
impl InferenceProbe for SpanTimer {
    #[inline]
    fn begin(&self) -> Option<Instant> {
        SpanTimer::begin(self)
    }

    #[inline]
    fn end(&self, started: Instant) {
        SpanTimer::end(self, started);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_fires_once_per_period() {
        let hist = Arc::new(StageHistogram::new(Stage::Score, Some(0)));
        let timer = SpanTimer::new(Arc::clone(&hist), 4);
        let mut sampled = 0;
        for _ in 0..16 {
            if let Some(started) = timer.begin() {
                timer.end(started);
                sampled += 1;
            }
        }
        if cfg!(feature = "spans") {
            assert_eq!(sampled, 4, "1-in-4 sampling over 16 calls");
            assert_eq!(hist.histogram().len(), 4);
        } else {
            assert_eq!(sampled, 0, "spans compiled out");
        }
    }

    #[test]
    fn clones_share_the_histogram_but_not_the_tick() {
        let hist = Arc::new(StageHistogram::new(Stage::Infer, None));
        let a = SpanTimer::new(Arc::clone(&hist), 2);
        let b = a.clone();
        a.record_nanos(10);
        b.record_nanos(20);
        assert_eq!(hist.histogram().len(), 2);
        if cfg!(feature = "spans") {
            assert!(a.begin().is_none(), "first tick unsampled");
            assert!(b.begin().is_none(), "clone keeps its own tick");
        }
    }

    #[test]
    fn stage_names_are_stable() {
        for (stage, name) in [
            (Stage::Parse, "parse"),
            (Stage::Route, "route"),
            (Stage::Extract, "extract"),
            (Stage::Score, "score"),
            (Stage::Evict, "evict"),
            (Stage::Migrate, "migrate"),
            (Stage::Rebalance, "rebalance"),
            (Stage::Infer, "infer"),
            (Stage::Recover, "recover"),
        ] {
            assert_eq!(stage.name(), name);
        }
    }
}
