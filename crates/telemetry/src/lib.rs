//! # idsbench-telemetry — zero-alloc runtime telemetry for the stream engine
//!
//! Observability for the sharded streaming runtime with a hot-path budget
//! of **zero allocations and zero contention**: everything a shard or the
//! feeder touches per packet is a relaxed atomic it already holds an `Arc`
//! to. The crate has four pieces:
//!
//! * [`Registry`] — named [`Counter`]s/[`Gauge`]s, cache-line padded,
//!   registered once at startup and updated lock-free thereafter;
//! * [`SpanTimer`]/[`StageHistogram`] — sampled stage spans (parse, route,
//!   score, evict, migrate, rebalance, infer) feeding per-shard
//!   [`AtomicHistogram`]s, with a `spans` cargo feature that compiles the
//!   sampling out;
//! * [`Journal`] — a bounded ring of structured [`JournalEvent`]s (scale
//!   decisions, feeder stalls, packet drops, migrations, threshold
//!   crossings) that keeps the newest events on overflow and counts what it
//!   dropped;
//! * [`TelemetrySink`] — a tiny `std::net::TcpListener` exposition server
//!   speaking Prometheus text (`/metrics`) and a JSON snapshot (any other
//!   path).
//!
//! The [`Telemetry`] hub ties them together; the stream engine takes an
//! optional `Arc<Telemetry>` (see `run_stream_with_telemetry`), and
//! `idsbench check` serves and self-scrapes it.
//!
//! ```
//! use idsbench_telemetry::{Stage, Telemetry, TelemetryConfig};
//! use std::sync::Arc;
//!
//! let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
//! let packets = telemetry.counter("packets_total");
//! let span = telemetry.span(Stage::Score, Some(0));
//! for _ in 0..1000 {
//!     let started = span.begin(); // Some() on sampled ticks only
//!     packets.inc();              // relaxed fetch_add — the whole hot path
//!     if let Some(started) = started {
//!         span.end(started);
//!     }
//! }
//! assert_eq!(packets.get(), 1000);
//! assert!(telemetry.prometheus_text().contains("idsbench_packets_total 1000"));
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod hist;
pub mod journal;
pub mod registry;
pub mod sink;
pub mod spans;

pub use hist::{AtomicHistogram, LatencyHistogram};
pub use journal::{Journal, JournalEvent, JournalSnapshot};
pub use registry::{Counter, Gauge, Registry};
pub use sink::TelemetrySink;
pub use spans::{SpanTimer, Stage, StageHistogram};

use std::sync::Arc;

use parking_lot::Mutex;

/// Tuning knobs for a [`Telemetry`] hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Trace-journal capacity in events (oldest overwritten beyond this).
    pub journal_capacity: usize,
    /// Stage-span sampling period: each [`SpanTimer`] times 1-in-this-many
    /// calls. 1 means every call.
    pub sample_every: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { journal_capacity: 1024, sample_every: 64 }
    }
}

/// The telemetry hub: one registry, one span table, one journal.
///
/// Registration methods (`counter`, `gauge`, `stage`, `span`) take short
/// locks and may allocate — call them at startup or at scale events, then
/// hold the returned handles on the hot path, where every update is a
/// relaxed atomic.
pub struct Telemetry {
    config: TelemetryConfig,
    registry: Registry,
    stages: Mutex<Vec<Arc<StageHistogram>>>,
    journal: Journal,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("config", &self.config)
            .field("registry", &self.registry)
            .field("stages", &self.stages.lock().len())
            .field("journal", &self.journal)
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    /// Builds a hub with the given knobs.
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            registry: Registry::default(),
            stages: Mutex::new(Vec::new()),
            journal: Journal::new(config.journal_capacity),
        }
    }

    /// The knobs this hub was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Get-or-register the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// Get-or-register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// The metric registry (for sink-style enumeration).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Get-or-register the histogram for `(stage, shard)`; `shard: None`
    /// labels the feeder.
    pub fn stage(&self, stage: Stage, shard: Option<usize>) -> Arc<StageHistogram> {
        let mut stages = self.stages.lock();
        if let Some(found) = stages.iter().find(|s| s.stage() == stage && s.shard() == shard) {
            return Arc::clone(found);
        }
        let made = Arc::new(StageHistogram::new(stage, shard));
        stages.push(Arc::clone(&made));
        made
    }

    /// A point-in-time copy of the registered stage histograms.
    pub fn stages(&self) -> Vec<Arc<StageHistogram>> {
        self.stages.lock().clone()
    }

    /// A [`SpanTimer`] over the `(stage, shard)` histogram, sampling at the
    /// hub's configured period.
    pub fn span(&self, stage: Stage, shard: Option<usize>) -> SpanTimer {
        SpanTimer::new(self.stage(stage, shard), self.config.sample_every)
    }

    /// The trace journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_registration_is_idempotent_per_shard() {
        let telemetry = Telemetry::default();
        let a = telemetry.stage(Stage::Score, Some(0));
        let b = telemetry.stage(Stage::Score, Some(0));
        let c = telemetry.stage(Stage::Score, Some(1));
        let d = telemetry.stage(Stage::Evict, Some(0));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(telemetry.stages().len(), 3);
    }

    #[test]
    fn span_uses_configured_sampling() {
        let telemetry =
            Telemetry::new(TelemetryConfig { sample_every: 2, ..TelemetryConfig::default() });
        let span = telemetry.span(Stage::Parse, None);
        let sampled = (0..10).filter(|_| span.begin().is_some()).count();
        if cfg!(feature = "spans") {
            assert_eq!(sampled, 5);
        } else {
            assert_eq!(sampled, 0);
        }
    }
}
