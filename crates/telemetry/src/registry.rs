//! The lock-free metrics registry: named counters and gauges, registered
//! once at startup (or at a scale event) and updated with relaxed atomic
//! operations from then on.
//!
//! The registration lists live behind a mutex, but nothing on the
//! per-packet path ever touches it: callers hold an `Arc` to the metric
//! itself and update it with a single relaxed `fetch_add`/`store`. Each
//! metric's cell is padded to its own cache line so two hot counters
//! updated from different threads never false-share.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One atomic `u64` on its own cache line, so adjacent metrics updated from
/// different threads do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

/// A monotonically increasing named counter (relaxed atomics).
#[derive(Debug)]
pub struct Counter {
    name: String,
    value: PaddedCell,
}

impl Counter {
    /// The registered name (snake_case, no `idsbench_` prefix — the
    /// exposition sink adds it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.0.load(Ordering::Relaxed)
    }
}

/// A named gauge: a value that can move both ways (relaxed atomics).
#[derive(Debug)]
pub struct Gauge {
    name: String,
    value: PaddedCell,
}

impl Gauge {
    /// The registered name (snake_case, no `idsbench_` prefix).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Overwrites the value.
    pub fn set(&self, value: u64) {
        self.value.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.0.load(Ordering::Relaxed)
    }
}

/// The metric registry: get-or-register access to counters and gauges by
/// name, plus list snapshots for the sinks.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<Vec<Arc<Counter>>>,
    gauges: Mutex<Vec<Arc<Gauge>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.lock().unwrap_or_else(PoisonError::into_inner).len())
            .field("gauges", &self.gauges.lock().unwrap_or_else(PoisonError::into_inner).len())
            .finish()
    }
}

impl Registry {
    /// Returns the counter named `name`, registering it on first use.
    /// Registration takes the list lock — call at startup (or at a scale
    /// event), hold the returned `Arc` on the hot path.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(found) = counters.iter().find(|c| c.name == name) {
            return Arc::clone(found);
        }
        let made = Arc::new(Counter { name: name.to_string(), value: PaddedCell::default() });
        counters.push(Arc::clone(&made));
        made
    }

    /// Returns the gauge named `name`, registering it on first use. Same
    /// locking discipline as [`Registry::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut gauges = self.gauges.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(found) = gauges.iter().find(|g| g.name == name) {
            return Arc::clone(found);
        }
        let made = Arc::new(Gauge { name: name.to_string(), value: PaddedCell::default() });
        gauges.push(Arc::clone(&made));
        made
    }

    /// A point-in-time copy of the registered counters (registration
    /// order).
    pub fn counters(&self) -> Vec<Arc<Counter>> {
        self.counters.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// A point-in-time copy of the registered gauges (registration order).
    pub fn gauges(&self) -> Vec<Arc<Gauge>> {
        self.gauges.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_by_name() {
        let registry = Registry::default();
        let a = registry.counter("packets_total");
        let b = registry.counter("packets_total");
        a.inc();
        b.add(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.counters().len(), 1);
        assert_eq!(registry.counters()[0].get(), 3);

        let g = registry.gauge("live_shards");
        g.set(4);
        assert_eq!(registry.gauge("live_shards").get(), 4);
        assert_eq!(registry.gauges().len(), 1);
    }

    #[test]
    fn cells_are_cache_line_padded() {
        assert_eq!(std::mem::align_of::<PaddedCell>(), 64);
    }
}
