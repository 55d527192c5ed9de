//! The streaming engine: [`Process`] state machines merged by a
//! [`CampaignStream`] into one timestamp-ordered packet stream.
//!
//! A realisation is never materialised. Each process is a small state
//! machine that emits the *next* burst of its traffic on demand; the stream
//! keeps a heap of not-yet-released packets and releases one only when no
//! live process can still emit an earlier one. Memory is bounded by the
//! workload's concurrency (active sessions and burst sizes), not its
//! length — the property the `TrafficModel` contract demands.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use idsbench_core::{DatasetInfo, LabeledPacket, PacketStream, TrafficModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One traffic state machine inside a campaign.
///
/// The contract the merge relies on:
///
/// * Every packet an `emit` call produces has a timestamp `>=` the
///   process's `next_at` at the time of the call.
/// * `next_at` is non-decreasing across `emit` calls, and `None` once the
///   process has finished.
/// * Each `emit` call makes progress: it emits packets, advances
///   `next_at`, or finishes.
pub trait Process: Send + std::fmt::Debug {
    /// Short name used in diagnostics.
    fn name(&self) -> &'static str;

    /// The earliest traffic time (seconds) at which this process may still
    /// emit a packet; `None` once it has finished.
    fn next_at(&self) -> Option<f64>;

    /// Appends the process's next burst of packets to `out`.
    fn emit(&mut self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>);
}

/// Spawns one fresh [`Process`] per realisation.
///
/// Every cloneable process is automatically its own factory: the value held
/// by the model *is* the initial state, and each realisation starts from a
/// clone of it.
pub trait ProcessFactory: Send + Sync + std::fmt::Debug {
    /// Creates the process in its initial state.
    fn spawn(&self) -> Box<dyn Process>;
}

impl<P: Process + Clone + Sync + 'static> ProcessFactory for P {
    fn spawn(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
}

/// A buffered packet awaiting release, ordered by `(timestamp, arrival)`.
struct Pending {
    ts_micros: u64,
    order: u64,
    packet: LabeledPacket,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.ts_micros == other.ts_micros && self.order == other.order
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ts_micros, self.order).cmp(&(other.ts_micros, other.order))
    }
}

/// A live process keyed by its `next_at`, ordered by `(next_at, index)` so
/// equal times go to the lowest index.
#[derive(Debug, Clone, Copy)]
struct Due {
    at: f64,
    index: usize,
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Due {}

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Due {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `+ 0.0` folds -0.0 into 0.0, which `<` treats as equal times.
        (self.at + 0.0).total_cmp(&(other.at + 0.0)).then(self.index.cmp(&other.index))
    }
}

/// The k-way merge over a campaign's processes — the iterator behind every
/// [`CampaignModel`] stream.
pub struct CampaignStream {
    processes: Vec<(Box<dyn Process>, SmallRng)>,
    /// Every live process, once, at its current `next_at`: only an `emit`
    /// moves a process's `next_at`, so only the one that emitted is
    /// re-keyed.
    due: BinaryHeap<Reverse<Due>>,
    heap: BinaryHeap<Reverse<Pending>>,
    order: u64,
    scratch: Vec<LabeledPacket>,
}

impl std::fmt::Debug for CampaignStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignStream")
            .field("processes", &self.processes.len())
            .field("buffered", &self.heap.len())
            .finish()
    }
}

impl CampaignStream {
    /// Builds the merge over already-seeded processes.
    pub fn new(processes: Vec<(Box<dyn Process>, SmallRng)>) -> Self {
        let due = processes
            .iter()
            .enumerate()
            .filter_map(|(index, (p, _))| p.next_at().map(|at| Reverse(Due { at, index })))
            .collect();
        CampaignStream { processes, due, heap: BinaryHeap::new(), order: 0, scratch: Vec::new() }
    }
}

impl Iterator for CampaignStream {
    type Item = LabeledPacket;

    fn next(&mut self) -> Option<LabeledPacket> {
        loop {
            // The live process with the earliest `next_at`.
            let Some(mut frontier) = self.due.peek_mut() else {
                return self.heap.pop().map(|Reverse(p)| p.packet);
            };
            let Due { at, index } = frontier.0;
            // Release the buffered minimum once no live process can still
            // emit an earlier packet (future packets all have ts >= the
            // frontier).
            let frontier_micros = idsbench_net::Timestamp::from_secs_f64(at).as_micros();
            if let Some(Reverse(min)) = self.heap.peek() {
                if min.ts_micros <= frontier_micros {
                    return self.heap.pop().map(|Reverse(p)| p.packet);
                }
            }
            let (process, rng) = &mut self.processes[index];
            debug_assert!(self.scratch.is_empty());
            process.emit(rng, &mut self.scratch);
            let next_at = process.next_at();
            debug_assert!(
                next_at != Some(at) || !self.scratch.is_empty(),
                "process {} made no progress at t={at}",
                process.name()
            );
            match next_at {
                Some(next_at) => frontier.0.at = next_at,
                None => {
                    PeekMut::pop(frontier);
                }
            }
            for packet in self.scratch.drain(..) {
                debug_assert!(
                    packet.packet.ts.as_micros() >= frontier_micros,
                    "packet before the process's own next_at"
                );
                self.heap.push(Reverse(Pending {
                    ts_micros: packet.packet.ts.as_micros(),
                    order: self.order,
                    packet,
                }));
                self.order += 1;
            }
        }
    }
}

/// Derives a decorrelated per-component seed — the same convention the
/// legacy `Scenario` applies to its generators, so reordering components
/// never perturbs a neighbour's stream.
pub fn component_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((index as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// A named, seeded composition of [`Process`] factories — the natively
/// streaming [`TrafficModel`] every trafficgen scenario is built from.
#[derive(Debug)]
pub struct CampaignModel {
    info: DatasetInfo,
    factories: Vec<Box<dyn ProcessFactory>>,
}

impl CampaignModel {
    /// Builds a model from its components.
    ///
    /// # Panics
    ///
    /// Panics if no factories are given.
    pub fn new(info: DatasetInfo, factories: Vec<Box<dyn ProcessFactory>>) -> Self {
        assert!(!factories.is_empty(), "campaign needs at least one process");
        CampaignModel { info, factories }
    }

    /// Number of component processes.
    pub fn components(&self) -> usize {
        self.factories.len()
    }
}

impl TrafficModel for CampaignModel {
    fn info(&self) -> &DatasetInfo {
        &self.info
    }

    fn stream(&self, seed: u64) -> PacketStream {
        let processes = self
            .factories
            .iter()
            .enumerate()
            .map(|(i, f)| (f.spawn(), SmallRng::seed_from_u64(component_seed(seed, i))))
            .collect();
        Box::new(CampaignStream::new(processes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_core::Label;
    use idsbench_net::{Packet, Timestamp};
    use rand::Rng;

    /// Emits `count` packets, one per emit call, `step` seconds apart.
    #[derive(Debug, Clone)]
    struct Metronome {
        start: f64,
        step: f64,
        count: usize,
        emitted: usize,
    }

    impl Process for Metronome {
        fn name(&self) -> &'static str {
            "metronome"
        }

        fn next_at(&self) -> Option<f64> {
            (self.emitted < self.count).then_some(self.start + self.emitted as f64 * self.step)
        }

        fn emit(&mut self, rng: &mut SmallRng, out: &mut Vec<LabeledPacket>) {
            let t = self.start + self.emitted as f64 * self.step;
            let jitter: u64 = rng.random_range(0..100);
            out.push(LabeledPacket::new(
                Packet::new(
                    Timestamp::from_micros(Timestamp::from_secs_f64(t).as_micros() + jitter),
                    vec![0u8; 60],
                ),
                Label::Benign,
            ));
            self.emitted += 1;
        }
    }

    fn model() -> CampaignModel {
        CampaignModel::new(
            DatasetInfo::new("interleaved", "", "", 2026),
            vec![
                Box::new(Metronome { start: 0.0, step: 0.5, count: 20, emitted: 0 }),
                Box::new(Metronome { start: 0.1, step: 0.3, count: 30, emitted: 0 }),
                Box::new(Metronome { start: 5.0, step: 1.0, count: 5, emitted: 0 }),
            ],
        )
    }

    #[test]
    fn merge_interleaves_in_timestamp_order() {
        let packets: Vec<_> = model().stream(3).collect();
        assert_eq!(packets.len(), 55);
        for pair in packets.windows(2) {
            assert!(pair[0].packet.ts <= pair[1].packet.ts, "stream must be sorted");
        }
    }

    #[test]
    fn stream_is_seed_deterministic() {
        let m = model();
        assert_eq!(m.materialize(9), m.materialize(9));
        assert_ne!(m.materialize(9), m.materialize(10));
    }

    #[test]
    fn component_seeds_are_decorrelated() {
        assert_ne!(component_seed(1, 0), component_seed(1, 1));
        assert_ne!(component_seed(1, 0), component_seed(2, 0));
    }
}
