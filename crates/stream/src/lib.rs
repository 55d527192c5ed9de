//! `idsbench-stream` — the online replay-evaluation engine: the *streaming
//! driver* of the core Event contract.
//!
//! The paper's core finding is that batch evaluation flatters IDSs:
//! deployed detectors consume an *unbounded stream* one event at a time
//! under throughput pressure, and several published results do not survive
//! that shift. This crate drives the same
//! [`EventDetector`](idsbench_core::EventDetector) contract as the batch
//! runner in `idsbench-core`, sharded:
//!
//! * [`source`] — [`PacketSource`] unifies scenario generators, pcap
//!   captures, and in-memory traces behind one pull iterator;
//!   [`BoundedSource`] adds bounded-channel backpressure between producer
//!   and scorer.
//! * [`feeder`] — the one feed loop: validates the [`StreamConfig`], parses
//!   each packet exactly once, runs the autoscaler, routes over the ring,
//!   batches, enacts the drain-then-migrate rebalance ordering and merges
//!   the outcomes — generic over a [`feeder::ShardPool`] of per-shard
//!   primitives, so this crate's thread pool and `idsbench-fabric`'s socket
//!   pool are driven by the same code.
//! * [`executor`] — [`run_stream`], the in-process pool under that loop:
//!   the feeder routes each parsed view by canonical flow key over a
//!   consistent-hash ring onto N shard workers — each owning an independent
//!   detector instance *and flow table* — and delivers the same event
//!   stream batch evaluation replays: packet events in order, flow-eviction
//!   events the moment the shard's flow table emits them. Flow-input
//!   systems (Slips, DNN) are therefore streaming-native, not batch
//!   adapters.
//! * [`ring`] + [`autoscale`] — elastic sharding: a vnode consistent-hash
//!   [`HashRing`] bounds ownership movement to the minimum when the pool
//!   changes, and an [`AutoscalePolicy`]-driven control loop grows/shrinks
//!   the pool mid-stream from the trace's own windowed event rate alone,
//!   migrating the affected flow state shard-to-shard without breaking
//!   per-flow event order.
//!   Every action lands in the report as a [`ScaleEvent`].
//! * [`metrics`] — windowed precision/recall/FPR over the traffic timeline
//!   plus per-event scoring latency and packets/sec, all summarised by one
//!   fold, [`OnlineStats`]; with a fixed deployment threshold the engine
//!   runs *zero-buffer*: shards fold as they score and no per-event score
//!   is recorded.
//! * [`report`] — [`StreamReport`] merges the shards into the same
//!   [`Assessment`](idsbench_core::metrics::Assessment) a batch
//!   `Experiment` holds, built by the one constructor both drivers call,
//!   so streaming and batch verdicts compare field for field; the
//!   `stream_batch_parity` integration test pins a single-shard stream's
//!   assessment equal to batch `evaluate()`'s — for all four systems,
//!   flow-input ones included.
//! * **Telemetry** — [`run_stream_with_telemetry`] attaches an
//!   `idsbench-telemetry` [`Telemetry`](idsbench_telemetry::Telemetry)
//!   runtime to the same pipeline: lock-free counters and gauges, sampled
//!   feeder spans plus per-shard stage latency histograms, and a bounded
//!   journal of structured events (scale actions, feeder stalls, flow
//!   migrations, packet drops, suppressed threshold crossings). Telemetry
//!   observes the run without steering it — scores and reports are
//!   byte-identical with it on or off.
//!
//! # Quickstart
//!
//! Stream Kitsune over the Stratosphere scenario on four shards:
//!
//! ```
//! use idsbench_core::EventDetector;
//! use idsbench_datasets::{scenarios, ScenarioScale};
//! use idsbench_kitsune::Kitsune;
//! use idsbench_stream::{run_stream, ScenarioSource, StreamConfig};
//!
//! # fn main() -> Result<(), idsbench_core::CoreError> {
//! let scenario = scenarios::stratosphere_iot(ScenarioScale::Tiny);
//! let (warmup, source) = ScenarioSource::new(&scenario, 42).split_warmup(0.3);
//! let config = StreamConfig { shards: 4, ..Default::default() };
//! let run = run_stream(
//!     &|| Box::new(Kitsune::default()) as Box<dyn EventDetector>,
//!     &warmup,
//!     source,
//!     &config,
//! )?;
//! println!(
//!     "F1 {:.4} at {:.0} packets/sec across {} shards",
//!     run.report.metrics.f1,
//!     run.report.throughput.packets_per_sec,
//!     run.report.shards,
//! );
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod autoscale;
pub mod executor;
pub mod feeder;
pub mod metrics;
pub mod report;
pub mod ring;
pub mod shard;
pub mod source;

pub use autoscale::AutoscalePolicy;
pub use executor::{run_stream, run_stream_with_telemetry, StreamConfig, StreamRun, ThresholdMode};
pub use idsbench_core::ScaleEvent;
pub use metrics::{LatencyHistogram, OnlineStats, ScoredEvent, Throughput, WindowMetrics};
pub use report::{ShardStats, StreamReport};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use shard::{Recorder, ShardCheckpoint, ShardLoop, ShardOutcome, ShardSpans, StreamItem};
pub use source::{BoundedSource, PacketSource, PcapLabeler, PcapSource, ScenarioSource, VecSource};
