//! # idsbench — a replay-evaluation framework for network IDSs
//!
//! `idsbench` is a from-scratch Rust reproduction of the evaluation pipeline
//! from *Expectations Versus Reality: Evaluating Intrusion Detection Systems
//! in Practice* (DSN 2025): four network intrusion detection systems —
//! Kitsune, HELAD, a supervised DNN, and a Slips-style behavioural IPS —
//! evaluated uniformly across five calibrated dataset scenarios.
//!
//! This meta-crate re-exports the workspace's public API under one roof:
//!
//! * [`net`] — packets, protocol headers, pcap file I/O,
//! * [`flow`] — flow assembly, flow features, AfterImage statistics,
//! * [`nn`] — the neural substrate (MLPs, autoencoders, LSTM),
//! * [`datasets`] — synthetic scenario generators (one per Table II row),
//! * [`core`] — the evaluation pipeline itself (the paper's contribution):
//!   the parse-once `Event` data model, the unified `EventDetector`
//!   contract, preprocessing, calibration, metrics, and the batch driver,
//! * [`stream`] — the online replay engine: the streaming driver of the
//!   same contract, sharded, with live windowed metrics and
//!   throughput/latency accounting,
//! * [`telemetry`] — zero-alloc runtime observability: lock-free counters
//!   and gauges, sampled per-stage latency spans, a bounded trace journal,
//!   and Prometheus/JSON exposition over a plain TCP listener,
//! * [`kitsune`], [`helad`], [`dnn`], [`slips`] — the evaluated systems.
//!
//! # Quickstart (batch)
//!
//! Evaluate Kitsune on the Stratosphere IoT scenario:
//!
//! ```
//! use idsbench::core::runner::{evaluate, EvalConfig};
//! use idsbench::datasets::{scenarios, ScenarioScale};
//! use idsbench::kitsune::Kitsune;
//!
//! # fn main() -> Result<(), idsbench::core::CoreError> {
//! let dataset = scenarios::stratosphere_iot(ScenarioScale::Tiny);
//! let mut detector = Kitsune::default();
//! let experiment = evaluate(&mut detector, &dataset, &EvalConfig::default())?;
//! println!("F1 = {:.4}", experiment.metrics.f1);
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart (streaming)
//!
//! The same evaluation as an online replay: the feeder parses each packet
//! once and hashes its flow key onto shard workers, which deliver the same
//! event stream batch evaluation replays — live windowed metrics included.
//! A single-shard streaming run reproduces the batch result *exactly*, for
//! packet- and flow-event detectors alike (the `stream_batch_parity` test
//! pins this); multi-shard runs trade per-shard state isolation for
//! horizontal throughput:
//!
//! ```
//! use idsbench::core::EventDetector;
//! use idsbench::datasets::{scenarios, ScenarioScale};
//! use idsbench::kitsune::Kitsune;
//! use idsbench::stream::{run_stream, ScenarioSource, StreamConfig};
//!
//! # fn main() -> Result<(), idsbench::core::CoreError> {
//! let dataset = scenarios::stratosphere_iot(ScenarioScale::Tiny);
//! let (warmup, source) = ScenarioSource::new(&dataset, 0).split_warmup(0.3);
//! let run = run_stream(
//!     &|| Box::new(Kitsune::default()) as Box<dyn EventDetector>,
//!     &warmup,
//!     source,
//!     &StreamConfig { shards: 2, ..Default::default() },
//! )?;
//! println!(
//!     "F1 = {:.4} at {:.0} packets/sec",
//!     run.report.metrics.f1,
//!     run.report.throughput.packets_per_sec,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! The full Table IV grid is regenerated by
//! `cargo run --release -p idsbench-bench --bin idsbench -- table4 --scale full`;
//! throughput is measured by the repository benchmark (`benchmark/`), and
//! `idsbench check` runs the streaming and fabric correctness gates.

#![deny(missing_docs)]

pub use idsbench_core as core;
pub use idsbench_datasets as datasets;
pub use idsbench_dnn as dnn;
pub use idsbench_flow as flow;
pub use idsbench_helad as helad;
pub use idsbench_kitsune as kitsune;
pub use idsbench_net as net;
pub use idsbench_nn as nn;
pub use idsbench_slips as slips;
pub use idsbench_stream as stream;
pub use idsbench_telemetry as telemetry;
