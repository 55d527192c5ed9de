//! `idsbench-trafficgen`: the seeded, deterministic adversarial workload
//! library behind the redesigned streaming scenario API.
//!
//! The paper's central finding is that reported IDS accuracy does not
//! survive contact with *other* workloads (Section V: "expectations versus
//! reality"). This crate supplies those other workloads as first-class,
//! reproducible [`TrafficModel`]s in three tiers:
//!
//! * **Trace-shaped benign** ([`benign`]) — VOIP/video/web mixes with
//!   heavy-tailed session durations and many concurrent streams, the
//!   false-positive stressor.
//! * **Volumetric** ([`flood`]) — SYN/UDP/ICMP floods and port/host scans
//!   with tunable rate, port spread, and target spread.
//! * **Multi-stage campaigns** ([`campaign`]) — recon → foothold → lateral
//!   movement → exfiltration, with a low-and-slow variant.
//!
//! Every scenario is a *streaming* generator: component [`Process`] state
//! machines merged on demand by [`CampaignStream`], so a realisation is
//! never materialised and memory stays bounded by concurrency. Every attack
//! packet carries its stable family label
//! ([`AttackKind::name`](idsbench_core::AttackKind::name)), which is what
//! the per-family recall matrices of `idsbench scenarios` decompose.
//!
//! The [`registry`] maps stable names to builders; the stream executor's
//! `ScenarioSource` consumes any entry directly.
//!
//! # Examples
//!
//! ```
//! use idsbench_core::ScenarioScale;
//! use idsbench_trafficgen::{registry, spec};
//!
//! let spec = spec("syn-burst").unwrap();
//! let model = spec.build(ScenarioScale::Tiny);
//! let mut stream = model.stream(42);
//! assert!(stream.next().is_some());
//! assert!(registry().len() >= 6);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod benign;
pub mod campaign;
pub mod flood;
mod process;
mod registry;

pub use idsbench_core::{PacketStream, ScenarioScale, TrafficModel};
pub use process::{component_seed, CampaignModel, CampaignStream, Process, ProcessFactory};
pub use registry::{registry, spec, table4_models, ScenarioSpec, Tier, HORIZON_SECS, WARMUP_SECS};
