//! Shared harness code for the `idsbench` binary.
//!
//! Provides the standard detector roster (the four systems of Table IV,
//! each built by `Default`: out-of-the-box defaults are constants next to
//! the code that uses them, and only Kitsune's and HELAD's `precision` and
//! `seed` and the DNN's ablation knobs stay settable), the paper's
//! published Table IV numbers for side-by-side comparison, the bursty
//! workload behind the elastic-sharding gates, and the binary's one
//! argument parser.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use idsbench_core::runner::DetectorFactory;
use idsbench_core::EventDetector;
use idsbench_dnn::Dnn;
use idsbench_helad::Helad;
use idsbench_kitsune::Kitsune;
use idsbench_slips::Slips;

/// The four evaluated systems, in Table IV's block order, with out-of-the-
/// box configurations.
pub fn standard_detectors() -> Vec<(String, DetectorFactory<'static>)> {
    vec![
        (
            "Kitsune".to_string(),
            Box::new(|| Box::new(Kitsune::default()) as Box<dyn EventDetector>) as DetectorFactory,
        ),
        ("HELAD".to_string(), Box::new(|| Box::new(Helad::default()) as Box<dyn EventDetector>)),
        ("DNN".to_string(), Box::new(|| Box::new(Dnn::default()) as Box<dyn EventDetector>)),
        ("Slips".to_string(), Box::new(|| Box::new(Slips::default()) as Box<dyn EventDetector>)),
    ]
}

/// One cell of the paper's published Table IV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperCell {
    /// IDS name.
    pub detector: &'static str,
    /// Dataset name (this workspace's scenario naming).
    pub dataset: &'static str,
    /// Published accuracy.
    pub accuracy: f64,
    /// Published precision.
    pub precision: f64,
    /// Published recall.
    pub recall: f64,
    /// Published F1.
    pub f1: f64,
}

const fn cell(
    detector: &'static str,
    dataset: &'static str,
    accuracy: f64,
    precision: f64,
    recall: f64,
    f1: f64,
) -> PaperCell {
    PaperCell { detector, dataset, accuracy, precision, recall, f1 }
}

/// The paper's Table IV, verbatim.
pub const PAPER_TABLE4: [PaperCell; 20] = [
    cell("Kitsune", "UNSW-NB15", 0.6954, 0.0221, 0.2136, 0.0401),
    cell("Kitsune", "BoT IoT", 0.9923, 0.8153, 0.8609, 0.8375),
    cell("Kitsune", "CICIDS2017", 0.5540, 0.0109, 0.9753, 0.0216),
    cell("Kitsune", "Stratosphere", 0.9921, 0.9981, 0.9027, 0.9480),
    cell("Kitsune", "Mirai", 0.8902, 0.9999, 0.8788, 0.9354),
    cell("HELAD", "UNSW-NB15", 0.9717, 0.0201, 0.0107, 0.0140),
    cell("HELAD", "BoT IoT", 0.9793, 0.6916, 0.9011, 0.7826),
    cell("HELAD", "CICIDS2017", 0.6437, 0.9682, 0.3706, 0.5360),
    cell("HELAD", "Stratosphere", 0.9846, 0.9805, 1.0000, 0.9902),
    cell("HELAD", "Mirai", 0.8898, 0.9939, 0.8786, 0.9327),
    cell("DNN", "UNSW-NB15", 0.9820, 0.9820, 1.0000, 0.9910),
    cell("DNN", "BoT IoT", 0.9770, 0.9770, 1.0000, 0.9884),
    cell("DNN", "CICIDS2017", 0.9800, 0.9800, 1.0000, 0.9899),
    cell("DNN", "Stratosphere", 0.2110, 0.2110, 1.0000, 0.3485),
    cell("DNN", "Mirai", 0.9060, 0.9060, 1.0000, 0.9507),
    cell("Slips", "UNSW-NB15", 0.8735, 0.0000, 0.0000, 0.0000),
    cell("Slips", "BoT IoT", 0.0018, 0.0000, 0.0000, 0.0000),
    cell("Slips", "CICIDS2017", 0.9370, 0.0037, 0.0447, 0.0068),
    cell("Slips", "Stratosphere", 0.6745, 0.8809, 0.4739, 0.6163),
    cell("Slips", "Mirai", 0.8040, 0.1243, 0.0159, 0.0282),
];

/// Looks up a paper cell by detector and dataset name.
pub fn paper_cell(detector: &str, dataset: &str) -> Option<&'static PaperCell> {
    PAPER_TABLE4.iter().find(|c| c.detector == detector && c.dataset == dataset)
}

pub mod workload {
    //! Synthetic bursty operational traffic — the one generator behind the
    //! `idsbench check` elastic-sharding gates and the autoscale parity
    //! tests, so the gated workload and the pinned-invariant workload
    //! cannot silently diverge.

    use idsbench_core::{AttackKind, Label, LabeledPacket};
    use idsbench_datasets::ScenarioScale;
    use idsbench_net::{MacAddr, PacketBuilder, TcpFlags, Timestamp};
    use idsbench_stream::AutoscalePolicy;
    use std::net::Ipv4Addr;

    /// Appends one complete six-packet TCP session (handshake, payload,
    /// orderly close) starting at `t0_micros`, client `host:port` against
    /// the fixed server `10.0.0.200:80`, one packet every 100 µs.
    fn tcp_session(
        (host, port): (u8, u16),
        t0_micros: u64,
        label: Label,
        payload: usize,
        out: &mut Vec<LabeledPacket>,
    ) {
        let (client, server) = ((host, port), (200u8, 80u16));
        let steps = [
            (client, server, TcpFlags::SYN, 0),
            (server, client, TcpFlags::SYN | TcpFlags::ACK, 0),
            (client, server, TcpFlags::ACK, payload),
            (client, server, TcpFlags::FIN | TcpFlags::ACK, 0),
            (server, client, TcpFlags::FIN | TcpFlags::ACK, 0),
            (client, server, TcpFlags::ACK, 0),
        ];
        for (step, (src, dst, flags, bytes)) in (0u64..).zip(steps) {
            let p = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(src.0 as u32), MacAddr::from_host_id(dst.0 as u32))
                .ipv4(Ipv4Addr::new(10, 0, 0, src.0), Ipv4Addr::new(10, 0, 0, dst.0))
                .tcp(src.1, dst.1, flags)
                .payload_len(bytes)
                .build(Timestamp::from_micros(t0_micros + 100 * step));
            out.push(LabeledPacket::new(p, label));
        }
    }

    /// Phased bursty trace, StealthCup-style: one traffic-second per
    /// phase, `is_burst(phase)` choosing between `quiet_sessions` benign
    /// sessions and `burst_sessions` sessions (half of them SYN-flood
    /// labelled, with large payloads). Every session rides a 5-tuple of
    /// its own — flow identity stays sharding-independent — and `seed`
    /// rotates the port space so different seeds exercise different ring
    /// placements. Packets come out in timestamp order.
    pub fn bursty_trace(
        phases: u64,
        quiet_sessions: u64,
        burst_sessions: u64,
        seed: u64,
        is_burst: impl Fn(u64) -> bool,
    ) -> Vec<LabeledPacket> {
        let mut packets = Vec::new();
        for phase in 0..phases {
            let burst = is_burst(phase);
            let sessions = if burst { burst_sessions } else { quiet_sessions };
            for s in 0..sessions {
                let host = (s % 23) as u8 + 1;
                let port = (seed % 1000) as u16 + 2000 + (phase * 1511 + s) as u16 % 60_000;
                let t0 = phase * 1_000_000 + s * (1_000_000 / sessions).max(1);
                let label = if burst && s % 2 == 0 {
                    Label::Attack(AttackKind::SynFlood)
                } else {
                    Label::Benign
                };
                tcp_session((host, port), t0, label, if burst { 600 } else { 64 }, &mut packets);
            }
        }
        packets.sort_by_key(|lp| lp.packet.ts);
        packets
    }

    /// The multi-stage attack-burst workload at one scale: phase count and
    /// sessions per quiet and per burst traffic-second.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct BurstyPlan {
        /// Traffic-seconds in the trace.
        pub phases: u64,
        /// Benign sessions per quiet second.
        pub quiet_sessions: u64,
        /// Sessions per burst second.
        pub burst_sessions: u64,
    }

    impl BurstyPlan {
        /// The plan for a scenario scale.
        pub fn for_scale(scale: ScenarioScale) -> Self {
            let (phases, quiet_sessions, burst_sessions) = match scale {
                ScenarioScale::Tiny => (10, 8, 120),
                ScenarioScale::Small => (20, 20, 400),
                ScenarioScale::Full => (60, 40, 1200),
            };
            BurstyPlan { phases, quiet_sessions, burst_sessions }
        }

        /// Three burst seconds, then two quiet ones — long enough that a
        /// reactive (completed-window) policy scales up while the burst is
        /// still running, then steps back down in the lull.
        pub fn is_burst(phase: u64) -> bool {
            matches!(phase % 5, 1..=3)
        }

        /// A 1..=4-shard policy whose thresholds sit between the quiet and
        /// the burst event rates (six packets a session), so the pool must
        /// grow in every burst and shrink in every lull.
        pub fn policy(&self) -> AutoscalePolicy {
            AutoscalePolicy {
                min_shards: 1,
                max_shards: 4,
                scale_up_pps: (self.burst_sessions * 6) as f64 / 2.0,
                scale_down_pps: (self.quiet_sessions * 6) as f64 * 2.0,
                cooldown_windows: 0,
                vnodes: 32,
            }
        }

        /// The trace split into (warmup, eval): the warmup is the first
        /// quiet + burst pair, so Slips sees both classes before scoring.
        pub fn warmup_and_eval(&self, seed: u64) -> (Vec<LabeledPacket>, Vec<LabeledPacket>) {
            let mut trace = bursty_trace(
                self.phases,
                self.quiet_sessions,
                self.burst_sessions,
                seed,
                Self::is_burst,
            );
            let split =
                trace.partition_point(|lp| lp.packet.ts < Timestamp::from_micros(2_000_000));
            let eval = trace.split_off(split);
            (trace, eval)
        }
    }
}

pub mod cli {
    //! The `idsbench` command line: one parser for every subcommand. An
    //! unknown subcommand, an unknown flag or a malformed value is an
    //! error, never a silent default.

    use idsbench_datasets::ScenarioScale;
    use idsbench_fabric::{Endpoint, FaultPlan};

    /// Usage text printed with every parse error.
    pub const USAGE: &str = "\
usage: idsbench <command> [--scale tiny|small|full] [--seed N]
       idsbench worker <endpoint> [--faults <spec>]
commands:
  table1 table2 table3 table4   the paper's tables (table4 adds the per-family breakdown)
  sweep sampling preprocessing baseline
                                the ablations, as CSV
  scenarios                     the workload matrix; writes BENCH_scenarios.json
  check                         every correctness gate, one PASS/FAIL line each
  worker                        a fabric worker process (spawned by check)
defaults: --scale small --seed 42";

    /// What to run.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Command {
        /// Table I: the IDSs investigated.
        Table1,
        /// Table II: the datasets used.
        Table2,
        /// Table III: the datasets considered but not used.
        Table3,
        /// Table IV plus the per-family recall breakdown.
        Table4,
        /// Threshold sensitivity over the false-positive cap.
        Sweep,
        /// Table IV metrics as the flow-sampling rate drops.
        Sampling,
        /// The DNN with and without its preprocessing, plus classical ML.
        Preprocessing,
        /// Clean versus contaminated benign baseline.
        Baseline,
        /// The native-scenario family-recall matrix.
        Scenarios,
        /// Every correctness gate.
        Check,
        /// A fabric worker dialing `endpoint`, optionally with a fault plan.
        Worker {
            /// Where the coordinator listens.
            endpoint: Endpoint,
            /// Faults armed on the worker's transport.
            faults: Option<FaultPlan>,
        },
    }

    /// A parsed command line.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Invocation {
        /// The subcommand.
        pub command: Command,
        /// `--scale` (default `small`).
        pub scale: ScenarioScale,
        /// `--seed` (default 42).
        pub seed: u64,
    }

    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// A message naming the unknown subcommand, unknown flag, missing or
    /// malformed value, or stray positional argument.
    pub fn parse(args: &[String]) -> Result<Invocation, String> {
        let (name, rest) = args.split_first().ok_or("missing command")?;
        // Every command but `worker`; `None` is the worker.
        let plain = match name.as_str() {
            "table1" => Some(Command::Table1),
            "table2" => Some(Command::Table2),
            "table3" => Some(Command::Table3),
            "table4" => Some(Command::Table4),
            "sweep" => Some(Command::Sweep),
            "sampling" => Some(Command::Sampling),
            "preprocessing" => Some(Command::Preprocessing),
            "baseline" => Some(Command::Baseline),
            "scenarios" => Some(Command::Scenarios),
            "check" => Some(Command::Check),
            "worker" => None,
            other => return Err(format!("unknown command {other:?}")),
        };
        let (mut scale, mut seed, mut endpoint, mut faults) =
            (ScenarioScale::Small, 42, None, None);
        let mut words = rest.iter();
        while let Some(word) = words.next() {
            let mut value =
                || words.next().map(String::as_str).ok_or_else(|| format!("{word} needs a value"));
            match word.as_str() {
                "--scale" => {
                    scale = match value()? {
                        "tiny" => ScenarioScale::Tiny,
                        "small" => ScenarioScale::Small,
                        "full" => ScenarioScale::Full,
                        other => {
                            return Err(format!("--scale wants tiny|small|full, got {other:?}"))
                        }
                    }
                }
                "--seed" => {
                    let text = value()?;
                    seed = text
                        .parse()
                        .map_err(|_| format!("--seed wants a whole number, got {text:?}"))?;
                }
                "--faults" if plain.is_none() => {
                    let spec = value()?;
                    let plan = FaultPlan::parse(spec)
                        .map_err(|e| format!("bad fault spec {spec:?}: {e}"))?;
                    faults = Some(plan);
                }
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag {flag:?} for {name}"));
                }
                text if plain.is_none() && endpoint.is_none() => {
                    let parsed =
                        Endpoint::parse(text).map_err(|e| format!("bad endpoint {text:?}: {e}"))?;
                    endpoint = Some(parsed);
                }
                text => return Err(format!("unexpected argument {text:?}")),
            }
        }
        let command = match plain {
            Some(command) => command,
            None => {
                Command::Worker { endpoint: endpoint.ok_or("worker needs an endpoint")?, faults }
            }
        };
        Ok(Invocation { command, scale, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::cli::{parse, Command};
    use super::*;
    use idsbench_datasets::ScenarioScale;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn roster_matches_table_iv_order() {
        let names: Vec<String> = standard_detectors().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["Kitsune", "HELAD", "DNN", "Slips"]);
    }

    #[test]
    fn paper_table_is_complete() {
        assert_eq!(PAPER_TABLE4.len(), 20);
        for detector in ["Kitsune", "HELAD", "DNN", "Slips"] {
            for dataset in ["UNSW-NB15", "BoT IoT", "CICIDS2017", "Stratosphere", "Mirai"] {
                assert!(paper_cell(detector, dataset).is_some(), "{detector}/{dataset}");
            }
        }
    }

    #[test]
    fn paper_averages_match_published() {
        // The paper reports DNN's average F1 as 0.8537 — the highest.
        let dnn_f1: f64 =
            PAPER_TABLE4.iter().filter(|c| c.detector == "DNN").map(|c| c.f1).sum::<f64>() / 5.0;
        assert!((dnn_f1 - 0.8537).abs() < 1e-3, "dnn avg f1 = {dnn_f1}");
    }

    #[test]
    fn arg_parsing() {
        let run = parse(&args(&["table4", "--scale", "full", "--seed", "7"])).unwrap();
        assert_eq!(run.command, Command::Table4);
        assert_eq!(run.scale, ScenarioScale::Full);
        assert_eq!(run.seed, 7);
        let run = parse(&args(&["check"])).unwrap();
        assert_eq!((run.scale, run.seed), (ScenarioScale::Small, 42));
        let run =
            parse(&args(&["worker", "tcp://127.0.0.1:9", "--faults", "kill-at-seq=5"])).unwrap();
        match run.command {
            Command::Worker { endpoint, faults } => {
                assert_eq!(endpoint.to_string(), "tcp://127.0.0.1:9");
                assert!(faults.is_some());
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn unknown_command_is_rejected() {
        assert!(parse(&args(&["fig_faults"])).unwrap_err().contains("unknown command"));
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&args(&["check", "--require-recovry"])).unwrap_err();
        assert!(err.contains("--require-recovry"), "{err}");
        // `--faults` belongs to the worker only, and a stray positional to nobody.
        assert!(parse(&args(&["table4", "--faults", "kill-at-seq=1"])).is_err());
        assert!(parse(&args(&["table4", "tiny"])).is_err());
        assert!(parse(&args(&["worker"])).is_err());
    }

    #[test]
    fn malformed_value_is_rejected() {
        assert!(parse(&args(&["table4", "--scale", "Tiny"])).unwrap_err().contains("Tiny"));
        assert!(parse(&args(&["table4", "--seed", "0x2a"])).unwrap_err().contains("0x2a"));
        assert!(parse(&args(&["table4", "--seed"])).unwrap_err().contains("needs a value"));
        assert!(parse(&args(&["worker", "ftp://host"])).is_err());
        assert!(parse(&args(&["worker", "tcp://127.0.0.1:9", "--faults", "bogus"])).is_err());
    }
}
