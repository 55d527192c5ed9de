//! Chaos figure: worker processes are killed and corrupted mid-stream under
//! a seeded, deterministic fault plan, and the fabric's epoch-checkpoint
//! recovery must reproduce the crash-free score multiset exactly.
//!
//! ```text
//! cargo run --release -p idsbench-bench --bin fig_faults -- --scale tiny --require-recovery
//! ```
//!
//! The binary is its own worker: invoked as `fig_faults --worker <endpoint>
//! [--faults <spec>]` it dials in and runs the fabric worker loop, with an
//! optional [`FaultPlan`] armed on its transport. The parent run:
//!
//! 1. Scores the bursty trace single-process — the crash-free baseline.
//! 2. **kill**: two worker processes under the autoscale policy (1..=4
//!    shards); the first worker's transport is armed with `kill-at-seq`
//!    ~45% through the eval stream, so it dies mid-burst while the pool is
//!    scaled up. The coordinator must classify the death, re-home the dead
//!    peer's flows from the last epoch checkpoint onto the survivor, replay
//!    the retained batches, and finish with sorted-multiset score parity —
//!    zero lost flows, zero duplicate outcome fragments.
//! 3. **corrupt**: a fixed two-shard pool where one worker corrupts a reply
//!    frame mid-stream. The decoder must reject the frame (never decode
//!    garbage), the peer is classified dead, and recovery again holds
//!    parity.
//!
//! Slips scores the stream: flow-format, so re-homed flow records carry
//! real per-flow state and any loss or double-count breaks the multiset.
//!
//! With `--require-recovery` any failed check — no observed peer death, no
//! re-homed flows, no replayed batches, duplicate fragments, or broken
//! parity — exits non-zero (the CI chaos gate). One `BENCH `-prefixed JSON
//! line goes to stdout and `BENCH_faults.json`; the kill scenario's
//! telemetry snapshot (recovery counters, `recover` stage latency) lands in
//! `TELEMETRY_faults.json`.

use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use idsbench_bench::{scale_from_args, seed_from_args, standard_detectors, workload};
use idsbench_core::{EventDetector, LabeledPacket};
use idsbench_datasets::ScenarioScale;
use idsbench_fabric::{
    run_fabric, run_worker_with_faults, Endpoint, FabricConfig, FabricListener, FaultPlan,
    RecoveryConfig,
};
use idsbench_net::Timestamp;
use idsbench_slips::Slips;
use idsbench_stream::{
    run_stream, AutoscalePolicy, BoundedSource, StreamConfig, StreamRun, VecSource,
};
use idsbench_telemetry::Telemetry;

/// Mirrors `fig_multinode` so the chaos figure stresses the same traffic.
struct Workload {
    phases: u64,
    quiet_sessions: u64,
    burst_sessions: u64,
}

impl Workload {
    fn for_scale(scale: ScenarioScale) -> Self {
        match scale {
            ScenarioScale::Tiny => Workload { phases: 10, quiet_sessions: 8, burst_sessions: 120 },
            ScenarioScale::Small => {
                Workload { phases: 20, quiet_sessions: 20, burst_sessions: 400 }
            }
            ScenarioScale::Full => {
                Workload { phases: 60, quiet_sessions: 40, burst_sessions: 1200 }
            }
        }
    }

    fn is_burst(phase: u64) -> bool {
        matches!(phase % 5, 1..=3)
    }

    fn burst_pps(&self) -> f64 {
        (self.burst_sessions * 6) as f64
    }

    fn quiet_pps(&self) -> f64 {
        (self.quiet_sessions * 6) as f64
    }
}

/// Worker-process entry. A worker with an armed fault plan is *expected* to
/// die mid-run, so its protocol error is a success for the harness; a clean
/// worker failing is a real failure.
fn worker_main(endpoint: &str, faults: Option<&str>) -> ! {
    let endpoint = Endpoint::parse(endpoint).unwrap_or_else(|e| {
        eprintln!("# worker: bad endpoint: {e}");
        std::process::exit(2);
    });
    let plan = faults.map(|spec| {
        FaultPlan::parse(spec).unwrap_or_else(|e| {
            eprintln!("# worker: bad fault spec {spec:?}: {e}");
            std::process::exit(2);
        })
    });
    let armed = plan.is_some();
    let roster = standard_detectors();
    let resolve = |name: &str| -> Option<Box<dyn EventDetector>> {
        roster.iter().find(|(n, _)| n == name).map(|(_, factory)| factory())
    };
    match run_worker_with_faults(&endpoint, &resolve, None, plan) {
        Ok(()) => std::process::exit(0),
        Err(e) if armed => {
            eprintln!("# worker: planned fault fired: {e}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("# worker failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Spawns `count` worker processes; the first gets the fault plan. A short
/// stagger pins accept order so the faulted process is always peer 0 — the
/// peer that hosts shard 0 and therefore always sees batches, which makes
/// `kill-at-seq` fire deterministically even when the pool is at one shard.
fn spawn_workers(endpoint: &Endpoint, count: usize, faults: &str) -> Vec<Child> {
    let exe = std::env::current_exe().expect("current executable path");
    (0..count)
        .map(|index| {
            let mut cmd = Command::new(&exe);
            cmd.arg("--worker").arg(endpoint.to_string()).stdout(Stdio::null());
            if index == 0 {
                cmd.arg("--faults").arg(faults);
            }
            let child = cmd.spawn().expect("spawn worker process");
            if index == 0 {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            child
        })
        .collect()
}

/// Runs the coordinator against `workers` processes, worker 0 armed with
/// `faults`, and reaps every child (faulted exits are tolerated by design —
/// `worker_main` already folds a planned death into exit 0).
#[allow(clippy::too_many_arguments)]
fn fabric_run(
    tag: &str,
    packets: &[LabeledPacket],
    warmup: &[LabeledPacket],
    config: &StreamConfig,
    fabric: &FabricConfig,
    faults: &str,
    telemetry: &Telemetry,
    failures: &mut Vec<String>,
) -> Option<StreamRun> {
    let bind = Endpoint::parse("tcp://127.0.0.1:0").expect("tcp endpoint");
    let listener = match FabricListener::bind(&bind) {
        Ok(listener) => listener,
        Err(e) => {
            failures.push(format!("{tag}: bind {bind}: {e}"));
            return None;
        }
    };
    let endpoint = listener.local_endpoint().expect("listener endpoint");
    let total = fabric.workers + fabric.recovery.standby_workers;
    let mut children = spawn_workers(&endpoint, total, faults);
    let source = BoundedSource::spawn(VecSource::new("bursty-tcp", packets.to_vec()), 256);
    let run = run_fabric("Slips", warmup, source, config, fabric, listener, Some(telemetry));
    for (index, child) in children.iter_mut().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failures.push(format!("{tag}: worker {index} exited {status}")),
            Err(e) => failures.push(format!("{tag}: worker {index} unreaped: {e}")),
        }
    }
    match run {
        Ok(run) => Some(run),
        Err(e) => {
            failures.push(format!("{tag}: coordinator: {e}"));
            None
        }
    }
}

fn sorted(mut scores: Vec<f64>) -> Vec<f64> {
    scores.sort_by(f64::total_cmp);
    scores
}

fn check_parity(tag: &str, single: &StreamRun, fabric: &StreamRun, failures: &mut Vec<String>) {
    if sorted(single.scores.clone()) != sorted(fabric.scores.clone()) {
        failures.push(format!(
            "{tag}: score multiset diverged across the crash ({} single vs {} fabric scores)",
            single.scores.len(),
            fabric.scores.len()
        ));
    }
    if single.report.metrics != fabric.report.metrics {
        failures.push(format!("{tag}: merged metrics diverged across the crash"));
    }
}

/// Recovery counters for one scenario, read back from its telemetry.
struct RecoveryStats {
    deaths: u64,
    rehomed: u64,
    replayed: u64,
    duplicates: u64,
    recovery_micros: u64,
}

impl RecoveryStats {
    fn read(telemetry: &Telemetry) -> Self {
        RecoveryStats {
            deaths: telemetry.counter("fabric_peer_failures_total").get(),
            rehomed: telemetry.counter("fabric_flows_rehomed_total").get(),
            replayed: telemetry.counter("fabric_replayed_batches_total").get(),
            duplicates: telemetry.counter("fabric_duplicate_fragments_total").get(),
            recovery_micros: telemetry.counter("fabric_recovery_micros_total").get(),
        }
    }

    /// The chaos gate: a death must have been observed and survived with
    /// state intact, and replay dedup must have produced zero duplicates.
    fn require(&self, tag: &str, expect_replay: bool, failures: &mut Vec<String>) {
        if self.deaths == 0 {
            failures.push(format!("{tag}: no peer death observed — the fault never fired"));
        }
        if self.rehomed == 0 {
            failures.push(format!("{tag}: recovery re-homed no flow state"));
        }
        if expect_replay && self.replayed == 0 {
            failures.push(format!("{tag}: recovery replayed no batches"));
        }
        if self.duplicates != 0 {
            failures.push(format!(
                "{tag}: {} duplicate outcome fragments survived dedup",
                self.duplicates
            ));
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"peer_failures\":{},\"flows_rehomed\":{},\"replayed_batches\":{},\
             \"duplicate_fragments\":{},\"recovery_micros\":{}}}",
            self.deaths, self.rehomed, self.replayed, self.duplicates, self.recovery_micros
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = args.iter().position(|a| a == "--worker") {
        let endpoint = args.get(at + 1).cloned().unwrap_or_else(|| {
            eprintln!("# usage: fig_faults --worker <endpoint> [--faults <spec>]");
            std::process::exit(2);
        });
        let faults = args
            .iter()
            .position(|a| a == "--faults")
            .and_then(|at| args.get(at + 1))
            .map(String::as_str);
        worker_main(&endpoint, faults);
    }
    let scale = scale_from_args(&args);
    let seed = seed_from_args(&args);
    let require_recovery = args.iter().any(|a| a == "--require-recovery");

    let plan = Workload::for_scale(scale);
    let policy = AutoscalePolicy {
        min_shards: 1,
        max_shards: 4,
        scale_up_pps: plan.burst_pps() / 2.0,
        scale_down_pps: plan.quiet_pps() * 2.0,
        cooldown_windows: 0,
        vnodes: 32,
        ..Default::default()
    };
    let trace = workload::bursty_trace(
        plan.phases,
        plan.quiet_sessions,
        plan.burst_sessions,
        seed,
        Workload::is_burst,
    );
    let split = trace.partition_point(|lp| lp.packet.ts < Timestamp::from_micros(2_000_000));
    let (warmup, eval) = trace.split_at(split);
    let mut failures: Vec<String> = Vec::new();

    // 1. Crash-free single-process baseline: one shard, same window.
    let single = run_stream(
        &|| Box::new(Slips::default()) as Box<dyn EventDetector>,
        warmup,
        BoundedSource::spawn(VecSource::new("bursty-tcp", eval.to_vec()), 256),
        &StreamConfig { window_secs: 1.0, ..Default::default() },
    )
    .expect("single-process baseline run");

    // 2. kill: a worker process dies mid-burst while the pool is scaled up;
    //    tight epochs so the kill lands well past a committed checkpoint.
    let recovery = RecoveryConfig { checkpoint_frames: 16, ..Default::default() };
    let kill_at = eval.len() as u64 * 45 / 100;
    let kill_telemetry = Arc::new(Telemetry::default());
    let kill_run = fabric_run(
        "kill",
        eval,
        warmup,
        &StreamConfig {
            shards: 1,
            window_secs: 1.0,
            autoscale: Some(policy),
            ..Default::default()
        },
        &FabricConfig { workers: 2, recovery, ..Default::default() },
        &format!("seed={seed},kill-at-seq={kill_at}"),
        &kill_telemetry,
        &mut failures,
    );
    let kill_stats = RecoveryStats::read(&kill_telemetry);
    let mut ups = 0usize;
    if let Some(run) = &kill_run {
        check_parity("kill", &single, run, &mut failures);
        ups = run.report.scale_events.iter().filter(|e| e.is_scale_up()).count();
        if ups == 0 {
            failures.push("kill: autoscaler never scaled up under the burst".to_string());
        }
    }
    kill_stats.require("kill", true, &mut failures);

    // 3. corrupt: a fixed two-shard pool where one worker's 4th reply frame
    //    (its second checkpoint, mid-stream) is corrupted; the decoder must
    //    reject it and recovery holds parity.
    let corrupt_telemetry = Arc::new(Telemetry::default());
    let corrupt_run = fabric_run(
        "corrupt",
        eval,
        warmup,
        &StreamConfig { shards: 2, window_secs: 1.0, ..Default::default() },
        &FabricConfig { workers: 2, recovery, ..Default::default() },
        &format!("seed={seed},corrupt-send=3"),
        &corrupt_telemetry,
        &mut failures,
    );
    let corrupt_stats = RecoveryStats::read(&corrupt_telemetry);
    if let Some(run) = &corrupt_run {
        check_parity("corrupt", &single, run, &mut failures);
    }
    corrupt_stats.require("corrupt", false, &mut failures);

    let scale_name = match scale {
        ScenarioScale::Tiny => "tiny",
        ScenarioScale::Small => "small",
        ScenarioScale::Full => "full",
    };
    let kill_parity = kill_run.is_some() && !failures.iter().any(|f| f.starts_with("kill"));
    let corrupt_parity =
        corrupt_run.is_some() && !failures.iter().any(|f| f.starts_with("corrupt"));
    let json = format!(
        "{{\"bench\":\"fig_faults\",\"scale\":\"{scale_name}\",\"seed\":{seed},\
         \"workers\":2,\"detector\":\"Slips\",\"checkpoint_frames\":{},\
         \"kill\":{{\"at_seq\":{kill_at},\"parity\":{kill_parity},\"scale_ups\":{ups},\
         \"recovery\":{}}},\
         \"corrupt\":{{\"send_frame\":3,\"parity\":{corrupt_parity},\"recovery\":{}}},\
         \"report\":{}}}",
        recovery.checkpoint_frames,
        kill_stats.json(),
        corrupt_stats.json(),
        match &kill_run {
            Some(run) => run.report.to_json(),
            None => "null".to_string(),
        },
    );
    if let Err(e) = std::fs::write("BENCH_faults.json", format!("{json}\n")) {
        eprintln!("# failed to write BENCH_faults.json: {e}");
    }
    println!("BENCH {json}");
    if let Err(e) =
        std::fs::write("TELEMETRY_faults.json", format!("{}\n", kill_telemetry.json_snapshot()))
    {
        eprintln!("# failed to write TELEMETRY_faults.json: {e}");
    }

    if failures.is_empty() {
        eprintln!(
            "# chaos parity holds: {} scores; kill re-homed {} flows and replayed {} batches \
             in {}us, corrupt re-homed {} flows, 0 duplicate fragments",
            single.scores.len(),
            kill_stats.rehomed,
            kill_stats.replayed,
            kill_stats.recovery_micros,
            corrupt_stats.rehomed,
        );
    } else {
        for failure in &failures {
            eprintln!("# RECOVERY GATE FAILED: {failure}");
        }
        if require_recovery {
            std::process::exit(1);
        }
    }
}
