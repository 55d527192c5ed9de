//! `idsbench check`: every correctness gate, one `PASS`/`FAIL` line each;
//! no timing, no files. The elastic-sharding gates replay the bursty trace
//! ([`BurstyPlan`]) through Slips — flow-format, so every rebalance,
//! migration and re-homing moves real flow-table records, and a lost or
//! double-counted flow breaks the sorted score multiset.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use idsbench_bench::workload::BurstyPlan;
use idsbench_core::{EventDetector, LabeledPacket};
use idsbench_datasets::ScenarioScale;
use idsbench_fabric::{
    run_fabric, DrainPlan, Endpoint, FabricConfig, FabricListener, RecoveryConfig,
};
use idsbench_slips::Slips;
use idsbench_stream::{
    run_stream_with_telemetry, BoundedSource, StreamConfig, StreamRun, VecSource,
};
use idsbench_telemetry::{Telemetry, TelemetrySink};

use crate::reports::{max_family_spread, scenario_matrix, Outcome};

/// Smallest max-minus-min recall on some family, in some scenario, that
/// counts as the detectors being separated by the workload matrix.
const SEPARATION_SPREAD: f64 = 0.25;

/// Read, write and connect timeout of the telemetry self-scrape.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(10);

/// Runs every gate and prints one line per gate.
pub fn run(scale: ScenarioScale, seed: u64) -> Outcome {
    let plan = BurstyPlan::for_scale(scale);
    let (warmup, eval) = plan.warmup_and_eval(seed);
    let mut failed = 0;
    let mut report = |gate: &str, failures: Vec<String>| {
        if failures.is_empty() {
            println!("PASS {gate}");
        } else {
            failed += 1;
            println!("FAIL {gate}: {}", failures.join("; "));
        }
    };

    report("autoscale", autoscale(&plan, &warmup, &eval));
    match run_stream_with_telemetry(&slips, &warmup, source(&eval), &fixed(1), None) {
        Ok(single) => {
            let fabric = Fabric { warmup: &warmup, eval: &eval, seed, single };
            report("fabric-tcp", fabric.tcp(&plan));
            report("fabric-uds", fabric.uds());
            report("fabric-kill", fabric.kill(&plan));
            report("fabric-corrupt", fabric.corrupt());
        }
        Err(e) => {
            for gate in ["fabric-tcp", "fabric-uds", "fabric-kill", "fabric-corrupt"] {
                report(gate, vec![format!("single-process baseline: {e}")]);
            }
        }
    }
    report("scenarios", separation(scale, seed));

    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} gate(s) failed"))
    }
}

fn slips() -> Box<dyn EventDetector> {
    Box::new(Slips::default())
}

fn source(packets: &[LabeledPacket]) -> BoundedSource {
    BoundedSource::spawn(VecSource::new("bursty-tcp", packets.to_vec()), 256)
}

/// The autoscaler must grow the pool in a burst and shrink it in a lull,
/// and the live exposition endpoint must serve per-shard stage p99s and a
/// journalled scale event.
fn autoscale(plan: &BurstyPlan, warmup: &[LabeledPacket], eval: &[LabeledPacket]) -> Vec<String> {
    let config = StreamConfig { autoscale: Some(plan.policy()), ..fixed(1) };
    let telemetry = Arc::new(Telemetry::default());
    let run =
        match run_stream_with_telemetry(&slips, warmup, source(eval), &config, Some(&telemetry)) {
            Ok(run) => run,
            Err(e) => return vec![format!("autoscaled run: {e}")],
        };
    let events = &run.report.scale_events;
    let ups = events.iter().filter(|e| e.is_scale_up()).count();
    let downs = events.iter().filter(|e| e.is_scale_down()).count();
    let mut failures = Vec::new();
    if ups == 0 || downs == 0 {
        failures.push(format!("expected >=1 scale-up and >=1 scale-down, got {ups} / {downs}"));
    }
    match TelemetrySink::serve(Arc::clone(&telemetry), "127.0.0.1:0") {
        Ok(sink) => {
            let scraped = scrape(sink.local_addr());
            if scraped.is_empty() {
                sink.stop();
            } else {
                // `stop` joins the exposition thread, which may be the one
                // that is wedged; leave it to exit with the process.
                std::mem::forget(sink);
            }
            failures.extend(scraped);
        }
        Err(e) => failures.push(format!("bind exposition endpoint: {e}")),
    }
    failures
}

/// One plain HTTP/1.0 GET against the exposition endpoint; returns the body.
/// Every socket operation is bounded by [`SCRAPE_TIMEOUT`], so a wedged
/// exposition thread fails the gate instead of hanging the run.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, SCRAPE_TIMEOUT)?;
    stream.set_read_timeout(Some(SCRAPE_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_TIMEOUT))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response.split_once("\r\n\r\n").map_or(response.clone(), |(_, body)| body.to_string()))
}

/// Self-scrapes the endpoint: `/metrics` must carry a per-shard `score`
/// stage p99 and the packets counter, the JSON snapshot a scale event.
fn scrape(addr: SocketAddr) -> Vec<String> {
    let p99 = "idsbench_stage_latency_nanos{stage=\"score\",shard=\"0\",quantile=\"0.99\"}";
    let expected = [
        ("/metrics", p99, "a per-shard score-stage p99"),
        ("/metrics", "idsbench_packets_total", "the packets counter"),
        ("/snapshot", "\"type\":\"scale\"", "a journalled scale event"),
    ];
    let check = |(path, needle, what): (&str, &str, &str)| match http_get(addr, path) {
        Ok(body) if body.contains(needle) => None,
        Ok(_) => Some(format!("{path} lacks {what}")),
        Err(e) => Some(format!("scrape of {path}: {e}")),
    };
    expected.into_iter().filter_map(check).collect()
}

/// The fabric gates: the bursty trace across real `idsbench worker`
/// processes must reproduce the single-process run's sorted score multiset
/// and merged metrics — under autoscaling, a mid-stream drain, a worker
/// killed mid-burst, and a corrupted reply frame.
struct Fabric<'a> {
    warmup: &'a [LabeledPacket],
    eval: &'a [LabeledPacket],
    seed: u64,
    /// The parity baseline: one in-process shard, same metrics window.
    single: StreamRun,
}

impl Fabric<'_> {
    /// Autoscaled over TCP: flow state must cross the process boundary.
    fn tcp(&self, plan: &BurstyPlan) -> Vec<String> {
        let config = StreamConfig { autoscale: Some(plan.policy()), ..fixed(1) };
        let fabric = FabricConfig { workers: 2, ..Default::default() };
        let (telemetry, _, mut failures) = self.run(&tcp(), &config, &fabric, None);
        if failures.is_empty() && telemetry.counter("fabric_cross_peer_migrations_total").get() == 0
        {
            failures.push("no flow state crossed the process boundary".to_string());
        }
        failures
    }

    /// Over a Unix socket, two fixed shards, worker 1 drained mid-stream:
    /// its flows must all survive the migration barrier.
    fn uds(&self) -> Vec<String> {
        let path = std::env::temp_dir().join(format!("idsbench-check-{}.sock", std::process::id()));
        let fabric = FabricConfig {
            workers: 2,
            drain: Some(DrainPlan { peer: 1, at_seq: self.eval.len() as u64 / 2 }),
            ..Default::default()
        };
        let (_, run, mut failures) = self.run(&Endpoint::Uds(path), &fixed(2), &fabric, None);
        if let Some(run) = run {
            // A drain is the only scale event without a triggering rate.
            let drains: Vec<_> =
                run.report.scale_events.iter().filter(|e| e.trigger_pps == 0.0).collect();
            if drains.iter().all(|e| e.migrated_flows == 0) {
                failures.push("drained worker surrendered no flow state".to_string());
            }
        }
        failures
    }

    /// Worker 0 dies ~45% into the stream while the autoscaled pool is
    /// scaled up; tight epochs so the kill lands past a committed
    /// checkpoint. Recovery must replay the retained batches.
    fn kill(&self, plan: &BurstyPlan) -> Vec<String> {
        let kill_at = self.eval.len() as u64 * 45 / 100;
        let config = StreamConfig { autoscale: Some(plan.policy()), ..fixed(1) };
        self.recovery(&config, &format!("seed={},kill-at-seq={kill_at}", self.seed), true)
    }

    /// A fixed two-shard pool where worker 0 corrupts its fourth reply
    /// frame (its second checkpoint): the decoder must reject it and the
    /// peer is recovered like a dead one.
    fn corrupt(&self) -> Vec<String> {
        self.recovery(&fixed(2), &format!("seed={},corrupt-send=3", self.seed), false)
    }

    /// A fault-plan run: a death observed and survived with state
    /// re-homed, batches replayed (when `expect_replay`), and zero
    /// duplicate outcome fragments.
    fn recovery(&self, config: &StreamConfig, faults: &str, expect_replay: bool) -> Vec<String> {
        let recovery = RecoveryConfig { checkpoint_frames: 16, ..Default::default() };
        let fabric = FabricConfig { workers: 2, recovery, ..Default::default() };
        let (telemetry, _, mut failures) = self.run(&tcp(), config, &fabric, Some(faults));
        let count = |name: &str| telemetry.counter(name).get();
        if count("fabric_peer_failures_total") == 0 {
            failures.push("no peer death observed — the fault never fired".to_string());
        }
        if count("fabric_flows_rehomed_total") == 0 {
            failures.push("recovery re-homed no flow state".to_string());
        }
        if expect_replay && count("fabric_replayed_batches_total") == 0 {
            failures.push("recovery replayed no batches".to_string());
        }
        let duplicates = count("fabric_duplicate_fragments_total");
        if duplicates != 0 {
            failures.push(format!("{duplicates} duplicate outcome fragments survived dedup"));
        }
        failures
    }

    /// Binds `bind`, spawns `fabric.workers` worker processes of this
    /// binary (worker 0 armed with `faults`), drives the eval slice through
    /// `run_fabric`, reaps every child, and checks parity with the
    /// single-process run — plus, when the pool is autoscaled, that it
    /// scaled up. A worker whose planned fault fired exits 0 by design, so
    /// any other exit is a failure. Returns the run's telemetry, the run
    /// itself if the coordinator finished, and the failures.
    fn run(
        &self,
        bind: &Endpoint,
        config: &StreamConfig,
        fabric: &FabricConfig,
        faults: Option<&str>,
    ) -> (Telemetry, Option<StreamRun>, Vec<String>) {
        let telemetry = Telemetry::default();
        let launched = FabricListener::bind(bind)
            .and_then(|listener| Ok((listener.local_endpoint()?, listener)))
            .map_err(|e| format!("bind {bind}: {e}"))
            .and_then(|(endpoint, listener)| {
                Ok((spawn_workers(&endpoint, fabric.workers, faults)?, listener))
            });
        let (mut children, listener) = match launched {
            Ok(launched) => launched,
            Err(e) => return (telemetry, None, vec![e]),
        };
        let mut failures = Vec::new();
        let source = source(self.eval);
        let run =
            run_fabric("Slips", self.warmup, source, config, fabric, listener, Some(&telemetry));
        for (index, child) in children.iter_mut().enumerate() {
            match child.wait() {
                Ok(status) if status.success() => {}
                Ok(status) => failures.push(format!("worker {index} exited {status}")),
                Err(e) => failures.push(format!("worker {index} unreaped: {e}")),
            }
        }
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                failures.push(format!("coordinator over {bind}: {e}"));
                return (telemetry, None, failures);
            }
        };
        parity(&self.single, &run, &mut failures);
        if config.autoscale.is_some() && !run.report.scale_events.iter().any(|e| e.is_scale_up()) {
            failures.push("autoscaler never scaled up under the burst".to_string());
        }
        (telemetry, Some(run), failures)
    }
}

fn tcp() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".to_string())
}

/// A fixed pool of `shards` with one-second metrics windows.
fn fixed(shards: usize) -> StreamConfig {
    StreamConfig { shards, window_secs: 1.0, ..Default::default() }
}

/// Re-invokes this binary as `worker <endpoint>`, `count` times; worker 0
/// gets `--faults`. A short stagger after the first pins accept order, so
/// the armed process is always peer 0 — the peer hosting shard 0, which
/// always sees batches, so `kill-at-seq` fires even at one shard.
fn spawn_workers(
    endpoint: &Endpoint,
    count: usize,
    faults: Option<&str>,
) -> Result<Vec<Child>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut children: Vec<Child> = Vec::with_capacity(count);
    for index in 0..count {
        let mut command = Command::new(&exe);
        command.arg("worker").arg(endpoint.to_string()).stdout(Stdio::null());
        if let (0, Some(spec)) = (index, faults) {
            command.arg("--faults").arg(spec);
        }
        match command.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                for mut child in children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(format!("spawn worker {index}: {e}"));
            }
        }
        if index == 0 {
            std::thread::sleep(Duration::from_millis(200));
        }
    }
    Ok(children)
}

/// Sorted-multiset score parity plus merged-metrics equality against the
/// single-process baseline.
fn parity(single: &StreamRun, fabric: &StreamRun, failures: &mut Vec<String>) {
    let sorted = |run: &StreamRun| {
        let mut scores = run.scores.clone();
        scores.sort_by(f64::total_cmp);
        scores
    };
    if sorted(single) != sorted(fabric) {
        failures.push(format!(
            "score multiset diverged ({} single vs {} fabric scores)",
            single.scores.len(),
            fabric.scores.len()
        ));
    }
    if single.report.metrics != fabric.report.metrics {
        failures.push("merged metrics diverged".to_string());
    }
}

/// At least one attack family must separate the detectors in the native
/// scenario matrix: a workload on which every IDS scores alike measures
/// nothing.
fn separation(scale: ScenarioScale, seed: u64) -> Vec<String> {
    let rows = match scenario_matrix(scale, seed) {
        Ok(rows) => rows,
        Err(e) => return vec![e],
    };
    let (widest, family) = rows
        .iter()
        .map(|(_, cells)| max_family_spread(cells))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or_default();
    if widest > SEPARATION_SPREAD {
        Vec::new()
    } else {
        vec![format!("widest family spread {widest:.3} ({family}) <= {SEPARATION_SPREAD}")]
    }
}
