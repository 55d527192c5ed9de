//! `idsbench`: the paper's tables, the ablations, the scenario matrix, the
//! correctness gates, and the fabric worker process — one binary, one
//! argument parser.
//!
//! ```text
//! cargo run --release -p idsbench-bench --bin idsbench -- table4 --scale full --seed 42
//! cargo run --release -p idsbench-bench --bin idsbench -- check --scale tiny
//! ```
//!
//! An unknown command, an unknown flag or a malformed value exits 2 with the
//! usage text; a failed report or gate exits 1.

mod check;
mod reports;

use std::process::ExitCode;

use idsbench_bench::cli::{self, Command, USAGE};
use idsbench_bench::standard_detectors;
use idsbench_core::EventDetector;
use idsbench_fabric::{run_worker_with_faults, Endpoint, FaultPlan};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match cli::parse(&args) {
        Ok(invocation) => invocation,
        Err(message) => {
            eprintln!("idsbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (scale, seed) = (invocation.scale, invocation.seed);
    let outcome = match invocation.command {
        Command::Table1 => reports::table1(),
        Command::Table2 => reports::table2(),
        Command::Table3 => reports::table3(),
        Command::Table4 => reports::table4(scale, seed),
        Command::Sweep => reports::sweep(scale, seed),
        Command::Sampling => reports::sampling(scale, seed),
        Command::Preprocessing => reports::preprocessing(scale, seed),
        Command::Baseline => reports::baseline(scale, seed),
        Command::Scenarios => reports::scenarios(scale, seed),
        Command::Check => check::run(scale, seed),
        Command::Worker { endpoint, faults } => return worker(&endpoint, faults),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("idsbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Fabric worker process: dials the coordinator and hosts shards of the
/// standard roster until told to finish. A worker with an armed fault plan
/// is *expected* to die mid-run, so its transport error is a success; a
/// clean worker failing is a real failure.
fn worker(endpoint: &Endpoint, faults: Option<FaultPlan>) -> ExitCode {
    let armed = faults.is_some();
    let roster = standard_detectors();
    let resolve = |name: &str| -> Option<Box<dyn EventDetector>> {
        roster.iter().find(|(n, _)| n == name).map(|(_, factory)| factory())
    };
    match run_worker_with_faults(endpoint, &resolve, None, faults) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if armed => {
            eprintln!("idsbench worker: planned fault fired: {e}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("idsbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}
