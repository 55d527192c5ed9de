//! The command line: the contract's single-child form, and the three
//! drivers (`run`, `trace`, `selfcheck`) that spawn children of this same
//! executable one after another and fold their result lines.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::child::{run_child, ChildOptions};
use crate::host::Fingerprint;
use idsbench_core::json::fmt_num;

use crate::spec::{self, Workload, DEFAULT_SECONDS, END_TO_END, REPEATS, WORKLOADS};
use crate::stats::{median, quartiles, spread, ChildResult, Metric};

const USAGE: &str = "\
usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
       benchmark run       [--workload <name>] [--seed N] [--seconds S]
       benchmark trace     [--workload <name>] [--seed N] [--seconds S]
       benchmark selfcheck [--workload <name>] [--seed N] [--seconds S] [--quick]
       benchmark manifest
run from the repository root; workloads: kitsune-iot helad-iot slips-iot dnn-botiot
fabric-slips-iot gen-synburst table4-grid";

#[derive(Debug, Clone)]
struct Args {
    command: Option<String>,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: None,
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut words = args.iter();
    while let Some(word) = words.next() {
        let mut value = |flag: &str| {
            words.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
        };
        match word.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload =
                    Some(spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => parsed.seed = number_arg("--seed", value("--seed")?)?,
            "--seconds" => parsed.seconds = number_arg("--seconds", value("--seconds")?)?.max(1),
            "--trace" => parsed.trace = number_arg("--trace", value("--trace")?)? != 0,
            "--quick" => parsed.quick = true,
            "run" | "trace" | "selfcheck" | "manifest" if parsed.command.is_none() => {
                parsed.command = Some(word.clone());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn number_arg(flag: &str, text: &str) -> Result<u64, String> {
    text.parse().map_err(|_| format!("{flag} wants a whole number, got {text:?}"))
}

/// Entry point of the `benchmark` binary.
pub fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_deref() {
        None => child(&args),
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        Some("run") => run_sets(&args, false, 1, REPEATS).map(|sets| report_run(&args, &sets[0])),
        Some("trace") => run_sets(&args, true, 1, 1).map(|sets| report_run(&args, &sets[0])),
        Some("selfcheck") if args.quick => {
            run_sets(&args, false, 1, 1).map(|sets| report_quick(&args, &sets[0]))
        }
        Some("selfcheck") => {
            run_sets(&args, false, 2, REPEATS).map(|sets| report_selfcheck(&args, &sets))
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

fn fingerprint_json(args: &Args, extra: &str) -> String {
    format!(
        "{{{},\"seed\":{},\"seconds\":{}{extra}}}",
        Fingerprint::collect().json_fields(),
        args.seed,
        args.seconds
    )
}

/// The contract's form: one workload, one run; on stdout the fingerprint
/// line, the counts line, then the result line.
fn child(args: &Args) -> Result<bool, String> {
    let workload = args.workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let options = ChildOptions {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
    };
    let result = run_child(&options)?;
    if let Some(broken) = result.metrics.iter().find(|metric| !metric.value.is_finite()) {
        return Err(format!("{}: {} is not a finite number", workload.name, broken.name));
    }
    let extra = format!(
        ",\"workload\":\"{}\",\"window_laps\":{},\"windows\":{},\"trace\":{}",
        workload.name,
        options.window_laps(),
        if args.trace || args.quick { 1 } else { workload.windows() },
        args.trace
    );
    println!("{{\"fingerprint\":{}}}", fingerprint_json(args, &extra));
    println!("{}", result.counts_json());
    println!("{}", result.to_json());
    Ok(result.correct)
}

/// Every repeat of one workload in one set.
struct WorkloadRuns {
    workload: &'static Workload,
    results: Vec<ChildResult>,
}

impl WorkloadRuns {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.results
            .iter()
            .filter_map(|result| result.metrics.iter().find(|m| m.name == metric))
            .map(|m| m.value)
            .collect()
    }

    fn correct(&self) -> bool {
        self.results.iter().all(|result| result.correct)
    }

    fn attempted(&self) -> u64 {
        self.results.iter().map(|result| result.attempted).sum()
    }

    /// The fifth end-to-end metric: failed ÷ attempted over the repeats. It
    /// must be 0, so it travels as the result line's `failed` and
    /// `attempted`, not among the metrics, which may never read 0.
    fn failed_share(&self) -> f64 {
        let failed: u64 = self.results.iter().map(|result| result.failed).sum();
        failed as f64 / self.attempted().max(1) as f64
    }

    /// The exact counts of the first repeat, if every repeat printed the
    /// same ones bit for bit.
    fn counts(&self) -> Option<&[Metric]> {
        let first = &self.results.first()?.counts;
        self.results.iter().all(|result| &result.counts == first).then_some(first)
    }
}

/// Spawns one child per (set, workload, repeat), strictly one at a time.
fn run_sets(
    args: &Args,
    trace: bool,
    sets: usize,
    repeats: usize,
) -> Result<Vec<Vec<WorkloadRuns>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let chosen: Vec<&'static Workload> = match args.workload {
        Some(workload) => vec![workload],
        None => WORKLOADS.iter().collect(),
    };
    let mut out = Vec::with_capacity(sets);
    for set in 0..sets {
        let mut runs = Vec::with_capacity(chosen.len());
        for &workload in &chosen {
            let mut results = Vec::with_capacity(repeats);
            for repeat in 0..repeats {
                eprintln!(
                    "# set {}/{sets} {} repeat {}/{repeats}",
                    set + 1,
                    workload.name,
                    repeat + 1
                );
                let mut command = Command::new(&exe);
                command
                    .args(["--workload", workload.name])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit());
                if args.quick {
                    command.arg("--quick");
                }
                let output = command.output().map_err(|e| format!("spawn child: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let result = ChildResult::parse(&stdout, spec::unit_of).ok_or_else(|| {
                    format!("{}: child printed no result ({})", workload.name, output.status)
                })?;
                results.push(result);
            }
            runs.push(WorkloadRuns { workload, results });
        }
        out.push(runs);
    }
    Ok(out)
}

fn metric_names(runs: &WorkloadRuns) -> Vec<(String, &'static str)> {
    runs.results
        .first()
        .map(|result| result.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect())
        .unwrap_or_default()
}

/// The JSON summary of one set: median, quartiles and sample count per
/// metric per workload, `failed_share`, and the counts that repeat exactly.
/// This benchmark measures; it claims nothing.
fn summary_json(args: &Args, set: &[WorkloadRuns]) -> String {
    let mut out = String::new();
    let repeats = set.first().map_or(0, |runs| runs.results.len());
    let extra = format!(",\"repeats\":{repeats}");
    let _ = write!(out, "{{\"fingerprint\":{},\"workloads\":[", fingerprint_json(args, &extra));
    for (i, runs) in set.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"name\":\"{}\",\"window_laps\":{},\"correct\":{},\"attempted\":{},\
             \"failed_share\":{},\"metrics\":{{",
            if i > 0 { "," } else { "" },
            runs.workload.name,
            runs.workload.window_laps(args.seconds),
            runs.correct(),
            runs.attempted(),
            fmt_num(runs.failed_share())
        );
        for (j, (name, unit)) in metric_names(runs).iter().enumerate() {
            let values = runs.values(name);
            let (q1, q3) = quartiles(&values);
            let _ = write!(
                out,
                "{}\"{name}\":{{\"unit\":\"{unit}\",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                if j > 0 { "," } else { "" },
                fmt_num(median(&values)),
                fmt_num(q1),
                fmt_num(q3),
                values.len()
            );
        }
        let _ = write!(out, "}},\"counts_repeat\":{},\"counts\":{{", runs.counts().is_some());
        let counts = runs.results.first().map_or(&[][..], |result| &result.counts);
        for (j, count) in counts.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\":{}",
                if j > 0 { "," } else { "" },
                count.name,
                fmt_num(count.value)
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n],\"claim\":null}");
    out
}

fn report_run(args: &Args, set: &[WorkloadRuns]) -> bool {
    let mut ok = true;
    for runs in set {
        for (name, unit) in metric_names(runs) {
            let values = runs.values(&name);
            eprintln!(
                "{:<18} {:<36} {:>16.4} {:<10} spread {:>6.2}% n={}",
                runs.workload.name,
                name,
                median(&values),
                unit,
                spread(&values) * 100.0,
                values.len()
            );
        }
        eprintln!(
            "{:<18} {:<36} {:>16.4} ratio",
            runs.workload.name,
            "failed_share",
            runs.failed_share()
        );
        ok &= runs.correct() && runs.counts().is_some();
    }
    println!("{}", summary_json(args, set));
    ok
}

fn report_quick(args: &Args, set: &[WorkloadRuns]) -> bool {
    let mut ok = true;
    for runs in set {
        ok &= runs.correct();
        println!("{:<18} correctness {}", runs.workload.name, verdict(runs.correct()));
    }
    println!("{{\"fingerprint\":{},\"quick\":true,\"correct\":{ok}}}", fingerprint_json(args, ""));
    ok
}

fn verdict(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Two sets of the same code, back to back. Per workload × end-to-end
/// metric: both medians, the quartile spread, and PASS/FAIL against the
/// metric's bound — the spread must stay inside it and the second median
/// must not be worse than the first by more than it. `failed_share` must
/// be 0 in both sets; `attempted` and every exact count must be the same
/// number in every child of both sets.
fn report_selfcheck(args: &Args, sets: &[Vec<WorkloadRuns>]) -> bool {
    let (first, second) = (&sets[0], &sets[1]);
    let mut ok = true;
    println!(
        "{:<18} {:<30} {:>20} {:>20} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "set 1", "set 2", "spread", "shift", "bound"
    );
    for (one, two) in first.iter().zip(second) {
        let name = one.workload.name;
        for metric in &END_TO_END {
            let (a, b) = (one.values(metric.name), two.values(metric.name));
            if a.is_empty() || b.is_empty() {
                ok = false;
                println!("{name:<18} {:<30} missing  FAIL", metric.name);
                continue;
            }
            let (m1, m2) = (median(&a), median(&b));
            let wider = spread(&a).max(spread(&b));
            let worse = if metric.better == "higher" { (m1 - m2) / m1 } else { (m2 - m1) / m1 };
            // Set-up time is bounded on its median only: it is a handful of
            // passes per run, not a long window.
            let steady = metric.name == "setup_s" || wider <= metric.bound;
            let pass = steady && worse <= metric.bound;
            ok &= pass;
            println!(
                "{name:<18} {:<30} {m1:>20.4} {m2:>20.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                metric.name,
                wider * 100.0,
                worse * 100.0,
                metric.bound * 100.0,
                verdict(pass)
            );
        }
        let (f1, f2) = (one.failed_share(), two.failed_share());
        let pass = f1 == 0.0 && f2 == 0.0 && one.correct() && two.correct();
        ok &= pass;
        println!(
            "{name:<18} {:<30} {f1:>20} {f2:>20} {:>8} {:>8} {:>6}  {}",
            "failed_share",
            "",
            "",
            "0",
            verdict(pass)
        );
        let pass = one.attempted() == two.attempted();
        ok &= pass;
        println!(
            "{name:<18} {:<30} {:>20} {:>20} {:>8} {:>8} {:>6}  {}",
            "attempted",
            one.attempted(),
            two.attempted(),
            "",
            "",
            "exact",
            verdict(pass)
        );
        match (one.counts(), two.counts()) {
            (Some(a), Some(b)) if a.len() == b.len() && !a.is_empty() => {
                for (x, y) in a.iter().zip(b) {
                    let pass = x == y;
                    ok &= pass;
                    println!(
                        "{name:<18} {:<30} {:>20} {:>20} {:>8} {:>8} {:>6}  {}",
                        x.name,
                        fmt_num(x.value),
                        fmt_num(y.value),
                        "",
                        "",
                        "exact",
                        verdict(pass)
                    );
                }
            }
            _ => {
                ok = false;
                println!("{name:<18} {:<30} counts differ between repeats  FAIL", "exact counts");
            }
        }
    }
    println!("{}", summary_json(args, second));
    ok
}
