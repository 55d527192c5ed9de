//! What the benchmark reads from the host: process CPU time and peak
//! memory from `/proc`, allocator totals, and the fingerprint that makes a
//! number attributable to a machine, a toolchain and a commit.

use idsbench_core::allocwatch::allocation_snapshot;
use idsbench_core::json;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 on every architecture Rust targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// Process CPU seconds so far: user + system, every thread (exited ones
/// included), from `/proc/self/stat`. 0 where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis with field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SECOND
}

/// Peak resident set (`VmHWM`) of this process so far, MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Allocator totals at a point in time (zero unless the binary installs
/// `CountingAllocator`, which `main.rs` does).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocMark {
    pub allocations: u64,
    pub bytes: u64,
}

impl AllocMark {
    pub fn now() -> Self {
        let snapshot = allocation_snapshot();
        AllocMark { allocations: snapshot.allocations, bytes: snapshot.bytes }
    }
}

/// Everything a reader needs to decide whether two result lines are
/// comparable.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub parallelism: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub rustflags: &'static str,
    pub profile: &'static str,
    pub git_sha: String,
}

impl Fingerprint {
    pub fn collect() -> Self {
        Fingerprint {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: env!("BENCH_RUSTC_VERSION"),
            rustflags: env!("BENCH_RUSTFLAGS"),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            git_sha: git_sha(),
        }
    }

    /// The fingerprint as the inside of a JSON object (no braces), so
    /// callers can splice in what only they know (seed, lap constants).
    pub fn json_fields(&self) -> String {
        let mut out = String::new();
        json::num_field(&mut out, "available_parallelism", self.parallelism as f64);
        for (key, value) in [
            ("cpu_model", self.cpu_model.as_str()),
            ("rustc", self.rustc),
            ("rustflags", self.rustflags),
            ("profile", self.profile),
            ("git_sha", self.git_sha.as_str()),
        ] {
            out.push(',');
            json::str_field(&mut out, key, value);
        }
        out
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` under the current directory
/// without spawning `git`; `"unknown"` outside a git checkout.
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        // Burn a little CPU so the tick counter cannot still read zero.
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 40 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn fingerprint_is_valid_json_inside() {
        let fields = Fingerprint::collect().json_fields();
        assert!(fields.contains("\"available_parallelism\":"));
        assert!(fields.contains("\"rustc\":\"rustc "));
    }
}
