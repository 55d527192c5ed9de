//! Medians and quartiles across repeats, and the one result-line shape
//! children print and drivers read back.

use std::fmt::Write as _;

use idsbench_core::json;

/// The median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean of `values`, summed in order (so it repeats bit for
/// bit); 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so a spread computed here
/// matches the one an outside checker computes. One value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let at = |quarter: usize| {
        let position = quarter * (n + 1);
        let below = (position / 4).clamp(1, n - 1);
        // May fall outside 0..=4 at the clamped ends: Python extrapolates.
        let delta = position as f64 - (below * 4) as f64;
        (sorted[below - 1] * (4.0 - delta) + sorted[below] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let middle = median(values);
    if middle == 0.0 {
        0.0
    } else {
        (q3 - q1) / middle.abs()
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// What one child run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// What must repeat exactly between two runs of the same code and seed
    /// (events scored, alerts, F1, wire bytes): printed on a line of its
    /// own, because the result line's keys are fixed.
    pub counts: Vec<Metric>,
}

/// `{"name": {"value": v, "unit": "u"}, ...}`; numbers in the workspace's
/// one JSON vocabulary (every digit, non-finite as `null`).
fn metrics_json(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quoted(&metric.name),
            json::fmt_num(metric.value),
            json::quoted(metric.unit)
        );
    }
    out.push('}');
}

/// Reads what [`metrics_json`] wrote back, up to the end of `text`.
fn parse_metrics(
    mut rest: &str,
    units: impl Fn(&str) -> Option<&'static str>,
) -> Option<Vec<Metric>> {
    let mut metrics = Vec::new();
    while let Some(open) = rest.find("\": {\"value\": ") {
        let name = &rest[rest[..open].rfind('"')? + 1..open];
        let tail = &rest[open + 13..];
        let value: f64 = tail[..tail.find(',')?].trim().parse().ok()?;
        metrics.push(Metric::new(name, value, units(name)?));
        rest = &tail[tail.find('}')? + 1..];
    }
    Some(metrics)
}

const COUNTS_PREFIX: &str = "{\"counts\": ";

impl ChildResult {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.metrics.len() * 64);
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
            self.correct, self.attempted, self.failed
        );
        metrics_json(&mut out, &self.metrics);
        out.push('}');
        out
    }

    /// The counts line, printed before the result line.
    pub fn counts_json(&self) -> String {
        let mut out = String::from(COUNTS_PREFIX);
        metrics_json(&mut out, &self.counts);
        out.push('}');
        out
    }

    /// Reads a child's standard output back: the last line is the result
    /// line, the counts line stands somewhere before it. Not a general JSON
    /// parser: it accepts the shape this crate prints.
    pub fn parse(stdout: &str, units: impl Fn(&str) -> Option<&'static str>) -> Option<Self> {
        let line = stdout.lines().last()?;
        let field = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(rest[..rest.find([',', '}'])?].trim())
        };
        let correct = field("correct")?.parse().ok()?;
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        let metrics = parse_metrics(&line[line.find("\"metrics\": {")? + 12..], &units)?;
        let counts = match stdout.lines().find_map(|line| line.strip_prefix(COUNTS_PREFIX)) {
            Some(rest) => parse_metrics(rest, &units)?,
            None => Vec::new(),
        };
        Some(ChildResult { correct, attempted, failed, metrics, counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: extrapolated.
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let result = ChildResult {
            correct: true,
            attempted: 1_000,
            failed: 0,
            metrics: vec![
                Metric::new("pps", 283_019.867_924_528_3, "packets/s"),
                Metric::new("setup_s", 0.812_7, "s"),
            ],
            counts: vec![
                Metric::new("detector.alerts", 4_711.0, "count"),
                Metric::new("core.f1", 0.123_456_789_012_345_68, "ratio"),
            ],
        };
        let line = result.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(!line.contains("counts"), "the result line has exactly the contract's keys");
        let units = |name: &str| match name {
            "pps" => Some("packets/s"),
            "setup_s" | "detector.fit_s" => Some("s"),
            "detector.alerts" => Some("count"),
            "core.f1" => Some("ratio"),
            _ => None,
        };
        let stdout = format!("{{\"fingerprint\":{{}}}}\n{}\n{line}\n", result.counts_json());
        assert_eq!(ChildResult::parse(&stdout, units), Some(result.clone()));
        let bare = ChildResult { counts: Vec::new(), ..result };
        assert_eq!(ChildResult::parse(&line, units), Some(bare));
        // A broken measurement reads as broken, never as a valid 0.
        let broken = ChildResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("pps", f64::NAN, "packets/s")],
            counts: Vec::new(),
        };
        assert!(broken.to_json().contains("\"value\": null"));
        assert_eq!(ChildResult::parse(&broken.to_json(), units), None);
    }
}
