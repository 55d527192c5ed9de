//! Renderers reproducing the paper's table layouts.
//!
//! [`render_table4`] prints the performance grid in the exact shape of the
//! paper's Table IV: one block per IDS, one row per dataset, an `Average:`
//! row per block, the column-wide maximum of each metric **bolded**, and the
//! best F1 per dataset marked (the paper uses blue text; we use a `†`
//! suffix).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::Metrics;
use crate::runner::Experiment;

/// One elastic-sharding action taken by a streaming run's autoscaler: the
/// shard pool grew or shrank, and consistent-hash flow ownership was
/// rebalanced accordingly.
///
/// Recorded by the streaming executor (`idsbench-stream`) in its
/// `StreamReport`, so scale behaviour is a first-class evaluation output
/// next to detection quality — the paper's point that the harness itself is
/// part of what is being measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleEvent {
    /// Arrival index of the first packet routed under the new ring.
    pub seq: u64,
    /// Traffic-timeline seconds of that packet.
    pub at_secs: f64,
    /// Metrics-window index whose rate triggered the decision.
    pub window: u64,
    /// Shard count before the action.
    pub from_shards: usize,
    /// Shard count after the action.
    pub to_shards: usize,
    /// Windowed event rate (events/sec of traffic time) that fired the
    /// policy.
    pub trigger_pps: f64,
    /// Flow-state entries (open records and/or label-fold entries) whose
    /// ring ownership moved in the rebalance.
    pub migrated_flows: usize,
    /// Wall-clock microseconds the drain + migrate barrier took — the
    /// rebalance latency.
    pub rebalance_micros: u64,
}

impl ScaleEvent {
    /// Whether this event grew the pool.
    pub fn is_scale_up(&self) -> bool {
        self.to_shards > self.from_shards
    }

    /// Whether this event shrank the pool.
    pub fn is_scale_down(&self) -> bool {
        self.to_shards < self.from_shards
    }

    /// Hand-rolled JSON object for this event — the single encoding shared
    /// by the stream report's `scale_events` array and the telemetry
    /// journal, so the two outputs join byte-for-byte. Integral floats
    /// print without a fraction; non-finite values encode as `null`.
    pub fn to_json(&self) -> String {
        crate::json::num_object(&[
            ("seq", self.seq as f64),
            ("at_secs", self.at_secs),
            ("window", self.window as f64),
            ("from_shards", self.from_shards as f64),
            ("to_shards", self.to_shards as f64),
            ("trigger_pps", self.trigger_pps),
            ("migrated_flows", self.migrated_flows as f64),
            ("rebalance_micros", self.rebalance_micros as f64),
        ])
    }
}

/// Renders the Table IV layout as Markdown (see module docs).
///
/// Experiments must be detector-major ordered, as produced by
/// [`crate::runner::run_grid`]. Returns an empty table for no input.
pub fn render_table4(experiments: &[Experiment]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| Dataset | Acc. | Prec. | Rec. | F1 |");
    let _ = writeln!(out, "|---|---|---|---|---|");

    // Column-wide maxima (over every row of every block, as in the paper).
    let max = fold_metrics(experiments.iter().map(|e| e.metrics));

    // Best F1 per dataset across detectors.
    let mut best_f1: BTreeMap<&str, f64> = BTreeMap::new();
    for e in experiments {
        let best = best_f1.entry(e.dataset.as_str()).or_insert(f64::NEG_INFINITY);
        *best = best.max(e.metrics.f1);
    }

    let row = |out: &mut String, label: &str, m: &Metrics, mark: &str| {
        let _ = writeln!(
            out,
            "| {label} | {} | {} | {} | {}{mark} |",
            fmt_cell(m.accuracy, max.accuracy),
            fmt_cell(m.precision, max.precision),
            fmt_cell(m.recall, max.recall),
            fmt_cell(m.f1, max.f1),
        );
    };
    for block in detector_blocks(experiments) {
        let _ = writeln!(out, "| **IDS: {}** | | | | |", block[0].detector);
        for e in block {
            let mark = if e.metrics.f1 >= best_f1[e.dataset.as_str()] { " †" } else { "" };
            row(&mut out, &e.dataset, &e.metrics, mark);
        }
        row(&mut out, "*Average:*", &block_mean(block), "");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "**Bold**: highest value of all IDSs for the metric column.");
    let _ = writeln!(out, "†: highest F1 score of all IDSs for the dataset.");
    out
}

/// `experiments` cut into runs of one detector: the blocks of Table IV.
fn detector_blocks(experiments: &[Experiment]) -> impl Iterator<Item = &[Experiment]> {
    let mut rest = experiments;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let (block, tail) =
            rest.split_at(rest.iter().take_while(|e| e.detector == first.detector).count());
        rest = tail;
        Some(block)
    })
}

/// A block's "Average:" row.
fn block_mean(block: &[Experiment]) -> Metrics {
    Metrics::mean(&block.iter().map(|e| e.metrics).collect::<Vec<_>>())
}

fn fold_metrics(metrics: impl Iterator<Item = Metrics>) -> Metrics {
    metrics.fold(Metrics::default(), |acc, m| Metrics {
        accuracy: acc.accuracy.max(m.accuracy),
        precision: acc.precision.max(m.precision),
        recall: acc.recall.max(m.recall),
        f1: acc.f1.max(m.f1),
    })
}

fn fmt_cell(value: f64, column_max: f64) -> String {
    if value >= column_max && column_max > 0.0 {
        format!("**{value:.4}**")
    } else {
        format!("{value:.4}")
    }
}

/// Renders the per-attack-family recall breakdown as Markdown: one row per
/// family, one column per detector, for a single dataset's experiments.
/// This is the "attack types" axis of the paper's Section V discussion.
pub fn render_family_breakdown(dataset: &str, experiments: &[Experiment]) -> String {
    let rows: Vec<&Experiment> = experiments.iter().filter(|e| e.dataset == dataset).collect();
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    let mut families: Vec<&str> =
        rows.iter().flat_map(|e| e.family_recall.iter().map(|f| f.family.as_str())).collect();
    families.sort_unstable();
    families.dedup();

    let _ = write!(out, "| Family (items) |");
    for e in &rows {
        let _ = write!(out, " {} |", e.detector);
    }
    let _ = writeln!(out);
    let _ = write!(out, "|---|");
    for _ in &rows {
        let _ = write!(out, "---|");
    }
    let _ = writeln!(out);
    for family in families {
        let count = rows
            .iter()
            .find_map(|e| e.family_recall.iter().find(|f| f.family == family).map(|f| f.items()))
            .unwrap_or(0);
        let _ = write!(out, "| {family} ({count}) |");
        for e in &rows {
            let _ = match e.family_recall.iter().find(|f| f.family == family) {
                Some(f) => write!(out, " {:.3} |", f.recall),
                None => write!(out, " – |"),
            };
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders experiments as CSV with full diagnostics (one row per cell),
/// ending with the attack packets and flows each cell trained on.
pub fn render_csv(experiments: &[Experiment]) -> String {
    let mut out = String::from(
        "detector,dataset,accuracy,precision,recall,f1,threshold,eval_items,attack_share,auc,fpr,train_seconds,score_seconds,train_attack_packets,train_attack_flows\n",
    );
    for e in experiments {
        let _ = writeln!(
            out,
            "{},{},{:.6},{:.6},{:.6},{:.6},{:.6e},{},{:.6},{:.6},{:.6},{:.3},{:.3},{},{}",
            e.detector,
            e.dataset,
            e.metrics.accuracy,
            e.metrics.precision,
            e.metrics.recall,
            e.metrics.f1,
            e.threshold,
            e.eval_items,
            e.attack_share,
            e.auc,
            e.false_positive_rate,
            e.train_seconds,
            e.score_seconds,
            e.train.attack_packets,
            e.train.attack_flows,
        );
    }
    out
}

/// Renders a compact fixed-width console table (handy for examples).
pub fn render_console(experiments: &[Experiment]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<16} {:>8} {:>8} {:>8} {:>8}",
        "IDS", "Dataset", "Acc.", "Prec.", "Rec.", "F1"
    );
    let _ = writeln!(out, "{}", "-".repeat(66));
    let row = |out: &mut String, ids: &str, dataset: &str, m: Metrics| {
        let _ = writeln!(
            out,
            "{ids:<12} {dataset:<16} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
            m.accuracy, m.precision, m.recall, m.f1
        );
    };
    for block in detector_blocks(experiments) {
        for e in block {
            row(&mut out, &e.detector, &e.dataset, e.metrics);
        }
        row(&mut out, "", "Average:", block_mean(block));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment(detector: &str, dataset: &str, f1: f64) -> Experiment {
        Experiment {
            detector: detector.to_string(),
            dataset: dataset.to_string(),
            assessment: crate::metrics::Assessment {
                threshold: 0.5,
                metrics: Metrics { accuracy: 0.9, precision: 0.8, recall: 0.7, f1 },
                false_positive_rate: 0.05,
                auc: 0.9,
                eval_items: 100,
                attack_share: 0.2,
                family_recall: vec![outcome("syn-flood", 0.9, 100)],
            },
            train: crate::runner::TrainMix {
                packets: 40,
                attack_packets: 3,
                flows: 6,
                attack_flows: 1,
            },
            train_seconds: 0.08,
            score_seconds: 0.02,
        }
    }

    fn outcome(family: &str, recall: f64, packets: usize) -> crate::metrics::FamilyOutcome {
        crate::metrics::FamilyOutcome {
            family: family.to_string(),
            recall,
            alerts: (packets as f64 * recall).round() as usize,
            packets,
            flows: 0,
        }
    }

    #[test]
    fn table4_contains_blocks_and_averages() {
        let experiments = vec![
            experiment("Kitsune", "UNSW-NB15", 0.5),
            experiment("Kitsune", "Mirai", 0.9),
            experiment("DNN", "UNSW-NB15", 0.95),
            experiment("DNN", "Mirai", 0.6),
        ];
        let table = render_table4(&experiments);
        assert!(table.contains("**IDS: Kitsune**"));
        assert!(table.contains("**IDS: DNN**"));
        assert_eq!(table.matches("*Average:*").count(), 2);
        // Best per dataset markers: DNN wins UNSW, Kitsune wins Mirai.
        let lines: Vec<&str> = table.lines().collect();
        let kitsune_mirai = lines.iter().find(|l| l.starts_with("| Mirai")).unwrap();
        assert!(kitsune_mirai.contains('†'));
    }

    #[test]
    fn column_max_is_bolded() {
        let experiments = vec![experiment("A", "d1", 0.2), experiment("B", "d1", 0.9)];
        let table = render_table4(&experiments);
        assert!(table.contains("**0.9000**"));
        // 0.2 must not be bolded.
        assert!(!table.contains("**0.2000**"));
    }

    #[test]
    fn family_breakdown_renders_per_detector_columns() {
        let mut a = experiment("A", "d1", 0.5);
        a.assessment.family_recall =
            vec![outcome("syn-flood", 0.9, 50), outcome("stealth", 0.1, 10)];
        let mut b = experiment("B", "d1", 0.6);
        b.assessment.family_recall = vec![outcome("syn-flood", 0.4, 50)];
        let table = render_family_breakdown("d1", &[a, b]);
        assert!(table.contains("| syn-flood (50) | 0.900 | 0.400 |"), "{table}");
        assert!(table.contains("| stealth (10) | 0.100 | – |"), "{table}");
        assert!(render_family_breakdown("unknown", &[]).is_empty());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let experiments = vec![experiment("A", "d1", 0.5)];
        let csv = render_csv(&experiments);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().ends_with(",train_attack_packets,train_attack_flows"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("A,d1,") && row.ends_with(",3,1"), "{row}");
    }

    #[test]
    fn console_table_renders_all_rows() {
        let experiments = vec![experiment("A", "d1", 0.5), experiment("A", "d2", 0.6)];
        let text = render_console(&experiments);
        assert!(text.contains("d1"));
        assert!(text.contains("d2"));
        assert!(text.contains("Average:"));
    }

    #[test]
    fn empty_input_renders_cleanly() {
        let table = render_table4(&[]);
        assert!(table.contains("| Dataset |"));
        assert!(render_csv(&[]).starts_with("detector,"));
    }

    #[test]
    fn scale_event_json_is_stable() {
        let event = ScaleEvent {
            seq: 30,
            at_secs: 1.5,
            window: 2,
            from_shards: 1,
            to_shards: 2,
            trigger_pps: 4000.0,
            migrated_flows: 3,
            rebalance_micros: 250,
        };
        assert_eq!(
            event.to_json(),
            "{\"seq\":30,\"at_secs\":1.5,\"window\":2,\"from_shards\":1,\"to_shards\":2,\
             \"trigger_pps\":4000,\"migrated_flows\":3,\"rebalance_micros\":250}"
        );
    }
}
