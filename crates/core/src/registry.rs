//! The paper's survey tables as data.
//!
//! Table I (IDSs investigated with inclusion/exclusion outcomes), Table II
//! (datasets used), and Table III (datasets examined but excluded) are part
//! of the paper's contribution — they document *why* only four of fifteen
//! systems could be evaluated at all. This module carries them as typed
//! records with Markdown renderers so the bench harness can regenerate each
//! table verbatim.

use std::fmt::Write as _;

use crate::dataset::DatasetInfo;

/// Where an IDS came from (Table I "Source" column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdsSource {
    /// Peer-reviewed venue (conference or journal name).
    Academic(String),
    /// Public repository without an attached paper.
    Repository,
}

/// Why an IDS was excluded, or confirmation it was used (Table I last
/// column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsabilityOutcome {
    /// Selected and evaluated in the study.
    UsedInPaper,
    /// Excluded with the recorded reason.
    Excluded(String),
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdsEntry {
    /// System name as printed in the paper.
    pub name: String,
    /// Publication/release year.
    pub year: u16,
    /// Dataset(s) the original work evaluated on.
    pub dataset: String,
    /// Source venue or repository.
    pub source: IdsSource,
    /// Usability outcome.
    pub outcome: UsabilityOutcome,
}

impl IdsEntry {
    /// Whether this system made it into the evaluation.
    pub fn included(&self) -> bool {
        self.outcome == UsabilityOutcome::UsedInPaper
    }
}

fn entry(
    name: &str,
    year: u16,
    dataset: &str,
    source: IdsSource,
    outcome: UsabilityOutcome,
) -> IdsEntry {
    IdsEntry { name: name.into(), year, dataset: dataset.into(), source, outcome }
}

/// Table I: every NIDS the study investigated, with the recorded usability
/// outcome.
pub fn investigated_ids() -> Vec<IdsEntry> {
    use IdsSource::{Academic, Repository};
    use UsabilityOutcome::{Excluded, UsedInPaper};
    vec![
        entry("Deep Neural Network (DNN)", 2018, "KDDCup-'99'", Academic("Conference: ICCCNT".into()), UsedInPaper),
        entry("Kitsune", 2018, "Custom IoT Dataset", Academic("Conference: NDSS".into()), UsedInPaper),
        entry("HELAD", 2020, "CICIDS2017", Academic("Journal: MDPI Informatics".into()), UsedInPaper),
        entry(
            "Multiclass Classification",
            2020,
            "ASNM Datasets",
            Academic("Conference: DSAA".into()),
            Excluded("Vague dependencies in provided repository, \"ValueError on converting string to complex in ASNM-TUN.py\"".into()),
        ),
        entry("ARTEMIS", 2021, "Custom Dataset", Academic("Conference: LATINCOM".into()), Excluded("Code error".into())),
        entry(
            "Dense-Attention-LSTM, DAL",
            2021,
            "UNSW-NB15",
            Academic("Conference: IWCMC".into()),
            Excluded("Dependency errors".into()),
        ),
        entry(
            "I-SiamIDS",
            2021,
            "CICIDS, NSL-KDD",
            Academic("Journal: Applied Intelligence".into()),
            Excluded("Type error".into()),
        ),
        entry("SecureTea", 2021, "N/A", Repository, Excluded("Dependency errors".into())),
        entry(
            "AutoML",
            2022,
            "CICIDS2017, IoTID20",
            Academic("Journal: Engineering Applications of Artificial Intelligence".into()),
            Excluded("IDS code not provided".into()),
        ),
        entry(
            "Deep Belief Networks NIDS",
            2022,
            "CICIDS2017",
            Academic("Conference: SciSec".into()),
            Excluded("Invalidated by dependency errors in provided repository: \"Tensors found on two or more devices\"".into()),
        ),
        entry(
            "RIDS",
            2022,
            "Custom Dataset",
            Academic("Conference: GLOBECOM".into()),
            Excluded("Provided Out of memory".into()),
        ),
        entry("StratosphereIPS (Slips)", 2022, "N/A", Repository, UsedInPaper),
        entry(
            "IDS-ML",
            2022,
            "CICIDS2017",
            Academic("Journal: Software Impacts".into()),
            Excluded("Runtime errors".into()),
        ),
        entry(
            "xNIDS",
            2023,
            "Mirai, CICDoS2017, NSL-KDD",
            Academic("Conference: USENIX Security".into()),
            Excluded("Did not propose a directly usable NIDS, so was not appropriate.".into()),
        ),
        entry("Suricata", 2023, "N/A", Repository, Excluded("Unable to verify any use of ML".into())),
    ]
}

/// Table II: the five datasets used for evaluation.
pub fn selected_datasets() -> Vec<DatasetInfo> {
    vec![
        DatasetInfo::new(
            "CICIDS2017",
            "Includes traffic from various devices and operating systems. Labelled with 80 features over 5 days.",
            "Comprehensive range of attacks; ideal for evaluating modern IDSs due to diversity and extensive feature set.",
            2017,
        ),
        DatasetInfo::new(
            "UNSW-NB15",
            "Generated by ACCS with 49 features and 9 attack types over 2 days.",
            "Represents a wide spectrum of contemporary attack types, providing a broad base for IDS effectiveness testing.",
            2015,
        ),
        DatasetInfo::new(
            "Stratosphere IoT CTU",
            "Focuses on IoT network traffic, with realistic threat and behaviour representation.",
            "Essential for understanding IDS effectiveness in IoT environments due to its focus on realistic IoT-specific threats.",
            2020,
        ),
        DatasetInfo::new(
            "Mirai (Kitsune)",
            "Data specific to Mirai botnet attacks, used with the Kitsune IDS.",
            "Demonstrates significant Mirai threat in IoT, allowing for practical assessment of IDS capabilities against IoT botnets.",
            2018,
        ),
        DatasetInfo::new(
            "BoT-IoT & ToN-IoT",
            "Encompasses legitimate and emulated IoT network traffic.",
            "Offers a balanced view of IDS performance in IoT settings, serving as a robust alternative to the Kitsune dataset.",
            2021,
        ),
    ]
}

/// Table III: datasets examined but excluded, with the recorded reasons.
pub fn excluded_datasets() -> Vec<DatasetInfo> {
    vec![
        DatasetInfo::new(
            "KDD-Cup & NSL-KDD",
            "Historically significant but outdated, lacking pcap files.",
            "Not representative of current network behaviours; incompatible with selected IDSs due to lack of pcap files.",
            1999,
        ),
        DatasetInfo::new(
            "CAIDA",
            "Limited attack diversity and lacks full network data, unlabelled.",
            "Unable to train auto-encoders on the dataset due to lack of labelled results.",
            2019,
        ),
        DatasetInfo::new(
            "CIDDS",
            "Designed for anomaly-based network security.",
            "Not widely used in literature, suggesting potential limitations for analysis.",
            2017,
        ),
        DatasetInfo::new(
            "ISCX2012",
            "Older dataset without features.",
            "Due to lack of features, other datasets were determined to be more suitable.",
            2012,
        ),
        DatasetInfo::new(
            "CICIDS2019",
            "Modern DDoS Dataset containing a variety of DDoS attack types.",
            "Strong modern DDoS dataset, but was not chosen due to the specific nature of attacks when compared to more general datasets used.",
            2019,
        ),
        DatasetInfo::new(
            "Kyoto",
            "Realistic, unsimulated dataset derived from diverse honeypots.",
            "Offers a different perspective to generated datasets, but not highly cited.",
            2011,
        ),
        DatasetInfo::new(
            "LBNL",
            "Heavy anonymisation and absence of payload data.",
            "Limits the depth of analysis for IDSs, making it less favourable for in-depth IDS evaluation.",
            2005,
        ),
        DatasetInfo::new(
            "CICIDS2018",
            "Diverse traffic and heavy volume without specific pcaps.",
            "Only available as 250gb file, data wrangling complexity and volume make processing unwieldy.",
            2018,
        ),
        DatasetInfo::new(
            "ASNM Datasets",
            "NIDS anomaly-based datasets developed for machine learning.",
            "Attack diversity is limited and not as well-cited as many other options.",
            2020,
        ),
        DatasetInfo::new(
            "IoTID",
            "Newer IoT Dataset that aimed to target new IoT intrusion methods.",
            "Narrow dataset that is not as popular as the other chosen IoT datasets.",
            2020,
        ),
        DatasetInfo::new(
            "CICDOS2017",
            "DoS Dataset generated by CIC based on the ISCX dataset.",
            "Narrow dataset without attack diversity of CIC dataset from the same year.",
            2017,
        ),
    ]
}

/// Renders Table I as Markdown.
pub fn render_table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| NIDS | Year | Dataset | Source | Usability/Issues |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for e in investigated_ids() {
        let source = match &e.source {
            IdsSource::Academic(venue) => venue.clone(),
            IdsSource::Repository => "GitHub".to_string(),
        };
        let outcome = match &e.outcome {
            UsabilityOutcome::UsedInPaper => "Used in Paper".to_string(),
            UsabilityOutcome::Excluded(reason) => reason.clone(),
        };
        let _ =
            writeln!(out, "| {} | {} | {} | {} | {} |", e.name, e.year, e.dataset, source, outcome);
    }
    out
}

/// Renders Table II (datasets used) as Markdown.
pub fn render_table2() -> String {
    render_dataset_table(&selected_datasets(), "Relevance and Reason for Selection")
}

/// Renders Table III (datasets excluded) as Markdown.
pub fn render_table3() -> String {
    render_dataset_table(&excluded_datasets(), "Relevance and Reason for Exclusion")
}

fn render_dataset_table(rows: &[DatasetInfo], last_column: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| Dataset | Characteristics | {last_column} |");
    let _ = writeln!(out, "|---|---|---|");
    for d in rows {
        let _ = writeln!(out, "| {} | {} | {} |", d.name, d.characteristics, d.relevance);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_15_systems_4_included() {
        let entries = investigated_ids();
        assert_eq!(entries.len(), 15);
        let included: Vec<&IdsEntry> = entries.iter().filter(|e| e.included()).collect();
        assert_eq!(included.len(), 4);
        let names: Vec<&str> = included.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"Kitsune"));
        assert!(names.contains(&"HELAD"));
        assert!(names.contains(&"Deep Neural Network (DNN)"));
        assert!(names.contains(&"StratosphereIPS (Slips)"));
    }

    #[test]
    fn table2_has_5_rows_table3_has_11() {
        assert_eq!(selected_datasets().len(), 5);
        // The paper's Table III merges KDD-Cup & NSL-KDD into one row, and
        // BoT-IoT & ToN-IoT appear merged in Table II — so 11 exclusion rows.
        assert_eq!(excluded_datasets().len(), 11);
    }

    #[test]
    fn renderers_emit_markdown_tables() {
        for table in [render_table1(), render_table2(), render_table3()] {
            let mut lines = table.lines();
            assert!(lines.next().unwrap().starts_with('|'));
            assert!(lines.next().unwrap().starts_with("|---"));
            assert!(lines.next().is_some());
        }
    }

    #[test]
    fn excluded_reasons_are_recorded() {
        let entries = investigated_ids();
        let suricata = entries.iter().find(|e| e.name == "Suricata").unwrap();
        assert!(matches!(&suricata.outcome, UsabilityOutcome::Excluded(r) if r.contains("ML")));
    }
}
