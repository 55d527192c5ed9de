use crate::label::LabeledPacket;

/// Metadata describing a dataset, mirroring the columns of the paper's
/// Tables II and III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Canonical short name (e.g. `"UNSW-NB15"`).
    pub name: String,
    /// Characteristics column from Table II/III.
    pub characteristics: String,
    /// Relevance / reason for selection (or exclusion) column.
    pub relevance: String,
    /// Year of publication of the real dataset this scenario models.
    pub year: u16,
}

impl DatasetInfo {
    /// Creates dataset metadata.
    pub fn new(
        name: impl Into<String>,
        characteristics: impl Into<String>,
        relevance: impl Into<String>,
        year: u16,
    ) -> Self {
        DatasetInfo {
            name: name.into(),
            characteristics: characteristics.into(),
            relevance: relevance.into(),
            year,
        }
    }
}

/// A source of labeled traffic for the evaluation pipeline.
///
/// Implementations must be deterministic in `seed`: the same seed yields the
/// same packet stream, which is what makes every experiment in this
/// workspace reproducible. Packets should be emitted roughly in timestamp
/// order; the preprocessing pipeline re-sorts (Section IV-A step 2) exactly
/// as the paper does after sampling.
pub trait Dataset: Send + Sync {
    /// Dataset metadata (name, characteristics, selection rationale).
    fn info(&self) -> &DatasetInfo;

    /// Generates the full labeled packet stream for this dataset.
    fn generate(&self, seed: u64) -> Vec<LabeledPacket>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use idsbench_net::{Packet, Timestamp};

    /// A minimal in-memory dataset used by pipeline unit tests.
    #[derive(Debug)]
    struct Fixed {
        info: DatasetInfo,
    }

    impl Dataset for Fixed {
        fn info(&self) -> &DatasetInfo {
            &self.info
        }

        fn generate(&self, seed: u64) -> Vec<LabeledPacket> {
            (0..10)
                .map(|i| {
                    LabeledPacket::new(
                        Packet::new(Timestamp::from_micros(seed + i), vec![0u8; 60]),
                        Label::Benign,
                    )
                })
                .collect()
        }
    }

    #[test]
    fn trait_object_usable() {
        let dataset: Box<dyn Dataset> =
            Box::new(Fixed { info: DatasetInfo::new("fixed", "ten packets", "unit test", 2024) });
        assert_eq!(dataset.info().name, "fixed");
        assert_eq!(dataset.generate(5).len(), 10);
        // Determinism in seed.
        assert_eq!(dataset.generate(7)[0].packet.ts, dataset.generate(7)[0].packet.ts);
    }
}
