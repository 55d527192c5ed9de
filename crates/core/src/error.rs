use std::fmt;

/// Error type for the evaluation pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// A dataset produced no packets (or none survived preprocessing).
    EmptyDataset {
        /// Name of the offending dataset.
        dataset: String,
    },
    /// A detector returned the wrong number of scores for its input.
    ScoreCountMismatch {
        /// Name of the offending detector.
        detector: String,
        /// Items supplied.
        expected: usize,
        /// Scores returned.
        got: usize,
    },
    /// An invalid pipeline configuration value.
    InvalidConfig {
        /// Which parameter.
        what: &'static str,
        /// Description of the violation.
        detail: String,
    },
    /// A grid cell panicked — in its detector, or in the realisation of its
    /// dataset — and was abandoned; the grid's other cells still ran.
    CellPanicked {
        /// Registered name of the cell's detector.
        detector: String,
        /// Name of the cell's dataset.
        dataset: String,
        /// The panic message.
        detail: String,
    },
    /// A streaming run failed (packet source error or dead shard worker).
    Stream {
        /// Description of the failure.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyDataset { dataset } => {
                write!(f, "dataset {dataset:?} produced no evaluable items")
            }
            CoreError::ScoreCountMismatch { detector, expected, got } => {
                write!(f, "detector {detector:?} returned {got} scores for {expected} items")
            }
            CoreError::InvalidConfig { what, detail } => {
                write!(f, "invalid {what}: {detail}")
            }
            CoreError::CellPanicked { detector, dataset, detail } => {
                write!(f, "detector {detector:?} on dataset {dataset:?} panicked: {detail}")
            }
            CoreError::Stream { detail } => write!(f, "streaming run failed: {detail}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl CoreError {
    /// Convenience constructor for [`CoreError::InvalidConfig`].
    pub(crate) fn invalid(what: &'static str, detail: impl Into<String>) -> Self {
        CoreError::InvalidConfig { what, detail: detail.into() }
    }

    /// Convenience constructor for [`CoreError::Stream`], public so the
    /// streaming engine crate can raise pipeline errors of the same type.
    pub fn stream(detail: impl Into<String>) -> Self {
        CoreError::Stream { detail: detail.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let err = CoreError::EmptyDataset { dataset: "unsw".into() };
        assert_eq!(err.to_string(), "dataset \"unsw\" produced no evaluable items");
        let err =
            CoreError::ScoreCountMismatch { detector: "kitsune".into(), expected: 10, got: 9 };
        assert!(err.to_string().contains("9 scores for 10 items"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
