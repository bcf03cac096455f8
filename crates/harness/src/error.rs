//! Harness-level errors.

use crate::checkpoint::CheckpointError;

/// Errors from supervised runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HarnessError {
    /// A checkpoint could not be written, read, or trusted.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for HarnessError {
    fn from(e: CheckpointError) -> Self {
        HarnessError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_failure() {
        let e = HarnessError::from(CheckpointError::Schema {
            found: "bogus/9".into(),
        });
        assert!(e.to_string().contains("bogus/9"), "{e}");
    }

    #[test]
    fn checkpoint_errors_chain_as_source() {
        let e = HarnessError::from(CheckpointError::Schema {
            found: "bogus/9".into(),
        });
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("checkpoint failure"));
    }
}
