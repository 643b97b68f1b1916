//! Error types for the serving layer.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Errors surfaced to submitters and operators of a [`crate::Server`].
///
/// `Clone` on purpose: one model-side failure during a flush must be
/// delivered to every query of that batch.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// A query's dimensionality does not match the served model's.
    DimensionMismatch {
        /// The model's hypervector dimensionality `D`.
        expected: usize,
        /// The submitted query's length.
        found: usize,
    },
    /// The server was shut down before (or while) the query was answered.
    Shutdown,
    /// The model rejected the batch during a flush; every query of the
    /// batch receives this error.
    Model {
        /// The model-side failure, stringified (the concrete error types
        /// differ per adapted crate).
        reason: String,
    },
    /// A configuration value was rejected.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// The submitter's deadline expired while another thread was still
    /// flushing the query's batch. The query itself is **not** lost: that
    /// flush still computes and records its answer server-side; only this
    /// waiter gave up.
    Timeout,
    /// The server is at its configured in-flight limit
    /// ([`crate::ServeConfig::max_in_flight`]) and shed the query at
    /// admission. Nothing was enqueued; the submitter may retry later.
    Overloaded,
    /// A packed wire payload was rejected before enqueueing — its words
    /// do not form whole `D`-bit queries (see
    /// [`crate::Server::submit_packed`]). Nothing was enqueued; client
    /// input must surface as a typed error, never a panic.
    MalformedPayload {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DimensionMismatch { expected, found } => {
                write!(f, "query length {found} does not match model dimensionality {expected}")
            }
            ServeError::Shutdown => write!(f, "server shut down"),
            ServeError::Model { reason } => write!(f, "model error during flush: {reason}"),
            ServeError::InvalidConfig { reason } => write!(f, "invalid serve config: {reason}"),
            ServeError::Timeout => write!(f, "deadline expired before the batch was answered"),
            ServeError::Overloaded => {
                write!(f, "server at in-flight capacity; query shed at admission")
            }
            ServeError::MalformedPayload { reason } => {
                write!(f, "malformed packed payload: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = ServeError::DimensionMismatch { expected: 128, found: 64 };
        assert!(e.to_string().contains("128"));
        assert!(ServeError::Shutdown.to_string().contains("shut down"));
        assert!(ServeError::Model { reason: "x".into() }.to_string().contains('x'));
        assert!(ServeError::InvalidConfig { reason: "y".into() }.to_string().contains('y'));
        assert!(ServeError::Timeout.to_string().contains("deadline"));
        assert!(ServeError::Overloaded.to_string().contains("capacity"));
        assert!(ServeError::MalformedPayload { reason: "z".into() }.to_string().contains('z'));
    }

    #[test]
    fn error_is_send_sync_clone() {
        fn assert_bounds<T: Send + Sync + Clone>() {}
        assert_bounds::<ServeError>();
    }
}
