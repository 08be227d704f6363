//! Service-level errors and their wire-protocol error codes.

use std::fmt;

use mwc_core::CoreError;

/// Convenience alias for `Result<T, ServiceError>`.
pub type Result<T> = std::result::Result<T, ServiceError>;

/// Everything that can go wrong between reading a request line and
/// writing its response. Each variant maps to a stable wire `code` (see
/// [`ServiceError::code`]) so clients can branch without parsing
/// human-oriented messages.
#[derive(Debug)]
pub enum ServiceError {
    /// The request line was not valid JSON, or was missing/mistyping a
    /// required field.
    BadRequest(String),
    /// The request named a graph the catalog has not loaded.
    UnknownGraph {
        /// The requested catalog name.
        requested: String,
        /// Names currently loaded, sorted.
        loaded: Vec<String>,
    },
    /// A graph source spec failed to parse or load.
    BadSource(String),
    /// The admission queue was full: the server sheds the request instead
    /// of letting latency collapse for everyone.
    Overloaded {
        /// Configured queue capacity that was exhausted.
        queue_capacity: usize,
    },
    /// The server is at its concurrent-connection limit; the connection
    /// is refused after one error line. Its own wire code
    /// (`too_many_connections`) so operators can tell connection-limit
    /// shedding from queue shedding, but retryable exactly like
    /// [`ServiceError::Overloaded`] — clients back off identically.
    TooManyConnections {
        /// Configured connection limit that was reached.
        limit: usize,
    },
    /// The request carried a `"v"` protocol version this server does not
    /// speak. Stable code (`unsupported_version`) and NOT retryable: the
    /// same request will fail the same way until the client downgrades.
    UnsupportedVersion {
        /// The version the request asked for.
        requested: u64,
        /// The version this server speaks.
        supported: u64,
    },
    /// The request's deadline expired while it was still queued, so the
    /// solve was never started.
    DeadlineExceeded {
        /// Milliseconds the request spent queued before being dropped.
        queued_ms: u64,
    },
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// The graph was evicted (or replaced by a `load`) while the request
    /// was waiting in its coalescing queue, so the solve never ran.
    /// Stable and retryable: the entry the request was parked on is gone,
    /// but a retry resolves the catalog afresh — it either finds the
    /// replacement entry or gets a definitive `unknown_graph`.
    GraphEvicted {
        /// Catalog name of the evicted graph.
        name: String,
    },
    /// A router could not reach the backend shard that owns the requested
    /// resource (dead process, refused connection, broken pipe, ejected by
    /// health tracking). Stable and retryable: clients back off and retry
    /// — the shard may be restarting or the ring resharding.
    ShardUnavailable {
        /// Ring name of the unreachable shard.
        shard: String,
        /// What failed (connect refused, read error, ejected, …).
        reason: String,
    },
    /// A server-side fault cost this one request: the work answering it
    /// panicked, so its response was dropped unanswered. Stable code
    /// `internal`, NOT retryable — the same request may fault the same
    /// way.
    Internal(String),
    /// An error from the solving layer (unknown solver, infeasible query,
    /// budget exceeded, …).
    Core(CoreError),
    /// An I/O failure while loading a graph from disk.
    Io(std::io::Error),
}

impl ServiceError {
    /// The stable machine-readable error code carried in error responses.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::BadRequest(_) => "bad_request",
            ServiceError::UnknownGraph { .. } => "unknown_graph",
            ServiceError::BadSource(_) => "bad_source",
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::TooManyConnections { .. } => "too_many_connections",
            ServiceError::UnsupportedVersion { .. } => "unsupported_version",
            ServiceError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServiceError::ShuttingDown => "shutting_down",
            ServiceError::GraphEvicted { .. } => "graph_evicted",
            ServiceError::ShardUnavailable { .. } => "shard_unavailable",
            ServiceError::Internal(_) => "internal",
            ServiceError::Core(e) => match e {
                CoreError::UnknownSolver { .. } => "unknown_solver",
                CoreError::BudgetExceeded { .. } => "budget_exceeded",
                CoreError::EmptyQuery
                | CoreError::QueryNotConnectable
                | CoreError::Graph(_)
                | CoreError::UnsupportedInstance { .. } => "infeasible",
                _ => "internal",
            },
            ServiceError::Io(_) => "io",
        }
    }

    /// Whether a client may expect the *same* request to succeed on
    /// retry (after backoff): transient capacity and topology conditions
    /// are retryable, semantic failures are not. This is the server-side
    /// source of truth for the `"retryable"` field on wire error objects
    /// — clients branch on [`crate::client::WireError::is_retryable`]
    /// instead of matching code strings.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ServiceError::Overloaded { .. }
                | ServiceError::TooManyConnections { .. }
                | ServiceError::GraphEvicted { .. }
                | ServiceError::ShardUnavailable { .. }
        )
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::UnknownGraph { requested, loaded } => write!(
                f,
                "no graph loaded under {requested:?} (loaded: {})",
                loaded.join(", ")
            ),
            ServiceError::BadSource(m) => write!(f, "bad graph source: {m}"),
            ServiceError::Overloaded { queue_capacity } => write!(
                f,
                "server overloaded: admission queue of {queue_capacity} is full"
            ),
            ServiceError::TooManyConnections { limit } => {
                write!(f, "connection limit {limit} reached")
            }
            ServiceError::UnsupportedVersion {
                requested,
                supported,
            } => write!(
                f,
                "protocol version {requested} not supported (this server speaks v{supported})"
            ),
            ServiceError::DeadlineExceeded { queued_ms } => write!(
                f,
                "deadline expired after {queued_ms} ms in the queue; solve not started"
            ),
            ServiceError::ShuttingDown => write!(f, "server is shutting down"),
            ServiceError::GraphEvicted { name } => write!(
                f,
                "graph {name:?} was evicted while the request was queued; retry"
            ),
            ServiceError::ShardUnavailable { shard, reason } => {
                write!(f, "shard {shard:?} unavailable: {reason}")
            }
            ServiceError::Internal(m) => write!(f, "internal error: {m}"),
            ServiceError::Core(e) => write!(f, "{e}"),
            ServiceError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Core(e) => Some(e),
            ServiceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(ServiceError::BadRequest("x".into()).code(), "bad_request");
        assert_eq!(
            ServiceError::Overloaded { queue_capacity: 4 }.code(),
            "overloaded"
        );
        assert_eq!(
            ServiceError::Core(CoreError::EmptyQuery).code(),
            "infeasible"
        );
        assert_eq!(
            ServiceError::Core(CoreError::UnknownSolver {
                requested: "x".into(),
                available: vec![],
            })
            .code(),
            "unknown_solver"
        );
        assert_eq!(
            ServiceError::Core(CoreError::BudgetExceeded { size: 9, budget: 4 }).code(),
            "budget_exceeded"
        );
        assert_eq!(
            ServiceError::ShardUnavailable {
                shard: "s0".into(),
                reason: "connection refused".into(),
            }
            .code(),
            "shard_unavailable"
        );
        assert_eq!(
            ServiceError::GraphEvicted { name: "g".into() }.code(),
            "graph_evicted"
        );
        assert_eq!(
            ServiceError::TooManyConnections { limit: 2 }.code(),
            "too_many_connections"
        );
        assert_eq!(
            ServiceError::UnsupportedVersion {
                requested: 9,
                supported: 1,
            }
            .code(),
            "unsupported_version"
        );
        assert_eq!(ServiceError::Internal("x".into()).code(), "internal");
    }

    #[test]
    fn retryable_marks_transient_conditions_only() {
        assert!(ServiceError::Overloaded { queue_capacity: 4 }.retryable());
        assert!(ServiceError::TooManyConnections { limit: 2 }.retryable());
        assert!(ServiceError::GraphEvicted { name: "g".into() }.retryable());
        assert!(ServiceError::ShardUnavailable {
            shard: "s0".into(),
            reason: "refused".into(),
        }
        .retryable());

        assert!(!ServiceError::BadRequest("x".into()).retryable());
        assert!(!ServiceError::ShuttingDown.retryable());
        assert!(!ServiceError::DeadlineExceeded { queued_ms: 5 }.retryable());
        assert!(!ServiceError::UnsupportedVersion {
            requested: 9,
            supported: 1,
        }
        .retryable());
        assert!(!ServiceError::Core(CoreError::EmptyQuery).retryable());
        assert!(!ServiceError::Internal("x".into()).retryable());
    }
}
