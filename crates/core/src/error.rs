//! Error type for the solver crate.

use std::fmt;

use mwc_graph::GraphError;

/// Convenience alias for `Result<T, CoreError>`.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors produced by the Wiener-connector solvers.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// The query set is empty.
    EmptyQuery,
    /// The query vertices do not lie in a single connected component, so no
    /// connector exists.
    QueryNotConnectable,
    /// An underlying graph error (e.g. a query vertex out of range).
    Graph(GraphError),
    /// The instance exceeds a solver-specific limit (e.g. the exact
    /// enumeration solver only handles graphs with at most 64 vertices).
    UnsupportedInstance {
        /// Description of the violated limit.
        what: String,
    },
    /// An error from the LP/MIP machinery backing the §5 bounds.
    Lp(mwc_lp::LpError),
    /// A [`QueryEngine`](crate::engine::QueryEngine) lookup named a solver
    /// that is not registered.
    UnknownSolver {
        /// The requested registry key.
        requested: String,
        /// The registered keys, deterministically sorted.
        available: Vec<String>,
    },
    /// The solution exceeded the size budget set via
    /// [`QueryOptions::max_connector_size`](crate::engine::QueryOptions::max_connector_size).
    BudgetExceeded {
        /// Size of the connector the solver produced.
        size: usize,
        /// The configured budget it violated.
        budget: usize,
    },
    /// The solver panicked while solving this query. The
    /// [`QueryEngine`](crate::engine::QueryEngine) contains the panic to
    /// the query's own job; the engine keeps serving.
    SolverPanicked {
        /// Registry name of the solver that panicked.
        solver: String,
        /// The panic's message.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyQuery => write!(f, "query set is empty"),
            CoreError::QueryNotConnectable => {
                write!(
                    f,
                    "query vertices span multiple connected components; no connector exists"
                )
            }
            CoreError::Graph(e) => write!(f, "{e}"),
            CoreError::UnsupportedInstance { what } => write!(f, "unsupported instance: {what}"),
            CoreError::Lp(e) => write!(f, "lp solver: {e}"),
            CoreError::UnknownSolver {
                requested,
                available,
            } => write!(
                f,
                "no solver registered under {requested:?} (available: {})",
                available.join(", ")
            ),
            CoreError::BudgetExceeded { size, budget } => write!(
                f,
                "connector has {size} vertices, exceeding the size budget of {budget}"
            ),
            CoreError::SolverPanicked { solver, message } => {
                write!(f, "solver {solver:?} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<mwc_lp::LpError> for CoreError {
    fn from(e: mwc_lp::LpError) -> Self {
        CoreError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(CoreError::EmptyQuery.to_string().contains("empty"));
        assert!(CoreError::QueryNotConnectable
            .to_string()
            .contains("component"));
        let e: CoreError = GraphError::Disconnected.into();
        assert!(matches!(e, CoreError::Graph(_)));
    }
}
