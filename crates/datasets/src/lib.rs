//! Datasets and query workloads for the experiments.
//!
//! The paper evaluates on public SNAP/Arenas graphs, SteinLib benchmarks,
//! a BioGrid PPI network, and a Twitter #kdd2014 graph — none of which are
//! redistributable inside this repository. Instead, this crate generates
//! deterministic *stand-ins* with matched size and family:
//!
//! * [`realworld`] — Table 1 stand-ins (matched `|V|`, `|E|`, generator
//!   family, ground-truth communities where the original has them);
//! * [`workloads`] — random query sets with controlled size and average
//!   pairwise distance (§6.1), plus same-community / different-community
//!   workloads (§6.4);
//! * [`steiner_benchmarks`] — `puc`-like (hypercube) and `vienna`-like
//!   (road-grid) instances with predefined terminal sets (§6.5);
//! * [`labeled`], [`ppi`], [`twitter`] — the case-study networks of §7;
//! * [`karate`] — re-export of Zachary's karate club (Figure 1).
//!
//! Everything is seeded: the same binary reproduces the same numbers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod labeled;
pub mod ppi;
pub mod realworld;
pub mod steiner_benchmarks;
pub mod stp;
pub mod twitter;
pub mod workloads;

/// Re-export of the karate-club generators (the Figure 1 example lives in
/// `mwc-graph` because the graph tests use it too).
pub mod karate {
    pub use mwc_graph::generators::karate::*;
}

pub use labeled::LabeledGraph;
pub use realworld::{standin, standin_scaled, StandIn, STAND_INS};
pub use steiner_benchmarks::{puc_like, vienna_like, BenchmarkInstance};
pub use stp::{parse_stp, write_stp, StpError, StpParse};
pub use workloads::{QuerySet, WorkloadConfig};
