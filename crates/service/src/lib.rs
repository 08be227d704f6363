//! The serving subsystem: many graphs, one process, heavy query traffic.
//!
//! The paper's deployment story (§1, §7) is interactive — a fixed graph
//! answers a stream of small "connect this group" requests — which is the
//! shape of a query-serving system, not a batch experiment. This crate
//! turns the library-only [`QueryEngine`](mwc_core::QueryEngine) into
//! that system:
//!
//! * [`catalog`] — named graphs loaded once, each with an
//!   [`OwnedEngine`](mwc_core::OwnedEngine) (`Arc<Graph>`-backed, no
//!   borrowed data) so engines live as long as the process, not a stack
//!   frame;
//! * [`protocol`] — a newline-delimited JSON wire protocol
//!   (hand-rolled [`json`] — the workspace has no serde) with
//!   per-request ids, deadlines, and stable error codes;
//! * [`server`] — a std-only TCP server: the line frontend (one
//!   nonblocking epoll thread serves every connection, with pipelining
//!   and bounded write-buffer backpressure) feeds a fixed worker pool
//!   behind a *bounded* admission queue (full queue ⇒ explicit
//!   `overloaded` response), with end-to-end deadline accounting, a
//!   panic costing only its own response, and graceful drain on
//!   shutdown. Serving is Linux-only;
//! * [`coalesce`] — cross-request solve coalescing: per-graph flush
//!   windows pack concurrent solves into one shared
//!   [`solve_group`](mwc_core::QueryEngine::solve_group) execution that
//!   solves identical requests once and joins identical executions in
//!   flight, with deadline bypass, eviction abort
//!   (`graph_evicted`), and drain-before-ack on shutdown;
//! * [`metrics`] — request counters, queue gauges, per-solver and
//!   per-stage log₂ latency histograms, served by the `stats` command
//!   and as Prometheus text by the `metrics` command;
//! * [`trace`] — per-request span trees (`"trace": true` on
//!   `solve`/`batch`), the always-on slow-query ring (`slowlog`
//!   command), and trace-id propagation router → shard;
//! * [`client`] — a blocking client used by `mwc-client`, the load
//!   generator (`mwc_bench`'s `loadgen`), and the integration tests;
//! * [`shard`] — the deterministic consistent-hash ring (virtual nodes)
//!   that partitions the catalog **by graph name** across processes;
//! * [`router`] — `mwc-router`, the sharded front-end: the same line
//!   frontend and wire protocol, with relays (one per connection at a
//!   time) on threads started on demand; routes graph-addressed commands by ring lookup over
//!   pooled backend connections, fans batches out per shard (replies
//!   reassembled in request order), merges `stats`/`graphs`, tracks
//!   backend health (ejection + reprobe), and maps backend failure to
//!   the stable `shard_unavailable` code;
//! * [`client::RouterClient`] — the resharding-safe client wrapper that
//!   retries `shard_unavailable` with backoff.
//!
//! # Quickstart (in-process)
//!
//! ```
//! use std::sync::Arc;
//! use mwc_service::{catalog::Catalog, client::Client, server};
//!
//! let catalog = Arc::new(Catalog::new());
//! catalog.load("karate", "karate").unwrap();
//! let handle = server::start(
//!     catalog,
//!     server::ServerConfig::default(),
//!     "127.0.0.1:0", // ephemeral port
//! )
//! .unwrap();
//!
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let report = client.solve("karate", "ws-q", &[11, 24, 25, 29], None, None).unwrap();
//! assert!(report.connector.len() >= 4);
//! handle.shutdown(); // graceful: drains the queue, joins every thread
//! ```
//!
//! The `mwc-server` / `mwc-client` binaries wrap exactly this, over real
//! sockets; see the README's "Running the server" section for the
//! protocol grammar.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod client;
pub mod coalesce;
pub mod error;
mod event_loop;
pub mod json;
pub mod metrics;
#[cfg(target_os = "linux")]
pub mod net;
pub mod protocol;
pub mod router;
pub mod server;
pub mod shard;
pub mod trace;

pub use catalog::{Catalog, CatalogEntry, GraphSource};
pub use client::{
    Client, ClientError, GraphInfo, PipelinedClient, RouterClient, WireError, WireReport,
};
pub use coalesce::{CoalesceConfig, Coalescer};
pub use error::{Result, ServiceError};
pub use json::Json;
pub use metrics::{Histogram, Metrics};
pub use protocol::{CacheSeed, ShardChange, PROTOCOL_VERSION};
pub use router::{RouterConfig, RouterHandle, ShardSpec};
pub use server::{start, ServerConfig, ServerHandle};
pub use shard::HashRing;
pub use trace::{SlowLog, SpanRecord, TraceContext, TraceRecorder};
