//! The wire protocol: newline-delimited JSON request/response framing.
//!
//! One request per line, one response line per request, over a plain TCP
//! stream. Requests may be pipelined; every request may carry a
//! client-chosen `"id"` that the server echoes in the response, so
//! pipelined responses can be matched even if admission control reorders
//! completion.
//!
//! # Grammar
//!
//! ```text
//! request   = { "cmd": <command>, "id"?: <any>, "v"?: 1,
//!               ...command fields } "\n"
//! response  = { "ok": true,  "id"?: <echo>, ...payload }            "\n"
//!           | { "ok": false, "id"?: <echo>,
//!               "error": { "code": <string>, "message": <string>,
//!                          "retryable": <bool> } }                   "\n"
//!
//! solve     = { "cmd":"solve", "graph":G, "solver":S, "q":[v…],
//!               "deadline_ms"?: N, "max_size"?: N, "no_cache"?: bool,
//!               "trace"?: bool, "trace_id"?: hex }
//! batch     = { "cmd":"batch", "graph"?:G, "solver":S,
//!               "queries":[ [v…] | {"graph":G2, "q":[v…]} … ],
//!               "deadline_ms"?: N, "max_size"?: N, "no_cache"?: bool,
//!               "trace"?: bool, "trace_id"?: hex }
//! stats     = { "cmd":"stats" }
//! metrics   = { "cmd":"metrics" }             // Prometheus text exposition
//! slowlog   = { "cmd":"slowlog", "limit"?: N }
//! graphs    = { "cmd":"graphs" }
//! shard     = { "cmd":"shard", "graph"?: G }  // ring/health introspection
//! load      = { "cmd":"load", "name":N, "source":SPEC,
//!               "cache"?: [seed…] }           // seed = warm-cache entry
//! evict     = { "cmd":"evict", "name":N }
//! cache_export = { "cmd":"cache_export", "name":N }
//!                                             // → { "entries":[seed…] }
//! reshard   = { "cmd":"reshard", "add"?: {"name":N,"addr":A},
//!               "remove"?: N }                // mwc-router only
//! ping      = { "cmd":"ping" }
//! burn      = { "cmd":"burn", "ms":N }        // synthetic CPU work
//! shutdown  = { "cmd":"shutdown" }
//!
//! seed      = { "solver":S, "q":[v…], "max_size"?: N,
//!               "weight_digest"?: "16-hex",   // omitted ⇔ unweighted graph
//!               "report": <solve report object> }
//! ```
//!
//! **Versioning.** Requests may carry an optional `"v"` field naming the
//! protocol version they speak; absent means [`PROTOCOL_VERSION`]
//! (currently 1), the version this grammar describes. A request whose
//! `"v"` names any other version is rejected with the stable code
//! `unsupported_version` *before* command dispatch — the field is the
//! negotiation point for replica-aware commands like `reshard`: a future
//! v2 client probes with `{"cmd":"ping","v":2}` and falls back on
//! `unsupported_version` rather than discovering mid-migration that a
//! command is missing. Servers never answer with a version they were not
//! asked for; additive fields (like `"retryable"`) do not bump the
//! version, removed or re-typed ones do.
//!
//! `batch` entries default to the top-level `"graph"`; an entry written
//! as an object may override it, so one batch can span graphs (the
//! sharded front-end `mwc-router` splits such a batch by owning shard
//! and reassembles the replies in request order — a plain `mwc-server`
//! groups the entries per graph itself). The top-level `"graph"` may be
//! omitted only when every entry carries its own.
//!
//! `shard` and `reshard` are answered by `mwc-router` (ring/health
//! introspection and live ring changes respectively); a single
//! `mwc-server` has no ring and rejects both with `bad_request`.
//!
//! `cache_export` dumps a graph's warm solve-cache entries as `seed`
//! objects (queries and connectors in the graph's *original* vertex ids),
//! and `load` accepts the same seeds back in its optional `"cache"`
//! field — together they let a migration stream a graph's warm cache from
//! its old owner to its new one so the new owner never serves cold. The
//! `load` response reports how many seeds were accepted in
//! `"cache_imported"`.
//!
//! **Weighted graphs.** Sources prefixed `wfile:` / `wba:` load
//! integer-weighted graphs (see [`crate::catalog::GraphSource`]); every
//! distance the server computes for them — and the `wiener_index` it
//! reports — is weighted. `graphs` entries carry a `"weighted"` boolean,
//! and cache seeds from a weighted graph carry its `"weight_digest"` —
//! a hash of the weighted edge list (original ids), encoded as a
//! 16-hex-char string because the digest ranges over all of `u64` and
//! JSON numbers are `f64` (integers above 2^53 would not survive the
//! wire): `load` skips seeds
//! whose digest does not match the target graph, so answers solved under
//! one weighting never seed a graph with another (or with none).
//!
//! `no_cache` never reads a stored answer, even when the per-graph engine
//! has the answer cached (see `QueryEngine`'s solve cache), and keeps the
//! result out of the cache. A coalesced `no_cache` solve may still share
//! an identical execution in flight: a duplicate in its window or batch,
//! or a deadline-free one another window or batch is running.
//!
//! `trace` asks the server to record per-stage spans for this request
//! and return them inline as a `"trace"` span tree (see
//! [`crate::trace`]). `trace_id` names the request across processes: a
//! client normally omits it (the entry process generates one), while
//! `mwc-router` generates the id, forwards it to the owning shard, and
//! nests the shard's tree under its own `route`/`backend_rtt` spans —
//! same id on both sides. `slowlog` returns the newest entries of the
//! server's slow-query ring (threshold `--slowlog-ms`), and `metrics`
//! returns Prometheus text exposition in a `"text"` field.
//!
//! `deadline_ms` is the budget measured from the moment the server reads
//! the request: time spent queued counts against it, the remainder maps
//! onto [`QueryOptions::deadline`](mwc_core::QueryOptions::deadline)
//! (cooperative — see its docs), and a request whose budget is exhausted
//! before a worker picks it up fails with code `deadline_exceeded`
//! without starting the solve. For `batch`, the post-queue residue
//! becomes each query's *own* deadline (queries run in parallel inside
//! the engine), so it bounds per-query solve time, not the whole batch's
//! wall clock.
//!
//! `solve` requests for the same graph that arrive within a flush window
//! may be **coalesced** into one shared engine execution (see
//! [`crate::coalesce`]); the wire contract is unchanged — one response
//! line per request, results bit-identical to an uncoalesced solve — but
//! two observable consequences exist. First, `evict` (and a `load` that
//! replaces a live graph) fails any requests still parked in that
//! graph's window with the stable, retryable code `graph_evicted`, and
//! `evict`'s response reports how many in an `"aborted"` field next to
//! `"evicted"`. Second, `stats` gains a flat `"coalesce"` section
//! (window/flush/bypass counters, shared-sweep lane occupancy, and a
//! queue-wait histogram). Requests whose remaining `deadline_ms` is too
//! tight to sit out a window bypass coalescing entirely; a `shutdown`
//! flushes every open window before the acknowledgement is written.

use std::time::Duration;

use mwc_core::{Connector, QueryOptions, SolveReport};
use mwc_graph::NodeId;

use crate::error::ServiceError;
use crate::json::{parse, Json};

/// The protocol version this module speaks. Requests may pin it with the
/// optional `"v"` field; any other value is rejected with the stable
/// `unsupported_version` code before command dispatch.
pub const PROTOCOL_VERSION: u64 = 1;

/// Fields shared by `solve` and `batch`.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveParams {
    /// Catalog name of the graph to query.
    pub graph: String,
    /// Registry name of the solver.
    pub solver: String,
    /// End-to-end deadline in milliseconds (queue wait included).
    pub deadline_ms: Option<u64>,
    /// Maximum connector size (maps to `QueryOptions::max_connector_size`).
    pub max_size: Option<usize>,
    /// Bypass the engine's solve cache for this request (maps to
    /// `QueryOptions::no_cache`): no stored answer is read and the result
    /// is not stored, though an identical execution in flight may answer
    /// it. Defaults to `false` when absent.
    pub no_cache: bool,
    /// Record per-stage spans and return them inline as a `"trace"`
    /// span tree. Defaults to `false` (tracing costs one branch per
    /// stage when off).
    pub trace: bool,
    /// Request-scoped trace id propagated over the wire (router →
    /// shard). Absent on client-originated requests; the serving entry
    /// process generates one.
    pub trace_id: Option<String>,
}

impl SolveParams {
    /// The per-query [`QueryOptions`], given how much of the deadline
    /// remains after queueing.
    pub fn options(&self, remaining: Option<Duration>) -> QueryOptions {
        let mut opts = QueryOptions::new();
        if let Some(d) = remaining {
            opts = opts.deadline(d);
        }
        if let Some(m) = self.max_size {
            opts = opts.max_connector_size(m);
        }
        if self.no_cache {
            opts = opts.no_cache();
        }
        opts
    }
}

/// One entry of a `batch` request: a query vertex set, optionally bound
/// to a different graph than the batch's top-level one.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntry {
    /// Per-entry graph override; `None` means the batch's top-level
    /// graph. After parsing, at least one of the two is guaranteed
    /// non-empty — see [`BatchEntry::graph_name`].
    pub graph: Option<String>,
    /// The query vertex set.
    pub q: Vec<NodeId>,
}

impl BatchEntry {
    /// The catalog name this entry targets, given the batch's top-level
    /// graph. `parse_request` guarantees the result is non-empty.
    pub fn graph_name<'a>(&'a self, default: &'a str) -> &'a str {
        self.graph.as_deref().unwrap_or(default)
    }
}

/// One warm solve-cache entry in transit: the cache key (solver,
/// canonical query, size budget) plus the cached report, all vertex ids
/// in the graph's *original* id space. Produced by `cache_export`,
/// accepted back by `load`'s optional `"cache"` field.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSeed {
    /// Registry name of the solver that produced the entry.
    pub solver: String,
    /// The query vertex set (original ids; canonicalized on import).
    pub q: Vec<NodeId>,
    /// The `max_size` budget the entry was solved under, if any.
    pub max_size: Option<usize>,
    /// Digest of the source graph's weighted edge list (original ids);
    /// `0` for unweighted graphs (and omitted on the wire). Import
    /// skips seeds whose digest does not match the target graph's, so a
    /// result solved under one weighting never poisons another.
    pub weight_digest: u64,
    /// The cached solve result.
    pub report: SolveReport,
}

/// A shard being added by a `reshard` command: ring name and dial
/// address, mirroring the router's startup `--shard NAME=ADDR` spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardChange {
    /// Ring name (identity — stable across restarts).
    pub name: String,
    /// `host:port` the router dials.
    pub addr: String,
}

/// A parsed protocol command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// One query against one graph.
    Solve {
        /// Graph/solver/limits.
        params: SolveParams,
        /// The query vertex set.
        q: Vec<NodeId>,
    },
    /// Many queries, each against the batch's graph or its entry's own
    /// (each graph's entries solved as one `solve_group`).
    Batch {
        /// Graph/solver/limits (the deadline applies per query; `graph`
        /// may be empty when every entry carries its own).
        params: SolveParams,
        /// The query entries, in request order.
        queries: Vec<BatchEntry>,
    },
    /// Metrics snapshot (JSON).
    Stats,
    /// Prometheus text exposition of the same metrics.
    Metrics,
    /// Newest slow-query ring entries (optionally capped at `limit`).
    Slowlog {
        /// Maximum number of entries to return; absent → all retained.
        limit: Option<usize>,
    },
    /// List cataloged graphs.
    Graphs,
    /// Shard-ring introspection: assignments and backend health. Answered
    /// by `mwc-router`; a plain `mwc-server` rejects it.
    Shard {
        /// When present, also report which shard owns this graph name.
        graph: Option<String>,
    },
    /// Load a graph into the catalog, optionally pre-warming its solve
    /// cache with exported entries from another replica.
    Load {
        /// Catalog name to publish under.
        name: String,
        /// Source spec (see [`crate::catalog::GraphSource`]).
        source: String,
        /// Warm-cache seeds to import after the build (original ids);
        /// usually from a `cache_export` against the old owner.
        cache: Vec<CacheSeed>,
    },
    /// Remove a graph from the catalog.
    Evict {
        /// Catalog name to remove.
        name: String,
    },
    /// Export a graph's warm solve-cache entries (original ids) for
    /// streaming to another replica during migration.
    CacheExport {
        /// Catalog name of the graph whose cache to export.
        name: String,
    },
    /// Live ring change: add and/or remove a shard, migrating affected
    /// graphs (source + warm cache) *before* routing flips. Answered by
    /// `mwc-router`; a plain `mwc-server` rejects it.
    Reshard {
        /// Shard to add to the ring, if any.
        add: Option<ShardChange>,
        /// Ring name of the shard to remove, if any.
        remove: Option<String>,
    },
    /// Liveness check.
    Ping,
    /// Busy-spin a worker for the given milliseconds — synthetic load for
    /// admission-control tests and load-generator calibration.
    Burn {
        /// Milliseconds of CPU to burn.
        ms: u64,
    },
    /// Begin graceful shutdown (drain, then stop).
    Shutdown,
}

/// A parsed request line: the command plus the echoed `id`, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<Json>,
    /// The command to execute.
    pub command: Command,
}

fn bad(message: impl Into<String>) -> ServiceError {
    ServiceError::BadRequest(message.into())
}

fn req_str(obj: &Json, key: &str) -> Result<String, ServiceError> {
    obj.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad(format!("field {key:?} must be a string")))
}

fn opt_str(obj: &Json, key: &str) -> Result<Option<String>, ServiceError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| bad(format!("field {key:?} must be a string"))),
    }
}

fn opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, ServiceError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("field {key:?} must be a non-negative integer"))),
    }
}

fn opt_bool(obj: &Json, key: &str) -> Result<bool, ServiceError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(bad(format!("field {key:?} must be a boolean"))),
    }
}

fn node_list(v: &Json, what: &str) -> Result<Vec<NodeId>, ServiceError> {
    let arr = v
        .as_array()
        .ok_or_else(|| bad(format!("{what} must be an array of vertex ids")))?;
    arr.iter()
        .map(|x| {
            let id = x
                .as_u64()
                .ok_or_else(|| bad(format!("{what} entries must be non-negative integers")))?;
            NodeId::try_from(id).map_err(|_| bad(format!("vertex id {id} exceeds u32 range")))
        })
        .collect()
}

fn solve_params(obj: &Json) -> Result<SolveParams, ServiceError> {
    Ok(SolveParams {
        graph: req_str(obj, "graph")?,
        solver: req_str(obj, "solver")?,
        deadline_ms: opt_u64(obj, "deadline_ms")?,
        max_size: opt_u64(obj, "max_size")?.map(|m| m as usize),
        no_cache: opt_bool(obj, "no_cache")?,
        trace: opt_bool(obj, "trace")?,
        trace_id: opt_str(obj, "trace_id")?,
    })
}

/// Like [`solve_params`] but for `batch`, where the top-level graph is
/// optional (entries may each carry their own); absent → empty string.
fn batch_params(obj: &Json) -> Result<SolveParams, ServiceError> {
    Ok(SolveParams {
        graph: opt_str(obj, "graph")?.unwrap_or_default(),
        solver: req_str(obj, "solver")?,
        deadline_ms: opt_u64(obj, "deadline_ms")?,
        max_size: opt_u64(obj, "max_size")?.map(|m| m as usize),
        no_cache: opt_bool(obj, "no_cache")?,
        trace: opt_bool(obj, "trace")?,
        trace_id: opt_str(obj, "trace_id")?,
    })
}

fn batch_entry(
    v: &Json,
    index: usize,
    have_default_graph: bool,
) -> Result<BatchEntry, ServiceError> {
    match v {
        Json::Arr(_) => {
            if !have_default_graph {
                return Err(bad(format!(
                    "batch entry {index} is a bare query but the batch has no top-level \"graph\""
                )));
            }
            Ok(BatchEntry {
                graph: None,
                q: node_list(v, "each query")?,
            })
        }
        Json::Obj(_) => {
            let graph = opt_str(v, "graph")?.filter(|g| !g.is_empty());
            if graph.is_none() && !have_default_graph {
                return Err(bad(format!(
                    "batch entry {index} names no graph and the batch has no top-level \"graph\""
                )));
            }
            let q = node_list(
                v.get("q")
                    .ok_or_else(|| bad(format!("batch entry {index} missing field \"q\"")))?,
                "each query",
            )?;
            Ok(BatchEntry { graph, q })
        }
        _ => Err(bad(format!(
            "batch entry {index} must be an array of vertex ids or an object with \"q\""
        ))),
    }
}

/// Parses a cache seed's optional `"weight_digest"` field. The digest is
/// a full-range `u64`, so the wire form is a hex *string* — a JSON
/// number is an `f64` and silently corrupts integers above 2^53 (which
/// nearly every real digest is); numeric digests are rejected outright
/// rather than accepted lossily.
fn weight_digest_from_json(seed: &Json, i: usize) -> Result<u64, ServiceError> {
    match seed.get("weight_digest") {
        None | Some(Json::Null) => Ok(0),
        Some(Json::Str(s)) => u64::from_str_radix(s, 16).map_err(|_| {
            bad(format!(
                "cache seed {i} field \"weight_digest\" must be a hex string of at most 16 digits"
            ))
        }),
        Some(_) => Err(bad(format!(
            "cache seed {i} field \"weight_digest\" must be a hex string \
             (digests exceed JSON's exact-integer range)"
        ))),
    }
}

/// Parses the seed objects of a `load` request's `"cache"` field.
fn cache_seeds(v: &Json) -> Result<Vec<CacheSeed>, ServiceError> {
    let arr = v
        .as_array()
        .ok_or_else(|| bad("\"cache\" must be an array of cache seeds"))?;
    arr.iter()
        .enumerate()
        .map(|(i, seed)| {
            if !matches!(seed, Json::Obj(_)) {
                return Err(bad(format!("cache seed {i} must be an object")));
            }
            Ok(CacheSeed {
                solver: req_str(seed, "solver")?,
                q: node_list(
                    seed.get("q")
                        .ok_or_else(|| bad(format!("cache seed {i} missing field \"q\"")))?,
                    "cache seed \"q\"",
                )?,
                max_size: opt_u64(seed, "max_size")?.map(|m| m as usize),
                weight_digest: weight_digest_from_json(seed, i)?,
                report: report_from_json(
                    seed.get("report")
                        .ok_or_else(|| bad(format!("cache seed {i} missing field \"report\"")))?,
                )?,
            })
        })
        .collect()
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let obj = parse(line).map_err(|e| bad(e.to_string()))?;
    if !matches!(obj, Json::Obj(_)) {
        return Err(bad("request must be a JSON object"));
    }
    match obj.get("v") {
        None | Some(Json::Null) => {}
        Some(v) => {
            let requested = v
                .as_u64()
                .ok_or_else(|| bad("field \"v\" must be a non-negative integer"))?;
            if requested != PROTOCOL_VERSION {
                return Err(ServiceError::UnsupportedVersion {
                    requested,
                    supported: PROTOCOL_VERSION,
                });
            }
        }
    }
    let id = obj.get("id").cloned();
    let cmd = req_str(&obj, "cmd")?;
    let command = match cmd.as_str() {
        "solve" => Command::Solve {
            params: solve_params(&obj)?,
            q: node_list(
                obj.get("q").ok_or_else(|| bad("missing field \"q\""))?,
                "\"q\"",
            )?,
        },
        "batch" => {
            let params = batch_params(&obj)?;
            let have_default_graph = !params.graph.is_empty();
            let queries = obj
                .get("queries")
                .ok_or_else(|| bad("missing field \"queries\""))?
                .as_array()
                .ok_or_else(|| bad("\"queries\" must be an array of queries"))?
                .iter()
                .enumerate()
                .map(|(i, q)| batch_entry(q, i, have_default_graph))
                .collect::<Result<Vec<_>, _>>()?;
            Command::Batch { params, queries }
        }
        "stats" => Command::Stats,
        "metrics" => Command::Metrics,
        "slowlog" => Command::Slowlog {
            limit: opt_u64(&obj, "limit")?.map(|l| l as usize),
        },
        "graphs" => Command::Graphs,
        "shard" => Command::Shard {
            graph: opt_str(&obj, "graph")?,
        },
        "load" => Command::Load {
            name: req_str(&obj, "name")?,
            source: req_str(&obj, "source")?,
            cache: match obj.get("cache") {
                None | Some(Json::Null) => Vec::new(),
                Some(v) => cache_seeds(v)?,
            },
        },
        "evict" => Command::Evict {
            name: req_str(&obj, "name")?,
        },
        "cache_export" => Command::CacheExport {
            name: req_str(&obj, "name")?,
        },
        "reshard" => {
            let add = match obj.get("add") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    if !matches!(v, Json::Obj(_)) {
                        return Err(bad("\"add\" must be an object with \"name\" and \"addr\""));
                    }
                    Some(ShardChange {
                        name: req_str(v, "name")?,
                        addr: req_str(v, "addr")?,
                    })
                }
            };
            let remove = opt_str(&obj, "remove")?;
            if add.is_none() && remove.is_none() {
                return Err(bad("reshard needs \"add\" and/or \"remove\""));
            }
            Command::Reshard { add, remove }
        }
        "ping" => Command::Ping,
        "burn" => Command::Burn {
            ms: opt_u64(&obj, "ms")?.ok_or_else(|| bad("missing field \"ms\""))?,
        },
        "shutdown" => Command::Shutdown,
        other => return Err(bad(format!("unknown cmd {other:?}"))),
    };
    Ok(Request { id, command })
}

fn with_id(mut payload: Vec<(&'static str, Json)>, id: &Option<Json>) -> Json {
    if let Some(id) = id {
        payload.push(("id", id.clone()));
    }
    Json::obj(payload)
}

/// Encodes a success response line (no trailing newline).
pub fn ok_response(id: &Option<Json>, mut payload: Vec<(&'static str, Json)>) -> String {
    payload.push(("ok", Json::Bool(true)));
    with_id(payload, id).to_string()
}

/// The `{"code":…,"message":…,"retryable":…}` object for `err` — the
/// shape embedded in error responses and in per-entry `batch` errors.
/// `"retryable"` is the machine-readable retry hint
/// ([`ServiceError::retryable`]); clients branch on it via
/// [`crate::client::WireError::is_retryable`] instead of matching code
/// strings.
pub fn error_json(err: &ServiceError) -> Json {
    Json::obj([
        ("code", Json::from(err.code())),
        ("message", Json::from(err.to_string())),
        ("retryable", Json::Bool(err.retryable())),
    ])
}

/// Encodes an error response line (no trailing newline).
pub fn error_response(id: &Option<Json>, err: &ServiceError) -> String {
    with_id(
        vec![("ok", Json::Bool(false)), ("error", error_json(err))],
        id,
    )
    .to_string()
}

/// Converts a [`SolveReport`] to its wire object — by construction the
/// same shape as [`SolveReport::to_json`] (a unit test pins the two
/// together).
pub fn report_to_json(report: &SolveReport) -> Json {
    Json::obj([
        ("solver", Json::from(report.solver.as_str())),
        (
            "connector",
            Json::Arr(
                report
                    .connector
                    .vertices()
                    .iter()
                    .map(|&v| Json::from(u64::from(v)))
                    .collect(),
            ),
        ),
        ("wiener_index", Json::from(report.wiener_index)),
        ("seconds", Json::from(report.seconds)),
        ("candidates", Json::from(report.candidates)),
        (
            "optimal",
            match report.optimal {
                Some(b) => Json::Bool(b),
                None => Json::Null,
            },
        ),
    ])
}

/// Inverse of [`report_to_json`]: re-inflates a [`SolveReport`] from its
/// wire object — used when warm-cache seeds travel between replicas (the
/// connector is re-inflated with [`Connector::from_vertices`]; the
/// sender vouches for connectivity, exactly as with the client wrapper).
pub fn report_from_json(v: &Json) -> Result<SolveReport, ServiceError> {
    if !matches!(v, Json::Obj(_)) {
        return Err(bad("report must be an object"));
    }
    let connector = node_list(
        v.get("connector")
            .ok_or_else(|| bad("report missing field \"connector\""))?,
        "report \"connector\"",
    )?;
    Ok(SolveReport {
        solver: req_str(v, "solver")?,
        connector: Connector::from_vertices(connector),
        wiener_index: v
            .get("wiener_index")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("report missing numeric field \"wiener_index\""))?,
        seconds: v.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
        candidates: v.get("candidates").and_then(Json::as_u64).unwrap_or(0),
        optimal: match v.get("optimal") {
            None | Some(Json::Null) => None,
            Some(Json::Bool(b)) => Some(*b),
            Some(_) => return Err(bad("report \"optimal\" must be a boolean or null")),
        },
    })
}

/// Encodes one warm-cache seed as its wire object — the element shape of
/// `cache_export`'s `"entries"` and `load`'s `"cache"`.
pub fn cache_seed_to_json(seed: &CacheSeed) -> Json {
    let mut fields = vec![
        ("solver", Json::from(seed.solver.as_str())),
        (
            "q",
            Json::Arr(seed.q.iter().map(|&v| Json::from(u64::from(v))).collect()),
        ),
    ];
    if let Some(m) = seed.max_size {
        fields.push(("max_size", Json::from(m)));
    }
    if seed.weight_digest != 0 {
        // Hex string, not a number: `Json` numbers are `f64`, which
        // mangles u64 digests above 2^53 (see `weight_digest_from_json`).
        fields.push((
            "weight_digest",
            Json::from(format!("{:016x}", seed.weight_digest)),
        ));
    }
    fields.push(("report", report_to_json(&seed.report)));
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_solve_with_options() {
        let r = parse_request(
            r#"{"cmd":"solve","graph":"karate","solver":"ws-q","q":[0,33],"deadline_ms":50,"max_size":10,"no_cache":true,"id":7}"#,
        )
        .unwrap();
        assert_eq!(r.id, Some(Json::Num(7.0)));
        match r.command {
            Command::Solve { params, q } => {
                assert_eq!(params.graph, "karate");
                assert_eq!(params.solver, "ws-q");
                assert_eq!(params.deadline_ms, Some(50));
                assert_eq!(params.max_size, Some(10));
                assert!(params.no_cache);
                assert_eq!(q, vec![0, 33]);
                let opts = params.options(Some(Duration::from_millis(20)));
                assert_eq!(opts.time_budget(), Some(Duration::from_millis(20)));
                assert_eq!(opts.size_budget(), Some(10));
                assert!(opts.cache_disabled());
            }
            other => panic!("unexpected command {other:?}"),
        }
        // Absent → false.
        let r = parse_request(r#"{"cmd":"solve","graph":"g","solver":"s","q":[0,1]}"#).unwrap();
        match r.command {
            Command::Solve { params, .. } => {
                assert!(!params.no_cache);
                assert!(!params.options(None).cache_disabled());
                assert!(!params.trace);
                assert_eq!(params.trace_id, None);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn parses_trace_fields() {
        let r = parse_request(
            r#"{"cmd":"solve","graph":"g","solver":"s","q":[0,1],"trace":true,"trace_id":"00c0ffee00c0ffee"}"#,
        )
        .unwrap();
        match r.command {
            Command::Solve { params, .. } => {
                assert!(params.trace);
                assert_eq!(params.trace_id.as_deref(), Some("00c0ffee00c0ffee"));
            }
            other => panic!("unexpected command {other:?}"),
        }
        let r = parse_request(
            r#"{"cmd":"batch","graph":"g","solver":"s","queries":[[0,1]],"trace":true}"#,
        )
        .unwrap();
        match r.command {
            Command::Batch { params, .. } => {
                assert!(params.trace);
                assert_eq!(params.trace_id, None);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn parses_the_rest_of_the_grammar() {
        let cases = [
            (r#"{"cmd":"stats"}"#, Command::Stats),
            (r#"{"cmd":"metrics"}"#, Command::Metrics),
            (r#"{"cmd":"slowlog"}"#, Command::Slowlog { limit: None }),
            (
                r#"{"cmd":"slowlog","limit":5}"#,
                Command::Slowlog { limit: Some(5) },
            ),
            (r#"{"cmd":"graphs"}"#, Command::Graphs),
            (r#"{"cmd":"ping"}"#, Command::Ping),
            (r#"{"cmd":"shutdown"}"#, Command::Shutdown),
            (r#"{"cmd":"burn","ms":25}"#, Command::Burn { ms: 25 }),
            (
                r#"{"cmd":"load","name":"toy","source":"ba:100x2"}"#,
                Command::Load {
                    name: "toy".into(),
                    source: "ba:100x2".into(),
                    cache: Vec::new(),
                },
            ),
            (
                r#"{"cmd":"evict","name":"toy"}"#,
                Command::Evict { name: "toy".into() },
            ),
            (
                r#"{"cmd":"cache_export","name":"toy"}"#,
                Command::CacheExport { name: "toy".into() },
            ),
            (
                r#"{"cmd":"reshard","add":{"name":"s9","addr":"127.0.0.1:9"}}"#,
                Command::Reshard {
                    add: Some(ShardChange {
                        name: "s9".into(),
                        addr: "127.0.0.1:9".into(),
                    }),
                    remove: None,
                },
            ),
            (
                r#"{"cmd":"reshard","remove":"s0"}"#,
                Command::Reshard {
                    add: None,
                    remove: Some("s0".into()),
                },
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse_request(line).unwrap().command, want, "{line}");
        }
        let batch =
            parse_request(r#"{"cmd":"batch","graph":"g","solver":"st","queries":[[0,1],[2,3,4]]}"#)
                .unwrap();
        match batch.command {
            Command::Batch { params, queries } => {
                assert_eq!(params.graph, "g");
                assert_eq!(
                    queries,
                    vec![
                        BatchEntry {
                            graph: None,
                            q: vec![0, 1]
                        },
                        BatchEntry {
                            graph: None,
                            q: vec![2, 3, 4]
                        },
                    ]
                );
                assert_eq!(queries[0].graph_name(&params.graph), "g");
            }
            other => panic!("unexpected {other:?}"),
        }
        let shard = parse_request(r#"{"cmd":"shard"}"#).unwrap();
        assert_eq!(shard.command, Command::Shard { graph: None });
        let shard = parse_request(r#"{"cmd":"shard","graph":"karate"}"#).unwrap();
        assert_eq!(
            shard.command,
            Command::Shard {
                graph: Some("karate".into())
            }
        );
    }

    #[test]
    fn parses_batches_with_per_entry_graphs() {
        // Mixed entries: bare queries use the top-level graph, objects
        // may override it.
        let r = parse_request(
            r#"{"cmd":"batch","graph":"a","solver":"st",
                "queries":[[0,1],{"graph":"b","q":[2,3]},{"q":[4,5]}]}"#,
        )
        .unwrap();
        match r.command {
            Command::Batch { params, queries } => {
                assert_eq!(queries.len(), 3);
                assert_eq!(queries[0].graph_name(&params.graph), "a");
                assert_eq!(queries[1].graph_name(&params.graph), "b");
                assert_eq!(queries[2].graph_name(&params.graph), "a");
                assert_eq!(queries[1].q, vec![2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // No top-level graph is fine when every entry carries one…
        let r = parse_request(
            r#"{"cmd":"batch","solver":"st",
                "queries":[{"graph":"a","q":[0,1]},{"graph":"b","q":[2]}]}"#,
        )
        .unwrap();
        match r.command {
            Command::Batch { params, queries } => {
                assert!(params.graph.is_empty());
                assert_eq!(queries[1].graph_name(&params.graph), "b");
            }
            other => panic!("unexpected {other:?}"),
        }
        // …and a bad_request when some entry does not.
        for line in [
            r#"{"cmd":"batch","solver":"st","queries":[[0,1]]}"#,
            r#"{"cmd":"batch","solver":"st","queries":[{"q":[0,1]}]}"#,
            r#"{"cmd":"batch","solver":"st","queries":[{"graph":"","q":[0,1]}]}"#,
            r#"{"cmd":"batch","graph":"a","solver":"st","queries":[{"graph":"b"}]}"#,
            r#"{"cmd":"batch","graph":"a","solver":"st","queries":[7]}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{line:?} → {err}");
        }
    }

    #[test]
    fn rejects_malformed_requests_with_bad_request() {
        for line in [
            "",
            "not json",
            "[1,2]",
            r#"{"cmd":"warp"}"#,
            r#"{"cmd":"solve","graph":"g","solver":"s"}"#, // missing q
            r#"{"cmd":"solve","graph":"g","solver":"s","q":[-1]}"#,
            r#"{"cmd":"solve","graph":"g","solver":"s","q":["a"]}"#,
            r#"{"cmd":"solve","graph":"g","solver":"s","q":[0],"deadline_ms":"soon"}"#,
            r#"{"cmd":"solve","graph":"g","solver":"s","q":[0],"no_cache":"yes"}"#,
            r#"{"cmd":"solve","graph":"g","solver":"s","q":[4294967296]}"#, // > u32
            r#"{"cmd":"batch","graph":"g","solver":"s","queries":[0]}"#,
            r#"{"cmd":"burn"}"#,
            r#"{"cmd":"load","name":"x"}"#,
            r#"{"cmd":"load","name":"x","source":"karate","cache":7}"#,
            r#"{"cmd":"load","name":"x","source":"karate","cache":[{"solver":"s","q":[0,1]}]}"#,
            r#"{"cmd":"reshard"}"#,
            r#"{"cmd":"reshard","add":"s9"}"#,
            r#"{"cmd":"cache_export"}"#,
            r#"{"cmd":"ping","v":"one"}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{line:?} → {err}");
        }
    }

    #[test]
    fn version_field_gates_the_protocol() {
        // Absent and explicit v=1 both parse.
        assert_eq!(
            parse_request(r#"{"cmd":"ping"}"#).unwrap().command,
            Command::Ping
        );
        assert_eq!(
            parse_request(r#"{"cmd":"ping","v":1}"#).unwrap().command,
            Command::Ping
        );
        // Any other version is rejected with the stable negotiation code,
        // before command dispatch (even an unknown cmd reports the
        // version problem, not bad_request).
        for line in [
            r#"{"cmd":"ping","v":2}"#,
            r#"{"cmd":"ping","v":0}"#,
            r#"{"cmd":"warp","v":7}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code(), "unsupported_version", "{line:?} → {err}");
            assert!(!err.retryable());
        }
    }

    #[test]
    fn error_objects_carry_machine_readable_retryability() {
        let retryable = error_json(&ServiceError::Overloaded { queue_capacity: 8 });
        assert_eq!(retryable.get("retryable").unwrap().as_bool(), Some(true));
        let terminal = error_json(&ServiceError::BadRequest("x".into()));
        assert_eq!(terminal.get("retryable").unwrap().as_bool(), Some(false));
        let conn = error_json(&ServiceError::TooManyConnections { limit: 3 });
        assert_eq!(
            conn.get("code").unwrap().as_str(),
            Some("too_many_connections")
        );
        assert_eq!(conn.get("retryable").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn cache_seeds_roundtrip_through_the_wire_shape() {
        use mwc_core::QueryEngine;
        let g = mwc_graph::generators::karate::karate_club();
        let report = QueryEngine::new(&g)
            .solve("ws-q", &[11, 24, 25, 29])
            .unwrap();
        let seed = CacheSeed {
            solver: "ws-q".into(),
            q: vec![11, 24, 25, 29],
            max_size: Some(12),
            weight_digest: 0,
            report,
        };
        let line = format!(
            r#"{{"cmd":"load","name":"k","source":"karate","cache":[{}]}}"#,
            cache_seed_to_json(&seed)
        );
        match parse_request(&line).unwrap().command {
            Command::Load {
                name,
                source,
                cache,
            } => {
                assert_eq!(name, "k");
                assert_eq!(source, "karate");
                assert_eq!(cache.len(), 1);
                assert_eq!(cache[0].solver, seed.solver);
                assert_eq!(cache[0].q, seed.q);
                assert_eq!(cache[0].max_size, seed.max_size);
                assert_eq!(
                    cache[0].report.connector.vertices(),
                    seed.report.connector.vertices()
                );
                assert_eq!(cache[0].report.wiener_index, seed.report.wiener_index);
                assert_eq!(cache[0].report.optimal, seed.report.optimal);
            }
            other => panic!("unexpected {other:?}"),
        }
        // max_size is part of the cache key: absent must stay absent.
        let bare = CacheSeed {
            max_size: None,
            ..seed
        };
        let json = cache_seed_to_json(&bare);
        assert!(json.get("max_size").is_none());
        // weight_digest: zero stays off the wire; a nonzero digest above
        // 2^53 (as ~all real FNV digests are) round-trips exactly via
        // its hex-string encoding.
        assert!(json.get("weight_digest").is_none());
        let digest: u64 = 0xfedc_ba98_7654_3210; // > 2^53: f64-lossy as a number
        let weighted = CacheSeed {
            weight_digest: digest,
            ..bare
        };
        let wire = cache_seed_to_json(&weighted);
        assert_eq!(
            wire.get("weight_digest").unwrap().as_str(),
            Some("fedcba9876543210")
        );
        let line = format!(r#"{{"cmd":"load","name":"k","source":"karate","cache":[{wire}]}}"#);
        match parse_request(&line).unwrap().command {
            Command::Load { cache, .. } => assert_eq!(cache[0].weight_digest, digest),
            other => panic!("unexpected {other:?}"),
        }
        // Numeric digests are rejected, never accepted lossily.
        let numeric = line.replace("\"fedcba9876543210\"", "99");
        assert!(parse_request(&numeric).is_err());
    }

    #[test]
    fn responses_echo_ids_and_carry_codes() {
        let id = Some(Json::from("req-1"));
        let ok = ok_response(&id, vec![("pong", Json::Bool(true))]);
        let v = crate::json::parse(&ok).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("id").unwrap().as_str(), Some("req-1"));
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));

        let err = error_response(&None, &ServiceError::Overloaded { queue_capacity: 8 });
        let v = crate::json::parse(&err).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("overloaded")
        );
        assert!(v.get("id").is_none());
    }

    #[test]
    fn report_wire_object_matches_core_to_json() {
        use mwc_core::QueryEngine;
        let g = mwc_graph::generators::karate::karate_club();
        let report = QueryEngine::new(&g)
            .solve("ws-q", &[11, 24, 25, 29])
            .unwrap();
        let via_core = crate::json::parse(&report.to_json()).unwrap();
        assert_eq!(report_to_json(&report), via_core);
    }
}
