//! A blocking protocol client: one TCP connection, request/response in
//! lockstep. Used by the `mwc-client` binary, the load generator, and
//! the integration tests.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use mwc_graph::NodeId;

use crate::json::{parse, Json};

/// A server-reported error: the wire `code`, its human message, and the
/// server's own verdict on whether retrying could help.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Stable machine-readable code (`overloaded`, `unknown_graph`, …).
    pub code: String,
    /// Human-oriented description.
    pub message: String,
    /// The wire `retryable` flag: `true` for transient conditions
    /// (backpressure, eviction races, shard failover) where the same
    /// request may succeed if re-sent, `false` for deterministic
    /// rejections.
    pub retryable: bool,
}

impl WireError {
    /// Decodes a wire error object (`{"code": ..., "message": ...,
    /// "retryable": ...}`). Pre-v1 servers omit `retryable`; for those
    /// the known transient codes are recognised as a fallback so retry
    /// loops keep working against old binaries.
    fn from_json(err: &Json) -> Self {
        let code = err
            .get("code")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let retryable = err
            .get("retryable")
            .and_then(Json::as_bool)
            .unwrap_or(matches!(
                code.as_str(),
                "overloaded" | "too_many_connections" | "graph_evicted" | "shard_unavailable"
            ));
        WireError {
            retryable,
            message: err
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            code,
        }
    }

    /// Whether the server marked this failure transient — the typed
    /// replacement for string-matching on [`WireError::code`].
    pub fn is_retryable(&self) -> bool {
        self.retryable
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// A socket failure (connect, read, write).
    Io(std::io::Error),
    /// The server's response line was not a valid protocol response.
    Protocol(String),
    /// The server answered with `"ok": false`.
    Server(WireError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Convenience alias for client results.
pub type Result<T> = std::result::Result<T, ClientError>;

/// The client-side view of a [`SolveReport`](mwc_core::SolveReport), as
/// decoded from the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// Solver registry name.
    pub solver: String,
    /// Connector vertex set (sorted, as the server's `Connector` keeps it).
    pub connector: Vec<NodeId>,
    /// Exact Wiener index of the connector.
    pub wiener_index: u64,
    /// Server-side solve seconds.
    pub seconds: f64,
    /// Candidates inspected.
    pub candidates: u64,
    /// Optimality certificate, when the solver provides one.
    pub optimal: Option<bool>,
}

impl WireReport {
    /// Decodes the `"report"` wire object.
    pub fn from_json(v: &Json) -> Result<WireReport> {
        let get = |k: &str| {
            v.get(k)
                .ok_or_else(|| ClientError::Protocol(format!("report missing {k:?}")))
        };
        let connector = get("connector")?
            .as_array()
            .ok_or_else(|| ClientError::Protocol("connector must be an array".into()))?
            .iter()
            .map(|x| {
                x.as_u64()
                    .and_then(|id| NodeId::try_from(id).ok())
                    .ok_or_else(|| ClientError::Protocol("bad vertex id in connector".into()))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(WireReport {
            solver: get("solver")?
                .as_str()
                .ok_or_else(|| ClientError::Protocol("solver must be a string".into()))?
                .to_string(),
            connector,
            wiener_index: get("wiener_index")?
                .as_u64()
                .ok_or_else(|| ClientError::Protocol("bad wiener_index".into()))?,
            seconds: get("seconds")?
                .as_f64()
                .ok_or_else(|| ClientError::Protocol("bad seconds".into()))?,
            candidates: get("candidates")?.as_u64().unwrap_or(0),
            optimal: match get("optimal")? {
                Json::Null => None,
                Json::Bool(b) => Some(*b),
                _ => return Err(ClientError::Protocol("bad optimal".into())),
            },
        })
    }
}

/// One cataloged graph, as listed by the `graphs` command.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphInfo {
    /// Catalog name.
    pub name: String,
    /// Source spec it was loaded from.
    pub source: String,
    /// Vertex count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Whether the graph carries edge weights (weighted distances and
    /// Wiener indices in every report).
    pub weighted: bool,
    /// Registered solver names (sorted).
    pub solvers: Vec<String>,
}

/// A blocking connection to an `mwc-server` (or an `mwc-router`, which
/// speaks the same protocol — see [`RouterClient`] for the retrying
/// wrapper suited to a sharded deployment).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.writer.peer_addr().ok())
            .finish()
    }
}

impl Client {
    /// Connects to the server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream).map_err(ClientError::Io)
    }

    /// Wraps an already-connected stream (the router's backend pool dials
    /// with its own connect timeout and then builds a client here).
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 0,
        })
    }

    /// Sets the socket read timeout (shared by all reads on this
    /// connection). The router uses it to bound how long a dead backend
    /// can stall a forwarded request.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends one raw request line and returns the raw response line.
    pub fn roundtrip_line(&mut self, line: &str) -> Result<String> {
        // One write per request: a single packet on the wire instead of a
        // line/newline pair of tiny segments.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "connection closed before a response arrived".into(),
            ));
        }
        Ok(response)
    }

    /// Sends a request object (an `id` is attached automatically) and
    /// returns the decoded success payload, or the server's error.
    pub fn request(&mut self, mut fields: Vec<(&'static str, Json)>) -> Result<Json> {
        self.next_id += 1;
        let id = self.next_id;
        fields.push(("id", Json::from(id)));
        let response = self.roundtrip_line(&Json::obj(fields).to_string())?;
        let v = parse(response.trim())
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        if v.get("id").and_then(Json::as_u64) != Some(id) {
            return Err(ClientError::Protocol(format!(
                "response id mismatch (want {id}): {}",
                response.trim()
            )));
        }
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            Some(false) => {
                let err = v.get("error").cloned().unwrap_or(Json::Null);
                Err(ClientError::Server(WireError::from_json(&err)))
            }
            None => Err(ClientError::Protocol(format!(
                "response missing \"ok\": {}",
                response.trim()
            ))),
        }
    }

    fn solve_fields(
        cmd: &'static str,
        graph: &str,
        solver: &str,
        deadline_ms: Option<u64>,
        max_size: Option<usize>,
        no_cache: bool,
    ) -> Vec<(&'static str, Json)> {
        let mut fields = vec![
            ("cmd", Json::from(cmd)),
            ("graph", Json::from(graph)),
            ("solver", Json::from(solver)),
        ];
        if let Some(d) = deadline_ms {
            fields.push(("deadline_ms", Json::from(d)));
        }
        if let Some(m) = max_size {
            fields.push(("max_size", Json::from(m)));
        }
        if no_cache {
            fields.push(("no_cache", Json::Bool(true)));
        }
        fields
    }

    /// Solves one query.
    pub fn solve(
        &mut self,
        graph: &str,
        solver: &str,
        q: &[NodeId],
        deadline_ms: Option<u64>,
        max_size: Option<usize>,
    ) -> Result<WireReport> {
        self.solve_opts(graph, solver, q, deadline_ms, max_size, false)
    }

    /// Like [`Client::solve`], additionally controlling the server-side
    /// solve cache: `no_cache = true` forces a fresh, unstored solve.
    pub fn solve_opts(
        &mut self,
        graph: &str,
        solver: &str,
        q: &[NodeId],
        deadline_ms: Option<u64>,
        max_size: Option<usize>,
        no_cache: bool,
    ) -> Result<WireReport> {
        let mut fields =
            Self::solve_fields("solve", graph, solver, deadline_ms, max_size, no_cache);
        fields.push((
            "q",
            Json::Arr(q.iter().map(|&v| Json::from(u64::from(v))).collect()),
        ));
        let v = self.request(fields)?;
        WireReport::from_json(
            v.get("report")
                .ok_or_else(|| ClientError::Protocol("response missing report".into()))?,
        )
    }

    /// Like [`Client::solve_opts`], additionally asking the server to
    /// trace the request: returns the report together with the inline
    /// span tree (`None` only if the server elided it). Pretty-print the
    /// tree with [`crate::trace::render_span_tree`].
    #[allow(clippy::too_many_arguments)]
    pub fn solve_traced(
        &mut self,
        graph: &str,
        solver: &str,
        q: &[NodeId],
        deadline_ms: Option<u64>,
        max_size: Option<usize>,
        no_cache: bool,
    ) -> Result<(WireReport, Option<Json>)> {
        let mut fields =
            Self::solve_fields("solve", graph, solver, deadline_ms, max_size, no_cache);
        fields.push(("trace", Json::Bool(true)));
        fields.push((
            "q",
            Json::Arr(q.iter().map(|&v| Json::from(u64::from(v))).collect()),
        ));
        let v = self.request(fields)?;
        let report = WireReport::from_json(
            v.get("report")
                .ok_or_else(|| ClientError::Protocol("response missing report".into()))?,
        )?;
        Ok((report, v.get("trace").cloned()))
    }

    /// Solves a batch; per-query failures come back in place.
    pub fn batch(
        &mut self,
        graph: &str,
        solver: &str,
        queries: &[Vec<NodeId>],
        deadline_ms: Option<u64>,
        max_size: Option<usize>,
    ) -> Result<Vec<std::result::Result<WireReport, WireError>>> {
        self.batch_opts(graph, solver, queries, deadline_ms, max_size, false)
    }

    /// Like [`Client::batch`], additionally controlling the server-side
    /// solve cache.
    pub fn batch_opts(
        &mut self,
        graph: &str,
        solver: &str,
        queries: &[Vec<NodeId>],
        deadline_ms: Option<u64>,
        max_size: Option<usize>,
        no_cache: bool,
    ) -> Result<Vec<std::result::Result<WireReport, WireError>>> {
        let mut fields =
            Self::solve_fields("batch", graph, solver, deadline_ms, max_size, no_cache);
        fields.push((
            "queries",
            Json::Arr(
                queries
                    .iter()
                    .map(|q| Json::Arr(q.iter().map(|&v| Json::from(u64::from(v))).collect()))
                    .collect(),
            ),
        ));
        let v = self.request(fields)?;
        let reports = v
            .get("reports")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("response missing reports".into()))?;
        reports
            .iter()
            .map(|r| match r.get("error") {
                Some(e) => Ok(Err(WireError::from_json(e))),
                None => WireReport::from_json(r).map(Ok),
            })
            .collect()
    }

    /// Fetches the metrics snapshot.
    pub fn stats(&mut self) -> Result<Json> {
        let v = self.request(vec![("cmd", Json::from("stats"))])?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("response missing stats".into()))
    }

    /// Fetches the Prometheus text exposition (`metrics` command).
    pub fn metrics_text(&mut self) -> Result<String> {
        let v = self.request(vec![("cmd", Json::from("metrics"))])?;
        v.get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("response missing text".into()))
    }

    /// Fetches the newest slow-query entries (`slowlog` command), newest
    /// first; `limit` caps the count.
    pub fn slowlog(&mut self, limit: Option<usize>) -> Result<Vec<Json>> {
        let mut fields = vec![("cmd", Json::from("slowlog"))];
        if let Some(l) = limit {
            fields.push(("limit", Json::from(l)));
        }
        let v = self.request(fields)?;
        v.get("entries")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| ClientError::Protocol("response missing entries".into()))
    }

    /// Lists cataloged graphs.
    pub fn graphs(&mut self) -> Result<Vec<GraphInfo>> {
        let v = self.request(vec![("cmd", Json::from("graphs"))])?;
        let arr = v
            .get("graphs")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("response missing graphs".into()))?;
        arr.iter()
            .map(|g| {
                Ok(GraphInfo {
                    name: g
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    source: g
                        .get("source")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    nodes: g.get("nodes").and_then(Json::as_u64).unwrap_or(0) as usize,
                    edges: g.get("edges").and_then(Json::as_u64).unwrap_or(0) as usize,
                    weighted: g.get("weighted").and_then(Json::as_bool).unwrap_or(false),
                    solvers: g
                        .get("solvers")
                        .and_then(Json::as_array)
                        .map(|s| {
                            s.iter()
                                .filter_map(Json::as_str)
                                .map(str::to_string)
                                .collect()
                        })
                        .unwrap_or_default(),
                })
            })
            .collect()
    }

    /// Loads a graph into the server's catalog.
    pub fn load(&mut self, name: &str, source: &str) -> Result<(usize, usize)> {
        let v = self.request(vec![
            ("cmd", Json::from("load")),
            ("name", Json::from(name)),
            ("source", Json::from(source)),
        ])?;
        Ok((
            v.get("nodes").and_then(Json::as_u64).unwrap_or(0) as usize,
            v.get("edges").and_then(Json::as_u64).unwrap_or(0) as usize,
        ))
    }

    /// Evicts a graph; `true` if it was loaded.
    pub fn evict(&mut self, name: &str) -> Result<bool> {
        let v = self.request(vec![
            ("cmd", Json::from("evict")),
            ("name", Json::from(name)),
        ])?;
        Ok(v.get("evicted").and_then(Json::as_bool).unwrap_or(false))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        self.request(vec![("cmd", Json::from("ping"))]).map(|_| ())
    }

    /// Burns worker CPU (testing/calibration).
    pub fn burn(&mut self, ms: u64) -> Result<()> {
        self.request(vec![("cmd", Json::from("burn")), ("ms", Json::from(ms))])
            .map(|_| ())
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<()> {
        self.request(vec![("cmd", Json::from("shutdown"))])
            .map(|_| ())
    }

    /// Converts this lockstep client into a [`PipelinedClient`] on the
    /// same connection (no responses may be outstanding — lockstep use
    /// guarantees that).
    pub fn into_pipelined(self) -> PipelinedClient {
        PipelinedClient {
            reader: self.reader,
            writer: self.writer,
            next_id: self.next_id,
            pending: Vec::new(),
        }
    }
}

/// A pipelining protocol client: many requests in flight on one
/// connection, responses matched by `id`.
///
/// `mwc-server` and `mwc-router` share one line frontend, which answers
/// pipelined requests strictly in request order. Send K requests with
/// [`PipelinedClient::send_raw`] / [`PipelinedClient::send`] and collect
/// each response with [`PipelinedClient::recv_until`] — responses that
/// arrive before the one asked for are buffered, so collection order is
/// free. `mwc-router` relays one request of a connection at a time, so
/// through it pipelining saves client round trips but runs no two
/// relays of the connection at once.
///
/// Used by the frontend tests and the benchmark's pipelined workload;
/// [`RouterClient`] stays lockstep.
pub struct PipelinedClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// Responses read while waiting for a different id.
    pending: Vec<Json>,
}

impl fmt::Debug for PipelinedClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelinedClient")
            .field("peer", &self.writer.peer_addr().ok())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl PipelinedClient {
    /// Connects to the server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<PipelinedClient> {
        Ok(Client::connect(addr)?.into_pipelined())
    }

    /// Sends one raw request line without waiting for its response.
    pub fn send_raw(&mut self, line: &str) -> Result<()> {
        // Single write per request, like the lockstep client.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Sends a request object, attaching a fresh `id`, and returns that
    /// id for a later [`PipelinedClient::recv_until`].
    pub fn send(&mut self, mut fields: Vec<(&'static str, Json)>) -> Result<u64> {
        self.next_id += 1;
        let id = self.next_id;
        fields.push(("id", Json::from(id)));
        self.send_raw(&Json::obj(fields).to_string())?;
        Ok(id)
    }

    /// Sends a `solve` without waiting; pair with
    /// [`PipelinedClient::recv_until`].
    pub fn send_solve(
        &mut self,
        graph: &str,
        solver: &str,
        q: &[NodeId],
        deadline_ms: Option<u64>,
    ) -> Result<u64> {
        let mut fields = vec![
            ("cmd", Json::from("solve")),
            ("graph", Json::from(graph)),
            ("solver", Json::from(solver)),
            (
                "q",
                Json::Arr(q.iter().map(|&v| Json::from(u64::from(v))).collect()),
            ),
        ];
        if let Some(d) = deadline_ms {
            fields.push(("deadline_ms", Json::from(d)));
        }
        self.send(fields)
    }

    /// Reads responses until the one carrying `id` arrives and returns
    /// it (`ok` or error, decoded like [`Client::request`]). Responses
    /// for *other* ids read along the way are buffered for their own
    /// `recv_until` calls — so pipelined responses may be collected in
    /// any order, even though the wire delivers them in request order.
    pub fn recv_until(&mut self, id: u64) -> Result<Json> {
        if let Some(i) = self
            .pending
            .iter()
            .position(|v| v.get("id").and_then(Json::as_u64) == Some(id))
        {
            return Self::decode(self.pending.remove(i));
        }
        loop {
            let mut response = String::new();
            let n = self.reader.read_line(&mut response)?;
            if n == 0 {
                return Err(ClientError::Protocol(
                    "connection closed before a response arrived".into(),
                ));
            }
            let v = parse(response.trim())
                .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
            if v.get("id").and_then(Json::as_u64) == Some(id) {
                return Self::decode(v);
            }
            self.pending.push(v);
        }
    }

    fn decode(v: Json) -> Result<Json> {
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            Some(false) => {
                let err = v.get("error").cloned().unwrap_or(Json::Null);
                Err(ClientError::Server(WireError::from_json(&err)))
            }
            None => Err(ClientError::Protocol(format!(
                "response missing \"ok\": {v}"
            ))),
        }
    }
}

/// A resharding-safe client for the sharded tier: a [`Client`] pointed
/// at an `mwc-router`, with failures the server marked
/// [retryable](WireError::is_retryable) retried after a doubling
/// backoff.
///
/// The server flags each wire error with `"retryable"`: true for
/// transient conditions — `shard_unavailable` (the shard behind a graph
/// is restarting, being replaced, or mid-reshard), `graph_evicted` (the
/// request was parked in a coalescer window whose graph was evicted
/// mid-wait), `overloaded` and `too_many_connections` (backpressure) —
/// false for deterministic rejections. A plain client surfaces all of
/// them immediately; this wrapper absorbs the transient ones:
///
/// * every request method retries a retryable failure up to
///   `max_retries` times, sleeping `backoff`, `2·backoff`, `4·backoff`,
///   … between attempts (the reprobe loop on the router needs real time
///   to re-admit a recovered shard);
/// * [`RouterClient::batch`] additionally heals *partial* failures:
///   entries that came back retryable inside an otherwise successful
///   batch are re-issued as individual solves through the same retry
///   path, so one dying shard costs latency, not answers — as long as
///   it comes back.
///
/// Any other error (infeasible query, unknown solver, …) is returned
/// immediately: retrying cannot change a deterministic answer.
pub struct RouterClient {
    client: Client,
    max_retries: usize,
    backoff: std::time::Duration,
}

impl RouterClient {
    /// Connects to a router with the default retry policy (3 retries,
    /// 50 ms initial backoff — ≈ 350 ms of patience).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RouterClient> {
        Ok(RouterClient {
            client: Client::connect(addr)?,
            max_retries: 3,
            backoff: std::time::Duration::from_millis(50),
        })
    }

    /// Overrides the retry policy (`max_retries` may be 0 to disable).
    pub fn with_retry(mut self, max_retries: usize, backoff: std::time::Duration) -> RouterClient {
        self.max_retries = max_retries;
        self.backoff = backoff;
        self
    }

    /// The wrapped plain client, for requests that need no retry
    /// semantics (e.g. raw lines in tests).
    pub fn inner(&mut self) -> &mut Client {
        &mut self.client
    }

    fn with_retries<T>(&mut self, mut call: impl FnMut(&mut Client) -> Result<T>) -> Result<T> {
        let mut delay = self.backoff;
        let mut attempt = 0;
        loop {
            match call(&mut self.client) {
                Err(ClientError::Server(e)) if e.is_retryable() => {
                    if attempt >= self.max_retries {
                        return Err(ClientError::Server(e));
                    }
                    attempt += 1;
                    std::thread::sleep(delay);
                    // Doubling, capped: generous retry budgets must not
                    // decay into multi-minute sleeps.
                    delay = (delay * 2).min(std::time::Duration::from_secs(1));
                }
                other => return other,
            }
        }
    }

    /// [`Client::solve`] with retry on retryable errors.
    pub fn solve(
        &mut self,
        graph: &str,
        solver: &str,
        q: &[NodeId],
        deadline_ms: Option<u64>,
        max_size: Option<usize>,
    ) -> Result<WireReport> {
        self.with_retries(|c| c.solve(graph, solver, q, deadline_ms, max_size))
    }

    /// [`Client::batch`] with retry on retryable errors, at both
    /// levels: a failed request is retried whole, and per-entry
    /// `shard_unavailable` errors in a successful reply are re-issued as
    /// individual solves (each with its own retries).
    pub fn batch(
        &mut self,
        graph: &str,
        solver: &str,
        queries: &[Vec<NodeId>],
        deadline_ms: Option<u64>,
        max_size: Option<usize>,
    ) -> Result<Vec<std::result::Result<WireReport, WireError>>> {
        let mut results =
            self.with_retries(|c| c.batch(graph, solver, queries, deadline_ms, max_size))?;
        for (q, slot) in queries.iter().zip(results.iter_mut()) {
            if matches!(slot, Err(e) if e.is_retryable()) {
                match self.solve(graph, solver, q, deadline_ms, max_size) {
                    Ok(report) => *slot = Ok(report),
                    // The re-issue's verdict supersedes the stale one:
                    // e.g. the recovered owner may now answer
                    // unknown_graph — deterministic, and must not be
                    // reported under a retryable code.
                    Err(ClientError::Server(e)) => *slot = Err(e),
                    // Socket trouble on the re-issue: keep the
                    // original shard_unavailable (still retryable).
                    Err(_) => {}
                }
            }
        }
        Ok(results)
    }

    /// The router's merged `stats` document (router + aggregate +
    /// per-shard sections).
    pub fn stats(&mut self) -> Result<Json> {
        self.with_retries(|c| c.stats())
    }

    /// The merged `graphs` listing (each entry annotated with its shard).
    pub fn graphs(&mut self) -> Result<Vec<GraphInfo>> {
        self.with_retries(|c| c.graphs())
    }

    /// The router's own Prometheus text exposition (routing counters and
    /// per-shard health; answered locally, no shard involved).
    pub fn metrics_text(&mut self) -> Result<String> {
        self.client.metrics_text()
    }

    /// The merged slow-query log: every reachable shard's entries,
    /// annotated with the shard address and sorted slowest-first.
    pub fn slowlog(&mut self, limit: Option<usize>) -> Result<Vec<Json>> {
        self.with_retries(|c| c.slowlog(limit))
    }

    /// The `shard` introspection document: ring shape, per-shard health,
    /// and — when `graph` is given — the assignment for that name.
    pub fn shard_info(&mut self, graph: Option<&str>) -> Result<Json> {
        self.with_retries(|c| {
            let mut fields = vec![("cmd", Json::from("shard"))];
            if let Some(g) = graph {
                fields.push(("graph", Json::from(g)));
            }
            c.request(fields)
        })
    }

    /// [`Client::load`] with retry on retryable errors (the ring
    /// decides which shard materializes the graph).
    pub fn load(&mut self, name: &str, source: &str) -> Result<(usize, usize)> {
        self.with_retries(|c| c.load(name, source))
    }

    /// [`Client::evict`] with retry on retryable errors.
    pub fn evict(&mut self, name: &str) -> Result<bool> {
        self.with_retries(|c| c.evict(name))
    }

    /// Liveness probe of the router itself (answered locally, no shard
    /// involved).
    pub fn ping(&mut self) -> Result<()> {
        self.client.ping()
    }

    /// Asks the *router* to shut down gracefully; backends keep running.
    pub fn shutdown(&mut self) -> Result<()> {
        self.client.shutdown()
    }
}
