//! The TCP server: the line frontend in front of a fixed worker pool
//! behind a bounded admission queue.
//!
//! # Architecture
//!
//! ```text
//!            frontend (one epoll thread, see [`crate::event_loop`]):
//!            nonblocking accept + read + write over a connection table,
//!            pipelined, responses in request order
//!                            │ parse line → Request
//!                            │ control cmds answered inline
//!                            ▼
//!                     bounded JobQueue ──✗ full → "overloaded"
//!                            │
//!               worker pool (N threads): solve/batch/load/burn
//!                            │  solve → per-graph coalescing
//!                            │  window (see [`crate::coalesce`]),
//!                            │  which gathers the queue's solves
//!                            │  for its graph when it flushes;
//!                            │  batch → one solve_group per graph
//!                            ▼
//!          each job's Reply → completion mailbox + eventfd wakeup
//! ```
//!
//! The server plugs one handler into the frontend it shares with
//! `mwc-router`. Serving is Linux-only: elsewhere [`start`] returns
//! [`std::io::ErrorKind::Unsupported`].
//!
//! Properties this shape buys:
//!
//! * **Admission control** — solving work is bounded by `workers +
//!   queue_capacity`; beyond that the server answers `overloaded`
//!   immediately instead of queueing without bound and timing everyone
//!   out. Control-plane commands bypass the queue, so `stats` stays
//!   answerable *while* the server sheds load — exactly when you need it.
//! * **End-to-end deadlines** — `deadline_ms` starts counting when the
//!   request is read; queue wait is charged against it, and the residue
//!   becomes the solver's cooperative
//!   [`QueryOptions`](mwc_core::QueryOptions) deadline. A
//!   request that expires in the queue is failed without starting.
//! * **One executor** — a coalescing window and a wire `batch` both run
//!   through [`CatalogEntry::solve_group`], which answers identical
//!   queries once and lets a query join the identical execution another
//!   window or batch has in flight. A flushing window also
//!   takes the solves for its graph still waiting in the admission queue
//!   (up to a queued `load` of the graph; deadline-bearing requests stay
//!   for the workers), so a backlog of repeated queries is solved once
//!   instead of once per worker pickup.
//! * **Connection scale** — 10k mostly-idle connections cost the one
//!   loop thread and a table entry each; slow clients are bounded by a
//!   per-connection write-buffer cap.
//! * **Failure isolation** — a worker runs each job under
//!   `catch_unwind`: a panic costs that job's response, answered
//!   `internal`, and is counted in `panics_total`; the worker keeps
//!   serving.
//!
//! Shutdown is graceful: the queue drains, workers finish in-flight
//! solves, the frontend flushes their responses, and `join` collects
//! every thread.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mwc_core::{GroupQuery, GroupStats};
use mwc_graph::NodeId;

use crate::catalog::{Catalog, CatalogEntry};
use crate::coalesce::{Backlog, CoalesceConfig, Coalescer, Member, Responder, Submit};
use crate::error::ServiceError;
use crate::event_loop::{
    shutdown_ack, Handled, Handler, Limits, Reply, Slot, DEFAULT_MAX_WRITE_BUFFER,
};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::protocol::{
    cache_seed_to_json, error_json, error_response, ok_response, report_to_json, Command, Request,
    SolveParams,
};
use crate::trace::{
    next_trace_id, span_tree, SlowLog, TraceContext, TraceRecorder, DEFAULT_SLOWLOG_CAPACITY,
    DEFAULT_SLOWLOG_MS, NO_PARENT,
};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing solving work. Default: available
    /// parallelism, capped at 8 (solvers parallelize internally when a
    /// worker is otherwise idle).
    pub workers: usize,
    /// Bounded admission-queue depth (jobs waiting beyond the ones being
    /// executed). Requests arriving when it is full get `overloaded`.
    pub queue_capacity: usize,
    /// Hard cap on a request line's length, in bytes.
    pub max_line_bytes: usize,
    /// Maximum queries accepted in one `batch` request.
    pub max_batch: usize,
    /// Maximum concurrent connections. Beyond it, new connections get
    /// one `too_many_connections` error line and are closed — so
    /// idle-connection floods are bounded, not just solve traffic.
    pub max_connections: usize,
    /// The frontend's poll interval: how quickly it notices shutdown.
    pub poll_interval: Duration,
    /// Cross-request solve coalescing (see [`crate::coalesce`]). On by
    /// default; `mwc-server --no-coalesce` / `--coalesce-window-us` land
    /// here.
    pub coalesce: CoalesceConfig,
    /// Requests whose total latency (read → response written) crosses
    /// this threshold land in the slow-query ring served by the
    /// `slowlog` command (`mwc-server --slowlog-ms` lands here).
    pub slowlog_threshold: Duration,
    /// Slow-query ring capacity: newest entries evict oldest beyond it.
    pub slowlog_capacity: usize,
    /// Per-connection outbound byte cap: a client not reading its
    /// responses is disconnected once this many bytes are queued for it,
    /// instead of buffering without bound. Reading from the connection
    /// pauses at half this backlog.
    pub max_write_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(2)
                .min(8),
            queue_capacity: 64,
            max_line_bytes: 4 << 20,
            max_batch: 4096,
            max_connections: 1024,
            poll_interval: Duration::from_millis(50),
            coalesce: CoalesceConfig::default(),
            slowlog_threshold: Duration::from_millis(DEFAULT_SLOWLOG_MS),
            slowlog_capacity: DEFAULT_SLOWLOG_CAPACITY,
            max_write_buffer: DEFAULT_MAX_WRITE_BUFFER,
        }
    }
}

struct Job {
    request: Request,
    reply: Reply,
    received: Instant,
}

/// FIFO queue with a hard capacity; `try_push` fails fast when full.
struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Pushes the job `make` builds, or fails without building it when
    /// the queue is full.
    fn try_push(&self, make: impl FnOnce() -> Job, metrics: &Metrics) -> Result<(), ServiceError> {
        let mut jobs = self.jobs.lock().expect("queue lock poisoned");
        if jobs.len() >= self.capacity {
            return Err(ServiceError::Overloaded {
                queue_capacity: self.capacity,
            });
        }
        jobs.push_back(make());
        let depth = jobs.len() as u64;
        metrics.queue_depth.store(depth, Ordering::Relaxed);
        metrics.queue_peak.fetch_max(depth, Ordering::Relaxed);
        drop(jobs);
        self.ready.notify_one();
        Ok(())
    }

    /// Removes the jobs [`solves_to_gather`] picks for `graph`, in queue
    /// order; every other job keeps its place.
    fn take_solves(
        &self,
        graph: &str,
        take: &mut dyn FnMut(&SolveParams, &[NodeId]) -> bool,
        metrics: &Metrics,
    ) -> Vec<Job> {
        let mut jobs = self.jobs.lock().expect("queue lock poisoned");
        let picked = solves_to_gather(jobs.iter().map(|job| &job.request), graph, take);
        if picked.is_empty() {
            return Vec::new();
        }
        let mut taken: Vec<Job> = picked
            .iter()
            .rev()
            .map(|&i| jobs.remove(i).expect("picked from this queue"))
            .collect();
        taken.reverse();
        metrics
            .queue_depth
            .store(jobs.len() as u64, Ordering::Relaxed);
        taken
    }

    /// Blocks for the next job; `None` once shutdown is set *and* the
    /// queue has drained (accepted work is finished, not dropped).
    fn pop(&self, shutdown: &AtomicBool, metrics: &Metrics) -> Option<Job> {
        let mut jobs = self.jobs.lock().expect("queue lock poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                metrics
                    .queue_depth
                    .store(jobs.len() as u64, Ordering::Relaxed);
                return Some(job);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(jobs, Duration::from_millis(50))
                .expect("queue lock poisoned");
            jobs = guard;
        }
    }
}

/// The admission-queue scan a flushing coalescing window runs: indices,
/// in queue order, of the `solve` requests for `graph` without a
/// deadline that `take` accepts. The scan stops at a queued `load` of
/// `graph`, which may replace the graph the solves behind it should see.
fn solves_to_gather<'a>(
    requests: impl IntoIterator<Item = &'a Request>,
    graph: &str,
    take: &mut dyn FnMut(&SolveParams, &[NodeId]) -> bool,
) -> Vec<usize> {
    let mut picked = Vec::new();
    for (i, request) in requests.into_iter().enumerate() {
        match &request.command {
            Command::Load { name, .. } if name == graph => break,
            Command::Solve { params, q }
                if params.graph == graph && params.deadline_ms.is_none() && take(params, q) =>
            {
                picked.push(i)
            }
            _ => {}
        }
    }
    picked
}

/// What the wire `batch` command's per-graph groups shared: the `stats`
/// command's flat `"batch"` section.
#[derive(Default)]
struct BatchCounters {
    requests: AtomicU64,
    deduped: AtomicU64,
    joined: AtomicU64,
    executed: AtomicU64,
}

impl BatchCounters {
    fn record(&self, stats: &GroupStats) {
        self.requests.fetch_add(stats.requests, Ordering::Relaxed);
        self.deduped.fetch_add(stats.deduped, Ordering::Relaxed);
        self.joined.fetch_add(stats.joined, Ordering::Relaxed);
        self.executed.fetch_add(stats.executed, Ordering::Relaxed);
    }

    fn stats_json(&self) -> Json {
        let load = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        Json::obj([
            ("requests", load(&self.requests)),
            ("deduped", load(&self.deduped)),
            ("joined", load(&self.joined)),
            ("executed", load(&self.executed)),
        ])
    }
}

struct Inner {
    catalog: Arc<Catalog>,
    metrics: Arc<Metrics>,
    config: ServerConfig,
    queue: JobQueue,
    coalescer: Coalescer,
    batch: BatchCounters,
    slowlog: SlowLog,
    shutdown: AtomicBool,
}

/// A flushing window gathers from the server's admission queue.
impl Backlog for Arc<Inner> {
    fn gather(
        &self,
        graph: &str,
        entry: &Arc<CatalogEntry>,
        take: &mut dyn FnMut(&SolveParams, &[NodeId]) -> bool,
    ) -> Vec<Member> {
        // A worker popping these solves would look the graph up itself;
        // gather them only while that lookup still finds the window's
        // entry.
        if !self
            .catalog
            .get(graph)
            .is_ok_and(|current| Arc::ptr_eq(&current, entry))
        {
            return Vec::new();
        }
        self.queue
            .take_solves(graph, take, &self.metrics)
            .into_iter()
            .map(|job| {
                self.metrics
                    .record_stage("admission", job.received.elapsed());
                park(self, job)
            })
            .collect()
    }
}

impl Inner {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.ready.notify_all();
        // Flush every coalescing window before anyone sees the shutdown
        // acknowledged: no request may be left parked on a condvar.
        self.coalescer.drain();
    }
}

/// A running server: its address, shared state, and every thread it
/// spawned. Stop it with [`Self::shutdown`] (or let a protocol
/// `shutdown` command initiate the drain and [`Self::wait`] for it).
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    /// The frontend's loop thread (`None` once joined).
    frontend: Option<JoinHandle<()>>,
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
/// accepting connections against `catalog`. Serving is Linux-only:
/// elsewhere this returns [`std::io::ErrorKind::Unsupported`].
pub fn start(
    catalog: Arc<Catalog>,
    config: ServerConfig,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let limits = Limits {
        max_connections: config.max_connections,
        max_line_bytes: config.max_line_bytes,
        max_write_buffer: config.max_write_buffer,
        // Admission answers `overloaded` inline once the queue is full,
        // so this bounds only the answers parked behind a slow request.
        max_unanswered: 1024,
        poll_interval: config.poll_interval,
    };
    let inner = Arc::new(Inner {
        catalog,
        metrics: Arc::new(Metrics::new()),
        queue: JobQueue::new(config.queue_capacity.max(1)),
        coalescer: Coalescer::new(config.coalesce.clone()),
        batch: BatchCounters::default(),
        slowlog: SlowLog::new(config.slowlog_threshold, config.slowlog_capacity),
        config,
        shutdown: AtomicBool::new(false),
    });
    let frontend = crate::event_loop::spawn(Arc::clone(&inner), listener, limits, "mwc-epoll")?;
    let workers: Vec<JoinHandle<()>> = (0..inner.config.workers.max(1))
        .map(|i| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("mwc-worker-{i}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn worker")
        })
        .collect();
    Ok(ServerHandle {
        inner,
        addr,
        workers,
        frontend: Some(frontend),
    })
}

impl ServerHandle {
    /// The bound address (port resolved if `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The catalog this server answers from.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.inner.catalog
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// The server's slow-query ring (what the `slowlog` command serves).
    pub fn slowlog(&self) -> &SlowLog {
        &self.inner.slowlog
    }

    /// Whether shutdown has been initiated (by [`Self::shutdown`] or a
    /// protocol `shutdown` command).
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Initiates a graceful shutdown and joins every thread: queued work
    /// is finished, new requests are refused, connections close.
    pub fn shutdown(mut self) {
        self.inner.begin_shutdown();
        self.join_all();
    }

    /// Serves until a protocol `shutdown` command arrives, then drains
    /// and joins (the `mwc-server` binary's main loop).
    pub fn wait(mut self) {
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join_all();
    }

    fn join_all(&mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(frontend) = self.frontend.take() {
            // After the workers: every admitted job has answered (or
            // dropped) its reply by now, so the frontend's outstanding
            // count can only drain to zero.
            let _ = frontend.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.frontend.is_some() {
            self.inner.begin_shutdown();
            self.join_all();
        }
    }
}

/// The server's side of the frontend: control-plane commands are
/// answered on the loop thread, everything else goes through admission
/// to the worker pool.
impl Handler for Arc<Inner> {
    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        Inner::begin_shutdown(self);
    }

    fn handle(&self, request: Request, _line: &str, slot: Slot<'_>) -> Handled {
        if matches!(request.command, Command::Shutdown) {
            // Flag first, then acknowledge — and the ack is sequenced
            // after this connection's earlier pipelined responses, so a
            // client that pipelines solves before `shutdown` sees every
            // answer, then the ack, then EOF.
            Inner::begin_shutdown(self);
            return Handled::Close(shutdown_ack(&request.id));
        }
        match control_response(self, &request) {
            Some((line, ok)) => Handled::Inline(line, ok),
            None => admit(self, request, slot, Instant::now()),
        }
    }
}

/// Answers a control-plane command inline — never queued, so these work
/// even under overload. `None` for data-plane commands (and `shutdown`,
/// which the handler answers itself).
fn control_response(inner: &Inner, request: &Request) -> Option<(String, bool)> {
    match request.command {
        Command::Ping => Some((
            ok_response(&request.id, vec![("pong", Json::Bool(true))]),
            true,
        )),
        Command::Stats => {
            let mut snap = inner.metrics.snapshot(inner.queue.capacity);
            // Solve-cache counters live in the per-graph engines, not
            // the metrics registry; graft them into the snapshot.
            if let Json::Obj(fields) = &mut snap {
                fields.insert("solve_cache".to_string(), cache_stats_json(&inner.catalog));
                fields.insert("coalesce".to_string(), inner.coalescer.stats_json());
                fields.insert("batch".to_string(), inner.batch.stats_json());
                // Kept so the stats shape stays stable; one frontend serves
                // every connection, so it always reads "epoll".
                fields.insert("transport".to_string(), Json::from("epoll"));
            }
            Some((ok_response(&request.id, vec![("stats", snap)]), true))
        }
        Command::Metrics => {
            let text = inner.metrics.render_prometheus(inner.queue.capacity);
            Some((
                ok_response(&request.id, vec![("text", Json::Str(text))]),
                true,
            ))
        }
        Command::Slowlog { limit } => {
            let entries = inner.slowlog.snapshot(limit.unwrap_or(usize::MAX));
            Some((
                ok_response(
                    &request.id,
                    vec![
                        (
                            "threshold_ms",
                            Json::from(inner.slowlog.threshold().as_millis() as u64),
                        ),
                        ("entries", Json::Arr(entries)),
                    ],
                ),
                true,
            ))
        }
        Command::Graphs => {
            let graphs: Vec<Json> = inner
                .catalog
                .list()
                .iter()
                .map(|e| {
                    Json::obj([
                        ("name", Json::from(e.name.as_str())),
                        ("source", Json::from(e.source.as_str())),
                        ("nodes", Json::from(e.num_nodes())),
                        ("edges", Json::from(e.num_edges())),
                        ("weighted", Json::Bool(e.is_weighted())),
                        (
                            "solvers",
                            Json::Arr(e.solver_names().iter().map(|s| Json::from(*s)).collect()),
                        ),
                    ])
                })
                .collect();
            Some((
                ok_response(&request.id, vec![("graphs", Json::Arr(graphs))]),
                true,
            ))
        }
        Command::Evict { ref name } => {
            // Fail everything parked in the graph's coalescing window
            // *before* removing the entry, so no request waits on a
            // queue whose graph is gone (stable `graph_evicted` code,
            // retryable).
            let aborted = inner.coalescer.abort(name);
            let evicted = inner.catalog.evict(name);
            Some((
                ok_response(
                    &request.id,
                    vec![
                        ("evicted", Json::Bool(evicted)),
                        ("aborted", Json::from(aborted)),
                    ],
                ),
                true,
            ))
        }
        Command::CacheExport { ref name } => {
            // Control-plane (bypasses the admission queue): exporting a
            // warm cache must work while the data plane is saturated —
            // that is exactly when a migration wants it.
            let payload = match inner.catalog.get(name) {
                Ok(entry) => {
                    let seeds = entry.export_cache();
                    vec![
                        ("name", Json::from(name.as_str())),
                        ("source", Json::from(entry.source.as_str())),
                        (
                            "entries",
                            Json::Arr(seeds.iter().map(cache_seed_to_json).collect()),
                        ),
                    ]
                }
                Err(err) => {
                    inner.metrics.error_total.fetch_add(1, Ordering::Relaxed);
                    return Some((error_response(&request.id, &err), false));
                }
            };
            Some((ok_response(&request.id, payload), true))
        }
        Command::Shard { .. } | Command::Reshard { .. } => {
            // A single server is not a shard ring; the router answers
            // these. Stable error so probes can tell the two apart.
            let err = ServiceError::BadRequest(
                "no shard ring here: \"shard\" and \"reshard\" are answered by mwc-router"
                    .to_string(),
            );
            inner
                .metrics
                .bad_request_total
                .fetch_add(1, Ordering::Relaxed);
            Some((error_response(&request.id, &err), false))
        }
        Command::Shutdown
        | Command::Solve { .. }
        | Command::Batch { .. }
        | Command::Load { .. }
        | Command::Burn { .. } => None,
    }
}

/// Admits a data-plane request into the worker queue, pinning its trace
/// id at the entry point. Answers inline when the request is rejected
/// instead (oversized batch, shutdown, full queue); otherwise the job
/// carries the request's reply to a worker.
fn admit(inner: &Inner, mut request: Request, slot: Slot<'_>, received: Instant) -> Handled {
    // Pin the trace id at the entry point: every layer below — the
    // span tree, the slow log, the coalescing window — reads the
    // same one. The router forwards its own, so a shard keeps it.
    if let Command::Solve { ref mut params, .. } | Command::Batch { ref mut params, .. } =
        request.command
    {
        if params.trace && params.trace_id.is_none() {
            params.trace_id = Some(next_trace_id());
        }
    }
    if let Command::Batch { ref queries, .. } = request.command {
        if queries.len() > inner.config.max_batch {
            let err = ServiceError::BadRequest(format!(
                "batch of {} exceeds max_batch = {}",
                queries.len(),
                inner.config.max_batch
            ));
            inner
                .metrics
                .bad_request_total
                .fetch_add(1, Ordering::Relaxed);
            return Handled::Inline(error_response(&request.id, &err), false);
        }
    }
    if inner.shutdown.load(Ordering::SeqCst) {
        return Handled::Inline(
            error_response(&request.id, &ServiceError::ShuttingDown),
            false,
        );
    }
    let id = request.id.clone();
    let job = || Job {
        reply: slot.defer(&request.id),
        request,
        received,
    };
    match inner.queue.try_push(job, &inner.metrics) {
        Ok(()) => Handled::Deferred,
        Err(e) => {
            inner.metrics.overload_total.fetch_add(1, Ordering::Relaxed);
            Handled::Inline(error_response(&id, &e), false)
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    while let Some(job) = inner.queue.pop(&inner.shutdown, &inner.metrics) {
        // A panic costs this one job: its reply, dropped while unwinding,
        // answers `internal`, and the worker keeps serving.
        if catch_unwind(AssertUnwindSafe(|| run_job(inner, job))).is_err() {
            inner.metrics.panics_total.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn run_job(inner: &Arc<Inner>, job: Job) {
    // Queue wait, worker pickup included, is the admission stage.
    inner
        .metrics
        .record_stage("admission", job.received.elapsed());
    let Some(job) = maybe_coalesce(inner, job) else {
        return; // parked in (or answered by) a coalescing window
    };
    // Log before answering: once the response is on the wire the client
    // may immediately ask `slowlog` (served by the frontend) and must
    // see this request.
    let (line, ok) = match execute(inner, &job) {
        Ok(payload) => (ok_response(&job.request.id, payload), true),
        Err(e) => {
            if matches!(e, ServiceError::DeadlineExceeded { .. }) {
                inner
                    .metrics
                    .queue_deadline_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            (error_response(&job.request.id, &e), false)
        }
    };
    observe_slow(inner, &job, ok);
    job.reply.send(line, ok);
}

/// Feeds the slow-query ring after a data-plane response is written:
/// the entry is built only when the total latency crossed the threshold.
fn observe_slow(inner: &Inner, job: &Job, ok: bool) {
    let total = job.received.elapsed();
    inner
        .slowlog
        .observe(total, || slowlog_entry(&job.request.command, ok));
}

/// The slow-query ring's JSON shape for one request (before `SlowLog`
/// adds `seq`/`total_ms`/`age_s`).
fn slowlog_entry(command: &Command, ok: bool) -> Json {
    let mut fields: Vec<(&'static str, Json)> = Vec::new();
    match command {
        Command::Solve { params, q } => {
            fields.push(("cmd", Json::from("solve")));
            fields.push(("graph", Json::from(params.graph.as_str())));
            fields.push(("solver", Json::from(params.solver.as_str())));
            fields.push(("q_len", Json::from(q.len())));
            if let Some(id) = &params.trace_id {
                fields.push(("trace_id", Json::from(id.as_str())));
            }
        }
        Command::Batch { params, queries } => {
            fields.push(("cmd", Json::from("batch")));
            if !params.graph.is_empty() {
                fields.push(("graph", Json::from(params.graph.as_str())));
            }
            fields.push(("solver", Json::from(params.solver.as_str())));
            fields.push(("queries", Json::from(queries.len())));
            if let Some(id) = &params.trace_id {
                fields.push(("trace_id", Json::from(id.as_str())));
            }
        }
        Command::Load { name, .. } => {
            fields.push(("cmd", Json::from("load")));
            fields.push(("graph", Json::from(name.as_str())));
        }
        Command::Burn { ms } => {
            fields.push(("cmd", Json::from("burn")));
            fields.push(("burn_ms", Json::from(*ms)));
        }
        _ => fields.push(("cmd", Json::from("other"))),
    }
    fields.push(("ok", Json::Bool(ok)));
    Json::obj(fields)
}

/// Routes a `solve` job through the coalescer. Returns the job back when
/// it should run the classic direct path (coalescing disabled, or not a
/// `solve`); `None` when the request was parked in a window, executed
/// here after a bypass verdict, or already answered with an error.
fn maybe_coalesce(inner: &Arc<Inner>, job: Job) -> Option<Job> {
    if !inner.coalescer.enabled() {
        return Some(job);
    }
    let Command::Solve { ref params, ref q } = job.request.command else {
        return Some(job);
    };
    // Same admission accounting as the direct path: queue wait is charged
    // against the deadline before anything else happens.
    let remaining = match remaining_budget(params.deadline_ms, job.received.elapsed()) {
        Ok(r) => r,
        Err(e) => {
            inner
                .metrics
                .queue_deadline_total
                .fetch_add(1, Ordering::Relaxed);
            return answer_error(inner, job, e);
        }
    };
    let entry = match inner.catalog.get(&params.graph) {
        Ok(entry) => entry,
        Err(e) => return answer_error(inner, job, e),
    };
    let (solver, q, options) = (params.solver.clone(), q.clone(), params.options(remaining));
    let member = park(inner, job);
    let ctx = member.trace.clone();
    match inner.coalescer.submit(&entry, member, remaining, inner) {
        Submit::Queued => None,
        Submit::Direct(respond) => {
            // Bypass verdict (tight deadline, full queue, drain): run it
            // uncoalesced on this worker, through the same responder.
            let result = entry
                .solve(&solver, &q, &options.trace(ctx))
                .map_err(ServiceError::Core);
            respond(result);
            None
        }
    }
}

/// Answers a job that failed before it could run.
fn answer_error(inner: &Inner, job: Job, e: ServiceError) -> Option<Job> {
    observe_slow(inner, &job, false);
    let line = error_response(&job.request.id, &e);
    job.reply.send(line, false);
    None
}

/// Readies a `solve` job for a coalescing window: starts its trace and
/// builds the responder that answers it through the job's reply.
fn park(inner: &Arc<Inner>, job: Job) -> Member {
    let Job {
        request,
        reply,
        received,
    } = job;
    let Command::Solve { params, q } = request.command else {
        unreachable!("only solves park in a coalescing window")
    };
    let trace = begin_trace(&params, received);
    let ctx = trace.as_ref().map(RequestTrace::ctx).unwrap_or_default();
    let respond: Responder = {
        let id = request.id;
        let inner = Arc::clone(inner);
        let graph = params.graph.clone();
        let solver = params.solver.clone();
        let trace_id = params.trace_id.clone();
        let q_len = q.len();
        Box::new(move |result| {
            let ok = result.is_ok();
            let response = match result {
                Ok(report) => {
                    let solved = Duration::from_secs_f64(report.seconds);
                    inner.metrics.record_solve(&solver, solved);
                    inner.metrics.record_stage("solve", solved);
                    let t_ser = Instant::now();
                    let mut payload = vec![
                        ("graph", Json::from(graph.as_str())),
                        ("report", report_to_json(&report)),
                    ];
                    if let Some(tr) = &trace {
                        tr.ctx().record("serialize", t_ser, Instant::now());
                        payload.push(("trace", tr.finish("solve", received)));
                    }
                    inner.metrics.record_stage("serialize", t_ser.elapsed());
                    ok_response(&id, payload)
                }
                Err(e) => {
                    if matches!(e, ServiceError::DeadlineExceeded { .. }) {
                        inner
                            .metrics
                            .queue_deadline_total
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    error_response(&id, &e)
                }
            };
            // Log before answering: once the response is on the wire the
            // client may immediately ask `slowlog` (served by the
            // frontend) and must see this request.
            inner.slowlog.observe(received.elapsed(), || {
                let mut fields = vec![
                    ("cmd", Json::from("solve")),
                    ("graph", Json::from(graph.as_str())),
                    ("solver", Json::from(solver.as_str())),
                    ("q_len", Json::from(q_len)),
                    ("ok", Json::Bool(ok)),
                ];
                if let Some(id) = &trace_id {
                    fields.push(("trace_id", Json::from(id.as_str())));
                }
                Json::obj(fields)
            });
            reply.send(response, ok);
        })
    };
    Member {
        params,
        q,
        received,
        trace: ctx,
        respond,
    }
}

/// Tracing state for one traced request: the shared recorder (origin
/// pinned to the read instant), the reserved root span id stages attach
/// under, and the wire trace id.
struct RequestTrace {
    recorder: Arc<TraceRecorder>,
    root: u32,
    trace_id: String,
}

impl RequestTrace {
    /// A context recording stages as children of the request root.
    fn ctx(&self) -> TraceContext {
        TraceContext::attached(Arc::clone(&self.recorder), self.root)
    }

    /// Completes the root span (named `solve`/`batch`) over `received →
    /// now` and assembles the inline span tree.
    fn finish(&self, name: &'static str, received: Instant) -> Json {
        self.recorder.complete(
            self.root,
            name,
            NO_PARENT,
            received,
            Instant::now(),
            Vec::new(),
        );
        span_tree(&self.trace_id, &self.recorder)
    }
}

/// Starts tracing when the request asked for it (`None` otherwise): the
/// root span is reserved up front, and the time between the read and the
/// worker pickup (or a flushing window's gather) is recorded as the
/// `admission` span.
fn begin_trace(params: &SolveParams, received: Instant) -> Option<RequestTrace> {
    if !params.trace {
        return None;
    }
    let recorder = TraceRecorder::with_origin(received);
    let root = recorder.reserve()?;
    let tr = RequestTrace {
        trace_id: params.trace_id.clone().unwrap_or_else(next_trace_id),
        recorder,
        root,
    };
    tr.ctx().record("admission", received, Instant::now());
    Some(tr)
}

/// Deadline accounting: how much of `deadline_ms` is left after `spent`,
/// or a `DeadlineExceeded` if the budget is gone.
fn remaining_budget(
    deadline_ms: Option<u64>,
    spent: Duration,
) -> Result<Option<Duration>, ServiceError> {
    match deadline_ms {
        None => Ok(None),
        Some(ms) => {
            let budget = Duration::from_millis(ms);
            budget
                .checked_sub(spent)
                .filter(|d| !d.is_zero())
                .map(Some)
                .ok_or(ServiceError::DeadlineExceeded {
                    queued_ms: spent.as_millis() as u64,
                })
        }
    }
}

/// Aggregated solve-cache counters across every cataloged engine, plus a
/// per-graph breakdown — the `stats` command's `"solve_cache"` section.
fn cache_stats_json(catalog: &Catalog) -> Json {
    let entries = catalog.list();
    let (mut hits, mut misses, mut evictions, mut expired) = (0u64, 0u64, 0u64, 0u64);
    let mut resident = 0usize;
    let mut bytes_used = 0usize;
    let per_graph: Vec<(String, Json)> = entries
        .iter()
        .map(|e| {
            let s = e.cache_stats();
            hits += s.hits;
            misses += s.misses;
            evictions += s.evictions;
            expired += s.expired;
            resident += s.entries;
            bytes_used += s.bytes_used;
            (
                e.name.clone(),
                Json::obj([
                    ("hits", Json::from(s.hits)),
                    ("misses", Json::from(s.misses)),
                    ("evictions", Json::from(s.evictions)),
                    ("expired", Json::from(s.expired)),
                    ("entries", Json::from(s.entries)),
                    ("capacity", Json::from(s.capacity)),
                    ("bytes_used", Json::from(s.bytes_used)),
                    ("capacity_bytes", Json::from(s.capacity_bytes)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("hits", Json::from(hits)),
        ("misses", Json::from(misses)),
        ("evictions", Json::from(evictions)),
        ("expired", Json::from(expired)),
        ("entries", Json::from(resident)),
        ("bytes_used", Json::from(bytes_used)),
        ("graphs", Json::Obj(per_graph.into_iter().collect())),
    ])
}

fn execute(inner: &Arc<Inner>, job: &Job) -> Result<Vec<(&'static str, Json)>, ServiceError> {
    match &job.request.command {
        Command::Solve { params, q } => {
            let remaining = remaining_budget(params.deadline_ms, job.received.elapsed())?;
            let entry = inner.catalog.get(&params.graph)?;
            let trace = begin_trace(params, job.received);
            let mut options = params.options(remaining);
            if let Some(tr) = &trace {
                options = options.trace(tr.ctx());
            }
            let t_solve = Instant::now();
            let report = entry.solve(&params.solver, q, &options)?;
            inner.metrics.record_stage("solve", t_solve.elapsed());
            inner
                .metrics
                .record_solve(&params.solver, Duration::from_secs_f64(report.seconds));
            let t_ser = Instant::now();
            let mut payload = vec![
                ("graph", Json::from(params.graph.as_str())),
                ("report", report_to_json(&report)),
            ];
            if let Some(tr) = &trace {
                tr.ctx().record("serialize", t_ser, Instant::now());
                payload.push(("trace", tr.finish("solve", job.received)));
            }
            inner.metrics.record_stage("serialize", t_ser.elapsed());
            Ok(payload)
        }
        Command::Batch { params, queries } => {
            let remaining = remaining_budget(params.deadline_ms, job.received.elapsed())?;
            let trace = begin_trace(params, job.received);
            let mut options = params.options(remaining);
            if let Some(tr) = &trace {
                options = options.trace(tr.ctx());
            }
            // Entries may target different graphs (the router's fan-out
            // shape); each graph's entries run as one solve_group, which
            // solves identical entries once and joins identical executions
            // in flight, then the replies are reassembled into the
            // original request order. Group errors (unknown graph) land
            // per entry, like per-query solve errors.
            let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
            for (i, entry) in queries.iter().enumerate() {
                let name = entry.graph_name(&params.graph);
                match groups.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, idxs)) => idxs.push(i),
                    None => groups.push((name, vec![i])),
                }
            }
            let mut ok = 0u64;
            let mut slots: Vec<Option<Json>> = vec![None; queries.len()];
            let t_solve = Instant::now();
            for (name, idxs) in groups {
                match inner.catalog.get(name) {
                    Err(e) => {
                        for &i in &idxs {
                            slots[i] = Some(Json::obj([("error", error_json(&e))]));
                        }
                    }
                    Ok(entry) => {
                        let group: Vec<GroupQuery> = idxs
                            .iter()
                            .map(|&i| {
                                GroupQuery::new(
                                    params.solver.clone(),
                                    queries[i].q.clone(),
                                    options.clone(),
                                )
                            })
                            .collect();
                        let outcome = entry.solve_group(&group);
                        inner.batch.record(&outcome.stats);
                        for (&i, r) in idxs.iter().zip(outcome.results) {
                            slots[i] = Some(match r {
                                Ok(report) => {
                                    ok += 1;
                                    inner.metrics.record_solve(
                                        &params.solver,
                                        Duration::from_secs_f64(report.seconds),
                                    );
                                    report_to_json(&report)
                                }
                                Err(e) => {
                                    Json::obj([("error", error_json(&ServiceError::Core(e)))])
                                }
                            });
                        }
                    }
                }
            }
            inner.metrics.record_stage("solve", t_solve.elapsed());
            let t_ser = Instant::now();
            let mut payload = vec![
                (
                    "graph",
                    if params.graph.is_empty() {
                        Json::Null
                    } else {
                        Json::from(params.graph.as_str())
                    },
                ),
                ("solved", Json::from(ok)),
                ("reports", Json::Arr(slots.into_iter().flatten().collect())),
            ];
            if let Some(tr) = &trace {
                // Per-entry stage spans from parallel batch lanes may
                // overlap in time; only the traced `solve` tree promises
                // non-overlapping siblings.
                tr.ctx().record("serialize", t_ser, Instant::now());
                payload.push(("trace", tr.finish("batch", job.received)));
            }
            inner.metrics.record_stage("serialize", t_ser.elapsed());
            Ok(payload)
        }
        Command::Load {
            name,
            source,
            cache,
        } => {
            // A load that replaces an entry invalidates the open
            // coalescing window parked on the old engine: fail those
            // requests retryably rather than answering from a stale (or
            // torn) entry.
            inner.coalescer.abort(name);
            let entry = inner.catalog.load(name, source)?;
            // Warm-cache seeds (from a `cache_export` on another replica)
            // go in after the build, before the response — the first
            // request this entry serves can already hit.
            let imported = entry.import_cache(cache);
            Ok(vec![
                ("loaded", Json::from(name.as_str())),
                ("nodes", Json::from(entry.num_nodes())),
                ("edges", Json::from(entry.num_edges())),
                ("cache_imported", Json::from(imported)),
            ])
        }
        Command::Burn { ms } => {
            let start = Instant::now();
            let budget = Duration::from_millis(*ms);
            while start.elapsed() < budget {
                std::hint::spin_loop();
            }
            Ok(vec![("burned_ms", Json::from(*ms))])
        }
        // Control-plane commands never reach the queue.
        Command::Stats
        | Command::Metrics
        | Command::Slowlog { .. }
        | Command::Graphs
        | Command::Shard { .. }
        | Command::Reshard { .. }
        | Command::CacheExport { .. }
        | Command::Evict { .. }
        | Command::Ping
        | Command::Shutdown => Err(ServiceError::BadRequest(
            "control command routed to worker pool (server bug)".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    #[test]
    fn gather_scan_takes_same_graph_solves_in_order_and_stops_at_a_load() {
        let lines = [
            r#"{"cmd":"solve","graph":"g","solver":"ws-q","q":[0,1]}"#,
            r#"{"cmd":"solve","graph":"h","solver":"ws-q","q":[0,1]}"#,
            r#"{"cmd":"solve","graph":"g","solver":"ws-q","q":[2,3],"deadline_ms":500}"#,
            r#"{"cmd":"batch","graph":"g","solver":"ws-q","queries":[[0,1]]}"#,
            r#"{"cmd":"solve","graph":"g","solver":"st","q":[4,5]}"#,
            r#"{"cmd":"solve","graph":"g","solver":"ws-q","q":[6,7]}"#,
            r#"{"cmd":"load","name":"h","source":"karate"}"#,
            r#"{"cmd":"solve","graph":"g","solver":"ws-q","q":[8,9]}"#,
            r#"{"cmd":"load","name":"g","source":"karate"}"#,
            r#"{"cmd":"solve","graph":"g","solver":"ws-q","q":[0,1]}"#,
        ];
        let requests: Vec<Request> = lines.iter().map(|l| parse_request(l).unwrap()).collect();
        let mut offered: Vec<Vec<NodeId>> = Vec::new();
        let picked = solves_to_gather(&requests, "g", &mut |_, q| {
            offered.push(q.to_vec());
            q != [6, 7] // the window refuses this one
        });
        // Other graphs, deadlines and batches are skipped; another
        // graph's load is passed over; this graph's load ends the scan.
        assert_eq!(picked, vec![0, 4, 7]);
        assert_eq!(
            offered,
            vec![vec![0, 1], vec![4, 5], vec![6, 7], vec![8, 9]]
        );
    }
}
