//! The TCP server: two interchangeable transports in front of a fixed
//! worker pool behind a bounded admission queue.
//!
//! # Architecture
//!
//! ```text
//!            threads transport                 epoll transport (linux)
//!  acceptor ──spawns──▶ reader thread      one event-loop thread:
//!  (1 per connection)                      nonblocking accept + read +
//!        │ parse line → Request            write over a registered
//!        │ control cmds answered inline    connection table (pipelined,
//!        ▼                                 responses in request order)
//!                     bounded JobQueue ──✗ full → "overloaded"
//!                            │
//!               worker pool (N threads): solve/batch/load/burn
//!                            │  solve → per-graph coalescing
//!                            │  window (see [`crate::coalesce`]),
//!                            │  which gathers the queue's solves
//!                            │  for its graph when it flushes;
//!                            │  batch → one solve_group per graph
//!                            ▼
//!          per-connection write mutex  /  completion mailbox
//!          (threads)                      + eventfd wakeup (epoll)
//! ```
//!
//! [`ServerConfig::transport`] selects the transport; both speak the
//! identical wire protocol (the loopback suites run bit-identically
//! under either — CI pins this). The epoll loop lives in the private
//! `event_loop` module, over the tiny syscall shim in `net`.
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
//! * **Connection scale** (epoll) — 10k mostly-idle connections cost one
//!   loop thread and a table entry each, not 10k reader threads; slow
//!   clients are bounded by a per-connection write-buffer cap.
//!
//! Shutdown is graceful: the queue drains, workers finish in-flight
//! solves, readers (or the event loop) notice within one poll interval,
//! and `join` collects every thread.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mwc_core::{GroupQuery, GroupStats};
use mwc_graph::NodeId;

use crate::catalog::{Catalog, CatalogEntry};
use crate::coalesce::{Backlog, CoalesceConfig, Coalescer, Member, Responder, Submit};
use crate::error::ServiceError;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::protocol::{
    cache_seed_to_json, error_json, error_response, ok_response, parse_request, report_to_json,
    Command, Request, SolveParams,
};
use crate::trace::{
    next_trace_id, span_tree, SlowLog, TraceContext, TraceRecorder, DEFAULT_SLOWLOG_CAPACITY,
    DEFAULT_SLOWLOG_MS, NO_PARENT,
};

/// Which accept/read/write machinery serves connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One reader thread per connection (portable reference path).
    Threads,
    /// One nonblocking event-loop thread over epoll (linux). Supports
    /// pipelining: many in-flight requests per connection, answered in
    /// request order.
    Epoll,
}

impl Transport {
    /// Platform default — `Epoll` on linux, `Threads` elsewhere —
    /// overridable with `MWC_TRANSPORT=threads|epoll` (how CI runs the
    /// same loopback suites under both transports).
    pub fn from_env_or_default() -> Transport {
        match std::env::var("MWC_TRANSPORT").as_deref() {
            Ok("threads") => Transport::Threads,
            Ok("epoll") => Transport::Epoll,
            _ => {
                if cfg!(target_os = "linux") {
                    Transport::Epoll
                } else {
                    Transport::Threads
                }
            }
        }
    }
}

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
    /// Maximum concurrent connections (each costs one reader thread).
    /// Beyond it, new connections get one `overloaded` error line and
    /// are closed — so idle-connection floods are bounded, not just
    /// solve traffic.
    pub max_connections: usize,
    /// Socket poll interval: how quickly idle readers notice shutdown.
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
    /// Accept/read/write machinery (see [`Transport`]).
    pub transport: Transport,
    /// Per-connection outbound byte cap (epoll transport): a client not
    /// reading its responses is disconnected once this many bytes are
    /// queued for it, instead of buffering without bound. Reading from
    /// the connection pauses at half this backlog.
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
            transport: Transport::from_env_or_default(),
            max_write_buffer: 8 << 20,
        }
    }
}

/// Where a worker's response line goes: straight to the connection's
/// stream (threads transport) or back to the event loop's completion
/// mailbox, tagged with the connection token and per-connection sequence
/// number so pipelined responses flush in request order (epoll).
#[derive(Clone)]
pub(crate) enum ResponseSink {
    Stream(Arc<Mutex<TcpStream>>),
    #[cfg(target_os = "linux")]
    Event {
        shared: Arc<crate::event_loop::LoopShared>,
        token: u64,
        seq: u64,
    },
}

pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) sink: ResponseSink,
    pub(crate) received: Instant,
}

/// FIFO queue with a hard capacity; `try_push` fails fast when full.
pub(crate) struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    pub(crate) ready: Condvar,
    pub(crate) capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn try_push(&self, job: Job, metrics: &Metrics) -> Result<(), ServiceError> {
        let mut jobs = self.jobs.lock().expect("queue lock poisoned");
        if jobs.len() >= self.capacity {
            return Err(ServiceError::Overloaded {
                queue_capacity: self.capacity,
            });
        }
        jobs.push_back(job);
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
pub(crate) struct BatchCounters {
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

pub(crate) struct Inner {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) config: ServerConfig,
    pub(crate) queue: JobQueue,
    pub(crate) coalescer: Coalescer,
    pub(crate) batch: BatchCounters,
    pub(crate) slowlog: SlowLog,
    pub(crate) shutdown: AtomicBool,
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
                let Command::Solve { params, q } = &job.request.command else {
                    unreachable!("take_solves takes solves only")
                };
                park(self, &job, params, q)
            })
            .collect()
    }
}

impl Inner {
    pub(crate) fn begin_shutdown(&self) {
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
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// The epoll transport's single loop thread (`None` under threads).
    event_loop: Option<JoinHandle<()>>,
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
/// accepting connections against `catalog`.
pub fn start(
    catalog: Arc<Catalog>,
    config: ServerConfig,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(Metrics::new());
    let inner = Arc::new(Inner {
        catalog,
        metrics,
        queue: JobQueue::new(config.queue_capacity.max(1)),
        coalescer: Coalescer::new(config.coalesce.clone()),
        batch: BatchCounters::default(),
        slowlog: SlowLog::new(config.slowlog_threshold, config.slowlog_capacity),
        config,
        shutdown: AtomicBool::new(false),
    });

    let workers: Vec<JoinHandle<()>> = (0..inner.config.workers.max(1))
        .map(|i| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("mwc-worker-{i}"))
                .spawn(move || worker_loop(&inner))
                .expect("spawn worker")
        })
        .collect();

    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut acceptor = None;
    let mut event_loop = None;
    match inner.config.transport {
        Transport::Threads => {
            let inner2 = Arc::clone(&inner);
            let readers2 = Arc::clone(&readers);
            acceptor = Some(
                std::thread::Builder::new()
                    .name("mwc-acceptor".to_string())
                    .spawn(move || acceptor_loop(&inner2, &listener, &readers2))
                    .expect("spawn acceptor"),
            );
        }
        #[cfg(target_os = "linux")]
        Transport::Epoll => {
            let shared = crate::event_loop::LoopShared::new()?;
            let inner2 = Arc::clone(&inner);
            event_loop = Some(
                std::thread::Builder::new()
                    .name("mwc-epoll".to_string())
                    .spawn(move || crate::event_loop::run(&inner2, listener, &shared))
                    .expect("spawn event loop"),
            );
        }
        #[cfg(not(target_os = "linux"))]
        Transport::Epoll => {
            // Stop the worker pool we just started before reporting.
            inner.begin_shutdown();
            for w in workers {
                let _ = w.join();
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the epoll transport requires linux; use Transport::Threads",
            ));
        }
    }

    Ok(ServerHandle {
        inner,
        addr,
        acceptor,
        workers,
        readers,
        event_loop,
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
    /// is finished, new requests are refused, readers disconnect.
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
        if let Some(acceptor) = self.acceptor.take() {
            // Unblock the acceptor's blocking `accept` with a no-op
            // connect (the epoll loop needs no wake: its wait times out
            // every poll interval).
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(event_loop) = self.event_loop.take() {
            // After the workers: every admitted job has published its
            // completion by now, so the loop's outstanding count can
            // only drain to zero.
            let _ = event_loop.join();
        }
        let readers: Vec<JoinHandle<()>> = self
            .readers
            .lock()
            .expect("reader registry poisoned")
            .drain(..)
            .collect();
        for r in readers {
            let _ = r.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() || self.event_loop.is_some() {
            self.inner.begin_shutdown();
            self.join_all();
        }
    }
}

fn acceptor_loop(
    inner: &Arc<Inner>,
    listener: &TcpListener,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent accept error (e.g. EMFILE when fds are
                // exhausted) must not busy-spin a core; back off briefly.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connect, or a straggler during drain
        }
        let mut registry = readers.lock().expect("reader registry poisoned");
        registry.retain(|h| !h.is_finished()); // prune dead connections
        if registry.len() >= inner.config.max_connections {
            // Each connection costs a reader thread; refuse beyond the
            // limit so idle floods are bounded, not just solve traffic.
            drop(registry);
            inner.metrics.overload_total.fetch_add(1, Ordering::Relaxed);
            inner.metrics.error_total.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let line = error_response(
                &None,
                &ServiceError::TooManyConnections {
                    limit: inner.config.max_connections,
                },
            );
            let _ = stream.write_all(line.as_bytes());
            let _ = stream.write_all(b"\n");
            continue;
        }
        // Count the connection live at accept, not at reader startup, so
        // the gauge is authoritative the moment the accept returns — the
        // same instant the epoll transport counts it into its table.
        inner
            .metrics
            .connections_total
            .fetch_add(1, Ordering::Relaxed);
        inner
            .metrics
            .connections_live
            .fetch_add(1, Ordering::Relaxed);
        let inner2 = Arc::clone(inner);
        let spawned = std::thread::Builder::new()
            .name("mwc-conn".to_string())
            .spawn(move || serve_connection(&inner2, stream));
        match spawned {
            Ok(handle) => registry.push(handle),
            Err(_) => {
                // Thread exhaustion (e.g. at high --connections counts):
                // shed the connection like an over-limit accept instead
                // of killing the acceptor.
                inner
                    .metrics
                    .connections_live
                    .fetch_sub(1, Ordering::Relaxed);
                inner.metrics.overload_total.fetch_add(1, Ordering::Relaxed);
                inner.metrics.error_total.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

pub(crate) fn write_line(sink: &ResponseSink, line: &str, ok: bool, metrics: &Metrics) {
    if ok {
        metrics.ok_total.fetch_add(1, Ordering::Relaxed);
    } else {
        metrics.error_total.fetch_add(1, Ordering::Relaxed);
    }
    match sink {
        ResponseSink::Stream(out) => {
            // One write per response: two small writes on a Nagle-enabled
            // socket trigger the delayed-ACK interaction (~40 ms per
            // response — the difference between ~100 and thousands of
            // requests per second).
            let mut buf = Vec::with_capacity(line.len() + 1);
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            let t = Instant::now();
            let mut stream = out.lock().expect("connection write lock poisoned");
            let _ = stream.write_all(&buf);
            let _ = stream.flush();
            drop(stream);
            metrics.record_stage("write", t.elapsed());
        }
        #[cfg(target_os = "linux")]
        ResponseSink::Event { shared, token, seq } => {
            // The loop sequences the line into the connection's bounded
            // write buffer and does the socket write itself (recording
            // the `write` stage there).
            shared.complete(*token, *seq, line);
        }
    }
}

/// Decrements `connections_live` when the reader thread exits, whatever
/// path it took out of `serve_connection`.
struct LiveConnection<'a>(&'a Metrics);

impl Drop for LiveConnection<'_> {
    fn drop(&mut self) {
        self.0.connections_live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Best-effort `id` recovery from a line that failed request parsing, so
/// even error responses correlate when the JSON itself was well-formed.
/// Shared with the router's connection loop.
pub(crate) fn salvage_id(line: &str) -> Option<Json> {
    crate::json::parse(line).ok()?.get("id").cloned()
}

pub(crate) enum LineRead {
    /// One complete line (newline stripped) is in the buffer.
    Line,
    /// Clean EOF with nothing buffered.
    Eof,
    /// The line exceeded the cap before its newline arrived.
    TooLong,
    /// I/O failure or shutdown while reading.
    Closed,
}

/// Reads one `\n`-terminated line into `buf`, enforcing `max` on every
/// chunk as it arrives — a client streaming a newline-free line cannot
/// grow the buffer past the cap no matter how fast it sends. Read
/// timeouts are the shutdown poll, not errors. Shared with the router's
/// connection loop.
pub(crate) fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
    shutdown: &AtomicBool,
) -> LineRead {
    buf.clear();
    loop {
        let (consumed, outcome) = match reader.fill_buf() {
            Ok([]) => (
                0,
                Some(if buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line // final line without trailing newline
                }),
            ),
            Ok(chunk) => match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) if buf.len() + pos > max => (pos + 1, Some(LineRead::TooLong)),
                Some(pos) => {
                    buf.extend_from_slice(&chunk[..pos]);
                    (pos + 1, Some(LineRead::Line))
                }
                None if buf.len() + chunk.len() > max => (chunk.len(), Some(LineRead::TooLong)),
                None => {
                    let n = chunk.len();
                    buf.extend_from_slice(chunk);
                    (n, None)
                }
            },
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    return LineRead::Closed;
                }
                (0, None)
            }
            Err(_) => return LineRead::Closed,
        };
        reader.consume(consumed);
        if let Some(outcome) = outcome {
            return outcome;
        }
    }
}

fn serve_connection(inner: &Arc<Inner>, stream: TcpStream) {
    // The acceptor already counted this connection live; the guard only
    // decrements on the way out.
    let _live = LiveConnection(&inner.metrics);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.config.poll_interval));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let sink = ResponseSink::Stream(Arc::new(Mutex::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    })));
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match read_line_bounded(
            &mut reader,
            &mut buf,
            inner.config.max_line_bytes,
            &inner.shutdown,
        ) {
            LineRead::Eof | LineRead::Closed => return,
            LineRead::TooLong => {
                inner.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                write_line(&sink, &too_long_response(inner), false, &inner.metrics);
                return; // framing is lost; drop the connection
            }
            LineRead::Line => {}
        }
        let line = match std::str::from_utf8(&buf) {
            Ok(line) => line,
            Err(_) => {
                inner.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                write_line(&sink, &bad_utf8_response(inner), false, &inner.metrics);
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        inner.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                inner
                    .metrics
                    .bad_request_total
                    .fetch_add(1, Ordering::Relaxed);
                write_line(
                    &sink,
                    &error_response(&salvage_id(line), &e),
                    false,
                    &inner.metrics,
                );
                continue;
            }
        };
        if matches!(request.command, Command::Shutdown) {
            // Flag first, then acknowledge: the client must never see
            // the response while `is_shutting_down()` still reads
            // false (the pre-nodelay sockets hid this race behind
            // ~40 ms of Nagle delay).
            inner.begin_shutdown();
            write_line(&sink, &shutdown_ack(&request.id), true, &inner.metrics);
            return;
        }
        if let Some((line, ok)) = control_response(inner, &request) {
            write_line(&sink, &line, ok, &inner.metrics);
            continue;
        }
        if let Some((line, ok)) = admit(inner, request, sink.clone(), Instant::now()) {
            write_line(&sink, &line, ok, &inner.metrics);
        }
    }
}

/// The response to a request line that exceeded `max_line_bytes`
/// (framing is lost — the connection must be dropped after sending it).
pub(crate) fn too_long_response(inner: &Inner) -> String {
    inner
        .metrics
        .bad_request_total
        .fetch_add(1, Ordering::Relaxed);
    let err = ServiceError::BadRequest(format!(
        "request line exceeds {} bytes",
        inner.config.max_line_bytes
    ));
    error_response(&None, &err)
}

/// The response to a request line that was not UTF-8 (framing survives).
pub(crate) fn bad_utf8_response(inner: &Inner) -> String {
    inner
        .metrics
        .bad_request_total
        .fetch_add(1, Ordering::Relaxed);
    let err = ServiceError::BadRequest("request line is not UTF-8".to_string());
    error_response(&None, &err)
}

/// The `shutdown` acknowledgement line. Callers must set the shutdown
/// flag (`begin_shutdown`) *before* writing it.
pub(crate) fn shutdown_ack(id: &Option<Json>) -> String {
    ok_response(id, vec![("stopping", Json::Bool(true))])
}

/// Answers a control-plane command inline — never queued, so these work
/// even under overload. `None` for data-plane commands (and `shutdown`,
/// which each transport handles itself). Both transports build their
/// control responses here, which is what keeps them wire-identical.
pub(crate) fn control_response(inner: &Inner, request: &Request) -> Option<(String, bool)> {
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
                fields.insert(
                    "transport".to_string(),
                    Json::from(match inner.config.transport {
                        Transport::Threads => "threads",
                        Transport::Epoll => "epoll",
                    }),
                );
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
/// id at the entry point. Returns `Some((line, false))` when the request
/// was rejected instead (oversized batch, shutdown, full queue) — the
/// caller sends that line through its own path. On `None` the response
/// will arrive through `sink` from a worker.
pub(crate) fn admit(
    inner: &Arc<Inner>,
    mut request: Request,
    sink: ResponseSink,
    received: Instant,
) -> Option<(String, bool)> {
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
            return Some((error_response(&request.id, &err), false));
        }
    }
    if inner.shutdown.load(Ordering::SeqCst) {
        return Some((
            error_response(&request.id, &ServiceError::ShuttingDown),
            false,
        ));
    }
    let id = request.id.clone();
    let job = Job {
        request,
        sink,
        received,
    };
    match inner.queue.try_push(job, &inner.metrics) {
        Ok(()) => None,
        Err(e) => {
            inner.metrics.overload_total.fetch_add(1, Ordering::Relaxed);
            Some((error_response(&id, &e), false))
        }
    }
}

fn worker_loop(inner: &Arc<Inner>) {
    while let Some(job) = inner.queue.pop(&inner.shutdown, &inner.metrics) {
        // Queue wait, worker pickup included, is the admission stage.
        inner
            .metrics
            .record_stage("admission", job.received.elapsed());
        let job = match maybe_coalesce(inner, job) {
            None => continue, // parked in (or answered by) a coalescing window
            Some(job) => job,
        };
        let id = job.request.id.clone();
        // Log before writing: once the response is on the wire the client
        // may immediately ask `slowlog` (served by the reader thread) and
        // must see this request.
        match execute(inner, &job) {
            Ok(payload) => {
                observe_slow(inner, &job, true);
                write_line(&job.sink, &ok_response(&id, payload), true, &inner.metrics);
            }
            Err(e) => {
                if matches!(e, ServiceError::DeadlineExceeded { .. }) {
                    inner
                        .metrics
                        .queue_deadline_total
                        .fetch_add(1, Ordering::Relaxed);
                }
                observe_slow(inner, &job, false);
                write_line(&job.sink, &error_response(&id, &e), false, &inner.metrics);
            }
        }
    }
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
            observe_slow(inner, &job, false);
            write_line(
                &job.sink,
                &error_response(&job.request.id, &e),
                false,
                &inner.metrics,
            );
            return None;
        }
    };
    let entry = match inner.catalog.get(&params.graph) {
        Ok(entry) => entry,
        Err(e) => {
            observe_slow(inner, &job, false);
            write_line(
                &job.sink,
                &error_response(&job.request.id, &e),
                false,
                &inner.metrics,
            );
            return None;
        }
    };
    let member = park(inner, &job, params, q);
    let ctx = member.trace.clone();
    match inner.coalescer.submit(&entry, member, remaining, inner) {
        Submit::Queued => None,
        Submit::Direct(respond) => {
            // Bypass verdict (tight deadline, full queue, drain): run it
            // uncoalesced on this worker, through the same responder.
            let result = entry
                .solve(&params.solver, q, &params.options(remaining).trace(ctx))
                .map_err(ServiceError::Core);
            respond(result);
            None
        }
    }
}

/// Readies a `solve` job for a coalescing window: starts its trace and
/// builds the responder that answers it through the job's sink.
fn park(inner: &Arc<Inner>, job: &Job, params: &SolveParams, q: &[NodeId]) -> Member {
    let trace = begin_trace(params, job.received);
    let ctx = trace.as_ref().map(RequestTrace::ctx).unwrap_or_default();
    let respond: Responder = {
        let id = job.request.id.clone();
        let sink = job.sink.clone();
        let inner = Arc::clone(inner);
        let graph = params.graph.clone();
        let solver = params.solver.clone();
        let trace_id = params.trace_id.clone();
        let q_len = q.len();
        let received = job.received;
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
            // Log before writing: once the response is on the wire the
            // client may immediately ask `slowlog` (served by the reader
            // thread) and must see this request.
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
            write_line(&sink, &response, ok, &inner.metrics);
        })
    };
    Member {
        params: params.clone(),
        q: q.to_vec(),
        received: job.received,
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
