//! `mwc-router`: the sharded front-end that makes N `mwc-server`
//! processes look like one catalog.
//!
//! # Architecture
//!
//! ```text
//!                 ┌────────────────── mwc-router ───────────────────┐
//! client ──TCP──▶ frontend (one epoll thread, see crate::event_loop)│
//!                 │  parse line → Request, responses in order       │
//!                 │  ping/shard/shutdown: answered on the loop      │
//!                 │  everything else → relay threads (on demand):   │
//!                 │    solve/load/evict: ring lookup ───────────────┼──▶ shard A
//!                 │    batch: split by owning shard,                ├──▶ shard B
//!                 │           reassemble in request order           ├──▶ shard C
//!                 │    stats/graphs/reshard: fan out + merge        │
//!                 └────────────── pooled backend conns ─────────────┘
//! ```
//!
//! The router speaks the *same* newline-delimited JSON protocol on both
//! sides: clients do not change a byte for single-graph traffic, and the
//! backends are stock `mwc-server` processes — the id-translation
//! boundary inside each shard's `CatalogEntry` means a shard never needs
//! to know the ring exists. What the router owns:
//!
//! * **Replicated routing** — a deterministic [`HashRing`] over the
//!   shard names (virtual nodes, see [`crate::shard`]) maps every graph
//!   name to [`RouterConfig::replicas`] distinct shards. Reads (`solve`,
//!   `batch` entries, `cache_export`) pick among the healthy replicas by
//!   power-of-two-choices on in-flight load and *fall through* to the
//!   next replica on transport failure — `shard_unavailable` surfaces
//!   only when every copy is gone. Writes (`load`, `evict`) fan out to
//!   all replicas concurrently and report a per-replica ack list.
//! * **Live resharding** — the `reshard` control command adds and/or
//!   removes a shard. Before routing flips, every graph whose replica
//!   set gains a shard is streamed to the new owner — source spec *and*
//!   warm solve cache, via the backends' `cache_export` / seeded `load`
//!   commands — so a reshard never drops a graph below R−1 serving
//!   copies and the new owner starts warm, not cold.
//! * **Batch fan-out** — a `batch` whose entries span shards is split
//!   into per-shard sub-batches executed concurrently; the replies are
//!   reassembled into the original request order, with per-entry errors
//!   (including a dead shard's `shard_unavailable`) in place, so partial
//!   infrastructure failure degrades per query, not per batch.
//! * **Health** — each backend tracks consecutive failures; at
//!   [`RouterConfig::fail_threshold`] the shard is ejected and requests
//!   for its graphs fail fast with `shard_unavailable` instead of eating
//!   a connect timeout each. A reprobe thread pings ejected shards every
//!   [`RouterConfig::reprobe_interval`] and restores them on success —
//!   a restarted shard rejoins with no operator action.
//! * **Merged observability** — `stats` and `graphs` fan out to every
//!   live shard and come back as one document: an `aggregate` section
//!   (summed counters), a per-shard section, and the router's own
//!   counters; the `shard` command reports ring assignments (with
//!   replica sets) and health.
//!
//! * **One frontend** — the router plugs one handler into the same line
//!   frontend `mwc-server` runs. A client may pipeline; the router
//!   relays one request of a connection at a time and answers in request
//!   order. Relays block on backends, so they run on relay threads, never
//!   on the loop: a relay thread starts when a relay is queued and none
//!   is idle, and an idle one exits after a few seconds, so there are at
//!   most as many as connections were ever busy at once (and never more
//!   than [`RouterConfig::max_connections`]). A relay that panics costs
//!   its own response (`internal`, counted in `panics_total`); its
//!   thread keeps serving.
//!   Serving is Linux-only: elsewhere [`start`] returns
//!   [`std::io::ErrorKind::Unsupported`].
//!
//! Failure mapping is the contract the acceptance tests pin: any
//! transport failure talking to a shard — refused connection, EOF from a
//! killed process, read timeout — surfaces as the stable
//! `shard_unavailable` error code, never as a hang or a dropped
//! connection, and the surviving shards (and surviving replicas of each
//! graph) keep serving.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::error::ServiceError;
use crate::event_loop::{
    shutdown_ack, Handled, Handler, Limits, Reply, Slot, DEFAULT_MAX_WRITE_BUFFER,
};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::protocol::{
    error_json, error_response, ok_response, Command, Request, ShardChange, SolveParams,
};
use crate::shard::{HashRing, DEFAULT_VNODES};
use crate::trace::next_trace_id;

/// One backend shard: its ring name and dial address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Ring name (what graph names are hashed against). Renaming a shard
    /// reshards it — keep names stable across restarts.
    pub name: String,
    /// `host:port` of the backend `mwc-server`.
    pub addr: String,
}

impl ShardSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, addr: impl Into<String>) -> ShardSpec {
        ShardSpec {
            name: name.into(),
            addr: addr.into(),
        }
    }
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Virtual nodes per shard on the ring (see [`crate::shard`]).
    pub vnodes: usize,
    /// Copies of every graph: each graph name maps to this many distinct
    /// shards (clamped to the shard count). Reads pick among the healthy
    /// replicas and fall through on failure; `load`/`evict` fan out to
    /// all of them. 1 (the default) is classic single-owner sharding.
    pub replicas: usize,
    /// Hard cap on a request line's length, in bytes.
    pub max_line_bytes: usize,
    /// Maximum concurrent client connections; also the most relay
    /// threads the router runs at once.
    pub max_connections: usize,
    /// The frontend's poll interval: how quickly it (and the reprobe
    /// thread) notice shutdown.
    pub poll_interval: Duration,
    /// Consecutive backend failures before a shard is ejected (requests
    /// then fail fast until a reprobe succeeds).
    pub fail_threshold: u32,
    /// How often ejected shards are reprobed with a `ping`.
    pub reprobe_interval: Duration,
    /// Dial timeout for new backend connections.
    pub connect_timeout: Duration,
    /// Read timeout on backend responses — bounds how long a wedged (not
    /// dead) shard can stall a forwarded request before it maps to
    /// `shard_unavailable`. Generous by default: legitimate solves can be
    /// slow.
    pub backend_timeout: Duration,
    /// Idle pooled connections kept per shard; beyond the cap, returned
    /// connections are closed instead of pooled (a client burst must not
    /// pin the backend's whole connection budget).
    pub max_idle_per_shard: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vnodes: DEFAULT_VNODES,
            replicas: 1,
            max_line_bytes: 4 << 20,
            max_connections: 1024,
            poll_interval: Duration::from_millis(50),
            fail_threshold: 3,
            reprobe_interval: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(1),
            backend_timeout: Duration::from_secs(30),
            max_idle_per_shard: 16,
        }
    }
}

/// Router-side counters (the backends keep their own full metrics; the
/// router only counts what it alone can see). Requests read, malformed
/// lines, connections and panics are the frontend's counters.
#[derive(Debug, Default)]
struct RouterMetrics {
    /// Requests forwarded to a backend (including fan-out sub-requests).
    forwarded_total: AtomicU64,
    /// Requests answered locally (ping/shard/stats/graphs/shutdown).
    local_total: AtomicU64,
    /// Requests (or batch entries) failed with `shard_unavailable`.
    shard_unavailable_total: AtomicU64,
    /// Reads answered by a later replica after an earlier one failed.
    read_fallthrough_total: AtomicU64,
    /// Completed `reshard` commands (routing actually flipped).
    reshards_total: AtomicU64,
    /// Graph copies streamed to a gaining shard during reshards.
    migrated_graphs_total: AtomicU64,
    /// Warm solve-cache entries imported by gaining shards.
    streamed_cache_entries_total: AtomicU64,
}

/// One backend shard: pooled connections plus health state.
#[derive(Debug)]
struct Backend {
    name: String,
    addr: String,
    /// Idle pooled connections (lockstep request/response each, so a
    /// checked-out connection is exclusively owned for one roundtrip).
    idle: Mutex<Vec<Client>>,
    consecutive_failures: AtomicU32,
    /// Set at `fail_threshold`; cleared by a successful reprobe (or any
    /// successful roundtrip).
    ejected: AtomicBool,
    /// Forwards currently in flight — the load signal the
    /// power-of-two-choices replica pick compares.
    in_flight: AtomicUsize,
    forwarded_total: AtomicU64,
    failed_total: AtomicU64,
}

impl Backend {
    fn new(name: String, addr: String) -> Backend {
        Backend {
            name,
            addr,
            idle: Mutex::new(Vec::new()),
            consecutive_failures: AtomicU32::new(0),
            ejected: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            forwarded_total: AtomicU64::new(0),
            failed_total: AtomicU64::new(0),
        }
    }

    fn healthy(&self) -> bool {
        !self.ejected.load(Ordering::SeqCst)
    }

    fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::SeqCst);
        self.ejected.store(false, Ordering::SeqCst);
    }

    fn record_failure(&self, threshold: u32) {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if failures >= threshold {
            self.ejected.store(true, Ordering::SeqCst);
        }
    }

    fn dial(&self, config: &RouterConfig) -> std::io::Result<Client> {
        let mut last = std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            format!("{} resolves to no address", self.addr),
        );
        for addr in self.addr.as_str().to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(config.backend_timeout)).ok();
                    stream.set_write_timeout(Some(Duration::from_secs(10))).ok();
                    return Client::from_stream(stream);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn unavailable(&self, reason: impl Into<String>) -> ServiceError {
        ServiceError::ShardUnavailable {
            shard: self.name.clone(),
            reason: reason.into(),
        }
    }

    /// Forwards one raw request line and returns the backend's raw
    /// response line (trailing newline trimmed). A failure on a *pooled*
    /// connection gets one retry on a fresh dial — the backend may have
    /// closed the connection while it sat idle, which says nothing about
    /// the shard's health. A failure on a connection dialed for this very
    /// request is definitive: retrying would re-execute the request on a
    /// shard already known to be refusing or wedged, and double the stall
    /// a wedged shard can inflict. Definitive failures map to
    /// [`ServiceError::ShardUnavailable`] and count against health.
    fn forward(&self, config: &RouterConfig, line: &str) -> Result<String, ServiceError> {
        if !self.healthy() {
            return Err(self.unavailable(format!(
                "ejected after {} consecutive failures; awaiting reprobe",
                self.consecutive_failures.load(Ordering::SeqCst)
            )));
        }
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let result = self.forward_inner(config, line);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        result
    }

    fn forward_inner(&self, config: &RouterConfig, line: &str) -> Result<String, ServiceError> {
        self.forwarded_total.fetch_add(1, Ordering::Relaxed);
        // Bind the pop so the pool guard drops *here* — scrutinee
        // temporaries live for the whole `if let` body, and `give_back`
        // re-locks the pool (a self-deadlock the loopback suite catches).
        let pooled = self.idle.lock().expect("backend pool poisoned").pop();
        if let Some(mut conn) = pooled {
            // A pooled-connection failure is retried below on a fresh
            // dial — the backend may have closed it while it sat idle.
            if let Ok(response) = self.roundtrip(&mut conn, line) {
                self.give_back(config, conn);
                return Ok(response);
            }
        }
        let outcome = match self.dial(config) {
            Ok(mut conn) => match self.roundtrip(&mut conn, line) {
                Ok(response) => {
                    self.give_back(config, conn);
                    return Ok(response);
                }
                Err(e) => e,
            },
            Err(e) => format!("connect: {e}"),
        };
        self.failed_total.fetch_add(1, Ordering::Relaxed);
        self.record_failure(config.fail_threshold);
        Err(self.unavailable(outcome))
    }

    fn roundtrip(&self, conn: &mut Client, line: &str) -> Result<String, String> {
        match conn.roundtrip_line(line) {
            Ok(response) => {
                self.record_success();
                Ok(response.trim_end().to_string())
            }
            // The connection is in an unknown state: the caller drops it.
            Err(e) => Err(e.to_string()),
        }
    }

    /// Returns a healthy connection to the idle pool, bounded by
    /// [`RouterConfig::max_idle_per_shard`] — beyond the cap the
    /// connection is simply closed, so a burst of router clients cannot
    /// permanently pin sockets against the backend (whose own connection
    /// limit would otherwise start refusing dials, including reprobes).
    fn give_back(&self, config: &RouterConfig, conn: Client) {
        let mut idle = self.idle.lock().expect("backend pool poisoned");
        if idle.len() < config.max_idle_per_shard {
            idle.push(conn);
        }
    }

    /// A cheap liveness probe on a fresh connection (used by the reprobe
    /// thread with a short read timeout so probing never lags the loop).
    fn probe(&self, config: &RouterConfig) -> bool {
        let probe_config = RouterConfig {
            backend_timeout: config.connect_timeout.max(Duration::from_millis(250)),
            ..config.clone()
        };
        let Ok(mut conn) = self.dial(&probe_config) else {
            return false;
        };
        match conn.roundtrip_line(r#"{"cmd":"ping"}"#) {
            Ok(response) if response.contains("\"ok\":true") => {
                self.record_success();
                true
            }
            _ => false,
        }
    }

    fn health_json(&self) -> Json {
        Json::obj([
            ("addr", Json::from(self.addr.as_str())),
            ("healthy", Json::Bool(self.healthy())),
            (
                "consecutive_failures",
                Json::from(self.consecutive_failures.load(Ordering::SeqCst) as u64),
            ),
            (
                "in_flight",
                Json::from(self.in_flight.load(Ordering::Relaxed) as u64),
            ),
            (
                "forwarded",
                Json::from(self.forwarded_total.load(Ordering::Relaxed)),
            ),
            (
                "failed",
                Json::from(self.failed_total.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// One immutable routing epoch: the ring plus the backends lined up with
/// it. `reshard` builds a whole new table and swaps it in atomically;
/// every request snapshots the current table once, so a mid-request flip
/// never mixes epochs. Retained shards keep their [`Backend`] (pools,
/// health, counters) across the swap via the `Arc`.
struct RouteTable {
    ring: HashRing,
    /// Indexed identically to `ring.shards()`.
    backends: Vec<Arc<Backend>>,
}

impl RouteTable {
    /// The replica set serving `graph`, primary first (see
    /// [`HashRing::route_replicas`]).
    fn replicas_for(&self, graph: &str, replicas: usize) -> Vec<Arc<Backend>> {
        self.ring
            .route_replicas(graph, replicas.max(1))
            .into_iter()
            .map(|i| Arc::clone(&self.backends[i]))
            .collect()
    }
}

struct Inner {
    /// The live routing epoch; swapped whole by `reshard`.
    routes: RwLock<Arc<RouteTable>>,
    config: RouterConfig,
    metrics: RouterMetrics,
    /// The frontend's counters: requests, connections, panics.
    frontend: Metrics,
    relays: RelayPool,
    shutdown: AtomicBool,
    /// Round-robin cursor: spreads `burn` and seeds the two-choice pick.
    round_robin: AtomicUsize,
    /// Serializes `reshard` commands — concurrent migrations over the
    /// same table would race the flip.
    reshard_gate: Mutex<()>,
}

impl Inner {
    /// Snapshots the current routing epoch (cheap: one `Arc` clone).
    fn table(&self) -> Arc<RouteTable> {
        Arc::clone(&self.routes.read().expect("route table poisoned"))
    }

    /// Orders a replica set for a read: healthy replicas first, with the
    /// front slot decided by power-of-two-choices — two distinct healthy
    /// candidates, the one with fewer forwards in flight wins. Ejected
    /// replicas go last: they fail fast and definitively, which is
    /// exactly what the final fall-through attempt should do.
    fn read_order(&self, candidates: Vec<Arc<Backend>>) -> Vec<Arc<Backend>> {
        let (mut healthy, ejected): (Vec<_>, Vec<_>) =
            candidates.into_iter().partition(|b| b.healthy());
        if healthy.len() >= 2 {
            let seq = self.round_robin.fetch_add(1, Ordering::Relaxed) as u64;
            let n = healthy.len() as u64;
            let a = (seq % n) as usize;
            // A second, distinct candidate from a mixed rehash of the
            // sequence number (no RNG needed for two-choice balance).
            let b = {
                let off = 1 + (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) % (n - 1);
                ((a as u64 + off) % n) as usize
            };
            let pick = if healthy[b].in_flight.load(Ordering::Relaxed)
                < healthy[a].in_flight.load(Ordering::Relaxed)
            {
                b
            } else {
                a
            };
            healthy.swap(0, pick);
        }
        healthy.extend(ejected);
        healthy
    }

    /// The next healthy backend in round-robin order (for `burn`), or any
    /// backend if all are ejected (the forward will fail with the right
    /// error).
    fn round_robin_backend(&self, table: &RouteTable) -> Arc<Backend> {
        let n = table.backends.len();
        let start = self.round_robin.fetch_add(1, Ordering::Relaxed);
        for off in 0..n {
            let b = &table.backends[(start + off) % n];
            if b.healthy() {
                return Arc::clone(b);
            }
        }
        Arc::clone(&table.backends[start % n])
    }
}

/// How long an idle relay thread waits for work before it exits.
const RELAY_IDLE: Duration = Duration::from_secs(5);

/// A request the frontend handed to the relay threads: the parsed
/// request, its raw line (forwarded verbatim) and its reply.
struct Relay {
    request: Request,
    line: String,
    reply: Reply,
}

/// The relay threads' queue. Threads start on demand and exit when idle
/// (see [`submit_relay`] and [`relay_loop`]).
#[derive(Default)]
struct RelayPool {
    state: Mutex<RelayState>,
    /// Wakes an idle thread for queued work, or every thread to close.
    work: Condvar,
    /// Tells [`close_relays`] that a thread exited.
    exited: Condvar,
}

#[derive(Default)]
struct RelayState {
    queue: VecDeque<Relay>,
    threads: usize,
    idle: usize,
    closed: bool,
}

/// Queues a relay and starts a thread for it when no idle thread will
/// take it, unless `max_connections` threads already run: then a busy
/// one takes it when it finishes.
fn submit_relay(inner: &Arc<Inner>, relay: Relay) {
    let pool = &inner.relays;
    let mut state = pool.state.lock().expect("relay pool poisoned");
    state.queue.push_back(relay);
    if state.queue.len() <= state.idle {
        drop(state);
        pool.work.notify_one();
        return;
    }
    if state.threads >= inner.config.max_connections.max(1) {
        return;
    }
    state.threads += 1;
    drop(state);
    let worker = Arc::clone(inner);
    let spawned = std::thread::Builder::new()
        .name("mwc-relay".to_string())
        .spawn(move || relay_loop(&worker));
    if spawned.is_err() {
        let mut state = pool.state.lock().expect("relay pool poisoned");
        state.threads -= 1;
        if state.threads == 0 {
            // No thread will take these: their replies, dropped here,
            // answer `internal`.
            let orphans = std::mem::take(&mut state.queue);
            drop(state);
            drop(orphans);
        }
    }
}

/// A relay thread: takes queued relays until it has waited
/// [`RELAY_IDLE`] for one, or the pool closes with nothing queued.
fn relay_loop(inner: &Arc<Inner>) {
    let pool = &inner.relays;
    let mut state = pool.state.lock().expect("relay pool poisoned");
    loop {
        if let Some(Relay {
            request,
            line,
            reply,
        }) = state.queue.pop_front()
        {
            drop(state);
            // A panic costs this one request: its reply, dropped
            // unanswered, answers `internal`, and the thread carries on.
            // The router counts relays by what it forwarded, not by
            // their outcome, so every relayed line counts as ok.
            match catch_unwind(AssertUnwindSafe(|| relay(inner, request, &line))) {
                Ok(response) => reply.send(response, true),
                Err(_) => {
                    inner.frontend.panics_total.fetch_add(1, Ordering::Relaxed);
                }
            }
            state = pool.state.lock().expect("relay pool poisoned");
            continue;
        }
        if state.closed {
            break;
        }
        state.idle += 1;
        let (guard, waited) = pool
            .work
            .wait_timeout(state, RELAY_IDLE)
            .expect("relay pool poisoned");
        state = guard;
        state.idle -= 1;
        if waited.timed_out() && state.queue.is_empty() {
            break;
        }
    }
    state.threads -= 1;
    drop(state);
    pool.exited.notify_all();
}

/// Closes the pool: every thread finishes the queue, then exits; returns
/// once they all have.
fn close_relays(pool: &RelayPool) {
    let mut state = pool.state.lock().expect("relay pool poisoned");
    state.closed = true;
    pool.work.notify_all();
    while state.threads > 0 {
        state = pool.exited.wait(state).expect("relay pool poisoned");
    }
}

/// A running router: its address and every thread it spawned. Stop it
/// with [`RouterHandle::shutdown`] (or let a protocol `shutdown` command
/// initiate the drain and [`RouterHandle::wait`] for it). Shutting the
/// router down does **not** stop the backend shards.
pub struct RouterHandle {
    inner: Arc<Inner>,
    addr: std::net::SocketAddr,
    /// The frontend's loop thread (`None` once joined).
    frontend: Option<JoinHandle<()>>,
    reprober: Option<JoinHandle<()>>,
}

/// Binds `addr` and starts routing for `shards` (name + backend address
/// each). Shard names must be unique; the ring is deterministic in the
/// set of names, so every router over the same shards routes identically.
/// Serving is Linux-only: elsewhere this returns
/// [`std::io::ErrorKind::Unsupported`].
pub fn start(
    shards: Vec<ShardSpec>,
    config: RouterConfig,
    addr: impl ToSocketAddrs,
) -> std::io::Result<RouterHandle> {
    if shards.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a router needs at least one shard",
        ));
    }
    let mut names: Vec<&str> = shards.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    if names.windows(2).any(|w| w[0] == w[1]) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "duplicate shard names",
        ));
    }
    let ring = HashRing::new(shards.iter().map(|s| s.name.clone()), config.vnodes.max(1));
    // `ring.shards()` is sorted; line the backends up with it.
    let backends: Vec<Arc<Backend>> = ring
        .shards()
        .iter()
        .map(|name| {
            let spec = shards
                .iter()
                .find(|s| &s.name == name)
                .expect("ring names come from the specs");
            Arc::new(Backend::new(spec.name.clone(), spec.addr.clone()))
        })
        .collect();

    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let limits = Limits {
        max_connections: config.max_connections,
        max_line_bytes: config.max_line_bytes,
        max_write_buffer: DEFAULT_MAX_WRITE_BUFFER,
        // One relay in flight per connection: no more relays are queued,
        // nor relay threads started, than there are busy connections.
        max_unanswered: 1,
        poll_interval: config.poll_interval,
    };
    let inner = Arc::new(Inner {
        routes: RwLock::new(Arc::new(RouteTable { ring, backends })),
        config,
        metrics: RouterMetrics::default(),
        frontend: Metrics::new(),
        relays: RelayPool::default(),
        shutdown: AtomicBool::new(false),
        round_robin: AtomicUsize::new(0),
        reshard_gate: Mutex::new(()),
    });
    let frontend =
        crate::event_loop::spawn(Arc::clone(&inner), listener, limits, "mwc-router-epoll")?;
    let reprober = {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("mwc-router-reprobe".to_string())
            .spawn(move || reprobe_loop(&inner))
            .expect("spawn router reprober")
    };

    Ok(RouterHandle {
        inner,
        addr,
        frontend: Some(frontend),
        reprober: Some(reprober),
    })
}

impl RouterHandle {
    /// The bound address (port resolved if `:0` was requested).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// A snapshot of the routing ring (shard assignment is
    /// `ring().route(graph)`). A clone, not a borrow: `reshard` swaps
    /// the live ring out from under long-lived references.
    pub fn ring(&self) -> HashRing {
        self.inner.table().ring.clone()
    }

    /// The configured replication factor (clamped to the shard count at
    /// routing time).
    pub fn replicas(&self) -> usize {
        self.inner.config.replicas.max(1)
    }

    /// The router frontend's counters: requests read, connections (live
    /// and total), slow-client disconnects, panics. The routing counters
    /// are in the `stats` command's `router` section.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.frontend
    }

    /// Whether shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Initiates a graceful shutdown and joins every thread. Backends are
    /// left running.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        self.join_all();
    }

    /// Serves until a protocol `shutdown` command arrives, then joins.
    pub fn wait(mut self) {
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join_all();
    }

    fn begin_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }

    fn join_all(&mut self) {
        // The frontend exits once every relay it handed out has
        // answered and flushed; only then is the relay queue closed.
        if let Some(frontend) = self.frontend.take() {
            let _ = frontend.join();
        }
        if let Some(reprober) = self.reprober.take() {
            let _ = reprober.join();
        }
        close_relays(&self.inner.relays);
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if self.frontend.is_some() {
            self.begin_shutdown();
            self.join_all();
        }
    }
}

fn reprobe_loop(inner: &Arc<Inner>) {
    // Sleep in poll-sized slices so shutdown joins promptly even with a
    // long reprobe interval.
    let mut since_probe = Duration::ZERO;
    let step = inner.config.poll_interval.max(Duration::from_millis(10));
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(step);
        since_probe += step;
        if since_probe < inner.config.reprobe_interval {
            continue;
        }
        since_probe = Duration::ZERO;
        let table = inner.table();
        for backend in table.backends.iter().filter(|b| !b.healthy()) {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            backend.probe(&inner.config);
        }
    }
}

/// The router's side of the frontend: `ping`, `shard` and `shutdown` are
/// answered on the loop thread; everything else blocks on backends, so
/// it goes to the relay threads.
impl Handler for Arc<Inner> {
    fn metrics(&self) -> &Metrics {
        &self.frontend
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn handle(&self, request: Request, line: &str, slot: Slot<'_>) -> Handled {
        let id = &request.id;
        let local = &self.metrics.local_total;
        match request.command {
            Command::Ping => {
                local.fetch_add(1, Ordering::Relaxed);
                Handled::Inline(ok_response(id, vec![("pong", Json::Bool(true))]), true)
            }
            Command::Shard { ref graph } => {
                local.fetch_add(1, Ordering::Relaxed);
                Handled::Inline(ok_response(id, shard_payload(self, graph.as_deref())), true)
            }
            Command::Shutdown => {
                local.fetch_add(1, Ordering::Relaxed);
                // Flag before acknowledging (see the server's handler).
                self.shutdown.store(true, Ordering::SeqCst);
                Handled::Close(shutdown_ack(id))
            }
            _ => {
                let reply = slot.defer(id);
                let line = line.to_string();
                submit_relay(
                    self,
                    Relay {
                        request,
                        line,
                        reply,
                    },
                );
                Handled::Deferred
            }
        }
    }
}

/// Answers one relayed request on a relay thread — forwarded, fanned out
/// or merged — and returns its response line.
fn relay(inner: &Arc<Inner>, request: Request, line: &str) -> String {
    let id = request.id;
    let metrics = &inner.metrics;
    let replicas = inner.config.replicas.max(1);
    match request.command {
        Command::Reshard {
            ref add,
            ref remove,
        } => {
            metrics.local_total.fetch_add(1, Ordering::Relaxed);
            match handle_reshard(inner, add.as_ref(), remove.as_deref()) {
                Ok(payload) => ok_response(&id, payload),
                Err(e) => error_response(&id, &e),
            }
        }
        Command::Stats => {
            metrics.local_total.fetch_add(1, Ordering::Relaxed);
            ok_response(&id, vec![("stats", merged_stats(inner))])
        }
        Command::Graphs => {
            metrics.local_total.fetch_add(1, Ordering::Relaxed);
            ok_response(&id, merged_graphs(inner))
        }
        Command::Metrics => {
            metrics.local_total.fetch_add(1, Ordering::Relaxed);
            ok_response(&id, vec![("text", Json::Str(router_prometheus(inner)))])
        }
        Command::Slowlog { limit } => {
            metrics.local_total.fetch_add(1, Ordering::Relaxed);
            ok_response(&id, merged_slowlog(inner, limit))
        }
        Command::Solve { ref params, .. } => {
            let table = inner.table();
            let candidates = inner.read_order(table.replicas_for(&params.graph, replicas));
            if params.trace {
                relay_read_traced(inner, &candidates, line, &id, params)
            } else {
                relay_read(inner, &candidates, line, &id)
            }
        }
        Command::CacheExport { ref name } => {
            let table = inner.table();
            let candidates = inner.read_order(table.replicas_for(name, replicas));
            relay_read(inner, &candidates, line, &id)
        }
        Command::Load { ref name, .. } | Command::Evict { ref name } => {
            let table = inner.table();
            relay_write(inner, &table.replicas_for(name, replicas), line, &id)
        }
        Command::Burn { .. } => {
            let table = inner.table();
            let backend = inner.round_robin_backend(&table);
            relay_read(inner, &[backend], line, &id)
        }
        Command::Batch { params, queries } => handle_batch(inner, &id, &params, &queries),
        Command::Ping | Command::Shard { .. } | Command::Shutdown => {
            unreachable!("answered on the frontend's loop thread")
        }
    }
}

/// Forwards `line` to the first answering replica (candidates in
/// [`Inner::read_order`]) and relays its response line verbatim (ids
/// pass through untouched). A transport failure *falls through* to the
/// next replica; only when every copy failed does the client see one
/// synthesized `shard_unavailable`.
fn relay_read(
    inner: &Arc<Inner>,
    candidates: &[Arc<Backend>],
    line: &str,
    id: &Option<Json>,
) -> String {
    inner
        .metrics
        .forwarded_total
        .fetch_add(1, Ordering::Relaxed);
    let mut last: Option<ServiceError> = None;
    for (attempt, backend) in candidates.iter().enumerate() {
        match backend.forward(&inner.config, line) {
            Ok(response) => {
                if attempt > 0 {
                    inner
                        .metrics
                        .read_fallthrough_total
                        .fetch_add(attempt as u64, Ordering::Relaxed);
                }
                return response;
            }
            Err(e) => last = Some(e),
        }
    }
    inner
        .metrics
        .shard_unavailable_total
        .fetch_add(1, Ordering::Relaxed);
    let err = last.expect("a replica set is never empty");
    error_response(id, &err)
}

/// Forwards a traced `solve` with the same replica fall-through as
/// [`relay_read`]: pins the trace id (generated here when the client did
/// not send one) into the forwarded line so the shard's spans carry the
/// same id, then nests the answering shard's span tree under
/// router-built `route`/`backend_rtt` spans. Span offsets inside the
/// shard's subtree are relative to the *shard's* read instant (clocks
/// are not synchronized across processes); durations compose — the
/// shard's root is ≤ `backend_rtt`, which is ≤ `route`.
fn relay_read_traced(
    inner: &Arc<Inner>,
    candidates: &[Arc<Backend>],
    line: &str,
    id: &Option<Json>,
    params: &SolveParams,
) -> String {
    inner
        .metrics
        .forwarded_total
        .fetch_add(1, Ordering::Relaxed);
    let t0 = Instant::now();
    let trace_id = params.trace_id.clone().unwrap_or_else(next_trace_id);
    let fwd = match crate::json::parse(line) {
        Ok(Json::Obj(mut fields)) => {
            fields.insert("trace_id".to_string(), Json::from(trace_id.as_str()));
            Json::Obj(fields).to_string()
        }
        // parse_request already accepted the line; only reachable if the
        // two parsers disagree — forward untouched rather than fail.
        _ => line.to_string(),
    };
    let mut last: Option<ServiceError> = None;
    for (attempt, backend) in candidates.iter().enumerate() {
        let t_fwd = Instant::now();
        match backend.forward(&inner.config, &fwd) {
            Ok(response) => {
                if attempt > 0 {
                    inner
                        .metrics
                        .read_fallthrough_total
                        .fetch_add(attempt as u64, Ordering::Relaxed);
                }
                let rtt = t_fwd.elapsed();
                return wrap_routed_trace(&response, &trace_id, backend, t0, t_fwd, rtt);
            }
            Err(e) => last = Some(e),
        }
    }
    inner
        .metrics
        .shard_unavailable_total
        .fetch_add(1, Ordering::Relaxed);
    let err = last.expect("a replica set is never empty");
    error_response(id, &err)
}

/// Fans a write (`load`/`evict`) out to *every* replica concurrently and
/// reports per-replica acks. The response keeps the first successful
/// backend's payload verbatim (so single-replica deployments see exactly
/// the old shape) plus a `"replicas"` ack array; the request fails only
/// when every replica refused it.
fn relay_write(
    inner: &Arc<Inner>,
    replicas: &[Arc<Backend>],
    line: &str,
    id: &Option<Json>,
) -> String {
    inner
        .metrics
        .forwarded_total
        .fetch_add(replicas.len() as u64, Ordering::Relaxed);
    let outcomes: Vec<(&Arc<Backend>, Result<String, ServiceError>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = replicas
                .iter()
                .map(|backend| scope.spawn(move || (backend, backend.forward(&inner.config, line))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("write fan-out worker panicked"))
                .collect()
        });
    let mut acks: Vec<Json> = Vec::new();
    let mut base: Option<Json> = None; // first successful payload
    let mut first_error: Option<Json> = None;
    for (backend, outcome) in outcomes {
        let verdict = outcome.map_err(|e| error_json(&e)).and_then(|response| {
            match crate::json::parse(&response) {
                Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => Ok(v),
                Ok(v) => Err(v.get("error").cloned().unwrap_or(Json::Null)),
                Err(e) => Err(error_json(
                    &backend.unavailable(format!("unparseable backend response: {e}")),
                )),
            }
        });
        match verdict {
            Ok(v) => {
                let mut ack = vec![
                    ("shard", Json::from(backend.name.as_str())),
                    ("ok", Json::Bool(true)),
                ];
                if let Some(imported) = v.get("cache_imported") {
                    ack.push(("cache_imported", imported.clone()));
                }
                acks.push(Json::obj(ack));
                if base.is_none() {
                    base = Some(v);
                }
            }
            Err(err) => {
                inner
                    .metrics
                    .shard_unavailable_total
                    .fetch_add(1, Ordering::Relaxed);
                acks.push(Json::obj([
                    ("shard", Json::from(backend.name.as_str())),
                    ("ok", Json::Bool(false)),
                    ("error", err.clone()),
                ]));
                if first_error.is_none() {
                    first_error = Some(err);
                }
            }
        }
    }
    match base {
        Some(Json::Obj(mut fields)) => {
            // The backend already echoed the client's id (the line went
            // through verbatim); just attach the ack list.
            fields.insert("replicas".to_string(), Json::Arr(acks));
            Json::Obj(fields).to_string()
        }
        _ => {
            let err = first_error.expect("a replica set is never empty");
            let mut fields: Vec<(&'static str, Json)> = vec![
                ("ok", Json::Bool(false)),
                ("error", err),
                ("replicas", Json::Arr(acks)),
            ];
            if let Some(v) = id {
                fields.push(("id", v.clone()));
            }
            Json::obj(fields).to_string()
        }
    }
}

/// The `reshard` control command: applies an `add` and/or `remove` to
/// the shard set, migrates every affected graph *before* flipping
/// routing, then drops the copies no longer in any replica set.
///
/// Migration streams two things per gaining shard, straight between
/// backends: the graph's source spec and its warm solve cache (the old
/// owner's `cache_export` feeds the new owner's seeded `load`). Routing
/// flips only after every gaining copy acked its load, so a reshard
/// never drops a graph below R−1 serving copies and the new owner
/// answers its first solve from cache, not cold.
///
/// Failure contract: a gaining shard that cannot take a copy (while a
/// healthy source exists) aborts the whole reshard with
/// `shard_unavailable` — the old table keeps serving untouched. A graph
/// with *no* healthy source (e.g. removing a dead single-replica owner)
/// cannot be saved; it is reported under `"lost"` and routing still
/// flips, so the operator can re-`load` it.
///
/// Writes racing the migration window land on the *old* replica set; a
/// graph loaded mid-reshard may need a re-`load` after the flip. The
/// gate serializes reshards themselves.
fn handle_reshard(
    inner: &Arc<Inner>,
    add: Option<&ShardChange>,
    remove: Option<&str>,
) -> Result<Vec<(&'static str, Json)>, ServiceError> {
    let _gate = inner.reshard_gate.lock().expect("reshard gate poisoned");
    let old = inner.table();

    // The new shard set: current names ± the requested change.
    let mut specs: Vec<(String, String)> = old
        .backends
        .iter()
        .map(|b| (b.name.clone(), b.addr.clone()))
        .collect();
    if let Some(name) = remove {
        let before = specs.len();
        specs.retain(|(n, _)| n != name);
        if specs.len() == before {
            return Err(ServiceError::BadRequest(format!(
                "no shard named {name:?} on the ring"
            )));
        }
    }
    if let Some(change) = add {
        if specs.iter().any(|(n, _)| *n == change.name) {
            return Err(ServiceError::BadRequest(format!(
                "shard {:?} is already on the ring",
                change.name
            )));
        }
        specs.push((change.name.clone(), change.addr.clone()));
    }
    if specs.is_empty() {
        return Err(ServiceError::BadRequest(
            "reshard would leave an empty ring".to_string(),
        ));
    }

    let ring = HashRing::new(
        specs.iter().map(|(n, _)| n.clone()),
        inner.config.vnodes.max(1),
    );
    let backends: Vec<Arc<Backend>> = ring
        .shards()
        .iter()
        .map(|name| {
            // Retained shards keep their Backend: pools, health state,
            // and counters survive the flip.
            old.backends
                .iter()
                .find(|b| &b.name == name)
                .cloned()
                .unwrap_or_else(|| {
                    let addr = specs
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, a)| a.clone())
                        .expect("ring names come from the specs");
                    Arc::new(Backend::new(name.clone(), addr))
                })
        })
        .collect();
    let new = Arc::new(RouteTable { ring, backends });

    // Every graph the old fleet serves (replica copies dedupe by name).
    let mut graphs: Vec<String> = Vec::new();
    for (_, outcome) in fan_out_all(inner, &old, r#"{"cmd":"graphs"}"#) {
        let Ok(response) = outcome else { continue };
        let listed = crate::json::parse(&response)
            .ok()
            .and_then(|v| v.get("graphs").cloned());
        if let Some(Json::Arr(entries)) = listed {
            for e in &entries {
                if let Some(name) = e.get("name").and_then(Json::as_str) {
                    graphs.push(name.to_string());
                }
            }
        }
    }
    graphs.sort_unstable();
    graphs.dedup();

    let r = inner.config.replicas.max(1);
    let mut migrated: Vec<Json> = Vec::new();
    let mut lost: Vec<Json> = Vec::new();
    let mut migrated_graph_count = 0u64;
    let mut streamed_entries = 0u64;
    for graph in &graphs {
        let old_set = old.replicas_for(graph, r);
        let new_set = new.replicas_for(graph, r);
        let gaining: Vec<&Arc<Backend>> = new_set
            .iter()
            .filter(|nb| old_set.iter().all(|ob| ob.name != nb.name))
            .collect();
        if gaining.is_empty() {
            continue;
        }

        // Stream source spec + warm cache out of a surviving copy.
        let export_line = Json::obj([
            ("cmd", Json::from("cache_export")),
            ("name", Json::from(graph.as_str())),
        ])
        .to_string();
        let export = old_set.iter().filter(|b| b.healthy()).find_map(|b| {
            let response = b.forward(&inner.config, &export_line).ok()?;
            let v = crate::json::parse(&response).ok()?;
            (v.get("ok").and_then(Json::as_bool) == Some(true)).then_some(v)
        });
        let Some(doc) = export else {
            lost.push(Json::obj([
                ("graph", Json::from(graph.as_str())),
                ("reason", Json::from("no healthy replica to stream from")),
            ]));
            continue;
        };
        let source = doc
            .get("source")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let entries = match doc.get("entries") {
            Some(Json::Arr(seeds)) => seeds.clone(),
            _ => Vec::new(),
        };
        let load_line = Json::obj([
            ("cmd", Json::from("load")),
            ("name", Json::from(graph.as_str())),
            ("source", Json::from(source.as_str())),
            ("cache", Json::Arr(entries)),
        ])
        .to_string();
        for nb in &gaining {
            let outcome = nb
                .forward(&inner.config, &load_line)
                .map_err(|e| e.to_string())
                .and_then(|response| {
                    let v = crate::json::parse(&response).map_err(|e| e.to_string())?;
                    if v.get("ok").and_then(Json::as_bool) == Some(true) {
                        Ok(v)
                    } else {
                        Err(v
                            .get("error")
                            .and_then(|e| e.get("message"))
                            .and_then(Json::as_str)
                            .unwrap_or("backend refused the load")
                            .to_string())
                    }
                });
            match outcome {
                Ok(v) => {
                    let imported = v.get("cache_imported").and_then(Json::as_u64).unwrap_or(0);
                    streamed_entries += imported;
                    migrated.push(Json::obj([
                        ("graph", Json::from(graph.as_str())),
                        ("to", Json::from(nb.name.as_str())),
                        ("cache_entries", Json::from(imported)),
                    ]));
                }
                // A healthy copy exists but the gaining shard cannot
                // take it: abort without flipping — the old table keeps
                // serving every graph at full strength.
                Err(reason) => {
                    return Err(ServiceError::ShardUnavailable {
                        shard: nb.name.clone(),
                        reason: format!("reshard aborted migrating {graph:?}: {reason}"),
                    })
                }
            }
        }
        migrated_graph_count += 1;
    }

    // Flip. Requests snapshot the table once each, so in-flight reads
    // finish on the old epoch while new ones route on the new — and the
    // gaining copies are already loaded and warm.
    *inner.routes.write().expect("route table poisoned") = Arc::clone(&new);
    inner.metrics.reshards_total.fetch_add(1, Ordering::Relaxed);
    inner
        .metrics
        .migrated_graphs_total
        .fetch_add(migrated_graph_count, Ordering::Relaxed);
    inner
        .metrics
        .streamed_cache_entries_total
        .fetch_add(streamed_entries, Ordering::Relaxed);

    // Drop the copies no longer in any replica set (best effort, after
    // the flip: a failed evict strands memory, never correctness).
    let mut evicted_copies = 0u64;
    for graph in &graphs {
        let new_set = new.replicas_for(graph, r);
        for ob in old.replicas_for(graph, r) {
            if new_set.iter().any(|nb| nb.name == ob.name) || !ob.healthy() {
                continue;
            }
            let evict_line = Json::obj([
                ("cmd", Json::from("evict")),
                ("name", Json::from(graph.as_str())),
            ])
            .to_string();
            if ob.forward(&inner.config, &evict_line).is_ok() {
                evicted_copies += 1;
            }
        }
    }

    Ok(vec![
        ("resharded", Json::Bool(true)),
        (
            "shards",
            Json::Arr(
                new.ring
                    .shards()
                    .iter()
                    .map(|s| Json::from(s.as_str()))
                    .collect(),
            ),
        ),
        ("graphs", Json::from(graphs.len() as u64)),
        ("migrated", Json::Arr(migrated)),
        ("streamed_cache_entries", Json::from(streamed_entries)),
        ("evicted_copies", Json::from(evicted_copies)),
        ("lost", Json::Arr(lost)),
    ])
}

/// Rewrites a traced backend response: the shard's span tree (if any) is
/// re-rooted under the router's `route` → `backend_rtt` spans, keeping
/// every other response field (id included) untouched. Responses that do
/// not parse or carry no trace relay verbatim.
fn wrap_routed_trace(
    response: &str,
    trace_id: &str,
    backend: &Backend,
    t0: Instant,
    t_fwd: Instant,
    rtt: Duration,
) -> String {
    let Ok(Json::Obj(mut fields)) = crate::json::parse(response) else {
        return response.to_string();
    };
    let shard_trace = fields.remove("trace");
    let (shard_root, dropped) = match &shard_trace {
        Some(t) => (
            t.get("root").cloned().unwrap_or(Json::Null),
            t.get("dropped").and_then(Json::as_u64).unwrap_or(0),
        ),
        None => (Json::Null, 0),
    };
    let mut rtt_children = Vec::new();
    if !matches!(shard_root, Json::Null) {
        rtt_children.push(shard_root);
    }
    let rtt_node = Json::obj([
        ("name", Json::from("backend_rtt")),
        (
            "start_us",
            Json::from(t_fwd.duration_since(t0).as_micros() as u64),
        ),
        ("dur_us", Json::from(rtt.as_micros() as u64)),
        ("shard", Json::from(backend.name.as_str())),
        ("children", Json::Arr(rtt_children)),
    ]);
    let root = Json::obj([
        ("name", Json::from("route")),
        ("start_us", Json::from(0u64)),
        ("dur_us", Json::from(t0.elapsed().as_micros() as u64)),
        ("children", Json::Arr(vec![rtt_node])),
    ]);
    fields.insert(
        "trace".to_string(),
        Json::obj([
            ("trace_id", Json::from(trace_id)),
            ("dropped", Json::from(dropped)),
            ("root", root),
        ]),
    );
    Json::Obj(fields).to_string()
}

/// Fans `slowlog` out to every shard and merges the rings: entries are
/// annotated with their shard, ordered slowest-first, and capped at
/// `limit` after the merge (each shard also applied it, bounding the
/// transfer). Unreachable shards are listed, so a partial merge is
/// visibly partial.
fn merged_slowlog(inner: &Arc<Inner>, limit: Option<usize>) -> Vec<(&'static str, Json)> {
    let line = match limit {
        Some(l) => format!(r#"{{"cmd":"slowlog","limit":{l}}}"#),
        None => r#"{"cmd":"slowlog"}"#.to_string(),
    };
    let table = inner.table();
    let mut entries: Vec<Json> = Vec::new();
    let mut unavailable: Vec<Json> = Vec::new();
    for (backend, outcome) in fan_out_all(inner, &table, &line) {
        match outcome {
            Ok(response) => {
                let listed = crate::json::parse(&response)
                    .ok()
                    .and_then(|v| v.get("entries").cloned());
                if let Some(Json::Arr(es)) = listed {
                    for mut e in es {
                        if let Json::Obj(f) = &mut e {
                            f.insert("shard".to_string(), Json::from(backend.name.as_str()));
                        }
                        entries.push(e);
                    }
                }
            }
            // Merges degrade, they don't fail: the response still
            // succeeds, so the client-facing shard_unavailable counter
            // is left alone.
            Err(_) => {
                unavailable.push(Json::from(backend.name.as_str()));
            }
        }
    }
    entries.sort_by(|a, b| {
        let ms = |e: &Json| e.get("total_ms").and_then(Json::as_f64).unwrap_or(0.0);
        ms(b)
            .partial_cmp(&ms(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if let Some(l) = limit {
        entries.truncate(l);
    }
    vec![
        ("entries", Json::Arr(entries)),
        ("shards_unavailable", Json::Arr(unavailable)),
    ]
}

/// Prometheus text exposition of the router's own counters and per-shard
/// health (the shards serve their full exposition themselves on their
/// `metrics` command).
fn router_prometheus(inner: &Arc<Inner>) -> String {
    let m = &inner.metrics;
    let mut out = String::new();
    let mut counter = |name: &str, help: &str, v: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
        ));
    };
    let f = &inner.frontend;
    counter(
        "mwc_router_requests_total",
        "Requests read by the router.",
        f.requests_total.load(Ordering::Relaxed),
    );
    counter(
        "mwc_router_forwarded_total",
        "Requests forwarded to a backend shard.",
        m.forwarded_total.load(Ordering::Relaxed),
    );
    counter(
        "mwc_router_local_total",
        "Requests answered by the router itself.",
        m.local_total.load(Ordering::Relaxed),
    );
    counter(
        "mwc_router_bad_request_total",
        "Requests rejected as malformed.",
        f.bad_request_total.load(Ordering::Relaxed),
    );
    counter(
        "mwc_router_shard_unavailable_total",
        "Requests or batch entries failed with shard_unavailable.",
        m.shard_unavailable_total.load(Ordering::Relaxed),
    );
    counter(
        "mwc_router_read_fallthrough_total",
        "Reads answered by a later replica after an earlier one failed.",
        m.read_fallthrough_total.load(Ordering::Relaxed),
    );
    counter(
        "mwc_router_reshards_total",
        "Completed reshard commands (routing flipped).",
        m.reshards_total.load(Ordering::Relaxed),
    );
    counter(
        "mwc_router_migrated_graphs_total",
        "Graphs streamed to gaining shards during reshards.",
        m.migrated_graphs_total.load(Ordering::Relaxed),
    );
    counter(
        "mwc_router_streamed_cache_entries_total",
        "Warm solve-cache entries imported by gaining shards.",
        m.streamed_cache_entries_total.load(Ordering::Relaxed),
    );
    counter(
        "mwc_router_connections_total",
        "Client connections accepted.",
        f.connections_total.load(Ordering::Relaxed),
    );
    counter(
        "mwc_router_panics_total",
        "Relayed requests whose work panicked (each answered internal).",
        f.panics_total.load(Ordering::Relaxed),
    );
    let table = inner.table();
    out.push_str("# HELP mwc_router_shard_healthy Shard health (1 = accepting, 0 = ejected).\n");
    out.push_str("# TYPE mwc_router_shard_healthy gauge\n");
    for b in &table.backends {
        out.push_str(&format!(
            "mwc_router_shard_healthy{{shard=\"{}\"}} {}\n",
            b.name,
            u64::from(b.healthy())
        ));
    }
    out.push_str("# HELP mwc_router_shard_forwarded_total Requests forwarded per shard.\n");
    out.push_str("# TYPE mwc_router_shard_forwarded_total counter\n");
    for b in &table.backends {
        out.push_str(&format!(
            "mwc_router_shard_forwarded_total{{shard=\"{}\"}} {}\n",
            b.name,
            b.forwarded_total.load(Ordering::Relaxed)
        ));
    }
    out.push_str("# HELP mwc_router_shard_failed_total Forward failures per shard.\n");
    out.push_str("# TYPE mwc_router_shard_failed_total counter\n");
    for b in &table.backends {
        out.push_str(&format!(
            "mwc_router_shard_failed_total{{shard=\"{}\"}} {}\n",
            b.name,
            b.failed_total.load(Ordering::Relaxed)
        ));
    }
    out
}

/// The `shard` introspection payload: ring shape (replica factor
/// included), per-shard health, and (when asked) the replica assignment
/// of one graph name.
fn shard_payload(inner: &Arc<Inner>, graph: Option<&str>) -> Vec<(&'static str, Json)> {
    let table = inner.table();
    let shards: Vec<Json> = table
        .backends
        .iter()
        .map(|b| {
            let mut health = b.health_json();
            if let Json::Obj(fields) = &mut health {
                fields.insert("name".to_string(), Json::from(b.name.as_str()));
            }
            health
        })
        .collect();
    let mut payload = vec![
        (
            "ring",
            Json::obj([
                ("shards", Json::from(table.ring.len())),
                ("vnodes", Json::from(table.ring.vnodes())),
                ("replicas", Json::from(inner.config.replicas.max(1))),
            ]),
        ),
        ("shards", Json::Arr(shards)),
    ];
    if let Some(graph) = graph {
        let replica_names: Vec<Json> = table
            .replicas_for(graph, inner.config.replicas)
            .iter()
            .map(|b| Json::from(b.name.as_str()))
            .collect();
        payload.push((
            "assignment",
            Json::obj([
                ("graph", Json::from(graph)),
                ("shard", Json::from(table.ring.route(graph))),
                ("replicas", Json::Arr(replica_names)),
            ]),
        ));
    }
    payload
}

/// Sums the counter fields the aggregate section tracks across shards.
fn sum_into(totals: &mut Vec<(String, f64)>, section: &Json, fields: &[&str], prefix: &str) {
    for field in fields {
        if let Some(x) = section.get(field).and_then(Json::as_f64) {
            let key = if prefix.is_empty() {
                (*field).to_string()
            } else {
                format!("{prefix}.{field}")
            };
            match totals.iter_mut().find(|(k, _)| *k == key) {
                Some((_, total)) => *total += x,
                None => totals.push((key, x)),
            }
        }
    }
}

/// Forwards `line` to every backend of `table` concurrently (one scoped
/// thread per shard, the same shape as the batch fan-out) so one wedged
/// shard costs its own timeout, not a serial sum across the fleet.
/// Results keep the backend order.
fn fan_out_all<'a>(
    inner: &Arc<Inner>,
    table: &'a RouteTable,
    line: &str,
) -> Vec<(&'a Arc<Backend>, Result<String, ServiceError>)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = table
            .backends
            .iter()
            .map(|backend| scope.spawn(move || (backend, backend.forward(&inner.config, line))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    })
}

/// Fans `stats` out to every shard and merges: `aggregate` (summed
/// counters), `shards` (each backend's own document, or an
/// `unavailable` marker), and `router` (the router's own counters and
/// per-shard health).
fn merged_stats(inner: &Arc<Inner>) -> Json {
    let table = inner.table();
    let mut per_shard: Vec<(String, Json)> = Vec::new();
    let mut totals: Vec<(String, f64)> = Vec::new();
    for (backend, outcome) in fan_out_all(inner, &table, r#"{"cmd":"stats"}"#) {
        match outcome {
            Ok(response) => {
                let stats = crate::json::parse(&response)
                    .ok()
                    .and_then(|v| v.get("stats").cloned())
                    .unwrap_or(Json::Null);
                if let Some(requests) = stats.get("requests") {
                    sum_into(
                        &mut totals,
                        requests,
                        &[
                            "total",
                            "ok",
                            "error",
                            "overloaded",
                            "bad_request",
                            "queue_deadline",
                        ],
                        "requests",
                    );
                }
                if let Some(cache) = stats.get("solve_cache") {
                    sum_into(
                        &mut totals,
                        cache,
                        &[
                            "hits",
                            "misses",
                            "evictions",
                            "expired",
                            "entries",
                            "bytes_used",
                        ],
                        "solve_cache",
                    );
                }
                if let Some(coalesce) = stats.get("coalesce") {
                    sum_into(
                        &mut totals,
                        coalesce,
                        &[
                            "enqueued",
                            "gathered",
                            "bypassed",
                            "overflow",
                            "expired",
                            "aborted",
                            "flush_total",
                            "flush_window",
                            "flush_lanes",
                            "flush_drain",
                            "coalesced_requests",
                            "group_requests",
                            "cache_hits",
                            "deduped",
                            "joined",
                            "executed",
                            // Retired: every shard reports 0.
                            "shared_sweeps",
                            "shared_lanes",
                            "shared_roots",
                        ],
                        "coalesce",
                    );
                }
                if let Some(batch) = stats.get("batch") {
                    sum_into(
                        &mut totals,
                        batch,
                        &["requests", "deduped", "joined", "executed"],
                        "batch",
                    );
                }
                sum_into(&mut totals, &stats, &["connections"], "");
                per_shard.push((backend.name.clone(), stats));
            }
            // A merge marks the shard and moves on — the stats request
            // itself succeeds, so this is not a shard_unavailable error.
            Err(e) => {
                per_shard.push((
                    backend.name.clone(),
                    Json::obj([("unavailable", Json::Bool(true)), ("error", error_json(&e))]),
                ));
            }
        }
    }
    // Rebuild the dotted keys into nested objects.
    let mut aggregate: std::collections::BTreeMap<String, Json> = Default::default();
    for (key, value) in totals {
        match key.split_once('.') {
            None => {
                aggregate.insert(key, Json::Num(value));
            }
            Some((outer, inner_key)) => {
                let section = aggregate
                    .entry(outer.to_string())
                    .or_insert_with(|| Json::Obj(Default::default()));
                if let Json::Obj(fields) = section {
                    fields.insert(inner_key.to_string(), Json::Num(value));
                }
            }
        }
    }
    let m = &inner.metrics;
    let f = &inner.frontend;
    let load = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
    let router = Json::obj([
        (
            "requests",
            Json::obj([
                ("total", load(&f.requests_total)),
                ("forwarded", load(&m.forwarded_total)),
                ("local", load(&m.local_total)),
                ("bad_request", load(&f.bad_request_total)),
                ("shard_unavailable", load(&m.shard_unavailable_total)),
                ("read_fallthrough", load(&m.read_fallthrough_total)),
            ]),
        ),
        ("connections", load(&f.connections_total)),
        ("panics_total", load(&f.panics_total)),
        ("replicas", Json::from(inner.config.replicas.max(1))),
        (
            "reshard",
            Json::obj([
                ("completed", load(&m.reshards_total)),
                ("migrated_graphs", load(&m.migrated_graphs_total)),
                (
                    "streamed_cache_entries",
                    load(&m.streamed_cache_entries_total),
                ),
            ]),
        ),
        (
            "shards",
            Json::Obj(
                table
                    .backends
                    .iter()
                    .map(|b| (b.name.clone(), b.health_json()))
                    .collect(),
            ),
        ),
    ]);
    Json::obj([
        ("router", router),
        ("aggregate", Json::Obj(aggregate)),
        ("shards", Json::Obj(per_shard.into_iter().collect())),
    ])
}

/// Fans `graphs` out and merges the listings. Replica copies of the same
/// graph collapse into one entry, annotated with `shard` (the ring's
/// primary owner) and `replicas` (every shard that reported a copy);
/// unreachable shards are listed in `shards_unavailable` so a partial
/// answer is visibly partial.
fn merged_graphs(inner: &Arc<Inner>) -> Vec<(&'static str, Json)> {
    let table = inner.table();
    // (name, first-reported entry, shards holding a copy)
    let mut merged: Vec<(String, Json, Vec<Json>)> = Vec::new();
    let mut unavailable: Vec<Json> = Vec::new();
    for (backend, outcome) in fan_out_all(inner, &table, r#"{"cmd":"graphs"}"#) {
        match outcome {
            Ok(response) => {
                let listed = crate::json::parse(&response)
                    .ok()
                    .and_then(|v| v.get("graphs").cloned());
                if let Some(Json::Arr(entries)) = listed {
                    for entry in entries {
                        let name = entry
                            .get("name")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string();
                        match merged.iter_mut().find(|(n, _, _)| *n == name) {
                            Some((_, _, holders)) => {
                                holders.push(Json::from(backend.name.as_str()))
                            }
                            None => {
                                merged.push((name, entry, vec![Json::from(backend.name.as_str())]))
                            }
                        }
                    }
                }
            }
            // Same degrade-don't-fail contract as the stats merge.
            Err(_) => {
                unavailable.push(Json::from(backend.name.as_str()));
            }
        }
    }
    merged.sort_by(|a, b| a.0.cmp(&b.0));
    let graphs: Vec<Json> = merged
        .into_iter()
        .map(|(name, mut entry, holders)| {
            if let Json::Obj(fields) = &mut entry {
                fields.insert("shard".to_string(), Json::from(table.ring.route(&name)));
                fields.insert("replicas".to_string(), Json::Arr(holders));
            }
            entry
        })
        .collect();
    vec![
        ("graphs", Json::Arr(graphs)),
        ("shards_unavailable", Json::Arr(unavailable)),
    ]
}

/// One executed sub-batch: the backend it ran on, the original entry
/// indices it carried, and the parsed outcome.
type SubBatchOutcome = (Arc<Backend>, Vec<usize>, Result<Json, ServiceError>);

/// Splits a batch by serving shard (each entry picks a replica of its
/// graph, two-choice like single solves), executes the per-shard
/// sub-batches concurrently, and reassembles the replies in the original
/// request order. A sub-batch lost to a transport failure *falls
/// through*: its entries are regrouped onto each graph's next untried
/// replica and re-sent, so one dying shard costs latency, not answers —
/// `shard_unavailable` lands in an entry's slot only after every replica
/// of its graph failed.
fn handle_batch(
    inner: &Arc<Inner>,
    id: &Option<Json>,
    params: &SolveParams,
    queries: &[crate::protocol::BatchEntry],
) -> String {
    let table = inner.table();
    let replicas = inner.config.replicas.max(1);
    let mut slots: Vec<Option<Json>> = vec![None; queries.len()];
    // Backends already tried (and failed) per entry.
    let mut tried: Vec<Vec<String>> = vec![Vec::new(); queries.len()];
    let mut pending: Vec<usize> = (0..queries.len()).collect();
    while !pending.is_empty() {
        // Assign every unresolved entry its next untried replica; an
        // entry with none left gets its terminal shard_unavailable.
        let mut groups: Vec<(Arc<Backend>, Vec<usize>)> = Vec::new();
        let mut next_pending: Vec<usize> = Vec::new();
        for &i in &pending {
            let graph = queries[i].graph_name(&params.graph);
            let ordered = inner.read_order(table.replicas_for(graph, replicas));
            match ordered
                .into_iter()
                .find(|b| !tried[i].iter().any(|t| t == &b.name))
            {
                Some(backend) => match groups.iter_mut().find(|(b, _)| b.name == backend.name) {
                    Some((_, idxs)) => idxs.push(i),
                    None => groups.push((backend, vec![i])),
                },
                None => {
                    inner
                        .metrics
                        .shard_unavailable_total
                        .fetch_add(1, Ordering::Relaxed);
                    slots[i] = Some(Json::obj([(
                        "error",
                        error_json(&ServiceError::ShardUnavailable {
                            shard: table.ring.route(graph).to_string(),
                            reason: "every replica failed".to_string(),
                        }),
                    )]));
                }
            }
        }
        if groups.is_empty() {
            break;
        }
        inner
            .metrics
            .forwarded_total
            .fetch_add(groups.len() as u64, Ordering::Relaxed);
        let group_results: Vec<SubBatchOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .map(|(backend, idxs)| {
                    let config = &inner.config;
                    scope.spawn(move || {
                        let sub = sub_batch_line(params, queries, &idxs);
                        let outcome = backend.forward(config, &sub).and_then(|response| {
                            crate::json::parse(&response).map_err(|e| {
                                backend.unavailable(format!("unparseable backend response: {e}"))
                            })
                        });
                        (backend, idxs, outcome)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch fan-out worker panicked"))
                .collect()
        });
        for (backend, idxs, outcome) in group_results {
            match outcome {
                Ok(response) if response.get("ok").and_then(Json::as_bool) == Some(true) => {
                    let reports = response.get("reports").and_then(Json::as_array);
                    for (slot, i) in idxs.iter().enumerate() {
                        slots[*i] = Some(match reports.and_then(|r| r.get(slot)) {
                            Some(report) => report.clone(),
                            None => Json::obj([(
                                "error",
                                error_json(&ServiceError::BadRequest(
                                    "backend reply missing report slots".to_string(),
                                )),
                            )]),
                        });
                    }
                }
                Ok(response) => {
                    // The whole sub-batch was *refused* (e.g.
                    // overloaded): a definitive backend verdict, not a
                    // transport failure — surface it per entry, in
                    // place, without burning the other replicas.
                    let err = response.get("error").cloned().unwrap_or_else(|| {
                        error_json(&ServiceError::BadRequest(
                            "backend reply carried no error".to_string(),
                        ))
                    });
                    for &i in &idxs {
                        slots[i] = Some(Json::obj([("error", err.clone())]));
                    }
                }
                Err(_) => {
                    // Socket failure: fall through — each entry goes
                    // back in the pot for its next untried replica.
                    inner
                        .metrics
                        .read_fallthrough_total
                        .fetch_add(idxs.len() as u64, Ordering::Relaxed);
                    for i in idxs {
                        tried[i].push(backend.name.clone());
                        next_pending.push(i);
                    }
                }
            }
        }
        pending = next_pending;
    }
    let reports: Vec<Json> = slots.into_iter().flatten().collect();
    let solved = reports.iter().filter(|r| r.get("error").is_none()).count() as u64;
    let graph = if params.graph.is_empty() {
        Json::Null
    } else {
        Json::from(params.graph.as_str())
    };
    ok_response(
        id,
        vec![
            ("graph", graph),
            ("solved", Json::from(solved)),
            ("reports", Json::Arr(reports)),
        ],
    )
}

/// Builds the backend request line for one shard's slice of a batch.
/// Every entry names its graph explicitly (no top-level default), and the
/// router's own sequence number rides as the id.
fn sub_batch_line(
    params: &SolveParams,
    queries: &[crate::protocol::BatchEntry],
    idxs: &[usize],
) -> String {
    let mut fields: Vec<(&'static str, Json)> = vec![
        ("cmd", Json::from("batch")),
        ("solver", Json::from(params.solver.as_str())),
    ];
    if let Some(d) = params.deadline_ms {
        fields.push(("deadline_ms", Json::from(d)));
    }
    if let Some(m) = params.max_size {
        fields.push(("max_size", Json::from(m)));
    }
    if params.no_cache {
        fields.push(("no_cache", Json::Bool(true)));
    }
    let entries: Vec<Json> = idxs
        .iter()
        .map(|&i| {
            let entry = &queries[i];
            Json::obj([
                ("graph", Json::from(entry.graph_name(&params.graph))),
                (
                    "q",
                    Json::Arr(entry.q.iter().map(|&v| Json::from(u64::from(v))).collect()),
                ),
            ])
        })
        .collect();
    fields.push(("queries", Json::Arr(entries)));
    Json::obj(fields).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = RouterConfig::default();
        assert_eq!(c.vnodes, DEFAULT_VNODES);
        assert!(c.fail_threshold >= 1);
        assert!(c.reprobe_interval > Duration::ZERO);
        assert_eq!(c.replicas, 1, "classic single-owner routing by default");
    }

    #[test]
    fn replicas_for_clamps_and_returns_distinct_backends() {
        let ring = HashRing::new(&["a".to_string(), "b".to_string(), "c".to_string()], 64);
        let backends = vec![
            Arc::new(Backend::new("a".into(), "127.0.0.1:1".into())),
            Arc::new(Backend::new("b".into(), "127.0.0.1:2".into())),
            Arc::new(Backend::new("c".into(), "127.0.0.1:3".into())),
        ];
        let table = RouteTable { ring, backends };
        for want in [1usize, 2, 3, 7] {
            let picked = table.replicas_for("some-graph", want);
            assert_eq!(picked.len(), want.min(3));
            let mut names: Vec<&str> = picked.iter().map(|b| b.name.as_str()).collect();
            assert_eq!(names[0], table.ring.route("some-graph"), "primary first");
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), picked.len(), "replicas are distinct shards");
        }
    }

    #[test]
    fn start_rejects_empty_and_duplicate_shards() {
        assert!(start(Vec::new(), RouterConfig::default(), "127.0.0.1:0").is_err());
        let dup = vec![
            ShardSpec::new("a", "127.0.0.1:1"),
            ShardSpec::new("a", "127.0.0.1:2"),
        ];
        assert!(start(dup, RouterConfig::default(), "127.0.0.1:0").is_err());
    }

    #[test]
    fn sub_batch_lines_parse_back() {
        let params = SolveParams {
            graph: "default".into(),
            solver: "ws-q".into(),
            deadline_ms: Some(250),
            max_size: None,
            no_cache: true,
            trace: false,
            trace_id: None,
        };
        let queries = vec![
            crate::protocol::BatchEntry {
                graph: None,
                q: vec![0, 1],
            },
            crate::protocol::BatchEntry {
                graph: Some("other".into()),
                q: vec![2, 3],
            },
        ];
        let line = sub_batch_line(&params, &queries, &[1, 0]);
        let parsed = crate::protocol::parse_request(&line).unwrap();
        match parsed.command {
            Command::Batch {
                params: p,
                queries: qs,
            } => {
                assert_eq!(p.solver, "ws-q");
                assert_eq!(p.deadline_ms, Some(250));
                assert!(p.no_cache);
                // Index order is preserved and graphs are explicit.
                assert_eq!(qs[0].graph.as_deref(), Some("other"));
                assert_eq!(qs[0].q, vec![2, 3]);
                assert_eq!(qs[1].graph.as_deref(), Some("default"));
                assert_eq!(qs[1].q, vec![0, 1]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn backend_health_transitions() {
        let b = Backend::new("s0".into(), "127.0.0.1:1".into());
        assert!(b.healthy());
        b.record_failure(3);
        b.record_failure(3);
        assert!(b.healthy(), "below the threshold");
        b.record_failure(3);
        assert!(!b.healthy(), "ejected at the threshold");
        b.record_success();
        assert!(b.healthy(), "success restores immediately");
        assert_eq!(b.consecutive_failures.load(Ordering::SeqCst), 0);
    }
}
