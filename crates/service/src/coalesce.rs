//! Cross-request solve coalescing: a per-graph batch scheduler between
//! the worker pool and [`CatalogEntry`].
//!
//! The 64-lane multi-source kernel pays off only with its lanes full, and
//! one request's query fills a handful of them, so a lone solve computes
//! its roots' distances one by one in its sweep workers. This module
//! fills the lanes from *each other's* queries: solve requests for
//! the same graph that arrive within a short flush window are gathered
//! into one [`CatalogEntry::solve_group`] execution, whose engine-side
//! prefetch unions every request's roots into shared `MsBfsWorkspace`
//! sweeps and dedups identical work, then the results are demuxed back to
//! each waiting request with its own deadline accounting.
//!
//! # Concurrency model: leader–worker windows
//!
//! There are no dedicated scheduler threads. The first worker to enqueue
//! into an empty per-graph queue becomes that window's **leader**: it
//! parks on the queue's condvar until the window expires (time trigger),
//! enough root-BFS lanes have gathered (size trigger), or shutdown/abort
//! wakes it — then drains the queue, runs the shared execution, and
//! answers every member through its stored responder. Workers that
//! enqueue while a leader is waiting return immediately and go back to
//! pulling jobs, so a window gathers requests from the whole pool. With a
//! single worker the leader simply waits out the window alone — batching
//! degrades to a small fixed latency cost, never a deadlock.
//!
//! Lanes are counted once per distinct `(solver, canonical q, max_size)`:
//! identical members share one execution, so a duplicate adds no root
//! work and never triggers a flush.
//!
//! # Gather at flush
//!
//! A busy server's backlog sits in the admission queue, not in the
//! window: while the workers are all leading or solving, nobody pops it.
//! So once a window's time or size trigger fires, and before the shared
//! execution runs, the leader moves the solves for its graph that are
//! still queued into the window, in queue order, through the server's
//! [`Backlog`]. Duplicates of a member are always taken; a new distinct
//! query is taken while the window holds fewer than `max_lanes` lanes.
//! The scan stops at a queued `load` of the graph (the only queued
//! command that can replace it), leaves deadline-bearing requests to the
//! workers, and takes nothing a [`Coalescer::submit`] would not park:
//! no gather happens during shutdown, past `max_pending` members, or
//! once the catalog no longer serves the window's entry. Gathered
//! requests become ordinary members; the leader never solves one inline.
//!
//! # Bypass rules
//!
//! A request is executed directly (never parked) when coalescing is
//! disabled, the server is draining, its remaining deadline is within
//! twice the window (waiting could expire it), the queue is at
//! `max_pending`, or the catalog entry changed under the open window.
//!
//! # Eviction and shutdown
//!
//! [`Coalescer::abort`] fails everything parked for a graph with the
//! stable, retryable `graph_evicted` code — the server calls it before
//! `evict` removes (or `load` replaces) an entry, so no request is left
//! waiting on a dead queue. [`Coalescer::drain`] (called during graceful
//! shutdown, before the `shutdown` command is acknowledged) flushes every
//! queue: leaders are woken to flush immediately, and any leaderless
//! leftovers are flushed by the draining thread itself.
//!
//! Results are **bit-identical** to uncoalesced solves: MS-BFS lanes are
//! independent, so the distances a solver sees do not depend on which
//! other requests shared its sweep (pinned by the engine's group tests
//! and the service loopback parity suite).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mwc_core::{GroupQuery, SolveReport, TraceContext};
use mwc_graph::traversal::bfs::MS_BFS_LANES;
use mwc_graph::NodeId;

use crate::catalog::CatalogEntry;
use crate::error::ServiceError;
use crate::json::Json;
use crate::metrics::Histogram;
use crate::protocol::SolveParams;

/// How a parked request is answered once its window flushes: a one-shot
/// callback owning everything needed to write the response (the server
/// captures the connection handle, request id, and metrics registry).
pub type Responder = Box<dyn FnOnce(Result<SolveReport, ServiceError>) + Send + 'static>;

/// Coalescer tuning knobs.
#[derive(Debug, Clone)]
pub struct CoalesceConfig {
    /// Master switch. When off, every solve executes directly (the
    /// pre-coalescer behavior).
    pub enabled: bool,
    /// Flush window: how long the first request of a window waits for
    /// company before the batch executes.
    pub window: Duration,
    /// Size trigger: flush early once the gathered requests' root-BFS
    /// work is estimated to fill this many MS-BFS lanes (one lane per
    /// query vertex of each distinct query). A flush's gather takes new
    /// distinct queries only below it. Defaults to the kernel's lane
    /// width.
    pub max_lanes: usize,
    /// Hard cap on requests parked per graph, gathered ones included;
    /// beyond it new arrivals bypass to direct execution instead of
    /// queueing without bound.
    pub max_pending: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            enabled: true,
            window: Duration::from_micros(300),
            max_lanes: MS_BFS_LANES,
            max_pending: 256,
        }
    }
}

/// Verdict of [`Coalescer::submit`].
pub enum Submit {
    /// Not admitted (see the module docs' bypass rules) — the responder
    /// is handed back and the caller executes the solve itself.
    Direct(Responder),
    /// Parked in (or already answered by) a coalescing window; the flush
    /// writes the response through the stored responder.
    Queued,
}

/// One solve offered to a window, by [`Coalescer::submit`] or by a
/// [`Backlog`] gather.
pub struct Member {
    /// The request's wire parameters.
    pub params: SolveParams,
    /// The query vertex set, in original ids.
    pub q: Vec<NodeId>,
    /// When the server read the request (deadline epoch).
    pub received: Instant,
    /// Per-request tracing handle (disabled for untraced requests); the
    /// flush records the park time as a `coalesce_wait` span and threads
    /// the context into the shared execution's options.
    pub trace: TraceContext,
    /// Writes the answer once the window flushes.
    pub respond: Responder,
}

/// The admission backlog a flushing window gathers from: the server's
/// job queue (see the module docs' gather rule).
pub trait Backlog {
    /// Removes from the queue, in queue order, the deadline-free `solve`
    /// requests for `graph` that `take` accepts, stopping at a queued
    /// `load` of `graph`, and returns them ready to park in a window
    /// pinned to `entry`. Returns nothing when the catalog no longer
    /// serves `entry` under `graph`.
    fn gather(
        &self,
        graph: &str,
        entry: &Arc<CatalogEntry>,
        take: &mut dyn FnMut(&SolveParams, &[NodeId]) -> bool,
    ) -> Vec<Member>;
}

/// One parked request.
struct Pending {
    member: Member,
    /// When it entered the window (queue-wait epoch).
    enqueued: Instant,
}

/// The root-BFS lanes of a window, counted once per distinct `(solver,
/// canonical q, max_size)`: identical members share one execution in
/// [`CatalogEntry::solve_group`], so a duplicate adds no work.
#[derive(Default)]
struct Lanes {
    distinct: HashSet<(String, Vec<NodeId>, Option<usize>)>,
    count: usize,
}

impl Lanes {
    /// Counts `(params, q)` into the window unless an identical member is
    /// already there. With `cap`, a new distinct query is refused once
    /// the window holds `cap` lanes. Returns whether the member fits.
    fn add(&mut self, params: &SolveParams, q: &[NodeId], cap: Option<usize>) -> bool {
        let mut canonical = q.to_vec();
        canonical.sort_unstable();
        canonical.dedup();
        let lanes = canonical.len().max(1);
        // Deadline-bearing members never share an execution.
        let key = params
            .deadline_ms
            .is_none()
            .then(|| (params.solver.clone(), canonical, params.max_size));
        if key.as_ref().is_some_and(|k| self.distinct.contains(k)) {
            return true;
        }
        if cap.is_some_and(|cap| self.count >= cap) {
            return false;
        }
        self.distinct.extend(key);
        self.count += lanes;
        true
    }
}

/// Why a window flushed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Trigger {
    Window,
    Lanes,
    Drain,
}

struct QueueState {
    /// The catalog entry every parked request was admitted against. All
    /// members of one window share it; a submit pinning a *different*
    /// entry (load replaced it mid-window) bypasses instead.
    entry: Option<Arc<CatalogEntry>>,
    pending: Vec<Pending>,
    /// MS-BFS lanes of the parked members' distinct root work.
    lanes: Lanes,
    /// Whether a leader is currently waiting on / flushing this queue.
    leader: bool,
    /// When the current window opened (leadership claimed).
    opened: Instant,
}

struct GraphQueue {
    state: Mutex<QueueState>,
    wake: Condvar,
}

impl GraphQueue {
    fn new() -> Self {
        GraphQueue {
            state: Mutex::new(QueueState {
                entry: None,
                pending: Vec::new(),
                lanes: Lanes::default(),
                leader: false,
                opened: Instant::now(),
            }),
            wake: Condvar::new(),
        }
    }
}

/// The per-graph batch scheduler. One per server; shared by the worker
/// pool, the control plane (`evict`/`load` abort, shutdown drain), and
/// the `stats` command.
pub struct Coalescer {
    config: CoalesceConfig,
    queues: Mutex<HashMap<String, Arc<GraphQueue>>>,
    shutdown: AtomicBool,
    // Admission counters.
    enqueued_total: AtomicU64,
    gathered_total: AtomicU64,
    bypass_total: AtomicU64,
    overflow_total: AtomicU64,
    // Outcome counters.
    expired_total: AtomicU64,
    aborted_total: AtomicU64,
    // Flush counters.
    flush_total: AtomicU64,
    flush_window: AtomicU64,
    flush_lanes: AtomicU64,
    flush_drain: AtomicU64,
    coalesced_requests: AtomicU64,
    // Engine-reported group stats, merged across flushes.
    group_requests: AtomicU64,
    group_cache_hits: AtomicU64,
    group_deduped: AtomicU64,
    group_executed: AtomicU64,
    group_shared_sweeps: AtomicU64,
    group_shared_lanes: AtomicU64,
    group_shared_roots: AtomicU64,
    /// Time requests spend parked before their window flushes.
    queue_wait: Histogram,
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("config", &self.config)
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Coalescer {
    /// A fresh scheduler with no open windows.
    pub fn new(config: CoalesceConfig) -> Coalescer {
        Coalescer {
            config,
            queues: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            enqueued_total: AtomicU64::new(0),
            gathered_total: AtomicU64::new(0),
            bypass_total: AtomicU64::new(0),
            overflow_total: AtomicU64::new(0),
            expired_total: AtomicU64::new(0),
            aborted_total: AtomicU64::new(0),
            flush_total: AtomicU64::new(0),
            flush_window: AtomicU64::new(0),
            flush_lanes: AtomicU64::new(0),
            flush_drain: AtomicU64::new(0),
            coalesced_requests: AtomicU64::new(0),
            group_requests: AtomicU64::new(0),
            group_cache_hits: AtomicU64::new(0),
            group_deduped: AtomicU64::new(0),
            group_executed: AtomicU64::new(0),
            group_shared_sweeps: AtomicU64::new(0),
            group_shared_lanes: AtomicU64::new(0),
            group_shared_roots: AtomicU64::new(0),
            queue_wait: Histogram::default(),
        }
    }

    /// Whether the master switch is on (bypass decisions still apply per
    /// request).
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> &CoalesceConfig {
        &self.config
    }

    /// Offers one solve to the scheduler. `remaining` is the deadline
    /// residue the server already computed (deadline-expired requests
    /// never get here). A submit that opens a window leads it, gathering
    /// from `backlog` when the window flushes. Returns [`Submit::Direct`]
    /// with the responder handed back when the request should execute
    /// uncoalesced.
    pub fn submit(
        &self,
        entry: &Arc<CatalogEntry>,
        member: Member,
        remaining: Option<Duration>,
        backlog: &dyn Backlog,
    ) -> Submit {
        if !self.config.enabled || self.shutdown.load(Ordering::SeqCst) {
            return Submit::Direct(member.respond);
        }
        // Deadline bypass: a request that could expire while parked (or
        // soon after) must not gamble on the window.
        if let Some(d) = remaining {
            if d <= self.config.window * 2 {
                self.bypass_total.fetch_add(1, Ordering::Relaxed);
                return Submit::Direct(member.respond);
            }
        }
        let graph = member.params.graph.clone();
        let queue = {
            let mut queues = self.queues.lock().expect("coalesce registry poisoned");
            Arc::clone(
                queues
                    .entry(graph.clone())
                    .or_insert_with(|| Arc::new(GraphQueue::new())),
            )
        };
        let lead_now = {
            let mut state = queue.state.lock().expect("coalesce queue poisoned");
            if state.pending.len() >= self.config.max_pending {
                self.overflow_total.fetch_add(1, Ordering::Relaxed);
                return Submit::Direct(member.respond);
            }
            match &state.entry {
                Some(open) if !Arc::ptr_eq(open, entry) => {
                    // The catalog replaced this graph under the open
                    // window; don't mix engines in one batch.
                    self.bypass_total.fetch_add(1, Ordering::Relaxed);
                    return Submit::Direct(member.respond);
                }
                Some(_) => {}
                None => state.entry = Some(Arc::clone(entry)),
            }
            state.lanes.add(&member.params, &member.q, None);
            state.pending.push(Pending {
                member,
                enqueued: Instant::now(),
            });
            self.enqueued_total.fetch_add(1, Ordering::Relaxed);
            if state.leader {
                if state.lanes.count >= self.config.max_lanes {
                    queue.wake.notify_all(); // size trigger: flush early
                }
                false
            } else {
                state.leader = true;
                state.opened = Instant::now();
                true
            }
        };
        if lead_now {
            self.lead(&graph, &queue, backlog);
        }
        Submit::Queued
    }

    /// The leader's wait-gather-flush loop (runs on the submitting
    /// worker's thread; see the module docs).
    fn lead(&self, graph: &str, queue: &GraphQueue, backlog: &dyn Backlog) {
        let mut state = queue.state.lock().expect("coalesce queue poisoned");
        let trigger = loop {
            if state.pending.is_empty() {
                break Trigger::Drain; // aborted under us; nothing to flush
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break Trigger::Drain;
            }
            if state.lanes.count >= self.config.max_lanes {
                break Trigger::Lanes;
            }
            let elapsed = state.opened.elapsed();
            if elapsed >= self.config.window {
                break Trigger::Window;
            }
            let (guard, _) = queue
                .wake
                .wait_timeout(state, self.config.window - elapsed)
                .expect("coalesce queue poisoned");
            state = guard;
        };
        let entry = state.entry.take();
        let mut batch = std::mem::take(&mut state.pending);
        let lanes = std::mem::take(&mut state.lanes);
        state.leader = false;
        drop(state);
        queue.wake.notify_all(); // unblock drain() waiters and new leaders
        if let Some(entry) = entry.as_ref().filter(|_| trigger != Trigger::Drain) {
            self.gather(graph, entry, &mut batch, lanes, backlog);
        }
        if !batch.is_empty() {
            self.flush(entry, batch, trigger);
        }
    }

    /// Moves `graph`'s queued solves from `backlog` into a flushing
    /// window: duplicates of a member always, new distinct queries while
    /// the window holds fewer than `max_lanes` lanes, and never more than
    /// `max_pending` members in all.
    fn gather(
        &self,
        graph: &str,
        entry: &Arc<CatalogEntry>,
        batch: &mut Vec<Pending>,
        mut lanes: Lanes,
        backlog: &dyn Backlog,
    ) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut room = self.config.max_pending.saturating_sub(batch.len());
        let gathered = backlog.gather(graph, entry, &mut |params, q| {
            let take = room > 0 && lanes.add(params, q, Some(self.config.max_lanes));
            room -= take as usize;
            take
        });
        self.gathered_total
            .fetch_add(gathered.len() as u64, Ordering::Relaxed);
        let now = Instant::now();
        batch.extend(gathered.into_iter().map(|member| Pending {
            member,
            enqueued: now,
        }));
    }

    /// Executes one drained window and demuxes the results.
    fn flush(&self, entry: Option<Arc<CatalogEntry>>, batch: Vec<Pending>, trigger: Trigger) {
        self.flush_total.fetch_add(1, Ordering::Relaxed);
        match trigger {
            Trigger::Window => &self.flush_window,
            Trigger::Lanes => &self.flush_lanes,
            Trigger::Drain => &self.flush_drain,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.coalesced_requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let now = Instant::now();
        // Per-member deadline accounting: requests whose budget ran out
        // while parked fail without running; the rest carry their residue
        // into the shared execution as their own cooperative deadline.
        let mut live: Vec<Member> = Vec::with_capacity(batch.len());
        let mut queries: Vec<GroupQuery> = Vec::with_capacity(batch.len());
        for pending in batch {
            let (p, enqueued) = (pending.member, pending.enqueued);
            self.queue_wait.record(now.duration_since(enqueued));
            let spent = p.received.elapsed();
            let residue = match p.params.deadline_ms {
                None => None,
                Some(ms) => match Duration::from_millis(ms).checked_sub(spent) {
                    Some(d) if !d.is_zero() => Some(d),
                    _ => {
                        self.expired_total.fetch_add(1, Ordering::Relaxed);
                        (p.respond)(Err(ServiceError::DeadlineExceeded {
                            queued_ms: spent.as_millis() as u64,
                        }));
                        continue;
                    }
                },
            };
            // The window park shows up in the request's span tree as
            // `coalesce_wait`, then the shared execution records its own
            // stages through the same context.
            p.trace.record("coalesce_wait", enqueued, now);
            queries.push(GroupQuery::new(
                p.params.solver.clone(),
                p.q.clone(),
                p.params.options(residue).trace(p.trace.clone()),
            ));
            live.push(p);
        }
        if live.is_empty() {
            return;
        }
        let Some(entry) = entry else {
            // Abort raced the drain: the entry is gone but the pendings
            // were handed to us. Fail them the same retryable way.
            for p in live {
                let name = p.params.graph.clone();
                self.aborted_total.fetch_add(1, Ordering::Relaxed);
                (p.respond)(Err(ServiceError::GraphEvicted { name }));
            }
            return;
        };
        let outcome = entry.solve_group(&queries);
        let s = outcome.stats;
        self.group_requests.fetch_add(s.requests, Ordering::Relaxed);
        self.group_cache_hits
            .fetch_add(s.cache_hits, Ordering::Relaxed);
        self.group_deduped.fetch_add(s.deduped, Ordering::Relaxed);
        self.group_executed.fetch_add(s.executed, Ordering::Relaxed);
        self.group_shared_sweeps
            .fetch_add(s.shared_sweeps, Ordering::Relaxed);
        self.group_shared_lanes
            .fetch_add(s.shared_lanes, Ordering::Relaxed);
        self.group_shared_roots
            .fetch_add(s.shared_roots, Ordering::Relaxed);
        for (p, result) in live.into_iter().zip(outcome.results) {
            (p.respond)(result.map_err(ServiceError::Core));
        }
    }

    /// Fails everything parked for `name` with the retryable
    /// `graph_evicted` code and closes the open window. The server calls
    /// this *before* `evict` removes (or `load` replaces) the catalog
    /// entry. Returns how many requests were failed.
    pub fn abort(&self, name: &str) -> usize {
        let queue = {
            let queues = self.queues.lock().expect("coalesce registry poisoned");
            queues.get(name).cloned()
        };
        let Some(queue) = queue else { return 0 };
        let batch = {
            let mut state = queue.state.lock().expect("coalesce queue poisoned");
            state.entry = None;
            state.lanes = Lanes::default();
            std::mem::take(&mut state.pending)
        };
        queue.wake.notify_all(); // the leader wakes, finds nothing, retires
        self.aborted_total
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let n = batch.len();
        for p in batch {
            (p.member.respond)(Err(ServiceError::GraphEvicted {
                name: name.to_string(),
            }));
        }
        n
    }

    /// Shutdown drain: stops admitting (later submits go direct), wakes
    /// every leader to flush immediately, and blocks until every queue is
    /// empty with no leader attached — so by the time the server
    /// acknowledges `shutdown`, no request is parked anywhere. Leaderless
    /// leftovers (a race window around leader retirement) are flushed by
    /// this thread itself.
    pub fn drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let queues: Vec<Arc<GraphQueue>> = self
            .queues
            .lock()
            .expect("coalesce registry poisoned")
            .values()
            .cloned()
            .collect();
        for q in &queues {
            q.wake.notify_all();
        }
        for q in queues {
            let mut state = q.state.lock().expect("coalesce queue poisoned");
            loop {
                if !state.leader && !state.pending.is_empty() {
                    let entry = state.entry.take();
                    let batch = std::mem::take(&mut state.pending);
                    state.lanes = Lanes::default();
                    drop(state);
                    self.flush(entry, batch, Trigger::Drain);
                    state = q.state.lock().expect("coalesce queue poisoned");
                    continue;
                }
                if !state.leader && state.pending.is_empty() {
                    break;
                }
                let (guard, _) = q
                    .wake
                    .wait_timeout(state, Duration::from_millis(10))
                    .expect("coalesce queue poisoned");
                state = guard;
            }
        }
    }

    /// The `stats` wire section: flat counters (so the router's aggregate
    /// summation works field-by-field) plus the queue-wait histogram.
    pub fn stats_json(&self) -> Json {
        let load = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        let sweeps = self.group_shared_sweeps.load(Ordering::Relaxed);
        let lanes = self.group_shared_lanes.load(Ordering::Relaxed);
        let occupancy = if sweeps == 0 {
            0.0
        } else {
            lanes as f64 / (sweeps * MS_BFS_LANES as u64) as f64
        };
        Json::obj([
            ("enabled", Json::Bool(self.config.enabled)),
            (
                "window_us",
                Json::from(self.config.window.as_micros() as u64),
            ),
            ("max_lanes", Json::from(self.config.max_lanes)),
            ("enqueued", load(&self.enqueued_total)),
            ("gathered", load(&self.gathered_total)),
            ("bypassed", load(&self.bypass_total)),
            ("overflow", load(&self.overflow_total)),
            ("expired", load(&self.expired_total)),
            ("aborted", load(&self.aborted_total)),
            ("flush_total", load(&self.flush_total)),
            ("flush_window", load(&self.flush_window)),
            ("flush_lanes", load(&self.flush_lanes)),
            ("flush_drain", load(&self.flush_drain)),
            ("coalesced_requests", load(&self.coalesced_requests)),
            ("group_requests", load(&self.group_requests)),
            ("cache_hits", load(&self.group_cache_hits)),
            ("deduped", load(&self.group_deduped)),
            ("executed", load(&self.group_executed)),
            ("shared_sweeps", load(&self.group_shared_sweeps)),
            ("shared_lanes", load(&self.group_shared_lanes)),
            ("shared_roots", load(&self.group_shared_roots)),
            ("lane_occupancy_mean", Json::from(occupancy)),
            (
                "queue_wait",
                Json::obj([
                    ("count", Json::from(self.queue_wait.count())),
                    ("mean_ms", Json::from(self.queue_wait.mean_ms())),
                    ("p50_ms", Json::from(self.queue_wait.quantile_ms(0.50))),
                    ("p99_ms", Json::from(self.queue_wait.quantile_ms(0.99))),
                    ("max_ms", Json::from(self.queue_wait.max_ms())),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use std::sync::mpsc;

    fn params(graph: &str, solver: &str) -> SolveParams {
        SolveParams {
            graph: graph.to_string(),
            solver: solver.to_string(),
            deadline_ms: None,
            max_size: None,
            no_cache: true,
            trace: false,
            trace_id: None,
        }
    }

    fn channel_responder() -> (Responder, mpsc::Receiver<Result<SolveReport, ServiceError>>) {
        let (tx, rx) = mpsc::channel();
        (
            Box::new(move |r| {
                let _ = tx.send(r);
            }),
            rx,
        )
    }

    fn member(
        params: SolveParams,
        q: Vec<NodeId>,
        received: Instant,
        respond: Responder,
    ) -> Member {
        Member {
            params,
            q,
            received,
            trace: TraceContext::disabled(),
            respond,
        }
    }

    /// An empty admission queue.
    struct NoBacklog;

    impl Backlog for NoBacklog {
        fn gather(
            &self,
            _: &str,
            _: &Arc<CatalogEntry>,
            _: &mut dyn FnMut(&SolveParams, &[NodeId]) -> bool,
        ) -> Vec<Member> {
            Vec::new()
        }
    }

    #[test]
    fn window_coalesces_and_matches_direct_solves() {
        let catalog = Catalog::new().with_solve_cache_bytes(0);
        let entry = catalog.load("k", "karate").unwrap();
        let co = Arc::new(Coalescer::new(CoalesceConfig {
            window: Duration::from_millis(40),
            ..CoalesceConfig::default()
        }));
        let queries: Vec<Vec<NodeId>> = vec![vec![0, 33], vec![11, 24, 25, 29], vec![5, 16]];
        let solvers = ["ws-q", "ws-q+ls", "st"];
        // Leader-to-be submits from a helper thread (it blocks for the
        // window); followers park and return immediately.
        let mut rxs = Vec::new();
        let mut leaders = Vec::new();
        for (q, solver) in queries.iter().zip(solvers) {
            let (respond, rx) = channel_responder();
            rxs.push(rx);
            let co = Arc::clone(&co);
            let entry = Arc::clone(&entry);
            let p = params("k", solver);
            let q = q.clone();
            leaders.push(std::thread::spawn(move || {
                let now = Instant::now();
                matches!(
                    co.submit(&entry, member(p, q, now, respond), None, &NoBacklog),
                    Submit::Queued
                )
            }));
            // Give the first submit time to claim leadership so the rest
            // join its window.
            std::thread::sleep(Duration::from_millis(5));
        }
        for h in leaders {
            assert!(h.join().unwrap());
        }
        for ((q, solver), rx) in queries.iter().zip(solvers).zip(&rxs) {
            let got = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("flush answered")
                .expect("solve ok");
            let direct = entry
                .solve(solver, q, &mwc_core::QueryOptions::new().no_cache())
                .unwrap();
            assert_eq!(got.connector.vertices(), direct.connector.vertices());
            assert_eq!(got.wiener_index, direct.wiener_index);
        }
        let stats = co.stats_json();
        assert_eq!(stats.get("enqueued").unwrap().as_u64(), Some(3));
        assert_eq!(stats.get("flush_total").unwrap().as_u64(), Some(1));
        assert!(stats.get("shared_sweeps").unwrap().as_u64().unwrap() >= 1);
    }

    /// Requests waiting for a worker, offered to a gather in order.
    struct QueuedBacklog(Mutex<Vec<Member>>);

    impl Backlog for QueuedBacklog {
        fn gather(
            &self,
            graph: &str,
            _: &Arc<CatalogEntry>,
            take: &mut dyn FnMut(&SolveParams, &[NodeId]) -> bool,
        ) -> Vec<Member> {
            let mut queued = self.0.lock().unwrap();
            let (taken, kept) = queued
                .drain(..)
                .partition(|m| m.params.graph == graph && take(&m.params, &m.q));
            *queued = kept;
            taken
        }
    }

    #[test]
    fn flush_gathers_duplicates_always_and_distinct_queries_up_to_the_lane_cap() {
        let catalog = Catalog::new().with_solve_cache_bytes(0);
        let entry = catalog.load("k", "karate").unwrap();
        let co = Coalescer::new(CoalesceConfig {
            window: Duration::from_millis(20),
            max_lanes: 4,
            ..CoalesceConfig::default()
        });
        let queued: Vec<(&str, Vec<NodeId>)> = vec![
            ("k", vec![33, 0]),     // duplicate of the leader's query
            ("k", vec![5, 16]),     // distinct: the window reaches 4 lanes
            ("k", vec![11, 24]),    // distinct past the cap: stays queued
            ("x", vec![0, 33]),     // another graph: stays queued
            ("k", vec![0, 33, 33]), // duplicate past the cap: taken
        ];
        let mut rxs = Vec::new();
        let backlog = QueuedBacklog(Mutex::new(
            queued
                .iter()
                .map(|(graph, q)| {
                    let (respond, rx) = channel_responder();
                    rxs.push(rx);
                    member(params(graph, "ws-q"), q.clone(), Instant::now(), respond)
                })
                .collect(),
        ));
        let (respond, rx) = channel_responder();
        let leader = member(params("k", "ws-q"), vec![0, 33], Instant::now(), respond);
        assert!(matches!(
            co.submit(&entry, leader, None, &backlog),
            Submit::Queued
        ));

        let left: Vec<Vec<NodeId>> = backlog
            .0
            .lock()
            .unwrap()
            .iter()
            .map(|m| m.q.clone())
            .collect();
        assert_eq!(left, vec![vec![11, 24], vec![0, 33]]);
        let answered = [
            (&rx, vec![0, 33]),
            (&rxs[0], vec![33, 0]),
            (&rxs[1], vec![5, 16]),
            (&rxs[4], vec![0, 33]),
        ];
        for (rx, q) in answered {
            let got = rx.try_recv().expect("answered by the flush").unwrap();
            let direct = entry
                .solve("ws-q", &q, &mwc_core::QueryOptions::new().no_cache())
                .unwrap();
            assert_eq!(got.connector.vertices(), direct.connector.vertices());
            assert_eq!(got.wiener_index, direct.wiener_index);
        }
        let stats = co.stats_json();
        let count = |name: &str| stats.get(name).unwrap().as_u64().unwrap();
        assert_eq!(count("enqueued"), 1);
        assert_eq!(count("gathered"), 3);
        assert_eq!(count("executed"), 2);
        assert_eq!(count("deduped"), 2);
    }

    #[test]
    fn tight_deadlines_bypass_and_shutdown_goes_direct() {
        let catalog = Catalog::new();
        let entry = catalog.load("k", "karate").unwrap();
        let co = Coalescer::new(CoalesceConfig {
            window: Duration::from_millis(50),
            ..CoalesceConfig::default()
        });
        let (respond, _rx) = channel_responder();
        // Remaining 60 ms ≤ 2×50 ms window → direct.
        match co.submit(
            &entry,
            member(params("k", "ws-q"), vec![0, 33], Instant::now(), respond),
            Some(Duration::from_millis(60)),
            &NoBacklog,
        ) {
            Submit::Direct(_) => {}
            Submit::Queued => panic!("tight deadline should bypass"),
        }
        assert_eq!(co.stats_json().get("bypassed").unwrap().as_u64(), Some(1));
        co.drain();
        let (respond, _rx) = channel_responder();
        match co.submit(
            &entry,
            member(params("k", "ws-q"), vec![0, 33], Instant::now(), respond),
            None,
            &NoBacklog,
        ) {
            Submit::Direct(_) => {}
            Submit::Queued => panic!("post-drain submits must go direct"),
        }
    }

    #[test]
    fn abort_fails_parked_requests_with_graph_evicted() {
        let catalog = Catalog::new();
        let entry = catalog.load("k", "karate").unwrap();
        let co = Arc::new(Coalescer::new(CoalesceConfig {
            window: Duration::from_secs(5), // long: abort must not wait it out
            ..CoalesceConfig::default()
        }));
        let (respond, rx) = channel_responder();
        let leader = {
            let co = Arc::clone(&co);
            let entry = Arc::clone(&entry);
            std::thread::spawn(move || {
                co.submit(
                    &entry,
                    member(params("k", "ws-q"), vec![0, 33], Instant::now(), respond),
                    None,
                    &NoBacklog,
                );
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(co.abort("k"), 1);
        let err = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("abort answers promptly")
            .expect_err("aborted requests fail");
        assert_eq!(err.code(), "graph_evicted");
        leader.join().unwrap();
        assert_eq!(co.abort("k"), 0);
        assert_eq!(co.stats_json().get("aborted").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn drain_flushes_parked_requests() {
        let catalog = Catalog::new();
        let entry = catalog.load("k", "karate").unwrap();
        let co = Arc::new(Coalescer::new(CoalesceConfig {
            window: Duration::from_secs(5), // drain must cut this short
            ..CoalesceConfig::default()
        }));
        let (respond, rx) = channel_responder();
        let leader = {
            let co = Arc::clone(&co);
            let entry = Arc::clone(&entry);
            std::thread::spawn(move || {
                co.submit(
                    &entry,
                    member(params("k", "ws-q"), vec![11, 24], Instant::now(), respond),
                    None,
                    &NoBacklog,
                );
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        let drained_at = Instant::now();
        co.drain();
        assert!(drained_at.elapsed() < Duration::from_secs(4));
        let report = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("drain flushes")
            .expect("solve ok");
        assert!(report.connector.len() >= 2);
        leader.join().unwrap();
        assert_eq!(
            co.stats_json().get("flush_drain").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn expired_members_fail_without_running() {
        let catalog = Catalog::new();
        let entry = catalog.load("k", "karate").unwrap();
        let co = Arc::new(Coalescer::new(CoalesceConfig {
            window: Duration::from_millis(80),
            ..CoalesceConfig::default()
        }));
        // Deadline of 200 ms clears the 2×window bypass gate (160 ms) at
        // submit, but `received` is backdated so the budget is gone by
        // flush time.
        let mut p = params("k", "ws-q");
        p.deadline_ms = Some(200);
        let (respond, rx) = channel_responder();
        let received = Instant::now() - Duration::from_millis(195);
        co.submit(
            &entry,
            member(p, vec![0, 33], received, respond),
            Some(Duration::from_millis(200)),
            &NoBacklog,
        );
        let err = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("flush answers")
            .expect_err("expired member fails");
        assert_eq!(err.code(), "deadline_exceeded");
        assert_eq!(co.stats_json().get("expired").unwrap().as_u64(), Some(1));
    }
}
