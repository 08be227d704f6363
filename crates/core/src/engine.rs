//! The unified serving API: [`ConnectorSolver`] + [`QueryEngine`].
//!
//! The paper's workload is *many* query sets against one fixed graph
//! (§6 runs hundreds of queries per dataset), yet the historical entry
//! points — [`WienerSteiner::solve`],
//! [`ApproxWienerSteiner::solve`](crate::ApproxWienerSteiner::solve),
//! [`exact_minimum`], the baselines — each
//! rebuilt BFS workspaces and per-graph state on every call. This module
//! fixes the shape of the system:
//!
//! * [`ConnectorSolver`] — one object-safe trait every solving method
//!   implements, so callers select algorithms by registry name instead of
//!   matching on enums;
//! * [`QueryEngine`] — built once per graph, owning the state worth
//!   amortizing across queries: a [`WorkspacePool`] of BFS buffers, a
//!   lazily built betweenness vector, a lazily built [`LandmarkOracle`]
//!   shared by every approximate solve,
//!   and a bounded LRU *solve cache* ([`CacheStats`]) replaying recent
//!   `(solver, query, options)` answers — repeated and overlapping query
//!   sets are the serving norm;
//! * [`QueryContext`] — the per-query view handed to solvers: the graph,
//!   the shared caches, and the caller's [`QueryOptions`] (deadline /
//!   size budget);
//! * [`SolveReport`] — the uniform result: connector, exact Wiener index,
//!   wall-clock seconds, and solver diagnostics.
//!
//! # Solver registry
//!
//! [`QueryEngine::new`] registers the four solvers of this crate; the
//! `mwc-baselines` crate adds the §6.1 competitors via its
//! `register_baselines` helper (or use its `full_engine` constructor):
//!
//! | name          | algorithm                                         | paper |
//! |---------------|---------------------------------------------------|-------|
//! | `ws-q`        | [`WienerSteiner`] (constant-factor approximation) | Algorithm 1, Theorem 4 |
//! | `ws-q-approx` | [`ApproxWienerSteiner`](crate::ApproxWienerSteiner) on shared landmarks | §6.6 scale-out |
//! | `ws-q+ls`     | `ws-q` + local-search refinement                  | Table 2's `GU` upper bound |
//! | `exact`       | shortest path (`\|Q\| = 2`) / subset enumeration  | §3, §6.2 |
//!
//! # Quickstart
//!
//! ```
//! use mwc_core::engine::{QueryEngine, QueryOptions};
//! use mwc_graph::generators::karate::karate_club;
//!
//! let g = karate_club();
//! let engine = QueryEngine::new(&g); // reusable: build once, query many times
//! let report = engine.solve("ws-q", &[11, 24, 25, 29]).unwrap();
//! assert!(report.connector.contains_all(&[11, 24, 25, 29]));
//!
//! // Batches run in parallel; results keep the input order.
//! let queries = vec![vec![0, 33], vec![11, 24, 25, 29]];
//! let reports = engine.solve_batch("ws-q", &queries, &QueryOptions::default());
//! assert_eq!(reports.len(), 2);
//! ```

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use mwc_graph::oracle::{LandmarkOracle, LandmarkStrategy};
use mwc_graph::traversal::bfs::{WorkspacePool, MS_BFS_LANES};
use mwc_graph::{centrality, Graph, GraphError, NodeId};
use rand::SeedableRng;

use crate::connector::Connector;
use crate::error::{CoreError, Result};
use crate::exact::{exact_minimum, shortest_path_connector, ExactConfig};
use crate::local_search::{refine, LocalSearchConfig};
use crate::trace::TraceContext;
use crate::wsq::{
    batched_root_distances_dispatch, MsDistWorkspace, RootPolicy, SharedRootDists, WienerSteiner,
    WsqConfig, WsqSolution,
};
use crate::wsq_approx::{solve_with_oracle, ApproxWsqConfig};

/// Per-query knobs, built fluently:
/// `QueryOptions::new().deadline(d).max_connector_size(n)`.
///
/// The default is unconstrained (no deadline, no size budget) and
/// cache-eligible.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    deadline: Option<Duration>,
    max_size: Option<usize>,
    no_cache: bool,
    trace: TraceContext,
}

impl QueryOptions {
    /// Unconstrained options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the wall-clock time of each query. The deadline is
    /// *cooperative*: solvers that support it (`ws-q`, `ws-q+ls`) stop
    /// sweeping `(root, λ)` candidates once it passes and select among
    /// those already evaluated, so a feasible connector is still returned
    /// — only the approximation guarantee weakens. Solvers without
    /// internal checkpoints ignore it.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Rejects solutions larger than `max` vertices: the engine returns
    /// [`CoreError::BudgetExceeded`] instead of an oversized connector
    /// (useful when downstream rendering or storage has a hard cap).
    pub fn max_connector_size(mut self, max: usize) -> Self {
        self.max_size = Some(max);
        self
    }

    /// Bypasses the engine's solve cache for this query: the solver runs
    /// even if an identical `(solver, query, options)` result is cached,
    /// and the fresh result is not stored. The serving layer maps its
    /// wire-level `no_cache` flag here.
    pub fn no_cache(mut self) -> Self {
        self.no_cache = true;
        self
    }

    /// The configured per-query time budget, if any.
    pub fn time_budget(&self) -> Option<Duration> {
        self.deadline
    }

    /// The configured connector-size budget, if any.
    pub fn size_budget(&self) -> Option<usize> {
        self.max_size
    }

    /// Whether the solve cache is bypassed for this query.
    pub fn cache_disabled(&self) -> bool {
        self.no_cache
    }

    /// Attaches a per-request [`TraceContext`]: the engine and the ws-q
    /// pipeline record stage spans (`cache_lookup`, `feasibility`,
    /// `root_sweep`, …) into it. The default (disabled) context costs
    /// one branch per stage.
    pub fn trace(mut self, trace: TraceContext) -> Self {
        self.trace = trace;
        self
    }

    /// The per-request trace context (disabled by default).
    pub fn trace_context(&self) -> &TraceContext {
        &self.trace
    }
}

/// Uniform solver output (the engine's replacement for the per-method
/// result types `WsqSolution` / `ExactOutcome` / bare `Connector`).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Registry name of the solver that produced the report.
    pub solver: String,
    /// The connector: a vertex set `S ⊇ Q` inducing a connected subgraph.
    pub connector: Connector,
    /// Exact Wiener index `W(G[S])` — every report carries the true
    /// objective value, evaluated inside the solve. For solvers that can
    /// return very large connectors (`ctp`/`cps` at full dataset scale)
    /// this evaluation is `O(|S|·(|S|+|E[S]|))` and can dominate the
    /// solve; it is a deliberate contract (uniform, exact, comparable
    /// across methods). Callers that only need the vertex set and find
    /// this too costly should call the legacy per-method functions, which
    /// return a bare [`Connector`].
    pub wiener_index: u64,
    /// Wall-clock seconds of the solve. Filled by [`QueryEngine::solve`];
    /// zero when the solver is invoked directly through the trait.
    pub seconds: f64,
    /// Candidates inspected: `(root, λ)` pairs for the `ws-q` family
    /// (Algorithm 1's sweep), subsets for the exact enumerator, zero where
    /// the notion does not apply.
    pub candidates: u64,
    /// `Some(true)` when the result is provably optimal (the exact solver
    /// finished within budget, or `|Q| = 2` — §3), `Some(false)` when an
    /// exact solver gave up early, `None` for approximations.
    pub optimal: Option<bool>,
}

impl SolveReport {
    fn from_wsq(solver: &str, sol: WsqSolution) -> Self {
        SolveReport {
            solver: solver.to_string(),
            connector: sol.connector,
            wiener_index: sol.wiener_index,
            seconds: 0.0,
            candidates: sol.num_candidates as u64,
            optimal: None,
        }
    }

    /// One human-readable line: solver, objective, connector, timing —
    /// the uniform rendering used by `mwc-client` and the bench harness
    /// instead of per-call-site `format!` strings.
    ///
    /// ```
    /// # use mwc_core::engine::QueryEngine;
    /// # use mwc_graph::generators::karate::karate_club;
    /// # let g = karate_club();
    /// # let report = QueryEngine::new(&g).solve("ws-q", &[0, 33]).unwrap();
    /// assert!(report.render_text().starts_with("ws-q: W = "));
    /// ```
    pub fn render_text(&self) -> String {
        let optimal = match self.optimal {
            Some(true) => ", optimal",
            Some(false) => ", not proven optimal",
            None => "",
        };
        format!(
            "{}: W = {}, {} vertices {:?}, {:.3} ms, {} candidates{}",
            self.solver,
            self.wiener_index,
            self.connector.len(),
            self.connector.vertices(),
            self.seconds * 1e3,
            self.candidates,
            optimal
        )
    }

    /// The report as one JSON object (no trailing newline) — the exact
    /// shape `mwc_service` puts on the wire in its `"report"` field:
    /// `{"solver":…,"connector":[…],"wiener_index":…,"seconds":…,`
    /// `"candidates":…,"optimal":…}` with `optimal` null for
    /// approximations. Hand-rolled (the workspace has no serde) but pinned
    /// shape-for-shape against the service's serializer by round-trip
    /// tests in `mwc_service`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + 8 * self.connector.len());
        out.push_str("{\"solver\":\"");
        for c in self.solver.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str("\",\"connector\":[");
        for (i, v) in self.connector.vertices().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push_str(&format!(
            "],\"wiener_index\":{},\"seconds\":{},\"candidates\":{},\"optimal\":{}}}",
            self.wiener_index,
            self.seconds,
            self.candidates,
            match self.optimal {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            }
        ));
        out
    }
}

/// Default capacity of the engine's solve cache (entries, i.e. cached
/// reports). Connectors are small (tens of vertices), so even the full
/// cache is a few hundred kilobytes.
pub const DEFAULT_SOLVE_CACHE_CAPACITY: usize = 1024;

/// Default byte budget of the engine's solve cache. Long-lived servers
/// bound the cache by **approximate resident bytes** (connector length,
/// canonical query length, strings, per-entry overhead), not just entry
/// count — a few pathological giant connectors cannot pin unbounded
/// memory. At the default entry capacity the byte bound only binds when
/// entries average ≳ 16 KiB.
pub const DEFAULT_SOLVE_CACHE_BYTES: usize = 16 << 20;

/// A snapshot of the solve cache's counters — the serving layer exposes
/// this through its `stats` command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Cache-eligible lookups that fell through to a real solve.
    /// (Deadline-bearing and `no_cache` queries bypass the cache without
    /// counting.)
    pub misses: u64,
    /// Entries displaced to make room for newer ones.
    pub evictions: u64,
    /// Entries dropped because they outlived the TTL
    /// ([`QueryEngine::set_solve_cache_ttl`]); each also counts as a miss
    /// for the lookup that noticed it.
    pub expired: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity (0 = caching disabled).
    pub capacity: usize,
    /// Approximate bytes held by resident entries (see
    /// [`QueryEngine::set_solve_cache_bytes`] for the estimate).
    pub bytes_used: usize,
    /// Configured byte budget (0 = caching disabled).
    pub capacity_bytes: usize,
}

/// Cache key: the canonicalized query set plus everything that can change
/// the answer — the solver and the options fingerprint ([`QueryOptions`]'s
/// size budget; deadline-bearing queries are never cached because their
/// results depend on wall-clock luck).
type CacheKey = (String, Vec<NodeId>, Option<usize>);

#[derive(Debug)]
struct CacheEntry {
    report: SolveReport,
    last_used: u64,
    /// Approximate resident size, charged against the cache's byte
    /// budget (computed once at insert).
    bytes: usize,
    /// When the entry was (re-)inserted; the TTL is measured from here,
    /// not from the last hit — a popular stale answer must still expire.
    inserted: Instant,
}

/// Approximate resident bytes of one cache entry: the two `NodeId`
/// vectors (canonical query + connector) dominate, plus the solver
/// strings and a flat constant for struct headers, hash-map slot, and
/// allocator slack. An estimate, not an accounting — the point is that
/// eviction pressure scales with connector size.
fn approx_entry_bytes(key: &CacheKey, report: &SolveReport) -> usize {
    const PER_ENTRY_OVERHEAD: usize = 160;
    PER_ENTRY_OVERHEAD
        + key.0.len()
        + std::mem::size_of_val(key.1.as_slice())
        + report.solver.len()
        + std::mem::size_of_val(report.connector.vertices())
}

/// A bounded LRU map of solved reports.
///
/// Repeated and *overlapping* query sets are the serving norm (the same
/// group of users re-queries, dashboards refresh), so the engine
/// remembers recent answers. Lookups and inserts take one short mutex —
/// the solves they replace take milliseconds, so contention is noise.
/// Eviction scans for the least-recently-used entry; at the default
/// capacity that scan is far cheaper than any solve it makes room for.
#[derive(Debug)]
struct SolveCache {
    capacity: usize,
    /// Byte budget over [`approx_entry_bytes`] estimates — the bound that
    /// matters to long-lived servers, where entry *count* says nothing
    /// about resident memory.
    max_bytes: usize,
    /// Time-to-live measured from insertion; `None` keeps entries until
    /// displaced. The staleness bound long-lived servers need when the
    /// graph a name refers to can be reloaded out from under the cache's
    /// assumptions (same-process reloads already clear it; TTL covers
    /// everything else, e.g. operator expectations of freshness).
    ttl: Option<Duration>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expired: AtomicU64,
    inner: Mutex<CacheMap>,
}

#[derive(Debug, Default)]
struct CacheMap {
    map: HashMap<CacheKey, CacheEntry>,
    tick: u64,
    /// Sum of the resident entries' `bytes` estimates.
    bytes: usize,
}

impl SolveCache {
    fn new(capacity: usize, max_bytes: usize, ttl: Option<Duration>) -> Self {
        SolveCache {
            capacity,
            max_bytes,
            ttl,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            inner: Mutex::new(CacheMap::default()),
        }
    }

    fn disabled(&self) -> bool {
        self.capacity == 0 || self.max_bytes == 0
    }

    /// Cached report for `key`, refreshing its recency. Counts a hit or
    /// miss; an entry past the TTL is dropped on discovery and counts as
    /// an expiry plus a miss (the caller re-solves and re-inserts).
    fn get(&self, key: &CacheKey) -> Option<SolveReport> {
        let mut inner = self.inner.lock().expect("solve cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(ttl) = self.ttl {
            if inner
                .map
                .get(key)
                .is_some_and(|e| e.inserted.elapsed() >= ttl)
            {
                let dead = inner.map.remove(key).expect("entry checked above");
                inner.bytes -= dead.bytes;
                self.expired.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.report.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `report` under `key`, evicting
    /// least-recently-used entries until both the entry-count and byte
    /// budgets hold. An entry larger than the whole byte budget is not
    /// cached at all — one pathological connector must not flush the
    /// cache and then miss anyway.
    fn insert(&self, key: CacheKey, report: SolveReport) {
        if self.disabled() {
            return;
        }
        let size = approx_entry_bytes(&key, &report);
        if size > self.max_bytes {
            return;
        }
        let mut inner = self.inner.lock().expect("solve cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        while !inner.map.is_empty()
            && (inner.map.len() >= self.capacity || inner.bytes + size > self.max_bytes)
        {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let evicted = inner.map.remove(&oldest).expect("LRU key resident");
            inner.bytes -= evicted.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.bytes += size;
        inner.map.insert(
            key,
            CacheEntry {
                report,
                last_used: tick,
                bytes: size,
                inserted: Instant::now(),
            },
        );
    }

    /// Snapshot of every resident, unexpired entry, most recently used
    /// first — the order an importer with a smaller budget should insert
    /// in, so the warmest entries survive its eviction. Counts neither
    /// hits nor misses: exporting a cache must not skew its stats.
    fn export(&self) -> Vec<(CacheKey, SolveReport)> {
        let inner = self.inner.lock().expect("solve cache poisoned");
        let mut entries: Vec<(&CacheKey, &CacheEntry)> = inner
            .map
            .iter()
            .filter(|(_, e)| self.ttl.is_none_or(|ttl| e.inserted.elapsed() < ttl))
            .collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.1.last_used));
        entries
            .into_iter()
            .map(|(k, e)| (k.clone(), e.report.clone()))
            .collect()
    }

    fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("solve cache poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            entries: inner.map.len(),
            capacity: self.capacity,
            bytes_used: inner.bytes,
            capacity_bytes: self.max_bytes,
        }
    }
}

/// Per-graph state shared by all solvers of an engine.
#[derive(Debug)]
struct SharedState {
    pool: WorkspacePool,
    betweenness: OnceLock<Vec<f64>>,
    oracle: OnceLock<LandmarkOracle>,
    landmarks: usize,
    landmark_strategy: LandmarkStrategy,
    oracle_seed: u64,
}

/// The per-query view a [`ConnectorSolver`] receives: the graph plus the
/// engine's shared caches and the caller's options.
#[derive(Debug)]
pub struct QueryContext<'e> {
    graph: &'e Graph,
    shared: &'e SharedState,
    options: QueryOptions,
    deadline: Option<Instant>,
    prefer_sequential: bool,
    shared_roots: Option<Arc<SharedRootDists>>,
}

impl<'e> QueryContext<'e> {
    fn new(
        graph: &'e Graph,
        shared: &'e SharedState,
        options: QueryOptions,
        prefer_sequential: bool,
    ) -> Self {
        let deadline = options.time_budget().map(|d| Instant::now() + d);
        QueryContext {
            graph,
            shared,
            options,
            deadline,
            prefer_sequential,
            shared_roots: None,
        }
    }

    /// Attaches prefetched per-root distance arrays (the
    /// [`QueryEngine::solve_group`] coalescing path).
    fn with_shared_roots(mut self, shared_roots: Option<Arc<SharedRootDists>>) -> Self {
        self.shared_roots = shared_roots;
        self
    }

    /// Per-root distance arrays prefetched by a cross-query coalesced
    /// sweep, when this solve is part of one ([`QueryEngine::solve_group`]).
    /// Solvers with per-root distance sweeps (`ws-q`, `ws-q+ls`) take
    /// these instead of computing the covered roots themselves; results
    /// are bit-identical either way because multi-source lanes are
    /// independent.
    pub fn shared_root_distances(&self) -> Option<&SharedRootDists> {
        self.shared_roots.as_deref()
    }

    /// `true` when the engine is already parallelizing *across* queries
    /// (inside [`QueryEngine::solve_group`] workers) and solvers should
    /// not spawn their own worker threads on top — ws-q's root loop
    /// honors this to avoid `P²` oversubscription.
    pub fn prefer_sequential(&self) -> bool {
        self.prefer_sequential
    }

    /// The graph being served.
    pub fn graph(&self) -> &'e Graph {
        self.graph
    }

    /// The caller's options for this query.
    pub fn options(&self) -> &QueryOptions {
        &self.options
    }

    /// Absolute deadline for this query, if one was requested. Fixed when
    /// the context is created, so batch queries each get a full budget.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the deadline has already passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The engine's BFS buffer pool; lease instead of allocating.
    pub fn workspace_pool(&self) -> &'e WorkspacePool {
        &self.shared.pool
    }

    /// Exact betweenness centrality of every vertex, computed on first use
    /// and cached for the engine's lifetime. `O(|V||E|)` — on large graphs
    /// prefer sampling outside the engine.
    pub fn betweenness(&self) -> &'e [f64] {
        self.shared
            .betweenness
            .get_or_init(|| centrality::betweenness(self.graph, true))
    }

    /// The shared landmark distance oracle (§6.6), built on first use with
    /// the engine's deterministic seed and cached for its lifetime.
    pub fn landmark_oracle(&self) -> &'e LandmarkOracle {
        self.shared.oracle.get_or_init(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(self.shared.oracle_seed);
            LandmarkOracle::build(
                self.graph,
                self.shared.landmarks,
                self.shared.landmark_strategy,
                &mut rng,
            )
        })
    }
}

/// A Wiener-connector solving method, as served by a [`QueryEngine`].
///
/// Object safe: engines store `Box<dyn ConnectorSolver + Send + Sync>`.
/// Implementations must be stateless per query (shared state belongs in
/// the engine's [`QueryContext`] caches) so one registration can serve
/// concurrent batch queries.
pub trait ConnectorSolver: Send + Sync {
    /// Registry key and display name (e.g. `"ws-q"`, matching the paper's
    /// method names where one exists).
    fn name(&self) -> &str;

    /// Solves one query against the context's graph.
    ///
    /// Contract (same as the legacy entry points): errors on an empty
    /// query, out-of-range vertices, or query vertices spanning multiple
    /// components; otherwise returns a connector containing the query.
    fn solve(&self, ctx: &QueryContext<'_>, q: &[NodeId]) -> Result<SolveReport>;

    /// The root vertices whose full BFS distance arrays this solver would
    /// compute for `q` — or `None` when it runs no per-root sweeps (the
    /// default). [`QueryEngine::solve_group`] unions these across the
    /// queries of one coalesced window and prefetches them through shared
    /// [`MsBfsWorkspace`](mwc_graph::traversal::bfs::MsBfsWorkspace)
    /// sweeps; a solver that answers here must then consume
    /// [`QueryContext::shared_root_distances`] in its `solve`.
    ///
    /// Implementations must return roots whose prefetched distances leave
    /// the result **bit-identical** to an uncoalesced solve — for the
    /// `ws-q` family that holds because MS-BFS lane distances do not
    /// depend on lane composition.
    fn coalesce_roots(&self, _ctx: &QueryContext<'_>, _q: &[NodeId]) -> Option<Vec<NodeId>> {
        None
    }
}

/// `"ws-q"` — the paper's Algorithm 1 ([`WienerSteiner`]) behind the
/// [`ConnectorSolver`] trait. Honors [`QueryOptions::deadline`].
#[derive(Debug, Clone, Default)]
pub struct WsqSolver {
    /// Configuration applied to every query (deadline is overridden per
    /// query from the context).
    pub config: WsqConfig,
}

impl ConnectorSolver for WsqSolver {
    fn name(&self) -> &str {
        "ws-q"
    }

    fn solve(&self, ctx: &QueryContext<'_>, q: &[NodeId]) -> Result<SolveReport> {
        let mut cfg = self.config.clone();
        cfg.deadline = ctx.deadline();
        cfg.parallel = cfg.parallel && !ctx.prefer_sequential();
        cfg.trace = ctx.options().trace_context().clone();
        let sol = WienerSteiner::with_config(ctx.graph(), cfg).solve_pooled_shared(
            q,
            ctx.workspace_pool(),
            ctx.shared_root_distances(),
        )?;
        Ok(SolveReport::from_wsq(self.name(), sol))
    }

    fn coalesce_roots(&self, ctx: &QueryContext<'_>, q: &[NodeId]) -> Option<Vec<NodeId>> {
        wsq_coalesce_roots(&self.config, ctx, q)
    }
}

/// Shared [`ConnectorSolver::coalesce_roots`] answer for the solvers built
/// on [`WienerSteiner`]: under `QueryOnly` roots the per-root distance
/// arrays are exactly the normalized query vertices' distances, so those
/// are what a coalesced window can prefetch. `AllVertices` roots and
/// single-vertex queries decline.
fn wsq_coalesce_roots(
    cfg: &WsqConfig,
    ctx: &QueryContext<'_>,
    q: &[NodeId],
) -> Option<Vec<NodeId>> {
    if cfg.roots != RootPolicy::QueryOnly {
        return None;
    }
    crate::wsq::normalize_query(ctx.graph(), q)
        .ok()
        .filter(|qn| qn.len() > 1)
}

/// `"ws-q-approx"` — Algorithm 1 on landmark-estimated distances (§6.6),
/// using the engine's shared [`LandmarkOracle`] so the `k` oracle BFS
/// traversals are paid once per graph, not once per solver.
#[derive(Debug, Clone, Default)]
pub struct ApproxWsqSolver {
    /// Configuration applied to every query. `landmarks` and `strategy`
    /// are ignored in engine use — the engine's shared oracle wins; build
    /// an [`ApproxWienerSteiner`](crate::ApproxWienerSteiner) directly to
    /// control them per instance.
    pub config: ApproxWsqConfig,
}

impl ConnectorSolver for ApproxWsqSolver {
    fn name(&self) -> &str {
        "ws-q-approx"
    }

    fn solve(&self, ctx: &QueryContext<'_>, q: &[NodeId]) -> Result<SolveReport> {
        let mut cfg = self.config.clone();
        cfg.parallel = cfg.parallel && !ctx.prefer_sequential();
        let sol = solve_with_oracle(
            ctx.graph(),
            ctx.landmark_oracle(),
            &cfg,
            q,
            ctx.workspace_pool(),
        )?;
        Ok(SolveReport::from_wsq(self.name(), sol))
    }
}

/// `"ws-q+ls"` — `ws-q` polished by add/remove/swap local search (the
/// role Gurobi warm-starting plays for the paper's Table 2 upper bound).
#[derive(Debug, Clone, Default)]
pub struct LocalSearchSolver {
    /// Configuration of the underlying `ws-q` run.
    pub wsq: WsqConfig,
    /// Limits of the refinement pass.
    pub local_search: LocalSearchConfig,
}

impl ConnectorSolver for LocalSearchSolver {
    fn name(&self) -> &str {
        "ws-q+ls"
    }

    fn solve(&self, ctx: &QueryContext<'_>, q: &[NodeId]) -> Result<SolveReport> {
        let mut cfg = self.wsq.clone();
        cfg.deadline = ctx.deadline();
        cfg.parallel = cfg.parallel && !ctx.prefer_sequential();
        cfg.trace = ctx.options().trace_context().clone();
        let sol = WienerSteiner::with_config(ctx.graph(), cfg).solve_pooled_shared(
            q,
            ctx.workspace_pool(),
            ctx.shared_root_distances(),
        )?;
        let candidates = sol.num_candidates as u64;
        let (connector, wiener_index) = if ctx.deadline_exceeded() {
            // The budget went to ws-q; skip the polish.
            (sol.connector, sol.wiener_index)
        } else {
            // The refinement honors what remains of the budget itself,
            // and stays off the parallel Wiener kernel when the engine is
            // already parallel across queries.
            let mut ls = self.local_search.clone();
            ls.deadline = ctx.deadline();
            ls.prefer_sequential = ls.prefer_sequential || ctx.prefer_sequential();
            let span = ctx.options().trace_context().span("local_search");
            let refined = refine(ctx.graph(), q, &sol.connector, &ls)?;
            drop(span);
            refined
        };
        Ok(SolveReport {
            solver: self.name().to_string(),
            connector,
            wiener_index,
            seconds: 0.0,
            candidates,
            optimal: None,
        })
    }

    fn coalesce_roots(&self, ctx: &QueryContext<'_>, q: &[NodeId]) -> Option<Vec<NodeId>> {
        wsq_coalesce_roots(&self.wsq, ctx, q)
    }
}

/// `"exact"` — provably minimum connectors where feasible: any-size graphs
/// for `|Q| = 2` (a shortest path is optimal on unweighted graphs, §3),
/// pruned subset enumeration on ≤ 64-vertex graphs otherwise (the §6.2
/// certificate stand-in). Errors with `UnsupportedInstance` beyond that,
/// and on weighted graphs, where both methods would count hops.
#[derive(Debug, Clone, Default)]
pub struct ExactSolver {
    /// Enumeration budget.
    pub config: ExactConfig,
}

impl ConnectorSolver for ExactSolver {
    fn name(&self) -> &str {
        "exact"
    }

    fn solve(&self, ctx: &QueryContext<'_>, q: &[NodeId]) -> Result<SolveReport> {
        let g = ctx.graph();
        let q_norm = crate::wsq::normalize_query(g, q)?;
        if q_norm.len() == 2 && g.num_nodes() > 64 {
            let connector = shortest_path_connector(g, q_norm[0], q_norm[1])?;
            let wiener_index = connector.wiener_index(g)?;
            return Ok(SolveReport {
                solver: self.name().to_string(),
                connector,
                wiener_index,
                seconds: 0.0,
                candidates: 1,
                optimal: Some(true),
            });
        }
        let out = exact_minimum(g, &q_norm, None, &self.config)?;
        Ok(SolveReport {
            solver: self.name().to_string(),
            connector: out.connector,
            wiener_index: out.wiener_index,
            seconds: 0.0,
            candidates: out.subsets_explored,
            optimal: Some(out.optimal),
        })
    }
}

/// One query of a group: solver registry name, query set, and
/// per-query options — the heterogeneous unit [`QueryEngine::solve_group`]
/// accepts ([`QueryEngine::solve_batch`] builds one per query, all with
/// the same solver and options).
#[derive(Debug, Clone)]
pub struct GroupQuery {
    /// Registry name of the solver to run.
    pub solver: String,
    /// The query vertex set (canonicalized internally).
    pub q: Vec<NodeId>,
    /// This query's own options.
    pub options: QueryOptions,
}

impl GroupQuery {
    /// Convenience constructor.
    pub fn new(solver: impl Into<String>, q: Vec<NodeId>, options: QueryOptions) -> Self {
        GroupQuery {
            solver: solver.into(),
            q,
            options,
        }
    }
}

/// What one [`QueryEngine::solve_group`] window did — the per-flush
/// accounting the serving layer's coalescer aggregates into its `stats`
/// wire section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Queries submitted to the window.
    pub requests: u64,
    /// Queries answered from the solve cache without executing.
    pub cache_hits: u64,
    /// Queries answered by another member's execution (identical
    /// `(solver, canonical query, size budget)` within the window).
    pub deduped: u64,
    /// Distinct solver executions the window ran.
    pub executed: u64,
    /// Shared multi-source sweeps run for the window's prefetched roots.
    pub shared_sweeps: u64,
    /// Lanes occupied across those sweeps (≤ 64 × `shared_sweeps`; the
    /// ratio is the window's lane occupancy).
    pub shared_lanes: u64,
    /// Distinct roots whose distances were prefetched and shared.
    pub shared_roots: u64,
}

impl GroupStats {
    /// Folds another window's counters into this one.
    pub fn merge(&mut self, other: &GroupStats) {
        self.requests += other.requests;
        self.cache_hits += other.cache_hits;
        self.deduped += other.deduped;
        self.executed += other.executed;
        self.shared_sweeps += other.shared_sweeps;
        self.shared_lanes += other.shared_lanes;
        self.shared_roots += other.shared_roots;
    }
}

/// Result of [`QueryEngine::solve_group`]: per-query results in input
/// order plus the window's execution accounting.
#[derive(Debug)]
pub struct GroupOutcome {
    /// One result per input query, in input order.
    pub results: Vec<Result<SolveReport>>,
    /// What the window shared, deduplicated, and executed.
    pub stats: GroupStats,
}

/// Most bytes of distance arrays one [`QueryEngine::solve_group`]
/// prefetches. The arrays (one `u32` per vertex per root) live until the
/// group ends, so the budget bounds a group's memory however many queries
/// it carries; a sweep's lane matrix is no larger than its arrays.
const GROUP_PREFETCH_BYTES: usize = 64 << 20;

/// Most distinct roots one [`QueryEngine::solve_group`] prefetches on a
/// graph of `n` vertices: two full multi-source sweeps, fewer when their
/// arrays would pass [`GROUP_PREFETCH_BYTES`], and none when fewer than
/// two fit (one root has nothing to share a sweep with).
fn group_prefetch_roots(n: usize) -> usize {
    let cap = (GROUP_PREFETCH_BYTES / (4 * n.max(1))).min(2 * MS_BFS_LANES);
    if cap < 2 {
        0
    } else {
        cap
    }
}

/// One distinct execution of a [`QueryEngine::solve_group`]: the solver,
/// canonical query and options it runs with, the input slots it answers,
/// and whether its report goes into the solve cache.
struct GroupJob<'q> {
    solver: &'q str,
    canonical: Vec<NodeId>,
    options: &'q QueryOptions,
    members: Vec<usize>,
    cache_insert: bool,
}

/// Best-effort duplication of a solve error, so one shared execution can
/// answer every coalesced member of its job. `CoreError` is not `Clone`
/// (it can wrap `std::io::Error`); I/O errors are re-created from kind and
/// message, everything else is reconstructed field-for-field.
fn duplicate_error(e: &CoreError) -> CoreError {
    match e {
        CoreError::EmptyQuery => CoreError::EmptyQuery,
        CoreError::QueryNotConnectable => CoreError::QueryNotConnectable,
        CoreError::Graph(g) => CoreError::Graph(match g {
            GraphError::NodeOutOfRange { node, num_nodes } => GraphError::NodeOutOfRange {
                node: *node,
                num_nodes: *num_nodes,
            },
            GraphError::Empty => GraphError::Empty,
            GraphError::Disconnected => GraphError::Disconnected,
            GraphError::TooLarge { what } => GraphError::TooLarge { what },
            GraphError::Io(io) => GraphError::Io(std::io::Error::new(io.kind(), io.to_string())),
            GraphError::Parse { line, message } => GraphError::Parse {
                line: *line,
                message: message.clone(),
            },
            // `GraphError` is #[non_exhaustive]; preserve at least the
            // message for variants added later.
            other => GraphError::Io(std::io::Error::other(other.to_string())),
        }),
        CoreError::UnsupportedInstance { what } => {
            CoreError::UnsupportedInstance { what: what.clone() }
        }
        CoreError::Lp(l) => CoreError::Lp(l.clone()),
        CoreError::UnknownSolver {
            requested,
            available,
        } => CoreError::UnknownSolver {
            requested: requested.clone(),
            available: available.clone(),
        },
        CoreError::BudgetExceeded { size, budget } => CoreError::BudgetExceeded {
            size: *size,
            budget: *budget,
        },
    }
}

/// How a [`QueryEngine`] holds its graph: borrowed (the library-embedding
/// case, zero-cost) or shared ownership through an [`Arc`] (the serving
/// case, where the engine must outlive the stack frame that built it).
#[derive(Debug, Clone)]
enum GraphStore<'g> {
    Borrowed(&'g Graph),
    Shared(Arc<Graph>),
}

impl GraphStore<'_> {
    fn get(&self) -> &Graph {
        match self {
            GraphStore::Borrowed(g) => g,
            GraphStore::Shared(g) => g,
        }
    }
}

/// A [`QueryEngine`] that owns its graph (`'static` — no borrowed data),
/// built via [`QueryEngine::new_shared`] / [`QueryEngine::empty_shared`]
/// from an `Arc<Graph>`. This is the handle long-lived serving code
/// (`mwc_service`'s catalog) stores: it can be moved across threads,
/// parked in a registry, and dropped independently of whoever loaded the
/// graph.
pub type OwnedEngine = QueryEngine<'static>;

/// A per-graph query-serving engine: build once, answer many queries.
///
/// Owns the string-keyed solver registry and the state worth amortizing
/// across queries (see the [module docs](self)). Shareable across threads
/// (`&QueryEngine` is `Send + Sync`); [`Self::solve_group`] exploits that
/// with scoped worker threads. Engines either borrow their graph
/// ([`Self::new`], the zero-cost embedding) or share ownership of it
/// ([`Self::new_shared`], yielding an [`OwnedEngine`] free of borrowed
/// data).
pub struct QueryEngine<'g> {
    graph: GraphStore<'g>,
    solvers: Vec<Box<dyn ConnectorSolver + Send + Sync>>,
    shared: SharedState,
    cache: SolveCache,
}

impl std::fmt::Debug for QueryEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("nodes", &self.graph().num_nodes())
            .field("edges", &self.graph().num_edges())
            .field("solvers", &self.solver_names())
            .finish()
    }
}

impl<'g> QueryEngine<'g> {
    /// An engine over `graph` with this crate's solvers registered
    /// (`ws-q`, `ws-q-approx`, `ws-q+ls`, `exact`). Use
    /// `mwc_baselines::full_engine` for the paper's complete method table.
    pub fn new(graph: &'g Graph) -> Self {
        Self::with_store(GraphStore::Borrowed(graph), true)
    }

    /// An engine with an empty registry (register solvers yourself).
    pub fn empty(graph: &'g Graph) -> Self {
        Self::with_store(GraphStore::Borrowed(graph), false)
    }

    /// An [`OwnedEngine`] sharing ownership of `graph`, with this crate's
    /// solvers registered. Unlike [`Self::new`], the result carries no
    /// borrowed data, so it can outlive the caller's frame — the shape a
    /// serving catalog needs. The `Arc` is cloned freely: callers keep
    /// their handle to the same graph.
    pub fn new_shared(graph: Arc<Graph>) -> OwnedEngine {
        QueryEngine::with_store(GraphStore::Shared(graph), true)
    }

    /// An [`OwnedEngine`] sharing ownership of `graph`, with an empty
    /// registry.
    pub fn empty_shared(graph: Arc<Graph>) -> OwnedEngine {
        QueryEngine::with_store(GraphStore::Shared(graph), false)
    }

    fn with_store(graph: GraphStore<'g>, with_solvers: bool) -> Self {
        let approx_defaults = ApproxWsqConfig::default();
        let mut engine = QueryEngine {
            graph,
            solvers: Vec::new(),
            shared: SharedState {
                pool: WorkspacePool::new(),
                betweenness: OnceLock::new(),
                oracle: OnceLock::new(),
                landmarks: approx_defaults.landmarks,
                landmark_strategy: approx_defaults.strategy,
                oracle_seed: 0x5EED,
            },
            cache: SolveCache::new(
                DEFAULT_SOLVE_CACHE_CAPACITY,
                DEFAULT_SOLVE_CACHE_BYTES,
                None,
            ),
        };
        if with_solvers {
            engine
                .register(Box::new(WsqSolver::default()))
                .register(Box::new(ApproxWsqSolver::default()))
                .register(Box::new(LocalSearchSolver::default()))
                .register(Box::new(ExactSolver::default()));
        }
        engine
    }

    /// Configures the shared landmark oracle that `ws-q-approx` (and any
    /// solver calling [`QueryContext::landmark_oracle`]) uses. Must be
    /// called before the first approximate solve — the oracle is built
    /// once on first use and cached for the engine's lifetime, so later
    /// calls have no effect (debug builds assert).
    pub fn set_oracle_config(
        &mut self,
        landmarks: usize,
        strategy: LandmarkStrategy,
        seed: u64,
    ) -> &mut Self {
        debug_assert!(
            self.shared.oracle.get().is_none(),
            "set_oracle_config called after the oracle was already built"
        );
        self.shared.landmarks = landmarks;
        self.shared.landmark_strategy = strategy;
        self.shared.oracle_seed = seed;
        self
    }

    /// Resizes the engine's solve cache (`0` disables caching). Existing
    /// entries and counters are discarded — sizing is a deployment-time
    /// decision, not a hot-path one. The byte budget
    /// ([`Self::set_solve_cache_bytes`]) and TTL
    /// ([`Self::set_solve_cache_ttl`]) are kept.
    pub fn set_solve_cache_capacity(&mut self, capacity: usize) -> &mut Self {
        self.cache = SolveCache::new(capacity, self.cache.max_bytes, self.cache.ttl);
        self
    }

    /// Sets the solve cache's **byte** budget (`0` disables caching).
    /// Entries are charged an approximate resident size (per-entry
    /// overhead + connector and canonical-query vectors + strings), and
    /// LRU eviction keeps the total under the budget — the bound that
    /// matters to long-lived servers, where a handful of giant connectors
    /// could otherwise pin unbounded memory behind a sane entry count.
    /// Existing entries and counters are discarded; the entry capacity
    /// ([`Self::set_solve_cache_capacity`]) and TTL are kept.
    pub fn set_solve_cache_bytes(&mut self, max_bytes: usize) -> &mut Self {
        self.cache = SolveCache::new(self.cache.capacity, max_bytes, self.cache.ttl);
        self
    }

    /// Sets the solve cache's time-to-live (`None` — the default — keeps
    /// entries until displaced). Entries older than the TTL are dropped
    /// when a lookup discovers them, counting in [`CacheStats::expired`]
    /// and as a miss; the freshness bound long-lived servers want for
    /// answers that should not be replayed for hours. Measured from
    /// insertion, not last use — popularity must not pin staleness.
    /// Existing entries and counters are discarded; capacity and byte
    /// budget are kept.
    pub fn set_solve_cache_ttl(&mut self, ttl: Option<Duration>) -> &mut Self {
        self.cache = SolveCache::new(self.cache.capacity, self.cache.max_bytes, ttl);
        self
    }

    /// A snapshot of the solve cache's hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Snapshot of the solve cache's resident entries — `(solver,
    /// canonical query, size budget)` keys with their cached reports,
    /// most recently used first. The handoff side of warm-cache
    /// migration: a departing replica exports, the arriving replica
    /// replays through [`Self::seed_cache`]. Expired entries are
    /// excluded; stats counters are untouched.
    pub fn export_cache(&self) -> Vec<(String, Vec<NodeId>, Option<usize>, SolveReport)> {
        self.cache
            .export()
            .into_iter()
            .map(|((solver, q, max_size), report)| (solver, q, max_size, report))
            .collect()
    }

    /// Inserts an already-solved report into the solve cache under the
    /// same key a fresh [`Self::solve`] of `(solver, q, max_size)` would
    /// probe — the import side of warm-cache migration. The query is
    /// canonicalized (sorted, deduplicated) exactly like the solve path;
    /// normal LRU/byte/TTL budgets apply, so seeding more than fits
    /// simply keeps the most recent inserts. No-op when caching is
    /// disabled. Returns whether the entry was accepted.
    pub fn seed_cache(
        &self,
        solver: &str,
        q: &[NodeId],
        max_size: Option<usize>,
        report: SolveReport,
    ) -> bool {
        if self.cache.disabled() {
            return false;
        }
        let mut canonical = q.to_vec();
        canonical.sort_unstable();
        canonical.dedup();
        let key = (solver.to_string(), canonical, max_size);
        let size = approx_entry_bytes(&key, &report);
        if size > self.cache.max_bytes {
            return false;
        }
        self.cache.insert(key, report);
        true
    }

    /// Registers `solver` under [`ConnectorSolver::name`], replacing any
    /// earlier registration of the same name ([`Self::solver_names`]
    /// reports the registry sorted, so registration order never shows).
    /// The solve cache is cleared: cached reports may have been produced
    /// by the replaced registration.
    pub fn register(&mut self, solver: Box<dyn ConnectorSolver + Send + Sync>) -> &mut Self {
        match self.solvers.iter().position(|s| s.name() == solver.name()) {
            Some(i) => self.solvers[i] = solver,
            None => self.solvers.push(solver),
        }
        self.cache = SolveCache::new(self.cache.capacity, self.cache.max_bytes, self.cache.ttl);
        self
    }

    /// The graph this engine serves.
    pub fn graph(&self) -> &Graph {
        self.graph.get()
    }

    /// The shared graph handle, when the engine was built with
    /// [`Self::new_shared`] / [`Self::empty_shared`]; `None` for borrowing
    /// engines.
    pub fn graph_shared(&self) -> Option<Arc<Graph>> {
        match &self.graph {
            GraphStore::Borrowed(_) => None,
            GraphStore::Shared(g) => Some(Arc::clone(g)),
        }
    }

    /// Registered solver names, deterministically sorted (lexicographic),
    /// independent of registration order — stable for wire protocols and
    /// test expectations.
    pub fn solver_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.solvers.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names
    }

    /// Looks up a solver by registry name.
    pub fn solver(&self, name: &str) -> Result<&(dyn ConnectorSolver + Send + Sync)> {
        self.solvers
            .iter()
            .find(|s| s.name() == name)
            .map(|s| s.as_ref())
            .ok_or_else(|| CoreError::UnknownSolver {
                requested: name.to_string(),
                available: self.solver_names().iter().map(|s| s.to_string()).collect(),
            })
    }

    /// A query context carrying the engine's shared caches and `options`
    /// (for driving a [`ConnectorSolver`] by hand; [`Self::solve`] does
    /// this internally).
    pub fn context(&self, options: QueryOptions) -> QueryContext<'_> {
        QueryContext::new(self.graph.get(), &self.shared, options, false)
    }

    /// Solves one query with the named solver and default options.
    pub fn solve(&self, solver: &str, q: &[NodeId]) -> Result<SolveReport> {
        self.solve_with(solver, q, &QueryOptions::default())
    }

    /// Solves one query with the named solver and explicit options: a
    /// [`Self::solve_group`] of one [`GroupQuery`].
    ///
    /// Consults the engine's solve cache first: repeated `(solver,
    /// canonical query, size budget)` triples are the serving norm, and a
    /// hit returns the stored report (with `seconds` re-stamped to the
    /// lookup time) without touching the solver. Deadline-bearing queries
    /// bypass the cache entirely — their results depend on wall-clock
    /// luck and must not be replayed as canonical answers — and
    /// [`QueryOptions::no_cache`] forces a fresh, unstored solve.
    pub fn solve_with(
        &self,
        solver: &str,
        q: &[NodeId],
        options: &QueryOptions,
    ) -> Result<SolveReport> {
        let query = GroupQuery::new(solver, q.to_vec(), options.clone());
        let mut outcome = self.solve_group(std::slice::from_ref(&query));
        outcome.results.pop().expect("one result per query")
    }

    /// Solves a batch of queries with the named solver: a
    /// [`Self::solve_group`] of one [`GroupQuery`] per query, every one
    /// with the same solver and options. Results keep the input order;
    /// each query gets its own context, so deadlines are per query.
    /// Per-query errors are reported in place — one infeasible query does
    /// not fail the batch — and identical queries are solved once.
    pub fn solve_batch(
        &self,
        solver: &str,
        queries: &[Vec<NodeId>],
        options: &QueryOptions,
    ) -> Vec<Result<SolveReport>> {
        let group: Vec<GroupQuery> = queries
            .iter()
            .map(|q| GroupQuery::new(solver, q.clone(), options.clone()))
            .collect();
        self.solve_group(&group).results
    }

    /// Solves a *heterogeneous* group of queries — mixed solvers, mixed
    /// options — as one execution: the executor behind
    /// [`Self::solve_batch`] and `mwc_service`'s per-graph coalescer and
    /// wire `batch`.
    ///
    /// Three passes:
    ///
    /// 1. **Admission** — per query: resolve the solver (unknown names
    ///    error in place), canonicalize, consult the solve cache (see
    ///    [`Self::solve_with`] for the policy), and *deduplicate* the
    ///    remainder: queries with identical `(solver, canonical query,
    ///    size budget)` share one execution (deadline-bearing queries are
    ///    never shared — their results depend on wall-clock luck).
    /// 2. **Prefetch** — when more than one execution remains, union the
    ///    jobs' [`ConnectorSolver::coalesce_roots`] answers, in job order,
    ///    up to 128 distinct roots (two sweeps; fewer where their arrays
    ///    would pass 64 MiB), and run the union through shared 64-lane
    ///    multi-source sweeps, so root distance work that would run once
    ///    per root and query runs once per group with packed lanes. A job
    ///    whose roots do not fit under the cap is left out whole and
    ///    computes its roots' distances in its own sweep workers; the cap
    ///    bounds the distance arrays a group holds until it ends.
    /// 3. **Execute** — scoped workers (the calling thread among them)
    ///    each take the next job from a shared counter, with sequential
    ///    solver internals when several jobs run at once; results fan back
    ///    out to every member in input order.
    ///
    /// Results are **bit-identical** to per-query [`Self::solve_with`]
    /// calls (multi-source lanes are independent; pinned by the group
    /// parity tests and the service-level coalescer suite).
    pub fn solve_group(&self, queries: &[GroupQuery]) -> GroupOutcome {
        let start = Instant::now();
        let mut stats = GroupStats {
            requests: queries.len() as u64,
            ..GroupStats::default()
        };
        let mut slots: Vec<Option<Result<SolveReport>>> = Vec::new();
        slots.resize_with(queries.len(), || None);

        // Pass 1: admission — errors, cache hits, dedup.
        let mut jobs: Vec<GroupJob<'_>> = Vec::new();
        let mut dedup: HashMap<CacheKey, usize> = HashMap::new();
        for (i, gq) in queries.iter().enumerate() {
            if let Err(e) = self.solver(&gq.solver) {
                slots[i] = Some(Err(e));
                continue;
            }
            let mut canonical = gq.q.clone();
            canonical.sort_unstable();
            canonical.dedup();
            let cacheable = !self.cache.disabled()
                && !gq.options.cache_disabled()
                && gq.options.time_budget().is_none();
            let key = (gq.solver.clone(), canonical, gq.options.size_budget());
            if cacheable {
                let mut span = gq.options.trace_context().span("cache_lookup");
                let hit = self.cache.get(&key);
                span.counter("hit", hit.is_some() as u64);
                drop(span);
                if let Some(mut report) = hit {
                    report.seconds = start.elapsed().as_secs_f64();
                    stats.cache_hits += 1;
                    slots[i] = Some(Ok(report));
                    continue;
                }
            }
            if gq.options.time_budget().is_none() {
                if let Some(&j) = dedup.get(&key) {
                    jobs[j].members.push(i);
                    jobs[j].cache_insert |= cacheable;
                    stats.deduped += 1;
                    continue;
                }
                dedup.insert(key.clone(), jobs.len());
            }
            jobs.push(GroupJob {
                solver: &gq.solver,
                canonical: key.1,
                options: &gq.options,
                members: vec![i],
                cache_insert: cacheable,
            });
        }
        stats.executed = jobs.len() as u64;

        // Pass 2: prefetch the capped union of the jobs' roots through
        // shared multi-source batches. Only worth it when executions can
        // actually share lanes; a lone job's sweep workers compute their
        // own roots' distances.
        let mut shared: Option<Arc<SharedRootDists>> = None;
        if jobs.len() > 1 {
            let cap = group_prefetch_roots(self.graph.get().num_nodes());
            let mut roots: BTreeSet<NodeId> = BTreeSet::new();
            for job in &jobs {
                let s = self.solver(job.solver).expect("resolved in pass 1");
                let ctx =
                    QueryContext::new(self.graph.get(), &self.shared, job.options.clone(), false);
                if let Some(r) = s.coalesce_roots(&ctx, &job.canonical) {
                    let fresh = r.iter().filter(|v| !roots.contains(v)).count();
                    if roots.len() + fresh <= cap {
                        roots.extend(r);
                    }
                }
            }
            if roots.len() > 1 {
                let roots: Vec<NodeId> = roots.into_iter().collect();
                let mut ms = MsDistWorkspace::lease(&self.shared.pool, self.graph.get());
                let mut map = SharedRootDists::with_capacity(roots.len());
                for batch in roots.chunks(MS_BFS_LANES) {
                    let arrays = batched_root_distances_dispatch(self.graph.get(), batch, &mut ms);
                    stats.shared_sweeps += 1;
                    stats.shared_lanes += batch.len() as u64;
                    for (&r, d) in batch.iter().zip(arrays) {
                        map.insert(r, Arc::new(d));
                    }
                }
                stats.shared_roots = map.len() as u64;
                shared = Some(Arc::new(map));
            }
        }

        // Pass 3: execute and fan out. Workers pull jobs from a shared
        // counter, so a run of slow jobs cannot pin one worker's fixed
        // share of the group; solver internals stay sequential when
        // several jobs run concurrently.
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(jobs.len().max(1));
        let shared = shared.as_ref();
        let results: Vec<Result<SolveReport>> = if threads <= 1 {
            jobs.iter()
                .map(|job| self.solve_prefetched(job, shared, false))
                .collect()
        } else {
            // Relaxed: the counter only hands out job indices; results
            // come back through `join`.
            let next = AtomicUsize::new(0);
            let work = || {
                let mut done = Vec::new();
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(j) else { break done };
                    done.push((j, self.solve_prefetched(job, shared, true)));
                }
            };
            let mut out: Vec<Option<Result<SolveReport>>> = Vec::new();
            out.resize_with(jobs.len(), || None);
            std::thread::scope(|scope| {
                let workers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
                let mut place = |done: Vec<(usize, Result<SolveReport>)>| {
                    for (j, r) in done {
                        out[j] = Some(r);
                    }
                };
                place(work());
                for w in workers {
                    place(w.join().expect("group worker panicked"));
                }
            });
            out.into_iter()
                .map(|s| s.expect("every job slot is filled by a worker"))
                .collect()
        };
        for (job, result) in jobs.iter().zip(results) {
            match result {
                Ok(report) => {
                    for &i in &job.members {
                        slots[i] = Some(Ok(report.clone()));
                    }
                }
                Err(e) => {
                    for &i in &job.members[1..] {
                        slots[i] = Some(Err(duplicate_error(&e)));
                    }
                    slots[job.members[0]] = Some(Err(e));
                }
            }
        }

        GroupOutcome {
            results: slots
                .into_iter()
                .map(|s| s.expect("every group slot is filled"))
                .collect(),
            stats,
        }
    }

    /// One job of a [`Self::solve_group`], with the cache lookup already
    /// done by the group's admission pass (`cache_insert` carries its
    /// verdict) and the prefetched root distances attached to the
    /// context: solve, stamp `seconds` with the job's own wall time,
    /// enforce the size budget, and cache the report.
    fn solve_prefetched(
        &self,
        job: &GroupJob<'_>,
        shared: Option<&Arc<SharedRootDists>>,
        prefer_sequential: bool,
    ) -> Result<SolveReport> {
        let start = Instant::now();
        let s = self.solver(job.solver)?;
        let ctx = QueryContext::new(
            self.graph.get(),
            &self.shared,
            job.options.clone(),
            prefer_sequential,
        )
        .with_shared_roots(shared.cloned());
        let mut report = s.solve(&ctx, &job.canonical)?;
        report.seconds = start.elapsed().as_secs_f64();
        if let Some(budget) = job.options.size_budget() {
            if report.connector.len() > budget {
                return Err(CoreError::BudgetExceeded {
                    size: report.connector.len(),
                    budget,
                });
            }
        }
        if job.cache_insert {
            self.cache.insert(
                (
                    job.solver.to_string(),
                    job.canonical.clone(),
                    job.options.size_budget(),
                ),
                report.clone(),
            );
        }
        Ok(report)
    }

    /// Exact betweenness centrality, computed on first use and cached.
    /// `O(|V||E|)` — on large graphs prefer external sampling.
    pub fn betweenness(&self) -> &[f64] {
        self.context(QueryOptions::default()).betweenness()
    }

    /// The shared landmark oracle (built deterministically on first use).
    pub fn landmark_oracle(&self) -> &LandmarkOracle {
        self.context(QueryOptions::default()).landmark_oracle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::karate::karate_club;
    use mwc_graph::generators::structured;

    #[test]
    fn registry_lists_core_solvers_sorted() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        // Deterministically sorted, independent of registration order.
        assert_eq!(
            engine.solver_names(),
            vec!["exact", "ws-q", "ws-q+ls", "ws-q-approx"]
        );
    }

    #[test]
    fn shared_engine_outlives_its_builder_frame() {
        let engine: OwnedEngine = {
            let g = Arc::new(karate_club());
            let e = QueryEngine::new_shared(Arc::clone(&g));
            assert_eq!(e.graph_shared().unwrap().num_nodes(), g.num_nodes());
            e
        }; // `g` dropped here: the engine keeps the graph alive.
        let q = [11u32, 24, 25, 29];
        let owned = engine.solve("ws-q", &q).unwrap();
        let g = karate_club();
        let borrowed = QueryEngine::new(&g).solve("ws-q", &q).unwrap();
        assert_eq!(
            owned.connector.vertices(),
            borrowed.connector.vertices(),
            "shared and borrowed engines answer identically"
        );
        assert_eq!(owned.wiener_index, borrowed.wiener_index);
        assert!(QueryEngine::new(&g).graph_shared().is_none());
        // The owned engine crosses threads.
        std::thread::spawn(move || engine.solve("ws-q", &[0, 33]).unwrap())
            .join()
            .unwrap();
    }

    #[test]
    fn report_rendering_is_uniform() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        let report = engine.solve("exact", &[0, 1]).unwrap();
        let text = report.render_text();
        assert!(text.starts_with("exact: W = "), "{text}");
        assert!(text.contains("optimal"), "{text}");
        let json = report.to_json();
        assert!(json.starts_with("{\"solver\":\"exact\""), "{json}");
        assert!(json.contains("\"optimal\":true"), "{json}");
        assert!(json.ends_with('}'), "{json}");
        let approx = engine.solve("ws-q", &[0, 33]).unwrap();
        assert!(approx.to_json().contains("\"optimal\":null"));
    }

    #[test]
    fn unknown_solver_is_a_clean_error() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        let err = engine.solve("nope", &[0, 33]).unwrap_err();
        match err {
            CoreError::UnknownSolver {
                requested,
                available,
            } => {
                assert_eq!(requested, "nope");
                assert!(available.contains(&"ws-q".to_string()));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn registering_same_name_replaces_in_place() {
        let g = karate_club();
        let mut engine = QueryEngine::new(&g);
        let before: Vec<String> = engine
            .solver_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        engine.register(Box::new(WsqSolver {
            config: WsqConfig {
                parallel: false,
                ..WsqConfig::default()
            },
        }));
        assert_eq!(engine.solver_names(), before);
    }

    #[test]
    fn engine_solve_matches_legacy_wsq() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        let q = [11u32, 24, 25, 29];
        let report = engine.solve("ws-q", &q).unwrap();
        let legacy = crate::wsq::minimum_wiener_connector(&g, &q).unwrap();
        assert_eq!(report.connector.vertices(), legacy.connector.vertices());
        assert_eq!(report.wiener_index, legacy.wiener_index);
        assert!(report.seconds >= 0.0);
        assert_eq!(report.candidates, legacy.num_candidates as u64);
        assert_eq!(report.solver, "ws-q");
    }

    #[test]
    fn exact_solver_reports_optimality() {
        let g = structured::figure2_graph(10);
        let engine = QueryEngine::new(&g);
        let q: Vec<NodeId> = (0..10).collect();
        let report = engine.solve("exact", &q).unwrap();
        assert_eq!(report.wiener_index, 142);
        assert_eq!(report.optimal, Some(true));
        assert!(report.candidates > 0);
    }

    #[test]
    fn exact_solver_uses_shortest_path_for_pairs_on_large_graphs() {
        let g = structured::path(100);
        let engine = QueryEngine::new(&g);
        let report = engine.solve("exact", &[10, 20]).unwrap();
        assert_eq!(report.connector.len(), 11);
        assert_eq!(report.optimal, Some(true));
    }

    #[test]
    fn local_search_never_worse_than_wsq() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        let q = [11u32, 24, 25, 29];
        let base = engine.solve("ws-q", &q).unwrap();
        let polished = engine.solve("ws-q+ls", &q).unwrap();
        assert!(polished.wiener_index <= base.wiener_index);
        assert!(polished.connector.contains_all(&q));
    }

    #[test]
    fn size_budget_is_enforced() {
        let g = structured::path(9);
        let engine = QueryEngine::new(&g);
        // The only connector for the endpoints is the whole 9-vertex path.
        let err = engine
            .solve_with("ws-q", &[0, 8], &QueryOptions::new().max_connector_size(4))
            .unwrap_err();
        match err {
            CoreError::BudgetExceeded { size, budget } => {
                assert_eq!(size, 9);
                assert_eq!(budget, 4);
            }
            other => panic!("unexpected error: {other}"),
        }
        // A generous budget passes.
        assert!(engine
            .solve_with("ws-q", &[0, 8], &QueryOptions::new().max_connector_size(9))
            .is_ok());
    }

    #[test]
    fn deadline_still_returns_a_feasible_connector() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        let q = [11u32, 24, 25, 29];
        let opts = QueryOptions::new().deadline(Duration::ZERO);
        let report = engine.solve_with("ws-q", &q, &opts).unwrap();
        assert!(report.connector.contains_all(&q));
        assert_eq!(
            report.wiener_index,
            report.connector.wiener_index(&g).unwrap()
        );
        // The expired deadline cut the sweep short.
        let full = engine.solve("ws-q", &q).unwrap();
        assert!(report.candidates <= full.candidates);
    }

    #[test]
    fn batch_results_keep_input_order_and_match_sequential() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        let queries: Vec<Vec<NodeId>> = vec![
            vec![0, 33],
            vec![11, 24, 25, 29],
            vec![3, 11, 16],
            vec![5, 28],
        ];
        let batch = engine.solve_batch("ws-q", &queries, &QueryOptions::default());
        assert_eq!(batch.len(), queries.len());
        for (q, r) in queries.iter().zip(&batch) {
            let r = r.as_ref().expect("feasible query");
            let seq = engine.solve("ws-q", q).unwrap();
            assert_eq!(r.connector.vertices(), seq.connector.vertices());
            assert_eq!(r.wiener_index, seq.wiener_index);
        }
    }

    #[test]
    fn batch_reports_per_query_errors_in_place() {
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let engine = QueryEngine::new(&split);
        let queries: Vec<Vec<NodeId>> = vec![vec![0, 1], vec![0, 3], vec![2, 3]];
        let batch = engine.solve_batch("ws-q", &queries, &QueryOptions::default());
        assert!(batch[0].is_ok());
        assert!(matches!(batch[1], Err(CoreError::QueryNotConnectable)));
        assert!(batch[2].is_ok());
        // Unknown solvers error on every slot instead of panicking.
        let bad = engine.solve_batch("nope", &queries, &QueryOptions::default());
        assert!(bad
            .iter()
            .all(|r| matches!(r, Err(CoreError::UnknownSolver { .. }))));
    }

    #[test]
    fn exact_refuses_weighted_graphs_that_ws_q_solves() {
        // 0–1 (1), 1–2 (1), 0–2 (100), 2–3 (1) with Q = {0, 2}: a hop
        // count would call {0, 2} optimal with W = 1, but its true W is
        // 100, and ws-q's {0, 1, 2} has W = 4.
        let g =
            Graph::from_weighted_edges(4, &[(0, 1, 1), (1, 2, 1), (0, 2, 100), (2, 3, 1)]).unwrap();
        let engine = QueryEngine::new(&g);
        assert!(matches!(
            engine.solve("exact", &[0, 2]),
            Err(CoreError::UnsupportedInstance { .. })
        ));
        let wsq = engine.solve("ws-q", &[0, 2]).unwrap();
        assert_eq!(wsq.connector.vertices(), &[0, 1, 2]);
        assert_eq!(wsq.wiener_index, 4);
    }

    #[test]
    fn solve_cache_hits_and_bypasses() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        let q = [11u32, 24, 25, 29];

        let cold = engine.solve("ws-q", &q).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));

        // Same query, permuted and with duplicates: canonicalization hits.
        let hot = engine.solve("ws-q", &[29, 11, 25, 24, 11]).unwrap();
        assert_eq!(hot.connector.vertices(), cold.connector.vertices());
        assert_eq!(hot.wiener_index, cold.wiener_index);
        assert_eq!(hot.candidates, cold.candidates);
        assert_eq!(engine.cache_stats().hits, 1);

        // no_cache bypasses without touching the counters or the store.
        let fresh = engine
            .solve_with("ws-q", &q, &QueryOptions::new().no_cache())
            .unwrap();
        assert_eq!(fresh.connector.vertices(), cold.connector.vertices());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        // A deadline-bearing query is never cached or replayed.
        let opts = QueryOptions::new().deadline(Duration::from_secs(60));
        engine.solve_with("ws-q", &q, &opts).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        // Different solver and different size budget are distinct keys.
        engine.solve("ws-q+ls", &q).unwrap();
        engine
            .solve_with("ws-q", &q, &QueryOptions::new().max_connector_size(30))
            .unwrap();
        assert_eq!(engine.cache_stats().entries, 3);
    }

    #[test]
    fn solve_cache_capacity_bounds_and_evicts_lru() {
        let g = structured::path(40);
        let mut engine = QueryEngine::new(&g);
        engine.set_solve_cache_capacity(2);
        engine.solve("ws-q", &[0, 1]).unwrap();
        engine.solve("ws-q", &[1, 2]).unwrap();
        engine.solve("ws-q", &[0, 1]).unwrap(); // refresh {0,1}
        engine.solve("ws-q", &[2, 3]).unwrap(); // evicts LRU {1,2}
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.capacity, 2);
        // {0,1} survived the eviction, {1,2} did not.
        engine.solve("ws-q", &[0, 1]).unwrap();
        assert_eq!(engine.cache_stats().hits, 2);
        engine.solve("ws-q", &[1, 2]).unwrap();
        assert_eq!(engine.cache_stats().hits, 2);

        // Capacity 0 disables caching entirely.
        engine.set_solve_cache_capacity(0);
        engine.solve("ws-q", &[0, 1]).unwrap();
        engine.solve("ws-q", &[0, 1]).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.entries, stats.capacity), (0, 0, 0));
    }

    #[test]
    fn cached_and_fresh_reports_agree_for_every_core_solver() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        let q = [11u32, 24, 25, 29];
        for solver in engine.solver_names() {
            let first = engine.solve(solver, &q).unwrap();
            let cached = engine.solve(solver, &q).unwrap();
            let uncached = engine
                .solve_with(solver, &q, &QueryOptions::new().no_cache())
                .unwrap();
            for other in [&cached, &uncached] {
                assert_eq!(first.connector.vertices(), other.connector.vertices());
                assert_eq!(first.wiener_index, other.wiener_index);
                assert_eq!(first.candidates, other.candidates);
                assert_eq!(first.optimal, other.optimal);
            }
        }
    }

    #[test]
    fn solve_cache_is_bounded_in_bytes() {
        let g = structured::path(60);
        let mut engine = QueryEngine::new(&g);
        // Room for plenty of entries by count, almost none by bytes: the
        // byte budget must do the bounding.
        engine.set_solve_cache_capacity(1024);
        engine.set_solve_cache_bytes(600);
        let stats = engine.cache_stats();
        assert_eq!(stats.capacity, 1024);
        assert_eq!(stats.capacity_bytes, 600);
        for i in 0..10u32 {
            engine.solve("ws-q", &[i, i + 1]).unwrap();
        }
        let stats = engine.cache_stats();
        assert!(
            stats.bytes_used <= 600,
            "{} bytes resident",
            stats.bytes_used
        );
        assert!(stats.entries < 10, "byte budget never evicted");
        assert!(stats.evictions > 0);
        // Cached entries still replay correctly after byte-driven
        // evictions.
        let fresh = engine
            .solve_with("ws-q", &[8, 9], &QueryOptions::new().no_cache())
            .unwrap();
        let replay = engine.solve("ws-q", &[8, 9]).unwrap();
        assert_eq!(fresh.connector.vertices(), replay.connector.vertices());

        // An entry bigger than the whole budget is skipped, not cached.
        engine.set_solve_cache_bytes(8);
        engine.solve("ws-q", &[0, 1]).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.entries, stats.bytes_used), (0, 0));

        // Byte budget 0 disables caching like capacity 0 does.
        engine.set_solve_cache_bytes(0);
        engine.solve("ws-q", &[0, 1]).unwrap();
        engine.solve("ws-q", &[0, 1]).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn solve_cache_ttl_expires_entries() {
        let g = karate_club();
        let mut engine = QueryEngine::new(&g);
        engine.set_solve_cache_ttl(Some(Duration::from_millis(40)));
        let q = [11u32, 24, 25, 29];

        let cold = engine.solve("ws-q", &q).unwrap();
        // Within the TTL: a normal hit.
        let hot = engine.solve("ws-q", &q).unwrap();
        assert_eq!(hot.connector.vertices(), cold.connector.vertices());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.expired), (1, 1, 0));

        // Past the TTL: the entry is dropped on discovery and re-solved.
        std::thread::sleep(Duration::from_millis(60));
        let fresh = engine.solve("ws-q", &q).unwrap();
        assert_eq!(fresh.connector.vertices(), cold.connector.vertices());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.expired), (1, 2, 1));
        // The re-solve repopulated the cache; it hits again until the next
        // expiry.
        engine.solve("ws-q", &q).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.entries), (2, 1));

        // Expiry is measured from insertion, not last use: repeated hits
        // cannot keep an entry alive past the TTL.
        std::thread::sleep(Duration::from_millis(60));
        engine.solve("ws-q", &q).unwrap();
        assert_eq!(engine.cache_stats().expired, 2);

        // No TTL (the default) never expires.
        engine.set_solve_cache_ttl(None);
        engine.solve("ws-q", &q).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        engine.solve("ws-q", &q).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.expired), (1, 0));
    }

    #[test]
    fn cache_bytes_track_inserts_and_replacements() {
        let g = structured::path(30);
        let engine = QueryEngine::new(&g);
        engine.solve("ws-q", &[0, 3]).unwrap();
        let one = engine.cache_stats();
        assert!(one.bytes_used > 0);
        assert_eq!(one.capacity_bytes, DEFAULT_SOLVE_CACHE_BYTES);
        engine.solve("ws-q", &[5, 9]).unwrap();
        let two = engine.cache_stats();
        assert!(two.bytes_used > one.bytes_used);
        // A cache hit does not change residency.
        engine.solve("ws-q", &[0, 3]).unwrap();
        assert_eq!(engine.cache_stats().bytes_used, two.bytes_used);
    }

    #[test]
    fn oracle_config_is_respected_before_first_use() {
        let g = karate_club();
        let mut engine = QueryEngine::new(&g);
        engine.set_oracle_config(4, mwc_graph::oracle::LandmarkStrategy::HighestDegree, 7);
        assert_eq!(engine.landmark_oracle().num_landmarks(), 4);
        // Oracle is cached: same landmarks on re-access.
        assert_eq!(engine.landmark_oracle().num_landmarks(), 4);
    }

    #[test]
    fn shared_caches_are_deterministic_and_reused() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        let o1 = engine.landmark_oracle().landmarks().to_vec();
        let o2 = engine.landmark_oracle().landmarks().to_vec();
        assert_eq!(o1, o2);
        // The approx solver goes through the same shared oracle.
        let q = [11u32, 24, 25, 29];
        let a = engine.solve("ws-q-approx", &q).unwrap();
        let b = engine.solve("ws-q-approx", &q).unwrap();
        assert_eq!(a.connector.vertices(), b.connector.vertices());
        // Workspaces returned to the pool after the solves.
        assert!(
            engine
                .context(QueryOptions::default())
                .workspace_pool()
                .idle()
                > 0
        );
    }

    #[test]
    fn solve_group_matches_individual_solves_across_mixed_solvers() {
        let g = karate_club();
        let grouped = QueryEngine::new(&g);
        let reference = QueryEngine::new(&g);
        let queries = vec![
            GroupQuery::new("ws-q", vec![11, 24, 25, 29], QueryOptions::default()),
            GroupQuery::new("ws-q+ls", vec![0, 33], QueryOptions::default()),
            GroupQuery::new("ws-q-approx", vec![3, 11, 16], QueryOptions::default()),
            GroupQuery::new("exact", vec![5, 28], QueryOptions::default()),
            GroupQuery::new("ws-q", vec![2, 8, 30], QueryOptions::new().no_cache()),
            GroupQuery::new(
                "ws-q",
                vec![0, 16, 26],
                QueryOptions::new().max_connector_size(34),
            ),
        ];
        let outcome = grouped.solve_group(&queries);
        assert_eq!(outcome.results.len(), queries.len());
        for (gq, result) in queries.iter().zip(&outcome.results) {
            let coalesced = result.as_ref().expect("feasible query");
            let direct = reference
                .solve_with(&gq.solver, &gq.q, &gq.options)
                .unwrap();
            assert_eq!(
                coalesced.connector.vertices(),
                direct.connector.vertices(),
                "{} {:?}",
                gq.solver,
                gq.q
            );
            assert_eq!(coalesced.wiener_index, direct.wiener_index);
            assert_eq!(coalesced.candidates, direct.candidates);
            assert_eq!(coalesced.optimal, direct.optimal);
        }
        // Multiple multi-root ws-q jobs in one window: the prefetch ran
        // and packed every distinct root into shared sweeps.
        assert!(outcome.stats.shared_sweeps >= 1);
        assert!(outcome.stats.shared_roots > 2);
        assert_eq!(outcome.stats.requests, queries.len() as u64);
        assert_eq!(outcome.stats.executed, queries.len() as u64);
    }

    #[test]
    fn solve_group_dedups_identical_work_and_counts_cache_hits() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        let q = vec![11u32, 24, 25, 29];
        // Permutations and duplicates canonicalize to one execution.
        let queries = vec![
            GroupQuery::new("ws-q", q.clone(), QueryOptions::default()),
            GroupQuery::new("ws-q", vec![29, 11, 25, 24, 11], QueryOptions::default()),
            GroupQuery::new("ws-q", q.clone(), QueryOptions::new().no_cache()),
        ];
        let outcome = engine.solve_group(&queries);
        assert_eq!(outcome.stats.requests, 3);
        assert_eq!(outcome.stats.deduped, 2);
        assert_eq!(outcome.stats.executed, 1);
        assert_eq!(outcome.stats.cache_hits, 0);
        let first = outcome.results[0].as_ref().unwrap();
        for r in &outcome.results[1..] {
            let r = r.as_ref().unwrap();
            assert_eq!(r.connector.vertices(), first.connector.vertices());
            assert_eq!(r.wiener_index, first.wiener_index);
        }
        // The execution populated the cache: a second window replays it.
        let again =
            engine.solve_group(&[GroupQuery::new("ws-q", q.clone(), QueryOptions::default())]);
        assert_eq!(again.stats.cache_hits, 1);
        assert_eq!(again.stats.executed, 0);
        assert_eq!(
            again.results[0].as_ref().unwrap().connector.vertices(),
            first.connector.vertices()
        );
        // Deadline-bearing queries are neither deduplicated nor cached.
        let opts = QueryOptions::new().deadline(Duration::from_secs(60));
        let timed = engine.solve_group(&[
            GroupQuery::new("ws-q", vec![0, 33], opts.clone()),
            GroupQuery::new("ws-q", vec![0, 33], opts),
        ]);
        assert_eq!(timed.stats.deduped, 0);
        assert_eq!(timed.stats.executed, 2);
    }

    #[test]
    fn solve_group_reports_errors_in_place() {
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let engine = QueryEngine::new(&split);
        let queries = vec![
            GroupQuery::new("ws-q", vec![0, 1], QueryOptions::default()),
            GroupQuery::new("nope", vec![0, 1], QueryOptions::default()),
            GroupQuery::new("ws-q", vec![0, 3], QueryOptions::default()),
            // Duplicate of the infeasible query: the shared error fans out.
            GroupQuery::new("ws-q", vec![3, 0], QueryOptions::default()),
        ];
        let outcome = engine.solve_group(&queries);
        assert!(outcome.results[0].is_ok());
        assert!(matches!(
            outcome.results[1],
            Err(CoreError::UnknownSolver { .. })
        ));
        assert!(matches!(
            outcome.results[2],
            Err(CoreError::QueryNotConnectable)
        ));
        assert!(matches!(
            outcome.results[3],
            Err(CoreError::QueryNotConnectable)
        ));
        assert_eq!(outcome.stats.deduped, 1);
        // Size budgets are enforced per query inside the group.
        let path = structured::path(9);
        let engine = QueryEngine::new(&path);
        let outcome = engine.solve_group(&[GroupQuery::new(
            "ws-q",
            vec![0, 8],
            QueryOptions::new().max_connector_size(4),
        )]);
        assert!(matches!(
            outcome.results[0],
            Err(CoreError::BudgetExceeded { size: 9, budget: 4 })
        ));
    }

    #[test]
    fn solve_group_empty_and_single_are_degenerate() {
        let g = karate_club();
        let engine = QueryEngine::new(&g);
        let empty = engine.solve_group(&[]);
        assert!(empty.results.is_empty());
        assert_eq!(empty.stats, GroupStats::default());
        // A lone query runs without a prefetch (there is nothing to
        // share lanes with) and matches the direct call.
        let lone = engine.solve_group(&[GroupQuery::new(
            "ws-q",
            vec![11, 24, 25, 29],
            QueryOptions::new().no_cache(),
        )]);
        assert_eq!(lone.stats.shared_sweeps, 0);
        let direct = engine
            .solve_with("ws-q", &[11, 24, 25, 29], &QueryOptions::new().no_cache())
            .unwrap();
        assert_eq!(
            lone.results[0].as_ref().unwrap().connector.vertices(),
            direct.connector.vertices()
        );
    }

    #[test]
    fn solve_group_caps_its_prefetch_and_matches_per_query_solves() {
        use mwc_graph::generators::barabasi_albert::barabasi_albert;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xCA9);
        let g = barabasi_albert(1500, 3, &mut rng);
        let engine = QueryEngine::new(&g);
        // 40 disjoint |Q| = 4 queries: 160 distinct roots, more than the
        // cap, so the jobs past it compute their own roots' distances.
        let queries: Vec<GroupQuery> = (0..40u32)
            .map(|i| {
                let q = (0..4u32).map(|k| (i * 37 + k * 373) % 1500).collect();
                GroupQuery::new("ws-q", q, QueryOptions::new().no_cache())
            })
            .collect();
        let cap = group_prefetch_roots(g.num_nodes());
        let distinct: BTreeSet<NodeId> = queries.iter().flat_map(|gq| gq.q.clone()).collect();
        assert!(distinct.len() > cap);
        let outcome = engine.solve_group(&queries);
        assert_eq!(outcome.stats.executed, queries.len() as u64);
        assert!(outcome.stats.shared_roots > 0);
        assert!(outcome.stats.shared_roots <= cap as u64);
        assert!(outcome.stats.shared_sweeps <= 2);
        for (gq, result) in queries.iter().zip(&outcome.results) {
            let grouped = result.as_ref().expect("connected BA query");
            let direct = engine.solve_with("ws-q", &gq.q, &gq.options).unwrap();
            assert_eq!(grouped.connector.vertices(), direct.connector.vertices());
            assert_eq!(grouped.wiener_index, direct.wiener_index);
            assert_eq!(grouped.candidates, direct.candidates);
        }
    }

    #[test]
    fn group_prefetch_cap_is_a_byte_budget() {
        // Two full sweeps while 128 arrays fit in 64 MiB (every graph up
        // to 131 072 vertices), then as many as fit.
        assert_eq!(group_prefetch_roots(34), 2 * MS_BFS_LANES);
        assert_eq!(group_prefetch_roots(20_000), 2 * MS_BFS_LANES);
        assert_eq!(group_prefetch_roots(200_000), 83);
        assert_eq!(group_prefetch_roots(1_000_000), 16);
        for n in [20_000, 200_000, 1_000_000] {
            assert!(group_prefetch_roots(n) * 4 * n <= GROUP_PREFETCH_BYTES);
        }
        // Where not even two arrays fit, nothing is prefetched.
        assert_eq!(group_prefetch_roots(GROUP_PREFETCH_BYTES / 8), 2);
        assert_eq!(group_prefetch_roots(GROUP_PREFETCH_BYTES / 8 + 1), 0);
    }

    use mwc_graph::Graph;
}
