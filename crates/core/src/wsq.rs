//! `ws-q` — the paper's constant-factor approximation algorithm
//! (Algorithm 1, `WienerSteiner`).
//!
//! For each candidate root `r` (a query vertex, justified by Lemma 5) and
//! each λ in a geometric grid covering `[1/√2, √|V|]` (Lemma 3):
//!
//! 1. reweight the graph to `G_{r,λ}` with
//!    `w(u, v) = λ + max(d_G(r, u), d_G(r, v)) / λ` (Lemma 4);
//! 2. run Mehlhorn's Steiner 2-approximation on terminals `Q` — this
//!    4-approximates the linearized objective `B(·, r, λ)` (Corollary 3);
//! 3. post-process with `AdjustDistances` (Lemma 2) so distances *inside*
//!    the solution stay within `1 + √2` of distances in `G`;
//! 4. keep the candidate minimizing `A(H, r)` (or the exact Wiener index
//!    when all candidates are small — Remark 1).
//!
//! Steps 1–3 and the `A(H, r)` evaluation are skipped where they provably
//! cannot change the answer. Each Mehlhorn run at a power-of-two λ also
//! returns the larger λ at which it would repeat decision for decision
//! ([`Repeats`]; the proof is in the [`mehlhorn`](crate::steiner::mehlhorn)
//! module doc). The grid is swept upwards, so each root copies its last
//! candidate to every later λ in that range instead of running Steiner,
//! `AdjustDistances` and `A(H, r)` again, and the exact Wiener index is
//! computed once per distinct candidate. The candidate stream is
//! bit-identical to the full grid's.
//!
//! Theorem 4: the result is an `O(1)`-approximate minimum Wiener connector,
//! in time `O(|Q| (|E| log|V| + |V| log²|V|))`. The paper's §6.6 notes the
//! root loop parallelizes embarrassingly; [`WsqConfig::parallel`] does
//! exactly that with scoped threads. Each sweep worker also computes its
//! own roots' distances `d_G(r, ·)` (line 1) in one pooled workspace:
//! direction-optimizing BFS, or delta-stepping on weighted graphs. Only a
//! [`QueryEngine::solve_group`](crate::engine::QueryEngine::solve_group)
//! prefetch computes them ahead of the sweep, packing the roots of many
//! queries into shared multi-source sweeps
//! ([`batched_root_distances_dispatch`]); a worker takes a prefetched
//! array when one covers its root. Every kernel yields the same
//! distances, so connectors do not depend on where they came from.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mwc_graph::hash::FxHashMap;
use mwc_graph::traversal::bfs::{
    canonical_parent, multi_source_distances, MsBfsWorkspace, PooledDeltaWorkspace,
    PooledMsDeltaWorkspace, PooledMsWorkspace, PooledWorkspace, WorkspacePool,
};
use mwc_graph::traversal::delta::multi_source_delta_distances;
use mwc_graph::{wiener, Graph, NodeId, INF_DIST};

use crate::adjust::adjust_distances_with;
use crate::connector::Connector;
use crate::error::{CoreError, Result};
use crate::steiner::{
    klein_ravi, lambda_steiner_with, Repeats, SteinerAlgorithm, SteinerWorkspace,
};
use crate::trace::TraceContext;

/// Which vertices Algorithm 1 tries as the root `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootPolicy {
    /// Only query vertices (the paper's choice — Lemma 5 shows this loses
    /// at most a factor 3).
    QueryOnly,
    /// Every vertex of the graph (the exhaustive variant of §4 Step 5;
    /// `O(|V|)` times slower — only sensible on small graphs, used by the
    /// Lemma 5 ablation bench).
    AllVertices,
}

/// Tuning knobs for [`WienerSteiner`]. The defaults reproduce the paper's
/// parameter-free setting.
#[derive(Debug, Clone)]
pub struct WsqConfig {
    /// λ-grid resolution: consecutive candidates differ by `1 + beta`
    /// (Algorithm 1 line 3 suggests `β = 1`). Smaller β → finer grid →
    /// better constants, more Steiner calls.
    pub beta: f64,
    /// Parallelize the root loop across scoped threads.
    pub parallel: bool,
    /// Candidates up to this many vertices are compared by exact Wiener
    /// index; if any candidate exceeds it, all candidates are compared by
    /// `A(H, r)` instead (Remark 1's worst-case fallback).
    pub wiener_exact_threshold: usize,
    /// Root sweep policy.
    pub roots: RootPolicy,
    /// Apply the `AdjustDistances` post-processing (disable only for the
    /// ablation study; required for the approximation guarantee).
    pub adjust: bool,
    /// Record every candidate inspected (for the ablation/diagnostic
    /// benches).
    pub keep_trace: bool,
    /// Which Steiner subroutine solves the per-`(root, λ)` instances. All
    /// choices carry the same approximation factor; the paper (and the
    /// default) uses Mehlhorn's algorithm (§6.1).
    pub steiner: SteinerAlgorithm,
    /// Bypass Lemma 4's node-to-edge cost shift and solve Problem 4
    /// directly with the Klein–Ravi node-weighted greedy (`O(log |Q|)`
    /// factor). Exists for the ablation study: it measures what the
    /// paper's constant-factor trick is worth (DESIGN.md §7). When set,
    /// `steiner` is ignored.
    pub node_weighted_steiner: bool,
    /// Cooperative wall-clock deadline. Once passed, the solver stops
    /// producing further `(root, λ)` candidates and selects among those
    /// already evaluated — it always returns a feasible connector (each
    /// worker finishes its first candidate before honoring the deadline),
    /// but the approximation guarantee only covers completed sweeps.
    /// Typically set through
    /// [`QueryOptions::deadline`](crate::engine::QueryOptions::deadline)
    /// rather than directly.
    pub deadline: Option<Instant>,
    /// Per-request trace context: when enabled the solver records
    /// `feasibility`, `root_sweep` (with root/candidate counters, root
    /// distance arrays computed in the sweep, Steiner calls and reused
    /// trees, and accumulated root-distance, Steiner, `AdjustDistances`
    /// and `A(H, r)` time), and `evaluate` stage spans. Disabled (the
    /// default) it costs one branch per stage.
    /// Typically set through
    /// [`QueryOptions::trace`](crate::engine::QueryOptions::trace).
    pub trace: TraceContext,
}

impl Default for WsqConfig {
    fn default() -> Self {
        WsqConfig {
            beta: 1.0,
            parallel: true,
            wiener_exact_threshold: 4096,
            roots: RootPolicy::QueryOnly,
            adjust: true,
            keep_trace: false,
            steiner: SteinerAlgorithm::default(),
            node_weighted_steiner: false,
            deadline: None,
            trace: TraceContext::default(),
        }
    }
}

/// One `(root, λ)` candidate inspected by the solver.
#[derive(Debug, Clone)]
pub struct CandidateRecord {
    /// Root vertex `r` of this candidate.
    pub root: NodeId,
    /// λ used for the reweighting.
    pub lambda: f64,
    /// Number of vertices of the candidate connector.
    pub size: usize,
    /// `A(H, r)` (Lemma 1 proxy objective).
    pub a_value: u64,
    /// Exact `W(G[H])`, if the candidate was small enough to evaluate.
    pub wiener: Option<u64>,
}

/// Solution returned by [`WienerSteiner::solve`].
#[derive(Debug, Clone)]
pub struct WsqSolution {
    /// The connector (vertex set inducing a connected subgraph ⊇ Q).
    pub connector: Connector,
    /// Exact Wiener index of the connector.
    pub wiener_index: u64,
    /// Root `r` of the winning candidate.
    pub best_root: NodeId,
    /// λ of the winning candidate.
    pub best_lambda: f64,
    /// Number of `(root, λ)` candidates inspected.
    pub num_candidates: usize,
    /// Full candidate trace (only when [`WsqConfig::keep_trace`]).
    pub trace: Vec<CandidateRecord>,
}

/// The `ws-q` solver. Borrows the graph; one instance can serve many
/// queries.
#[derive(Debug, Clone)]
pub struct WienerSteiner<'g> {
    graph: &'g Graph,
    config: WsqConfig,
}

impl<'g> WienerSteiner<'g> {
    /// Solver with the paper's default (parameter-free) configuration.
    pub fn new(graph: &'g Graph) -> Self {
        WienerSteiner {
            graph,
            config: WsqConfig::default(),
        }
    }

    /// Solver with an explicit configuration.
    pub fn with_config(graph: &'g Graph, config: WsqConfig) -> Self {
        assert!(config.beta > 0.0, "beta must be positive");
        WienerSteiner { graph, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &WsqConfig {
        &self.config
    }

    /// Computes an approximately minimum Wiener connector for `q`.
    ///
    /// Errors on an empty query, out-of-range vertices, or query vertices
    /// spanning multiple components.
    pub fn solve(&self, q: &[NodeId]) -> Result<WsqSolution> {
        self.solve_pooled(q, &WorkspacePool::new())
    }

    /// Like [`WienerSteiner::solve`], but leasing all BFS buffers from
    /// `pool` instead of allocating per call — the entry point
    /// [`QueryEngine`](crate::engine::QueryEngine) uses to amortize
    /// workspace allocations across queries.
    pub fn solve_pooled(&self, q: &[NodeId], pool: &WorkspacePool) -> Result<WsqSolution> {
        self.solve_pooled_shared(q, pool, None)
    }

    /// Like [`WienerSteiner::solve_pooled`], but taking per-root distance
    /// arrays from `shared` where it has them: the cross-request
    /// coalescing path, where one multi-source sweep served the roots of
    /// *several* concurrent queries
    /// ([`QueryEngine::solve_group`](crate::engine::QueryEngine::solve_group)).
    ///
    /// Each sweep worker takes its root's array from `shared` when the map
    /// covers that root and computes it in its own workspace otherwise.
    /// Multi-source lanes are independent and match the single-source
    /// kernels, so the arrays are bit-identical either way, and connectors
    /// are bit-identical with or without `shared` (pinned by
    /// `shared_root_distances_yield_identical_connectors`).
    pub fn solve_pooled_shared(
        &self,
        q: &[NodeId],
        pool: &WorkspacePool,
        shared: Option<&SharedRootDists>,
    ) -> Result<WsqSolution> {
        let g = self.graph;
        let q = normalize_query(g, q)?;
        if q.len() == 1 {
            return Ok(WsqSolution {
                connector: Connector::new_unchecked(g, q.clone()),
                wiener_index: 0,
                best_root: q[0],
                best_lambda: 1.0,
                num_candidates: 1,
                trace: Vec::new(),
            });
        }

        let lambdas = lambda_grid(g.num_nodes(), self.config.beta);
        let roots: Vec<NodeId> = match self.config.roots {
            RootPolicy::QueryOnly => q.clone(),
            RootPolicy::AllVertices => g.nodes().collect(),
        };

        // Feasibility: all query vertices in one component. QueryOnly
        // roots are query vertices, so the sweep workers check each
        // root's own array before any Steiner call; AllVertices roots may
        // lie outside Q's component, so those solves search from q[0]
        // here.
        if self.config.roots == RootPolicy::AllVertices {
            let span = self.config.trace.span("feasibility");
            let mut ws = RootDistWorkspace::lease(pool, g);
            let dist = ws.run(g, q[0]);
            let infeasible = q.iter().any(|&v| dist[v as usize] == INF_DIST);
            drop(span);
            if infeasible {
                return Err(CoreError::QueryNotConnectable);
            }
        }

        let mut candidates: Vec<CandidateRecord> = Vec::new();
        let mut best: Option<(CandidateRecord, Vec<NodeId>)> = None;

        // Stage accounting for the `root_sweep` span: root distance arrays
        // computed in the sweep (the rest came from a prefetch), and the
        // time of that, Steiner, `AdjustDistances` and `A(H, r)`
        // accumulated across sweep workers (reported as counters — the
        // stages run interleaved on several threads, so child spans would
        // overlap their siblings).
        let traced = self.config.trace.enabled();
        let sweep_start = traced.then(Instant::now);
        let stage_acc = StageCounters::default();
        let counters = traced.then_some(&stage_acc);
        let mut all = self.sweep_roots(g, &q, &roots, shared, &lambdas, pool, counters)?;
        if let Some(t0) = sweep_start {
            let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
            self.config.trace.record_with(
                "root_sweep",
                t0,
                Instant::now(),
                vec![
                    ("roots", roots.len() as u64),
                    ("root_distances", load(&stage_acc.root_distances)),
                    ("root_distances_us", load(&stage_acc.root_distances_us)),
                    ("candidates", all.len() as u64),
                    ("steiner_us", load(&stage_acc.steiner_us)),
                    ("steiner_calls", load(&stage_acc.steiner_calls)),
                    ("steiner_reused", load(&stage_acc.steiner_reused)),
                    ("adjust_us", load(&stage_acc.adjust_us)),
                    ("evaluate_a_us", load(&stage_acc.evaluate_a_us)),
                ],
            );
        }

        let mut eval_span = self.config.trace.span("evaluate");
        let exact_evals = evaluate_exact(
            g,
            &mut all,
            self.config.wiener_exact_threshold,
            self.config.parallel,
            self.config.deadline,
        )?;
        let total_candidates = all.len();
        for (rec, nodes) in all {
            if best.as_ref().is_none_or(|(cur, _)| better(&rec, cur)) {
                best = Some((rec.clone(), nodes));
            }
            if self.config.keep_trace {
                candidates.push(rec);
            }
        }
        let num_candidates = total_candidates;

        let (best_rec, best_nodes) =
            best.expect("at least one (root, λ) candidate is always produced");
        let connector = Connector::new_unchecked(g, best_nodes);
        let wiener_index = match best_rec.wiener {
            Some(w) => w,
            // Same sequential contract as the candidate evaluations
            // above: a non-parallel solve must not spawn a pool here.
            None => connector.wiener_index_with(g, !self.config.parallel)?,
        };
        eval_span.counter("exact_evals", exact_evals);
        drop(eval_span);
        Ok(WsqSolution {
            connector,
            wiener_index,
            best_root: best_rec.root,
            best_lambda: best_rec.lambda,
            num_candidates,
            trace: candidates,
        })
    }

    /// Fans the λ sweep for `roots` out across scoped worker threads
    /// (§6.6's embarrassing root parallelism), one fixed chunk of roots
    /// per worker; the merge keeps root order, so threading never changes
    /// the candidate stream.
    #[allow(clippy::too_many_arguments)]
    fn sweep_roots(
        &self,
        g: &Graph,
        q: &[NodeId],
        roots: &[NodeId],
        shared: Option<&SharedRootDists>,
        lambdas: &[f64],
        pool: &WorkspacePool,
        counters: Option<&StageCounters>,
    ) -> Result<Vec<EvaluatedCandidate>> {
        let threads = if self.config.parallel {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(roots.len())
        } else {
            1
        };
        if threads <= 1 {
            return run_roots(g, &self.config, q, roots, shared, lambdas, pool, counters);
        }
        let chunk = roots.len().div_ceil(threads);
        let results: Vec<Result<Vec<EvaluatedCandidate>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = roots
                .chunks(chunk)
                .map(|chunk_roots| {
                    let (q, lambdas, cfg) = (q, lambdas, &self.config);
                    scope.spawn(move || {
                        run_roots(g, cfg, q, chunk_roots, shared, lambdas, pool, counters)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let mut out = Vec::new();
        for r in results {
            out.extend(r?);
        }
        Ok(out)
    }
}

/// Distances from every root, batched through the multi-source BFS
/// kernel: `⌈|roots|/64⌉` shared CSR sweeps, each serving up to 64 roots
/// at once, gathered into one per-root array each. Bit-identical to
/// per-root [`BfsWorkspace::run`](mwc_graph::traversal::bfs::BfsWorkspace::run)
/// distances — the unweighted kernel of the group prefetch, exposed so
/// the `wsq_batched` bench section measures exactly that code.
pub fn batched_root_distances(
    g: &Graph,
    roots: &[NodeId],
    ws: &mut MsBfsWorkspace,
) -> Vec<Vec<u32>> {
    multi_source_distances(g, roots, ws)
}

/// Pooled multi-source distance workspace, dispatched on the graph's
/// weightedness: MS-BFS lanes for unweighted graphs, batched
/// delta-stepping lanes
/// ([`MsDeltaWorkspace`](mwc_graph::traversal::delta::MsDeltaWorkspace))
/// for weighted ones. Both kernels produce per-root arrays bit-identical
/// to their sequential references, so the engine's cross-request
/// prefetch hands sweep workers the arrays they would compute themselves.
pub enum MsDistWorkspace<'p> {
    /// Unweighted graphs: 64-lane multi-source BFS.
    Bfs(PooledMsWorkspace<'p>),
    /// Weighted graphs: 64-lane multi-source delta-stepping.
    Delta(PooledMsDeltaWorkspace<'p>),
}

impl<'p> MsDistWorkspace<'p> {
    /// Leases the kernel matching `g` from `pool`.
    pub fn lease(pool: &'p WorkspacePool, g: &Graph) -> Self {
        if g.is_weighted() {
            MsDistWorkspace::Delta(pool.lease_multi_delta())
        } else {
            MsDistWorkspace::Bfs(pool.lease_multi())
        }
    }
}

/// [`batched_root_distances`] with kernel dispatch: weighted graphs route
/// through the batched delta-stepping kernel
/// ([`multi_source_delta_distances`]), unweighted ones through MS-BFS.
/// [`QueryEngine::solve_group`](crate::engine::QueryEngine::solve_group)'s
/// prefetch goes through here.
pub fn batched_root_distances_dispatch(
    g: &Graph,
    roots: &[NodeId],
    ws: &mut MsDistWorkspace<'_>,
) -> Vec<Vec<u32>> {
    match ws {
        MsDistWorkspace::Bfs(ms) => multi_source_distances(g, roots, ms),
        MsDistWorkspace::Delta(ms) => multi_source_delta_distances(g, roots, ms),
    }
}

/// Per-root distance arrays shared *across* queries: root vertex →
/// distances-from-root, produced by [`batched_root_distances_dispatch`].
/// Built by
/// [`QueryEngine::solve_group`](crate::engine::QueryEngine::solve_group)
/// from the union of all coalesced queries' roots and consumed by
/// [`WienerSteiner::solve_pooled_shared`]; the `Arc`s let many concurrent
/// solves read one array without copying.
pub type SharedRootDists = HashMap<NodeId, Arc<Vec<u32>>>;

/// Convenience entry point with default configuration.
pub fn minimum_wiener_connector(g: &Graph, q: &[NodeId]) -> Result<WsqSolution> {
    WienerSteiner::new(g).solve(q)
}

/// Validates and canonicalizes a query set: sorted, deduplicated,
/// non-empty, in range. Shared by every solver and baseline.
pub fn normalize_query(g: &Graph, q: &[NodeId]) -> Result<Vec<NodeId>> {
    if q.is_empty() {
        return Err(CoreError::EmptyQuery);
    }
    let mut q: Vec<NodeId> = q.to_vec();
    q.sort_unstable();
    q.dedup();
    for &v in &q {
        g.check_node(v)?;
    }
    Ok(q)
}

/// The λ grid: powers of `(1 + β)` covering `[1/√2, √n]` — the range
/// Lemma 3 guarantees contains the optimal λ, so some tried value is
/// within a `(1 + β)` factor of it.
pub fn lambda_grid(n: usize, beta: f64) -> Vec<f64> {
    let base = 1.0 + beta;
    let lo = std::f64::consts::FRAC_1_SQRT_2;
    let hi = (n.max(2) as f64).sqrt();
    let t_min = (lo.ln() / base.ln()).floor() as i32;
    let t_max = (hi.ln() / base.ln()).ceil() as i32;
    (t_min..=t_max).map(|t| base.powi(t)).collect()
}

/// A candidate's record plus its vertex set.
pub(crate) type EvaluatedCandidate = (CandidateRecord, Vec<NodeId>);

/// Appends the root's last Steiner candidate again, under `lambda`, when
/// the call behind it (`last`: the candidate's index in `out` and the
/// call's certificate) provably repeats there. Returns whether it did.
pub(crate) fn reuse_candidate(
    out: &mut Vec<EvaluatedCandidate>,
    last: Option<(usize, Repeats)>,
    lambda: f64,
) -> bool {
    let Some((i, _)) = last.filter(|(_, repeats)| repeats.covers(lambda)) else {
        return false;
    };
    let copy = (CandidateRecord { lambda, ..out[i].0 }, out[i].1.clone());
    out.push(copy);
    true
}

/// Remark 1, engineered: Lemma 1 gives A(H,r)/2 ≤ W(H) ≤ A(H,r), so a
/// candidate with A > 2 · min_A cannot have a smaller Wiener index than
/// the argmin-A candidate — only the others need the (much more
/// expensive) exact evaluation, once per distinct vertex set (reused
/// candidates and repeated trees copy it). Candidates above the size
/// threshold fall back to the A-proxy, as in the paper's worst-case
/// analysis, and so does every candidate from `deadline` on. Returns how
/// many evaluations ran.
pub(crate) fn evaluate_exact(
    g: &Graph,
    all: &mut [EvaluatedCandidate],
    threshold: usize,
    parallel: bool,
    deadline: Option<Instant>,
) -> Result<u64> {
    let min_a = all.iter().map(|(rec, _)| rec.a_value).min().unwrap_or(0);
    let mut known: FxHashMap<&[NodeId], Option<u64>> = FxHashMap::default();
    let mut found = Vec::with_capacity(all.len());
    for (rec, nodes) in all.iter() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        if rec.a_value > 2 * min_a || nodes.len() > threshold {
            found.push(None);
            continue;
        }
        let w = match known.get(nodes.as_slice()) {
            Some(&w) => w,
            None => {
                let sub = g.induced(nodes)?;
                // When the solver itself was asked to stay sequential
                // (batch workers already use every core), keep the Wiener
                // evaluation sequential too — the parallel kernel would
                // nest one thread pool per worker.
                let w = if parallel {
                    wiener::wiener_index(sub.graph())
                } else {
                    wiener::wiener_index_sequential(sub.graph())
                };
                known.insert(nodes, w);
                w
            }
        };
        found.push(w);
    }
    let evals = known.len() as u64;
    for ((rec, _), w) in all.iter_mut().zip(found) {
        rec.wiener = w;
    }
    Ok(evals)
}

/// Remark 1's selection order: exact values win over proxies (a mix
/// compares through Lemma 1's bounds), and among proxies the smaller A.
pub(crate) fn better(rec: &CandidateRecord, cur: &CandidateRecord) -> bool {
    match (rec.wiener, cur.wiener) {
        (Some(a), Some(b)) => a < b,
        (Some(a), None) => a < cur.a_value,
        (None, Some(b)) => rec.a_value / 2 < b && rec.a_value < cur.a_value,
        (None, None) => rec.a_value < cur.a_value,
    }
}

/// Stage work the sweep workers accumulate for a traced solve's
/// `root_sweep` span (statistics only, hence `Relaxed`).
#[derive(Default)]
struct StageCounters {
    root_distances: AtomicU64,
    root_distances_us: AtomicU64,
    steiner_us: AtomicU64,
    steiner_calls: AtomicU64,
    steiner_reused: AtomicU64,
    adjust_us: AtomicU64,
    evaluate_a_us: AtomicU64,
}

/// Whether the configured deadline (if any) has passed.
fn past_deadline(cfg: &WsqConfig) -> bool {
    cfg.deadline.is_some_and(|d| Instant::now() >= d)
}

/// A sweep worker's single-source distance workspace, dispatched on the
/// graph's weightedness: direction-optimizing BFS on unweighted graphs,
/// delta-stepping on weighted ones. Each matches its multi-source twin
/// lane for lane, so a worker's own arrays equal prefetched ones.
enum RootDistWorkspace<'p> {
    Bfs(PooledWorkspace<'p>),
    Delta(PooledDeltaWorkspace<'p>),
}

impl<'p> RootDistWorkspace<'p> {
    fn lease(pool: &'p WorkspacePool, g: &Graph) -> Self {
        if g.is_weighted() {
            RootDistWorkspace::Delta(pool.lease_delta())
        } else {
            RootDistWorkspace::Bfs(pool.lease())
        }
    }

    /// Distances from `source` to every vertex.
    fn run(&mut self, g: &Graph, source: NodeId) -> &[u32] {
        match self {
            RootDistWorkspace::Bfs(ws) => ws.run_auto(g, source),
            RootDistWorkspace::Delta(ws) => ws.run(g, source),
        }
    }
}

/// Worker: full λ sweep for a chunk of roots, returning evaluated
/// candidates.
///
/// A root's distances come from `shared` when a prefetch covers it, and
/// otherwise from this worker's own workspace, leased on the first root
/// that needs it. Either way the BFS-tree parents feeding
/// `AdjustDistances` are derived on demand from the distances by the
/// deterministic [`canonical_parent`] rule — a pure function of the
/// (kernel-invariant) distance array, so every source grafts identical
/// paths. A query root whose array misses a query vertex fails the solve
/// with [`CoreError::QueryNotConnectable`] before any Steiner call.
///
/// λ ascends, so a λ at which the root's last Steiner call provably
/// repeats gets a copy of that call's candidate under its own λ.
#[allow(clippy::too_many_arguments)]
fn run_roots(
    g: &Graph,
    cfg: &WsqConfig,
    q: &[NodeId],
    roots: &[NodeId],
    shared: Option<&SharedRootDists>,
    lambdas: &[f64],
    pool: &WorkspacePool,
    counters: Option<&StageCounters>,
) -> Result<Vec<EvaluatedCandidate>> {
    let mut out: Vec<EvaluatedCandidate> = Vec::with_capacity(roots.len() * lambdas.len());
    // One Steiner workspace serves every (root, λ) call of this worker.
    let mut steiner_ws = SteinerWorkspace::new();
    let mut own: Option<RootDistWorkspace<'_>> = None;
    let mut terminals: Vec<NodeId> = Vec::with_capacity(q.len() + 1);
    for &r in roots {
        // Cooperative deadline: stop sweeping further roots, but never
        // before this worker contributed at least one candidate.
        if !out.is_empty() && past_deadline(cfg) {
            break;
        }
        let dist_r: &[u32] = match shared.and_then(|map| map.get(&r)) {
            Some(d) => d.as_slice(),
            None => {
                let t0 = counters.map(|_| Instant::now());
                let ws = own.get_or_insert_with(|| RootDistWorkspace::lease(pool, g));
                let d = ws.run(g, r);
                if let (Some(c), Some(t0)) = (counters, t0) {
                    c.root_distances.fetch_add(1, Ordering::Relaxed);
                    c.root_distances_us
                        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                }
                d
            }
        };
        // Terminals: Q ∪ {r} (identical to Q under RootPolicy::QueryOnly).
        terminals.clear();
        terminals.extend_from_slice(q);
        if q.binary_search(&r).is_ok() {
            // A query root reaches all of Q exactly when Q lies in one
            // component. AllVertices solves checked that up front; a
            // QueryOnly solve's check on q[0] is its `feasibility` span.
            let span = (r == q[0] && cfg.roots == RootPolicy::QueryOnly)
                .then(|| cfg.trace.span("feasibility"));
            let infeasible = q.iter().any(|&v| dist_r[v as usize] == INF_DIST);
            drop(span);
            if infeasible {
                return Err(CoreError::QueryNotConnectable);
            }
        } else if dist_r[q[0] as usize] == INF_DIST {
            continue; // root in a different component: useless
        } else {
            terminals.push(r);
        }
        // The root's last Steiner call: its candidate's index in `out`,
        // and the larger λ at which it repeats.
        let mut last: Option<(usize, Repeats)> = None;
        for &lambda in lambdas {
            if !out.is_empty() && past_deadline(cfg) {
                break;
            }
            if reuse_candidate(&mut out, last, lambda) {
                if let Some(c) = counters {
                    c.steiner_reused.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            let t0 = counters.map(|_| Instant::now());
            let (tree, repeats) = if cfg.node_weighted_steiner {
                // Problem 4 solved directly: vertex cost λ + d_G(r, u)/λ.
                let node_cost = |u: NodeId| {
                    let d = dist_r[u as usize];
                    let d = if d == INF_DIST {
                        g.num_nodes() as u32
                    } else {
                        d
                    };
                    lambda + d as f64 / lambda
                };
                (klein_ravi(g, &terminals, node_cost)?, Repeats::NONE)
            } else {
                // Lemma 4's edge cost λ + max(d_G(r, u), d_G(r, v))/λ.
                let m = |u: NodeId, v: NodeId| dist_r[u as usize].max(dist_r[v as usize]);
                lambda_steiner_with(&mut steiner_ws, cfg.steiner, g, &terminals, lambda, m)?
            };
            if let (Some(c), Some(t0)) = (counters, t0) {
                c.steiner_us
                    .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                c.steiner_calls.fetch_add(1, Ordering::Relaxed);
            }
            let final_tree = if cfg.adjust {
                let t0 = counters.map(|_| Instant::now());
                let adjusted =
                    adjust_distances_with(g, &tree, r, dist_r, |v| canonical_parent(g, dist_r, v));
                if let (Some(c), Some(t0)) = (counters, t0) {
                    c.adjust_us
                        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                }
                adjusted
            } else {
                tree
            };
            let nodes = final_tree.nodes;
            let t0 = counters.map(|_| Instant::now());
            let a_value = evaluate_a(g, &nodes, r, pool)?;
            if let (Some(c), Some(t0)) = (counters, t0) {
                c.evaluate_a_us
                    .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
            last = Some((out.len(), repeats));
            out.push((
                CandidateRecord {
                    root: r,
                    lambda,
                    size: nodes.len(),
                    a_value,
                    wiener: None,
                },
                nodes,
            ));
        }
    }
    Ok(out)
}

/// Computes `A(G[S], r)` — one BFS inside the induced subgraph. Shared
/// with the approximate solver (`wsq_approx`), which evaluates the same
/// objective on its candidates.
pub(crate) fn evaluate_a(
    g: &Graph,
    nodes: &[NodeId],
    r: NodeId,
    pool: &WorkspacePool,
) -> Result<u64> {
    let sub = g.induced(nodes)?;
    let r_local = sub.to_local(r).expect("root belongs to its candidate");
    let (sum, reached) = if sub.graph().is_weighted() {
        let mut ws = pool.lease_delta();
        ws.run(sub.graph(), r_local);
        ws.last_run_distance_sum()
    } else {
        let mut ws = pool.lease();
        ws.run_auto(sub.graph(), r_local);
        ws.last_run_distance_sum()
    };
    debug_assert_eq!(
        reached,
        sub.num_nodes(),
        "candidate must induce a connected subgraph"
    );
    Ok(sum * sub.num_nodes() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{karate::karate_club, structured};
    use rand::{Rng, SeedableRng};

    #[test]
    fn lambda_grid_covers_lemma3_range() {
        for n in [2usize, 10, 100, 10_000, 1_000_000] {
            let grid = lambda_grid(n, 1.0);
            let lo = std::f64::consts::FRAC_1_SQRT_2;
            let hi = (n as f64).sqrt();
            assert!(grid.first().unwrap() <= &lo, "n={n}");
            assert!(grid.last().unwrap() >= &hi, "n={n}");
            // Geometric spacing.
            for w in grid.windows(2) {
                assert!((w[1] / w[0] - 2.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn single_query_vertex_is_trivial() {
        let g = structured::path(5);
        let sol = minimum_wiener_connector(&g, &[3]).unwrap();
        assert_eq!(sol.connector.vertices(), &[3]);
        assert_eq!(sol.wiener_index, 0);
    }

    #[test]
    fn two_query_vertices_on_a_path() {
        let g = structured::path(7);
        let sol = minimum_wiener_connector(&g, &[0, 6]).unwrap();
        // Only one connector exists: the whole path.
        assert_eq!(sol.connector.len(), 7);
        assert_eq!(sol.wiener_index, (343 - 7) / 6);
    }

    #[test]
    fn rejects_bad_queries() {
        let g = structured::path(4);
        assert!(matches!(
            minimum_wiener_connector(&g, &[]),
            Err(CoreError::EmptyQuery)
        ));
        assert!(minimum_wiener_connector(&g, &[9]).is_err());
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            minimum_wiener_connector(&split, &[0, 3]),
            Err(CoreError::QueryNotConnectable)
        ));
    }

    #[test]
    fn solution_contains_query_and_is_connected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        for _ in 0..10 {
            let g = mwc_graph::generators::barabasi_albert(200, 2, &mut rng);
            let q: Vec<NodeId> = (0..5).map(|_| rng.gen_range(0..200)).collect();
            let sol = minimum_wiener_connector(&g, &q).unwrap();
            assert!(sol.connector.contains_all(&q));
            // Connector::new validates connectivity; re-wrap to assert it.
            assert!(Connector::new(&g, sol.connector.vertices()).is_ok());
            assert_eq!(sol.wiener_index, sol.connector.wiener_index(&g).unwrap());
        }
    }

    #[test]
    fn figure2_instance_beats_steiner_tree() {
        // On the Fig 2 graph with Q = the line, st returns W = 165 while the
        // optimum is 142; ws-q must include at least one root and do
        // strictly better than the bare line.
        let g = structured::figure2_graph(10);
        let q: Vec<NodeId> = (0..10).collect();
        let sol = minimum_wiener_connector(&g, &q).unwrap();
        assert!(
            sol.wiener_index < 165,
            "ws-q should beat the Steiner tree (got {})",
            sol.wiener_index
        );
        assert!(sol.connector.len() > 10, "some root vertex should be added");
    }

    #[test]
    fn karate_dc_query_includes_bridging_leaders() {
        // Fig 1 (left): Q = {12, 25, 26, 30} (paper ids) spans both factions;
        // the minimum Wiener connector adds the leaders 1, 34 and bridge 32.
        let g = karate_club();
        let q = mwc_graph::generators::karate::from_paper_ids(&[12, 25, 26, 30]);
        let sol = minimum_wiener_connector(&g, &q).unwrap();
        assert!(sol.connector.contains_all(&q));
        // The solution should stay small and pick up central vertices.
        assert!(sol.connector.len() <= 10, "size {}", sol.connector.len());
        let picks: Vec<NodeId> = sol
            .connector
            .vertices()
            .iter()
            .copied()
            .filter(|v| !q.contains(v))
            .collect();
        // At least one of the leaders (0 or 33) must appear.
        assert!(
            picks.contains(&0) || picks.contains(&33),
            "expected a community leader among {picks:?}"
        );
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let g = mwc_graph::generators::barabasi_albert(300, 3, &mut rng);
        let q: Vec<NodeId> = vec![7, 63, 155, 240, 299];
        let seq = WienerSteiner::with_config(
            &g,
            WsqConfig {
                parallel: false,
                ..WsqConfig::default()
            },
        )
        .solve(&q)
        .unwrap();
        let par = WienerSteiner::with_config(
            &g,
            WsqConfig {
                parallel: true,
                ..WsqConfig::default()
            },
        )
        .solve(&q)
        .unwrap();
        assert_eq!(seq.wiener_index, par.wiener_index);
        assert_eq!(seq.connector.vertices(), par.connector.vertices());
    }

    #[test]
    fn trace_records_all_candidates() {
        let g = karate_club();
        let q = vec![0u32, 33];
        let solver = WienerSteiner::with_config(
            &g,
            WsqConfig {
                keep_trace: true,
                parallel: false,
                ..WsqConfig::default()
            },
        );
        let sol = solver.solve(&q).unwrap();
        let expected = 2 * lambda_grid(34, 1.0).len();
        assert_eq!(sol.trace.len(), expected);
        assert_eq!(sol.num_candidates, expected);
        let min_a = sol.trace.iter().map(|r| r.a_value).min().unwrap();
        for rec in &sol.trace {
            assert!(q.contains(&rec.root));
            assert!(rec.size >= 2);
            // Exact Wiener evaluated exactly for the Lemma-1 survivors.
            assert_eq!(rec.wiener.is_some(), rec.a_value <= 2 * min_a);
        }
        assert!(sol.trace.iter().any(|r| r.wiener.is_some()));
    }

    #[test]
    fn adjust_ablation_runs() {
        let g = karate_club();
        let q = vec![11u32, 24, 25, 29];
        let no_adjust = WienerSteiner::with_config(
            &g,
            WsqConfig {
                adjust: false,
                parallel: false,
                ..WsqConfig::default()
            },
        )
        .solve(&q)
        .unwrap();
        assert!(no_adjust.connector.contains_all(&q));
    }

    #[test]
    fn all_vertices_root_policy_no_worse_on_small_graph() {
        let g = karate_club();
        let q = vec![11u32, 24, 25, 29];
        let query_only = minimum_wiener_connector(&g, &q).unwrap();
        let exhaustive = WienerSteiner::with_config(
            &g,
            WsqConfig {
                roots: RootPolicy::AllVertices,
                ..WsqConfig::default()
            },
        )
        .solve(&q)
        .unwrap();
        assert!(exhaustive.wiener_index <= query_only.wiener_index);
    }

    #[test]
    fn duplicate_query_vertices_are_merged() {
        let g = structured::path(6);
        let sol = minimum_wiener_connector(&g, &[2, 2, 4, 4]).unwrap();
        assert_eq!(sol.connector.vertices(), &[2, 3, 4]);
    }

    /// A group prefetch of `roots`, built as `QueryEngine::solve_group`
    /// builds it.
    fn prefetch(g: &Graph, roots: &[NodeId]) -> SharedRootDists {
        let pool = WorkspacePool::new();
        let mut ws = MsDistWorkspace::lease(&pool, g);
        let arrays = batched_root_distances_dispatch(g, roots, &mut ws);
        roots
            .iter()
            .copied()
            .zip(arrays.into_iter().map(Arc::new))
            .collect()
    }

    /// `solve_pooled_shared` over a prefetch of every root against plain
    /// per-root `solve`, each in parallel and in sequence: connectors, W,
    /// candidate counts and the winning `(root, λ)` must all agree with a
    /// sequential per-root solve. Returns that reference.
    fn assert_prefetch_parity(g: &Graph, q: &[NodeId], roots: RootPolicy) -> WsqSolution {
        let all_roots: Vec<NodeId> = match roots {
            RootPolicy::QueryOnly => normalize_query(g, q).unwrap(),
            RootPolicy::AllVertices => g.nodes().collect(),
        };
        let shared = prefetch(g, &all_roots);
        let pool = WorkspacePool::new();
        let solver = |parallel: bool| {
            WienerSteiner::with_config(
                g,
                WsqConfig {
                    roots,
                    parallel,
                    ..WsqConfig::default()
                },
            )
        };
        let reference = solver(false).solve(q).unwrap();
        for parallel in [false, true] {
            let own = solver(parallel).solve(q).unwrap();
            let prefetched = solver(parallel)
                .solve_pooled_shared(q, &pool, Some(&shared))
                .unwrap();
            for sol in [own, prefetched] {
                assert_eq!(
                    sol.connector.vertices(),
                    reference.connector.vertices(),
                    "parallel={parallel} {q:?}"
                );
                assert_eq!(sol.wiener_index, reference.wiener_index);
                assert_eq!(sol.num_candidates, reference.num_candidates);
                assert_eq!(
                    (sol.best_root, sol.best_lambda.to_bits()),
                    (reference.best_root, reference.best_lambda.to_bits())
                );
            }
        }
        reference
    }

    #[test]
    fn batch_toggle_yields_identical_connectors() {
        // A prefetch changes where root distances come from, never what
        // they are — and parents are a pure function of distances — so
        // connectors must be bit-identical to per-root sweeps.
        let mut rng = rand::rngs::StdRng::seed_from_u64(73);
        let g = mwc_graph::generators::barabasi_albert(600, 3, &mut rng);
        for _ in 0..5 {
            let size = rng.gen_range(2..=6usize);
            let q: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..600)).collect();
            assert_prefetch_parity(&g, &q, RootPolicy::QueryOnly);
        }
    }

    #[test]
    fn batch_parity_holds_with_all_vertices_roots() {
        // AllVertices roots span three 64-lane prefetch sweeps, and the
        // solve keeps its standalone feasibility search.
        let g = mwc_graph::generators::barabasi_albert(
            150,
            2,
            &mut rand::rngs::StdRng::seed_from_u64(79),
        );
        assert_prefetch_parity(&g, &[3, 77, 149], RootPolicy::AllVertices);
    }

    #[test]
    fn batched_root_distances_match_per_root_bfs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(83);
        let g = mwc_graph::generators::barabasi_albert(500, 3, &mut rng);
        // 100 roots spans two 64-lane sweeps, with duplicates.
        let roots: Vec<NodeId> = (0..100).map(|i| (i * 7) % 500).collect();
        let mut ms = mwc_graph::traversal::bfs::MsBfsWorkspace::new();
        let dists = batched_root_distances(&g, &roots, &mut ms);
        assert_eq!(dists.len(), roots.len());
        let mut ws = mwc_graph::traversal::bfs::BfsWorkspace::new();
        for (i, &r) in roots.iter().enumerate() {
            assert_eq!(dists[i], ws.run(&g, r), "root {r}");
        }
    }

    #[test]
    fn shared_root_distances_yield_identical_connectors() {
        // The coalescing path hands the solver distance arrays computed by
        // a multi-source sweep over the union of *several* queries' roots.
        // Lanes are independent, so the connector must be bit-identical to
        // the solver computing its own distances.
        let mut rng = rand::rngs::StdRng::seed_from_u64(89);
        let g = mwc_graph::generators::barabasi_albert(400, 3, &mut rng);
        let mut ms = MsBfsWorkspace::new();
        for _ in 0..5 {
            let size = rng.gen_range(2..=5usize);
            let q: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..400)).collect();
            let q_norm = normalize_query(&g, &q).unwrap();
            // The union sweep: this query's roots plus unrelated ones, as
            // the coalescer would pack them.
            let mut union: Vec<NodeId> = q_norm.clone();
            union.extend((0..6).map(|_| rng.gen_range(0..400u32)));
            union.sort_unstable();
            union.dedup();
            let arrays = batched_root_distances(&g, &union, &mut ms);
            let shared: SharedRootDists = union
                .iter()
                .copied()
                .zip(arrays.into_iter().map(Arc::new))
                .collect();
            let solver = WienerSteiner::new(&g);
            let pool = WorkspacePool::new();
            let own = solver.solve_pooled(&q, &pool).unwrap();
            let coalesced = solver
                .solve_pooled_shared(&q, &pool, Some(&shared))
                .unwrap();
            assert_eq!(
                own.connector.vertices(),
                coalesced.connector.vertices(),
                "{q:?}"
            );
            assert_eq!(own.wiener_index, coalesced.wiener_index);
            assert_eq!(own.num_candidates, coalesced.num_candidates);
            assert_eq!(
                (own.best_root, own.best_lambda),
                (coalesced.best_root, coalesced.best_lambda)
            );
        }
    }

    /// The `root_sweep` span of a traced solve of `q`, and how many
    /// `feasibility` spans the solve emitted.
    fn traced_sweep(
        g: &Graph,
        q: &[NodeId],
        parallel: bool,
        shared: Option<&SharedRootDists>,
    ) -> (crate::trace::SpanRecord, usize) {
        use crate::trace::{TraceRecorder, NO_PARENT};
        let recorder = TraceRecorder::new();
        let cfg = WsqConfig {
            parallel,
            trace: TraceContext::attached(recorder.clone(), NO_PARENT),
            ..WsqConfig::default()
        };
        let own = WienerSteiner::new(g).solve(q).unwrap();
        let sol = WienerSteiner::with_config(g, cfg)
            .solve_pooled_shared(q, &WorkspacePool::new(), shared)
            .unwrap();
        assert_eq!(own.connector.vertices(), sol.connector.vertices());
        assert_eq!(own.wiener_index, sol.wiener_index);
        assert_eq!(own.num_candidates, sol.num_candidates);
        let spans = recorder.finish();
        let feasibility = spans.iter().filter(|s| s.name == "feasibility").count();
        let sweep = spans.into_iter().find(|s| s.name == "root_sweep").unwrap();
        (sweep, feasibility)
    }

    #[test]
    fn partially_covered_shared_map_falls_back_to_own_sweep() {
        let g = karate_club();
        let q = vec![11u32, 24, 25, 29];
        let counter = |sweep: &crate::trace::SpanRecord, name: &str| {
            sweep.counters.iter().find(|(k, _)| *k == name).map(|c| c.1)
        };
        // A map missing two of the roots: the sweep computes exactly those
        // two itself, and the results are unchanged.
        let partial = prefetch(&g, &[11, 24]);
        for parallel in [false, true] {
            for (shared, computed) in [(None, 4), (Some(&partial), 2)] {
                let (sweep, feasibility) = traced_sweep(&g, &q, parallel, shared);
                assert_eq!(counter(&sweep, "roots"), Some(4));
                assert_eq!(counter(&sweep, "root_distances"), Some(computed));
                assert!(counter(&sweep, "root_distances_us").is_some());
                assert_eq!(feasibility, 1, "one feasibility span per solve");
            }
        }
    }

    #[test]
    fn infeasible_query_is_rejected_in_every_sweep_shape() {
        // Components {0, 1, 2} and {3, 4, 5}; Q = {0, 1, 4} spans both.
        use crate::trace::{TraceRecorder, NO_PARENT};
        let edges = [(0u32, 1u32), (1, 2), (3, 4), (4, 5)];
        let unweighted = Graph::from_edges(6, &edges).unwrap();
        let weighted =
            Graph::from_weighted_edges(6, &edges.map(|(u, v)| (u, v, u + v + 1))).unwrap();
        let q = [0u32, 1, 4];
        for g in [&unweighted, &weighted] {
            let partial = prefetch(g, &[1]);
            for roots in [RootPolicy::QueryOnly, RootPolicy::AllVertices] {
                for parallel in [false, true] {
                    for shared in [None, Some(&partial)] {
                        let recorder = TraceRecorder::new();
                        let solver = WienerSteiner::with_config(
                            g,
                            WsqConfig {
                                roots,
                                parallel,
                                trace: TraceContext::attached(recorder.clone(), NO_PARENT),
                                ..WsqConfig::default()
                            },
                        );
                        let got = solver.solve_pooled_shared(&q, &WorkspacePool::new(), shared);
                        let shape = format!(
                            "{roots:?} parallel={parallel} prefetched={}",
                            shared.is_some()
                        );
                        assert!(
                            matches!(got, Err(CoreError::QueryNotConnectable)),
                            "{shape}"
                        );
                        // Rejected before the sweep finished, so only the
                        // feasibility span was recorded.
                        let names: Vec<_> = recorder.finish().iter().map(|s| s.name).collect();
                        assert_eq!(names, ["feasibility"], "{shape}");
                    }
                }
            }
        }
    }

    /// Deterministic weighted twin of `g`: every edge gets a weight in
    /// `1..=maxw` hashed from its endpoints.
    fn weighted_version(g: &Graph, maxw: u32) -> Graph {
        let edges: Vec<(NodeId, NodeId, u32)> = g
            .edges()
            .map(|(u, v)| {
                let h = (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (v as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                (u, v, (h % maxw as u64) as u32 + 1)
            })
            .collect();
        Graph::from_weighted_edges(g.num_nodes(), &edges).unwrap()
    }

    #[test]
    fn weighted_solves_are_toggle_invariant() {
        // On weighted graphs every distance comes from delta-stepping
        // (batched in the prefetch, single-source in the sweep workers) —
        // and delta-stepping is pinned bit-identical to Dijkstra — so
        // parallelism and prefetched distances must leave the connector
        // fixed.
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        let base = mwc_graph::generators::barabasi_albert(400, 3, &mut rng);
        let g = weighted_version(&base, 9);
        for _ in 0..4 {
            let q: Vec<NodeId> = (0..4).map(|_| rng.gen_range(0..400)).collect();
            let reference = assert_prefetch_parity(&g, &q, RootPolicy::QueryOnly);
            // The reported Wiener index is the weighted one.
            assert!(reference.connector.contains_all(&q));
            assert_eq!(
                reference.wiener_index,
                reference.connector.wiener_index(&g).unwrap()
            );
        }
    }

    #[test]
    fn weight_one_graph_solves_like_its_unweighted_twin() {
        // A weighted graph whose weights are all 1 must produce exactly
        // the unweighted solve: delta-stepping degenerates to BFS order.
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        let base = mwc_graph::generators::barabasi_albert(300, 2, &mut rng);
        let g1 = weighted_version(&base, 1);
        assert!(g1.is_weighted());
        for _ in 0..3 {
            let q: Vec<NodeId> = (0..4).map(|_| rng.gen_range(0..300)).collect();
            let w = WienerSteiner::new(&g1).solve(&q).unwrap();
            let u = WienerSteiner::new(&base).solve(&q).unwrap();
            assert_eq!(w.connector.vertices(), u.connector.vertices(), "{q:?}");
            assert_eq!(w.wiener_index, u.wiener_index);
        }
    }
}
