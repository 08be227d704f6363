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
//! cannot change the answer. Let `h_Q` be the largest hop distance from
//! `Q` to a vertex it reaches (one BFS per solve) and `ecc_r` the largest
//! `d_G(r, v)` over those vertices. Once λ is a power of two with
//! `λ² > (2·h_Q + 1)·ecc_r` (see [`lexicographic_regime`]), every
//! comparison Mehlhorn makes has the outcome of the λ-free lexicographic
//! order on (hops, distance sum), so the tree is the same for every such
//! λ. Each root therefore runs Mehlhorn, `AdjustDistances` and `A(H, r)`
//! once for the first certified λ and reuses that candidate, under its
//! own λ, for the later ones. The candidate stream is bit-identical to
//! the full grid's.
//!
//! Theorem 4: the result is an `O(1)`-approximate minimum Wiener connector,
//! in time `O(|Q| (|E| log|V| + |V| log²|V|))`. The paper's §6.6 notes the
//! root loop parallelizes embarrassingly; [`WsqConfig::parallel`] does
//! exactly that with scoped threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mwc_graph::traversal::bfs::{
    canonical_parent, multi_source_distances, MsBfsWorkspace, PooledMsDeltaWorkspace,
    PooledMsWorkspace, WorkspacePool, MS_BFS_LANES,
};
use mwc_graph::traversal::delta::multi_source_delta_distances;
use mwc_graph::{wiener, Graph, NodeId, INF_DIST};

use crate::adjust::adjust_distances_with;
use crate::connector::Connector;
use crate::error::{CoreError, Result};
use crate::steiner::{klein_ravi, steiner_tree_with, SteinerAlgorithm, SteinerWorkspace};
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
    /// Route the solver's distance-only BFS runs (feasibility check,
    /// per-root distances when [`WsqConfig::batch`] is off, `A(H, r)`
    /// candidate evaluation) through the direction-optimizing kernel
    /// ([`BfsWorkspace::run_auto`]
    /// (mwc_graph::traversal::bfs::BfsWorkspace::run_auto)). Distances —
    /// and therefore connectors — are bit-identical either way (pinned by
    /// `kernel_toggle_yields_identical_connectors`); the flag exists so
    /// the kernel bench and parity tests can hold everything else fixed.
    /// BFS-tree parents are no longer scan-order artifacts: they are
    /// derived from the distances by the deterministic
    /// [`canonical_parent`] rule, so every kernel feeds `AdjustDistances`
    /// the same trees.
    pub kernel: bool,
    /// Batch Algorithm 1's per-root sweep through the multi-source BFS
    /// kernel: the `|Q|` root distance computations (line 1) and the
    /// feasibility pass run as `⌈|Q|/64⌉` shared CSR sweeps
    /// ([`MsBfsWorkspace`]) instead of one BFS per root, and the per-root
    /// parent trees feeding `AdjustDistances` are reconstructed on demand
    /// from the distance matrix ([`canonical_parent`]). Connectors are
    /// **bit-identical** with batching on or off (pinned by
    /// `batch_toggle_yields_identical_connectors` and the engine-level
    /// parity tests); the flag exists for the `wsq_batched` bench section
    /// and A/B parity testing.
    pub batch: bool,
    /// Per-request trace context: when enabled the solver records
    /// `feasibility`, `root_sweep` (with lane/sweep/candidate counters,
    /// Steiner calls and reused trees, and accumulated Steiner,
    /// `AdjustDistances` and `A(H, r)` time), and `evaluate` stage
    /// spans. Disabled (the default) it costs one branch per stage.
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
            kernel: true,
            batch: true,
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

    /// Like [`WienerSteiner::solve_pooled`], but consuming per-root
    /// distance arrays from `shared` when they are available — the
    /// cross-request coalescing path, where one multi-source sweep served
    /// the roots of *several* concurrent queries
    /// ([`QueryEngine::solve_group`](crate::engine::QueryEngine::solve_group)).
    ///
    /// `shared` maps root vertices to distance arrays produced by the same
    /// [`multi_source_distances`] kernel the solver would run itself; MS-BFS
    /// lanes are independent, so the arrays are bit-identical regardless of
    /// which other roots shared the sweep, and connectors are bit-identical
    /// with or without `shared` (pinned by
    /// `shared_root_distances_yield_identical_connectors`). Roots missing
    /// from the map — or any batch the map does not fully cover — fall back
    /// to the solver's own sweep.
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

        let use_batch = self.config.batch && roots.len() > 1;
        // Feasibility: all query vertices in one component, checked from
        // q[0]. Under the batched QueryOnly sweep the check is folded
        // into the first multi-source batch below (lane 0 *is* q[0], so
        // it costs nothing); every other configuration pays one BFS here.
        let feasibility_folded = use_batch && matches!(self.config.roots, RootPolicy::QueryOnly);
        if !feasibility_folded {
            let span = self.config.trace.span("feasibility");
            let infeasible = if g.is_weighted() {
                let mut ws = pool.lease_delta();
                let dist = ws.run(g, q[0]);
                q.iter().any(|&v| dist[v as usize] == INF_DIST)
            } else {
                let mut ws = pool.lease();
                let dist = if self.config.kernel {
                    ws.run_auto(g, q[0])
                } else {
                    ws.run(g, q[0])
                };
                q.iter().any(|&v| dist[v as usize] == INF_DIST)
            };
            drop(span);
            if infeasible {
                return Err(CoreError::QueryNotConnectable);
            }
        }

        let mut candidates: Vec<CandidateRecord> = Vec::new();
        let mut best: Option<(CandidateRecord, Vec<NodeId>)> = None;

        // Stage accounting for the `root_sweep` span: multi-source sweeps
        // run locally (prefetch-covered batches run none), lanes packed
        // into them, kernel BFS levels expanded, and Steiner and
        // `AdjustDistances` time accumulated across sweep workers
        // (reported as counters — the stages run interleaved on several
        // threads, so child spans would overlap their siblings).
        let traced = self.config.trace.enabled();
        let sweep_start = traced.then(Instant::now);
        let mut local_sweeps = 0u64;
        let mut local_lanes = 0u64;
        let mut kernel_levels_base = 0u64;
        let stage_acc = StageCounters::default();
        let counters = traced.then_some(&stage_acc);

        // The λ-regime certificate's solve-wide half: h_Q from one hop BFS
        // over Q, held through the sweep so that each root can take its
        // eccentricity over the same vertices.
        let mut hop_ws = regime_possible(&self.config, &lambdas).then(|| pool.lease());
        let regime = hop_ws.as_mut().map(|ws| Regime::new(ws.run_multi(g, &q)));
        let regime = regime.as_ref();

        // The candidate stream: identical root order (and therefore
        // identical records) whether the per-root distances come from
        // ⌈|roots|/64⌉ shared multi-source sweeps or one BFS per root.
        let mut all: Vec<EvaluatedCandidate> = Vec::new();
        let mut ms: Option<MsDistWorkspace<'_>> = None;
        if use_batch {
            // The multi-source workspace is leased lazily: when `shared`
            // covers every batch (the fully coalesced case) no sweep runs
            // here at all.
            for (bi, batch) in roots.chunks(MS_BFS_LANES).enumerate() {
                // Cooperative deadline between batches; the first batch
                // always runs so a feasible connector is still produced.
                if !all.is_empty() && past_deadline(&self.config) {
                    break;
                }
                // Use the prefetched arrays only when they cover the whole
                // batch — a partially covered batch recomputes everything,
                // keeping the sweep accounting simple (in practice the
                // coalescer prefetches all roots or none).
                let dists: Vec<Arc<Vec<u32>>> = match shared {
                    Some(map) if batch.iter().all(|r| map.contains_key(r)) => batch
                        .iter()
                        .map(|r| Arc::clone(map.get(r).expect("checked above")))
                        .collect(),
                    _ => {
                        if ms.is_none() {
                            let leased = MsDistWorkspace::lease(pool, g);
                            // Pooled workspaces carry counters across
                            // leases; report this solve's delta only.
                            kernel_levels_base = leased.expanded();
                            ms = Some(leased);
                        }
                        let ms = ms.as_mut().expect("leased above");
                        local_sweeps += 1;
                        local_lanes += batch.len() as u64;
                        batched_root_distances_dispatch(g, batch, ms)
                            .into_iter()
                            .map(Arc::new)
                            .collect()
                    }
                };
                if bi == 0 && feasibility_folded {
                    // The check rides lane 0 of the sweep that just ran,
                    // so the marginal cost — and the span — is ~zero.
                    let span = self.config.trace.span("feasibility");
                    let infeasible = q.iter().any(|&v| dists[0][v as usize] == INF_DIST);
                    drop(span);
                    if infeasible {
                        return Err(CoreError::QueryNotConnectable);
                    }
                }
                all.extend(self.sweep_roots(
                    g,
                    &q,
                    batch,
                    Some(&dists),
                    &lambdas,
                    pool,
                    regime,
                    counters,
                )?);
            }
        } else {
            all = self.sweep_roots(g, &q, &roots, None, &lambdas, pool, regime, counters)?;
        }
        if let Some(t0) = sweep_start {
            let kernel_levels = ms.as_ref().map_or(0, |w| w.expanded() - kernel_levels_base);
            self.config.trace.record_with(
                "root_sweep",
                t0,
                Instant::now(),
                vec![
                    ("roots", roots.len() as u64),
                    ("sweeps", local_sweeps),
                    ("lanes", local_lanes),
                    ("kernel_levels", kernel_levels),
                    ("candidates", all.len() as u64),
                    ("steiner_us", stage_acc.steiner_us.load(Ordering::Relaxed)),
                    (
                        "steiner_calls",
                        stage_acc.steiner_calls.load(Ordering::Relaxed),
                    ),
                    (
                        "steiner_reused",
                        stage_acc.steiner_reused.load(Ordering::Relaxed),
                    ),
                    ("adjust_us", stage_acc.adjust_us.load(Ordering::Relaxed)),
                    (
                        "evaluate_a_us",
                        stage_acc.evaluate_a_us.load(Ordering::Relaxed),
                    ),
                ],
            );
        }
        drop(ms);
        drop(hop_ws);

        // Remark 1, engineered: Lemma 1 gives A(H,r)/2 ≤ W(H) ≤ A(H,r), so
        // a candidate with A > 2 · min_A cannot have a smaller Wiener index
        // than the argmin-A candidate — only the others need the (much more
        // expensive) exact evaluation. Candidates above the size threshold
        // fall back to the A-proxy, as in the paper's worst-case analysis.
        let mut eval_span = self.config.trace.span("evaluate");
        let mut exact_evals = 0u64;
        let min_a = all.iter().map(|(rec, _)| rec.a_value).min().unwrap_or(0);
        for (rec, nodes) in &mut all {
            // Past the deadline, fall back to the A-proxy for the remaining
            // candidates (the mixed Some/None comparison below stays valid).
            if past_deadline(&self.config) {
                break;
            }
            if rec.a_value <= 2 * min_a && nodes.len() <= self.config.wiener_exact_threshold {
                let sub = g.induced(nodes)?;
                // When the solver itself was asked to stay sequential
                // (batch workers already use every core), keep the Wiener
                // evaluation sequential too — the parallel kernel would
                // nest one thread pool per worker.
                rec.wiener = if self.config.parallel {
                    wiener::wiener_index(sub.graph())
                } else {
                    wiener::wiener_index_sequential(sub.graph())
                };
                exact_evals += 1;
            }
        }
        let total_candidates = all.len();
        for (rec, nodes) in all {
            let better = match &best {
                None => true,
                Some((cur, _)) => {
                    // Exact values win over proxies; among proxies use A.
                    match (rec.wiener, cur.wiener) {
                        (Some(a), Some(b)) => a < b,
                        (Some(a), None) => a < cur.a_value,
                        (None, Some(b)) => rec.a_value / 2 < b && rec.a_value < cur.a_value,
                        (None, None) => rec.a_value < cur.a_value,
                    }
                }
            };
            if better {
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
    /// (§6.6's embarrassing root parallelism). `dists`, when present,
    /// carries precomputed per-root distance arrays aligned with `roots`
    /// (the batched path); chunk boundaries split both in lockstep, and
    /// the merge keeps root order, so threading never changes the
    /// candidate stream.
    #[allow(clippy::too_many_arguments)]
    fn sweep_roots(
        &self,
        g: &Graph,
        q: &[NodeId],
        roots: &[NodeId],
        dists: Option<&[Arc<Vec<u32>>]>,
        lambdas: &[f64],
        pool: &WorkspacePool,
        regime: Option<&Regime<'_>>,
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
            return run_roots(
                g,
                &self.config,
                q,
                roots,
                dists,
                lambdas,
                pool,
                regime,
                counters,
            );
        }
        let chunk = roots.len().div_ceil(threads);
        let results: Vec<Result<Vec<EvaluatedCandidate>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = roots
                .chunks(chunk)
                .enumerate()
                .map(|(i, chunk_roots)| {
                    let dists_chunk = dists.map(|d| &d[i * chunk..i * chunk + chunk_roots.len()]);
                    let (q, lambdas, cfg) = (q, lambdas, &self.config);
                    scope.spawn(move || {
                        run_roots(
                            g,
                            cfg,
                            q,
                            chunk_roots,
                            dists_chunk,
                            lambdas,
                            pool,
                            regime,
                            counters,
                        )
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
/// kernel: `⌈|roots|/64⌉` shared CSR sweeps, each serving up to
/// [`MS_BFS_LANES`] roots at once, gathered into one per-root array each.
/// Bit-identical to per-root [`BfsWorkspace::run`]
/// (mwc_graph::traversal::bfs::BfsWorkspace::run) distances — this is
/// Algorithm 1 line 1 as the batched `ws-q` path executes it, exposed so
/// the `wsq_batched` bench section measures exactly the solver's code.
pub fn batched_root_distances(
    g: &Graph,
    roots: &[NodeId],
    ws: &mut MsBfsWorkspace,
) -> Vec<Vec<u32>> {
    multi_source_distances(g, roots, ws)
}

/// Pooled multi-source distance workspace, dispatched on the graph's
/// weightedness: MS-BFS lanes for unweighted graphs, batched
/// delta-stepping lanes ([`MsDeltaWorkspace`]
/// (mwc_graph::traversal::delta::MsDeltaWorkspace)) for weighted ones.
/// Both kernels produce per-root arrays bit-identical to their sequential
/// references, so the batched solver and the engine's cross-request
/// prefetch can share arrays regardless of which leased the workspace.
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

    /// Cumulative work counter for tracing: BFS levels or delta-stepping
    /// buckets expanded over the workspace's lifetime.
    pub fn expanded(&self) -> u64 {
        match self {
            MsDistWorkspace::Bfs(ws) => ws.levels_expanded(),
            MsDistWorkspace::Delta(ws) => ws.buckets_expanded(),
        }
    }
}

/// [`batched_root_distances`] with kernel dispatch: weighted graphs route
/// through the batched delta-stepping kernel
/// ([`multi_source_delta_distances`]), unweighted ones through MS-BFS.
/// The solver's batched sweep and
/// [`QueryEngine::solve_group`](crate::engine::QueryEngine::solve_group)'s
/// prefetch both go through here, so coalesced and uncoalesced solves run
/// the same kernel on the same graph.
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
/// distances-from-root, produced by the same [`multi_source_distances`]
/// kernel the batched solver runs itself. Built by
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

/// Whether λ lies in the *lexicographic regime* of a ws-q Mehlhorn call
/// on `G_{r,λ}`, where `h_q` is the largest hop distance from `Q` to a
/// vertex it reaches and `ecc_r` the largest `d_G(r, v)` over those
/// vertices. Every λ for which this holds yields the same Mehlhorn tree,
/// `nodes` and `edges` alike, so Algorithm 1 computes it once per root.
///
/// The certificate, checked in exact integer arithmetic:
/// - `λ = 2^t` exactly, with `t ≥ 0`;
/// - `λ² > B_r`, where `B_r = (2·h_q + 1)·ecc_r`;
/// - `(2·h_q + 1)·λ² + B_r < 2^53`.
///
/// Proof. The reweighted edge `(u, v)` costs `λ + m/λ` with
/// `m = max(d_r(u), d_r(v)) ≤ ecc_r`, so a path of `k` edges costs
/// `kλ + M/λ`, where `M` is the sum of its `m`. Mehlhorn's keys are all
/// such path sums: settled and tentative distances, crossing offers
/// `d(u) + w(u, v) + d(v)` and their floors `d(u) + d(v)`, and the
/// weights both MSTs sort. Compare this run with the same code run on
/// pairs `(k, M)` ordered lexicographically. That run settles every
/// vertex at its hop distance from the terminals, at most `h_q`, since
/// the terminals include `Q`. So its keys have `k ≤ 2·h_q + 1` and
/// `0 ≤ M ≤ B_r`.
/// - *Exact.* With `λ = 2^t`, `kλ + M/λ = (kλ² + M)·2^{-t}`, an integer
///   below `2^53` times a power of two. Every such sum, and every partial
///   sum on the way to it, is an f64 with no rounding.
/// - *Order-preserving.* If `k < k'`, then `(k'λ + M'/λ) − (kλ + M/λ) ≥
///   λ − B_r/λ > 0`, because `λ² > B_r`. If `k = k'`, the sign is that of
///   `M' − M`. Equal keys stay equal.
///
/// By induction over the run, each comparison (`<` and `==` on
/// distances, the radix queue's `(key, id)` pop order, `(w, u, v)` on
/// crossings, `total_cmp` in both MST sorts) has the outcome it has in
/// the lexicographic run, id tie-breaks included. The run does not depend
/// on λ, so neither do `nodes` and `edges`. Only `total_weight` differs,
/// and ws-q never reads it. `AdjustDistances` and `A(H, r)` read only the
/// tree and `d_r`, so the whole candidate repeats.
///
/// `ecc_r` takes saturated [`INF_DIST`] distances at face value, as the
/// weight closure does, so such a graph certifies nothing. λ < 1 is never
/// certified: it would need `B_r = 0`, which positive edge weights rule
/// out once `|Q| ≥ 2`.
pub fn lexicographic_regime(lambda: f64, h_q: u32, ecc_r: u32) -> bool {
    let Some(t) = dyadic_exponent(lambda) else {
        return false;
    };
    // λ² ≥ 2^54 fails the last condition whatever h_q is.
    if t >= 27 {
        return false;
    }
    let lambda_sq = 1u128 << (2 * t);
    let k_max = 2 * h_q as u128 + 1;
    let bound = k_max * ecc_r as u128;
    lambda_sq > bound && k_max * lambda_sq + bound < 1 << 53
}

/// `t` when `λ = 2^t` exactly with `t ≥ 0`.
fn dyadic_exponent(lambda: f64) -> Option<u32> {
    let bits = lambda.to_bits();
    // Sign and biased exponent; a set sign bit lands far out of range.
    let t = (bits >> 52) as i64 - 1023;
    (bits & ((1 << 52) - 1) == 0 && (0..=1023).contains(&t)).then_some(t as u32)
}

/// Whether [`lexicographic_regime`] can ever let a root reuse a candidate
/// under `cfg`: the subroutine is Mehlhorn on edge weights, and the grid
/// holds at least two powers of two `≥ 1`.
fn regime_possible(cfg: &WsqConfig, lambdas: &[f64]) -> bool {
    cfg.steiner == SteinerAlgorithm::Mehlhorn
        && !cfg.node_weighted_steiner
        && lambdas
            .iter()
            .filter_map(|&l| dyadic_exponent(l))
            .nth(1)
            .is_some()
}

/// The solve-wide half of the λ-regime certificate.
struct Regime<'a> {
    /// Hop distance from `Q`, [`INF_DIST`] where `Q` does not reach.
    hops: &'a [u32],
    /// `h_Q`: the largest finite entry of `hops`.
    h_q: u32,
}

impl<'a> Regime<'a> {
    fn new(hops: &'a [u32]) -> Self {
        let h_q = hops.iter().copied().filter(|&h| h != INF_DIST).max();
        Regime {
            hops,
            h_q: h_q.unwrap_or(0),
        }
    }

    /// `ecc_r`: the largest `dist_r` over the vertices `Q` reaches.
    fn eccentricity(&self, dist_r: &[u32]) -> u32 {
        self.hops
            .iter()
            .zip(dist_r)
            .filter(|(&h, _)| h != INF_DIST)
            .map(|(_, &d)| d)
            .max()
            .unwrap_or(0)
    }
}

/// A candidate's record plus its vertex set.
type EvaluatedCandidate = (CandidateRecord, Vec<NodeId>);

/// Stage time the sweep workers accumulate for a traced solve's
/// `root_sweep` span (statistics only, hence `Relaxed`).
#[derive(Default)]
struct StageCounters {
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

/// Worker: full λ sweep for a chunk of roots, returning evaluated
/// candidates.
///
/// `dists`, when present, is the batched path's precomputed per-root
/// distance slice (aligned with `roots`); otherwise each root pays one
/// BFS here. Either way the BFS-tree parents feeding `AdjustDistances`
/// are derived on demand from the distances by the deterministic
/// [`canonical_parent`] rule — a pure function of the (kernel-invariant)
/// distance array, so every configuration grafts identical paths.
///
/// With `regime` present, the first λ of a root that passes
/// [`lexicographic_regime`] is solved as usual and every later one that
/// passes gets a copy of that candidate under its own λ.
#[allow(clippy::too_many_arguments)]
fn run_roots(
    g: &Graph,
    cfg: &WsqConfig,
    q: &[NodeId],
    roots: &[NodeId],
    dists: Option<&[Arc<Vec<u32>>]>,
    lambdas: &[f64],
    pool: &WorkspacePool,
    regime: Option<&Regime<'_>>,
    counters: Option<&StageCounters>,
) -> Result<Vec<EvaluatedCandidate>> {
    let mut out: Vec<EvaluatedCandidate> = Vec::with_capacity(roots.len() * lambdas.len());
    // One Steiner workspace serves every (root, λ) call of this worker.
    let mut steiner_ws = SteinerWorkspace::new();
    // Per-root distances come from the kernel matching the graph:
    // delta-stepping on weighted graphs, BFS otherwise.
    let mut ws = (!g.is_weighted()).then(|| pool.lease());
    let mut delta = g.is_weighted().then(|| pool.lease_delta());
    let mut terminals: Vec<NodeId> = Vec::with_capacity(q.len() + 1);
    for (i, &r) in roots.iter().enumerate() {
        // Cooperative deadline: stop sweeping further roots, but never
        // before this worker contributed at least one candidate.
        if !out.is_empty() && past_deadline(cfg) {
            break;
        }
        let dist_r: &[u32] = match dists {
            Some(d) => d[i].as_slice(),
            None => match delta.as_mut() {
                Some(dw) => dw.run(g, r),
                None => {
                    let ws = ws.as_mut().expect("unweighted graphs lease a BFS workspace");
                    if cfg.kernel {
                        ws.run_auto(g, r)
                    } else {
                        ws.run(g, r)
                    }
                }
            },
        };
        // Terminals: Q ∪ {r} (identical to Q under RootPolicy::QueryOnly).
        terminals.clear();
        terminals.extend_from_slice(q);
        if !q.contains(&r) {
            if dist_r[q[0] as usize] == INF_DIST {
                continue; // root in a different component: useless
            }
            terminals.push(r);
        }
        let bounds = regime.map(|reg| (reg.h_q, reg.eccentricity(dist_r)));
        // Index in `out` of this root's first certified candidate.
        let mut certified_first: Option<usize> = None;
        for &lambda in lambdas {
            if !out.is_empty() && past_deadline(cfg) {
                break;
            }
            let certified =
                bounds.is_some_and(|(h_q, ecc_r)| lexicographic_regime(lambda, h_q, ecc_r));
            if let (true, Some(i)) = (certified, certified_first) {
                let (rec, nodes) = &out[i];
                let reused = (CandidateRecord { lambda, ..*rec }, nodes.clone());
                out.push(reused);
                if let Some(c) = counters {
                    c.steiner_reused.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            let weight = |u: NodeId, v: NodeId| {
                lambda + dist_r[u as usize].max(dist_r[v as usize]) as f64 / lambda
            };
            let t0 = counters.map(|_| Instant::now());
            let tree = if cfg.node_weighted_steiner {
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
                klein_ravi(g, &terminals, node_cost)?
            } else {
                steiner_tree_with(&mut steiner_ws, cfg.steiner, g, &terminals, weight)?
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
            let a_value = evaluate_a(g, &nodes, r, pool, cfg.kernel)?;
            if let (Some(c), Some(t0)) = (counters, t0) {
                c.evaluate_a_us
                    .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
            if certified {
                certified_first = Some(out.len());
            }
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
    kernel: bool,
) -> Result<u64> {
    let sub = g.induced(nodes)?;
    let r_local = sub.to_local(r).expect("root belongs to its candidate");
    let (sum, reached) = if sub.graph().is_weighted() {
        let mut ws = pool.lease_delta();
        ws.run(sub.graph(), r_local);
        ws.last_run_distance_sum()
    } else {
        let mut ws = pool.lease();
        if kernel {
            ws.run_auto(sub.graph(), r_local);
        } else {
            ws.run(sub.graph(), r_local);
        }
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
    fn lexicographic_regime_checks_every_condition() {
        // h_Q = 2, ecc_r = 3: B_r = 15, so 4² = 16 is the first square
        // above it.
        let certified: Vec<f64> = lambda_grid(1 << 20, 1.0)
            .into_iter()
            .filter(|&l| lexicographic_regime(l, 2, 3))
            .collect();
        assert_eq!(
            certified,
            (2..11).map(|t| (1u32 << t) as f64).collect::<Vec<_>>()
        );
        // λ² = B_r is not enough.
        assert!(!lexicographic_regime(4.0, 0, 16));
        assert!(lexicographic_regime(4.0, 0, 15));
        // Not a power of two, below 1, or not finite.
        for lambda in [3.0, 6.0, 1.5, 0.5, 0.25, f64::INFINITY, f64::NAN, -4.0, 0.0] {
            assert!(!lexicographic_regime(lambda, 0, 0), "λ = {lambda}");
        }
        // Exactness: (2·h_Q + 1)·λ² + B_r must stay below 2^53.
        let lambda = (1u64 << 26) as f64;
        assert!(lexicographic_regime(lambda, 0, 0));
        assert!(!lexicographic_regime(lambda, 1, 0));
        assert!(!lexicographic_regime((1u64 << 27) as f64, 0, 0));
        // Saturated eccentricities certify nothing on a realistic grid.
        assert!(!lexicographic_regime(65536.0, 1, INF_DIST));
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

    #[test]
    fn batch_toggle_yields_identical_connectors() {
        // The multi-source batched root sweep changes how distances are
        // produced, never what they are — and parents are a pure function
        // of distances — so connectors must be bit-identical with
        // batching on or off.
        let mut rng = rand::rngs::StdRng::seed_from_u64(73);
        let g = mwc_graph::generators::barabasi_albert(600, 3, &mut rng);
        for _ in 0..5 {
            let size = rng.gen_range(2..=6usize);
            let q: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..600)).collect();
            let on = WienerSteiner::with_config(
                &g,
                WsqConfig {
                    batch: true,
                    parallel: false,
                    ..WsqConfig::default()
                },
            )
            .solve(&q)
            .unwrap();
            let off = WienerSteiner::with_config(
                &g,
                WsqConfig {
                    batch: false,
                    parallel: false,
                    ..WsqConfig::default()
                },
            )
            .solve(&q)
            .unwrap();
            assert_eq!(on.connector.vertices(), off.connector.vertices(), "{q:?}");
            assert_eq!(on.wiener_index, off.wiener_index);
            assert_eq!(on.num_candidates, off.num_candidates);
            assert_eq!(
                (on.best_root, on.best_lambda),
                (off.best_root, off.best_lambda)
            );
        }
    }

    #[test]
    fn batch_parity_holds_with_all_vertices_roots() {
        // AllVertices spans multiple 64-lane batches on the karate club +
        // margin graph; the standalone feasibility path and the per-batch
        // sweeps must agree with the per-root path.
        let g = mwc_graph::generators::barabasi_albert(
            150,
            2,
            &mut rand::rngs::StdRng::seed_from_u64(79),
        );
        let q = vec![3u32, 77, 149];
        let mk = |batch: bool| {
            WienerSteiner::with_config(
                &g,
                WsqConfig {
                    roots: RootPolicy::AllVertices,
                    batch,
                    parallel: false,
                    ..WsqConfig::default()
                },
            )
            .solve(&q)
            .unwrap()
        };
        let on = mk(true);
        let off = mk(false);
        assert_eq!(on.connector.vertices(), off.connector.vertices());
        assert_eq!(on.wiener_index, off.wiener_index);
        assert_eq!(on.num_candidates, off.num_candidates);
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
        // the solver computing its own sweeps.
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

    #[test]
    fn partially_covered_shared_map_falls_back_to_own_sweep() {
        let g = karate_club();
        let q = vec![11u32, 24, 25, 29];
        // A map missing one of the roots: the batch recomputes, results
        // unchanged.
        let mut ms = MsBfsWorkspace::new();
        let partial: SharedRootDists = batched_root_distances(&g, &[11, 24], &mut ms)
            .into_iter()
            .map(Arc::new)
            .zip([11u32, 24])
            .map(|(d, r)| (r, d))
            .collect();
        let solver = WienerSteiner::new(&g);
        let pool = WorkspacePool::new();
        let own = solver.solve_pooled(&q, &pool).unwrap();
        let shared = solver
            .solve_pooled_shared(&q, &pool, Some(&partial))
            .unwrap();
        assert_eq!(own.connector.vertices(), shared.connector.vertices());
        assert_eq!(own.wiener_index, shared.wiener_index);
    }

    #[test]
    fn infeasible_query_is_rejected_with_batching_on_and_off() {
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        for batch in [true, false] {
            let solver = WienerSteiner::with_config(
                &split,
                WsqConfig {
                    batch,
                    ..WsqConfig::default()
                },
            );
            assert!(matches!(
                solver.solve(&[0, 3]),
                Err(CoreError::QueryNotConnectable)
            ));
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
        // (batched or single-source) — and delta-stepping is pinned
        // bit-identical to Dijkstra — so batching, parallelism, and
        // coalesced shared distances must all leave the connector fixed.
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        let base = mwc_graph::generators::barabasi_albert(400, 3, &mut rng);
        let g = weighted_version(&base, 9);
        for _ in 0..4 {
            let q: Vec<NodeId> = (0..4).map(|_| rng.gen_range(0..400)).collect();
            let reference = WienerSteiner::with_config(
                &g,
                WsqConfig {
                    batch: false,
                    parallel: false,
                    ..WsqConfig::default()
                },
            )
            .solve(&q)
            .unwrap();
            for (batch, parallel) in [(true, false), (true, true), (false, true)] {
                let sol = WienerSteiner::with_config(
                    &g,
                    WsqConfig {
                        batch,
                        parallel,
                        ..WsqConfig::default()
                    },
                )
                .solve(&q)
                .unwrap();
                assert_eq!(
                    sol.connector.vertices(),
                    reference.connector.vertices(),
                    "batch={batch} parallel={parallel} {q:?}"
                );
                assert_eq!(sol.wiener_index, reference.wiener_index);
                assert_eq!(sol.num_candidates, reference.num_candidates);
            }
            // The coalescing path: shared arrays from the weighted batched
            // kernel, exactly as solve_group prefetches them.
            let q_norm = normalize_query(&g, &q).unwrap();
            let pool = WorkspacePool::new();
            let mut ws = MsDistWorkspace::lease(&pool, &g);
            let arrays = batched_root_distances_dispatch(&g, &q_norm, &mut ws);
            drop(ws);
            let shared: SharedRootDists = q_norm
                .iter()
                .copied()
                .zip(arrays.into_iter().map(Arc::new))
                .collect();
            let coalesced = WienerSteiner::new(&g)
                .solve_pooled_shared(&q, &pool, Some(&shared))
                .unwrap();
            assert_eq!(
                coalesced.connector.vertices(),
                reference.connector.vertices()
            );
            assert_eq!(coalesced.wiener_index, reference.wiener_index);
            // The reported Wiener index is the weighted one.
            assert!(reference.connector.contains_all(&q_norm));
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

    #[test]
    fn kernel_toggle_yields_identical_connectors() {
        // The direction-optimizing kernel only changes scan order, never
        // distances — connectors must be bit-identical with it on or off.
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let g = mwc_graph::generators::barabasi_albert(500, 3, &mut rng);
        for _ in 0..5 {
            let q: Vec<NodeId> = (0..4).map(|_| rng.gen_range(0..500)).collect();
            let on = WienerSteiner::with_config(
                &g,
                WsqConfig {
                    kernel: true,
                    parallel: false,
                    ..WsqConfig::default()
                },
            )
            .solve(&q)
            .unwrap();
            let off = WienerSteiner::with_config(
                &g,
                WsqConfig {
                    kernel: false,
                    parallel: false,
                    ..WsqConfig::default()
                },
            )
            .solve(&q)
            .unwrap();
            assert_eq!(on.connector.vertices(), off.connector.vertices(), "{q:?}");
            assert_eq!(on.wiener_index, off.wiener_index);
            assert_eq!(on.num_candidates, off.num_candidates);
        }
    }
}
