//! Approximate-distance `ws-q` — the §6.6 scale-out direction, built.
//!
//! The paper's scalability section observes that pushing Algorithm 1 to
//! very large graphs "becomes necessary to employ techniques for parallel
//! and/or approximate shortest-distance computations [52, 4, 40, 45]",
//! and leaves them beyond scope. This module implements the approximate-
//! distance variant on top of [`mwc_graph::oracle::LandmarkOracle`]:
//!
//! * the per-root single-source distances of Algorithm 1 line 1 (one BFS
//!   per query vertex, `O(|Q| (|V| + |E|))` per solve) are replaced by
//!   landmark estimates (`O(|Q| · k · |V|)` scans against a `k`-landmark
//!   oracle built once per graph and shared across queries);
//! * the `G_{r,λ}` reweighting, λ sweep, Steiner solves (with the same
//!   reuse of a certified run across larger λ), and Remark 1 candidate
//!   selection are unchanged;
//! * `AdjustDistances` is skipped — it needs an exact BFS tree from the
//!   root, which is precisely what this variant avoids. The theoretical
//!   guarantee consequently degrades from a constant factor to a
//!   constant factor *relative to the oracle's distortion*; empirically
//!   (see the `fig5_approx` bench) quality stays within a few percent
//!   with 16 hub landmarks.
//!
//! The estimates are upper bounds that coincide with true distances
//! whenever some landmark lies on a shortest path, so hub landmarks work
//! well exactly on the small-world graphs the paper evaluates.

use mwc_graph::oracle::{LandmarkOracle, LandmarkStrategy};
use mwc_graph::traversal::bfs::WorkspacePool;
use mwc_graph::{Graph, NodeId, INF_DIST};
use rand::Rng;

use crate::connector::Connector;
use crate::error::{CoreError, Result};
use crate::steiner::{lambda_steiner_with, Repeats, SteinerAlgorithm, SteinerWorkspace};
use crate::wsq::{
    better, evaluate_a, evaluate_exact, lambda_grid, normalize_query, reuse_candidate,
    CandidateRecord, EvaluatedCandidate, WsqSolution,
};

/// Configuration of the approximate solver.
#[derive(Debug, Clone)]
pub struct ApproxWsqConfig {
    /// λ-grid resolution (see [`crate::WsqConfig::beta`]).
    pub beta: f64,
    /// Number of landmarks when the solver builds its own oracle.
    pub landmarks: usize,
    /// Landmark selection strategy.
    pub strategy: LandmarkStrategy,
    /// Steiner subroutine for the per-`(root, λ)` instances.
    pub steiner: SteinerAlgorithm,
    /// Exact-Wiener evaluation threshold (Remark 1; see
    /// [`crate::WsqConfig::wiener_exact_threshold`]).
    pub wiener_exact_threshold: usize,
    /// Allow internal parallelism (currently: the multi-source parallel
    /// Wiener evaluation of Remark-1 survivors). The engine clears this
    /// inside `solve_group` workers so solvers do not nest one thread
    /// pool per worker — same contract as [`crate::WsqConfig::parallel`].
    pub parallel: bool,
    /// Batch the per-root landmark estimates: all `|Q|` root distance
    /// vectors come from **one pass** over the oracle's `k × |V|` matrix
    /// ([`LandmarkOracle::estimate_all_multi`]) instead of `|Q|` separate
    /// sweeps — each landmark row is folded into every root while
    /// cache-hot. Estimates (and therefore connectors) are identical
    /// either way; the flag exists for A/B parity testing.
    pub batch: bool,
}

impl Default for ApproxWsqConfig {
    fn default() -> Self {
        ApproxWsqConfig {
            beta: 1.0,
            landmarks: 16,
            strategy: LandmarkStrategy::HighestDegree,
            steiner: SteinerAlgorithm::default(),
            wiener_exact_threshold: 4096,
            parallel: true,
            batch: true,
        }
    }
}

/// The approximate-distance `ws-q` solver. Owns a landmark oracle built
/// once per graph; `solve` can then be called for many queries without
/// any full-graph BFS beyond the per-query feasibility check.
///
/// ```
/// use mwc_core::{ApproxWienerSteiner, ApproxWsqConfig};
/// use mwc_graph::generators::karate::karate_club;
/// use rand::SeedableRng;
///
/// let g = karate_club();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let solver = ApproxWienerSteiner::build(&g, ApproxWsqConfig::default(), &mut rng);
/// let sol = solver.solve(&[11, 24, 25, 29]).unwrap();
/// assert!(sol.connector.contains_all(&[11, 24, 25, 29]));
/// ```
#[derive(Debug, Clone)]
pub struct ApproxWienerSteiner<'g> {
    graph: &'g Graph,
    oracle: LandmarkOracle,
    config: ApproxWsqConfig,
}

impl<'g> ApproxWienerSteiner<'g> {
    /// Builds the oracle (`config.landmarks` BFS traversals) and returns
    /// a ready solver.
    pub fn build<R: Rng>(graph: &'g Graph, config: ApproxWsqConfig, rng: &mut R) -> Self {
        assert!(config.beta > 0.0, "beta must be positive");
        let oracle = LandmarkOracle::build(graph, config.landmarks, config.strategy, rng);
        ApproxWienerSteiner {
            graph,
            oracle,
            config,
        }
    }

    /// Wraps an existing oracle (e.g. shared across solvers).
    pub fn with_oracle(graph: &'g Graph, oracle: LandmarkOracle, config: ApproxWsqConfig) -> Self {
        assert!(config.beta > 0.0, "beta must be positive");
        ApproxWienerSteiner {
            graph,
            oracle,
            config,
        }
    }

    /// The underlying oracle.
    pub fn oracle(&self) -> &LandmarkOracle {
        &self.oracle
    }

    /// Computes an approximately minimum Wiener connector for `q` using
    /// estimated distances. Same contract as
    /// [`WienerSteiner::solve`](crate::WienerSteiner::solve).
    pub fn solve(&self, q: &[NodeId]) -> Result<WsqSolution> {
        solve_with_oracle(
            self.graph,
            &self.oracle,
            &self.config,
            q,
            &WorkspacePool::new(),
        )
    }
}

/// Algorithm 1 with landmark-estimated distances, against a *borrowed*
/// oracle and workspace pool.
///
/// This is the reusable core of [`ApproxWienerSteiner::solve`]; the
/// [`QueryEngine`](crate::engine::QueryEngine) calls it directly so one
/// oracle (built once per graph) and one buffer pool serve every query,
/// instead of each solver instance owning copies.
pub fn solve_with_oracle(
    g: &Graph,
    oracle: &LandmarkOracle,
    config: &ApproxWsqConfig,
    q: &[NodeId],
    pool: &WorkspacePool,
) -> Result<WsqSolution> {
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
    // Feasibility stays exact: one BFS, not one per root.
    {
        let mut ws = pool.lease();
        let dist = ws.run_auto(g, q[0]);
        if q.iter().any(|&v| dist[v as usize] == INF_DIST) {
            return Err(CoreError::QueryNotConnectable);
        }
    }

    let mut all = candidates(g, oracle, config, &q, pool)?;
    // Remark 1 selection, identical to the exact solver: Lemma 1 rules
    // out candidates with A > 2 · min A; the survivors get exact W.
    evaluate_exact(
        g,
        &mut all,
        config.wiener_exact_threshold,
        config.parallel,
        None,
    )?;
    let num_candidates = all.len();
    let mut best: Option<EvaluatedCandidate> = None;
    for (rec, nodes) in all {
        if best.as_ref().is_none_or(|(cur, _)| better(&rec, cur)) {
            best = Some((rec, nodes));
        }
    }
    let (best_rec, best_nodes) = best.expect("candidates are always produced");
    let connector = Connector::new_unchecked(g, best_nodes);
    let wiener_index = match best_rec.wiener {
        Some(w) => w,
        // Same sequential contract as the candidate evaluations above.
        None => connector.wiener_index_with(g, !config.parallel)?,
    };
    Ok(WsqSolution {
        connector,
        wiener_index,
        best_root: best_rec.root,
        best_lambda: best_rec.lambda,
        num_candidates,
        trace: Vec::new(),
    })
}

/// The `(root, λ)` candidates of a feasible, normalized query: the
/// Steiner tree under the estimated reweighting and its `A(H, r)`, in root
/// then λ order, with no exact W yet.
fn candidates(
    g: &Graph,
    oracle: &LandmarkOracle,
    config: &ApproxWsqConfig,
    q: &[NodeId],
    pool: &WorkspacePool,
) -> Result<Vec<EvaluatedCandidate>> {
    let lambdas = lambda_grid(g.num_nodes(), config.beta);
    // Batched root estimates: one pass over the landmark matrix serves
    // every root (identical values to per-root `estimate_all` calls).
    let root_dists = if config.batch {
        Some(oracle.estimate_all_multi(q))
    } else {
        None
    };
    let n = g.num_nodes() as u32;
    let mut all: Vec<EvaluatedCandidate> = Vec::new();
    // One Steiner workspace serves the whole (root, λ) loop.
    let mut steiner_ws = SteinerWorkspace::new();
    for (ri, &r) in q.iter().enumerate() {
        let per_root;
        let dist_r: &[u32] = match &root_dists {
            Some(d) => &d[ri],
            None => {
                per_root = oracle.estimate_all(r);
                &per_root
            }
        };
        let m = |u: NodeId, v: NodeId| {
            // Unreachable vertices never appear on used paths (the
            // feasibility check passed); saturate defensively.
            let d = dist_r[u as usize].max(dist_r[v as usize]);
            if d == INF_DIST {
                n
            } else {
                d
            }
        };
        // The root's last Steiner call: its candidate's index in `all`,
        // and the larger λ at which it repeats.
        let mut last: Option<(usize, Repeats)> = None;
        for &lambda in &lambdas {
            if reuse_candidate(&mut all, last, lambda) {
                continue;
            }
            let (tree, repeats) =
                lambda_steiner_with(&mut steiner_ws, config.steiner, g, q, lambda, m)?;
            let nodes = tree.nodes;
            let a_value = evaluate_a(g, &nodes, r, pool)?;
            last = Some((all.len(), repeats));
            all.push((
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
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wsq::{WienerSteiner, WsqConfig};
    use mwc_graph::generators::karate::karate_club;
    use rand::SeedableRng;

    #[test]
    fn returns_valid_connectors_on_karate() {
        let g = karate_club();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let solver = ApproxWienerSteiner::build(&g, ApproxWsqConfig::default(), &mut rng);
        for q in [vec![11u32, 24, 25, 29], vec![3, 11, 16], vec![0, 33]] {
            let sol = solver.solve(&q).expect("solve");
            assert!(sol.connector.contains_all(&q));
            let sub = sol.connector.induced(&g).expect("induced");
            assert!(mwc_graph::connectivity::is_connected(sub.graph()));
            assert_eq!(
                sol.wiener_index,
                sol.connector.wiener_index(&g).unwrap(),
                "reported W must match the connector"
            );
        }
    }

    #[test]
    fn full_landmark_oracle_matches_exact_wsq() {
        // With every vertex a landmark the estimates are exact, so the
        // candidate trees coincide with the exact solver's (adjust off).
        let g = karate_club();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let approx = ApproxWienerSteiner::build(
            &g,
            ApproxWsqConfig {
                landmarks: g.num_nodes(),
                ..ApproxWsqConfig::default()
            },
            &mut rng,
        );
        let exact = WienerSteiner::with_config(
            &g,
            WsqConfig {
                adjust: false,
                parallel: false,
                ..WsqConfig::default()
            },
        );
        for q in [vec![11u32, 24, 25, 29], vec![3, 11, 16]] {
            let wa = approx.solve(&q).unwrap().wiener_index;
            let we = exact.solve(&q).unwrap().wiener_index;
            assert_eq!(wa, we, "query {q:?}");
        }
    }

    #[test]
    fn quality_stays_close_to_exact_on_scale_free_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = mwc_graph::generators::barabasi_albert(400, 3, &mut rng);
        let approx = ApproxWienerSteiner::build(&g, ApproxWsqConfig::default(), &mut rng);
        let exact = WienerSteiner::with_config(
            &g,
            WsqConfig {
                parallel: false,
                ..WsqConfig::default()
            },
        );
        use rand::Rng;
        for _ in 0..5 {
            let q: Vec<NodeId> = (0..5).map(|_| rng.gen_range(0..400)).collect();
            let wa = approx.solve(&q).unwrap().wiener_index;
            let we = exact.solve(&q).unwrap().wiener_index;
            assert!(
                (wa as f64) <= 2.0 * we as f64,
                "approximate W {wa} too far from exact {we} on {q:?}"
            );
        }
    }

    #[test]
    fn singleton_and_error_paths() {
        let g = karate_club();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let solver = ApproxWienerSteiner::build(&g, ApproxWsqConfig::default(), &mut rng);
        let sol = solver.solve(&[7]).unwrap();
        assert_eq!(sol.wiener_index, 0);
        assert!(matches!(solver.solve(&[]), Err(CoreError::EmptyQuery)));
        let disc = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let solver = ApproxWienerSteiner::build(&disc, ApproxWsqConfig::default(), &mut rng);
        assert!(matches!(
            solver.solve(&[0, 3]),
            Err(CoreError::QueryNotConnectable)
        ));
    }

    #[test]
    fn batch_toggle_yields_identical_connectors() {
        // Batched landmark estimates are the same min over the same
        // terms, so candidate trees — and connectors — must not move.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = mwc_graph::generators::barabasi_albert(300, 3, &mut rng);
        let mk = |batch: bool| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(8);
            ApproxWienerSteiner::build(
                &g,
                ApproxWsqConfig {
                    batch,
                    parallel: false,
                    ..ApproxWsqConfig::default()
                },
                &mut rng,
            )
        };
        let on = mk(true);
        let off = mk(false);
        use rand::Rng;
        for _ in 0..5 {
            let q: Vec<NodeId> = (0..4).map(|_| rng.gen_range(0..300)).collect();
            let a = on.solve(&q).unwrap();
            let b = off.solve(&q).unwrap();
            assert_eq!(a.connector.vertices(), b.connector.vertices(), "{q:?}");
            assert_eq!(a.wiener_index, b.wiener_index);
        }
    }

    #[test]
    fn candidate_stream_matches_the_full_grid() {
        // Algorithm 1 with estimated distances over the whole λ grid, from
        // public stages: landmark estimates, a Steiner call per λ under
        // the weight the solver used to build, `objective_a`, and W for
        // Lemma 1's survivors. Reused candidates must not show.
        use crate::objective::objective_a;
        use crate::steiner::mehlhorn_steiner;
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut reused = 0;
        for weighted in [false, true] {
            let base = mwc_graph::generators::barabasi_albert(300, 2, &mut rng);
            let g = if weighted {
                let edges: Vec<(NodeId, NodeId, u32)> = base
                    .edges()
                    .map(|(u, v)| (u, v, (u * 7 + v * 13) % 5 + 1))
                    .collect();
                Graph::from_weighted_edges(base.num_nodes(), &edges).unwrap()
            } else {
                base
            };
            let config = ApproxWsqConfig {
                parallel: false,
                ..ApproxWsqConfig::default()
            };
            let oracle = LandmarkOracle::build(&g, 8, config.strategy, &mut rng);
            for _ in 0..4 {
                let q: Vec<NodeId> = (0..5).map(|_| rng.gen_range(0..300)).collect();
                let q = normalize_query(&g, &q).unwrap();
                let mut grid: Vec<EvaluatedCandidate> = Vec::new();
                for &r in &q {
                    let est = oracle.estimate_all(r);
                    let m = |u: NodeId, v: NodeId| match est[u as usize].max(est[v as usize]) {
                        INF_DIST => g.num_nodes() as u32,
                        d => d,
                    };
                    let mut ws = SteinerWorkspace::new();
                    let mut last: Option<Repeats> = None;
                    for lambda in lambda_grid(g.num_nodes(), config.beta) {
                        let weight = |u: NodeId, v: NodeId| lambda + m(u, v) as f64 / lambda;
                        let tree = mehlhorn_steiner(&g, &q, weight).unwrap();
                        let a_value = objective_a(&g, &tree.nodes, r).unwrap().unwrap();
                        let rec = CandidateRecord {
                            root: r,
                            lambda,
                            size: tree.nodes.len(),
                            a_value,
                            wiener: None,
                        };
                        grid.push((rec, tree.nodes));
                        if last.is_some_and(|rep| rep.covers(lambda)) {
                            reused += 1;
                        } else {
                            let alg = SteinerAlgorithm::Mehlhorn;
                            let (_, rep) =
                                lambda_steiner_with(&mut ws, alg, &g, &q, lambda, m).unwrap();
                            last = Some(rep);
                        }
                    }
                }
                let min_a = grid.iter().map(|(rec, _)| rec.a_value).min().unwrap();
                for (rec, nodes) in &mut grid {
                    if rec.a_value <= 2 * min_a {
                        rec.wiener =
                            mwc_graph::wiener::wiener_index(g.induced(nodes).unwrap().graph());
                    }
                }
                let pool = WorkspacePool::new();
                let mut got = candidates(&g, &oracle, &config, &q, &pool).unwrap();
                evaluate_exact(&g, &mut got, config.wiener_exact_threshold, false, None).unwrap();
                let key = |(rec, nodes): &EvaluatedCandidate| {
                    let r = (rec.root, rec.lambda.to_bits(), rec.size, rec.a_value);
                    (r, rec.wiener, nodes.clone())
                };
                let expect: Vec<_> = grid.iter().map(key).collect();
                assert_eq!(got.iter().map(key).collect::<Vec<_>>(), expect, "{q:?}");
            }
        }
        assert!(reused > 0, "no candidate was reused");
    }

    #[test]
    fn oracle_is_reusable_across_solvers() {
        let g = karate_club();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let oracle = LandmarkOracle::build(&g, 8, LandmarkStrategy::HighestDegree, &mut rng);
        let a = ApproxWienerSteiner::with_oracle(&g, oracle.clone(), ApproxWsqConfig::default());
        let b = ApproxWienerSteiner::with_oracle(&g, oracle, ApproxWsqConfig::default());
        let q = [11u32, 24, 25];
        assert_eq!(
            a.solve(&q).unwrap().wiener_index,
            b.solve(&q).unwrap().wiener_index,
            "same oracle + config ⇒ deterministic result"
        );
    }
}
