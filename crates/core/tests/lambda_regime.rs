//! Differential suite for ws-q's λ-regime reuse.
//!
//! Algorithm 1 calls Mehlhorn once per root for all the λ of the grid that
//! [`lexicographic_regime`] certifies, and copies that candidate to the
//! other certified λ. These tests pin the certificate against fresh
//! Mehlhorn calls, and the whole solver against a full-grid Algorithm 1
//! built from the public stages, record for record.

use proptest::prelude::*;

use mwc_core::adjust::adjust_distances_with;
use mwc_core::objective::objective_a;
use mwc_core::steiner::{mehlhorn_steiner, SteinerAlgorithm};
use mwc_core::wsq::{lambda_grid, lexicographic_regime, normalize_query, RootPolicy};
use mwc_core::{TraceContext, TraceRecorder, WienerSteiner, WsqConfig, WsqSolution, NO_PARENT};
use mwc_graph::generators::karate::karate_club;
use mwc_graph::traversal::bfs::{bfs_distances, canonical_parent};
use mwc_graph::traversal::dijkstra::DijkstraWorkspace;
use mwc_graph::{wiener, Graph, NodeId, INF_DIST};

/// Reattaches deterministic hash weights in `1..=max_weight` to a graph's
/// topology (the scheme the service's `wba:` source uses).
fn weighted_version(g: &Graph, max_weight: u32) -> Graph {
    let edges: Vec<(NodeId, NodeId, u32)> = g
        .edges()
        .map(|(u, v)| {
            let h = (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (v as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            (u, v, (h % max_weight as u64) as u32 + 1)
        })
        .collect();
    Graph::from_weighted_edges(g.num_nodes(), &edges).unwrap()
}

/// A graph from one of the paper's evaluation families — ER `G(n, p)`,
/// Barabási–Albert or a planted partition — `wba`-weighted when
/// `max_weight > 1`, optionally relabeled hub-first. ER and SBM draws may
/// be disconnected.
fn family_graph(family: usize, n: usize, seed: u64, max_weight: u32, ordered: bool) -> Graph {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let base = match family {
        0 => mwc_graph::generators::gnp(n, 0.04, &mut rng),
        1 => mwc_graph::generators::barabasi_albert(n, 2, &mut rng),
        _ => {
            let third = n / 3;
            mwc_graph::generators::planted_partition(
                &[third, third, n - 2 * third],
                0.12,
                0.01,
                &mut rng,
            )
            .graph
        }
    };
    let g = if max_weight > 1 {
        weighted_version(&base, max_weight)
    } else {
        base
    };
    if ordered {
        g.degree_ordered().0
    } else {
        g
    }
}

/// Up to `k` distinct query vertices from one component (the component
/// of a random vertex), or `None` when that component is a single vertex.
fn pick_query(g: &Graph, seed: u64, k: usize) -> Option<Vec<NodeId>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let start = rng.gen_range(0..g.num_nodes() as NodeId);
    let component: Vec<NodeId> = bfs_distances(g, start)
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != INF_DIST)
        .map(|(v, _)| v as NodeId)
        .collect();
    if component.len() < 2 {
        return None;
    }
    let mut q: Vec<NodeId> = (0..k)
        .map(|_| component[rng.gen_range(0..component.len())])
        .collect();
    q.sort_unstable();
    q.dedup();
    (q.len() >= 2).then_some(q)
}

/// `d_G(r, ·)` under the graph's own weights, as ws-q computes it.
fn distances_from(g: &Graph, r: NodeId) -> Vec<u32> {
    if g.is_weighted() {
        DijkstraWorkspace::new().run(g, r).to_vec()
    } else {
        bfs_distances(g, r)
    }
}

/// `h_Q` and, per vertex, whether `Q` reaches it: the minimum over
/// per-source hop BFS runs (BFS ignores weights), computed independently
/// of the solver's own multi-source BFS.
fn query_hops(g: &Graph, q: &[NodeId]) -> (u32, Vec<bool>) {
    let mut hops = vec![INF_DIST; g.num_nodes()];
    for &s in q {
        for (h, d) in hops.iter_mut().zip(bfs_distances(g, s)) {
            *h = (*h).min(d);
        }
    }
    let h_q = hops
        .iter()
        .copied()
        .filter(|&h| h != INF_DIST)
        .max()
        .unwrap();
    (h_q, hops.iter().map(|&h| h != INF_DIST).collect())
}

/// `ecc_r`: the largest `d_r` over the vertices `Q` reaches.
fn eccentricity(dist_r: &[u32], reached: &[bool]) -> u32 {
    dist_r
        .iter()
        .zip(reached)
        .filter(|&(_, &seen)| seen)
        .map(|(&d, _)| d)
        .max()
        .unwrap()
}

/// The grid points of root `r` that the certificate accepts.
fn certified_lambdas(g: &Graph, q: &[NodeId], r: NodeId, beta: f64) -> Vec<f64> {
    let (h_q, reached) = query_hops(g, q);
    let ecc_r = eccentricity(&distances_from(g, r), &reached);
    lambda_grid(g.num_nodes(), beta)
        .into_iter()
        .filter(|&l| lexicographic_regime(l, h_q, ecc_r))
        .collect()
}

/// (a): at every certified λ of every root, a fresh Mehlhorn call returns
/// the tree of the root's first certified λ. Returns how many later λ
/// were compared.
fn check_certified_trees(g: &Graph, q: &[NodeId]) -> Result<usize, TestCaseError> {
    let mut compared = 0;
    for &r in q {
        let dist_r = distances_from(g, r);
        let tree_at = |lambda: f64| {
            mehlhorn_steiner(g, q, |u: NodeId, v: NodeId| {
                lambda + dist_r[u as usize].max(dist_r[v as usize]) as f64 / lambda
            })
            .unwrap()
        };
        let lambdas = certified_lambdas(g, q, r, 1.0);
        let Some((&first, rest)) = lambdas.split_first() else {
            continue;
        };
        let expect = tree_at(first);
        for &lambda in rest {
            let got = tree_at(lambda);
            prop_assert_eq!(
                (&got.nodes, &got.edges),
                (&expect.nodes, &expect.edges),
                "root {} λ {} vs first certified λ {}",
                r,
                lambda,
                first
            );
            compared += 1;
        }
    }
    Ok(compared)
}

/// One candidate record: root, λ bits, size, `A(H, r)` and W.
type Record = (NodeId, u64, usize, u64, Option<u64>);

/// Algorithm 1 over the whole λ grid from the public stages, as the
/// benchmark's replay runs it: `mehlhorn_steiner`, `adjust_distances_with`
/// over [`canonical_parent`], `objective_a`, then Remark 1's selection.
/// Roots follow `cfg.roots`; a root outside `Q` joins the terminals, and
/// one outside Q's component is skipped. Returns the candidate records
/// and the solution's connector, W, root and λ.
fn full_grid(
    g: &Graph,
    q: &[NodeId],
    cfg: &WsqConfig,
) -> (Vec<Record>, Vec<NodeId>, u64, NodeId, f64) {
    let lambdas = lambda_grid(g.num_nodes(), cfg.beta);
    let roots: Vec<NodeId> = match cfg.roots {
        RootPolicy::QueryOnly => q.to_vec(),
        RootPolicy::AllVertices => g.nodes().collect(),
    };
    let mut all: Vec<(Record, Vec<NodeId>)> = Vec::new();
    for r in roots {
        let dist_r = distances_from(g, r);
        if dist_r[q[0] as usize] == INF_DIST {
            continue;
        }
        let mut terminals = q.to_vec();
        terminals.push(r);
        for &lambda in &lambdas {
            let weight = |u: NodeId, v: NodeId| {
                lambda + dist_r[u as usize].max(dist_r[v as usize]) as f64 / lambda
            };
            let tree = mehlhorn_steiner(g, &terminals, weight).unwrap();
            let adjusted =
                adjust_distances_with(g, &tree, r, &dist_r, |v| canonical_parent(g, &dist_r, v));
            let a = objective_a(g, &adjusted.nodes, r).unwrap().unwrap();
            let nodes = adjusted.nodes;
            all.push(((r, lambda.to_bits(), nodes.len(), a, None), nodes));
        }
    }
    let min_a = all.iter().map(|(rec, _)| rec.3).min().unwrap();
    for (rec, nodes) in &mut all {
        if rec.3 <= 2 * min_a && nodes.len() <= cfg.wiener_exact_threshold {
            rec.4 = wiener::wiener_index(g.induced(nodes).unwrap().graph());
        }
    }
    let mut best: Option<&(Record, Vec<NodeId>)> = None;
    for cand in &all {
        let (rec, _) = cand;
        let better = match best {
            None => true,
            Some((cur, _)) => match (rec.4, cur.4) {
                (Some(a), Some(b)) => a < b,
                (Some(a), None) => a < cur.3,
                (None, Some(b)) => rec.3 / 2 < b && rec.3 < cur.3,
                (None, None) => rec.3 < cur.3,
            },
        };
        if better {
            best = Some(cand);
        }
    }
    let (best_rec, best_nodes) = best.unwrap().clone();
    let w = match best_rec.4 {
        Some(w) => w,
        None => wiener::wiener_index(g.induced(&best_nodes).unwrap().graph()).unwrap(),
    };
    let records = all.into_iter().map(|(rec, _)| rec).collect();
    (
        records,
        best_nodes,
        w,
        best_rec.0,
        f64::from_bits(best_rec.1),
    )
}

fn records_of(sol: &WsqSolution) -> Vec<Record> {
    sol.trace
        .iter()
        .map(|c| (c.root, c.lambda.to_bits(), c.size, c.a_value, c.wiener))
        .collect()
}

/// (b): the solver, reuse and all, equals the full-grid reference.
fn check_against_full_grid(g: &Graph, q: &[NodeId]) -> Result<(), TestCaseError> {
    check_roots_against_full_grid(g, q, RootPolicy::QueryOnly)
}

fn check_roots_against_full_grid(
    g: &Graph,
    q: &[NodeId],
    roots: RootPolicy,
) -> Result<(), TestCaseError> {
    let cfg = WsqConfig {
        keep_trace: true,
        roots,
        ..WsqConfig::default()
    };
    let sol = WienerSteiner::with_config(g, cfg.clone()).solve(q).unwrap();
    let (records, nodes, w, root, lambda) = full_grid(g, q, &cfg);
    prop_assert_eq!(records_of(&sol), records);
    prop_assert_eq!(sol.num_candidates, sol.trace.len());
    prop_assert_eq!(sol.connector.vertices(), nodes.as_slice());
    prop_assert_eq!(sol.wiener_index, w);
    prop_assert_eq!(
        (sol.best_root, sol.best_lambda.to_bits()),
        (root, lambda.to_bits())
    );
    Ok(())
}

/// `(steiner_calls, steiner_reused, candidates)` of a traced solve.
fn sweep_counters(g: &Graph, q: &[NodeId], cfg: WsqConfig) -> (u64, u64, u64) {
    let recorder = TraceRecorder::new();
    let cfg = WsqConfig {
        trace: TraceContext::attached(recorder.clone(), NO_PARENT),
        ..cfg
    };
    WienerSteiner::with_config(g, cfg).solve(q).unwrap();
    let spans = recorder.finish();
    let sweep = spans.iter().find(|s| s.name == "root_sweep").unwrap();
    let counter = |name: &str| {
        sweep
            .counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
            .unwrap()
    };
    (
        counter("steiner_calls"),
        counter("steiner_reused"),
        counter("candidates"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) and (b) over ER/BA/SBM, unweighted and `wba`-weighted,
    /// degree-ordered or not, `|Q|` in `2..=16`.
    #[test]
    fn reuse_matches_fresh_calls_and_the_full_grid(
        family in 0usize..3,
        n in 40usize..320,
        seed in any::<u64>(),
        max_weight in 1u32..9,
        ordered in any::<bool>(),
        k in 2usize..17,
    ) {
        let g = family_graph(family, n, seed, max_weight, ordered);
        let Some(q) = pick_query(&g, seed ^ 0x5eed, k) else {
            return Ok(());
        };
        check_certified_trees(&g, &q)?;
        check_against_full_grid(&g, &q)?;
    }
}

/// The property above is not vacuous: its families certify and reuse
/// often, weighted draws included.
#[test]
fn families_reach_the_certified_regime() {
    for max_weight in [1, 8] {
        let (mut compared, mut reused) = (0, 0);
        for seed in 0..6u64 {
            let g = family_graph(seed as usize % 3, 300, seed, max_weight, seed % 2 == 0);
            let Some(q) = pick_query(&g, seed, 6) else {
                continue;
            };
            compared += check_certified_trees(&g, &q).unwrap();
            check_against_full_grid(&g, &q).unwrap();
            reused += sweep_counters(&g, &q, WsqConfig::default()).1;
        }
        assert!(compared > 0, "max_weight {max_weight}: nothing certified");
        assert_eq!(reused, compared as u64, "max_weight {max_weight}");
    }
}

/// Every vertex as a root: a root outside `Q` joins the terminals, which
/// can only lower the hop distances `h_Q` bounds, so the certificate
/// still holds; roots outside Q's component are skipped.
#[test]
fn all_vertex_roots_match_the_full_grid() {
    let mut reused = 0;
    for (family, seed, max_weight) in [(0, 3, 1), (1, 4, 1), (2, 5, 1), (1, 6, 8), (2, 7, 5)] {
        let g = family_graph(family, 70, seed, max_weight, seed % 2 == 0);
        let q = pick_query(&g, seed, 4).unwrap();
        check_roots_against_full_grid(&g, &q, RootPolicy::AllVertices).unwrap();
        let cfg = WsqConfig {
            roots: RootPolicy::AllVertices,
            ..WsqConfig::default()
        };
        reused += sweep_counters(&g, &q, cfg).1;
    }
    assert!(reused > 0);
}

/// On karate with `Q = {0, 33}`, `h_Q = 2`; root 0
/// has `ecc_r = 3`, so `B_r = 15` and λ ∈ {4, 8} certify, while root 33
/// (`ecc_r = 4`, `B_r = 20`) certifies only λ = 8. One call is reused.
#[test]
fn karate_certifies_the_top_of_the_grid() {
    let g = karate_club();
    let q = [0, 33];
    let (h_q, reached) = query_hops(&g, &q);
    assert_eq!(h_q, 2);
    assert_eq!(eccentricity(&distances_from(&g, 0), &reached), 3);
    assert_eq!(certified_lambdas(&g, &q, 0, 1.0), vec![4.0, 8.0]);
    assert_eq!(certified_lambdas(&g, &q, 33, 1.0), vec![8.0]);
    assert_eq!(sweep_counters(&g, &q, WsqConfig::default()), (9, 1, 10));
    assert_eq!(check_certified_trees(&g, &q).unwrap(), 1);
}

/// (c): grids without two powers of two and the other subroutines run
/// every call, on an instance where the default configuration reuses.
#[test]
fn other_grids_and_subroutines_reuse_nothing() {
    let g = family_graph(1, 300, 7, 1, false);
    let q = normalize_query(&g, &[3, 41, 150, 222, 299]).unwrap();
    let (calls, reused, candidates) = sweep_counters(&g, &q, WsqConfig::default());
    assert!(reused > 0);
    assert_eq!(calls + reused, candidates);
    for cfg in [
        WsqConfig {
            beta: 0.5,
            ..WsqConfig::default()
        },
        WsqConfig {
            steiner: SteinerAlgorithm::KouMarkowskyBerman,
            ..WsqConfig::default()
        },
        WsqConfig {
            steiner: SteinerAlgorithm::TakahashiMatsuyama,
            ..WsqConfig::default()
        },
        WsqConfig {
            node_weighted_steiner: true,
            ..WsqConfig::default()
        },
    ] {
        let what = format!("{:?} β={}", cfg.steiner, cfg.beta);
        let (calls, reused, candidates) = sweep_counters(&g, &q, cfg);
        assert_eq!(reused, 0, "{what}");
        assert_eq!(calls, candidates, "{what}");
    }
}

/// Saturated distances count at face value: when the weighted distances
/// from a root reach `INF_DIST` inside Q's component, that root certifies
/// nothing, and the solve still matches the full grid.
#[test]
fn saturated_distances_certify_nothing() {
    // Q = {0, 1} with light leaves, plus a tail 0–2–…–6 of maximal
    // weights whose far end saturates.
    let heavy = mwc_graph::MAX_EDGE_WEIGHT;
    let mut edges: Vec<(NodeId, NodeId, u32)> = vec![(0, 1, 1), (0, 2, heavy)];
    edges.extend((2..6).map(|i| (i, i + 1, heavy)));
    edges.extend((7..70).map(|v| (v % 2, v, 1)));
    let g = Graph::from_weighted_edges(70, &edges).unwrap();
    let q = [0, 1];
    assert_eq!(distances_from(&g, 0)[6], INF_DIST, "the tail saturates");
    for r in q {
        assert!(certified_lambdas(&g, &q, r, 1.0).is_empty(), "root {r}");
    }
    assert_eq!(sweep_counters(&g, &q, WsqConfig::default()).1, 0);
    check_against_full_grid(&g, &q).unwrap();
}
