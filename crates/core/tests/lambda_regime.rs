//! Differential suite for ws-q's λ reuse.
//!
//! Each Mehlhorn run at a power-of-two λ also returns the larger λ at
//! which it provably repeats ([`Repeats`]), and Algorithm 1 copies a root's
//! last candidate to those λ instead of calling Steiner again. These tests
//! pin that certificate against fresh Mehlhorn calls and against the
//! lexicographic regime it replaced, and the whole solver against a
//! full-grid Algorithm 1 built from the public stages, record for record.

use proptest::prelude::*;

use mwc_core::adjust::adjust_distances_with;
use mwc_core::objective::objective_a;
use mwc_core::steiner::{
    lambda_steiner_with, mehlhorn_steiner, Repeats, SteinerAlgorithm, SteinerTree, SteinerWorkspace,
};
use mwc_core::wsq::{lambda_grid, normalize_query, RootPolicy};
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

/// The roots `cfg` sweeps that share Q's component, each with its
/// terminals (`Q`, plus the root when it lies outside `Q`) and distances.
fn roots_of(g: &Graph, q: &[NodeId], roots: RootPolicy) -> Vec<(NodeId, Vec<NodeId>, Vec<u32>)> {
    let roots: Vec<NodeId> = match roots {
        RootPolicy::QueryOnly => q.to_vec(),
        RootPolicy::AllVertices => g.nodes().collect(),
    };
    roots
        .into_iter()
        .filter_map(|r| {
            let dist_r = distances_from(g, r);
            let mut terminals = q.to_vec();
            terminals.push(r);
            (dist_r[q[0] as usize] != INF_DIST).then_some((r, terminals, dist_r))
        })
        .collect()
}

/// (a) for one root: the sweep as ws-q runs it, λ ascending, calling
/// Steiner unless the last call's certificate covers λ. At every covered
/// λ a fresh `mehlhorn_steiner` call must return the last call's `nodes`
/// and `edges`. Returns, per grid point, whether it was reused.
fn check_root_sweep(
    g: &Graph,
    terminals: &[NodeId],
    dist_r: &[u32],
    lambdas: &[f64],
) -> Result<Vec<bool>, TestCaseError> {
    let m = |u: NodeId, v: NodeId| dist_r[u as usize].max(dist_r[v as usize]);
    let mut ws = SteinerWorkspace::new();
    let mut last: Option<(f64, SteinerTree, Repeats)> = None;
    let mut reused = Vec::with_capacity(lambdas.len());
    for &lambda in lambdas {
        let fresh = mehlhorn_steiner(g, terminals, |u: NodeId, v: NodeId| {
            lambda + m(u, v) as f64 / lambda
        })
        .unwrap();
        if let Some((at, tree, repeats)) = &last {
            if repeats.covers(lambda) {
                prop_assert_eq!(
                    (&fresh.nodes, &fresh.edges),
                    (&tree.nodes, &tree.edges),
                    "λ {} repeats the call at λ {}",
                    lambda,
                    at
                );
                reused.push(true);
                continue;
            }
        }
        let (tree, repeats) =
            lambda_steiner_with(&mut ws, SteinerAlgorithm::Mehlhorn, g, terminals, lambda, m)
                .unwrap();
        prop_assert_eq!(
            &tree,
            &fresh,
            "the certifying run at λ {} is Mehlhorn",
            lambda
        );
        last = Some((lambda, tree, repeats));
        reused.push(false);
    }
    Ok(reused)
}

/// The lexicographic regime the certificate replaced, kept as a
/// reference: `λ = 2^t` with `t ≥ 0`, `λ² > B_r = (2·h_Q + 1)·ecc_r`,
/// and `(2·h_Q + 1)·λ² + B_r < 2^53`.
fn regime_certifies(lambda: f64, h_q: u32, ecc_r: u32) -> bool {
    let dyadic = lambda >= 1.0 && lambda.to_bits() & ((1 << 52) - 1) == 0;
    if !dyadic || lambda >= (1u64 << 27) as f64 {
        return false;
    }
    let lambda_sq = (lambda as u128).pow(2);
    let k_max = 2 * h_q as u128 + 1;
    let bound = k_max * ecc_r as u128;
    lambda_sq > bound && k_max * lambda_sq + bound < 1 << 53
}

/// `h_Q`, the largest hop distance from `Q` to a vertex it reaches, and
/// per vertex whether `Q` reaches it.
fn query_hops(g: &Graph, q: &[NodeId]) -> (u32, Vec<bool>) {
    let mut hops = vec![INF_DIST; g.num_nodes()];
    for &s in q {
        for (h, d) in hops.iter_mut().zip(bfs_distances(g, s)) {
            *h = (*h).min(d);
        }
    }
    let h_q = hops.iter().copied().filter(|&h| h != INF_DIST).max();
    (h_q.unwrap(), hops.iter().map(|&h| h != INF_DIST).collect())
}

/// `ecc_r`: the largest `d_r` over the vertices `Q` reaches.
fn eccentricity(dist_r: &[u32], reached: &[bool]) -> u32 {
    let reached = dist_r.iter().zip(reached).filter(|&(_, &seen)| seen);
    reached.map(|(&d, _)| d).max().unwrap()
}

/// Per root: how many λ the regime reused (every certified λ after the
/// first).
fn regime_reuse(g: &Graph, q: &[NodeId], dist_r: &[u32], lambdas: &[f64]) -> Vec<bool> {
    let (h_q, reached) = query_hops(g, q);
    let ecc_r = eccentricity(dist_r, &reached);
    let mut seen = false;
    lambdas
        .iter()
        .map(|&lambda| {
            let certified = regime_certifies(lambda, h_q, ecc_r);
            let reused = certified && seen;
            seen |= certified;
            reused
        })
        .collect()
}

/// (a) for every root, plus the regime check: every λ the regime reused
/// is reused again. Returns `(reused, reused by the regime)`.
fn check_sweeps(g: &Graph, q: &[NodeId], roots: RootPolicy) -> Result<(u64, u64), TestCaseError> {
    let lambdas = lambda_grid(g.num_nodes(), 1.0);
    let (mut reused, mut regime) = (0, 0);
    for (r, terminals, dist_r) in roots_of(g, q, roots) {
        let got = check_root_sweep(g, &terminals, &dist_r, &lambdas)?;
        let old = regime_reuse(g, q, &dist_r, &lambdas);
        for ((&lambda, &now), &before) in lambdas.iter().zip(&got).zip(&old) {
            prop_assert!(now || !before, "root {} λ {}: regime reuse lost", r, lambda);
        }
        reused += got.iter().filter(|&&b| b).count() as u64;
        regime += old.iter().filter(|&&b| b).count() as u64;
    }
    Ok((reused, regime))
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
    let mut all: Vec<(Record, Vec<NodeId>)> = Vec::new();
    for (r, terminals, dist_r) in roots_of(g, q, cfg.roots) {
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

/// (a), the regime check, and (b) on one instance; the solver must reuse
/// exactly what the sweep replica does. Returns `(reused, regime)`.
fn check_instance(g: &Graph, q: &[NodeId], roots: RootPolicy) -> Result<(u64, u64), TestCaseError> {
    let (reused, regime) = check_sweeps(g, q, roots)?;
    check_roots_against_full_grid(g, q, roots)?;
    let cfg = WsqConfig {
        roots,
        ..WsqConfig::default()
    };
    let (calls, solver_reused, candidates) = sweep_counters(g, q, cfg);
    prop_assert_eq!(solver_reused, reused);
    prop_assert_eq!(calls + solver_reused, candidates);
    Ok((reused, regime))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over ER/BA/SBM, unweighted and `wba`-weighted, degree-ordered or
    /// not, `|Q|` in `2..=16`.
    #[test]
    fn reuse_matches_fresh_calls_the_regime_and_the_full_grid(
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
        check_instance(&g, &q, RootPolicy::QueryOnly)?;
    }
}

/// The property above is not vacuous: its families reuse often, weighted
/// draws included, and more than the regime did.
#[test]
fn families_reuse_beyond_the_regime() {
    for max_weight in [1, 8] {
        let (mut reused, mut regime) = (0, 0);
        for seed in 0..6u64 {
            let g = family_graph(seed as usize % 3, 300, seed, max_weight, seed % 2 == 0);
            let Some(q) = pick_query(&g, seed, 6) else {
                continue;
            };
            let (now, before) = check_instance(&g, &q, RootPolicy::QueryOnly).unwrap();
            reused += now;
            regime += before;
        }
        assert!(
            regime > 0,
            "max_weight {max_weight}: the regime reused nothing"
        );
        assert!(
            reused > regime,
            "max_weight {max_weight}: {reused} ≤ {regime}"
        );
    }
}

/// Every vertex as a root: a root outside `Q` joins the terminals, and
/// roots outside Q's component are skipped.
#[test]
fn all_vertex_roots_match_the_full_grid() {
    let mut reused = 0;
    for (family, seed, max_weight) in [(0, 3, 1), (1, 4, 1), (2, 5, 1), (1, 6, 8), (2, 7, 5)] {
        let g = family_graph(family, 70, seed, max_weight, seed % 2 == 0);
        let q = pick_query(&g, seed, 4).unwrap();
        reused += check_instance(&g, &q, RootPolicy::AllVertices).unwrap().0;
    }
    assert!(reused > 0);
}

/// On karate with `Q = {0, 33}` the regime reused one candidate (root 0,
/// λ = 8: `h_Q = 2`, `ecc_0 = 3`, `B_0 = 15`). Each root's call at
/// λ = 1/2 already certifies the rest of the grid, so the solve makes
/// two Steiner calls.
#[test]
fn karate_certifies_the_top_of_the_grid() {
    let g = karate_club();
    let q = [0, 33];
    assert_eq!(check_sweeps(&g, &q, RootPolicy::QueryOnly).unwrap(), (8, 1));
    assert_eq!(sweep_counters(&g, &q, WsqConfig::default()), (2, 8, 10));
    check_against_full_grid(&g, &q).unwrap();
}

/// Grids without powers of two and the other subroutines run every call,
/// on an instance where the default configuration reuses.
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
    let dist_r = distances_from(&g, q[0]);
    let m = |u: NodeId, v: NodeId| dist_r[u as usize].max(dist_r[v as usize]);
    let mut ws = SteinerWorkspace::new();
    for (algorithm, lambda) in [
        (SteinerAlgorithm::Mehlhorn, 1.5),
        (SteinerAlgorithm::KouMarkowskyBerman, 1.0),
        (SteinerAlgorithm::TakahashiMatsuyama, 1.0),
    ] {
        let (_, repeats) = lambda_steiner_with(&mut ws, algorithm, &g, &q, lambda, m).unwrap();
        assert_eq!(repeats, Repeats::NONE, "{algorithm:?} at λ {lambda}");
    }
}

/// Saturated distances count at face value: the tail's `INF_DIST`
/// distances made the regime certify nothing, but every sum the runs
/// compare stays exact, so the per-run certificate still reuses, and the
/// solve still matches the full grid.
#[test]
fn saturated_distances_stay_exact() {
    // Q = {0, 1} with light leaves, plus a tail 0–2–…–6 of maximal
    // weights whose far end saturates.
    let heavy = mwc_graph::MAX_EDGE_WEIGHT;
    let mut edges: Vec<(NodeId, NodeId, u32)> = vec![(0, 1, 1), (0, 2, heavy)];
    edges.extend((2..6).map(|i| (i, i + 1, heavy)));
    edges.extend((7..70).map(|v| (v % 2, v, 1)));
    let g = Graph::from_weighted_edges(70, &edges).unwrap();
    let q = [0, 1];
    assert_eq!(distances_from(&g, 0)[6], INF_DIST, "the tail saturates");
    assert_eq!(
        check_sweeps(&g, &q, RootPolicy::QueryOnly).unwrap(),
        (10, 0)
    );
    assert_eq!(sweep_counters(&g, &q, WsqConfig::default()), (2, 10, 12));
    check_against_full_grid(&g, &q).unwrap();
}

/// Far above the grid the keys outgrow 2^53. Runs at `λ = 2^14 … 2^26`
/// with `m` in `0..4` (so that many paths differ by a small `M`, which
/// rounding would tie) cover only λ' whose keys stay exact, and every λ'
/// they cover really repeats.
#[test]
fn certificates_stop_where_keys_stop_being_exact() {
    let (mut covered, mut refused) = (0, 0);
    let mut ws = SteinerWorkspace::new();
    for seed in 0..12u64 {
        let g = family_graph(seed as usize % 3, 150, seed, 1, seed % 2 == 1);
        let Some(q) = pick_query(&g, seed, 8) else {
            continue;
        };
        let level: Vec<u32> = (0..g.num_nodes() as u64)
            .map(|v| ((v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed) >> 40) as u32 % 4)
            .collect();
        let m = |u: NodeId, v: NodeId| level[u as usize].max(level[v as usize]);
        for t in 14..=26 {
            let lambda = (1u64 << t) as f64;
            let (tree, repeats) =
                lambda_steiner_with(&mut ws, SteinerAlgorithm::Mehlhorn, &g, &q, lambda, m)
                    .unwrap();
            for t_next in t + 1..=27 {
                let next = (1u64 << t_next) as f64;
                if !repeats.covers(next) {
                    refused += 1;
                    continue;
                }
                let fresh =
                    mehlhorn_steiner(&g, &q, |u: NodeId, v: NodeId| next + m(u, v) as f64 / next)
                        .unwrap();
                assert_eq!(
                    (&fresh.nodes, &fresh.edges),
                    (&tree.nodes, &tree.edges),
                    "seed {seed}: λ = 2^{t_next} repeats 2^{t}"
                );
                covered += 1;
            }
        }
    }
    assert!(
        covered > 0 && refused > 0,
        "covered {covered}, refused {refused}"
    );
}

/// Two routes between terminals 0 and 1: 0–2–1 (two edges, `M = 20`) and
/// 0–3–4–1 (three edges, `M = 3`). At λ = 1 the longer route wins, 6
/// against 22, and no Voronoi label is ever beaten by a path two hops
/// shorter, so only the crossing table's decision bounds the run: the
/// longer route keeps winning while `λ'² < 20 − 3`, up to λ' = 4, and
/// loses from λ' = 8 on.
#[test]
fn crossing_decisions_bound_the_run() {
    let g = Graph::from_edges(5, &[(0, 2), (2, 1), (0, 3), (3, 4), (4, 1)]).unwrap();
    let m = |u: NodeId, v: NodeId| if u == 2 || v == 2 { 10 } else { 1 };
    let mut ws = SteinerWorkspace::new();
    let (tree, repeats) =
        lambda_steiner_with(&mut ws, SteinerAlgorithm::Mehlhorn, &g, &[0, 1], 1.0, m).unwrap();
    assert_eq!(tree.nodes, vec![0, 1, 3, 4]);
    let covered: Vec<f64> = [2.0, 4.0, 8.0, 16.0]
        .into_iter()
        .filter(|&l| repeats.covers(l))
        .collect();
    assert_eq!(covered, vec![2.0, 4.0]);
    for (lambda, nodes) in [(4.0, vec![0, 1, 3, 4]), (8.0, vec![0, 1, 2])] {
        let fresh = mehlhorn_steiner(&g, &[0, 1], |u: NodeId, v: NodeId| {
            lambda + m(u, v) as f64 / lambda
        })
        .unwrap();
        assert_eq!(fresh.nodes, nodes, "λ = {lambda}");
    }
}

/// Hop counts are kept in 16 bits: on a path longer than that, labels
/// saturate and the run certifies nothing, though its tree is still
/// Mehlhorn's.
#[test]
fn saturated_hop_counts_certify_nothing() {
    let n = 70_000u32;
    let edges: Vec<(NodeId, NodeId)> = (0..n - 1).map(|v| (v, v + 1)).collect();
    let g = Graph::from_edges(n as usize, &edges).unwrap();
    let m = |u: NodeId, v: NodeId| u.max(v);
    let mut ws = SteinerWorkspace::new();
    let (tree, repeats) =
        lambda_steiner_with(&mut ws, SteinerAlgorithm::Mehlhorn, &g, &[0, 1], 1.0, m).unwrap();
    assert_eq!(repeats, Repeats::NONE);
    let fresh = mehlhorn_steiner(&g, &[0, 1], |u: NodeId, v: NodeId| 1.0 + m(u, v) as f64).unwrap();
    assert_eq!(tree, fresh);
}
