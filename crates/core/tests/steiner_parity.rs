//! Parity suite for the workspace-based Mehlhorn Steiner layer.
//!
//! `mehlhorn_steiner_with` settles vertices through a radix queue, fills
//! the crossing table at settlement and expands paths over stamped arrays;
//! ws-q's certifying `lambda_steiner_with` reads its costs from per-vertex
//! potentials and settles on an integer bucket ring when every edge is a
//! small whole number of units. None of that may change an answer: every
//! test here pins its trees — vertex set, edge list and the bit pattern of
//! `total_weight` — and its errors against [`reference::mehlhorn_steiner`],
//! the binary-heap implementation with a separate crossing-edge scan and
//! hash-set expansion that it replaced.

use proptest::prelude::*;

use mwc_core::steiner::{
    lambda_steiner_with, mehlhorn_steiner_with, SteinerAlgorithm, SteinerTree, SteinerWorkspace,
};
use mwc_core::wsq::lambda_grid;
use mwc_core::{Result, WsqConfig};
use mwc_graph::traversal::bfs::bfs_distances;
use mwc_graph::traversal::dijkstra::DijkstraWorkspace;
use mwc_graph::{Graph, NodeId};

/// The binary-heap Mehlhorn implementation, kept as the parity oracle.
mod reference {
    use mwc_core::steiner::{kruskal, SteinerTree, WeightedEdge};
    use mwc_core::{CoreError, Result};
    use mwc_graph::hash::{FxHashMap, FxHashSet};
    use mwc_graph::traversal::dijkstra::multi_source_dijkstra;
    use mwc_graph::{Graph, NodeId, NO_NODE};

    pub fn mehlhorn_steiner<W>(g: &Graph, terminals: &[NodeId], weight: W) -> Result<SteinerTree>
    where
        W: Fn(NodeId, NodeId) -> f64,
    {
        let mut terms: Vec<NodeId> = terminals.to_vec();
        terms.sort_unstable();
        terms.dedup();
        if terms.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        for &t in &terms {
            g.check_node(t).map_err(CoreError::from)?;
        }
        if terms.len() == 1 {
            return Ok(SteinerTree::singleton(terms[0]));
        }

        // Step 1: Voronoi partition around the terminals.
        let voronoi = multi_source_dijkstra(g, &terms, &weight);

        // Step 2: cheapest crossing edge per terminal pair, first strict
        // minimum of an ascending scan.
        let mut crossing: FxHashMap<(u32, u32), (f64, NodeId, NodeId)> = FxHashMap::default();
        for u in g.nodes() {
            let su = voronoi.source_index[u as usize];
            if su == u32::MAX {
                continue;
            }
            for &v in g.neighbors(u) {
                if v <= u {
                    continue;
                }
                let sv = voronoi.source_index[v as usize];
                if sv == u32::MAX || sv == su {
                    continue;
                }
                let w = voronoi.dist[u as usize] + weight(u, v) + voronoi.dist[v as usize];
                let key = (su.min(sv), su.max(sv));
                use std::collections::hash_map::Entry;
                match crossing.entry(key) {
                    Entry::Occupied(mut e) => {
                        if w < e.get().0 {
                            e.insert((w, u, v));
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert((w, u, v));
                    }
                }
            }
        }

        // Step 3: MST over the terminal distance graph.
        let mut term_edges: Vec<WeightedEdge> = crossing
            .iter()
            .map(|(&(a, b), &(w, _, _))| (w, a, b))
            .collect();
        let (term_mst, _) = kruskal(terms.len(), &mut term_edges);
        if term_mst.len() + 1 != terms.len() {
            return Err(CoreError::QueryNotConnectable);
        }

        // Step 4: expand each terminal-MST edge into its graph path.
        let mut sub_nodes: FxHashSet<NodeId> = terms.iter().copied().collect();
        let mut sub_edges: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
        for &(_, a, b) in &term_mst {
            let &(_, u, v) = crossing
                .get(&(a.min(b), a.max(b)))
                .expect("terminal MST edge has a crossing entry");
            sub_nodes.insert(u);
            sub_nodes.insert(v);
            sub_edges.insert((u.min(v), u.max(v)));
            for mut cur in [u, v] {
                while voronoi.parent[cur as usize] != NO_NODE {
                    let p = voronoi.parent[cur as usize];
                    sub_nodes.insert(cur);
                    sub_nodes.insert(p);
                    sub_edges.insert((cur.min(p), cur.max(p)));
                    cur = p;
                }
            }
        }

        // Steps 5–6: MST of the expansion, then leaf pruning.
        mst_then_prune(&terms, sub_nodes, &sub_edges, &weight)
    }

    fn mst_then_prune<W>(
        terms: &[NodeId],
        sub_nodes: FxHashSet<NodeId>,
        sub_edges: &FxHashSet<(NodeId, NodeId)>,
        weight: W,
    ) -> Result<SteinerTree>
    where
        W: Fn(NodeId, NodeId) -> f64,
    {
        let mut nodes: Vec<NodeId> = sub_nodes.into_iter().collect();
        nodes.sort_unstable();
        let local: FxHashMap<NodeId, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut local_edges: Vec<WeightedEdge> = sub_edges
            .iter()
            .map(|&(u, v)| (weight(u, v), local[&u], local[&v]))
            .collect();
        let (sub_mst, _) = kruskal(nodes.len(), &mut local_edges);

        let k = nodes.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); k];
        for &(_, ul, vl) in &sub_mst {
            adj[ul as usize].push(vl);
            adj[vl as usize].push(ul);
        }
        let mut degree: Vec<u32> = adj.iter().map(|a| a.len() as u32).collect();
        let mut removed = vec![false; k];
        let is_terminal: Vec<bool> = nodes
            .iter()
            .map(|v| terms.binary_search(v).is_ok())
            .collect();
        let mut stack: Vec<u32> = (0..k as u32)
            .filter(|&v| degree[v as usize] <= 1 && !is_terminal[v as usize])
            .collect();
        while let Some(v) = stack.pop() {
            if removed[v as usize] || is_terminal[v as usize] || degree[v as usize] > 1 {
                continue;
            }
            removed[v as usize] = true;
            for &nb in &adj[v as usize] {
                if !removed[nb as usize] {
                    degree[nb as usize] -= 1;
                    if degree[nb as usize] <= 1 && !is_terminal[nb as usize] {
                        stack.push(nb);
                    }
                }
            }
        }
        let mut out_nodes = Vec::with_capacity(k);
        for (i, &v) in nodes.iter().enumerate() {
            if !removed[i] {
                out_nodes.push(v);
            }
        }
        let mut out_edges = Vec::new();
        let mut total = 0.0f64;
        for &(w, ul, vl) in &sub_mst {
            if !removed[ul as usize] && !removed[vl as usize] {
                let (u, v) = (nodes[ul as usize], nodes[vl as usize]);
                out_edges.push((u.min(v), u.max(v)));
                total += w;
            }
        }
        Ok(SteinerTree {
            nodes: out_nodes,
            edges: out_edges,
            total_weight: total,
        })
    }
}

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
/// Barabási–Albert or a planted partition — optionally `wba`-weighted and
/// optionally relabeled hub-first. Sparse ER and SBM draws are often
/// disconnected, which exercises the error path.
fn family_graph(family: usize, n: usize, seed: u64, max_weight: u32, ordered: bool) -> Graph {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let base = match family {
        0 => mwc_graph::generators::gnp(n, 0.03, &mut rng),
        1 => mwc_graph::generators::barabasi_albert(n, 2, &mut rng),
        _ => {
            let third = n / 3;
            mwc_graph::generators::planted_partition(
                &[third, third, n - 2 * third],
                0.12,
                0.005,
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

/// `d_G(r, ·)` under the graph's own weights, as ws-q computes it.
fn distances_from(g: &Graph, r: NodeId) -> Vec<u32> {
    if g.is_weighted() {
        DijkstraWorkspace::new().run(g, r).to_vec()
    } else {
        bfs_distances(g, r)
    }
}

fn same(a: &Result<SteinerTree>, b: &Result<SteinerTree>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y && x.total_weight.to_bits() == y.total_weight.to_bits(),
        (Err(x), Err(y)) => format!("{x:?}") == format!("{y:?}"),
        _ => false,
    }
}

/// Runs both implementations on one instance; `Err` describes a mismatch.
fn check<W>(
    ws: &mut SteinerWorkspace,
    g: &Graph,
    terms: &[NodeId],
    weight: W,
    what: &str,
) -> std::result::Result<(), TestCaseError>
where
    W: Fn(NodeId, NodeId) -> f64,
{
    let got = mehlhorn_steiner_with(ws, g, terms, &weight);
    let expect = reference::mehlhorn_steiner(g, terms, &weight);
    prop_assert!(
        same(&got, &expect),
        "{what}, terminals {terms:?}: got {got:?}, reference {expect:?}"
    );
    if let Ok(t) = &got {
        prop_assert!(t.validate(), "{what}: not a tree");
    }
    Ok(())
}

/// ws-q's reweighting `λ + max(d_r(u), d_r(v))/λ` on one instance, as a
/// closure through `mehlhorn_steiner_with` and with `dist_r` as potentials
/// through `lambda_steiner_with`, both against the reference.
fn check_wsq(
    ws: &mut SteinerWorkspace,
    g: &Graph,
    terms: &[NodeId],
    dist_r: &[u32],
    lambda: f64,
    what: &str,
) -> std::result::Result<(), TestCaseError> {
    let weight =
        |u: NodeId, v: NodeId| lambda + dist_r[u as usize].max(dist_r[v as usize]) as f64 / lambda;
    let expect = reference::mehlhorn_steiner(g, terms, weight);
    let got = mehlhorn_steiner_with(ws, g, terms, weight);
    let certified = lambda_steiner_with(ws, SteinerAlgorithm::Mehlhorn, g, terms, lambda, dist_r)
        .map(|(tree, _)| tree);
    for (path, got) in [("closure", got), ("potentials", certified)] {
        prop_assert!(
            same(&got, &expect),
            "{what} ({path}), terminals {terms:?}: got {got:?}, reference {expect:?}"
        );
        if let Ok(t) = &got {
            prop_assert!(t.validate(), "{what} ({path}): not a tree");
        }
    }
    Ok(())
}

/// Every weight closure of the suite on one `(graph, terminals)` instance:
/// unit (maximal ties), zero, integer edge weights, and the ws-q
/// reweighting `λ + max(d_r(u), d_r(v))/λ` from every terminal root over
/// the whole λ grid, through both of its paths.
fn check_all_weights(
    ws: &mut SteinerWorkspace,
    g: &Graph,
    terms: &[NodeId],
) -> std::result::Result<(), TestCaseError> {
    check(ws, g, terms, |_, _| 1.0, "unit")?;
    check(ws, g, terms, |_, _| 0.0, "zero")?;
    check(ws, g, terms, |u, v| g.edge_weight(u, v) as f64, "integer")?;
    let mut roots: Vec<NodeId> = terms
        .iter()
        .copied()
        .filter(|&r| (r as usize) < g.num_nodes())
        .collect();
    roots.sort_unstable();
    roots.dedup();
    for &r in &roots {
        let dist_r = distances_from(g, r);
        for lambda in lambda_grid(g.num_nodes(), WsqConfig::default().beta) {
            check_wsq(
                ws,
                g,
                terms,
                &dist_r,
                lambda,
                &format!("ws-q root {r} λ {lambda}"),
            )?;
        }
    }
    Ok(())
}

fn pick_terminals(n: usize, seed: u64, k: usize) -> Vec<NodeId> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..k).map(|_| rng.gen_range(0..n as NodeId)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random families, weightings, layouts and terminal sets (duplicates
    /// and disconnected draws included), two graphs of different sizes
    /// per case through one workspace, with the generation optionally
    /// forced across its wrap between them.
    #[test]
    fn workspace_matches_reference(
        family in 0usize..3,
        n in 40usize..160,
        seed in any::<u64>(),
        max_weight in 1u32..24,
        ordered in any::<bool>(),
        k in 1usize..9,
        wrap in any::<bool>(),
    ) {
        let mut ws = SteinerWorkspace::new();
        let g = family_graph(family, n, seed, max_weight, ordered);
        let mut terms = pick_terminals(n, seed ^ 0x5eed, k);
        if k > 2 {
            terms.push(terms[0]); // a duplicate terminal
        }
        check_all_weights(&mut ws, &g, &terms)?;
        if wrap {
            ws.skip_to_generation_wrap();
        }
        let small_n = n / 3 + 2;
        let h = family_graph((family + 1) % 3, small_n, seed.rotate_left(7), max_weight, !ordered);
        check_all_weights(&mut ws, &h, &pick_terminals(small_n, seed ^ 0xfeed, k))?;
        // Back to the larger graph: stale stamps from either size must
        // read as unreached.
        check_all_weights(&mut ws, &g, &terms)?;
    }
}

#[test]
fn single_duplicate_and_disconnected_terminals() {
    let mut ws = SteinerWorkspace::new();
    // Two components: a 4-cycle and a path.
    let g =
        Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7)]).unwrap();
    for terms in [
        vec![2],
        vec![5, 5, 5],
        vec![0, 2, 2, 0],
        vec![1, 6],
        vec![0, 4, 7],
        vec![],
        vec![3, 99],
    ] {
        check_all_weights(&mut ws, &g, &terms).unwrap();
    }
    // Every root leaves the other component unreachable, and an
    // `INF_DIST` potential keeps a run off the bucket ring.
    assert_eq!(ws.ring_calls(), 0);
}

#[test]
fn one_workspace_across_many_sizes_and_a_generation_wrap() {
    let mut ws = SteinerWorkspace::new();
    let big = family_graph(1, 150, 1, 9, false);
    let tiny = family_graph(1, 12, 2, 9, false);
    // The first call stamps `big` with generation 1. Two calls on `tiny`
    // after the jump use up the last generations, so the sweep below
    // starts at generation 1 again over `big`'s leftover stamps.
    check(&mut ws, &big, &[0, 75, 149], |_, _| 1.0, "first").unwrap();
    ws.skip_to_generation_wrap();
    for _ in 0..2 {
        check(&mut ws, &tiny, &[0, 11], |_, _| 1.0, "before the wrap").unwrap();
    }
    for (i, n) in [150usize, 30, 90, 12, 150, 60].into_iter().enumerate() {
        for family in 0..3 {
            let g = family_graph(family, n, i as u64 * 31 + family as u64, 9, i % 2 == 0);
            let terms = pick_terminals(n, i as u64 + 7, 5);
            check_all_weights(&mut ws, &g, &terms).unwrap();
        }
    }
    assert!(ws.ring_calls() > 0, "no run took the bucket ring");
}

#[test]
fn large_terminal_sets_use_the_sparse_crossing_table() {
    // More terminals than the dense table admits, on a connected graph.
    let mut ws = SteinerWorkspace::new();
    let g = family_graph(1, 400, 3, 1, false);
    let terms: Vec<NodeId> = (0..400).step_by(2).collect();
    check(&mut ws, &g, &terms, |_, _| 1.0, "unit").unwrap();
    let dist_r = distances_from(&g, terms[0]);
    check_wsq(&mut ws, &g, &terms, &dist_r, 2.0, "ws-q").unwrap();
}
