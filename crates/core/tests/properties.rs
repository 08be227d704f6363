//! Property-based tests for the solver crate's theoretical guarantees.

use proptest::prelude::*;

use mwc_core::adjust::{adjust_distances, ALPHA};
use mwc_core::exact::BitGraph;
use mwc_core::objective::{objective_a_tilde, objective_b, optimal_lambda};
use mwc_core::steiner::mehlhorn_steiner;
use mwc_core::wsq::normalize_query;
use mwc_graph::traversal::bfs::{bfs_distances, bfs_parents};
use mwc_graph::wiener::wiener_index_of_subset;
use mwc_graph::{Graph, GraphBuilder, NodeId};

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n, any::<u64>()).prop_map(|(n, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_edge(rng.gen_range(0..v), v).unwrap();
        }
        for _ in 0..rng.gen_range(0..2 * n) {
            b.add_edge(rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId))
                .unwrap();
        }
        b.build()
    })
}

/// The hash-weighted twin of `g`, weights in `1..=max_weight` (the
/// service's `wba:` scheme).
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

fn pick_terminals(g: &Graph, seed: u64, max_k: usize) -> Vec<NodeId> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = g.num_nodes() as NodeId;
    let k = rng.gen_range(1..=max_k.min(g.num_nodes()));
    (0..k).map(|_| rng.gen_range(0..n)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Mehlhorn output is a valid tree spanning the terminals whose weight
    /// is at least the largest terminal-pair distance (any Steiner tree
    /// contains a path between the farthest pair).
    #[test]
    fn steiner_tree_structure(g in arb_connected_graph(40), seed in any::<u64>()) {
        let terminals = pick_terminals(&g, seed, 6);
        let tree = mehlhorn_steiner(&g, &terminals, |_, _| 1.0).unwrap();
        prop_assert!(tree.validate());
        for &t in &terminals {
            prop_assert!(tree.contains(t));
        }
        // Lower bound: weight >= eccentricity within the terminal set.
        let d0 = bfs_distances(&g, terminals[0]);
        let max_pair = terminals.iter().map(|&t| d0[t as usize]).max().unwrap();
        prop_assert!(tree.total_weight >= max_pair as f64);
        // Edges are graph edges.
        for &(u, v) in &tree.edges {
            prop_assert!(g.has_edge(u, v));
        }
    }

    /// For two terminals, Mehlhorn returns an exact shortest path.
    #[test]
    fn steiner_two_terminals_exact(g in arb_connected_graph(40), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes() as NodeId;
        let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
        prop_assume!(s != t);
        let tree = mehlhorn_steiner(&g, &[s, t], |_, _| 1.0).unwrap();
        let d = bfs_distances(&g, s);
        prop_assert_eq!(tree.total_weight, d[t as usize] as f64);
    }

    /// All four Lemma 2 properties of AdjustDistances.
    #[test]
    fn adjust_distances_lemma2(g in arb_connected_graph(60), seed in any::<u64>()) {
        let terminals = pick_terminals(&g, seed, 5);
        let tree = mehlhorn_steiner(&g, &terminals, |_, _| 1.0).unwrap();
        let root = terminals[0];
        let bfs = bfs_parents(&g, root);
        let out = adjust_distances(&g, &tree, root, &bfs.dist, &bfs.parent);
        prop_assert!(out.validate());
        // (a) superset
        for &v in &tree.nodes {
            prop_assert!(out.contains(v));
        }
        // (b) size growth
        prop_assert!(out.num_nodes() as f64 <= ALPHA * tree.num_nodes() as f64 + 1e-9);
        // (c) stretch: recompute distances inside the output tree.
        let adj = out.adjacency();
        let mut dist: std::collections::HashMap<NodeId, u32> = Default::default();
        dist.insert(root, 0);
        let mut queue = vec![root];
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            let du = dist[&u];
            for &v in &adj[&u] {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                    e.insert(du + 1);
                    queue.push(v);
                }
            }
        }
        for (&v, &dt) in &dist {
            prop_assert!(dt as f64 <= ALPHA * bfs.dist[v as usize] as f64 + 1e-9,
                "stretch violated at {v}");
        }
        // (d) total distance growth
        let sum = |nodes: &[NodeId]| -> u64 {
            nodes.iter().map(|&v| bfs.dist[v as usize] as u64).sum()
        };
        prop_assert!(sum(&out.nodes) as f64
            <= std::f64::consts::SQRT_2 * sum(&tree.nodes) as f64 + 1e-9);
    }

    /// BitGraph Wiener matches the reference implementation on arbitrary
    /// vertex subsets.
    #[test]
    fn bitgraph_wiener_matches_reference(g in arb_connected_graph(20), mask_seed in any::<u64>()) {
        let bg = BitGraph::from_graph(&g).unwrap();
        let n = g.num_nodes();
        let mask = if n == 64 { mask_seed } else { mask_seed % (1u64 << n) };
        let verts: Vec<NodeId> = (0..n as u32).filter(|&v| mask >> v & 1 == 1).collect();
        let reference = wiener_index_of_subset(&g, &verts).unwrap();
        prop_assert_eq!(bg.wiener(mask), reference);
    }

    /// Lemma 10 / Lemma 3's AM-GM machinery: at λ* = sqrt(sum/|H|),
    /// B(·)² = 4·Ã(·); for any other λ, B is no smaller.
    #[test]
    fn lambda_optimality(k in 1usize..500, sum in 1u64..100_000, factor in 0.1f64..10.0) {
        let star = optimal_lambda(k, sum);
        prop_assume!(star.is_finite() && star > 0.0);
        let b_star = objective_b(k, sum, star);
        let a = objective_a_tilde(k, sum) as f64;
        prop_assert!((b_star * b_star - 4.0 * a).abs() <= 1e-6 * (4.0 * a).max(1.0));
        prop_assert!(objective_b(k, sum, star * factor) >= b_star - 1e-9);
    }

    /// normalize_query is idempotent and order-insensitive.
    #[test]
    fn normalize_query_canonical(g in arb_connected_graph(30), seed in any::<u64>()) {
        let q = pick_terminals(&g, seed, 8);
        let once = normalize_query(&g, &q).unwrap();
        let twice = normalize_query(&g, &once).unwrap();
        prop_assert_eq!(&once, &twice);
        let mut reversed = q.clone();
        reversed.reverse();
        prop_assert_eq!(once, normalize_query(&g, &reversed).unwrap());
    }

    /// Group vs lone `ws-q` parity on the paper's evaluation families
    /// (ER / BA / SBM) and on their hash-weighted twins: the jobs of one
    /// `solve_group` (sequential sweeps on the group's workers, each job
    /// computing its own roots' distances) must return the connectors,
    /// objective values and candidate counts of lone solves, in parallel
    /// and in sequence.
    #[test]
    fn solve_group_matches_lone_wsq_on_families(
        (family, seed) in (0usize..3, any::<u64>()),
        q_seeds in proptest::collection::vec(any::<u64>(), 2..5),
    ) {
        use mwc_core::engine::{GroupQuery, QueryEngine, QueryOptions};
        use mwc_core::wsq::{WienerSteiner, WsqConfig};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 120 + (seed % 80) as usize;
        let raw = match family {
            0 => mwc_graph::generators::gnp(n, 0.04, &mut rng),
            1 => mwc_graph::generators::barabasi_albert(n, 3, &mut rng),
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
        // Queries inside one component so every solve succeeds (the
        // rejection path is covered by unit tests).
        let (g, _) = mwc_graph::connectivity::largest_component_graph(&raw).unwrap();
        prop_assume!(g.num_nodes() >= 8);
        let queries: Vec<Vec<NodeId>> = q_seeds
            .iter()
            .map(|&s| {
                let mut qrng = rand::rngs::StdRng::seed_from_u64(s);
                let size = qrng.gen_range(2..=5usize);
                (0..size)
                    .map(|_| qrng.gen_range(0..g.num_nodes() as NodeId))
                    .collect()
            })
            .collect();
        for g in [g.clone(), weighted_version(&g, 8)] {
            let group: Vec<GroupQuery> = queries
                .iter()
                .map(|q| GroupQuery::new("ws-q", q.clone(), QueryOptions::new().no_cache()))
                .collect();
            let outcome = QueryEngine::new(&g).solve_group(&group);
            let solver = |parallel: bool| {
                WienerSteiner::with_config(&g, WsqConfig { parallel, ..WsqConfig::default() })
            };
            for (q, grouped) in queries.iter().zip(&outcome.results) {
                let grouped = grouped.as_ref().unwrap();
                for parallel in [false, true] {
                    let lone = solver(parallel).solve(q).unwrap();
                    prop_assert_eq!(grouped.connector.vertices(), lone.connector.vertices());
                    prop_assert_eq!(grouped.wiener_index, lone.wiener_index);
                    prop_assert_eq!(grouped.candidates, lone.num_candidates as u64);
                }
            }
        }
    }

    /// Coalesced-group parity: packing heterogeneous concurrent queries
    /// into one `solve_group` window — within-window dedup, mixed solvers
    /// and options — must answer every query bit-identically to a direct
    /// per-query `solve_with` call.
    #[test]
    fn solve_group_matches_direct_solves(
        g in arb_connected_graph(80),
        seeds in proptest::collection::vec(any::<u64>(), 2..7),
    ) {
        use mwc_core::engine::{GroupQuery, QueryEngine, QueryOptions};
        use rand::{Rng, SeedableRng};
        let (g, _) = mwc_graph::connectivity::largest_component_graph(&g).unwrap();
        prop_assume!(g.num_nodes() >= 6);
        let solvers = ["ws-q", "ws-q+ls", "ws-q-approx"];
        let queries: Vec<GroupQuery> = seeds
            .iter()
            .map(|&s| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(s);
                let size = rng.gen_range(2..=4usize);
                let q: Vec<NodeId> = (0..size)
                    .map(|_| rng.gen_range(0..g.num_nodes() as NodeId))
                    .collect();
                let solver = solvers[(s % solvers.len() as u64) as usize];
                let options = if s % 3 == 0 {
                    QueryOptions::new().no_cache()
                } else {
                    QueryOptions::default()
                };
                GroupQuery::new(solver, q, options)
            })
            .collect();
        let grouped = QueryEngine::new(&g);
        let reference = QueryEngine::new(&g);
        let outcome = grouped.solve_group(&queries);
        prop_assert_eq!(outcome.results.len(), queries.len());
        for (gq, result) in queries.iter().zip(&outcome.results) {
            let direct = reference.solve_with(&gq.solver, &gq.q, &gq.options);
            match (result, direct) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.connector.vertices(), b.connector.vertices());
                    prop_assert_eq!(a.wiener_index, b.wiener_index);
                    prop_assert_eq!(a.candidates, b.candidates);
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.to_string(), b.to_string());
                }
                (a, b) => prop_assert!(false, "outcome mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    /// Lemma 4's sandwich: for any Steiner tree T of G_{r,λ},
    /// B(T,r,λ) − λ ≤ Σ_{(u,v) ∈ T} w(u,v) ≤ 2(B(T,r,λ) − λ).
    #[test]
    fn lemma4_sandwich(g in arb_connected_graph(40), seed in any::<u64>(), lam_num in 1u32..40) {
        let lambda = lam_num as f64 / 4.0;
        let terminals = pick_terminals(&g, seed, 5);
        let r = terminals[0];
        let dist_r = bfs_distances(&g, r);
        let weight = |u: NodeId, v: NodeId| {
            lambda + dist_r[u as usize].max(dist_r[v as usize]) as f64 / lambda
        };
        let tree = mehlhorn_steiner(&g, &terminals, weight).unwrap();
        let tree_weight: f64 = tree.edges.iter().map(|&(u, v)| weight(u, v)).sum();
        let sum_dist: u64 = tree.nodes.iter().map(|&v| dist_r[v as usize] as u64).sum();
        let b = objective_b(tree.num_nodes(), sum_dist, lambda);
        prop_assert!(b - lambda <= tree_weight + 1e-6, "lower side: B-λ = {}, w = {tree_weight}", b - lambda);
        prop_assert!(tree_weight <= 2.0 * (b - lambda) + 1e-6, "upper side");
    }
}
