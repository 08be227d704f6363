//! Property-based parity suite for the weighted distance kernel.
//!
//! The radix-heap Dijkstra is only worth having if it is *exactly*
//! Dijkstra on integer weights — every test here pins identical distance
//! arrays and distance sums against the binary-heap reference, across the
//! paper's evaluation families (ER / BA / SBM), at small and wide weight
//! ranges, at the largest weight the loaders accept, and where `u32` path
//! sums saturate at `INF_DIST`.

use proptest::prelude::*;

use mwc_graph::traversal::bfs::{
    canonical_parents, path_from_parents, BfsWorkspace, MsBfsWorkspace,
};
use mwc_graph::traversal::dijkstra::DijkstraWorkspace;
use mwc_graph::traversal::radix::RadixWorkspace;
use mwc_graph::{Graph, NodeId, INF_DIST, MAX_EDGE_WEIGHT, NO_NODE};

/// Reattach deterministic weights to a graph's topology: `weight(h)` of a
/// hash `h` of each edge's endpoints (the service's `wba:` source uses
/// `h % max_weight + 1`).
fn hashed_weights(g: &Graph, weight: impl Fn(u64) -> u32) -> Graph {
    let edges: Vec<(NodeId, NodeId, u32)> = g
        .edges()
        .map(|(u, v)| {
            let h = (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (v as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            (u, v, weight(h))
        })
        .collect();
    Graph::from_weighted_edges(g.num_nodes(), &edges).unwrap()
}

/// Hash weights in `1..=max_weight`.
fn weighted_version(g: &Graph, max_weight: u32) -> Graph {
    hashed_weights(g, |h| (h % max_weight as u64) as u32 + 1)
}

/// Strategy: a random graph from one of the paper's evaluation families —
/// ER `G(n, p)`, Barabási–Albert, or a planted partition.
fn arb_family_graph() -> impl Strategy<Value = Graph> {
    (0usize..3, 60usize..200, any::<u64>()).prop_map(|(family, n, seed)| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        match family {
            0 => mwc_graph::generators::gnp(n, 0.04, &mut rng),
            1 => mwc_graph::generators::barabasi_albert(n, 3, &mut rng),
            _ => {
                let third = n / 3;
                mwc_graph::generators::planted_partition(
                    &[third, third, n - 2 * third],
                    0.1,
                    0.01,
                    &mut rng,
                )
                .graph
            }
        }
    })
}

/// Strategy: a family graph with hash weights in `1..=max_weight` for a
/// `max_weight` drawn from `max_weights`.
fn arb_weighted_family_graph(
    max_weights: impl Strategy<Value = u32>,
) -> impl Strategy<Value = Graph> {
    (arb_family_graph(), max_weights).prop_map(|(g, maxw)| weighted_version(&g, maxw))
}

/// Strategy: a family graph where seven edges in eight weigh within 7 of
/// `MAX_EDGE_WEIGHT` (an eighth of those exactly at it) and the rest
/// `1..=8`, so a shortest path over five heavy edges saturates at
/// `INF_DIST`, while four fit.
fn arb_heavy_light_family_graph() -> impl Strategy<Value = Graph> {
    arb_family_graph().prop_map(|g| {
        hashed_weights(&g, |h| {
            if h >> 61 == 0 {
                (h % 8) as u32 + 1
            } else {
                MAX_EDGE_WEIGHT - (h % 8) as u32
            }
        })
    })
}

/// Runs both kernels from `sources` and checks distances, distance sums,
/// and that canonical parents derived from the radix distances form
/// shortest-path trees.
fn assert_matches_dijkstra(g: &Graph, sources: &[NodeId]) -> Result<(), TestCaseError> {
    let mut dij = DijkstraWorkspace::new();
    let mut radix = RadixWorkspace::new();
    for &s in sources {
        let want: Vec<u32> = dij.run(g, s).to_vec();
        let got: Vec<u32> = radix.run(g, s).to_vec();
        prop_assert_eq!(&got, &want, "source {}", s);
        prop_assert_eq!(radix.last_run_distance_sum(), dij.last_run_distance_sum());
        let parents = canonical_parents(g, &got);
        prop_assert_eq!(parents[s as usize], NO_NODE);
        for v in g.nodes().filter(|&v| v != s && got[v as usize] != INF_DIST) {
            let p = parents[v as usize];
            prop_assert!(g.has_edge(p, v), "source {} vertex {}", s, v);
            prop_assert_eq!(
                got[p as usize] as u64 + g.edge_weight(p, v) as u64,
                got[v as usize] as u64
            );
            prop_assert_eq!(path_from_parents(&parents, s, v).map(|p| p[0]), Some(s));
        }
    }
    Ok(())
}

/// Three random sources of `g`.
fn sources(g: &Graph, seed: u64) -> Vec<NodeId> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..3)
        .map(|_| rng.gen_range(0..g.num_nodes() as NodeId))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The radix heap matches Dijkstra on every weighted family with
    /// small weights (max weight 2–64): distances, distance sums, and the
    /// canonical parent trees derived from them.
    #[test]
    fn radix_matches_dijkstra_on_weighted_families(
        g in arb_weighted_family_graph(2u32..64),
        seed in any::<u64>(),
    ) {
        assert_matches_dijkstra(&g, &sources(&g, seed))?;
    }

    /// The same above 1024, where keys spread over many buckets, up to
    /// the largest weight the loaders accept.
    #[test]
    fn radix_matches_dijkstra_on_wide_weights(
        g in arb_weighted_family_graph(1025u32..=MAX_EDGE_WEIGHT),
        seed in any::<u64>(),
    ) {
        assert_matches_dijkstra(&g, &sources(&g, seed))?;
    }

    /// Weights at `MAX_EDGE_WEIGHT` beside light ones: far path sums
    /// saturate, and the radix heap reads `INF_DIST` exactly where
    /// Dijkstra does.
    #[test]
    fn radix_matches_dijkstra_where_path_sums_saturate(
        g in arb_heavy_light_family_graph(),
        seed in any::<u64>(),
    ) {
        assert_matches_dijkstra(&g, &sources(&g, seed))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On a weight-1 graph the radix heap reduces to BFS: its distances
    /// and distance sums equal the single-source and batched BFS kernels'.
    #[test]
    fn weight_one_radix_matches_bfs(g in arb_family_graph(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let w = weighted_version(&g, 1);
        prop_assert!(w.is_weighted());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes() as NodeId;
        let mut bfs = BfsWorkspace::new();
        let mut radix = RadixWorkspace::new();
        for _ in 0..3 {
            let s = rng.gen_range(0..n);
            let want: Vec<u32> = bfs.run(&g, s).to_vec();
            prop_assert_eq!(radix.run(&w, s).to_vec(), want, "source {}", s);
            prop_assert_eq!(radix.last_run_distance_sum(), bfs.last_run_distance_sum());
        }
        let sources: Vec<NodeId> = (0..rng.gen_range(1..=32usize))
            .map(|_| rng.gen_range(0..n))
            .collect();
        let mut ms_bfs = MsBfsWorkspace::new();
        ms_bfs.run(&g, &sources);
        for (lane, &s) in sources.iter().enumerate() {
            prop_assert_eq!(radix.run(&w, s).to_vec(), ms_bfs.lane_distances(lane));
            prop_assert_eq!(radix.last_run_distance_sum(), ms_bfs.distance_sum(lane));
        }
    }

    /// Weighted graphs survive degree ordering: the permuted graph keeps
    /// its weights and the kernel's distances transport through the
    /// relabeling.
    #[test]
    fn weighted_degree_ordering_preserves_distances(g in arb_weighted_family_graph(2u32..64)) {
        let (h, perm) = g.degree_ordered();
        prop_assert!(h.is_weighted());
        let mut a = RadixWorkspace::new();
        let mut b = RadixWorkspace::new();
        let d_g: Vec<u32> = a.run(&g, 0).to_vec();
        let d_h = b.run(&h, perm.to_new(0));
        for v in 0..g.num_nodes() as NodeId {
            prop_assert_eq!(d_g[v as usize], d_h[perm.to_new(v) as usize]);
        }
    }
}

/// A weight-1 path, then two edges of 3·10⁹ (above what the loaders
/// accept, which `GraphBuilder` does not check): vertex 7 sits at
/// 3 000 000 006 and vertex 8's path sum passes `u32::MAX`, so both
/// kernels read it as unreachable.
#[test]
fn weight_skew_saturates_like_dijkstra() {
    let mut b = mwc_graph::GraphBuilder::new(9);
    for v in 1..7u32 {
        b.add_weighted_edge(v - 1, v, 1).unwrap();
    }
    b.add_weighted_edge(6, 7, 3_000_000_000).unwrap();
    b.add_weighted_edge(7, 8, 3_000_000_000).unwrap();
    let g = b.build();
    let mut dij = DijkstraWorkspace::new();
    let mut radix = RadixWorkspace::new();
    for s in g.nodes() {
        let want: Vec<u32> = dij.run(&g, s).to_vec();
        assert_eq!(radix.run(&g, s), want.as_slice(), "source {s}");
        assert_eq!(radix.last_run_distance_sum(), dij.last_run_distance_sum());
    }
    let d0 = radix.run(&g, 0);
    assert_eq!(d0[7], 3_000_000_006);
    assert_eq!(d0[8], INF_DIST);
    assert_eq!(radix.run(&g, 8)[7], 3_000_000_000);
}
