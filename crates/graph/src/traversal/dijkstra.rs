//! Dijkstra shortest paths with caller-supplied edge weights.
//!
//! [`multi_source_dijkstra`] computes the Voronoi partition of the graph
//! around a source set: for every vertex, the nearest source and a
//! shortest path back to it. Weights are provided as a closure so a
//! reweighted graph never has to be materialized. It serves the
//! Takahashi–Matsuyama Steiner heuristic and the parity reference of the
//! Mehlhorn tests. Algorithm 1's own Mehlhorn calls, one per `(root, λ)`
//! candidate on `G_{r,λ}`, grow their Voronoi regions inside
//! `mwc_core`'s reusable Steiner workspace instead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::csr::Graph;
use crate::{NodeId, NO_NODE};

/// Result of a single-source Dijkstra run.
#[derive(Debug, Clone)]
pub struct DijkstraResult {
    /// `dist[v]` is the weighted distance from the source
    /// (`f64::INFINITY` if unreachable).
    pub dist: Vec<f64>,
    /// Shortest-path-tree parent ([`NO_NODE`] for source/unreachable).
    pub parent: Vec<NodeId>,
}

/// Result of a multi-source Dijkstra run: the Voronoi partition around the
/// sources.
#[derive(Debug, Clone)]
pub struct VoronoiResult {
    /// `dist[v]`: weighted distance to the nearest source.
    pub dist: Vec<f64>,
    /// `parent[v]`: next hop toward the nearest source ([`NO_NODE`] at a
    /// source or unreachable vertex).
    pub parent: Vec<NodeId>,
    /// `source_index[v]`: index into the `sources` slice of the nearest
    /// source (`u32::MAX` if unreachable). Ties are broken by first
    /// settlement order, which is deterministic.
    pub source_index: Vec<u32>,
}

/// Totally ordered f64 key for the binary heap.
///
/// Weights produced by `G_{r,λ}` are finite and positive, so `total_cmp`
/// gives the ordering Dijkstra needs without pulling in an ordered-float
/// dependency.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapKey(f64);

impl Eq for HeapKey {}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Reusable integer Dijkstra over the graph's own `u32` weights — the
/// sequential parity/bench reference for the delta-stepping kernel
/// (mirroring how `wiener_index_sequential` anchors the batched BFS path).
///
/// Buffers are recycled across runs: the distance array is reset
/// *sparsely* through a touched list (only vertices the previous run
/// reached are dirty) and the settled set is a generation-stamped array —
/// no `O(|V|)` clear per run, the same trick `BfsWorkspace` uses. Pool
/// instances through
/// [`WorkspacePool::lease_dijkstra`](super::bfs::WorkspacePool::lease_dijkstra).
///
/// ```
/// use mwc_graph::traversal::dijkstra::DijkstraWorkspace;
/// use mwc_graph::Graph;
///
/// let g = Graph::from_weighted_edges(3, &[(0, 1, 10), (0, 2, 1), (2, 1, 2)]).unwrap();
/// let mut ws = DijkstraWorkspace::new();
/// assert_eq!(ws.run(&g, 0), &[0, 3, 1]);
/// assert_eq!(ws.last_run_distance_sum(), (4, 3));
/// ```
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    dist: Vec<u32>,
    /// `settled_gen[v] == generation` marks `v` settled in the current
    /// run; bumping the generation invalidates the whole array in `O(1)`.
    settled_gen: Vec<u64>,
    generation: u64,
    heap: BinaryHeap<Reverse<(u32, NodeId)>>,
    /// Vertices whose distance went finite — drives the sparse reset and
    /// the distance-sum scan.
    touched: Vec<NodeId>,
}

impl DijkstraWorkspace {
    /// A workspace; buffers grow lazily to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dijkstra distances from `source` over the graph's integer weights
    /// (weight 1 throughout on unweighted graphs). Returns the filled
    /// distance slice ([`crate::INF_DIST`] where unreachable).
    pub fn run(&mut self, g: &Graph, source: NodeId) -> &[u32] {
        use crate::INF_DIST;
        let n = g.num_nodes();
        debug_assert!((source as usize) < n);
        if self.dist.len() != n {
            self.dist.clear();
            self.dist.resize(n, INF_DIST);
            self.settled_gen.clear();
            self.settled_gen.resize(n, 0);
            self.generation = 0;
        } else {
            for &v in &self.touched {
                self.dist[v as usize] = INF_DIST;
            }
        }
        self.touched.clear();
        self.heap.clear();
        self.generation += 1;
        let gen = self.generation;

        self.dist[source as usize] = 0;
        self.touched.push(source);
        self.heap.push(Reverse((0, source)));
        while let Some(Reverse((du, u))) = self.heap.pop() {
            if self.settled_gen[u as usize] == gen {
                continue;
            }
            self.settled_gen[u as usize] = gen;
            debug_assert_eq!(du, self.dist[u as usize]);
            match g.neighbor_weights(u) {
                Some(ws) => {
                    for (&v, &w) in g.neighbors(u).iter().zip(ws) {
                        let cand = du.saturating_add(w);
                        if cand < self.dist[v as usize] {
                            if self.dist[v as usize] == INF_DIST {
                                self.touched.push(v);
                            }
                            self.dist[v as usize] = cand;
                            self.heap.push(Reverse((cand, v)));
                        }
                    }
                }
                None => {
                    for &v in g.neighbors(u) {
                        let cand = du.saturating_add(1);
                        if cand < self.dist[v as usize] {
                            if self.dist[v as usize] == INF_DIST {
                                self.touched.push(v);
                            }
                            self.dist[v as usize] = cand;
                            self.heap.push(Reverse((cand, v)));
                        }
                    }
                }
            }
        }
        &self.dist
    }

    /// Sum of distances from the last run's source over reached vertices,
    /// and the reached count (including the source) — same contract as
    /// `BfsWorkspace::last_run_distance_sum`.
    pub fn last_run_distance_sum(&self) -> (u64, usize) {
        let mut sum = 0u64;
        for &v in &self.touched {
            sum += self.dist[v as usize] as u64;
        }
        (sum, self.touched.len())
    }
}

/// Single-source Dijkstra with edge weights from `weight(u, v)`.
///
/// `weight` must be symmetric and non-negative; it is evaluated once per
/// directed edge relaxation. `O((|V| + |E|) log |V|)` with lazy deletion.
pub fn dijkstra<W>(g: &Graph, source: NodeId, weight: W) -> DijkstraResult
where
    W: Fn(NodeId, NodeId) -> f64,
{
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![NO_NODE; n];
    let mut heap: BinaryHeap<Reverse<(HeapKey, NodeId)>> = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(Reverse((HeapKey(0.0), source)));
    run_heap(g, &weight, &mut dist, &mut parent, None, &mut heap);
    DijkstraResult { dist, parent }
}

/// Multi-source Dijkstra producing the Voronoi partition around `sources`.
///
/// Every source starts at distance 0; `source_index[v]` reports which
/// source's region `v` falls into (Mehlhorn's `s(v)`), and following
/// `parent` from `v` leads to that source along a shortest path.
pub fn multi_source_dijkstra<W>(g: &Graph, sources: &[NodeId], weight: W) -> VoronoiResult
where
    W: Fn(NodeId, NodeId) -> f64,
{
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![NO_NODE; n];
    let mut source_index = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(HeapKey, NodeId)>> = BinaryHeap::new();
    for (i, &s) in sources.iter().enumerate() {
        debug_assert!((s as usize) < n);
        // Duplicate sources: first one wins.
        if dist[s as usize] != 0.0 || source_index[s as usize] == u32::MAX {
            dist[s as usize] = 0.0;
            source_index[s as usize] = i as u32;
            heap.push(Reverse((HeapKey(0.0), s)));
        }
    }
    run_heap(
        g,
        &weight,
        &mut dist,
        &mut parent,
        Some(&mut source_index),
        &mut heap,
    );
    VoronoiResult {
        dist,
        parent,
        source_index,
    }
}

fn run_heap<W>(
    g: &Graph,
    weight: &W,
    dist: &mut [f64],
    parent: &mut [NodeId],
    mut source_index: Option<&mut [u32]>,
    heap: &mut BinaryHeap<Reverse<(HeapKey, NodeId)>>,
) where
    W: Fn(NodeId, NodeId) -> f64,
{
    let mut settled = vec![false; dist.len()];
    while let Some(Reverse((HeapKey(du), u))) = heap.pop() {
        if settled[u as usize] {
            continue;
        }
        settled[u as usize] = true;
        debug_assert!(du <= dist[u as usize] + 1e-12);
        for &v in g.neighbors(u) {
            if settled[v as usize] {
                continue;
            }
            let w = weight(u, v);
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let cand = du + w;
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                parent[v as usize] = u;
                if let Some(src) = source_index.as_deref_mut() {
                    src[v as usize] = src[u as usize];
                }
                heap.push(Reverse((HeapKey(cand), v)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs::bfs_distances;
    use crate::Graph;

    const UNIT: fn(NodeId, NodeId) -> f64 = |_, _| 1.0;

    #[test]
    fn unit_weights_match_bfs() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 4), (4, 6)])
            .unwrap();
        let d = dijkstra(&g, 0, UNIT);
        let b = bfs_distances(&g, 0);
        for (v, &expect) in b.iter().enumerate() {
            assert_eq!(d.dist[v] as u32, expect, "vertex {v}");
        }
    }

    #[test]
    fn weighted_prefers_cheap_detour() {
        // 0-1 heavy direct edge vs 0-2-1 light path.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (2, 1)]).unwrap();
        let weight = |u: NodeId, v: NodeId| {
            if (u.min(v), u.max(v)) == (0, 1) {
                10.0
            } else {
                1.0
            }
        };
        let d = dijkstra(&g, 0, weight);
        assert_eq!(d.dist[1], 2.0);
        assert_eq!(d.parent[1], 2);
    }

    #[test]
    fn unreachable_stays_infinite() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let d = dijkstra(&g, 0, UNIT);
        assert!(d.dist[2].is_infinite());
        assert_eq!(d.parent[2], NO_NODE);
    }

    #[test]
    fn voronoi_partition_assigns_nearest_source() {
        // Path 0-1-2-3-4-5 with sources {0, 5}.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let v = multi_source_dijkstra(&g, &[0, 5], UNIT);
        assert_eq!(v.source_index[0], 0);
        assert_eq!(v.source_index[1], 0);
        assert_eq!(v.source_index[4], 1);
        assert_eq!(v.source_index[5], 1);
        assert_eq!(v.dist[2], 2.0);
        assert_eq!(v.dist[3], 2.0);
        // Parents lead back to the assigned source.
        let mut cur = 4u32;
        while v.parent[cur as usize] != NO_NODE {
            cur = v.parent[cur as usize];
        }
        assert_eq!(cur, 5);
    }

    #[test]
    fn voronoi_handles_duplicate_sources() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let v = multi_source_dijkstra(&g, &[0, 0, 2], UNIT);
        assert_eq!(v.source_index[0], 0);
        assert_eq!(v.source_index[2], 2);
    }

    #[test]
    fn workspace_matches_closure_dijkstra_and_reuses_buffers() {
        use super::DijkstraWorkspace;
        let g = Graph::from_weighted_edges(
            6,
            &[(0, 1, 4), (1, 2, 1), (2, 5, 9), (0, 3, 2), (3, 4, 2), (4, 5, 3)],
        )
        .unwrap();
        let weight = |u: NodeId, v: NodeId| g.edge_weight(u, v) as f64;
        let mut ws = DijkstraWorkspace::new();
        for source in [0u32, 3, 5] {
            let expect = dijkstra(&g, source, weight);
            let got = ws.run(&g, source);
            for v in 0..6usize {
                if expect.dist[v].is_infinite() {
                    assert_eq!(got[v], crate::INF_DIST);
                } else {
                    assert_eq!(got[v] as f64, expect.dist[v], "source {source} vertex {v}");
                }
            }
        }
        // Unweighted fallback: weight 1 everywhere = BFS distances.
        let h = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(ws.run(&h, 0), bfs_distances(&h, 0).as_slice());
        let (sum, reached) = ws.last_run_distance_sum();
        assert_eq!((sum, reached), (6, 4));
    }

    #[test]
    fn voronoi_distances_match_min_over_single_source() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 40;
        let mut edges = Vec::new();
        for i in 1..n as NodeId {
            edges.push((rng.gen_range(0..i), i)); // random connected tree
        }
        for _ in 0..40 {
            edges.push((rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId)));
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let sources = [3u32, 17, 29];
        let multi = multi_source_dijkstra(&g, &sources, UNIT);
        let singles: Vec<_> = sources.iter().map(|&s| dijkstra(&g, s, UNIT)).collect();
        for v in 0..n {
            let best = singles
                .iter()
                .map(|r| r.dist[v])
                .fold(f64::INFINITY, f64::min);
            assert_eq!(multi.dist[v], best, "vertex {v}");
        }
    }
}
