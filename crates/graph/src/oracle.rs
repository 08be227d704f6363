//! Landmark-based approximate distance oracle.
//!
//! §6.6 of the paper notes that scaling `ws-q` beyond memory-resident
//! graphs "becomes necessary to employ techniques for parallel and/or
//! approximate shortest-distance computations \[52\]" and leaves them out
//! of scope. This module implements the classic landmark scheme those
//! citations describe: pick `k` landmarks, store one BFS distance vector
//! per landmark, and answer any pair query from the triangle inequality:
//!
//! * upper bound: `min_ℓ d(u, ℓ) + d(ℓ, v)`,
//! * lower bound: `max_ℓ |d(u, ℓ) − d(ℓ, v)|`.
//!
//! Both bounds are exact whenever one endpoint is a landmark or some
//! landmark lies on a shortest `u`–`v` path. `mwc-core`'s
//! `ApproxWienerSteiner` builds on this to run Algorithm 1 with `O(k)`
//! BFS traversals total instead of `O(|Q|)` per solve.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::traversal::bfs::{bfs_distances, multi_source_distances, MsBfsWorkspace};
use crate::traversal::dijkstra::DijkstraWorkspace;
use crate::traversal::radix::RadixWorkspace;
use crate::{Graph, NodeId, INF_DIST};

/// Single-source distances dispatching on the graph's weight family —
/// radix-heap Dijkstra on weighted graphs, BFS otherwise.
fn single_source_distances(g: &Graph, source: NodeId) -> Vec<u32> {
    if g.is_weighted() {
        RadixWorkspace::new().run(g, source).to_vec()
    } else {
        bfs_distances(g, source)
    }
}

/// How landmarks are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandmarkStrategy {
    /// Uniformly at random.
    Random,
    /// The `k` highest-degree vertices — hubs lie on many shortest paths,
    /// the standard heuristic for small-world graphs.
    HighestDegree,
    /// Farthest-first traversal: each landmark maximizes the distance to
    /// the ones already chosen (good cover of the periphery).
    FarthestFirst,
}

/// A built oracle: `k` landmark BFS vectors over a fixed graph.
///
/// ```
/// use mwc_graph::generators::karate::karate_club;
/// use mwc_graph::oracle::{LandmarkOracle, LandmarkStrategy};
/// use rand::SeedableRng;
///
/// let g = karate_club();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let oracle = LandmarkOracle::build(&g, 4, LandmarkStrategy::HighestDegree, &mut rng);
/// let (lo, hi) = (oracle.lower_bound(0, 33), oracle.upper_bound(0, 33));
/// assert!(lo <= hi); // sandwich the true distance
/// assert!(hi <= 4);  // hubs keep estimates tight on small worlds
/// ```
#[derive(Debug, Clone)]
pub struct LandmarkOracle {
    landmarks: Vec<NodeId>,
    dist: Vec<Vec<u32>>,
}

impl LandmarkOracle {
    /// Builds an oracle with `k` landmarks (clamped to `|V|`).
    ///
    /// The `k` distance vectors come from `⌈k/64⌉` multi-source BFS
    /// sweeps ([`MsBfsWorkspace`]) instead of `k` sequential traversals:
    /// the CSR adjacency — the memory-bound part — is streamed once per
    /// level per *batch* rather than once per landmark. Distances are
    /// bit-identical to [`Self::build_sequential`] (pinned by tests); the
    /// `oracle_build` section of `BENCH_kernel.json` records the speedup.
    /// Weighted graphs run one radix-heap Dijkstra ([`RadixWorkspace`])
    /// per landmark, whose distances equal the binary-heap Dijkstra of
    /// [`Self::build_sequential`]; `weighted_oracle` in the same file
    /// records that speedup.
    pub fn build<R: Rng>(g: &Graph, k: usize, strategy: LandmarkStrategy, rng: &mut R) -> Self {
        let landmarks = select_landmarks(g, k, strategy, rng);
        let dist = if g.is_weighted() {
            let mut ws = RadixWorkspace::new();
            landmarks.iter().map(|&l| ws.run(g, l).to_vec()).collect()
        } else {
            multi_source_distances(g, &landmarks, &mut MsBfsWorkspace::new())
        };
        LandmarkOracle { landmarks, dist }
    }

    /// Builds the oracle with one sequential BFS per landmark —
    /// `O(k (|V| + |E|))`, the pre-batching construction path — or, on
    /// weighted graphs, one binary-heap [`DijkstraWorkspace`] search per
    /// landmark. Kept as the parity reference and the baseline of the
    /// `oracle_build` and `weighted_oracle` bench sections;
    /// [`Self::build`] is the production path.
    pub fn build_sequential<R: Rng>(
        g: &Graph,
        k: usize,
        strategy: LandmarkStrategy,
        rng: &mut R,
    ) -> Self {
        let landmarks = select_landmarks(g, k, strategy, rng);
        let dist = if g.is_weighted() {
            let mut ws = DijkstraWorkspace::new();
            landmarks.iter().map(|&l| ws.run(g, l).to_vec()).collect()
        } else {
            landmarks.iter().map(|&l| bfs_distances(g, l)).collect()
        };
        LandmarkOracle { landmarks, dist }
    }

    /// The selected landmarks.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// Upper bound on `d(u, v)` (the standard landmark estimate).
    /// Returns [`INF_DIST`] if every landmark misses one endpoint's
    /// component.
    pub fn upper_bound(&self, u: NodeId, v: NodeId) -> u32 {
        if u == v {
            return 0;
        }
        let mut best = INF_DIST;
        for row in &self.dist {
            let (du, dv) = (row[u as usize], row[v as usize]);
            if du != INF_DIST && dv != INF_DIST {
                // saturating: weighted distance sums can brush u32::MAX.
                best = best.min(du.saturating_add(dv));
            }
        }
        best
    }

    /// Lower bound on `d(u, v)` from the reverse triangle inequality.
    /// Returns 0 when no landmark sees both endpoints.
    pub fn lower_bound(&self, u: NodeId, v: NodeId) -> u32 {
        if u == v {
            return 0;
        }
        let mut best = 0u32;
        for row in &self.dist {
            let (du, dv) = (row[u as usize], row[v as usize]);
            if du != INF_DIST && dv != INF_DIST {
                best = best.max(du.abs_diff(dv));
            }
        }
        best
    }

    /// The oracle's distance estimate — the upper bound, as is standard
    /// (it is a metric, and exact through landmarks).
    pub fn estimate(&self, u: NodeId, v: NodeId) -> u32 {
        self.upper_bound(u, v)
    }

    /// Estimated distances from `source` to every vertex: one `O(k)` scan
    /// per vertex, no BFS. Exact if `source` is a landmark.
    pub fn estimate_all(&self, source: NodeId) -> Vec<u32> {
        if let Some(i) = self.landmarks.iter().position(|&l| l == source) {
            return self.dist[i].clone();
        }
        let n = self.dist.first().map_or(0, |row| row.len());
        let mut out = vec![INF_DIST; n];
        for row in &self.dist {
            let ds = row[source as usize];
            if ds == INF_DIST {
                continue;
            }
            for (v, &dv) in row.iter().enumerate() {
                if dv != INF_DIST {
                    out[v] = out[v].min(ds.saturating_add(dv));
                }
            }
        }
        out[source as usize] = 0;
        out
    }
}

/// Picks the `k` landmark vertices for `strategy` (clamped to `|V|`,
/// at least one on non-empty graphs). Consumes `rng` identically for
/// [`LandmarkOracle::build`] and [`LandmarkOracle::build_sequential`], so
/// the two constructions select the same landmarks.
fn select_landmarks<R: Rng>(
    g: &Graph,
    k: usize,
    strategy: LandmarkStrategy,
    rng: &mut R,
) -> Vec<NodeId> {
    let n = g.num_nodes();
    let k = k.min(n).max(usize::from(n > 0));
    match strategy {
        LandmarkStrategy::Random => {
            let mut all: Vec<NodeId> = (0..n as NodeId).collect();
            all.shuffle(rng);
            all.truncate(k);
            all
        }
        LandmarkStrategy::HighestDegree => {
            let mut all: Vec<NodeId> = (0..n as NodeId).collect();
            all.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
            all.truncate(k);
            all
        }
        LandmarkStrategy::FarthestFirst => farthest_first(g, k, rng),
    }
}

/// Farthest-first landmark selection: start from a random vertex, then
/// repeatedly add the vertex maximizing the BFS distance to the chosen
/// set (one multi-source-style pass per landmark, implemented as a min
/// over per-landmark vectors).
fn farthest_first<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Vec<NodeId> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut landmarks = vec![rng.gen_range(0..n as NodeId)];
    let mut min_dist = single_source_distances(g, landmarks[0]);
    while landmarks.len() < k {
        // Farthest *reachable* vertex (unreachable ones would pin all
        // remaining landmarks into other components immediately; taking
        // them first is actually desirable — they cover that component).
        let next = (0..n as NodeId)
            .filter(|&v| !landmarks.contains(&v))
            .max_by_key(|&v| {
                let d = min_dist[v as usize];
                if d == INF_DIST {
                    // Prioritize uncovered components.
                    u64::from(u32::MAX) + 1
                } else {
                    u64::from(d)
                }
            });
        let Some(next) = next else { break };
        landmarks.push(next);
        let d = single_source_distances(g, next);
        for (m, &dv) in min_dist.iter_mut().zip(&d) {
            *m = (*m).min(dv);
        }
    }
    landmarks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::karate::karate_club;
    use crate::generators::structured;
    use rand::SeedableRng;

    fn all_strategies() -> [LandmarkStrategy; 3] {
        [
            LandmarkStrategy::Random,
            LandmarkStrategy::HighestDegree,
            LandmarkStrategy::FarthestFirst,
        ]
    }

    #[test]
    fn bounds_sandwich_the_true_distance() {
        let g = karate_club();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for strategy in all_strategies() {
            let oracle = LandmarkOracle::build(&g, 5, strategy, &mut rng);
            for u in 0..g.num_nodes() as NodeId {
                let d = bfs_distances(&g, u);
                for v in 0..g.num_nodes() as NodeId {
                    let lo = oracle.lower_bound(u, v);
                    let hi = oracle.upper_bound(u, v);
                    assert!(lo <= d[v as usize], "{strategy:?} lower bound violated");
                    assert!(hi >= d[v as usize], "{strategy:?} upper bound violated");
                    assert!(lo <= hi);
                }
            }
        }
    }

    #[test]
    fn exact_through_landmarks() {
        let g = structured::path(10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let oracle = LandmarkOracle::build(&g, 3, LandmarkStrategy::Random, &mut rng);
        for &l in oracle.landmarks() {
            for v in 0..10u32 {
                let d = bfs_distances(&g, l)[v as usize];
                assert_eq!(oracle.estimate(l, v), d, "landmark queries are exact");
                assert_eq!(oracle.lower_bound(l, v), d);
            }
        }
    }

    #[test]
    fn estimate_all_matches_pairwise_estimates() {
        let g = karate_club();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let oracle = LandmarkOracle::build(&g, 4, LandmarkStrategy::HighestDegree, &mut rng);
        for source in [0u32, 7, 33] {
            let all = oracle.estimate_all(source);
            for v in 0..g.num_nodes() as NodeId {
                if v == source {
                    assert_eq!(all[v as usize], 0);
                } else {
                    assert_eq!(all[v as usize], oracle.estimate(source, v));
                }
            }
        }
    }

    #[test]
    fn full_landmark_set_is_exact_everywhere() {
        let g = structured::cycle(9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let oracle = LandmarkOracle::build(&g, 9, LandmarkStrategy::Random, &mut rng);
        assert_eq!(oracle.num_landmarks(), 9);
        for u in 0..9u32 {
            let d = bfs_distances(&g, u);
            for v in 0..9u32 {
                assert_eq!(oracle.estimate(u, v), d[v as usize]);
            }
        }
    }

    #[test]
    fn disconnected_components_report_infinity() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Farthest-first prioritizes uncovered components, so with k = 2
        // both components have a landmark.
        let oracle = LandmarkOracle::build(&g, 2, LandmarkStrategy::FarthestFirst, &mut rng);
        assert_eq!(oracle.estimate(0, 2), INF_DIST);
        assert_eq!(oracle.estimate(0, 1), 1);
        assert_eq!(oracle.estimate(2, 3), 1);
    }

    #[test]
    fn farthest_first_spreads_on_a_path() {
        let g = structured::path(20);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let oracle = LandmarkOracle::build(&g, 3, LandmarkStrategy::FarthestFirst, &mut rng);
        // Any three farthest-first landmarks on a path include both
        // endpoints' halves; pairwise distances must be substantial.
        let l = oracle.landmarks();
        let mut min_gap = u32::MAX;
        for i in 0..l.len() {
            for j in (i + 1)..l.len() {
                min_gap = min_gap.min(l[i].abs_diff(l[j]));
            }
        }
        assert!(min_gap >= 4, "landmarks clustered: {l:?}");
    }

    #[test]
    fn highest_degree_picks_hubs() {
        let g = structured::star(10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let oracle = LandmarkOracle::build(&g, 1, LandmarkStrategy::HighestDegree, &mut rng);
        assert_eq!(oracle.landmarks(), &[0], "the star center is the hub");
        // A single hub landmark answers every pair exactly on a star.
        for u in 1..10u32 {
            for v in 1..10u32 {
                let expect = if u == v { 0 } else { 2 };
                assert_eq!(oracle.estimate(u, v), expect);
            }
        }
    }

    #[test]
    fn batched_build_matches_sequential_build() {
        // The batched (multi-source) construction must be bit-identical
        // to the sequential one: same landmarks, same distance rows —
        // including k > 64, which spans multiple 64-lane sweeps.
        use rand::SeedableRng;
        let g =
            crate::generators::barabasi_albert(300, 3, &mut rand::rngs::StdRng::seed_from_u64(77));
        for strategy in all_strategies() {
            for k in [1usize, 5, 64, 100] {
                let mut rng_a = rand::rngs::StdRng::seed_from_u64(9);
                let mut rng_b = rand::rngs::StdRng::seed_from_u64(9);
                let batched = LandmarkOracle::build(&g, k, strategy, &mut rng_a);
                let sequential = LandmarkOracle::build_sequential(&g, k, strategy, &mut rng_b);
                assert_eq!(
                    batched.landmarks(),
                    sequential.landmarks(),
                    "{strategy:?} k={k}"
                );
                assert_eq!(batched.dist, sequential.dist, "{strategy:?} k={k}");
            }
        }
    }

    #[test]
    fn weighted_build_matches_weighted_sequential_build() {
        use rand::{Rng as _, SeedableRng};
        let mut grng = rand::rngs::StdRng::seed_from_u64(31);
        let mut b = crate::GraphBuilder::new(250);
        for v in 1..250u32 {
            b.add_weighted_edge(grng.gen_range(0..v), v, grng.gen_range(1..=9))
                .unwrap();
        }
        for _ in 0..500 {
            let u = grng.gen_range(0..250u32);
            let v = grng.gen_range(0..250u32);
            b.add_weighted_edge(u, v, grng.gen_range(1..=9)).unwrap();
        }
        let g = b.build();
        for strategy in all_strategies() {
            for k in [1usize, 7, 80] {
                let mut rng_a = rand::rngs::StdRng::seed_from_u64(13);
                let mut rng_b = rand::rngs::StdRng::seed_from_u64(13);
                let batched = LandmarkOracle::build(&g, k, strategy, &mut rng_a);
                let sequential = LandmarkOracle::build_sequential(&g, k, strategy, &mut rng_b);
                assert_eq!(
                    batched.landmarks(),
                    sequential.landmarks(),
                    "{strategy:?} k={k}"
                );
                assert_eq!(batched.dist, sequential.dist, "{strategy:?} k={k}");
            }
        }
        // Bounds sandwich true weighted distances.
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let oracle = LandmarkOracle::build(&g, 6, LandmarkStrategy::HighestDegree, &mut rng);
        let mut dij = crate::traversal::dijkstra::DijkstraWorkspace::new();
        for u in [0u32, 100, 249] {
            let d = dij.run(&g, u).to_vec();
            for v in 0..250u32 {
                assert!(oracle.lower_bound(u, v) <= d[v as usize]);
                assert!(oracle.upper_bound(u, v) >= d[v as usize]);
            }
        }
    }

    #[test]
    fn k_clamps_to_graph_size() {
        let g = structured::path(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let oracle = LandmarkOracle::build(&g, 100, LandmarkStrategy::Random, &mut rng);
        assert_eq!(oracle.num_landmarks(), 3);
    }
}
