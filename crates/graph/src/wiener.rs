//! The Wiener index and related distance aggregates.
//!
//! `W(H) = Σ_{{u,v} ⊆ V(H)} d_H(u, v)` (paper Eq. 1, unordered pairs).
//! The paper also uses the root-based proxy `A(H, r) = |V(H)| · Σ_v d_H(v, r)`
//! (Lemma 1 sandwiches `W` between `A/2` and `A`), which lives in
//! `mwc-core::objective`; this module provides the graph-level primitives.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::csr::Graph;
use crate::error::Result;
use crate::traversal::bfs::{BfsWorkspace, MsBfsWorkspace, MS_BFS_LANES};
use crate::traversal::radix::RadixWorkspace;
use crate::NodeId;

/// Below this many vertices, [`wiener_index`] stays on the sequential
/// per-source loop: thread spawn + multi-source mask bookkeeping cost
/// more than the whole computation on the candidate subgraphs the
/// solvers evaluate (tens of vertices).
const PARALLEL_WIENER_MIN_NODES: usize = 1024;

/// Exact Wiener index via all-pairs BFS (radix-heap Dijkstra on weighted
/// graphs); `None` if the graph is disconnected (the Wiener index is
/// conventionally infinite then).
///
/// `O(|V| · (|V| + |E|))` total work on unweighted graphs. Small graphs
/// (the solvers' candidate subgraphs) run the sequential per-source loop;
/// above `PARALLEL_WIENER_MIN_NODES` vertices the sources are split into
/// batches of 64 distributed over scoped worker threads. An unweighted
/// batch is one multi-source BFS sweep, so the CSR is streamed once per
/// level per batch instead of once per source; a weighted batch runs one
/// [`RadixWorkspace`] search per source. For million-node inputs prefer
/// [`wiener_index_sampled`]; callers already running on a saturated
/// thread pool (batch workers) should call [`wiener_index_sequential`] to
/// avoid nesting pools — the solvers' `parallel` config flags do exactly
/// that.
pub fn wiener_index(g: &Graph) -> Option<u64> {
    let n = g.num_nodes();
    if n <= 1 {
        return Some(0);
    }
    if n < PARALLEL_WIENER_MIN_NODES {
        return wiener_index_sequential(g);
    }

    let batches: Vec<(NodeId, NodeId)> = (0..n)
        .step_by(MS_BFS_LANES)
        .map(|lo| (lo as NodeId, (lo + MS_BFS_LANES).min(n) as NodeId))
        .collect();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(batches.len());
    if threads <= 1 {
        return wiener_index_sequential(g);
    }

    let weighted = g.is_weighted();
    let disconnected = AtomicBool::new(false);
    let chunk = batches.len().div_ceil(threads);
    let partials: Vec<Option<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .chunks(chunk)
            .map(|my_batches| {
                let disconnected = &disconnected;
                scope.spawn(move || {
                    // Workspaces allocate on first use, so the worker
                    // pays only for the kernel its graph needs: one
                    // 64-lane MS-BFS per batch, or one weighted search
                    // per source.
                    let mut bfs = MsBfsWorkspace::new();
                    let mut radix = RadixWorkspace::new();
                    let mut total = 0u64;
                    for &(lo, hi) in my_batches {
                        // A disconnected verdict is global: stop early.
                        if disconnected.load(Ordering::Relaxed) {
                            return None;
                        }
                        let sums: Vec<(u64, usize)> = if weighted {
                            (lo..hi)
                                .map(|s| {
                                    radix.run(g, s);
                                    radix.last_run_distance_sum()
                                })
                                .collect()
                        } else {
                            let sources: Vec<NodeId> = (lo..hi).collect();
                            bfs.run(g, &sources);
                            (0..sources.len()).map(|l| bfs.distance_sum(l)).collect()
                        };
                        for (sum, reached) in sums {
                            if reached != n {
                                disconnected.store(true, Ordering::Relaxed);
                                return None;
                            }
                            total += sum;
                        }
                    }
                    Some(total)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wiener worker panicked"))
            .collect()
    });

    let mut total = 0u64;
    for p in partials {
        total += p?;
    }
    Some(total / 2)
}

/// The sequential per-source all-pairs loop — the historical kernel, kept
/// both as the small-`n` fast path and as the parity reference the
/// property tests pin [`wiener_index`]'s batched BFS path against.
/// Weighted graphs run per-source [`RadixWorkspace`].
pub fn wiener_index_sequential(g: &Graph) -> Option<u64> {
    let n = g.num_nodes();
    if n <= 1 {
        return Some(0);
    }
    let mut total = 0u64;
    if g.is_weighted() {
        let mut ws = RadixWorkspace::new();
        for v in 0..n as NodeId {
            ws.run(g, v);
            let (sum, reached) = ws.last_run_distance_sum();
            if reached != n {
                return None;
            }
            total += sum;
        }
    } else {
        let mut ws = BfsWorkspace::new();
        for v in 0..n as NodeId {
            ws.run(g, v);
            let (sum, reached) = ws.last_run_distance_sum();
            if reached != n {
                return None;
            }
            total += sum;
        }
    }
    Some(total / 2)
}

/// Exact Wiener index of the subgraph induced by `nodes`.
///
/// `None` if the induced subgraph is disconnected; errors only on
/// out-of-range ids.
pub fn wiener_index_of_subset(g: &Graph, nodes: &[NodeId]) -> Result<Option<u64>> {
    let sub = g.induced(nodes)?;
    Ok(wiener_index(sub.graph()))
}

/// Sum of shortest-path distances from `r` to every vertex (weighted
/// distances on weighted graphs).
///
/// `None` if some vertex is unreachable from `r`.
pub fn distance_sum_from(g: &Graph, r: NodeId) -> Option<u64> {
    let (sum, reached) = if g.is_weighted() {
        let mut ws = RadixWorkspace::new();
        ws.run(g, r);
        ws.last_run_distance_sum()
    } else {
        let mut ws = BfsWorkspace::new();
        ws.run(g, r);
        ws.last_run_distance_sum()
    };
    (reached == g.num_nodes()).then_some(sum)
}

/// Average pairwise distance `W(G) / C(n, 2)`; `None` if disconnected or
/// `n < 2`.
pub fn average_distance(g: &Graph) -> Option<f64> {
    let n = g.num_nodes();
    if n < 2 {
        return None;
    }
    let w = wiener_index(g)?;
    let pairs = n as f64 * (n as f64 - 1.0) / 2.0;
    Some(w as f64 / pairs)
}

/// Unbiased sampled estimate of the Wiener index.
///
/// Runs BFS from `samples` uniform random sources and scales the average
/// row sum: `W = (n / 2) · E_v[Σ_u d(v, u)]`. Returns `None` if any sampled
/// source fails to reach the whole graph (disconnected). With `samples >=
/// n` this degrades gracefully into the exact computation over all sources.
pub fn wiener_index_sampled<R: rand::Rng>(g: &Graph, samples: usize, rng: &mut R) -> Option<f64> {
    let n = g.num_nodes();
    if n <= 1 {
        return Some(0.0);
    }
    if samples >= n {
        return wiener_index(g).map(|w| w as f64);
    }
    let mut bfs = (!g.is_weighted()).then(BfsWorkspace::new);
    let mut radix = g.is_weighted().then(RadixWorkspace::new);
    let mut total = 0.0f64;
    for _ in 0..samples.max(1) {
        let v = rng.gen_range(0..n as NodeId);
        let (sum, reached) = if let Some(ws) = radix.as_mut() {
            ws.run(g, v);
            ws.last_run_distance_sum()
        } else {
            let ws = bfs.as_mut().expect("bfs workspace");
            ws.run(g, v);
            ws.last_run_distance_sum()
        };
        if reached != n {
            return None;
        }
        total += sum as f64;
    }
    let avg_row = total / samples.max(1) as f64;
    Some(avg_row * n as f64 / 2.0)
}

/// Eccentricity of `r` (max distance to any vertex, weighted on weighted
/// graphs); `None` if `r` does not reach the whole graph.
pub fn eccentricity(g: &Graph, r: NodeId) -> Option<u32> {
    let mut bfs = BfsWorkspace::new();
    let mut radix = RadixWorkspace::new();
    let dist = if g.is_weighted() {
        radix.run(g, r)
    } else {
        bfs.run(g, r)
    };
    let mut reached = 0usize;
    let mut ecc = 0u32;
    for &d in dist.iter() {
        if d != crate::INF_DIST {
            reached += 1;
            ecc = ecc.max(d);
        }
    }
    (reached == g.num_nodes()).then_some(ecc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::structured;
    use rand::SeedableRng;

    /// Closed form for a path on n vertices: W(P_n) = (n³ - n) / 6.
    fn path_wiener(n: u64) -> u64 {
        (n * n * n - n) / 6
    }

    #[test]
    fn wiener_of_paths_matches_closed_form() {
        for n in 2..=12u64 {
            let g = structured::path(n as usize);
            assert_eq!(wiener_index(&g), Some(path_wiener(n)), "P_{n}");
        }
    }

    #[test]
    fn wiener_of_complete_graph_is_pair_count() {
        for n in 2..=8u64 {
            let g = structured::complete(n as usize);
            assert_eq!(wiener_index(&g), Some(n * (n - 1) / 2));
        }
    }

    #[test]
    fn wiener_of_star_is_known() {
        // Star on n vertices: (n-1) spokes at distance 1, C(n-1,2) leaf pairs
        // at distance 2.
        for n in 2..=9u64 {
            let g = structured::star(n as usize);
            let leaves = n - 1;
            let expect = leaves + 2 * (leaves * (leaves - 1) / 2);
            assert_eq!(wiener_index(&g), Some(expect));
        }
    }

    #[test]
    fn paper_figure_2_values() {
        // Fig 2: line v1..v10 plus two overlapping half-covering roots.
        // W(Q) = 165 (the bare line), W(Q ∪ {r1}) = 151, W(Q ∪ {r1, r2}) = 142.
        let g = structured::figure2_graph(10);
        // Vertices 0..10 are the line, 10 and 11 the roots.
        let line: Vec<NodeId> = (0..10).collect();
        assert_eq!(wiener_index_of_subset(&g, &line).unwrap(), Some(165));
        let with_r1: Vec<NodeId> = (0..11).collect();
        assert_eq!(wiener_index_of_subset(&g, &with_r1).unwrap(), Some(151));
        let with_both: Vec<NodeId> = (0..12).collect();
        assert_eq!(wiener_index_of_subset(&g, &with_both).unwrap(), Some(142));
    }

    #[test]
    fn disconnected_has_no_wiener_index() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(wiener_index(&g), None);
        assert_eq!(wiener_index_of_subset(&g, &[0, 1, 2]).unwrap(), None);
        assert_eq!(wiener_index_of_subset(&g, &[0, 1]).unwrap(), Some(1));
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(wiener_index(&Graph::empty(0)), Some(0));
        assert_eq!(wiener_index(&Graph::empty(1)), Some(0));
        assert_eq!(average_distance(&Graph::empty(1)), None);
    }

    #[test]
    fn distance_sum_and_eccentricity() {
        let g = structured::path(5);
        assert_eq!(distance_sum_from(&g, 0), Some(1 + 2 + 3 + 4));
        assert_eq!(distance_sum_from(&g, 2), Some(1 + 1 + 2 + 2));
        assert_eq!(eccentricity(&g, 0), Some(4));
        assert_eq!(eccentricity(&g, 2), Some(2));
        let h = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(distance_sum_from(&h, 0), None);
        assert_eq!(eccentricity(&h, 0), None);
    }

    #[test]
    fn average_distance_of_complete_is_one() {
        let g = structured::complete(6);
        assert_eq!(average_distance(&g), Some(1.0));
    }

    #[test]
    fn sampled_estimate_is_close_on_moderate_graph() {
        let g = structured::grid(20, 20, false);
        let exact = wiener_index(&g).unwrap() as f64;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let est = wiener_index_sampled(&g, 120, &mut rng).unwrap();
        let rel = (est - exact).abs() / exact;
        assert!(
            rel < 0.1,
            "relative error {rel} too large (est {est}, exact {exact})"
        );
    }

    #[test]
    fn sampled_falls_back_to_exact_for_large_sample_counts() {
        let g = structured::path(8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let est = wiener_index_sampled(&g, 1000, &mut rng).unwrap();
        assert_eq!(est, wiener_index(&g).unwrap() as f64);
    }

    #[test]
    fn parallel_path_matches_sequential_above_threshold() {
        // 40×40 grid: 1600 nodes, above PARALLEL_WIENER_MIN_NODES, so
        // wiener_index takes the multi-source parallel path.
        let g = structured::grid(40, 40, false);
        assert_eq!(wiener_index(&g), wiener_index_sequential(&g));
        // Closed form for a path keeps the parallel path honest too.
        let p = structured::path(1500);
        let n = 1500u64;
        assert_eq!(wiener_index(&p), Some((n * n * n - n) / 6));
    }

    #[test]
    fn weighted_wiener_sums_weighted_distances() {
        // Weighted path 0 -2- 1 -3- 2: pairs (0,1)=2, (1,2)=3, (0,2)=5.
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2), (1, 2, 3)]).unwrap();
        assert_eq!(wiener_index(&g), Some(10));
        assert_eq!(wiener_index_sequential(&g), Some(10));
        assert_eq!(distance_sum_from(&g, 0), Some(7));
        assert_eq!(eccentricity(&g, 0), Some(5));
        assert_eq!(eccentricity(&g, 1), Some(3));
    }

    #[test]
    fn weighted_parallel_path_matches_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let n = 1500usize;
        let mut b = crate::GraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_weighted_edge(rng.gen_range(0..v), v, rng.gen_range(1..=7))
                .unwrap();
        }
        for _ in 0..2 * n {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            b.add_weighted_edge(u, v, rng.gen_range(1..=7)).unwrap();
        }
        let g = b.build();
        assert!(g.num_nodes() >= PARALLEL_WIENER_MIN_NODES);
        // Both paths run the radix kernel; the reference is per-source
        // binary-heap Dijkstra.
        let mut dij = crate::traversal::dijkstra::DijkstraWorkspace::new();
        let mut ordered_pairs = 0u64;
        for v in 0..n as NodeId {
            dij.run(&g, v);
            let (sum, reached) = dij.last_run_distance_sum();
            assert_eq!(reached, n);
            ordered_pairs += sum;
        }
        assert_eq!(wiener_index(&g), Some(ordered_pairs / 2));
        assert_eq!(wiener_index_sequential(&g), Some(ordered_pairs / 2));
    }

    #[test]
    fn parallel_path_detects_disconnection() {
        // Two large components: every source fails to reach the far side.
        let mut edges: Vec<(NodeId, NodeId)> = (0..800).map(|i| (i, i + 1)).collect();
        edges.extend((900..1900u32).map(|i| (i, i + 1)));
        let g = Graph::from_edges(1901, &edges).unwrap();
        assert_eq!(wiener_index(&g), None);
        assert_eq!(wiener_index_sequential(&g), None);
    }
}
