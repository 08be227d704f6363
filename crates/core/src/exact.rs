//! Exact algorithms for small instances.
//!
//! §3 of the paper shows Min Wiener Connector is polynomial for constant
//! `|Q|` (impractically so — `n^{poly(|Q|)}`) and trivial for `|Q| = 2`
//! (any shortest path is optimal on unweighted graphs). §6.2 certifies the
//! approximation quality of `ws-q` against optimal solutions / bounds on
//! small graphs via a Gurobi ILP. This module provides the from-scratch
//! substitutes used by the Table 2 reproduction:
//!
//! * [`shortest_path_connector`] — the exact `|Q| = 2` solver;
//! * [`exact_minimum`] — exhaustive subset enumeration over bitset graphs
//!   (`n ≤ 64`) with the `W(S) ≥ C(|S|, 2)` size cutoff and a subset
//!   budget, replacing the ILP's optimality certificates.
//!
//! The enumeration is exact whenever it completes within budget and before
//! the size cutoff: every connector with `C(k, 2)` below the incumbent has
//! been inspected, and any larger connector has `W ≥ C(k, 2) ≥` incumbent.
//!
//! Both solvers count hops, so both refuse weighted graphs with
//! [`CoreError::UnsupportedInstance`] rather than return a connector whose
//! W and optimality claim ignore the weights.

use mwc_graph::traversal::bfs::{bfs_parents, path_from_parents};
use mwc_graph::{Graph, NodeId};

use crate::connector::Connector;
use crate::error::{CoreError, Result};
use crate::wsq::normalize_query;

/// Result of the enumeration solver.
#[derive(Debug, Clone)]
pub struct ExactOutcome {
    /// Best connector found.
    pub connector: Connector,
    /// Its Wiener index.
    pub wiener_index: u64,
    /// Whether optimality was proven (enumeration completed within budget).
    pub optimal: bool,
    /// Number of vertex subsets inspected.
    pub subsets_explored: u64,
}

/// Configuration for [`exact_minimum`].
#[derive(Debug, Clone)]
pub struct ExactConfig {
    /// Abort (returning the incumbent, `optimal = false`) after inspecting
    /// this many subsets.
    pub max_subsets: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_subsets: 50_000_000,
        }
    }
}

/// Exact solver for `|Q| = 2`: returns a shortest `s`–`t` path, which is an
/// optimal Wiener connector on unweighted graphs (§3). Refuses weighted
/// graphs.
pub fn shortest_path_connector(g: &Graph, s: NodeId, t: NodeId) -> Result<Connector> {
    refuse_weighted(g)?;
    g.check_node(s)?;
    g.check_node(t)?;
    if s == t {
        return Ok(Connector::new_unchecked(g, vec![s]));
    }
    let bfs = bfs_parents(g, s);
    let path = path_from_parents(&bfs.parent, s, t).ok_or(CoreError::QueryNotConnectable)?;
    Ok(Connector::new_unchecked(g, path))
}

/// The exact solvers score and search by hop count, which is wrong on a
/// weighted graph.
fn refuse_weighted(g: &Graph) -> Result<()> {
    if g.is_weighted() {
        return Err(CoreError::UnsupportedInstance {
            what: "the exact solvers count hops and do not support weighted graphs".to_string(),
        });
    }
    Ok(())
}

/// A graph over at most 64 vertices with bitset adjacency, supporting
/// `O(diameter)`-word BFS per source.
#[derive(Debug, Clone)]
pub struct BitGraph {
    n: usize,
    adj: Vec<u64>,
}

impl BitGraph {
    /// Converts a [`Graph`] with `n ≤ 64` vertices.
    pub fn from_graph(g: &Graph) -> Result<Self> {
        let n = g.num_nodes();
        if n > 64 {
            return Err(CoreError::UnsupportedInstance {
                what: format!("BitGraph supports at most 64 vertices (got {n})"),
            });
        }
        let mut adj = vec![0u64; n];
        for (u, v) in g.edges() {
            adj[u as usize] |= 1 << v;
            adj[v as usize] |= 1 << u;
        }
        Ok(BitGraph { n, adj })
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Whether the subgraph induced by `mask` is connected (empty masks
    /// count as connected).
    pub fn is_connected(&self, mask: u64) -> bool {
        if mask == 0 {
            return true;
        }
        let start = mask.trailing_zeros() as usize;
        let mut reached = 1u64 << start;
        loop {
            let mut next = reached;
            let mut frontier = reached;
            while frontier != 0 {
                let v = frontier.trailing_zeros() as usize;
                frontier &= frontier - 1;
                next |= self.adj[v] & mask;
            }
            if next == reached {
                break;
            }
            reached = next;
        }
        reached == mask
    }

    /// Wiener index of the subgraph induced by `mask`; `None` if
    /// disconnected. `O(k · diam)` word operations for `k = |mask|`.
    pub fn wiener(&self, mask: u64) -> Option<u64> {
        let k = mask.count_ones();
        if k <= 1 {
            return Some(0);
        }
        let mut total = 0u64;
        let mut sources = mask;
        while sources != 0 {
            let s = sources.trailing_zeros() as usize;
            sources &= sources - 1;
            let mut visited = 1u64 << s;
            let mut frontier = self.adj[s] & mask;
            let mut level = 1u64;
            while frontier != 0 {
                total += level * frontier.count_ones() as u64;
                visited |= frontier;
                let mut next = 0u64;
                let mut f = frontier;
                while f != 0 {
                    let v = f.trailing_zeros() as usize;
                    f &= f - 1;
                    next |= self.adj[v];
                }
                frontier = next & mask & !visited;
                level += 1;
            }
            if visited != mask {
                return None;
            }
        }
        Some(total / 2)
    }
}

/// Exhaustive exact solver for graphs with at most 64 vertices.
///
/// Enumerates vertex subsets `S ⊇ Q` by increasing size `k`; stops at the
/// first `k` with `C(k, 2) ≥` incumbent Wiener index — larger connectors
/// cannot win since every pair contributes at least 1. `initial` (e.g. the
/// `ws-q` solution, as the paper warm-starts Gurobi) tightens that cutoff
/// from the start. Refuses weighted graphs.
pub fn exact_minimum(
    g: &Graph,
    q: &[NodeId],
    initial: Option<&Connector>,
    cfg: &ExactConfig,
) -> Result<ExactOutcome> {
    refuse_weighted(g)?;
    let q = normalize_query(g, q)?;
    let bg = BitGraph::from_graph(g)?;
    let n = bg.num_nodes();

    let q_mask: u64 = q.iter().fold(0u64, |m, &v| m | 1 << v);
    let mut explored = 0u64;

    // Incumbent: caller-provided warm start, else the whole graph.
    let full_mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut best_mask;
    let mut best_w;
    match initial {
        Some(c) => {
            let mask = c.vertices().iter().fold(0u64, |m, &v| m | 1 << v);
            debug_assert_eq!(mask & q_mask, q_mask, "warm start must contain Q");
            best_w = bg
                .wiener(mask)
                .ok_or(CoreError::Graph(mwc_graph::GraphError::Disconnected))?;
            best_mask = mask;
        }
        None => match bg.wiener(full_mask) {
            Some(w) => {
                best_w = w;
                best_mask = full_mask;
            }
            None => return Err(CoreError::QueryNotConnectable),
        },
    }

    // Candidate pool: all non-query vertices.
    let pool: Vec<u32> = (0..n as u32).filter(|&v| q_mask >> v & 1 == 0).collect();

    let mut optimal = true;
    'sizes: for k in q.len()..=n {
        // Size cutoff: any connector with k vertices has W ≥ C(k, 2).
        let floor = (k as u64) * (k as u64 - 1) / 2;
        if floor >= best_w {
            break;
        }
        let extra = k - q.len();
        if extra > pool.len() {
            break;
        }
        // Enumerate `extra`-combinations of the pool lexicographically.
        let mut idx: Vec<usize> = (0..extra).collect();
        loop {
            explored += 1;
            if explored > cfg.max_subsets {
                optimal = false;
                break 'sizes;
            }
            let mask = idx.iter().fold(q_mask, |m, &i| m | 1 << pool[i]);
            if let Some(w) = bg.wiener(mask) {
                if w < best_w {
                    best_w = w;
                    best_mask = mask;
                }
            }
            if !next_combination(&mut idx, pool.len()) {
                break;
            }
        }
    }

    let vertices: Vec<NodeId> = (0..n as u32).filter(|&v| best_mask >> v & 1 == 1).collect();
    debug_assert!(bg.is_connected(best_mask));
    Ok(ExactOutcome {
        connector: Connector::new_unchecked(g, vertices),
        wiener_index: best_w,
        optimal,
        subsets_explored: explored,
    })
}

/// Advances `idx` to the next lexicographic `k`-combination of
/// `0..pool_len`; returns `false` when exhausted. Empty combinations have
/// exactly one state.
fn next_combination(idx: &mut [usize], pool_len: usize) -> bool {
    let k = idx.len();
    for i in (0..k).rev() {
        if idx[i] < pool_len - k + i {
            idx[i] += 1;
            for j in i + 1..k {
                idx[j] = idx[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{karate::karate_club, structured};
    use mwc_graph::wiener::wiener_index_of_subset;
    use rand::{Rng, SeedableRng};

    #[test]
    fn shortest_path_connector_is_a_path() {
        let g = structured::grid(4, 4, false);
        let c = shortest_path_connector(&g, 0, 15).unwrap();
        assert_eq!(c.len(), 7); // Manhattan distance 6
        assert!(c.contains(0) && c.contains(15));
        let same = shortest_path_connector(&g, 5, 5).unwrap();
        assert_eq!(same.vertices(), &[5]);
    }

    #[test]
    fn shortest_path_unreachable_errors() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(shortest_path_connector(&g, 0, 3).is_err());
    }

    #[test]
    fn bitgraph_matches_reference_wiener() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        for _ in 0..20 {
            let g = mwc_graph::generators::gnm(14, 25, &mut rng);
            let bg = BitGraph::from_graph(&g).unwrap();
            // Random subsets.
            for _ in 0..50 {
                let mask: u64 = rng.gen_range(0..(1u64 << 14));
                let verts: Vec<NodeId> = (0..14).filter(|&v| mask >> v & 1 == 1).collect();
                let reference = wiener_index_of_subset(&g, &verts).unwrap();
                assert_eq!(bg.wiener(mask), reference, "mask {mask:b}");
                assert_eq!(
                    bg.is_connected(mask),
                    reference.is_some() || verts.len() <= 1,
                    "connectivity mask {mask:b}"
                );
            }
        }
    }

    #[test]
    fn weighted_graphs_are_refused() {
        let g =
            Graph::from_weighted_edges(4, &[(0, 1, 1), (1, 2, 1), (0, 2, 100), (2, 3, 1)]).unwrap();
        assert!(matches!(
            shortest_path_connector(&g, 0, 2),
            Err(CoreError::UnsupportedInstance { .. })
        ));
        assert!(matches!(
            exact_minimum(&g, &[0, 2], None, &ExactConfig::default()),
            Err(CoreError::UnsupportedInstance { .. })
        ));
    }

    #[test]
    fn bitgraph_rejects_large_graphs() {
        let g = structured::path(65);
        assert!(BitGraph::from_graph(&g).is_err());
    }

    #[test]
    fn exact_on_figure2_finds_142() {
        let g = structured::figure2_graph(10);
        let q: Vec<NodeId> = (0..10).collect();
        let out = exact_minimum(&g, &q, None, &ExactConfig::default()).unwrap();
        assert!(out.optimal);
        assert_eq!(out.wiener_index, 142);
        assert_eq!(out.connector.len(), 12); // whole graph
    }

    #[test]
    fn exact_q2_agrees_with_shortest_path_theorem() {
        // §3: for |Q| = 2 a shortest path is optimal; cross-check the
        // enumerator against it on random small graphs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(73);
        for _ in 0..10 {
            let raw = mwc_graph::generators::gnm(16, 28, &mut rng);
            let (g, _) = mwc_graph::connectivity::largest_component_graph(&raw).unwrap();
            let n = g.num_nodes() as NodeId;
            if n < 4 {
                continue;
            }
            let (s, t) = (0, n - 1);
            let sp = shortest_path_connector(&g, s, t).unwrap();
            let sp_w = sp.wiener_index(&g).unwrap();
            let out = exact_minimum(&g, &[s, t], None, &ExactConfig::default()).unwrap();
            assert!(out.optimal);
            assert_eq!(out.wiener_index, sp_w, "graph n={n}");
        }
    }

    #[test]
    fn warm_start_never_hurts() {
        let g = karate_club();
        let q: Vec<NodeId> = vec![11, 24, 25, 29];
        let wsq = crate::wsq::minimum_wiener_connector(&g, &q).unwrap();
        let budgeted = ExactConfig {
            max_subsets: 200_000,
        };
        let cold = exact_minimum(&g, &q, None, &budgeted).unwrap();
        let warm = exact_minimum(&g, &q, Some(&wsq.connector), &budgeted).unwrap();
        assert!(warm.wiener_index <= cold.wiener_index);
        assert!(warm.wiener_index <= wsq.wiener_index);
    }

    #[test]
    fn budget_abort_reports_non_optimal() {
        let g = karate_club();
        let q: Vec<NodeId> = vec![0, 16, 26, 29, 14];
        let out = exact_minimum(&g, &q, None, &ExactConfig { max_subsets: 10 }).unwrap();
        assert!(!out.optimal);
        assert!(out.subsets_explored >= 10);
        assert!(out.connector.contains_all(&q));
    }

    #[test]
    fn exact_solution_is_lower_than_or_equal_wsq() {
        let g = karate_club();
        for q in [vec![0u32, 33], vec![11, 24, 25, 29], vec![3, 11, 16]] {
            let wsq = crate::wsq::minimum_wiener_connector(&g, &q).unwrap();
            let exact =
                exact_minimum(&g, &q, Some(&wsq.connector), &ExactConfig::default()).unwrap();
            assert!(exact.optimal, "q={q:?}");
            assert!(
                exact.wiener_index <= wsq.wiener_index,
                "exact {} vs wsq {} for {q:?}",
                exact.wiener_index,
                wsq.wiener_index
            );
            // ws-q stays within the constant-factor guarantee by a wide
            // margin in practice (§6.2 reports ≤ 1.17 on small graphs).
            assert!(
                (wsq.wiener_index as f64) <= 3.0 * exact.wiener_index as f64,
                "approximation ratio too large: {} / {}",
                wsq.wiener_index,
                exact.wiener_index
            );
        }
    }
}
