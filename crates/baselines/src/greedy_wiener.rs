//! `gw` — greedy Wiener expansion (an extension beyond the paper).
//!
//! A natural straw-man the paper does not evaluate: grow the solution from
//! `Q` by repeatedly adding the frontier vertex that minimizes an
//! admissible completion estimate, until `Q` is connected; then prune.
//! Used by the ablation study as a sanity baseline — ws-q should dominate
//! it on quality or runtime (greedy needs `O(|S| · frontier)` Wiener-style
//! evaluations per step, which is far costlier than ws-q's Steiner calls
//! on large graphs).

use mwc_core::{wsq::normalize_query, Connector, CoreError, Result};
use mwc_graph::connectivity::is_connected_subset;
use mwc_graph::traversal::bfs::BfsWorkspace;
use mwc_graph::{Graph, NodeId, INF_DIST};

/// Budget for the greedy expansion.
#[derive(Debug, Clone)]
pub struct GreedyWienerConfig {
    /// Abort (with [`CoreError::UnsupportedInstance`]) if the solution
    /// exceeds this size before connecting `Q` — guards the quadratic
    /// evaluation cost.
    pub max_size: usize,
}

impl Default for GreedyWienerConfig {
    fn default() -> Self {
        GreedyWienerConfig { max_size: 256 }
    }
}

/// Runs the greedy-Wiener baseline with default budget.
pub fn greedy_wiener(g: &Graph, q: &[NodeId]) -> Result<Connector> {
    greedy_wiener_with_config(g, q, &GreedyWienerConfig::default())
}

/// Runs the greedy-Wiener baseline.
///
/// Scoring: for the current partial set `S` (which may induce several
/// fragments), a candidate `v` is scored by the sum of its distances *in
/// `G`* to all members of `S` — a cheap proxy for the Wiener mass `v`
/// would contribute. The candidate minimizing the proxy joins; once `Q`
/// lies in one induced component, that component is returned after a
/// removal pass (dropping members that no longer help).
pub fn greedy_wiener_with_config(
    g: &Graph,
    q: &[NodeId],
    cfg: &GreedyWienerConfig,
) -> Result<Connector> {
    let q = normalize_query(g, q)?;
    let mut ws = BfsWorkspace::new();

    // Distance rows from every member, grown incrementally.
    let mut members: Vec<NodeId> = q.clone();
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(members.len());
    for &s in &members {
        rows.push(ws.run(g, s).to_vec());
    }
    // Infeasible queries surface immediately.
    for &t in &q[1..] {
        if rows[0][t as usize] == INF_DIST {
            return Err(CoreError::QueryNotConnectable);
        }
    }

    while !is_connected_subset(g, &members)? {
        if members.len() >= cfg.max_size {
            return Err(CoreError::UnsupportedInstance {
                what: format!("greedy-wiener exceeded max_size = {}", cfg.max_size),
            });
        }
        // Frontier of the current member set.
        let mut frontier: Vec<NodeId> = Vec::new();
        for &u in &members {
            for &v in g.neighbors(u) {
                if !members.contains(&v) {
                    frontier.push(v);
                }
            }
        }
        frontier.sort_unstable();
        frontier.dedup();
        debug_assert!(!frontier.is_empty(), "connected component exhausted");

        let best = frontier
            .into_iter()
            .map(|v| {
                let score: u64 = rows
                    .iter()
                    .map(|row| row[v as usize].min(1 << 20) as u64)
                    .sum();
                (score, v)
            })
            .min()
            .expect("non-empty frontier");
        members.push(best.1);
        rows.push(ws.run(g, best.1).to_vec());
    }

    // Keep only Q's component, then drop members whose removal improves W.
    let mut solution: Vec<NodeId> = members;
    solution.sort_unstable();
    solution.dedup();
    let mut best_w = match mwc_graph::wiener::wiener_index_of_subset(g, &solution)? {
        Some(w) => w,
        None => {
            // Disconnected leftovers: restrict to Q's component.
            let sub = g.induced(&solution)?;
            let q0 = sub.to_local(q[0]).expect("query member");
            let dist = ws.run(sub.graph(), q0).to_vec();
            solution = (0..sub.num_nodes() as NodeId)
                .filter(|&v| dist[v as usize] != INF_DIST)
                .map(|v| sub.to_global(v))
                .collect();
            // Hop-connected, yet a weighted distance may saturate at
            // INF_DIST and read as unreachable.
            mwc_graph::wiener::wiener_index_of_subset(g, &solution)?.ok_or_else(|| {
                CoreError::UnsupportedInstance {
                    what: "greedy-wiener: a weighted distance in the solution saturates u32"
                        .to_string(),
                }
            })?
        }
    };
    loop {
        let mut improved = false;
        for &v in &solution.clone() {
            if q.binary_search(&v).is_ok() {
                continue;
            }
            let candidate: Vec<NodeId> = solution.iter().copied().filter(|&x| x != v).collect();
            if let Some(w) = mwc_graph::wiener::wiener_index_of_subset(g, &candidate)? {
                if w < best_w {
                    solution = candidate;
                    best_w = w;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Ok(Connector::new_unchecked(g, solution))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{karate::karate_club, structured};

    #[test]
    fn connects_and_contains_query() {
        let g = karate_club();
        let q: Vec<NodeId> = vec![11, 24, 25, 29];
        let c = greedy_wiener(&g, &q).unwrap();
        assert!(c.contains_all(&q));
        assert!(Connector::new(&g, c.vertices()).is_ok());
        assert!(c.len() <= 12, "greedy solution too large: {}", c.len());
    }

    #[test]
    fn already_connected_query_is_kept_small() {
        let g = structured::complete(6);
        let c = greedy_wiener(&g, &[1, 4]).unwrap();
        assert_eq!(c.vertices(), &[1, 4]);
    }

    #[test]
    fn path_query() {
        let g = structured::path(9);
        let c = greedy_wiener(&g, &[0, 8]).unwrap();
        assert_eq!(c.len(), 9);
    }

    #[test]
    fn figure2_adds_a_root() {
        let g = structured::figure2_graph(10);
        let q: Vec<NodeId> = (0..10).collect();
        let c = greedy_wiener(&g, &q).unwrap();
        let w = c.wiener_index(&g).unwrap();
        assert!(w <= 165, "greedy should not exceed the bare line (got {w})");
    }

    #[test]
    fn infeasible_errors() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(greedy_wiener(&g, &[0, 3]).is_err());
    }

    #[test]
    fn saturating_weighted_distances_are_an_error() {
        // Q's hop component is the whole path, but d(0, 5) = 5·(2^30 − 1)
        // saturates u32, so no exact W exists.
        let w = mwc_graph::MAX_EDGE_WEIGHT;
        let edges: Vec<(NodeId, NodeId, u32)> = (0..5).map(|v| (v, v + 1, w)).collect();
        let g = Graph::from_weighted_edges(6, &edges).unwrap();
        let err = greedy_wiener(&g, &[0, 5]).unwrap_err();
        assert!(
            matches!(err, CoreError::UnsupportedInstance { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn budget_guard_fires() {
        let g = structured::path(40);
        let cfg = GreedyWienerConfig { max_size: 5 };
        let err = greedy_wiener_with_config(&g, &[0, 39], &cfg).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedInstance { .. }));
    }

    #[test]
    fn wsq_is_no_worse_on_karate() {
        let g = karate_club();
        for q in [vec![0u32, 33], vec![11, 24, 25, 29]] {
            let gw = greedy_wiener(&g, &q).unwrap().wiener_index(&g).unwrap();
            let wsq = mwc_core::minimum_wiener_connector(&g, &q)
                .unwrap()
                .wiener_index;
            // ws-q should be competitive with the greedy straw man.
            assert!(
                wsq as f64 <= 1.3 * gw as f64,
                "wsq {wsq} vs greedy {gw} for {q:?}"
            );
        }
    }
}
