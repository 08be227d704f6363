//! `st` — the Steiner tree baseline: Mehlhorn's 2-approximation under the
//! graph's own edge weights (unit weights on unweighted graphs), exactly
//! the algorithm `ws-q` invokes internally on the reweighted graphs (§6.1).

use mwc_core::{mehlhorn_steiner, Connector, Result};
use mwc_graph::{Graph, NodeId};

/// Runs the `st` baseline; the solution is the vertex set of the
/// approximate Steiner tree (evaluated, like every method, as the induced
/// subgraph over its vertices).
pub fn steiner_tree_baseline(g: &Graph, q: &[NodeId]) -> Result<Connector> {
    // `edge_weight` is 1 on every edge of an unweighted graph.
    let tree = mehlhorn_steiner(g, q, |u, v| g.edge_weight(u, v) as f64)?;
    Ok(Connector::new_unchecked(g, tree.nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{karate::karate_club, structured};

    #[test]
    fn steiner_on_figure2_is_the_line() {
        // Fig 2: the optimal Steiner tree for the line query is the line
        // itself (W = 165) — the example of st being arbitrarily worse in
        // Wiener index than ws-q.
        let g = structured::figure2_graph(10);
        let q: Vec<NodeId> = (0..10).collect();
        let c = steiner_tree_baseline(&g, &q).unwrap();
        assert_eq!(c.vertices(), q.as_slice());
        assert_eq!(c.wiener_index(&g).unwrap(), 165);
    }

    #[test]
    fn small_solution_on_karate() {
        let g = karate_club();
        let q: Vec<NodeId> = vec![11, 24, 25, 29];
        let c = steiner_tree_baseline(&g, &q).unwrap();
        assert!(c.contains_all(&q));
        assert!(c.len() <= 10);
    }

    #[test]
    fn weighted_graphs_route_around_heavy_edges() {
        // 0–1 (1), 1–2 (1), 0–2 (100), 2–3 (1) with Q = {0, 2}: the cheap
        // detour through 1 beats the direct heavy edge.
        let g =
            Graph::from_weighted_edges(4, &[(0, 1, 1), (1, 2, 1), (0, 2, 100), (2, 3, 1)]).unwrap();
        let c = steiner_tree_baseline(&g, &[0, 2]).unwrap();
        assert_eq!(c.vertices(), &[0, 1, 2]);
    }

    #[test]
    fn two_terminals_shortest_path_length() {
        let g = structured::grid(5, 5, false);
        let c = steiner_tree_baseline(&g, &[0, 24]).unwrap();
        assert_eq!(c.len(), 9);
    }
}
