//! Kou–Markowsky–Berman 2-approximation for Steiner trees (1981).
//!
//! The textbook predecessor of Mehlhorn's algorithm: build the *complete*
//! terminal distance graph (one Dijkstra per terminal), take its MST,
//! expand MST edges into shortest paths, take the MST of the expansion,
//! and prune non-terminal leaves. Mehlhorn's contribution was replacing
//! the `|Q|` Dijkstras with one Voronoi-partitioned run; KMB serves as the
//! reference implementation the faster variant is validated against, and
//! as an ablation subroutine inside Algorithm 1.

use mwc_graph::traversal::dijkstra::{dijkstra, DijkstraResult};
use mwc_graph::{Graph, NodeId, NO_NODE};

use crate::error::{CoreError, Result};
use crate::steiner::expand::mst_then_prune;
use crate::steiner::mehlhorn::SteinerTree;
use crate::steiner::mst::{kruskal, WeightedEdge};

/// Computes an approximately minimum Steiner tree for `terminals` in `g`
/// with the Kou–Markowsky–Berman algorithm. Same contract as
/// [`mehlhorn_steiner`](crate::steiner::mehlhorn_steiner).
///
/// `O(|Q| (|E| + |V| log |V|))` — one Dijkstra per terminal.
pub fn kou_markowsky_berman<W>(g: &Graph, terminals: &[NodeId], weight: W) -> Result<SteinerTree>
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

    // Step 1: single-source Dijkstra from every terminal.
    let runs: Vec<DijkstraResult> = terms.iter().map(|&t| dijkstra(g, t, &weight)).collect();

    // Step 2: MST of the complete terminal distance graph.
    let mut kq_edges: Vec<WeightedEdge> = Vec::with_capacity(terms.len() * (terms.len() - 1) / 2);
    for (i, run) in runs.iter().enumerate() {
        for (j, &tj) in terms.iter().enumerate().skip(i + 1) {
            let d = run.dist[tj as usize];
            if !d.is_finite() {
                return Err(CoreError::QueryNotConnectable);
            }
            kq_edges.push((d, i as u32, j as u32));
        }
    }
    let (term_mst, _) = kruskal(terms.len(), &mut kq_edges);
    debug_assert_eq!(term_mst.len() + 1, terms.len());

    // Step 3: expand each MST edge (i, j) into the shortest path realized
    // by terminal i's Dijkstra tree.
    let mut sub_nodes: Vec<NodeId> = terms.clone();
    let mut sub_edges: Vec<(NodeId, NodeId)> = Vec::new();
    for &(_, i, j) in &term_mst {
        let run = &runs[i as usize];
        let mut cur = terms[j as usize];
        while run.parent[cur as usize] != NO_NODE {
            let p = run.parent[cur as usize];
            sub_nodes.push(p);
            sub_edges.push((cur.min(p), cur.max(p)));
            cur = p;
        }
    }
    sub_nodes.sort_unstable();
    sub_nodes.dedup();
    sub_edges.sort_unstable();
    sub_edges.dedup();

    // Steps 4–5: MST of the expansion + leaf pruning (shared with
    // Mehlhorn's steps 5–6).
    Ok(mst_then_prune(&terms, &sub_nodes, &sub_edges, &weight))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steiner::{mehlhorn_steiner, takahashi::takahashi_matsuyama};
    use mwc_graph::generators::structured;
    use rand::SeedableRng;

    const UNIT: fn(NodeId, NodeId) -> f64 = |_, _| 1.0;

    #[test]
    fn two_terminals_give_shortest_path() {
        let g = structured::grid(5, 5, false);
        let t = kou_markowsky_berman(&g, &[0, 24], UNIT).unwrap();
        assert!(t.validate());
        assert_eq!(t.total_weight, 8.0);
    }

    #[test]
    fn singleton_duplicates_and_errors() {
        let g = structured::path(4);
        assert_eq!(
            kou_markowsky_berman(&g, &[1], UNIT).unwrap(),
            SteinerTree::singleton(1)
        );
        assert_eq!(
            kou_markowsky_berman(&g, &[1, 1, 1], UNIT).unwrap(),
            SteinerTree::singleton(1)
        );
        assert!(matches!(
            kou_markowsky_berman(&g, &[], UNIT),
            Err(CoreError::EmptyQuery)
        ));
        let disc = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            kou_markowsky_berman(&disc, &[0, 2], UNIT),
            Err(CoreError::QueryNotConnectable)
        ));
    }

    #[test]
    fn star_terminals_use_the_hub() {
        let g = structured::star(8);
        let t = kou_markowsky_berman(&g, &[1, 3, 5, 7], UNIT).unwrap();
        assert!(t.contains(0));
        assert_eq!(t.total_weight, 4.0);
    }

    #[test]
    fn figure2_steiner_tree_is_the_query_line() {
        // Figure 2 of the paper: the Steiner tree over the 10 line
        // vertices is the line itself (9 edges) — the roots don't help a
        // *Steiner* objective.
        let g = structured::figure2_graph(10);
        let q: Vec<NodeId> = (0..10).collect();
        let t = kou_markowsky_berman(&g, &q, UNIT).unwrap();
        assert_eq!(t.total_weight, 9.0);
    }

    #[test]
    fn agrees_with_mehlhorn_and_tm_on_trees() {
        let g = structured::balanced_tree(3, 3);
        let q = [1u32, 7, 20, 35];
        let kmb = kou_markowsky_berman(&g, &q, UNIT).unwrap();
        let me = mehlhorn_steiner(&g, &q, UNIT).unwrap();
        let tm = takahashi_matsuyama(&g, &q, UNIT).unwrap();
        assert_eq!(kmb.total_weight, me.total_weight);
        assert_eq!(kmb.total_weight, tm.total_weight);
        assert_eq!(kmb.nodes, me.nodes);
    }

    #[test]
    fn mutual_factor_two_with_mehlhorn_on_random_graphs() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..8 {
            let g = mwc_graph::generators::gnm(60, 140, &mut rng);
            let Ok((lc, _)) = mwc_graph::connectivity::largest_component_graph(&g) else {
                continue;
            };
            let n = lc.num_nodes() as NodeId;
            let terms: Vec<NodeId> = (0..6).map(|_| rng.gen_range(0..n)).collect();
            let kmb = kou_markowsky_berman(&lc, &terms, UNIT).unwrap();
            let me = mehlhorn_steiner(&lc, &terms, UNIT).unwrap();
            assert!(kmb.validate());
            assert!(kmb.total_weight <= 2.0 * me.total_weight + 1e-9);
            assert!(me.total_weight <= 2.0 * kmb.total_weight + 1e-9);
            for &q in &terms {
                assert!(kmb.contains(q));
            }
        }
    }

    #[test]
    fn respects_weight_function() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let heavy = |u: NodeId, v: NodeId| {
            if (u.min(v), u.max(v)) == (0, 2) {
                10.0
            } else {
                1.0
            }
        };
        let t = kou_markowsky_berman(&g, &[0, 2], heavy).unwrap();
        assert_eq!(t.total_weight, 2.0);
    }
}
