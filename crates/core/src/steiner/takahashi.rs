//! Takahashi–Matsuyama shortest-path heuristic for Steiner trees (1980).
//!
//! Grow the tree from one terminal; at each step connect the terminal
//! nearest to the current tree via a shortest path. Same `2(1 − 1/|Q|)`
//! approximation factor as Mehlhorn's algorithm, but a different — often
//! smaller, path-shaped — tree, which makes it an informative ablation
//! subroutine inside Algorithm 1 (the `ablation` bench bin).
//!
//! Each round is a multi-source Dijkstra from the current tree vertices,
//! so the total cost is `O(|Q| (|E| + |V| log |V|))` — the same order as
//! the rest of `ws-q`.

use mwc_graph::hash::FxHashSet;
use mwc_graph::traversal::dijkstra::multi_source_dijkstra;
use mwc_graph::{Graph, NodeId, NO_NODE};

use crate::error::{CoreError, Result};
use crate::steiner::mehlhorn::SteinerTree;

/// Computes an approximately minimum Steiner tree for `terminals` in `g`
/// by iterative nearest-terminal attachment. Accepts the same weight
/// closure contract as [`mehlhorn_steiner`](crate::steiner::mehlhorn_steiner):
/// symmetric, non-negative.
pub fn takahashi_matsuyama<W>(g: &Graph, terminals: &[NodeId], weight: W) -> Result<SteinerTree>
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

    let mut in_tree: FxHashSet<NodeId> = FxHashSet::default();
    in_tree.insert(terms[0]);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut total = 0.0f64;
    let mut remaining: Vec<NodeId> = terms[1..].to_vec();

    while !remaining.is_empty() {
        let sources: Vec<NodeId> = in_tree.iter().copied().collect();
        let voronoi = multi_source_dijkstra(g, &sources, &weight);
        // Nearest remaining terminal to the tree.
        let (pos, &next) = remaining
            .iter()
            .enumerate()
            .min_by(|a, b| voronoi.dist[*a.1 as usize].total_cmp(&voronoi.dist[*b.1 as usize]))
            .expect("remaining is non-empty");
        if !voronoi.dist[next as usize].is_finite() {
            return Err(CoreError::QueryNotConnectable);
        }
        remaining.swap_remove(pos);
        // Attach the shortest path from `next` back into the tree. Tree
        // vertices are Dijkstra sources (distance 0, no parent), so the
        // parent walk stops exactly at the attachment point.
        let mut cur = next;
        while !in_tree.contains(&cur) {
            let p = voronoi.parent[cur as usize];
            debug_assert_ne!(p, NO_NODE, "non-tree vertex on a finite path has a parent");
            edges.push((cur.min(p), cur.max(p)));
            total += weight(cur, p);
            in_tree.insert(cur);
            cur = p;
        }
    }

    let mut nodes: Vec<NodeId> = in_tree.into_iter().collect();
    nodes.sort_unstable();
    let tree = SteinerTree {
        nodes,
        edges,
        total_weight: total,
    };
    debug_assert!(tree.validate(), "Takahashi–Matsuyama output must be a tree");
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steiner::mehlhorn_steiner;
    use mwc_graph::generators::{karate::karate_club, structured};
    use rand::SeedableRng;

    const UNIT: fn(NodeId, NodeId) -> f64 = |_, _| 1.0;

    #[test]
    fn two_terminals_give_shortest_path() {
        let g = structured::grid(5, 5, false);
        let t = takahashi_matsuyama(&g, &[0, 24], UNIT).unwrap();
        assert!(t.validate());
        assert_eq!(t.total_weight, 8.0);
        assert_eq!(t.num_nodes(), 9);
    }

    #[test]
    fn single_duplicate_and_empty_terminals() {
        let g = structured::path(5);
        assert_eq!(
            takahashi_matsuyama(&g, &[3], UNIT).unwrap(),
            SteinerTree::singleton(3)
        );
        assert_eq!(
            takahashi_matsuyama(&g, &[2, 2], UNIT).unwrap(),
            SteinerTree::singleton(2)
        );
        assert!(matches!(
            takahashi_matsuyama(&g, &[], UNIT),
            Err(CoreError::EmptyQuery)
        ));
    }

    #[test]
    fn disconnected_terminals_error() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            takahashi_matsuyama(&g, &[0, 3], UNIT),
            Err(CoreError::QueryNotConnectable)
        ));
    }

    #[test]
    fn star_terminals_use_the_hub() {
        let g = structured::star(8);
        let t = takahashi_matsuyama(&g, &[1, 3, 5, 7], UNIT).unwrap();
        assert!(t.contains(0));
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.total_weight, 4.0);
    }

    #[test]
    fn tree_input_gives_the_unique_steiner_tree() {
        // On a tree, every heuristic must return the same (unique) answer.
        let g = structured::balanced_tree(2, 4);
        let q = [3u32, 11, 25];
        let tm = takahashi_matsuyama(&g, &q, UNIT).unwrap();
        let me = mehlhorn_steiner(&g, &q, UNIT).unwrap();
        assert_eq!(tm.total_weight, me.total_weight);
        assert_eq!(tm.nodes, me.nodes);
    }

    #[test]
    fn within_mutual_factor_two_of_mehlhorn() {
        // Both are 2-approximations, so neither can be more than twice
        // the other.
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let g = mwc_graph::generators::gnm(60, 150, &mut rng);
            let Ok((lc, _)) = mwc_graph::connectivity::largest_component_graph(&g) else {
                continue;
            };
            let n = lc.num_nodes() as NodeId;
            let terms: Vec<NodeId> = (0..5).map(|_| rng.gen_range(0..n)).collect();
            let tm = takahashi_matsuyama(&lc, &terms, UNIT).unwrap();
            let me = mehlhorn_steiner(&lc, &terms, UNIT).unwrap();
            assert!(tm.validate());
            assert!(tm.total_weight <= 2.0 * me.total_weight + 1e-9);
            assert!(me.total_weight <= 2.0 * tm.total_weight + 1e-9);
            for &q in &terms {
                assert!(tm.contains(q));
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
        let t = takahashi_matsuyama(&g, &[0, 2], heavy).unwrap();
        assert_eq!(t.num_nodes(), 3, "should detour through vertex 1");
        assert_eq!(t.total_weight, 2.0);
    }

    #[test]
    fn no_nonterminal_leaves_on_karate() {
        let g = karate_club();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        use rand::Rng;
        for _ in 0..10 {
            let terms: Vec<NodeId> = (0..4).map(|_| rng.gen_range(0..34)).collect();
            let t = takahashi_matsuyama(&g, &terms, UNIT).unwrap();
            let adj = t.adjacency();
            for (&v, nbrs) in &adj {
                if nbrs.len() <= 1 && t.num_nodes() > 1 {
                    assert!(terms.contains(&v), "non-terminal leaf {v}");
                }
            }
        }
    }
}
