//! `AdjustDistances` — the distance-balancing post-processing step of
//! Algorithm 1 (paper Appendix A.3, Lemma 2), adapted from Khuller,
//! Raghavachari & Young's LAST construction ("Balancing minimum spanning
//! trees and shortest-path trees", Algorithmica 1995).
//!
//! Given a subtree `T` of `G` and a root `r`, the algorithm DFS-traverses
//! `T` maintaining a distance estimate `d[·]` from `r`; whenever a vertex
//! `u` drifts beyond `(1 + √2) · d_G(r, u)`, the shortest path from `r` to
//! `u` (along the BFS tree of `G`) is grafted in. The output tree `T'`
//! satisfies (Lemma 2):
//!
//! * (a) `V(T') ⊇ V(T)`;
//! * (b) `|V(T')| ≤ (1 + √2) · |V(T)|`;
//! * (c) `d_{T'}(r, v) ≤ (1 + √2) · d_G(r, v)` for all `v ∈ V(T')`;
//! * (d) `Σ_{v ∈ V(T')} d_G(r, v) ≤ √2 · Σ_{v ∈ V(T)} d_G(r, v)`.
//!
//! These are exactly the properties Corollary 2 needs to convert a good
//! `Ã(T, r)` (distances in `G`) into a good `A(T', r)` (distances inside
//! the solution). All four are enforced by tests below.
//!
//! One transcription note: Algorithm 4 in the paper relaxes
//! `relax(p_S[v], v)` while walking *up* the BFS parent chain, which can
//! relax against a vertex whose estimate is still `∞`. We therefore walk up
//! first (until an ancestor with a tight estimate `d[v] = d_S[v]` is found —
//! at worst the root) and then relax *downward* along the chain, which is
//! the order Khuller et al.'s Lemma 3.2 argument actually uses. The
//! estimates `d` only ever store lengths of real walks from `r` in `G`, so
//! `d[v] ≥ d_S[v]` throughout and the upward walk terminates.

use mwc_graph::hash::FxHashMap;
use mwc_graph::{Graph, NodeId, NO_NODE};

use crate::steiner::SteinerTree;

/// The balancing threshold `α = 1 + √2`.
pub const ALPHA: f64 = 1.0 + std::f64::consts::SQRT_2;

/// State of the relaxation: per-vertex distance estimate and tree parent,
/// over global ids (hash maps — the tree is small relative to `G`).
///
/// The BFS parent tree is consulted through a closure, not an array: the
/// batched solvers derive parents **on demand** from distance arrays
/// (`canonical_parent`'s lowest-id rule), and `AddPath` only ever touches
/// `O(|V(T')| · diameter)` chain vertices — materializing all `|V|`
/// parents per root would cost an extra `O(|V| + |E|)` pass and eat the
/// multi-source batching win.
struct Relaxation<'a, P> {
    d: FxHashMap<NodeId, u32>,
    p: FxHashMap<NodeId, NodeId>,
    dist_g: &'a [u32],
    parent_g: P,
    g: &'a Graph,
}

impl<P: Fn(NodeId) -> NodeId> Relaxation<'_, P> {
    #[inline]
    fn dist(&self, v: NodeId) -> u32 {
        self.d.get(&v).copied().unwrap_or(u32::MAX)
    }

    /// `relax(u, v)`: improves `d[v]` through the `G`-edge `(u, v)`.
    /// On weighted graphs the edge contributes its weight (the `d` and
    /// `dist_g` arrays then hold weighted distances); unweighted graphs
    /// keep the hop count (`edge_weight` is 1 without a lookup).
    #[inline]
    fn relax(&mut self, u: NodeId, v: NodeId) {
        let du = self.dist(u);
        debug_assert_ne!(du, u32::MAX, "relaxing from an unlabelled vertex");
        let cand = du.saturating_add(self.g.edge_weight(u, v));
        if self.dist(v) > cand {
            self.d.insert(v, cand);
            self.p.insert(v, u);
        }
    }

    /// `AddPath(u)`: grafts the `G`-shortest path from `r` to `u`.
    ///
    /// Walks the BFS-parent chain upward until an ancestor with a tight
    /// estimate (`d[v] = d_S[v]`), then relaxes downward, leaving every
    /// chain vertex with `d[v] = d_S[v]`. Each chain vertex's parent is
    /// resolved exactly once and remembered for the downward replay —
    /// the lookup may be an `O(deg)` on-demand derivation.
    fn add_path(&mut self, u: NodeId) {
        let mut chain: Vec<(NodeId, NodeId)> = Vec::new();
        let mut v = u;
        while self.dist(v) > self.dist_g[v as usize] {
            let p = (self.parent_g)(v);
            debug_assert_ne!(p, NO_NODE, "BFS parent chain must reach the root");
            chain.push((v, p));
            v = p;
        }
        for &(w, pw) in chain.iter().rev() {
            self.relax(pw, w);
            debug_assert_eq!(self.dist(w), self.dist_g[w as usize]);
        }
    }
}

/// Adjusts `tree` (a subtree of `g` containing `root`) so that distances
/// from `root` inside the output tree are within `1 + √2` of the distances
/// in `g`, per Lemma 2.
///
/// `dist_g` / `parent_g` are the BFS distances and parents from `root` in
/// `g` (Algorithm 1 already has them for every query vertex). Runs in
/// `O(|V(T')|)`.
///
/// # Panics
/// Panics (in debug builds) if `root` is not a tree vertex or the tree
/// touches vertices unreachable from `root` — neither occurs when called
/// from Algorithm 1, where the tree spans `Q` in `root`'s component.
pub fn adjust_distances(
    g: &Graph,
    tree: &SteinerTree,
    root: NodeId,
    dist_g: &[u32],
    parent_g: &[NodeId],
) -> SteinerTree {
    debug_assert_eq!(parent_g.len(), g.num_nodes());
    adjust_distances_with(g, tree, root, dist_g, |v| parent_g[v as usize])
}

/// [`adjust_distances`] with the BFS parent tree supplied as a lookup
/// function instead of a materialized array.
///
/// This is the entry point `ws-q`'s root sweep uses: its distance
/// kernels (BFS, or radix-heap Dijkstra on weighted graphs) produce
/// per-root *distance* arrays only, and parents are derived on demand by
/// [`canonical_parent`](mwc_graph::traversal::bfs::canonical_parent)
/// (lowest-id neighbor one level closer) — a pure function of the
/// distances, so every kernel grafts identical paths. Any
/// shortest-path-tree parent function preserves Lemma 2; the canonical
/// rule additionally makes the output deterministic across kernels.
pub fn adjust_distances_with<P: Fn(NodeId) -> NodeId>(
    g: &Graph,
    tree: &SteinerTree,
    root: NodeId,
    dist_g: &[u32],
    parent_g: P,
) -> SteinerTree {
    debug_assert!(tree.contains(root), "root must belong to the tree");
    debug_assert_eq!(dist_g.len(), g.num_nodes());
    let adj = tree.adjacency();
    let mut rx = Relaxation {
        d: FxHashMap::default(),
        p: FxHashMap::default(),
        dist_g,
        parent_g,
        g,
    };
    rx.d.reserve(tree.num_nodes() * 2);
    rx.d.insert(root, 0);

    // Iterative DFS reproducing Algorithm 3's exact relaxation order:
    //   dfs(u): maybe-AddPath(u); for child v: relax(u,v); dfs(v); relax(v,u)
    struct Frame {
        u: NodeId,
        tree_parent: NodeId,
        next_child: usize,
    }
    let mut stack = vec![Frame {
        u: root,
        tree_parent: NO_NODE,
        next_child: 0,
    }];
    // Entry check for the root (trivially tight, kept for symmetry).
    if rx.dist(root) as f64 > ALPHA * dist_g[root as usize] as f64 {
        rx.add_path(root);
    }
    while let Some(frame) = stack.last_mut() {
        let u = frame.u;
        let tree_parent = frame.tree_parent;
        let child_idx = frame.next_child;
        frame.next_child += 1;
        let children = adj.get(&u).expect("tree vertex has adjacency");
        if child_idx < children.len() {
            let v = children[child_idx];
            if v == tree_parent {
                continue;
            }
            rx.relax(u, v);
            if rx.dist(v) as f64 > ALPHA * dist_g[v as usize] as f64 {
                rx.add_path(v);
            }
            stack.push(Frame {
                u: v,
                tree_parent: u,
                next_child: 0,
            });
        } else {
            stack.pop();
            if tree_parent != NO_NODE {
                rx.relax(u, tree_parent);
            }
        }
    }

    // T' = { (v, p[v]) : v labelled, v ≠ root }.
    let mut nodes: Vec<NodeId> = rx.d.keys().copied().collect();
    nodes.sort_unstable();
    let mut edges: Vec<(NodeId, NodeId)> =
        rx.p.iter()
            .map(|(&v, &pv)| (v.min(pv), v.max(pv)))
            .collect();
    edges.sort_unstable();
    edges.dedup();
    let total_weight = edges.len() as f64;
    let out = SteinerTree {
        nodes,
        edges,
        total_weight,
    };
    debug_assert!(out.validate(), "adjusted output must be a tree");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steiner::mehlhorn_steiner;
    use mwc_graph::generators::{barabasi_albert, gnm, structured};
    use mwc_graph::traversal::bfs::bfs_parents;
    use mwc_graph::wiener;
    use rand::{Rng, SeedableRng};

    const UNIT: fn(NodeId, NodeId) -> f64 = |_, _| 1.0;

    /// Distances from `root` inside a tree (BFS over the tree adjacency).
    fn tree_distances(tree: &SteinerTree, root: NodeId) -> FxHashMap<NodeId, u32> {
        let adj = tree.adjacency();
        let mut dist: FxHashMap<NodeId, u32> = FxHashMap::default();
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
        dist
    }

    fn check_lemma2(g: &Graph, tree: &SteinerTree, root: NodeId) -> SteinerTree {
        let bfs = bfs_parents(g, root);
        let out = adjust_distances(g, tree, root, &bfs.dist, &bfs.parent);
        assert!(out.validate());
        // (a) node superset
        for &v in &tree.nodes {
            assert!(out.contains(v), "(a) lost vertex {v}");
        }
        // (b) bounded growth
        assert!(
            out.num_nodes() as f64 <= ALPHA * tree.num_nodes() as f64 + 1e-9,
            "(b) grew from {} to {}",
            tree.num_nodes(),
            out.num_nodes()
        );
        // (c) stretch bound inside T'
        let dt = tree_distances(&out, root);
        assert_eq!(dt.len(), out.num_nodes(), "output tree connected");
        for (&v, &d_in_tree) in &dt {
            let d_g = bfs.dist[v as usize] as f64;
            assert!(
                d_in_tree as f64 <= ALPHA * d_g + 1e-9,
                "(c) vertex {v}: tree dist {d_in_tree} vs {} in G",
                bfs.dist[v as usize]
            );
        }
        // (d) total distance growth
        let sum =
            |nodes: &[NodeId]| -> u64 { nodes.iter().map(|&v| bfs.dist[v as usize] as u64).sum() };
        assert!(
            sum(&out.nodes) as f64 <= std::f64::consts::SQRT_2 * sum(&tree.nodes) as f64 + 1e-9,
            "(d) distance sum grew too much"
        );
        out
    }

    #[test]
    fn identity_on_shortest_path_trees() {
        // A BFS tree is already balanced: no vertices should be added.
        let g = structured::grid(6, 6, false);
        let bfs = bfs_parents(&g, 0);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for v in 1..g.num_nodes() as NodeId {
            let p = bfs.parent[v as usize];
            edges.push((v.min(p), v.max(p)));
        }
        edges.sort_unstable();
        let tree = SteinerTree {
            nodes: (0..g.num_nodes() as NodeId).collect(),
            edges,
            total_weight: (g.num_nodes() - 1) as f64,
        };
        let out = check_lemma2(&g, &tree, 0);
        assert_eq!(out.num_nodes(), tree.num_nodes());
    }

    #[test]
    fn grafts_shortcut_on_a_long_detour() {
        // Cycle C_12: the tree is the long way around from the root; vertices
        // opposite the root violate the α-bound and force a graft.
        let g = structured::cycle(12);
        // Tree = path 0-11-10-...-1 (the "wrong way" spanning tree).
        let mut edges: Vec<(NodeId, NodeId)> = vec![(0, 11)];
        for v in 1..11u32 {
            edges.push((v, v + 1));
        }
        let mut nodes: Vec<NodeId> = (0..12).collect();
        nodes.sort_unstable();
        let tree = SteinerTree {
            nodes,
            edges,
            total_weight: 11.0,
        };
        assert!(tree.validate());
        let out = check_lemma2(&g, &tree, 0);
        // The graft along 0→1→2… must bring distance of vertex ~5 below α·5.
        let dt = tree_distances(&out, 0);
        assert!(dt[&5] <= ((ALPHA * 5.0).floor()) as u32);
    }

    #[test]
    fn lemma2_holds_on_random_steiner_trees() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for round in 0..20 {
            let g = if round % 2 == 0 {
                barabasi_albert(150, 2, &mut rng)
            } else {
                let raw = gnm(150, 280, &mut rng);
                mwc_graph::connectivity::largest_component_graph(&raw)
                    .unwrap()
                    .0
            };
            let n = g.num_nodes() as NodeId;
            let terms: Vec<NodeId> = (0..6).map(|_| rng.gen_range(0..n)).collect();
            let tree = mehlhorn_steiner(&g, &terms, UNIT).unwrap();
            let root = terms[0];
            check_lemma2(&g, &tree, root);
        }
    }

    #[test]
    fn output_is_subgraph_of_g() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let g = barabasi_albert(100, 3, &mut rng);
        let terms: Vec<NodeId> = vec![0, 40, 80, 99];
        let tree = mehlhorn_steiner(&g, &terms, UNIT).unwrap();
        let bfs = bfs_parents(&g, terms[0]);
        let out = adjust_distances(&g, &tree, terms[0], &bfs.dist, &bfs.parent);
        for &(u, v) in &out.edges {
            assert!(g.has_edge(u, v), "edge ({u},{v}) not in G");
        }
    }

    #[test]
    fn adjusted_set_remains_connected_induced() {
        // The induced subgraph over the adjusted vertex set is what ws-q
        // finally evaluates; it must be connected (it contains the tree).
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        let g = barabasi_albert(200, 2, &mut rng);
        let terms: Vec<NodeId> = vec![3, 77, 150, 199];
        let tree = mehlhorn_steiner(&g, &terms, UNIT).unwrap();
        let bfs = bfs_parents(&g, terms[1]);
        let out = adjust_distances(&g, &tree, terms[1], &bfs.dist, &bfs.parent);
        let w = wiener::wiener_index_of_subset(&g, &out.nodes).unwrap();
        assert!(w.is_some(), "induced subgraph disconnected");
    }

    #[test]
    fn weighted_graft_respects_weighted_stretch_bound() {
        // Weighted cycle: light side 0 -1- 1 -1- 2, heavy side
        // 0 -10- 4 -10- 3 -10- 2. The tree takes the heavy way around, so
        // vertex 2 sits at weighted tree-distance 30 against d_G(0,2) = 2
        // — far beyond α·2 — and the light path must be grafted in.
        let g = Graph::from_weighted_edges(
            5,
            &[(0, 1, 1), (1, 2, 1), (0, 4, 10), (4, 3, 10), (3, 2, 10)],
        )
        .unwrap();
        let tree = SteinerTree {
            nodes: vec![0, 2, 3, 4],
            edges: vec![(0, 4), (2, 3), (3, 4)],
            total_weight: 3.0,
        };
        assert!(tree.validate());
        let mut ws = mwc_graph::traversal::radix::RadixWorkspace::new();
        let dist: Vec<u32> = ws.run(&g, 0).to_vec();
        assert_eq!(dist, vec![0, 1, 2, 12, 10]);
        let out = adjust_distances_with(&g, &tree, 0, &dist, |v| {
            mwc_graph::traversal::bfs::canonical_parent(&g, &dist, v)
        });
        assert!(out.validate());
        // (a) superset, and the light path's interior vertex was added.
        for &v in &tree.nodes {
            assert!(out.contains(v), "(a) lost vertex {v}");
        }
        assert!(out.contains(1), "graft must pull in vertex 1");
        // (c) weighted distances inside the output tree within α of d_G.
        let adj = out.adjacency();
        let mut dt: FxHashMap<NodeId, u32> = FxHashMap::default();
        dt.insert(0, 0);
        let mut frontier = vec![0u32];
        while let Some(u) = frontier.pop() {
            let du = dt[&u];
            for &v in &adj[&u] {
                let cand = du + g.edge_weight(u, v);
                if dt.get(&v).is_none_or(|&cur| cand < cur) {
                    dt.insert(v, cand);
                    frontier.push(v);
                }
            }
        }
        assert_eq!(dt.len(), out.num_nodes());
        for (&v, &d_in_tree) in &dt {
            assert!(
                d_in_tree as f64 <= ALPHA * dist[v as usize] as f64 + 1e-9,
                "(c) vertex {v}: {d_in_tree} vs {} in G",
                dist[v as usize]
            );
        }
        for &(u, v) in &out.edges {
            assert!(g.has_edge(u, v), "edge ({u},{v}) not in G");
        }
    }

    #[test]
    fn singleton_tree_passes_through() {
        let g = structured::path(4);
        let tree = SteinerTree::singleton(2);
        let bfs = bfs_parents(&g, 2);
        let out = adjust_distances(&g, &tree, 2, &bfs.dist, &bfs.parent);
        assert_eq!(out.nodes, vec![2]);
        assert!(out.edges.is_empty());
    }
}
