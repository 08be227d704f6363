//! Immutable compressed-sparse-row (CSR) graph.

use crate::builder::GraphBuilder;
use crate::error::{GraphError, Result};
use crate::subgraph::InducedSubgraph;
use crate::NodeId;

/// A simple, undirected graph in CSR form, optionally edge-weighted.
///
/// Invariants (established by [`GraphBuilder`]):
/// * no self-loops, no parallel edges,
/// * every adjacency list is sorted ascending (enables `O(log d)`
///   [`Graph::has_edge`] and linear-merge set operations),
/// * each undirected edge `{u, v}` is stored twice (`u → v` and `v → u`),
/// * when weighted, `weights` is CSR-aligned with `neighbors` (the weight
///   of the `i`-th adjacency entry is `weights[i]`), symmetric across the
///   two directions of an edge, and every weight is `>= 1`.
///
/// An absent weight array means the implicit uniform weight 1 — the
/// paper's unweighted setting — and every traversal kernel treats the two
/// identically.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<u32>,
    /// Concatenated sorted adjacency lists; length `2 * num_edges`.
    neighbors: Vec<NodeId>,
    /// CSR-aligned integer edge weights (`None` = uniform weight 1).
    weights: Option<Vec<u32>>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl Graph {
    /// Assembles a graph from pre-validated CSR arrays.
    ///
    /// Only callable from within the crate; external users go through
    /// [`GraphBuilder`] or [`Graph::from_edges`], which establish the
    /// invariants documented on the type.
    pub(crate) fn from_csr_parts(offsets: Vec<u32>, neighbors: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, neighbors.len());
        debug_assert_eq!(neighbors.len() % 2, 0);
        let num_edges = neighbors.len() / 2;
        Graph {
            offsets,
            neighbors,
            weights: None,
            num_edges,
        }
    }

    /// Assembles a weighted graph from pre-validated CSR arrays plus a
    /// CSR-aligned weight array (same invariants as
    /// [`Graph::from_csr_parts`], plus symmetric per-edge weights `>= 1`).
    pub(crate) fn from_csr_parts_weighted(
        offsets: Vec<u32>,
        neighbors: Vec<NodeId>,
        weights: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(neighbors.len(), weights.len());
        debug_assert!(weights.iter().all(|&w| w >= 1));
        let mut g = Graph::from_csr_parts(offsets, neighbors);
        g.weights = Some(weights);
        g
    }

    /// Builds a graph with `num_nodes` vertices from an undirected edge list.
    ///
    /// Self-loops are dropped and duplicate edges (in either orientation) are
    /// merged. Returns an error if an endpoint is `>= num_nodes`.
    ///
    /// ```
    /// use mwc_graph::Graph;
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 1), (1, 2)]).unwrap();
    /// assert_eq!(g.num_edges(), 2); // (0,1) deduped, (1,1) dropped
    /// ```
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Result<Self> {
        let mut b = GraphBuilder::with_capacity(num_nodes, edges.len());
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Builds a **weighted** graph from an undirected edge list with
    /// per-edge `u32` weights. Weights are clamped to `>= 1` (zero-weight
    /// edges would break shortest-path semantics), self-loops are dropped,
    /// and duplicate edges merge to the **minimum** weight seen (the only
    /// merge consistent with shortest paths).
    ///
    /// ```
    /// use mwc_graph::Graph;
    /// let g = Graph::from_weighted_edges(3, &[(0, 1, 4), (1, 0, 2), (1, 2, 7)]).unwrap();
    /// assert!(g.is_weighted());
    /// assert_eq!(g.edge_weight(0, 1), 2); // duplicate merged to min
    /// assert_eq!(g.edge_weight(1, 2), 7);
    /// ```
    pub fn from_weighted_edges(num_nodes: usize, edges: &[(NodeId, NodeId, u32)]) -> Result<Self> {
        let mut b = GraphBuilder::with_capacity(num_nodes, edges.len());
        for &(u, v, w) in edges {
            b.add_weighted_edge(u, v, w)?;
        }
        Ok(b.build())
    }

    /// An empty graph with `num_nodes` isolated vertices.
    pub fn empty(num_nodes: usize) -> Self {
        Graph {
            offsets: vec![0; num_nodes + 1],
            neighbors: Vec::new(),
            weights: None,
            num_edges: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted neighbors of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Whether the undirected edge `{u, v}` exists. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Whether the graph carries an explicit edge-weight array. Unweighted
    /// graphs behave as uniformly weight-1 everywhere.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// CSR-aligned weights of `v`'s adjacency list (same order as
    /// [`Graph::neighbors`]); `None` on unweighted graphs.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> Option<&[u32]> {
        let weights = self.weights.as_ref()?;
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        Some(&weights[lo..hi])
    }

    /// The full CSR-aligned weight array (`weights[i]` belongs to the
    /// `i`-th adjacency entry); `None` on unweighted graphs. The traversal
    /// kernels stream this alongside the adjacency array.
    #[inline]
    pub fn csr_weights(&self) -> Option<&[u32]> {
        self.weights.as_deref()
    }

    /// Weight of the edge `{u, v}`: 1 on unweighted graphs, the stored
    /// weight otherwise. `O(log deg(u))`.
    ///
    /// # Panics
    /// Debug builds assert the edge exists; release builds return 1 for a
    /// missing edge.
    #[inline]
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> u32 {
        let Some(weights) = self.weights.as_ref() else {
            return 1;
        };
        match self.neighbors(u).binary_search(&v) {
            Ok(i) => weights[self.offsets[u as usize] as usize + i],
            Err(_) => {
                debug_assert!(false, "edge_weight on missing edge ({u},{v})");
                1
            }
        }
    }

    /// Iterates over vertices `0..num_nodes`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterates over undirected edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterates over undirected edges with their weights (weight 1 on
    /// unweighted graphs), each reported once with `u < v`.
    pub fn weighted_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        self.nodes().flat_map(move |u| {
            let lo = self.offsets[u as usize] as usize;
            self.neighbors(u)
                .iter()
                .enumerate()
                .filter(move |&(_, &v)| u < v)
                .map(move |(i, &v)| {
                    let w = self.weights.as_ref().map_or(1, |ws| ws[lo + i]);
                    (u, v, w)
                })
        })
    }

    /// Maximum degree, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Validates that `v` is a vertex of this graph.
    #[inline]
    pub fn check_node(&self, v: NodeId) -> Result<()> {
        if (v as usize) < self.num_nodes() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: v as u64,
                num_nodes: self.num_nodes(),
            })
        }
    }

    /// The subgraph induced by `nodes` (deduplicated, order-insensitive),
    /// with a local/global id mapping. See [`InducedSubgraph`].
    pub fn induced(&self, nodes: &[NodeId]) -> Result<InducedSubgraph> {
        InducedSubgraph::new(self, nodes)
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("num_nodes", &self.num_nodes())
            .field("num_edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1-2 triangle, 2-3 tail.
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle_plus_tail();
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u), "({u},{v})");
            }
        }
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn edges_iterates_each_once_in_order() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.edges().next().is_none());
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_nodes(), 0);
        assert!(g.nodes().next().is_none());
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        let err = Graph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NodeOutOfRange {
                node: 5,
                num_nodes: 2
            }
        ));
    }

    #[test]
    fn check_node_bounds() {
        let g = Graph::empty(3);
        assert!(g.check_node(2).is_ok());
        assert!(g.check_node(3).is_err());
    }

    #[test]
    fn unweighted_graphs_report_uniform_weight_one() {
        let g = triangle_plus_tail();
        assert!(!g.is_weighted());
        assert_eq!(g.neighbor_weights(2), None);
        assert_eq!(g.csr_weights(), None);
        assert_eq!(g.edge_weight(0, 1), 1);
        let we: Vec<_> = g.weighted_edges().collect();
        assert_eq!(we, vec![(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)]);
    }

    #[test]
    fn weighted_edges_round_trip_with_symmetry() {
        let g =
            Graph::from_weighted_edges(4, &[(0, 1, 3), (1, 2, 9), (2, 0, 1), (2, 3, 5)]).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.num_edges(), 4);
        // Symmetric lookups agree, in both directions.
        for (u, v, w) in [(0u32, 1u32, 3u32), (1, 2, 9), (0, 2, 1), (2, 3, 5)] {
            assert_eq!(g.edge_weight(u, v), w, "({u},{v})");
            assert_eq!(g.edge_weight(v, u), w, "({v},{u})");
        }
        // CSR-aligned weights match the sorted adjacency.
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbor_weights(2).unwrap(), &[1, 9, 5]);
        let we: Vec<_> = g.weighted_edges().collect();
        assert_eq!(we, vec![(0, 1, 3), (0, 2, 1), (1, 2, 9), (2, 3, 5)]);
    }

    #[test]
    fn weighted_duplicates_merge_to_min_and_zero_clamps() {
        let g =
            Graph::from_weighted_edges(3, &[(0, 1, 7), (1, 0, 4), (0, 1, 9), (1, 2, 0)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), 4);
        assert_eq!(g.edge_weight(1, 2), 1); // zero clamps up to 1
    }
}
