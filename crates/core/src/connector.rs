//! The [`Connector`] solution type shared by `ws-q`, the exact solvers, and
//! the baselines.

use mwc_graph::connectivity::is_connected_subset;
use mwc_graph::{wiener, Graph, InducedSubgraph, NodeId};

use crate::error::{CoreError, Result};

/// A connector for a query set: a vertex set `S ⊇ Q` whose induced
/// subgraph `G[S]` is connected (paper §2).
///
/// The struct stores only the vertex set; all derived quantities (Wiener
/// index, density, …) are computed against the graph on demand, since the
/// baselines can return solutions with tens of thousands of vertices where
/// eager evaluation would be wasteful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connector {
    vertices: Vec<NodeId>,
}

impl Connector {
    /// Wraps a vertex set after validating it is non-empty, in range, and
    /// induces a connected subgraph.
    pub fn new(g: &Graph, vertices: &[NodeId]) -> Result<Self> {
        let mut vs: Vec<NodeId> = vertices.to_vec();
        vs.sort_unstable();
        vs.dedup();
        if vs.is_empty() {
            return Err(CoreError::EmptyQuery);
        }
        for &v in &vs {
            g.check_node(v)?;
        }
        if !is_connected_subset(g, &vs)? {
            return Err(CoreError::Graph(mwc_graph::GraphError::Disconnected));
        }
        Ok(Connector { vertices: vs })
    }

    /// Wraps a vertex set that is connected by construction (e.g. the node
    /// set of a tree), skipping the `O(|S| log |S| + Σ deg)` validation of
    /// [`Connector::new`]. Debug builds still verify; callers in this
    /// workspace only use it for sets produced by a traversal.
    pub fn new_unchecked(g: &Graph, mut vertices: Vec<NodeId>) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        debug_assert!(is_connected_subset(g, &vertices).unwrap_or(false));
        let _ = g;
        Connector { vertices }
    }

    /// Wraps an already-solved vertex set *without* a graph to validate
    /// against — for re-inflating a connector received over a wire
    /// protocol (`mwc_service`'s client), where the graph lives on the
    /// other end. Sorts and dedups; connectivity is the sender's
    /// contract. Graph-dependent accessors ([`Connector::induced`],
    /// [`Connector::wiener_index`], …) still work once a graph is
    /// supplied, and error if the set does not fit it.
    pub fn from_vertices(mut vertices: Vec<NodeId>) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        Connector { vertices }
    }

    /// The sorted vertex set.
    pub fn vertices(&self) -> &[NodeId] {
        &self.vertices
    }

    /// Number of vertices `|V(H)|`.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the connector is empty (never true for validated
    /// connectors).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Whether `v` belongs to the connector.
    pub fn contains(&self, v: NodeId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// Whether the connector covers the whole query set.
    pub fn contains_all(&self, q: &[NodeId]) -> bool {
        q.iter().all(|&v| self.contains(v))
    }

    /// The induced subgraph `G[S]`.
    pub fn induced(&self, g: &Graph) -> Result<InducedSubgraph> {
        g.induced(&self.vertices).map_err(CoreError::from)
    }

    /// Exact Wiener index `W(G[S])`.
    ///
    /// `O(|S| · (|S| + |E[S]|))`; prefer [`Connector::wiener_index_sampled`]
    /// for very large baseline solutions.
    pub fn wiener_index(&self, g: &Graph) -> Result<u64> {
        self.wiener_index_with(g, false)
    }

    /// Exact Wiener index `W(G[S])`, with explicit control over the
    /// evaluation kernel. `prefer_sequential = true` pins the per-source
    /// loop even on connectors large enough (≥ 1024 vertices) for
    /// [`wiener::wiener_index`] to spawn its own worker threads — the
    /// contract batch workers need: N queries already saturate the cores,
    /// and a nested pool per large connector oversubscribes them. The
    /// value is identical either way (the property tests pin the two
    /// kernels against each other).
    ///
    /// Errors with `Graph(Disconnected)` when `G[S]` is disconnected, and
    /// with [`CoreError::UnsupportedInstance`] when it is connected but a
    /// distance inside it saturates `u32` (paths inside a connector can
    /// outgrow every distance in the graph).
    pub fn wiener_index_with(&self, g: &Graph, prefer_sequential: bool) -> Result<u64> {
        let sub = self.induced(g)?;
        let w = if prefer_sequential {
            wiener::wiener_index_sequential(sub.graph())
        } else {
            wiener::wiener_index(sub.graph())
        };
        match w {
            Some(w) => Ok(w),
            None if is_connected_subset(g, &self.vertices)? => {
                Err(CoreError::UnsupportedInstance {
                    what: format!(
                        "a distance inside the {}-vertex connector saturates u32",
                        self.vertices.len()
                    ),
                })
            }
            None => Err(CoreError::Graph(mwc_graph::GraphError::Disconnected)),
        }
    }

    /// Sampled Wiener index estimate (see
    /// [`mwc_graph::wiener::wiener_index_sampled`]).
    pub fn wiener_index_sampled<R: rand::Rng>(
        &self,
        g: &Graph,
        samples: usize,
        rng: &mut R,
    ) -> Result<f64> {
        let sub = self.induced(g)?;
        wiener::wiener_index_sampled(sub.graph(), samples, rng)
            .ok_or(CoreError::Graph(mwc_graph::GraphError::Disconnected))
    }

    /// Density of the induced subgraph, `|E[S]| / C(|S|, 2)` (Table 3's
    /// `δ(H)`).
    pub fn density(&self, g: &Graph) -> Result<f64> {
        let sub = self.induced(g)?;
        Ok(mwc_graph::metrics::density(sub.graph()))
    }

    /// Average of a per-vertex score (e.g. betweenness centrality of the
    /// *input* graph — Table 3's `bc(H)`) over the connector's vertices.
    pub fn average_score(&self, score: &[f64]) -> f64 {
        if self.vertices.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.vertices.iter().map(|&v| score[v as usize]).sum();
        sum / self.vertices.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::structured;

    #[test]
    fn validates_connectivity() {
        let g = structured::path(5);
        assert!(Connector::new(&g, &[1, 2, 3]).is_ok());
        assert!(Connector::new(&g, &[1, 3]).is_err());
        assert!(Connector::new(&g, &[]).is_err());
        assert!(Connector::new(&g, &[9]).is_err());
    }

    #[test]
    fn dedups_and_sorts() {
        let g = structured::path(5);
        let c = Connector::new(&g, &[3, 1, 2, 3]).unwrap();
        assert_eq!(c.vertices(), &[1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(c.contains(2));
        assert!(!c.contains(0));
        assert!(c.contains_all(&[1, 3]));
        assert!(!c.contains_all(&[1, 4]));
    }

    #[test]
    fn derived_metrics() {
        let g = structured::complete(6);
        let c = Connector::new(&g, &[0, 1, 2, 3]).unwrap();
        assert_eq!(c.wiener_index(&g).unwrap(), 6); // K4: all pairs at 1
        assert_eq!(c.density(&g).unwrap(), 1.0);
        let score = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(c.average_score(&score), 2.5);
    }

    #[test]
    fn sequential_and_parallel_wiener_agree_above_threshold() {
        // 40×40 grid: 1600 vertices, past the parallel kernel's 1024-node
        // cutoff, so `prefer_sequential = false` takes the multi-source
        // parallel path and `true` pins the per-source loop. Same value.
        let g = structured::grid(40, 40, false);
        let all: Vec<NodeId> = (0..1600).collect();
        let c = Connector::new_unchecked(&g, all);
        let parallel = c.wiener_index_with(&g, false).unwrap();
        let sequential = c.wiener_index_with(&g, true).unwrap();
        assert_eq!(parallel, sequential);
        assert_eq!(parallel, c.wiener_index(&g).unwrap());
        // Below the cutoff the two flags trivially agree too.
        let small = Connector::new(&g, &[0, 1, 2, 3]).unwrap();
        assert_eq!(
            small.wiener_index_with(&g, true).unwrap(),
            small.wiener_index_with(&g, false).unwrap()
        );
    }

    #[test]
    fn saturated_distances_inside_a_connector_are_refused_by_name() {
        // Hub 0 joined to 1..=6 at weight 1: the graph's eccentricities
        // are small, but inside {1, …, 6} the only route is the path of
        // weight 2^30 − 1 edges, and d(1, 6) = 5·(2^30 − 1) saturates.
        let heavy = mwc_graph::MAX_EDGE_WEIGHT;
        let mut edges: Vec<(NodeId, NodeId, u32)> = (1..=6).map(|v| (0, v, 1)).collect();
        edges.extend((1..6).map(|v| (v, v + 1, heavy)));
        let g = Graph::from_weighted_edges(7, &edges).unwrap();
        let c = Connector::new(&g, &[1, 2, 3, 4, 5, 6]).unwrap();
        for sequential in [false, true] {
            let err = c.wiener_index_with(&g, sequential).unwrap_err();
            assert!(
                matches!(&err, CoreError::UnsupportedInstance { what } if what.contains("saturates")),
                "{err:?}"
            );
        }
        // A set that is not connected inside the graph stays `Disconnected`.
        let split = Connector::from_vertices(vec![1, 3]);
        assert!(matches!(
            split.wiener_index(&g),
            Err(CoreError::Graph(mwc_graph::GraphError::Disconnected))
        ));
    }

    #[test]
    fn sampled_wiener_close_to_exact() {
        use rand::SeedableRng;
        let g = structured::grid(12, 12, false);
        let all: Vec<NodeId> = (0..144).collect();
        let c = Connector::new(&g, &all).unwrap();
        let exact = c.wiener_index(&g).unwrap() as f64;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let est = c.wiener_index_sampled(&g, 60, &mut rng).unwrap();
        assert!((est - exact).abs() / exact < 0.15);
    }
}
