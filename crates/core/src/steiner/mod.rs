//! Steiner tree machinery: union-find, Kruskal MST, and three classical
//! approximation algorithms.
//!
//! Algorithm 1 solves a Steiner instance per `(root, λ)` candidate; the
//! paper uses Mehlhorn's 2-approximation (§4 Corollary 3). Two more
//! 2-approximations — Kou–Markowsky–Berman (the algorithm Mehlhorn
//! accelerates) and the Takahashi–Matsuyama path heuristic — are provided
//! both as cross-validation for Mehlhorn's implementation and as the
//! subroutine ablation in the bench suite (DESIGN.md §7).

pub(crate) mod expand;
pub mod klein_ravi;
pub mod kmb;
pub mod mehlhorn;
pub mod mst;
pub mod takahashi;
pub mod unionfind;

pub use klein_ravi::klein_ravi;
pub use kmb::kou_markowsky_berman;
pub use mehlhorn::{mehlhorn_steiner, mehlhorn_steiner_with, SteinerTree, SteinerWorkspace};
pub use mst::{kruskal, WeightedEdge};
pub use takahashi::takahashi_matsuyama;
pub use unionfind::UnionFind;

use mwc_graph::{Graph, NodeId};

use crate::error::Result;

/// Which Steiner subroutine to run (all are `2(1 − 1/|Q|)`-approximations,
/// so Algorithm 1's guarantee holds with any of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteinerAlgorithm {
    /// Mehlhorn (1988): Voronoi-partitioned terminal distance graph — the
    /// paper's choice and the fastest (`O(|E| + |V| log |V|)`).
    #[default]
    Mehlhorn,
    /// Kou–Markowsky–Berman (1981): exact terminal distance graph, one
    /// Dijkstra per terminal.
    KouMarkowskyBerman,
    /// Takahashi–Matsuyama (1980): iterative nearest-terminal attachment.
    TakahashiMatsuyama,
}

/// Runs the selected Steiner algorithm. See the per-algorithm functions
/// for the contract ([`mehlhorn_steiner`] documents it in full).
pub fn steiner_tree<W>(
    algorithm: SteinerAlgorithm,
    g: &Graph,
    terminals: &[NodeId],
    weight: W,
) -> Result<SteinerTree>
where
    W: Fn(NodeId, NodeId) -> f64,
{
    steiner_tree_with(&mut SteinerWorkspace::new(), algorithm, g, terminals, weight)
}

/// [`steiner_tree`] with Mehlhorn's buffers reused from `ws` (the other
/// algorithms ignore it).
pub fn steiner_tree_with<W>(
    ws: &mut SteinerWorkspace,
    algorithm: SteinerAlgorithm,
    g: &Graph,
    terminals: &[NodeId],
    weight: W,
) -> Result<SteinerTree>
where
    W: Fn(NodeId, NodeId) -> f64,
{
    match algorithm {
        SteinerAlgorithm::Mehlhorn => mehlhorn_steiner_with(ws, g, terminals, weight),
        SteinerAlgorithm::KouMarkowskyBerman => kou_markowsky_berman(g, terminals, weight),
        SteinerAlgorithm::TakahashiMatsuyama => takahashi_matsuyama(g, terminals, weight),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::structured;

    #[test]
    fn dispatcher_reaches_every_algorithm() {
        let g = structured::grid(4, 4, false);
        let q = [0u32, 15];
        for alg in [
            SteinerAlgorithm::Mehlhorn,
            SteinerAlgorithm::KouMarkowskyBerman,
            SteinerAlgorithm::TakahashiMatsuyama,
        ] {
            let t = steiner_tree(alg, &g, &q, |_, _| 1.0).unwrap();
            assert!(t.validate());
            // |Q| = 2 → all three return a shortest path of length 6.
            assert_eq!(t.total_weight, 6.0, "{alg:?}");
        }
    }

    #[test]
    fn default_is_mehlhorn() {
        assert_eq!(SteinerAlgorithm::default(), SteinerAlgorithm::Mehlhorn);
    }
}
