//! Steiner tree machinery: union-find, Kruskal MST, and three classical
//! approximation algorithms.
//!
//! Algorithm 1 solves a Steiner instance per `(root, λ)` candidate; the
//! paper uses Mehlhorn's 2-approximation (§4 Corollary 3). Two more
//! 2-approximations — Kou–Markowsky–Berman (the algorithm Mehlhorn
//! accelerates) and the Takahashi–Matsuyama path heuristic — are provided
//! both as cross-validation for Mehlhorn's implementation and as the
//! subroutine ablation of the `ablation` bench bin.

pub(crate) mod expand;
pub mod klein_ravi;
pub mod kmb;
pub mod mehlhorn;
pub mod mst;
pub mod takahashi;
pub mod unionfind;

pub use klein_ravi::klein_ravi;
pub use kmb::kou_markowsky_berman;
pub use mehlhorn::{
    mehlhorn_steiner, mehlhorn_steiner_with, Repeats, SteinerTree, SteinerWorkspace,
};
pub use mst::{kruskal, WeightedEdge};
pub use takahashi::takahashi_matsuyama;
pub use unionfind::UnionFind;

use std::sync::Mutex;

use mwc_graph::{Graph, NodeId};

use crate::error::Result;
use crate::steiner::mehlhorn::{dyadic_exponent, mehlhorn_dyadic};

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
    steiner_tree_with(
        &mut SteinerWorkspace::new(),
        algorithm,
        g,
        terminals,
        weight,
    )
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

/// Algorithm 1's per-`(root, λ)` instance `G_{r,λ}` (Lemma 4): a Steiner
/// tree for `terminals` under the edge cost `λ + max(p(u), p(v))/λ`, where
/// `p = potentials` holds an integer per vertex (ws-q's `d_G(r, ·)`).
///
/// Also returns the larger λ at which the same call provably returns the
/// same `nodes` and `edges`, so a sweep over an ascending λ grid can reuse
/// the tree there. Only Mehlhorn runs at `λ = 2^t` certify anything (the
/// proof is in the [`mehlhorn`] module doc); the other algorithms and λ
/// return [`Repeats::NONE`]. Trees equal [`steiner_tree_with`]'s under the
/// closure `λ + max(p(u), p(v)) as f64 / λ`.
///
/// # Panics
///
/// If `potentials` does not hold exactly one value per vertex of `g`.
pub fn lambda_steiner_with(
    ws: &mut SteinerWorkspace,
    algorithm: SteinerAlgorithm,
    g: &Graph,
    terminals: &[NodeId],
    lambda: f64,
    potentials: &[u32],
) -> Result<(SteinerTree, Repeats)> {
    assert_eq!(potentials.len(), g.num_nodes(), "one potential per vertex");
    match dyadic_exponent(lambda) {
        Some(t) if algorithm == SteinerAlgorithm::Mehlhorn => {
            mehlhorn_dyadic(ws, g, terminals, t, potentials)
        }
        _ => {
            let weight = |u: NodeId, v: NodeId| {
                lambda + potentials[u as usize].max(potentials[v as usize]) as f64 / lambda
            };
            let tree = steiner_tree_with(ws, algorithm, g, terminals, weight)?;
            Ok((tree, Repeats::NONE))
        }
    }
}

/// ws-q's Steiner calls for one root, over an ascending λ grid: each call
/// returns exactly what [`lambda_steiner_with`] returns there, tree and
/// certificate. The first call runs Mehlhorn afresh; a later Mehlhorn call
/// at a larger `λ = 2^t`, `0 ≤ t ≤ 26`, repairs the previous run instead,
/// re-growing only the Voronoi labels the new λ changes (the proof is in
/// the [`mehlhorn`] module doc). Every other call, and one whose keys
/// would not stay exact, runs afresh.
///
/// The sweep borrows the workspace and drops whatever run it kept.
pub struct LambdaSweep<'a> {
    ws: &'a mut SteinerWorkspace,
    algorithm: SteinerAlgorithm,
    g: &'a Graph,
    terminals: &'a [NodeId],
    potentials: &'a [u32],
}

impl<'a> LambdaSweep<'a> {
    /// A sweep of `lambda_steiner_with(ws, algorithm, g, terminals, λ,
    /// potentials)` calls.
    ///
    /// # Panics
    ///
    /// If `potentials` does not hold exactly one value per vertex of `g`.
    pub fn new(
        ws: &'a mut SteinerWorkspace,
        algorithm: SteinerAlgorithm,
        g: &'a Graph,
        terminals: &'a [NodeId],
        potentials: &'a [u32],
    ) -> Self {
        assert_eq!(potentials.len(), g.num_nodes(), "one potential per vertex");
        ws.forget();
        LambdaSweep {
            ws,
            algorithm,
            g,
            terminals,
            potentials,
        }
    }

    /// The tree and certificate at `lambda`, repaired from the previous
    /// call when that applies.
    pub fn solve(&mut self, lambda: f64) -> Result<(SteinerTree, Repeats)> {
        if self.algorithm == SteinerAlgorithm::Mehlhorn {
            if let Some(repaired) = dyadic_exponent(lambda).and_then(|t| self.ws.repair(self.g, t))
            {
                return repaired;
            }
        }
        let (g, terminals, potentials) = (self.g, self.terminals, self.potentials);
        lambda_steiner_with(self.ws, self.algorithm, g, terminals, lambda, potentials)
    }
}

/// Idle [`SteinerWorkspace`]s of an engine's root sweeps, so that a
/// sweep worker takes grown buffers instead of growing new ones each solve.
#[derive(Debug, Default)]
pub(crate) struct SteinerPool(Mutex<Vec<SteinerWorkspace>>);

impl SteinerPool {
    /// Takes an idle workspace, or a new one; dropping the lease returns
    /// it, unless its thread is unwinding from a panic.
    pub(crate) fn lease(&self) -> SteinerLease<'_> {
        let idle = self.0.lock().expect("workspace pool poisoned").pop();
        SteinerLease {
            pool: self,
            ws: idle.unwrap_or_default(),
        }
    }
}

/// A [`SteinerWorkspace`] leased from a [`SteinerPool`].
pub(crate) struct SteinerLease<'p> {
    pool: &'p SteinerPool,
    ws: SteinerWorkspace,
}

impl std::ops::Deref for SteinerLease<'_> {
    type Target = SteinerWorkspace;
    fn deref(&self) -> &SteinerWorkspace {
        &self.ws
    }
}

impl std::ops::DerefMut for SteinerLease<'_> {
    fn deref_mut(&mut self) -> &mut SteinerWorkspace {
        &mut self.ws
    }
}

impl Drop for SteinerLease<'_> {
    fn drop(&mut self) {
        // A workspace left by a panicking solve may be half used (an
        // expansion's `covered` bits still set, say): drop it instead.
        if std::thread::panicking() {
            return;
        }
        self.ws.trim();
        if let Ok(mut idle) = self.pool.0.lock() {
            idle.push(std::mem::take(&mut self.ws));
        }
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

    #[test]
    fn a_lease_dropped_while_unwinding_is_not_pooled() {
        let pool = SteinerPool::default();
        let idle = |pool: &SteinerPool| pool.0.lock().unwrap().len();
        drop(pool.lease());
        assert_eq!(idle(&pool), 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ws = pool.lease();
            panic!("a solve panics mid-call");
        }));
        assert!(unwound.is_err());
        assert_eq!(idle(&pool), 0, "the half-used workspace was dropped");
        drop(pool.lease());
        assert_eq!(idle(&pool), 1);
    }
}
