//! The objective functions of the paper's relaxation chain (§4):
//!
//! * `W(H)` — the Wiener index (Problem 1), provided by `mwc_graph::wiener`;
//! * `A(H, r) = |V(H)| · Σ_u d_H(u, r)` (Problem 2, via Lemma 1:
//!   `A(H)/2 ≤ W(H) ≤ A(H)`);
//! * `Ã(H, r) = |V(H)| · Σ_u d_G(u, r)` — distances in the *input* graph
//!   (Problem 3);
//! * `B(H, r, λ) = λ|H| + Σ_u d_G(r, u) / λ` — the linearization
//!   (Problem 4, Lemma 3).

use mwc_graph::traversal::bfs::{BfsWorkspace, MsBfsWorkspace, MS_BFS_LANES};
use mwc_graph::traversal::radix::RadixWorkspace;
use mwc_graph::{Graph, NodeId};

use crate::error::{CoreError, Result};

/// `A(G[S], r)`: `|S| · Σ_{u ∈ S} d_{G[S]}(u, r)` with distances measured
/// inside the induced subgraph, computed by the direction-optimizing
/// BFS kernel, or the radix-heap Dijkstra on weighted graphs.
///
/// Errors if `r ∉ S`; returns `None` if `G[S]` is disconnected (the
/// objective is infinite).
pub fn objective_a(g: &Graph, vertices: &[NodeId], r: NodeId) -> Result<Option<u64>> {
    let sub = g.induced(vertices)?;
    let Some(r_local) = sub.to_local(r) else {
        return Err(CoreError::UnsupportedInstance {
            what: format!("root {r} not contained in the vertex set"),
        });
    };
    let (sum, reached) = if sub.graph().is_weighted() {
        let mut ws = RadixWorkspace::new();
        ws.run(sub.graph(), r_local);
        ws.last_run_distance_sum()
    } else {
        let mut ws = BfsWorkspace::new();
        ws.run_auto(sub.graph(), r_local);
        ws.last_run_distance_sum()
    };
    if reached != sub.num_nodes() {
        return Ok(None);
    }
    Ok(Some(sum * sub.num_nodes() as u64))
}

/// `A(H) = min_r A(H, r)` over all vertices of the induced subgraph,
/// returning `(argmin, value)`. `None` if disconnected.
///
/// On unweighted graphs the `|S|` single-source sweeps are batched
/// through the multi-source BFS kernel (64 roots per CSR sweep), so
/// evaluating every root costs a handful of passes over the subgraph
/// instead of `|S|`. Weighted graphs run one radix-heap Dijkstra per root.
pub fn objective_a_best_root(g: &Graph, vertices: &[NodeId]) -> Result<Option<(NodeId, u64)>> {
    let sub = g.induced(vertices)?;
    let k = sub.num_nodes();
    if k == 0 {
        return Err(CoreError::EmptyQuery);
    }
    let weighted = sub.graph().is_weighted();
    // Both allocate on first use; only the graph's kernel ever runs.
    let mut bfs = MsBfsWorkspace::new();
    let mut radix = RadixWorkspace::new();
    let mut best: Option<(NodeId, u64)> = None;
    for batch_lo in (0..k).step_by(MS_BFS_LANES) {
        let batch_hi = (batch_lo + MS_BFS_LANES).min(k);
        let sources: Vec<NodeId> = (batch_lo as NodeId..batch_hi as NodeId).collect();
        if !weighted {
            bfs.run(sub.graph(), &sources);
        }
        for (lane, &local) in sources.iter().enumerate() {
            let (sum, reached) = if weighted {
                radix.run(sub.graph(), local);
                radix.last_run_distance_sum()
            } else {
                bfs.distance_sum(lane)
            };
            if reached != k {
                return Ok(None);
            }
            let val = sum * k as u64;
            let global = sub.to_global(local);
            if best.is_none_or(|(_, b)| val < b) {
                best = Some((global, val));
            }
        }
    }
    Ok(best)
}

/// `Ã(H, r) = |H| · sum_dist_g` where `sum_dist_g = Σ_{u ∈ H} d_G(u, r)` is
/// computed by the caller from the precomputed BFS from `r`.
#[inline]
pub fn objective_a_tilde(num_vertices: usize, sum_dist_g: u64) -> u64 {
    num_vertices as u64 * sum_dist_g
}

/// `B(H, r, λ) = λ·|H| + sum_dist_g / λ` (Eq. 3).
#[inline]
pub fn objective_b(num_vertices: usize, sum_dist_g: u64, lambda: f64) -> f64 {
    debug_assert!(lambda > 0.0);
    lambda * num_vertices as f64 + sum_dist_g as f64 / lambda
}

/// The λ of Lemma 3 for a known solution: `λ* = sqrt(sum_dist / |H|)`,
/// the value at which `B` best mirrors `Ã` (by the AM–GM argument of
/// Lemma 10).
#[inline]
pub fn optimal_lambda(num_vertices: usize, sum_dist_g: u64) -> f64 {
    debug_assert!(num_vertices > 0);
    (sum_dist_g as f64 / num_vertices as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::structured;
    use mwc_graph::wiener::wiener_index_of_subset;
    use rand::{Rng, SeedableRng};

    #[test]
    fn objective_a_on_a_path() {
        let g = structured::path(5);
        // S = {0..4}, r = 0: Σd = 10, |S| = 5 → 50.
        let all: Vec<NodeId> = (0..5).collect();
        assert_eq!(objective_a(&g, &all, 0).unwrap(), Some(50));
        // r = 2 (center): Σd = 6 → 30.
        assert_eq!(objective_a(&g, &all, 2).unwrap(), Some(30));
        let (r, val) = objective_a_best_root(&g, &all).unwrap().unwrap();
        assert_eq!((r, val), (2, 30));
    }

    #[test]
    fn objective_a_requires_membership() {
        let g = structured::path(5);
        assert!(objective_a(&g, &[0, 1], 4).is_err());
    }

    #[test]
    fn objective_a_none_when_disconnected() {
        let g = structured::path(5);
        assert_eq!(objective_a(&g, &[0, 1, 3], 0).unwrap(), None);
        assert_eq!(objective_a_best_root(&g, &[0, 1, 3]).unwrap(), None);
    }

    #[test]
    fn weighted_objective_a_uses_weighted_distances() {
        // Path 0 -5- 1 -3- 2 -2- 3: A(·, r) must sum *weighted* distances.
        let g = Graph::from_weighted_edges(4, &[(0, 1, 5), (1, 2, 3), (2, 3, 2)]).unwrap();
        let all: Vec<NodeId> = (0..4).collect();
        // r = 0: Σd = 5 + 8 + 10 = 23 → 92.
        assert_eq!(objective_a(&g, &all, 0).unwrap(), Some(92));
        // r = 1 and r = 2 tie at Σd = 13 → 52; the scan keeps the first.
        let (r, val) = objective_a_best_root(&g, &all).unwrap().unwrap();
        assert_eq!((r, val), (1, 52));
        // Disconnected weighted subsets still report None.
        assert_eq!(objective_a(&g, &[0, 2, 3], 0).unwrap(), None);
        assert_eq!(objective_a_best_root(&g, &[0, 2, 3]).unwrap(), None);
    }

    #[test]
    fn lemma1_sandwich_on_random_subgraphs() {
        // Lemma 1: min_r Σ d_H(v,r) ≤ 2 W(H)/|V(H)| ≤ 2 min_r Σ d_H(v,r),
        // i.e. A(H)/2 ≤ W(H) ≤ A(H).
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for _ in 0..25 {
            let g = mwc_graph::generators::barabasi_albert(60, 2, &mut rng);
            let size = rng.gen_range(2..20);
            let mut set: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..60)).collect();
            set.sort_unstable();
            set.dedup();
            let Some(w) = wiener_index_of_subset(&g, &set).unwrap() else {
                continue; // disconnected sample
            };
            let Some((_, a)) = objective_a_best_root(&g, &set).unwrap() else {
                panic!("W finite but A infinite");
            };
            assert!(a / 2 <= w, "A/2 = {} > W = {w}", a / 2);
            assert!(w <= a, "W = {w} > A = {a}");
        }
    }

    #[test]
    fn b_at_optimal_lambda_squares_to_a_tilde() {
        // By AM–GM, B(H, r, λ*)² = 4 · Ã(H, r) at λ* = sqrt(Σd / |H|).
        for (k, sum) in [(3usize, 12u64), (7, 5), (10, 100), (1, 0)] {
            if sum == 0 {
                continue;
            }
            let lambda = optimal_lambda(k, sum);
            let b = objective_b(k, sum, lambda);
            let a = objective_a_tilde(k, sum) as f64;
            assert!((b * b - 4.0 * a).abs() < 1e-6, "k={k} sum={sum}");
        }
    }

    #[test]
    fn b_is_minimized_at_optimal_lambda() {
        let (k, sum) = (6usize, 57u64);
        let star = optimal_lambda(k, sum);
        let at_star = objective_b(k, sum, star);
        for factor in [0.5, 0.8, 1.25, 2.0] {
            assert!(objective_b(k, sum, star * factor) >= at_star - 1e-9);
        }
    }
}
