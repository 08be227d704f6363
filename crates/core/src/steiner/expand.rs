//! Shared tail of the path-expansion Steiner heuristics: take the
//! expanded subgraph (union of shortest paths), compute its MST, and
//! repeatedly delete non-terminal leaves.
//!
//! Both Mehlhorn's algorithm (steps 5–6) and Kou–Markowsky–Berman
//! (steps 4–5) end with exactly this refinement; factoring it keeps the
//! two implementations honest about producing identical tree invariants.

use mwc_graph::NodeId;

use crate::steiner::mehlhorn::SteinerTree;
use crate::steiner::mst::{kruskal, WeightedEdge};

/// Builds the MST of the subgraph `(nodes, edges)` under `weight`, prunes
/// non-terminal leaves, and packages the result. `terms` and `nodes` must
/// be sorted and duplicate-free, `edges` duplicate-free with `u < v`;
/// `nodes` must contain every terminal and induce a connected subgraph via
/// `edges` (the expansion step guarantees all of this). Edge order does
/// not matter: Kruskal sorts by `(w, u, v)`.
pub(crate) fn mst_then_prune<W>(
    terms: &[NodeId],
    nodes: &[NodeId],
    edges: &[(NodeId, NodeId)],
    mut weight: W,
) -> SteinerTree
where
    W: FnMut(NodeId, NodeId) -> f64,
{
    let local = |v: NodeId| {
        nodes
            .binary_search(&v)
            .expect("edge endpoint in the node set") as u32
    };
    let mut local_edges: Vec<WeightedEdge> = edges
        .iter()
        .map(|&(u, v)| (weight(u, v), local(u), local(v)))
        .collect();
    let (sub_mst, _) = kruskal(nodes.len(), &mut local_edges);
    debug_assert_eq!(
        sub_mst.len() + 1,
        nodes.len(),
        "expanded subgraph must be connected"
    );

    // Prune non-terminal leaves repeatedly.
    let k = nodes.len();
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); k];
    for &(w, ul, vl) in &sub_mst {
        adj[ul as usize].push((vl, w));
        adj[vl as usize].push((ul, w));
    }
    let mut degree: Vec<u32> = adj.iter().map(|a| a.len() as u32).collect();
    let mut removed = vec![false; k];
    let is_terminal: Vec<bool> = nodes
        .iter()
        .map(|v| terms.binary_search(v).is_ok())
        .collect();
    let mut stack: Vec<u32> = (0..k as u32)
        .filter(|&v| degree[v as usize] <= 1 && !is_terminal[v as usize])
        .collect();
    while let Some(v) = stack.pop() {
        if removed[v as usize] || is_terminal[v as usize] || degree[v as usize] > 1 {
            continue;
        }
        removed[v as usize] = true;
        for &(nb, _) in &adj[v as usize] {
            if !removed[nb as usize] {
                degree[nb as usize] -= 1;
                if degree[nb as usize] <= 1 && !is_terminal[nb as usize] {
                    stack.push(nb);
                }
            }
        }
    }

    let mut out_nodes: Vec<NodeId> = Vec::with_capacity(k);
    for (i, &v) in nodes.iter().enumerate() {
        if !removed[i] {
            out_nodes.push(v);
        }
    }
    let mut out_edges: Vec<(NodeId, NodeId)> =
        Vec::with_capacity(out_nodes.len().saturating_sub(1));
    let mut total = 0.0f64;
    for &(w, ul, vl) in &sub_mst {
        if !removed[ul as usize] && !removed[vl as usize] {
            let (u, v) = (nodes[ul as usize], nodes[vl as usize]);
            out_edges.push((u.min(v), u.max(v)));
            total += w;
        }
    }

    let tree = SteinerTree {
        nodes: out_nodes,
        edges: out_edges,
        total_weight: total,
    };
    debug_assert!(tree.validate(), "refined output must be a tree");
    tree
}
