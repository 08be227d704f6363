//! Radix-heap Dijkstra — the weighted distance kernel.
//!
//! Every weighted search of the stack (ws-q's root distances, objective
//! `A(H, r)`, the Wiener index, the landmark oracle and the catalog's
//! load-time distance check) runs single-source shortest paths under
//! positive integer edge weights. Dijkstra's label-setting order is
//! *monotone*: every key pushed is at least the last key popped. A radix
//! heap (Ahuja, Mehlhorn, Orlin & Tarjan, 1990) exploits exactly that:
//! bucket `i` holds the keys whose highest bit differing from the last
//! popped key is bit `i − 1` (bucket 0 holds keys equal to it), so a push
//! is one `leading_zeros`, and a pop that finds bucket 0 empty moves the
//! lowest non-empty bucket's entries into strictly lower buckets. Each
//! entry moves at most 32 times, with no comparison-based sift and no
//! tuning parameter.
//!
//! Decrease-key is lazy: an improved vertex is pushed again and its old
//! entry, whose key no longer equals `dist[v]`, is discarded when it
//! surfaces. Arithmetic is `u32` and saturates at [`INF_DIST`], exactly
//! as [`DijkstraWorkspace`](super::dijkstra::DijkstraWorkspace) does, so
//! the two compute the same array on every input: the saturated
//! shortest-path length, with [`INF_DIST`] wherever the path sum reaches
//! `u32::MAX` or no path exists (pinned by property tests).

use crate::csr::Graph;
use crate::{NodeId, INF_DIST};

/// Bucket 0 plus one bucket per bit of a `u32` key.
const BUCKETS: usize = 33;

/// Single-source radix-heap Dijkstra over reusable buffers.
///
/// Distances equal [`DijkstraWorkspace`](super::dijkstra::DijkstraWorkspace)'s
/// on every graph. Unweighted graphs run with uniform weight 1, where the
/// distances are BFS distances. Pool instances through
/// [`WorkspacePool::lease_radix`](super::bfs::WorkspacePool::lease_radix).
///
/// ```
/// use mwc_graph::traversal::radix::RadixWorkspace;
/// use mwc_graph::Graph;
///
/// let g = Graph::from_weighted_edges(3, &[(0, 1, 10), (0, 2, 1), (2, 1, 2)]).unwrap();
/// let mut ws = RadixWorkspace::new();
/// assert_eq!(ws.run(&g, 0), &[0, 3, 1]);
/// assert_eq!(ws.last_run_distance_sum(), (4, 3));
/// ```
#[derive(Debug)]
pub struct RadixWorkspace {
    dist: Vec<u32>,
    /// `(key, vertex)` entries; see the module doc for the bucket rule.
    /// Boxed, so a lease of the workspace stays small.
    buckets: Box<[Vec<(u32, NodeId)>; BUCKETS]>,
    /// Vertices whose distance went finite — drives the sparse reset and
    /// the distance-sum scan.
    touched: Vec<NodeId>,
}

impl Default for RadixWorkspace {
    fn default() -> Self {
        RadixWorkspace {
            dist: Vec::new(),
            buckets: Box::new(std::array::from_fn(|_| Vec::new())),
            touched: Vec::new(),
        }
    }
}

impl RadixWorkspace {
    /// A workspace; buffers grow lazily to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shortest-path distances from `source` over the graph's integer
    /// weights (weight 1 throughout on unweighted graphs). Returns the
    /// filled distance slice ([`INF_DIST`] where unreachable).
    pub fn run(&mut self, g: &Graph, source: NodeId) -> &[u32] {
        let n = g.num_nodes();
        debug_assert!((source as usize) < n);
        if self.dist.len() != n {
            self.dist.clear();
            self.dist.resize(n, INF_DIST);
        } else {
            for &v in &self.touched {
                self.dist[v as usize] = INF_DIST;
            }
        }
        self.touched.clear();

        self.dist[source as usize] = 0;
        self.touched.push(source);
        self.buckets[0].push((0, source));
        // The last key popped: every live key is at least this.
        let mut last = 0u32;
        loop {
            if self.buckets[0].is_empty() && !self.refill(&mut last) {
                break;
            }
            let Some((du, u)) = self.buckets[0].pop() else {
                continue;
            };
            if du != self.dist[u as usize] {
                continue; // superseded by a later, shorter push
            }
            match g.neighbor_weights(u) {
                Some(ws) => {
                    for (&v, &w) in g.neighbors(u).iter().zip(ws) {
                        self.relax(v, du.saturating_add(w), last);
                    }
                }
                None => {
                    for &v in g.neighbors(u) {
                        self.relax(v, du.saturating_add(1), last);
                    }
                }
            }
        }
        &self.dist
    }

    /// Lowers `dist[v]` to `cand` when that improves it. A saturated
    /// `cand` equals [`INF_DIST`] and never does.
    #[inline]
    fn relax(&mut self, v: NodeId, cand: u32, last: u32) {
        let slot = v as usize;
        if cand < self.dist[slot] {
            if self.dist[slot] == INF_DIST {
                self.touched.push(v);
            }
            self.dist[slot] = cand;
            self.buckets[bucket_of(cand, last)].push((cand, v));
        }
    }

    /// Bucket 0 is empty: advances `last` to the smallest live key of the
    /// lowest non-empty bucket and moves that bucket's live entries into
    /// lower ones, dropping stale entries. Returns false once every
    /// bucket is empty.
    fn refill(&mut self, last: &mut u32) -> bool {
        let Some(i) = (1..BUCKETS).find(|&i| !self.buckets[i].is_empty()) else {
            return false;
        };
        let mut entries = std::mem::take(&mut self.buckets[i]);
        let dist = &self.dist;
        let live = |&&(k, v): &&(u32, NodeId)| k == dist[v as usize];
        if let Some(min) = entries.iter().filter(live).map(|&(k, _)| k).min() {
            *last = min;
            for &(k, v) in entries.iter().filter(live) {
                self.buckets[bucket_of(k, min)].push((k, v));
            }
        }
        entries.clear();
        // Keep the allocation for the bucket's next use.
        self.buckets[i] = entries;
        true
    }

    /// Sum of distances from the last run's source over reached vertices,
    /// and the reached count (including the source) — same contract as
    /// `BfsWorkspace::last_run_distance_sum`.
    pub fn last_run_distance_sum(&self) -> (u64, usize) {
        let mut sum = 0u64;
        for &v in &self.touched {
            sum += self.dist[v as usize] as u64;
        }
        (sum, self.touched.len())
    }
}

/// The bucket of `key` relative to the last popped key `last ≤ key`:
/// 0 when they are equal, else one plus the index of the highest bit in
/// which they differ.
#[inline]
fn bucket_of(key: u32, last: u32) -> usize {
    debug_assert!(key >= last, "radix heap keys are monotone");
    (u32::BITS - (key ^ last).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs::bfs_distances;
    use crate::traversal::dijkstra::DijkstraWorkspace;

    #[test]
    fn bucket_rule_splits_on_the_highest_differing_bit() {
        assert_eq!(bucket_of(7, 7), 0);
        assert_eq!(bucket_of(8, 7), 4);
        assert_eq!(bucket_of(6, 4), 2);
        assert_eq!(bucket_of(u32::MAX - 1, 0), 32);
    }

    #[test]
    fn disconnected_stays_inf_and_workspace_reuses() {
        let g = Graph::from_weighted_edges(5, &[(0, 1, 3), (1, 2, 4), (3, 4, 2)]).unwrap();
        let mut ws = RadixWorkspace::new();
        let d: Vec<u32> = ws.run(&g, 0).to_vec();
        assert_eq!(d, vec![0, 3, 7, INF_DIST, INF_DIST]);
        assert_eq!(ws.last_run_distance_sum(), (10, 3));
        let d2: Vec<u32> = ws.run(&g, 3).to_vec();
        assert_eq!(d2, vec![INF_DIST, INF_DIST, INF_DIST, 0, 2]);
        // And back: the sparse reset must leave no residue.
        assert_eq!(ws.run(&g, 0), d.as_slice());
        // A graph of another size resets in full.
        let h = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 4), (4, 6)])
            .unwrap();
        assert_eq!(ws.run(&h, 0), bfs_distances(&h, 0).as_slice());
    }

    #[test]
    fn improved_vertices_drop_their_stale_entries() {
        // Vertex 1 is first reached at 9, then improved to 2 through
        // vertex 2; its edge to 3 must be relaxed from the improved
        // distance, and the stale entry must not be expanded.
        let g =
            Graph::from_weighted_edges(4, &[(0, 1, 9), (0, 2, 1), (2, 1, 1), (1, 3, 1)]).unwrap();
        let mut ws = RadixWorkspace::new();
        assert_eq!(ws.run(&g, 0), &[0, 2, 1, 3]);
        assert_eq!(ws.last_run_distance_sum(), (6, 4));
        let mut dij = DijkstraWorkspace::new();
        assert_eq!(ws.run(&g, 3), dij.run(&g, 3));
    }
}
