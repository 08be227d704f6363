//! Delta-stepping SSSP — the weighted distance kernel.
//!
//! The weighted extension of the paper (and the road-network / PPI
//! workloads it opens up) needs single-source shortest paths under
//! positive integer edge weights. Dijkstra is exact but serial: one heap,
//! one vertex settled at a time, adjacency rows streamed once *per
//! source*. Delta-stepping (Meyer & Sanders, 2003) trades the heap for an
//! array of **buckets** keyed by `⌊dist/Δ⌋`:
//!
//! * **light** edges (`w ≤ Δ`) are relaxed iteratively while a bucket
//!   drains — they can re-queue a vertex into the same bucket;
//! * **heavy** edges (`w > Δ`) always land strictly later, so they are
//!   relaxed once per settled vertex after the bucket empties.
//!
//! When bucket `b` empties, every distance below `(b+1)·Δ` is final, so
//! the algorithm is label-correcting yet *exact* — and since all
//! arithmetic is `u32`, distances are **bit-identical** to Dijkstra's by
//! construction (pinned by property tests). `Δ` is auto-tuned to the mean
//! edge weight ([`Graph::mean_edge_weight`]): `Δ = 1` degenerates to
//! Dial's bucket queue, `Δ ≥ max_w` to Bellman-Ford rounds.
//!
//! Two workspaces mirror the BFS kernel pair:
//!
//! * [`DeltaWorkspace`] — single-source, the weighted
//!   [`BfsWorkspace`](super::bfs::BfsWorkspace);
//! * [`MsDeltaWorkspace`] — up to [`MS_BFS_LANES`] sources sharing each
//!   CSR row read, the weighted twin of
//!   [`MsBfsWorkspace`](super::bfs::MsBfsWorkspace): the same vertex-major
//!   `dist[v·lanes + lane]` matrix, the same accessor surface, pooled
//!   through the same [`WorkspacePool`](super::bfs::WorkspacePool).
//!
//! `Δ` is rounded down to a power of two so the per-relaxation bucket
//! index is a shift, then clamped *up* under extreme weight skew so the
//! bucket span `max_w/Δ` stays bounded (a graph mixing weight-1 edges
//! with one near-`u32::MAX` edge would otherwise demand billions of
//! buckets — and, batched, an `n × buckets` pending matrix). Clamping
//! only trades bucket granularity for re-relaxations; distances are
//! exact for every `Δ`. Buckets store plain vertex ids, deduplicated by a
//! per-`(vertex, bucket slot)` pending lane mask: however many lanes
//! improve a vertex into one bucket, it is queued once, and the pop
//! examines exactly the lanes that queued it (each re-checked against
//! `⌊dist/Δ⌋ == b`, so entries made stale by a later improvement into an
//! earlier bucket are harmless no-ops).

use super::bfs::MS_BFS_LANES;
use crate::csr::Graph;
use crate::{NodeId, INF_DIST, NO_NODE};

/// Hard ceiling on the bucket span `max_w/Δ`: [`tune_delta`] clamps `Δ`
/// up until the span fits, so the cyclic bucket array never exceeds
/// `MAX_BUCKET_SPAN + 3` slots no matter how skewed the weights are.
const MAX_BUCKET_SPAN: usize = 1 << 10;

/// Word budget for [`MsDeltaWorkspace`]'s `pending` lane-mask matrix
/// (`n × bucket count` `u64`s, ≤ 32 MiB): on large graphs the span is
/// clamped below [`MAX_BUCKET_SPAN`] so the matrix stays within it.
const MS_PENDING_BUDGET_WORDS: usize = 1 << 22;

/// Shared bucket-queue plumbing: cyclic bucket array sized to the largest
/// forward jump a relaxation can make (`max_w/Δ + 1` buckets ahead, with
/// `Δ = 2^shift`), plus two slots of slack.
fn bucket_count(g: &Graph, shift: u32) -> usize {
    (g.max_edge_weight() >> shift) as usize + 3
}

/// Rounds `Δ` down to a power of two and returns `(Δ, log2 Δ)`, so the
/// per-relaxation bucket index `⌊dist/Δ⌋` is a shift instead of a
/// hardware division (the relax loop runs once per edge per lane — a
/// 20-cycle `div` there dominates everything else). Any `Δ ≥ 1` computes
/// the same distances, so rounding only changes bucket granularity;
/// rounding *down* keeps the auto-tuned `Δ = mean` on the cheap side of
/// the re-relaxation cliff (too-wide buckets relax edges Bellman-Ford
/// style many times over).
fn pow2_delta(delta: u32) -> (u32, u32) {
    let shift = 31 - delta.max(1).leading_zeros();
    (1u32 << shift, shift)
}

/// [`pow2_delta`] plus the skew clamp: raises `Δ` until the bucket span
/// `max_w/Δ` drops below `max_span`, so bucket-array (and, batched,
/// pending-matrix) memory is bounded by the caller's budget instead of
/// by the weight distribution. A larger `Δ` costs extra light-edge
/// re-relaxations but never changes the computed distances.
fn tune_delta(g: &Graph, delta: u32, max_span: usize) -> (u32, u32) {
    debug_assert!(max_span >= 2);
    let (mut delta, mut shift) = pow2_delta(delta);
    let max_w = g.max_edge_weight();
    while (max_w >> shift) as usize >= max_span {
        shift += 1;
        delta = 1u32 << shift;
    }
    (delta, shift)
}

/// Single-source delta-stepping over reusable buffers.
///
/// Distances are bit-identical to Dijkstra (`u32` arithmetic is exact and
/// both compute true shortest paths). Unweighted graphs run with uniform
/// weight 1, where `Δ = 1` makes every edge light and the kernel collapses
/// to a level-synchronous BFS.
///
/// ```
/// use mwc_graph::traversal::delta::DeltaWorkspace;
/// use mwc_graph::Graph;
///
/// let g = Graph::from_weighted_edges(3, &[(0, 1, 10), (0, 2, 1), (2, 1, 2)]).unwrap();
/// let mut ws = DeltaWorkspace::new();
/// assert_eq!(ws.run(&g, 0), &[0, 3, 1]);
/// assert_eq!(ws.last_run_distance_sum(), (4, 3));
/// ```
#[derive(Debug, Default)]
pub struct DeltaWorkspace {
    dist: Vec<u32>,
    /// Absolute bucket the vertex was last queued into (`u64::MAX` =
    /// idle). Cleared on pop so a same-bucket improvement re-queues.
    queued_at: Vec<u64>,
    /// Absolute bucket the vertex was last settled in — dedups the
    /// per-bucket `removed` list feeding the heavy phase.
    removed_at: Vec<u64>,
    /// Cyclic bucket array; slot `b % len` holds absolute bucket `b`.
    buckets: Vec<Vec<NodeId>>,
    /// Vertices settled by the current bucket (heavy-phase worklist).
    removed: Vec<NodeId>,
    /// Vertices whose distance went finite — drives the sparse reset and
    /// the distance-sum scan.
    touched: Vec<NodeId>,
    /// Cumulative buckets drained over the workspace lifetime (pooled
    /// leases report deltas, like `MsBfsWorkspace::levels_expanded`).
    buckets_total: u64,
    runs: u64,
}

impl DeltaWorkspace {
    /// A workspace; buffers grow lazily to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Delta-stepping distances from `source` with `Δ` auto-tuned to the
    /// mean edge weight. Returns the filled distance slice
    /// ([`INF_DIST`] where unreachable).
    pub fn run(&mut self, g: &Graph, source: NodeId) -> &[u32] {
        self.run_with_delta(g, source, g.mean_edge_weight())
    }

    /// [`Self::run`] with an explicit `Δ` (clamped to ≥ 1, rounded down
    /// to a power of two, and raised under extreme weight skew so the
    /// bucket array stays bounded — see `tune_delta`) — the knob the
    /// parity proptests sweep (`Δ ∈ {1, mean, large}`).
    pub fn run_with_delta(&mut self, g: &Graph, source: NodeId, delta: u32) -> &[u32] {
        let n = g.num_nodes();
        debug_assert!((source as usize) < n);
        let (delta, shift) = tune_delta(g, delta, MAX_BUCKET_SPAN);
        self.prepare(n);
        let nb = bucket_count(g, shift);
        if self.buckets.len() < nb {
            self.buckets.resize_with(nb, Vec::new);
        }
        let nb = self.buckets.len() as u64;

        self.dist[source as usize] = 0;
        self.touched.push(source);
        self.queued_at[source as usize] = 0;
        self.buckets[0].push(source);
        let mut pending = 1usize;
        let mut b = 0u64;

        while pending > 0 {
            let idx = (b % nb) as usize;
            if self.buckets[idx].is_empty() {
                b += 1;
                continue;
            }
            self.removed.clear();

            // Light phase: drain the bucket, re-processing same-bucket
            // improvements until it is empty.
            while let Some(v) = self.buckets[idx].pop() {
                pending -= 1;
                if self.queued_at[v as usize] == b {
                    self.queued_at[v as usize] = u64::MAX;
                }
                let dv = self.dist[v as usize];
                if (dv >> shift) as u64 != b {
                    continue; // stale: improved into an earlier bucket
                }
                if self.removed_at[v as usize] != b {
                    self.removed_at[v as usize] = b;
                    self.removed.push(v);
                }
                match g.neighbor_weights(v) {
                    Some(ws) => {
                        for (&u, &w) in g.neighbors(v).iter().zip(ws) {
                            if w <= delta {
                                pending += self.relax(u, dv.saturating_add(w), shift, nb) as usize;
                            }
                        }
                    }
                    None => {
                        for &u in g.neighbors(v) {
                            pending += self.relax(u, dv.saturating_add(1), shift, nb) as usize;
                        }
                    }
                }
            }

            // Heavy phase: every settled vertex's heavy edges, once, at
            // its now-final distance.
            for i in 0..self.removed.len() {
                let v = self.removed[i];
                let dv = self.dist[v as usize];
                if let Some(ws) = g.neighbor_weights(v) {
                    for (&u, &w) in g.neighbors(v).iter().zip(ws) {
                        if w > delta {
                            pending += self.relax(u, dv.saturating_add(w), shift, nb) as usize;
                        }
                    }
                }
            }
            self.buckets_total += 1;
            b += 1;
        }
        self.runs += 1;
        &self.dist
    }

    /// Relaxes `v` to candidate distance `cand`; returns 1 if a new queue
    /// entry was created (the caller's `pending` delta).
    #[inline]
    fn relax(&mut self, v: NodeId, cand: u32, shift: u32, nb: u64) -> bool {
        let slot = v as usize;
        if cand < self.dist[slot] {
            if self.dist[slot] == INF_DIST {
                self.touched.push(v);
            }
            self.dist[slot] = cand;
            let tb = (cand >> shift) as u64;
            if self.queued_at[slot] != tb {
                self.queued_at[slot] = tb;
                self.buckets[(tb % nb) as usize].push(v);
                return true;
            }
        }
        false
    }

    /// Sparse reset: only vertices the previous run touched are dirty.
    fn prepare(&mut self, n: usize) {
        if self.dist.len() != n {
            self.dist.clear();
            self.dist.resize(n, INF_DIST);
            self.queued_at.clear();
            self.queued_at.resize(n, u64::MAX);
            self.removed_at.clear();
            self.removed_at.resize(n, u64::MAX);
        } else {
            for &v in &self.touched {
                self.dist[v as usize] = INF_DIST;
                self.queued_at[v as usize] = u64::MAX;
                self.removed_at[v as usize] = u64::MAX;
            }
        }
        self.touched.clear();
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

    /// Cumulative buckets drained over this workspace's lifetime.
    pub fn buckets_expanded(&self) -> u64 {
        self.buckets_total
    }

    /// Cumulative runs over this workspace's lifetime.
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

/// Multi-source batched delta-stepping: distances from up to
/// [`MS_BFS_LANES`] sources in one shared bucket sweep.
///
/// Each popped vertex recomputes its **active** lane mask (lanes whose
/// distance falls in the current bucket) and relaxes its light edges for
/// all of them against one read of the CSR row — the weighted analogue of
/// MS-BFS lane packing. Heavy edges are deferred per bucket with an
/// OR-accumulated lane mask. Per-lane distances are bit-identical to
/// [`DeltaWorkspace`] / Dijkstra (pinned by property tests).
///
/// ```
/// use mwc_graph::traversal::delta::MsDeltaWorkspace;
/// use mwc_graph::Graph;
///
/// let g = Graph::from_weighted_edges(4, &[(0, 1, 2), (1, 2, 2), (2, 3, 5)]).unwrap();
/// let mut ws = MsDeltaWorkspace::new();
/// ws.run(&g, &[0, 3]);
/// assert_eq!(ws.lane_distances(0), vec![0, 2, 4, 9]);
/// assert_eq!(ws.dist_at(1, 0), 9);
/// assert_eq!(ws.distance_sum(0), (2 + 4 + 9, 4));
/// ```
#[derive(Debug)]
pub struct MsDeltaWorkspace {
    /// Vertex-major distances: `dist[v * lanes + lane]` (same layout as
    /// `MsBfsWorkspace`, same cache rationale).
    dist: Vec<u32>,
    /// `pending[v * nb + slot]`: lane mask of the vertex's queue entry in
    /// cyclic bucket `slot`, 0 = no entry. Exactly one queue entry exists
    /// per nonzero mask (pushed on the 0 → nonzero transition, mask
    /// cleared on pop), so 64 lanes improving a vertex into the same
    /// bucket cost one pop, and the pop knows which lanes queued it
    /// without scanning the whole distance row.
    pending: Vec<u64>,
    /// Bucket stamp dedup for the heavy-phase worklist.
    removed_at: Vec<u64>,
    /// OR of the lane masks the vertex was active with in the current
    /// bucket — the lanes whose heavy edges still need relaxing.
    removed_mask: Vec<u64>,
    /// Run stamp for `touched` membership (`O(1)` instead of scanning
    /// lanes for an earlier finite distance).
    touched_at: Vec<u64>,
    buckets: Vec<Vec<NodeId>>,
    removed: Vec<NodeId>,
    touched: Vec<NodeId>,
    /// Per-lane distance sums over reached vertices.
    sums: [u64; MS_BFS_LANES],
    /// Per-lane count of reached vertices (including the source).
    reached: [usize; MS_BFS_LANES],
    lanes: usize,
    n: usize,
    /// Cyclic bucket count `pending` was laid out for.
    nb: usize,
    generation: u64,
    /// Cumulative sweeps / buckets drained (pooled leases report deltas,
    /// mirroring `MsBfsWorkspace::sweeps_run` / `levels_expanded`).
    sweeps_run: u64,
    buckets_total: u64,
}

impl Default for MsDeltaWorkspace {
    fn default() -> Self {
        MsDeltaWorkspace {
            dist: Vec::new(),
            pending: Vec::new(),
            removed_at: Vec::new(),
            removed_mask: Vec::new(),
            touched_at: Vec::new(),
            buckets: Vec::new(),
            removed: Vec::new(),
            touched: Vec::new(),
            sums: [0; MS_BFS_LANES],
            reached: [0; MS_BFS_LANES],
            lanes: 0,
            n: 0,
            nb: 0,
            generation: 0,
            sweeps_run: 0,
            buckets_total: 0,
        }
    }
}

impl MsDeltaWorkspace {
    /// A workspace; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs delta-stepping from every source at once (one lane per
    /// source), `Δ` auto-tuned to the mean edge weight.
    ///
    /// # Panics
    /// Panics if `sources` is empty, longer than [`MS_BFS_LANES`], or
    /// contains an out-of-range vertex.
    pub fn run(&mut self, g: &Graph, sources: &[NodeId]) {
        self.run_with_delta(g, sources, g.mean_edge_weight());
    }

    /// [`Self::run`] with an explicit `Δ` (clamped to ≥ 1, rounded down
    /// to a power of two so bucket indexing is a shift, and raised under
    /// extreme weight skew so the `n × buckets` pending matrix stays
    /// within a fixed budget — see `tune_delta`).
    pub fn run_with_delta(&mut self, g: &Graph, sources: &[NodeId], delta: u32) {
        assert!(
            !sources.is_empty() && sources.len() <= MS_BFS_LANES,
            "multi-source delta-stepping takes 1..={MS_BFS_LANES} sources, got {}",
            sources.len()
        );
        let n = g.num_nodes();
        let lanes = sources.len();
        let max_span = (MS_PENDING_BUDGET_WORDS / n.max(1)).clamp(4, MAX_BUCKET_SPAN);
        let (delta, shift) = tune_delta(g, delta, max_span);
        self.prepare(n, lanes);
        let nbc = bucket_count(g, shift);
        if self.buckets.len() < nbc {
            self.buckets.resize_with(nbc, Vec::new);
        }
        let nb = self.buckets.len();
        if self.nb != nb || self.pending.len() != n * nb {
            // Every pop clears its mask, so a matching layout carries all
            // zeros between runs for free.
            self.nb = nb;
            self.pending.clear();
            self.pending.resize(n * nb, 0);
        }
        let gen = self.generation;

        let mut entries = 0usize;
        for (lane, &s) in sources.iter().enumerate() {
            assert!((s as usize) < n, "source {s} out of range");
            self.dist[s as usize * lanes + lane] = 0;
            if self.touched_at[s as usize] != gen {
                self.touched_at[s as usize] = gen;
                self.touched.push(s);
            }
            let pslot = s as usize * nb; // bucket 0
            if self.pending[pslot] == 0 {
                self.buckets[0].push(s);
                entries += 1;
            }
            self.pending[pslot] |= 1u64 << lane;
        }

        let mut b = 0u64;
        // Compact (lane, dist) list of the popped vertex's active lanes —
        // the relax loop iterates it per neighbor instead of re-deriving
        // lanes from a bitmask and re-loading source distances per edge.
        let mut act = [(0u32, 0u32); MS_BFS_LANES];
        while entries > 0 {
            let idx = (b % nb as u64) as usize;
            if self.buckets[idx].is_empty() {
                b += 1;
                continue;
            }
            self.removed.clear();

            while let Some(v) = self.buckets[idx].pop() {
                entries -= 1;
                let pslot = v as usize * nb + idx;
                let mask = self.pending[pslot];
                self.pending[pslot] = 0;
                let row = v as usize * lanes;
                // Keep the lanes still in this bucket; the rest improved
                // into an earlier bucket and were processed there.
                let mut alen = 0usize;
                let mut active = 0u64;
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let d = self.dist[row + lane];
                    if (d >> shift) as u64 == b {
                        act[alen] = (lane as u32, d);
                        alen += 1;
                        active |= 1u64 << lane;
                    }
                }
                if alen == 0 {
                    continue;
                }
                if self.removed_at[v as usize] != b {
                    self.removed_at[v as usize] = b;
                    self.removed_mask[v as usize] = 0;
                    self.removed.push(v);
                }
                self.removed_mask[v as usize] |= active;

                // Light relaxations for every active lane against one
                // read of the CSR row.
                match g.neighbor_weights(v) {
                    Some(ws) => {
                        for (&u, &w) in g.neighbors(v).iter().zip(ws) {
                            if w <= delta {
                                entries +=
                                    self.relax_lanes(u, &act[..alen], w, shift, nb, lanes, gen);
                            }
                        }
                    }
                    None => {
                        for &u in g.neighbors(v) {
                            entries += self.relax_lanes(u, &act[..alen], 1, shift, nb, lanes, gen);
                        }
                    }
                }
            }

            // Heavy phase: each settled vertex once, for the union of the
            // lanes it settled with (their distances are now final).
            for i in 0..self.removed.len() {
                let v = self.removed[i];
                let row = v as usize * lanes;
                let mut alen = 0usize;
                let mut m = self.removed_mask[v as usize];
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    act[alen] = (lane as u32, self.dist[row + lane]);
                    alen += 1;
                }
                if let Some(ws) = g.neighbor_weights(v) {
                    for (&u, &w) in g.neighbors(v).iter().zip(ws) {
                        if w > delta {
                            entries += self.relax_lanes(u, &act[..alen], w, shift, nb, lanes, gen);
                        }
                    }
                }
            }
            self.buckets_total += 1;
            b += 1;
        }

        // One pass over the touched set fills the per-lane aggregates.
        self.sums = [0; MS_BFS_LANES];
        self.reached = [0; MS_BFS_LANES];
        for &v in &self.touched {
            let row = v as usize * lanes;
            for (lane, &d) in self.dist[row..row + lanes].iter().enumerate() {
                if d != INF_DIST {
                    self.sums[lane] += d as u64;
                    self.reached[lane] += 1;
                }
            }
        }
        self.sweeps_run += 1;
    }

    /// Relaxes `v` for every `(lane, source distance)` pair in `act` with
    /// edge weight `w`. Returns the number of new queue entries.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn relax_lanes(
        &mut self,
        v: NodeId,
        act: &[(u32, u32)],
        w: u32,
        shift: u32,
        nb: usize,
        lanes: usize,
        gen: u64,
    ) -> usize {
        let dst_row = v as usize * lanes;
        let mut new_entries = 0usize;
        for &(lane, dv) in act {
            let cand = dv.saturating_add(w);
            if cand < self.dist[dst_row + lane as usize] {
                if self.touched_at[v as usize] != gen {
                    self.touched_at[v as usize] = gen;
                    self.touched.push(v);
                }
                self.dist[dst_row + lane as usize] = cand;
                let slot = ((cand >> shift) as u64 % nb as u64) as usize;
                let pslot = v as usize * nb + slot;
                if self.pending[pslot] == 0 {
                    self.buckets[slot].push(v);
                    new_entries += 1;
                }
                self.pending[pslot] |= 1u64 << lane;
            }
        }
        new_entries
    }

    /// Sparse reset when the shape matches the previous run; full reset
    /// on a shape change (the vertex-major stride depends on `lanes`).
    fn prepare(&mut self, n: usize, lanes: usize) {
        if self.n != n || self.lanes != lanes {
            self.n = n;
            self.lanes = lanes;
            self.dist.clear();
            self.dist.resize(n * lanes, INF_DIST);
            self.removed_at.clear();
            self.removed_at.resize(n, u64::MAX);
            self.removed_mask.clear();
            self.removed_mask.resize(n, 0);
            self.touched_at.clear();
            self.touched_at.resize(n, 0);
            self.generation = 0;
        } else {
            for &v in &self.touched {
                let row = v as usize * lanes;
                for d in &mut self.dist[row..row + lanes] {
                    *d = INF_DIST;
                }
                self.removed_at[v as usize] = u64::MAX;
                self.removed_mask[v as usize] = 0;
            }
        }
        self.touched.clear();
        // Generation 0 doubles as "never touched" after a full reset.
        self.generation += 1;
    }

    /// Number of lanes of the last run.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cumulative sweeps executed over this workspace's lifetime
    /// (monotonic across pooled leases; consumers report deltas).
    pub fn sweeps_run(&self) -> u64 {
        self.sweeps_run
    }

    /// Cumulative buckets drained across all sweeps (the weighted
    /// analogue of `levels_expanded`).
    pub fn buckets_expanded(&self) -> u64 {
        self.buckets_total
    }

    /// Distance from the `lane`-th source to `v` ([`INF_DIST`] where
    /// unreachable). `O(1)` — the storage is vertex-major.
    #[inline]
    pub fn dist_at(&self, lane: usize, v: NodeId) -> u32 {
        debug_assert!(lane < self.lanes, "lane {lane} out of range");
        self.dist[v as usize * self.lanes + lane]
    }

    /// Distances from the `lane`-th source, gathered into a fresh vector.
    pub fn lane_distances(&self, lane: usize) -> Vec<u32> {
        assert!(lane < self.lanes, "lane {lane} out of range");
        (0..self.n)
            .map(|v| self.dist[v * self.lanes + lane])
            .collect()
    }

    /// Distances of **every** lane in one sequential pass over the
    /// vertex-major matrix (same transpose as
    /// `MsBfsWorkspace::all_lane_distances`).
    pub fn all_lane_distances(&self) -> Vec<Vec<u32>> {
        let mut outs: Vec<Vec<u32>> = (0..self.lanes)
            .map(|_| Vec::with_capacity(self.n))
            .collect();
        for row in self.dist.chunks_exact(self.lanes.max(1)) {
            for (out, &d) in outs.iter_mut().zip(row) {
                out.push(d);
            }
        }
        outs
    }

    /// Canonical shortest-path-tree parent of `v` in the `lane`-th
    /// source's tree, via the weight-aware
    /// [`canonical_parent`](super::bfs::canonical_parent) rule (lowest-id
    /// neighbor `u` with `dist[u] + w(u,v) == dist[v]`). `O(deg v)`;
    /// [`NO_NODE`] for the source and unreachable vertices.
    pub fn lane_parent(&self, g: &Graph, lane: usize, v: NodeId) -> NodeId {
        debug_assert!(lane < self.lanes, "lane {lane} out of range");
        let dv = self.dist[v as usize * self.lanes + lane];
        if dv == 0 || dv == INF_DIST {
            return NO_NODE;
        }
        match g.neighbor_weights(v) {
            Some(ws) => {
                for (&u, &w) in g.neighbors(v).iter().zip(ws) {
                    if self.dist[u as usize * self.lanes + lane].saturating_add(w) == dv {
                        return u;
                    }
                }
            }
            None => {
                for &u in g.neighbors(v) {
                    if self.dist[u as usize * self.lanes + lane] == dv - 1 {
                        return u;
                    }
                }
            }
        }
        NO_NODE
    }

    /// The full canonical parent array of the `lane`-th source's tree.
    pub fn lane_parents(&self, g: &Graph, lane: usize) -> Vec<NodeId> {
        assert!(lane < self.lanes, "lane {lane} out of range");
        (0..self.n as NodeId)
            .map(|v| self.lane_parent(g, lane, v))
            .collect()
    }

    /// Sum of distances from the `lane`-th source over reached vertices,
    /// and the reached count (including the source).
    pub fn distance_sum(&self, lane: usize) -> (u64, usize) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        (self.sums[lane], self.reached[lane])
    }
}

/// Distances from **any** number of sources, batched through
/// `⌈|sources|/64⌉` multi-source delta-stepping sweeps — the weighted
/// twin of [`multi_source_distances`](super::bfs::multi_source_distances),
/// bit-identical to per-source Dijkstra.
pub fn multi_source_delta_distances(
    g: &Graph,
    sources: &[NodeId],
    ws: &mut MsDeltaWorkspace,
) -> Vec<Vec<u32>> {
    let mut out = Vec::with_capacity(sources.len());
    for chunk in sources.chunks(MS_BFS_LANES) {
        ws.run(g, chunk);
        out.extend(ws.all_lane_distances());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs::bfs_distances;
    use crate::traversal::dijkstra::DijkstraWorkspace;

    fn weighted_test_graph(n: usize, extra: usize, max_w: u32, seed: u64) -> Graph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = crate::GraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_weighted_edge(rng.gen_range(0..v), v, rng.gen_range(1..=max_w))
                .unwrap();
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            b.add_weighted_edge(u, v, rng.gen_range(1..=max_w)).unwrap();
        }
        b.build()
    }

    #[test]
    fn single_source_matches_dijkstra_across_deltas() {
        let g = weighted_test_graph(200, 300, 9, 11);
        let mut dij = DijkstraWorkspace::new();
        let mut ws = DeltaWorkspace::new();
        for source in [0u32, 7, 199] {
            let expect: Vec<u32> = dij.run(&g, source).to_vec();
            for delta in [1u32, g.mean_edge_weight(), 1000] {
                let got = ws.run_with_delta(&g, source, delta);
                assert_eq!(got, expect.as_slice(), "source {source} delta {delta}");
            }
            ws.run(&g, source);
            assert_eq!(ws.last_run_distance_sum(), dij.last_run_distance_sum());
        }
    }

    #[test]
    fn unweighted_graph_matches_bfs() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 4), (4, 6)])
            .unwrap();
        let mut ws = DeltaWorkspace::new();
        assert_eq!(ws.run(&g, 0), bfs_distances(&g, 0).as_slice());
    }

    #[test]
    fn disconnected_stays_inf_and_workspace_reuses() {
        let g = Graph::from_weighted_edges(5, &[(0, 1, 3), (1, 2, 4), (3, 4, 2)]).unwrap();
        let mut ws = DeltaWorkspace::new();
        let d: Vec<u32> = ws.run(&g, 0).to_vec();
        assert_eq!(d, vec![0, 3, 7, INF_DIST, INF_DIST]);
        assert_eq!(ws.last_run_distance_sum(), (10, 3));
        let d2: Vec<u32> = ws.run(&g, 3).to_vec();
        assert_eq!(d2, vec![INF_DIST, INF_DIST, INF_DIST, 0, 2]);
        // And back: the sparse reset must leave no residue.
        assert_eq!(ws.run(&g, 0), d.as_slice());
    }

    #[test]
    fn same_bucket_improvement_is_reprocessed() {
        // With Δ = 10 everything lands in bucket 0; vertex 1 is first
        // reached at 9 via the direct edge, then improved to 2 via vertex
        // 2 — its outgoing edge to 3 must be re-relaxed at the improved
        // distance.
        let g =
            Graph::from_weighted_edges(4, &[(0, 1, 9), (0, 2, 1), (2, 1, 1), (1, 3, 1)]).unwrap();
        let mut ws = DeltaWorkspace::new();
        assert_eq!(ws.run_with_delta(&g, 0, 10), &[0, 2, 1, 3]);
    }

    #[test]
    fn weight_skew_keeps_bucket_arrays_bounded() {
        // Weight-1 path plus two ~3e9 edges: an unclamped Δ = 1 would
        // demand ~3e9 buckets (and, batched, an n × 3e9 pending matrix).
        // The span clamp raises Δ instead; distances stay exact, and a
        // path sum past u32::MAX saturates to "unreachable" in both
        // kernels identically.
        let mut b = crate::GraphBuilder::new(9);
        for v in 1..7u32 {
            b.add_weighted_edge(v - 1, v, 1).unwrap();
        }
        b.add_weighted_edge(6, 7, 3_000_000_000).unwrap();
        b.add_weighted_edge(7, 8, 3_000_000_000).unwrap();
        let g = b.build();
        let mut dij = DijkstraWorkspace::new();
        let expect: Vec<u32> = dij.run(&g, 0).to_vec();
        assert_eq!(expect[7], 3_000_000_006);
        assert_eq!(expect[8], INF_DIST);
        let mut ws = DeltaWorkspace::new();
        for delta in [1u32, g.mean_edge_weight(), u32::MAX] {
            let got = ws.run_with_delta(&g, 0, delta);
            assert_eq!(got, expect.as_slice(), "delta {delta}");
            assert!(ws.buckets.len() <= MAX_BUCKET_SPAN + 3);
        }
        let mut ms = MsDeltaWorkspace::new();
        ms.run_with_delta(&g, &[0, 8], 1);
        assert_eq!(ms.lane_distances(0), expect);
        assert_eq!(ms.dist_at(1, 8), 0);
        assert_eq!(ms.dist_at(1, 7), 3_000_000_000);
        assert!(ms.pending.len() <= 9 * (MAX_BUCKET_SPAN + 3));
    }

    #[test]
    fn multi_source_matches_single_source() {
        let g = weighted_test_graph(300, 600, 8, 5);
        let sources: Vec<NodeId> = (0..64).map(|i| (i * 5) % 300).collect();
        let mut ms = MsDeltaWorkspace::new();
        ms.run(&g, &sources);
        assert_eq!(ms.lanes(), 64);
        let mut single = DijkstraWorkspace::new();
        for (lane, &s) in sources.iter().enumerate() {
            let expect: Vec<u32> = single.run(&g, s).to_vec();
            assert_eq!(ms.lane_distances(lane), expect, "lane {lane} source {s}");
            assert_eq!(ms.dist_at(lane, 0), expect[0]);
            assert_eq!(ms.distance_sum(lane), single.last_run_distance_sum());
        }
    }

    #[test]
    fn multi_source_handles_duplicates_and_disconnection() {
        let g = Graph::from_weighted_edges(6, &[(0, 1, 2), (1, 2, 3), (3, 4, 7)]).unwrap();
        let mut ws = MsDeltaWorkspace::new();
        ws.run(&g, &[0, 0, 3, 5]);
        assert_eq!(ws.lane_distances(0), ws.lane_distances(1));
        assert_eq!(ws.dist_at(2, 4), 7);
        assert_eq!(ws.dist_at(3, 5), 0);
        assert_eq!(ws.dist_at(3, 0), INF_DIST);
        assert_eq!(ws.distance_sum(3), (0, 1));
    }

    #[test]
    fn multi_source_workspace_reuse_across_shapes() {
        let g = weighted_test_graph(80, 100, 6, 3);
        let mut ws = MsDeltaWorkspace::new();
        ws.run(&g, &[0, 9, 41]);
        let first = ws.lane_distances(0);
        ws.run(&g, &[5]); // lane-count change forces the full reset
        assert_eq!(ws.lanes(), 1);
        ws.run(&g, &[0, 9, 41]);
        assert_eq!(ws.lane_distances(0), first);
        // Same shape back-to-back exercises the sparse reset.
        ws.run(&g, &[2, 9, 41]);
        let mut dij = DijkstraWorkspace::new();
        assert_eq!(ws.lane_distances(0), dij.run(&g, 2));
    }

    #[test]
    fn all_lane_distances_match_per_lane_gathers() {
        let g = weighted_test_graph(120, 150, 5, 8);
        let mut ws = MsDeltaWorkspace::new();
        ws.run(&g, &[0, 17, 119]);
        let all = ws.all_lane_distances();
        assert_eq!(all.len(), 3);
        for (lane, gathered) in all.iter().enumerate() {
            assert_eq!(gathered, &ws.lane_distances(lane), "lane {lane}");
        }
    }

    #[test]
    fn lane_parents_form_weighted_shortest_path_trees() {
        use crate::traversal::bfs::path_from_parents;
        let g = weighted_test_graph(150, 250, 7, 21);
        let sources = [0u32, 63, 149];
        let mut ws = MsDeltaWorkspace::new();
        ws.run(&g, &sources);
        for (lane, &s) in sources.iter().enumerate() {
            let dist = ws.lane_distances(lane);
            let parents = ws.lane_parents(&g, lane);
            assert_eq!(parents[s as usize], NO_NODE);
            for v in 0..150u32 {
                if v == s || dist[v as usize] == INF_DIST {
                    continue;
                }
                let p = parents[v as usize];
                assert!(g.has_edge(p, v));
                assert_eq!(
                    dist[p as usize] + g.edge_weight(p, v),
                    dist[v as usize],
                    "lane {lane} vertex {v}"
                );
                let path = path_from_parents(&parents, s, v).unwrap();
                assert_eq!(path[0], s);
            }
        }
    }

    #[test]
    fn batched_helper_chunks_beyond_lane_width() {
        let g = weighted_test_graph(90, 120, 4, 2);
        let sources: Vec<NodeId> = (0..70u32).map(|i| i % 90).collect();
        let mut ws = MsDeltaWorkspace::new();
        let all = multi_source_delta_distances(&g, &sources, &mut ws);
        assert_eq!(all.len(), 70);
        let mut dij = DijkstraWorkspace::new();
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(all[i], dij.run(&g, s), "source {s}");
        }
        assert_eq!(ws.sweeps_run(), 2);
    }
}
