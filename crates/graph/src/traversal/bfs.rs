//! Breadth-first search on unweighted graphs — the distance kernel.
//!
//! The paper's graphs are unweighted, so single-source shortest paths are
//! BFS. Algorithm 1 (`WienerSteiner`) runs one BFS per query vertex up
//! front (`O(|Q|(|V| + |E|))`), and the evaluation harness runs all-pairs
//! BFS over candidate subgraphs, so this is the hottest code path in the
//! project. Three cooperating pieces serve it:
//!
//! * [`BfsWorkspace`] — reusable buffers for plain top-down BFS
//!   (perf-book: reuse workhorse collections), plus
//!   [`BfsWorkspace::run_auto`], a *direction-optimizing* BFS (Beamer et
//!   al., SC'12) that switches between top-down edge expansion and
//!   bottom-up parent hunting on frontier density — distances are
//!   bit-identical to plain BFS, only the scan order changes;
//! * [`MsBfsWorkspace`] — multi-source batched BFS (Then et al., VLDB'14):
//!   distances from up to [`MS_BFS_LANES`] sources in **one** CSR sweep,
//!   tracking per-vertex lane membership in packed `u64` bitmasks so the
//!   adjacency arrays are read once per level instead of once per source;
//! * [`WorkspacePool`] — a thread-safe pool amortizing all of the above
//!   across queries and worker threads.

use crate::csr::Graph;
use crate::{NodeId, INF_DIST, NO_NODE};

/// Lane width of the multi-source BFS: one bit per source in a packed
/// `u64` mask.
pub const MS_BFS_LANES: usize = 64;

/// Below this many vertices, [`BfsWorkspace::run_auto`] skips the
/// direction-optimizing machinery: bitset bookkeeping costs more than it
/// saves on graphs that fit in a few cache lines.
const DIRECTION_OPT_MIN_NODES: usize = 256;

/// Beamer α: go bottom-up when the frontier would scan more than
/// `1/ALPHA` of the unexplored directed edges.
const DO_ALPHA: u64 = 14;

/// Beamer β: return to top-down once the frontier shrinks below `n/BETA`.
const DO_BETA: usize = 24;

/// Distances (and optionally parents) from a BFS source.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `dist[v]` is the hop distance from the source, or [`INF_DIST`] if
    /// unreachable.
    pub dist: Vec<u32>,
    /// `parent[v]` is the BFS-tree parent, [`NO_NODE`] for the source and
    /// unreachable vertices. Empty if parents were not requested.
    pub parent: Vec<NodeId>,
}

/// Reusable buffers for BFS runs over graphs of the same size.
#[derive(Debug, Default)]
pub struct BfsWorkspace {
    dist: Vec<u32>,
    parent: Vec<NodeId>,
    queue: Vec<NodeId>,
    /// Target membership for [`Self::run_until_covered`] — kept here so
    /// the cocktail-party hot path does not allocate per call.
    needed: Vec<bool>,
    /// Visited bitset for the direction-optimizing runs.
    visited_bits: Vec<u64>,
    /// Current-frontier bitset for the bottom-up steps.
    front_bits: Vec<u64>,
}

impl BfsWorkspace {
    /// A workspace; buffers grow lazily to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize, want_parents: bool) {
        self.dist.clear();
        self.dist.resize(n, INF_DIST);
        self.parent.clear();
        if want_parents {
            self.parent.resize(n, NO_NODE);
        }
        self.queue.clear();
    }

    /// BFS distances from `source`, written into the workspace.
    ///
    /// Returns the filled distance slice. `O(|V| + |E|)`.
    pub fn run(&mut self, g: &Graph, source: NodeId) -> &[u32] {
        self.run_inner(g, &[source], false);
        &self.dist
    }

    /// Hop distances from the nearest of `sources` (duplicates allowed),
    /// written into the workspace. Edge weights are ignored, so on a
    /// weighted graph this counts edges, not weight. `O(|V| + |E|)`.
    pub fn run_multi(&mut self, g: &Graph, sources: &[NodeId]) -> &[u32] {
        self.run_inner(g, sources, false);
        &self.dist
    }

    /// BFS distances and parents from `source`.
    pub fn run_with_parents(&mut self, g: &Graph, source: NodeId) -> (&[u32], &[NodeId]) {
        self.run_inner(g, &[source], true);
        (&self.dist, &self.parent)
    }

    /// BFS from `source` that stops once every vertex in `targets` has been
    /// reached (useful for the cocktail-party ball construction, §6.1).
    ///
    /// Returns the visited vertices in dequeue order, truncated at the end of
    /// the level in which the last target was found. Unreached targets simply
    /// never decrement the counter, so the BFS exhausts the component.
    pub fn run_until_covered(
        &mut self,
        g: &Graph,
        source: NodeId,
        targets: &[NodeId],
    ) -> Vec<NodeId> {
        self.reset(g.num_nodes(), false);
        // Workspace-owned membership buffer: clear + resize reuses the
        // allocation across calls instead of a fresh `vec!` per ball.
        self.needed.clear();
        self.needed.resize(g.num_nodes(), false);
        let mut remaining = 0usize;
        for &t in targets {
            if !self.needed[t as usize] {
                self.needed[t as usize] = true;
                remaining += 1;
            }
        }

        self.dist[source as usize] = 0;
        self.queue.push(source);
        if self.needed[source as usize] {
            remaining -= 1;
        }
        // Once the last target is discovered at level L, vertices at level
        // >= L are kept but no longer expanded, completing level L and
        // stopping there.
        let mut stop_level = if remaining == 0 { 0 } else { u32::MAX };
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u as usize];
            if du >= stop_level {
                continue;
            }
            for &v in g.neighbors(u) {
                if self.dist[v as usize] == INF_DIST {
                    self.dist[v as usize] = du + 1;
                    self.queue.push(v);
                    if self.needed[v as usize] {
                        remaining -= 1;
                        if remaining == 0 {
                            stop_level = du + 1;
                        }
                    }
                }
            }
        }
        self.queue.clone()
    }

    /// BFS distances from `source` using the direction-optimizing kernel:
    /// level-synchronous, switching between top-down edge expansion and
    /// bottom-up parent hunting on frontier density (Beamer's α/β
    /// heuristic). Small graphs fall through to the plain top-down loop.
    ///
    /// Distances are **bit-identical** to [`Self::run`] — shortest-path
    /// lengths do not depend on the scan direction — so callers that only
    /// need distances (objective evaluation, feasibility checks, Wiener
    /// sums) can switch freely; the parity is pinned by property tests.
    pub fn run_auto(&mut self, g: &Graph, source: NodeId) -> &[u32] {
        if g.num_nodes() < DIRECTION_OPT_MIN_NODES || g.num_edges() == 0 {
            self.run_inner(g, &[source], false);
        } else {
            self.run_direction_optimizing(g, source);
        }
        &self.dist
    }

    fn run_direction_optimizing(&mut self, g: &Graph, source: NodeId) {
        let n = g.num_nodes();
        debug_assert!((source as usize) < n);
        self.reset(n, false);
        let words = n.div_ceil(64);
        self.visited_bits.clear();
        self.visited_bits.resize(words, 0);
        self.front_bits.clear();
        self.front_bits.resize(words, 0);

        self.dist[source as usize] = 0;
        self.queue.push(source);
        self.visited_bits[source as usize / 64] |= 1u64 << (source % 64);

        let total_directed = 2 * g.num_edges() as u64;
        let mut explored_edges = 0u64;
        let mut bottom_up = false;
        let mut lo = 0usize; // current level = queue[lo..]
        let mut level = 0u32;

        while lo < self.queue.len() {
            let hi = self.queue.len();
            let frontier_edges: u64 = self.queue[lo..hi].iter().map(|&u| g.degree(u) as u64).sum();
            // Hysteresis: enter bottom-up when the frontier is edge-dense,
            // leave it once the frontier count collapses.
            bottom_up = if bottom_up {
                hi - lo > n / DO_BETA
            } else {
                frontier_edges > total_directed.saturating_sub(explored_edges) / DO_ALPHA
            };
            explored_edges += frontier_edges;
            level += 1;

            if bottom_up {
                for w in self.front_bits.iter_mut() {
                    *w = 0;
                }
                for &u in &self.queue[lo..hi] {
                    self.front_bits[u as usize / 64] |= 1u64 << (u % 64);
                }
                for w in 0..words {
                    let mut unvisited = !self.visited_bits[w];
                    let rem = n - w * 64;
                    if rem < 64 {
                        unvisited &= (1u64 << rem) - 1;
                    }
                    while unvisited != 0 {
                        let bit = unvisited.trailing_zeros() as usize;
                        unvisited &= unvisited - 1;
                        let v = (w * 64 + bit) as NodeId;
                        // Hunt for any parent in the frontier; stop at the
                        // first hit — only the distance matters.
                        for &u in g.neighbors(v) {
                            if self.front_bits[u as usize / 64] >> (u % 64) & 1 == 1 {
                                self.dist[v as usize] = level;
                                self.visited_bits[w] |= 1u64 << bit;
                                self.queue.push(v);
                                break;
                            }
                        }
                    }
                }
            } else {
                for i in lo..hi {
                    let u = self.queue[i];
                    for &v in g.neighbors(u) {
                        if self.dist[v as usize] == INF_DIST {
                            self.dist[v as usize] = level;
                            self.visited_bits[v as usize / 64] |= 1u64 << (v % 64);
                            self.queue.push(v);
                        }
                    }
                }
            }
            lo = hi;
        }
    }

    fn run_inner(&mut self, g: &Graph, sources: &[NodeId], want_parents: bool) {
        let n = g.num_nodes();
        self.reset(n, want_parents);
        for &s in sources {
            debug_assert!((s as usize) < n);
            if self.dist[s as usize] == INF_DIST {
                self.dist[s as usize] = 0;
                self.queue.push(s);
            }
        }
        let mut head = 0usize;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u as usize];
            for &v in g.neighbors(u) {
                if self.dist[v as usize] == INF_DIST {
                    self.dist[v as usize] = du + 1;
                    if want_parents {
                        self.parent[v as usize] = u;
                    }
                    self.queue.push(v);
                }
            }
        }
    }

    /// Sum of distances from the last run's source to all reachable
    /// vertices, and the count of reachable vertices (including the source).
    pub fn last_run_distance_sum(&self) -> (u64, usize) {
        let mut sum = 0u64;
        for &v in &self.queue {
            sum += self.dist[v as usize] as u64;
        }
        (sum, self.queue.len())
    }
}

/// Multi-source batched BFS (MS-BFS): distances from up to
/// [`MS_BFS_LANES`] sources in one shared CSR sweep.
///
/// Each vertex carries a `u64` mask of the source *lanes* that have
/// reached it; a level expands every lane at once, so the adjacency
/// arrays — the memory-bound part of BFS — are streamed once per level
/// instead of once per source. On small-diameter graphs (the paper's
/// social networks) this is the difference between 64 passes over the
/// CSR and ~6.
///
/// Distances per lane are bit-identical to a per-source
/// [`BfsWorkspace::run`] (pinned by property tests). Reuse one workspace
/// across batches to amortize the `O(|V|)` mask buffers.
///
/// ```
/// use mwc_graph::traversal::bfs::{bfs_distances, MsBfsWorkspace};
/// use mwc_graph::Graph;
///
/// let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
/// let mut ws = MsBfsWorkspace::new();
/// ws.run(&g, &[0, 4]);
/// assert_eq!(ws.lane_distances(0), bfs_distances(&g, 0));
/// assert_eq!(ws.lane_distances(1), bfs_distances(&g, 4));
/// assert_eq!(ws.dist_at(1, 0), 4);
/// assert_eq!(ws.distance_sum(1), (1 + 2 + 3 + 4, 5));
/// ```
#[derive(Debug)]
pub struct MsBfsWorkspace {
    /// Lanes that have ever reached the vertex.
    seen: Vec<u64>,
    /// Lanes that reached the vertex in the current level.
    visit: Vec<u64>,
    /// Lanes accumulating for the next level.
    visit_next: Vec<u64>,
    /// Vertices with a non-zero `visit` mask.
    frontier: Vec<NodeId>,
    /// Vertices with a non-zero `visit_next` mask.
    next_frontier: Vec<NodeId>,
    /// Vertex-major distances: `dist[v * lanes + lane]`. Vertex-major
    /// keeps the up-to-64 writes of one settled vertex on adjacent cache
    /// lines instead of scattering them across 64 lane arrays.
    dist: Vec<u32>,
    /// Per-lane distance sums over reached vertices.
    sums: [u64; MS_BFS_LANES],
    /// Per-lane count of reached vertices (including the source).
    reached: [usize; MS_BFS_LANES],
    lanes: usize,
    n: usize,
    /// Cumulative sweeps executed over this workspace's lifetime
    /// (pooled workspaces carry these across leases; readers report
    /// deltas — the request-tracing layer's kernel counters).
    sweeps_run: u64,
    /// Cumulative BFS levels expanded across all sweeps.
    levels_total: u64,
}

impl Default for MsBfsWorkspace {
    fn default() -> Self {
        MsBfsWorkspace {
            seen: Vec::new(),
            visit: Vec::new(),
            visit_next: Vec::new(),
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            dist: Vec::new(),
            sums: [0; MS_BFS_LANES],
            reached: [0; MS_BFS_LANES],
            lanes: 0,
            n: 0,
            sweeps_run: 0,
            levels_total: 0,
        }
    }
}

impl MsBfsWorkspace {
    /// A workspace; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs BFS from every source at once (one lane per source).
    ///
    /// `O(diameter · |V| + levels · |E|)` total, not per source. Duplicate
    /// sources get independent lanes with identical distances.
    ///
    /// # Panics
    /// Panics if `sources` is empty, longer than [`MS_BFS_LANES`], or
    /// contains an out-of-range vertex.
    pub fn run(&mut self, g: &Graph, sources: &[NodeId]) {
        assert!(
            !sources.is_empty() && sources.len() <= MS_BFS_LANES,
            "multi-source BFS takes 1..={MS_BFS_LANES} sources, got {}",
            sources.len()
        );
        let n = g.num_nodes();
        self.lanes = sources.len();
        self.n = n;
        self.seen.clear();
        self.seen.resize(n, 0);
        self.visit.clear();
        self.visit.resize(n, 0);
        self.visit_next.clear();
        self.visit_next.resize(n, 0);
        self.dist.clear();
        self.dist.resize(self.lanes * n, INF_DIST);
        self.sums = [0; MS_BFS_LANES];
        self.reached = [0; MS_BFS_LANES];
        self.frontier.clear();
        self.next_frontier.clear();

        let lanes = self.lanes;
        for (lane, &s) in sources.iter().enumerate() {
            assert!((s as usize) < n, "source {s} out of range");
            let bit = 1u64 << lane;
            self.dist[s as usize * lanes + lane] = 0;
            self.reached[lane] += 1;
            if self.visit[s as usize] == 0 {
                self.frontier.push(s);
            }
            self.seen[s as usize] |= bit;
            self.visit[s as usize] |= bit;
        }

        let mut level = 0u32;
        while !self.frontier.is_empty() {
            level += 1;
            self.next_frontier.clear();
            for &u in &self.frontier {
                let mask = self.visit[u as usize];
                for &v in g.neighbors(u) {
                    // Lanes that reach `v` through `u` and have not seen
                    // it yet. `seen` is stable during the scan, so the
                    // accumulated mask needs no re-filtering below.
                    let fresh = mask & !self.seen[v as usize];
                    if fresh != 0 {
                        if self.visit_next[v as usize] == 0 {
                            self.next_frontier.push(v);
                        }
                        self.visit_next[v as usize] |= fresh;
                    }
                }
            }
            for &u in &self.frontier {
                self.visit[u as usize] = 0;
            }
            for &v in &self.next_frontier {
                let fresh = self.visit_next[v as usize];
                self.visit_next[v as usize] = 0;
                self.seen[v as usize] |= fresh;
                self.visit[v as usize] = fresh;
                let row = v as usize * lanes;
                let mut m = fresh;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.dist[row + lane] = level;
                    self.sums[lane] += level as u64;
                    self.reached[lane] += 1;
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        }
        self.sweeps_run += 1;
        self.levels_total += level as u64;
    }

    /// Number of lanes of the last run.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cumulative sweeps executed over this workspace's lifetime.
    /// Monotonic across pooled leases; consumers (the tracing layer's
    /// `root_sweep` counters) report deltas around their own use.
    pub fn sweeps_run(&self) -> u64 {
        self.sweeps_run
    }

    /// Cumulative BFS levels expanded across all sweeps of this
    /// workspace's lifetime (same delta discipline as
    /// [`Self::sweeps_run`]).
    pub fn levels_expanded(&self) -> u64 {
        self.levels_total
    }

    /// Distance from the `lane`-th source to `v` ([`INF_DIST`] where
    /// unreachable). `O(1)` — the storage is vertex-major.
    #[inline]
    pub fn dist_at(&self, lane: usize, v: NodeId) -> u32 {
        debug_assert!(lane < self.lanes, "lane {lane} out of range");
        self.dist[v as usize * self.lanes + lane]
    }

    /// Distances from the `lane`-th source of the last run, gathered into
    /// a fresh vector ([`INF_DIST`] where unreachable). The internal
    /// layout is vertex-major, so this copies; use [`Self::dist_at`] or
    /// [`Self::distance_sum`] on hot paths.
    pub fn lane_distances(&self, lane: usize) -> Vec<u32> {
        assert!(lane < self.lanes, "lane {lane} out of range");
        (0..self.n)
            .map(|v| self.dist[v * self.lanes + lane])
            .collect()
    }

    /// Distances of **every** lane, gathered in one sequential pass over
    /// the vertex-major matrix (each vertex's `lanes` values are adjacent,
    /// so the transpose streams the matrix once instead of striding
    /// through it per lane as repeated [`Self::lane_distances`] calls
    /// would). Returns `lanes` vectors in source order.
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

    /// Canonical BFS-tree parent of `v` in the `lane`-th source's tree,
    /// reconstructed on demand from the vertex-major distance matrix via
    /// the [`canonical_parent`] rule (lowest-id neighbor one level
    /// closer). `O(deg v)`; [`NO_NODE`] for the source and unreachable
    /// vertices.
    pub fn lane_parent(&self, g: &Graph, lane: usize, v: NodeId) -> NodeId {
        debug_assert!(lane < self.lanes, "lane {lane} out of range");
        let dv = self.dist[v as usize * self.lanes + lane];
        if dv == 0 || dv == INF_DIST {
            return NO_NODE;
        }
        for &u in g.neighbors(v) {
            if self.dist[u as usize * self.lanes + lane] == dv - 1 {
                return u;
            }
        }
        NO_NODE
    }

    /// The full canonical parent array of the `lane`-th source's tree —
    /// one [`Self::lane_parent`] per vertex, `O(|V| + |E|)` total.
    /// Identical to [`canonical_parents`] over [`Self::lane_distances`]
    /// (the distances are bit-identical to per-source BFS, so the
    /// deterministic rule lands on the same parents).
    pub fn lane_parents(&self, g: &Graph, lane: usize) -> Vec<NodeId> {
        assert!(lane < self.lanes, "lane {lane} out of range");
        (0..self.n as NodeId)
            .map(|v| self.lane_parent(g, lane, v))
            .collect()
    }

    /// Sum of distances from the `lane`-th source over reached vertices,
    /// and the reached count (including the source) — the all-pairs
    /// building block [`crate::wiener::wiener_index`] consumes.
    pub fn distance_sum(&self, lane: usize) -> (u64, usize) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        (self.sums[lane], self.reached[lane])
    }
}

/// The canonical shortest-path-tree parent of `v` given the distance
/// array from some source: the **lowest-id** neighbor `u` on a tight edge
/// — `dist[u] + w(u,v) == dist[v]`, which on unweighted graphs is the
/// neighbor at distance `dist[v] − 1` ([`NO_NODE`] for the source and
/// unreachable vertices).
///
/// Any tight in-neighbor is a valid shortest-path-tree parent; picking
/// the minimum relabeled id makes the choice a pure function of the
/// distance array. That is what lets the batched solvers reconstruct
/// parent trees from [`MsBfsWorkspace`]'s (or `MsDeltaWorkspace`'s)
/// vertex-major matrix and still produce **bit-identical** connectors to
/// the per-root path: per-source and multi-source distances agree, so
/// this rule lands on the same parents no matter which kernel produced
/// the distances. Weighted graphs dispatch on their stored weights, so
/// `AdjustDistances` and the solvers work unchanged on either family.
#[inline]
pub fn canonical_parent(g: &Graph, dist: &[u32], v: NodeId) -> NodeId {
    let dv = dist[v as usize];
    if dv == 0 || dv == INF_DIST {
        return NO_NODE;
    }
    // CSR adjacency is sorted, so the first hit is the lowest id.
    match g.neighbor_weights(v) {
        Some(ws) => {
            for (&u, &w) in g.neighbors(v).iter().zip(ws) {
                // saturating: INF_DIST + w stays INF_DIST ≠ finite dv.
                if dist[u as usize].saturating_add(w) == dv {
                    return u;
                }
            }
        }
        None => {
            for &u in g.neighbors(v) {
                if dist[u as usize] == dv - 1 {
                    return u;
                }
            }
        }
    }
    NO_NODE
}

/// The full canonical parent array for a BFS distance array — one
/// [`canonical_parent`] per vertex, `O(|V| + |E|)`.
pub fn canonical_parents(g: &Graph, dist: &[u32]) -> Vec<NodeId> {
    (0..g.num_nodes() as NodeId)
        .map(|v| canonical_parent(g, dist, v))
        .collect()
}

/// Distances from **any** number of sources, batched through
/// `⌈|sources|/64⌉` multi-source sweeps and gathered into one per-source
/// array each (via the one-pass [`MsBfsWorkspace::all_lane_distances`]
/// transpose). Bit-identical to per-source [`BfsWorkspace::run`] — the
/// shared building block of the batched `ws-q` root sweep and the
/// batched [`LandmarkOracle`](crate::oracle::LandmarkOracle) build.
pub fn multi_source_distances(
    g: &Graph,
    sources: &[NodeId],
    ws: &mut MsBfsWorkspace,
) -> Vec<Vec<u32>> {
    let mut out = Vec::with_capacity(sources.len());
    for chunk in sources.chunks(MS_BFS_LANES) {
        ws.run(g, chunk);
        out.extend(ws.all_lane_distances());
    }
    out
}

/// One-shot multi-source BFS: distances per source, in source order.
/// Allocates; prefer [`MsBfsWorkspace`] + [`multi_source_distances`] in
/// loops.
pub fn multi_source_bfs(g: &Graph, sources: &[NodeId]) -> Vec<Vec<u32>> {
    multi_source_distances(g, sources, &mut MsBfsWorkspace::new())
}

/// A thread-safe pool of [`BfsWorkspace`]s, so per-graph engines can
/// amortize the distance/parent/queue allocations across many queries and
/// worker threads instead of reallocating per solve.
///
/// [`WorkspacePool::lease`] pops a free workspace (or creates one on
/// demand); dropping the returned [`PooledWorkspace`] pushes it back. The
/// pool never shrinks — its high-water mark is the peak number of
/// concurrent leases, each holding `O(|V|)` words.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: std::sync::Mutex<Vec<BfsWorkspace>>,
    /// Idle multi-source workspaces — pooled separately because their
    /// `O(lanes · |V|)` distance matrix dwarfs a single-source workspace.
    free_multi: std::sync::Mutex<Vec<MsBfsWorkspace>>,
    /// Idle integer-Dijkstra workspaces (the sequential weighted
    /// reference); pooled so per-call heap + distance allocations are
    /// amortized like every other kernel's.
    free_dijkstra: std::sync::Mutex<Vec<super::dijkstra::DijkstraWorkspace>>,
    /// Idle single-source delta-stepping workspaces.
    free_delta: std::sync::Mutex<Vec<super::delta::DeltaWorkspace>>,
    /// Idle multi-source delta-stepping workspaces (lane-width distance
    /// matrices, like `free_multi`).
    free_multi_delta: std::sync::Mutex<Vec<super::delta::MsDeltaWorkspace>>,
}

impl WorkspacePool {
    /// An empty pool; workspaces are created lazily by [`Self::lease`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows a workspace; creates one if none is free.
    pub fn lease(&self) -> PooledWorkspace<'_> {
        let ws = self
            .free
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default();
        PooledWorkspace {
            pool: self,
            ws: Some(ws),
        }
    }

    /// Borrows a multi-source workspace; creates one if none is free.
    /// The batched `ws-q` root sweep leases one per solve instead of
    /// reallocating the lane-mask and distance-matrix buffers per query.
    pub fn lease_multi(&self) -> PooledMsWorkspace<'_> {
        let ws = self
            .free_multi
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default();
        PooledMsWorkspace {
            pool: self,
            ws: Some(ws),
        }
    }

    /// Borrows an integer-Dijkstra workspace; creates one if none is
    /// free. The weighted dispatch paths lease this where the unweighted
    /// ones lease a [`BfsWorkspace`].
    pub fn lease_dijkstra(&self) -> PooledDijkstraWorkspace<'_> {
        let ws = self
            .free_dijkstra
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default();
        PooledDijkstraWorkspace {
            pool: self,
            ws: Some(ws),
        }
    }

    /// Borrows a single-source delta-stepping workspace; creates one if
    /// none is free.
    pub fn lease_delta(&self) -> PooledDeltaWorkspace<'_> {
        let ws = self
            .free_delta
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default();
        PooledDeltaWorkspace {
            pool: self,
            ws: Some(ws),
        }
    }

    /// Borrows a multi-source delta-stepping workspace; creates one if
    /// none is free — the weighted twin of [`Self::lease_multi`].
    pub fn lease_multi_delta(&self) -> PooledMsDeltaWorkspace<'_> {
        let ws = self
            .free_multi_delta
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default();
        PooledMsDeltaWorkspace {
            pool: self,
            ws: Some(ws),
        }
    }

    /// Number of currently idle (pooled) single-source workspaces.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("workspace pool poisoned").len()
    }

    /// Number of currently idle (pooled) multi-source workspaces.
    pub fn idle_multi(&self) -> usize {
        self.free_multi
            .lock()
            .expect("workspace pool poisoned")
            .len()
    }

    /// Number of currently idle (pooled) Dijkstra workspaces.
    pub fn idle_dijkstra(&self) -> usize {
        self.free_dijkstra
            .lock()
            .expect("workspace pool poisoned")
            .len()
    }

    /// Number of currently idle (pooled) delta-stepping workspaces.
    pub fn idle_delta(&self) -> usize {
        self.free_delta
            .lock()
            .expect("workspace pool poisoned")
            .len()
    }

    /// Number of currently idle (pooled) multi-source delta-stepping
    /// workspaces.
    pub fn idle_multi_delta(&self) -> usize {
        self.free_multi_delta
            .lock()
            .expect("workspace pool poisoned")
            .len()
    }
}

/// RAII lease from a [`WorkspacePool`]; derefs to [`BfsWorkspace`] and
/// returns the buffers to the pool on drop.
#[derive(Debug)]
pub struct PooledWorkspace<'p> {
    pool: &'p WorkspacePool,
    ws: Option<BfsWorkspace>,
}

impl std::ops::Deref for PooledWorkspace<'_> {
    type Target = BfsWorkspace;
    fn deref(&self) -> &BfsWorkspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl std::ops::DerefMut for PooledWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut BfsWorkspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            if let Ok(mut free) = self.pool.free.lock() {
                free.push(ws);
            }
        }
    }
}

/// RAII lease from a [`WorkspacePool`]; derefs to [`MsBfsWorkspace`] and
/// returns the buffers to the pool on drop.
#[derive(Debug)]
pub struct PooledMsWorkspace<'p> {
    pool: &'p WorkspacePool,
    ws: Option<MsBfsWorkspace>,
}

impl std::ops::Deref for PooledMsWorkspace<'_> {
    type Target = MsBfsWorkspace;
    fn deref(&self) -> &MsBfsWorkspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl std::ops::DerefMut for PooledMsWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut MsBfsWorkspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledMsWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            if let Ok(mut free) = self.pool.free_multi.lock() {
                free.push(ws);
            }
        }
    }
}

/// RAII lease from a [`WorkspacePool`]; derefs to
/// [`DijkstraWorkspace`](super::dijkstra::DijkstraWorkspace) and returns
/// the buffers to the pool on drop.
#[derive(Debug)]
pub struct PooledDijkstraWorkspace<'p> {
    pool: &'p WorkspacePool,
    ws: Option<super::dijkstra::DijkstraWorkspace>,
}

impl std::ops::Deref for PooledDijkstraWorkspace<'_> {
    type Target = super::dijkstra::DijkstraWorkspace;
    fn deref(&self) -> &Self::Target {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl std::ops::DerefMut for PooledDijkstraWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledDijkstraWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            if let Ok(mut free) = self.pool.free_dijkstra.lock() {
                free.push(ws);
            }
        }
    }
}

/// RAII lease from a [`WorkspacePool`]; derefs to
/// [`DeltaWorkspace`](super::delta::DeltaWorkspace) and returns the
/// buffers to the pool on drop.
#[derive(Debug)]
pub struct PooledDeltaWorkspace<'p> {
    pool: &'p WorkspacePool,
    ws: Option<super::delta::DeltaWorkspace>,
}

impl std::ops::Deref for PooledDeltaWorkspace<'_> {
    type Target = super::delta::DeltaWorkspace;
    fn deref(&self) -> &Self::Target {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl std::ops::DerefMut for PooledDeltaWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledDeltaWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            if let Ok(mut free) = self.pool.free_delta.lock() {
                free.push(ws);
            }
        }
    }
}

/// RAII lease from a [`WorkspacePool`]; derefs to
/// [`MsDeltaWorkspace`](super::delta::MsDeltaWorkspace) and returns the
/// buffers to the pool on drop.
#[derive(Debug)]
pub struct PooledMsDeltaWorkspace<'p> {
    pool: &'p WorkspacePool,
    ws: Option<super::delta::MsDeltaWorkspace>,
}

impl std::ops::Deref for PooledMsDeltaWorkspace<'_> {
    type Target = super::delta::MsDeltaWorkspace;
    fn deref(&self) -> &Self::Target {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl std::ops::DerefMut for PooledMsDeltaWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledMsDeltaWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            if let Ok(mut free) = self.pool.free_multi_delta.lock() {
                free.push(ws);
            }
        }
    }
}

/// One-shot BFS distances from `source`. Allocates; prefer
/// [`BfsWorkspace`] in loops.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<u32> {
    let mut ws = BfsWorkspace::new();
    ws.run(g, source);
    ws.dist
}

/// One-shot BFS distances and parents from `source`.
pub fn bfs_parents(g: &Graph, source: NodeId) -> BfsResult {
    let mut ws = BfsWorkspace::new();
    ws.run_inner(g, &[source], true);
    BfsResult {
        dist: ws.dist,
        parent: ws.parent,
    }
}

/// Reconstructs the path `source → target` from a parent array produced by
/// [`bfs_parents`] (or any shortest-path tree). Returns `None` if `target`
/// is unreachable.
pub fn path_from_parents(parent: &[NodeId], source: NodeId, target: NodeId) -> Option<Vec<NodeId>> {
    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        let p = parent[cur as usize];
        if p == NO_NODE {
            return None;
        }
        path.push(p);
        cur = p;
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn distances_on_a_path() {
        let g = path_graph(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        let d = bfs_distances(&g, 3);
        assert_eq!(d, vec![3, 2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_is_inf() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INF_DIST);
        assert_eq!(d[3], INF_DIST);
    }

    #[test]
    fn parents_reconstruct_shortest_paths() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]).unwrap();
        let r = bfs_parents(&g, 0);
        let p = path_from_parents(&r.parent, 0, 5).unwrap();
        assert_eq!(p.len() as u32 - 1, r.dist[5]);
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), 5);
        // Each consecutive pair is an edge.
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn path_to_unreachable_is_none() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let r = bfs_parents(&g, 0);
        assert!(path_from_parents(&r.parent, 0, 2).is_none());
    }

    #[test]
    fn workspace_is_reusable() {
        let g = path_graph(5);
        let mut ws = BfsWorkspace::new();
        let d0: Vec<u32> = ws.run(&g, 0).to_vec();
        let d4: Vec<u32> = ws.run(&g, 4).to_vec();
        assert_eq!(d0, vec![0, 1, 2, 3, 4]);
        assert_eq!(d4, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn run_multi_is_the_minimum_over_sources() {
        // Path 0..6 plus a separate edge 7–8; weights must not matter.
        let mut edges: Vec<(NodeId, NodeId, u32)> = (0..6).map(|i| (i, i + 1, 1 + i * 7)).collect();
        edges.push((7, 8, 1));
        let g = Graph::from_weighted_edges(9, &edges).unwrap();
        let mut ws = BfsWorkspace::new();
        let d = ws.run_multi(&g, &[1, 5, 5]).to_vec();
        assert_eq!(d, vec![1, 0, 1, 2, 1, 0, 1, INF_DIST, INF_DIST]);
        for (v, &dv) in d.iter().enumerate() {
            let nearest = [1, 5].map(|s| bfs_distances(&g, s)[v]).into_iter().min();
            assert_eq!(Some(dv), nearest, "vertex {v}");
        }
        assert_eq!(ws.last_run_distance_sum(), (1 + 1 + 2 + 1 + 1, 7));
        assert_eq!(ws.run_multi(&g, &[0]), bfs_distances(&g, 0).as_slice());
    }

    #[test]
    fn distance_sum_counts_component_only() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut ws = BfsWorkspace::new();
        ws.run(&g, 0);
        let (sum, reached) = ws.last_run_distance_sum();
        assert_eq!(sum, 1 + 2);
        assert_eq!(reached, 3);
    }

    #[test]
    fn run_until_covered_stops_at_last_target_level() {
        let g = path_graph(10);
        let mut ws = BfsWorkspace::new();
        let visited = ws.run_until_covered(&g, 0, &[3]);
        // Level-synchronous cutoff: everything within distance 3.
        let mut v = visited.clone();
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_until_covered_with_source_in_targets() {
        let g = path_graph(4);
        let mut ws = BfsWorkspace::new();
        let visited = ws.run_until_covered(&g, 1, &[1]);
        assert_eq!(visited, vec![1]);
    }

    #[test]
    fn run_until_covered_unreachable_target_visits_component() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut ws = BfsWorkspace::new();
        let visited = ws.run_until_covered(&g, 0, &[4]);
        let mut v = visited;
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn run_until_covered_workspace_buffer_is_reusable() {
        // The `needed` buffer lives in the workspace now; back-to-back
        // calls with different targets must not leak state.
        let g = path_graph(10);
        let mut ws = BfsWorkspace::new();
        let a = ws.run_until_covered(&g, 0, &[3]);
        let b = ws.run_until_covered(&g, 0, &[7]);
        let c = ws.run_until_covered(&g, 0, &[3]);
        assert_eq!(a, c);
        assert_eq!(b.len(), 8);
        assert_eq!(a.len(), 4);
    }

    /// A deterministic scale-free-ish test graph big enough to exercise
    /// the bottom-up switch (n >= DIRECTION_OPT_MIN_NODES).
    fn dense_test_graph(n: usize) -> Graph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut b = crate::GraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_edge(rng.gen_range(0..v), v).unwrap();
        }
        for _ in 0..4 * n {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            b.add_edge(u, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn direction_optimizing_matches_plain_bfs() {
        let g = dense_test_graph(600);
        let mut plain = BfsWorkspace::new();
        let mut auto = BfsWorkspace::new();
        for source in [0u32, 1, 17, 599] {
            let d_plain: Vec<u32> = plain.run(&g, source).to_vec();
            let d_auto: Vec<u32> = auto.run_auto(&g, source).to_vec();
            assert_eq!(d_plain, d_auto, "source {source}");
            // The distance-sum contract holds for both kernels.
            plain.run(&g, source);
            let s_plain = plain.last_run_distance_sum();
            auto.run_auto(&g, source);
            assert_eq!(s_plain, auto.last_run_distance_sum());
        }
    }

    #[test]
    fn direction_optimizing_handles_disconnected_graphs() {
        // Two components, both above the small-graph cutoff in total.
        let mut edges: Vec<(NodeId, NodeId)> = (0..200).map(|i| (i, i + 1)).collect();
        edges.extend((300..500u32).map(|i| (i, i + 1)));
        let g = Graph::from_edges(501, &edges).unwrap();
        let mut ws = BfsWorkspace::new();
        let d: Vec<u32> = ws.run_auto(&g, 0).to_vec();
        assert_eq!(d[200], 200);
        assert_eq!(d[300], INF_DIST);
        assert_eq!(d, bfs_distances(&g, 0));
    }

    #[test]
    fn multi_source_matches_per_source() {
        let g = dense_test_graph(300);
        let sources: Vec<NodeId> = (0..64).map(|i| (i * 4) % 300).collect();
        let mut ws = MsBfsWorkspace::new();
        ws.run(&g, &sources);
        assert_eq!(ws.lanes(), 64);
        let mut single = BfsWorkspace::new();
        for (lane, &s) in sources.iter().enumerate() {
            let expect: Vec<u32> = single.run(&g, s).to_vec();
            assert_eq!(ws.lane_distances(lane), expect, "lane {lane} source {s}");
            assert_eq!(ws.dist_at(lane, 0), expect[0]);
            assert_eq!(ws.distance_sum(lane), single.last_run_distance_sum());
        }
    }

    #[test]
    fn multi_source_handles_duplicates_and_disconnection() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let got = multi_source_bfs(&g, &[0, 0, 3, 5]);
        assert_eq!(got[0], got[1]);
        assert_eq!(got[0], bfs_distances(&g, 0));
        assert_eq!(got[2], bfs_distances(&g, 3));
        assert_eq!(got[3][5], 0);
        assert_eq!(got[3][0], INF_DIST);
    }

    #[test]
    fn multi_source_workspace_is_reusable() {
        let g = path_graph(8);
        let mut ws = MsBfsWorkspace::new();
        ws.run(&g, &[0, 7]);
        let first = ws.lane_distances(0);
        ws.run(&g, &[3]);
        assert_eq!(ws.lanes(), 1);
        assert_eq!(ws.lane_distances(0), bfs_distances(&g, 3));
        ws.run(&g, &[0, 7]);
        assert_eq!(ws.lane_distances(0), first);
    }

    #[test]
    #[should_panic(expected = "sources")]
    fn multi_source_rejects_empty_source_list() {
        let g = path_graph(3);
        MsBfsWorkspace::new().run(&g, &[]);
    }

    #[test]
    fn all_lane_distances_match_per_lane_gathers() {
        let g = dense_test_graph(300);
        let sources: Vec<NodeId> = vec![0, 9, 120, 299];
        let mut ws = MsBfsWorkspace::new();
        ws.run(&g, &sources);
        let all = ws.all_lane_distances();
        assert_eq!(all.len(), sources.len());
        for (lane, gathered) in all.iter().enumerate() {
            assert_eq!(gathered, &ws.lane_distances(lane), "lane {lane}");
        }
    }

    #[test]
    fn canonical_parents_form_a_shortest_path_tree() {
        let g = dense_test_graph(400);
        let mut ws = BfsWorkspace::new();
        for source in [0u32, 5, 399] {
            let dist: Vec<u32> = ws.run(&g, source).to_vec();
            let parents = canonical_parents(&g, &dist);
            assert_eq!(parents[source as usize], NO_NODE);
            for v in 0..400u32 {
                let p = parents[v as usize];
                if v == source {
                    continue;
                }
                if dist[v as usize] == INF_DIST {
                    assert_eq!(p, NO_NODE);
                    continue;
                }
                // The parent is one level closer and the lowest-id such
                // neighbor (the determinism the batched solvers rely on).
                assert!(g.has_edge(p, v));
                assert_eq!(dist[p as usize] + 1, dist[v as usize]);
                for &u in g.neighbors(v) {
                    if dist[u as usize] + 1 == dist[v as usize] {
                        assert!(p <= u, "parent {p} is not the lowest-id choice {u}");
                        break;
                    }
                }
                // Walking the chain reaches the source in dist[v] steps.
                let path = path_from_parents(&parents, source, v).unwrap();
                assert_eq!(path.len() as u32 - 1, dist[v as usize]);
            }
        }
    }

    #[test]
    fn lane_parents_match_per_source_canonical_parents() {
        let g = dense_test_graph(350);
        let sources: Vec<NodeId> = vec![0, 17, 100, 349];
        let mut ms = MsBfsWorkspace::new();
        ms.run(&g, &sources);
        let mut single = BfsWorkspace::new();
        for (lane, &s) in sources.iter().enumerate() {
            let dist: Vec<u32> = single.run(&g, s).to_vec();
            let expect = canonical_parents(&g, &dist);
            assert_eq!(ms.lane_parents(&g, lane), expect, "lane {lane}");
            assert_eq!(ms.lane_parent(&g, lane, s), NO_NODE);
        }
    }

    #[test]
    fn multi_workspace_pool_recycles() {
        let pool = WorkspacePool::new();
        let g = path_graph(6);
        {
            let mut ms = pool.lease_multi();
            ms.run(&g, &[0, 5]);
            assert_eq!(ms.lane_distances(0), bfs_distances(&g, 0));
            assert_eq!(pool.idle_multi(), 0);
        }
        assert_eq!(pool.idle_multi(), 1);
        {
            let _a = pool.lease_multi();
            assert_eq!(pool.idle_multi(), 0);
        }
        assert_eq!(pool.idle_multi(), 1);
    }
}
