//! Mehlhorn's 2-approximation for the Steiner tree problem in graphs
//! (Inf. Proc. Letters 1988) — the algorithm the paper uses both as the
//! `st` baseline and inside `ws-q` (§4 Corollary 3, §6.1).
//!
//! Steps:
//! 1. multi-source Dijkstra from the terminals → Voronoi partition
//!    (`s(v)` = nearest terminal, `d(s(v), v)` = distance to it);
//! 2. terminal distance graph: for each graph edge `(u, v)` crossing two
//!    Voronoi regions, a candidate terminal-terminal edge of weight
//!    `d(s(u), u) + w(u, v) + d(v, s(v))`, keeping the cheapest per pair.
//!    Steps 1 and 2 are fused: a crossing edge is offered to a dense
//!    `|T|×|T|` table when its second endpoint settles, the moment both
//!    distances are final, so no second pass over the edges runs. An
//!    edge whose `d(u) + d(v)` already exceeds the pair's held weight
//!    cannot win and skips the weight call (on `ba:20000x4` ws-q calls
//!    that is about 98% of the offers);
//! 3. MST of the terminal distance graph (Kruskal);
//! 4. expansion of each MST edge into the corresponding graph path;
//! 5. MST of the expanded subgraph;
//! 6. repeated deletion of non-terminal leaves.
//!
//! The result is a tree spanning the terminals with total weight at most
//! `2 (1 - 1/|Q|)` times optimal. Edge weights come from a closure, or for
//! ws-q from per-vertex potentials, so the reweighted graph `G_{r,λ}` of
//! Lemma 4 never has to be materialized.
//!
//! Ties are broken exactly, so the tree is a pure function of the graph,
//! the terminal set and the edge costs:
//! - vertices settle in `(distance, id)` order: once a distance is the
//!   smallest queued, the queue hands its vertices over in id order,
//!   zero-weight arrivals included;
//! - a vertex keeps the first strictly shorter offer, so its Voronoi
//!   region is that of the first settled neighbour that reached it;
//! - per terminal pair the crossing edge minimizing `(w, u, v)`
//!   lexicographically wins, with `u < v` its endpoints;
//! - both MSTs sort their edges by `(w, u, v)`.
//!
//! Buffers live in a [`SteinerWorkspace`]: Algorithm 1 calls this once per
//! `(root, λ)` candidate, so a root sweep holds one workspace for all of
//! its calls and no per-call `O(|V|)` allocation or reset remains. The
//! workspace also keeps a ws-q run for its repair at the next λ (last
//! section).
//!
//! # Two queues, one Voronoi loop
//!
//! The Voronoi loop (steps 1–2) is one function, generic over its queue,
//! and both queues settle vertices in the same `(distance, id)` order, so
//! the queue never changes a tree or a certificate.
//! - The *radix queue* serves every run: a monotone radix queue over the
//!   f64 bit patterns of the distances (for non-negative floats, bit order
//!   is numeric order) with intrusive-list decrease-key. Its lowest bucket
//!   holds the vertices at the current distance; vertices that reach that
//!   distance while it drains, over zero-weight edges, merge into it
//!   through a small heap.
//! - The *bucket ring* serves ws-q's runs at `λ = 2^t` whose every edge
//!   weighs at most 1024 units of `2^−|t|`. An edge costs `λ + m/λ` with
//!   `m = max(p(u), p(v))` over per-vertex potentials `p`
//!   ([`lambda_steiner_with`](super::lambda_steiner_with)), so it weighs
//!   at most `C = 4^t + p_max` units for `t ≥ 0` and `C = 1 + 4^−t·p_max`
//!   for `t < 0`, with `p_max` the largest potential. `INF_DIST` counts at
//!   face value, so a root that leaves vertices unreachable never
//!   qualifies. Every key is then a whole number of units below `n·C`,
//!   far under 2^53 (a distance sums fewer than `n` edges), so every f64
//!   addition, and the conversion of a key to an integer, is exact. The
//!   ring is Dial's: `C + 1` intrusive lists, the list of a key being its
//!   units mod `C + 1`. Every queued key lies within `C` units above the
//!   current one, so no two share a list. Every edge weighs at least one
//!   unit, so the ring has no late arrivals: once a key is the current
//!   one, nothing can still join its list.
//!
//! Both queues order a key's vertices through one helper: a small or
//! sparse key is sorted, a larger one is set in an `n`-bit id bitmap that
//! is scanned upwards and cleared as it drains.
//!
//! Edge costs read the potentials from each vertex's label, which the
//! adjacency scan reads anyway: a call copies them in when it starts.
//! Parents and list links sit in a second array that only relaxations
//! write, so scanning a neighbour is one random read.
//!
//! # Which larger λ repeat a ws-q run
//!
//! ws-q's instance `G_{r,λ}` costs edge `(u, v)` at `λ + m/λ` for the
//! integer `m = max(p(u), p(v))`, so a path of `k` edges costs
//! `kλ + M/λ`, `M` the sum of its `m`. Every key the run compares is such
//! a sum: settled and tentative distances, crossing offers and their
//! floors, and the weights both MSTs sort. A run at `λ = 2^t` keeps the
//! hop count `k` of each label and reads `M = key·λ − k·λ²` back from the
//! key. Besides its tree it returns [`Repeats`]: the larger λ' at which
//! the same call makes every decision the same way, so that `nodes` and
//! `edges` repeat (`total_weight` does not, and ws-q never reads it).
//!
//! *One decision.* A comparison the run makes has a winner `X ≤ Y` at λ.
//! At λ', `Y − X = (Δk·λ'² + ΔM)/λ'` with `Δk = k_Y − k_X` and
//! `ΔM = M_Y − M_X`. If `k_X ≤ k_Y` this only grows with λ', so `X` still
//! wins: strictly, or on the same id tie-break when the `(k, M)` pairs are
//! equal. If `k_X > k_Y`, `X` still wins strictly while
//! `(k_X − k_Y)·λ'² < ΔM`; the run keeps the tightest such bound on λ'².
//! A tie at λ between unequal pairs has `ΔM = (k_X − k_Y)·λ²`, which admits
//! no larger λ'. So almost every check is one comparison of hop counts.
//!
//! *The decisions checked.*
//! - Voronoi: a settled non-terminal `v` keeps as parent the neighbour `u`
//!   minimizing `(d(u) + w(u, v), d(u), id(u))`. Each edge is checked once,
//!   when its second endpoint settles (the branch that makes crossing
//!   offers): the label of the endpoint with more hops against the other
//!   endpoint's offer, since only an offer of fewer hops can win at a
//!   larger λ. Each label keeps its own bound (`Label::bound`, the
//!   largest `t` with `λ' = 2^t` inside it; an exponent suffices on the
//!   dyadic grid) and the neighbour that set it. Two equal offer pairs
//!   come from senders with equal hop counts, whose distances then order
//!   by `M` alone at every λ. Labels meeting these conditions at λ'
//!   satisfy Bellman's equations there, so they are the shortest-path
//!   labels, and the λ' run computes the same labels, parents and sources.
//! - Crossing table: every crossing edge against its pair's final winner,
//!   when the edge has fewer hops (the run keeps every crossing edge, see
//!   below). The bound is then the exact condition for each pair's winner
//!   to stay its `(w, u, v)` minimum at λ', a function of the run's labels
//!   alone, whatever order the edges settled in. The edges of one pair
//!   `a < b` and hop count `k` form a group whose keys are all
//!   `kλ + M/λ`: its least `(M, u, v)` is its least `(w, u, v)` at every
//!   λ, and of its bounds the tightest, so the check reads one minimum
//!   per group.
//! - Terminal MST: consecutive edges of Kruskal's sorted order.
//!
//! The crossing edges are checked last, and only while the other bounds
//! still cover the next power of two: otherwise no bound they add can
//! matter. Expansion, the subgraph MST (single edges, which order by `m`
//! alone) and pruning do not depend on λ.
//!
//! *Exactness.* The argument needs every key to be an exact f64, at λ and
//! at λ'. A key sums `k ≤ 2h + 1` edges, `h` the largest label hop count,
//! with `M ≤ k·m_max`, `m_max` the largest potential of a settled vertex
//! (the run costs only edges whose endpoints both settle, so this is the
//! largest `m` it meets). At `λ' = 2^{t'} ≥ 1` it is the integer
//! `kλ'² + M` times `2^{-t'}`, exact while `(2h + 1)·(λ'² + m_max) < 2^53`,
//! which caps the certificate; the run at λ itself must pass the same test
//! (below 1, in units of λ). Hop counts are kept in 16 bits, and a run
//! whose labels saturate them certifies nothing. So do runs at any other
//! λ: [`Repeats::NONE`].
//!
//! A change that lets a key decide anything other than through such a
//! comparison (rounding it, say) must add its decision to the certificate.
//!
//! # Repairing a run at the next λ
//!
//! Between two calls of a ws-q root sweep ([`LambdaSweep`](super::LambdaSweep))
//! most labels keep their paths, so a call at a larger `λ' = 2^{t'}`,
//! `0 ≤ t' ≤ 26`, repairs the previous exact run instead of growing every
//! region again. The run keeps its labels, each label's bound and the
//! neighbour that set it (in the settled label's free list link), and
//! every crossing edge, filed where it completes in the settle loop as a
//! 12-byte member `(u, v, next)` of its group `(a, b, k)`, which caches
//! its least `(M, u, v)`: its pair, hop count and `M` follow from the two
//! labels. A pair's winner at any λ is the least of its groups' minima.
//! - *Upper bounds.* A label's path is still a path at λ': re-costed to
//!   `kλ' + M/λ'` it bounds the new distance from above, and every
//!   unchanged label is re-costed so (one pass over the labels).
//! - *Seeds.* A label is beaten at λ' by an unchanged neighbour's offer
//!   only if λ' exceeds its bound, since an offer of as many hops or more
//!   cannot overtake it (see above). Such labels take the best offer of
//!   their unchanged neighbours under the tie rule `(offer, d(u), id(u))`,
//!   when it beats the label, and seed a Dijkstra; a neighbour relabelled
//!   as a seed offers once it settles.
//! - *Propagation.* The Dijkstra relaxes out of changed labels only, under
//!   the same tie rule: a neighbour takes a strictly better offer, an
//!   equal one from a sender earlier in `(d, id)` order, or the offer of
//!   its own parent whenever that parent's label changed, so a change
//!   reaches every descendant. A label no changed label offers better
//!   keeps its old path, which is its lexicographic minimum already, so
//!   the repaired labels are those a fresh run at λ' computes, bit for bit
//!   (keys are exact, so no rounding tells the two apart).
//! - *Bounds.* The Dijkstra's own scan of a settling label handles each
//!   edge to a settled or unchanged neighbour; an edge to a neighbour
//!   still queued is handled when that neighbour settles. A changed label
//!   is bounded from scratch over the edges handled at its settling, and
//!   later edges lower its bound as they are handled. An unchanged
//!   neighbour's bound takes the changed label's new offer as a minimum,
//!   unless the changed label had set it with a lower one, and then it is
//!   recomputed at the end; so are seeds that kept their labels. A stale
//!   bound can only be lower than the exact one, which adds seeds, never
//!   misses one, and every bound the repair leaves is exact again, so the
//!   certificate equals a fresh run's.
//! - *Crossing edges.* The same scan files each crossing edge of the
//!   settling label in its group, from the labels as they stand, lowering
//!   the group's minimum when it beats it. A neighbour that changes later
//!   files the edge again. An edge whose label changed stays a member of
//!   its old group until that group is rescanned: a rescan resolves each
//!   member from the current labels, frees those that no longer resolve
//!   to the group, and recomputes the minimum. Once the labels are final,
//!   a group is rescanned only if its minimum no longer resolves to it
//!   with the same `M` (an endpoint changed, or it was filed before its
//!   other endpoint changed). Otherwise that minimum is the least: every
//!   unchanged member kept its `M`, every changed one was filed with its
//!   final `M`, and a removal cannot lower a minimum. Pair winners, and
//!   the certificate's crossing part, then read one minimum per group,
//!   with no pass over the kept edges. Filing takes freed entries first;
//!   storage reserved for one entry per graph edge is compacted (every
//!   group rescanned) only when full, and grows when that frees under a
//!   quarter of it. Kruskal, expansion and the subgraph MST follow as in
//!   a fresh run.
//!
//! The repair refuses, and the call runs afresh, when the previous call
//! was not an exact dyadic Mehlhorn run, when λ' is not above it or
//! outside `2^0 … 2^26`, or when keys would not be exact at λ' (the cap
//! above, checked for the old labels before the repair and for the new
//! ones after it: every key the repair forms sums old or settled labels
//! and at most one edge). Non-dyadic λ, the other Steiner algorithms and
//! the node-weighted ablation never keep a run, and
//! [`lambda_steiner_with`](super::lambda_steiner_with) stays a fresh call.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mwc_graph::hash::FxHashMap;
use mwc_graph::{Graph, NodeId, NO_NODE};

use crate::error::{CoreError, Result};
use crate::steiner::expand::mst_then_prune;
use crate::steiner::mst::{kruskal, WeightedEdge};

/// A tree subgraph of the input graph, over global vertex ids.
#[derive(Debug, Clone, PartialEq)]
pub struct SteinerTree {
    /// Sorted vertex set.
    pub nodes: Vec<NodeId>,
    /// Tree edges (global ids, `u < v`); `edges.len() == nodes.len() - 1`.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Total weight of the tree edges under the weight function it was
    /// built with.
    pub total_weight: f64,
}

impl SteinerTree {
    /// A tree with a single vertex and no edges.
    pub fn singleton(v: NodeId) -> Self {
        SteinerTree {
            nodes: vec![v],
            edges: Vec::new(),
            total_weight: 0.0,
        }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `v` is a tree vertex.
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Adjacency lists of the tree, keyed by global id.
    pub fn adjacency(&self) -> FxHashMap<NodeId, Vec<NodeId>> {
        let mut adj: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
        adj.reserve(self.nodes.len());
        for &v in &self.nodes {
            adj.entry(v).or_default();
        }
        for &(u, v) in &self.edges {
            adj.get_mut(&u).expect("edge endpoint in nodes").push(v);
            adj.get_mut(&v).expect("edge endpoint in nodes").push(u);
        }
        adj
    }

    /// Checks the structural invariants (tree = connected + acyclic via
    /// edge count, endpoints within node set). Used by tests and debug
    /// assertions.
    pub fn validate(&self) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
        if self.edges.len() + 1 != self.nodes.len() {
            return false;
        }
        let index: FxHashMap<NodeId, u32> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut uf = crate::steiner::UnionFind::new(self.nodes.len());
        for &(u, v) in &self.edges {
            let (Some(&ul), Some(&vl)) = (index.get(&u), index.get(&v)) else {
                return false;
            };
            if !uf.union(ul, vl) {
                return false; // cycle
            }
        }
        uf.num_sets() == 1
    }
}

/// `slot` of a vertex that has left the queue.
const SETTLED: u8 = u8::MAX;

/// Radix buckets: bucket 0 holds keys equal to the last popped key, bucket
/// `i ≥ 1` keys whose highest bit differing from it is bit `i − 1`.
const BUCKETS: usize = 65;

/// Largest edge weight, in units, at which a run takes the bucket ring.
const RING_MAX: u64 = 1024;

/// Keys with at least this many vertices may drain through the id bitmap.
const BITMAP_MIN: usize = 64;

/// Terminal count up to which the crossing table is a dense `|T|×|T|`
/// array (24 bytes an entry, 384 KiB at the limit); larger terminal sets
/// fall back to a hash map so a huge query cannot allocate `|T|²`.
const DENSE_CROSSING_TERMINALS: usize = 128;

/// A label bound covering every `t ≤ 26`: nothing bounds the label.
const FREE: i8 = 27;

/// What the adjacency scan reads of a vertex. Valid only while `stamp`
/// equals the workspace generation, any other stamp reading as "not
/// reached yet"; `pot` is rewritten by every potential-costed call.
#[derive(Debug, Clone, Copy, Default)]
struct Label {
    dist: f64,
    /// The vertex's potential: an edge costs through the larger of its
    /// endpoints' potentials.
    pot: u32,
    /// Index of the nearest terminal in the sorted terminal list.
    source: u32,
    stamp: u32,
    /// Edges on the parent path to the nearest terminal, saturating.
    hops: u16,
    /// Radix bucket while queued, [`SETTLED`] once popped.
    slot: u8,
    /// In a certifying run: the largest `t ≤ 26` such that the label
    /// still beats every neighbour's offer at `λ' = 2^t`, `−1` when no
    /// `t ≥ 0` qualifies, [`FREE`] when no offer bounds it (see the module
    /// doc's repair section).
    bound: i8,
}

const _: () = assert!(std::mem::size_of::<Label>() == 24);

/// What only a relaxation writes: the Voronoi parent and the vertex's
/// links in its queue bucket list. Valid while its label is.
#[derive(Debug, Clone, Copy, Default)]
struct Links {
    /// Next hop toward the nearest terminal ([`NO_NODE`] at a terminal).
    parent: NodeId,
    /// While queued, the previous vertex of its bucket list; once settled
    /// in a certifying run, the neighbour whose offer sets the label's
    /// [`bound`](Label::bound), when it has one.
    prev: NodeId,
    next: NodeId,
}

/// The vertices of one key, handed out in ascending id order. A small or
/// sparse key is sorted; a larger one is set in an id bitmap that is
/// scanned upwards and cleared as it drains, so the bitmap is all zero
/// between keys.
#[derive(Debug, Default)]
struct KeyDrain {
    /// Filled unordered; after [`order`](Self::order), either sorted by
    /// descending id (popped from the back) or empty.
    list: Vec<NodeId>,
    /// One bit per vertex id.
    bits: Vec<u64>,
    /// Words `word..end` of `bits` may hold set bits.
    word: usize,
    end: usize,
}

impl KeyDrain {
    fn clear(&mut self) {
        self.list.clear();
        self.bits[self.word..self.end].fill(0);
        (self.word, self.end) = (0, 0);
    }

    /// Orders the vertices pushed onto `list`: through the bitmap when it
    /// spans no more words than there are vertices, by sorting otherwise.
    fn order(&mut self) {
        if self.list.len() >= BITMAP_MIN {
            let (lo, hi) = self
                .list
                .iter()
                .fold((NodeId::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let (lo, hi) = (lo as usize / 64, hi as usize / 64 + 1);
            if hi - lo <= self.list.len() {
                if self.bits.len() < hi {
                    self.bits.resize(hi, 0);
                }
                for &v in &self.list {
                    self.bits[v as usize / 64] |= 1 << (v % 64);
                }
                self.list.clear();
                (self.word, self.end) = (lo, hi);
                return;
            }
        }
        self.list.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// The smallest id not handed out yet.
    fn peek(&mut self) -> Option<NodeId> {
        if let Some(&v) = self.list.last() {
            return Some(v);
        }
        while self.word < self.end {
            let w = self.bits[self.word];
            if w != 0 {
                return Some((self.word * 64) as NodeId + w.trailing_zeros());
            }
            self.word += 1;
        }
        None
    }

    fn pop(&mut self) -> Option<NodeId> {
        if let Some(v) = self.list.pop() {
            return Some(v);
        }
        let v = self.peek()?;
        let w = &mut self.bits[self.word];
        *w &= *w - 1;
        Some(v)
    }
}

/// The Voronoi loop's priority queue: pops vertices in `(dist, id)` order
/// and marks each [`SETTLED`]. The loop writes a vertex's label before
/// queueing it.
trait VoronoiQueue {
    /// Empties the queue and opens key 0 with `terms`.
    fn start(&mut self, terms: &[NodeId]);

    /// Queues `v` at `key`.
    fn insert(&mut self, labels: &mut [Label], links: &mut [Links], v: NodeId, key: f64);

    /// Re-files the queued `v` after its key dropped from `old` to `key`.
    fn decrease(
        &mut self,
        labels: &mut [Label],
        links: &mut [Links],
        v: NodeId,
        old: f64,
        key: f64,
    );

    fn pop(&mut self, labels: &mut [Label], links: &mut [Links]) -> Option<NodeId>;
}

/// Unlinks `v` from the intrusive list whose head is `head`.
fn unlink(links: &mut [Links], head: &mut NodeId, v: NodeId) {
    let Links { prev, next, .. } = links[v as usize];
    if prev == NO_NODE {
        *head = next;
    } else {
        links[prev as usize].next = next;
    }
    if next != NO_NODE {
        links[next as usize].prev = prev;
    }
}

/// Pushes `v` onto the intrusive list whose head is `head`.
fn push_front(links: &mut [Links], head: &mut NodeId, v: NodeId) {
    let l = &mut links[v as usize];
    l.prev = NO_NODE;
    l.next = *head;
    if *head != NO_NODE {
        links[*head as usize].prev = v;
    }
    *head = v;
}

/// Radix bucket of `key` relative to the last popped key `last ≤ key`.
fn bucket_of(key: u64, last: u64) -> u8 {
    (64 - (key ^ last).leading_zeros()) as u8
}

/// Monotone radix queue over f64 bit patterns with decrease-key. Buckets
/// `1..=64` are intrusive doubly linked lists threaded through [`Links`],
/// so the queue holds each vertex once and needs no memory beyond the
/// per-vertex arrays. Bucket 0 keeps exact `(key, id)` pop order.
#[derive(Debug)]
struct RadixQueue {
    /// Bit pattern of the last popped key; every queued key is ≥ it.
    last: u64,
    /// List heads of buckets `1..=64` (entry 0 unused).
    heads: [NodeId; BUCKETS],
    /// Lower bound on each bucket's keys: the smallest key filed there
    /// since the bucket was last emptied by a refill. A vertex that
    /// decreased out of the bucket can leave it below every remaining key,
    /// which only costs an extra refill round.
    mins: [u64; BUCKETS],
    /// Bucket 0 as filled by a refill.
    ready: KeyDrain,
    /// Bucket-0 arrivals after the refill (zero-weight edges), merged with
    /// `ready` in id order.
    late: BinaryHeap<Reverse<NodeId>>,
}

impl Default for RadixQueue {
    fn default() -> Self {
        RadixQueue {
            last: 0,
            heads: [NO_NODE; BUCKETS],
            mins: [u64::MAX; BUCKETS],
            ready: KeyDrain::default(),
            late: BinaryHeap::new(),
        }
    }
}

impl RadixQueue {
    /// Files `v`, whose key has bit pattern `key`.
    fn file(&mut self, labels: &mut [Label], links: &mut [Links], v: NodeId, key: u64) {
        let b = bucket_of(key, self.last);
        labels[v as usize].slot = b;
        if b == 0 {
            self.late.push(Reverse(v));
            return;
        }
        self.mins[b as usize] = self.mins[b as usize].min(key);
        push_front(links, &mut self.heads[b as usize], v);
    }

    /// Advances `last` to the lowest non-empty bucket's lower bound and
    /// moves the vertices holding that key into bucket 0; the rest of the
    /// bucket spreads over the lower buckets. The bound shares every bit
    /// above the bucket's with the old `last`, so higher buckets stay
    /// valid. Returns `false` when the queue is empty.
    fn refill(&mut self, labels: &mut [Label], links: &mut [Links]) -> bool {
        let Some(i) = (1..BUCKETS).find(|&i| self.heads[i] != NO_NODE) else {
            return false;
        };
        let head = std::mem::replace(&mut self.heads[i], NO_NODE);
        let min = self.mins[i];
        self.mins[..=i].fill(u64::MAX);
        self.last = min;
        let mut v = head;
        while v != NO_NODE {
            let next = links[v as usize].next;
            let key = labels[v as usize].dist.to_bits();
            if key == min {
                labels[v as usize].slot = 0;
                self.ready.list.push(v);
            } else {
                self.file(labels, links, v, key);
            }
            v = next;
        }
        self.ready.order();
        true
    }
}

impl VoronoiQueue for RadixQueue {
    fn start(&mut self, terms: &[NodeId]) {
        self.last = 0f64.to_bits();
        self.heads = [NO_NODE; BUCKETS];
        self.mins = [u64::MAX; BUCKETS];
        self.ready.clear();
        self.late.clear();
        self.ready.list.extend_from_slice(terms);
        self.ready.order();
    }

    fn insert(&mut self, labels: &mut [Label], links: &mut [Links], v: NodeId, key: f64) {
        self.file(labels, links, v, key.to_bits());
    }

    /// A queued vertex is never in bucket 0 here: bucket 0 holds the
    /// minimum key, and a relaxation never goes below it.
    fn decrease(&mut self, labels: &mut [Label], links: &mut [Links], v: NodeId, _: f64, key: f64) {
        let key = key.to_bits();
        let slot = labels[v as usize].slot;
        debug_assert!(slot != 0 && slot != SETTLED);
        if bucket_of(key, self.last) == slot {
            self.mins[slot as usize] = self.mins[slot as usize].min(key);
            return;
        }
        unlink(links, &mut self.heads[slot as usize], v);
        self.file(labels, links, v, key);
    }

    fn pop(&mut self, labels: &mut [Label], links: &mut [Links]) -> Option<NodeId> {
        let v = loop {
            match (self.ready.peek(), self.late.peek().map(|l| l.0)) {
                (Some(r), Some(l)) if l < r => break self.late.pop().map(|l| l.0),
                (Some(_), _) => break self.ready.pop(),
                (None, Some(_)) => break self.late.pop().map(|l| l.0),
                (None, None) => {
                    if !self.refill(labels, links) {
                        return None;
                    }
                }
            }
        }
        .expect("bucket 0 is non-empty");
        labels[v as usize].slot = SETTLED;
        Some(v)
    }
}

/// Dial's bucket ring for keys that are whole numbers of a unit: `span + 1`
/// intrusive lists threaded through [`Links`], list `k mod (span + 1)`
/// holding the vertices at key `k` units. Every queued key lies within
/// `span` units above the current one (the heaviest edge weighs `span`),
/// so no two queued keys share a list, and every edge weighs at least one
/// unit, so a key's list is complete once it is the current key.
#[derive(Debug, Default)]
struct RingQueue {
    heads: Vec<NodeId>,
    /// Units per key: a key is `key · scale` units.
    scale: f64,
    /// The current key, in units, and its list.
    cur: u64,
    at: usize,
    /// The current key's vertices, taken off its list.
    ready: KeyDrain,
}

impl RingQueue {
    /// Sizes the ring for edges of at most `span` units of `1/scale`.
    fn reset(&mut self, span: usize, scale: f64) {
        self.heads.clear();
        self.heads.resize(span + 1, NO_NODE);
        self.scale = scale;
    }

    /// The list of `key`, a queued key, so at most `span` units above the
    /// current one: one wrap at most.
    fn list_of(&self, key: f64) -> usize {
        // `key` is a whole number of units below 2^52, so adding 2^52 puts
        // that number in the mantissa bits exactly: cheaper than `as u64`,
        // whose saturating conversion is a dozen instructions and a branch.
        const SHIFT: f64 = (1u64 << 52) as f64;
        let units = key * self.scale;
        debug_assert!(units.fract() == 0.0 && units < SHIFT);
        let units = (units + SHIFT).to_bits() - SHIFT.to_bits();
        let at = self.at + (units - self.cur) as usize;
        if at < self.heads.len() {
            at
        } else {
            at - self.heads.len()
        }
    }
}

impl VoronoiQueue for RingQueue {
    fn start(&mut self, terms: &[NodeId]) {
        (self.cur, self.at) = (0, 0);
        self.ready.clear();
        self.ready.list.extend_from_slice(terms);
        self.ready.order();
    }

    fn insert(&mut self, _: &mut [Label], links: &mut [Links], v: NodeId, key: f64) {
        let at = self.list_of(key);
        push_front(links, &mut self.heads[at], v);
    }

    fn decrease(&mut self, _: &mut [Label], links: &mut [Links], v: NodeId, old: f64, key: f64) {
        let from = self.list_of(old);
        unlink(links, &mut self.heads[from], v);
        let at = self.list_of(key);
        push_front(links, &mut self.heads[at], v);
    }

    fn pop(&mut self, labels: &mut [Label], links: &mut [Links]) -> Option<NodeId> {
        loop {
            if let Some(v) = self.ready.pop() {
                labels[v as usize].slot = SETTLED;
                return Some(v);
            }
            // The next key is within one turn of the ring, or none is
            // queued.
            let mut turn = 0..self.heads.len();
            loop {
                turn.next()?;
                self.cur += 1;
                self.at += 1;
                if self.at == self.heads.len() {
                    self.at = 0;
                }
                if self.heads[self.at] != NO_NODE {
                    break;
                }
            }
            let mut v = std::mem::replace(&mut self.heads[self.at], NO_NODE);
            while v != NO_NODE {
                self.ready.list.push(v);
                v = links[v as usize].next;
            }
            self.ready.order();
        }
    }
}

/// The cheapest crossing edge found so far for one terminal pair.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    /// `d(s(u), u) + w(u, v) + d(v, s(v))`.
    w: f64,
    /// Graph edge realizing it, `u < v`; `u == NO_NODE` marks "none yet".
    u: NodeId,
    v: NodeId,
    /// Edges on the terminal-to-terminal path `w` sums.
    hops: u32,
    /// In a certifying run, the pair's group filed last (a hint).
    group: u32,
}

impl Crossing {
    const NONE: Crossing = Crossing {
        w: f64::INFINITY,
        u: NO_NODE,
        v: NO_NODE,
        hops: 0,
        group: END,
    };

    /// Whether `self` replaces `held`: lexicographically smaller
    /// `(w, u, v)`, which is what an ascending scan keeping the first
    /// strict minimum picks.
    fn beats(&self, held: &Crossing) -> bool {
        held.u == NO_NODE
            || self.w < held.w
            || (self.w == held.w && (self.u, self.v) < (held.u, held.v))
    }
}

/// No entry or group: the end of an entry list, or no group hint.
const END: u32 = u32::MAX;

/// One crossing edge `u < v` of a certifying run, kept for its repairs as
/// a member of its [`Group`].
#[derive(Debug, Clone, Copy)]
struct CrossEntry {
    u: NodeId,
    v: NodeId,
    /// The group's next member, or the next free entry.
    next: u32,
}

impl CrossEntry {
    /// `(a, b, k, M)`: the edge joins regions `a < b` by a path of `k`
    /// edges whose `m` sum to `M`, read from labels at the λ of `grid`.
    #[inline]
    fn resolve(&self, labels: &[Label], grid: &Grid) -> (u32, u32, u32, i64) {
        let (lu, lv) = (labels[self.u as usize], labels[self.v as usize]);
        let (a, b) = (lu.source.min(lv.source), lu.source.max(lv.source));
        let (k, m) = grid.crossing((lu.dist, lu.hops), (lv.dist, lv.hops), lu.pot.max(lv.pot));
        (a, b, k, m)
    }
}

/// A crossing edge's `(M, u, v)`, packed so that one integer comparison
/// orders it (`M ≥ 0` in an exact run): filing an edge updates a minimum
/// without a branch, which measured faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Least(u128);

impl Least {
    /// No edge; its `u` is [`NO_NODE`].
    const NONE: Least = Least(u128::MAX);

    fn new(m: i64, u: NodeId, v: NodeId) -> Self {
        Least((m as u64 as u128) << 64 | (u as u128) << 32 | v as u128)
    }

    fn m(self) -> i64 {
        (self.0 >> 64) as i64
    }

    fn u(self) -> NodeId {
        (self.0 >> 32) as NodeId
    }

    fn v(self) -> NodeId {
        self.0 as NodeId
    }
}

/// The kept crossing edges of one terminal pair `a < b` with `k` hops.
/// Each key among them is `kλ + M/λ`, so their least `(M, u, v)` is their
/// least `(w, u, v)` at every λ.
#[derive(Debug, Clone, Copy)]
struct Group {
    a: u32,
    b: u32,
    k: u32,
    /// The member filed last; the others follow through
    /// [`CrossEntry::next`].
    last: u32,
    /// The members' least `(M, u, v)`, [`Least::NONE`] when none resolves
    /// here.
    least: Least,
    /// `least` as the current repair found it.
    was: Least,
}

/// A certifying run's crossing edges filed by [`Group`], plus the work its
/// repairs did on them (see the module doc). Each crossing edge is a
/// member of the group it resolves to under the current labels; members
/// that resolve elsewhere are left behind by repairs and dropped when
/// their group is rescanned.
#[derive(Debug)]
struct Groups {
    list: Vec<Group>,
    /// Each group's index in `list` by `(a, b, k)`.
    index: FxHashMap<(u32, u32, u32), u32>,
    entries: Vec<CrossEntry>,
    /// The first entry no group holds, the rest linked through
    /// [`CrossEntry::next`].
    free: u32,
    /// Entries filed or rescanned by repairs, groups rescanned, minima a
    /// repair kept as they were, and compactions, since the workspace's
    /// creation.
    reweighed: u64,
    rescans: u64,
    minima_kept: u64,
    compactions: u64,
    /// Most entries a fresh run reserves (`usize::MAX`: one per edge).
    cap: usize,
}

impl Default for Groups {
    fn default() -> Self {
        Groups {
            list: Vec::new(),
            index: FxHashMap::default(),
            entries: Vec::new(),
            free: END,
            reweighed: 0,
            rescans: 0,
            minima_kept: 0,
            compactions: 0,
            cap: usize::MAX,
        }
    }
}

impl Groups {
    /// Empties the groups for a fresh run on a graph of `edges` edges, with
    /// room for every edge at once: the storage is reserved once and
    /// compacted only when full, as growing it by doubling would hold two
    /// copies at a time. Under a `cap`, the storage starts at most that
    /// large.
    fn start(&mut self, edges: usize) {
        self.list.clear();
        self.index.clear();
        self.entries.clear();
        if self.entries.capacity() > self.cap {
            self.entries.shrink_to(self.cap);
        }
        self.entries.reserve(edges.min(self.cap));
        self.free = END;
    }

    /// The index of group `(a, b, k)`, created empty if new. `hint`, the
    /// pair's group filed last, spares the lookup when it matches (edges
    /// of one hop count come in runs), and is updated.
    #[inline]
    fn group(&mut self, hint: &mut u32, (a, b, k): (u32, u32, u32)) -> u32 {
        if *hint != END && self.list[*hint as usize].k == k {
            return *hint;
        }
        if let Some(&gi) = self.index.get(&(a, b, k)) {
            *hint = gi;
            return gi;
        }
        let gi = self.list.len() as u32;
        *hint = gi;
        self.index.insert((a, b, k), gi);
        self.list.push(Group {
            a,
            b,
            k,
            last: END,
            least: Least::NONE,
            was: Least::NONE,
        });
        gi
    }

    /// Files the edge `u < v`, whose `M` is `m`, in group `gi`.
    #[inline]
    fn file(&mut self, gi: u32, (u, v): (NodeId, NodeId), m: i64) {
        let group = &mut self.list[gi as usize];
        let e = CrossEntry {
            u,
            v,
            next: group.last,
        };
        if self.free == END {
            group.last = self.entries.len() as u32;
            self.entries.push(e);
        } else {
            group.last = self.free;
            self.free = self.entries[self.free as usize].next;
            self.entries[group.last as usize] = e;
        }
        group.least = group.least.min(Least::new(m, u, v));
    }

    /// Whether filing one more entry would grow the storage.
    fn full(&self) -> bool {
        self.free == END && self.entries.len() == self.entries.capacity()
    }

    /// Notes each group's minimum as a repair begins.
    fn note_minima(&mut self) {
        for g in &mut self.list {
            g.was = g.least;
        }
    }

    /// Recomputes group `gi`'s minimum from the members that still resolve
    /// to it, freeing the others: a member's label change can only move it
    /// out of the group or leave a copy of an edge filed again. Returns
    /// how many entries it freed.
    fn rescan(&mut self, gi: usize, labels: &[Label], grid: &Grid) -> usize {
        let Group { a, b, k, .. } = self.list[gi];
        let (mut least, mut freed) = (Least::NONE, 0);
        let (mut prev, mut at) = (END, self.list[gi].last);
        while at != END {
            let e = self.entries[at as usize];
            self.reweighed += 1;
            let (ea, eb, ek, m) = e.resolve(labels, grid);
            if (ea, eb, ek) == (a, b, k) {
                least = least.min(Least::new(m, e.u, e.v));
                prev = at;
            } else {
                match prev {
                    END => self.list[gi].last = e.next,
                    p => self.entries[p as usize].next = e.next,
                }
                self.entries[at as usize].next = self.free;
                self.free = at;
                freed += 1;
            }
            at = e.next;
        }
        self.list[gi].least = least;
        self.rescans += 1;
        freed
    }

    /// Rescans every group, making room; grows the storage when that frees
    /// less than a quarter of it, so compactions stay rare.
    fn compact(&mut self, labels: &[Label], grid: &Grid) {
        self.compactions += 1;
        let freed: usize = (0..self.list.len())
            .map(|gi| self.rescan(gi, labels, grid))
            .sum();
        if freed < self.entries.len() / 4 {
            self.entries.reserve(self.entries.len());
        }
    }

    /// Once the labels are final, rescans each group whose minimum no
    /// longer resolves to it with the same `M`, and counts the minima kept
    /// as they were. Every member's current value was filed or is
    /// unchanged, so a minimum that still resolves is the least.
    fn check_minima(&mut self, labels: &[Label], grid: &Grid) {
        for gi in 0..self.list.len() {
            let g = self.list[gi];
            if g.least == Least::NONE {
                continue;
            }
            let e = CrossEntry {
                u: g.least.u(),
                v: g.least.v(),
                next: END,
            };
            if e.resolve(labels, grid) != (g.a, g.b, g.k, g.least.m()) {
                self.rescan(gi, labels, grid);
            } else if g.least == g.was {
                self.minima_kept += 1;
            }
        }
    }
}

/// Cheapest crossing edge per terminal pair `(a, b)`, `a < b`.
#[derive(Debug, Default)]
struct CrossingTable {
    terms: usize,
    /// Row-major `terms × terms` when `terms ≤ DENSE_CROSSING_TERMINALS`.
    dense: Vec<Crossing>,
    /// Used instead of `dense` above the limit.
    sparse: FxHashMap<(u32, u32), Crossing>,
}

impl CrossingTable {
    fn reset(&mut self, terms: usize) {
        self.terms = terms;
        self.dense.clear();
        self.sparse.clear();
        if terms <= DENSE_CROSSING_TERMINALS {
            self.dense.resize(terms * terms, Crossing::NONE);
        }
    }

    fn held(&mut self, a: u32, b: u32) -> &mut Crossing {
        if self.terms <= DENSE_CROSSING_TERMINALS {
            &mut self.dense[a as usize * self.terms + b as usize]
        } else {
            self.sparse.entry((a, b)).or_insert(Crossing::NONE)
        }
    }

    /// Offers the crossing edge between the settled vertices `x` and `y`
    /// of Voronoi regions `a` and `b`, each given as `(id, distance,
    /// hops)`, the larger of their potentials being `m`. Its weight is at
    /// least `floor = d(x) + d(y)` (f64 addition of a non-negative term
    /// never rounds below the other operand), so when the held edge
    /// already weighs less than `floor` the offer cannot win and its
    /// weight is never evaluated. Returns the pair's slot. Inlined into
    /// the Voronoi loop, which measured faster.
    #[inline(always)]
    fn offer<C: Costs>(
        &mut self,
        costs: &mut C,
        (a, b): (u32, u32),
        x: (NodeId, f64, u16),
        y: (NodeId, f64, u16),
        m: u32,
    ) -> &mut Crossing {
        let ((u, du, ku), (v, dv, kv)) = if x.0 < y.0 { (x, y) } else { (y, x) };
        let held = self.held(a.min(b), a.max(b));
        if held.u != NO_NODE && held.w < du + dv {
            return held;
        }
        let c = Crossing {
            w: du + costs.cost(u, v, m) + dv,
            u,
            v,
            hops: ku as u32 + kv as u32 + 1,
            group: held.group,
        };
        if c.beats(held) {
            *held = c;
        }
        held
    }

    /// Resets the table to `terms` terminals and makes each pair's winner
    /// the least of its groups' minima at the λ of `grid`.
    fn reweigh(&mut self, terms: usize, groups: &[Group], grid: &Grid) {
        self.reset(terms);
        for g in groups.iter().filter(|g| g.least != Least::NONE) {
            let c = Crossing {
                w: grid.key(g.k, g.least.m()),
                u: g.least.u(),
                v: g.least.v(),
                hops: g.k,
                group: END,
            };
            let held = self.held(g.a, g.b);
            if c.beats(held) {
                *held = c;
            }
        }
    }

    fn get(&self, a: u32, b: u32) -> Crossing {
        let (a, b) = (a.min(b), a.max(b));
        if self.terms <= DENSE_CROSSING_TERMINALS {
            self.dense[a as usize * self.terms + b as usize]
        } else {
            self.sparse[&(a, b)]
        }
    }

    /// Appends the terminal distance graph's edges `(w, a, b)` to `out`.
    fn edges_into(&self, out: &mut Vec<WeightedEdge>) {
        if self.terms <= DENSE_CROSSING_TERMINALS {
            for a in 0..self.terms {
                for b in a + 1..self.terms {
                    let c = self.dense[a * self.terms + b];
                    if c.u != NO_NODE {
                        out.push((c.w, a as u32, b as u32));
                    }
                }
            }
        } else {
            let won = self.sparse.iter().filter(|(_, c)| c.u != NO_NODE);
            out.extend(won.map(|(&(a, b), c)| (c.w, a, b)));
        }
    }
}

/// Where a Mehlhorn run gets its edge costs, and what it records about
/// its own decisions: [`Plain`] wraps a weight closure and records
/// nothing; [`Dyadic`] is ws-q's `λ + m/λ` at `λ = 2^t` over per-vertex
/// potentials, and certifies.
trait Costs {
    /// Whether the run reports its decisions and keeps what a repair needs.
    const CERTIFIES: bool;

    /// Writes the run's potentials into `labels`, and returns the bucket
    /// ring's span and scale when the run qualifies for the ring.
    fn prepare(&self, _labels: &mut [Label]) -> Option<(usize, f64)> {
        None
    }

    /// The cost of edge `(u, v)`, the larger of whose endpoints'
    /// potentials is `m` (meaningless in a run without potentials).
    fn cost(&mut self, u: NodeId, v: NodeId, m: u32) -> f64;

    /// A vertex whose label has `hops` edges and whose potential is `pot`
    /// settled.
    fn settled(&mut self, _hops: u16, _pot: u32) {}

    /// A label, `label.0` summing `label.1` edges, beat a neighbour's
    /// offer with fewer edges: the label's [`bound`](Label::bound).
    fn label_bound(&mut self, _label: (f64, u32), _offer: (f64, u32)) -> i8 {
        FREE
    }

    /// A decision: the key `win.0`, a path sum of `win.1` edges, beat
    /// `lose.0` of `lose.1` edges, `win.0 ≤ lose.0` (a tie won on ids).
    fn decided(&mut self, _win: (f64, u32), _lose: (f64, u32)) {}

    /// The grid point the run's keys live on (certifying runs only).
    fn grid(&self) -> Grid {
        Grid::new(0)
    }

    /// Whether the decisions so far still let the certificate cover the
    /// next power of two, so that further decisions matter.
    fn open(&self) -> bool {
        false
    }
}

/// Costs from a closure; certifies nothing and costs nothing extra.
struct Plain<W>(W);

impl<W: Fn(NodeId, NodeId) -> f64> Costs for Plain<W> {
    const CERTIFIES: bool = false;

    #[inline]
    fn cost(&mut self, u: NodeId, v: NodeId, _: u32) -> f64 {
        (self.0)(u, v)
    }
}

/// The grid point `λ = 2^t` and the exact arithmetic of its keys: a path
/// of `k` edges whose `m` sum to `M` costs `kλ + M/λ`.
#[derive(Debug, Clone, Copy)]
struct Grid {
    t: i32,
    lambda: f64,
    /// `1/λ`, exact, so `m · inv_lambda` is bit for bit `m / λ`.
    inv_lambda: f64,
    lambda_sq: f64,
}

impl Grid {
    fn new(t: i32) -> Self {
        let lambda = 2f64.powi(t);
        Grid {
            t,
            lambda,
            inv_lambda: 2f64.powi(-t),
            lambda_sq: lambda * lambda,
        }
    }

    #[inline]
    fn cost(&self, m: u32) -> f64 {
        self.lambda + m as f64 * self.inv_lambda
    }

    /// `M` of a key summing `hops` edges. Exact keys give it exactly; an
    /// inexact run is refused by [`exact_cap`] whatever this returns.
    #[inline]
    fn m_of(&self, key: f64, hops: u32) -> i64 {
        (key * self.lambda - hops as f64 * self.lambda_sq) as i64
    }

    /// The key of `k` edges whose `m` sum to `m`, exact when keys are.
    #[inline]
    fn key(&self, k: u32, m: i64) -> f64 {
        k as f64 * self.lambda + m as f64 * self.inv_lambda
    }

    /// `(k, M)` of the crossing edge between labels `x` and `y`, each
    /// `(distance, hops)`, the larger of whose potentials is `m`.
    #[inline]
    fn crossing(&self, x: (f64, u16), y: (f64, u16), m: u32) -> (u32, i64) {
        let k = x.1 as u32 + y.1 as u32;
        (k + 1, self.m_of(x.0 + y.0, k) + m as i64)
    }
}

/// The largest λ'² at which a winner `(k, M)` with more edges than the
/// loser still beats it strictly: `(k_win − k_lose)·λ'² < M_lose − M_win`.
fn threshold(win: (u32, i64), lose: (u32, i64)) -> u64 {
    let dm = lose.1.saturating_sub(win.1);
    match win.0 - lose.0 {
        _ if dm <= 0 => 0,
        1 => (dm - 1) as u64,
        dk => ((dm - 1) / i64::from(dk)) as u64,
    }
}

/// The largest `t` with `4^t ≤ sq`, capped at [`FREE`]; `−1` for 0.
fn exponent(sq: u64) -> i8 {
    if sq == 0 {
        -1
    } else {
        (((63 - sq.leading_zeros()) / 2) as i8).min(FREE)
    }
}

/// The certificate's cap on λ'² where keys stop being exact, `None` when
/// a run at `λ = 2^t` with these labels is not exact itself (see the
/// module doc).
fn exact_cap(t: i32, hops_max: u16, m_max: u32) -> Option<u64> {
    const EXACT: u128 = 1 << 53;
    if hops_max == u16::MAX || t.abs() > 26 {
        return None;
    }
    let k = 2 * hops_max as u128 + 1;
    let m = m_max as u128;
    let here = if t >= 0 {
        (1u128 << (2 * t)) + m
    } else {
        1 + (m << (-2 * t))
    };
    (k * here < EXACT).then(|| ((EXACT - 1) / k).saturating_sub(m) as u64)
}

/// `λ + max(p(u), p(v))/λ` at `λ = 2^t`, collecting the run's certificate.
struct Dyadic<'p> {
    potentials: &'p [u32],
    grid: Grid,
    /// Largest λ'² every crossing and Kruskal decision so far allows.
    lim: u64,
    /// Smallest label bound.
    labels_min: i8,
    /// Largest hop count and potential of a settled vertex, for the
    /// exactness cap. Both endpoints of every edge the run costs settle,
    /// so `m_max` bounds every `m` the run meets.
    hops_max: u16,
    m_max: u32,
}

impl<'p> Dyadic<'p> {
    fn new(potentials: &'p [u32], t: i32) -> Self {
        Dyadic {
            potentials,
            grid: Grid::new(t),
            lim: u64::MAX,
            labels_min: FREE,
            hops_max: 0,
            m_max: 0,
        }
    }

    /// Bounds λ'² for a winner with more hops.
    #[cold]
    #[inline(never)]
    fn bound(&mut self, win: (f64, u32), lose: (f64, u32)) {
        let (mw, ml) = (self.grid.m_of(win.0, win.1), self.grid.m_of(lose.0, lose.1));
        self.lim = self.lim.min(threshold((win.1, mw), (lose.1, ml)));
    }

    /// The certificate: every bound recorded, capped where keys stop being
    /// exact.
    fn repeats(&self) -> Repeats {
        let Some(cap) = exact_cap(self.grid.t, self.hops_max, self.m_max) else {
            return Repeats::NONE;
        };
        let labels = match self.labels_min {
            FREE => u64::MAX,
            e if e < 0 => 0,
            e => 1 << (2 * e),
        };
        Repeats {
            t: self.grid.t,
            max_sq: self.lim.min(labels).min(cap),
        }
    }
}

/// The heaviest edge of a run at `λ = 2^t` whose potentials are at most
/// `p_max`, in units of `2^−|t|`, when it is at most [`RING_MAX`].
fn ring_span(t: i32, p_max: u32) -> Option<usize> {
    let quarter = 4u64.checked_pow(t.unsigned_abs())?;
    let span = if t >= 0 {
        quarter + u64::from(p_max)
    } else {
        1 + quarter.checked_mul(u64::from(p_max))?
    };
    (span <= RING_MAX).then_some(span as usize)
}

impl Costs for Dyadic<'_> {
    const CERTIFIES: bool = true;

    fn prepare(&self, labels: &mut [Label]) -> Option<(usize, f64)> {
        let mut p_max = 0;
        for (label, &p) in labels.iter_mut().zip(self.potentials) {
            label.pot = p;
            p_max = p_max.max(p);
        }
        let span = ring_span(self.grid.t, p_max)?;
        Some((span, 2f64.powi(self.grid.t.abs())))
    }

    #[inline]
    fn cost(&mut self, _: NodeId, _: NodeId, m: u32) -> f64 {
        self.grid.cost(m)
    }

    #[inline]
    fn settled(&mut self, hops: u16, pot: u32) {
        self.hops_max = self.hops_max.max(hops);
        self.m_max = self.m_max.max(pot);
    }

    #[cold]
    #[inline(never)]
    fn label_bound(&mut self, label: (f64, u32), offer: (f64, u32)) -> i8 {
        let (ml, mo) = (
            self.grid.m_of(label.0, label.1),
            self.grid.m_of(offer.0, offer.1),
        );
        let e = exponent(threshold((label.1, ml), (offer.1, mo)));
        self.labels_min = self.labels_min.min(e);
        e
    }

    #[inline]
    fn decided(&mut self, win: (f64, u32), lose: (f64, u32)) {
        if win.1 > lose.1 {
            self.bound(win, lose);
        }
    }

    fn grid(&self) -> Grid {
        self.grid
    }

    fn open(&self) -> bool {
        self.repeats().covers(2f64.powi(self.grid.t + 1))
    }
}

/// The larger λ at which a ws-q Mehlhorn run provably repeats, decision
/// for decision, so that a fresh call there returns the same `nodes` and
/// `edges` (see the module doc). Returned by
/// [`lambda_steiner_with`](super::lambda_steiner_with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeats {
    /// The run's λ is `2^t`.
    t: i32,
    /// Largest λ'² covered.
    max_sq: u64,
}

impl Repeats {
    /// Covers no λ.
    pub const NONE: Repeats = Repeats { t: 0, max_sq: 0 };

    /// Whether the run repeats at `lambda`: a power of two `≥ 1`, above
    /// the run's λ and within its bound.
    pub fn covers(&self, lambda: f64) -> bool {
        dyadic_exponent(lambda)
            .is_some_and(|t| t > self.t && (0..=26).contains(&t) && 1u64 << (2 * t) <= self.max_sq)
    }
}

/// `t` when `λ = 2^t` exactly (positive and normal).
pub(crate) fn dyadic_exponent(lambda: f64) -> Option<i32> {
    let bits = lambda.to_bits();
    // A set sign bit puts the biased exponent out of range.
    let biased = (bits >> 52) as i32;
    (bits & ((1 << 52) - 1) == 0 && (1..2047).contains(&biased)).then_some(biased - 1023)
}

/// Reusable buffers for [`mehlhorn_steiner_with`].
///
/// Per-vertex state is generation-stamped, so a call costs no `O(|V|)`
/// clear; buffers grow to the largest graph seen and serve graphs of any
/// size after that. Hold one per thread for a run of calls (a root sweep),
/// or pool it across runs. It keeps about 36 bytes per vertex of the
/// largest graph it served: a 24-byte label (distance, potential, source,
/// stamp, hops, queue slot, bound), 12 bytes of parent and list links,
/// and a bit in each queue's id bitmap and in two marker bitmaps. A
/// certifying run also keeps 12 bytes per crossing edge for its repairs,
/// with room reserved for one per graph edge, and 48 bytes per group of
/// them.
#[derive(Debug, Default)]
pub struct SteinerWorkspace {
    labels: Vec<Label>,
    links: Vec<Links>,
    /// One bit per vertex, set while the expansion (step 4) covers it and
    /// cleared when the expansion ends.
    covered: Vec<u64>,
    generation: u32,
    radix: RadixQueue,
    ring: RingQueue,
    /// Calls whose Voronoi loop ran on `ring`.
    ring_calls: u64,
    /// Calls answered by a repair.
    repairs: u64,
    /// Labels settled by fresh runs plus labels changed by repairs.
    settled: u64,
    crossing: CrossingTable,
    kept: Kept,
    terms: Vec<NodeId>,
    term_edges: Vec<WeightedEdge>,
    sub_nodes: Vec<NodeId>,
    sub_edges: Vec<(NodeId, NodeId)>,
}

/// What a certifying run keeps so that a call at a larger λ can repair it
/// instead of running afresh (see the module doc), plus the repair's
/// scratch buffers.
#[derive(Debug, Default)]
struct Kept {
    /// Whether the labels of generation `gen` hold an exact run at
    /// `λ = 2^t` over the workspace's `terms`, whose largest label hop
    /// count is `hops_max` and largest settled potential `m_max`.
    live: bool,
    gen: u32,
    t: i32,
    hops_max: u16,
    m_max: u32,
    /// The run's crossing edges.
    groups: Groups,
    /// One bit per vertex whose label the current repair changed.
    changed: Vec<u64>,
    seeds: Vec<NodeId>,
    popped: Vec<NodeId>,
    recheck: Vec<NodeId>,
    /// Labels per hop count, and per bound (offset by one).
    hops: Vec<u32>,
    bounds: [u32; FREE as usize + 2],
}

/// Sets bit `v` of a per-vertex bitmap; returns whether it was clear.
fn mark(bits: &mut [u64], v: NodeId) -> bool {
    let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
    let clear = bits[word] & bit == 0;
    bits[word] |= bit;
    clear
}

fn marked(bits: &[u64], v: NodeId) -> bool {
    bits[v as usize / 64] & (1 << (v % 64)) != 0
}

/// Whether offer `a` beats offer `b`, each `(key, sender's distance,
/// sender)`: Mehlhorn's Voronoi tie rule.
fn wins(a: (f64, f64, NodeId), b: (f64, f64, NodeId)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && (a.1 < b.1 || (a.1 == b.1 && a.2 < b.2)))
}

impl SteinerWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many calls on this workspace grew their Voronoi regions on the
    /// integer bucket ring rather than the radix queue (see the module
    /// doc), since it was created.
    pub fn ring_calls(&self) -> u64 {
        self.ring_calls
    }

    /// How many calls on this workspace a [`LambdaSweep`](super::LambdaSweep)
    /// answered by repairing its previous run instead of running afresh,
    /// since it was created.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Voronoi labels settled by fresh runs plus labels changed by
    /// repairs on this workspace, since it was created.
    pub fn voronoi_settled(&self) -> u64 {
        self.settled
    }

    /// Crossing edges that repairs on this workspace filed or rescanned,
    /// since it was created.
    pub(crate) fn crossing_reweighed(&self) -> u64 {
        self.kept.groups.reweighed
    }

    /// What repairs on this workspace did to its crossing-edge groups
    /// since it was created (see the module doc): groups rescanned, cached
    /// minima kept as they were, and compactions of the full storage.
    #[doc(hidden)]
    pub fn group_work(&self) -> (u64, u64, u64) {
        let g = &self.kept.groups;
        (g.rescans, g.minima_kept, g.compactions)
    }

    /// Caps the crossing-edge storage each fresh run starts with at
    /// `entries` instead of one per graph edge, so tests can fill it, and
    /// make repairs compact it, on small graphs. Storage past the cap
    /// still grows as a run needs it.
    #[doc(hidden)]
    pub fn cap_crossing_storage(&mut self, entries: usize) {
        self.kept.groups.cap = entries;
    }

    /// Jumps the stamp generation to just before it wraps, so tests can
    /// exercise the wrap-around reset without four billion calls. Only
    /// ever moves the generation forward, which keeps every stale stamp
    /// stale.
    #[doc(hidden)]
    pub fn skip_to_generation_wrap(&mut self) {
        self.generation = self.generation.max(u32::MAX - 2);
    }

    /// Drops the kept run, so the next call runs afresh.
    pub(crate) fn forget(&mut self) {
        self.kept.live = false;
    }

    /// Drops the kept run and frees its crossing edges, which the next
    /// fresh run reserves again, keeping the per-vertex arrays: for a
    /// workspace that waits idle in a pool, where memory it holds cannot
    /// serve anything else.
    pub(crate) fn trim(&mut self) {
        self.kept.live = false;
        let groups = &mut self.kept.groups;
        (groups.list, groups.entries) = (Vec::new(), Vec::new());
        groups.index = FxHashMap::default();
        groups.free = END;
    }

    /// Opens a call on a graph of `n` vertices: grows the per-vertex
    /// arrays and bumps the generation, clearing every stamp on wrap.
    fn begin(&mut self, n: usize) -> u32 {
        if self.labels.len() < n {
            self.labels.resize(n, Label::default());
            self.links.resize(n, Links::default());
            self.covered.resize(n.div_ceil(64), 0);
            self.kept.changed.resize(n.div_ceil(64), 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.labels.iter_mut().for_each(|s| s.stamp = 0);
            self.generation = 1;
        }
        self.generation
    }

    /// Step 4: the union of the graph paths `s(u) ⇝ u — v ⇝ s(v)` behind
    /// the terminal-MST edges, into `sub_nodes`/`sub_edges`. Each walk up
    /// the Voronoi parents stops at the first vertex already covered: the
    /// rest of its path to a terminal is in the subgraph already.
    fn expand(&mut self, term_mst: &[WeightedEdge]) {
        let SteinerWorkspace {
            links,
            covered,
            crossing,
            terms,
            sub_nodes,
            sub_edges,
            ..
        } = self;
        sub_nodes.clear();
        sub_edges.clear();
        for &t in terms.iter() {
            mark(covered, t);
            sub_nodes.push(t);
        }
        for &(_, a, b) in term_mst {
            let Crossing { u, v, .. } = crossing.get(a, b);
            sub_edges.push((u, v));
            for mut cur in [u, v] {
                while mark(covered, cur) {
                    sub_nodes.push(cur);
                    let p = links[cur as usize].parent;
                    debug_assert!(p != NO_NODE, "only terminals lack a parent");
                    sub_edges.push((cur.min(p), cur.max(p)));
                    cur = p;
                }
            }
        }
        for &v in sub_nodes.iter() {
            covered[v as usize / 64] = 0;
        }
        sub_nodes.sort_unstable();
    }

    /// Steps 3–6 once the crossing table holds each pair's winner: a
    /// certifying run bounds every crossing edge against its pair's
    /// winner and Kruskal's picks against their sorted order, then the
    /// terminal MST expands, and the expanded subgraph's MST is pruned.
    fn conclude<C: Costs>(&mut self, costs: &mut C) -> Result<SteinerTree> {
        // Step 3: MST over the terminal distance graph.
        self.term_edges.clear();
        self.crossing.edges_into(&mut self.term_edges);
        let (term_mst, _) = kruskal(self.terms.len(), &mut self.term_edges);
        if term_mst.len() + 1 != self.terms.len() {
            return Err(CoreError::QueryNotConnectable);
        }
        if C::CERTIFIES {
            // Kruskal's picks follow from its sorted order.
            for pair in self.term_edges.windows(2) {
                let [(w0, a0, b0), (w1, a1, b1)] = [pair[0], pair[1]];
                let (k0, k1) = (
                    self.crossing.get(a0, b0).hops,
                    self.crossing.get(a1, b1).hops,
                );
                costs.decided((w0, k0), (w1, k1));
            }
            // Each pair's winner keeps beating an edge of as many hops or
            // more, so only fewer-hop edges bound it, and of a group only
            // its minimum, whose bound is the tightest. Once the
            // certificate covers no larger power of two, no bound can
            // matter.
            if costs.open() {
                let grid = costs.grid();
                for g in self
                    .kept
                    .groups
                    .list
                    .iter()
                    .filter(|g| g.least != Least::NONE)
                {
                    let held = self.crossing.get(g.a, g.b);
                    if g.k < held.hops {
                        let m = g.least.m();
                        costs.decided((held.w, held.hops), (grid.key(g.k, m), g.k));
                    }
                }
            }
        }

        // Step 4: expand each terminal-MST edge into its graph path.
        self.expand(&term_mst);

        // Steps 5–6: MST of the expanded subgraph, then leaf pruning (shared
        // with Kou–Markowsky–Berman, which ends identically).
        let labels = &self.labels;
        Ok(mst_then_prune(
            &self.terms,
            &self.sub_nodes,
            &self.sub_edges,
            |u, v| costs.cost(u, v, labels[u as usize].pot.max(labels[v as usize].pot)),
        ))
    }

    /// The kept run repaired to `λ = 2^t`: the tree and certificate a
    /// fresh call there returns (see the module doc). `None` when no run
    /// is kept, `t` is not above its λ or outside `0..=26`, or keys would
    /// not be exact; the caller then runs afresh.
    pub(crate) fn repair(&mut self, g: &Graph, t: i32) -> Option<Result<(SteinerTree, Repeats)>> {
        let kept = &self.kept;
        let open = kept.live && kept.gen == self.generation;
        if !open || t <= kept.t || !(0..=26).contains(&t) {
            return None;
        }
        exact_cap(t, kept.hops_max, kept.m_max)?;
        let (old, grid) = (Grid::new(kept.t), Grid::new(t));
        let (n, gen, terms) = (g.num_nodes(), self.generation, self.terms.len());
        let SteinerWorkspace {
            labels,
            links,
            radix,
            crossing,
            kept,
            ..
        } = self;
        let (labels, links) = (&mut labels[..n], &mut links[..n]);
        let Kept {
            live,
            t: kept_t,
            hops_max: kept_hops,
            m_max,
            groups,
            changed,
            seeds,
            popped,
            recheck,
            hops,
            bounds,
            ..
        } = kept;

        // Every label re-costed at λ is the cost of its old path, an upper
        // bound. Those whose bound λ exceeds seed the repair.
        hops.clear();
        hops.resize(*kept_hops as usize + 2, 0);
        *bounds = [0; FREE as usize + 2];
        seeds.clear();
        for (v, l) in labels.iter_mut().enumerate() {
            if l.stamp != gen {
                continue;
            }
            // `M = dλ − kλ²` and `kλ' + M/λ'`: every product scales by a
            // power of two, and each result is an exact key or `M`.
            let k = l.hops as f64;
            let m = l.dist * old.lambda - k * old.lambda_sq;
            l.dist = k * grid.lambda + m * grid.inv_lambda;
            hops[l.hops as usize] += 1;
            bounds[(l.bound + 1) as usize] += 1;
            if l.bound < t as i8 {
                seeds.push(v as NodeId);
            }
        }

        // Each seed takes the best offer of its unchanged neighbours and
        // is queued, if that offer beats its label; a seed relabelled
        // before it offers when it settles. So every queued label is an
        // old path plus one edge until the Dijkstra settles it.
        radix.start(&[]);
        for &v in seeds.iter() {
            let lv = labels[v as usize];
            let p = links[v as usize].parent;
            let held = (
                lv.dist,
                lv.dist - grid.cost(labels[p as usize].pot.max(lv.pot)),
                p,
            );
            let (mut best, mut from) = (held, lv);
            for &u in g.neighbors(v) {
                let lu = labels[u as usize];
                let offer = (lu.dist + grid.cost(lu.pot.max(lv.pot)), lu.dist, u);
                if lu.slot == SETTLED && wins(offer, best) {
                    (best, from) = (offer, lu);
                }
            }
            if best.2 != p {
                relabel(labels, links, radix, hops, (v, best.2, best.0), &from);
            }
        }

        // Dijkstra out of the changed labels only: a label no changed
        // label offers better keeps its old path. As each label settles,
        // the edges to its settled and unchanged neighbours are final (or
        // final unless that neighbour changes later, which then handles
        // the edge again): they bound labels and cross regions.
        popped.clear();
        recheck.clear();
        groups.note_minima();
        while let Some(v) = radix.pop(labels, links) {
            popped.push(v);
            mark(changed, v);
            let lv = labels[v as usize];
            let mv = grid.m_of(lv.dist, lv.hops as u32);
            let (mut bound, mut by) = (FREE, NO_NODE);
            for &x in g.neighbors(v) {
                let lx = labels[x as usize];
                let key = lv.dist + grid.cost(lv.pot.max(lx.pot));
                if key <= lx.dist {
                    let take = key < lx.dist || {
                        let p = links[x as usize].parent;
                        if p == v {
                            // The parent changed: its child follows unless
                            // nothing it copies changed.
                            lx.source != lv.source || lx.hops != lv.hops.saturating_add(1)
                        } else {
                            let dp = lx.dist - grid.cost(labels[p as usize].pot.max(lx.pot));
                            wins((key, lv.dist, v), (lx.dist, dp, p))
                        }
                    };
                    if take {
                        relabel(labels, links, radix, hops, (x, v, key), &lv);
                        continue;
                    }
                }
                if lx.slot != SETTLED {
                    continue; // settles later and handles the edge then
                }
                let mx = || grid.m_of(lx.dist, lx.hops as u32);
                let m = lv.pot.max(lx.pot) as i64;
                let (kv, kx) = (lv.hops as u32, lx.hops as u32);
                if kv > kx + 1 {
                    let e = exponent(threshold((kv, mv), (kx + 1, mx() + m)));
                    if e < bound {
                        (bound, by) = (e, x);
                    }
                } else if kx > kv + 1 {
                    // An unchanged label's bound is a minimum over its
                    // neighbours' offers: a changed neighbour's new offer
                    // lowers it in place, unless that neighbour set it,
                    // and then the label is bounded again from scratch.
                    let e = exponent(threshold((kx, mx()), (kv + 1, mv + m)));
                    let set_by_v = links[x as usize].prev == v;
                    if set_by_v && e > lx.bound {
                        recheck.push(x);
                    } else if set_by_v || e < lx.bound {
                        set_bound(labels, links, bounds, x, (e, v));
                    }
                } else if links[x as usize].prev == v && lx.bound != FREE {
                    recheck.push(x);
                }
                if lx.source != lv.source {
                    // Filed from the labels as they stand: if `x` changes
                    // later, it files the edge again, and minima are
                    // checked once the labels are final.
                    let (a, b) = (lv.source.min(lx.source), lv.source.max(lx.source));
                    let (k, mk) = grid.crossing((lv.dist, lv.hops), (lx.dist, lx.hops), m as u32);
                    let gi = groups.group(&mut crossing.held(a, b).group, (a, b, k));
                    if groups.full() {
                        groups.compact(labels, &grid);
                    }
                    groups.file(gi, (v.min(x), v.max(x)), mk);
                    groups.reweighed += 1;
                }
            }
            set_bound(labels, links, bounds, v, (bound, by));
        }
        let hops_max = hops.iter().rposition(|&c| c > 0).unwrap_or(0) as u16;
        if exact_cap(t, hops_max, *m_max).is_none() {
            for &v in popped.iter() {
                changed[v as usize / 64] = 0;
            }
            *live = false;
            return None;
        }
        recheck.extend(seeds.iter().filter(|&&v| !marked(changed, v)));
        for &v in recheck.iter() {
            let lv = labels[v as usize];
            let mv = grid.m_of(lv.dist, lv.hops as u32);
            let (mut bound, mut by) = (FREE, NO_NODE);
            for &u in g.neighbors(v) {
                let lu = labels[u as usize];
                if lv.hops as u32 > lu.hops as u32 + 1 {
                    let mu = grid.m_of(lu.dist, lu.hops as u32) + lv.pot.max(lu.pot) as i64;
                    let e = exponent(threshold((lv.hops as u32, mv), (lu.hops as u32 + 1, mu)));
                    if e < bound {
                        (bound, by) = (e, u);
                    }
                }
            }
            set_bound(labels, links, bounds, v, (bound, by));
        }

        // Every crossing edge of a changed label joined its group as that
        // label settled. A group whose minimum no longer resolves to it
        // (an endpoint changed, or it was filed before its other endpoint
        // changed) is rescanned; pair winners follow from the minima.
        groups.check_minima(labels, &grid);
        for &v in popped.iter() {
            changed[v as usize / 64] = 0;
        }
        crossing.reweigh(terms, &groups.list, &grid);

        let labels_min = bounds
            .iter()
            .position(|&c| c > 0)
            .map_or(FREE, |i| i as i8 - 1);
        let mut costs = Dyadic {
            labels_min,
            hops_max,
            m_max: *m_max,
            ..Dyadic::new(&[], t)
        };
        (*kept_t, *kept_hops) = (t, hops_max);
        self.repairs += 1;
        self.settled += popped.len() as u64;
        let tree = self.conclude(&mut costs);
        Some(tree.map(|tree| (tree, costs.repeats())))
    }
}

/// Gives `v` the label that `u`, labelled `lu`, offers at `key`, and
/// queues `v` there.
fn relabel(
    labels: &mut [Label],
    links: &mut [Links],
    queue: &mut RadixQueue,
    hops: &mut Vec<u32>,
    (v, u, key): (NodeId, NodeId, f64),
    lu: &Label,
) {
    let old = labels[v as usize];
    let k = lu.hops.saturating_add(1);
    hops[old.hops as usize] -= 1;
    if hops.len() <= k as usize {
        hops.resize(k as usize + 1, 0);
    }
    hops[k as usize] += 1;
    let l = &mut labels[v as usize];
    (l.dist, l.source, l.hops) = (key, lu.source, k);
    links[v as usize].parent = u;
    if old.slot == SETTLED {
        queue.insert(labels, links, v, key);
    } else if key < old.dist {
        queue.decrease(labels, links, v, old.dist, key);
    }
}

/// Sets `v`'s label bound to `e`, set by the offer of `by`.
fn set_bound(
    labels: &mut [Label],
    links: &mut [Links],
    bounds: &mut [u32],
    v: NodeId,
    (e, by): (i8, NodeId),
) {
    let l = &mut labels[v as usize];
    bounds[(l.bound + 1) as usize] -= 1;
    bounds[(e + 1) as usize] += 1;
    l.bound = e;
    links[v as usize].prev = by;
}

/// Steps 1–2: grows the Voronoi regions of `terms` on `queue` and fills
/// the crossing table as each crossing edge's second endpoint settles. A
/// certifying run also bounds each label and files every crossing edge in
/// its group. Returns how many labels settled.
#[allow(clippy::too_many_arguments)]
fn voronoi<C: Costs, Q: VoronoiQueue>(
    g: &Graph,
    terms: &[NodeId],
    labels: &mut [Label],
    links: &mut [Links],
    kept: &mut Kept,
    crossing: &mut CrossingTable,
    queue: &mut Q,
    costs: &mut C,
    gen: u32,
) -> u64 {
    crossing.reset(terms.len());
    if C::CERTIFIES {
        kept.groups.start(g.num_edges());
    }
    let grid = costs.grid();
    for (i, &t) in terms.iter().enumerate() {
        let label = &mut labels[t as usize];
        (label.dist, label.source, label.stamp) = (0.0, i as u32, gen);
        (label.hops, label.slot, label.bound) = (0, 0, FREE);
        links[t as usize].parent = NO_NODE;
    }
    queue.start(terms);
    let mut settled = 0;
    while let Some(u) = queue.pop(labels, links) {
        settled += 1;
        let Label {
            dist: du,
            pot: pu,
            source: su,
            hops: ku,
            ..
        } = labels[u as usize];
        costs.settled(ku, pu);
        let kv_new = ku.saturating_add(1);
        for &v in g.neighbors(u) {
            let lv = labels[v as usize];
            let m = pu.max(lv.pot);
            if lv.stamp == gen && lv.slot == SETTLED {
                // Both endpoints settled: `(u, v)`'s distances are final,
                // so a crossing edge is complete now, and each label has
                // beaten the other endpoint's offer (a parent's offer is
                // the label, one hop short). Only an offer of fewer hops
                // can win at a larger λ; it bounds the label.
                if C::CERTIFIES && ku.abs_diff(lv.hops) > 1 {
                    let (hi, lo, label, offer) = if ku > lv.hops {
                        let offer = lv.dist + costs.cost(v, u, m);
                        (u, v, (du, ku as u32), (offer, lv.hops as u32 + 1))
                    } else {
                        let offer = du + costs.cost(u, v, m);
                        (v, u, (lv.dist, lv.hops as u32), (offer, ku as u32 + 1))
                    };
                    let e = costs.label_bound(label, offer);
                    if e < labels[hi as usize].bound {
                        labels[hi as usize].bound = e;
                        links[hi as usize].prev = lo;
                    }
                }
                if lv.source != su {
                    let (x, y) = ((u, du, ku), (v, lv.dist, lv.hops));
                    let pair = crossing.offer(costs, (su, lv.source), x, y, m);
                    if C::CERTIFIES {
                        let (a, b) = (su.min(lv.source), su.max(lv.source));
                        let (k, mk) = grid.crossing((du, ku), (lv.dist, lv.hops), m);
                        let gi = kept.groups.group(&mut pair.group, (a, b, k));
                        kept.groups.file(gi, (u.min(v), u.max(v)), mk);
                    }
                }
                continue;
            }
            let w = costs.cost(u, v, m);
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let cand = du + w;
            if lv.stamp == gen {
                if cand < lv.dist {
                    let label = &mut labels[v as usize];
                    (label.dist, label.source, label.hops) = (cand, su, kv_new);
                    links[v as usize].parent = u;
                    queue.decrease(labels, links, v, lv.dist, cand);
                }
            } else if cand < f64::INFINITY {
                labels[v as usize] = Label {
                    dist: cand,
                    pot: lv.pot,
                    source: su,
                    stamp: gen,
                    hops: kv_new,
                    slot: 0,
                    bound: FREE,
                };
                links[v as usize].parent = u;
                queue.insert(labels, links, v, cand);
            }
        }
    }
    settled
}

/// Computes an approximately minimum Steiner tree for `terminals` in `g`
/// under the symmetric, non-negative edge weight `weight(u, v)`.
///
/// Duplicate terminals are merged. Errors with
/// [`CoreError::QueryNotConnectable`] if the terminals do not share a
/// connected component, [`CoreError::EmptyQuery`] on an empty terminal set.
///
/// One-shot form of [`mehlhorn_steiner_with`] (same result, fresh
/// buffers); callers making many calls should hold a [`SteinerWorkspace`].
pub fn mehlhorn_steiner<W>(g: &Graph, terminals: &[NodeId], weight: W) -> Result<SteinerTree>
where
    W: Fn(NodeId, NodeId) -> f64,
{
    mehlhorn_steiner_with(&mut SteinerWorkspace::new(), g, terminals, weight)
}

/// [`mehlhorn_steiner`] on reused buffers.
///
/// `O(|E| + |V| · 64)` radix-queue work plus the weight closure's cost per
/// edge, independent of how many calls the workspace served before.
pub fn mehlhorn_steiner_with<W>(
    ws: &mut SteinerWorkspace,
    g: &Graph,
    terminals: &[NodeId],
    weight: W,
) -> Result<SteinerTree>
where
    W: Fn(NodeId, NodeId) -> f64,
{
    mehlhorn_run(ws, g, terminals, &mut Plain(weight))
}

/// [`mehlhorn_steiner_with`] under ws-q's cost `λ + max(p(u), p(v))/λ` at
/// `λ = 2^t`, `p` the per-vertex `potentials`, certifying as it runs: the
/// tree, and the larger λ at which the same call repeats it (see the
/// module doc). The tree equals `mehlhorn_steiner_with`'s under that cost
/// as a closure. An exact run stays kept in `ws` for a later repair.
pub(crate) fn mehlhorn_dyadic(
    ws: &mut SteinerWorkspace,
    g: &Graph,
    terminals: &[NodeId],
    t: i32,
    potentials: &[u32],
) -> Result<(SteinerTree, Repeats)> {
    let mut costs = Dyadic::new(potentials, t);
    let tree = mehlhorn_run(ws, g, terminals, &mut costs)?;
    if ws.terms.len() > 1 && exact_cap(t, costs.hops_max, costs.m_max).is_some() {
        let kept = &mut ws.kept;
        (kept.live, kept.gen, kept.t) = (true, ws.generation, t);
        (kept.hops_max, kept.m_max) = (costs.hops_max, costs.m_max);
    }
    Ok((tree, costs.repeats()))
}

/// The one Mehlhorn implementation, generic over where costs come from.
fn mehlhorn_run<C: Costs>(
    ws: &mut SteinerWorkspace,
    g: &Graph,
    terminals: &[NodeId],
    costs: &mut C,
) -> Result<SteinerTree> {
    ws.kept.live = false;
    ws.terms.clear();
    ws.terms.extend_from_slice(terminals);
    ws.terms.sort_unstable();
    ws.terms.dedup();
    if ws.terms.is_empty() {
        return Err(CoreError::EmptyQuery);
    }
    for &t in &ws.terms {
        g.check_node(t).map_err(CoreError::from)?;
    }
    if ws.terms.len() == 1 {
        return Ok(SteinerTree::singleton(ws.terms[0]));
    }

    // Steps 1–2: Voronoi partition and the crossing table, in one pass,
    // on the ring when the run's keys are small whole numbers of a unit.
    let n = g.num_nodes();
    let gen = ws.begin(n);
    let SteinerWorkspace {
        labels,
        links,
        radix,
        ring,
        ring_calls,
        settled,
        crossing,
        kept,
        terms,
        ..
    } = ws;
    let (labels, links) = (&mut labels[..n], &mut links[..n]);
    *settled += if let Some((span, scale)) = costs.prepare(labels) {
        *ring_calls += 1;
        ring.reset(span, scale);
        voronoi(g, terms, labels, links, kept, crossing, ring, costs, gen)
    } else {
        voronoi(g, terms, labels, links, kept, crossing, radix, costs, gen)
    };
    ws.conclude(costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{karate::karate_club, structured};
    use mwc_graph::INF_DIST;
    use rand::SeedableRng;

    const UNIT: fn(NodeId, NodeId) -> f64 = |_, _| 1.0;

    #[test]
    fn two_terminals_give_shortest_path() {
        let g = structured::grid(5, 5, false);
        // Corners of the grid: distance 8.
        let t = mehlhorn_steiner(&g, &[0, 24], UNIT).unwrap();
        assert!(t.validate());
        assert_eq!(t.total_weight, 8.0);
        assert_eq!(t.num_nodes(), 9);
        assert!(t.contains(0) && t.contains(24));
    }

    #[test]
    fn single_and_duplicate_terminals() {
        let g = structured::path(5);
        let t = mehlhorn_steiner(&g, &[3], UNIT).unwrap();
        assert_eq!(t, SteinerTree::singleton(3));
        let t = mehlhorn_steiner(&g, &[2, 2, 2], UNIT).unwrap();
        assert_eq!(t, SteinerTree::singleton(2));
    }

    #[test]
    fn empty_terminals_error() {
        let g = structured::path(3);
        assert!(matches!(
            mehlhorn_steiner(&g, &[], UNIT),
            Err(CoreError::EmptyQuery)
        ));
    }

    #[test]
    fn disconnected_terminals_error() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            mehlhorn_steiner(&g, &[0, 3], UNIT),
            Err(CoreError::QueryNotConnectable)
        ));
    }

    #[test]
    fn star_terminals_use_the_hub() {
        let g = structured::star(8);
        let t = mehlhorn_steiner(&g, &[1, 3, 5, 7], UNIT).unwrap();
        assert!(t.contains(0), "hub must be selected as Steiner point");
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.total_weight, 4.0);
    }

    #[test]
    fn no_superfluous_nonterminal_leaves() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for seed in 0..10u64 {
            use rand::Rng;
            let _ = seed;
            let g = mwc_graph::generators::barabasi_albert(80, 2, &mut rng);
            let terms: Vec<NodeId> = (0..5).map(|_| rng.gen_range(0..80)).collect();
            let t = mehlhorn_steiner(&g, &terms, UNIT).unwrap();
            assert!(t.validate());
            let adj = t.adjacency();
            for (&v, nbrs) in &adj {
                if nbrs.len() <= 1 && t.num_nodes() > 1 {
                    assert!(terms.contains(&v), "non-terminal leaf {v} survived pruning");
                }
            }
            for &q in &terms {
                assert!(t.contains(q));
            }
        }
    }

    #[test]
    fn within_factor_two_of_optimum_on_karate() {
        // For |Q| = 2 the optimum is the shortest path; check the 2x bound
        // (Mehlhorn in fact returns an exact shortest path here).
        let g = karate_club();
        let d = mwc_graph::traversal::bfs::bfs_distances(&g, 0);
        for t in [15u32, 23, 33] {
            let tree = mehlhorn_steiner(&g, &[0, t], UNIT).unwrap();
            assert_eq!(tree.total_weight, d[t as usize] as f64, "terminal {t}");
        }
    }

    #[test]
    fn respects_weight_function() {
        // Path 0-1-2 plus heavy shortcut edge (0,2): unit weights take the
        // shortcut, skewed weights avoid it.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let t = mehlhorn_steiner(&g, &[0, 2], UNIT).unwrap();
        assert_eq!(t.num_nodes(), 2);
        let heavy = |u: NodeId, v: NodeId| {
            if (u, v) == (0, 2) || (v, u) == (0, 2) {
                10.0
            } else {
                1.0
            }
        };
        let t = mehlhorn_steiner(&g, &[0, 2], heavy).unwrap();
        assert_eq!(t.num_nodes(), 3, "should detour through vertex 1");
        assert_eq!(t.total_weight, 2.0);
    }

    #[test]
    fn spans_many_terminals_on_random_graphs() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let g = mwc_graph::generators::gnm(120, 360, &mut rng);
            let (lc, _) = mwc_graph::connectivity::largest_component_graph(&g).unwrap();
            let n = lc.num_nodes();
            let terms: Vec<NodeId> = (0..8).map(|_| rng.gen_range(0..n as NodeId)).collect();
            let t = mehlhorn_steiner(&lc, &terms, UNIT).unwrap();
            assert!(t.validate());
            for &q in &terms {
                assert!(t.contains(q));
            }
        }
    }

    #[test]
    fn radix_queue_pops_in_key_then_id_order() {
        // Keys with shared, crossing and equal bit prefixes, pushed out of
        // order, plus zero-weight arrivals while bucket 0 drains. Key 5.0
        // holds 99 vertices, enough to drain through the id bitmap.
        let mut keys = vec![3.5, 0.25, 7.0, 3.5, 1e9, 0.25, 2.0, 3.5, f64::NAN];
        keys.extend((9..=108).map(|_| 5.0));
        let mut labels = vec![Label::default(); keys.len()];
        let mut links = vec![Links::default(); keys.len()];
        let mut q = RadixQueue::default();
        q.start(&[]);
        for (v, &k) in keys.iter().enumerate().rev() {
            if v != 8 && v != 20 {
                labels[v].dist = k;
                q.insert(&mut labels, &mut links, v as NodeId, k);
            }
        }
        // Decrease 1e9 → 0.5 and 7.0 → 3.5 (ties with vertices 0, 3, 7),
        // and 2.0 → 1.0, which leaves its old bucket's bound below every
        // key still filed there.
        for (v, k) in [(4, 0.5), (2, 3.5), (6, 1.0)] {
            let old = labels[v as usize].dist;
            labels[v as usize].dist = k;
            q.decrease(&mut labels, &mut links, v, old, k);
        }
        let mut order = Vec::new();
        while let Some(v) = q.pop(&mut labels, &mut links) {
            // Vertices 8 and 20 arrive at the current key through
            // zero-weight edges and must still pop in id order.
            let late = match v {
                3 => Some((8, 3.5)),
                9 => {
                    assert!(q.ready.list.is_empty() && q.ready.word < q.ready.end);
                    None
                }
                30 => Some((20, 5.0)),
                _ => None,
            };
            if let Some((w, k)) = late {
                labels[w as usize].dist = k;
                q.insert(&mut labels, &mut links, w, k);
            }
            order.push(v);
        }
        let mut expect = vec![1, 5, 4, 6, 0, 2, 3, 7, 8];
        expect.extend((9..=30).filter(|&v| v != 20));
        expect.push(20);
        expect.extend(31..=108);
        assert_eq!(order, expect);
        assert!(order.iter().all(|&v| labels[v as usize].slot == SETTLED));
        assert!(q.ready.bits.iter().all(|&w| w == 0), "the bitmap drained");
    }

    #[test]
    fn ring_queue_pops_in_key_then_id_order() {
        // Keys in units of 1/4 and edges of at most 3 units: four lists,
        // so keys 1.0 and 1.5 reuse the lists of keys 0 and 0.5. Lists
        // hold their vertices newest first; key 1.5 holds 70 vertices,
        // enough to drain through the id bitmap.
        let mut labels = vec![Label::default(); 80];
        let mut links = vec![Links::default(); 80];
        let mut q = RingQueue::default();
        q.reset(3, 4.0);
        q.start(&[7, 2]);
        let mut order = Vec::new();
        while let Some(v) = q.pop(&mut labels, &mut links) {
            let filed: Vec<(NodeId, f64)> = match v {
                2 => vec![(9, 0.75), (3, 0.5), (4, 0.5)],
                3 => vec![(5, 1.25), (1, 1.0)],
                4 => vec![(6, 1.25)],
                1 => (10..80).rev().map(|w| (w, 1.5)).collect(),
                _ => Vec::new(),
            };
            for (w, k) in filed {
                labels[w as usize].dist = k;
                q.insert(&mut labels, &mut links, w, k);
            }
            if v == 4 {
                // 5 drops into the list of 1's key, after 1.
                labels[5].dist = 1.0;
                q.decrease(&mut labels, &mut links, 5, 1.25, 1.0);
            }
            order.push(v);
        }
        let mut expect = vec![2, 7, 3, 4, 9, 1, 5, 6];
        expect.extend(10..80);
        assert_eq!(order, expect);
        assert!(order.iter().all(|&v| labels[v as usize].slot == SETTLED));
    }

    #[test]
    fn ring_takes_runs_whose_edges_weigh_at_most_1024_units() {
        // C = 4^t + p_max for t ≥ 0, 1 + 4^−t·p_max for t < 0.
        assert_eq!(ring_span(0, 1023), Some(1024));
        assert_eq!(ring_span(0, 1024), None);
        assert_eq!(ring_span(2, 1008), Some(1024));
        assert_eq!(ring_span(-1, 255), Some(1021));
        assert_eq!(ring_span(-1, 256), None);
        assert_eq!(ring_span(-40, 0), None);
        assert_eq!(ring_span(0, INF_DIST), None);
        // Through a run: the counter, and the tree of the closure path.
        let g = structured::grid(5, 5, false);
        let terms = [0, 24, 12, 4];
        for (t, p_max, ring) in [
            (0, 1023, true),
            (0, 1024, false),
            (2, 1008, true),
            (-1, 256, false),
            (1, INF_DIST, false),
        ] {
            let mut potentials: Vec<u32> = (0..25).map(|v| v % 4 + 1).collect();
            potentials[13] = p_max;
            let mut ws = SteinerWorkspace::new();
            let (tree, _) = mehlhorn_dyadic(&mut ws, &g, &terms, t, &potentials).unwrap();
            assert_eq!(ws.ring_calls(), u64::from(ring), "t = {t}, p_max = {p_max}");
            let lambda = 2f64.powi(t);
            let m = |u: NodeId, v: NodeId| potentials[u as usize].max(potentials[v as usize]);
            let expect = mehlhorn_steiner(&g, &terms, |u, v| lambda + m(u, v) as f64 / lambda);
            assert_eq!(tree, expect.unwrap(), "t = {t}, p_max = {p_max}");
        }
    }

    #[test]
    fn crossing_ties_pick_the_smallest_edge() {
        let mut costs = Plain(|u: NodeId, v: NodeId| match (u, v) {
            (1, 2) => 1.0,
            (0, 1) => unreachable!("pruned by its floor"),
            _ => 4.0,
        });
        let mut t = CrossingTable::default();
        for terms in [3, DENSE_CROSSING_TERMINALS + 1] {
            t.reset(terms);
            for (a, b, x, y) in [(2, 0, 12, 9), (0, 2, 7, 20), (0, 2, 30, 7)] {
                t.offer(&mut costs, (a, b), (x, 0.0, 0), (y, 0.0, 0), 0);
            }
            // Floors at or below the held weight are evaluated; one above
            // it never calls the weight.
            t.offer(&mut costs, (0, 2), (1, 2.0, 0), (2, 2.0, 0), 0);
            t.offer(&mut costs, (0, 2), (0, 2.0, 0), (1, 2.5, 0), 0);
            let c = t.get(0, 2);
            assert_eq!((c.w, c.u, c.v), (4.0, 7, 20), "terms = {terms}");
            let mut edges = Vec::new();
            t.edges_into(&mut edges);
            assert_eq!(edges, vec![(4.0, 0, 2)]);
        }
    }

    #[test]
    fn decisions_bound_the_certificate() {
        let no_potentials: &[u32] = &[];
        // At λ = 1 a 2-edge key 2 (M = 0) beat a 1-edge key 41 (M = 40):
        // it keeps winning while λ'² < 40, so up to λ' = 4.
        let mut d = Dyadic::new(no_potentials, 0);
        d.decided((2.0, 2), (41.0, 1));
        d.decided((41.0, 1), (50.0, 3)); // fewer hops: no bound
        let covered: Vec<f64> = [0.5, 1.0, 2.0, 3.0, 4.0, 8.0]
            .into_iter()
            .filter(|&l| d.repeats().covers(l))
            .collect();
        assert_eq!(covered, vec![2.0, 4.0]);
        // A tie won by the longer path admits no larger λ.
        d.decided((3.0, 2), (3.0, 1));
        assert_eq!(d.repeats().max_sq, 0);
        // λ = 1/2: keys are k/2 + 2M; 3-edge 1.5 (M = 0) beat 1-edge 4.5
        // (M = 2), so λ'² < 1 and nothing larger repeats.
        let mut d = Dyadic::new(no_potentials, -1);
        d.decided((1.5, 3), (4.5, 1));
        assert!(!d.repeats().covers(1.0));
        // Without bounds the exactness cap rules: (2·h + 1)·(λ'² + m_max)
        // must stay below 2^53.
        let mut d = Dyadic::new(no_potentials, 0);
        d.hops_max = 3;
        d.m_max = 1 << 30;
        let cap = (((1u64 << 53) - 1) / 7) - (1 << 30);
        assert_eq!(d.repeats().max_sq, cap);
        assert!(d.repeats().covers((1u64 << 25) as f64));
        assert!(!d.repeats().covers((1u64 << 26) as f64));
        d.hops_max = u16::MAX;
        assert_eq!(d.repeats(), Repeats::NONE);
        // Only powers of two ≥ 1 above the run's λ are ever covered.
        let d = Dyadic::new(no_potentials, 1);
        let r = d.repeats();
        assert!(r.covers(4.0) && !r.covers(2.0) && !r.covers(1.0) && !r.covers(6.0));
        for lambda in [f64::INFINITY, f64::NAN, -4.0, 0.0] {
            assert!(!r.covers(lambda), "λ = {lambda}");
        }
        assert_eq!(dyadic_exponent(0.5), Some(-1));
        assert_eq!(dyadic_exponent(1.5), None);
    }

    #[test]
    fn label_bounds_are_dyadic_exponents() {
        // A 3-edge label with M = 0 against a 1-edge offer with M = 40
        // wins while 2·λ'² < 40: λ'² ≤ 19, so up to λ' = 4 (t = 2).
        assert_eq!(threshold((3, 0), (1, 40)), 19);
        assert_eq!(exponent(19), 2);
        assert_eq!(threshold((2, 5), (1, 5)), 0, "a tie at λ' = 0 wins nothing");
        assert_eq!(exponent(0), -1);
        assert_eq!((exponent(1), exponent(3), exponent(4)), (0, 0, 1));
        assert_eq!(exponent(u64::MAX), FREE);
        // A crossing edge reads its pair, hops and `M` from its labels,
        // sums beyond 32 bits included.
        let grid = Grid::new(1);
        let mut labels = vec![Label::default(); 2];
        (labels[0].dist, labels[0].hops, labels[0].source) = (grid.key(2, 1 << 33), 2, 3);
        (labels[1].dist, labels[1].hops, labels[1].source) = (grid.key(1, 7), 1, 1);
        (labels[0].pot, labels[1].pot) = (9, 4);
        let entry = CrossEntry {
            u: 0,
            v: 1,
            next: END,
        };
        assert_eq!(entry.resolve(&labels, &grid), (1, 3, 4, (1 << 33) + 16));
        // A group's least packs `(M, u, v)` into one ordered integer.
        let least = Least::new(1 << 33, 7, 9);
        assert_eq!((least.m(), least.u(), least.v()), (1 << 33, 7, 9));
        assert!(least < Least::new(1 << 33, 8, 0) && least < Least::NONE);
        assert_eq!(Least::NONE.u(), NO_NODE);
    }

    #[test]
    fn full_group_storage_compacts_and_reuses_freed_entries() {
        // Vertices 0 and 2 in region 0, 1 and 3 in region 1, hop count 0
        // and potential v, at λ = 1: edge (u, v) joins the pair (0, 1) in
        // one hop with M = max(u, v).
        let grid = Grid::new(0);
        let mut labels = vec![Label::default(); 4];
        for (v, l) in labels.iter_mut().enumerate() {
            (l.source, l.pot) = (v as u32 % 2, v as u32);
        }
        let file = |groups: &mut Groups, labels: &[Label], (u, v): (NodeId, NodeId)| {
            let (a, b, k, m) = CrossEntry { u, v, next: END }.resolve(labels, &grid);
            let gi = groups.group(&mut { END }, (a, b, k));
            groups.file(gi, (u, v), m);
        };
        let mut groups = Groups::default();
        groups.start(4);
        for e in [(0, 1), (0, 3), (1, 2), (2, 3)] {
            file(&mut groups, &labels, e);
        }
        assert_eq!(groups.list[0].least, Least::new(1, 0, 1));
        assert!(groups.full(), "capacity {}", groups.entries.capacity());
        // Vertex 3 joins region 0: its two edges no longer cross, and a
        // compaction frees them for the next filings.
        labels[3].source = 0;
        groups.compact(&labels, &grid);
        file(&mut groups, &labels, (1, 3));
        assert_eq!((groups.entries.len(), groups.entries.capacity()), (4, 4));
        assert!(!groups.full(), "one freed entry is left");
        // Vertex 0 joins region 1: a rescan finds the new least.
        labels[0].source = 1;
        assert_eq!(groups.rescan(0, &labels, &grid), 1);
        assert_eq!(groups.list[0].least, Least::new(2, 1, 2));
        // A compaction that frees under a quarter grows the storage.
        file(&mut groups, &labels, (0, 2));
        file(&mut groups, &labels, (0, 3));
        assert!(groups.full());
        groups.compact(&labels, &grid);
        assert!(groups.entries.capacity() >= 8);
        assert_eq!((groups.rescans, groups.compactions), (3, 2));
    }

    #[test]
    fn workspace_serves_graphs_of_any_size_and_survives_wrap() {
        let big = structured::grid(6, 6, false);
        let small = structured::path(4);
        let expect_big = mehlhorn_steiner(&big, &[0, 35, 5], UNIT).unwrap();
        let expect_small = mehlhorn_steiner(&small, &[0, 3], UNIT).unwrap();
        let mut ws = SteinerWorkspace::new();
        // Generation 1 stamps all of `big`. After the jump, two calls on
        // `small` use up the last generations, so the next `big` call runs
        // at generation 1 again and must read every old stamp as stale.
        assert_eq!(
            mehlhorn_steiner_with(&mut ws, &big, &[0, 35, 5], UNIT).unwrap(),
            expect_big
        );
        ws.skip_to_generation_wrap();
        for _ in 0..2 {
            let t = mehlhorn_steiner_with(&mut ws, &small, &[0, 3], UNIT).unwrap();
            assert_eq!(t, expect_small);
        }
        assert_eq!(
            mehlhorn_steiner_with(&mut ws, &big, &[0, 35, 5], UNIT).unwrap(),
            expect_big
        );
        assert_eq!(ws.generation, 1, "the generation wrapped");
    }
}
