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
//! `2 (1 - 1/|Q|)` times optimal. Edge weights are supplied as a closure so
//! the reweighted graph `G_{r,λ}` of Lemma 4 never has to be materialized.
//!
//! Ties are broken exactly, so the tree is a pure function of the graph,
//! the terminal set and the weight closure:
//! - vertices settle in `(distance, id)` order. The queue is a monotone
//!   radix queue over the f64 bit patterns of the distances (for
//!   non-negative floats, bit order is numeric order), and its lowest
//!   bucket — the vertices at exactly the current distance — drains in id
//!   order, zero-weight arrivals included;
//! - a vertex keeps the first strictly shorter offer, so its Voronoi
//!   region is that of the first settled neighbour that reached it;
//! - per terminal pair the crossing edge minimizing `(w, u, v)`
//!   lexicographically wins, with `u < v` its endpoints;
//! - both MSTs sort their edges by `(w, u, v)`.
//!
//! Buffers live in a [`SteinerWorkspace`]: Algorithm 1 calls this once per
//! `(root, λ)` candidate, so a root sweep holds one workspace for all of
//! its calls and no per-call `O(|V|)` allocation or reset remains.
//!
//! # Which larger λ repeat a ws-q run
//!
//! ws-q's instance `G_{r,λ}` costs edge `(u, v)` at `λ + m/λ` for an
//! integer `m = m(u, v)` ([`lambda_steiner_with`](super::lambda_steiner_with)),
//! so a path of `k` edges costs `kλ + M/λ`, `M` the sum of its `m`. Every
//! key the run compares is such a sum: settled and tentative distances,
//! crossing offers and their floors, and the weights both MSTs sort. A run
//! at `λ = 2^t` keeps the hop count `k` of each label and reads
//! `M = key·λ − k·λ²` back from the key. Besides its tree it returns
//! [`Repeats`]: the larger λ' at which the same call makes every decision
//! the same way, so that `nodes` and `edges` repeat (`total_weight` does
//! not, and ws-q never reads it).
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
//!   offers): each endpoint's label against the other endpoint's offer.
//!   Two equal offer pairs come from senders with equal hop counts, whose
//!   distances then order by `M` alone at every λ. Labels meeting these
//!   conditions at λ' satisfy Bellman's equations there, so they are the
//!   shortest-path labels, and the λ' run computes the same labels,
//!   parents and sources.
//! - Crossing table: every offer that lost to the held edge, floor-skipped
//!   offers included (compared on their exact `(k, M)`), and every
//!   replacement against what it replaced. By transitivity the final edge
//!   is still each pair's `(w, u, v)` minimum at λ'.
//! - Terminal MST: consecutive edges of Kruskal's sorted order.
//!
//! Expansion, the subgraph MST (single edges, which order by `m` alone)
//! and pruning do not depend on λ.
//!
//! *Exactness.* The argument needs every key to be an exact f64, at λ and
//! at λ'. A key sums `k ≤ 2h + 1` edges, `h` the largest label hop count,
//! with `M ≤ k·m_max`, `m_max` the largest `m` the run met. At
//! `λ' = 2^{t'} ≥ 1` it is the integer `kλ'² + M` times `2^{-t'}`, exact
//! while `(2h + 1)·(λ'² + m_max) < 2^53`, which caps the certificate; the
//! run at λ itself must pass the same test (below 1, in units of λ). Hop
//! counts are kept in 16 bits, and a run whose labels saturate them
//! certifies nothing. So do runs at any other λ: [`Repeats::NONE`].
//!
//! A change that lets a key decide anything other than through such a
//! comparison (rounding it, say) must add its decision to the certificate.

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

/// Terminal count up to which the crossing table is a dense `|T|×|T|`
/// array (24 bytes an entry, 384 KiB at the limit); larger terminal sets
/// fall back to a hash map so a huge query cannot allocate `|T|²`.
const DENSE_CROSSING_TERMINALS: usize = 128;

/// One vertex's Voronoi and queue state. Valid only while `stamp` equals
/// the workspace generation; any other stamp reads as "not reached yet".
#[derive(Debug, Clone, Copy, Default)]
struct VertexState {
    dist: f64,
    /// Next hop toward the nearest terminal ([`NO_NODE`] at a terminal).
    parent: NodeId,
    /// Index of the nearest terminal in the sorted terminal list.
    source: u32,
    stamp: u32,
    /// Neighbours in the vertex's radix bucket list while it is queued.
    prev: NodeId,
    next: NodeId,
    /// Edges on the parent path to the nearest terminal, saturating.
    hops: u16,
    /// Radix bucket while queued, [`SETTLED`] once popped.
    slot: u8,
}

// `hops` rides in what was padding: the state stays half a cache line.
const _: () = assert!(std::mem::size_of::<VertexState>() == 32);

/// Radix bucket of `key` relative to the last popped key `last ≤ key`.
fn bucket_of(key: u64, last: u64) -> u8 {
    (64 - (key ^ last).leading_zeros()) as u8
}

/// Monotone radix queue over f64 bit patterns with decrease-key. Buckets
/// `1..=64` are intrusive doubly linked lists threaded through
/// [`VertexState::prev`]/[`next`](VertexState::next), so the queue holds
/// each vertex once and needs no memory beyond the state array. Bucket 0
/// keeps exact `(key, id)` pop order.
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
    /// Bucket 0 as filled by a refill, sorted by descending id so `pop`
    /// takes the smallest from the back.
    ready: Vec<NodeId>,
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
            ready: Vec::new(),
            late: BinaryHeap::new(),
        }
    }
}

impl RadixQueue {
    /// Empties the queue and rewinds it to key `0.0`.
    fn reset(&mut self) {
        self.last = 0f64.to_bits();
        self.heads = [NO_NODE; BUCKETS];
        self.mins = [u64::MAX; BUCKETS];
        self.ready.clear();
        self.late.clear();
    }

    /// Queues `v`, whose current distance has bit pattern `key`.
    fn insert(&mut self, states: &mut [VertexState], v: NodeId, key: u64) {
        let b = bucket_of(key, self.last);
        if b == 0 {
            states[v as usize].slot = 0;
            self.late.push(Reverse(v));
            return;
        }
        let head = self.heads[b as usize];
        self.mins[b as usize] = self.mins[b as usize].min(key);
        let s = &mut states[v as usize];
        s.slot = b;
        s.prev = NO_NODE;
        s.next = head;
        if head != NO_NODE {
            states[head as usize].prev = v;
        }
        self.heads[b as usize] = v;
    }

    /// Re-files the queued `v` after its distance dropped to bit pattern
    /// `key`. A queued vertex is never in bucket 0 here: bucket 0 holds
    /// the minimum key, and a relaxation never goes below it.
    fn decrease(&mut self, states: &mut [VertexState], v: NodeId, key: u64) {
        let VertexState {
            prev, next, slot, ..
        } = states[v as usize];
        debug_assert!(slot != 0 && slot != SETTLED);
        if bucket_of(key, self.last) == slot {
            self.mins[slot as usize] = self.mins[slot as usize].min(key);
            return;
        }
        if prev == NO_NODE {
            self.heads[slot as usize] = next;
        } else {
            states[prev as usize].next = next;
        }
        if next != NO_NODE {
            states[next as usize].prev = prev;
        }
        self.insert(states, v, key);
    }

    /// Pops the queued vertex with the smallest `(dist, id)` and marks it
    /// settled.
    fn pop(&mut self, states: &mut [VertexState]) -> Option<NodeId> {
        while self.ready.is_empty() && self.late.is_empty() {
            if !self.refill(states) {
                return None;
            }
        }
        let v = match (self.ready.last(), self.late.peek()) {
            (Some(&r), Some(&Reverse(l))) if l < r => self.late.pop().map(|Reverse(l)| l),
            (Some(_), _) => self.ready.pop(),
            (None, _) => self.late.pop().map(|Reverse(l)| l),
        }
        .expect("bucket 0 is non-empty");
        states[v as usize].slot = SETTLED;
        Some(v)
    }

    /// Advances `last` to the lowest non-empty bucket's lower bound and
    /// moves the vertices holding that key into bucket 0; the rest of the
    /// bucket spreads over the lower buckets. The bound shares every bit
    /// above the bucket's with the old `last`, so higher buckets stay
    /// valid. Returns `false` when the queue is empty.
    fn refill(&mut self, states: &mut [VertexState]) -> bool {
        let Some(i) = (1..BUCKETS).find(|&i| self.heads[i] != NO_NODE) else {
            return false;
        };
        let head = std::mem::replace(&mut self.heads[i], NO_NODE);
        let min = self.mins[i];
        self.mins[..=i].fill(u64::MAX);
        self.last = min;
        let mut v = head;
        while v != NO_NODE {
            let next = states[v as usize].next;
            let key = states[v as usize].dist.to_bits();
            if key == min {
                states[v as usize].slot = 0;
                self.ready.push(v);
            } else {
                self.insert(states, v, key);
            }
            v = next;
        }
        self.ready.sort_unstable_by(|a, b| b.cmp(a));
        true
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
}

impl Crossing {
    const NONE: Crossing = Crossing {
        w: f64::INFINITY,
        u: NO_NODE,
        v: NO_NODE,
        hops: 0,
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

    /// Offers the crossing edge between the settled vertices `x` and `y`
    /// of Voronoi regions `a` and `b`, each given as `(id, distance,
    /// hops)`. Its weight is at least `floor = d(x) + d(y)` (f64 addition
    /// of a non-negative term never rounds below the other operand), so
    /// when the held edge already weighs less than `floor` the offer cannot
    /// win and its weight is never evaluated, unless `costs` needs it to
    /// record the decision.
    fn offer<C: Costs>(
        &mut self,
        costs: &mut C,
        (a, b): (u32, u32),
        x: (NodeId, f64, u16),
        y: (NodeId, f64, u16),
    ) {
        let (a, b) = (a.min(b), a.max(b));
        let ((u, du, ku), (v, dv, kv)) = if x.0 < y.0 { (x, y) } else { (y, x) };
        let held = if self.terms <= DENSE_CROSSING_TERMINALS {
            &mut self.dense[a as usize * self.terms + b as usize]
        } else {
            self.sparse.entry((a, b)).or_insert(Crossing::NONE)
        };
        let hops = ku as u32 + kv as u32 + 1;
        let weigh = |costs: &mut C| du + costs.cost(u, v) + dv;
        if held.u != NO_NODE && held.w < du + dv {
            if C::CERTIFIES && held.hops > hops {
                let w = weigh(costs);
                costs.decided((held.w, held.hops), (w, hops));
            }
            return;
        }
        let c = Crossing {
            w: weigh(costs),
            u,
            v,
            hops,
        };
        if c.beats(held) {
            if held.u != NO_NODE {
                costs.decided((c.w, hops), (held.w, held.hops));
            }
            *held = c;
        } else {
            costs.decided((held.w, held.hops), (c.w, hops));
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
            out.extend(self.sparse.iter().map(|(&(a, b), c)| (c.w, a, b)));
        }
    }
}

/// Where a Mehlhorn run gets its edge costs, and what it records about
/// its own decisions: [`Plain`] wraps a weight closure and records
/// nothing; [`Dyadic`] is ws-q's `λ + m/λ` at `λ = 2^t` and certifies.
trait Costs {
    /// Whether the run reports its decisions.
    const CERTIFIES: bool;

    fn cost(&mut self, u: NodeId, v: NodeId) -> f64;

    /// A vertex whose label has `hops` edges settled.
    fn settled(&mut self, _hops: u16) {}

    /// A decision: the key `win.0`, a path sum of `win.1` edges, beat
    /// `lose.0` of `lose.1` edges, `win.0 ≤ lose.0` (a tie won on ids).
    fn decided(&mut self, _win: (f64, u32), _lose: (f64, u32)) {}
}

/// Costs from a closure; certifies nothing and costs nothing extra.
struct Plain<W>(W);

impl<W: Fn(NodeId, NodeId) -> f64> Costs for Plain<W> {
    const CERTIFIES: bool = false;

    #[inline]
    fn cost(&mut self, u: NodeId, v: NodeId) -> f64 {
        (self.0)(u, v)
    }
}

/// `λ + m(u, v)/λ` at `λ = 2^t`, collecting the run's certificate.
struct Dyadic<M> {
    m: M,
    t: i32,
    lambda: f64,
    /// `1/λ`, exact, so `m · inv_lambda` is bit for bit `m / λ`.
    inv_lambda: f64,
    lambda_sq: f64,
    /// Largest λ'² every decision so far allows.
    lim: u64,
    /// Largest label hop count and edge `m` met, for the exactness cap.
    hops_max: u16,
    m_max: u32,
}

impl<M> Dyadic<M> {
    fn new(m: M, t: i32) -> Self {
        let lambda = 2f64.powi(t);
        Dyadic {
            m,
            t,
            lambda,
            inv_lambda: 2f64.powi(-t),
            lambda_sq: lambda * lambda,
            lim: u64::MAX,
            hops_max: 0,
            m_max: 0,
        }
    }

    /// `M` of a key summing `hops` edges. Exact keys give it exactly; an
    /// inexact run is refused by `repeats` whatever this returns.
    fn m_of(&self, (key, hops): (f64, u32)) -> i64 {
        (key * self.lambda - hops as f64 * self.lambda_sq) as i64
    }

    /// Bounds λ'² for a winner with more hops: it keeps winning strictly
    /// while `(k_win − k_lose)·λ'² < M_lose − M_win`.
    #[cold]
    #[inline(never)]
    fn bound(&mut self, win: (f64, u32), lose: (f64, u32)) {
        let dm = self.m_of(lose).saturating_sub(self.m_of(win));
        let dk = i64::from(win.1 - lose.1);
        self.lim = if dm > 0 {
            self.lim.min(((dm - 1) / dk) as u64)
        } else {
            0
        };
    }

    /// The certificate: every bound recorded, capped where keys stop being
    /// exact.
    fn repeats(&self) -> Repeats {
        const EXACT: u128 = 1 << 53;
        if self.hops_max == u16::MAX || self.t.abs() > 26 {
            return Repeats::NONE;
        }
        let k = 2 * self.hops_max as u128 + 1;
        let m = self.m_max as u128;
        let here = if self.t >= 0 {
            (1u128 << (2 * self.t)) + m
        } else {
            1 + (m << (-2 * self.t))
        };
        if k * here >= EXACT {
            return Repeats::NONE;
        }
        let cap = ((EXACT - 1) / k).saturating_sub(m) as u64;
        Repeats {
            t: self.t,
            max_sq: self.lim.min(cap),
        }
    }
}

impl<M: Fn(NodeId, NodeId) -> u32> Costs for Dyadic<M> {
    const CERTIFIES: bool = true;

    #[inline]
    fn cost(&mut self, u: NodeId, v: NodeId) -> f64 {
        let m = (self.m)(u, v);
        self.m_max = self.m_max.max(m);
        self.lambda + m as f64 * self.inv_lambda
    }

    #[inline]
    fn settled(&mut self, hops: u16) {
        self.hops_max = self.hops_max.max(hops);
    }

    #[inline]
    fn decided(&mut self, win: (f64, u32), lose: (f64, u32)) {
        if win.1 > lose.1 {
            self.bound(win, lose);
        }
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
/// size after that. Hold one per thread for a run of calls (a root sweep)
/// and drop it afterwards — it keeps about 36 bytes per vertex of the
/// largest graph it served.
#[derive(Debug, Default)]
pub struct SteinerWorkspace {
    states: Vec<VertexState>,
    /// `covered[v] == generation` marks `v` as part of the expanded
    /// subgraph (step 4) of the current call.
    covered: Vec<u32>,
    generation: u32,
    queue: RadixQueue,
    crossing: CrossingTable,
    terms: Vec<NodeId>,
    term_edges: Vec<WeightedEdge>,
    sub_nodes: Vec<NodeId>,
    sub_edges: Vec<(NodeId, NodeId)>,
}

impl SteinerWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Jumps the stamp generation to just before it wraps, so tests can
    /// exercise the wrap-around reset without four billion calls. Only
    /// ever moves the generation forward, which keeps every stale stamp
    /// stale.
    #[doc(hidden)]
    pub fn skip_to_generation_wrap(&mut self) {
        self.generation = self.generation.max(u32::MAX - 2);
    }

    /// Opens a call on a graph of `n` vertices: grows the per-vertex
    /// arrays and bumps the generation, clearing every stamp on wrap.
    fn begin(&mut self, n: usize) -> u32 {
        if self.states.len() < n {
            self.states.resize(n, VertexState::default());
            self.covered.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.states.iter_mut().for_each(|s| s.stamp = 0);
            self.covered.fill(0);
            self.generation = 1;
        }
        self.generation
    }

    /// Steps 1–2: grows the Voronoi regions of `self.terms` and fills the
    /// crossing table as each crossing edge's second endpoint settles.
    fn voronoi<C: Costs>(&mut self, g: &Graph, costs: &mut C, gen: u32) {
        let SteinerWorkspace {
            states,
            queue,
            crossing,
            terms,
            ..
        } = self;
        queue.reset();
        crossing.reset(terms.len());
        // Terminals enter bucket 0 at distance 0; `ready` pops from the
        // back, so push them in descending id order.
        for (i, &t) in terms.iter().enumerate().rev() {
            states[t as usize] = VertexState {
                dist: 0.0,
                parent: NO_NODE,
                source: i as u32,
                stamp: gen,
                prev: NO_NODE,
                next: NO_NODE,
                hops: 0,
                slot: 0,
            };
            queue.ready.push(t);
        }
        while let Some(u) = queue.pop(states) {
            let VertexState {
                dist: du,
                source: su,
                hops: ku,
                ..
            } = states[u as usize];
            costs.settled(ku);
            let kv_new = ku.saturating_add(1);
            for &v in g.neighbors(u) {
                let sv = states[v as usize];
                if sv.stamp == gen && sv.slot == SETTLED {
                    // Both endpoints settled: `(u, v)`'s distances are
                    // final, so a crossing edge is complete now, and each
                    // label has beaten the other endpoint's offer (a
                    // parent's offer is the label, one hop short).
                    if C::CERTIFIES && ku.abs_diff(sv.hops) > 1 {
                        let (ku, kv) = (ku as u32, sv.hops as u32);
                        if ku > kv {
                            let offer = sv.dist + costs.cost(v, u);
                            costs.decided((du, ku), (offer, kv + 1));
                        } else {
                            let offer = du + costs.cost(u, v);
                            costs.decided((sv.dist, kv), (offer, ku + 1));
                        }
                    }
                    if sv.source != su {
                        crossing.offer(costs, (su, sv.source), (u, du, ku), (v, sv.dist, sv.hops));
                    }
                    continue;
                }
                let w = costs.cost(u, v);
                debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
                let cand = du + w;
                if sv.stamp == gen {
                    if cand < sv.dist {
                        let s = &mut states[v as usize];
                        s.dist = cand;
                        s.parent = u;
                        s.source = su;
                        s.hops = kv_new;
                        queue.decrease(states, v, cand.to_bits());
                    }
                } else if cand < f64::INFINITY {
                    states[v as usize] = VertexState {
                        dist: cand,
                        parent: u,
                        source: su,
                        stamp: gen,
                        prev: NO_NODE,
                        next: NO_NODE,
                        hops: kv_new,
                        slot: 0,
                    };
                    queue.insert(states, v, cand.to_bits());
                }
            }
        }
    }

    /// Step 4: the union of the graph paths `s(u) ⇝ u — v ⇝ s(v)` behind
    /// the terminal-MST edges, into `sub_nodes`/`sub_edges`. Each walk up
    /// the Voronoi parents stops at the first vertex already covered: the
    /// rest of its path to a terminal is in the subgraph already.
    fn expand(&mut self, term_mst: &[WeightedEdge], gen: u32) {
        let SteinerWorkspace {
            states,
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
            covered[t as usize] = gen;
            sub_nodes.push(t);
        }
        for &(_, a, b) in term_mst {
            let Crossing { u, v, .. } = crossing.get(a, b);
            sub_edges.push((u, v));
            for mut cur in [u, v] {
                while covered[cur as usize] != gen {
                    covered[cur as usize] = gen;
                    sub_nodes.push(cur);
                    let p = states[cur as usize].parent;
                    debug_assert!(p != NO_NODE, "only terminals lack a parent");
                    sub_edges.push((cur.min(p), cur.max(p)));
                    cur = p;
                }
            }
        }
        sub_nodes.sort_unstable();
    }
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

/// [`mehlhorn_steiner_with`] under ws-q's cost `λ + m(u, v)/λ` at
/// `λ = 2^t`, certifying as it runs: the tree, and the larger λ at which
/// the same call repeats it (see the module doc). The tree equals
/// `mehlhorn_steiner_with`'s under the closure `λ + m(u, v) as f64 / λ`.
pub(crate) fn mehlhorn_dyadic<M>(
    ws: &mut SteinerWorkspace,
    g: &Graph,
    terminals: &[NodeId],
    t: i32,
    m: M,
) -> Result<(SteinerTree, Repeats)>
where
    M: Fn(NodeId, NodeId) -> u32,
{
    let mut costs = Dyadic::new(m, t);
    let tree = mehlhorn_run(ws, g, terminals, &mut costs)?;
    Ok((tree, costs.repeats()))
}

/// The one Mehlhorn implementation, generic over where costs come from.
fn mehlhorn_run<C: Costs>(
    ws: &mut SteinerWorkspace,
    g: &Graph,
    terminals: &[NodeId],
    costs: &mut C,
) -> Result<SteinerTree> {
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

    // Steps 1–2: Voronoi partition and the crossing table, in one pass.
    let gen = ws.begin(g.num_nodes());
    ws.voronoi(g, costs, gen);

    // Step 3: MST over the terminal distance graph.
    ws.term_edges.clear();
    ws.crossing.edges_into(&mut ws.term_edges);
    let (term_mst, _) = kruskal(ws.terms.len(), &mut ws.term_edges);
    if term_mst.len() + 1 != ws.terms.len() {
        return Err(CoreError::QueryNotConnectable);
    }
    if C::CERTIFIES {
        // Kruskal's picks follow from its sorted order.
        for pair in ws.term_edges.windows(2) {
            let [(w0, a0, b0), (w1, a1, b1)] = [pair[0], pair[1]];
            let (k0, k1) = (ws.crossing.get(a0, b0).hops, ws.crossing.get(a1, b1).hops);
            costs.decided((w0, k0), (w1, k1));
        }
    }

    // Step 4: expand each terminal-MST edge into its graph path.
    ws.expand(&term_mst, gen);

    // Steps 5–6: MST of the expanded subgraph, then leaf pruning (shared
    // with Kou–Markowsky–Berman, which ends identically).
    Ok(mst_then_prune(
        &ws.terms,
        &ws.sub_nodes,
        &ws.sub_edges,
        |u, v| costs.cost(u, v),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{karate::karate_club, structured};
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
        // order, plus a zero-weight arrival while bucket 0 drains.
        let keys = [3.5, 0.25, 7.0, 3.5, 1e9, 0.25, 2.0, 3.5];
        let mut states = vec![VertexState::default(); keys.len() + 1];
        let mut q = RadixQueue::default();
        q.reset();
        for (v, &k) in keys.iter().enumerate() {
            states[v].dist = k;
            q.insert(&mut states, v as NodeId, f64::to_bits(k));
        }
        // Decrease 1e9 → 0.5 and 7.0 → 3.5 (ties with vertices 0, 3, 7),
        // and 2.0 → 1.0, which leaves its old bucket's bound below every
        // key still filed there.
        for (v, k) in [(4, 0.5), (2, 3.5), (6, 1.0)] {
            states[v as usize].dist = k;
            q.decrease(&mut states, v, f64::to_bits(k));
        }
        let mut order = Vec::new();
        while let Some(v) = q.pop(&mut states) {
            if v == 3 {
                // Vertex 8 arrives at the current key through a zero-weight
                // edge and must still pop in id order.
                states[8].dist = 3.5;
                q.insert(&mut states, 8, 3.5f64.to_bits());
            }
            order.push(v);
        }
        assert_eq!(order, vec![1, 5, 4, 6, 0, 2, 3, 7, 8]);
        assert!(order.iter().all(|&v| states[v as usize].slot == SETTLED));
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
                t.offer(&mut costs, (a, b), (x, 0.0, 0), (y, 0.0, 0));
            }
            // Floors at or below the held weight are evaluated; one above
            // it never calls the weight.
            t.offer(&mut costs, (0, 2), (1, 2.0, 0), (2, 2.0, 0));
            t.offer(&mut costs, (0, 2), (0, 2.0, 0), (1, 2.5, 0));
            let c = t.get(0, 2);
            assert_eq!((c.w, c.u, c.v), (4.0, 7, 20), "terms = {terms}");
            let mut edges = Vec::new();
            t.edges_into(&mut edges);
            assert_eq!(edges, vec![(4.0, 0, 2)]);
        }
    }

    #[test]
    fn decisions_bound_the_certificate() {
        let m = |_: NodeId, _: NodeId| 0;
        // At λ = 1 a 2-edge key 2 (M = 0) beat a 1-edge key 41 (M = 40):
        // it keeps winning while λ'² < 40, so up to λ' = 4.
        let mut d = Dyadic::new(m, 0);
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
        let mut d = Dyadic::new(m, -1);
        d.decided((1.5, 3), (4.5, 1));
        assert!(!d.repeats().covers(1.0));
        // Without bounds the exactness cap rules: (2·h + 1)·(λ'² + m_max)
        // must stay below 2^53.
        let mut d = Dyadic::new(m, 0);
        d.hops_max = 3;
        d.m_max = 1 << 30;
        let cap = (((1u64 << 53) - 1) / 7) - (1 << 30);
        assert_eq!(d.repeats().max_sq, cap);
        assert!(d.repeats().covers((1u64 << 25) as f64));
        assert!(!d.repeats().covers((1u64 << 26) as f64));
        d.hops_max = u16::MAX;
        assert_eq!(d.repeats(), Repeats::NONE);
        // Only powers of two ≥ 1 above the run's λ are ever covered.
        let d = Dyadic::new(m, 1);
        let r = d.repeats();
        assert!(r.covers(4.0) && !r.covers(2.0) && !r.covers(1.0) && !r.covers(6.0));
        for lambda in [f64::INFINITY, f64::NAN, -4.0, 0.0] {
            assert!(!r.covers(lambda), "λ = {lambda}");
        }
        assert_eq!(dyadic_exponent(0.5), Some(-1));
        assert_eq!(dyadic_exponent(1.5), None);
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
