//! The graph catalog: named graphs, each with an engine built once.
//!
//! A serving process holds many graphs (the paper's deployments are
//! per-dataset: a social graph, a PPI network, …) and answers queries
//! against any of them by name. The catalog owns one [`OwnedEngine`]
//! per graph — built when the graph is loaded, so the per-graph state
//! (BFS workspace pool, landmark oracle, solve cache) is amortized
//! across every request the server will ever answer for it.
//!
//! # Degree-ordered serving layout
//!
//! Each engine is built over the **degree-ordered** relabeling of its
//! graph ([`Graph::degree_ordered`]): hubs get the low ids, packing the
//! traversal-hot CSR rows and distance-array prefix into a few cache
//! pages. The relabeling is invisible on the wire — [`CatalogEntry`]'s
//! solve methods translate query ids in and connector ids back out
//! through the stored [`NodePermutation`], so clients keep speaking the
//! graph's original ids.
//!
//! Access is read-mostly: lookups clone an `Arc` under a briefly held
//! read lock; loads build the graph and engine *outside* the lock and
//! only take the write lock to publish, so serving traffic never stalls
//! behind a multi-second load.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::sync::{Arc, RwLock};

use mwc_baselines::full_engine_shared;
use mwc_core::{
    CacheStats, Connector, GroupOutcome, GroupQuery, OwnedEngine, QueryOptions, SolveReport,
};
use mwc_graph::connectivity::connected_components;
use mwc_graph::generators::barabasi_albert::barabasi_albert;
use mwc_graph::generators::karate::karate_club;
use mwc_graph::io::{read_edge_list, read_weighted_edge_list};
use mwc_graph::permute::NodePermutation;
use mwc_graph::traversal::radix::RadixWorkspace;
use mwc_graph::{Graph, NodeId, INF_DIST};
use rand::SeedableRng;

use crate::error::{Result, ServiceError};
use crate::protocol::CacheSeed;

/// Where a cataloged graph comes from. Parsed from the spec strings the
/// server takes on its command line and in `load` requests:
///
/// | spec                    | meaning                                           |
/// |-------------------------|---------------------------------------------------|
/// | `karate`                | Zachary's karate club (Figure 1)                  |
/// | `standin:jazz`          | a Table 1 stand-in at full size                   |
/// | `standin:dblp@0.01`     | the same, node count scaled by the factor         |
/// | `file:/path/edges.txt`  | SNAP-style edge list (`u v` per line, `#` comments) |
/// | `ba:5000x4`             | Barabási–Albert, 5000 nodes, 4 edges per arrival  |
/// | `wfile:/path/edges.txt` | weighted edge list (`u v w` per line; missing `w` → 1) |
/// | `wba:5000x4x8`          | the BA graph with weights in `1..=8` hashed per edge (`x8` optional, default 8) |
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSource {
    /// Zachary's karate club.
    Karate,
    /// A `mwc_datasets::realworld` stand-in, with a node-count scale.
    StandIn {
        /// Paper dataset name (`jazz`, `dblp`, …).
        name: String,
        /// Node-count scale in `(0, 1]`.
        scale: f64,
    },
    /// An edge-list file on disk.
    File(String),
    /// A weighted (`u v w`) edge-list file on disk.
    WeightedFile(String),
    /// A deterministic Barabási–Albert graph (seeded by the spec itself).
    BarabasiAlbert {
        /// Node count.
        n: usize,
        /// Edges per arriving node.
        k: usize,
    },
    /// The same deterministic BA topology with integer edge weights in
    /// `1..=max_weight`, hashed from each edge's endpoints (so replicas
    /// rebuilding the spec agree bit-for-bit on every weight).
    WeightedBarabasiAlbert {
        /// Node count.
        n: usize,
        /// Edges per arriving node.
        k: usize,
        /// Largest edge weight (weights are uniform-ish in `1..=max`).
        max_weight: u32,
    },
}

/// Default `max_weight` of `wba:` specs without an explicit `x<maxw>`.
pub const DEFAULT_WBA_MAX_WEIGHT: u32 = 8;

/// The deterministic per-edge weight of `wba:` graphs: symmetric (hashed
/// from the unordered endpoint pair) and in `1..=max_weight`.
fn wba_edge_weight(u: NodeId, v: NodeId, max_weight: u32) -> u32 {
    let (a, b) = (u.min(v) as u64, u.max(v) as u64);
    let h = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    (h % max_weight as u64) as u32 + 1
}

impl GraphSource {
    /// Parses a spec string (see the table in the type docs).
    pub fn parse(spec: &str) -> Result<GraphSource> {
        let bad = |m: String| ServiceError::BadSource(m);
        if spec == "karate" {
            return Ok(GraphSource::Karate);
        }
        if let Some(rest) = spec.strip_prefix("standin:") {
            let (name, scale) = match rest.split_once('@') {
                Some((name, s)) => {
                    let scale: f64 = s
                        .parse()
                        .map_err(|_| bad(format!("bad scale {s:?} in {spec:?}")))?;
                    if !(scale > 0.0 && scale <= 1.0) {
                        return Err(bad(format!("scale must be in (0, 1], got {scale}")));
                    }
                    (name, scale)
                }
                None => (rest, 1.0),
            };
            if mwc_datasets::realworld::spec(name).is_none() {
                return Err(bad(format!(
                    "unknown stand-in {name:?} (see mwc_datasets::STAND_INS)"
                )));
            }
            return Ok(GraphSource::StandIn {
                name: name.to_string(),
                scale,
            });
        }
        if let Some(path) = spec.strip_prefix("file:") {
            return Ok(GraphSource::File(path.to_string()));
        }
        if let Some(path) = spec.strip_prefix("wfile:") {
            return Ok(GraphSource::WeightedFile(path.to_string()));
        }
        if let Some(rest) = spec.strip_prefix("ba:") {
            let (n, k) = rest
                .split_once('x')
                .ok_or_else(|| bad(format!("expected ba:<nodes>x<k>, got {spec:?}")))?;
            let n: usize = n
                .parse()
                .map_err(|_| bad(format!("bad node count {n:?}")))?;
            let k: usize = k.parse().map_err(|_| bad(format!("bad degree {k:?}")))?;
            if n < 2 || k == 0 || k >= n {
                return Err(bad(format!(
                    "ba graph needs n >= 2 and 1 <= k < n, got n = {n}, k = {k}"
                )));
            }
            return Ok(GraphSource::BarabasiAlbert { n, k });
        }
        if let Some(rest) = spec.strip_prefix("wba:") {
            let (n, rest) = rest
                .split_once('x')
                .ok_or_else(|| bad(format!("expected wba:<nodes>x<k>[x<maxw>], got {spec:?}")))?;
            let n: usize = n
                .parse()
                .map_err(|_| bad(format!("bad node count {n:?}")))?;
            let (k, max_weight) = match rest.split_once('x') {
                Some((k, m)) => {
                    let m: u32 = m
                        .parse()
                        .map_err(|_| bad(format!("bad max weight {m:?}")))?;
                    (k, m)
                }
                None => (rest, DEFAULT_WBA_MAX_WEIGHT),
            };
            let k: usize = k.parse().map_err(|_| bad(format!("bad degree {k:?}")))?;
            if n < 2 || k == 0 || k >= n || max_weight == 0 {
                return Err(bad(format!(
                    "wba graph needs n >= 2, 1 <= k < n and max weight >= 1, \
                     got n = {n}, k = {k}, max weight = {max_weight}"
                )));
            }
            // Same bound the wfile: loader enforces: u32 distance
            // arithmetic saturates at INF_DIST, so near-u32::MAX weights
            // would read as unreachable.
            if max_weight > mwc_graph::MAX_EDGE_WEIGHT {
                return Err(bad(format!(
                    "wba max weight {max_weight} exceeds the maximum {}",
                    mwc_graph::MAX_EDGE_WEIGHT
                )));
            }
            return Ok(GraphSource::WeightedBarabasiAlbert { n, k, max_weight });
        }
        Err(bad(format!(
            "unrecognized source {spec:?} (expected karate | standin:<name>[@scale] | \
             file:<path> | wfile:<path> | ba:<n>x<k> | wba:<n>x<k>[x<maxw>])"
        )))
    }

    /// Materializes the graph. Deterministic for every non-`file` source.
    /// A weighted graph whose distances could saturate `u32` arithmetic
    /// at [`INF_DIST`] is refused with [`ServiceError::BadSource`]: from
    /// the lowest-id vertex `s` of each component, the weighted kernel
    /// must reach the whole component with `2 · ecc(s) < INF_DIST`.
    pub fn build(&self) -> Result<Graph> {
        let g = self.build_unchecked()?;
        if g.is_weighted() {
            refuse_saturating_distances(&g)
                .map_err(|m| ServiceError::BadSource(format!("{self:?}: {m}")))?;
        }
        Ok(g)
    }

    fn build_unchecked(&self) -> Result<Graph> {
        match self {
            GraphSource::Karate => Ok(karate_club()),
            GraphSource::StandIn { name, scale } => {
                let sg = mwc_datasets::standin_scaled(name, *scale)
                    .ok_or_else(|| ServiceError::BadSource(format!("unknown stand-in {name:?}")))?;
                Ok(sg.graph)
            }
            GraphSource::File(path) => {
                let reader = BufReader::new(File::open(path)?);
                let loaded = read_edge_list(reader)
                    .map_err(|e| ServiceError::BadSource(format!("{path}: {e}")))?;
                Ok(loaded.graph)
            }
            GraphSource::WeightedFile(path) => {
                let reader = BufReader::new(File::open(path)?);
                let loaded = read_weighted_edge_list(reader)
                    .map_err(|e| ServiceError::BadSource(format!("{path}: {e}")))?;
                Ok(loaded.graph)
            }
            GraphSource::BarabasiAlbert { n, k } => {
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(0xBA ^ (*n as u64) ^ ((*k as u64) << 32));
                Ok(barabasi_albert(*n, *k, &mut rng))
            }
            GraphSource::WeightedBarabasiAlbert { n, k, max_weight } => {
                // Same topology (and seed) as the unweighted `ba:` twin;
                // only the weights differ.
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(0xBA ^ (*n as u64) ^ ((*k as u64) << 32));
                let base = barabasi_albert(*n, *k, &mut rng);
                let edges: Vec<(NodeId, NodeId, u32)> = base
                    .edges()
                    .map(|(u, v)| (u, v, wba_edge_weight(u, v, *max_weight)))
                    .collect();
                Graph::from_weighted_edges(base.num_nodes(), &edges)
                    .map_err(|e| ServiceError::BadSource(format!("{self:?}: {e}")))
            }
        }
    }
}

/// Checks that every shortest-path distance of a weighted graph stays
/// below [`INF_DIST`], where the `u32` distance kernels saturate and a
/// connected vertex would read as unreachable. The loaders cap single
/// weights at [`mwc_graph::MAX_EDGE_WEIGHT`], but not path sums.
///
/// From the lowest-id vertex `s` of each connected component (the vertex
/// [`connected_components`] starts that component's search from), one
/// radix-heap Dijkstra run must reach the whole component, and
/// `2 · ecc(s)` must stay below [`INF_DIST`]: every distance in the
/// component is at most `d(u, s) + d(s, v) ≤ 2 · ecc(s)`. The bound is
/// conservative, so a graph whose distances would all fit can still be
/// refused. Returns the reason on refusal.
fn refuse_saturating_distances(g: &Graph) -> std::result::Result<(), String> {
    let components = connected_components(g);
    let label = |v: &NodeId| components.label[*v as usize];
    // A stable sort keeps each component's lowest id first.
    let mut by_component: Vec<NodeId> = g.nodes().collect();
    by_component.sort_by_key(label);
    let mut ws = RadixWorkspace::new();
    for members in by_component.chunk_by(|a, b| label(a) == label(b)) {
        let s = members[0];
        let dist = ws.run(g, s);
        let mut ecc = 0u32;
        for &v in members {
            if dist[v as usize] == INF_DIST {
                return Err(format!(
                    "the distance from vertex {s} to vertex {v} of its component saturates at {INF_DIST}"
                ));
            }
            ecc = ecc.max(dist[v as usize]);
        }
        if 2 * ecc as u64 >= INF_DIST as u64 {
            return Err(format!(
                "distances in the component of vertex {s} may reach 2 · {ecc}, \
                 at or above the saturation point {INF_DIST}"
            ));
        }
    }
    Ok(())
}

/// FNV-1a digest of a graph's weighted edge list in the graph's own id
/// space — the fingerprint cache seeds carry so imports can tell whether
/// two catalogs weighted "the same" graph identically. `0` for
/// unweighted graphs (nonzero for every weighted one).
pub fn weight_digest(g: &Graph) -> u64 {
    if !g.is_weighted() {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for (u, v, w) in g.weighted_edges() {
        mix(u as u64);
        mix(v as u64);
        mix(w as u64);
    }
    h.max(1)
}

/// One loaded graph: its name, provenance, shared graph handle, and the
/// engine serving it. Handed out as an `Arc` so requests keep a
/// consistent view even if the entry is concurrently evicted or
/// replaced.
///
/// The engine runs over the degree-ordered relabeling of `graph`; use
/// [`CatalogEntry::solve`] / [`CatalogEntry::solve_group`], which speak
/// original ids at both ends. Reaching into [`CatalogEntry::engine`]
/// directly means speaking *relabeled* ids.
#[derive(Debug)]
pub struct CatalogEntry {
    /// Catalog name (the key requests use).
    pub name: String,
    /// The spec string this entry was loaded from.
    pub source: String,
    /// Vertex count of the served graph. The original-layout graph
    /// itself is *not* retained — only the degree-ordered copy inside
    /// the engine is resident, so a cataloged graph costs one CSR, not
    /// two. Rebuild from [`CatalogEntry::source`] when the original
    /// layout is needed (tests do).
    nodes: usize,
    /// Edge count of the served graph.
    edges: usize,
    /// Whether the served graph carries integer edge weights (every
    /// distance — and the reported Wiener index — is then weighted).
    weighted: bool,
    /// [`weight_digest`] of the original-layout graph: `0` when
    /// unweighted, a nonzero edge-list fingerprint otherwise. Attached
    /// to exported cache seeds and checked on import.
    weight_digest: u64,
    /// Maps original ids (`old`) to the engine's degree-ordered ids
    /// (`new`) and back.
    perm: NodePermutation,
    /// The engine over the degree-ordered graph, with the full method
    /// table registered.
    engine: OwnedEngine,
}

impl CatalogEntry {
    /// Builds an entry: degree-orders the graph, constructs the full
    /// engine over the relabeled layout, and remembers the permutation
    /// for boundary translation. The original-layout graph is dropped
    /// here (the caller's `Graph` is consumed). Deterministic for a
    /// given graph.
    fn build(
        name: &str,
        source: &str,
        graph: Graph,
        solve_cache_bytes: Option<usize>,
        solve_cache_ttl: Option<std::time::Duration>,
    ) -> CatalogEntry {
        let (ordered, perm) = graph.degree_ordered();
        let (nodes, edges) = (graph.num_nodes(), graph.num_edges());
        // Fingerprint the original layout: replicas that load the same
        // spec agree on the digest regardless of their degree ordering.
        let digest = weight_digest(&graph);
        drop(graph);
        let mut engine = full_engine_shared(Arc::new(ordered));
        if let Some(bytes) = solve_cache_bytes {
            engine.set_solve_cache_bytes(bytes);
        }
        if solve_cache_ttl.is_some() {
            engine.set_solve_cache_ttl(solve_cache_ttl);
        }
        CatalogEntry {
            name: name.to_string(),
            source: source.to_string(),
            nodes,
            edges,
            weighted: digest != 0,
            weight_digest: digest,
            perm,
            engine,
        }
    }

    /// Vertex count of the served graph.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Edge count of the served graph.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Whether the served graph is integer-weighted.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// The graph's weighted-edge-list fingerprint (`0` when unweighted).
    pub fn weight_digest(&self) -> u64 {
        self.weight_digest
    }

    /// The serving engine (degree-ordered id space — translate through
    /// [`CatalogEntry::solve`] unless you know what you are doing).
    pub fn engine(&self) -> &OwnedEngine {
        &self.engine
    }

    /// Registered solver names, sorted.
    pub fn solver_names(&self) -> Vec<&str> {
        self.engine.solver_names()
    }

    /// The engine's solve-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Translates one original-id vertex into the engine's id space.
    /// Out-of-range ids pass through unchanged: the id spaces have the
    /// same range, so the engine rejects them with the same
    /// `NodeOutOfRange` error the original graph would have produced.
    fn to_engine_id(&self, v: NodeId) -> NodeId {
        if (v as usize) < self.perm.len() {
            self.perm.to_new(v)
        } else {
            v
        }
    }

    /// Rewrites a report's connector from engine ids back to original
    /// ids. The objective value, timings, and diagnostics are
    /// layout-invariant and pass through untouched.
    fn translate_report(&self, mut report: SolveReport) -> SolveReport {
        report.connector =
            Connector::from_vertices(self.perm.map_to_old(report.connector.vertices()));
        report
    }

    /// Solves one query against this entry's engine, speaking original
    /// graph ids on both sides of the call.
    pub fn solve(
        &self,
        solver: &str,
        q: &[NodeId],
        options: &QueryOptions,
    ) -> mwc_core::Result<SolveReport> {
        let q_new: Vec<NodeId> = q.iter().map(|&v| self.to_engine_id(v)).collect();
        self.engine
            .solve_with(solver, &q_new, options)
            .map(|r| self.translate_report(r))
    }

    /// Group counterpart of [`CatalogEntry::solve`]: queries (each with
    /// its own solver and options) run through
    /// [`QueryEngine::solve_group`](mwc_core::QueryEngine::solve_group),
    /// which dedups identical work, joins identical executions another
    /// group has in flight, and runs the rest as parallel jobs.
    /// Ids are translated at the boundary
    /// in both directions; per-query errors stay in place. The coalescer
    /// and the wire `batch` are the callers.
    pub fn solve_group(&self, queries: &[GroupQuery]) -> GroupOutcome {
        let translated: Vec<GroupQuery> = queries
            .iter()
            .map(|gq| {
                GroupQuery::new(
                    gq.solver.clone(),
                    gq.q.iter().map(|&v| self.to_engine_id(v)).collect(),
                    gq.options.clone(),
                )
            })
            .collect();
        let mut outcome = self.engine.solve_group(&translated);
        outcome.results = outcome
            .results
            .into_iter()
            .map(|r| r.map(|report| self.translate_report(report)))
            .collect();
        outcome
    }

    /// Exports the engine's warm solve-cache entries as wire-ready
    /// [`CacheSeed`]s, **original ids** throughout (query keys and
    /// connectors are translated back through the permutation), most
    /// recently used first. The handoff side of live migration: the
    /// seeds feed another replica's [`CatalogEntry::import_cache`] —
    /// possibly one that degree-ordered the same graph into a different
    /// permutation, which is why the wire speaks original ids.
    pub fn export_cache(&self) -> Vec<CacheSeed> {
        self.engine
            .export_cache()
            .into_iter()
            .map(|(solver, q, max_size, report)| CacheSeed {
                solver,
                q: self.perm.map_to_old(&q),
                max_size,
                weight_digest: self.weight_digest,
                report: self.translate_report(report),
            })
            .collect()
    }

    /// Imports warm-cache seeds exported by another replica (original
    /// ids), translating into this engine's id space and inserting under
    /// the exact key a fresh solve would probe. Seeds whose vertices do
    /// not fit this graph are skipped — a stale export must not poison
    /// the cache. Returns how many seeds were accepted (normal cache
    /// budgets apply).
    pub fn import_cache(&self, seeds: &[CacheSeed]) -> usize {
        let mut imported = 0;
        for seed in seeds {
            // A seed solved under a different weighting (or none) would
            // silently serve wrong weighted answers — skip it.
            if seed.weight_digest != self.weight_digest {
                continue;
            }
            if seed
                .q
                .iter()
                .chain(seed.report.connector.vertices())
                .any(|&v| (v as usize) >= self.nodes)
            {
                continue;
            }
            let q_new: Vec<NodeId> = seed.q.iter().map(|&v| self.to_engine_id(v)).collect();
            let mut report = seed.report.clone();
            report.connector = Connector::from_vertices(
                report
                    .connector
                    .vertices()
                    .iter()
                    .map(|&v| self.to_engine_id(v))
                    .collect(),
            );
            if self
                .engine
                .seed_cache(&seed.solver, &q_new, seed.max_size, report)
            {
                imported += 1;
            }
        }
        imported
    }
}

/// A named collection of loaded graphs with their engines.
#[derive(Debug, Default)]
pub struct Catalog {
    entries: RwLock<HashMap<String, Arc<CatalogEntry>>>,
    /// Solve-cache **byte** budget applied to every engine this catalog
    /// builds (`None` keeps the engine default). The memory bound that
    /// matters to a long-lived server: entry counts say nothing about
    /// resident bytes when connectors vary in size.
    solve_cache_bytes: Option<usize>,
    /// Solve-cache time-to-live applied to every engine this catalog
    /// builds (`None` keeps the engine default of no expiry). The
    /// freshness bound long-lived servers want.
    solve_cache_ttl: Option<std::time::Duration>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the solve-cache byte budget for every engine built by later
    /// [`Catalog::load`] calls (`0` disables caching). Maps to
    /// [`mwc_core::QueryEngine::set_solve_cache_bytes`]; the server's
    /// `--cache-bytes` flag lands here.
    pub fn with_solve_cache_bytes(mut self, bytes: usize) -> Self {
        self.solve_cache_bytes = Some(bytes);
        self
    }

    /// Sets the solve-cache time-to-live for every engine built by later
    /// [`Catalog::load`] calls. Maps to
    /// [`mwc_core::QueryEngine::set_solve_cache_ttl`]; the server's
    /// `--cache-ttl` flag lands here.
    pub fn with_solve_cache_ttl(mut self, ttl: std::time::Duration) -> Self {
        self.solve_cache_ttl = Some(ttl);
        self
    }

    /// Loads `spec` under `name`, replacing any previous entry of that
    /// name. Graph generation, degree ordering, and engine construction
    /// run outside the lock; only the publish takes the write lock.
    /// Returns the new entry.
    pub fn load(&self, name: &str, spec: &str) -> Result<Arc<CatalogEntry>> {
        if name.is_empty() {
            return Err(ServiceError::BadSource("empty graph name".to_string()));
        }
        let source = GraphSource::parse(spec)?;
        let graph = source.build()?;
        let entry = Arc::new(CatalogEntry::build(
            name,
            spec,
            graph,
            self.solve_cache_bytes,
            self.solve_cache_ttl,
        ));
        self.entries
            .write()
            .expect("catalog lock poisoned")
            .insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Looks up a graph by name, or reports which names are loaded.
    pub fn get(&self, name: &str) -> Result<Arc<CatalogEntry>> {
        let entries = self.entries.read().expect("catalog lock poisoned");
        entries
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownGraph {
                requested: name.to_string(),
                loaded: {
                    let mut names: Vec<String> = entries.keys().cloned().collect();
                    names.sort_unstable();
                    names
                },
            })
    }

    /// Removes an entry; `true` if it existed. In-flight requests holding
    /// the entry's `Arc` finish normally — eviction only stops new
    /// lookups.
    pub fn evict(&self, name: &str) -> bool {
        self.entries
            .write()
            .expect("catalog lock poisoned")
            .remove(name)
            .is_some()
    }

    /// All entries, sorted by name.
    pub fn list(&self) -> Vec<Arc<CatalogEntry>> {
        let mut entries: Vec<Arc<CatalogEntry>> = self
            .entries
            .read()
            .expect("catalog lock poisoned")
            .values()
            .cloned()
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Number of loaded graphs.
    pub fn len(&self) -> usize {
        self.entries.read().expect("catalog lock poisoned").len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_specs() {
        assert_eq!(GraphSource::parse("karate").unwrap(), GraphSource::Karate);
        assert_eq!(
            GraphSource::parse("standin:jazz").unwrap(),
            GraphSource::StandIn {
                name: "jazz".into(),
                scale: 1.0
            }
        );
        assert_eq!(
            GraphSource::parse("standin:dblp@0.01").unwrap(),
            GraphSource::StandIn {
                name: "dblp".into(),
                scale: 0.01
            }
        );
        assert_eq!(
            GraphSource::parse("file:/tmp/x.txt").unwrap(),
            GraphSource::File("/tmp/x.txt".into())
        );
        assert_eq!(
            GraphSource::parse("ba:500x3").unwrap(),
            GraphSource::BarabasiAlbert { n: 500, k: 3 }
        );
        assert_eq!(
            GraphSource::parse("wfile:/tmp/w.txt").unwrap(),
            GraphSource::WeightedFile("/tmp/w.txt".into())
        );
        assert_eq!(
            GraphSource::parse("wba:500x3").unwrap(),
            GraphSource::WeightedBarabasiAlbert {
                n: 500,
                k: 3,
                max_weight: DEFAULT_WBA_MAX_WEIGHT
            }
        );
        assert_eq!(
            GraphSource::parse("wba:500x3x20").unwrap(),
            GraphSource::WeightedBarabasiAlbert {
                n: 500,
                k: 3,
                max_weight: 20
            }
        );
        for bad in [
            "",
            "nope",
            "standin:atlantis",
            "standin:jazz@0",
            "standin:jazz@2",
            "ba:10",
            "ba:ax2",
            "wba:10",
            "wba:100x2x0",
            "wba:100x2xq",
            "wba:100x2x4294967295", // above MAX_EDGE_WEIGHT
            // The generator needs n > k: refused here, not by a panic
            // in the worker that would build the graph.
            "ba:5x10",
            "ba:5x5",
            "wba:5x10",
            "wba:4x4x9",
        ] {
            let err = GraphSource::parse(bad).unwrap_err();
            assert_eq!(err.code(), "bad_source", "{bad:?}");
        }
        assert!(GraphSource::parse("ba:5x4").unwrap().build().is_ok());
        assert!(GraphSource::parse("wba:5x4").unwrap().build().is_ok());
    }

    #[test]
    fn weighted_ba_shares_topology_with_its_unweighted_twin() {
        let w = GraphSource::parse("wba:300x2").unwrap().build().unwrap();
        let u = GraphSource::parse("ba:300x2").unwrap().build().unwrap();
        assert!(w.is_weighted());
        assert!(!u.is_weighted());
        assert_eq!(w.num_edges(), u.num_edges());
        let we: Vec<_> = w.weighted_edges().map(|(a, b, _)| (a, b)).collect();
        let ue: Vec<_> = u.edges().collect();
        assert_eq!(we, ue, "same edges, only weights added");
        for (_, _, wt) in w.weighted_edges() {
            assert!((1..=DEFAULT_WBA_MAX_WEIGHT).contains(&wt));
        }
        // Deterministic rebuild, including weights (the digest pins it).
        let again = GraphSource::parse("wba:300x2").unwrap().build().unwrap();
        assert_eq!(weight_digest(&w), weight_digest(&again));
        assert_ne!(weight_digest(&w), 0);
        assert_eq!(weight_digest(&u), 0);
    }

    #[test]
    fn weighted_entries_serve_weighted_answers_in_original_ids() {
        let catalog = Catalog::new();
        let entry = catalog.load("wtoy", "wba:400x3").unwrap();
        assert!(entry.is_weighted());
        assert_ne!(entry.weight_digest(), 0);
        // Reference graph in original layout (the entry only keeps the
        // degree-ordered copy).
        let original = GraphSource::parse("wba:400x3").unwrap().build().unwrap();
        let q = [5u32, 77, 200, 399];
        let report = entry.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        assert!(report.connector.contains_all(&q));
        // The reported index is the *weighted* Wiener index of the
        // connector, layout-invariant.
        assert_eq!(
            report.wiener_index,
            report.connector.wiener_index(&original).unwrap()
        );
        // And it differs from the unweighted index of the same set (the
        // weights actually flowed through).
        let unweighted_twin = GraphSource::parse("ba:400x3").unwrap().build().unwrap();
        assert_ne!(
            report.wiener_index,
            report.connector.wiener_index(&unweighted_twin).unwrap()
        );
    }

    /// Writes `u v w` lines to a fresh file and returns its path.
    fn weighted_edge_file(tag: &str, edges: &[(NodeId, NodeId, u32)]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("mwc-{tag}-{}.txt", std::process::id()));
        let text: String = edges
            .iter()
            .map(|(u, v, w)| format!("{u} {v} {w}\n"))
            .collect();
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn weighted_graphs_whose_distances_saturate_are_refused() {
        let w = mwc_graph::MAX_EDGE_WEIGHT;
        let catalog = Catalog::new();
        // The path 0–1–…–5 at the largest weight: d(0, 5) = 5w saturates.
        let path6: Vec<_> = (0..5).map(|v| (v, v + 1, w)).collect();
        let file = weighted_edge_file("saturating-path6", &path6);
        let err = catalog
            .load("path6", &format!("wfile:{}", file.display()))
            .unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(matches!(err, ServiceError::BadSource(_)), "{err:?}");
        assert!(catalog.get("path6").is_err());

        // Its three-vertex prefix fits: W({0, 1, 2}) = w + w + 2w.
        let file = weighted_edge_file("saturating-path3", &path6[..2]);
        let entry = catalog
            .load("path3", &format!("wfile:{}", file.display()))
            .unwrap();
        std::fs::remove_file(&file).unwrap();
        for solver in entry.solver_names() {
            match entry.solve(solver, &[0, 2], &QueryOptions::default()) {
                Ok(report) => {
                    assert_eq!(report.wiener_index, 4_294_967_292, "{solver}");
                    assert_eq!(report.connector.vertices(), &[0, 1, 2], "{solver}");
                }
                // `exact` counts hops and refuses every weighted graph.
                Err(e) => assert!(
                    solver == "exact"
                        && matches!(e, mwc_core::CoreError::UnsupportedInstance { .. }),
                    "{solver}: {e:?}"
                ),
            }
        }

        // 2 · ecc(s) is 0.70 of INF_DIST here: served.
        let heavy = GraphSource::parse("wba:2000x3x1073741823").unwrap();
        assert!(heavy.build().is_ok());
    }

    #[test]
    fn import_rejects_seeds_from_a_different_weighting() {
        let catalog = Catalog::new();
        let weighted = catalog.load("w", "wba:200x2").unwrap();
        let plain = catalog.load("u", "ba:200x2").unwrap();
        let q = [3u32, 50, 150];
        weighted
            .solve("ws-q", &q, &QueryOptions::default())
            .unwrap();
        plain.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        let wseeds = weighted.export_cache();
        assert!(wseeds.iter().all(|s| s.weight_digest != 0));
        let useeds = plain.export_cache();
        assert!(useeds.iter().all(|s| s.weight_digest == 0));
        // Cross imports are rejected in both directions…
        assert_eq!(plain.import_cache(&wseeds), 0);
        assert_eq!(weighted.import_cache(&useeds), 0);
        // …while matching replicas accept them.
        let other = Catalog::new();
        let replica = other.load("w2", "wba:200x2").unwrap();
        assert_eq!(replica.import_cache(&wseeds), wseeds.len());
        // A different max weight is a different weighting.
        let reweighted = other.load("w3", "wba:200x2x31").unwrap();
        assert_eq!(reweighted.import_cache(&wseeds), 0);
    }

    #[test]
    fn load_get_evict_roundtrip() {
        let catalog = Catalog::new();
        assert!(catalog.is_empty());
        let entry = catalog.load("karate", "karate").unwrap();
        assert_eq!(entry.num_nodes(), 34);
        assert!(entry.solver_names().contains(&"ws-q"));
        catalog.load("toy", "ba:200x2").unwrap();
        assert_eq!(catalog.len(), 2);
        let names: Vec<String> = catalog.list().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["karate", "toy"]);

        let got = catalog.get("karate").unwrap();
        assert!(Arc::ptr_eq(&got, &entry));
        match catalog.get("missing").unwrap_err() {
            ServiceError::UnknownGraph { requested, loaded } => {
                assert_eq!(requested, "missing");
                assert_eq!(loaded, vec!["karate", "toy"]);
            }
            other => panic!("unexpected error: {other}"),
        }

        assert!(catalog.evict("toy"));
        assert!(!catalog.evict("toy"));
        assert_eq!(catalog.len(), 1);
        // The held Arc keeps serving after eviction.
        assert!(got
            .solve("ws-q", &[0, 33], &QueryOptions::default())
            .is_ok());
    }

    #[test]
    fn standin_scales_and_serves() {
        let catalog = Catalog::new();
        let entry = catalog.load("mini-email", "standin:email@0.1").unwrap();
        assert!(entry.num_nodes() >= 64);
        assert!(entry.num_nodes() < 400);
        let report = entry
            .solve("st", &[0, 1, 2], &QueryOptions::default())
            .unwrap();
        assert!(report.connector.contains_all(&[0, 1, 2]));
    }

    #[test]
    fn entries_serve_original_ids_over_degree_ordered_engines() {
        let catalog = Catalog::new();
        let entry = catalog.load("karate", "karate").unwrap();
        // Independent original-layout reference (the entry itself does
        // not retain the original graph).
        let original = karate_club();
        // The engine's layout is hub-first…
        let engine_graph = entry.engine().graph();
        assert_eq!(engine_graph.degree(0), original.max_degree());
        // …but solve speaks original ids: the connector is a valid
        // original-id connector containing the original-id query.
        let q = [11u32, 24, 25, 29];
        let report = entry.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        assert!(report.connector.contains_all(&q));
        let sub = original.induced(report.connector.vertices()).unwrap();
        assert!(mwc_graph::connectivity::is_connected(sub.graph()));
        // The objective value is layout-invariant: re-evaluate in the
        // original id space against the independently built graph.
        assert_eq!(
            report.wiener_index,
            report.connector.wiener_index(&original).unwrap()
        );
        // A cached replay agrees with the first solve.
        let again = entry.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        assert_eq!(again.connector.vertices(), report.connector.vertices());
        // Out-of-range ids surface the standard error, untranslated.
        assert!(entry
            .solve("ws-q", &[999], &QueryOptions::default())
            .is_err());
        // Cache counters are reachable through the entry.
        entry.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        assert!(entry.cache_stats().hits >= 1);
    }

    #[test]
    fn catalog_applies_solve_cache_byte_budget() {
        let catalog = Catalog::new().with_solve_cache_bytes(700);
        let entry = catalog.load("karate", "karate").unwrap();
        let stats = entry.cache_stats();
        assert_eq!(stats.capacity_bytes, 700);
        // Default-built catalogs keep the engine default.
        let plain = Catalog::new();
        let e = plain.load("karate", "karate").unwrap();
        assert_eq!(
            e.cache_stats().capacity_bytes,
            mwc_core::engine::DEFAULT_SOLVE_CACHE_BYTES
        );
        // The budget actually bounds residency.
        for q in [[0u32, 33], [5, 16], [11, 24], [2, 8], [19, 30]] {
            entry.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        }
        assert!(entry.cache_stats().bytes_used <= 700);
    }

    #[test]
    fn catalog_applies_solve_cache_ttl() {
        let catalog = Catalog::new().with_solve_cache_ttl(std::time::Duration::from_millis(30));
        let entry = catalog.load("karate", "karate").unwrap();
        let q = [11u32, 24, 25, 29];
        entry.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        entry.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        let stats = entry.cache_stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.hits, 0);
        // Default-built catalogs never expire.
        let plain = Catalog::new();
        let e = plain.load("karate", "karate").unwrap();
        e.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        e.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        assert_eq!(e.cache_stats().expired, 0);
        assert_eq!(e.cache_stats().hits, 1);
    }

    #[test]
    fn cache_export_import_streams_warm_entries_in_original_ids() {
        let catalog = Catalog::new();
        let old = catalog.load("karate", "karate").unwrap();
        let q = [11u32, 24, 25, 29];
        let warm = old.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        old.solve("st", &[0, 33], &QueryOptions::default()).unwrap();

        let seeds = old.export_cache();
        assert_eq!(seeds.len(), 2);
        // Seeds speak original ids: the ws-q seed's query is the one the
        // client sent, and its connector contains it.
        let ws = seeds.iter().find(|s| s.solver == "ws-q").unwrap();
        let mut exported_q = ws.q.clone();
        exported_q.sort_unstable();
        assert_eq!(exported_q, q.to_vec(), "same terminal set, original ids");
        assert!(ws.report.connector.contains_all(&q));

        // A fresh replica imports the seeds and serves the first request
        // warm — same answer, zero misses.
        let other = Catalog::new();
        let new = other.load("karate", "karate").unwrap();
        assert_eq!(new.import_cache(&seeds), 2);
        let replay = new.solve("ws-q", &q, &QueryOptions::default()).unwrap();
        assert_eq!(replay.connector.vertices(), warm.connector.vertices());
        assert_eq!(replay.wiener_index, warm.wiener_index);
        let stats = new.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);

        // Seeds that do not fit the graph are skipped, not imported.
        let mut alien = seeds.clone();
        alien[0].q = vec![9999];
        let tiny = Catalog::new();
        let t = tiny.load("karate", "karate").unwrap();
        assert_eq!(t.import_cache(&alien), 1);

        // A cache-disabled replica accepts nothing.
        let cold = Catalog::new().with_solve_cache_bytes(0);
        let c = cold.load("karate", "karate").unwrap();
        assert_eq!(c.import_cache(&seeds), 0);
    }

    #[test]
    fn deterministic_rebuild() {
        let a = GraphSource::parse("ba:300x2").unwrap().build().unwrap();
        let b = GraphSource::parse("ba:300x2").unwrap().build().unwrap();
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
    }
}
