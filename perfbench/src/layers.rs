//! The traced run: per-layer metrics from the benchmark's own spans,
//! recorded around calls into each layer's public functions, plus the
//! counters the tier already serves (`stats`, cache statistics). Nothing
//! here adds tracing inside the program.
//!
//! The ws-q stage split comes from a sequential replay of Algorithm 1
//! built from the solver's public stages — root distances, Mehlhorn
//! Steiner, AdjustDistances, `A(H, r)`, exact Wiener — with the same
//! roots, λ grid, weight closure, canonical parents, `A(H, r)` filter
//! and tie order as `mwc_core::wsq`. Every replayed query's connector and
//! W must equal the engine's answer; otherwise the run is not `correct`,
//! because the split would not be a measurement of the program.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mwc_core::adjust::adjust_distances_with;
use mwc_core::objective::objective_a;
use mwc_core::wsq::{batched_root_distances_dispatch, normalize_query, MsDistWorkspace};
use mwc_core::{mehlhorn_steiner, Connector, GroupQuery, QueryOptions, SolveReport, WsqConfig};
use mwc_graph::traversal::bfs::{canonical_parent, WorkspacePool, MS_BFS_LANES};
use mwc_graph::{wiener, Graph, NodeId, NodePermutation, INF_DIST};
use mwc_service::json::Json;
use mwc_service::protocol::{parse_request, report_to_json};
use mwc_service::{Catalog, Client, GraphSource};

use crate::stats::{median, ms, us, Rng};
use crate::verify::Verifier;
use crate::workloads::{start_router, ColdStream, Env, Kind, Query, Spec, Tier};
use crate::Metrics;

/// Every graph any workload serves: the catalog layer loads each in every
/// traced run, so `catalog.load_ms.*` is always complete.
const CATALOG: [(&str, &str); 4] = [
    ("karate", "karate"),
    ("ba20k", "ba:20000x4"),
    ("ba2k", "ba:2000x3"),
    ("wba2k", "wba:2000x3"),
];
/// Loads per spec; `catalog.load_ms.*` is their median.
const LOAD_REPS: usize = 3;
/// The registered solvers `engine.solve_ms.*` covers.
const SOLVERS: [&str; 9] = [
    "cps",
    "ctp",
    "exact",
    "greedy-wiener",
    "ppr",
    "st",
    "ws-q",
    "ws-q+ls",
    "ws-q-approx",
];
/// Solvers the panel runs on karate only: `exact` is exponential beyond
/// |Q| = 2 on graphs above 64 vertices, and `greedy-wiener` refuses
/// instances whose connector would pass 256 vertices.
const KARATE_ONLY: [&str; 2] = ["exact", "greedy-wiener"];
/// Queries per solver in the engine panel.
const PANEL_QUERIES: usize = 3;
/// Rounds over the cached probe set when timing wire and in-process
/// paths against each other.
const PROBE_ROUNDS: usize = 60;

/// One span: a call into a layer, made by the benchmark.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// The query (or probe) the span belongs to.
    request: u64,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder; written out once the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (u64, Duration)> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| (s.request, s.end - s.start))
    }

    fn all_ms(&self, name: &str) -> Vec<f64> {
        self.durations(name).map(|(_, d)| ms(d)).collect()
    }

    fn all_us(&self, name: &str) -> Vec<f64> {
        self.durations(name).map(|(_, d)| us(d)).collect()
    }

    /// Durations of the spans named `name` that belong to `request`.
    fn request_ms(&self, name: &str, request: u64) -> Vec<f64> {
        self.durations(name)
            .filter(|&(r, _)| r == request)
            .map(|(_, d)| ms(d))
            .collect()
    }

    /// Total time of the spans named `name` under each of `requests`.
    fn per_request_ms(&self, name: &str, requests: &[u64]) -> Vec<f64> {
        requests
            .iter()
            .map(|&r| self.request_ms(name, r).iter().sum())
            .collect()
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.all_ms(name).iter().sum()
    }

    /// Self time of the spans named `name`: their duration minus what
    /// their direct children cover.
    fn self_ms(&self, name: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|s| ms(s.end - s.start))
            .sum();
        self.total_ms(name) - children
    }

    /// Writes every span as one JSON line.
    fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                s.request,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Tier-side counters, read before and after the timed phase.
pub struct Snapshot {
    /// Solve-cache hits and misses summed over every served graph.
    cache: (u64, u64),
    /// Each server's `stats` document.
    stats: Vec<Json>,
}

pub fn snapshot(tier: &Tier) -> Snapshot {
    let mut cache = (0, 0);
    let mut stats = Vec::new();
    for server in &tier.servers {
        for entry in server.catalog().list() {
            let c = entry.cache_stats();
            cache.0 += c.hits;
            cache.1 += c.misses;
        }
        let doc = Client::connect(server.local_addr())
            .and_then(|mut c| c.stats())
            .unwrap_or(Json::Null);
        stats.push(doc);
    }
    Snapshot { cache, stats }
}

/// A number at `path` inside a `stats` document (0 when absent).
fn stat(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The queries whose ws-q solves the replay splits into stages: the
/// first queries the timed phase sent (`cold`) or the pool's ws-q
/// queries on the workload's ws-q graph.
fn stage_queries(spec: &Spec, env: &Env, seed: u64, verifier: &Verifier) -> Vec<Vec<NodeId>> {
    match spec.kind {
        Kind::Cold => {
            let mut stream = ColdStream::new(spec, seed, &env.quality, verifier);
            (0..5).map(|_| stream.next_query().q).collect()
        }
        Kind::Hot | Kind::Pipelined => env
            .pool
            .iter()
            .filter(|p| p.graph == spec.wsq_graph && p.solver == "ws-q")
            .take(8)
            .map(|p| p.q.clone())
            .collect(),
    }
}

/// λ grid of Algorithm 1 (`mwc_core::wsq`): powers of `1 + β` covering
/// `[1/√2, √n]`.
fn lambda_grid(n: usize, beta: f64) -> Vec<f64> {
    let base = 1.0 + beta;
    let lo = std::f64::consts::FRAC_1_SQRT_2;
    let hi = (n.max(2) as f64).sqrt();
    let t_min = (lo.ln() / base.ln()).floor() as i32;
    let t_max = (hi.ln() / base.ln()).ceil() as i32;
    (t_min..=t_max).map(|t| base.powi(t)).collect()
}

/// One `(root, λ)` candidate: `A(H, r)`, exact W when evaluated, and
/// the vertex set.
struct Candidate {
    a: u64,
    w: Option<u64>,
    nodes: Vec<NodeId>,
}

/// Algorithm 1 on `g` (engine ids), sequentially, with a span around
/// every stage call. Returns the connector (sorted, engine ids) and W.
fn replay_wsq(
    tr: &mut Tracer,
    request: u64,
    g: &Graph,
    q: &[NodeId],
) -> Result<(Vec<NodeId>, u64), String> {
    let cfg = WsqConfig::default();
    let root_span = tr.begin("wsq.replay", request);
    let q = normalize_query(g, q).map_err(|e| e.to_string())?;
    let lambdas = lambda_grid(g.num_nodes(), cfg.beta);
    let pool = WorkspacePool::new();
    let dists: Vec<Vec<u32>> = tr.time("wsq.root_distances", request, || {
        q.chunks(MS_BFS_LANES)
            .flat_map(|batch| {
                let mut ws = MsDistWorkspace::lease(&pool, g);
                batched_root_distances_dispatch(g, batch, &mut ws)
            })
            .collect()
    });
    if q.iter().any(|&v| dists[0][v as usize] == INF_DIST) {
        return Err("query spans components".to_string());
    }
    let mut all: Vec<Candidate> = Vec::with_capacity(q.len() * lambdas.len());
    for (&r, dist_r) in q.iter().zip(&dists) {
        for &lambda in &lambdas {
            let weight = |u: NodeId, v: NodeId| {
                lambda + dist_r[u as usize].max(dist_r[v as usize]) as f64 / lambda
            };
            let tree = tr
                .time("steiner.mehlhorn", request, || {
                    mehlhorn_steiner(g, &q, weight)
                })
                .map_err(|e| e.to_string())?;
            let adjusted = tr.time("adjust", request, || {
                adjust_distances_with(g, &tree, r, dist_r, |v| canonical_parent(g, dist_r, v))
            });
            let a = tr
                .time("objective.eval_a", request, || {
                    objective_a(g, &adjusted.nodes, r)
                })
                .map_err(|e| e.to_string())?
                .ok_or("a candidate induces a disconnected subgraph")?;
            all.push(Candidate {
                a,
                w: None,
                nodes: adjusted.nodes,
            });
        }
    }
    // Remark 1 with Lemma 1's filter: only candidates with A ≤ 2·min A
    // (and small enough) get an exact Wiener index.
    let min_a = all.iter().map(|c| c.a).min().unwrap_or(0);
    for c in &mut all {
        if c.a <= 2 * min_a && c.nodes.len() <= cfg.wiener_exact_threshold {
            let w = tr.time("wiener.exact", request, || {
                g.induced(&c.nodes)
                    .ok()
                    .and_then(|sub| wiener::wiener_index(sub.graph()))
            });
            c.w = Some(w.ok_or("a candidate's Wiener index is undefined")?);
        }
    }
    let mut best: Option<Candidate> = None;
    for c in all {
        let better = match &best {
            None => true,
            Some(cur) => match (c.w, cur.w) {
                (Some(a), Some(b)) => a < b,
                (Some(a), None) => a < cur.a,
                (None, Some(b)) => c.a / 2 < b && c.a < cur.a,
                (None, None) => c.a < cur.a,
            },
        };
        if better {
            best = Some(c);
        }
    }
    let best = best.ok_or("no candidate")?;
    let connector = Connector::new_unchecked(g, best.nodes);
    let w = match best.w {
        Some(w) => w,
        None => connector.wiener_index(g).map_err(|e| e.to_string())?,
    };
    tr.end(root_span);
    Ok((connector.vertices().to_vec(), w))
}

/// Runs the per-layer probes after a traced workload's timed phase.
/// Returns the metrics and whether every layer's answers agreed with the
/// engine's (the replay, the group path, and the wire probes).
pub fn probe(
    spec: &Spec,
    env: &Env,
    seed: u64,
    before: &Snapshot,
    verifier: &mut Verifier,
) -> Result<(Metrics, bool), String> {
    let after = snapshot(&env.tier);
    let mut tr = Tracer::new();
    let mut consistent = true;

    // Catalog layer, on a catalog of the benchmark's own outside the tier.
    let catalog = Catalog::new();
    for (i, (name, source)) in CATALOG.iter().enumerate() {
        for _ in 0..LOAD_REPS {
            tr.time("catalog.load", i as u64, || catalog.load(name, source))
                .map_err(|e| format!("load {source}: {e}"))?;
        }
    }
    let get = |name: &str| catalog.get(name).map_err(|e| e.to_string());

    // ws-q stages: every replay must reproduce the engine's answer.
    let entry = get(spec.wsq_graph)?;
    let source = CATALOG
        .iter()
        .find(|(n, _)| *n == spec.wsq_graph)
        .expect("cataloged")
        .1;
    let perm: NodePermutation = GraphSource::parse(source)
        .and_then(|s| s.build())
        .map_err(|e| e.to_string())?
        .degree_ordered()
        .1;
    let queries = stage_queries(spec, env, seed, verifier);
    let requests: Vec<u64> = (0..queries.len() as u64).collect();
    let no_cache = QueryOptions::new().no_cache();
    let mut singles: Vec<SolveReport> = Vec::new();
    for (&request, q) in requests.iter().zip(&queries) {
        let engine = tr
            .time("entry.solve", request, || entry.solve("ws-q", q, &no_cache))
            .map_err(|e| e.to_string())?;
        let (nodes, w) = replay_wsq(
            &mut tr,
            request,
            entry.engine().graph(),
            &perm.map_to_new(q),
        )?;
        let mut nodes = perm.map_to_old(&nodes);
        nodes.sort_unstable();
        if nodes != engine.connector.vertices() || w != engine.wiener_index {
            eprintln!(
                "replay mismatch on {q:?}: replay W = {w} {nodes:?}, engine W = {} {:?}",
                engine.wiener_index,
                engine.connector.vertices()
            );
            consistent = false;
        }
        singles.push(engine);
    }

    // Engine layer: every registered solver uncached, then one group of
    // the replayed queries against the same queries solved one by one.
    let mut karate_rng = Rng::new(0xE4AC7);
    let karate_queries: Vec<Vec<NodeId>> = (0..PANEL_QUERIES)
        .map(|_| karate_rng.query(34, 3))
        .collect();
    let karate = get("karate")?;
    for (i, solver) in SOLVERS.iter().enumerate() {
        let (target, qs) = if KARATE_ONLY.contains(solver) {
            (&karate, &karate_queries[..])
        } else {
            (&entry, &queries[..PANEL_QUERIES.min(queries.len())])
        };
        for q in qs {
            tr.time("entry.solve_panel", i as u64, || {
                target.solve(solver, q, &no_cache)
            })
            .map_err(|e| format!("{solver} on {q:?}: {e}"))?;
        }
    }
    let group: Vec<GroupQuery> = queries
        .iter()
        .map(|q| GroupQuery::new("ws-q", q.clone(), no_cache.clone()))
        .collect();
    let grouped = tr.time("entry.solve_group", 0, || entry.solve_group(&group));
    for (single, result) in singles.iter().zip(&grouped.results) {
        let same = result.as_ref().is_ok_and(|r| {
            (r.connector.vertices(), r.wiener_index)
                == (single.connector.vertices(), single.wiener_index)
        });
        if !same {
            eprintln!("solve_group answer differs from the single solve of the same query");
            consistent = false;
        }
    }

    // Protocol layer, on the quality set's request lines and reports.
    let lines: Vec<String> = env
        .quality
        .iter()
        .map(|(q, _)| q.solve_request(false))
        .collect();
    for round in 0..PROBE_ROUNDS as u64 {
        for line in &lines {
            let parsed = tr.time("protocol.parse_request", round, || parse_request(line));
            std::hint::black_box(parsed.map_err(|e| e.to_string())?);
        }
        for report in &singles {
            let text = tr.time("protocol.report_to_json", round, || {
                report_to_json(report).to_string()
            });
            std::hint::black_box(text);
        }
    }

    // Frontend and router: the quality set is cached on the tier, so the
    // same requests sent straight to their server, through a router, and
    // into the server's own catalog isolate what each hop adds.
    let temp_router = match env.tier.router {
        Some(_) => None,
        None => Some(start_router(&env.tier.servers)?),
    };
    let router = env
        .tier
        .router
        .as_ref()
        .or(temp_router.as_ref())
        .expect("one router");
    let mut routed = Client::connect(router.local_addr()).map_err(|e| e.to_string())?;
    for server in &env.tier.servers {
        let probes: Vec<(&Query, &String)> = env
            .quality
            .iter()
            .zip(&lines)
            .map(|((q, _), line)| (q, line))
            .filter(|(q, _)| server.catalog().get(q.graph).is_ok())
            .collect();
        let mut direct = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
        for round in 0..PROBE_ROUNDS as u64 {
            for &(query, line) in &probes {
                for (span, client) in [
                    ("server.solve_cached", &mut direct),
                    ("router.solve_cached", &mut routed),
                ] {
                    let response = tr
                        .time(span, round, || client.roundtrip_line(line))
                        .map_err(|e| e.to_string())?;
                    let report = crate::workloads::decode_solve(&response)?;
                    consistent &= verifier.check(query.graph, query.solver, &query.q, &report);
                }
                let served = server
                    .catalog()
                    .get(query.graph)
                    .map_err(|e| e.to_string())?;
                tr.time("entry.solve_cached", round, || {
                    served.solve(query.solver, &query.q, &QueryOptions::new())
                })
                .map_err(|e| e.to_string())?;
            }
        }
    }
    let mut ping = Client::connect(env.tier.servers[0].local_addr()).map_err(|e| e.to_string())?;
    for round in 0..(PROBE_ROUNDS * 10) as u64 {
        tr.time("server.ping", round, || ping.ping())
            .map_err(|e| e.to_string())?;
    }
    let router_stats = routed.stats().map_err(|e| e.to_string())?;
    if let Some(r) = temp_router {
        r.shutdown();
    }

    let path = format!("perfbench/traces/{}-seed{seed}.jsonl", spec.name);
    if let Err(e) = tr.write(&path) {
        eprintln!("could not write {path}: {e}");
    }

    // Metrics, in the order BENCHMARK.json lists them.
    let n = queries.len() as f64;
    let replay_ms = tr.total_ms("wsq.replay");
    let per = |name: &str| median(&tr.per_request_ms(name, &requests));
    let share = |name: &str| tr.total_ms(name) / replay_ms;
    let count = |name: &str| tr.all_ms(name).len() as f64;
    let mut m: Metrics = vec![
        (
            "steiner.mehlhorn_ms".into(),
            median(&tr.all_ms("steiner.mehlhorn")),
            "ms",
        ),
        (
            "steiner.calls".into(),
            count("steiner.mehlhorn") / n,
            "count",
        ),
        ("steiner.share".into(), share("steiner.mehlhorn"), "ratio"),
        (
            "wsq.root_distances_ms".into(),
            per("wsq.root_distances"),
            "ms",
        ),
        (
            "wsq.root_distances.share".into(),
            share("wsq.root_distances"),
            "ratio",
        ),
        ("adjust.ms".into(), per("adjust"), "ms"),
        ("adjust.share".into(), share("adjust"), "ratio"),
        ("objective.eval_a_ms".into(), per("objective.eval_a"), "ms"),
        (
            "objective.eval_a.share".into(),
            share("objective.eval_a"),
            "ratio",
        ),
        ("wiener.exact_ms".into(), per("wiener.exact"), "ms"),
        (
            "wiener.exact_evals".into(),
            count("wiener.exact") / n,
            "count",
        ),
        ("wiener.exact.share".into(), share("wiener.exact"), "ratio"),
        (
            "wsq.replay_ms".into(),
            median(&tr.all_ms("wsq.replay")),
            "ms",
        ),
        (
            "wsq.replay_self.share".into(),
            tr.self_ms("wsq.replay") / replay_ms,
            "ratio",
        ),
    ];
    for (i, solver) in SOLVERS.iter().enumerate() {
        let name = format!("engine.solve_ms.{}", solver.replace('+', "_"));
        m.push((
            name,
            median(&tr.request_ms("entry.solve_panel", i as u64)),
            "ms",
        ));
    }
    let group_ms = tr.total_ms("entry.solve_group");
    let (hits, misses) = (
        (after.cache.0 - before.cache.0) as f64,
        (after.cache.1 - before.cache.1) as f64,
    );
    let delta = |path: &[&str]| -> f64 {
        let sum = |s: &Snapshot| s.stats.iter().map(|d| stat(d, path)).sum::<f64>();
        sum(&after) - sum(before)
    };
    let max_after = |path: &[&str]| {
        after
            .stats
            .iter()
            .map(|d| stat(d, path))
            .fold(0.0, f64::max)
    };
    let server_ms = median(&tr.all_ms("server.solve_cached"));
    m.extend([
        (
            "engine.cache_hit_us".into(),
            median(&tr.all_us("entry.solve_cached")),
            "us",
        ),
        (
            "engine.cache.hit_ratio".into(),
            ratio(hits, hits + misses),
            "ratio",
        ),
        ("engine.group_ms".into(), group_ms, "ms"),
        (
            "engine.group_speedup".into(),
            tr.total_ms("entry.solve") / group_ms,
            "x",
        ),
        (
            "coalesce.queue_wait_p50_ms".into(),
            max_after(&["coalesce", "queue_wait", "p50_ms"]),
            "ms",
        ),
        (
            "coalesce.lane_occupancy".into(),
            ratio(
                delta(&["coalesce", "shared_lanes"]),
                delta(&["coalesce", "shared_sweeps"]) * MS_BFS_LANES as f64,
            ),
            "ratio",
        ),
        (
            "coalesce.dedup_ratio".into(),
            ratio(
                delta(&["coalesce", "deduped"]),
                delta(&["coalesce", "group_requests"]),
            ),
            "ratio",
        ),
        (
            "server.queue_peak".into(),
            max_after(&["queue", "peak"]),
            "count",
        ),
        (
            "server.overloaded".into(),
            delta(&["requests", "overloaded"]),
            "count",
        ),
        (
            "protocol.parse_us".into(),
            median(&tr.all_us("protocol.parse_request")),
            "us",
        ),
        (
            "protocol.encode_us".into(),
            median(&tr.all_us("protocol.report_to_json")),
            "us",
        ),
        (
            "server.ping_rtt_us".into(),
            median(&tr.all_us("server.ping")),
            "us",
        ),
        (
            "server.wire_overhead_ms".into(),
            server_ms - median(&tr.all_ms("entry.solve_cached")),
            "ms",
        ),
        (
            "router.relay_overhead_ms".into(),
            median(&tr.all_ms("router.solve_cached")) - server_ms,
            "ms",
        ),
        (
            "router.fallthrough".into(),
            stat(&router_stats, &["router", "requests", "read_fallthrough"]),
            "count",
        ),
    ]);
    for (i, (_, source)) in CATALOG.iter().enumerate() {
        let name = format!("catalog.load_ms.{}", source.replace(':', ""));
        m.push((name, median(&tr.request_ms("catalog.load", i as u64)), "ms"));
    }
    Ok((m, consistent))
}
