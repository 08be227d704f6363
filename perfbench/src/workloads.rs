//! The three workloads: how each sets up the tier, what it sends while
//! timed, and how every answer it gets back is checked.
//!
//! All loops are closed: a connection sends its next request only after
//! a reply (lockstep) or once one of its `PIPELINE_DEPTH` slots frees up
//! (pipelined). Inputs come from `--seed`, except each workload's quality
//! set, which is fixed so that `wiener_mean` is deterministic. Clients
//! keep only a tally (counts and latencies), so the benchmark's own memory
//! stays small next to the servers'.

use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use mwc_graph::NodeId;
use mwc_service::json::{parse, Json};
use mwc_service::router::{self, RouterConfig, RouterHandle, ShardSpec};
use mwc_service::server::{self, ServerConfig, ServerHandle};
use mwc_service::{Catalog, Client, ClientError, PipelinedClient, WireReport};

use crate::stats::{median, ms, Rng};
use crate::verify::Verifier;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Every run records at least this many latency samples, so p90 has ten
/// beyond it; a slow run keeps measuring past `--seconds` to get them.
pub const MIN_SAMPLES: usize = 100;
/// Requests each pipelined connection keeps in flight.
pub const PIPELINE_DEPTH: usize = 16;
/// Seed of the fixed quality sets (independent of `--seed`).
const QUALITY_SEED: u64 = 0x0A11_7E57_5EED_0F00;

/// The solvers of the `hot-mix-router` pool on every graph; `exact` is
/// added on karate only (it is exponential, and refuses graphs above 64
/// vertices for |Q| > 2).
const MIX_SOLVERS: [&str; 6] = ["ws-q", "ws-q-approx", "st", "cps", "ppr", "ctp"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One connection, never-repeating ws-q queries on `ba:20000x4`.
    Cold,
    /// Two connections through the router, every request a cache hit.
    Hot,
    /// Two pipelined connections of uncached ws-q solves and batches on
    /// the weighted `wba:2000x3`.
    Pipelined,
}

pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Catalog name and source spec of each graph the workload loads.
    pub graphs: &'static [(&'static str, &'static str)],
    /// The graph whose ws-q solves the traced run replays stage by stage.
    pub wsq_graph: &'static str,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        kind: Kind::Cold,
        name: "cold-wsq-ba20k",
        graphs: &[("ba20k", "ba:20000x4")],
        wsq_graph: "ba20k",
    },
    Spec {
        kind: Kind::Hot,
        name: "hot-mix-router",
        graphs: &[("karate", "karate"), ("ba2k", "ba:2000x3")],
        wsq_graph: "ba2k",
    },
    Spec {
        kind: Kind::Pipelined,
        name: "pipelined-wba2k",
        graphs: &[("wba2k", "wba:2000x3")],
        wsq_graph: "wba2k",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One `(graph, solver, query)` triple.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    pub graph: &'static str,
    pub solver: &'static str,
    pub q: Vec<NodeId>,
}

fn ids(q: &[NodeId]) -> Json {
    Json::Arr(q.iter().map(|&v| Json::from(u64::from(v))).collect())
}

impl Query {
    /// The wire `solve` request (no `id`: lockstep callers need none).
    pub fn solve_request(&self, no_cache: bool) -> String {
        let mut fields = vec![
            ("cmd", Json::from("solve")),
            ("graph", Json::from(self.graph)),
            ("solver", Json::from(self.solver)),
            ("q", ids(&self.q)),
        ];
        if no_cache {
            fields.push(("no_cache", Json::Bool(true)));
        }
        Json::obj(fields).to_string()
    }
}

/// The in-process servers (and router) a workload runs against, all in
/// their default configuration.
pub struct Tier {
    pub servers: Vec<ServerHandle>,
    pub router: Option<RouterHandle>,
}

impl Tier {
    fn start(shards: usize, routed: bool) -> Result<Tier, String> {
        let servers = (0..shards)
            .map(|_| {
                server::start(
                    Arc::new(Catalog::new()),
                    ServerConfig::default(),
                    "127.0.0.1:0",
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("starting mwc-server: {e}"))?;
        let router = if routed {
            Some(start_router(&servers)?)
        } else {
            None
        };
        Ok(Tier { servers, router })
    }

    /// Where clients connect: the router if there is one.
    pub fn front(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.local_addr(),
            None => self.servers[0].local_addr(),
        }
    }

    pub fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// An `mwc-router` in its default configuration over `servers`.
pub fn start_router(servers: &[ServerHandle]) -> Result<RouterHandle, String> {
    let shards = servers
        .iter()
        .enumerate()
        .map(|(i, s)| ShardSpec::new(format!("shard-{i}"), s.local_addr().to_string()))
        .collect();
    router::start(shards, RouterConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("starting mwc-router: {e}"))
}

/// A set-up tier plus the inputs the timed phase draws from.
pub struct Env {
    pub tier: Tier,
    /// Seconds from the start of set-up until ready to time.
    pub setup_s: f64,
    /// The warmed request pool (`hot` and `pipelined`; empty for `cold`).
    pub pool: Vec<Query>,
    /// The fixed quality set and the W each answer reported.
    pub quality: Vec<(Query, u64)>,
}

/// The never-repeating query stream of `cold-wsq-ba20k`: |Q| = 8 uniform
/// vertices, skipping any set already asked (the quality set included),
/// so every solve misses the server's cache.
pub struct ColdStream {
    graph: &'static str,
    rng: Rng,
    n: usize,
    seen: HashSet<Vec<NodeId>>,
}

impl ColdStream {
    pub fn new(
        spec: &Spec,
        seed: u64,
        quality: &[(Query, u64)],
        verifier: &Verifier,
    ) -> ColdStream {
        ColdStream {
            graph: spec.wsq_graph,
            rng: Rng::new(seed ^ 0xC01D),
            n: verifier.num_nodes(spec.wsq_graph),
            seen: quality.iter().map(|(query, _)| query.q.clone()).collect(),
        }
    }

    pub fn next_query(&mut self) -> Query {
        loop {
            let q = self.rng.query(self.n, 8);
            if self.seen.insert(q.clone()) {
                return Query {
                    graph: self.graph,
                    solver: "ws-q",
                    q,
                };
            }
        }
    }
}

/// `count` ws-q queries of `k` vertices on the workload's ws-q graph.
fn wsq_queries(
    spec: &Spec,
    verifier: &Verifier,
    rng: &mut Rng,
    count: usize,
    k: usize,
) -> Vec<Query> {
    let n = verifier.num_nodes(spec.wsq_graph);
    (0..count)
        .map(|_| Query {
            graph: spec.wsq_graph,
            solver: "ws-q",
            q: rng.query(n, k),
        })
        .collect()
}

/// The fixed quality set of a workload.
fn quality_set(spec: &Spec, verifier: &Verifier) -> Vec<Query> {
    let mut rng = Rng::new(QUALITY_SEED);
    match spec.kind {
        Kind::Cold => wsq_queries(spec, verifier, &mut rng, 6, 8),
        Kind::Hot => mix_pairings(spec)
            .into_iter()
            .flat_map(|pairing| [pairing, pairing])
            .map(|(graph, solver)| Query {
                graph,
                solver,
                q: rng.query(verifier.num_nodes(graph), 3),
            })
            .collect(),
        Kind::Pipelined => wsq_queries(spec, verifier, &mut rng, 8, 4),
    }
}

/// Every `(graph, solver)` pairing of the router mix.
fn mix_pairings(spec: &Spec) -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    for &(graph, _) in spec.graphs {
        for solver in MIX_SOLVERS {
            out.push((graph, solver));
        }
        if graph == "karate" {
            out.push((graph, "exact"));
        }
    }
    out
}

/// The seeded request pool of `hot` (256 distinct triples, |Q| 2–4) and
/// `pipelined` (16 ws-q queries, |Q| = 4).
fn pool(spec: &Spec, seed: u64, verifier: &Verifier) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x9001);
    match spec.kind {
        Kind::Cold => Vec::new(),
        Kind::Hot => {
            let pairings = mix_pairings(spec);
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            while out.len() < 256 {
                let (graph, solver) = pairings[rng.below(pairings.len())];
                let k = 2 + rng.below(3);
                let query = Query {
                    graph,
                    solver,
                    q: rng.query(verifier.num_nodes(graph), k),
                };
                if seen.insert(query.clone()) {
                    out.push(query);
                }
            }
            out
        }
        Kind::Pipelined => wsq_queries(spec, verifier, &mut rng, 16, 4),
    }
}

/// Solves `query` over `client`, checks the answer, and returns its W.
fn solve_checked(
    client: &mut Client,
    query: &Query,
    no_cache: bool,
    verifier: &mut Verifier,
) -> Result<u64, String> {
    let line = client
        .roundtrip_line(&query.solve_request(no_cache))
        .map_err(|e| format!("{query:?}: {e}"))?;
    let report = decode_solve(&line).map_err(|e| format!("{query:?}: {e}"))?;
    verifier.check(query.graph, query.solver, &query.q, &report);
    Ok(report.wiener_index)
}

/// One set-up: start the tier, load the graphs over the wire, run the
/// quality set, and warm the pool. Everything here counts in `setup_s`.
pub fn setup(spec: &Spec, seed: u64, verifier: &mut Verifier) -> Result<Env, String> {
    let t0 = Instant::now();
    let tier = Tier::start(
        if spec.kind == Kind::Hot { 2 } else { 1 },
        spec.kind == Kind::Hot,
    )?;
    let mut client = Client::connect(tier.front()).map_err(|e| e.to_string())?;
    for &(name, source) in spec.graphs {
        client
            .load(name, source)
            .map_err(|e| format!("load {source}: {e}"))?;
    }
    let mut quality = Vec::new();
    for query in quality_set(spec, verifier) {
        let w = solve_checked(&mut client, &query, false, verifier)?;
        quality.push((query, w));
    }
    let pool = pool(spec, seed, verifier);
    let no_cache = spec.kind == Kind::Pipelined;
    for query in &pool {
        solve_checked(&mut client, query, no_cache, verifier)?;
    }
    Ok(Env {
        tier,
        setup_s: t0.elapsed().as_secs_f64(),
        pool,
        quality,
    })
}

/// What a timed phase measured, per connection and in total.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Solves attempted (a batch of k counts k).
    pub attempted: u64,
    /// Solves that failed, were refused, or came back wrong.
    pub failed: u64,
    /// Of those, the ones that came back wrong.
    pub wrong: u64,
    pub elapsed_s: f64,
    /// Client-side latency of every successful `solve` request, in ms.
    pub latencies_ms: Vec<f64>,
}

impl Outcome {
    pub fn throughput_rps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed_s
    }

    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.latencies_ms.extend(other.latencies_ms);
    }

    /// Counts one solve answer (or why there is none), checking it
    /// against the answers remembered during set-up.
    fn count(
        &mut self,
        verifier: &Verifier,
        query: &Query,
        answer: Result<WireReport, String>,
    ) -> bool {
        self.attempted += 1;
        let verdict = answer.and_then(|report| {
            verifier
                .verdict(query.graph, query.solver, &query.q, &report)
                .map_err(|why| {
                    self.wrong += 1;
                    format!("wrong answer: {why}")
                })
        });
        if let Err(e) = &verdict {
            if self.failed < 5 {
                eprintln!("failed: {query:?}: {e}");
            }
            self.failed += 1;
        }
        verdict.is_ok()
    }
}

pub fn decode_solve(line: &str) -> Result<WireReport, String> {
    let v = parse(line.trim()).map_err(|e| format!("unparseable response: {e}"))?;
    report_of(&v)
}

fn report_of(v: &Json) -> Result<WireReport, String> {
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request failed: {v}"));
    }
    let report = v.get("report").ok_or("response carries no report")?;
    WireReport::from_json(report).map_err(|e| e.to_string())
}

/// Whether a connection may stop sending: `--seconds` have passed and it
/// holds its share of the latency sample, or three times `--seconds`
/// have passed.
fn done(start: Instant, seconds: f64, samples: usize, need: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed >= seconds && samples >= need) || elapsed >= 3.0 * seconds
}

/// A lockstep connection: send a `solve`, wait for its reply, repeat.
fn lockstep(
    addr: SocketAddr,
    start: Instant,
    seconds: f64,
    need: usize,
    verifier: &Verifier,
    mut next: impl FnMut() -> (Query, String),
) -> Outcome {
    let mut out = Outcome::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.count(verifier, &next().0, Err(e.to_string()));
            return out;
        }
    };
    while !done(start, seconds, out.latencies_ms.len(), need) {
        let (query, line) = next();
        let t = Instant::now();
        let response = client.roundtrip_line(&line);
        let latency_ms = ms(t.elapsed());
        let broken = response.is_err();
        let answer = response
            .map_err(|e| e.to_string())
            .and_then(|l| decode_solve(&l));
        if out.count(verifier, &query, answer) {
            out.latencies_ms.push(latency_ms);
        }
        if broken {
            break;
        }
    }
    out
}

/// What one pipelined request asked.
enum Sent {
    Solve(Query),
    Batch(Vec<Query>),
}

/// The wire line of a pipelined request: everything `no_cache`, so each
/// one runs a solver.
fn pipelined_line(sent: &Sent, id: u64) -> String {
    let (cmd, first, queries) = match sent {
        Sent::Solve(q) => ("solve", q, ids(&q.q)),
        Sent::Batch(qs) => (
            "batch",
            &qs[0],
            Json::Arr(qs.iter().map(|q| ids(&q.q)).collect()),
        ),
    };
    Json::obj([
        ("cmd", Json::from(cmd)),
        ("graph", Json::from(first.graph)),
        ("solver", Json::from(first.solver)),
        ("no_cache", Json::Bool(true)),
        (if cmd == "solve" { "q" } else { "queries" }, queries),
        ("id", Json::from(id)),
    ])
    .to_string()
}

/// Counts one pipelined response (or why there is none).
fn count_pipelined(
    out: &mut Outcome,
    verifier: &Verifier,
    sent: Sent,
    latency_ms: f64,
    response: Result<Json, String>,
) {
    match sent {
        Sent::Solve(query) => {
            if out.count(verifier, &query, response.and_then(|v| report_of(&v))) {
                out.latencies_ms.push(latency_ms);
            }
        }
        Sent::Batch(queries) => {
            let reports = response.and_then(|v| {
                v.get("reports")
                    .and_then(Json::as_array)
                    .filter(|r| r.len() == queries.len())
                    .map(<[Json]>::to_vec)
                    .ok_or_else(|| format!("batch response without one report per query: {v}"))
            });
            for (i, query) in queries.iter().enumerate() {
                let answer = match &reports {
                    Err(e) => Err(e.clone()),
                    Ok(r) => match r[i].get("error") {
                        Some(e) => Err(e.to_string()),
                        None => WireReport::from_json(&r[i]).map_err(|e| e.to_string()),
                    },
                };
                out.count(verifier, query, answer);
            }
        }
    }
}

/// A pipelined connection keeping `PIPELINE_DEPTH` requests in flight;
/// every 16th request is a `batch` of 8 pool queries.
fn pipelined(
    addr: SocketAddr,
    start: Instant,
    seconds: f64,
    need: usize,
    verifier: &Verifier,
    pool: &[Query],
    seed: u64,
) -> Outcome {
    let mut rng = Rng::new(seed);
    let mut pick = || pool[rng.below(pool.len())].clone();
    let mut out = Outcome::default();
    let mut client = match PipelinedClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.count(verifier, &pick(), Err(e.to_string()));
            return out;
        }
    };
    let mut in_flight: VecDeque<(u64, Instant, Sent)> = VecDeque::new();
    let mut next_id = 0u64;
    loop {
        while in_flight.len() < PIPELINE_DEPTH
            && !done(start, seconds, out.latencies_ms.len(), need)
        {
            next_id += 1;
            let sent = if next_id.is_multiple_of(16) {
                Sent::Batch((0..8).map(|_| pick()).collect())
            } else {
                Sent::Solve(pick())
            };
            if let Err(e) = client.send_raw(&pipelined_line(&sent, next_id)) {
                count_pipelined(&mut out, verifier, sent, 0.0, Err(e.to_string()));
                break;
            }
            in_flight.push_back((next_id, Instant::now(), sent));
        }
        let Some((id, t, sent)) = in_flight.pop_front() else {
            return out;
        };
        let response = client.recv_until(id);
        let latency_ms = ms(t.elapsed());
        // A server error answers this request alone; anything else
        // leaves the connection unusable, failing what is still in flight.
        let broken = !matches!(response, Ok(_) | Err(ClientError::Server(_)));
        count_pipelined(
            &mut out,
            verifier,
            sent,
            latency_ms,
            response.map_err(|e| e.to_string()),
        );
        if broken {
            for (_, _, sent) in in_flight.drain(..) {
                count_pipelined(
                    &mut out,
                    verifier,
                    sent,
                    0.0,
                    Err("connection lost".to_string()),
                );
            }
            return out;
        }
    }
}

/// Runs the timed phase of `spec` against a set-up `env`. Answers are
/// checked as they arrive, against the answers set-up remembered (every
/// pool query was answered then) or, for `cold`, in full.
pub fn run(spec: &Spec, env: &Env, seed: u64, seconds: f64, verifier: &Verifier) -> Outcome {
    let addr = env.tier.front();
    let need = MIN_SAMPLES.div_ceil(2);
    let start = Instant::now();
    let per_connection: Vec<Outcome> = match spec.kind {
        Kind::Cold => {
            let mut stream = ColdStream::new(spec, seed, &env.quality, verifier);
            let next = || {
                let query = stream.next_query();
                let line = query.solve_request(false);
                (query, line)
            };
            vec![lockstep(addr, start, seconds, MIN_SAMPLES, verifier, next)]
        }
        Kind::Hot => {
            let lines: Vec<(Query, String)> = env
                .pool
                .iter()
                .map(|q| (q.clone(), q.solve_request(false)))
                .collect();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..2u64)
                    .map(|c| {
                        let lines = &lines;
                        s.spawn(move || {
                            let mut rng = Rng::new(seed ^ (0x407 + c));
                            let next = || lines[rng.below(lines.len())].clone();
                            lockstep(addr, start, seconds, need, verifier, next)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            })
        }
        Kind::Pipelined => std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|c| {
                    let pool = &env.pool;
                    s.spawn(move || {
                        pipelined(
                            addr,
                            start,
                            seconds,
                            need,
                            verifier,
                            pool,
                            seed ^ (0x919 + c),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        }),
    };
    let mut outcome = Outcome {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    for part in per_connection {
        outcome.merge(part);
    }
    outcome
}

/// `reps` set-ups; all but the last are torn down again. Returns
/// the last, with `setup_s` the median over all of them.
pub fn setup_repeated(
    spec: &Spec,
    seed: u64,
    reps: usize,
    verifier: &mut Verifier,
) -> Result<Env, String> {
    let mut env = setup(spec, seed, verifier)?;
    let mut times = vec![env.setup_s];
    for _ in 1..reps {
        env.tier.shutdown();
        env = setup(spec, seed, verifier)?;
        times.push(env.setup_s);
    }
    env.setup_s = median(&times);
    Ok(env)
}
