//! `loadgen` — closed-loop load generator for `mwc-server` (and the
//! sharded `mwc-router` tier), emitting `BENCH_service.json` /
//! `BENCH_router.json` with throughput and latency.
//!
//! ```text
//! cargo run --release -p mwc-bench --bin loadgen -- [options]
//!
//!   --addr HOST:PORT    drive an already-running server (default: spawn
//!                       an in-process server on an ephemeral port)
//!   --graph NAME=SPEC   graph(s) for the in-process server; repeatable
//!                       (default: karate=karate and ba2k=ba:2000x3)
//!   --clients N         concurrent closed-loop clients (default 8)
//!   --duration-secs N   measured wall-clock per run (default 5)
//!   --solvers A,B,...   solvers to exercise (default ws-q,ws-q-approx,st;
//!                       router mode: cps)
//!   --deadline-ms N     per-request deadline (default: none)
//!   --out PATH          output path (default BENCH_service.json, or
//!                       BENCH_router.json in router mode)
//!   --seed N            workload RNG seed (default 42)
//!
//!   --router            sharded-tier comparison: run the same closed-loop
//!                       workload through an in-process mwc-router over
//!                       1 shard and over --shards shards, and record the
//!                       throughput ratio in BENCH_router.json
//!   --shards N          shard count for the multi-shard run (default 2)
//!   --shard-workers N   worker threads per shard process (default 1 —
//!                       fixed per-process capacity is the point of
//!                       sharding; scale by adding shards)
//!
//!   --contend           contention comparison: N clients hammer ONE graph
//!                       (default 32 clients, ba:2000x3, solver ws-q) over
//!                       a small fixed query pool, once with cross-request
//!                       coalescing off and once with it on; solve caches
//!                       are disabled on both runs so the speedup measures
//!                       in-window dedup, job batching and any in-flight
//!                       joins, not cache replay. Merges a `contend`
//!                       section (with `speedup`, per-run p50/p99 and
//!                       `joined`, and the coalescing run's `stats`
//!                       counters) into BENCH_service.json.
//!   --contend-window-us N
//!                       coalescing flush window for the "on" run (default
//!                       10000 — deliberately larger than the server's
//!                       300µs default, sized so windows fill against the
//!                       multi-ms contended ws-q solves being batched;
//!                       the 64-unit work budget still closes windows
//!                       early under real pile-ups)
//!
//!   --trace-overhead    tracing-cost comparison: the same closed-loop
//!                       workload against one in-process server (solve
//!                       cache off so both runs do real pipeline work),
//!                       once with every request untraced and once with
//!                       every request carrying `"trace": true`. Merges a
//!                       `trace_overhead` section (with per-run totals
//!                       and `speedup` = traced / untraced throughput)
//!                       into BENCH_service.json, and prints one traced
//!                       span tree as a stage breakdown.
//!   --connections N     connection-scale comparison (linux only): spawn
//!                       an in-process karate server twice — `threads`
//!                       transport at min(N, 64) connections, then
//!                       `epoll` at N — and drive an *open loop*: every
//!                       connection sends one small solve each
//!                       1/--conn-rate seconds regardless of responses
//!                       (default 10000 × 0.5 r/s), all sockets
//!                       multiplexed from one client thread on epoll.
//!                       N is clamped against `ulimit -n` (a loopback
//!                       connection costs two fds in-process) with a
//!                       logged warning. Merges a `connections` section
//!                       into --out: per-run accepted / throughput /
//!                       p50 / p99, process RSS and thread counts, and
//!                       `speedup` — the per-connection sustained-rate
//!                       ratio (epoll at N vs threads at 64), ≈1.0 when
//!                       the event loop holds the open-loop rate at
//!                       scale and scale-invariant by construction, so
//!                       the committed BENCH_conn.json baseline (10k
//!                       connections) gates CI smokes at any N.
//!   --conn-rate R       per-connection request rate for --connections
//!                       (default 0.5 r/s)
//!   --metrics-out PATH  after the run, dump the server's Prometheus
//!                       `metrics` exposition to PATH (CI artifact)
//!   --slowlog-out PATH  after the run, dump the server's `slowlog`
//!                       entries as a JSON array to PATH (CI artifact)
//!   --weighted          swap every default workload graph for its
//!                       weighted (`wba:`) twin, so solves run the
//!                       radix-heap Dijkstra instead of BFS (default
//!                       corpus: wba2k=wba:2000x3 and wba5k=wba:5000x4;
//!                       contend/router/reshard defaults become
//!                       wba:2000x3). Incompatible with explicit
//!                       --graph — pass wba:/wfile: specs there instead.
//! ```
//!
//! Closed loop: each client keeps exactly one request in flight —
//! throughput measures what the server sustains at `--clients`
//! concurrency, and client-side latency includes queueing and the wire.
//!
//! Router mode details: the solve caches are disabled on every shard so
//! the comparison measures solver capacity scaling, not cache-hit replay;
//! the default solver is `cps` (no solver-internal thread pool, and
//! expensive enough per solve that the shard worker is the capacity
//! bound), so a 1-worker shard is genuinely capacity-one and the N-shard
//! run shows the tier's scaling rather than intra-process parallelism.
//! The output records `cores`: sharding scales *compute*, so on a
//! 1-core machine the honest speedup is ~1.0× — read the number against
//! the hardware that produced it (CI runs on multi-core runners).

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mwc_graph::NodeId;
use mwc_service::coalesce::CoalesceConfig;
use mwc_service::router::{self, RouterConfig, ShardSpec};
use mwc_service::{server, Catalog, Client, ClientError, HashRing, Json, ServerConfig};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

#[derive(Clone)]
struct Args {
    addr: Option<String>,
    graphs: Vec<(String, String)>,
    clients: usize,
    duration: Duration,
    solvers: Vec<String>,
    deadline_ms: Option<u64>,
    out: String,
    seed: u64,
    router: bool,
    /// `--reshard`: live-migration smoke — a standby shard joins the
    /// ring mid-run while the closed-loop workload keeps going.
    reshard: bool,
    shards: usize,
    shard_workers: usize,
    contend: bool,
    contend_window_us: u64,
    trace_overhead: bool,
    /// `--connections N`: open-loop connection-scale comparison (0 = off).
    connections: usize,
    /// Per-connection open-loop request rate (requests per second).
    conn_rate: f64,
    metrics_out: Option<String>,
    slowlog_out: Option<String>,
    /// `--weighted`: the default workload graphs become their weighted
    /// (`wba:`) twins, so every solve exercises the radix-heap Dijkstra
    /// instead of BFS.
    weighted: bool,
}

impl Args {
    /// The workhorse graph spec every self-spawning mode defaults to.
    fn ba_spec(&self) -> String {
        if self.weighted {
            "wba:2000x3"
        } else {
            "ba:2000x3"
        }
        .to_string()
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--graph NAME=SPEC]... [--clients N]\n\
         \x20      [--duration-secs N] [--solvers A,B,..] [--deadline-ms N]\n\
         \x20      [--out PATH] [--seed N]\n\
         \x20      [--router [--reshard] [--shards N] [--shard-workers N]]\n\
         \x20      [--contend [--contend-window-us N]]\n\
         \x20      [--trace-overhead] [--connections N [--conn-rate R]]\n\
         \x20      [--metrics-out PATH] [--slowlog-out PATH] [--weighted]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Args {
    let mut args = Args {
        addr: None,
        graphs: Vec::new(),
        clients: 8,
        duration: Duration::from_secs(5),
        solvers: Vec::new(),
        deadline_ms: None,
        out: String::new(),
        seed: 42,
        router: false,
        reshard: false,
        shards: 2,
        shard_workers: 1,
        contend: false,
        contend_window_us: 10_000,
        trace_overhead: false,
        connections: 0,
        conn_rate: 0.5,
        metrics_out: None,
        slowlog_out: None,
        weighted: false,
    };
    let mut clients_set = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => args.addr = Some(value()),
            "--graph" => match value().split_once('=') {
                Some((n, s)) => args.graphs.push((n.to_string(), s.to_string())),
                None => usage(),
            },
            "--clients" => {
                args.clients = value().parse().unwrap_or_else(|_| usage());
                clients_set = true;
            }
            "--duration-secs" => {
                args.duration = Duration::from_secs_f64(value().parse().unwrap_or_else(|_| usage()))
            }
            "--solvers" => args.solvers = value().split(',').map(str::to_string).collect(),
            "--deadline-ms" => args.deadline_ms = Some(value().parse().unwrap_or_else(|_| usage())),
            "--out" => args.out = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--router" => args.router = true,
            "--reshard" => args.reshard = true,
            "--shards" => args.shards = value().parse().unwrap_or_else(|_| usage()),
            "--shard-workers" => args.shard_workers = value().parse().unwrap_or_else(|_| usage()),
            "--contend" => args.contend = true,
            "--contend-window-us" => {
                args.contend_window_us = value().parse().unwrap_or_else(|_| usage())
            }
            "--trace-overhead" => args.trace_overhead = true,
            "--connections" => args.connections = value().parse().unwrap_or_else(|_| usage()),
            "--conn-rate" => {
                args.conn_rate = value().parse().unwrap_or_else(|_| usage());
                if !(args.conn_rate > 0.0 && args.conn_rate.is_finite()) {
                    eprintln!("--conn-rate must be a positive requests-per-second rate");
                    usage();
                }
            }
            "--metrics-out" => args.metrics_out = Some(value()),
            "--slowlog-out" => args.slowlog_out = Some(value()),
            "--weighted" => args.weighted = true,
            _ => usage(),
        }
    }
    if args.solvers.is_empty() {
        args.solvers = if args.router {
            // cps: expensive enough (~ms) that the shard worker, not the
            // wire, is the capacity bound, and free of solver-internal
            // thread pools — so the comparison isolates tier scaling.
            vec!["cps".into()]
        } else if args.contend {
            // ws-q: multi-ms solves, so windows fill and identical
            // requests pile up for in-window dedup.
            vec!["ws-q".into()]
        } else {
            vec!["ws-q".into(), "ws-q-approx".into(), "st".into()]
        };
    }
    if args.contend && !clients_set {
        // Contention is the point: enough clients that windows fill.
        args.clients = 32;
    }
    if args.out.is_empty() {
        args.out = if args.router && args.reshard {
            "BENCH_reshard.json".into()
        } else if args.router {
            "BENCH_router.json".into()
        } else {
            "BENCH_service.json".into()
        };
    }
    if args.reshard && !args.router {
        eprintln!("--reshard is a mode of the router tier; pass --router too");
        usage();
    }
    if args.weighted && !args.graphs.is_empty() {
        // Explicit specs override the workload defaults; pass wfile:/wba:
        // sources directly instead of combining them with the flag.
        eprintln!(
            "--weighted picks the default weighted workload; with --graph, use wba:/wfile: specs"
        );
        usage();
    }
    if args.graphs.is_empty() && !args.router {
        args.graphs = if args.contend {
            // One graph: contention for the same coalescing queue is the
            // scenario under measurement.
            vec![("contend".into(), args.ba_spec())]
        } else if args.weighted {
            vec![
                ("wba2k".into(), "wba:2000x3".into()),
                ("wba5k".into(), "wba:5000x4".into()),
            ]
        } else {
            vec![
                ("karate".into(), "karate".into()),
                ("ba2k".into(), "ba:2000x3".into()),
            ]
        };
    }
    if args.router && args.shards < 2 {
        eprintln!("--router needs --shards >= 2");
        usage();
    }
    if args.router && args.addr.is_some() {
        // The comparison spawns its own 1-shard and N-shard tiers; a
        // silently ignored --addr would produce a benchmark of the wrong
        // system.
        eprintln!("--router spawns its own shards and router; it cannot drive --addr");
        usage();
    }
    if args.contend && (args.router || args.addr.is_some()) {
        eprintln!(
            "--contend spawns its own paired servers; it composes with neither --router nor --addr"
        );
        usage();
    }
    if args.contend && args.graphs.len() != 1 {
        eprintln!("--contend hammers exactly one graph");
        usage();
    }
    if args.trace_overhead && (args.router || args.contend || args.addr.is_some()) {
        eprintln!("--trace-overhead spawns its own server; it composes with none of --router, --contend, --addr");
        usage();
    }
    if args.connections > 0 {
        if args.router || args.contend || args.trace_overhead || args.addr.is_some() {
            eprintln!(
                "--connections spawns its own paired servers; it composes with none of \
                 --router, --contend, --trace-overhead, --addr"
            );
            usage();
        }
        if clients_set {
            eprintln!("--connections drives open-loop connections, not closed-loop --clients");
            usage();
        }
    }
    args
}

/// One completed request, as observed by a client.
struct Sample {
    solver: usize, // index into args.solvers
    latency: Duration,
    outcome: Outcome,
}

#[derive(PartialEq)]
enum Outcome {
    Ok,
    Overloaded,
    OtherError,
}

fn client_loop(
    mut client: Client, // connected by main before the barrier exists
    args: &Args,
    graphs: &[(String, usize)], // (name, node count)
    thread_id: u64,
    traced: bool, // every request carries `"trace": true`
    stop: &AtomicBool,
    barrier: &Barrier,
) -> Vec<Sample> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed ^ (thread_id << 32));
    let mut samples = Vec::new();
    barrier.wait();
    while !stop.load(Ordering::Relaxed) {
        let (graph, nodes) = graphs.choose(&mut rng).expect("at least one graph");
        let solver = rng.gen_range(0..args.solvers.len());
        let size = rng.gen_range(2..=4usize);
        let mut q: Vec<NodeId> = (0..size)
            .map(|_| rng.gen_range(0..*nodes as NodeId))
            .collect();
        q.sort_unstable();
        q.dedup();
        if q.len() < 2 {
            continue;
        }
        let start = Instant::now();
        let result = if traced {
            client
                .solve_traced(
                    graph,
                    &args.solvers[solver],
                    &q,
                    args.deadline_ms,
                    None,
                    false,
                )
                .map(|(r, _)| r)
        } else {
            client.solve(graph, &args.solvers[solver], &q, args.deadline_ms, None)
        };
        let outcome = match result {
            Ok(_) => Outcome::Ok,
            Err(ClientError::Server(e)) if e.code == "overloaded" => Outcome::Overloaded,
            Err(ClientError::Server(_)) => Outcome::OtherError,
            Err(e) => panic!("transport failure mid-run: {e}"),
        };
        samples.push(Sample {
            solver,
            latency: start.elapsed(),
            outcome,
        });
    }
    samples
}

fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the closed-loop workload against `addr` for `args.duration` and
/// returns (elapsed seconds, every sample). Connects all clients before
/// the start barrier so a refused connection fails fast.
fn measure(
    addr: &str,
    args: &Args,
    graphs: &[(String, usize)],
    traced: bool,
) -> (f64, Vec<Sample>) {
    let clients: Vec<Client> = (0..args.clients)
        .map(|i| {
            Client::connect(addr).unwrap_or_else(|e| panic!("loadgen client {i} connect: {e}"))
        })
        .collect();
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(args.clients + 1);
    let (elapsed, samples) = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                let (args, graphs, stop, barrier) = (args, graphs, &stop, &barrier);
                scope.spawn(move || {
                    client_loop(client, args, graphs, i as u64, traced, stop, barrier)
                })
            })
            .collect();
        barrier.wait(); // all clients connected: measurement starts now
        let started = Instant::now();
        std::thread::sleep(args.duration);
        stop.store(true, Ordering::Relaxed);
        let samples: Vec<Sample> = threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect();
        (started.elapsed(), samples)
    });
    (elapsed.as_secs_f64(), samples)
}

fn main() {
    let args = parse_cli();
    if args.router && args.reshard {
        reshard_main(&args);
        return;
    }
    if args.router {
        router_main(&args);
        return;
    }
    if args.contend {
        contend_main(&args);
        return;
    }
    if args.trace_overhead {
        trace_overhead_main(&args);
        return;
    }
    if args.connections > 0 {
        connections_main(&args);
        return;
    }

    // Spawn an in-process server unless we were pointed at one.
    let handle = if args.addr.is_none() {
        let catalog = Arc::new(Catalog::new());
        for (name, spec) in &args.graphs {
            eprint!("loadgen: loading {name} from {spec} ... ");
            let entry = catalog.load(name, spec).expect("load graph");
            eprintln!("{} nodes, {} edges", entry.num_nodes(), entry.num_edges());
        }
        Some(
            server::start(catalog, ServerConfig::default(), "127.0.0.1:0")
                .expect("bind in-process server"),
        )
    } else {
        None
    };
    let addr = match &args.addr {
        Some(a) => a.clone(),
        None => handle.as_ref().unwrap().local_addr().to_string(),
    };

    // Discover node counts for query sampling (and validate the solvers).
    let mut probe = Client::connect(addr.as_str()).expect("connect");
    let graphs: Vec<(String, usize)> = probe
        .graphs()
        .expect("graphs")
        .into_iter()
        .map(|g| {
            for s in &args.solvers {
                assert!(
                    g.solvers.contains(s),
                    "solver {s:?} not registered on graph {:?}",
                    g.name
                );
            }
            (g.name, g.nodes)
        })
        .collect();
    assert!(!graphs.is_empty(), "server has no graphs loaded");

    eprintln!(
        "loadgen: {} clients, {:?} per run, solvers {:?}, graphs {:?}",
        args.clients,
        args.duration,
        args.solvers,
        graphs.iter().map(|g| g.0.as_str()).collect::<Vec<_>>()
    );

    let (secs, samples) = measure(addr.as_str(), &args, &graphs, false);

    // Aggregate.
    let total = samples.len();
    let ok = samples.iter().filter(|s| s.outcome == Outcome::Ok).count();
    let overloaded = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Overloaded)
        .count();
    let mut per_solver: Vec<(&'static str, Json)> = Vec::new();
    println!(
        "{:<14} {:>8} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "solver", "count", "thruput r/s", "mean ms", "p50 ms", "p99 ms", "max ms"
    );
    let mut solver_entries: Vec<(String, Json)> = Vec::new();
    for (i, solver) in args.solvers.iter().enumerate() {
        let mut lat: Vec<f64> = samples
            .iter()
            .filter(|s| s.solver == i && s.outcome == Outcome::Ok)
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        lat.sort_by(|a, b| a.total_cmp(b));
        let count = lat.len();
        let errors = samples
            .iter()
            .filter(|s| s.solver == i && s.outcome != Outcome::Ok)
            .count();
        let mean = if count == 0 {
            0.0
        } else {
            lat.iter().sum::<f64>() / count as f64
        };
        let (p50, p99) = (quantile_ms(&lat, 0.50), quantile_ms(&lat, 0.99));
        let max = lat.last().copied().unwrap_or(0.0);
        let throughput = count as f64 / secs;
        println!(
            "{solver:<14} {count:>8} {throughput:>12.1} {mean:>9.3} {p50:>9.3} {p99:>9.3} {max:>9.3}"
        );
        solver_entries.push((
            solver.clone(),
            Json::obj([
                ("count", Json::from(count)),
                ("errors", Json::from(errors)),
                ("throughput_rps", Json::from(throughput)),
                ("mean_ms", Json::from(mean)),
                ("p50_ms", Json::from(p50)),
                ("p99_ms", Json::from(p99)),
                ("max_ms", Json::from(max)),
            ]),
        ));
    }
    per_solver.push((
        "per_solver",
        Json::Obj(solver_entries.into_iter().collect()),
    ));

    // Grab the server's own view before shutting it down.
    let server_stats = probe.stats().ok();
    dump_observability(&mut probe, &args);
    if let Some(h) = handle {
        h.shutdown();
    }

    let mut doc = vec![
        (
            "config",
            Json::obj([
                ("clients", Json::from(args.clients)),
                ("duration_secs", Json::from(secs)),
                (
                    "solvers",
                    Json::Arr(
                        args.solvers
                            .iter()
                            .map(|s| Json::from(s.as_str()))
                            .collect(),
                    ),
                ),
                (
                    "graphs",
                    Json::Arr(
                        graphs
                            .iter()
                            .map(|(n, size)| {
                                Json::obj([
                                    ("name", Json::from(n.as_str())),
                                    ("nodes", Json::from(*size)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "deadline_ms",
                    args.deadline_ms.map(Json::from).unwrap_or(Json::Null),
                ),
                ("seed", Json::from(args.seed)),
            ]),
        ),
        (
            "totals",
            Json::obj([
                ("requests", Json::from(total)),
                ("ok", Json::from(ok)),
                ("overloaded", Json::from(overloaded)),
                ("errors", Json::from(total - ok - overloaded)),
                ("throughput_rps", Json::from(total as f64 / secs)),
            ]),
        ),
    ];
    doc.extend(per_solver);
    if let Some(stats) = server_stats {
        doc.push(("server_stats", stats));
    }
    let rendered = Json::obj(doc).to_string();
    let mut file = std::fs::File::create(&args.out).expect("create output file");
    file.write_all(rendered.as_bytes()).expect("write output");
    file.write_all(b"\n").expect("write output");
    eprintln!(
        "loadgen: {total} requests in {secs:.2}s ({:.1} r/s overall) → {}",
        total as f64 / secs,
        args.out
    );
}

/// One sharded-tier run: `shard_count` in-process `mwc-server`s (cache
/// disabled, `--shard-workers` workers each) behind an in-process
/// router; graphs loaded *through* the router so placement matches the
/// ring; then the closed-loop workload against the router address.
fn router_run(args: &Args, corpus: &[(String, String)], shard_count: usize) -> (f64, Vec<Sample>) {
    let shards: Vec<server::ServerHandle> = (0..shard_count)
        .map(|_| {
            // Cache off: the comparison must measure solver capacity
            // scaling across shards, not cache-hit replay speed.
            let catalog = Arc::new(Catalog::new().with_solve_cache_bytes(0));
            let config = ServerConfig {
                workers: args.shard_workers.max(1),
                ..ServerConfig::default()
            };
            server::start(catalog, config, "127.0.0.1:0").expect("bind shard")
        })
        .collect();
    let specs: Vec<ShardSpec> = shards
        .iter()
        .enumerate()
        .map(|(i, h)| ShardSpec::new(format!("shard-{i}"), h.local_addr().to_string()))
        .collect();
    let handle = router::start(specs, RouterConfig::default(), "127.0.0.1:0").expect("bind router");
    let addr = handle.local_addr().to_string();

    let mut loader = Client::connect(addr.as_str()).expect("connect loader");
    let mut graphs: Vec<(String, usize)> = Vec::new();
    for (name, spec) in corpus {
        let (nodes, _) = loader
            .load(name, spec)
            .unwrap_or_else(|e| panic!("load {name}={spec} via router: {e}"));
        graphs.push((name.clone(), nodes));
    }

    let result = measure(addr.as_str(), args, &graphs, false);
    handle.shutdown();
    for s in shards {
        s.shutdown();
    }
    result
}

fn totals_json(secs: f64, samples: &[Sample]) -> (f64, Json) {
    let total = samples.len();
    let ok = samples.iter().filter(|s| s.outcome == Outcome::Ok).count();
    let overloaded = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Overloaded)
        .count();
    let throughput = ok as f64 / secs;
    (
        throughput,
        Json::obj([
            ("requests", Json::from(total)),
            ("ok", Json::from(ok)),
            ("overloaded", Json::from(overloaded)),
            ("errors", Json::from(total - ok - overloaded)),
            ("duration_secs", Json::from(secs)),
            ("throughput_rps", Json::from(throughput)),
        ]),
    )
}

/// `--router`: the 1-shard vs N-shard comparison, written to
/// `BENCH_router.json`.
fn router_main(args: &Args) {
    // Corpus: the user's graphs, or two deterministic BA graphs whose
    // names provably land on distinct shards of the N-shard ring (so the
    // multi-shard run actually spreads — with unlucky names the ring may
    // put everything on one shard and measure nothing).
    let corpus: Vec<(String, String)> = if args.graphs.is_empty() {
        let ring = HashRing::new(
            (0..args.shards).map(|i| format!("shard-{i}")),
            mwc_service::shard::DEFAULT_VNODES,
        );
        let mut picked: Vec<(String, String)> = Vec::new(); // (name, shard)
        for i in 0.. {
            let name = format!("ba-{i}");
            let shard = ring.route(&name).to_string();
            if picked.iter().all(|(_, s)| *s != shard) {
                picked.push((name, shard));
                if picked.len() == 2 {
                    break;
                }
            }
            assert!(i < 10_000, "ring never spread two names");
        }
        picked
            .into_iter()
            .map(|(name, _)| (name, args.ba_spec()))
            .collect()
    } else {
        args.graphs.clone()
    };

    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    eprintln!(
        "loadgen --router: {} clients, {:?} per run, solvers {:?}, {} workers/shard, corpus {:?}",
        args.clients,
        args.duration,
        args.solvers,
        args.shard_workers.max(1),
        corpus
            .iter()
            .map(|(n, s)| format!("{n}={s}"))
            .collect::<Vec<_>>()
    );
    if cores < args.shards + 1 {
        eprintln!(
            "loadgen --router: note: only {cores} core(s) — sharding scales compute, so \
             expect ~1.0x here; run on >= {} cores for a meaningful ratio",
            args.shards + 1
        );
    }

    eprintln!("loadgen --router: run 1/2 — single shard");
    let (secs_1, samples_1) = router_run(args, &corpus, 1);
    eprintln!("loadgen --router: run 2/2 — {} shards", args.shards);
    let (secs_n, samples_n) = router_run(args, &corpus, args.shards);

    let (rps_1, single) = totals_json(secs_1, &samples_1);
    let (rps_n, multi) = totals_json(secs_n, &samples_n);
    let speedup = if rps_1 > 0.0 { rps_n / rps_1 } else { 0.0 };
    println!(
        "{:<24} {:>10} {:>14}",
        "configuration", "ok reqs", "thruput r/s"
    );
    println!(
        "{:<24} {:>10} {:>14.1}",
        "router + 1 shard",
        samples_1
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .count(),
        rps_1
    );
    println!(
        "{:<24} {:>10} {:>14.1}",
        format!("router + {} shards", args.shards),
        samples_n
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .count(),
        rps_n
    );
    println!("speedup: {speedup:.2}x");

    let doc = Json::obj([
        (
            "config",
            Json::obj([
                ("clients", Json::from(args.clients)),
                ("duration_secs", Json::from(args.duration.as_secs_f64())),
                (
                    "solvers",
                    Json::Arr(
                        args.solvers
                            .iter()
                            .map(|s| Json::from(s.as_str()))
                            .collect(),
                    ),
                ),
                (
                    "graphs",
                    Json::Arr(
                        corpus
                            .iter()
                            .map(|(n, s)| {
                                Json::obj([
                                    ("name", Json::from(n.as_str())),
                                    ("source", Json::from(s.as_str())),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("shards", Json::from(args.shards)),
                ("shard_workers", Json::from(args.shard_workers.max(1))),
                ("solve_cache", Json::from("disabled")),
                ("cores", Json::from(cores)),
                ("seed", Json::from(args.seed)),
            ]),
        ),
        ("single_shard", single),
        ("multi_shard", multi),
        ("speedup", Json::from(speedup)),
    ]);
    let mut file = std::fs::File::create(&args.out).expect("create output file");
    file.write_all(doc.to_string().as_bytes())
        .expect("write output");
    file.write_all(b"\n").expect("write output");
    eprintln!(
        "loadgen --router: 1 shard {rps_1:.1} r/s, {} shards {rps_n:.1} r/s, speedup {speedup:.2}x → {}",
        args.shards, args.out
    );
}

/// `--router --reshard`: live catalog migration under load. A tier of
/// `--shards` shards serves the closed-loop workload twice: a steady
/// run, then a run during which a standby shard joins the ring via the
/// `reshard` control command — streaming graph sources and warm solve
/// caches to their new owners before routing flips. The gated `speedup`
/// is the during-reshard / steady-state throughput ratio: ≈1.0 when
/// migration costs the tier nothing, collapsing if the flip ever stalls
/// or breaks in-flight traffic (a transport failure aborts the run).
fn reshard_main(args: &Args) {
    // Corpus: one graph the grown ring provably hands to the joining
    // shard (so the reshard always migrates something) and one it
    // leaves alone — or the user's own graphs.
    let standby_name = format!("shard-{}", args.shards);
    let corpus: Vec<(String, String)> = if args.graphs.is_empty() {
        let grown = HashRing::new(
            (0..=args.shards).map(|i| format!("shard-{i}")),
            mwc_service::shard::DEFAULT_VNODES,
        );
        let moving = (0..)
            .map(|i| format!("ba-{i}"))
            .find(|n| grown.route(n) == standby_name)
            .expect("ring never routed a name to the standby");
        let staying = (0..)
            .map(|i| format!("st-{i}"))
            .find(|n| grown.route(n) != standby_name)
            .expect("ring routed every name to the standby");
        vec![(moving, args.ba_spec()), (staying, args.ba_spec())]
    } else {
        args.graphs.clone()
    };

    eprintln!(
        "loadgen --reshard: {} clients, {:?} per run, solvers {:?}, {} shards + 1 standby, corpus {:?}",
        args.clients,
        args.duration,
        args.solvers,
        args.shards,
        corpus
            .iter()
            .map(|(n, s)| format!("{n}={s}"))
            .collect::<Vec<_>>()
    );

    // Caches stay ON: the warm handoff is the point of reshard.
    let start_shard = || {
        let config = ServerConfig {
            workers: args.shard_workers.max(1),
            ..ServerConfig::default()
        };
        server::start(Arc::new(Catalog::new()), config, "127.0.0.1:0").expect("bind shard")
    };
    let shards: Vec<server::ServerHandle> = (0..args.shards).map(|_| start_shard()).collect();
    let standby = start_shard();
    let specs: Vec<ShardSpec> = shards
        .iter()
        .enumerate()
        .map(|(i, h)| ShardSpec::new(format!("shard-{i}"), h.local_addr().to_string()))
        .collect();
    let handle = router::start(specs, RouterConfig::default(), "127.0.0.1:0").expect("bind router");
    let addr = handle.local_addr().to_string();

    let mut loader = Client::connect(addr.as_str()).expect("connect loader");
    let mut graphs: Vec<(String, usize)> = Vec::new();
    for (name, spec) in &corpus {
        let (nodes, _) = loader
            .load(name, spec)
            .unwrap_or_else(|e| panic!("load {name}={spec} via router: {e}"));
        graphs.push((name.clone(), nodes));
    }

    let half = Args {
        duration: args.duration / 2,
        ..args.clone()
    };
    eprintln!("loadgen --reshard: run 1/2 — steady state");
    let (secs_before, samples_before) = measure(addr.as_str(), &half, &graphs, false);

    eprintln!("loadgen --reshard: run 2/2 — {standby_name} joins the ring mid-run");
    let standby_addr = standby.local_addr().to_string();
    let ((secs_during, samples_during), (reshard_ms, migrated, streamed, lost)) =
        std::thread::scope(|scope| {
            let (addr, standby_name, standby_addr, quarter) = (
                addr.as_str(),
                standby_name.as_str(),
                standby_addr.as_str(),
                half.duration / 4,
            );
            let controller = scope.spawn(move || {
                std::thread::sleep(quarter);
                let mut control = Client::connect(addr).expect("connect reshard controller");
                let started = Instant::now();
                let raw = control
                    .roundtrip_line(&format!(
                        r#"{{"cmd":"reshard","add":{{"name":"{standby_name}","addr":"{standby_addr}"}}}}"#
                    ))
                    .expect("reshard roundtrip");
                let ms = started.elapsed().as_secs_f64() * 1e3;
                let v = mwc_service::json::parse(raw.trim()).expect("reshard response json");
                assert_eq!(
                    v.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "reshard failed under load: {raw}"
                );
                let count = |key: &str| {
                    v.get(key)
                        .and_then(Json::as_array)
                        .map(|a| a.len() as u64)
                        .unwrap_or(0)
                };
                let streamed = v
                    .get("streamed_cache_entries")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                (ms, count("migrated"), streamed, count("lost"))
            });
            let run = measure(addr, &half, &graphs, false);
            (run, controller.join().expect("reshard controller"))
        });

    let (rps_before, before) = totals_json(secs_before, &samples_before);
    let (rps_during, during) = totals_json(secs_during, &samples_during);
    let speedup = if rps_before > 0.0 {
        rps_during / rps_before
    } else {
        0.0
    };
    println!(
        "{:<24} {:>10} {:>14}",
        "configuration", "ok reqs", "thruput r/s"
    );
    println!(
        "{:<24} {:>10} {:>14.1}",
        "steady state",
        samples_before
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .count(),
        rps_before
    );
    println!(
        "{:<24} {:>10} {:>14.1}",
        "during reshard",
        samples_during
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .count(),
        rps_during
    );
    println!(
        "speedup: {speedup:.2}x (reshard {reshard_ms:.1} ms, {migrated} graphs migrated, \
         {streamed} cache entries streamed, {lost} lost)"
    );
    assert!(
        migrated >= 1,
        "the reshard moved nothing — the corpus no longer exercises migration"
    );

    let doc = Json::obj([
        (
            "config",
            Json::obj([
                ("clients", Json::from(args.clients)),
                ("duration_secs", Json::from(args.duration.as_secs_f64())),
                (
                    "solvers",
                    Json::Arr(
                        args.solvers
                            .iter()
                            .map(|s| Json::from(s.as_str()))
                            .collect(),
                    ),
                ),
                ("shards", Json::from(args.shards)),
                ("shard_workers", Json::from(args.shard_workers.max(1))),
                ("seed", Json::from(args.seed)),
            ]),
        ),
        ("steady", before),
        ("during_reshard", during),
        (
            "reshard",
            Json::obj([
                ("millis", Json::from(reshard_ms)),
                ("migrated_graphs", Json::from(migrated)),
                ("streamed_cache_entries", Json::from(streamed)),
                ("lost_graphs", Json::from(lost)),
            ]),
        ),
        ("speedup", Json::from(speedup)),
    ]);
    let mut file = std::fs::File::create(&args.out).expect("create output file");
    file.write_all(doc.to_string().as_bytes())
        .expect("write output");
    file.write_all(b"\n").expect("write output");
    eprintln!(
        "loadgen --reshard: steady {rps_before:.1} r/s, during reshard {rps_during:.1} r/s, \
         speedup {speedup:.2}x → {}",
        args.out
    );

    handle.shutdown();
    standby.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// Deterministic pool of distinct query sets for `--contend`: small on
/// purpose, so concurrent clients repeatedly collide on the same queries
/// and a coalescing window sees both duplicates (deduped) and distinct
/// sets (run as jobs).
fn contend_pool(seed: u64, nodes: usize, count: usize) -> Vec<Vec<NodeId>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pool: Vec<Vec<NodeId>> = Vec::new();
    while pool.len() < count {
        let size = rng.gen_range(2..=4usize);
        let mut q: Vec<NodeId> = (0..size)
            .map(|_| rng.gen_range(0..nodes as NodeId))
            .collect();
        q.sort_unstable();
        q.dedup();
        if q.len() >= 2 && !pool.contains(&q) {
            pool.push(q);
        }
    }
    pool
}

/// Closed-loop client for `--contend`: same accounting as [`client_loop`],
/// but queries are drawn from the fixed shared pool instead of sampled
/// fresh, so contention on identical/overlapping work is guaranteed.
fn contend_client_loop(
    mut client: Client,
    args: &Args,
    graph: &str,
    pool: &[Vec<NodeId>],
    thread_id: u64,
    stop: &AtomicBool,
    barrier: &Barrier,
) -> Vec<Sample> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed ^ (thread_id << 32));
    let mut samples = Vec::new();
    barrier.wait();
    while !stop.load(Ordering::Relaxed) {
        let q = pool.choose(&mut rng).expect("non-empty pool");
        let solver = rng.gen_range(0..args.solvers.len());
        let start = Instant::now();
        let outcome = match client.solve(graph, &args.solvers[solver], q, args.deadline_ms, None) {
            Ok(_) => Outcome::Ok,
            Err(ClientError::Server(e)) if e.code == "overloaded" => Outcome::Overloaded,
            Err(ClientError::Server(_)) => Outcome::OtherError,
            Err(e) => panic!("transport failure mid-run: {e}"),
        };
        samples.push(Sample {
            solver,
            latency: start.elapsed(),
            outcome,
        });
    }
    samples
}

/// One `--contend` run: an in-process server on the single contended
/// graph (solve cache off, fixed 8-worker pool, coalescing per `enabled`),
/// hammered by the pooled closed-loop clients. Returns elapsed seconds,
/// the samples, and the server's own `stats`.
fn contend_run(args: &Args, enabled: bool, pool_size: usize) -> (f64, Vec<Sample>, Option<Json>) {
    let (name, spec) = &args.graphs[0];
    // Cache off on BOTH runs: the comparison must measure in-window dedup
    // and job batching, not cache-hit replay of a repeated pool.
    let catalog = Arc::new(Catalog::new().with_solve_cache_bytes(0));
    let entry = catalog.load(name, spec).expect("load contend graph");
    let nodes = entry.num_nodes();
    let config = ServerConfig {
        // Fixed so both runs (and baseline vs CI reruns) agree, and so
        // windows can actually gather concurrent requests even on a
        // single-core box, where the worker pool would default to 1 and
        // serialize every window down to one request.
        workers: 8,
        coalesce: CoalesceConfig {
            enabled,
            window: Duration::from_micros(args.contend_window_us),
            ..CoalesceConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = server::start(catalog, config, "127.0.0.1:0").expect("bind contend server");
    let addr = handle.local_addr().to_string();
    let pool = contend_pool(args.seed, nodes, pool_size);

    let clients: Vec<Client> = (0..args.clients)
        .map(|i| {
            Client::connect(addr.as_str())
                .unwrap_or_else(|e| panic!("contend client {i} connect: {e}"))
        })
        .collect();
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(args.clients + 1);
    let (elapsed, samples) = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                let (args, pool, stop, barrier) = (args, pool.as_slice(), &stop, &barrier);
                scope.spawn(move || {
                    contend_client_loop(client, args, name, pool, i as u64, stop, barrier)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        std::thread::sleep(args.duration);
        stop.store(true, Ordering::Relaxed);
        let samples: Vec<Sample> = threads
            .into_iter()
            .flat_map(|t| t.join().expect("contend client thread"))
            .collect();
        (started.elapsed(), samples)
    });

    let mut probe = Client::connect(addr.as_str()).expect("connect probe");
    let stats = probe.stats().ok();
    handle.shutdown();
    (elapsed.as_secs_f64(), samples, stats)
}

/// Requests a server answered by joining an identical execution another
/// group had in flight: its coalescing windows' plus its wire batches'.
fn joined(stats: Option<&Json>) -> u64 {
    ["coalesce", "batch"]
        .into_iter()
        .filter_map(|section| stats?.get(section)?.get("joined")?.as_u64())
        .sum()
}

/// Latency/throughput summary for one contend run.
fn contend_totals(secs: f64, samples: &[Sample]) -> (f64, Json) {
    let (rps, mut totals) = match totals_json(secs, samples) {
        (rps, Json::Obj(m)) => (rps, m),
        _ => unreachable!("totals_json returns an object"),
    };
    let mut lat: Vec<f64> = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    totals.insert("p50_ms".into(), Json::from(quantile_ms(&lat, 0.50)));
    totals.insert("p99_ms".into(), Json::from(quantile_ms(&lat, 0.99)));
    (rps, Json::Obj(totals))
}

/// `--contend`: coalescing-off vs coalescing-on under contention, merged
/// into `BENCH_service.json` as a `contend` section.
fn contend_main(args: &Args) {
    const POOL: usize = 8;
    let (name, spec) = &args.graphs[0];
    eprintln!(
        "loadgen --contend: {} clients, {:?} per run, solvers {:?}, graph {name}={spec}, \
         pool of {POOL} queries, solve cache off",
        args.clients, args.duration, args.solvers,
    );

    eprintln!("loadgen --contend: run 1/2 — coalescing off");
    let (secs_off, samples_off, stats_off) = contend_run(args, false, POOL);
    eprintln!("loadgen --contend: run 2/2 — coalescing on");
    let (secs_on, samples_on, stats_on) = contend_run(args, true, POOL);

    let (rps_off, mut off) = contend_totals(secs_off, &samples_off);
    let (rps_on, mut on) = contend_totals(secs_on, &samples_on);
    let speedup = if rps_off > 0.0 { rps_on / rps_off } else { 0.0 };
    for (totals, stats) in [(&mut off, &stats_off), (&mut on, &stats_on)] {
        if let Json::Obj(m) = totals {
            m.insert("joined".into(), Json::from(joined(stats.as_ref())));
        }
    }
    let coalesce = stats_on.as_ref().and_then(|s| s.get("coalesce").cloned());
    if let (Json::Obj(m), Some(c)) = (&mut on, coalesce) {
        m.insert("coalesce".into(), c);
    }

    println!(
        "{:<18} {:>10} {:>14} {:>9} {:>9}",
        "configuration", "ok reqs", "thruput r/s", "p50 ms", "p99 ms"
    );
    for (label, totals, rps) in [
        ("coalesce off", &off, rps_off),
        ("coalesce on", &on, rps_on),
    ] {
        println!(
            "{label:<18} {:>10} {rps:>14.1} {:>9.3} {:>9.3}",
            totals.get("ok").and_then(Json::as_u64).unwrap_or(0),
            totals.get("p50_ms").and_then(Json::as_f64).unwrap_or(0.0),
            totals.get("p99_ms").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    println!("speedup: {speedup:.2}x");

    let contend = Json::obj([
        (
            "config",
            Json::obj([
                ("clients", Json::from(args.clients)),
                ("duration_secs", Json::from(args.duration.as_secs_f64())),
                (
                    "solvers",
                    Json::Arr(
                        args.solvers
                            .iter()
                            .map(|s| Json::from(s.as_str()))
                            .collect(),
                    ),
                ),
                (
                    "graph",
                    Json::obj([
                        ("name", Json::from(name.as_str())),
                        ("source", Json::from(spec.as_str())),
                    ]),
                ),
                ("pool", Json::from(POOL)),
                ("window_us", Json::from(args.contend_window_us)),
                ("workers", Json::from(8usize)),
                ("solve_cache", Json::from("disabled")),
                (
                    "cores",
                    Json::from(
                        std::thread::available_parallelism()
                            .map(|p| p.get())
                            .unwrap_or(1),
                    ),
                ),
                ("seed", Json::from(args.seed)),
            ]),
        ),
        ("coalesce_off", off),
        ("coalesce_on", on),
        ("speedup", Json::from(speedup)),
    ]);

    // Merge into an existing document (the plain smoke run also writes
    // BENCH_service.json) rather than clobbering it.
    let mut doc = std::fs::read_to_string(&args.out)
        .ok()
        .and_then(|text| mwc_service::json::parse(&text).ok())
        .and_then(|json| match json {
            Json::Obj(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    doc.insert("contend".into(), contend);
    let mut file = std::fs::File::create(&args.out).expect("create output file");
    file.write_all(Json::Obj(doc).to_string().as_bytes())
        .expect("write output");
    file.write_all(b"\n").expect("write output");
    eprintln!(
        "loadgen --contend: off {rps_off:.1} r/s, on {rps_on:.1} r/s, speedup {speedup:.2}x → {}",
        args.out
    );
}

/// Writes the `--metrics-out` / `--slowlog-out` artifacts (when asked)
/// from the server behind `probe`: the Prometheus text exposition
/// verbatim, and the slow-query entries as a JSON array.
fn dump_observability(probe: &mut Client, args: &Args) {
    if let Some(path) = &args.metrics_out {
        let text = probe.metrics_text().expect("metrics exposition");
        std::fs::write(path, text).expect("write --metrics-out");
        eprintln!("loadgen: metrics exposition → {path}");
    }
    if let Some(path) = &args.slowlog_out {
        let entries = probe.slowlog(None).expect("slowlog entries");
        let mut text = Json::Arr(entries).to_string();
        text.push('\n');
        std::fs::write(path, text).expect("write --slowlog-out");
        eprintln!("loadgen: slowlog → {path}");
    }
}

/// `--trace-overhead`: untraced vs per-request-traced throughput on one
/// in-process server, merged into `BENCH_service.json` as a
/// `trace_overhead` section. The solve cache is off so both runs do real
/// pipeline work; the untraced run measures tracing *compiled in but
/// disabled* (one branch per stage plus the always-on stage histograms),
/// the traced run adds span recording and the inline tree on every
/// response.
fn trace_overhead_main(args: &Args) {
    let catalog = Arc::new(Catalog::new().with_solve_cache_bytes(0));
    let mut graphs: Vec<(String, usize)> = Vec::new();
    for (name, spec) in &args.graphs {
        eprint!("loadgen --trace-overhead: loading {name} from {spec} ... ");
        let entry = catalog.load(name, spec).expect("load graph");
        eprintln!("{} nodes, {} edges", entry.num_nodes(), entry.num_edges());
        graphs.push((name.clone(), entry.num_nodes()));
    }
    let config = ServerConfig {
        // Half the default threshold: the closed-loop tail lands in the
        // ring so the --slowlog-out artifact has content to inspect.
        slowlog_threshold: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let handle = server::start(catalog, config, "127.0.0.1:0").expect("bind in-process server");
    let addr = handle.local_addr().to_string();

    eprintln!(
        "loadgen --trace-overhead: {} clients, {:?} per run, solvers {:?}, solve cache off",
        args.clients, args.duration, args.solvers
    );
    eprintln!("loadgen --trace-overhead: run 1/2 — tracing disabled");
    let (secs_off, samples_off) = measure(addr.as_str(), args, &graphs, false);
    eprintln!("loadgen --trace-overhead: run 2/2 — every request traced");
    let (secs_on, samples_on) = measure(addr.as_str(), args, &graphs, true);

    let (rps_off, off) = contend_totals(secs_off, &samples_off);
    let (rps_on, on) = contend_totals(secs_on, &samples_on);
    let speedup = if rps_off > 0.0 { rps_on / rps_off } else { 0.0 };

    println!(
        "{:<18} {:>10} {:>14} {:>9} {:>9}",
        "configuration", "ok reqs", "thruput r/s", "p50 ms", "p99 ms"
    );
    for (label, totals, rps) in [("untraced", &off, rps_off), ("traced", &on, rps_on)] {
        println!(
            "{label:<18} {:>10} {rps:>14.1} {:>9.3} {:>9.3}",
            totals.get("ok").and_then(Json::as_u64).unwrap_or(0),
            totals.get("p50_ms").and_then(Json::as_f64).unwrap_or(0.0),
            totals.get("p99_ms").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    println!("traced/untraced throughput: {speedup:.3}x");

    // One traced solve, rendered: the stage breakdown a human reads when
    // chasing a slow query.
    let mut probe = Client::connect(addr.as_str()).expect("connect probe");
    let (name, nodes) = &graphs[0];
    let q: Vec<NodeId> = vec![0, (*nodes - 1) as NodeId];
    match probe.solve_traced(name, &args.solvers[0], &q, None, None, false) {
        Ok((_, Some(tree))) => {
            println!("sample span tree ({name}, {}):", args.solvers[0]);
            print!("{}", mwc_service::trace::render_span_tree(&tree));
        }
        Ok((_, None)) => eprintln!("loadgen --trace-overhead: server elided the sample trace"),
        Err(e) => eprintln!("loadgen --trace-overhead: sample traced solve failed: {e}"),
    }
    dump_observability(&mut probe, args);
    handle.shutdown();

    let section = Json::obj([
        (
            "config",
            Json::obj([
                ("clients", Json::from(args.clients)),
                ("duration_secs", Json::from(args.duration.as_secs_f64())),
                (
                    "solvers",
                    Json::Arr(
                        args.solvers
                            .iter()
                            .map(|s| Json::from(s.as_str()))
                            .collect(),
                    ),
                ),
                (
                    "graphs",
                    Json::Arr(
                        graphs
                            .iter()
                            .map(|(n, size)| {
                                Json::obj([
                                    ("name", Json::from(n.as_str())),
                                    ("nodes", Json::from(*size)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("solve_cache", Json::from("disabled")),
                ("seed", Json::from(args.seed)),
            ]),
        ),
        ("untraced", off),
        ("traced", on),
        ("speedup", Json::from(speedup)),
    ]);

    // Merge into an existing document (the plain smoke run also writes
    // BENCH_service.json) rather than clobbering it.
    let mut doc = std::fs::read_to_string(&args.out)
        .ok()
        .and_then(|text| mwc_service::json::parse(&text).ok())
        .and_then(|json| match json {
            Json::Obj(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    doc.insert("trace_overhead".into(), section);
    let mut file = std::fs::File::create(&args.out).expect("create output file");
    file.write_all(Json::Obj(doc).to_string().as_bytes())
        .expect("write output");
    file.write_all(b"\n").expect("write output");
    eprintln!(
        "loadgen --trace-overhead: untraced {rps_off:.1} r/s, traced {rps_on:.1} r/s \
         ({speedup:.3}x) → {}",
        args.out
    );
}

/// Soft `ulimit -n` (max open files) for this process, from
/// `/proc/self/limits`.
#[cfg(target_os = "linux")]
fn open_files_soft_limit() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = text.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// (VmRSS in MiB, thread count) for this process, from
/// `/proc/self/status`. The server under test is in-process, so these
/// are the numbers a deployment would see for the whole serving process.
#[cfg(target_os = "linux")]
fn process_snapshot() -> (f64, u64) {
    let mut rss_mb = 0.0;
    let mut threads = 0u64;
    if let Ok(text) = std::fs::read_to_string("/proc/self/status") {
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("VmRSS:") {
                let kb: f64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0.0);
                rss_mb = kb / 1024.0;
            } else if let Some(rest) = line.strip_prefix("Threads:") {
                threads = rest.trim().parse().unwrap_or(0);
            }
        }
    }
    (rss_mb, threads)
}

/// Aggregated result of one open-loop `conn_run`.
#[cfg(target_os = "linux")]
struct ConnRunStats {
    connections: usize,
    accepted: usize,
    sent: u64,
    received: u64,
    errors: u64,
    latencies_ms: Vec<f64>, // sorted
    secs: f64,
    rss_mb: f64,
    process_threads: u64,
    threads_spawned: u64,
    server_connections_live: u64,
}

#[cfg(target_os = "linux")]
impl ConnRunStats {
    fn rps(&self) -> f64 {
        if self.secs > 0.0 {
            self.received as f64 / self.secs
        } else {
            0.0
        }
    }

    fn to_json(&self, transport: &str) -> Json {
        Json::obj([
            ("transport", Json::from(transport)),
            ("connections", Json::from(self.connections)),
            ("accepted", Json::from(self.accepted)),
            ("sent", Json::from(self.sent)),
            ("received", Json::from(self.received)),
            ("errors", Json::from(self.errors)),
            ("throughput_rps", Json::from(self.rps())),
            ("p50_ms", Json::from(quantile_ms(&self.latencies_ms, 0.50))),
            ("p99_ms", Json::from(quantile_ms(&self.latencies_ms, 0.99))),
            ("rss_mb", Json::from(self.rss_mb)),
            ("process_threads", Json::from(self.process_threads)),
            ("threads_spawned", Json::from(self.threads_spawned)),
            (
                "server_connections_live",
                Json::from(self.server_connections_live),
            ),
        ])
    }
}

/// One open-loop run: an in-process karate server on the given
/// transport, `n` client connections each sending one small solve every
/// `1/--conn-rate` seconds *regardless of responses*, all client sockets
/// multiplexed from this one thread on epoll (a thread per client would
/// make the load generator the scaling bottleneck it is measuring).
///
/// Open loop means send times follow the schedule, not the server: a
/// server that stalls keeps receiving requests and its latency tail —
/// not its throughput — shows the damage. Connections ramp in over one
/// period (staggered start offsets), so recorded throughput includes the
/// ramp; the `speedup` ratio divides two runs with the same ramp shape.
#[cfg(target_os = "linux")]
fn conn_run(args: &Args, transport: mwc_service::Transport, n: usize) -> ConnRunStats {
    use std::collections::VecDeque;
    use std::io::Read as _;
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;

    use mwc_service::net::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

    /// Client-side state for one open-loop connection.
    struct C {
        stream: TcpStream,
        rbuf: Vec<u8>,
        wbuf: Vec<u8>,
        inflight: Vec<(u64, Instant)>,
        next_id: u64,
        writable_armed: bool,
        alive: bool,
    }

    fn flush_conn(ep: &Epoll, c: &mut C, token: u64) {
        if !c.alive {
            return;
        }
        while !c.wbuf.is_empty() {
            match c.stream.write(&c.wbuf) {
                Ok(0) => {
                    c.alive = false;
                    break;
                }
                Ok(k) => {
                    c.wbuf.drain(..k);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.alive = false;
                    break;
                }
            }
        }
        if !c.alive {
            ep.delete(c.stream.as_raw_fd());
            return;
        }
        let want_out = !c.wbuf.is_empty();
        if want_out != c.writable_armed {
            c.writable_armed = want_out;
            let interest = EPOLLIN | if want_out { EPOLLOUT } else { 0 };
            let _ = ep.modify(c.stream.as_raw_fd(), token, interest);
        }
    }

    /// First `"id":<digits>` in a response line. The wire id is the only
    /// numeric `id` member responses carry, so a substring scan beats
    /// parsing 25k JSON documents per second on the measurement thread.
    fn response_id(line: &[u8]) -> Option<u64> {
        let text = std::str::from_utf8(line).ok()?;
        let at = text.find("\"id\":")?;
        let digits: &str = &text[at + 5..];
        let end = digits
            .find(|ch: char| !ch.is_ascii_digit())
            .unwrap_or(digits.len());
        digits[..end].parse().ok()
    }

    fn drain_conn(
        ep: &Epoll,
        c: &mut C,
        scratch: &mut [u8],
        received: &mut u64,
        errors: &mut u64,
        latencies_ms: &mut Vec<f64>,
    ) {
        if !c.alive {
            return;
        }
        loop {
            match c.stream.read(scratch) {
                Ok(0) => {
                    c.alive = false;
                    break;
                }
                Ok(k) => c.rbuf.extend_from_slice(&scratch[..k]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.alive = false;
                    break;
                }
            }
        }
        let now = Instant::now();
        let mut start = 0usize;
        while let Some(pos) = c.rbuf[start..].iter().position(|&b| b == b'\n') {
            let line = &c.rbuf[start..start + pos];
            *received += 1;
            if !line
                .windows(b"\"ok\":true".len())
                .any(|w| w == b"\"ok\":true")
            {
                *errors += 1;
            }
            if let Some(id) = response_id(line) {
                if let Some(j) = c.inflight.iter().position(|&(i, _)| i == id) {
                    let (_, sent_at) = c.inflight.swap_remove(j);
                    latencies_ms.push(now.duration_since(sent_at).as_secs_f64() * 1e3);
                }
            }
            start += pos + 1;
        }
        c.rbuf.drain(..start);
        if !c.alive {
            ep.delete(c.stream.as_raw_fd());
        }
    }

    // Two-node karate queries, rotated so the solve cache holds a small
    // working set: the transport, not the solver, is under measurement.
    const QUERIES: [(u32, u32); 4] = [(0, 33), (5, 16), (2, 25), (8, 30)];

    let (_, threads_before) = process_snapshot();
    let catalog = Arc::new(Catalog::new());
    catalog.load("karate", "karate").expect("load karate");
    let config = ServerConfig {
        transport,
        max_connections: n + 32, // the open-loop conns plus the stats probe
        ..ServerConfig::default()
    };
    let handle = server::start(catalog, config, "127.0.0.1:0").expect("bind in-process server");
    let addr = handle.local_addr();

    let ep = Epoll::new().expect("client epoll");
    let mut conns: Vec<C> = Vec::with_capacity(n);
    for i in 0..n {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                stream
                    .set_nonblocking(true)
                    .expect("nonblocking client socket");
                ep.add(stream.as_raw_fd(), conns.len() as u64, EPOLLIN)
                    .expect("register client socket");
                conns.push(C {
                    stream,
                    rbuf: Vec::new(),
                    wbuf: Vec::new(),
                    inflight: Vec::new(),
                    next_id: 1,
                    writable_armed: false,
                    alive: true,
                });
            }
            Err(e) => {
                if i == 0 {
                    panic!("loadgen --connections: first connect failed: {e}");
                }
                eprintln!(
                    "loadgen --connections: connect {i}/{n} failed ({e}); \
                     continuing with {} connections",
                    conns.len()
                );
                break;
            }
        }
    }
    let accepted = conns.len();

    let period = Duration::from_secs_f64(1.0 / args.conn_rate);
    let start = Instant::now();
    let deadline = start + args.duration;
    // Same-period schedule for every connection ⇒ a queue pushed in due
    // order stays sorted: pop the front, send, push back due + period.
    let mut due: VecDeque<(Instant, usize)> = (0..accepted)
        .map(|i| (start + period.mul_f64(i as f64 / accepted.max(1) as f64), i))
        .collect();

    let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
    let mut scratch = vec![0u8; 64 * 1024];
    let (mut sent, mut received, mut errors) = (0u64, 0u64, 0u64);
    let mut latencies_ms: Vec<f64> = Vec::new();

    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        while let Some(&(at, idx)) = due.front() {
            if at > now {
                break;
            }
            due.pop_front();
            due.push_back((at + period, idx));
            let c = &mut conns[idx];
            if !c.alive {
                continue;
            }
            let id = c.next_id;
            c.next_id += 1;
            let (a, b) = QUERIES[id as usize % QUERIES.len()];
            c.wbuf.extend_from_slice(
                format!(
                    "{{\"id\":{id},\"cmd\":\"solve\",\"graph\":\"karate\",\
                     \"solver\":\"ws-q\",\"q\":[{a},{b}]}}\n"
                )
                .as_bytes(),
            );
            c.inflight.push((id, now));
            sent += 1;
            flush_conn(&ep, c, idx as u64);
        }
        let next_due = due.front().map(|&(at, _)| at).unwrap_or(deadline);
        let until = next_due
            .min(deadline)
            .saturating_duration_since(Instant::now());
        let timeout_ms = (until.as_millis() as i32).clamp(1, 100);
        let nev = ep.wait(&mut events, timeout_ms).expect("client epoll wait");
        for ev in &events[..nev] {
            let bits = { ev.events };
            let idx = { ev.data } as usize;
            if bits & EPOLLOUT != 0 {
                flush_conn(&ep, &mut conns[idx], idx as u64);
            }
            if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                drain_conn(
                    &ep,
                    &mut conns[idx],
                    &mut scratch,
                    &mut received,
                    &mut errors,
                    &mut latencies_ms,
                );
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();

    // Snapshot while every connection is still open: this is the
    // at-scale footprint, not the post-teardown one.
    let (rss_mb, threads_now) = process_snapshot();

    // Collect in-flight tails (bounded) so the received count is honest.
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < drain_deadline && conns.iter().any(|c| c.alive && !c.inflight.is_empty())
    {
        let nev = ep.wait(&mut events, 50).expect("client epoll wait");
        for ev in &events[..nev] {
            let bits = { ev.events };
            let idx = { ev.data } as usize;
            if bits & EPOLLOUT != 0 {
                flush_conn(&ep, &mut conns[idx], idx as u64);
            }
            if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                drain_conn(
                    &ep,
                    &mut conns[idx],
                    &mut scratch,
                    &mut received,
                    &mut errors,
                    &mut latencies_ms,
                );
            }
        }
    }

    let server_connections_live = Client::connect(addr)
        .ok()
        .and_then(|mut probe| probe.stats().ok())
        .and_then(|stats| {
            stats
                .get("process")
                .and_then(|p| p.get("connections_live"))
                .and_then(Json::as_u64)
        })
        .unwrap_or(0);

    drop(conns); // close every client socket before asking for the drain
    drop(ep);
    handle.shutdown();

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    ConnRunStats {
        connections: n,
        accepted,
        sent,
        received,
        errors,
        latencies_ms,
        secs,
        rss_mb,
        process_threads: threads_now,
        threads_spawned: threads_now.saturating_sub(threads_before),
        server_connections_live,
    }
}

/// `--connections`: threads-at-64 vs epoll-at-N open-loop comparison,
/// merged into `BENCH_service.json` as a `connections` section.
///
/// The gated `speedup` is the **per-connection sustained-rate ratio**
/// `(epoll_rps / N) / (threads_rps / 64)`: ≈1.0 whenever the event loop
/// holds the open-loop schedule as well as thread-per-connection does,
/// and — unlike a raw throughput ratio — independent of N, so the
/// committed 10k-connection baseline gates CI smokes at any scale.
#[cfg(target_os = "linux")]
fn connections_main(args: &Args) {
    let requested = args.connections;
    let mut n = requested;
    if let Some(soft) = open_files_soft_limit() {
        // Each loopback connection costs two fds in this process (the
        // client socket and the server's accepted socket), plus a margin
        // for epoll/eventfd instances, the probe, and output files.
        let budget = (soft.saturating_sub(128) / 2) as usize;
        if n > budget {
            eprintln!(
                "loadgen --connections: {requested} connections requested but \
                 `ulimit -n` is {soft}; clamping to {budget} \
                 (two fds per loopback connection)"
            );
            n = budget;
        }
    }
    assert!(
        n >= 2,
        "--connections needs at least 2 after the ulimit clamp"
    );
    let threads_conns = n.min(64);

    eprintln!(
        "loadgen --connections: open loop, {:.2} r/s per connection, {:?} per run",
        args.conn_rate, args.duration
    );
    eprintln!("loadgen --connections: run 1/2 — threads transport, {threads_conns} connections");
    let threads_run = conn_run(args, mwc_service::Transport::Threads, threads_conns);
    eprintln!("loadgen --connections: run 2/2 — epoll transport, {n} connections");
    let epoll_run = conn_run(args, mwc_service::Transport::Epoll, n);

    let per_conn = |run: &ConnRunStats| {
        if run.connections > 0 {
            run.rps() / run.connections as f64
        } else {
            0.0
        }
    };
    let speedup = if per_conn(&threads_run) > 0.0 {
        per_conn(&epoll_run) / per_conn(&threads_run)
    } else {
        0.0
    };

    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>9} {:>9} {:>9} {:>8}",
        "transport", "conns", "received", "thruput r/s", "p50 ms", "p99 ms", "rss MiB", "threads"
    );
    for (label, run) in [("threads", &threads_run), ("epoll", &epoll_run)] {
        println!(
            "{label:<10} {:>8} {:>10} {:>12.1} {:>9.3} {:>9.3} {:>9.1} {:>8}",
            run.accepted,
            run.received,
            run.rps(),
            quantile_ms(&run.latencies_ms, 0.50),
            quantile_ms(&run.latencies_ms, 0.99),
            run.rss_mb,
            run.process_threads,
        );
    }
    println!("per-connection sustained-rate ratio (epoll / threads): {speedup:.3}x");

    let section = Json::obj([
        (
            "config",
            Json::obj([
                ("connections_requested", Json::from(requested)),
                ("connections", Json::from(n)),
                ("threads_connections", Json::from(threads_conns)),
                ("rate_per_conn_rps", Json::from(args.conn_rate)),
                ("duration_secs", Json::from(args.duration.as_secs_f64())),
                ("graph", Json::from("karate")),
                ("solver", Json::from("ws-q")),
                (
                    "cores",
                    Json::from(
                        std::thread::available_parallelism()
                            .map(|p| p.get())
                            .unwrap_or(1),
                    ),
                ),
                ("seed", Json::from(args.seed)),
            ]),
        ),
        ("threads", threads_run.to_json("threads")),
        ("epoll", epoll_run.to_json("epoll")),
        ("speedup", Json::from(speedup)),
    ]);

    // Merge into an existing document (the plain smoke run also writes
    // BENCH_service.json) rather than clobbering it.
    let mut doc = std::fs::read_to_string(&args.out)
        .ok()
        .and_then(|text| mwc_service::json::parse(&text).ok())
        .and_then(|json| match json {
            Json::Obj(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    doc.insert("connections".into(), section);
    let mut file = std::fs::File::create(&args.out).expect("create output file");
    file.write_all(Json::Obj(doc).to_string().as_bytes())
        .expect("write output");
    file.write_all(b"\n").expect("write output");
    eprintln!(
        "loadgen --connections: threads {:.1} r/s @ {}, epoll {:.1} r/s @ {}, \
         per-conn ratio {speedup:.3}x → {}",
        threads_run.rps(),
        threads_run.accepted,
        epoll_run.rps(),
        epoll_run.accepted,
        args.out
    );
}

#[cfg(not(target_os = "linux"))]
fn connections_main(_args: &Args) {
    eprintln!(
        "loadgen --connections needs the epoll client multiplexer and is linux-only \
         (the epoll transport itself is too)"
    );
    std::process::exit(2);
}
