//! `kernel` — micro-benchmark of the distance kernel, emitting
//! `BENCH_kernel.json`.
//!
//! Nine comparisons, each isolating one layer of the kernel work:
//!
//! 1. **per-source vs multi-source BFS** — 64 single-source sweeps
//!    against one 64-lane [`MsBfsWorkspace`] sweep (same sources);
//! 2. **plain vs direction-optimizing BFS** — top-down only against the
//!    α/β-switching kernel, same sources;
//! 3. **original vs degree-ordered layout** — the same multi-source
//!    sweep on the as-generated CSR and on
//!    [`Graph::degree_ordered`](mwc_graph::Graph::degree_ordered)'s
//!    hub-first relabeling;
//! 4. **cache-cold vs cache-hot solve** — `ws-q` engine solves over a
//!    query workload, first pass cold, second pass replayed from the
//!    engine's solve cache (p50 of each);
//! 5. **per-root vs batched `ws-q` root sweep** (`wsq_batched`) — the
//!    BFS work Algorithm 1 pays before its λ sweeps for a |Q| = 16
//!    query: a standalone feasibility BFS plus one distance+parent BFS
//!    per root (the pre-batching solver) against
//!    [`batched_root_distances`], the unweighted kernel of the engine's
//!    group prefetch (⌈|Q|/64⌉ shared CSR sweeps; feasibility rides
//!    lane 0, and parents are derived on demand from the distances, so
//!    the batched side pays neither up front);
//! 6. **sequential vs batched oracle construction** (`oracle_build`) —
//!    64 hub landmarks built by `k` sequential BFS runs
//!    ([`LandmarkOracle::build_sequential`]) against the one-sweep
//!    multi-source build ([`LandmarkOracle::build`]);
//! 7. **per-source Dijkstra vs batched delta-stepping**
//!    (`delta_stepping`) — the same 64 sources on the weighted twin of
//!    the bench graph (`wba:` hash weights), 64 pooled
//!    [`DijkstraWorkspace`](mwc_graph::traversal::dijkstra::DijkstraWorkspace)
//!    runs against one
//!    [`MsDeltaWorkspace`](mwc_graph::traversal::delta::MsDeltaWorkspace)
//!    bucket sweep, distances asserted bit-identical before timing;
//! 8. **sequential vs batched weighted oracle** (`weighted_oracle`) —
//!    the `oracle_build` comparison on the weighted graph, where both
//!    sides dispatch to the delta-stepping kernels;
//! 9. **Mehlhorn Steiner call vs BFS** (`steiner`) — p50 of one
//!    ws-q-reweighted [`mehlhorn_steiner_with`] call (every `(root, λ)`
//!    pair of a |Q| = 8 query, one workspace, as a root sweep runs them)
//!    against p50 of one BFS on the same graph. `speedup` is bfs/steiner,
//!    a scale-invariant ratio the regression gate can hold on any host.
//!
//! ```text
//! cargo run --release -p mwc-bench --bin kernel -- \
//!     [--scale quick|medium|full] [--seed N] [--out BENCH_kernel.json]
//! ```
//!
//! `--scale quick` is the CI smoke mode (a few seconds); `medium`/`full`
//! grow the Barabási–Albert bench graph. Regression gating lives in the
//! `regress` bin, which compares this output against the committed
//! `BENCH_kernel.json` with a tolerance band instead of fixed factors.

use std::io::Write as _;
use std::time::Instant;

use mwc_bench::{Scale, Timer};
use mwc_core::wsq::{batched_root_distances, lambda_grid};
use mwc_core::{mehlhorn_steiner_with, QueryEngine, QueryOptions, SteinerWorkspace, WsqConfig};
use mwc_graph::oracle::{LandmarkOracle, LandmarkStrategy};
use mwc_graph::traversal::bfs::{BfsWorkspace, MsBfsWorkspace, WorkspacePool, MS_BFS_LANES};
use mwc_graph::NodeId;
use mwc_service::Json;
use rand::{Rng, SeedableRng};

/// Query size of the `wsq_batched` comparison (the paper's Algorithm 1
/// runs one BFS per root r ∈ Q; 16 roots is the acceptance workload).
const WSQ_BATCH_ROOTS: usize = 16;

/// Landmark count of the `oracle_build` comparison — one full 64-lane
/// sweep on the batched side.
const ORACLE_LANDMARKS: usize = 64;

/// Query size of the `steiner` section (the cold ws-q benchmark's |Q|).
const STEINER_QUERY: usize = 8;

struct Args {
    scale: Scale,
    seed: u64,
    out: String,
}

fn parse_cli() -> Args {
    let mut out = Args {
        scale: Scale::Quick,
        seed: 42,
        out: "BENCH_kernel.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {arg}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--scale" => {
                let v = value();
                out.scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("bad scale {v:?}");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                out.seed = value().parse().unwrap_or_else(|_| {
                    eprintln!("bad seed");
                    std::process::exit(2);
                })
            }
            "--out" => out.out = value(),
            _ => {
                eprintln!("usage: kernel [--scale quick|medium|full] [--seed N] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    out
}

/// Best-of-`reps` wall-clock for `f` (keeps the numbers stable against
/// scheduler noise without long runs).
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn comparison(label: &str, baseline_ms: f64, kernel_ms: f64) -> (String, Json) {
    println!(
        "{label:<28} baseline {baseline_ms:>9.3} ms   kernel {kernel_ms:>9.3} ms   speedup {:>5.2}x",
        baseline_ms / kernel_ms
    );
    (
        label.to_string(),
        Json::obj([
            ("baseline_ms", Json::from(baseline_ms)),
            ("kernel_ms", Json::from(kernel_ms)),
            ("speedup", Json::from(baseline_ms / kernel_ms)),
        ]),
    )
}

fn main() {
    let args = parse_cli();
    let (n, k) = args.scale.pick((20_000, 4), (100_000, 8), (400_000, 8));
    let reps = args.scale.pick(3, 3, 2);
    let spec = format!("ba:{n}x{k}");

    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
    let timer = Timer::start();
    // Built through the serving catalog's own spec parser, so the bench
    // graph is byte-identical to what `mwc-server --graph x=ba:…` serves.
    let g = mwc_service::GraphSource::parse(&spec)
        .expect("valid ba spec")
        .build()
        .expect("deterministic build");
    eprintln!(
        "kernel: {spec} built in {:.2}s ({} nodes, {} edges)",
        timer.seconds(),
        g.num_nodes(),
        g.num_edges()
    );

    let sources: Vec<NodeId> = (0..MS_BFS_LANES)
        .map(|_| rng.gen_range(0..n as NodeId))
        .collect();

    // 1. Per-source vs multi-source batched BFS, same 64 sources.
    let mut ws = BfsWorkspace::new();
    let per_source_ms = best_of(reps, || {
        for &s in &sources {
            ws.run(&g, s);
        }
    });
    let mut msws = MsBfsWorkspace::new();
    let multi_source_ms = best_of(reps, || msws.run(&g, &sources));
    let bfs_cmp = comparison("bfs:multi_source", per_source_ms, multi_source_ms);

    // 2. Plain vs direction-optimizing single-source BFS.
    let plain_ms = best_of(reps, || {
        for &s in &sources[..8] {
            ws.run(&g, s);
        }
    });
    let dirop_ms = best_of(reps, || {
        for &s in &sources[..8] {
            ws.run_auto(&g, s);
        }
    });
    let direction_cmp = comparison("bfs:direction_optimizing", plain_ms, dirop_ms);

    // 3. Arbitrary vs degree-ordered layout. Barabási–Albert generation
    //    already places hubs at low ids, so to measure layout (and only
    //    layout) we first scramble the labels — the shape real edge-list
    //    loads arrive in — then compare the scrambled CSR against its
    //    degree-ordered relabeling. Same logical graph, same logical
    //    sources, different memory layout.
    let scramble: Vec<NodeId> = {
        let mut p: Vec<NodeId> = (0..n as NodeId).collect();
        for i in (1..n).rev() {
            p.swap(i, rng.gen_range(0..=i));
        }
        p
    };
    let scrambled_edges: Vec<(NodeId, NodeId)> = g
        .edges()
        .map(|(u, v)| (scramble[u as usize], scramble[v as usize]))
        .collect();
    let scrambled = mwc_graph::Graph::from_edges(n, &scrambled_edges).expect("relabel");
    let scrambled_sources: Vec<NodeId> = sources.iter().map(|&s| scramble[s as usize]).collect();
    let (ordered, perm) = scrambled.degree_ordered();
    let ordered_sources = perm.map_to_new(&scrambled_sources);
    let original_layout_ms = best_of(reps, || msws.run(&scrambled, &scrambled_sources));
    let ordered_layout_ms = best_of(reps, || msws.run(&ordered, &ordered_sources));
    let layout_cmp = comparison(
        "layout:degree_ordered",
        original_layout_ms,
        ordered_layout_ms,
    );

    // 5. Per-root vs batched ws-q root sweep: everything Algorithm 1
    //    pays in BFS before the λ sweeps, for a |Q| = 16 query. The
    //    baseline is the pre-batching solver's work — one standalone
    //    feasibility BFS from q[0] plus one distance+parent BFS per root;
    //    the kernel side is the group prefetch's own helper (shared
    //    multi-source sweeps plus the per-root gather — feasibility rides
    //    lane 0 for free, and parent trees are derived on demand later).
    let wsq_roots: Vec<NodeId> = {
        let mut roots: Vec<NodeId> = Vec::new();
        while roots.len() < WSQ_BATCH_ROOTS {
            let v = rng.gen_range(0..n as NodeId);
            if !roots.contains(&v) {
                roots.push(v);
            }
        }
        roots.sort_unstable();
        roots
    };
    // These two sections feed the CI regression gate, so they get extra
    // repetitions: the runs are milliseconds each, and best-of over a
    // larger sample keeps the committed speedups stable against
    // scheduler noise.
    let gate_reps = reps.max(7);
    let per_root_ms = best_of(gate_reps, || {
        ws.run(&g, wsq_roots[0]); // the standalone feasibility pass
        for &r in &wsq_roots {
            ws.run_with_parents(&g, r);
        }
    });
    let batched_ms = best_of(gate_reps, || {
        batched_root_distances(&g, &wsq_roots, &mut msws);
    });
    let wsq_cmp = comparison("wsq:batched_root_sweep", per_root_ms, batched_ms);

    // 6. Sequential vs batched landmark-oracle construction: 64 hub
    //    landmarks, k BFS runs against one 64-lane multi-source sweep.
    let sequential_build_ms = best_of(gate_reps, || {
        let mut r = rand::rngs::StdRng::seed_from_u64(args.seed);
        LandmarkOracle::build_sequential(
            &g,
            ORACLE_LANDMARKS,
            LandmarkStrategy::HighestDegree,
            &mut r,
        );
    });
    let batched_build_ms = best_of(gate_reps, || {
        let mut r = rand::rngs::StdRng::seed_from_u64(args.seed);
        LandmarkOracle::build(
            &g,
            ORACLE_LANDMARKS,
            LandmarkStrategy::HighestDegree,
            &mut r,
        );
    });
    let oracle_cmp = comparison(
        "oracle:batched_build",
        sequential_build_ms,
        batched_build_ms,
    );

    // 7. Per-source Dijkstra vs batched delta-stepping on the weighted
    //    twin of the bench graph (same topology, `wba:` hash weights).
    //    Both sides lease through the WorkspacePool, like the serving
    //    path does; distances are pinned bit-identical before timing so
    //    the speedup can never come from a wrong answer.
    let wspec = format!("wba:{n}x{k}");
    let wg = mwc_service::GraphSource::parse(&wspec)
        .expect("valid wba spec")
        .build()
        .expect("deterministic weighted build");
    let pool = WorkspacePool::new();
    {
        let mut dij = pool.lease_dijkstra();
        let mut msd = pool.lease_multi_delta();
        msd.run(&wg, &sources);
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(
                msd.lane_distances(lane),
                dij.run(&wg, s),
                "delta-stepping lane {lane} disagrees with Dijkstra from {s}"
            );
        }
    }
    let per_source_dijkstra_ms = best_of(gate_reps, || {
        let mut dij = pool.lease_dijkstra();
        for &s in &sources {
            dij.run(&wg, s);
        }
    });
    let batched_delta_ms = best_of(gate_reps, || {
        let mut msd = pool.lease_multi_delta();
        msd.run(&wg, &sources);
    });
    let delta_cmp = comparison(
        "weighted:delta_stepping",
        per_source_dijkstra_ms,
        batched_delta_ms,
    );

    // 8. Sequential vs batched oracle construction on the weighted
    //    graph — both sides dispatch to the delta-stepping kernels.
    let wseq_build_ms = best_of(gate_reps, || {
        let mut r = rand::rngs::StdRng::seed_from_u64(args.seed);
        LandmarkOracle::build_sequential(
            &wg,
            ORACLE_LANDMARKS,
            LandmarkStrategy::HighestDegree,
            &mut r,
        );
    });
    let wbatched_build_ms = best_of(gate_reps, || {
        let mut r = rand::rngs::StdRng::seed_from_u64(args.seed);
        LandmarkOracle::build(
            &wg,
            ORACLE_LANDMARKS,
            LandmarkStrategy::HighestDegree,
            &mut r,
        );
    });
    let weighted_oracle_cmp = comparison("weighted:oracle_build", wseq_build_ms, wbatched_build_ms);

    // 9. One ws-q Steiner call vs one BFS on the same graph. The Steiner
    //    side times every (root, λ) call of a |Q| = 8 query through one
    //    workspace; the BFS side times one BFS per root, as often.
    let steiner_q: Vec<NodeId> = wsq_roots[..STEINER_QUERY].to_vec();
    let lambdas = lambda_grid(n, WsqConfig::default().beta);
    let root_dists: Vec<Vec<u32>> = steiner_q.iter().map(|&r| ws.run(&g, r).to_vec()).collect();
    let mut steiner_ws = SteinerWorkspace::new();
    let mut steiner_lat = Vec::new();
    let mut bfs_lat = Vec::new();
    for _ in 0..gate_reps {
        for dist_r in &root_dists {
            for &lambda in &lambdas {
                let weight = |u: NodeId, v: NodeId| {
                    lambda + dist_r[u as usize].max(dist_r[v as usize]) as f64 / lambda
                };
                let t = Instant::now();
                let tree = mehlhorn_steiner_with(&mut steiner_ws, &g, &steiner_q, weight)
                    .expect("a BA graph is connected");
                steiner_lat.push(t.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(tree);
            }
        }
        for _ in &lambdas {
            for &r in &steiner_q {
                let t = Instant::now();
                std::hint::black_box(ws.run(&g, r));
                bfs_lat.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    steiner_lat.sort_by(|a, b| a.total_cmp(b));
    bfs_lat.sort_by(|a, b| a.total_cmp(b));
    let (mehlhorn_p50, bfs_p50) = (quantile_ms(&steiner_lat, 0.5), quantile_ms(&bfs_lat, 0.5));
    println!(
        "{:<28} mehlhorn p50 {mehlhorn_p50:>9.3} ms   bfs p50 {bfs_p50:>9.3} ms   speedup {:>5.2}x",
        "steiner:mehlhorn_vs_bfs",
        bfs_p50 / mehlhorn_p50
    );

    // 4. Cache-cold vs cache-hot solve latency on a fixed query workload.
    let engine = QueryEngine::new(&g);
    let queries: Vec<Vec<NodeId>> = (0..args.scale.pick(24, 32, 32))
        .map(|_| {
            let size = rng.gen_range(2..=4usize);
            (0..size).map(|_| rng.gen_range(0..n as NodeId)).collect()
        })
        .collect();
    let solve_pass = |engine: &QueryEngine<'_>, opts: &QueryOptions| -> Vec<f64> {
        let mut lat: Vec<f64> = queries
            .iter()
            .filter_map(|q| {
                let t = Instant::now();
                engine.solve_with("ws-q", q, opts).ok()?;
                Some(t.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        lat.sort_by(|a, b| a.total_cmp(b));
        lat
    };
    let cold = solve_pass(&engine, &QueryOptions::default());
    let hot = solve_pass(&engine, &QueryOptions::default());
    let (cold_p50, hot_p50) = (quantile_ms(&cold, 0.5), quantile_ms(&hot, 0.5));
    let cache_stats = engine.cache_stats();
    println!(
        "{:<28} cold p50 {cold_p50:>9.3} ms   hot p50 {hot_p50:>9.3} ms   ({} hits / {} misses)",
        "solve:cache", cache_stats.hits, cache_stats.misses
    );

    let doc = Json::obj([
        (
            "config",
            Json::obj([
                (
                    "scale",
                    Json::from(match args.scale {
                        Scale::Quick => "quick",
                        Scale::Medium => "medium",
                        Scale::Full => "full",
                    }),
                ),
                ("graph", Json::from(spec.as_str())),
                ("weighted_graph", Json::from(wspec.as_str())),
                ("nodes", Json::from(g.num_nodes())),
                ("edges", Json::from(g.num_edges())),
                ("sources", Json::from(MS_BFS_LANES)),
                ("queries", Json::from(queries.len())),
                ("wsq_batch_roots", Json::from(WSQ_BATCH_ROOTS)),
                ("oracle_landmarks", Json::from(ORACLE_LANDMARKS)),
                ("seed", Json::from(args.seed)),
            ]),
        ),
        ("bfs_multi_source", bfs_cmp.1),
        ("bfs_direction_optimizing", direction_cmp.1),
        ("layout_degree_ordered", layout_cmp.1),
        ("wsq_batched", wsq_cmp.1),
        ("oracle_build", oracle_cmp.1),
        ("delta_stepping", delta_cmp.1),
        ("weighted_oracle", weighted_oracle_cmp.1),
        (
            "steiner",
            Json::obj([
                ("mehlhorn_p50_ms", Json::from(mehlhorn_p50)),
                ("bfs_p50_ms", Json::from(bfs_p50)),
                ("speedup", Json::from(bfs_p50 / mehlhorn_p50)),
                ("query", Json::from(STEINER_QUERY)),
                ("lambdas", Json::from(lambdas.len())),
            ]),
        ),
        (
            "solve_cache",
            Json::obj([
                ("cold_p50_ms", Json::from(cold_p50)),
                ("hot_p50_ms", Json::from(hot_p50)),
                ("cold_mean_ms", Json::from(mean(&cold))),
                ("hot_mean_ms", Json::from(mean(&hot))),
                ("speedup_p50", Json::from(cold_p50 / hot_p50.max(1e-9))),
                (
                    "stats",
                    Json::obj([
                        ("hits", Json::from(cache_stats.hits)),
                        ("misses", Json::from(cache_stats.misses)),
                        ("evictions", Json::from(cache_stats.evictions)),
                        ("entries", Json::from(cache_stats.entries)),
                        ("capacity", Json::from(cache_stats.capacity)),
                    ]),
                ),
            ]),
        ),
    ]);

    let mut file = std::fs::File::create(&args.out).expect("create output file");
    file.write_all(doc.to_string().as_bytes())
        .expect("write output");
    file.write_all(b"\n").expect("write output");
    eprintln!("kernel: wrote {}", args.out);
    // Factor gating moved to the `regress` bin: CI compares this run's
    // sections against the committed BENCH_kernel.json with a tolerance
    // band, which catches *regressions from the recorded state* instead
    // of asserting fixed universal factors here. One semantic invariant
    // stays, because regress cannot see it (hot p50 sits below its noise
    // floor): a cache hit must beat a full solve on any hardware.
    assert!(
        hot_p50 < cold_p50,
        "cache-hot p50 ({hot_p50:.3} ms) should beat cache-cold p50 ({cold_p50:.3} ms)"
    );
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
