//! Engine/legacy parity: `QueryEngine` must serve exactly what the
//! historical per-method entry points produced.
//!
//! Two layers:
//!
//! * a deterministic 100-query batch on the karate club pushed through
//!   *every* registered solver name, compared connector-for-connector
//!   against the legacy direct calls (the API-migration acceptance
//!   check), plus batch-vs-sequential determinism under a fixed seed;
//! * proptest properties on random connected graphs for the solvers whose
//!   legacy entry points matter most (`ws-q`, `ws-q-approx`, exact-small,
//!   and each baseline).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use wiener_connector::baselines;
use wiener_connector::core::engine::ExactSolver;
use wiener_connector::core::exact::{exact_minimum, ExactConfig};
use wiener_connector::core::local_search::{refine, LocalSearchConfig};
use wiener_connector::core::wsq_approx::{ApproxWienerSteiner, ApproxWsqConfig};
use wiener_connector::core::{minimum_wiener_connector, Connector, QueryEngine, QueryOptions};
use wiener_connector::graph::connectivity::largest_component_graph;
use wiener_connector::graph::generators::karate::karate_club;
use wiener_connector::graph::{Graph, NodeId};

/// Budgeted exact config so 100 enumerations stay fast; the same config is
/// used on both sides of the comparison.
fn budgeted_exact() -> ExactConfig {
    ExactConfig {
        max_subsets: 100_000,
    }
}

/// `n` random queries of 2–4 distinct vertices, from a fixed seed.
fn karate_queries(n: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let size = rng.gen_range(2..=4usize);
            let mut q: Vec<NodeId> = Vec::new();
            while q.len() < size {
                let v = rng.gen_range(0..34u32);
                if !q.contains(&v) {
                    q.push(v);
                }
            }
            q
        })
        .collect()
}

/// The legacy (pre-engine) result for each registry name.
fn legacy_solve(g: &Graph, engine: &QueryEngine<'_>, name: &str, q: &[NodeId]) -> (Connector, u64) {
    match name {
        "ws-q" => {
            let sol = minimum_wiener_connector(g, q).unwrap();
            (sol.connector, sol.wiener_index)
        }
        "ws-q-approx" => {
            // Same oracle as the engine's shared one → identical paths.
            let solver = ApproxWienerSteiner::with_oracle(
                g,
                engine.landmark_oracle().clone(),
                ApproxWsqConfig::default(),
            );
            let sol = solver.solve(q).unwrap();
            (sol.connector, sol.wiener_index)
        }
        "ws-q+ls" => {
            let sol = minimum_wiener_connector(g, q).unwrap();
            let (c, w) = refine(g, q, &sol.connector, &LocalSearchConfig::default()).unwrap();
            (c, w)
        }
        "exact" => {
            let out = exact_minimum(g, q, None, &budgeted_exact()).unwrap();
            (out.connector, out.wiener_index)
        }
        "ctp" => wiener(g, baselines::ctp(g, q).unwrap()),
        "cps" => wiener(g, baselines::cps(g, q).unwrap()),
        "ppr" => wiener(g, baselines::ppr(g, q).unwrap()),
        "st" => wiener(g, baselines::steiner_tree_baseline(g, q).unwrap()),
        "greedy-wiener" => wiener(g, baselines::greedy_wiener(g, q).unwrap()),
        other => panic!("no legacy mapping for solver {other:?}"),
    }
}

fn wiener(g: &Graph, c: Connector) -> (Connector, u64) {
    let w = c.wiener_index(g).unwrap();
    (c, w)
}

/// The acceptance check: a 100-query batch through every registered
/// solver name, identical to the legacy per-call API.
#[test]
fn batch_of_100_matches_legacy_for_every_registered_solver() {
    let g = karate_club();
    let mut engine = wiener_connector::engine(&g);
    engine.register(Box::new(ExactSolver {
        config: budgeted_exact(),
    }));
    let queries = karate_queries(100, 0xC0FFEE);

    let names: Vec<String> = engine
        .solver_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(names.len(), 9, "expected the full method table: {names:?}");
    for name in &names {
        let batch = engine.solve_batch(name, &queries, &QueryOptions::default());
        assert_eq!(batch.len(), queries.len());
        for (q, report) in queries.iter().zip(batch) {
            let report = report.unwrap_or_else(|e| panic!("{name} failed on {q:?}: {e}"));
            let (legacy_c, legacy_w) = legacy_solve(&g, &engine, name, q);
            assert_eq!(
                report.connector.vertices(),
                legacy_c.vertices(),
                "{name} connector diverged on {q:?}"
            );
            assert_eq!(report.wiener_index, legacy_w, "{name} W diverged on {q:?}");
        }
    }
}

/// Cache-on vs cache-off parity for every registered solver: a cached
/// replay and a `no_cache` fresh solve must produce the same
/// `SolveReport` (connector, objective, diagnostics) as the cold solve —
/// the solve cache is a latency optimization, never a semantic one.
#[test]
fn cache_on_and_off_reports_agree_for_every_registered_solver() {
    let g = karate_club();
    let mut engine = wiener_connector::engine(&g);
    engine.register(Box::new(ExactSolver {
        config: budgeted_exact(),
    }));
    let queries = karate_queries(10, 0xCAC4E);
    let names: Vec<String> = engine
        .solver_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(names.len(), 9, "expected the full method table: {names:?}");
    let no_cache = QueryOptions::new().no_cache();
    for name in &names {
        for q in &queries {
            let cold = engine.solve(name, q).unwrap();
            let hot = engine.solve(name, q).unwrap();
            let fresh = engine.solve_with(name, q, &no_cache).unwrap();
            for (label, other) in [("cached", &hot), ("no_cache", &fresh)] {
                assert_eq!(
                    cold.connector.vertices(),
                    other.connector.vertices(),
                    "{name} {label} connector diverged on {q:?}"
                );
                assert_eq!(cold.wiener_index, other.wiener_index, "{name} on {q:?}");
                assert_eq!(cold.candidates, other.candidates, "{name} on {q:?}");
                assert_eq!(cold.optimal, other.optimal, "{name} on {q:?}");
            }
        }
    }
    let stats = engine.cache_stats();
    assert!(stats.hits >= (names.len() * queries.len()) as u64);
}

/// Engine-level batching parity: one `solve_group` of 100 random `ws-q`
/// queries, whose prefetch packs their roots into shared multi-source
/// sweeps, returns the connectors of 100 lone `solve_with` calls, whose
/// sweep workers compute every root's distances themselves — on a graph
/// large enough that both the prefetch and the direction-optimizing BFS
/// genuinely engage. Where root distances come from is a kernel choice,
/// never a semantic one.
#[test]
fn wsq_batching_on_and_off_return_identical_connectors_for_100_queries() {
    use rand::{Rng, SeedableRng};
    use wiener_connector::core::GroupQuery;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBA7C4);
    let g = wiener_connector::graph::generators::barabasi_albert(500, 3, &mut rng);
    let queries: Vec<Vec<NodeId>> = (0..100)
        .map(|_| {
            let size = rng.gen_range(2..=5usize);
            let mut q: Vec<NodeId> = Vec::new();
            while q.len() < size {
                let v = rng.gen_range(0..500u32);
                if !q.contains(&v) {
                    q.push(v);
                }
            }
            q
        })
        .collect();
    let group: Vec<GroupQuery> = queries
        .iter()
        .map(|q| GroupQuery::new("ws-q", q.clone(), QueryOptions::default()))
        .collect();
    let on = QueryEngine::new(&g).solve_group(&group);
    assert!(on.stats.shared_sweeps >= 1, "the group prefetched no roots");
    let off_engine = QueryEngine::new(&g);
    for (q, a) in queries.iter().zip(&on.results) {
        let a = a.as_ref().unwrap();
        let b = off_engine
            .solve_with("ws-q", q, &QueryOptions::default())
            .unwrap();
        assert_eq!(
            a.connector.vertices(),
            b.connector.vertices(),
            "batching changed the connector on {q:?}"
        );
        assert_eq!(a.wiener_index, b.wiener_index, "on {q:?}");
        assert_eq!(a.candidates, b.candidates, "on {q:?}");
    }
}

/// Batch-vs-sequential determinism under a fixed seed: the same batch
/// solved twice, and query-by-query, yields identical results.
#[test]
fn batch_is_deterministic_and_matches_sequential() {
    let g = karate_club();
    let engine = wiener_connector::engine(&g);
    let queries = karate_queries(100, 42);
    let opts = QueryOptions::default();

    let first = engine.solve_batch("ws-q", &queries, &opts);
    let second = engine.solve_batch("ws-q", &queries, &opts);
    for ((q, a), b) in queries.iter().zip(&first).zip(&second) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(
            a.connector.vertices(),
            b.connector.vertices(),
            "rerun diverged on {q:?}"
        );
        assert_eq!(a.wiener_index, b.wiener_index);
        let seq = engine.solve("ws-q", q).unwrap();
        assert_eq!(a.connector.vertices(), seq.connector.vertices());
        assert_eq!(a.wiener_index, seq.wiener_index);
    }
}

/// Strategy: a connected graph of 8–40 vertices plus a query of 2–5
/// distinct vertices (mirrors `tests/property_tests.rs`).
fn graph_and_query() -> impl Strategy<Value = (Graph, Vec<NodeId>)> {
    (8usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for v in 1..n as NodeId {
            edges.push((rng.gen_range(0..v), v));
        }
        for _ in 0..rng.gen_range(0..n) {
            edges.push((rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId)));
        }
        let g = largest_component_graph(&Graph::from_edges(n, &edges).unwrap())
            .unwrap()
            .0;
        let q_size = rng.gen_range(2..=5.min(g.num_nodes()));
        let mut q: Vec<NodeId> = Vec::new();
        while q.len() < q_size {
            let v = rng.gen_range(0..g.num_nodes() as NodeId);
            if !q.contains(&v) {
                q.push(v);
            }
        }
        (g, q)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `engine.solve("ws-q")` is the legacy `minimum_wiener_connector`.
    #[test]
    fn engine_wsq_matches_legacy((g, q) in graph_and_query()) {
        let engine = QueryEngine::new(&g);
        let report = engine.solve("ws-q", &q).unwrap();
        let legacy = minimum_wiener_connector(&g, &q).unwrap();
        prop_assert_eq!(report.connector.vertices(), legacy.connector.vertices());
        prop_assert_eq!(report.wiener_index, legacy.wiener_index);
    }

    /// `engine.solve("ws-q-approx")` equals the legacy approximate solver
    /// run against the engine's own oracle.
    #[test]
    fn engine_approx_matches_legacy((g, q) in graph_and_query()) {
        let engine = QueryEngine::new(&g);
        let report = engine.solve("ws-q-approx", &q).unwrap();
        let legacy = ApproxWienerSteiner::with_oracle(
            &g,
            engine.landmark_oracle().clone(),
            ApproxWsqConfig::default(),
        )
        .solve(&q)
        .unwrap();
        prop_assert_eq!(report.connector.vertices(), legacy.connector.vertices());
        prop_assert_eq!(report.wiener_index, legacy.wiener_index);
    }

    /// `engine.solve("exact")` equals the legacy enumerator on small
    /// graphs (equal Wiener index; tie-breaking among optimal connectors
    /// is also identical since both run the same code).
    #[test]
    fn engine_exact_matches_legacy((g, q) in graph_and_query()) {
        let mut engine = QueryEngine::new(&g);
        engine.register(Box::new(ExactSolver { config: budgeted_exact() }));
        let report = engine.solve("exact", &q).unwrap();
        let legacy = exact_minimum(&g, &q, None, &budgeted_exact()).unwrap();
        prop_assert_eq!(report.connector.vertices(), legacy.connector.vertices());
        prop_assert_eq!(report.wiener_index, legacy.wiener_index);
        prop_assert_eq!(report.optimal, Some(legacy.optimal));
    }

    /// Every baseline solver matches its legacy function.
    #[test]
    fn engine_baselines_match_legacy((g, q) in graph_and_query()) {
        let engine = wiener_connector::engine(&g);
        for name in ["ctp", "cps", "ppr", "st", "greedy-wiener"] {
            let report = engine.solve(name, &q).unwrap();
            let (legacy_c, legacy_w) = legacy_solve(&g, &engine, name, &q);
            prop_assert_eq!(
                report.connector.vertices(),
                legacy_c.vertices(),
                "{} diverged", name
            );
            prop_assert_eq!(report.wiener_index, legacy_w, "{} W diverged", name);
        }
    }
}
