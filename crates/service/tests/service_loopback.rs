//! End-to-end serving tests over a loopback TCP socket: an ephemeral-port
//! server driven by real concurrent clients, with results pinned against
//! direct catalog-entry calls on identically constructed graphs (the
//! entry path is the serving unit: a degree-ordered engine plus id
//! translation at the boundary).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use mwc_core::QueryOptions;
use mwc_graph::NodeId;
use mwc_service::{
    server, Catalog, Client, ClientError, GraphSource, Json, ServerConfig, WireReport,
};

fn start_two_graph_server(config: ServerConfig) -> server::ServerHandle {
    let catalog = Arc::new(Catalog::new());
    catalog.load("karate", "karate").unwrap();
    catalog.load("toy", "ba:300x2").unwrap();
    server::start(catalog, config, "127.0.0.1:0").expect("bind loopback")
}

const KARATE_QUERIES: &[&[NodeId]] = &[
    &[0, 33],
    &[11, 24, 25, 29],
    &[3, 11, 16],
    &[5, 28],
    &[1, 8, 30],
];
const TOY_QUERIES: &[&[NodeId]] = &[&[0, 299], &[7, 150, 250], &[42, 84, 126, 168]];

/// Concurrent clients solving on two graphs through several solvers; every
/// wire answer must equal a direct in-process engine call on the same
/// (deterministically rebuilt) graph.
#[test]
fn concurrent_solves_match_direct_engine_calls() {
    let handle = start_two_graph_server(ServerConfig::default());
    let addr = handle.local_addr();

    let solvers = ["ws-q", "ws-q+ls", "ws-q-approx", "st", "cps"];
    let barrier = Arc::new(Barrier::new(solvers.len()));
    let threads: Vec<_> = solvers
        .map(|solver| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait(); // all clients fire together
                let mut answers = Vec::new();
                for (graph, queries) in [("karate", KARATE_QUERIES), ("toy", TOY_QUERIES)] {
                    for q in queries {
                        let r = client.solve(graph, solver, q, None, None).unwrap();
                        assert_eq!(r.solver, solver);
                        answers.push((graph, q.to_vec(), r));
                    }
                }
                answers
            })
        })
        .into_iter()
        .collect();

    // Ground truth at two levels of independence:
    // * reference *entries* rebuilt from the specs pin the wire byte-for-
    //   byte against the serving path (degree ordering + translation);
    // * reference *original-layout graphs* rebuilt via GraphSource pin
    //   the answers against code that never saw the relabeling — a
    //   systematic translation bug cannot cancel out here.
    let reference = Catalog::new();
    reference.load("karate", "karate").unwrap();
    reference.load("toy", "ba:300x2").unwrap();
    let originals = [
        (
            "karate",
            GraphSource::parse("karate").unwrap().build().unwrap(),
        ),
        (
            "toy",
            GraphSource::parse("ba:300x2").unwrap().build().unwrap(),
        ),
    ];

    for t in threads {
        for (graph, q, wire) in t.join().expect("client thread") {
            let entry = reference.get(graph).unwrap();
            let direct = entry
                .solve(&wire.solver, &q, &QueryOptions::default())
                .unwrap();
            assert_eq!(
                wire.connector,
                direct.connector.vertices(),
                "{} on {graph} {q:?}: wire connector diverged",
                wire.solver
            );
            assert_eq!(wire.wiener_index, direct.wiener_index);
            assert_eq!(wire.optimal, direct.optimal);
            // Independent original-layout checks: the wire connector must
            // be a valid connector of the untranslated graph, and its
            // Wiener index (recomputed without any permutation involved)
            // must equal the reported objective.
            let original = &originals.iter().find(|(n, _)| *n == graph).unwrap().1;
            assert!(q.iter().all(|v| wire.connector.contains(v)));
            let sub = original.induced(&wire.connector).unwrap();
            assert!(mwc_graph::connectivity::is_connected(sub.graph()));
            assert_eq!(
                mwc_graph::wiener::wiener_index(sub.graph()),
                Some(wire.wiener_index),
                "{} on {graph} {q:?}: reported W diverges from the \
                 original-layout recomputation",
                wire.solver
            );
        }
    }
    handle.shutdown();
}

/// A wire batch equals direct per-query solves, query by query, with
/// per-query errors in place.
#[test]
fn batch_matches_engine_batch_and_reports_errors_in_place() {
    let handle = start_two_graph_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let queries: Vec<Vec<NodeId>> = vec![
        vec![0, 33],
        vec![11, 24, 25, 29],
        vec![999], // out of range → per-query error
        vec![3, 11, 16],
    ];
    let wire = client
        .batch("karate", "ws-q", &queries, None, None)
        .unwrap();
    assert_eq!(wire.len(), queries.len());

    let reference = Catalog::new();
    let entry = reference.load("karate", "karate").unwrap();
    let direct: Vec<_> = queries
        .iter()
        .map(|q| entry.solve("ws-q", q, &QueryOptions::default()))
        .collect();
    for (i, (w, d)) in wire.iter().zip(&direct).enumerate() {
        match (w, d) {
            (Ok(w), Ok(d)) => {
                assert_eq!(w.connector, d.connector.vertices(), "query {i}");
                assert_eq!(w.wiener_index, d.wiener_index, "query {i}");
            }
            (Err(w), Err(_)) => assert_eq!(w.code, "infeasible", "query {i}"),
            other => panic!("query {i}: wire/direct disagree on feasibility: {other:?}"),
        }
    }
    handle.shutdown();
}

/// A wire batch runs each graph's entries as one group: duplicate
/// entries are solved once, an unknown-graph entry fails in place, and
/// every report equals a direct solve, in request order.
#[test]
fn batch_dedups_duplicate_entries_and_keeps_errors_in_place() {
    let handle = start_two_graph_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let entries: &[(&str, &[NodeId])] = &[
        ("karate", &[0, 33]),
        ("toy", &[7, 150, 250]),
        ("karate", &[33, 0]),
        ("atlantis", &[1, 2]),
        ("karate", &[11, 24, 25, 29]),
        ("toy", &[250, 7, 150]),
        ("karate", &[0, 33]),
    ];
    let queries: Vec<Json> = entries
        .iter()
        .map(|&(graph, q)| {
            Json::obj([
                ("graph", Json::from(graph)),
                (
                    "q",
                    Json::Arr(q.iter().map(|&v| Json::from(u64::from(v))).collect()),
                ),
            ])
        })
        .collect();
    let line = Json::obj([
        ("cmd", Json::from("batch")),
        ("graph", Json::from("karate")),
        ("solver", Json::from("ws-q")),
        ("no_cache", Json::Bool(true)),
        ("queries", Json::Arr(queries)),
    ])
    .to_string();
    let response = mwc_service::json::parse(client.roundtrip_line(&line).unwrap().trim()).unwrap();
    assert_eq!(response.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(response.get("solved").unwrap().as_u64(), Some(6));
    let reports = response.get("reports").unwrap().as_array().unwrap();
    assert_eq!(reports.len(), entries.len());

    let reference = Catalog::new();
    reference.load("karate", "karate").unwrap();
    reference.load("toy", "ba:300x2").unwrap();
    for (i, (&(graph, q), report)) in entries.iter().zip(reports).enumerate() {
        if graph == "atlantis" {
            let code = report.get("error").and_then(|e| e.get("code"));
            assert_eq!(
                code.and_then(Json::as_str),
                Some("unknown_graph"),
                "entry {i}"
            );
            continue;
        }
        let wire = WireReport::from_json(report).unwrap();
        let direct = reference
            .get(graph)
            .unwrap()
            .solve("ws-q", q, &QueryOptions::new().no_cache())
            .unwrap();
        assert_eq!(wire.connector, direct.connector.vertices(), "entry {i}");
        assert_eq!(wire.wiener_index, direct.wiener_index, "entry {i}");
        assert_eq!(wire.candidates, direct.candidates, "entry {i}");
    }

    // Per graph, one group: karate's four entries run two executions,
    // toy's two run one. Nothing else was in flight to join.
    let stats = client.stats().unwrap();
    let batch = stats.get("batch").expect("stats carry a batch section");
    assert_eq!(batch.get("requests").unwrap().as_u64(), Some(6));
    assert_eq!(batch.get("deduped").unwrap().as_u64(), Some(3));
    assert_eq!(batch.get("joined").unwrap().as_u64(), Some(0));
    assert_eq!(batch.get("executed").unwrap().as_u64(), Some(3));
    handle.shutdown();
}

/// The control plane: graphs listing, stats counters, load/evict life
/// cycle, ping.
#[test]
fn control_plane_lists_loads_and_counts() {
    let handle = start_two_graph_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.ping().unwrap();

    let graphs = client.graphs().unwrap();
    assert_eq!(
        graphs.iter().map(|g| g.name.as_str()).collect::<Vec<_>>(),
        vec!["karate", "toy"]
    );
    assert_eq!(graphs[0].nodes, 34);
    assert!(graphs[0].solvers.contains(&"ws-q".to_string()));
    // solver_names is served sorted.
    let mut sorted = graphs[0].solvers.clone();
    sorted.sort();
    assert_eq!(graphs[0].solvers, sorted);

    // Load a third graph over the wire, solve on it, evict it.
    let (nodes, _) = client.load("mini", "standin:football@0.5").unwrap();
    assert!(nodes >= 57);
    let r = client.solve("mini", "st", &[0, 1, 2], None, None).unwrap();
    assert!(r.connector.len() >= 3);
    assert!(client.evict("mini").unwrap());
    assert!(!client.evict("mini").unwrap());
    match client.solve("mini", "st", &[0, 1], None, None) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "unknown_graph"),
        other => panic!("expected unknown_graph, got {other:?}"),
    }

    client
        .solve("karate", "ws-q", &[0, 33], None, None)
        .unwrap();
    let stats = client.stats().unwrap();
    let requests = stats.get("requests").unwrap();
    assert!(requests.get("total").unwrap().as_u64().unwrap() >= 8);
    assert!(requests.get("ok").unwrap().as_u64().unwrap() >= 6);
    let ws_q = stats.get("solvers").unwrap().get("ws-q").unwrap();
    assert!(ws_q.get("count").unwrap().as_u64().unwrap() >= 1);
    assert!(ws_q.get("p99_ms").unwrap().as_f64().unwrap() > 0.0);
    handle.shutdown();
}

/// The solve cache is observable over the wire: repeated solves hit,
/// `no_cache` bypasses, and `stats` carries the counters per graph.
#[test]
fn solve_cache_counters_and_no_cache_flag() {
    let handle = start_two_graph_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let q: &[NodeId] = &[11, 24, 25, 29];

    let cold = client.solve("karate", "ws-q", q, None, None).unwrap();
    let hot = client.solve("karate", "ws-q", q, None, None).unwrap();
    let fresh = client
        .solve_opts("karate", "ws-q", q, None, None, true)
        .unwrap();
    assert_eq!(cold.connector, hot.connector);
    assert_eq!(cold.connector, fresh.connector);
    assert_eq!(cold.wiener_index, fresh.wiener_index);

    let stats = client.stats().unwrap();
    let cache = stats.get("solve_cache").expect("stats carry solve_cache");
    assert!(cache.get("hits").unwrap().as_u64().unwrap() >= 1);
    // no_cache neither hit nor stored: exactly one resident entry, one
    // miss for the cold solve.
    let karate = cache.get("graphs").unwrap().get("karate").unwrap();
    assert_eq!(karate.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(karate.get("misses").unwrap().as_u64(), Some(1));
    assert_eq!(karate.get("entries").unwrap().as_u64(), Some(1));
    assert!(karate.get("capacity").unwrap().as_u64().unwrap() > 0);
    // The byte-bounded cache is observable on the wire: one resident
    // entry charges a non-zero approximate size against a non-zero
    // budget, and the aggregate section carries the sum.
    assert!(karate.get("bytes_used").unwrap().as_u64().unwrap() > 0);
    assert!(
        karate.get("capacity_bytes").unwrap().as_u64().unwrap()
            >= karate.get("bytes_used").unwrap().as_u64().unwrap()
    );
    assert!(
        cache.get("bytes_used").unwrap().as_u64().unwrap()
            >= karate.get("bytes_used").unwrap().as_u64().unwrap()
    );

    // Batch requests honor the flag too (and both paths agree).
    let batch = client
        .batch_opts("karate", "ws-q", &[q.to_vec()], None, None, true)
        .unwrap();
    assert_eq!(batch[0].as_ref().unwrap().connector, cold.connector);
    handle.shutdown();
}

/// Malformed lines and bad requests get structured errors (with the id
/// salvaged when possible) and do not poison the connection.
#[test]
fn malformed_requests_get_structured_errors() {
    let handle = start_two_graph_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    for (line, code) in [
        ("this is not json", "bad_request"),
        ("[1,2,3]", "bad_request"),
        (r#"{"cmd":"teleport"}"#, "bad_request"),
        (
            r#"{"cmd":"solve","graph":"karate","solver":"ws-q"}"#,
            "bad_request",
        ),
        (
            r#"{"cmd":"solve","graph":"atlantis","solver":"ws-q","q":[0,1]}"#,
            "unknown_graph",
        ),
        (
            r#"{"cmd":"solve","graph":"karate","solver":"quantum","q":[0,1]}"#,
            "unknown_solver",
        ),
        (
            r#"{"cmd":"solve","graph":"karate","solver":"ws-q","q":[0,999]}"#,
            "infeasible",
        ),
        (
            r#"{"cmd":"load","name":"x","source":"warp:10"}"#,
            "bad_source",
        ),
    ] {
        let response = client.roundtrip_line(line).unwrap();
        let v = mwc_service::json::parse(response.trim()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{line}");
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some(code),
            "{line}"
        );
    }
    // The id is salvaged from well-formed JSON with a bad command.
    let response = client
        .roundtrip_line(r#"{"cmd":"warp","id":"x7"}"#)
        .unwrap();
    let v = mwc_service::json::parse(response.trim()).unwrap();
    assert_eq!(v.get("id").unwrap().as_str(), Some("x7"));
    // The connection still serves after all that abuse.
    client.ping().unwrap();
    client
        .solve("karate", "ws-q", &[0, 33], None, None)
        .unwrap();
    handle.shutdown();
}

/// A newline-free line past `max_line_bytes` is rejected as soon as the
/// cap is exceeded — the buffer never grows with the client's send rate —
/// and the connection is closed (framing is lost).
#[test]
fn oversized_lines_are_rejected_and_the_connection_closed() {
    let config = ServerConfig {
        max_line_bytes: 256,
        ..ServerConfig::default()
    };
    let handle = start_two_graph_server(config);
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(&[b'x'; 1024]).unwrap(); // 4x the cap, no newline
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(response.contains("bad_request"), "{response}");
    assert!(response.contains("exceeds"), "{response}");
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap(),
        0,
        "connection stays open"
    );
    handle.shutdown();
}

/// Beyond `max_connections`, a new connection gets one retryable
/// `too_many_connections` error line and is closed; slots free up when
/// connections drop.
#[test]
fn connection_limit_refuses_with_too_many_connections() {
    let config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let handle = start_two_graph_server(config);
    let addr = handle.local_addr();
    let c1 = Client::connect(addr).unwrap();
    let mut c2 = Client::connect(addr).unwrap();
    c2.ping().unwrap();

    let s3 = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(s3);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"too_many_connections\""), "{line}");
    assert!(line.contains("\"retryable\":true"), "{line}");
    assert!(line.contains("connection limit"), "{line}");
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap(),
        0,
        "refused conn closed"
    );

    // Dropping a connection frees its slot (pruned on the next accept).
    drop(c1);
    std::thread::sleep(Duration::from_millis(200));
    let mut c4 = Client::connect(addr).unwrap();
    c4.ping().unwrap();
    handle.shutdown();
}

/// Admission control: with one worker and a queue of one, a burst of
/// slow requests must produce explicit `overloaded` rejections while the
/// control plane stays responsive; accepted work still completes.
#[test]
fn overload_sheds_requests_with_explicit_code() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let handle = start_two_graph_server(config);
    let addr = handle.local_addr();

    let n = 10;
    let barrier = Arc::new(Barrier::new(n));
    let threads: Vec<_> = (0..n)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                match client.burn(300) {
                    Ok(()) => "ok",
                    Err(ClientError::Server(e)) if e.code == "overloaded" => "overloaded",
                    Err(e) => panic!("unexpected failure: {e}"),
                }
            })
        })
        .collect();
    // Stats answer while the data plane is saturated (control plane
    // bypasses admission).
    std::thread::sleep(Duration::from_millis(100));
    let mut observer = Client::connect(addr).unwrap();
    let stats = observer.stats().unwrap();
    assert!(
        stats
            .get("queue")
            .unwrap()
            .get("capacity")
            .unwrap()
            .as_u64()
            == Some(1)
    );

    let outcomes: Vec<&str> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let ok = outcomes.iter().filter(|o| **o == "ok").count();
    let shed = outcomes.iter().filter(|o| **o == "overloaded").count();
    assert!(ok >= 1, "some burns must be admitted: {outcomes:?}");
    assert!(shed >= 1, "some burns must be shed: {outcomes:?}");

    let stats = observer.stats().unwrap();
    assert_eq!(
        stats
            .get("requests")
            .unwrap()
            .get("overloaded")
            .unwrap()
            .as_u64(),
        Some(shed as u64)
    );
    handle.shutdown();
}

/// Deadline semantics: a deadline long enough passes; a zero deadline is
/// expired by queue wait alone and fails with `deadline_exceeded` before
/// solving; a short-but-positive deadline still yields a feasible
/// connector (cooperative deadline inside the solver).
#[test]
fn deadlines_cover_queueing_and_map_into_query_options() {
    let handle = start_two_graph_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let generous = client
        .solve("karate", "ws-q", &[11, 24, 25, 29], Some(10_000), None)
        .unwrap();
    assert!(generous.connector.len() >= 4);

    match client.solve("karate", "ws-q", &[0, 33], Some(0), None) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "deadline_exceeded"),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }

    // 1 ms: tight but admitted — the cooperative solver still returns a
    // feasible (if unpolished) connector unless queueing ate the budget.
    match client.solve("toy", "ws-q", &[0, 299], Some(1), None) {
        Ok(r) => {
            assert!(r.connector.contains(&0) && r.connector.contains(&299));
        }
        Err(ClientError::Server(e)) => assert_eq!(e.code, "deadline_exceeded"),
        Err(e) => panic!("unexpected failure: {e}"),
    }

    // max_size maps onto QueryOptions::max_connector_size.
    match client.solve("karate", "ws-q", &[11, 24, 25, 29], None, Some(4)) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "budget_exceeded"),
        other => panic!("expected budget_exceeded, got {other:?}"),
    }
    handle.shutdown();
}

/// Protocol-initiated graceful shutdown: the server drains and `wait`
/// returns; late requests are refused.
#[test]
fn protocol_shutdown_drains_and_stops() {
    let handle = start_two_graph_server(ServerConfig::default());
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.solve("karate", "st", &[0, 33], None, None).unwrap();
    client.shutdown().unwrap();
    assert!(handle.is_shutting_down());
    handle.wait(); // joins acceptor, workers, readers
                   // The listener is gone (or refuses) after drain.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
            || Client::connect(addr).and_then(|mut c| c.ping()).is_err()
    );
}

/// A weighted graph's warm cache survives the wire. The exported seeds
/// carry a full-range u64 `weight_digest` (essentially always above
/// 2^53, i.e. past JSON's exact-integer range), so the hex-string
/// encoding is load-bearing: a second server's seeded `load` must
/// accept every seed, serve the warmed queries without a single cold
/// solve, and a differently-weighted twin must still refuse them.
#[test]
fn weighted_cache_seeds_survive_the_wire() {
    use mwc_service::json::{parse, Json};

    let catalog = Arc::new(Catalog::new());
    catalog.load("w", "wba:200x2").unwrap();
    let exporter = server::start(catalog, ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(exporter.local_addr()).unwrap();
    let queries: &[&[NodeId]] = &[&[0, 199], &[7, 150], &[42, 84, 126]];
    for q in queries {
        client.solve("w", "ws-q", q, None, None).unwrap();
    }
    let raw = client
        .roundtrip_line(r#"{"cmd":"cache_export","name":"w"}"#)
        .unwrap();
    let v = parse(raw.trim()).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{raw}");
    let entries = v.get("entries").unwrap().as_array().unwrap().to_vec();
    assert!(entries.len() >= queries.len(), "{raw}");
    for e in &entries {
        let digest = e.get("weight_digest").unwrap();
        assert!(
            digest.as_str().is_some(),
            "digest must be a hex string: {e}"
        );
    }
    exporter.shutdown();

    // Seeded load on a fresh server: every seed accepted, replay all-hit.
    let importer = server::start(
        Arc::new(Catalog::new()),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(importer.local_addr()).unwrap();
    let seeds = Json::Arr(entries).to_string();
    let raw = client
        .roundtrip_line(&format!(
            r#"{{"cmd":"load","name":"w","source":"wba:200x2","cache":{seeds}}}"#
        ))
        .unwrap();
    let v = parse(raw.trim()).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{raw}");
    assert!(
        v.get("cache_imported").unwrap().as_u64().unwrap() >= queries.len() as u64,
        "weighted seeds were not imported: {raw}"
    );
    for q in queries {
        client.solve("w", "ws-q", q, None, None).unwrap();
    }
    let stats = client.stats().unwrap();
    let cache = stats.get("solve_cache").unwrap();
    assert_eq!(
        cache.get("misses").unwrap().as_u64(),
        Some(0),
        "warmed importer served cold: {stats}"
    );

    // Same topology, different weighting: the digest check still bites.
    let raw = client
        .roundtrip_line(&format!(
            r#"{{"cmd":"load","name":"w2","source":"wba:200x2x31","cache":{seeds}}}"#
        ))
        .unwrap();
    let v = parse(raw.trim()).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{raw}");
    assert_eq!(
        v.get("cache_imported").unwrap().as_u64(),
        Some(0),
        "foreign weighting must reject the seeds: {raw}"
    );
    importer.shutdown();
}
