//! Loopback tests for cross-request solve coalescing: real concurrent
//! clients over TCP, windows wide enough to provably gather their
//! requests, and every coalesced answer pinned bit-identical to an
//! uncoalesced direct engine call on an identically constructed graph.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mwc_core::QueryOptions;
use mwc_graph::NodeId;
use mwc_service::coalesce::CoalesceConfig;
use mwc_service::{
    server, Catalog, Client, ClientError, Json, PipelinedClient, ServerConfig, WireReport,
};

/// A server with solve caches disabled (so parity and sharing are about
/// coalescing, not cache hits) and the given flush window.
fn start_server(window: Duration, enabled: bool) -> server::ServerHandle {
    let catalog = Arc::new(Catalog::new().with_solve_cache_bytes(0));
    catalog.load("karate", "karate").unwrap();
    catalog.load("toy", "ba:600x3").unwrap();
    let config = ServerConfig {
        // Enough workers that concurrent requests actually meet inside a
        // window even on a single-core CI box (workers defaults to the
        // core count, and one worker serializes every window to size 1).
        workers: 8,
        coalesce: CoalesceConfig {
            enabled,
            window,
            ..CoalesceConfig::default()
        },
        ..ServerConfig::default()
    };
    server::start(catalog, config, "127.0.0.1:0").expect("bind loopback")
}

fn reference_catalog() -> Catalog {
    let reference = Catalog::new().with_solve_cache_bytes(0);
    reference.load("karate", "karate").unwrap();
    reference.load("toy", "ba:600x3").unwrap();
    reference
}

/// Every registered solver, mixed solvers and options inside shared
/// windows, against both graphs: coalesced wire answers must be
/// bit-identical to uncoalesced direct engine calls.
#[test]
fn coalesced_results_match_direct_engine_calls_for_every_solver() {
    let handle = start_server(Duration::from_millis(25), true);
    let addr = handle.local_addr();
    let solvers: Vec<String> = handle
        .catalog()
        .get("karate")
        .unwrap()
        .solver_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(solvers.len() >= 4, "expected a full method table");

    // One client thread per solver; the barrier lands their requests in
    // overlapping windows, so a single flush mixes solvers and options.
    let barrier = Arc::new(Barrier::new(solvers.len()));
    let threads: Vec<_> = solvers
        .iter()
        .map(|solver| {
            let solver = solver.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                let mut answers = Vec::new();
                let cases: &[(&str, &[NodeId], Option<usize>)] = &[
                    ("karate", &[0, 33], None),
                    ("karate", &[11, 24, 25, 29], None),
                    ("karate", &[3, 11, 16], Some(12)),
                    ("toy", &[0, 599], None),
                    ("toy", &[7, 150, 450], None),
                ];
                for &(graph, q, max_size) in cases {
                    match client.solve(graph, &solver, q, None, max_size) {
                        Ok(r) => answers.push((graph, q.to_vec(), max_size, Ok(r))),
                        Err(ClientError::Server(e)) => {
                            answers.push((graph, q.to_vec(), max_size, Err(e)))
                        }
                        Err(other) => panic!("transport failure: {other}"),
                    }
                }
                (solver, answers)
            })
        })
        .collect();

    let reference = reference_catalog();
    for t in threads {
        let (solver, answers) = t.join().expect("client thread");
        for (graph, q, max_size, wire) in answers {
            let mut options = QueryOptions::default();
            if let Some(m) = max_size {
                options = options.max_connector_size(m);
            }
            let direct = reference.get(graph).unwrap().solve(&solver, &q, &options);
            match (wire, direct) {
                (Ok(wire), Ok(direct)) => {
                    assert_eq!(
                        wire.connector,
                        direct.connector.vertices(),
                        "{solver} on {graph} {q:?}: coalesced connector diverged"
                    );
                    assert_eq!(wire.wiener_index, direct.wiener_index);
                    assert_eq!(wire.candidates, direct.candidates);
                    assert_eq!(wire.optimal, direct.optimal);
                }
                (Err(wire), Err(direct)) => {
                    let direct = mwc_service::ServiceError::Core(direct);
                    assert_eq!(wire.code, direct.code(), "{solver} on {graph} {q:?}");
                }
                (wire, direct) => {
                    panic!("{solver} on {graph} {q:?}: wire {wire:?} vs direct {direct:?}")
                }
            }
        }
    }

    // The windows demonstrably coalesced: requests were parked, and
    // flushes carried more than one request on average.
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let coalesce = stats.get("coalesce").expect("stats carry coalesce section");
    assert_eq!(coalesce.get("enabled").unwrap().as_bool(), Some(true));
    let enqueued = coalesce.get("enqueued").unwrap().as_u64().unwrap();
    let flushes = coalesce.get("flush_total").unwrap().as_u64().unwrap();
    assert!(enqueued >= 10, "enqueued = {enqueued}");
    assert!(flushes >= 1 && flushes < enqueued, "flushes = {flushes}");
    assert!(
        coalesce
            .get("queue_wait")
            .unwrap()
            .get("count")
            .unwrap()
            .as_u64()
            .unwrap()
            >= enqueued
    );

    // Second phase: six ws-q clients fire three distinct queries, each
    // twice, at the same graph simultaneously, so windows run identical
    // requests once.
    let count = |stats: &Json, name: &str| {
        stats
            .get("coalesce")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let before = client.stats().unwrap();
    let queries: Vec<Vec<NodeId>> = (0..6u32)
        .map(|i| {
            let i = i % 3;
            vec![i * 7, 599 - i * 11, 100 + i * 37]
        })
        .collect();
    let barrier = Arc::new(Barrier::new(queries.len()));
    let reference = Arc::new(reference);
    let threads: Vec<_> = queries
        .into_iter()
        .map(|q| {
            let barrier = Arc::clone(&barrier);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                let wire = client.solve("toy", "ws-q", &q, None, None).unwrap();
                let direct = reference
                    .get("toy")
                    .unwrap()
                    .solve("ws-q", &q, &QueryOptions::default())
                    .unwrap();
                assert_eq!(wire.connector, direct.connector.vertices(), "{q:?}");
                assert_eq!(wire.wiener_index, direct.wiener_index, "{q:?}");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("phase-2 client");
    }
    let after = client.stats().unwrap();
    let delta = |name: &str| count(&after, name) - count(&before, name);
    assert_eq!(delta("group_requests"), 6);
    let (executed, deduped) = (delta("executed"), delta("deduped"));
    assert_eq!(
        executed + deduped,
        6,
        "no cache: every request ran or deduped"
    );
    assert!(executed >= 3, "each distinct query ran: {executed}");
    assert!(deduped >= 1, "no window ran an identical pair once");
    // A window may join another's execution in flight: a part of deduped.
    assert!(delta("joined") <= deduped);
    // The retired prefetch counters stay on the wire, at 0.
    for name in ["shared_sweeps", "shared_lanes", "shared_roots"] {
        assert_eq!(count(&after, name), 0, "{name}");
    }
    let occupancy = after.get("coalesce").unwrap().get("lane_occupancy_mean");
    assert_eq!(occupancy.and_then(Json::as_f64), Some(0.0));
    handle.shutdown();
}

/// A flushing window takes the solves for its graph that wait in the
/// admission queue: while two `burn`s hold both workers, duplicate and
/// distinct solves queue up; the worker freed first leads a window that
/// gathers all of them, and identical queries run once.
#[test]
fn flushing_window_gathers_the_admission_backlog() {
    let catalog = Arc::new(Catalog::new().with_solve_cache_bytes(0));
    catalog.load("toy", "ba:600x3").unwrap();
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = server::start(catalog, config, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();

    // The short burn frees its worker first; the long one keeps the other
    // worker away from the queue until the window has flushed.
    let burns: Vec<_> = [300u64, 1500]
        .into_iter()
        .map(|ms| std::thread::spawn(move || Client::connect(addr).unwrap().burn(ms)))
        .collect();
    // Wait until the server has read both burns (every `stats` poll
    // counts itself too): the admission queue is FIFO, so the workers
    // take the burns before any solve sent after this point.
    let mut control = Client::connect(addr).unwrap();
    for polls in 1u64.. {
        let stats = control.stats().unwrap();
        let total = stats.get("requests").unwrap().get("total").unwrap();
        if total.as_u64().unwrap() >= polls + 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let duplicates: [&[NodeId]; 6] = [
        &[7, 150, 450],
        &[450, 7, 150],
        &[7, 150, 450],
        &[150, 450, 7],
        &[7, 450, 150],
        &[7, 150, 450],
    ];
    let distinct: [&[NodeId]; 4] = [&[0, 599], &[3, 300, 500], &[42, 84, 126], &[10, 20]];
    let queries: Vec<&[NodeId]> = duplicates.iter().chain(&distinct).copied().collect();
    let mut client = PipelinedClient::connect(addr).unwrap();
    let ids: Vec<u64> = queries
        .iter()
        .map(|q| {
            client
                .send(vec![
                    ("cmd", Json::from("solve")),
                    ("graph", Json::from("toy")),
                    ("solver", Json::from("ws-q")),
                    ("no_cache", Json::Bool(true)),
                    (
                        "q",
                        Json::Arr(q.iter().map(|&v| Json::from(u64::from(v))).collect()),
                    ),
                ])
                .unwrap()
        })
        .collect();

    let reference = reference_catalog();
    let entry = reference.get("toy").unwrap();
    for (id, q) in ids.into_iter().zip(&queries) {
        let response = client.recv_until(id).unwrap();
        let wire = WireReport::from_json(response.get("report").unwrap()).unwrap();
        let direct = entry
            .solve("ws-q", q, &QueryOptions::new().no_cache())
            .unwrap();
        assert_eq!(wire.connector, direct.connector.vertices(), "{q:?}");
        assert_eq!(wire.wiener_index, direct.wiener_index, "{q:?}");
        assert_eq!(wire.candidates, direct.candidates, "{q:?}");
    }
    for burn in burns {
        burn.join().unwrap().unwrap();
    }

    // One window: the leader's own solve plus every queued one gathered,
    // one execution per distinct query.
    let stats = control.stats().unwrap();
    let coalesce = stats.get("coalesce").unwrap();
    let count = |name: &str| coalesce.get(name).unwrap().as_u64().unwrap();
    assert_eq!(count("enqueued"), 1);
    assert_eq!(count("gathered"), queries.len() as u64 - 1);
    assert_eq!(count("flush_total"), 1);
    assert_eq!(count("group_requests"), queries.len() as u64);
    assert_eq!(count("executed"), 1 + distinct.len() as u64);
    assert_eq!(count("deduped"), duplicates.len() as u64 - 1);
    assert_eq!(count("joined"), 0);
    handle.shutdown();
}

/// Coalescing off must behave exactly like the pre-coalescer server and
/// report an inert stats section.
#[test]
fn disabled_coalescing_serves_directly() {
    let handle = start_server(Duration::from_millis(25), false);
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let wire = client
        .solve("karate", "ws-q", &[11, 24, 25, 29], None, None)
        .unwrap();
    let direct = reference_catalog()
        .get("karate")
        .unwrap()
        .solve("ws-q", &[11, 24, 25, 29], &QueryOptions::default())
        .unwrap();
    assert_eq!(wire.connector, direct.connector.vertices());
    assert_eq!(wire.wiener_index, direct.wiener_index);
    let stats = client.stats().unwrap();
    let coalesce = stats.get("coalesce").unwrap();
    assert_eq!(coalesce.get("enabled").unwrap().as_bool(), Some(false));
    assert_eq!(coalesce.get("enqueued").unwrap().as_u64(), Some(0));
    assert_eq!(coalesce.get("flush_total").unwrap().as_u64(), Some(0));
    assert_eq!(coalesce.get("joined").unwrap().as_u64(), Some(0));
    handle.shutdown();
}

/// A request whose deadline fits inside twice the window must bypass
/// coalescing: answered well before the window would have flushed, and
/// counted as a bypass.
#[test]
fn tight_deadlines_bypass_the_window() {
    let handle = start_server(Duration::from_millis(400), true);
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let started = Instant::now();
    let wire = client
        .solve("karate", "ws-q", &[0, 33], Some(500), None)
        .expect("bypassed solve succeeds");
    // 500 ms deadline ≤ 2×400 ms window → direct execution: the answer
    // cannot have waited out the 400 ms window.
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "took {:?} — parked in the window instead of bypassing",
        started.elapsed()
    );
    let direct = reference_catalog()
        .get("karate")
        .unwrap()
        .solve("ws-q", &[0, 33], &QueryOptions::default())
        .unwrap();
    assert_eq!(wire.connector, direct.connector.vertices());
    let stats = client.stats().unwrap();
    let coalesce = stats.get("coalesce").unwrap();
    assert!(coalesce.get("bypassed").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(coalesce.get("enqueued").unwrap().as_u64(), Some(0));
    handle.shutdown();
}

/// Evicting (or load-replacing) a graph fails everything parked in its
/// window with the stable retryable `graph_evicted` code — promptly, not
/// after the window expires — and a retry against the reloaded graph
/// succeeds.
#[test]
fn evict_fails_parked_requests_with_graph_evicted() {
    let handle = start_server(Duration::from_secs(5), true);
    let addr = handle.local_addr();

    let solver_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let started = Instant::now();
        let outcome = client.solve("toy", "ws-q", &[0, 599], None, None);
        (started.elapsed(), outcome)
    });
    // Let the solve get parked (reader → queue → worker → window).
    std::thread::sleep(Duration::from_millis(300));
    let mut control = Client::connect(addr).unwrap();
    assert!(control.evict("toy").unwrap());

    let (elapsed, outcome) = solver_thread.join().expect("solver thread");
    match outcome {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "graph_evicted", "{e}");
        }
        other => panic!("expected graph_evicted, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(4),
        "abort took {elapsed:?} — waited out the window instead"
    );

    // The code is retryable for real: reload and retry succeeds.
    control.load("toy", "ba:600x3").unwrap();
    let mut retry = Client::connect(addr).unwrap();
    let wire = retry.solve("toy", "ws-q", &[0, 599], None, None).unwrap();
    let direct = reference_catalog()
        .get("toy")
        .unwrap()
        .solve("ws-q", &[0, 599], &QueryOptions::default())
        .unwrap();
    assert_eq!(wire.connector, direct.connector.vertices());

    let stats = retry.stats().unwrap();
    assert!(
        stats
            .get("coalesce")
            .unwrap()
            .get("aborted")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
    handle.shutdown();
}

/// Graceful shutdown flushes open coalescing windows before the ack: a
/// request parked in a long window is answered, not silently dropped,
/// even though `shutdown` arrives mid-window.
#[test]
fn shutdown_drains_open_windows_before_acking() {
    let handle = start_server(Duration::from_secs(5), true);
    let addr = handle.local_addr();

    let solver_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.solve("karate", "ws-q", &[11, 24, 25, 29], None, None)
    });
    std::thread::sleep(Duration::from_millis(300));

    let shutdown_at = Instant::now();
    let mut control = Client::connect(addr).unwrap();
    control.shutdown().expect("shutdown acked");
    assert!(
        shutdown_at.elapsed() < Duration::from_secs(4),
        "ack waited out the window: {:?}",
        shutdown_at.elapsed()
    );

    let wire = solver_thread
        .join()
        .expect("solver thread")
        .expect("drained request must be answered, not dropped");
    let direct = reference_catalog()
        .get("karate")
        .unwrap()
        .solve("ws-q", &[11, 24, 25, 29], &QueryOptions::default())
        .unwrap();
    assert_eq!(wire.connector, direct.connector.vertices());
    assert_eq!(wire.wiener_index, direct.wiener_index);
    handle.wait();
}
