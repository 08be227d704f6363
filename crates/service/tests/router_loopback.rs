//! End-to-end sharded-serving tests: 2–3 in-process `mwc-server` shards
//! behind an in-process `mwc-router`, driven over real loopback TCP.
//! Routed results are pinned against direct catalog-entry calls on
//! identically constructed graphs, and the failure contract is exercised
//! by actually killing a shard.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use mwc_core::QueryOptions;
use mwc_graph::NodeId;
use mwc_service::router::{self, RouterConfig, ShardSpec};
use mwc_service::{server, Catalog, Client, ClientError, HashRing, RouterClient, ServerConfig};

/// Names that the default ring spreads over ≥ 2 of `shard-0..2` (found
/// deterministically at test time, so the test never goes stale against
/// the hash function).
fn graphs_on_distinct_shards(ring: &HashRing, want: usize) -> Vec<(String, String)> {
    let mut picked: Vec<(String, String)> = Vec::new(); // (graph, shard)
    for i in 0.. {
        let name = format!("g{i}");
        let shard = ring.route(&name).to_string();
        if picked.iter().all(|(_, s)| *s != shard) {
            picked.push((name, shard));
            if picked.len() == want {
                break;
            }
        }
        assert!(i < 10_000, "ring never spread {want} names");
    }
    picked
}

struct Tier {
    shards: Vec<server::ServerHandle>,
    router: router::RouterHandle,
}

/// Starts `n` empty shards and a router over them. Graphs are loaded
/// through the router so placement always matches the ring.
fn start_tier(n: usize, config: RouterConfig) -> Tier {
    let shards: Vec<server::ServerHandle> = (0..n)
        .map(|_| {
            server::start(
                Arc::new(Catalog::new()),
                ServerConfig::default(),
                "127.0.0.1:0",
            )
            .expect("bind shard")
        })
        .collect();
    let specs: Vec<ShardSpec> = shards
        .iter()
        .enumerate()
        .map(|(i, h)| ShardSpec::new(format!("shard-{i}"), h.local_addr().to_string()))
        .collect();
    let router = router::start(specs, config, "127.0.0.1:0").expect("bind router");
    Tier { shards, router }
}

const QUERIES: &[&[NodeId]] = &[&[0, 199], &[7, 61, 150], &[42, 84, 126, 168], &[3, 33]];

/// Routed solves over ≥ 2 shards are identical to direct single-engine
/// calls; the `graphs` merge sees every graph with its shard annotation;
/// `shard` introspection matches where graphs actually landed.
#[test]
fn routed_solves_match_direct_engine_calls() {
    let tier = start_tier(3, RouterConfig::default());
    let mut client = RouterClient::connect(tier.router.local_addr()).unwrap();

    // Pick graph names that the ring provably spreads across 2+ shards.
    let placed = graphs_on_distinct_shards(&tier.router.ring(), 2);
    let spec = "ba:200x2";
    for (name, _) in &placed {
        let (nodes, _) = client.load(name, spec).unwrap();
        assert_eq!(nodes, 200);
    }

    // Reference: direct entries, built from the same deterministic spec.
    let reference = Catalog::new();
    for (name, _) in &placed {
        reference.load(name, spec).unwrap();
    }

    for (name, _) in &placed {
        for solver in ["ws-q", "ws-q+ls", "st"] {
            for q in QUERIES {
                let wire = client.solve(name, solver, q, None, None).unwrap();
                let direct = reference
                    .get(name)
                    .unwrap()
                    .solve(solver, q, &QueryOptions::default())
                    .unwrap();
                assert_eq!(
                    wire.connector,
                    direct.connector.vertices(),
                    "{solver} on {name} {q:?} diverged through the router"
                );
                assert_eq!(wire.wiener_index, direct.wiener_index);
            }
        }
    }

    // The merged graphs listing carries every graph, each annotated with
    // the shard the ring assigned (pinned via raw JSON: the typed client
    // drops unknown fields).
    let raw = client
        .inner()
        .roundtrip_line(r#"{"cmd":"graphs"}"#)
        .unwrap();
    let v = mwc_service::json::parse(raw.trim()).unwrap();
    let listed = v.get("graphs").unwrap().as_array().unwrap();
    assert_eq!(listed.len(), placed.len());
    for (name, shard) in &placed {
        let entry = listed
            .iter()
            .find(|g| g.get("name").and_then(|n| n.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("{name} missing from merged listing"));
        assert_eq!(entry.get("shard").unwrap().as_str(), Some(shard.as_str()));
        // And the shard really holds it: ask that backend directly.
        let idx: usize = shard.strip_prefix("shard-").unwrap().parse().unwrap();
        let direct_graphs = Client::connect(tier.shards[idx].local_addr())
            .unwrap()
            .graphs()
            .unwrap();
        assert!(direct_graphs.iter().any(|g| g.name == *name));
    }

    // Introspection agrees with placement and reports healthy shards.
    let info = client.shard_info(Some(&placed[0].0)).unwrap();
    assert_eq!(
        info.get("assignment")
            .unwrap()
            .get("shard")
            .unwrap()
            .as_str(),
        Some(placed[0].1.as_str())
    );
    assert_eq!(
        info.get("ring").unwrap().get("shards").unwrap().as_u64(),
        Some(3)
    );
    let shards = info.get("shards").unwrap().as_array().unwrap();
    assert_eq!(shards.len(), 3);
    assert!(shards
        .iter()
        .all(|s| s.get("healthy").unwrap().as_bool() == Some(true)));

    tier.router.shutdown();
    for s in tier.shards {
        s.shutdown();
    }
}

/// A batch spanning shards comes back in request order, entry for entry
/// equal to direct per-entry solves, with per-entry errors in place.
#[test]
fn batch_fans_out_and_preserves_request_order() {
    let tier = start_tier(3, RouterConfig::default());
    let mut client = Client::connect(tier.router.local_addr()).unwrap();

    let placed = graphs_on_distinct_shards(&tier.router.ring(), 3);
    let spec = "ba:200x2";
    for (name, _) in &placed {
        client.load(name, spec).unwrap();
    }
    let reference = Catalog::new();
    for (name, _) in &placed {
        reference.load(name, spec).unwrap();
    }

    // Interleave graphs so consecutive entries land on different shards,
    // include an infeasible entry and an unknown graph — both must come
    // back *in place*, not reordered or dropped.
    let mut entries: Vec<(String, Vec<NodeId>)> = Vec::new();
    for round in QUERIES.iter().take(3) {
        for (name, _) in &placed {
            entries.push((name.clone(), round.to_vec()));
        }
    }
    entries.insert(2, (placed[0].0.clone(), vec![9999])); // infeasible
    entries.insert(5, ("atlantis".to_string(), vec![0, 1])); // unknown graph

    let line = {
        let mut queries = String::new();
        for (i, (graph, q)) in entries.iter().enumerate() {
            if i > 0 {
                queries.push(',');
            }
            let ids: Vec<String> = q.iter().map(|v| v.to_string()).collect();
            queries.push_str(&format!(r#"{{"graph":"{graph}","q":[{}]}}"#, ids.join(",")));
        }
        format!(r#"{{"cmd":"batch","solver":"ws-q","queries":[{queries}],"id":"b1"}}"#)
    };
    let raw = client.roundtrip_line(&line).unwrap();
    let v = mwc_service::json::parse(raw.trim()).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("id").unwrap().as_str(), Some("b1"));
    let reports = v.get("reports").unwrap().as_array().unwrap();
    assert_eq!(reports.len(), entries.len());
    assert_eq!(
        v.get("solved").unwrap().as_u64(),
        Some(entries.len() as u64 - 2)
    );

    for (i, ((graph, q), report)) in entries.iter().zip(reports).enumerate() {
        match report.get("error") {
            Some(err) => {
                let code = err.get("code").unwrap().as_str().unwrap();
                if graph == "atlantis" {
                    assert_eq!(code, "unknown_graph", "entry {i}");
                } else {
                    assert_eq!(code, "infeasible", "entry {i}");
                }
            }
            None => {
                let direct = reference
                    .get(graph)
                    .unwrap()
                    .solve("ws-q", q, &QueryOptions::default())
                    .unwrap();
                let connector: Vec<u64> = report
                    .get("connector")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|x| x.as_u64().unwrap())
                    .collect();
                let want: Vec<u64> = direct
                    .connector
                    .vertices()
                    .iter()
                    .map(|&v| u64::from(v))
                    .collect();
                assert_eq!(connector, want, "entry {i} ({graph} {q:?}) out of order");
                assert_eq!(
                    report.get("wiener_index").unwrap().as_u64(),
                    Some(direct.wiener_index),
                    "entry {i}"
                );
            }
        }
    }

    tier.router.shutdown();
    for s in tier.shards {
        s.shutdown();
    }
}

/// Malformed lines and single-server-only commands get structured errors
/// through the router, and the connection keeps serving.
#[test]
fn malformed_requests_get_structured_errors_via_router() {
    let tier = start_tier(2, RouterConfig::default());
    let mut client = Client::connect(tier.router.local_addr()).unwrap();
    client.load("g0", "karate").unwrap();

    for (line, code) in [
        ("this is not json", "bad_request"),
        ("[1,2,3]", "bad_request"),
        (r#"{"cmd":"teleport"}"#, "bad_request"),
        (
            r#"{"cmd":"solve","graph":"g0","solver":"ws-q"}"#,
            "bad_request",
        ),
        (
            r#"{"cmd":"batch","solver":"st","queries":[[0,1]]}"#,
            "bad_request",
        ),
        (
            // Routed to whichever shard owns "nope": the backend's own
            // error code passes through verbatim.
            r#"{"cmd":"solve","graph":"nope","solver":"ws-q","q":[0,1]}"#,
            "unknown_graph",
        ),
        (
            r#"{"cmd":"solve","graph":"g0","solver":"quantum","q":[0,1]}"#,
            "unknown_solver",
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
    // The id survives salvage through the router too.
    let response = client
        .roundtrip_line(r#"{"cmd":"warp","id":"r9"}"#)
        .unwrap();
    let v = mwc_service::json::parse(response.trim()).unwrap();
    assert_eq!(v.get("id").unwrap().as_str(), Some("r9"));
    // Still serving.
    client.ping().unwrap();
    client.solve("g0", "ws-q", &[0, 33], None, None).unwrap();

    tier.router.shutdown();
    for s in tier.shards {
        s.shutdown();
    }
}

/// A client may pipeline through the router: responses on one connection
/// keep request order even when a slow relay (a `burn`) heads the line,
/// and that relay holds up neither the loop nor another connection's
/// cache hit. The router relays one request of a connection at a time,
/// so the lines behind the burn wait, unhandled, until it is answered.
#[test]
fn router_pipelines_in_order_and_a_slow_relay_blocks_no_other_connection() {
    // Workers to spare on the shard: the burn occupies one, the cache
    // hits run on another.
    let catalog = Catalog::new();
    catalog.load("karate", "karate").unwrap();
    let shard = server::start(
        Arc::new(catalog),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind shard");
    let spec = ShardSpec::new("shard-0", shard.local_addr().to_string());
    let router = router::start(vec![spec], RouterConfig::default(), "127.0.0.1:0").unwrap();
    let mut fast = Client::connect(router.local_addr()).unwrap();
    let warm = fast.solve("karate", "ws-q", &[0, 33], None, None).unwrap();

    let burn_ms = 1500;
    let started = std::time::Instant::now();
    let mut slow = TcpStream::connect(router.local_addr()).unwrap();
    let mut burst = format!(
        "{{\"cmd\":\"burn\",\"ms\":{burn_ms},\"id\":1}}\n\
         {{\"cmd\":\"solve\",\"graph\":\"karate\",\"solver\":\"ws-q\",\"q\":[0,33],\"id\":2}}\n\
         {{\"cmd\":\"ping\",\"id\":3}}\n\
         {{\"cmd\":\"stats\",\"id\":4}}\n"
    );
    // Many more relays pipelined behind them, in one write.
    let last_id = 200u64;
    for id in 5..=last_id {
        burst.push_str(&format!(
            "{{\"cmd\":\"solve\",\"graph\":\"karate\",\"solver\":\"ws-q\",\"q\":[0,33],\"id\":{id}}}\n"
        ));
    }
    slow.write_all(burst.as_bytes()).unwrap();
    // While the burn is relayed, another connection's cache hits are
    // served without waiting for it; none of this connection's later
    // requests is even handled yet (1 warm-up + 5 hits + the burn).
    std::thread::sleep(Duration::from_millis(100));
    for _ in 0..5 {
        let hit = fast.solve("karate", "ws-q", &[0, 33], None, None).unwrap();
        assert_eq!(hit.connector, warm.connector);
    }
    let handled = router.metrics().requests_total.load(Ordering::Relaxed);
    assert!(
        started.elapsed() < Duration::from_millis(burn_ms / 2),
        "cache hits on another connection waited for the burn: {:?}",
        started.elapsed()
    );
    let mut reader = BufReader::new(slow);
    let ids: Vec<u64> = (1..=last_id)
        .map(|_| {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "connection closed"
            );
            let v = mwc_service::json::parse(line.trim()).unwrap();
            assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{line}");
            v.get("id").and_then(|i| i.as_u64()).unwrap()
        })
        .collect();
    assert_eq!(handled, 7, "lines behind the burn were handled early");
    assert_eq!(
        ids,
        (1..=last_id).collect::<Vec<_>>(),
        "responses must keep request order"
    );
    assert!(started.elapsed() >= Duration::from_millis(burn_ms));
    assert_eq!(
        router.metrics().pipeline_peak.load(Ordering::Relaxed),
        1,
        "a router connection had more than one relay in flight"
    );

    router.shutdown();
    shard.shutdown();
}

/// Killing a shard yields `shard_unavailable` (promptly — not a hang),
/// surviving shards keep serving, the stats merge marks the dead shard,
/// and after enough failures the shard is ejected and fails fast.
#[test]
fn shard_kill_maps_to_shard_unavailable_and_survivors_serve() {
    let config = RouterConfig {
        fail_threshold: 2,
        reprobe_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    };
    let tier = start_tier(2, config);
    let mut client = Client::connect(tier.router.local_addr()).unwrap();

    let placed = graphs_on_distinct_shards(&tier.router.ring(), 2);
    let spec = "ba:200x2";
    for (name, _) in &placed {
        client.load(name, spec).unwrap();
    }
    let (victim_graph, victim_shard) = placed[0].clone();
    let (survivor_graph, _) = placed[1].clone();

    // Kill the shard that owns `victim_graph`.
    let victim_idx: usize = victim_shard
        .strip_prefix("shard-")
        .unwrap()
        .parse()
        .unwrap();
    let mut shards = tier.shards;
    let victim = shards.remove(victim_idx);
    victim.shutdown();

    // Its graphs fail with the stable code, promptly.
    let started = std::time::Instant::now();
    match client.solve(&victim_graph, "ws-q", &[0, 199], None, None) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "shard_unavailable", "{e}"),
        other => panic!("expected shard_unavailable, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "dead shard stalled the router for {:?}",
        started.elapsed()
    );

    // Surviving shards keep serving the same connection.
    let ok = client
        .solve(&survivor_graph, "ws-q", &[0, 199], None, None)
        .unwrap();
    assert!(ok.connector.len() >= 2);

    // A batch spanning both: survivor entries answered, victim entries
    // carry shard_unavailable in place.
    let entries = [
        (survivor_graph.clone(), vec![0u32, 199]),
        (victim_graph.clone(), vec![0u32, 199]),
        (survivor_graph.clone(), vec![7u32, 61]),
    ];
    let mut queries = String::new();
    for (i, (g, q)) in entries.iter().enumerate() {
        if i > 0 {
            queries.push(',');
        }
        let ids: Vec<String> = q.iter().map(|v| v.to_string()).collect();
        queries.push_str(&format!(r#"{{"graph":"{g}","q":[{}]}}"#, ids.join(",")));
    }
    let raw = client
        .roundtrip_line(&format!(
            r#"{{"cmd":"batch","solver":"st","queries":[{queries}]}}"#
        ))
        .unwrap();
    let v = mwc_service::json::parse(raw.trim()).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    let reports = v.get("reports").unwrap().as_array().unwrap();
    assert_eq!(reports.len(), 3);
    assert!(reports[0].get("error").is_none(), "survivor entry 0 failed");
    assert_eq!(
        reports[1]
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str(),
        Some("shard_unavailable")
    );
    assert!(reports[2].get("error").is_none(), "survivor entry 2 failed");
    assert_eq!(v.get("solved").unwrap().as_u64(), Some(2));

    // After fail_threshold failures the shard ejects: introspection and
    // the stats merge both report it, and requests fail fast.
    for _ in 0..2 {
        let _ = client.solve(&victim_graph, "ws-q", &[0, 199], None, None);
    }
    let mut rclient = RouterClient::connect(tier.router.local_addr()).unwrap();
    let info = rclient.shard_info(None).unwrap();
    let shard_entries = info.get("shards").unwrap().as_array().unwrap();
    let dead = shard_entries
        .iter()
        .find(|s| s.get("name").unwrap().as_str() == Some(victim_shard.as_str()))
        .unwrap();
    assert_eq!(dead.get("healthy").unwrap().as_bool(), Some(false));
    let fast = std::time::Instant::now();
    match client.solve(&victim_graph, "ws-q", &[0, 199], None, None) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "shard_unavailable"),
        other => panic!("expected fast-fail, got {other:?}"),
    }
    assert!(
        fast.elapsed() < Duration::from_millis(500),
        "ejected shard did not fail fast: {:?}",
        fast.elapsed()
    );

    // The merged stats mark the dead shard and still aggregate the rest.
    let stats = client.stats().unwrap();
    let per_shard = stats.get("shards").unwrap();
    assert_eq!(
        per_shard
            .get(&victim_shard)
            .unwrap()
            .get("unavailable")
            .unwrap()
            .as_bool(),
        Some(true)
    );
    let aggregate = stats.get("aggregate").unwrap();
    assert!(
        aggregate
            .get("requests")
            .unwrap()
            .get("ok")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1,
        "aggregate lost the survivors' counters"
    );
    let router_section = stats.get("router").unwrap();
    assert!(
        router_section
            .get("requests")
            .unwrap()
            .get("shard_unavailable")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );

    tier.router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// The stats merge sums backend counters: drive a known number of solves
/// through two shards and check the aggregate equals the per-shard sum.
#[test]
fn stats_merge_aggregates_across_shards() {
    let tier = start_tier(2, RouterConfig::default());
    let mut client = Client::connect(tier.router.local_addr()).unwrap();
    let placed = graphs_on_distinct_shards(&tier.router.ring(), 2);
    for (name, _) in &placed {
        client.load(name, "ba:200x2").unwrap();
    }
    for (name, _) in &placed {
        for q in QUERIES {
            client.solve(name, "st", q, None, None).unwrap();
        }
        // A batch of two identical entries: one execution on its shard.
        let pair = vec![vec![3, 150], vec![150, 3]];
        let reports = client.batch(name, "st", &pair, None, None).unwrap();
        assert!(reports.iter().all(Result::is_ok));
    }
    let stats = client.stats().unwrap();
    let aggregate = stats.get("aggregate").unwrap();
    let shards_doc = stats.get("shards").unwrap();
    let batch = aggregate.get("batch").expect("batch counters aggregate");
    for (field, want) in [
        ("requests", 4),
        ("deduped", 2),
        ("joined", 0),
        ("executed", 2),
    ] {
        assert_eq!(
            batch.get(field).unwrap().as_u64(),
            Some(want),
            "batch.{field}"
        );
    }
    assert!(aggregate.get("coalesce").unwrap().get("gathered").is_some());
    for field in ["total", "ok", "error"] {
        let agg = aggregate
            .get("requests")
            .unwrap()
            .get(field)
            .unwrap()
            .as_u64()
            .unwrap();
        let sum: u64 = ["shard-0", "shard-1"]
            .iter()
            .map(|s| {
                shards_doc
                    .get(s)
                    .unwrap()
                    .get("requests")
                    .unwrap()
                    .get(field)
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .sum();
        // The two fan-out `stats` sub-requests that build this very
        // response race with the snapshot; allow that slack on `total`.
        assert!(
            agg >= sum.saturating_sub(2) && agg <= sum + 2,
            "aggregate {field} = {agg}, per-shard sum = {sum}"
        );
    }
    // 8 routed solves happened in total, on whichever shard owns each.
    let ok_total = aggregate
        .get("requests")
        .unwrap()
        .get("ok")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        ok_total >= 8,
        "expected ≥ 8 ok backend responses: {ok_total}"
    );
    // Solve-cache counters aggregate too (8 distinct queries → 8 misses).
    assert!(
        aggregate
            .get("solve_cache")
            .unwrap()
            .get("misses")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 8
    );
    // The TTL `expired` counter is on the wire end-to-end (zero here).
    assert_eq!(
        aggregate
            .get("solve_cache")
            .unwrap()
            .get("expired")
            .unwrap()
            .as_u64(),
        Some(0)
    );
    // The router's own section and exposition count the relays that
    // panicked: none.
    let router = stats.get("router").unwrap();
    assert_eq!(router.get("panics_total").unwrap().as_u64(), Some(0));
    let text = client.metrics_text().unwrap();
    assert!(text.contains("mwc_router_panics_total 0"), "{text}");

    tier.router.shutdown();
    for s in tier.shards {
        s.shutdown();
    }
}

/// RouterClient heals a resharding window: a shard that dies and comes
/// back (same address) is re-admitted by the reprobe loop, and the
/// retrying client rides through without surfacing an error.
#[test]
fn router_client_retries_through_shard_recovery() {
    let config = RouterConfig {
        fail_threshold: 1, // eject on the first failure
        reprobe_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    };
    let tier = start_tier(2, config);
    let mut client = RouterClient::connect(tier.router.local_addr())
        .unwrap()
        .with_retry(20, Duration::from_millis(50));

    let placed = graphs_on_distinct_shards(&tier.router.ring(), 2);
    for (name, _) in &placed {
        client.load(name, "karate").unwrap();
    }
    let (victim_graph, victim_shard) = placed[0].clone();
    let victim_idx: usize = victim_shard
        .strip_prefix("shard-")
        .unwrap()
        .parse()
        .unwrap();

    // Kill the owning shard, remembering its address, and eject it.
    let mut shards = tier.shards;
    let victim = shards.remove(victim_idx);
    let victim_addr = victim.local_addr();
    victim.shutdown();
    let plain_err = Client::connect(tier.router.local_addr()).unwrap().solve(
        &victim_graph,
        "ws-q",
        &[0, 33],
        None,
        None,
    );
    match plain_err {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "shard_unavailable"),
        other => panic!("expected shard_unavailable, got {other:?}"),
    }

    // Restart a shard on the same address (a reshard/restart event) in
    // the background while the retrying client is already asking.
    let restarter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        let catalog = Arc::new(Catalog::new());
        catalog.load(&victim_graph, "karate").unwrap();
        server::start(catalog, ServerConfig::default(), victim_addr).expect("rebind victim addr")
    });
    let report = client
        .solve(&placed[0].0, "ws-q", &[0, 33], None, None)
        .expect("retrying client should ride through the restart");
    assert!(report.connector.contains(&0) && report.connector.contains(&33));
    let revived = restarter.join().unwrap();

    tier.router.shutdown();
    revived.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// With R = 2, killing one replica must be invisible to readers: every
/// solve (and batch entry) falls through to the surviving copy with
/// zero `shard_unavailable`, both before and after the dead shard is
/// ejected.
#[test]
fn replica_reads_survive_one_shard_kill() {
    let config = RouterConfig {
        replicas: 2,
        fail_threshold: 2,
        reprobe_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    };
    let tier = start_tier(3, config);
    let mut client = Client::connect(tier.router.local_addr()).unwrap();

    // Loads fan out: the raw response acks both replica copies.
    let graph = "replicated";
    let raw = client
        .roundtrip_line(&format!(
            r#"{{"cmd":"load","name":"{graph}","source":"ba:200x2"}}"#
        ))
        .unwrap();
    let v = mwc_service::json::parse(raw.trim()).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    let acks = v.get("replicas").unwrap().as_array().unwrap();
    assert_eq!(acks.len(), 2, "R=2 load must ack two replicas");
    assert!(acks
        .iter()
        .all(|a| a.get("ok").unwrap().as_bool() == Some(true)));
    let holders: Vec<String> = acks
        .iter()
        .map(|a| a.get("shard").unwrap().as_str().unwrap().to_string())
        .collect();

    // Kill the graph's *primary* replica — the worst case for readers.
    let primary = tier.router.ring().route(graph).to_string();
    assert!(holders.contains(&primary));
    let primary_idx: usize = primary.strip_prefix("shard-").unwrap().parse().unwrap();
    let mut shards = tier.shards;
    let victim = shards.remove(primary_idx);
    victim.shutdown();

    // Every read succeeds — across enough attempts to straddle the
    // ejection threshold, so both the fall-through path (primary still
    // tried first) and the ejected path (survivor tried first) run.
    for round in 0..4 {
        for q in QUERIES {
            client
                .solve(graph, "st", q, None, None)
                .unwrap_or_else(|e| {
                    panic!("read failed with one replica down (round {round}): {e}")
                });
        }
    }
    let raw = client
        .roundtrip_line(&format!(
            r#"{{"cmd":"batch","solver":"st","queries":[{{"graph":"{graph}","q":[0,199]}},{{"graph":"{graph}","q":[7,61]}}]}}"#
        ))
        .unwrap();
    let v = mwc_service::json::parse(raw.trim()).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("solved").unwrap().as_u64(), Some(2));

    // Zero shard_unavailable; the fall-throughs were counted instead.
    let stats = client.stats().unwrap();
    let requests = stats.get("router").unwrap().get("requests").unwrap();
    assert_eq!(
        requests.get("shard_unavailable").unwrap().as_u64(),
        Some(0),
        "reads leaked shard_unavailable despite a live replica"
    );
    assert!(
        requests.get("read_fallthrough").unwrap().as_u64().unwrap() >= 1,
        "killing the primary should have forced at least one fall-through"
    );

    tier.router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// A live `reshard` migrates graphs to the joining shard *warm*: the
/// source spec and the solve cache stream over before routing flips, so
/// the new owner's first solve of a previously-hot query is a cache hit
/// — zero cold solves — and readers never see an error.
#[test]
fn reshard_streams_warm_caches_to_the_new_owner() {
    let tier = start_tier(2, RouterConfig::default());
    let mut client = Client::connect(tier.router.local_addr()).unwrap();

    // Pick names the *post-reshard* ring will hand to the joining shard.
    let old_ring = tier.router.ring();
    let grown = HashRing::new(
        &[
            "shard-0".to_string(),
            "shard-1".to_string(),
            "shard-2".to_string(),
        ],
        old_ring.vnodes(),
    );
    let moving = (0..)
        .map(|i| format!("m{i}"))
        .find(|name| grown.route(name) == "shard-2")
        .unwrap();
    let staying = (0..)
        .map(|i| format!("s{i}"))
        .find(|name| grown.route(name) != "shard-2")
        .unwrap();

    for name in [&moving, &staying] {
        client.load(name, "ba:200x2").unwrap();
    }
    // Warm the moving graph's cache with real traffic.
    for q in QUERIES {
        client.solve(&moving, "ws-q", q, None, None).unwrap();
    }

    // Join a fresh, empty shard and flip the ring live.
    let joiner = server::start(
        Arc::new(Catalog::new()),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let raw = client
        .roundtrip_line(&format!(
            r#"{{"cmd":"reshard","add":{{"name":"shard-2","addr":"{}"}}}}"#,
            joiner.local_addr()
        ))
        .unwrap();
    let v = mwc_service::json::parse(raw.trim()).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{raw}");
    assert_eq!(v.get("resharded").unwrap().as_bool(), Some(true));
    assert!(
        v.get("streamed_cache_entries").unwrap().as_u64().unwrap() >= QUERIES.len() as u64,
        "warm cache entries did not stream: {raw}"
    );
    let migrated = v.get("migrated").unwrap().as_array().unwrap();
    assert!(
        migrated.iter().any(
            |m| m.get("graph").unwrap().as_str() == Some(moving.as_str())
                && m.get("to").unwrap().as_str() == Some("shard-2")
        ),
        "expected {moving} to migrate to shard-2: {raw}"
    );
    assert_eq!(tier.router.ring().route(&moving), "shard-2");

    // Replaying the warmed queries through the router now lands on the
    // joiner and hits only: its cache had the answers before the flip.
    for q in QUERIES {
        client.solve(&moving, "ws-q", q, None, None).unwrap();
    }
    let joiner_stats = Client::connect(joiner.local_addr())
        .unwrap()
        .stats()
        .unwrap();
    let cache = joiner_stats.get("solve_cache").unwrap();
    assert!(
        cache.get("hits").unwrap().as_u64().unwrap() >= QUERIES.len() as u64,
        "new owner served cold: {joiner_stats}"
    );
    assert_eq!(
        cache.get("misses").unwrap().as_u64(),
        Some(0),
        "zero cold solves on the new owner after a warm handoff"
    );
    // The staying graph still answers, untouched.
    client
        .solve(&staying, "ws-q", &[0, 199], None, None)
        .unwrap();

    tier.router.shutdown();
    joiner.shutdown();
    for s in tier.shards {
        s.shutdown();
    }
}
