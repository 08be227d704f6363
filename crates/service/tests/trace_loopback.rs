//! End-to-end observability tests over loopback TCP: traced solves
//! return a well-formed span tree whose stages appear in pipeline order
//! and nest their durations, the router wraps a shard's tree under its
//! own routing spans without losing the trace id, the slow-query log
//! captures deliberately slow requests, and the Prometheus exposition
//! parses and agrees with the `stats` counters.

use std::sync::Arc;
use std::time::Duration;

use mwc_graph::NodeId;
use mwc_service::json::Json;
use mwc_service::router::{self, RouterConfig, ShardSpec};
use mwc_service::{server, Catalog, Client, RouterClient, ServerConfig};

fn start_server(config: ServerConfig) -> server::ServerHandle {
    let catalog = Arc::new(Catalog::new());
    catalog.load("karate", "karate").unwrap();
    server::start(catalog, config, "127.0.0.1:0").expect("bind loopback")
}

// --- span-tree accessors (raw wire JSON) --------------------------------

fn name(node: &Json) -> &str {
    node.get("name").and_then(Json::as_str).unwrap()
}

fn start_us(node: &Json) -> u64 {
    node.get("start_us").and_then(Json::as_u64).unwrap()
}

fn dur_us(node: &Json) -> u64 {
    node.get("dur_us").and_then(Json::as_u64).unwrap()
}

fn children(node: &Json) -> &[Json] {
    node.get("children").and_then(Json::as_array).unwrap_or(&[])
}

fn child<'a>(node: &'a Json, want: &str) -> Option<&'a Json> {
    children(node).iter().find(|c| name(c) == want)
}

fn counter(node: &Json, key: &str) -> Option<u64> {
    node.get("counters")?.get(key)?.as_u64()
}

/// The traced-solve contract: the inline tree carries a trace id, drops
/// nothing, roots at `solve`, and its children are the pipeline stages
/// in submission order with durations that sum to at most the root's.
/// Tracing must not perturb the answer.
#[test]
fn traced_solve_returns_pipeline_span_tree() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let q: &[NodeId] = &[11, 24, 25, 29];

    // Traced solve first: the cold miss exercises the full pipeline
    // (a later repeat would short-circuit at `cache_lookup`).
    let (traced, tree) = client
        .solve_traced("karate", "ws-q", q, None, None, false)
        .unwrap();
    let plain = client
        .solve_opts("karate", "ws-q", q, None, None, true)
        .unwrap();
    assert_eq!(plain.connector, traced.connector, "tracing changed answer");
    assert_eq!(plain.wiener_index, traced.wiener_index);

    let tree = tree.expect("trace:true returns an inline tree");
    let trace_id = tree.get("trace_id").and_then(Json::as_str).unwrap();
    assert_eq!(trace_id.len(), 16, "server-pinned id is 16 hex: {trace_id}");
    assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()));
    assert_eq!(tree.get("dropped").and_then(Json::as_u64), Some(0));

    let root = tree.get("root").unwrap();
    assert_eq!(name(root), "solve");
    assert_eq!(start_us(root), 0, "root starts at the request origin");

    // Every expected stage is present, in pipeline order. (The coalesced
    // and direct paths differ only in an optional `coalesce_wait` between
    // admission and the engine stages, so order is checked on the stages'
    // first occurrences rather than on fixed child indices. `feasibility`
    // is checked for presence and containment only: ws-q folds the
    // feasibility batches into the shared multi-source sweeps, so its
    // span can start inside `root_sweep`'s window.)
    let expected = [
        "admission",
        "cache_lookup",
        "root_sweep",
        "evaluate",
        "serialize",
    ];
    let mut last = 0u64;
    for stage in expected {
        let span =
            child(root, stage).unwrap_or_else(|| panic!("stage {stage} missing from {tree}"));
        assert!(
            start_us(span) >= last,
            "{stage} starts at {} before the previous stage at {last}",
            start_us(span)
        );
        last = start_us(span);
        assert!(
            start_us(span) + dur_us(span) <= start_us(root) + dur_us(root),
            "{stage} extends past its parent"
        );
    }
    let feas = child(root, "feasibility")
        .unwrap_or_else(|| panic!("stage feasibility missing from {tree}"));
    assert!(start_us(feas) + dur_us(feas) <= start_us(root) + dur_us(root));

    // Sibling stages of a traced solve never overlap, so their durations
    // sum to at most the root's.
    let sum: u64 = children(root).iter().map(dur_us).sum();
    assert!(
        sum <= dur_us(root),
        "children sum {sum}us > root {}us",
        dur_us(root)
    );

    // Kernel counters surface on the sweep span; the fresh solve misses
    // the cache.
    let sweep = child(root, "root_sweep").unwrap();
    assert!(counter(sweep, "roots").unwrap() >= 1);
    assert!(counter(sweep, "lanes").is_some());
    // Every (root, λ) candidate comes from a Steiner call or from a tree
    // reused across the certified λ regime (none for this query: only
    // λ = 8 certifies), its time accumulated across the sweep workers.
    let steiner_calls = counter(sweep, "steiner_calls").unwrap();
    assert!(steiner_calls >= 1);
    let steiner_reused = counter(sweep, "steiner_reused").unwrap();
    assert_eq!(
        Some(steiner_calls + steiner_reused),
        counter(sweep, "candidates")
    );
    assert!(counter(sweep, "steiner_us").is_some());
    assert!(counter(sweep, "evaluate_a_us").is_some());
    assert_eq!(
        counter(child(root, "cache_lookup").unwrap(), "hit"),
        Some(0)
    );

    // An untraced solve stays untraced: no tree rides along.
    let raw = client
        .roundtrip_line(r#"{"cmd":"solve","graph":"karate","solver":"ws-q","q":[0,33]}"#)
        .unwrap();
    assert!(!raw.contains("\"trace\""), "untraced response grew a tree");
    handle.shutdown();
}

/// With Q = {0, 33} on karate, root 0 (`ecc_r` 3, `h_Q` 2, so
/// `B_r` = 15) certifies λ ∈ {4, 8}: the sweep reuses the λ = 4 tree
/// at λ = 8 instead of calling Steiner again, and the answer is the
/// untraced one.
#[test]
fn traced_solve_reports_reused_steiner_trees() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let q: &[NodeId] = &[0, 33];
    let (traced, tree) = client
        .solve_traced("karate", "ws-q", q, None, None, true)
        .unwrap();
    let plain = client
        .solve_opts("karate", "ws-q", q, None, None, true)
        .unwrap();
    assert_eq!(plain.connector, traced.connector);
    assert_eq!(plain.wiener_index, traced.wiener_index);

    let tree = tree.expect("trace:true returns an inline tree");
    let sweep = child(tree.get("root").unwrap(), "root_sweep").unwrap();
    let calls = counter(sweep, "steiner_calls").unwrap();
    let reused = counter(sweep, "steiner_reused").unwrap();
    assert!(reused > 0, "no reuse in {tree}");
    assert_eq!(Some(calls + reused), counter(sweep, "candidates"));
    handle.shutdown();
}

/// A traced request through the router keeps its caller-chosen trace id
/// across the process hop, and the shard's tree comes back nested under
/// the router's `route` → `backend_rtt` spans with composing durations.
#[test]
fn router_wraps_shard_tree_under_route_spans_with_same_id() {
    let shards: Vec<server::ServerHandle> = (0..2)
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
    let tier = router::start(specs, RouterConfig::default(), "127.0.0.1:0").expect("bind router");
    let mut client = RouterClient::connect(tier.local_addr()).unwrap();
    client.load("g0", "ba:200x2").unwrap();
    let owner = tier.ring().route("g0").to_string();

    let raw = client
        .inner()
        .roundtrip_line(
            r#"{"cmd":"solve","graph":"g0","solver":"ws-q","q":[0,199],"trace":true,"trace_id":"cafe0123cafe0123","id":"t1"}"#,
        )
        .unwrap();
    let v = mwc_service::json::parse(raw.trim()).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{raw}");
    let tree = v.get("trace").expect("routed trace rides inline");
    assert_eq!(
        tree.get("trace_id").and_then(Json::as_str),
        Some("cafe0123cafe0123"),
        "trace id must survive the router → shard hop"
    );

    let route = tree.get("root").unwrap();
    assert_eq!(name(route), "route");
    let rtt = child(route, "backend_rtt").expect("router annotates the forward");
    assert_eq!(
        rtt.get("shard").and_then(Json::as_str),
        Some(owner.as_str()),
        "backend_rtt names the owning shard"
    );
    let solve = child(rtt, "solve").expect("shard tree nests under backend_rtt");
    assert!(child(solve, "root_sweep").is_some(), "shard stages survive");

    // Clocks across processes are unsynchronized; only durations compose.
    assert!(dur_us(solve) <= dur_us(rtt), "shard solve exceeds the rtt");
    assert!(dur_us(rtt) <= dur_us(route), "rtt exceeds the route total");

    tier.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// The always-on slow-query ring: a deliberately slow request lands in
/// the log with its duration and shape, fast requests stay out, and the
/// `slowlog` command serves entries newest-first.
#[test]
fn slowlog_captures_slow_requests_and_skips_fast_ones() {
    let config = ServerConfig {
        slowlog_threshold: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let handle = start_server(config);
    let mut client = Client::connect(handle.local_addr()).unwrap();

    client
        .solve("karate", "ws-q", &[0, 33], None, None)
        .unwrap(); // fast: stays out
    client.burn(350).unwrap(); // slow: logged

    let entries = client.slowlog(None).unwrap();
    assert_eq!(entries.len(), 1, "only the burn crosses 200ms: {entries:?}");
    let e = &entries[0];
    assert_eq!(e.get("cmd").and_then(Json::as_str), Some("burn"));
    assert_eq!(e.get("burn_ms").and_then(Json::as_u64), Some(350));
    assert_eq!(e.get("ok").and_then(Json::as_bool), Some(true));
    assert!(e.get("total_ms").and_then(Json::as_f64).unwrap() >= 350.0);
    assert!(e.get("age_s").and_then(Json::as_f64).is_some());

    // A second slow request surfaces first (newest-first), and `limit`
    // caps the answer.
    client.burn(250).unwrap();
    let entries = client.slowlog(None).unwrap();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].get("burn_ms").and_then(Json::as_u64), Some(250));
    assert_eq!(client.slowlog(Some(1)).unwrap().len(), 1);
    handle.shutdown();
}

/// With a zero threshold every request is logged, and a traced solve's
/// slowlog entry carries the same trace id the caller pinned — the
/// cross-exposure join key.
#[test]
fn slowlog_entries_join_traces_by_id() {
    let config = ServerConfig {
        slowlog_threshold: Duration::ZERO,
        ..ServerConfig::default()
    };
    let handle = start_server(config);
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let raw = client
        .roundtrip_line(
            r#"{"cmd":"solve","graph":"karate","solver":"ws-q","q":[0,33],"trace":true,"trace_id":"feed4567feed4567"}"#,
        )
        .unwrap();
    assert!(raw.contains("\"ok\":true"), "{raw}");

    let entries = client.slowlog(None).unwrap();
    let entry = entries
        .iter()
        .find(|e| e.get("trace_id").and_then(Json::as_str) == Some("feed4567feed4567"))
        .unwrap_or_else(|| panic!("traced solve missing from {entries:?}"));
    assert_eq!(entry.get("cmd").and_then(Json::as_str), Some("solve"));
    assert_eq!(entry.get("graph").and_then(Json::as_str), Some("karate"));
    assert_eq!(entry.get("solver").and_then(Json::as_str), Some("ws-q"));
    assert_eq!(entry.get("q_len").and_then(Json::as_u64), Some(2));
    handle.shutdown();
}

/// The `metrics` command emits parseable Prometheus text whose counters
/// agree with the `stats` document, including the per-stage histograms
/// the tracing pipeline feeds.
#[test]
fn metrics_exposition_parses_and_matches_stats() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    for _ in 0..3 {
        client
            .solve("karate", "ws-q", &[11, 24, 25, 29], None, None)
            .unwrap();
    }
    assert!(client.solve("karate", "ws-q", &[999], None, None).is_err());

    let text = client.metrics_text().unwrap();
    let mut requests_total = None;
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(comment) = line.strip_prefix('#') {
            assert!(
                comment.starts_with(" HELP ") || comment.starts_with(" TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        // Sample lines are `name[{labels}] value` with a float value.
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line}");
        });
        assert!(!series.is_empty(), "empty series name: {line}");
        let parsed: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in: {line}"));
        assert!(parsed >= 0.0, "negative sample: {line}");
        if series == "mwc_requests_total" {
            requests_total = Some(parsed as u64);
        }
    }
    let requests_total = requests_total.expect("exposition carries mwc_requests_total");
    assert!(requests_total >= 4, "4 solves issued, saw {requests_total}");

    // The stage histograms the tracing pipeline feeds are exposed.
    for stage in ["admission", "solve", "serialize", "write"] {
        assert!(
            text.contains(&format!(
                "mwc_stage_duration_seconds_count{{stage=\"{stage}\"}}"
            )),
            "stage {stage} missing from exposition"
        );
    }
    assert!(text.contains("mwc_solve_duration_seconds_bucket{solver=\"ws-q\",le=\"+Inf\"}"));

    // Exposition and stats agree (stats runs one request later, so it
    // may only ever be ahead).
    let stats = client.stats().unwrap();
    let stats_total = stats
        .get("requests")
        .unwrap()
        .get("total")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        stats_total >= requests_total && stats_total <= requests_total + 2,
        "stats total {stats_total} vs exposition {requests_total}"
    );
    let live = stats
        .get("process")
        .unwrap()
        .get("connections_live")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(live >= 1, "this very connection is live");
    assert!(text.contains("mwc_connections_live"));
    assert!(text.contains("mwc_uptime_seconds"));
    handle.shutdown();
}
