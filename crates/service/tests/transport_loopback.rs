//! Frontend tests: framing across partial reads, pipelining,
//! backpressure, drain — run against both binaries that serve through
//! the line frontend: `mwc-server`, and `mwc-router` over one shard. The
//! golden transcripts pin each binary's wire bytes.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mwc_service::router::{self, RouterConfig, RouterHandle, ShardSpec};
use mwc_service::{
    server, Catalog, CoalesceConfig, Metrics, PipelinedClient, ServerConfig, ServerHandle,
};

/// Which binary the client talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Front {
    Server,
    Router,
}

const FRONTS: [Front; 2] = [Front::Server, Front::Router];

/// A server, and (for [`Front::Router`]) a router over it as its one
/// shard.
struct Tier {
    server: ServerHandle,
    router: Option<RouterHandle>,
}

impl Tier {
    fn start(front: Front, catalog: Catalog, server: ServerConfig, router: RouterConfig) -> Tier {
        // Fast shutdown polls keep the drain tests snappy.
        let poll_interval = Duration::from_millis(10);
        let server = server::start(
            Arc::new(catalog),
            ServerConfig {
                poll_interval,
                ..server
            },
            "127.0.0.1:0",
        )
        .expect("bind server");
        let router = (front == Front::Router).then(|| {
            let shard = ShardSpec::new("shard-0", server.local_addr().to_string());
            let config = RouterConfig {
                poll_interval,
                ..router
            };
            router::start(vec![shard], config, "127.0.0.1:0").expect("bind router")
        });
        Tier { server, router }
    }

    fn karate(front: Front, server: ServerConfig, router: RouterConfig) -> Tier {
        let catalog = Catalog::new();
        catalog.load("karate", "karate").unwrap();
        Tier::start(front, catalog, server, router)
    }

    /// Where clients connect.
    fn addr(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.local_addr(),
            None => self.server.local_addr(),
        }
    }

    /// The frontend counters of the binary clients talk to.
    fn metrics(&self) -> &Metrics {
        match &self.router {
            Some(r) => r.metrics(),
            None => self.server.metrics(),
        }
    }

    fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        self.server.shutdown();
    }

    /// Waits for a protocol `shutdown` sent to the front, then stops the
    /// rest of the tier.
    fn wait(self) {
        match self.router {
            Some(r) => {
                r.wait();
                self.server.shutdown();
            }
            None => self.server.wait(),
        }
    }
}

fn read_response_line(stream: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let n = stream.read_line(&mut line).expect("read response");
    assert!(n > 0, "connection closed before a response arrived");
    line
}

/// A request frame split at *every* byte boundary must reassemble: the
/// two halves are written as separate TCP segments (a flush + delay in
/// between forces distinct reads on the serving side).
#[test]
fn frames_reassemble_across_every_split_point() {
    for front in FRONTS {
        let tier = Tier::karate(front, ServerConfig::default(), RouterConfig::default());
        let request = b"{\"cmd\":\"ping\",\"id\":7}\n";
        for split in 0..request.len() {
            let mut stream = TcpStream::connect(tier.addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            stream.write_all(&request[..split]).unwrap();
            stream.flush().unwrap();
            // Let the first fragment arrive (and be parked in the
            // frontend's reassembly buffer) before the rest follows.
            std::thread::sleep(Duration::from_millis(2));
            stream.write_all(&request[split..]).unwrap();
            stream.flush().unwrap();
            let mut reader = BufReader::new(stream);
            let line = read_response_line(&mut reader);
            assert!(
                line.contains("\"pong\":true") && line.contains("\"id\":7"),
                "{front:?} split at {split}: {line}"
            );
        }
        tier.shutdown();
    }
}

/// Many frames arriving in arbitrary-sized chunks (7-byte writes) must
/// come back as one response per frame, in order.
#[test]
fn chunked_burst_yields_one_response_per_frame_in_order() {
    for front in FRONTS {
        let tier = Tier::karate(front, ServerConfig::default(), RouterConfig::default());
        let mut burst = Vec::new();
        for id in 1..=10u64 {
            burst.extend_from_slice(format!("{{\"cmd\":\"ping\",\"id\":{id}}}\n").as_bytes());
        }
        let mut stream = TcpStream::connect(tier.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        for chunk in burst.chunks(7) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
        }
        let mut reader = BufReader::new(stream);
        for id in 1..=10u64 {
            let line = read_response_line(&mut reader);
            assert!(
                line.contains(&format!("\"id\":{id}")),
                "{front:?}: out-of-order or dropped response: {line}"
            );
        }
        tier.shutdown();
    }
}

/// Pipelined solves under coalescing: all solves land in one flush
/// window (which reorders their *execution*), yet responses come back in
/// request order on the wire, interleaved control traffic included.
#[test]
fn pipelined_responses_keep_request_order_under_coalescing() {
    for front in FRONTS {
        let server = ServerConfig {
            coalesce: CoalesceConfig {
                window: Duration::from_millis(30),
                ..CoalesceConfig::default()
            },
            ..ServerConfig::default()
        };
        let tier = Tier::karate(front, server, RouterConfig::default());
        let mut client = PipelinedClient::connect(tier.addr()).unwrap();
        let mut sent = Vec::new();
        for i in 0..8u64 {
            let q: Vec<u32> = if i % 2 == 0 {
                vec![0, 33]
            } else {
                vec![11, 24, 25]
            };
            sent.push(client.send_solve("karate", "ws-q", &q, None).unwrap());
            if i == 3 {
                sent.push(client.send(vec![("cmd", "ping".into())]).unwrap());
            }
        }
        // Collect in reverse: recv_until must buffer the earlier
        // responses it reads past, proving both order and matching.
        for id in sent.iter().rev() {
            let v = client.recv_until(*id).unwrap();
            assert_eq!(
                v.get("ok").and_then(|b| b.as_bool()),
                Some(true),
                "{front:?}"
            );
        }
        tier.shutdown();
    }
}

/// An oversized line is rejected with `bad_request` naming the cap, and
/// the connection closes (framing is lost).
#[test]
fn oversized_line_rejected_then_closed() {
    for front in FRONTS {
        let tier = Tier::karate(
            front,
            ServerConfig {
                max_line_bytes: 256,
                ..ServerConfig::default()
            },
            RouterConfig {
                max_line_bytes: 256,
                ..RouterConfig::default()
            },
        );
        let mut stream = TcpStream::connect(tier.addr()).unwrap();
        let big = vec![b'x'; 1024];
        stream.write_all(&big).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let line = read_response_line(&mut reader);
        assert!(
            line.contains("bad_request") && line.contains("exceeds 256 bytes"),
            "{front:?}: {line}"
        );
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).unwrap(),
            0,
            "{front:?}: connection must close after a too-long line"
        );
        tier.shutdown();
    }
}

/// Shutdown pipelined behind solves on the same connection: every solve
/// is answered, the ack arrives after them (request order), then EOF —
/// nothing parked is dropped. The server's shutdown also drains its
/// coalescing windows early: its 5 s window must not hold the ack back.
/// A router's shutdown leaves its shard running, so there the shard's
/// window is short and the router's drain waits for the relays.
#[test]
fn pipelined_requests_drain_before_shutdown_ack() {
    for front in FRONTS {
        let window = match front {
            // A window far longer than the test: only the shutdown
            // drain can flush it in time.
            Front::Server => Duration::from_secs(5),
            Front::Router => Duration::from_millis(200),
        };
        let server = ServerConfig {
            coalesce: CoalesceConfig {
                window,
                ..CoalesceConfig::default()
            },
            ..ServerConfig::default()
        };
        let tier = Tier::karate(front, server, RouterConfig::default());
        let mut burst = Vec::new();
        for id in 1..=3u64 {
            burst.extend_from_slice(
                format!(
                    "{{\"cmd\":\"solve\",\"graph\":\"karate\",\"solver\":\"ws-q\",\
                     \"q\":[0,33],\"id\":{id}}}\n"
                )
                .as_bytes(),
            );
        }
        burst.extend_from_slice(b"{\"cmd\":\"shutdown\",\"id\":99}\n");
        let started = Instant::now();
        let mut stream = TcpStream::connect(tier.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.write_all(&burst).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let mut responses = Vec::new();
        for _ in 0..4 {
            responses.push(read_response_line(&mut reader));
        }
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "{front:?}: the drain must not wait out the 5 s window"
        );
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).unwrap(),
            0,
            "{front:?}: EOF after the last pipelined response"
        );
        for (id, solve) in (1..=3u64).zip(&responses) {
            assert!(
                solve.contains(&format!("\"id\":{id}")) && solve.contains("\"connector\""),
                "{front:?}: parked solve {id} was dropped or reordered: {responses:?}"
            );
        }
        assert!(
            responses[3].contains("\"id\":99") && responses[3].contains("\"stopping\":true"),
            "{front:?}: the ack comes last, got {responses:?}"
        );
        tier.wait();
    }
}

/// `connections_live` is authoritative from the frontend's connection
/// table: it counts exactly the open connections, and returns to zero
/// when they close.
#[test]
fn connections_live_gauge_tracks_open_connections() {
    for front in FRONTS {
        let tier = Tier::karate(front, ServerConfig::default(), RouterConfig::default());
        let gauge = |t: &Tier| t.metrics().connections_live.load(Ordering::Relaxed);
        assert_eq!(gauge(&tier), 0, "{front:?}");
        let mut conns = Vec::new();
        for i in 1..=3u64 {
            let mut c = mwc_service::Client::connect(tier.addr()).unwrap();
            c.ping().unwrap(); // fully accepted and serving
            conns.push(c);
            assert_eq!(gauge(&tier), i, "{front:?}");
        }
        drop(conns);
        let deadline = Instant::now() + Duration::from_secs(5);
        while gauge(&tier) != 0 {
            assert!(
                Instant::now() < deadline,
                "{front:?}: connections_live stuck at {}",
                gauge(&tier)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        tier.shutdown();
    }
}

/// A `load` the generator cannot build (`ba:5x10`: k ≥ n) costs one
/// response: it is refused at parse time with a non-retryable
/// `bad_source`, the request pipelined behind it is answered, and the
/// binary keeps serving with every worker alive.
#[test]
fn unbuildable_load_is_refused_and_serving_continues() {
    for front in FRONTS {
        let tier = Tier::karate(front, ServerConfig::default(), RouterConfig::default());
        let mut stream = TcpStream::connect(tier.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(
                b"{\"cmd\":\"load\",\"name\":\"bad\",\"source\":\"ba:5x10\",\"id\":1}\n\
                  {\"cmd\":\"ping\",\"id\":2}\n",
            )
            .unwrap();
        let mut reader = BufReader::new(stream);
        let load = read_response_line(&mut reader);
        assert!(
            load.contains("\"code\":\"bad_source\"")
                && load.contains("\"retryable\":false")
                && load.contains("\"id\":1"),
            "{front:?}: {load}"
        );
        let ping = read_response_line(&mut reader);
        assert!(
            ping.contains("\"pong\":true") && ping.contains("\"id\":2"),
            "{front:?}: {ping}"
        );
        let mut client = mwc_service::Client::connect(tier.addr()).unwrap();
        for q in [[0, 33], [5, 16], [2, 25]] {
            let report = client.solve("karate", "ws-q", &q, None, None).unwrap();
            assert!(report.connector.contains(&q[0]), "{front:?}");
        }
        assert!(client.graphs().unwrap().iter().all(|g| g.name != "bad"));
        assert_eq!(
            tier.server.metrics().panics_total.load(Ordering::Relaxed),
            0,
            "{front:?}"
        );
        tier.shutdown();
    }
}

/// Weighted solves over the wire are pinned to the direct engine call:
/// the same catalog entry answers a `wba:` graph's query locally and
/// through a TCP round trip, and the connector, weighted Wiener index,
/// and candidate count must coincide. The `graphs` listing must also
/// advertise the weighting.
#[test]
fn weighted_wire_solves_match_direct_engine_calls() {
    let queries: [&[u32]; 3] = [&[2, 190, 377], &[5, 41], &[77, 200, 350, 399]];
    for front in FRONTS {
        let catalog = Catalog::new();
        let entry = catalog.load("wtoy", "wba:400x3").unwrap();
        let direct: Vec<_> = queries
            .iter()
            .map(|q| {
                entry
                    .solve("ws-q", q, &mwc_core::QueryOptions::default())
                    .unwrap()
            })
            .collect();
        let tier = Tier::start(
            front,
            catalog,
            ServerConfig::default(),
            RouterConfig::default(),
        );
        let mut client = mwc_service::Client::connect(tier.addr()).unwrap();
        let info = client.graphs().unwrap();
        assert!(
            info.iter().any(|g| g.name == "wtoy" && g.weighted),
            "{front:?}: graphs listing must flag the weighted entry"
        );
        for (q, want) in queries.iter().zip(&direct) {
            let wire = client.solve("wtoy", "ws-q", q, None, None).unwrap();
            assert_eq!(
                wire.connector,
                want.connector.vertices(),
                "{front:?} q={q:?}"
            );
            assert_eq!(wire.wiener_index, want.wiener_index, "{front:?} q={q:?}");
            assert_eq!(wire.candidates, want.candidates, "{front:?} q={q:?}");
        }
        tier.shutdown();
    }
}

/// Backpressure: a client that never reads its responses is
/// disconnected once its unwritten backlog crosses the write cap (both
/// binaries run the default, 8 MiB), instead of being buffered without
/// bound.
///
/// One `ping` whose echoed `id` is 16 MiB makes the disconnect
/// deterministic: the kernel's socket buffers take at most a few MiB of
/// its response, so the rest alone is over the cap. (Smaller responses
/// cannot cross it: handling and reading pause at half the cap, and a
/// router relays one request of a connection at a time.)
#[test]
fn slow_client_is_disconnected_at_the_write_cap() {
    let id = "x".repeat(16 << 20);
    let request = format!("{{\"cmd\":\"ping\",\"id\":\"{id}\"}}\n");
    drop(id);
    let max_line_bytes = 32 << 20;
    for front in FRONTS {
        let tier = Tier::karate(
            front,
            ServerConfig {
                max_line_bytes,
                ..ServerConfig::default()
            },
            RouterConfig {
                max_line_bytes,
                ..RouterConfig::default()
            },
        );
        let mut stream = TcpStream::connect(tier.addr()).unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The frontend reads the whole line: nothing is backlogged yet.
        stream.write_all(request.as_bytes()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while tier
            .metrics()
            .slow_client_disconnects
            .load(Ordering::Relaxed)
            == 0
        {
            assert!(
                Instant::now() < deadline,
                "{front:?}: the non-reading client was never disconnected"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // And the socket observes the cut: what the kernel buffered of the
        // response, then EOF or reset — never the whole response.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut received = 0usize;
        let mut buf = vec![0u8; 64 << 10];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => received += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    panic!("{front:?}: no EOF/reset after disconnect")
                }
                Err(_) => break, // reset also counts
            }
        }
        assert!(
            received < request.len(),
            "{front:?}: the whole response arrived ({received} bytes)"
        );
        tier.shutdown();
    }
}

/// Replaces the number after `"seconds":` with 0: a solve's timing is
/// the one field of these transcripts that differs run to run.
fn mask_seconds(line: &str) -> String {
    const KEY: &str = "\"seconds\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        rest = &rest[at + KEY.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        out.push('0');
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// Replays a committed request → response transcript lockstep on one
/// connection and compares every response byte for byte, after masking
/// solve timings and the shard's ephemeral address.
fn replay_transcript(front: Front, transcript: &str) {
    let tier = Tier::karate(front, ServerConfig::default(), RouterConfig::default());
    let shard_addr = tier.server.local_addr().to_string();
    let stream = TcpStream::connect(tier.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let (mut expected, mut actual) = (Vec::new(), Vec::new());
    for line in transcript.lines() {
        if let Some(request) = line.strip_prefix("> ") {
            writer.write_all(request.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let response = read_response_line(&mut reader);
            let masked = mask_seconds(response.trim_end()).replace(&shard_addr, "SHARD_ADDR");
            actual.push(format!("> {request}\n< {masked}"));
        } else if let Some(response) = line.strip_prefix("< ") {
            expected.push(response.to_string());
        }
    }
    tier.shutdown();
    let responses: Vec<&str> = actual
        .iter()
        .map(|pair| pair.split_once("\n< ").unwrap().1)
        .collect();
    assert_eq!(
        responses,
        expected,
        "{front:?} transcript differs; the replay read:\n{}",
        actual.join("\n")
    );
}

/// Golden transcripts: ping, a solve, a non-JSON line, an unknown
/// command, a missing graph and `shard`, each answered byte for byte as
/// committed — once by `mwc-server`, once through `mwc-router`.
#[test]
fn golden_transcripts_replay_on_server_and_router() {
    replay_transcript(Front::Server, include_str!("golden/server.txt"));
    replay_transcript(Front::Router, include_str!("golden/router.txt"));
}
