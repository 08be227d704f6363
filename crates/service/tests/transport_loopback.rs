//! Transport-layer tests: framing across partial reads, pipelining,
//! backpressure, drain — run against *both* transports (epoll and
//! threads) where semantics are shared, so the two stay wire-compatible.
//! The epoll-only behaviors (write-buffer cap, pipelined concurrency)
//! are pinned separately.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mwc_service::{server, Catalog, CoalesceConfig, PipelinedClient, ServerConfig, Transport};

/// The transports every shared-semantics test runs under.
fn transports() -> Vec<Transport> {
    if cfg!(target_os = "linux") {
        vec![Transport::Threads, Transport::Epoll]
    } else {
        vec![Transport::Threads]
    }
}

fn start_karate(mut config: ServerConfig) -> server::ServerHandle {
    let catalog = Arc::new(Catalog::new());
    catalog.load("karate", "karate").unwrap();
    // Fast shutdown polls keep the drain tests snappy.
    config.poll_interval = Duration::from_millis(10);
    server::start(catalog, config, "127.0.0.1:0").expect("bind loopback")
}

fn read_response_line(stream: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let n = stream.read_line(&mut line).expect("read response");
    assert!(n > 0, "connection closed before a response arrived");
    line
}

/// A request frame split at *every* byte boundary must reassemble: the
/// two halves are written as separate TCP segments (a flush + delay in
/// between forces distinct reads on the server side).
#[test]
fn frames_reassemble_across_every_split_point() {
    for transport in transports() {
        let handle = start_karate(ServerConfig {
            transport,
            ..ServerConfig::default()
        });
        let addr = handle.local_addr();
        let request = b"{\"cmd\":\"ping\",\"id\":7}\n";
        for split in 0..request.len() {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            stream.write_all(&request[..split]).unwrap();
            stream.flush().unwrap();
            // Let the first fragment arrive (and be parked in the
            // server's reassembly buffer) before the rest follows.
            std::thread::sleep(Duration::from_millis(2));
            stream.write_all(&request[split..]).unwrap();
            stream.flush().unwrap();
            let mut reader = BufReader::new(stream);
            let line = read_response_line(&mut reader);
            assert!(
                line.contains("\"pong\":true") && line.contains("\"id\":7"),
                "{transport:?} split at {split}: {line}"
            );
        }
        handle.shutdown();
    }
}

/// Many frames arriving in arbitrary-sized chunks (7-byte writes) must
/// come back as one response per frame, in order.
#[test]
fn chunked_burst_yields_one_response_per_frame_in_order() {
    for transport in transports() {
        let handle = start_karate(ServerConfig {
            transport,
            ..ServerConfig::default()
        });
        let mut burst = Vec::new();
        for id in 1..=10u64 {
            burst.extend_from_slice(format!("{{\"cmd\":\"ping\",\"id\":{id}}}\n").as_bytes());
        }
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
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
                "{transport:?}: out-of-order or dropped response: {line}"
            );
        }
        handle.shutdown();
    }
}

/// Pipelined solves under coalescing: all solves land in one flush
/// window (which reorders their *execution*), yet responses come back in
/// request order on the wire, interleaved control traffic included.
#[test]
fn pipelined_responses_keep_request_order_under_coalescing() {
    for transport in transports() {
        let handle = start_karate(ServerConfig {
            transport,
            coalesce: CoalesceConfig {
                window: Duration::from_millis(30),
                ..CoalesceConfig::default()
            },
            ..ServerConfig::default()
        });
        let mut client = PipelinedClient::connect(handle.local_addr()).unwrap();
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
            assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
        }
        handle.shutdown();
    }
}

/// An oversized line is rejected with `bad_request` naming the cap, and
/// the connection closes (framing is lost) — identically on both
/// transports.
#[test]
fn oversized_line_rejected_then_closed() {
    for transport in transports() {
        let handle = start_karate(ServerConfig {
            transport,
            max_line_bytes: 256,
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let big = vec![b'x'; 1024];
        stream.write_all(&big).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let line = read_response_line(&mut reader);
        assert!(
            line.contains("bad_request") && line.contains("exceeds 256 bytes"),
            "{transport:?}: {line}"
        );
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).unwrap(),
            0,
            "{transport:?}: connection must close after a too-long line"
        );
        handle.shutdown();
    }
}

/// Shutdown pipelined behind solves on the same connection: every solve
/// is answered (the coalescer's 5 s windows are drained early), the ack
/// arrives, then EOF — nothing parked is dropped. Under epoll the wire
/// additionally keeps request order (solves strictly before the ack);
/// the threaded transport only promises delivery, since its reader
/// answers `shutdown` inline while solves sit in the worker queue.
#[test]
fn pipelined_requests_drain_before_shutdown_ack() {
    for transport in transports() {
        let handle = start_karate(ServerConfig {
            transport,
            coalesce: CoalesceConfig {
                // A window far longer than the test: only the shutdown
                // drain can flush it in time.
                window: Duration::from_secs(5),
                ..CoalesceConfig::default()
            },
            ..ServerConfig::default()
        });
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
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
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
            "{transport:?}: drain must cut the 5 s window short"
        );
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).unwrap(),
            0,
            "{transport:?}: EOF after the last pipelined response"
        );
        for id in 1..=3u64 {
            let solve = responses
                .iter()
                .find(|l| l.contains(&format!("\"id\":{id}")))
                .unwrap_or_else(|| panic!("{transport:?}: parked solve {id} was dropped"));
            assert!(solve.contains("\"connector\""), "{transport:?}: {solve}");
        }
        let ack_at = responses
            .iter()
            .position(|l| l.contains("\"id\":99") && l.contains("\"stopping\":true"))
            .unwrap_or_else(|| panic!("{transport:?}: no shutdown ack in {responses:?}"));
        if transport == Transport::Epoll {
            assert_eq!(
                ack_at, 3,
                "epoll answers in request order: ack last, got {responses:?}"
            );
        }
        handle.wait();
    }
}

/// `connections_live` is authoritative from the owning transport's
/// connection table: it counts exactly the open connections, and returns
/// to zero when they close — identically under both transports.
#[test]
fn connections_live_gauge_tracks_open_connections() {
    for transport in transports() {
        let handle = start_karate(ServerConfig {
            transport,
            ..ServerConfig::default()
        });
        let addr = handle.local_addr();
        let gauge = |h: &server::ServerHandle| h.metrics().connections_live.load(Ordering::Relaxed);
        let wait_for = |h: &server::ServerHandle, want: u64| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while gauge(h) != want {
                assert!(
                    Instant::now() < deadline,
                    "{transport:?}: connections_live stuck at {} (want {want})",
                    gauge(h)
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        assert_eq!(gauge(&handle), 0);
        let mut conns = Vec::new();
        for i in 1..=3u64 {
            let mut c = mwc_service::Client::connect(addr).unwrap();
            c.ping().unwrap(); // fully accepted and serving
            conns.push(c);
            assert_eq!(gauge(&handle), i, "{transport:?}");
        }
        drop(conns);
        wait_for(&handle, 0);
        handle.shutdown();
    }
}

/// Weighted solves over the wire are pinned to the direct engine call:
/// the same catalog entry answers a `wba:` graph's query locally and
/// through a TCP round trip, and the connector, weighted Wiener index,
/// and candidate count must coincide — under both transports. The
/// `graphs` listing must also advertise the weighting.
#[test]
fn weighted_wire_solves_match_direct_engine_calls() {
    let queries: [&[u32]; 3] = [&[2, 190, 377], &[5, 41], &[77, 200, 350, 399]];
    for transport in transports() {
        let catalog = Arc::new(Catalog::new());
        let entry = catalog.load("wtoy", "wba:400x3").unwrap();
        let direct: Vec<_> = queries
            .iter()
            .map(|q| {
                entry
                    .solve("ws-q", q, &mwc_core::QueryOptions::default())
                    .unwrap()
            })
            .collect();
        let handle = server::start(
            catalog,
            ServerConfig {
                transport,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind loopback");
        let mut client = mwc_service::Client::connect(handle.local_addr()).unwrap();
        let info = client.graphs().unwrap();
        assert!(
            info.iter().any(|g| g.name == "wtoy" && g.weighted),
            "{transport:?}: graphs listing must flag the weighted entry"
        );
        for (q, want) in queries.iter().zip(&direct) {
            let wire = client.solve("wtoy", "ws-q", q, None, None).unwrap();
            assert_eq!(
                wire.connector,
                want.connector.vertices(),
                "{transport:?} q={q:?}"
            );
            assert_eq!(
                wire.wiener_index, want.wiener_index,
                "{transport:?} q={q:?}"
            );
            assert_eq!(wire.candidates, want.candidates, "{transport:?} q={q:?}");
        }
        handle.shutdown();
    }
}

/// Epoll backpressure: a client that pipelines requests but never reads
/// its responses crosses the per-connection write-buffer cap and is
/// disconnected (instead of growing the buffer without bound).
#[cfg(target_os = "linux")]
#[test]
fn slow_client_is_disconnected_at_the_write_cap() {
    // A cap smaller than one `stats` response makes the disconnect
    // deterministic: once the kernel socket buffers are full (the client
    // never reads), the first unflushable response jumps the backlog
    // from empty straight past the cap — the loop's read-pausing flow
    // control (which kicks in at half the cap) cannot hold it under.
    let handle = start_karate(ServerConfig {
        transport: Transport::Epoll,
        max_write_buffer: 256,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_write_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let metrics = Arc::clone(handle.metrics());
    let req = b"{\"cmd\":\"stats\",\"id\":1}\n";
    let deadline = Instant::now() + Duration::from_secs(20);
    // Flood without ever reading; write timeouts are just kernel-buffer
    // flow control, hard errors mean the server already cut us off.
    while metrics.slow_client_disconnects.load(Ordering::Relaxed) == 0 {
        assert!(
            Instant::now() < deadline,
            "server never disconnected the non-reading client"
        );
        match stream.write(req) {
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    let counted = Instant::now() + Duration::from_secs(5);
    while metrics.slow_client_disconnects.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < counted, "disconnect was not counted");
        std::thread::sleep(Duration::from_millis(5));
    }
    // And the socket observes the cut: EOF or reset, never endless data.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut buf = vec![0u8; 64 << 10];
    let observed = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < observed, "no EOF/reset after disconnect");
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue, // responses buffered before the cut
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => break, // reset also counts
        }
    }
    handle.shutdown();
}

/// Wire parity: the same deterministic request script produces the same
/// response lines under both transports (ids, payloads, error codes —
/// everything except timing-dependent fields, which the script strips).
/// The script runs lockstep: pipelined *order* across the data/control
/// plane boundary is a transport property (epoll totally orders it,
/// threads lets control answers overtake queued solves), but each
/// request's response bytes must match.
#[cfg(target_os = "linux")]
#[test]
fn threads_and_epoll_answer_identically() {
    let script: Vec<String> = vec![
        "{\"cmd\":\"ping\",\"id\":1}".into(),
        "{\"cmd\":\"solve\",\"graph\":\"karate\",\"solver\":\"st\",\"q\":[0,33],\"id\":2}".into(),
        "not json at all".into(),
        "{\"cmd\":\"nope\",\"id\":3}".into(),
        "{\"cmd\":\"solve\",\"graph\":\"missing\",\"solver\":\"st\",\"q\":[1],\"id\":4}".into(),
        "{\"cmd\":\"shard\",\"graph\":\"karate\",\"id\":5}".into(),
    ];
    let run = |transport: Transport| -> Vec<String> {
        let handle = start_karate(ServerConfig {
            transport,
            ..ServerConfig::default()
        });
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let responses = script
            .iter()
            .map(|request| {
                writer.write_all(request.as_bytes()).unwrap();
                writer.write_all(b"\n").unwrap();
                writer.flush().unwrap();
                // Strip the one timing field a solve response carries.
                let line = read_response_line(&mut reader);
                let mut v = mwc_service::json::parse(line.trim()).unwrap();
                if let mwc_service::Json::Obj(fields) = &mut v {
                    if let Some(mwc_service::Json::Obj(report)) = fields.get_mut("report") {
                        report.remove("seconds");
                    }
                }
                v.to_string()
            })
            .collect();
        handle.shutdown();
        responses
    };
    assert_eq!(run(Transport::Threads), run(Transport::Epoll));
}
