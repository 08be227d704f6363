//! `mwc-router` — the consistent-hash front-end for sharded serving.
//!
//! ```text
//! mwc-router [--listen ADDR] --shard NAME=ADDR [--shard NAME=ADDR]...
//!            [--replicas R] [--vnodes N] [--fail-threshold N]
//!            [--reprobe-ms N] [--backend-timeout-ms N]
//!
//!   --listen ADDR           bind address (default 127.0.0.1:7070)
//!   --shard NAME=ADDR       a backend mwc-server; repeatable, required.
//!                           NAME is the ring identity (keep it stable
//!                           across restarts), ADDR its host:port.
//!   --replicas R            copies of each graph across the ring
//!                           (default 1; clamped to the shard count).
//!                           Reads pick among replicas and fall through
//!                           on failure; loads/evicts fan out to all.
//!   --vnodes N              virtual nodes per shard (default 64)
//!   --fail-threshold N      consecutive failures before a shard is
//!                           ejected (default 3)
//!   --reprobe-ms N          how often ejected shards are pinged
//!                           (default 500)
//!   --backend-timeout-ms N  read timeout on backend replies
//!                           (default 30000)
//! ```
//!
//! The router speaks the same newline-delimited JSON protocol as
//! `mwc-server` on both sides: point `mwc-client` (or `loadgen
//! --addr`) at it and every graph-addressed command is routed to the
//! shard(s) the ring assigns that graph name to. The ring can be
//! changed live with the `reshard` control command, which streams
//! graph sources and warm solve caches to their new owners before
//! flipping routing. Clients may pipeline (the router relays one
//! request of a connection at a time): the router serves through the
//! same epoll line frontend as `mwc-server`, so serving is Linux-only. Stop the router with `mwc-client <addr> shutdown` — the
//! backends keep running.

use std::process::ExitCode;
use std::time::Duration;

use mwc_service::router::{self, RouterConfig, ShardSpec};

fn usage() -> ! {
    eprintln!(
        "usage: mwc-router [--listen ADDR] --shard NAME=ADDR [--shard NAME=ADDR]... \
         [--replicas R] [--vnodes N] [--fail-threshold N] [--reprobe-ms N] \
         [--backend-timeout-ms N]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut listen = "127.0.0.1:7070".to_string();
    let mut shards: Vec<ShardSpec> = Vec::new();
    let mut config = RouterConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--listen" => listen = value("--listen"),
            "--shard" => {
                let spec = value("--shard");
                match spec.split_once('=') {
                    Some((name, addr)) if !name.is_empty() && !addr.is_empty() => {
                        shards.push(ShardSpec::new(name, addr));
                    }
                    _ => {
                        eprintln!("--shard expects NAME=ADDR, got {spec:?}");
                        usage();
                    }
                }
            }
            "--replicas" => {
                config.replicas = value("--replicas").parse().unwrap_or_else(|_| usage());
                if config.replicas == 0 {
                    eprintln!("--replicas must be at least 1");
                    usage();
                }
            }
            "--vnodes" => config.vnodes = value("--vnodes").parse().unwrap_or_else(|_| usage()),
            "--fail-threshold" => {
                config.fail_threshold = value("--fail-threshold")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--reprobe-ms" => {
                config.reprobe_interval =
                    Duration::from_millis(value("--reprobe-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--backend-timeout-ms" => {
                config.backend_timeout = Duration::from_millis(
                    value("--backend-timeout-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    if shards.is_empty() {
        eprintln!("at least one --shard NAME=ADDR is required");
        usage();
    }

    let handle = match router::start(shards, config, listen.as_str()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("mwc-router: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ring = handle.ring();
    eprintln!(
        "mwc-router listening on {} ({} shards × {} vnodes, {} replica(s): {}); \
         stop with: mwc-client {} shutdown",
        handle.local_addr(),
        ring.len(),
        ring.vnodes(),
        handle.replicas(),
        ring.shards().join(", "),
        handle.local_addr()
    );
    handle.wait();
    eprintln!("mwc-router: drained and stopped (backends left running)");
    ExitCode::SUCCESS
}
