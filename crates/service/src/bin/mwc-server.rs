//! `mwc-server` — serve Minimum Wiener Connector queries over TCP.
//!
//! ```text
//! mwc-server [--listen ADDR] [--graph NAME=SPEC]... [--workers N]
//!            [--queue N] [--cache-bytes N] [--cache-ttl SECS]
//!            [--no-coalesce] [--coalesce-window-us N] [--slowlog-ms N]
//!
//!   --listen ADDR     bind address (default 127.0.0.1:7171)
//!   --graph NAME=SPEC load a graph at startup; repeatable. SPEC is
//!                     karate | standin:<name>[@scale] | file:<path> |
//!                     ba:<n>x<k>   (default: karate=karate)
//!   --empty           start with no graphs at all (shard backends get
//!                     their graphs from mwc-router `load`s; the default
//!                     karate would shadow ring placement in `graphs`)
//!   --workers N       solver worker threads (default: cores, max 8)
//!   --queue N         admission queue capacity (default 64)
//!   --cache-bytes N   per-graph solve-cache byte budget (0 disables
//!                     caching; default: engine default, 16 MiB)
//!   --cache-ttl SECS  per-graph solve-cache time-to-live in (fractional)
//!                     seconds (default: entries live until displaced)
//!   --no-coalesce     disable cross-request solve coalescing (on by
//!                     default; see the README's "Cross-request
//!                     coalescing" section)
//!   --coalesce-window-us N
//!                     coalescing flush window in microseconds
//!                     (default 300)
//!   --slowlog-ms N    slow-query log threshold in milliseconds; any
//!                     request slower than this lands in the `slowlog`
//!                     ring (default 100, 0 logs everything)
//! ```
//!
//! One epoll event-loop thread serves every connection (pipelined,
//! bounded write buffers), so serving is Linux-only. The process serves
//! until a protocol `shutdown` command arrives (`mwc-client <addr>
//! shutdown`), then drains in-flight work and exits.

use std::process::ExitCode;
use std::sync::Arc;

use mwc_service::{server, Catalog, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: mwc-server [--listen ADDR] [--graph NAME=SPEC]... [--empty] [--workers N] \
         [--queue N] [--cache-bytes N] [--cache-ttl SECS] [--no-coalesce] \
         [--coalesce-window-us N] [--slowlog-ms N]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut listen = "127.0.0.1:7171".to_string();
    let mut graphs: Vec<(String, String)> = Vec::new();
    let mut config = ServerConfig::default();
    let mut cache_bytes: Option<usize> = None;
    let mut cache_ttl: Option<std::time::Duration> = None;
    let mut empty = false;

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
            "--graph" => {
                let spec = value("--graph");
                match spec.split_once('=') {
                    Some((name, source)) => graphs.push((name.to_string(), source.to_string())),
                    None => {
                        eprintln!("--graph expects NAME=SPEC, got {spec:?}");
                        usage();
                    }
                }
            }
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => {
                config.queue_capacity = value("--queue").parse().unwrap_or_else(|_| usage())
            }
            "--cache-bytes" => {
                cache_bytes = Some(value("--cache-bytes").parse().unwrap_or_else(|_| usage()))
            }
            "--cache-ttl" => {
                let secs: f64 = value("--cache-ttl").parse().unwrap_or_else(|_| usage());
                if !(secs > 0.0 && secs.is_finite()) {
                    eprintln!("--cache-ttl must be a positive number of seconds");
                    usage();
                }
                cache_ttl = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--no-coalesce" => config.coalesce.enabled = false,
            "--coalesce-window-us" => {
                let us: u64 = value("--coalesce-window-us")
                    .parse()
                    .unwrap_or_else(|_| usage());
                config.coalesce.window = std::time::Duration::from_micros(us);
            }
            "--slowlog-ms" => {
                let ms: u64 = value("--slowlog-ms").parse().unwrap_or_else(|_| usage());
                config.slowlog_threshold = std::time::Duration::from_millis(ms);
            }
            "--empty" => empty = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    if empty && !graphs.is_empty() {
        eprintln!("--empty contradicts --graph");
        usage();
    }
    if graphs.is_empty() && !empty {
        graphs.push(("karate".to_string(), "karate".to_string()));
    }

    let mut catalog = Catalog::new();
    if let Some(bytes) = cache_bytes {
        catalog = catalog.with_solve_cache_bytes(bytes);
    }
    if let Some(ttl) = cache_ttl {
        catalog = catalog.with_solve_cache_ttl(ttl);
    }
    let catalog = Arc::new(catalog);
    for (name, spec) in &graphs {
        eprint!("loading {name} from {spec} ... ");
        match catalog.load(name, spec) {
            Ok(entry) => eprintln!(
                "{} nodes, {} edges, engine ready",
                entry.num_nodes(),
                entry.num_edges()
            ),
            Err(e) => {
                eprintln!("failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let handle = match server::start(catalog, config, listen.as_str()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "mwc-server listening on {} ({} graphs); stop with: mwc-client {} shutdown",
        handle.local_addr(),
        handle.catalog().len(),
        handle.local_addr()
    );
    handle.wait();
    eprintln!("mwc-server: drained and stopped");
    ExitCode::SUCCESS
}
