//! The serving tier's benchmark: one workload per run, against in-process
//! `mwc-server`/`mwc-router` instances in their default configuration,
//! from one load-generator process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload and then the per-layer probes (see `layers.rs`). The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `README.md` for the workloads, the metrics, and the layer budget.

mod layers;
mod stats;
mod verify;
mod workloads;

use std::process::ExitCode;

use stats::{peak_rss_mb, quantile};
use verify::Verifier;
use workloads::{Spec, SETUP_REPS};

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::spec(&value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload {value:?} (one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The metrics of one run, in output order: name, value, unit.
pub type Metrics = Vec<(String, f64, &'static str)>;

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    for (name, value, unit) in metrics {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}

fn run(args: &Args) -> Result<(), String> {
    let spec = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    let mut verifier = Verifier::new(spec.graphs)?;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let env = workloads::setup_repeated(spec, args.seed, reps, &mut verifier)?;
    let before = args.trace.then(|| layers::snapshot(&env.tier));
    let outcome = workloads::run(spec, &env, args.seed, args.seconds, &verifier);
    let lat = &outcome.latencies_ms;
    println!(
        "samples {} attempted {} failed {} error_ratio {} elapsed_s {:.3}",
        lat.len(),
        outcome.attempted,
        outcome.failed,
        outcome.error_ratio(),
        outcome.elapsed_s
    );
    if lat.is_empty() {
        env.tier.shutdown();
        return Err("no solve succeeded".to_string());
    }
    let (metrics, replay_ok) = match before {
        Some(before) => layers::probe(spec, &env, args.seed, &before, &mut verifier)?,
        None => {
            let wiener_mean =
                env.quality.iter().map(|(_, w)| *w as f64).sum::<f64>() / env.quality.len() as f64;
            let metrics: Metrics = vec![
                ("throughput_rps".into(), outcome.throughput_rps(), "1/s"),
                ("latency_p50_ms".into(), quantile(lat, 0.5), "ms"),
                ("latency_p90_ms".into(), quantile(lat, 0.9), "ms"),
                ("setup_s".into(), env.setup_s, "s"),
                ("wiener_mean".into(), wiener_mean, "W"),
                ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
            ];
            (metrics, true)
        }
    };
    env.tier.shutdown();
    let correct = verifier.wrong == 0 && outcome.wrong == 0 && replay_ok;
    print_result(correct, outcome.attempted, outcome.failed, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
