//! In-process serving metrics: request counters, queue gauges, and
//! per-solver latency histograms, all lock-free on the hot path.
//!
//! Latencies go into log₂-bucketed histograms (bucket *i* counts solves
//! that took `< 2^i` µs), so a quantile is read by walking at most 40
//! buckets — no per-request allocation, no sorting, bounded error of at
//! most one octave. The `stats` protocol command serializes a
//! [`Metrics::snapshot`] of all of this.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use crate::json::Json;

const BUCKETS: usize = 40; // 2^39 µs ≈ 6.4 days: nothing overflows this

/// A log₂ latency histogram (microsecond resolution).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        let idx = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_micros.load(Ordering::Relaxed) as f64 / n as f64 / 1e3
        }
    }

    /// Approximate `q`-quantile in milliseconds (`q` in `[0, 1]`): the
    /// upper bound of the bucket holding the rank, so the true value is
    /// within one power of two below the reported one. 0 when empty.
    /// Ranks landing in the final (overflow) bucket report
    /// [`Self::max_ms`] — that bucket has no meaningful upper bound.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                if i == BUCKETS - 1 {
                    break; // overflow bucket: fall through to max
                }
                return (1u64 << i) as f64 / 1e3;
            }
        }
        self.max_ms()
    }

    /// Largest observation in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_micros.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Total of all observations in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Per-bucket observation counts (not cumulative). Bucket `i ≥ 1`
    /// holds observations in `[2^(i-1), 2^i)` µs; bucket 0 holds `0 µs`;
    /// the final bucket absorbs everything `≥ 2^38` µs. Feeds the
    /// Prometheus exposition, which emits the *cumulative* form.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Number of log₂ buckets per [`Histogram`] (also the length of
/// [`Histogram::bucket_counts`]).
pub const HISTOGRAM_BUCKETS: usize = BUCKETS;

/// The server's metrics registry. Cheap to share (`Arc<Metrics>`); every
/// mutation is a relaxed atomic.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Request lines received (valid or not).
    pub requests_total: AtomicU64,
    /// Successful (`"ok":true`) responses written.
    pub ok_total: AtomicU64,
    /// Error responses written (all codes, including overload).
    pub error_total: AtomicU64,
    /// Requests shed by admission control.
    pub overload_total: AtomicU64,
    /// Lines that failed to parse into a request.
    pub bad_request_total: AtomicU64,
    /// Requests whose deadline expired while queued.
    pub queue_deadline_total: AtomicU64,
    /// Current admission-queue depth (maintained by the queue).
    pub queue_depth: AtomicU64,
    /// High-water mark of the admission queue.
    pub queue_peak: AtomicU64,
    /// Connections accepted.
    pub connections_total: AtomicU64,
    /// Connections currently open: the size of the frontend's connection
    /// table, counted at accept and at close.
    pub connections_live: AtomicU64,
    /// Clients disconnected because their outbound backlog crossed the
    /// frontend's write-buffer cap.
    pub slow_client_disconnects: AtomicU64,
    /// Frontend `epoll_wait` returns.
    pub loop_wakeups: AtomicU64,
    /// Readiness events the frontend has dispatched.
    pub loop_events: AtomicU64,
    /// High-water mark of in-flight pipelined requests on any single
    /// connection.
    pub pipeline_peak: AtomicU64,
    /// Requests whose work panicked. Each cost its own response, which
    /// was answered `internal`; the worker that ran it kept serving.
    pub panics_total: AtomicU64,
    solver_latency: RwLock<HashMap<String, Arc<Histogram>>>,
    /// Always-on per-stage duration histograms (`admission`, `solve`,
    /// `serialize`, `write`, …) — the aggregate view of the same stages
    /// the request tracer records per request.
    stage_latency: RwLock<HashMap<&'static str, Arc<Histogram>>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            ok_total: AtomicU64::new(0),
            error_total: AtomicU64::new(0),
            overload_total: AtomicU64::new(0),
            bad_request_total: AtomicU64::new(0),
            queue_deadline_total: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            connections_live: AtomicU64::new(0),
            slow_client_disconnects: AtomicU64::new(0),
            loop_wakeups: AtomicU64::new(0),
            loop_events: AtomicU64::new(0),
            pipeline_peak: AtomicU64::new(0),
            panics_total: AtomicU64::new(0),
            solver_latency: RwLock::new(HashMap::new()),
            stage_latency: RwLock::new(HashMap::new()),
        }
    }
}

impl Metrics {
    /// A fresh registry (uptime starts now).
    pub fn new() -> Self {
        Self::default()
    }

    /// The latency histogram for `solver`, created on first use.
    pub fn solver_histogram(&self, solver: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .solver_latency
            .read()
            .expect("metrics lock poisoned")
            .get(solver)
        {
            return Arc::clone(h);
        }
        let mut map = self.solver_latency.write().expect("metrics lock poisoned");
        Arc::clone(
            map.entry(solver.to_string())
                .or_insert_with(|| Arc::new(Histogram::default())),
        )
    }

    /// Records one solve latency under `solver`.
    pub fn record_solve(&self, solver: &str, latency: Duration) {
        self.solver_histogram(solver).record(latency);
    }

    /// The duration histogram for a pipeline stage, created on first use.
    pub fn stage_histogram(&self, stage: &'static str) -> Arc<Histogram> {
        if let Some(h) = self
            .stage_latency
            .read()
            .expect("metrics lock poisoned")
            .get(stage)
        {
            return Arc::clone(h);
        }
        let mut map = self.stage_latency.write().expect("metrics lock poisoned");
        Arc::clone(
            map.entry(stage)
                .or_insert_with(|| Arc::new(Histogram::default())),
        )
    }

    /// Records one stage duration (`admission`, `serialize`, `write`, …).
    pub fn record_stage(&self, stage: &'static str, latency: Duration) {
        self.stage_histogram(stage).record(latency);
    }

    fn histogram_section<K: AsRef<str>>(map: &HashMap<K, Arc<Histogram>>) -> Json {
        let mut entries: Vec<(String, Json)> = map
            .iter()
            .map(|(name, h)| {
                (
                    name.as_ref().to_string(),
                    Json::obj([
                        ("count", Json::from(h.count())),
                        ("mean_ms", Json::from(h.mean_ms())),
                        ("p50_ms", Json::from(h.quantile_ms(0.50))),
                        ("p99_ms", Json::from(h.quantile_ms(0.99))),
                        ("max_ms", Json::from(h.max_ms())),
                    ]),
                )
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Obj(entries.into_iter().collect())
    }

    /// Serializes everything as the `stats` response payload.
    pub fn snapshot(&self, queue_capacity: usize) -> Json {
        let load = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
        let solvers =
            Self::histogram_section(&self.solver_latency.read().expect("metrics lock poisoned"));
        let stages =
            Self::histogram_section(&self.stage_latency.read().expect("metrics lock poisoned"));
        Json::obj([
            (
                "uptime_seconds",
                Json::from(self.started.elapsed().as_secs_f64()),
            ),
            (
                "requests",
                Json::obj([
                    ("total", load(&self.requests_total)),
                    ("ok", load(&self.ok_total)),
                    ("error", load(&self.error_total)),
                    ("overloaded", load(&self.overload_total)),
                    ("bad_request", load(&self.bad_request_total)),
                    ("queue_deadline", load(&self.queue_deadline_total)),
                ]),
            ),
            (
                "queue",
                Json::obj([
                    ("depth", load(&self.queue_depth)),
                    ("peak", load(&self.queue_peak)),
                    ("capacity", Json::from(queue_capacity)),
                ]),
            ),
            ("connections", load(&self.connections_total)),
            (
                "process",
                Json::obj([
                    ("uptime_s", Json::from(self.started.elapsed().as_secs_f64())),
                    ("connections_live", load(&self.connections_live)),
                    ("queue_depth", load(&self.queue_depth)),
                    ("panics_total", load(&self.panics_total)),
                ]),
            ),
            (
                "event_loop",
                Json::obj([
                    ("wakeups", load(&self.loop_wakeups)),
                    ("events", load(&self.loop_events)),
                    ("pipeline_peak", load(&self.pipeline_peak)),
                    (
                        "slow_client_disconnects",
                        load(&self.slow_client_disconnects),
                    ),
                ]),
            ),
            ("solvers", solvers),
            ("stages", stages),
        ])
    }

    /// Prometheus-style text exposition of every counter, gauge, and
    /// histogram: the `metrics` protocol command's payload. Histograms
    /// use the standard cumulative-bucket form (`le` in seconds,
    /// `+Inf` = count) over the log₂ bucket bounds, so any scraper can
    /// reconstruct the same quantile estimates `stats` reports.
    pub fn render_prometheus(&self, queue_capacity: usize) -> String {
        let mut out = String::with_capacity(4096);
        let mut counter = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        let l = |c: &AtomicU64| c.load(Ordering::Relaxed);
        counter(
            "mwc_requests_total",
            "Request lines received (valid or not).",
            l(&self.requests_total),
        );
        counter(
            "mwc_responses_ok_total",
            "Successful responses.",
            l(&self.ok_total),
        );
        counter(
            "mwc_responses_error_total",
            "Error responses.",
            l(&self.error_total),
        );
        counter(
            "mwc_overload_total",
            "Requests shed by admission control.",
            l(&self.overload_total),
        );
        counter(
            "mwc_bad_request_total",
            "Lines that failed to parse.",
            l(&self.bad_request_total),
        );
        counter(
            "mwc_queue_deadline_total",
            "Requests whose deadline expired while queued.",
            l(&self.queue_deadline_total),
        );
        counter(
            "mwc_connections_total",
            "Connections accepted.",
            l(&self.connections_total),
        );
        counter(
            "mwc_slow_client_disconnects_total",
            "Clients disconnected at the write-buffer byte cap.",
            l(&self.slow_client_disconnects),
        );
        counter(
            "mwc_loop_wakeups_total",
            "Event-loop epoll_wait returns.",
            l(&self.loop_wakeups),
        );
        counter(
            "mwc_loop_events_total",
            "Readiness events dispatched by the event loop.",
            l(&self.loop_events),
        );
        counter(
            "mwc_panics_total",
            "Requests whose work panicked (each answered internal).",
            l(&self.panics_total),
        );
        let mut gauge = |name: &str, help: &str, v: f64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        gauge(
            "mwc_uptime_seconds",
            "Seconds since the metrics registry was created.",
            self.started.elapsed().as_secs_f64(),
        );
        gauge(
            "mwc_connections_live",
            "Connections currently open.",
            l(&self.connections_live) as f64,
        );
        gauge(
            "mwc_queue_depth",
            "Current admission-queue depth.",
            l(&self.queue_depth) as f64,
        );
        gauge(
            "mwc_queue_peak",
            "High-water mark of the admission queue.",
            l(&self.queue_peak) as f64,
        );
        gauge(
            "mwc_queue_capacity",
            "Configured admission-queue capacity.",
            queue_capacity as f64,
        );
        gauge(
            "mwc_pipeline_peak",
            "High-water mark of in-flight pipelined requests on one connection.",
            l(&self.pipeline_peak) as f64,
        );
        {
            let map = self.solver_latency.read().expect("metrics lock poisoned");
            let mut names: Vec<&String> = map.keys().collect();
            names.sort();
            out.push_str(
                "# HELP mwc_solve_duration_seconds Solve latency by solver.\n\
                 # TYPE mwc_solve_duration_seconds histogram\n",
            );
            for name in names {
                let h = &map[name];
                render_histogram(&mut out, "mwc_solve_duration_seconds", "solver", name, h);
            }
        }
        {
            let map = self.stage_latency.read().expect("metrics lock poisoned");
            let mut names: Vec<&&'static str> = map.keys().collect();
            names.sort();
            out.push_str(
                "# HELP mwc_stage_duration_seconds Pipeline stage duration by stage.\n\
                 # TYPE mwc_stage_duration_seconds histogram\n",
            );
            for name in names {
                let h = &map[*name];
                render_histogram(&mut out, "mwc_stage_duration_seconds", "stage", name, h);
            }
        }
        out
    }
}

/// Emits one histogram series in cumulative Prometheus form. Bucket `i`
/// of the log₂ histogram counts observations `< 2^i` µs once
/// accumulated, so `le` bounds are `2^i / 1e6` seconds; the overflow
/// bucket only feeds `+Inf`. Empty trailing buckets are elided (the
/// `+Inf` sample always carries the total).
fn render_histogram(out: &mut String, name: &str, label: &str, value: &str, h: &Histogram) {
    let counts = h.bucket_counts();
    let last = counts
        .iter()
        .rposition(|&c| c > 0)
        .map(|i| i.min(HISTOGRAM_BUCKETS - 2))
        .unwrap_or(0);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().take(last + 1).enumerate() {
        cum += c;
        let le = (1u64 << i) as f64 / 1e6;
        out.push_str(&format!(
            "{name}_bucket{{{label}=\"{value}\",le=\"{le}\"}} {cum}\n"
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{{label}=\"{value}\",le=\"+Inf\"}} {}\n",
        h.count()
    ));
    out.push_str(&format!(
        "{name}_sum{{{label}=\"{value}\"}} {}\n",
        h.sum_us() as f64 / 1e6
    ));
    out.push_str(&format!(
        "{name}_count{{{label}=\"{value}\"}} {}\n",
        h.count()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = Histogram::default();
        for ms in [1u64, 2, 4, 100] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 4);
        assert!(h.mean_ms() > 20.0 && h.mean_ms() < 30.0);
        // p50 lands in the bucket of the 2nd observation (2 ms → < 2^11 µs).
        let p50 = h.quantile_ms(0.5);
        assert!((2.0..=4.1).contains(&p50), "{p50}");
        // p99 lands in the top observation's bucket.
        let p99 = h.quantile_ms(0.99);
        assert!((100.0..=262.2).contains(&p99), "{p99}");
        assert!((h.max_ms() - 100.0).abs() < 1.0);
        assert_eq!(Histogram::default().quantile_ms(0.5), 0.0);
    }

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.max_ms(), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ms(q), 0.0, "q={q}");
        }
    }

    #[test]
    fn single_sample_mean_equals_the_sample() {
        let h = Histogram::default();
        h.record(Duration::from_micros(1500));
        assert_eq!(h.count(), 1);
        assert!((h.mean_ms() - 1.5).abs() < 1e-9);
        assert!((h.max_ms() - 1.5).abs() < 1e-9);
        // Every quantile of one sample is that sample's bucket bound.
        let p50 = h.quantile_ms(0.5);
        assert!((1.5..=2.049).contains(&p50), "{p50}");
    }

    #[test]
    fn overflow_bucket_quantile_reports_max_not_bucket_bound() {
        let h = Histogram::default();
        // 2^38 µs ≈ 76 h lands in the final (overflow) bucket, whose
        // power-of-two "upper bound" is meaningless.
        let big = Duration::from_micros(1 << 38);
        h.record(big);
        let expect_ms = (1u64 << 38) as f64 / 1e3;
        assert!((h.max_ms() - expect_ms).abs() < 1.0);
        assert!((h.quantile_ms(0.5) - expect_ms).abs() < 1.0);
        assert!((h.quantile_ms(1.0) - expect_ms).abs() < 1.0);
    }

    #[test]
    fn prometheus_exposition_is_consistent_with_counters() {
        let m = Metrics::new();
        m.requests_total.fetch_add(7, Ordering::Relaxed);
        m.connections_live.fetch_add(2, Ordering::Relaxed);
        m.panics_total.fetch_add(1, Ordering::Relaxed);
        m.record_solve("ws-q", Duration::from_millis(3));
        m.record_stage("write", Duration::from_micros(40));
        let text = m.render_prometheus(64);
        assert!(text.contains("mwc_requests_total 7"));
        assert!(text.contains("mwc_connections_live 2"));
        assert!(text.contains("mwc_panics_total 1"));
        assert!(text.contains("mwc_queue_capacity 64"));
        assert!(text.contains("mwc_solve_duration_seconds_count{solver=\"ws-q\"} 1"));
        assert!(text.contains("mwc_solve_duration_seconds_bucket{solver=\"ws-q\",le=\"+Inf\"} 1"));
        assert!(text.contains("mwc_stage_duration_seconds_count{stage=\"write\"} 1"));
        // Cumulative buckets never decrease and end at the count.
        let mut prev = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("mwc_solve_duration_seconds_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "{line}");
            prev = v;
        }
        assert_eq!(prev, 1);
    }

    #[test]
    fn snapshot_carries_process_gauges_and_stages() {
        let m = Metrics::new();
        m.connections_live.fetch_add(3, Ordering::Relaxed);
        m.record_stage("admission", Duration::from_micros(10));
        let snap = m.snapshot(8);
        let process = snap.get("process").unwrap();
        assert_eq!(process.get("connections_live").unwrap().as_u64(), Some(3));
        assert!(process.get("uptime_s").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(process.get("queue_depth").unwrap().as_u64(), Some(0));
        assert_eq!(process.get("panics_total").unwrap().as_u64(), Some(0));
        let stages = snap.get("stages").unwrap();
        assert_eq!(
            stages
                .get("admission")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn snapshot_shape() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.record_solve("ws-q", Duration::from_millis(5));
        m.record_solve("ws-q", Duration::from_millis(7));
        m.record_solve("st", Duration::from_micros(300));
        let snap = m.snapshot(64);
        assert_eq!(
            snap.get("requests").unwrap().get("total").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(
            snap.get("queue").unwrap().get("capacity").unwrap().as_u64(),
            Some(64)
        );
        let solvers = snap.get("solvers").unwrap();
        assert_eq!(
            solvers.get("ws-q").unwrap().get("count").unwrap().as_u64(),
            Some(2)
        );
        assert!(
            solvers
                .get("st")
                .unwrap()
                .get("p99_ms")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        // Serializes cleanly.
        let text = snap.to_string();
        assert!(crate::json::parse(&text).is_ok());
    }
}
