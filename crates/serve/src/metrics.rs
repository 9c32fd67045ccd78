//! Lightweight serving metrics: lock-free counters, gauges, and
//! fixed-bucket histograms with quantile estimation, rendered in the
//! Prometheus text exposition format for the `/metrics` endpoint.
//!
//! Everything here is plain `std::sync::atomic` — hot paths pay one
//! relaxed atomic add per observation, so instrumentation never contends
//! with the scheduler it is measuring.
//!
//! The exposition is strict-scraper conformant: every series carries
//! `# HELP` and `# TYPE` lines and label values go through
//! [`escape_label_value`]. Per-request stage timings land in the
//! labeled `snn_stage_seconds` histogram family ([`Stage`]), and the
//! per-layer event densities recorded by the `snn-obs` forward/backward
//! hooks surface as `snn_layer_event_density` gauges.

use std::sync::atomic::{AtomicU64, Ordering};

/// One stage of a request's life, as broken down by the tracing spans
/// and the `snn_stage_seconds` histogram family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// HTTP body + raster JSON decoding, on the connection thread.
    Parse,
    /// Admission-queue wait: submit → picked up by the collator.
    QueueWait,
    /// Batch-formation wait: collated → execution starts on a worker.
    BatchWait,
    /// Forward pass on a pooled session.
    Inference,
    /// Response formatting + serialization, on the connection thread.
    Serialize,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Parse,
        Stage::QueueWait,
        Stage::BatchWait,
        Stage::Inference,
        Stage::Serialize,
    ];

    /// The `stage` label value.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::BatchWait => "batch_wait",
            Stage::Inference => "inference",
            Stage::Serialize => "serialize",
        }
    }
}

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline must be backslash-escaped inside the quoted value.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous up/down gauge (e.g. queue depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Increments by 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements by 1 (saturating at 0).
    pub fn dec(&self) {
        // fetch_update keeps the gauge saturating instead of wrapping if
        // an inc/dec pairing bug ever slips in.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed power-of-two bucket upper bounds.
///
/// `bounds[i]` is the inclusive upper bound of bucket `i`; one overflow
/// bucket catches everything larger. Quantiles are estimated as the
/// upper bound of the bucket containing the target rank — coarse (±2×)
/// but allocation-free, stable under concurrency, and exactly what a
/// p50/p99 dashboard needs.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram with power-of-two bucket bounds `1, 2, 4, …` up to at
    /// least `max` (values above land in the overflow bucket).
    pub fn pow2(max: u64) -> Self {
        let mut bounds = Vec::new();
        let mut b = 1u64;
        loop {
            bounds.push(b);
            if b >= max || b > u64::MAX / 2 {
                break;
            }
            b *= 2;
        }
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .partition_point(|&b| b < value)
            .min(self.buckets.len() - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum() as f64 / n as f64
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket holding the rank-`⌈q·n⌉` observation; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return self
                    .bounds
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| self.bounds.last().copied().unwrap_or(0).saturating_mul(2));
            }
        }
        self.bounds.last().copied().unwrap_or(0)
    }

    fn render_into(&self, out: &mut String, name: &str, help: &str) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, bound) in self.bounds.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        cumulative += self.buckets[self.bounds.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {}", self.count());
    }

    /// Renders this histogram (of microsecond observations) as one
    /// `{base}{{stage="..."}}` series of a seconds-valued family — the
    /// HELP/TYPE header is emitted once by the caller.
    fn render_stage_into(&self, out: &mut String, base: &str, stage: &str) {
        use std::fmt::Write as _;
        let stage = escape_label_value(stage);
        let mut cumulative = 0u64;
        for (i, bound) in self.bounds.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "{base}_bucket{{stage=\"{stage}\",le=\"{}\"}} {cumulative}",
                *bound as f64 / 1e6
            );
        }
        cumulative += self.buckets[self.bounds.len()].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{base}_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(
            out,
            "{base}_sum{{stage=\"{stage}\"}} {}",
            self.sum() as f64 / 1e6
        );
        let _ = writeln!(out, "{base}_count{{stage=\"{stage}\"}} {}", self.count());
    }
}

/// Every counter the serving subsystem exports — shared (via `Arc`)
/// between the scheduler, the HTTP layer, and the `/metrics` endpoint.
#[derive(Debug)]
pub struct ServeMetrics {
    /// HTTP requests received (all routes).
    pub requests_total: Counter,
    /// Responses with 2xx status.
    pub responses_ok: Counter,
    /// Responses with 4xx status.
    pub responses_client_error: Counter,
    /// Responses with 5xx status (including backpressure 503s).
    pub responses_server_error: Counter,
    /// Requests rejected with 503 because the admission queue was full.
    pub rejected_queue_full: Counter,
    /// Requests rejected with 503 because the server was shutting down.
    pub rejected_shutting_down: Counter,
    /// Connections answered 503 at the `max_connections` cap.
    pub rejected_over_capacity: Counter,
    /// Connections dropped because registering them with the readiness
    /// poller failed (each answered 503 and released its slot).
    pub conn_register_failures_total: Counter,
    /// Samples accepted into the scheduler queue.
    pub jobs_total: Counter,
    /// Micro-batches dispatched to workers.
    pub batches_total: Counter,
    /// Worker panics caught by the supervisor (injected or real).
    pub worker_panics_total: Counter,
    /// Pooled sessions quarantined (buffers discarded) after a panic.
    pub sessions_quarantined_total: Counter,
    /// Jobs retried in-place on a fresh session after a worker panic.
    pub jobs_retried_total: Counter,
    /// Jobs shed because their deadline expired before execution.
    pub jobs_expired_total: Counter,
    /// Successful hot checkpoint reloads.
    pub reloads_total: Counter,
    /// Rejected or failed hot-reload attempts.
    pub reload_failures_total: Counter,
    /// Stream events accepted into resident sessions.
    pub stream_events_total: Counter,
    /// Stream sessions evicted (idle timeout or LRU capacity pressure).
    pub stream_evictions_total: Counter,
    /// Stream sessions invalidated (worker panic or engine hot-reload);
    /// each answered a typed `SESSION_LOST` frame.
    pub stream_sessions_lost_total: Counter,
    /// Stream opens refused with a typed `CAPACITY` frame (the binary
    /// 429) because the resident cap was reached.
    pub stream_rejected_capacity_total: Counter,
    /// Current admission-queue depth.
    pub queue_depth: Gauge,
    /// 1 while a hot reload is being applied, else 0.
    pub reload_in_flight: Gauge,
    /// Stream sessions currently resident on stream workers.
    pub stream_sessions_resident: Gauge,
    /// Distribution of dispatched micro-batch sizes.
    pub batch_size: Histogram,
    /// Per-sample scheduler latency in microseconds (submit → classified).
    pub job_latency_us: Histogram,
    /// Per-request HTTP latency in microseconds (parsed → response written).
    pub request_latency_us: Histogram,
    /// Per-chunk stream latency in microseconds (frame accepted → events
    /// applied to the resident session).
    pub stream_chunk_latency_us: Histogram,
    /// Per-stage request timings in microseconds, indexed by
    /// [`Stage::ALL`] order; rendered as the seconds-valued
    /// `snn_stage_seconds{stage="..."}` histogram family.
    pub stage_us: [Histogram; 5],
    /// Requests whose wall-clock exceeded the configured slow-request
    /// threshold (each dumped its trace to stderr).
    pub slow_requests_total: Counter,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self {
            requests_total: Counter::default(),
            responses_ok: Counter::default(),
            responses_client_error: Counter::default(),
            responses_server_error: Counter::default(),
            rejected_queue_full: Counter::default(),
            rejected_shutting_down: Counter::default(),
            rejected_over_capacity: Counter::default(),
            conn_register_failures_total: Counter::default(),
            jobs_total: Counter::default(),
            batches_total: Counter::default(),
            worker_panics_total: Counter::default(),
            sessions_quarantined_total: Counter::default(),
            jobs_retried_total: Counter::default(),
            jobs_expired_total: Counter::default(),
            reloads_total: Counter::default(),
            reload_failures_total: Counter::default(),
            stream_events_total: Counter::default(),
            stream_evictions_total: Counter::default(),
            stream_sessions_lost_total: Counter::default(),
            stream_rejected_capacity_total: Counter::default(),
            queue_depth: Gauge::default(),
            reload_in_flight: Gauge::default(),
            stream_sessions_resident: Gauge::default(),
            batch_size: Histogram::pow2(4096),
            // 1 µs .. ~64 s covers everything from loopback no-ops to a
            // fully backed-up queue.
            job_latency_us: Histogram::pow2(1 << 26),
            request_latency_us: Histogram::pow2(1 << 26),
            stream_chunk_latency_us: Histogram::pow2(1 << 26),
            stage_us: std::array::from_fn(|_| Histogram::pow2(1 << 26)),
            slow_requests_total: Counter::default(),
        }
    }

    /// Records one per-stage timing observation (microseconds).
    pub fn observe_stage(&self, stage: Stage, us: u64) {
        self.stage_us[stage as usize].observe(us);
    }

    /// Mean dispatched batch size (0 before the first batch) — the
    /// headline "is dynamic batching engaging?" number.
    pub fn mean_batch_size(&self) -> f64 {
        self.batch_size.mean()
    }

    /// Renders all metrics in the Prometheus text exposition format.
    /// Every family carries `# HELP` and `# TYPE` lines (strict-scraper
    /// conformance, pinned by `render_is_prometheus_conformant`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        for (name, help, counter) in [
            (
                "snn_requests_total",
                "HTTP requests received (all routes).",
                &self.requests_total,
            ),
            (
                "snn_responses_ok_total",
                "Responses with 2xx status.",
                &self.responses_ok,
            ),
            (
                "snn_responses_client_error_total",
                "Responses with 4xx status.",
                &self.responses_client_error,
            ),
            (
                "snn_responses_server_error_total",
                "Responses with 5xx status (including backpressure 503s).",
                &self.responses_server_error,
            ),
            (
                "snn_rejected_queue_full_total",
                "Requests rejected with 503: admission queue full.",
                &self.rejected_queue_full,
            ),
            (
                "snn_rejected_shutting_down_total",
                "Requests rejected with 503: server shutting down.",
                &self.rejected_shutting_down,
            ),
            (
                "snn_rejected_over_capacity_total",
                "Connections answered 503 at the max_connections cap.",
                &self.rejected_over_capacity,
            ),
            (
                "snn_conn_register_failures_total",
                "Connections dropped because poller registration failed.",
                &self.conn_register_failures_total,
            ),
            (
                "snn_jobs_total",
                "Samples accepted into the scheduler queue.",
                &self.jobs_total,
            ),
            (
                "snn_batches_total",
                "Micro-batches dispatched to workers.",
                &self.batches_total,
            ),
            (
                "snn_worker_panics_total",
                "Worker panics caught by the supervisor.",
                &self.worker_panics_total,
            ),
            (
                "snn_sessions_quarantined_total",
                "Pooled sessions quarantined after a panic.",
                &self.sessions_quarantined_total,
            ),
            (
                "snn_jobs_retried_total",
                "Jobs retried on a fresh session after a worker panic.",
                &self.jobs_retried_total,
            ),
            (
                "snn_jobs_expired_total",
                "Jobs shed because their deadline expired before execution.",
                &self.jobs_expired_total,
            ),
            (
                "snn_reloads_total",
                "Successful hot checkpoint reloads.",
                &self.reloads_total,
            ),
            (
                "snn_reload_failures_total",
                "Rejected or failed hot-reload attempts.",
                &self.reload_failures_total,
            ),
            (
                "snn_stream_events_total",
                "Stream events accepted into resident sessions.",
                &self.stream_events_total,
            ),
            (
                "snn_stream_evictions_total",
                "Stream sessions evicted (idle timeout or LRU pressure).",
                &self.stream_evictions_total,
            ),
            (
                "snn_stream_sessions_lost_total",
                "Stream sessions invalidated by a panic or hot reload.",
                &self.stream_sessions_lost_total,
            ),
            (
                "snn_stream_rejected_capacity_total",
                "Stream opens refused at the resident-session cap.",
                &self.stream_rejected_capacity_total,
            ),
            (
                "snn_slow_requests_total",
                "Requests exceeding the slow-trace threshold (trace dumped).",
                &self.slow_requests_total,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", counter.get());
        }
        for (name, help, gauge) in [
            (
                "snn_queue_depth",
                "Current admission-queue depth.",
                &self.queue_depth,
            ),
            (
                "snn_reload_in_flight",
                "1 while a hot reload is being applied, else 0.",
                &self.reload_in_flight,
            ),
            (
                "snn_stream_sessions_resident",
                "Stream sessions currently resident on stream workers.",
                &self.stream_sessions_resident,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", gauge.get());
        }
        self.batch_size.render_into(
            &mut out,
            "snn_batch_size",
            "Distribution of dispatched micro-batch sizes.",
        );
        self.job_latency_us.render_into(
            &mut out,
            "snn_job_latency_us",
            "Per-sample scheduler latency in microseconds.",
        );
        self.request_latency_us.render_into(
            &mut out,
            "snn_request_latency_us",
            "Per-request HTTP latency in microseconds.",
        );
        self.stream_chunk_latency_us.render_into(
            &mut out,
            "snn_stream_chunk_latency_us",
            "Per-chunk stream latency in microseconds.",
        );
        let _ = writeln!(
            out,
            "# HELP snn_stage_seconds Per-request stage timings from the tracing spans."
        );
        let _ = writeln!(out, "# TYPE snn_stage_seconds histogram");
        for stage in Stage::ALL {
            self.stage_us[stage as usize].render_stage_into(
                &mut out,
                "snn_stage_seconds",
                stage.label(),
            );
        }
        for (name, h) in [
            ("snn_job_latency_us", &self.job_latency_us),
            ("snn_request_latency_us", &self.request_latency_us),
            ("snn_stream_chunk_latency_us", &self.stream_chunk_latency_us),
        ] {
            for (label, q) in [("p50", 0.50), ("p99", 0.99)] {
                let _ = writeln!(
                    out,
                    "# HELP {name}_{label} Estimated {label} of {name} observations."
                );
                let _ = writeln!(out, "# TYPE {name}_{label} gauge");
                let _ = writeln!(out, "{name}_{label} {}", h.quantile(q));
            }
        }
        // Per-layer spike/event densities recorded by the snn-obs
        // forward/backward hooks (only layers that have fired render).
        let densities: Vec<(usize, u32)> = (0..snn_obs::MAX_LAYER_STATS)
            .filter_map(|l| snn_obs::layer_density_ppm(l).map(|ppm| (l, ppm)))
            .collect();
        if !densities.is_empty() {
            let _ = writeln!(
                out,
                "# HELP snn_layer_event_density Latest per-layer spike/event density (fraction of cells active)."
            );
            let _ = writeln!(out, "# TYPE snn_layer_event_density gauge");
            for (layer, ppm) in densities {
                let _ = writeln!(
                    out,
                    "snn_layer_event_density{{layer=\"{}\"}} {}",
                    escape_label_value(&layer.to_string()),
                    ppm as f64 / 1e6
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // saturates, no wrap
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::pow2(1024);
        for v in [1u64, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1107);
        // p50 lands in a small bucket, p99 in the large one.
        assert!(h.quantile(0.5) <= 4, "p50 = {}", h.quantile(0.5));
        assert!(h.quantile(0.99) >= 512, "p99 = {}", h.quantile(0.99));
        assert_eq!(Histogram::pow2(16).quantile(0.5), 0); // empty
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = Histogram::pow2(4);
        h.observe(1_000_000);
        assert_eq!(h.count(), 1);
        // The overflow estimate sits past the last bound.
        assert!(h.quantile(0.5) > 4);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::pow2(1024);
        for q in [-1.0, 0.0, 0.5, 0.99, 1.0, 2.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn quantile_of_single_sample_is_its_bucket_bound_at_every_q() {
        // One observation: every quantile (including the clamped
        // out-of-range ones) must estimate that one sample's bucket.
        for (value, expected_bound) in [(1u64, 1u64), (3, 4), (8, 8), (9, 16), (1000, 1024)] {
            let h = Histogram::pow2(1024);
            h.observe(value);
            for q in [-0.5, 0.0, 0.5, 0.99, 1.0, 1.5] {
                assert_eq!(
                    h.quantile(q),
                    expected_bound,
                    "value {value}, q {q}: single sample must land in its own bucket"
                );
            }
        }
    }

    #[test]
    fn all_samples_in_one_bucket_collapse_every_quantile() {
        let h = Histogram::pow2(256);
        for _ in 0..1000 {
            h.observe(3); // le="4" bucket
        }
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(0.99), 4);
        assert_eq!(h.quantile(1.0), 4);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 3000);
        assert!((h.mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn exact_bound_values_stay_in_their_inclusive_bucket() {
        // Bounds are inclusive upper bounds: observing exactly 2^k must
        // not spill into the next bucket (the classic off-by-one).
        for value in [1u64, 2, 4, 8, 16, 32] {
            let h = Histogram::pow2(32);
            h.observe(value);
            assert_eq!(h.quantile(0.5), value, "bound {value} must be inclusive");
        }
        // One past a bound belongs to the next bucket.
        let h = Histogram::pow2(32);
        h.observe(5);
        assert_eq!(h.quantile(0.5), 8);
    }

    #[test]
    fn zero_valued_observations_land_in_the_smallest_bucket() {
        let h = Histogram::pow2(64);
        h.observe(0);
        h.observe(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.quantile(0.5), 1, "0 is estimated by the first bound");
    }

    #[test]
    fn overflow_only_histogram_estimates_past_the_last_bound() {
        let h = Histogram::pow2(8); // bounds 1, 2, 4, 8
        h.observe(u64::MAX);
        assert_eq!(h.quantile(0.5), 16, "overflow estimate is 2x last bound");
        assert_eq!(h.quantile(1.0), 16);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let h = Histogram::pow2(4096);
        for v in [1u64, 1, 2, 5, 9, 17, 100, 900, 3000, 100000] {
            h.observe(v);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let cur = h.quantile(q);
            assert!(
                cur >= prev,
                "quantile not monotone at q={q}: {cur} < {prev}"
            );
            prev = cur;
        }
    }

    #[test]
    fn p99_rank_rounding_at_the_boundary() {
        // 99 fast + 1 slow: the 99th-of-100 ranked sample is still fast,
        // so p99 must report the fast bucket; only q above 99% may reach
        // the slow one. Pins the ceil(q·n) nearest-rank convention.
        let h = Histogram::pow2(1 << 20);
        for _ in 0..99 {
            h.observe(1);
        }
        h.observe(1 << 19);
        assert_eq!(h.quantile(0.50), 1);
        assert_eq!(h.quantile(0.99), 1);
        assert_eq!(h.quantile(0.995), 1 << 19);
        assert_eq!(h.quantile(1.0), 1 << 19);
    }

    #[test]
    fn degenerate_pow2_constructions() {
        // max = 0 and max = 1 both yield a single finite bucket plus
        // overflow, and stay usable.
        for max in [0u64, 1] {
            let h = Histogram::pow2(max);
            h.observe(1);
            assert_eq!(h.quantile(0.5), 1, "max={max}");
            h.observe(100); // overflow
            assert_eq!(h.quantile(1.0), 2, "max={max}: overflow estimate");
        }
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let m = ServeMetrics::new();
        m.requests_total.inc();
        m.batch_size.observe(8);
        m.request_latency_us.observe(123);
        let text = m.render();
        assert!(text.contains("# TYPE snn_requests_total counter"));
        assert!(text.contains("snn_requests_total 1"));
        assert!(text.contains("snn_batch_size_bucket{le=\"8\"}"));
        assert!(text.contains("snn_batch_size_count 1"));
        assert!(text.contains("snn_request_latency_us_p99"));
        assert!(text.contains("snn_worker_panics_total 0"));
        assert!(text.contains("snn_sessions_quarantined_total 0"));
        assert!(text.contains("snn_jobs_expired_total 0"));
        assert!(text.contains("snn_reloads_total 0"));
        assert!(text.contains("snn_reload_in_flight 0"));
        assert!((m.mean_batch_size() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn stream_series_render_alongside_the_http_ones() {
        let m = ServeMetrics::new();
        m.stream_sessions_resident.inc();
        m.stream_events_total.add(42);
        m.stream_evictions_total.inc();
        m.stream_sessions_lost_total.inc();
        m.stream_rejected_capacity_total.inc();
        m.stream_chunk_latency_us.observe(100);
        m.stream_chunk_latency_us.observe(7);
        let text = m.render();
        assert!(text.contains("# TYPE snn_stream_sessions_resident gauge"));
        assert!(text.contains("snn_stream_sessions_resident 1"));
        assert!(text.contains("# TYPE snn_stream_events_total counter"));
        assert!(text.contains("snn_stream_events_total 42"));
        assert!(text.contains("snn_stream_evictions_total 1"));
        assert!(text.contains("snn_stream_sessions_lost_total 1"));
        assert!(text.contains("snn_stream_rejected_capacity_total 1"));
        assert!(text.contains("# TYPE snn_stream_chunk_latency_us histogram"));
        assert!(text.contains("snn_stream_chunk_latency_us_count 2"));
        assert!(text.contains("snn_stream_chunk_latency_us_sum 107"));
        assert!(text.contains("snn_stream_chunk_latency_us_p99"));
    }

    #[test]
    fn render_is_prometheus_conformant() {
        // Strict scrapers demand a # HELP and # TYPE line for every
        // family: walk the exposition and check each sample line's
        // family (name stripped of histogram suffixes and labels) was
        // declared before use.
        let m = ServeMetrics::new();
        m.requests_total.inc();
        m.batch_size.observe(8);
        m.observe_stage(Stage::Parse, 120);
        m.observe_stage(Stage::Inference, 4000);
        let text = m.render();
        let mut helped = std::collections::HashSet::new();
        let mut typed = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(
                    rest.len() > name.len(),
                    "HELP line must carry text: {line:?}"
                );
                helped.insert(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                typed.insert(name.to_string());
            } else {
                assert!(!line.trim().is_empty(), "no blank lines in exposition");
                let sample = line.split([' ', '{']).next().unwrap();
                let family = sample
                    .strip_suffix("_bucket")
                    .or_else(|| sample.strip_suffix("_sum"))
                    .or_else(|| sample.strip_suffix("_count"))
                    .unwrap_or(sample);
                let declared = |set: &std::collections::HashSet<String>| {
                    set.contains(family) || set.contains(sample)
                };
                assert!(declared(&helped), "{sample}: sample before # HELP");
                assert!(declared(&typed), "{sample}: sample before # TYPE");
            }
        }
        assert!(text.contains("# HELP snn_requests_total "));
        assert!(text.contains("# TYPE snn_stage_seconds histogram"));
        assert!(text.contains("snn_stage_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 1"));
        assert!(text.contains("snn_stage_seconds_count{stage=\"inference\"} 1"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn stage_histogram_family_renders_every_stage() {
        let m = ServeMetrics::new();
        for stage in Stage::ALL {
            m.observe_stage(stage, 1000);
        }
        let text = m.render();
        for stage in Stage::ALL {
            assert!(
                text.contains(&format!(
                    "snn_stage_seconds_count{{stage=\"{}\"}} 1",
                    stage.label()
                )),
                "missing stage {}",
                stage.label()
            );
        }
        // Bounds are rendered in seconds: a 1000 µs observation lands
        // at or below the 0.001024 s bucket.
        assert!(text.contains("le=\"0.001024\""));
    }

    #[test]
    fn stream_chunk_latency_histogram_quantiles() {
        let m = ServeMetrics::new();
        // 99 one-microsecond chunks and one 2 ms straggler: p50 stays in
        // the fast bucket, p99 too (nearest-rank), the max reaches the
        // straggler's bucket.
        for _ in 0..99 {
            m.stream_chunk_latency_us.observe(1);
        }
        m.stream_chunk_latency_us.observe(2000);
        assert_eq!(m.stream_chunk_latency_us.quantile(0.5), 1);
        assert_eq!(m.stream_chunk_latency_us.quantile(0.99), 1);
        assert_eq!(m.stream_chunk_latency_us.quantile(1.0), 2048);
        assert_eq!(m.stream_chunk_latency_us.count(), 100);
    }
}
