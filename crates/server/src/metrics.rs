//! Server-wide counters and the metrics endpoint payload.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use sim::FusionPolicy;
use telemetry::json::Value;

/// Monotonic counters updated by the admission path and the workers. All
/// updates are relaxed atomics: metrics tolerate being a moment stale, they
/// must never contend with the jobs they measure.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    pub(crate) submitted: AtomicUsize,
    pub(crate) rejected: AtomicUsize,
    pub(crate) completed: AtomicUsize,
    pub(crate) failed: AtomicUsize,
    pub(crate) panicked: AtomicUsize,
    pub(crate) shots_total: AtomicUsize,
    pub(crate) compile_nanos: AtomicU64,
    pub(crate) simulate_nanos: AtomicU64,
    pub(crate) verify_errors: AtomicUsize,
    pub(crate) verify_warnings: AtomicUsize,
    /// Telemetry span id of the most recent job that produced an error-level
    /// verifier finding (0 when none has). Lets a metrics consumer jump from
    /// a non-zero `verify_errors` to the exact traced request.
    pub(crate) verify_last_error_span: AtomicU64,
    /// Simulate jobs per fusion policy, indexed by [`fusion_index`].
    pub(crate) sim_by_fusion: [AtomicUsize; 3],
}

/// Stable index of a fusion policy in the per-policy counter arrays.
pub(crate) fn fusion_index(policy: FusionPolicy) -> usize {
    match policy {
        FusionPolicy::Off => 0,
        FusionPolicy::Safe => 1,
        FusionPolicy::Aggressive => 2,
    }
}

impl ServerMetrics {
    pub(crate) fn record_compile(&self, elapsed: Duration) {
        self.compile_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_simulate(&self, elapsed: Duration, shots: usize, policy: FusionPolicy) {
        self.simulate_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.shots_total.fetch_add(shots, Ordering::Relaxed);
        self.sim_by_fusion[fusion_index(policy)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_verify(&self, diagnostics: &[verify::Diagnostic]) {
        let errors = diagnostics
            .iter()
            .filter(|d| d.severity() == verify::Severity::Error)
            .count();
        let warnings = diagnostics
            .iter()
            .filter(|d| d.severity() == verify::Severity::Warning)
            .count();
        self.verify_errors.fetch_add(errors, Ordering::Relaxed);
        self.verify_warnings.fetch_add(warnings, Ordering::Relaxed);
        // Remember which traced job produced the latest error so the metrics
        // endpoint can point at the exact request, not just a count.
        if let Some(span) = diagnostics
            .iter()
            .filter(|d| d.severity() == verify::Severity::Error)
            .filter_map(verify::Diagnostic::trace_span)
            .next_back()
        {
            self.verify_last_error_span.store(span, Ordering::Relaxed);
        }
    }
}

/// Cache statistics of one tenant namespace.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantCacheStats {
    /// Tenant name.
    pub tenant: String,
    /// Entries currently cached.
    pub entries: usize,
    /// Lifetime cache hits.
    pub hits: usize,
    /// Lifetime cache misses.
    pub misses: usize,
    /// Lifetime FIFO evictions.
    pub evictions: usize,
}

impl TenantCacheStats {
    /// Hits over total lookups, `0.0` before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Latency distribution of one pipeline stage, summarised from the
/// telemetry registry's log-bucketed histogram for that stage. All values
/// are microseconds except `count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyStats {
    /// Stage name (`queue_wait`, `compile`, `simulate`, `tenant.<name>`).
    pub stage: String,
    /// Samples recorded.
    pub count: u64,
    /// Estimated median, µs.
    pub p50_micros: u64,
    /// Estimated 90th percentile, µs.
    pub p90_micros: u64,
    /// Estimated 99th percentile, µs.
    pub p99_micros: u64,
    /// Largest recorded sample, µs.
    pub max_micros: u64,
}

/// Summarises every `latency.*` histogram in a telemetry registry, sorted by
/// stage name. Returns an empty list when the server runs without telemetry.
pub(crate) fn latency_stats(registry: &telemetry::Registry) -> Vec<LatencyStats> {
    let mut stats: Vec<LatencyStats> = registry
        .histograms()
        .into_iter()
        .filter_map(|(name, histogram)| {
            let stage = name.strip_prefix("latency.")?;
            Some(LatencyStats {
                stage: stage.to_string(),
                count: histogram.count(),
                p50_micros: histogram.p50(),
                p90_micros: histogram.p90(),
                p99_micros: histogram.p99(),
                max_micros: histogram.max(),
            })
        })
        .collect();
    stats.sort_by(|a, b| a.stage.cmp(&b.stage));
    stats
}

/// A point-in-time copy of every server counter — what the metrics endpoint
/// serves.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Jobs admitted to the queue.
    pub submitted: usize,
    /// Jobs rejected at admission (queue full or server shut down).
    pub rejected: usize,
    /// Jobs that completed with a response.
    pub completed: usize,
    /// Jobs that completed with a typed error.
    pub failed: usize,
    /// Jobs whose worker panicked (the worker survived).
    pub panicked: usize,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Measurement shots executed across all simulate jobs.
    pub shots_total: usize,
    /// Simulate jobs that ran with `FusionPolicy::Off`.
    pub sim_fusion_off: usize,
    /// Simulate jobs that ran with `FusionPolicy::Safe`.
    pub sim_fusion_safe: usize,
    /// Simulate jobs that ran with `FusionPolicy::Aggressive`.
    pub sim_fusion_aggressive: usize,
    /// Total wall-clock spent compiling, across all workers.
    pub compile_time: Duration,
    /// Total wall-clock spent simulating, across all workers.
    pub simulate_time: Duration,
    /// Error-level findings of the static verifier across all validated jobs
    /// (0 unless the server was built with `validate(true)`).
    pub verify_errors: usize,
    /// Warning-level findings of the static verifier across all validated
    /// jobs.
    pub verify_warnings: usize,
    /// Telemetry span id of the most recent job with an error-level verifier
    /// finding (0 when none, or when telemetry is off).
    pub verify_last_error_span: u64,
    /// Jobs claimed by work-stealing rather than a worker's own deque.
    pub queue_steals: u64,
    /// Per-stage latency distributions from the telemetry registry, sorted
    /// by stage name; empty when the server runs without telemetry.
    pub latency: Vec<LatencyStats>,
    /// Per-tenant decomposition-cache statistics, sorted by tenant name.
    pub tenants: Vec<TenantCacheStats>,
}

impl MetricsSnapshot {
    pub(crate) fn from_counters(
        metrics: &ServerMetrics,
        queue_depth: usize,
        workers: usize,
        queue_steals: u64,
        latency: Vec<LatencyStats>,
        mut tenants: Vec<TenantCacheStats>,
    ) -> Self {
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        MetricsSnapshot {
            submitted: metrics.submitted.load(Ordering::Relaxed),
            rejected: metrics.rejected.load(Ordering::Relaxed),
            completed: metrics.completed.load(Ordering::Relaxed),
            failed: metrics.failed.load(Ordering::Relaxed),
            panicked: metrics.panicked.load(Ordering::Relaxed),
            queue_depth,
            workers,
            shots_total: metrics.shots_total.load(Ordering::Relaxed),
            sim_fusion_off: metrics.sim_by_fusion[0].load(Ordering::Relaxed),
            sim_fusion_safe: metrics.sim_by_fusion[1].load(Ordering::Relaxed),
            sim_fusion_aggressive: metrics.sim_by_fusion[2].load(Ordering::Relaxed),
            compile_time: Duration::from_nanos(metrics.compile_nanos.load(Ordering::Relaxed)),
            simulate_time: Duration::from_nanos(metrics.simulate_nanos.load(Ordering::Relaxed)),
            verify_errors: metrics.verify_errors.load(Ordering::Relaxed),
            verify_warnings: metrics.verify_warnings.load(Ordering::Relaxed),
            verify_last_error_span: metrics.verify_last_error_span.load(Ordering::Relaxed),
            queue_steals,
            latency,
            tenants,
        }
    }

    /// The snapshot as a JSON object — the body a `/metrics` route would
    /// serve: the counters, then `latency` (an object keyed by stage) and
    /// `tenants` (an array sorted by tenant name).
    pub fn to_json(&self) -> Value {
        let latency = self.latency.iter().map(|stage| {
            let quantiles = Value::object([
                ("count", Value::from(stage.count)),
                ("p50_micros", Value::from(stage.p50_micros)),
                ("p90_micros", Value::from(stage.p90_micros)),
                ("p99_micros", Value::from(stage.p99_micros)),
                ("max_micros", Value::from(stage.max_micros)),
            ]);
            (stage.stage.as_str(), quantiles)
        });
        let tenants = self.tenants.iter().map(|t| {
            Value::object([
                ("tenant", Value::from(t.tenant.as_str())),
                ("entries", Value::from(t.entries)),
                ("hits", Value::from(t.hits)),
                ("misses", Value::from(t.misses)),
                ("evictions", Value::from(t.evictions)),
                ("hit_rate", Value::from(t.hit_rate())),
            ])
        });
        Value::object([
            ("submitted", Value::from(self.submitted)),
            ("rejected", Value::from(self.rejected)),
            ("completed", Value::from(self.completed)),
            ("failed", Value::from(self.failed)),
            ("panicked", Value::from(self.panicked)),
            ("queue_depth", Value::from(self.queue_depth)),
            ("workers", Value::from(self.workers)),
            ("shots_total", Value::from(self.shots_total)),
            ("sim_fusion_off", Value::from(self.sim_fusion_off)),
            ("sim_fusion_safe", Value::from(self.sim_fusion_safe)),
            (
                "sim_fusion_aggressive",
                Value::from(self.sim_fusion_aggressive),
            ),
            (
                "compile_micros",
                Value::from(self.compile_time.as_micros() as u64),
            ),
            (
                "simulate_micros",
                Value::from(self.simulate_time.as_micros() as u64),
            ),
            ("verify_errors", Value::from(self.verify_errors)),
            ("verify_warnings", Value::from(self.verify_warnings)),
            (
                "verify_last_error_span",
                Value::from(self.verify_last_error_span),
            ),
            ("queue_steals", Value::from(self.queue_steals)),
            ("latency", Value::object(latency)),
            ("tenants", Value::Array(tenants.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_traffic() {
        let stats = TenantCacheStats {
            tenant: "t".into(),
            entries: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        assert_eq!(stats.hit_rate(), 0.0);
        let stats = TenantCacheStats {
            hits: 3,
            misses: 1,
            ..stats
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn snapshot_json_lists_tenants_sorted() {
        let metrics = ServerMetrics::default();
        metrics.submitted.store(5, Ordering::Relaxed);
        let snap = MetricsSnapshot::from_counters(
            &metrics,
            1,
            2,
            0,
            Vec::new(),
            vec![
                TenantCacheStats {
                    tenant: "zeta".into(),
                    entries: 1,
                    hits: 1,
                    misses: 1,
                    evictions: 0,
                },
                TenantCacheStats {
                    tenant: "alpha".into(),
                    entries: 2,
                    hits: 4,
                    misses: 0,
                    evictions: 1,
                },
            ],
        );
        assert_eq!(snap.tenants[0].tenant, "alpha");
        let json = snap.to_json();
        assert_eq!(json.get("submitted").and_then(Value::as_u64), Some(5));
        let tenants = json.get("tenants").and_then(Value::as_array).unwrap();
        let tenant = |i: usize, key: &str| tenants[i].get(key).cloned();
        assert_eq!(tenant(0, "tenant"), Some(Value::from("alpha")));
        assert_eq!(tenant(1, "tenant"), Some(Value::from("zeta")));
        assert_eq!(tenant(1, "hit_rate").and_then(|v| v.as_f64()), Some(0.5));
        // Without telemetry the latency object is present but empty.
        assert_eq!(json.get("latency"), Some(&Value::Object(Vec::new())));
        assert_eq!(json.get("queue_steals").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn latency_stats_summarise_only_latency_histograms() {
        let registry = telemetry::Registry::new();
        registry.histogram("latency.simulate").record(100);
        registry.histogram("latency.compile").record(10);
        registry.histogram("latency.compile").record(20);
        registry.histogram("engine.shots").record(999); // not a latency stage
        let stats = latency_stats(&registry);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].stage, "compile");
        assert_eq!(stats[0].count, 2);
        assert_eq!(stats[1].stage, "simulate");
        assert_eq!(stats[1].max_micros, 100);
        assert!(stats[1].p50_micros >= 64 && stats[1].p50_micros <= 127);
    }

    #[test]
    fn latency_json_renders_per_stage_quantiles() {
        let registry = telemetry::Registry::new();
        for v in [10, 20, 40, 80] {
            registry.histogram("latency.queue_wait").record(v);
        }
        let metrics = ServerMetrics::default();
        let snap =
            MetricsSnapshot::from_counters(&metrics, 0, 1, 3, latency_stats(&registry), vec![]);
        assert_eq!(snap.queue_steals, 3);
        let json = snap.to_json();
        let stage = json
            .get("latency")
            .and_then(|l| l.get("queue_wait"))
            .unwrap();
        let quantile = |key: &str| stage.get(key).and_then(Value::as_u64);
        assert_eq!(quantile("count"), Some(4));
        assert_eq!(quantile("max_micros"), Some(80));
        assert!(quantile("p50_micros").unwrap() <= quantile("p99_micros").unwrap());
        assert_eq!(json.get("queue_steals").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn record_verify_remembers_the_last_error_trace_span() {
        let metrics = ServerMetrics::default();
        metrics.record_verify(&[
            verify::Diagnostic::warning("rule/w", "odd").with_trace_span(7),
            verify::Diagnostic::error("rule/e", "bad").with_trace_span(42),
        ]);
        assert_eq!(metrics.verify_errors.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.verify_last_error_span.load(Ordering::Relaxed), 42);
        // Warnings alone never overwrite the remembered error span.
        metrics.record_verify(&[verify::Diagnostic::warning("rule/w", "odd").with_trace_span(9)]);
        assert_eq!(metrics.verify_last_error_span.load(Ordering::Relaxed), 42);
    }
}
