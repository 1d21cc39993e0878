//! Service metrics on the `rfx-telemetry` registry.
//!
//! Every number the service records lands in a named metric on the
//! service's [`Telemetry`] domain (`serve.*`, see DESIGN.md §10), so one
//! JSON snapshot exports the whole picture; the serializable
//! [`ServeStats`] monitoring surface is *computed from* the registry.
//! Latency series are fixed-bucket histograms — recording is lock-free
//! and snapshots read bucket counts instead of sorting a sample buffer
//! (the old `SampleRing` sorted up to 2^18 samples on every snapshot).

use crate::backend::BackendKind;
use crate::breaker::BreakerState;
use crate::queue::FlushReason;
use crate::registry::VersionStats;
use crate::router::ShadowStats;
use rfx_telemetry::{Counter, Gauge, Histogram, HistogramSnapshot, Telemetry, TraceId};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Percentile summary of one latency series (µs), bucket-estimated.
///
/// `count`, `mean_us`, and `max_us` are exact; the percentiles carry the
/// histogram's ≤ 12.5% relative bucket error.
#[derive(Debug, Clone, Serialize)]
pub struct LatencySummary {
    /// Samples the summary was computed over.
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

impl LatencySummary {
    pub(crate) fn from_histogram(h: &HistogramSnapshot) -> Self {
        LatencySummary {
            count: h.count,
            mean_us: h.mean(),
            p50_us: h.quantile(0.50),
            p95_us: h.quantile(0.95),
            p99_us: h.quantile(0.99),
            max_us: h.max,
        }
    }
}

/// Telemetry handles for one backend (registered once at startup;
/// recording is atomic ops only).
#[derive(Debug)]
pub(crate) struct BackendRecorder {
    kind: BackendKind,
    batches: Arc<Counter>,
    queries: Arc<Counter>,
    batch_latency: Arc<Histogram>,
    dispatches: Arc<Counter>,
    ewma_us: Arc<Gauge>,
    inflight_rows: Arc<Gauge>,
    device_fallbacks: Arc<Gauge>,
    timeouts: Arc<Counter>,
    breaker_state: Arc<Gauge>,
    breaker_trips: Arc<Gauge>,
    injected_faults: Arc<Gauge>,
}

impl BackendRecorder {
    fn new(telemetry: &Telemetry, kind: BackendKind) -> Self {
        let name = kind.name();
        BackendRecorder {
            kind,
            batches: telemetry.counter(&format!("serve.backend.{name}.batches")),
            queries: telemetry.counter(&format!("serve.backend.{name}.queries")),
            batch_latency: telemetry.histogram(&format!("serve.backend.{name}.batch_latency_us")),
            dispatches: telemetry.counter(&format!("serve.scheduler.{name}.dispatches")),
            ewma_us: telemetry.gauge(&format!("serve.scheduler.{name}.ewma_us")),
            inflight_rows: telemetry.gauge(&format!("serve.scheduler.{name}.inflight_rows")),
            device_fallbacks: telemetry.gauge(&format!("serve.backend.{name}.device_fallbacks")),
            timeouts: telemetry.counter(&format!("serve.backend.{name}.timeouts")),
            breaker_state: telemetry.gauge(&format!("serve.breaker.{name}.state")),
            breaker_trips: telemetry.gauge(&format!("serve.breaker.{name}.trips")),
            injected_faults: telemetry.gauge(&format!("serve.backend.{name}.injected_faults")),
        }
    }

    /// Records one attempt that exceeded the per-batch timeout
    /// (effective time: wall + virtual).
    pub(crate) fn record_timeout(&self) {
        self.timeouts.inc();
    }

    /// Records one executed batch; a sampled `trace` becomes the latency
    /// bucket's exemplar, linking the aggregate back to the span tree.
    pub(crate) fn record_batch(&self, rows: usize, elapsed_us: u64, trace: TraceId) {
        self.batches.inc();
        self.queries.add(rows as u64);
        self.batch_latency.record_with_exemplar(elapsed_us, trace);
    }
}

/// Shared metrics hub, one per service, backed by the service's
/// [`Telemetry`] domain.
#[derive(Debug)]
pub(crate) struct MetricsHub {
    started: Instant,
    submitted_rows: Arc<Counter>,
    rejected_rows: Arc<Counter>,
    completed_rows: Arc<Counter>,
    batches: Arc<Counter>,
    /// `serve.flush.<reason>`, indexed by `FlushReason as usize`.
    flushes: [Arc<Counter>; 3],
    batch_rows: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    request_latency: Arc<Histogram>,
    /// End-to-end `serve.batch` span durations (oldest enqueue →
    /// delivery); exemplars point a p99 bucket at a full trace.
    batch_duration: Arc<Histogram>,
    /// Exact largest batch (the histogram max is bucket-exact too, but
    /// this keeps the old field's exactness guarantee).
    max_batch_rows: AtomicU64,
    retries: Arc<Counter>,
    recovered: Arc<Counter>,
    shed: Arc<Counter>,
    shed_rows: Arc<Counter>,
    failed: Arc<Counter>,
    failed_rows: Arc<Counter>,
    backends: Vec<BackendRecorder>,
}

impl MetricsHub {
    pub(crate) fn new(telemetry: &Telemetry, backends: &[BackendKind]) -> Self {
        MetricsHub {
            started: Instant::now(),
            submitted_rows: telemetry.counter("serve.queue.submitted_rows"),
            rejected_rows: telemetry.counter("serve.queue.rejected_rows"),
            completed_rows: telemetry.counter("serve.requests.completed_rows"),
            batches: telemetry.counter("serve.batcher.batches"),
            flushes: FlushReason::ALL
                .map(|reason| telemetry.counter(&format!("serve.flush.{}", reason.name()))),
            batch_rows: telemetry.histogram("serve.batcher.batch_rows"),
            queue_wait: telemetry.histogram("serve.queue.wait_us"),
            queue_depth: telemetry.gauge("serve.queue.depth"),
            request_latency: telemetry.histogram("serve.request.latency_us"),
            batch_duration: telemetry.histogram("serve.batch.duration_us"),
            max_batch_rows: AtomicU64::new(0),
            retries: telemetry.counter("serve.retry"),
            recovered: telemetry.counter("serve.recovered"),
            shed: telemetry.counter("serve.shed"),
            shed_rows: telemetry.counter("serve.shed_rows"),
            failed: telemetry.counter("serve.failed"),
            failed_rows: telemetry.counter("serve.failed_rows"),
            backends: backends.iter().map(|&k| BackendRecorder::new(telemetry, k)).collect(),
        }
    }

    /// One retry attempt (after a failed/timed-out/corrupt attempt).
    pub(crate) fn record_retry(&self) {
        self.retries.inc();
    }

    /// One batch that ultimately succeeded after at least one retry.
    pub(crate) fn record_recovered(&self) {
        self.recovered.inc();
    }

    /// One batch shed at the deadline (`requests` tickets, `rows` rows).
    pub(crate) fn record_shed(&self, requests: usize, rows: usize) {
        self.shed.add(requests as u64);
        self.shed_rows.add(rows as u64);
    }

    /// One batch that exhausted every resilience avenue.
    pub(crate) fn record_failed(&self, requests: usize, rows: usize) {
        self.failed.add(requests as u64);
        self.failed_rows.add(rows as u64);
    }

    pub(crate) fn record_submit(&self, rows: usize) {
        self.submitted_rows.add(rows as u64);
    }

    pub(crate) fn record_reject(&self, rows: usize) {
        self.rejected_rows.add(rows as u64);
    }

    pub(crate) fn record_batch_formed(&self, rows: usize, flush: FlushReason) {
        self.batches.inc();
        self.flushes[flush as usize].inc();
        self.batch_rows.record(rows as u64);
        self.max_batch_rows.fetch_max(rows as u64, Ordering::Relaxed);
    }

    /// Enqueue-to-batch-formation wait of one request.
    pub(crate) fn record_queue_wait(&self, wait_us: u64) {
        self.queue_wait.record(wait_us);
    }

    pub(crate) fn record_dispatch(&self, idx: usize) {
        self.backends[idx].dispatches.inc();
    }

    /// Records one delivered request; a sampled `trace` (the batch it
    /// rode in) becomes the latency bucket's exemplar.
    pub(crate) fn record_request_done(&self, rows: usize, latency_us: u64, trace: TraceId) {
        self.completed_rows.add(rows as u64);
        self.request_latency.record_with_exemplar(latency_us, trace);
    }

    /// Records the whole-batch span duration (enqueue→delivery).
    pub(crate) fn record_batch_duration(&self, duration_us: u64, trace: TraceId) {
        self.batch_duration.record_with_exemplar(duration_us, trace);
    }

    pub(crate) fn recorder(&self, idx: usize) -> &BackendRecorder {
        &self.backends[idx]
    }

    /// Builds the [`ServeStats`] surface and refreshes the sampled
    /// gauges (queue depth, scheduler estimates, fallback counts,
    /// breaker states) so a telemetry export taken afterwards is
    /// coherent with it.
    pub(crate) fn snapshot(
        &self,
        queue_rows: usize,
        backend_probe: impl Fn(usize) -> BackendProbe,
        model: ModelLifecycleStats,
    ) -> ServeStats {
        self.queue_depth.set(queue_rows as f64);
        let batches = self.batches.get();
        let completed = self.completed_rows.get();
        let uptime = self.started.elapsed();
        let flushed = |reason: FlushReason| self.flushes[reason as usize].get();
        let backends = self
            .backends
            .iter()
            .enumerate()
            .map(|(idx, rec)| {
                let probe = backend_probe(idx);
                rec.ewma_us.set(probe.ewma_us);
                rec.inflight_rows.set(probe.inflight_rows as f64);
                rec.device_fallbacks.set(probe.fallbacks as f64);
                rec.breaker_state.set(probe.breaker_state.as_gauge());
                rec.breaker_trips.set(probe.breaker_trips as f64);
                rec.injected_faults.set(probe.injected_faults as f64);
                let queries = rec.queries.get();
                BackendStats {
                    backend: rec.kind.name().to_string(),
                    batches: rec.batches.get(),
                    queries,
                    share_of_queries: if completed > 0 {
                        queries as f64 / completed as f64
                    } else {
                        0.0
                    },
                    ewma_us_per_query: probe.ewma_us,
                    inflight_rows: probe.inflight_rows,
                    device_fallbacks: probe.fallbacks,
                    timeouts: rec.timeouts.get(),
                    injected_faults: probe.injected_faults,
                    breaker_state: probe.breaker_state.name().to_string(),
                    breaker_trips: probe.breaker_trips,
                    breaker_transitions: probe.breaker_transitions,
                    batch_latency: LatencySummary::from_histogram(&rec.batch_latency.snapshot()),
                }
            })
            .collect();
        ServeStats {
            uptime_ms: uptime.as_millis() as u64,
            submitted_rows: self.submitted_rows.get(),
            rejected_rows: self.rejected_rows.get(),
            completed_rows: completed,
            queue_rows,
            batches,
            mean_batch_occupancy: if batches > 0 { completed as f64 / batches as f64 } else { 0.0 },
            max_batch_occupancy: self.max_batch_rows.load(Ordering::Relaxed),
            flushes: FlushStats {
                size: flushed(FlushReason::Size),
                idle: flushed(FlushReason::Idle),
                drain: flushed(FlushReason::Drain),
            },
            throughput_qps: completed as f64 / uptime.as_secs_f64().max(1e-9),
            retries: self.retries.get(),
            recovered_batches: self.recovered.get(),
            shed_requests: self.shed.get(),
            shed_rows: self.shed_rows.get(),
            failed_requests: self.failed.get(),
            failed_rows: self.failed_rows.get(),
            queue_wait: LatencySummary::from_histogram(&self.queue_wait.snapshot()),
            request_latency: LatencySummary::from_histogram(&self.request_latency.snapshot()),
            backends,
            model,
        }
    }
}

/// Model-lifecycle slice of a [`ServeStats`] snapshot: which version is
/// serving, how traffic is routed, what every retained version has done
/// so far, and what the evicted ones had done in total.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ModelLifecycleStats {
    /// Version currently serving new batches (1-based).
    pub active_version: u64,
    /// Activation epoch: bumps on every swap (including rollbacks).
    pub epoch: u64,
    /// Total activations since startup.
    pub swaps: u64,
    /// The current route mode, rendered (`single`, `shadow:v2@...`).
    pub route: String,
    /// Aggregate shadow-scoring counters across all candidates.
    pub shadow: ShadowStats,
    /// Per-version breakdown of the versions the registry still holds,
    /// in publish order.
    pub versions: Vec<VersionStats>,
    /// Versions the registry has evicted.
    pub evicted_versions: u64,
    /// Batches served live by evicted versions; with `versions[].batches`
    /// it sums to every delivered batch. A version evicted with a batch
    /// in flight is added when that batch has delivered.
    pub evicted_batches: u64,
    /// Rows served live by evicted versions; with `versions[].rows` it
    /// sums to `completed_rows`.
    pub evicted_rows: u64,
}

/// Live per-backend readings the hub samples at snapshot time (supplied
/// by the service, which owns the scheduler and backend objects).
#[derive(Debug, Clone, Default)]
pub(crate) struct BackendProbe {
    pub(crate) ewma_us: f64,
    pub(crate) inflight_rows: usize,
    pub(crate) fallbacks: u64,
    pub(crate) injected_faults: u64,
    pub(crate) breaker_state: BreakerState,
    pub(crate) breaker_trips: u64,
    pub(crate) breaker_transitions: Vec<String>,
}

/// Per-backend slice of a [`ServeStats`] snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct BackendStats {
    /// Stable backend name (`cpu-sharded`, ...).
    pub backend: String,
    /// Batches executed.
    pub batches: u64,
    /// Query rows executed.
    pub queries: u64,
    /// Fraction of all completed rows this backend served.
    pub share_of_queries: f64,
    /// The scheduler's current per-query latency estimate (µs).
    pub ewma_us_per_query: f64,
    /// Rows dispatched but not yet completed.
    pub inflight_rows: usize,
    /// Batches a stand-in store answered: those of a `cpu-sharded-q8`
    /// slot whose u8 build refused the forest, answered on the block
    /// store (0 for every other slot). The name is kept for schema
    /// stability.
    pub device_fallbacks: u64,
    /// Attempts that exceeded the per-batch timeout (wall + virtual).
    pub timeouts: u64,
    /// Faults injected by the active `FaultPlan` (0 without one).
    pub injected_faults: u64,
    /// Circuit-breaker state: `closed`, `open`, or `half-open`.
    pub breaker_state: String,
    /// Closed→Open and HalfOpen→Open breaker trips.
    pub breaker_trips: u64,
    /// Full breaker transition log (`"closed->open@<seq>"`, ...), in
    /// order — the determinism witness chaos runs compare.
    pub breaker_transitions: Vec<String>,
    /// Wall-clock latency of whole batches on this backend.
    pub batch_latency: LatencySummary,
}

/// Why batches closed. A free worker takes each batch, so none waited
/// for company: `size` ones filled up while their slots were busy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct FlushStats {
    /// The batch holds `max_batch_size` rows.
    pub size: u64,
    /// A free slot took what was queued.
    pub idle: u64,
    /// The queue was closed (shutdown drain).
    pub drain: u64,
}

/// Point-in-time service snapshot — the monitoring/bench export surface.
#[derive(Debug, Clone, Serialize)]
pub struct ServeStats {
    pub uptime_ms: u64,
    /// Rows admitted to the queue.
    pub submitted_rows: u64,
    /// Rows refused by admission control.
    pub rejected_rows: u64,
    /// Rows predicted and delivered.
    pub completed_rows: u64,
    /// Rows waiting in the queue right now.
    pub queue_rows: usize,
    /// Batches the workers formed.
    pub batches: u64,
    /// Completed rows per formed batch.
    pub mean_batch_occupancy: f64,
    /// Largest batch formed (rows).
    pub max_batch_occupancy: u64,
    /// Formed batches by the rule that closed them (sums to `batches`).
    pub flushes: FlushStats,
    /// Completed rows per second of uptime.
    pub throughput_qps: f64,
    /// Retry attempts across all batches.
    pub retries: u64,
    /// Batches that succeeded after at least one retry.
    pub recovered_batches: u64,
    /// Requests completed with [`crate::ServeError::Shed`].
    pub shed_requests: u64,
    /// Rows in shed requests.
    pub shed_rows: u64,
    /// Requests completed with [`crate::ServeError::BackendFailed`].
    pub failed_requests: u64,
    /// Rows in failed requests.
    pub failed_rows: u64,
    /// Enqueue-to-batch-formation wait over requests.
    pub queue_wait: LatencySummary,
    /// Enqueue-to-delivery latency over whole requests.
    pub request_latency: LatencySummary,
    /// Per-backend breakdown.
    pub backends: Vec<BackendStats>,
    /// Model lifecycle: active version, route mode, per-version counts.
    pub model: ModelLifecycleStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> (Telemetry, MetricsHub) {
        let tel = Telemetry::new();
        let hub = MetricsHub::new(&tel, &BackendKind::ALL);
        (tel, hub)
    }

    #[test]
    fn percentiles_of_known_series_are_bucket_accurate() {
        let (_tel, hub) = hub();
        for v in 1..=100u64 {
            hub.record_request_done(1, v, TraceId::NONE);
        }
        let s = hub.snapshot(0, |_| BackendProbe::default(), ModelLifecycleStats::default());
        let lat = s.request_latency;
        assert_eq!(lat.count, 100);
        assert_eq!(lat.max_us, 100);
        assert!((lat.mean_us - 50.5).abs() < 1e-9, "mean is exact");
        // Bucket-estimated percentiles: within one 12.5% sub-bucket of
        // the exact rank statistic.
        for (est, exact) in [(lat.p50_us, 50u64), (lat.p95_us, 95), (lat.p99_us, 99)] {
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(rel <= 0.125, "estimate {est} vs exact {exact} (rel {rel})");
        }
    }

    #[test]
    fn snapshot_never_sorts_and_scales_to_large_series() {
        let (_tel, hub) = hub();
        // 2^18 samples used to be the sort cap; record past it and check
        // count/extremes stay exact — snapshot cost is now O(buckets).
        for v in 0..300_000u64 {
            hub.record_request_done(1, v % 5_000, TraceId::NONE);
        }
        let s = hub.snapshot(0, |_| BackendProbe::default(), ModelLifecycleStats::default());
        assert_eq!(s.request_latency.count, 300_000);
        assert_eq!(s.request_latency.max_us, 4_999);
        assert!(s.request_latency.p50_us <= s.request_latency.p95_us);
        assert!(s.request_latency.p95_us <= s.request_latency.p99_us);
    }

    #[test]
    fn metrics_surface_in_the_telemetry_registry() {
        let (tel, hub) = hub();
        let q8 = BackendKind::ALL.iter().position(|&k| k == BackendKind::CpuShardedQ8).unwrap();
        hub.record_submit(4);
        hub.record_batch_formed(4, FlushReason::Idle);
        hub.record_dispatch(q8);
        hub.recorder(q8).record_batch(4, 250, TraceId(9));
        hub.record_request_done(4, 400, TraceId(9));
        hub.record_batch_duration(450, TraceId(9));
        hub.record_retry();
        hub.record_recovered();
        hub.record_shed(1, 2);
        hub.record_failed(1, 3);
        hub.recorder(q8).record_timeout();
        let _ = hub.snapshot(
            2,
            |idx| {
                if idx == q8 {
                    BackendProbe {
                        ewma_us: 1.5,
                        inflight_rows: 3,
                        breaker_state: BreakerState::HalfOpen,
                        breaker_trips: 2,
                        ..BackendProbe::default()
                    }
                } else {
                    BackendProbe::default()
                }
            },
            ModelLifecycleStats::default(),
        );
        let m = tel.metrics_snapshot();
        assert_eq!(m.counter("serve.queue.submitted_rows"), Some(4));
        assert_eq!(m.counter("serve.batcher.batches"), Some(1));
        assert_eq!(m.counter("serve.flush.idle"), Some(1));
        assert_eq!(m.counter("serve.flush.deadline"), None, "no batch waits out a delay");
        assert_eq!(m.counter("serve.scheduler.cpu-sharded-q8.dispatches"), Some(1));
        assert_eq!(m.counter("serve.backend.cpu-sharded-q8.queries"), Some(4));
        assert_eq!(m.gauge("serve.queue.depth"), Some(2.0));
        assert_eq!(m.gauge("serve.scheduler.cpu-sharded-q8.ewma_us"), Some(1.5));
        assert_eq!(m.counter("serve.retry"), Some(1));
        assert_eq!(m.counter("serve.recovered"), Some(1));
        assert_eq!(m.counter("serve.shed"), Some(1));
        assert_eq!(m.counter("serve.shed_rows"), Some(2));
        assert_eq!(m.counter("serve.failed_rows"), Some(3));
        assert_eq!(m.counter("serve.backend.cpu-sharded-q8.timeouts"), Some(1));
        // Breaker gauges: every backend gets one, refreshed at snapshot.
        assert_eq!(m.gauge("serve.breaker.cpu-sharded-q8.state"), Some(2.0));
        assert_eq!(m.gauge("serve.breaker.cpu-sharded-q8.trips"), Some(2.0));
        assert_eq!(m.gauge("serve.breaker.cpu-sharded.state"), Some(0.0));
        assert_eq!(
            m.histogram("serve.backend.cpu-sharded-q8.batch_latency_us").map(|h| h.count),
            Some(1)
        );
        // The tail exemplar of every traced series resolves to the batch.
        for series in ["serve.backend.cpu-sharded-q8.batch_latency_us", "serve.batch.duration_us"] {
            let h = m.histogram(series).expect(series);
            assert_eq!(h.exemplar_for_quantile(0.99).map(|e| e.trace), Some(TraceId(9)));
        }
    }

    #[test]
    fn single_sample_summary() {
        let (_tel, hub) = hub();
        hub.record_request_done(1, 7, TraceId::NONE);
        let lat = hub
            .snapshot(0, |_| BackendProbe::default(), ModelLifecycleStats::default())
            .request_latency;
        assert_eq!((lat.p50_us, lat.p95_us, lat.p99_us, lat.max_us), (7, 7, 7, 7));
    }
}
