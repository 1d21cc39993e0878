//! # rfx-telemetry
//!
//! Zero-dependency structured observability for the rfx stack: a
//! [`Registry`] of counters, gauges, and fixed-bucket histograms (with
//! optional per-bucket **exemplars** linking tail samples to traces)
//! recorded lock-free on the hot path; request-scoped span tracing
//! ([`span!`]) with explicit [`TraceId`]/[`SpanContext`] propagation
//! across threads, sampling ([`TraceConfig`]), and a ring-buffer
//! [`TraceRecorder`]; and exporters ([`export`]) to human-readable text
//! and schema-stable JSON.
//!
//! Three usage patterns, all via the cheap-to-clone [`Telemetry`] handle:
//!
//! * **Per-instance** — `rfx-serve` creates one `Telemetry` per service
//!   so concurrent services (and unit tests) never share state; its
//!   `ServeStats` snapshot is computed from the registry's histograms.
//! * **Process-global** — [`global()`] returns the process-wide handle:
//!   the fallback domain for instrumentation running outside any
//!   request scope (e.g. offline benches driving the simulators).
//! * **Ambient** — [`Telemetry::in_context`] installs a domain plus a
//!   parent [`SpanContext`] for the current thread; [`current()`] then
//!   resolves to it instead of the global domain. This is how device
//!   instrumentation deep in the call stack (simulators, kernels)
//!   records into the *serving* domain and parents under the owning
//!   batch span instead of starting orphan roots.
//!
//! Metric names are dotted paths, lowest-level component last:
//! `serve.queue.depth`, `serve.backend.cpu-sharded.batch_latency_us`,
//! `gpusim.perf.dram.transactions`, `fpgasim.perf.stall.memory_cycles`.
//! Unit suffixes (`_us`, `_bytes`, `_rows`, `_cycles`) are part of the
//! name. Memory-hierarchy and stall counters shared by every execution
//! path use the schema-stable `<domain>.perf.*` vocabulary of [`perf`].
//!
//! ```
//! use rfx_telemetry::Telemetry;
//!
//! let tel = Telemetry::new();
//! let hits = tel.counter("cache.hits");      // register once,
//! hits.inc();                                 // record lock-free.
//! tel.histogram("req.latency_us").record(250);
//! {
//!     let _span = rfx_telemetry::span!(tel, "batch.traverse", backend = "cpu");
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.metrics.counter("cache.hits"), Some(1));
//! println!("{}", rfx_telemetry::export::to_json(&snap));
//! ```

#![forbid(unsafe_code)]

pub mod export;
pub mod metrics;
pub mod perf;
pub mod registry;
pub mod trace;

pub use metrics::{Counter, Exemplar, Gauge, Histogram, HistogramBucket, HistogramSnapshot};
pub use perf::PerfCounters;
pub use registry::{MetricsSnapshot, Registry};
pub use trace::{
    OwnedSpan, Span, SpanContext, SpanId, SpanRecord, TraceConfig, TraceId, TraceRecorder,
    TraceSnapshot,
};

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One observability domain: a metrics registry plus a trace recorder.
/// Clones share the same underlying state.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: Arc<Registry>,
    tracer: Arc<TraceRecorder>,
}

impl Telemetry {
    /// A fresh, empty telemetry domain.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// A domain with explicit tracing knobs (sampling + ring capacity).
    pub fn with_trace_config(config: TraceConfig) -> Self {
        Telemetry {
            registry: Arc::new(Registry::new()),
            tracer: Arc::new(TraceRecorder::with_config(config)),
        }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The underlying trace recorder.
    pub fn tracer(&self) -> &TraceRecorder {
        &self.tracer
    }

    /// Gets or creates a counter (see [`Registry::counter`]).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// Gets or creates a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// Gets or creates a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }

    /// Forgets every metric named `prefix…` (see
    /// [`Registry::remove_prefix`]).
    pub fn remove_prefix(&self, prefix: &str) -> usize {
        self.registry.remove_prefix(prefix)
    }

    /// Opens a span (prefer the [`span!`] macro).
    pub fn start_span(&self, name: &'static str) -> Span<'_> {
        self.tracer.start_span(name)
    }

    /// Opens a span explicitly parented under a carried [`SpanContext`]
    /// (see [`TraceRecorder::start_span_child_of`]).
    pub fn start_span_child_of(&self, name: &'static str, ctx: SpanContext) -> Span<'_> {
        self.tracer.start_span_child_of(name, ctx)
    }

    /// Opens a `Send` root span that travels with a work item across
    /// threads, backdated to `started` (see
    /// [`TraceRecorder::start_owned`]).
    pub fn start_owned_span_at(&self, name: &'static str, started: Instant) -> OwnedSpan {
        TraceRecorder::start_owned(&self.tracer, name, started)
    }

    /// Installs this domain (plus `ctx` as the parent for otherwise
    /// root-less spans) as the thread's **ambient** telemetry until the
    /// returned guard drops. While installed, [`current()`] resolves to
    /// this domain, so instrumentation that cannot be handed a handle
    /// (device simulators, kernels) records here and parents under the
    /// request's span tree. Scopes nest; the innermost wins.
    pub fn in_context(&self, ctx: SpanContext) -> AmbientScope {
        AMBIENT.with(|stack| stack.borrow_mut().push((self.clone(), Some(ctx))));
        AmbientScope { _not_send: std::marker::PhantomData }
    }

    /// Copies the current metric values.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Copies the retained spans.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.tracer.snapshot()
    }

    /// Full snapshot: metrics plus spans.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { metrics: self.metrics_snapshot(), trace: self.trace_snapshot() }
    }
}

/// Point-in-time copy of a whole [`Telemetry`] domain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every registered metric's value.
    pub metrics: MetricsSnapshot,
    /// The retained span window.
    pub trace: TraceSnapshot,
}

thread_local! {
    /// Stack of ambient `(domain, parent context)` scopes for this
    /// thread, innermost last.
    static AMBIENT: RefCell<Vec<(Telemetry, Option<SpanContext>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Guard for an ambient telemetry scope (see [`Telemetry::in_context`]);
/// dropping it uninstalls the scope. `!Send` — the scope is a property
/// of the installing thread.
#[must_use = "the ambient scope ends when this guard drops"]
pub struct AmbientScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for AmbientScope {
    fn drop(&mut self) {
        AMBIENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The thread's ambient parent context for `recorder_id`, if the
/// innermost ambient scope belongs to that recorder (used by
/// [`TraceRecorder::start_span`] to resolve cross-thread parents).
pub(crate) fn ambient_context_for(recorder_id: usize) -> Option<SpanContext> {
    AMBIENT.with(|stack| {
        stack.borrow().last().and_then(|(_, ctx)| *ctx).filter(|ctx| ctx.recorder == recorder_id)
    })
}

/// The telemetry domain instrumentation should record into *right now*:
/// the thread's innermost ambient domain (installed by
/// [`Telemetry::in_context`] around request execution), falling back to
/// [`global()`]. Device simulators and kernels call this instead of
/// `global()` so their spans join the owning request's trace when one is
/// in scope.
pub fn current() -> Telemetry {
    AMBIENT
        .with(|stack| stack.borrow().last().map(|(tel, _)| tel.clone()))
        .unwrap_or_else(|| global().clone())
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-wide telemetry domain. Created on first use; never reset.
/// Instrumentation running outside any ambient scope (offline benches,
/// startup probes) lands here via [`current()`].
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(Telemetry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Telemetry::new();
        let b = a.clone();
        a.counter("n").inc();
        b.counter("n").inc();
        assert_eq!(a.metrics_snapshot().counter("n"), Some(2));
    }

    #[test]
    fn global_is_stable() {
        let g1 = global();
        let g2 = global();
        g1.counter("lib.global.test").inc();
        assert!(g2.metrics_snapshot().counter("lib.global.test").unwrap_or(0) >= 1);
    }

    #[test]
    fn current_resolves_ambient_then_global() {
        let tel = Telemetry::new();
        let root = tel.start_owned_span_at("req", Instant::now());
        {
            let _scope = tel.in_context(root.context());
            current().counter("ambient.hit").inc();
            // Spans opened via current() parent under the ambient
            // context even with nothing on this thread's span stack.
            let device_tel = current();
            let _child = crate::span!(device_tel, "device.phase");
        }
        root.finish();
        // Outside the scope, current() is the global domain again.
        current().counter("lib.current.global").inc();

        let snap = tel.snapshot();
        assert_eq!(snap.metrics.counter("ambient.hit"), Some(1));
        let child = snap.trace.spans.iter().find(|s| s.name == "device.phase").unwrap();
        let root = snap.trace.spans.iter().find(|s| s.name == "req").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(child.trace, root.trace);
        assert!(global().metrics_snapshot().counter("lib.current.global").unwrap_or(0) >= 1);
    }

    #[test]
    fn ambient_scopes_nest_and_unwind() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        let ra = a.start_owned_span_at("a", Instant::now());
        let rb = b.start_owned_span_at("b", Instant::now());
        {
            let _sa = a.in_context(ra.context());
            {
                let _sb = b.in_context(rb.context());
                current().counter("nested").inc();
            }
            current().counter("outer").inc();
        }
        drop((ra, rb));
        assert_eq!(b.metrics_snapshot().counter("nested"), Some(1));
        assert_eq!(a.metrics_snapshot().counter("outer"), Some(1));
        assert_eq!(a.metrics_snapshot().counter("nested"), None);
    }
}
