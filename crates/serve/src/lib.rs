//! `rfx-serve` — online random-forest inference with dynamic batching
//! and multi-backend scheduling.
//!
//! Offline benchmarks (the rest of this workspace) answer "how fast is a
//! kernel on a fixed batch"; serving answers "what latency/throughput do
//! concurrent clients see". The pieces, in request order:
//!
//! 1. **Admission** — [`RfxServe::submit`] / [`RfxServe::submit_micro_batch`]
//!    copy the query into a bounded queue or reject it with a typed
//!    [`ServeError::Overloaded`] (load shedding, never unbounded memory).
//! 2. **Dynamic batcher** — one thread coalesces queued requests into
//!    batches. Batching amortizes per-launch cost, which pays only while
//!    there is other work to amortize against, so the batcher is
//!    work-conserving: a batch waits for company only while the backend
//!    it would go to is busy. It closes when `max_batch_size` rows are
//!    waiting, when that backend has nothing in flight, or when
//!    `max_batch_delay` has passed since the oldest request arrived —
//!    the upper bound on the wait batching adds, paid only behind a
//!    backend that stays busy that long. Batch size follows load by
//!    itself: one request under trickle traffic, whatever arrived during
//!    the previous batch under sustained traffic. Every batch records
//!    which rule closed it (`flush` on its span, `serve.flush.*`
//!    counters, [`FlushStats`]).
//! 3. **Scheduling** — a cost model picks the backend with the cheapest
//!    estimated completion (per-query latency EWMA × outstanding rows),
//!    learned online from measured batch latencies ([`SchedulePolicy`]).
//! 4. **Executor pool** — one worker thread per backend
//!    ([`BackendKind`]): the row-parallel CPU engine, the tree-sharded
//!    cache-blocked CPU engine, the simulated-GPU hybrid kernel, and the
//!    simulated-FPGA independent kernel — all behind the unified
//!    `rfx_kernels::engine::Predictor` API. All backends agree with the
//!    serial CPU reference bit-for-bit, so scheduling is invisible to
//!    clients.
//! 5. **Observability** — every recorded number lives in the service's
//!    [`rfx_telemetry::Telemetry`] domain ([`RfxServe::telemetry`]):
//!    `serve.*` counters/gauges/histograms plus a `serve.batch` →
//!    `serve.batch.traverse` span tree per executed batch.
//!    [`RfxServe::stats`] computes the serializable [`ServeStats`]
//!    surface (queue depth, batch occupancy, p50/p95/p99, throughput,
//!    per-backend shares) from those histograms — no sample sorting.
//!    The `telemetry` cargo feature additionally enables per-stage
//!    instrumentation inside the kernels and device simulators.
//! 6. **Resilience** — per-batch timeouts with bounded retry, backoff,
//!    and deterministic jitter; per-backend circuit breakers
//!    (closed/open/half-open) that route around tripped backends with
//!    `cpu-sharded` as the always-available backend of last resort; and
//!    deadline-aware load shedding with a typed [`ServeError::Shed`]
//!    outcome ([`ResilienceConfig`]). A seeded [`FaultPlan`] injects
//!    deterministic delay/fail/corrupt/wedge faults at the backend
//!    boundary — with **virtual** delay accounting, so chaos tests
//!    replay bit-identically without sleeping.
//!
//! 7. **Model lifecycle** — the service serves out of a versioned model
//!    registry. [`RfxServe::publish`] registers a new [`ServeModel`] (or
//!    [`RfxServe::publish_forest`] a bare forest, e.g. an
//!    `rfx_forest::online` trainer snapshot) as the next
//!    [`ModelVersion`]; [`RfxServe::activate`] hot-swaps serving to it
//!    with an atomic epoch-based `Arc` handoff — in-flight batches
//!    finish on the version they were dispatched with, zero tickets are
//!    dropped, and activating an older version *is* rollback. Retention
//!    is bounded: the registry keeps the active version, the one the
//!    route names and the two most recent others, and evicts the rest at
//!    publish ([`ServeError::UnknownVersion`] from then on).
//!    [`RfxServe::set_route`] layers traffic control on top: **shadow
//!    mode** re-scores a deterministic sample of batches on a candidate
//!    version after delivery (argmax agreement recorded, responses
//!    never affected), and **A/B split** partitions requests across two
//!    versions by a deterministic admission-sequence hash, whole
//!    batches only — a response is never a blend of versions. Every
//!    ticket reports which version served it
//!    ([`Ticket::served_version`]), and per-version telemetry lands
//!    under `serve.model.<v>.*`.
//!
//! Shutdown ([`RfxServe::shutdown`]) drains: admission closes, queued
//! work still executes, every issued [`Ticket`] resolves.
//!
//! [`loadgen`] provides the deterministic closed-loop load generator the
//! tests and the `online_scoring` example drive the service with.

mod backend;
mod breaker;
mod error;
mod fault;
pub mod loadgen;
mod metrics;
mod model;
mod queue;
mod registry;
mod resilience;
mod router;
mod scheduler;
mod service;
mod ticket;

pub use backend::BackendKind;
pub use breaker::{BreakerConfig, BreakerState};
pub use error::ServeError;
pub use fault::{FaultKind, FaultPlan, FaultRule, FaultSchedule};
pub use loadgen::{run_closed_loop, LoadGenConfig, LoadReport};
pub use metrics::{BackendStats, FlushStats, LatencySummary, ModelLifecycleStats, ServeStats};
pub use model::ServeModel;
pub use registry::{ModelVersion, VersionStats};
pub use resilience::ResilienceConfig;
pub use router::{Arm, RouteMode, ShadowStats};
pub use scheduler::SchedulePolicy;
pub use service::{RfxServe, ServeConfig};
pub use ticket::Ticket;
// The engine's vote-reduction policy and the packing plan, re-exported
// so deployments can set `ServeConfig::vote_policy` / `ServeConfig::pack`
// without depending on rfx-kernels or rfx-core directly.
pub use rfx_core::pack::PackPlan;
pub use rfx_kernels::VotePolicy;
