//! `rfx-serve` — online random-forest inference with dynamic batching
//! over exact CPU backends.
//!
//! Offline benchmarks (the rest of this workspace) answer "how fast is a
//! kernel on a fixed batch"; serving answers "what latency/throughput do
//! concurrent clients see". The pieces, in request order:
//!
//! 1. **Admission** — [`RfxServe::submit`] / [`RfxServe::submit_micro_batch`]
//!    copy the query into a bounded queue or reject it with a typed
//!    [`ServeError::Overloaded`] (load shedding, never unbounded memory).
//! 2. **Batching, pulled by the workers** — a free worker takes the head
//!    batch (the head request's traffic arm, in arrival order, up to
//!    `max_batch_size` rows) when the scheduler picks its slot for it,
//!    and comes back for the next one when done. Batching amortizes
//!    per-launch cost, which pays only while there is other work, and a
//!    batch waits for company only while every slot that would take it
//!    is busy: one request under trickle traffic, whatever arrived
//!    during the previous batch under sustained traffic. Each batch
//!    records why it closed — `size`, `idle` or `drain` (`flush` on its
//!    span, `serve.flush.*` counters, [`FlushStats`]).
//! 3. **Scheduling** — a cost model picks the slot with the cheapest
//!    estimated completion (per-query latency EWMA × the rows ahead of
//!    the batch: in flight and queued on a busy slot, the batch alone on
//!    an idle one), learned online from measured batch latencies
//!    ([`SchedulePolicy`]).
//! 4. **Executor pool** — one worker thread per backend
//!    ([`BackendKind`]), and no other thread: the tree-sharded CPU engine
//!    over the one-line block store (`cpu-sharded`, the default pool;
//!    [`rfx_core::block`]: one complete depth-3 subtree per 64 B line),
//!    and the opt-in u8-quantized FIL twin (`cpu-sharded-q8`). Each slot
//!    is built from its kind and the model alone, and every engine in it
//!    votes exactly: no setting swaps a slot's store or its vote
//!    reduction. `cpu-sharded` agrees with the serial CPU reference
//!    bit-for-bit and the quantized slot with its own layout's scalar
//!    traversal, so scheduling is invisible to clients. The GPU and FPGA
//!    simulators are not backends: they model device time offline (the
//!    `rfx-bench` harnesses), and on the host would only spend CPU to
//!    return the labels `cpu-sharded` computes directly.
//! 5. **Observability** — every recorded number lives in the service's
//!    [`rfx_telemetry::Telemetry`] domain ([`RfxServe::telemetry`]):
//!    `serve.*` counters/gauges/histograms plus a `serve.batch` root per
//!    executed batch whose `queue_wait` → `dispatch` → `traverse` →
//!    `deliver` stage spans tile it. [`RfxServe::stats`] computes the
//!    serializable [`ServeStats`] surface (queue depth, batch occupancy,
//!    p50/p95/p99, throughput, per-backend shares) from those histograms
//!    — no sample sorting. The kernels record their per-stage counters
//!    into the same trace.
//! 6. **Resilience** — per-batch timeouts with bounded retry, backoff,
//!    and deterministic jitter; per-backend circuit breakers
//!    (closed/open/half-open) that route around tripped backends with
//!    `cpu-sharded` as the always-available backend of last resort; and
//!    deadline-aware load shedding with a typed [`ServeError::Shed`]
//!    outcome ([`ResilienceConfig`]). A backend that panics fails its
//!    attempt, not its worker. A seeded [`FaultPlan`] injects
//!    deterministic delay/fail/corrupt/wedge/panic faults at the backend
//!    boundary — with **virtual** delay accounting, so chaos tests
//!    replay bit-identically without sleeping.
//!
//! 7. **Model lifecycle** — the service serves out of a versioned model
//!    registry. [`RfxServe::publish`] registers a new [`ServeModel`] (or
//!    [`RfxServe::publish_forest`] a bare forest, e.g. an
//!    `rfx_forest::online` trainer snapshot) as the next
//!    [`ModelVersion`]; [`RfxServe::activate`] hot-swaps serving to it
//!    with an atomic epoch-based `Arc` handoff — in-flight batches
//!    finish on the version they were formed with, zero tickets are
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
//! Shutdown ([`RfxServe::shutdown`]) drains: admission closes, each
//! worker takes what its slot is picked for until the queue is empty,
//! every issued [`Ticket`] resolves.
//!
//! [`loadgen`] provides the deterministic closed-loop load generator the
//! tests and the `online_scoring` example drive the service with.

#![forbid(unsafe_code)]

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
