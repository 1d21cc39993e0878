//! The service: a bounded queue and one worker thread per pool slot.
//!
//! Clients push requests onto the [`RequestQueue`]; each slot's worker
//! pulls its own batches from it. A worker takes the head batch when the
//! scheduler picks its slot for it (booking the slot in the same step,
//! under the queue lock), forms it, runs it through the resilience loop,
//! delivers the tickets, and comes back for the next one. A batch
//! therefore waits for company only while every slot that would take it
//! is busy (see [`crate::queue`]), and it never changes threads between
//! formation and delivery. Shutdown is graceful by construction: closing
//! the queue stops admission, each worker drains what its slot is picked
//! for and exits once the queue is closed and empty — no admitted
//! request is ever lost.
//!
//! Model lifecycle: the service serves out of a versioned
//! [`ModelRegistry`] that retains the active version, the one the route
//! names, and the two most recent others. Every formed batch pins an
//! `Arc` of the version it was formed with, so [`RfxServe::activate`]
//! (hot-swap) and rollback are single pointer stores — in-flight batches
//! finish on their pinned version even when a publish evicts it
//! meanwhile, zero tickets dropped. A [`Router`] optionally
//! shadow-scores a sampled slice of batches on a candidate version
//! (after delivery, never affecting responses) or splits request traffic
//! deterministically across two versions, always whole-batch — a
//! response is never a blend of versions.

use crate::backend::{BackendError, BackendKind};
use crate::error::ServeError;
use crate::fault::{FaultPlan, FaultState};
use crate::metrics::{BackendProbe, MetricsHub, ModelLifecycleStats, ServeStats};
use crate::model::ServeModel;
use crate::queue::{Collected, Pending, RequestQueue};
use crate::registry::{ModelRegistry, ModelVersion};
use crate::resilience::ResilienceConfig;
use crate::router::{Arm, RouteMode, Router};
use crate::scheduler::{SchedulePolicy, Scheduler};
use crate::ticket::{Slot, Ticket};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rfx_core::splitmix64;
use rfx_forest::dataset::QueryView;
use rfx_forest::RandomForest;
use rfx_telemetry::{Telemetry, TraceId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`RfxServe`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Row budget per batch. Nothing else holds a batch back: requests
    /// coalesce only while every slot that would take them is busy.
    pub max_batch_size: usize,
    /// Admission bound in queued rows; beyond it submissions are
    /// rejected with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Backends in the executor pool (one worker thread each, and no
    /// other thread). Every published model version builds its own
    /// executor set for these same slots.
    pub backends: Vec<BackendKind>,
    /// Batch-to-backend assignment policy. `Auto` learns each slot's
    /// cost from live batches, trying every slot once first.
    pub policy: SchedulePolicy,
    /// Resilience policies: per-batch timeout + bounded retry, circuit
    /// breakers, load shedding. The default disables the timeout and
    /// shedding, so the service behaves exactly as it did without this
    /// layer (breakers exist but never trip without recorded failures).
    pub resilience: ResilienceConfig,
    /// Deterministic fault injection at the backend boundary (testing
    /// only); `None` serves faithfully.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch_size: 256,
            queue_capacity: 4096,
            // The exact backends only — quantized backends answer on
            // their own grid and must be opted into per deployment.
            backends: BackendKind::DEFAULT_POOL.to_vec(),
            policy: SchedulePolicy::Auto,
            resilience: ResilienceConfig::default(),
            fault_plan: None,
        }
    }
}

/// State shared by clients and the workers.
struct Shared {
    registry: ModelRegistry,
    router: Router,
    queue: RequestQueue,
    telemetry: Telemetry,
    metrics: MetricsHub,
    scheduler: Scheduler,
    resilience: ResilienceConfig,
    /// Per-pool-slot fault injectors (slot-keyed so attempt counters
    /// survive hot-swaps); `None` for untargeted slots.
    faults: Vec<Option<FaultState>>,
    /// Admission sequence — the A/B hash input.
    admission_seq: AtomicU64,
    /// Formed-batch sequence — the shadow-sampling hash input.
    batch_seq: AtomicU64,
}

/// The dynamic-batching inference service.
pub struct RfxServe {
    shared: Arc<Shared>,
    config: ServeConfig,
    workers: Vec<JoinHandle<()>>,
}

impl RfxServe {
    /// Builds the executor pool and starts serving: one worker thread per
    /// pool slot, and no other thread.
    ///
    /// # Panics
    /// If `config.backends` is empty, lists duplicates, or
    /// `max_batch_size`/`queue_capacity` is zero.
    pub fn start(model: ServeModel, config: ServeConfig) -> RfxServe {
        Self::start_with_telemetry(model, config, Telemetry::new())
    }

    /// [`RfxServe::start`] recording into a caller-provided telemetry
    /// domain — pass [`rfx_telemetry::global()`] (cloned) to merge the
    /// service's metrics and spans with the simulators' process-global
    /// instrumentation in one export, or a fresh domain per service for
    /// isolation (the default).
    pub fn start_with_telemetry(
        model: ServeModel,
        config: ServeConfig,
        telemetry: Telemetry,
    ) -> RfxServe {
        assert!(!config.backends.is_empty(), "executor pool needs at least one backend");
        assert!(config.max_batch_size > 0, "max_batch_size must be positive");
        assert!(config.queue_capacity > 0, "queue_capacity must be positive");
        for (i, kind) in config.backends.iter().enumerate() {
            assert!(
                !config.backends[..i].contains(kind),
                "duplicate backend {} in pool",
                kind.name()
            );
        }

        let registry = ModelRegistry::new(model, &config.backends, &telemetry);
        let faults: Vec<Option<FaultState>> = config
            .backends
            .iter()
            .map(|&k| match &config.fault_plan {
                Some(plan) if plan.targets(k) => {
                    let counter = telemetry.counter(&format!("serve.fault.{}.injected", k.name()));
                    Some(FaultState::new(plan.clone(), k, counter))
                }
                _ => None,
            })
            .collect();
        let router = Router::new(splitmix64(config.resilience.seed ^ 0x00A0_B517), &telemetry);
        let scheduler = Scheduler::with_breaker_config(
            config.policy,
            &config.backends,
            config.resilience.breaker,
        );
        let metrics = MetricsHub::new(&telemetry, &config.backends);

        let shared = Arc::new(Shared {
            registry,
            router,
            queue: RequestQueue::new(config.queue_capacity),
            telemetry,
            metrics,
            scheduler,
            resilience: config.resilience.clone(),
            faults,
            admission_seq: AtomicU64::new(0),
            batch_seq: AtomicU64::new(0),
        });

        let max_rows = config.max_batch_size;
        let workers = (config.backends.iter().enumerate())
            .map(|(idx, kind)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rfx-serve-{}", kind.name()))
                    .spawn(move || worker_loop(&shared, idx, max_rows))
                    .expect("spawn worker")
            })
            .collect();

        RfxServe { shared, config, workers }
    }

    /// Convenience: [`RfxServe::start`] with [`ServeConfig::default`].
    pub fn start_default(model: ServeModel) -> RfxServe {
        Self::start(model, ServeConfig::default())
    }

    /// Submits one query row (`row.len()` must equal the model's feature
    /// count). Non-blocking; returns a [`Ticket`] to wait on.
    pub fn submit(&self, row: &[f32]) -> Result<Ticket, ServeError> {
        let nf = self.shared.registry.num_features();
        if row.len() != nf {
            return Err(ServeError::BadRequest {
                reason: format!("expected {nf} features, got {}", row.len()),
            });
        }
        self.admit(row)
    }

    /// Submits a micro-batch of rows packed row-major
    /// (`features.len()` must be a positive multiple of the feature
    /// count). The micro-batch is batched and predicted atomically.
    pub fn submit_micro_batch(&self, features: &[f32]) -> Result<Ticket, ServeError> {
        let nf = self.shared.registry.num_features();
        if features.is_empty() || !features.len().is_multiple_of(nf) {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "micro-batch length {} is not a positive multiple of {nf} features",
                    features.len()
                ),
            });
        }
        self.admit(features)
    }

    fn admit(&self, features: &[f32]) -> Result<Ticket, ServeError> {
        let rows = features.len() / self.shared.registry.num_features();
        let slot = Slot::new();
        let seq = self.shared.admission_seq.fetch_add(1, Ordering::Relaxed);
        let arm = self.shared.router.arm_for(seq);
        let pending = Pending { features: features.to_vec(), rows, slot: Arc::clone(&slot), arm };
        match self.shared.queue.try_push(pending) {
            Ok(()) => {
                self.shared.metrics.record_submit(rows);
                Ok(Ticket::new(slot, rows))
            }
            Err(err) => {
                if matches!(err, ServeError::Overloaded { .. }) {
                    self.shared.metrics.record_reject(rows);
                }
                Err(err)
            }
        }
    }

    /// Publishes a prepared model as the next registry version without
    /// activating it. The model must match the serving shape (feature
    /// width, class count). The executor set is built before the
    /// registry is locked, so serving continues meanwhile; versions the
    /// retention rule no longer covers (see [`RfxServe::versions`]) are
    /// evicted.
    pub fn publish(&self, model: ServeModel) -> Result<ModelVersion, ServeError> {
        self.shared.registry.publish(model)
    }

    /// Publishes a bare forest (e.g. an `rfx_forest::online` snapshot),
    /// prepared with [`ServeModel::prepare`]; a forest the block store
    /// refuses is [`ServeError::IncompatibleModel`].
    pub fn publish_forest(&self, forest: RandomForest) -> Result<ModelVersion, ServeError> {
        let model = ServeModel::prepare(forest)
            .map_err(|e| ServeError::IncompatibleModel { reason: e.to_string() })?;
        self.publish(model)
    }

    /// Hot-swaps serving to `version` and returns the previously active
    /// version. Atomic epoch-based handoff: new batches pick up the new
    /// version immediately; batches already formed deliver on the
    /// version they were formed with; no ticket is dropped. Activating
    /// an older retained version **is** rollback — there is no separate
    /// path; one evicted since is [`ServeError::UnknownVersion`].
    pub fn activate(&self, version: ModelVersion) -> Result<ModelVersion, ServeError> {
        self.shared.registry.activate(version)
    }

    /// [`RfxServe::publish`] + [`RfxServe::activate`] in one call.
    pub fn publish_and_activate(&self, model: ServeModel) -> Result<ModelVersion, ServeError> {
        let version = self.publish(model)?;
        self.activate(version)?;
        Ok(version)
    }

    /// The version currently serving new batches.
    pub fn active_version(&self) -> ModelVersion {
        self.shared.registry.active_version()
    }

    /// The versions the registry retains, in publish order: the active
    /// one, the one the route names, and the two most recently published
    /// others. Older ones are evicted at the next publish and freed once
    /// their last in-flight batch has delivered.
    pub fn versions(&self) -> Vec<ModelVersion> {
        self.shared.registry.versions()
    }

    /// Sets the traffic route (shadow scoring / A/B split). Any version
    /// the mode references must be published and still retained; the
    /// registry then keeps it for as long as the route names it.
    pub fn set_route(&self, mode: RouteMode) -> Result<(), ServeError> {
        self.shared.registry.set_route(mode, &self.shared.router)
    }

    /// The current traffic route.
    pub fn route(&self) -> RouteMode {
        self.shared.router.mode()
    }

    /// Point-in-time metrics snapshot.
    pub fn stats(&self) -> ServeStats {
        let shared = &self.shared;
        // Read before the per-version rows: an eviction landing between
        // the two reads is then missed for a moment, never counted twice.
        let (evicted_versions, evicted_batches, evicted_rows) = shared.registry.evicted_stats();
        shared.metrics.snapshot(
            shared.queue.depth_rows(),
            |idx| BackendProbe {
                ewma_us: shared.scheduler.ewma_us(idx),
                inflight_rows: shared.scheduler.inflight_rows(idx),
                fallbacks: shared.registry.slot_fallbacks(idx),
                injected_faults: shared.faults[idx].as_ref().map_or(0, FaultState::injected),
                breaker_state: shared.scheduler.breaker_state(idx),
                breaker_trips: shared.scheduler.breaker_trips(idx),
                breaker_transitions: shared.scheduler.breaker_transitions(idx),
            },
            ModelLifecycleStats {
                active_version: shared.registry.active_version().get(),
                epoch: shared.registry.epoch(),
                swaps: shared.registry.swaps(),
                route: shared.router.mode().to_string(),
                shadow: shared.router.shadow_stats(),
                versions: shared.registry.version_stats(),
                evicted_versions,
                evicted_batches,
                evicted_rows,
            },
        )
    }

    /// The telemetry domain this service records into. Clone it to keep
    /// exporting after [`RfxServe::shutdown`] consumes the service.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Feature width every submission and every published model must
    /// match.
    pub fn num_features(&self) -> usize {
        self.shared.registry.num_features()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Stops admission, drains every queued and in-flight batch, joins
    /// all threads, and returns the final stats. Every ticket issued
    /// before shutdown resolves.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for RfxServe {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serves pool slot `idx` until the queue is closed and empty: takes
/// each batch the scheduler picks this slot for, forms it, runs it, and
/// comes back for the next. The rows the take booked are released once
/// the batch is done — delivered, shed or failed — so the slot counts as
/// busy until its worker is back at the queue.
fn worker_loop(shared: &Shared, idx: usize, max_rows: usize) {
    let seed = shared.resilience.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut jitter_rng = StdRng::seed_from_u64(seed);
    let claim = |rows, queued_rows| shared.scheduler.claim(idx, rows, queued_rows);
    while let Some(taken) = shared.queue.take_batch(max_rows, claim) {
        let rows = taken.rows;
        serve_batch(shared, idx, taken, &mut jitter_rng);
        shared.scheduler.release(idx, rows);
    }
}

/// Forms and runs a batch slot `idx` took, and delivers it.
///
/// Formation pins the model version that serves the batch (its requests
/// are all on one traffic arm, so no response blends versions) and its
/// shadow candidate, opens the trace's root span `serve.batch`
/// backdated to the oldest request's enqueue, and concatenates the rows.
/// Stage spans tile the root end to end: `queue_wait` (oldest enqueue →
/// the take) + `dispatch` (formation → the first attempt, on the same
/// thread) + `traverse` (the kernel) + `deliver` (ticket fan-out) — the
/// decomposition the ledger's `serve.stage.*` rows are read from.
/// Counters the kernels record join the same trace through the ambient
/// scope installed around `predict`.
///
/// Around the traverse stage sits the resilience state machine: each
/// attempt is checked against the per-batch timeout (on **effective**
/// time — wall plus virtual fault penalties) and against label-range
/// corruption, and a backend that panics fails its attempt instead of
/// killing the worker (nobody else takes the batches this slot is
/// picked for); failed attempts are retried on the same backend up to
/// `max_retries` times (with backoff + deterministic jitter), then the
/// batch makes one last pass — with its own retry budget — on the
/// backend of last resort; every attempt outcome feeds the backend's
/// circuit breaker; and before each attempt (the first one included, so
/// a batch that is dead when taken never occupies a backend) a deadline
/// gate sheds batches whose oldest request is effectively past the
/// deadline. Failed attempts leave a `serve.batch.retry` stage span.
///
/// Every attempt runs on the pinned version's backend for this slot
/// (fault injection stays keyed to the slot), and delivered tickets are
/// stamped with that version. A shadow candidate re-scores the same
/// queries after delivery — directly, with no fault injection — and only
/// agreement counters and a `serve.batch.shadow` span come out of it.
fn serve_batch(shared: &Shared, idx: usize, taken: Collected, jitter_rng: &mut StdRng) {
    let Collected { mut entries, rows, backlog_rows, flush } = taken;
    let nf = shared.registry.num_features();
    let formed_at = Instant::now();
    let batch_seq = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
    let arm = entries[0].arm;
    // Pin the serving version for this whole batch. Arm B resolves
    // through the route's B version; if the split was retired between
    // admission and formation, the batch serves on the active version
    // like everything else.
    let entry = match (arm, shared.router.mode()) {
        (Arm::B, RouteMode::AbSplit { arm_b, .. }) => {
            shared.registry.get(arm_b).unwrap_or_else(|_| shared.registry.active())
        }
        _ => shared.registry.active(),
    };
    // Shadow-score only arm-A (active-version) batches: the comparison
    // baseline is what the active model served.
    let shadow = match shared.router.shadow_for(batch_seq) {
        Some(candidate) if candidate != entry.version => shared.registry.get(candidate).ok(),
        _ => None,
    };
    let oldest = entries.iter().map(|p| p.slot.enqueued).min().unwrap_or(formed_at);
    let mut batch_span = shared.telemetry.start_owned_span_at("serve.batch", oldest);
    batch_span.set_attr("rows", rows.to_string());
    batch_span.set_attr("requests", entries.len().to_string());
    batch_span.set_attr("queue_depth", backlog_rows.to_string());
    batch_span.set_attr("flush", flush.name().to_string());
    batch_span.set_attr("version", entry.version.to_string());
    if arm == Arm::B {
        batch_span.set_attr("arm", arm.name().to_string());
    }
    let ctx = batch_span.context();
    let tracer = shared.telemetry.tracer();
    for pending in &entries {
        if ctx.sampled {
            pending.slot.set_trace(ctx.trace);
        }
        let wait = formed_at.saturating_duration_since(pending.slot.enqueued);
        shared.metrics.record_queue_wait(wait.as_micros() as u64);
    }
    tracer.record_span_at(
        "serve.batch.queue_wait",
        ctx,
        oldest,
        formed_at.saturating_duration_since(oldest),
        Vec::new(),
    );
    // Single-request batches reuse the request's own buffer; merged
    // batches concatenate into one contiguous row-major block.
    let features = if entries.len() == 1 {
        std::mem::take(&mut entries[0].features)
    } else {
        let mut buf = Vec::with_capacity(rows * nf);
        for pending in &entries {
            buf.extend_from_slice(&pending.features);
        }
        buf
    };
    shared.metrics.record_batch_formed(rows, flush);
    shared.metrics.record_dispatch(idx);
    batch_span.set_attr("backend", entry.backends[idx].kind().name().to_string());
    batch_span.set_attr("est_us_per_row", format!("{:.1}", shared.scheduler.ewma_us(idx)));
    let num_classes = shared.registry.num_classes();
    let res = &shared.resilience;
    let timeout_us = res.timeout_us();
    let queries = QueryView::new(&features, nf).expect("batch shape");
    let mut out = vec![0; rows];
    // The stages tile the batch: dispatch runs until the first traverse
    // opens, each traverse until its attempt's verdict and breaker record
    // are in, and deliver from there until the batch duration is
    // recorded. Neighbours share one instant, so no work falls between.
    let mut dispatch_end = None;
    let mut attempt_end = formed_at;

    // Virtual time lost to faults so far (timeouts we did not really
    // wait out, wedges we did not really hang on).
    let mut penalty_us: u64 = 0;
    let mut attempts: u32 = 0;
    // Retries burned on the *current* backend; resets when the batch
    // falls back to the last resort.
    let mut retries_here: u32 = 0;
    let mut exec_idx = idx;
    let mut fell_back = false;
    let mut last_reason = "none";

    let outcome = loop {
        // Deadline gate on effective age: wall age from the enqueue
        // clock plus everything the faults virtually cost us.
        if let Some(deadline) = res.request_deadline {
            let age_us = oldest.elapsed().as_micros() as u64 + penalty_us;
            if age_us > deadline.as_micros() as u64 {
                break BatchOutcome::Shed { age_us };
            }
        }
        let backend = &entry.backends[exec_idx];
        let mut traverse = shared.telemetry.start_span_child_of("serve.batch.traverse", ctx);
        let a_start = traverse.started();
        dispatch_end.get_or_insert(a_start);
        if traverse.is_recorded() {
            traverse.set_attr("backend", backend.kind().name().to_string());
            traverse.set_attr("rows", rows.to_string());
            if attempts > 0 {
                traverse.set_attr("attempt", (attempts + 1).to_string());
            }
            for (key, value) in backend.tile_attrs(rows) {
                traverse.set_attr(key, value);
            }
        }
        let result = {
            let _ambient = shared.telemetry.in_context(traverse.context());
            catch_unwind(AssertUnwindSafe(|| match &shared.faults[exec_idx] {
                Some(fault) => fault.execute(backend.as_ref(), queries, &mut out),
                None => backend.predict(queries, &mut out),
            }))
        };
        let a_wall = a_start.elapsed();
        attempts += 1;

        let verdict = match &result {
            Ok(Ok(exec)) => {
                let effective = a_wall + Duration::from_micros(exec.virtual_us);
                let effective_us = effective.as_micros() as u64;
                if timeout_us > 0 && effective_us > timeout_us {
                    // A real worker abandons the attempt at the
                    // timeout; charge exactly that much waiting.
                    shared.metrics.recorder(exec_idx).record_timeout();
                    Attempt::Failed { reason: "timeout", penalty_us: timeout_us }
                } else if out.iter().any(|&label| label >= num_classes) {
                    // Corrupt-then-detect: the injected sentinel is
                    // out of the model's class range by construction.
                    Attempt::Failed { reason: "corrupt", penalty_us: exec.virtual_us }
                } else {
                    Attempt::Delivered { effective }
                }
            }
            Ok(Err(BackendError::Refused(_))) => {
                Attempt::Failed { reason: "refused", penalty_us: 0 }
            }
            Ok(Err(BackendError::Wedged)) => {
                // The attempt would never return; a real worker
                // loses the full timeout (or a deadline-sized chunk
                // when no timeout is configured).
                shared.metrics.recorder(exec_idx).record_timeout();
                Attempt::Failed { reason: "wedged", penalty_us: res.wedge_penalty_us() }
            }
            // The panic already unwound out of the backend; the batch
            // takes the same road as a refusal.
            Err(_panic) => Attempt::Failed { reason: "panic", penalty_us: 0 },
        };
        let ok = matches!(verdict, Attempt::Delivered { .. });
        shared.scheduler.record_outcome(exec_idx, ok);
        attempt_end = Instant::now();
        drop(traverse);

        match verdict {
            Attempt::Delivered { effective } => break BatchOutcome::Done { effective },
            Attempt::Failed { reason, penalty_us: wasted } => {
                penalty_us += wasted;
                last_reason = reason;
                tracer.record_span_at(
                    "serve.batch.retry",
                    ctx,
                    a_start,
                    a_wall,
                    vec![
                        ("backend".into(), entry.backends[exec_idx].kind().name().into()),
                        ("attempt".into(), attempts.to_string()),
                        ("reason".into(), reason.into()),
                        ("penalty_us".into(), wasted.to_string()),
                    ],
                );
                let last_resort = shared.scheduler.last_resort();
                if retries_here < res.max_retries {
                    retries_here += 1;
                } else if !fell_back && exec_idx != last_resort {
                    fell_back = true;
                    exec_idx = last_resort;
                    retries_here = 0;
                } else {
                    break BatchOutcome::Failed;
                }
                shared.metrics.record_retry();
                let backoff = res.backoff_for(retries_here.max(1), jitter_rng.next_u64());
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
        }
    };

    let trace = if ctx.sampled { ctx.trace } else { TraceId::NONE };
    let delivered = matches!(outcome, BatchOutcome::Done { .. });
    // A shed batch ends its last stage at the gate that shed it.
    let deliver_start = if delivered { attempt_end } else { Instant::now() };
    let dispatch_end = dispatch_end.unwrap_or(deliver_start);
    tracer.record_span_at(
        "serve.batch.dispatch",
        ctx,
        formed_at,
        dispatch_end.saturating_duration_since(formed_at),
        Vec::new(),
    );
    match outcome {
        BatchOutcome::Done { effective } => {
            shared.scheduler.observe(exec_idx, rows, effective);
            let effective_us = effective.as_micros() as u64;
            shared.metrics.recorder(exec_idx).record_batch(rows, effective_us, trace);
            entry.recorder.record_batch(rows, effective_us, trace);
            if attempts > 1 {
                shared.metrics.record_recovered();
                batch_span.set_attr("attempts", attempts.to_string());
            }
            let mut offset = 0;
            for pending in &entries {
                let labels = out[offset..offset + pending.rows].to_vec();
                offset += pending.rows;
                let latency = pending.slot.enqueued.elapsed();
                shared.metrics.record_request_done(pending.rows, latency.as_micros() as u64, trace);
                // Stamp the serving version before the result lands:
                // a ready ticket always knows who served it.
                pending.slot.set_version(entry.version);
                pending.slot.fulfill(Ok(labels));
            }
        }
        BatchOutcome::Shed { age_us } => {
            batch_span.set_attr("outcome", "shed".to_string());
            let deadline_ms = res.request_deadline.unwrap_or_default().as_millis() as u64;
            let err = ServeError::Shed { age_ms: age_us / 1000, deadline_ms };
            for pending in &entries {
                pending.slot.fulfill(Err(err.clone()));
            }
            shared.metrics.record_shed(entries.len(), rows);
            // A half-open probe this batch booked and never ran goes back.
            shared.scheduler.abandon_probe(idx);
        }
        BatchOutcome::Failed => {
            batch_span.set_attr("outcome", "failed".to_string());
            let err = ServeError::BackendFailed { attempts, reason: last_reason.to_string() };
            for pending in &entries {
                pending.slot.fulfill(Err(err.clone()));
            }
            shared.metrics.record_failed(entries.len(), rows);
        }
    }
    shared.metrics.record_batch_duration(batch_span.elapsed_us(), trace);
    let deliver_end = Instant::now();
    tracer.record_span_at(
        "serve.batch.deliver",
        ctx,
        deliver_start,
        deliver_end.saturating_duration_since(deliver_start),
        Vec::new(),
    );
    // Shadow lane: after the response is out the door, re-score the
    // same queries on the candidate and record argmax agreement.
    // Direct backend call — no fault injection, no breaker feedback,
    // no effect on any ticket.
    if delivered {
        if let Some(candidate) = &shadow {
            let s_start = deliver_end;
            let s_idx = shared.scheduler.last_resort();
            let mut shadow_out = vec![0; rows];
            if candidate.backends[s_idx].predict(queries, &mut shadow_out).is_ok() {
                let agree = out.iter().zip(shadow_out.iter()).filter(|(a, b)| a == b).count();
                shared.router.record_shadow(rows, agree);
                candidate.recorder.record_shadow(rows, agree);
                tracer.record_span_at(
                    "serve.batch.shadow",
                    ctx,
                    s_start,
                    s_start.elapsed(),
                    vec![
                        ("candidate".into(), candidate.version.to_string()),
                        ("rows".into(), rows.to_string()),
                        ("agree_rows".into(), agree.to_string()),
                    ],
                );
            }
        }
    }
    batch_span.finish();
}

/// Terminal outcome of a batch after the resilience state machine ran.
enum BatchOutcome {
    /// Delivered; `effective` = executing attempt's wall + virtual time.
    Done { effective: Duration },
    /// Shed at the deadline gate with this effective age.
    Shed { age_us: u64 },
    /// Every retry and the last-resort pass failed.
    Failed,
}

/// How one backend attempt on a batch ended.
enum Attempt {
    Delivered {
        /// Effective execution time: wall + injected virtual latency.
        effective: Duration,
    },
    Failed {
        /// Stable reason tag (`timeout` / `corrupt` / `refused` /
        /// `wedged` / `panic`) for metrics, spans, and errors.
        reason: &'static str,
        /// Virtual time the failure wasted (time a real worker would
        /// have lost that this deterministic harness did not actually
        /// spend blocking). Wall time is *not* included — the shed
        /// gate's age check reads it from the enqueue clock directly.
        penalty_us: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::VersionEntry;
    use rfx_core::BlockForest;
    use rfx_forest::DecisionTree;
    use rfx_kernels::cpu::predict_reference;

    fn stumps(label: u32) -> RandomForest {
        RandomForest::from_trees(vec![DecisionTree::leaf(label); 3], 4, 2).unwrap()
    }

    fn tiny(forest: RandomForest) -> ServeModel {
        ServeModel::prepare(forest).unwrap()
    }

    fn serve_on(model: ServeModel, backends: Vec<BackendKind>) -> RfxServe {
        let policy = SchedulePolicy::Fixed(backends[0]);
        RfxServe::start(model, ServeConfig { backends, policy, ..ServeConfig::default() })
    }

    /// Serving builds no hierarchical layout: only the offline
    /// instruments read it.
    #[test]
    fn a_cpu_only_pool_never_builds_the_device_layout() {
        let v1 = tiny(stumps(0));
        let serve = serve_on(v1.clone(), vec![BackendKind::CpuSharded, BackendKind::CpuShardedQ8]);
        assert!(!v1.hier_is_built(), "the cold start built a layout");
        for i in 0..10 {
            let model = tiny(stumps(i % 2));
            let version = serve.publish(model.clone()).unwrap();
            assert!(!model.hier_is_built(), "publish {i} built a layout");
            serve.activate(version).unwrap();
            let labels = serve.submit(&[0.5; 4]).unwrap().wait().unwrap();
            assert_eq!(labels, vec![i % 2]);
            assert!(!model.hier_is_built(), "serving asked for it");
        }
    }

    /// Once a version's executors are built, nothing holds its
    /// node-vector forest — not at the cold start, not at publish — and
    /// every slot still answers like the reference traversal (the forests
    /// are on their own u8 grid, so the q8 slot does too).
    #[test]
    fn a_version_keeps_what_its_slots_walk_and_not_the_forest() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut forest = || {
            let trees = (0..9).map(|_| DecisionTree::random(&mut rng, 6, 4, 3, 0.2)).collect();
            let forest = RandomForest::from_trees(trees, 4, 3).unwrap();
            rfx_core::ThresholdQuantizer::snap_to_grid::<u8>(&forest)
        };
        let queries: Vec<f32> = (0..64 * 4).map(|i| (i * 37 % 101) as f32 / 101.0).collect();
        let qv = QueryView::new(&queries, 4).unwrap();
        for backends in [BackendKind::DEFAULT_POOL.to_vec(), BackendKind::ALL.to_vec()] {
            let v1 = tiny(forest());
            let v1_forest = Arc::downgrade(v1.forest());
            let serve = serve_on(v1, backends.clone());
            assert_eq!(v1_forest.strong_count(), 0, "v1 kept its forest on {backends:?}");
            let v2 = tiny(forest());
            let (v2_forest, oracle) =
                (Arc::downgrade(v2.forest()), predict_reference(v2.forest(), qv));
            serve.publish_and_activate(v2).unwrap();
            assert_eq!(v2_forest.strong_count(), 0, "v2 kept its forest on {backends:?}");
            for backend in &serve.shared.registry.active().backends {
                let mut out = vec![0; qv.num_rows()];
                backend.predict(qv, &mut out).unwrap();
                assert_eq!(out, oracle, "{}", backend.kind());
            }
        }
    }

    /// The default pool's slot and a q8 slot standing in for a refused u8
    /// build walk one block store per version.
    #[test]
    fn a_default_pool_holds_one_block_store_per_version() {
        let nf = rfx_core::quant::QFIL_MAX_FEATURES + 1;
        let wide = |label| RandomForest::from_trees(vec![DecisionTree::leaf(label); 3], nf, 2);
        let pool = [&BackendKind::DEFAULT_POOL[..], &[BackendKind::CpuShardedQ8]].concat();
        let serve = serve_on(tiny(wide(0).unwrap()), pool);
        let v2 = serve.publish_forest(wide(1).unwrap()).unwrap();
        let registry = &serve.shared.registry;
        let blocks = |entry: &VersionEntry| -> Vec<Arc<BlockForest>> {
            let walked = entry.backends.iter().map(|b| b.blocks().expect("every slot walks them"));
            walked.cloned().collect()
        };
        let (first, second) = (blocks(&registry.active()), blocks(&registry.get(v2).unwrap()));
        for stores in [&first, &second] {
            assert!(stores.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])), "one copy per version");
        }
        assert!(!Arc::ptr_eq(&first[0], &second[0]), "each version has its own");
    }
}
