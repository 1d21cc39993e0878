//! Completion tickets: the client-side handle for an in-flight request.

use crate::error::ServeError;
use crate::registry::ModelVersion;
use rfx_core::Label;
use rfx_telemetry::TraceId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Shared completion slot between the client and the executor.
///
/// All locks here recover from poisoning: a waiter that panics while
/// holding the state lock says nothing about the slot's one-shot
/// invariant (`fulfill` is idempotent by construction), and a worker
/// panic must not cascade into every client blocked on [`Ticket::wait`].
#[derive(Debug)]
pub(crate) struct Slot {
    state: Mutex<Option<Result<Vec<Label>, ServeError>>>,
    done: Condvar,
    /// When the request entered the queue — the request-latency clock.
    pub(crate) enqueued: Instant,
    /// Trace id of the batch this request rode in (0 until a worker
    /// forms a sampled batch around it) — the ticket-side handle for
    /// correlating a slow request with its full span tree.
    trace: AtomicU64,
    /// Model version that served this request (0 until a worker delivers
    /// labels — versions are 1-based, so 0 is unambiguous).
    version: AtomicU64,
}

impl Slot {
    pub(crate) fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: Mutex::new(None),
            done: Condvar::new(),
            enqueued: Instant::now(),
            trace: AtomicU64::new(TraceId::NONE.0),
            version: AtomicU64::new(0),
        })
    }

    /// Stamps the batch's trace id (at formation, once per request).
    pub(crate) fn set_trace(&self, trace: TraceId) {
        self.trace.store(trace.0, Ordering::Relaxed);
    }

    pub(crate) fn trace(&self) -> TraceId {
        TraceId(self.trace.load(Ordering::Relaxed))
    }

    /// Stamps the version whose model produced this request's labels
    /// (worker side, immediately before the delivering `fulfill`).
    pub(crate) fn set_version(&self, version: ModelVersion) {
        self.version.store(version.get(), Ordering::Release);
    }

    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    pub(crate) fn fulfill(&self, result: Result<Vec<Label>, ServeError>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.is_none() {
            *state = Some(result);
            self.done.notify_all();
        }
    }
}

/// Handle returned by [`crate::RfxServe::submit`]: blocks until the batch
/// containing this request has been executed by some backend.
#[derive(Debug, Clone)]
pub struct Ticket {
    slot: Arc<Slot>,
    rows: usize,
}

impl Ticket {
    pub(crate) fn new(slot: Arc<Slot>, rows: usize) -> Self {
        Ticket { slot, rows }
    }

    /// Number of query rows this ticket covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Blocks until the prediction is available and returns one label per
    /// submitted row.
    pub fn wait(&self) -> Result<Vec<Label>, ServeError> {
        let mut state = self.slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            state = self.slot.done.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// [`Ticket::wait`] for single-row submissions.
    pub fn wait_one(&self) -> Result<Label, ServeError> {
        let labels = self.wait()?;
        debug_assert_eq!(labels.len(), 1, "wait_one on a micro-batch ticket");
        Ok(labels[0])
    }

    /// Whether the result is already available (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.slot.state.lock().unwrap_or_else(PoisonError::into_inner).is_some()
    }

    /// The [`TraceId`] of the batch that served (or is serving) this
    /// request, once a worker has formed a *sampled* batch around it.
    /// `None` before batching or when the batch's trace was not sampled
    /// (see `rfx_telemetry::TraceConfig`). Look the id up in the
    /// service's trace snapshot to retrieve the request's full span tree.
    pub fn trace_id(&self) -> Option<TraceId> {
        let trace = self.slot.trace();
        trace.is_some().then_some(trace)
    }

    /// The [`ModelVersion`] whose forest produced this ticket's labels.
    /// `None` until labels are delivered (and for tickets that resolve to
    /// an error — shed or failed requests were never served by any
    /// version). The linearizability contract: the returned version's
    /// model computed *every* row of this ticket; responses are never a
    /// blend of two versions.
    pub fn served_version(&self) -> Option<ModelVersion> {
        ModelVersion::from_raw(self.slot.version())
    }
}
