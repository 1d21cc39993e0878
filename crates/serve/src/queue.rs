//! Bounded request queue with work-conserving batch formation.
//!
//! Admission is bounded in *rows* (a micro-batch of 32 queries occupies
//! 32 slots), so a flood of large micro-batches trips the same
//! [`ServeError::Overloaded`] back-pressure as a flood of singles.
//!
//! Batching amortises a per-batch cost, which pays only while there is
//! other work to amortise against. So a forming batch is held back only
//! while the backend slot it would go to is busy, and closes on the
//! first of four rules ([`FlushReason`]):
//!
//! * **size** — `max_batch_size` rows are waiting;
//! * **drain** — the queue was closed: no more arrivals are possible;
//! * **deadline** — `max_batch_delay` has passed since the *oldest*
//!   queued request arrived: the upper bound on the wait batching adds,
//!   reached only while the target slot stays busy that long;
//! * **idle** — the target slot has nothing in flight (and a closed
//!   breaker), so waiting would leave it idle for nothing.
//!
//! Batch size therefore follows load by itself: one request per batch
//! under trickle traffic, everything that arrived during the previous
//! batch's execution under sustained traffic. A worker that releases its
//! slot wakes the batcher through [`RequestQueue::slot_released`].
//!
//! A micro-batch larger than `max_batch_size` is never split across
//! batches — it forms its own oversized batch (requests are atomic).

use crate::error::ServeError;
use crate::router::Arm;
use crate::ticket::Slot;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One admitted request: its feature rows and the completion slot.
#[derive(Debug)]
pub(crate) struct Pending {
    /// Row-major feature data, `rows * num_features` long.
    pub features: Vec<f32>,
    /// Number of query rows.
    pub rows: usize,
    /// Completion slot shared with the client's [`crate::Ticket`].
    pub slot: Arc<Slot>,
    /// Traffic arm assigned at admission (deterministic hash of the
    /// admission sequence number; always [`Arm::A`] outside an A/B
    /// split). The batcher partitions batches by arm so one batch is
    /// always served by exactly one model version.
    pub arm: Arm,
}

impl Drop for Pending {
    fn drop(&mut self) {
        // Safety net: a request dropped before its worker fulfilled it
        // (worker panic, teardown race) must not leave waiters blocked.
        // `fulfill` is a no-op once a real result landed.
        self.slot.fulfill(Err(ServeError::Dropped));
    }
}

/// Which rule closed a batch (see the module docs) — stamped on the
/// `serve.batch` span and counted as `serve.flush.<name>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushReason {
    Size,
    Deadline,
    Idle,
    Drain,
}

impl FlushReason {
    /// Every reason, in declaration (= `as usize`) order.
    pub(crate) const ALL: [FlushReason; 4] =
        [FlushReason::Size, FlushReason::Deadline, FlushReason::Idle, FlushReason::Drain];

    /// Stable name used in span attributes and metric names.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Deadline => "deadline",
            FlushReason::Idle => "idle",
            FlushReason::Drain => "drain",
        }
    }
}

/// One batch removed from the queue by [`RequestQueue::collect_batch`].
#[derive(Debug)]
pub(crate) struct Collected {
    /// Whole requests, in arrival order.
    pub entries: Vec<Pending>,
    /// Rows still queued behind the batch (the backlog depth it left
    /// behind — a span attribute, measured here to avoid re-locking).
    pub backlog_rows: usize,
    pub flush: FlushReason,
}

#[derive(Debug)]
struct Inner {
    entries: VecDeque<Pending>,
    /// Total rows across `entries` (the admission-control gauge).
    rows: usize,
    closed: bool,
}

/// Thread-safe bounded queue shared by clients (push), the batcher
/// thread (collect) and the workers (release wake-ups).
#[derive(Debug)]
pub(crate) struct RequestQueue {
    inner: Mutex<Inner>,
    /// Signalled on arrival, on close, and when a worker releases its
    /// slot while requests are queued — everything that can change the
    /// batcher's flush decision before the deadline does.
    wake: Condvar,
    capacity: usize,
}

impl RequestQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        RequestQueue {
            inner: Mutex::new(Inner { entries: VecDeque::new(), rows: 0, closed: false }),
            wake: Condvar::new(),
            capacity,
        }
    }

    /// Admits a request or rejects it with a typed error. Never blocks —
    /// back-pressure is the client's problem by design.
    ///
    /// Locks recover from poisoning throughout this queue: a client
    /// thread that panics mid-push must not wedge the batcher (and with
    /// it the whole service) — the queue's invariants are re-established
    /// by construction on every acquisition, so the poison flag carries
    /// no information worth cascading a panic for.
    pub(crate) fn try_push(&self, pending: Pending) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Err(ServeError::ShuttingDown);
        }
        if inner.rows + pending.rows > self.capacity {
            return Err(ServeError::Overloaded {
                queued_rows: inner.rows,
                capacity: self.capacity,
            });
        }
        inner.rows += pending.rows;
        inner.entries.push_back(pending);
        self.wake.notify_all();
        Ok(())
    }

    /// Rows currently queued (admission gauge; also exported in stats).
    pub(crate) fn depth_rows(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).rows
    }

    /// Stops admission. Queued requests remain and will still be drained
    /// by [`RequestQueue::collect_batch`].
    pub(crate) fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        self.wake.notify_all();
    }

    /// Called by a worker right after it released its in-flight rows:
    /// wakes the batcher to re-check the idle rule. Taking the queue lock
    /// orders the release before the batcher's next check (a release that
    /// lands between the batcher's check and its wait cannot be missed),
    /// and nothing is signalled while the queue is empty — the batcher
    /// then checks afresh when the next request arrives.
    pub(crate) fn slot_released(&self) {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if !inner.entries.is_empty() {
            self.wake.notify_all();
        }
    }

    /// Blocks until a batch is ready per the flush rules and removes it
    /// from the queue. `target_idle(rows)` answers whether the slot a
    /// batch of `rows` would be dispatched to is free right now (it runs
    /// under the queue lock). Returns `None` only when the queue is
    /// closed *and* fully drained — the batcher thread's exit condition.
    pub(crate) fn collect_batch(
        &self,
        max_rows: usize,
        max_delay: Duration,
        target_idle: impl Fn(usize) -> bool,
    ) -> Option<Collected> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let flush = loop {
            let Some(oldest) = inner.entries.front() else {
                if inner.closed {
                    return None;
                }
                inner = self.wake.wait(inner).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let deadline = oldest.slot.enqueued + max_delay;
            let now = Instant::now();
            if inner.rows >= max_rows {
                break FlushReason::Size;
            } else if inner.closed {
                break FlushReason::Drain;
            } else if now >= deadline {
                break FlushReason::Deadline;
            } else if target_idle(inner.rows) {
                break FlushReason::Idle;
            }
            let (guard, _timeout) = self
                .wake
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        };
        // Form the batch: take whole requests front-to-back until the
        // row budget is met. An oversized first request rides alone.
        let mut entries = Vec::new();
        let mut rows = 0usize;
        while let Some(front) = inner.entries.front() {
            if !entries.is_empty() && rows + front.rows > max_rows {
                break;
            }
            let taken = inner.entries.pop_front().expect("front was just observed");
            rows += taken.rows;
            inner.rows -= taken.rows;
            entries.push(taken);
            if rows >= max_rows {
                break;
            }
        }
        Some(Collected { entries, backlog_rows: inner.rows, flush })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    const LONG: Duration = Duration::from_secs(5);

    fn request(rows: usize) -> Pending {
        Pending { features: Vec::new(), rows, slot: Slot::new(), arm: Arm::A }
    }

    fn queue_of(request_rows: &[usize]) -> RequestQueue {
        let queue = RequestQueue::new(1024);
        for &rows in request_rows {
            queue.try_push(request(rows)).unwrap();
        }
        queue
    }

    fn rows_of(batch: &Collected) -> Vec<usize> {
        batch.entries.iter().map(|p| p.rows).collect()
    }

    #[test]
    fn busy_target_flushes_on_size_without_waiting() {
        let queue = queue_of(&[1; 9]);
        let t0 = Instant::now();
        let batch = queue.collect_batch(8, LONG, |_| false).unwrap();
        assert!(t0.elapsed() < LONG);
        assert_eq!(
            (batch.flush, batch.entries.len(), batch.backlog_rows),
            (FlushReason::Size, 8, 1)
        );
    }

    #[test]
    fn busy_target_holds_a_small_batch_until_the_deadline() {
        let delay = Duration::from_millis(30);
        let queue = queue_of(&[1, 1, 1]);
        let oldest = Instant::now();
        let batch = queue.collect_batch(1024, delay, |_| false).unwrap();
        assert!(oldest.elapsed() >= delay, "nothing but the deadline may release it");
        assert_eq!((batch.flush, batch.entries.len()), (FlushReason::Deadline, 3));
    }

    #[test]
    fn oversized_request_rides_alone_and_whole() {
        let queue = queue_of(&[10, 1, 2]);
        let batch = queue.collect_batch(4, LONG, |_| false).unwrap();
        assert_eq!(
            (batch.flush, rows_of(&batch), batch.backlog_rows),
            (FlushReason::Size, vec![10], 3)
        );
        // Requests are never split to fill the row budget exactly.
        queue.try_push(request(3)).unwrap();
        let batch = queue.collect_batch(4, LONG, |_| false).unwrap();
        assert_eq!((rows_of(&batch), batch.backlog_rows), (vec![1, 2], 3));
    }

    #[test]
    fn close_drains_what_is_queued_then_ends() {
        let queue = queue_of(&[1, 2]);
        queue.close();
        let batch = queue.collect_batch(1024, LONG, |_| false).unwrap();
        assert_eq!((batch.flush, rows_of(&batch)), (FlushReason::Drain, vec![1, 2]));
        assert!(queue.collect_batch(1024, LONG, |_| false).is_none());
        assert!(matches!(queue.try_push(request(1)), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn idle_target_takes_a_lone_request_at_once() {
        let queue = queue_of(&[3]);
        let t0 = Instant::now();
        let batch = queue
            .collect_batch(1024, LONG, |rows| {
                assert_eq!(rows, 3, "the predicate is asked about the batch that would form");
                true
            })
            .unwrap();
        assert!(t0.elapsed() < LONG);
        assert_eq!(
            (batch.flush, rows_of(&batch), batch.backlog_rows),
            (FlushReason::Idle, vec![3], 0)
        );
    }

    #[test]
    fn size_and_drain_outrank_idle() {
        let queue = queue_of(&[1; 4]);
        assert_eq!(queue.collect_batch(4, LONG, |_| true).unwrap().flush, FlushReason::Size);
        let queue = queue_of(&[1]);
        queue.close();
        assert_eq!(queue.collect_batch(4, LONG, |_| true).unwrap().flush, FlushReason::Drain);
    }

    /// A release is seen whether it lands before the batcher's check or
    /// while it waits: no interleaving of these two threads sleeps out
    /// the 5 s delay.
    #[test]
    fn slot_release_wakes_a_waiting_batcher() {
        let queue = queue_of(&[1, 1]);
        let idle = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let batcher = scope.spawn(|| {
                queue.collect_batch(1024, LONG, |_| idle.load(Ordering::Relaxed)).unwrap()
            });
            let t0 = Instant::now();
            idle.store(true, Ordering::Relaxed);
            queue.slot_released();
            let batch = batcher.join().unwrap();
            assert!(t0.elapsed() < LONG);
            assert_eq!((batch.flush, batch.entries.len()), (FlushReason::Idle, 2));
        });
    }
}
