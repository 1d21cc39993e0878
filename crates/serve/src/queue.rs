//! Bounded request queue that the workers pull their batches from.
//!
//! Admission is bounded in *rows* (a micro-batch of 32 queries occupies
//! 32 slots), so a flood of large micro-batches trips the same
//! [`ServeError::Overloaded`] back-pressure as a flood of singles.
//!
//! Batching amortises a per-batch cost, which pays only while there is
//! other work to amortise against. Nothing here waits for company: each
//! pool slot's worker takes the head batch as soon as it is free and the
//! scheduler picks its slot for it, so a request queues only while every
//! slot that would take it is busy. Batch size therefore follows load by
//! itself: one request per batch under trickle traffic, everything that
//! arrived during the previous batch's execution under sustained
//! traffic. Each batch records why it closed ([`FlushReason`]):
//!
//! * **size** — it holds `max_batch_size` rows;
//! * **drain** — the queue was closed: no more arrivals are possible;
//! * **idle** — neither: a free slot took what was there.
//!
//! A batch holds the head request's traffic arm only, in arrival order;
//! the other arm's requests keep their place in the queue, so one batch
//! is always served by one model version. A micro-batch larger than
//! `max_batch_size` is never split across batches — it forms its own
//! oversized batch (requests are atomic).

use crate::error::ServeError;
use crate::router::Arm;
use crate::ticket::Slot;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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
    /// split). A batch takes one arm's requests only.
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
    Idle,
    Drain,
}

impl FlushReason {
    /// Every reason, in declaration (= `as usize`) order.
    pub(crate) const ALL: [FlushReason; 3] =
        [FlushReason::Size, FlushReason::Idle, FlushReason::Drain];

    /// Stable name used in span attributes and metric names.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Idle => "idle",
            FlushReason::Drain => "drain",
        }
    }
}

/// One batch removed from the queue by [`RequestQueue::take_batch`].
#[derive(Debug)]
pub(crate) struct Collected {
    /// Whole requests of one traffic arm, in arrival order.
    pub entries: Vec<Pending>,
    /// Rows across `entries`.
    pub rows: usize,
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

impl Inner {
    /// The head batch, without removing it: the head request's arm, and
    /// how many of that arm's requests (front to back) and rows fill the
    /// row budget. An oversized first request rides alone.
    fn head_batch(&self, max_rows: usize) -> Option<(Arm, usize, usize)> {
        let arm = self.entries.front()?.arm;
        let (mut count, mut rows) = (0, 0);
        for pending in self.entries.iter().filter(|p| p.arm == arm) {
            if count > 0 && rows + pending.rows > max_rows {
                break;
            }
            count += 1;
            rows += pending.rows;
            if rows >= max_rows {
                break;
            }
        }
        Some((arm, count, rows))
    }

    /// Removes the first `count` requests on `arm`; requests on the other
    /// arm keep their place.
    fn remove(&mut self, arm: Arm, count: usize) -> Vec<Pending> {
        let mut taken = Vec::with_capacity(count);
        let mut at = 0;
        while taken.len() < count {
            if self.entries[at].arm == arm {
                let pending = self.entries.remove(at).expect("index is in range");
                self.rows -= pending.rows;
                taken.push(pending);
            } else {
                at += 1;
            }
        }
        taken
    }
}

/// Thread-safe bounded queue shared by clients (push) and the pool's
/// workers (take).
#[derive(Debug)]
pub(crate) struct RequestQueue {
    inner: Mutex<Inner>,
    /// Signalled on arrival, on close, after a take that leaves work
    /// behind, and by a worker back from a batch that leaves the head.
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
    /// thread that panics mid-push must not wedge the workers (and with
    /// them the whole service) — the queue's invariants are re-established
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

    /// Stops admission. Queued requests remain and will still be taken
    /// by [`RequestQueue::take_batch`].
    pub(crate) fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        self.wake.notify_all();
    }

    /// Blocks until the calling worker takes the head batch. `claim(rows,
    /// queued_rows)` runs under the queue lock: whether the caller's slot
    /// takes a head batch of `rows`, booking the slot if so. `None` once
    /// the queue is closed and empty — the worker's exit condition. A
    /// worker back from a batch changed its slot's load, estimate or
    /// breaker, which can move the head batch to another slot, so if it
    /// does not take the head batch it wakes the others once.
    pub(crate) fn take_batch(
        &self,
        max_rows: usize,
        claim: impl Fn(usize, usize) -> bool,
    ) -> Option<Collected> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut returning = true;
        loop {
            match inner.head_batch(max_rows) {
                None if inner.closed => return None,
                Some((arm, count, rows)) if claim(rows, inner.rows) => {
                    let entries = inner.remove(arm, count);
                    let flush = if rows >= max_rows {
                        FlushReason::Size
                    } else if inner.closed {
                        FlushReason::Drain
                    } else {
                        FlushReason::Idle
                    };
                    // What is left may be another slot's to take; a
                    // closed queue lets the others see whether to exit.
                    if !inner.entries.is_empty() || inner.closed {
                        self.wake.notify_all();
                    }
                    return Some(Collected { entries, rows, backlog_rows: inner.rows, flush });
                }
                head => {
                    if head.is_some() && std::mem::take(&mut returning) {
                        self.wake.notify_all();
                    }
                    inner = self.wake.wait(inner).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

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

    fn take(queue: &RequestQueue, max_rows: usize) -> Option<Collected> {
        queue.take_batch(max_rows, |_, _| true)
    }

    /// Nine rows queued while the slot was busy: the free worker takes a
    /// full batch and leaves the rest.
    #[test]
    fn busy_target_flushes_on_size_without_waiting() {
        let queue = queue_of(&[1; 9]);
        let batch = take(&queue, 8).unwrap();
        assert_eq!(
            (batch.flush, batch.entries.len(), batch.rows, batch.backlog_rows),
            (FlushReason::Size, 8, 8, 1)
        );
    }

    #[test]
    fn oversized_request_rides_alone_and_whole() {
        let queue = queue_of(&[10, 1, 2]);
        let batch = take(&queue, 4).unwrap();
        assert_eq!(
            (batch.flush, rows_of(&batch), batch.backlog_rows),
            (FlushReason::Size, vec![10], 3)
        );
        // Requests are never split to fill the row budget exactly.
        queue.try_push(request(3)).unwrap();
        let batch = take(&queue, 4).unwrap();
        assert_eq!((rows_of(&batch), batch.backlog_rows), (vec![1, 2], 3));
    }

    #[test]
    fn close_drains_what_is_queued_then_ends() {
        let queue = queue_of(&[1, 2]);
        queue.close();
        let batch = take(&queue, 1024).unwrap();
        assert_eq!((batch.flush, rows_of(&batch)), (FlushReason::Drain, vec![1, 2]));
        assert!(take(&queue, 1024).is_none());
        assert!(matches!(queue.try_push(request(1)), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn idle_target_takes_a_lone_request_at_once() {
        let queue = queue_of(&[3]);
        let batch = queue
            .take_batch(1024, |rows, queued_rows| {
                assert_eq!((rows, queued_rows), (3, 3), "the claim is asked about the head batch");
                true
            })
            .unwrap();
        assert_eq!(
            (batch.flush, rows_of(&batch), batch.backlog_rows),
            (FlushReason::Idle, vec![3], 0)
        );
    }

    #[test]
    fn size_and_drain_outrank_idle() {
        let queue = queue_of(&[1; 4]);
        assert_eq!(take(&queue, 4).unwrap().flush, FlushReason::Size);
        let queue = queue_of(&[1]);
        queue.close();
        assert_eq!(take(&queue, 4).unwrap().flush, FlushReason::Drain);
    }

    /// One batch, one arm: the head request's arm is taken in arrival
    /// order and the other arm's requests keep their place.
    #[test]
    fn a_batch_takes_the_head_arm_only() {
        let queue = RequestQueue::new(1024);
        for (rows, arm) in [(1, Arm::A), (2, Arm::B), (3, Arm::A), (4, Arm::B), (5, Arm::A)] {
            let mut pending = request(rows);
            pending.arm = arm;
            queue.try_push(pending).unwrap();
        }
        let arms = |batch: &Collected| batch.entries.iter().map(|p| p.arm).collect::<Vec<_>>();
        let batch = take(&queue, 4).unwrap();
        assert_eq!(
            (rows_of(&batch), arms(&batch), batch.backlog_rows),
            (vec![1, 3], vec![Arm::A; 2], 11)
        );
        let batch = take(&queue, 1024).unwrap();
        assert_eq!((rows_of(&batch), arms(&batch)), (vec![2, 4], vec![Arm::B; 2]));
        assert_eq!(rows_of(&take(&queue, 1024).unwrap()), vec![5]);
    }

    /// A worker back from its batch that leaves the head one wakes the
    /// worker it now belongs to, waiting or still about to check.
    #[test]
    fn a_release_wakes_an_idle_worker_of_another_slot() {
        let queue = queue_of(&[1, 1]);
        // Slot 0 is busy and holds the pick; slot 1's worker waits.
        let picked = &AtomicUsize::new(0);
        let claim_for = |slot| move |_: usize, _: usize| picked.load(Ordering::Relaxed) == slot;
        std::thread::scope(|scope| {
            let idle = scope.spawn(|| queue.take_batch(1024, claim_for(1)));
            // Slot 0 comes back from its batch; its release moved the pick.
            picked.store(1, Ordering::Relaxed);
            let returning = scope.spawn(|| queue.take_batch(1024, claim_for(0)));
            let t0 = Instant::now();
            while !idle.is_finished() && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let woken = idle.is_finished();
            queue.close();
            assert!(woken, "the idle worker slept through the release");
            let batch = idle.join().unwrap().unwrap();
            assert_eq!((batch.flush, batch.entries.len()), (FlushReason::Idle, 2));
            assert!(returning.join().unwrap().is_none(), "closed and empty: the worker exits");
        });
    }
}
