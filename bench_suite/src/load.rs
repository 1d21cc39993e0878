//! Load generation against anything that admits a request without
//! blocking and answers it later: the open loop (arrivals on a fixed
//! schedule, whatever the server does) and the closed loop (each client
//! sends its next request when the previous one is answered).
//!
//! The open loop times every request **from the instant it was due**,
//! not from the instant it was sent: when the server (or the box)
//! stalls, the generator falls behind, and the requests that should
//! have been sent during the stall are charged the wait they would
//! really have seen. Timing from the send would hide exactly the stalls
//! a latency metric exists to show.

use crate::spans::{SpanId, SpanLog};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How one admitted request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Answered, and every label equals the oracle's.
    Correct,
    /// Answered with at least one label the oracle disagrees with.
    Wrong,
    /// Shed, failed or dropped: no answer.
    Failed,
}

/// A request is `rows` consecutive pool rows starting at `first_row`.
pub trait Server: Sync {
    type Pending: Send;
    /// Non-blocking admission; `None` when the server refuses.
    fn submit(&self, first_row: usize, rows: usize) -> Option<Self::Pending>;
    /// Blocks until the request is answered and checks the answer.
    fn wait(&self, first_row: usize, pending: Self::Pending) -> Verdict;
}

/// Which pool rows request number `request` carries: consecutive
/// slices, wrapping (`rows` divides `pool_rows`).
pub fn first_row(request: usize, rows: usize, pool_rows: usize) -> usize {
    (request * rows) % pool_rows
}

/// Due times of `seconds` of arrivals at a constant `rate_per_s`, as
/// offsets from the window start.
pub fn constant_rate(rate_per_s: u32, seconds: f64) -> Vec<Duration> {
    let n = (f64::from(rate_per_s) * seconds).round() as u32;
    (0..n).map(|i| Duration::from_secs_f64(f64::from(i) / f64::from(rate_per_s))).collect()
}

/// Final stretch before a due time that is spun, not slept: short
/// enough to leave the core to the server, long enough to absorb the
/// kernel's timer slack.
const SPIN: Duration = Duration::from_micros(100);

fn sleep_until(due: Instant) {
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

pub struct Traffic<'a> {
    /// Rows per request.
    pub request_rows: usize,
    pub pool_rows: usize,
    /// Number of the window's first request; later windows continue
    /// where earlier ones stopped, so the pool is walked evenly.
    pub first_request: usize,
    /// Run once, on its own thread, halfway through the window.
    pub midpoint: Option<&'a (dyn Fn() + Sync)>,
    pub spans: &'a SpanLog,
    pub parent: SpanId,
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpenWindow {
    /// Requests on the schedule.
    pub due: usize,
    /// Due-time → answer, µs, of every answered request in due order.
    pub latency_us: Vec<f64>,
    /// Due-time → start of the submit call, µs: how late the generator ran.
    pub late_us: Vec<f64>,
    /// Duration of the submit call, µs.
    pub submit_us: Vec<f64>,
    /// Answered correctly within the deadline of their due time.
    pub in_deadline: usize,
    pub refused: usize,
    pub failed: usize,
    pub wrong: usize,
}

/// One open-loop window: this thread generates on `schedule`, a second
/// thread waits for the answers in submission order.
pub fn open_loop<S: Server>(
    server: &S,
    schedule: &[Duration],
    deadline: Duration,
    traffic: &Traffic<'_>,
) -> OpenWindow {
    let mut window = OpenWindow { due: schedule.len(), ..OpenWindow::default() };
    let (tx, rx) = mpsc::channel::<(usize, Instant, S::Pending)>();
    let start = Instant::now();
    let half = schedule.last().copied().unwrap_or_default() / 2;
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let (mut latency_us, mut in_deadline, mut failed, mut wrong) = (Vec::new(), 0, 0, 0);
            for (request, due, pending) in rx {
                let row = first_row(request, traffic.request_rows, traffic.pool_rows);
                let called = Instant::now();
                let verdict = server.wait(row, pending);
                let answered = Instant::now();
                traffic.spans.record(
                    "serve.wait",
                    traffic.parent,
                    called,
                    answered,
                    Some(request as u64),
                );
                let latency = answered.saturating_duration_since(due);
                match verdict {
                    Verdict::Failed => failed += 1,
                    Verdict::Wrong => wrong += 1,
                    Verdict::Correct if latency <= deadline => in_deadline += 1,
                    Verdict::Correct => {}
                }
                if verdict != Verdict::Failed {
                    latency_us.push(latency.as_secs_f64() * 1e6);
                }
            }
            (latency_us, in_deadline, failed, wrong)
        });
        if let Some(action) = traffic.midpoint {
            scope.spawn(move || {
                sleep_until(start + half);
                action();
            });
        }
        for (i, offset) in schedule.iter().enumerate() {
            let (request, due) = (traffic.first_request + i, start + *offset);
            sleep_until(due);
            let called = Instant::now();
            let pending = server.submit(
                first_row(request, traffic.request_rows, traffic.pool_rows),
                traffic.request_rows,
            );
            let admitted = Instant::now();
            traffic.spans.record(
                "serve.submit",
                traffic.parent,
                called,
                admitted,
                Some(request as u64),
            );
            window.late_us.push(called.saturating_duration_since(due).as_secs_f64() * 1e6);
            window.submit_us.push((admitted - called).as_secs_f64() * 1e6);
            match pending {
                Some(pending) => {
                    tx.send((request, due, pending)).expect("the collector outlives the generator")
                }
                None => window.refused += 1,
            }
        }
        drop(tx);
        let (latency_us, in_deadline, failed, wrong) =
            collector.join().expect("the collector does not panic");
        window.latency_us = latency_us;
        window.in_deadline = in_deadline;
        window.failed = failed;
        window.wrong = wrong;
    });
    window
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ClosedWindow {
    pub requests: usize,
    /// Refused, failed or wrongly answered.
    pub bad: usize,
    /// Rows answered correctly.
    pub rows: usize,
    /// Window start until the last client's last answer.
    pub seconds: f64,
}

/// One closed-loop window of `clients` threads for at least `duration`.
pub fn closed_loop<S: Server>(
    server: &S,
    clients: usize,
    duration: Duration,
    traffic: &Traffic<'_>,
) -> ClosedWindow {
    let start = Instant::now();
    let per_client: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let (mut sent, mut bad) = (0, 0);
                    while start.elapsed() < duration {
                        let request = traffic.first_request + client + sent * clients;
                        let row = first_row(request, traffic.request_rows, traffic.pool_rows);
                        let called = Instant::now();
                        let verdict = match server.submit(row, traffic.request_rows) {
                            Some(pending) => server.wait(row, pending),
                            None => Verdict::Failed,
                        };
                        traffic.spans.record(
                            "serve.request",
                            traffic.parent,
                            called,
                            Instant::now(),
                            Some(request as u64),
                        );
                        sent += 1;
                        bad += usize::from(verdict != Verdict::Correct);
                    }
                    (sent, bad)
                })
            })
            .collect();
        if let Some(action) = traffic.midpoint {
            sleep_until(start + duration / 2);
            action();
        }
        handles.into_iter().map(|h| h.join().expect("a client does not panic")).collect()
    });
    let requests: usize = per_client.iter().map(|c| c.0).sum();
    let bad: usize = per_client.iter().map(|c| c.1).sum();
    ClosedWindow {
        requests,
        bad,
        rows: (requests - bad) * traffic.request_rows,
        seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Answers at once, except that admitting request `stall_at` blocks
    /// the caller for `stall`.
    struct Fake {
        stall_at: usize,
        stall: Duration,
        refuse: Option<usize>,
        wrong: Option<usize>,
        waits: AtomicUsize,
    }

    impl Fake {
        fn new() -> Fake {
            Fake {
                stall_at: usize::MAX,
                stall: Duration::ZERO,
                refuse: None,
                wrong: None,
                waits: AtomicUsize::new(0),
            }
        }
    }

    impl Server for Fake {
        type Pending = ();
        fn submit(&self, first_row: usize, rows: usize) -> Option<()> {
            assert_eq!(rows, 1);
            if first_row == self.stall_at {
                std::thread::sleep(self.stall);
            }
            (Some(first_row) != self.refuse).then_some(())
        }
        fn wait(&self, first_row: usize, (): ()) -> Verdict {
            self.waits.fetch_add(1, Ordering::Relaxed);
            if Some(first_row) == self.wrong {
                Verdict::Wrong
            } else {
                Verdict::Correct
            }
        }
    }

    fn traffic(spans: &SpanLog) -> Traffic<'_> {
        Traffic {
            request_rows: 1,
            pool_rows: 1 << 20,
            first_request: 0,
            midpoint: None,
            spans,
            parent: 0,
        }
    }

    #[test]
    fn schedule_and_row_walk() {
        let s = constant_rate(2000, 0.5);
        assert_eq!(s.len(), 1000);
        assert_eq!(s[0], Duration::ZERO);
        assert_eq!(s[999], Duration::from_secs_f64(999.0 / 2000.0));
        assert_eq!(first_row(0, 32, 8192), 0);
        assert_eq!(first_row(255, 32, 8192), 8160);
        assert_eq!(first_row(256, 32, 8192), 0);
    }

    /// The coordinated-omission check: a 50 ms stall in the server's
    /// admission path delays the generator, and every request that was
    /// due during the stall must be charged the time since its due
    /// time. Timed from the send, all of them would read near zero.
    #[test]
    fn a_stall_inflates_the_latency_of_requests_due_during_it() {
        let stall = Duration::from_millis(50);
        let fake = Fake { stall_at: 50, stall, ..Fake::new() };
        let spans = SpanLog::new(false);
        // 1000 requests per second for 0.2 s; request k is due at k ms.
        let w = open_loop(
            &fake,
            &constant_rate(1000, 0.2),
            Duration::from_millis(10),
            &traffic(&spans),
        );
        assert_eq!((w.due, w.latency_us.len()), (200, 200));
        // Request 50 is due at 50 ms and blocks until at least 100 ms;
        // request 60 was due at 60 ms and cannot be sent before that.
        assert!(w.latency_us[50] >= 50_000.0, "{}", w.latency_us[50]);
        assert!(w.latency_us[60] >= 40_000.0, "{}", w.latency_us[60]);
        assert!(w.late_us[60] >= 40_000.0, "{}", w.late_us[60]);
        assert!(w.latency_us[90] >= 10_000.0, "{}", w.latency_us[90]);
        // At least requests 50..=89 missed a 10 ms deadline.
        assert!(w.in_deadline <= 160, "{}", w.in_deadline);
        assert_eq!((w.refused, w.failed, w.wrong), (0, 0, 0));
    }

    #[test]
    fn refusals_and_wrong_answers_are_counted_and_miss_the_deadline() {
        let fake = Fake { refuse: Some(3), wrong: Some(5), ..Fake::new() };
        let spans = SpanLog::new(true);
        let w = open_loop(
            &fake,
            &constant_rate(10_000, 0.002),
            Duration::from_secs(10),
            &traffic(&spans),
        );
        assert_eq!((w.due, w.refused, w.wrong, w.failed), (20, 1, 1, 0));
        assert_eq!(w.latency_us.len(), 19, "a refused request has no latency");
        assert_eq!(w.in_deadline, 18);
        let recorded = spans.snapshot();
        assert_eq!(recorded.iter().filter(|s| s.name == "serve.submit").count(), 20);
        assert_eq!(recorded.iter().filter(|s| s.name == "serve.wait").count(), 19);
    }

    #[test]
    fn the_midpoint_action_runs_once_per_window() {
        let fake = Fake::new();
        let spans = SpanLog::new(false);
        let ran = AtomicUsize::new(0);
        let action = || {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        let t = Traffic { midpoint: Some(&action), ..traffic(&spans) };
        open_loop(&fake, &constant_rate(1000, 0.01), Duration::from_secs(1), &t);
        let closed = closed_loop(&fake, 2, Duration::from_millis(5), &t);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert!(closed.requests >= 2 && closed.bad == 0);
        assert_eq!(closed.rows, closed.requests);
        assert!(closed.seconds >= 0.005);
        assert_eq!(fake.waits.load(Ordering::Relaxed), 10 + closed.requests);
    }
}
