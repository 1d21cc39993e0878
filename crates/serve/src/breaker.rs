//! Per-backend circuit breaker (closed → open → half-open).
//!
//! The breaker watches a sliding window of batch outcomes for one
//! backend. While **closed** it admits everything; once the window holds
//! enough samples and the failure rate crosses the threshold it
//! **opens**, and the scheduler routes around the backend. Time in the
//! open state is counted in *dispatch sequence numbers* — the service's
//! global dispatch counter — rather than wall-clock time, so breaker
//! behavior in seeded chaos runs is exactly reproducible. After the
//! cooldown the breaker turns **half-open**: it admits a single probe
//! batch; if the probe succeeds the breaker closes (window cleared),
//! if it fails the breaker re-opens for another cooldown.
//!
//! Every transition is appended to a per-breaker log
//! (`"closed->open@<seq>"`, ...) that chaos tests compare across runs
//! to prove determinism.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Tuning for one [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding outcome-window length (batches).
    pub window: usize,
    /// Minimum samples in the window before the breaker may trip.
    pub min_samples: usize,
    /// Failure-rate threshold in `[0, 1]`; at or above it, trip.
    pub failure_rate: f64,
    /// Open-state cooldown, counted in global dispatch sequence numbers
    /// (not wall time — keeps chaos runs deterministic).
    pub cooldown_dispatches: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { window: 16, min_samples: 8, failure_rate: 0.5, cooldown_dispatches: 8 }
    }
}

/// Breaker state machine position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal operation; all batches admitted.
    #[default]
    Closed,
    /// Tripped; the scheduler routes around this backend until the
    /// cooldown elapses.
    Open,
    /// Cooldown elapsed; exactly one probe batch is admitted to decide
    /// between closing and re-opening.
    HalfOpen,
}

impl BreakerState {
    /// Stable name used in metrics, stats, and transition logs.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// Numeric encoding for the `serve.breaker.<name>.state` gauge
    /// (0 = closed, 1 = open, 2 = half-open).
    pub fn as_gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    outcomes: VecDeque<bool>,
    /// First dispatch seq at which an Open breaker may half-open.
    open_until: u64,
    /// Whether the half-open probe slot is taken (in flight).
    probe_inflight: bool,
    transitions: Vec<String>,
}

/// Windowed failure-rate circuit breaker for one backend.
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
    trips: AtomicU64,
}

impl CircuitBreaker {
    pub(crate) fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                outcomes: VecDeque::new(),
                open_until: 0,
                probe_inflight: false,
                transitions: Vec::new(),
            }),
            trips: AtomicU64::new(0),
        }
    }

    /// Whether a batch dispatched at global sequence `seq` may use this
    /// backend. Transitions Open → HalfOpen when the cooldown has
    /// elapsed, and books the single half-open probe slot.
    /// Breaker locks recover from poisoning (here and below): the state
    /// machine's invariants hold on entry to every method, so a panic in
    /// some other worker mid-update is no reason to wedge dispatch for
    /// the rest of the pool.
    pub(crate) fn admit(&self, seq: u64) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let admitted = Self::admits(&inner, seq);
        if admitted && inner.state != BreakerState::Closed {
            if inner.state == BreakerState::Open {
                Self::transition(&mut inner, BreakerState::HalfOpen, seq);
            }
            inner.probe_inflight = true;
        }
        admitted
    }

    /// What [`CircuitBreaker::admit`] would answer at `seq`, without
    /// transitioning or booking the probe slot — how the batcher asks
    /// where a batch *would* go before it decides to flush one.
    pub(crate) fn would_admit(&self, seq: u64) -> bool {
        Self::admits(&self.inner.lock().unwrap_or_else(PoisonError::into_inner), seq)
    }

    fn admits(inner: &Inner, seq: u64) -> bool {
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => seq >= inner.open_until,
            BreakerState::HalfOpen => !inner.probe_inflight,
        }
    }

    /// Records a batch outcome for this backend. `seq` is the global
    /// dispatch sequence of the *recording* moment, used to stamp
    /// transitions and start cooldowns.
    pub(crate) fn record(&self, success: bool, seq: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.state {
            BreakerState::Closed => {
                inner.outcomes.push_back(success);
                while inner.outcomes.len() > self.config.window {
                    inner.outcomes.pop_front();
                }
                if inner.outcomes.len() >= self.config.min_samples.max(1) {
                    let failures = inner.outcomes.iter().filter(|&&ok| !ok).count();
                    let rate = failures as f64 / inner.outcomes.len() as f64;
                    if rate >= self.config.failure_rate {
                        self.trips.fetch_add(1, Ordering::Relaxed);
                        inner.open_until = seq + self.config.cooldown_dispatches;
                        inner.outcomes.clear();
                        Self::transition(&mut inner, BreakerState::Open, seq);
                    }
                }
            }
            BreakerState::HalfOpen => {
                inner.probe_inflight = false;
                if success {
                    Self::transition(&mut inner, BreakerState::Closed, seq);
                } else {
                    self.trips.fetch_add(1, Ordering::Relaxed);
                    inner.open_until = seq + self.config.cooldown_dispatches;
                    Self::transition(&mut inner, BreakerState::Open, seq);
                }
            }
            // Late results for batches dispatched before the trip carry
            // no new information about the (cleared) window.
            BreakerState::Open => {}
        }
    }

    fn transition(inner: &mut Inner, to: BreakerState, seq: u64) {
        let entry = format!("{}->{}@{seq}", inner.state.name(), to.name());
        inner.transitions.push(entry);
        inner.state = to;
    }

    pub(crate) fn state(&self) -> BreakerState {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).state
    }

    /// Closed→Open and HalfOpen→Open trips so far.
    pub(crate) fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// The full transition log (`"closed->open@12"`, ...), in order.
    pub(crate) fn transitions(&self) -> Vec<String> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).transitions.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            window: 4,
            min_samples: 4,
            failure_rate: 0.5,
            cooldown_dispatches: 3,
        })
    }

    #[test]
    fn trips_at_failure_rate_and_reopens_from_failed_probe() {
        let b = breaker();
        assert_eq!(b.state(), BreakerState::Closed);
        // 2 failures in a window of 4 = 50% >= threshold: trips on the
        // 4th sample.
        b.record(true, 0);
        b.record(false, 1);
        b.record(true, 2);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(false, 3);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);

        // Open until seq 3 + 3 = 6: rejects before, probes at 6.
        assert!(!b.admit(4));
        assert!(!b.admit(5));
        // Asking first answers the same and books nothing.
        assert!(!b.would_admit(5));
        assert!(b.would_admit(6));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admit(6));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Only one probe slot while it is in flight.
        assert!(!b.would_admit(6));
        assert!(!b.admit(6));

        // Failed probe: back to Open with a fresh cooldown.
        b.record(false, 7);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        assert!(!b.admit(8));
        assert!(b.admit(10));

        // Successful probe closes and clears the window.
        b.record(true, 11);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(
            b.transitions(),
            vec![
                "closed->open@3",
                "open->half-open@6",
                "half-open->open@7",
                "open->half-open@10",
                "half-open->closed@11",
            ]
        );
    }

    #[test]
    fn needs_min_samples_before_tripping() {
        let b = CircuitBreaker::new(BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_rate: 0.5,
            cooldown_dispatches: 2,
        });
        b.record(false, 0);
        b.record(false, 1);
        b.record(false, 2);
        assert_eq!(b.state(), BreakerState::Closed, "below min_samples");
        b.record(false, 3);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn window_slides() {
        let b = breaker();
        // Failures spread thinner than the 4-wide window's 50% threshold
        // never trip: every window holds at most one of them.
        for (i, ok) in [false, true, true, true, false, true, true, true].into_iter().enumerate() {
            b.record(ok, i as u64);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
        // Two *consecutive* failures concentrate in one window and trip.
        b.record(false, 8);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(false, 9);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn late_results_while_open_are_ignored() {
        let b = breaker();
        for seq in 0..4 {
            b.record(false, seq);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let transitions_before = b.transitions().len();
        b.record(true, 4); // straggler from before the trip
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions().len(), transitions_before);
    }

    #[test]
    fn state_names_and_gauge_encoding_are_stable() {
        assert_eq!(BreakerState::Closed.name(), "closed");
        assert_eq!(BreakerState::Open.name(), "open");
        assert_eq!(BreakerState::HalfOpen.name(), "half-open");
        assert_eq!(BreakerState::Closed.as_gauge(), 0.0);
        assert_eq!(BreakerState::Open.as_gauge(), 1.0);
        assert_eq!(BreakerState::HalfOpen.as_gauge(), 2.0);
    }
}
