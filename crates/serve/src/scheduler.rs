//! Batch-to-backend scheduling via an online latency cost model.
//!
//! Each backend carries an EWMA of measured **per-query wall-clock
//! latency**, updated after every batch it executes. Every free worker
//! asks [`Scheduler::claim`] whether its slot takes the queue's head
//! batch; the same ranking answers all of them, so one slot is picked
//! and only that slot books the batch. `Auto` estimates each slot's
//! completion cost as
//!
//! ```text
//! idle slot:  batch_rows                    * ewma_us_per_query
//! busy slot:  (inflight_rows + queued_rows) * ewma_us_per_query
//! ```
//!
//! and picks the argmin: a busy slot gets to the batch only after what
//! it runs and what is queued, so a slower idle slot takes over once the
//! backlog makes waiting cost more. Backends with no samples yet are
//! tried first (one warmup batch each) so the model never starves an
//! untested slot.
//!
//! On top of the cost model sits a bank of per-backend
//! [`CircuitBreaker`]s: a backend whose breaker is open is excluded from
//! selection (under any policy), and when no backend is admissible the
//! batch goes to the **backend of last resort** — `cpu-sharded` when the
//! pool has it (always-available by construction: plain memory and the
//! one store every version builds), else pool slot 0. Breaker cooldowns advance with
//! the global dispatch sequence number (one per taken batch), not wall
//! time, so routing decisions replay exactly under a seeded chaos plan.

use crate::backend::BackendKind;
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// EWMA smoothing factor: one observation moves the estimate a quarter
/// of the way — reactive enough to track load shifts, calm enough to
/// ignore one noisy batch.
const ALPHA: f64 = 0.25;

/// How batches are assigned to backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Cost-model scheduling (default): cheapest estimated completion.
    Auto,
    /// Pin every batch to one backend.
    Fixed(BackendKind),
}

impl fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulePolicy::Auto => f.write_str("auto"),
            SchedulePolicy::Fixed(kind) => write!(f, "fixed:{kind}"),
        }
    }
}

impl FromStr for SchedulePolicy {
    type Err = String;

    /// Parses `auto` or `fixed:<backend>` (the inverse of
    /// [`Display`](fmt::Display)); the backend part follows
    /// [`BackendKind::from_str`], whose error lists the valid names.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "auto" {
            return Ok(SchedulePolicy::Auto);
        }
        match s.strip_prefix("fixed:") {
            Some(backend) => backend.parse::<BackendKind>().map(SchedulePolicy::Fixed),
            None => Err(format!("unknown schedule policy {s:?}; expected auto or fixed:<backend>")),
        }
    }
}

#[derive(Debug)]
struct BackendLoad {
    kind: BackendKind,
    /// f64 bits of the EWMA per-query latency in microseconds.
    ewma_us_bits: AtomicU64,
    samples: AtomicU64,
    /// Rows dispatched but not yet completed.
    inflight_rows: AtomicUsize,
}

/// Shared scheduler state (lock-free reads on the dispatch path).
#[derive(Debug)]
pub(crate) struct Scheduler {
    policy: SchedulePolicy,
    loads: Vec<BackendLoad>,
    breakers: Vec<CircuitBreaker>,
    /// Global dispatch sequence number: the logical clock breaker
    /// cooldowns count in.
    dispatch_seq: AtomicU64,
    /// Pool index of the always-available fallback backend.
    last_resort: usize,
}

impl Scheduler {
    /// Default-breaker construction (tests; the service passes its
    /// configured breaker explicitly).
    #[cfg(test)]
    pub(crate) fn new(policy: SchedulePolicy, backends: &[BackendKind]) -> Self {
        Self::with_breaker_config(policy, backends, BreakerConfig::default())
    }

    pub(crate) fn with_breaker_config(
        policy: SchedulePolicy,
        backends: &[BackendKind],
        breaker: BreakerConfig,
    ) -> Self {
        let last_resort = backends.iter().position(|&k| k == BackendKind::CpuSharded).unwrap_or(0);
        Scheduler {
            policy,
            loads: backends
                .iter()
                .map(|&kind| BackendLoad {
                    kind,
                    ewma_us_bits: AtomicU64::new(0f64.to_bits()),
                    samples: AtomicU64::new(0),
                    inflight_rows: AtomicUsize::new(0),
                })
                .collect(),
            breakers: backends.iter().map(|_| CircuitBreaker::new(breaker)).collect(),
            dispatch_seq: AtomicU64::new(0),
            last_resort,
        }
    }

    /// Whether slot `idx` takes the head batch of `rows` (`queued_rows`
    /// queued in all), booking its rows and any half-open probe if so.
    /// Tripped backends are routed around; with none admissible the
    /// batch goes to the last resort regardless of its breaker. Only
    /// `idx`'s breaker is asked for real, so a probe is booked only by
    /// the batch that uses it. Runs under the queue lock: the dispatch
    /// sequence advances once per taken batch.
    pub(crate) fn claim(&self, idx: usize, rows: usize, queued_rows: usize) -> bool {
        let seq = self.dispatch_seq.load(Ordering::Relaxed);
        let admit = |i: usize| {
            if i == idx {
                self.breakers[i].admit(seq)
            } else {
                self.breakers[i].would_admit(seq)
            }
        };
        if self.choose(rows, queued_rows, admit) != idx {
            return false;
        }
        self.dispatch_seq.fetch_add(1, Ordering::Relaxed);
        self.loads[idx].inflight_rows.fetch_add(rows, Ordering::Relaxed);
        true
    }

    /// The slot that claims a lone batch of `rows`.
    #[cfg(test)]
    pub(crate) fn dispatch(&self, rows: usize) -> usize {
        (0..self.loads.len()).find(|&idx| self.claim(idx, rows, rows)).expect("one slot claims")
    }

    /// The policy's pick among the backends `admit` accepts, probed in
    /// preference order (so a half-open breaker's single probe slot is
    /// booked exactly when the batch will actually use it); the backend
    /// of last resort when none does.
    fn choose(&self, rows: usize, queued_rows: usize, admit: impl Fn(usize) -> bool) -> usize {
        match self.policy {
            SchedulePolicy::Fixed(kind) => {
                let pinned = self
                    .loads
                    .iter()
                    .position(|l| l.kind == kind)
                    .expect("fixed backend not in executor pool");
                Some(pinned).filter(|&idx| admit(idx))
            }
            SchedulePolicy::Auto => {
                // Rank by estimated completion cost, warmup backends (no
                // samples yet) first in pool order.
                let cost = |idx: usize| {
                    let load = &self.loads[idx];
                    if load.samples.load(Ordering::Relaxed) == 0 {
                        return f64::NEG_INFINITY;
                    }
                    let per_query = f64::from_bits(load.ewma_us_bits.load(Ordering::Relaxed));
                    let inflight = load.inflight_rows.load(Ordering::Relaxed);
                    // A busy slot gets to this batch only after the rows
                    // queued ahead of and beside it; an idle one now.
                    let ahead = if inflight > 0 { queued_rows.max(rows) } else { rows };
                    (inflight + ahead) as f64 * per_query
                };
                let mut ranked: Vec<usize> = (0..self.loads.len()).collect();
                ranked.sort_by(|&a, &b| cost(a).total_cmp(&cost(b)).then(a.cmp(&b)));
                ranked.into_iter().find(|&idx| admit(idx))
            }
        }
        .unwrap_or(self.last_resort)
    }

    /// Records a completed batch: releases the in-flight rows and folds
    /// the measured latency into the backend's EWMA. (The worker loop
    /// calls `release` and `observe` separately, because under fallback
    /// the booking backend and the executing backend can differ.)
    #[cfg(test)]
    pub(crate) fn complete(&self, idx: usize, rows: usize, elapsed: Duration) {
        self.release(idx, rows);
        self.observe(idx, rows, elapsed);
    }

    /// Releases the in-flight rows a claim booked, once the slot's
    /// worker is done with the batch.
    pub(crate) fn release(&self, idx: usize, rows: usize) {
        self.loads[idx].inflight_rows.fetch_sub(rows, Ordering::Relaxed);
    }

    /// Gives back the half-open probe a batch on slot `idx` booked and
    /// never ran (it was shed first), so the next batch probes instead.
    pub(crate) fn abandon_probe(&self, idx: usize) {
        self.breakers[idx].abandon_probe();
    }

    /// Folds one measured batch into the backend's latency EWMA without
    /// touching in-flight accounting (the worker releases its booking
    /// separately).
    pub(crate) fn observe(&self, idx: usize, rows: usize, elapsed: Duration) {
        let load = &self.loads[idx];
        let observed = elapsed.as_secs_f64() * 1e6 / rows.max(1) as f64;
        let n = load.samples.fetch_add(1, Ordering::Relaxed);
        // Racy read-modify-write is fine: the EWMA is a heuristic, and
        // workers rarely complete within the same microsecond.
        let prev = f64::from_bits(load.ewma_us_bits.load(Ordering::Relaxed));
        let next = if n == 0 { observed } else { prev + ALPHA * (observed - prev) };
        load.ewma_us_bits.store(next.to_bits(), Ordering::Relaxed);
    }

    /// Current per-query latency estimate in microseconds (0 until the
    /// first sample).
    pub(crate) fn ewma_us(&self, idx: usize) -> f64 {
        f64::from_bits(self.loads[idx].ewma_us_bits.load(Ordering::Relaxed))
    }

    pub(crate) fn inflight_rows(&self, idx: usize) -> usize {
        self.loads[idx].inflight_rows.load(Ordering::Relaxed)
    }

    /// Feeds a batch outcome to the backend's circuit breaker, stamped
    /// with the current dispatch sequence number.
    pub(crate) fn record_outcome(&self, idx: usize, success: bool) {
        let seq = self.dispatch_seq.load(Ordering::Relaxed);
        self.breakers[idx].record(success, seq);
    }

    /// Pool index of the always-available fallback backend.
    pub(crate) fn last_resort(&self) -> usize {
        self.last_resort
    }

    pub(crate) fn breaker_state(&self, idx: usize) -> BreakerState {
        self.breakers[idx].state()
    }

    pub(crate) fn breaker_trips(&self, idx: usize) -> u64 {
        self.breakers[idx].trips()
    }

    pub(crate) fn breaker_transitions(&self, idx: usize) -> Vec<String> {
        self.breakers[idx].transitions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two slots: the scheduler runs no backend, so the kinds only name
    /// the slots a policy pins and the last resort.
    fn pool() -> Vec<BackendKind> {
        BackendKind::ALL.to_vec()
    }

    #[test]
    fn warmup_visits_every_backend_once() {
        // Run against the full kind list (quantized backend included) so
        // warmup coverage tracks ALL as it grows.
        let all = BackendKind::ALL.to_vec();
        let s = Scheduler::new(SchedulePolicy::Auto, &all);
        let mut seen = Vec::new();
        for _ in 0..all.len() {
            let idx = s.dispatch(8);
            seen.push(idx);
            s.complete(idx, 8, Duration::from_micros(100));
        }
        seen.sort_unstable();
        let want: Vec<usize> = (0..all.len()).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn auto_prefers_the_fast_backend() {
        let s = Scheduler::new(SchedulePolicy::Auto, &pool());
        // Seed: backend 1 is 10x faster per query.
        for (idx, us) in [(0usize, 1000u64), (1, 100)] {
            let i = s.dispatch(10);
            assert_eq!(i, idx);
            s.complete(i, 10, Duration::from_micros(us * 10));
        }
        for _ in 0..5 {
            let idx = s.dispatch(10);
            assert_eq!(idx, 1);
            s.complete(idx, 10, Duration::from_micros(100 * 10));
        }
    }

    #[test]
    fn auto_spills_when_the_fast_backend_queues_up() {
        let s = Scheduler::new(SchedulePolicy::Auto, &pool());
        for us in [1000u64, 100] {
            let i = s.dispatch(10);
            s.complete(i, 10, Duration::from_micros(us * 10));
        }
        // Pile rows onto the fast backend without completing them: the
        // cost model must eventually route around the queue.
        let mut routed_elsewhere = false;
        for _ in 0..50 {
            let idx = s.dispatch(10);
            if idx != 1 {
                routed_elsewhere = true;
                s.complete(idx, 10, Duration::from_micros(1000 * 10));
            }
        }
        assert!(routed_elsewhere, "in-flight pressure must divert batches");
    }

    /// With the fast slot busy, the idle slow slot takes the head batch
    /// once the rows queued behind the fast slot make waiting cost more
    /// (here past 90 queued rows: `(10 + q) × 100 µs > 10 × 1000 µs`), and
    /// leaves it for the fast slot while the backlog is short.
    #[test]
    fn auto_hands_a_backlog_to_an_idle_slow_slot() {
        let s = Scheduler::new(SchedulePolicy::Auto, &pool());
        for us in [1000u64, 100] {
            let i = s.dispatch(10);
            s.complete(i, 10, Duration::from_micros(us * 10));
        }
        let (slow, fast) = (0usize, 1usize);
        assert!(s.claim(fast, 10, 10), "the fast slot takes while idle");
        for queued in [10, 50, 80] {
            assert!(!s.claim(slow, 10, queued), "{queued} queued rows: wait for the fast slot");
        }
        assert!(s.claim(slow, 10, 100), "100 queued rows: the idle slow slot takes");
        assert_eq!((s.inflight_rows(slow), s.inflight_rows(fast)), (10, 10));
    }

    #[test]
    fn fixed_pins_every_batch_to_its_slot() {
        let fixed = Scheduler::new(SchedulePolicy::Fixed(BackendKind::CpuShardedQ8), &pool());
        for _ in 0..4 {
            assert_eq!(fixed.dispatch(1), 1);
        }
    }

    #[test]
    fn policies_round_trip_through_fromstr() {
        let policies = [
            SchedulePolicy::Auto,
            SchedulePolicy::Fixed(BackendKind::CpuSharded),
            SchedulePolicy::Fixed(BackendKind::CpuShardedQ8),
        ];
        for policy in policies {
            assert_eq!(policy.to_string().parse::<SchedulePolicy>(), Ok(policy));
        }
        assert_eq!(
            "fixed:cpu-sharded".parse::<SchedulePolicy>(),
            Ok(SchedulePolicy::Fixed(BackendKind::CpuSharded))
        );
        // "round-robin" was a policy once: an operator's old config gets
        // the same listing as any unknown name, not a panic.
        for unknown in ["warp-speed", "round-robin"] {
            let err = unknown.parse::<SchedulePolicy>().unwrap_err();
            assert!(err.contains(unknown), "{err}");
            assert!(err.contains("auto") && err.contains("fixed:<backend>"), "{err}");
        }
        // So was a pin to a simulated device: its backend name gets the
        // backend listing.
        for unknown in ["fixed:abacus", "fixed:gpu-sim-hybrid"] {
            let err = unknown.parse::<SchedulePolicy>().unwrap_err();
            assert!(err.contains(&unknown["fixed:".len()..]), "{err}");
            assert!(err.contains("cpu-sharded"), "{err}");
        }
    }

    fn tight_breaker() -> BreakerConfig {
        BreakerConfig { window: 4, min_samples: 2, failure_rate: 0.5, cooldown_dispatches: 4 }
    }

    #[test]
    fn last_resort_prefers_cpu_sharded_then_slot_zero() {
        let s = Scheduler::new(SchedulePolicy::Auto, &pool());
        assert_eq!(pool()[s.last_resort()], BackendKind::CpuSharded);
        let sharded_last = vec![BackendKind::CpuShardedQ8, BackendKind::CpuSharded];
        let s = Scheduler::new(SchedulePolicy::Auto, &sharded_last);
        assert_eq!(s.last_resort(), 1);
        let q8_only = vec![BackendKind::CpuShardedQ8];
        let s = Scheduler::new(SchedulePolicy::Auto, &q8_only);
        assert_eq!(s.last_resort(), 0);
    }

    #[test]
    fn fixed_policy_degrades_to_last_resort_while_tripped() {
        let kinds = vec![BackendKind::CpuSharded, BackendKind::CpuShardedQ8];
        let s = Scheduler::with_breaker_config(
            SchedulePolicy::Fixed(BackendKind::CpuShardedQ8),
            &kinds,
            tight_breaker(),
        );
        let q8 = 1usize;
        // Two failures trip the q8 breaker (min_samples=2, rate 1.0).
        for _ in 0..2 {
            let idx = s.dispatch(4);
            assert_eq!(idx, q8);
            s.release(idx, 4);
            s.record_outcome(idx, false);
        }
        assert_eq!(s.breaker_state(q8), BreakerState::Open);
        // While open, the pinned policy routes to cpu-sharded instead.
        let idx = s.dispatch(4);
        assert_eq!(kinds[idx], BackendKind::CpuSharded);
        s.release(idx, 4);
        s.record_outcome(idx, true);
        // After the cooldown (open since seq 2, until seq 6) the breaker
        // half-opens and the pinned backend gets its probe batch back.
        for _ in 0..3 {
            let idx = s.dispatch(4);
            assert_eq!(kinds[idx], BackendKind::CpuSharded, "still cooling down");
            s.release(idx, 4);
        }
        let idx = s.dispatch(4);
        assert_eq!(idx, q8, "half-open probe goes to the pinned backend");
        assert_eq!(s.breaker_state(q8), BreakerState::HalfOpen);
        s.release(idx, 4);
        s.record_outcome(idx, true);
        assert_eq!(s.breaker_state(q8), BreakerState::Closed);
        assert_eq!(s.breaker_trips(q8), 1);
        assert!(s.breaker_transitions(q8).iter().any(|t| t.starts_with("closed->open@")));
    }

    /// Every worker asks; only the picked slot books, and a half-open
    /// probe is booked by the batch that uses it — not by a worker that
    /// merely asked, and not for good by a batch shed before it ran.
    #[test]
    fn take_rule_books_a_probe_only_for_the_batch_that_uses_it() {
        let kinds = vec![BackendKind::CpuSharded, BackendKind::CpuShardedQ8];
        let (cpu, q8) = (0usize, 1usize);
        let s = Scheduler::with_breaker_config(
            SchedulePolicy::Fixed(BackendKind::CpuShardedQ8),
            &kinds,
            tight_breaker(),
        );
        let seq = |s: &Scheduler| s.dispatch_seq.load(Ordering::Relaxed);
        // A slot the policy does not pick leaves the batch and books nothing.
        assert!(!s.claim(cpu, 4, 4));
        assert_eq!((s.inflight_rows(cpu), s.inflight_rows(q8), seq(&s)), (0, 0, 0));
        assert!(s.claim(q8, 4, 4));
        assert_eq!((s.inflight_rows(q8), seq(&s)), (4, 1));
        s.release(q8, 4);
        // Tripped (open since seq 1, until seq 5): the last resort takes.
        s.record_outcome(q8, false);
        s.record_outcome(q8, false);
        assert_eq!(s.breaker_state(q8), BreakerState::Open);
        assert!(!s.claim(q8, 4, 4));
        for _ in 0..4 {
            assert!(s.claim(cpu, 1, 1));
            s.release(cpu, 1);
        }
        // Cooldown over: the next batch is the pinned slot's probe. The
        // last resort asking about it does not half-open the breaker.
        assert!(!s.claim(cpu, 4, 4));
        assert_eq!(s.breaker_state(q8), BreakerState::Open, "asking booked the probe");
        assert!(s.claim(q8, 4, 4));
        assert_eq!(s.breaker_state(q8), BreakerState::HalfOpen);
        // One probe at a time: the batch after it goes to the last resort.
        assert!(!s.claim(q8, 4, 4));
        assert!(s.claim(cpu, 4, 4));
        s.release(cpu, 4);
        // The probe batch is shed before it ran: the probe is free again.
        s.release(q8, 4);
        s.abandon_probe(q8);
        assert!(s.claim(q8, 4, 4), "the next batch probes");
        s.release(q8, 4);
        s.record_outcome(q8, true);
        assert_eq!(s.breaker_state(q8), BreakerState::Closed);

        // A last resort whose own breaker is open still takes: no other
        // slot would.
        let q8_only = vec![BackendKind::CpuShardedQ8];
        let s = Scheduler::with_breaker_config(SchedulePolicy::Auto, &q8_only, tight_breaker());
        s.record_outcome(0, false);
        s.record_outcome(0, false);
        assert_eq!(s.breaker_state(0), BreakerState::Open);
        assert!(s.claim(0, 1, 1));
    }
}
