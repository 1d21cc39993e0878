//! Batch-to-backend scheduling via an online latency cost model.
//!
//! Each backend carries an EWMA of measured **per-query wall-clock
//! latency**, updated after every batch it executes. For a new batch the
//! scheduler estimates completion cost as
//!
//! ```text
//! (inflight_rows + batch_rows) * ewma_us_per_query
//! ```
//!
//! i.e. expected service time including queued work, and picks the
//! argmin. Backends with no samples yet are tried first (one warmup batch
//! each) so the model never starves an untested device; the service can
//! also pre-seed the model with probe batches at startup.
//!
//! On top of the cost model sits a bank of per-backend
//! [`CircuitBreaker`]s: a backend whose breaker is open is excluded from
//! selection (under any policy), and when no backend is admissible the
//! batch goes to the **backend of last resort** — `cpu-sharded` when the
//! pool has it (always-available by construction: plain memory, no
//! device to wedge), else pool slot 0. Breaker cooldowns advance with
//! the global dispatch sequence number, not wall time, so routing
//! decisions replay exactly under a seeded chaos plan.

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
    /// Ignore the cost model; rotate through backends.
    RoundRobin,
}

impl fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulePolicy::Auto => f.write_str("auto"),
            SchedulePolicy::RoundRobin => f.write_str("round-robin"),
            SchedulePolicy::Fixed(kind) => write!(f, "fixed:{kind}"),
        }
    }
}

impl FromStr for SchedulePolicy {
    type Err = String;

    /// Parses `auto`, `round-robin`, or `fixed:<backend>` (the inverse of
    /// [`Display`](fmt::Display)); the backend part follows
    /// [`BackendKind::from_str`], whose error lists the valid names.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(SchedulePolicy::Auto),
            "round-robin" => Ok(SchedulePolicy::RoundRobin),
            _ => match s.strip_prefix("fixed:") {
                Some(backend) => backend.parse::<BackendKind>().map(SchedulePolicy::Fixed),
                None => Err(format!(
                    "unknown schedule policy {s:?}; expected auto, round-robin, or fixed:<backend>"
                )),
            },
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
    rr_next: AtomicUsize,
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
            rr_next: AtomicUsize::new(0),
        }
    }

    /// Picks the backend index for a batch of `rows` and books the rows
    /// as in-flight on it. Backends whose breaker refuses admission are
    /// routed around; when nothing is admissible the batch lands on the
    /// backend of last resort regardless of its own breaker.
    pub(crate) fn dispatch(&self, rows: usize) -> usize {
        let seq = self.dispatch_seq.fetch_add(1, Ordering::Relaxed);
        let rr_start = match self.policy {
            SchedulePolicy::RoundRobin => self.rr_next.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        let idx = self.choose(rows, rr_start, |idx| self.breakers[idx].admit(seq));
        self.loads[idx].inflight_rows.fetch_add(rows, Ordering::Relaxed);
        idx
    }

    /// Whether the slot [`Scheduler::dispatch`] would pick for a batch of
    /// `rows` right now has nothing in flight and a closed breaker — the
    /// batcher's idle-flush rule. Books nothing. The batcher is the only
    /// dispatcher, so between this answer and its `dispatch` in-flight
    /// rows can only fall; a latency observation landing in between can
    /// still re-rank `Auto`'s candidates, which costs at most one batch
    /// flushed early onto a busy slot.
    pub(crate) fn target_is_idle(&self, rows: usize) -> bool {
        let seq = self.dispatch_seq.load(Ordering::Relaxed);
        let rr_start = self.rr_next.load(Ordering::Relaxed);
        let idx = self.choose(rows, rr_start, |idx| self.breakers[idx].would_admit(seq));
        self.inflight_rows(idx) == 0 && self.breaker_state(idx) == BreakerState::Closed
    }

    /// The policy's pick among the backends `admit` accepts, probed in
    /// preference order (so a half-open breaker's single probe slot is
    /// booked exactly when the batch will actually use it); the backend
    /// of last resort when none does.
    fn choose(&self, rows: usize, rr_start: usize, admit: impl Fn(usize) -> bool) -> usize {
        let n = self.loads.len();
        match self.policy {
            SchedulePolicy::Fixed(kind) => {
                let pinned = self
                    .loads
                    .iter()
                    .position(|l| l.kind == kind)
                    .expect("fixed backend not in executor pool");
                Some(pinned).filter(|&idx| admit(idx))
            }
            SchedulePolicy::RoundRobin => {
                (0..n).map(|off| (rr_start + off) % n).find(|&i| admit(i))
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
                    let pending = load.inflight_rows.load(Ordering::Relaxed) + rows;
                    pending as f64 * per_query
                };
                let mut ranked: Vec<usize> = (0..n).collect();
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

    /// Releases booked in-flight rows without a latency observation
    /// (dispatch failed before execution).
    pub(crate) fn release(&self, idx: usize, rows: usize) {
        self.loads[idx].inflight_rows.fetch_sub(rows, Ordering::Relaxed);
    }

    /// Folds one measured batch into the backend's latency EWMA without
    /// touching in-flight accounting (used by startup probes).
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

    fn pool() -> Vec<BackendKind> {
        BackendKind::DEFAULT_POOL.to_vec()
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
        for (idx, us) in [(0usize, 1000u64), (1, 100), (2, 1000)] {
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
        for us in [1000u64, 100, 1000] {
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

    #[test]
    fn round_robin_rotates_and_fixed_pins() {
        let rr = Scheduler::new(SchedulePolicy::RoundRobin, &pool());
        let picks: Vec<usize> = (0..6).map(|_| rr.dispatch(1)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);

        let fixed = Scheduler::new(SchedulePolicy::Fixed(BackendKind::FpgaSimIndependent), &pool());
        for _ in 0..4 {
            assert_eq!(fixed.dispatch(1), 2);
        }
    }

    #[test]
    fn policies_round_trip_through_fromstr() {
        let policies = [
            SchedulePolicy::Auto,
            SchedulePolicy::RoundRobin,
            SchedulePolicy::Fixed(BackendKind::CpuSharded),
            SchedulePolicy::Fixed(BackendKind::GpuSimHybrid),
        ];
        for policy in policies {
            assert_eq!(policy.to_string().parse::<SchedulePolicy>(), Ok(policy));
        }
        assert_eq!(
            "fixed:cpu-sharded".parse::<SchedulePolicy>(),
            Ok(SchedulePolicy::Fixed(BackendKind::CpuSharded))
        );
        assert!("warp-speed".parse::<SchedulePolicy>().unwrap_err().contains("round-robin"));
        assert!("fixed:abacus".parse::<SchedulePolicy>().unwrap_err().contains("cpu-sharded"));
    }

    fn tight_breaker() -> BreakerConfig {
        BreakerConfig { window: 4, min_samples: 2, failure_rate: 0.5, cooldown_dispatches: 4 }
    }

    #[test]
    fn last_resort_prefers_cpu_sharded_then_slot_zero() {
        let s = Scheduler::new(SchedulePolicy::Auto, &pool());
        assert_eq!(pool()[s.last_resort()], BackendKind::CpuSharded);
        let sharded_last = vec![BackendKind::GpuSimHybrid, BackendKind::CpuSharded];
        let s = Scheduler::new(SchedulePolicy::Auto, &sharded_last);
        assert_eq!(s.last_resort(), 1);
        let devices_only = vec![BackendKind::GpuSimHybrid, BackendKind::FpgaSimIndependent];
        let s = Scheduler::new(SchedulePolicy::Auto, &devices_only);
        assert_eq!(s.last_resort(), 0);
    }

    #[test]
    fn fixed_policy_degrades_to_last_resort_while_tripped() {
        let kinds = vec![BackendKind::CpuSharded, BackendKind::GpuSimHybrid];
        let s = Scheduler::with_breaker_config(
            SchedulePolicy::Fixed(BackendKind::GpuSimHybrid),
            &kinds,
            tight_breaker(),
        );
        let gpu = 1usize;
        // Two failures trip the gpu breaker (min_samples=2, rate 1.0).
        for _ in 0..2 {
            let idx = s.dispatch(4);
            assert_eq!(idx, gpu);
            s.release(idx, 4);
            s.record_outcome(idx, false);
        }
        assert_eq!(s.breaker_state(gpu), BreakerState::Open);
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
        assert_eq!(idx, gpu, "half-open probe goes to the pinned backend");
        assert_eq!(s.breaker_state(gpu), BreakerState::HalfOpen);
        s.release(idx, 4);
        s.record_outcome(idx, true);
        assert_eq!(s.breaker_state(gpu), BreakerState::Closed);
        assert_eq!(s.breaker_trips(gpu), 1);
        assert!(s.breaker_transitions(gpu).iter().any(|t| t.starts_with("closed->open@")));
    }

    #[test]
    fn target_is_idle_follows_dispatch_without_booking() {
        let kinds = vec![BackendKind::CpuSharded, BackendKind::GpuSimHybrid];
        let (cpu, gpu) = (0usize, 1usize);
        let s = Scheduler::with_breaker_config(
            SchedulePolicy::Fixed(BackendKind::GpuSimHybrid),
            &kinds,
            tight_breaker(),
        );
        // Asking books nothing: no rows, no dispatch sequence number.
        assert!(s.target_is_idle(4));
        assert_eq!((s.inflight_rows(gpu), s.dispatch_seq.load(Ordering::Relaxed)), (0, 0));
        // Busy while the pinned slot holds rows, whatever the other slot does.
        assert_eq!(s.dispatch(4), gpu);
        assert!(!s.target_is_idle(4));
        s.release(gpu, 4);
        assert!(s.target_is_idle(4));
        // Tripped: the target becomes the backend of last resort.
        s.record_outcome(gpu, false);
        s.record_outcome(gpu, false);
        assert_eq!(s.breaker_state(gpu), BreakerState::Open);
        assert!(s.target_is_idle(4), "cpu-sharded is free");
        assert_eq!(s.dispatch(4), cpu);
        assert!(!s.target_is_idle(4), "cpu-sharded is busy, and the open gpu slot never counts");
        s.release(cpu, 4);
        // Cooldown over (open since seq 1, until seq 5): the next batch is
        // the pinned slot's half-open probe, not an idle flush.
        for _ in 0..3 {
            let idx = s.dispatch(1);
            s.release(idx, 1);
        }
        assert!(!s.target_is_idle(4), "a probe waits for its batch to fill");
        assert_eq!(s.breaker_state(gpu), BreakerState::Open, "asking did not half-open it");
        assert_eq!(s.dispatch(4), gpu);

        // A last resort whose own breaker is open is no idle target either.
        let devices = vec![BackendKind::GpuSimHybrid];
        let s = Scheduler::with_breaker_config(SchedulePolicy::Auto, &devices, tight_breaker());
        s.record_outcome(0, false);
        s.record_outcome(0, false);
        assert!(!s.target_is_idle(1));

        // Round-robin: the slot asked about is the one dispatch takes next.
        let rr = Scheduler::new(SchedulePolicy::RoundRobin, &kinds);
        assert_eq!(rr.dispatch(1), cpu);
        assert!(rr.target_is_idle(1), "slot 1 is next and free");
        assert_eq!(rr.dispatch(1), gpu);
        assert!(!rr.target_is_idle(1), "slot 0 is next and still busy");
    }

    #[test]
    fn round_robin_skips_tripped_backends() {
        let kinds = vec![BackendKind::CpuSharded, BackendKind::GpuSimHybrid];
        let s = Scheduler::with_breaker_config(SchedulePolicy::RoundRobin, &kinds, tight_breaker());
        // Trip the gpu (index 1) breaker.
        s.record_outcome(1, false);
        s.record_outcome(1, false);
        assert_eq!(s.breaker_state(1), BreakerState::Open);
        for _ in 0..3 {
            let idx = s.dispatch(1);
            assert_eq!(idx, 0, "rotation must skip the open backend");
            s.release(idx, 1);
        }
    }
}
