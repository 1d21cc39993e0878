//! Deterministic fault injection at the [`Backend`] boundary.
//!
//! A [`FaultPlan`] is a seeded, schedule-driven description of what goes
//! wrong: each rule targets a backend (or all of them) and fires as a
//! pure function of the backend's **attempt sequence number** — the
//! count of `predict` calls the backend's pool *slot* has served — never
//! of wall-clock time. A per-slot [`FaultState`] consults the plan on
//! every call, so the same seed replays the exact same fault sequence
//! run after run; because the counter belongs to the slot rather than to
//! any one backend object, the sequence keeps advancing across model
//! hot-swaps and chaos replays stay bit-identical with a swap mid-run.
//! Injected *delays* are **virtual**: the injector reports them in
//! [`Exec::virtual_us`] instead of sleeping, and the resilience layer
//! folds them into its timeout and deadline arithmetic. That keeps chaos tests deterministic and fast —
//! a "two-minute device hang" costs zero test seconds.
//!
//! The four fault kinds map to the failure modes a production forest
//! server sees:
//!
//! * [`FaultKind::Delay`] — a slow batch (queueing, thermal throttling):
//!   the real result plus `us` of virtual latency. Sub-timeout delays
//!   succeed late; super-timeout delays become retryable timeouts.
//! * [`FaultKind::Fail`] — a hard refusal (launch failure, OOM): no
//!   result, immediate retryable error.
//! * [`FaultKind::Corrupt`] — the batch "completes" but the labels are
//!   garbage (bit flips, stale DMA). The decorator writes out-of-range
//!   sentinel labels, which the service's label validation detects —
//!   exercising the corrupt-then-detect recovery path end to end.
//! * [`FaultKind::Wedge`] — the batch never completes. Modeled as an
//!   error carrying an effectively-infinite virtual delay, so the
//!   timeout policy fires without any thread ever blocking.

use crate::backend::{Backend, BackendError, BackendKind, Exec};
use rfx_core::{splitmix64, Label};
use rfx_forest::dataset::QueryView;
use rfx_telemetry::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a firing fault does to the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The batch succeeds but reports `us` extra microseconds of
    /// *virtual* latency (no thread sleeps).
    Delay {
        /// Injected virtual latency in microseconds.
        us: u64,
    },
    /// The batch fails outright with a retryable device error.
    Fail,
    /// The batch returns out-of-range sentinel labels; the service's
    /// output validation detects them and retries.
    Corrupt,
    /// The batch never completes: reported as a wedged error the
    /// timeout policy converts into a (virtual) timeout.
    Wedge,
}

impl FaultKind {
    /// Stable name used in metrics and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Delay { .. } => "delay",
            FaultKind::Fail => "fail",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Wedge => "wedge",
        }
    }
}

/// When a rule fires, as a pure function of the backend's attempt
/// sequence number (0-based count of `predict` calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Fires on every attempt with `seq % n == offset % n`.
    Every {
        /// Period in attempts (must be > 0).
        n: u64,
        /// Phase within the period.
        offset: u64,
    },
    /// Fires exactly once, at attempt `at`.
    Once {
        /// The attempt number to fire on.
        at: u64,
    },
    /// Fires on every attempt in `[from, from + len)` — consecutive
    /// failures, the shape that trips circuit breakers.
    Burst {
        /// First firing attempt.
        from: u64,
        /// Number of consecutive firing attempts.
        len: u64,
    },
    /// Fires pseudo-randomly with probability `permille/1000`, derived
    /// deterministically from the plan seed, the backend, and the
    /// attempt number — the same seed always fires on the same attempts.
    Probability {
        /// Firing probability in thousandths (0..=1000).
        permille: u32,
    },
}

impl FaultSchedule {
    fn fires(self, seq: u64, seed: u64, backend: BackendKind) -> bool {
        match self {
            FaultSchedule::Every { n, offset } => n > 0 && seq % n == offset % n,
            FaultSchedule::Once { at } => seq == at,
            FaultSchedule::Burst { from, len } => seq >= from && seq - from < len,
            FaultSchedule::Probability { permille } => {
                let backend_tag = backend
                    .name()
                    .bytes()
                    .fold(0u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3));
                splitmix64(seed ^ backend_tag ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1000
                    < permille as u64
            }
        }
    }
}

/// One injection rule: which backend, when, and what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Target backend; `None` applies to every backend in the pool.
    pub backend: Option<BackendKind>,
    /// When the rule fires.
    pub schedule: FaultSchedule,
    /// What happens when it fires.
    pub kind: FaultKind,
}

/// A seeded, schedule-driven fault scenario, injectable via
/// [`crate::ServeConfig::fault_plan`]. The first matching rule wins on
/// each attempt, so order rules most-specific first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Shorthand for [`FaultPlan::with_rule`] targeting one backend.
    pub fn on(self, backend: BackendKind, schedule: FaultSchedule, kind: FaultKind) -> Self {
        self.with_rule(FaultRule { backend: Some(backend), schedule, kind })
    }

    /// Shorthand for a rule applying to every backend.
    pub fn on_all(self, schedule: FaultSchedule, kind: FaultKind) -> Self {
        self.with_rule(FaultRule { backend: None, schedule, kind })
    }

    /// The plan's seed (drives [`FaultSchedule::Probability`] rules and
    /// is echoed into reports).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether any rule can ever target `backend`.
    pub fn targets(&self, backend: BackendKind) -> bool {
        self.rules.iter().any(|r| r.backend.is_none_or(|b| b == backend))
    }

    /// The fault (if any) for `backend`'s attempt number `seq` — a pure
    /// function: same plan, same arguments, same answer.
    pub fn fault_for(&self, backend: BackendKind, seq: u64) -> Option<FaultKind> {
        self.rules
            .iter()
            .find(|r| {
                r.backend.is_none_or(|b| b == backend) && r.schedule.fires(seq, self.seed, backend)
            })
            .map(|r| r.kind)
    }
}

/// Sentinel label written by [`FaultKind::Corrupt`]: far above any real
/// class index, so the service's label validation always detects it.
pub(crate) const CORRUPT_LABEL: Label = Label::MAX;

/// Per-pool-slot injection state. One per backend *slot*, not per model
/// version and not wrapped around any particular backend object: the
/// attempt sequence counter belongs to the slot, so it keeps advancing
/// across hot-swaps and a seeded chaos scenario replays identically
/// whether or not a version swap happens mid-run. (Retries advance the
/// counter too, so a burst rule can hit consecutive retries of one
/// batch.) Startup probes and the shadow-scoring lane call backends
/// directly and never pass through here.
pub(crate) struct FaultState {
    plan: FaultPlan,
    kind: BackendKind,
    seq: AtomicU64,
    injected: AtomicU64,
    injected_counter: Arc<Counter>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, kind: BackendKind, injected_counter: Arc<Counter>) -> Self {
        FaultState {
            plan,
            kind,
            seq: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            injected_counter,
        }
    }

    /// Faults injected through this slot so far.
    pub(crate) fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Runs one attempt of `backend` through the plan, consuming one
    /// slot-attempt sequence number.
    pub(crate) fn execute(
        &self,
        backend: &dyn Backend,
        queries: QueryView,
        out: &mut [Label],
    ) -> Result<Exec, BackendError> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let Some(fault) = self.plan.fault_for(self.kind, seq) else {
            return backend.predict(queries, out);
        };
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.injected_counter.inc();
        match fault {
            FaultKind::Delay { us } => {
                let exec = backend.predict(queries, out)?;
                Ok(Exec { virtual_us: exec.virtual_us + us })
            }
            FaultKind::Fail => Err(BackendError::Refused(format!("injected fault at seq {seq}"))),
            FaultKind::Corrupt => {
                // Compute the real batch, then trash it — the corruption
                // must be *detectable*, not silently plausible.
                backend.predict(queries, out)?;
                out.fill(CORRUPT_LABEL);
                Ok(Exec::default())
            }
            FaultKind::Wedge => Err(BackendError::Wedged),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_fire_deterministically() {
        let plan = FaultPlan::new(7)
            .on(
                BackendKind::GpuSimHybrid,
                FaultSchedule::Every { n: 3, offset: 1 },
                FaultKind::Fail,
            )
            .on(BackendKind::GpuSimHybrid, FaultSchedule::Once { at: 0 }, FaultKind::Wedge)
            .on_all(FaultSchedule::Burst { from: 11, len: 2 }, FaultKind::Corrupt);
        let f = |seq| plan.fault_for(BackendKind::GpuSimHybrid, seq);
        assert_eq!(f(0), Some(FaultKind::Wedge));
        assert_eq!(f(1), Some(FaultKind::Fail));
        assert_eq!(f(2), None);
        assert_eq!(f(4), Some(FaultKind::Fail));
        // Seq 10 ≡ 1 mod 3: the earlier Every rule outranks the burst.
        assert_eq!(f(10), Some(FaultKind::Fail));
        assert_eq!(f(11), Some(FaultKind::Corrupt));
        assert_eq!(f(12), Some(FaultKind::Corrupt));
        assert_eq!(f(14), None);
        // Burst applies to all backends; the Every rule does not.
        assert_eq!(plan.fault_for(BackendKind::CpuSharded, 4), None);
        assert_eq!(plan.fault_for(BackendKind::CpuSharded, 11), Some(FaultKind::Corrupt));
        // Same plan, same answers, every time.
        for seq in 0..64 {
            assert_eq!(f(seq), f(seq));
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new(0)
            .on_all(FaultSchedule::Once { at: 5 }, FaultKind::Fail)
            .on_all(FaultSchedule::Every { n: 5, offset: 0 }, FaultKind::Wedge);
        assert_eq!(plan.fault_for(BackendKind::CpuSharded, 5), Some(FaultKind::Fail));
        assert_eq!(plan.fault_for(BackendKind::CpuSharded, 10), Some(FaultKind::Wedge));
    }

    #[test]
    fn probability_is_seed_stable_and_roughly_calibrated() {
        let schedule = FaultSchedule::Probability { permille: 250 };
        let fires: Vec<bool> =
            (0..4000).map(|s| schedule.fires(s, 42, BackendKind::CpuSharded)).collect();
        let again: Vec<bool> =
            (0..4000).map(|s| schedule.fires(s, 42, BackendKind::CpuSharded)).collect();
        assert_eq!(fires, again, "same seed must fire on the same attempts");
        let hits = fires.iter().filter(|&&b| b).count();
        assert!((700..1300).contains(&hits), "~25% of 4000 expected, got {hits}");
        // A different seed (or backend) fires on a different subset.
        let other: Vec<bool> =
            (0..4000).map(|s| schedule.fires(s, 43, BackendKind::CpuSharded)).collect();
        assert_ne!(fires, other);
    }

    #[test]
    fn targets_reflects_rule_scope() {
        let plan = FaultPlan::new(1).on(
            BackendKind::FpgaSimIndependent,
            FaultSchedule::Once { at: 0 },
            FaultKind::Fail,
        );
        assert!(plan.targets(BackendKind::FpgaSimIndependent));
        assert!(!plan.targets(BackendKind::CpuSharded));
        assert!(FaultPlan::new(2)
            .on_all(FaultSchedule::Every { n: 1, offset: 0 }, FaultKind::Fail)
            .targets(BackendKind::CpuSharded));
    }
}
