//! Traffic routing across model versions: shadow scoring and A/B splits.
//!
//! The router decides, per request and per batch, which published model
//! version is involved beyond the active one:
//!
//! * **Shadow mode** duplicates a sampled slice of batches to a
//!   *candidate* version **after** the served labels are delivered. The
//!   candidate's output is compared row-for-row against the served
//!   output (argmax agreement) and recorded — it never touches a
//!   response. This is how a freshly trained version earns trust before
//!   activation.
//! * **A/B split** assigns each *request* an arm at admission time via a
//!   deterministic hash of the admission sequence number, and the batcher
//!   partitions every formed batch by arm — so each dispatched batch is
//!   served by exactly one version, preserving the linearizability
//!   contract (a response is never a blend of versions).
//!
//! All sampling decisions are pure functions of
//! `splitmix64(salt ^ sequence)` — replaying the same request order
//! replays the same routing, which keeps chaos runs bit-identical.

use crate::error::ServeError;
use crate::registry::ModelVersion;
use rfx_core::splitmix64;
use rfx_telemetry::{Counter, Telemetry};
use serde::Serialize;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Domain separator so the per-request A/B stream and the per-batch
/// shadow stream never correlate even under the same salt.
const SHADOW_STREAM: u64 = 0x5AD0_15D0_0D5E_ED00;

/// Which traffic arm a request belongs to. Outside an A/B split every
/// request is on [`Arm::A`] (the active version).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    /// Control: served by the active version.
    A,
    /// Treatment: served by the split's `arm_b` version.
    B,
}

impl Arm {
    /// Stable name used in span attributes (`"a"` / `"b"`).
    pub fn name(self) -> &'static str {
        match self {
            Arm::A => "a",
            Arm::B => "b",
        }
    }
}

/// How traffic is routed across model versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode {
    /// All traffic to the active version (the default).
    Single,
    /// All traffic to the active version; additionally, a sampled slice
    /// of batches is re-scored on `candidate` after delivery and the
    /// argmax agreement recorded. Served responses are never affected.
    Shadow {
        /// Version to score in the shadow lane.
        candidate: ModelVersion,
        /// Fraction of batches to shadow, in thousandths (0..=1000).
        sample_permille: u32,
    },
    /// Deterministic request-level split: ~`b_permille`/1000 of requests
    /// are served by `arm_b`, the rest by the active version.
    AbSplit {
        /// Version serving arm B.
        arm_b: ModelVersion,
        /// Arm-B share in thousandths (0..=1000).
        b_permille: u32,
    },
}

impl RouteMode {
    /// The version this mode names beyond the active one, which the
    /// registry must keep while the mode stands.
    pub(crate) fn referenced(self) -> Option<ModelVersion> {
        match self {
            RouteMode::Single => None,
            RouteMode::Shadow { candidate, .. } => Some(candidate),
            RouteMode::AbSplit { arm_b, .. } => Some(arm_b),
        }
    }
}

impl fmt::Display for RouteMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteMode::Single => f.write_str("single"),
            RouteMode::Shadow { candidate, sample_permille } => {
                write!(f, "shadow:{candidate}@{sample_permille}permille")
            }
            RouteMode::AbSplit { arm_b, b_permille } => {
                write!(f, "ab:{arm_b}@{b_permille}permille")
            }
        }
    }
}

/// Aggregate shadow-scoring stats (also available per candidate version
/// in [`crate::VersionStats`]).
#[derive(Debug, Clone, Default, Serialize)]
pub struct ShadowStats {
    /// Batches re-scored in the shadow lane.
    pub batches: u64,
    /// Rows re-scored.
    pub rows: u64,
    /// Rows where the candidate agreed with the served label.
    pub agree_rows: u64,
    /// `agree_rows / rows` (1.0 when nothing was shadowed yet).
    pub agreement: f64,
}

/// Decides arms and shadow samples; owns the mode and the shadow
/// counters.
#[derive(Debug)]
pub(crate) struct Router {
    mode: Mutex<RouteMode>,
    salt: u64,
    shadow_batches: Arc<Counter>,
    shadow_rows: Arc<Counter>,
    shadow_agree_rows: Arc<Counter>,
}

impl Router {
    pub(crate) fn new(salt: u64, telemetry: &Telemetry) -> Self {
        Router {
            mode: Mutex::new(RouteMode::Single),
            salt,
            shadow_batches: telemetry.counter("serve.shadow.batches"),
            shadow_rows: telemetry.counter("serve.shadow.rows"),
            shadow_agree_rows: telemetry.counter("serve.shadow.agree_rows"),
        }
    }

    pub(crate) fn mode(&self) -> RouteMode {
        *self.mode.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn set_mode(&self, mode: RouteMode) {
        *self.mode.lock().unwrap_or_else(PoisonError::into_inner) = mode;
    }

    /// The arm for the request admitted with sequence number
    /// `admission_seq` — a pure hash, so a replayed request order gets a
    /// replayed split.
    pub(crate) fn arm_for(&self, admission_seq: u64) -> Arm {
        match self.mode() {
            RouteMode::AbSplit { b_permille, .. }
                if splitmix64(self.salt ^ admission_seq) % 1000 < b_permille as u64 =>
            {
                Arm::B
            }
            _ => Arm::A,
        }
    }

    /// The candidate version to shadow-score batch `batch_seq` on, if the
    /// mode and the deterministic sample say so.
    pub(crate) fn shadow_for(&self, batch_seq: u64) -> Option<ModelVersion> {
        match self.mode() {
            RouteMode::Shadow { candidate, sample_permille }
                if splitmix64(self.salt ^ SHADOW_STREAM ^ batch_seq) % 1000
                    < sample_permille as u64 =>
            {
                Some(candidate)
            }
            _ => None,
        }
    }

    /// Records one shadow-scored batch into the aggregate counters.
    pub(crate) fn record_shadow(&self, rows: usize, agree_rows: usize) {
        self.shadow_batches.inc();
        self.shadow_rows.add(rows as u64);
        self.shadow_agree_rows.add(agree_rows as u64);
    }

    pub(crate) fn shadow_stats(&self) -> ShadowStats {
        let rows = self.shadow_rows.get();
        let agree_rows = self.shadow_agree_rows.get();
        ShadowStats {
            batches: self.shadow_batches.get(),
            rows,
            agree_rows,
            agreement: if rows > 0 { agree_rows as f64 / rows as f64 } else { 1.0 },
        }
    }

    /// Validates a mode against the set of retained versions (the
    /// registry resolves `exists` under its lock).
    pub(crate) fn validate(
        mode: RouteMode,
        exists: impl Fn(ModelVersion) -> bool,
    ) -> Result<(), ServeError> {
        match mode.referenced() {
            Some(v) if !exists(v) => Err(ServeError::UnknownVersion { version: v.get() }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> Router {
        Router::new(0xAB, &Telemetry::new())
    }

    fn v(n: u64) -> ModelVersion {
        ModelVersion::from_raw(n).unwrap()
    }

    #[test]
    fn single_mode_routes_everything_to_arm_a() {
        let r = router();
        assert!((0..500).all(|seq| r.arm_for(seq) == Arm::A));
        assert!((0..500).all(|seq| r.shadow_for(seq).is_none()));
    }

    #[test]
    fn ab_split_is_deterministic_and_calibrated() {
        let r = router();
        r.set_mode(RouteMode::AbSplit { arm_b: v(2), b_permille: 250 });
        let arms: Vec<Arm> = (0..4000).map(|seq| r.arm_for(seq)).collect();
        let again: Vec<Arm> = (0..4000).map(|seq| r.arm_for(seq)).collect();
        assert_eq!(arms, again, "the split must be a pure function of the sequence");
        let b_count = arms.iter().filter(|&&a| a == Arm::B).count();
        assert!((800..1200).contains(&b_count), "~25% of 4000 expected, got {b_count}");
        // A different salt partitions differently.
        let other = Router::new(0xCD, &Telemetry::new());
        other.set_mode(RouteMode::AbSplit { arm_b: v(2), b_permille: 250 });
        let other_arms: Vec<Arm> = (0..4000).map(|seq| other.arm_for(seq)).collect();
        assert_ne!(arms, other_arms);
    }

    #[test]
    fn shadow_sampling_is_deterministic_and_calibrated() {
        let r = router();
        r.set_mode(RouteMode::Shadow { candidate: v(3), sample_permille: 500 });
        let picks: Vec<Option<ModelVersion>> = (0..2000).map(|seq| r.shadow_for(seq)).collect();
        assert_eq!(picks, (0..2000).map(|seq| r.shadow_for(seq)).collect::<Vec<_>>());
        let sampled = picks.iter().filter(|p| p.is_some()).count();
        assert!((850..1150).contains(&sampled), "~50% of 2000 expected, got {sampled}");
        assert!(picks.iter().flatten().all(|&c| c == v(3)));
        // Shadow mode never reassigns arms.
        assert!((0..200).all(|seq| r.arm_for(seq) == Arm::A));
    }

    #[test]
    fn full_permille_shadows_every_batch() {
        let r = router();
        r.set_mode(RouteMode::Shadow { candidate: v(2), sample_permille: 1000 });
        assert!((0..100).all(|seq| r.shadow_for(seq) == Some(v(2))));
        r.set_mode(RouteMode::Shadow { candidate: v(2), sample_permille: 0 });
        assert!((0..100).all(|seq| r.shadow_for(seq).is_none()));
    }

    #[test]
    fn shadow_stats_aggregate() {
        let r = router();
        r.record_shadow(8, 8);
        r.record_shadow(8, 6);
        let s = r.shadow_stats();
        assert_eq!((s.batches, s.rows, s.agree_rows), (2, 16, 14));
        assert!((s.agreement - 14.0 / 16.0).abs() < 1e-12);
        // Empty shadow lane reports full agreement, not NaN.
        assert_eq!(router().shadow_stats().agreement, 1.0);
    }

    #[test]
    fn validate_rejects_unpublished_versions() {
        let exists = |ver: ModelVersion| ver.get() <= 2;
        assert!(Router::validate(RouteMode::Single, exists).is_ok());
        assert!(Router::validate(
            RouteMode::Shadow { candidate: v(2), sample_permille: 100 },
            exists
        )
        .is_ok());
        assert!(matches!(
            Router::validate(RouteMode::Shadow { candidate: v(5), sample_permille: 100 }, exists),
            Err(ServeError::UnknownVersion { version: 5 })
        ));
        assert!(matches!(
            Router::validate(RouteMode::AbSplit { arm_b: v(9), b_permille: 500 }, exists),
            Err(ServeError::UnknownVersion { version: 9 })
        ));
    }
}
