//! Error types for the serving layer.

use std::fmt;

/// Why a submission or wait failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue is full — shed load and retry later.
    Overloaded {
        /// Rows currently admitted (queued, not yet batched).
        queued_rows: usize,
        /// The queue's row capacity.
        capacity: usize,
    },
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// The submitted feature slice does not match the model width.
    BadRequest {
        /// Human-readable reason.
        reason: String,
    },
    /// The service dropped the request without fulfilling it (worker
    /// panic or teardown race) — never expected in normal operation.
    Dropped,
    /// Deadline-aware load shedding: the request's batch was already
    /// past the configured deadline (including virtual fault penalties),
    /// so the service completed it without running a backend rather than
    /// burn capacity on an answer nobody is waiting for.
    Shed {
        /// The request's effective age (wall + virtual) when shed, ms.
        age_ms: u64,
        /// The configured end-to-end deadline, ms.
        deadline_ms: u64,
    },
    /// Every resilience avenue was exhausted: retries on the chosen
    /// backend, then the backend of last resort, all failed.
    BackendFailed {
        /// Total attempts made across backends.
        attempts: u32,
        /// Last failure, human-readable.
        reason: String,
    },
    /// The referenced model version is not in this service's registry:
    /// it was never published, or it was retired long enough ago to have
    /// been evicted (the registry keeps the active version, the one the
    /// route names, and the two most recent others).
    UnknownVersion {
        /// The raw version number that failed to resolve.
        version: u64,
    },
    /// A published model's shape does not match what the service is
    /// serving (feature width / class count) — queued requests could not
    /// be executed against it.
    IncompatibleModel {
        /// Human-readable shape mismatch.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queued_rows, capacity } => {
                write!(f, "queue overloaded ({queued_rows}/{capacity} rows)")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::Dropped => write!(f, "request dropped before completion"),
            ServeError::Shed { age_ms, deadline_ms } => {
                write!(f, "shed: request {age_ms}ms old exceeded {deadline_ms}ms deadline")
            }
            ServeError::BackendFailed { attempts, reason } => {
                write!(f, "backend failed after {attempts} attempts: {reason}")
            }
            ServeError::UnknownVersion { version } => {
                write!(f, "model version v{version} is not in the registry")
            }
            ServeError::IncompatibleModel { reason } => {
                write!(f, "incompatible model: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}
