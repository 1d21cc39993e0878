//! # rfx-core
//!
//! The primary contribution of *Accelerating Random Forest Classification
//! on GPU and FPGA* (Shah et al., ICPP 2022): forest **memory layouts**
//! for accelerator-friendly inference.
//!
//! * [`csr`] — the baseline Compressed Sparse Row layout (§2.3): four
//!   potentially-irregular memory reads per traversal step.
//! * [`hier`] — the paper's hierarchical layout (§3.1): trees cut into
//!   complete binary subtrees; arithmetic child indexing inside a subtree,
//!   CSR-like indirection only at subtree boundaries. Tunable subtree
//!   depth (SD) and root-subtree depth (RSD).
//! * [`fil`] — a cuML-FIL-style sparse layout (the paper's GPU baseline):
//!   colocated 12-byte nodes with adjacent children, one read per step.
//! * [`quant`] — quantized & compressed layouts: u8/u16 thresholds on a
//!   per-feature monotone grid plus packed narrow-node encodings of the
//!   FIL and CSR layouts, with an integer-only comparator path (the
//!   FPGA's BRAM-resident design point).
//! * [`pack`] — profile-guided packed FIL layouts (ROADMAP item 2, after
//!   Browne et al.'s *Forest Packing*): hot-first node order from a
//!   calibration frequency profile, shard-interleaved tree roots, and
//!   byte-budgeted tree bin-packing, at f32 and quantized widths.
//! * [`footprint`] — byte accounting for the Fig. 6 memory study.
//! * [`cluster`] — K-means tree clustering (the §3.2.1 ablation's
//!   "Optimization 1").
//! * [`validate`] — deep structural invariant checking.
//!
//! Every layout exposes a scalar `predict`/`predict_tree` traversal that
//! serves as the functional reference for the GPU/FPGA kernels in
//! `rfx-kernels`; all of them are property-tested to agree with the source
//! [`rfx_forest::RandomForest`].

pub mod cluster;
pub mod csr;
pub mod fil;
pub mod footprint;
pub mod hier;
pub mod memprobe;
pub mod pack;
pub mod quant;
pub mod validate;

pub use csr::CsrForest;
pub use fil::FilForest;
pub use hier::{HierConfig, HierForest};
pub use pack::{FrequencyProfile, PackError, PackPlan, PackedFilForest, PackedQFilForest};
pub use quant::{QCsrForest, QFilForest, QuantLevel, ThresholdQuantizer};
/// SplitMix64, the workspace's single stateless 64-bit hash.
///
/// Defined in `rfx_forest::sampling` (this crate depends on
/// `rfx-forest`, so the training substrate cannot import it from here
/// without a cycle) and re-exported at the canonical `rfx_core` path for
/// every downstream crate: fault schedules, the serving layer's
/// deterministic A/B split, and the synthetic data generators.
pub use rfx_forest::sampling::splitmix64;

/// Class label type shared across layouts.
pub type Label = u32;

/// Walks `cursor` down to a leaf: `loop { step }`, the whole of every
/// layout's `predict_tree` once its one-level `step` exists.
#[inline]
pub fn walk<C>(mut cursor: C, mut step: impl FnMut(&mut C) -> Option<Label>) -> Label {
    loop {
        if let Some(label) = step(&mut cursor) {
            return label;
        }
    }
}

/// Errors produced while building or validating layouts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// A layout parameter is out of range.
    BadConfig {
        /// Description of the violated constraint.
        detail: String,
    },
    /// A structural invariant does not hold.
    Corrupt {
        /// Description of what was malformed.
        detail: String,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::BadConfig { detail } => write!(f, "bad layout config: {detail}"),
            LayoutError::Corrupt { detail } => write!(f, "corrupt layout: {detail}"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// Index of the largest vote count, ties toward the lower class id — the
/// same convention as [`rfx_forest::RandomForest::predict`].
#[inline]
pub fn majority(votes: &[u32]) -> Label {
    let mut best = 0usize;
    for (i, &v) in votes.iter().enumerate() {
        if v > votes[best] {
            best = i;
        }
    }
    best as Label
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_tie_breaks_low() {
        assert_eq!(majority(&[3, 3]), 0);
        assert_eq!(majority(&[1, 4, 4]), 1);
        assert_eq!(majority(&[0, 0, 5]), 2);
    }

    #[test]
    fn layout_error_display() {
        let e = LayoutError::BadConfig { detail: "x".into() };
        assert!(e.to_string().contains("bad layout config"));
    }
}
