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
//! * [`fil`] — the cuML-FIL-style family (the paper's GPU baseline), one
//!   store over *node format* × *placement*: colocated nodes with
//!   adjacent children, one read per step. The f32 format (12-byte
//!   records) and the per-tree BFS placement live there.
//! * [`quant`] — the quantized node format: u8/u16 thresholds on a
//!   per-feature monotone grid plus a packed meta word, with an
//!   integer-only comparator path (the FPGA's BRAM-resident design point).
//! * [`pack`] — the profile-packed placement (after Browne et al.'s
//!   *Forest Packing* and the paper's hybrid layout): a leaf-propagated
//!   complete top over every tree's first levels, hot-first node order
//!   below it from a calibration frequency profile, and byte-budgeted
//!   tree bin-packing, for either node format.
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
pub use quant::{QFilForest, QuantLevel, ThresholdQuantizer};
/// SplitMix64, the workspace's single stateless 64-bit hash.
///
/// Defined in `rfx_forest::sampling` (this crate depends on
/// `rfx-forest`, so the training substrate cannot import it from here
/// without a cycle) and re-exported at the canonical `rfx_core` path for
/// every downstream crate: fault schedules, the serving layer's
/// deterministic A/B split, and the synthetic data generators.
pub use rfx_forest::sampling::splitmix64;
use rfx_forest::RandomForest;

/// Class label type shared across layouts.
pub type Label = u32;

/// The one branch predicate of every layout and every backend: a query
/// value goes right unless it compares below the threshold, so a NaN goes
/// right at every node, as in `rfx_forest`'s reference traversal.
#[inline]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `x >= thr` sends NaN left
pub fn goes_right(x: f32, thr: f32) -> bool {
    !(x < thr)
}

/// The signed 16-bit feature field of the f32 layouts keeps negative ids
/// for its leaf / pad sentinels, so it holds features `0..1 << 15` only.
pub(crate) fn check_feature_field(layout: &str, forest: &RandomForest) -> Result<(), LayoutError> {
    const MAX_FEATURES: usize = 1 << 15;
    if forest.num_features() > MAX_FEATURES {
        return Err(LayoutError::BadConfig {
            detail: format!(
                "{layout} feature field is 15 bits; forest has {} features (max {MAX_FEATURES})",
                forest.num_features()
            ),
        });
    }
    Ok(())
}

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

    /// A split on feature 39 999 does not fit a signed 16-bit feature
    /// field: cast down it reads back as a leaf sentinel and the walk
    /// returns the threshold as a label. Every builder of an f32 layout
    /// refuses the forest instead.
    #[test]
    fn a_feature_past_the_16_bit_field_is_refused() {
        use rfx_forest::{DecisionTree, Node};
        let tree = DecisionTree::from_nodes(vec![
            Node::Inner { feature: 39_999, threshold: 0.5, left: 1, right: 2 },
            Node::Leaf { label: 0 },
            Node::Leaf { label: 1 },
        ])
        .unwrap();
        let forest = RandomForest::from_trees(vec![tree], 40_000, 2).unwrap();
        let refused = |e: LayoutError| assert!(e.to_string().contains("15 bits"), "{e}");
        refused(hier::builder::build_forest(&forest, HierConfig::uniform(3)).unwrap_err());
        let profile = FrequencyProfile::uniform(&forest);
        refused(PackedFilForest::build(&forest, &profile, PackPlan::default()).unwrap_err());
        // The two builders the ledger pins to `-> Self` panic with it.
        let panics = |build: fn(&RandomForest)| {
            let caught = std::panic::catch_unwind(|| build(&forest)).unwrap_err();
            assert!(caught.downcast_ref::<String>().unwrap().contains("15 bits"));
        };
        panics(|forest| drop(FilForest::build(forest)));
        panics(|forest| drop(CsrForest::build(forest)));
    }

    #[test]
    fn layout_error_display() {
        let e = LayoutError::BadConfig { detail: "x".into() };
        assert!(e.to_string().contains("bad layout config"));
    }
}
