//! Memory-footprint accounting (drives Fig. 6 of the paper).

use serde::{Deserialize, Serialize};

/// Byte breakdown of a forest layout in device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct LayoutFootprint {
    /// Node attributes: `feature_id` (2 B) + `value` (4 B) per slot — the
    /// paper's 48 bits per node.
    pub attribute_bytes: usize,
    /// Topology arrays: CSR's `children_arr`/`children_arr_idx`, or the
    /// hierarchical `subtree_connection` entries.
    pub topology_bytes: usize,
    /// Per-tree / per-subtree index arrays (offsets).
    pub index_bytes: usize,
}

impl LayoutFootprint {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.attribute_bytes + self.topology_bytes + self.index_bytes
    }

    /// Ratio of this footprint to another (the Fig. 6 y-axis is
    /// hierarchical ÷ CSR).
    pub fn ratio_to(&self, baseline: &LayoutFootprint) -> f64 {
        self.total() as f64 / baseline.total() as f64
    }

    /// Average resident bytes per tree, never zero.
    ///
    /// Shard sizing must use the footprint of the layout **actually being
    /// traversed** — a u8-quantized forest packs ~2.4× more trees into the
    /// same L2 budget than the f32 FIL records, and bin-packing from the
    /// f32 stride would leave that headroom unused. Every layout's
    /// `footprint()` reports its own resident bytes, so this helper is the
    /// one place per-tree cost is derived for `EnginePlan::auto` and the
    /// serve-layer footprint gauges.
    pub fn per_tree(&self, num_trees: usize) -> usize {
        (self.total() / num_trees.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrForest;
    use crate::hier::{builder::build_forest, HierConfig};
    use crate::TreeEnsemble;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfx_forest::{DecisionTree, RandomForest};

    fn forest(depth: usize, seed: u64) -> RandomForest {
        // leaf_prob 0.45 gives ragged, sparse trees with long thin paths —
        // the shape CART training produces on real data, and the shape for
        // which completeness padding is costly.
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..10).map(|_| DecisionTree::random(&mut rng, depth, 12, 2, 0.45)).collect();
        RandomForest::from_trees(trees, 12, 2).unwrap()
    }

    #[test]
    fn totals_add_up() {
        let fp = LayoutFootprint { attribute_bytes: 10, topology_bytes: 20, index_bytes: 5 };
        assert_eq!(fp.total(), 35);
        let base = LayoutFootprint { attribute_bytes: 70, ..Default::default() };
        assert!((fp.ratio_to(&base) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bigger_subtrees_cost_more_memory() {
        // The paper's Fig. 6 observation: footprint grows with SD because
        // completeness padding grows.
        let f = forest(20, 3);
        let csr = CsrForest::build(&f).footprint();
        let ratio =
            |sd: u8| build_forest(&f, HierConfig::uniform(sd)).unwrap().footprint().ratio_to(&csr);
        let (r4, r6, r8) = (ratio(4), ratio(6), ratio(8));
        assert!(r8 > r6 && r6 > r4, "padding cost grows with SD: {r4} {r6} {r8}");
        // At SD=8 a sparse deep tree pads heavily past the CSR footprint.
        assert!(r8 > 1.0, "r8 = {r8}");
    }

    #[test]
    fn per_tree_is_layout_aware_and_never_zero() {
        let fp = LayoutFootprint { attribute_bytes: 100, topology_bytes: 20, index_bytes: 0 };
        assert_eq!(fp.per_tree(10), 12);
        assert_eq!(fp.per_tree(0), 120, "zero trees clamps the divisor");
        let empty = LayoutFootprint::default();
        assert_eq!(empty.per_tree(4), 1, "never zero");
        // A quantized layout reports fewer bytes per tree than its f32
        // counterpart for the same forest — the property shard sizing needs.
        let f = forest(12, 8);
        let fil = crate::fil::FilForest::build(&f).footprint();
        let qfil = crate::quant::QFilForest::<u8>::build(&f).unwrap().footprint();
        assert!(qfil.per_tree(f.num_trees()) < fil.per_tree(f.num_trees()));
    }

    #[test]
    fn attribute_bytes_are_48_bits_per_slot() {
        let f = forest(6, 4);
        let h = build_forest(&f, HierConfig::uniform(4)).unwrap();
        assert_eq!(h.footprint().attribute_bytes, h.total_slots() * 6);
    }
}
