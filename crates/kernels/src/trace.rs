//! Path tracing over the hierarchical layout.
//!
//! The FPGA kernels are analytic: they need to know, for each query-tree
//! pair, how many node visits happen, how many subtree boundaries are
//! crossed, and which subtrees are entered. This module walks the layout
//! once per (query, tree) and reports those quantities together with the
//! predicted label, so the pipeline models charge exactly the work the
//! traversal really does.

use rfx_core::hier::{HierForest, LEAF_FEATURE};
use rfx_core::{goes_right, Label};

/// The footprint of one query's traversal of one tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeTrace {
    /// Predicted label.
    pub label: Label,
    /// Total node visits (path length including the leaf).
    pub node_visits: u32,
    /// Subtree-boundary crossings (connection-array lookups).
    pub crossings: u32,
    /// `(subtree id, levels visited inside it)` in traversal order; the
    /// first entry is the root subtree.
    pub subtree_path: Vec<(u32, u32)>,
}

/// Traces `query` through tree `t` of the hierarchical layout.
pub fn trace_tree(h: &HierForest, t: usize, query: &[f32]) -> TreeTrace {
    let mut s = h.tree_root_subtree(t);
    let mut node_visits = 0u32;
    let mut crossings = 0u32;
    let mut subtree_path = Vec::with_capacity(4);
    loop {
        let base = h.subtree_base(s) as usize;
        let size = h.subtree_size(s);
        let mut n = 0u32;
        let mut levels = 0u32;
        loop {
            let f = h.feature_id()[base + n as usize];
            let v = h.value()[base + n as usize];
            node_visits += 1;
            levels += 1;
            if f == LEAF_FEATURE {
                subtree_path.push((s, levels));
                return TreeTrace { label: v as Label, node_visits, crossings, subtree_path };
            }
            let go_right = goes_right(query[f as usize], v);
            let child = 2 * n + 1 + u32::from(go_right);
            if child < size {
                n = child;
            } else {
                let p = n - (size >> 1);
                let ci = h.connection_base(s) + 2 * p + u32::from(go_right);
                subtree_path.push((s, levels));
                s = h.subtree_connection()[ci as usize];
                crossings += 1;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_core::hier::{builder::build_tree, HierConfig};
    use rfx_forest::DecisionTree;

    #[test]
    fn trace_agrees_with_predict_and_counts_path() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let tree = DecisionTree::random(&mut rng, 10, 6, 2, 0.3);
            let h = build_tree(&tree, 6, 2, HierConfig::with_root(3, 5)).unwrap();
            for _ in 0..100 {
                let q: Vec<f32> = (0..6).map(|_| rng.gen()).collect();
                let tr = trace_tree(&h, 0, &q);
                assert_eq!(tr.label, tree.predict(&q));
                assert_eq!(tr.label, h.predict_tree(0, &q));
                // Node visits = path length = depth of the reached leaf + 1.
                assert!(tr.node_visits >= 1);
                assert!(tr.node_visits <= tree.depth() as u32 + 1);
                // Crossings = subtree transitions.
                assert_eq!(tr.crossings as usize, tr.subtree_path.len() - 1);
                // Levels per subtree sum to total visits.
                let level_sum: u32 = tr.subtree_path.iter().map(|&(_, l)| l).sum();
                assert_eq!(level_sum, tr.node_visits);
                // First subtree is the root subtree.
                assert_eq!(tr.subtree_path[0].0, h.tree_root_subtree(0));
                // Levels within each subtree never exceed its depth.
                for &(s, l) in &tr.subtree_path {
                    assert!(l <= h.subtree_depth(s));
                }
            }
        }
    }

    #[test]
    fn deeper_root_subtree_reduces_crossings() {
        // Regenerate until the random tree is genuinely deep (leaf_prob
        // can truncate it arbitrarily early).
        let mut rng = StdRng::seed_from_u64(9);
        let tree = std::iter::repeat_with(|| DecisionTree::random(&mut rng, 12, 8, 2, 0.2))
            .find(|t| t.depth() >= 10)
            .unwrap();
        let shallow = build_tree(&tree, 8, 2, HierConfig::uniform(2)).unwrap();
        let deep = build_tree(&tree, 8, 2, HierConfig::with_root(2, 10)).unwrap();
        let mut total_shallow = 0u32;
        let mut total_deep = 0u32;
        for _ in 0..200 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen()).collect();
            total_shallow += trace_tree(&shallow, 0, &q).crossings;
            total_deep += trace_tree(&deep, 0, &q).crossings;
        }
        assert!(total_deep < total_shallow, "{total_deep} vs {total_shallow}");
    }

    #[test]
    fn single_leaf_tree_trace() {
        let h = build_tree(&DecisionTree::leaf(1), 3, 2, HierConfig::uniform(4)).unwrap();
        let tr = trace_tree(&h, 0, &[0.0; 3]);
        assert_eq!(tr.label, 1);
        assert_eq!(tr.node_visits, 1);
        assert_eq!(tr.crossings, 0);
        assert_eq!(tr.subtree_path, vec![(0, 1)]);
    }
}
