//! FPGA kernels (§3.2.2) on the HLS pipeline simulator.
//!
//! Queries are processed sequentially per compute unit with parallelism
//! from pipelining (and from CU replication). Each kernel walks the real
//! layout to produce predictions while charging the pipeline model the
//! exact loop iterations the traversal performs; the initiation intervals
//! come from the dependency chains in [`rfx_fpga_sim::ops::chains`], which
//! reproduce the paper's measured IIs (CSR 292, independent 76,
//! collaborative 3, hybrid 3/76).

pub mod collaborative;
pub mod csr;
pub mod hybrid;
pub mod independent;

use rfx_core::hier::HierForest;
use rfx_core::{Label, TreeEnsemble};
use rfx_fpga_sim::FpgaStats;
use std::ops::Range;

/// Result of one simulated FPGA inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaRun {
    /// Majority-vote prediction per query.
    pub predictions: Vec<Label>,
    /// Device-level statistics (one Table-3 row).
    pub stats: FpgaStats,
    /// Inner-loop II description as printed in Table 3 (e.g. `"76"`,
    /// `"3/76"`).
    pub ii_label: String,
}

/// Splits `n` queries into `parts` near-equal contiguous ranges (the host
/// dispatches one range per CU).
pub(crate) fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts >= 1);
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < rem);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Walks `query` through tree `t` one [`HierForest::step`] at a time,
/// calling `level(s)` for every level visited (`s` the subtree it stands
/// in): returns the label and the subtree boundaries crossed — the
/// traversal work the pipeline models charge.
pub(crate) fn walk_levels(
    hier: &HierForest,
    t: usize,
    query: &[f32],
    mut level: impl FnMut(u32),
) -> (Label, u64) {
    let mut crossings = 0;
    let label = rfx_core::walk(hier.root(t), |cursor| {
        let s = cursor.subtree();
        level(s);
        let out = hier.step(cursor, query);
        crossings += u64::from(cursor.subtree() != s);
        out
    });
    (label, crossings)
}

/// Majority vote over per-tree labels.
pub(crate) fn vote(labels_per_tree: impl Iterator<Item = Label>, num_classes: u32) -> Label {
    let mut votes = vec![0u32; num_classes as usize];
    for l in labels_per_tree {
        votes[l as usize] += 1;
    }
    rfx_core::majority(&votes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_core::hier::{builder::build_tree, HierConfig};
    use rfx_forest::DecisionTree;

    #[test]
    fn ranges_partition_evenly() {
        let r = split_ranges(10, 3);
        assert_eq!(r, vec![0..4, 4..7, 7..10]);
        let r = split_ranges(48_000, 48);
        assert!(r.iter().all(|r| r.len() == 1000));
        let r = split_ranges(5, 8);
        assert_eq!(r.iter().map(|r| r.len()).sum::<usize>(), 5);
        assert!(r.iter().all(|r| r.len() <= 1));
    }

    /// Levels per subtree sum to the path length, the first subtree is
    /// the root subtree, every subtree entered after it is one crossing,
    /// and no subtree is walked deeper than it is.
    #[test]
    fn walk_levels_agrees_with_predict_and_counts_path() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let tree = DecisionTree::random(&mut rng, 10, 6, 2, 0.3);
            let h = build_tree(&tree, 6, 2, HierConfig::with_root(3, 5)).unwrap();
            for _ in 0..100 {
                let q: Vec<f32> = (0..6).map(|_| rng.gen()).collect();
                let mut path: Vec<(u32, u32)> = Vec::new();
                let (label, crossings) = walk_levels(&h, 0, &q, |s| match path.last_mut() {
                    Some((at, levels)) if *at == s => *levels += 1,
                    _ => path.push((s, 1)),
                });
                assert_eq!(label, tree.predict(&q));
                let visits: u32 = path.iter().map(|&(_, levels)| levels).sum();
                assert!(visits >= 1 && visits <= tree.depth() as u32 + 1);
                assert_eq!(crossings as usize, path.len() - 1);
                assert_eq!(path[0].0, h.tree_root_subtree(0));
                assert!(path.iter().all(|&(s, levels)| levels <= h.subtree_depth(s)));
            }
        }
    }

    #[test]
    fn single_leaf_tree_walk() {
        let h = build_tree(&DecisionTree::leaf(1), 3, 2, HierConfig::uniform(4)).unwrap();
        let mut levels = Vec::new();
        assert_eq!(walk_levels(&h, 0, &[0.0; 3], |s| levels.push(s)), (1, 0));
        assert_eq!(levels, vec![0]);
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
        let (mut total_shallow, mut total_deep) = (0, 0);
        for _ in 0..200 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen()).collect();
            total_shallow += walk_levels(&shallow, 0, &q, |_| {}).1;
            total_deep += walk_levels(&deep, 0, &q, |_| {}).1;
        }
        assert!(total_deep < total_shallow, "{total_deep} vs {total_shallow}");
    }

    #[test]
    fn vote_majority() {
        assert_eq!(vote([0, 1, 1].into_iter(), 2), 1);
        assert_eq!(vote([2, 2, 0, 1].into_iter(), 3), 2);
        assert_eq!(vote([1, 0].into_iter(), 2), 0, "tie breaks low");
    }
}
