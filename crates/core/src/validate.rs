//! Deep structural validation of layouts, and equivalence oracles used by
//! tests across the workspace.

use crate::hier::{HierForest, LEAF_FEATURE, NULL_SUBTREE, PAD_FEATURE};
use crate::{LayoutError, TreeEnsemble};

/// Checks every structural invariant of a [`HierForest`]:
///
/// 1. offset arrays are monotone and sized `num_subtrees + 1`;
/// 2. every subtree's slot count is `2^d − 1` for some `d ≥ 1` within the
///    configured caps;
/// 3. connection blocks are either empty or exactly `2 · 2^(d−1)` entries;
/// 4. connection targets are in range, stay within the owning tree's
///    subtree range, and point strictly forward (no cycles);
/// 5. every non-root subtree is referenced exactly once (the subtrees form
///    a forest);
/// 6. bottom-level inner slots have two non-null connections and all other
///    connection entries are null;
/// 7. pad slots are unreachable from the subtree root.
pub fn validate_hier(h: &HierForest) -> Result<(), LayoutError> {
    let corrupt = |detail: String| Err(LayoutError::Corrupt { detail });
    let ns = h.num_subtrees();
    if h.subtree_node_offset().len() != ns + 1 || h.connection_offset().len() != ns + 1 {
        return corrupt("offset arrays have wrong length".into());
    }
    if ns == 0 {
        return corrupt("forest has no subtrees".into());
    }
    let mut referenced = vec![0u32; ns];

    for t in 0..h.num_trees() {
        let range = h.tree_subtrees(t);
        if range.is_empty() {
            return corrupt(format!("tree {t} owns no subtrees"));
        }
        for s in range.clone() {
            let base = h.subtree_base(s) as usize;
            let size = h.subtree_size(s);
            if size == 0 || (size + 1) & size != 0 {
                return corrupt(format!("subtree {s} size {size} is not 2^d - 1"));
            }
            let depth = h.subtree_depth(s);
            let cap = if s == range.start {
                h.config().root_subtree_depth
            } else {
                h.config().subtree_depth
            };
            if depth > cap as u32 {
                return corrupt(format!("subtree {s} depth {depth} exceeds cap {cap}"));
            }

            // Connection block shape.
            let cstart = h.connection_offset()[s as usize] as usize;
            let cend = h.connection_offset()[s as usize + 1] as usize;
            let bottom_slots = (size as usize).div_ceil(2);
            if cend != cstart && cend - cstart != 2 * bottom_slots {
                return corrupt(format!(
                    "subtree {s}: {} connection entries, expected 0 or {}",
                    cend - cstart,
                    2 * bottom_slots
                ));
            }

            // Walk slots, checking reachability and connection discipline.
            let last_level_start = (size >> 1) as usize;
            let mut reachable = vec![false; size as usize];
            reachable[0] = true;
            for n in 0..size as usize {
                let f = h.feature_id()[base + n];
                if f == PAD_FEATURE && reachable[n] {
                    return corrupt(format!("subtree {s}: pad slot {n} is reachable"));
                }
                if f != PAD_FEATURE && !reachable[n] {
                    return corrupt(format!("subtree {s}: real slot {n} is unreachable"));
                }
                let is_inner = f >= 0;
                if is_inner && reachable[n] && n < last_level_start {
                    reachable[2 * n + 1] = true;
                    reachable[2 * n + 2] = true;
                }
                if n >= last_level_start {
                    let p = n - last_level_start;
                    let conn = |side: usize| -> Option<u32> {
                        if cend == cstart {
                            None
                        } else {
                            Some(h.subtree_connection()[cstart + 2 * p + side])
                        }
                    };
                    if is_inner && reachable[n] {
                        for side in 0..2 {
                            match conn(side) {
                                Some(c) if c != NULL_SUBTREE => {
                                    if !range.contains(&c) {
                                        return corrupt(format!(
                                            "subtree {s}: connection {c} escapes tree {t}"
                                        ));
                                    }
                                    if c <= s {
                                        return corrupt(format!(
                                            "subtree {s}: backward connection {c}"
                                        ));
                                    }
                                    referenced[c as usize] += 1;
                                }
                                _ => {
                                    return corrupt(format!(
                                        "subtree {s}: inner bottom slot {n} missing connection"
                                    ))
                                }
                            }
                        }
                    } else {
                        for side in 0..2 {
                            if let Some(c) = conn(side) {
                                if c != NULL_SUBTREE {
                                    return corrupt(format!(
                                        "subtree {s}: non-inner slot {n} has connection {c}"
                                    ));
                                }
                            }
                        }
                    }
                } else if f == LEAF_FEATURE || f == PAD_FEATURE {
                    // Children slots (in range) must be pads.
                    for c in [2 * n + 1, 2 * n + 2] {
                        if c < size as usize && h.feature_id()[base + c] != PAD_FEATURE {
                            return corrupt(format!(
                                "subtree {s}: slot {n} is terminal but child {c} is real"
                            ));
                        }
                    }
                }
            }
        }
        // Exactly-once reference check within this tree.
        for s in range.clone() {
            let expected = u32::from(s != range.start);
            if referenced[s as usize] != expected {
                return corrupt(format!(
                    "subtree {s} referenced {} times, expected {expected}",
                    referenced[s as usize]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hier::builder::{build_forest, build_tree};
    use crate::hier::HierConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfx_forest::{DecisionTree, RandomForest};

    fn random_hier(seed: u64, sd: u8, rsd: u8) -> HierForest {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..4).map(|_| DecisionTree::random(&mut rng, 9, 6, 2, 0.25)).collect();
        let forest = RandomForest::from_trees(trees, 6, 2).unwrap();
        build_forest(&forest, HierConfig::with_root(sd, rsd)).unwrap()
    }

    #[test]
    fn built_layouts_validate() {
        for seed in 0..8 {
            for (sd, rsd) in [(1, 1), (2, 2), (3, 6), (4, 8), (8, 8)] {
                let h = random_hier(seed, sd, rsd);
                validate_hier(&h).unwrap_or_else(|e| panic!("seed {seed} sd {sd} rsd {rsd}: {e}"));
            }
        }
    }

    #[test]
    fn detects_backward_connection() {
        let mut h = random_hier(1, 2, 2);
        // Find any non-null connection and point it backwards at subtree 0.
        if let Some(c) = h.subtree_connection.iter_mut().find(|c| **c != NULL_SUBTREE) {
            *c = 0;
            assert!(validate_hier(&h).is_err());
        } else {
            panic!("fixture has no connections; pick a deeper tree");
        }
    }

    #[test]
    fn detects_null_on_inner_bottom_slot() {
        let mut h = random_hier(2, 2, 2);
        let pos = h
            .subtree_connection
            .iter()
            .position(|&c| c != NULL_SUBTREE)
            .expect("fixture has connections");
        h.subtree_connection[pos] = NULL_SUBTREE;
        assert!(validate_hier(&h).is_err());
    }

    #[test]
    fn detects_corrupt_slot_size() {
        let mut h = random_hier(3, 3, 3);
        // Shift one interior node offset so a subtree's size is no longer 2^d - 1.
        let mid = h.subtree_node_offset.len() / 2;
        h.subtree_node_offset[mid] += 1;
        assert!(validate_hier(&h).is_err());
    }

    #[test]
    fn detects_reachable_pad() {
        // Tree: root inner with two leaves, sd 2 -> 3 slots, no pads.
        // Corrupt a leaf into a pad: now a reachable slot is a pad.
        let tree = DecisionTree::from_nodes(vec![
            rfx_forest::Node::Inner { feature: 0, threshold: 0.5, left: 1, right: 2 },
            rfx_forest::Node::Leaf { label: 0 },
            rfx_forest::Node::Leaf { label: 1 },
        ])
        .unwrap();
        let mut h = build_tree(&tree, 1, 2, HierConfig::uniform(2)).unwrap();
        validate_hier(&h).unwrap();
        h.feature_id[1] = PAD_FEATURE;
        assert!(validate_hier(&h).is_err());
    }
}
