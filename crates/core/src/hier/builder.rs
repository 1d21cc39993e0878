//! Construction of the hierarchical layout from trained forests.

use super::{HierConfig, HierForest, LEAF_FEATURE, NULL_SUBTREE, PAD_FEATURE};
use crate::LayoutError;
use rfx_forest::{DecisionTree, Node, RandomForest};
use std::collections::VecDeque;

/// Builds the hierarchical layout for a whole forest.
///
/// Subtrees are assigned global ids in per-tree breadth-first order, so a
/// tree's root subtree is the first of its contiguous id range and the
/// connection arrays always point "forward" (the layout is cycle-free by
/// construction).
pub fn build_forest(forest: &RandomForest, config: HierConfig) -> Result<HierForest, LayoutError> {
    config.validate()?;
    check_forest(forest)?;
    let mut out = HierForest {
        subtree_node_offset: vec![0],
        connection_offset: vec![0],
        feature_id: Vec::new(),
        value: Vec::new(),
        subtree_connection: Vec::new(),
        tree_subtree_offset: Vec::new(),
        num_classes: forest.num_classes(),
        num_features: forest.num_features(),
        config,
    };
    let mut scratch = Scratch::default();
    for tree in forest.trees() {
        append_tree(tree, config, &mut out, &mut scratch)?;
    }
    out.tree_subtree_offset.push(out.num_subtrees() as u32);
    Ok(out)
}

/// Everything [`build_forest`] can refuse about the *forest* (the rest is
/// [`HierConfig::validate`]): a caller that defers the build checks this
/// up front and knows the later build cannot fail on a valid config.
pub fn check_forest(forest: &RandomForest) -> Result<(), LayoutError> {
    crate::check_feature_field("hier", forest)
}

/// Builds the layout for a single tree (useful in tests and tools);
/// wraps it as a one-tree forest.
pub fn build_tree(
    tree: &DecisionTree,
    num_features: usize,
    num_classes: u32,
    config: HierConfig,
) -> Result<HierForest, LayoutError> {
    let forest = RandomForest::from_trees(vec![tree.clone()], num_features, num_classes)
        .map_err(|e| LayoutError::Corrupt { detail: e.to_string() })?;
    build_forest(&forest, config)
}

/// Buffers [`append_tree`] reuses from subtree to subtree and tree to
/// tree: the original-tree roots of pending subtrees, and one subtree's
/// breadth-first slot grid (level `l` at `2^l − 1`, `None` for a pad).
#[derive(Default)]
struct Scratch {
    queue: VecDeque<u32>,
    grid: Vec<Option<Node>>,
}

fn append_tree(
    tree: &DecisionTree,
    config: HierConfig,
    out: &mut HierForest,
    scratch: &mut Scratch,
) -> Result<(), LayoutError> {
    let nodes = tree.nodes();
    let first_id = out.num_subtrees() as u32;
    out.tree_subtree_offset.push(first_id);

    // FIFO queue of original-tree roots of pending subtrees. Ids are
    // assigned at enqueue time; FIFO processing emits them in id order.
    let Scratch { queue, grid } = scratch;
    queue.push_back(0);
    let mut next_id = first_id + 1; // id of the next subtree to be enqueued
    let mut emitted = first_id;

    while let Some(root) = queue.pop_front() {
        let cap = if emitted == first_id {
            config.root_subtree_depth as usize
        } else {
            config.subtree_depth as usize
        };
        emitted += 1;

        // Breadth-first slot grid, level by level, stopping at the cap or
        // when a level holds no real node.
        grid.clear();
        grid.push(Some(nodes[root as usize]));
        let mut bottom = 0..1;
        for _ in 1..cap {
            let start = grid.len();
            let mut any = false;
            for i in bottom.clone() {
                match grid[i] {
                    Some(Node::Inner { left, right, .. }) => {
                        grid.extend([Some(nodes[left as usize]), Some(nodes[right as usize])]);
                        any = true;
                    }
                    _ => grid.extend([None, None]),
                }
            }
            if !any {
                grid.truncate(start);
                break;
            }
            bottom = start..grid.len();
        }

        // Emit slots in BFS order.
        out.feature_id.extend(grid.iter().map(|slot| match slot {
            Some(Node::Inner { feature, .. }) => *feature as i16,
            Some(Node::Leaf { .. }) => LEAF_FEATURE,
            None => PAD_FEATURE,
        }));
        out.value.extend(grid.iter().map(|slot| match slot {
            Some(Node::Inner { threshold, .. }) => *threshold,
            Some(Node::Leaf { label }) => *label as f32,
            None => 0.0,
        }));
        out.subtree_node_offset.push(out.feature_id.len() as u32);

        // Connections: bottom-level inner nodes hand off to new subtrees.
        let bottom = &grid[bottom];
        if bottom.iter().any(|slot| matches!(slot, Some(Node::Inner { .. }))) {
            for slot in bottom {
                match slot {
                    Some(Node::Inner { left, right, .. }) => {
                        out.subtree_connection.extend([next_id, next_id + 1]);
                        next_id += 2;
                        queue.extend([*left, *right]);
                    }
                    _ => out.subtree_connection.extend([NULL_SUBTREE, NULL_SUBTREE]),
                }
            }
        }
        out.connection_offset.push(out.subtree_connection.len() as u32);
    }
    debug_assert_eq!(next_id, emitted, "every enqueued subtree was emitted");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Fig. 2a example tree.
    fn paper_tree() -> DecisionTree {
        DecisionTree::from_nodes(vec![
            Node::Inner { feature: 1, threshold: 2.5, left: 1, right: 2 },
            Node::Leaf { label: 0 },
            Node::Inner { feature: 4, threshold: 0.5, left: 3, right: 4 },
            Node::Inner { feature: 8, threshold: 5.4, left: 7, right: 8 },
            Node::Inner { feature: 20, threshold: 8.8, left: 5, right: 6 },
            Node::Leaf { label: 1 },
            Node::Leaf { label: 0 },
            Node::Leaf { label: 0 },
            Node::Leaf { label: 1 },
        ])
        .unwrap()
    }

    #[test]
    fn paper_example_sd3_structure() {
        let h = build_tree(&paper_tree(), 21, 2, HierConfig::uniform(3)).unwrap();
        // Subtree 0: levels {0}, {1,2}, {pad,pad,3,4} = 7 slots with 2 pads
        // (the dotted nodes of Fig. 3a).
        assert_eq!(h.subtree_size(0), 7);
        assert_eq!(h.subtree_depth(0), 3);
        assert_eq!(&h.feature_id()[..7], &[1, -1, 4, PAD_FEATURE, PAD_FEATURE, 8, 20]);
        // Bottom-level inner nodes (old 3 and 4) spawn one subtree per
        // child: four single-leaf subtrees.
        assert_eq!(h.num_subtrees(), 5);
        for s in 1..5 {
            assert_eq!(h.subtree_size(s), 1);
            assert_eq!(h.subtree_depth(s), 1);
        }
        // Connection rows of subtree 0: two pads without children, then
        // old3 -> subtrees 1,2 and old4 -> subtrees 3,4.
        assert_eq!(
            h.subtree_connection(),
            &[NULL_SUBTREE, NULL_SUBTREE, NULL_SUBTREE, NULL_SUBTREE, 1, 2, 3, 4]
        );
        // Leaf subtrees carry the original leaf labels (old 7, 8, 5, 6).
        assert_eq!(&h.value()[7..], &[0.0, 1.0, 1.0, 0.0]);
        assert!(!h.has_connections(1));
    }

    #[test]
    fn paper_example_predicts_identically() {
        let tree = paper_tree();
        for sd in 1..=6u8 {
            let h = build_tree(&tree, 21, 2, HierConfig::uniform(sd)).unwrap();
            let mut rng = StdRng::seed_from_u64(sd as u64);
            for _ in 0..400 {
                let q: Vec<f32> = (0..21).map(|_| rng.gen::<f32>() * 10.0).collect();
                assert_eq!(h.predict_tree(0, &q), tree.predict(&q), "sd={sd}");
            }
        }
    }

    #[test]
    fn deep_enough_cap_gives_single_subtree() {
        let tree = paper_tree(); // depth 3 => 4 levels needed? depth()==3 edges, 4 levels
        let h = build_tree(&tree, 21, 2, HierConfig::uniform(4)).unwrap();
        assert_eq!(h.num_subtrees(), 1);
        assert_eq!(h.subtree_size(0), 15);
        assert!(h.subtree_connection().is_empty());
    }

    #[test]
    fn shallow_levels_are_trimmed() {
        // A single-leaf tree under a deep cap must not allocate 2^sd slots.
        let h = build_tree(&DecisionTree::leaf(1), 4, 2, HierConfig::uniform(8)).unwrap();
        assert_eq!(h.num_subtrees(), 1);
        assert_eq!(h.subtree_size(0), 1);
        assert_eq!(h.predict_tree(0, &[0.0; 4]), 1);
    }

    #[test]
    fn root_subtree_depth_is_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        let tree = DecisionTree::random(&mut rng, 12, 6, 2, 0.15);
        let h = build_tree(&tree, 6, 2, HierConfig::with_root(3, 6)).unwrap();
        assert_eq!(h.subtree_depth(h.tree_root_subtree(0)), 6);
        // Non-root subtrees never exceed sd levels.
        for s in 1..h.num_subtrees() as u32 {
            assert!(h.subtree_depth(s) <= 3, "subtree {s} too deep");
        }
    }

    #[test]
    fn random_trees_predict_identically_across_configs() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let depth = rng.gen_range(1..=10);
            let tree = DecisionTree::random(&mut rng, depth, 9, 3, 0.3);
            for cfg in [
                HierConfig::uniform(1),
                HierConfig::uniform(2),
                HierConfig::uniform(4),
                HierConfig::with_root(2, 5),
                HierConfig::with_root(4, 8),
            ] {
                let h = build_tree(&tree, 9, 3, cfg).unwrap();
                for _ in 0..50 {
                    let q: Vec<f32> = (0..9).map(|_| rng.gen()).collect();
                    assert_eq!(h.predict_tree(0, &q), tree.predict(&q), "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn forest_build_has_contiguous_tree_ranges() {
        let mut rng = StdRng::seed_from_u64(3);
        let trees: Vec<DecisionTree> =
            (0..5).map(|_| DecisionTree::random(&mut rng, 7, 8, 2, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 8, 2).unwrap();
        let h = build_forest(&forest, HierConfig::uniform(3)).unwrap();
        assert_eq!(h.num_trees(), 5);
        let mut covered = 0u32;
        for t in 0..5 {
            let r = h.tree_subtrees(t);
            assert_eq!(r.start, covered, "ranges contiguous");
            assert!(!r.is_empty());
            covered = r.end;
        }
        assert_eq!(covered as usize, h.num_subtrees());
        // Forest-level predictions match.
        for _ in 0..200 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen()).collect();
            assert_eq!(h.predict(&q), forest.predict(&q));
        }
    }

    #[test]
    fn slot_count_matches_offsets_and_real_nodes_conserved() {
        let mut rng = StdRng::seed_from_u64(19);
        let tree = DecisionTree::random(&mut rng, 9, 5, 2, 0.25);
        let h = build_tree(&tree, 5, 2, HierConfig::uniform(4)).unwrap();
        assert_eq!(*h.subtree_node_offset().last().unwrap() as usize, h.total_slots());
        let stats = h.stats();
        assert_eq!(stats.real_slots, tree.num_nodes(), "every node placed exactly once");
        assert_eq!(stats.total_slots, stats.real_slots + stats.pad_slots);
    }

    #[test]
    fn rejects_bad_config() {
        let err = build_tree(&paper_tree(), 21, 2, HierConfig::uniform(0)).unwrap_err();
        assert!(matches!(err, LayoutError::BadConfig { .. }));
        let err = build_tree(&paper_tree(), 21, 2, HierConfig::with_root(4, 21)).unwrap_err();
        assert!(matches!(err, LayoutError::BadConfig { .. }));
    }

    #[test]
    fn larger_sd_means_fewer_subtrees_more_padding() {
        let mut rng = StdRng::seed_from_u64(23);
        let tree = DecisionTree::random(&mut rng, 14, 10, 2, 0.2);
        let small = build_tree(&tree, 10, 2, HierConfig::uniform(2)).unwrap().stats();
        let large = build_tree(&tree, 10, 2, HierConfig::uniform(8)).unwrap().stats();
        assert!(large.num_subtrees < small.num_subtrees);
        assert!(large.pad_slots >= small.pad_slots);
        assert!(large.connection_entries <= small.connection_entries);
    }
}
