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
    if cfg!(debug_assertions) {
        assert_postconditions(&out);
    }
    Ok(out)
}

/// What every walk of the layout relies on, checked by debug builds after
/// each build: a subtree's connections name a later subtree of its own
/// tree (or none), and every leaf slot names one of the forest's classes.
fn assert_postconditions(hier: &HierForest) {
    for t in 0..hier.tree_subtree_offset.len() - 1 {
        let subtrees = hier.tree_subtrees(t);
        for s in subtrees.clone() {
            let connections =
                hier.connection_base(s) as usize..hier.connection_offset[s as usize + 1] as usize;
            for &child in &hier.subtree_connection[connections] {
                assert!(
                    child == NULL_SUBTREE || (child > s && child < subtrees.end),
                    "tree {t} subtree {s}: child {child} not forward within the tree"
                );
            }
            let slots =
                hier.subtree_base(s) as usize..hier.subtree_node_offset[s as usize + 1] as usize;
            for slot in slots.filter(|&at| hier.feature_id[at] == LEAF_FEATURE) {
                let label = hier.value[slot];
                assert!(
                    label >= 0.0 && (label as u32) < hier.num_classes,
                    "tree {t} subtree {s}: leaf label {label} out of range"
                );
            }
        }
    }
}

/// Root-subtree shapes `(sd, rsd)` [`build_within`] tries, deepest root
/// first; the last is built even when it does not fit.
const ROOT_LADDER: [(u8, u8); 6] = [(6, 10), (6, 8), (4, 6), (3, 4), (3, 3), (2, 2)];

/// Builds the layout with the deepest root subtree of a fixed ladder whose
/// slots fit `root_budget` bytes — the shared memory the GPU hybrid
/// kernel stages the root subtree in (the paper's 48 KB wall) — and the
/// shallowest rung when none fits. The rung follows from tree depths
/// alone: a tree of depth `d` stages a root subtree of
/// `2^min(rsd, d + 1) − 1` slots, so the deepest tree decides, and it is
/// measured only when a rung's full `2^rsd − 1` slots do not fit. Only
/// the chosen rung is built.
pub fn build_within(forest: &RandomForest, root_budget: usize) -> Result<HierForest, LayoutError> {
    let fits = |levels: u32| ((1 << levels) - 1) * super::NODE_BYTES <= root_budget;
    let deepest = ROOT_LADDER.iter().map(|&(_, rsd)| u32::from(rsd)).max().unwrap_or(0);
    let mut levels = None;
    let (&last, deeper) = ROOT_LADDER.split_last().expect("the ladder is not empty");
    let (sd, rsd) = deeper
        .iter()
        .copied()
        .find(|&(_, rsd)| {
            let rsd = u32::from(rsd);
            fits(rsd)
                || fits(rsd.min(*levels.get_or_insert_with(|| {
                    forest.trees().iter().map(|t| levels_within(t, deepest)).max().unwrap_or(0)
                })))
        })
        .unwrap_or(last);
    build_forest(forest, HierConfig::with_root(sd, rsd))
}

/// How many of `tree`'s first `cap` levels hold a node: `min(cap, d + 1)`
/// for a tree of depth `d`.
fn levels_within(tree: &DecisionTree, cap: u32) -> u32 {
    let (mut level, mut levels) = (vec![0u32], 0);
    while !level.is_empty() && levels < cap {
        levels += 1;
        level = level
            .iter()
            .filter_map(|&id| match tree.nodes()[id as usize] {
                Node::Inner { left, right, .. } => Some([left, right]),
                Node::Leaf { .. } => None,
            })
            .flatten()
            .collect();
    }
    levels
}

/// Everything [`build_forest`] can refuse about the *forest* (the rest is
/// [`HierConfig::validate`]): a caller that defers the build checks this
/// up front and knows the later build cannot fail on a valid config.
pub fn check_forest(forest: &RandomForest) -> Result<(), LayoutError> {
    crate::check_feature_field("hier", forest)?;
    crate::check_label_field("hier", forest, crate::F32_LABEL_BITS)
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
    use crate::TreeEnsemble;
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

    /// A right-leaning spine: depth `depth`, one inner node per level.
    fn spine(depth: u32) -> DecisionTree {
        let mut nodes = Vec::new();
        for d in 0..depth {
            let (left, right) = (2 * d + 1, 2 * d + 2);
            nodes.push(Node::Inner { feature: 0, threshold: d as f32, left, right });
            nodes.push(Node::Leaf { label: 0 });
        }
        nodes.push(Node::Leaf { label: 1 });
        DecisionTree::from_nodes(nodes).unwrap()
    }

    /// What the ladder chose when it built every rung until one's largest
    /// root subtree fit.
    fn built_rung(forest: &RandomForest, root_budget: usize) -> HierConfig {
        let (&(sd, rsd), deeper) = ROOT_LADDER.split_last().unwrap();
        for &(sd, rsd) in deeper {
            let hier = build_forest(forest, HierConfig::with_root(sd, rsd)).unwrap();
            let roots = (0..forest.num_trees()).map(|t| hier.tree_root_subtree(t));
            let staged = roots.map(|s| hier.subtree_size(s) as usize).max().unwrap_or(0);
            if staged * super::super::NODE_BYTES <= root_budget {
                return hier.config();
            }
        }
        HierConfig::with_root(sd, rsd)
    }

    #[test]
    fn the_rung_follows_from_depths_as_the_built_ladder_chose_it() {
        for depth in [0, 3, 8, 15] {
            let trees = vec![spine(depth), spine(depth / 2), DecisionTree::leaf(1)];
            let forest = RandomForest::from_trees(trees, 1, 2).unwrap();
            assert_eq!(forest.max_depth(), depth as usize);
            for budget in [48 << 10, 100, 10] {
                let chosen = build_within(&forest, budget).unwrap().config();
                assert_eq!(chosen, built_rung(&forest, budget), "depth {depth}, {budget} B");
            }
        }
    }

    /// The build's postconditions catch a connection that points back.
    #[test]
    #[should_panic(expected = "not forward")]
    fn a_backward_connection_fails_the_postconditions() {
        let mut h = build_tree(&paper_tree(), 21, 2, HierConfig::uniform(3)).unwrap();
        let at = h.subtree_connection.iter().position(|&c| c != NULL_SUBTREE).unwrap();
        h.subtree_connection[at] = 0;
        assert_postconditions(&h);
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
