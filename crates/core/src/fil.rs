//! FIL-style sparse forest layout — the stand-in for Nvidia cuML's Forest
//! Inference Library, the paper's GPU baseline.
//!
//! cuML FIL stores each tree as an array of fixed-size nodes where a
//! node's two children are **adjacent** (`left` and `left + 1`), so one
//! traversal step costs a single node fetch (feature, threshold, and child
//! pointer are colocated) instead of CSR's four scattered reads. That is
//! the property responsible for FIL's ≈4–5× speedup over CSR in the paper,
//! and it is what this layout reproduces.

use crate::Label;
use rfx_forest::{DecisionTree, Node, RandomForest};
use serde::{Deserialize, Serialize};

/// One packed FIL node: 12 bytes, matching FIL's dense 8–16 B node records.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FilNode {
    /// Comparison feature, or −1 for a leaf.
    pub feature: i16,
    /// Comparison threshold, or the leaf's class label as f32.
    pub value: f32,
    /// Tree-local index of the left child; the right child is
    /// `left_child + 1`. Unused (0) for leaves.
    pub left_child: u32,
}

/// Size in bytes of one node as laid out in device memory.
pub const FIL_NODE_BYTES: usize = 12;

/// Where one walk through a FIL-style node stream stands — shared by the
/// flat, quantized and packed FIL layouts, whose child indices are all
/// relative to a per-tree (or per-shard) base. `Copy`, so a kernel can
/// keep several walks in flight in a plain array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilCursor {
    /// Node index the walk's child indices are relative to.
    pub(crate) base: u32,
    /// Absolute index of the node the walk stands on.
    pub(crate) at: u32,
}

/// The one place a [`FilNode`] is decoded: reads the node under `cursor`
/// and either returns its label (a leaf — the cursor stays put) or moves
/// the cursor to the child `query` selects, one level down.
#[inline]
pub(crate) fn step(nodes: &[FilNode], cursor: &mut FilCursor, query: &[f32]) -> Option<Label> {
    let node = nodes[cursor.at as usize];
    if node.feature < 0 {
        return Some(node.value as Label);
    }
    // `<`, negated, not `>=`: a NaN query goes right, as in the reference.
    let go_left = query[node.feature as usize] < node.value;
    cursor.at = cursor.base + node.left_child + u32::from(!go_left);
    None
}

/// A whole forest in FIL-style form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilForest {
    nodes: Vec<FilNode>,
    /// Node base of tree `t` (len = num_trees + 1).
    tree_offset: Vec<u32>,
    num_classes: u32,
    num_features: usize,
}

impl FilForest {
    /// Converts a forest: nodes are re-emitted in BFS order with sibling
    /// pairs adjacent (the FIL invariant `right = left + 1`).
    pub fn build(forest: &RandomForest) -> Self {
        let mut nodes = Vec::with_capacity(forest.total_nodes());
        let mut tree_offset = Vec::with_capacity(forest.num_trees() + 1);
        for tree in forest.trees() {
            tree_offset.push(nodes.len() as u32);
            append_tree(tree, &mut nodes);
        }
        tree_offset.push(nodes.len() as u32);
        Self {
            nodes,
            tree_offset,
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        }
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.tree_offset.len() - 1
    }

    /// Number of classes voted over.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// Query width expected by the traversals.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// All packed nodes.
    pub fn nodes(&self) -> &[FilNode] {
        &self.nodes
    }

    /// Node base offset of tree `t`.
    #[inline]
    pub fn tree_base(&self, t: usize) -> u32 {
        self.tree_offset[t]
    }

    /// A walk standing at the root of tree `t`.
    #[inline]
    pub fn root(&self, t: usize) -> FilCursor {
        let base = self.tree_offset[t];
        FilCursor { base, at: base }
    }

    /// Advances `cursor` one level: `Some(label)` on a leaf (the cursor
    /// stays put), otherwise the cursor moves to the child `query` selects.
    #[inline]
    pub fn step(&self, cursor: &mut FilCursor, query: &[f32]) -> Option<Label> {
        step(&self.nodes, cursor, query)
    }

    /// Classifies `query` with tree `t` (one node fetch per level — the
    /// functional reference for the FIL GPU kernel).
    pub fn predict_tree(&self, t: usize, query: &[f32]) -> Label {
        crate::walk(self.root(t), |cursor| self.step(cursor, query))
    }

    /// Majority-vote classification of one query.
    pub fn predict(&self, query: &[f32]) -> Label {
        let mut votes = vec![0u32; self.num_classes as usize];
        for t in 0..self.num_trees() {
            votes[self.predict_tree(t, query) as usize] += 1;
        }
        crate::majority(&votes)
    }

    /// Classifies like [`FilForest::predict_tree`] while reporting each
    /// simulated memory fetch to `sink`: one colocated 12 B node record
    /// per level within the packed `nodes` array (FIL's defining
    /// property — no topology indirection), plus the query feature read
    /// at every inner node.
    pub fn predict_tree_traced(
        &self,
        t: usize,
        query: &[f32],
        sink: &mut dyn crate::memprobe::FetchSink,
    ) -> Label {
        let base = self.tree_offset[t] as usize;
        let mut n = 0usize;
        loop {
            sink.attribute(((base + n) * FIL_NODE_BYTES) as u64, FIL_NODE_BYTES as u32);
            let node = self.nodes[base + n];
            if node.feature < 0 {
                return node.value as Label;
            }
            sink.query(node.feature as u32);
            let go_left = query[node.feature as usize] < node.value;
            n = node.left_child as usize + usize::from(!go_left);
        }
    }

    /// Byte footprint of the layout.
    pub fn footprint(&self) -> crate::footprint::LayoutFootprint {
        crate::footprint::LayoutFootprint {
            attribute_bytes: self.nodes.len() * FIL_NODE_BYTES,
            topology_bytes: 0, // topology is embedded in the node records
            index_bytes: self.tree_offset.len() * 4,
        }
    }
}

/// Re-emits one tree in BFS order with adjacent sibling pairs.
fn append_tree(tree: &DecisionTree, out: &mut Vec<FilNode>) {
    let base = out.len();
    // BFS relabel: old node id -> new tree-local id.
    let mut order: Vec<u32> = Vec::with_capacity(tree.num_nodes());
    let mut new_id = vec![u32::MAX; tree.num_nodes()];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(0u32);
    while let Some(id) = queue.pop_front() {
        new_id[id as usize] = order.len() as u32;
        order.push(id);
        if let Node::Inner { left, right, .. } = tree.nodes()[id as usize] {
            queue.push_back(left);
            queue.push_back(right);
        }
    }
    // BFS enqueues children in pairs, so siblings are adjacent and
    // right = left + 1 holds by construction.
    for &old in &order {
        match tree.nodes()[old as usize] {
            Node::Leaf { label } => {
                out.push(FilNode { feature: -1, value: label as f32, left_child: 0 })
            }
            Node::Inner { feature, threshold, left, .. } => out.push(FilNode {
                feature: feature as i16,
                value: threshold,
                left_child: new_id[left as usize],
            }),
        }
    }
    debug_assert_eq!(out.len() - base, tree.num_nodes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_forest(n_trees: usize, seed: u64) -> RandomForest {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..n_trees).map(|_| DecisionTree::random(&mut rng, 8, 7, 3, 0.3)).collect();
        RandomForest::from_trees(trees, 7, 3).unwrap()
    }

    #[test]
    fn sibling_adjacency_invariant() {
        let forest = random_forest(4, 2);
        let fil = FilForest::build(&forest);
        for t in 0..fil.num_trees() {
            let base = fil.tree_base(t) as usize;
            let end = fil.tree_offset[t + 1] as usize;
            for n in base..end {
                let node = fil.nodes()[n];
                if node.feature >= 0 {
                    let l = base + node.left_child as usize;
                    assert!(l + 1 < end + 1 && l > n, "children after parent, in range");
                    assert!(l < end, "right sibling in range");
                }
            }
        }
    }

    #[test]
    fn predicts_like_source_forest() {
        let forest = random_forest(6, 5);
        let fil = FilForest::build(&forest);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..400 {
            let q: Vec<f32> = (0..7).map(|_| rng.gen()).collect();
            assert_eq!(fil.predict(&q), forest.predict(&q));
            for t in 0..forest.num_trees() {
                assert_eq!(fil.predict_tree(t, &q), forest.trees()[t].predict(&q));
            }
        }
    }

    #[test]
    fn node_count_preserved() {
        let forest = random_forest(3, 9);
        let fil = FilForest::build(&forest);
        assert_eq!(fil.nodes().len(), forest.total_nodes());
    }

    #[test]
    fn single_leaf_tree() {
        let forest = RandomForest::from_trees(vec![DecisionTree::leaf(2)], 4, 3).unwrap();
        let fil = FilForest::build(&forest);
        assert_eq!(fil.predict(&[0.0; 4]), 2);
    }

    #[test]
    fn traced_traversal_matches_untraced_and_reports_node_records() {
        use crate::memprobe::CountingSink;
        let forest = random_forest(5, 11);
        let fil = FilForest::build(&forest);
        let mut rng = StdRng::seed_from_u64(23);
        let mut sink = CountingSink::default();
        let traversals = 100 * fil.num_trees() as u64;
        for _ in 0..100 {
            let q: Vec<f32> = (0..7).map(|_| rng.gen()).collect();
            for t in 0..fil.num_trees() {
                assert_eq!(fil.predict_tree_traced(t, &q, &mut sink), fil.predict_tree(t, &q));
            }
        }
        // One colocated 12 B record per visited node, no indirection.
        assert!(sink.attribute_fetches > traversals);
        assert_eq!(sink.attribute_bytes, sink.attribute_fetches * FIL_NODE_BYTES as u64);
        assert_eq!(sink.topology_fetches, 0);
        // Exactly one leaf per traversal; every inner visit reads the query.
        assert_eq!(sink.query_fetches, sink.attribute_fetches - traversals);
    }

    #[test]
    fn footprint_is_twelve_bytes_per_node() {
        let forest = random_forest(2, 1);
        let fil = FilForest::build(&forest);
        let fp = fil.footprint();
        assert_eq!(fp.attribute_bytes, fil.nodes().len() * 12);
        assert_eq!(fp.topology_bytes, 0);
    }

    /// `predict_tree` is `loop { step }`: walking a cursor by hand lands
    /// on the traced twin's label, one node record per step — NaN
    /// queries included (they go right, like the reference).
    #[test]
    fn step_loop_matches_the_traced_twin() {
        use crate::memprobe::CountingSink;
        let forest = random_forest(6, 29);
        let fil = FilForest::build(&forest);
        let mut rng = StdRng::seed_from_u64(31);
        for i in 0..200 {
            let mut q: Vec<f32> = (0..7).map(|_| rng.gen()).collect();
            if i % 5 == 0 {
                q[i % 7] = f32::NAN;
            }
            for t in 0..fil.num_trees() {
                let mut sink = CountingSink::default();
                let traced = fil.predict_tree_traced(t, &q, &mut sink);
                let mut steps = 0;
                let label = crate::walk(fil.root(t), |cursor| {
                    steps += 1;
                    fil.step(cursor, &q)
                });
                assert_eq!(label, traced);
                assert_eq!(label, forest.trees()[t].predict(&q));
                assert_eq!(steps, sink.attribute_fetches, "one level per step");
            }
        }
    }
}
