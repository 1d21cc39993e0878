//! CSR (compressed sparse row) forest layout — the paper's baseline
//! (§2.3, Fig. 2b/2c).
//!
//! Topology is stored as `children_arr` / `children_arr_idx`: for every
//! inner node `i`, `children_arr[children_arr_idx[i]]` and
//! `children_arr[children_arr_idx[i] + 1]` are its left and right child
//! ids. Node attributes live in `feature_id` (−1 marks a leaf) and `value`
//! (threshold for inner nodes, class label for leaves). Each traversal
//! step therefore costs **four** potentially-irregular memory reads —
//! attribute pair plus two levels of indirection — which is exactly the
//! inefficiency the hierarchical layout removes.

use crate::memprobe::{FetchSink, NoopSink};
use crate::{goes_right, Label};
use rfx_forest::{Node, RandomForest};
use serde::{Deserialize, Serialize};

/// Sentinel stored in `feature_id` for leaf nodes (paper uses −1).
pub const LEAF_FEATURE: i16 = -1;

/// Where one walk through a [`CsrForest`] stands. `Copy`, so a kernel can
/// keep several walks in flight in a plain array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrCursor {
    /// Node base of the walk's tree.
    pub(crate) node_base: u32,
    /// `children_arr` base of the walk's tree.
    pub(crate) child_base: u32,
    /// Tree-local id of the node the walk stands on.
    pub(crate) node: u32,
}

/// A whole forest in packed CSR form: per-tree arrays are concatenated and
/// `tree_node_offset` / `tree_child_offset` locate each tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrForest {
    /// `feature_id[n]`: comparison feature of node `n`, or [`LEAF_FEATURE`].
    feature_id: Vec<i16>,
    /// `value[n]`: comparison threshold, or the leaf's class label as f32.
    value: Vec<f32>,
    /// Start of each node's children within `children_arr` (unused for
    /// leaves, 0 there).
    children_arr_idx: Vec<u32>,
    /// Child node ids, two consecutive entries per inner node (tree-local).
    children_arr: Vec<u32>,
    /// Node base of tree `t` (len = num_trees + 1).
    tree_node_offset: Vec<u32>,
    /// `children_arr` base of tree `t` (len = num_trees + 1).
    tree_child_offset: Vec<u32>,
    num_classes: u32,
    num_features: usize,
}

impl CsrForest {
    /// Converts a trained forest into CSR form. Node ids keep the source
    /// trees' ordering.
    ///
    /// # Panics
    /// If the forest has more than `1 << 15` features: `feature_id` keeps
    /// its negative half for [`LEAF_FEATURE`].
    pub fn build(forest: &RandomForest) -> Self {
        crate::check_feature_field("csr", forest).unwrap_or_else(|e| panic!("{e}"));
        let total_nodes = forest.total_nodes();
        let mut feature_id = Vec::with_capacity(total_nodes);
        let mut value = Vec::with_capacity(total_nodes);
        let mut children_arr_idx = Vec::with_capacity(total_nodes);
        let mut children_arr = Vec::new();
        let mut tree_node_offset = Vec::with_capacity(forest.num_trees() + 1);
        let mut tree_child_offset = Vec::with_capacity(forest.num_trees() + 1);

        for tree in forest.trees() {
            tree_node_offset.push(feature_id.len() as u32);
            tree_child_offset.push(children_arr.len() as u32);
            let child_base = children_arr.len() as u32;
            for node in tree.nodes() {
                match *node {
                    Node::Leaf { label } => {
                        feature_id.push(LEAF_FEATURE);
                        value.push(label as f32);
                        children_arr_idx.push(0);
                    }
                    Node::Inner { feature, threshold, left, right } => {
                        feature_id.push(feature as i16);
                        value.push(threshold);
                        // Tree-local index into the packed children array.
                        children_arr_idx.push(children_arr.len() as u32 - child_base);
                        children_arr.push(left);
                        children_arr.push(right);
                    }
                }
            }
        }
        tree_node_offset.push(feature_id.len() as u32);
        tree_child_offset.push(children_arr.len() as u32);

        Self {
            feature_id,
            value,
            children_arr_idx,
            children_arr,
            tree_node_offset,
            tree_child_offset,
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        }
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.tree_node_offset.len() - 1
    }

    /// Number of classes voted over.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// Query width expected by the traversals.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Total node count across trees.
    pub fn total_nodes(&self) -> usize {
        self.feature_id.len()
    }

    /// Raw `feature_id` array (element size 2 B).
    pub fn feature_id(&self) -> &[i16] {
        &self.feature_id
    }

    /// Raw `value` array (element size 4 B).
    pub fn value(&self) -> &[f32] {
        &self.value
    }

    /// Raw `children_arr_idx` array (element size 4 B).
    pub fn children_arr_idx(&self) -> &[u32] {
        &self.children_arr_idx
    }

    /// Raw `children_arr` array (element size 4 B).
    pub fn children_arr(&self) -> &[u32] {
        &self.children_arr
    }

    /// Node base offset of tree `t`.
    #[inline]
    pub fn tree_node_base(&self, t: usize) -> u32 {
        self.tree_node_offset[t]
    }

    /// `children_arr` base offset of tree `t`.
    #[inline]
    pub fn tree_child_base(&self, t: usize) -> u32 {
        self.tree_child_offset[t]
    }

    /// A walk standing at the root of tree `t`.
    #[inline]
    pub fn root(&self, t: usize) -> CsrCursor {
        CsrCursor {
            node_base: self.tree_node_offset[t],
            child_base: self.tree_child_offset[t],
            node: 0,
        }
    }

    /// Advances `cursor` one level, following the paper's traversal loop
    /// (Fig. 1b over the Fig. 2 arrays): `Some(label)` on a leaf (the
    /// cursor stays put), otherwise the cursor moves to the child `query`
    /// selects. Each simulated memory fetch is reported to `sink` — the
    /// four scattered reads per level the module docs describe. The
    /// attribute region lays `feature_id` (2 B/node) then `value`
    /// (4 B/node) back to back; the topology region lays
    /// `children_arr_idx` then `children_arr` (4 B each). The one place
    /// this layout's nodes are decoded.
    #[inline]
    pub fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut CsrCursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label> {
        let g = (cursor.node_base + cursor.node) as usize;
        sink.attribute(g as u64 * 2, 2);
        sink.attribute((self.feature_id.len() * 2 + g * 4) as u64, 4);
        let f = self.feature_id[g];
        let v = self.value[g];
        if f == LEAF_FEATURE {
            return Some(v as Label);
        }
        sink.topology(g as u64 * 4, 4);
        let idx = self.children_arr_idx[g];
        sink.query(f as u32);
        let slot = (cursor.child_base + idx + u32::from(goes_right(query[f as usize], v))) as usize;
        sink.topology((self.children_arr_idx.len() * 4 + slot * 4) as u64, 4);
        cursor.node = self.children_arr[slot];
        None
    }

    /// Classifies `query` with tree `t`. This is the functional
    /// reference for the CSR GPU/FPGA kernels.
    pub fn predict_tree(&self, t: usize, query: &[f32]) -> Label {
        crate::walk(self.root(t), |cursor| self.step_with(cursor, query, &mut NoopSink))
    }

    /// Majority-vote classification of one query over all trees.
    pub fn predict(&self, query: &[f32]) -> Label {
        let mut votes = vec![0u32; self.num_classes as usize];
        for t in 0..self.num_trees() {
            votes[self.predict_tree(t, query) as usize] += 1;
        }
        crate::majority(&votes)
    }

    /// Memory footprint in bytes of each CSR array (the Fig. 6 baseline).
    pub fn footprint(&self) -> crate::footprint::LayoutFootprint {
        crate::footprint::LayoutFootprint {
            attribute_bytes: self.feature_id.len() * 2 + self.value.len() * 4,
            topology_bytes: self.children_arr_idx.len() * 4 + self.children_arr.len() * 4,
            index_bytes: (self.tree_node_offset.len() + self.tree_child_offset.len()) * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_forest::DecisionTree;

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

    fn forest_of(trees: Vec<DecisionTree>, nf: usize) -> RandomForest {
        RandomForest::from_trees(trees, nf, 2).unwrap()
    }

    #[test]
    fn paper_figure_arrays() {
        let csr = CsrForest::build(&forest_of(vec![paper_tree()], 21));
        // Fig. 2c attribute rows.
        assert_eq!(csr.feature_id(), &[1, -1, 4, 8, 20, -1, -1, -1, -1]);
        assert_eq!(csr.value(), &[2.5, 0.0, 0.5, 5.4, 8.8, 1.0, 0.0, 0.0, 1.0]);
        // Fig. 2b topology: children of node 4 live at children_arr[6..8].
        assert_eq!(csr.children_arr_idx()[4], 6);
        assert_eq!(&csr.children_arr()[6..8], &[5, 6]);
        assert_eq!(csr.children_arr().len(), 8, "two entries per inner node");
    }

    #[test]
    fn predicts_like_source_tree() {
        let tree = paper_tree();
        let csr = CsrForest::build(&forest_of(vec![tree.clone()], 21));
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..500 {
            let q: Vec<f32> = (0..21).map(|_| rng.gen::<f32>() * 10.0).collect();
            assert_eq!(csr.predict_tree(0, &q), tree.predict(&q));
        }
    }

    #[test]
    fn multi_tree_offsets_and_votes() {
        let mut rng = StdRng::seed_from_u64(9);
        let trees: Vec<DecisionTree> =
            (0..7).map(|_| DecisionTree::random(&mut rng, 6, 8, 2, 0.3)).collect();
        let forest = forest_of(trees, 8);
        let csr = CsrForest::build(&forest);
        assert_eq!(csr.num_trees(), 7);
        assert_eq!(csr.total_nodes(), forest.total_nodes());
        for _ in 0..300 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen()).collect();
            assert_eq!(csr.predict(&q), forest.predict(&q));
            for t in 0..7 {
                assert_eq!(csr.predict_tree(t, &q), forest.trees()[t].predict(&q));
            }
        }
    }

    #[test]
    fn single_leaf_tree_works() {
        let csr = CsrForest::build(&forest_of(vec![DecisionTree::leaf(1)], 3));
        assert_eq!(csr.predict_tree(0, &[0.0; 3]), 1);
        assert!(csr.children_arr().is_empty());
    }

    #[test]
    fn footprint_accounts_all_arrays() {
        let csr = CsrForest::build(&forest_of(vec![paper_tree()], 21));
        let fp = csr.footprint();
        // 9 nodes: attrs = 9*(2+4); topology = 9*4 + 8*4.
        assert_eq!(fp.attribute_bytes, 9 * 6);
        assert_eq!(fp.topology_bytes, 9 * 4 + 8 * 4);
        assert_eq!(fp.total(), fp.attribute_bytes + fp.topology_bytes + fp.index_bytes);
    }
}
