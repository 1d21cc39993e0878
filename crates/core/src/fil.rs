//! FIL-style sparse forest layout — the stand-in for Nvidia cuML's Forest
//! Inference Library, the paper's GPU baseline.
//!
//! cuML FIL stores each tree as an array of fixed-size nodes where a
//! node's two children are **adjacent** (`left` and `left + 1`), so one
//! traversal step costs a single node fetch (feature, threshold, and child
//! pointer are colocated) instead of CSR's four scattered reads. That is
//! the property responsible for FIL's ≈4–5× speedup over CSR in the paper,
//! and it is what [`FilStore`] keeps whatever its nodes look like (the
//! [`NodeFormat`]) and wherever its trees sit (the [`Placement`]).

use crate::footprint::LayoutFootprint;
use crate::memprobe::{FetchSink, NoopSink};
use crate::pack::IN_TOP;
use crate::top::Top;
use crate::{goes_right, Label, LayoutError, TreeEnsemble};
use rfx_forest::{DecisionTree, Node, RandomForest};
use serde::{Deserialize, Serialize};

/// One packed FIL node: 12 bytes, matching FIL's dense 8–16 B node records.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FilNode {
    /// Comparison feature, or −1 for a leaf.
    pub feature: i16,
    /// Comparison threshold, or the leaf's class label as f32.
    pub value: f32,
    /// Index of the left child relative to the walk's base (the tree's
    /// or the shard's first node); the right child is `left_child + 1`.
    /// Unused (0) for leaves.
    pub left_child: u32,
}

/// Size in bytes of one node as laid out in device memory.
pub const FIL_NODE_BYTES: usize = 12;

/// Where one walk through a FIL-family node stream stands. Child indices
/// are relative to a base the placement chose — the tree's first node or
/// its shard's. `Copy`, so a kernel can keep several walks in flight in a
/// plain array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilCursor {
    /// Node index the walk's child indices are relative to — or, for a
    /// walk in a complete top ([`crate::pack`]), the level it stands on.
    pub(crate) base: u32,
    /// Absolute index of the node the walk stands on.
    pub(crate) at: u32,
}

/// How the nodes of a [`FilStore`] are stored: the one place a node of
/// the format is pushed, decoded, byte-costed and budget-checked.
/// Implemented by [`F32Nodes`] and [`crate::quant::QuantNodes`].
pub trait NodeFormat: Sized + Send + Sync {
    /// Resident bytes per node.
    const NODE_BYTES: usize;

    /// One inner slot of a complete top ([`crate::top`]): a node's
    /// comparison without a child pointer, in this format's encoding.
    type TopSlot: Copy + std::fmt::Debug + PartialEq + Send + Sync;

    /// Empty storage with room for `forest`'s nodes, or
    /// [`LayoutError::BadConfig`] when its features or labels do not fit
    /// the format's fields.
    fn for_forest(forest: &RandomForest) -> Result<Self, LayoutError>;

    /// Whether child indices can span `nodes` nodes — the size of
    /// placement unit `index`, a `unit` ("tree" or "packed shard"). A
    /// u32 child index spans any unit a u32 cursor can address.
    fn check_span(_unit: &str, _index: usize, _nodes: usize) -> Result<(), LayoutError> {
        Ok(())
    }

    /// Pushes a leaf.
    fn leaf(&mut self, label: Label);

    /// Pushes an inner node whose children sit at `left_child` and
    /// `left_child + 1` past the walk's base.
    fn inner(&mut self, feature: u16, threshold: f32, left_child: u32);

    /// Nodes pushed so far.
    fn num_nodes(&self) -> usize;

    /// Reads the node under `cursor`, reporting each fetch to `sink`:
    /// `Some(label)` on a leaf (the cursor stays put), otherwise the
    /// cursor moves one level down to the child `query` selects.
    fn step<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut FilCursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label>;

    /// Asks the cache for what [`NodeFormat::step`] will read at stream
    /// node `at` (see [`crate::prefetch`]).
    fn prefetch(&self, at: usize);

    /// Encodes the comparison `feature < threshold` as a top slot.
    fn top_slot(&self, feature: u16, threshold: f32) -> Self::TopSlot;

    /// The feature a top slot compares on.
    fn top_feature(slot: Self::TopSlot) -> usize;

    /// The one decode of a top slot, for a walk one level at a time and
    /// for the engine's lockstep loop alike: whether `query` goes right at
    /// `slot`, reporting the query read to `sink`.
    fn top_goes_right<S: FetchSink + ?Sized>(
        &self,
        slot: Self::TopSlot,
        query: &[f32],
        sink: &mut S,
    ) -> bool;

    /// Bytes of per-forest tables resident beside the nodes.
    fn table_bytes(&self) -> usize {
        0
    }
}

/// Where the trees of a [`FilStore`] sit in its node stream: the one
/// place a tree's cursor base and root slot are looked up. Implemented by
/// [`PerTree`] and [`crate::pack::Sharded`].
pub trait Placement: Send + Sync {
    /// Whether stores of this placement may carry a complete top; `false`
    /// compiles the top out of every walk.
    const HAS_TOP: bool = false;

    /// Number of trees placed.
    fn num_trees(&self) -> usize;

    /// A walk standing at the root of tree `t`.
    fn root(&self, t: usize) -> FilCursor;

    /// Bytes of the tree (and shard) directory.
    fn index_bytes(&self) -> usize;

    /// Cumulative tree-count boundaries `[0, ..., num_trees]` of the
    /// placement's shards, when it has any.
    fn shard_bounds(&self) -> Option<Vec<usize>> {
        None
    }
}

/// The f32 node format: one 12 B [`FilNode`] record per node.
#[derive(Debug, Clone, PartialEq)]
pub struct F32Nodes(Vec<FilNode>);

impl NodeFormat for F32Nodes {
    const NODE_BYTES: usize = FIL_NODE_BYTES;

    /// `(feature, threshold)`: the record's comparison, 8 B.
    type TopSlot = (u32, f32);

    fn for_forest(forest: &RandomForest) -> Result<Self, LayoutError> {
        crate::check_feature_field("fil", forest)?;
        crate::check_label_field("fil", forest, crate::F32_LABEL_BITS)?;
        Ok(F32Nodes(Vec::with_capacity(forest.total_nodes())))
    }

    fn leaf(&mut self, label: Label) {
        self.0.push(FilNode { feature: -1, value: label as f32, left_child: 0 });
    }

    fn inner(&mut self, feature: u16, threshold: f32, left_child: u32) {
        self.0.push(FilNode { feature: feature as i16, value: threshold, left_child });
    }

    fn num_nodes(&self) -> usize {
        self.0.len()
    }

    /// One colocated record per level (FIL's defining property — no
    /// topology indirection), plus the query feature read at every inner
    /// node.
    #[inline]
    fn step<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut FilCursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label> {
        sink.attribute(cursor.at as u64 * FIL_NODE_BYTES as u64, FIL_NODE_BYTES as u32);
        let node = self.0[cursor.at as usize];
        if node.feature < 0 {
            return Some(node.value as Label);
        }
        sink.query(node.feature as u32);
        let right = goes_right(query[node.feature as usize], node.value);
        sink.branch(right);
        cursor.at = cursor.base + node.left_child + u32::from(right);
        None
    }

    /// The node's one record.
    #[inline]
    fn prefetch(&self, at: usize) {
        crate::prefetch(&self.0, at);
    }

    fn top_slot(&self, feature: u16, threshold: f32) -> (u32, f32) {
        (u32::from(feature), threshold)
    }

    fn top_feature((feature, _): (u32, f32)) -> usize {
        feature as usize
    }

    #[inline]
    fn top_goes_right<S: FetchSink + ?Sized>(
        &self,
        (feature, threshold): (u32, f32),
        query: &[f32],
        sink: &mut S,
    ) -> bool {
        sink.query(feature);
        goes_right(query[feature as usize], threshold)
    }
}

/// The per-tree placement: each tree's nodes in BFS order, back to back,
/// child indices relative to the tree's first node.
#[derive(Debug, Clone, PartialEq)]
pub struct PerTree {
    /// Node base of tree `t` (len = num_trees + 1).
    pub(crate) tree_offset: Vec<u32>,
}

impl Placement for PerTree {
    fn num_trees(&self) -> usize {
        self.tree_offset.len() - 1
    }

    #[inline]
    fn root(&self, t: usize) -> FilCursor {
        let base = self.tree_offset[t];
        FilCursor { base, at: base }
    }

    fn index_bytes(&self) -> usize {
        self.tree_offset.len() * 4
    }
}

/// A whole forest in FIL-style form: nodes of format `F` placed by `P`,
/// under a complete top when the placement builds one ([`crate::pack`];
/// empty otherwise). The four names the rest of the workspace uses —
/// [`FilForest`], [`crate::QFilForest`], [`crate::PackedFilForest`],
/// [`crate::PackedQFilForest`] — are its four instantiations.
#[derive(Debug, Clone, PartialEq)]
pub struct FilStore<F: NodeFormat, P> {
    pub(crate) nodes: F,
    pub(crate) top: Top<F::TopSlot>,
    pub(crate) placement: P,
    pub(crate) num_classes: u32,
    pub(crate) num_features: usize,
}

/// f32 FIL: 12 B records, per-tree BFS order — the cuML baseline.
pub type FilForest = FilStore<F32Nodes, PerTree>;

// The whole FIL family, through its one store. A quantized format's
// `footprint()` reports the *compressed* bytes, which is what lets the
// engine's auto plan pack ~2.4× more u8-quantized trees into each L2
// shard; the packed placement publishes its byte-bin-packed shard seams,
// so the tile loop walks the tree groups that were packed together, and
// its complete top.
impl<F: NodeFormat, P: Placement> TreeEnsemble for FilStore<F, P> {
    type Cursor = FilCursor;
    type TopSlot = F::TopSlot;

    fn num_trees(&self) -> usize {
        self.placement.num_trees()
    }

    fn num_classes(&self) -> u32 {
        self.num_classes
    }

    fn num_features(&self) -> usize {
        self.num_features
    }

    /// Bytes resident: the node stream and the top as attributes
    /// (topology is embedded in the nodes and implied in the top), the
    /// placement's directory plus the format's tables as index overhead.
    fn footprint(&self) -> LayoutFootprint {
        LayoutFootprint {
            attribute_bytes: self.nodes.num_nodes() * F::NODE_BYTES + self.top.bytes(),
            topology_bytes: 0,
            index_bytes: self.placement.index_bytes() + self.nodes.table_bytes(),
        }
    }

    /// A walk standing at the root of tree `t` — in the complete top,
    /// when the store has one.
    #[inline]
    fn root(&self, t: usize) -> FilCursor {
        if self.top_levels() > 0 {
            return FilCursor { base: 0, at: IN_TOP | t as u32 };
        }
        self.placement.root(t)
    }

    /// Advances `cursor` one level: `Some(label)` on a leaf (the cursor
    /// stays put), otherwise the cursor moves to the child `query`
    /// selects — for a quantized format against the dequantized
    /// threshold, so the branch equals the snapped forest's. A walk in
    /// the complete top takes its level through the format's one top
    /// decode, and its last top level reads the bottom slot too (see
    /// [`crate::pack`]). Each simulated memory fetch is reported to
    /// `sink`, at the node's address in *this* placement's order.
    #[inline]
    fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut FilCursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label> {
        if P::HAS_TOP && cursor.at & IN_TOP != 0 {
            return self.top_step(cursor, query, sink);
        }
        self.nodes.step(cursor, query, sink)
    }

    /// What the next step from `cursor` reads in the node stream; nothing
    /// for a walk still in the complete top, whose slots stay
    /// cache-resident.
    #[inline]
    fn prefetch(&self, cursor: &FilCursor) {
        if P::HAS_TOP && cursor.at & IN_TOP != 0 {
            return;
        }
        self.nodes.prefetch(cursor.at as usize);
    }

    fn shard_bounds(&self) -> Option<Vec<usize>> {
        self.placement.shard_bounds()
    }

    /// Always 0 for a placement without a top.
    #[inline]
    fn top_levels(&self) -> u32 {
        if P::HAS_TOP {
            self.top.levels
        } else {
            0
        }
    }

    #[inline]
    fn top_level(&self, level: u32) -> &[F::TopSlot] {
        self.top.level(level)
    }

    #[inline]
    fn top_goes_right(&self, slot: F::TopSlot, query: &[f32]) -> bool {
        self.nodes.top_goes_right(slot, query, &mut NoopSink)
    }

    /// Tree `t`'s bottom slots sit at `t << top_levels`.
    #[inline]
    fn top_exit(&self, bottom: usize) -> Result<Label, FilCursor> {
        self.top.exit(bottom).map_err(|local| {
            let base = self.placement.root(bottom >> self.top.levels).base;
            FilCursor { base, at: base + local }
        })
    }
}

impl<P> FilStore<F32Nodes, P> {
    /// All node records, in placement order.
    pub fn nodes(&self) -> &[FilNode] {
        &self.nodes.0
    }
}

impl<F: NodeFormat> FilStore<F, PerTree> {
    /// Node base offset of tree `t`.
    #[inline]
    pub fn tree_base(&self, t: usize) -> u32 {
        self.placement.tree_offset[t]
    }

    /// Converts a forest tree by tree: nodes are re-emitted in BFS order
    /// with sibling pairs adjacent (the FIL invariant `right = left + 1`).
    pub(crate) fn per_tree(forest: &RandomForest) -> Result<Self, LayoutError> {
        let mut nodes = F::for_forest(forest)?;
        let mut tree_offset = Vec::with_capacity(forest.num_trees() + 1);
        let mut order = Vec::new();
        for (t, tree) in forest.trees().iter().enumerate() {
            F::check_span("tree", t, tree.num_nodes())?;
            tree_offset.push(nodes.num_nodes() as u32);
            append_tree(tree, forest.num_classes(), &mut nodes, &mut order);
        }
        tree_offset.push(nodes.num_nodes() as u32);
        Ok(FilStore {
            nodes,
            top: Top::none(),
            placement: PerTree { tree_offset },
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        })
    }
}

impl FilForest {
    /// Converts a forest into per-tree f32 FIL form.
    ///
    /// # Panics
    /// If the forest has more than `1 << 15` features (the 16-bit
    /// feature field keeps its negative half for the leaf sentinel) or
    /// more than `1 << 24` classes (a leaf's label is stored as `f32`).
    pub fn build(forest: &RandomForest) -> Self {
        Self::per_tree(forest).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Re-emits one tree in BFS order with adjacent sibling pairs, in one
/// pass: `order` (a reused buffer) is the BFS queue and the emission
/// order at once. Every inner node enqueues its two children behind the
/// root, so siblings are adjacent (`right = left + 1`) and the `k`-th
/// inner node's left child sits at tree-local `1 + 2k`.
///
/// Debug builds check what every walk relies on as each node is emitted:
/// an inner node's children lie after it and within its tree, and a
/// leaf names one of the forest's `num_classes` classes.
fn append_tree<F: NodeFormat>(
    tree: &DecisionTree,
    num_classes: u32,
    out: &mut F,
    order: &mut Vec<u32>,
) {
    let base = out.num_nodes();
    order.clear();
    order.push(0);
    let mut next = 0;
    let mut left_child = 1;
    while let Some(&id) = order.get(next) {
        next += 1;
        match tree.nodes()[id as usize] {
            Node::Leaf { label } => {
                debug_assert!(label < num_classes, "leaf label {label} out of range");
                out.leaf(label)
            }
            Node::Inner { feature, threshold, left, right } => {
                debug_assert!(
                    left_child as usize >= next && (left_child as usize) < tree.num_nodes() - 1,
                    "node {}: child {left_child} not forward within the tree",
                    next - 1
                );
                out.inner(feature, threshold, left_child);
                left_child += 2;
                order.extend([left, right]);
            }
        }
    }
    debug_assert_eq!(out.num_nodes() - base, tree.num_nodes());
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
            let end = fil.tree_base(t + 1) as usize;
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
    fn footprint_is_twelve_bytes_per_node() {
        let forest = random_forest(2, 1);
        let fil = FilForest::build(&forest);
        let fp = fil.footprint();
        assert_eq!(fp.attribute_bytes, fil.nodes().len() * 12);
        assert_eq!(fp.topology_bytes, 0);
    }
}
