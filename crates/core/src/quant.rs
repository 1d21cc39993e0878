//! Quantized & compressed forest layouts (ROADMAP item 1).
//!
//! The paper's FPGA design keeps whole trees resident in on-chip BRAM and
//! compares with integer-only comparators; the f32 layouts in [`crate::fil`]
//! and [`crate::csr`] blow past the shard budgets long before the paper's
//! forest sizes. This module shrinks node records two ways:
//!
//! 1. **Threshold quantization** — thresholds are snapped to a per-feature
//!    affine grid `g(l) = offset + l·scale` and stored as `u8`/`u16` grid
//!    levels ([`QuantLevel`]). The grid function [`ThresholdQuantizer::dequantize`]
//!    is the *single* place a level becomes an `f32`, so traversing a
//!    quantized layout is bit-identical to traversing the "snapped" forest
//!    produced by [`ThresholdQuantizer::snap_forest`] — exact argmax on the
//!    quantized grid, by construction. Accuracy loss vs the original f32
//!    forest is bounded by the committed epsilons
//!    ([`MAX_ACCURACY_DELTA_U8`], [`MAX_ACCURACY_DELTA_U16`]), asserted on
//!    the accuracy-profile datasets in CI.
//! 2. **Packed narrow nodes** — feature index, leaf flag, leaf label, and
//!    child offset are bitfield-packed into one word per node
//!    ([`QFilForest`]: `u32` meta + level; [`QCsrForest`]: `u16` meta +
//!    level), replacing the 12 B FIL record / 6 B-plus-padding CSR
//!    attribute pair.
//!
//! The integer-only comparator path (`predict_tree_quantized`) mirrors the
//! FPGA datapath: queries are pre-mapped to grid *ranks*
//! ([`ThresholdQuantizer::quantize_row`], where `rank(x) = #{l : g(l) ≤ x}`)
//! and traversal compares ranks. Because f32 rounding is order-preserving,
//! the grid is monotone nondecreasing in `l`, the rank is computed by exact
//! binary search, and `rank(x) > l ⇔ x ≥ g(l)` — the integer path takes
//! exactly the same branches as the f32 path (a NaN query ranks past
//! every level and goes right at every node, as in the reference).

use crate::csr::CsrCursor;
use crate::fil::FilCursor;
use crate::footprint::LayoutFootprint;
use crate::{Label, LayoutError};
use rfx_forest::{DecisionTree, Node, RandomForest};

/// Committed bound on `|accuracy(f32 forest) − accuracy(u8-quantized)|`
/// over the accuracy-profile datasets. Enforced by
/// `tests/accuracy_profiles.rs` and the `quant_bench` harness.
pub const MAX_ACCURACY_DELTA_U8: f64 = 0.02;

/// Committed bound on the u16 accuracy delta (see [`MAX_ACCURACY_DELTA_U8`]).
pub const MAX_ACCURACY_DELTA_U16: f64 = 0.005;

/// A storable threshold grid level: `u8` (256 levels) or `u16` (65 536).
pub trait QuantLevel: Copy + Send + Sync + 'static {
    /// Number of representable grid levels.
    const LEVELS: u32;
    /// Tag used in bench output and error messages.
    const NAME: &'static str;
    /// Bytes per stored threshold.
    const BYTES: usize;
    /// Narrowing store (caller guarantees `level < LEVELS`).
    fn from_level(level: u32) -> Self;
    /// Widening load.
    fn level(self) -> u32;
}

impl QuantLevel for u8 {
    const LEVELS: u32 = 1 << 8;
    const NAME: &'static str = "u8";
    const BYTES: usize = 1;
    #[inline]
    fn from_level(level: u32) -> Self {
        debug_assert!(level < Self::LEVELS);
        level as u8
    }
    #[inline]
    fn level(self) -> u32 {
        self as u32
    }
}

impl QuantLevel for u16 {
    const LEVELS: u32 = 1 << 16;
    const NAME: &'static str = "u16";
    const BYTES: usize = 2;
    #[inline]
    fn from_level(level: u32) -> Self {
        debug_assert!(level < Self::LEVELS);
        level as u16
    }
    #[inline]
    fn level(self) -> u32 {
        self as u32
    }
}

/// Per-feature affine grid parameters: grid point `l` is
/// `offset + (l as f32) * scale`, evaluated in f32.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParam {
    /// Grid origin (the smallest threshold seen on this feature).
    pub offset: f32,
    /// Grid step; `0.0` when the feature has at most one distinct
    /// threshold (the grid degenerates to a single point).
    pub scale: f32,
}

/// Bytes one [`QuantParam`] occupies in the resident layout.
pub const QUANT_PARAM_BYTES: usize = 8;

/// Per-feature monotone threshold quantizer fitted to one forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdQuantizer {
    params: Vec<QuantParam>,
    levels: u32,
}

impl ThresholdQuantizer {
    /// Fits a grid with `levels` points per feature to the thresholds of
    /// `forest`. Features never used by an inner node get a degenerate
    /// `(0, 0)` grid that is never consulted during traversal.
    pub fn fit(forest: &RandomForest, levels: u32) -> Self {
        assert!(levels >= 2, "need at least two grid levels");
        let nf = forest.num_features();
        let mut lo = vec![f32::INFINITY; nf];
        let mut hi = vec![f32::NEG_INFINITY; nf];
        for tree in forest.trees() {
            for node in tree.nodes() {
                if let Node::Inner { feature, threshold, .. } = *node {
                    let f = feature as usize;
                    lo[f] = lo[f].min(threshold);
                    hi[f] = hi[f].max(threshold);
                }
            }
        }
        let params = (0..nf)
            .map(|f| {
                if lo[f] > hi[f] {
                    QuantParam { offset: 0.0, scale: 0.0 }
                } else {
                    // f64 intermediate keeps the step exact-ish; the cast
                    // back to f32 is absorbed by the round-trip bound.
                    let scale = ((hi[f] as f64 - lo[f] as f64) / f64::from(levels - 1)) as f32;
                    QuantParam { offset: lo[f], scale }
                }
            })
            .collect();
        Self { params, levels }
    }

    /// Convenience: fit for a specific level type.
    pub fn fit_for<T: QuantLevel>(forest: &RandomForest) -> Self {
        Self::fit(forest, T::LEVELS)
    }

    /// Grid levels per feature.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Query width the quantizer was fitted for.
    pub fn num_features(&self) -> usize {
        self.params.len()
    }

    /// Grid parameters of one feature.
    pub fn param(&self, feature: usize) -> QuantParam {
        self.params[feature]
    }

    /// The canonical grid function — the **only** place a level becomes an
    /// `f32`. Every layout and the snapped oracle forest call this, which
    /// is what makes quantized traversal bit-exact vs the snapped forest.
    #[inline]
    pub fn dequantize(&self, feature: usize, level: u32) -> f32 {
        let p = self.params[feature];
        p.offset + level as f32 * p.scale
    }

    /// Nearest grid level for threshold `t` on `feature`.
    pub fn quantize(&self, feature: usize, t: f32) -> u32 {
        let p = self.params[feature];
        if p.scale == 0.0 {
            return 0;
        }
        let l = ((f64::from(t) - f64::from(p.offset)) / f64::from(p.scale)).round();
        (l.max(0.0) as u32).min(self.levels - 1)
    }

    /// Exact grid rank of a raw query value: `#{l ∈ 0..levels : ¬(x < g(l))}`.
    ///
    /// The f32 grid is monotone nondecreasing in `l` (exact grid points are
    /// increasing and f32 rounding is order-preserving), so `x < g(l)` fails
    /// on a prefix of levels and binary search finds the boundary exactly.
    /// Consequently `rank(x) > l ⇔ ¬(x < g(l))` with **no** approximation,
    /// and integer-rank traversal branches identically to the f32 path —
    /// NaN included: it compares below nothing, ranks `levels`, and goes
    /// right at every node, as it does in the reference traversal.
    pub fn grid_rank(&self, feature: usize, x: f32) -> u32 {
        let p = self.params[feature];
        if p.scale == 0.0 {
            return if x < p.offset { 0 } else { self.levels };
        }
        let (mut lo, mut hi) = (0u32, self.levels);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if x < self.dequantize(feature, mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Maps a raw query row to grid ranks, the integer-only comparator
    /// input (the FPGA front half: one binary search per feature, then the
    /// whole forest traverses without touching floats).
    pub fn quantize_row(&self, query: &[f32]) -> Vec<u32> {
        (0..self.params.len().min(query.len())).map(|f| self.grid_rank(f, query[f])).collect()
    }

    /// The f32 forest with every threshold snapped to its grid point —
    /// the oracle that quantized layouts match **bit-identically**.
    pub fn snap_forest(&self, forest: &RandomForest) -> RandomForest {
        let trees = forest
            .trees()
            .iter()
            .map(|tree| {
                let nodes = tree
                    .nodes()
                    .iter()
                    .map(|node| match *node {
                        Node::Leaf { label } => Node::Leaf { label },
                        Node::Inner { feature, threshold, left, right } => Node::Inner {
                            feature,
                            threshold: self.dequantize(
                                feature as usize,
                                self.quantize(feature as usize, threshold),
                            ),
                            left,
                            right,
                        },
                    })
                    .collect();
                DecisionTree::from_nodes(nodes).expect("snapping preserves structure")
            })
            .collect();
        RandomForest::from_trees(trees, forest.num_features(), forest.num_classes())
            .expect("snapping preserves shape")
    }

    /// Bytes the per-feature parameter table occupies at inference time.
    pub fn table_bytes(&self) -> usize {
        self.params.len() * QUANT_PARAM_BYTES
    }
}

// --- QFil: packed FIL-style layout ----------------------------------------

/// Bits of the QFil feature field.
pub const QFIL_FEATURE_BITS: u32 = 10;
/// Maximum query width a [`QFilForest`] can encode.
pub const QFIL_MAX_FEATURES: usize = 1 << QFIL_FEATURE_BITS;
/// Maximum nodes per tree (21-bit tree-local child index).
pub const QFIL_MAX_TREE_NODES: usize = 1 << (31 - QFIL_FEATURE_BITS);
/// Maximum class label (31-bit leaf payload).
pub const QFIL_MAX_LABEL: u32 = (1 << 31) - 1;

pub(crate) const QFIL_FEATURE_MASK: u32 = (QFIL_MAX_FEATURES as u32) - 1;

/// One packed QFil meta word.
///
/// * leaf:  `label << 1 | 1`
/// * inner: `left_child << 11 | feature << 1` (leaf bit 0 clear); the
///   right child is `left_child + 1` (FIL sibling adjacency), and the
///   threshold level lives in the parallel `qvalue` array.
#[inline]
pub(crate) fn qfil_pack_inner(feature: u32, left_child: u32) -> u32 {
    (left_child << (QFIL_FEATURE_BITS + 1)) | (feature << 1)
}

#[inline]
pub(crate) fn qfil_pack_leaf(label: u32) -> u32 {
    (label << 1) | 1
}

/// The one place a QFil node (meta word + grid level) is decoded on the
/// f32 path, shared by [`QFilForest`] and the packed
/// [`crate::pack::PackedQFilForest`]: `Some(label)` on a leaf (the cursor
/// stays put), otherwise the cursor moves one level down to the child
/// `query` selects against the dequantized threshold.
#[inline]
pub(crate) fn qfil_step<T: QuantLevel>(
    meta: &[u32],
    qvalue: &[T],
    quantizer: &ThresholdQuantizer,
    cursor: &mut FilCursor,
    query: &[f32],
) -> Option<Label> {
    let at = cursor.at as usize;
    let m = meta[at];
    if m & 1 == 1 {
        return Some(m >> 1);
    }
    let f = ((m >> 1) & QFIL_FEATURE_MASK) as usize;
    let thr = quantizer.dequantize(f, qvalue[at].level());
    // `<`, negated, not `>=`: a NaN query goes right, as in the reference.
    let go_left = query[f] < thr;
    cursor.at = cursor.base + (m >> (QFIL_FEATURE_BITS + 1)) + u32::from(!go_left);
    None
}

/// FIL-style quantized forest: BFS node order, sibling adjacency
/// (`right = left + 1`), one meta word + one grid level per node.
///
/// Node cost: `4 + T::BYTES` bytes (5 B at u8) vs the 12 B f32
/// [`crate::fil::FilNode`].
#[derive(Debug, Clone, PartialEq)]
pub struct QFilForest<T: QuantLevel> {
    meta: Vec<u32>,
    qvalue: Vec<T>,
    /// Node base of tree `t` (len = num_trees + 1).
    tree_offset: Vec<u32>,
    quantizer: ThresholdQuantizer,
    num_classes: u32,
    num_features: usize,
}

impl<T: QuantLevel> QFilForest<T> {
    /// Quantizes and packs `forest`. Fails with [`LayoutError::BadConfig`]
    /// when the forest exceeds the bitfield budgets (`num_features` >
    /// [`QFIL_MAX_FEATURES`], a tree wider than [`QFIL_MAX_TREE_NODES`],
    /// or a label above [`QFIL_MAX_LABEL`]).
    pub fn build(forest: &RandomForest) -> Result<Self, LayoutError> {
        if forest.num_features() > QFIL_MAX_FEATURES {
            return Err(LayoutError::BadConfig {
                detail: format!(
                    "qfil-{} feature field is {} bits; forest has {} features (max {})",
                    T::NAME,
                    QFIL_FEATURE_BITS,
                    forest.num_features(),
                    QFIL_MAX_FEATURES
                ),
            });
        }
        if forest.num_classes().saturating_sub(1) > QFIL_MAX_LABEL {
            return Err(LayoutError::BadConfig {
                detail: format!(
                    "qfil-{} leaf payload is 31 bits; forest has {} classes",
                    T::NAME,
                    forest.num_classes()
                ),
            });
        }
        let quantizer = ThresholdQuantizer::fit(forest, T::LEVELS);
        let mut meta = Vec::with_capacity(forest.total_nodes());
        let mut qvalue = Vec::with_capacity(forest.total_nodes());
        let mut tree_offset = Vec::with_capacity(forest.num_trees() + 1);
        for (t, tree) in forest.trees().iter().enumerate() {
            if tree.num_nodes() > QFIL_MAX_TREE_NODES {
                return Err(LayoutError::BadConfig {
                    detail: format!(
                        "qfil-{} child field addresses {} nodes; tree {t} has {}",
                        T::NAME,
                        QFIL_MAX_TREE_NODES,
                        tree.num_nodes()
                    ),
                });
            }
            tree_offset.push(meta.len() as u32);
            append_tree_packed(tree, &quantizer, &mut meta, &mut qvalue);
        }
        tree_offset.push(meta.len() as u32);
        Ok(Self {
            meta,
            qvalue,
            tree_offset,
            quantizer,
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        })
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

    /// Total node count across trees.
    pub fn total_nodes(&self) -> usize {
        self.meta.len()
    }

    /// The fitted grid.
    pub fn quantizer(&self) -> &ThresholdQuantizer {
        &self.quantizer
    }

    /// A walk standing at the root of tree `t`.
    #[inline]
    pub fn root(&self, t: usize) -> FilCursor {
        let base = self.tree_offset[t];
        FilCursor { base, at: base }
    }

    /// Advances `cursor` one level on the f32 path: `Some(label)` on a
    /// leaf (the cursor stays put), otherwise the cursor moves to the child
    /// `query` selects against the dequantized threshold.
    #[inline]
    pub fn step(&self, cursor: &mut FilCursor, query: &[f32]) -> Option<Label> {
        qfil_step(&self.meta, &self.qvalue, &self.quantizer, cursor, query)
    }

    /// Classifies `query` with tree `t` on the f32 path: thresholds are
    /// reconstructed through [`ThresholdQuantizer::dequantize`], so the
    /// branch taken at every node equals the snapped forest's.
    pub fn predict_tree(&self, t: usize, query: &[f32]) -> Label {
        crate::walk(self.root(t), |cursor| self.step(cursor, query))
    }

    /// Integer-only traversal over a pre-ranked query
    /// ([`ThresholdQuantizer::quantize_row`]): `rank > level ⇔ x ≥ g(level)`,
    /// so this takes exactly the branches of [`Self::predict_tree`]. This is
    /// the functional reference for the FPGA integer comparator datapath.
    pub fn predict_tree_quantized(&self, t: usize, qrow: &[u32]) -> Label {
        let base = self.tree_offset[t] as usize;
        let mut n = 0usize;
        loop {
            let m = self.meta[base + n];
            if m & 1 == 1 {
                return m >> 1;
            }
            let f = ((m >> 1) & QFIL_FEATURE_MASK) as usize;
            let go_right = qrow[f] > self.qvalue[base + n].level();
            n = (m >> (QFIL_FEATURE_BITS + 1)) as usize + usize::from(go_right);
        }
    }

    /// Majority-vote classification of one query.
    pub fn predict(&self, query: &[f32]) -> Label {
        let mut votes = vec![0u32; self.num_classes as usize];
        for t in 0..self.num_trees() {
            votes[self.predict_tree(t, query) as usize] += 1;
        }
        crate::majority(&votes)
    }

    /// Classifies like [`QFilForest::predict_tree`] while reporting each
    /// simulated memory fetch to `sink`. The attribute region lays the
    /// packed `meta` words (4 B/node) then the quantized levels
    /// (`T::BYTES`/node) back to back — `4 + T::BYTES` attribute bytes
    /// per inner node, the compression the footprint matrix reports.
    /// Leaves read only their meta word, exactly like the untraced walk.
    pub fn predict_tree_traced(
        &self,
        t: usize,
        query: &[f32],
        sink: &mut dyn crate::memprobe::FetchSink,
    ) -> Label {
        let base = self.tree_offset[t] as usize;
        let qvalue_base = (self.meta.len() * 4) as u64;
        let mut n = 0usize;
        loop {
            let g = base + n;
            sink.attribute((g * 4) as u64, 4);
            let m = self.meta[g];
            if m & 1 == 1 {
                return m >> 1;
            }
            sink.attribute(qvalue_base + (g * T::BYTES) as u64, T::BYTES as u32);
            let f = ((m >> 1) & QFIL_FEATURE_MASK) as usize;
            let thr = self.quantizer.dequantize(f, self.qvalue[g].level());
            sink.query(f as u32);
            let go_left = query[f] < thr;
            n = (m >> (QFIL_FEATURE_BITS + 1)) as usize + usize::from(!go_left);
        }
    }

    /// Bytes actually resident: packed meta + levels as attributes, tree
    /// offsets plus the quantizer's parameter table as index overhead.
    pub fn footprint(&self) -> LayoutFootprint {
        LayoutFootprint {
            attribute_bytes: self.meta.len() * (4 + T::BYTES),
            topology_bytes: 0, // topology is embedded in the meta words
            index_bytes: self.tree_offset.len() * 4 + self.quantizer.table_bytes(),
        }
    }
}

/// Re-emits one tree in BFS order (sibling pairs adjacent) in packed form.
fn append_tree_packed<T: QuantLevel>(
    tree: &DecisionTree,
    quantizer: &ThresholdQuantizer,
    meta: &mut Vec<u32>,
    qvalue: &mut Vec<T>,
) {
    let base = meta.len();
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
    for &old in &order {
        match tree.nodes()[old as usize] {
            Node::Leaf { label } => {
                meta.push(qfil_pack_leaf(label));
                qvalue.push(T::from_level(0));
            }
            Node::Inner { feature, threshold, left, .. } => {
                let f = feature as usize;
                meta.push(qfil_pack_inner(feature as u32, new_id[left as usize]));
                qvalue.push(T::from_level(quantizer.quantize(f, threshold)));
            }
        }
    }
    debug_assert_eq!(meta.len() - base, tree.num_nodes());
}

// --- QCsr: packed CSR-style layout ----------------------------------------

/// Maximum query width a [`QCsrForest`] can encode (15-bit feature field).
pub const QCSR_MAX_FEATURES: usize = 1 << 15;
/// Maximum class label (15-bit leaf payload).
pub const QCSR_MAX_LABEL: u32 = (1 << 15) - 1;

const QCSR_LEAF_BIT: u16 = 1 << 15;

/// CSR-style quantized forest: source node order, explicit child pairs,
/// one `u16` meta word (leaf bit + feature/label) + one grid level per
/// node. Attribute cost: `2 + T::BYTES` bytes per node vs CSR's 6.
#[derive(Debug, Clone, PartialEq)]
pub struct QCsrForest<T: QuantLevel> {
    /// `leaf_bit | feature` for inner nodes, `leaf_bit | label` for leaves.
    meta: Vec<u16>,
    qvalue: Vec<T>,
    /// Start of each node's children within `children_arr` (0 for leaves).
    children_arr_idx: Vec<u32>,
    /// Child node ids, two consecutive entries per inner node (tree-local).
    children_arr: Vec<u32>,
    /// Node base of tree `t` (len = num_trees + 1).
    tree_node_offset: Vec<u32>,
    /// `children_arr` base of tree `t` (len = num_trees + 1).
    tree_child_offset: Vec<u32>,
    quantizer: ThresholdQuantizer,
    num_classes: u32,
    num_features: usize,
}

impl<T: QuantLevel> QCsrForest<T> {
    /// Quantizes and packs `forest`. Fails with [`LayoutError::BadConfig`]
    /// when `num_features` > [`QCSR_MAX_FEATURES`] or a label exceeds
    /// [`QCSR_MAX_LABEL`].
    pub fn build(forest: &RandomForest) -> Result<Self, LayoutError> {
        if forest.num_features() > QCSR_MAX_FEATURES {
            return Err(LayoutError::BadConfig {
                detail: format!(
                    "qcsr-{} feature field is 15 bits; forest has {} features (max {})",
                    T::NAME,
                    forest.num_features(),
                    QCSR_MAX_FEATURES
                ),
            });
        }
        if forest.num_classes().saturating_sub(1) > QCSR_MAX_LABEL {
            return Err(LayoutError::BadConfig {
                detail: format!(
                    "qcsr-{} leaf payload is 15 bits; forest has {} classes",
                    T::NAME,
                    forest.num_classes()
                ),
            });
        }
        let quantizer = ThresholdQuantizer::fit(forest, T::LEVELS);
        let total_nodes = forest.total_nodes();
        let mut meta = Vec::with_capacity(total_nodes);
        let mut qvalue = Vec::with_capacity(total_nodes);
        let mut children_arr_idx = Vec::with_capacity(total_nodes);
        let mut children_arr = Vec::new();
        let mut tree_node_offset = Vec::with_capacity(forest.num_trees() + 1);
        let mut tree_child_offset = Vec::with_capacity(forest.num_trees() + 1);
        for tree in forest.trees() {
            tree_node_offset.push(meta.len() as u32);
            tree_child_offset.push(children_arr.len() as u32);
            let child_base = children_arr.len() as u32;
            for node in tree.nodes() {
                match *node {
                    Node::Leaf { label } => {
                        meta.push(QCSR_LEAF_BIT | label as u16);
                        qvalue.push(T::from_level(0));
                        children_arr_idx.push(0);
                    }
                    Node::Inner { feature, threshold, left, right } => {
                        meta.push(feature);
                        qvalue.push(T::from_level(quantizer.quantize(feature as usize, threshold)));
                        children_arr_idx.push(children_arr.len() as u32 - child_base);
                        children_arr.push(left);
                        children_arr.push(right);
                    }
                }
            }
        }
        tree_node_offset.push(meta.len() as u32);
        tree_child_offset.push(children_arr.len() as u32);
        Ok(Self {
            meta,
            qvalue,
            children_arr_idx,
            children_arr,
            tree_node_offset,
            tree_child_offset,
            quantizer,
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        })
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
        self.meta.len()
    }

    /// The fitted grid.
    pub fn quantizer(&self) -> &ThresholdQuantizer {
        &self.quantizer
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

    /// Advances `cursor` one level on the f32 path (same branch decisions
    /// as the snapped forest, like [`QFilForest::step`]): `Some(label)` on a leaf,
    /// otherwise the cursor moves to the selected child. The one place
    /// this layout's nodes are decoded for f32 queries.
    #[inline]
    pub fn step(&self, cursor: &mut CsrCursor, query: &[f32]) -> Option<Label> {
        let g = (cursor.node_base + cursor.node) as usize;
        let m = self.meta[g];
        if m & QCSR_LEAF_BIT != 0 {
            return Some(u32::from(m & !QCSR_LEAF_BIT));
        }
        let f = m as usize;
        let thr = self.quantizer.dequantize(f, self.qvalue[g].level());
        let idx = self.children_arr_idx[g];
        let go_left = query[f] < thr;
        cursor.node = self.children_arr[(cursor.child_base + idx + u32::from(!go_left)) as usize];
        None
    }

    /// Classifies `query` with tree `t` on the f32 path.
    pub fn predict_tree(&self, t: usize, query: &[f32]) -> Label {
        crate::walk(self.root(t), |cursor| self.step(cursor, query))
    }

    /// Integer-only traversal over a pre-ranked query:
    /// `rank ≤ level ⇔ x < g(level)` (see
    /// [`QFilForest::predict_tree_quantized`]).
    pub fn predict_tree_quantized(&self, t: usize, qrow: &[u32]) -> Label {
        let node_base = self.tree_node_offset[t] as usize;
        let child_base = self.tree_child_offset[t] as usize;
        let mut n = 0usize;
        loop {
            let m = self.meta[node_base + n];
            if m & QCSR_LEAF_BIT != 0 {
                return u32::from(m & !QCSR_LEAF_BIT);
            }
            let f = m as usize;
            let idx = self.children_arr_idx[node_base + n] as usize;
            let go_left = qrow[f] <= self.qvalue[node_base + n].level();
            n = self.children_arr[child_base + idx + usize::from(!go_left)] as usize;
        }
    }

    /// Majority-vote classification of one query.
    pub fn predict(&self, query: &[f32]) -> Label {
        let mut votes = vec![0u32; self.num_classes as usize];
        for t in 0..self.num_trees() {
            votes[self.predict_tree(t, query) as usize] += 1;
        }
        crate::majority(&votes)
    }

    /// Classifies like [`QCsrForest::predict_tree`] while reporting each
    /// simulated memory fetch to `sink`. Attribute region: `meta`
    /// (2 B/node) then quantized levels (`T::BYTES`/node); topology
    /// region: `children_arr_idx` then `children_arr` (4 B each), as in
    /// [`crate::CsrForest::predict_tree_traced`].
    pub fn predict_tree_traced(
        &self,
        t: usize,
        query: &[f32],
        sink: &mut dyn crate::memprobe::FetchSink,
    ) -> Label {
        let node_base = self.tree_node_offset[t] as usize;
        let child_base = self.tree_child_offset[t] as usize;
        let qvalue_base = (self.meta.len() * 2) as u64;
        let children_base = (self.children_arr_idx.len() * 4) as u64;
        let mut n = 0usize;
        loop {
            let g = node_base + n;
            sink.attribute((g * 2) as u64, 2);
            let m = self.meta[g];
            if m & QCSR_LEAF_BIT != 0 {
                return u32::from(m & !QCSR_LEAF_BIT);
            }
            sink.attribute(qvalue_base + (g * T::BYTES) as u64, T::BYTES as u32);
            let f = m as usize;
            let thr = self.quantizer.dequantize(f, self.qvalue[g].level());
            sink.topology((g * 4) as u64, 4);
            let idx = self.children_arr_idx[g] as usize;
            sink.query(f as u32);
            let go_left = query[f] < thr;
            let slot = child_base + idx + usize::from(!go_left);
            sink.topology(children_base + (slot * 4) as u64, 4);
            n = self.children_arr[slot] as usize;
        }
    }

    /// Bytes actually resident (see [`QFilForest::footprint`]).
    pub fn footprint(&self) -> LayoutFootprint {
        LayoutFootprint {
            attribute_bytes: self.meta.len() * (2 + T::BYTES),
            topology_bytes: self.children_arr_idx.len() * 4 + self.children_arr.len() * 4,
            index_bytes: (self.tree_node_offset.len() + self.tree_child_offset.len()) * 4
                + self.quantizer.table_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fil::FilForest;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_forest(
        n_trees: usize,
        depth: usize,
        nf: usize,
        classes: u32,
        seed: u64,
    ) -> RandomForest {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> = (0..n_trees)
            .map(|_| DecisionTree::random(&mut rng, depth, nf as u16, classes, 0.3))
            .collect();
        RandomForest::from_trees(trees, nf, classes).unwrap()
    }

    #[test]
    fn grid_is_monotone_nondecreasing() {
        let forest = random_forest(5, 8, 7, 3, 11);
        let q = ThresholdQuantizer::fit_for::<u8>(&forest);
        for f in 0..7 {
            let mut prev = f32::NEG_INFINITY;
            for l in 0..u8::LEVELS {
                let g = q.dequantize(f, l);
                assert!(g >= prev, "feature {f} level {l}: {g} < {prev}");
                prev = g;
            }
        }
    }

    #[test]
    fn round_trip_is_within_half_a_step() {
        let forest = random_forest(8, 9, 5, 3, 23);
        let q = ThresholdQuantizer::fit_for::<u16>(&forest);
        for tree in forest.trees() {
            for node in tree.nodes() {
                if let Node::Inner { feature, threshold, .. } = *node {
                    let f = feature as usize;
                    let rt = q.dequantize(f, q.quantize(f, threshold));
                    let step = f64::from(q.param(f).scale);
                    let slop = (f64::from(threshold.abs()) + step * f64::from(u16::LEVELS))
                        * f64::from(f32::EPSILON)
                        * 4.0;
                    assert!(
                        (f64::from(rt) - f64::from(threshold)).abs() <= 0.5 * step + slop,
                        "feature {f}: {threshold} -> {rt} (step {step})"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_rank_agrees_with_f32_comparison() {
        // rank(x) > l  ⇔  x ≥ g(l): the exactness claim behind the
        // integer comparator path, checked exhaustively at u8.
        let forest = random_forest(6, 8, 4, 2, 31);
        let q = ThresholdQuantizer::fit_for::<u8>(&forest);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let f = rng.gen_range(0..4usize);
            // Mix of in-range, out-of-range, and exact grid points.
            let x = match rng.gen_range(0..3) {
                0 => rng.gen::<f32>() * 2.0 - 0.5,
                1 => q.dequantize(f, rng.gen_range(0..u8::LEVELS)),
                _ => rng.gen::<f32>() * 100.0 - 50.0,
            };
            let rank = q.grid_rank(f, x);
            for l in (0..u8::LEVELS).step_by(7) {
                assert_eq!(rank > l, x >= q.dequantize(f, l), "f={f} x={x} l={l}");
            }
        }
    }

    #[test]
    fn layouts_match_snapped_forest_exactly() {
        let forest = random_forest(10, 9, 7, 4, 42);
        let qfil = QFilForest::<u8>::build(&forest).unwrap();
        let qcsr = QCsrForest::<u8>::build(&forest).unwrap();
        let snapped = qfil.quantizer().snap_forest(&forest);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..400 {
            let qv: Vec<f32> = (0..7).map(|_| rng.gen::<f32>() * 1.5 - 0.25).collect();
            let want = snapped.predict(&qv);
            assert_eq!(qfil.predict(&qv), want);
            assert_eq!(qcsr.predict(&qv), want);
            for t in 0..forest.num_trees() {
                let tw = snapped.trees()[t].predict(&qv);
                assert_eq!(qfil.predict_tree(t, &qv), tw);
                assert_eq!(qcsr.predict_tree(t, &qv), tw);
            }
        }
    }

    #[test]
    fn traced_traversals_match_untraced_and_report_packed_widths() {
        use crate::memprobe::CountingSink;
        let forest = random_forest(6, 8, 7, 3, 13);
        let qfil = QFilForest::<u8>::build(&forest).unwrap();
        let qcsr = QCsrForest::<u8>::build(&forest).unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        let mut fil_sink = CountingSink::default();
        let mut csr_sink = CountingSink::default();
        let traversals = 150 * forest.num_trees() as u64;
        for _ in 0..150 {
            let qv: Vec<f32> = (0..7).map(|_| rng.gen::<f32>() * 1.5 - 0.25).collect();
            for t in 0..forest.num_trees() {
                assert_eq!(
                    qfil.predict_tree_traced(t, &qv, &mut fil_sink),
                    qfil.predict_tree(t, &qv)
                );
                assert_eq!(
                    qcsr.predict_tree_traced(t, &qv, &mut csr_sink),
                    qcsr.predict_tree(t, &qv)
                );
            }
        }
        // QFil: every visit reads the 4 B meta word; inner visits add a
        // 1 B quantized level. Topology is embedded in meta.
        let fil_inner = fil_sink.query_fetches;
        let fil_visits = fil_inner + traversals;
        assert_eq!(fil_sink.attribute_fetches, fil_visits + fil_inner);
        assert_eq!(fil_sink.attribute_bytes, fil_visits * 4 + fil_inner);
        assert_eq!(fil_sink.topology_fetches, 0);
        // QCsr: 2 B meta per visit + 1 B level per inner visit, plus
        // CSR's two 4 B topology reads per inner visit.
        let csr_inner = csr_sink.query_fetches;
        let csr_visits = csr_inner + traversals;
        assert_eq!(csr_sink.attribute_fetches, csr_visits + csr_inner);
        assert_eq!(csr_sink.attribute_bytes, csr_visits * 2 + csr_inner);
        assert_eq!(csr_sink.topology_fetches, csr_inner * 2);
        assert_eq!(csr_sink.topology_bytes, csr_inner * 8);
        // Both layouts walk the same snapped forest: identical visit counts.
        assert_eq!(fil_visits, csr_visits);
    }

    #[test]
    fn integer_path_matches_f32_path() {
        let forest = random_forest(9, 8, 6, 3, 5);
        let qfil = QFilForest::<u16>::build(&forest).unwrap();
        let qcsr = QCsrForest::<u16>::build(&forest).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let qv: Vec<f32> = (0..6).map(|_| rng.gen::<f32>() * 3.0 - 1.0).collect();
            let ranks = qfil.quantizer().quantize_row(&qv);
            for t in 0..forest.num_trees() {
                assert_eq!(qfil.predict_tree_quantized(t, &ranks), qfil.predict_tree(t, &qv));
                assert_eq!(qcsr.predict_tree_quantized(t, &ranks), qcsr.predict_tree(t, &qv));
            }
        }
    }

    #[test]
    fn u16_snapping_rarely_moves_predictions() {
        // Not an exactness property — just a sanity check that the u16
        // grid is fine enough that most predictions survive quantization.
        let forest = random_forest(12, 9, 7, 3, 77);
        let qfil = QFilForest::<u16>::build(&forest).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut moved = 0;
        for _ in 0..500 {
            let qv: Vec<f32> = (0..7).map(|_| rng.gen::<f32>()).collect();
            if qfil.predict(&qv) != forest.predict(&qv) {
                moved += 1;
            }
        }
        assert!(moved < 25, "u16 quantization moved {moved}/500 predictions");
    }

    #[test]
    fn feature_budget_is_enforced() {
        let mut rng = StdRng::seed_from_u64(1);
        let trees = vec![DecisionTree::random(&mut rng, 4, 2000, 2, 0.3)];
        let forest = RandomForest::from_trees(trees, 2000, 2).unwrap();
        assert!(matches!(QFilForest::<u8>::build(&forest), Err(LayoutError::BadConfig { .. })));
        // QCsr's 15-bit feature field still fits 2000 features.
        assert!(QCsrForest::<u8>::build(&forest).is_ok());
    }

    #[test]
    fn label_budget_is_enforced() {
        let forest = RandomForest::from_trees(vec![DecisionTree::leaf(40_000)], 3, 40_001).unwrap();
        assert!(matches!(QCsrForest::<u8>::build(&forest), Err(LayoutError::BadConfig { .. })));
        assert_eq!(QFilForest::<u8>::build(&forest).unwrap().predict(&[0.0; 3]), 40_000);
    }

    #[test]
    fn qfil_u8_is_under_half_the_f32_fil_footprint() {
        let forest = random_forest(10, 10, 8, 3, 21);
        let fil = FilForest::build(&forest).footprint();
        let qfil = QFilForest::<u8>::build(&forest).unwrap().footprint();
        assert!(
            (qfil.total() as f64) < 0.5 * fil.total() as f64,
            "qfil {} vs fil {}",
            qfil.total(),
            fil.total()
        );
        // 5 B per node at u8.
        let n = forest.total_nodes();
        assert_eq!(qfil.attribute_bytes, n * 5);
    }

    #[test]
    fn single_leaf_tree_works() {
        let forest = RandomForest::from_trees(vec![DecisionTree::leaf(2)], 4, 3).unwrap();
        let qfil = QFilForest::<u8>::build(&forest).unwrap();
        let qcsr = QCsrForest::<u16>::build(&forest).unwrap();
        assert_eq!(qfil.predict(&[0.0; 4]), 2);
        assert_eq!(qcsr.predict(&[0.0; 4]), 2);
        assert_eq!(qfil.predict_tree_quantized(0, &[0; 4]), 2);
    }

    #[test]
    fn meta_packing_round_trips() {
        let m = qfil_pack_inner(1023, (QFIL_MAX_TREE_NODES as u32) - 1);
        assert_eq!(m & 1, 0);
        assert_eq!((m >> 1) & QFIL_FEATURE_MASK, 1023);
        assert_eq!(m >> (QFIL_FEATURE_BITS + 1), (QFIL_MAX_TREE_NODES as u32) - 1);
        let l = qfil_pack_leaf(QFIL_MAX_LABEL);
        assert_eq!(l & 1, 1);
        assert_eq!(l >> 1, QFIL_MAX_LABEL);
    }

    /// `predict_tree` is `loop { step }` on both quantized layouts:
    /// walking a cursor by hand lands on the traced twin's (and the
    /// snapped oracle's) label, one level per step, and the integer
    /// path agrees — NaN queries included.
    #[test]
    fn step_loops_match_the_traced_twins() {
        use crate::memprobe::CountingSink;
        let forest = random_forest(6, 8, 7, 3, 43);
        let qfil = QFilForest::<u8>::build(&forest).unwrap();
        let qcsr = QCsrForest::<u8>::build(&forest).unwrap();
        let snapped = qfil.quantizer().snap_forest(&forest);
        let mut rng = StdRng::seed_from_u64(47);
        for i in 0..200 {
            let mut q: Vec<f32> = (0..7).map(|_| rng.gen::<f32>() * 1.5 - 0.25).collect();
            if i % 5 == 0 {
                q[i % 7] = f32::NAN;
            }
            let ranks = qfil.quantizer().quantize_row(&q);
            for t in 0..forest.num_trees() {
                let want = snapped.trees()[t].predict(&q);
                let mut sink = CountingSink::default();
                assert_eq!(qfil.predict_tree_traced(t, &q, &mut sink), want);
                let mut steps = 0u64;
                let label = crate::walk(qfil.root(t), |cursor| {
                    steps += 1;
                    qfil.step(cursor, &q)
                });
                assert_eq!(label, want);
                // One meta word per visit plus one level per inner visit.
                assert_eq!(2 * steps - 1, sink.attribute_fetches, "one level per step");
                assert_eq!(qfil.predict_tree_quantized(t, &ranks), want);

                let mut sink = CountingSink::default();
                assert_eq!(qcsr.predict_tree_traced(t, &q, &mut sink), want);
                let label = crate::walk(qcsr.root(t), |cursor| qcsr.step(cursor, &q));
                assert_eq!(label, want);
                assert_eq!(qcsr.predict_tree_quantized(t, &ranks), want);
            }
        }
    }
}
