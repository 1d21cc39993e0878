//! The quantized & compressed node format of the FIL family.
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
//!    child offset are bitfield-packed into one `u32` meta word per node
//!    beside its level ([`QuantNodes`], the node format of [`QFilForest`]
//!    and the packed [`crate::PackedQFilForest`]), replacing the 12 B FIL
//!    record.
//!
//! The integer-only comparator path (`predict_tree_quantized`) mirrors the
//! FPGA datapath: queries are pre-mapped to grid *ranks*
//! ([`ThresholdQuantizer::quantize_row`], where `rank(x) = #{l : g(l) ≤ x}`)
//! and traversal compares ranks. Because f32 rounding is order-preserving,
//! the grid is monotone nondecreasing in `l`, the rank is computed by exact
//! binary search, and `rank(x) > l ⇔ x ≥ g(l)` — the integer path takes
//! exactly the same branches as the f32 path (a NaN query ranks past
//! every level and goes right at every node, as in the reference).

use crate::fil::{FilCursor, FilStore, NodeFormat, PerTree};
use crate::memprobe::FetchSink;
use crate::{goes_right, Label, LayoutError};
use rfx_forest::{DecisionTree, Node, RandomForest};

/// Committed bound on `|accuracy(f32 forest) − accuracy(u8-quantized)|`
/// over the accuracy-profile datasets. Enforced by
/// `tests/accuracy_profiles.rs`.
pub const MAX_ACCURACY_DELTA_U8: f64 = 0.02;

/// Committed bound on the u16 accuracy delta (see [`MAX_ACCURACY_DELTA_U8`]).
pub const MAX_ACCURACY_DELTA_U16: f64 = 0.005;

/// A storable threshold grid level: `u8` (256 levels) or `u16` (65 536).
pub trait QuantLevel: Copy + std::fmt::Debug + PartialEq + Send + Sync + 'static {
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

    /// `forest` on its own `T` grid: every threshold snapped to the grid
    /// fitted on the result, so fitting again snaps nothing further. A
    /// quantized layout built from it (which fits its own grid) then
    /// answers exactly like the f32 layouts do on it, so an exact and a
    /// quantized executor can be held to one oracle. One snap is not
    /// always enough: the top grid point rounds in f32, so the grid fitted
    /// on a snapped forest can differ from the first by an ulp of scale;
    /// snapping repeats until the grid stops moving.
    ///
    /// # Panics
    /// If the grid still moves after eight snaps.
    pub fn snap_to_grid<T: QuantLevel>(forest: &RandomForest) -> RandomForest {
        const SNAP_ROUNDS: usize = 8;
        let mut snapped = Self::fit_for::<T>(forest).snap_forest(forest);
        for _ in 1..SNAP_ROUNDS {
            let again = Self::fit_for::<T>(&snapped).snap_forest(&snapped);
            if again == snapped {
                return snapped;
            }
            snapped = again;
        }
        panic!("the {} grid still moved after {SNAP_ROUNDS} snaps", T::NAME)
    }

    /// Bytes the per-feature parameter table occupies at inference time.
    pub fn table_bytes(&self) -> usize {
        self.params.len() * QUANT_PARAM_BYTES
    }
}

// --- QFil: the quantized node format ---------------------------------------

/// Bits of the QFil feature field.
pub const QFIL_FEATURE_BITS: u32 = 10;
/// Maximum query width a QFil forest can encode.
pub const QFIL_MAX_FEATURES: usize = 1 << QFIL_FEATURE_BITS;
/// Maximum nodes per placement unit — a tree of [`QFilForest`], a shard
/// of [`crate::PackedQFilForest`] (21-bit unit-local child index).
pub const QFIL_MAX_TREE_NODES: usize = 1 << (31 - QFIL_FEATURE_BITS);
/// Maximum class label (31-bit leaf payload).
pub const QFIL_MAX_LABEL: u32 = (1 << 31) - 1;

/// One packed QFil meta word, spelled here and nowhere else.
///
/// * leaf:  `label << 1 | 1`
/// * inner: `left_child << 11 | feature << 1` (leaf bit 0 clear); the
///   right child is `left_child + 1` (FIL sibling adjacency), and the
///   threshold level lives in the parallel `qvalue` array.
mod word {
    use super::{QFIL_FEATURE_BITS, QFIL_MAX_FEATURES};

    #[inline]
    pub(super) fn inner(feature: u32, left_child: u32) -> u32 {
        (left_child << (QFIL_FEATURE_BITS + 1)) | (feature << 1)
    }

    #[inline]
    pub(super) fn leaf(label: u32) -> u32 {
        (label << 1) | 1
    }

    /// The label when `m` is a leaf.
    #[inline]
    pub(super) fn label(m: u32) -> Option<u32> {
        (m & 1 == 1).then_some(m >> 1)
    }

    #[inline]
    pub(super) fn feature(m: u32) -> usize {
        ((m >> 1) as usize) & (QFIL_MAX_FEATURES - 1)
    }

    #[inline]
    pub(super) fn left_child(m: u32) -> u32 {
        m >> (QFIL_FEATURE_BITS + 1)
    }
}

/// The quantized node format: one meta word + one grid level per node —
/// `4 + T::BYTES` bytes (5 B at u8) vs the 12 B f32
/// [`crate::fil::FilNode`] — and the grid the levels index.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantNodes<T: QuantLevel> {
    meta: Vec<u32>,
    qvalue: Vec<T>,
    quantizer: ThresholdQuantizer,
}

impl<T: QuantLevel> NodeFormat for QuantNodes<T> {
    const NODE_BYTES: usize = 4 + T::BYTES;

    /// `(feature, grid level)`: 4 B at either level width.
    type TopSlot = (u16, T);

    fn for_forest(forest: &RandomForest) -> Result<Self, LayoutError> {
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
        Ok(QuantNodes {
            meta: Vec::with_capacity(forest.total_nodes()),
            qvalue: Vec::with_capacity(forest.total_nodes()),
            quantizer: ThresholdQuantizer::fit(forest, T::LEVELS),
        })
    }

    fn check_span(unit: &str, index: usize, nodes: usize) -> Result<(), LayoutError> {
        if nodes > QFIL_MAX_TREE_NODES {
            return Err(LayoutError::BadConfig {
                detail: format!(
                    "qfil-{} child field addresses {} nodes; {unit} {index} has {nodes}",
                    T::NAME,
                    QFIL_MAX_TREE_NODES
                ),
            });
        }
        Ok(())
    }

    fn leaf(&mut self, label: Label) {
        self.meta.push(word::leaf(label));
        self.qvalue.push(T::from_level(0));
    }

    fn inner(&mut self, feature: u16, threshold: f32, left_child: u32) {
        self.meta.push(word::inner(feature as u32, left_child));
        self.qvalue.push(T::from_level(self.quantizer.quantize(feature as usize, threshold)));
    }

    fn num_nodes(&self) -> usize {
        self.meta.len()
    }

    /// The attribute region lays the meta words (4 B/node) then the grid
    /// levels (`T::BYTES`/node) back to back; a leaf reads only its meta
    /// word.
    #[inline]
    fn step<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut FilCursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label> {
        let at = cursor.at as usize;
        sink.attribute(at as u64 * 4, 4);
        let m = self.meta[at];
        if let Some(label) = word::label(m) {
            return Some(label);
        }
        sink.attribute((self.meta.len() * 4 + at * T::BYTES) as u64, T::BYTES as u32);
        let f = word::feature(m);
        let thr = self.quantizer.dequantize(f, self.qvalue[at].level());
        sink.query(f as u32);
        cursor.at = cursor.base + word::left_child(m) + u32::from(goes_right(query[f], thr));
        None
    }

    /// The meta word and the grid level: two arrays, two lines.
    #[inline]
    fn prefetch(&self, at: usize) {
        crate::prefetch(&self.meta, at);
        crate::prefetch(&self.qvalue, at);
    }

    fn top_slot(&self, feature: u16, threshold: f32) -> (u16, T) {
        (feature, T::from_level(self.quantizer.quantize(feature as usize, threshold)))
    }

    fn top_feature((feature, _): (u16, T)) -> usize {
        usize::from(feature)
    }

    #[inline]
    fn top_goes_right<S: FetchSink + ?Sized>(
        &self,
        (feature, level): (u16, T),
        query: &[f32],
        sink: &mut S,
    ) -> bool {
        let f = feature as usize;
        sink.query(f as u32);
        goes_right(query[f], self.quantizer.dequantize(f, level.level()))
    }

    fn table_bytes(&self) -> usize {
        self.quantizer.table_bytes()
    }
}

/// Quantized FIL: [`QuantNodes`] in per-tree BFS order. Predictions equal
/// the quantizer-snapped oracle ([`ThresholdQuantizer::snap_forest`]).
pub type QFilForest<T> = FilStore<QuantNodes<T>, PerTree>;

impl<T: QuantLevel, P> FilStore<QuantNodes<T>, P> {
    /// The fitted grid (the same fit at equal `T` whatever the placement,
    /// so the same snapped oracle).
    pub fn quantizer(&self) -> &ThresholdQuantizer {
        &self.nodes.quantizer
    }
}

impl<T: QuantLevel> QFilForest<T> {
    /// Quantizes and packs `forest`. Fails with [`LayoutError::BadConfig`]
    /// when the forest exceeds the bitfield budgets (`num_features` >
    /// [`QFIL_MAX_FEATURES`], a tree wider than [`QFIL_MAX_TREE_NODES`],
    /// or a label above [`QFIL_MAX_LABEL`]).
    pub fn build(forest: &RandomForest) -> Result<Self, LayoutError> {
        Self::per_tree(forest)
    }

    /// Integer-only traversal over a pre-ranked query
    /// ([`ThresholdQuantizer::quantize_row`]): `rank > level ⇔ x ≥ g(level)`,
    /// so this takes exactly the branches of the store's
    /// [`predict_tree`](crate::TreeEnsemble::predict_tree). This is the
    /// functional reference for the FPGA integer comparator datapath.
    pub fn predict_tree_quantized(&self, t: usize, qrow: &[u32]) -> Label {
        let QuantNodes { meta, qvalue, .. } = &self.nodes;
        let base = self.tree_base(t);
        crate::walk(base, |at| {
            let m = meta[*at as usize];
            if let Some(label) = word::label(m) {
                return Some(label);
            }
            let go_right = qrow[word::feature(m)] > qvalue[*at as usize].level();
            *at = base + word::left_child(m) + u32::from(go_right);
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fil::FilForest;
    use crate::TreeEnsemble;
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
    fn layout_matches_snapped_forest_exactly() {
        let forest = random_forest(10, 9, 7, 4, 42);
        let qfil = QFilForest::<u8>::build(&forest).unwrap();
        let snapped = qfil.quantizer().snap_forest(&forest);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..400 {
            let qv: Vec<f32> = (0..7).map(|_| rng.gen::<f32>() * 1.5 - 0.25).collect();
            assert_eq!(qfil.predict(&qv), snapped.predict(&qv));
            for t in 0..forest.num_trees() {
                assert_eq!(qfil.predict_tree(t, &qv), snapped.trees()[t].predict(&qv));
            }
        }
    }

    /// On a forest snapped to its own u8 grid, the u8 layout answers like
    /// the forest itself, on rows placed exactly on a threshold too.
    #[test]
    fn a_forest_on_its_own_grid_is_served_exactly_by_the_u8_layout() {
        let mut rng = StdRng::seed_from_u64(17);
        for seed in 0..40 {
            let nf = 1 + seed as usize % 11;
            let forest = random_forest(1 + seed as usize % 29, 1 + seed as usize % 9, nf, 3, seed);
            let snapped = ThresholdQuantizer::snap_to_grid::<u8>(&forest);
            let qfil = QFilForest::<u8>::build(&snapped).unwrap();
            let thresholds: Vec<(usize, f32)> = (snapped.trees().iter())
                .flat_map(|t| t.nodes())
                .filter_map(|n| match *n {
                    Node::Inner { feature, threshold, .. } => Some((feature as usize, threshold)),
                    Node::Leaf { .. } => None,
                })
                .collect();
            for i in 0..200 {
                let mut qv: Vec<f32> = (0..nf).map(|_| rng.gen::<f32>() * 1.5 - 0.25).collect();
                if let Some(&(f, t)) = thresholds.get(i % thresholds.len().max(1)) {
                    qv[f] = t;
                }
                assert_eq!(qfil.predict(&qv), snapped.predict(&qv), "seed {seed}");
            }
        }
    }

    /// One snap is not always a fixed point: on this forest the grid
    /// fitted on the snapped thresholds moves one feature's scale by an
    /// ulp (4 forests in 3000 of this shape). `snap_to_grid` snaps again.
    #[test]
    fn one_snap_can_move_the_grid_and_snap_to_grid_settles_it() {
        let mut rng = StdRng::seed_from_u64(2505);
        let forest =
            RandomForest::from_trees(vec![DecisionTree::random(&mut rng, 6, 5, 3, 0.25)], 5, 3)
                .unwrap();
        let once = ThresholdQuantizer::fit_for::<u8>(&forest).snap_forest(&forest);
        assert_ne!(ThresholdQuantizer::fit_for::<u8>(&once).snap_forest(&once), once);
        let settled = ThresholdQuantizer::snap_to_grid::<u8>(&forest);
        assert_eq!(ThresholdQuantizer::fit_for::<u8>(&settled).snap_forest(&settled), settled);
    }

    #[test]
    fn integer_path_matches_f32_path() {
        let forest = random_forest(9, 8, 6, 3, 5);
        let qfil = QFilForest::<u16>::build(&forest).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..300 {
            let mut qv: Vec<f32> = (0..6).map(|_| rng.gen::<f32>() * 3.0 - 1.0).collect();
            if i % 5 == 0 {
                qv[i % 6] = f32::NAN;
            }
            let ranks = qfil.quantizer().quantize_row(&qv);
            for t in 0..forest.num_trees() {
                assert_eq!(qfil.predict_tree_quantized(t, &ranks), qfil.predict_tree(t, &qv));
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
    }

    #[test]
    fn labels_use_the_whole_leaf_payload() {
        let forest = RandomForest::from_trees(vec![DecisionTree::leaf(40_000)], 3, 40_001).unwrap();
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
        assert_eq!(qfil.predict(&[0.0; 4]), 2);
        assert_eq!(qfil.predict_tree_quantized(0, &[0; 4]), 2);
    }

    #[test]
    fn meta_packing_round_trips() {
        let m = word::inner(1023, (QFIL_MAX_TREE_NODES as u32) - 1);
        assert_eq!(word::label(m), None);
        assert_eq!(word::feature(m), 1023);
        assert_eq!(word::left_child(m), (QFIL_MAX_TREE_NODES as u32) - 1);
        assert_eq!(word::label(word::leaf(QFIL_MAX_LABEL)), Some(QFIL_MAX_LABEL));
    }
}
