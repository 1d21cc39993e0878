//! Profile-guided forest packing (ROADMAP item 2, after Browne et al.'s
//! *Forest Packing*).
//!
//! The paper's thesis is that forest *layout*, not arithmetic, decides
//! inference speed; this module is the layout pass that acts on it. Given
//! a calibration [`FrequencyProfile`] (per-node visit counts from traced
//! traversals over a representative query sample), [`PackedFilForest`] /
//! [`PackedQFilForest`] re-emit a forest's FIL node stream so that
//!
//! 1. **trees are bin-packed into shards by measured bytes** — first-fit
//!    decreasing over each tree's byte cost in the target layout (the
//!    same per-tree byte figure [`LayoutFootprint::per_tree`] averages),
//!    against [`PackPlan::shard_budget_bytes`], instead of the uniform
//!    tree-count sharding of the unpacked layouts;
//! 2. **the first `L` levels of a shard's trees are interleaved** into a
//!    shared leading segment — all roots sit consecutively, then every
//!    tree's level-1 sibling pairs, and so on — so one cache line serves
//!    several trees' entry points at the top of every tile;
//! 3. **each tree's remaining nodes are emitted hot-first** in
//!    BFS-by-frequency order: the pending sibling pair with the highest
//!    calibration visit count is placed next, pushing cold subtrees
//!    out-of-line behind the hot paths.
//!
//! Sibling pairs are always emitted adjacently, so the FIL invariant
//! `right = left + 1` survives; child indices are *shard-local* (each
//! packed tree carries its shard's node base plus its own root slot),
//! which keeps the quantized variant inside the 21-bit
//! [`QFIL_MAX_TREE_NODES`](crate::quant::QFIL_MAX_TREE_NODES) child
//! budget per *shard*.
//!
//! Packing is oracle-invariant by construction: the set of (tree, node)
//! pairs a query visits is untouched — only their addresses move — and
//! tree order within the ensemble only permutes the vote multiset, which
//! majority voting cannot observe. The `pack_vs_reference` proptest
//! family in `rfx-kernels` pins this against `predict_reference` for
//! every vote policy and layout width.

use std::collections::BinaryHeap;

use rfx_forest::dataset::QueryView;
use rfx_forest::{Node, RandomForest};

use crate::fil::{self, FilCursor, FilNode, FIL_NODE_BYTES};
use crate::footprint::LayoutFootprint;
use crate::memprobe::FetchSink;
use crate::quant::{
    qfil_pack_inner, qfil_pack_leaf, qfil_step, QuantLevel, ThresholdQuantizer, QFIL_FEATURE_MASK,
    QFIL_MAX_FEATURES, QFIL_MAX_LABEL, QFIL_MAX_TREE_NODES,
};
use crate::{Label, LayoutError};

/// Deepest interleaved prefix a [`PackPlan`] may request: `2^16 - 1`
/// leading nodes per tree is already far past any cache-line sharing
/// benefit, and the cap keeps the validated plan trivially `Copy`.
pub const MAX_INTERLEAVE_LEVELS: u8 = 16;

/// Default interleaving depth: roots plus their child pairs. Two levels
/// put up to `3 × shard_trees` entry nodes back to back — at 12 B/node a
/// 64 B line then serves the top of ~5 trees — while deeper prefixes
/// mostly interleave nodes the profile would have kept hot anyway.
pub const DEFAULT_INTERLEAVE_LEVELS: u8 = 2;

/// Default byte budget per packed shard, matching the engine's L2-derived
/// shard sizing so auto-planned tiling and packed shard bounds agree.
pub const DEFAULT_SHARD_BUDGET_BYTES: usize = 512 << 10;

/// Why a [`PackPlan`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// `shard_budget_bytes` was zero — no tree fits in a 0-byte shard.
    ZeroShardBudget,
    /// `interleave_levels` exceeded [`MAX_INTERLEAVE_LEVELS`].
    InterleaveTooDeep,
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::ZeroShardBudget => write!(f, "pack plan: shard_budget_bytes must be > 0"),
            PackError::InterleaveTooDeep => {
                write!(f, "pack plan: interleave_levels must be <= {MAX_INTERLEAVE_LEVELS}")
            }
        }
    }
}

impl std::error::Error for PackError {}

/// Validated packing parameters: how deep to interleave and how many
/// bytes each shard may hold. `Copy` so it can ride inside `EnginePlan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackPlan {
    interleave_levels: u8,
    shard_budget_bytes: usize,
}

impl Default for PackPlan {
    fn default() -> Self {
        Self {
            interleave_levels: DEFAULT_INTERLEAVE_LEVELS,
            shard_budget_bytes: DEFAULT_SHARD_BUDGET_BYTES,
        }
    }
}

impl PackPlan {
    /// Builds a plan, rejecting parameters the packer cannot honor.
    pub fn new(interleave_levels: u8, shard_budget_bytes: usize) -> Result<Self, PackError> {
        Self { interleave_levels, shard_budget_bytes }.validated()
    }

    /// Re-checks the invariants (used by `EnginePlanBuilder::build`).
    pub fn validated(self) -> Result<Self, PackError> {
        if self.shard_budget_bytes == 0 {
            return Err(PackError::ZeroShardBudget);
        }
        if self.interleave_levels > MAX_INTERLEAVE_LEVELS {
            return Err(PackError::InterleaveTooDeep);
        }
        Ok(self)
    }

    /// Returns the plan with `levels` interleaved leading tree levels.
    /// Deliberately unvalidated — validation happens at
    /// [`PackPlan::validated`] (or `EnginePlanBuilder::build`, which
    /// calls it), so a bad knob surfaces as a typed error there instead
    /// of a panic here.
    pub fn interleave(mut self, levels: u8) -> Self {
        self.interleave_levels = levels;
        self
    }

    /// Returns the plan with a `bytes` shard capacity (same deferred
    /// validation as [`PackPlan::interleave`]).
    pub fn budget(mut self, bytes: usize) -> Self {
        self.shard_budget_bytes = bytes;
        self
    }

    /// Number of leading tree levels interleaved across a shard
    /// (0 = lay trees back to back, 1 = roots only, 2 = roots + pairs).
    pub fn interleave_levels(&self) -> u8 {
        self.interleave_levels
    }

    /// Byte capacity of one packed shard; a tree larger than the budget
    /// gets a shard of its own.
    pub fn shard_budget_bytes(&self) -> usize {
        self.shard_budget_bytes
    }
}

/// Per-node visit counts from a calibration query set — the "profile" in
/// profile-guided packing. Counts are indexed `[tree][source node id]`.
///
/// The profile only steers *placement*; a stale or even adversarial
/// profile changes addresses, never predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyProfile {
    counts: Vec<Vec<u64>>,
    calibration_rows: u64,
}

impl FrequencyProfile {
    /// Replays every calibration row through every tree (the same walk
    /// [`crate::memprobe::FetchSink`]-traced traversals take) and counts
    /// node visits.
    pub fn collect<'a, Q: Into<QueryView<'a>>>(forest: &RandomForest, queries: Q) -> Self {
        let queries = queries.into();
        let mut counts: Vec<Vec<u64>> =
            forest.trees().iter().map(|t| vec![0u64; t.num_nodes()]).collect();
        for r in 0..queries.num_rows() {
            let q = queries.row(r);
            for (t, tree) in forest.trees().iter().enumerate() {
                let mut id = 0usize;
                loop {
                    counts[t][id] += 1;
                    match tree.nodes()[id] {
                        Node::Leaf { .. } => break,
                        Node::Inner { feature, threshold, left, right } => {
                            id = if q[feature as usize] < threshold {
                                left as usize
                            } else {
                                right as usize
                            };
                        }
                    }
                }
            }
        }
        Self { counts, calibration_rows: queries.num_rows() as u64 }
    }

    /// A profile with no signal: every count zero. Hot-first emission
    /// then degenerates to a deterministic BFS-like order (ties break on
    /// source node id), so packing without calibration data still yields
    /// the interleaving and byte bin-packing wins.
    pub fn uniform(forest: &RandomForest) -> Self {
        Self {
            counts: forest.trees().iter().map(|t| vec![0u64; t.num_nodes()]).collect(),
            calibration_rows: 0,
        }
    }

    /// Visit count of `node` in tree `t`.
    pub fn count(&self, t: usize, node: usize) -> u64 {
        self.counts[t][node]
    }

    /// How many calibration rows built this profile (0 for uniform).
    pub fn calibration_rows(&self) -> u64 {
        self.calibration_rows
    }

    fn matches(&self, forest: &RandomForest) -> Result<(), LayoutError> {
        if self.counts.len() != forest.num_trees()
            || self.counts.iter().zip(forest.trees()).any(|(c, t)| c.len() != t.num_nodes())
        {
            return Err(LayoutError::BadConfig {
                detail: format!(
                    "frequency profile shape ({} trees) does not match forest ({} trees)",
                    self.counts.len(),
                    forest.num_trees()
                ),
            });
        }
        Ok(())
    }
}

/// Layout skeleton shared by the f32 and quantized packed forests:
/// emission order, resolved shard-local children, and the tree/shard
/// directory. `slots[g] = (source tree, source node)` for global slot `g`.
struct PackLayout {
    slots: Vec<(u32, u32)>,
    /// Shard-local left-child slot per global slot (0 for leaves).
    left_child: Vec<u32>,
    /// Packed tree position -> source tree id (the tree permutation).
    tree_src: Vec<u32>,
    /// Packed tree position -> owning shard.
    tree_shard: Vec<u32>,
    /// Packed tree position -> shard-local root slot.
    tree_root: Vec<u32>,
    /// Global node base of each shard (len = shards + 1).
    shard_node_base: Vec<u32>,
    /// Cumulative packed-tree count per shard (len = shards + 1).
    shard_tree_bound: Vec<u32>,
}

/// Children of an inner node, or `None` for a leaf.
fn children(tree: &rfx_forest::DecisionTree, id: u32) -> Option<(u32, u32)> {
    match tree.nodes()[id as usize] {
        Node::Inner { left, right, .. } => Some((left, right)),
        Node::Leaf { .. } => None,
    }
}

/// Runs the three packing stages (byte bin-packing, interleaved leading
/// segment, hot-first remainder) for a layout costing `node_bytes` per
/// node. Pure topology — the callers materialize f32 or quantized nodes
/// from the returned slot order.
fn pack_layout(
    forest: &RandomForest,
    profile: &FrequencyProfile,
    plan: PackPlan,
    node_bytes: usize,
) -> Result<PackLayout, LayoutError> {
    profile.matches(forest)?;
    let plan = plan.validated().map_err(|e| LayoutError::BadConfig { detail: e.to_string() })?;
    let n_trees = forest.num_trees();
    let trees = forest.trees();

    // Stage 1: first-fit decreasing over measured per-tree bytes. An
    // oversized tree opens a shard of its own (and, being over budget,
    // admits no roommates).
    let tree_bytes: Vec<usize> = trees.iter().map(|t| t.num_nodes() * node_bytes).collect();
    let mut order: Vec<usize> = (0..n_trees).collect();
    order.sort_by(|&a, &b| tree_bytes[b].cmp(&tree_bytes[a]).then(a.cmp(&b)));
    let mut shards: Vec<Vec<usize>> = Vec::new();
    let mut fill: Vec<usize> = Vec::new();
    for &t in &order {
        match fill.iter().position(|&f| f + tree_bytes[t] <= plan.shard_budget_bytes()) {
            Some(s) => {
                shards[s].push(t);
                fill[s] += tree_bytes[t];
            }
            None => {
                shards.push(vec![t]);
                fill.push(tree_bytes[t]);
            }
        }
    }

    // Stages 2 + 3: emit each shard's node stream.
    let total_nodes = forest.total_nodes();
    let mut slots: Vec<(u32, u32)> = Vec::with_capacity(total_nodes);
    let mut slot_of: Vec<Vec<u32>> = trees.iter().map(|t| vec![u32::MAX; t.num_nodes()]).collect();
    let mut layout = PackLayout {
        slots: Vec::new(),
        left_child: Vec::new(),
        tree_src: Vec::with_capacity(n_trees),
        tree_shard: Vec::with_capacity(n_trees),
        tree_root: Vec::with_capacity(n_trees),
        shard_node_base: vec![0],
        shard_tree_bound: vec![0],
    };
    let levels = plan.interleave_levels() as usize;

    for (s, members) in shards.iter().enumerate() {
        let shard_base = slots.len();
        let mut emit = |slots: &mut Vec<(u32, u32)>, t: usize, id: u32| {
            slot_of[t][id as usize] = (slots.len() - shard_base) as u32;
            slots.push((t as u32, id));
        };

        // Interleaved leading segment: level-major across the shard's
        // trees. `frontier[i]` holds tree i's inner nodes of the level
        // just emitted, hot-first.
        let mut frontier: Vec<Vec<u32>> = vec![Vec::new(); members.len()];
        if levels >= 1 {
            for (i, &t) in members.iter().enumerate() {
                emit(&mut slots, t, 0);
                if children(&trees[t], 0).is_some() {
                    frontier[i].push(0);
                }
            }
        }
        for _level in 1..levels {
            for (i, &t) in members.iter().enumerate() {
                let mut parents = std::mem::take(&mut frontier[i]);
                parents.sort_by_key(|&p| (std::cmp::Reverse(profile.count(t, p as usize)), p));
                for p in parents {
                    let (l, r) = children(&trees[t], p).expect("frontier holds inner nodes");
                    emit(&mut slots, t, l);
                    emit(&mut slots, t, r);
                    if children(&trees[t], l).is_some() {
                        frontier[i].push(l);
                    }
                    if children(&trees[t], r).is_some() {
                        frontier[i].push(r);
                    }
                }
            }
        }

        // Hot-first remainder, one tree at a time: the max-heap pops the
        // placed inner node with the hottest pending child pair (ties on
        // smaller source id, so a zero/uniform profile stays
        // deterministic) and emits its siblings adjacently.
        for (i, &t) in members.iter().enumerate() {
            if levels == 0 {
                emit(&mut slots, t, 0);
                if children(&trees[t], 0).is_some() {
                    frontier[i].push(0);
                }
            }
            let mut heap: BinaryHeap<(u64, std::cmp::Reverse<u32>)> = frontier[i]
                .iter()
                .map(|&p| (profile.count(t, p as usize), std::cmp::Reverse(p)))
                .collect();
            while let Some((_, std::cmp::Reverse(p))) = heap.pop() {
                let (l, r) = children(&trees[t], p).expect("heap holds inner nodes");
                emit(&mut slots, t, l);
                emit(&mut slots, t, r);
                if children(&trees[t], l).is_some() {
                    heap.push((profile.count(t, l as usize), std::cmp::Reverse(l)));
                }
                if children(&trees[t], r).is_some() {
                    heap.push((profile.count(t, r as usize), std::cmp::Reverse(r)));
                }
            }
        }

        // Resolve shard-local children now that the shard is complete.
        for &(t, id) in &slots[shard_base..] {
            let lc = match children(&trees[t as usize], id) {
                Some((l, _)) => slot_of[t as usize][l as usize],
                None => 0,
            };
            layout.left_child.push(lc);
        }
        for &t in members {
            layout.tree_src.push(t as u32);
            layout.tree_shard.push(s as u32);
            layout.tree_root.push(slot_of[t][0]);
        }
        layout.shard_node_base.push(slots.len() as u32);
        layout.shard_tree_bound.push(layout.tree_src.len() as u32);
    }

    debug_assert_eq!(slots.len(), total_nodes);
    layout.slots = slots;
    Ok(layout)
}

/// Profile-packed f32 FIL forest: 12 B [`FilNode`]s in hot-first,
/// shard-interleaved order. Bit-identical in prediction to the source
/// forest (it takes the same branch at every node); only addresses move.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedFilForest {
    nodes: Vec<FilNode>,
    tree_src: Vec<u32>,
    tree_shard: Vec<u32>,
    tree_root: Vec<u32>,
    shard_node_base: Vec<u32>,
    shard_tree_bound: Vec<u32>,
    num_classes: u32,
    num_features: usize,
}

impl PackedFilForest {
    /// Packs `forest` under `plan`, steering placement with `profile`.
    pub fn build(
        forest: &RandomForest,
        profile: &FrequencyProfile,
        plan: PackPlan,
    ) -> Result<Self, LayoutError> {
        let layout = pack_layout(forest, profile, plan, FIL_NODE_BYTES)?;
        let trees = forest.trees();
        let mut nodes = Vec::with_capacity(layout.slots.len());
        for (g, &(t, id)) in layout.slots.iter().enumerate() {
            nodes.push(match trees[t as usize].nodes()[id as usize] {
                Node::Leaf { label } => FilNode { feature: -1, value: label as f32, left_child: 0 },
                Node::Inner { feature, threshold, .. } => FilNode {
                    feature: feature as i16,
                    value: threshold,
                    left_child: layout.left_child[g],
                },
            });
        }
        Ok(Self {
            nodes,
            tree_src: layout.tree_src,
            tree_shard: layout.tree_shard,
            tree_root: layout.tree_root,
            shard_node_base: layout.shard_node_base,
            shard_tree_bound: layout.shard_tree_bound,
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        })
    }

    /// Number of trees (identical to the source forest's).
    pub fn num_trees(&self) -> usize {
        self.tree_src.len()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// Query width.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of byte-packed shards.
    pub fn num_shards(&self) -> usize {
        self.shard_node_base.len() - 1
    }

    /// Source tree id voting at packed position `t` (the permutation the
    /// byte bin-packing applied; majority votes cannot observe it).
    pub fn tree_source(&self, t: usize) -> usize {
        self.tree_src[t] as usize
    }

    /// Cumulative packed-tree shard boundaries `[0, ..., num_trees]`,
    /// the byte-aware tiling the engine adopts over uniform tree counts.
    pub fn shard_tree_bounds(&self) -> Vec<usize> {
        self.shard_tree_bound.iter().map(|&b| b as usize).collect()
    }

    /// A walk standing at the root of packed tree `t`: child indices are
    /// relative to the owning shard's node base.
    #[inline]
    pub fn root(&self, t: usize) -> FilCursor {
        let base = self.shard_node_base[self.tree_shard[t] as usize];
        FilCursor { base, at: base + self.tree_root[t] }
    }

    /// Advances `cursor` one level — the same [`FilNode`] decode as the
    /// flat layout, so the same branches as the source tree.
    #[inline]
    pub fn step(&self, cursor: &mut FilCursor, query: &[f32]) -> Option<Label> {
        fil::step(&self.nodes, cursor, query)
    }

    /// Classifies `query` with packed tree `t`. Same branches as the
    /// source tree, so the same label.
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

    /// Traced traversal reporting the *packed* addresses (global slot ×
    /// 12 B), so the memtrace cache model measures the new layout —
    /// this is what `pack_bench` compares against unpacked FIL.
    pub fn predict_tree_traced(&self, t: usize, query: &[f32], sink: &mut dyn FetchSink) -> Label {
        let base = self.shard_node_base[self.tree_shard[t] as usize] as usize;
        let mut n = self.tree_root[t] as usize;
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

    /// Bytes resident: the node stream as attributes plus the tree/shard
    /// directory as index overhead.
    pub fn footprint(&self) -> LayoutFootprint {
        LayoutFootprint {
            attribute_bytes: self.nodes.len() * FIL_NODE_BYTES,
            topology_bytes: 0,
            index_bytes: (self.tree_src.len() + self.tree_shard.len() + self.tree_root.len()) * 4
                + (self.shard_node_base.len() + self.shard_tree_bound.len()) * 4,
        }
    }
}

/// Profile-packed quantized FIL forest: one meta word + one grid level
/// per node (`4 + T::BYTES` bytes), same emission order rules as
/// [`PackedFilForest`]. Predictions equal the quantizer-snapped oracle
/// (`ThresholdQuantizer::snap_forest`), exactly like [`crate::QFilForest`].
#[derive(Debug, Clone, PartialEq)]
pub struct PackedQFilForest<T: QuantLevel> {
    meta: Vec<u32>,
    qvalue: Vec<T>,
    tree_src: Vec<u32>,
    tree_shard: Vec<u32>,
    tree_root: Vec<u32>,
    shard_node_base: Vec<u32>,
    shard_tree_bound: Vec<u32>,
    quantizer: ThresholdQuantizer,
    num_classes: u32,
    num_features: usize,
}

impl<T: QuantLevel> PackedQFilForest<T> {
    /// Quantizes and packs `forest` under `plan`. Fails with
    /// [`LayoutError::BadConfig`] on the usual QFil bitfield budgets —
    /// with the child field checked per *shard* (shard-local indices):
    /// a shard wider than [`QFIL_MAX_TREE_NODES`] nodes is rejected.
    pub fn build(
        forest: &RandomForest,
        profile: &FrequencyProfile,
        plan: PackPlan,
    ) -> Result<Self, LayoutError> {
        if forest.num_features() > QFIL_MAX_FEATURES {
            return Err(LayoutError::BadConfig {
                detail: format!(
                    "num_features {} exceeds the {}-wide QFil feature field",
                    forest.num_features(),
                    QFIL_MAX_FEATURES
                ),
            });
        }
        if forest.num_classes() > 0 && forest.num_classes() - 1 > QFIL_MAX_LABEL {
            return Err(LayoutError::BadConfig {
                detail: format!(
                    "class label {} exceeds the QFil leaf payload",
                    forest.num_classes() - 1
                ),
            });
        }
        let layout = pack_layout(forest, profile, plan, 4 + T::BYTES)?;
        for s in 0..layout.shard_node_base.len() - 1 {
            let width = (layout.shard_node_base[s + 1] - layout.shard_node_base[s]) as usize;
            if width > QFIL_MAX_TREE_NODES {
                return Err(LayoutError::BadConfig {
                    detail: format!(
                        "packed shard {s} has {width} nodes, over the {QFIL_MAX_TREE_NODES}-node \
                         child-index budget; lower shard_budget_bytes"
                    ),
                });
            }
        }
        let quantizer = ThresholdQuantizer::fit(forest, T::LEVELS);
        let trees = forest.trees();
        let mut meta = Vec::with_capacity(layout.slots.len());
        let mut qvalue = Vec::with_capacity(layout.slots.len());
        for (g, &(t, id)) in layout.slots.iter().enumerate() {
            match trees[t as usize].nodes()[id as usize] {
                Node::Leaf { label } => {
                    meta.push(qfil_pack_leaf(label));
                    qvalue.push(T::from_level(0));
                }
                Node::Inner { feature, threshold, .. } => {
                    meta.push(qfil_pack_inner(feature as u32, layout.left_child[g]));
                    qvalue.push(T::from_level(quantizer.quantize(feature as usize, threshold)));
                }
            }
        }
        Ok(Self {
            meta,
            qvalue,
            tree_src: layout.tree_src,
            tree_shard: layout.tree_shard,
            tree_root: layout.tree_root,
            shard_node_base: layout.shard_node_base,
            shard_tree_bound: layout.shard_tree_bound,
            quantizer,
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        })
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.tree_src.len()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// Query width.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of byte-packed shards.
    pub fn num_shards(&self) -> usize {
        self.shard_node_base.len() - 1
    }

    /// Source tree id voting at packed position `t`.
    pub fn tree_source(&self, t: usize) -> usize {
        self.tree_src[t] as usize
    }

    /// Cumulative packed-tree shard boundaries `[0, ..., num_trees]`.
    pub fn shard_tree_bounds(&self) -> Vec<usize> {
        self.shard_tree_bound.iter().map(|&b| b as usize).collect()
    }

    /// The threshold grid this layout was quantized against (same fit as
    /// [`crate::QFilForest`] at equal `T`, so the same snapped oracle).
    pub fn quantizer(&self) -> &ThresholdQuantizer {
        &self.quantizer
    }

    /// A walk standing at the root of packed tree `t` (shard-local child
    /// indices, like [`PackedFilForest::root`]).
    #[inline]
    pub fn root(&self, t: usize) -> FilCursor {
        let base = self.shard_node_base[self.tree_shard[t] as usize];
        FilCursor { base, at: base + self.tree_root[t] }
    }

    /// Advances `cursor` one level on the f32 path — the same decode as
    /// [`crate::QFilForest`], so branch-identical to the snapped forest.
    #[inline]
    pub fn step(&self, cursor: &mut FilCursor, query: &[f32]) -> Option<Label> {
        qfil_step(&self.meta, &self.qvalue, &self.quantizer, cursor, query)
    }

    /// Classifies `query` with packed tree `t` on the f32 path.
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

    /// Traced traversal over the packed addresses: meta words at
    /// `slot × 4`, grid levels at `meta_bytes + slot × T::BYTES` — the
    /// same two-region scheme as [`crate::QFilForest`], new order.
    pub fn predict_tree_traced(&self, t: usize, query: &[f32], sink: &mut dyn FetchSink) -> Label {
        let base = self.shard_node_base[self.tree_shard[t] as usize] as usize;
        let qvalue_base = (self.meta.len() * 4) as u64;
        let mut n = self.tree_root[t] as usize;
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
            n = (m >> 11) as usize + usize::from(!go_left);
        }
    }

    /// Bytes resident: packed meta + levels as attributes; directory and
    /// quantizer table as index overhead.
    pub fn footprint(&self) -> LayoutFootprint {
        LayoutFootprint {
            attribute_bytes: self.meta.len() * (4 + T::BYTES),
            topology_bytes: 0,
            index_bytes: (self.tree_src.len() + self.tree_shard.len() + self.tree_root.len()) * 4
                + (self.shard_node_base.len() + self.shard_tree_bound.len()) * 4
                + self.quantizer.table_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memprobe::CountingSink;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_forest::DecisionTree;

    fn forest(n_trees: usize, seed: u64) -> RandomForest {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..n_trees).map(|_| DecisionTree::random(&mut rng, 7, 6, 4, 0.3)).collect();
        RandomForest::from_trees(trees, 6, 4).unwrap()
    }

    fn rows(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * 6).map(|_| rng.gen()).collect()
    }

    fn profile_for(f: &RandomForest, seed: u64) -> FrequencyProfile {
        let calib = rows(64, seed);
        FrequencyProfile::collect(f, QueryView::new(&calib, 6).unwrap())
    }

    #[test]
    fn plan_validation_rejects_bad_parameters() {
        assert_eq!(PackPlan::new(2, 0), Err(PackError::ZeroShardBudget));
        assert_eq!(
            PackPlan::new(MAX_INTERLEAVE_LEVELS + 1, 1024),
            Err(PackError::InterleaveTooDeep)
        );
        let plan = PackPlan::new(3, 4096).unwrap();
        assert_eq!(plan.interleave_levels(), 3);
        assert_eq!(plan.shard_budget_bytes(), 4096);
        assert_eq!(PackPlan::default().validated(), Ok(PackPlan::default()));
    }

    #[test]
    fn packed_fil_matches_source_forest_tree_by_tree() {
        let f = forest(9, 1);
        let packed = PackedFilForest::build(&f, &profile_for(&f, 2), PackPlan::default()).unwrap();
        assert_eq!(packed.num_trees(), f.num_trees());
        let queries = rows(200, 3);
        for q in queries.chunks(6) {
            for t in 0..packed.num_trees() {
                assert_eq!(packed.predict_tree(t, q), f.trees()[packed.tree_source(t)].predict(q));
            }
            assert_eq!(packed.predict(q), f.predict(q));
        }
    }

    #[test]
    fn packed_qfil_matches_snapped_oracle() {
        let f = forest(7, 11);
        let profile = profile_for(&f, 12);
        let packed = PackedQFilForest::<u8>::build(&f, &profile, PackPlan::default()).unwrap();
        let snapped = packed.quantizer().snap_forest(&f);
        let queries = rows(200, 13);
        for q in queries.chunks(6) {
            for t in 0..packed.num_trees() {
                assert_eq!(
                    packed.predict_tree(t, q),
                    snapped.trees()[packed.tree_source(t)].predict(q)
                );
            }
            assert_eq!(packed.predict(q), snapped.predict(q));
        }
    }

    #[test]
    fn interleaving_places_all_shard_roots_consecutively() {
        let f = forest(6, 21);
        // Budget large enough for one shard; two interleaved levels.
        let plan = PackPlan::new(2, 1 << 20).unwrap();
        let packed = PackedFilForest::build(&f, &FrequencyProfile::uniform(&f), plan).unwrap();
        assert_eq!(packed.num_shards(), 1);
        // Roots occupy the first num_trees slots of the shard.
        for t in 0..packed.num_trees() {
            assert!((packed.tree_root[t] as usize) < packed.num_trees());
        }
    }

    #[test]
    fn byte_bin_packing_respects_the_shard_budget() {
        let f = forest(10, 31);
        let per_tree_max = f.trees().iter().map(|t| t.num_nodes() * FIL_NODE_BYTES).max().unwrap();
        // Budget of two max-size trees: every multi-tree shard must fit it.
        let plan = PackPlan::new(1, 2 * per_tree_max).unwrap();
        let packed = PackedFilForest::build(&f, &FrequencyProfile::uniform(&f), plan).unwrap();
        let bounds = packed.shard_tree_bounds();
        assert_eq!(*bounds.first().unwrap(), 0);
        assert_eq!(*bounds.last().unwrap(), f.num_trees());
        for w in bounds.windows(2) {
            let bytes: usize = (w[0]..w[1])
                .map(|t| f.trees()[packed.tree_source(t)].num_nodes() * FIL_NODE_BYTES)
                .sum();
            let single = w[1] - w[0] == 1;
            assert!(single || bytes <= plan.shard_budget_bytes());
        }
        // The permutation really is one: every source tree appears once.
        let mut seen = vec![false; f.num_trees()];
        for t in 0..f.num_trees() {
            assert!(!seen[packed.tree_source(t)]);
            seen[packed.tree_source(t)] = true;
        }
    }

    #[test]
    fn hot_path_nodes_pack_to_the_front() {
        // A single tree with a profile concentrated on one root-to-leaf
        // path: every node on that path must land within the first
        // 2*depth+1 slots (each hot pair is emitted before any cold
        // subtree expands).
        let f = forest(1, 41);
        let hot_q: Vec<f32> = rows(1, 42);
        let profile = FrequencyProfile::collect(&f, QueryView::new(&hot_q, 6).unwrap());
        let plan = PackPlan::new(1, 1 << 20).unwrap();
        let packed = PackedFilForest::build(&f, &profile, plan).unwrap();
        let mut sink = CountingSink::default();
        packed.predict_tree_traced(0, &hot_q, &mut sink);
        let depth = sink.attribute_fetches as usize - 1;
        // Walk again recording slots via addresses: every fetch offset
        // must be below (2*depth + 1) * node bytes.
        struct MaxOffset(u64);
        impl FetchSink for MaxOffset {
            fn attribute(&mut self, offset: u64, _bytes: u32) {
                self.0 = self.0.max(offset);
            }
            fn topology(&mut self, _offset: u64, _bytes: u32) {}
            fn query(&mut self, _feature: u32) {}
        }
        let mut max = MaxOffset(0);
        packed.predict_tree_traced(0, &hot_q, &mut max);
        assert!(max.0 < ((2 * depth + 1) * FIL_NODE_BYTES) as u64);
    }

    #[test]
    fn uniform_profile_and_zero_interleave_are_deterministic_degenerates() {
        let f = forest(5, 51);
        let plan = PackPlan::new(0, 4096).unwrap();
        let a = PackedFilForest::build(&f, &FrequencyProfile::uniform(&f), plan).unwrap();
        let b = PackedFilForest::build(&f, &FrequencyProfile::uniform(&f), plan).unwrap();
        assert_eq!(a, b);
        let queries = rows(100, 52);
        for q in queries.chunks(6) {
            assert_eq!(a.predict(q), f.predict(q));
        }
        // Single-leaf degenerate forest.
        let leaf = RandomForest::from_trees(vec![DecisionTree::leaf(2)], 6, 4).unwrap();
        let packed =
            PackedFilForest::build(&leaf, &FrequencyProfile::uniform(&leaf), plan).unwrap();
        assert_eq!(packed.predict_tree(0, &[0.0; 6]), 2);
    }

    #[test]
    fn mismatched_profile_is_rejected() {
        let f = forest(4, 61);
        let other = forest(5, 62);
        let err =
            PackedFilForest::build(&f, &FrequencyProfile::uniform(&other), PackPlan::default())
                .unwrap_err();
        assert!(matches!(err, LayoutError::BadConfig { .. }));
    }

    #[test]
    fn packed_footprints_are_layout_aware() {
        let f = forest(8, 71);
        let profile = profile_for(&f, 72);
        let packed = PackedFilForest::build(&f, &profile, PackPlan::default()).unwrap();
        let fil = crate::fil::FilForest::build(&f);
        // Same node stream bytes as unpacked FIL — packing moves nodes,
        // it never adds any.
        assert_eq!(packed.footprint().attribute_bytes, fil.footprint().attribute_bytes);
        let q8 = PackedQFilForest::<u8>::build(&f, &profile, PackPlan::default()).unwrap();
        let q16 = PackedQFilForest::<u16>::build(&f, &profile, PackPlan::default()).unwrap();
        let n = f.num_trees();
        assert!(q8.footprint().per_tree(n) < q16.footprint().per_tree(n));
        assert!(q16.footprint().per_tree(n) < packed.footprint().per_tree(n));
        // per_tree stays exact-total-consistent and never zero (mirrors
        // the LayoutFootprint::per_tree contract on the packed layout).
        for fp in [packed.footprint(), q8.footprint(), q16.footprint()] {
            assert_eq!(fp.per_tree(n), (fp.total() / n).max(1));
            assert!(fp.per_tree(usize::MAX) >= 1);
        }
    }

    #[test]
    fn traced_walk_reports_packed_addresses_and_matches_untraced() {
        let f = forest(6, 81);
        let profile = profile_for(&f, 82);
        let packed = PackedFilForest::build(&f, &profile, PackPlan::default()).unwrap();
        let q = rows(1, 83);
        for t in 0..packed.num_trees() {
            let mut sink = CountingSink::default();
            let traced = packed.predict_tree_traced(t, &q, &mut sink);
            assert_eq!(traced, packed.predict_tree(t, &q));
            assert!(sink.attribute_fetches >= 1);
            assert_eq!(sink.attribute_bytes, sink.attribute_fetches * FIL_NODE_BYTES as u64);
        }
    }

    /// `predict_tree` is `loop { step }` on both packed layouts: walking
    /// a cursor by hand lands on the traced twin's label, one node per
    /// step, NaN queries included.
    #[test]
    fn step_loops_match_the_traced_twins() {
        let f = forest(7, 91);
        let profile = profile_for(&f, 92);
        let plan = PackPlan::new(2, 4 << 10).unwrap();
        let packed = PackedFilForest::build(&f, &profile, plan).unwrap();
        let packed_q = PackedQFilForest::<u8>::build(&f, &profile, plan).unwrap();
        assert!(packed.num_shards() > 1, "shard-local child indices are exercised");
        let snapped = packed_q.quantizer().snap_forest(&f);
        let mut queries = rows(150, 93);
        queries.iter_mut().step_by(11).for_each(|v| *v = f32::NAN);
        for q in queries.chunks(6) {
            for t in 0..packed.num_trees() {
                let mut sink = CountingSink::default();
                let traced = packed.predict_tree_traced(t, q, &mut sink);
                let mut steps = 0;
                let label = crate::walk(packed.root(t), |cursor| {
                    steps += 1;
                    packed.step(cursor, q)
                });
                assert_eq!(label, traced);
                assert_eq!(label, f.trees()[packed.tree_source(t)].predict(q));
                assert_eq!(steps, sink.attribute_fetches, "one level per step");

                let mut sink = CountingSink::default();
                let traced = packed_q.predict_tree_traced(t, q, &mut sink);
                let label = crate::walk(packed_q.root(t), |cursor| packed_q.step(cursor, q));
                assert_eq!(label, traced);
                assert_eq!(label, snapped.trees()[packed_q.tree_source(t)].predict(q));
            }
        }
    }
}
