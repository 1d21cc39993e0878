//! Profile-guided forest packing under a complete top (after Browne et
//! al.'s *Forest Packing* and the paper's hybrid layout).
//!
//! The paper's thesis is that forest *layout*, not arithmetic, decides
//! inference speed; this module is the layout pass that acts on it. Given
//! a calibration [`FrequencyProfile`] (per-node visit counts over a
//! representative query sample), the [`Sharded`] placement of the FIL
//! store ([`PackedFilForest`] / [`PackedQFilForest`]) re-emits a forest so
//! that
//!
//! 1. **every tree's first `L` levels form a complete top**
//!    ([`crate::top`]) — the paper's root subtree, `L` by the one depth
//!    rule, each bottom slot holding a leaf label or the shard-local index
//!    of the node the walk continues at in the stream;
//! 2. **trees are bin-packed into shards by measured bytes** — first-fit
//!    decreasing over each tree's top plus stream bytes in the target
//!    layout, against [`PackPlan::shard_budget_bytes`], instead of the
//!    uniform tree-count sharding of the unpacked layouts;
//! 3. **the nodes below the top are emitted hot-first** into the shard's
//!    node stream: the subtrees' roots in descending calibration count,
//!    then BFS-by-frequency — the pending sibling pair with the highest
//!    visit count is placed next, pushing cold subtrees out-of-line
//!    behind the hot paths.
//!
//! Sibling pairs are always emitted adjacently, so the FIL invariant
//! `right = left + 1` survives in the stream; child indices are
//! *shard-local* (a walk's cursor carries its shard's node base), which
//! keeps the quantized variant inside the 21-bit
//! [`QFIL_MAX_TREE_NODES`](crate::quant::QFIL_MAX_TREE_NODES) child
//! budget per *shard*.
//!
//! Packing is oracle-invariant by construction: every comparison a query
//! makes in the source tree it makes in the packed one, in the same order
//! — only addresses move, and a dummy's two subtrees are the same leaf —
//! and tree order within the ensemble only permutes the vote multiset,
//! which majority voting cannot observe. The `pack_vs_reference` proptests
//! and the kernel-edges table of `sharded_vs_reference` in `rfx-kernels`
//! pin this against `predict_reference` for every vote policy and layout
//! width.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, Node, RandomForest};

use crate::fil::{F32Nodes, FilCursor, FilStore, NodeFormat, Placement};
use crate::memprobe::FetchSink;
use crate::quant::QuantNodes;
use crate::top::{top_levels, top_positions, Top, DUMMY, MAX_TOP_LEVELS};
use crate::{goes_right, Label, LayoutError, TreeEnsemble};

/// Default byte budget per packed shard, matching the engine's L2-derived
/// shard sizing so auto-planned tiling and packed shard bounds agree.
pub const DEFAULT_SHARD_BUDGET_BYTES: usize = 512 << 10;

/// Bit of a cursor's position marking a walk that stands in a complete
/// top; the rest is its position on its level. Packed stores hold at most
/// [`MAX_PACKED_NODES`], so no stream index and no top position reaches
/// it.
pub(crate) const IN_TOP: u32 = 1 << 31;

/// Most nodes a packed store holds: by the depth rule a top's level then
/// has fewer than `2^31` positions, padding included.
const MAX_PACKED_NODES: usize = 1 << 30;

/// Why a [`PackPlan`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// `shard_budget_bytes` was zero — no tree fits in a 0-byte shard.
    ZeroShardBudget,
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::ZeroShardBudget => write!(f, "pack plan: shard_budget_bytes must be > 0"),
        }
    }
}

impl std::error::Error for PackError {}

/// Validated packing parameters: how many bytes each shard may hold.
/// `Copy` so it can ride inside `EnginePlan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackPlan {
    shard_budget_bytes: usize,
}

impl Default for PackPlan {
    fn default() -> Self {
        Self { shard_budget_bytes: DEFAULT_SHARD_BUDGET_BYTES }
    }
}

impl PackPlan {
    /// Builds a plan, rejecting parameters the packer cannot honor.
    pub fn new(shard_budget_bytes: usize) -> Result<Self, PackError> {
        Self { shard_budget_bytes }.validated()
    }

    /// Re-checks the invariants (used by `EnginePlanBuilder::build`).
    pub fn validated(self) -> Result<Self, PackError> {
        if self.shard_budget_bytes == 0 {
            return Err(PackError::ZeroShardBudget);
        }
        Ok(self)
    }

    /// Returns the plan with a `bytes` shard capacity. Deliberately
    /// unvalidated — validation happens at [`PackPlan::validated`] (or
    /// `EnginePlanBuilder::build`, which calls it), so a bad knob
    /// surfaces as a typed error there instead of a panic here.
    pub fn budget(mut self, bytes: usize) -> Self {
        self.shard_budget_bytes = bytes;
        self
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
    /// Replays every calibration row through every tree and counts node
    /// visits — tree by tree, so one tree stays cache-resident while every
    /// row walks it.
    pub fn collect<'a, Q: Into<QueryView<'a>>>(forest: &RandomForest, queries: Q) -> Self {
        let queries = queries.into();
        let counts = forest
            .trees()
            .iter()
            .map(|tree| {
                let mut counts = vec![0u64; tree.num_nodes()];
                for r in 0..queries.num_rows() {
                    let q = queries.row(r);
                    let mut id = 0usize;
                    loop {
                        counts[id] += 1;
                        match tree.nodes()[id] {
                            Node::Leaf { .. } => break,
                            Node::Inner { feature, threshold, left, right } => {
                                let go_right = goes_right(q[feature as usize], threshold);
                                id = if go_right { right } else { left } as usize;
                            }
                        }
                    }
                }
                counts
            })
            .collect();
        Self { counts, calibration_rows: queries.num_rows() as u64 }
    }

    /// A profile with no signal: every count zero. Hot-first emission
    /// then degenerates to a deterministic BFS-like order (ties break on
    /// source node id), so packing without calibration data still yields
    /// the complete top and the byte bin-packing.
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

/// The one-level walk the store's `step_with` takes through the complete
/// top, never reached at `top_levels` 0.
impl<F: NodeFormat, P: Placement> FilStore<F, P> {
    /// One top level of a walk standing at `cursor` (its position carries
    /// [`IN_TOP`], its base is its level): the slot's comparison, then —
    /// on the last level — the bottom slot, returning its leaf or moving
    /// the cursor to the stream node it names. The attribute region lays
    /// the slots behind the node stream.
    #[inline]
    pub(crate) fn top_step<K: FetchSink + ?Sized>(
        &self,
        cursor: &mut FilCursor,
        query: &[f32],
        sink: &mut K,
    ) -> Option<Label> {
        let (level, at) = (cursor.base, (cursor.at & !IN_TOP) as usize);
        let stream_bytes = self.nodes.num_nodes() * F::NODE_BYTES;
        let decode = |slot, sink: &mut K| self.nodes.top_goes_right(slot, query, sink);
        let bottom = match self.top.step((level, at), stream_bytes, sink, decode) {
            Ok(child) => {
                *cursor = FilCursor { base: level + 1, at: IN_TOP | child as u32 };
                return None;
            }
            Err(bottom) => bottom,
        };
        match self.top_exit(bottom) {
            Ok(label) => Some(label),
            Err(next) => {
                *cursor = next;
                None
            }
        }
    }
}

/// The profile-packed placement: trees bin-packed into shards, child
/// indices relative to the owning shard's first node, and — with no
/// top — each tree's root at a slot of its shard's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Sharded {
    /// Packed tree position -> source tree id (the tree permutation).
    tree_src: Vec<u32>,
    /// Packed tree position -> owning shard.
    tree_shard: Vec<u32>,
    /// Packed tree position -> shard-local root slot (0 under a top).
    tree_root: Vec<u32>,
    /// Global node base of each shard (len = shards + 1).
    shard_node_base: Vec<u32>,
    /// Cumulative packed-tree count per shard (len = shards + 1).
    shard_tree_bound: Vec<u32>,
}

impl Placement for Sharded {
    const HAS_TOP: bool = true;

    fn num_trees(&self) -> usize {
        self.tree_src.len()
    }

    #[inline]
    fn root(&self, t: usize) -> FilCursor {
        let base = self.shard_node_base[self.tree_shard[t] as usize];
        FilCursor { base, at: base + self.tree_root[t] }
    }

    fn index_bytes(&self) -> usize {
        (self.tree_src.len() + self.tree_shard.len() + self.tree_root.len()) * 4
            + (self.shard_node_base.len() + self.shard_tree_bound.len()) * 4
    }

    fn shard_bounds(&self) -> Option<Vec<usize>> {
        Some(self.shard_tree_bound.iter().map(|&b| b as usize).collect())
    }
}

/// The hot-first order of one tree's stream, in buffers reused from tree
/// to tree: `order[i]` is the source node at tree-local slot `i`, and
/// `slot_of` its inverse over the nodes placed.
#[derive(Default)]
struct Emission {
    order: Vec<u32>,
    slot_of: Vec<u32>,
    pending: Pending,
}

impl Emission {
    /// Places `roots` in order, then — while an inner node is placed
    /// whose children are not — the child pair of the hottest one
    /// (`counts` are the tree's visit counts), siblings adjacent.
    fn run(&mut self, tree: &DecisionTree, counts: &[u64], roots: &[u32]) {
        self.order.clear();
        if self.slot_of.len() < tree.num_nodes() {
            self.slot_of.resize(tree.num_nodes(), 0);
        }
        self.pending.reset(tree.num_nodes());
        for &root in roots {
            self.place(root);
            if children(tree, root).is_some() {
                self.pending.push(counts[root as usize], root);
            }
        }
        while let Some(p) = self.pending.pop() {
            let (l, r) = children(tree, p).expect("only inner nodes are pending");
            self.place(l);
            self.place(r);
            for c in [l, r] {
                if children(tree, c).is_some() {
                    self.pending.push(counts[c as usize], c);
                }
            }
        }
    }

    fn place(&mut self, id: u32) {
        self.slot_of[id as usize] = self.order.len() as u32;
        self.order.push(id);
    }
}

/// The placed inner nodes whose children are not, popped hottest first
/// with ties on the smaller source id — the order of one max-heap on
/// `(count, Reverse(id))`, so a zero or uniform profile stays
/// deterministic. Most of a deep tree is never visited by the calibration
/// rows, and those count-0 nodes pop in ascending id: one pushed at or
/// past the cursor (always, in a tree whose children follow their
/// parents, as the trainer grows them) goes to a bitset swept forward
/// instead of the heap. The cursor never moves back, so a count-0 node
/// the heap does take lies below every one in the bitset, and the heap
/// pops first.
#[derive(Default)]
struct Pending {
    heap: BinaryHeap<(u64, Reverse<u32>)>,
    /// Count-0 nodes, one bit per source id.
    cold: Vec<u64>,
    /// Past the last id swept; no id in `cold` lies below it.
    cursor: usize,
}

impl Pending {
    /// Empties the set for a tree of `nodes` nodes (every push of the
    /// last tree was popped, so the bitset is clear already).
    fn reset(&mut self, nodes: usize) {
        debug_assert!(self.heap.is_empty() && self.cold.iter().all(|&w| w == 0));
        if self.cold.len() < nodes.div_ceil(64) {
            self.cold.resize(nodes.div_ceil(64), 0);
        }
        self.cursor = 0;
    }

    fn push(&mut self, count: u64, id: u32) {
        let i = id as usize;
        if count > 0 || i < self.cursor {
            self.heap.push((count, Reverse(id)));
        } else {
            self.cold[i / 64] |= 1 << (i % 64);
        }
    }

    fn pop(&mut self) -> Option<u32> {
        if let Some((_, Reverse(id))) = self.heap.pop() {
            return Some(id);
        }
        let from = self.cursor / 64;
        let w = from + self.cold[from..].iter().position(|&w| w != 0)?;
        let bit = self.cold[w].trailing_zeros() as usize;
        self.cold[w] &= !(1 << bit);
        self.cursor = w * 64 + bit + 1;
        Some((w * 64 + bit) as u32)
    }
}

/// Children of an inner node, or `None` for a leaf.
fn children(tree: &DecisionTree, id: u32) -> Option<(u32, u32)> {
    match tree.nodes()[id as usize] {
        Node::Inner { left, right, .. } => Some((left, right)),
        Node::Leaf { .. } => None,
    }
}

/// Nodes (`[0]`) and leaves (`[1]`) of every tree, per depth (`[depth]
/// [tree]`), counted a depth at a time for as long as the depth rule
/// takes the next level: density only falls with depth, so the first
/// level it refuses ends the count — the rule and the byte costs read
/// nothing deeper.
fn level_census(trees: &[DecisionTree]) -> Vec<Vec<[u64; 2]>> {
    let mut census = Vec::new();
    let mut level_nodes = Vec::new();
    let mut level: Vec<(usize, u32)> = (0..trees.len()).map(|t| (t, 0)).collect();
    for depth in 0..=MAX_TOP_LEVELS {
        let mut counts = vec![[0u64; 2]; trees.len()];
        let mut next = Vec::with_capacity(2 * level.len());
        for &(t, id) in &level {
            counts[t][0] += 1;
            match children(&trees[t], id) {
                Some((l, r)) => next.extend([(t, l), (t, r)]),
                None => counts[t][1] += 1,
            }
        }
        census.push(counts);
        level_nodes.push(level.len() as u64);
        if top_levels(&level_nodes) < depth {
            break;
        }
        level = next;
    }
    census
}

/// The packing decisions taken before a node is emitted, for a layout
/// costing `node_bytes` per stream node and `slot_bytes` per top inner
/// slot: the complete top's depth, and the shards as lists of source
/// trees (byte bin-packing).
fn plan_shards(
    forest: &RandomForest,
    profile: &FrequencyProfile,
    plan: PackPlan,
    node_bytes: usize,
    slot_bytes: usize,
) -> Result<(u32, Vec<Vec<usize>>), LayoutError> {
    profile.matches(forest)?;
    let plan = plan.validated().map_err(|e| LayoutError::BadConfig { detail: e.to_string() })?;
    let total_nodes = forest.total_nodes();
    if total_nodes > MAX_PACKED_NODES {
        return Err(LayoutError::BadConfig {
            detail: format!(
                "packed stores hold {MAX_PACKED_NODES} nodes; forest has {total_nodes}"
            ),
        });
    }
    let n_trees = forest.num_trees();
    let trees = forest.trees();

    // The top's depth: the rule over the forest's level counts — none
    // when a dummy would have no feature to read or a label no room in a
    // bottom slot.
    let census = level_census(trees);
    let level_nodes: Vec<u64> = census.iter().map(|c| c.iter().map(|t| t[0]).sum()).collect();
    let levels = if forest.num_features() == 0 || forest.num_classes() > IN_TOP {
        0
    } else {
        top_levels(&level_nodes)
    };
    let (size, mask) = (1usize << levels, (1usize << levels) - 1);

    // Stage 1: first-fit decreasing over measured per-tree bytes — the
    // top's slots plus the nodes left to the stream. An oversized tree
    // opens a shard of its own (and, being over budget, admits no
    // roommates).
    let tree_bytes: Vec<usize> = trees
        .iter()
        .enumerate()
        .map(|(t, tree)| match levels as usize {
            0 => tree.num_nodes() * node_bytes,
            l => {
                let above: u64 = census[..l].iter().map(|c| c[t][0]).sum();
                let stream = tree.num_nodes() - (above + census[l][t][1]) as usize;
                mask * slot_bytes + size * 4 + stream * node_bytes
            }
        })
        .collect();
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

    Ok((levels, shards))
}

/// Profile-packed f32 FIL forest: 8 B top slots over 12 B
/// [`crate::fil::FilNode`]s in hot-first, shard-packed order. Bit-identical
/// in prediction to the source forest (it takes the same branch at every
/// node); only addresses move.
pub type PackedFilForest = FilStore<F32Nodes, Sharded>;

/// Profile-packed quantized FIL forest: `(feature, grid level)` top slots
/// over one meta word + one grid level per node (`4 + T::BYTES` bytes),
/// same emission rules as [`PackedFilForest`]. Predictions equal the
/// quantizer-snapped oracle (`ThresholdQuantizer::snap_forest`), exactly
/// like [`crate::QFilForest`].
pub type PackedQFilForest<T> = FilStore<QuantNodes<T>, Sharded>;

impl<F: NodeFormat> FilStore<F, Sharded> {
    /// Packs `forest` under `plan`, steering placement with `profile`.
    /// Fails with [`LayoutError::BadConfig`] on a plan or profile that
    /// does not fit the forest and on the format's field budgets — the
    /// child field checked per *shard* (shard-local indices), so lower
    /// `shard_budget_bytes` when a shard is too wide for it.
    pub fn build(
        forest: &RandomForest,
        profile: &FrequencyProfile,
        plan: PackPlan,
    ) -> Result<Self, LayoutError> {
        let mut nodes = F::for_forest(forest)?;
        let slot_bytes = std::mem::size_of::<F::TopSlot>();
        let (levels, shards) = plan_shards(forest, profile, plan, F::NODE_BYTES, slot_bytes)?;
        let trees = forest.trees();
        let n_trees = trees.len();
        let mask = (1usize << levels) - 1;
        let mut top = Top::new(levels, n_trees, nodes.top_slot(DUMMY.0, DUMMY.1));
        let mut placement = Sharded {
            tree_src: Vec::with_capacity(n_trees),
            tree_shard: Vec::with_capacity(n_trees),
            tree_root: Vec::with_capacity(n_trees),
            shard_node_base: vec![0],
            shard_tree_bound: vec![0],
        };
        let mut emission = Emission::default();
        let mut at = Vec::new();

        // Each shard's trees in turn: a tree's stream goes out hot-first
        // (the roots of what the top does not hold — the tree's root when
        // there is no top — hottest first, then the hottest pending child
        // pair), each record written with its shard-local left child, then
        // the tree's top slots.
        for (s, members) in shards.iter().enumerate() {
            let shard_base = nodes.num_nodes();
            for &t in members {
                let (tree, counts) = (&trees[t], &profile.counts[t][..]);
                top_positions(tree, levels, &mut at);
                let mut roots: Vec<u32> = at[mask..]
                    .iter()
                    .copied()
                    .filter(|&n| levels == 0 || children(tree, n).is_some())
                    .collect();
                roots.sort_by_key(|&n| (Reverse(counts[n as usize]), n));
                emission.run(tree, counts, &roots);
                let first = (nodes.num_nodes() - shard_base) as u32;
                let local = |id: u32| first + emission.slot_of[id as usize];
                for &id in &emission.order {
                    match tree.nodes()[id as usize] {
                        Node::Leaf { label } => nodes.leaf(label),
                        Node::Inner { feature, threshold, left, .. } => {
                            nodes.inner(feature, threshold, local(left))
                        }
                    }
                }

                placement.tree_src.push(t as u32);
                placement.tree_shard.push(s as u32);
                placement.tree_root.push(if levels == 0 { first } else { 0 });
                if levels > 0 {
                    top.push_tree(tree, &at, |f, th| nodes.top_slot(f, th), local);
                }
            }
            F::check_span("packed shard", s, nodes.num_nodes() - shard_base)?;
            placement.shard_node_base.push(nodes.num_nodes() as u32);
            placement.shard_tree_bound.push(placement.tree_src.len() as u32);
        }

        let store = FilStore {
            top,
            nodes,
            placement,
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        };
        if cfg!(debug_assertions) {
            let Sharded { tree_shard, shard_node_base: base, .. } = &store.placement;
            let stream = |t: usize| base[tree_shard[t] as usize + 1] - base[tree_shard[t] as usize];
            store.top.assert_postconditions(
                n_trees,
                (store.num_features, store.num_classes),
                F::top_feature,
                |t, local| local < stream(t),
            );
        }
        Ok(store)
    }

    /// Number of byte-packed shards.
    pub fn num_shards(&self) -> usize {
        self.placement.shard_node_base.len() - 1
    }

    /// Source tree id voting at packed position `t` (the permutation the
    /// byte bin-packing applied; majority votes cannot observe it).
    pub fn tree_source(&self, t: usize) -> usize {
        self.placement.tree_src[t] as usize
    }

    /// Cumulative packed-tree shard boundaries `[0, ..., num_trees]`,
    /// the byte-aware tiling the engine adopts over uniform tree counts.
    pub fn shard_tree_bounds(&self) -> Vec<usize> {
        self.shard_bounds().expect("a sharded placement has seams")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fil::FIL_NODE_BYTES;
    use crate::memprobe::NoopSink;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// A complete tree of depth `depth` over feature `depth % 6`.
    fn complete(depth: usize) -> DecisionTree {
        let inner = (1usize << depth) - 1;
        let nodes = (0..2 * inner + 1)
            .map(|i| match i < inner {
                true => Node::Inner {
                    feature: (i % 6) as u16,
                    threshold: (i as f32 * 0.37) % 1.0,
                    left: 2 * i as u32 + 1,
                    right: 2 * i as u32 + 2,
                },
                false => Node::Leaf { label: (i % 3) as u32 },
            })
            .collect();
        DecisionTree::from_nodes(nodes).unwrap()
    }

    /// The forest's node count per depth, through depth 16.
    fn level_nodes(f: &RandomForest) -> Vec<u64> {
        let mut counts = vec![0; MAX_TOP_LEVELS as usize + 1];
        for depth in f.trees().iter().flat_map(DecisionTree::node_depths) {
            if let Some(count) = counts.get_mut(depth) {
                *count += 1;
            }
        }
        counts
    }

    #[test]
    fn complete_trees_of_depth_d_take_a_top_of_d() {
        for d in 0..=MAX_TOP_LEVELS as usize {
            let counts: Vec<u64> = (0..=d).map(|l| 3 << l).collect();
            assert_eq!(top_levels(&counts), d as u32, "depth {d}");
        }
        // Built, not only counted, where it is cheap to.
        for d in 0..=6 {
            let f = RandomForest::from_trees(vec![complete(d); 3], 6, 3).unwrap();
            assert_eq!(top_levels(&level_nodes(&f)), d as u32);
        }
    }

    #[test]
    fn single_leaf_forests_take_no_top() {
        assert_eq!(top_levels(&[5]), 0);
        assert_eq!(top_levels(&[]), 0);
        // Zero-width queries included: no dummy may read `q[0]`.
        let leaf = RandomForest::from_trees(vec![DecisionTree::leaf(2); 4], 0, 3).unwrap();
        let packed =
            PackedFilForest::build(&leaf, &FrequencyProfile::uniform(&leaf), PackPlan::default())
                .unwrap();
        assert_eq!(packed.top_levels(), 0);
        assert!((0..4).all(|t| packed.predict_tree(t, &[]) == 2));
    }

    /// One single-leaf tree, two depth-2 trees, twelve complete depth-5
    /// trees and a spine 40 levels deep under one more complete depth-5
    /// top: per level `[16, 30, 60, 104, 208, 416, 2, 2, …]`. Slots
    /// against covered nodes, ×7 vs ×8: L=3 is 240·7 = 210·8, on the
    /// bound; L=4 is 496·7 > 418·8 — so L=3, and a deeper top would pay
    /// for the shallow trees' dummies.
    #[test]
    fn a_ragged_forest_takes_its_documented_top() {
        let mut trees = vec![DecisionTree::leaf(1)];
        trees.extend(vec![complete(2); 2]);
        trees.extend(vec![complete(5); 12]);
        trees.push(spine_under(complete(5), 40));
        let f = RandomForest::from_trees(trees, 6, 3).unwrap();
        let counts = level_nodes(&f);
        assert_eq!(counts[..8], [16, 30, 60, 104, 208, 416, 2, 2]);
        assert_eq!(top_levels(&counts), 3);
        let packed =
            PackedFilForest::build(&f, &FrequencyProfile::uniform(&f), PackPlan::default())
                .unwrap();
        assert_eq!(packed.top_levels(), 3);
        for q in rows(100, 9).chunks(6) {
            assert_eq!(packed.predict(q), f.predict(q));
        }
    }

    /// `top` with a right-leaning spine of `len` more levels hung under
    /// its last leaf.
    fn spine_under(top: DecisionTree, len: usize) -> DecisionTree {
        let mut nodes = top.nodes().to_vec();
        let mut at = nodes.len() - 1;
        for i in 0..len {
            let next = nodes.len() as u32;
            nodes[at] = Node::Inner {
                feature: (i % 6) as u16,
                threshold: 0.5,
                left: next,
                right: next + 1,
            };
            nodes.extend([Node::Leaf { label: 0 }, Node::Leaf { label: 2 }]);
            at = next as usize + 1;
        }
        DecisionTree::from_nodes(nodes).unwrap()
    }

    #[test]
    fn sparse_forests_never_take_a_top_past_eight_sevenths_of_their_nodes() {
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..200 {
            let leaf_prob = [0.05, 0.2, 0.4, 0.6][case % 4];
            let n = rng.gen_range(1..12);
            let trees: Vec<DecisionTree> = (0..n)
                .map(|_| {
                    let depth = rng.gen_range(0..20);
                    DecisionTree::random(&mut rng, depth, 6, 3, leaf_prob)
                })
                .collect();
            let f = RandomForest::from_trees(trees, 6, 3).unwrap();
            let counts = level_nodes(&f);
            let l = top_levels(&counts) as usize;
            let slots = n as u64 * ((2 << l) - 1);
            let covered: u64 = counts[..=l].iter().sum();
            assert!(7 * slots <= 8 * covered, "case {case}: L={l} {slots} slots, {covered} nodes");
        }
    }

    /// Any interleaving of pushes (distinct ids, in any id order, hot or
    /// cold) and pops comes out as one max-heap would pop it.
    #[test]
    fn pending_pops_in_max_heap_order() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let n = rng.gen_range(1..300u32);
            let mut ids: Vec<u32> = (0..n).collect();
            ids.sort_by_cached_key(|_| rng.gen::<u32>());
            let mut ids = ids.into_iter();
            let (mut pending, mut heap) = (Pending::default(), BinaryHeap::new());
            pending.reset(n as usize);
            loop {
                if rng.gen_bool(0.6) {
                    if let Some(id) = ids.next() {
                        let count = if rng.gen_bool(0.3) { rng.gen_range(1..5) } else { 0 };
                        pending.push(count, id);
                        heap.push((count, Reverse(id)));
                        continue;
                    }
                }
                let want = heap.pop().map(|(_, Reverse(id))| id);
                assert_eq!(pending.pop(), want);
                if want.is_none() && ids.len() == 0 {
                    break;
                }
            }
        }
    }

    #[test]
    fn plan_validation_rejects_bad_parameters() {
        assert_eq!(PackPlan::new(0), Err(PackError::ZeroShardBudget));
        let plan = PackPlan::new(4096).unwrap();
        assert_eq!(plan.shard_budget_bytes(), 4096);
        assert_eq!(PackPlan::default().validated(), Ok(PackPlan::default()));
        assert_eq!(PackPlan::default().budget(0).validated(), Err(PackError::ZeroShardBudget));
    }

    #[test]
    fn packed_fil_matches_source_forest_tree_by_tree() {
        let f = forest(9, 1);
        let packed = PackedFilForest::build(&f, &profile_for(&f, 2), PackPlan::default()).unwrap();
        assert!(packed.top_levels() > 0, "the fixture takes a top");
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

    /// The top replaces the first `L` levels: a depth-`L` forest keeps no
    /// stream at all, every walk spends exactly `L` steps in the top, and
    /// a deeper one keeps exactly the nodes below the top's leaves.
    #[test]
    fn the_top_replaces_the_first_levels_of_every_tree() {
        let f = RandomForest::from_trees(vec![complete(5); 4], 6, 3).unwrap();
        let packed = PackedFilForest::build(&f, &profile_for(&f, 3), PackPlan::default()).unwrap();
        assert_eq!(packed.top_levels(), 5);
        assert!(packed.nodes().is_empty(), "a depth-5 forest never leaves its top");
        for q in rows(50, 4).chunks(6) {
            for t in 0..4 {
                let mut steps = 0;
                let label = crate::walk(packed.root(t), |cursor| {
                    steps += 1;
                    packed.step_with(cursor, q, &mut NoopSink)
                });
                assert_eq!(label, f.trees()[0].predict(q));
                assert_eq!(steps, 5);
            }
        }
        // 31 inner slots of 8 B and 32 bottom slots of 4 B a tree.
        assert_eq!(packed.footprint().attribute_bytes, 4 * (31 * 8 + 32 * 4));

        let deep = forest(6, 5);
        let packed = PackedFilForest::build(&deep, &profile_for(&deep, 6), PackPlan::default());
        let packed = packed.unwrap();
        let l = packed.top_levels();
        let kept: usize = deep.trees().iter().map(|t| below_the_top(t, l)).sum();
        assert_eq!(packed.nodes().len(), kept);
    }

    /// Nodes of `tree` a top of `levels` levels leaves to the stream:
    /// everything deeper, and the inner nodes on its bottom level.
    fn below_the_top(tree: &DecisionTree, levels: u32) -> usize {
        let (d, l) = (tree.node_depths(), levels as usize);
        (0..tree.num_nodes())
            .filter(|&n| d[n] > l || (d[n] == l && !tree.nodes()[n].is_leaf()))
            .count()
    }

    #[test]
    fn byte_bin_packing_respects_the_shard_budget() {
        let f = forest(10, 31);
        let packed =
            PackedFilForest::build(&f, &FrequencyProfile::uniform(&f), PackPlan::default());
        let l = packed.unwrap().top_levels();
        assert!(l > 0, "the fixture takes a top");
        // A tree's cost: its top's slots plus what is left to the stream.
        let top = ((1 << l) - 1) * 8 + (1 << l) * 4;
        let cost = |t: &DecisionTree| top + below_the_top(t, l) * FIL_NODE_BYTES;
        // Budget of two max-size trees: every multi-tree shard must fit it.
        let plan = PackPlan::new(2 * f.trees().iter().map(cost).max().unwrap()).unwrap();
        let packed = PackedFilForest::build(&f, &FrequencyProfile::uniform(&f), plan).unwrap();
        assert_eq!(packed.top_levels(), l, "the budget does not move the top");
        let bounds = packed.shard_tree_bounds();
        assert!(bounds.len() > 2, "the budget forces several shards");
        assert_eq!(*bounds.first().unwrap(), 0);
        assert_eq!(*bounds.last().unwrap(), f.num_trees());
        for w in bounds.windows(2) {
            let bytes: usize = (w[0]..w[1]).map(|t| cost(&f.trees()[packed.tree_source(t)])).sum();
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
        // path: the stream root it leaves the top for comes first, and
        // every stream node on the path lands within the first
        // 2·(stream steps) − 1 slots (each hot pair is emitted before any
        // cold subtree expands).
        let f = RandomForest::from_trees(vec![spine_under(complete(3), 12)], 6, 4).unwrap();
        let hot_q: Vec<f32> = vec![0.9; 6];
        let profile = FrequencyProfile::collect(&f, QueryView::new(&hot_q, 6).unwrap());
        let packed = PackedFilForest::build(&f, &profile, PackPlan::default()).unwrap();
        assert_eq!(packed.top_levels(), 3);
        let (mut deepest, mut visited) = (0, 0);
        crate::walk(packed.root(0), |cursor| {
            if cursor.at & IN_TOP == 0 {
                deepest = deepest.max(cursor.at);
                visited += 1;
            }
            packed.step_with(cursor, &hot_q, &mut NoopSink)
        });
        assert!(visited > 1, "the hot path leaves the top");
        assert!(deepest <= 2 * (visited - 1), "deepest {deepest} after {visited} stream steps");
    }

    #[test]
    fn uniform_profile_builds_are_deterministic_degenerates() {
        let f = forest(5, 51);
        let plan = PackPlan::new(4096).unwrap();
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
        // The stream keeps what the top does not hold; a tree's top is
        // `2^L − 1` inner slots of 8 B and `2^L` bottom slots of 4 B (eight
        // trees need no padding).
        let l = packed.top_levels();
        assert!(l > 0, "the fixture takes a top");
        assert_eq!(
            packed.footprint().attribute_bytes,
            packed.nodes().len() * FIL_NODE_BYTES + 8 * (((1 << l) - 1) * 8 + (1 << l) * 4)
        );
        assert!(packed.nodes().len() < fil.nodes().len());
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
}
