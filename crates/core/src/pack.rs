//! Profile-guided forest packing (ROADMAP item 2, after Browne et al.'s
//! *Forest Packing*).
//!
//! The paper's thesis is that forest *layout*, not arithmetic, decides
//! inference speed; this module is the layout pass that acts on it. Given
//! a calibration [`FrequencyProfile`] (per-node visit counts over a
//! representative query sample), the [`Sharded`] placement of the FIL
//! store ([`PackedFilForest`] / [`PackedQFilForest`]) re-emits a forest's
//! node stream so that
//!
//! 1. **trees are bin-packed into shards by measured bytes** — first-fit
//!    decreasing over each tree's byte cost in the target layout (the
//!    same per-tree byte figure
//!    [`LayoutFootprint::per_tree`](crate::footprint::LayoutFootprint::per_tree) averages),
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

use crate::fil::{F32Nodes, FilCursor, FilStore, NodeFormat, Placement};
use crate::quant::QuantNodes;
use crate::{goes_right, LayoutError};

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
    /// Replays every calibration row through every tree and counts node
    /// visits.
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
                            let go_right = goes_right(q[feature as usize], threshold);
                            id = if go_right { right } else { left } as usize;
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

/// The profile-packed placement: trees bin-packed into shards, child
/// indices relative to the owning shard's first node, each tree's root at
/// a slot of its own inside the shard's interleaved leading segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Sharded {
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

impl Placement for Sharded {
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

/// What [`pack_layout`] decides, for either node format: emission order,
/// resolved shard-local children, and the tree/shard directory.
/// `slots[g] = (source tree, source node)` for global slot `g`.
struct PackLayout {
    slots: Vec<(u32, u32)>,
    /// Shard-local left-child slot per global slot (0 for leaves).
    left_child: Vec<u32>,
    placement: Sharded,
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
    let mut left_child = Vec::with_capacity(total_nodes);
    let mut placement = Sharded {
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
            left_child.push(lc);
        }
        for &t in members {
            placement.tree_src.push(t as u32);
            placement.tree_shard.push(s as u32);
            placement.tree_root.push(slot_of[t][0]);
        }
        placement.shard_node_base.push(slots.len() as u32);
        placement.shard_tree_bound.push(placement.tree_src.len() as u32);
    }

    debug_assert_eq!(slots.len(), total_nodes);
    Ok(PackLayout { slots, left_child, placement })
}

/// Profile-packed f32 FIL forest: 12 B [`crate::fil::FilNode`]s in
/// hot-first, shard-interleaved order. Bit-identical in prediction to the
/// source forest (it takes the same branch at every node); only
/// addresses move.
pub type PackedFilForest = FilStore<F32Nodes, Sharded>;

/// Profile-packed quantized FIL forest: one meta word + one grid level
/// per node (`4 + T::BYTES` bytes), same emission order rules as
/// [`PackedFilForest`]. Predictions equal the quantizer-snapped oracle
/// (`ThresholdQuantizer::snap_forest`), exactly like [`crate::QFilForest`].
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
        let layout = pack_layout(forest, profile, plan, F::NODE_BYTES)?;
        for (s, shard) in layout.placement.shard_node_base.windows(2).enumerate() {
            F::check_span("packed shard", s, (shard[1] - shard[0]) as usize)?;
        }
        for (&(t, id), &left_child) in layout.slots.iter().zip(&layout.left_child) {
            match forest.trees()[t as usize].nodes()[id as usize] {
                Node::Leaf { label } => nodes.leaf(label),
                Node::Inner { feature, threshold, .. } => {
                    nodes.inner(feature, threshold, left_child)
                }
            }
        }
        Ok(FilStore {
            nodes,
            placement: layout.placement,
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        })
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
            assert!((packed.placement.tree_root[t] as usize) < packed.num_trees());
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
        // Every node the hot query visits sits in one of the first
        // 2 * depth + 1 slots.
        let (mut deepest, mut visited) = (0, 0);
        crate::walk(packed.root(0), |cursor| {
            deepest = deepest.max(cursor.at);
            visited += 1;
            packed.step_with(cursor, &hot_q, &mut NoopSink)
        });
        assert!(deepest < 2 * (visited - 1) + 1);
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
}
