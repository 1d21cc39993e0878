//! Tree-sharded, cache-blocked CPU execution engine behind the unified
//! [`Predictor`] API.
//!
//! The practical CPU path used to walk the whole forest query-at-a-time:
//! every query streamed every tree's nodes through the cache, so a forest
//! larger than L2 was re-fetched from DRAM once per query. Forest
//! Packing (Browne et al.) and the paper's own GPU/FPGA variants win by
//! controlling *where* tree bytes live during traversal; this module
//! applies the same idea on the CPU:
//!
//! * the forest is partitioned into **tree shards** sized from
//!   [`rfx_core::footprint`] so one shard's hot nodes fit in L2;
//! * the query batch is partitioned into **query blocks**;
//! * work is tiled as (query block × tree shard) tasks — a shard's nodes
//!   stay cache-resident while every query in the block traverses them;
//! * inside a tile, one kernel (`walk_tile`) keeps many independent tree
//!   walks in flight per thread over the tile's (tree, row) pairs:
//!   through a layout's complete top ([`rfx_core::pack`]) in lockstep
//!   groups of 8, by arithmetic alone, then up to 64 at a time, one
//!   level per sweep, through the layouts' one-level
//!   [`TreeEnsemble::step`], so their node loads overlap instead of
//!   queueing behind one another;
//! * per-shard class votes accumulate into a per-block scratch owned by
//!   one participant (no per-query allocation, no vote contention) — the
//!   accumulator its [`VotePolicy`] names, the one block loop being
//!   generic over it — and a final pass reduces each row's votes to a
//!   label;
//! * a batch's blocks are **claimed one at a time** (`crate::fanout`):
//!   every participant runs `loop { claim the next block; walk its
//!   shards; reduce its rows }` with scratch it reuses across blocks, and
//!   the calling thread is always the first participant — it starts on
//!   block 0 the moment the work is posted and waits, at the tail, only
//!   for blocks a helper has already claimed. A one-thread plan is the
//!   same loop with nobody invited: no lock, no wake-up.
//!
//! Everything is fronted by the [`Predictor`] trait — `rfx-serve`
//! backends, the bench harnesses, and the examples all speak
//! `predict_into(&self, queries, out)`; [`crate::cpu`] keeps only the
//! functional reference they are tested against.
//! [`Predictor::predict_into`] borrows its source and its rows, so its
//! helpers are scoped threads (`plan.threads() − 1` of them, spawned per
//! batch); an engine over an `Arc` also has
//! [`ShardedEngine::predict_into_shared`], which hands the process-wide
//! parked crew a job that owns a clone of the `Arc` and a copy of the
//! rows. Which of the two a caller gets is decided by what its types
//! allow, not by an option: the claim loop, the labels and the panic path
//! are the same.

use crate::fanout::{crew, Fanout, Job};
use crate::votes::{all_decided, BitSlicedVotes, Counts, VoteAccumulator, VotePolicy};
use rfx_core::csr::CsrCursor;
use rfx_core::fil::{FilCursor, FilStore, NodeFormat, Placement};
use rfx_core::footprint::LayoutFootprint;
use rfx_core::hier::HierCursor;
use rfx_core::memprobe::{FetchSink, NoopSink};
use rfx_core::pack::{PackError, PackPlan};
use rfx_core::{goes_right, CsrForest, HierForest, Label};
use rfx_forest::dataset::QueryView;
use rfx_forest::{Node, RandomForest};
use std::fmt;
use std::sync::Arc;

/// Anything that can walk one of its trees one level at a time: the
/// capability the execution engine needs from a forest layout.
/// Implemented by every layout (node-vector, hierarchical, CSR, and the
/// FIL store in each of its node formats and placements) plus references
/// and `Arc`s to them, so engines can own or share their source.
///
/// The traversal primitive is deliberately one *level*, not one tree:
/// [`TreeEnsemble::root`] hands out a `Copy` cursor and
/// [`TreeEnsemble::step`] advances it past one node, so the sharded
/// engine's tile kernel can hold 64 cursors in a plain array and
/// advance them round-robin — independent loads the out-of-order core
/// overlaps, where a lone `loop { step }` waits out one dependent load
/// per level. Each layout decodes its nodes in exactly one place,
/// [`TreeEnsemble::step_with`]; everything else here is that function
/// under a fixed sink or in a loop.
pub trait TreeEnsemble: Send + Sync {
    /// Where one walk stands inside one tree.
    type Cursor: Copy;
    /// Number of trees in the ensemble.
    fn num_trees(&self) -> usize;
    /// Number of classes voted over.
    fn num_classes(&self) -> u32;
    /// Byte footprint of the layout's traversal-hot arrays — what
    /// [`EnginePlan::auto`] sizes tree shards from.
    fn footprint(&self) -> LayoutFootprint;
    /// A walk standing at the root of tree `t`.
    fn root(&self, t: usize) -> Self::Cursor;
    /// Advances `cursor` one level for `query`: `Some(label)` when it
    /// stands on a leaf (the cursor is then spent), otherwise it moves
    /// to the child the node's comparison selects. Each simulated memory
    /// fetch is reported to `sink` (see [`rfx_core::memprobe`]) — what the
    /// engine's software memory tracer (`mem-tracer` feature) drives its
    /// cache model from. Layouts without an address-exact memory model
    /// (node-vector, hierarchical) report nothing: they still vote
    /// correctly, they just contribute nothing to the trace.
    fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut Self::Cursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label>;
    /// [`TreeEnsemble::step_with`] reporting to nobody — the sink
    /// monomorphises away.
    #[inline]
    fn step(&self, cursor: &mut Self::Cursor, query: &[f32]) -> Option<Label> {
        self.step_with(cursor, query, &mut NoopSink)
    }
    /// Classifies `query` with tree `t`: one walk, root to leaf.
    fn vote_tree(&self, t: usize, query: &[f32]) -> Label {
        rfx_core::walk(self.root(t), |cursor| self.step(cursor, query))
    }
    /// [`TreeEnsemble::vote_tree`] reporting every fetch of the walk to
    /// `sink`.
    fn vote_tree_traced<S: FetchSink + ?Sized>(
        &self,
        t: usize,
        query: &[f32],
        sink: &mut S,
    ) -> Label {
        rfx_core::walk(self.root(t), |cursor| self.step_with(cursor, query, sink))
    }
    /// Cumulative tree-count shard boundaries (`[0, ..., num_trees]`)
    /// when the layout was built with byte-aware shards of its own — the
    /// packed placement ([`rfx_core::pack`]) returns its bin-packed
    /// bounds so the engine tiles along the same seams the node stream
    /// was packed for. `None` (the default) keeps the plan's uniform
    /// `shard_trees` stride.
    fn shard_bounds(&self) -> Option<Vec<usize>> {
        None
    }

    // The complete top ([`rfx_core::pack`]): what `walk_tile` walks all
    // lanes through in lockstep before any lane takes a `step`. A layout
    // without one keeps the defaults, and `walk_tile` never calls the
    // three methods after `top_levels`.

    /// One inner slot of the layout's complete top (`()` without one).
    type TopSlot: Copy;
    /// Levels of the complete top every walk starts in; 0 (the default)
    /// for a layout without one.
    fn top_levels(&self) -> u32 {
        0
    }
    /// Level `level` of every tree's top, tree `t`'s `2^level` slots at
    /// `t << level`, so position `j`'s children are the next level's `2j`
    /// and `2j + 1`. Its length is a power of two.
    fn top_level(&self, _level: u32) -> &[Self::TopSlot] {
        &[]
    }
    /// The layout's one decode of a top slot: whether `query` goes right.
    fn top_goes_right(&self, _slot: Self::TopSlot, _query: &[f32]) -> bool {
        unreachable!("a layout without a top has no top slots")
    }
    /// Where a walk that left the top at bottom slot `bottom` (its
    /// position on level `top_levels`) goes: `Ok` with its leaf, or `Err`
    /// with the cursor of the node it continues at.
    fn top_exit(&self, _bottom: usize) -> Result<Label, Self::Cursor> {
        unreachable!("a layout without a top has no bottom slots")
    }
}

/// Where one walk through the node-vector forest stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeVecCursor {
    tree: u32,
    node: u32,
}

impl TreeEnsemble for RandomForest {
    type Cursor = NodeVecCursor;
    type TopSlot = ();

    fn num_trees(&self) -> usize {
        RandomForest::num_trees(self)
    }

    fn num_classes(&self) -> u32 {
        RandomForest::num_classes(self)
    }

    fn footprint(&self) -> LayoutFootprint {
        // The node-vector layout has no packed device arrays; account its
        // in-memory enum nodes plus one Vec header per tree so shard
        // sizing sees what traversal actually touches.
        LayoutFootprint {
            attribute_bytes: self.total_nodes() * std::mem::size_of::<Node>(),
            topology_bytes: 0,
            index_bytes: RandomForest::num_trees(self) * std::mem::size_of::<usize>() * 3,
        }
    }

    #[inline]
    fn root(&self, t: usize) -> NodeVecCursor {
        NodeVecCursor { tree: t as u32, node: 0 }
    }

    #[inline]
    fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut NodeVecCursor,
        query: &[f32],
        _sink: &mut S,
    ) -> Option<Label> {
        match self.trees()[cursor.tree as usize].nodes()[cursor.node as usize] {
            Node::Leaf { label } => Some(label),
            Node::Inner { feature, threshold, left, right } => {
                let right_wins = goes_right(query[feature as usize], threshold);
                cursor.node = if right_wins { right } else { left };
                None
            }
        }
    }
}

/// The part of a core layout's [`TreeEnsemble`] impl that only forwards
/// to the layout's inherent methods of the same names.
macro_rules! forward_to_inherent {
    ($cursor:ty) => {
        type Cursor = $cursor;

        fn num_trees(&self) -> usize {
            Self::num_trees(self)
        }

        fn num_classes(&self) -> u32 {
            Self::num_classes(self)
        }

        fn footprint(&self) -> LayoutFootprint {
            Self::footprint(self)
        }

        #[inline]
        fn root(&self, t: usize) -> $cursor {
            Self::root(self, t)
        }
    };
}

impl TreeEnsemble for HierForest {
    forward_to_inherent!(HierCursor);
    type TopSlot = ();

    #[inline]
    fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut HierCursor,
        query: &[f32],
        _sink: &mut S,
    ) -> Option<Label> {
        HierForest::step(self, cursor, query)
    }
}

impl TreeEnsemble for CsrForest {
    forward_to_inherent!(CsrCursor);
    type TopSlot = ();

    #[inline]
    fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut CsrCursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label> {
        CsrForest::step_with(self, cursor, query, sink)
    }
}

// The whole FIL family, through its one store. A quantized format's
// `footprint()` reports the *compressed* bytes, which is what lets
// `EnginePlan::auto` pack ~2.4× more u8-quantized trees into each L2
// shard; the packed placement publishes its byte-bin-packed shard seams,
// so the tile loop walks the tree groups that were packed together, and
// its complete top.
impl<F: NodeFormat, P: Placement> TreeEnsemble for FilStore<F, P> {
    forward_to_inherent!(FilCursor);
    type TopSlot = F::TopSlot;

    #[inline]
    fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut FilCursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label> {
        FilStore::step_with(self, cursor, query, sink)
    }

    fn shard_bounds(&self) -> Option<Vec<usize>> {
        FilStore::shard_bounds(self)
    }

    #[inline]
    fn top_levels(&self) -> u32 {
        FilStore::top_levels(self)
    }

    #[inline]
    fn top_level(&self, level: u32) -> &[F::TopSlot] {
        FilStore::top_level(self, level)
    }

    #[inline]
    fn top_goes_right(&self, slot: F::TopSlot, query: &[f32]) -> bool {
        FilStore::top_goes_right(self, slot, query)
    }

    #[inline]
    fn top_exit(&self, bottom: usize) -> Result<Label, FilCursor> {
        FilStore::top_exit(self, bottom)
    }
}

/// `&E` and `Arc<E>` are ensembles whenever `E` is, so engines can
/// borrow or share their source.
macro_rules! forward_through_deref {
    ($pointer:ty) => {
        impl<E: TreeEnsemble + ?Sized> TreeEnsemble for $pointer {
            type Cursor = E::Cursor;

            fn num_trees(&self) -> usize {
                (**self).num_trees()
            }

            fn num_classes(&self) -> u32 {
                (**self).num_classes()
            }

            fn footprint(&self) -> LayoutFootprint {
                (**self).footprint()
            }

            #[inline]
            fn root(&self, t: usize) -> E::Cursor {
                (**self).root(t)
            }

            #[inline]
            fn step_with<S: FetchSink + ?Sized>(
                &self,
                cursor: &mut E::Cursor,
                query: &[f32],
                sink: &mut S,
            ) -> Option<Label> {
                (**self).step_with(cursor, query, sink)
            }

            fn shard_bounds(&self) -> Option<Vec<usize>> {
                (**self).shard_bounds()
            }

            type TopSlot = E::TopSlot;

            #[inline]
            fn top_levels(&self) -> u32 {
                (**self).top_levels()
            }

            #[inline]
            fn top_level(&self, level: u32) -> &[E::TopSlot] {
                (**self).top_level(level)
            }

            #[inline]
            fn top_goes_right(&self, slot: E::TopSlot, query: &[f32]) -> bool {
                (**self).top_goes_right(slot, query)
            }

            #[inline]
            fn top_exit(&self, bottom: usize) -> Result<Label, E::Cursor> {
                (**self).top_exit(bottom)
            }
        }
    };
}

forward_through_deref!(&E);
forward_through_deref!(Arc<E>);

/// The unified batch-inference interface: predict a whole query batch
/// into a caller-provided slice, allocation-free on the output path.
/// Object-safe, so executor pools can hold `Box<dyn Predictor>`.
pub trait Predictor: Send + Sync {
    /// Predicts every row of `queries` into `out`.
    ///
    /// # Panics
    /// If `out.len() != queries.num_rows()`.
    fn predict_into(&self, queries: QueryView<'_>, out: &mut [Label]);

    /// Allocate-and-return convenience over [`Predictor::predict_into`].
    fn predict(&self, queries: QueryView<'_>) -> Vec<Label> {
        let mut out = vec![0; queries.num_rows()];
        self.predict_into(queries, &mut out);
        out
    }
}

/// Shard budget: half a typical per-core L2 slice, leaving the other
/// half for the query block, the vote scratch, and incidental state.
const L2_SHARD_BUDGET_BYTES: usize = 512 << 10;

/// Default rows per query block: 64 rows × a few dozen f32 features is
/// L1-sized, and amortizes the per-tile loop overhead.
const DEFAULT_QUERY_BLOCK: usize = 64;

/// Least (row × tree) traversals an auto plan gives each thread. Two
/// threads on sibling hyperthreads run 1.2–1.4×, not 2×, as fast as one,
/// and a helper has to arrive before it helps: a scoped one is spawned
/// for the call ([`Predictor::predict_into`]), a crew one is woken from
/// its condvar ([`ShardedEngine::predict_into_shared`]). Measured on the
/// hier layout (the ledger's 50 trees × depth 15 and 200 × depth 8
/// forests, rows rotating through an 8192-row pool so paths arrive cold,
/// median of 300 calls, one thread against two through either entry
/// point, the two-thread plan cutting the batch into two blocks, three
/// runs, 2 vCPUs): a traversal costs about 140 ns on the first forest and
/// 23 ns on the L2-resident second. Scoped helpers tie with one thread
/// around 3200 traversals on the first (64 × 50: 404–447 µs alone,
/// 402–432 with a helper) and 12 800 on the second (64 × 200: 283–288
/// against 254–271); crew helpers around 1600 (32 × 50: 220–231 against
/// 221–223) and 6400–9600 (32 and 48 × 200: 146–149 and 206–218 against
/// 127–153 and 212–226). Two threads win beyond — 256 × 50: 1836–2808
/// alone, 1220–1529 scoped, 1106–1484 crew; 256 × 200: 1143–1164, 717–758,
/// 675–718. While every fan-out spawned one scoped thread per task
/// through the `compat/rayon` shim and the caller only joined, the ties
/// sat near 6400 and 24 000.
///
/// The constant stays at 6400 — a switch at 12 800 traversals, at or
/// above every tie there is now — on purpose: it keeps every batch a
/// lightly loaded service forms (1–16 rows × 50–200 trees in the
/// ledger's open-loop windows) on its worker with no lock taken and
/// nobody woken, and it is the largest value at which a full 256-row
/// batch on a 50-tree forest still fans out. Lowering it trades `p50_us`
/// for throughput on 32–128-row batches and is a change of its own.
const MIN_ROW_TREES_PER_THREAD: usize = 6400;

/// Tiling and vote-reduction parameters for the sharded engine.
///
/// Construct one through the validated builder —
/// `EnginePlan::builder().shard_trees(..).query_block(..)
///  .vote_policy(..).build()?` — or let [`EnginePlan::auto`] derive one
/// from footprint statistics. [`EnginePlan::default`] remains the
/// 16-tree / 64-row starting point. The builder rejects the degenerate
/// values `normalized()` used to silently clamp (zero shard trees, zero
/// query block) with a typed [`PlanError`]; the shape-dependent clamps
/// (more shard trees than the forest has, more threads than blocks)
/// still happen in [`EnginePlan::normalized`] at execution time, when
/// the concrete forest and batch are known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnginePlan {
    /// Trees per shard (the engine forms `ceil(n_trees / shard_trees)`
    /// shards, so the shard count never exceeds the tree count).
    shard_trees: usize,
    /// Query rows per block.
    query_block: usize,
    /// Worker-thread cap; `0` means use the machine's available
    /// parallelism.
    threads: usize,
    /// How per-tree votes reduce to labels (and whether decided query
    /// blocks may skip remaining shards) — see [`VotePolicy`].
    vote_policy: VotePolicy,
    /// When set, opts the plan into the packed layouts' byte-aware
    /// shard boundaries ([`TreeEnsemble::shard_bounds`]) instead of the
    /// uniform `shard_trees` stride, and records the packing parameters
    /// the layout should be built with.
    pack: Option<PackPlan>,
}

impl Default for EnginePlan {
    fn default() -> Self {
        EnginePlan {
            shard_trees: 16,
            query_block: DEFAULT_QUERY_BLOCK,
            threads: 0,
            vote_policy: VotePolicy::Exact,
            pack: None,
        }
    }
}

/// Why [`EnginePlanBuilder::build`] refused a plan. These are the
/// degenerate inputs `EnginePlan::normalized` used to clamp silently;
/// the builder surfaces them instead so a typo'd config fails loudly at
/// construction rather than executing with a repaired stranger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// `shard_trees` was 0 — a shard must hold at least one tree.
    ZeroShardTrees,
    /// `query_block` was 0 — a block must hold at least one row.
    ZeroQueryBlock,
    /// The attached [`PackPlan`] failed its own validation.
    Pack(PackError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ZeroShardTrees => f.write_str("shard_trees must be at least 1"),
            PlanError::ZeroQueryBlock => f.write_str("query_block must be at least 1"),
            PlanError::Pack(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Validated builder for [`EnginePlan`] — the only construction path
/// besides [`EnginePlan::auto`] and [`EnginePlan::default`] (the
/// deprecated public fields and `with_*` setters completed their
/// removal cycle). Seeded from [`EnginePlan::default`]; every knob is
/// optional.
#[derive(Debug, Clone, Copy)]
pub struct EnginePlanBuilder {
    shard_trees: usize,
    query_block: usize,
    threads: usize,
    vote_policy: VotePolicy,
    pack: Option<PackPlan>,
}

impl EnginePlanBuilder {
    /// Sets the trees-per-shard budget (must be ≥ 1 at `build`).
    pub fn shard_trees(mut self, shard_trees: usize) -> Self {
        self.shard_trees = shard_trees;
        self
    }

    /// Sets the rows-per-block budget (must be ≥ 1 at `build`).
    pub fn query_block(mut self, query_block: usize) -> Self {
        self.query_block = query_block;
        self
    }

    /// Sets the worker-thread cap (`0` = use available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the vote-reduction policy.
    pub fn vote_policy(mut self, vote_policy: VotePolicy) -> Self {
        self.vote_policy = vote_policy;
        self
    }

    /// Attaches packing parameters: the plan then tiles along the packed
    /// layout's byte-aware [`TreeEnsemble::shard_bounds`] (validated at
    /// `build`, like every other knob).
    pub fn pack(mut self, pack: PackPlan) -> Self {
        self.pack = Some(pack);
        self
    }

    /// Validates the knobs into an [`EnginePlan`].
    pub fn build(self) -> Result<EnginePlan, PlanError> {
        if self.shard_trees == 0 {
            return Err(PlanError::ZeroShardTrees);
        }
        if self.query_block == 0 {
            return Err(PlanError::ZeroQueryBlock);
        }
        if let Some(pack) = self.pack {
            pack.validated().map_err(PlanError::Pack)?;
        }
        Ok(EnginePlan {
            shard_trees: self.shard_trees,
            query_block: self.query_block,
            threads: self.threads,
            vote_policy: self.vote_policy,
            pack: self.pack,
        })
    }
}

impl EnginePlan {
    /// A builder seeded with the default plan.
    pub fn builder() -> EnginePlanBuilder {
        EnginePlan::default().to_builder()
    }

    /// A builder seeded with this plan's values — the supported way to
    /// tweak one knob of an existing (e.g. [`EnginePlan::auto`]) plan.
    pub fn to_builder(self) -> EnginePlanBuilder {
        EnginePlanBuilder {
            shard_trees: self.shard_trees,
            query_block: self.query_block,
            threads: self.threads,
            vote_policy: self.vote_policy,
            pack: self.pack,
        }
    }

    /// Trees per shard.
    pub fn shard_trees(&self) -> usize {
        self.shard_trees
    }

    /// Query rows per block.
    pub fn query_block(&self) -> usize {
        self.query_block
    }

    /// Worker-thread cap (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The vote-reduction policy.
    pub fn vote_policy(&self) -> VotePolicy {
        self.vote_policy
    }

    /// The packing parameters, when the plan opted into byte-aware
    /// shard boundaries.
    pub fn pack(&self) -> Option<PackPlan> {
        self.pack
    }

    /// Derives a plan from footprint statistics: shards hold as many
    /// trees as fit the L2 budget (at least one, at most all of them,
    /// and enough to fill the tile kernel's lanes when blocks are small),
    /// blocks default to [`DEFAULT_QUERY_BLOCK`] rows but shrink when the
    /// batch is too small to occupy every thread, threads are capped so
    /// each gets at least [`MIN_ROW_TREES_PER_THREAD`] traversals (a
    /// small batch runs inline on the caller), and the knobs are clamped
    /// so 1-tree and 1-query (even 0-query) shapes stay valid.
    /// The vote policy defaults to [`VotePolicy::Exact`]; use
    /// [`EnginePlan::to_builder`] (or [`ShardedEngine::with_policy`]) to
    /// change it.
    ///
    /// When the whole forest fits one shard there is no cross-block node
    /// reuse to exploit, so a one-thread plan runs the batch as a single
    /// block — block bookkeeping would be pure overhead. A multi-thread
    /// plan keeps `DEFAULT_QUERY_BLOCK`-row blocks either way: blocks
    /// are claimed one at a time, and with one block per thread there is
    /// nothing to claim — whoever starts late finishes late.
    pub fn auto(footprint: &LayoutFootprint, n_trees: usize, n_queries: usize) -> EnginePlan {
        let n_trees = n_trees.max(1);
        // `LayoutFootprint::per_tree` is layout-aware: quantized layouts
        // report their compressed resident bytes, so their shards hold
        // proportionally more trees than the f32 layouts'.
        let per_tree_bytes = footprint.per_tree(n_trees);
        let shard_trees = (L2_SHARD_BUDGET_BYTES / per_tree_bytes).clamp(1, n_trees);
        let work = n_queries.saturating_mul(n_trees);
        let threads = available_threads().min(work / MIN_ROW_TREES_PER_THREAD).max(1);
        let per_thread = n_queries.div_ceil(threads).max(1);
        let query_block = if shard_trees == n_trees && threads == 1 {
            per_thread
        } else {
            DEFAULT_QUERY_BLOCK.min(per_thread)
        };
        // A shard is cut to fit L2 so that a block's rows re-walk it
        // hot, but a block of few rows has no reuse to protect, and a
        // tile of few (tree, row) pairs starves the kernel's lanes (one
        // row × a one-tree shard is a single walk). Small blocks
        // therefore take as many trees as give a tile the pairs of one
        // full default block through one tree.
        let shard_trees = shard_trees.max(DEFAULT_QUERY_BLOCK.div_ceil(query_block)).min(n_trees);
        EnginePlan { shard_trees, query_block, threads, vote_policy: VotePolicy::Exact, pack: None }
    }

    /// Clamps the plan to a concrete forest/batch shape: at least one
    /// tree per shard (and no more than the forest has), at least one row
    /// per block, and a resolved positive thread count. The vote policy
    /// passes through unchanged.
    pub fn normalized(self, n_trees: usize, n_queries: usize) -> EnginePlan {
        let shard_trees = self.shard_trees.clamp(1, n_trees.max(1));
        let query_block = self.query_block.clamp(1, n_queries.max(1));
        let threads = if self.threads == 0 { available_threads() } else { self.threads };
        let blocks = n_queries.div_ceil(query_block).max(1);
        EnginePlan {
            shard_trees,
            query_block,
            threads: threads.clamp(1, blocks),
            vote_policy: self.vote_policy,
            pack: self.pack,
        }
    }
}

/// The machine's parallelism, asked once: `available_parallelism` re-reads
/// the affinity mask and the cgroup quota files on every call — 18.6 µs
/// on the 2-vCPU box, more than a 4-row batch's whole traversal — and
/// every auto-planned batch asks. What an auto plan's thread count and
/// [`RowParallel`]'s split are capped by, and one more than the crew has
/// helpers.
pub fn available_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(4)
    })
}

/// The tree-sharded, cache-blocked execution engine over any
/// [`TreeEnsemble`]. With an explicit [`EnginePlan`] the tiling is fixed;
/// without one ([`ShardedEngine::new`]) every batch gets a fresh
/// [`EnginePlan::auto`] sized to its row count — the right default for a
/// service whose batch sizes vary.
pub struct ShardedEngine<E: TreeEnsemble> {
    source: E,
    plan: Option<EnginePlan>,
    policy: VotePolicy,
    /// The source's footprint, computed once at construction so
    /// per-batch auto-planning (and the serve layer's resident-bytes
    /// gauges) never re-walk the forest.
    footprint: LayoutFootprint,
    /// The source's own shard seams ([`TreeEnsemble::shard_bounds`]),
    /// fetched and validated once at construction — a service forms
    /// thousands of 1–16-row batches a second and none of them should
    /// re-derive (or re-allocate) them. `None` when the layout has no
    /// seams or reported a malformed list, which falls back to the
    /// plan's uniform stride rather than mis-tiling.
    seams: Option<Arc<[usize]>>,
}

impl<E: TreeEnsemble> ShardedEngine<E> {
    /// Engine that re-plans each batch via [`EnginePlan::auto`], with
    /// the exact vote reduction.
    pub fn new(source: E) -> Self {
        ShardedEngine::with_policy(source, VotePolicy::Exact)
    }

    /// Engine that re-plans each batch via [`EnginePlan::auto`] but
    /// reduces votes with `policy` — how the serve backends opt a whole
    /// deployment into bit-sliced reduction or early-exit traversal
    /// while keeping footprint-driven tiling.
    pub fn with_policy(source: E, policy: VotePolicy) -> Self {
        ShardedEngine::build(source, None, policy)
    }

    /// Engine pinned to an explicit plan (clamped to each batch's
    /// shape), including the plan's vote policy.
    pub fn with_plan(source: E, plan: EnginePlan) -> Self {
        ShardedEngine::build(source, Some(plan), plan.vote_policy())
    }

    fn build(source: E, plan: Option<EnginePlan>, policy: VotePolicy) -> Self {
        let footprint = source.footprint();
        let n_trees = source.num_trees();
        let seams = source.shard_bounds().filter(|b| {
            b.first() == Some(&0) && b.last() == Some(&n_trees) && b.windows(2).all(|w| w[0] < w[1])
        });
        ShardedEngine { source, plan, policy, footprint, seams: seams.map(Arc::from) }
    }

    /// The underlying ensemble.
    pub fn source(&self) -> &E {
        &self.source
    }

    /// The source footprint cached at construction.
    pub fn cached_footprint(&self) -> LayoutFootprint {
        self.footprint
    }

    /// The vote-reduction policy this engine executes with.
    pub fn vote_policy(&self) -> VotePolicy {
        self.policy
    }

    /// The normalized plan this engine would execute a batch of
    /// `n_queries` rows with.
    pub fn plan_for(&self, n_queries: usize) -> EnginePlan {
        let n_trees = self.source.num_trees();
        let mut plan = self
            .plan
            .unwrap_or_else(|| EnginePlan::auto(&self.footprint, n_trees, n_queries))
            .normalized(n_trees, n_queries);
        plan.vote_policy = self.policy;
        plan
    }

    /// The byte-aware shard boundaries this engine tiles with, when any:
    /// an auto-planned engine always adopts the layout's own
    /// [`TreeEnsemble::shard_bounds`] (the layout knows where its
    /// packed groups sit better than a uniform stride does); an
    /// explicitly planned engine opts in by carrying a
    /// [`PackPlan`] — a pinned uniform plan stays uniform, which is what
    /// lets the equivalence proptests drive arbitrary tilings over the
    /// packed layouts.
    fn shard_bounds_for_run(&self) -> Option<&[usize]> {
        self.seams_for_run().map(|seams| &**seams)
    }

    /// [`ShardedEngine::shard_bounds_for_run`] as the shared allocation a
    /// crew job can keep.
    fn seams_for_run(&self) -> Option<&Arc<[usize]>> {
        let adopt = match self.plan {
            None => true,
            Some(p) => p.pack().is_some(),
        };
        self.seams.as_ref().filter(|_| adopt)
    }
}

/// The tiling shape one batch executes with, pre-normalized by
/// [`ShardedEngine::execute`].
#[derive(Clone, Copy)]
struct Tiling<'a> {
    /// Rows per query block.
    qb: usize,
    /// Classes voted over (≥ 1).
    nc: usize,
    /// Trees in the forest.
    n_trees: usize,
    /// Trees per shard under the plan's uniform stride.
    stride: usize,
    /// A packed layout's cumulative seams `[0, ..., n_trees]`, validated
    /// at engine construction; when present they replace the stride.
    seams: Option<&'a [usize]>,
}

impl<'a> Tiling<'a> {
    fn shards(&self) -> usize {
        match self.seams {
            Some(bounds) => bounds.len() - 1,
            None => self.n_trees.div_ceil(self.stride),
        }
    }

    /// Trees `lo..hi` of shard `s`.
    fn shard(&self, s: usize) -> (usize, usize) {
        match self.seams {
            Some(bounds) => (bounds[s], bounds[s + 1]),
            None => (s * self.stride, ((s + 1) * self.stride).min(self.n_trees)),
        }
    }

    /// The same shape cut along `seams` — how a crew job, which owns its
    /// seams, gets a tiling that borrows from nobody.
    fn with_seams<'s>(self, seams: Option<&'s [usize]>) -> Tiling<'s> {
        let Tiling { qb, nc, n_trees, stride, seams: _ } = self;
        Tiling { qb, nc, n_trees, stride, seams }
    }
}

/// What the tile loop needs to open per-tile child spans: the ambient
/// telemetry domain plus the enclosing kernel span's context, captured
/// *before* the fan-out (helper threads have neither the span stack nor
/// the ambient scope of the calling thread). `None` when the enclosing
/// trace is unsampled — tiles then cost nothing.
#[cfg(feature = "telemetry")]
type TileCtx = Option<(rfx_telemetry::Telemetry, rfx_telemetry::SpanContext)>;

/// Lane accounting of [`walk_tile`]: walks finished, `step` calls made
/// and sweeps over the [`SWEEP_LANES`]-wide lane array in the pointer
/// phase, and lockstep trips through a complete top (each one level of a
/// [`TOP_GROUP`]-wide group). `steps / walks` is the mean pointer-phase
/// depth and `steps / (sweeps × SWEEP_LANES)` the pointer phase's lane
/// occupancy — between them the answer to "why was this batch's
/// traverse stage slow": deep paths below the top, or too few (tree,
/// row) pairs to fill the lanes. Counted only under the `telemetry`
/// feature, in participant-local integers.
#[derive(Default)]
struct WalkStats {
    walks: u64,
    steps: u64,
    sweeps: u64,
    trips: u64,
}

/// What a batch's participants counted between them, each adding its own
/// once, after its last block; the calling thread exports the sums
/// (`kernels.sharded.{walks,steps,sweeps,trips,blocks_helped}` plus the
/// span's `lane_occupancy`, `helpers` and `helped_share`, beside the
/// two widths it ran at: `walks` = [`SWEEP_LANES`], `top_group` =
/// [`TOP_GROUP`]). The other half of "why was this batch's traverse
/// stage slow": nobody came to help.
#[cfg(feature = "telemetry")]
#[derive(Default)]
struct BatchTotals {
    lanes: WalkStats,
    /// Blocks a helper ran.
    blocks_helped: u64,
    /// Participants besides the caller that ran at least one block.
    helpers: u64,
}

/// Vote-reduction telemetry handles (`kernels.votes.*`), resolved on the
/// calling thread before the fan-out (helpers have no ambient domain)
/// and updated once per participant to keep the hot loop free of
/// atomics. Registered lazily — only batches running a non-exact
/// [`VotePolicy`] create them, so exact deployments' metric exports are
/// unchanged.
#[cfg(feature = "telemetry")]
#[derive(Clone)]
struct VoteCtx {
    shards_skipped: Arc<rfx_telemetry::Counter>,
    blocks_exited: Arc<rfx_telemetry::Counter>,
    popcount_reductions: Arc<rfx_telemetry::Counter>,
}

#[cfg(feature = "telemetry")]
impl VoteCtx {
    fn new(tel: &rfx_telemetry::Telemetry) -> Self {
        VoteCtx {
            shards_skipped: tel.counter("kernels.votes.shards_skipped"),
            blocks_exited: tel.counter("kernels.votes.blocks_exited"),
            popcount_reductions: tel.counter("kernels.votes.popcount_reductions"),
        }
    }
}

/// Per-batch observers every participant reports to — empty in the
/// default build, so the uninstrumented engine carries no tracer or
/// counter state at all. Cloning shares the totals: a crew job keeps a
/// clone for its helpers, the caller reads its own after the tail.
#[derive(Clone)]
struct BatchCtx {
    #[cfg(feature = "telemetry")]
    tile: TileCtx,
    #[cfg(feature = "telemetry")]
    totals: Arc<std::sync::Mutex<BatchTotals>>,
    #[cfg(feature = "telemetry")]
    votes: Option<VoteCtx>,
    /// The batch-wide memory-trace accumulator the tile loop samples
    /// into (see [`crate::memtrace`]).
    #[cfg(feature = "mem-tracer")]
    mem: Arc<crate::memtrace::TraceAgg>,
}

/// A planned batch, as [`ShardedEngine::execute`] hands it to an entry
/// point whose plan asks for helpers.
struct Launch<'a> {
    tiling: Tiling<'a>,
    policy: VotePolicy,
    blocks: usize,
    /// Participants the plan asks for besides the caller.
    helpers: usize,
    ctx: &'a BatchCtx,
}

impl<'a> Launch<'a> {
    /// The batch over borrowed inputs, its blocks claimed from `fanout`.
    fn batch<E>(&self, source: &'a E, queries: QueryView<'a>, fanout: &'a Fanout) -> Batch<'a, E> {
        Batch { source, queries, tiling: self.tiling, policy: self.policy, ctx: self.ctx, fanout }
    }
}

impl<E: TreeEnsemble> ShardedEngine<E> {
    /// What both entry points do around a batch's blocks: plan it, open
    /// its span, run a one-thread plan on the caller with nobody invited,
    /// and export what the participants counted. `fan_out` is called only
    /// for a plan of two or more threads and must leave every label in
    /// `out`; `helpers_from` names it on the span.
    fn execute(
        &self,
        queries: QueryView<'_>,
        out: &mut [Label],
        helpers_from: &'static str,
        fan_out: impl FnOnce(Launch<'_>, &mut [Label]),
    ) {
        let n = queries.num_rows();
        let plan = self.plan_for(n);
        let tiling = Tiling {
            qb: plan.query_block(),
            nc: self.source.num_classes().max(1) as usize,
            n_trees: self.source.num_trees(),
            stride: plan.shard_trees(),
            seams: self.shard_bounds_for_run(),
        };
        let blocks = n.div_ceil(tiling.qb);
        #[cfg(feature = "telemetry")]
        let tel = rfx_telemetry::current();
        #[cfg(feature = "telemetry")]
        let mut span = {
            let shards = tiling.shards() as u64;
            tel.counter("kernels.sharded.batches").inc();
            tel.counter("kernels.sharded.shards").add(shards);
            tel.counter("kernels.sharded.blocks").add(blocks as u64);
            tel.counter("kernels.sharded.tiles").add(shards * blocks as u64);
            rfx_telemetry::span!(tel, "kernels.sharded", rows = out.len())
        };
        let ctx = BatchCtx {
            #[cfg(feature = "telemetry")]
            tile: span.is_recorded().then(|| (tel.clone(), span.context())),
            #[cfg(feature = "telemetry")]
            totals: Default::default(),
            #[cfg(feature = "telemetry")]
            votes: (plan.vote_policy() != VotePolicy::Exact).then(|| VoteCtx::new(&tel)),
            #[cfg(feature = "mem-tracer")]
            mem: Arc::new(crate::memtrace::TraceAgg::new(queries.num_features())),
        };
        assert_eq!(out.len(), n, "output slice must match query batch");
        let helpers = plan.threads() - 1;
        let launch = Launch { tiling, policy: plan.vote_policy(), blocks, helpers, ctx: &ctx };
        let fanout = if n == 0 {
            "inline"
        } else if helpers == 0 {
            let alone = Fanout::new(blocks);
            launch.batch(&self.source, queries, &alone).lead(out);
            "inline"
        } else {
            fan_out(launch, out);
            helpers_from
        };
        #[cfg(feature = "telemetry")]
        {
            let totals = ctx.totals.lock().expect("a participant panicked while adding its counts");
            let lanes = &totals.lanes;
            tel.counter("kernels.sharded.walks").add(lanes.walks);
            tel.counter("kernels.sharded.steps").add(lanes.steps);
            tel.counter("kernels.sharded.sweeps").add(lanes.sweeps);
            tel.counter("kernels.sharded.trips").add(lanes.trips);
            tel.counter("kernels.sharded.blocks_helped").add(totals.blocks_helped);
            let unanswered = fanout != "inline" && totals.blocks_helped == 0;
            tel.counter("kernels.sharded.offers_unanswered").add(u64::from(unanswered));
            let slots = (lanes.sweeps * SWEEP_LANES as u64).max(1);
            span.set_attr("walks", SWEEP_LANES.to_string());
            span.set_attr("top_levels", self.source.top_levels().to_string());
            span.set_attr("top_group", TOP_GROUP.to_string());
            span.set_attr("lane_occupancy", format!("{:.3}", lanes.steps as f64 / slots as f64));
            span.set_attr("fanout", fanout.to_string());
            span.set_attr("helpers", totals.helpers.to_string());
            let helped_share = totals.blocks_helped as f64 / blocks.max(1) as f64;
            span.set_attr("helped_share", format!("{helped_share:.3}"));
        }
        #[cfg(feature = "mem-tracer")]
        {
            let (mut perf, sampled_tiles) = ctx.mem.finish();
            // The plan's thread budget as a fraction of the machine —
            // the CPU analogue of the simulators' occupancy gauges.
            perf.occupancy = (plan.threads() as f64 / available_threads().max(1) as f64).min(1.0);
            perf.export(&tel, "kernels");
            tel.counter("kernels.memtrace.sampled_tiles").add(sampled_tiles);
            for (key, value) in perf.span_attrs() {
                span.set_attr(key, value);
            }
            span.set_attr("memtrace.sampled_tiles", sampled_tiles.to_string());
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = fanout;
    }
}

impl<E: TreeEnsemble> Predictor for ShardedEngine<E> {
    /// Helpers are scoped threads, one fewer than the plan's threads:
    /// the source and the rows are borrowed, so nothing that outlives the
    /// call may touch them.
    fn predict_into(&self, queries: QueryView<'_>, out: &mut [Label]) {
        self.execute(queries, out, "scope", |launch, out| {
            let fanout = Fanout::new(launch.blocks);
            let batch = launch.batch(&self.source, queries, &fanout);
            std::thread::scope(|scope| {
                for _ in 0..launch.helpers {
                    scope.spawn(|| batch.help());
                }
                batch.lead(out);
                batch.settle(out);
            });
        });
    }
}

/// A batch that owns what its helpers touch: what the crew is offered.
struct SharedBatch<E> {
    source: Arc<E>,
    /// A copy of the batch's rows: 55 KB for 256 × 54 features, about
    /// 4 µs against about 900 µs of traversal, and what lets callers keep
    /// handing the engine a borrowed [`QueryView`].
    rows: Vec<f32>,
    num_features: usize,
    tiling: Tiling<'static>,
    seams: Option<Arc<[usize]>>,
    policy: VotePolicy,
    ctx: BatchCtx,
    fanout: Fanout,
}

impl<E: TreeEnsemble> SharedBatch<E> {
    fn batch(&self) -> Batch<'_, E> {
        Batch {
            source: &*self.source,
            queries: QueryView::new(&self.rows, self.num_features)
                .expect("copied whole from a valid view"),
            tiling: self.tiling.with_seams(self.seams.as_deref()),
            policy: self.policy,
            ctx: &self.ctx,
            fanout: &self.fanout,
        }
    }
}

impl<E: TreeEnsemble> Job for SharedBatch<E> {
    fn run(&self) {
        self.batch().help();
    }
}

impl<E: TreeEnsemble + 'static> ShardedEngine<Arc<E>> {
    /// [`Predictor::predict_into`] with helpers from the process-wide
    /// parked crew instead of threads spawned for the call: same plan,
    /// same claim loop, same labels. A batch that fans out is handed to
    /// the crew as a job owning a clone of the source `Arc` and a copy of
    /// the rows; the offer is withdrawn before this returns, so nothing
    /// of the batch outlives its answer. A one-thread plan — every batch
    /// under 2 × `MIN_ROW_TREES_PER_THREAD` = 12 800 traversals when
    /// auto-planned — copies nothing, takes no lock and wakes nobody, and
    /// a crew busy with another engine's job leaves the caller to run
    /// every block itself.
    ///
    /// # Panics
    /// If `out.len() != queries.num_rows()`; and a panic on a helper is
    /// re-raised here, on the calling thread.
    pub fn predict_into_shared(&self, queries: QueryView<'_>, out: &mut [Label]) {
        self.execute(queries, out, "crew", |launch, out| {
            let job = Arc::new(SharedBatch {
                source: Arc::clone(&self.source),
                rows: queries.raw().to_vec(),
                num_features: queries.num_features(),
                tiling: launch.tiling.with_seams(None),
                seams: self.seams_for_run().cloned(),
                policy: launch.policy,
                ctx: launch.ctx.clone(),
                fanout: Fanout::new(launch.blocks),
            });
            let offered = crew().offer(launch.helpers, Arc::clone(&job) as Arc<dyn Job>);
            let batch = job.batch();
            batch.lead(out);
            drop(offered);
            batch.settle(out);
        });
    }
}

/// Row-parallel engine: splits the batch across threads and walks the
/// *whole* forest for each row, behind the [`Predictor`] interface
/// (votes go through a per-worker scratch instead of a per-query
/// allocation). No backend serves it; it stays as the baseline the
/// ledger's `kernels.row_parallel.*` row measures the sharded engine
/// against.
pub struct RowParallel<E: TreeEnsemble> {
    source: E,
}

impl<E: TreeEnsemble> RowParallel<E> {
    /// Engine over `source`.
    pub fn new(source: E) -> Self {
        RowParallel { source }
    }

    /// The underlying ensemble.
    pub fn source(&self) -> &E {
        &self.source
    }
}

impl<E: TreeEnsemble> Predictor for RowParallel<E> {
    fn predict_into(&self, queries: QueryView<'_>, out: &mut [Label]) {
        use rayon::prelude::*;

        let n = queries.num_rows();
        assert_eq!(out.len(), n, "output slice must match query batch");
        if n == 0 {
            return;
        }
        #[cfg(feature = "telemetry")]
        let _tel = rfx_telemetry::current();
        #[cfg(feature = "telemetry")]
        let _span = rfx_telemetry::span!(_tel, "kernels.cpu.traverse", rows = out.len());
        let threads = available_threads().clamp(1, n);
        let n_trees = self.source.num_trees();
        let nc = self.source.num_classes().max(1) as usize;
        let source = &self.source;
        // The legacy memory pattern: each worker takes a contiguous run
        // of rows and walks the *whole* forest per row, with one reusable
        // vote scratch per worker.
        let tasks = split_tasks(out, n.div_ceil(threads));
        tasks.into_par_iter().for_each(|(start, rows)| {
            let mut votes = vec![0u32; nc];
            for (i, slot) in rows.iter_mut().enumerate() {
                votes.fill(0);
                let query = queries.row(start + i);
                for t in 0..n_trees {
                    votes[source.vote_tree(t, query) as usize] += 1;
                }
                *slot = rfx_core::majority(&votes);
            }
        });
    }
}

/// Splits `out` into `(start_row, chunk)` tasks of `rows_per_task` rows —
/// one per worker, contiguous, covering the whole batch.
fn split_tasks(out: &mut [Label], rows_per_task: usize) -> Vec<(usize, &mut [Label])> {
    let mut tasks = Vec::new();
    let mut start = 0;
    for chunk in out.chunks_mut(rows_per_task.max(1)) {
        let len = chunk.len();
        tasks.push((start, chunk));
        start += len;
    }
    tasks
}

/// Opens a per-tile child span when the enclosing trace is sampled.
#[cfg(feature = "telemetry")]
fn tile_span<'a>(
    tile_ctx: &'a TileCtx,
    block: usize,
    shard: usize,
    rows: usize,
    trees: usize,
) -> Option<rfx_telemetry::Span<'a>> {
    tile_ctx.as_ref().map(|(tel, ctx)| {
        let mut tile = tel.start_span_child_of("kernels.sharded.tile", *ctx);
        tile.set_attr("block", block.to_string());
        tile.set_attr("shard", shard.to_string());
        tile.set_attr("rows", rows.to_string());
        tile.set_attr("trees", trees.to_string());
        tile
    })
}

/// One batch as each of its participants sees it: the (query block ×
/// tree shard) tiling, and the [`Fanout`] its blocks are claimed from.
/// Within a block, shards are walked outermost so a shard's nodes stay
/// hot in cache across every row of the block, each tile's (tree, row)
/// pairs going through the [`walk_tile`] kernel; a final pass reduces
/// each row's votes to its majority label. When `ctx.tile` carries a
/// sampled trace, each executed (block × shard) tile records a
/// `kernels.sharded.tile` child span with its block/shard indices — the
/// per-tile attribution in the exported trace (early-exited blocks
/// simply record fewer tiles).
/// With the `mem-tracer` feature, every Nth tile of the batch — counted
/// by the tile's own index `block × shards + shard`, so the sample does
/// not depend on who claimed which block — is walked with the
/// participant's cache model for a sink (see [`crate::memtrace`]).
struct Batch<'a, E> {
    source: &'a E,
    queries: QueryView<'a>,
    tiling: Tiling<'a>,
    policy: VotePolicy,
    ctx: &'a BatchCtx,
    fanout: &'a Fanout,
}

/// What one participant counts while it works; added to the batch's
/// totals once, after its last block.
struct Participant {
    lanes: WalkStats,
    /// Blocks run.
    blocks: u64,
    /// Early exit: shards skipped, and the blocks that skipped them.
    skipped: u64,
    exited: u64,
    #[cfg(feature = "mem-tracer")]
    tracer: crate::memtrace::MemTracer,
}

impl<E: TreeEnsemble> Batch<'_, E> {
    /// The calling thread's share: whatever blocks it claims, written
    /// straight into `out`.
    fn lead(&self, out: &mut [Label]) {
        let qb = self.tiling.qb;
        self.participate(false, |block, labels| {
            out[block * qb..][..labels.len()].copy_from_slice(labels);
        });
    }

    /// A helper's share: whatever blocks it claims, handed back by value.
    fn help(&self) {
        self.fanout.help(|helped| {
            self.participate(true, |block, labels| {
                helped.blocks.push(block);
                helped.labels.extend_from_slice(labels);
            });
        });
    }

    /// The caller's tail: waits for blocks helpers still hold, then puts
    /// the labels helpers handed back where they belong in `out`.
    fn settle(&self, out: &mut [Label]) {
        let qb = self.tiling.qb;
        for helped in self.fanout.settle() {
            let mut labels = &helped.labels[..];
            for block in helped.blocks {
                let slot = &mut out[block * qb..];
                let (mine, rest) = labels.split_at(qb.min(slot.len()));
                slot[..mine.len()].copy_from_slice(mine);
                labels = rest;
            }
        }
    }

    /// One participant's share of the batch, with the vote scratch its
    /// [`VotePolicy`] asks for chosen once: the exact scalar tally, the
    /// bit-sliced popcount tally, or bit-sliced with early-exit traversal
    /// (see [`crate::votes`]).
    fn participate(&self, helper: bool, deliver: impl FnMut(usize, &[Label])) {
        // Whoever comes after the last claim has nothing to allocate.
        let Some(first) = self.fanout.claim() else { return };
        let Tiling { qb, nc, .. } = self.tiling;
        match self.policy {
            VotePolicy::Exact => {
                self.claim_blocks(first, helper, Counts::new(qb, nc), None, deliver)
            }
            VotePolicy::BitSliced => {
                self.claim_blocks(first, helper, BitSlicedVotes::new(qb, nc), None, deliver)
            }
            VotePolicy::EarlyExit { slack } => {
                self.claim_blocks(first, helper, BitSlicedVotes::new(qb, nc), Some(slack), deliver)
            }
        }
    }

    /// The claim loop, the same for every participant, policy and entry
    /// point: walk the claimed block's shards, reduce its rows, `deliver`
    /// its labels, claim the next.
    fn claim_blocks<A: VoteAccumulator>(
        &self,
        first: usize,
        helper: bool,
        mut acc: A,
        early_slack: Option<u32>,
        mut deliver: impl FnMut(usize, &[Label]),
    ) {
        let qb = self.tiling.qb;
        let n = self.queries.num_rows();
        let mut me = Participant {
            lanes: WalkStats::default(),
            blocks: 0,
            skipped: 0,
            exited: 0,
            #[cfg(feature = "mem-tracer")]
            tracer: self.ctx.mem.tracer(),
        };
        let mut labels = vec![0; qb];
        let mut claimed = Some(first);
        while let Some(block) = claimed {
            let labels = &mut labels[..qb.min(n - block * qb)];
            self.block(&mut me, &mut acc, early_slack, block, labels);
            deliver(block, labels);
            me.blocks += 1;
            claimed = self.fanout.claim();
        }
        #[cfg(feature = "telemetry")]
        {
            if let Some(votes) = &self.ctx.votes {
                if me.skipped > 0 {
                    votes.shards_skipped.add(me.skipped);
                }
                if me.exited > 0 {
                    votes.blocks_exited.add(me.exited);
                }
                votes.popcount_reductions.add(acc.flushes());
            }
            let totals = self.ctx.totals.lock();
            let mut totals = totals.expect("another participant panicked while adding its counts");
            totals.lanes.walks += me.lanes.walks;
            totals.lanes.steps += me.lanes.steps;
            totals.lanes.sweeps += me.lanes.sweeps;
            totals.lanes.trips += me.lanes.trips;
            if helper {
                totals.blocks_helped += me.blocks;
                totals.helpers += 1;
            }
        }
        #[cfg(feature = "mem-tracer")]
        self.ctx.mem.merge(&me.tracer);
        #[cfg(not(feature = "telemetry"))]
        let _ = (helper, me, self.ctx);
    }

    /// One block: every shard's trees handed to `acc` in runs that fit
    /// its open window (walks finish out of tree order, so a vote names
    /// its tree's slot in the run), then each row's counts reduced to its
    /// majority label, ties toward the lower class id (the shared
    /// convention). With `early_slack` set, the window is closed at every
    /// shard boundary and the block's remaining shards are skipped once
    /// every row's leader holds an unreachable lead.
    fn block<A: VoteAccumulator>(
        &self,
        me: &mut Participant,
        acc: &mut A,
        early_slack: Option<u32>,
        block: usize,
        labels: &mut [Label],
    ) {
        let (source, queries, tiling) = (self.source, self.queries, self.tiling);
        let Tiling { qb, nc, n_trees, .. } = tiling;
        let (block_start, len) = (block * qb, labels.len());
        let shards = tiling.shards();
        acc.reset(len);
        let mut probe = 0usize;
        // Tile loop: shard outermost — a shard's trees are all reused
        // by every row of the block before the next shard's bytes
        // displace them.
        for shard in 0..shards {
            let (shard_lo, shard_hi) = tiling.shard(shard);
            #[cfg(feature = "telemetry")]
            let _tile = tile_span(&self.ctx.tile, block, shard, len, shard_hi - shard_lo);
            #[cfg(feature = "mem-tracer")]
            let traced = {
                let tile = (block * shards + shard) as u64;
                let sampled = tile.is_multiple_of(self.ctx.mem.sample_every());
                if sampled {
                    let tracer = &mut me.tracer;
                    tracer.begin_tile();
                    for t in shard_lo..shard_hi {
                        for i in 0..len {
                            let row = block_start + i;
                            tracer.begin_row(row);
                            let vote = source.vote_tree_traced(t, queries.row(row), tracer);
                            acc.vote(i, 0, vote);
                        }
                        acc.advance(1);
                    }
                    tracer.end_tile();
                }
                sampled
            };
            #[cfg(not(feature = "mem-tracer"))]
            let traced = false;
            let mut lo = shard_lo;
            while !traced && lo < shard_hi {
                let hi = shard_hi.min(lo.saturating_add(acc.room()));
                let report = |t: usize, row, label| acc.vote(row, t - lo, label);
                walk_tile(source, queries, block_start, len, (lo, hi), &mut me.lanes, report);
                acc.advance(hi - lo);
                lo = hi;
            }
            if let Some(slack) = early_slack {
                if shard_hi < n_trees {
                    // Exact counts at the boundary, then the
                    // unreachable-lead test: sound because the leader
                    // can only gain votes while every rival gains at
                    // most `remaining` (see `votes::all_decided`).
                    acc.close();
                    let remaining = (n_trees - shard_hi) as u32;
                    if all_decided(acc.counts(), nc, remaining, slack, &mut probe) {
                        me.skipped += (shards - shard - 1) as u64;
                        me.exited += 1;
                        break;
                    }
                }
            }
        }
        acc.close();
        for (slot, row_counts) in labels.iter_mut().zip(acc.counts().chunks_exact(nc)) {
            *slot = rfx_core::majority(row_counts);
        }
    }
}

/// Independent tree walks one thread keeps in flight in the pointer
/// phase of [`walk_tile`].
///
/// A lone walk is one dependent load per level: the next node's address
/// is not known until the current node has arrived, so a thread waits
/// out a DRAM round trip per node on a forest larger than L2 and the
/// compare→index chain on one that fits. Walks of different (tree, row)
/// pairs share nothing, so the out-of-order core overlaps their loads
/// once they are interleaved in program order — the CPU analog of the
/// paper's collaborative variants, and of Forest Packing's round-robin
/// over interleaved trees. Sixty-four is a whole 1-tree × 64-row tile
/// of the deep forest's plan in flight at once; see [`TOP_GROUP`] for
/// the sweep that chose both widths.
const SWEEP_LANES: usize = 64;

/// Pairs one lockstep group advances through a complete top in
/// [`walk_tile`], kept apart from [`SWEEP_LANES`] because the two phases
/// want different widths: a top trip is a compare→index chain over
/// L1/L2-resident slots with no miss to hide, so past eight a wider
/// group has nothing more to overlap and only carries more positions
/// and query slices through every trip.
///
/// Both widths were swept together on the ledger (18 s runs, 2 vCPUs,
/// seeds 2751–2753, every run correct; medians of three; 8 × 8 is the
/// single width this kernel had before):
///
/// | sweep × top | deep fil | deep hier | deep packed | shallow fil | shallow packed |
/// |---|---|---|---|---|---|
/// | 8 × 8 | 2.64 | 1.79 | 3.87 | 1.94 | 2.59 |
/// | 16 × 8 / 16 | 3.41 / 3.31 | 2.02 / 1.94 | 4.01 / 3.97 | 1.87 / 2.02 | 2.54 / 2.76 |
/// | 32 × 8 / 16 | 3.68 / 3.64 | 2.30 / 2.31 | 4.03 / 4.03 | 2.17 / 1.95 | 2.93 / 2.55 |
/// | 64 × 8 / 16 | 4.48 / 4.59 | 3.16 / 3.03 | 4.15 / 3.96 | 2.16 / 2.05 | 2.85 / 2.57 |
/// | 128 × 8 / 16 | 4.30 / 4.24 | 3.01 / 2.90 | 3.84 / 3.74 | 1.99 / 2.12 | 2.50 / 2.60 |
///
/// (`speedup_*` of `batch-deep` and `batch-shallow`.) The pointer
/// sweep gains up to 64 lanes on the memory-bound forest and loses
/// nothing on the L2-resident one; 128 gives some of it back. The top
/// decides only the packed layout, and there eight held: over nine
/// pairs of 64 × 8 against 64 × 16 (seeds 2751–2759) `speedup_packed_fil`
/// read 0.949× (`batch-deep`) and 0.913× (`batch-shallow`, whose walks
/// never leave the top) at sixteen, eight ahead in 13 of 18 pairs, and
/// a one-thread probe on 200 complete depth-8 trees (top of 8 levels,
/// alternating processes) took 14.5–15.7 ns per row × tree at eight
/// against 15.1–23.3 at sixteen, eight faster in 6 of 6.
const TOP_GROUP: usize = 8;

/// One walk in flight: the pair it answers and where it stands.
#[derive(Clone, Copy)]
struct Lane<'q, C> {
    cursor: C,
    tree: usize,
    /// Block-local row.
    row: usize,
    query: &'q [f32],
}

/// The tile kernel: walks every (tree, row) pair of trees
/// `tree_lo..tree_hi` × rows `block_start..block_start + len`, keeping
/// up to [`SWEEP_LANES`] walks in flight. Pairs are taken in tree-major
/// order (a tree's nodes stay hot while its rows are spread over the
/// lanes — and because lanes hold *pairs*, a 1-row × 200-tree request
/// fills them just as well as a 64-row × 1-tree tile does).
///
/// A layout with a complete top of `L` levels
/// ([`TreeEnsemble::top_levels`]) first walks pairs through it in
/// groups of [`TOP_GROUP`], all lanes in lockstep — the paper's hybrid
/// variant, with the lane array for the warp: `L` trips, each advancing
/// every lane one level by arithmetic alone (position `j ← 2j + right`
/// on the next level) — no leaf test, no refill, and a position masked
/// by its level's power-of-two run, so no bounds check either. A lane
/// whose bottom slot holds its leaf reports there; the others enter the
/// pointer phase at the node the bottom names. A forest no deeper than
/// its top never leaves it; a layout without one (`L` = 0) starts every
/// walk in the pointer phase.
///
/// The pointer phase sweeps its lanes: every sweep advances each live
/// lane one level through [`TreeEnsemble::step`]; a lane that reaches
/// its leaf reports `(tree, block-local row, label)` and takes the next
/// walk in place, and once walks run out the tail compacts by moving the
/// last live lane into the finished one's slot. Votes therefore arrive
/// in finishing order, not pair order — `report` must not depend on it.
#[inline]
fn walk_tile<E: TreeEnsemble, R: FnMut(usize, usize, Label)>(
    source: &E,
    queries: QueryView<'_>,
    block_start: usize,
    len: usize,
    (tree_lo, tree_hi): (usize, usize),
    stats: &mut WalkStats,
    mut report: R,
) {
    if cfg!(feature = "telemetry") {
        stats.walks += ((tree_hi - tree_lo) * len) as u64;
    }
    let levels = source.top_levels();
    if levels == 0 {
        let mut pairs = (tree_lo..tree_hi).flat_map(|tree| (0..len).map(move |row| (tree, row)));
        let start = |(tree, row): (usize, usize)| Lane {
            cursor: source.root(tree),
            tree,
            row,
            query: queries.row(block_start + row),
        };
        return step_lanes(source, stats, &mut report, |_| pairs.next().map(start));
    }
    let mut trips = 0;
    let counted = &mut trips;
    let (mut next_tree, mut next_row) = (tree_lo, 0);
    // Lanes of the last group that left the top for the pointer phase.
    let mut entered: [Option<Lane<'_, E::Cursor>>; TOP_GROUP] = [None; TOP_GROUP];
    let (mut taken, mut filled) = (0, 0);
    step_lanes(source, stats, &mut report, move |report| loop {
        if taken < filled {
            taken += 1;
            return entered[taken - 1];
        }
        if next_tree == tree_hi || len == 0 {
            return None;
        }
        // A short group's spare lanes walk its first pair again, unread.
        let mut group = [(next_tree, next_row); TOP_GROUP];
        let mut n = 0;
        while n < TOP_GROUP && next_tree < tree_hi {
            group[n] = (next_tree, next_row);
            n += 1;
            next_row += 1;
            if next_row == len {
                (next_tree, next_row) = (next_tree + 1, 0);
            }
        }
        // A walk's position on level 0 is its tree.
        let mut at = group.map(|(tree, _)| tree);
        let mut query: [&[f32]; TOP_GROUP] = [&[]; TOP_GROUP];
        for (q, &(_, row)) in query.iter_mut().zip(&group) {
            *q = queries.row(block_start + row);
        }
        for level in 0..levels {
            let slots = source.top_level(level);
            // A level's run of slots is a power of two: masking keeps a
            // position what it is and proves it in bounds.
            let Some(mask) = slots.len().checked_sub(1) else { break };
            for w in 0..TOP_GROUP {
                let right = source.top_goes_right(slots[at[w] & mask], query[w]);
                at[w] = 2 * at[w] + usize::from(right);
            }
        }
        if cfg!(feature = "telemetry") {
            *counted += u64::from(levels);
        }
        (taken, filled) = (0, 0);
        for (w, &(tree, row)) in group[..n].iter().enumerate() {
            match source.top_exit(at[w]) {
                Ok(label) => report(tree, row, label),
                Err(cursor) => {
                    entered[filled] = Some(Lane { cursor, tree, row, query: query[w] });
                    filled += 1;
                }
            }
        }
    });
    stats.trips += trips;
}

/// The pointer phase of [`walk_tile`]: sweeps up to [`SWEEP_LANES`]
/// lanes through [`TreeEnsemble::step`], refilling a finished lane from
/// `next` (which may report walks of its own that never need a lane).
#[inline]
fn step_lanes<'q, E: TreeEnsemble, R: FnMut(usize, usize, Label)>(
    source: &E,
    stats: &mut WalkStats,
    report: &mut R,
    mut next: impl FnMut(&mut R) -> Option<Lane<'q, E::Cursor>>,
) {
    let Some(first) = next(report) else { return };
    let mut lanes = [first; SWEEP_LANES];
    let mut live = 1;
    while live < SWEEP_LANES {
        let Some(lane) = next(report) else { break };
        lanes[live] = lane;
        live += 1;
    }
    while live > 0 {
        if cfg!(feature = "telemetry") {
            stats.sweeps += 1;
        }
        let mut i = 0;
        while i < live {
            if cfg!(feature = "telemetry") {
                stats.steps += 1;
            }
            let lane = &mut lanes[i];
            let Some(label) = source.step(&mut lane.cursor, lane.query) else {
                i += 1;
                continue;
            };
            report(lane.tree, lane.row, label);
            match next(report) {
                Some(lane) => {
                    lanes[i] = lane;
                    i += 1;
                }
                None => {
                    // The moved lane has not been stepped this sweep:
                    // `i` stays.
                    live -= 1;
                    lanes[i] = lanes[live];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_core::hier::builder::build_forest;
    use rfx_core::pack::{PackedFilForest, PackedQFilForest};
    use rfx_core::{FilForest, HierConfig, QFilForest};
    use rfx_forest::DecisionTree;

    fn fixture(n_trees: usize, seed: u64) -> (RandomForest, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..n_trees).map(|_| DecisionTree::random(&mut rng, 8, 6, 4, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 6, 4).unwrap();
        let queries: Vec<f32> = (0..300 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    #[test]
    fn sharded_matches_reference_for_every_layout() {
        let (forest, queries) = fixture(11, 3);
        let qv = QueryView::new(&queries, 6).unwrap();
        let reference = forest.predict_batch(qv);

        assert_eq!(ShardedEngine::new(&forest).predict(qv), reference, "forest");
        let csr = CsrForest::build(&forest);
        assert_eq!(ShardedEngine::new(&csr).predict(qv), reference, "csr");
        let fil = FilForest::build(&forest);
        assert_eq!(ShardedEngine::new(&fil).predict(qv), reference, "fil");
        let hier = build_forest(&forest, HierConfig::uniform(3)).unwrap();
        assert_eq!(ShardedEngine::new(&hier).predict(qv), reference, "hier");

        assert_eq!(RowParallel::new(&forest).predict(qv), reference, "row-parallel");
        assert_eq!(RowParallel::new(&hier).predict(qv), reference, "row-parallel hier");
    }

    #[test]
    fn auto_packs_more_quantized_trees_per_shard() {
        // Same forest, deep enough that per-tree bytes exceed the budget
        // granularity: the compressed footprint must yield a larger (or
        // equal-at-clamp) shard than the f32 FIL stride.
        let mut rng = StdRng::seed_from_u64(29);
        let trees: Vec<DecisionTree> =
            (0..64).map(|_| DecisionTree::random(&mut rng, 14, 6, 4, 0.1)).collect();
        let forest = RandomForest::from_trees(trees, 6, 4).unwrap();
        let fil = FilForest::build(&forest);
        let qfil = QFilForest::<u8>::build(&forest).unwrap();
        let f32_plan = EnginePlan::auto(&TreeEnsemble::footprint(&fil), 64, 1024);
        let q_plan = EnginePlan::auto(&TreeEnsemble::footprint(&qfil), 64, 1024);
        assert!(
            q_plan.shard_trees() > f32_plan.shard_trees(),
            "compressed shards hold more trees: {} vs {}",
            q_plan.shard_trees(),
            f32_plan.shard_trees()
        );
    }

    #[test]
    fn explicit_plans_do_not_change_predictions() {
        let (forest, queries) = fixture(9, 7);
        let qv = QueryView::new(&queries, 6).unwrap();
        let reference = forest.predict_batch(qv);
        let policies = [
            VotePolicy::Exact,
            VotePolicy::BitSliced,
            VotePolicy::EarlyExit { slack: 0 },
            VotePolicy::EarlyExit { slack: 3 },
        ];
        for (st, qb, threads) in [(1, 1, 1), (2, 7, 2), (9, 300, 1), (100, 1000, 64), (3, 17, 5)] {
            for policy in policies {
                let plan = EnginePlan::builder()
                    .shard_trees(st)
                    .query_block(qb)
                    .threads(threads)
                    .vote_policy(policy)
                    .build()
                    .unwrap();
                let engine = ShardedEngine::with_plan(&forest, plan);
                assert_eq!(engine.predict(qv), reference, "plan {plan:?}");
            }
        }
    }

    #[test]
    fn every_vote_policy_matches_reference_on_every_layout() {
        let (forest, queries) = fixture(13, 17);
        let qv = QueryView::new(&queries, 6).unwrap();
        let reference = forest.predict_batch(qv);
        let csr = CsrForest::build(&forest);
        let fil = FilForest::build(&forest);
        let hier = build_forest(&forest, HierConfig::uniform(3)).unwrap();
        for policy in [VotePolicy::BitSliced, VotePolicy::EarlyExit { slack: 1 }] {
            assert_eq!(ShardedEngine::with_policy(&forest, policy).predict(qv), reference);
            assert_eq!(ShardedEngine::with_policy(&csr, policy).predict(qv), reference);
            assert_eq!(ShardedEngine::with_policy(&fil, policy).predict(qv), reference);
            assert_eq!(ShardedEngine::with_policy(&hier, policy).predict(qv), reference);
        }
        // Quantized layouts vote on snapped thresholds — their own oracle.
        let qfil8 = QFilForest::<u8>::build(&forest).unwrap();
        let snapped = qfil8.quantizer().snap_forest(&forest).predict_batch(qv);
        for policy in [VotePolicy::BitSliced, VotePolicy::EarlyExit { slack: 0 }] {
            assert_eq!(ShardedEngine::with_policy(&qfil8, policy).predict(qv), snapped);
        }
    }

    #[test]
    fn builder_validates_and_round_trips() {
        let plan = EnginePlan::builder()
            .shard_trees(3)
            .query_block(9)
            .threads(2)
            .vote_policy(VotePolicy::EarlyExit { slack: 2 })
            .build()
            .unwrap();
        assert_eq!(plan.shard_trees(), 3);
        assert_eq!(plan.query_block(), 9);
        assert_eq!(plan.threads(), 2);
        assert_eq!(plan.vote_policy(), VotePolicy::EarlyExit { slack: 2 });
        // to_builder() preserves every field.
        assert_eq!(plan.to_builder().build().unwrap(), plan);

        assert_eq!(EnginePlan::builder().shard_trees(0).build(), Err(PlanError::ZeroShardTrees));
        assert_eq!(EnginePlan::builder().query_block(0).build(), Err(PlanError::ZeroQueryBlock));
        // threads == 0 stays legal: it means "auto-detect".
        assert!(EnginePlan::builder().threads(0).build().is_ok());
        assert!(PlanError::ZeroShardTrees.to_string().contains("shard_trees"));
    }

    /// `PackPlan` rides the same validated construction path as the
    /// native knobs: a bad packing parameter surfaces as a typed
    /// `PlanError::Pack` from `build()`, a good one round-trips through
    /// `to_builder()` (mirroring the `PlanError` coverage above).
    #[test]
    fn builder_validates_pack_plans() {
        assert_eq!(
            EnginePlan::builder().pack(PackPlan::default().budget(0)).build(),
            Err(PlanError::Pack(PackError::ZeroShardBudget))
        );
        assert!(PlanError::Pack(PackError::ZeroShardBudget).to_string().contains("shard_budget"));

        let pack = PackPlan::new(64 << 10).unwrap();
        let plan = EnginePlan::builder().shard_trees(4).pack(pack).build().unwrap();
        assert_eq!(plan.pack(), Some(pack));
        assert_eq!(plan.to_builder().build().unwrap(), plan);
        // Plans without packing report none, and normalization keeps it.
        assert_eq!(EnginePlan::default().pack(), None);
        assert_eq!(plan.normalized(10, 100).pack(), Some(pack));
    }

    /// The packed layouts slot into the engine unchanged: every vote
    /// policy, auto and pinned plans, and the byte-aware shard bounds
    /// all reproduce the reference labels (f32) / snapped-oracle labels
    /// (quantized) exactly.
    #[test]
    fn packed_layouts_match_reference_through_the_engine() {
        use rfx_core::pack::FrequencyProfile;
        let (forest, queries) = fixture(11, 7);
        let qv = QueryView::new(&queries, 6).unwrap();
        let reference = forest.predict_batch(qv);
        // Profile from a different query distribution than the batch.
        let calib: Vec<f32> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..64 * 6).map(|_| rng.gen::<f32>() * 0.5).collect()
        };
        let profile = FrequencyProfile::collect(&forest, QueryView::new(&calib, 6).unwrap());
        let pack = PackPlan::new(4 << 10).unwrap();
        let packed = PackedFilForest::build(&forest, &profile, pack).unwrap();
        assert!(packed.num_shards() > 1, "budget forces multiple shards");
        // Auto-planned engine adopts the layout's bounds.
        let engine = ShardedEngine::new(&packed);
        assert_eq!(engine.shard_bounds_for_run(), Some(&packed.shard_tree_bounds()[..]));
        assert_eq!(engine.predict(qv), reference);
        // A pinned uniform plan stays uniform but predicts identically.
        let uniform = EnginePlan::builder().shard_trees(3).query_block(32).build().unwrap();
        let engine = ShardedEngine::with_plan(&packed, uniform);
        assert_eq!(engine.shard_bounds_for_run(), None);
        assert_eq!(engine.predict(qv), reference);
        // Opting in via the plan's PackPlan adopts the bounds again.
        let opted = uniform.to_builder().pack(pack).build().unwrap();
        let engine = ShardedEngine::with_plan(&packed, opted);
        assert_eq!(engine.shard_bounds_for_run(), Some(&packed.shard_tree_bounds()[..]));
        assert_eq!(engine.predict(qv), reference);
        for policy in [VotePolicy::Exact, VotePolicy::BitSliced, VotePolicy::EarlyExit { slack: 1 }]
        {
            assert_eq!(ShardedEngine::with_policy(&packed, policy).predict(qv), reference);
        }
        // Quantized packed layouts vote on their snapped oracle.
        let packed_q8 = PackedQFilForest::<u8>::build(&forest, &profile, pack).unwrap();
        let snapped = packed_q8.quantizer().snap_forest(&forest).predict_batch(qv);
        for policy in [VotePolicy::Exact, VotePolicy::BitSliced, VotePolicy::EarlyExit { slack: 0 }]
        {
            assert_eq!(ShardedEngine::with_policy(&packed_q8, policy).predict(qv), snapped);
        }
    }

    #[test]
    fn with_policy_stamps_the_policy_onto_auto_plans() {
        let (forest, _) = fixture(9, 23);
        let engine = ShardedEngine::with_policy(&forest, VotePolicy::EarlyExit { slack: 1 });
        assert_eq!(engine.vote_policy(), VotePolicy::EarlyExit { slack: 1 });
        assert_eq!(engine.plan_for(100).vote_policy(), VotePolicy::EarlyExit { slack: 1 });
        // A pinned plan's own policy wins.
        let pinned = EnginePlan::builder().vote_policy(VotePolicy::BitSliced).build().unwrap();
        let engine = ShardedEngine::with_plan(&forest, pinned);
        assert_eq!(engine.plan_for(100).vote_policy(), VotePolicy::BitSliced);
    }

    #[test]
    fn engines_work_through_trait_objects_and_arcs() {
        let (forest, queries) = fixture(5, 11);
        let qv = QueryView::new(&queries, 6).unwrap();
        let reference = forest.predict_batch(qv);
        let shared = Arc::new(forest);
        let engines: Vec<Box<dyn Predictor>> = vec![
            Box::new(ShardedEngine::new(Arc::clone(&shared))),
            Box::new(RowParallel::new(Arc::clone(&shared))),
        ];
        for engine in &engines {
            let mut out = vec![0; qv.num_rows()];
            engine.predict_into(qv, &mut out);
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn auto_plan_clamps_degenerate_shapes() {
        // 1-tree forest: the shard budget must not exceed the tree count.
        let (one_tree, _) = fixture(1, 5);
        let plan = EnginePlan::auto(&TreeEnsemble::footprint(&one_tree), 1, 1);
        assert_eq!(plan.shard_trees(), 1);
        assert!(plan.query_block() >= 1);
        assert!(plan.threads() >= 1);

        // 0-query batch: the block stays positive.
        let plan = EnginePlan::auto(&TreeEnsemble::footprint(&one_tree), 1, 0);
        assert!(plan.query_block() >= 1);

        // Tiny footprints divide to zero per-tree bytes without panicking.
        let plan = EnginePlan::auto(&LayoutFootprint::default(), 1000, 4);
        assert!(plan.shard_trees() >= 1 && plan.shard_trees() <= 1000);
    }

    #[test]
    fn auto_plan_runs_small_batches_inline() {
        let (forest, _) = fixture(50, 5);
        let footprint = TreeEnsemble::footprint(&forest);
        // What a lightly loaded service forms: one thread, and — the
        // forest fits one shard — one block, so the batch is a plain call
        // on the worker.
        for rows in [1, 4, 16, 128] {
            let plan = EnginePlan::auto(&footprint, 50, rows).normalized(50, rows);
            assert_eq!((plan.threads(), plan.query_block()), (1, rows), "{rows} rows");
        }
        // Threads grow with the work, up to the machine's.
        let plan = EnginePlan::auto(&footprint, 50, 256);
        assert_eq!(plan.threads(), available_threads().min(256 * 50 / MIN_ROW_TREES_PER_THREAD));
        assert_eq!(EnginePlan::auto(&footprint, 50, 1 << 20).threads(), available_threads());
        // A plan for several threads cuts default-sized blocks even when
        // the forest fits one shard: blocks are claimed one at a time, and
        // one block per thread leaves nothing to claim.
        if available_threads() > 1 {
            for rows in [256, 2048, 1 << 20] {
                let plan = EnginePlan::auto(&footprint, 50, rows);
                assert!(plan.threads() > 1, "{rows} rows");
                assert_eq!(plan.shard_trees(), 50, "the forest fits one shard");
                assert_eq!(plan.query_block(), DEFAULT_QUERY_BLOCK, "{rows} rows");
            }
        }
    }

    /// A block of few rows widens its shards until a tile holds the pairs
    /// of one full default block through one tree — a lone row through a
    /// forest of L2-sized trees is one tile, not one walk per shard —
    /// while full blocks keep the byte-budgeted shard.
    #[test]
    fn auto_plan_gives_small_blocks_enough_pairs_to_fill_the_lanes() {
        let big_trees = LayoutFootprint { attribute_bytes: 100 << 20, ..Default::default() };
        for (rows, shard_trees) in [(1, 50), (4, 16), (16, 4), (64, 1), (4096, 1)] {
            let plan = EnginePlan::auto(&big_trees, 50, rows);
            assert_eq!(plan.shard_trees(), shard_trees, "{rows} rows");
            assert!(plan.shard_trees() * plan.query_block() >= DEFAULT_QUERY_BLOCK.min(50 * rows));
        }
    }

    /// `vote_tree` is `loop { step }`: a node-vector cursor walked by hand
    /// is held to the tree's own `predict` — same label, one level per
    /// step, NaN included.
    #[test]
    fn node_vector_step_loop_matches_the_tree() {
        let (forest, mut queries) = fixture(7, 31);
        queries.iter_mut().step_by(13).for_each(|v| *v = f32::NAN);
        for q in queries.chunks(6).take(100) {
            for (t, tree) in forest.trees().iter().enumerate() {
                let mut steps = 0;
                let label = rfx_core::walk(forest.root(t), |cursor| {
                    steps += 1;
                    forest.step(cursor, q)
                });
                assert_eq!(label, tree.predict(q));
                assert_eq!(label, forest.vote_tree(t, q));
                let (mut id, mut depth) = (0usize, 0);
                while let Node::Inner { feature, threshold, left, right } = tree.nodes()[id] {
                    id = if q[feature as usize] < threshold { left } else { right } as usize;
                    depth += 1;
                }
                assert_eq!(steps, depth + 1, "one level per step");
            }
        }
    }

    /// An ensemble that reports shard seams of its own, well-formed or not.
    struct Seamed<'a>(&'a RandomForest, Vec<usize>);

    impl TreeEnsemble for Seamed<'_> {
        type Cursor = NodeVecCursor;
        type TopSlot = ();
        fn num_trees(&self) -> usize {
            self.0.num_trees()
        }
        fn num_classes(&self) -> u32 {
            self.0.num_classes()
        }
        fn footprint(&self) -> LayoutFootprint {
            TreeEnsemble::footprint(self.0)
        }
        fn root(&self, t: usize) -> NodeVecCursor {
            self.0.root(t)
        }
        fn step_with<S: FetchSink + ?Sized>(
            &self,
            cursor: &mut NodeVecCursor,
            query: &[f32],
            sink: &mut S,
        ) -> Option<Label> {
            self.0.step_with(cursor, query, sink)
        }
        fn shard_bounds(&self) -> Option<Vec<usize>> {
            Some(self.1.clone())
        }
    }

    /// Seams are fetched and validated once, at construction; a malformed
    /// list (wrong start, wrong end, not increasing, empty) falls back to
    /// the plan's uniform stride instead of mis-tiling.
    #[test]
    fn malformed_shard_bounds_fall_back_to_the_uniform_stride() {
        let (forest, queries) = fixture(11, 13);
        let qv = QueryView::new(&queries, 6).unwrap();
        let reference = forest.predict_batch(qv);
        let good = ShardedEngine::new(Seamed(&forest, vec![0, 4, 5, 11]));
        assert_eq!(good.shard_bounds_for_run(), Some(&[0, 4, 5, 11][..]));
        assert_eq!(good.predict(qv), reference);
        for bad in [vec![], vec![0], vec![1, 11], vec![0, 4, 10], vec![0, 7, 7, 11], vec![0, 12]] {
            for policy in [VotePolicy::Exact, VotePolicy::EarlyExit { slack: 0 }] {
                let engine = ShardedEngine::with_policy(Seamed(&forest, bad.clone()), policy);
                assert_eq!(engine.shard_bounds_for_run(), None, "{bad:?}");
                assert_eq!(engine.predict(qv), reference, "{bad:?}");
            }
        }
    }

    #[test]
    fn one_tree_one_query_predicts_without_panicking() {
        let forest = RandomForest::from_trees(vec![DecisionTree::leaf(2)], 3, 4).unwrap();
        let queries = [0.5f32, 0.5, 0.5];
        let qv = QueryView::new(&queries, 3).unwrap();
        assert_eq!(ShardedEngine::new(&forest).predict(qv), vec![2]);
        assert_eq!(RowParallel::new(&forest).predict(qv), vec![2]);
        // Empty batches are a no-op, not a panic.
        let empty = QueryView::new(&[], 3).unwrap();
        assert_eq!(ShardedEngine::new(&forest).predict(empty), Vec::<Label>::new());
    }

    #[test]
    fn normalized_repairs_zero_and_oversized_fields() {
        // Zero knobs can no longer enter through the public API (the
        // builder rejects them), but `normalized` still guards them as
        // defense in depth — exercised via module-internal construction.
        let plan = EnginePlan {
            shard_trees: 0,
            query_block: 0,
            threads: 0,
            vote_policy: VotePolicy::Exact,
            pack: None,
        };
        let fixed = plan.normalized(10, 100);
        assert!(fixed.shard_trees() >= 1 && fixed.shard_trees() <= 10);
        assert!(fixed.query_block() >= 1);
        assert!(fixed.threads() >= 1);

        // Oversized knobs are valid builder inputs and clamp at
        // execution time, when the forest/batch shape is known.
        let fixed = EnginePlan::builder()
            .shard_trees(99)
            .query_block(1_000_000)
            .threads(500)
            .vote_policy(VotePolicy::BitSliced)
            .build()
            .unwrap()
            .normalized(4, 8);
        assert_eq!(fixed.shard_trees(), 4);
        assert_eq!(fixed.query_block(), 8);
        assert_eq!(fixed.threads(), 1, "one block caps the useful thread count");
        assert_eq!(fixed.vote_policy(), VotePolicy::BitSliced, "policy passes through");
    }

    #[test]
    fn auto_shards_shrink_as_forests_grow() {
        // Per-tree bytes scale with footprint; bigger forests must get
        // fewer trees per shard (until the 1-tree floor).
        let small = LayoutFootprint { attribute_bytes: 10 << 10, ..Default::default() };
        let large = LayoutFootprint { attribute_bytes: 100 << 20, ..Default::default() };
        let a = EnginePlan::auto(&small, 100, 1000);
        let b = EnginePlan::auto(&large, 100, 1000);
        assert!(a.shard_trees() > b.shard_trees(), "{} > {}", a.shard_trees(), b.shard_trees());
        assert_eq!(b.shard_trees(), 1, "1 MiB trees never share a shard");
    }

    #[test]
    #[should_panic(expected = "output slice must match")]
    fn predict_into_checks_output_length() {
        let (forest, queries) = fixture(3, 2);
        let qv = QueryView::new(&queries, 6).unwrap();
        let mut out = vec![0; 7];
        ShardedEngine::new(&forest).predict_into(qv, &mut out);
    }

    /// Fails the test after ten seconds instead of letting a lost
    /// wake-up hang it.
    fn within_the_watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = done.send(body());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(value) => value,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("hung for ten seconds"),
            // The body panicked: re-raise it here.
            Err(_) => std::panic::resume_unwind(runner.join().unwrap_err()),
        }
    }

    /// A node-vector forest with one marked tree. Whoever steps it first
    /// among the threads that are not `waits` raises the flag — and, when
    /// `panics`, panics; the thread `waits` names instead stands at that
    /// tree until the flag is up. With the calling thread waiting, the
    /// flag can only be raised by a helper that really ran a block.
    struct Marked {
        forest: RandomForest,
        tree: u32,
        panics: bool,
        waits: Option<std::thread::ThreadId>,
        flag: (std::sync::Mutex<bool>, std::sync::Condvar),
    }

    impl Marked {
        fn new(
            forest: RandomForest,
            panics: bool,
            waits: Option<std::thread::ThreadId>,
        ) -> Arc<Marked> {
            Arc::new(Marked { forest, tree: 3, panics, waits, flag: Default::default() })
        }
    }

    impl TreeEnsemble for Marked {
        type Cursor = NodeVecCursor;
        type TopSlot = ();
        fn num_trees(&self) -> usize {
            self.forest.num_trees()
        }
        fn num_classes(&self) -> u32 {
            self.forest.num_classes()
        }
        fn footprint(&self) -> LayoutFootprint {
            TreeEnsemble::footprint(&self.forest)
        }
        fn root(&self, t: usize) -> NodeVecCursor {
            self.forest.root(t)
        }
        fn step_with<S: FetchSink + ?Sized>(
            &self,
            cursor: &mut NodeVecCursor,
            query: &[f32],
            sink: &mut S,
        ) -> Option<Label> {
            if cursor.tree == self.tree {
                let (flag, raised) = &self.flag;
                let mut up = flag.lock().unwrap();
                if self.waits == Some(std::thread::current().id()) {
                    while !*up {
                        up = raised.wait(up).unwrap();
                    }
                } else {
                    *up = true;
                    raised.notify_all();
                    drop(up);
                    assert!(!self.panics, "the marked tree was stepped");
                }
            }
            self.forest.step_with(cursor, query, sink)
        }
    }

    /// Eight 8-row blocks for two participants.
    fn two_thread_plan() -> EnginePlan {
        EnginePlan::builder().shard_trees(4).query_block(8).threads(2).build().unwrap()
    }

    /// A panic in a block — whoever claimed it — surfaces on the calling
    /// thread of either entry point, never as a caller waiting on a block
    /// that will not finish, and the crew's helper is still there for
    /// the next batch.
    #[test]
    fn a_panic_in_a_block_reaches_the_calling_thread() {
        let (forest, queries) = fixture(9, 19);
        let queries: Arc<[f32]> = queries[..64 * 6].into();
        let reference = forest.predict_batch(QueryView::new(&queries, 6).unwrap());
        type Entry = fn(&ShardedEngine<Arc<Marked>>, QueryView<'_>, &mut [Label]);
        let entries: [(&str, Entry); 2] = [
            ("borrowed", |engine, qv, out| engine.predict_into(qv, out)),
            ("owned", |engine, qv, out| engine.predict_into_shared(qv, out)),
        ];
        for (name, entry) in entries {
            // With only the crew to come, a helper-only panic needs one.
            let helper_comes = name == "borrowed" || available_threads() > 1;
            for helper_only in [false, true] {
                if helper_only && !helper_comes {
                    continue;
                }
                let (forest, queries) = (forest.clone(), Arc::clone(&queries));
                let raised = within_the_watchdog(move || {
                    let waits = helper_only.then(|| std::thread::current().id());
                    let engine = ShardedEngine::with_plan(
                        Marked::new(forest, true, waits),
                        two_thread_plan(),
                    );
                    let qv = QueryView::new(&queries, 6).unwrap();
                    let mut out = vec![0; 64];
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        entry(&engine, qv, &mut out)
                    }))
                    .is_err()
                });
                assert!(raised, "{name}, helper_only={helper_only}: the caller must panic");
            }
            if !helper_comes {
                continue;
            }
            // The next batch, on a good ensemble: the caller stands at the
            // marked tree until a helper has stepped it, so an answer at
            // all means the helper outlived the panic.
            let (forest, queries) = (forest.clone(), Arc::clone(&queries));
            let out = within_the_watchdog(move || {
                let waits = Some(std::thread::current().id());
                let engine =
                    ShardedEngine::with_plan(Marked::new(forest, false, waits), two_thread_plan());
                let mut out = vec![0; 64];
                entry(&engine, QueryView::new(&queries, 6).unwrap(), &mut out);
                out
            });
            assert_eq!(out, reference, "{name}: the batch after the panic");
        }
    }

    /// An offer nobody answered is withdrawn before the caller returns:
    /// with every helper held on another job the caller runs all eight
    /// blocks itself, and afterwards the crew's board holds neither the
    /// model nor the copied rows.
    #[test]
    fn an_unanswered_offer_is_withdrawn_before_the_caller_returns() {
        let (forest, queries) = fixture(9, 37);
        let qv = QueryView::new(&queries[..64 * 6], 6).unwrap();
        let reference = forest.predict_batch(qv);
        let shared = Arc::new(forest);
        let engine = ShardedEngine::with_plan(Arc::clone(&shared), two_thread_plan());
        let held = crate::fanout::tests::hold_the_crew();
        let owners = Arc::strong_count(&shared);
        let mut out = vec![0; 64];
        engine.predict_into_shared(qv, &mut out);
        assert_eq!(Arc::strong_count(&shared), owners, "the board still holds the batch's job");
        assert_eq!(out, reference);
        drop(held);
    }

    /// The rules that keep small batches off the fan-out: a one-thread
    /// plan, pinned or auto-planned, never reaches for the crew — no
    /// lock, no wake-up, no copy of the rows.
    #[test]
    fn one_thread_plans_never_reach_for_the_crew() {
        use crate::fanout::times_this_thread_reached_for_the_crew as reached;
        let (forest, queries) = fixture(50, 43);
        let qv = QueryView::new(&queries, 6).unwrap();
        let reference = forest.predict_batch(qv);
        let shared = Arc::new(forest);
        let before = reached();
        let plan = EnginePlan::builder().query_block(16).threads(1).build().unwrap();
        let mut out = vec![0; 300];
        ShardedEngine::with_plan(Arc::clone(&shared), plan).predict_into_shared(qv, &mut out);
        assert_eq!(out, reference);
        // 48 rows × 50 trees: under two threads' worth of traversals.
        let small = QueryView::new(&queries[..48 * 6], 6).unwrap();
        let engine = ShardedEngine::new(Arc::clone(&shared));
        assert_eq!(engine.plan_for(48).threads(), 1);
        engine.predict_into_shared(small, &mut out[..48]);
        assert_eq!(out[..48], reference[..48]);
        assert_eq!(reached(), before, "a one-thread plan reached for the crew");
        // The counter does count: a two-thread plan is one offer.
        let plan = plan.to_builder().threads(2).build().unwrap();
        ShardedEngine::with_plan(shared, plan).predict_into_shared(qv, &mut out);
        assert_eq!(out, reference);
        assert_eq!(reached(), before + 1);
    }

    /// Runs `engine` in a fresh scoped telemetry domain and returns the
    /// domain's metrics snapshot.
    #[cfg(feature = "telemetry")]
    fn scoped_snapshot<P: Predictor>(
        engine: &P,
        qv: QueryView<'_>,
    ) -> rfx_telemetry::MetricsSnapshot {
        let mut out = vec![0; qv.num_rows()];
        scoped_run(|| engine.predict_into(qv, &mut out)).0
    }

    /// Runs `pass` in a fresh scoped telemetry domain and returns the
    /// domain's metrics and the attributes of its `kernels.sharded` span.
    #[cfg(feature = "telemetry")]
    fn scoped_run(pass: impl FnOnce()) -> (rfx_telemetry::MetricsSnapshot, Vec<(String, String)>) {
        let tel = rfx_telemetry::Telemetry::new();
        {
            let root = tel.start_span("test.pass");
            let _scope = tel.in_context(root.context());
            pass();
        }
        let trace = tel.trace_snapshot();
        let span = trace.spans.iter().find(|s| s.name == "kernels.sharded").unwrap();
        (tel.metrics_snapshot(), span.attrs.clone())
    }

    /// Early exit is decided block by block, so what the participants
    /// count between them — shards skipped, blocks that skipped them —
    /// cannot depend on how many there were or who claimed what.
    #[cfg(feature = "telemetry")]
    #[test]
    fn early_exit_counters_do_not_depend_on_who_ran_the_blocks() {
        let mut rng = StdRng::seed_from_u64(61);
        // Thirty unanimous trees first: every block is decided early.
        let mut trees: Vec<DecisionTree> = (0..30).map(|_| DecisionTree::leaf(0)).collect();
        trees.extend((0..10).map(|_| DecisionTree::random(&mut rng, 5, 6, 3, 0.3)));
        let forest = Arc::new(RandomForest::from_trees(trees, 6, 3).unwrap());
        let queries: Vec<f32> = (0..200 * 6).map(|_| rng.gen()).collect();
        let qv = QueryView::new(&queries, 6).unwrap();
        let reference = forest.predict_batch(qv);
        let counted = |threads: usize, owned: bool| {
            let plan = EnginePlan::builder()
                .shard_trees(4)
                .query_block(16)
                .threads(threads)
                .vote_policy(VotePolicy::EarlyExit { slack: 0 })
                .build()
                .unwrap();
            let engine = ShardedEngine::with_plan(Arc::clone(&forest), plan);
            let mut out = vec![0; 200];
            let (metrics, _) = scoped_run(|| match owned {
                true => engine.predict_into_shared(qv, &mut out),
                false => engine.predict_into(qv, &mut out),
            });
            assert_eq!(out, reference);
            ["shards_skipped", "blocks_exited", "popcount_reductions"]
                .map(|name| metrics.counter(&format!("kernels.votes.{name}")).unwrap())
        };
        let alone = counted(1, false);
        assert_eq!(alone[1], 13, "every block exits early");
        assert!(alone[0] >= 13);
        assert!(alone[2] > 0, "the bit-sliced tally never flushed a popcount window");
        for threads in [2, 3] {
            for owned in [false, true] {
                assert_eq!(counted(threads, owned), alone, "threads={threads} owned={owned}");
            }
        }
    }

    /// Who ran the blocks, on the span and in the counters: an inline
    /// plan offers nothing, an offer the held crew cannot answer counts
    /// as unanswered, and a helper that came is counted with its blocks.
    #[cfg(feature = "telemetry")]
    #[test]
    fn the_span_says_who_ran_the_blocks() {
        let (forest, queries) = fixture(9, 47);
        let queries: Arc<[f32]> = queries[..64 * 6].into();
        let qv = QueryView::new(&queries, 6).unwrap();
        let reference = forest.predict_batch(qv);
        let attr = |attrs: &[(String, String)], key: &str| {
            attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).unwrap()
        };
        let shared = Arc::new(forest.clone());
        let mut out = vec![0; 64];

        let one = two_thread_plan().to_builder().threads(1).build().unwrap();
        let engine = ShardedEngine::with_plan(Arc::clone(&shared), one);
        let (metrics, attrs) = scoped_run(|| engine.predict_into_shared(qv, &mut out));
        assert_eq!(attr(&attrs, "fanout"), "inline");
        assert_eq!(attr(&attrs, "helpers"), "0");
        assert_eq!(metrics.counter("kernels.sharded.offers_unanswered"), Some(0));
        assert_eq!(metrics.counter("kernels.sharded.blocks_helped"), Some(0));

        let engine = ShardedEngine::with_plan(Arc::clone(&shared), two_thread_plan());
        let held = crate::fanout::tests::hold_the_crew();
        let (metrics, attrs) = scoped_run(|| engine.predict_into_shared(qv, &mut out));
        drop(held);
        assert_eq!(out, reference);
        assert_eq!(attr(&attrs, "fanout"), "crew");
        assert_eq!(attr(&attrs, "helpers"), "0");
        assert_eq!(attr(&attrs, "helped_share"), "0.000");
        assert_eq!(metrics.counter("kernels.sharded.offers_unanswered"), Some(1));
        assert_eq!(metrics.counter("kernels.sharded.blocks_helped"), Some(0));

        // The caller stands at the marked tree until a helper has stepped
        // it, so the scoped helper ran at least one of the eight blocks.
        let (metrics, attrs) = within_the_watchdog(move || {
            let waits = Some(std::thread::current().id());
            let engine =
                ShardedEngine::with_plan(Marked::new(forest, false, waits), two_thread_plan());
            let mut out = vec![0; 64];
            let qv = QueryView::new(&queries, 6).unwrap();
            scoped_run(|| engine.predict_into(qv, &mut out))
        });
        let helped = metrics.counter("kernels.sharded.blocks_helped").unwrap();
        assert!((1..8).contains(&helped), "the helper ran {helped} of 8 blocks");
        assert_eq!(attr(&attrs, "fanout"), "scope");
        assert_eq!(attr(&attrs, "helpers"), "1");
        assert_eq!(attr(&attrs, "helped_share"), format!("{:.3}", helped as f64 / 8.0));
        assert_eq!(metrics.counter("kernels.sharded.offers_unanswered"), Some(0));
        // Lane counts add up across participants (the memory tracer walks
        // its sampled tiles outside the lanes).
        if !cfg!(feature = "mem-tracer") {
            assert_eq!(metrics.counter("kernels.sharded.walks"), Some(64 * 9));
        }
    }

    /// Lane accounting: every (tree, row) pair is one walk, a step is
    /// one level of one walk, and the `kernels.sharded` span says how
    /// full the lanes were — near 1 on a block of many rows, far below it
    /// when one row meets one-tree shards (a single walk per tile).
    #[cfg(all(feature = "telemetry", not(feature = "mem-tracer")))]
    #[test]
    fn lane_counters_account_for_every_walk_and_step() {
        let (forest, queries) = fixture(9, 41);
        let qv = QueryView::new(&queries, 6).unwrap();
        let levels: u64 = (0..qv.num_rows())
            .map(|r| {
                let q = qv.row(r);
                (0..9)
                    .map(|t| {
                        let (mut cursor, mut n) = (forest.root(t), 1);
                        while forest.step(&mut cursor, q).is_none() {
                            n += 1;
                        }
                        n
                    })
                    .sum::<u64>()
            })
            .sum();
        let occupancy = |engine: &ShardedEngine<&RandomForest>, qv: QueryView<'_>| {
            let tel = rfx_telemetry::Telemetry::new();
            let mut out = vec![0; qv.num_rows()];
            {
                let root = tel.start_span("test.pass");
                let _scope = tel.in_context(root.context());
                engine.predict_into(qv, &mut out);
            }
            let trace = tel.trace_snapshot();
            let span = trace.spans.iter().find(|s| s.name == "kernels.sharded").unwrap();
            let attr = |key: &str| {
                span.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).unwrap()
            };
            assert_eq!(attr("walks"), SWEEP_LANES.to_string());
            assert_eq!(attr("top_levels"), "0", "the node vector has no top");
            (tel.metrics_snapshot(), attr("lane_occupancy").parse::<f64>().unwrap())
        };
        for policy in [VotePolicy::Exact, VotePolicy::BitSliced] {
            let (metrics, full) = occupancy(&ShardedEngine::with_policy(&forest, policy), qv);
            assert_eq!(metrics.counter("kernels.sharded.walks"), Some(300 * 9), "{policy}");
            assert_eq!(metrics.counter("kernels.sharded.steps"), Some(levels), "{policy}");
            let sweeps = metrics.counter("kernels.sharded.sweeps").unwrap();
            assert!(sweeps * SWEEP_LANES as u64 >= levels && sweeps < levels, "{policy}");
            assert!(full > 0.9, "{policy}: 300-row blocks keep the lanes full, got {full}");
        }
        // One row, one tree per shard: every tile is a lone walk.
        let plan = EnginePlan::builder().shard_trees(1).build().unwrap();
        let one_row = QueryView::new(&queries[..6], 6).unwrap();
        let (metrics, starved) = occupancy(&ShardedEngine::with_plan(&forest, plan), one_row);
        assert_eq!(metrics.counter("kernels.sharded.walks"), Some(9));
        assert_eq!(
            metrics.counter("kernels.sharded.steps"),
            metrics.counter("kernels.sharded.sweeps")
        );
        assert!((starved - 1.0 / SWEEP_LANES as f64).abs() < 1e-3, "got {starved}");
    }

    /// A complete top is walked in lockstep trips, not steps: a packed
    /// forest no deeper than its top never reaches the pointer phase, so
    /// it counts no steps or sweeps — `lane_occupancy` describes that
    /// phase alone — and the span names the top's depth.
    #[cfg(all(feature = "telemetry", not(feature = "mem-tracer")))]
    #[test]
    fn a_complete_top_is_walked_in_trips_not_steps() {
        let mut rng = StdRng::seed_from_u64(43);
        let trees = (0..9).map(|_| DecisionTree::random(&mut rng, 3, 6, 4, 0.0)).collect();
        let forest = RandomForest::from_trees(trees, 6, 4).unwrap();
        let queries: Vec<f32> = (0..300 * 6).map(|_| rng.gen()).collect();
        let qv = QueryView::new(&queries, 6).unwrap();
        let profile = rfx_core::pack::FrequencyProfile::uniform(&forest);
        let packed = PackedFilForest::build(&forest, &profile, PackPlan::default()).unwrap();
        assert_eq!(packed.top_levels(), 3);
        // One block, one shard: one tile of 2700 pairs, taken through
        // the top a group at a time.
        let plan = EnginePlan::builder()
            .threads(1)
            .query_block(300)
            .pack(PackPlan::default())
            .build()
            .unwrap();
        let engine = ShardedEngine::with_plan(&packed, plan);
        let mut out = vec![0; 300];
        let (metrics, attrs) = scoped_run(|| engine.predict_into(qv, &mut out));
        assert_eq!(out, forest.predict_batch(qv));
        let attr = |key: &str| attrs.iter().find(|(k, _)| k == key).unwrap().1.clone();
        assert_eq!(attr("top_levels"), "3");
        assert_eq!(attr("lane_occupancy"), "0.000");
        assert_eq!(metrics.counter("kernels.sharded.walks"), Some(2700));
        assert_eq!(attr("top_group"), TOP_GROUP.to_string());
        let groups = 2700usize.div_ceil(TOP_GROUP) as u64;
        assert_eq!(metrics.counter("kernels.sharded.trips"), Some(groups * 3));
        assert_eq!(metrics.counter("kernels.sharded.steps"), Some(0));
        assert_eq!(metrics.counter("kernels.sharded.sweeps"), Some(0));
    }

    /// The zero-overhead contract: without `mem-tracer`, the sharded
    /// engine must export no `kernels.perf.*` series at all — counter
    /// registration, tracer allocation, and the traced traversal path
    /// are compiled out, not merely skipped.
    #[cfg(all(feature = "telemetry", not(feature = "mem-tracer")))]
    #[test]
    fn no_perf_series_without_the_mem_tracer_feature() {
        let (forest, queries) = fixture(9, 41);
        let qv = QueryView::new(&queries, 6).unwrap();
        let fil = FilForest::build(&forest);
        let metrics = scoped_snapshot(&ShardedEngine::new(&fil), qv);
        assert!(
            metrics.counters.iter().all(|(name, _)| !name.starts_with("kernels.perf.")),
            "mem-tracer disabled must export no kernels.perf.* series"
        );
        assert!(metrics.counter("kernels.memtrace.sampled_tiles").is_none());
    }

    /// With the tracer on, the engine exports the complete shared perf
    /// schema under the `kernels` domain and actually samples tiles.
    #[cfg(feature = "mem-tracer")]
    #[test]
    fn mem_tracer_exports_the_full_perf_schema() {
        let (forest, queries) = fixture(9, 41);
        let qv = QueryView::new(&queries, 6).unwrap();
        let fil = FilForest::build(&forest);
        let metrics = scoped_snapshot(&ShardedEngine::new(&fil), qv);
        rfx_telemetry::perf::assert_schema(&metrics, "kernels");
        let perf = rfx_telemetry::perf::read(&metrics, "kernels").unwrap();
        assert!(perf.l1_accesses > 0, "sampled tiles must observe fetches");
        assert_eq!(perf.l1_accesses, perf.l1_hits + perf.l1_misses);
        assert_eq!(perf.l2_accesses, perf.l1_misses, "L2 sees exactly the L1 misses");
        assert_eq!(perf.dram_transactions, perf.l2_misses);
        assert!(metrics.counter("kernels.memtrace.sampled_tiles").unwrap() > 0);
        assert!(metrics.gauge("kernels.perf.occupancy").unwrap() > 0.0);
    }

    /// The sample is keyed by the tile, not by who runs it: however many
    /// participants claim the blocks, through either entry point, the
    /// same tiles are traced — each from cold — so the exported sums are
    /// the one-thread run's.
    #[cfg(feature = "mem-tracer")]
    #[test]
    fn sampled_tiles_do_not_depend_on_who_ran_the_blocks() {
        let (forest, queries) = fixture(9, 41);
        let qv = QueryView::new(&queries, 6).unwrap();
        let fil = Arc::new(FilForest::build(&forest));
        let traced = |threads: usize, owned: bool| {
            // One shard, 19 blocks: 19 tiles, every eighth sampled.
            let plan = EnginePlan::builder()
                .shard_trees(9)
                .query_block(16)
                .threads(threads)
                .build()
                .unwrap();
            let engine = ShardedEngine::with_plan(Arc::clone(&fil), plan);
            let mut out = vec![0; 300];
            let (metrics, _) = scoped_run(|| match owned {
                true => engine.predict_into_shared(qv, &mut out),
                false => engine.predict_into(qv, &mut out),
            });
            let perf = rfx_telemetry::perf::read(&metrics, "kernels").unwrap();
            (metrics.counter("kernels.memtrace.sampled_tiles").unwrap(), perf.counter_values())
        };
        let alone = traced(1, false);
        assert!(alone.0 > 0 && alone.0 <= 19);
        for threads in [2, 3] {
            for owned in [false, true] {
                assert_eq!(traced(threads, owned), alone, "threads={threads} owned={owned}");
            }
        }
    }

    /// The cache win the quantized layouts exist for, observed by the
    /// tracer: on a forest far larger than the modeled L2, the u8 QFil
    /// pack must take strictly fewer simulated L2 misses (and DRAM
    /// transactions) than the f32 FIL layout under an identical plan.
    #[cfg(feature = "mem-tracer")]
    #[test]
    fn qfil_u8_misses_less_than_fil_f32() {
        let mut rng = StdRng::seed_from_u64(53);
        let trees: Vec<DecisionTree> =
            (0..48).map(|_| DecisionTree::random(&mut rng, 14, 6, 4, 0.1)).collect();
        let forest = RandomForest::from_trees(trees, 6, 4).unwrap();
        let queries: Vec<f32> = (0..256 * 6).map(|_| rng.gen()).collect();
        let qv = QueryView::new(&queries, 6).unwrap();
        // One whole-forest shard: every sampled tile streams all trees,
        // so the layouts' resident-byte difference is what the caches see.
        let plan =
            EnginePlan::builder().shard_trees(48).query_block(64).threads(2).build().unwrap();
        let fil = FilForest::build(&forest);
        let qfil = QFilForest::<u8>::build(&forest).unwrap();
        let fil_metrics = scoped_snapshot(&ShardedEngine::with_plan(&fil, plan), qv);
        let q_metrics = scoped_snapshot(&ShardedEngine::with_plan(&qfil, plan), qv);
        let fil_perf = rfx_telemetry::perf::read(&fil_metrics, "kernels").unwrap();
        let q_perf = rfx_telemetry::perf::read(&q_metrics, "kernels").unwrap();
        assert!(
            q_perf.l2_misses < fil_perf.l2_misses,
            "qfil-u8 L2 misses {} must undercut fil-f32's {}",
            q_perf.l2_misses,
            fil_perf.l2_misses
        );
        assert!(q_perf.dram_transactions < fil_perf.dram_transactions);
    }

    /// The cache win packing exists for, observed by the tracer: same
    /// comparisons, same uniform plan — only where they sit differs —
    /// yet the pointer-free tops and the hot-first stream touch fewer
    /// distinct lines per tile, so strictly fewer simulated L2 misses
    /// and DRAM transactions.
    #[cfg(feature = "mem-tracer")]
    #[test]
    fn packed_fil_misses_less_than_unpacked_fil() {
        use rfx_core::pack::FrequencyProfile;
        let mut rng = StdRng::seed_from_u64(53);
        let trees: Vec<DecisionTree> =
            (0..48).map(|_| DecisionTree::random(&mut rng, 14, 6, 4, 0.1)).collect();
        let forest = RandomForest::from_trees(trees, 6, 4).unwrap();
        let queries: Vec<f32> = (0..256 * 6).map(|_| rng.gen()).collect();
        let calib: Vec<f32> = (0..128 * 6).map(|_| rng.gen()).collect();
        let qv = QueryView::new(&queries, 6).unwrap();
        let profile = FrequencyProfile::collect(&forest, QueryView::new(&calib, 6).unwrap());
        let plan =
            EnginePlan::builder().shard_trees(48).query_block(64).threads(2).build().unwrap();
        let fil = FilForest::build(&forest);
        let packed = PackedFilForest::build(&forest, &profile, PackPlan::default()).unwrap();
        let fil_metrics = scoped_snapshot(&ShardedEngine::with_plan(&fil, plan), qv);
        let p_metrics = scoped_snapshot(&ShardedEngine::with_plan(&packed, plan), qv);
        let fil_perf = rfx_telemetry::perf::read(&fil_metrics, "kernels").unwrap();
        let p_perf = rfx_telemetry::perf::read(&p_metrics, "kernels").unwrap();
        assert!(
            p_perf.l2_misses < fil_perf.l2_misses,
            "packed-fil L2 misses {} must undercut unpacked fil's {}",
            p_perf.l2_misses,
            fil_perf.l2_misses
        );
        assert!(p_perf.dram_transactions < fil_perf.dram_transactions);
    }
}
