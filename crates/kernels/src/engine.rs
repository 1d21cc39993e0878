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
//! * inside a tile, one kernel (`walk_tile`) keeps `WALKS` (= 8) independent
//!   tree walks in flight per thread over the tile's (tree, row) pairs,
//!   advancing each one level per sweep through the layouts' one-level
//!   [`TreeEnsemble::step`], so their node loads overlap instead of
//!   queueing behind one another;
//! * per-shard class votes accumulate into a per-block scratch buffer
//!   owned by one worker (no per-query allocation, no vote contention),
//!   and a final pass reduces each row's votes to a label.
//!
//! Everything is fronted by the [`Predictor`] trait — `rfx-serve`
//! backends, the bench harnesses, and the examples all speak
//! `predict_into(&self, queries, out)` instead of the retired per-layout
//! free-function zoo (see the deprecated wrappers in [`crate::cpu`]).

use crate::votes::{BitSlicedVotes, VotePolicy};
use rfx_core::csr::CsrCursor;
use rfx_core::fil::FilCursor;
use rfx_core::footprint::LayoutFootprint;
use rfx_core::hier::HierCursor;
use rfx_core::pack::{PackError, PackPlan, PackedFilForest, PackedQFilForest};
use rfx_core::quant::{QCsrForest, QFilForest, QuantLevel};
use rfx_core::{CsrForest, FilForest, HierForest, Label};
use rfx_forest::dataset::QueryView;
use rfx_forest::{Node, RandomForest};
use std::fmt;
use std::sync::Arc;

/// Anything that can walk one of its trees one level at a time: the
/// capability the execution engine needs from a forest layout.
/// Implemented by every layout (node-vector, hierarchical, CSR, FIL,
/// their quantized and packed variants) plus references and `Arc`s to
/// them, so engines can own or share their source.
///
/// The traversal primitive is deliberately one *level*, not one tree:
/// [`TreeEnsemble::root`] hands out a `Copy` cursor and
/// [`TreeEnsemble::step`] advances it past one node, so the sharded
/// engine's tile kernel can hold `WALKS` (= 8) cursors in a plain array and
/// advance them round-robin — independent loads the out-of-order core
/// overlaps, where a lone `loop { step }` waits out one dependent load
/// per level. Each layout decodes its nodes in exactly one place, its
/// inherent `step`; `predict_tree` and [`TreeEnsemble::vote_tree`] are
/// `loop { step }` over it.
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
    /// to the child the node's comparison selects.
    fn step(&self, cursor: &mut Self::Cursor, query: &[f32]) -> Option<Label>;
    /// Classifies `query` with tree `t`: one walk, root to leaf.
    fn vote_tree(&self, t: usize, query: &[f32]) -> Label {
        rfx_core::walk(self.root(t), |cursor| self.step(cursor, query))
    }
    /// Classifies like [`TreeEnsemble::vote_tree`] while reporting each
    /// simulated memory fetch to `sink` (see [`rfx_core::memprobe`]) —
    /// what the engine's software memory tracer (`mem-tracer` feature)
    /// drives its cache model from. The default ignores the sink:
    /// layouts without an address-exact memory model still vote
    /// correctly, they just contribute nothing to the trace.
    fn vote_tree_traced(
        &self,
        t: usize,
        query: &[f32],
        sink: &mut dyn rfx_core::memprobe::FetchSink,
    ) -> Label {
        let _ = sink;
        self.vote_tree(t, query)
    }
    /// Cumulative tree-count shard boundaries (`[0, ..., num_trees]`)
    /// when the layout was built with byte-aware shards of its own — the
    /// packed layouts ([`rfx_core::pack`]) return their bin-packed
    /// bounds so the engine tiles along the same seams the node stream
    /// was interleaved for. `None` (the default) keeps the plan's
    /// uniform `shard_trees` stride.
    fn shard_bounds(&self) -> Option<Vec<usize>> {
        None
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
    fn step(&self, cursor: &mut NodeVecCursor, query: &[f32]) -> Option<Label> {
        match self.trees()[cursor.tree as usize].nodes()[cursor.node as usize] {
            Node::Leaf { label } => Some(label),
            Node::Inner { feature, threshold, left, right } => {
                cursor.node = if query[feature as usize] < threshold { left } else { right };
                None
            }
        }
    }
}

/// The part of a core layout's [`TreeEnsemble`] impl that only forwards
/// to the layout's inherent methods of the same names.
macro_rules! forward_to_inherent {
    ($layout:ident, $cursor:ty) => {
        type Cursor = $cursor;

        fn num_trees(&self) -> usize {
            $layout::num_trees(self)
        }

        fn num_classes(&self) -> u32 {
            $layout::num_classes(self)
        }

        fn footprint(&self) -> LayoutFootprint {
            $layout::footprint(self)
        }

        #[inline]
        fn root(&self, t: usize) -> $cursor {
            $layout::root(self, t)
        }

        #[inline]
        fn step(&self, cursor: &mut $cursor, query: &[f32]) -> Option<Label> {
            $layout::step(self, cursor, query)
        }
    };
}

/// [`TreeEnsemble::vote_tree_traced`] for the layouts whose
/// `predict_tree_traced` twin models their fetch addresses exactly.
macro_rules! traced_by_inherent {
    () => {
        fn vote_tree_traced(
            &self,
            t: usize,
            query: &[f32],
            sink: &mut dyn rfx_core::memprobe::FetchSink,
        ) -> Label {
            self.predict_tree_traced(t, query, sink)
        }
    };
}

impl TreeEnsemble for HierForest {
    forward_to_inherent!(HierForest, HierCursor);
}

impl TreeEnsemble for CsrForest {
    forward_to_inherent!(CsrForest, CsrCursor);
    traced_by_inherent!();
}

impl TreeEnsemble for FilForest {
    forward_to_inherent!(FilForest, FilCursor);
    traced_by_inherent!();
}

// The quantized layouts plug in through the same capability trait, so the
// sharded engine, the row-parallel baseline, and every serve backend can
// traverse them without call-site changes. Their `footprint()` reports the
// *compressed* bytes, which is what lets `EnginePlan::auto` pack ~2.4×
// more u8-quantized trees into each L2 shard.
impl<T: QuantLevel> TreeEnsemble for QFilForest<T> {
    forward_to_inherent!(QFilForest, FilCursor);
    traced_by_inherent!();
}

impl<T: QuantLevel> TreeEnsemble for QCsrForest<T> {
    forward_to_inherent!(QCsrForest, CsrCursor);
    traced_by_inherent!();
}

// The profile-packed layouts additionally publish their byte-bin-packed
// shard seams, so the tile loop walks exactly the tree groups whose
// leading levels were interleaved together.
impl TreeEnsemble for PackedFilForest {
    forward_to_inherent!(PackedFilForest, FilCursor);
    traced_by_inherent!();

    fn shard_bounds(&self) -> Option<Vec<usize>> {
        Some(self.shard_tree_bounds())
    }
}

impl<T: QuantLevel> TreeEnsemble for PackedQFilForest<T> {
    forward_to_inherent!(PackedQFilForest, FilCursor);
    traced_by_inherent!();

    fn shard_bounds(&self) -> Option<Vec<usize>> {
        Some(self.shard_tree_bounds())
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
            fn step(&self, cursor: &mut E::Cursor, query: &[f32]) -> Option<Label> {
                (**self).step(cursor, query)
            }

            fn vote_tree_traced(
                &self,
                t: usize,
                query: &[f32],
                sink: &mut dyn rfx_core::memprobe::FetchSink,
            ) -> Label {
                (**self).vote_tree_traced(t, query, sink)
            }

            fn shard_bounds(&self) -> Option<Vec<usize>> {
                (**self).shard_bounds()
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

/// Least (row × tree) traversals an auto plan gives each thread. The
/// fan-out spawns a scoped OS thread per task (`compat/rayon`), about
/// 100 µs a call on the 2-vCPU box by the time both have joined, and two
/// threads on sibling hyperthreads run 1.2–1.4×, not 2×, as fast as one.
/// Re-measured under the tile kernel on the hier layout (the ledger's 50
/// trees × depth 15 and 200 × depth 8 forests, rows rotating through an
/// 8192-row pool so paths arrive cold, median of 300 calls, inline vs
/// fanned out, three runs): a traversal costs 105–180 ns on the first
/// forest and 28–39 ns on the L2-resident second (the single-walk loop
/// read 150–250 and 35–43); one thread won at every batch up to 4800
/// traversals on the first (4 rows × 50 trees: 64–84 µs inline vs
/// 108–172 fanned out) and up to 19 200 on the second (64 × 200: 408–499
/// vs 490–629 µs); the two tied around 6400 and 24 000; two threads won
/// beyond (256 × 50: 1520–1710 vs 1230–1480 µs; 192 × 200: 1020–1250 vs
/// 770–1180). The single-walk loop's ties sat at 3200–4800 and
/// 12 800–19 200 with the switch at 8192 between them; the kernel made
/// traversals cheaper and moved both up. 6400 puts the switch at 12 800,
/// between the new ties, and is the largest value at which a full
/// 256-row batch on a 50-tree forest still fans out: the 1–16-row batches
/// a lightly loaded service forms run inline on its worker.
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
    /// reuse to exploit, so the plan degenerates to one block per worker —
    /// block bookkeeping would be pure overhead.
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
        let query_block =
            if shard_trees == n_trees { per_thread } else { DEFAULT_QUERY_BLOCK.min(per_thread) };
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
/// every auto-planned batch asks.
fn available_threads() -> usize {
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
    seams: Option<Vec<usize>>,
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
        ShardedEngine { source, plan, policy, footprint, seams }
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
    /// interleaved groups sit better than a uniform stride does); an
    /// explicitly planned engine opts in by carrying a
    /// [`PackPlan`] — a pinned uniform plan stays uniform, which is what
    /// lets the equivalence proptests drive arbitrary tilings over the
    /// packed layouts.
    fn shard_bounds_for_run(&self) -> Option<&[usize]> {
        let adopt = match self.plan {
            None => true,
            Some(p) => p.pack().is_some(),
        };
        self.seams.as_deref().filter(|_| adopt)
    }
}

/// How one run cuts the forest into tree shards.
#[derive(Clone, Copy)]
enum Shards<'a> {
    /// A packed layout's cumulative seams `[0, ..., n_trees]`, validated
    /// at engine construction.
    Seams(&'a [usize]),
    /// The plan's uniform stride.
    Uniform { stride: usize, n_trees: usize },
}

impl Shards<'_> {
    fn count(&self) -> usize {
        match *self {
            Shards::Seams(bounds) => bounds.len() - 1,
            Shards::Uniform { stride, n_trees } => n_trees.div_ceil(stride),
        }
    }

    /// Trees `lo..hi` of shard `s`.
    fn range(&self, s: usize) -> (usize, usize) {
        match *self {
            Shards::Seams(bounds) => (bounds[s], bounds[s + 1]),
            Shards::Uniform { stride, n_trees } => (s * stride, ((s + 1) * stride).min(n_trees)),
        }
    }
}

/// What the tile loop needs to open per-tile child spans: the ambient
/// telemetry domain plus the enclosing kernel span's context, captured
/// *before* the rayon fan-out (worker threads have neither the span
/// stack nor the ambient scope of the calling thread). `None` when the
/// enclosing trace is unsampled — tiles then cost nothing.
#[cfg(feature = "telemetry")]
type TileCtx = Option<(rfx_telemetry::Telemetry, rfx_telemetry::SpanContext)>;

/// Lane accounting of [`walk_tile`]: walks finished, `step` calls made,
/// and sweeps over the lane array. `steps / walks` is the mean path
/// depth and `steps / (sweeps × WALKS)` the lane occupancy — between
/// them the answer to "why was this batch's traverse stage slow": deep
/// paths, or too few (tree, row) pairs to fill the lanes. Counted only
/// under the `telemetry` feature, in task-local integers.
#[derive(Default)]
struct WalkStats {
    walks: u64,
    steps: u64,
    sweeps: u64,
}

#[cfg(feature = "telemetry")]
impl WalkStats {
    fn add(&mut self, other: &WalkStats) {
        self.walks += other.walks;
        self.steps += other.steps;
        self.sweeps += other.sweeps;
    }
}

/// Per-batch observers handed to every task of [`run_tiled`] — empty in
/// the default build, so the uninstrumented engine carries no tracer or
/// counter state at all.
struct BatchCtx {
    #[cfg(feature = "telemetry")]
    tile: TileCtx,
    /// Batch-wide [`WalkStats`] totals: each task adds its own once,
    /// after its last tile, and the calling thread exports the sums
    /// (`kernels.sharded.{walks,steps,sweeps}` plus the span's
    /// `lane_occupancy`).
    #[cfg(feature = "telemetry")]
    walks: std::sync::Mutex<WalkStats>,
    /// The batch-wide memory-trace accumulator the tile loop samples
    /// into (see [`crate::memtrace`]).
    #[cfg(feature = "mem-tracer")]
    mem: Arc<crate::memtrace::TraceAgg>,
}

impl<E: TreeEnsemble> Predictor for ShardedEngine<E> {
    fn predict_into(&self, queries: QueryView<'_>, out: &mut [Label]) {
        let plan = self.plan_for(queries.num_rows());
        let shards = match self.shard_bounds_for_run() {
            Some(bounds) => Shards::Seams(bounds),
            None => {
                Shards::Uniform { stride: plan.shard_trees(), n_trees: self.source.num_trees() }
            }
        };
        #[cfg(feature = "telemetry")]
        let tel = rfx_telemetry::current();
        #[cfg(feature = "telemetry")]
        let mut span = {
            let shards = shards.count() as u64;
            let blocks = queries.num_rows().div_ceil(plan.query_block()) as u64;
            tel.counter("kernels.sharded.batches").inc();
            tel.counter("kernels.sharded.shards").add(shards);
            tel.counter("kernels.sharded.blocks").add(blocks);
            tel.counter("kernels.sharded.tiles").add(shards * blocks);
            rfx_telemetry::span!(tel, "kernels.sharded", rows = out.len())
        };
        let ctx = BatchCtx {
            #[cfg(feature = "telemetry")]
            tile: span.is_recorded().then(|| (tel.clone(), span.context())),
            #[cfg(feature = "telemetry")]
            walks: Default::default(),
            #[cfg(feature = "mem-tracer")]
            mem: Arc::new(crate::memtrace::TraceAgg::new(queries.num_features())),
        };
        run_tiled(&self.source, plan, shards, queries, out, &ctx);
        #[cfg(feature = "telemetry")]
        {
            let lanes = ctx.walks.lock().expect("a task panicked while adding its lane counts");
            tel.counter("kernels.sharded.walks").add(lanes.walks);
            tel.counter("kernels.sharded.steps").add(lanes.steps);
            tel.counter("kernels.sharded.sweeps").add(lanes.sweeps);
            let slots = (lanes.sweeps * WALKS as u64).max(1);
            span.set_attr("walks", WALKS.to_string());
            span.set_attr("lane_occupancy", format!("{:.3}", lanes.steps as f64 / slots as f64));
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
    }
}

/// Row-parallel engine: splits the batch across threads and walks the
/// *whole* forest for each row — the legacy `predict_*_parallel` memory
/// pattern behind the [`Predictor`] interface (votes go through a
/// per-worker scratch instead of a per-query allocation). Kept as the
/// `cpu-parallel` serving backend and as the baseline the sharded engine
/// is benchmarked against.
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

/// The tiling shape one worker task executes with, pre-normalized by
/// [`run_tiled`].
#[derive(Clone, Copy)]
struct Tiling<'a> {
    /// Rows per query block.
    qb: usize,
    /// Classes voted over (≥ 1).
    nc: usize,
    /// Trees in the forest.
    n_trees: usize,
    shards: Shards<'a>,
}

/// Vote-reduction telemetry handles (`kernels.votes.*`), resolved on the
/// calling thread before the rayon fan-out (workers have no ambient
/// domain) and updated once per task to keep the hot loop free of
/// atomics. Registered lazily — only batches running a non-exact
/// [`VotePolicy`] create them, so exact deployments' metric exports are
/// unchanged.
#[cfg(feature = "telemetry")]
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

#[cfg(not(feature = "telemetry"))]
type VoteCtx = ();

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

/// Executes the (query block × tree shard) tiling: each worker owns a
/// contiguous run of blocks and one reusable vote-scratch buffer; within
/// a block, shards are walked outermost so a shard's nodes stay hot in
/// cache across every row of the block, each tile's (tree, row) pairs
/// going through the [`walk_tile`] kernel; a final pass reduces each
/// row's votes to its majority label. The plan's [`VotePolicy`] picks the
/// reduction: the exact scalar tally, the bit-sliced popcount tally, or
/// bit-sliced with early-exit traversal (see [`crate::votes`]). When
/// `ctx.tile` carries a sampled trace, each executed (block × shard)
/// tile records a `kernels.sharded.tile` child span with its block/shard
/// indices — the per-tile attribution behind the flamegraph and
/// critical-path views (early-exited blocks simply record fewer tiles).
/// With the `mem-tracer` feature, each worker additionally samples every
/// Nth of its tiles through the layouts' traced traversals into
/// `ctx.mem`'s cache model (see [`crate::memtrace`]).
fn run_tiled<E: TreeEnsemble>(
    source: &E,
    plan: EnginePlan,
    shards: Shards<'_>,
    queries: QueryView<'_>,
    out: &mut [Label],
    ctx: &BatchCtx,
) {
    use rayon::prelude::*;

    let n = queries.num_rows();
    assert_eq!(out.len(), n, "output slice must match query batch");
    if n == 0 {
        return;
    }
    let plan = plan.normalized(source.num_trees(), n);
    let tiling = Tiling {
        qb: plan.query_block(),
        nc: source.num_classes().max(1) as usize,
        n_trees: source.num_trees(),
        shards,
    };

    // Contiguous runs of whole blocks per worker: `threads` tasks, each
    // processing its blocks serially with one scratch buffer.
    let blocks = n.div_ceil(tiling.qb);
    let tasks = split_tasks(out, blocks.div_ceil(plan.threads()) * tiling.qb);

    match plan.vote_policy() {
        VotePolicy::Exact => {
            tasks
                .into_par_iter()
                .for_each(|(start, rows)| exact_task(source, queries, tiling, start, rows, ctx));
        }
        VotePolicy::BitSliced | VotePolicy::EarlyExit { .. } => {
            let early_slack = match plan.vote_policy() {
                VotePolicy::EarlyExit { slack } => Some(slack),
                _ => None,
            };
            #[cfg(feature = "telemetry")]
            let vote_ctx = VoteCtx::new(&rfx_telemetry::current());
            #[cfg(not(feature = "telemetry"))]
            let vote_ctx: VoteCtx = ();
            tasks.into_par_iter().for_each(|(start, rows)| {
                sliced_task(source, queries, tiling, start, rows, early_slack, ctx, &vote_ctx)
            });
        }
    }
}

/// Independent tree walks one thread keeps in flight in [`walk_tile`].
///
/// A lone walk is one dependent load per level: the next node's address
/// is not known until the current node has arrived, so a thread waits
/// out a DRAM round trip per node on a forest larger than L2 and the
/// compare→index chain on one that fits. Walks of different (tree, row)
/// pairs share nothing, so the out-of-order core overlaps their loads
/// once they are interleaved in program order — the CPU analog of the
/// paper's collaborative variants, and of Forest Packing's round-robin
/// over interleaved trees.
///
/// Swept over {4, 8, 16} on the ledger's seed-1 forests (2 vCPUs; the
/// single-walk loop's pass time ÷ the kernel's, passes interleaved in
/// one process, median of 9 pairs): FIL on the 17 MB depth-30 forest
/// 2.15 / 3.45 / 4.73, node-vector 1.90 / 2.61 / 2.73, hier 1.47 / 1.80
/// / 1.74; FIL on the L2-resident 200 × depth-8 forest 1.05 / 1.37 /
/// 1.43. Sixteen lanes keep buying memory parallelism where nodes miss,
/// and cost hier — two arrays and the most arithmetic per level — the
/// ground it gained where nothing misses: the
/// ledger's `speedup_hier` on `batch-shallow` read 1.41–1.49 at 8 and
/// 1.16–1.39 at 16 against the single-walk 1.25–1.38 (three runs each),
/// while `speedup_fil` on `batch-deep` read 2.34–2.90 and 3.11–3.45
/// against 1.05–1.10. Eight is the largest count that slows no layout
/// on any workload.
const WALKS: usize = 8;

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
/// up to [`WALKS`] walks in flight. Pairs are taken in tree-major order
/// (a tree's nodes stay hot while its rows are spread over the lanes —
/// and because lanes hold *pairs*, a 1-row × 200-tree request fills
/// them just as well as a 64-row × 1-tree tile does); every sweep
/// advances each live lane one level; a lane that reaches its leaf
/// reports `(tree, block-local row, label)` and takes the next pair in
/// place, and once pairs run out the tail compacts by moving the last
/// live lane into the finished one's slot. Votes therefore arrive in
/// finishing order, not pair order — `report` must not depend on it.
#[inline]
fn walk_tile<E: TreeEnsemble>(
    source: &E,
    queries: QueryView<'_>,
    block_start: usize,
    len: usize,
    (tree_lo, tree_hi): (usize, usize),
    stats: &mut WalkStats,
    mut report: impl FnMut(usize, usize, Label),
) {
    let mut pairs = (tree_lo..tree_hi).flat_map(|tree| (0..len).map(move |row| (tree, row)));
    let start = |(tree, row): (usize, usize)| Lane {
        cursor: source.root(tree),
        tree,
        row,
        query: queries.row(block_start + row),
    };
    let Some(first) = pairs.next().map(start) else { return };
    let mut lanes = [first; WALKS];
    let mut live = 1;
    for pair in pairs.by_ref().take(WALKS - 1) {
        lanes[live] = start(pair);
        live += 1;
    }
    if cfg!(feature = "telemetry") {
        stats.walks += ((tree_hi - tree_lo) * len) as u64;
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
            match pairs.next() {
                Some(pair) => {
                    *lane = start(pair);
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

/// One worker's run of blocks under [`VotePolicy::Exact`]: the scalar
/// per-(row, class) tally, every shard traversed.
fn exact_task<E: TreeEnsemble>(
    source: &E,
    queries: QueryView<'_>,
    tiling: Tiling<'_>,
    task_start: usize,
    rows: &mut [Label],
    ctx: &BatchCtx,
) {
    #[cfg(feature = "mem-tracer")]
    let mut tracer = ctx.mem.tracer();
    #[cfg(feature = "mem-tracer")]
    let mut tile_idx = 0u64;
    let Tiling { qb, nc, shards, .. } = tiling;
    let mut votes = vec![0u32; qb * nc];
    let mut stats = WalkStats::default();
    let mut offset = 0;
    while offset < rows.len() {
        let len = qb.min(rows.len() - offset);
        let block_start = task_start + offset;
        let votes = &mut votes[..len * nc];
        votes.fill(0);
        // Tile loop: shard outermost — a shard's trees are all reused
        // by every row of the block before the next shard's bytes
        // displace them.
        for shard in 0..shards.count() {
            let (shard_lo, shard_hi) = shards.range(shard);
            #[cfg(feature = "telemetry")]
            let _tile = tile_span(&ctx.tile, block_start / qb, shard, len, shard_hi - shard_lo);
            #[cfg(feature = "mem-tracer")]
            let traced = {
                let sampled = tile_idx.is_multiple_of(ctx.mem.sample_every());
                tile_idx += 1;
                if sampled {
                    tracer.begin_tile();
                    for t in shard_lo..shard_hi {
                        for (i, row_votes) in votes.chunks_exact_mut(nc).enumerate() {
                            let row = block_start + i;
                            tracer.begin_row(row);
                            let vote = source.vote_tree_traced(t, queries.row(row), &mut tracer);
                            row_votes[vote as usize] += 1;
                        }
                    }
                    tracer.end_tile();
                }
                sampled
            };
            #[cfg(not(feature = "mem-tracer"))]
            let traced = false;
            if !traced {
                let tile = (shard_lo, shard_hi);
                walk_tile(source, queries, block_start, len, tile, &mut stats, |_, row, label| {
                    votes[row * nc + label as usize] += 1;
                });
            }
        }
        // Reduction pass: per-row majority, ties toward the lower
        // class id (the shared convention).
        for (slot, row_votes) in rows[offset..offset + len].iter_mut().zip(votes.chunks_exact(nc)) {
            *slot = rfx_core::majority(row_votes);
        }
        offset += len;
    }
    #[cfg(feature = "telemetry")]
    ctx.walks.lock().expect("another task panicked while adding its lane counts").add(&stats);
    #[cfg(feature = "mem-tracer")]
    ctx.mem.merge(&tracer);
    #[cfg(not(feature = "telemetry"))]
    let _ = (ctx, stats);
}

/// One worker's run of blocks under [`VotePolicy::BitSliced`] or
/// [`VotePolicy::EarlyExit`]: votes land in the class-major popcount
/// lanes of a [`BitSlicedVotes`], each at its tree's bit of the open
/// window (walks finish out of tree order, so the bit is explicit and a
/// shard is fed to the kernel one window's worth of trees at a time);
/// with `early_slack` set, the window is flushed at every shard boundary
/// and the block's remaining shards are skipped once every row's leader
/// holds an unreachable lead.
#[allow(clippy::too_many_arguments)] // internal fan-out target, grouped by Tiling already
fn sliced_task<E: TreeEnsemble>(
    source: &E,
    queries: QueryView<'_>,
    tiling: Tiling<'_>,
    task_start: usize,
    rows: &mut [Label],
    early_slack: Option<u32>,
    ctx: &BatchCtx,
    vote_ctx: &VoteCtx,
) {
    #[cfg(feature = "mem-tracer")]
    let mut tracer = ctx.mem.tracer();
    #[cfg(feature = "mem-tracer")]
    let mut tile_idx = 0u64;
    let Tiling { qb, nc, n_trees, shards } = tiling;
    let shards_total = shards.count();
    let mut acc = BitSlicedVotes::new(qb, nc);
    let mut stats = WalkStats::default();
    let (mut skipped, mut exited) = (0u64, 0u64);
    let mut offset = 0;
    while offset < rows.len() {
        let len = qb.min(rows.len() - offset);
        let block_start = task_start + offset;
        acc.reset(len);
        let mut probe = 0usize;
        for shard in 0..shards_total {
            let (shard_lo, shard_hi) = shards.range(shard);
            #[cfg(feature = "telemetry")]
            let _tile = tile_span(&ctx.tile, block_start / qb, shard, len, shard_hi - shard_lo);
            #[cfg(feature = "mem-tracer")]
            let traced = {
                let sampled = tile_idx.is_multiple_of(ctx.mem.sample_every());
                tile_idx += 1;
                if sampled {
                    tracer.begin_tile();
                    for t in shard_lo..shard_hi {
                        let bit = acc.open_bit();
                        for i in 0..len {
                            let row = block_start + i;
                            tracer.begin_row(row);
                            let vote = source.vote_tree_traced(t, queries.row(row), &mut tracer);
                            acc.vote(i, bit, vote);
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
                // Trees `lo..hi` take bits `first..` of the open window.
                let first = acc.open_bit();
                let hi = shard_hi.min(lo + (u64::BITS - first) as usize);
                let report = |t: usize, row, label| acc.vote(row, first + (t - lo) as u32, label);
                walk_tile(source, queries, block_start, len, (lo, hi), &mut stats, report);
                acc.advance((hi - lo) as u32);
                lo = hi;
            }
            if let Some(slack) = early_slack {
                if shard_hi < n_trees {
                    // Exact counts at the boundary, then the
                    // unreachable-lead test: sound because the leader
                    // can only gain votes while every rival gains at
                    // most `remaining` (see `BitSlicedVotes`).
                    acc.close_window();
                    let remaining = (n_trees - shard_hi) as u32;
                    if acc.all_decided(remaining, slack, &mut probe) {
                        skipped += (shards_total - shard - 1) as u64;
                        exited += 1;
                        break;
                    }
                }
            }
        }
        acc.close_window();
        for (slot, row_counts) in
            rows[offset..offset + len].iter_mut().zip(acc.counts().chunks_exact(nc))
        {
            *slot = rfx_core::majority(row_counts);
        }
        offset += len;
    }
    #[cfg(feature = "telemetry")]
    {
        if skipped > 0 {
            vote_ctx.shards_skipped.add(skipped);
        }
        if exited > 0 {
            vote_ctx.blocks_exited.add(exited);
        }
        vote_ctx.popcount_reductions.add(acc.flushes());
        ctx.walks.lock().expect("another task panicked while adding its lane counts").add(&stats);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (ctx, vote_ctx, stats, skipped, exited);
    #[cfg(feature = "mem-tracer")]
    ctx.mem.merge(&tracer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_core::hier::builder::build_forest;
    use rfx_core::HierConfig;
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
    fn quantized_layouts_match_their_snapped_oracle() {
        let (forest, queries) = fixture(11, 3);
        let qv = QueryView::new(&queries, 6).unwrap();
        let qfil8 = QFilForest::<u8>::build(&forest).unwrap();
        let snapped = qfil8.quantizer().snap_forest(&forest);
        let reference = snapped.predict_batch(qv);

        assert_eq!(ShardedEngine::new(&qfil8).predict(qv), reference, "qfil-u8");
        let qcsr8 = QCsrForest::<u8>::build(&forest).unwrap();
        assert_eq!(ShardedEngine::new(&qcsr8).predict(qv), reference, "qcsr-u8");
        assert_eq!(RowParallel::new(&qfil8).predict(qv), reference, "row-parallel qfil-u8");
        // u16 snaps to a different (finer) grid — its own oracle.
        let qfil16 = QFilForest::<u16>::build(&forest).unwrap();
        let ref16 = qfil16.quantizer().snap_forest(&forest).predict_batch(qv);
        assert_eq!(ShardedEngine::new(&qfil16).predict(qv), ref16, "qfil-u16");
        let qcsr16 = QCsrForest::<u16>::build(&forest).unwrap();
        assert_eq!(ShardedEngine::new(&qcsr16).predict(qv), ref16, "qcsr-u16");
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
        assert_eq!(
            EnginePlan::builder().pack(PackPlan::default().interleave(17)).build(),
            Err(PlanError::Pack(PackError::InterleaveTooDeep))
        );
        assert!(PlanError::Pack(PackError::ZeroShardBudget).to_string().contains("shard_budget"));

        let pack = PackPlan::new(3, 64 << 10).unwrap();
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
        let pack = PackPlan::new(2, 4 << 10).unwrap();
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
        // What a lightly loaded service forms: one thread, one block, so
        // the fan-out degenerates to a plain call on the worker.
        for rows in [1, 4, 16, 128] {
            let plan = EnginePlan::auto(&footprint, 50, rows).normalized(50, rows);
            assert_eq!((plan.threads(), plan.query_block()), (1, rows), "{rows} rows");
        }
        // Threads grow with the work, up to the machine's.
        let plan = EnginePlan::auto(&footprint, 50, 256);
        assert_eq!(plan.threads(), available_threads().min(256 * 50 / MIN_ROW_TREES_PER_THREAD));
        assert_eq!(EnginePlan::auto(&footprint, 50, 1 << 20).threads(), available_threads());
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

    /// `vote_tree` is `loop { step }`; the node-vector layout has no
    /// traced twin, so a cursor walked by hand is held to the tree's own
    /// `predict`: same label, one level per step, NaN included.
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
        fn step(&self, cursor: &mut NodeVecCursor, query: &[f32]) -> Option<Label> {
            self.0.step(cursor, query)
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

    /// Runs `engine` in a fresh scoped telemetry domain and returns the
    /// domain's metrics snapshot.
    #[cfg(feature = "telemetry")]
    fn scoped_snapshot<P: Predictor>(
        engine: &P,
        qv: QueryView<'_>,
    ) -> rfx_telemetry::MetricsSnapshot {
        let tel = rfx_telemetry::Telemetry::new();
        let mut out = vec![0; qv.num_rows()];
        {
            let root = tel.start_span("test.pass");
            let _scope = tel.in_context(root.context());
            engine.predict_into(qv, &mut out);
        }
        tel.metrics_snapshot()
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
            assert_eq!(attr("walks"), WALKS.to_string());
            (tel.metrics_snapshot(), attr("lane_occupancy").parse::<f64>().unwrap())
        };
        for policy in [VotePolicy::Exact, VotePolicy::BitSliced] {
            let (metrics, full) = occupancy(&ShardedEngine::with_policy(&forest, policy), qv);
            assert_eq!(metrics.counter("kernels.sharded.walks"), Some(300 * 9), "{policy}");
            assert_eq!(metrics.counter("kernels.sharded.steps"), Some(levels), "{policy}");
            let sweeps = metrics.counter("kernels.sharded.sweeps").unwrap();
            assert!(sweeps * WALKS as u64 >= levels && sweeps < levels, "{policy}");
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
        assert!((starved - 1.0 / WALKS as f64).abs() < 1e-3, "got {starved}");
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
    /// 12 B nodes, same visited set, same uniform plan — only the node
    /// *order* differs — yet the hot-first, root-interleaved stream
    /// touches fewer distinct lines per tile, so strictly fewer
    /// simulated L2 misses and DRAM transactions.
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
