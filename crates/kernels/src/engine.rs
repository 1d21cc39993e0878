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
use crate::memtrace::{self, MemTracer, TraceAgg};
use crate::votes::{all_decided, BitSlicedVotes, Counts, VoteAccumulator, VotePolicy};
use rfx_core::footprint::LayoutFootprint;
use rfx_core::pack::{PackError, PackPlan};
use rfx_core::{Label, TreeEnsemble};
use rfx_forest::dataset::QueryView;
use rfx_telemetry::{Counter, Telemetry};
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The unified batch-inference interface: predict a whole query batch
/// into a caller-provided slice, allocation-free on the output path.
/// Object-safe, so executor pools can hold `Box<dyn Predictor>`.
pub trait Predictor: Send + Sync {
    /// Predicts every row of `queries` into `out`.
    ///
    /// # Panics
    /// If `out.len() != queries.num_rows()`, or if the rows are narrower
    /// than the forest reads (`queries.num_features()` below the source's
    /// [`TreeEnsemble::num_features`]; the message names both widths).
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

/// One core's L2 (`lscpu` on the reference box: 2 × 2 MiB): the footprint
/// past which `walk_tile`'s sweep prefetches ([`sweep_prefetches`]).
const L2_CORE_BYTES: usize = 2 << 20;

/// Whether `walk_tile`'s sweep prefetches each lane's next node over a
/// source of this footprint: only once it outgrows one core's L2. On an
/// L2-resident forest a hint has no miss to hide and only its cost
/// shows — hier read 0.84× with it on the ledger's `batch-shallow`
/// layouts, all at most 1.17 MB — while on every layout past the cut
/// (3.3–28 MB there) each pass ran 1.11–1.46× faster end to end
/// (DESIGN §11).
fn sweep_prefetches(footprint: &LayoutFootprint) -> bool {
    footprint.total() > L2_CORE_BYTES
}

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
    /// blocks default to `DEFAULT_QUERY_BLOCK` (64) rows but shrink when the
    /// batch is too small to occupy every thread, threads are capped so
    /// each gets at least `MIN_ROW_TREES_PER_THREAD` (6400) traversals (a
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
    /// reduces votes with `policy`: bit-sliced reduction or early-exit
    /// traversal with footprint-driven tiling.
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

    /// Whether the tile kernel's sweep prefetches each lane's next node:
    /// whether the source's footprint exceeds one core's L2.
    pub fn prefetches(&self) -> bool {
        sweep_prefetches(&self.footprint)
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
    /// Whether the pointer sweep prefetches ([`sweep_prefetches`]).
    prefetch: bool,
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
        let Tiling { qb, nc, n_trees, stride, seams: _, prefetch } = self;
        Tiling { qb, nc, n_trees, stride, seams, prefetch }
    }
}

/// Lane accounting of [`walk_tile`]: walks finished, `step` calls made
/// and sweeps over the [`SWEEP_LANES`]-wide lane array in the pointer
/// phase, and lockstep trips through a complete top (each one level of a
/// [`TOP_GROUP`]-wide group), counted in participant-local integers — a
/// tile's walks at once, a group's trips at once, a sweep's steps at its
/// start.
#[derive(Default)]
struct WalkStats {
    walks: u64,
    steps: u64,
    sweeps: u64,
    trips: u64,
}

/// The engine's counters in one telemetry domain. Registering by name
/// takes the registry's lock and allocates, so a thread looks them up
/// once per domain ([`KernelCounters::current`]) and records through
/// the handles from then on.
///
/// Per batch, the calling thread counts `kernels.sharded.{batches,
/// shards,blocks,tiles}`, and `offers_unanswered` when a batch offered
/// to helpers got none; each participant adds what it counted once,
/// after its last block: `walks`, `steps`, `sweeps`, `trips`, and for a
/// helper `blocks_helped` and `helpers`. Between them the answer to
/// "why was this batch's traverse stage slow": `steps / walks` is the
/// mean pointer-phase depth, `steps / (sweeps × SWEEP_LANES)` the
/// pointer phase's lane occupancy (deep paths below the top, or too few
/// (tree, row) pairs to fill the lanes), and `blocks_helped / blocks`
/// the share helpers ran (nobody came to help). The tiles the memory
/// tracer walks add their walks and steps (a traced walk steps through a
/// complete top too) but no sweeps or trips, so the lane occupancy holds
/// only with the tracer off.
struct KernelCounters {
    domain: Telemetry,
    batches: Arc<Counter>,
    shards: Arc<Counter>,
    blocks: Arc<Counter>,
    tiles: Arc<Counter>,
    walks: Arc<Counter>,
    steps: Arc<Counter>,
    sweeps: Arc<Counter>,
    trips: Arc<Counter>,
    blocks_helped: Arc<Counter>,
    helpers: Arc<Counter>,
    offers_unanswered: Arc<Counter>,
    /// `kernels.votes.*`, registered by the domain's first batch under a
    /// non-exact [`VotePolicy`], so exact deployments' metric exports
    /// carry none of them.
    votes: OnceLock<[Arc<Counter>; 3]>,
}

thread_local! {
    /// The counters of the domain this thread last ran a batch in.
    static COUNTERS: RefCell<Option<Arc<KernelCounters>>> = const { RefCell::new(None) };
}

impl KernelCounters {
    /// The counters of the thread's ambient domain
    /// ([`rfx_telemetry::current`]), registered on the thread's first
    /// batch there. Helpers have no ambient domain: they record through
    /// the handles the calling thread resolved.
    fn current() -> Arc<KernelCounters> {
        let tel = rfx_telemetry::current();
        COUNTERS.with_borrow_mut(|cached| match cached {
            Some(counters) if std::ptr::eq(counters.domain.registry(), tel.registry()) => {
                Arc::clone(counters)
            }
            _ => {
                let counter = |name: &str| tel.counter(&format!("kernels.sharded.{name}"));
                Arc::clone(cached.insert(Arc::new(KernelCounters {
                    batches: counter("batches"),
                    shards: counter("shards"),
                    blocks: counter("blocks"),
                    tiles: counter("tiles"),
                    walks: counter("walks"),
                    steps: counter("steps"),
                    sweeps: counter("sweeps"),
                    trips: counter("trips"),
                    blocks_helped: counter("blocks_helped"),
                    helpers: counter("helpers"),
                    offers_unanswered: counter("offers_unanswered"),
                    votes: OnceLock::new(),
                    domain: tel.clone(),
                })))
            }
        })
    }

    /// `kernels.votes.{shards_skipped,blocks_exited,popcount_reductions}`.
    fn votes(&self) -> &[Arc<Counter>; 3] {
        self.votes.get_or_init(|| {
            ["shards_skipped", "blocks_exited", "popcount_reductions"]
                .map(|name| self.domain.counter(&format!("kernels.votes.{name}")))
        })
    }
}

/// Per-batch observers every participant reports to. Cloning shares
/// them: a crew job keeps a clone for its helpers.
#[derive(Clone)]
struct BatchCtx {
    counters: Arc<KernelCounters>,
    /// The batch-wide memory-trace accumulator the tile loop samples
    /// into, `None` while the tracer is off (see [`crate::memtrace`]).
    mem: Option<Arc<TraceAgg>>,
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
    /// What both entry points do around a batch's blocks: plan it, count
    /// it, run a one-thread plan on the caller with nobody invited, and
    /// export what the memory tracer sampled. `fan_out` is called only
    /// for a plan of two or more threads, must leave every label in
    /// `out`, and says whether a helper ran any block. The batch's shape
    /// is checked first, on the calling thread, before any helper is
    /// offered work.
    fn execute(
        &self,
        queries: QueryView<'_>,
        out: &mut [Label],
        fan_out: impl FnOnce(Launch<'_>, &mut [Label]) -> bool,
    ) {
        let n = queries.num_rows();
        assert_eq!(out.len(), n, "output slice must match query batch");
        check_width(queries, self.source.num_features());
        let plan = self.plan_for(n);
        let tiling = Tiling {
            qb: plan.query_block(),
            nc: self.source.num_classes().max(1) as usize,
            n_trees: self.source.num_trees(),
            stride: plan.shard_trees(),
            seams: self.shard_bounds_for_run(),
            prefetch: self.prefetches(),
        };
        let blocks = n.div_ceil(tiling.qb);
        let counters = KernelCounters::current();
        let shards = tiling.shards() as u64;
        counters.batches.inc();
        counters.shards.add(shards);
        counters.blocks.add(blocks as u64);
        counters.tiles.add(shards * blocks as u64);
        let mem = memtrace::sample_every()
            .map(|every| Arc::new(TraceAgg::new(queries.num_features(), every)));
        let ctx = BatchCtx { counters, mem };
        let helpers = plan.threads() - 1;
        let launch = Launch { tiling, policy: plan.vote_policy(), blocks, helpers, ctx: &ctx };
        if n > 0 && helpers == 0 {
            let alone = Fanout::new(blocks);
            launch.batch(&self.source, queries, &alone).lead(out);
        } else if n > 0 && !fan_out(launch, out) {
            ctx.counters.offers_unanswered.inc();
        }
        if let Some(mem) = &ctx.mem {
            let (mut perf, sampled_tiles) = mem.finish();
            // The plan's thread budget as a fraction of the machine —
            // the CPU analogue of the simulators' occupancy gauges.
            perf.occupancy = (plan.threads() as f64 / available_threads().max(1) as f64).min(1.0);
            let tel = &ctx.counters.domain;
            perf.export(tel, "kernels");
            tel.counter("kernels.memtrace.sampled_tiles").add(sampled_tiles);
        }
    }
}

impl<E: TreeEnsemble> Predictor for ShardedEngine<E> {
    /// Helpers are scoped threads, one fewer than the plan's threads:
    /// the source and the rows are borrowed, so nothing that outlives the
    /// call may touch them.
    fn predict_into(&self, queries: QueryView<'_>, out: &mut [Label]) {
        self.execute(queries, out, |launch, out| {
            let fanout = Fanout::new(launch.blocks);
            let batch = launch.batch(&self.source, queries, &fanout);
            std::thread::scope(|scope| {
                for _ in 0..launch.helpers {
                    scope.spawn(|| batch.help());
                }
                batch.lead(out);
                batch.settle(out)
            })
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
    /// If `out.len() != queries.num_rows()`, or if the rows are narrower
    /// than the forest reads (the message names both widths) — both
    /// before any helper is offered work; and a panic on a helper is
    /// re-raised here, on the calling thread.
    pub fn predict_into_shared(&self, queries: QueryView<'_>, out: &mut [Label]) {
        self.execute(queries, out, |launch, out| {
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
            batch.settle(out)
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
        check_width(queries, self.source.num_features());
        if n == 0 {
            return;
        }
        let tel = rfx_telemetry::current();
        let _span = rfx_telemetry::span!(tel, "kernels.cpu.traverse", rows = out.len());
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
                    votes[source.predict_tree(t, query) as usize] += 1;
                }
                *slot = rfx_core::majority(&votes);
            }
        });
    }
}

/// Refuses rows narrower than the forest reads, naming both widths: a
/// walk would otherwise index past its row, or into the next one.
fn check_width(queries: QueryView<'_>, forest_features: usize) {
    let width = queries.num_features();
    assert!(
        width >= forest_features,
        "query rows have {width} features, the forest reads {forest_features}"
    );
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

/// One batch as each of its participants sees it: the (query block ×
/// tree shard) tiling, and the [`Fanout`] its blocks are claimed from.
/// Within a block, shards are walked outermost so a shard's nodes stay
/// hot in cache across every row of the block, each tile's (tree, row)
/// pairs going through the [`walk_tile`] kernel; a final pass reduces
/// each row's votes to its majority label. While the memory tracer is
/// on, every Nth tile of the batch — counted by the tile's own index
/// `block × shards + shard`, so the sample does not depend on who
/// claimed which block — is walked with the participant's cache model
/// for a sink (see [`crate::memtrace`]).
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
    /// This participant's cache model, while the tracer is on.
    tracer: Option<MemTracer>,
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
    /// the labels helpers handed back where they belong in `out`. Says
    /// whether any helper ran a block.
    fn settle(&self, out: &mut [Label]) -> bool {
        let qb = self.tiling.qb;
        let handed_back = self.fanout.settle();
        let helped = !handed_back.is_empty();
        for back in handed_back {
            let mut labels = &back.labels[..];
            for block in back.blocks {
                let slot = &mut out[block * qb..];
                let (mine, rest) = labels.split_at(qb.min(slot.len()));
                slot[..mine.len()].copy_from_slice(mine);
                labels = rest;
            }
        }
        helped
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
            tracer: self.ctx.mem.as_ref().map(|mem| mem.tracer()),
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
        let counters = &self.ctx.counters;
        counters.walks.add(me.lanes.walks);
        counters.steps.add(me.lanes.steps);
        counters.sweeps.add(me.lanes.sweeps);
        counters.trips.add(me.lanes.trips);
        if helper {
            counters.blocks_helped.add(me.blocks);
            counters.helpers.inc();
        }
        if self.policy != VotePolicy::Exact {
            let [skipped, exited, flushes] = counters.votes();
            skipped.add(me.skipped);
            exited.add(me.exited);
            flushes.add(acc.flushes());
        }
        if let (Some(mem), Some(tracer)) = (&self.ctx.mem, &me.tracer) {
            mem.merge(tracer);
        }
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
            let traced = match &mut me.tracer {
                Some(tracer) if tracer.samples((block * shards + shard) as u64) => {
                    let tile = (shard_lo, shard_hi);
                    me.lanes.walks += ((shard_hi - shard_lo) * len) as u64;
                    me.lanes.steps +=
                        trace_tile(source, queries, block_start, len, tile, tracer, acc);
                    true
                }
                _ => false,
            };
            let mut lo = shard_lo;
            while !traced && lo < shard_hi {
                let hi = shard_hi.min(lo.saturating_add(acc.room()));
                let report = |t: usize, row, label| acc.vote(row, t - lo, label);
                let (tile, lanes) = ((lo, hi), &mut me.lanes);
                // One kernel per side of the prefetch rule, so the
                // L2-resident side carries no test of it per step.
                if tiling.prefetch {
                    walk_tile::<true, _, _>(source, queries, block_start, len, tile, lanes, report);
                } else {
                    walk_tile::<false, _, _>(
                        source,
                        queries,
                        block_start,
                        len,
                        tile,
                        lanes,
                        report,
                    );
                }
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

/// A tile of the memory tracer's sample, walked one (tree, row) pair at
/// a time with `tracer` for the sink; returns the `step` calls its walks
/// made (it has no lanes, so no sweeps or trips). Out of line and cold:
/// while the tracer is off it never runs, and the tile loop compiles as
/// the lanes alone.
#[cold]
#[inline(never)]
fn trace_tile<E: TreeEnsemble, A: VoteAccumulator>(
    source: &E,
    queries: QueryView<'_>,
    block_start: usize,
    len: usize,
    (tree_lo, tree_hi): (usize, usize),
    tracer: &mut MemTracer,
    acc: &mut A,
) -> u64 {
    tracer.begin_tile();
    let mut steps = 0;
    for t in tree_lo..tree_hi {
        for i in 0..len {
            let (row, query) = (block_start + i, queries.row(block_start + i));
            tracer.begin_row(row);
            let label = rfx_core::walk(source.root(t), |cursor| {
                steps += 1;
                source.step_with(cursor, query, tracer)
            });
            acc.vote(i, 0, label);
        }
        acc.advance(1);
    }
    tracer.end_tile();
    steps
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
/// the sweep that chose both widths. That sweep predates the prefetch
/// one sweep ahead ([`walk_tile`]), which gives each lane's load the
/// rest of the sweep to arrive in; the width was not re-tuned with it.
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
///
/// With `PREFETCH` set ([`sweep_prefetches`]), a lane that stepped to
/// another node, or left the top for the stream, asks for that node
/// ([`TreeEnsemble::prefetch`]) as soon as its address is known: its load
/// then has the rest of the sweep to arrive — up to [`SWEEP_LANES`]
/// steps of other lanes — before the lane is stepped again. The hint
/// changes no label and no lane count.
#[inline]
fn walk_tile<const PREFETCH: bool, E: TreeEnsemble, R: FnMut(usize, usize, Label)>(
    source: &E,
    queries: QueryView<'_>,
    block_start: usize,
    len: usize,
    (tree_lo, tree_hi): (usize, usize),
    stats: &mut WalkStats,
    mut report: R,
) {
    stats.walks += ((tree_hi - tree_lo) * len) as u64;
    let levels = source.top_levels();
    if levels == 0 {
        let mut pairs = (tree_lo..tree_hi).flat_map(|tree| (0..len).map(move |row| (tree, row)));
        let start = |(tree, row): (usize, usize)| Lane {
            cursor: source.root(tree),
            tree,
            row,
            query: queries.row(block_start + row),
        };
        return step_lanes::<PREFETCH, _, _>(source, stats, &mut report, |_| {
            pairs.next().map(start)
        });
    }
    let mut trips = 0;
    let counted = &mut trips;
    let (mut next_tree, mut next_row) = (tree_lo, 0);
    // Lanes of the last group that left the top for the pointer phase.
    let mut entered: [Option<Lane<'_, E::Cursor>>; TOP_GROUP] = [None; TOP_GROUP];
    let (mut taken, mut filled) = (0, 0);
    step_lanes::<PREFETCH, _, _>(source, stats, &mut report, move |report| loop {
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
        *counted += u64::from(levels);
        (taken, filled) = (0, 0);
        for (w, &(tree, row)) in group[..n].iter().enumerate() {
            match source.top_exit(at[w]) {
                Ok(label) => report(tree, row, label),
                Err(cursor) => {
                    if PREFETCH {
                        source.prefetch(&cursor);
                    }
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
/// `next` (which may report walks of its own that never need a lane),
/// and with `PREFETCH` set asking for each stepped lane's next node.
#[inline]
fn step_lanes<'q, const PREFETCH: bool, E: TreeEnsemble, R: FnMut(usize, usize, Label)>(
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
        // Each pass below either advances `i` or retires a lane, so a
        // sweep steps exactly the lanes live at its start.
        stats.sweeps += 1;
        stats.steps += live as u64;
        let mut i = 0;
        while i < live {
            let lane = &mut lanes[i];
            let Some(label) = source.step(&mut lane.cursor, lane.query) else {
                if PREFETCH {
                    source.prefetch(&lane.cursor);
                }
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
    use rfx_core::memprobe::FetchSink;
    use rfx_core::pack::{PackedFilForest, PackedQFilForest};
    use rfx_core::{FilForest, HierConfig, NodeVecCursor, QFilForest};
    use rfx_forest::{DecisionTree, Node, RandomForest};

    fn fixture(n_trees: usize, seed: u64) -> (RandomForest, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..n_trees).map(|_| DecisionTree::random(&mut rng, 8, 6, 4, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 6, 4).unwrap();
        let queries: Vec<f32> = (0..300 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    /// `n_trees` ragged depth-16 trees over [`fixture`]'s six features
    /// and four classes, about 60 k nodes each: three of them outgrow one
    /// core's L2 as a node vector (3 MB) or flat FIL (2.3 MB).
    fn deep_fixture(n_trees: usize, seed: u64) -> RandomForest {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = (0..n_trees).map(|_| DecisionTree::random(&mut rng, 16, 6, 4, 0.05)).collect();
        RandomForest::from_trees(trees, 6, 4).unwrap()
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

    /// `predict_tree` is `loop { step }`: a node-vector cursor walked by hand
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
                assert_eq!(label, TreeEnsemble::predict_tree(&forest, t, q));
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
        fn num_features(&self) -> usize {
            self.0.num_features()
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
    /// flag can only be raised by a helper that really ran a block; and
    /// the helper raises it only once the waiting thread has reached the
    /// tree, so it cannot have run every block either.
    struct Marked {
        forest: RandomForest,
        tree: usize,
        panics: bool,
        waits: Option<std::thread::ThreadId>,
        /// `(reached, raised)` and their signal.
        flag: (std::sync::Mutex<(bool, bool)>, std::sync::Condvar),
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
        /// The tree a walk is in, beside the node-vector cursor.
        type Cursor = (usize, NodeVecCursor);
        type TopSlot = ();
        fn num_trees(&self) -> usize {
            self.forest.num_trees()
        }
        fn num_classes(&self) -> u32 {
            self.forest.num_classes()
        }
        fn num_features(&self) -> usize {
            self.forest.num_features()
        }
        fn footprint(&self) -> LayoutFootprint {
            TreeEnsemble::footprint(&self.forest)
        }
        fn root(&self, t: usize) -> (usize, NodeVecCursor) {
            (t, self.forest.root(t))
        }
        fn step_with<S: FetchSink + ?Sized>(
            &self,
            (tree, cursor): &mut (usize, NodeVecCursor),
            query: &[f32],
            sink: &mut S,
        ) -> Option<Label> {
            if *tree == self.tree {
                let (flag, signal) = &self.flag;
                let mut state = flag.lock().unwrap();
                if self.waits == Some(std::thread::current().id()) {
                    state.0 = true;
                    signal.notify_all();
                    while !state.1 {
                        state = signal.wait(state).unwrap();
                    }
                } else {
                    while self.waits.is_some() && !state.0 {
                        state = signal.wait(state).unwrap();
                    }
                    state.1 = true;
                    signal.notify_all();
                    drop(state);
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

    /// Runs `pass` in a fresh scoped telemetry domain and returns the
    /// domain's metrics.
    fn scoped_run(pass: impl FnOnce()) -> rfx_telemetry::MetricsSnapshot {
        let tel = rfx_telemetry::Telemetry::new();
        {
            let root = tel.start_span("test.pass");
            let _scope = tel.in_context(root.context());
            pass();
        }
        tel.metrics_snapshot()
    }

    /// `kernels.sharded.{name}` for each of `names`.
    fn sharded<const N: usize>(
        metrics: &rfx_telemetry::MetricsSnapshot,
        names: [&str; N],
    ) -> [Option<u64>; N] {
        names.map(|name| metrics.counter(&format!("kernels.sharded.{name}")))
    }

    /// Whether the lanes walk every tile: with the memory tracer on (the
    /// environment sets `RFX_MEMTRACE_SAMPLE`) its sampled tiles are
    /// walked by `trace_tile` instead, which counts walks and steps but
    /// no sweeps or trips, and steps through a complete top.
    fn lanes_walk_every_tile() -> bool {
        memtrace::sample_every().is_none()
    }

    /// Early exit is decided block by block, so what the participants
    /// count between them — shards skipped, blocks that skipped them —
    /// cannot depend on how many there were or who claimed what.
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
            let metrics = scoped_run(|| match owned {
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
        // Exact batches register no vote counters.
        let metrics = scoped_run(|| drop(ShardedEngine::new(&*forest).predict(qv)));
        assert!(metrics.counters.iter().all(|(name, _)| !name.starts_with("kernels.votes.")));
    }

    /// Who ran the blocks, in the counters: an inline plan offers
    /// nothing, an offer the held crew cannot answer counts as
    /// unanswered, and a helper that came is counted with its blocks.
    #[test]
    fn the_counters_say_who_ran_the_blocks() {
        let (forest, queries) = fixture(9, 47);
        let queries: Arc<[f32]> = queries[..64 * 6].into();
        let qv = QueryView::new(&queries, 6).unwrap();
        let reference = forest.predict_batch(qv);
        let who = ["blocks", "helpers", "blocks_helped", "offers_unanswered"];
        let shared = Arc::new(forest.clone());
        let mut out = vec![0; 64];

        let one = two_thread_plan().to_builder().threads(1).build().unwrap();
        let engine = ShardedEngine::with_plan(Arc::clone(&shared), one);
        let metrics = scoped_run(|| engine.predict_into_shared(qv, &mut out));
        assert_eq!(sharded(&metrics, who), [8, 0, 0, 0].map(Some));

        let engine = ShardedEngine::with_plan(Arc::clone(&shared), two_thread_plan());
        let held = crate::fanout::tests::hold_the_crew();
        let metrics = scoped_run(|| engine.predict_into_shared(qv, &mut out));
        drop(held);
        assert_eq!(out, reference);
        assert_eq!(sharded(&metrics, who), [8, 0, 0, 1].map(Some));

        // The caller stands at the marked tree until the scoped helper
        // has stepped it, and the helper there until the caller has come,
        // so each of them ran at least one of the eight blocks.
        let metrics = within_the_watchdog(move || {
            let waits = Some(std::thread::current().id());
            let engine =
                ShardedEngine::with_plan(Marked::new(forest, false, waits), two_thread_plan());
            let mut out = vec![0; 64];
            let qv = QueryView::new(&queries, 6).unwrap();
            scoped_run(|| engine.predict_into(qv, &mut out))
        });
        let [blocks, helpers, helped, unanswered] = sharded(&metrics, who).map(Option::unwrap);
        assert!((1..8).contains(&helped), "the helper ran {helped} of 8 blocks");
        assert_eq!((blocks, helpers, unanswered), (8, 1, 0));
        // Walk counts add up across participants, traced tiles included.
        assert_eq!(metrics.counter("kernels.sharded.walks"), Some(64 * 9));
    }

    /// Levels walked by every (tree, row) pair of `forest` over `qv`.
    fn levels_walked(forest: &RandomForest, qv: QueryView<'_>) -> u64 {
        (0..qv.num_rows())
            .map(|r| {
                let q = qv.row(r);
                (0..forest.num_trees())
                    .map(|t| {
                        let (mut cursor, mut n) = (forest.root(t), 1);
                        while forest.step(&mut cursor, q).is_none() {
                            n += 1;
                        }
                        n
                    })
                    .sum::<u64>()
            })
            .sum()
    }

    /// [`walk_tile`] over every pair of `source`'s trees × `qv`'s rows,
    /// with the sweep's prefetch and without: the same votes in the same
    /// order, and the same walks, steps, sweeps and trips.
    fn assert_prefetch_is_only_a_hint<E: TreeEnsemble>(name: &str, source: &E, qv: QueryView<'_>) {
        type Tile = (Vec<(usize, usize, Label)>, [u64; 4]);
        fn run<const PREFETCH: bool, E: TreeEnsemble>(source: &E, qv: QueryView<'_>) -> Tile {
            let (mut stats, mut votes) = (WalkStats::default(), Vec::new());
            let (trees, rows) = ((0, source.num_trees()), qv.num_rows());
            walk_tile::<PREFETCH, _, _>(source, qv, 0, rows, trees, &mut stats, |t, row, label| {
                votes.push((t, row, label))
            });
            (votes, [stats.walks, stats.steps, stats.sweeps, stats.trips])
        }
        assert_eq!(run::<true, _>(source, qv), run::<false, _>(source, qv), "{name}");
    }

    /// Lane accounting: every (tree, row) pair is one walk, a step is
    /// one level of one walk, and `steps / (sweeps × SWEEP_LANES)` says
    /// how full the lanes were — near 1 on a block of many rows, far
    /// below it when one row meets one-tree shards (a single walk per
    /// tile). The same holds past one core's L2, where the sweep
    /// prefetches: the hint changes no count, in any layout.
    #[test]
    fn lane_counters_account_for_every_walk_and_step() {
        if !lanes_walk_every_tile() {
            return;
        }
        let (small, queries) = fixture(9, 41);
        let big = deep_fixture(3, 41);
        let qv = QueryView::new(&queries, 6).unwrap();
        let lanes = |engine: &ShardedEngine<&RandomForest>, qv: QueryView<'_>| {
            let mut out = vec![0; qv.num_rows()];
            let metrics = scoped_run(|| engine.predict_into(qv, &mut out));
            let [walks, steps, sweeps] =
                sharded(&metrics, ["walks", "steps", "sweeps"]).map(Option::unwrap);
            (walks, steps, sweeps, steps as f64 / (sweeps * SWEEP_LANES as u64) as f64)
        };
        for (forest, prefetches) in [(&small, false), (&big, true)] {
            let n_trees = forest.num_trees() as u64;
            let levels = levels_walked(forest, qv);
            assert_eq!(ShardedEngine::new(forest).prefetches(), prefetches, "{n_trees} trees");
            for policy in [VotePolicy::Exact, VotePolicy::BitSliced] {
                // One tile of every pair.
                let plan = EnginePlan::builder()
                    .shard_trees(forest.num_trees())
                    .query_block(300)
                    .threads(1)
                    .vote_policy(policy)
                    .build()
                    .unwrap();
                let (walks, steps, sweeps, full) =
                    lanes(&ShardedEngine::with_plan(forest, plan), qv);
                assert_eq!((walks, steps), (300 * n_trees, levels), "{policy}");
                assert!(sweeps * SWEEP_LANES as u64 >= levels && sweeps < levels, "{policy}");
                assert!(full > 0.9, "{policy}: 300-row blocks keep the lanes full, got {full}");
            }
            // One row, one tree per shard: every tile is a lone walk.
            let plan = EnginePlan::builder().shard_trees(1).build().unwrap();
            let one_row = QueryView::new(&queries[..6], 6).unwrap();
            let (walks, steps, sweeps, starved) =
                lanes(&ShardedEngine::with_plan(forest, plan), one_row);
            assert_eq!(walks, n_trees);
            assert_eq!(steps, sweeps);
            assert_eq!(starved, 1.0 / SWEEP_LANES as f64);
        }
        let profile = rfx_core::pack::FrequencyProfile::uniform(&big);
        let packed = PackedFilForest::build(&big, &profile, PackPlan::default()).unwrap();
        assert!(packed.top_levels() > 0, "walks leave a top for the stream");
        assert_prefetch_is_only_a_hint("forest", &big, qv);
        assert_prefetch_is_only_a_hint(
            "hier",
            &build_forest(&big, HierConfig::uniform(3)).unwrap(),
            qv,
        );
        assert_prefetch_is_only_a_hint("fil", &FilForest::build(&big), qv);
        assert_prefetch_is_only_a_hint("qfil-u8", &QFilForest::<u8>::build(&big).unwrap(), qv);
        assert_prefetch_is_only_a_hint("packed-fil", &packed, qv);
    }

    /// The prefetch rule at its cut: a footprint of exactly one core's L2
    /// leaves the sweep's hint off, one byte more turns it on.
    #[test]
    fn the_sweep_prefetches_only_past_one_cores_l2() {
        let at_cut = LayoutFootprint {
            attribute_bytes: L2_CORE_BYTES - 8,
            topology_bytes: 4,
            index_bytes: 4,
        };
        assert!(!sweep_prefetches(&at_cut));
        assert!(sweep_prefetches(&LayoutFootprint { index_bytes: 5, ..at_cut }));
        assert!(!sweep_prefetches(&LayoutFootprint::default()));
    }

    /// Rows narrower than the forest reads are refused on the calling
    /// thread, with both widths in the message: by either entry point
    /// before the batch is counted or any helper is offered work, and by
    /// [`RowParallel`]. The crew then serves the next batch.
    #[test]
    fn narrower_rows_panic_on_the_caller_naming_both_widths() {
        use crate::fanout::times_this_thread_reached_for_the_crew as reached;
        let (forest, queries) = fixture(9, 53);
        within_the_watchdog(move || {
            let wide = QueryView::new(&queries[..64 * 6], 6).unwrap();
            let narrow = QueryView::new(&queries[..64 * 5], 5).unwrap();
            let reference = forest.predict_batch(wide);
            let engine = ShardedEngine::with_plan(Arc::new(forest), two_thread_plan());
            let row_parallel = RowParallel::new(engine.source());
            type Entry<'e> = Box<dyn Fn(QueryView<'_>, &mut [Label]) + 'e>;
            let entries: [(&str, Entry<'_>); 3] = [
                ("borrowed", Box::new(|qv, out| engine.predict_into(qv, out))),
                ("owned", Box::new(|qv, out| engine.predict_into_shared(qv, out))),
                ("row-parallel", Box::new(|qv, out| row_parallel.predict_into(qv, out))),
            ];
            for (name, entry) in &entries {
                let before = reached();
                let mut out = vec![0; 64];
                let metrics = scoped_run(|| {
                    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        entry(narrow, &mut out)
                    }))
                    .unwrap_err();
                    let message = refused.downcast_ref::<String>().expect("a formatted message");
                    assert!(
                        message.contains("5 features") && message.contains("reads 6"),
                        "{message}"
                    );
                });
                assert_eq!(reached(), before, "{name}: the crew was offered the batch");
                assert_eq!(metrics.counter("kernels.sharded.batches"), None, "{name}: counted");
                let mut out = vec![0; 64];
                entry(wide, &mut out);
                assert_eq!(out, reference, "{name}: the batch after the refusal");
            }
        });
    }

    /// A complete top is walked in lockstep trips, not steps: a packed
    /// forest no deeper than its top never reaches the pointer phase, so
    /// it counts no steps or sweeps — lane occupancy describes that
    /// phase alone.
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
        let metrics = scoped_run(|| engine.predict_into(qv, &mut out));
        assert_eq!(out, forest.predict_batch(qv));
        let groups = 2700usize.div_ceil(TOP_GROUP) as u64;
        if lanes_walk_every_tile() {
            assert_eq!(
                sharded(&metrics, ["walks", "trips", "steps", "sweeps"]),
                [2700, groups * 3, 0, 0].map(Some)
            );
        }
    }

    /// The tracer's off state, which this test binary runs in unless the
    /// environment sets `RFX_MEMTRACE_SAMPLE` (the traced runs are in
    /// `tests/memtrace_*.rs`): no `kernels.perf.*` series, because no
    /// batch builds an accumulator, a tracer or a traced walk. Set, the
    /// series must be there instead.
    #[test]
    fn no_perf_series_while_the_tracer_is_off() {
        let on = memtrace::sample_every().is_some();
        let (forest, queries) = fixture(9, 41);
        let qv = QueryView::new(&queries, 6).unwrap();
        let fil = FilForest::build(&forest);
        let metrics = scoped_run(|| drop(ShardedEngine::new(&fil).predict(qv)));
        let perf = metrics.counters.iter().any(|(name, _)| name.starts_with("kernels.perf."));
        assert_eq!(perf, on, "kernels.perf.* series exactly while the tracer is on");
        assert_eq!(metrics.counter("kernels.memtrace.sampled_tiles").is_some(), on);
        if !on {
            assert_eq!(metrics.counter("kernels.sharded.walks"), Some(300 * 9));
        }
    }
}
