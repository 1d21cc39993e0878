//! The execution engine's one oracle table, shared by every oracle test
//! file of this crate. [`check_every_layout`] builds the table's nine
//! layout rows from one forest — forest, hier, fil, blocks, qfil-u8,
//! qfil-u16, packed-fil, packed-qfil-u8, packed-qfil-u16 — and holds each
//! to `predict_reference`: over the source forest for the exact layouts,
//! and over the **snapped** forest (thresholds moved onto the quantized
//! grid) for the quantized ones, whose only approximation is the snap
//! itself. Each row runs through both entry points — `predict_into`
//! (borrowed source, scoped helpers) and `predict_into_shared` (owned
//! source, the parked crew) — and the row-parallel baseline, under one
//! of two plan sweeps: a drawn [`Case`]'s pinned plan (once more with
//! `.pack(..)` on the packed rows) and the auto plan, or the kernel-edge
//! grid below. A new layout, policy or plan is one line here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::hier::builder::build_forest;
use rfx_core::pack::{FrequencyProfile, PackPlan, PackedFilForest, PackedQFilForest};
use rfx_core::{BlockForest, FilForest, HierConfig, QFilForest};
use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, Node, RandomForest};
use rfx_kernels::cpu::predict_reference;
use rfx_kernels::{EnginePlan, Predictor, RowParallel, ShardedEngine, TreeEnsemble, VotePolicy};
use std::sync::Arc;

pub const NF: usize = 7;

/// The forest kind whose first `k` trees vote class 1 and next `k` trees
/// class 0, `k` being the case's `shard_trees`: at the first seam every
/// row's lead equals `runner + remaining`, the one tally early exit
/// must not take as decided (the tie goes to the lower class id).
pub const SEAM_TIE: usize = 3;

/// One drawn case. `forest_kind` is 0 for ordinary random trees
/// (trained-forest-like vote agreement, so early exit fires); 1 for
/// constant-leaf trees cycling the class ids, so every row's tally is as
/// flat as the tree count allows and the lower-class-id tie rule alone
/// decides (early exit must never fire); 2 for a tied half plus shallow
/// random trees, so leads hover around the remaining-tree exit threshold;
/// [`SEAM_TIE`] for `2 × shard_trees` leaves (its `n_trees` and `depth`
/// unused). Plan fields may be oversized on purpose (they exercise the
/// normalization clamps); `threads == 0` means auto-detect. The packed
/// rows are built under a `budget`-byte shard budget over a profile of
/// `calib_rows` skewed rows (0: the uniform profile); `reverse` stores
/// every tree's children before their parents.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub seed: u64,
    pub forest_kind: usize,
    pub n_trees: usize,
    pub depth: usize,
    pub classes: u32,
    pub n_queries: usize,
    pub shard_trees: usize,
    pub query_block: usize,
    pub threads: usize,
    pub policy: VotePolicy,
    pub budget: usize,
    pub calib_rows: usize,
    pub reverse: bool,
}

impl Case {
    /// Every layout row equals its oracle on this case.
    pub fn check(&self) {
        let forest = self.forest();
        let queries = self.queries();
        let plan = EnginePlan::builder()
            .shard_trees(self.shard_trees)
            .query_block(self.query_block)
            .threads(self.threads)
            .vote_policy(self.policy)
            .build()
            .unwrap();
        let pack = PackPlan::new(self.budget).unwrap();
        let sweep = Sweep { pinned: Some(plan), rows: "", prefetch: None, top_levels: None };
        check_every_layout(&forest, &queries, &self.profile(&forest), pack, sweep);
    }

    /// The case's forest, of its `forest_kind`.
    pub fn forest(&self) -> RandomForest {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (n_trees, classes, k) = match self.forest_kind {
            SEAM_TIE => (2 * self.shard_trees, self.classes.max(2), self.shard_trees),
            _ => (self.n_trees, self.classes, 0),
        };
        let constant = [0, n_trees, n_trees.div_ceil(2), n_trees][self.forest_kind];
        let depth = if constant == 0 { self.depth } else { 3 };
        let trees = (0..n_trees)
            .map(|t| match (t < constant, self.forest_kind) {
                (true, SEAM_TIE) => DecisionTree::leaf(u32::from(t < k)),
                (true, _) => DecisionTree::leaf(t as u32 % classes),
                (false, _) => DecisionTree::random(&mut rng, depth, NF as u16, classes, 0.3),
            })
            .collect();
        let forest = RandomForest::from_trees(trees, NF, classes).unwrap();
        if self.reverse {
            reversed_ids(&forest)
        } else {
            forest
        }
    }

    /// `n_queries` uniform-[0, 1) rows.
    pub fn queries(&self) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xA5A5_5A5A);
        (0..self.n_queries * NF).map(|_| rng.gen()).collect()
    }

    /// The packed rows' profile. Its calibration rows are skewed into the
    /// low end of every feature, unlike the uniform queries, so the hot
    /// paths the profile sees are not the eval batch's: placement
    /// changes, predictions must not.
    pub fn profile(&self, forest: &RandomForest) -> FrequencyProfile {
        if self.calib_rows == 0 {
            return FrequencyProfile::uniform(forest);
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5151);
        let calib: Vec<f32> =
            (0..self.calib_rows * NF).map(|_| rng.gen::<f32>() * rng.gen::<f32>()).collect();
        FrequencyProfile::collect(forest, QueryView::new(&calib, NF).unwrap())
    }
}

/// `forest` with every tree's non-root ids reversed (`i → n − i`), so
/// children are stored before their parents — unlike any tree the
/// trainer grows — and the packer's cold nodes go through its heap
/// instead of its forward sweep.
fn reversed_ids(forest: &RandomForest) -> RandomForest {
    let trees = forest.trees().iter().map(|tree| {
        let n = tree.num_nodes() as u32;
        let new = |i: u32| if i == 0 { 0 } else { n - i };
        let mut nodes = tree.nodes().to_vec();
        for (i, &node) in tree.nodes().iter().enumerate() {
            nodes[new(i as u32) as usize] = match node {
                Node::Inner { feature, threshold, left, right } => {
                    Node::Inner { feature, threshold, left: new(left), right: new(right) }
                }
                leaf => leaf,
            };
        }
        DecisionTree::from_nodes(nodes).unwrap()
    });
    RandomForest::from_trees(trees.collect(), NF, forest.num_classes()).unwrap()
}

/// How [`check_every_layout`] runs its rows.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// A drawn case's pinned plan; `None` sweeps the kernel-edge grid.
    pub pinned: Option<EnginePlan>,
    /// Only the rows whose names start with this run; `""` runs all nine.
    pub rows: &'static str,
    /// Whether the tile kernel's sweep must prefetch over every row.
    pub prefetch: Option<bool>,
    /// The complete top every packed row must hold.
    pub top_levels: Option<u32>,
}

/// The table: every layout row of `forest` against its oracle over the
/// `pool` rows, the packed rows built from `profile` under `pack`.
pub fn check_every_layout(
    forest: &RandomForest,
    pool: &[f32],
    profile: &FrequencyProfile,
    pack: PackPlan,
    sweep: Sweep,
) {
    let qv = QueryView::new(pool, NF).unwrap();
    let exact = predict_reference(forest, qv);
    // A packed row also runs a drawn plan opted into its own seams; a
    // snapped row's oracle is the forest on its own grid (u8 and u16 fit
    // different grids).
    macro_rules! row {
        ($name:literal, $layout:expr) => {
            if $name.starts_with(sweep.rows) {
                let pack = $name.starts_with("packed").then_some(pack);
                check_layout($name, $layout, pack, pool, &exact, sweep);
            }
        };
        ($name:literal, $layout:expr, snapped) => {
            if $name.starts_with(sweep.rows) {
                let layout = $layout;
                let snapped = predict_reference(&layout.quantizer().snap_forest(forest), qv);
                let pack = $name.starts_with("packed").then_some(pack);
                check_layout($name, layout, pack, pool, &snapped, sweep);
            }
        };
    }
    row!("forest", forest.clone());
    row!("hier", build_forest(forest, HierConfig::uniform(3)).unwrap());
    row!("fil", FilForest::build(forest));
    row!("blocks", BlockForest::build(forest).unwrap());
    row!("qfil-u8", QFilForest::<u8>::build(forest).unwrap(), snapped);
    row!("qfil-u16", QFilForest::<u16>::build(forest).unwrap(), snapped);
    row!("packed-fil", PackedFilForest::build(forest, profile, pack).unwrap());
    row!("packed-qfil-u8", PackedQFilForest::<u8>::build(forest, profile, pack).unwrap(), snapped);
    row!(
        "packed-qfil-u16",
        PackedQFilForest::<u16>::build(forest, profile, pack).unwrap(),
        snapped
    );
}

// ---------------------------------------------------------------------------
// The tile kernel's edges, one grid.
//
// The engine walks a tile's (tree, row) pairs at two widths, both private to
// it and mirrored here: a complete top in lockstep groups of `G`
// (`engine::TOP_GROUP`), then a pointer sweep keeping `K` walks in flight
// per thread (`engine::SWEEP_LANES`). Everything that could go wrong with
// that sits at a count on one side of a width or the other: tiles with fewer
// pairs than lanes, exactly as many, one more, a ragged tail; a 64-tree
// popcount window crossed mid-shard; a walk that ends on its first step and
// refills its lane at once; a query value that compares like no other.
//
// The same grid holds the claim loop's edges. A batch's blocks are claimed
// one at a time by the caller and its helpers, through either entry point,
// and what could go wrong sits at a block boundary or a head count: no rows,
// one block, a ragged last block, exactly two blocks, more participants
// invited than blocks or than the box has cores.
// ---------------------------------------------------------------------------

pub const G: usize = 8;
pub const K: usize = 64;
const ROWS: [usize; 9] = [0, 1, G - 1, G, G + 1, K - 1, K, K + 1, 2 * K + 3];
/// Rows per block of the claim-loop axis, and batch sizes around it.
const BLOCK: usize = 64;
const CLAIM_ROWS: [usize; 7] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 4 * BLOCK];
pub const POLICIES: [VotePolicy; 4] = [
    VotePolicy::Exact,
    VotePolicy::BitSliced,
    VotePolicy::EarlyExit { slack: 0 },
    VotePolicy::EarlyExit { slack: 3 },
];

/// The two ways into the engine: helpers scoped to the call, or the
/// process-wide crew.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Borrowed,
    Owned,
}

/// `layout`'s labels through `entry` under `plan`, or under the auto plan
/// with `policy` when `plan` is `None`.
fn predict<E: TreeEnsemble + 'static>(
    entry: Entry,
    layout: &Arc<E>,
    plan: Option<EnginePlan>,
    policy: VotePolicy,
    qv: QueryView<'_>,
) -> Vec<u32> {
    let mut out = vec![u32::MAX; qv.num_rows()];
    match (entry, plan) {
        (Entry::Borrowed, Some(plan)) => {
            ShardedEngine::with_plan(&**layout, plan).predict_into(qv, &mut out)
        }
        (Entry::Borrowed, None) => {
            ShardedEngine::with_policy(&**layout, policy).predict_into(qv, &mut out)
        }
        (Entry::Owned, Some(plan)) => {
            ShardedEngine::with_plan(Arc::clone(layout), plan).predict_into_shared(qv, &mut out)
        }
        (Entry::Owned, None) => {
            ShardedEngine::with_policy(Arc::clone(layout), policy).predict_into_shared(qv, &mut out)
        }
    }
    out
}

/// One row against its oracle: the row-parallel baseline, then both
/// entry points under `sweep`'s plans. `pack` is set on the packed rows.
fn check_layout<E: TreeEnsemble + 'static>(
    name: &str,
    layout: E,
    pack: Option<PackPlan>,
    pool: &[f32],
    oracle: &[u32],
    sweep: Sweep,
) {
    let n_trees = layout.num_trees();
    if let Some(past_l2) = sweep.prefetch {
        assert_eq!(ShardedEngine::new(&layout).prefetches(), past_l2, "{name}: the prefetch rule");
    }
    if let (Some(levels), Some(_)) = (sweep.top_levels, pack) {
        assert_eq!(layout.top_levels(), levels, "{name}: the depth rule");
    }
    let qv = QueryView::new(pool, NF).unwrap();
    assert_eq!(RowParallel::new(&layout).predict(qv), oracle, "{name} row-parallel");
    let layout = Arc::new(layout);
    let pinned = |shard_trees, query_block, threads, policy| {
        EnginePlan::builder()
            .shard_trees(shard_trees)
            .query_block(query_block)
            .threads(threads)
            .vote_policy(policy)
            .build()
            .unwrap()
    };
    for entry in [Entry::Borrowed, Entry::Owned] {
        // A drawn case: its pinned plan, on a packed row once more opted
        // into the layout's byte-aware seams (the uniform stride cuts
        // across them on purpose), and the auto plan, which adopts them.
        if let Some(plan) = sweep.pinned {
            let policy = plan.vote_policy();
            let bounded = pack.map(|pack| plan.to_builder().pack(pack).build().unwrap());
            for plan in [Some(plan), None].into_iter().chain(bounded.map(Some)) {
                let got = predict(entry, &layout, plan, policy, qv);
                assert_eq!(got, oracle, "{name} {entry:?} {policy} {plan:?} (None: auto)");
            }
            continue;
        }
        for policy in POLICIES {
            // The tile kernel's edges.
            for rows in ROWS {
                let qv = QueryView::new(&pool[..rows * NF], NF).unwrap();
                let want = &oracle[..rows];
                for shard_trees in [1, 3, n_trees] {
                    for threads in [1, 2] {
                        // A one-thread plan runs inline whichever entry
                        // point it came through: once is enough.
                        if threads == 1 && matches!(entry, Entry::Owned) {
                            continue;
                        }
                        // One block per thread, so a tile holds `rows` (or
                        // half of them) × `shard_trees` pairs.
                        let block = rows.div_ceil(threads).max(1);
                        let plan = pinned(shard_trees, block, threads, policy);
                        assert_eq!(
                            predict(entry, &layout, Some(plan), policy, qv),
                            want,
                            "{name} {entry:?} {policy} rows={rows} trees={n_trees} \
                             shard_trees={shard_trees} threads={threads}"
                        );
                    }
                }
                assert_eq!(
                    predict(entry, &layout, None, policy, qv),
                    want,
                    "{name} {entry:?} {policy} rows={rows} trees={n_trees} auto plan"
                );
            }
            // The claim loop's edges: three threads invite more helpers
            // than a two-core box has, and than one or two blocks can use.
            for rows in CLAIM_ROWS {
                let qv = QueryView::new(&pool[..rows * NF], NF).unwrap();
                for threads in [1, 2, 3] {
                    let plan = pinned(3, BLOCK, threads, policy);
                    assert_eq!(
                        predict(entry, &layout, Some(plan), policy, qv),
                        &oracle[..rows],
                        "{name} {entry:?} {policy} rows={rows} trees={n_trees} \
                         {BLOCK}-row blocks threads={threads}"
                    );
                }
            }
        }
    }
}
