//! Property test for the sharded execution engine: for *any* random
//! forest, *any* of the four layouts, and *any* plan parameters —
//! including degenerate 1-tree / 1-query shapes — [`ShardedEngine`]
//! predictions must be bit-identical to `predict_reference`. Tiling,
//! sharding, and thread scheduling must be invisible in the results.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::hier::builder::build_forest;
use rfx_core::pack::{FrequencyProfile, PackPlan, PackedFilForest, PackedQFilForest};
use rfx_core::{CsrForest, FilForest, HierConfig, QFilForest};
use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, Node, RandomForest};
use rfx_fpga_sim::{FpgaConfig, Replication};
use rfx_gpu_sim::{GpuConfig, GpuSim};
use rfx_kernels::cpu::predict_reference;
use rfx_kernels::{
    fpga, gpu, EnginePlan, Predictor, RowParallel, ShardedEngine, TreeEnsemble, VotePolicy,
};
use std::sync::Arc;

const NF: usize = 7;

fn forest_from_seed(seed: u64, n_trees: usize, depth: usize, classes: u32) -> RandomForest {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees: Vec<DecisionTree> = (0..n_trees)
        .map(|_| DecisionTree::random(&mut rng, depth, NF as u16, classes, 0.3))
        .collect();
    RandomForest::from_trees(trees, NF, classes).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded predictions equal the serial reference across all four
    /// layouts for any forest shape and any (possibly absurd) plan.
    #[test]
    fn sharded_is_bit_identical_to_reference(
        seed in any::<u64>(),
        n_trees in 1usize..14,
        depth in 1usize..9,
        classes in 1u32..5,
        n_queries in 1usize..120,
        shard_trees in 1usize..20,
        query_block in 1usize..160,
        threads in 0usize..9,
    ) {
        let forest = forest_from_seed(seed, n_trees, depth, classes);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
        let queries: Vec<f32> = (0..n_queries * NF).map(|_| rng.gen()).collect();
        let qv = QueryView::new(&queries, NF).unwrap();
        let reference = predict_reference(&forest, qv);

        // Oversized fields exercise the normalization clamps on purpose
        // (shard_trees/query_block may exceed the forest and batch);
        // threads == 0 means auto-detect.
        let plan = EnginePlan::builder()
            .shard_trees(shard_trees)
            .query_block(query_block)
            .threads(threads)
            .build()
            .unwrap();

        let csr = CsrForest::build(&forest);
        let fil = FilForest::build(&forest);
        let hier = build_forest(&forest, HierConfig::uniform(3)).unwrap();

        prop_assert_eq!(
            ShardedEngine::with_plan(&forest, plan).predict(qv), reference.clone(),
            "forest {:?}", plan
        );
        prop_assert_eq!(
            ShardedEngine::with_plan(&csr, plan).predict(qv), reference.clone(),
            "csr {:?}", plan
        );
        prop_assert_eq!(
            ShardedEngine::with_plan(&fil, plan).predict(qv), reference.clone(),
            "fil {:?}", plan
        );
        prop_assert_eq!(
            ShardedEngine::with_plan(&hier, plan).predict(qv), reference.clone(),
            "hier {:?}", plan
        );

        // Auto-planned engines and the row-parallel baseline agree too.
        prop_assert_eq!(ShardedEngine::new(&hier).predict(qv), reference.clone());
        prop_assert_eq!(RowParallel::new(&forest).predict(qv), reference);
    }
}

// ---------------------------------------------------------------------------
// The tile kernel's edges, one table.
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
// The same table holds the claim loop's edges. A batch's blocks are claimed
// one at a time by the caller and its helpers, through either entry point —
// `predict_into` (borrowed source, scoped helpers) or `predict_into_shared`
// (owned source, the parked crew) — and what could go wrong sits at a block
// boundary or a head count: no rows, one block, a ragged last block, exactly
// two blocks, more participants invited than blocks or than the box has
// cores.
// ---------------------------------------------------------------------------

const G: usize = 8;
const K: usize = 64;
const ROWS: [usize; 9] = [0, 1, G - 1, G, G + 1, K - 1, K, K + 1, 2 * K + 3];
/// Rows the simulated-device kernels are checked on.
const DEVICE_ROWS: usize = 19;
/// Rows per block of the claim-loop axis, and batch sizes around it.
const BLOCK: usize = 64;
const CLAIM_ROWS: [usize; 7] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 4 * BLOCK];
const POOL_ROWS: usize = 4 * BLOCK;
const POLICIES: [VotePolicy; 4] = [
    VotePolicy::Exact,
    VotePolicy::BitSliced,
    VotePolicy::EarlyExit { slack: 0 },
    VotePolicy::EarlyExit { slack: 3 },
];

/// `n_trees` random trees, every fourth one (from the second) replaced by
/// a single leaf: its walk finishes on the first step.
fn forest_with_leaf_trees(seed: u64, n_trees: usize) -> RandomForest {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees: Vec<DecisionTree> = (0..n_trees)
        .map(|i| {
            if i % 4 == 1 {
                DecisionTree::leaf(rng.gen_range(0..3))
            } else {
                DecisionTree::random(&mut rng, 6, NF as u16, 3, 0.3)
            }
        })
        .collect();
    RandomForest::from_trees(trees, NF, 3).unwrap()
}

/// Trees whose thresholds are the values a comparison treats specially,
/// so −0.0, subnormal and infinite queries land on both sides of a node.
fn forest_with_edge_thresholds() -> RandomForest {
    let sub = f32::MIN_POSITIVE / 4.0;
    let chain = |thresholds: [f32; 3], feature: u16| {
        DecisionTree::from_nodes(vec![
            Node::Inner { feature, threshold: thresholds[0], left: 1, right: 2 },
            Node::Leaf { label: 0 },
            Node::Inner { feature: feature + 1, threshold: thresholds[1], left: 3, right: 4 },
            Node::Leaf { label: 1 },
            Node::Inner { feature: feature + 2, threshold: thresholds[2], left: 5, right: 6 },
            Node::Leaf { label: 2 },
            Node::Leaf { label: 0 },
        ])
        .unwrap()
    };
    let trees = vec![
        chain([0.0, -0.0, sub], 0),
        chain([-sub, sub, 0.0], 2),
        chain([f32::MAX, f32::MIN, 0.5], 4),
        chain([-0.0, 0.25, -sub], 1),
    ];
    RandomForest::from_trees(trees, NF, 3).unwrap()
}

/// [`POOL_ROWS`] rows of ordinary values salted with NaN, ±∞, ±0.0 and
/// subnormals, a different feature of every row.
fn hostile_pool(seed: u64) -> Vec<f32> {
    let sub = f32::MIN_POSITIVE / 4.0;
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, sub, -sub, f32::MAX];
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = POOL_ROWS;
    let mut pool: Vec<f32> = (0..rows * NF).map(|_| rng.gen::<f32>() - 0.25).collect();
    for r in 0..rows {
        pool[r * NF + r % NF] = specials[r % specials.len()];
        pool[r * NF + (r + 3) % NF] = specials[(r / 2 + 5) % specials.len()];
    }
    pool
}

/// The two ways into the engine: helpers scoped to the call, or the
/// process-wide crew.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Borrowed,
    Owned,
}

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

/// One layout against its oracle over entry points × policies × rows ×
/// shard_trees × threads, plus the auto plan (which adopts a packed
/// layout's own seams).
fn check_layout<E: TreeEnsemble + 'static>(name: &str, layout: E, pool: &[f32], oracle: &[u32]) {
    let n_trees = layout.num_trees();
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
                    assert_eq!(
                        predict(
                            entry,
                            &layout,
                            Some(pinned(3, BLOCK, threads, policy)),
                            policy,
                            qv
                        ),
                        &oracle[..rows],
                        "{name} {entry:?} {policy} rows={rows} trees={n_trees} \
                         {BLOCK}-row blocks threads={threads}"
                    );
                }
            }
        }
    }
}

/// Every layout of `forest` against `predict_reference` (the snapped
/// oracle for the quantized ones).
fn check_every_layout(forest: &RandomForest, pool: &[f32]) {
    let qv = QueryView::new(pool, NF).unwrap();
    let oracle = predict_reference(forest, qv);
    let profile = FrequencyProfile::collect(forest, qv);
    // A budget of a few trees per shard, so the packed layouts' own
    // seams are exercised by the auto plan.
    let pack = PackPlan::new(1 << 10).unwrap();

    check_layout("forest", forest.clone(), pool, &oracle);
    check_layout("hier", build_forest(forest, HierConfig::uniform(3)).unwrap(), pool, &oracle);
    check_layout("csr", CsrForest::build(forest), pool, &oracle);
    check_layout("fil", FilForest::build(forest), pool, &oracle);
    let packed = PackedFilForest::build(forest, &profile, pack).unwrap();
    check_layout("packed-fil", packed, pool, &oracle);

    let qfil = QFilForest::<u8>::build(forest).unwrap();
    let snapped = predict_reference(&qfil.quantizer().snap_forest(forest), qv);
    check_layout("qfil-u8", qfil, pool, &snapped);
    let packed_q = PackedQFilForest::<u8>::build(forest, &profile, pack).unwrap();
    check_layout("packed-qfil-u8", packed_q, pool, &snapped);
    check_device_kernels(forest, pool, &oracle);
}

/// The packed layouts of `forest`, whose complete top must be `levels`
/// deep, against `predict_reference` (f32) and the snapped oracle (u8).
fn check_packed(forest: &RandomForest, levels: u32, pool: &[f32]) {
    let qv = QueryView::new(pool, NF).unwrap();
    let profile = FrequencyProfile::collect(forest, qv);
    let pack = PackPlan::new(1 << 10).unwrap();
    let packed = PackedFilForest::build(forest, &profile, pack).unwrap();
    assert_eq!(packed.top_levels(), levels, "the depth rule");
    check_layout(&format!("packed-fil L={levels}"), packed, pool, &predict_reference(forest, qv));
    let packed_q = PackedQFilForest::<u8>::build(forest, &profile, pack).unwrap();
    assert_eq!(packed_q.top_levels(), levels, "the depth rule");
    let snapped = predict_reference(&packed_q.quantizer().snap_forest(forest), qv);
    check_layout(&format!("packed-qfil-u8 L={levels}"), packed_q, pool, &snapped);
}

/// A complete tree `depth` levels deep, its comparisons spread over the
/// salted pool's range and its labels over the classes by `salt`.
fn complete(depth: usize, salt: usize) -> DecisionTree {
    let inner = (1usize << depth) - 1;
    let nodes = (0..2 * inner + 1)
        .map(|i| match i < inner {
            true => Node::Inner {
                feature: ((i + salt) % NF) as u16,
                threshold: ((i + 31 * salt) as f32 * 0.618_034) % 1.0 - 0.25,
                left: 2 * i as u32 + 1,
                right: 2 * i as u32 + 2,
            },
            false => Node::Leaf { label: ((i + salt) % 3) as u32 },
        })
        .collect();
    DecisionTree::from_nodes(nodes).unwrap()
}

/// `top` with a right-leaning spine `len` levels deeper under its last
/// leaf.
fn spine_under(top: DecisionTree, len: usize) -> DecisionTree {
    let mut nodes = top.nodes().to_vec();
    let mut at = nodes.len() - 1;
    for i in 0..len {
        let next = nodes.len() as u32;
        let threshold = [0.5, -0.0, f32::MIN_POSITIVE / 4.0][i % 3];
        nodes[at] =
            Node::Inner { feature: (i % NF) as u16, threshold, left: next, right: next + 1 };
        nodes.extend([Node::Leaf { label: (i % 3) as u32 }, Node::Leaf { label: 2 }]);
        at = next as usize + 1;
    }
    DecisionTree::from_nodes(nodes).unwrap()
}

/// A ragged forest whose complete top is `levels` deep: ten complete
/// depth-`levels` trees, one tree a level shallower and one single leaf.
/// The tenth tree sends every query right, into a spine four levels
/// deeper, so every row leaves the top for the stream there. Slots ×7
/// against covered nodes ×8, with `S = 2^(levels+1) − 1`: 84·S ≤ 84·S + 4
/// at `levels`, and a level deeper the dummies cost twice that. At 0
/// levels, two single leaves and a spine: no top pays.
fn ragged(levels: usize) -> RandomForest {
    let trees = match levels {
        0 => vec![DecisionTree::leaf(1), DecisionTree::leaf(2), spine_under(complete(0, 0), 5)],
        l => {
            let rightward = complete(l, 0)
                .nodes()
                .iter()
                .map(|&node| match node {
                    Node::Inner { feature, left, right, .. } => {
                        Node::Inner { feature, threshold: f32::NEG_INFINITY, left, right }
                    }
                    leaf => leaf,
                })
                .collect();
            let rightward = DecisionTree::from_nodes(rightward).unwrap();
            let mut trees: Vec<DecisionTree> = (0..9).map(|salt| complete(l, salt)).collect();
            trees.extend([spine_under(rightward, 4), complete(l - 1, 9), DecisionTree::leaf(1)]);
            trees
        }
    };
    RandomForest::from_trees(trees, NF, 3).unwrap()
}

/// The simulated-device kernels against the same oracle over the head of
/// the same salted pool: every code variant decodes its nodes by hand next
/// to its access model, and must branch on a NaN as the CPU layouts do.
fn check_device_kernels(forest: &RandomForest, pool: &[f32], oracle: &[u32]) {
    let qv = QueryView::new(&pool[..DEVICE_ROWS * NF], NF).unwrap();
    let want = &oracle[..DEVICE_ROWS];
    let hier = build_forest(forest, HierConfig::with_root(2, 3)).unwrap();
    let (csr, fil) = (CsrForest::build(forest), FilForest::build(forest));
    let sim = GpuSim::new(GpuConfig::tiny_test());
    assert_eq!(gpu::csr::run_csr(&sim, &csr, qv).predictions, want, "gpu csr");
    assert_eq!(gpu::fil::run_fil(&sim, &fil, qv).predictions, want, "gpu fil");
    let run = gpu::independent::run_independent(&sim, &hier, qv);
    assert_eq!(run.predictions, want, "gpu independent");
    let run = gpu::collaborative::run_collaborative(&sim, &hier, qv).unwrap();
    assert_eq!(run.predictions, want, "gpu collaborative");
    assert_eq!(gpu::hybrid::run_hybrid(&sim, &hier, qv).unwrap().predictions, want, "gpu hybrid");
    let run = gpu::block_per_tree::run_block_per_tree(&sim, &hier, qv);
    assert_eq!(run.predictions, want, "gpu block-per-tree");
    let cfg = FpgaConfig::tiny_test();
    let rep = Replication::single(&cfg);
    assert_eq!(fpga::csr::run_csr(&cfg, rep, &csr, qv).predictions, want, "fpga csr");
    let run = fpga::independent::run_independent(&cfg, rep, &hier, qv).unwrap();
    assert_eq!(run.predictions, want, "fpga independent");
    let run = fpga::collaborative::run_collaborative(&cfg, rep, &hier, qv).unwrap();
    assert_eq!(run.predictions, want, "fpga collaborative");
    assert_eq!(
        fpga::hybrid::run_hybrid(&cfg, rep, &hier, qv).unwrap().predictions,
        want,
        "fpga hybrid"
    );
}

#[test]
fn kernel_edges_equal_the_reference_on_every_layout() {
    // K + 1 trees cross the sweep's width and a 64-tree popcount window
    // inside one shard; G ± 1, the top's width.
    for (i, n_trees) in [1, G - 1, G + 1, K + 1].into_iter().enumerate() {
        let forest = forest_with_leaf_trees(0xED6E + i as u64, n_trees);
        check_every_layout(&forest, &hostile_pool(7 + i as u64));
    }
}

/// Every depth the rule can give a top, 0 through 16, on ragged forests
/// — single-leaf trees and trees shallower than the top walk dummies, a
/// spine leaves it for the stream — under the salted pool, every vote
/// policy, both entry points and row counts on either side of both
/// widths.
#[test]
fn packed_tops_of_every_depth_equal_the_reference() {
    for levels in 0..=16 {
        check_packed(&ragged(levels), levels as u32, &hostile_pool(31 + levels as u64));
    }
}

#[test]
fn forests_of_single_leaf_trees_refill_every_lane_every_step() {
    let trees = (0..K as u32 + 1).map(|i| DecisionTree::leaf(i % 3)).collect();
    let forest = RandomForest::from_trees(trees, NF, 3).unwrap();
    check_every_layout(&forest, &hostile_pool(11));
}

#[test]
fn special_query_values_branch_as_the_reference_does() {
    let forest = forest_with_edge_thresholds();
    let pool = hostile_pool(13);
    // The salted pool must actually split on the special thresholds:
    // every tree answers with more than one label over it.
    for tree in forest.trees() {
        let labels: Vec<u32> = pool.chunks(NF).map(|q| tree.predict(q)).collect();
        assert!(labels.iter().any(|&l| l != labels[0]), "constant tree: {labels:?}");
    }
    check_every_layout(&forest, &pool);
}

/// Four callers share the one crew, each with an engine of its own: a
/// crew busy with another caller's batch leaves an offer unanswered — the
/// caller then runs every block itself — and never deadlocks. A lost
/// wake-up would hang a caller at its tail; the watchdog turns that into
/// a failure.
#[test]
fn concurrent_callers_share_the_crew_without_deadlock() {
    let pool = Arc::new(hostile_pool(29));
    let (done, finished) = std::sync::mpsc::channel();
    let callers: Vec<_> = (0..4u64)
        .map(|caller| {
            let (pool, done) = (Arc::clone(&pool), done.clone());
            std::thread::spawn(move || {
                let forest = forest_with_leaf_trees(0xC4E7 + caller, 9 + 20 * caller as usize);
                let qv = QueryView::new(&pool, NF).unwrap();
                let oracle = predict_reference(&forest, qv);
                let fil = Arc::new(FilForest::build(&forest));
                let policy = POLICIES[caller as usize];
                let plan = EnginePlan::builder()
                    .shard_trees(4)
                    .query_block(16)
                    .threads(2 + caller as usize % 2)
                    .vote_policy(policy)
                    .build()
                    .unwrap();
                let engine = ShardedEngine::with_plan(fil, plan);
                for batch in 0..50 {
                    let rows = POOL_ROWS - batch;
                    let mut out = vec![u32::MAX; rows];
                    let qv = QueryView::new(&pool[..rows * NF], NF).unwrap();
                    engine.predict_into_shared(qv, &mut out);
                    assert_eq!(out, oracle[..rows], "caller {caller} batch {batch}");
                }
                done.send(()).unwrap();
            })
        })
        .collect();
    drop(done);
    for _ in 0..callers.len() {
        match finished.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("a caller hung"),
            // A caller panicked: its join below says why.
            Err(_) => break,
        }
    }
    for caller in callers {
        caller.join().unwrap();
    }
}
