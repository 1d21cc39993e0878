//! The execution engine against its oracles. For *any* random forest —
//! ordinary, all-tie, near-tie or seam-tie — *any* layout, *any* vote
//! policy and *any* plan parameters, including degenerate 1-tree /
//! 1-query shapes, [`ShardedEngine`] predictions must be bit-identical to
//! `predict_reference`: over the source forest for the exact layouts, and
//! over the **snapped** forest (thresholds moved onto the quantized grid)
//! for the quantized ones, whose only approximation is the snap itself.
//! Tiling, sharding, thread scheduling, early exit and bit-sliced tallies
//! must be invisible in the results — same argmax, same tie order. The
//! layout table, its check and the kernel-edge grid live in
//! `oracle/mod.rs`; this file draws the widest cases for it and holds the
//! forests and query pools the grid runs on, plus the simulated-device
//! kernels and the crew under concurrent callers. `quant_vs_reference.rs`,
//! `early_exit_vs_reference.rs` and `pack_vs_reference.rs` draw narrower
//! slices of the same cases.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::hier::builder::build_forest;
use rfx_core::pack::{FrequencyProfile, PackPlan};
use rfx_core::{CsrForest, FilForest, HierConfig};
use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, Node, RandomForest};
use rfx_fpga_sim::{FpgaConfig, Replication};
use rfx_gpu_sim::{GpuConfig, GpuSim};
use rfx_kernels::cpu::predict_reference;
use rfx_kernels::{fpga, gpu, EnginePlan, ShardedEngine, VotePolicy};
use std::sync::Arc;

mod oracle;
use oracle::{check_every_layout, Case, Sweep, G, K, NF, POLICIES, SEAM_TIE};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every layout row equals its oracle for any forest kind, a tree
    /// count on either side of the 64-tree popcount window (and shards
    /// that cross it), any vote policy, any (possibly absurd) plan and any
    /// packing. A seam tie sits on early exit's boundary, so it runs under
    /// the policy that must not cross it.
    #[test]
    fn sharded_is_bit_identical_to_reference(
        seed in any::<u64>(),
        forest_kind in 0usize..4,
        n_trees in 1usize..70,
        depth in 1usize..9,
        classes in 1u32..5,
        n_queries in 1usize..120,
        shard_trees in 1usize..80,
        query_block in 1usize..160,
        threads in 0usize..9,
        policy in 0usize..3,
        slack in 0u32..4,
        budget in 1usize..8192,
        calib_rows in 0usize..80,
        reverse in any::<bool>(),
    ) {
        let policy = match forest_kind {
            SEAM_TIE => VotePolicy::EarlyExit { slack: 0 },
            _ => [VotePolicy::Exact, VotePolicy::BitSliced, VotePolicy::EarlyExit { slack }][policy],
        };
        Case {
            seed, forest_kind, n_trees, depth, classes, n_queries,
            shard_trees, query_block, threads, policy, budget, calib_rows, reverse,
        }
        .check();
    }
}

/// Rows the simulated-device kernels are checked on.
const DEVICE_ROWS: usize = 19;
/// Rows of a salted pool: the claim-loop grid's largest batch.
const POOL_ROWS: usize = 256;

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

/// The kernel-edge grid over `forest`'s table rows named `rows…`. The
/// packed rows are profiled over the pool itself under a budget of a few
/// trees per shard, so the auto plan walks their own seams.
fn edge_grid(
    forest: &RandomForest,
    pool: &[f32],
    rows: &'static str,
    prefetch: Option<bool>,
    top_levels: Option<u32>,
) {
    let profile = FrequencyProfile::collect(forest, QueryView::new(pool, NF).unwrap());
    let sweep = Sweep { pinned: None, rows, prefetch, top_levels };
    check_every_layout(forest, pool, &profile, PackPlan::new(1 << 10).unwrap(), sweep);
}

/// Every table row and every simulated-device kernel of `forest`, each
/// row on the `past_l2` side of the prefetch rule.
fn every_kernel(forest: &RandomForest, past_l2: bool, pool: &[f32]) {
    edge_grid(forest, pool, "", Some(past_l2), None);
    check_device_kernels(forest, pool);
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
fn check_device_kernels(forest: &RandomForest, pool: &[f32]) {
    let qv = QueryView::new(&pool[..DEVICE_ROWS * NF], NF).unwrap();
    let want = &predict_reference(forest, qv)[..];
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
        every_kernel(&forest, false, &hostile_pool(7 + i as u64));
    }
    // Nine ragged depth-16 trees, about 580 k nodes: every layout is past
    // one core's L2 — the u8 formats' 5 B a node included — so the sweep
    // prefetches each lane's next node, and a debug build checks every
    // prefetched index.
    let mut rng = StdRng::seed_from_u64(0xB16);
    let trees =
        (0..G + 1).map(|_| DecisionTree::random(&mut rng, 16, NF as u16, 3, 0.05)).collect();
    let forest = RandomForest::from_trees(trees, NF, 3).unwrap();
    every_kernel(&forest, true, &hostile_pool(19));
}

/// Every depth the rule can give a top, 0 through 16, on ragged forests
/// — single-leaf trees and trees shallower than the top walk dummies, a
/// spine leaves it for the stream — under the salted pool: the table's
/// three packed rows through the kernel-edge grid.
#[test]
fn packed_tops_of_every_depth_equal_the_reference() {
    for levels in 0..=16 {
        let pool = hostile_pool(31 + levels as u64);
        edge_grid(&ragged(levels), &pool, "packed", None, Some(levels as u32));
    }
}

/// The block store over ragged forests whose depths, 0 through 10, are
/// mostly not multiples of a block's three levels: leaves above a block's
/// bottom ride always-right slots down to an inline exit, and the
/// always-right spines of `ragged` compare NaN and ±∞ against −∞.
#[test]
fn blocks_of_ragged_depths_equal_the_reference() {
    for levels in 0..=10 {
        edge_grid(&ragged(levels), &hostile_pool(47 + levels as u64), "blocks", Some(false), None);
    }
}

#[test]
fn forests_of_single_leaf_trees_refill_every_lane_every_step() {
    let trees = (0..K as u32 + 1).map(|i| DecisionTree::leaf(i % 3)).collect();
    let forest = RandomForest::from_trees(trees, NF, 3).unwrap();
    every_kernel(&forest, false, &hostile_pool(11));
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
    every_kernel(&forest, false, &pool);
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
