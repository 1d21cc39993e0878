//! Property test for the non-exact vote policies: for *any* random
//! forest — including adversarial near-tie forests whose argmax is
//! decided purely by tie-breaking — *any* layout, and *any* plan,
//! [`VotePolicy::BitSliced`] and [`VotePolicy::EarlyExit`] predictions
//! must be bit-identical to `predict_reference`: same argmax, same
//! tie order (ties toward the lower class id). This is the acceptance
//! bar for the early-exit optimization: skipping shards must be
//! invisible in the labels, not just "mostly right".
//!
//! Forest shapes are drawn to stress the decision rule from both ends:
//! `random` forests give ordinary high-agreement votes (early exit
//! fires), `tie` forests are constant-leaf trees cycling the class ids
//! so every row's tally is maximally tied (early exit must never fire),
//! and `near-tie` forests mix the two so leads hover around the
//! remaining-tree threshold. Tree counts cross the 64-tree popcount
//! window and shard sizes cross the window *within* one shard, so the
//! bit-sliced flush boundaries are exercised end to end.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::hier::builder::build_forest;
use rfx_core::quant::QFilForest;
use rfx_core::{FilForest, HierConfig};
use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, RandomForest};
use rfx_kernels::cpu::predict_reference;
use rfx_kernels::{EnginePlan, Predictor, ShardedEngine, VotePolicy};

const NF: usize = 5;

/// Ordinary random forest: trained-forest-like vote agreement.
fn random_forest(rng: &mut StdRng, n_trees: usize, depth: usize, classes: u32) -> RandomForest {
    let trees: Vec<DecisionTree> =
        (0..n_trees).map(|_| DecisionTree::random(rng, depth, NF as u16, classes, 0.3)).collect();
    RandomForest::from_trees(trees, NF, classes).unwrap()
}

/// Adversarial tie forest: constant-leaf trees cycling the class ids,
/// so every row's counts are as flat as the tree count allows and the
/// winner is decided purely by the lower-class-id tie rule.
fn tie_forest(n_trees: usize, classes: u32) -> RandomForest {
    let trees: Vec<DecisionTree> =
        (0..n_trees).map(|t| DecisionTree::leaf(t as u32 % classes)).collect();
    RandomForest::from_trees(trees, NF, classes).unwrap()
}

/// Near-tie forest: a tied constant-leaf base plus a few random trees,
/// so leads hover right around the `remaining + slack` exit threshold.
fn near_tie_forest(rng: &mut StdRng, n_trees: usize, classes: u32) -> RandomForest {
    let tied = n_trees.div_ceil(2);
    let mut trees: Vec<DecisionTree> =
        (0..tied).map(|t| DecisionTree::leaf(t as u32 % classes)).collect();
    trees.extend((tied..n_trees).map(|_| DecisionTree::random(rng, 3, NF as u16, classes, 0.3)));
    RandomForest::from_trees(trees, NF, classes).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit-sliced and early-exit predictions equal the serial reference
    /// across layouts, forests (incl. adversarial ties), and plans.
    #[test]
    fn non_exact_policies_are_bit_identical_to_reference(
        seed in any::<u64>(),
        forest_kind in 0usize..3,
        n_trees in 1usize..70,
        depth in 1usize..7,
        classes in 1u32..5,
        n_queries in 1usize..100,
        shard_trees in 1usize..80,
        query_block in 1usize..130,
        threads in 0usize..9,
        bit_sliced_only in any::<bool>(),
        slack in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let forest = match forest_kind {
            0 => random_forest(&mut rng, n_trees, depth, classes),
            1 => tie_forest(n_trees, classes),
            _ => near_tie_forest(&mut rng, n_trees, classes),
        };
        let queries: Vec<f32> = (0..n_queries * NF).map(|_| rng.gen()).collect();
        let qv = QueryView::new(&queries, NF).unwrap();
        let reference = predict_reference(&forest, qv);

        let policy = if bit_sliced_only {
            VotePolicy::BitSliced
        } else {
            VotePolicy::EarlyExit { slack }
        };
        let plan = EnginePlan::builder()
            .shard_trees(shard_trees)
            .query_block(query_block)
            .threads(threads)
            .vote_policy(policy)
            .build()
            .unwrap();

        let fil = FilForest::build(&forest);
        let hier = build_forest(&forest, HierConfig::uniform(3)).unwrap();

        prop_assert_eq!(
            ShardedEngine::with_plan(&forest, plan).predict(qv), reference.clone(),
            "forest {:?}", plan
        );
        prop_assert_eq!(
            ShardedEngine::with_plan(&fil, plan).predict(qv), reference.clone(),
            "fil {:?}", plan
        );
        prop_assert_eq!(
            ShardedEngine::with_plan(&hier, plan).predict(qv), reference.clone(),
            "hier {:?}", plan
        );

        // Quantized layouts vote on snapped thresholds — same policy,
        // their own (snapped) oracle.
        let qfil8 = QFilForest::<u8>::build(&forest).unwrap();
        let ref8 = predict_reference(&qfil8.quantizer().snap_forest(&forest), qv);
        prop_assert_eq!(
            ShardedEngine::with_plan(&qfil8, plan).predict(qv), ref8,
            "qfil-u8 {:?}", plan
        );

        // Auto-planned engine with the policy stamped on top agrees too.
        prop_assert_eq!(ShardedEngine::with_policy(&forest, policy).predict(qv), reference);
    }
}
