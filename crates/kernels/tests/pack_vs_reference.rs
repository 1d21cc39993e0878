//! Property tests for the profile-packed layouts under the execution
//! engines: for *any* random forest, *any* packing parameters, *any*
//! plan — including degenerate 1-tree / 1-query shapes — and a
//! calibration profile drawn from a *different* distribution than the
//! eval batch, [`ShardedEngine`] predictions over [`PackedFilForest`]
//! must be bit-identical to `predict_reference` over the source forest
//! (and the quantized variants to the snapped forest), under all three
//! vote policies. Packing must never affect results, only addresses.
//!
//! Half the forests have their node ids reversed (children stored before
//! their parents), which sends the packer's cold nodes through its heap
//! instead of its forward sweep.
//!
//! The per-class vote permutation-invariance property is pinned
//! separately: the multiset of per-tree votes (hence every per-class
//! count) is identical between the packed tree order and the source
//! order, which is *why* the bin-packing is free to permute trees.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::pack::{FrequencyProfile, PackPlan, PackedFilForest, PackedQFilForest};
use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, Node, RandomForest};
use rfx_kernels::cpu::predict_reference;
use rfx_kernels::{EnginePlan, Predictor, RowParallel, ShardedEngine, TreeEnsemble, VotePolicy};

const NF: usize = 7;

fn forest_from_seed(seed: u64, n_trees: usize, depth: usize, classes: u32) -> RandomForest {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees: Vec<DecisionTree> = (0..n_trees)
        .map(|_| DecisionTree::random(&mut rng, depth, NF as u16, classes, 0.3))
        .collect();
    RandomForest::from_trees(trees, NF, classes).unwrap()
}

/// `forest` with every tree's non-root ids reversed (`i → n − i`), so
/// children are stored before their parents — unlike any tree the
/// trainer grows — and the packer's cold nodes arrive out of id order.
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

/// Calibration rows from a distribution deliberately unlike the
/// uniform-[0,1) eval queries: skewed into the low end of every feature,
/// so the "hot" paths the profile sees are not the eval batch's.
fn skewed_calibration(seed: u64, rows: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * NF).map(|_| rng.gen::<f32>() * rng.gen::<f32>()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packed f32 predictions equal the serial reference over the source
    /// forest; packed u8/u16 predictions equal the reference over their
    /// snapped forests — for any packing parameters, any plan, and all
    /// three vote policies.
    #[test]
    fn packed_layouts_are_bit_identical_to_reference(
        seed in any::<u64>(),
        n_trees in 1usize..14,
        depth in 1usize..9,
        classes in 1u32..5,
        n_queries in 1usize..120,
        calib_rows in 0usize..80,
        budget in 1usize..8192,
        shard_trees in 1usize..20,
        query_block in 1usize..160,
        threads in 0usize..9,
        reverse in any::<bool>(),
    ) {
        let forest = forest_from_seed(seed, n_trees, depth, classes);
        let forest = if reverse { reversed_ids(&forest) } else { forest };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
        let queries: Vec<f32> = (0..n_queries * NF).map(|_| rng.gen()).collect();
        let qv = QueryView::new(&queries, NF).unwrap();

        // Frequency profile from a different distribution than the eval
        // batch (or the zero-signal uniform profile when calib_rows == 0):
        // placement changes, predictions must not.
        let calib = skewed_calibration(seed ^ 0x5151, calib_rows);
        let profile = if calib_rows == 0 {
            FrequencyProfile::uniform(&forest)
        } else {
            FrequencyProfile::collect(&forest, QueryView::new(&calib, NF).unwrap())
        };

        let pack = PackPlan::new(budget).unwrap();
        let packed = PackedFilForest::build(&forest, &profile, pack).unwrap();
        let packed8 = PackedQFilForest::<u8>::build(&forest, &profile, pack).unwrap();
        let packed16 = PackedQFilForest::<u16>::build(&forest, &profile, pack).unwrap();

        let reference = predict_reference(&forest, qv);
        let ref8 = predict_reference(&packed8.quantizer().snap_forest(&forest), qv);
        let ref16 = predict_reference(&packed16.quantizer().snap_forest(&forest), qv);

        for policy in [
            VotePolicy::Exact,
            VotePolicy::BitSliced,
            VotePolicy::EarlyExit { slack: (seed % 3) as u32 },
        ] {
            // Arbitrary pinned plan (oversized knobs exercise the
            // normalization clamps; the uniform stride cuts across the
            // packed shard seams on purpose)...
            let plan = EnginePlan::builder()
                .shard_trees(shard_trees)
                .query_block(query_block)
                .threads(threads)
                .vote_policy(policy)
                .build()
                .unwrap();
            prop_assert_eq!(
                ShardedEngine::with_plan(&packed, plan).predict(qv), reference.clone(),
                "packed-fil {:?}", plan
            );
            // ...and the same plan opted into the layout's byte-aware
            // shard bounds via its PackPlan.
            let bounded = plan.to_builder().pack(pack).build().unwrap();
            prop_assert_eq!(
                ShardedEngine::with_plan(&packed, bounded).predict(qv), reference.clone(),
                "packed-fil bounded {:?}", bounded
            );
            prop_assert_eq!(
                ShardedEngine::with_plan(&packed8, bounded).predict(qv), ref8.clone(),
                "packed-qfil-u8 {:?}", bounded
            );
            prop_assert_eq!(
                ShardedEngine::with_plan(&packed16, plan).predict(qv), ref16.clone(),
                "packed-qfil-u16 {:?}", plan
            );
        }

        // Auto-planned engines (which adopt the packed shard bounds) and
        // the row-parallel baseline agree too.
        prop_assert_eq!(ShardedEngine::new(&packed).predict(qv), reference.clone());
        prop_assert_eq!(RowParallel::new(&packed).predict(qv), reference);
        prop_assert_eq!(ShardedEngine::new(&packed8).predict(qv), ref8);
        prop_assert_eq!(ShardedEngine::new(&packed16).predict(qv), ref16);
    }

    /// Permutation-invariance of the per-class votes: for every query,
    /// the packed ensemble's class-vote histogram equals the source
    /// forest's — tree order moved, the vote multiset did not.
    #[test]
    fn packed_per_class_votes_are_permutation_invariant(
        seed in any::<u64>(),
        n_trees in 1usize..14,
        depth in 1usize..9,
        classes in 1u32..5,
        n_queries in 1usize..40,
        calib_rows in 0usize..60,
        budget in 1usize..4096,
    ) {
        let forest = forest_from_seed(seed, n_trees, depth, classes);
        let calib = skewed_calibration(seed ^ 0x9c9c, calib_rows.max(1));
        let profile = FrequencyProfile::collect(&forest, QueryView::new(&calib, NF).unwrap());
        let pack = PackPlan::new(budget).unwrap();
        let packed = PackedFilForest::build(&forest, &profile, pack).unwrap();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x3b3b);
        let queries: Vec<f32> = (0..n_queries * NF).map(|_| rng.gen()).collect();
        for q in queries.chunks(NF) {
            let mut packed_votes = vec![0u32; classes as usize];
            for t in 0..packed.num_trees() {
                packed_votes[packed.predict_tree(t, q) as usize] += 1;
            }
            let source_votes = forest.votes(q);
            prop_assert_eq!(&packed_votes, &source_votes);
            // And each packed slot votes exactly as its source tree.
            for t in 0..packed.num_trees() {
                prop_assert_eq!(
                    packed.predict_tree(t, q),
                    forest.trees()[packed.tree_source(t)].predict(q)
                );
            }
        }
    }
}
