//! Property test for quantized layouts under the execution engines: for
//! *any* random forest, either quantized layout (QFil × u8/u16), and
//! *any* plan parameters — including degenerate
//! 1-tree / 1-query shapes — [`ShardedEngine`] predictions must be
//! bit-identical to `predict_reference` over the **snapped** forest (the
//! f32 forest with thresholds moved onto the quantized grid). This is the
//! "exact argmax on the quantized grid" guarantee end to end: the only
//! approximation quantization introduces is the snap itself.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::quant::QFilForest;
use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, RandomForest};
use rfx_kernels::cpu::predict_reference;
use rfx_kernels::{EnginePlan, Predictor, RowParallel, ShardedEngine};

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

    /// Sharded predictions over every quantized layout equal the serial
    /// reference over the snapped forest, for any shape and any plan.
    #[test]
    fn quantized_sharded_is_bit_identical_to_snapped_reference(
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

        // Oversized fields exercise the normalization clamps on purpose
        // (shard_trees/query_block may exceed the forest and batch);
        // threads == 0 means auto-detect.
        let plan = EnginePlan::builder()
            .shard_trees(shard_trees)
            .query_block(query_block)
            .threads(threads)
            .build()
            .unwrap();

        let qfil8 = QFilForest::<u8>::build(&forest).unwrap();
        let qfil16 = QFilForest::<u16>::build(&forest).unwrap();

        // One snapped oracle per grid width (u8 and u16 fit different
        // grids).
        let ref8 = predict_reference(&qfil8.quantizer().snap_forest(&forest), qv);
        let ref16 = predict_reference(&qfil16.quantizer().snap_forest(&forest), qv);

        prop_assert_eq!(
            ShardedEngine::with_plan(&qfil8, plan).predict(qv), ref8.clone(),
            "qfil-u8 {:?}", plan
        );
        prop_assert_eq!(
            ShardedEngine::with_plan(&qfil16, plan).predict(qv), ref16.clone(),
            "qfil-u16 {:?}", plan
        );

        // Auto-planned engines (shards sized from the compressed
        // footprint) and the row-parallel baseline agree too.
        prop_assert_eq!(ShardedEngine::new(&qfil8).predict(qv), ref8.clone());
        prop_assert_eq!(RowParallel::new(&qfil8).predict(qv), ref8);
        prop_assert_eq!(ShardedEngine::new(&qfil16).predict(qv), ref16);
    }
}
