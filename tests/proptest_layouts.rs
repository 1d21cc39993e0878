//! Property-based tests over the layout stack: for *arbitrary* forests and
//! queries, every layout and every kernel must agree with the reference
//! traversal, and the hierarchical builder's structural invariants must
//! hold for any (SD, RSD).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfx::core::hier::builder::build_forest;
use rfx::core::validate::validate_hier;
use rfx::core::{CsrForest, FilForest, HierConfig, TreeEnsemble};
use rfx::forest::dataset::QueryView;
use rfx::forest::{DecisionTree, RandomForest};
use rfx::gpu::{GpuConfig, GpuSim};
use rfx::kernels::{fpga, gpu};

/// An arbitrary small forest: seeds drive `DecisionTree::random`, so the
/// search space covers ragged, bushy, and degenerate (single-leaf) trees.
fn arb_forest() -> impl Strategy<Value = RandomForest> {
    (1usize..6, 0usize..10, any::<u64>(), 0.05f64..0.7).prop_map(
        |(n_trees, depth, seed, leaf_prob)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let trees: Vec<DecisionTree> = (0..n_trees)
                .map(|_| DecisionTree::random(&mut rng, depth, 8, 3, leaf_prob))
                .collect();
            RandomForest::from_trees(trees, 8, 3).expect("random forest is valid")
        },
    )
}

fn arb_queries() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(0.0f32..1.0, 8 * 20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR and FIL layouts classify identically to the source forest.
    #[test]
    fn flat_layouts_agree_with_reference(forest in arb_forest(), queries in arb_queries()) {
        let qv = QueryView::new(&queries, 8).unwrap();
        let reference = forest.predict_batch(qv);
        let csr = CsrForest::build(&forest);
        let fil = FilForest::build(&forest);
        for (r, &expected) in reference.iter().enumerate() {
            prop_assert_eq!(csr.predict(qv.row(r)), expected);
            prop_assert_eq!(fil.predict(qv.row(r)), expected);
        }
    }

    /// The hierarchical layout validates and classifies identically for
    /// any subtree-depth configuration.
    #[test]
    fn hier_layout_invariants_and_equivalence(
        forest in arb_forest(),
        queries in arb_queries(),
        sd in 1u8..9,
        rsd_extra in 0u8..5,
    ) {
        let cfg = HierConfig::with_root(sd, sd + rsd_extra);
        let layout = build_forest(&forest, cfg).unwrap();
        validate_hier(&layout).unwrap();
        // Structural conservation: real slots = total nodes.
        let stats = layout.stats();
        prop_assert_eq!(stats.real_slots, forest.total_nodes());
        prop_assert_eq!(stats.total_slots, stats.real_slots + stats.pad_slots);
        // Footprint formula matches the arrays it is derived from.
        let fp = layout.footprint();
        prop_assert_eq!(fp.attribute_bytes, layout.total_slots() * 6);
        prop_assert_eq!(fp.topology_bytes, layout.subtree_connection().len() * 4);

        let qv = QueryView::new(&queries, 8).unwrap();
        for r in 0..qv.num_rows() {
            prop_assert_eq!(layout.predict(qv.row(r)), forest.predict(qv.row(r)));
        }
    }

    /// The simulated GPU kernels are functionally exact for arbitrary
    /// forests (independent + hybrid; CSR covered above via layout).
    #[test]
    fn gpu_kernels_are_exact(forest in arb_forest(), queries in arb_queries(), sd in 1u8..7) {
        let qv = QueryView::new(&queries, 8).unwrap();
        let reference = forest.predict_batch(qv);
        let layout = build_forest(&forest, HierConfig::uniform(sd)).unwrap();
        let sim = GpuSim::new(GpuConfig::tiny_test());
        prop_assert_eq!(
            gpu::independent::run_independent(&sim, &layout, qv).predictions,
            reference.clone()
        );
        prop_assert_eq!(
            gpu::hybrid::run_hybrid(&sim, &layout, qv).unwrap().predictions,
            reference
        );
    }

    /// The FPGA kernels are functionally exact and their stall fraction
    /// stays a valid fraction.
    #[test]
    fn fpga_kernels_are_exact(forest in arb_forest(), queries in arb_queries(), sd in 1u8..7) {
        let qv = QueryView::new(&queries, 8).unwrap();
        let reference = forest.predict_batch(qv);
        let layout = build_forest(&forest, HierConfig::uniform(sd)).unwrap();
        let cfg = rfx::fpga::FpgaConfig::alveo_u250();
        let rep = rfx::fpga::Replication::single(&cfg);
        let ind = fpga::independent::run_independent(&cfg, rep, &layout, qv).unwrap();
        prop_assert_eq!(ind.predictions, reference.clone());
        prop_assert!((0.0..=1.0).contains(&ind.stats.stall_fraction));
        let hyb = fpga::hybrid::run_hybrid(&cfg, rep, &layout, qv).unwrap();
        prop_assert_eq!(hyb.predictions, reference);
        prop_assert!((0.0..=1.0).contains(&hyb.stats.stall_fraction));
    }

    /// Vote prefix property used by the Fig. 5 harness: an n-tree prefix
    /// of a forest votes like an n-tree forest of the same trees.
    #[test]
    fn vote_prefix_equals_subforest(forest in arb_forest(), queries in arb_queries()) {
        let qv = QueryView::new(&queries, 8).unwrap();
        let n = forest.num_trees().div_ceil(2);
        let prefix = RandomForest::from_trees(
            forest.trees()[..n].to_vec(),
            forest.num_features(),
            forest.num_classes(),
        ).unwrap();
        for r in 0..qv.num_rows() {
            let mut votes = vec![0u32; forest.num_classes() as usize];
            for t in &forest.trees()[..n] {
                votes[t.predict(qv.row(r)) as usize] += 1;
            }
            prop_assert_eq!(rfx::core::majority(&votes), prefix.predict(qv.row(r)));
        }
    }
}
