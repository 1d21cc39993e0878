//! Property tests for the quantized layouts (ISSUE 7):
//!
//! 1. **Round-trip bound** — `dequantize(quantize(t))` lands within half a
//!    grid step of `t` (plus f32 rounding slop) for every inner threshold
//!    of every random forest.
//! 2. **Integer/f32 path agreement** — the integer-rank comparator path
//!    takes exactly the branches of the f32 path on any query, including
//!    out-of-range and grid-boundary values.
//! 3. **Snapped-oracle exactness** — the quantized layout predicts
//!    bit-identically to the f32 forest whose thresholds were snapped to
//!    the grid ("exact argmax on the quantized grid").

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::quant::{QFilForest, QuantLevel, ThresholdQuantizer};
use rfx_core::TreeEnsemble;
use rfx_forest::{DecisionTree, Node, RandomForest};

const NF: usize = 6;

fn forest_from_seed(seed: u64, n_trees: usize, depth: usize, classes: u32) -> RandomForest {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees: Vec<DecisionTree> = (0..n_trees)
        .map(|_| DecisionTree::random(&mut rng, depth, NF as u16, classes, 0.3))
        .collect();
    RandomForest::from_trees(trees, NF, classes).unwrap()
}

/// Queries that stress the grid: uniform in-range, far out of range, and
/// exact grid points (where `<` vs `<=` mistakes would show).
fn adversarial_queries(
    rng: &mut StdRng,
    quantizer: &ThresholdQuantizer,
    levels: u32,
    n: usize,
) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            (0..NF)
                .map(|f| match rng.gen_range(0..4) {
                    0 => rng.gen::<f32>(),
                    1 => rng.gen::<f32>() * 40.0 - 20.0,
                    2 => quantizer.dequantize(f, rng.gen_range(0..levels)),
                    _ => {
                        // One ulp either side of a grid point.
                        let g = quantizer.dequantize(f, rng.gen_range(0..levels));
                        if rng.gen() {
                            f32::from_bits(g.to_bits().wrapping_add(1))
                        } else {
                            f32::from_bits(g.to_bits().wrapping_sub(1))
                        }
                    }
                })
                .collect()
        })
        .collect()
}

fn round_trip_bound_holds<T: QuantLevel>(forest: &RandomForest) {
    let q = ThresholdQuantizer::fit_for::<T>(forest);
    for tree in forest.trees() {
        for node in tree.nodes() {
            if let Node::Inner { feature, threshold, .. } = *node {
                let f = feature as usize;
                let rt = q.dequantize(f, q.quantize(f, threshold));
                let step = f64::from(q.param(f).scale);
                let slop = (f64::from(threshold.abs()) + step * f64::from(T::LEVELS) + 1.0)
                    * f64::from(f32::EPSILON)
                    * 4.0;
                prop_assert!(
                    (f64::from(rt) - f64::from(threshold)).abs() <= 0.5 * step + slop,
                    "{}: feature {f}: {threshold} -> {rt} (step {step})",
                    T::NAME
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quantize → dequantize stays within half a grid step at both widths.
    #[test]
    fn round_trip_within_half_step(
        seed in any::<u64>(),
        n_trees in 1usize..10,
        depth in 1usize..9,
    ) {
        let forest = forest_from_seed(seed, n_trees, depth, 3);
        round_trip_bound_holds::<u8>(&forest);
        round_trip_bound_holds::<u16>(&forest);
    }

    /// The integer-rank path and the f32 path take identical branches for
    /// every tree, on adversarial queries.
    #[test]
    fn integer_path_is_branch_identical(
        seed in any::<u64>(),
        n_trees in 1usize..8,
        depth in 1usize..8,
        classes in 1u32..5,
    ) {
        let forest = forest_from_seed(seed, n_trees, depth, classes);
        let qfil = QFilForest::<u8>::build(&forest).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        for qv in adversarial_queries(&mut rng, qfil.quantizer(), u8::LEVELS, 24) {
            let ranks = qfil.quantizer().quantize_row(&qv);
            for t in 0..forest.num_trees() {
                prop_assert_eq!(
                    qfil.predict_tree_quantized(t, &ranks),
                    qfil.predict_tree(t, &qv),
                    "qfil tree {} query {:?}", t, &qv
                );
            }
        }
    }

    /// The quantized layout reproduces the snapped forest bit-identically —
    /// per tree and at the majority vote.
    #[test]
    fn layouts_are_exact_on_the_quantized_grid(
        seed in any::<u64>(),
        n_trees in 1usize..8,
        depth in 1usize..8,
        classes in 1u32..5,
    ) {
        let forest = forest_from_seed(seed, n_trees, depth, classes);
        let qfil = QFilForest::<u16>::build(&forest).unwrap();
        let snapped = qfil.quantizer().snap_forest(&forest);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        for qv in adversarial_queries(&mut rng, qfil.quantizer(), 4096, 24) {
            prop_assert_eq!(qfil.predict(&qv), snapped.predict(&qv));
            for t in 0..forest.num_trees() {
                prop_assert_eq!(qfil.predict_tree(t, &qv), snapped.trees()[t].predict(&qv));
            }
        }
    }
}
