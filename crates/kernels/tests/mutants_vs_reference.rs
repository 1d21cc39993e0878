//! Hostile model bytes against the oracle: byte flips over a serialized
//! forest. Every mutant must end either as a typed error — `read_forest`
//! refusing the bytes, or the block store refusing a forest wider than
//! its fields — or as a forest whose block store, with or without a
//! whole top, walks equal to `predict_reference`: through the engine
//! (the top in lockstep, the blocks in its sweep) and a level at a time
//! (the row-parallel baseline). No mutant may panic, hang, or build a
//! store out of proportion to its bytes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::block::{check_forest, MAX_CLASSES};
use rfx_core::{BlockForest, LayoutError};
use rfx_forest::dataset::QueryView;
use rfx_forest::serialize::{read_forest, write_forest};
use rfx_forest::{DecisionTree, RandomForest};
use rfx_kernels::cpu::predict_reference;
use rfx_kernels::{Predictor, RowParallel, ShardedEngine, TreeEnsemble};

/// Bytes of the header, the first tree's node count and its first
/// node: where a flip changes a count, a width or a tag.
const HEAD: usize = 44;

/// Rows every surviving mutant is walked on.
const ROWS: usize = 8;

/// A forest of 1–12 trees over 1–9 features and 1–5 classes: complete
/// trees of depths 1–5, which the block store holds as a whole top, or
/// ragged ones up to depth 8, which it keeps as blocks.
fn source(seed: u64, whole: bool) -> RandomForest {
    let mut rng = StdRng::seed_from_u64(seed);
    let (features, classes) = (rng.gen_range(1..10u16), rng.gen_range(1..6));
    let depth = rng.gen_range(1..if whole { 6 } else { 9 });
    let leaf_prob = if whole { 0.0 } else { 0.3 };
    let trees: Vec<DecisionTree> = (0..rng.gen_range(1..13))
        .map(|_| DecisionTree::random(&mut rng, depth, features, classes, leaf_prob))
        .collect();
    RandomForest::from_trees(trees, usize::from(features), classes).unwrap()
}

/// `ROWS` rows `width` wide, salted with NaN and ±∞.
fn queries(width: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0dd_b17e);
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
    (0..ROWS * width)
        .map(|i| if i % 5 == 0 { specials[i / 5 % 4] } else { rng.gen::<f32>() * 2.0 - 0.5 })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// One to three flips, each in the head or anywhere, each XOR-ing a
    /// nonzero byte.
    #[test]
    fn mutated_forests_end_typed_or_equal_to_the_reference(
        seed in any::<u64>(),
        whole in any::<bool>(),
        flips in collection::vec((any::<bool>(), any::<u32>(), 1u8..=255), 1..4),
    ) {
        let mut bytes = Vec::new();
        write_forest(&source(seed, whole), &mut bytes).unwrap();
        for (head, at, mask) in flips {
            let span = if head { HEAD.min(bytes.len()) } else { bytes.len() };
            bytes[at as usize % span] ^= mask;
        }
        // A refusal of the bytes is typed by construction.
        let Ok(forest) = read_forest(bytes.as_slice()) else { return };
        let store = match BlockForest::build(&forest) {
            Ok(store) => store,
            Err(err) => {
                prop_assert!(matches!(err, LayoutError::BadConfig { .. }), "{err}");
                prop_assert!(check_forest(&forest).is_err(), "refused a forest it holds: {err}");
                prop_assert!(forest.num_classes() > MAX_CLASSES || forest.num_features() > 1 << 16);
                return;
            }
        };
        prop_assert!(store.footprint().total() <= 16 * bytes.len(), "{} bytes", bytes.len());
        // As wide as the mutant reads; a forest of leaves reads nothing.
        let width = forest.num_features().max(1);
        let pool = queries(width, seed);
        let qv = QueryView::new(&pool, width).unwrap();
        let want = predict_reference(&forest, qv);
        let top = store.top_levels();
        prop_assert_eq!(ShardedEngine::new(&store).predict(qv), want.clone(), "engine, top {top}");
        prop_assert_eq!(RowParallel::new(&store).predict(qv), want, "row-parallel, top {top}");
    }
}
