//! Learnability-profile tests for the synthetic dataset stand-ins — the
//! properties that make the Fig. 5 reproduction meaningful.

use rfx::data::specs::{DatasetKind, DatasetSpec};
use rfx::data::train_test_split;
use rfx::forest::metrics::accuracy;
use rfx::forest::train::TrainConfig;
use rfx::forest::RandomForest;

fn acc_at_depth(kind: DatasetKind, depth: usize, rows: usize) -> f64 {
    let data = DatasetSpec::scaled(kind, rows).generate();
    let (train, test) = train_test_split(&data, 0.5, 13);
    let tc = TrainConfig { n_trees: 20, max_depth: depth, seed: 19, ..TrainConfig::default() };
    let forest = RandomForest::fit(&train, &tc).unwrap();
    accuracy(&forest.predict_batch_parallel(&test), test.labels())
}

/// Covertype-like: deep planted structure — depth keeps paying past 20.
#[test]
fn covertype_like_rewards_depth() {
    let shallow = acc_at_depth(DatasetKind::CovertypeLike, 5, 30_000);
    let mid = acc_at_depth(DatasetKind::CovertypeLike, 12, 30_000);
    let deep = acc_at_depth(DatasetKind::CovertypeLike, 24, 30_000);
    assert!(shallow > 0.55, "depth 5 beats chance: {shallow}");
    assert!(mid > shallow + 0.02, "depth 12 ({mid}) > depth 5 ({shallow})");
    // At this reduced training size a slight over-depth decline is
    // expected (the paper sees the same with few trees in Fig. 5).
    assert!(deep >= mid - 0.025, "depth 24 ({deep}) stays near 12 ({mid})");
}

/// Susy-like: smooth boundary — most of the signal is reachable by depth
/// ~10 and the curve flattens, near its ~80 % ceiling.
#[test]
fn susy_like_saturates_early() {
    let d5 = acc_at_depth(DatasetKind::SusyLike, 5, 30_000);
    let d10 = acc_at_depth(DatasetKind::SusyLike, 10, 30_000);
    let d16 = acc_at_depth(DatasetKind::SusyLike, 16, 30_000);
    assert!(d5 > 0.66, "depth 5 already strong: {d5}");
    let early_gain = d10 - d5;
    let late_gain: f64 = d16 - d10;
    assert!(late_gain < early_gain + 0.01, "gains shrink: {d5} {d10} {d16}");
    assert!((0.68..0.85).contains(&d16), "near the ~0.80 band: {d16}");
}

/// Higgs-like: lower ceiling (~74 %) than Susy-like.
#[test]
fn higgs_like_has_lower_ceiling_than_susy_like() {
    let susy = acc_at_depth(DatasetKind::SusyLike, 14, 30_000);
    let higgs = acc_at_depth(DatasetKind::HiggsLike, 14, 30_000);
    assert!(higgs < susy, "higgs {higgs} below susy {susy}");
    assert!(higgs > 0.58, "but well above chance: {higgs}");
}

/// Threshold quantization stays inside its committed accuracy budget:
/// u8/u16 packed layouts may only move test accuracy below the f32
/// forest by [`MAX_ACCURACY_DELTA_U8`] / [`MAX_ACCURACY_DELTA_U16`].
#[test]
fn quantized_layouts_stay_inside_the_committed_accuracy_budget() {
    use rfx::core::quant::{MAX_ACCURACY_DELTA_U16, MAX_ACCURACY_DELTA_U8};
    use rfx::core::QFilForest;

    for kind in [DatasetKind::CovertypeLike, DatasetKind::SusyLike] {
        let data = DatasetSpec::scaled(kind, 30_000).generate();
        let (train, test) = train_test_split(&data, 0.5, 13);
        let tc = TrainConfig { n_trees: 20, max_depth: 14, seed: 19, ..TrainConfig::default() };
        let forest = RandomForest::fit(&train, &tc).unwrap();
        let f32_acc = accuracy(&forest.predict_batch_parallel(&test), test.labels());

        let nf = forest.num_features();
        let acc_of = |predict: &dyn Fn(&[f32]) -> u32| {
            let preds: Vec<u32> = test.raw_features().chunks(nf).map(predict).collect();
            accuracy(&preds, test.labels())
        };
        let q8 = QFilForest::<u8>::build(&forest).unwrap();
        let q16 = QFilForest::<u16>::build(&forest).unwrap();
        let d8 = f32_acc - acc_of(&|q| q8.predict(q));
        let d16 = f32_acc - acc_of(&|q| q16.predict(q));
        assert!(d8 <= MAX_ACCURACY_DELTA_U8, "{kind:?}: u8 delta {d8} over budget");
        assert!(d16 <= MAX_ACCURACY_DELTA_U16, "{kind:?}: u16 delta {d16} over budget");
    }
}

/// More trees never hurt much (the paper's tree-count insensitivity near
/// 100 trees).
#[test]
fn tree_count_insensitivity() {
    let data = DatasetSpec::scaled(DatasetKind::SusyLike, 20_000).generate();
    let (train, test) = train_test_split(&data, 0.5, 29);
    let acc_with = |n: usize| {
        let tc = TrainConfig { n_trees: n, max_depth: 10, seed: 23, ..TrainConfig::default() };
        let f = RandomForest::fit(&train, &tc).unwrap();
        accuracy(&f.predict_batch_parallel(&test), test.labels())
    };
    let a25 = acc_with(25);
    let a75 = acc_with(75);
    assert!((a75 - a25).abs() < 0.03, "tree count barely matters: {a25} vs {a75}");
}
