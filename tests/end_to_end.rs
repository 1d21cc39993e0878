//! Cross-crate integration: train → lay out → classify on every engine,
//! asserting bit-identical predictions throughout the whole stack.

use rfx::core::hier::builder::build_forest;
use rfx::core::validate::validate_hier;
use rfx::core::{CsrForest, FilForest, HierConfig};
use rfx::data::specs::{DatasetKind, DatasetSpec};
use rfx::data::train_test_split;
use rfx::forest::train::TrainConfig;
use rfx::forest::RandomForest;
use rfx::fpga::{FpgaConfig, Replication};
use rfx::gpu::{GpuConfig, GpuSim};
use rfx::kernels::{cpu, fpga, gpu, Predictor, ShardedEngine};

fn pipeline(kind: DatasetKind, depth: usize) {
    let data = DatasetSpec::scaled(kind, 6_000).generate();
    let (train, test) = train_test_split(&data, 0.5, 21);
    let tc = TrainConfig { n_trees: 12, max_depth: depth, seed: 77, ..TrainConfig::default() };
    let forest = RandomForest::fit(&train, &tc).expect("training failed");
    let queries = (&test).into();
    let reference = cpu::predict_reference(&forest, queries);

    // CPU engine over the flat FIL layout; CSR, the paper's baseline,
    // runs on the simulated devices below.
    let csr = CsrForest::build(&forest);
    let fil = FilForest::build(&forest);
    assert_eq!(ShardedEngine::new(&fil).predict(queries), reference);

    let gpu_sim = GpuSim::new(GpuConfig::tiny_test());
    let fcfg = FpgaConfig::alveo_u250();
    let single = Replication::single(&fcfg);
    let replicated = Replication::new(&fcfg, 4, 12);

    // GPU baselines.
    assert_eq!(gpu::csr::run_csr(&gpu_sim, &csr, queries).predictions, reference);
    assert_eq!(gpu::fil::run_fil(&gpu_sim, &fil, queries).predictions, reference);
    // FPGA baseline.
    assert_eq!(fpga::csr::run_csr(&fcfg, single, &csr, queries).predictions, reference);

    for cfg in [HierConfig::uniform(3), HierConfig::uniform(6), HierConfig::with_root(4, 9)] {
        let layout = build_forest(&forest, cfg).expect("layout build");
        validate_hier(&layout).expect("layout invariants");
        assert_eq!(ShardedEngine::new(&layout).predict(queries), reference, "{cfg:?}");
        assert_eq!(
            gpu::independent::run_independent(&gpu_sim, &layout, queries).predictions,
            reference,
            "gpu independent {cfg:?}"
        );
        assert_eq!(
            gpu::hybrid::run_hybrid(&gpu_sim, &layout, queries).unwrap().predictions,
            reference,
            "gpu hybrid {cfg:?}"
        );
        assert_eq!(
            gpu::collaborative::run_collaborative(&gpu_sim, &layout, queries).unwrap().predictions,
            reference,
            "gpu collaborative {cfg:?}"
        );
        assert_eq!(
            fpga::independent::run_independent(&fcfg, replicated, &layout, queries)
                .unwrap()
                .predictions,
            reference,
            "fpga independent {cfg:?}"
        );
        assert_eq!(
            fpga::hybrid::run_hybrid(&fcfg, single, &layout, queries).unwrap().predictions,
            reference,
            "fpga hybrid {cfg:?}"
        );
        assert_eq!(
            fpga::hybrid::run_hybrid_split(&fcfg, &layout, queries, 10, 245.0).unwrap().predictions,
            reference,
            "fpga hybrid split {cfg:?}"
        );
        assert_eq!(
            fpga::collaborative::run_collaborative(&fcfg, single, &layout, queries)
                .unwrap()
                .predictions,
            reference,
            "fpga collaborative {cfg:?}"
        );
    }
}

#[test]
fn covertype_like_pipeline() {
    pipeline(DatasetKind::CovertypeLike, 10);
}

#[test]
fn susy_like_pipeline() {
    pipeline(DatasetKind::SusyLike, 8);
}

#[test]
fn higgs_like_pipeline() {
    pipeline(DatasetKind::HiggsLike, 9);
}

#[test]
fn mixture_pipeline() {
    pipeline(DatasetKind::Mixture, 7);
}

/// Serialization round-trips compose with layouts: a forest persisted and
/// reloaded produces identical layouts and predictions.
#[test]
fn persistence_preserves_layouts() {
    let data = DatasetSpec::scaled(DatasetKind::Mixture, 3_000).generate();
    let tc = TrainConfig { n_trees: 8, max_depth: 8, seed: 5, ..TrainConfig::default() };
    let forest = RandomForest::fit(&data, &tc).unwrap();
    let mut buf = Vec::new();
    rfx::forest::serialize::write_forest(&forest, &mut buf).unwrap();
    let reloaded = rfx::forest::serialize::read_forest(buf.as_slice()).unwrap();
    assert_eq!(forest, reloaded);
    let a = build_forest(&forest, HierConfig::uniform(4)).unwrap();
    let b = build_forest(&reloaded, HierConfig::uniform(4)).unwrap();
    assert_eq!(a, b);
}
