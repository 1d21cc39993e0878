//! Anchors to specific numbers and orderings the paper reports — the
//! "shape" contract of this reproduction.

use rfx::core::hier::builder::build_forest;
use rfx::core::{CsrForest, HierConfig, TreeEnsemble};
use rfx::data::specs::{DatasetKind, DatasetSpec};
use rfx::data::train_test_split;
use rfx::forest::train::TrainConfig;
use rfx::forest::RandomForest;
use rfx::fpga::ops::{chains, Op};
use rfx::fpga::{chain_ii, FpgaConfig, OnChipBudget, Replication};
use rfx::gpu::{GpuConfig, GpuSim};
use rfx::kernels::{fpga, gpu};

/// Table 3's measured initiation intervals fall out of the dependency
/// chains: CSR 292, independent 76, collaborative 3.
#[test]
fn initiation_intervals_match_table3() {
    let cfg = FpgaConfig::alveo_u250();
    assert_eq!(chain_ii(chains::CSR, &cfg), 292);
    assert_eq!(chain_ii(chains::INDEPENDENT, &cfg), 76);
    assert_eq!(chain_ii(chains::COLLABORATIVE, &cfg), 3);
    assert_eq!(chain_ii(chains::HYBRID_STAGE1, &cfg), 3);
    assert_eq!(chain_ii(chains::HYBRID_STAGE2, &cfg), 76);
    // §3.2.2: before moving query features to BRAM the independent chain
    // had an external query read — II 147.
    let pre_optimization: &[Op] =
        &[Op::ExtMemLoad, Op::ExtMemLoad, Op::Alu, Op::Compare, Op::Compare];
    assert_eq!(chain_ii(pre_optimization, &cfg), 147);
}

/// §2.3: a depth-30 tree cannot be buffered on chip (4.2 GB vs 13.5 MB),
/// while depth 18 fits — the motivating capacity argument.
#[test]
fn onchip_capacity_argument() {
    let cfg = FpgaConfig::alveo_u250();
    let mut budget = OnChipBudget::new(cfg.onchip_bytes_per_slr);
    assert!(budget.alloc(((1u64 << 30) - 1) * 6).is_err());
    assert!(budget.alloc(((1u64 << 18) - 1) * 6).is_ok());
}

/// §3.2.1: a root subtree past the 48 KB shared-memory budget is a launch
/// error on the GPU (RSD 13 at 6 B/node needs 49 KB).
#[test]
// Constant on purpose: the test IS the arithmetic claim from the paper.
#[allow(clippy::assertions_on_constants)]
fn shared_memory_caps_root_subtree_depth() {
    assert!(8191 * 6 < 48 * 1024, "RSD 13 (8191 nodes) squeaks in at 6 B/node");
    assert!(16383 * 6 > 48 * 1024, "RSD 14 cannot fit");
}

fn small_workload() -> (RandomForest, Vec<u32>, rfx::forest::Dataset) {
    let data = DatasetSpec::scaled(DatasetKind::SusyLike, 8_000).generate();
    let (train, test) = train_test_split(&data, 0.5, 3);
    let tc = TrainConfig { n_trees: 15, max_depth: 12, seed: 31, ..TrainConfig::default() };
    let forest = RandomForest::fit(&train, &tc).unwrap();
    let reference = forest.predict_batch_parallel(&test);
    (forest, reference, test)
}

/// Fig. 7 ordering on GPU: hybrid beats independent beats CSR.
#[test]
fn gpu_variant_ordering() {
    let (forest, reference, test) = small_workload();
    let qv = (&test).into();
    let sim = GpuSim::new(GpuConfig::titan_xp_slice());
    let csr = gpu::csr::run_csr(&sim, &CsrForest::build(&forest), qv);
    let layout = build_forest(&forest, HierConfig::with_root(6, 8)).unwrap();
    let ind = gpu::independent::run_independent(&sim, &layout, qv);
    let hyb = gpu::hybrid::run_hybrid(&sim, &layout, qv).unwrap();
    assert_eq!(csr.predictions, reference);
    assert!(ind.stats.device_seconds < csr.stats.device_seconds, "independent beats CSR");
    assert!(hyb.stats.device_seconds < ind.stats.device_seconds, "hybrid beats independent");
    // Fig. 8 mechanisms: fewer global loads, better branch efficiency.
    assert!(hyb.stats.global_load_transactions < ind.stats.global_load_transactions);
    assert!(hyb.stats.branch_efficiency() >= ind.stats.branch_efficiency() * 0.98);
}

/// Table 3 ordering on FPGA (single CU): hybrid < independent < CSR in
/// time, and replication scales the independent kernel ~25-48x.
#[test]
fn fpga_variant_ordering_and_scaling() {
    let (forest, reference, test) = small_workload();
    let qv = (&test).into();
    let cfg = FpgaConfig::alveo_u250();
    let single = Replication::single(&cfg);
    let layout = build_forest(&forest, HierConfig::with_root(6, 10)).unwrap();
    let csr = fpga::csr::run_csr(&cfg, single, &CsrForest::build(&forest), qv);
    let ind = fpga::independent::run_independent(&cfg, single, &layout, qv).unwrap();
    let hyb = fpga::hybrid::run_hybrid(&cfg, single, &layout, qv).unwrap();
    assert_eq!(hyb.predictions, reference);
    assert!(ind.stats.seconds < csr.stats.seconds);
    assert!(hyb.stats.seconds < ind.stats.seconds);

    let rep = Replication::new(&cfg, 4, 12);
    let ind48 = fpga::independent::run_independent(&cfg, rep, &layout, qv).unwrap();
    let scaling = ind.stats.seconds / ind48.stats.seconds;
    assert!((25.0..48.0).contains(&scaling), "independent 48-CU scaling {scaling}");
    // §4.4: the replicated hybrid loses to the replicated independent.
    let hyb48 = fpga::hybrid::run_hybrid(&cfg, rep, &layout, qv).unwrap();
    assert!(ind48.stats.seconds < hyb48.stats.seconds);
}

/// Fig. 10: the GPU outruns the FPGA by a large factor on equal workloads.
#[test]
fn gpu_beats_fpga() {
    let (forest, _, test) = small_workload();
    let qv = (&test).into();
    let layout = build_forest(&forest, HierConfig::with_root(6, 8)).unwrap();
    let sim = GpuSim::new(GpuConfig::titan_xp_slice());
    let hyb = gpu::hybrid::run_hybrid(&sim, &layout, qv).unwrap();
    let gpu_qps = 30.0 * test.num_rows() as f64 / hyb.stats.device_seconds;
    let cfg = FpgaConfig::alveo_u250();
    let ind48 =
        fpga::independent::run_independent(&cfg, Replication::new(&cfg, 4, 12), &layout, qv)
            .unwrap();
    let fpga_qps = test.num_rows() as f64 / ind48.stats.seconds;
    assert!(gpu_qps > 5.0 * fpga_qps, "gpu {gpu_qps:.0} q/s vs fpga {fpga_qps:.0} q/s");
}

/// Fig. 6 trend: on deep, ragged trees (the shape CART grows on large
/// data), the hierarchical footprint grows with SD and crosses CSR.
/// Shallow balanced forests need not follow the trend — padding is a
/// sparse-tree phenomenon — so the anchor uses ragged fixtures.
#[test]
fn footprint_trend() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfx::forest::DecisionTree;
    let mut rng = StdRng::seed_from_u64(7);
    let trees: Vec<DecisionTree> =
        (0..12).map(|_| DecisionTree::random(&mut rng, 22, 16, 2, 0.45)).collect();
    let forest = RandomForest::from_trees(trees, 16, 2).unwrap();
    let csr = CsrForest::build(&forest).footprint();
    let ratio =
        |sd: u8| build_forest(&forest, HierConfig::uniform(sd)).unwrap().footprint().ratio_to(&csr);
    let (r4, r6, r8) = (ratio(4), ratio(6), ratio(8));
    assert!(r4 < r6 && r6 < r8, "{r4} {r6} {r8}");
    assert!(r8 > 1.0, "SD 8 overshoots CSR: {r8}");
}
