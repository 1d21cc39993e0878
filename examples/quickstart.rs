//! Quickstart: train a random forest, lay it out hierarchically, and
//! classify on the simulated GPU and FPGA.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rfx::core::hier::builder::build_forest;
use rfx::core::{CsrForest, HierConfig, TreeEnsemble};
use rfx::data::synthetic::mixture::{generate, MixtureConfig};
use rfx::data::train_test_split;
use rfx::forest::metrics::accuracy;
use rfx::forest::train::TrainConfig;
use rfx::forest::RandomForest;
use rfx::fpga::{FpgaConfig, Replication};
use rfx::gpu::{GpuConfig, GpuSim};
use rfx::kernels::{fpga, gpu};

fn main() {
    // 1. Data: a synthetic 8-feature, 2-class problem.
    let dataset = generate(&MixtureConfig::default(), 20_000, 42);
    let (train, test) = train_test_split(&dataset, 0.5, 7);

    // 2. Train a forest (Gini, sqrt-features, bootstrap — scikit-learn's
    //    defaults, which the paper uses).
    let config = TrainConfig { n_trees: 40, max_depth: 12, seed: 1, ..TrainConfig::default() };
    let forest = RandomForest::fit(&train, &config).expect("training failed");
    let reference = forest.predict_batch_parallel(&test);
    println!(
        "trained {} trees, max depth {}, {} nodes; test accuracy {:.1}%",
        forest.num_trees(),
        forest.max_depth(),
        forest.total_nodes(),
        100.0 * accuracy(&reference, test.labels())
    );

    // 3. Lay the forest out: CSR baseline and the paper's hierarchical
    //    format (subtree depth 6, root subtree depth 8).
    let csr = CsrForest::build(&forest);
    let hier = build_forest(&forest, HierConfig::with_root(6, 8)).expect("layout failed");
    let stats = hier.stats();
    println!(
        "hierarchical layout: {} subtrees, {} slots ({} padding), {:.2}x CSR footprint",
        stats.num_subtrees,
        stats.total_slots,
        stats.pad_slots,
        hier.footprint().ratio_to(&csr.footprint())
    );

    // 4. Classify on the simulated Titan Xp with the hybrid kernel.
    let sim = GpuSim::new(GpuConfig::titan_xp());
    let queries = (&test).into();
    let csr_run = gpu::csr::run_csr(&sim, &csr, queries);
    let hybrid = gpu::hybrid::run_hybrid(&sim, &hier, queries).expect("hybrid launch failed");
    assert_eq!(hybrid.predictions, reference, "kernels are exact");
    println!(
        "GPU: CSR {:.3} ms, hybrid {:.3} ms -> {:.1}x speedup ({} vs {} load transactions)",
        1e3 * csr_run.stats.device_seconds,
        1e3 * hybrid.stats.device_seconds,
        csr_run.stats.device_seconds / hybrid.stats.device_seconds,
        csr_run.stats.global_load_transactions,
        hybrid.stats.global_load_transactions,
    );

    // 5. And on the simulated Alveo U250 with the independent kernel,
    //    single compute unit vs full 4-SLR replication.
    let fcfg = FpgaConfig::alveo_u250();
    let single =
        fpga::independent::run_independent(&fcfg, Replication::single(&fcfg), &hier, queries)
            .expect("fpga kernel failed");
    let replicated =
        fpga::independent::run_independent(&fcfg, Replication::new(&fcfg, 4, 12), &hier, queries)
            .expect("fpga kernel failed");
    assert_eq!(single.predictions, reference);
    println!(
        "FPGA: independent II={} — 1 CU {:.3} s, 48 CUs {:.3} s ({:.1}x scaling, {:.0}% stall)",
        single.ii_label,
        single.stats.seconds,
        replicated.stats.seconds,
        single.stats.seconds / replicated.stats.seconds,
        100.0 * replicated.stats.stall_fraction,
    );
}
