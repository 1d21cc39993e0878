//! Fraud scoring: a latency-sensitive deployment scenario.
//!
//! The paper's introduction motivates fast RF *classification* with
//! applications like banking fraud detection: models are trained rarely
//! but must score transaction streams continuously. This example builds a
//! fraud-like dataset (rare positive class, planted deep structure),
//! trains a deep forest, and compares the scoring engines end to end:
//! the unified `Predictor` engines (row-parallel and tree-sharded) over
//! every layout, and the simulated accelerators.
//!
//! ```sh
//! cargo run --release --example fraud_scoring
//! ```

use rfx::core::hier::builder::build_forest;
use rfx::core::{BlockForest, FilForest, HierConfig};
use rfx::data::synthetic::planted::{bayes_accuracy, generate, PlantedConfig};
use rfx::data::train_test_split;
use rfx::forest::metrics::{accuracy, ConfusionMatrix};
use rfx::forest::train::TrainConfig;
use rfx::forest::RandomForest;
use rfx::gpu::{GpuConfig, GpuSim};
use rfx::kernels::{cpu, gpu, Predictor, RowParallel, ShardedEngine};
use std::time::Instant;

fn main() {
    // Transaction-like data: 24 features, deep interaction structure.
    let cfg = PlantedConfig {
        num_features: 24,
        plant_depth: 16,
        drift: 1.4,
        sharpness: 1.2,
        decay: 0.88,
        plant_seed: 0xF4A0D,
    };
    let data = generate(&cfg, 60_000, 9);
    let (train, test) = train_test_split(&data, 0.5, 3);

    let tc = TrainConfig { n_trees: 60, max_depth: 20, seed: 2, ..TrainConfig::default() };
    let forest = RandomForest::fit(&train, &tc).expect("training failed");
    let queries = (&test).into();
    let truth = test.labels();

    // Reference scoring + quality report.
    let reference = cpu::predict_reference(&forest, queries);
    let cm = ConfusionMatrix::build(&reference, truth, 2);
    println!(
        "model: {} trees, depth {} | accuracy {:.1}% (Bayes ceiling {:.1}%)  precision {:.2}  recall {:.2}",
        forest.num_trees(),
        forest.max_depth(),
        100.0 * accuracy(&reference, truth),
        100.0 * bayes_accuracy(&cfg, 20_000),
        cm.precision(1).unwrap_or(f64::NAN),
        cm.recall(1).unwrap_or(f64::NAN),
    );

    // CPU engines, wall-clock.
    let blocks = BlockForest::build(&forest).expect("layout failed");
    let fil = FilForest::build(&forest);
    let hier = build_forest(&forest, HierConfig::with_root(6, 10)).expect("layout failed");
    let n = test.num_rows() as f64;
    let time = |name: &str, f: &dyn Fn() -> Vec<u32>| {
        let start = Instant::now();
        let preds = f();
        let el = start.elapsed().as_secs_f64();
        assert_eq!(preds, reference, "{name} diverged");
        println!("cpu/{name:12} {:8.1} kqueries/s", n / el / 1e3);
    };
    time("row-parallel", &|| RowParallel::new(&forest).predict(queries));
    time("blocks", &|| ShardedEngine::new(&blocks).predict(queries));
    time("fil", &|| ShardedEngine::new(&fil).predict(queries));
    time("hierarchical", &|| ShardedEngine::new(&hier).predict(queries));
    time("sharded", &|| ShardedEngine::new(&forest).predict(queries));

    // Simulated accelerator: hybrid kernel on a Titan Xp slice.
    let sim = GpuSim::new(GpuConfig::titan_xp_slice());
    let run = gpu::hybrid::run_hybrid(&sim, &hier, queries).expect("launch failed");
    assert_eq!(run.predictions, reference);
    println!(
        "gpu(sim)/hybrid  {:8.1} kqueries/s modeled (full device), branch efficiency {:.2}",
        30.0 * n / run.stats.device_seconds / 1e3,
        run.stats.branch_efficiency(),
    );
}
