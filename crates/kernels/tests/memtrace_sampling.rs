//! The memory tracer at a sampling period above one: the sample is keyed
//! by the tile (`block × shards + shard`), not by how many tiles one
//! participant has run, so which thread claims which block cannot move
//! it. A test binary of its own because `RFX_MEMTRACE_SAMPLE` is read
//! once per process, and the other tracer tests trace every tile.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::FilForest;
use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, RandomForest};
use rfx_kernels::{EnginePlan, ShardedEngine};
use rfx_telemetry::perf;
use std::sync::Arc;

/// However many participants claim the blocks, through either entry
/// point, the same tiles are traced — each from cold — so the exported
/// sums are the one-thread run's.
#[test]
fn sampled_tiles_do_not_depend_on_who_ran_the_blocks() {
    std::env::set_var("RFX_MEMTRACE_SAMPLE", "8");
    let mut rng = StdRng::seed_from_u64(41);
    let trees: Vec<DecisionTree> =
        (0..9).map(|_| DecisionTree::random(&mut rng, 8, 6, 4, 0.3)).collect();
    let forest = RandomForest::from_trees(trees, 6, 4).unwrap();
    let queries: Vec<f32> = (0..300 * 6).map(|_| rng.gen()).collect();
    let qv = QueryView::new(&queries, 6).unwrap();
    let fil = Arc::new(FilForest::build(&forest));
    let traced = |threads: usize, owned: bool| {
        // One shard, 19 blocks: tiles 0, 8 and 16 are sampled.
        let plan =
            EnginePlan::builder().shard_trees(9).query_block(16).threads(threads).build().unwrap();
        let engine = ShardedEngine::with_plan(Arc::clone(&fil), plan);
        let mut out = vec![0; 300];
        let tel = rfx_telemetry::Telemetry::new();
        {
            let root = tel.start_span("memtrace.pass");
            let _scope = tel.in_context(root.context());
            match owned {
                true => engine.predict_into_shared(qv, &mut out),
                false => rfx_kernels::Predictor::predict_into(&engine, qv, &mut out),
            }
        }
        let metrics = tel.metrics_snapshot();
        let perf = perf::read(&metrics, "kernels").unwrap();
        (metrics.counter("kernels.memtrace.sampled_tiles").unwrap(), perf.counter_values())
    };
    let alone = traced(1, false);
    assert_eq!(alone.0, 3);
    for threads in [2, 3] {
        for owned in [false, true] {
            assert_eq!(traced(threads, owned), alone, "threads={threads} owned={owned}");
        }
    }
}
