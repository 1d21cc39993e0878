//! The sharded engine with its memory tracer on: the `kernels.perf.*`
//! schema it exports, what the cache model sees of the layouts, and that
//! the counts do not depend on the run (`memtrace_sampling.rs` checks a
//! period above one). With `RFX_MEMTRACE_SAMPLE=1` (trace every tile)
//! and a pinned thread count, two runs of the same workload must export
//! bit-identical `kernels.perf.*` snapshots — what makes `perf_report`'s
//! committed counter baseline trustworthy rather than flaky.
//!
//! A test binary of its own because `RFX_MEMTRACE_SAMPLE` is read once
//! per process: every test here sets it before its first batch, and no
//! other test binary sees it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::hier::builder::build_forest;
use rfx_core::pack::{FrequencyProfile, PackPlan, PackedFilForest};
use rfx_core::{FilForest, HierConfig, QFilForest};
use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, RandomForest};
use rfx_kernels::{EnginePlan, Predictor, ShardedEngine};
use rfx_telemetry::{perf, MetricsSnapshot, PerfCounters};

const NF: usize = 6;

/// Traces every tile; called by each test before its first batch.
fn trace_every_tile() {
    std::env::set_var("RFX_MEMTRACE_SAMPLE", "1");
}

/// `n_trees` random trees of depth up to `depth`, 4 classes, then
/// `rows` query rows, all drawn from one `seed`ed generator.
fn fixture(
    seed: u64,
    (n_trees, depth, leaf_prob): (usize, usize, f64),
    rows: usize,
) -> (RandomForest, Vec<f32>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees: Vec<DecisionTree> = (0..n_trees)
        .map(|_| DecisionTree::random(&mut rng, depth, NF as u16, 4, leaf_prob))
        .collect();
    let forest = RandomForest::from_trees(trees, NF, 4).unwrap();
    let queries: Vec<f32> = (0..rows * NF).map(|_| rng.gen()).collect();
    (forest, queries, rng)
}

/// Runs `pass` in a fresh scoped telemetry domain and returns its
/// metrics.
fn scoped_run(pass: impl FnOnce()) -> MetricsSnapshot {
    let tel = rfx_telemetry::Telemetry::new();
    {
        let root = tel.start_span("memtrace.pass");
        let _scope = tel.in_context(root.context());
        pass();
    }
    tel.metrics_snapshot()
}

/// One batch of `engine` over `queries` and the `kernels.perf.*` series
/// it exported, checked against the shared schema.
fn traced<P: Predictor + ?Sized>(engine: &P, queries: &[f32]) -> (MetricsSnapshot, PerfCounters) {
    let qv = QueryView::new(queries, NF).unwrap();
    let metrics = scoped_run(|| drop(engine.predict(qv)));
    perf::assert_schema(&metrics, "kernels");
    let perf = perf::read(&metrics, "kernels").unwrap();
    (metrics, perf)
}

#[test]
fn same_seed_runs_export_identical_perf_snapshots() {
    // Sampling must not depend on scheduling, and the merged counters
    // are sums, so thread interleaving cannot reorder them — but only a
    // pinned thread count makes the task split (and hence tile
    // population) identical across runs.
    trace_every_tile();
    let (forest, queries, _) = fixture(71, (24, 10, 0.2), 200);
    let queries = &queries[..];
    let plan = EnginePlan::builder().shard_trees(8).query_block(32).threads(2).build().unwrap();
    let values = |engine: &dyn Predictor| traced(engine, queries).1.counter_values().to_vec();

    let fil = FilForest::build(&forest);
    let engine = ShardedEngine::with_plan(&fil, plan);
    assert_eq!(values(&engine), values(&engine), "unpacked FIL counters must be run-invariant");

    // Same guarantee on the packed layout, including the byte-aware
    // shard bounds path.
    let qv = QueryView::new(queries, NF).unwrap();
    let profile = FrequencyProfile::collect(&forest, qv);
    let packed = PackedFilForest::build(&forest, &profile, PackPlan::default()).unwrap();
    let bounded = plan.to_builder().pack(PackPlan::default()).build().unwrap();
    let engine = ShardedEngine::with_plan(&packed, bounded);
    let first = values(&engine);
    assert_eq!(first, values(&engine), "packed FIL counters must be run-invariant");
    assert!(first.iter().any(|&v| v > 0), "the tracer must have observed fetches");
}

/// With the tracer on, the engine exports the complete shared perf
/// schema under the `kernels` domain and actually samples tiles. Traced
/// tiles count their walks and steps like the lanes do, so a per-walk
/// ratio of the tracer's counters has its denominator.
#[test]
fn mem_tracer_exports_the_full_perf_schema() {
    trace_every_tile();
    let (forest, queries, _) = fixture(41, (9, 8, 0.3), 300);
    let fil = FilForest::build(&forest);
    let (metrics, perf) = traced(&ShardedEngine::new(&fil), &queries);
    assert!(perf.l1_accesses > 0, "sampled tiles must observe fetches");
    assert_eq!(perf.l1_accesses, perf.l1_hits + perf.l1_misses);
    assert_eq!(perf.l2_accesses, perf.l1_misses, "L2 sees exactly the L1 misses");
    assert_eq!(perf.dram_transactions, perf.l2_misses);
    assert!(metrics.counter("kernels.memtrace.sampled_tiles").unwrap() > 0);
    assert!(metrics.gauge("kernels.perf.occupancy").unwrap() > 0.0);
    let walks = metrics.counter("kernels.sharded.walks");
    assert_eq!(walks, Some(300 * 9), "every (row, tree) pair of a traced tile is one walk");
    assert!(metrics.counter("kernels.sharded.steps").unwrap() >= 300 * 9);
}

/// The paper's own layout is traced like the others: every level reads
/// a slot's feature and its value, two attribute lines at least, so a
/// traced hierarchical engine probes more lines than twice its steps and
/// fills some from DRAM.
#[test]
fn hier_layout_exports_attribute_traffic() {
    trace_every_tile();
    let (forest, queries, _) = fixture(43, (9, 10, 0.2), 300);
    let hier = build_forest(&forest, HierConfig::with_root(3, 5)).unwrap();
    let (metrics, perf) = traced(&ShardedEngine::new(&hier), &queries);
    let steps = metrics.counter("kernels.sharded.steps").unwrap();
    assert!(steps >= 300 * 9, "every walk takes a step");
    assert!(perf.l1_accesses >= 2 * steps, "{} line probes for {steps} steps", perf.l1_accesses);
    assert!(perf.dram_transactions > 0, "a cold tile fills its lines from DRAM");
}

/// 48 trees of depth up to 14, far larger than the modeled L2, and 256
/// query rows; run under one whole-forest shard, every sampled tile
/// streams all trees, so the layouts' resident-byte difference is what
/// the caches see.
const BIG: (usize, usize, f64) = (48, 14, 0.1);

fn whole_forest_plan() -> EnginePlan {
    EnginePlan::builder().shard_trees(48).query_block(64).threads(2).build().unwrap()
}

/// The cache win the quantized layouts exist for, observed by the
/// tracer: the u8 QFil pack must take strictly fewer simulated L2 misses
/// (and DRAM transactions) than the f32 FIL layout under an identical
/// plan.
#[test]
fn qfil_u8_misses_less_than_fil_f32() {
    trace_every_tile();
    let (forest, queries, _) = fixture(53, BIG, 256);
    let plan = whole_forest_plan();
    let fil = FilForest::build(&forest);
    let qfil = QFilForest::<u8>::build(&forest).unwrap();
    let (_, fil_perf) = traced(&ShardedEngine::with_plan(&fil, plan), &queries);
    let (_, q_perf) = traced(&ShardedEngine::with_plan(&qfil, plan), &queries);
    assert!(
        q_perf.l2_misses < fil_perf.l2_misses,
        "qfil-u8 L2 misses {} must undercut fil-f32's {}",
        q_perf.l2_misses,
        fil_perf.l2_misses
    );
    assert!(q_perf.dram_transactions < fil_perf.dram_transactions);
}

/// The cache win packing exists for, observed by the tracer: same
/// comparisons, same uniform plan — only where they sit differs — yet
/// the pointer-free tops and the hot-first stream touch fewer distinct
/// lines per tile, so strictly fewer simulated L2 misses and DRAM
/// transactions.
#[test]
fn packed_fil_misses_less_than_unpacked_fil() {
    trace_every_tile();
    let (forest, queries, mut rng) = fixture(53, BIG, 256);
    let plan = whole_forest_plan();
    let calib: Vec<f32> = (0..128 * NF).map(|_| rng.gen()).collect();
    let profile = FrequencyProfile::collect(&forest, QueryView::new(&calib, NF).unwrap());
    let fil = FilForest::build(&forest);
    let packed = PackedFilForest::build(&forest, &profile, PackPlan::default()).unwrap();
    let (_, fil_perf) = traced(&ShardedEngine::with_plan(&fil, plan), &queries);
    let (_, p_perf) = traced(&ShardedEngine::with_plan(&packed, plan), &queries);
    assert!(
        p_perf.l2_misses < fil_perf.l2_misses,
        "packed-fil L2 misses {} must undercut unpacked fil's {}",
        p_perf.l2_misses,
        fil_perf.l2_misses
    );
    assert!(p_perf.dram_transactions < fil_perf.dram_transactions);
}
