//! Calls into single layers: the engine passes and simulator launches
//! every round makes, and the one-off per-layer measurements only a
//! traced run adds.

use crate::inputs::{Inputs, CALIBRATION_ROWS};
use crate::ledger::Ledger;
use crate::spans::{SpanId, SpanLog};
use crate::stack::Stack;
use crate::stats::median;
use rfx_core::pack::{FrequencyProfile, PackPlan, PackedQFilForest};
use rfx_core::{CsrForest, HierForest};
use rfx_forest::dataset::QueryView;
use rfx_fpga_sim::{FpgaConfig, Replication};
use rfx_gpu_sim::{GpuConfig, GpuSim};
use rfx_kernels::cpu::predict_reference;
use rfx_kernels::{fpga, gpu, Predictor, RowParallel, ShardedEngine, TreeEnsemble, VotePolicy};
use rfx_telemetry::Telemetry;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The four engine layouts of the end-to-end list, in pass order.
pub const LAYOUT_NAMES: [&str; 4] = ["hier", "fil", "qfil8", "packed_fil"];

/// One of the four engine layouts.
pub struct Layout<'a> {
    /// Its entry of [`LAYOUT_NAMES`].
    pub name: &'static str,
    pub span: &'static str,
    pub engine: Box<dyn Predictor + 'a>,
    pub oracle: &'a [u32],
    pub bytes: usize,
}

/// All threads, auto plan, exact votes: what `ShardedEngine::new` gives
/// a caller who sets nothing.
pub fn layouts<'a>(stack: &'a Stack, inputs: &'a Inputs) -> [Layout<'a>; 4] {
    let hier: Arc<HierForest> = Arc::clone(stack.model.hier());
    [
        Layout {
            name: LAYOUT_NAMES[0],
            span: "kernels.hier.pass",
            bytes: hier.footprint().total(),
            engine: Box::new(ShardedEngine::new(hier)),
            oracle: &inputs.oracle_a,
        },
        Layout {
            name: LAYOUT_NAMES[1],
            span: "kernels.fil.pass",
            bytes: stack.fil.footprint().total(),
            engine: Box::new(ShardedEngine::new(&stack.fil)),
            oracle: &inputs.oracle_a,
        },
        Layout {
            name: LAYOUT_NAMES[2],
            span: "kernels.qfil8.pass",
            bytes: stack.qfil8.footprint().total(),
            engine: Box::new(ShardedEngine::new(&stack.qfil8)),
            oracle: &inputs.oracle_a_q8,
        },
        Layout {
            name: LAYOUT_NAMES[3],
            span: "kernels.packed_fil.pass",
            bytes: stack.packed_fil.footprint().total(),
            engine: Box::new(ShardedEngine::new(&stack.packed_fil)),
            oracle: &inputs.oracle_a,
        },
    ]
}

/// Both hybrid launches of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimRound {
    pub gpu_device_s: f64,
    pub gpu_host_s: f64,
    pub gpu_cycles: u64,
    pub gpu_global_loads: u64,
    pub gpu_l2_misses: u64,
    pub fpga_device_s: f64,
    pub fpga_host_s: f64,
    pub fpga_stall_fraction: f64,
    pub fpga_ext_read_bytes: u64,
    /// Launches whose predictions differed from the oracle or that the
    /// device refused, out of two.
    pub bad: u64,
}

/// The simulated devices every harness of the repo uses: a one-SM slice
/// of the Titan Xp and the Alveo U250 at 4 SLRs × 12 CUs.
fn devices() -> (GpuSim, FpgaConfig, Replication) {
    let fpga = FpgaConfig::alveo_u250();
    (GpuSim::new(GpuConfig::titan_xp_slice()), fpga, Replication::new(&fpga, 4, 12))
}

fn sim_queries(inputs: &Inputs) -> (QueryView<'_>, &[u32]) {
    let rows = CALIBRATION_ROWS.min(inputs.rows());
    (inputs.queries(rows), &inputs.oracle_a[..rows])
}

pub fn sim_round(stack: &Stack, inputs: &Inputs, spans: &SpanLog, parent: SpanId) -> SimRound {
    let (gpu_sim, fpga_cfg, rep) = devices();
    let (queries, oracle) = sim_queries(inputs);
    let hier = stack.model.hier();
    let (g, gpu_host_s) =
        spans.timed("gpu-sim.hybrid", parent, |_| gpu::hybrid::run_hybrid(&gpu_sim, hier, queries));
    let (f, fpga_host_s) = spans.timed("fpga-sim.hybrid", parent, |_| {
        fpga::hybrid::run_hybrid(&fpga_cfg, rep, hier, queries)
    });
    let mut round = SimRound {
        gpu_device_s: f64::NAN,
        gpu_host_s,
        gpu_cycles: 0,
        gpu_global_loads: 0,
        gpu_l2_misses: 0,
        fpga_device_s: f64::NAN,
        fpga_host_s,
        fpga_stall_fraction: f64::NAN,
        fpga_ext_read_bytes: 0,
        bad: 0,
    };
    match g {
        Ok(run) if run.predictions == oracle => {
            round.gpu_device_s = run.stats.device_seconds;
            round.gpu_cycles = run.stats.device_cycles;
            round.gpu_global_loads = run.stats.global_load_transactions;
            round.gpu_l2_misses = run.stats.l2_misses;
        }
        _ => round.bad += 1,
    }
    match f {
        Ok(run) if run.predictions == oracle => {
            round.fpga_device_s = run.stats.seconds;
            round.fpga_stall_fraction = run.stats.stall_fraction;
            round.fpga_ext_read_bytes = run.stats.ext_read_bytes;
        }
        _ => round.bad += 1,
    }
    round
}

/// Iterations of the calibration spin (about 30 ms at 2 GHz).
const CALIBRATION_SPIN: u64 = 16_000_000;

/// A fixed dependent integer chain: nanoseconds per iteration. Nothing
/// of the product runs here; the spread of this number over a run is
/// how noisy the machine was while the other numbers were taken.
pub fn calibration_ns() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..CALIBRATION_SPIN {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e9 / CALIBRATION_SPIN as f64
}

/// Median seconds of `n` calls of `f`.
fn median_call_s(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The engine `ShardedEngine::with_policy` would run for this batch,
/// pinned to one thread. A pinned plan keeps a packed layout's own
/// shard boundaries only when it carries a pack plan.
fn one_thread<E: TreeEnsemble>(
    layout: E,
    rows: usize,
    policy: VotePolicy,
    packed: bool,
) -> ShardedEngine<E> {
    let auto = ShardedEngine::with_policy(&layout, policy).plan_for(rows);
    let mut plan = auto.to_builder().threads(1);
    if packed {
        plan = plan.pack(PackPlan::default());
    }
    ShardedEngine::with_plan(layout, plan.build().expect("an auto plan re-validates"))
}

/// The per-layer measurements that are taken once, outside the rounds.
/// Returns the number of oracle mismatches.
pub fn one_offs(
    stack: &Stack,
    inputs: &Inputs,
    spans: &SpanLog,
    parent: SpanId,
    ledger: &mut Ledger,
) -> u64 {
    let rows = inputs.rows();
    let queries = inputs.queries(rows);
    let forest = stack.model.forest();
    let trees = forest.num_trees();
    let per_row_tree = |seconds: f64| seconds * 1e9 / (rows * trees) as f64;
    let mut bad = 0;
    let mut out = vec![0u32; rows];

    let (labels, reference_s) =
        spans.timed("forest.reference", parent, |_| predict_reference(forest, queries));
    bad += u64::from(labels != inputs.oracle_a);
    ledger.put("forest.reference_rows_per_s", rows as f64 / reference_s, 1);

    let profile = FrequencyProfile::collect(forest, inputs.queries(CALIBRATION_ROWS.min(rows)));
    let packed_qfil8 = PackedQFilForest::<u8>::build(forest, &profile, PackPlan::default())
        .expect("generated forests fit the packed u8 budgets");
    let early_exit = VotePolicy::EarlyExit { slack: 0 };
    let hier = stack.model.hier().as_ref();
    let exact = VotePolicy::Exact;
    let singles: [(&str, Box<dyn Predictor + '_>, &[u32]); 8] = [
        ("hier", Box::new(one_thread(hier, rows, exact, false)), &inputs.oracle_a),
        ("fil", Box::new(one_thread(&stack.fil, rows, exact, false)), &inputs.oracle_a),
        ("qfil8", Box::new(one_thread(&stack.qfil8, rows, exact, false)), &inputs.oracle_a_q8),
        (
            "packed_fil",
            Box::new(one_thread(&stack.packed_fil, rows, exact, true)),
            &inputs.oracle_a,
        ),
        (
            "packed_qfil8",
            Box::new(one_thread(&packed_qfil8, rows, exact, true)),
            &inputs.oracle_a_q8,
        ),
        ("nodevec", Box::new(one_thread(forest.as_ref(), rows, exact, false)), &inputs.oracle_a),
        (
            "fil.bit_sliced",
            Box::new(one_thread(&stack.fil, rows, VotePolicy::BitSliced, false)),
            &inputs.oracle_a,
        ),
        (
            "fil.early_exit",
            Box::new(one_thread(&stack.fil, rows, early_exit, false)),
            &inputs.oracle_a,
        ),
    ];
    spans.timed("kernels.one_thread", parent, |_| {
        for (name, engine, oracle) in &singles {
            let s = median_call_s(3, || engine.predict_into(queries, &mut out));
            bad += u64::from(out != **oracle);
            ledger.put(format!("kernels.{name}.ns_per_row_tree_1t"), per_row_tree(s), 3);
        }
    });
    spans.timed("kernels.row_parallel", parent, |_| {
        let engine = RowParallel::new(forest.as_ref());
        let s = median_call_s(3, || engine.predict_into(queries, &mut out));
        bad += u64::from(out != inputs.oracle_a);
        ledger.put("kernels.row_parallel.ns_per_row_tree", per_row_tree(s), 3);
    });
    spans.timed("kernels.small_batches", parent, |_| {
        let engine = ShardedEngine::new(hier);
        for (name, batch, calls) in [("batch4", 4, 200), ("batch256", 256, 50)] {
            let batch = batch.min(rows);
            let s = median_call_s(calls, || {
                engine.predict_into(inputs.queries(batch), &mut out[..batch]);
            });
            bad += u64::from(out[..batch] != inputs.oracle_a[..batch]);
            ledger.put(format!("kernels.hier.{name}_us"), s * 1e6, calls);
        }
        let plan = engine.plan_for(rows);
        ledger.put("kernels.plan.shard_trees", plan.shard_trees() as f64, 1);
        ledger.put("kernels.plan.query_block", plan.query_block() as f64, 1);
        ledger.put("kernels.plan.threads", plan.threads() as f64, 1);
    });

    spans.timed("sims.baselines", parent, |_| {
        let (gpu_sim, fpga_cfg, rep) = devices();
        let (q, oracle) = sim_queries(inputs);
        let csr = CsrForest::build(forest);
        let mut put = |name: &str, predictions: &[u32], device_s: f64| {
            bad += u64::from(predictions != oracle);
            ledger.put(name, device_s, 1);
        };
        let run = gpu::csr::run_csr(&gpu_sim, &csr, q);
        put("gpu-sim.csr.device_s", &run.predictions, run.stats.device_seconds);
        let run = gpu::fil::run_fil(&gpu_sim, &stack.fil, q);
        put("gpu-sim.fil.device_s", &run.predictions, run.stats.device_seconds);
        let run = gpu::independent::run_independent(&gpu_sim, hier, q);
        put("gpu-sim.independent.device_s", &run.predictions, run.stats.device_seconds);
        let run = fpga::csr::run_csr(&fpga_cfg, rep, &csr, q);
        put("fpga-sim.csr.device_s", &run.predictions, run.stats.seconds);
        match fpga::independent::run_independent(&fpga_cfg, rep, hier, q) {
            Ok(run) => put("fpga-sim.independent.device_s", &run.predictions, run.stats.seconds),
            Err(_) => bad += 1,
        }
    });

    spans.timed("telemetry.microbench", parent, |_| {
        let tel = Telemetry::new();
        let per_call_ns = |calls: u32, f: &dyn Fn(u32)| {
            let start = Instant::now();
            (0..calls).for_each(f);
            start.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
        };
        let counter = tel.counter("bench.counter");
        ledger.put("telemetry.counter_ns", per_call_ns(200_000, &|_| counter.inc()), 200_000);
        let histogram = tel.histogram("bench.histogram_us");
        ledger.put(
            "telemetry.histogram_ns",
            per_call_ns(200_000, &|i| histogram.record(u64::from(i))),
            200_000,
        );
        ledger.put(
            "telemetry.span_ns",
            per_call_ns(50_000, &|_| drop(black_box(tel.start_span("bench.span")))),
            50_000,
        );
    });
    bad
}
