//! Seeded chaos harness for the rfx-serve resilience layer.
//!
//! Runs a deterministic single-inflight request stream against a service
//! whose gpu-sim backend is wrapped in a seeded [`FaultPlan`] (periodic
//! refusals, corruption, over-timeout delays, and a wedge burst), then
//! proves three things the CI `chaos-smoke` job gates on:
//!
//! 1. **Reproducibility** — the whole scenario runs twice with the same
//!    seed; the ticket-outcome counts (ok / recovered / shed / failed /
//!    retries) and the per-backend breaker transition sequences must be
//!    identical between runs. Faults fire on per-backend attempt
//!    sequence numbers, injected delays are *virtual*, and breaker
//!    cooldowns count dispatches, so nothing depends on wall-clock
//!    noise.
//! 2. **No lost tickets** — every submitted request resolves to exactly
//!    one terminal outcome (Ok / Shed / BackendFailed); the counts are
//!    asserted to add up in-process (a zero baseline cannot gate a
//!    ratio in `bench_compare`, so the bin enforces it directly).
//! 3. **Delivered correctness** — every `Ok` ticket's labels are
//!    bit-identical to `predict_reference` on the CPU — for the model
//!    version that served the ticket: halfway through the stream a
//!    second forest is published and hot-swapped in while the fault
//!    plan keeps firing, and each delivered ticket must match its own
//!    served version's oracle exactly (faults, retries, and breaker
//!    state all survive the swap because fault sequencing is keyed to
//!    the executor slot, not the model).
//!
//! The determinism hinges on the harness shape: requests are submitted
//! sequentially (submit → wait → next), each sized exactly to
//! `max_batch_size` so the batcher size-flushes one request per batch —
//! one batch in flight at a time, so dispatch sequence numbers, fault
//! schedules, and breaker transitions replay exactly.
//!
//! Writes `bench_results/chaos-<scale>.json`; the `[label, value]` gate
//! pairs in it are lower-better for `bench_compare` (`--seed N`
//! overrides the default seed).

use rfx_bench::harness::{write_json, Table};
use rfx_bench::scale::Scale;
use rfx_bench::workloads::synthetic_workload;
use rfx_forest::dataset::QueryView;
use rfx_fpga_sim::FpgaConfig;
use rfx_gpu_sim::GpuConfig;
use rfx_kernels::cpu::predict_reference;
use rfx_serve::{
    BackendKind, BreakerConfig, FaultKind, FaultPlan, FaultSchedule, ResilienceConfig, RfxServe,
    SchedulePolicy, ServeConfig, ServeError, ServeModel,
};
use serde::Serialize;
use std::time::Duration;

const ROWS_PER_REQUEST: usize = 8;

/// Everything a chaos run must reproduce bit-for-bit under one seed.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct ChaosOutcome {
    requests: usize,
    ok: u64,
    recovered: u64,
    shed: u64,
    failed: u64,
    retries: u64,
    timeouts_gpu: u64,
    injected_faults_gpu: u64,
    breaker_trips_gpu: u64,
    breaker_transitions_gpu: Vec<String>,
    /// Delivered tickets served by v1 (before the mid-run hot swap).
    ok_v1: u64,
    /// Delivered tickets served by v2 (after the mid-run hot swap).
    ok_v2: u64,
    /// Registry activations observed (exactly one mid-run swap).
    swaps: u64,
    /// Ok-ticket rows whose labels differ from the CPU oracle (must be 0).
    label_mismatch_rows: usize,
    /// Tickets that resolved to no terminal outcome (must be 0).
    lost_tickets: usize,
}

/// The JSON artifact. `gates` holds `[label, value]` lower-better pairs
/// for `bench_compare`; counts that must be exactly zero are asserted
/// in-process instead (a zero baseline cannot gate a ratio).
#[derive(Serialize)]
struct ChaosReport {
    seed: u64,
    scale: String,
    outcome: ChaosOutcome,
    gates: Vec<(String, f64)>,
}

/// The scenario's fault plan, targeting the gpu-sim backend only (the
/// cpu-sharded last resort stays fault-free, as in the real deployment
/// story: plain memory does not wedge).
fn fault_plan(seed: u64) -> FaultPlan {
    let gpu = BackendKind::GpuSimHybrid;
    FaultPlan::new(seed)
        // A 9-attempt wedge burst: with 2 retries per backend each
        // wedged batch burns 3 attempts x 100 ms virtual timeout, blows
        // the 250 ms deadline, and is shed — and the consecutive
        // failures trip the gpu breaker.
        .on(gpu, FaultSchedule::Burst { from: 40, len: 9 }, FaultKind::Wedge)
        // Periodic single faults: the immediate same-backend retry lands
        // on the next attempt number and recovers.
        .on(gpu, FaultSchedule::Every { n: 7, offset: 3 }, FaultKind::Fail)
        .on(gpu, FaultSchedule::Every { n: 11, offset: 5 }, FaultKind::Corrupt)
        // 150 ms virtual delay > 100 ms timeout: a retryable timeout.
        .on(gpu, FaultSchedule::Every { n: 13, offset: 1 }, FaultKind::Delay { us: 150_000 })
        // 40 ms virtual delay < timeout: succeeds late, nothing to do.
        .on(gpu, FaultSchedule::Every { n: 17, offset: 9 }, FaultKind::Delay { us: 40_000 })
}

fn run_once(seed: u64, requests: usize) -> ChaosOutcome {
    // The model/query seed is independent of the fault seed so `--seed`
    // varies the chaos, not the workload.
    let w = synthetic_workload(8, 12, requests * ROWS_PER_REQUEST, 16, 0x5EED);
    let queries = QueryView::new(w.queries.raw_features(), w.queries.num_features()).unwrap();
    let oracle_v1 = predict_reference(&w.forest, queries);
    // The refresh forest hot-swapped in at the halfway mark: same shape
    // (feature width, class count), different trees — so a ticket served
    // by the wrong version is visible as an oracle mismatch.
    let w2 = synthetic_workload(8, 12, ROWS_PER_REQUEST, 16, 0x5EED ^ 0xF00D);
    let oracle_v2 = predict_reference(&w2.forest, queries);
    let model = ServeModel::with_devices(w.forest, GpuConfig::tiny_test(), FpgaConfig::tiny_test())
        .expect("tiny synthetic forest fits tiny devices");

    let serve = RfxServe::start(
        model,
        ServeConfig {
            // One request == one size-flushed batch == one in flight.
            max_batch_size: ROWS_PER_REQUEST,
            max_batch_delay: Duration::from_millis(50),
            backends: vec![BackendKind::CpuSharded, BackendKind::GpuSimHybrid],
            policy: SchedulePolicy::Fixed(BackendKind::GpuSimHybrid),
            // Probes would advance the fault plan's attempt counters.
            seed_probe_rows: 0,
            resilience: ResilienceConfig {
                timeout: Duration::from_millis(100),
                max_retries: 2,
                // No backoff sleeps: chaos time is virtual.
                backoff_base: Duration::ZERO,
                request_deadline: Some(Duration::from_millis(250)),
                breaker: BreakerConfig {
                    window: 8,
                    min_samples: 4,
                    failure_rate: 0.5,
                    cooldown_dispatches: 6,
                },
                seed,
                ..ResilienceConfig::default()
            },
            fault_plan: Some(fault_plan(seed)),
            ..ServeConfig::default()
        },
    );

    let nf = serve.num_features();
    let (mut ok, mut shed, mut failed, mut lost) = (0u64, 0u64, 0u64, 0usize);
    let (mut ok_v1, mut ok_v2) = (0u64, 0u64);
    let mut label_mismatch_rows = 0usize;
    for req in 0..requests {
        // Mid-run hot swap: publish the refresh forest and activate it
        // while the fault plan keeps firing. The harness is sequential,
        // so the swap point is exact: the next dispatched batch serves
        // on v2, and the slot-keyed fault/breaker state carries over.
        if req == requests / 2 {
            let v2 = serve.publish_forest(w2.forest.clone()).expect("same-shape refresh forest");
            serve.activate(v2).expect("published version activates");
        }
        let lo = req * ROWS_PER_REQUEST;
        let rows = &w.queries.raw_features()[lo * nf..(lo + ROWS_PER_REQUEST) * nf];
        let ticket = serve.submit_micro_batch(rows).expect("sequential load never overflows");
        match ticket.wait() {
            Ok(labels) => {
                ok += 1;
                let version = ticket.served_version().expect("delivered ticket has a version");
                let oracle = match version.get() {
                    1 => {
                        ok_v1 += 1;
                        &oracle_v1
                    }
                    _ => {
                        ok_v2 += 1;
                        &oracle_v2
                    }
                };
                let expected = &oracle[lo..lo + ROWS_PER_REQUEST];
                label_mismatch_rows += labels.iter().zip(expected).filter(|(a, b)| a != b).count();
            }
            Err(ServeError::Shed { .. }) => shed += 1,
            Err(ServeError::BackendFailed { .. }) => failed += 1,
            Err(other) => {
                eprintln!("chaos_bench: unexpected terminal outcome {other}");
                lost += 1;
            }
        }
    }

    let stats = serve.shutdown();
    let gpu = stats
        .backends
        .iter()
        .find(|b| b.backend == BackendKind::GpuSimHybrid.name())
        .expect("gpu backend in pool");
    // Conservation: every ticket has exactly one terminal outcome.
    lost += requests - (ok + shed + failed) as usize - lost;
    ChaosOutcome {
        requests,
        ok,
        recovered: stats.recovered_batches,
        shed,
        failed,
        retries: stats.retries,
        timeouts_gpu: gpu.timeouts,
        injected_faults_gpu: gpu.injected_faults,
        breaker_trips_gpu: gpu.breaker_trips,
        breaker_transitions_gpu: gpu.breaker_transitions.clone(),
        ok_v1,
        ok_v2,
        swaps: stats.model.swaps,
        label_mismatch_rows,
        lost_tickets: lost,
    }
}

fn main() {
    let scale = Scale::from_args();
    let seed = rfx_bench::args::u64_or("seed", 0xC0FFEE);
    let requests = match scale {
        Scale::Tiny => 120,
        Scale::Default => 400,
        Scale::Full => 1200,
    };

    let first = run_once(seed, requests);
    let second = run_once(seed, requests);
    assert_eq!(first, second, "chaos run is not reproducible: two runs with seed {seed} diverged");

    // Hard invariants the harness itself proves (zero baselines cannot
    // be gated as ratios by bench_compare, so they are enforced here —
    // CI fails on the panic, not on a comparison).
    assert_eq!(first.lost_tickets, 0, "tickets lost under chaos");
    assert_eq!(first.label_mismatch_rows, 0, "delivered labels diverged from the CPU oracle");
    assert_eq!(first.failed, 0, "the fault-free last resort must absorb every failure");
    // The scenario is built to exercise every recovery path: if any of
    // these is zero the plan stopped covering what it claims to cover.
    assert!(first.recovered > 0, "no batch recovered via retry");
    assert!(first.shed > 0, "the wedge burst shed nothing");
    assert!(first.breaker_trips_gpu > 0, "the gpu breaker never tripped");
    assert!(first.injected_faults_gpu > 0, "the fault plan injected nothing");
    // The hot swap happened exactly once mid-run and both versions
    // delivered traffic with their own oracle-exact labels.
    assert_eq!(first.swaps, 1, "expected exactly one mid-run activation");
    assert!(first.ok_v1 > 0 && first.ok_v2 > 0, "both model versions must deliver tickets");

    let shed_rate_pct = 100.0 * first.shed as f64 / first.requests as f64;
    let retry_rate_pct = 100.0 * first.retries as f64 / first.requests as f64;

    let mut table = Table::new(
        &format!("chaos_bench: seed {seed}, {requests} requests x {ROWS_PER_REQUEST} rows"),
        &["outcome", "count"],
    );
    for (k, v) in [
        ("ok", first.ok),
        ("ok on v1 (pre-swap)", first.ok_v1),
        ("ok on v2 (post-swap)", first.ok_v2),
        ("recovered (subset of ok)", first.recovered),
        ("shed", first.shed),
        ("failed", first.failed),
        ("retries", first.retries),
        ("gpu timeouts", first.timeouts_gpu),
        ("gpu injected faults", first.injected_faults_gpu),
        ("gpu breaker trips", first.breaker_trips_gpu),
    ] {
        table.row(vec![k.to_string(), v.to_string()]);
    }
    table.print();
    println!("gpu breaker transitions: {}", first.breaker_transitions_gpu.join(" "));
    println!("shed rate: {shed_rate_pct:.2}% | retry rate: {retry_rate_pct:.2}%");

    let report = ChaosReport {
        seed,
        scale: scale.label().to_string(),
        gates: vec![
            ("shed_rate_pct".to_string(), shed_rate_pct),
            ("retry_rate_pct".to_string(), retry_rate_pct),
        ],
        outcome: first,
    };
    write_json("chaos", scale.label(), &report);
}
