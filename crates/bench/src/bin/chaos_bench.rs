//! Seeded chaos harness for the rfx-serve resilience layer.
//!
//! Runs a deterministic single-inflight request stream against a service
//! whose pinned `cpu-sharded-q8` slot is wrapped in a seeded [`FaultPlan`]
//! (periodic refusals, corruption, over-timeout delays, and a wedge
//! burst) beside a fault-free `cpu-sharded` last resort, then proves
//! three things in-process:
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
//!    asserted to add up.
//! 3. **Delivered correctness** — every `Ok` ticket's labels are
//!    bit-identical to `predict_reference` on the CPU — for the model
//!    version that served the ticket (both forests are snapped to their
//!    own u8 grid, so either slot's answer is exact): halfway through the stream a
//!    second forest is published and hot-swapped in while the fault
//!    plan keeps firing, and each delivered ticket must match its own
//!    served version's oracle exactly (faults, retries, and breaker
//!    state all survive the swap because fault sequencing is keyed to
//!    the executor slot, not the model).
//!
//! The determinism hinges on the harness shape: requests are submitted
//! sequentially (submit → wait → next), each sized exactly to
//! `max_batch_size` so every batch is one request, taken whole by the
//! pinned slot's worker — one batch in flight at a time, so dispatch
//! sequence numbers, fault schedules, and breaker transitions replay
//! exactly.
//!
//! Writes `bench_results/chaos-<scale>.json` (`--seed N` overrides the
//! default seed). Every count in it is deterministic, so CI holds the
//! tiny file byte-exact.

#![forbid(unsafe_code)]

use rfx_bench::harness::{write_json, Table};
use rfx_bench::scale::Scale;
use rfx_bench::workloads::synthetic_workload;
use rfx_core::ThresholdQuantizer;
use rfx_forest::dataset::QueryView;
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
    timeouts_q8: u64,
    injected_faults_q8: u64,
    breaker_trips_q8: u64,
    breaker_transitions_q8: Vec<String>,
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

/// The JSON artifact.
#[derive(Serialize)]
struct ChaosReport {
    seed: u64,
    scale: String,
    outcome: ChaosOutcome,
}

/// The scenario's fault plan, targeting the q8 slot only (the
/// cpu-sharded last resort stays fault-free).
fn fault_plan(seed: u64) -> FaultPlan {
    let q8 = BackendKind::CpuShardedQ8;
    FaultPlan::new(seed)
        // A 9-attempt wedge burst: with 2 retries per backend each
        // wedged batch burns 3 attempts x 100 ms virtual timeout, blows
        // the 250 ms deadline, and is shed — and the consecutive
        // failures trip the q8 breaker.
        .on(q8, FaultSchedule::Burst { from: 40, len: 9 }, FaultKind::Wedge)
        // Periodic single faults: the immediate same-backend retry lands
        // on the next attempt number and recovers.
        .on(q8, FaultSchedule::Every { n: 7, offset: 3 }, FaultKind::Fail)
        .on(q8, FaultSchedule::Every { n: 11, offset: 5 }, FaultKind::Corrupt)
        // 150 ms virtual delay > 100 ms timeout: a retryable timeout.
        .on(q8, FaultSchedule::Every { n: 13, offset: 1 }, FaultKind::Delay { us: 150_000 })
        // 40 ms virtual delay < timeout: succeeds late, nothing to do.
        .on(q8, FaultSchedule::Every { n: 17, offset: 9 }, FaultKind::Delay { us: 40_000 })
}

fn run_once(seed: u64, requests: usize) -> ChaosOutcome {
    // The model/query seed is independent of the fault seed so `--seed`
    // varies the chaos, not the workload.
    let w = synthetic_workload(8, 12, requests * ROWS_PER_REQUEST, 16, 0x5EED);
    let queries = QueryView::new(w.queries.raw_features(), w.queries.num_features()).unwrap();
    let forest_v1 = ThresholdQuantizer::snap_to_grid::<u8>(&w.forest);
    let oracle_v1 = predict_reference(&forest_v1, queries);
    // The refresh forest hot-swapped in at the halfway mark: same shape
    // (feature width, class count), different trees — so a ticket served
    // by the wrong version is visible as an oracle mismatch.
    let w2 = synthetic_workload(8, 12, ROWS_PER_REQUEST, 16, 0x5EED ^ 0xF00D);
    let forest_v2 = ThresholdQuantizer::snap_to_grid::<u8>(&w2.forest);
    let oracle_v2 = predict_reference(&forest_v2, queries);
    let model = ServeModel::prepare(forest_v1).expect("the block store holds a small forest");

    let serve = RfxServe::start(
        model,
        ServeConfig {
            // One request == one size-closed batch == one in flight.
            max_batch_size: ROWS_PER_REQUEST,
            backends: vec![BackendKind::CpuSharded, BackendKind::CpuShardedQ8],
            policy: SchedulePolicy::Fixed(BackendKind::CpuShardedQ8),
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
            let v2 = serve.publish_forest(forest_v2.clone()).expect("same-shape refresh forest");
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
    let q8 = stats
        .backends
        .iter()
        .find(|b| b.backend == BackendKind::CpuShardedQ8.name())
        .expect("q8 slot in pool");
    // Conservation: every ticket has exactly one terminal outcome.
    lost += requests - (ok + shed + failed) as usize - lost;
    ChaosOutcome {
        requests,
        ok,
        recovered: stats.recovered_batches,
        shed,
        failed,
        retries: stats.retries,
        timeouts_q8: q8.timeouts,
        injected_faults_q8: q8.injected_faults,
        breaker_trips_q8: q8.breaker_trips,
        breaker_transitions_q8: q8.breaker_transitions.clone(),
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

    // Hard invariants the harness itself proves: CI fails on the panic.
    assert_eq!(first.lost_tickets, 0, "tickets lost under chaos");
    assert_eq!(first.label_mismatch_rows, 0, "delivered labels diverged from the CPU oracle");
    assert_eq!(first.failed, 0, "the fault-free last resort must absorb every failure");
    // The scenario is built to exercise every recovery path: if any of
    // these is zero the plan stopped covering what it claims to cover.
    assert!(first.recovered > 0, "no batch recovered via retry");
    assert!(first.shed > 0, "the wedge burst shed nothing");
    assert!(first.breaker_trips_q8 > 0, "the q8 breaker never tripped");
    assert!(first.injected_faults_q8 > 0, "the fault plan injected nothing");
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
        ("q8 timeouts", first.timeouts_q8),
        ("q8 injected faults", first.injected_faults_q8),
        ("q8 breaker trips", first.breaker_trips_q8),
    ] {
        table.row(vec![k.to_string(), v.to_string()]);
    }
    table.print();
    println!("q8 breaker transitions: {}", first.breaker_transitions_q8.join(" "));
    println!("shed rate: {shed_rate_pct:.2}% | retry rate: {retry_rate_pct:.2}%");

    let report = ChaosReport { seed, scale: scale.label().to_string(), outcome: first };
    write_json("chaos", scale.label(), &report);
}
