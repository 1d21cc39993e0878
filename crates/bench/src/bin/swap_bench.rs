//! Hot-swap benchmark for the rfx-serve model lifecycle.
//!
//! Concurrent seeded clients hammer the service through four phases —
//! baseline on v1, full-sample shadow scoring of v2, an activation churn
//! that flips the active version twenty times under load, and a
//! deterministic A/B split — and a fifth, idle phase then publishes and
//! activates 32 more versions, while the harness proves the lifecycle
//! invariants in-process:
//!
//! * **Zero lost tickets** — every submitted request resolves `Ok`
//!   across every swap, rollback, and route change.
//! * **Exactly one version per response** — each delivered ticket's
//!   labels are bit-identical to the CPU oracle of the version the
//!   ticket reports having been served by; a blend or a stale pointer
//!   shows up as a mismatch count, asserted zero.
//! * **Shadow isolation** — the shadow phase scores every batch on v2
//!   yet every served label still matches the active version's oracle.
//! * **Both versions serve** — churn and A/B leave nonzero delivered
//!   rows on v1 and v2.
//! * **Bounded retention** — after the 32 extra publishes the registry
//!   holds the active version and two retired ones, and rolling back to
//!   the previous version still answers with that version's oracle.
//!
//! The `[label, value]` gate pairs are lower-better for
//! `bench_compare`: the p99 of the `activate()` call itself (the "swap
//! pause" — how long a hot-swap blocks the control plane) and the
//! overall request p99. Both are floored at 0.5 ms so sub-millisecond
//! jitter on shared runners cannot trip a ratio gate.
//!
//! Writes `bench_results/swap-<scale>.json`.

use rfx_bench::harness::{write_json, Table};
use rfx_bench::scale::Scale;
use rfx_bench::workloads::synthetic_workload;
use rfx_forest::dataset::QueryView;
use rfx_fpga_sim::FpgaConfig;
use rfx_gpu_sim::GpuConfig;
use rfx_kernels::cpu::predict_reference;
use rfx_serve::{RfxServe, RouteMode, ServeConfig, ServeModel};
use serde::Serialize;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const ROWS_PER_REQUEST: usize = 4;
const CLIENTS: usize = 4;
const CHURN_SWAPS: usize = 20;
const RETENTION_PUBLISHES: usize = 32;
/// The registry's bound with the route back at `Single`: the active
/// version plus its two retained retired ones.
const RETAINED_BOUND: usize = 3;

#[derive(Debug, Serialize)]
struct SwapOutcome {
    requests: usize,
    delivered_rows: u64,
    mismatch_rows: usize,
    served_v1_rows: u64,
    served_v2_rows: u64,
    shadow_rows: u64,
    shadow_agreement: f64,
    swaps: u64,
    retained_versions: usize,
    evicted_versions: u64,
    activate_p99_us: f64,
    request_p99_us: f64,
}

#[derive(Serialize)]
struct SwapReport {
    scale: String,
    outcome: SwapOutcome,
    gates: Vec<(String, f64)>,
}

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx].as_secs_f64() * 1e6
}

fn main() {
    let scale = Scale::from_args();
    // Requests per client per phase; 4 phases x 4 clients total.
    let per_phase = match scale {
        Scale::Tiny => 40,
        Scale::Default => 150,
        Scale::Full => 500,
    };

    let w = synthetic_workload(8, 12, 512, 16, 0x5EED);
    let queries = QueryView::new(w.queries.raw_features(), w.queries.num_features()).unwrap();
    let oracle_v1 = predict_reference(&w.forest, queries);
    let w2 = synthetic_workload(8, 12, ROWS_PER_REQUEST, 16, 0x5EED ^ 0xF00D);
    let oracle_v2 = predict_reference(&w2.forest, queries);
    let nf = w.queries.num_features();
    let pool_rows = oracle_v1.len();

    let forest_v1 = w.forest.clone();
    let model = ServeModel::with_devices(w.forest, GpuConfig::tiny_test(), FpgaConfig::tiny_test())
        .expect("tiny synthetic forest fits tiny devices");
    let serve = RfxServe::start(
        model,
        ServeConfig {
            max_batch_size: 32,
            max_batch_delay: Duration::from_micros(300),
            ..ServeConfig::default()
        },
    );
    let v1 = serve.active_version();
    let v2 = serve.publish_forest(w2.forest.clone()).expect("same-shape refresh forest");

    // Phase fence: all clients and the coordinator meet between phases,
    // so each lifecycle action lands at a known point in the stream.
    let fence = Barrier::new(CLIENTS + 1);
    let phases = 4;
    let mut activate_times: Vec<Duration> = Vec::with_capacity(CHURN_SWAPS + 3);

    let (latencies, mismatches, v_rows): (Vec<Duration>, usize, (u64, u64)) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let serve = &serve;
                    let fence = &fence;
                    let (oracle_v1, oracle_v2) = (&oracle_v1, &oracle_v2);
                    let features = w.queries.raw_features();
                    scope.spawn(move || {
                        let mut lats = Vec::with_capacity(phases * per_phase);
                        let mut mismatch = 0usize;
                        let (mut rows_v1, mut rows_v2) = (0u64, 0u64);
                        for phase in 0..phases {
                            fence.wait(); // coordinator sets the route/version
                            for r in 0..per_phase {
                                let lo = ((c * per_phase * phases + phase * per_phase + r)
                                    * ROWS_PER_REQUEST)
                                    % (pool_rows - ROWS_PER_REQUEST + 1);
                                let chunk = &features[lo * nf..(lo + ROWS_PER_REQUEST) * nf];
                                let t0 = Instant::now();
                                let ticket = serve
                                    .submit_micro_batch(chunk)
                                    .expect("closed-loop load never overflows");
                                let labels = ticket.wait().expect("zero lost tickets");
                                lats.push(t0.elapsed());
                                let version =
                                    ticket.served_version().expect("delivered ticket has version");
                                let oracle = match version.get() {
                                    1 => {
                                        rows_v1 += labels.len() as u64;
                                        oracle_v1
                                    }
                                    _ => {
                                        rows_v2 += labels.len() as u64;
                                        oracle_v2
                                    }
                                };
                                mismatch += labels
                                    .iter()
                                    .zip(&oracle[lo..lo + ROWS_PER_REQUEST])
                                    .filter(|(a, b)| a != b)
                                    .count();
                            }
                            fence.wait(); // phase drained
                        }
                        (lats, mismatch, rows_v1, rows_v2)
                    })
                })
                .collect();

            // Coordinator: one lifecycle action per phase boundary.
            // Phase 0: baseline on v1.
            fence.wait();
            fence.wait();
            // Phase 1: shadow-score every batch on v2.
            serve
                .set_route(RouteMode::Shadow { candidate: v2, sample_permille: 1000 })
                .expect("v2 is published");
            fence.wait();
            fence.wait();
            // Phase 2: activation churn under load — v2, back to v1
            // (rollback), and so on, timing each control-plane call.
            serve.set_route(RouteMode::Single).expect("single mode always validates");
            fence.wait();
            for i in 0..CHURN_SWAPS {
                let target = if i % 2 == 0 { v2 } else { v1 };
                let t0 = Instant::now();
                serve.activate(target).expect("published versions activate");
                activate_times.push(t0.elapsed());
                std::thread::sleep(Duration::from_micros(500));
            }
            fence.wait();
            // Phase 3: deterministic A/B split, v1 active vs v2 on arm B.
            let t0 = Instant::now();
            serve.activate(v1).expect("rollback to v1");
            activate_times.push(t0.elapsed());
            serve.set_route(RouteMode::AbSplit { arm_b: v2, b_permille: 300 }).expect("v2 exists");
            fence.wait();
            fence.wait();

            let mut lats = Vec::new();
            let mut mismatch = 0usize;
            let (mut rows_v1, mut rows_v2) = (0u64, 0u64);
            for h in handles {
                let (l, m, a, b) = h.join().expect("client thread");
                lats.extend(l);
                mismatch += m;
                rows_v1 += a;
                rows_v2 += b;
            }
            (lats, mismatch, (rows_v1, rows_v2))
        });

    // Phase 4 (idle): retention. Alternate the two forests through 32
    // more publish + activate cycles, then roll back one version.
    serve.set_route(RouteMode::Single).expect("single mode always validates");
    let mut serving = (serve.active_version(), &oracle_v1);
    let mut previous = serving;
    for i in 0..RETENTION_PUBLISHES {
        let (forest, oracle) =
            if i % 2 == 0 { (&w2.forest, &oracle_v2) } else { (&forest_v1, &oracle_v1) };
        let version = serve.publish_forest(forest.clone()).expect("same-shape refresh forest");
        serve.activate(version).expect("a fresh version is retained");
        previous = serving;
        serving = (version, oracle);
    }
    let retained_versions = serve.versions().len();
    assert!(retained_versions <= RETAINED_BOUND, "registry holds {:?}", serve.versions());
    assert!(serve.activate(v1).is_err() && serve.activate(v2).is_err(), "v1 and v2 were evicted");
    serve.activate(previous.0).expect("rollback depth 1 is always retained");
    let chunk = &w.queries.raw_features()[..ROWS_PER_REQUEST * nf];
    let ticket = serve.submit_micro_batch(chunk).expect("idle service admits");
    let labels = ticket.wait().expect("zero lost tickets");
    assert_eq!(ticket.served_version(), Some(previous.0), "rollback did not take");
    assert_eq!(
        labels,
        previous.1[..ROWS_PER_REQUEST],
        "rolled-back version diverged from its oracle"
    );

    let stats = serve.shutdown();
    let requests = CLIENTS * phases * per_phase;

    // Hard invariants, asserted in-process (zero baselines cannot gate a
    // ratio in bench_compare).
    assert_eq!(latencies.len(), requests, "tickets lost across swaps");
    assert_eq!(mismatches, 0, "a response diverged from its served version's oracle");
    assert_eq!(stats.shed_requests + stats.failed_requests, 0, "lifecycle load must not shed");
    assert!(v_rows.0 > 0 && v_rows.1 > 0, "both versions must serve rows");
    assert!(stats.model.shadow.rows > 0, "the shadow phase scored nothing");
    assert_eq!(
        stats.model.swaps,
        (CHURN_SWAPS + 1 + RETENTION_PUBLISHES + 1) as u64,
        "every activation must be counted"
    );
    let per_version: u64 = stats.model.versions.iter().map(|v| v.rows).sum();
    assert_eq!(
        per_version + stats.model.evicted_rows,
        stats.completed_rows,
        "per-version rows must stay additive across evictions"
    );

    let mut sorted = latencies;
    sorted.sort();
    let mut act = activate_times;
    act.sort();
    let request_p99_us = percentile_us(&sorted, 0.99);
    let activate_p99_us = percentile_us(&act, 0.99);
    // Floor at 0.5 ms: these are microsecond-scale numbers, and a ratio
    // gate over runner jitter at that scale is pure noise.
    let swap_pause_p99_ms = (activate_p99_us / 1000.0).max(0.5);
    let request_p99_ms = (request_p99_us / 1000.0).max(0.5);

    let mut table = Table::new(
        &format!("swap_bench: {requests} requests x {ROWS_PER_REQUEST} rows"),
        &["metric", "value"],
    );
    for (k, v) in [
        ("delivered rows", stats.completed_rows.to_string()),
        ("rows served by v1", v_rows.0.to_string()),
        ("rows served by v2", v_rows.1.to_string()),
        ("shadow rows", stats.model.shadow.rows.to_string()),
        ("shadow agreement", format!("{:.4}", stats.model.shadow.agreement)),
        ("activations", stats.model.swaps.to_string()),
        ("retained_versions", retained_versions.to_string()),
        ("evicted versions", stats.model.evicted_versions.to_string()),
        ("activate p99", format!("{activate_p99_us:.1} us")),
        ("request p99", format!("{request_p99_us:.1} us")),
    ] {
        table.row(vec![k.to_string(), v.to_string()]);
    }
    table.print();

    let report = SwapReport {
        scale: scale.label().to_string(),
        outcome: SwapOutcome {
            requests,
            delivered_rows: stats.completed_rows,
            mismatch_rows: mismatches,
            served_v1_rows: v_rows.0,
            served_v2_rows: v_rows.1,
            shadow_rows: stats.model.shadow.rows,
            shadow_agreement: stats.model.shadow.agreement,
            swaps: stats.model.swaps,
            retained_versions,
            evicted_versions: stats.model.evicted_versions,
            activate_p99_us,
            request_p99_us,
        },
        gates: vec![
            ("swap_pause_p99_ms".to_string(), swap_pause_p99_ms),
            ("request_p99_ms".to_string(), request_p99_ms),
        ],
    };
    write_json("swap", scale.label(), &report);
}
