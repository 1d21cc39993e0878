//! Chaos properties for the resilience layer: under *arbitrary* seeded
//! fault plans the service must conserve tickets (every submitted
//! request gets exactly one terminal outcome) and never deliver wrong
//! labels — corruption is detected, not served. With a fault plan whose
//! rules never fire, the decorated service must be bit-identical to the
//! serial CPU reference. And the circuit breaker must trip within its
//! sample window under a failure burst, then recover through half-open
//! once the burst passes — identically on every run.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx::core::ThresholdQuantizer;
use rfx::forest::dataset::QueryView;
use rfx::forest::{DecisionTree, RandomForest};
use rfx::kernels::cpu::predict_reference;
use rfx::serve::{
    BackendKind, BreakerConfig, FaultKind, FaultPlan, FaultSchedule, ResilienceConfig, RfxServe,
    SchedulePolicy, ServeConfig, ServeError, ServeModel, ServeStats,
};
use std::time::Duration;

const NF: usize = 5;
const ROWS_PER_REQUEST: usize = 4;

/// A random forest on its own u8 grid, so the faulted `cpu-sharded-q8`
/// slot and the `cpu-sharded` last resort deliver the same exact labels.
fn model_from_seed(seed: u64) -> ServeModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees: Vec<DecisionTree> =
        (0..5).map(|_| DecisionTree::random(&mut rng, 6, NF as u16, 3, 0.25)).collect();
    let forest = RandomForest::from_trees(trees, NF, 3).unwrap();
    ServeModel::prepare(ThresholdQuantizer::snap_to_grid::<u8>(&forest))
        .expect("the block store holds a small forest")
}

fn arb_fault_kind() -> impl Strategy<Value = FaultKind> {
    (0usize..5, 0u64..250_000).prop_map(|(k, us)| match k {
        0 => FaultKind::Delay { us },
        1 => FaultKind::Fail,
        2 => FaultKind::Corrupt,
        3 => FaultKind::Wedge,
        _ => FaultKind::Panic,
    })
}

fn arb_schedule() -> impl Strategy<Value = FaultSchedule> {
    (0usize..4, 1u64..6, 0u64..24, 0u32..=1000).prop_map(|(s, n, at, permille)| match s {
        0 => FaultSchedule::Every { n, offset: at },
        1 => FaultSchedule::Once { at },
        2 => FaultSchedule::Burst { from: at, len: n },
        _ => FaultSchedule::Probability { permille },
    })
}

/// Arbitrary plans target the q8 slot only: the cpu-sharded last resort
/// stays fault-free, so outcome conservation never degenerates into
/// "everything failed".
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), proptest::collection::vec((arb_schedule(), arb_fault_kind()), 0..4)).prop_map(
        |(seed, rules)| {
            rules.into_iter().fold(FaultPlan::new(seed), |plan, (schedule, kind)| {
                plan.on(BackendKind::CpuShardedQ8, schedule, kind)
            })
        },
    )
}

/// Runs `requests` sequential micro-batches through a chaos-configured
/// service and returns (ok, shed, failed, oracle-mismatch-rows, stats).
fn run_chaos(
    plan: FaultPlan,
    model: &ServeModel,
    queries: &[f32],
    requests: usize,
) -> (u64, u64, u64, usize, ServeStats) {
    let reference = predict_reference(model.forest(), QueryView::new(queries, NF).unwrap());
    let serve = RfxServe::start(
        model.clone(),
        ServeConfig {
            max_batch_size: ROWS_PER_REQUEST,
            backends: vec![BackendKind::CpuSharded, BackendKind::CpuShardedQ8],
            policy: SchedulePolicy::Fixed(BackendKind::CpuShardedQ8),
            resilience: ResilienceConfig {
                timeout: Duration::from_millis(50),
                max_retries: 1,
                request_deadline: Some(Duration::from_millis(150)),
                breaker: BreakerConfig {
                    window: 6,
                    min_samples: 3,
                    failure_rate: 0.5,
                    cooldown_dispatches: 4,
                },
                seed: plan.seed(),
                ..ResilienceConfig::default()
            },
            fault_plan: Some(plan),
            ..ServeConfig::default()
        },
    );
    let (mut ok, mut shed, mut failed, mut mismatches) = (0u64, 0u64, 0u64, 0usize);
    for req in 0..requests {
        let lo = req * ROWS_PER_REQUEST * NF;
        let ticket = serve
            .submit_micro_batch(&queries[lo..lo + ROWS_PER_REQUEST * NF])
            .expect("sequential load never overflows the queue");
        match ticket.wait() {
            Ok(labels) => {
                ok += 1;
                let expected = &reference[req * ROWS_PER_REQUEST..(req + 1) * ROWS_PER_REQUEST];
                mismatches += labels.iter().zip(expected).filter(|(a, b)| a != b).count();
            }
            Err(ServeError::Shed { .. }) => shed += 1,
            Err(ServeError::BackendFailed { .. }) => failed += 1,
            Err(other) => panic!("non-terminal outcome from wait(): {other}"),
        }
    }
    let stats = serve.shutdown();
    (ok, shed, failed, mismatches, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ticket conservation: whatever the fault plan does, every submitted
    /// request resolves to exactly one terminal outcome — Ok, Shed, or
    /// BackendFailed — and every *delivered* label matches the serial CPU
    /// oracle (corruption must be caught, not served).
    #[test]
    fn every_ticket_gets_exactly_one_terminal_outcome(
        plan in arb_plan(),
        model_seed in any::<u64>(),
        queries in proptest::collection::vec(0.0f32..1.0, NF * ROWS_PER_REQUEST * 12),
    ) {
        let requests = queries.len() / (NF * ROWS_PER_REQUEST);
        let model = model_from_seed(model_seed);
        let (ok, shed, failed, mismatches, stats) =
            run_chaos(plan, &model, &queries, requests);
        prop_assert_eq!(ok + shed + failed, requests as u64, "a ticket was lost or duplicated");
        prop_assert_eq!(mismatches, 0, "a delivered label diverged from the CPU oracle");
        // The metrics surface must agree with the client-side tally.
        prop_assert_eq!(stats.shed_requests, shed);
        prop_assert_eq!(stats.failed_requests, failed);
        prop_assert_eq!(stats.completed_rows, ok * ROWS_PER_REQUEST as u64);
    }

    /// A fault plan whose rules never fire is invisible: the decorated
    /// service returns predictions bit-identical to `predict_reference`,
    /// with nothing shed, failed, retried, or injected.
    #[test]
    fn fault_free_plans_are_bit_identical_to_the_reference(
        seed in any::<u64>(),
        model_seed in any::<u64>(),
        queries in proptest::collection::vec(0.0f32..1.0, NF * ROWS_PER_REQUEST * 8),
    ) {
        // Probability 0 never fires but targets (and thus decorates)
        // every backend — the pass-through path itself is under test.
        let plan = FaultPlan::new(seed)
            .on_all(FaultSchedule::Probability { permille: 0 }, FaultKind::Wedge);
        let requests = queries.len() / (NF * ROWS_PER_REQUEST);
        let model = model_from_seed(model_seed);
        let (ok, shed, failed, mismatches, stats) =
            run_chaos(plan, &model, &queries, requests);
        prop_assert_eq!(ok, requests as u64);
        prop_assert_eq!((shed, failed, mismatches), (0, 0, 0));
        prop_assert_eq!(stats.retries, 0);
        for backend in &stats.backends {
            prop_assert_eq!(backend.injected_faults, 0);
            prop_assert_eq!(backend.breaker_trips, 0);
        }
    }
}

/// Runs the deterministic breaker scenario once: a 6-attempt failure
/// burst on the pinned q8 slot, then clean air. Returns the outcome
/// counts and the q8 breaker's transition log.
fn run_breaker_scenario() -> (u64, u64, u64, ServeStats) {
    let model = model_from_seed(0x0B2E_A4E2);
    let mut rng = StdRng::seed_from_u64(99);
    let queries: Vec<f32> = (0..NF * ROWS_PER_REQUEST * 30).map(|_| rng.gen()).collect();
    let plan = FaultPlan::new(1).on(
        BackendKind::CpuShardedQ8,
        FaultSchedule::Burst { from: 0, len: 6 },
        FaultKind::Fail,
    );
    let serve = RfxServe::start(
        model,
        ServeConfig {
            max_batch_size: ROWS_PER_REQUEST,
            backends: vec![BackendKind::CpuSharded, BackendKind::CpuShardedQ8],
            policy: SchedulePolicy::Fixed(BackendKind::CpuShardedQ8),
            resilience: ResilienceConfig {
                // One attempt per batch: each q8 refusal falls back to
                // cpu-sharded immediately and counts one breaker failure.
                max_retries: 0,
                breaker: BreakerConfig {
                    window: 4,
                    min_samples: 2,
                    failure_rate: 0.5,
                    cooldown_dispatches: 2,
                },
                ..ResilienceConfig::default()
            },
            fault_plan: Some(plan),
            ..ServeConfig::default()
        },
    );
    let (mut ok, mut shed, mut failed) = (0u64, 0u64, 0u64);
    for req in 0..30 {
        let lo = req * ROWS_PER_REQUEST * NF;
        let ticket = serve.submit_micro_batch(&queries[lo..lo + ROWS_PER_REQUEST * NF]).unwrap();
        match ticket.wait() {
            Ok(_) => ok += 1,
            Err(ServeError::Shed { .. }) => shed += 1,
            Err(_) => failed += 1,
        }
    }
    let stats = serve.shutdown();
    (ok, shed, failed, stats)
}

/// The breaker trips within its sample window under consecutive
/// failures, routes around the tripped backend, probes through
/// half-open, and closes again once the burst has passed — with an
/// identical transition log on every run.
#[test]
fn breaker_trips_within_window_and_recovers_via_half_open() {
    let (ok, shed, failed, stats) = run_breaker_scenario();
    assert_eq!((ok, shed, failed), (30, 0, 0), "the fault-free last resort absorbs the burst");

    let q8 = stats
        .backends
        .iter()
        .find(|b| b.backend == BackendKind::CpuShardedQ8.name())
        .expect("q8 slot in pool");
    // min_samples = 2 and the burst opens with consecutive failures, so
    // the very first transition is a trip from closed.
    assert!(q8.breaker_trips >= 1, "breaker never tripped under a 6-failure burst");
    let transitions = &q8.breaker_transitions;
    assert!(
        transitions[0].starts_with("closed->open@"),
        "first transition should be the trip, got {transitions:?}"
    );
    assert!(
        transitions.iter().any(|t| t.starts_with("open->half-open@")),
        "cooldown never produced a half-open probe: {transitions:?}"
    );
    assert!(
        transitions.iter().any(|t| t.starts_with("half-open->closed@")),
        "breaker never recovered after the burst: {transitions:?}"
    );
    assert_eq!(q8.breaker_state, "closed", "breaker must end recovered");
    // Recovered batches are exactly the ones that saw a q8 failure
    // before succeeding elsewhere; the burst guarantees at least one.
    assert!(stats.recovered_batches >= 1);

    // Determinism witness: a second run replays the same transitions.
    let (ok2, shed2, failed2, stats2) = run_breaker_scenario();
    let q8_again =
        stats2.backends.iter().find(|b| b.backend == BackendKind::CpuShardedQ8.name()).unwrap();
    assert_eq!((ok, shed, failed), (ok2, shed2, failed2));
    assert_eq!(q8.breaker_transitions, q8_again.breaker_transitions);
    assert_eq!(q8.breaker_trips, q8_again.breaker_trips);
}
