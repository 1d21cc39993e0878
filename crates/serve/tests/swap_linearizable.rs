//! Hot-swap linearizability: a response is always exactly one version's
//! output — never a blend — and no ticket is ever lost, no matter how
//! traffic is routed or how often the active version changes mid-flight.
//!
//! Two proof styles back the contract:
//!
//! * **Constant-forest discrimination** — version `v` is a forest of
//!   constant leaves predicting label `v-1`, so any blend of versions
//!   inside one response is visible as mixed labels. Client threads
//!   hammer the service while the main thread churns activations.
//! * **Oracle proptest** — random forests with per-version CPU oracles
//!   (`predict_reference`); every delivered response must equal its
//!   served version's oracle bit-for-bit under randomized A/B splits,
//!   batch sizes, and swap schedules.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_forest::dataset::QueryView;
use rfx_forest::online::{OnlineForestTrainer, OnlineTrainerConfig};
use rfx_forest::{DecisionTree, RandomForest};
use rfx_fpga_sim::FpgaConfig;
use rfx_gpu_sim::GpuConfig;
use rfx_kernels::cpu::predict_reference;
use rfx_serve::{
    BackendKind, RfxServe, RouteMode, SchedulePolicy, ServeConfig, ServeModel, Ticket,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const NF: usize = 6;

/// A model whose every prediction is `label` — any cross-version blend
/// inside one response shows up as mixed labels.
fn constant_model(label: u32) -> ServeModel {
    let trees = vec![DecisionTree::leaf(label); 5];
    let forest = RandomForest::from_trees(trees, NF, 4).unwrap();
    ServeModel::with_devices(forest, GpuConfig::tiny_test(), FpgaConfig::tiny_test()).unwrap()
}

fn random_model(seed: u64) -> (ServeModel, RandomForest) {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees: Vec<DecisionTree> =
        (0..7).map(|_| DecisionTree::random(&mut rng, 7, NF as u16, 3, 0.3)).collect();
    let forest = RandomForest::from_trees(trees, NF, 3).unwrap();
    let model =
        ServeModel::with_devices(forest.clone(), GpuConfig::tiny_test(), FpgaConfig::tiny_test())
            .unwrap();
    (model, forest)
}

fn rows(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n * NF).map(|_| rng.gen()).collect()
}

/// Client threads submit multi-row micro-batches while the main thread
/// swaps the active version back and forth. Every response must be all
/// one label (= all one version), every ticket must resolve, and both
/// versions must have served traffic.
#[test]
fn concurrent_swaps_never_blend_or_drop_responses() {
    let serve = RfxServe::start(
        constant_model(0),
        ServeConfig {
            max_batch_size: 16,
            max_batch_delay: Duration::from_micros(200),
            seed_probe_rows: 0,
            ..ServeConfig::default()
        },
    );
    let v2 = serve.publish(constant_model(1)).unwrap();
    let v1 = serve.active_version();

    const CLIENTS: usize = 4;
    const SUBMITS: usize = 60;
    let outcomes: Vec<(u64, Vec<u32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let serve = &serve;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x5A11 + c as u64);
                    let mut got = Vec::with_capacity(SUBMITS);
                    for _ in 0..SUBMITS {
                        let n = rng.gen_range(1..=4);
                        let ticket = serve.submit_micro_batch(&rows(&mut rng, n)).unwrap();
                        let labels = ticket.wait().expect("no ticket may be dropped");
                        let version =
                            ticket.served_version().expect("delivered tickets know their version");
                        got.push((version.get(), labels));
                    }
                    got
                })
            })
            .collect();
        // Churn activations while the clients are in flight.
        for i in 0..40 {
            serve.activate(if i % 2 == 0 { v2 } else { v1 }).unwrap();
            std::thread::sleep(Duration::from_micros(300));
        }
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    let mut served_versions = std::collections::HashSet::new();
    for (version, labels) in &outcomes {
        served_versions.insert(*version);
        // Version v predicts exactly label v-1 on every row: one mixed
        // label inside a response is a blend of versions.
        assert!(
            labels.iter().all(|&l| l as u64 == version - 1),
            "response blends versions: served v{version}, labels {labels:?}"
        );
    }
    assert_eq!(outcomes.len(), CLIENTS * SUBMITS, "zero tickets lost across swaps");
    assert!(
        served_versions.contains(&1) && served_versions.contains(&2),
        "both versions must serve under churn, saw {served_versions:?}"
    );

    let stats = serve.shutdown();
    assert_eq!(stats.model.swaps, 40);
    assert_eq!(stats.shed_requests, 0);
    assert_eq!(stats.failed_requests, 0);
    // Per-version row accounting covers everything delivered.
    let per_version: u64 = stats.model.versions.iter().map(|v| v.rows).sum();
    assert_eq!(per_version + stats.model.evicted_rows, stats.completed_rows);
}

/// 64 publish + activate cycles under four concurrent clients, on the
/// default pool (device slots included): the registry evicts 62 versions
/// while batches formed on them are still in flight. Every response is
/// still one version's output and that version's oracle, no ticket is
/// lost, the registry never holds more than three versions, and the
/// per-version rows plus the evicted total account for every row.
#[test]
fn publish_churn_under_load_stays_bounded_and_exact() {
    const CYCLES: usize = 64;
    // Version `v` always predicts label `(v - 1) % 4`.
    let stumps = |label: u32| RandomForest::from_trees(vec![DecisionTree::leaf(label); 5], NF, 4);
    let serve = RfxServe::start(
        constant_model(0),
        ServeConfig {
            max_batch_size: 16,
            max_batch_delay: Duration::from_micros(200),
            seed_probe_rows: 0,
            ..ServeConfig::default()
        },
    );
    let retained = serve.telemetry().gauge("serve.registry.retained");

    const CLIENTS: usize = 4;
    let done = AtomicBool::new(false);
    let outcomes: Vec<(u64, Vec<u32>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (serve, done) = (&serve, &done);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xC4A2 + c as u64);
                    let mut got = Vec::new();
                    // At least a few submissions after the last swap, so
                    // the final version serves too.
                    let mut after_done = 0;
                    while after_done < 4 {
                        after_done += usize::from(done.load(Ordering::SeqCst));
                        let n = rng.gen_range(1..=4);
                        let ticket = serve.submit_micro_batch(&rows(&mut rng, n)).unwrap();
                        let labels = ticket.wait().expect("no ticket may be dropped");
                        assert_eq!(labels.len(), n);
                        got.push((ticket.served_version().unwrap().get(), labels));
                    }
                    got
                })
            })
            .collect();
        for i in 0..CYCLES {
            let version = serve.publish_forest(stumps((i as u32 + 1) % 4).unwrap()).unwrap();
            assert_eq!(version.get(), i as u64 + 2, "numbers climb by one, never reused");
            let previous = serve.activate(version).unwrap();
            assert_eq!(previous.get(), i as u64 + 1);
            assert!(serve.versions().len() <= 3, "held {:?}", serve.versions());
            assert!(retained.get() <= 3.0);
            std::thread::sleep(Duration::from_micros(200));
        }
        done.store(true, Ordering::SeqCst);
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    let mut served_versions = std::collections::BTreeSet::new();
    for (version, labels) in &outcomes {
        served_versions.insert(*version);
        assert!(
            labels.iter().all(|&l| u64::from(l) == (version - 1) % 4),
            "response is not v{version}'s output: {labels:?}"
        );
    }
    assert!(served_versions.len() > 3, "churn must outrun retention, saw {served_versions:?}");
    assert!(served_versions.contains(&(CYCLES as u64 + 1)));
    // Rollback depth 2 survives the churn; depth 3 is gone, typed.
    let newest = CYCLES as u64 + 1;
    let held: Vec<u64> = serve.versions().iter().map(|v| v.get()).collect();
    assert_eq!(held, vec![newest - 2, newest - 1, newest]);
    let gone = rfx_serve::ModelVersion::from_raw(newest - 3).unwrap();
    assert!(matches!(
        serve.activate(gone),
        Err(rfx_serve::ServeError::UnknownVersion { version }) if version == newest - 3
    ));

    let stats = serve.shutdown();
    assert_eq!(stats.shed_requests + stats.failed_requests, 0);
    assert_eq!(stats.completed_rows, outcomes.iter().map(|(_, l)| l.len() as u64).sum::<u64>());
    assert_eq!(stats.model.versions.len(), 3);
    assert_eq!(stats.model.evicted_versions, CYCLES as u64 - 2);
    let per_version: u64 = stats.model.versions.iter().map(|v| v.rows).sum();
    assert_eq!(per_version + stats.model.evicted_rows, stats.completed_rows);
    let batches: u64 = stats.model.versions.iter().map(|v| v.batches).sum();
    assert_eq!(batches + stats.model.evicted_batches, stats.batches);
}

/// Shadow mode at full sampling: every served label still comes from the
/// active version, and the agreement counters equal the oracle overlap.
#[test]
fn shadow_scoring_never_touches_served_labels() {
    let (m1, f1) = random_model(0xA1);
    let (m2, f2) = random_model(0xB2);
    let serve = RfxServe::start(
        m1,
        ServeConfig {
            max_batch_size: 8,
            max_batch_delay: Duration::from_micros(200),
            backends: vec![BackendKind::CpuSharded, BackendKind::GpuSimHybrid],
            policy: SchedulePolicy::Auto,
            seed_probe_rows: 0,
            ..ServeConfig::default()
        },
    );
    let v2 = serve.publish(m2).unwrap();
    serve.set_route(RouteMode::Shadow { candidate: v2, sample_permille: 1000 }).unwrap();

    let mut rng = StdRng::seed_from_u64(0x57AD);
    let queries = rows(&mut rng, 64);
    let qv = QueryView::new(&queries, NF).unwrap();
    let oracle1 = predict_reference(&f1, qv);
    let oracle2 = predict_reference(&f2, qv);
    let expected_agree = oracle1.iter().zip(&oracle2).filter(|(a, b)| a == b).count() as u64;
    assert_ne!(oracle1, oracle2, "test needs visibly different versions");

    let tickets: Vec<Ticket> =
        queries.chunks(NF * 4).map(|chunk| serve.submit_micro_batch(chunk).unwrap()).collect();
    let mut got = Vec::new();
    for ticket in &tickets {
        got.extend(ticket.wait().unwrap());
        assert_eq!(ticket.served_version().map(|v| v.get()), Some(1));
    }
    let stats = serve.shutdown();
    assert_eq!(got, oracle1, "shadow scoring changed a served label");
    assert_eq!(stats.model.shadow.rows, 64, "full sampling shadows every delivered row");
    assert_eq!(stats.model.shadow.agree_rows, expected_agree);
    let candidate = stats.model.versions.iter().find(|v| v.version == 2).unwrap();
    assert_eq!(candidate.shadow_rows, 64);
    assert_eq!(candidate.batches, 0, "the candidate never served live traffic");
}

/// Activating an older version is rollback: outputs revert exactly.
#[test]
fn rollback_restores_prior_outputs_exactly() {
    let (m1, f1) = random_model(0xC3);
    let (_, f2) = random_model(0xD4);
    let serve = RfxServe::start(
        m1,
        ServeConfig {
            backends: vec![BackendKind::CpuSharded],
            policy: SchedulePolicy::Fixed(BackendKind::CpuSharded),
            max_batch_delay: Duration::from_micros(100),
            seed_probe_rows: 0,
            ..ServeConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(0xB00);
    let probe = rows(&mut rng, 8);
    let qv = QueryView::new(&probe, NF).unwrap();
    let (oracle1, oracle2) = (predict_reference(&f1, qv), predict_reference(&f2, qv));
    assert_ne!(oracle1, oracle2);

    let v1 = serve.active_version();
    let v2 = serve.publish_forest(f2).unwrap();
    serve.activate(v2).unwrap();
    assert_eq!(serve.submit_micro_batch(&probe).unwrap().wait().unwrap(), oracle2);
    // Rollback is a plain re-activation of the still-registered v1.
    assert_eq!(serve.activate(v1).unwrap(), v2);
    assert_eq!(serve.submit_micro_batch(&probe).unwrap().wait().unwrap(), oracle1);
    let stats = serve.shutdown();
    assert_eq!(stats.model.active_version, 1);
    assert_eq!(stats.model.swaps, 2);
    assert_eq!(stats.model.versions.len(), 2);
}

/// An `rfx_forest::online` snapshot publishes straight into the serving
/// registry and serves its own CPU-oracle labels after activation.
#[test]
fn online_trainer_snapshot_publishes_and_serves() {
    // Class count matches the serving model's — the registry enforces
    // shape compatibility at publish.
    let mut trainer = OnlineForestTrainer::new(
        NF,
        3,
        OnlineTrainerConfig { n_trees: 5, grace_period: 30, seed: 7, ..Default::default() },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x0171);
    for _ in 0..600 {
        let x: Vec<f32> = (0..NF).map(|_| rng.gen()).collect();
        let label = u32::from(x[0] > 0.5);
        trainer.ingest(&x, label);
    }
    let refreshed = trainer.snapshot_forest();

    let (m1, _) = random_model(0xE5);
    let serve = RfxServe::start(
        m1,
        ServeConfig {
            backends: vec![BackendKind::CpuSharded],
            policy: SchedulePolicy::Fixed(BackendKind::CpuSharded),
            max_batch_delay: Duration::from_micros(100),
            seed_probe_rows: 0,
            ..ServeConfig::default()
        },
    );
    let probe = rows(&mut rng, 16);
    let oracle = predict_reference(&refreshed, QueryView::new(&probe, NF).unwrap());
    let v2 = serve.publish_forest(refreshed).unwrap();
    serve.activate(v2).unwrap();
    let got = serve.submit_micro_batch(&probe).unwrap().wait().unwrap();
    serve.shutdown();
    assert_eq!(got, oracle, "published snapshot must serve its own oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under a randomized A/B split with a mid-stream swap, every
    /// response equals exactly one version's oracle — bit-for-bit, all
    /// rows from the version the ticket reports.
    #[test]
    fn every_response_is_exactly_one_versions_output(
        seed in 0u64..1_000_000,
        b_permille in 0u32..=1000,
        batch_rows in 1usize..=12,
    ) {
        let (m1, f1) = random_model(seed ^ 0x11);
        let (m2, f2) = random_model(seed ^ 0x22);
        let serve = RfxServe::start(
            m1,
            ServeConfig {
                max_batch_size: 16,
                max_batch_delay: Duration::from_micros(100),
                backends: vec![BackendKind::CpuSharded, BackendKind::GpuSimHybrid],
                policy: SchedulePolicy::Auto,
                seed_probe_rows: 0,
                ..ServeConfig::default()
            },
        );
        let v2 = serve.publish(m2).unwrap();
        serve.set_route(RouteMode::AbSplit { arm_b: v2, b_permille }).unwrap();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut tickets: Vec<(Ticket, Vec<f32>)> = Vec::new();
        for i in 0..20 {
            // Swap the active version mid-stream with tickets in flight.
            if i == 10 {
                serve.activate(v2).unwrap();
            }
            let q = rows(&mut rng, batch_rows);
            tickets.push((serve.submit_micro_batch(&q).unwrap(), q));
        }
        for (ticket, q) in &tickets {
            let labels = ticket.wait().unwrap();
            let version = ticket.served_version().unwrap().get();
            let qv = QueryView::new(q, NF).unwrap();
            let oracle = match version {
                1 => predict_reference(&f1, qv),
                2 => predict_reference(&f2, qv),
                v => panic!("unknown served version v{v}"),
            };
            prop_assert_eq!(
                &labels, &oracle,
                "response is not exactly v{}'s output", version
            );
        }
        let stats = serve.shutdown();
        prop_assert_eq!(stats.completed_rows as usize, 20 * batch_rows);
        prop_assert_eq!(stats.shed_requests + stats.failed_requests, 0);
    }
}
