//! Property tests for the serving layer: whatever the batch size, flush
//! deadline, micro-batch shape, or backend, the service must return
//! exactly the serial CPU reference predictions — dynamic batching and
//! scheduling must be invisible to clients.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfx::core::{ThresholdQuantizer, TreeEnsemble};
use rfx::forest::dataset::QueryView;
use rfx::forest::{DecisionTree, RandomForest};
use rfx::serve::{
    run_closed_loop, BackendKind, LoadGenConfig, RfxServe, SchedulePolicy, ServeConfig, ServeModel,
    Ticket,
};

const NF: usize = 5;

fn arb_model() -> impl Strategy<Value = ServeModel> {
    (1usize..6, 1usize..9, any::<u64>()).prop_map(|(n_trees, depth, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> = (0..n_trees)
            .map(|_| DecisionTree::random(&mut rng, depth, NF as u16, 3, 0.25))
            .collect();
        let forest = RandomForest::from_trees(trees, NF, 3).unwrap();
        ServeModel::prepare(forest).expect("the block store holds a small forest")
    })
}

fn arb_backend() -> impl Strategy<Value = BackendKind> {
    (0usize..BackendKind::ALL.len()).prop_map(|i| BackendKind::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Served predictions equal direct serial CPU predictions for any
    /// backend, any batch size, and any micro-batch shape.
    #[test]
    fn serve_equals_serial_reference(
        model in arb_model(),
        backend in arb_backend(),
        max_batch in 1usize..48,
        rows_per_request in 1usize..5,
        queries in proptest::collection::vec(0.0f32..1.0, NF * 40),
    ) {
        let qv = QueryView::new(&queries, NF).unwrap();
        // The quantized backend answers on its own grid, so its oracle
        // is the packed layout's scalar traversal; every exact backend
        // must reproduce the serial f32 reference.
        let reference = if backend == BackendKind::CpuShardedQ8 {
            let packed = rfx::core::QFilForest::<u8>::build(model.forest()).unwrap();
            queries.chunks(NF).map(|q| packed.predict(q)).collect()
        } else {
            model.forest().predict_batch(qv)
        };

        let serve = RfxServe::start(model.clone(), ServeConfig {
            max_batch_size: max_batch,
            backends: vec![backend],
            policy: SchedulePolicy::Fixed(backend),
            ..ServeConfig::default()
        });
        let tickets: Vec<Ticket> = queries
            .chunks(NF * rows_per_request)
            .map(|chunk| serve.submit_micro_batch(chunk).unwrap())
            .collect();
        let mut got = Vec::with_capacity(reference.len());
        for ticket in &tickets {
            got.extend(ticket.wait().unwrap());
        }
        let stats = serve.shutdown();
        prop_assert_eq!(got, reference, "{} diverged", backend.name());
        prop_assert_eq!(stats.completed_rows, 40);
        prop_assert_eq!(stats.rejected_rows, 0);
    }

    /// The closed-loop load generator is deterministic: equal seeds give
    /// equal label checksums even under different scheduling policies and
    /// executor pools (scheduling must not leak into results). The model
    /// is on its own u8 grid, so `Auto` may split traffic between the
    /// exact and the quantized slot.
    #[test]
    fn loadgen_checksum_is_schedule_invariant(
        model in arb_model(),
        seed in any::<u64>(),
    ) {
        let model =
            ServeModel::prepare(ThresholdQuantizer::snap_to_grid::<u8>(model.forest())).unwrap();
        let load = LoadGenConfig {
            clients: 4,
            requests_per_client: 12,
            rows_per_request: 3,
            seed,
            ..LoadGenConfig::default()
        };
        let mut checksums = Vec::new();
        for policy in [SchedulePolicy::Auto, SchedulePolicy::Fixed(BackendKind::CpuSharded)] {
            let serve = RfxServe::start(model.clone(), ServeConfig {
                max_batch_size: 16,
                backends: BackendKind::ALL.to_vec(),
                policy,
                ..ServeConfig::default()
            });
            let report = run_closed_loop(&serve, &load);
            serve.shutdown();
            prop_assert_eq!(report.completed, 4 * 12);
            prop_assert_eq!(report.rows, 4 * 12 * 3);
            prop_assert_eq!(report.abandoned, 0);
            checksums.push(report.labels_checksum);
        }
        prop_assert_eq!(checksums[0], checksums[1]);
    }
}
