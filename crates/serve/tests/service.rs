//! Behavioral tests for the serving pipeline: batch formation, admission
//! control, drain-on-shutdown, panicking backends, and backend
//! equivalence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::hier::builder::build_forest;
use rfx_core::{BlockForest, LayoutError, ThresholdQuantizer, TreeEnsemble};
use rfx_forest::dataset::QueryView;
use rfx_forest::serialize::{read_forest, write_forest};
use rfx_forest::{DecisionTree, ForestError, RandomForest};
use rfx_kernels::cpu::predict_reference;
use rfx_serve::{
    BackendKind, FaultKind, FaultPlan, FaultSchedule, FlushStats, ResilienceConfig, RfxServe,
    SchedulePolicy, ServeConfig, ServeError, ServeModel, Ticket,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NF: usize = 6;

fn model(seed: u64) -> ServeModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees: Vec<DecisionTree> =
        (0..7).map(|_| DecisionTree::random(&mut rng, 7, NF as u16, 3, 0.3)).collect();
    ServeModel::prepare(RandomForest::from_trees(trees, NF, 3).unwrap()).unwrap()
}

/// [`model`] on its own u8 grid: the `cpu-sharded-q8` slot answers it
/// exactly like `cpu-sharded` and the reference.
fn grid_model(seed: u64) -> ServeModel {
    ServeModel::prepare(ThresholdQuantizer::snap_to_grid::<u8>(model(seed).forest())).unwrap()
}

fn rows(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n * NF).map(|_| rng.gen()).collect()
}

/// One-slot config: deterministic batching behavior.
fn cpu_only(max_batch_size: usize) -> ServeConfig {
    ServeConfig {
        max_batch_size,
        backends: vec![BackendKind::CpuSharded],
        policy: SchedulePolicy::Fixed(BackendKind::CpuSharded),
        ..ServeConfig::default()
    }
}

/// How long [`occupy_worker`] keeps the single worker busy.
const BUSY: Duration = Duration::from_millis(400);

/// [`cpu_only`] whose first batch fails its first attempt and sleeps
/// [`BUSY`] before the retry that succeeds — the one real sleep in the
/// resilience layer, used here to hold the slot busy on purpose.
fn cpu_only_first_batch_slow(max_batch_size: usize) -> ServeConfig {
    ServeConfig {
        fault_plan: Some(FaultPlan::new(0).on(
            BackendKind::CpuSharded,
            FaultSchedule::Once { at: 0 },
            FaultKind::Fail,
        )),
        resilience: ResilienceConfig {
            max_retries: 1,
            backoff_base: BUSY,
            backoff_cap: BUSY,
            backoff_jitter_permille: 0,
            ..ResilienceConfig::default()
        },
        ..cpu_only(max_batch_size)
    }
}

/// Submits the one-row batch that [`cpu_only_first_batch_slow`] slows
/// down and returns once it is in flight: from here on the worker is
/// busy for [`BUSY`], and later requests queue until it comes back.
fn occupy_worker(serve: &RfxServe, rng: &mut StdRng) -> Ticket {
    let ticket = serve.submit(&rows(rng, 1)).unwrap();
    while serve.stats().backends[0].inflight_rows == 0 {
        assert!(!ticket.is_ready(), "the occupying batch finished before it was seen in flight");
        std::thread::yield_now();
    }
    ticket
}

/// Rows that pile up behind a busy worker leave in full batches: the
/// worker, back from its slow batch, takes `max_batch_size` rows at once.
#[test]
fn size_flush_fires_before_the_deadline() {
    let serve = RfxServe::start(model(1), cpu_only_first_batch_slow(8));
    let mut rng = StdRng::seed_from_u64(10);
    let t0 = Instant::now();
    let occupier = occupy_worker(&serve, &mut rng);
    let tickets: Vec<Ticket> = (0..8).map(|_| serve.submit(&rows(&mut rng, 1)).unwrap()).collect();
    for t in tickets.iter().chain([&occupier]) {
        t.wait_one().unwrap();
    }
    // Nothing holds the full batch back once the worker is free.
    assert!(t0.elapsed() < Duration::from_secs(2), "the size batch waited past its worker");
    let stats = serve.shutdown();
    assert_eq!(stats.completed_rows, 9);
    assert_eq!(stats.batches, 2, "the occupier, then 8 rows at max_batch_size=8 in one batch");
    assert_eq!(stats.max_batch_occupancy, 8);
    assert_eq!(stats.flushes, FlushStats { idle: 1, size: 1, ..FlushStats::default() });
}

/// The work-conserving rule: a request that finds its backend idle is
/// not held back to wait for company.
#[test]
fn idle_backend_takes_a_lone_request_without_the_delay() {
    let serve = RfxServe::start(model(10), cpu_only(1024));
    let mut rng = StdRng::seed_from_u64(18);
    let t0 = Instant::now();
    serve.submit(&rows(&mut rng, 1)).unwrap().wait_one().unwrap();
    assert!(t0.elapsed() < Duration::from_secs(1), "nothing to amortise against: no waiting");
    let stats = serve.shutdown();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.flushes, FlushStats { idle: 1, ..FlushStats::default() });
}

/// ... and while the backend is busy, requests coalesce: what arrived
/// during one batch's execution is the next batch.
#[test]
fn requests_behind_a_busy_backend_form_one_batch() {
    let serve = RfxServe::start(model(11), cpu_only_first_batch_slow(1024));
    let mut rng = StdRng::seed_from_u64(19);
    let t0 = Instant::now();
    let occupier = occupy_worker(&serve, &mut rng);
    let tickets: Vec<Ticket> = (0..6).map(|_| serve.submit(&rows(&mut rng, 1)).unwrap()).collect();
    for t in tickets.iter().chain([&occupier]) {
        t.wait_one().unwrap();
    }
    assert!(t0.elapsed() < Duration::from_secs(2), "taken as soon as the worker was back");
    let stats = serve.shutdown();
    assert_eq!(stats.completed_rows, 7);
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.max_batch_occupancy, 6);
    assert_eq!(stats.flushes, FlushStats { idle: 2, ..FlushStats::default() });
}

#[test]
fn oversized_micro_batch_forms_its_own_batch() {
    let serve = RfxServe::start(model(3), cpu_only(4));
    let mut rng = StdRng::seed_from_u64(12);
    let ticket = serve.submit_micro_batch(&rows(&mut rng, 10)).unwrap();
    assert_eq!(ticket.rows(), 10);
    assert_eq!(ticket.wait().unwrap().len(), 10, "micro-batches are atomic");
    let stats = serve.shutdown();
    assert_eq!(stats.max_batch_occupancy, 10, "oversized request rides alone, unsplit");
}

#[test]
fn overload_sheds_with_a_typed_rejection() {
    // A busy worker and a huge batch size pin admitted rows in the queue.
    let config = ServeConfig { queue_capacity: 4, ..cpu_only_first_batch_slow(1024) };
    let serve = RfxServe::start(model(4), config);
    let mut rng = StdRng::seed_from_u64(13);
    let occupier = occupy_worker(&serve, &mut rng);
    let tickets: Vec<Ticket> = (0..4).map(|_| serve.submit(&rows(&mut rng, 1)).unwrap()).collect();
    match serve.submit(&rows(&mut rng, 1)) {
        Err(ServeError::Overloaded { queued_rows, capacity }) => {
            assert_eq!((queued_rows, capacity), (4, 4));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // A 2-row micro-batch cannot fit either.
    assert!(matches!(
        serve.submit_micro_batch(&rows(&mut rng, 2)),
        Err(ServeError::Overloaded { .. })
    ));
    let stats = serve.shutdown();
    assert_eq!(stats.rejected_rows, 3);
    // Every admitted row was served: the occupier and the queued four.
    assert_eq!(stats.completed_rows, 5);
    for t in tickets.iter().chain([&occupier]) {
        t.wait_one().unwrap();
    }
}

#[test]
fn shutdown_drains_every_admitted_request() {
    let serve = RfxServe::start(model(5), cpu_only(1024));
    let mut rng = StdRng::seed_from_u64(14);
    let tickets: Vec<Ticket> = (0..20).map(|_| serve.submit(&rows(&mut rng, 1)).unwrap()).collect();
    let t0 = Instant::now();
    let stats = serve.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(5), "the drain took its time");
    assert_eq!(stats.completed_rows, 20);
    for t in &tickets {
        assert!(t.is_ready(), "every admitted ticket resolves before shutdown returns");
        t.wait_one().unwrap();
    }
}

#[test]
fn malformed_submissions_are_rejected_without_queueing() {
    let serve = RfxServe::start_default(model(6));
    assert!(matches!(serve.submit(&[0.5; NF - 1]), Err(ServeError::BadRequest { .. })));
    assert!(matches!(serve.submit(&[0.5; NF + 1]), Err(ServeError::BadRequest { .. })));
    assert!(matches!(serve.submit_micro_batch(&[]), Err(ServeError::BadRequest { .. })));
    assert!(matches!(serve.submit_micro_batch(&[0.5; NF + 2]), Err(ServeError::BadRequest { .. })));
    let stats = serve.shutdown();
    assert_eq!(stats.submitted_rows, 0);
}

#[test]
fn every_backend_matches_the_serial_reference() {
    let m = model(7);
    let mut rng = StdRng::seed_from_u64(15);
    let queries = rows(&mut rng, 64);
    let qv = rfx_forest::dataset::QueryView::new(&queries, NF).unwrap();
    let reference = m.forest().predict_batch(qv);
    // The quantized backend's reference is its own layout's scalar path.
    let quant = rfx_core::quant::QFilForest::<u8>::build(m.forest()).unwrap();
    let quant_reference: Vec<u32> = queries.chunks(NF).map(|q| quant.predict(q)).collect();

    for kind in BackendKind::ALL {
        let config = ServeConfig {
            max_batch_size: 16,
            backends: vec![kind],
            policy: SchedulePolicy::Fixed(kind),
            ..ServeConfig::default()
        };
        let serve = RfxServe::start(m.clone(), config);
        let tickets: Vec<Ticket> =
            queries.chunks(NF).map(|row| serve.submit(row).unwrap()).collect();
        let got: Vec<u32> = tickets.iter().map(|t| t.wait_one().unwrap()).collect();
        let expected =
            if kind == BackendKind::CpuShardedQ8 { &quant_reference } else { &reference };
        assert_eq!(&got, expected, "{} disagrees with its reference", kind.name());
        let stats = serve.shutdown();
        assert_eq!(stats.backends.len(), 1);
        assert_eq!(stats.backends[0].backend, kind.name());
        assert_eq!(stats.backends[0].queries, 64);
    }
}

/// A pool of every kind, pinned to each of its backends in turn: every
/// backend's series and span tree are checked, whichever the cost model
/// would have picked.
#[test]
fn telemetry_surface_covers_queue_batcher_scheduler_and_backends() {
    for kind in BackendKind::ALL {
        let tel = rfx_telemetry::Telemetry::new();
        let serve = RfxServe::start_with_telemetry(
            model(9),
            ServeConfig {
                max_batch_size: 8,
                backends: BackendKind::ALL.to_vec(),
                policy: SchedulePolicy::Fixed(kind),
                ..ServeConfig::default()
            },
            tel.clone(),
        );
        let mut rng = StdRng::seed_from_u64(17);
        let tickets: Vec<Ticket> =
            (0..24).map(|_| serve.submit(&rows(&mut rng, 1)).unwrap()).collect();
        for t in &tickets {
            t.wait_one().unwrap();
        }
        let stats = serve.shutdown();
        assert_eq!(stats.completed_rows, 24);

        let snap = tel.snapshot();
        let m = &snap.metrics;
        assert_eq!(m.counter("serve.queue.submitted_rows"), Some(24));
        assert_eq!(m.counter("serve.requests.completed_rows"), Some(24));
        assert!(m.counter("serve.batcher.batches").unwrap() >= 1);
        assert!(m.gauge("serve.queue.depth").is_some());
        assert_eq!(m.histogram("serve.queue.wait_us").map(|h| h.count), Some(24));
        assert_eq!(m.histogram("serve.request.latency_us").map(|h| h.count), Some(24));
        // Scheduler + per-backend series exist for every pool member,
        // and the pinned backend executed every batch.
        let mut dispatched = 0;
        for member in BackendKind::ALL {
            let name = member.name();
            dispatched += m.counter(&format!("serve.scheduler.{name}.dispatches")).unwrap();
            assert!(m.gauge(&format!("serve.scheduler.{name}.ewma_us")).is_some());
            assert!(m.histogram(&format!("serve.backend.{name}.batch_latency_us")).is_some());
        }
        let batches = m.counter("serve.batcher.batches").unwrap();
        assert_eq!(dispatched, batches);
        assert_eq!(m.counter(&format!("serve.backend.{kind}.batches")), Some(batches), "{kind}");
        // Every batch says which rule closed it, as a counter and on its span.
        let flushed: u64 = ["size", "idle", "drain"]
            .iter()
            .map(|reason| m.counter(&format!("serve.flush.{reason}")).unwrap())
            .sum();
        assert_eq!(flushed, stats.batches);
        for root in snap.trace.spans.iter().filter(|s| s.name == "serve.batch") {
            assert!(
                root.attrs.iter().any(|(k, _)| k == "flush"),
                "batch span without a flush reason"
            );
        }

        // Span tree: a `serve.batch` root with a `serve.batch.traverse`
        // child, tagged with the backend name.
        let root = snap
            .trace
            .spans
            .iter()
            .find(|s| {
                s.name == "serve.batch"
                    && s.attrs.iter().any(|(k, v)| k == "backend" && v == kind.name())
            })
            .unwrap_or_else(|| panic!("no serve.batch span for {kind}"));
        assert_eq!(snap.trace.depth_of(root), 0);
        let child = snap
            .trace
            .spans
            .iter()
            .find(|s| s.parent == root.id && s.name == "serve.batch.traverse")
            .unwrap_or_else(|| panic!("no traverse child for {kind}"));
        assert!(child.duration_us <= root.duration_us);
    }
}

/// Each worker opens its batch's `serve.batch` root and hands the span's
/// context down to the backend (and, for a large batch, to the engine's
/// helper threads); everything recorded below must still join that
/// root's trace. One root per batch, zero orphans, on every backend.
#[test]
fn every_span_reaches_a_single_root_per_batch() {
    for kind in BackendKind::ALL {
        let tel = rfx_telemetry::Telemetry::new();
        let serve = RfxServe::start_with_telemetry(
            model(21),
            ServeConfig {
                max_batch_size: 8,
                backends: BackendKind::ALL.to_vec(),
                policy: SchedulePolicy::Fixed(kind),
                ..ServeConfig::default()
            },
            tel.clone(),
        );
        let mut rng = StdRng::seed_from_u64(23);
        let tickets: Vec<Ticket> =
            (0..32).map(|_| serve.submit(&rows(&mut rng, 1)).unwrap()).collect();
        for t in &tickets {
            t.wait_one().unwrap();
        }
        let stats = serve.shutdown();
        let snap = tel.trace_snapshot();
        assert_eq!(snap.dropped, 0, "the default ring must hold a 32-row run on {kind}");

        // Exactly one root per batch, and it is always the batch span.
        let roots: Vec<_> = snap.spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len() as u64, stats.batches, "one root span per formed batch");
        let mut seen_traces = std::collections::HashSet::new();
        for root in &roots {
            assert_eq!(root.name, "serve.batch", "only batch spans may be roots");
            assert!(seen_traces.insert(root.trace), "roots must have distinct trace ids");
        }

        // Every non-root span walks up to a serve.batch root of the same
        // trace — the cross-thread parent edge is never severed.
        for span in &snap.spans {
            let mut cur = span.clone();
            let mut hops = 0;
            while cur.parent != 0 {
                cur = snap
                    .spans
                    .iter()
                    .find(|s| s.id == cur.parent)
                    .unwrap_or_else(|| {
                        panic!("span {} ({}) has a missing parent", span.id, span.name)
                    })
                    .clone();
                hops += 1;
                assert!(hops <= 16, "parent chain of span {} did not terminate", span.id);
            }
            assert_eq!(cur.name, "serve.batch");
            assert_eq!(cur.trace, span.trace, "trace id must be inherited from the root");
        }

        let traverse = snap.spans.iter().filter(|s| s.name == "serve.batch.traverse").count();
        assert_eq!(traverse, roots.len(), "each batch has exactly one traverse span");

        // The four stage spans tile their root: they account for a
        // batch's wall-clock to within 10 % (the median batch, so one
        // descheduled thread between two stages does not fail the run).
        // Span durations are truncated to whole µs, so the stages may
        // also fall short by up to one µs each: on a CPU slot's batch of
        // a few tens of µs, that alone is over 10 %.
        const STAGES: [&str; 4] = ["queue_wait", "dispatch", "traverse", "deliver"];
        let mut untiled: Vec<f64> = roots
            .iter()
            .map(|root| {
                let stages: Vec<_> = STAGES
                    .iter()
                    .map(|stage| {
                        let name = format!("serve.batch.{stage}");
                        let mut spans = snap.spans.iter().filter(|s| s.parent == root.id);
                        spans.find(|s| s.name == name).expect("every stage has a span")
                    })
                    .collect();
                // Consecutive stages abut: each starts where the one
                // before ends, up to the µs its truncation may lose.
                for pair in stages.windows(2) {
                    let end = pair[0].start_us + pair[0].duration_us;
                    assert!(
                        pair[1].start_us <= end + 1,
                        "{kind}: {} ends at {end} µs, {} starts at {} µs",
                        pair[0].name,
                        pair[1].name,
                        pair[1].start_us
                    );
                }
                let stage_us: u64 = stages.iter().map(|s| s.duration_us).sum();
                let short = root.duration_us.saturating_sub(stage_us + STAGES.len() as u64);
                let over = stage_us.saturating_sub(root.duration_us);
                (short + over) as f64 / root.duration_us as f64
            })
            .collect();
        untiled.sort_by(f64::total_cmp);
        let median = untiled[untiled.len() / 2];
        assert!(median <= 0.10, "{kind}: stage spans leave {untiled:?} of their batches untiled");

        // Tickets expose the trace id their batch sampled into, so a
        // caller can jump from a slow request to its span tree — and so
        // does the exemplar a latency histogram keeps for its tail bucket.
        let ticket_trace = tickets[0].trace_id().expect("full sampling stamps every ticket");
        let exemplar = tel
            .metrics_snapshot()
            .histogram("serve.batch.duration_us")
            .and_then(|h| h.exemplar_for_quantile(0.99))
            .expect("full sampling leaves an exemplar in every populated bucket");
        for trace in [ticket_trace, exemplar.trace] {
            assert!(snap.spans.iter().any(|s| s.trace == trace.0 && s.name == "serve.batch"));
        }
    }
}

#[test]
fn stats_snapshot_is_json_serializable() {
    let serve = RfxServe::start_default(model(8));
    let mut rng = StdRng::seed_from_u64(16);
    serve.submit(&rows(&mut rng, 1)).unwrap().wait_one().unwrap();
    let stats = serve.shutdown();
    let json = serde_json::to_string(&stats).unwrap();
    assert!(json.contains("\"throughput_qps\""));
    assert!(json.contains("\"cpu-sharded\""));
    assert!(json.contains("\"p99_us\""));
}

/// A model builds no layout up front; whoever asks for one first gets
/// exactly what an eager build makes. Each layout cell is each clone's
/// own until it is built.
#[test]
fn a_deferred_layout_equals_an_eager_one() {
    let deferred = model(2);
    let clone = deferred.clone();
    let forest = deferred.forest();
    assert_eq!(**clone.blocks(), BlockForest::build(forest).unwrap());
    let hier = clone.hier();
    assert_eq!(**hier, build_forest(forest, hier.config()).unwrap());
    // A clone taken before a build builds its own; one taken after
    // shares it.
    assert!(!Arc::ptr_eq(deferred.blocks(), clone.blocks()));
    assert_eq!(deferred.blocks(), clone.blocks());
    assert!(Arc::ptr_eq(clone.clone().blocks(), clone.blocks()));
    assert!(Arc::ptr_eq(clone.clone().hier(), clone.hier()));
}

/// A forest the block store cannot hold (its feature field is 16 bits)
/// is refused at publish with a typed error on every kind of pool — by
/// the constructor's pre-check, never by a later panic in `blocks()` —
/// and leaves the registry as it was.
#[test]
fn a_forest_the_layout_refuses_is_a_typed_error_on_any_pool() {
    let hostile = || RandomForest::from_trees(vec![DecisionTree::leaf(0)], 70_000, 3).unwrap();
    for backends in [BackendKind::ALL.to_vec(), vec![BackendKind::CpuSharded]] {
        let policy = SchedulePolicy::Fixed(BackendKind::CpuSharded);
        let serve =
            RfxServe::start(model(3), ServeConfig { backends, policy, ..ServeConfig::default() });
        let v2 = serve.publish_forest(model(4).forest().as_ref().clone()).unwrap();
        match serve.publish_forest(hostile()) {
            Err(ServeError::IncompatibleModel { reason }) => {
                assert!(reason.contains("features are 16 bits"), "{reason}")
            }
            other => panic!("expected IncompatibleModel, got {other:?}"),
        }
        assert!(ServeModel::prepare(hostile()).is_err());
        assert_eq!(serve.versions(), vec![serve.active_version(), v2], "nothing registered");
        let v3 = serve.publish_forest(model(5).forest().as_ref().clone()).unwrap();
        assert_eq!(v3.get(), 3, "the refused publish consumed no version number");
        assert_eq!(serve.shutdown().model.evicted_versions, 0);
    }
}

/// A label of 65 536 does not fit the block store's u16 exit labels: a
/// forest of more than 65 536 classes is refused by `prepare` with a
/// typed error, and by `publish_forest` as an incompatible model — never
/// served wrong labels. A forest of exactly 65 536 classes is served its
/// highest label.
#[test]
fn more_classes_than_a_block_label_names_are_refused() {
    let leaves = |classes| {
        RandomForest::from_trees(vec![DecisionTree::leaf(classes - 1)], NF, classes).unwrap()
    };
    match ServeModel::prepare(leaves(65_537)) {
        Err(LayoutError::BadConfig { detail }) => assert!(detail.contains("16 bits"), "{detail}"),
        other => panic!("expected BadConfig, got {other:?}"),
    }
    let serve = RfxServe::start(ServeModel::prepare(leaves(65_536)).unwrap(), cpu_only(1));
    assert_eq!(serve.submit(&[0.5; NF]).unwrap().wait_one(), Ok(65_535));
    match serve.publish_forest(leaves(65_537)) {
        Err(ServeError::IncompatibleModel { reason }) => {
            assert!(reason.contains("16 bits"), "{reason}")
        }
        other => panic!("expected IncompatibleModel, got {other:?}"),
    }
    serve.shutdown();
}

/// The `rfx-telemetry` export golden (`resilience_metrics.json`) names
/// only metrics a running service registers: one with a faulted
/// `cpu-sharded-q8` slot beside `cpu-sharded`, after traffic whose every
/// q8 attempt wedges and is retried onto the fault-free slot. Deleting or
/// renaming a serve counter or gauge fails here, not only in the fixture.
#[test]
fn the_export_golden_names_only_metrics_the_service_registers() {
    let path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../telemetry/tests/golden/resilience_metrics.json");
    let golden: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |section: &str| match golden.get(section) {
        Some(serde_json::Value::Object(fields)) => {
            fields.iter().map(|(name, _)| name.clone()).collect::<Vec<_>>()
        }
        other => panic!("{section}: expected an object, got {other:?}"),
    };
    let q8 = BackendKind::CpuShardedQ8;
    let wedged =
        FaultPlan::new(14).on(q8, FaultSchedule::Every { n: 1, offset: 0 }, FaultKind::Wedge);
    let serve = RfxServe::start(
        grid_model(14),
        ServeConfig {
            backends: vec![q8, BackendKind::CpuSharded],
            policy: SchedulePolicy::Fixed(q8),
            fault_plan: Some(wedged),
            ..ServeConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(14);
    for row in rows(&mut rng, 8).chunks(NF) {
        serve.submit(row).unwrap().wait_one().unwrap();
    }
    let stats = serve.stats();
    assert!(stats.backends[0].injected_faults > 0, "the q8 slot never wedged");
    let metrics = serve.telemetry().metrics_snapshot();
    let counters = names("counters");
    let gauges = names("gauges");
    assert!(!counters.is_empty() && !gauges.is_empty());
    for name in &counters {
        assert!(metrics.counter(name).is_some(), "counter {name} is not registered");
    }
    for name in &gauges {
        assert!(metrics.gauge(name).is_some(), "gauge {name} is not registered");
    }
    serve.shutdown();
}

/// Byte offsets, in `write_forest` output, of the first tree's first leaf
/// label and first inner node's feature.
fn first_label_and_feature(bytes: &[u8]) -> (usize, usize) {
    let mut at = 28 + 8; // the header, then the first tree's node count
    let (mut label, mut feature) = (None, None);
    while label.is_none() || feature.is_none() {
        if bytes[at] == 0 {
            label.get_or_insert(at + 1);
            at += 5;
        } else {
            feature.get_or_insert(at + 1);
            at += 15;
        }
    }
    (label.unwrap(), feature.unwrap())
}

/// Model bytes whose leaf label is past the class count (it would vote
/// into the next row's counts) or whose feature is past the query width
/// (a worker's slice-index panic) never reach a served version: the
/// read refuses them with a typed error, nothing is published, and the
/// service keeps answering from the version it had.
#[test]
fn out_of_range_labels_and_features_never_reach_a_served_version() {
    let serve = RfxServe::start(model(6), cpu_only(8));
    let mut bytes = Vec::new();
    write_forest(model(7).forest(), &mut bytes).unwrap();
    let (label, feature) = first_label_and_feature(&bytes);
    let publish = |bytes: &[u8]| -> Result<(), ForestError> {
        let forest = read_forest(bytes)?;
        serve.publish_forest(forest).expect("a forest that reads is publishable");
        Ok(())
    };

    let mut bad_label = bytes.clone();
    bad_label[label..label + 4].copy_from_slice(&3u32.to_le_bytes());
    assert_eq!(publish(&bad_label), Err(ForestError::LabelOutOfRange { label: 3, num_classes: 3 }));
    let mut bad_feature = bytes.clone();
    bad_feature[feature..feature + 2].copy_from_slice(&(NF as u16).to_le_bytes());
    match publish(&bad_feature) {
        Err(ForestError::Corrupt { detail }) => assert!(detail.contains("feature"), "{detail}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(serve.versions(), vec![serve.active_version()], "nothing registered");

    let mut rng = StdRng::seed_from_u64(6);
    let queries = rows(&mut rng, 64);
    let labels = serve.submit_micro_batch(&queries).unwrap().wait().unwrap();
    let forest = model(6).forest().clone();
    let expected: Vec<u32> = queries.chunks(NF).map(|q| forest.predict(q)).collect();
    assert_eq!(labels, expected);
    publish(&bytes).expect("the unpatched bytes read and publish");
    assert_eq!(serve.versions().len(), 2);
}

/// A backend that panics costs its batch an attempt, never its worker.
/// Pinned with `Fixed` to a slot whose batches panic, every ticket ends
/// delivered by the last resort or as `BackendFailed { reason: "panic" }`
/// — none hangs — and the slot answers the next request correctly.
#[test]
fn a_panicking_backend_fails_the_attempt_not_the_worker() {
    let q8 = BackendKind::CpuShardedQ8;
    let m = grid_model(12);
    let mut rng = StdRng::seed_from_u64(12);
    let queries = rows(&mut rng, 8);
    let expected = predict_reference(m.forest(), QueryView::new(&queries, NF).unwrap());
    let serve_with = |backends: Vec<BackendKind>, schedule: FaultSchedule| {
        RfxServe::start(
            m.clone(),
            ServeConfig {
                backends,
                policy: SchedulePolicy::Fixed(q8),
                fault_plan: Some(FaultPlan::new(5).on(q8, schedule, FaultKind::Panic)),
                ..ServeConfig::default()
            },
        )
    };

    // Every q8 batch panics; the fault-free last resort answers each.
    let serve =
        serve_with(vec![BackendKind::CpuSharded, q8], FaultSchedule::Every { n: 1, offset: 0 });
    for row in queries.chunks(NF).take(4) {
        serve.submit(row).unwrap().wait_one().unwrap();
    }
    let labels = serve.submit_micro_batch(&queries).unwrap().wait().unwrap();
    assert_eq!(labels, expected);
    let stats = serve.shutdown();
    assert_eq!((stats.completed_rows, stats.failed_rows), (12, 0));
    assert_eq!((stats.backends[0].batches, stats.backends[1].batches), (5, 0));
    assert!(stats.backends[1].injected_faults >= 3, "the q8 slot never panicked");

    // The q8 slot is its own last resort: its first batch panics on all
    // three attempts and fails with a typed error; the next one, past the
    // burst, is served by the same worker.
    let serve = serve_with(vec![q8], FaultSchedule::Burst { from: 0, len: 3 });
    match serve.submit(&queries[..NF]).unwrap().wait_one() {
        Err(ServeError::BackendFailed { attempts, reason }) => {
            assert_eq!((attempts, reason.as_str()), (3, "panic"));
        }
        other => panic!("expected BackendFailed, got {other:?}"),
    }
    let labels = serve.submit_micro_batch(&queries).unwrap().wait().unwrap();
    assert_eq!(labels, expected);
    let stats = serve.shutdown();
    assert_eq!((stats.failed_requests, stats.completed_rows), (1, 8));
}
