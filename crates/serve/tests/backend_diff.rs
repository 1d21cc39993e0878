//! Differential matrix: every [`BackendKind`] the executor pool can
//! host must agree bit-for-bit with its committed oracle on the same
//! forest and queries — the serial f32 CPU reference for the exact
//! backends, the quantized layout's own scalar traversal for
//! `cpu-sharded-q8` (exact on the quantized grid; bounded accuracy
//! delta vs f32 is asserted separately on the accuracy profiles).
//! Backends are interchangeable executors, never sources of answer
//! drift. Plus round-trip properties for the `Display`/`FromStr` pair,
//! which CLIs and configs rely on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::quant::QFilForest;
use rfx_core::TreeEnsemble;
use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, RandomForest};
use rfx_kernels::cpu::predict_reference;
use rfx_serve::{BackendKind, RfxServe, SchedulePolicy, ServeConfig, ServeModel};

const NF: usize = 6;

/// `rows` rows of ordinary values, every row salted with one value a
/// comparison treats specially — NaN, ±∞, ±0.0, subnormals — on a feature
/// that rotates with the row: whichever backend answers, a NaN goes right.
fn hostile_queries(rng: &mut StdRng, rows: usize) -> Vec<f32> {
    let sub = f32::MIN_POSITIVE / 4.0;
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, sub, -sub];
    let mut queries: Vec<f32> = (0..NF * rows).map(|_| rng.gen()).collect();
    for r in 0..rows {
        queries[r * NF + r % NF] = specials[r % specials.len()];
    }
    queries
}

/// One service per backend over the same model and queries: every
/// variant in [`BackendKind::ALL`] must reproduce its oracle exactly.
/// A new enum variant lands in this matrix automatically.
#[test]
fn every_backend_matches_the_cpu_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let trees: Vec<DecisionTree> =
        (0..7).map(|_| DecisionTree::random(&mut rng, 7, NF as u16, 4, 0.2)).collect();
    let forest = RandomForest::from_trees(trees, NF, 4).unwrap();
    let queries = hostile_queries(&mut rng, 96);
    let oracle = predict_reference(&forest, QueryView::new(&queries, NF).unwrap());
    let model = ServeModel::prepare(forest).expect("the block store holds a small forest");
    // The quantized backend answers on its own grid: its oracle is the
    // packed layout's scalar traversal (bit-exact vs the snapped forest).
    let quant = QFilForest::<u8>::build(model.forest()).expect("tiny forest packs");
    let quant_oracle: Vec<u32> = queries.chunks(NF).map(|q| quant.predict(q)).collect();

    for backend in BackendKind::ALL {
        let serve = RfxServe::start(
            model.clone(),
            ServeConfig {
                max_batch_size: 32,
                backends: vec![backend],
                policy: SchedulePolicy::Fixed(backend),
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<_> =
            queries.chunks(NF * 8).map(|chunk| serve.submit_micro_batch(chunk).unwrap()).collect();
        let mut got = Vec::with_capacity(oracle.len());
        for ticket in &tickets {
            got.extend(ticket.wait().unwrap());
        }
        serve.shutdown();
        let expected = if backend == BackendKind::CpuShardedQ8 { &quant_oracle } else { &oracle };
        assert_eq!(&got, expected, "{} diverged from its oracle", backend.name());
    }
}

/// The parse error must enumerate every variant, and do so via the same
/// single source of truth as `name()` — so an unknown-backend message
/// from a CLI is always complete and current.
#[test]
fn parse_error_lists_every_variant() {
    let err = "no-such-backend".parse::<BackendKind>().unwrap_err();
    assert!(err.contains("no-such-backend"), "error should echo the bad input: {err}");
    for kind in BackendKind::ALL {
        assert!(err.contains(kind.name()), "error is missing variant {:?}: {err}", kind.name());
    }
    // The list is exactly ALL in order — a stale hand-maintained list
    // (extra, missing, or reordered entries) fails here.
    let listed: Vec<&str> = err
        .split("expected one of: ")
        .nth(1)
        .expect("error ends with the variant list")
        .split(", ")
        .collect();
    let expected: Vec<&str> = BackendKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(listed, expected);
}

fn arb_backend() -> impl Strategy<Value = BackendKind> {
    (0usize..BackendKind::ALL.len()).prop_map(|i| BackendKind::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Display` → `FromStr` is the identity for every variant.
    #[test]
    fn backend_kind_round_trips_through_its_name(kind in arb_backend()) {
        let name = kind.to_string();
        prop_assert_eq!(name.parse::<BackendKind>().unwrap(), kind);
        prop_assert_eq!(name, kind.name());
    }

    /// Anything that is not exactly a listed name fails to parse —
    /// including case and whitespace variations of real names.
    #[test]
    fn non_canonical_names_do_not_parse(kind in arb_backend()) {
        let name = kind.name();
        prop_assert!(name.to_uppercase().parse::<BackendKind>().is_err());
        prop_assert!(format!(" {name}").parse::<BackendKind>().is_err());
        prop_assert!(format!("{name} ").parse::<BackendKind>().is_err());
    }
}
