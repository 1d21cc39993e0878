//! Quantized-layout matrix: per-dataset footprint, sharded-engine
//! throughput, and accuracy delta for the packed u8/u16 layout
//! ([`QFilForest`]) against the f32 baselines ([`FilForest`],
//! [`CsrForest`]).
//!
//! Three metric families land in `bench_results/quant-<scale>.json`:
//!
//! * **footprint** — resident bytes per layout, as `[label, bytes]`
//!   pairs. Training is seeded, so these are deterministic and CI gates
//!   them tightly (any drift is a real encoding change).
//! * **throughput** — sharded-engine queries/second per layout, as
//!   `throughput_qps` objects. Wall-clock, so CI gates them with a
//!   generous threshold.
//! * **accuracy** — f32 accuracy and the u8/u16 deltas, as plain
//!   scalars CI does not gate; instead this binary asserts the deltas
//!   against the committed bounds ([`MAX_ACCURACY_DELTA_U8`],
//!   [`MAX_ACCURACY_DELTA_U16`]) and exits non-zero on a violation.
//!
//! The qfil-u8 vs fil-f32 rows double as the sharded-engine
//! head-to-head: [`EnginePlan::auto`] sizes shards from the compressed
//! footprint, so at default scale and above (forests that dwarf L2) the
//! u8 layout must not lose — the cache win the quantization exists for.
//! Tiny-scale forests fit in cache either way, so there the ratio is
//! only recorded.

use rfx_bench::harness::{write_json, Table};
use rfx_bench::scale::Scale;
use rfx_bench::timing::{measure_qps, tiled};
use rfx_bench::workloads::trained_forest;
use rfx_core::quant::{MAX_ACCURACY_DELTA_U16, MAX_ACCURACY_DELTA_U8};
use rfx_core::{CsrForest, FilForest, QFilForest};
use rfx_data::specs::paper_datasets;
use rfx_forest::dataset::QueryView;
use rfx_forest::metrics::accuracy;
use rfx_kernels::cpu::predict_reference;
use rfx_kernels::{Predictor, ShardedEngine};
use serde::Serialize;

#[derive(Serialize)]
struct ThroughputEntry {
    name: String,
    throughput_qps: f64,
}

#[derive(Serialize)]
struct AccuracyEntry {
    f32_accuracy: f64,
    qfil_u8_delta: f64,
    qfil_u16_delta: f64,
}

#[derive(Serialize)]
struct Cell {
    name: String,
    depth: usize,
    footprint_bytes: Vec<(String, f64)>,
    throughput: Vec<ThroughputEntry>,
    accuracy: AccuracyEntry,
    /// qfil-u8 qps over fil-f32 qps — the head-to-head ratio (ungated:
    /// wall-clock).
    qfil_u8_speedup_vs_f32: f64,
}

fn main() {
    let scale = Scale::from_args();
    let mut cells = Vec::new();
    let mut best_default_speedup = 0.0f64;

    for kind in paper_datasets() {
        let depth = kind.paper_depth_band()[1];
        let (forest, test) = trained_forest(kind, depth, scale.timing_trees(), scale);
        let nf = forest.num_features();
        let timing = test.head(scale.queries(kind.paper_samples() / 2));
        let scoring = test.head(scale.accuracy_rows(kind.paper_samples() / 2));

        let csr = CsrForest::build(&forest);
        let fil = FilForest::build(&forest);
        let qfil8 = QFilForest::<u8>::build(&forest).expect("paper forests fit the u8 FIL budget");
        let qfil16 =
            QFilForest::<u16>::build(&forest).expect("paper forests fit the u16 FIL budget");

        // Spot-check the exactness contract outside the test suite: the
        // packed u8 layout must match the snapped forest bit-for-bit.
        let snapped = qfil8.quantizer().snap_forest(&forest);
        let probe = timing.head(64);
        let oracle = predict_reference(&snapped, QueryView::new(probe.raw_features(), nf).unwrap());
        let got: Vec<u32> = probe.raw_features().chunks(nf).map(|q| qfil8.predict(q)).collect();
        assert_eq!(got, oracle, "{}: qfil-u8 diverged from its snapped oracle", kind.name());

        let footprint_bytes: Vec<(String, f64)> = vec![
            ("csr-f32".into(), csr.footprint().total() as f64),
            ("fil-f32".into(), fil.footprint().total() as f64),
            ("qfil-u8".into(), qfil8.footprint().total() as f64),
            ("qfil-u16".into(), qfil16.footprint().total() as f64),
        ];

        let fil_engine = ShardedEngine::new(fil);
        let qfil8_engine = ShardedEngine::new(qfil8);
        let qfil16_engine = ShardedEngine::new(qfil16);

        let block = tiled(timing.raw_features(), nf);
        let qps_f32 = measure_qps(&fil_engine, &block, nf);
        let qps_q8 = measure_qps(&qfil8_engine, &block, nf);
        let qps_q16 = measure_qps(&qfil16_engine, &block, nf);
        let throughput = vec![
            ThroughputEntry { name: "fil-f32".into(), throughput_qps: qps_f32 },
            ThroughputEntry { name: "qfil-u8".into(), throughput_qps: qps_q8 },
            ThroughputEntry { name: "qfil-u16".into(), throughput_qps: qps_q16 },
        ];
        let ratio = qps_q8 / qps_f32;
        if scale != Scale::Tiny {
            best_default_speedup = best_default_speedup.max(ratio);
        }

        let sv = QueryView::new(scoring.raw_features(), nf).unwrap();
        let acc_f32 = accuracy(&fil_engine.predict(sv), scoring.labels());
        let acc_q8 = accuracy(&qfil8_engine.predict(sv), scoring.labels());
        let acc_q16 = accuracy(&qfil16_engine.predict(sv), scoring.labels());
        let d8 = acc_f32 - acc_q8;
        let d16 = acc_f32 - acc_q16;
        assert!(
            d8 <= MAX_ACCURACY_DELTA_U8,
            "{}: u8 accuracy delta {d8:.4} exceeds the committed bound {MAX_ACCURACY_DELTA_U8}",
            kind.name()
        );
        assert!(
            d16 <= MAX_ACCURACY_DELTA_U16,
            "{}: u16 accuracy delta {d16:.4} exceeds the committed bound {MAX_ACCURACY_DELTA_U16}",
            kind.name()
        );

        let mut table = Table::new(
            &format!("Quantized layouts: {} @ depth {depth}", kind.name()),
            &["layout", "bytes", "qps", "acc delta"],
        );
        let acc_cell = |d: f64| format!("{d:+.4}");
        table.row(vec![
            "fil-f32".into(),
            format!("{}", footprint_bytes[1].1 as u64),
            format!("{qps_f32:.0}"),
            "baseline".into(),
        ]);
        table.row(vec![
            "qfil-u8".into(),
            format!("{}", footprint_bytes[2].1 as u64),
            format!("{qps_q8:.0}"),
            acc_cell(-d8),
        ]);
        table.row(vec![
            "qfil-u16".into(),
            format!("{}", footprint_bytes[3].1 as u64),
            format!("{qps_q16:.0}"),
            acc_cell(-d16),
        ]);
        table.print();
        println!("  qfil-u8 vs fil-f32 sharded head-to-head: {ratio:.2}x\n");

        cells.push(Cell {
            name: kind.name().to_string(),
            depth,
            footprint_bytes,
            throughput,
            accuracy: AccuracyEntry {
                f32_accuracy: acc_f32,
                qfil_u8_delta: d8,
                qfil_u16_delta: d16,
            },
            qfil_u8_speedup_vs_f32: ratio,
        });
        eprintln!("[quant] {} depth {depth} done", kind.name());
    }

    if scale != Scale::Tiny {
        // The whole point of the compressed layouts: once forests dwarf
        // the caches, packed shards must win somewhere in the matrix.
        assert!(
            best_default_speedup > 1.0,
            "no dataset showed a sharded cache win (best qfil-u8/fil-f32 ratio \
             {best_default_speedup:.2}x)"
        );
        println!("best sharded cache win: {best_default_speedup:.2}x (qfil-u8 over fil-f32)");
    }

    write_json("quant", scale.label(), &cells);
}
