//! Cross-path performance-counter matrix: the unified `*.perf.*` schema
//! ([`rfx_telemetry::perf`], DESIGN.md §17) read back from every
//! execution path on the same trained workload — the CPU sharded engine
//! (software L1/L2 memory tracer), the GPU simulator, and the FPGA
//! pipeline model — one row per (kernel, layout) cell.
//!
//! ```text
//! perf_report [--scale tiny|default|full]
//! ```
//!
//! Each cell runs under its own scoped telemetry domain (counters never
//! bleed between cells), then [`rfx_telemetry::perf::assert_schema`]
//! enforces in-process that the path exported the complete key set and
//! nothing but the key set — the schema-parity guarantee the unified
//! domain exists for. The binary turns the memory tracer on for
//! **every** tile (`RFX_MEMTRACE_SAMPLE=1`, set before the first batch)
//! so the CPU counters are exact sums over the batch, deterministic
//! across machines, not sampled estimates.
//!
//! Results land in `bench_results/perf-<scale>.json`. Per cell the raw
//! counters are an object map and the derived `l1_miss_rate` /
//! `l2_miss_rate` / `stall_fraction` rates are `[label, number]` pairs.
//! All of them are simulated/modeled, so CI holds the tiny file
//! byte-exact: any drift is a real change in modeled memory behavior,
//! not wall-clock weather.
//!
//! The headline comparison — the reason the counters exist — is
//! fil-f32 vs qfil-u8 on the identical pinned plan: the packed layout
//! puts more nodes on every cache line, so it must show strictly fewer
//! modeled L2 misses *and* DRAM transactions at default scale and
//! above. That is asserted in-process, mirroring the committed
//! acceptance criteria.

#![forbid(unsafe_code)]

use rfx_bench::harness::{write_json, Table};
use rfx_bench::runner;
use rfx_bench::scale::Scale;
use rfx_bench::workloads::timing_workload;
use rfx_core::{FilForest, QFilForest};
use rfx_data::DatasetKind;
use rfx_forest::dataset::QueryView;
use rfx_fpga_sim::Replication;
use rfx_kernels::{EnginePlan, Predictor, ShardedEngine};
use rfx_telemetry::{perf, MetricsSnapshot, PerfCounters, Telemetry, TraceConfig};
use serde::Serialize;

/// The twelve schema counters as a plain object, field order matching
/// [`perf::COUNTER_KEYS`]: the evidence to diff when a derived rate
/// moves.
#[derive(Serialize)]
struct RawCounters {
    l1_accesses: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_accesses: u64,
    l2_hits: u64,
    l2_misses: u64,
    dram_transactions: u64,
    dram_bytes: u64,
    busy_cycles: u64,
    stall_memory_cycles: u64,
    stall_fill_cycles: u64,
    stall_wasted_cycles: u64,
}

impl From<&PerfCounters> for RawCounters {
    fn from(p: &PerfCounters) -> Self {
        RawCounters {
            l1_accesses: p.l1_accesses,
            l1_hits: p.l1_hits,
            l1_misses: p.l1_misses,
            l2_accesses: p.l2_accesses,
            l2_hits: p.l2_hits,
            l2_misses: p.l2_misses,
            dram_transactions: p.dram_transactions,
            dram_bytes: p.dram_bytes,
            busy_cycles: p.busy_cycles,
            stall_memory_cycles: p.stall_memory_cycles,
            stall_fill_cycles: p.stall_fill_cycles,
            stall_wasted_cycles: p.stall_wasted_cycles,
        }
    }
}

#[derive(Serialize)]
struct Cell {
    kernel: String,
    layout: String,
    /// Telemetry domain the counters were read from (`kernels`,
    /// `gpusim`, `fpgasim`).
    domain: String,
    counters: RawCounters,
    occupancy: f64,
    utilization: f64,
    /// Derived rates as `[label, value]` pairs, lower is better. The
    /// FPGA's empty cache hierarchy reads zero. The key keeps its name
    /// so the file's schema stays stable.
    gated_rates: Vec<(String, f64)>,
}

#[derive(Serialize)]
struct Report {
    scale: String,
    dataset: String,
    depth: usize,
    trees: usize,
    queries: usize,
    cells: Vec<Cell>,
    /// qfil-u8 over fil-f32 modeled L2 misses on the same pinned plan
    /// (ungated scalar; < 1.0 is the cache win).
    qfil_u8_l2_miss_ratio_vs_fil: f64,
    /// qfil-u8 over fil-f32 modeled DRAM transactions (ungated scalar).
    qfil_u8_dram_tx_ratio_vs_fil: f64,
}

/// Runs one matrix cell under a scoped, sample-everything telemetry
/// domain and returns its metrics snapshot. The ambient scope makes the
/// engine's `kernels.perf.*` export and the simulators'
/// `gpusim.perf.*` / `fpgasim.perf.*` exports land here, isolated from
/// every other cell.
fn scoped_snapshot(run: impl FnOnce()) -> MetricsSnapshot {
    let tel = Telemetry::with_trace_config(TraceConfig { sample_every_n: 1, capacity: 1 << 17 });
    {
        let root = tel.start_span("perf.cell");
        let _scope = tel.in_context(root.context());
        run();
    }
    tel.metrics_snapshot()
}

/// Validates the cell's export and shapes it for the report: the full
/// schema must be present (and nothing beyond it in the `perf`
/// namespace — an extra key in one domain would silently break
/// cross-path comparability).
fn cell(kernel: &str, layout: &str, domain: &str, snap: &MetricsSnapshot) -> (Cell, PerfCounters) {
    perf::assert_schema(snap, domain);
    let prefix = format!("{domain}.perf.");
    let exported: Vec<&str> =
        snap.counters.iter().filter_map(|(name, _)| name.strip_prefix(&prefix)).collect();
    assert_eq!(
        exported.len(),
        perf::COUNTER_KEYS.len(),
        "{domain} exported counters outside the shared schema: {exported:?}"
    );
    let counters = perf::read(snap, domain).expect("assert_schema guarantees a full read");
    let gated_rates = vec![
        ("l1_miss_rate".to_string(), counters.l1_miss_rate()),
        ("l2_miss_rate".to_string(), counters.l2_miss_rate()),
        ("stall_fraction".to_string(), counters.stall_fraction()),
    ];
    let cell = Cell {
        kernel: kernel.to_string(),
        layout: layout.to_string(),
        domain: domain.to_string(),
        counters: RawCounters::from(&counters),
        occupancy: counters.occupancy,
        utilization: counters.utilization(),
        gated_rates,
    };
    (cell, counters)
}

fn main() {
    // Trace every tile: the committed baselines must be exact,
    // machine-independent sums, not the sampled estimates the serving
    // path settles for.
    std::env::set_var("RFX_MEMTRACE_SAMPLE", "1");
    let scale = Scale::from_args();
    let kind = DatasetKind::SusyLike;
    let depth = kind.paper_depth_band()[1];
    let w = timing_workload(kind, depth, scale);
    let trees = w.forest.num_trees();
    let qv: QueryView = (&w.queries).into();
    let rows = qv.num_rows();

    // Both CPU rows run the identical pinned plan — whole forest as one
    // shard, so a tile's working set is the full layout and the only
    // variable between fil-f32 and qfil-u8 is bytes per cache line.
    // `EnginePlan::auto` would shard the two layouts differently and
    // blur exactly the comparison this matrix exists to make.
    // 256-row query blocks (the serving batch cap) amortize each tree's
    // upper-level lines across many rows; that reused region is where
    // the packed layout's per-line node density pays, so smaller blocks
    // understate the quantization win the matrix exists to show.
    let plan = EnginePlan::builder()
        .shard_trees(trees)
        .query_block(256)
        .threads(2)
        .build()
        .expect("pinned perf plan is valid");
    let fil = FilForest::build(&w.forest);
    let qfil = QFilForest::<u8>::build(&w.forest).expect("paper forests fit the u8 FIL budget");

    let mut out = vec![0u32; rows];
    let fil_snap = scoped_snapshot(|| {
        ShardedEngine::with_plan(&fil, plan).predict_into(qv, &mut out);
    });
    let qfil_snap = scoped_snapshot(|| {
        ShardedEngine::with_plan(&qfil, plan).predict_into(qv, &mut out);
    });
    eprintln!("[perf] cpu-sharded rows done");
    let gpu_csr_snap = scoped_snapshot(|| {
        runner::gpu_csr(&w);
    });
    let gpu_fil_snap = scoped_snapshot(|| {
        runner::gpu_fil(&w);
    });
    eprintln!("[perf] gpu-sim rows done");
    let fpga_snap = scoped_snapshot(|| {
        runner::fpga_csr(&w, Replication::single(&runner::fpga_cfg()));
    });
    eprintln!("[perf] fpga-sim row done");

    let (fil_cell, fil_perf) = cell("cpu-sharded", "fil-f32", "kernels", &fil_snap);
    let (qfil_cell, qfil_perf) = cell("cpu-sharded", "qfil-u8", "kernels", &qfil_snap);
    let (gc_cell, gc_perf) = cell("gpu-sim", "csr-f32", "gpusim", &gpu_csr_snap);
    let (gf_cell, gf_perf) = cell("gpu-sim", "fil-f32", "gpusim", &gpu_fil_snap);
    let (fp_cell, fp_perf) = cell("fpga-sim", "csr-f32", "fpgasim", &fpga_snap);

    // Liveness: a path whose counters silently dropped to zero would
    // sail through a lower-is-better gate; fail it here instead.
    for (name, p) in [("cpu fil-f32", &fil_perf), ("cpu qfil-u8", &qfil_perf)] {
        assert!(p.l1_accesses > 0, "{name}: memory tracer recorded no fetches");
    }
    for (name, p) in [("gpu csr", &gc_perf), ("gpu fil", &gf_perf), ("fpga csr", &fp_perf)] {
        assert!(p.dram_transactions > 0, "{name}: simulator recorded no DRAM traffic");
        assert!(p.busy_cycles > 0, "{name}: simulator recorded no busy cycles");
    }

    let cells = vec![fil_cell, qfil_cell, gc_cell, gf_cell, fp_cell];
    let mut table = Table::new(
        &format!("perf_report: unified counters, {} @ depth {depth}, {trees} trees", kind.name()),
        &[
            "kernel",
            "layout",
            "l1 miss%",
            "l2 miss%",
            "dram tx",
            "dram MB",
            "stall%",
            "util",
            "occupancy",
        ],
    );
    for (c, p) in cells.iter().zip([&fil_perf, &qfil_perf, &gc_perf, &gf_perf, &fp_perf]) {
        table.row(vec![
            c.kernel.clone(),
            c.layout.clone(),
            format!("{:.1}", p.l1_miss_rate() * 100.0),
            format!("{:.1}", p.l2_miss_rate() * 100.0),
            p.dram_transactions.to_string(),
            format!("{:.2}", p.dram_bytes as f64 / 1e6),
            format!("{:.1}", p.stall_fraction() * 100.0),
            format!("{:.3}", p.utilization()),
            format!("{:.3}", p.occupancy),
        ]);
    }
    table.print();

    let l2_ratio = qfil_perf.l2_misses as f64 / fil_perf.l2_misses.max(1) as f64;
    let dram_ratio = qfil_perf.dram_transactions as f64 / fil_perf.dram_transactions.max(1) as f64;
    println!(
        "qfil-u8 vs fil-f32 on the pinned plan: {:.2}x L2 misses, {:.2}x DRAM transactions",
        l2_ratio, dram_ratio
    );
    if scale != Scale::Tiny {
        // The cache win the quantized layouts exist for, stated in the
        // shared counter vocabulary: denser lines mean strictly fewer
        // modeled L2 misses and external transactions.
        assert!(
            qfil_perf.l2_misses < fil_perf.l2_misses,
            "qfil-u8 L2 misses ({}) not below fil-f32 ({})",
            qfil_perf.l2_misses,
            fil_perf.l2_misses
        );
        assert!(
            qfil_perf.dram_transactions < fil_perf.dram_transactions,
            "qfil-u8 DRAM transactions ({}) not below fil-f32 ({})",
            qfil_perf.dram_transactions,
            fil_perf.dram_transactions
        );
    }

    let report = Report {
        scale: scale.label().to_string(),
        dataset: kind.name().to_string(),
        depth,
        trees,
        queries: rows,
        cells,
        qfil_u8_l2_miss_ratio_vs_fil: l2_ratio,
        qfil_u8_dram_tx_ratio_vs_fil: dram_ratio,
    };
    write_json("perf", scale.label(), &report);
}
