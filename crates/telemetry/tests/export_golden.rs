//! Schema-stability golden tests for the Chrome trace-event and
//! collapsed-stack exporters.
//!
//! Both formats are consumed by external tools (chrome://tracing,
//! Perfetto, flamegraph scripts), so their byte-level shape is a contract:
//! these tests render a fixed hand-built snapshot and compare it against
//! the committed files under `tests/golden/`. An intentional format
//! change must update the golden file *and* bump the corresponding
//! schema version in `export.rs` in the same commit.

use rfx_telemetry::export::{to_chrome_trace, to_collapsed_stacks, to_json};
use rfx_telemetry::{MetricsSnapshot, Snapshot, SpanRecord, TraceSnapshot};

fn span(
    (id, parent, trace): (u64, u64, u64),
    name: &str,
    start_us: u64,
    duration_us: u64,
    thread: u64,
    attrs: &[(&str, &str)],
) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        trace,
        name: name.to_string(),
        start_us,
        wall_start_us: 1_700_000_000_000_000 + start_us,
        duration_us,
        thread,
        attrs: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
    }
}

/// A two-backend serve window: one batch per backend, each tiled by a
/// traverse stage with a device child (the sharded engine's batch span
/// carrying its lane and fan-out attributes above its tile), plus one
/// orphan-parent span to pin the `[evicted]` frame behavior.
fn fixture() -> Snapshot {
    let spans = vec![
        span(
            (1, 0, 1),
            "serve.batch",
            0,
            1000,
            1,
            &[("rows", "64"), ("flush", "idle"), ("backend", "cpu-sharded")],
        ),
        span(
            (2, 1, 1),
            "serve.batch.traverse",
            100,
            800,
            2,
            &[("backend", "cpu-sharded"), ("rows", "64"), ("fanout", "crew")],
        ),
        span(
            (8, 2, 1),
            "kernels.sharded",
            120,
            700,
            2,
            &[
                ("rows", "64"),
                ("walks", "8"),
                ("lane_occupancy", "0.912"),
                ("fanout", "crew"),
                ("helpers", "1"),
                ("helped_share", "0.500"),
            ],
        ),
        span((3, 8, 1), "kernels.sharded.tile", 150, 600, 3, &[("block", "0"), ("shard", "0")]),
        span(
            (4, 0, 2),
            "serve.batch",
            500,
            900,
            1,
            &[("rows", "32"), ("flush", "deadline"), ("backend", "gpu-sim-hybrid")],
        ),
        span(
            (5, 4, 2),
            "serve.batch.traverse",
            600,
            700,
            4,
            &[("backend", "gpu-sim-hybrid"), ("rows", "32")],
        ),
        span((6, 5, 2), "gpusim.launch", 650, 500, 4, &[("blocks", "8")]),
        // Parent id 99 is not in the snapshot: a ring-evicted ancestor.
        span((7, 99, 3), "serve.batch.deliver", 1900, 40, 2, &[]),
    ];
    Snapshot { trace: TraceSnapshot { dropped: 1, spans }, ..Snapshot::default() }
}

/// A snapshot shaped like a post-chaos serve window: the resilience
/// layer's failure counters (`serve.retry` / `serve.shed` /
/// `serve.failed`), per-backend timeout and injected-fault counts,
/// breaker gauges, the batcher's `serve.flush.<reason>` counters, and a
/// `serve.batch.retry` stage span. Pins the JSON export shape of every
/// failure-related metric the serve crate emits.
fn resilience_fixture() -> Snapshot {
    let metrics = MetricsSnapshot {
        counters: vec![
            ("serve.retry".to_string(), 35),
            ("serve.recovered".to_string(), 20),
            ("serve.shed".to_string(), 3),
            ("serve.shed_rows".to_string(), 24),
            ("serve.failed".to_string(), 1),
            ("serve.failed_rows".to_string(), 8),
            ("serve.backend.gpu-sim-hybrid.timeouts".to_string(), 14),
            ("serve.fault.gpu-sim-hybrid.injected".to_string(), 38),
            ("serve.flush.size".to_string(), 52),
            ("serve.flush.deadline".to_string(), 2),
            ("serve.flush.idle".to_string(), 9),
            ("serve.flush.drain".to_string(), 1),
        ],
        gauges: vec![
            ("serve.breaker.gpu-sim-hybrid.state".to_string(), 2.0),
            ("serve.breaker.gpu-sim-hybrid.trips".to_string(), 10.0),
            ("serve.breaker.cpu-sharded.state".to_string(), 0.0),
            ("serve.breaker.cpu-sharded.trips".to_string(), 0.0),
        ],
        histograms: Vec::new(),
    };
    let spans = vec![
        span(
            (1, 0, 1),
            "serve.batch",
            0,
            900,
            1,
            &[("rows", "8"), ("flush", "size"), ("backend", "gpu-sim-hybrid")],
        ),
        span(
            (2, 1, 1),
            "serve.batch.retry",
            100,
            250,
            1,
            &[
                ("backend", "gpu-sim-hybrid"),
                ("attempt", "1"),
                ("reason", "timeout"),
                ("penalty_us", "100000"),
            ],
        ),
        span(
            (3, 1, 1),
            "serve.batch.traverse",
            400,
            450,
            1,
            &[("backend", "gpu-sim-hybrid"), ("rows", "8"), ("attempt", "2")],
        ),
    ];
    Snapshot { metrics, trace: TraceSnapshot { dropped: 0, spans } }
}

fn assert_matches_golden(rendered: &str, golden_name: &str) {
    let path = format!("{}/tests/golden/{golden_name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("RFX_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {path}: {e}"));
    assert_eq!(
        rendered, golden,
        "{golden_name} drifted from the committed golden output; if the \
         format change is intentional, update the golden file and bump the \
         schema version in export.rs"
    );
}

#[test]
fn chrome_trace_matches_golden() {
    let rendered = to_chrome_trace(&fixture());
    assert_matches_golden(&rendered, "chrome_trace.json");
}

#[test]
fn collapsed_stacks_match_golden() {
    let rendered = to_collapsed_stacks(&fixture());
    assert_matches_golden(&rendered, "collapsed_stacks.folded");
}

#[test]
fn resilience_metrics_json_matches_golden() {
    let rendered = to_json(&resilience_fixture());
    assert_matches_golden(&rendered, "resilience_metrics.json");
}

#[test]
fn rendering_is_deterministic() {
    let snap = fixture();
    assert_eq!(to_chrome_trace(&snap), to_chrome_trace(&snap));
    assert_eq!(to_collapsed_stacks(&snap), to_collapsed_stacks(&snap));
    let resilience = resilience_fixture();
    assert_eq!(to_json(&resilience), to_json(&resilience));
}
