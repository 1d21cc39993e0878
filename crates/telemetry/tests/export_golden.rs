//! Schema-stability golden test for the JSON exporter.
//!
//! The JSON is diffed by CI and read by `bench_compare`, so its
//! byte-level shape is a contract: this test renders a fixed hand-built
//! snapshot and compares it against the committed file under
//! `tests/golden/`. An intentional format change must update the golden
//! file *and* bump the schema version in `export.rs` in the same commit.

use rfx_telemetry::export::to_json;
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
fn resilience_metrics_json_matches_golden() {
    let rendered = to_json(&resilience_fixture());
    assert_matches_golden(&rendered, "resilience_metrics.json");
}

#[test]
fn rendering_is_deterministic() {
    let resilience = resilience_fixture();
    assert_eq!(to_json(&resilience), to_json(&resilience));
}
