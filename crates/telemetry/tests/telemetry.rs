//! Cross-cutting telemetry tests: registry behavior under real
//! rayon-style parallel recording, deep span nesting, and a JSON
//! exporter round-trip through the workspace `serde_json` shim (the same
//! parser `bench_compare` uses in CI).

use rayon::prelude::*;
use rfx_telemetry::{export, span, Telemetry};
use serde::Value;

#[test]
fn parallel_recording_loses_no_counts() {
    let tel = Telemetry::new();
    let counter = tel.counter("test.parallel.events");
    let hist = tel.histogram("test.parallel.latency_us");

    const WORKERS: u64 = 64;
    const PER_WORKER: u64 = 10_000;
    (0..WORKERS).into_par_iter().for_each(|w| {
        for i in 0..PER_WORKER {
            counter.inc();
            hist.record(w * PER_WORKER + i);
        }
    });

    let snap = tel.metrics_snapshot();
    assert_eq!(snap.counter("test.parallel.events"), Some(WORKERS * PER_WORKER));
    let h = snap.histogram("test.parallel.latency_us").expect("histogram registered");
    assert_eq!(h.count, WORKERS * PER_WORKER);
    // Sum of 0..N-1 — exact even under parallel recording.
    let n = WORKERS * PER_WORKER;
    assert_eq!(h.sum, n * (n - 1) / 2);
    assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), n);
}

#[test]
fn parallel_registration_converges_to_one_metric() {
    let tel = Telemetry::new();
    // Workers race to register the same name; all must land on the same
    // underlying counter.
    (0..256u64).into_par_iter().for_each(|_| {
        tel.counter("test.race.shared").inc();
    });
    assert_eq!(tel.metrics_snapshot().counter("test.race.shared"), Some(256));
}

#[test]
fn span_nesting_tracks_depth() {
    let tel = Telemetry::new();
    const DEPTH: usize = 32;
    fn recurse(tel: &Telemetry, remaining: usize) {
        if remaining == 0 {
            return;
        }
        let _span = span!(tel, "nest.level", remaining = remaining);
        recurse(tel, remaining - 1);
    }
    recurse(&tel, DEPTH);

    let trace = tel.trace_snapshot();
    assert_eq!(trace.spans.len(), DEPTH);
    // Spans complete innermost-first; the last record is the root.
    let depths: Vec<usize> = trace.spans.iter().map(|s| trace.depth_of(s)).collect();
    let expected: Vec<usize> = (0..DEPTH).rev().collect();
    assert_eq!(depths, expected);
    // Every non-root span's parent exists and started no later.
    for span in &trace.spans {
        if span.parent != 0 {
            let parent = trace.spans.iter().find(|s| s.id == span.parent).expect("parent");
            assert!(parent.start_us <= span.start_us);
            assert!(parent.duration_us >= span.duration_us);
        }
    }
}

#[test]
fn spans_on_different_threads_are_independent_roots() {
    let tel = Telemetry::new();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let _outer = span!(tel, "thread.outer");
                let _inner = span!(tel, "thread.inner");
            });
        }
    });
    let trace = tel.trace_snapshot();
    assert_eq!(trace.spans.len(), 8);
    let roots = trace.spans.iter().filter(|s| s.parent == 0).count();
    assert_eq!(roots, 4, "one root per thread");
    for span in trace.spans.iter().filter(|s| s.name == "thread.inner") {
        assert_ne!(span.parent, 0, "inner spans nest under their thread's outer span");
    }
}

#[test]
fn json_round_trips_through_the_serde_json_shim() {
    let tel = Telemetry::new();
    tel.counter("rt.counter").add(42);
    tel.gauge("rt.gauge").set(2.75);
    let h = tel.histogram("rt.latency_us");
    for v in [1u64, 10, 100, 1000, 10_000] {
        h.record(v);
    }
    {
        let mut outer = span!(tel, "rt.batch", backend = "cpu-sharded");
        outer.set_attr("rows", "128".into());
        let _inner = span!(tel, "rt.traverse");
    }

    let json = export::to_json(&tel.snapshot());
    let value: Value = serde_json::from_str(&json).expect("exporter output must parse");

    assert_eq!(value.get("schema_version"), Some(&Value::UInt(2)));
    let counters = value.get("counters").expect("counters key");
    assert_eq!(counters.get("rt.counter"), Some(&Value::UInt(42)));
    let gauges = value.get("gauges").expect("gauges key");
    assert_eq!(gauges.get("rt.gauge"), Some(&Value::Float(2.75)));

    let hist = value.get("histograms").and_then(|h| h.get("rt.latency_us")).expect("histogram");
    assert_eq!(hist.get("count"), Some(&Value::UInt(5)));
    assert_eq!(hist.get("sum"), Some(&Value::UInt(11_111)));
    let Some(Value::Array(buckets)) = hist.get("buckets") else {
        panic!("buckets must be an array");
    };
    assert_eq!(buckets.len(), 5, "five distinct magnitudes, five buckets");

    let spans = value.get("spans").and_then(|s| s.get("records")).expect("span records");
    let Value::Array(records) = spans else { panic!("records must be an array") };
    assert_eq!(records.len(), 2);
    let inner = records
        .iter()
        .find(|r| r.get("name") == Some(&Value::String("rt.traverse".into())))
        .unwrap();
    let outer =
        records.iter().find(|r| r.get("name") == Some(&Value::String("rt.batch".into()))).unwrap();
    assert_eq!(inner.get("parent"), outer.get("id"), "nesting survives the round-trip");
    let attrs = outer.get("attrs").expect("attrs");
    assert_eq!(attrs.get("backend"), Some(&Value::String("cpu-sharded".into())));
    assert_eq!(attrs.get("rows"), Some(&Value::String("128".into())));
}

#[test]
fn json_document_sections_round_trip() {
    let a = Telemetry::new();
    a.counter("doc.a").inc();
    let b = Telemetry::new();
    b.counter("doc.b").add(2);
    let doc = export::json_document(&[("first", &a.snapshot()), ("second", &b.snapshot())]);
    let value: Value = serde_json::from_str(&doc).expect("document parses");
    let sections = value.get("sections").expect("sections");
    let first = sections.get("first").and_then(|s| s.get("counters")).expect("first counters");
    assert_eq!(first.get("doc.a"), Some(&Value::UInt(1)));
    let second = sections.get("second").and_then(|s| s.get("counters")).expect("second counters");
    assert_eq!(second.get("doc.b"), Some(&Value::UInt(2)));
}
