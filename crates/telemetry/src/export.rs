//! Snapshot exporters: human-readable text and schema-stable JSON.
//!
//! The JSON writer is hand-rolled (this crate is dependency-free) and
//! emits a fixed key order — `schema_version` first, then sorted metric
//! maps, then spans — so two exports of the same state are byte-identical
//! and CI can diff snapshots across runs. The JSON is versioned;
//! consumers (e.g. `bench_compare`) must tolerate added keys but never
//! reordered or retyped ones within a version.

use crate::metrics::HistogramSnapshot;
use crate::registry::MetricsSnapshot;
use crate::trace::TraceSnapshot;
use crate::Snapshot;
use std::fmt::Write as _;

/// JSON schema version emitted by [`to_json`] / [`json_document`].
///
/// Version history: **1** — initial (PR 2). **2** — span records gained
/// `trace`, `wall_start_us`, and `thread`; histograms gained
/// `exemplars` (`[bucket_lo, trace_id, value]` triples).
pub const SCHEMA_VERSION: u64 = 2;

/// Serializes one snapshot as a self-contained JSON object.
pub fn to_json(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    write_snapshot(&mut out, snapshot);
    out
}

/// Serializes several named snapshots into one JSON document:
/// `{"schema_version":2,"sections":{<name>:<snapshot>,...}}`.
pub fn json_document(sections: &[(&str, &Snapshot)]) -> String {
    let mut out = String::with_capacity(8192);
    out.push('{');
    write_key(&mut out, "schema_version");
    let _ = write!(out, "{SCHEMA_VERSION},");
    write_key(&mut out, "sections");
    out.push('{');
    for (i, (name, snap)) in sections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(&mut out, name);
        write_snapshot(&mut out, snap);
    }
    out.push_str("}}");
    out
}

/// Renders a snapshot as aligned human-readable text (the `stats` view
/// an operator reads, as opposed to the JSON a machine diffs).
pub fn to_text(snapshot: &Snapshot) -> String {
    let m = &snapshot.metrics;
    let mut out = String::new();
    let width = m
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(m.gauges.iter().map(|(n, _)| n.len()))
        .chain(m.histograms.iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(0);
    if !m.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &m.counters {
            let _ = writeln!(out, "  {name:<width$}  {v}");
        }
    }
    if !m.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &m.gauges {
            let _ = writeln!(out, "  {name:<width$}  {v:.3}");
        }
    }
    if !m.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &m.histograms {
            let _ = writeln!(
                out,
                "  {name:<width$}  n={} mean={:.1} p50={} p95={} p99={} max={}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max,
            );
        }
    }
    let t = &snapshot.trace;
    if !t.spans.is_empty() {
        let _ = writeln!(out, "spans ({} retained, {} dropped):", t.spans.len(), t.dropped);
        for span in &t.spans {
            let indent = "  ".repeat(t.depth_of(span) + 1);
            let attrs: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ =
                writeln!(out, "{indent}{} {}us [{}]", span.name, span.duration_us, attrs.join(" "));
        }
    }
    out
}

fn write_snapshot(out: &mut String, snapshot: &Snapshot) {
    out.push('{');
    write_key(out, "schema_version");
    let _ = write!(out, "{SCHEMA_VERSION},");
    write_key(out, "counters");
    write_map(out, &snapshot.metrics.counters, |out, v| {
        let _ = write!(out, "{v}");
    });
    out.push(',');
    write_key(out, "gauges");
    write_map(out, &snapshot.metrics.gauges, |out, v| write_f64(out, *v));
    out.push(',');
    write_key(out, "histograms");
    write_map(out, &snapshot.metrics.histograms, write_histogram);
    out.push(',');
    write_key(out, "spans");
    write_trace(out, &snapshot.trace);
    out.push('}');
}

fn write_map<T>(
    out: &mut String,
    entries: &[(String, T)],
    mut write_value: impl FnMut(&mut String, &T),
) {
    out.push('{');
    for (i, (name, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(out, name);
        write_value(out, value);
    }
    out.push('}');
}

fn write_histogram(out: &mut String, h: &HistogramSnapshot) {
    out.push('{');
    write_key(out, "count");
    let _ = write!(out, "{},", h.count);
    write_key(out, "sum");
    let _ = write!(out, "{},", h.sum);
    write_key(out, "min");
    let _ = write!(out, "{},", h.min);
    write_key(out, "max");
    let _ = write!(out, "{},", h.max);
    write_key(out, "mean");
    write_f64(out, h.mean());
    out.push(',');
    write_key(out, "p50");
    let _ = write!(out, "{},", h.quantile(0.50));
    write_key(out, "p95");
    let _ = write!(out, "{},", h.quantile(0.95));
    write_key(out, "p99");
    let _ = write!(out, "{},", h.quantile(0.99));
    write_key(out, "buckets");
    out.push('[');
    for (i, b) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{},{}]", b.lo, b.hi, b.count);
    }
    out.push_str("],");
    write_key(out, "exemplars");
    out.push('[');
    let mut first = true;
    for b in &h.buckets {
        if let Some(e) = b.exemplar {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{},{},{}]", b.lo, e.trace.0, e.value);
        }
    }
    out.push_str("]}");
}

fn write_trace(out: &mut String, t: &TraceSnapshot) {
    out.push('{');
    write_key(out, "dropped");
    let _ = write!(out, "{},", t.dropped);
    write_key(out, "records");
    out.push('[');
    for (i, span) in t.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        write_key(out, "id");
        let _ = write!(out, "{},", span.id);
        write_key(out, "parent");
        let _ = write!(out, "{},", span.parent);
        write_key(out, "trace");
        let _ = write!(out, "{},", span.trace);
        write_key(out, "name");
        write_string(out, &span.name);
        out.push(',');
        write_key(out, "start_us");
        let _ = write!(out, "{},", span.start_us);
        write_key(out, "wall_start_us");
        let _ = write!(out, "{},", span.wall_start_us);
        write_key(out, "duration_us");
        let _ = write!(out, "{},", span.duration_us);
        write_key(out, "thread");
        let _ = write!(out, "{},", span.thread);
        write_key(out, "attrs");
        out.push('{');
        for (j, (k, v)) in span.attrs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_key(out, k);
            write_string(out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
}

fn write_key(out: &mut String, key: &str) {
    write_string(out, key);
    out.push(':');
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON has no NaN/Infinity; non-finite gauges export as 0.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// Exposed so `MetricsSnapshot`-only consumers can reuse the stable
/// writer (e.g. embedding metrics into a larger report).
pub fn metrics_to_json(metrics: &MetricsSnapshot) -> String {
    let snapshot = Snapshot { metrics: metrics.clone(), trace: TraceSnapshot::default() };
    to_json(&snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn json_is_deterministic_and_escaped() {
        let tel = Telemetry::new();
        tel.counter("a.count").add(3);
        tel.gauge("b.gauge").set(1.5);
        tel.histogram("c.hist").record(10);
        {
            let mut s = tel.start_span("quote\"name");
            s.set_attr("k", "line\nbreak".into());
        }
        let snap = tel.snapshot();
        let a = to_json(&snap);
        let b = to_json(&snap);
        assert_eq!(a, b, "same state must serialize identically");
        assert!(a.contains("\"a.count\":3"));
        assert!(a.contains("\"quote\\\"name\""));
        assert!(a.contains("line\\nbreak"));
        assert!(a.starts_with("{\"schema_version\":2,"));
    }

    #[test]
    fn text_renders_all_sections() {
        let tel = Telemetry::new();
        tel.counter("hits").inc();
        tel.gauge("depth").set(2.0);
        tel.histogram("lat_us").record(100);
        {
            let _s = tel.start_span("outer");
        }
        let text = to_text(&tel.snapshot());
        for needle in ["counters:", "gauges:", "histograms:", "spans", "outer"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn document_wraps_sections() {
        let tel = Telemetry::new();
        tel.counter("x").inc();
        let snap = tel.snapshot();
        let doc = json_document(&[("scenario-a", &snap), ("global", &snap)]);
        assert!(doc.contains("\"sections\":{\"scenario-a\":{"));
        assert!(doc.contains("\"global\":{"));
    }
}
