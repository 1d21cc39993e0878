//! Benchmark-owned spans: recorded in memory around every call into a
//! layer, written out as JSON when a traced run ends. Spans inside the
//! product are a later change; these time the public calls from outside.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of a recorded span; 0 is "no parent" (and the id every span gets
/// while recording is off).
pub type SpanId = u64;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request index shared by the spans of one request.
    pub request: Option<u64>,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl SpanLog {
    /// A disabled log records nothing: the untraced run pays one branch
    /// per call site.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        (start, end): (Instant, Instant),
        request: Option<u64>,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.lock().expect("no holder of the span lock panics").push(SpanRecord {
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            request,
        });
    }

    /// Records a finished span whose ends the caller measured.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, parent, (start, end), request);
        id
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// seconds. `f` receives the span's id to parent its own children.
    /// The id is allocated before `f` runs and the record pushed after,
    /// so children may finish (and be pushed) before their parent.
    pub fn timed<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let id = if self.enabled { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        let start = Instant::now();
        let value = f(id);
        let end = Instant::now();
        if self.enabled {
            self.push(id, name, parent, (start, end), None);
        }
        (value, (end - start).as_secs_f64())
    }

    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut spans = self.spans.lock().expect("no holder of the span lock panics").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Per span name: `(count, total ns, self ns)`, where a span's self time
/// is its duration minus the part of it that its children cover
/// (children on other threads may overlap each other; the union counts
/// once). Sorted by self time, largest first.
pub fn self_times(spans: &[SpanRecord]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children.entry(span.parent).or_default().push((span.start_ns, span.end_ns));
    }
    let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for span in spans {
        let covered = children
            .get_mut(&span.id)
            .map_or(0, |kids| covered_ns(span.start_ns, span.end_ns, kids));
        let row = rows.entry(span.name).or_default();
        row.0 += 1;
        row.1 += span.duration_ns();
        row.2 += span.duration_ns() - covered;
    }
    let mut rows: Vec<_> =
        rows.into_iter().map(|(name, (n, total, own))| (name, n, total, own)).collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// Share of the root span's wall time that its direct children cover.
pub fn coverage(spans: &[SpanRecord], root: SpanId) -> f64 {
    let Some(root_span) = spans.iter().find(|s| s.id == root) else { return 0.0 };
    let mut children: Vec<(u64, u64)> =
        spans.iter().filter(|s| s.parent == root).map(|s| (s.start_ns, s.end_ns)).collect();
    covered_ns(root_span.start_ns, root_span.end_ns, &mut children) as f64
        / root_span.duration_ns().max(1) as f64
}

/// The trace file: one object with the workload, the seed and every
/// span (`id`, `parent`, `name`, `start_ns`, `end_ns`, optional
/// `request`), ordered by start time.
pub fn to_json(workload: &str, seed: u64, spans: &[SpanRecord]) -> Value {
    let span = |s: &SpanRecord| {
        let mut fields = vec![
            ("id".to_string(), Value::UInt(s.id)),
            ("parent".to_string(), Value::UInt(s.parent)),
            ("name".to_string(), Value::String(s.name.to_string())),
            ("start_ns".to_string(), Value::UInt(s.start_ns)),
            ("end_ns".to_string(), Value::UInt(s.end_ns)),
        ];
        if let Some(request) = s.request {
            fields.push(("request".to_string(), Value::UInt(request)));
        }
        Value::Object(fields)
    };
    Value::Object(vec![
        ("workload".to_string(), Value::String(workload.to_string())),
        ("seed".to_string(), Value::UInt(seed)),
        ("spans".to_string(), Value::Array(spans.iter().map(span).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord { id, parent, name, start_ns, end_ns, request: None }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "run", 0, 100),
            span(2, 1, "window", 10, 60),
            // Two overlapping children on different threads: 20..50 once.
            span(3, 2, "submit", 20, 40),
            span(4, 2, "submit", 30, 50),
        ];
        let rows = self_times(&spans);
        let get = |name| *rows.iter().find(|r| r.0 == name).unwrap();
        assert_eq!(get("run"), ("run", 1, 100, 50));
        assert_eq!(get("window"), ("window", 1, 50, 20));
        assert_eq!(get("submit"), ("submit", 2, 40, 40));
        assert_eq!(coverage(&spans, 1), 0.5);
        assert_eq!(coverage(&spans, 9), 0.0);
    }

    #[test]
    fn disabled_log_records_nothing_but_still_times() {
        let log = SpanLog::new(false);
        let (value, seconds) = log.timed("x", 0, |id| id + 41);
        assert_eq!(value, 41);
        assert!(seconds >= 0.0);
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn enabled_log_nests_and_serialises() {
        let log = SpanLog::new(true);
        let (inner, _) = log.timed("outer", 0, |outer| {
            let now = Instant::now();
            log.record("inner", outer, now, now, Some(7))
        });
        let spans = log.snapshot();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let child = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((child.id, child.parent, child.request), (inner, outer.id, Some(7)));
        assert!(outer.start_ns <= child.start_ns && child.end_ns <= outer.end_ns);
        let json = serde_json::to_string(&to_json("w", 3, &spans)).unwrap();
        assert!(json.contains("\"request\":7") && json.contains("\"workload\":\"w\""), "{json}");
    }
}
