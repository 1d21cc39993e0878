//! Name → metric registry.
//!
//! Registration (get-or-create by name) takes a mutex, so callers are
//! expected to register once at setup and keep the returned `Arc` handle
//! for the hot path; recording through a handle never touches the
//! registry again. Names are dotted paths (`serve.queue.depth`,
//! `gpusim.perf.dram.transactions`) — see DESIGN.md §10 for the scheme.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone)]
enum Entry {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
        }
    }
}

/// A set of named metrics. Cheap to share (`Arc` it); one per service
/// instance, plus the process-wide [`crate::global`] instance.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind —
    /// that is a naming-scheme bug, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut entries = self.entries.lock().unwrap();
        match entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::Counter(Arc::new(Counter::new())))
        {
            Entry::Counter(c) => Arc::clone(c),
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Gets or creates the gauge `name` (panics on kind clash).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut entries = self.entries.lock().unwrap();
        match entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::Gauge(Arc::new(Gauge::new())))
        {
            Entry::Gauge(g) => Arc::clone(g),
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Gets or creates the histogram `name` (panics on kind clash).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut entries = self.entries.lock().unwrap();
        match entries
            .entry(name.to_string())
            .or_insert_with(|| Entry::Histogram(Arc::new(Histogram::new())))
        {
            Entry::Histogram(h) => Arc::clone(h),
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Forgets every metric whose name starts with `prefix` and returns
    /// how many there were. Handles already given out keep recording into
    /// their metric, which simply no longer appears in a snapshot — the
    /// way a retired name family (`serve.model.v7.`) leaves the export.
    pub fn remove_prefix(&self, prefix: &str) -> usize {
        let mut entries = self.entries.lock().unwrap();
        let before = entries.len();
        entries.retain(|name, _| !name.starts_with(prefix));
        before - entries.len()
    }

    /// Copies every metric's current value, sorted by name (the BTreeMap
    /// order) so exports are byte-stable for a given state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, entry) in entries.iter() {
            match entry {
                Entry::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Entry::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Entry::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

/// Point-in-time copy of a [`Registry`], sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Counter value by exact name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Gauge value by exact name, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram snapshot by exact name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_metric() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counter("x.hits"), Some(3));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn remove_prefix_forgets_a_name_family_and_nothing_else() {
        let r = Registry::new();
        let kept = r.counter("m.v1.rows");
        let gone = r.counter("m.v10.rows");
        r.histogram("m.v10.latency_us");
        r.gauge("m.v100.depth");
        assert_eq!(r.remove_prefix("m.v10."), 2);
        assert_eq!(r.remove_prefix("m.v10."), 0);
        // A live handle keeps recording; it just left the export.
        gone.inc();
        kept.inc();
        let s = r.snapshot();
        assert_eq!(s.counter("m.v1.rows"), Some(1));
        assert_eq!(s.counter("m.v10.rows"), None);
        assert!(s.histograms.is_empty());
        assert_eq!(s.gauge("m.v100.depth"), Some(0.0));
        // The name can be registered afresh, from zero.
        assert_eq!(r.counter("m.v10.rows").get(), 0);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("b.second");
        r.counter("a.first");
        r.gauge("z.gauge");
        let s = r.snapshot();
        assert_eq!(s.counters[0].0, "a.first");
        assert_eq!(s.counters[1].0, "b.second");
        assert_eq!(s.gauge("z.gauge"), Some(0.0));
        assert_eq!(s.counter("missing"), None);
    }
}
