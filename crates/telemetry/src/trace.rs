//! Request-scoped span tracing with explicit contexts and a ring-buffer
//! recorder.
//!
//! Two ways to open a span:
//!
//! * **Lexical** — [`TraceRecorder::start_span`] returns an RAII
//!   [`Span`]: creation stamps a monotonic start time and pushes the span
//!   onto a thread-local parent stack; drop pops the stack and appends
//!   one [`SpanRecord`] to the ring. Nesting falls out of lexical scope
//!   per thread, exactly as before.
//! * **Explicit** — cross-thread edges (a batch formed and executed on
//!   a serving worker, tiled onto the engine's helper threads) carry
//!   a [`SpanContext`] instead of relying on any thread-local state:
//!   [`TraceRecorder::start_owned`] opens a `Send` root span that travels
//!   with the work item, [`TraceRecorder::start_span_child_of`] parents a
//!   lexical span under a carried context, and
//!   [`TraceRecorder::record_span_at`] backfills a completed stage (e.g.
//!   queue wait, whose start predates the span tree) under one.
//!
//! Every span belongs to a **trace** — the tree under one root span,
//! identified by the [`TraceId`] minted when the root opened. Histogram
//! exemplars ([`crate::Histogram::record_with_exemplar`]) store that id,
//! which is how a p99 bucket links back to a full trace.
//!
//! **Sampling** ([`TraceConfig::sample_every_n`]) is decided once per
//! root and inherited by the whole tree: an unsampled root records
//! nothing and its descendants skip attribute formatting and the ring
//! append — the hot-path cost of an unsampled span is one atomic id
//! fetch and a thread-local push/pop.
//!
//! Records carry both clocks: `start_us` is monotonic µs since the
//! recorder's creation (what exporters order by) and `wall_start_us` is
//! µs since the Unix epoch (what correlates traces across processes).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Default completed-span capacity of a recorder.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// Distinguishes recorders so nested spans on one thread attach to the
/// right parent even when several recorders are live (e.g. a service's
/// own tracer plus the global one).
static NEXT_RECORDER_ID: AtomicUsize = AtomicUsize::new(1);

/// Process-wide dense thread numbering for [`SpanRecord::thread`]
/// (`std::thread::ThreadId` has no stable integer form).
static NEXT_THREAD_NUM: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's dense id, assigned on first span activity.
    static THREAD_NUM: u64 = NEXT_THREAD_NUM.fetch_add(1, Ordering::Relaxed);

    /// Stack of `(recorder_id, span_id, trace_id, sampled)` for the
    /// spans open on this thread, innermost last.
    static OPEN_SPANS: RefCell<Vec<(usize, u64, u64, bool)>> = const { RefCell::new(Vec::new()) };
}

fn current_thread_num() -> u64 {
    THREAD_NUM.with(|t| *t)
}

/// Identifies one trace: the span tree under a single root. Minted by
/// the recorder when a root span opens; `0` means "no trace" (the
/// [`TraceId::NONE`] sentinel used by unsampled work and empty exemplar
/// slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The "no trace" sentinel.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this is a real trace id (non-zero).
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Identifies one span within its recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The portable identity of an open span: enough to parent new spans
/// under it from any thread. `Copy + Send` by design — hand it through
/// channels, closures, and thread boundaries freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    pub(crate) recorder: usize,
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// The span itself.
    pub span: SpanId,
    /// Whether the trace is being recorded; children of an unsampled
    /// context skip attribute capture and the ring append.
    pub sampled: bool,
}

/// Tracing knobs: how often roots are sampled and how many completed
/// spans the ring retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record every n-th root trace (`1` = record everything, the
    /// default; `0` = record nothing). Descendants inherit the root's
    /// decision, so a trace is always complete or absent, never partial.
    pub sample_every_n: u64,
    /// Completed-span ring capacity.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { sample_every_n: 1, capacity: DEFAULT_SPAN_CAPACITY }
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Recorder-unique id, assigned in start order from 1.
    pub id: u64,
    /// Id of the enclosing span (same recorder), or 0 for a root span.
    pub parent: u64,
    /// Trace id of the root this span descends from.
    pub trace: u64,
    /// Span name (`serve.batch`, `gpusim.launch`, ...).
    pub name: String,
    /// Start time in µs since the recorder was created (monotonic clock).
    pub start_us: u64,
    /// Start time in µs since the Unix epoch (wall clock, derived from
    /// the recorder's creation instant plus the monotonic offset).
    pub wall_start_us: u64,
    /// Wall-clock duration in µs.
    pub duration_us: u64,
    /// Dense id of the thread the span completed on (the executing
    /// worker — Chrome-trace exports map it to a `tid`).
    pub thread: u64,
    /// Key/value attributes attached via [`Span::set_attr`].
    pub attrs: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct Ring {
    spans: Vec<SpanRecord>,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    /// Total records ever pushed (so snapshots report drops).
    pushed: u64,
}

/// Collects completed spans into a bounded ring buffer.
#[derive(Debug)]
pub struct TraceRecorder {
    recorder_id: usize,
    epoch: Instant,
    /// Wall-clock µs since the Unix epoch at `epoch`, so records can
    /// carry both clocks without a `SystemTime` call per span.
    wall_epoch_us: u64,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    /// Roots opened so far — the sampling counter.
    roots: AtomicU64,
    sample_every_n: u64,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::with_config(TraceConfig::default())
    }
}

impl TraceRecorder {
    /// A recorder with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder retaining the `capacity` most recent completed spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_config(TraceConfig { capacity, ..TraceConfig::default() })
    }

    /// A recorder with explicit sampling and capacity knobs.
    pub fn with_config(config: TraceConfig) -> Self {
        assert!(config.capacity > 0, "span capacity must be positive");
        TraceRecorder {
            recorder_id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            wall_epoch_us: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .unwrap_or_default()
                .as_micros() as u64,
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            roots: AtomicU64::new(0),
            sample_every_n: config.sample_every_n,
            capacity: config.capacity,
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Sampling decision for a new root: every n-th root records.
    fn sample_root(&self) -> bool {
        match self.sample_every_n {
            0 => false,
            1 => true,
            n => self.roots.fetch_add(1, Ordering::Relaxed).is_multiple_of(n),
        }
    }

    /// Opens a span; it records itself when dropped. Prefer the
    /// [`crate::span!`] macro, which also attaches attributes.
    ///
    /// The parent is the innermost open span of this recorder on this
    /// thread; failing that, the thread's ambient [`SpanContext`] (see
    /// [`crate::Telemetry::in_context`]); failing that, the span roots a
    /// fresh trace.
    pub fn start_span(&self, name: &'static str) -> Span<'_> {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let (parent, trace, sampled) = OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let inherited = stack
                .iter()
                .rev()
                .find(|&&(rec, ..)| rec == self.recorder_id)
                .map(|&(_, id, trace, sampled)| (id, trace, sampled))
                .or_else(|| {
                    crate::ambient_context_for(self.recorder_id)
                        .map(|ctx| (ctx.span.0, ctx.trace.0, ctx.sampled))
                });
            let (parent, trace, sampled) = match inherited {
                Some(found) => found,
                None => (0, self.next_trace.fetch_add(1, Ordering::Relaxed), self.sample_root()),
            };
            stack.push((self.recorder_id, id, trace, sampled));
            (parent, trace, sampled)
        });
        Span {
            recorder: self,
            id,
            parent,
            trace,
            sampled,
            name,
            started: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Opens a span explicitly parented under `ctx` — the cross-thread
    /// edge. The span still joins this thread's open-span stack, so
    /// lexically nested spans (and ambient device instrumentation)
    /// parent under *it*.
    pub fn start_span_child_of(&self, name: &'static str, ctx: SpanContext) -> Span<'_> {
        debug_assert_eq!(ctx.recorder, self.recorder_id, "context from a different recorder");
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        OPEN_SPANS.with(|stack| {
            stack.borrow_mut().push((self.recorder_id, id, ctx.trace.0, ctx.sampled));
        });
        Span {
            recorder: self,
            id,
            parent: ctx.span.0,
            trace: ctx.trace.0,
            sampled: ctx.sampled,
            name,
            started: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Opens a **root** span that is `Send` and not tied to any thread's
    /// stack: the handle can travel with a work item across threads, and
    /// its context parents spans recorded on others (e.g. a batch's
    /// per-tile spans on the engine's helpers); it records when finished
    /// or dropped. `started` may predate the call
    /// (a batch's life begins at its oldest request's enqueue).
    pub fn start_owned(self: &Arc<Self>, name: &'static str, started: Instant) -> OwnedSpan {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let trace = self.next_trace.fetch_add(1, Ordering::Relaxed);
        let sampled = self.sample_root();
        OwnedSpan {
            recorder: Arc::clone(self),
            id,
            trace,
            sampled,
            name,
            started,
            attrs: Vec::new(),
            finished: false,
        }
    }

    /// Backfills a completed stage span under `ctx`: a span whose start
    /// and duration were measured by the caller rather than by RAII
    /// scope (queue wait, dispatch hand-off). No-op when `ctx` is
    /// unsampled.
    pub fn record_span_at(
        &self,
        name: &'static str,
        ctx: SpanContext,
        started: Instant,
        duration: Duration,
        attrs: Vec<(String, String)>,
    ) {
        debug_assert_eq!(ctx.recorder, self.recorder_id, "context from a different recorder");
        if !ctx.sampled {
            return;
        }
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let start_us =
            started.checked_duration_since(self.epoch).unwrap_or_default().as_micros() as u64;
        self.push(SpanRecord {
            id,
            parent: ctx.span.0,
            trace: ctx.trace.0,
            name: name.to_string(),
            start_us,
            wall_start_us: self.wall_epoch_us + start_us,
            duration_us: duration.as_micros() as u64,
            thread: current_thread_num(),
            attrs,
        });
    }

    /// Completed spans, oldest first, plus how many were dropped to the
    /// ring bound.
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = self.ring.lock().unwrap();
        let mut spans = Vec::with_capacity(ring.spans.len());
        spans.extend_from_slice(&ring.spans[ring.head..]);
        spans.extend_from_slice(&ring.spans[..ring.head]);
        TraceSnapshot { dropped: ring.pushed - spans.len() as u64, spans }
    }

    fn push(&self, record: SpanRecord) {
        let mut ring = self.ring.lock().unwrap();
        ring.pushed += 1;
        if ring.spans.len() < self.capacity {
            ring.spans.push(record);
        } else {
            let head = ring.head;
            ring.spans[head] = record;
            ring.head = (head + 1) % self.capacity;
        }
    }
}

/// Completed spans captured from a [`TraceRecorder`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Spans evicted by the ring bound before this snapshot.
    pub dropped: u64,
    /// Retained spans, oldest first.
    pub spans: Vec<SpanRecord>,
}

impl TraceSnapshot {
    /// Nesting depth of a span: 0 for roots, parent depth + 1 otherwise
    /// (parents evicted from the ring count as missing → treated as
    /// root).
    pub fn depth_of(&self, span: &SpanRecord) -> usize {
        let mut depth = 0;
        let mut parent = span.parent;
        while parent != 0 {
            match self.spans.iter().find(|s| s.id == parent) {
                Some(p) => {
                    depth += 1;
                    parent = p.parent;
                }
                None => break,
            }
        }
        depth
    }

    /// Every retained span of one trace, in completion order — what an
    /// exemplar's [`TraceId`] resolves to.
    pub fn trace(&self, trace: TraceId) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.trace == trace.0).collect()
    }

    /// The root ancestor of `span` among the retained records (the span
    /// itself when its parent is 0 or evicted).
    pub fn root_of<'a>(&'a self, span: &'a SpanRecord) -> &'a SpanRecord {
        let mut current = span;
        while current.parent != 0 {
            match self.spans.iter().find(|s| s.id == current.parent) {
                Some(p) => current = p,
                None => break,
            }
        }
        current
    }
}

/// RAII guard for an open span (see [`TraceRecorder::start_span`]).
#[must_use = "a span measures the scope it lives in; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    recorder: &'a TraceRecorder,
    id: u64,
    parent: u64,
    trace: u64,
    sampled: bool,
    name: &'static str,
    started: Instant,
    attrs: Vec<(String, String)>,
}

impl Span<'_> {
    /// Attaches a key/value attribute (dropped when the trace is
    /// unsampled — guard expensive formatting on [`Span::is_recorded`]).
    pub fn set_attr(&mut self, key: &str, value: String) {
        if self.sampled {
            self.attrs.push((key.to_string(), value));
        }
    }

    /// Whether this span will reach the ring (its root was sampled).
    pub fn is_recorded(&self) -> bool {
        self.sampled
    }

    /// When the span started: where a backfilled stage before it ends.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// This span's portable context, for parenting work on other
    /// threads under it.
    pub fn context(&self) -> SpanContext {
        SpanContext {
            recorder: self.recorder.recorder_id,
            trace: TraceId(self.trace),
            span: SpanId(self.id),
            sampled: self.sampled,
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let duration_us = self.started.elapsed().as_micros() as u64;
        let start_us = self
            .started
            .checked_duration_since(self.recorder.epoch)
            .unwrap_or_default()
            .as_micros() as u64;
        OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Scoped guards drop LIFO, so this span is the innermost
            // entry for its recorder; remove exactly it.
            if let Some(pos) = stack
                .iter()
                .rposition(|&(rec, id, ..)| rec == self.recorder.recorder_id && id == self.id)
            {
                stack.remove(pos);
            }
        });
        if !self.sampled {
            return;
        }
        self.recorder.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name.to_string(),
            start_us,
            wall_start_us: self.recorder.wall_epoch_us + start_us,
            duration_us,
            thread: current_thread_num(),
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

/// A root span that owns its recorder handle and is `Send`: it may be
/// created on one thread and finished on another. Unlike
/// [`Span`] it never joins the thread-local stack — children attach via
/// [`OwnedSpan::context`], not lexically.
#[must_use = "an owned span measures until finished or dropped"]
pub struct OwnedSpan {
    recorder: Arc<TraceRecorder>,
    id: u64,
    trace: u64,
    sampled: bool,
    name: &'static str,
    started: Instant,
    attrs: Vec<(String, String)>,
    finished: bool,
}

impl OwnedSpan {
    /// Attaches a key/value attribute (dropped when unsampled).
    pub fn set_attr(&mut self, key: &str, value: String) {
        if self.sampled {
            self.attrs.push((key.to_string(), value));
        }
    }

    /// Whether this trace is being recorded.
    pub fn is_recorded(&self) -> bool {
        self.sampled
    }

    /// The context children parent under, from any thread.
    pub fn context(&self) -> SpanContext {
        SpanContext {
            recorder: self.recorder.recorder_id,
            trace: TraceId(self.trace),
            span: SpanId(self.id),
            sampled: self.sampled,
        }
    }

    /// When the span started (possibly backdated, see
    /// [`TraceRecorder::start_owned`]).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Microseconds elapsed since the span started.
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Completes the span now (equivalent to dropping it, but explicit
    /// at call sites where the end matters).
    pub fn finish(self) {}
}

impl Drop for OwnedSpan {
    fn drop(&mut self) {
        if self.finished || !self.sampled {
            return;
        }
        self.finished = true;
        let duration_us = self.started.elapsed().as_micros() as u64;
        let start_us = self
            .started
            .checked_duration_since(self.recorder.epoch)
            .unwrap_or_default()
            .as_micros() as u64;
        self.recorder.push(SpanRecord {
            id: self.id,
            parent: 0,
            trace: self.trace,
            name: self.name.to_string(),
            start_us,
            wall_start_us: self.recorder.wall_epoch_us + start_us,
            duration_us,
            thread: current_thread_num(),
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

/// Opens a span on a telemetry handle or recorder, with optional
/// attributes:
///
/// ```
/// let tel = rfx_telemetry::Telemetry::new();
/// let rows = 128;
/// {
///     let _span = rfx_telemetry::span!(tel, "batch.traverse", backend = "cpu", rows = rows);
///     // ... work measured by the span ...
/// }
/// assert_eq!(tel.trace_snapshot().spans.len(), 1);
/// ```
///
/// Attribute expressions are only formatted when the trace is sampled.
#[macro_export]
macro_rules! span {
    ($telemetry:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut span = $telemetry.start_span($name);
        $( if span.is_recorded() { span.set_attr(stringify!($key), format!("{}", $value)); } )*
        span
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_scope() {
        let rec = TraceRecorder::new();
        {
            let _outer = rec.start_span("outer");
            {
                let _inner = rec.start_span("inner");
            }
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        // Drop order: inner completes first.
        let inner = &snap.spans[0];
        let outer = &snap.spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(snap.depth_of(inner), 1);
        assert_eq!(snap.depth_of(outer), 0);
        // Both spans share the trace the root minted.
        assert_ne!(outer.trace, 0);
        assert_eq!(inner.trace, outer.trace);
        assert_eq!(snap.root_of(inner).id, outer.id);
        // Wall clock tracks the monotonic clock.
        assert_eq!(outer.wall_start_us - rec.wall_epoch_us, outer.start_us);
    }

    #[test]
    fn two_recorders_do_not_cross_link() {
        let a = TraceRecorder::new();
        let b = TraceRecorder::new();
        let _sa = a.start_span("a.root");
        let sb = b.start_span("b.root");
        // b's span opened inside a's scope, but on a different recorder:
        // it must be a root of b, not a child of a's span.
        assert_eq!(sb.parent, 0);
    }

    #[test]
    fn ring_keeps_most_recent() {
        let rec = TraceRecorder::with_capacity(4);
        for _ in 0..10 {
            let _s = rec.start_span("s");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.dropped, 6);
        // Oldest-first ordering with ids of the last four spans.
        let ids: Vec<u64> = snap.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
    }

    #[test]
    fn owned_span_crosses_threads_and_parents_children() {
        let rec = Arc::new(TraceRecorder::new());
        let root = rec.start_owned("batch", Instant::now());
        let ctx = root.context();
        let worker_rec = Arc::clone(&rec);
        std::thread::spawn(move || {
            let _child = worker_rec.start_span_child_of("batch.traverse", ctx);
            root.finish();
        })
        .join()
        .unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let child = snap.spans.iter().find(|s| s.name == "batch.traverse").unwrap();
        let root = snap.spans.iter().find(|s| s.name == "batch").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(child.trace, root.trace);
        assert_eq!(root.parent, 0);
    }

    #[test]
    fn child_of_context_hosts_lexical_descendants() {
        let rec = Arc::new(TraceRecorder::new());
        let root = rec.start_owned("root", Instant::now());
        {
            let traverse = rec.start_span_child_of("traverse", root.context());
            let _ = &traverse;
            // A plain start_span inside the child's scope nests under it.
            let _leaf = rec.start_span("leaf");
        }
        root.finish();
        let snap = rec.snapshot();
        let leaf = snap.spans.iter().find(|s| s.name == "leaf").unwrap();
        let traverse = snap.spans.iter().find(|s| s.name == "traverse").unwrap();
        assert_eq!(leaf.parent, traverse.id);
        assert_eq!(leaf.trace, traverse.trace);
    }

    #[test]
    fn record_span_at_backfills_under_context() {
        let rec = Arc::new(TraceRecorder::new());
        let started = Instant::now();
        let root = rec.start_owned("root", started);
        rec.record_span_at(
            "queue_wait",
            root.context(),
            started,
            Duration::from_micros(250),
            vec![("rows".into(), "8".into())],
        );
        root.finish();
        let snap = rec.snapshot();
        let wait = snap.spans.iter().find(|s| s.name == "queue_wait").unwrap();
        let root = snap.spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(wait.parent, root.id);
        assert_eq!(wait.duration_us, 250);
        assert_eq!(wait.attrs, vec![("rows".to_string(), "8".to_string())]);
    }

    #[test]
    fn sampling_keeps_every_nth_trace_and_whole_trees() {
        let rec = TraceRecorder::with_config(TraceConfig { sample_every_n: 3, capacity: 64 });
        for _ in 0..9 {
            let _root = rec.start_span("root");
            let _child = rec.start_span("child");
        }
        let snap = rec.snapshot();
        // Roots 0, 3, 6 record — each with its child, never a partial
        // tree.
        assert_eq!(snap.spans.iter().filter(|s| s.name == "root").count(), 3);
        assert_eq!(snap.spans.iter().filter(|s| s.name == "child").count(), 3);
        for child in snap.spans.iter().filter(|s| s.name == "child") {
            assert!(snap.spans.iter().any(|s| s.id == child.parent));
        }
    }

    #[test]
    fn sample_zero_records_nothing_but_spans_still_scope() {
        let rec = TraceRecorder::with_config(TraceConfig { sample_every_n: 0, capacity: 16 });
        {
            let mut root = rec.start_span("root");
            root.set_attr("k", "v".into());
            assert!(!root.is_recorded());
            let _child = rec.start_span("child");
        }
        assert!(rec.snapshot().spans.is_empty());
    }

    #[test]
    fn unsampled_owned_span_suppresses_explicit_children() {
        let rec =
            Arc::new(TraceRecorder::with_config(TraceConfig { sample_every_n: 0, capacity: 16 }));
        let root = rec.start_owned("root", Instant::now());
        let ctx = root.context();
        assert!(!ctx.sampled);
        {
            let _child = rec.start_span_child_of("child", ctx);
        }
        rec.record_span_at("stage", ctx, Instant::now(), Duration::from_micros(1), vec![]);
        root.finish();
        assert!(rec.snapshot().spans.is_empty());
    }

    #[test]
    fn thread_ids_distinguish_workers() {
        let rec = Arc::new(TraceRecorder::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    let _s = rec.start_span("work");
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_ne!(snap.spans[0].thread, snap.spans[1].thread);
    }
}
