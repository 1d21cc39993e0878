//! Metric primitives: counters, gauges, and fixed-bucket histograms.
//!
//! All three record through relaxed atomics — the hot path is a handful
//! of uncontended `fetch_add`s, safe to call from rayon workers and the
//! serve executor pool without a lock. Snapshots are taken concurrently
//! with recording and are therefore *consistent per metric*, not across
//! metrics (the usual monitoring contract).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::trace::TraceId;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Point-in-time measurement that can move both ways (queue depth,
/// latency estimate). Stored as `f64` bits.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (CAS loop; gauges are not hot-path metrics).
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: 4 unit buckets for values 0–3, then 4
/// log-linear sub-buckets per power-of-two octave up to `u64::MAX`.
pub const NUM_BUCKETS: usize = 4 + 62 * 4;

/// Fixed-bucket histogram of `u64` samples (latencies in µs, sizes in
/// rows, ...).
///
/// The bucket layout is log-linear: values 0–3 get exact unit buckets;
/// every octave `[2^o, 2^(o+1))` above that is split into 4 equal
/// sub-buckets, bounding the relative quantile error at 12.5%. Layout is
/// fixed at compile time — recording is index + `fetch_add`, lock-free
/// and wait-free, and snapshots never need the raw samples (the fix for
/// the old sort-every-snapshot `ServeStats` percentiles).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Per-bucket exemplar slots, allocated lazily on the first
    /// [`Histogram::record_with_exemplar`] call so histograms that never
    /// attach traces pay nothing.
    exemplars: OnceLock<Box<[ExemplarSlot; NUM_BUCKETS]>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplars: OnceLock::new(),
        }
    }
}

/// Lock-free slot holding the most recent traced sample for one bucket.
/// The two cells are written independently, so a concurrent reader can
/// pair a trace id with a neighbouring write's value — both are still
/// recent samples from the *same bucket*, which is all an exemplar
/// promises.
#[derive(Debug)]
struct ExemplarSlot {
    trace: AtomicU64,
    value: AtomicU64,
}

impl ExemplarSlot {
    fn new() -> Self {
        ExemplarSlot { trace: AtomicU64::new(TraceId::NONE.0), value: AtomicU64::new(0) }
    }

    fn load(&self) -> Option<Exemplar> {
        let trace = TraceId(self.trace.load(Ordering::Relaxed));
        trace.is_some().then(|| Exemplar { trace, value: self.value.load(Ordering::Relaxed) })
    }
}

/// A sampled `(trace, value)` pair retained by a histogram bucket: the
/// most recent sample in that value range that carried a sampled
/// [`TraceId`]. Links an aggregate tail (a p99 bucket) back to one full
/// trace in the span ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Trace the sample belonged to (never [`TraceId::NONE`]).
    pub trace: TraceId,
    /// The recorded sample value.
    pub value: u64,
}

/// Bucket index of a value under the log-linear layout.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize; // >= 2
        let sub = ((v >> (octave - 2)) & 3) as usize;
        4 + (octave - 2) * 4 + sub
    }
}

/// `[lo, hi)` value range of a bucket (the last bucket's `hi` saturates
/// at `u64::MAX`).
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < NUM_BUCKETS, "bucket index out of range");
    if idx < 4 {
        (idx as u64, idx as u64 + 1)
    } else {
        let octave = 2 + (idx - 4) / 4;
        let sub = ((idx - 4) % 4) as u64;
        let quarter = 1u64 << (octave - 2);
        let lo = (1u64 << octave) + sub * quarter;
        (lo, lo.saturating_add(quarter))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample. Lock-free; callable from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records one sample and, when `trace` is a real (sampled) id,
    /// retains `(trace, v)` as the bucket's exemplar. Unsampled work
    /// passes [`TraceId::NONE`] and degrades to a plain
    /// [`record`](Self::record) — no slot allocation, no extra stores.
    #[inline]
    pub fn record_with_exemplar(&self, v: u64, trace: TraceId) {
        self.record(v);
        if trace.is_some() {
            let slots = self
                .exemplars
                .get_or_init(|| Box::new(std::array::from_fn(|_| ExemplarSlot::new())));
            let slot = &slots[bucket_index(v)];
            slot.value.store(v, Ordering::Relaxed);
            slot.trace.store(trace.0, Ordering::Relaxed);
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state out for analysis/export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let slots = self.exemplars.get();
        let buckets = (0..NUM_BUCKETS)
            .filter_map(|i| {
                let n = self.buckets[i].load(Ordering::Relaxed);
                (n > 0).then(|| {
                    let (lo, hi) = bucket_bounds(i);
                    let exemplar = slots.and_then(|s| s[i].load());
                    HistogramBucket { lo, hi, count: n, exemplar }
                })
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One occupied bucket of a [`HistogramSnapshot`]: `count` samples fell
/// in `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramBucket {
    pub lo: u64,
    pub hi: u64,
    pub count: u64,
    /// Most recent traced sample that landed in this bucket, if any.
    pub exemplar: Option<Exemplar>,
}

/// Immutable copy of a histogram's state; quantiles are computed here,
/// off the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (exact).
    pub sum: u64,
    /// Smallest sample (exact; 0 when empty).
    pub min: u64,
    /// Largest sample (exact).
    pub max: u64,
    /// Occupied buckets, ascending by `lo`.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Arithmetic mean (exact — from the sum, not the buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate (`q` in `[0, 1]`): finds the bucket holding the
    /// rank-`⌈q·count⌉` sample and interpolates linearly inside it, then
    /// clamps to the exact observed `[min, max]`. Error is bounded by the
    /// bucket width (≤ 12.5% relative).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for b in &self.buckets {
            if seen + b.count >= rank {
                let into = rank - seen; // 1..=b.count
                let width = b.hi - b.lo;
                // u128 keeps `width * into` exact for the top octaves.
                let est = b.lo + ((width as u128 * into as u128) / b.count.max(1) as u128) as u64;
                return est.clamp(self.min, self.max);
            }
            seen += b.count;
        }
        self.max
    }

    /// The exemplar attached to the bucket holding the quantile-`q`
    /// sample, so a "p99 spiked" alert resolves to a concrete
    /// [`TraceId`]. When that bucket kept no exemplar (its last traced
    /// sample was overwritten or it never saw one), falls back to the
    /// nearest occupied bucket below, then above — still a sample from
    /// the same latency neighbourhood.
    pub fn exemplar_for_quantile(&self, q: f64) -> Option<Exemplar> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        let mut target = self.buckets.len().saturating_sub(1);
        for (i, b) in self.buckets.iter().enumerate() {
            if seen + b.count >= rank {
                target = i;
                break;
            }
            seen += b.count;
        }
        self.buckets[..=target]
            .iter()
            .rev()
            .chain(self.buckets[target + 1..].iter())
            .find_map(|b| b.exemplar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_total_and_ordered() {
        // Every value maps into a bucket whose bounds contain it, and
        // bucket index is monotone in the value.
        let mut prev_idx = 0usize;
        for &v in &[0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1023, 1024, 1 << 20, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && (v < hi || hi == u64::MAX), "{v} not in [{lo},{hi})");
            assert!(idx >= prev_idx, "index not monotone at {v}");
            prev_idx = idx;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_are_bucket_accurate() {
        // Satellite requirement: p50/p99 land in (or at the clamp edge
        // of) the bucket that actually holds the ranked sample.
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!((s.min, s.max), (1, 1000));
        for (q, exact) in [(0.50, 500u64), (0.95, 950), (0.99, 990)] {
            let est = s.quantile(q);
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            assert!(est >= lo && est <= hi, "q{q}: estimate {est} outside bucket [{lo},{hi})");
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(rel <= 0.125, "q{q}: relative error {rel} exceeds bucket bound");
        }
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.quantile(0.5), s.min, s.max), (0, 0, 0, 0));
        h.record(7);
        let s = h.snapshot();
        assert_eq!((s.quantile(0.5), s.quantile(0.99), s.min, s.max), (7, 7, 7, 7));
        assert!((s.mean() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn exemplars_land_in_their_value_bucket() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        h.record_with_exemplar(900, TraceId(7));
        h.record_with_exemplar(905, TraceId(8)); // same bucket: overwrites
        let s = h.snapshot();
        let b =
            s.buckets.iter().find(|b| b.lo <= 905 && 905 < b.hi).expect("bucket for 905 occupied");
        assert_eq!(b.exemplar, Some(Exemplar { trace: TraceId(8), value: 905 }));
        // The tail quantile resolves to the traced spike.
        assert_eq!(s.exemplar_for_quantile(0.99).unwrap().trace, TraceId(8));
    }

    #[test]
    fn none_trace_records_value_without_exemplar() {
        let h = Histogram::new();
        h.record_with_exemplar(42, TraceId::NONE);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.buckets.iter().all(|b| b.exemplar.is_none()));
        assert_eq!(s.exemplar_for_quantile(0.5), None);
    }

    #[test]
    fn exemplar_quantile_falls_back_to_nearest_bucket() {
        let h = Histogram::new();
        // Exemplar lives well below the p99 bucket; lookup walks down.
        h.record_with_exemplar(10, TraceId(3));
        for _ in 0..50 {
            h.record(5000);
        }
        let s = h.snapshot();
        assert_eq!(s.exemplar_for_quantile(0.99), Some(Exemplar { trace: TraceId(3), value: 10 }));
        // And walks up when the only exemplar is above the target bucket.
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(5);
        }
        h.record_with_exemplar(9000, TraceId(4));
        let s = h.snapshot();
        assert_eq!(s.exemplar_for_quantile(0.10).unwrap().trace, TraceId(4));
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        // The call itself must not overflow in the u128 interpolation;
        // p100 clamps to the recorded max, p0 stays inside bucket 0.
        assert_eq!(s.quantile(1.0), u64::MAX);
        assert!(s.quantile(0.0) <= 1);
    }
}
