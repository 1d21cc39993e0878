//! Unified performance-counter schema shared by every execution path.
//!
//! The paper's GPU/FPGA speedup story is a memory-hierarchy story:
//! coalescing, L1/L2 hit rates, and pipeline stalls decide which kernel
//! wins. [`PerfCounters`] is the one vocabulary all three paths speak —
//! the GPU simulator, the FPGA pipeline model, and the CPU sharded
//! engine's software memory tracer each fill the same struct and export
//! it as `<domain>.perf.<key>` series (`gpusim.perf.l2.misses`,
//! `kernels.perf.dram.bytes`, ...), so layout experiments (e.g.
//! access-frequency-aware forest packing) can be judged by the *same*
//! miss and stall numbers regardless of where they ran.
//!
//! Schema stability is load-bearing: `perf_report` baselines and the CI
//! `perf-smoke` gate compare these keys across commits, and
//! [`assert_schema`] enforces in-process that every domain exports the
//! full key set (zero-valued counters are still registered so the keys
//! are present). See DESIGN.md §17 for the semantics each path gives to
//! the stall causes.

use crate::registry::MetricsSnapshot;
use crate::Telemetry;

/// Counter key suffixes, in export order. `<domain>.perf.` + suffix is
/// the full series name. Extend only alongside the struct fields and
/// the exhaustive destructuring in [`PerfCounters::merge`].
pub const COUNTER_KEYS: [&str; 12] = [
    "l1.accesses",
    "l1.hits",
    "l1.misses",
    "l2.accesses",
    "l2.hits",
    "l2.misses",
    "dram.transactions",
    "dram.bytes",
    "cycles.busy",
    "stall.memory_cycles",
    "stall.fill_cycles",
    "stall.wasted_cycles",
];

/// Gauge key suffixes (`occupancy` is carried in the struct;
/// `utilization` is derived from the cycle counters at export time).
pub const GAUGE_KEYS: [&str; 2] = ["occupancy", "utilization"];

/// The full series name for a schema key within `domain`.
pub fn series(domain: &str, key: &str) -> String {
    format!("{domain}.perf.{key}")
}

/// One execution path's memory-hierarchy and utilization counters.
///
/// Cycle semantics: `busy_cycles` is time spent doing useful issue
/// (instructions issued, pipeline iterations that contributed votes);
/// the three `stall_*` fields partition lost cycles by cause —
/// `memory` (waiting on the memory hierarchy: cache-miss latency, DRAM
/// bandwidth/channel contention), `fill` (pipeline warm-up before the
/// first result), `wasted` (work issued but useless, e.g. padded
/// iterations on replicated compute units). Paths without a given cause
/// report 0 for it; the key is still exported so the schema matches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PerfCounters {
    /// Loads that consulted the first-level cache.
    pub l1_accesses: u64,
    /// ... and hit it.
    pub l1_hits: u64,
    /// ... and missed it.
    pub l1_misses: u64,
    /// Loads that consulted the second-level cache.
    pub l2_accesses: u64,
    /// ... and hit it.
    pub l2_hits: u64,
    /// ... and missed it.
    pub l2_misses: u64,
    /// External-memory transactions (device DRAM bursts / CPU line
    /// fills).
    pub dram_transactions: u64,
    /// Bytes moved by those transactions.
    pub dram_bytes: u64,
    /// Cycles spent usefully issuing work.
    pub busy_cycles: u64,
    /// Cycles stalled waiting on the memory hierarchy.
    pub stall_memory_cycles: u64,
    /// Cycles spent filling a pipeline before its first result.
    pub stall_fill_cycles: u64,
    /// Cycles issued to work that produced no useful result.
    pub stall_wasted_cycles: u64,
    /// Fraction of the path's parallel resources kept resident
    /// (0.0–1.0): warps per SM on the GPU, compute-unit load balance on
    /// the FPGA, threads engaged on the CPU.
    pub occupancy: f64,
}

impl PerfCounters {
    /// Accumulates `other` into `self`. Counters add; `occupancy` keeps
    /// the peak, since merged executions share the same resources.
    ///
    /// The exhaustive destructuring makes "field added but not merged"
    /// a compile error instead of silent data loss.
    pub fn merge(&mut self, other: &PerfCounters) {
        let PerfCounters {
            l1_accesses,
            l1_hits,
            l1_misses,
            l2_accesses,
            l2_hits,
            l2_misses,
            dram_transactions,
            dram_bytes,
            busy_cycles,
            stall_memory_cycles,
            stall_fill_cycles,
            stall_wasted_cycles,
            occupancy,
        } = *other;
        self.l1_accesses += l1_accesses;
        self.l1_hits += l1_hits;
        self.l1_misses += l1_misses;
        self.l2_accesses += l2_accesses;
        self.l2_hits += l2_hits;
        self.l2_misses += l2_misses;
        self.dram_transactions += dram_transactions;
        self.dram_bytes += dram_bytes;
        self.busy_cycles += busy_cycles;
        self.stall_memory_cycles += stall_memory_cycles;
        self.stall_fill_cycles += stall_fill_cycles;
        self.stall_wasted_cycles += stall_wasted_cycles;
        self.occupancy = self.occupancy.max(occupancy);
    }

    /// The counter values in [`COUNTER_KEYS`] order.
    pub fn counter_values(&self) -> [u64; COUNTER_KEYS.len()] {
        [
            self.l1_accesses,
            self.l1_hits,
            self.l1_misses,
            self.l2_accesses,
            self.l2_hits,
            self.l2_misses,
            self.dram_transactions,
            self.dram_bytes,
            self.busy_cycles,
            self.stall_memory_cycles,
            self.stall_fill_cycles,
            self.stall_wasted_cycles,
        ]
    }

    /// All stall cycles, regardless of cause.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_memory_cycles + self.stall_fill_cycles + self.stall_wasted_cycles
    }

    /// Busy plus stalled cycles.
    pub fn total_cycles(&self) -> u64 {
        self.busy_cycles + self.stall_cycles()
    }

    /// L1 hits over L1 accesses (0.0 when idle).
    pub fn l1_hit_rate(&self) -> f64 {
        ratio(self.l1_hits, self.l1_accesses)
    }

    /// L1 misses over L1 accesses (0.0 when idle).
    pub fn l1_miss_rate(&self) -> f64 {
        ratio(self.l1_misses, self.l1_accesses)
    }

    /// L2 hits over L2 accesses (0.0 when idle).
    pub fn l2_hit_rate(&self) -> f64 {
        ratio(self.l2_hits, self.l2_accesses)
    }

    /// L2 misses over L2 accesses (0.0 when idle).
    pub fn l2_miss_rate(&self) -> f64 {
        ratio(self.l2_misses, self.l2_accesses)
    }

    /// Stalled cycles over total cycles (0.0 when idle).
    pub fn stall_fraction(&self) -> f64 {
        ratio(self.stall_cycles(), self.total_cycles())
    }

    /// Busy cycles over total cycles (0.0 when idle).
    pub fn utilization(&self) -> f64 {
        ratio(self.busy_cycles, self.total_cycles())
    }

    /// Registers and bumps every `<domain>.perf.*` series in `tel`.
    /// Zero-valued counters are still registered, so the full schema is
    /// present in any snapshot taken after one export — that is what
    /// [`assert_schema`] and the cross-path parity checks rely on.
    pub fn export(&self, tel: &Telemetry, domain: &str) {
        for (key, value) in COUNTER_KEYS.iter().zip(self.counter_values()) {
            tel.counter(&series(domain, key)).add(value);
        }
        tel.gauge(&series(domain, "occupancy")).set(self.occupancy);
        tel.gauge(&series(domain, "utilization")).set(self.utilization());
    }

    /// The derived rates as span attributes, so exported traces carry
    /// hit rates and stall fractions per stage.
    pub fn span_attrs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("perf.l1_hit_rate", format!("{:.4}", self.l1_hit_rate())),
            ("perf.l2_hit_rate", format!("{:.4}", self.l2_hit_rate())),
            ("perf.dram_transactions", self.dram_transactions.to_string()),
            ("perf.dram_bytes", self.dram_bytes.to_string()),
            ("perf.stall_fraction", format!("{:.4}", self.stall_fraction())),
            ("perf.utilization", format!("{:.4}", self.utilization())),
            ("perf.occupancy", format!("{:.4}", self.occupancy)),
        ]
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Reads `domain`'s exported counters back out of a snapshot. `None`
/// unless **every** counter key is present — a partial schema is a bug
/// in the exporting path, not a readable state.
pub fn read(snapshot: &MetricsSnapshot, domain: &str) -> Option<PerfCounters> {
    let get = |key: &str| snapshot.counter(&series(domain, key));
    Some(PerfCounters {
        l1_accesses: get("l1.accesses")?,
        l1_hits: get("l1.hits")?,
        l1_misses: get("l1.misses")?,
        l2_accesses: get("l2.accesses")?,
        l2_hits: get("l2.hits")?,
        l2_misses: get("l2.misses")?,
        dram_transactions: get("dram.transactions")?,
        dram_bytes: get("dram.bytes")?,
        busy_cycles: get("cycles.busy")?,
        stall_memory_cycles: get("stall.memory_cycles")?,
        stall_fill_cycles: get("stall.fill_cycles")?,
        stall_wasted_cycles: get("stall.wasted_cycles")?,
        occupancy: snapshot.gauge(&series(domain, "occupancy")).unwrap_or(0.0),
    })
}

/// The schema keys `domain` has *not* exported into `snapshot`.
pub fn missing_keys(snapshot: &MetricsSnapshot, domain: &str) -> Vec<String> {
    COUNTER_KEYS
        .iter()
        .map(|key| series(domain, key))
        .filter(|name| snapshot.counter(name).is_none())
        .chain(
            GAUGE_KEYS
                .iter()
                .map(|key| series(domain, key))
                .filter(|name| snapshot.gauge(name).is_none()),
        )
        .collect()
}

/// Panics unless `domain` exported the complete perf schema — the
/// in-process parity assertion `perf_report` runs across the CPU
/// engine, gpu-sim, and fpga-sim domains.
///
/// # Panics
/// Lists *every* missing series name (counters and gauges), not just
/// the first — a half-wired exporter should be diagnosable from one
/// failure message.
pub fn assert_schema(snapshot: &MetricsSnapshot, domain: &str) {
    let missing = missing_keys(snapshot, domain);
    assert!(
        missing.is_empty(),
        "perf schema incomplete for `{domain}`: missing {} series {missing:?}",
        missing.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each field gets a distinct value so a swapped or dropped field
    /// shows up as a wrong sum, not a coincidence.
    fn filled(seed: u64) -> PerfCounters {
        PerfCounters {
            l1_accesses: seed + 1,
            l1_hits: seed + 2,
            l1_misses: seed + 3,
            l2_accesses: seed + 4,
            l2_hits: seed + 5,
            l2_misses: seed + 6,
            dram_transactions: seed + 7,
            dram_bytes: seed + 8,
            busy_cycles: seed + 9,
            stall_memory_cycles: seed + 10,
            stall_fill_cycles: seed + 11,
            stall_wasted_cycles: seed + 12,
            occupancy: seed as f64 / 100.0,
        }
    }

    #[test]
    fn merge_adds_every_counter_and_keeps_peak_occupancy() {
        let mut a = filled(100);
        let b = filled(10);
        a.merge(&b);
        let expect = filled(0);
        for (i, (got, base)) in a.counter_values().iter().zip(expect.counter_values()).enumerate() {
            // filled(100)[i] + filled(10)[i] = 2*filled(0)[i] + 110.
            assert_eq!(*got, 2 * base + 110, "counter index {i}");
        }
        assert_eq!(a.occupancy, 1.0);
    }

    #[test]
    fn export_registers_full_schema_even_when_idle() {
        let tel = Telemetry::new();
        PerfCounters::default().export(&tel, "idle");
        let snap = tel.metrics_snapshot();
        assert!(missing_keys(&snap, "idle").is_empty());
        assert_schema(&snap, "idle");
        assert_eq!(snap.counter("idle.perf.l2.misses"), Some(0));
        assert_eq!(snap.gauge("idle.perf.utilization"), Some(0.0));
    }

    #[test]
    fn read_roundtrips_export() {
        let tel = Telemetry::new();
        let counters = filled(40);
        counters.export(&tel, "dev");
        let snap = tel.metrics_snapshot();
        let back = read(&snap, "dev").expect("full schema was exported");
        assert_eq!(back, counters);
        // A domain that never exported reads back as None.
        assert!(read(&snap, "other").is_none());
    }

    #[test]
    #[should_panic(expected = "perf schema incomplete")]
    fn assert_schema_names_the_missing_domain() {
        let tel = Telemetry::new();
        tel.counter("partial.perf.l1.accesses").inc();
        assert_schema(&tel.metrics_snapshot(), "partial");
    }

    /// The panic message must enumerate *all* missing series, not just
    /// the first: with only one counter exported, every other counter
    /// key and both gauges have to appear by name.
    #[test]
    fn assert_schema_panic_lists_every_missing_series() {
        let tel = Telemetry::new();
        tel.counter("partial.perf.l1.accesses").inc();
        let snapshot = tel.metrics_snapshot();
        let message = std::panic::catch_unwind(move || assert_schema(&snapshot, "partial"))
            .expect_err("an incomplete schema must panic");
        let message = message
            .downcast_ref::<String>()
            .expect("panic payload is the formatted message")
            .clone();
        for key in COUNTER_KEYS.iter().skip(1).chain(GAUGE_KEYS.iter()) {
            let name = series("partial", key);
            assert!(message.contains(&name), "panic message must list `{name}`: {message}");
        }
        assert!(
            !message.contains("partial.perf.l1.accesses\""),
            "the one exported series must not be listed as missing: {message}"
        );
        let expected = COUNTER_KEYS.len() - 1 + GAUGE_KEYS.len();
        assert!(message.contains(&format!("missing {expected} series")), "{message}");
    }

    #[test]
    fn rates_are_zero_when_idle_and_exact_otherwise() {
        let idle = PerfCounters::default();
        assert_eq!(idle.l1_hit_rate(), 0.0);
        assert_eq!(idle.stall_fraction(), 0.0);
        assert_eq!(idle.utilization(), 0.0);

        let c = PerfCounters {
            l1_accesses: 10,
            l1_hits: 9,
            l1_misses: 1,
            l2_accesses: 1,
            l2_hits: 0,
            l2_misses: 1,
            busy_cycles: 60,
            stall_memory_cycles: 30,
            stall_fill_cycles: 6,
            stall_wasted_cycles: 4,
            ..PerfCounters::default()
        };
        assert_eq!(c.l1_hit_rate(), 0.9);
        assert_eq!(c.l2_miss_rate(), 1.0);
        assert_eq!(c.stall_cycles(), 40);
        assert_eq!(c.stall_fraction(), 0.4);
        assert_eq!(c.utilization(), 0.6);
    }

    #[test]
    fn span_attrs_cover_the_headline_rates() {
        let attrs = filled(7).span_attrs();
        let keys: Vec<_> = attrs.iter().map(|(k, _)| *k).collect();
        for want in
            ["perf.l1_hit_rate", "perf.l2_hit_rate", "perf.stall_fraction", "perf.occupancy"]
        {
            assert!(keys.contains(&want), "missing span attr {want}");
        }
    }
}
