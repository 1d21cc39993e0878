//! Software memory-hierarchy tracer for the sharded CPU engine.
//!
//! The GPU and FPGA simulators export `gpusim.perf.*` / `fpgasim.perf.*`
//! counter series because they *model* memory; the real-silicon CPU path
//! has no such model, so its cache behaviour — the entire argument for
//! tree sharding — was invisible. This module closes the gap: a
//! cache-line-granular L1/L2 model (reusing [`rfx_gpu_sim::Cache`], the
//! same set-associative true-LRU structure, with CPU-shaped geometry)
//! driven by the address-exact fetch streams the layouts emit through
//! [`rfx_core::memprobe::FetchSink`]. The result is the identical
//! `kernels.perf.*` schema, so `perf_report` can put cpu-sharded,
//! gpu-sim, and fpga-sim in one counter matrix.
//!
//! ## Model
//!
//! * L1 32 KiB / 64 B lines / 8-way; L2 512 KiB / 64 B / 8-way — the L2
//!   matching the engine's `L2_SHARD_BUDGET_BYTES` half-slice story
//!   (shard bytes plus query block compete for the same 512 KiB).
//! * Layout regions live at disjoint bases of a modeled address space:
//!   attributes at 0, topology at 2^40, query rows at 2^41 (row-major,
//!   4 B features). A fetch probes every 64 B line it covers.
//! * One busy (issue) cycle per line probe; an L1 miss that hits L2
//!   stalls `LAT_L2_CYCLES` (12), an L2 miss stalls `LAT_DRAM_CYCLES` (100)
//!   and counts one 64 B DRAM line-fill transaction.
//!
//! ## Sampling
//!
//! The tracer is a runtime sample, off unless `RFX_MEMTRACE_SAMPLE` is a
//! positive integer N, read once per process ([`sample_every`]): then
//! every Nth (block × shard) tile of a batch is walked through the cache
//! model instead of the lanes (`perf_report` pins 1 for exact counts).
//! Off, a batch builds no accumulator and no per-participant cache
//! model; what is left is one comparison per tile. The count runs over
//! the tile's own index, `block × shards + shard`, not over the tiles
//! one participant happens to run: blocks are claimed one at a time, so
//! which thread sees which block differs between runs and the sample
//! must not. Both caches are **reset at the start of every sampled
//! tile**: each sample measures a tile from cold, so hit rates report
//! *intra-tile* shard residency — the quantity tree sharding optimizes —
//! rather than accidental inter-tile carry-over that depends on sampling
//! phase; and because every sample starts cold, the merged sums do not
//! depend on which participant traced which tile, or in what order.

use rfx_core::memprobe::FetchSink;
use rfx_gpu_sim::{Cache, CacheConfig};
use rfx_telemetry::PerfCounters;
use std::sync::{Mutex, OnceLock};

/// Modeled base address of the layout's attribute arrays.
const ATTRIBUTE_BASE: u64 = 0;
/// Modeled base address of the layout's topology arrays.
const TOPOLOGY_BASE: u64 = 1 << 40;
/// Modeled base address of the query batch (row-major f32 rows).
const QUERY_BASE: u64 = 1 << 41;

/// Cache line size shared by both modeled levels.
const LINE_BYTES: u64 = 64;
/// L1: 32 KiB, 64 B lines, 8-way — a typical per-core L1d.
const L1_GEOMETRY: CacheConfig =
    CacheConfig { capacity_bytes: 32 << 10, line_bytes: LINE_BYTES as u32, ways: 8 };
/// L2: 512 KiB, 64 B lines, 8-way — the per-core slice the engine's
/// shard budget (`L2_SHARD_BUDGET_BYTES`) is sized against.
const L2_GEOMETRY: CacheConfig =
    CacheConfig { capacity_bytes: 512 << 10, line_bytes: LINE_BYTES as u32, ways: 8 };

/// Modeled stall for an L1 miss served by L2.
const LAT_L2_CYCLES: u64 = 12;
/// Modeled stall for an L2 miss served by DRAM.
const LAT_DRAM_CYCLES: u64 = 100;

/// The tile-sampling period: `RFX_MEMTRACE_SAMPLE` when it is a
/// positive integer, `None` (the tracer is off) otherwise. Read on the
/// first call and fixed for the life of the process.
pub fn sample_every() -> Option<u64> {
    static PERIOD: OnceLock<Option<u64>> = OnceLock::new();
    *PERIOD.get_or_init(|| {
        std::env::var("RFX_MEMTRACE_SAMPLE")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0)
    })
}

/// One participant's cache model: owns the L1/L2 pair and accumulates
/// [`PerfCounters`] across the sampled tiles of the blocks it claims.
/// Created per participant (no sharing, no locks on the fetch path) and
/// folded into the batch-wide [`TraceAgg`] once, after its last block.
pub(crate) struct MemTracer {
    /// The sampling period: every `every`th tile of the batch is traced.
    every: u64,
    l1: Cache,
    l2: Cache,
    counters: PerfCounters,
    /// Modeled address of the row currently being classified.
    row_base: u64,
    /// Row stride in the modeled query region.
    row_bytes: u64,
    /// Tiles traced by this participant so far.
    sampled_tiles: u64,
}

impl MemTracer {
    /// A cold tracer for a batch of `num_features`-wide rows that
    /// traces every `every`th tile.
    fn new(num_features: usize, every: u64) -> Self {
        MemTracer {
            every,
            l1: Cache::new(L1_GEOMETRY),
            l2: Cache::new(L2_GEOMETRY),
            counters: PerfCounters::default(),
            row_base: QUERY_BASE,
            row_bytes: (num_features * 4) as u64,
            sampled_tiles: 0,
        }
    }

    /// Whether the batch's tile number `tile` is one of the sample.
    pub(crate) fn samples(&self, tile: u64) -> bool {
        tile.is_multiple_of(self.every)
    }

    /// Starts a sampled tile: both caches go cold so the sample
    /// measures intra-tile residency (see the module docs).
    pub(crate) fn begin_tile(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.sampled_tiles += 1;
    }

    /// Positions query-feature fetches at row `row`'s modeled address.
    pub(crate) fn begin_row(&mut self, row: usize) {
        self.row_base = QUERY_BASE + row as u64 * self.row_bytes;
    }

    /// Ends a sampled tile: folds the caches' hit/miss tallies into the
    /// participant's counters under the latency/transaction model.
    pub(crate) fn end_tile(&mut self) {
        let (l1h, l1m) = (self.l1.hits(), self.l1.misses());
        let (l2h, l2m) = (self.l2.hits(), self.l2.misses());
        let c = &mut self.counters;
        c.l1_accesses += l1h + l1m;
        c.l1_hits += l1h;
        c.l1_misses += l1m;
        c.l2_accesses += l2h + l2m;
        c.l2_hits += l2h;
        c.l2_misses += l2m;
        c.dram_transactions += l2m;
        c.dram_bytes += l2m * LINE_BYTES;
        c.busy_cycles += l1h + l1m;
        c.stall_memory_cycles += l2h * LAT_L2_CYCLES + l2m * LAT_DRAM_CYCLES;
    }

    /// Probes every modeled cache line the `bytes`-wide fetch at `addr`
    /// covers: L1 first, L2 on L1 miss.
    fn touch(&mut self, addr: u64, bytes: u32) {
        let first = addr / LINE_BYTES;
        let last = (addr + u64::from(bytes.max(1)) - 1) / LINE_BYTES;
        for line in first..=last {
            let line_addr = line * LINE_BYTES;
            if !self.l1.access(line_addr) {
                self.l2.access(line_addr);
            }
        }
    }
}

impl FetchSink for MemTracer {
    fn attribute(&mut self, offset: u64, bytes: u32) {
        self.touch(ATTRIBUTE_BASE + offset, bytes);
    }

    fn topology(&mut self, offset: u64, bytes: u32) {
        self.touch(TOPOLOGY_BASE + offset, bytes);
    }

    fn query(&mut self, feature: u32) {
        self.touch(self.row_base + u64::from(feature) * 4, 4);
    }
}

/// Batch-wide trace accumulator shared (behind an `Arc`) across a
/// batch's participants. Each merges its [`MemTracer`] exactly once,
/// after its last block — one lock acquisition per participant, nothing
/// on the per-fetch path.
pub(crate) struct TraceAgg {
    every: u64,
    num_features: usize,
    acc: Mutex<(PerfCounters, u64)>,
}

impl TraceAgg {
    /// A fresh accumulator for a batch of `num_features`-wide rows that
    /// traces every `every`th tile.
    pub(crate) fn new(num_features: usize, every: u64) -> Self {
        TraceAgg { every, num_features, acc: Mutex::new((PerfCounters::default(), 0)) }
    }

    /// A participant-local tracer for this batch's row shape.
    pub(crate) fn tracer(&self) -> MemTracer {
        MemTracer::new(self.num_features, self.every)
    }

    /// Folds one finished participant's tracer into the batch totals.
    pub(crate) fn merge(&self, tracer: &MemTracer) {
        let mut acc = self.acc.lock().unwrap();
        acc.0.merge(&tracer.counters);
        acc.1 += tracer.sampled_tiles;
    }

    /// The batch totals: merged counters plus the number of tiles that
    /// were actually traced.
    pub(crate) fn finish(&self) -> (PerfCounters, u64) {
        let acc = self.acc.lock().unwrap();
        (acc.0, acc.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one tracer's tiles add up to.
    fn totals(tracer: &MemTracer) -> (PerfCounters, u64) {
        let agg = TraceAgg::new(4, 1);
        agg.merge(tracer);
        agg.finish()
    }

    #[test]
    fn repeated_fetches_hit_after_cold_miss() {
        let mut tr = MemTracer::new(4, 1);
        tr.begin_tile();
        tr.attribute(0, 12); // one line, cold
        tr.attribute(4, 8); // same line, hot
        tr.end_tile();
        let (c, tiles) = totals(&tr);
        assert_eq!(tiles, 1);
        assert_eq!(c.l1_accesses, 2);
        assert_eq!(c.l1_misses, 1);
        assert_eq!(c.l1_hits, 1);
        // The lone L1 miss went to L2 (cold) and on to DRAM.
        assert_eq!(c.l2_accesses, 1);
        assert_eq!(c.l2_misses, 1);
        assert_eq!(c.dram_transactions, 1);
        assert_eq!(c.dram_bytes, LINE_BYTES);
        assert_eq!(c.busy_cycles, 2);
        assert_eq!(c.stall_memory_cycles, LAT_DRAM_CYCLES);
    }

    #[test]
    fn straddling_fetch_probes_both_lines() {
        let mut tr = MemTracer::new(4, 1);
        tr.begin_tile();
        tr.attribute(60, 12); // covers lines 0 and 1
        tr.end_tile();
        let (c, _) = totals(&tr);
        assert_eq!(c.l1_accesses, 2);
        assert_eq!(c.l1_misses, 2);
    }

    #[test]
    fn regions_do_not_alias() {
        // Same region-local offset in all three regions: three distinct
        // modeled lines, three cold misses.
        let mut tr = MemTracer::new(4, 1);
        tr.begin_row(0);
        tr.begin_tile();
        tr.attribute(0, 4);
        tr.topology(0, 4);
        tr.query(0);
        tr.end_tile();
        let (c, _) = totals(&tr);
        assert_eq!(c.l1_misses, 3);
        assert_eq!(c.l1_hits, 0);
    }

    #[test]
    fn tile_reset_makes_samples_independent() {
        let mut tr = MemTracer::new(4, 1);
        tr.begin_tile();
        tr.attribute(0, 4);
        tr.end_tile();
        tr.begin_tile();
        tr.attribute(0, 4); // would hit without the per-tile reset
        tr.end_tile();
        let (c, tiles) = totals(&tr);
        assert_eq!(tiles, 2);
        assert_eq!(c.l1_misses, 2, "each sampled tile starts cold");
        assert_eq!(c.l1_hits, 0);
    }
}
