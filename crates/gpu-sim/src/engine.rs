//! The launch engine: blocks, warps, timing model.
//!
//! A kernel is written **warp-synchronously**: [`BlockKernel::run`]
//! receives a [`BlockCtx`] and drives per-warp operations (global reads,
//! shared accesses, ALU work, branches, barriers). The context keeps one
//! latency clock and one issue counter per warp:
//!
//! * the **latency clock** accumulates full load-to-use latencies — tree
//!   traversal is a dependent-load chain, so a warp really does wait out
//!   every level's memory access;
//! * the **issue counter** counts instruction/transaction slots, which
//!   bound throughput when many warps are resident.
//!
//! At the end of a launch each SM's time is
//! `max(Σ issue, Σ block-critical latency / resident blocks, max latency)`
//! over the blocks it ran, i.e. latency is hidden by multithreading up to
//! the occupancy limit — the same first-order model GPU vendors teach for
//! latency-bound kernels. The device time is the slowest SM, floored by
//! the DRAM-bandwidth roofline.

use crate::cache::Cache;
use crate::config::GpuConfig;
use crate::stats::{GpuStats, TimeBound};
use rayon::prelude::*;

/// Kernel launch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Number of thread blocks.
    pub num_blocks: usize,
    /// Threads per block (rounded up to whole warps internally).
    pub threads_per_block: usize,
}

/// One lane's contribution to a warp memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAccess {
    /// Device address.
    pub addr: u64,
    /// Access width in bytes; 0 marks an inactive lane.
    pub bytes: u32,
}

impl LaneAccess {
    /// An inactive lane.
    pub const NONE: LaneAccess = LaneAccess { addr: 0, bytes: 0 };

    /// An active read/write of `bytes` at `addr`.
    #[inline]
    pub fn read(addr: u64, bytes: u32) -> Self {
        Self { addr, bytes }
    }

    /// Whether the lane participates.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.bytes > 0
    }
}

/// Errors a launch can fail with before any block runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The kernel's static shared-memory request exceeds the per-SM budget.
    SharedMemExceeded {
        /// Bytes the kernel asked for.
        requested: usize,
        /// Bytes one SM offers.
        available: usize,
    },
    /// Grid with zero blocks or zero threads.
    EmptyGrid,
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::SharedMemExceeded { requested, available } => {
                write!(f, "kernel requests {requested} B of shared memory, SM offers {available} B")
            }
            LaunchError::EmptyGrid => write!(f, "empty grid"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// A device kernel. Implementations compute their functional results
/// directly against host data and report costs through the [`BlockCtx`].
pub trait BlockKernel: Sync {
    /// Static shared-memory allocation per block, bytes (determines
    /// occupancy, validated against the SM budget).
    fn shared_mem_bytes(&self) -> usize;

    /// Executes one block.
    fn run(&self, ctx: &mut BlockCtx);
}

/// Per-block execution context handed to kernels.
pub struct BlockCtx<'a> {
    cfg: &'a GpuConfig,
    block_id: usize,
    threads_per_block: usize,
    num_warps: usize,
    l1: &'a mut Cache,
    l2: &'a mut Cache,
    stats: GpuStats,
    warp_latency: Vec<u64>,
    warp_issue: Vec<u64>,
    segs: Vec<u64>,
}

impl<'a> BlockCtx<'a> {
    /// Index of this block within the grid.
    #[inline]
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Threads in this block.
    #[inline]
    pub fn threads_per_block(&self) -> usize {
        self.threads_per_block
    }

    /// Warps in this block.
    #[inline]
    pub fn num_warps(&self) -> usize {
        self.num_warps
    }

    /// Global thread id of `(warp, lane)` in this block.
    #[inline]
    pub fn thread_id(&self, warp: usize, lane: usize) -> usize {
        self.block_id * self.threads_per_block + warp * self.cfg.warp_size as usize + lane
    }

    /// Whether `(warp, lane)` is within the block's thread count (the last
    /// warp may be partial).
    #[inline]
    pub fn lane_in_bounds(&self, warp: usize, lane: usize) -> bool {
        warp * self.cfg.warp_size as usize + lane < self.threads_per_block
    }

    /// Issues one warp global-**load** instruction with the given per-lane
    /// accesses. Lanes with `bytes == 0` are inactive. Returns the number
    /// of 128-byte transactions the instruction coalesced into.
    pub fn global_read(&mut self, warp: usize, lanes: &[LaneAccess; 32]) -> u32 {
        self.global_access(warp, lanes, false)
    }

    /// Issues one warp global-**store** instruction. Stores are modeled
    /// fire-and-forget (no dependent latency) but consume issue slots,
    /// transactions, and DRAM bandwidth.
    pub fn global_write(&mut self, warp: usize, lanes: &[LaneAccess; 32]) -> u32 {
        self.global_access(warp, lanes, true)
    }

    /// Issues one warp global-load whose result is **not** on a dependent
    /// chain (cooperative staging, prefetch): the loads pipeline behind
    /// each other, so the warp pays issue cost but not load-to-use
    /// latency. Counters are identical to [`BlockCtx::global_read`].
    pub fn global_read_bulk(&mut self, warp: usize, lanes: &[LaneAccess; 32]) -> u32 {
        let before = self.warp_latency[warp];
        let issue_before = self.warp_issue[warp];
        let n = self.global_access(warp, lanes, false);
        // Replace the dependent-latency charge with the issue cost alone.
        self.warp_latency[warp] = before + (self.warp_issue[warp] - issue_before);
        n
    }

    fn global_access(&mut self, warp: usize, lanes: &[LaneAccess; 32], store: bool) -> u32 {
        crate::coalesce::segments(
            lanes.iter().filter(|l| l.is_active()).map(|l| (l.addr, l.bytes)),
            &mut self.segs,
        );
        let n = self.segs.len() as u32;
        if n == 0 {
            return 0;
        }
        let mut worst = 0u64;
        let mut issue = 0u64;
        for i in 0..self.segs.len() {
            let seg = self.segs[i];
            let lat = if self.l1.access(seg) {
                self.stats.l1_hits += 1;
                issue += self.cfg.hit_issue_cycles as u64;
                self.cfg.lat_l1
            } else {
                self.stats.l1_misses += 1;
                issue += self.cfg.tx_issue_cycles as u64;
                if self.l2.access(seg) {
                    self.stats.l2_hits += 1;
                    self.cfg.lat_l2
                } else {
                    self.stats.l2_misses += 1;
                    self.cfg.lat_dram
                }
            };
            worst = worst.max(lat as u64);
        }
        if store {
            self.stats.global_store_transactions += n as u64;
        } else {
            self.stats.global_load_transactions += n as u64;
        }
        self.warp_issue[warp] += issue.max(1);
        if store {
            self.warp_latency[warp] += issue.max(1);
        } else {
            // Dependent-chain latency: the slowest segment plus the issue
            // serialization of the remaining replays.
            self.warp_latency[warp] += worst
                + issue
                    .saturating_sub(self.cfg.tx_issue_cycles as u64)
                    .min((n as u64 - 1) * self.cfg.tx_issue_cycles as u64);
        }
        n
    }

    /// Issues one warp shared-memory access (load or store; bank conflicts
    /// are not modeled).
    pub fn shared_access(&mut self, warp: usize) {
        self.stats.shared_accesses += 1;
        self.warp_issue[warp] += 1;
        self.warp_latency[warp] += self.cfg.lat_shared as u64;
    }

    /// Issues `n` dependent ALU operations on a warp.
    pub fn alu(&mut self, warp: usize, n: u32) {
        self.stats.alu_ops += n as u64;
        self.warp_issue[warp] += n as u64;
        self.warp_latency[warp] += n as u64 * self.cfg.lat_alu as u64;
    }

    /// Records one warp branch. `active_mask` marks live lanes,
    /// `taken_mask` the lanes taking the branch; the branch is *uniform*
    /// when the live lanes all agree. Divergent sides must additionally be
    /// driven by the kernel with their respective masks (which is how
    /// serialization costs appear).
    pub fn branch(&mut self, warp: usize, active_mask: u32, taken_mask: u32) {
        self.stats.branch_total += 1;
        let taken = taken_mask & active_mask;
        if taken == 0 || taken == active_mask {
            self.stats.branch_uniform += 1;
        }
        self.warp_issue[warp] += 1;
        self.warp_latency[warp] += 1;
    }

    /// Block-wide barrier (`__syncthreads`): aligns every warp's latency
    /// clock to the slowest warp.
    pub fn barrier(&mut self) {
        let max = self.warp_latency.iter().copied().max().unwrap_or(0);
        for t in &mut self.warp_latency {
            *t = max;
        }
    }
}

/// The simulator.
#[derive(Debug, Clone)]
pub struct GpuSim {
    config: GpuConfig,
}

impl GpuSim {
    /// A simulator for the given device model.
    pub fn new(config: GpuConfig) -> Self {
        Self { config }
    }

    /// The device model.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Launches `kernel` over `grid`; panics on launch misconfiguration.
    /// Prefer [`GpuSim::try_launch`] in library code.
    pub fn launch<K: BlockKernel>(&self, grid: Grid, kernel: &K) -> GpuStats {
        self.try_launch(grid, kernel).expect("kernel launch failed")
    }

    /// Launches `kernel` over `grid`.
    pub fn try_launch<K: BlockKernel>(
        &self,
        grid: Grid,
        kernel: &K,
    ) -> Result<GpuStats, LaunchError> {
        let cfg = &self.config;
        if grid.num_blocks == 0 || grid.threads_per_block == 0 {
            return Err(LaunchError::EmptyGrid);
        }
        let shared = kernel.shared_mem_bytes();
        if shared > cfg.shared_mem_per_sm as usize {
            return Err(LaunchError::SharedMemExceeded {
                requested: shared,
                available: cfg.shared_mem_per_sm as usize,
            });
        }
        // Measures host-side simulation wall time of the whole launch;
        // the modeled device time lands in the counters below. Recorded
        // into the ambient domain so a serving batch's traverse span owns
        // the device phase instead of it becoming an orphan root.
        let launch_tel = rfx_telemetry::current();
        let mut launch_span =
            rfx_telemetry::span!(launch_tel, "gpusim.launch", blocks = grid.num_blocks);
        let warps_per_block = grid.threads_per_block.div_ceil(cfg.warp_size as usize);
        // Occupancy: blocks resident on one SM at a time.
        let by_shared = (cfg.shared_mem_per_sm as usize)
            .checked_div(shared)
            .map_or(cfg.max_blocks_per_sm as usize, |b| b.max(1));
        let by_warps = (cfg.max_warps_per_sm as usize / warps_per_block).max(1);
        let resident_blocks = by_shared.min(by_warps).min(cfg.max_blocks_per_sm as usize);

        // Blocks round-robin over SMs; each SM simulated sequentially so
        // its caches carry state across its blocks, SMs in parallel.
        let num_sms = cfg.num_sms as usize;
        let per_sm: Vec<(GpuStats, u64)> = (0..num_sms.min(grid.num_blocks))
            .into_par_iter()
            .map(|sm| {
                let mut l1 = Cache::new(cfg.l1);
                let mut l2 = Cache::new(cfg.l2_slice);
                let mut stats = GpuStats::default();
                let mut issue_sum = 0u64;
                let mut latency_sum = 0u64;
                let mut latency_max = 0u64;
                let mut blocks_on_sm = 0usize;
                let mut b = sm;
                while b < grid.num_blocks {
                    // Fresh L1 per block: on real hardware the resident
                    // blocks share one small L1 concurrently, so a block
                    // cannot count on lines surviving from its
                    // predecessors. The L2 slice persists across blocks.
                    l1.reset();
                    let mut ctx = BlockCtx {
                        cfg,
                        block_id: b,
                        threads_per_block: grid.threads_per_block,
                        num_warps: warps_per_block,
                        l1: &mut l1,
                        l2: &mut l2,
                        stats: GpuStats::default(),
                        warp_latency: vec![0; warps_per_block],
                        warp_issue: vec![0; warps_per_block],
                        segs: Vec::new(),
                    };
                    kernel.run(&mut ctx);
                    ctx.stats.blocks_launched = 1;
                    ctx.stats.warps_launched = warps_per_block as u64;
                    stats.merge_counters(&ctx.stats);
                    issue_sum += ctx.warp_issue.iter().sum::<u64>();
                    // A block's critical path is its slowest warp: barriers
                    // have already folded any intra-block serialization into
                    // the warp clocks, and barrier-free warps of one block
                    // overlap each other fully. Inter-block overlap is
                    // bounded by how many blocks are resident at once.
                    let block_critical = ctx.warp_latency.iter().copied().max().unwrap_or(0);
                    latency_sum += block_critical;
                    latency_max = latency_max.max(block_critical);
                    blocks_on_sm += 1;
                    b += num_sms;
                }
                let overlap = resident_blocks.min(blocks_on_sm).max(1) as u64;
                let sm_cycles = issue_sum.max(latency_sum / overlap).max(latency_max);
                // Unified perf-schema cycle split: issue slots are useful
                // work; whatever the SM clock covers beyond them is
                // memory latency the resident warps could not hide.
                stats.issue_cycles = issue_sum;
                stats.mem_stall_cycles = sm_cycles.saturating_sub(issue_sum);
                (stats, sm_cycles)
            })
            .collect();

        let mut total = GpuStats::default();
        let mut device_cycles = 0u64;
        for (s, c) in &per_sm {
            total.merge_counters(s);
            device_cycles = device_cycles.max(*c);
        }
        let compute_seconds = device_cycles as f64 / (cfg.clock_ghz * 1e9);
        let dram_seconds = total.dram_bytes() as f64 / (cfg.dram_bw_gbps * 1e9);
        // Classify the binding constraint before flooring by bandwidth.
        let latency_bound_hit = {
            // Recompute which max() won on the slowest SM is overkill;
            // report DRAM when it dominates, else latency vs issue by
            // comparing aggregate sums.
            dram_seconds > compute_seconds
        };
        total.device_cycles = device_cycles;
        total.device_seconds = compute_seconds.max(dram_seconds);
        total.bound = if latency_bound_hit { TimeBound::DramBandwidth } else { TimeBound::Latency };
        // Resident-warp fraction of the SM's warp slots — the occupancy
        // number `nvcc --ptxas-options=-v` style tuning reasons about.
        let occupancy =
            ((resident_blocks * warps_per_block) as f64 / cfg.max_warps_per_sm as f64).min(1.0);
        // Extra wall time the DRAM roofline added beyond compute, charged
        // as memory stall at the core clock.
        let dram_stall_cycles =
            ((total.device_seconds - compute_seconds).max(0.0) * cfg.clock_ghz * 1e9) as u64;
        let perf = total.perf_counters(occupancy, dram_stall_cycles);
        for (key, value) in perf.span_attrs() {
            launch_span.set_attr(key, value);
        }
        emit_launch_telemetry(&total, &perf);
        Ok(total)
    }
}

/// Records one launch's hardware counters into the ambient telemetry
/// domain — the process-global domain unless the caller installed a
/// scoped one. Memory-hierarchy and stall counters go through the
/// unified `gpusim.perf.*` schema ([`rfx_telemetry::perf`], shared with
/// fpga-sim and the CPU engine's memory tracer); counters with no
/// cross-path meaning (branch divergence, shared-memory traffic, launch
/// geometry — the remaining `nvprof` metrics of the paper's Fig. 8)
/// stay in the `gpusim.*` namespace.
fn emit_launch_telemetry(stats: &GpuStats, perf: &rfx_telemetry::PerfCounters) {
    let tel = rfx_telemetry::current();
    perf.export(&tel, "gpusim");
    tel.counter("gpusim.launches").inc();
    tel.counter("gpusim.global.load_transactions").add(stats.global_load_transactions);
    tel.counter("gpusim.global.store_transactions").add(stats.global_store_transactions);
    tel.counter("gpusim.shared.accesses").add(stats.shared_accesses);
    tel.counter("gpusim.branch.total").add(stats.branch_total);
    tel.counter("gpusim.branch.uniform").add(stats.branch_uniform);
    tel.counter("gpusim.warps.launched").add(stats.warps_launched);
    tel.counter("gpusim.device.cycles").add(stats.device_cycles);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddressSpace;

    /// Each thread reads one consecutive f32.
    struct StreamKernel {
        data: crate::addr::DeviceBuffer,
    }

    impl BlockKernel for StreamKernel {
        fn shared_mem_bytes(&self) -> usize {
            0
        }
        fn run(&self, ctx: &mut BlockCtx) {
            for w in 0..ctx.num_warps() {
                let mut lanes = [LaneAccess::NONE; 32];
                for (l, lane) in lanes.iter_mut().enumerate() {
                    let tid = ctx.thread_id(w, l) as u64;
                    if tid < self.data.len() {
                        *lane = LaneAccess::read(self.data.addr(tid), 4);
                    }
                }
                ctx.global_read(w, &lanes);
            }
        }
    }

    /// Each thread reads one f32 strided by a full line.
    struct ScatterKernel {
        data: crate::addr::DeviceBuffer,
    }

    impl BlockKernel for ScatterKernel {
        fn shared_mem_bytes(&self) -> usize {
            0
        }
        fn run(&self, ctx: &mut BlockCtx) {
            for w in 0..ctx.num_warps() {
                let mut lanes = [LaneAccess::NONE; 32];
                for (l, lane) in lanes.iter_mut().enumerate() {
                    let tid = ctx.thread_id(w, l) as u64;
                    *lane = LaneAccess::read(self.data.addr(tid * 32), 4);
                }
                ctx.global_read(w, &lanes);
            }
        }
    }

    fn sim() -> GpuSim {
        GpuSim::new(GpuConfig::tiny_test())
    }

    #[test]
    fn coalesced_stream_counts_one_tx_per_warp() {
        let mut mem = AddressSpace::new();
        let data = mem.alloc("d", 4, 1024);
        let stats =
            sim().launch(Grid { num_blocks: 4, threads_per_block: 256 }, &StreamKernel { data });
        // 4 blocks * 8 warps = 32 warps, 1 tx each.
        assert_eq!(stats.global_load_transactions, 32);
        assert_eq!(stats.warps_launched, 32);
        assert_eq!(stats.blocks_launched, 4);
    }

    #[test]
    fn scattered_reads_cost_32x_transactions() {
        let mut mem = AddressSpace::new();
        let data = mem.alloc("d", 4, 64 * 1024);
        let grid = Grid { num_blocks: 2, threads_per_block: 64 };
        let st = sim().launch(grid, &ScatterKernel { data });
        // 2 blocks * 2 warps * 32 tx.
        assert_eq!(st.global_load_transactions, 128);
        let coalesced = sim().launch(grid, &StreamKernel { data });
        assert!(st.device_seconds > coalesced.device_seconds, "scatter must be slower");
    }

    #[test]
    fn repeated_access_hits_l1_and_is_faster() {
        struct Repeat {
            data: crate::addr::DeviceBuffer,
        }
        impl BlockKernel for Repeat {
            fn shared_mem_bytes(&self) -> usize {
                0
            }
            fn run(&self, ctx: &mut BlockCtx) {
                for _ in 0..10 {
                    let lanes = [LaneAccess::read(self.data.addr(0), 4); 32];
                    ctx.global_read(0, &lanes);
                }
            }
        }
        let mut mem = AddressSpace::new();
        let data = mem.alloc("d", 4, 32);
        let st = sim().launch(Grid { num_blocks: 1, threads_per_block: 32 }, &Repeat { data });
        assert_eq!(st.global_load_transactions, 10);
        assert_eq!(st.l1_misses, 1);
        assert_eq!(st.l1_hits, 9);
    }

    #[test]
    fn branch_divergence_is_counted() {
        struct Divergent;
        impl BlockKernel for Divergent {
            fn shared_mem_bytes(&self) -> usize {
                0
            }
            fn run(&self, ctx: &mut BlockCtx) {
                ctx.branch(0, u32::MAX, 0x0000_FFFF); // divergent
                ctx.branch(0, u32::MAX, u32::MAX); // uniform taken
                ctx.branch(0, u32::MAX, 0); // uniform not-taken
                ctx.branch(0, 0x3, 0x1); // divergent among 2 live lanes
            }
        }
        let st = sim().launch(Grid { num_blocks: 1, threads_per_block: 32 }, &Divergent);
        assert_eq!(st.branch_total, 4);
        assert_eq!(st.branch_uniform, 2);
        assert!((st.branch_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_memory_over_budget_is_rejected() {
        struct Hog;
        impl BlockKernel for Hog {
            fn shared_mem_bytes(&self) -> usize {
                1 << 20
            }
            fn run(&self, _: &mut BlockCtx) {}
        }
        let err =
            sim().try_launch(Grid { num_blocks: 1, threads_per_block: 32 }, &Hog).unwrap_err();
        assert!(matches!(err, LaunchError::SharedMemExceeded { .. }));
    }

    #[test]
    fn empty_grid_is_rejected() {
        struct Nop;
        impl BlockKernel for Nop {
            fn shared_mem_bytes(&self) -> usize {
                0
            }
            fn run(&self, _: &mut BlockCtx) {}
        }
        assert_eq!(
            sim().try_launch(Grid { num_blocks: 0, threads_per_block: 32 }, &Nop).unwrap_err(),
            LaunchError::EmptyGrid
        );
        assert_eq!(
            sim().try_launch(Grid { num_blocks: 1, threads_per_block: 0 }, &Nop).unwrap_err(),
            LaunchError::EmptyGrid
        );
    }

    #[test]
    fn shared_access_and_alu_accumulate() {
        struct Mixed;
        impl BlockKernel for Mixed {
            fn shared_mem_bytes(&self) -> usize {
                128
            }
            fn run(&self, ctx: &mut BlockCtx) {
                ctx.shared_access(0);
                ctx.shared_access(0);
                ctx.alu(0, 5);
                ctx.barrier();
            }
        }
        let st = sim().launch(Grid { num_blocks: 1, threads_per_block: 64 }, &Mixed);
        assert_eq!(st.shared_accesses, 2);
        assert_eq!(st.alu_ops, 5);
        assert!(st.device_cycles > 0);
    }

    #[test]
    fn occupancy_hides_latency() {
        // Many resident warps should yield shorter time than the naive sum
        // of all warp latencies.
        let mut mem = AddressSpace::new();
        let data = mem.alloc("d", 4, 1 << 20);
        let st =
            sim().launch(Grid { num_blocks: 16, threads_per_block: 256 }, &ScatterKernel { data });
        // Naive serial latency: every tx at least l1-hit latency.
        let serial_floor = st.global_load_transactions * 10;
        assert!(
            st.device_cycles < serial_floor,
            "{} cycles should be well under the serial floor {serial_floor}",
            st.device_cycles
        );
    }

    #[test]
    fn more_blocks_take_longer() {
        let mut mem = AddressSpace::new();
        let data = mem.alloc("d", 4, 1 << 22);
        let small =
            sim().launch(Grid { num_blocks: 8, threads_per_block: 128 }, &ScatterKernel { data });
        let large =
            sim().launch(Grid { num_blocks: 64, threads_per_block: 128 }, &ScatterKernel { data });
        assert!(large.device_seconds > small.device_seconds);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut mem = AddressSpace::new();
        let data = mem.alloc("d", 4, 1 << 20);
        let grid = Grid { num_blocks: 12, threads_per_block: 128 };
        let a = sim().launch(grid, &ScatterKernel { data });
        let b = sim().launch(grid, &ScatterKernel { data });
        assert_eq!(a, b);
    }
}
