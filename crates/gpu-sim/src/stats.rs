//! Kernel-launch statistics — the simulator's "hardware counters".

use serde::{Deserialize, Serialize};

/// Counters and timing of one kernel launch. Counter names follow the
/// `nvprof` metrics the paper reports in Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct GpuStats {
    /// 128-byte global **load** transactions issued (after coalescing).
    pub global_load_transactions: u64,
    /// 128-byte global **store** transactions issued.
    pub global_store_transactions: u64,
    /// Transactions served by L1.
    pub l1_hits: u64,
    /// Transactions missing L1.
    pub l1_misses: u64,
    /// L1 misses served by the L2 slice.
    pub l2_hits: u64,
    /// Transactions going to DRAM.
    pub l2_misses: u64,
    /// Shared-memory accesses (warp-level instructions).
    pub shared_accesses: u64,
    /// Warp-level branch instructions executed.
    pub branch_total: u64,
    /// Branches whose active lanes all agreed.
    pub branch_uniform: u64,
    /// Warp-level ALU instruction issues.
    pub alu_ops: u64,
    /// Total warps launched.
    pub warps_launched: u64,
    /// Blocks launched.
    pub blocks_launched: u64,
    /// Cycles SMs spent usefully issuing warp instructions (Σ per-warp
    /// issue slots).
    pub issue_cycles: u64,
    /// SM cycles not covered by issue — stalled on dependent-load
    /// latency the resident warps could not hide (Σ over SMs).
    pub mem_stall_cycles: u64,
    /// Modeled kernel duration in core-clock cycles.
    pub device_cycles: u64,
    /// Modeled kernel duration in seconds (`device_cycles / clock`), after
    /// applying the DRAM-bandwidth roofline.
    pub device_seconds: f64,
    /// Which of the three bounds set the kernel time.
    pub bound: TimeBound,
}

/// Which roofline term determined the kernel duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TimeBound {
    /// Warp-issue (compute) throughput.
    #[default]
    Issue,
    /// Dependent-load latency, after occupancy overlap.
    Latency,
    /// DRAM bandwidth.
    DramBandwidth,
}

impl GpuStats {
    /// Branch efficiency: uniform branches ÷ all branches (1.0 when no
    /// branches executed), as plotted in Fig. 8.
    pub fn branch_efficiency(&self) -> f64 {
        if self.branch_total == 0 {
            1.0
        } else {
            self.branch_uniform as f64 / self.branch_total as f64
        }
    }

    /// Bytes moved from DRAM.
    pub fn dram_bytes(&self) -> u64 {
        self.l2_misses * 128
    }

    /// L1 hit rate over global transactions (1.0 when no accesses).
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            1.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// Merges counters of another launch segment into this one (used by
    /// the per-SM parallel simulation; timing fields are combined by the
    /// engine, not here).
    ///
    /// The exhaustive destructuring forces every future field through
    /// this function: a new counter that is not added here (or a new
    /// timing field not explicitly listed as engine-combined) is a
    /// compile error, not silent data loss in multi-CTA runs.
    pub fn merge_counters(&mut self, other: &GpuStats) {
        let GpuStats {
            global_load_transactions,
            global_store_transactions,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            shared_accesses,
            branch_total,
            branch_uniform,
            alu_ops,
            warps_launched,
            blocks_launched,
            issue_cycles,
            mem_stall_cycles,
            // Timing is combined by the engine (slowest SM + roofline),
            // not summed here.
            device_cycles: _,
            device_seconds: _,
            bound: _,
        } = *other;
        self.global_load_transactions += global_load_transactions;
        self.global_store_transactions += global_store_transactions;
        self.l1_hits += l1_hits;
        self.l1_misses += l1_misses;
        self.l2_hits += l2_hits;
        self.l2_misses += l2_misses;
        self.shared_accesses += shared_accesses;
        self.branch_total += branch_total;
        self.branch_uniform += branch_uniform;
        self.alu_ops += alu_ops;
        self.warps_launched += warps_launched;
        self.blocks_launched += blocks_launched;
        self.issue_cycles += issue_cycles;
        self.mem_stall_cycles += mem_stall_cycles;
    }

    /// This launch's counters in the unified cross-path perf schema
    /// (DESIGN.md §17). `occupancy` is the resident-warp fraction the
    /// engine computed for the launch; `dram_stall_cycles` is the extra
    /// device time the DRAM-bandwidth roofline added beyond the compute
    /// time, in core-clock cycles. Busy/stall cycles are summed over
    /// SMs (like CPU cycles over cores), so they exceed `device_cycles`
    /// on multi-SM launches.
    pub fn perf_counters(
        &self,
        occupancy: f64,
        dram_stall_cycles: u64,
    ) -> rfx_telemetry::PerfCounters {
        rfx_telemetry::PerfCounters {
            l1_accesses: self.l1_hits + self.l1_misses,
            l1_hits: self.l1_hits,
            l1_misses: self.l1_misses,
            l2_accesses: self.l2_hits + self.l2_misses,
            l2_hits: self.l2_hits,
            l2_misses: self.l2_misses,
            dram_transactions: self.l2_misses,
            dram_bytes: self.dram_bytes(),
            busy_cycles: self.issue_cycles,
            stall_memory_cycles: self.mem_stall_cycles + dram_stall_cycles,
            // The issue model has no separate pipeline-fill phase, and
            // divergent-branch re-execution is already charged to issue.
            stall_fill_cycles: 0,
            stall_wasted_cycles: 0,
            occupancy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_efficiency_edge_cases() {
        let mut s = GpuStats::default();
        assert_eq!(s.branch_efficiency(), 1.0);
        s.branch_total = 10;
        s.branch_uniform = 7;
        assert!((s.branch_efficiency() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = GpuStats { l1_hits: 3, branch_total: 2, ..Default::default() };
        let b = GpuStats { l1_hits: 4, branch_total: 5, l2_misses: 1, ..Default::default() };
        a.merge_counters(&b);
        assert_eq!(a.l1_hits, 7);
        assert_eq!(a.branch_total, 7);
        assert_eq!(a.dram_bytes(), 128);
    }

    #[test]
    fn hit_rate() {
        let s = GpuStats { l1_hits: 3, l1_misses: 1, ..Default::default() };
        assert!((s.l1_hit_rate() - 0.75).abs() < 1e-12);
    }

    /// Every counter field must survive a merge; the destructuring (no
    /// `..`) makes this test — like `merge_counters` itself — fail to
    /// compile when a field is added, so it cannot silently go stale.
    #[test]
    fn merge_counters_is_exhaustive_over_counter_fields() {
        let mut acc = GpuStats::default();
        let seg = GpuStats {
            global_load_transactions: 1,
            global_store_transactions: 2,
            l1_hits: 3,
            l1_misses: 4,
            l2_hits: 5,
            l2_misses: 6,
            shared_accesses: 7,
            branch_total: 8,
            branch_uniform: 9,
            alu_ops: 10,
            warps_launched: 11,
            blocks_launched: 12,
            issue_cycles: 13,
            mem_stall_cycles: 14,
            device_cycles: 1000,
            device_seconds: 1.0,
            bound: TimeBound::Latency,
        };
        acc.merge_counters(&seg);
        acc.merge_counters(&seg);
        let GpuStats {
            global_load_transactions,
            global_store_transactions,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            shared_accesses,
            branch_total,
            branch_uniform,
            alu_ops,
            warps_launched,
            blocks_launched,
            issue_cycles,
            mem_stall_cycles,
            device_cycles,
            device_seconds,
            bound,
        } = acc;
        for (i, (got, per_seg)) in [
            (global_load_transactions, 1),
            (global_store_transactions, 2),
            (l1_hits, 3),
            (l1_misses, 4),
            (l2_hits, 5),
            (l2_misses, 6),
            (shared_accesses, 7),
            (branch_total, 8),
            (branch_uniform, 9),
            (alu_ops, 10),
            (warps_launched, 11),
            (blocks_launched, 12),
            (issue_cycles, 13),
            (mem_stall_cycles, 14),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(got, 2 * per_seg, "counter field index {i} dropped by merge");
        }
        // Timing fields are the engine's to combine: merge leaves them.
        assert_eq!(device_cycles, 0);
        assert_eq!(device_seconds, 0.0);
        assert_eq!(bound, TimeBound::Issue);
    }
}
