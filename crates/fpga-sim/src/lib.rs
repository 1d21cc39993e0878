//! # rfx-fpga-sim
//!
//! An HLS-style **FPGA pipeline simulator** standing in for the Xilinx
//! Alveo U250 + Vitis HLS toolchain the paper uses. The paper reasons
//! about its FPGA kernels through three quantities — the initiation
//! interval (II) of the inner loop, the achieved frequency, and the
//! external-memory stall fraction (Table 3) — and this crate computes all
//! three from first principles:
//!
//! * **II derivation** ([`ops`]): a kernel describes its inner loop's
//!   loop-carried dependency chain as a list of operations; the II is the
//!   summed latency of that chain. With the Alveo preset this reproduces
//!   the paper's measured IIs exactly: CSR = 292 (four dependent external
//!   reads), independent = 76 (one external read + BRAM query features),
//!   collaborative = 3 (all on-chip).
//! * **Pipeline timing** ([`pipeline`]): a pipelined loop of `n`
//!   iterations at initiation interval `ii` costs `fill + n·ii` cycles;
//!   kernels additionally mark wasted iterations (queries pushed through
//!   subtrees they don't traverse — the collaborative variant's
//!   starvation) so the stall fraction is measured, not asserted.
//! * **Replication** ([`replicate`]): compute units split the query set;
//!   CUs on one SLR contend for that SLR's DDR channel, modeled as extra
//!   dependent-access latency per additional CU and as burst-bandwidth
//!   sharing; complex multi-kernel designs may derate the clock (the
//!   paper's hybrid-split runs at 245 MHz instead of 300 MHz).
//! * **Capacity** ([`budget`]): BRAM/URAM allocations are checked against
//!   the per-SLR 13.5 MB budget — the constraint that motivates the whole
//!   hierarchical layout (§2.3: a depth-30 tree needs 4.2 GB).

#![forbid(unsafe_code)]

pub mod budget;
pub mod device;
pub mod ops;
pub mod pipeline;
pub mod replicate;

pub use budget::OnChipBudget;
pub use device::FpgaConfig;
pub use ops::{chain_ii, Op};
pub use pipeline::{CuExecution, CuPipeline};
pub use replicate::{combine_cus, FpgaStats, Replication};
