//! # rfx-gpu-sim
//!
//! A warp-level **SIMT GPU simulator** standing in for the Titan Xp the
//! paper measures on. It is a functional-plus-timing interpreter: kernels
//! (in `rfx-kernels`) compute their real results against host memory while
//! driving this crate's cost model with the *addresses* they touch, and the
//! simulator produces device time plus the hardware counters the paper
//! reports (global load transactions, branch efficiency — Fig. 8).
//!
//! ## What is modeled
//!
//! * **Coalescing** — a warp's lane addresses are grouped into 128-byte
//!   transactions ([`coalesce`]), the paper's §2.3 bottleneck mechanism.
//! * **Memory hierarchy** — per-SM L1 and a per-SM L2 slice
//!   (set-associative, LRU, 128 B lines, [`cache`]), DRAM latency, and a
//!   device-wide DRAM bandwidth roofline.
//! * **Shared memory** — per-block allocation checked against the 48 KB/SM
//!   budget; occupancy (resident blocks per SM) derives from it, exactly
//!   the constraint that caps the paper's root-subtree depth.
//! * **Divergence** — warps record uniform vs divergent branches
//!   (`branch efficiency`), and divergent code costs both sides' issue
//!   slots because kernels drive each side with its active mask.
//! * **Latency vs throughput** — tree traversal is a dependent-load chain,
//!   so each warp accumulates full load-to-use latencies; concurrent
//!   resident warps overlap those latencies up to the occupancy limit, and
//!   kernel time is the max of the compute-issue, overlapped-latency, and
//!   DRAM-bandwidth bounds.
//!
//! ## What is *not* modeled
//!
//! Instruction fetch, shared-memory bank conflicts, TLBs, and ECC. These
//! affect all code variants roughly equally and do not change the paper's
//! comparisons.
//!
//! ```
//! use rfx_gpu_sim::{AddressSpace, BlockKernel, BlockCtx, GpuConfig, GpuSim, Grid, LaneAccess};
//!
//! // A kernel in which each thread streams one f32 from global memory.
//! struct Copy { data: rfx_gpu_sim::DeviceBuffer }
//! impl BlockKernel for Copy {
//!     fn shared_mem_bytes(&self) -> usize { 0 }
//!     fn run(&self, ctx: &mut BlockCtx) {
//!         for w in 0..ctx.num_warps() {
//!             let mut lanes = [LaneAccess::NONE; 32];
//!             for l in 0..32 {
//!                 let tid = ctx.thread_id(w, l);
//!                 lanes[l] = LaneAccess::read(self.data.addr(tid as u64), 4);
//!             }
//!             ctx.global_read(w, &lanes);
//!         }
//!     }
//! }
//!
//! let mut mem = AddressSpace::new();
//! let data = mem.alloc("data", 4, 4096);
//! let sim = GpuSim::new(GpuConfig::titan_xp());
//! let stats = sim.launch(Grid { num_blocks: 16, threads_per_block: 256 }, &Copy { data });
//! // 256 threads/block * 16 blocks, 32 consecutive 4-byte reads coalesce
//! // into one 128-byte transaction per warp.
//! assert_eq!(stats.global_load_transactions, 128);
//! assert!(stats.device_seconds > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod cache;
pub mod coalesce;
pub mod config;
pub mod engine;
pub mod stats;

pub use addr::{AddressSpace, DeviceBuffer};
pub use cache::{Cache, CacheConfig};
pub use config::GpuConfig;
pub use engine::{BlockCtx, BlockKernel, GpuSim, Grid, LaneAccess};
pub use stats::GpuStats;
