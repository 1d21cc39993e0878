//! # rfx-kernels
//!
//! The paper's random-forest **classification code variants** (§3.2),
//! implemented three ways:
//!
//! * [`gpu`] — warp-synchronous kernels on the `rfx-gpu-sim` SIMT
//!   simulator: the CSR baseline, the *independent* and *hybrid*
//!   hierarchical variants, the *collaborative* variant (kept for the
//!   ablation — the paper measures it 10–20× slower), and a FIL-style
//!   kernel standing in for Nvidia cuML.
//! * [`fpga`] — pipeline-model kernels on the `rfx-fpga-sim` simulator:
//!   CSR, independent, collaborative, hybrid, and the hybrid-split
//!   multi-CU design of §4.4, each with compute-unit replication.
//! * [`cpu`] — the functional CPU reference ([`cpu::predict_reference`]).
//! * [`engine`] — the practical CPU path: the tree-sharded,
//!   cache-blocked execution engine behind the unified
//!   [`Predictor`](engine::Predictor) API, its blocks claimed one at a
//!   time by the calling thread and whatever helpers join it (scoped
//!   threads, or the process-wide parked crew).
//! * [`votes`] — the vote-reduction subsystem: bit-sliced popcount
//!   tallies and the early-exit decision rule, selected per plan via
//!   [`VotePolicy`].
//! * [`memtrace`] (`mem-tracer` feature) — a software L1/L2 model over
//!   the layouts' fetch streams, giving the sharded CPU engine the same
//!   `*.perf.*` counter schema the device simulators export.
//!
//! Every kernel returns its real predictions alongside the simulator's
//! statistics, and the test suite asserts bit-identical agreement with
//! the scalar reference traversals in `rfx-core`.

pub mod cpu;
pub mod engine;
mod fanout;
pub mod fpga;
pub mod gpu;
#[cfg(feature = "mem-tracer")]
pub mod memtrace;
pub mod trace;
pub mod votes;

pub use engine::{
    EnginePlan, EnginePlanBuilder, PlanError, Predictor, RowParallel, ShardedEngine, TreeEnsemble,
};
pub use votes::VotePolicy;

/// Threads per block used by all GPU kernels (four warps — a common
/// choice for latency-bound traversal kernels).
pub const THREADS_PER_BLOCK: usize = 128;
