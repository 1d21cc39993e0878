//! # rfx — hierarchical random-forest inference for GPU and FPGA
//!
//! Facade crate for the reproduction of *Accelerating Random Forest
//! Classification on GPU and FPGA* (Shah et al., ICPP 2022). It re-exports
//! the full stack:
//!
//! * [`forest`] — datasets, CART training, random forests, metrics.
//! * [`data`] — synthetic stand-ins for the paper's UCI datasets.
//! * [`core`] — the paper's contribution: CSR, hierarchical-subtree, and
//!   FIL-style forest memory layouts.
//! * [`gpu`] — the SIMT GPU simulator (Titan Xp preset).
//! * [`fpga`] — the HLS pipeline FPGA simulator (Alveo U250 preset).
//! * [`kernels`] — the classification code variants on both simulators and
//!   the Rayon CPU inference engine.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough, and the
//! `rfx-bench` crate for the harnesses that regenerate every table and
//! figure of the paper.

#![forbid(unsafe_code)]

pub use rfx_core as core;
pub use rfx_data as data;
pub use rfx_forest as forest;
pub use rfx_fpga_sim as fpga;
pub use rfx_gpu_sim as gpu;
pub use rfx_kernels as kernels;
pub use rfx_serve as serve;
