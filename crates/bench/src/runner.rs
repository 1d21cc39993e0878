//! Thin wrappers that build layouts from a [`crate::workloads::Workload`]
//! and run each kernel variant, returning the simulator statistics the
//! harness binaries tabulate.

use crate::workloads::Workload;
use rfx_core::hier::builder::build_forest;
use rfx_core::{CsrForest, FilForest, HierConfig, HierForest};
use rfx_forest::dataset::QueryView;
use rfx_fpga_sim::{FpgaConfig, Replication};
use rfx_gpu_sim::{GpuConfig, GpuSim, GpuStats};
use rfx_kernels::{fpga, gpu};

/// The simulated GPU all harnesses use: a one-SM slice of the Titan Xp
/// (see [`GpuConfig::titan_xp_slice`]). Queries given to the slice
/// represent 1/30th of a full-device workload, so full-device throughput
/// is `30 × queries / slice_seconds`.
pub fn gpu() -> GpuSim {
    GpuSim::new(GpuConfig::titan_xp_slice())
}

/// The simulated Alveo U250 all FPGA harnesses use.
pub fn fpga_cfg() -> FpgaConfig {
    FpgaConfig::alveo_u250()
}

/// Builds the hierarchical layout for a workload.
pub fn hier(w: &Workload, cfg: HierConfig) -> HierForest {
    build_forest(&w.forest, cfg).expect("layout build failed")
}

fn queries(w: &Workload) -> QueryView<'_> {
    (&w.queries).into()
}

/// CSR baseline on the GPU; asserts functional correctness against the
/// reference before returning.
pub fn gpu_csr(w: &Workload) -> GpuStats {
    let layout = CsrForest::build(&w.forest);
    let run = gpu::csr::run_csr(&gpu(), &layout, queries(w));
    assert_eq!(run.predictions, w.forest.predict_batch_parallel(queries(w)));
    run.stats
}

/// FIL-style (cuML stand-in) kernel on the GPU.
pub fn gpu_fil(w: &Workload) -> GpuStats {
    let layout = FilForest::build(&w.forest);
    let run = gpu::fil::run_fil(&gpu(), &layout, queries(w));
    assert_eq!(run.predictions, w.forest.predict_batch_parallel(queries(w)));
    run.stats
}

/// Independent hierarchical kernel on the GPU.
pub fn gpu_independent(w: &Workload, layout: &HierForest) -> GpuStats {
    let run = gpu::independent::run_independent(&gpu(), layout, queries(w));
    assert_eq!(run.predictions, w.forest.predict_batch_parallel(queries(w)));
    run.stats
}

/// Hybrid hierarchical kernel on the GPU.
pub fn gpu_hybrid(w: &Workload, layout: &HierForest) -> GpuStats {
    let run = gpu::hybrid::run_hybrid(&gpu(), layout, queries(w)).expect("hybrid launch failed");
    assert_eq!(run.predictions, w.forest.predict_batch_parallel(queries(w)));
    run.stats
}

/// Collaborative hierarchical kernel on the GPU (ablation only).
pub fn gpu_collaborative(w: &Workload, layout: &HierForest) -> GpuStats {
    let run = gpu::collaborative::run_collaborative(&gpu(), layout, queries(w))
        .expect("collaborative launch failed");
    assert_eq!(run.predictions, w.forest.predict_batch_parallel(queries(w)));
    run.stats
}

/// Block-per-tree ablation kernel on the GPU (§3.2.1 "Optimization 2").
pub fn gpu_block_per_tree(w: &Workload, layout: &HierForest) -> GpuStats {
    let run = gpu::block_per_tree::run_block_per_tree(&gpu(), layout, queries(w));
    assert_eq!(run.predictions, w.forest.predict_batch_parallel(queries(w)));
    run.stats
}

/// CSR baseline on the FPGA.
pub fn fpga_csr(w: &Workload, rep: Replication) -> fpga::FpgaRun {
    let layout = CsrForest::build(&w.forest);
    let run = fpga::csr::run_csr(&fpga_cfg(), rep, &layout, queries(w));
    assert_eq!(run.predictions, w.forest.predict_batch_parallel(queries(w)));
    run
}

/// Independent hierarchical kernel on the FPGA.
pub fn fpga_independent(w: &Workload, layout: &HierForest, rep: Replication) -> fpga::FpgaRun {
    let run = fpga::independent::run_independent(&fpga_cfg(), rep, layout, queries(w))
        .expect("independent kernel failed");
    assert_eq!(run.predictions, w.forest.predict_batch_parallel(queries(w)));
    run
}

/// Collaborative hierarchical kernel on the FPGA.
pub fn fpga_collaborative(w: &Workload, layout: &HierForest, rep: Replication) -> fpga::FpgaRun {
    let run = fpga::collaborative::run_collaborative(&fpga_cfg(), rep, layout, queries(w))
        .expect("collaborative kernel failed");
    assert_eq!(run.predictions, w.forest.predict_batch_parallel(queries(w)));
    run
}

/// Hybrid hierarchical kernel on the FPGA.
pub fn fpga_hybrid(w: &Workload, layout: &HierForest, rep: Replication) -> fpga::FpgaRun {
    let run = fpga::hybrid::run_hybrid(&fpga_cfg(), rep, layout, queries(w))
        .expect("hybrid kernel failed");
    assert_eq!(run.predictions, w.forest.predict_batch_parallel(queries(w)));
    run
}

/// Split hybrid design on the FPGA (one stage-1 CU per SLR, derated
/// clock), the paper's "Hybrid Split 4S10C" row.
pub fn fpga_hybrid_split(w: &Workload, layout: &HierForest) -> fpga::FpgaRun {
    let run = fpga::hybrid::run_hybrid_split(&fpga_cfg(), layout, queries(w), 10, 245.0)
        .expect("hybrid split kernel failed");
    assert_eq!(run.predictions, w.forest.predict_batch_parallel(queries(w)));
    run
}
