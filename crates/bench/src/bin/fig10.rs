//! Fig. 10 — GPU versus FPGA on the Susy dataset at maximum subtree
//! depths 4, 6 and 8: the GPU's higher clock, bandwidth, and parallelism
//! should dominate by orders of magnitude, with the FPGA's best design
//! (replicated independent) closest.

#![forbid(unsafe_code)]

use rfx_bench::harness::{write_json, Table};
use rfx_bench::runner;
use rfx_bench::scale::Scale;
use rfx_bench::workloads::timing_workload;
use rfx_core::HierConfig;
use rfx_data::DatasetKind;
use rfx_fpga_sim::Replication;

const SDS: [u8; 3] = [4, 6, 8];

fn main() {
    let scale = Scale::from_args();
    let kind = DatasetKind::SusyLike;
    let rep = Replication::new(&runner::fpga_cfg(), 4, 12);
    let mut all = Vec::new();
    let mut table = Table::new(
        "Fig 10: GPU vs FPGA, Susy (seconds)",
        &["depth", "SD", "GPU ind", "GPU hyb", "FPGA ind 4S12C", "FPGA hyb 4S12C", "FPGA/GPU"],
    );
    for depth in kind.paper_depth_band() {
        let w = timing_workload(kind, depth, scale);
        for sd in SDS {
            let layout = runner::hier(&w, HierConfig::uniform(sd));
            let gpu_ind = runner::gpu_independent(&w, &layout);
            let gpu_hyb = runner::gpu_hybrid(&w, &layout);
            let fpga_ind = runner::fpga_independent(&w, &layout, rep);
            let fpga_hyb = runner::fpga_hybrid(&w, &layout, rep);
            // GPU runs use a 1-SM slice; a full Titan Xp splits the same
            // queries over 30 SMs, so device-equivalent time = slice / 30.
            let gpu_ind_dev = gpu_ind.device_seconds / 30.0;
            let gpu_hyb_dev = gpu_hyb.device_seconds / 30.0;
            let best_gpu = gpu_ind_dev.min(gpu_hyb_dev);
            let best_fpga = fpga_ind.stats.seconds.min(fpga_hyb.stats.seconds);
            table.row(vec![
                format!("{depth}"),
                format!("{sd}"),
                format!("{:.5}", gpu_ind_dev),
                format!("{:.5}", gpu_hyb_dev),
                format!("{:.4}", fpga_ind.stats.seconds),
                format!("{:.4}", fpga_hyb.stats.seconds),
                format!("{:.0}x", best_fpga / best_gpu),
            ]);
            all.push((
                depth,
                sd,
                gpu_ind.device_seconds,
                gpu_hyb.device_seconds,
                fpga_ind.stats.seconds,
                fpga_hyb.stats.seconds,
            ));
        }
        eprintln!("[fig10] depth {depth} done");
    }
    table.print();
    write_json("fig10", scale.label(), &all);
}
