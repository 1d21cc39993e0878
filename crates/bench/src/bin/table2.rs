//! Table 2 — effect of the root-subtree depth (RSD 8, 10, 12, with the
//! other subtrees fixed at depth 8): GPU hybrid speedup over CSR (G
//! columns) and FPGA independent runtime in seconds at 4S12C replication
//! (F columns).

#![forbid(unsafe_code)]

use rfx_bench::harness::{speedup, write_json, Table};
use rfx_bench::runner;
use rfx_bench::scale::Scale;
use rfx_bench::workloads::timing_workload;
use rfx_core::HierConfig;
use rfx_data::specs::paper_datasets;
use rfx_fpga_sim::Replication;

const SD: u8 = 8;
const RSDS: [u8; 3] = [8, 10, 12];

fn main() {
    let scale = Scale::from_args();
    let mut all = Vec::new();
    let mut table = Table::new(
        "Table 2: root subtree depth effects (G = GPU hybrid speedup, F = FPGA independent seconds)",
        &["Dataset", "d", "G8", "G10", "G12", "F8", "F10", "F12"],
    );
    let fpga_rep = Replication::new(&runner::fpga_cfg(), 4, 12);
    for kind in paper_datasets() {
        for depth in kind.paper_depth_band() {
            let w = timing_workload(kind, depth, scale);
            let csr = runner::gpu_csr(&w);
            let mut cells = vec![kind.name().to_string(), format!("{depth}")];
            let mut gs = Vec::new();
            let mut fs = Vec::new();
            for rsd in RSDS {
                let layout = runner::hier(&w, HierConfig::with_root(SD, rsd));
                let hyb = runner::gpu_hybrid(&w, &layout);
                gs.push(csr.device_seconds / hyb.device_seconds);
                cells.push(speedup(csr.device_seconds, hyb.device_seconds));
            }
            for rsd in RSDS {
                let layout = runner::hier(&w, HierConfig::with_root(SD, rsd));
                let ind = runner::fpga_independent(&w, &layout, fpga_rep);
                fs.push(ind.stats.seconds);
                cells.push(format!("{:.2}", ind.stats.seconds));
            }
            table.row(cells);
            all.push((kind.name(), depth, gs, fs));
            eprintln!("[table2] {} depth {depth} done", kind.name());
        }
    }
    table.print();
    write_json("table2", scale.label(), &all);
}
