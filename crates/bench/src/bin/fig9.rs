//! Fig. 9 — FPGA runtime of the independent and hybrid variants across
//! each dataset's tree-depth band and maximum subtree depths 4, 6, 8
//! (replicated 4S12C, as in the Table-2 F columns).

#![forbid(unsafe_code)]

use rfx_bench::harness::{write_json, Table};
use rfx_bench::runner;
use rfx_bench::scale::Scale;
use rfx_bench::workloads::timing_workload;
use rfx_core::HierConfig;
use rfx_data::specs::paper_datasets;
use rfx_fpga_sim::Replication;

const SDS: [u8; 3] = [4, 6, 8];

fn main() {
    let scale = Scale::from_args();
    let rep = Replication::new(&runner::fpga_cfg(), 4, 12);
    let mut all = Vec::new();
    for kind in paper_datasets() {
        let mut table = Table::new(
            &format!("Fig 9: FPGA runtime (s), {} (4S12C)", kind.name()),
            &["depth", "ind SD4", "ind SD6", "ind SD8", "hyb SD4", "hyb SD6", "hyb SD8"],
        );
        for depth in kind.paper_depth_band() {
            let w = timing_workload(kind, depth, scale);
            let mut cells = vec![format!("{depth}")];
            let mut record = Vec::new();
            for sd in SDS {
                let layout = runner::hier(&w, HierConfig::uniform(sd));
                let ind = runner::fpga_independent(&w, &layout, rep);
                cells.push(format!("{:.3}", ind.stats.seconds));
                record.push((format!("ind-sd{sd}"), ind.stats.seconds));
            }
            for sd in SDS {
                let layout = runner::hier(&w, HierConfig::uniform(sd));
                let hyb = runner::fpga_hybrid(&w, &layout, rep);
                cells.push(format!("{:.3}", hyb.stats.seconds));
                record.push((format!("hyb-sd{sd}"), hyb.stats.seconds));
            }
            table.row(cells);
            all.push((kind.name(), depth, record));
            eprintln!("[fig9] {} depth {depth} done", kind.name());
        }
        table.print();
        println!();
    }
    write_json("fig9", scale.label(), &all);
}
