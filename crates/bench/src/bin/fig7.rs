//! Fig. 7 — GPU speedup over the CSR baseline for the independent and
//! hybrid code variants (maximum subtree depth 4, 6, 8) and the cuML/FIL
//! baseline, across each dataset's accuracy-selected tree-depth band.

#![forbid(unsafe_code)]

use rfx_bench::harness::{speedup, write_json, Table};
use rfx_bench::runner;
use rfx_bench::scale::Scale;
use rfx_bench::workloads::timing_workload;
use rfx_core::HierConfig;
use rfx_data::specs::paper_datasets;

const SDS: [u8; 3] = [4, 6, 8];

fn main() {
    let scale = Scale::from_args();
    let mut all = Vec::new();
    for kind in paper_datasets() {
        let mut table = Table::new(
            &format!("Fig 7: GPU speedup over CSR, {}", kind.name()),
            &[
                "depth", "csr (s)", "cuML/FIL", "ind SD4", "ind SD6", "ind SD8", "hyb SD4",
                "hyb SD6", "hyb SD8",
            ],
        );
        for depth in kind.paper_depth_band() {
            let w = timing_workload(kind, depth, scale);
            let csr = runner::gpu_csr(&w);
            let fil = runner::gpu_fil(&w);
            let mut cells = vec![
                format!("{depth}"),
                format!("{:.4}", csr.device_seconds),
                speedup(csr.device_seconds, fil.device_seconds),
            ];
            let mut record = vec![
                ("csr".to_string(), csr.device_seconds),
                ("fil".to_string(), fil.device_seconds),
            ];
            for sd in SDS {
                let layout = runner::hier(&w, HierConfig::uniform(sd));
                let ind = runner::gpu_independent(&w, &layout);
                cells.push(speedup(csr.device_seconds, ind.device_seconds));
                record.push((format!("ind-sd{sd}"), ind.device_seconds));
            }
            for sd in SDS {
                let layout = runner::hier(&w, HierConfig::uniform(sd));
                let hyb = runner::gpu_hybrid(&w, &layout);
                cells.push(speedup(csr.device_seconds, hyb.device_seconds));
                record.push((format!("hyb-sd{sd}"), hyb.device_seconds));
            }
            table.row(cells);
            all.push((kind.name(), depth, record));
            eprintln!("[fig7] {} depth {depth} done", kind.name());
        }
        table.print();
        println!();
    }
    write_json("fig7", scale.label(), &all);
}
