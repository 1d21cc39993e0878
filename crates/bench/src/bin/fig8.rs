//! Fig. 8 — global load requests and branch efficiency of the hybrid
//! versus the independent kernel on the Susy dataset, for maximum subtree
//! depths 4, 6 and 8.

#![forbid(unsafe_code)]

use rfx_bench::harness::{write_json, Table};
use rfx_bench::runner;
use rfx_bench::scale::Scale;
use rfx_bench::workloads::timing_workload;
use rfx_core::HierConfig;
use rfx_data::DatasetKind;

const SDS: [u8; 3] = [4, 6, 8];

fn main() {
    let scale = Scale::from_args();
    let kind = DatasetKind::SusyLike;
    let mut all = Vec::new();
    let mut table = Table::new(
        "Fig 8: global loads & branch efficiency, Susy",
        &["depth", "SD", "ind loads", "hyb loads", "hyb/ind", "ind br.eff", "hyb br.eff"],
    );
    for depth in kind.paper_depth_band() {
        let w = timing_workload(kind, depth, scale);
        for sd in SDS {
            let layout = runner::hier(&w, HierConfig::uniform(sd));
            let ind = runner::gpu_independent(&w, &layout);
            let hyb = runner::gpu_hybrid(&w, &layout);
            table.row(vec![
                format!("{depth}"),
                format!("{sd}"),
                format!("{}", ind.global_load_transactions),
                format!("{}", hyb.global_load_transactions),
                format!(
                    "{:.2}",
                    hyb.global_load_transactions as f64 / ind.global_load_transactions as f64
                ),
                format!("{:.3}", ind.branch_efficiency()),
                format!("{:.3}", hyb.branch_efficiency()),
            ]);
            all.push((depth, sd, ind, hyb));
        }
        eprintln!("[fig8] depth {depth} done");
    }
    table.print();
    write_json("fig8", scale.label(), &all);
}
