//! §3.2.1 ablation — the collaborative code variant.
//!
//! The paper drops the collaborative variant from the main evaluation
//! after measuring it 10–20× slower than independent on GPU and 36×
//! slower on FPGA (Table 3's 0.08× vs CSR). This harness reproduces the
//! comparison on both simulated platforms across subtree depths, plus the
//! design-choice sweep DESIGN.md calls out: how the hybrid variant's gain
//! decomposes into shared-memory staging vs divergence reduction.

#![forbid(unsafe_code)]

use rfx_bench::harness::{write_json, Table};
use rfx_bench::runner;
use rfx_bench::scale::Scale;
use rfx_bench::workloads::timing_workload;
use rfx_core::HierConfig;
use rfx_data::DatasetKind;
use rfx_fpga_sim::Replication;

fn main() {
    let scale = Scale::from_args();
    let kind = DatasetKind::SusyLike;
    let depth = kind.paper_depth_band()[1];
    let w = timing_workload(kind, depth, scale);
    let mut all = Vec::new();

    let mut gpu_table = Table::new(
        &format!("Ablation: collaborative vs independent, GPU, Susy d={depth}"),
        &["SD", "ind (s)", "coll (s)", "slowdown", "ind loads", "coll loads"],
    );
    for sd in [4u8, 6, 8] {
        let layout = runner::hier(&w, HierConfig::uniform(sd));
        let ind = runner::gpu_independent(&w, &layout);
        let coll = runner::gpu_collaborative(&w, &layout);
        gpu_table.row(vec![
            format!("{sd}"),
            format!("{:.4}", ind.device_seconds),
            format!("{:.4}", coll.device_seconds),
            format!("{:.1}x", coll.device_seconds / ind.device_seconds),
            format!("{}", ind.global_load_transactions),
            format!("{}", coll.global_load_transactions),
        ]);
        all.push(("gpu", sd, ind.device_seconds, coll.device_seconds));
        eprintln!("[ablation] gpu sd {sd} done");
    }
    gpu_table.print();
    println!();

    let mut fpga_table = Table::new(
        &format!("Ablation: collaborative vs independent, FPGA 1S1C, Susy d={depth}"),
        &["SD", "ind (s)", "coll (s)", "slowdown", "coll stall %"],
    );
    let rep = Replication::single(&runner::fpga_cfg());
    for sd in [4u8, 6, 8] {
        let layout = runner::hier(&w, HierConfig::uniform(sd));
        let ind = runner::fpga_independent(&w, &layout, rep);
        let coll = runner::fpga_collaborative(&w, &layout, rep);
        fpga_table.row(vec![
            format!("{sd}"),
            format!("{:.3}", ind.stats.seconds),
            format!("{:.3}", coll.stats.seconds),
            format!("{:.1}x", coll.stats.seconds / ind.stats.seconds),
            format!("{:.1}%", 100.0 * coll.stats.stall_fraction),
        ]);
        all.push(("fpga", sd, ind.stats.seconds, coll.stats.seconds));
        eprintln!("[ablation] fpga sd {sd} done");
    }
    fpga_table.print();
    println!();

    // Hybrid decomposition: hybrid with RSD == SD (staging only the small
    // root) vs enlarged root subtrees — isolates how much of the win
    // comes from widening the shared-memory stage.
    let mut decomp = Table::new(
        "Ablation: hybrid root-subtree widening (GPU, SD=8)",
        &["RSD", "hybrid (s)", "global loads", "branch eff"],
    );
    for rsd in [8u8, 10, 12] {
        let layout = runner::hier(&w, HierConfig::with_root(8, rsd));
        let hyb = runner::gpu_hybrid(&w, &layout);
        decomp.row(vec![
            format!("{rsd}"),
            format!("{:.4}", hyb.device_seconds),
            format!("{}", hyb.global_load_transactions),
            format!("{:.3}", hyb.branch_efficiency()),
        ]);
        all.push(("hybrid-rsd", rsd, hyb.device_seconds, hyb.branch_efficiency()));
    }
    decomp.print();
    println!();

    // §3.2.1 Optimization 1: K-means clustering of trees by feature-access
    // profile before building the layout. The paper found no significant
    // benefit; measure the same comparison.
    let layout = runner::hier(&w, HierConfig::uniform(6));
    let baseline = runner::gpu_independent(&w, &layout);
    let (order, _) = rfx_core::cluster::cluster_trees(&w.forest, 8, 25);
    let clustered_forest = rfx_core::cluster::reorder_forest(&w.forest, &order);
    let clustered_workload = rfx_bench::workloads::Workload {
        forest: clustered_forest,
        queries: w.queries.clone(),
        kind: w.kind,
        max_depth: w.max_depth,
    };
    let clustered_layout = runner::hier(&clustered_workload, HierConfig::uniform(6));
    let clustered = runner::gpu_independent(&clustered_workload, &clustered_layout);
    println!(
        "Ablation: K-means tree clustering (GPU independent, SD=6): \
         unclustered {:.4}s vs clustered {:.4}s ({:+.1}%)",
        baseline.device_seconds,
        clustered.device_seconds,
        100.0 * (clustered.device_seconds / baseline.device_seconds - 1.0)
    );
    all.push(("cluster", 6, baseline.device_seconds, clustered.device_seconds));

    // §3.2.1 Optimization 2: one block per tree over all queries.
    let bpt = runner::gpu_block_per_tree(&w, &layout);
    println!(
        "Ablation: block-per-tree mapping (GPU, SD=6): independent {:.4}s vs \
         block-per-tree {:.4}s (stores {} vs {})",
        baseline.device_seconds,
        bpt.device_seconds,
        baseline.global_store_transactions,
        bpt.global_store_transactions,
    );
    all.push(("block-per-tree", 6, baseline.device_seconds, bpt.device_seconds));
    write_json("ablation", scale.label(), &all);
}
