//! Table 3 — comparison of the FPGA code variants on the paper's
//! synthetic workload (tree depth 15, max subtree depth 10, 40 trees,
//! 250 k queries): execution time, stall fraction, speedup over CSR,
//! frequency, and initiation interval, for single-CU and replicated
//! designs.

#![forbid(unsafe_code)]

use rfx_bench::harness::{write_json, Table};
use rfx_bench::runner;
use rfx_bench::scale::Scale;
use rfx_bench::workloads::synthetic_workload;
use rfx_core::HierConfig;
use rfx_fpga_sim::Replication;
use rfx_kernels::fpga::FpgaRun;

fn main() {
    let scale = Scale::from_args();
    let q = scale.queries(250_000);
    let (d, s, t) = (15usize, 10u8, 40usize);
    let w = synthetic_workload(d, t, q, 28, 0x7AB1E3);
    let layout = runner::hier(&w, HierConfig::uniform(s));
    let cfg = runner::fpga_cfg();
    let single = Replication::single(&cfg);
    let rep48 = Replication::new(&cfg, 4, 12);

    let mut rows: Vec<(&str, FpgaRun)> = Vec::new();
    rows.push(("Baseline (CSR)", runner::fpga_csr(&w, single)));
    eprintln!("[table3] csr done");
    rows.push(("Independent", runner::fpga_independent(&w, &layout, single)));
    rows.push(("Collaborative", runner::fpga_collaborative(&w, &layout, single)));
    eprintln!("[table3] collaborative done");
    rows.push(("Hybrid", runner::fpga_hybrid(&w, &layout, single)));
    rows.push(("Independent 4S12C", runner::fpga_independent(&w, &layout, rep48)));
    rows.push(("Hybrid 4S12C", runner::fpga_hybrid(&w, &layout, rep48)));
    rows.push(("Hybrid Split 4S10C", runner::fpga_hybrid_split(&w, &layout)));

    let csr_seconds = rows[0].1.stats.seconds;
    let mut table = Table::new(
        &format!("Table 3: FPGA versions, synthetic d={d} s={s} t={t} q={q}"),
        &["Version", "Time (s)", "Stall %", "vs CSR", "f", "II"],
    );
    let mut json = Vec::new();
    for (name, run) in &rows {
        table.row(vec![
            name.to_string(),
            format!("{:.2}", run.stats.seconds),
            format!("{:.2}%", 100.0 * run.stats.stall_fraction),
            format!("{:.2}", csr_seconds / run.stats.seconds),
            format!("{:.0}", run.stats.freq_mhz),
            run.ii_label.clone(),
        ]);
        json.push((name.to_string(), run.stats.clone(), run.ii_label.clone()));
    }
    table.print();
    write_json("table3", scale.label(), &json);
}
