//! # rfx-bench
//!
//! Experiment harnesses that regenerate **every table and figure** of the
//! paper's evaluation (§4). Each binary prints the same rows/series the
//! paper reports and writes a machine-readable JSON copy next to it:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — dataset characteristics |
//! | `fig5` | Fig. 5 — accuracy vs (max depth × number of trees) heatmaps |
//! | `fig6` | Fig. 6 — hierarchical/CSR memory-footprint ratio vs depth |
//! | `fig7` | Fig. 7 — GPU speedup over CSR (independent, hybrid, cuML/FIL) |
//! | `fig8` | Fig. 8 — global load requests & branch efficiency (Susy) |
//! | `table2` | Table 2 — root-subtree-depth effects (GPU speedup, FPGA seconds) |
//! | `table3` | Table 3 — FPGA code-variant comparison on the synthetic forest |
//! | `fig9` | Fig. 9 — FPGA runtime vs tree depth and subtree depth |
//! | `fig10` | Fig. 10 — GPU vs FPGA on Susy |
//! | `ablation` | §3.2.1 "other optimizations" — collaborative-variant ablation |
//! | `chaos_bench` | serving under seeded faults — outcome report, shed/retry ceilings |
//! | `perf_report` | one `*.perf.*` counter schema across CPU tracer, GPU and FPGA models |
//!
//! Layout, engine and serving throughput are the ledger's to measure
//! (`bench_suite/`, `BENCHMARK.json`), not these harnesses'.
//!
//! Every harness accepts `--scale tiny|default|full` (see [`scale`]):
//! simulating a device is orders of magnitude slower than being one, so
//! the default uses sub-sampled query sets — speedup *ratios* are
//! scale-stable because every variant sees the identical workload — and
//! `--scale full` reproduces the paper's sample counts verbatim.

#![forbid(unsafe_code)]

pub mod args;
pub mod harness;
pub mod runner;
pub mod scale;
pub mod workloads;

#[cfg(test)]
mod tests {
    use std::path::Path;

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_file())
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// A bin is deleted with its doc row and its baselines: every
    /// `src/bin/*.rs` has a row in the crate-doc table, and every
    /// committed `bench_results/<name>-<scale>.json` / `<name>_<scale>.log`
    /// is the `write_json("<name>", …)` output of a bin that still exists.
    #[test]
    fn every_bin_is_documented_and_every_baseline_has_a_bin() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let bins = root.join("src/bin");
        let mut sources = String::new();
        for file in file_names(&bins) {
            let stem = file.strip_suffix(".rs").expect("src/bin holds only .rs files");
            assert!(
                include_str!("lib.rs").contains(&format!("//! | `{stem}` |")),
                "{file} has no row in the crate-doc table"
            );
            sources += &std::fs::read_to_string(bins.join(&file)).unwrap();
        }
        for file in file_names(&root.join("../../bench_results")) {
            let name = file
                .strip_suffix(".json")
                .and_then(|s| s.rsplit_once('-'))
                .or_else(|| file.strip_suffix(".log").and_then(|s| s.rsplit_once('_')))
                .unwrap_or_else(|| {
                    panic!("bench_results/{file} is not <name>-<scale>.json|_<scale>.log")
                })
                .0;
            assert!(
                sources.contains(&format!("write_json(\"{name}\"")),
                "bench_results/{file} is an orphan: no bin writes \"{name}\" results"
            );
        }
    }
}
