//! CSR baseline FPGA kernel (Table 3 "Baseline (CSR)").
//!
//! Every traversal step performs four dependent external reads, so the
//! inner loop's II is 292 cycles — the paper's measured value — and the
//! whole run is dominated by `Σ node visits × 292 / f`.

use super::{split_ranges, vote, FpgaRun};
use rayon::prelude::*;
use rfx_core::csr::CsrForest;
use rfx_core::memprobe::NoopSink;
use rfx_core::Label;
use rfx_forest::dataset::QueryView;
use rfx_fpga_sim::ops::chains;
use rfx_fpga_sim::{combine_cus, CuPipeline, FpgaConfig, Replication};

/// External bytes per traversal step: feature_id (2) + value (4) +
/// children_arr_idx (4) + children_arr (4).
const BYTES_PER_STEP: u64 = 14;

/// Runs CSR-based classification on the simulated FPGA.
pub fn run_csr(cfg: &FpgaConfig, rep: Replication, csr: &CsrForest, queries: QueryView) -> FpgaRun {
    rep.validate(cfg).expect("invalid replication");
    let ranges = split_ranges(queries.num_rows(), rep.total_cus() as usize);
    let per_cu: Vec<(Vec<Label>, rfx_fpga_sim::CuExecution)> = ranges
        .into_par_iter()
        .map(|range| {
            let mut cu = CuPipeline::new(cfg, rep.cus_per_slr);
            let mut predictions = Vec::with_capacity(range.len());
            let mut visits = 0u64;
            for q in range {
                let row = queries.row(q);
                let labels = (0..csr.num_trees()).map(|t| {
                    rfx_core::walk(csr.root(t), |cursor| {
                        visits += 1;
                        csr.step_with(cursor, row, &mut NoopSink)
                    })
                });
                predictions.push(vote(labels, csr.num_classes()));
            }
            cu.run_loop(chains::CSR, visits, visits, BYTES_PER_STEP);
            (predictions, cu.finish())
        })
        .collect();

    let mut predictions = Vec::with_capacity(queries.num_rows());
    let mut cus = Vec::with_capacity(per_cu.len());
    for (p, c) in per_cu {
        predictions.extend_from_slice(&p);
        cus.push(c);
    }
    let stats = combine_cus(&cus, rep);
    let ii = rfx_fpga_sim::chain_ii(chains::CSR, cfg);
    FpgaRun { predictions, stats, ii_label: ii.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_forest::{DecisionTree, RandomForest};

    fn fixture(seed: u64) -> (RandomForest, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..8).map(|_| DecisionTree::random(&mut rng, 8, 6, 2, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 6, 2).unwrap();
        let queries: Vec<f32> = (0..500 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    #[test]
    fn csr_fpga_matches_reference_and_reports_paper_ii() {
        let (forest, queries) = fixture(41);
        let qv = QueryView::new(&queries, 6).unwrap();
        let csr = CsrForest::build(&forest);
        let cfg = FpgaConfig::alveo_u250();
        let run = run_csr(&cfg, Replication::single(&cfg), &csr, qv);
        assert_eq!(run.predictions, forest.predict_batch(qv));
        assert_eq!(run.ii_label, "292");
        assert!(run.stats.seconds > 0.0);
        assert!(run.stats.stall_fraction < 0.05, "single CU, no contention");
    }

    #[test]
    fn replication_speeds_csr_up() {
        let (forest, queries) = fixture(43);
        let qv = QueryView::new(&queries, 6).unwrap();
        let csr = CsrForest::build(&forest);
        let cfg = FpgaConfig::alveo_u250();
        let solo = run_csr(&cfg, Replication::single(&cfg), &csr, qv);
        let rep = run_csr(&cfg, Replication::new(&cfg, 4, 4), &csr, qv);
        assert_eq!(solo.predictions, rep.predictions);
        let speedup = solo.stats.seconds / rep.stats.seconds;
        assert!(speedup > 8.0 && speedup <= 16.0, "speedup {speedup}");
    }
}
