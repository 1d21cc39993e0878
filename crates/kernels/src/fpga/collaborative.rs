//! Collaborative FPGA kernel (Table 3 "Collaborative").
//!
//! Each subtree is burst-loaded into BRAM/URAM and then **every** query is
//! pushed through the subtree-traversal pipeline — II 3, because
//! everything the loop touches is on-chip — whether or not the query's
//! path enters that subtree (the presence check guards only the state
//! update, as in the paper's pseudocode). The HLS inner loop runs its full
//! per-subtree trip count for absent queries too, so pipeline slots are
//! overwhelmingly wasted: the paper measures 90.68 % stall and a 0.08×
//! "speedup" over CSR, and the same starvation arises here mechanically.

use super::{split_ranges, vote, walk_levels, FpgaRun};
use rayon::prelude::*;
use rfx_core::hier::{HierForest, NODE_BYTES};
use rfx_core::{Label, TreeEnsemble};
use rfx_forest::dataset::QueryView;
use rfx_fpga_sim::budget::OnChipOverflow;
use rfx_fpga_sim::ops::chains;
use rfx_fpga_sim::{combine_cus, CuPipeline, FpgaConfig, OnChipBudget, Replication};

/// Runs the collaborative variant on the simulated FPGA.
///
/// Fails if the largest subtree cannot be buffered on chip.
pub fn run_collaborative(
    cfg: &FpgaConfig,
    rep: Replication,
    hier: &HierForest,
    queries: QueryView,
) -> Result<FpgaRun, OnChipOverflow> {
    rep.validate(cfg).expect("invalid replication");
    let largest = (0..hier.num_subtrees() as u32)
        .map(|s| hier.subtree_size(s) as u64 * NODE_BYTES as u64)
        .max()
        .unwrap_or(0);
    let mut budget = OnChipBudget::new(cfg.onchip_bytes_per_slr);
    budget.alloc(largest)?;
    budget.alloc(queries.num_features() as u64 * 4)?;
    budget.export_telemetry();

    let ranges = split_ranges(queries.num_rows(), rep.total_cus() as usize);
    let per_cu: Vec<(Vec<Label>, rfx_fpga_sim::CuExecution)> = ranges
        .into_par_iter()
        .map(|range| {
            let mut cu = CuPipeline::new(cfg, rep.cus_per_slr);
            let chunk_q = range.len() as u64;
            let mut predictions = Vec::with_capacity(range.len());
            // Useful levels executed inside each subtree by this CU's
            // queries.
            let mut useful = vec![0u64; hier.num_subtrees()];
            for q in range {
                let row = queries.row(q);
                let labels = (0..hier.num_trees())
                    .map(|t| walk_levels(hier, t, row, |s| useful[s as usize] += 1).0);
                predictions.push(vote(labels, hier.num_classes()));
            }
            // One pass per subtree: burst the nodes in, then run all
            // queries through the traversal loop. HLS pipelines the inner
            // loop with its *static* bound — the configured subtree-depth
            // cap — so absent queries and early leaf exits still occupy
            // the full trip count; and every iteration streams a query
            // feature from DDR.
            for t in 0..hier.num_trees() {
                let range = hier.tree_subtrees(t);
                for s in range.clone() {
                    cu.burst_read(hier.subtree_size(s) as u64 * NODE_BYTES as u64);
                    let cap = if s == range.start {
                        hier.config().root_subtree_depth
                    } else {
                        hier.config().subtree_depth
                    };
                    let trip = chunk_q * cap as u64;
                    cu.run_streaming_loop(
                        chains::COLLABORATIVE,
                        trip,
                        useful[s as usize].min(trip),
                        0,
                        1.0,
                    );
                }
            }
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
    let ii = rfx_fpga_sim::chain_ii(chains::COLLABORATIVE, cfg);
    Ok(FpgaRun { predictions, stats, ii_label: ii.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_core::hier::{builder::build_forest, HierConfig};
    use rfx_forest::{DecisionTree, RandomForest};

    fn fixture(seed: u64) -> (RandomForest, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..8).map(|_| DecisionTree::random(&mut rng, 10, 6, 2, 0.35)).collect();
        let forest = RandomForest::from_trees(trees, 6, 2).unwrap();
        let queries: Vec<f32> = (0..400 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    #[test]
    fn collaborative_fpga_matches_reference_with_ii_3() {
        let (forest, queries) = fixture(61);
        let qv = QueryView::new(&queries, 6).unwrap();
        let cfg = FpgaConfig::alveo_u250();
        let h = build_forest(&forest, HierConfig::uniform(4)).unwrap();
        let run = run_collaborative(&cfg, Replication::single(&cfg), &h, qv).unwrap();
        assert_eq!(run.predictions, forest.predict_batch(qv));
        assert_eq!(run.ii_label, "3");
    }

    #[test]
    fn collaborative_starves_and_loses_to_csr() {
        // Shaped like the paper's Table-3 workload (deep bushy trees,
        // SD 10): hundreds of shallow spawned subtrees each pay the full
        // static trip count for every query.
        let mut rng = StdRng::seed_from_u64(67);
        let trees: Vec<DecisionTree> =
            (0..10).map(|_| DecisionTree::random(&mut rng, 15, 6, 2, 0.12)).collect();
        let forest = RandomForest::from_trees(trees, 6, 2).unwrap();
        let queries: Vec<f32> = (0..300 * 6).map(|_| rng.gen()).collect();
        let qv = QueryView::new(&queries, 6).unwrap();
        let cfg = FpgaConfig::alveo_u250();
        let h = build_forest(&forest, HierConfig::uniform(10)).unwrap();
        let coll = run_collaborative(&cfg, Replication::single(&cfg), &h, qv).unwrap();
        let csr = super::super::csr::run_csr(
            &cfg,
            Replication::single(&cfg),
            &rfx_core::CsrForest::build(&forest),
            qv,
        );
        // Paper Table 3: stall 90.68 %, 0.08x vs CSR.
        assert!(coll.stats.stall_fraction > 0.8, "stall {}", coll.stats.stall_fraction);
        assert!(
            coll.stats.seconds > csr.stats.seconds,
            "collaborative {} must lose to CSR {}",
            coll.stats.seconds,
            csr.stats.seconds
        );
    }

    #[test]
    fn oversized_subtree_is_rejected() {
        let cfg = FpgaConfig::tiny_test(); // 64 KiB on-chip
        let mut rng = StdRng::seed_from_u64(71);
        // A bushy depth-14 tree with SD 14 yields a 16383-slot (96 KiB)
        // root subtree.
        let tree = DecisionTree::random(&mut rng, 14, 6, 2, 0.05);
        let forest = RandomForest::from_trees(vec![tree], 6, 2).unwrap();
        let h = build_forest(&forest, HierConfig::uniform(14)).unwrap();
        let queries: Vec<f32> = (0..10 * 6).map(|_| rng.gen()).collect();
        let qv = QueryView::new(&queries, 6).unwrap();
        let err = run_collaborative(&cfg, Replication::single(&cfg), &h, qv).unwrap_err();
        assert!(err.requested > err.capacity || err.requested > err.available);
    }
}
