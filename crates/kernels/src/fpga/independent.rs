//! Independent hierarchical FPGA kernel (Table 3 "Independent").
//!
//! Query features are staged into BRAM per query — the paper's §3.2.2
//! optimization that cut the traversal loop's II from 147 to 76 — and the
//! tree is read from external memory with one packed attribute fetch per
//! level; the connection arrays are touched only at subtree boundaries.

use super::{split_ranges, vote, walk_levels, FpgaRun};
use rayon::prelude::*;
use rfx_core::hier::{HierForest, NODE_BYTES};
use rfx_core::{Label, TreeEnsemble};
use rfx_forest::dataset::QueryView;
use rfx_fpga_sim::budget::OnChipOverflow;
use rfx_fpga_sim::ops::{chains, Op};
use rfx_fpga_sim::{combine_cus, CuPipeline, FpgaConfig, OnChipBudget, Replication};

/// External bytes per boundary hop: connection_offset (4) +
/// subtree_connection (4) + new subtree_node_offset (4).
pub(crate) const BYTES_PER_HOP: u64 = 12;

/// Boundary-hop dependency chain: two indirections plus address math.
pub(crate) const HOP_CHAIN: &[Op] = &[Op::ExtMemLoad, Op::ExtMemLoad, Op::Alu];

/// Runs the independent hierarchical variant on the simulated FPGA.
///
/// Fails if one query's feature row cannot fit in BRAM (practically
/// impossible on the U250, but checked).
pub fn run_independent(
    cfg: &FpgaConfig,
    rep: Replication,
    hier: &HierForest,
    queries: QueryView,
) -> Result<FpgaRun, OnChipOverflow> {
    rep.validate(cfg).expect("invalid replication");
    let tel = rfx_telemetry::current();
    let _span = rfx_telemetry::span!(tel, "kernels.fpga.independent", queries = queries.num_rows());
    // Per-CU BRAM: one staged query row.
    let mut budget = OnChipBudget::new(cfg.onchip_bytes_per_slr);
    budget.alloc(queries.num_features() as u64 * 4)?;
    budget.export_telemetry();

    let ranges = split_ranges(queries.num_rows(), rep.total_cus() as usize);
    let per_cu: Vec<(Vec<Label>, rfx_fpga_sim::CuExecution)> = ranges
        .into_par_iter()
        .map(|range| {
            let mut cu = CuPipeline::new(cfg, rep.cus_per_slr);
            let mut predictions = Vec::with_capacity(range.len());
            let mut visits = 0u64;
            let mut crossings = 0u64;
            let mut query_bytes = 0u64;
            for q in range {
                let row = queries.row(q);
                query_bytes += row.len() as u64 * 4;
                let labels = (0..hier.num_trees()).map(|t| {
                    let (label, hops) = walk_levels(hier, t, row, |_| visits += 1);
                    crossings += hops;
                    label
                });
                predictions.push(vote(labels, hier.num_classes()));
            }
            // Stage query features to BRAM (burst), then the pipelined
            // traversal and boundary-hop loops.
            cu.burst_read(query_bytes);
            cu.run_loop(chains::INDEPENDENT, visits, visits, NODE_BYTES as u64);
            cu.run_loop(HOP_CHAIN, crossings, crossings, BYTES_PER_HOP);
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
    let ii = rfx_fpga_sim::chain_ii(chains::INDEPENDENT, cfg);
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
            (0..8).map(|_| DecisionTree::random(&mut rng, 9, 6, 2, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 6, 2).unwrap();
        let queries: Vec<f32> = (0..500 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    #[test]
    fn independent_fpga_matches_reference_with_paper_ii() {
        let (forest, queries) = fixture(47);
        let qv = QueryView::new(&queries, 6).unwrap();
        let cfg = FpgaConfig::alveo_u250();
        for hc in [HierConfig::uniform(3), HierConfig::with_root(3, 6)] {
            let h = build_forest(&forest, hc).unwrap();
            let run = run_independent(&cfg, Replication::single(&cfg), &h, qv).unwrap();
            assert_eq!(run.predictions, forest.predict_batch(qv), "{hc:?}");
            assert_eq!(run.ii_label, "76");
        }
    }

    #[test]
    fn independent_beats_csr_by_roughly_the_ii_ratio() {
        let (forest, queries) = fixture(53);
        let qv = QueryView::new(&queries, 6).unwrap();
        let cfg = FpgaConfig::alveo_u250();
        let h = build_forest(&forest, HierConfig::uniform(4)).unwrap();
        let ind = run_independent(&cfg, Replication::single(&cfg), &h, qv).unwrap();
        let csr = super::super::csr::run_csr(
            &cfg,
            Replication::single(&cfg),
            &rfx_core::CsrForest::build(&forest),
            qv,
        );
        let speedup = csr.stats.seconds / ind.stats.seconds;
        // Paper Table 3: 2.98x. The II ratio alone is 292/76 = 3.84; hop
        // overhead pulls it down.
        assert!(speedup > 2.0 && speedup < 4.0, "speedup {speedup}");
    }

    #[test]
    fn deeper_subtrees_reduce_hop_overhead() {
        let (forest, queries) = fixture(59);
        let qv = QueryView::new(&queries, 6).unwrap();
        let cfg = FpgaConfig::alveo_u250();
        let shallow = build_forest(&forest, HierConfig::uniform(2)).unwrap();
        let deep = build_forest(&forest, HierConfig::uniform(8)).unwrap();
        let rep = Replication::single(&cfg);
        let s = run_independent(&cfg, rep, &shallow, qv).unwrap();
        let d = run_independent(&cfg, rep, &deep, qv).unwrap();
        assert!(d.stats.seconds < s.stats.seconds, "{} vs {}", d.stats.seconds, s.stats.seconds);
    }
}
