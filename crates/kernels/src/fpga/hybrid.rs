//! Hybrid FPGA kernel (Table 3 "Hybrid" and "Hybrid Split 4S10C").
//!
//! Two stages per tree: (1) the root subtree is burst-loaded into
//! BRAM/URAM and traversed at II 3 — every query passes through it, so the
//! pipeline stays fully utilized; (2) the remaining subtrees are traversed
//! from external memory at II 76, like the independent kernel. The paper
//! reports the combined II as "3/76".
//!
//! The **split** design (§4.4) addresses the hybrid's poor replication:
//! stage 1 is instantiated once per SLR while stage 2 is replicated, at
//! the cost of a lower achieved clock (245 MHz vs 300 MHz) and fewer
//! stage-2 CUs (10 per SLR instead of 12).

use super::independent::{BYTES_PER_HOP, HOP_CHAIN};
use super::{split_ranges, vote, walk_levels, FpgaRun};
use rayon::prelude::*;
use rfx_core::hier::{HierForest, NODE_BYTES};
use rfx_core::{Label, TreeEnsemble};
use rfx_forest::dataset::QueryView;
use rfx_fpga_sim::budget::OnChipOverflow;
use rfx_fpga_sim::ops::chains;
use rfx_fpga_sim::{
    combine_cus, CuExecution, CuPipeline, FpgaConfig, FpgaStats, OnChipBudget, Replication,
};

/// Traversal work summed over (query, tree) walks, split between the
/// two stages.
#[derive(Default)]
struct StageWork {
    /// Levels walked in the root subtree (stage 1, on chip).
    stage1_visits: u64,
    /// Levels walked below it (stage 2, external memory).
    stage2_visits: u64,
    crossings: u64,
}

/// Walks `query` through tree `t`, adding its levels and crossings to
/// `work`.
fn stage_split(hier: &HierForest, t: usize, query: &[f32], work: &mut StageWork) -> Label {
    let root = hier.tree_root_subtree(t);
    let (label, crossings) = walk_levels(hier, t, query, |s| {
        if s == root {
            work.stage1_visits += 1;
        } else {
            work.stage2_visits += 1;
        }
    });
    work.crossings += crossings;
    label
}

fn root_bytes(hier: &HierForest) -> u64 {
    (0..hier.num_trees())
        .map(|t| hier.subtree_size(hier.tree_root_subtree(t)) as u64 * NODE_BYTES as u64)
        .max()
        .unwrap_or(0)
}

/// Runs the (unsplit) hybrid variant: each CU executes both stages.
pub fn run_hybrid(
    cfg: &FpgaConfig,
    rep: Replication,
    hier: &HierForest,
    queries: QueryView,
) -> Result<FpgaRun, OnChipOverflow> {
    rep.validate(cfg).expect("invalid replication");
    let mut budget = OnChipBudget::new(cfg.onchip_bytes_per_slr);
    budget.alloc(root_bytes(hier))?;
    budget.alloc(queries.num_features() as u64 * 4)?;
    budget.export_telemetry();

    let ranges = split_ranges(queries.num_rows(), rep.total_cus() as usize);
    let per_cu: Vec<(Vec<Label>, CuExecution)> = ranges
        .into_par_iter()
        .map(|range| {
            let mut cu = CuPipeline::new(cfg, rep.cus_per_slr);
            let mut predictions = Vec::with_capacity(range.len());
            let mut work = StageWork::default();
            for q in range {
                let row = queries.row(q);
                let labels = (0..hier.num_trees()).map(|t| stage_split(hier, t, row, &mut work));
                predictions.push(vote(labels, hier.num_classes()));
            }
            let StageWork { stage1_visits: s1, stage2_visits: s2, crossings: hops } = work;
            // Root subtrees staged once per tree (per CU).
            for t in 0..hier.num_trees() {
                cu.burst_read(
                    hier.subtree_size(hier.tree_root_subtree(t)) as u64 * NODE_BYTES as u64,
                );
            }
            // Stage 1 streams a different query's feature from DDR every
            // iteration (the whole query set cannot live on chip, §2.3).
            cu.run_streaming_loop(chains::HYBRID_STAGE1, s1, s1, 4, 1.0);
            cu.run_loop(chains::HYBRID_STAGE2, s2, s2, NODE_BYTES as u64);
            cu.run_loop(HOP_CHAIN, hops, hops, BYTES_PER_HOP);
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
    let ii1 = rfx_fpga_sim::chain_ii(chains::HYBRID_STAGE1, cfg);
    let ii2 = rfx_fpga_sim::chain_ii(chains::HYBRID_STAGE2, cfg);
    Ok(FpgaRun { predictions, stats, ii_label: format!("{ii1}/{ii2}") })
}

/// Runs the split hybrid design: one stage-1 CU per SLR feeding
/// `stage2_cus_per_slr` stage-2 CUs, at a derated clock. The stages run
/// back to back (the paper reports ~1.3 s + ~0.8 s for its synthetic
/// workload), so the reported time is their sum.
pub fn run_hybrid_split(
    cfg: &FpgaConfig,
    hier: &HierForest,
    queries: QueryView,
    stage2_cus_per_slr: u32,
    freq_mhz: f64,
) -> Result<FpgaRun, OnChipOverflow> {
    let mut budget = OnChipBudget::new(cfg.onchip_bytes_per_slr);
    budget.alloc(root_bytes(hier))?;
    budget.alloc(queries.num_features() as u64 * 4)?;
    budget.export_telemetry();

    let slrs = cfg.num_slrs;
    let mut rep1 = Replication::new(cfg, slrs, 1);
    rep1.freq_mhz = freq_mhz;
    let mut rep2 = Replication::new(cfg, slrs, stage2_cus_per_slr);
    rep2.freq_mhz = freq_mhz;

    // Stage 1: one CU per SLR handles that SLR's query share (root
    // subtrees only). The stages execute back to back, so the single
    // stage-1 CU has its SLR's DDR channel to itself — the whole point of
    // the split design.
    let nq = queries.num_rows();
    let stage1_cus: Vec<CuExecution> = split_ranges(nq, slrs as usize)
        .into_par_iter()
        .map(|range| {
            let mut cu = CuPipeline::new(cfg, 1);
            let mut work = StageWork::default();
            for q in range {
                let row = queries.row(q);
                for t in 0..hier.num_trees() {
                    stage_split(hier, t, row, &mut work);
                }
            }
            let s1 = work.stage1_visits;
            for t in 0..hier.num_trees() {
                cu.burst_read(
                    hier.subtree_size(hier.tree_root_subtree(t)) as u64 * NODE_BYTES as u64,
                );
            }
            // One stage-1 CU per SLR: only the stage-2 CUs contend with it
            // for random requests, and they demand far less, so the feed
            // contention is that of a couple of streams, not twelve.
            cu.run_streaming_loop(chains::HYBRID_STAGE1, s1, s1, 4, 1.0);
            cu.finish()
        })
        .collect();

    // Stage 2: replicated CUs finish the off-chip portion and vote.
    let per_cu: Vec<(Vec<Label>, CuExecution)> = split_ranges(nq, rep2.total_cus() as usize)
        .into_par_iter()
        .map(|range| {
            let mut cu = CuPipeline::new(cfg, stage2_cus_per_slr);
            let mut predictions = Vec::with_capacity(range.len());
            let mut work = StageWork::default();
            for q in range {
                let row = queries.row(q);
                let labels = (0..hier.num_trees()).map(|t| stage_split(hier, t, row, &mut work));
                predictions.push(vote(labels, hier.num_classes()));
            }
            let StageWork { stage2_visits: s2, crossings: hops, .. } = work;
            cu.run_loop(chains::HYBRID_STAGE2, s2, s2, NODE_BYTES as u64);
            cu.run_loop(HOP_CHAIN, hops, hops, BYTES_PER_HOP);
            (predictions, cu.finish())
        })
        .collect();

    let mut predictions = Vec::with_capacity(nq);
    let mut stage2_cus = Vec::with_capacity(per_cu.len());
    for (p, c) in per_cu {
        predictions.extend_from_slice(&p);
        stage2_cus.push(c);
    }
    let s1 = combine_cus(&stage1_cus, rep1);
    let s2 = combine_cus(&stage2_cus, rep2);

    // Stages execute back to back; stall is cycle-weighted across both.
    let total_cycles: u64 = stage1_cus.iter().chain(&stage2_cus).map(|c| c.cycles).sum();
    let useful: u64 = stage1_cus.iter().chain(&stage2_cus).map(|c| c.useful_cycles).sum();
    let stats = FpgaStats {
        seconds: s1.seconds + s2.seconds,
        stall_fraction: if total_cycles == 0 {
            0.0
        } else {
            1.0 - useful as f64 / total_cycles as f64
        },
        freq_mhz,
        replication: format!("{}S{}C split", slrs, stage2_cus_per_slr),
        cycles: s1.cycles + s2.cycles,
        ext_read_bytes: s1.ext_read_bytes + s2.ext_read_bytes,
        iterations: s1.iterations + s2.iterations,
        wasted_iterations: s1.wasted_iterations + s2.wasted_iterations,
    };
    let ii1 = rfx_fpga_sim::chain_ii(chains::HYBRID_STAGE1, cfg);
    let ii2 = rfx_fpga_sim::chain_ii(chains::HYBRID_STAGE2, cfg);
    Ok(FpgaRun { predictions, stats, ii_label: format!("{ii1}/{ii2}") })
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
            (0..10).map(|_| DecisionTree::random(&mut rng, 10, 6, 2, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 6, 2).unwrap();
        let queries: Vec<f32> = (0..500 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    #[test]
    fn hybrid_fpga_matches_reference_with_combined_ii() {
        let (forest, queries) = fixture(73);
        let qv = QueryView::new(&queries, 6).unwrap();
        let cfg = FpgaConfig::alveo_u250();
        let h = build_forest(&forest, HierConfig::with_root(4, 8)).unwrap();
        let run = run_hybrid(&cfg, Replication::single(&cfg), &h, qv).unwrap();
        assert_eq!(run.predictions, forest.predict_batch(qv));
        assert_eq!(run.ii_label, "3/76");
    }

    #[test]
    fn hybrid_beats_independent_on_one_cu() {
        // Paper Table 3: hybrid 29.76 s vs independent 54.59 s (1 CU).
        let (forest, queries) = fixture(79);
        let qv = QueryView::new(&queries, 6).unwrap();
        let cfg = FpgaConfig::alveo_u250();
        let h = build_forest(&forest, HierConfig::with_root(4, 8)).unwrap();
        let rep = Replication::single(&cfg);
        let hyb = run_hybrid(&cfg, rep, &h, qv).unwrap();
        let ind = super::super::independent::run_independent(&cfg, rep, &h, qv).unwrap();
        assert_eq!(hyb.predictions, ind.predictions);
        assert!(
            hyb.stats.seconds < ind.stats.seconds,
            "hybrid {} vs independent {}",
            hyb.stats.seconds,
            ind.stats.seconds
        );
    }

    #[test]
    fn split_matches_reference_and_runs_at_245mhz() {
        let (forest, queries) = fixture(83);
        let qv = QueryView::new(&queries, 6).unwrap();
        let cfg = FpgaConfig::alveo_u250();
        let h = build_forest(&forest, HierConfig::with_root(4, 8)).unwrap();
        let run = run_hybrid_split(&cfg, &h, qv, 10, 245.0).unwrap();
        assert_eq!(run.predictions, forest.predict_batch(qv));
        assert!((run.stats.freq_mhz - 245.0).abs() < 1e-9);
        assert!(run.stats.replication.contains("split"));
    }

    #[test]
    fn replicated_independent_beats_replicated_hybrid() {
        // The paper's §4.4 scalability finding: with full replication the
        // independent kernel wins (1.48 s vs 2.44 s).
        let (forest, queries) = fixture(89);
        let qv = QueryView::new(&queries, 6).unwrap();
        let cfg = FpgaConfig::alveo_u250();
        let h = build_forest(&forest, HierConfig::with_root(4, 8)).unwrap();
        let rep = Replication::new(&cfg, 4, 12);
        let hyb = run_hybrid(&cfg, rep, &h, qv).unwrap();
        let ind = super::super::independent::run_independent(&cfg, rep, &h, qv).unwrap();
        assert!(
            ind.stats.seconds < hyb.stats.seconds,
            "independent {} vs hybrid {}",
            ind.stats.seconds,
            hyb.stats.seconds
        );
    }
}
