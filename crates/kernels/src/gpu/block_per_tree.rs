//! Block-per-tree GPU kernel — the paper's §3.2.1 "Optimization 2".
//!
//! Each thread block is assigned **one tree** and streams *every* query
//! through it, accumulating votes in global memory with atomics. The hope
//! was data re-use (one tree's nodes stay hot in a block's cache); the
//! paper measured a significant slowdown instead, because every block now
//! re-reads the entire query matrix (`q × t` query traffic instead of
//! `q`) and the per-query vote aggregation turns into global atomic
//! read-modify-writes. Kept for the ablation harness.

use super::independent::HierBuffers;
use super::{
    lanes_where, mask_of, query_reads, reads, step_lanes, GpuRun, LaneFetches, PredictionSink,
};
use crate::THREADS_PER_BLOCK;
use rfx_core::hier::HierForest;
use rfx_core::{Label, TreeEnsemble};
use rfx_forest::dataset::QueryView;
use rfx_gpu_sim::{AddressSpace, BlockCtx, BlockKernel, GpuSim, Grid, LaneAccess};
use std::sync::Mutex;

struct BlockPerTreeKernel<'a> {
    hier: &'a HierForest,
    queries: QueryView<'a>,
    bufs: HierBuffers,
    /// Per-query votes, merged across blocks (each block owns one tree).
    votes: Mutex<Vec<u32>>,
}

impl BlockKernel for BlockPerTreeKernel<'_> {
    fn shared_mem_bytes(&self) -> usize {
        0
    }

    fn run(&self, ctx: &mut BlockCtx) {
        let h = self.hier;
        let t = ctx.block_id(); // one tree per block
        let nq = self.queries.num_rows();
        let nf = self.queries.num_features() as u64;
        let nc = h.num_classes() as usize;
        let tpb = ctx.threads_per_block();
        let mut local_votes = vec![0u32; nq * nc];

        // Stream every query through this block's tree.
        let mut chunk = 0usize;
        while chunk * tpb < nq {
            for w in 0..ctx.num_warps() {
                // Lane -> query mapping for this chunk.
                let lane_q: [Option<u32>; 32] = std::array::from_fn(|l| {
                    let q = chunk * tpb + w * 32 + l;
                    (q < nq).then_some(q as u32)
                });
                let warp_mask = mask_of(&lane_q);
                if warp_mask == 0 {
                    continue;
                }

                // Independent-style traversal of tree `t`, without its
                // hop reads or hop branch (EXPERIMENTS.md D6).
                let b = &self.bufs;
                let mut cur = [h.root(t); 32];
                let mut f = [LaneFetches::default(); 32];
                let mut active = warp_mask;
                while active != 0 {
                    let leaves = step_lanes(
                        active,
                        &mut f,
                        |l, sink| {
                            let row = self.queries.row(lane_q[l].unwrap() as usize);
                            h.step_with(&mut cur[l], row, sink)
                        },
                        |l, label| {
                            local_votes[lane_q[l].unwrap() as usize * nc + label as usize] += 1
                        },
                    );
                    b.read_attributes(ctx, w, active, &f);
                    ctx.branch(w, active, leaves);
                    // Vote write-back: a global atomic per finishing lane.
                    if leaves != 0 {
                        let acc_vote = reads(leaves, |l| {
                            LaneAccess::read(b.out.addr(lane_q[l].unwrap() as u64), 4)
                        });
                        // Atomics read and write the line.
                        ctx.global_read(w, &acc_vote);
                        ctx.global_write(w, &acc_vote);
                    }
                    active &= !leaves;
                    if active == 0 {
                        break;
                    }

                    ctx.global_read(w, &query_reads(active, &lane_q, &f, &b.queries, nf));
                    ctx.alu(w, 3);
                    ctx.branch(w, active, lanes_where(active, |l| f[l].right));
                }
            }
            chunk += 1;
        }

        let mut votes = self.votes.lock().expect("vote buffer poisoned");
        for (dst, src) in votes.iter_mut().zip(&local_votes) {
            *dst += src;
        }
    }
}

/// Runs the block-per-tree ablation kernel: grid = one block per tree.
pub fn run_block_per_tree(sim: &GpuSim, hier: &HierForest, queries: QueryView) -> GpuRun {
    let nq = queries.num_rows();
    let nc = hier.num_classes() as usize;
    let mut mem = AddressSpace::new();
    let bufs = HierBuffers::alloc(&mut mem, hier, &queries);
    let kernel = BlockPerTreeKernel { hier, queries, bufs, votes: Mutex::new(vec![0u32; nq * nc]) };
    let grid = Grid { num_blocks: hier.num_trees(), threads_per_block: THREADS_PER_BLOCK };
    let stats = sim.launch(grid, &kernel);
    let votes = kernel.votes.into_inner().expect("vote buffer poisoned");
    let sink = PredictionSink::new(nq);
    let entries: Vec<(u32, Label)> =
        (0..nq).map(|q| (q as u32, rfx_core::majority(&votes[q * nc..(q + 1) * nc]))).collect();
    sink.write(&entries);
    GpuRun { predictions: sink.into_vec(), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_core::hier::{builder::build_forest, HierConfig};
    use rfx_forest::{DecisionTree, RandomForest};
    use rfx_gpu_sim::GpuConfig;

    fn fixture(seed: u64) -> (RandomForest, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..10).map(|_| DecisionTree::random(&mut rng, 9, 6, 2, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 6, 2).unwrap();
        let queries: Vec<f32> = (0..600 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    #[test]
    fn block_per_tree_matches_reference() {
        let (forest, queries) = fixture(97);
        let qv = QueryView::new(&queries, 6).unwrap();
        let h = build_forest(&forest, HierConfig::uniform(4)).unwrap();
        let run = run_block_per_tree(&GpuSim::new(GpuConfig::tiny_test()), &h, qv);
        assert_eq!(run.predictions, forest.predict_batch(qv));
    }

    #[test]
    fn block_per_tree_pays_for_query_rereads_and_atomics() {
        // The paper reports a significant slowdown for this mapping. In
        // our model the dominant extra costs are visible in the counters
        // (t x query-matrix traffic, atomic read-modify-write per vote)
        // but the slowdown itself also depends on atomic serialization
        // and launch-width effects below the simulator's resolution, so
        // we assert the mechanisms rather than the wall-clock ordering —
        // see EXPERIMENTS.md for the discussion.
        let (forest, queries) = fixture(101);
        let qv = QueryView::new(&queries, 6).unwrap();
        let h = build_forest(&forest, HierConfig::uniform(4)).unwrap();
        let sim = GpuSim::new(GpuConfig::tiny_test());
        let bpt = run_block_per_tree(&sim, &h, qv);
        let ind = super::super::independent::run_independent(&sim, &h, qv);
        assert_eq!(bpt.predictions, ind.predictions);
        // Atomic vote RMWs: one read + one write per (query, tree).
        let expected_votes = (qv.num_rows() * forest.num_trees()) as u64;
        assert!(bpt.stats.global_store_transactions >= expected_votes / 32);
        assert!(
            bpt.stats.global_store_transactions > ind.stats.global_store_transactions,
            "per-tree voting must store more than per-query voting"
        );
    }
}
