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
use super::{GpuRun, PredictionSink};
use crate::THREADS_PER_BLOCK;
use rfx_core::hier::{HierForest, LEAF_FEATURE};
use rfx_core::{goes_right, Label};
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
                let mut warp_mask = 0u32;
                for (l, q) in lane_q.iter().enumerate() {
                    if q.is_some() {
                        warp_mask |= 1 << l;
                    }
                }
                if warp_mask == 0 {
                    continue;
                }

                // Independent-style traversal of tree `t`.
                let root = h.tree_root_subtree(t);
                let mut sub = [root; 32];
                let mut node = [0u32; 32];
                let mut active = warp_mask;
                while active != 0 {
                    let mut acc_f = [LaneAccess::NONE; 32];
                    let mut acc_v = [LaneAccess::NONE; 32];
                    for l in 0..32 {
                        if active & (1 << l) != 0 {
                            let slot = h.subtree_base(sub[l]) as u64 + node[l] as u64;
                            acc_f[l] = LaneAccess::read(self.bufs.feature_id.addr(slot), 2);
                            acc_v[l] = LaneAccess::read(self.bufs.value.addr(slot), 4);
                        }
                    }
                    ctx.global_read(w, &acc_f);
                    ctx.global_read(w, &acc_v);

                    let mut leaf_mask = 0u32;
                    for (l, q) in lane_q.iter().enumerate() {
                        if active & (1 << l) != 0 {
                            let slot = (h.subtree_base(sub[l]) + node[l]) as usize;
                            if h.feature_id()[slot] == LEAF_FEATURE {
                                leaf_mask |= 1 << l;
                                local_votes[q.unwrap() as usize * nc + h.value()[slot] as usize] +=
                                    1;
                            }
                        }
                    }
                    ctx.branch(w, active, leaf_mask);
                    // Vote write-back: a global atomic per finishing lane.
                    if leaf_mask != 0 {
                        let mut acc_vote = [LaneAccess::NONE; 32];
                        for (l, q) in lane_q.iter().enumerate() {
                            if leaf_mask & (1 << l) != 0 {
                                acc_vote[l] =
                                    LaneAccess::read(self.bufs.out.addr(q.unwrap() as u64), 4);
                            }
                        }
                        // Atomics read and write the line.
                        ctx.global_read(w, &acc_vote);
                        ctx.global_write(w, &acc_vote);
                    }
                    active &= !leaf_mask;
                    if active == 0 {
                        break;
                    }

                    let mut acc_q = [LaneAccess::NONE; 32];
                    let mut right_mask = 0u32;
                    for (l, q) in lane_q.iter().enumerate() {
                        if active & (1 << l) != 0 {
                            let slot = (h.subtree_base(sub[l]) + node[l]) as usize;
                            let f = h.feature_id()[slot] as usize;
                            let v = h.value()[slot];
                            acc_q[l] = LaneAccess::read(
                                self.bufs.queries.addr(q.unwrap() as u64 * nf + f as u64),
                                4,
                            );
                            let go_right = goes_right(self.queries.row(q.unwrap() as usize)[f], v);
                            if go_right {
                                right_mask |= 1 << l;
                            }
                            let size = h.subtree_size(sub[l]);
                            let child = 2 * node[l] + 1 + u32::from(go_right);
                            if child < size {
                                node[l] = child;
                            } else {
                                let p = node[l] - (size >> 1);
                                let ci = h.connection_base(sub[l]) + 2 * p + u32::from(go_right);
                                sub[l] = h.subtree_connection()[ci as usize];
                                node[l] = 0;
                            }
                        }
                    }
                    ctx.global_read(w, &acc_q);
                    ctx.alu(w, 3);
                    ctx.branch(w, active, right_mask);
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
