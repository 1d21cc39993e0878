//! Collaborative GPU kernel (§3.2, second code variant).
//!
//! Kept for the ablation: the paper measures this variant **10–20× slower
//! than independent** on GPU and drops it from the main evaluation. Every
//! subtree of a tree is staged into shared memory (coalesced), and *all*
//! queries are pushed through *every* staged subtree in lockstep — a
//! query not present in the subtree still costs its presence check, and
//! the block cannot advance until the slowest lane finishes. The
//! simulator reproduces the starvation mechanically.
// Lane loops (`for l in 0..32`) index several per-lane arrays in step
// with the `1 << l` mask bit; iterator forms would hide the warp-lane
// correspondence the simulator code mirrors from CUDA.
#![allow(clippy::needless_range_loop)]

use super::independent::HierBuffers;
use super::{
    grid_for, lane_queries, mask_of, store_predictions, GpuRun, PredictionSink, WarpVotes,
};
use rfx_core::goes_right;
use rfx_core::hier::{HierForest, LEAF_FEATURE};
use rfx_forest::dataset::QueryView;
use rfx_gpu_sim::engine::LaunchError;
use rfx_gpu_sim::{AddressSpace, BlockCtx, BlockKernel, GpuSim, LaneAccess};

const NODE_BYTES: usize = 6;

struct CollaborativeKernel<'a> {
    hier: &'a HierForest,
    queries: QueryView<'a>,
    bufs: HierBuffers,
    sink: PredictionSink,
    shared_bytes: usize,
}

impl BlockKernel for CollaborativeKernel<'_> {
    fn shared_mem_bytes(&self) -> usize {
        self.shared_bytes
    }

    fn run(&self, ctx: &mut BlockCtx) {
        let h = self.hier;
        let nq = self.queries.num_rows();
        let nf = self.queries.num_features() as u64;
        let num_warps = ctx.num_warps();
        let lanes_per_warp: Vec<[Option<u32>; 32]> =
            (0..num_warps).map(|w| lane_queries(ctx, w, nq)).collect();
        let masks: Vec<u32> = lanes_per_warp.iter().map(mask_of).collect();
        if masks.iter().all(|&m| m == 0) {
            return;
        }
        let mut votes: Vec<WarpVotes> =
            (0..num_warps).map(|_| WarpVotes::new(h.num_classes() as usize)).collect();

        // Per-thread traversal state: the subtree each query waits on
        // (u32::MAX once the tree is classified).
        const DONE: u32 = u32::MAX;
        let tpb = ctx.threads_per_block();
        let mut waiting = vec![DONE; tpb];

        for t in 0..h.num_trees() {
            let root = h.tree_root_subtree(t);
            for (w, lanes) in lanes_per_warp.iter().enumerate() {
                for (l, q) in lanes.iter().enumerate() {
                    if q.is_some() {
                        waiting[w * 32 + l] = root;
                    }
                }
            }

            // Subtree ids within a tree only grow along any path, so one
            // forward pass visits each staged subtree exactly once.
            for s in h.tree_subtrees(t) {
                if !waiting.contains(&s) {
                    // "unless no threads in the block need to visit it".
                    continue;
                }
                self.stage_subtree(ctx, s, &masks);
                ctx.barrier();

                let base = h.subtree_base(s) as usize;
                let size = h.subtree_size(s);
                for (w, lanes) in lanes_per_warp.iter().enumerate() {
                    if masks[w] == 0 {
                        continue;
                    }
                    // Presence check: every lane pays it.
                    let mut present = 0u32;
                    for l in 0..32 {
                        if masks[w] & (1 << l) != 0 && waiting[w * 32 + l] == s {
                            present |= 1 << l;
                        }
                    }
                    ctx.branch(w, masks[w], present);
                    if present == 0 {
                        continue;
                    }

                    // Lockstep in-subtree traversal of present lanes.
                    let mut node = [0u32; 32];
                    let mut active = present;
                    while active != 0 {
                        ctx.shared_access(w); // staged node attributes
                        let mut leaf_mask = 0u32;
                        for l in 0..32 {
                            if active & (1 << l) != 0 {
                                let slot = base + node[l] as usize;
                                if h.feature_id()[slot] == LEAF_FEATURE {
                                    leaf_mask |= 1 << l;
                                    votes[w].add(l, h.value()[slot] as u32);
                                    waiting[w * 32 + l] = DONE;
                                }
                            }
                        }
                        ctx.branch(w, active, leaf_mask);
                        active &= !leaf_mask;
                        if active == 0 {
                            break;
                        }

                        let mut acc_q = [LaneAccess::NONE; 32];
                        for (l, q) in lanes.iter().enumerate() {
                            if active & (1 << l) != 0 {
                                let slot = base + node[l] as usize;
                                let f = h.feature_id()[slot] as u64;
                                acc_q[l] = LaneAccess::read(
                                    self.bufs.queries.addr(q.unwrap() as u64 * nf + f),
                                    4,
                                );
                            }
                        }
                        ctx.global_read(w, &acc_q);
                        ctx.alu(w, 3);

                        let mut right_mask = 0u32;
                        let mut hop_mask = 0u32;
                        for (l, q) in lanes.iter().enumerate() {
                            if active & (1 << l) == 0 {
                                continue;
                            }
                            let slot = base + node[l] as usize;
                            let f = h.feature_id()[slot] as usize;
                            let v = h.value()[slot];
                            let go_right = goes_right(self.queries.row(q.unwrap() as usize)[f], v);
                            if go_right {
                                right_mask |= 1 << l;
                            }
                            let child = 2 * node[l] + 1 + u32::from(go_right);
                            if child < size {
                                node[l] = child;
                            } else {
                                hop_mask |= 1 << l;
                                let p = node[l] - (size >> 1);
                                let ci = h.connection_base(s) + 2 * p + u32::from(go_right);
                                waiting[w * 32 + l] = h.subtree_connection()[ci as usize];
                            }
                        }
                        ctx.branch(w, active, right_mask);
                        ctx.branch(w, active, hop_mask);
                        if hop_mask != 0 {
                            // Connection lookups stay in global memory.
                            let mut acc_sc = [LaneAccess::NONE; 32];
                            for l in 0..32 {
                                if hop_mask & (1 << l) != 0 {
                                    acc_sc[l] = LaneAccess::read(
                                        self.bufs
                                            .subtree_connection
                                            .addr(h.connection_base(s) as u64),
                                        4,
                                    );
                                }
                            }
                            ctx.global_read(w, &acc_sc);
                        }
                        active &= !hop_mask;
                    }
                }
                ctx.barrier();
            }
        }
        for w in 0..num_warps {
            if masks[w] != 0 {
                store_predictions(
                    ctx,
                    w,
                    &lanes_per_warp[w],
                    &votes[w],
                    &self.bufs.out,
                    &self.sink,
                );
            }
        }
    }
}

impl CollaborativeKernel<'_> {
    fn stage_subtree(&self, ctx: &mut BlockCtx, s: u32, masks: &[u32]) {
        let h = self.hier;
        let bytes = h.subtree_size(s) as usize * NODE_BYTES;
        let words = bytes.div_ceil(4);
        let base_word = h.subtree_base(s) as u64 * NODE_BYTES as u64 / 4;
        let mut word = 0usize;
        while word < words {
            for w in 0..masks.len() {
                if masks[w] == 0 || word >= words {
                    continue;
                }
                let mut acc = [LaneAccess::NONE; 32];
                for (l, a) in acc.iter_mut().enumerate() {
                    if word + l < words {
                        *a = LaneAccess::read(
                            self.bufs.value.addr(
                                (base_word + (word + l) as u64).min(self.bufs.value.len() - 1),
                            ),
                            4,
                        );
                    }
                }
                ctx.global_read_bulk(w, &acc);
                ctx.shared_access(w);
                word += 32;
            }
        }
    }
}

/// Shared bytes the collaborative kernel allocates: the paper's design
/// batches subtrees to fill the whole per-SM shared memory
/// (`s = log2(M/48)`, §3.2), so the block claims the entire budget. This
/// is a large part of why the variant loses: one resident block per SM
/// means no other block can hide its staging-and-barrier latency.
pub fn collaborative_shared_bytes(sim: &GpuSim, hier: &HierForest) -> usize {
    let largest = (0..hier.num_subtrees() as u32)
        .map(|s| hier.subtree_size(s) as usize * NODE_BYTES)
        .max()
        .unwrap_or(0);
    (sim.config().shared_mem_per_sm as usize).max(largest)
}

/// Runs the collaborative variant on the simulated GPU.
pub fn run_collaborative(
    sim: &GpuSim,
    hier: &HierForest,
    queries: QueryView,
) -> Result<GpuRun, LaunchError> {
    let nq = queries.num_rows();
    let mut mem = AddressSpace::new();
    let bufs = HierBuffers::alloc(&mut mem, hier, &queries);
    let kernel = CollaborativeKernel {
        hier,
        queries,
        bufs,
        sink: PredictionSink::new(nq),
        shared_bytes: collaborative_shared_bytes(sim, hier),
    };
    let stats = sim.try_launch(grid_for(nq), &kernel)?;
    Ok(GpuRun { predictions: kernel.sink.into_vec(), stats })
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
            (0..6).map(|_| DecisionTree::random(&mut rng, 8, 6, 2, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 6, 2).unwrap();
        let queries: Vec<f32> = (0..300 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    fn big_fixture(seed: u64) -> (RandomForest, Vec<f32>) {
        // The collaborative penalty (every block re-stages every subtree)
        // only shows once the forest dwarfs the caches, as the paper's
        // forests do: ~25 trees x ~20k nodes = multiple MB.
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..25).map(|_| DecisionTree::random(&mut rng, 20, 12, 2, 0.15)).collect();
        let forest = RandomForest::from_trees(trees, 12, 2).unwrap();
        let queries: Vec<f32> = (0..4096 * 12).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    #[test]
    fn collaborative_matches_reference() {
        let (forest, queries) = fixture(23);
        let qv = QueryView::new(&queries, 6).unwrap();
        let sim = GpuSim::new(GpuConfig::tiny_test());
        for cfg in [HierConfig::uniform(2), HierConfig::uniform(4)] {
            let h = build_forest(&forest, cfg).unwrap();
            let run = run_collaborative(&sim, &h, qv).unwrap();
            assert_eq!(run.predictions, forest.predict_batch(qv), "{cfg:?}");
        }
    }

    #[test]
    fn collaborative_is_slower_than_independent() {
        // The paper's §3.2.1 ablation reports 10-20x at full scale
        // (100-tree forests with thousands of subtrees per tree). The gap
        // grows with staging volume — forest slots over path length — so
        // at this unit-test scale we assert the direction and a decisive
        // margin; the full-scale factor is exercised by the `ablation`
        // bench harness.
        let (forest, queries) = big_fixture(29);
        let qv = QueryView::new(&queries, 12).unwrap();
        let sim = GpuSim::new(GpuConfig::titan_xp_slice());
        let h = build_forest(&forest, HierConfig::uniform(6)).unwrap();
        let coll = run_collaborative(&sim, &h, qv).unwrap();
        let ind = super::super::independent::run_independent(&sim, &h, qv);
        assert_eq!(coll.predictions, ind.predictions);
        let slowdown = coll.stats.device_seconds / ind.stats.device_seconds;
        assert!(slowdown > 1.3, "collaborative should be clearly slower, got {slowdown:.2}x");
    }
}
