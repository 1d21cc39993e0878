//! Collaborative GPU kernel (§3.2, second code variant).
//!
//! Kept for the ablation: the paper measures this variant **10–20× slower
//! than independent** on GPU and drops it from the main evaluation. Every
//! subtree of a tree is staged into shared memory (coalesced), and *all*
//! queries are pushed through *every* staged subtree in lockstep — a
//! query not present in the subtree still costs its presence check, and
//! the block cannot advance until the slowest lane finishes. The
//! simulator reproduces the starvation mechanically.

use super::independent::HierBuffers;
use super::{
    grid_for, lane_queries, lanes_where, mask_of, query_reads, reads, step_lanes,
    store_predictions, GpuRun, LaneFetches, PredictionSink, WarpVotes,
};
use rfx_core::hier::{HierCursor, HierForest, NODE_BYTES};
use rfx_core::TreeEnsemble;
use rfx_forest::dataset::QueryView;
use rfx_gpu_sim::engine::LaunchError;
use rfx_gpu_sim::{AddressSpace, BlockCtx, BlockKernel, GpuSim, LaneAccess};

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

        let b = &self.bufs;
        for t in 0..h.num_trees() {
            // One walk per thread, kept across the staged subtrees: a
            // lane waits on the subtree its cursor stands in, and one that
            // reached a leaf stays on it, in a subtree already passed.
            let mut cursors = vec![h.root(t); ctx.threads_per_block()];

            // Subtree ids within a tree only grow along any path, so one
            // forward pass visits each staged subtree exactly once.
            for s in h.tree_subtrees(t) {
                let waits = |cursors: &[HierCursor], w: usize| {
                    lanes_where(masks[w], |l| cursors[w * 32 + l].subtree() == s)
                };
                if (0..num_warps).all(|w| waits(&cursors, w) == 0) {
                    // "unless no threads in the block need to visit it".
                    continue;
                }
                self.stage_subtree(ctx, s, &masks);
                ctx.barrier();

                for (w, lanes) in lanes_per_warp.iter().enumerate() {
                    if masks[w] == 0 {
                        continue;
                    }
                    // Presence check: every lane pays it.
                    let present = waits(&cursors, w);
                    ctx.branch(w, masks[w], present);
                    if present == 0 {
                        continue;
                    }

                    // Lockstep in-subtree traversal of present lanes.
                    let walks = &mut cursors[w * 32..(w + 1) * 32];
                    let mut f = [LaneFetches::default(); 32];
                    let mut active = present;
                    while active != 0 {
                        ctx.shared_access(w); // staged node attributes
                        let leaves = step_lanes(
                            active,
                            &mut f,
                            |l, sink| {
                                let row = self.queries.row(lanes[l].unwrap() as usize);
                                h.step_with(&mut walks[l], row, sink)
                            },
                            |l, label| votes[w].add(l, label),
                        );
                        ctx.branch(w, active, leaves);
                        active &= !leaves;
                        if active == 0 {
                            break;
                        }

                        ctx.global_read(w, &query_reads(active, lanes, &f, &b.queries, nf));
                        ctx.alu(w, 3);

                        let hops = lanes_where(active, |l| !f[l].topology().is_empty());
                        ctx.branch(w, active, lanes_where(active, |l| f[l].right));
                        ctx.branch(w, active, hops);
                        if hops != 0 {
                            // Connection lookups stay in global memory, each
                            // charged at the subtree's first connection
                            // entry (EXPERIMENTS.md D6).
                            let first = u64::from(h.connection_base(s));
                            let at = b.subtree_connection.addr(first);
                            ctx.global_read(w, &reads(hops, |_| LaneAccess::read(at, 4)));
                        }
                        active &= !hops;
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
            for (w, &mask) in masks.iter().enumerate() {
                if mask == 0 || word >= words {
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
