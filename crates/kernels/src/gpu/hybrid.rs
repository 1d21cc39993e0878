//! Hybrid hierarchical GPU kernel (§3.2, third code variant — the paper's
//! best performer).
//!
//! For each tree, the block cooperatively stages the tree's **root
//! subtree** into shared memory with coalesced loads, synchronizes, and
//! then lets every thread traverse: levels inside the root subtree read
//! node attributes from shared memory; the remaining subtrees are
//! traversed from global memory exactly like the independent kernel. The
//! root-subtree depth (RSD) is bounded by the 48 KB shared-memory budget —
//! requesting more is a typed launch error, the same wall the paper hits.

use super::independent::HierBuffers;
use super::{
    grid_for, lane_queries, lanes_where, mask_of, query_reads, step_lanes, store_predictions,
    GpuRun, LaneFetches, PredictionSink, WarpVotes,
};
use rfx_core::hier::{HierForest, NODE_BYTES};
use rfx_core::TreeEnsemble;
use rfx_forest::dataset::QueryView;
use rfx_gpu_sim::engine::LaunchError;
use rfx_gpu_sim::{AddressSpace, BlockCtx, BlockKernel, GpuSim, LaneAccess};

struct HybridKernel<'a> {
    hier: &'a HierForest,
    queries: QueryView<'a>,
    bufs: HierBuffers,
    sink: PredictionSink,
    shared_bytes: usize,
}

impl BlockKernel for HybridKernel<'_> {
    fn shared_mem_bytes(&self) -> usize {
        self.shared_bytes
    }

    fn run(&self, ctx: &mut BlockCtx) {
        let h = self.hier;
        let nq = self.queries.num_rows();
        let num_warps = ctx.num_warps();
        let lanes_per_warp: Vec<[Option<u32>; 32]> =
            (0..num_warps).map(|w| lane_queries(ctx, w, nq)).collect();
        let masks: Vec<u32> = lanes_per_warp.iter().map(mask_of).collect();
        if masks.iter().all(|&m| m == 0) {
            return;
        }
        let mut votes: Vec<WarpVotes> =
            (0..num_warps).map(|_| WarpVotes::new(h.num_classes() as usize)).collect();

        for t in 0..h.num_trees() {
            let root = h.tree_root_subtree(t);
            self.stage_root_subtree(ctx, root, &masks);
            ctx.barrier();
            for w in 0..num_warps {
                if masks[w] != 0 {
                    self.traverse_tree(ctx, w, t, &lanes_per_warp[w], masks[w], &mut votes[w]);
                }
            }
            ctx.barrier();
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

impl HybridKernel<'_> {
    /// Cooperative, coalesced staging of the root subtree: the block's
    /// warps stride over the node records in 32 × 4-byte chunks; each
    /// chunk is one coalesced global read plus one shared-memory store.
    fn stage_root_subtree(&self, ctx: &mut BlockCtx, root: u32, masks: &[u32]) {
        let h = self.hier;
        let bytes = h.subtree_size(root) as usize * NODE_BYTES;
        let words = bytes.div_ceil(4);
        let chunks = words.div_ceil(32);
        // Stage from the packed attribute arrays: address both feature_id
        // and value ranges through the value buffer's granularity — for
        // transaction counting only the byte span matters.
        let base_word = h.subtree_base(root) as u64 * NODE_BYTES as u64 / 4;
        let mut chunk = 0usize;
        'outer: loop {
            for (w, &mask) in masks.iter().enumerate() {
                if mask == 0 {
                    continue;
                }
                if chunk >= chunks {
                    break 'outer;
                }
                let mut acc = [LaneAccess::NONE; 32];
                for (l, a) in acc.iter_mut().enumerate() {
                    let word = chunk * 32 + l;
                    if word < words {
                        *a = LaneAccess::read(
                            self.bufs
                                .value
                                .addr((base_word + word as u64).min(self.bufs.value.len() - 1)),
                            4,
                        );
                    }
                }
                ctx.global_read_bulk(w, &acc);
                ctx.shared_access(w);
                chunk += 1;
            }
            if chunk >= chunks {
                break;
            }
        }
    }

    fn traverse_tree(
        &self,
        ctx: &mut BlockCtx,
        w: usize,
        t: usize,
        lanes: &[Option<u32>; 32],
        warp_mask: u32,
        votes: &mut WarpVotes,
    ) {
        let (h, b) = (self.hier, &self.bufs);
        let nf = self.queries.num_features() as u64;
        let root = h.tree_root_subtree(t);
        let mut cur = [h.root(t); 32];
        let mut f = [LaneFetches::default(); 32];
        let mut active = warp_mask;

        while active != 0 {
            // Node attributes: shared for root-subtree lanes, global for
            // the rest.
            let shared = lanes_where(active, |l| cur[l].subtree() == root);
            let leaves = step_lanes(
                active,
                &mut f,
                |l, sink| {
                    h.step_with(&mut cur[l], self.queries.row(lanes[l].unwrap() as usize), sink)
                },
                |l, label| votes.add(l, label),
            );
            if shared != 0 {
                ctx.shared_access(w);
            }
            if active & !shared != 0 {
                b.read_attributes(ctx, w, active & !shared, &f);
            }

            // Leaf exits.
            ctx.branch(w, active, leaves);
            active &= !leaves;
            if active == 0 {
                break;
            }

            // Query feature (global) + child arithmetic.
            ctx.global_read(w, &query_reads(active, lanes, &f, &b.queries, nf));
            ctx.alu(w, 3);

            // Direction and hop branches; a hop reads the two connection
            // entries, not the next subtree's base (EXPERIMENTS.md D6).
            let hops = lanes_where(active, |l| !f[l].topology().is_empty());
            ctx.branch(w, active, lanes_where(active, |l| f[l].right));
            ctx.branch(w, active, hops);
            b.read_hops(ctx, w, hops, &f, 2);
        }
    }
}

/// Shared-memory bytes the hybrid kernel needs for a layout: the largest
/// root subtree, staged as 6-byte records.
pub fn hybrid_shared_bytes(hier: &HierForest) -> usize {
    (0..hier.num_trees())
        .map(|t| hier.subtree_size(hier.tree_root_subtree(t)) as usize * NODE_BYTES)
        .max()
        .unwrap_or(0)
}

/// Runs the hybrid variant on the simulated GPU. Fails with
/// [`LaunchError::SharedMemExceeded`] when the root subtree does not fit
/// in shared memory (RSD too large — the paper's 48 KB wall).
pub fn run_hybrid(
    sim: &GpuSim,
    hier: &HierForest,
    queries: QueryView,
) -> Result<GpuRun, LaunchError> {
    let nq = queries.num_rows();
    // Stage span: layout/buffer setup vs. the simulated launch (which
    // opens its own `gpusim.launch` child span). Recorded into the
    // ambient domain so a serving batch's trace owns the device phases.
    let tel = rfx_telemetry::current();
    let _span = rfx_telemetry::span!(tel, "kernels.gpu.hybrid", queries = nq);
    let mut mem = AddressSpace::new();
    let bufs = HierBuffers::alloc(&mut mem, hier, &queries);
    let kernel = HybridKernel {
        hier,
        queries,
        bufs,
        sink: PredictionSink::new(nq),
        shared_bytes: hybrid_shared_bytes(hier),
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

    fn fixture(seed: u64, depth: usize) -> (RandomForest, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..8).map(|_| DecisionTree::random(&mut rng, depth, 6, 2, 0.25)).collect();
        let forest = RandomForest::from_trees(trees, 6, 2).unwrap();
        let queries: Vec<f32> = (0..400 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    #[test]
    fn hybrid_matches_reference_across_configs() {
        let (forest, queries) = fixture(11, 9);
        let qv = QueryView::new(&queries, 6).unwrap();
        let sim = GpuSim::new(GpuConfig::tiny_test());
        for cfg in
            [HierConfig::uniform(3), HierConfig::with_root(3, 6), HierConfig::with_root(2, 8)]
        {
            let h = build_forest(&forest, cfg).unwrap();
            let run = run_hybrid(&sim, &h, qv).unwrap();
            assert_eq!(run.predictions, forest.predict_batch(qv), "{cfg:?}");
            assert!(run.stats.shared_accesses > 0, "root subtree must be staged");
        }
    }

    #[test]
    fn hybrid_reduces_global_loads_vs_independent() {
        let (forest, queries) = fixture(13, 10);
        let qv = QueryView::new(&queries, 6).unwrap();
        let sim = GpuSim::new(GpuConfig::tiny_test());
        let h = build_forest(&forest, HierConfig::with_root(4, 8)).unwrap();
        let hyb = run_hybrid(&sim, &h, qv).unwrap();
        let ind = super::super::independent::run_independent(&sim, &h, qv);
        assert_eq!(hyb.predictions, ind.predictions);
        assert!(
            hyb.stats.global_load_transactions < ind.stats.global_load_transactions,
            "hybrid {} vs independent {}",
            hyb.stats.global_load_transactions,
            ind.stats.global_load_transactions
        );
    }

    #[test]
    fn oversized_root_subtree_is_rejected() {
        // tiny_test has 4 KB shared memory; a root subtree of depth 10
        // (1023 nodes x 6 B) cannot fit.
        let (forest, queries) = fixture(17, 12);
        let qv = QueryView::new(&queries, 6).unwrap();
        let sim = GpuSim::new(GpuConfig::tiny_test());
        let h = build_forest(&forest, HierConfig::with_root(4, 10)).unwrap();
        // Only meaningful if some tree actually has a deep root subtree.
        if hybrid_shared_bytes(&h) > 4096 {
            let err = run_hybrid(&sim, &h, qv).unwrap_err();
            assert!(matches!(err, LaunchError::SharedMemExceeded { .. }));
        } else {
            panic!("fixture too shallow for the capacity test");
        }
    }
}
