//! Independent hierarchical GPU kernel (§3.2, first code variant).
//!
//! One thread per query; subtrees traversed with arithmetic child
//! indexing from **global** memory. Versus CSR, each level costs two
//! attribute reads instead of four scattered reads, and the CSR-like
//! indirection (connection arrays) is paid only when the traversal hops
//! between subtrees.
// Lane loops (`for l in 0..32`) index several per-lane arrays in step
// with the `1 << l` mask bit; iterator forms would hide the warp-lane
// correspondence the simulator code mirrors from CUDA.
#![allow(clippy::needless_range_loop)]

use super::{
    grid_for, lane_queries, mask_of, store_predictions, GpuRun, PredictionSink, WarpVotes,
};
use rfx_core::goes_right;
use rfx_core::hier::{HierForest, LEAF_FEATURE};
use rfx_forest::dataset::QueryView;
use rfx_gpu_sim::{AddressSpace, BlockCtx, BlockKernel, DeviceBuffer, GpuSim, LaneAccess};

pub(crate) struct HierBuffers {
    pub feature_id: DeviceBuffer,
    pub value: DeviceBuffer,
    pub subtree_node_offset: DeviceBuffer,
    pub connection_offset: DeviceBuffer,
    pub subtree_connection: DeviceBuffer,
    pub queries: DeviceBuffer,
    pub out: DeviceBuffer,
}

impl HierBuffers {
    pub fn alloc(mem: &mut AddressSpace, h: &HierForest, queries: &QueryView) -> Self {
        Self {
            feature_id: mem.alloc("hier.feature_id", 2, h.total_slots() as u64),
            value: mem.alloc("hier.value", 4, h.total_slots() as u64),
            subtree_node_offset: mem.alloc(
                "hier.subtree_node_offset",
                4,
                h.subtree_node_offset().len() as u64,
            ),
            connection_offset: mem.alloc(
                "hier.connection_offset",
                4,
                h.connection_offset().len() as u64,
            ),
            subtree_connection: mem.alloc(
                "hier.subtree_connection",
                4,
                h.subtree_connection().len().max(1) as u64,
            ),
            queries: mem.alloc("queries", 4, (queries.num_rows() * queries.num_features()) as u64),
            out: mem.alloc("out", 4, queries.num_rows() as u64),
        }
    }
}

/// Per-lane traversal cursor within the hierarchical layout.
#[derive(Clone, Copy)]
struct Cursor {
    subtree: u32,
    node: u32,
}

struct IndependentKernel<'a> {
    hier: &'a HierForest,
    queries: QueryView<'a>,
    bufs: HierBuffers,
    sink: PredictionSink,
}

impl BlockKernel for IndependentKernel<'_> {
    fn shared_mem_bytes(&self) -> usize {
        0
    }

    fn run(&self, ctx: &mut BlockCtx) {
        let nq = self.queries.num_rows();
        for w in 0..ctx.num_warps() {
            let lanes = lane_queries(ctx, w, nq);
            let warp_mask = mask_of(&lanes);
            if warp_mask == 0 {
                continue;
            }
            let mut votes = WarpVotes::new(self.hier.num_classes() as usize);
            for t in 0..self.hier.num_trees() {
                self.traverse_tree(ctx, w, t, &lanes, warp_mask, &mut votes);
            }
            store_predictions(ctx, w, &lanes, &votes, &self.bufs.out, &self.sink);
        }
    }
}

impl IndependentKernel<'_> {
    fn traverse_tree(
        &self,
        ctx: &mut BlockCtx,
        w: usize,
        t: usize,
        lanes: &[Option<u32>; 32],
        warp_mask: u32,
        votes: &mut WarpVotes,
    ) {
        let h = self.hier;
        let nf = self.queries.num_features() as u64;
        let root = h.tree_root_subtree(t);
        let mut cur = [Cursor { subtree: root, node: 0 }; 32];
        let mut active = warp_mask;

        // One (coalescable, heavily cached) read of the root subtree's
        // offset entry per warp.
        let mut acc_off = [LaneAccess::NONE; 32];
        for l in 0..32 {
            if active & (1 << l) != 0 {
                acc_off[l] = LaneAccess::read(self.bufs.subtree_node_offset.addr(root as u64), 4);
            }
        }
        ctx.global_read(w, &acc_off);

        while active != 0 {
            // Attribute loads for the current slot.
            let mut acc_f = [LaneAccess::NONE; 32];
            let mut acc_v = [LaneAccess::NONE; 32];
            for l in 0..32 {
                if active & (1 << l) != 0 {
                    let slot = h.subtree_base(cur[l].subtree) as u64 + cur[l].node as u64;
                    acc_f[l] = LaneAccess::read(self.bufs.feature_id.addr(slot), 2);
                    acc_v[l] = LaneAccess::read(self.bufs.value.addr(slot), 4);
                }
            }
            ctx.global_read(w, &acc_f);
            ctx.global_read(w, &acc_v);

            // Leaf exits.
            let mut leaf_mask = 0u32;
            for l in 0..32 {
                if active & (1 << l) != 0 {
                    let slot = (h.subtree_base(cur[l].subtree) + cur[l].node) as usize;
                    if h.feature_id()[slot] == LEAF_FEATURE {
                        leaf_mask |= 1 << l;
                        votes.add(l, h.value()[slot] as u32);
                    }
                }
            }
            ctx.branch(w, active, leaf_mask);
            active &= !leaf_mask;
            if active == 0 {
                break;
            }

            // Query feature read + arithmetic child computation.
            let mut acc_q = [LaneAccess::NONE; 32];
            for (l, q) in lanes.iter().enumerate() {
                if active & (1 << l) != 0 {
                    let slot = (h.subtree_base(cur[l].subtree) + cur[l].node) as usize;
                    let f = h.feature_id()[slot] as u64;
                    acc_q[l] =
                        LaneAccess::read(self.bufs.queries.addr(q.unwrap() as u64 * nf + f), 4);
                }
            }
            ctx.global_read(w, &acc_q);
            ctx.alu(w, 3); // compare + 2n+1 arithmetic + bounds check

            // Direction branch, then either in-subtree step (free) or a
            // boundary hop (two indirections).
            let mut right_mask = 0u32;
            let mut hop_mask = 0u32;
            let mut acc_co = [LaneAccess::NONE; 32];
            let mut acc_sc = [LaneAccess::NONE; 32];
            for (l, q) in lanes.iter().enumerate() {
                if active & (1 << l) == 0 {
                    continue;
                }
                let s = cur[l].subtree;
                let size = h.subtree_size(s);
                let slot = (h.subtree_base(s) + cur[l].node) as usize;
                let f = h.feature_id()[slot] as usize;
                let v = h.value()[slot];
                let go_right = goes_right(self.queries.row(q.unwrap() as usize)[f], v);
                if go_right {
                    right_mask |= 1 << l;
                }
                let child = 2 * cur[l].node + 1 + u32::from(go_right);
                if child < size {
                    cur[l].node = child;
                } else {
                    hop_mask |= 1 << l;
                    let p = cur[l].node - (size >> 1);
                    let ci = h.connection_base(s) + 2 * p + u32::from(go_right);
                    acc_co[l] = LaneAccess::read(self.bufs.connection_offset.addr(s as u64), 4);
                    acc_sc[l] = LaneAccess::read(self.bufs.subtree_connection.addr(ci as u64), 4);
                    let next = h.subtree_connection()[ci as usize];
                    cur[l] = Cursor { subtree: next, node: 0 };
                }
            }
            ctx.branch(w, active, right_mask);
            ctx.branch(w, active, hop_mask);
            if hop_mask != 0 {
                ctx.global_read(w, &acc_co);
                ctx.global_read(w, &acc_sc);
                // New subtree base lookup for hopping lanes.
                let mut acc_nb = [LaneAccess::NONE; 32];
                for l in 0..32 {
                    if hop_mask & (1 << l) != 0 {
                        acc_nb[l] = LaneAccess::read(
                            self.bufs.subtree_node_offset.addr(cur[l].subtree as u64),
                            4,
                        );
                    }
                }
                ctx.global_read(w, &acc_nb);
            }
        }
    }
}

/// Runs the independent hierarchical variant on the simulated GPU.
pub fn run_independent(sim: &GpuSim, hier: &HierForest, queries: QueryView) -> GpuRun {
    let nq = queries.num_rows();
    let mut mem = AddressSpace::new();
    let bufs = HierBuffers::alloc(&mut mem, hier, &queries);
    let kernel = IndependentKernel { hier, queries, bufs, sink: PredictionSink::new(nq) };
    let stats = sim.launch(grid_for(nq), &kernel);
    GpuRun { predictions: kernel.sink.into_vec(), stats }
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
            (0..8).map(|_| DecisionTree::random(&mut rng, depth, 6, 2, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 6, 2).unwrap();
        let queries: Vec<f32> = (0..400 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    #[test]
    fn independent_matches_reference_across_configs() {
        let (forest, queries) = fixture(3, 8);
        let qv = QueryView::new(&queries, 6).unwrap();
        let sim = GpuSim::new(GpuConfig::tiny_test());
        for cfg in [HierConfig::uniform(2), HierConfig::uniform(4), HierConfig::with_root(3, 6)] {
            let h = build_forest(&forest, cfg).unwrap();
            let run = run_independent(&sim, &h, qv);
            assert_eq!(run.predictions, forest.predict_batch(qv), "{cfg:?}");
        }
    }

    #[test]
    fn independent_issues_fewer_loads_than_csr() {
        let (forest, queries) = fixture(7, 9);
        let qv = QueryView::new(&queries, 6).unwrap();
        let sim = GpuSim::new(GpuConfig::tiny_test());
        let h = build_forest(&forest, HierConfig::uniform(6)).unwrap();
        let ind = run_independent(&sim, &h, qv);
        let csr = super::super::csr::run_csr(&sim, &rfx_core::CsrForest::build(&forest), qv);
        assert!(
            ind.stats.global_load_transactions < csr.stats.global_load_transactions,
            "independent {} vs csr {}",
            ind.stats.global_load_transactions,
            csr.stats.global_load_transactions
        );
        assert!(ind.stats.device_seconds < csr.stats.device_seconds);
    }
}
