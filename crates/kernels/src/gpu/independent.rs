//! Independent hierarchical GPU kernel (§3.2, first code variant).
//!
//! One thread per query; subtrees traversed with arithmetic child
//! indexing from **global** memory. Versus CSR, each level costs two
//! attribute reads instead of four scattered reads, and the CSR-like
//! indirection (connection arrays) is paid only when the traversal hops
//! between subtrees.

use super::{
    grid_for, lane_queries, lanes_where, mask_of, query_reads, reads, step_lanes,
    store_predictions, GpuRun, LaneFetches, PredictionSink, Region, WarpVotes,
};
use rfx_core::hier::HierForest;
use rfx_core::TreeEnsemble;
use rfx_forest::dataset::QueryView;
use rfx_gpu_sim::{AddressSpace, BlockCtx, BlockKernel, DeviceBuffer, GpuSim, LaneAccess};

/// The hierarchical layout's arrays in device memory, and its two fetch
/// regions over them (see [`HierForest::step_with`]).
pub(crate) struct HierBuffers {
    /// `feature_id` (2 B) then `value` (4 B) per slot.
    pub attributes: Region<2>,
    /// `subtree_node_offset`, `connection_offset`, `subtree_connection`.
    pub topology: Region<3>,
    pub value: DeviceBuffer,
    pub subtree_node_offset: DeviceBuffer,
    pub subtree_connection: DeviceBuffer,
    pub queries: DeviceBuffer,
    pub out: DeviceBuffer,
}

impl HierBuffers {
    pub fn alloc(mem: &mut AddressSpace, h: &HierForest, queries: &QueryView) -> Self {
        let feature_id = mem.alloc("hier.feature_id", 2, h.total_slots() as u64);
        let value = mem.alloc("hier.value", 4, h.total_slots() as u64);
        let subtree_node_offset =
            mem.alloc("hier.subtree_node_offset", 4, h.subtree_node_offset().len() as u64);
        let connection_offset =
            mem.alloc("hier.connection_offset", 4, h.connection_offset().len() as u64);
        // The connection base past the last subtree is the array's length.
        let connections = h.connection_base(h.num_subtrees() as u32);
        let subtree_connection =
            mem.alloc("hier.subtree_connection", 4, u64::from(connections.max(1)));
        Self {
            attributes: Region::new([feature_id, value]),
            topology: Region::new([subtree_node_offset, connection_offset, subtree_connection]),
            value,
            subtree_node_offset,
            subtree_connection,
            queries: mem.alloc("queries", 4, (queries.num_rows() * queries.num_features()) as u64),
            out: mem.alloc("out", 4, queries.num_rows() as u64),
        }
    }

    /// The global reads of a slot's feature (2 B), then its value (4 B),
    /// by the lanes of `mask`.
    pub fn read_attributes(
        &self,
        ctx: &mut BlockCtx,
        w: usize,
        mask: u32,
        fetches: &[LaneFetches; 32],
    ) {
        for (k, bytes) in [(0, 2), (1, 4)] {
            let at = |l: usize| self.attributes.read(fetches[l].attributes()[k], bytes);
            ctx.global_read(w, &reads(mask, at));
        }
    }

    /// The global reads of the first `n` topology fetches of a subtree
    /// hop by the lanes of `hops`.
    pub fn read_hops(
        &self,
        ctx: &mut BlockCtx,
        w: usize,
        hops: u32,
        fetches: &[LaneFetches; 32],
        n: usize,
    ) {
        if hops == 0 {
            return;
        }
        for k in 0..n {
            ctx.global_read(w, &reads(hops, |l| self.topology.read(fetches[l].topology()[k], 4)));
        }
    }
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
        let (h, b) = (self.hier, &self.bufs);
        let nf = self.queries.num_features() as u64;
        let mut cur = [h.root(t); 32];
        let mut f = [LaneFetches::default(); 32];
        let mut active = warp_mask;

        // One (coalescable, heavily cached) read of the root subtree's
        // offset entry per warp.
        let root_offset = b.subtree_node_offset.addr(u64::from(h.tree_root_subtree(t)));
        ctx.global_read(w, &reads(active, |_| LaneAccess::read(root_offset, 4)));

        while active != 0 {
            let leaves = step_lanes(
                active,
                &mut f,
                |l, sink| {
                    h.step_with(&mut cur[l], self.queries.row(lanes[l].unwrap() as usize), sink)
                },
                |l, label| votes.add(l, label),
            );
            // Attribute loads for the current slot, then the leaf exits.
            b.read_attributes(ctx, w, active, &f);
            ctx.branch(w, active, leaves);
            active &= !leaves;
            if active == 0 {
                break;
            }

            // Query feature read + arithmetic child computation.
            ctx.global_read(w, &query_reads(active, lanes, &f, &b.queries, nf));
            ctx.alu(w, 3); // compare + 2n+1 arithmetic + bounds check

            // Direction branch, then either an in-subtree step (free) or
            // a boundary hop: two indirections and the new subtree's base.
            let hops = lanes_where(active, |l| !f[l].topology().is_empty());
            ctx.branch(w, active, lanes_where(active, |l| f[l].right));
            ctx.branch(w, active, hops);
            b.read_hops(ctx, w, hops, &f, 3);
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
