//! CSR baseline GPU kernel (the paper's §2.3 reference implementation).

use super::{
    grid_for, lane_queries, mask_of, store_predictions, GpuRun, PredictionSink, WarpVotes,
};
use rfx_core::csr::{CsrForest, LEAF_FEATURE};
use rfx_core::goes_right;
use rfx_forest::dataset::QueryView;
use rfx_gpu_sim::{AddressSpace, BlockCtx, BlockKernel, DeviceBuffer, GpuSim, LaneAccess};

struct Buffers {
    feature_id: DeviceBuffer,
    value: DeviceBuffer,
    children_arr_idx: DeviceBuffer,
    children_arr: DeviceBuffer,
    queries: DeviceBuffer,
    out: DeviceBuffer,
}

struct CsrKernel<'a> {
    csr: &'a CsrForest,
    queries: QueryView<'a>,
    bufs: Buffers,
    sink: PredictionSink,
}

impl BlockKernel for CsrKernel<'_> {
    fn shared_mem_bytes(&self) -> usize {
        0
    }

    fn run(&self, ctx: &mut BlockCtx) {
        let nq = self.queries.num_rows();
        let nf = self.queries.num_features() as u64;
        for w in 0..ctx.num_warps() {
            let lanes = lane_queries(ctx, w, nq);
            let warp_mask = mask_of(&lanes);
            if warp_mask == 0 {
                continue;
            }
            let mut votes = WarpVotes::new(self.csr.num_classes() as usize);

            for t in 0..self.csr.num_trees() {
                let node_base = self.csr.tree_node_base(t) as u64;
                let child_base = self.csr.tree_child_base(t) as u64;
                let mut node = [0u32; 32];
                let mut active = warp_mask;

                while active != 0 {
                    // Two attribute loads: feature_id (2 B) and value (4 B).
                    let mut acc_f = [LaneAccess::NONE; 32];
                    let mut acc_v = [LaneAccess::NONE; 32];
                    for l in 0..32 {
                        if active & (1 << l) != 0 {
                            let n = node_base + node[l] as u64;
                            acc_f[l] = LaneAccess::read(self.bufs.feature_id.addr(n), 2);
                            acc_v[l] = LaneAccess::read(self.bufs.value.addr(n), 4);
                        }
                    }
                    ctx.global_read(w, &acc_f);
                    ctx.global_read(w, &acc_v);

                    // Leaf check (divergent exit branch).
                    let mut leaf_mask = 0u32;
                    for (l, q) in lanes.iter().enumerate() {
                        if active & (1 << l) != 0 {
                            let n = (node_base + node[l] as u64) as usize;
                            if self.csr.feature_id()[n] == LEAF_FEATURE {
                                leaf_mask |= 1 << l;
                                votes.add(l, self.csr.value()[n] as u32);
                                let _ = q;
                            }
                        }
                    }
                    ctx.branch(w, active, leaf_mask);
                    active &= !leaf_mask;
                    if active == 0 {
                        break;
                    }

                    // Topology indirection: children_arr_idx, then query
                    // feature, then the selected children_arr entry.
                    let mut acc_i = [LaneAccess::NONE; 32];
                    let mut acc_q = [LaneAccess::NONE; 32];
                    for (l, q) in lanes.iter().enumerate() {
                        if active & (1 << l) != 0 {
                            let n = node_base + node[l] as u64;
                            acc_i[l] = LaneAccess::read(self.bufs.children_arr_idx.addr(n), 4);
                            let f = self.csr.feature_id()[n as usize] as u64;
                            acc_q[l] = LaneAccess::read(
                                self.bufs.queries.addr(q.unwrap() as u64 * nf + f),
                                4,
                            );
                        }
                    }
                    ctx.global_read(w, &acc_i);
                    ctx.global_read(w, &acc_q);
                    ctx.alu(w, 2);

                    // Direction branch (data-divergent) and child fetch.
                    let mut right_mask = 0u32;
                    let mut acc_c = [LaneAccess::NONE; 32];
                    for (l, q) in lanes.iter().enumerate() {
                        if active & (1 << l) != 0 {
                            let n = (node_base + node[l] as u64) as usize;
                            let f = self.csr.feature_id()[n] as usize;
                            let v = self.csr.value()[n];
                            let go_right = goes_right(self.queries.row(q.unwrap() as usize)[f], v);
                            if go_right {
                                right_mask |= 1 << l;
                            }
                            let idx = self.csr.children_arr_idx()[n] as u64;
                            let slot = child_base + idx + u64::from(go_right);
                            acc_c[l] = LaneAccess::read(self.bufs.children_arr.addr(slot), 4);
                            node[l] = self.csr.children_arr()[slot as usize];
                        }
                    }
                    ctx.branch(w, active, right_mask);
                    ctx.global_read(w, &acc_c);
                }
            }
            store_predictions(ctx, w, &lanes, &votes, &self.bufs.out, &self.sink);
        }
    }
}

/// Runs CSR-based classification of `queries` on the simulated GPU.
pub fn run_csr(sim: &GpuSim, csr: &CsrForest, queries: QueryView) -> GpuRun {
    let nq = queries.num_rows();
    let mut mem = AddressSpace::new();
    let bufs = Buffers {
        feature_id: mem.alloc("csr.feature_id", 2, csr.total_nodes() as u64),
        value: mem.alloc("csr.value", 4, csr.total_nodes() as u64),
        children_arr_idx: mem.alloc("csr.children_arr_idx", 4, csr.total_nodes() as u64),
        children_arr: mem.alloc("csr.children_arr", 4, csr.children_arr().len().max(1) as u64),
        queries: mem.alloc("queries", 4, (nq * queries.num_features()) as u64),
        out: mem.alloc("out", 4, nq as u64),
    };
    let kernel = CsrKernel { csr, queries, bufs, sink: PredictionSink::new(nq) };
    let stats = sim.launch(grid_for(nq), &kernel);
    GpuRun { predictions: kernel.sink.into_vec(), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_forest::{DecisionTree, RandomForest};
    use rfx_gpu_sim::GpuConfig;

    fn fixture(seed: u64) -> (RandomForest, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<DecisionTree> =
            (0..7).map(|_| DecisionTree::random(&mut rng, 7, 6, 2, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 6, 2).unwrap();
        let queries: Vec<f32> = (0..300 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    #[test]
    fn csr_kernel_matches_reference() {
        let (forest, queries) = fixture(1);
        let qv = QueryView::new(&queries, 6).unwrap();
        let csr = CsrForest::build(&forest);
        let sim = GpuSim::new(GpuConfig::tiny_test());
        let run = run_csr(&sim, &csr, qv);
        assert_eq!(run.predictions, forest.predict_batch(qv));
        assert!(run.stats.global_load_transactions > 0);
        assert!(run.stats.device_seconds > 0.0);
    }

    #[test]
    fn csr_kernel_counts_divergence() {
        let (forest, queries) = fixture(2);
        let qv = QueryView::new(&queries, 6).unwrap();
        let csr = CsrForest::build(&forest);
        let run = run_csr(&GpuSim::new(GpuConfig::tiny_test()), &csr, qv);
        assert!(run.stats.branch_total > 0);
        assert!(
            run.stats.branch_efficiency() < 1.0,
            "random trees must diverge: {}",
            run.stats.branch_efficiency()
        );
    }

    #[test]
    fn more_trees_cost_more_time() {
        let mut rng = StdRng::seed_from_u64(5);
        let make = |n: usize| {
            let trees: Vec<DecisionTree> = (0..n)
                .map(|_| DecisionTree::random(&mut StdRng::seed_from_u64(9), 7, 6, 2, 0.3))
                .collect();
            RandomForest::from_trees(trees, 6, 2).unwrap()
        };
        let queries: Vec<f32> = (0..256 * 6).map(|_| rng.gen()).collect();
        let qv = QueryView::new(&queries, 6).unwrap();
        let sim = GpuSim::new(GpuConfig::tiny_test());
        let small = run_csr(&sim, &CsrForest::build(&make(2)), qv);
        let large = run_csr(&sim, &CsrForest::build(&make(16)), qv);
        assert!(large.stats.device_seconds > small.stats.device_seconds);
    }
}
