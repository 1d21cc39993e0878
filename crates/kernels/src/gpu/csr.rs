//! CSR baseline GPU kernel (the paper's §2.3 reference implementation).

use super::{
    grid_for, lane_queries, lanes_where, mask_of, query_reads, reads, step_lanes,
    store_predictions, GpuRun, LaneFetches, PredictionSink, Region, WarpVotes,
};
use rfx_core::csr::CsrForest;
use rfx_forest::dataset::QueryView;
use rfx_gpu_sim::{AddressSpace, BlockCtx, BlockKernel, DeviceBuffer, GpuSim};

struct Buffers {
    /// `feature_id` (2 B) then `value` (4 B) per node.
    attributes: Region<2>,
    /// `children_arr_idx` then `children_arr` (4 B each).
    topology: Region<2>,
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
        let (csr, b) = (self.csr, &self.bufs);
        let nq = self.queries.num_rows();
        let nf = self.queries.num_features() as u64;
        for w in 0..ctx.num_warps() {
            let lanes = lane_queries(ctx, w, nq);
            let warp_mask = mask_of(&lanes);
            if warp_mask == 0 {
                continue;
            }
            let mut votes = WarpVotes::new(csr.num_classes() as usize);

            for t in 0..csr.num_trees() {
                let mut cur = [csr.root(t); 32];
                let mut f = [LaneFetches::default(); 32];
                let mut active = warp_mask;

                while active != 0 {
                    let leaves = step_lanes(
                        active,
                        &mut f,
                        |l, sink| {
                            let row = self.queries.row(lanes[l].unwrap() as usize);
                            csr.step_with(&mut cur[l], row, sink)
                        },
                        |l, label| votes.add(l, label),
                    );
                    // Two attribute loads: feature_id (2 B) and value (4 B).
                    for (k, bytes) in [(0, 2), (1, 4)] {
                        let at = |l: usize| b.attributes.read(f[l].attributes()[k], bytes);
                        ctx.global_read(w, &reads(active, at));
                    }

                    // Leaf check (divergent exit branch).
                    ctx.branch(w, active, leaves);
                    active &= !leaves;
                    if active == 0 {
                        break;
                    }

                    // Topology indirection: children_arr_idx, then query
                    // feature, then the selected children_arr entry.
                    let topology =
                        |k: usize| reads(active, |l| b.topology.read(f[l].topology()[k], 4));
                    ctx.global_read(w, &topology(0));
                    ctx.global_read(w, &query_reads(active, &lanes, &f, &b.queries, nf));
                    ctx.alu(w, 2);

                    // Direction branch (data-divergent) and child fetch.
                    ctx.branch(w, active, lanes_where(active, |l| f[l].right));
                    ctx.global_read(w, &topology(1));
                }
            }
            store_predictions(ctx, w, &lanes, &votes, &b.out, &self.sink);
        }
    }
}

/// Runs CSR-based classification of `queries` on the simulated GPU.
pub fn run_csr(sim: &GpuSim, csr: &CsrForest, queries: QueryView) -> GpuRun {
    let nq = queries.num_rows();
    let mut mem = AddressSpace::new();
    let nodes = csr.total_nodes() as u64;
    let feature_id = mem.alloc("csr.feature_id", 2, nodes);
    let value = mem.alloc("csr.value", 4, nodes);
    let children_arr_idx = mem.alloc("csr.children_arr_idx", 4, nodes);
    let child_entries = csr.tree_child_base(csr.num_trees());
    let children_arr = mem.alloc("csr.children_arr", 4, u64::from(child_entries.max(1)));
    let bufs = Buffers {
        attributes: Region::new([feature_id, value]),
        topology: Region::new([children_arr_idx, children_arr]),
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
