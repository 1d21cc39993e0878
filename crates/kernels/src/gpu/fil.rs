//! FIL-style GPU kernel — the cuML Forest Inference Library stand-in.
//!
//! One thread per query; each level costs a single colocated 12-byte node
//! read plus the query-feature read. This is the memory behaviour that
//! puts cuML at ≈4–5× over CSR in the paper's Fig. 7.
// Lane loops (`for l in 0..32`) index several per-lane arrays in step
// with the `1 << l` mask bit; iterator forms would hide the warp-lane
// correspondence the simulator code mirrors from CUDA.
#![allow(clippy::needless_range_loop)]

use super::{
    grid_for, lane_queries, mask_of, store_predictions, GpuRun, PredictionSink, WarpVotes,
};
use rfx_core::fil::{FilForest, FIL_NODE_BYTES};
use rfx_core::goes_right;
use rfx_forest::dataset::QueryView;
use rfx_gpu_sim::{AddressSpace, BlockCtx, BlockKernel, DeviceBuffer, GpuSim, LaneAccess};

struct Buffers {
    nodes: DeviceBuffer,
    queries: DeviceBuffer,
    out: DeviceBuffer,
}

struct FilKernel<'a> {
    fil: &'a FilForest,
    queries: QueryView<'a>,
    bufs: Buffers,
    sink: PredictionSink,
}

impl BlockKernel for FilKernel<'_> {
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
            let mut votes = WarpVotes::new(self.fil.num_classes() as usize);

            for t in 0..self.fil.num_trees() {
                let base = self.fil.tree_base(t);
                let mut node = [0u32; 32];
                let mut active = warp_mask;
                while active != 0 {
                    // One colocated node record per level.
                    let mut acc_n = [LaneAccess::NONE; 32];
                    for l in 0..32 {
                        if active & (1 << l) != 0 {
                            acc_n[l] = LaneAccess::read(
                                self.bufs.nodes.addr(base as u64 + node[l] as u64),
                                FIL_NODE_BYTES as u32,
                            );
                        }
                    }
                    ctx.global_read(w, &acc_n);

                    let mut leaf_mask = 0u32;
                    for l in 0..32 {
                        if active & (1 << l) != 0 {
                            let rec = self.fil.nodes()[base as usize + node[l] as usize];
                            if rec.feature < 0 {
                                leaf_mask |= 1 << l;
                                votes.add(l, rec.value as u32);
                            }
                        }
                    }
                    ctx.branch(w, active, leaf_mask);
                    active &= !leaf_mask;
                    if active == 0 {
                        break;
                    }

                    let mut acc_q = [LaneAccess::NONE; 32];
                    let mut right_mask = 0u32;
                    for (l, q) in lanes.iter().enumerate() {
                        if active & (1 << l) != 0 {
                            let rec = self.fil.nodes()[base as usize + node[l] as usize];
                            acc_q[l] = LaneAccess::read(
                                self.bufs.queries.addr(q.unwrap() as u64 * nf + rec.feature as u64),
                                4,
                            );
                            let x = self.queries.row(q.unwrap() as usize)[rec.feature as usize];
                            let go_right = goes_right(x, rec.value);
                            if go_right {
                                right_mask |= 1 << l;
                            }
                            node[l] = rec.left_child + u32::from(go_right);
                        }
                    }
                    ctx.global_read(w, &acc_q);
                    ctx.alu(w, 2);
                    ctx.branch(w, active, right_mask);
                }
            }
            store_predictions(ctx, w, &lanes, &votes, &self.bufs.out, &self.sink);
        }
    }
}

/// Runs FIL-style classification on the simulated GPU.
pub fn run_fil(sim: &GpuSim, fil: &FilForest, queries: QueryView) -> GpuRun {
    let nq = queries.num_rows();
    let mut mem = AddressSpace::new();
    let bufs = Buffers {
        nodes: mem.alloc("fil.nodes", FIL_NODE_BYTES as u32, fil.nodes().len() as u64),
        queries: mem.alloc("queries", 4, (nq * queries.num_features()) as u64),
        out: mem.alloc("out", 4, nq as u64),
    };
    let kernel = FilKernel { fil, queries, bufs, sink: PredictionSink::new(nq) };
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
            (0..9).map(|_| DecisionTree::random(&mut rng, 8, 6, 3, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 6, 3).unwrap();
        let queries: Vec<f32> = (0..350 * 6).map(|_| rng.gen()).collect();
        (forest, queries)
    }

    #[test]
    fn fil_matches_reference() {
        let (forest, queries) = fixture(31);
        let qv = QueryView::new(&queries, 6).unwrap();
        let fil = FilForest::build(&forest);
        let run = run_fil(&GpuSim::new(GpuConfig::tiny_test()), &fil, qv);
        assert_eq!(run.predictions, forest.predict_batch(qv));
    }

    #[test]
    fn fil_beats_csr() {
        let (forest, queries) = fixture(37);
        let qv = QueryView::new(&queries, 6).unwrap();
        let sim = GpuSim::new(GpuConfig::tiny_test());
        let fil = run_fil(&sim, &FilForest::build(&forest), qv);
        let csr = super::super::csr::run_csr(&sim, &rfx_core::CsrForest::build(&forest), qv);
        assert!(fil.stats.device_seconds < csr.stats.device_seconds);
        assert!(fil.stats.global_load_transactions < csr.stats.global_load_transactions);
    }
}
