//! FIL-style GPU kernel — the cuML Forest Inference Library stand-in.
//!
//! One thread per query; each level costs a single colocated 12-byte node
//! read plus the query-feature read. This is the memory behaviour that
//! puts cuML at ≈4–5× over CSR in the paper's Fig. 7.

use super::{
    grid_for, lane_queries, lanes_where, mask_of, query_reads, reads, step_lanes,
    store_predictions, GpuRun, LaneFetches, PredictionSink, Region, WarpVotes,
};
use rfx_core::fil::{FilForest, FIL_NODE_BYTES};
use rfx_core::TreeEnsemble;
use rfx_forest::dataset::QueryView;
use rfx_gpu_sim::{AddressSpace, BlockCtx, BlockKernel, DeviceBuffer, GpuSim};

struct Buffers {
    /// The 12 B node records.
    nodes: Region<1>,
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
        let (fil, b) = (self.fil, &self.bufs);
        let nq = self.queries.num_rows();
        let nf = self.queries.num_features() as u64;
        for w in 0..ctx.num_warps() {
            let lanes = lane_queries(ctx, w, nq);
            let warp_mask = mask_of(&lanes);
            if warp_mask == 0 {
                continue;
            }
            let mut votes = WarpVotes::new(fil.num_classes() as usize);

            for t in 0..fil.num_trees() {
                let mut cur = [fil.root(t); 32];
                let mut f = [LaneFetches::default(); 32];
                let mut active = warp_mask;
                while active != 0 {
                    let leaves = step_lanes(
                        active,
                        &mut f,
                        |l, sink| {
                            let row = self.queries.row(lanes[l].unwrap() as usize);
                            fil.step_with(&mut cur[l], row, sink)
                        },
                        |l, label| votes.add(l, label),
                    );
                    // One colocated node record per level.
                    let record =
                        |l: usize| b.nodes.read(f[l].attributes()[0], FIL_NODE_BYTES as u32);
                    ctx.global_read(w, &reads(active, record));
                    ctx.branch(w, active, leaves);
                    active &= !leaves;
                    if active == 0 {
                        break;
                    }

                    ctx.global_read(w, &query_reads(active, &lanes, &f, &b.queries, nf));
                    ctx.alu(w, 2);
                    ctx.branch(w, active, lanes_where(active, |l| f[l].right));
                }
            }
            store_predictions(ctx, w, &lanes, &votes, &b.out, &self.sink);
        }
    }
}

/// Runs FIL-style classification on the simulated GPU.
pub fn run_fil(sim: &GpuSim, fil: &FilForest, queries: QueryView) -> GpuRun {
    let nq = queries.num_rows();
    let mut mem = AddressSpace::new();
    let nodes = mem.alloc("fil.nodes", FIL_NODE_BYTES as u32, fil.nodes().len() as u64);
    let bufs = Buffers {
        nodes: Region::new([nodes]),
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
