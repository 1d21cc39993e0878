//! The four workloads: same traffic × three forests, then the same
//! forest × different traffic, so a difference between two workloads
//! has one cause. `why` is copied verbatim into `BENCHMARK.json`.

use rfx_data::DatasetKind;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: DatasetKind,
    pub depth: usize,
    pub trees: usize,
    pub train_rows: usize,
    /// Rows in the query pool. One engine pass classifies the whole
    /// pool; requests take consecutive slices of it, wrapping around.
    pub pool_rows: usize,
    /// Rows per open-loop request (1 = single-row requests).
    pub request_rows: usize,
    /// Open-loop arrival rate, requests per second.
    pub rate_per_s: u32,
    /// Publish and activate the alternate forest at the midpoint of
    /// every traffic window.
    pub swap: bool,
}

/// Rows per closed-loop request: `ServeConfig::default().max_batch_size`,
/// so every request takes the size-flush path. Fewer rows in flight
/// would measure the 2 ms batch deadline, not capacity.
pub const CAPACITY_REQUEST_ROWS: usize = 256;

pub const ALL: [Workload; 4] = [
    Workload {
        name: "batch-deep",
        why: "Higgs-like depth-30 forest, tens of MB of nodes, far larger than L2: memory-bound traversal, where packing, quantization and shard planning should show",
        kind: DatasetKind::HiggsLike,
        depth: 30,
        trees: 50,
        train_rows: 100_000,
        pool_rows: 4096,
        request_rows: 1,
        rate_per_s: 2000,
        swap: false,
    },
    Workload {
        name: "batch-shallow",
        why: "Covertype-like depth-8 forest of 200 trees, L2-resident: compute-bound traversal, where vote reduction and per-tile overhead show and packing must change nothing",
        kind: DatasetKind::CovertypeLike,
        depth: 8,
        trees: 200,
        train_rows: 100_000,
        pool_rows: 8192,
        request_rows: 1,
        rate_per_s: 2000,
        swap: false,
    },
    Workload {
        name: "serve-singles",
        why: "Susy-like depth-15 forest under single-row requests at about 1 % of capacity: latency is batch-deadline wait, so batcher policy shows and kernels do not",
        kind: DatasetKind::SusyLike,
        depth: 15,
        trees: 50,
        train_rows: 100_000,
        pool_rows: 8192,
        request_rows: 1,
        rate_per_s: 2000,
        swap: false,
    },
    Workload {
        name: "serve-bulk-swap",
        why: "Same forest as serve-singles under 16-row micro-batches at about 20 % of capacity with a model publish and activate in the middle of every open-loop window: writes beside reads",
        kind: DatasetKind::SusyLike,
        depth: 15,
        trees: 50,
        train_rows: 100_000,
        pool_rows: 8192,
        request_rows: 16,
        rate_per_s: 2000,
        swap: true,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload on inputs small enough that all four run in
    /// seconds (`--smoke`): a schema or oracle break shows without
    /// waiting for full-size training. Its numbers mean nothing.
    pub fn smoke(self) -> Workload {
        Workload {
            trees: (self.trees / 5).max(5),
            depth: self.depth.min(12),
            train_rows: self.train_rows / 20,
            pool_rows: self.pool_rows.min(2048),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_shapes_tile_the_pool() {
        for w in ALL.into_iter().chain(ALL.into_iter().map(Workload::smoke)) {
            assert_eq!(w.pool_rows % CAPACITY_REQUEST_ROWS, 0, "{}", w.name);
            assert_eq!(w.pool_rows % w.request_rows, 0, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(by_name("no-such-workload").is_none());
    }

    #[test]
    fn the_two_serve_workloads_share_one_forest_recipe() {
        let (a, b) = (ALL[2], ALL[3]);
        assert_eq!(
            (a.kind, a.depth, a.trees, a.train_rows),
            (b.kind, b.depth, b.trees, b.train_rows)
        );
        assert!(b.swap && !a.swap);
    }
}
