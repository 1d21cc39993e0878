//! The quantized layouts' slice of the engine oracle: small ordinary
//! forests under the exact vote, so every case lands on the quantized
//! rows' own guarantee — bit-identical to `predict_reference` over the
//! **snapped** forest, the only approximation quantization introduces
//! being the snap itself — with many shards per forest. The check is the
//! table in `oracle/mod.rs` ([`oracle::Case::check`]), the same one
//! `sharded_vs_reference.rs` draws over every forest kind and policy.

use proptest::prelude::*;
use rfx_kernels::VotePolicy;

mod oracle;
use oracle::Case;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded predictions over every quantized layout equal the serial
    /// reference over the snapped forest, for any shape and any plan.
    #[test]
    fn quantized_sharded_is_bit_identical_to_snapped_reference(
        seed in any::<u64>(),
        n_trees in 1usize..14,
        depth in 1usize..9,
        classes in 1u32..5,
        n_queries in 1usize..120,
        shard_trees in 1usize..20,
        query_block in 1usize..160,
        threads in 0usize..9,
    ) {
        Case {
            seed, forest_kind: 0, n_trees, depth, classes, n_queries,
            shard_trees, query_block, threads, policy: VotePolicy::Exact,
            budget: 1 << 10, calib_rows: 0, reverse: false,
        }
        .check();
    }
}
