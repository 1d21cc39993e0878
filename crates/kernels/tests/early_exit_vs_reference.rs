//! The non-exact vote policies' slice of the engine oracle: every case
//! runs [`VotePolicy::BitSliced`] or [`VotePolicy::EarlyExit`], over
//! ordinary, all-tie and near-tie forests whose tree counts cross the
//! 64-tree popcount window, and must be bit-identical to
//! `predict_reference` — same argmax, same tie order (ties toward the
//! lower class id). Skipping shards must be invisible in the labels, not
//! just "mostly right". The check is [`oracle::Case::check`], the same one
//! `sharded_vs_reference.rs` draws over every policy including the exact
//! one.

use proptest::prelude::*;
use rfx_kernels::VotePolicy;

mod oracle;
use oracle::Case;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit-sliced and early-exit predictions equal the serial reference
    /// across layouts, forests (incl. adversarial ties), and plans.
    #[test]
    fn non_exact_policies_are_bit_identical_to_reference(
        seed in any::<u64>(),
        forest_kind in 0usize..3,
        n_trees in 1usize..70,
        depth in 1usize..7,
        classes in 1u32..5,
        n_queries in 1usize..100,
        shard_trees in 1usize..80,
        query_block in 1usize..130,
        threads in 0usize..9,
        bit_sliced_only in any::<bool>(),
        slack in 0u32..4,
    ) {
        let policy = if bit_sliced_only {
            VotePolicy::BitSliced
        } else {
            VotePolicy::EarlyExit { slack }
        };
        Case {
            seed, forest_kind, n_trees, depth, classes, n_queries,
            shard_trees, query_block, threads, policy,
        }
        .check();
    }
}
