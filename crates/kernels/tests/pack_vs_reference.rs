//! The profile-packed layouts' slice of the engine oracle: for *any*
//! random forest, *any* packing parameters, *any* plan — including
//! degenerate 1-tree / 1-query shapes — and a calibration profile drawn
//! from a *different* distribution than the eval batch, the packed rows
//! of the table in `oracle/mod.rs` must be bit-identical to
//! `predict_reference` over the source forest (and the quantized ones to
//! the snapped forest), under all three vote policies. Packing must never
//! affect results, only addresses. Half the forests have their node ids
//! reversed (children stored before their parents), which sends the
//! packer's cold nodes through its heap instead of its forward sweep.
//!
//! The per-class vote permutation-invariance property is pinned
//! separately: the multiset of per-tree votes (hence every per-class
//! count) is identical between the packed tree order and the source
//! order, which is *why* the bin-packing is free to permute trees.

use proptest::prelude::*;
use rfx_core::pack::{PackPlan, PackedFilForest};
use rfx_kernels::{TreeEnsemble, VotePolicy};

mod oracle;
use oracle::{Case, NF};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every table row — the packed f32, u8 and u16 rows among them —
    /// equals its oracle for any packing parameters, any plan, and all
    /// three vote policies.
    #[test]
    fn packed_layouts_are_bit_identical_to_reference(
        seed in any::<u64>(),
        n_trees in 1usize..14,
        depth in 1usize..9,
        classes in 1u32..5,
        n_queries in 1usize..120,
        calib_rows in 0usize..80,
        budget in 1usize..8192,
        shard_trees in 1usize..20,
        query_block in 1usize..160,
        threads in 0usize..9,
        reverse in any::<bool>(),
    ) {
        let slack = (seed % 3) as u32;
        for policy in [VotePolicy::Exact, VotePolicy::BitSliced, VotePolicy::EarlyExit { slack }] {
            Case {
                seed, forest_kind: 0, n_trees, depth, classes, n_queries,
                shard_trees, query_block, threads, policy, budget, calib_rows, reverse,
            }
            .check();
        }
    }

    /// Permutation-invariance of the per-class votes: for every query,
    /// the packed ensemble's class-vote histogram equals the source
    /// forest's — tree order moved, the vote multiset did not.
    #[test]
    fn packed_per_class_votes_are_permutation_invariant(
        seed in any::<u64>(),
        n_trees in 1usize..14,
        depth in 1usize..9,
        classes in 1u32..5,
        n_queries in 1usize..40,
        calib_rows in 0usize..60,
        budget in 1usize..4096,
    ) {
        let case = Case {
            seed, forest_kind: 0, n_trees, depth, classes, n_queries,
            shard_trees: 1, query_block: 1, threads: 1, policy: VotePolicy::Exact,
            budget, calib_rows: calib_rows.max(1), reverse: false,
        };
        let forest = case.forest();
        let pack = PackPlan::new(budget).unwrap();
        let packed = PackedFilForest::build(&forest, &case.profile(&forest), pack).unwrap();
        for q in case.queries().chunks(NF) {
            let mut packed_votes = vec![0u32; classes as usize];
            for t in 0..packed.num_trees() {
                packed_votes[packed.predict_tree(t, q) as usize] += 1;
            }
            let source_votes = forest.votes(q);
            prop_assert_eq!(&packed_votes, &source_votes);
            // And each packed slot votes exactly as its source tree.
            for t in 0..packed.num_trees() {
                prop_assert_eq!(
                    packed.predict_tree(t, q),
                    forest.trees()[packed.tree_source(t)].predict(q)
                );
            }
        }
    }
}
