//! CPU inference: the functional reference.
//!
//! The practical CPU path lives behind the unified
//! [`Predictor`](crate::engine::Predictor) trait in [`crate::engine`]:
//! [`ShardedEngine`](crate::engine::ShardedEngine) (tree-sharded,
//! cache-blocked) and [`RowParallel`](crate::engine::RowParallel) (the
//! row-parallel baseline).

use rfx_core::Label;
use rfx_forest::dataset::QueryView;
use rfx_forest::RandomForest;

/// Sequential majority-vote inference over the node-vector forest — the
/// single source of truth every other engine is tested against.
pub fn predict_reference(forest: &RandomForest, queries: QueryView) -> Vec<Label> {
    forest.predict_batch(queries)
}
