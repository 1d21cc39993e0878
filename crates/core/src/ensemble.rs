//! The walk contract every kernel layout states once: a root, a
//! one-level step and a leaf exit ([`TreeEnsemble`]).
//!
//! The paper's code variants differ only in where a node sits, so each
//! layout implements this trait in its own module, next to its decoder:
//! the node vector here, [`crate::HierForest`] in [`crate::hier`],
//! [`crate::BlockForest`] in [`crate::block`] and the FIL family's one
//! store in [`crate::fil`]. The per-tree walk and the per-query vote are
//! provided on top of the step, so no layout writes them. (CSR, the
//! paper's baseline, is walked only by the device simulators and keeps
//! its own inherent walk as their reference.)

use crate::footprint::LayoutFootprint;
use crate::memprobe::{FetchSink, NoopSink};
use crate::{goes_right, Label};
use rfx_forest::{Node, RandomForest};
use std::sync::Arc;

/// Anything that can walk one of its trees one level at a time: the
/// capability the execution engine needs from a forest layout.
/// Implemented by the node vector, the hierarchical layout, the one-line
/// blocks and the FIL store in each of its node formats and placements,
/// plus references and `Arc`s to them, so engines can own or share their
/// source.
///
/// The traversal primitive is deliberately one *level*, not one tree:
/// [`TreeEnsemble::root`] hands out a `Copy` cursor and
/// [`TreeEnsemble::step`] advances it past one node, so the sharded
/// engine's tile kernel can hold 64 cursors in a plain array and
/// advance them round-robin — independent loads the out-of-order core
/// overlaps, where a lone `loop { step }` waits out one dependent load
/// per level. Each layout decodes its nodes in exactly one place,
/// [`TreeEnsemble::step_with`]; everything else here is that function
/// under a fixed sink or in a loop.
pub trait TreeEnsemble: Send + Sync {
    /// Where one walk stands inside one tree.
    type Cursor: Copy;
    /// Number of trees in the ensemble.
    fn num_trees(&self) -> usize;
    /// Number of classes voted over.
    fn num_classes(&self) -> u32;
    /// Query width the walks read: features `0..num_features()`.
    fn num_features(&self) -> usize;
    /// Byte footprint of the layout's traversal-hot arrays — what the
    /// engine's auto plan sizes tree shards from.
    fn footprint(&self) -> LayoutFootprint;
    /// A walk standing at the root of tree `t`.
    fn root(&self, t: usize) -> Self::Cursor;
    /// Advances `cursor` one level for `query`: `Some(label)` when it
    /// stands on a leaf (the cursor is then spent), otherwise it moves
    /// to the child the node's comparison selects. Each simulated memory
    /// fetch is reported to `sink` (see [`crate::memprobe`]) — what the
    /// engine's software memory tracer (`rfx_kernels::memtrace`) drives
    /// its cache model from. The node vector has no address-exact memory
    /// model and reports nothing: it still votes correctly, it just
    /// contributes nothing to the trace.
    fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut Self::Cursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label>;
    /// [`TreeEnsemble::step_with`] reporting to nobody — the sink
    /// monomorphises away.
    #[inline]
    fn step(&self, cursor: &mut Self::Cursor, query: &[f32]) -> Option<Label> {
        self.step_with(cursor, query, &mut NoopSink)
    }
    /// Asks the cache for the memory the next [`TreeEnsemble::step`] from
    /// `cursor` reads ([`crate::prefetch`]) — what the engine's tile
    /// kernel issues right after a lane steps, a whole sweep ahead of the
    /// read. A hint: the default, which issues none, is always correct.
    #[inline]
    fn prefetch(&self, _cursor: &Self::Cursor) {}
    /// Classifies `query` with tree `t`: one walk, root to leaf.
    fn predict_tree(&self, t: usize, query: &[f32]) -> Label {
        crate::walk(self.root(t), |cursor| self.step(cursor, query))
    }
    /// Majority-vote classification of one query, ties toward the lower
    /// class id ([`crate::majority`]).
    fn predict(&self, query: &[f32]) -> Label {
        let mut votes = vec![0u32; self.num_classes() as usize];
        for t in 0..self.num_trees() {
            votes[self.predict_tree(t, query) as usize] += 1;
        }
        crate::majority(&votes)
    }
    /// Cumulative tree-count shard boundaries (`[0, ..., num_trees]`)
    /// when the layout was built with byte-aware shards of its own — the
    /// packed placement ([`crate::pack`]) returns its bin-packed
    /// bounds so the engine tiles along the same seams the node stream
    /// was packed for. `None` (the default) keeps the plan's uniform
    /// `shard_trees` stride.
    fn shard_bounds(&self) -> Option<Vec<usize>> {
        None
    }

    // The complete top ([`crate::top`]): what the engine's tile kernel
    // walks all lanes through in lockstep before any lane takes a `step`.
    // A layout without one keeps the defaults, and the kernel never calls
    // the three methods after `top_levels`.

    /// One inner slot of the layout's complete top (`()` without one).
    type TopSlot: Copy;
    /// Levels of the complete top every walk starts in; 0 (the default)
    /// for a layout without one.
    fn top_levels(&self) -> u32 {
        0
    }
    /// Level `level` of every tree's top, tree `t`'s `2^level` slots at
    /// `t << level`, so position `j`'s children are the next level's `2j`
    /// and `2j + 1`. Its length is a power of two.
    fn top_level(&self, _level: u32) -> &[Self::TopSlot] {
        &[]
    }
    /// The layout's one decode of a top slot: whether `query` goes right.
    fn top_goes_right(&self, _slot: Self::TopSlot, _query: &[f32]) -> bool {
        unreachable!("a layout without a top has no top slots")
    }
    /// Where a walk that left the top at bottom slot `bottom` (its
    /// position on level `top_levels`) goes: `Ok` with its leaf, or `Err`
    /// with the cursor of the node it continues at.
    fn top_exit(&self, _bottom: usize) -> Result<Label, Self::Cursor> {
        unreachable!("a layout without a top has no bottom slots")
    }
}

/// Where one walk through the node-vector forest stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeVecCursor {
    tree: u32,
    node: u32,
}

impl TreeEnsemble for RandomForest {
    type Cursor = NodeVecCursor;
    type TopSlot = ();

    fn num_trees(&self) -> usize {
        RandomForest::num_trees(self)
    }

    fn num_classes(&self) -> u32 {
        RandomForest::num_classes(self)
    }

    fn num_features(&self) -> usize {
        RandomForest::num_features(self)
    }

    fn footprint(&self) -> LayoutFootprint {
        // The node-vector layout has no packed device arrays; account its
        // in-memory enum nodes plus one Vec header per tree so shard
        // sizing sees what traversal actually touches.
        LayoutFootprint {
            attribute_bytes: self.total_nodes() * std::mem::size_of::<Node>(),
            topology_bytes: 0,
            index_bytes: RandomForest::num_trees(self) * std::mem::size_of::<usize>() * 3,
        }
    }

    #[inline]
    fn root(&self, t: usize) -> NodeVecCursor {
        NodeVecCursor { tree: t as u32, node: 0 }
    }

    #[inline]
    fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut NodeVecCursor,
        query: &[f32],
        _sink: &mut S,
    ) -> Option<Label> {
        match self.trees()[cursor.tree as usize].nodes()[cursor.node as usize] {
            Node::Leaf { label } => Some(label),
            Node::Inner { feature, threshold, left, right } => {
                let right_wins = goes_right(query[feature as usize], threshold);
                cursor.node = if right_wins { right } else { left };
                None
            }
        }
    }

    #[inline]
    fn prefetch(&self, cursor: &NodeVecCursor) {
        crate::prefetch(self.trees()[cursor.tree as usize].nodes(), cursor.node as usize);
    }
}

/// `&E` and `Arc<E>` are ensembles whenever `E` is, so engines can
/// borrow or share their source.
macro_rules! forward_through_deref {
    ($pointer:ty) => {
        impl<E: TreeEnsemble + ?Sized> TreeEnsemble for $pointer {
            type Cursor = E::Cursor;

            fn num_trees(&self) -> usize {
                (**self).num_trees()
            }

            fn num_classes(&self) -> u32 {
                (**self).num_classes()
            }

            fn num_features(&self) -> usize {
                (**self).num_features()
            }

            fn footprint(&self) -> LayoutFootprint {
                (**self).footprint()
            }

            #[inline]
            fn root(&self, t: usize) -> E::Cursor {
                (**self).root(t)
            }

            #[inline]
            fn step_with<S: FetchSink + ?Sized>(
                &self,
                cursor: &mut E::Cursor,
                query: &[f32],
                sink: &mut S,
            ) -> Option<Label> {
                (**self).step_with(cursor, query, sink)
            }

            #[inline]
            fn prefetch(&self, cursor: &E::Cursor) {
                (**self).prefetch(cursor)
            }

            fn shard_bounds(&self) -> Option<Vec<usize>> {
                (**self).shard_bounds()
            }

            type TopSlot = E::TopSlot;

            #[inline]
            fn top_levels(&self) -> u32 {
                (**self).top_levels()
            }

            #[inline]
            fn top_level(&self, level: u32) -> &[E::TopSlot] {
                (**self).top_level(level)
            }

            #[inline]
            fn top_goes_right(&self, slot: E::TopSlot, query: &[f32]) -> bool {
                (**self).top_goes_right(slot, query)
            }

            #[inline]
            fn top_exit(&self, bottom: usize) -> Result<Label, E::Cursor> {
                (**self).top_exit(bottom)
            }
        }
    };
}

forward_through_deref!(&E);
forward_through_deref!(Arc<E>);
