//! The complete top: the paper's root subtree (RSD), walked by every
//! query together by arithmetic alone, shared by the two stores that
//! carry one — the packed FIL placement ([`crate::pack`]), over a node
//! stream, and the one-line block store ([`crate::block`]), where the top
//! is the whole tree or nothing.
//!
//! A top of `L` levels holds every tree's first `L` levels as `2^L − 1`
//! inner slots — a comparison in the store's own encoding, no pointer —
//! and `2^L` bottom slots, each a leaf label or the index of the node the
//! walk continues at below the top. The slots are stored level-major
//! across the forest — all roots, then every tree's level 1, … — so a
//! walk's position on one level is a single index whose children are the
//! next level's `2j` and `2j + 1`, whatever its tree. A leaf above level
//! `L` is propagated: its slot becomes a dummy comparison (feature 0
//! against −∞) whose two subtrees carry the same leaf, so every walk leaves the top
//! after exactly `L` comparisons and the engine walks it with all lanes
//! in lockstep.
//!
//! `L` is the forest's, by one rule ([`top_levels`]): the deepest level
//! whose complete slots cost at most [`TOP_SLOTS_PER_NODE`] per source
//! node they cover. Trees are densest at the top, so trained forests take
//! 8–9 levels and a single-leaf forest none.

use rfx_forest::{DecisionTree, Node};

use crate::memprobe::FetchSink;
use crate::Label;

/// Deepest complete top a forest is stored with: `2^17 − 1` slots per
/// tree, past any tree a top pays for.
pub const MAX_TOP_LEVELS: u32 = 16;

/// What a complete top may cost: at most 8 slots (inner and bottom) per 7
/// source nodes at the levels it covers, so at least 7/8 of its slots
/// hold real nodes. The ledger's forests fill 94.6–96.7 % of their slots
/// through level 8 or 9 and well under 7/8 a level deeper (DESIGN §18).
pub const TOP_SLOTS_PER_NODE: (u64, u64) = (8, 7);

/// The comparison a propagated leaf's slot makes, as `(feature,
/// threshold)`: both of its subtrees carry the leaf, and at f32 every
/// query goes right. It also fills a padding tree's slots.
pub(crate) const DUMMY: (u16, f32) = (0, f32::NEG_INFINITY);

/// The depth rule of the complete top: the deepest `L ≤`
/// [`MAX_TOP_LEVELS`] whose complete slots — `2^(L+1) − 1` per tree,
/// inner and bottom — cost at most [`TOP_SLOTS_PER_NODE`] per source node
/// at depth `≤ L`. `level_nodes[d]` counts the forest's nodes at depth
/// `d` (level 0 counts its trees; the slice may stop where the forest
/// does). Complete trees of depth `d` give `d`, single-leaf forests 0.
pub fn top_levels(level_nodes: &[u64]) -> u32 {
    let trees = level_nodes.first().copied().unwrap_or(0);
    let (slots_per, nodes_per) = TOP_SLOTS_PER_NODE;
    let mut covered = 0;
    let mut levels = 0;
    for l in 0..=MAX_TOP_LEVELS {
        covered += level_nodes.get(l as usize).copied().unwrap_or(0);
        let slots = trees * ((2 << l) - 1);
        if trees > 0 && slots * nodes_per <= covered * slots_per {
            levels = l;
        }
    }
    levels
}

/// Fills `at` (a buffer reused from tree to tree) with the source node at
/// every position `0..2^(levels+1) − 1` of `tree`'s complete top, a leaf
/// above the bottom repeated into both children.
pub(crate) fn top_positions(tree: &DecisionTree, levels: u32, at: &mut Vec<u32>) {
    at.clear();
    at.resize((2 << levels) - 1, 0);
    for i in 0..(1 << levels) - 1 {
        let (l, r) = match tree.nodes()[at[i] as usize] {
            Node::Inner { left, right, .. } => (left, right),
            Node::Leaf { .. } => (at[i], at[i]),
        };
        at[2 * i + 1] = l;
        at[2 * i + 2] = r;
    }
}

/// A store's complete top (see the module docs): every tree's first
/// `levels` levels, leaf-propagated and pointer-free, with inner slots of
/// type `S`. Empty at `levels` 0.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Top<S> {
    pub(crate) levels: u32,
    /// Trees the inner slots are laid out for: the tree count rounded up
    /// to a power of two, so every level's run of slots is one.
    pub(crate) width: usize,
    /// Inner slots, level-major: level `l` holds `width << l` slots from
    /// `width · (2^l − 1)`, tree `t`'s `2^l` of them at `t << l`, so the
    /// children of a level's position `j` are the next level's `2j` and
    /// `2j + 1`. A padding tree's slots are dummies.
    pub(crate) inner: Vec<S>,
    /// Bottom slots, `2^levels` per tree at `t << levels`:
    /// `label << 1 | 1` for a leaf, `local << 1` for the store's own
    /// index of the node the walk continues at.
    pub(crate) bottom: Vec<u32>,
}

impl<S: Copy> Top<S> {
    pub(crate) fn none() -> Self {
        Top { levels: 0, width: 0, inner: Vec::new(), bottom: Vec::new() }
    }

    /// A top of `levels` levels for `trees` trees, every inner slot
    /// `dummy` and no tree's slots pushed yet ([`Top::push_tree`]).
    pub(crate) fn new(levels: u32, trees: usize, dummy: S) -> Self {
        if levels == 0 {
            return Self::none();
        }
        let width = trees.next_power_of_two();
        Top {
            levels,
            width,
            inner: vec![dummy; width * ((1 << levels) - 1)],
            bottom: Vec::with_capacity(trees << levels),
        }
    }

    /// Fills the next tree's slots from `at`, its [`top_positions`]:
    /// each inner node's comparison through `slot`, and each bottom
    /// node's leaf, or through `continue_at` the index of the inner node
    /// a walk continues at.
    pub(crate) fn push_tree(
        &mut self,
        tree: &DecisionTree,
        at: &[u32],
        slot: impl Fn(u16, f32) -> S,
        continue_at: impl Fn(u32) -> u32,
    ) {
        let t = self.bottom.len() >> self.levels;
        for l in 0..self.levels {
            // The tree's level-`l` positions, `2^l − 1` on, at `t << l` of
            // the level's run.
            let first = (1 << l) - 1;
            let run = &mut self.inner[self.width * first + (t << l)..][..1 << l];
            for (slot_at, &id) in run.iter_mut().zip(&at[first..]) {
                if let Node::Inner { feature, threshold, .. } = tree.nodes()[id as usize] {
                    *slot_at = slot(feature, threshold);
                }
            }
        }
        for &id in &at[(1 << self.levels) - 1..] {
            self.bottom.push(match tree.nodes()[id as usize] {
                Node::Leaf { label } => label << 1 | 1,
                Node::Inner { .. } => continue_at(id) << 1,
            });
        }
    }

    /// Resident bytes of the slots.
    pub(crate) fn bytes(&self) -> usize {
        self.inner.len() * std::mem::size_of::<S>() + self.bottom.len() * 4
    }

    /// Level `level` of every tree's top (`TreeEnsemble::top_level`):
    /// `width << level` slots.
    #[inline]
    pub(crate) fn level(&self, level: u32) -> &[S] {
        &self.inner[(self.width << level) - self.width..][..self.width << level]
    }

    /// Where a walk that left the top at bottom slot `bottom` goes: `Ok`
    /// with its leaf, or `Err` with the index of the node it continues at.
    #[inline]
    pub(crate) fn exit(&self, bottom: usize) -> Result<Label, u32> {
        let slot = self.bottom[bottom];
        if slot & 1 == 1 {
            Ok(slot >> 1)
        } else {
            Err(slot >> 1)
        }
    }

    /// One level of a walk standing at position `at` of `level`, for a
    /// walk taken one level at a time: reports the slot's fetch — the
    /// slots lie `offset` bytes into the store's attribute region, inner
    /// slots first, then bottom slots — and decodes it with `goes_right`.
    /// `Ok` with the walk's position on the next level; from the last
    /// level, `Err` with the bottom slot it leaves at (its fetch reported
    /// too), for the store's `top_exit`.
    #[inline]
    pub(crate) fn step<K: FetchSink + ?Sized>(
        &self,
        (level, at): (u32, usize),
        offset: usize,
        sink: &mut K,
        goes_right: impl FnOnce(S, &mut K) -> bool,
    ) -> Result<usize, usize> {
        let slot_bytes = std::mem::size_of::<S>();
        let slot = (self.width << level) - self.width + at;
        sink.attribute((offset + slot * slot_bytes) as u64, slot_bytes as u32);
        let child = 2 * at + usize::from(goes_right(self.inner[slot], sink));
        if level + 1 < self.levels {
            return Ok(child);
        }
        let bottoms = offset + self.inner.len() * slot_bytes;
        sink.attribute((bottoms + child * 4) as u64, 4);
        Err(child)
    }

    /// What every walk through the top relies on, checked by debug builds
    /// after each build: each level's run is `width << l` slots for a
    /// power-of-two `width` of at least `trees`, and the bottom holds
    /// `2^levels` slots per tree; every inner slot compares a feature
    /// below `num_features` (`feature` reads it off a slot); every label a
    /// bottom slot answers is below `num_classes`; and every node a bottom
    /// slot of tree `t` continues at is one `continues(t, index)` accepts.
    pub(crate) fn assert_postconditions(
        &self,
        trees: usize,
        (num_features, num_classes): (usize, u32),
        feature: impl Fn(S) -> usize,
        continues: impl Fn(usize, u32) -> bool,
    ) {
        if self.levels == 0 {
            assert!(self.inner.is_empty() && self.bottom.is_empty(), "top: slots without levels");
            return;
        }
        assert!(
            self.width.is_power_of_two() && self.width >= trees,
            "top: width {} for {trees} trees",
            self.width
        );
        let runs: usize = (0..self.levels).map(|l| self.width << l).sum();
        assert_eq!(self.inner.len(), runs, "top: level runs are not width << level");
        assert_eq!(self.bottom.len(), trees << self.levels, "top: bottom slots per tree");
        for (i, &slot) in self.inner.iter().enumerate() {
            assert!(feature(slot) < num_features, "top: slot {i} reads a feature past the forest");
        }
        for (i, exit) in (0..self.bottom.len()).map(|i| (i, self.exit(i))) {
            match exit {
                Ok(label) => assert!(label < num_classes, "top: bottom {i} label {label}"),
                Err(index) => assert!(
                    continues(i >> self.levels, index),
                    "top: bottom {i} continues at {index}, outside its tree's nodes"
                ),
            }
        }
    }
}
