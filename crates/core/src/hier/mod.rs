//! The paper's contribution: the **hierarchical decision-tree layout**
//! (§3.1, Fig. 3).
//!
//! Every decision tree is cut into *complete* binary subtrees of at most
//! `subtree_depth` levels (the root subtree may use a larger
//! `root_subtree_depth`, §3.2 "Hybrid"). Inside a subtree, children are
//! found arithmetically — node `n`'s children are `2n+1` / `2n+2` — so the
//! only indirect (CSR-like) accesses left are the per-boundary hops through
//! `connection_offset` / `subtree_connection`. Completeness is enforced by
//! padding missing slots with null nodes ([`PAD_FEATURE`]).
//!
//! One reading note versus Fig. 3: the paper's prose is ambiguous about
//! whether a spawned subtree is rooted at a boundary node or at its
//! children. We implement the self-consistent variant the text describes
//! ("leaf nodes of subtrees connect to the root nodes of different
//! subtrees"): **each child of a bottom-level inner node roots its own new
//! subtree**, and a bottom-level child that is a tree leaf becomes a
//! single-node subtree. All quantitative claims (arithmetic in-subtree
//! indexing, boundary-only indirection, `2^SD − 1` slots, padding overhead
//! growth with SD) carry over unchanged.

pub mod builder;

use crate::memprobe::FetchSink;
use crate::{footprint::LayoutFootprint, Label, TreeEnsemble};
use serde::{Deserialize, Serialize};

/// `feature_id` sentinel for a tree leaf (as in CSR, the paper uses −1).
pub const LEAF_FEATURE: i16 = -1;
/// `feature_id` sentinel for a padding slot added to complete a subtree.
/// Pad slots are unreachable during traversal.
pub const PAD_FEATURE: i16 = -2;
/// `subtree_connection` sentinel for "no subtree on this side".
pub const NULL_SUBTREE: u32 = u32::MAX;
/// Bytes of one slot's node record: `feature_id` (2) + `value` (4), the
/// paper's 48-bit node — what the simulators stage on chip per slot.
pub const NODE_BYTES: usize = 6;

/// Layout tuning parameters (the paper's SD and RSD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HierConfig {
    /// Maximum subtree depth in levels (paper sweeps 4, 6, 8).
    pub subtree_depth: u8,
    /// Maximum depth of each tree's **root** subtree (paper sweeps 8–12);
    /// set equal to `subtree_depth` for the uniform layout.
    pub root_subtree_depth: u8,
}

impl HierConfig {
    /// Uniform layout: every subtree capped at `sd` levels.
    pub fn uniform(sd: u8) -> Self {
        Self { subtree_depth: sd, root_subtree_depth: sd }
    }

    /// Enlarged root subtree (`rsd`), `sd` elsewhere.
    pub fn with_root(sd: u8, rsd: u8) -> Self {
        Self { subtree_depth: sd, root_subtree_depth: rsd }
    }

    /// Bounds check: depths in `1..=20` (a depth-20 subtree already holds
    /// ~1 M slots; deeper caps are never useful and would only risk
    /// accidental memory blow-ups).
    pub fn validate(&self) -> Result<(), crate::LayoutError> {
        for (name, v) in
            [("subtree_depth", self.subtree_depth), ("root_subtree_depth", self.root_subtree_depth)]
        {
            if !(1..=20).contains(&v) {
                return Err(crate::LayoutError::BadConfig {
                    detail: format!("{name} must be in 1..=20, got {v}"),
                });
            }
        }
        Ok(())
    }
}

/// Where one walk through a [`HierForest`] stands. `Copy`, so a kernel
/// can keep several walks in flight in a plain array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierCursor {
    /// Global id of the subtree the walk is in.
    pub(crate) subtree: u32,
    /// Slot-array base of that subtree.
    pub(crate) base: u32,
    /// Its slot count (`2^d − 1`).
    pub(crate) size: u32,
    /// Subtree-local slot the walk stands on.
    pub(crate) slot: u32,
}

impl HierCursor {
    /// Global id of the subtree the walk stands in: a walk crossed a
    /// subtree boundary on the step after which this changed.
    #[inline]
    pub fn subtree(&self) -> u32 {
        self.subtree
    }
}

/// A whole forest in the hierarchical layout (packed arrays, global
/// subtree ids).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HierForest {
    /// Node-array base of subtree `s`; `len = num_subtrees + 1`. A
    /// subtree's slot count is always `2^d − 1` for its depth `d`.
    pub(crate) subtree_node_offset: Vec<u32>,
    /// Connection-array base of subtree `s`; `len = num_subtrees + 1`.
    /// Subtrees with no outgoing connections own zero entries.
    pub(crate) connection_offset: Vec<u32>,
    /// Per-slot comparison feature, [`LEAF_FEATURE`], or [`PAD_FEATURE`].
    pub(crate) feature_id: Vec<i16>,
    /// Per-slot threshold (inner) or class label as f32 (leaf); 0 for pads.
    pub(crate) value: Vec<f32>,
    /// Two entries per bottom-level slot of each connected subtree:
    /// global id of the left/right target subtree or [`NULL_SUBTREE`].
    pub(crate) subtree_connection: Vec<u32>,
    /// First (root) subtree of tree `t`; `len = num_trees + 1`. Each
    /// tree's subtrees occupy a contiguous id range.
    pub(crate) tree_subtree_offset: Vec<u32>,
    pub(crate) num_classes: u32,
    pub(crate) num_features: usize,
    pub(crate) config: HierConfig,
}

impl HierForest {
    /// Total subtree count across the forest.
    #[inline]
    pub fn num_subtrees(&self) -> usize {
        self.subtree_node_offset.len() - 1
    }

    /// The layout parameters this forest was built with.
    #[inline]
    pub fn config(&self) -> HierConfig {
        self.config
    }

    /// Global id of tree `t`'s root subtree.
    #[inline]
    pub fn tree_root_subtree(&self, t: usize) -> u32 {
        self.tree_subtree_offset[t]
    }

    /// Global subtree-id range owned by tree `t`.
    #[inline]
    pub fn tree_subtrees(&self, t: usize) -> std::ops::Range<u32> {
        self.tree_subtree_offset[t]..self.tree_subtree_offset[t + 1]
    }

    /// Slot-array base of subtree `s`.
    #[inline]
    pub fn subtree_base(&self, s: u32) -> u32 {
        self.subtree_node_offset[s as usize]
    }

    /// Slot count of subtree `s` (always `2^d − 1`).
    #[inline]
    pub fn subtree_size(&self, s: u32) -> u32 {
        self.subtree_node_offset[s as usize + 1] - self.subtree_node_offset[s as usize]
    }

    /// Depth (levels) of subtree `s`.
    #[inline]
    pub fn subtree_depth(&self, s: u32) -> u32 {
        (self.subtree_size(s) + 1).trailing_zeros()
    }

    /// Connection-array base of subtree `s` (meaningful only when the
    /// subtree has outgoing connections).
    #[inline]
    pub fn connection_base(&self, s: u32) -> u32 {
        self.connection_offset[s as usize]
    }

    /// Whether subtree `s` owns any connection entries.
    #[inline]
    pub fn has_connections(&self, s: u32) -> bool {
        self.connection_offset[s as usize + 1] > self.connection_offset[s as usize]
    }

    /// Raw per-slot feature array (element size 2 B).
    pub fn feature_id(&self) -> &[i16] {
        &self.feature_id
    }

    /// Raw per-slot value array (element size 4 B).
    pub fn value(&self) -> &[f32] {
        &self.value
    }

    /// Raw connection array (element size 4 B).
    pub fn subtree_connection(&self) -> &[u32] {
        &self.subtree_connection
    }

    /// Raw subtree node-offset array (element size 4 B).
    pub fn subtree_node_offset(&self) -> &[u32] {
        &self.subtree_node_offset
    }

    /// Raw connection-offset array (element size 4 B).
    pub fn connection_offset(&self) -> &[u32] {
        &self.connection_offset
    }

    /// Total slot count (real + pad).
    pub fn total_slots(&self) -> usize {
        self.feature_id.len()
    }

    /// A walk standing on slot 0 of subtree `s`, with the subtree's base
    /// and size looked up once for every level walked inside it.
    #[inline]
    fn enter(&self, s: u32) -> HierCursor {
        HierCursor { subtree: s, base: self.subtree_base(s), size: self.subtree_size(s), slot: 0 }
    }

    /// Structural statistics used by the memory study and the kernels.
    pub fn stats(&self) -> HierStats {
        let pad_slots = self.feature_id.iter().filter(|&&f| f == PAD_FEATURE).count();
        let real_slots = self.total_slots() - pad_slots;
        let root_slots: usize = (0..self.num_trees())
            .map(|t| self.subtree_size(self.tree_root_subtree(t)) as usize)
            .sum();
        HierStats {
            num_subtrees: self.num_subtrees(),
            total_slots: self.total_slots(),
            pad_slots,
            real_slots,
            connection_entries: self.subtree_connection.len(),
            root_subtree_slots: root_slots,
        }
    }
}

impl TreeEnsemble for HierForest {
    type Cursor = HierCursor;
    type TopSlot = ();

    #[inline]
    fn num_trees(&self) -> usize {
        self.tree_subtree_offset.len() - 1
    }

    #[inline]
    fn num_classes(&self) -> u32 {
        self.num_classes
    }

    #[inline]
    fn num_features(&self) -> usize {
        self.num_features
    }

    /// Byte footprint of the layout (hierarchal side of Fig. 6).
    fn footprint(&self) -> LayoutFootprint {
        LayoutFootprint {
            attribute_bytes: self.feature_id.len() * 2 + self.value.len() * 4,
            topology_bytes: self.subtree_connection.len() * 4,
            index_bytes: (self.subtree_node_offset.len()
                + self.connection_offset.len()
                + self.tree_subtree_offset.len())
                * 4,
        }
    }

    #[inline]
    fn root(&self, t: usize) -> HierCursor {
        self.enter(self.tree_root_subtree(t))
    }

    /// Advances `cursor` one level of the paper's hierarchical traversal
    /// (§3.2, "traversal within a single subtree"): `Some(label)` on a
    /// leaf (the cursor stays put); otherwise arithmetic `2n+1 / 2n+2`
    /// descent inside the subtree, or — from the bottom level — one
    /// indirection through the connection arrays into the next subtree.
    /// The one place this layout's slots are decoded.
    ///
    /// Each simulated memory fetch is reported to `sink`: the slot's
    /// feature (2 B) and value (4 B) in the attribute region, which lays
    /// `feature_id` then `value` back to back; the query read; and at a
    /// boundary hop three topology fetches — `connection_offset[s]`,
    /// `subtree_connection[ci]` and the next subtree's
    /// `subtree_node_offset` entry — in a region that lays
    /// `subtree_node_offset`, `connection_offset` and
    /// `subtree_connection` (4 B each) back to back.
    ///
    /// Inlining is forced: the boundary hop puts the body over LLVM's
    /// threshold, and as a call per level the engine's tile kernel was no
    /// faster than a lone walk on L2-resident forests (1.00–1.07× of it
    /// on 200 trees × depth 8, against 1.08–1.23× inlined).
    #[inline(always)]
    fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut HierCursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label> {
        let at = (cursor.base + cursor.slot) as usize;
        sink.attribute(at as u64 * 2, 2);
        sink.attribute((self.feature_id.len() * 2 + at * 4) as u64, 4);
        let f = self.feature_id[at];
        let v = self.value[at];
        if f == LEAF_FEATURE {
            return Some(v as Label);
        }
        debug_assert_ne!(f, PAD_FEATURE, "pad slot reached: corrupt layout");
        sink.query(f as u32);
        let right = crate::goes_right(query[f as usize], v);
        sink.branch(right);
        let child = 2 * cursor.slot + 1 + u32::from(right);
        if child < cursor.size {
            cursor.slot = child;
        } else {
            // The slot is on the bottom level: hop to the connected subtree.
            let p = cursor.slot - (cursor.size >> 1);
            let ci = self.connection_base(cursor.subtree) + 2 * p + u32::from(right);
            let offsets = self.subtree_node_offset.len() as u64 * 4;
            sink.topology(offsets + u64::from(cursor.subtree) * 4, 4);
            sink.topology(2 * offsets + u64::from(ci) * 4, 4);
            let next = self.subtree_connection[ci as usize];
            debug_assert_ne!(next, NULL_SUBTREE, "null connection taken: corrupt layout");
            sink.topology(u64::from(next) * 4, 4);
            *cursor = self.enter(next);
        }
        None
    }

    /// Asks the cache for the slot the next step from `cursor` decodes —
    /// after a subtree hop, the new subtree's root: its feature and its
    /// value, two arrays.
    #[inline]
    fn prefetch(&self, cursor: &HierCursor) {
        let at = (cursor.base + cursor.slot) as usize;
        crate::prefetch(&self.feature_id, at);
        crate::prefetch(&self.value, at);
    }
}

/// Aggregate structural statistics of a [`HierForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierStats {
    /// Total subtrees across the forest.
    pub num_subtrees: usize,
    /// Total slots (real + pad).
    pub total_slots: usize,
    /// Padding slots added for completeness.
    pub pad_slots: usize,
    /// Slots holding real tree nodes.
    pub real_slots: usize,
    /// Entries in the `subtree_connection` array.
    pub connection_entries: usize,
    /// Combined slot count of all root subtrees (what the hybrid kernel
    /// stages into on-chip memory).
    pub root_subtree_slots: usize,
}
