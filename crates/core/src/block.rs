//! One-line blocks: the paper's subtree hierarchy (§3.1) at cache-line
//! grain.
//!
//! The hierarchical layout cuts each tree into complete subtrees walked
//! by arithmetic (`2i + 1`, `2i + 2`) and linked by `connection_offset`;
//! this store sizes every subtree to one aligned 64 B line. A [`Block`]
//! holds one complete depth-3 subtree — seven comparison slots in heap
//! order — plus the index of its first child block, an 8-bit exit mask
//! and eight inline exit labels, so one fetch resolves three levels and
//! a walk past L2 waits for one line per three levels, not one per
//! level.
//!
//! * **No leaf test inside a block.** A leaf above the block's bottom
//!   becomes an always-right slot (threshold −∞, feature 0:
//!   [`crate::goes_right`] sends every value, NaN included, right), and
//!   its label rides down its right spine to an exit. Every `step` is
//!   exactly three comparisons.
//! * **Exits.** The walk leaves slot `i` of the bottom level at exit
//!   `e = i − 7`. Bit `e` of `mask` set: the walk continues at block
//!   `child + popcount(mask & ((1 << e) − 1))` — a block's children are
//!   contiguous. Clear: `label[e]` is the answer. Only an inner node at
//!   depth 3 roots a child block; a leaf there is stored inline, so the
//!   store never spends a line on a lone leaf.
//! * **Order.** Each tree's blocks are emitted breadth-first in one pass:
//!   the root block first, every block's children contiguous behind the
//!   blocks already queued. `child` is an absolute block index.
//!
//! * **Or one whole top.** A forest no deeper than the complete top the
//!   depth rule gives it ([`crate::top`]) is stored as that top alone:
//!   every tree walked by arithmetic, its bottom slots all labels, and no
//!   block at all — the paper's root subtree (RSD) where it is the whole
//!   tree. The engine walks it with every lane in lockstep; a deeper
//!   forest keeps its blocks and no top, because a partial top over
//!   blocks loses to the root block it replaces (DESIGN §20).
//!
//! Exit labels are u16, so the store serves forests of at most
//! [`MAX_CLASSES`] classes ([`check_forest`]).

use crate::footprint::LayoutFootprint;
use crate::memprobe::FetchSink;
use crate::top::{top_levels, top_positions, Top, DUMMY, MAX_TOP_LEVELS};
use crate::{goes_right, Label, LayoutError, TreeEnsemble};
use rfx_forest::{DecisionTree, Node, RandomForest};

/// Levels of a tree one block holds.
pub const BLOCK_DEPTH: u32 = 3;

/// Comparison slots per block: a complete subtree of [`BLOCK_DEPTH`]
/// levels.
const SLOTS: usize = (1 << BLOCK_DEPTH) - 1;

/// Exits per block: one per bottom-level child position.
const EXITS: usize = SLOTS + 1;

/// Resident bytes of one block: one cache line.
pub const BLOCK_BYTES: usize = 64;

/// Classes an exit label can name: the bound `read_forest` holds every
/// model file to.
pub use rfx_forest::serialize::MAX_CLASSES;

/// One complete depth-3 subtree in one aligned cache line: 63 bytes of
/// fields, one of padding.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
pub struct Block {
    /// Slot thresholds in heap order (slot `i`'s children are `2i + 1`
    /// and `2i + 2`); −∞ for an always-right slot.
    pub threshold: [f32; SLOTS],
    /// Absolute index of the first child block.
    pub child: u32,
    /// Slot features; 0 for an always-right slot.
    pub feature: [u16; SLOTS],
    /// Exit labels, where `mask` has the exit's bit clear.
    pub label: [u16; EXITS],
    /// Bit `e` set: exit `e` continues at a child block.
    pub mask: u8,
}

const _: () = assert!(std::mem::size_of::<Block>() == BLOCK_BYTES);

impl Block {
    /// A block of always-right slots whose exits are all label 0.
    const EMPTY: Block = Block {
        threshold: [f32::NEG_INFINITY; SLOTS],
        child: 0,
        feature: [0; SLOTS],
        label: [0; EXITS],
        mask: 0,
    };
}

/// Where one walk through a [`BlockForest`] stands: the block it reads
/// next — or, in a store with a top, the top slot it reads next (an
/// index past every block, since that store keeps none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCursor(u32);

/// A forest as one-line blocks, tree after tree, or as one whole
/// complete top (see the module docs): never both.
#[derive(Clone, PartialEq)]
pub struct BlockForest {
    blocks: Vec<Block>,
    /// The whole forest as a complete top of `(feature, threshold)`
    /// slots, when it is no deeper than its top; then `blocks` is empty.
    top: Top<(u16, f32)>,
    /// Root block of tree `t` (len = num_trees + 1) — with a top, `t`
    /// itself: the root's slot on the top's level 0.
    tree_offset: Vec<u32>,
    num_classes: u32,
    num_features: usize,
}

/// The store's arrays: its blocks, or its top.
impl std::fmt::Debug for BlockForest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = f.debug_struct("BlockForest");
        out.field("blocks", &self.blocks);
        if self.top.levels > 0 {
            out.field("top", &self.top);
        }
        out.field("tree_offset", &self.tree_offset)
            .field("num_classes", &self.num_classes)
            .field("num_features", &self.num_features)
            .finish()
    }
}

/// Everything [`BlockForest::build`] can refuse about a forest: more
/// classes than a u16 exit label names, more features than a u16 slot
/// feature does, or more blocks than a u32 index reaches.
pub fn check_forest(forest: &RandomForest) -> Result<(), LayoutError> {
    crate::check_label_field("block", forest, MAX_CLASSES.trailing_zeros())?;
    if forest.num_features() > 1 << 16 {
        return Err(LayoutError::BadConfig {
            detail: format!(
                "block features are 16 bits; forest has {} features",
                forest.num_features()
            ),
        });
    }
    // Every block but a single-leaf tree's holds an inner node, and a
    // tree of `n` nodes has `(n − 1) / 2` of them.
    let most_blocks = (forest.total_nodes() + forest.num_trees()) / 2;
    if u32::try_from(most_blocks).is_err() {
        return Err(LayoutError::BadConfig {
            detail: format!("up to {most_blocks} blocks overflow a u32 block index"),
        });
    }
    Ok(())
}

/// What a slot of the block being filled stands for.
#[derive(Clone, Copy)]
enum Carry {
    /// A node of the source tree.
    Node(u32),
    /// A leaf above this slot, carried down its right spine.
    Leaf(Label),
    /// A slot no walk reaches: left of a carried leaf.
    Unreached,
}

impl BlockForest {
    /// Converts a forest. One counting pass sizes the blocks and takes
    /// the forest's depth and its node count per level; a forest no
    /// deeper than the top those counts give it is stored as that top,
    /// any other by one pass that emits each tree's blocks breadth-first,
    /// every block's children contiguous.
    pub fn build(forest: &RandomForest) -> Result<Self, LayoutError> {
        check_forest(forest)?;
        let mut stack = Vec::new();
        let mut census = Census::default();
        for tree in forest.trees() {
            count_blocks(tree, &mut stack, &mut census);
        }
        let levels = top_levels(&census.level_nodes);
        // A whole top: its bottom slots all leaves, a dummy's feature 0
        // readable, and every slot index within a cursor's u32.
        let whole = levels > 0
            && levels >= census.depth
            && forest.num_features() > 0
            && u32::try_from(forest.num_trees().next_power_of_two() << (levels + 1)).is_ok();
        let store = if whole {
            Self::whole_top(forest, levels)
        } else {
            Self::of_blocks(forest, census.blocks)
        };
        if cfg!(debug_assertions) {
            store.assert_postconditions();
        }
        Ok(store)
    }

    /// The forest as `count` blocks, each tree's emitted breadth-first.
    fn of_blocks(forest: &RandomForest, count: usize) -> Self {
        // Sized exactly up front: a 64 B-aligned buffer cannot grow or
        // shrink in place, so any resize would copy it whole.
        let mut blocks = Vec::with_capacity(count);
        let mut tree_offset = Vec::with_capacity(forest.num_trees() + 1);
        let mut queue = Vec::new();
        for tree in forest.trees() {
            let base = blocks.len();
            tree_offset.push(base as u32);
            queue.clear();
            queue.push(0);
            let mut next = 0;
            while let Some(&root) = queue.get(next) {
                next += 1;
                let child = (base + queue.len()) as u32;
                blocks.push(fill_block(tree.nodes(), root, child, &mut queue));
            }
        }
        tree_offset.push(blocks.len() as u32);
        debug_assert_eq!(blocks.len(), count);
        BlockForest {
            blocks,
            top: Top::none(),
            tree_offset,
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        }
    }

    /// The forest as one complete top of `levels` levels, which holds
    /// every tree to its leaves.
    fn whole_top(forest: &RandomForest, levels: u32) -> Self {
        let mut top = Top::new(levels, forest.num_trees(), DUMMY);
        let mut at = Vec::new();
        for tree in forest.trees() {
            top_positions(tree, levels, &mut at);
            let continues = |_| unreachable!("a whole top's bottom slots are leaves");
            top.push_tree(tree, &at, |f, th| (f, th), continues);
        }
        BlockForest {
            blocks: Vec::new(),
            top,
            tree_offset: (0..=forest.num_trees() as u32).collect(),
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        }
    }

    /// What every walk relies on, checked by debug builds after each
    /// build: a block's children lie strictly after it and within its own
    /// tree's blocks, and every exit that answers names one of the
    /// forest's classes — or, in a store with a top, no block at all, a
    /// root slot per tree, and the top's own postconditions with no
    /// bottom slot continuing anywhere.
    fn assert_postconditions(&self) {
        if self.top.levels > 0 {
            assert!(self.blocks.is_empty(), "a store with a top keeps blocks");
            assert!(
                self.tree_offset.iter().enumerate().all(|(t, &at)| at as usize == t),
                "a tree's root is not its slot on the top's level 0"
            );
            let bounds = (self.num_features, self.num_classes);
            let feature = |(f, _): (u16, f32)| usize::from(f);
            self.top.assert_postconditions(self.num_trees(), bounds, feature, |_, _| false);
            return;
        }
        for (t, tree) in self.tree_offset.windows(2).enumerate() {
            for at in tree[0]..tree[1] {
                let block = &self.blocks[at as usize];
                let children = block.mask.count_ones();
                assert!(
                    children == 0 || block.child > at,
                    "tree {t} block {at}: child not forward"
                );
                assert!(
                    u64::from(block.child) + u64::from(children) <= u64::from(tree[1]),
                    "tree {t} block {at}: children past the tree's blocks"
                );
                for (exit, &label) in block.label.iter().enumerate() {
                    assert!(
                        block.mask >> exit & 1 == 1 || u32::from(label) < self.num_classes,
                        "tree {t} block {at}: exit {exit} label {label} out of range"
                    );
                }
            }
        }
    }

    /// One level of a walk in the top: its cursor is the slot it reads,
    /// and the slots are the store's whole attribute region. Out of line,
    /// so the block step carries none of it; the engine walks the top in
    /// lockstep and never steps a top cursor.
    #[cold]
    #[inline(never)]
    fn top_step<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut BlockCursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label> {
        let (slot, width) = (cursor.0 as usize, self.top.width);
        let level = (slot / width + 1).ilog2();
        let at = slot + width - (width << level);
        let decode = |slot: (u16, f32), sink: &mut S| {
            sink.query(u32::from(slot.0));
            self.top_goes_right(slot, query)
        };
        match self.top.step((level, at), 0, sink, decode) {
            Ok(child) => {
                cursor.0 = ((width << (level + 1)) - width + child) as u32;
                None
            }
            Err(bottom) => self.top_exit(bottom).ok(),
        }
    }

    /// Every block, tree after tree.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }
}

// One `step` resolves a block's three levels; `prefetch` asks for the
// child block's one line.
impl TreeEnsemble for BlockForest {
    type Cursor = BlockCursor;
    type TopSlot = (u16, f32);

    fn num_trees(&self) -> usize {
        self.tree_offset.len() - 1
    }

    fn num_classes(&self) -> u32 {
        self.num_classes
    }

    fn num_features(&self) -> usize {
        self.num_features
    }

    /// Bytes resident: the blocks or the top as attributes (topology is
    /// the child index and mask inside each line, or implied by a slot's
    /// position), the tree directory as index.
    fn footprint(&self) -> LayoutFootprint {
        LayoutFootprint {
            attribute_bytes: self.blocks.len() * BLOCK_BYTES + self.top.bytes(),
            topology_bytes: 0,
            index_bytes: self.tree_offset.len() * 4,
        }
    }

    #[inline]
    fn root(&self, t: usize) -> BlockCursor {
        BlockCursor(self.tree_offset[t])
    }

    /// Resolves the three levels of the block under `cursor`: `Some(label)`
    /// at an inline exit, otherwise the cursor moves to the child block.
    /// Reports one 64 B attribute fetch and three query reads to `sink`.
    /// A cursor the block array does not hold stands in the store's whole
    /// top and takes one top level, through the bounds check the block
    /// read makes anyway, out of line.
    #[inline]
    fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut BlockCursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label> {
        let Some(block) = self.blocks.get(cursor.0 as usize) else {
            return self.top_step(cursor, query, sink);
        };
        sink.attribute(u64::from(cursor.0) * BLOCK_BYTES as u64, BLOCK_BYTES as u32);
        let mut slot = 0;
        for _ in 0..BLOCK_DEPTH {
            let feature = block.feature[slot];
            sink.query(u32::from(feature));
            // An always-right slot of a forest without features has no
            // `query[0]` to read; a missing value goes right like NaN.
            let x = query.get(usize::from(feature)).copied().unwrap_or(f32::NAN);
            slot = 2 * slot + 1 + usize::from(goes_right(x, block.threshold[slot]));
        }
        let exit = (slot - SLOTS) & (EXITS - 1);
        let mask = u32::from(block.mask);
        if mask >> exit & 1 == 0 {
            return Some(Label::from(block.label[exit]));
        }
        cursor.0 = block.child + (mask & ((1 << exit) - 1)).count_ones();
        None
    }

    /// The one line the next step from `cursor` reads.
    #[inline]
    fn prefetch(&self, cursor: &BlockCursor) {
        crate::prefetch(&self.blocks, cursor.0 as usize);
    }

    /// Levels of the store's whole top; 0 for a store of blocks.
    #[inline]
    fn top_levels(&self) -> u32 {
        self.top.levels
    }

    #[inline]
    fn top_level(&self, level: u32) -> &[(u16, f32)] {
        self.top.level(level)
    }

    #[inline]
    fn top_goes_right(&self, (feature, threshold): (u16, f32), query: &[f32]) -> bool {
        goes_right(query[usize::from(feature)], threshold)
    }

    /// Every bottom slot of a whole top is a leaf.
    #[inline]
    fn top_exit(&self, bottom: usize) -> Result<Label, BlockCursor> {
        Ok(self.top.bottom[bottom] >> 1)
    }
}

/// What the counting pass learns of a forest.
#[derive(Default)]
struct Census {
    /// Blocks its trees take.
    blocks: usize,
    /// Nodes per depth, the depth rule's input: counted until the forest
    /// shows a node deeper than [`MAX_TOP_LEVELS`], past any top.
    level_nodes: [u64; MAX_TOP_LEVELS as usize + 1],
    /// Depth of its deepest node.
    depth: u32,
}

/// Counts `tree` into `census`: its root block, plus one block per inner
/// node three, six, … levels down; its depth; and, while the forest is
/// no deeper than a top can be, its nodes per depth. `stack` is a reused
/// buffer of (node, depth) pairs.
fn count_blocks(tree: &DecisionTree, stack: &mut Vec<(u32, u32)>, census: &mut Census) {
    let (mut blocks, mut deepest) = (1, census.depth);
    stack.clear();
    stack.push((0, 0));
    while let Some((id, depth)) = stack.pop() {
        if let Node::Inner { left, right, .. } = tree.nodes()[id as usize] {
            blocks += usize::from(depth > 0 && depth % BLOCK_DEPTH == 0);
            stack.extend([(left, depth + 1), (right, depth + 1)]);
        }
        // A forest deeper than any top takes none: no more level counts.
        deepest = deepest.max(depth);
        if deepest <= MAX_TOP_LEVELS {
            census.level_nodes[depth as usize] += 1;
        }
    }
    census.blocks += blocks;
    census.depth = deepest;
}

/// The block rooted at source node `root`, whose first child block is
/// `child`: fills its slots level by level and queues the root of every
/// child block, in exit order.
fn fill_block(nodes: &[Node], root: u32, child: u32, queue: &mut Vec<u32>) -> Block {
    let mut carry = [Carry::Unreached; SLOTS + EXITS];
    carry[0] = Carry::Node(root);
    let mut block = Block { child, ..Block::EMPTY };
    for slot in 0..SLOTS {
        let (left, right) = match carry[slot] {
            Carry::Node(id) => match nodes[id as usize] {
                Node::Inner { feature, threshold, left, right } => {
                    block.feature[slot] = feature;
                    block.threshold[slot] = threshold;
                    (Carry::Node(left), Carry::Node(right))
                }
                Node::Leaf { label } => (Carry::Unreached, Carry::Leaf(label)),
            },
            Carry::Leaf(label) => (Carry::Unreached, Carry::Leaf(label)),
            Carry::Unreached => (Carry::Unreached, Carry::Unreached),
        };
        carry[2 * slot + 1] = left;
        carry[2 * slot + 2] = right;
    }
    for (exit, &at) in carry[SLOTS..].iter().enumerate() {
        let label = match at {
            Carry::Node(id) => match nodes[id as usize] {
                Node::Inner { .. } => {
                    block.mask |= 1 << exit;
                    queue.push(id);
                    continue;
                }
                Node::Leaf { label } => label,
            },
            Carry::Leaf(label) => label,
            Carry::Unreached => 0,
        };
        // `check_forest` bounds every label below 2^16.
        block.label[exit] = label as u16;
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A right-leaning chain `depth` levels deep, every left child a
    /// leaf: beside shallower trees it keeps a forest deeper than its top,
    /// so the forest keeps its blocks.
    fn spine(depth: u32) -> DecisionTree {
        let mut nodes = Vec::new();
        for d in 0..depth {
            let left = 2 * d + 1;
            nodes.push(Node::Inner { feature: 0, threshold: 0.5, left, right: left + 1 });
            nodes.push(Node::Leaf { label: 0 });
        }
        nodes.push(Node::Leaf { label: 1 });
        DecisionTree::from_nodes(nodes).unwrap()
    }

    /// The build's postconditions catch a child index that points back.
    #[test]
    #[should_panic(expected = "child not forward")]
    fn a_backward_child_fails_the_postconditions() {
        let mut rng = StdRng::seed_from_u64(3);
        let tree = DecisionTree::random(&mut rng, 5, 7, 3, 0.0);
        let forest = RandomForest::from_trees(vec![tree, spine(8)], 7, 3).unwrap();
        let mut store = BlockForest::build(&forest).unwrap();
        store.blocks[0].child = 0;
        store.assert_postconditions();
    }

    /// The top's postconditions, shared with the packed top, catch a
    /// bottom label past the forest's classes.
    #[test]
    #[should_panic(expected = "label 3")]
    fn a_bottom_label_past_the_classes_fails_the_top_postconditions() {
        let mut store = BlockForest::build(&whole_top_forest(4)).unwrap();
        assert_eq!(store.top_levels(), 4);
        store.top.bottom[5] = 3 << 1 | 1;
        store.assert_postconditions();
    }

    /// Nine complete trees `depth` levels deep over seven features and a
    /// single leaf, whose walks cross dummies: ten trees, a top of `depth`
    /// laid out sixteen trees wide.
    fn whole_top_forest(depth: usize) -> RandomForest {
        let mut rng = StdRng::seed_from_u64(depth as u64);
        let mut trees: Vec<DecisionTree> =
            (0..9).map(|_| DecisionTree::random(&mut rng, depth, 7, 3, 0.0)).collect();
        trees.push(DecisionTree::leaf(2));
        RandomForest::from_trees(trees, 7, 3).unwrap()
    }

    /// A forest no deeper than its top is stored as that top alone: no
    /// block, every walk `depth` steps of one slot and one query read
    /// each, the last step reading its bottom slot too, tree by tree
    /// against the source with NaN and ±∞ queries.
    #[test]
    fn a_forest_no_deeper_than_its_top_keeps_no_blocks() {
        let mut rng = StdRng::seed_from_u64(8);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5];
        for depth in 1..=9 {
            let forest = whole_top_forest(depth);
            let store = BlockForest::build(&forest).unwrap();
            assert!(store.blocks().is_empty(), "depth {depth}");
            assert_eq!(store.top_levels(), depth as u32);
            let slots = 16 * ((1 << depth) - 1) * 8 + 10 * (1 << depth) * 4;
            assert_eq!(store.footprint().attribute_bytes, slots, "depth {depth}");
            for i in 0..60 {
                let q: Vec<f32> = (0..7)
                    .map(
                        |_| if i % 3 == 0 { specials[rng.gen_range(0..4usize)] } else { rng.gen() },
                    )
                    .collect();
                for t in 0..forest.num_trees() {
                    let mut sink = crate::memprobe::CountingSink::default();
                    let (mut cursor, mut steps) = (store.root(t), 0);
                    let label = loop {
                        steps += 1;
                        if let Some(label) = store.step_with(&mut cursor, &q, &mut sink) {
                            break label;
                        }
                    };
                    assert_eq!(label, forest.trees()[t].predict(&q), "depth {depth} tree {t}");
                    assert_eq!(steps, depth, "depth {depth} tree {t}");
                    let fetches = (sink.attribute_fetches, sink.query_fetches);
                    assert_eq!(fetches, (depth as u64 + 1, depth as u64));
                }
                assert_eq!(store.predict(&q), forest.predict(&q));
            }
        }
    }

    #[test]
    fn a_block_is_one_aligned_line() {
        assert_eq!(std::mem::size_of::<Block>(), 64);
        assert_eq!(std::mem::align_of::<Block>(), 64);
        let forest = RandomForest::from_trees(vec![DecisionTree::leaf(0)], 1, 1).unwrap();
        let store = BlockForest::build(&forest).unwrap();
        assert_eq!(store.blocks().as_ptr() as usize % 64, 0);
    }

    /// Ragged depths — none a multiple of three among them — and
    /// single-leaf trees, tree by tree against the source, NaN and ±∞
    /// queries included.
    #[test]
    fn predicts_like_source_forest() {
        let mut rng = StdRng::seed_from_u64(5);
        let trees: Vec<DecisionTree> = (0..12u32)
            .map(|i| match i % 4 {
                0 => DecisionTree::leaf(i % 3),
                d => DecisionTree::random(&mut rng, 2 * d as usize + 2, 7, 3, 0.3),
            })
            .collect();
        let forest = RandomForest::from_trees(trees, 7, 3).unwrap();
        let store = BlockForest::build(&forest).unwrap();
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5];
        for i in 0..600 {
            let q: Vec<f32> = (0..7)
                .map(|_| if i % 3 == 0 { specials[rng.gen_range(0..4usize)] } else { rng.gen() })
                .collect();
            assert_eq!(store.predict(&q), forest.predict(&q));
            for t in 0..forest.num_trees() {
                assert_eq!(store.predict_tree(t, &q), forest.trees()[t].predict(&q), "tree {t}");
            }
        }
    }

    /// A complete depth-6 tree fills its root block, all eight child
    /// blocks contiguous behind it, and no third level. A spine seven
    /// levels deep, three blocks of its own, keeps the forest deeper than
    /// its top.
    #[test]
    fn children_are_contiguous_and_breadth_first() {
        let mut rng = StdRng::seed_from_u64(9);
        let tree = DecisionTree::random(&mut rng, 6, 4, 2, 0.0);
        let forest = RandomForest::from_trees(vec![tree.clone(), tree, spine(7)], 4, 2).unwrap();
        let store = BlockForest::build(&forest).unwrap();
        assert_eq!(store.blocks().len(), 21);
        let (root, second) = (store.blocks()[0], store.blocks()[9]);
        assert_eq!((root.mask, root.child), (0xff, 1));
        assert_eq!((second.mask, second.child), (0xff, 10));
        assert!(store.blocks()[1..9].iter().all(|b| b.mask == 0));
        assert_eq!(store.footprint().attribute_bytes, 21 * 64);
    }

    /// A leaf at depth 1 rides down the right spine: always-right slots
    /// above an inline exit, nothing queued below it. A second tree four
    /// levels deep keeps the forest deeper than its top.
    #[test]
    fn a_shallow_leaf_is_carried_to_an_exit() {
        let tree = DecisionTree::from_nodes(vec![
            Node::Inner { feature: 1, threshold: 0.5, left: 1, right: 2 },
            Node::Leaf { label: 2 },
            Node::Leaf { label: 1 },
        ])
        .unwrap();
        let forest = RandomForest::from_trees(vec![tree, spine(4)], 2, 3).unwrap();
        let store = BlockForest::build(&forest).unwrap();
        let block = store.blocks()[0];
        assert_eq!((block.feature[0], block.threshold[0]), (1, 0.5));
        for slot in [1, 2, 4, 6] {
            assert_eq!((block.feature[slot], block.threshold[slot]), (0, f32::NEG_INFINITY));
        }
        assert_eq!(block.mask, 0);
        assert_eq!((block.label[3], block.label[7]), (2, 1));
        assert_eq!(store.predict_tree(0, &[0.0, f32::NAN]), 1);
        assert_eq!(store.predict_tree(0, &[f32::NAN, 0.0]), 2);
    }

    /// A forest without features: every slot is an always-right slot on
    /// the feature-0 sentinel, and the walk reads no `query[0]` — there is
    /// none — yet reports its three query reads.
    #[test]
    fn a_featureless_forest_answers_without_indexing_the_query() {
        let forest = RandomForest::from_trees(vec![DecisionTree::leaf(1); 3], 0, 2).unwrap();
        let store = BlockForest::build(&forest).unwrap();
        let mut sink = crate::memprobe::CountingSink::default();
        assert_eq!(store.step_with(&mut store.root(2), &[], &mut sink), Some(1));
        assert_eq!((sink.attribute_fetches, sink.attribute_bytes, sink.query_fetches), (1, 64, 3));
        assert_eq!(store.predict(&[]), 1);
    }

    #[test]
    fn more_classes_than_a_u16_label_names_are_refused() {
        let forest = RandomForest::from_trees(vec![DecisionTree::leaf(0)], 1, MAX_CLASSES + 1);
        let err = BlockForest::build(&forest.unwrap()).unwrap_err();
        assert!(matches!(err, LayoutError::BadConfig { .. }), "{err}");
        let forest = RandomForest::from_trees(vec![DecisionTree::leaf(0)], 1, MAX_CLASSES);
        assert!(BlockForest::build(&forest.unwrap()).is_ok());
    }
}
