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
//! Exit labels are u16, so the store serves forests of at most
//! [`MAX_CLASSES`] classes ([`check_forest`]).

use crate::footprint::LayoutFootprint;
use crate::memprobe::FetchSink;
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

/// Classes an exit label can name.
pub const MAX_CLASSES: u32 = 1 << 16;

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
/// next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCursor(u32);

/// A forest as one-line blocks, tree after tree.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockForest {
    blocks: Vec<Block>,
    /// Root block of tree `t` (len = num_trees + 1).
    tree_offset: Vec<u32>,
    num_classes: u32,
    num_features: usize,
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
    /// Converts a forest: a counting pass sizes the output, then one pass
    /// emits each tree's blocks breadth-first, every block's children
    /// contiguous.
    pub fn build(forest: &RandomForest) -> Result<Self, LayoutError> {
        check_forest(forest)?;
        // Sized exactly up front: a 64 B-aligned buffer cannot grow or
        // shrink in place, so any resize would copy it whole.
        let mut stack = Vec::new();
        let count: usize = forest.trees().iter().map(|t| count_blocks(t, &mut stack)).sum();
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
        let store = BlockForest {
            blocks,
            tree_offset,
            num_classes: forest.num_classes(),
            num_features: forest.num_features(),
        };
        if cfg!(debug_assertions) {
            store.assert_postconditions();
        }
        Ok(store)
    }

    /// What every walk relies on, checked by debug builds after each
    /// build: a block's children lie strictly after it and within its own
    /// tree's blocks, and every exit that answers names one of the
    /// forest's classes.
    fn assert_postconditions(&self) {
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

    /// Every block, tree after tree.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }
}

// One `step` resolves a block's three levels; `prefetch` asks for the
// child block's one line.
impl TreeEnsemble for BlockForest {
    type Cursor = BlockCursor;
    type TopSlot = ();

    fn num_trees(&self) -> usize {
        self.tree_offset.len() - 1
    }

    fn num_classes(&self) -> u32 {
        self.num_classes
    }

    fn num_features(&self) -> usize {
        self.num_features
    }

    /// Bytes resident: the blocks as attributes (topology is the child
    /// index and mask inside each line), the tree directory as index.
    fn footprint(&self) -> LayoutFootprint {
        LayoutFootprint {
            attribute_bytes: self.blocks.len() * BLOCK_BYTES,
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
    #[inline]
    fn step_with<S: FetchSink + ?Sized>(
        &self,
        cursor: &mut BlockCursor,
        query: &[f32],
        sink: &mut S,
    ) -> Option<Label> {
        sink.attribute(u64::from(cursor.0) * BLOCK_BYTES as u64, BLOCK_BYTES as u32);
        let block = &self.blocks[cursor.0 as usize];
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
}

/// Blocks `tree` takes: its root block, plus one per inner node three,
/// six, … levels down. `stack` is a reused buffer of (node, depth in its
/// block) pairs.
fn count_blocks(tree: &DecisionTree, stack: &mut Vec<(u32, u32)>) -> usize {
    let mut blocks = 1;
    stack.clear();
    stack.push((0, 0));
    while let Some((id, depth)) = stack.pop() {
        if let Node::Inner { left, right, .. } = tree.nodes()[id as usize] {
            let depth = if depth == BLOCK_DEPTH {
                blocks += 1;
                1
            } else {
                depth + 1
            };
            stack.extend([(left, depth), (right, depth)]);
        }
    }
    blocks
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

    /// The build's postconditions catch a child index that points back.
    #[test]
    #[should_panic(expected = "child not forward")]
    fn a_backward_child_fails_the_postconditions() {
        let mut rng = StdRng::seed_from_u64(3);
        let tree = DecisionTree::random(&mut rng, 5, 7, 3, 0.0);
        let forest = RandomForest::from_trees(vec![tree], 7, 3).unwrap();
        let mut store = BlockForest::build(&forest).unwrap();
        store.blocks[0].child = 0;
        store.assert_postconditions();
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
    /// blocks contiguous behind it, and no third level.
    #[test]
    fn children_are_contiguous_and_breadth_first() {
        let mut rng = StdRng::seed_from_u64(9);
        let tree = DecisionTree::random(&mut rng, 6, 4, 2, 0.0);
        let forest = RandomForest::from_trees(vec![tree.clone(), tree], 4, 2).unwrap();
        let store = BlockForest::build(&forest).unwrap();
        assert_eq!(store.blocks().len(), 18);
        let (root, second) = (store.blocks()[0], store.blocks()[9]);
        assert_eq!((root.mask, root.child), (0xff, 1));
        assert_eq!((second.mask, second.child), (0xff, 10));
        assert!(store.blocks()[1..9].iter().all(|b| b.mask == 0));
        assert_eq!(store.footprint().attribute_bytes, 18 * 64);
    }

    /// A leaf at depth 1 rides down the right spine: always-right slots
    /// above an inline exit, nothing queued below it.
    #[test]
    fn a_shallow_leaf_is_carried_to_an_exit() {
        let tree = DecisionTree::from_nodes(vec![
            Node::Inner { feature: 1, threshold: 0.5, left: 1, right: 2 },
            Node::Leaf { label: 2 },
            Node::Leaf { label: 1 },
        ])
        .unwrap();
        let forest = RandomForest::from_trees(vec![tree], 2, 3).unwrap();
        let store = BlockForest::build(&forest).unwrap();
        let block = store.blocks()[0];
        assert_eq!((block.feature[0], block.threshold[0]), (1, 0.5));
        for slot in [1, 2, 4, 6] {
            assert_eq!((block.feature[slot], block.threshold[slot]), (0, f32::NEG_INFINITY));
        }
        assert_eq!(block.mask, 0);
        assert_eq!((block.label[3], block.label[7]), (2, 1));
        assert_eq!(store.predict(&[0.0, f32::NAN]), 1);
        assert_eq!(store.predict(&[f32::NAN, 0.0]), 2);
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
