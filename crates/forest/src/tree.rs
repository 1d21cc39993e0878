//! Pointer-free binary decision trees.
//!
//! Trees are stored as a flat `Vec<Node>` with `u32` child indices — the
//! canonical CPU representation the paper's layouts (CSR, hierarchical,
//! FIL-style) are all derived from. The traversal convention matches
//! Fig. 1b / Fig. 2a of the paper: an inner node holds a comparison
//! `query[feature] < threshold`; `true` goes left, `false` goes right;
//! a leaf returns its class label.

use crate::error::ForestError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Index of a node within its tree's node vector.
pub type NodeId = u32;

/// A single decision-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// An internal comparison node: `query[feature] < threshold` selects
    /// `left`, otherwise `right`.
    Inner {
        /// Feature column the comparison reads.
        feature: u16,
        /// Comparison threshold.
        threshold: f32,
        /// Child taken when the comparison is true.
        left: NodeId,
        /// Child taken when the comparison is false.
        right: NodeId,
    },
    /// A terminal node carrying the predicted class label.
    Leaf {
        /// Predicted class.
        label: u32,
    },
}

impl Node {
    /// Whether this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }
}

/// A binary decision tree rooted at node 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Wraps a node vector as a tree after validating its structure
    /// (see [`DecisionTree::validate`]).
    pub fn from_nodes(nodes: Vec<Node>) -> Result<Self, ForestError> {
        let tree = Self { nodes };
        tree.validate()?;
        Ok(tree)
    }

    /// Wraps a node vector unchecked, for a reader that checks the tree
    /// itself (`forest::check_tree`).
    pub(crate) fn from_nodes_unchecked(nodes: Vec<Node>) -> Self {
        Self { nodes }
    }

    /// Creates a single-leaf tree.
    pub fn leaf(label: u32) -> Self {
        Self { nodes: vec![Node::Leaf { label }] }
    }

    /// Structural validation: non-empty, child indices in range, every
    /// non-root node referenced exactly once, no node reachable twice
    /// (i.e. the nodes form a tree, not a DAG or a cycle).
    pub fn validate(&self) -> Result<(), ForestError> {
        self.check(None)
    }

    /// [`DecisionTree::validate`] and, given `(num_features, num_classes)`,
    /// the forest's bounds — every feature read below `num_features`
    /// ([`ForestError::Corrupt`]), every leaf label below `num_classes`
    /// ([`ForestError::LabelOutOfRange`]) — in one pass over the nodes.
    pub(crate) fn check(&self, bounds: Option<(usize, u32)>) -> Result<(), ForestError> {
        if self.nodes.is_empty() {
            return Err(ForestError::Corrupt { detail: "tree has no nodes".into() });
        }
        let n = self.nodes.len();
        let (num_features, num_classes) = bounds.unwrap_or((usize::MAX, u32::MAX));
        // Distinct, in range and not the root: with `n − 1` references
        // in all, every non-root node then has exactly one parent.
        let mut referenced = vec![false; n];
        let mut references = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            match *node {
                Node::Inner { feature, left, right, .. } => {
                    if feature as usize >= num_features {
                        return Err(ForestError::Corrupt {
                            detail: format!("node {i} reads feature {feature} of {num_features}"),
                        });
                    }
                    for c in [left, right] {
                        if c as usize >= n {
                            return Err(ForestError::Corrupt {
                                detail: format!("node {i} references child {c} out of {n}"),
                            });
                        }
                        if c == 0 {
                            return Err(ForestError::Corrupt {
                                detail: format!("node {i} references the root as a child"),
                            });
                        }
                        if std::mem::replace(&mut referenced[c as usize], true) {
                            return Err(ForestError::Corrupt {
                                detail: format!("node {c} has multiple parents"),
                            });
                        }
                    }
                    references += 2;
                }
                Node::Leaf { label } => {
                    if bounds.is_some() && label >= num_classes {
                        return Err(ForestError::LabelOutOfRange { label, num_classes });
                    }
                }
            }
        }
        if references != n - 1 {
            let orphan = referenced.iter().skip(1).position(|&r| !r).map_or(0, |o| o + 1);
            return Err(ForestError::Corrupt { detail: format!("node {orphan} is unreachable") });
        }
        Ok(())
    }

    /// The node vector.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Total node count (inner + leaf).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Depth of the tree: the number of edges on the longest root-to-leaf
    /// path. A single-leaf tree has depth 0.
    pub fn depth(&self) -> usize {
        // Iterative DFS with explicit stack: trained trees reach depth 50,
        // random ones in property tests can be deeper; recursion is
        // needlessly fragile here.
        let mut max = 0usize;
        let mut stack = vec![(0u32, 0usize)];
        while let Some((id, d)) = stack.pop() {
            match self.nodes[id as usize] {
                Node::Leaf { .. } => max = max.max(d),
                Node::Inner { left, right, .. } => {
                    stack.push((left, d + 1));
                    stack.push((right, d + 1));
                }
            }
        }
        max
    }

    /// Classifies one query row by walking the tree (the reference
    /// implementation every layout and every kernel is tested against).
    #[inline]
    pub fn predict(&self, query: &[f32]) -> u32 {
        let mut id = 0u32;
        loop {
            match self.nodes[id as usize] {
                Node::Leaf { label } => return label,
                Node::Inner { feature, threshold, left, right } => {
                    id = if query[feature as usize] < threshold { left } else { right };
                }
            }
        }
    }

    /// Depth (edge count from root) of every node, in node-vector order.
    pub fn node_depths(&self) -> Vec<usize> {
        let mut depths = vec![0usize; self.nodes.len()];
        let mut stack = vec![0u32];
        while let Some(id) = stack.pop() {
            if let Node::Inner { left, right, .. } = self.nodes[id as usize] {
                depths[left as usize] = depths[id as usize] + 1;
                depths[right as usize] = depths[id as usize] + 1;
                stack.push(left);
                stack.push(right);
            }
        }
        depths
    }

    /// Generates a random tree for testing and for synthetic workloads
    /// (Table 3 of the paper uses a synthetic forest: t=40, d=15).
    ///
    /// Growth: starting from the root, each node at depth `< max_depth`
    /// becomes an inner node with probability `1 - leaf_prob`, with a
    /// uniformly random feature and a threshold drawn from `[0, 1)`;
    /// nodes at `max_depth` are always leaves. The root is never a leaf
    /// when `max_depth > 0`, so the tree is guaranteed non-trivial.
    pub fn random<R: Rng>(
        rng: &mut R,
        max_depth: usize,
        num_features: u16,
        num_classes: u32,
        leaf_prob: f64,
    ) -> Self {
        assert!(num_features > 0 && num_classes > 0);
        let mut nodes: Vec<Node> = Vec::new();
        // Frontier of (node index to fill, depth).
        nodes.push(Node::Leaf { label: 0 }); // placeholder root
        let mut stack = vec![(0u32, 0usize)];
        while let Some((id, depth)) = stack.pop() {
            let force_inner = id == 0 && max_depth > 0;
            let make_inner = force_inner || (depth < max_depth && !rng.gen_bool(leaf_prob));
            if make_inner {
                let left = nodes.len() as u32;
                nodes.push(Node::Leaf { label: 0 });
                let right = nodes.len() as u32;
                nodes.push(Node::Leaf { label: 0 });
                nodes[id as usize] = Node::Inner {
                    feature: rng.gen_range(0..num_features),
                    threshold: rng.gen::<f32>(),
                    left,
                    right,
                };
                stack.push((left, depth + 1));
                stack.push((right, depth + 1));
            } else {
                nodes[id as usize] = Node::Leaf { label: rng.gen_range(0..num_classes) };
            }
        }
        Self { nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The example tree from Fig. 2a of the paper.
    ///
    /// node 0: f[1] < 2.5  -> L: node 1 (leaf 0), R: node 2
    /// node 2: f[4] < 0.5  -> L: node 3, R: node 4
    /// node 3: f[8] < 5.4  -> L: node 7 (leaf 0), R: node 8 (leaf 1)
    /// node 4: f[20] < 8.8 -> L: node 5 (leaf 1), R: node 6 (leaf 0)
    pub(crate) fn paper_tree() -> DecisionTree {
        DecisionTree::from_nodes(vec![
            Node::Inner { feature: 1, threshold: 2.5, left: 1, right: 2 },
            Node::Leaf { label: 0 },
            Node::Inner { feature: 4, threshold: 0.5, left: 3, right: 4 },
            Node::Inner { feature: 8, threshold: 5.4, left: 7, right: 8 },
            Node::Inner { feature: 20, threshold: 8.8, left: 5, right: 6 },
            Node::Leaf { label: 1 },
            Node::Leaf { label: 0 },
            Node::Leaf { label: 0 },
            Node::Leaf { label: 1 },
        ])
        .unwrap()
    }

    fn query(pairs: &[(usize, f32)]) -> Vec<f32> {
        let mut q = vec![0.0f32; 32];
        for &(i, v) in pairs {
            q[i] = v;
        }
        q
    }

    #[test]
    fn paper_example_classification() {
        let t = paper_tree();
        // Paper walk-through: f[1] = 1.25 goes left to leaf node 1 -> class A (0).
        assert_eq!(t.predict(&query(&[(1, 1.25)])), 0);
        // f[1]=3.0 (right), f[4]=0.0 (left to node 3), f[8]=9.9 (right) -> leaf 8 = 1.
        assert_eq!(t.predict(&query(&[(1, 3.0), (4, 0.0), (8, 9.9)])), 1);
        // f[1]=3.0, f[4]=1.0 (right to node 4), f[20]=0.0 (left) -> leaf 5 = 1.
        assert_eq!(t.predict(&query(&[(1, 3.0), (4, 1.0), (20, 0.0)])), 1);
    }

    #[test]
    fn shape_stats() {
        let t = paper_tree();
        assert_eq!(t.num_nodes(), 9);
        assert_eq!(t.num_leaves(), 5);
        assert_eq!(t.depth(), 3);
        let depths = t.node_depths();
        assert_eq!(depths[0], 0);
        assert_eq!(depths[2], 1);
        assert_eq!(depths[8], 3);
    }

    #[test]
    fn single_leaf_tree() {
        let t = DecisionTree::leaf(3);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[]), 3);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_child() {
        let r = DecisionTree::from_nodes(vec![
            Node::Inner { feature: 0, threshold: 0.0, left: 1, right: 9 },
            Node::Leaf { label: 0 },
        ]);
        assert!(matches!(r, Err(ForestError::Corrupt { .. })));
    }

    #[test]
    fn validate_rejects_cycle_via_root() {
        let r = DecisionTree::from_nodes(vec![
            Node::Inner { feature: 0, threshold: 0.0, left: 0, right: 1 },
            Node::Leaf { label: 0 },
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn validate_rejects_shared_child() {
        let r = DecisionTree::from_nodes(vec![
            Node::Inner { feature: 0, threshold: 0.0, left: 1, right: 1 },
            Node::Leaf { label: 0 },
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn validate_rejects_orphan() {
        let r = DecisionTree::from_nodes(vec![Node::Leaf { label: 0 }, Node::Leaf { label: 1 }]);
        assert!(r.is_err());
    }

    #[test]
    fn random_trees_are_valid_and_bounded() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let t = DecisionTree::random(&mut rng, 8, 10, 2, 0.3);
            t.validate().unwrap();
            assert!(t.depth() <= 8);
            assert!(t.depth() >= 1);
        }
    }

    #[test]
    fn random_tree_depth_zero_is_leaf() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = DecisionTree::random(&mut rng, 0, 4, 3, 0.5);
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    fn random_tree_deterministic_per_seed() {
        let a = DecisionTree::random(&mut StdRng::seed_from_u64(7), 6, 5, 2, 0.25);
        let b = DecisionTree::random(&mut StdRng::seed_from_u64(7), 6, 5, 2, 0.25);
        assert_eq!(a, b);
    }
}
