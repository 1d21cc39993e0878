//! The benchmark's own traversal: frozen here, so that it stays put
//! while the product's layouts and kernels change.
//!
//! Between identical runs on the sandbox, every timed thing moves
//! together by ±15 % for a whole run (probably a neighbour on the
//! sibling hyperthread or the shared cache; an integer spin does not
//! see it). No estimator inside a run can remove that, but a ratio can
//! (NOISE.md has the numbers): a pass of
//! this traversal over the same forest and rows, on the same threads,
//! runs just before and after every product pass and every capacity
//! window, and the product is reported as a multiple of it. The
//! reference is memory-bound where the product is and compute-bound
//! where the product is, because it walks the same trees.

use rfx_forest::dataset::QueryView;
use rfx_forest::{Node, RandomForest};

/// Marks a leaf in [`Flat::feature`]; `left` then holds the label.
const LEAF: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Flat {
    feature: u32,
    threshold: f32,
    /// Absolute index of the child taken when `query[feature] < threshold`.
    left: u32,
    right: u32,
}

/// Every tree of a forest in one node vector, children as absolute
/// indices: the plainest layout there is.
pub struct Reference {
    nodes: Vec<Flat>,
    roots: Vec<u32>,
    classes: usize,
}

impl Reference {
    pub fn build(forest: &RandomForest) -> Reference {
        let mut nodes = Vec::with_capacity(forest.total_nodes());
        let mut roots = Vec::with_capacity(forest.num_trees());
        for tree in forest.trees() {
            let base = u32::try_from(nodes.len()).expect("forests have fewer than 2^32 nodes");
            roots.push(base);
            nodes.extend(tree.nodes().iter().map(|node| match *node {
                Node::Leaf { label } => {
                    Flat { feature: LEAF, threshold: 0.0, left: label, right: 0 }
                }
                Node::Inner { feature, threshold, left, right } => Flat {
                    feature: u32::from(feature),
                    threshold,
                    left: base + left,
                    right: base + right,
                },
            }));
        }
        Reference { nodes, roots, classes: forest.num_classes() as usize }
    }

    fn predict_row(&self, row: &[f32], votes: &mut [u32]) -> u32 {
        votes.fill(0);
        for &root in &self.roots {
            let mut node = self.nodes[root as usize];
            while node.feature != LEAF {
                let next = if row[node.feature as usize] < node.threshold {
                    node.left
                } else {
                    node.right
                };
                node = self.nodes[next as usize];
            }
            votes[node.left as usize] += 1;
        }
        // Majority label, lowest class id on ties, like the product.
        let mut best = 0;
        for (class, &n) in votes.iter().enumerate() {
            if n > votes[best] {
                best = class;
            }
        }
        best as u32
    }

    /// Classifies `queries` on `threads` threads, rows split evenly.
    pub fn predict_into(&self, queries: QueryView<'_>, threads: usize, out: &mut [u32]) {
        let rows = queries.num_rows();
        assert_eq!(out.len(), rows, "one label per row");
        let chunk = rows.div_ceil(threads.max(1)).max(1);
        std::thread::scope(|scope| {
            for (i, labels) in out.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    let mut votes = vec![0u32; self.classes];
                    for (j, label) in labels.iter_mut().enumerate() {
                        *label = self.predict_row(queries.row(i * chunk + j), &mut votes);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate;
    use crate::workloads::ALL;
    use rfx_forest::serialize::read_forest;

    #[test]
    fn reference_traversal_equals_the_oracle() {
        let inputs = generate(&ALL[1].smoke(), 5);
        let forest = read_forest(&inputs.forest_a[..]).unwrap();
        let reference = Reference::build(&forest);
        for threads in [1, 2, 3] {
            let mut out = vec![u32::MAX; inputs.rows()];
            reference.predict_into(inputs.queries(inputs.rows()), threads, &mut out);
            assert_eq!(out, inputs.oracle_a, "{threads} threads");
        }
    }
}
