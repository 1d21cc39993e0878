//! Random-forest ensembles: training orchestration and reference
//! (CPU, scalar) majority-vote prediction.

use crate::dataset::{Dataset, QueryView};
use crate::error::ForestError;
use crate::sampling::{bootstrap_indices, full_indices, tree_rng};
use crate::train::builder::TreeBuilder;
use crate::train::{BinnedDataset, TrainConfig};
use crate::tree::DecisionTree;
use rayon::prelude::*;
use serde::Serialize;

/// A trained random forest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    num_features: usize,
    num_classes: u32,
}

impl RandomForest {
    /// Assembles a forest from pre-built trees (layout tests and synthetic
    /// Table-3 workloads construct forests this way), checking in one pass
    /// per tree its structure, that every feature it reads is below
    /// `num_features` and every leaf label below `num_classes`
    /// ([`ForestError::LabelOutOfRange`]): a label past the vote table
    /// would count for another row's classes.
    pub fn from_trees(
        trees: Vec<DecisionTree>,
        num_features: usize,
        num_classes: u32,
    ) -> Result<Self, ForestError> {
        check_shape(trees.len(), num_classes)?;
        for (i, t) in trees.iter().enumerate() {
            check_tree(i, t, num_features, num_classes)?;
        }
        Ok(Self { trees, num_features, num_classes })
    }

    /// A forest whose shape and every tree passed [`check_shape`] and
    /// [`check_tree`] — for a reader that checks each tree as it arrives.
    pub(crate) fn from_checked(
        trees: Vec<DecisionTree>,
        num_features: usize,
        num_classes: u32,
    ) -> Self {
        Self { trees, num_features, num_classes }
    }

    /// Trains a forest on `ds` with the given configuration.
    ///
    /// Trees are grown in parallel (Rayon) with per-tree deterministic RNG
    /// streams; the result is independent of the thread count.
    pub fn fit(ds: &Dataset, cfg: &TrainConfig) -> Result<Self, ForestError> {
        cfg.validate()?;
        if ds.num_rows() == 0 {
            return Err(ForestError::EmptyDataset);
        }
        let binned =
            cfg.use_histogram().then(|| BinnedDataset::build(ds, cfg.histogram_bins(), 65_536));
        let trees: Vec<DecisionTree> = (0..cfg.n_trees)
            .into_par_iter()
            .map(|i| {
                let mut rng = tree_rng(cfg.seed, i as u64);
                let mut samples = if cfg.bootstrap {
                    bootstrap_indices(&mut rng, ds.num_rows())
                } else {
                    full_indices(ds.num_rows())
                };
                TreeBuilder::new(ds, binned.as_ref(), cfg).grow(&mut samples, &mut rng)
            })
            .collect();
        Ok(Self { trees, num_features: ds.num_features(), num_classes: ds.num_classes() })
    }

    /// The trees of the ensemble.
    #[inline]
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Number of trees.
    #[inline]
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Feature-vector width expected by [`RandomForest::predict`].
    #[inline]
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes voted over.
    #[inline]
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// Maximum depth over all trees.
    pub fn max_depth(&self) -> usize {
        self.trees.iter().map(|t| t.depth()).max().unwrap_or(0)
    }

    /// Total node count over all trees.
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.num_nodes()).sum()
    }

    /// Classifies one query by majority vote (ties break toward the lower
    /// class id, matching [`crate::train::criterion::majority_class`]).
    pub fn predict(&self, query: &[f32]) -> u32 {
        let mut votes = vec![0u32; self.num_classes as usize];
        for t in &self.trees {
            votes[t.predict(query) as usize] += 1;
        }
        argmax(&votes)
    }

    /// Classifies a batch sequentially — the scalar reference all
    /// accelerated kernels are validated against.
    pub fn predict_batch<'a, Q: Into<QueryView<'a>>>(&self, queries: Q) -> Vec<u32> {
        let q: QueryView = queries.into();
        (0..q.num_rows()).map(|r| self.predict(q.row(r))).collect()
    }

    /// Classifies a batch in parallel with Rayon (the production CPU path).
    pub fn predict_batch_parallel<'a, Q: Into<QueryView<'a>>>(&self, queries: Q) -> Vec<u32> {
        let q: QueryView = queries.into();
        (0..q.num_rows()).into_par_iter().map(|r| self.predict(q.row(r))).collect()
    }

    /// Per-tree raw votes for one query (used by kernel tests to check
    /// vote-accumulation logic, and by the examples to show vote margins).
    pub fn votes(&self, query: &[f32]) -> Vec<u32> {
        let mut votes = vec![0u32; self.num_classes as usize];
        for t in &self.trees {
            votes[t.predict(query) as usize] += 1;
        }
        votes
    }
}

/// What [`RandomForest::from_trees`] requires of a forest besides its
/// trees: at least one tree and one class.
pub(crate) fn check_shape(num_trees: usize, num_classes: u32) -> Result<(), ForestError> {
    if num_trees == 0 {
        return Err(ForestError::InvalidConfig {
            field: "trees",
            detail: "a forest needs at least one tree".into(),
        });
    }
    if num_classes == 0 {
        return Err(ForestError::InvalidConfig {
            field: "num_classes",
            detail: "must be at least 1".into(),
        });
    }
    Ok(())
}

/// What [`RandomForest::from_trees`] requires of tree `i`, in one pass
/// over its nodes: a tree's structure, every feature read below
/// `num_features` and every leaf label below `num_classes`.
pub(crate) fn check_tree(
    i: usize,
    tree: &DecisionTree,
    num_features: usize,
    num_classes: u32,
) -> Result<(), ForestError> {
    tree.check(Some((num_features, num_classes))).map_err(|e| match e {
        ForestError::Corrupt { detail } => {
            ForestError::Corrupt { detail: format!("tree {i}: {detail}") }
        }
        other => other,
    })
}

#[inline]
fn argmax(votes: &[u32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in votes.iter().enumerate() {
        if v > votes[best] {
            best = i;
        }
    }
    best as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::MaxFeatures;
    use crate::tree::Node;

    fn diag_dataset(n: usize) -> Dataset {
        // Two interleaved diagonal bands; learnable at depth ~4.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let x = (i as f32 * 0.7919) % 1.0;
            let y = (i as f32 * 0.4217) % 1.0;
            rows.push(x);
            rows.push(y);
            labels.push((x + y > 1.0) as u32);
        }
        Dataset::from_rows(rows, 2, labels).unwrap()
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            n_trees: 15,
            max_depth: 7,
            max_features: MaxFeatures::All,
            seed: 13,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn fit_and_predict_reasonably() {
        let ds = diag_dataset(1500);
        let f = RandomForest::fit(&ds, &quick_cfg()).unwrap();
        assert_eq!(f.num_trees(), 15);
        assert_eq!(f.num_features(), 2);
        assert_eq!(f.num_classes(), 2);
        let preds = f.predict_batch(&ds);
        let acc = preds.iter().zip(ds.labels()).filter(|(p, l)| p == l).count() as f64
            / ds.num_rows() as f64;
        assert!(acc > 0.93, "training accuracy {acc}");
    }

    #[test]
    fn parallel_prediction_matches_serial() {
        let ds = diag_dataset(800);
        let f = RandomForest::fit(&ds, &quick_cfg()).unwrap();
        assert_eq!(f.predict_batch(&ds), f.predict_batch_parallel(&ds));
    }

    #[test]
    fn training_is_deterministic() {
        let ds = diag_dataset(600);
        let f1 = RandomForest::fit(&ds, &quick_cfg()).unwrap();
        let f2 = RandomForest::fit(&ds, &quick_cfg()).unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn different_seeds_give_different_forests() {
        let ds = diag_dataset(600);
        let f1 = RandomForest::fit(&ds, &quick_cfg()).unwrap();
        let f2 = RandomForest::fit(&ds, &TrainConfig { seed: 14, ..quick_cfg() }).unwrap();
        assert_ne!(f1, f2);
    }

    #[test]
    fn depth_cap_is_enforced_across_forest() {
        let ds = diag_dataset(1000);
        let cfg = TrainConfig { max_depth: 3, ..quick_cfg() };
        let f = RandomForest::fit(&ds, &cfg).unwrap();
        assert!(f.max_depth() <= 3);
    }

    #[test]
    fn votes_sum_to_tree_count() {
        let ds = diag_dataset(300);
        let f = RandomForest::fit(&ds, &quick_cfg()).unwrap();
        let v = f.votes(ds.row(0));
        assert_eq!(v.iter().sum::<u32>() as usize, f.num_trees());
    }

    #[test]
    fn from_trees_validates() {
        assert!(RandomForest::from_trees(vec![], 3, 2).is_err());
        let bad = vec![DecisionTree::leaf(0), {
            // Build an invalid tree by bypassing from_nodes via serde round
            // trip of a valid one, then corrupting — simpler: an inner node
            // with out-of-range child can't be built through the API, so
            // test the num_classes check instead.
            DecisionTree::leaf(1)
        }];
        assert!(RandomForest::from_trees(bad, 3, 0).is_err());
        let ok = RandomForest::from_trees(vec![DecisionTree::leaf(1)], 3, 2).unwrap();
        assert_eq!(ok.predict(&[0.0, 0.0, 0.0]), 1);
    }

    #[test]
    fn from_trees_rejects_labels_and_features_out_of_range() {
        let stump = |feature, label| {
            DecisionTree::from_nodes(vec![
                Node::Inner { feature, threshold: 0.5, left: 1, right: 2 },
                Node::Leaf { label: 0 },
                Node::Leaf { label },
            ])
            .unwrap()
        };
        assert!(RandomForest::from_trees(vec![stump(2, 1)], 3, 2).is_ok());
        assert_eq!(
            RandomForest::from_trees(vec![stump(2, 1), stump(0, 2)], 3, 2),
            Err(ForestError::LabelOutOfRange { label: 2, num_classes: 2 })
        );
        match RandomForest::from_trees(vec![stump(2, 1), stump(3, 1)], 3, 2) {
            Err(ForestError::Corrupt { detail }) => {
                assert!(detail.starts_with("tree 1:"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn majority_vote_tie_breaks_low() {
        let t0 = DecisionTree::leaf(0);
        let t1 = DecisionTree::leaf(1);
        let f = RandomForest::from_trees(vec![t0, t1], 1, 2).unwrap();
        assert_eq!(f.predict(&[0.0]), 0);
    }

    #[test]
    fn no_bootstrap_uses_all_rows() {
        // Without bootstrap and with all features, two trees with the same
        // stream-independent seeds still differ only via RNG; with
        // max_features=All and deterministic splits they are identical.
        let ds = diag_dataset(400);
        let cfg = TrainConfig {
            bootstrap: false,
            n_trees: 2,
            max_features: MaxFeatures::All,
            ..quick_cfg()
        };
        let f = RandomForest::fit(&ds, &cfg).unwrap();
        assert_eq!(f.trees()[0], f.trees()[1]);
    }

    #[test]
    fn forest_trees_are_structurally_valid() {
        let ds = diag_dataset(500);
        let f = RandomForest::fit(&ds, &quick_cfg()).unwrap();
        for t in f.trees() {
            t.validate().unwrap();
            assert!(t.nodes().iter().any(|n| matches!(n, Node::Inner { .. })));
        }
    }
}
