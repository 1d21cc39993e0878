//! # rfx-forest
//!
//! Random-forest **substrate** for the ICPP'22 reproduction of
//! *Accelerating Random Forest Classification on GPU and FPGA* (Shah et al.).
//!
//! The paper trains its forests with scikit-learn's
//! `RandomForestClassifier` and then accelerates *classification only*.
//! This crate replaces that training substrate with a from-scratch CART
//! implementation so the whole pipeline is reproducible offline:
//!
//! * [`Dataset`] — a dense `f32` feature matrix plus integer class labels.
//! * [`DecisionTree`] — a pointer-free (index-based) binary decision tree.
//! * [`RandomForest`] — an ensemble of trees with majority-vote prediction.
//! * [`train`] — Gini/entropy CART growth with exact (sort-based) and
//!   histogram (binned) split finders, bootstrap sampling, and
//!   sqrt-feature subsampling — the same knobs the paper tunes
//!   (`max_depth`, `n_estimators`).
//! * [`metrics`] — accuracy and confusion matrices for Fig. 5.
//! * [`importance`] — Gini feature importance and out-of-bag scoring.
//! * [`online`] — Hoeffding-bound streaming trainer that refreshes a
//!   forest from an unbounded sample stream and publishes immutable
//!   [`RandomForest`] snapshots (the artifacts a serving-side model
//!   registry versions and hot-swaps).
//!
//! Everything is deterministic given a seed: trees are trained in parallel
//! with per-tree RNG streams derived from the forest seed.
//!
//! ```
//! use rfx_forest::{Dataset, train::TrainConfig, RandomForest};
//!
//! // A tiny two-class problem: class = (x0 > 0.5).
//! let rows: Vec<f32> = (0..200).flat_map(|i| {
//!     let x = (i as f32) / 200.0;
//!     vec![x, 1.0 - x]
//! }).collect();
//! let labels: Vec<u32> = (0..200).map(|i| ((i as f32) / 200.0 > 0.5) as u32).collect();
//! let ds = Dataset::from_rows(rows, 2, labels).unwrap();
//!
//! let cfg = TrainConfig { n_trees: 5, max_depth: 4, seed: 7, ..TrainConfig::default() };
//! let forest = RandomForest::fit(&ds, &cfg).unwrap();
//! let acc = rfx_forest::metrics::accuracy(&forest.predict_batch(&ds), ds.labels());
//! assert!(acc > 0.95);
//! ```

#![forbid(unsafe_code)]

pub mod dataset;
pub mod error;
pub mod forest;
pub mod importance;
pub mod metrics;
pub mod online;
pub mod sampling;
pub mod serialize;
pub mod train;
pub mod tree;

pub use dataset::Dataset;
pub use error::ForestError;
pub use forest::RandomForest;
pub use tree::{DecisionTree, Node, NodeId};
