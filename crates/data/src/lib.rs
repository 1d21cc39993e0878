//! # rfx-data
//!
//! Dataset substrate for the ICPP'22 reproduction. The paper evaluates on
//! three UCI datasets (Table 1):
//!
//! | Dataset   | Samples   | Features | Domain |
//! |-----------|-----------|----------|--------|
//! | Covertype | 581,012   | 54       | cartography (binarized) |
//! | Susy      | 3,000,000 | 18       | particle physics |
//! | Higgs     | 2,750,000 | 28       | particle physics |
//!
//! Those files are not available offline, so this crate provides
//! **synthetic stand-ins** matched to each dataset's published shape and,
//! more importantly, to its *learnability profile* — how random-forest
//! accuracy responds to maximum tree depth (the paper's Fig. 5), because
//! that profile determines which tree depths every later experiment sweeps:
//!
//! * [`synthetic::planted`] — a hierarchical planted partition: labels come
//!   from a deep random ground-truth tree whose class log-odds drift as a
//!   random walk down the tree. Shallow learners capture the coarse drift;
//!   full accuracy needs trees about as deep as the plant. Used for
//!   Covertype-like data (deep knee, ≈89 % ceiling).
//! * [`synthetic::physics`] — smooth nonlinear decision boundaries over
//!   physics-flavoured features with logistic label noise, giving early
//!   saturation. Used for Susy-like (≈80 %) and Higgs-like (≈74 %) data.
//! * [`synthetic::mixture`] — Gaussian mixtures, for tests and examples.
//!
//! [`specs`] exposes one [`specs::DatasetSpec`] per paper dataset (plus
//! scaled-down variants) and [`split`] provides the paper's 1:1
//! train/test split.

#![forbid(unsafe_code)]

pub mod io;
pub mod specs;
pub mod split;
pub mod stats;
pub mod synthetic;

pub use specs::{DatasetKind, DatasetSpec};
pub use split::train_test_split;
