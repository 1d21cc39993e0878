//! The served model: a trained forest plus the layout the backends walk,
//! shared immutably. Only the node-vector forest exists up front; the
//! one-line block store ([`rfx_core::block`]) is built at most once, when
//! a backend of a published version first asks for it. The published
//! version keeps that store and drops the forest itself (see
//! [`crate::registry`]).

use rfx_core::hier::builder::build_within;
use rfx_core::{block, BlockForest, HierForest, LayoutError};
use rfx_forest::RandomForest;
use std::sync::{Arc, OnceLock};

/// Shared memory per SM of the paper's Titan Xp, the budget
/// [`ServeModel::hier`] fits the hierarchical root subtree to.
const PAPER_SHARED_BYTES: usize = 48 << 10;

/// Immutable serving artifact: the node-vector forest the layouts are
/// built from and the one-line block store every slot walks (the q8
/// slot when its own build refuses the forest). Cheap to clone —
/// everything heavy is behind `Arc`. Each clone has its own layout
/// cells, so a clone a caller keeps never pins the block store of a
/// version the registry has let go of.
#[derive(Debug, Clone)]
pub struct ServeModel {
    forest: Arc<RandomForest>,
    blocks: OnceLock<Arc<BlockForest>>,
    hier: OnceLock<Arc<HierForest>>,
}

impl ServeModel {
    /// Prepares a model. It checks everything the block build can refuse
    /// about `forest` — so a later [`ServeModel::blocks`] cannot fail —
    /// and builds no layout: the store is left to the first backend that
    /// walks it. The tightest check is the exit labels': at most
    /// [`block::MAX_CLASSES`] classes (they are u16); a wider forest is
    /// refused with [`LayoutError::BadConfig`].
    pub fn prepare(forest: RandomForest) -> Result<Self, LayoutError> {
        block::check_forest(&forest)?;
        Ok(ServeModel { forest: Arc::new(forest), blocks: OnceLock::new(), hier: OnceLock::new() })
    }

    /// Feature width every submission must match.
    pub fn num_features(&self) -> usize {
        self.forest.num_features()
    }

    /// Number of label classes; any delivered label must be below it
    /// (the service's corruption check relies on this bound).
    pub fn num_classes(&self) -> u32 {
        self.forest.num_classes()
    }

    /// The node-vector forest every layout is built from.
    pub fn forest(&self) -> &Arc<RandomForest> {
        &self.forest
    }

    /// The one-line block store the sharded CPU backend and the q8 slot's
    /// stand-in walk, built by the first call on this model (a clone
    /// taken after that call shares the build, one taken before builds
    /// its own).
    pub fn blocks(&self) -> &Arc<BlockForest> {
        self.blocks.get_or_init(|| {
            let blocks = BlockForest::build(&self.forest);
            Arc::new(blocks.expect("construction checked everything the block build can refuse"))
        })
    }

    /// The hierarchical layout of the offline GPU/FPGA instruments, with
    /// the deepest root subtree that fits the paper's 48 KB of shared
    /// memory ([`build_within`]), built by the first call on this model.
    /// No slot walks it.
    ///
    /// # Panics
    /// If the layout refuses the forest (more than `1 << 15` features):
    /// [`ServeModel::prepare`] checks only what serving builds.
    pub fn hier(&self) -> &Arc<HierForest> {
        self.hier.get_or_init(|| {
            Arc::new(
                build_within(&self.forest, PAPER_SHARED_BYTES).unwrap_or_else(|e| panic!("{e}")),
            )
        })
    }

    /// Whether the hierarchical layout exists yet.
    #[cfg(test)]
    pub(crate) fn hier_is_built(&self) -> bool {
        self.hier.get().is_some()
    }
}
