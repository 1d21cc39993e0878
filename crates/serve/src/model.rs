//! The served model: a trained forest plus the layouts the backends walk,
//! shared immutably. Only the node-vector forest exists up front; the
//! one-line block store ([`rfx_core::block`]) and the hierarchical device
//! layout are each built at most once, when a backend of a published
//! version first asks for it. The published version keeps those layouts
//! and drops the forest itself (see [`crate::registry`]).

use rfx_core::hier::builder::{build_forest, check_forest};
use rfx_core::{block, hier, BlockForest, HierConfig, HierForest, LayoutError};
use rfx_forest::{DecisionTree, Node, RandomForest};
use rfx_fpga_sim::{FpgaConfig, Replication};
use rfx_gpu_sim::{GpuConfig, GpuSim};
use std::sync::{Arc, OnceLock};

/// Immutable serving artifact: the node-vector forest the layouts are
/// built from, the one-line block store (CPU backends and device-refusal
/// fallbacks), the hierarchical layout (GPU/FPGA backends), and the
/// simulated device models. Cheap to clone — everything heavy is behind
/// `Arc`. Clones share one hierarchical-layout cell, so whoever builds
/// that layout builds it for all; the block cell is each clone's own, so
/// a clone a caller keeps never pins the block store of a version the
/// registry has let go of.
#[derive(Debug, Clone)]
pub struct ServeModel {
    forest: Arc<RandomForest>,
    blocks: OnceLock<Arc<BlockForest>>,
    hier: Arc<OnceLock<Arc<HierForest>>>,
    gpu: GpuSim,
    fpga: FpgaConfig,
    replication: Replication,
}

/// Root-subtree shapes tried deepest first; the last is the fallback
/// built even when it does not fit.
const HIER_LADDER: [(u8, u8); 6] = [(6, 10), (6, 8), (4, 6), (3, 4), (3, 3), (2, 2)];

/// Auto-tunes the hierarchical layout: the largest root-subtree depth
/// whose staged bytes fit the GPU's shared memory wins (the paper's 48 KB
/// wall), falling back to shallower roots on small devices. When even the
/// shallowest is too big it is built anyway and the GPU backend falls
/// back to CPU traversal at run time. Only the chosen rung is built.
fn tune_hier(forest: &RandomForest, shared_budget: usize) -> Result<HierForest, LayoutError> {
    let (sd, rsd) = pick_rung(forest, shared_budget);
    build_forest(forest, HierConfig::with_root(sd, rsd))
}

/// The rung [`tune_hier`] builds, from tree depths alone: a tree of depth
/// `d` stages a root subtree of `2^min(rsd, d + 1) − 1` slots, so the
/// deepest tree decides — and only when a rung's full `2^rsd − 1` slots
/// do not fit, reading no tree past the ladder's deepest root.
fn pick_rung(forest: &RandomForest, shared_budget: usize) -> (u8, u8) {
    let fits = |levels: u32| ((1 << levels) - 1) * hier::NODE_BYTES <= shared_budget;
    let deepest = HIER_LADDER.iter().map(|&(_, rsd)| u32::from(rsd)).max().unwrap_or(0);
    let mut levels = None;
    let (&last, deeper) = HIER_LADDER.split_last().expect("the ladder is not empty");
    deeper
        .iter()
        .copied()
        .find(|&(_, rsd)| {
            let rsd = u32::from(rsd);
            fits(rsd)
                || fits(rsd.min(*levels.get_or_insert_with(|| {
                    forest.trees().iter().map(|t| levels_within(t, deepest)).max().unwrap_or(0)
                })))
        })
        .unwrap_or(last)
}

/// How many of `tree`'s first `cap` levels hold a node: `min(cap, d + 1)`
/// for a tree of depth `d`.
fn levels_within(tree: &DecisionTree, cap: u32) -> u32 {
    let (mut level, mut levels) = (vec![0u32], 0);
    while !level.is_empty() && levels < cap {
        levels += 1;
        level = level
            .iter()
            .filter_map(|&id| match tree.nodes()[id as usize] {
                Node::Inner { left, right, .. } => Some([left, right]),
                Node::Leaf { .. } => None,
            })
            .flatten()
            .collect();
    }
    levels
}

impl ServeModel {
    /// Prepares a model for the paper's device pair (Titan Xp GPU,
    /// Alveo U250 FPGA).
    pub fn prepare(forest: RandomForest) -> Result<Self, LayoutError> {
        Self::with_devices(forest, GpuConfig::titan_xp(), FpgaConfig::alveo_u250())
    }

    /// Prepares a model for explicit device configurations. It checks
    /// everything a layout build can refuse about `forest` — so a later
    /// [`ServeModel::blocks`] or [`ServeModel::hier`] cannot fail — and
    /// builds no layout: each is left to the first backend that walks it.
    /// The tightest of those checks is the block store's: at most
    /// [`block::MAX_CLASSES`] classes (its exit labels are u16); a wider
    /// forest is refused with [`LayoutError::BadConfig`].
    pub fn with_devices(
        forest: RandomForest,
        gpu: GpuConfig,
        fpga: FpgaConfig,
    ) -> Result<Self, LayoutError> {
        check_forest(&forest)?;
        block::check_forest(&forest)?;
        Ok(ServeModel {
            forest: Arc::new(forest),
            blocks: OnceLock::new(),
            hier: Arc::default(),
            gpu: GpuSim::new(gpu),
            fpga,
            replication: Replication::single(&fpga),
        })
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

    /// The one-line block store the sharded CPU backend, the q8 slot's
    /// stand-in and the device-refusal fallbacks walk, built by the first
    /// call on this model (a clone taken after that call shares the
    /// build, one taken before builds its own).
    pub fn blocks(&self) -> &Arc<BlockForest> {
        self.blocks.get_or_init(|| {
            let blocks = BlockForest::build(&self.forest);
            Arc::new(blocks.expect("construction checked everything the block build can refuse"))
        })
    }

    /// The hierarchical layout driven by the GPU/FPGA backends, built by
    /// the first call on this model or any clone of it.
    pub fn hier(&self) -> &Arc<HierForest> {
        self.hier.get_or_init(|| {
            let budget = self.gpu.config().shared_mem_per_sm as usize;
            let hier = tune_hier(&self.forest, budget);
            Arc::new(hier.expect("construction checked everything the layout build can refuse"))
        })
    }

    /// Whether the hierarchical layout exists yet.
    #[cfg(test)]
    pub(crate) fn hier_is_built(&self) -> bool {
        self.hier.get().is_some()
    }

    /// The device pair this model was prepared for.
    pub(crate) fn devices(&self) -> (GpuConfig, FpgaConfig) {
        (*self.gpu.config(), self.fpga)
    }

    pub(crate) fn gpu(&self) -> &GpuSim {
        &self.gpu
    }

    pub(crate) fn fpga(&self) -> &FpgaConfig {
        &self.fpga
    }

    pub(crate) fn replication(&self) -> Replication {
        self.replication
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfx_kernels::gpu::hybrid::hybrid_shared_bytes;

    /// A right-leaning spine: depth `depth`, one inner node per level.
    fn spine(depth: u32) -> DecisionTree {
        let mut nodes = Vec::new();
        for d in 0..depth {
            let (left, right) = (2 * d + 1, 2 * d + 2);
            nodes.push(Node::Inner { feature: 0, threshold: d as f32, left, right });
            nodes.push(Node::Leaf { label: 0 });
        }
        nodes.push(Node::Leaf { label: 1 });
        DecisionTree::from_nodes(nodes).unwrap()
    }

    /// What the ladder chose when it built every rung until one fit.
    fn built_rung(forest: &RandomForest, shared_budget: usize) -> HierConfig {
        let (&(sd, rsd), deeper) = HIER_LADDER.split_last().unwrap();
        for &(sd, rsd) in deeper {
            let hier = build_forest(forest, HierConfig::with_root(sd, rsd)).unwrap();
            if hybrid_shared_bytes(&hier) <= shared_budget {
                return hier.config();
            }
        }
        HierConfig::with_root(sd, rsd)
    }

    #[test]
    fn the_rung_follows_from_depths_as_the_built_ladder_chose_it() {
        for depth in [0, 3, 8, 15] {
            let trees = vec![spine(depth), spine(depth / 2), DecisionTree::leaf(1)];
            let forest = RandomForest::from_trees(trees, 1, 2).unwrap();
            assert_eq!(forest.max_depth(), depth as usize);
            for budget in [48 << 10, 100, 10] {
                let chosen = tune_hier(&forest, budget).unwrap().config();
                assert_eq!(chosen, built_rung(&forest, budget), "depth {depth}, {budget} B");
            }
        }
    }
}
