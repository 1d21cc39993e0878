//! The served model: a trained forest plus the device-side artifacts the
//! backends need, shared immutably. The node-vector forest is always
//! there; the hierarchical device layout is built at most once, when a
//! constructor or a device backend first asks for it.

use rfx_core::hier::builder::{build_forest, check_forest};
use rfx_core::{HierConfig, HierForest, LayoutError};
use rfx_forest::RandomForest;
use rfx_fpga_sim::{FpgaConfig, Replication};
use rfx_gpu_sim::{GpuConfig, GpuSim};
use rfx_kernels::gpu::hybrid::hybrid_shared_bytes;
use std::sync::{Arc, OnceLock};

/// Immutable serving artifact: the node-vector forest (CPU backends), the
/// hierarchical layout (GPU/FPGA backends), and the simulated device
/// models. Cheap to clone — everything heavy is behind `Arc`, and clones
/// share one layout cell, so whoever builds the layout builds it for all.
#[derive(Debug, Clone)]
pub struct ServeModel {
    forest: Arc<RandomForest>,
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
/// back to CPU traversal at run time.
fn tune_hier(forest: &RandomForest, shared_budget: usize) -> Result<HierForest, LayoutError> {
    let (&(sd, rsd), deeper) = HIER_LADDER.split_last().expect("the ladder is not empty");
    for &(sd, rsd) in deeper {
        let hier = build_forest(forest, HierConfig::with_root(sd, rsd))?;
        if hybrid_shared_bytes(&hier) <= shared_budget {
            return Ok(hier);
        }
    }
    build_forest(forest, HierConfig::with_root(sd, rsd))
}

impl ServeModel {
    /// Prepares a model for the paper's device pair (Titan Xp GPU,
    /// Alveo U250 FPGA), hierarchical layout included.
    pub fn prepare(forest: RandomForest) -> Result<Self, LayoutError> {
        Self::with_devices(forest, GpuConfig::titan_xp(), FpgaConfig::alveo_u250())
    }

    /// Prepares a model for explicit device configurations and builds
    /// its hierarchical layout now — the cold-start path.
    pub fn with_devices(
        forest: RandomForest,
        gpu: GpuConfig,
        fpga: FpgaConfig,
    ) -> Result<Self, LayoutError> {
        let model = Self::deferred(forest, gpu, fpga)?;
        model.layout()?;
        Ok(model)
    }

    /// The one constructor: checks everything the layout build can
    /// refuse about `forest` — so a later [`ServeModel::hier`] cannot
    /// fail — and leaves the layout itself unbuilt.
    fn deferred(
        forest: RandomForest,
        gpu: GpuConfig,
        fpga: FpgaConfig,
    ) -> Result<Self, LayoutError> {
        check_forest(&forest)?;
        Ok(ServeModel {
            forest: Arc::new(forest),
            hier: Arc::default(),
            gpu: GpuSim::new(gpu),
            fpga,
            replication: Replication::single(&fpga),
        })
    }

    /// A serving artifact for a *new* forest on this model's exact
    /// device configuration — the publish path for refreshed forests
    /// (e.g. from `rfx_forest::online`), so a hot-swapped version runs on
    /// the same simulated hardware as the version it replaces. The
    /// hierarchical layout is left to whoever first needs it: publishing
    /// onto a pool with a device slot builds it, a CPU-only pool never
    /// does.
    pub fn with_same_devices(&self, forest: RandomForest) -> Result<Self, LayoutError> {
        Self::deferred(forest, *self.gpu.config(), self.fpga)
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

    /// The node-vector forest (CPU reference path).
    pub fn forest(&self) -> &Arc<RandomForest> {
        &self.forest
    }

    /// The hierarchical layout driven by the GPU/FPGA backends, built by
    /// the first call on this model or any clone of it.
    pub fn hier(&self) -> &Arc<HierForest> {
        self.layout().expect("construction checked everything the layout build can refuse")
    }

    /// [`ServeModel::hier`] with the build error typed, for the paths
    /// that force the layout and report a failure (construction, publish
    /// onto a device slot).
    pub(crate) fn layout(&self) -> Result<&Arc<HierForest>, LayoutError> {
        if let Some(hier) = self.hier.get() {
            return Ok(hier);
        }
        // Two racing first callers both build and one result is kept;
        // rarer and cheaper than making every reader wait on a lock.
        let built = tune_hier(&self.forest, self.gpu.config().shared_mem_per_sm as usize)?;
        Ok(self.hier.get_or_init(|| Arc::new(built)))
    }

    /// Whether the hierarchical layout exists yet.
    #[cfg(test)]
    pub(crate) fn hier_is_built(&self) -> bool {
        self.hier.get().is_some()
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
