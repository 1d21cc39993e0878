//! Pluggable inference backends.
//!
//! Each backend turns one formed batch into labels. All CPU execution
//! goes through `rfx_kernels::engine`, over one FIL store per slot:
//! `cpu-sharded` runs the tree-sharded, cache-blocked engine over the
//! flat f32 FIL store (the profile-packed one when the deployment set a
//! `PackPlan`), `cpu-sharded-q8` the same backend over the u8-quantized
//! node format. The simulated device backends (`gpu-sim-hybrid`,
//! `fpga-sim-independent`) run the same kernels as the offline
//! benchmarks, so their simulated-vs-wall-clock cost structure is what
//! the scheduler's EWMA learns; if a device kernel refuses a batch (e.g.
//! the layout outgrew shared memory), the backend degrades to the sharded
//! CPU engine over the version's flat FIL store and counts the fallback
//! rather than failing the request. Every slot that walks that store
//! shares the version's one copy ([`ServeModel::fil`]); only the two
//! device backends build the hierarchical layout.
//!
//! Every sharded engine here holds its layout behind an `Arc` and is
//! called through `ShardedEngine::predict_into_shared`: a batch large
//! enough to fan out is helped by the process-wide parked crew instead
//! of threads spawned for the call, and the 1–16-row batches a lightly
//! loaded service forms run on the worker alone.

use crate::model::ServeModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::fil::{F32Nodes, FilStore, NodeFormat, Placement};
use rfx_core::footprint::LayoutFootprint;
use rfx_core::pack::{FrequencyProfile, PackPlan, Sharded};
use rfx_core::quant::{QFilForest, QuantNodes};
use rfx_core::{FilForest, HierForest, Label};
use rfx_forest::dataset::QueryView;
use rfx_forest::RandomForest;
use rfx_fpga_sim::{FpgaConfig, Replication};
use rfx_gpu_sim::GpuSim;
use rfx_kernels::engine::{EnginePlan, ShardedEngine};
use rfx_kernels::fpga::independent::run_independent;
use rfx_kernels::gpu::hybrid::run_hybrid;
use rfx_kernels::VotePolicy;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The backend families the executor pool can host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Tree-sharded, cache-blocked CPU engine over the flat f32 FIL
    /// store — the profile-packed FIL layout when the deployment
    /// configured a [`PackPlan`] — in (query-block × tree-shard) tiles,
    /// auto-planned per batch.
    CpuSharded,
    /// Simulated GPU running the paper's hybrid shared-memory kernel.
    GpuSimHybrid,
    /// Simulated FPGA running the independent hierarchical kernel.
    FpgaSimIndependent,
    /// Tree-sharded CPU engine over the u8-quantized FIL layout — flat,
    /// or profile-packed when the deployment configured a [`PackPlan`]
    /// (~2.4× smaller resident bytes, exact argmax on the quantized
    /// grid). Predictions may differ from the f32 oracle within the
    /// committed accuracy epsilon, so it is **not** in
    /// [`BackendKind::DEFAULT_POOL`]; opt in explicitly.
    CpuShardedQ8,
}

/// Single source of truth for the kind ↔ stable-name mapping. `ALL`,
/// [`BackendKind::name`], and the [`FromStr`] parse (including its
/// variant-listing error) all derive from this table, so adding a
/// backend is a one-row change that cannot leave them inconsistent.
const NAME_TABLE: [(BackendKind, &str); 4] = [
    (BackendKind::CpuSharded, "cpu-sharded"),
    (BackendKind::GpuSimHybrid, "gpu-sim-hybrid"),
    (BackendKind::FpgaSimIndependent, "fpga-sim-independent"),
    (BackendKind::CpuShardedQ8, "cpu-sharded-q8"),
];

/// The first `N` kinds of [`NAME_TABLE`], in table order.
const fn first_kinds<const N: usize>() -> [BackendKind; N] {
    let mut kinds = [NAME_TABLE[0].0; N];
    let mut i = 0;
    while i < N {
        kinds[i] = NAME_TABLE[i].0;
        i += 1;
    }
    kinds
}

impl BackendKind {
    /// All kinds, in executor-pool order (exact backends first, then the
    /// quantized opt-ins).
    pub const ALL: [BackendKind; NAME_TABLE.len()] = first_kinds();

    /// The default executor pool: every backend whose predictions are
    /// bit-exact vs the f32 CPU oracle. Quantized backends answer on
    /// their own (snapped) grid, so they join a pool only by explicit
    /// configuration.
    pub const DEFAULT_POOL: [BackendKind; 3] = first_kinds();

    /// Stable identifier used in stats, bench reports, and CLI flags
    /// (the inverse of the [`FromStr`] parse).
    pub fn name(self) -> &'static str {
        NAME_TABLE
            .iter()
            .find(|(k, _)| *k == self)
            .map(|(_, n)| *n)
            .expect("every BackendKind variant has a NAME_TABLE row")
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    /// Parses a stable backend name (`cpu-sharded`, ...). The error
    /// message lists every accepted variant, so CLIs can surface it
    /// verbatim.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        NAME_TABLE.iter().find(|(_, n)| *n == s).map(|(k, _)| *k).ok_or_else(|| {
            let variants: Vec<&str> = NAME_TABLE.iter().map(|(_, n)| *n).collect();
            format!("unknown backend {s:?}; expected one of: {}", variants.join(", "))
        })
    }
}

/// Successful-execution report from a backend: real work done, plus any
/// **virtual** latency injected by a fault plan. Virtual microseconds
/// never correspond to a sleep — the resilience layer adds them to the
/// measured wall time when checking timeouts and deadlines, which is
/// what keeps chaos tests deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Exec {
    /// Injected virtual latency in microseconds (0 for real backends).
    pub virtual_us: u64,
}

/// Why a backend attempt produced no usable result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BackendError {
    /// The backend refused or failed the batch; retrying (here or
    /// elsewhere) may succeed.
    Refused(String),
    /// The batch will never complete — the resilience layer treats this
    /// as an instant (virtual) timeout instead of blocking a worker.
    Wedged,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Refused(reason) => write!(f, "refused: {reason}"),
            BackendError::Wedged => f.write_str("wedged"),
        }
    }
}

/// One executor: predicts a whole batch into a caller-provided slice.
/// Returns an [`Exec`] report on success; real backends never fail at
/// this boundary (device refusal degrades internally to the sharded CPU
/// engine), so errors only arise from an injected
/// [`crate::fault::FaultPlan`].
pub(crate) trait Backend: Send + Sync {
    fn kind(&self) -> BackendKind;
    fn predict(&self, queries: QueryView, out: &mut [Label]) -> Result<Exec, BackendError>;
    /// Device-refusal fallbacks taken so far (0 for CPU).
    fn fallbacks(&self) -> u64 {
        0
    }
    /// Tiling/occupancy attributes for the traverse span of a `rows`-row
    /// batch: how this backend would carve the batch up (shards, blocks,
    /// grid, compute units). Keys are stable per backend; values are
    /// computed from the same planning the execution uses.
    fn tile_attrs(&self, rows: usize) -> Vec<(&'static str, String)> {
        let _ = rows;
        Vec::new()
    }
    /// Byte footprint of the layout this backend actually traverses —
    /// quantized backends report their compressed bytes, so the
    /// `serve.backend.<name>.resident_bytes` gauges agree with what is
    /// resident, not with the f32 stride.
    fn resident_footprint(&self) -> LayoutFootprint;
    /// The flat FIL store this backend walks, as primary or fallback.
    #[cfg(test)]
    fn fil(&self) -> Option<&Arc<FilForest>> {
        None
    }
}

/// Rows in the deterministic calibration sweep that seeds a packed
/// layout's frequency profile when a deployment opts into packing.
const PACK_CALIBRATION_ROWS: usize = 256;

/// Fixed calibration seed: every replica of a deployment packs the same
/// model into a byte-identical layout, so resident-bytes gauges and
/// perf-counter baselines are comparable across the fleet.
const PACK_CALIBRATION_SEED: u64 = 0x7061_636b; // "pack"

/// Access-frequency profile a packed serve layout is calibrated on: a
/// seeded uniform-[0,1) sweep of the feature space. Packing is
/// oracle-invariant (the equivalence proptests pin this), so a generic
/// calibration set only costs locality — never correctness — when the
/// live traffic is distributed differently.
fn calibration_profile(forest: &RandomForest) -> FrequencyProfile {
    let nf = forest.num_features();
    let mut rng = StdRng::seed_from_u64(PACK_CALIBRATION_SEED);
    let rows: Vec<f32> = (0..PACK_CALIBRATION_ROWS * nf).map(|_| rng.gen()).collect();
    match QueryView::new(&rows, nf) {
        Ok(queries) => FrequencyProfile::collect(forest, queries),
        Err(_) => FrequencyProfile::uniform(forest),
    }
}

/// Builds one executor of `kind` over `model`. Every sharded CPU engine
/// in the backend — primary or device-refusal fallback — is constructed
/// with `policy`, so a registry-wide [`VotePolicy`] choice reaches every
/// path that tallies votes. When `pack` is set, the sharded CPU backends
/// traverse profile-packed layouts instead of flat ones; a packed build
/// that exceeds a bitfield budget degrades to the flat layout of the same
/// precision, and a quantized build the u8 budgets refuse degrades to the
/// model's f32 FIL store. Nothing built here holds the node-vector forest.
pub(crate) fn make_backend(
    kind: BackendKind,
    model: &ServeModel,
    policy: VotePolicy,
    pack: Option<PackPlan>,
) -> Box<dyn Backend + Sync> {
    let forest = model.forest();
    let fil = || ShardedEngine::with_policy(Arc::clone(model.fil()), policy);
    match kind {
        BackendKind::CpuSharded => match packed::<F32Nodes>(forest, pack, policy) {
            Some(engine) => CpuSharded::boxed(kind, "packed-fil", engine, false),
            None => CpuSharded::boxed(kind, "fil", fil(), false),
        },
        BackendKind::CpuShardedQ8 => match packed::<QuantNodes<u8>>(forest, pack, policy) {
            Some(engine) => CpuSharded::boxed(kind, "packed-qfil-u8", engine, false),
            None => match QFilForest::<u8>::build(forest) {
                Ok(q) => {
                    let engine = ShardedEngine::with_policy(Arc::new(q), policy);
                    CpuSharded::boxed(kind, "qfil-u8", engine, false)
                }
                Err(_) => CpuSharded::boxed(kind, "f32-fallback", fil(), true),
            },
        },
        BackendKind::GpuSimHybrid => Box::new(GpuSimHybrid {
            gpu: model.gpu().clone(),
            hier: Arc::clone(model.hier()),
            fallback: fil(),
            fallbacks: AtomicU64::new(0),
        }),
        BackendKind::FpgaSimIndependent => Box::new(FpgaSimIndependent {
            fpga: *model.fpga(),
            replication: model.replication(),
            hier: Arc::clone(model.hier()),
            fallback: fil(),
            fallbacks: AtomicU64::new(0),
        }),
    }
}

/// The engine over the profile-packed store of node format `F` under
/// `pack`, when one is set and the forest fits the format's packed
/// budgets.
fn packed<F: NodeFormat>(
    forest: &RandomForest,
    pack: Option<PackPlan>,
    policy: VotePolicy,
) -> Option<ShardedEngine<Arc<FilStore<F, Sharded>>>> {
    let plan = pack?;
    let store = FilStore::<F, Sharded>::build(forest, &calibration_profile(forest), plan).ok()?;
    Some(ShardedEngine::with_policy(Arc::new(store), policy))
}

/// Who a batch planned as `plan` is offered to, in the words of the
/// engine's `kernels.sharded` span (`inline | scope | crew`): these
/// backends call `ShardedEngine::predict_into_shared`, so a plan of two
/// or more threads goes to the parked crew and never to scoped threads.
/// Whether anyone *came* is on that span (`helpers`, `helped_share`).
fn fanout_attr(plan: &EnginePlan) -> &'static str {
    if plan.threads() == 1 {
        "inline"
    } else {
        "crew"
    }
}

/// The `serve.traverse` attributes of a sharded backend: the same keys
/// whichever layout serves, so a reader of the span never has to know
/// which one did. `shards` is the layout's own count for a packed
/// layout and `plan`'s tree sharding otherwise; `top_levels` is the
/// depth of a packed layout's complete top, 0 for every other layout.
fn sharded_tile_attrs(
    layout: &str,
    plan: &EnginePlan,
    shards: usize,
    top_levels: u32,
    rows: usize,
) -> Vec<(&'static str, String)> {
    let blocks = rows.div_ceil(plan.query_block()).max(1);
    vec![
        ("layout", layout.to_string()),
        ("top_levels", top_levels.to_string()),
        ("shard_trees", plan.shard_trees().to_string()),
        ("query_block", plan.query_block().to_string()),
        ("shards", shards.to_string()),
        ("blocks", blocks.to_string()),
        ("tiles", (shards * blocks).to_string()),
        ("threads", plan.threads().to_string()),
        ("fanout", fanout_attr(plan).to_string()),
        ("vote_policy", plan.vote_policy().to_string()),
        // Provenance for anyone reading kernels.perf.* counters off
        // this deployment: were they populated by the software
        // memory tracer, or absent because it was compiled out?
        ("mem_tracer", cfg!(feature = "mem-tracer").to_string()),
    ]
}

/// The sharded CPU backend over one FIL store: node format `F` (f32 or
/// u8-quantized) in placement `P` (flat or profile-packed), which adopts
/// a packed layout's byte-aware shard bounds when auto-planning. A
/// `stand_in` store serves for one whose build refused the forest (a q8
/// slot over the f32 store): every batch it answers is counted as a
/// fallback — the same degrade-and-count contract the device backends use
/// for refusals.
struct CpuSharded<F: NodeFormat, P: Placement> {
    kind: BackendKind,
    layout: &'static str,
    engine: ShardedEngine<Arc<FilStore<F, P>>>,
    stand_in: bool,
    fallbacks: AtomicU64,
}

impl<F: NodeFormat + 'static, P: Placement + 'static> CpuSharded<F, P> {
    fn boxed(
        kind: BackendKind,
        layout: &'static str,
        engine: ShardedEngine<Arc<FilStore<F, P>>>,
        stand_in: bool,
    ) -> Box<dyn Backend + Sync> {
        Box::new(CpuSharded { kind, layout, engine, stand_in, fallbacks: AtomicU64::new(0) })
    }
}

impl<F: NodeFormat + 'static, P: Placement + 'static> Backend for CpuSharded<F, P> {
    fn kind(&self) -> BackendKind {
        self.kind
    }

    fn predict(&self, queries: QueryView, out: &mut [Label]) -> Result<Exec, BackendError> {
        if self.stand_in {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        self.engine.predict_into_shared(queries, out);
        Ok(Exec::default())
    }

    fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    fn tile_attrs(&self, rows: usize) -> Vec<(&'static str, String)> {
        let (store, plan) = (self.engine.source(), self.engine.plan_for(rows));
        let shards = store.shard_bounds().map_or_else(
            || store.num_trees().div_ceil(plan.shard_trees()),
            |bounds| bounds.len() - 1,
        );
        sharded_tile_attrs(self.layout, &plan, shards, store.top_levels(), rows)
    }

    fn resident_footprint(&self) -> LayoutFootprint {
        self.engine.cached_footprint()
    }

    #[cfg(test)]
    fn fil(&self) -> Option<&Arc<FilForest>> {
        (self.engine.source() as &dyn std::any::Any).downcast_ref()
    }
}

struct GpuSimHybrid {
    gpu: GpuSim,
    hier: Arc<HierForest>,
    fallback: ShardedEngine<Arc<FilForest>>,
    fallbacks: AtomicU64,
}

impl Backend for GpuSimHybrid {
    fn kind(&self) -> BackendKind {
        BackendKind::GpuSimHybrid
    }

    fn predict(&self, queries: QueryView, out: &mut [Label]) -> Result<Exec, BackendError> {
        match run_hybrid(&self.gpu, &self.hier, queries) {
            Ok(run) => out.copy_from_slice(&run.predictions),
            Err(_) => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.fallback.predict_into_shared(queries, out);
            }
        }
        Ok(Exec::default())
    }

    fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    fn tile_attrs(&self, rows: usize) -> Vec<(&'static str, String)> {
        let cfg = self.gpu.config();
        vec![
            ("sms", cfg.num_sms.to_string()),
            ("warps", (rows as u32).div_ceil(cfg.warp_size).max(1).to_string()),
        ]
    }

    fn resident_footprint(&self) -> LayoutFootprint {
        self.hier.footprint()
    }

    #[cfg(test)]
    fn fil(&self) -> Option<&Arc<FilForest>> {
        Some(self.fallback.source())
    }
}

struct FpgaSimIndependent {
    fpga: FpgaConfig,
    replication: Replication,
    hier: Arc<HierForest>,
    fallback: ShardedEngine<Arc<FilForest>>,
    fallbacks: AtomicU64,
}

impl Backend for FpgaSimIndependent {
    fn kind(&self) -> BackendKind {
        BackendKind::FpgaSimIndependent
    }

    fn predict(&self, queries: QueryView, out: &mut [Label]) -> Result<Exec, BackendError> {
        match run_independent(&self.fpga, self.replication, &self.hier, queries) {
            Ok(run) => out.copy_from_slice(&run.predictions),
            Err(_) => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.fallback.predict_into_shared(queries, out);
            }
        }
        Ok(Exec::default())
    }

    fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    fn tile_attrs(&self, _rows: usize) -> Vec<(&'static str, String)> {
        let rep = self.replication;
        vec![("cus", rep.total_cus().to_string()), ("slrs", rep.slrs.to_string())]
    }

    fn resident_footprint(&self) -> LayoutFootprint {
        self.hier.footprint()
    }

    #[cfg(test)]
    fn fil(&self) -> Option<&Arc<FilForest>> {
        Some(self.fallback.source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_fromstr() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn parse_error_lists_every_variant() {
        // "cpu-parallel" was a backend once: an operator's old config
        // gets the same listing, not a panic.
        for unknown in ["tpu-v9", "cpu-parallel"] {
            let err = unknown.parse::<BackendKind>().unwrap_err();
            assert!(err.contains(unknown), "{err}");
            for kind in BackendKind::ALL {
                assert!(err.contains(kind.name()), "{err} should list {}", kind.name());
            }
        }
    }

    #[test]
    fn default_pool_is_the_exact_prefix_of_all() {
        // Quantized backends are opt-in, never default: the pool is the
        // table's rows up to the first of them.
        let exact: Vec<BackendKind> = NAME_TABLE
            .iter()
            .map(|(k, _)| *k)
            .take_while(|k| *k != BackendKind::CpuShardedQ8)
            .collect();
        assert_eq!(BackendKind::DEFAULT_POOL.to_vec(), exact);
    }

    /// `fanout` on the traverse span follows the plan the batch will run
    /// with: a batch too small for a second thread stays on the worker,
    /// anything larger is offered to the crew. `layout` names the store
    /// the slot walks, and `top_levels` a packed layout's complete top —
    /// two levels over complete depth-2 trees — and is 0 for the others.
    #[test]
    fn sharded_backends_name_their_fanout() {
        use rfx_forest::tree::DecisionTree;
        let mut rng = StdRng::seed_from_u64(5);
        let trees = (0..50).map(|_| DecisionTree::random(&mut rng, 2, 4, 2, 0.0)).collect();
        let model = ServeModel::prepare(RandomForest::from_trees(trees, 4, 2).unwrap()).unwrap();
        let many = if rfx_kernels::engine::available_threads() > 1 { "crew" } else { "inline" };
        let keys = |backend: &dyn Backend| -> Vec<&'static str> {
            backend.tile_attrs(16).iter().map(|(k, _)| *k).collect()
        };
        let mut key_sets = Vec::new();
        for kind in [BackendKind::CpuSharded, BackendKind::CpuShardedQ8] {
            for pack in [None, Some(PackPlan::default())] {
                let backend = make_backend(kind, &model, VotePolicy::Exact, pack);
                let attr = |rows, key| {
                    let attrs = backend.tile_attrs(rows);
                    attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone()).unwrap()
                };
                assert_eq!(attr(1, "fanout"), "inline", "{kind}");
                assert_eq!(attr(16, "fanout"), "inline", "{kind}");
                assert_eq!(attr(1 << 16, "fanout"), many, "{kind}");
                let top = if pack.is_some() { "2" } else { "0" };
                assert_eq!(attr(16, "top_levels"), top, "{kind} packed={}", pack.is_some());
                let layout = match (kind, pack.is_some()) {
                    (BackendKind::CpuSharded, false) => "fil",
                    (BackendKind::CpuSharded, true) => "packed-fil",
                    (_, false) => "qfil-u8",
                    (_, true) => "packed-qfil-u8",
                };
                assert_eq!(attr(16, "layout"), layout);
                key_sets.push(keys(&*backend));
            }
        }
        // Same keys, same order, whichever layout served.
        assert!(key_sets.windows(2).all(|w| w[0] == w[1]), "{key_sets:?}");
    }

    /// A forest wider than the u8 format's feature field: the q8 slot
    /// stands in on the version's shared f32 FIL store, answers like the
    /// reference traversal and counts every batch as a fallback.
    #[test]
    fn a_refused_q8_build_stands_in_on_the_shared_fil() {
        use rfx_forest::tree::DecisionTree;
        let nf = rfx_core::quant::QFIL_MAX_FEATURES + 1;
        let mut rng = StdRng::seed_from_u64(8);
        let trees = (0..5).map(|_| DecisionTree::random(&mut rng, 4, nf as u16, 3, 0.0)).collect();
        let model = ServeModel::prepare(RandomForest::from_trees(trees, nf, 3).unwrap()).unwrap();
        let backend = make_backend(BackendKind::CpuShardedQ8, &model, VotePolicy::Exact, None);
        assert!(Arc::ptr_eq(backend.fil().expect("it walks the FIL"), model.fil()));
        let rows: Vec<f32> = (0..4 * nf).map(|_| rng.gen()).collect();
        let queries = QueryView::new(&rows, nf).unwrap();
        let mut out = vec![0; 4];
        backend.predict(queries, &mut out).unwrap();
        assert_eq!(out, rfx_kernels::cpu::predict_reference(model.forest(), queries));
        assert_eq!(backend.fallbacks(), 1);
        let attrs = backend.tile_attrs(4);
        assert_eq!(attrs[0], ("layout", "f32-fallback".to_string()));
    }

    #[test]
    fn name_table_is_a_bijection() {
        let kinds: Vec<BackendKind> = NAME_TABLE.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, BackendKind::ALL.to_vec(), "ALL is the table's kind column");
        for (i, (kind, name)) in NAME_TABLE.iter().enumerate() {
            for (other_kind, other_name) in &NAME_TABLE[..i] {
                assert_ne!(kind, other_kind, "duplicate kind in NAME_TABLE");
                assert_ne!(name, other_name, "duplicate name in NAME_TABLE");
            }
        }
    }
}
