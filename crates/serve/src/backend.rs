//! Pluggable inference backends.
//!
//! Each backend turns one formed batch into labels, and is built from its
//! kind and the model alone. All CPU execution goes through
//! `rfx_kernels::engine` with exact votes, over one store per slot:
//! `cpu-sharded` runs the tree-sharded, cache-blocked engine over the
//! version's one-line block store ([`rfx_core::block`]), `cpu-sharded-q8`
//! the same backend over the u8-quantized FIL node format. A q8 build the
//! u8 budgets refuse degrades to the version's block store and counts
//! every batch it answers there, rather than failing the request. Every
//! slot that walks that store shares the version's one copy
//! ([`ServeModel::blocks`]). The GPU and FPGA simulators are offline
//! instruments of device time, not backends: on the host they would
//! spend CPU simulating a device to return the labels `cpu-sharded`
//! computes directly.
//!
//! Every sharded engine here holds its layout behind an `Arc` and is
//! called through `ShardedEngine::predict_into_shared`: a batch large
//! enough to fan out is helped by the process-wide parked crew instead
//! of threads spawned for the call, and the 1–16-row batches a lightly
//! loaded service forms run on the worker alone.

use crate::model::ServeModel;
use rfx_core::footprint::LayoutFootprint;
use rfx_core::quant::QFilForest;
use rfx_core::Label;
use rfx_forest::dataset::QueryView;
use rfx_kernels::engine::{EnginePlan, ShardedEngine};
use rfx_kernels::memtrace;
use rfx_kernels::TreeEnsemble;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The backend families the executor pool can host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Tree-sharded, cache-blocked CPU engine over the one-line block
    /// store, in (query-block × tree-shard) tiles, auto-planned per
    /// batch.
    CpuSharded,
    /// Tree-sharded CPU engine over the flat u8-quantized FIL layout
    /// (~2.4× smaller resident bytes, exact argmax on the quantized
    /// grid); on the block store when the u8 build refuses the forest.
    /// Predictions may differ from the f32 oracle within the committed
    /// accuracy epsilon, so it is **not** in
    /// [`BackendKind::DEFAULT_POOL`]; opt in explicitly.
    CpuShardedQ8,
}

/// Single source of truth for the kind ↔ stable-name mapping. `ALL`,
/// [`BackendKind::name`], and the [`FromStr`] parse (including its
/// variant-listing error) all derive from this table, so adding a
/// backend is a one-row change that cannot leave them inconsistent.
const NAME_TABLE: [(BackendKind, &str); 2] =
    [(BackendKind::CpuSharded, "cpu-sharded"), (BackendKind::CpuShardedQ8, "cpu-sharded-q8")];

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
    pub const DEFAULT_POOL: [BackendKind; 1] = first_kinds();

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
/// this boundary (a refused q8 build stands in on the block store), so
/// errors only arise from an injected [`crate::fault::FaultPlan`].
pub(crate) trait Backend: Send + Sync {
    fn kind(&self) -> BackendKind;
    fn predict(&self, queries: QueryView, out: &mut [Label]) -> Result<Exec, BackendError>;
    /// Batches a stand-in store answered so far: those of a q8 slot whose
    /// u8 build refused the forest, answered on the block store (0 for
    /// any other slot).
    fn fallbacks(&self) -> u64 {
        0
    }
    /// Tiling attributes for the traverse span of a `rows`-row batch:
    /// how this backend would carve the batch up (shards, blocks,
    /// threads). Keys are stable per backend; values are
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
    /// The block store this backend walks, as primary or stand-in.
    #[cfg(test)]
    fn blocks(&self) -> Option<&Arc<rfx_core::BlockForest>> {
        None
    }
}

/// Builds one executor of `kind` over `model`, with exact votes. A
/// quantized build the u8 budgets refuse degrades to the model's block
/// store. Nothing built here holds the node-vector forest.
pub(crate) fn make_backend(kind: BackendKind, model: &ServeModel) -> Box<dyn Backend + Sync> {
    let blocks = || ShardedEngine::new(Arc::clone(model.blocks()));
    match kind {
        BackendKind::CpuSharded => CpuSharded::boxed(kind, "blocks", blocks(), false),
        BackendKind::CpuShardedQ8 => match QFilForest::<u8>::build(model.forest()) {
            Ok(q) => CpuSharded::boxed(kind, "qfil-u8", ShardedEngine::new(Arc::new(q)), false),
            Err(_) => CpuSharded::boxed(kind, "blocks-fallback", blocks(), true),
        },
    }
}

/// Who a batch planned as `plan` is offered to (`inline | crew`): these
/// backends call `ShardedEngine::predict_into_shared`, so a plan of two
/// or more threads goes to the parked crew and never to scoped threads.
/// Whether anyone *came* is in the engine's counters
/// (`kernels.sharded.{helpers,blocks_helped,offers_unanswered}`).
fn fanout_attr(plan: &EnginePlan) -> &'static str {
    if plan.threads() == 1 {
        "inline"
    } else {
        "crew"
    }
}

/// The `serve.traverse` attributes of a sharded backend: the same keys
/// whichever layout serves, so a reader of the span never has to know
/// which one did. `shards` follows `plan`'s tree sharding; `prefetch`
/// says whether the tile kernel's sweep prefetched each lane's next node
/// or block (the engine's rule: the layout outgrew one core's L2).
fn sharded_tile_attrs(
    layout: &str,
    plan: &EnginePlan,
    num_trees: usize,
    prefetch: bool,
    rows: usize,
) -> Vec<(&'static str, String)> {
    let blocks = rows.div_ceil(plan.query_block()).max(1);
    let shards = num_trees.div_ceil(plan.shard_trees());
    vec![
        ("layout", layout.to_string()),
        ("prefetch", if prefetch { "on" } else { "off" }.to_string()),
        ("shard_trees", plan.shard_trees().to_string()),
        ("query_block", plan.query_block().to_string()),
        ("shards", shards.to_string()),
        ("blocks", blocks.to_string()),
        ("tiles", (shards * blocks).to_string()),
        ("threads", plan.threads().to_string()),
        ("fanout", fanout_attr(plan).to_string()),
        ("vote_policy", plan.vote_policy().to_string()),
        // Provenance for anyone reading kernels.perf.* counters off
        // this deployment: the software memory tracer's sampling
        // period (every Nth tile), or `off`.
        ("mem_tracer", memtrace::sample_every().map_or("off".into(), |n| n.to_string())),
    ]
}

/// The sharded CPU backend over one store `E` — the block store, or the
/// u8-quantized FIL store. A `stand_in` store serves for one whose build
/// refused the forest (a q8 slot over the block store): every batch it
/// answers is counted as a fallback, so the degrade shows in the stats.
struct CpuSharded<E: TreeEnsemble> {
    kind: BackendKind,
    layout: &'static str,
    engine: ShardedEngine<Arc<E>>,
    stand_in: bool,
    fallbacks: AtomicU64,
}

impl<E: TreeEnsemble + 'static> CpuSharded<E> {
    fn boxed(
        kind: BackendKind,
        layout: &'static str,
        engine: ShardedEngine<Arc<E>>,
        stand_in: bool,
    ) -> Box<dyn Backend + Sync> {
        Box::new(CpuSharded { kind, layout, engine, stand_in, fallbacks: AtomicU64::new(0) })
    }
}

impl<E: TreeEnsemble + 'static> Backend for CpuSharded<E> {
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
        let (num_trees, plan) = (self.engine.source().num_trees(), self.engine.plan_for(rows));
        sharded_tile_attrs(self.layout, &plan, num_trees, self.engine.prefetches(), rows)
    }

    fn resident_footprint(&self) -> LayoutFootprint {
        self.engine.cached_footprint()
    }

    #[cfg(test)]
    fn blocks(&self) -> Option<&Arc<rfx_core::BlockForest>> {
        (self.engine.source() as &dyn std::any::Any).downcast_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_forest::RandomForest;

    #[test]
    fn names_round_trip_through_fromstr() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn parse_error_lists_every_variant() {
        // "cpu-parallel", "gpu-sim-hybrid" and "fpga-sim-independent"
        // were backends once: an operator's old config gets the same
        // listing, not a panic.
        for unknown in ["tpu-v9", "cpu-parallel", "gpu-sim-hybrid", "fpga-sim-independent"] {
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
        // table's rows up to the first of them, the one exact kind.
        let exact: Vec<BackendKind> = NAME_TABLE
            .iter()
            .map(|(k, _)| *k)
            .take_while(|k| *k != BackendKind::CpuShardedQ8)
            .collect();
        assert_eq!(BackendKind::DEFAULT_POOL.to_vec(), exact);
        assert_eq!(BackendKind::DEFAULT_POOL, [BackendKind::CpuSharded]);
    }

    /// `fanout` on the traverse span follows the plan the batch will run
    /// with: a batch too small for a second thread stays on the worker,
    /// anything larger is offered to the crew. `mem_tracer` is the memory
    /// tracer's runtime state, off in this test process. `layout` names the
    /// store the slot walks. `prefetch` is off for this toy forest and on
    /// for one whose every layout outgrows one core's L2.
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
        let layouts = [(BackendKind::CpuSharded, "blocks"), (BackendKind::CpuShardedQ8, "qfil-u8")];
        for (kind, layout) in layouts {
            let backend = make_backend(kind, &model);
            let attr = |rows, key| {
                let attrs = backend.tile_attrs(rows);
                attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone()).unwrap()
            };
            assert_eq!(attr(1, "fanout"), "inline", "{kind}");
            assert_eq!(attr(16, "fanout"), "inline", "{kind}");
            assert_eq!(attr(1 << 16, "fanout"), many, "{kind}");
            let tracer = memtrace::sample_every().map_or("off".into(), |n| n.to_string());
            assert_eq!(attr(16, "mem_tracer"), tracer, "{kind}");
            assert_eq!(attr(16, "layout"), layout);
            assert_eq!(attr(16, "vote_policy"), "exact", "{kind}");
            assert_eq!(attr(16, "prefetch"), "off", "{kind}");
            key_sets.push(keys(&*backend));
        }
        // Same keys, same order, whichever layout served.
        assert!(key_sets.windows(2).all(|w| w[0] == w[1]), "{key_sets:?}");
        // Eight ragged depth-16 trees, about 500 k nodes: past 2 MiB even
        // at the u8 format's 5 B a node.
        let trees = (0..8).map(|_| DecisionTree::random(&mut rng, 16, 4, 2, 0.05)).collect();
        let big = ServeModel::prepare(RandomForest::from_trees(trees, 4, 2).unwrap()).unwrap();
        for kind in [BackendKind::CpuSharded, BackendKind::CpuShardedQ8] {
            let backend = make_backend(kind, &big);
            let bytes = backend.resident_footprint().total();
            assert!(bytes > 2 << 20, "{kind}: {bytes} B fit one core's L2");
            assert!(backend.tile_attrs(16).contains(&("prefetch", "on".to_string())), "{kind}");
        }
    }

    /// A forest wider than the u8 format's feature field: the q8 slot
    /// stands in on the version's shared block store, answers like the
    /// reference traversal and counts every batch as a fallback.
    #[test]
    fn a_refused_q8_build_stands_in_on_the_shared_blocks() {
        use rfx_forest::tree::DecisionTree;
        let nf = rfx_core::quant::QFIL_MAX_FEATURES + 1;
        let mut rng = StdRng::seed_from_u64(8);
        let trees = (0..5).map(|_| DecisionTree::random(&mut rng, 4, nf as u16, 3, 0.0)).collect();
        let model = ServeModel::prepare(RandomForest::from_trees(trees, nf, 3).unwrap()).unwrap();
        let backend = make_backend(BackendKind::CpuShardedQ8, &model);
        assert!(Arc::ptr_eq(backend.blocks().expect("it walks the blocks"), model.blocks()));
        let rows: Vec<f32> = (0..4 * nf).map(|_| rng.gen()).collect();
        let queries = QueryView::new(&rows, nf).unwrap();
        let mut out = vec![0; 4];
        backend.predict(queries, &mut out).unwrap();
        assert_eq!(out, rfx_kernels::cpu::predict_reference(model.forest(), queries));
        assert_eq!(backend.fallbacks(), 1);
        let attrs = backend.tile_attrs(4);
        assert_eq!(attrs[0], ("layout", "blocks-fallback".to_string()));
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
