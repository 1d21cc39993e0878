//! Versioned model registry with atomic hot-swap and bounded retention.
//!
//! The registry holds the versions the service can still serve: the
//! active one, the one the current [`RouteMode`] names (shadow candidate
//! or A/B arm B), and the [`RETAINED_RETIRED`] most recently published
//! others. Each is the executor set built from one [`ServeModel`] (one
//! [`Backend`] per pool slot, holding the layouts that slot walks); the
//! model's node-vector forest is dropped once the set is built, so a
//! version costs only what its slots walk. Swapping the active
//! version is **epoch-based `Arc` handoff**:
//!
//! * a worker pins an `Arc<VersionEntry>` clone into each batch it
//!   forms, so an in-flight batch finishes on the exact version it was
//!   formed with no matter how many activations or evictions happen mid-flight;
//! * [`ModelRegistry::activate`] is a single pointer store under a short
//!   lock — no barrier, no draining, no ticket is ever dropped by a swap;
//! * **rollback is a plain re-activation** of a retained version, to
//!   depth [`RETAINED_RETIRED`]; beyond it the version is gone and
//!   `activate` says [`ServeError::UnknownVersion`];
//! * [`ModelRegistry::publish`] builds the new entry *before* taking the
//!   lock, evicts the oldest surplus versions under it, and drops them
//!   *after* releasing it, so the lock every batch formation takes is
//!   never held across an executor build, a layout build or a free. An
//!   evicted entry lives on while a batch pins it; when its last pin
//!   drops, its counts join the `serve.registry.evicted_*` totals and its
//!   `serve.model.v<N>.*` names leave the telemetry export.
//!
//! Version numbers come from a counter, never from how many entries are
//! held: they strictly increase and are never reused.
//!
//! Every version records into its own telemetry sub-domain
//! (`serve.model.v<N>.*`), and the registry itself exports the active
//! version, the epoch counter, the swap count, how many versions it
//! retains and how many it has evicted, so dashboards can correlate a
//! latency shift with the exact activation that caused it.

use crate::backend::{make_backend, Backend, BackendKind};
use crate::error::ServeError;
use crate::metrics::LatencySummary;
use crate::model::ServeModel;
use crate::router::{RouteMode, Router};
use rfx_core::footprint::LayoutFootprint;
use rfx_telemetry::{Counter, Gauge, Histogram, Telemetry, TraceId};
use serde::Serialize;
use std::fmt;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Retired versions kept for rollback beside the active version and the
/// one the route names. Each costs the layouts its executor set walks;
/// two covers "the swap was wrong" and "so was the one
/// before it".
const RETAINED_RETIRED: usize = 2;

/// Identifier of one published model version. Versions are 1-based and
/// strictly increasing in publish order; `v1` is the model the service
/// started with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelVersion(NonZeroU64);

impl ModelVersion {
    /// The numeric version (1-based).
    pub fn get(self) -> u64 {
        self.0.get()
    }

    /// Reconstructs a version from its raw number; `None` for 0 (the
    /// "not served yet" sentinel in ticket slots).
    pub fn from_raw(raw: u64) -> Option<ModelVersion> {
        NonZeroU64::new(raw).map(ModelVersion)
    }
}

impl fmt::Display for ModelVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Per-version telemetry handles (`serve.model.v<N>.*`), registered once
/// at publish time.
#[derive(Debug)]
pub(crate) struct VersionRecorder {
    batches: Arc<Counter>,
    rows: Arc<Counter>,
    batch_latency: Arc<Histogram>,
    shadow_batches: Arc<Counter>,
    shadow_rows: Arc<Counter>,
    shadow_agree_rows: Arc<Counter>,
}

impl VersionRecorder {
    /// The name family of one version; the trailing dot keeps `v1` from
    /// matching `v10`.
    fn prefix(version: ModelVersion) -> String {
        format!("serve.model.{version}.")
    }

    fn new(telemetry: &Telemetry, version: ModelVersion) -> Self {
        let prefix = Self::prefix(version);
        let counter = |name: &str| telemetry.counter(&format!("{prefix}{name}"));
        VersionRecorder {
            batches: counter("batches"),
            rows: counter("rows"),
            batch_latency: telemetry.histogram(&format!("{prefix}batch_latency_us")),
            shadow_batches: counter("shadow_batches"),
            shadow_rows: counter("shadow_rows"),
            shadow_agree_rows: counter("shadow_agree_rows"),
        }
    }

    /// Records one batch served *live* by this version.
    pub(crate) fn record_batch(&self, rows: usize, elapsed_us: u64, trace: TraceId) {
        self.batches.inc();
        self.rows.add(rows as u64);
        self.batch_latency.record_with_exemplar(elapsed_us, trace);
    }

    /// Records one shadow-scored batch against this (candidate) version:
    /// `agree_rows` of `rows` matched the served model's labels.
    pub(crate) fn record_shadow(&self, rows: usize, agree_rows: usize) {
        self.shadow_batches.inc();
        self.shadow_rows.add(rows as u64);
        self.shadow_agree_rows.add(agree_rows as u64);
    }
}

/// Where an evicted version's numbers go when its last pin drops, so the
/// stats surface stays additive: Σ per-version rows + `rows` here is
/// every row ever served, and a slot's fallback count never resets.
#[derive(Debug)]
struct EvictedTotals {
    telemetry: Telemetry,
    batches: Arc<Counter>,
    rows: Arc<Counter>,
    /// Stand-in batches per pool slot (a q8 slot on the block store).
    fallbacks: Vec<AtomicU64>,
}

/// One published version: its executor set and its telemetry recorder.
/// Batches pin an `Arc` of this for their whole flight — the handoff unit
/// of the hot-swap protocol.
pub(crate) struct VersionEntry {
    pub(crate) version: ModelVersion,
    /// One backend per pool slot, same order as `ServeConfig::backends`.
    pub(crate) backends: Vec<Box<dyn Backend + Sync>>,
    /// Per-slot resident footprints, computed **once** at publish.
    /// Activation re-exports gauges from this cache instead of re-walking
    /// every backend's forest layout on each swap.
    pub(crate) resident: Vec<LayoutFootprint>,
    pub(crate) recorder: VersionRecorder,
    /// Set by the registry when it lets go of this entry. An entry that
    /// merely outlives the service (shutdown) keeps its names in the
    /// export the caller may still be reading.
    evicted: AtomicBool,
    totals: Arc<EvictedTotals>,
}

/// An evicted version's last act, on whichever thread drops the last pin
/// (the publisher, or the worker delivering the last batch formed on it):
/// counts are final here, so folding them now loses nothing.
impl Drop for VersionEntry {
    fn drop(&mut self) {
        if !*self.evicted.get_mut() {
            return;
        }
        self.totals.batches.add(self.recorder.batches.get());
        self.totals.rows.add(self.recorder.rows.get());
        for (total, backend) in self.totals.fallbacks.iter().zip(&self.backends) {
            total.fetch_add(backend.fallbacks(), Ordering::Relaxed);
        }
        self.totals.telemetry.remove_prefix(&VersionRecorder::prefix(self.version));
    }
}

impl fmt::Debug for VersionEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionEntry")
            .field("version", &self.version)
            .field("backends", &self.backends.len())
            .finish_non_exhaustive()
    }
}

/// Builds one executor ([`make_backend`]; a test substitutes one that
/// blocks).
type MakeBackend = fn(BackendKind, &ServeModel) -> Box<dyn Backend + Sync>;

/// What every version's entry is built from — the single construction
/// path shared by `v1` and every later publish, so the slots and the
/// footprint cache cannot diverge between them. Nothing here is behind
/// the registry's lock.
#[derive(Debug)]
struct Pool {
    kinds: Vec<BackendKind>,
    make: MakeBackend,
    /// The number the next successful build takes.
    next_version: AtomicU64,
    totals: Arc<EvictedTotals>,
}

impl Pool {
    /// Builds `model`'s executor set and numbers it, then drops `model`:
    /// the entry keeps the layouts its slots walk and never the
    /// node-vector forest. Each layout is built by the first slot that
    /// walks it.
    fn build(&self, model: ServeModel) -> Arc<VersionEntry> {
        let backends: Vec<Box<dyn Backend + Sync>> =
            self.kinds.iter().map(|&k| (self.make)(k, &model)).collect();
        let resident = backends.iter().map(|b| b.resident_footprint()).collect();
        let raw = self.next_version.fetch_add(1, Ordering::Relaxed);
        let version = ModelVersion::from_raw(raw).expect("version numbers start at 1");
        Arc::new(VersionEntry {
            version,
            backends,
            resident,
            recorder: VersionRecorder::new(&self.totals.telemetry, version),
            evicted: AtomicBool::new(false),
            totals: Arc::clone(&self.totals),
        })
    }
}

#[derive(Debug)]
struct Inner {
    /// The retained entries, ascending by version.
    versions: Vec<Arc<VersionEntry>>,
    active: Arc<VersionEntry>,
    /// The version the current [`RouteMode`] names. Set together with
    /// the router's mode under this lock, so a route at rest never names
    /// an evicted version.
    routed: Option<ModelVersion>,
    /// Bumps on every activation. A batch formed under epoch `e` may
    /// deliver under any later epoch — the pinned entry, not the epoch,
    /// decides which model serves it.
    epoch: u64,
}

impl Inner {
    fn lookup(&self, version: ModelVersion) -> Result<Arc<VersionEntry>, ServeError> {
        self.versions
            .iter()
            .find(|e| e.version == version)
            .cloned()
            .ok_or(ServeError::UnknownVersion { version: version.get() })
    }

    /// Removes, oldest first, what exceeds [`RETAINED_RETIRED`] among the
    /// entries that are neither active nor routed, and hands them back
    /// for the caller to drop off the lock.
    fn evict(&mut self) -> Vec<Arc<VersionEntry>> {
        let (active, routed) = (self.active.version, self.routed);
        let held = |e: &VersionEntry| e.version == active || Some(e.version) == routed;
        let retired = self.versions.iter().filter(|e| !held(e)).count();
        let mut surplus = retired.saturating_sub(RETAINED_RETIRED);
        let mut evicted = Vec::with_capacity(surplus);
        self.versions.retain(|e| {
            let go = surplus > 0 && !held(e);
            if go {
                surplus -= 1;
                e.evicted.store(true, Ordering::Relaxed);
                evicted.push(Arc::clone(e));
            }
            !go
        });
        evicted
    }
}

/// The versioned model store. The mutex guards pointers and counters
/// only (publish builds and frees outside it); the data plane clones
/// `Arc`s out of it once per batch.
#[derive(Debug)]
pub(crate) struct ModelRegistry {
    inner: Mutex<Inner>,
    pool: Pool,
    /// The serving shape every version must match: the queue holds
    /// feature vectors of one width, and tickets promise labels from one
    /// class range.
    num_features: usize,
    num_classes: u32,
    active_version_gauge: Arc<Gauge>,
    epoch_gauge: Arc<Gauge>,
    swaps: Arc<Counter>,
    retained: Arc<Gauge>,
    evictions: Arc<Counter>,
}

impl ModelRegistry {
    /// Registers `model` as `v1` and activates it.
    pub(crate) fn new(model: ServeModel, kinds: &[BackendKind], telemetry: &Telemetry) -> Self {
        Self::with_factory(model, kinds, telemetry, make_backend)
    }

    fn with_factory(
        model: ServeModel,
        kinds: &[BackendKind],
        telemetry: &Telemetry,
        make: MakeBackend,
    ) -> Self {
        let (num_features, num_classes) = (model.num_features(), model.num_classes());
        let pool = Pool {
            kinds: kinds.to_vec(),
            make,
            next_version: AtomicU64::new(1),
            totals: Arc::new(EvictedTotals {
                telemetry: telemetry.clone(),
                batches: telemetry.counter("serve.registry.evicted_batches"),
                rows: telemetry.counter("serve.registry.evicted_rows"),
                fallbacks: kinds.iter().map(|_| AtomicU64::new(0)).collect(),
            }),
        };
        let entry = pool.build(model);
        let active_version_gauge = telemetry.gauge("serve.model.active_version");
        let epoch_gauge = telemetry.gauge("serve.model.epoch");
        let retained = telemetry.gauge("serve.registry.retained");
        active_version_gauge.set(1.0);
        epoch_gauge.set(0.0);
        retained.set(1.0);
        Self::export_resident_bytes(telemetry, &entry);
        ModelRegistry {
            inner: Mutex::new(Inner {
                versions: vec![Arc::clone(&entry)],
                active: entry,
                routed: None,
                epoch: 0,
            }),
            pool,
            num_features,
            num_classes,
            active_version_gauge,
            epoch_gauge,
            swaps: telemetry.counter("serve.model.swaps"),
            retained,
            evictions: telemetry.counter("serve.registry.evictions"),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Feature width every submission and every version must match.
    pub(crate) fn num_features(&self) -> usize {
        self.num_features
    }

    /// Class count every version must match.
    pub(crate) fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// Publishes `model` as the next version **without** activating it,
    /// and evicts what the retention rule no longer covers. The model
    /// must match the serving shape (feature width and class count).
    pub(crate) fn publish(&self, model: ServeModel) -> Result<ModelVersion, ServeError> {
        if model.num_features() != self.num_features {
            return Err(ServeError::IncompatibleModel {
                reason: format!(
                    "feature width {} != serving width {}",
                    model.num_features(),
                    self.num_features
                ),
            });
        }
        if model.num_classes() != self.num_classes {
            return Err(ServeError::IncompatibleModel {
                reason: format!(
                    "class count {} != serving count {}",
                    model.num_classes(),
                    self.num_classes
                ),
            });
        }
        // Off the lock: the block build, and on a q8 pool the u8 build.
        let entry = self.pool.build(model);
        let version = entry.version;
        let evicted = {
            let mut inner = self.lock();
            // Concurrent publishers may arrive out of number order.
            let at = inner.versions.partition_point(|e| e.version < version);
            inner.versions.insert(at, entry);
            let evicted = inner.evict();
            self.evictions.add(evicted.len() as u64);
            self.retained.set(inner.versions.len() as f64);
            evicted
        };
        // Off the lock again: an unpinned entry frees its forest here.
        drop(evicted);
        Ok(version)
    }

    /// Makes `version` the active (serving) version and returns the
    /// previously active one. This is the whole hot-swap: one pointer
    /// store plus an epoch bump — in-flight batches keep their pinned
    /// entries, new batches pick up the new pointer. Re-activating a
    /// retained older version IS rollback; there is no other mechanism.
    pub(crate) fn activate(&self, version: ModelVersion) -> Result<ModelVersion, ServeError> {
        let mut inner = self.lock();
        let entry = inner.lookup(version)?;
        let previous = inner.active.version;
        inner.active = entry;
        inner.epoch += 1;
        self.active_version_gauge.set(version.get() as f64);
        self.epoch_gauge.set(inner.epoch as f64);
        self.swaps.inc();
        Self::export_resident_bytes(&self.pool.totals.telemetry, &inner.active);
        Ok(previous)
    }

    /// Checks that every version `mode` names is retained, then hands the
    /// mode to `router` — both under the registry lock, so no publish can
    /// evict the version in between. The named version stays retained
    /// until a later route stops naming it.
    pub(crate) fn set_route(&self, mode: RouteMode, router: &Router) -> Result<(), ServeError> {
        let mut inner = self.lock();
        Router::validate(mode, |v| inner.lookup(v).is_ok())?;
        inner.routed = mode.referenced();
        router.set_mode(mode);
        Ok(())
    }

    /// Points the per-backend `serve.backend.<name>.resident_bytes`
    /// gauges at the newly active version's executors. Each backend
    /// reports the footprint of the layout it **actually traverses** —
    /// quantized backends report compressed bytes — so these gauges agree
    /// with the per-tree cost `EnginePlan::auto` bin-packs shards from.
    /// Reads the footprints cached on the entry at publish time: a swap
    /// is a pointer store plus gauge writes, never a forest re-walk.
    fn export_resident_bytes(telemetry: &Telemetry, entry: &VersionEntry) {
        for (backend, footprint) in entry.backends.iter().zip(&entry.resident) {
            telemetry
                .gauge(&format!("serve.backend.{}.resident_bytes", backend.kind().name()))
                .set(footprint.total() as f64);
        }
    }

    /// The entry new batches should serve with (pin it — the `Arc` is
    /// the in-flight guarantee).
    pub(crate) fn active(&self) -> Arc<VersionEntry> {
        Arc::clone(&self.lock().active)
    }

    /// A specific retained version's entry.
    pub(crate) fn get(&self, version: ModelVersion) -> Result<Arc<VersionEntry>, ServeError> {
        self.lock().lookup(version)
    }

    pub(crate) fn active_version(&self) -> ModelVersion {
        self.lock().active.version
    }

    /// Every retained version, in publish order.
    pub(crate) fn versions(&self) -> Vec<ModelVersion> {
        self.lock().versions.iter().map(|e| e.version).collect()
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Batches a stand-in store answered in pool slot `idx` (a q8 slot on
    /// the block store, see [`crate::backend`]), summed across
    /// every version that ever executed there (the stats surface reports
    /// per-slot cumulative counts, which must not reset on a swap or an
    /// eviction).
    pub(crate) fn slot_fallbacks(&self, idx: usize) -> u64 {
        let retained: u64 = self.lock().versions.iter().map(|e| e.backends[idx].fallbacks()).sum();
        retained + self.pool.totals.fallbacks[idx].load(Ordering::Relaxed)
    }

    pub(crate) fn swaps(&self) -> u64 {
        self.swaps.get()
    }

    /// What evicted versions add to the per-version rows of
    /// [`ModelRegistry::version_stats`]: `(versions, batches, rows)`. A
    /// version evicted with a batch still in flight joins the last two
    /// when that batch has delivered.
    pub(crate) fn evicted_stats(&self) -> (u64, u64, u64) {
        let totals = &self.pool.totals;
        (self.evictions.get(), totals.batches.get(), totals.rows.get())
    }

    /// Per-version stats rows for the [`crate::ServeStats`] surface, one
    /// per retained version.
    pub(crate) fn version_stats(&self) -> Vec<VersionStats> {
        let inner = self.lock();
        inner
            .versions
            .iter()
            .map(|e| VersionStats {
                version: e.version.get(),
                active: e.version == inner.active.version,
                batches: e.recorder.batches.get(),
                rows: e.recorder.rows.get(),
                shadow_batches: e.recorder.shadow_batches.get(),
                shadow_rows: e.recorder.shadow_rows.get(),
                shadow_agree_rows: e.recorder.shadow_agree_rows.get(),
                batch_latency: LatencySummary::from_histogram(&e.recorder.batch_latency.snapshot()),
            })
            .collect()
    }
}

/// Per-version slice of a [`crate::ServeStats`] snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct VersionStats {
    /// Numeric version (1-based publish order).
    pub version: u64,
    /// Whether this version is currently serving new batches.
    pub active: bool,
    /// Batches served live by this version.
    pub batches: u64,
    /// Rows served live by this version.
    pub rows: u64,
    /// Batches shadow-scored against this version as the candidate.
    pub shadow_batches: u64,
    /// Rows shadow-scored against this version.
    pub shadow_rows: u64,
    /// Shadow rows whose candidate label agreed with the served label.
    pub shadow_agree_rows: u64,
    /// Wall latency of live batches on this version.
    pub batch_latency: LatencySummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendError, Exec};
    use rfx_core::{BlockForest, Label, QFilForest, TreeEnsemble};
    use rfx_forest::dataset::QueryView;
    use rfx_forest::forest::RandomForest;
    use rfx_forest::tree::DecisionTree;
    use std::sync::{Barrier, Weak};

    fn model(label: u32) -> ServeModel {
        // Constant-label stump forests: distinguishable by prediction.
        let trees = vec![DecisionTree::leaf(label); 3];
        let forest = RandomForest::from_trees(trees, 4, 2).unwrap();
        ServeModel::prepare(forest).unwrap()
    }

    fn registry_on(telemetry: &Telemetry) -> ModelRegistry {
        ModelRegistry::new(model(0), &[BackendKind::CpuSharded], telemetry)
    }

    fn registry() -> ModelRegistry {
        registry_on(&Telemetry::new())
    }

    fn v(n: u64) -> ModelVersion {
        ModelVersion::from_raw(n).unwrap()
    }

    fn held(reg: &ModelRegistry) -> Vec<u64> {
        reg.versions().iter().map(|v| v.get()).collect()
    }

    /// Publishes and activates `n` more versions, returning the last.
    fn roll_forward(reg: &ModelRegistry, n: usize) -> ModelVersion {
        let mut last = reg.active_version();
        for i in 0..n {
            last = reg.publish(model(i as u32 % 2)).unwrap();
            reg.activate(last).unwrap();
        }
        last
    }

    fn predict_one(entry: &VersionEntry) -> Label {
        let row = [0.5f32; 4];
        let mut out = [9];
        entry.backends[0].predict(QueryView::new(&row, 4).unwrap(), &mut out).unwrap();
        out[0]
    }

    /// Each gauge reads the bytes of the store its slot walks: the block
    /// store for `cpu-sharded`, the quantized FIL for `cpu-sharded-q8`.
    #[test]
    fn resident_bytes_gauges_track_the_active_layouts() {
        let tel = Telemetry::new();
        let first = model(0);
        let forest = Arc::clone(first.forest());
        let kinds = [BackendKind::CpuSharded, BackendKind::CpuShardedQ8];
        let reg = ModelRegistry::new(first, &kinds, &tel);
        let gauge = |kind: &str| tel.gauge(&format!("serve.backend.{kind}.resident_bytes")).get();
        let blocks = BlockForest::build(&forest).unwrap().footprint().total() as f64;
        let q8 = QFilForest::<u8>::build(&forest).unwrap().footprint().total() as f64;
        assert!(blocks > 0.0 && q8 > 0.0);
        assert_eq!((gauge("cpu-sharded"), gauge("cpu-sharded-q8")), (blocks, q8));
        // Activation re-exports the gauges for the new active version.
        tel.gauge("serve.backend.cpu-sharded-q8.resident_bytes").set(0.0);
        let v2 = reg.publish(model(1)).unwrap();
        reg.activate(v2).unwrap();
        assert_eq!(gauge("cpu-sharded-q8"), q8, "a same-shaped stump forest");
    }

    #[test]
    fn cached_resident_footprints_match_the_live_backends() {
        let kinds = [BackendKind::CpuSharded, BackendKind::CpuShardedQ8];
        let reg = ModelRegistry::new(model(0), &kinds, &Telemetry::new());
        let v2 = reg.publish(model(1)).unwrap();
        for entry in [reg.active(), reg.get(v2).unwrap()] {
            assert_eq!(entry.resident.len(), entry.backends.len());
            for (backend, cached) in entry.backends.iter().zip(&entry.resident) {
                assert_eq!(
                    cached.total(),
                    backend.resident_footprint().total(),
                    "cache diverged for {}",
                    backend.kind()
                );
            }
        }
    }

    #[test]
    fn versions_are_one_based_and_monotone() {
        let reg = registry();
        assert_eq!(reg.active_version().get(), 1);
        assert_eq!(reg.publish(model(1)).unwrap().get(), 2);
        assert_eq!(reg.publish(model(0)).unwrap().get(), 3);
        assert_eq!(held(&reg), vec![1, 2, 3]);
        // Publish alone never changes what is serving.
        assert_eq!(reg.active_version().get(), 1);
        assert_eq!(reg.epoch(), 0);
    }

    #[test]
    fn activate_returns_previous_and_bumps_epoch() {
        let reg = registry();
        let v2 = reg.publish(model(1)).unwrap();
        let prev = reg.activate(v2).unwrap();
        assert_eq!(prev.get(), 1);
        assert_eq!(reg.active_version(), v2);
        assert_eq!(reg.epoch(), 1);
        assert_eq!(reg.swaps(), 1);
    }

    /// The bound, counted through `Weak`s: whatever the registry let go
    /// of is really freed, and numbers keep climbing past evictions.
    #[test]
    fn a_thousand_publishes_keep_a_bounded_number_alive() {
        let tel = Telemetry::new();
        let reg = registry_on(&tel);
        let mut issued: Vec<Weak<VersionEntry>> = vec![Arc::downgrade(&reg.active())];
        let mut last = 1;
        for i in 0..1000u64 {
            let version = reg.publish(model(i as u32 % 2)).unwrap();
            assert!(version.get() > last, "{version} reused or went back after v{last}");
            last = version.get();
            issued.push(Arc::downgrade(&reg.get(version).unwrap()));
            assert!(reg.versions().len() <= 1 + RETAINED_RETIRED);
            assert!(tel.gauge("serve.registry.retained").get() <= (1 + RETAINED_RETIRED) as f64);
        }
        assert_eq!(last, 1001);
        // Never activated, so v1 is still serving beside the two newest.
        assert_eq!(held(&reg), vec![1, 1000, 1001]);
        let alive = issued.iter().filter(|w| w.strong_count() > 0).count();
        assert_eq!(alive, 1 + RETAINED_RETIRED);
        assert_eq!(tel.counter("serve.registry.evictions").get(), 1001 - 3);
        // The export names retained versions only.
        let snap = tel.metrics_snapshot();
        let mut families: Vec<&str> = snap
            .counters
            .iter()
            .filter_map(|(name, _)| name.strip_prefix("serve.model.v"))
            .filter_map(|rest| rest.split('.').next())
            .collect();
        families.dedup();
        assert_eq!(families, vec!["1", "1000", "1001"]);
        assert_eq!(
            snap.histograms.iter().filter(|(n, _)| n.starts_with("serve.model.v")).count(),
            3
        );
    }

    #[test]
    fn rollback_is_a_plain_reactivation() {
        // Rolling back needs no special path: a retained version is
        // activated like any other, RETAINED_RETIRED swaps deep.
        let reg = registry();
        let v5 = roll_forward(&reg, 4);
        assert_eq!(held(&reg), vec![3, 4, 5]);
        assert_eq!(reg.activate(v(4)).unwrap(), v5);
        assert_eq!(predict_one(&reg.active()), 0, "v4 is a label-0 forest");
        assert_eq!(reg.activate(v(3)).unwrap(), v(4));
        assert_eq!(predict_one(&reg.active()), 1, "v3 is a label-1 forest");
        assert_eq!(reg.epoch(), 6, "rollback is just another epoch bump");
        // And forward again.
        reg.activate(v5).unwrap();
        // Beyond the retained depth the version is gone, typed.
        assert!(matches!(reg.activate(v(2)), Err(ServeError::UnknownVersion { version: 2 })));
        assert!(matches!(reg.get(v(1)), Err(ServeError::UnknownVersion { version: 1 })));
        assert_eq!(reg.active_version(), v5);
    }

    #[test]
    fn entries_survive_while_pinned() {
        let tel = Telemetry::new();
        let reg = registry_on(&tel);
        // What a batch formed on v1 holds.
        let pinned = reg.active();
        roll_forward(&reg, 4);
        assert!(reg.get(v(1)).is_err(), "v1 was evicted");
        // The old entry is still fully usable through the pin: this is
        // what lets an in-flight batch deliver on its dispatch version.
        assert_eq!(pinned.version.get(), 1);
        assert_eq!(predict_one(&pinned), 0);
        pinned.recorder.record_batch(5, 10, TraceId::NONE);
        assert_eq!(tel.metrics_snapshot().counter("serve.model.v1.rows"), Some(5));
        assert_eq!(reg.evicted_stats(), (2, 0, 0), "v2 went unpinned and had served nothing");
        // The last pin drops: counts fold, names leave the export.
        let weak = Arc::downgrade(&pinned);
        drop(pinned);
        assert_eq!(weak.strong_count(), 0);
        assert_eq!(reg.evicted_stats(), (2, 1, 5));
        let snap = tel.metrics_snapshot();
        assert!(!snap.counters.iter().any(|(n, _)| n.starts_with("serve.model.v1.")));
        assert!(snap.counter("serve.model.v3.rows").is_some());
        assert_eq!(snap.counter("serve.registry.evicted_rows"), Some(5));
    }

    #[test]
    fn routed_versions_are_held_until_the_route_lets_go() {
        let reg = registry();
        let router = Router::new(7, &Telemetry::new());
        let candidate = reg.publish(model(1)).unwrap();
        let shadow = RouteMode::Shadow { candidate, sample_permille: 1000 };
        reg.set_route(shadow, &router).unwrap();
        roll_forward(&reg, 20);
        assert_eq!(held(&reg), vec![2, 20, 21, 22], "active + routed + RETAINED_RETIRED");
        assert_eq!(predict_one(&reg.get(candidate).unwrap()), 1);
        // Arm B takes over the hold; an evicted version cannot be routed
        // to, and the refused route changes nothing.
        let gone = RouteMode::AbSplit { arm_b: v(5), b_permille: 500 };
        assert!(matches!(
            reg.set_route(gone, &router),
            Err(ServeError::UnknownVersion { version: 5 })
        ));
        assert_eq!(router.mode(), shadow);
        reg.set_route(RouteMode::AbSplit { arm_b: v(21), b_permille: 500 }, &router).unwrap();
        roll_forward(&reg, 5);
        assert_eq!(held(&reg), vec![21, 25, 26, 27], "v2 lost its hold, v21 gained one");
        // Back to `Single`: the next publish may evict it.
        reg.set_route(RouteMode::Single, &router).unwrap();
        roll_forward(&reg, 1);
        assert_eq!(held(&reg), vec![26, 27, 28]);
    }

    /// A backend that only reports: 7 fallbacks, and a label no stump
    /// forest predicts.
    struct Fake;

    impl Backend for Fake {
        fn kind(&self) -> BackendKind {
            BackendKind::CpuSharded
        }
        fn predict(&self, _: QueryView, out: &mut [Label]) -> Result<Exec, BackendError> {
            out.fill(1);
            Ok(Exec::default())
        }
        fn fallbacks(&self) -> u64 {
            7
        }
        fn resident_footprint(&self) -> LayoutFootprint {
            LayoutFootprint::default()
        }
    }

    #[test]
    fn slot_fallbacks_stay_cumulative_across_evictions() {
        fn fake(_: BackendKind, _: &ServeModel) -> Box<dyn Backend + Sync> {
            Box::new(Fake)
        }
        let kinds = [BackendKind::CpuSharded];
        let reg = ModelRegistry::with_factory(model(0), &kinds, &Telemetry::new(), fake);
        assert_eq!(reg.slot_fallbacks(0), 7);
        roll_forward(&reg, 9);
        assert_eq!(reg.versions().len(), 3);
        assert_eq!(reg.slot_fallbacks(0), 70, "ten versions, three of them retained");
    }

    /// `publish` builds its entry with the registry unlocked: while one
    /// is stuck inside the executor build, batches still find the active
    /// version and the control plane still swaps.
    #[test]
    fn a_publish_stuck_building_does_not_block_the_data_plane() {
        static ARMED: AtomicBool = AtomicBool::new(false);
        static ENTERED: Barrier = Barrier::new(2);
        static RELEASE: Barrier = Barrier::new(2);
        fn gated(kind: BackendKind, model: &ServeModel) -> Box<dyn Backend + Sync> {
            if ARMED.swap(false, Ordering::SeqCst) {
                ENTERED.wait();
                RELEASE.wait();
            }
            make_backend(kind, model)
        }
        let kinds = [BackendKind::CpuSharded];
        let reg = ModelRegistry::with_factory(model(0), &kinds, &Telemetry::new(), gated);
        let v2 = reg.publish(model(1)).unwrap();
        ARMED.store(true, Ordering::SeqCst);
        std::thread::scope(|scope| {
            let publisher = scope.spawn(|| reg.publish(model(0)));
            ENTERED.wait();
            // try_lock, so that a registry that does hold its lock here
            // fails this test instead of hanging it.
            assert!(reg.inner.try_lock().is_ok(), "publish holds the lock across make_backend");
            assert_eq!(reg.active().version.get(), 1);
            assert_eq!(reg.activate(v2).unwrap().get(), 1);
            assert_eq!(held(&reg), vec![1, 2], "nothing is registered before the build ends");
            RELEASE.wait();
            assert_eq!(publisher.join().unwrap().unwrap().get(), 3);
        });
        assert_eq!(held(&reg), vec![1, 2, 3]);
    }

    #[test]
    fn unknown_version_is_a_typed_error() {
        let reg = registry();
        let ghost = ModelVersion::from_raw(9).unwrap();
        assert!(matches!(reg.activate(ghost), Err(ServeError::UnknownVersion { version: 9 })));
        assert!(reg.get(ghost).is_err());
    }

    #[test]
    fn incompatible_models_are_rejected_at_publish() {
        let reg = registry();
        // Wrong feature width.
        let narrow = RandomForest::from_trees(vec![DecisionTree::leaf(0)], 3, 2).unwrap();
        let narrow = ServeModel::prepare(narrow).unwrap();
        assert!(matches!(reg.publish(narrow), Err(ServeError::IncompatibleModel { .. })));
        // Wrong class count.
        let wide = RandomForest::from_trees(vec![DecisionTree::leaf(0)], 4, 5).unwrap();
        let wide = ServeModel::prepare(wide).unwrap();
        assert!(matches!(reg.publish(wide), Err(ServeError::IncompatibleModel { .. })));
        // Nothing was registered by the failed publishes, and no number
        // was spent on them.
        assert_eq!(reg.versions().len(), 1);
        assert_eq!(reg.publish(model(1)).unwrap().get(), 2);
    }

    #[test]
    fn model_version_raw_round_trip() {
        assert_eq!(ModelVersion::from_raw(0), None);
        let v = ModelVersion::from_raw(7).unwrap();
        assert_eq!(v.get(), 7);
        assert_eq!(v.to_string(), "v7");
    }
}
