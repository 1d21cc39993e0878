//! Workload construction shared by the harness binaries: dataset
//! generation, forest training with an on-disk cache, and layout builds.

use crate::scale::Scale;
use rfx_data::{specs::DatasetSpec, split::paper_split, DatasetKind};
use rfx_forest::serialize::{read_forest, write_forest};
use rfx_forest::train::TrainConfig;
use rfx_forest::{Dataset, RandomForest};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;

/// A ready experiment workload: trained forest plus the query set.
pub struct Workload {
    /// The trained forest.
    pub forest: RandomForest,
    /// Queries to classify (the paper uses the test half of the split).
    pub queries: Dataset,
    /// Which dataset this came from.
    pub kind: DatasetKind,
    /// Maximum tree depth the forest was trained with.
    pub max_depth: usize,
}

/// Directory for cached trained forests (`RFX_CACHE` overrides).
fn cache_dir() -> PathBuf {
    std::env::var_os("RFX_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/rfx-cache"))
}

/// Bumped by any change to what a cached forest is trained from that its
/// key does not spell out: the data generators, the paper split, or the
/// trainer itself. A stale cache then misses instead of being reused.
const CACHE_VERSION: u32 = 1;

/// The cache file of the forest trained with `cfg` on the first
/// `train_rows` rows of `spec`'s training half: named by the dataset, the
/// cache version and an FNV-1a hash of everything else that decides the
/// forest, so a changed spec or config never reads an older forest.
fn cache_key(spec: &DatasetSpec, train_rows: usize, cfg: &TrainConfig) -> PathBuf {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{spec:?} {train_rows} {cfg:?}").bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
    }
    let name = spec.kind.name().to_lowercase();
    cache_dir().join(format!("{name}-v{CACHE_VERSION}-{hash:016x}.rfxf"))
}

/// Trains (or loads from cache) a forest for `kind` at `max_depth` with
/// `n_trees`, using the paper's setup: 1:1 train/test split, Gini,
/// sqrt-features, bootstrap.
pub fn trained_forest(
    kind: DatasetKind,
    max_depth: usize,
    n_trees: usize,
    scale: Scale,
) -> (RandomForest, Dataset) {
    let train_rows = scale.train_rows(kind.paper_samples() / 2);
    let test_rows = scale.queries(kind.paper_samples() / 2).max(scale.accuracy_rows(0));

    // Generate just enough data for both halves.
    let spec = DatasetSpec::scaled(kind, 2 * train_rows.max(test_rows));
    let ds = spec.generate();
    let (train_full, test_full) = paper_split(&ds, 0x51713);
    let train = train_full.head(train_rows);
    let test = test_full;

    let cfg = TrainConfig { n_trees, max_depth, seed: 0xF0_1257, ..TrainConfig::default() };
    let path = cache_key(&spec, train_rows, &cfg);
    let cached = File::open(&path).ok().and_then(|f| read_forest(BufReader::new(f)).ok());
    let forest = cached.unwrap_or_else(|| train_and_cache(&train, &cfg, &path));
    (forest, test)
}

fn train_and_cache(train: &Dataset, cfg: &TrainConfig, path: &PathBuf) -> RandomForest {
    let forest = RandomForest::fit(train, cfg).expect("training failed");
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Ok(f) = File::create(path) {
        let _ = write_forest(&forest, BufWriter::new(f));
    }
    forest
}

/// Builds the full timing workload for one (dataset, depth) cell.
pub fn timing_workload(kind: DatasetKind, max_depth: usize, scale: Scale) -> Workload {
    let (forest, test) = trained_forest(kind, max_depth, scale.timing_trees(), scale);
    let queries = test.head(scale.queries(kind.paper_samples() / 2));
    Workload { forest, queries, kind, max_depth }
}

/// The paper's Table-3 synthetic workload: `t` random trees of depth `d`,
/// `q` uniform queries over `nf` features.
pub fn synthetic_workload(d: usize, t: usize, q: usize, nf: u16, seed: u64) -> Workload {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    // Bushy trees (low leaf probability) mimic the dense synthetic forest
    // the paper's FPGA study uses.
    let trees: Vec<rfx_forest::DecisionTree> =
        (0..t).map(|_| rfx_forest::DecisionTree::random(&mut rng, d, nf, 2, 0.12)).collect();
    let forest = RandomForest::from_trees(trees, nf as usize, 2).expect("valid random forest");
    let features: Vec<f32> = (0..q * nf as usize).map(|_| rng.gen()).collect();
    let labels = vec![0u32; q];
    let queries = Dataset::from_rows_with_classes(features, nf as usize, labels, 2)
        .expect("well-shaped queries");
    Workload { forest, queries, kind: DatasetKind::Mixture, max_depth: d }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_workload_shape() {
        let w = synthetic_workload(8, 5, 100, 6, 3);
        assert_eq!(w.forest.num_trees(), 5);
        assert!(w.forest.max_depth() <= 8);
        assert_eq!(w.queries.num_rows(), 100);
        assert_eq!(w.queries.num_features(), 6);
    }

    /// One combined test because `RFX_CACHE` is process-global state and
    /// tests run concurrently.
    #[test]
    fn cache_roundtrip_and_timing_workload() {
        let dir = std::env::temp_dir().join(format!("rfx-cache-test-{}", std::process::id()));
        std::env::set_var("RFX_CACHE", &dir);

        let (f1, _) = trained_forest(DatasetKind::Mixture, 4, 3, Scale::Tiny);
        let (f2, _) = trained_forest(DatasetKind::Mixture, 4, 3, Scale::Tiny);
        assert_eq!(f1, f2, "cache round-trip must be identity");

        // Every field of the config that trained a forest names its file.
        let spec = DatasetSpec::scaled(DatasetKind::Mixture, 1000);
        let cfg = TrainConfig { n_trees: 3, max_depth: 4, ..TrainConfig::default() };
        let key = cache_key(&spec, 500, &cfg);
        assert_eq!(key, cache_key(&spec, 500, &cfg));
        assert_ne!(key, cache_key(&spec, 500, &TrainConfig { min_samples_leaf: 2, ..cfg }));
        assert_ne!(key, cache_key(&spec, 500, &TrainConfig { seed: 1, ..cfg }));
        assert_ne!(key, cache_key(&DatasetSpec { seed: 1, ..spec }, 500, &cfg));
        assert_ne!(key, cache_key(&spec, 499, &cfg));

        let w = timing_workload(DatasetKind::Mixture, 5, Scale::Tiny);
        assert_eq!(w.forest.num_trees(), Scale::Tiny.timing_trees());
        assert!(w.queries.num_rows() <= 512);
        assert_eq!(w.queries.num_features(), w.forest.num_features());

        std::env::remove_var("RFX_CACHE");
        let _ = std::fs::remove_dir_all(dir);
    }
}
