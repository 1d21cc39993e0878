//! Input generation: `--seed` → dataset → trained forest bytes, query
//! pool and expected labels.
//!
//! Generation runs in a child process (`bench_suite --generate`) that
//! writes one file under the build directory; the measuring process
//! reads that file and nothing else, so the program under test receives
//! only bytes and rows, and the trainer's memory never counts towards
//! `peak_rss_mb`. A file already present for the same workload, seed
//! and generator version is reused.

use crate::workloads::Workload;
use rfx_core::{splitmix64, ThresholdQuantizer};
use rfx_data::DatasetSpec;
use rfx_forest::dataset::QueryView;
use rfx_forest::serialize::write_forest;
use rfx_forest::train::{SplitFinder, TrainConfig};
use rfx_forest::{Dataset, RandomForest};
use rfx_kernels::cpu::predict_reference;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Bumped whenever the recipe below changes, so a stale file from an
/// earlier build of this directory is regenerated, not trusted.
const MAGIC: &[u8; 8] = b"RFXBIN02";

/// Rows at the head of the pool used to calibrate packing and to drive
/// the device simulators.
pub const CALIBRATION_ROWS: usize = 512;

#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub features: usize,
    /// `write_forest` bytes of the served forest.
    pub forest_a: Vec<u8>,
    /// Same data, different train seed: the forest the swap workload
    /// alternates with. Empty when the workload never swaps.
    pub forest_b: Vec<u8>,
    /// Row-major query pool.
    pub pool: Vec<f32>,
    /// `predict_reference(forest_a, pool)`.
    pub oracle_a: Vec<u32>,
    /// `predict_reference` of forest A snapped to the u8 threshold grid:
    /// the oracle of the quantized layout.
    pub oracle_a_q8: Vec<u32>,
    pub oracle_b: Vec<u32>,
    pub generate_s: f64,
    pub train_s: f64,
}

fn train(data: &Dataset, w: &Workload, seed: u64) -> RandomForest {
    let cfg = TrainConfig {
        n_trees: w.trees,
        max_depth: w.depth,
        seed,
        // 32 bins instead of the default 256 trains the depth-30 forest
        // in a third of the time with the same node count; training is
        // input generation here, and every run pays for it.
        split_finder: SplitFinder::Histogram { max_bins: 32 },
        ..TrainConfig::default()
    };
    RandomForest::fit(data, &cfg).expect("training on generated data")
}

fn forest_bytes(forest: &RandomForest) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_forest(forest, &mut bytes).expect("writing to a Vec cannot fail");
    bytes
}

/// Everything a run needs, as a pure function of workload and seed.
/// Seeds derive from `seed` and the dataset kind only, so the two serve
/// workloads get the identical forest A at the same `--seed`.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let base = splitmix64(seed ^ ((w.kind as u64) << 32));
    let t0 = Instant::now();
    let data = DatasetSpec { kind: w.kind, num_samples: w.train_rows + w.pool_rows, seed: base }
        .generate();
    let generate_s = t0.elapsed().as_secs_f64();
    let train_set = data.head(w.train_rows);
    let pool_rows: Vec<usize> = (w.train_rows..w.train_rows + w.pool_rows).collect();
    let pool = data.subset(&pool_rows);
    let queries = QueryView::from(&pool);

    let t0 = Instant::now();
    let a = train(&train_set, w, splitmix64(base ^ 1));
    let train_s = t0.elapsed().as_secs_f64();
    let snapped = ThresholdQuantizer::fit_for::<u8>(&a).snap_forest(&a);
    let (forest_b, oracle_b) = if w.swap {
        let b = train(&train_set, w, splitmix64(base ^ 2));
        (forest_bytes(&b), predict_reference(&b, queries))
    } else {
        (Vec::new(), Vec::new())
    };
    Inputs {
        features: pool.num_features(),
        forest_a: forest_bytes(&a),
        forest_b,
        pool: pool.raw_features().to_vec(),
        oracle_a: predict_reference(&a, queries),
        oracle_a_q8: predict_reference(&snapped, queries),
        oracle_b,
        generate_s,
        train_s,
    }
}

impl Inputs {
    pub fn rows(&self) -> usize {
        self.pool.len() / self.features
    }

    pub fn queries(&self, rows: usize) -> QueryView<'_> {
        QueryView::new(&self.pool[..rows * self.features], self.features)
            .expect("pool length is a multiple of the feature count")
    }

    /// FNV-1a over every byte the program under test will see; printed
    /// with each run so two runs can be shown to have had equal inputs.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.forest_a);
        eat(&self.forest_b);
        self.pool.iter().for_each(|v| eat(&v.to_le_bytes()));
        for labels in [&self.oracle_a, &self.oracle_a_q8, &self.oracle_b] {
            labels.iter().for_each(|v| eat(&v.to_le_bytes()));
        }
        h
    }

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        let mut section = |bytes: &[u8]| {
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(bytes);
        };
        let le32 = |words: &[u32]| words.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>();
        section(&(self.features as u64).to_le_bytes());
        section(&self.generate_s.to_le_bytes());
        section(&self.train_s.to_le_bytes());
        section(&self.forest_a);
        section(&self.forest_b);
        section(&self.pool.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>());
        section(&le32(&self.oracle_a));
        section(&le32(&self.oracle_a_q8));
        section(&le32(&self.oracle_b));
        out
    }

    /// `None` for anything that is not a complete file of this version.
    fn from_bytes(bytes: &[u8]) -> Option<Inputs> {
        let mut rest = bytes.strip_prefix(MAGIC)?;
        let mut section = || -> Option<&[u8]> {
            let (len, tail) = rest.split_first_chunk::<8>()?;
            let len = usize::try_from(u64::from_le_bytes(*len)).ok()?;
            let (body, tail) = tail.split_at_checked(len)?;
            rest = tail;
            Some(body)
        };
        let words = |b: &[u8]| -> Option<Vec<[u8; 4]>> {
            b.len()
                .is_multiple_of(4)
                .then(|| b.chunks_exact(4).map(|c| [c[0], c[1], c[2], c[3]]).collect())
        };
        let u32s =
            |b: &[u8]| Some(words(b)?.into_iter().map(u32::from_le_bytes).collect::<Vec<_>>());
        let features = usize::try_from(u64::from_le_bytes(section()?.try_into().ok()?)).ok()?;
        let generate_s = f64::from_le_bytes(section()?.try_into().ok()?);
        let train_s = f64::from_le_bytes(section()?.try_into().ok()?);
        let forest_a = section()?.to_vec();
        let forest_b = section()?.to_vec();
        let pool: Vec<f32> = words(section()?)?.into_iter().map(f32::from_le_bytes).collect();
        let inputs = Inputs {
            features,
            forest_a,
            forest_b,
            pool,
            oracle_a: u32s(section()?)?,
            oracle_a_q8: u32s(section()?)?,
            oracle_b: u32s(section()?)?,
            generate_s,
            train_s,
        };
        let shaped = features > 0
            && inputs.pool.len().is_multiple_of(features)
            && inputs.oracle_a.len() == inputs.rows()
            && inputs.oracle_a_q8.len() == inputs.rows();
        (rest.is_empty() && shaped).then_some(inputs)
    }
}

/// Where build products go: the driver sets `CARGO_TARGET_DIR`; a plain
/// `cargo run --manifest-path bench_suite/Cargo.toml` from the repo
/// root builds into `bench_suite/target`.
pub fn build_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("bench_suite/target"), PathBuf::from)
}

pub fn cache_path(w: &Workload, seed: u64, smoke: bool) -> PathBuf {
    let scale = if smoke { "-smoke" } else { "" };
    build_dir().join("bench_suite-cache").join(format!("{}-{seed}{scale}.bin", w.name))
}

/// Child-process entry: generate and write atomically (a killed child
/// leaves a `.tmp` file behind, never a short cache file).
pub fn generate_to(w: &Workload, seed: u64, path: &Path) -> std::io::Result<()> {
    let bytes = generate(w, seed).to_bytes();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Loads the inputs for `(w, seed)`, generating them in a child process
/// of this same executable when no valid file exists yet.
pub fn load_or_generate(w: &Workload, seed: u64, smoke: bool) -> Result<Inputs, String> {
    let path = cache_path(w, seed, smoke);
    // A file from an earlier build of this directory may hold another
    // recipe's inputs under the same name.
    let fits = |i: &Inputs| i.rows() == w.pool_rows && i.forest_b.is_empty() != w.swap;
    let read = || std::fs::read(&path).ok().and_then(|b| Inputs::from_bytes(&b)).filter(fits);
    if let Some(inputs) = read() {
        return Ok(inputs);
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child.args(["--generate", "--workload", w.name, "--seed", &seed.to_string()]);
    if smoke {
        child.arg("--smoke");
    }
    let status = child.status().map_err(|e| format!("spawning the input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator exited with {status}"));
    }
    read().ok_or_else(|| format!("input generator left no valid file at {}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = ALL[3].smoke();
        let (a, again, other) = (generate(&w, 1), generate(&w, 1), generate(&w, 2));
        assert_eq!(a.hash(), again.hash());
        assert_eq!(a.forest_a, again.forest_a);
        assert_ne!(a.hash(), other.hash());
        assert_ne!(a.forest_a, a.forest_b, "the alternate forest has its own train seed");
        assert_eq!(a.rows(), w.pool_rows);
        assert_eq!(a.oracle_b.len(), w.pool_rows);
        // The two serve workloads serve the same forest A.
        assert_eq!(generate(&ALL[2].smoke(), 1).forest_a, a.forest_a);
    }

    #[test]
    fn file_round_trip_and_rejection_of_damaged_files() {
        let inputs = generate(&ALL[2].smoke(), 3);
        let bytes = inputs.to_bytes();
        let back = Inputs::from_bytes(&bytes).expect("a file this build wrote");
        assert_eq!(back.hash(), inputs.hash());
        assert_eq!(back, inputs);
        assert!(Inputs::from_bytes(&bytes[..bytes.len() - 1]).is_none(), "truncated");
        assert!(Inputs::from_bytes(&bytes[1..]).is_none(), "wrong magic");
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(Inputs::from_bytes(&longer).is_none(), "trailing bytes");
    }
}
