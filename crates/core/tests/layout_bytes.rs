//! Golden bytes of every layout build: for three seeded forests — one
//! with single-leaf trees, one whose node ids put children before their
//! parents — a hash of every array of FIL, QFil u8/u16, packed f32/u8,
//! hier at two configs and the one-line blocks, and of the calibration
//! profile. A build may get faster; its output changes only on purpose,
//! with these constants.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::hier::builder::build_forest;
use rfx_core::pack::{FrequencyProfile, PackPlan, PackedFilForest, PackedQFilForest};
use rfx_core::{BlockForest, FilForest, HierConfig, QFilForest};
use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, Node, RandomForest};
use std::fmt::Write;

const NF: usize = 9;

/// FNV-1a over a value's `Debug` text, which spells out every array of
/// a store — floats in their shortest round-trip form, so two floats
/// print alike only when their bits are equal (NaN aside; the forests
/// below hold none).
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn hash(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").unwrap();
    h.0
}

/// `tree` with every non-root id `i` renumbered `n − i`: children now
/// sit before their parents in the node vector.
fn reversed(tree: &DecisionTree) -> DecisionTree {
    let n = tree.num_nodes() as u32;
    let new = |i: u32| if i == 0 { 0 } else { n - i };
    let mut nodes = vec![Node::Leaf { label: 0 }; n as usize];
    for (i, &node) in tree.nodes().iter().enumerate() {
        nodes[new(i as u32) as usize] = match node {
            Node::Inner { feature, threshold, left, right } => {
                Node::Inner { feature, threshold, left: new(left), right: new(right) }
            }
            leaf => leaf,
        };
    }
    DecisionTree::from_nodes(nodes).unwrap()
}

/// The three forests: plain random trees; ragged depths with
/// single-leaf trees among them; and deep trees with reversed ids.
fn forests() -> Vec<RandomForest> {
    let mut rng = StdRng::seed_from_u64(2929);
    let plain = (0..12).map(|_| DecisionTree::random(&mut rng, 10, NF as u16, 3, 0.2)).collect();
    let ragged = (0..16)
        .map(|i| match i % 5 {
            0 => DecisionTree::leaf(i % 4),
            d => DecisionTree::random(&mut rng, 3 * d as usize, NF as u16, 4, 0.35),
        })
        .collect();
    let reversed =
        (0..6).map(|_| reversed(&DecisionTree::random(&mut rng, 14, NF as u16, 2, 0.25))).collect();
    vec![
        RandomForest::from_trees(plain, NF, 3).unwrap(),
        RandomForest::from_trees(ragged, NF, 4).unwrap(),
        RandomForest::from_trees(reversed, NF, 2).unwrap(),
    ]
}

/// One hash per store, in the order of [`GOLDEN`]'s rows.
fn store_hashes(forest: &RandomForest, seed: u64) -> [u64; 9] {
    let mut rng = StdRng::seed_from_u64(seed);
    let calib: Vec<f32> = (0..256 * NF).map(|_| rng.gen::<f32>() * rng.gen::<f32>()).collect();
    let profile = FrequencyProfile::collect(forest, QueryView::new(&calib, NF).unwrap());
    let plan = PackPlan::new(16 << 10).unwrap();
    [
        hash(&profile),
        hash(&FilForest::build(forest)),
        hash(&QFilForest::<u8>::build(forest).unwrap()),
        hash(&QFilForest::<u16>::build(forest).unwrap()),
        hash(&PackedFilForest::build(forest, &profile, plan).unwrap()),
        hash(&PackedQFilForest::<u8>::build(forest, &profile, plan).unwrap()),
        hash(&build_forest(forest, HierConfig::uniform(3)).unwrap()),
        hash(&build_forest(forest, HierConfig::with_root(4, 8)).unwrap()),
        hash(&BlockForest::build(forest).unwrap()),
    ]
}

const STORES: [&str; 9] = [
    "profile",
    "fil",
    "qfil-u8",
    "qfil-u16",
    "packed-fil",
    "packed-qfil-u8",
    "hier-3",
    "hier-4-8",
    "blocks",
];

/// Hashes of the stores as built by the multi-pass builders that the
/// one-pass builds replaced (the blocks: as first built): per forest, one
/// per entry of [`STORES`].
const GOLDEN: [[u64; 9]; 3] = [
    [
        0x76c6_2cbd_37e5_392e,
        0x6e6a_f0b2_29d3_b390,
        0xe6e2_606b_c31f_2b88,
        0x698c_46b7_4e0e_5bfc,
        0x365e_6392_9386_9423,
        0xe260_3105_7130_8e6a,
        0x2890_10be_5fe4_ae0e,
        0x0d8d_dca2_0f87_273a,
        0x8084_c851_793d_a21f,
    ],
    [
        0x979d_c76e_ba6f_9b52,
        0x68a5_c956_e654_593c,
        0x2408_6540_db50_29da,
        0xd018_5a08_fde3_5000,
        0x0aaf_1112_f537_0c0a,
        0x5c39_8ce8_f53e_e863,
        0x1411_3374_71e9_052f,
        0xa434_d35e_48d2_1cb9,
        0xb04d_2fee_2862_13b6,
    ],
    [
        0x027c_c135_7367_ca8e,
        0xa54b_e7f0_234b_d6b0,
        0xe80f_b9fc_2e5a_fa1b,
        0xfa2b_d33e_f456_0e9d,
        0x2712_94da_922c_e810,
        0xd5f5_f43b_8e61_c2b1,
        0xb9dd_4dff_096f_7841,
        0x246a_7580_4f11_e724,
        0x26b3_d339_c963_091d,
    ],
];

#[test]
fn every_layout_build_keeps_its_bytes() {
    for (f, forest) in forests().iter().enumerate() {
        let got = store_hashes(forest, 77 + f as u64);
        for (s, name) in STORES.iter().enumerate() {
            assert_eq!(got[s], GOLDEN[f][s], "forest {f}, {name}: {:#018x}", got[s]);
        }
    }
}
