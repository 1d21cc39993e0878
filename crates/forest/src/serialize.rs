//! Compact binary persistence for trained forests.
//!
//! Serde/JSON works for interchange but is ~10× larger and slower than
//! needed for million-node forests, so models are also persisted in a
//! simple little-endian binary format:
//!
//! ```text
//! magic "RFXF" | version u32 | num_features u64 | num_classes u32 | num_trees u64
//! per tree: num_nodes u64, then per node:
//!   tag u8 (0 = leaf, 1 = inner)
//!   leaf : label u32
//!   inner: feature u16, threshold f32 bits u32, left u32, right u32
//! ```

use crate::error::ForestError;
use crate::forest::{check_shape, check_tree, RandomForest};
use crate::tree::{DecisionTree, Node};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"RFXF";
const VERSION: u32 = 1;

/// Most elements reserved on the strength of a count field alone; a
/// vector grows past this only as node data actually arrives, so a
/// 40-byte file claiming 2³² nodes costs 1 MiB, not 64 GiB, before the
/// reader finds it truncated.
const MAX_PREALLOC: usize = 1 << 16;

/// Writes a forest in the binary model format.
pub fn write_forest<W: Write>(forest: &RandomForest, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(forest.num_features() as u64).to_le_bytes())?;
    w.write_all(&forest.num_classes().to_le_bytes())?;
    w.write_all(&(forest.num_trees() as u64).to_le_bytes())?;
    for tree in forest.trees() {
        w.write_all(&(tree.num_nodes() as u64).to_le_bytes())?;
        for node in tree.nodes() {
            match *node {
                Node::Leaf { label } => {
                    w.write_all(&[0u8])?;
                    w.write_all(&label.to_le_bytes())?;
                }
                Node::Inner { feature, threshold, left, right } => {
                    w.write_all(&[1u8])?;
                    w.write_all(&feature.to_le_bytes())?;
                    w.write_all(&threshold.to_bits().to_le_bytes())?;
                    w.write_all(&left.to_le_bytes())?;
                    w.write_all(&right.to_le_bytes())?;
                }
            }
        }
    }
    Ok(())
}

/// Reads a forest from the binary model format, validating it as
/// [`RandomForest::from_trees`] does.
pub fn read_forest<R: Read>(mut r: R) -> Result<RandomForest, ForestError> {
    let io_err = |e: io::Error| ForestError::Corrupt { detail: format!("io: {e}") };
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(ForestError::Corrupt { detail: "bad magic".into() });
    }
    let version = read_u32(&mut r).map_err(io_err)?;
    if version != VERSION {
        return Err(ForestError::Corrupt { detail: format!("unsupported version {version}") });
    }
    let num_features = read_u64(&mut r).map_err(io_err)? as usize;
    let num_classes = read_u32(&mut r).map_err(io_err)?;
    let num_trees = read_u64(&mut r).map_err(io_err)? as usize;
    if num_trees == 0 || num_trees > 1 << 24 {
        return Err(ForestError::Corrupt { detail: format!("implausible tree count {num_trees}") });
    }
    check_shape(num_trees, num_classes)?;
    let mut trees = Vec::with_capacity(num_trees.min(MAX_PREALLOC));
    for t in 0..num_trees {
        let num_nodes = read_u64(&mut r).map_err(io_err)? as usize;
        if num_nodes == 0 || num_nodes > 1 << 32 {
            return Err(ForestError::Corrupt {
                detail: format!("tree {t}: implausible node count {num_nodes}"),
            });
        }
        let mut nodes = Vec::with_capacity(num_nodes.min(MAX_PREALLOC));
        for _ in 0..num_nodes {
            let mut tag = [0u8; 1];
            r.read_exact(&mut tag).map_err(io_err)?;
            match tag[0] {
                0 => nodes.push(Node::Leaf { label: read_u32(&mut r).map_err(io_err)? }),
                1 => {
                    let mut fb = [0u8; 2];
                    r.read_exact(&mut fb).map_err(io_err)?;
                    let feature = u16::from_le_bytes(fb);
                    let threshold = f32::from_bits(read_u32(&mut r).map_err(io_err)?);
                    let left = read_u32(&mut r).map_err(io_err)?;
                    let right = read_u32(&mut r).map_err(io_err)?;
                    nodes.push(Node::Inner { feature, threshold, left, right });
                }
                other => {
                    return Err(ForestError::Corrupt {
                        detail: format!("tree {t}: unknown node tag {other}"),
                    })
                }
            }
        }
        // Checked while its nodes are still in cache: structure,
        // features and labels in one pass, once.
        let tree = DecisionTree::from_nodes_unchecked(nodes);
        check_tree(t, &tree, num_features, num_classes)?;
        trees.push(tree);
    }
    Ok(RandomForest::from_checked(trees, num_features, num_classes))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_forest() -> RandomForest {
        let mut rng = StdRng::seed_from_u64(21);
        let trees: Vec<DecisionTree> =
            (0..6).map(|_| DecisionTree::random(&mut rng, 6, 12, 3, 0.3)).collect();
        RandomForest::from_trees(trees, 12, 3).unwrap()
    }

    #[test]
    fn binary_roundtrip() {
        let f = random_forest();
        let mut buf = Vec::new();
        write_forest(&f, &mut buf).unwrap();
        let back = read_forest(buf.as_slice()).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_forest(&b"NOPE...."[..]).unwrap_err();
        assert!(matches!(err, ForestError::Corrupt { .. }));
    }

    #[test]
    fn rejects_truncation() {
        let f = random_forest();
        let mut buf = Vec::new();
        write_forest(&f, &mut buf).unwrap();
        for cut in [4usize, 12, buf.len() / 2, buf.len() - 1] {
            assert!(read_forest(&buf[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    /// Peak virtual size of this process: a reservation shows here even
    /// if its pages are never touched.
    #[cfg(target_os = "linux")]
    fn vm_peak_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmPeak:")).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    #[test]
    fn implausible_counts_are_not_reserved_up_front() {
        // A 36-byte header: one tree, claiming the largest node count the
        // plausibility check lets through, and no node data at all.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&12u64.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 32).to_le_bytes());
        #[cfg(target_os = "linux")]
        let before = vm_peak_kib();
        assert!(matches!(read_forest(buf.as_slice()), Err(ForestError::Corrupt { .. })));
        // 2³² nodes would have been a 64 GiB reservation.
        #[cfg(target_os = "linux")]
        assert!(vm_peak_kib() - before < (1 << 20), "read_forest reserved by the claimed count");

        // Same for the tree count (2²⁴ trees, none present).
        buf.truncate(20);
        buf.extend_from_slice(&(1u64 << 24).to_le_bytes());
        assert!(matches!(read_forest(buf.as_slice()), Err(ForestError::Corrupt { .. })));
    }

    #[test]
    fn rejects_bad_version() {
        let f = random_forest();
        let mut buf = Vec::new();
        write_forest(&f, &mut buf).unwrap();
        buf[4] = 99;
        assert!(read_forest(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_corrupt_node_tag() {
        let f = random_forest();
        let mut buf = Vec::new();
        write_forest(&f, &mut buf).unwrap();
        // Header is 4+4+8+4+8 = 28 bytes, then tree node count (8), then
        // the first node tag.
        buf[36] = 7;
        assert!(read_forest(buf.as_slice()).is_err());
    }

    /// `write_forest` bytes of one stump over features `0..3`, classes
    /// `0..2`: the root reads feature 1 (its field at byte 37), and its
    /// left leaf's label sits at byte 52.
    fn stump_bytes() -> Vec<u8> {
        let root = Node::Inner { feature: 1, threshold: 0.5, left: 1, right: 2 };
        let nodes = vec![root, Node::Leaf { label: 0 }, Node::Leaf { label: 1 }];
        let tree = DecisionTree::from_nodes(nodes).unwrap();
        let mut buf = Vec::new();
        write_forest(&RandomForest::from_trees(vec![tree], 3, 2).unwrap(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn rejects_labels_and_features_out_of_range() {
        let buf = stump_bytes();
        assert!(read_forest(buf.as_slice()).is_ok());
        let mut label = buf.clone();
        label[52] = 2;
        assert_eq!(
            read_forest(label.as_slice()),
            Err(ForestError::LabelOutOfRange { label: 2, num_classes: 2 })
        );
        let mut feature = buf.clone();
        feature[37] = 3;
        match read_forest(feature.as_slice()) {
            Err(ForestError::Corrupt { detail }) => {
                assert!(detail.contains("feature 3"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let f = random_forest();
        let mut bin = Vec::new();
        write_forest(&f, &mut bin).unwrap();
        let json = serde_json::to_vec(&f).unwrap();
        assert!(bin.len() * 2 < json.len(), "binary {} vs json {}", bin.len(), json.len());
    }
}
