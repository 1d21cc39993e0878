//! Fetch-level observation of layout traversals.
//!
//! The layouts in this crate are *address-exact* models of how a forest
//! sits in memory — that is the whole point of FIL vs CSR vs quantized
//! packing. [`FetchSink`] exposes that address stream: a layout's one
//! decode function, `step_with`, reports every simulated memory fetch
//! (byte offset and width within the layout's arrays) to the sink it is
//! handed, and `step` is the same function over a [`NoopSink`], which
//! monomorphises away. Every layout walked by a kernel reports its
//! stream — CSR, the FIL family, the one-line blocks and the paper's
//! hierarchical layout. Two consumers read it:
//!
//! * the CPU engine's software memory tracer (`rfx_kernels::memtrace`,
//!   on when `RFX_MEMTRACE_SAMPLE` is set) drives a cache-line model
//!   over it, to give the sharded engine the same `*.perf.*` counter
//!   schema the GPU/FPGA simulators export;
//! * the GPU simulator's kernels step each lane into a per-lane
//!   recorder and issue the warp's loads from its offsets, and take
//!   each comparison's direction from [`FetchSink::branch`] for branch
//!   divergence — so a kernel models only where a node sits and what a
//!   read costs, never how the layout is decoded.
//!
//! Offsets are region-local: attribute fetches index one contiguous
//! byte space holding the layout's node-attribute arrays (laid out
//! back-to-back in declaration order), topology fetches another for the
//! child-indirection arrays, and query fetches name the feature index
//! read from the caller's row. Consumers place the regions at disjoint
//! bases of a modeled address space.

/// Observer of the simulated memory fetches one tree traversal performs.
///
/// Implementations must be cheap: a sink sits inside the engine's
/// per-tile loops.
pub trait FetchSink {
    /// A fetch of `bytes` at byte `offset` within the layout's node
    /// *attribute* arrays (features, thresholds, packed node records).
    fn attribute(&mut self, offset: u64, bytes: u32);

    /// A fetch of `bytes` at byte `offset` within the layout's
    /// *topology* arrays (child-indirection tables). Layouts that embed
    /// topology in the node record (FIL) never call this.
    fn topology(&mut self, offset: u64, bytes: u32);

    /// A read of query feature `feature` from the row being classified.
    fn query(&mut self, feature: u32);

    /// The direction a comparison sent the walk (`true`: right) — what a
    /// SIMT model needs for branch divergence (the paper's Fig. 8).
    /// Reported by the hierarchical, CSR and flat FIL steps.
    #[inline]
    fn branch(&mut self, _right: bool) {}
}

/// Discards every fetch: `step` is `step_with` over one of these.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl FetchSink for NoopSink {
    #[inline]
    fn attribute(&mut self, _offset: u64, _bytes: u32) {}
    #[inline]
    fn topology(&mut self, _offset: u64, _bytes: u32) {}
    #[inline]
    fn query(&mut self, _feature: u32) {}
}

/// Tallies fetches and bytes per region — enough for exactness tests
/// and quick footprint probes without a cache model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Attribute fetches observed.
    pub attribute_fetches: u64,
    /// Attribute bytes observed.
    pub attribute_bytes: u64,
    /// Topology fetches observed.
    pub topology_fetches: u64,
    /// Topology bytes observed.
    pub topology_bytes: u64,
    /// Query-feature reads observed.
    pub query_fetches: u64,
}

impl FetchSink for CountingSink {
    #[inline]
    fn attribute(&mut self, _offset: u64, bytes: u32) {
        self.attribute_fetches += 1;
        self.attribute_bytes += bytes as u64;
    }
    #[inline]
    fn topology(&mut self, _offset: u64, bytes: u32) {
        self.topology_fetches += 1;
        self.topology_bytes += bytes as u64;
    }
    #[inline]
    fn query(&mut self, _feature: u32) {
        self.query_fetches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fil::{FilCursor, NodeFormat};
    use crate::hier::builder::build_forest;
    use crate::hier::HierCursor;
    use crate::pack::{FrequencyProfile, PackPlan, PackedFilForest, PackedQFilForest, IN_TOP};
    use crate::{goes_right, CsrForest, FilForest, HierConfig, Label, QFilForest, TreeEnsemble};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_forest::dataset::QueryView;
    use rfx_forest::{DecisionTree, Node, RandomForest};

    /// One fetch: region (0 attribute, 1 topology, 2 query — the feature
    /// for its offset), offset, bytes.
    type Fetch = (u8, u64, u32);

    /// The fetches of one step, and the directions it reported.
    #[derive(Default)]
    struct Recorder(Vec<Fetch>, Vec<bool>);

    impl FetchSink for Recorder {
        fn attribute(&mut self, offset: u64, bytes: u32) {
            self.0.push((0, offset, bytes));
        }
        fn topology(&mut self, offset: u64, bytes: u32) {
            self.0.push((1, offset, bytes));
        }
        fn query(&mut self, feature: u32) {
            self.0.push((2, u64::from(feature), 4));
        }
        fn branch(&mut self, right: bool) {
            self.1.push(right);
        }
    }

    /// A layout's `root` and its `step_with` under a concrete sink and
    /// under `&mut dyn FetchSink` — a closure cannot stay generic.
    macro_rules! probes {
        ($layout:expr) => {
            (
                |t| $layout.root(t),
                |c: &mut _, q: &[f32], s: &mut Recorder| $layout.step_with(c, q, s),
                |c: &mut _, q: &[f32], s: &mut dyn FetchSink| $layout.step_with(c, q, s),
            )
        };
    }

    /// A layout without a complete top (see [`check`]).
    const FLAT: (u32, fn(&[f32]) -> bool) = (0, |_| false);

    /// Walks every (tree, query) pair of a layout in lockstep with the
    /// `oracle` forest's tree `source(t)`: the same label after the same
    /// number of steps (NaN rows included) — except that a layout with a
    /// complete top of `levels` levels answers every leaf at or above its
    /// bottom after exactly `levels` steps, a propagated leaf's comparison
    /// being a dummy on feature 0 that sends a query the way
    /// `dummy_right` says — and at every step the fetches
    /// `expected(cursor before the step, Some((feature, went right)) at a
    /// comparison)` names — the same stream through a concrete sink and
    /// through `&mut dyn FetchSink`, and the same totals in a
    /// [`CountingSink`].
    fn check<C: Copy>(
        name: &str,
        (root, concrete, erased): (
            impl Fn(usize) -> C,
            impl Fn(&mut C, &[f32], &mut Recorder) -> Option<Label>,
            impl Fn(&mut C, &[f32], &mut dyn FetchSink) -> Option<Label>,
        ),
        (levels, dummy_right): (u32, impl Fn(&[f32]) -> bool),
        oracle: &RandomForest,
        source: impl Fn(usize) -> usize,
        queries: &[f32],
        expected: impl Fn(C, Option<(u32, bool)>) -> Vec<Fetch>,
    ) {
        for q in queries.chunks(oracle.num_features()) {
            for t in 0..oracle.num_trees() {
                let nodes = oracle.trees()[source(t)].nodes();
                let (mut id, mut cursor, mut steps) = (0usize, root(t), 0);
                loop {
                    let (before, mut twin, mut third) = (cursor, cursor, cursor);
                    let (mut seen, mut through_dyn) = (Recorder::default(), Recorder::default());
                    let mut counted = CountingSink::default();
                    let out = concrete(&mut cursor, q, &mut seen);
                    steps += 1;
                    assert_eq!(erased(&mut twin, q, &mut through_dyn), out, "{name}");
                    assert_eq!(erased(&mut third, q, &mut counted), out, "{name}");
                    assert_eq!(seen.0, through_dyn.0, "{name}: concrete and dyn sinks differ");
                    let inner = match nodes[id] {
                        Node::Leaf { .. } if steps <= levels => Some((0, dummy_right(q))),
                        Node::Leaf { label } => {
                            assert_eq!(out, Some(label), "{name}: tree {t}");
                            None
                        }
                        Node::Inner { feature, threshold, left, right } => {
                            let went_right = goes_right(q[feature as usize], threshold);
                            id = if went_right { right } else { left } as usize;
                            Some((u32::from(feature), went_right))
                        }
                    };
                    if steps == levels {
                        let leaf = match nodes[id] {
                            Node::Leaf { label } => Some(label),
                            Node::Inner { .. } => None,
                        };
                        assert_eq!(out, leaf, "{name}: tree {t} after exactly {levels} steps");
                    } else if inner.is_some() {
                        assert_eq!(out, None, "{name}: a leaf too early in tree {t}");
                    }
                    assert_eq!(seen.0, expected(before, inner), "{name}: tree {t}");
                    if let [right] = seen.1[..] {
                        assert_eq!(inner.map(|i| i.1), Some(right), "{name}: direction reported");
                    } else {
                        assert!(seen.1.is_empty(), "{name}: one direction per step at most");
                    }
                    let sum = |region: u8| -> (u64, u64) {
                        let of = seen.0.iter().filter(|f| f.0 == region);
                        (of.clone().count() as u64, of.map(|f| u64::from(f.2)).sum())
                    };
                    assert_eq!((counted.attribute_fetches, counted.attribute_bytes), sum(0));
                    assert_eq!((counted.topology_fetches, counted.topology_bytes), sum(1));
                    assert_eq!(counted.query_fetches, sum(2).0);
                    if out.is_some() {
                        break;
                    }
                }
            }
        }
    }

    /// The fetch pattern of every layout, in one table: CSR's four
    /// scattered reads per inner level, the hierarchical layout's two
    /// attribute reads per level plus three topology reads per subtree
    /// hop (the hop is part of the step that crosses the boundary),
    /// FIL's one colocated record, QFil's meta word plus (inner nodes
    /// only) its level, and for the packed placements one top slot per
    /// level at the top's address — the last level's bottom slot behind
    /// it — then the same patterns at `slot × node bytes` in the *packed*
    /// stream.
    #[test]
    fn every_layout_reports_its_fetch_pattern() {
        let mut rng = StdRng::seed_from_u64(29);
        // Dense enough at the top for a top of three levels; the last tree's
        // depth-1 leaves sit above its bottom, so its walks cross dummies.
        let mut trees: Vec<DecisionTree> =
            (0..7).map(|_| DecisionTree::random(&mut rng, 8, 7, 3, 0.05)).collect();
        trees.push(DecisionTree::random(&mut rng, 1, 7, 3, 0.0));
        let forest = RandomForest::from_trees(trees, 7, 3).unwrap();
        let mut queries: Vec<f32> = (0..120 * 7).map(|_| rng.gen::<f32>() * 1.5 - 0.25).collect();
        queries.iter_mut().step_by(11).for_each(|v| *v = f32::NAN);
        let profile = FrequencyProfile::collect(&forest, QueryView::new(&queries, 7).unwrap());
        let plan = PackPlan::new(4 << 10).unwrap();
        let n = forest.total_nodes() as u64;

        for cfg in [HierConfig::uniform(1), HierConfig::uniform(3), HierConfig::with_root(2, 5)] {
            let hier = build_forest(&forest, cfg).unwrap();
            let slots = hier.total_slots() as u64;
            let offsets = hier.subtree_node_offset().len() as u64 * 4;
            let hops = std::cell::Cell::new(0);
            check(
                &format!("hier {cfg:?}"),
                probes!(hier),
                FLAT,
                &forest,
                |t| t,
                &queries,
                |at: HierCursor, inner| {
                    let g = u64::from(at.base + at.slot);
                    let mut fetches = vec![(0, g * 2, 2), (0, slots * 2 + g * 4, 4)];
                    if let Some((feature, right)) = inner {
                        fetches.push((2, u64::from(feature), 4));
                        if 2 * at.slot + 1 + u32::from(right) >= at.size {
                            let p = at.slot - at.size / 2;
                            let ci = hier.connection_base(at.subtree) + 2 * p + u32::from(right);
                            let next = hier.subtree_connection()[ci as usize];
                            hops.set(hops.get() + 1);
                            fetches.extend([
                                (1, offsets + u64::from(at.subtree) * 4, 4),
                                (1, 2 * offsets + u64::from(ci) * 4, 4),
                                (1, u64::from(next) * 4, 4),
                            ]);
                        }
                    }
                    fetches
                },
            );
            assert!(hops.get() > 0, "hier {cfg:?}: walks cross subtree boundaries");
        }

        let csr = CsrForest::build(&forest);
        check(
            "csr",
            probes!(csr),
            FLAT,
            &forest,
            |t| t,
            &queries,
            |at: crate::csr::CsrCursor, inner| {
                let g = u64::from(at.node_base + at.node);
                let mut fetches = vec![(0, g * 2, 2), (0, n * 2 + g * 4, 4)];
                if let Some((feature, right)) = inner {
                    let pair = at.child_base + csr.children_arr_idx()[g as usize];
                    let slot = u64::from(pair + u32::from(right));
                    fetches.extend([
                        (1, g * 4, 4),
                        (2, u64::from(feature), 4),
                        (1, n * 4 + slot * 4, 4),
                    ]);
                }
                fetches
            },
        );

        // One colocated 12 B record per visit, at its slot.
        let record = |at: FilCursor, inner: Option<(u32, bool)>| {
            let mut fetches = vec![(0, u64::from(at.at) * 12, 12)];
            fetches.extend(inner.map(|(feature, _)| (2, u64::from(feature), 4)));
            fetches
        };
        let fil = FilForest::build(&forest);
        check("fil", probes!(fil), FLAT, &forest, |t| t, &queries, record);

        // A walk on level `l` of the top (its cursor's base) at position
        // `j` reads slot `width·(2^l − 1) + j` behind the `stream` bytes of
        // nodes and the feature the slot names; the last level also reads
        // the bottom slot its child position names, behind every inner
        // slot. Below the top, the stream's own pattern.
        fn topped<'a>(
            (levels, width, slot_bytes, stream): (u32, u64, u64, u64),
            below: impl Fn(FilCursor, Option<(u32, bool)>) -> Vec<Fetch> + 'a,
        ) -> impl Fn(FilCursor, Option<(u32, bool)>) -> Vec<Fetch> + 'a {
            move |at, inner| {
                if at.at & IN_TOP == 0 {
                    return below(at, inner);
                }
                let (feature, right) = inner.expect("every top level compares");
                let (level, j) = (at.base, u64::from(at.at & !IN_TOP));
                let slot = width * ((1 << level) - 1) + j;
                let mut fetches = vec![(0, stream + slot * slot_bytes, slot_bytes as u32)];
                fetches.push((2, u64::from(feature), 4));
                if level + 1 == levels {
                    let bottoms = stream + width * ((1 << levels) - 1) * slot_bytes;
                    fetches.push((0, bottoms + (2 * j + u64::from(right)) * 4, 4));
                }
                fetches
            }
        }
        let packed = PackedFilForest::build(&forest, &profile, plan).unwrap();
        let levels = packed.top_levels();
        assert_eq!(levels, 3, "the fixture takes a top of three levels");
        assert!(packed.num_shards() > 1, "shard-local child indices are exercised");
        assert!(!packed.nodes().is_empty(), "walks leave the top");
        let stream = packed.nodes().len() as u64 * 12;
        let width = forest.num_trees().next_power_of_two() as u64;
        check(
            "packed-fil",
            probes!(packed),
            (levels, |_| true),
            &forest,
            |t| packed.tree_source(t),
            &queries,
            topped((levels, width, 8, stream), record),
        );

        // A 4 B meta word per visit; inner nodes add their level, from the
        // array laid out behind the meta words.
        fn meta_then_level(
            level_bytes: u32,
            n: u64,
        ) -> impl Fn(FilCursor, Option<(u32, bool)>) -> Vec<Fetch> {
            move |at, inner| {
                let slot = u64::from(at.at);
                let mut fetches = vec![(0, slot * 4, 4)];
                if let Some((feature, _)) = inner {
                    let level = n * 4 + slot * u64::from(level_bytes);
                    fetches.extend([(0, level, level_bytes), (2, u64::from(feature), 4)]);
                }
                fetches
            }
        }
        let q8 = QFilForest::<u8>::build(&forest).unwrap();
        let snapped8 = q8.quantizer().snap_forest(&forest);
        let meta8 = meta_then_level(1, n);
        check("qfil-u8", probes!(q8), FLAT, &snapped8, |t| t, &queries, meta8);
        let q16 = QFilForest::<u16>::build(&forest).unwrap();
        let snapped16 = q16.quantizer().snap_forest(&forest);
        let meta16 = meta_then_level(2, n);
        check("qfil-u16", probes!(q16), FLAT, &snapped16, |t| t, &queries, meta16);
        let packed8 = PackedQFilForest::<u8>::build(&forest, &profile, plan).unwrap();
        assert_eq!(packed8.quantizer(), q8.quantizer(), "one grid whatever the placement");
        assert_eq!(packed8.top_levels(), levels, "one top depth whatever the format");
        // A dummy's threshold is the grid's level 0 of feature 0.
        let dummy = packed8.quantizer().dequantize(0, 0);
        let stream = packed8.nodes.num_nodes() as u64;
        check(
            "packed-qfil-u8",
            probes!(packed8),
            (levels, |q: &[f32]| goes_right(q[0], dummy)),
            &snapped8,
            |t| packed8.tree_source(t),
            &queries,
            topped((levels, width, 4, stream * 5), meta_then_level(1, stream)),
        );
    }
}
