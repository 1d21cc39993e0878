//! Fetch-level observation of layout traversals.
//!
//! The layouts in this crate are *address-exact* models of how a forest
//! sits in memory — that is the whole point of FIL vs CSR vs quantized
//! packing. [`FetchSink`] exposes that address stream: a layout's one
//! decode function, `step_with`, reports every simulated memory fetch
//! (byte offset and width within the layout's arrays) to the sink it is
//! handed, and `step` is the same function over a [`NoopSink`], which
//! monomorphises away. The CPU engine's software memory tracer
//! (`rfx-kernels`, `mem-tracer` feature) drives a cache-line model over
//! this stream to give the sharded engine the same `*.perf.*` counter
//! schema the GPU/FPGA simulators export.
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
    use crate::fil::FilCursor;
    use crate::hier::builder::build_forest;
    use crate::pack::{FrequencyProfile, PackPlan, PackedFilForest, PackedQFilForest};
    use crate::{goes_right, CsrForest, FilForest, HierConfig, Label, QFilForest};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfx_forest::dataset::QueryView;
    use rfx_forest::{DecisionTree, Node, RandomForest};

    /// One fetch: region (0 attribute, 1 topology, 2 query — the feature
    /// for its offset), offset, bytes.
    type Fetch = (u8, u64, u32);

    #[derive(Default)]
    struct Recorder(Vec<Fetch>);

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

    /// Walks every (tree, query) pair of a layout in lockstep with the
    /// `oracle` forest's tree `source(t)`: the same label after the same
    /// number of steps (NaN rows included), and at every step the fetches
    /// `expected(cursor before the step, Some((feature, went right)) at an
    /// inner node)` names — the same stream through a concrete sink and
    /// through `&mut dyn FetchSink`, and the same totals in a
    /// [`CountingSink`].
    fn check<C: Copy>(
        name: &str,
        (root, concrete, erased): (
            impl Fn(usize) -> C,
            impl Fn(&mut C, &[f32], &mut Recorder) -> Option<Label>,
            impl Fn(&mut C, &[f32], &mut dyn FetchSink) -> Option<Label>,
        ),
        oracle: &RandomForest,
        source: impl Fn(usize) -> usize,
        queries: &[f32],
        expected: impl Fn(C, Option<(u32, bool)>) -> Vec<Fetch>,
    ) {
        for q in queries.chunks(oracle.num_features()) {
            for t in 0..oracle.num_trees() {
                let nodes = oracle.trees()[source(t)].nodes();
                let (mut id, mut cursor) = (0usize, root(t));
                loop {
                    let (before, mut twin, mut third) = (cursor, cursor, cursor);
                    let (mut seen, mut through_dyn) = (Recorder::default(), Recorder::default());
                    let mut counted = CountingSink::default();
                    let out = concrete(&mut cursor, q, &mut seen);
                    assert_eq!(erased(&mut twin, q, &mut through_dyn), out, "{name}");
                    assert_eq!(erased(&mut third, q, &mut counted), out, "{name}");
                    assert_eq!(seen.0, through_dyn.0, "{name}: concrete and dyn sinks differ");
                    let inner = match nodes[id] {
                        Node::Leaf { label } => {
                            assert_eq!(out, Some(label), "{name}: tree {t}");
                            None
                        }
                        Node::Inner { feature, threshold, left, right } => {
                            assert_eq!(out, None, "{name}: a leaf too early in tree {t}");
                            let went_right = goes_right(q[feature as usize], threshold);
                            id = if went_right { right } else { left } as usize;
                            Some((u32::from(feature), went_right))
                        }
                    };
                    assert_eq!(seen.0, expected(before, inner), "{name}: tree {t}");
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
    /// scattered reads per inner level, FIL's one colocated record, QFil's
    /// meta word plus (inner nodes only) its level, for the packed
    /// placements the same patterns at `slot × node bytes` in the *packed*
    /// order — and nothing from the hierarchical layout, which has no
    /// address-exact model and is held to the source tree only (a subtree
    /// hop is part of the step that crosses the boundary).
    #[test]
    fn every_layout_reports_its_fetch_pattern() {
        let mut rng = StdRng::seed_from_u64(29);
        let trees: Vec<DecisionTree> =
            (0..7).map(|_| DecisionTree::random(&mut rng, 8, 7, 3, 0.3)).collect();
        let forest = RandomForest::from_trees(trees, 7, 3).unwrap();
        let mut queries: Vec<f32> = (0..120 * 7).map(|_| rng.gen::<f32>() * 1.5 - 0.25).collect();
        queries.iter_mut().step_by(11).for_each(|v| *v = f32::NAN);
        let profile = FrequencyProfile::collect(&forest, QueryView::new(&queries, 7).unwrap());
        let plan = PackPlan::new(2, 4 << 10).unwrap();
        let n = forest.total_nodes() as u64;

        for cfg in [HierConfig::uniform(1), HierConfig::uniform(3), HierConfig::with_root(2, 5)] {
            let hier = build_forest(&forest, cfg).unwrap();
            let probes = (
                |t| hier.root(t),
                |c: &mut _, q: &[f32], _: &mut Recorder| hier.step(c, q),
                |c: &mut _, q: &[f32], _: &mut dyn FetchSink| hier.step(c, q),
            );
            check(&format!("hier {cfg:?}"), probes, &forest, |t| t, &queries, |_, _| vec![]);
        }

        let csr = CsrForest::build(&forest);
        check(
            "csr",
            probes!(csr),
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
        check("fil", probes!(fil), &forest, |t| t, &queries, record);
        let packed = PackedFilForest::build(&forest, &profile, plan).unwrap();
        assert!(packed.num_shards() > 1, "shard-local child indices are exercised");
        assert_ne!(packed.nodes(), fil.nodes(), "the packed order is another order");
        check("packed-fil", probes!(packed), &forest, |t| packed.tree_source(t), &queries, record);

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
        check("qfil-u8", probes!(q8), &snapped8, |t| t, &queries, meta_then_level(1, n));
        let q16 = QFilForest::<u16>::build(&forest).unwrap();
        let snapped16 = q16.quantizer().snap_forest(&forest);
        check("qfil-u16", probes!(q16), &snapped16, |t| t, &queries, meta_then_level(2, n));
        let packed8 = PackedQFilForest::<u8>::build(&forest, &profile, plan).unwrap();
        assert_eq!(packed8.quantizer(), q8.quantizer(), "one grid whatever the placement");
        let source = |t| packed8.tree_source(t);
        check(
            "packed-qfil-u8",
            probes!(packed8),
            &snapped8,
            source,
            &queries,
            meta_then_level(1, n),
        );
    }
}
