//! The execution engine's one oracle check, shared by the proptests that
//! draw cases for it. A [`Case`] names a forest (its kind, shape and
//! seed), a query batch and a plan; [`Case::check`] builds every layout
//! row from that forest and holds each one to `predict_reference` — over
//! the source forest for the exact layouts, and over the **snapped**
//! forest (thresholds moved onto the quantized grid) for QFil u8 and u16,
//! whose only approximation is the snap itself — through the pinned
//! plan, the auto plan under the same vote policy, and the row-parallel
//! baseline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfx_core::hier::builder::build_forest;
use rfx_core::{BlockForest, FilForest, HierConfig, QFilForest};
use rfx_forest::dataset::QueryView;
use rfx_forest::{DecisionTree, RandomForest};
use rfx_kernels::cpu::predict_reference;
use rfx_kernels::{EnginePlan, Predictor, RowParallel, ShardedEngine, TreeEnsemble, VotePolicy};

const NF: usize = 7;

/// One drawn case. `forest_kind` is 0 for ordinary random trees
/// (trained-forest-like vote agreement, so early exit fires); 1 for
/// constant-leaf trees cycling the class ids, so every row's tally is as
/// flat as the tree count allows and the lower-class-id tie rule alone
/// decides (early exit must never fire); 2 for a tied half plus shallow
/// random trees, so leads hover around the remaining-tree exit threshold.
/// Plan fields may be oversized on purpose (they exercise the
/// normalization clamps); `threads == 0` means auto-detect.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub seed: u64,
    pub forest_kind: usize,
    pub n_trees: usize,
    pub depth: usize,
    pub classes: u32,
    pub n_queries: usize,
    pub shard_trees: usize,
    pub query_block: usize,
    pub threads: usize,
    pub policy: VotePolicy,
}

impl Case {
    /// Every layout row equals its oracle on this case.
    pub fn check(&self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let forest = self.forest(&mut rng);
        let queries: Vec<f32> = (0..self.n_queries * NF).map(|_| rng.gen()).collect();
        let qv = QueryView::new(&queries, NF).unwrap();
        let plan = EnginePlan::builder()
            .shard_trees(self.shard_trees)
            .query_block(self.query_block)
            .threads(self.threads)
            .vote_policy(self.policy)
            .build()
            .unwrap();

        let exact = predict_reference(&forest, qv);
        check_row("forest", &forest, plan, qv, &exact);
        check_row(
            "hier",
            &build_forest(&forest, HierConfig::uniform(3)).unwrap(),
            plan,
            qv,
            &exact,
        );
        check_row("fil", &FilForest::build(&forest), plan, qv, &exact);
        check_row("blocks", &BlockForest::build(&forest).unwrap(), plan, qv, &exact);
        // One snapped oracle per grid width (u8 and u16 fit different
        // grids).
        let qfil8 = QFilForest::<u8>::build(&forest).unwrap();
        let snapped = predict_reference(&qfil8.quantizer().snap_forest(&forest), qv);
        check_row("qfil-u8", &qfil8, plan, qv, &snapped);
        let qfil16 = QFilForest::<u16>::build(&forest).unwrap();
        let snapped = predict_reference(&qfil16.quantizer().snap_forest(&forest), qv);
        check_row("qfil-u16", &qfil16, plan, qv, &snapped);
    }

    fn forest(&self, rng: &mut StdRng) -> RandomForest {
        let (n_trees, classes) = (self.n_trees, self.classes);
        let tied = [0, n_trees, n_trees.div_ceil(2)][self.forest_kind];
        let depth = if tied == 0 { self.depth } else { 3 };
        let trees = (0..n_trees)
            .map(|t| match t < tied {
                true => DecisionTree::leaf(t as u32 % classes),
                false => DecisionTree::random(rng, depth, NF as u16, classes, 0.3),
            })
            .collect();
        RandomForest::from_trees(trees, NF, classes).unwrap()
    }
}

/// One layout row against its oracle: the pinned plan, the auto plan
/// under the same vote policy, and the row-parallel baseline.
fn check_row<E: TreeEnsemble>(
    name: &str,
    layout: &E,
    plan: EnginePlan,
    qv: QueryView<'_>,
    oracle: &[u32],
) {
    let policy = plan.vote_policy();
    assert_eq!(ShardedEngine::with_plan(layout, plan).predict(qv), oracle, "{name} {plan:?}");
    assert_eq!(
        ShardedEngine::with_policy(layout, policy).predict(qv),
        oracle,
        "{name} auto {policy}"
    );
    assert_eq!(RowParallel::new(layout).predict(qv), oracle, "{name} row-parallel");
}
