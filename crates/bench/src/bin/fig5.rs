//! Fig. 5 — accuracy of forests with varying maximum tree depth and
//! number of trees, on all three datasets.
//!
//! The paper trains one forest per (depth, trees) cell; since the vote of
//! the first `n` trees of a 150-tree forest is distributed identically to
//! an `n`-tree forest, we train one 150-tree forest per depth and score
//! vote prefixes at the paper's tree-count checkpoints — 70 cells per
//! dataset for the price of 10 forests.

#![forbid(unsafe_code)]

use rayon::prelude::*;
use rfx_bench::harness::{write_json, Table};
use rfx_bench::scale::Scale;
use rfx_bench::workloads::trained_forest;
use rfx_data::specs::paper_datasets;
use rfx_forest::RandomForest;

const DEPTHS: [usize; 10] = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50];
const TREE_COUNTS: [usize; 7] = [10, 25, 50, 75, 100, 125, 150];

/// Accuracy at each tree-count checkpoint via prefix majority votes.
fn prefix_accuracies(forest: &RandomForest, test: &rfx_forest::Dataset) -> Vec<f64> {
    let n = test.num_rows();
    let nc = forest.num_classes() as usize;
    // Per-row running votes, updated tree by tree.
    let per_row: Vec<Vec<u32>> = (0..n)
        .into_par_iter()
        .map(|r| {
            let row = test.row(r);
            forest.trees().iter().map(|t| t.predict(row)).collect()
        })
        .collect();
    let mut votes = vec![0u32; n * nc];
    let mut out = Vec::with_capacity(TREE_COUNTS.len());
    let mut checkpoint = 0usize;
    for t in 0..forest.num_trees() {
        for r in 0..n {
            votes[r * nc + per_row[r][t] as usize] += 1;
        }
        if checkpoint < TREE_COUNTS.len() && t + 1 == TREE_COUNTS[checkpoint] {
            let correct = (0..n)
                .filter(|&r| rfx_core::majority(&votes[r * nc..(r + 1) * nc]) == test.label(r))
                .count();
            out.push(correct as f64 / n as f64);
            checkpoint += 1;
        }
    }
    out
}

fn main() {
    let scale = Scale::from_args();
    let mut all = Vec::new();
    for kind in paper_datasets() {
        let mut table = Table::new(
            &format!("Fig 5: accuracy heat-map, {}", kind.name()),
            &["depth", "10", "25", "50", "75", "100", "125", "150"],
        );
        for depth in DEPTHS {
            let (forest, test) = trained_forest(kind, depth, *TREE_COUNTS.last().unwrap(), scale);
            let test = test.head(scale.accuracy_rows(test.num_rows()));
            let accs = prefix_accuracies(&forest, &test);
            let mut cells = vec![format!("{depth}")];
            cells.extend(accs.iter().map(|a| format!("{:.1}%", 100.0 * a)));
            table.row(cells);
            all.push((kind.name(), depth, accs));
        }
        table.print();
        println!();
    }
    write_json("fig5", scale.label(), &all);
}
