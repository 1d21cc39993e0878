//! Table 1 — machine-learning dataset characteristics.
//!
//! Prints the paper's table plus summary statistics of the generated
//! stand-in data at the selected scale.

#![forbid(unsafe_code)]

use rfx_bench::harness::{write_json, Table};
use rfx_bench::scale::Scale;
use rfx_data::specs::{paper_datasets, DatasetSpec};
use rfx_data::stats::summarize;

fn main() {
    let scale = Scale::from_args();
    let mut table = Table::new(
        "Table 1: Machine Learning Datasets",
        &["Dataset", "Num Samples", "Num Features", "Source", "generated", "class balance"],
    );
    let mut results = Vec::new();
    for kind in paper_datasets() {
        let n = scale.accuracy_rows(kind.paper_samples());
        let ds = DatasetSpec::scaled(kind, n).generate();
        let summary = summarize(&ds);
        let balance = summary.class_counts[1] as f64 / summary.num_samples as f64;
        table.row(vec![
            kind.name().to_string(),
            format!("{}", kind.paper_samples()),
            format!("{}", kind.paper_features()),
            kind.source().to_string(),
            format!("{}", summary.num_samples),
            format!("{balance:.3}"),
        ]);
        results.push((kind.name(), summary));
    }
    table.print();
    write_json("table1", scale.label(), &results);
}
