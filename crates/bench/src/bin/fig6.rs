//! Fig. 6 — memory footprint of the hierarchical representation relative
//! to CSR, as a function of forest tree depth, for maximum subtree depths
//! 4, 6 and 8.

#![forbid(unsafe_code)]

use rfx_bench::harness::{write_json, Table};
use rfx_bench::scale::Scale;
use rfx_bench::workloads::trained_forest;
use rfx_core::hier::builder::build_forest;
use rfx_core::{CsrForest, HierConfig, TreeEnsemble};
use rfx_data::specs::paper_datasets;

const DEPTHS: [usize; 5] = [10, 20, 30, 40, 50];
const SDS: [u8; 3] = [4, 6, 8];

fn main() {
    let scale = Scale::from_args();
    let mut all = Vec::new();
    for kind in paper_datasets() {
        let mut table = Table::new(
            &format!("Fig 6: hierarchical/CSR memory ratio, {}", kind.name()),
            &["tree depth", "SD=4", "SD=6", "SD=8", "CSR bytes"],
        );
        for depth in DEPTHS {
            let (forest, _) = trained_forest(kind, depth, scale.timing_trees(), scale);
            let csr = CsrForest::build(&forest).footprint();
            let mut cells = vec![format!("{depth}")];
            let mut ratios = Vec::new();
            for sd in SDS {
                let hier =
                    build_forest(&forest, HierConfig::uniform(sd)).expect("layout build failed");
                let ratio = hier.footprint().ratio_to(&csr);
                cells.push(format!("{ratio:.2}"));
                ratios.push(ratio);
            }
            cells.push(format!("{}", csr.total()));
            table.row(cells);
            all.push((kind.name(), depth, ratios, csr.total()));
        }
        table.print();
        println!();
    }
    write_json("fig6", scale.label(), &all);
}
