//! Layout explorer: a small CLI tool that shows how the hierarchical
//! layout's shape responds to its tuning parameters on a trained forest.
//!
//! ```sh
//! cargo run --release --example layout_explorer -- [tree_depth] [n_trees]
//! ```
//!
//! For each (SD, RSD) combination it reports subtree counts, padding
//! overhead, footprint relative to CSR, and the average number of
//! boundary crossings a query pays — the space/time tradeoff of §3.1.

use rfx::core::hier::builder::build_forest;
use rfx::core::validate::validate_hier;
use rfx::core::{CsrForest, HierConfig, TreeEnsemble};
use rfx::data::synthetic::mixture::{generate, MixtureConfig};
use rfx::forest::train::TrainConfig;
use rfx::forest::RandomForest;

fn main() {
    let mut args = std::env::args().skip(1);
    let depth: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let n_trees: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);

    let cfg = MixtureConfig { num_features: 16, cluster_std: 0.15, ..MixtureConfig::default() };
    let data = generate(&cfg, 30_000, 5);
    let tc = TrainConfig { n_trees, max_depth: depth, seed: 9, ..TrainConfig::default() };
    let forest = RandomForest::fit(&data, &tc).expect("training failed");
    let csr_bytes = CsrForest::build(&forest).footprint();
    println!(
        "forest: {} trees, max depth {}, {} nodes, CSR footprint {} B\n",
        forest.num_trees(),
        forest.max_depth(),
        forest.total_nodes(),
        csr_bytes.total()
    );

    let probes = generate(&cfg, 500, 6);
    println!(
        "{:>4} {:>4} | {:>9} {:>9} {:>7} {:>8} {:>10}",
        "SD", "RSD", "subtrees", "slots", "pad%", "vs CSR", "hops/query"
    );
    for sd in [2u8, 4, 6, 8, 10] {
        for rsd in [sd, sd + 2, sd + 4] {
            let layout = match build_forest(&forest, HierConfig::with_root(sd, rsd)) {
                Ok(l) => l,
                Err(e) => {
                    println!("{sd:>4} {rsd:>4} | rejected: {e}");
                    continue;
                }
            };
            validate_hier(&layout).expect("built layout must validate");
            let stats = layout.stats();
            // Average subtree-boundary crossings over probe queries.
            let mut hops = 0u64;
            for r in 0..probes.num_rows() {
                for t in 0..layout.num_trees() {
                    rfx::core::walk(layout.root(t), |cursor| {
                        let s = cursor.subtree();
                        let out = layout.step(cursor, probes.row(r));
                        hops += u64::from(cursor.subtree() != s);
                        out
                    });
                }
            }
            let per_query = hops as f64 / probes.num_rows() as f64;
            println!(
                "{sd:>4} {rsd:>4} | {:>9} {:>9} {:>6.1}% {:>7.2}x {:>10.1}",
                stats.num_subtrees,
                stats.total_slots,
                100.0 * stats.pad_slots as f64 / stats.total_slots as f64,
                layout.footprint().ratio_to(&csr_bytes),
                per_query,
            );
        }
    }
    println!("\nLarger SD/RSD: fewer boundary hops (time) for more padding (space).");
}
