//! Online scoring: the serving deployment scenario.
//!
//! Offline examples score a fixed test set in one call; production fraud
//! or ad systems instead see a *stream* of single queries from many
//! concurrent clients. This example stands up the `rfx-serve` pipeline —
//! bounded queue, scheduler, and the default executor pool (one
//! `cpu-sharded` slot whose worker pulls its own batches) — submits a few
//! hand-rolled queries, then applies closed-loop load and prints the
//! service's own telemetry: batch occupancy, latency percentiles, and
//! the slot's share, cost estimate and stand-in batches.
//!
//! ```sh
//! cargo run --release --example online_scoring
//! ```

use rfx::data::synthetic::planted::{generate, PlantedConfig};
use rfx::data::train_test_split;
use rfx::forest::train::TrainConfig;
use rfx::forest::RandomForest;
use rfx::serve::{run_closed_loop, LoadGenConfig, RfxServe, ServeConfig, ServeModel};

fn main() {
    // Train a transaction-scoring forest, as in the fraud example.
    let cfg = PlantedConfig {
        num_features: 24,
        plant_depth: 12,
        drift: 1.4,
        sharpness: 1.2,
        decay: 0.88,
        plant_seed: 0xF4A0D,
    };
    let data = generate(&cfg, 30_000, 9);
    let (train, test) = train_test_split(&data, 0.5, 3);
    let tc = TrainConfig { n_trees: 40, max_depth: 14, seed: 2, ..TrainConfig::default() };
    let forest = RandomForest::fit(&train, &tc).expect("training failed");

    // Stand the service up: the block store is built once, and the
    // executor pool spins one worker per backend.
    let model = ServeModel::prepare(forest).expect("the block store holds the forest");
    let serve =
        RfxServe::start(model, ServeConfig { max_batch_size: 128, ..ServeConfig::default() });

    // A few interactive queries: submit returns a ticket immediately;
    // wait_one blocks until the batch containing the query executes.
    println!("-- interactive queries --");
    for row in (0..3).map(|i| test.row(i * 7)) {
        let ticket = serve.submit(row).expect("admitted");
        println!("scored -> class {}", ticket.wait_one().expect("prediction"));
    }

    // Sustained concurrent load from deterministic closed-loop clients.
    let report = run_closed_loop(
        &serve,
        &LoadGenConfig {
            clients: 12,
            requests_per_client: 300,
            rows_per_request: 1,
            seed: 7,
            ..LoadGenConfig::default()
        },
    );
    let stats = serve.shutdown();

    println!("\n-- load: {} requests from 12 closed-loop clients --", report.requests);
    println!(
        "throughput {:.0} qps | latency p50/p95/p99 = {}/{}/{} us | occupancy {:.1} rows/batch",
        stats.throughput_qps,
        stats.request_latency.p50_us,
        stats.request_latency.p95_us,
        stats.request_latency.p99_us,
        stats.mean_batch_occupancy,
    );
    for b in &stats.backends {
        println!(
            "  {:>22}: {:>6} queries ({:>4.1}%)  ewma {:.1} us/query  fallbacks {}",
            b.backend,
            b.queries,
            b.share_of_queries * 100.0,
            b.ewma_us_per_query,
            b.device_fallbacks,
        );
    }
}
