//! Deterministic closed-loop load generator.
//!
//! `clients` threads each run a closed loop: draw a request from a
//! per-client seeded RNG, submit it, block on the ticket, fold the labels
//! into a running checksum, repeat. Closed-loop clients self-throttle to
//! the service's capacity, which makes the generator a stable fixture for
//! tests and benches; the per-client seeds make the *query stream* (and
//! therefore the label checksum) reproducible run-to-run even though
//! batching and backend assignment are timing-dependent.

use crate::error::ServeError;
use crate::service::RfxServe;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Load-generation knobs.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Rows per request (1 = single queries, >1 = micro-batches).
    pub rows_per_request: usize,
    /// Base seed; client `i` uses an independent stream derived from it.
    pub seed: u64,
    /// Back-off before retrying a load-shed request.
    pub retry_backoff: Duration,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            clients: 8,
            requests_per_client: 200,
            rows_per_request: 1,
            seed: 42,
            retry_backoff: Duration::from_micros(200),
        }
    }
}

/// Aggregated outcome of one load run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Requests attempted (per-client loops completed or abandoned).
    pub requests: u64,
    /// Requests that completed with predictions.
    pub completed: u64,
    /// `Overloaded` rejections absorbed by retry.
    pub rejections: u64,
    /// Requests abandoned (service shut down mid-run).
    pub abandoned: u64,
    /// Query rows predicted.
    pub rows: u64,
    /// Wall-clock time of the whole run in milliseconds.
    pub wall_ms: u64,
    /// Completed rows per second.
    pub offered_qps: f64,
    /// FNV fold of each client's label stream, XOR-combined across
    /// clients; equal seeds must reproduce equal checksums regardless of
    /// how batching or backend assignment interleaved.
    pub labels_checksum: u64,
}

#[derive(Default)]
struct ClientTally {
    requests: u64,
    completed: u64,
    rejections: u64,
    abandoned: u64,
    rows: u64,
    checksum: u64,
}

/// Runs the closed-loop workload against a live service and aggregates
/// per-client tallies.
pub fn run_closed_loop(serve: &RfxServe, cfg: &LoadGenConfig) -> LoadReport {
    assert!(cfg.clients > 0 && cfg.requests_per_client > 0 && cfg.rows_per_request > 0);
    let nf = serve.num_features();
    let t0 = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|client| {
                let cfg = cfg.clone();
                scope.spawn(move || client_loop(serve, &cfg, client, nf))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client panicked")).collect()
    });
    let wall = t0.elapsed();

    let mut report = LoadReport {
        requests: 0,
        completed: 0,
        rejections: 0,
        abandoned: 0,
        rows: 0,
        wall_ms: wall.as_millis() as u64,
        offered_qps: 0.0,
        labels_checksum: 0,
    };
    for t in tallies {
        report.requests += t.requests;
        report.completed += t.completed;
        report.rejections += t.rejections;
        report.abandoned += t.abandoned;
        report.rows += t.rows;
        // XOR keeps the aggregate independent of client join order.
        report.labels_checksum ^= t.checksum;
    }
    report.offered_qps = report.rows as f64 / wall.as_secs_f64().max(1e-9);
    report
}

fn client_loop(serve: &RfxServe, cfg: &LoadGenConfig, client: usize, nf: usize) -> ClientTally {
    // Independent per-client stream: golden-ratio stride decorrelates
    // neighboring client seeds.
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut tally = ClientTally::default();
    let mut features = vec![0.0f32; cfg.rows_per_request * nf];
    for _ in 0..cfg.requests_per_client {
        for f in &mut features {
            *f = rng.gen();
        }
        tally.requests += 1;
        let ticket = loop {
            let attempt = if cfg.rows_per_request == 1 {
                serve.submit(&features)
            } else {
                serve.submit_micro_batch(&features)
            };
            match attempt {
                Ok(ticket) => break Some(ticket),
                Err(ServeError::Overloaded { .. }) => {
                    tally.rejections += 1;
                    std::thread::sleep(cfg.retry_backoff);
                }
                Err(_) => break None,
            }
        };
        let Some(ticket) = ticket else {
            tally.abandoned += 1;
            continue;
        };
        match ticket.wait() {
            Ok(labels) => {
                tally.completed += 1;
                tally.rows += labels.len() as u64;
                for label in labels {
                    // FNV-1a over the label stream, folded per client.
                    tally.checksum =
                        (tally.checksum ^ u64::from(label)).wrapping_mul(0x100_0000_01B3);
                }
            }
            Err(_) => tally.abandoned += 1,
        }
    }
    tally
}
