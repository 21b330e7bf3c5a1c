//! Serving-layer bench: closed-loop Zipf-skewed load against a live
//! `soup-serve` server, sweeping client concurrency.
//!
//! The bench starts a real TCP server (micro-batching, admission control)
//! and drives it with `run_closed_loop`: every client hammers
//! back-to-back requests whose node ids follow a Zipf(1.0) popularity
//! curve, so batches actually coalesce hot nodes the way production
//! traffic would. Reported per concurrency level: throughput plus the
//! client-observed p50/p99 latency. Machine-readable results go to
//! `BENCH_serve.json` (workspace root), gated by `soup-bench regress`
//! (`*_rps` higher-is-better, `*_us` lower-is-better).
//!
//! Usage:
//! `cargo run -p soup-bench --release --bin bench_serve -- [quick|standard|full]`

use serde::Serialize;
use soup_bench::harness::{finish_observability, ExperimentPreset};
use soup_core::strategy::SoupStrategy;
use soup_core::UniformSouping;
use soup_gnn::ModelConfig;
use soup_gnn::TrainConfig;
use soup_graph::{Dataset, DatasetKind};
use soup_serve::{run_closed_loop, LoadConfig, ServeConfig, Server};
use std::time::Duration;

/// Concurrency sweep — fixed across presets so the sidecar's leaf paths
/// stay stable for the regression gate; presets only scale request count.
const LEVELS: [usize; 3] = [1, 4, 8];

#[derive(Serialize)]
struct ServePoint {
    clients: usize,
    requests: u64,
    served: u64,
    overloaded: u64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    mean_us: f64,
}

/// The concurrency sweep. Named fields (not an array) so regress paths
/// read `f32.c4.p99_us` and stay index-free.
#[derive(Serialize)]
struct ArmReport {
    c1: ServePoint,
    c4: ServePoint,
    c8: ServePoint,
}

#[derive(Serialize)]
struct ServeCounters {
    requests: u64,
    batches: u64,
    rejected: u64,
}

#[derive(Serialize)]
struct ServeReport {
    nodes: usize,
    max_batch: usize,
    max_delay_us: u64,
    f32: ArmReport,
    /// Registry totals across the sweep; requests/batches is the achieved
    /// coalescing factor (informational).
    counters: ServeCounters,
}

fn run_arm(
    dataset: &Dataset,
    cfg: &ModelConfig,
    params: &soup_gnn::ParamSet,
    requests_per_client: usize,
) -> ArmReport {
    let config = ServeConfig {
        port: 0,
        max_batch: 64,
        max_delay: Duration::from_micros(200),
        queue_depth: 256,
        // Connections are persistent, so workers bounds live clients.
        workers: LEVELS[LEVELS.len() - 1] + 2,
        ..ServeConfig::default()
    };
    let server = Server::start(dataset.clone(), cfg.clone(), params.clone(), config)
        .expect("bench server failed to bind");
    let addr = server.addr();
    let point = |clients: usize| {
        let load = LoadConfig {
            clients,
            requests_per_client,
            nodes_per_request: 4,
            zipf_s: 1.0,
            seed: 42 + clients as u64,
        };
        let report =
            run_closed_loop(addr, dataset.num_nodes(), &load).expect("bench load generator failed");
        ServePoint {
            clients,
            requests: (clients * requests_per_client) as u64,
            served: report.served,
            overloaded: report.overloaded,
            throughput_rps: report.rps,
            p50_us: report.p50_us,
            p99_us: report.p99_us,
            mean_us: report.mean_us,
        }
    };
    let arm = ArmReport {
        c1: point(LEVELS[0]),
        c4: point(LEVELS[1]),
        c8: point(LEVELS[2]),
    };
    server.stop();
    arm
}

fn counter(name: &str) -> u64 {
    soup_obs::registry::counter(name).get()
}

fn main() {
    let preset = ExperimentPreset::from_args();
    let (requests_per_client, scale) = match preset.name {
        "quick" => (150, 0.12),
        "full" => (1200, 0.35),
        _ => (600, 0.2),
    };
    let _span = soup_obs::span!("bench.serve");

    let dataset = DatasetKind::Flickr.generate_scaled(11, scale);
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(32);
    // A real (small) soup: the served weights don't affect latency, but the
    // bench should exercise the same artifact the pipeline deploys.
    let tc = TrainConfig {
        epochs: 5,
        ..TrainConfig::quick()
    };
    let ingredients = soup_distrib::train_ingredients(&dataset, &cfg, &tc, 2, 2, 42);
    let outcome = UniformSouping.soup(&ingredients, &dataset, &cfg, 42);

    let f32_arm = run_arm(&dataset, &cfg, &outcome.params, requests_per_client);

    let report = ServeReport {
        nodes: dataset.num_nodes(),
        max_batch: 64,
        max_delay_us: 200,
        f32: f32_arm,
        counters: ServeCounters {
            requests: counter("serve.requests"),
            batches: counter("serve.batches"),
            rejected: counter("serve.rejected"),
        },
    };

    let sidecar = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(
        sidecar,
        serde_json::to_string_pretty(&report).unwrap() + "\n",
    )
    .expect("write sidecar");
    println!("wrote {sidecar}:");
    let arm = &report.f32;
    for p in [&arm.c1, &arm.c4, &arm.c8] {
        println!(
            "  f32 c={:<2} {:>9.0} req/s  p50 {:>7} us  p99 {:>7} us  \
             ({} served, {} overloaded)",
            p.clients, p.throughput_rps, p.p50_us, p.p99_us, p.served, p.overloaded,
        );
    }
    let c = &report.counters;
    println!(
        "  batching: {} requests in {} batches ({:.1} req/batch), {} rejected",
        c.requests,
        c.batches,
        c.requests as f64 / c.batches.max(1) as f64,
        c.rejected,
    );
    drop(_span);
    finish_observability();
}
