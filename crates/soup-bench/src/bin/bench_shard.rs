//! Sharded-Phase-1 memory bench: full-graph vs K-sharded peak RSS at
//! paper scale, the measurement behind the ≈R/K memory claim.
//!
//! Every arm that touches the dataset runs in its **own child process**
//! (this binary re-executing itself), because `VmHWM` is a per-process
//! high-water mark: generating, preparing, and full-graph training in the
//! coordinator would pollute the number the bench exists to report.
//!
//! - `gen`      — stream the SBM ogbn-products preset to disk
//!   ([`soup_bench::scale`]); never materializes the graph in RAM.
//! - `prepare`  — LDG partition + shard-ordered rewrite
//!   ([`prepare_sharded_dataset`]).
//! - `full`     — the single-process baseline: load the whole dataset,
//!   train the pool, soup with PLS. Its `VmHWM` is the denominator.
//! - `shard-worker` — one shard of the multi-process run
//!   ([`run_shard_worker`]); the per-worker `VmHWM` maxima are the
//!   numerator. The coordinator itself never maps the dataset.
//!
//! Hyperparameters are identical across both arms, so the accuracy
//! comparison is apples-to-apples. Results go to `BENCH_shard.json`
//! (workspace root): `*_rss`/`*_bytes` leaves gate lower-is-better,
//! `*accuracy*` higher-is-better, via `soup-bench regress`.
//!
//! Usage:
//! `cargo run -p soup-bench --release --bin bench_shard -- [quick|standard|full]`
//! (quick = 100k nodes, standard = 1M, full = 2.4M — ogbn-products size)

use serde::{Deserialize, Serialize};
use soup_bench::scale::ScaleConfig;
use soup_distrib::{
    prepare_sharded_dataset, run_shard_worker, run_sharded, ShardPlan, TrainOpts, WorkerLaunch,
};
use soup_gnn::{Arch, ModelConfig, TrainConfig};
use soup_graph::mmap::MmapDataset;
use soup_tensor::SplitMix64;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Shard count for the sharded arm — the K in the R/K claim. Fixed so the
/// sidecar's leaf paths stay stable for the regression gate.
const K: usize = 4;
const SEED: u64 = 42;

/// Shared hyperparameters: both arms train the same pool shape.
const ARCH: &str = "gcn";
const HIDDEN: usize = 64;
const LAYERS: usize = 2;
const DROPOUT: f32 = 0.5;
const INGREDIENTS: usize = 4;
const EPOCHS: usize = 4;
const LR: f32 = 0.01;
const STRATEGY: &str = "pls";
const SOUP_EPOCHS: usize = 6;
const PLS_K: usize = 16;
const PLS_R: usize = 4;

fn peak_rss() -> u64 {
    soup_obs::series::peak_rss_bytes().unwrap_or(0)
}

/// What the `gen` and `prepare` children print on stdout (one JSON line).
#[derive(Serialize, Deserialize)]
struct ChildStats {
    wall_ms: u64,
    peak_rss_bytes: u64,
}

#[derive(Serialize, Deserialize)]
struct PrepareOut {
    wall_ms: u64,
    peak_rss_bytes: u64,
    edge_cut: u64,
    halo_fraction: f64,
    balance: f64,
    ranges: Vec<(u64, u64)>,
}

#[derive(Serialize, Deserialize)]
struct FullOut {
    wall_ms: u64,
    peak_rss_bytes: u64,
    val_accuracy: f64,
    test_accuracy: f64,
}

/// Per-shard summary in the sidecar (subset of [`soup_distrib::ShardResult`]).
#[derive(Serialize)]
struct ShardSide {
    test_accuracy: f64,
    peak_rss_bytes: u64,
    halo_nodes: usize,
    wall_ms: u64,
}

#[derive(Serialize)]
struct ShardedSide {
    wall_ms: u64,
    max_worker_peak_rss: u64,
    coordinator_peak_rss_bytes: u64,
    test_accuracy: f64,
    per_shard: Vec<ShardSide>,
}

#[derive(Serialize)]
struct ShardReport {
    preset: String,
    nodes: usize,
    feature_dim: usize,
    k: usize,
    ingredients: usize,
    dataset_file_len: u64,
    generate: ChildStats,
    prepare: PrepareOut,
    full_graph: FullOut,
    sharded: ShardedSide,
    /// `sharded.max_worker_peak_rss / full_graph.peak_rss_bytes` — the
    /// headline number; the acceptance bound is ≤ 0.6 at K=4.
    shard_over_full_rss: f64,
    /// Signed test-accuracy gap `(full − sharded) · 100` in points.
    soup_delta_pp: f64,
}

fn model_config(in_dim: usize, out_dim: usize) -> ModelConfig {
    ModelConfig {
        arch: Arch::from_name(ARCH).expect("known arch"),
        hidden: HIDDEN,
        layers: LAYERS,
        dropout: DROPOUT,
        ..ModelConfig::gcn(in_dim, out_dim)
    }
}

/// Re-execute this binary in a child mode and parse its stdout JSON line.
/// stderr is inherited so the child's logs interleave with ours.
fn run_child<T: for<'de> Deserialize<'de>>(args: &[String]) -> T {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(&exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn bench child");
    assert!(
        out.status.success(),
        "bench child {args:?} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("child stdout utf-8");
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_else(|| panic!("bench child {args:?} printed no result line"));
    serde_json::from_str(line).unwrap_or_else(|e| panic!("bench child {args:?} result decode: {e}"))
}

fn child_gen(nodes: usize, path: &Path) {
    let start = Instant::now();
    let cfg = ScaleConfig::products(nodes);
    soup_bench::scale::generate_streamed(&cfg, SEED, path).expect("generate_streamed");
    let stats = ChildStats {
        wall_ms: start.elapsed().as_millis() as u64,
        peak_rss_bytes: peak_rss(),
    };
    println!("{}", serde_json::to_string(&stats).unwrap());
}

fn child_prepare(src: &Path, out: &Path) {
    let start = Instant::now();
    let report = prepare_sharded_dataset(src, K, out).expect("prepare_sharded_dataset");
    let out = PrepareOut {
        wall_ms: start.elapsed().as_millis() as u64,
        peak_rss_bytes: peak_rss(),
        edge_cut: report.quality.edge_cut as u64,
        halo_fraction: report.quality.halo_fraction,
        balance: report.quality.balance,
        ranges: report.ranges,
    };
    println!("{}", serde_json::to_string(&out).unwrap());
}

/// The single-process baseline: everything resident, same pool + soup as
/// one shard worker but over the whole graph.
fn child_full(path: &Path) {
    let start = Instant::now();
    let mmap = MmapDataset::open(path).expect("open dataset");
    let dataset = mmap.load().expect("load dataset");
    drop(mmap);
    let cfg = model_config(dataset.num_features(), dataset.num_classes());
    let tc = TrainConfig {
        epochs: EPOCHS,
        lr: LR,
        weight_decay: 5e-4,
        minibatch: None,
        early_stop_patience: None,
        eval_every: 5,
        swa: None,
    };
    let opts = TrainOpts {
        workers: 1,
        seed: SEED,
        ..TrainOpts::default()
    };
    let run = soup_distrib::train_ingredients_opts(&dataset, &cfg, &tc, INGREDIENTS, &opts)
        .expect("full-graph training");
    assert!(!run.ingredients.is_empty(), "full-graph pool is empty");
    let mut spec = soup_core::StrategySpec::new(STRATEGY);
    spec.epochs = SOUP_EPOCHS;
    spec.pls_k = PLS_K;
    spec.pls_r = PLS_R;
    let strategy = spec.build().expect("strategy");
    let soup_seed = SplitMix64::new(SEED).derive(2).snapshot().0;
    let ctx = soup_core::SoupCtx::new(&run.ingredients, &dataset, &cfg, soup_seed);
    let outcome = strategy
        .try_soup(&ctx)
        .expect("souping")
        .expect("try_soup always returns Some");
    let test = soup_core::strategy::test_accuracy(&outcome, &dataset, &cfg);
    let out = FullOut {
        wall_ms: start.elapsed().as_millis() as u64,
        peak_rss_bytes: peak_rss(),
        val_accuracy: outcome.val_accuracy,
        test_accuracy: test,
    };
    println!("{}", serde_json::to_string(&out).unwrap());
}

fn child_shard_worker(args: &[String]) {
    let mut plan = None;
    let mut shard = None;
    let mut epoch = 0u32;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--plan" => plan = it.next().cloned(),
            "--shard" => shard = it.next().and_then(|s| s.parse::<usize>().ok()),
            "--epoch" => epoch = it.next().and_then(|s| s.parse().ok()).unwrap_or(0),
            other => panic!("shard-worker: unexpected argument '{other}'"),
        }
    }
    let plan = PathBuf::from(plan.expect("shard-worker needs --plan"));
    let shard = shard.expect("shard-worker needs --shard");
    run_shard_worker(&plan, shard, epoch).expect("shard worker");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => return child_gen(args[2].parse().unwrap(), Path::new(&args[1])),
        Some("prepare") => return child_prepare(Path::new(&args[1]), Path::new(&args[2])),
        Some("full") => return child_full(Path::new(&args[1])),
        Some("shard-worker") => return child_shard_worker(&args[1..]),
        _ => {}
    }
    let preset = args.first().map(String::as_str).unwrap_or("quick");
    let nodes: usize = match preset {
        "quick" => 100_000,
        "standard" => 1_000_000,
        // ogbn-products: 2.449M nodes.
        "full" => 2_400_000,
        other => panic!("unknown preset '{other}' (quick | standard | full)"),
    };
    let _span = soup_obs::span!("bench.shard");

    let root = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/bench_shard"
    ));
    std::fs::create_dir_all(&root).expect("bench dir");
    let src = root.join(format!("products-{nodes}.gmm"));
    let sharded_ds = root.join(format!("sharded-{nodes}.gmm"));
    let run_dir = root.join(format!("run-{nodes}"));
    let _ = std::fs::remove_dir_all(&run_dir);

    eprintln!("[bench_shard] generating {nodes}-node products preset ...");
    let s = |p: &Path| p.display().to_string();
    let generate: ChildStats = run_child(&["gen".into(), s(&src), nodes.to_string()]);
    let dataset_file_len = std::fs::metadata(&src).expect("dataset metadata").len();

    eprintln!("[bench_shard] preparing {K}-way shard-ordered rewrite ...");
    let prepare: PrepareOut = run_child(&["prepare".into(), s(&src), s(&sharded_ds)]);

    eprintln!("[bench_shard] full-graph baseline arm ...");
    let full_graph: FullOut = run_child(&["full".into(), s(&sharded_ds)]);

    eprintln!("[bench_shard] sharded arm: {K} worker processes ...");
    let feature_dim = MmapDataset::open(&src).expect("open dataset").feature_dim();
    let plan = ShardPlan {
        version: 1,
        dataset: s(&sharded_ds),
        k: K,
        ranges: prepare.ranges.clone(),
        seed: SEED,
        rounds: INGREDIENTS,
        arch: ARCH.to_string(),
        hidden: HIDDEN,
        layers: LAYERS,
        dropout: DROPOUT,
        epochs: EPOCHS,
        lr: LR,
        strategy: STRATEGY.to_string(),
        soup_epochs: SOUP_EPOCHS,
        pls_k: PLS_K,
        pls_r: PLS_R,
        out_dir: s(&run_dir),
        no_shm: false,
        resume: false,
        worker_timeout_ms: 120_000,
        restart_budget: 2,
        chaos: None,
    };
    let exe = std::env::current_exe().expect("current_exe");
    let launch = WorkerLaunch::new(exe, &["shard-worker"]);
    let report = run_sharded(&plan, &launch).expect("sharded run");

    let shard_over_full_rss =
        report.max_worker_peak_rss as f64 / full_graph.peak_rss_bytes.max(1) as f64;
    let soup_delta_pp = (full_graph.test_accuracy - report.test_accuracy) * 100.0;
    let side = ShardReport {
        preset: preset.to_string(),
        nodes,
        feature_dim,
        k: K,
        ingredients: INGREDIENTS,
        dataset_file_len,
        generate,
        prepare,
        full_graph,
        sharded: ShardedSide {
            wall_ms: report.wall_ms,
            max_worker_peak_rss: report.max_worker_peak_rss,
            coordinator_peak_rss_bytes: peak_rss(),
            test_accuracy: report.test_accuracy,
            per_shard: report
                .per_shard
                .iter()
                .map(|r| ShardSide {
                    test_accuracy: r.test_accuracy,
                    peak_rss_bytes: r.peak_rss_bytes,
                    halo_nodes: r.halo_nodes,
                    wall_ms: r.wall_ms,
                })
                .collect(),
        },
        shard_over_full_rss,
        soup_delta_pp,
    };

    let sidecar = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    std::fs::write(sidecar, serde_json::to_string_pretty(&side).unwrap() + "\n")
        .expect("write sidecar");
    println!("wrote {sidecar}:");
    let gib = |b: u64| b as f64 / (1024.0 * 1024.0 * 1024.0);
    println!(
        "  {nodes} nodes, {:.2} GiB on disk, edge-cut {} (halo fraction {:.4}, balance {:.3})",
        gib(side.dataset_file_len),
        side.prepare.edge_cut,
        side.prepare.halo_fraction,
        side.prepare.balance,
    );
    println!(
        "  full graph : peak rss {:.3} GiB  wall {:>7.1}s  test {:.2}%",
        gib(side.full_graph.peak_rss_bytes),
        side.full_graph.wall_ms as f64 / 1000.0,
        side.full_graph.test_accuracy * 100.0,
    );
    println!(
        "  sharded K={K}: peak rss {:.3} GiB  wall {:>7.1}s  test {:.2}%  (coordinator {:.3} GiB)",
        gib(side.sharded.max_worker_peak_rss),
        side.sharded.wall_ms as f64 / 1000.0,
        side.sharded.test_accuracy * 100.0,
        gib(side.sharded.coordinator_peak_rss_bytes),
    );
    println!(
        "  memory ratio {:.3} (bound 0.6), accuracy delta {:+.3} pp (bound 0.5)",
        side.shard_over_full_rss, side.soup_delta_pp,
    );
    drop(_span);
    soup_bench::harness::finish_observability();
}
