//! Microbenchmarks of the tensor and graph kernels every souping strategy
//! is built on: dense GEMM, CSR SpMM, GAT aggregation and the
//! soup-weighted parameter sum (Eq. 3).
//!
//! Beyond the criterion groups, `main` runs two head-to-head comparisons —
//! cache-blocked vs naive GEMM, and nnz-balanced vs row-parallel SpMM on a
//! Zipf-degree graph — and writes machine-readable ops/sec results to
//! `BENCH_kernels.json` (workspace root), headed by the provenance of the
//! run (commit, CPU model, `nproc`, rustc, `RUSTFLAGS`). With
//! `SOUP_TRACE_OUT=<path>` the run also emits a JSONL trace that
//! `soupctl trace-validate` checks in CI. See `benches/README.md` for how
//! these map onto the paper's figures.

use criterion::{criterion_group, BenchmarkId, Criterion};
use serde::Serialize;
use soup_graph::{CsrGraph, SbmConfig};
use soup_tensor::ops::sparse::{spmm_rowpar_reference, SparseMat};
use soup_tensor::ops::EdgeIndex;
use soup_tensor::tape::Tape;
use soup_tensor::{pool, SplitMix64, Tensor};
use std::time::Instant;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[64usize, 128, 256] {
        let mut rng = SplitMix64::new(1);
        let a = Tensor::randn(n, n, 1.0, &mut rng);
        let b = Tensor::randn(n, n, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_matmul_blocked_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_512");
    let mut rng = SplitMix64::new(2);
    let a = Tensor::randn(512, 512, 1.0, &mut rng);
    let b = Tensor::randn(512, 512, 1.0, &mut rng);
    group.bench_function("blocked", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul(&b)));
    });
    group.bench_function("naive", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul_naive(&b)));
    });
    group.finish();
}

fn test_graph(nodes: usize) -> (CsrGraph, Tensor) {
    let synth = SbmConfig {
        nodes,
        classes: 8,
        avg_degree: 16.0,
        feature_dim: 64,
        ..Default::default()
    }
    .generate(3);
    (synth.graph, synth.features)
}

/// A Zipf-degree adjacency: degree of the rank-`r` vertex ∝ 1/(r+1)^s,
/// scaled to hit `avg_degree`. Models the hub-dominated degree profiles of
/// the paper's datasets (Reddit/Flickr), where row-count chunking stalls on
/// hub rows.
fn zipf_graph(nodes: usize, avg_degree: f64, s: f64, seed: u64) -> SparseMat {
    let mut rng = SplitMix64::new(seed);
    let weights: Vec<f64> = (0..nodes).map(|r| 1.0 / (r as f64 + 1.0).powf(s)).collect();
    let wsum: f64 = weights.iter().sum();
    let scale = avg_degree * nodes as f64 / wsum;
    let mut indptr = vec![0usize; nodes + 1];
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for r in 0..nodes {
        let deg = ((weights[r] * scale).round() as usize).clamp(1, nodes);
        for _ in 0..deg {
            indices.push(rng.next_below(nodes) as u32);
            values.push(1.0 / deg as f32);
        }
        indptr[r + 1] = indices.len();
    }
    SparseMat::new(nodes, nodes, indptr, indices, values, false)
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm_gcn_norm");
    for &n in &[1000usize, 4000] {
        let (graph, feats) = test_graph(n);
        let adj = graph.gcn_norm();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(adj.matvec_dense(&feats)));
        });
    }
    group.finish();
}

fn bench_spmm_zipf(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm_zipf");
    {
        let n = 4000usize;
        let adj = zipf_graph(n, 16.0, 1.1, 7);
        let mut rng = SplitMix64::new(8);
        let feats = Tensor::randn(n, 64, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("balanced", n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(adj.matvec_dense(&feats)));
        });
        group.bench_with_input(BenchmarkId::new("rowpar", n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(spmm_rowpar_reference(&adj, &feats)));
        });
    }
    group.finish();
}

/// The edge index of the `pipeline_sparse_gat` benchmark workload's graph
/// family: 3000 nodes of average degree 64, plus one self-loop per node.
fn sparse_gat_index() -> EdgeIndex {
    SbmConfig {
        nodes: 3000,
        classes: 8,
        avg_degree: 64.0,
        homophily: 0.8,
        hub_fraction: 0.05,
        hub_boost: 4.0,
        feature_dim: 8,
        ..Default::default()
    }
    .generate(1)
    .graph
    .edge_index()
}

/// The head shapes (heads × width) of that workload's two GAT layers.
const GAT_LAYERS: [(usize, usize); 2] = [(4, 8), (1, 8)];

/// The inputs `x`, `al`, `ar` of one GAT layer's aggregation.
fn gat_inputs(n: usize, heads: usize, dim: usize) -> [Tensor; 3] {
    let mut rng = SplitMix64::new(4);
    [
        Tensor::randn(n, heads * dim, 1.0, &mut rng),
        Tensor::randn(n, heads, 1.0, &mut rng),
        Tensor::randn(n, heads, 1.0, &mut rng),
    ]
}

/// One training step of the aggregation, as a GAT layer runs it: the
/// forward on trainable inputs, then the backward from an all-ones upstream
/// gradient. Returns the seconds of each.
fn gat_step(idx: &EdgeIndex, inputs: &[Tensor; 3], heads: usize) -> (f64, f64) {
    let tape = Tape::new();
    let [x, al, ar] = inputs.clone().map(|t| tape.param(t));
    let start = Instant::now();
    let y = tape.gat_aggregate(idx, x, al, ar, heads, 0.2);
    let forward = start.elapsed().as_secs_f64();
    std::hint::black_box(tape.backward(y));
    (forward, start.elapsed().as_secs_f64() - forward)
}

fn bench_gat_aggregate(c: &mut Criterion) {
    let mut group = c.benchmark_group("gat_aggregate");
    let idx = sparse_gat_index();
    for (heads, dim) in GAT_LAYERS {
        let inputs = gat_inputs(idx.num_nodes(), heads, dim);
        let id = BenchmarkId::new("forward+backward", format!("{heads}x{dim}"));
        group.bench_with_input(id, &heads, |bench, &heads| {
            bench.iter(|| std::hint::black_box(gat_step(&idx, &inputs, heads)));
        });
    }
    group.finish();
}

fn bench_soup_weighted_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("soup_weighted_sum");
    for &n_ing in &[8usize, 50] {
        let mut rng = SplitMix64::new(5);
        let weights: Vec<Tensor> = (0..n_ing)
            .map(|_| Tensor::randn(128, 64, 1.0, &mut rng))
            .collect();
        let raw = Tensor::randn(n_ing, 1, 0.2, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n_ing), &n_ing, |bench, _| {
            bench.iter(|| {
                let tape = Tape::new();
                let a = tape.param(raw.clone());
                let mixed = tape.soup_layer(&weights, a);
                let loss = tape.sum(mixed);
                std::hint::black_box(tape.backward(loss))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_blocked_vs_naive,
    bench_spmm,
    bench_spmm_zipf,
    bench_gat_aggregate,
    bench_soup_weighted_sum
);

/// Best-of-`reps` seconds/iteration (after one warm-up). Minimum rather
/// than median: on shared machines external noise only ever adds time, so
/// the minimum is the most stable estimator of intrinsic kernel cost.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: populates the pool, faults pages, warms caches
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn counter(name: &str) -> u64 {
    soup_obs::registry::counter(name).get()
}

#[derive(Serialize)]
struct GemmComparison {
    shape: Vec<usize>,
    naive_ms: f64,
    blocked_ms: f64,
    naive_gflops: f64,
    blocked_gflops: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct SpmmComparison {
    nodes: usize,
    features: usize,
    nnz: usize,
    rowpar_ms: f64,
    balanced_ms: f64,
    rowpar_gflops: f64,
    balanced_gflops: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct GatLayer {
    heads: usize,
    dim: usize,
    forward_ms: f64,
    backward_ms: f64,
}

/// The GAT aggregation at the sparse-GAT workload's shapes, forward and
/// backward timed apart (best of N each).
#[derive(Serialize)]
struct GatSparse {
    nodes: usize,
    edges: usize,
    threads: usize,
    layers: Vec<GatLayer>,
}

#[derive(Serialize)]
struct PoolStats {
    hits: u64,
    misses: u64,
    returns: u64,
    final_trim_bytes: usize,
}

/// Where the numbers were taken: enough to rebuild and rerun the bench.
#[derive(Serialize)]
struct Provenance {
    /// `git describe --always --dirty` of the workspace.
    commit: String,
    cpu: String,
    nproc: usize,
    rustc: String,
    /// `RUSTFLAGS` in the environment of the run, empty when unset.
    rustflags: String,
}

fn provenance() -> Provenance {
    let stdout = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches(['\t', ' ', ':']));
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Provenance {
        commit: stdout(
            "git",
            &[
                "-C",
                env!("CARGO_MANIFEST_DIR"),
                "describe",
                "--always",
                "--dirty",
                "--abbrev=40",
            ],
        ),
        cpu: cpu.to_string(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: stdout(&rustc, &["-V"]),
        rustflags: std::env::var("RUSTFLAGS").unwrap_or_default(),
    }
}

#[derive(Serialize)]
struct KernelReport {
    provenance: Provenance,
    gemm_512: GemmComparison,
    spmm_zipf: SpmmComparison,
    gat_sparse: GatSparse,
    pool: PoolStats,
}

/// Head-to-head comparisons for the JSON sidecar. Manual timing (not the
/// criterion shim) so ops/sec can be computed from known op counts.
fn comparison_report(quick: bool) -> KernelReport {
    let reps = if quick { 5 } else { 15 };

    // --- Dense GEMM, 512 features: naive saxpy loops vs blocked kernel.
    let (m, n, k) = (512usize, 512, 512);
    let mut rng = SplitMix64::new(21);
    let a = Tensor::randn(m, k, 1.0, &mut rng);
    let b = Tensor::randn(k, n, 1.0, &mut rng);
    let naive_s = time_best(reps, || {
        std::hint::black_box(a.matmul_naive(&b));
    });
    let blocked_s = time_best(reps, || {
        std::hint::black_box(a.matmul(&b));
    });
    let flops = (2 * m * n * k) as f64;
    let gemm_512 = GemmComparison {
        shape: vec![m, n, k],
        naive_ms: naive_s * 1e3,
        blocked_ms: blocked_s * 1e3,
        naive_gflops: flops / naive_s / 1e9,
        blocked_gflops: flops / blocked_s / 1e9,
        speedup: naive_s / blocked_s,
    };
    drop((a, b));
    pool::trim(); // don't attribute GEMM buffers to the SpMM experiment

    // --- Zipf-degree SpMM: row-parallel baseline vs nnz-balanced kernel.
    let nodes = 4000usize;
    let feat = 64usize;
    let adj = zipf_graph(nodes, 16.0, 1.1, 7);
    let mut rng = SplitMix64::new(22);
    let x = Tensor::randn(nodes, feat, 1.0, &mut rng);
    let rowpar_s = time_best(reps, || {
        std::hint::black_box(spmm_rowpar_reference(&adj, &x));
    });
    let balanced_s = time_best(reps, || {
        std::hint::black_box(adj.matvec_dense(&x));
    });
    let edge_flops = (2 * adj.nnz() * feat) as f64;
    let spmm_zipf = SpmmComparison {
        nodes,
        features: feat,
        nnz: adj.nnz(),
        rowpar_ms: rowpar_s * 1e3,
        balanced_ms: balanced_s * 1e3,
        rowpar_gflops: edge_flops / rowpar_s / 1e9,
        balanced_gflops: edge_flops / balanced_s / 1e9,
        speedup: rowpar_s / balanced_s,
    };
    drop((adj, x));
    pool::trim();

    // --- GAT aggregation at the sparse-GAT workload's two layer shapes.
    let idx = sparse_gat_index();
    let layers = GAT_LAYERS
        .map(|(heads, dim)| {
            let inputs = gat_inputs(idx.num_nodes(), heads, dim);
            gat_step(&idx, &inputs, heads); // warm-up, as in `time_best`
            let (mut forward, mut backward) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..reps {
                let (f, b) = gat_step(&idx, &inputs, heads);
                forward = forward.min(f);
                backward = backward.min(b);
            }
            GatLayer {
                heads,
                dim,
                forward_ms: forward * 1e3,
                backward_ms: backward * 1e3,
            }
        })
        .into();
    let gat_sparse = GatSparse {
        nodes: idx.num_nodes(),
        edges: idx.num_edges(),
        threads: soup_tensor::parallel::current_threads(),
        layers,
    };
    drop(idx);
    let trimmed = pool::trim();

    KernelReport {
        provenance: provenance(),
        gemm_512,
        spmm_zipf,
        gat_sparse,
        pool: PoolStats {
            hits: counter("tensor.pool.hits"),
            misses: counter("tensor.pool.misses"),
            returns: counter("tensor.pool.returns"),
            final_trim_bytes: trimmed,
        },
    }
}

fn main() {
    let trace = std::env::var("SOUP_TRACE_OUT").ok();
    if let Some(path) = &trace {
        soup_obs::trace::init(path).expect("trace init");
    }
    let _span = soup_obs::span!("bench.kernels");

    benches();

    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v == "1");
    let report = comparison_report(quick);
    // Anchor to the workspace root: cargo runs benches with the package
    // directory as cwd, which would scatter sidecars across crates/.
    let sidecar = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(
        sidecar,
        serde_json::to_string_pretty(&report).unwrap() + "\n",
    )
    .expect("write sidecar");
    println!("\nwrote {sidecar}:");
    println!(
        "  gemm_512   speedup {:.2}x  ({:.2} -> {:.2} GFLOP/s)",
        report.gemm_512.speedup, report.gemm_512.naive_gflops, report.gemm_512.blocked_gflops,
    );
    println!(
        "  spmm_zipf  speedup {:.2}x  ({:.2} -> {:.2} GFLOP/s)",
        report.spmm_zipf.speedup, report.spmm_zipf.rowpar_gflops, report.spmm_zipf.balanced_gflops,
    );
    for l in &report.gat_sparse.layers {
        println!(
            "  gat_sparse {}x{}  forward {:.2} ms  backward {:.2} ms",
            l.heads, l.dim, l.forward_ms, l.backward_ms,
        );
    }

    drop(_span);
    if trace.is_some() {
        soup_obs::trace::finish();
    }
}
