//! Overhead guard for the soup-obs instrumentation: the SpMM kernel with
//! metrics recording enabled versus disabled (`set_enabled(false)` reduces
//! every counter update to a single relaxed atomic load).
//!
//! Besides the two Criterion groups, direct A/B timing loops print the
//! measured relative overhead so `cargo bench --bench obs_overhead` leaves
//! one-line verdicts in the log: counters alone, and the full soup-obs v2
//! surface (trace sink with the 100 ms metrics sampler writing into it +
//! per-span CPU/alloc attribution) versus everything disabled. Both are expected to stay within 2% — see
//! `benches/README.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use soup_graph::{CsrGraph, SbmConfig};
use soup_tensor::Tensor;
use std::time::{Duration, Instant};

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

fn bench_spmm_instrumentation(c: &mut Criterion) {
    let (graph, feats) = test_graph(4000);
    let adj = graph.gcn_norm();

    let mut group = c.benchmark_group("spmm_obs");
    soup_obs::set_enabled(true);
    group.bench_function("metrics_enabled", |b| {
        b.iter(|| std::hint::black_box(adj.matvec_dense(&feats)));
    });
    soup_obs::set_enabled(false);
    group.bench_function("metrics_disabled", |b| {
        b.iter(|| std::hint::black_box(adj.matvec_dense(&feats)));
    });
    soup_obs::set_enabled(true);
    group.finish();

    // Direct A/B measurement: interleave enabled/disabled batches so both
    // states see the same thermal/cache conditions, then report the ratio.
    let batch = 20usize;
    let rounds = 10usize;
    let mut enabled_ns = 0u128;
    let mut disabled_ns = 0u128;
    for _ in 0..rounds {
        soup_obs::set_enabled(true);
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(adj.matvec_dense(&feats));
        }
        enabled_ns += t.elapsed().as_nanos();
        soup_obs::set_enabled(false);
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(adj.matvec_dense(&feats));
        }
        disabled_ns += t.elapsed().as_nanos();
    }
    soup_obs::set_enabled(true);
    let overhead = enabled_ns as f64 / disabled_ns.max(1) as f64 - 1.0;
    println!(
        "spmm instrumentation overhead (enabled vs disabled): {:+.3}% \
         (enabled {:.3} ms/iter, disabled {:.3} ms/iter)",
        overhead * 100.0,
        enabled_ns as f64 / 1e6 / (batch * rounds) as f64,
        disabled_ns as f64 / 1e6 / (batch * rounds) as f64,
    );
}

/// Open a trace sink at `path` with the sampler at the default 100 ms tick.
fn start_traced(path: &std::path::Path) {
    soup_obs::trace::init(path).expect("temp trace file");
    soup_obs::series::start(Duration::from_millis(100)).expect("sampler starts");
}

/// The acceptance guard for the full v2 observability surface: a trace sink
/// with the sampler at the default 100 ms tick, span attribution on —
/// versus everything off. The workload wraps each batch in a span so the
/// attribution path (thread-CPU clock reads + alloc delta bookkeeping at
/// span drop) is actually exercised, matching what `soupctl train` pays.
fn bench_full_observability_overhead(c: &mut Criterion) {
    let (graph, feats) = test_graph(4000);
    let adj = graph.gcn_norm();
    let workload = |label: &'static str| {
        let _span = soup_obs::span!(label);
        std::hint::black_box(adj.matvec_dense(&feats));
    };

    let mut group = c.benchmark_group("full_obs");
    soup_obs::attrib::set_enabled(true);
    group.bench_function("sampler_and_attribution", |b| {
        let path = std::env::temp_dir().join("obs_overhead_criterion.trace.jsonl");
        start_traced(&path);
        b.iter(|| workload("bench.full_obs"));
        soup_obs::trace::finish();
        std::fs::remove_file(&path).ok();
    });
    soup_obs::set_enabled(false);
    soup_obs::attrib::set_enabled(false);
    group.bench_function("all_disabled", |b| {
        b.iter(|| workload("bench.full_obs"));
    });
    soup_obs::set_enabled(true);
    group.finish();

    // Direct interleaved A/B for the log verdict: the <2% acceptance bound
    // on the fully instrumented configuration.
    let batch = 20usize;
    let rounds = 10usize;
    let mut on_ns = 0u128;
    let mut off_ns = 0u128;
    let trace_path = std::env::temp_dir().join("obs_overhead_ab.trace.jsonl");
    for _ in 0..rounds {
        soup_obs::set_enabled(true);
        soup_obs::attrib::set_enabled(true);
        start_traced(&trace_path);
        let t = Instant::now();
        for _ in 0..batch {
            workload("bench.full_obs.ab");
        }
        on_ns += t.elapsed().as_nanos();
        soup_obs::trace::finish();
        soup_obs::set_enabled(false);
        soup_obs::attrib::set_enabled(false);
        let t = Instant::now();
        for _ in 0..batch {
            workload("bench.full_obs.ab");
        }
        off_ns += t.elapsed().as_nanos();
    }
    std::fs::remove_file(&trace_path).ok();
    soup_obs::set_enabled(true);
    soup_obs::attrib::set_enabled(true);
    let overhead = on_ns as f64 / off_ns.max(1) as f64 - 1.0;
    let verdict = if overhead < 0.02 { "PASS" } else { "FAIL" };
    println!(
        "full observability overhead (trace + sampler@100ms + attribution vs disabled): \
         {:+.3}% [{verdict}: bound 2%] \
         (on {:.3} ms/iter, off {:.3} ms/iter)",
        overhead * 100.0,
        on_ns as f64 / 1e6 / (batch * rounds) as f64,
        off_ns as f64 / 1e6 / (batch * rounds) as f64,
    );
}

criterion_group!(
    benches,
    bench_spmm_instrumentation,
    bench_full_observability_overhead
);
criterion_main!(benches);
