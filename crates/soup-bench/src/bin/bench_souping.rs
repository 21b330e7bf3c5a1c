//! Phase-2 evaluation-engine head-to-head: each souping strategy with the
//! full engine (propagation cache, fused blends, subgraph memoisation)
//! versus the same strategy with every optimisation switched off, on the
//! medium Reddit synthetic.
//!
//! Both arms run the same code with the engine flags toggled, the same seed
//! and the same ingredient pool, so accuracies must match **bitwise** — the
//! report records that check next to each speedup. Machine-readable results
//! go to `BENCH_souping.json` (workspace root); see `benches/README.md`.
//!
//! Usage:
//! `cargo run -p soup-bench --release --bin bench_souping -- \
//!    [quick|standard|full] [--trace-out FILE] [--metrics-summary]`

use serde::Serialize;
use soup_bench::harness::{finish_observability, train_pool, ExperimentPreset};
use soup_core::strategy::{SoupCtx, SoupStrategy};
use soup_core::{
    GisSouping, Ingredient, LearnedHyper, LearnedSouping, PartitionLearnedSouping, SoupOutcome,
};
use soup_gnn::ModelConfig;
use soup_graph::splits::Splits;
use soup_graph::{Dataset, SbmConfig};
use soup_partition::{partition_val_balanced, PartitionConfig, Partitioning};

/// PLS partition pool for the bench: binom(5, 2) = 10 distinct subsets fits
/// the default LRU, so memoisation engages and the steady-state hit rate
/// approaches 100% once every subset has been drawn.
const PLS_K: usize = 5;
const PLS_R: usize = 2;

/// Medium synthetic for the engine bench: Reddit-like homophily, splits and
/// feature dimension, but denser (average degree ~120). Dense graphs are
/// where the first-hop SpMM dominates evaluation — the regime aggregation
/// caching targets; at Reddit's real density (deg ~100, 11.6M edges) the
/// same balance holds at scale.
fn medium_dataset(scale: f64, seed: u64) -> Dataset {
    let cfg = SbmConfig {
        nodes: (5_200.0 * scale).round() as usize,
        classes: 16,
        avg_degree: 120.0,
        homophily: 0.80,
        hub_fraction: 0.05,
        hub_boost: 6.0,
        feature_dim: 96,
        centroid_scale: 0.9,
        feature_noise: 1.0,
        label_noise: 0.05,
    };
    let synth = cfg.generate(seed);
    let splits = Splits::random(cfg.nodes, 0.66, 0.10, 0.24, seed);
    Dataset::from_parts(
        synth.graph,
        synth.features,
        synth.labels,
        splits,
        cfg.classes,
    )
}

#[derive(Serialize)]
struct StrategyComparison {
    baseline_ms: f64,
    engine_ms: f64,
    speedup: f64,
    /// Validation accuracy of both arms (they must be equal).
    val_accuracy: f64,
    /// Engine soup is bitwise identical to the baseline soup.
    bitwise_identical: bool,
    forward_passes: usize,
    spmm_saved: usize,
}

#[derive(Serialize)]
struct EngineCounters {
    prop_builds: u64,
    prop_hits: u64,
    subgraph_cache_hits: u64,
    subgraph_cache_misses: u64,
    blends_fused: u64,
    blend_allocs_avoided: u64,
}

#[derive(Serialize)]
struct SoupingReport {
    dataset: String,
    nodes: usize,
    edges: usize,
    ingredients: usize,
    hidden: usize,
    gis: StrategyComparison,
    ls: StrategyComparison,
    pls: StrategyComparison,
    counters: EngineCounters,
}

fn counter(name: &str) -> u64 {
    soup_obs::registry::counter(name).get()
}

/// Best-of-`reps` souping run. Minimum over repetitions: external noise only
/// adds time, so the minimum estimates intrinsic cost most stably.
fn best_outcome(reps: usize, run: impl Fn() -> SoupOutcome) -> SoupOutcome {
    (0..reps)
        .map(|_| run())
        .min_by(|a, b| a.stats.wall_time.cmp(&b.stats.wall_time))
        .expect("reps >= 1")
}

fn compare(baseline: SoupOutcome, engine: SoupOutcome) -> StrategyComparison {
    let bitwise = engine.val_accuracy == baseline.val_accuracy
        && engine
            .params
            .flat()
            .zip(baseline.params.flat())
            .all(|(a, b)| a == b);
    let baseline_s = baseline.stats.wall_time.as_secs_f64();
    let engine_s = engine.stats.wall_time.as_secs_f64();
    StrategyComparison {
        baseline_ms: baseline_s * 1e3,
        engine_ms: engine_s * 1e3,
        speedup: baseline_s / engine_s,
        val_accuracy: engine.val_accuracy,
        bitwise_identical: bitwise,
        forward_passes: engine.stats.forward_passes,
        spmm_saved: engine.stats.spmm_saved,
    }
}

fn gis_comparison(
    ingredients: &[Ingredient],
    dataset: &Dataset,
    cfg: &ModelConfig,
    granularity: usize,
    reps: usize,
    seed: u64,
) -> StrategyComparison {
    let baseline = best_outcome(reps, || {
        GisSouping::new(granularity)
            .with_cache(false)
            .soup(ingredients, dataset, cfg, seed)
    });
    let engine = best_outcome(reps, || {
        GisSouping::new(granularity).soup(ingredients, dataset, cfg, seed)
    });
    compare(baseline, engine)
}

fn ls_comparison(
    ingredients: &[Ingredient],
    dataset: &Dataset,
    cfg: &ModelConfig,
    epochs: usize,
    reps: usize,
    seed: u64,
) -> StrategyComparison {
    let hyper = LearnedHyper {
        epochs,
        ..Default::default()
    };
    let baseline = best_outcome(reps, || {
        LearnedSouping::new(LearnedHyper {
            prop_cache: false,
            ..hyper
        })
        .soup(ingredients, dataset, cfg, seed)
    });
    let engine = best_outcome(reps, || {
        LearnedSouping::new(hyper).soup(ingredients, dataset, cfg, seed)
    });
    compare(baseline, engine)
}

fn pls_comparison(
    ingredients: &[Ingredient],
    dataset: &Dataset,
    cfg: &ModelConfig,
    partitioning: &Partitioning,
    epochs: usize,
    reps: usize,
    seed: u64,
) -> StrategyComparison {
    let hyper = LearnedHyper {
        epochs,
        ..Default::default()
    };
    // Passing the (shared) partitioning through the context keeps it out of
    // both timings, so the ratio isolates the epoch loop the engine
    // accelerates.
    let ctx = SoupCtx::new(ingredients, dataset, cfg, seed).with_partitioning(partitioning);
    let soup = |pls: PartitionLearnedSouping| {
        pls.try_soup(&ctx)
            .expect("bench souping is not persisted")
            .expect("bench souping never stops early")
    };
    let baseline = best_outcome(reps, || {
        soup(
            PartitionLearnedSouping::new(
                LearnedHyper {
                    prop_cache: false,
                    ..hyper
                },
                PLS_K,
                PLS_R,
            )
            .with_subgraph_cache(0),
        )
    });
    let engine = best_outcome(reps, || {
        soup(PartitionLearnedSouping::new(hyper, PLS_K, PLS_R))
    });
    compare(baseline, engine)
}

fn main() {
    let mut preset = ExperimentPreset::from_args();
    let _span = soup_obs::span!("bench.souping");

    // The souping bench needs a pool, not a good pool: cap the Phase-1 cost
    // and put the wall-clock into the Phase-2 arms being compared.
    preset.ingredients = preset.ingredients.min(6);
    preset.train_epochs = preset.train_epochs.min(15);
    let (scale, reps) = match preset.name {
        "quick" => (0.75, 1),
        "standard" => (1.5, 2),
        _ => (2.5, 3),
    };
    let seed = 42u64;
    let dataset = medium_dataset(scale, seed);
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(16);
    println!(
        "souping engine bench (preset '{}'): reddit-dense x{scale} — {} nodes, {} edges, {} ingredients",
        preset.name,
        dataset.num_nodes(),
        dataset.graph.num_edges(),
        preset.ingredients,
    );
    let ingredients = train_pool(&dataset, &cfg, &preset, seed);
    let partitioning = partition_val_balanced(
        &dataset.graph,
        &dataset.splits,
        &PartitionConfig::new(PLS_K).with_seed(seed),
    );

    let ls_epochs = preset.learned_epochs;
    let pls_epochs = preset.learned_epochs * 5;
    let gis = gis_comparison(
        &ingredients,
        &dataset,
        &cfg,
        preset.gis_granularity,
        reps,
        seed,
    );
    let ls = ls_comparison(&ingredients, &dataset, &cfg, ls_epochs, reps, seed);
    let pls = pls_comparison(
        &ingredients,
        &dataset,
        &cfg,
        &partitioning,
        pls_epochs,
        reps,
        seed,
    );

    let report = SoupingReport {
        dataset: format!("reddit-dense-synthetic x{scale}"),
        nodes: dataset.num_nodes(),
        edges: dataset.graph.num_edges(),
        ingredients: ingredients.len(),
        hidden: cfg.hidden,
        gis,
        ls,
        pls,
        counters: EngineCounters {
            prop_builds: counter("soup.cache.prop_builds"),
            prop_hits: counter("soup.cache.prop_hits"),
            subgraph_cache_hits: counter("soup.pls.subgraph_cache_hits"),
            subgraph_cache_misses: counter("soup.pls.subgraph_cache_misses"),
            blends_fused: counter("tensor.soup.blends_fused"),
            blend_allocs_avoided: counter("tensor.soup.blend_allocs_avoided"),
        },
    };

    let sidecar = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_souping.json");
    std::fs::write(
        sidecar,
        serde_json::to_string_pretty(&report).unwrap() + "\n",
    )
    .expect("write sidecar");
    println!("\nwrote {sidecar}:");
    for (name, c) in [
        ("GIS", &report.gis),
        ("LS", &report.ls),
        ("PLS", &report.pls),
    ] {
        println!(
            "  {name:<4} speedup {:.2}x ({:.1} -> {:.1} ms)  val {:.2}%  bitwise {}  spmm saved {}",
            c.speedup,
            c.baseline_ms,
            c.engine_ms,
            c.val_accuracy * 100.0,
            if c.bitwise_identical {
                "ok"
            } else {
                "MISMATCH"
            },
            c.spmm_saved,
        );
        if !c.bitwise_identical {
            eprintln!("warning: {name} engine soup differs from baseline soup");
        }
    }
    println!(
        "  counters: prop hits {}, subgraph hits {}/{} (miss), fused blends {}, allocs avoided {}",
        report.counters.prop_hits,
        report.counters.subgraph_cache_hits,
        report.counters.subgraph_cache_misses,
        report.counters.blends_fused,
        report.counters.blend_allocs_avoided,
    );

    drop(_span);
    finish_observability();
}
