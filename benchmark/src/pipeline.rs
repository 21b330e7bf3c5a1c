//! `pipeline_dense_gcn` and `pipeline_sparse_gat`: Phase 1 on the thread
//! pool, pool reload from the durable checkpoints, Phase 2 with all four
//! strategies, test accuracy of each soup.
//!
//! The two workloads share this code and differ only in their [`Spec`]:
//! the first is dominated by the dense update (GEMM and its tape) and
//! engages `PropCache`; the second by edge-wise attention, with a small
//! GEMM and no cache (GAT's first hop depends on the weights).

use std::path::PathBuf;

use soup_core::{load_manifest, write_manifest, Ingredient, Manifest, ManifestEntry};
use soup_core::{SoupCtx, SoupOutcome, StrategySpec};
use soup_distrib::{train_ingredients_opts, TrainOpts};
use soup_gnn::{
    checkpoint_name, evaluate_accuracy_cached, Arch, ModelConfig, PropCache, PropOps, TrainConfig,
};
use soup_graph::mmap::{save_mmap_dataset, MmapDataset};
use soup_graph::{Dataset, SbmConfig, Splits};
use soup_partition::{
    balance_ratio, edge_cut, partition_val_balanced, PartitionConfig, Partitioning,
};

use crate::probe;
use crate::sys::Stopwatch;
use crate::trace::Counters;
use crate::{sub_seed, Ctx, Rep, Workload};

/// Ingredients per rep and trainer threads (`W` ≤ the box's two cores).
pub const INGREDIENTS: usize = 6;
pub const TRAIN_WORKERS: usize = 2;
/// PLS partition pool and per-epoch budget.
pub const PLS_K: usize = 4;
pub const PLS_R: usize = 2;

const STRATEGIES: [&str; 4] = ["us", "gis", "ls", "pls"];
const GIS_GRANULARITY: usize = 8;
const LS_EPOCHS: usize = 12;
/// Enough epochs to draw each of the six partition pairs in every run.
const PLS_EPOCHS: usize = 24;

/// Sizes of one pipeline workload. Compile-time constants: a rep does the
/// same work on every run and every machine.
pub struct Spec {
    arch: Arch,
    nodes: usize,
    avg_degree: f64,
    feature_dim: usize,
    centroid_scale: f32,
    hidden: usize,
    heads: usize,
    train_epochs: usize,
    lr: f32,
}

/// Low degree, wide features, wide hidden layer: GEMM-bound.
pub const DENSE_GCN: Spec = Spec {
    arch: Arch::Gcn,
    nodes: 5_000,
    avg_degree: 5.0,
    feature_dim: 512,
    centroid_scale: 0.10,
    hidden: 128,
    heads: 1,
    train_epochs: 8,
    lr: 0.02,
};

/// High degree, narrow features, small hidden layer: attention-bound.
pub const SPARSE_GAT: Spec = Spec {
    arch: Arch::Gat,
    nodes: 3_000,
    avg_degree: 64.0,
    feature_dim: 48,
    centroid_scale: 0.30,
    hidden: 8,
    heads: 4,
    train_epochs: 20,
    lr: 0.03,
};

impl Spec {
    fn sbm(&self) -> SbmConfig {
        sbm(
            self.nodes,
            self.avg_degree,
            self.feature_dim,
            self.centroid_scale,
        )
    }

    fn model(&self, in_dim: usize, out_dim: usize) -> ModelConfig {
        ModelConfig {
            arch: self.arch,
            hidden: self.hidden,
            heads: self.heads,
            ..ModelConfig::gcn(in_dim, out_dim)
        }
    }
}

/// The graph family of every workload: a degree-corrected SBM with 8
/// classes and 12 % label noise, which caps test accuracy near 0.89.
pub fn sbm(nodes: usize, avg_degree: f64, feature_dim: usize, centroid_scale: f32) -> SbmConfig {
    SbmConfig {
        nodes,
        classes: 8,
        avg_degree,
        homophily: 0.8,
        hub_fraction: 0.05,
        hub_boost: 4.0,
        feature_dim,
        centroid_scale,
        feature_noise: 1.0,
        label_noise: 0.12,
    }
}

/// Full-batch training for a fixed number of epochs, validated once at the
/// end: no early stopping, so every run trains the same number of steps.
pub fn train_config(epochs: usize, lr: f32) -> TrainConfig {
    TrainConfig {
        epochs,
        lr,
        weight_decay: 5e-4,
        minibatch: None,
        early_stop_patience: None,
        eval_every: epochs,
        swa: None,
    }
}

/// Generate the seeded dataset of a spec (also used by `serve_swap`).
pub fn generate(sbm: &SbmConfig, seed: u64) -> Dataset {
    let synth = sbm.generate(seed);
    let splits = Splits::random(sbm.nodes, 0.3, 0.2, 0.5, seed);
    Dataset::from_parts(
        synth.graph,
        synth.features,
        synth.labels,
        splits,
        sbm.classes,
    )
}

/// What set-up leaves for the reps.
pub struct Env {
    pub dataset: Dataset,
    pub cfg: ModelConfig,
    pub tc: TrainConfig,
    pub partitioning: Partitioning,
    pub ops: PropOps,
    pub cache: PropCache,
}

pub struct Pipeline {
    spec: Spec,
    env: Option<Env>,
    reps_done: usize,
}

impl Pipeline {
    pub fn new(spec: Spec) -> Self {
        Self {
            spec,
            env: None,
            reps_done: 0,
        }
    }
}

/// Generate → durable mmap file → open → load → k-way partition →
/// propagation operator and cache. Shared with `serve_swap`'s set-up.
pub fn setup_dataset(ctx: &mut Ctx, sbm: &SbmConfig, arch: Arch) -> (Dataset, PropOps, PropCache) {
    let seed = ctx.seed;
    let (generated, generate_s) = ctx
        .tracer
        .call("soup-graph", "generate", || generate(sbm, seed));
    let path = ctx.work.join("dataset.gmm");
    let (written, write_s) = ctx.tracer.call("soup-graph", "save_mmap_dataset", || {
        save_mmap_dataset(&generated, &path)
    });
    written.expect("writing the mmap dataset");
    drop(generated);
    let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let (mmap, open_s) = ctx.tracer.call("soup-graph", "MmapDataset::open", || {
        MmapDataset::open(&path)
    });
    let mmap = mmap.expect("opening the mmap dataset");
    let (dataset, load_s) = ctx
        .tracer
        .call("soup-graph", "MmapDataset::load", || mmap.load());
    let dataset = dataset.expect("loading the mmap dataset");
    drop(mmap);
    let ((ops, cache), build_s) = ctx.tracer.call("soup-gnn", "PropCache::new", || {
        let ops = PropOps::prepare(arch, &dataset.graph);
        let cache = PropCache::new(&ops, &dataset.features);
        (ops, cache)
    });
    ctx.setup.insert("soup-graph.generate_s".into(), generate_s);
    ctx.setup.insert("soup-graph.mmap_write_s".into(), write_s);
    ctx.setup.insert("soup-graph.mmap_open_s".into(), open_s);
    ctx.setup.insert("soup-graph.mmap_load_s".into(), load_s);
    ctx.setup
        .insert("soup-graph.file_bytes".into(), file_bytes as f64);
    ctx.setup
        .insert("soup-gnn.propcache_build_ms".into(), build_s * 1e3);
    (dataset, ops, cache)
}

impl Workload for Pipeline {
    fn setup(&mut self, ctx: &mut Ctx) {
        self.env = None;
        let (dataset, ops, cache) = setup_dataset(ctx, &self.spec.sbm(), self.spec.arch);
        let seed = ctx.seed;
        let (partitioning, kway_s) =
            ctx.tracer
                .call("soup-partition", "partition_val_balanced", || {
                    partition_val_balanced(
                        &dataset.graph,
                        &dataset.splits,
                        &PartitionConfig::new(PLS_K).with_seed(seed),
                    )
                });
        ctx.setup.insert("soup-partition.kway_s".into(), kway_s);
        ctx.setup.insert(
            "soup-partition.edge_cut".into(),
            edge_cut(&dataset.graph, &partitioning.assignment) as f64,
        );
        ctx.setup.insert(
            "soup-partition.balance".into(),
            balance_ratio(
                &vec![1.0; dataset.num_nodes()],
                &partitioning.assignment,
                PLS_K,
            ),
        );
        let cfg = self
            .spec
            .model(dataset.num_features(), dataset.num_classes());
        self.env = Some(Env {
            cfg,
            tc: train_config(self.spec.train_epochs, self.spec.lr),
            partitioning,
            dataset,
            ops,
            cache,
        });
    }

    fn rep(&mut self, ctx: &mut Ctx) -> Rep {
        let env = self.env.as_ref().expect("set-up ran");
        let mut rep = Rep::default();
        let traced = ctx.tracer.on;
        let dir: PathBuf = ctx.work.join(format!("pool-{}", self.reps_done));
        self.reps_done += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let train_seed = sub_seed(ctx.seed, 1);
        let soup_seed = sub_seed(ctx.seed, 2);

        let before = traced.then(Counters::now);
        let watch = Stopwatch::start();

        // Phase 1: R ingredients on W trainer threads, durable checkpoints.
        let opts = TrainOpts::default()
            .with_workers(TRAIN_WORKERS)
            .with_seed(train_seed)
            .with_checkpoint_dir(&dir);
        let (run, train_s) = ctx
            .tracer
            .call("soup-distrib", "train_ingredients_opts", || {
                train_ingredients_opts(&env.dataset, &env.cfg, &env.tc, INGREDIENTS, &opts)
            });
        let run = run.expect("Phase-1 set-up");
        for id in 0..INGREDIENTS {
            rep.op(run.ingredients.iter().any(|i| i.id == id), || {
                format!("ingredient {id} was not trained")
            });
        }
        rep.set("soup-distrib.train_wall_s", train_s);
        let busy_s: f64 = (0..TRAIN_WORKERS)
            .map(|w| soup_obs::registry::gauge(&format!("distrib.worker.{w}.busy_s")).get())
            .sum();
        rep.set("soup-distrib.worker_busy_s", busy_s);
        rep.set(
            "soup-distrib.worker_idle_share",
            1.0 - busy_s / (TRAIN_WORKERS as f64 * train_s),
        );
        rep.set("soup-distrib.requeues", run.retries as f64);

        // Reload the pool from what Phase 1 made durable.
        let (pool, reload_s) = ctx.tracer.call("soup-core", "load_manifest", || {
            let manifest = Manifest {
                config: env.cfg.clone(),
                ingredients: run
                    .ingredients
                    .iter()
                    .map(|i| ManifestEntry {
                        id: i.id,
                        val_accuracy: i.val_accuracy,
                        train_seed: i.train_seed,
                        file: checkpoint_name(i.id),
                    })
                    .collect(),
            };
            write_manifest(&dir.join("manifest.json"), &manifest)?;
            load_manifest(&dir)
        });
        let (_, pool): (ModelConfig, Vec<Ingredient>) = pool.expect("reloading the pool");
        rep.set("soup-core.pool_reload_s", reload_s);
        rep.check(
            pool.len() == run.ingredients.len()
                && pool.iter().zip(&run.ingredients).all(|(a, b)| {
                    a.id == b.id && a.params.flat().zip(b.params.flat()).all(|(x, y)| x == y)
                }),
            || "reloaded pool differs from the trained pool".into(),
        );
        let mean_val = pool.iter().map(|i| i.val_accuracy).sum::<f64>() / pool.len().max(1) as f64;
        drop(run);

        // Phase 2: every strategy through the registry.
        let mut soup_s = 0.0;
        let mut outcomes: Vec<(&str, SoupOutcome)> = Vec::new();
        for name in STRATEGIES {
            let mut spec = StrategySpec::new(name);
            spec.granularity = GIS_GRANULARITY;
            spec.epochs = if name == "pls" { PLS_EPOCHS } else { LS_EPOCHS };
            spec.pls_k = PLS_K;
            spec.pls_r = PLS_R;
            let strategy = spec.build().expect("known strategy");
            let soup_ctx = SoupCtx::new(&pool, &env.dataset, &env.cfg, soup_seed)
                .with_partitioning(&env.partitioning);
            let (outcome, s) = ctx
                .tracer
                .call("soup-core", format!("try_soup.{name}"), || {
                    strategy.try_soup(&soup_ctx)
                });
            soup_s += s;
            rep.set(&format!("soup-core.{name}_s"), s);
            match outcome {
                Ok(Some(outcome)) => {
                    let finite = outcome
                        .params
                        .flat()
                        .all(|t| t.data().iter().all(|v| v.is_finite()));
                    rep.op(finite && outcome.val_accuracy >= mean_val - 0.02, || {
                        format!(
                            "{name} soup: finite={finite}, val {:.4} vs mean ingredient val {mean_val:.4}",
                            outcome.val_accuracy
                        )
                    });
                    outcomes.push((name, outcome));
                }
                other => rep.op(false, || {
                    format!("{name} soup did not complete: {:?}", other.err())
                }),
            }
        }
        rep.set("soup-core.soup_s", soup_s);

        // Test accuracy of each soup (the benchmark's own evaluation).
        let mut lowest = f64::INFINITY;
        let mut soup_peak = 0usize;
        for (name, outcome) in &outcomes {
            let (acc, _) = ctx.tracer.call(
                "soup-gnn",
                format!("evaluate_accuracy_cached.{name}"),
                || {
                    evaluate_accuracy_cached(
                        &env.cfg,
                        &env.ops,
                        &env.cache,
                        &outcome.params,
                        &env.dataset.labels,
                        &env.dataset.splits.test,
                    )
                },
            );
            rep.set(&format!("soup-core.{name}_test_acc"), acc);
            lowest = lowest.min(acc);
            soup_peak = soup_peak.max(outcome.stats.peak_mem_bytes);
            if *name != "us" {
                rep.set(
                    &format!("soup-core.{name}_peak_bytes"),
                    outcome.stats.peak_mem_bytes as f64,
                );
            }
            if *name == "ls" || *name == "pls" {
                rep.set(
                    &format!("soup-core.{name}_epochs"),
                    outcome.stats.epochs as f64,
                );
            }
        }
        rep.set("wall_s", watch.wall_s());
        rep.set("cpu_s", watch.cpu_s());
        rep.set("test_acc", lowest);
        rep.set("soup-core.soup_peak_bytes", soup_peak as f64);
        rep.set(
            "soup-core.forward_passes",
            outcomes
                .iter()
                .map(|(_, o)| o.stats.forward_passes)
                .sum::<usize>() as f64,
        );
        rep.set(
            "soup-core.spmm_saved",
            outcomes
                .iter()
                .map(|(_, o)| o.stats.spmm_saved)
                .sum::<usize>() as f64,
        );

        if let Some(before) = before {
            let after = Counters::now();
            record_tensor_counters(&mut rep, &before, &after);
            record_tensor_memory(&mut rep);
            let d = |name: &str| after.delta(&before, name);
            rep.set("soup-gnn.epochs", d("gnn.epochs"));
            let forwards = rep.values["soup-core.forward_passes"];
            rep.set(
                "soup-core.prop_hit_ratio",
                if env.cache.cached_agg().is_some() {
                    d("soup.cache.prop_hits") / forwards.max(1.0)
                } else {
                    0.0
                },
            );
            let (hits, misses) = (
                d("soup.pls.subgraph_cache_hits"),
                d("soup.pls.subgraph_cache_misses"),
            );
            rep.set(
                "soup-core.subcache_hit_ratio",
                hits / (hits + misses).max(1.0),
            );
            rep.set("soup-store.durable_writes", d("store.durable_writes"));
            rep.set(
                "soup-distrib.claim_wait_p99_ns",
                soup_obs::registry::histogram("distrib.queue.claim_wait_ns").quantile(0.99) as f64,
            );
            rep.set(
                "soup-store.bytes_written",
                crate::sys::tree_bytes(&dir) as f64,
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        rep
    }

    fn probe(&mut self, ctx: &mut Ctx, reps: &[Rep], out: &mut Rep) {
        let env = self.env.as_ref().expect("set-up ran");
        let values = &mut out.values;
        probe::tensor_kernels(ctx, &env.dataset.features, &env.cfg, &env.ops, values);
        probe::gnn_and_store(
            ctx,
            &env.dataset,
            &env.cfg,
            &env.tc,
            &env.ops,
            &env.cache,
            values,
        );
        probe::subgraph(ctx, &env.dataset, &env.partitioning, values);
        probe::estimated_shares(reps, values);
        match probe::separation_check(self.spec.arch, values) {
            Ok(line) => println!("workload separation holds: {line}"),
            Err(problem) => out.problems.push(problem),
        }
        // The two pipelines also differ in whether `PropCache` is engaged.
        let ratio = reps
            .iter()
            .find(|r| r.traced)
            .and_then(|r| r.values.get("soup-core.prop_hit_ratio").copied())
            .unwrap_or(0.0);
        match self.spec.arch {
            Arch::Gat => out.check(ratio == 0.0, || {
                format!("GAT must bypass PropCache, saw hit ratio {ratio}")
            }),
            _ => out.check(ratio > 0.9, || {
                format!("PropCache hit ratio {ratio} is not above 0.9")
            }),
        }
    }

    fn identical_across_reps(&self) -> &'static [&'static str] {
        &["test_acc", "soup-core.soup_peak_bytes"]
    }
}

/// Counter deltas of the tensor layer over one rep.
pub fn record_tensor_counters(rep: &mut Rep, before: &Counters, after: &Counters) {
    let d = |name: &str| after.delta(before, name);
    rep.set("soup-tensor.matmul_flops", d("tensor.matmul.flops"));
    rep.set("soup-tensor.matmul_calls", d("tensor.matmul.calls"));
    rep.set("soup-tensor.spmm_flops", d("tensor.spmm.flops"));
    rep.set("soup-tensor.spmm_bytes", d("tensor.spmm.bytes"));
    rep.set("soup-tensor.attention_edges", d("tensor.attention.edges"));
    rep.set(
        "probe.attention_backward_share",
        d("tensor.attention.backward_calls") / d("tensor.attention.calls").max(1.0),
    );
    rep.set("soup-tensor.blends_fused", d("tensor.soup.blends_fused"));
    let (hits, misses) = (d("tensor.pool.hits"), d("tensor.pool.misses"));
    rep.set(
        "soup-tensor.pool_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
}

/// What this process's tensor pool and memory meter hold after a rep.
pub fn record_tensor_memory(rep: &mut Rep) {
    rep.set(
        "soup-tensor.pool_idle_bytes",
        soup_tensor::pool::idle_bytes() as f64,
    );
    rep.set(
        "soup-tensor.mem_peak_bytes",
        soup_tensor::DEVICE_MEMORY.peak() as f64,
    );
}
