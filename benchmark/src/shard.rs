//! `shard_k2`: the multi-process sharded Phase 1 over a prepared
//! out-of-core dataset, with this binary re-executing itself as the two
//! shard workers.
//!
//! The only workload where the process supervisor, the halo exchange, the
//! per-shard journals and the mmap-fed feature rows do the work, and where
//! a worker's `VmHWM` is the paper's R/K memory number.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use soup_distrib::{
    analyze_sharding, prepare_sharded_dataset, run_shard_worker, run_sharded, PrepareReport,
    ShardPlan, WorkerLaunch,
};
use soup_graph::mmap::{save_mmap_dataset, MmapDataset};
use soup_graph::SbmConfig;

use crate::pipeline::{generate, record_tensor_counters};
use crate::sys::Stopwatch;
use crate::trace::Counters;
use crate::{probe, sub_seed, sys, Ctx, Rep, Workload};

/// Shards = worker processes (`K` ≤ the box's two cores).
const K: usize = 2;
const INGREDIENTS_PER_SHARD: usize = 3;
const HIDDEN: usize = 64;
const TRAIN_EPOCHS: usize = 6;
const SOUP_EPOCHS: usize = 12;
/// Three possible partition pairs, so that twelve epochs draw every one of
/// them in nearly every run: each pair has its own buffer sizes, which the
/// tensor pool keeps, and a worker's resident peak follows how many were
/// drawn.
const PLS_K: usize = 3;
const PLS_R: usize = 2;
/// File a traced worker leaves its registry counters in.
const COUNTERS_FILE: &str = "bench-counters.txt";

fn sbm() -> SbmConfig {
    crate::pipeline::sbm(20_000, 24.0, 128, 0.10)
}

struct Env {
    sharded: PathBuf,
    source: PathBuf,
    report: PrepareReport,
}

pub struct ShardK2 {
    env: Option<Env>,
    reps_done: usize,
}

impl ShardK2 {
    pub fn new() -> Self {
        Self {
            env: None,
            reps_done: 0,
        }
    }
}

/// `path` relative to the working directory when it lies below it: Unix
/// socket paths are capped at 108 bytes, and the run directory holds the
/// control and halo sockets.
fn shorten(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

impl Workload for ShardK2 {
    fn setup(&mut self, ctx: &mut Ctx) {
        self.env = None;
        let seed = ctx.seed;
        let (dataset, generate_s) = ctx
            .tracer
            .call("soup-graph", "generate", || generate(&sbm(), seed));
        let source = ctx.work.join("source.gmm");
        let sharded = ctx.work.join("sharded.gmm");
        let (written, write_s) = ctx.tracer.call("soup-graph", "save_mmap_dataset", || {
            save_mmap_dataset(&dataset, &source)
        });
        written.expect("writing the mmap dataset");
        drop(dataset);
        let (report, prepare_s) =
            ctx.tracer
                .call("soup-distrib", "prepare_sharded_dataset", || {
                    prepare_sharded_dataset(&source, K, &sharded)
                });
        let report = report.expect("preparing the sharded dataset");
        ctx.setup.insert("soup-graph.generate_s".into(), generate_s);
        ctx.setup.insert("soup-graph.mmap_write_s".into(), write_s);
        ctx.setup.insert(
            "soup-graph.file_bytes".into(),
            std::fs::metadata(&sharded).map_or(0, |m| m.len()) as f64,
        );
        ctx.setup.insert("soup-distrib.prepare_s".into(), prepare_s);
        ctx.setup.insert(
            "soup-partition.edge_cut".into(),
            report.quality.edge_cut as f64,
        );
        ctx.setup
            .insert("soup-partition.balance".into(), report.quality.balance);
        ctx.setup.insert(
            "soup-partition.halo_fraction".into(),
            report.quality.halo_fraction,
        );
        self.env = Some(Env {
            sharded,
            source,
            report,
        });
    }

    fn rep(&mut self, ctx: &mut Ctx) -> Rep {
        let env = self.env.as_ref().expect("set-up ran");
        let mut rep = Rep::default();
        let traced = ctx.tracer.on;
        let run_dir = shorten(&ctx.work.join(format!("r{}", self.reps_done)));
        self.reps_done += 1;
        let _ = std::fs::remove_dir_all(&run_dir);
        let plan = ShardPlan {
            version: 1,
            dataset: env.sharded.display().to_string(),
            k: K,
            ranges: env.report.ranges.clone(),
            seed: sub_seed(ctx.seed, 1),
            rounds: INGREDIENTS_PER_SHARD,
            arch: "sage".into(),
            hidden: HIDDEN,
            layers: 2,
            dropout: 0.5,
            epochs: TRAIN_EPOCHS,
            lr: 0.02,
            strategy: "pls".into(),
            soup_epochs: SOUP_EPOCHS,
            pls_k: PLS_K,
            pls_r: PLS_R,
            out_dir: run_dir.display().to_string(),
            no_shm: false,
            resume: false,
            worker_timeout_ms: 60_000,
            restart_budget: 0,
            chaos: None,
        };
        let exe = std::env::current_exe().expect("path of this executable");
        let mode: &[&str] = if traced {
            &["shard-worker", "--dump-counters"]
        } else {
            &["shard-worker"]
        };
        let launch = WorkerLaunch::new(exe, mode);

        let before = traced.then(Counters::now);
        let watch = Stopwatch::start();
        let (report, _) = ctx.tracer.call("soup-distrib", "run_sharded", || {
            run_sharded(&plan, &launch)
        });
        rep.set("wall_s", watch.wall_s());
        rep.set("cpu_s", watch.cpu_s());
        rep.set("soup-distrib.run_s", watch.wall_s());
        match report {
            Ok(report) => {
                for shard in 0..K {
                    rep.op(report.per_shard.iter().any(|r| r.shard == shard), || {
                        format!("shard {shard} returned no result")
                    });
                }
                rep.check(!report.is_degraded() && report.restarts == 0, || {
                    format!(
                        "run degraded: missing {:?}, restarts {}",
                        report.missing, report.restarts
                    )
                });
                rep.check(
                    report.per_shard.iter().all(|r| {
                        r.ingredients == INGREDIENTS_PER_SHARD && r.val_accuracy.is_finite()
                    }),
                    || "a shard trained fewer ingredients than planned".into(),
                );
                let walls: Vec<f64> = report.per_shard.iter().map(|r| r.wall_ms as f64).collect();
                let (lo, hi) = walls.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
                    (lo.min(w), hi.max(w))
                });
                rep.set("test_acc", report.test_accuracy);
                rep.set("peak_rss_bytes", report.max_worker_peak_rss as f64);
                rep.set("soup-distrib.worker_wall_max_ms", hi);
                rep.set("soup-distrib.worker_wall_spread", (hi - lo) / hi.max(1.0));
                rep.set(
                    "soup-distrib.halo_nodes",
                    report.per_shard.iter().map(|r| r.halo_nodes).sum::<usize>() as f64,
                );
                rep.set(
                    "soup-distrib.used_shm",
                    report.per_shard.iter().all(|r| r.used_shm) as u8 as f64,
                );
                rep.set("soup-distrib.restarts", report.restarts as f64);
                rep.set(
                    "soup-distrib.worker_rss_sum_bytes",
                    report
                        .per_shard
                        .iter()
                        .map(|r| r.peak_rss_bytes)
                        .sum::<u64>() as f64,
                );
                rep.set(
                    "soup-distrib.coordinator_rss_bytes",
                    sys::peak_rss_bytes() as f64,
                );
            }
            Err(e) => {
                for shard in 0..K {
                    rep.op(false, || format!("shard {shard}: run failed: {e}"));
                }
            }
        }
        if let Some(before) = before {
            // The kernels ran in the workers; their registries were left
            // in each shard directory.
            let mut worker_totals = BTreeMap::new();
            for shard in 0..K {
                read_counters(
                    &plan.shard_dir(shard).join(COUNTERS_FILE),
                    &mut worker_totals,
                );
            }
            let workers = Counters::from_totals(worker_totals);
            record_tensor_counters(&mut rep, &Counters::empty(), &workers);
            rep.set("soup-gnn.epochs", workers.counter("gnn.epochs") as f64);
            let after = Counters::now();
            rep.set(
                "soup-store.durable_writes",
                after.delta(&before, "store.durable_writes")
                    + workers.counter("store.durable_writes") as f64,
            );
            rep.set("soup-store.bytes_written", sys::tree_bytes(&run_dir) as f64);
        }
        let _ = std::fs::remove_dir_all(&run_dir);
        rep
    }

    fn probe(&mut self, ctx: &mut Ctx, reps: &[Rep], out: &mut Rep) {
        let env = self.env.as_ref().expect("set-up ran");
        let (mmap, open_s) = ctx.tracer.call("soup-graph", "MmapDataset::open", || {
            MmapDataset::open(&env.source)
        });
        let mmap = mmap.expect("opening the source dataset");
        out.set("soup-graph.mmap_open_s", open_s);
        let (_, ldg_s) = ctx.tracer.call("soup-partition", "analyze_sharding", || {
            analyze_sharding(&mmap, K)
        });
        out.set("soup-partition.ldg_s", ldg_s);
        let (dataset, load_s) = ctx
            .tracer
            .call("soup-graph", "MmapDataset::load", || mmap.load());
        let dataset = dataset.expect("loading the source dataset");
        out.set("soup-graph.mmap_load_s", load_s);
        let cfg = soup_gnn::ModelConfig::sage(dataset.num_features(), dataset.num_classes())
            .with_hidden(HIDDEN);
        let ops = soup_gnn::PropOps::prepare(cfg.arch, &dataset.graph);
        probe::tensor_kernels(ctx, &dataset.features, &cfg, &ops, &mut out.values);
        probe::estimated_shares(reps, &mut out.values);
    }

    fn identical_across_reps(&self) -> &'static [&'static str] {
        &["test_acc"]
    }
}

/// Body of the hidden `shard-worker` mode: `[--dump-counters] --plan <file>
/// --shard <i> --epoch <e>`, as the coordinator appends them.
pub fn worker_main(args: &[String]) -> i32 {
    let mut plan = None;
    let mut shard = None;
    let mut epoch = 0u32;
    let mut dump = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dump-counters" => dump = true,
            "--plan" => plan = it.next().map(PathBuf::from),
            "--shard" => shard = it.next().and_then(|s| s.parse::<usize>().ok()),
            "--epoch" => epoch = it.next().and_then(|s| s.parse().ok()).unwrap_or(0),
            other => {
                eprintln!("shard-worker: unexpected argument {other}");
                return 2;
            }
        }
    }
    let (Some(plan), Some(shard)) = (plan, shard) else {
        eprintln!("shard-worker: --plan and --shard are required");
        return 2;
    };
    match run_shard_worker(&plan, shard, epoch) {
        Ok(_) => {
            if dump {
                if let Some(dir) = plan.parent() {
                    let path = dir.join(format!("shard-{shard}")).join(COUNTERS_FILE);
                    let text: String = soup_obs::registry::snapshot()
                        .counters
                        .iter()
                        .map(|(name, value)| format!("{name} {value}\n"))
                        .collect();
                    if let Err(e) = std::fs::write(&path, text) {
                        eprintln!("shard-worker: {}: {e}", path.display());
                    }
                }
            }
            0
        }
        Err(e) => {
            eprintln!("shard-worker {shard}: {e}");
            1
        }
    }
}

fn read_counters(path: &Path, totals: &mut BTreeMap<String, u64>) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    for line in text.lines() {
        if let Some((name, value)) = line.split_once(' ') {
            *totals.entry(name.to_string()).or_insert(0) += value.parse::<u64>().unwrap_or(0);
        }
    }
}
