//! The shard worker process: one shard's Phase-1 + PLS, end to end.
//!
//! Launched by [`crate::shard::run_sharded`] as `<exe> [prefix...] --plan
//! <plan.json> --shard <i> --epoch <e>` (hidden `soupctl shard-worker`
//! subcommand, or `bench_shard` re-executing itself). The worker:
//!
//! 1. heartbeats on its stdin, which the supervisor made one end of a
//!    socket pair, and maps the shard-ordered dataset `MAP_SHARED`;
//! 2. builds the local training graph: owned nodes plus their 1-hop
//!    out-of-shard neighbors (halo). Halo nodes contribute *features
//!    only* — halo↔halo edges are dropped because reading a halo node's
//!    adjacency row would touch another shard's pages (the standard
//!    1-hop-halo approximation of distributed GNN training). Halo feature
//!    rows are copied from their owners' pages of the same map; then the
//!    map is dropped, so training holds no mapped pages beside the copy;
//! 3. trains its `rounds` ingredients with the ordinary thread trainer
//!    ([`crate::train_ingredients_opts`]) — its checkpoints land in
//!    `out_dir/shard-<i>/`, so `--resume` revalidates per shard;
//! 4. soups shard-locally (PLS by default), writes owned-test-node counts,
//!    wall time and its own `VmHWM` peak RSS durably to
//!    `shard-<i>/result.json`, and returns — the process exit is its report.
//!
//! Workers share nothing but the read-only map, so none waits for another,
//! and none needs a coordinator: run by hand, with a stdin that is not a
//! socket, a worker sends no heartbeats and still runs to completion.
//! Determinism: shard `i` derives its seed from the plan seed and `i`
//! alone, and the trainer keys every ingredient by ordinal — so reruns
//! are bit-identical (asserted by `tests/shard_pipeline.rs`).

use std::io::Write;
use std::os::fd::{AsFd, OwnedFd};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use soup_error::SoupError;
use soup_gnn::{ModelConfig, TrainConfig};
use soup_graph::mmap::MmapDataset;
use soup_graph::{CsrGraph, Dataset, Splits};
use soup_store::fault;
use soup_tensor::{parallel, SplitMix64, Tensor};

use crate::shard::{ShardPlan, ShardResult};
use crate::trainer::TrainOpts;

type Result<T> = std::result::Result<T, SoupError>;

/// The shard-local view assembled from the mmap dataset.
struct LocalView {
    dataset: Dataset,
    halo: Vec<u32>,
}

/// Build the local graph/features/splits for `shard`. Touches only the
/// owned range's adjacency+feature pages, the halo nodes' feature rows,
/// and the small label/split sections.
fn build_local_view(mmap: &MmapDataset, plan: &ShardPlan, shard: usize) -> LocalView {
    let owned = plan.range(shard);
    let m = owned.len();
    let dim = mmap.feature_dim();

    // Halo discovery: out-of-range neighbors of owned nodes, deduped.
    let mut halo: Vec<u32> = Vec::new();
    for v in owned.clone() {
        for &u in mmap.neighbors(v) {
            if !owned.contains(&(u as usize)) {
                halo.push(u);
            }
        }
    }
    halo.sort_unstable();
    halo.dedup();
    let local_of = |g: usize| -> usize {
        if owned.contains(&g) {
            g - owned.start
        } else {
            m + halo.binary_search(&(g as u32)).expect("halo id known")
        }
    };

    // Local adjacency: every edge incident to an owned node. `from_edges`
    // symmetrises and dedups, so owned↔owned pairs appearing twice and
    // owned↔halo pairs appearing once both come out right.
    let n_local = m + halo.len();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for v in owned.clone() {
        let lv = (v - owned.start) as u32;
        for &u in mmap.neighbors(v) {
            edges.push((lv, local_of(u as usize) as u32));
        }
    }
    let graph = CsrGraph::from_edges(n_local, &edges);
    drop(edges);

    // Features: owned rows from our own pages, then halo rows from their
    // owners' pages of the same shared map.
    let mut data = vec![0f32; n_local * dim];
    let rows = owned.clone().chain(halo.iter().map(|&g| g as usize));
    for (row, v) in data.chunks_exact_mut(dim.max(1)).zip(rows) {
        row.copy_from_slice(mmap.feature_row(v));
    }
    let features = Tensor::from_vec(n_local, dim, data);

    let labels_all = mmap.labels();
    let mut labels: Vec<u32> = Vec::with_capacity(n_local);
    labels.extend(owned.clone().map(|v| labels_all[v]));
    labels.extend(halo.iter().map(|&g| labels_all[g as usize]));

    // Owned slice of each (sorted) split section, relocated to local ids.
    let localise = |ids: &[u32]| -> Vec<usize> {
        let lo = ids.partition_point(|&v| (v as usize) < owned.start);
        let hi = ids.partition_point(|&v| (v as usize) < owned.end);
        ids[lo..hi]
            .iter()
            .map(|&v| v as usize - owned.start)
            .collect()
    };
    let splits = Splits {
        train: localise(mmap.train_ids()),
        val: localise(mmap.val_ids()),
        test: localise(mmap.test_ids()),
    };

    let dataset = Dataset::from_parts(graph, features, labels, splits, mmap.num_classes());
    LocalView { dataset, halo }
}

/// Derive shard `i`'s private seed from the plan seed.
pub fn shard_seed(root_seed: u64, shard: usize) -> u64 {
    SplitMix64::new(root_seed)
        .derive(0x5a4d_0000 + shard as u64)
        .snapshot()
        .0
}

/// Stdin, when it is a socket: the supervisor made it one end of a socket
/// pair and drains the other for heartbeats. `None` for a worker run by
/// hand.
fn heartbeat_socket() -> Option<UnixStream> {
    let fd = std::io::stdin().as_fd().try_clone_to_owned().ok()?;
    let stdin = std::fs::File::from(fd);
    let is_socket = stdin.metadata().is_ok_and(|m| m.file_type().is_socket());
    is_socket.then(|| UnixStream::from(OwnedFd::from(stdin)))
}

/// Run one shard worker to completion. This is the body of the hidden
/// `soupctl shard-worker` subcommand. `epoch` is the session epoch the
/// supervisor assigned to this incarnation: 0 on first spawn, higher
/// after a respawn — in which case the worker resumes from its checkpoints
/// regardless of the plan's resume bit, which is what makes a recovered
/// run bit-identical to an uninterrupted one.
pub fn run_shard_worker(plan_path: &Path, shard: usize, epoch: u32) -> Result<ShardResult> {
    let start = Instant::now();
    let plan = ShardPlan::load(plan_path)?;
    let interval =
        (plan.worker_timeout() / 4).clamp(Duration::from_millis(25), Duration::from_secs(5));
    // K workers share the machine's cores: each runs its kernels on an
    // equal share of them.
    let kernel_threads = (parallel::cores() / plan.k.max(1)).max(1);
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        if let Some(mut socket) = heartbeat_socket() {
            // One byte per interval until the work is done (`stop`
            // dropped) or the supervisor's end is gone.
            scope.spawn(move || {
                while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout)
                    && socket.write_all(&[0]).is_ok()
                {}
            });
        }
        let result = parallel::with_threads(kernel_threads, || {
            run_loaded_worker(plan, shard, epoch, start)
        });
        drop(stop);
        result
    })
}

/// [`run_shard_worker`] once the plan is loaded, under the worker's
/// kernel-thread budget.
fn run_loaded_worker(
    plan: ShardPlan,
    shard: usize,
    epoch: u32,
    start: Instant,
) -> Result<ShardResult> {
    if shard >= plan.k {
        return Err(SoupError::usage(format!(
            "shard {shard} out of range for k={}",
            plan.k
        )));
    }
    // The plan's fault arm, if it names this incarnation; its crash points
    // end the process as a real crash would.
    if let Some(arm) = &plan.chaos {
        if arm.shard == shard && (epoch == 0 || arm.every_incarnation) {
            fault::arm(&arm.site, arm.hit, true);
        }
    }
    fault::crash("worker.spawn")?;
    let shard_dir = plan.shard_dir(shard);
    std::fs::create_dir_all(&shard_dir).map_err(|e| SoupError::io_at(&shard_dir, e))?;

    let mmap = MmapDataset::open(plan.dataset_path())?;
    plan.check_nodes(mmap.num_nodes())?;
    fault::crash("worker.fetch")?;
    let view = build_local_view(&mmap, &plan, shard);
    let cfg = make_model_config(&plan, mmap.feature_dim(), mmap.num_classes())?;
    // Everything training reads is in `view` now: unmap before it starts.
    drop(mmap);

    let seed = shard_seed(plan.seed, shard);
    let tc = TrainConfig {
        epochs: plan.epochs,
        lr: plan.lr,
        weight_decay: 5e-4,
        minibatch: None,
        early_stop_patience: None,
        eval_every: 5,
        swa: None,
    };
    let opts = TrainOpts {
        workers: 1,
        seed,
        checkpoint_dir: Some(shard_dir.clone()),
        // A respawned incarnation always resumes: its predecessor's
        // checkpoints are the whole point of recovery.
        resume: plan.resume || epoch > 0,
        ..TrainOpts::default()
    };
    let run = crate::trainer::train_ingredients_opts(&view.dataset, &cfg, &tc, plan.rounds, &opts)?;
    fault::crash("worker.train")?;
    if run.ingredients.is_empty() {
        return Err(SoupError::corrupt(format!(
            "shard {shard}: no ingredient survived Phase-1"
        )));
    }
    // Write the manifest so the shard dir is a first-class pool:
    // `soupctl verify/soup/eval` all load it like any single-process run.
    let manifest = soup_core::Manifest {
        config: cfg.clone(),
        ingredients: run
            .ingredients
            .iter()
            .map(|ing| soup_core::ManifestEntry {
                id: ing.id,
                val_accuracy: ing.val_accuracy,
                train_seed: ing.train_seed,
                file: soup_gnn::checkpoint_name(ing.id),
            })
            .collect(),
    };
    soup_core::write_manifest(&shard_dir.join("manifest.json"), &manifest)?;
    fault::crash("worker.soup")?;

    let mut spec = soup_core::StrategySpec::new(plan.strategy.clone());
    spec.epochs = plan.soup_epochs;
    spec.pls_k = plan.pls_k;
    spec.pls_r = plan.pls_r;
    let strategy = spec.build()?;
    let soup_seed = SplitMix64::new(seed).derive(2).snapshot().0;
    let ctx = soup_core::SoupCtx::new(&run.ingredients, &view.dataset, &cfg, soup_seed);
    let outcome = strategy
        .try_soup(&ctx)?
        .ok_or_else(|| SoupError::corrupt(format!("shard {shard}: soup stopped mid-run")))?;

    let test_total = view.dataset.splits.test.len() as u64;
    let test_accuracy = if test_total > 0 {
        soup_core::strategy::test_accuracy(&outcome, &view.dataset, &cfg)
    } else {
        0.0
    };
    let correct = (test_accuracy * test_total as f64).round() as u64;
    fault::crash("worker.report")?;

    let result = ShardResult {
        shard,
        correct,
        test_total,
        val_accuracy: outcome.val_accuracy,
        test_accuracy,
        wall_ms: start.elapsed().as_millis() as u64,
        peak_rss_bytes: soup_obs::series::peak_rss_bytes().unwrap_or(0),
        ingredients: run.ingredients.len(),
        resumed: run.resumed.len(),
        halo_nodes: view.halo.len(),
        used_shm: true,
    };
    let json = serde_json::to_string(&result)
        .map_err(|e| SoupError::usage(format!("shard result serialise: {e}")))?;
    soup_store::write_durable(plan.result_path(shard), json.as_bytes())?;
    Ok(result)
}

fn make_model_config(plan: &ShardPlan, in_dim: usize, out_dim: usize) -> Result<ModelConfig> {
    let arch = soup_gnn::Arch::from_name(&plan.arch)
        .ok_or_else(|| SoupError::usage(format!("unknown arch '{}'", plan.arch)))?;
    let base = ModelConfig::gcn(in_dim, out_dim);
    Ok(ModelConfig {
        arch,
        hidden: plan.hidden,
        layers: plan.layers,
        dropout: plan.dropout,
        ..base
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soup_graph::mmap::save_mmap_dataset;
    use soup_graph::DatasetKind;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("soup-shardworker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        assert_eq!(shard_seed(7, 0), shard_seed(7, 0));
        assert_ne!(shard_seed(7, 0), shard_seed(7, 1));
        assert_ne!(shard_seed(7, 0), shard_seed(8, 0));
    }

    #[test]
    fn local_view_covers_owned_nodes_and_halo_features_match() {
        let dir = tmpdir("view");
        let d = DatasetKind::Flickr.generate_scaled(31, 0.03);
        let src = dir.join("src.gmm");
        let sharded = dir.join("sharded.gmm");
        save_mmap_dataset(&d, &src).unwrap();
        let report = crate::shard::prepare_sharded_dataset(&src, 2, &sharded).unwrap();
        let plan = ShardPlan {
            version: 1,
            dataset: sharded.display().to_string(),
            k: 2,
            ranges: report.ranges.clone(),
            seed: 1,
            rounds: 1,
            arch: "gcn".into(),
            hidden: 8,
            layers: 2,
            dropout: 0.0,
            epochs: 1,
            lr: 0.01,
            strategy: "us".into(),
            soup_epochs: 1,
            pls_k: 2,
            pls_r: 1,
            out_dir: dir.display().to_string(),
            no_shm: false,
            resume: false,
            worker_timeout_ms: 30_000,
            restart_budget: 2,
            chaos: None,
        };
        let mmap = MmapDataset::open(&sharded).unwrap();
        let view = build_local_view(&mmap, &plan, 0);
        let owned = plan.range(0);
        let m = owned.len();
        assert_eq!(view.dataset.num_nodes(), m + view.halo.len());
        // Owned features are the shard's own rows, halo rows follow.
        for (l, g) in owned.clone().enumerate().step_by(7) {
            assert_eq!(view.dataset.features.row(l), mmap.feature_row(g));
        }
        for (i, &g) in view.halo.iter().enumerate().step_by(5) {
            assert_eq!(
                view.dataset.features.row(m + i),
                mmap.feature_row(g as usize)
            );
        }
        // Local splits only contain owned nodes.
        assert!(view.dataset.splits.train.iter().all(|&v| v < m));
        assert!(view.dataset.splits.test.iter().all(|&v| v < m));
        // Every owned edge to an owned neighbor survives.
        for (l, g) in owned.clone().enumerate().step_by(13) {
            for &u in mmap.neighbors(g) {
                if owned.contains(&(u as usize)) {
                    let lu = u as usize - owned.start;
                    assert!(view.dataset.graph.has_edge(l, lu), "lost edge {l}-{lu}");
                }
            }
        }
    }
}
