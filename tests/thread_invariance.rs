//! Kernels split their work at boundaries fixed by the data, never by the
//! thread count, so a pipeline run is bitwise the same on one kernel thread
//! or two: the Phase-1 checkpoint files and the US/GIS/LS/PLS soups.
//!
//! The 2-thread arm also checks the pool's worker-chunk counter, so on a
//! machine with two or more cores the comparison is not vacuous. The
//! counter is process-global: this is the only test in its binary.

use std::path::Path;

use enhanced_soups::distrib::{train_ingredients_opts, TrainOpts};
use enhanced_soups::gnn::checkpoint_name;
use enhanced_soups::partition::partition_val_balanced;
use enhanced_soups::prelude::*;
use enhanced_soups::soup::{SoupCtx, StrategySpec};
use enhanced_soups::tensor::parallel;

/// What one arm produced: checkpoint file bytes, then per strategy the
/// validation accuracy and the soup's parameter bits.
struct Arm {
    checkpoints: Vec<Vec<u8>>,
    soups: Vec<(String, u64, Vec<u32>)>,
}

fn run_arm(d: &Dataset, cfg: &ModelConfig, dir: &Path) -> Arm {
    let _ = std::fs::remove_dir_all(dir);
    let tc = TrainConfig {
        epochs: 6,
        eval_every: 6,
        ..TrainConfig::quick()
    };
    let opts = TrainOpts::default()
        .with_workers(1)
        .with_seed(5)
        .with_checkpoint_dir(dir);
    let run = train_ingredients_opts(d, cfg, &tc, 3, &opts).expect("Phase 1");
    assert_eq!(run.ingredients.len(), 3, "every ingredient trains");
    let checkpoints = (0..3)
        .map(|id| std::fs::read(dir.join(checkpoint_name(id))).expect("checkpoint file"))
        .collect();
    let partitioning =
        partition_val_balanced(&d.graph, &d.splits, &PartitionConfig::new(4).with_seed(5));
    let soups = ["us", "gis", "ls", "pls"]
        .iter()
        .map(|&name| {
            let mut spec = StrategySpec::new(name);
            spec.granularity = 4;
            spec.epochs = 4;
            spec.pls_k = 4;
            spec.pls_r = 2;
            let ctx = SoupCtx::new(&run.ingredients, d, cfg, 9).with_partitioning(&partitioning);
            let outcome = spec
                .build()
                .expect("known strategy")
                .try_soup(&ctx)
                .expect("soup runs")
                .expect("soup completes");
            let bits = outcome
                .params
                .flat()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect();
            (name.to_string(), outcome.val_accuracy.to_bits(), bits)
        })
        .collect();
    let _ = std::fs::remove_dir_all(dir);
    Arm { checkpoints, soups }
}

#[test]
fn pipeline_is_bitwise_identical_on_one_and_two_kernel_threads() {
    let d = DatasetKind::Flickr.generate_scaled(4, 1.0);
    let gcn = ModelConfig::gcn(d.num_features(), d.num_classes()).with_hidden(32);
    let gat = ModelConfig {
        arch: Arch::Gat,
        hidden: 8,
        heads: 2,
        ..gcn.clone()
    };
    let root = std::env::temp_dir().join(format!("soup_threads_{}", std::process::id()));
    for cfg in [gcn, gat] {
        let dir = root.join(format!("{:?}", cfg.arch));
        let one = parallel::with_threads(1, || run_arm(&d, &cfg, &dir));
        let before = parallel::worker_chunks();
        let two = parallel::with_threads(2, || run_arm(&d, &cfg, &dir));
        if parallel::cores() >= 2 {
            assert!(
                parallel::worker_chunks() > before,
                "{:?}: no chunk ran on a pool worker in the 2-thread arm",
                cfg.arch
            );
        }
        assert_eq!(
            one.checkpoints, two.checkpoints,
            "{:?} checkpoints",
            cfg.arch
        );
        for (a, b) in one.soups.iter().zip(&two.soups) {
            assert_eq!(
                a, b,
                "{:?} {} soup differs across thread counts",
                cfg.arch, a.0
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
