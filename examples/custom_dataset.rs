//! Bring-your-own-graph workflow: assemble a dataset from raw arrays,
//! persist it (and the trained ingredients) to disk, and soup with the
//! §VI/§VIII extensions (SWA ingredients, early stopping, ingredient
//! drop-out).
//!
//! Run: `cargo run --release --example custom_dataset`

use enhanced_soups::gnn::train::SwaConfig;
use enhanced_soups::gnn::{checkpoint_path, load_checkpoint};
use enhanced_soups::graph::mmap::{save_mmap_dataset, MmapDataset};
use enhanced_soups::graph::stats::degree_stats;
use enhanced_soups::graph::SbmConfig;
use enhanced_soups::prelude::*;
use enhanced_soups::soup::strategy::test_accuracy;
use enhanced_soups::soup::LearnedHyper;

fn main() -> Result<()> {
    // 1. Pretend these arrays came from the user's pipeline.
    let raw = SbmConfig {
        nodes: 1500,
        classes: 5,
        avg_degree: 14.0,
        feature_dim: 48,
        centroid_scale: 0.45,
        label_noise: 0.12,
        homophily: 0.6,
        ..Default::default()
    }
    .generate(123);
    let splits = enhanced_soups::graph::Splits::random(1500, 0.6, 0.2, 0.2, 123);
    let dataset = Dataset::from_parts(raw.graph, raw.features, raw.labels, splits, 5);
    let stats = degree_stats(&dataset.graph);
    println!(
        "custom dataset: {} nodes, {} edges, max degree {}, degree gini {:.3}",
        dataset.num_nodes(),
        dataset.graph.num_edges(),
        stats.max,
        stats.gini
    );

    // 2. Persist and reload (e.g. preprocessing once, experimenting later).
    let dir = std::env::temp_dir().join("enhanced_soups_example");
    std::fs::create_dir_all(&dir)?;
    let ds_path = dir.join("custom.gmm");
    save_mmap_dataset(&dataset, &ds_path)?;
    let dataset = MmapDataset::open(&ds_path)?.load()?;
    println!("round-tripped dataset through {}", ds_path.display());

    // 3. Train SWA ingredients (temporal averaging per ref [16]). The
    //    trainer checkpoints each one into `dir` as it completes, so a
    //    second run with `.with_resume(true)` would skip all of them.
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(24);
    let tc = TrainConfig {
        epochs: 25,
        swa: Some(SwaConfig::new(15, 2)),
        ..TrainConfig::quick()
    };
    let opts = TrainOpts::default()
        .with_workers(4)
        .with_seed(7)
        .with_checkpoint_dir(&dir);
    let run = train_ingredients_opts(&dataset, &cfg, &tc, 5, &opts)?;
    println!(
        "trained + checkpointed {} SWA ingredients",
        run.ingredients.len()
    );

    // 4. Reload the checkpoints and soup with the LS extensions.
    let reloaded: Vec<Ingredient> = run
        .ingredients
        .iter()
        .map(|ing| {
            let ck = load_checkpoint(checkpoint_path(&dir, ing.id)).expect("checkpoint readable");
            Ingredient::new(ck.id, ck.params, ck.val_accuracy, ck.train_seed)
        })
        .collect();
    let hyper = LearnedHyper {
        epochs: 60,
        early_stop_patience: Some(6),
        holdout_ratio: 0.3,
        prune_threshold: Some(0.02),
        ..Default::default()
    };
    let outcome = LearnedSouping::new(hyper).soup(&reloaded, &dataset, &cfg, 11);
    println!(
        "soup: val {:.2}%  test {:.2}%  ({} epochs before early stop)",
        outcome.val_accuracy * 100.0,
        test_accuracy(&outcome, &dataset, &cfg) * 100.0,
        outcome.stats.epochs
    );
    Ok(())
}
