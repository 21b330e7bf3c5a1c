//! Integration tests for the §VI/§VIII extension features across crates:
//! SWA ingredients, LS early stopping / pruning / val-batching, the
//! ensemble baseline, diversity reports, and PLS partitioner variants.

use enhanced_soups::gnn::model::init_params;
use enhanced_soups::gnn::train::SwaConfig;
use enhanced_soups::gnn::{
    checkpoint_path, load_checkpoint, save_checkpoint, train_single, Checkpoint,
};
use enhanced_soups::prelude::*;
use enhanced_soups::soup::ensemble::compare_soup_vs_ensemble;
use enhanced_soups::soup::{diversity_report, LearnedHyper, PartitionerKind};
use enhanced_soups::tensor::SplitMix64;

fn mixed_pool(seed: u64) -> (Dataset, ModelConfig, Vec<Ingredient>) {
    let dataset = DatasetKind::Flickr.generate_scaled(seed, 0.2);
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(16);
    let mut rng = SplitMix64::new(seed);
    let init = init_params(&cfg, &mut rng);
    let ingredients = (0..5)
        .map(|i| {
            let epochs = if i < 2 { 2 } else { 18 }; // two weak, three strong
            let tc = TrainConfig {
                epochs,
                ..TrainConfig::quick()
            };
            let tm = train_single(&dataset, &cfg, &tc, &init, 800 + i as u64);
            Ingredient::new(i, tm.params, tm.val_accuracy, 800 + i as u64)
        })
        .collect();
    (dataset, cfg, ingredients)
}

#[test]
fn pruned_ls_discards_weak_ingredients_and_stays_strong() {
    let (dataset, cfg, ingredients) = mixed_pool(1);
    let base = LearnedHyper {
        epochs: 30,
        ..Default::default()
    };
    let plain = LearnedSouping::new(base).soup(&ingredients, &dataset, &cfg, 3);
    let pruned = LearnedSouping::new(LearnedHyper {
        prune_threshold: Some(0.08),
        ..base
    })
    .soup(&ingredients, &dataset, &cfg, 3);
    // Pruned LS must not be substantially worse than plain LS, and both
    // must stay near the strong ingredients.
    let best = ingredients
        .iter()
        .map(|i| i.val_accuracy)
        .fold(0.0, f64::max);
    assert!(pruned.val_accuracy >= plain.val_accuracy - 0.03);
    assert!(pruned.val_accuracy >= best - 0.06);
}

#[test]
fn early_stopping_saves_epochs_without_large_accuracy_loss() {
    let (dataset, cfg, ingredients) = mixed_pool(2);
    let long = LearnedHyper {
        epochs: 120,
        ..Default::default()
    };
    let early = LearnedHyper {
        epochs: 120,
        early_stop_patience: Some(5),
        holdout_ratio: 0.3,
        ..Default::default()
    };
    let full = LearnedSouping::new(long).soup(&ingredients, &dataset, &cfg, 4);
    let stopped = LearnedSouping::new(early).soup(&ingredients, &dataset, &cfg, 4);
    assert!(
        stopped.stats.epochs < full.stats.epochs,
        "early stopping never fired"
    );
    assert!(stopped.val_accuracy >= full.val_accuracy - 0.04);
}

#[test]
fn swa_ingredients_flow_through_the_whole_pipeline() {
    let dataset = DatasetKind::OgbnArxiv.generate_scaled(3, 0.2);
    let cfg = ModelConfig::gcn(dataset.num_features(), dataset.num_classes()).with_hidden(16);
    let tc = TrainConfig {
        epochs: 20,
        swa: Some(SwaConfig::new(10, 2)),
        ..TrainConfig::quick()
    };
    let ingredients = train_ingredients(&dataset, &cfg, &tc, 4, 2, 5);
    let outcome = LearnedSouping::new(LearnedHyper {
        epochs: 20,
        ..Default::default()
    })
    .soup(&ingredients, &dataset, &cfg, 6);
    assert!(outcome.val_accuracy > 1.0 / dataset.num_classes() as f64 * 2.0);
}

#[test]
fn ensemble_costs_n_times_soup_params() {
    let (dataset, cfg, ingredients) = mixed_pool(7);
    let soup = UniformSouping.soup(&ingredients, &dataset, &cfg, 1);
    let cmp = compare_soup_vs_ensemble(&soup.params, &ingredients, &dataset, &cfg);
    assert_eq!(
        cmp.ensemble_cost.param_bytes,
        ingredients.len() * cmp.soup_cost.param_bytes
    );
    assert_eq!(cmp.ensemble_cost.forward_passes, ingredients.len());
    // Accuracy of both is meaningful (not degenerate).
    assert!(cmp.soup_test_acc > 0.0 && cmp.ensemble_test_acc > 0.0);
}

#[test]
fn diversity_report_detects_mixed_pools() {
    let (dataset, cfg, mixed) = mixed_pool(8);
    let report = diversity_report(&mixed, &dataset, &cfg);
    // Weak+strong pool: accuracy spread and disagreement must be non-trivial.
    assert!(report.val_acc_std > 0.005, "acc std {}", report.val_acc_std);
    assert!(
        report.mean_disagreement > 0.02,
        "disagreement {}",
        report.mean_disagreement
    );
    assert!(report.mean_weight_distance > 0.0);
}

#[test]
fn pls_random_partitions_still_converge_but_cut_more_edges() {
    use enhanced_soups::partition::{edge_cut, random_partition, PartitionConfig};
    let (dataset, cfg, ingredients) = mixed_pool(9);
    let k = 8;
    let ml = enhanced_soups::partition::partition_val_balanced(
        &dataset.graph,
        &dataset.splits,
        &PartitionConfig::new(k).with_seed(2),
    );
    let rnd = random_partition(dataset.num_nodes(), k, 2);
    assert!(
        edge_cut(&dataset.graph, &ml.assignment) < edge_cut(&dataset.graph, &rnd.assignment),
        "multilevel should cut fewer edges than random"
    );
    let hyper = LearnedHyper {
        epochs: 12,
        ..Default::default()
    };
    let outcome = PartitionLearnedSouping::new(hyper, k, 3)
        .with_partitioner(PartitionerKind::Random)
        .soup(&ingredients, &dataset, &cfg, 4);
    assert!(outcome.val_accuracy > 1.0 / dataset.num_classes() as f64);
}

#[test]
fn checkpointed_ingredients_soup_identically() {
    let (dataset, cfg, ingredients) = mixed_pool(10);
    let dir = std::env::temp_dir().join("soup_ext_test_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let reloaded: Vec<Ingredient> = ingredients
        .iter()
        .map(|ing| {
            let path = checkpoint_path(&dir, ing.id);
            let ck = Checkpoint::new(ing.id, ing.train_seed, ing.val_accuracy, ing.params.clone());
            save_checkpoint(&ck, &path).unwrap();
            let ck = load_checkpoint(&path).unwrap();
            Ingredient::new(ck.id, ck.params, ck.val_accuracy, ck.train_seed)
        })
        .collect();
    let a = GisSouping::new(6).soup(&ingredients, &dataset, &cfg, 5);
    let b = GisSouping::new(6).soup(&reloaded, &dataset, &cfg, 5);
    assert_eq!(a.val_accuracy, b.val_accuracy);
    for (x, y) in a.params.flat().zip(b.params.flat()) {
        assert_eq!(x, y);
    }
    std::fs::remove_dir_all(&dir).ok();
}
